//! Hardware configurations (Table III).
//!
//! All designs are iso-area at 64.48 mm² / 192 MB SRAM / 1 GHz, matching
//! Table III. `sim_scale` divides PE counts and [`BW_SIM_SCALE`] divides
//! DRAM bandwidth so the scaled-down model zoo exercises the same
//! compute-to-memory balance the paper's full-size models hit on the
//! full-size hardware — the decisive dimensionless quantity is
//! MAC-slots-per-DRAM-byte per unit of operand reuse, which this preserves.
//!
//! The same argument lets the Table I UNets keep one spatial resolution
//! throughout: down/up-sampling changes per-layer shapes, not that ratio
//! or any temporal-difference statistic, which the hierarchy extension
//! (`ditto-figs ext-hierarchy`) checks on a true down/up-sampling UNet.

/// Static hardware parameters of one accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HwConfig {
    /// Table III row name.
    pub name: &'static str,
    /// Number of 4-bit×8-bit multipliers (0 for pure A8W8 designs).
    pub pe_a4w8: u64,
    /// Number of 8-bit×8-bit MAC units (ITC PEs / Cambricon-D outlier PEs).
    pub pe_a8w8: u64,
    /// Table III power budget (W).
    pub power_w: f64,
    /// On-chip SRAM (MB) — holds weights and intra-step activations.
    pub sram_mb: u64,
    /// Die area (mm²).
    pub area_mm2: f64,
    /// Clock (GHz).
    pub freq_ghz: f64,
    /// DRAM bandwidth in bytes per cycle (256 B/cycle @1 GHz = 256 GB/s).
    pub dram_bw: f64,
    /// PE-count divisor adapting paper-size hardware to the scaled model
    /// zoo (bandwidth is divided by [`BW_SIM_SCALE`]; see module docs).
    pub sim_scale: f64,
}

/// Default simulation scale (see module docs).
pub const DEFAULT_SIM_SCALE: f64 = 16.0;

/// Default DRAM bandwidth (bytes per cycle at 1 GHz): 256 GB/s, an
/// HBM-class interface.
pub const DEFAULT_DRAM_BW: f64 = 256.0;

/// Bandwidth simulation scale. Smaller than [`DEFAULT_SIM_SCALE`] because
/// the scaled-down model zoo shrinks *reuse* dimensions (output channels,
/// token/feature widths: 32–96 vs the paper's 256–1280) along with operand
/// sizes — its layers have intrinsically lower arithmetic intensity than
/// the paper's. Scaling bandwidth by the full PE factor would therefore
/// misclassify nearly every layer as memory-bound; a 3× bandwidth scale
/// restores the paper's compute-to-traffic balance, in which wide layers
/// profit from temporal differences and only low-reuse layers are
/// memory-bound (the ~14% Defo changes back in Fig. 17).
pub const BW_SIM_SCALE: f64 = 3.0;

impl HwConfig {
    /// Integer Tensor Core baseline: 27 648 A8W8 PEs (Table III).
    pub fn itc() -> Self {
        HwConfig {
            name: "ITC",
            pe_a4w8: 0,
            pe_a8w8: 27_648,
            power_w: 36.9,
            sram_mb: 192,
            area_mm2: 64.48,
            freq_ghz: 1.0,
            dram_bw: DEFAULT_DRAM_BW,
            sim_scale: DEFAULT_SIM_SCALE,
        }
    }

    /// Diffy: 39 398 A4W8 PEs (Table III).
    pub fn diffy() -> Self {
        HwConfig { name: "Diffy", pe_a4w8: 39_398, pe_a8w8: 0, power_w: 33.6, ..Self::itc() }
    }

    /// Cambricon-D: 38 280 normal A4W8 + 2 552 outlier A8W8 PEs (Table III).
    pub fn cambricon_d() -> Self {
        HwConfig {
            name: "Cambricon-D",
            pe_a4w8: 38_280,
            pe_a8w8: 2_552,
            power_w: 33.3,
            ..Self::itc()
        }
    }

    /// Ditto hardware: 39 398 A4W8 PEs (Table III).
    pub fn ditto() -> Self {
        HwConfig { name: "Ditto", pe_a4w8: 39_398, pe_a8w8: 0, power_w: 33.6, ..Self::itc() }
    }

    /// Effective 4-bit slots per cycle after simulation scaling.
    pub fn slots4_per_cycle(&self) -> f64 {
        self.pe_a4w8 as f64 / self.sim_scale
    }

    /// Effective 8-bit MACs per cycle after simulation scaling.
    pub fn macs8_per_cycle(&self) -> f64 {
        self.pe_a8w8 as f64 / self.sim_scale
    }

    /// Effective DRAM bytes per cycle after simulation scaling.
    pub fn dram_bw_eff(&self) -> f64 {
        self.dram_bw / BW_SIM_SCALE
    }

    /// All Table III rows, for `ditto-figs table3`.
    pub fn table3() -> [HwConfig; 4] {
        [Self::itc(), Self::diffy(), Self::cambricon_d(), Self::ditto()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values_match_paper() {
        let itc = HwConfig::itc();
        assert_eq!(itc.pe_a8w8, 27_648);
        assert_eq!(itc.power_w, 36.9);
        let diffy = HwConfig::diffy();
        assert_eq!(diffy.pe_a4w8, 39_398);
        let cam = HwConfig::cambricon_d();
        assert_eq!(cam.pe_a4w8, 38_280);
        assert_eq!(cam.pe_a8w8, 2_552);
        let ditto = HwConfig::ditto();
        assert_eq!(ditto.pe_a4w8, 39_398);
        for hw in HwConfig::table3() {
            assert_eq!(hw.sram_mb, 192);
            assert_eq!(hw.freq_ghz, 1.0);
            assert!((hw.area_mm2 - 64.48).abs() < 1e-9);
        }
    }

    #[test]
    fn scaling_divides_pes_and_bandwidth() {
        let hw = HwConfig::ditto();
        assert!((hw.slots4_per_cycle() - 39_398.0 / 16.0).abs() < 1e-9);
        assert!((hw.dram_bw_eff() - 256.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn iso_area_pe_tradeoff() {
        // 27 648 A8W8 ≈ 39 398 A4W8 in area → an 8×8 MAC costs ~1.42× a
        // 4×8 MAC, the iso-area assumption behind Table III.
        let ratio = 39_398.0 / 27_648.0;
        assert!(ratio > 1.3 && ratio < 1.6);
    }
}
