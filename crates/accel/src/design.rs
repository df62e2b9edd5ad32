//! Accelerator design points: capability flags over a [`HwConfig`].
//!
//! One unified simulator covers every design the paper evaluates; designs
//! differ only in which mechanisms they enable, on the scaled hardware
//! [`crate::config`] describes:
//!
//! | Design | temporal | spatial | zero-skip | dyn-bitwidth | outlier PE | sign-mask | attn-diff | Defo |
//! |---|---|---|---|---|---|---|---|---|
//! | ITC | – | – | – | – | – | – | – | – |
//! | Diffy | – | ✓ | ✓ | ✓ | – | – | ✓(rows) | – |
//! | Cambricon-D | ✓ | – | – | ✓ | ✓ | ✓ | ✓(integrated) | – |
//! | Ditto | ✓ | – | ✓ | ✓ | – | – | ✓ | Static |
//! | Ditto+ | ✓ | ✓ | ✓ | ✓ | – | – | ✓ | Plus |
//! | DS / DB / DB&DS / +Attn (Fig. 16) | ✓ | – | per flag | per flag | – | – | per flag | – |

use crate::config::HwConfig;

/// Defo execution-flow policy (§IV-B, §VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefoMode {
    /// No runtime flow selection: difference mode whenever available.
    None,
    /// The Ditto Defo: first step original activations (cycles recorded),
    /// second step differences (cycles recorded), later steps fixed per
    /// layer by the step-1 vs step-0 comparison.
    Static,
    /// Defo+: the original-activation fallback is replaced by spatial
    /// difference processing (first step and act-chosen layers).
    Plus,
    /// Dynamic-Ditto (Fig. 19): like `Static` but keeps monitoring and can
    /// switch difference → original at any later step (one-way, since the
    /// difference cycle count is unobservable while running originals).
    Dynamic,
    /// Oracle: per layer *and per step*, the cheaper of temporal difference
    /// and original-activation execution (Fig. 18's Ideal-Ditto).
    Ideal,
    /// Oracle with the spatial fallback (Ideal-Ditto+).
    IdealPlus,
}

impl DefoMode {
    /// Whether the fallback execution mode is spatial differencing.
    pub fn spatial_fallback(self) -> bool {
        matches!(self, DefoMode::Plus | DefoMode::IdealPlus)
    }
}

/// A complete design point.
#[derive(Debug, Clone)]
pub struct Design {
    /// Display name (Fig. 13 / Fig. 15 / Fig. 16 labels).
    pub name: String,
    /// Hardware resources.
    pub hw: HwConfig,
    /// Exploits temporal (adjacent-step) differences.
    pub temporal: bool,
    /// Exploits spatial (row) differences.
    pub spatial: bool,
    /// Skips zero values via the Encoding Unit reordering.
    pub zero_skip: bool,
    /// Executes ≤4-bit values on single 4-bit multipliers.
    pub dyn_bitwidth: bool,
    /// Routes over-4-bit values to dedicated outlier PEs (Cambricon-D)
    /// instead of pairing 4-bit multipliers.
    pub outlier_pe: bool,
    /// Sign-mask data flow: absorbs difference-processing memory overhead
    /// at SiLU / Group-Norm boundaries only (Cambricon-D).
    pub sign_mask: bool,
    /// Applies difference processing to attention matmuls via the
    /// two-sub-operation decomposition (§IV-A).
    pub attention_diff: bool,
    /// Execution-flow policy.
    pub defo: DefoMode,
}

impl Design {
    /// Integer-Tensor-Core baseline: dense A8W8.
    pub fn itc() -> Self {
        Design {
            name: "ITC".into(),
            hw: HwConfig::itc(),
            temporal: false,
            spatial: false,
            zero_skip: false,
            dyn_bitwidth: false,
            outlier_pe: false,
            sign_mask: false,
            attention_diff: false,
            defo: DefoMode::None,
        }
    }

    /// Diffy (extended to FC/attention rows, §VI-A).
    pub fn diffy() -> Self {
        Design {
            name: "Diffy".into(),
            hw: HwConfig::diffy(),
            spatial: true,
            zero_skip: true,
            dyn_bitwidth: true,
            attention_diff: true,
            ..Self::itc()
        }
    }

    /// Cambricon-D with the paper's fair-comparison integration (dependency
    /// check + attention differences, §VI-A).
    pub fn cambricon_d() -> Self {
        Design {
            name: "Cam-D".into(),
            hw: HwConfig::cambricon_d(),
            temporal: true,
            dyn_bitwidth: true,
            outlier_pe: true,
            sign_mask: true,
            attention_diff: true,
            ..Self::itc()
        }
    }

    /// The Ditto hardware.
    pub fn ditto() -> Self {
        Design {
            name: "Ditto".into(),
            hw: HwConfig::ditto(),
            temporal: true,
            zero_skip: true,
            dyn_bitwidth: true,
            attention_diff: true,
            defo: DefoMode::Static,
            ..Self::itc()
        }
    }

    /// Ditto+ (spatial fallback, §IV-B).
    pub fn ditto_plus() -> Self {
        Design { name: "Ditto+".into(), spatial: true, defo: DefoMode::Plus, ..Self::ditto() }
    }

    /// Fig. 16 ablation: dynamic sparsity only (8-bit PEs, iso-area).
    pub fn ds() -> Self {
        Design {
            name: "DS".into(),
            hw: HwConfig { name: "DS", ..HwConfig::itc() },
            temporal: true,
            zero_skip: true,
            ..Self::itc()
        }
    }

    /// Fig. 16 ablation: dynamic bit-width only (4-bit PEs, no skipping).
    pub fn db() -> Self {
        Design {
            name: "DB".into(),
            hw: HwConfig { name: "DB", ..HwConfig::ditto() },
            temporal: true,
            dyn_bitwidth: true,
            ..Self::itc()
        }
    }

    /// Fig. 16 ablation: sparsity + bit-width, attention in act mode.
    pub fn db_ds() -> Self {
        Design { name: "DB&DS".into(), zero_skip: true, ..Self::db() }
    }

    /// Fig. 16 ablation: sparsity + bit-width + attention differences.
    pub fn db_ds_attn() -> Self {
        Design { name: "DB&DS&Attn.".into(), attention_diff: true, ..Self::db_ds() }
    }

    /// Ideal-Ditto (oracle Defo, Fig. 18).
    pub fn ideal_ditto() -> Self {
        Design { name: "Ideal-Ditto".into(), defo: DefoMode::Ideal, ..Self::ditto() }
    }

    /// Ideal-Ditto+ (oracle Defo with spatial fallback, Fig. 18).
    pub fn ideal_ditto_plus() -> Self {
        Design { name: "Ideal-Ditto+".into(), defo: DefoMode::IdealPlus, ..Self::ditto_plus() }
    }

    /// Dynamic-Ditto (Fig. 19).
    pub fn dynamic_ditto() -> Self {
        Design { name: "Dyn.-Ditto".into(), defo: DefoMode::Dynamic, ..Self::ditto() }
    }

    /// Fig. 15 variant: original Cambricon-D (no attention differences).
    pub fn cambricon_d_original() -> Self {
        Design { name: "Org. Cam-D".into(), attention_diff: false, ..Self::cambricon_d() }
    }

    /// Fig. 15 variant: Cambricon-D + attention differences.
    pub fn cambricon_d_attn() -> Self {
        Design { name: "Org. Cam-D & Attn. Diff.".into(), ..Self::cambricon_d() }
    }

    /// Fig. 15 variant: Cambricon-D + attention differences + Defo.
    pub fn cambricon_d_attn_defo() -> Self {
        Design {
            name: "Org. Cam-D & Attn. Diff. & Defo".into(),
            defo: DefoMode::Static,
            ..Self::cambricon_d()
        }
    }

    /// Fig. 15 variant: Cambricon-D + attention differences + Defo+.
    pub fn cambricon_d_attn_defo_plus() -> Self {
        Design {
            name: "Org. Cam-D & Attn. Diff. & Defo+".into(),
            defo: DefoMode::Plus,
            spatial: true,
            ..Self::cambricon_d()
        }
    }

    /// Fig. 15 variant: Ditto + Cambricon-D's sign-mask data flow.
    pub fn ditto_sign_mask() -> Self {
        Design { name: "Ditto & Sign-mask".into(), sign_mask: true, ..Self::ditto() }
    }

    /// Fig. 15 variant: Ditto+ + sign-mask.
    pub fn ditto_plus_sign_mask() -> Self {
        Design { name: "Ditto+ & Sign-mask".into(), sign_mask: true, ..Self::ditto_plus() }
    }

    /// The Fig. 13 comparison set (hardware designs; the GPU is handled by
    /// [`crate::gpu`]).
    pub fn fig13_set() -> Vec<Design> {
        vec![Self::itc(), Self::diffy(), Self::cambricon_d(), Self::ditto(), Self::ditto_plus()]
    }

    /// The Fig. 16 ablation set.
    pub fn fig16_set() -> Vec<Design> {
        vec![
            Self::ds(),
            Self::db(),
            Self::db_ds(),
            Self::db_ds_attn(),
            Self::ditto(),
            Self::ditto_plus(),
        ]
    }

    /// Every public design constructor: the Fig. 13 comparison set, the
    /// Fig. 16 DS/DB ablations, the Fig. 15 cross-application variants,
    /// and the ideal / dynamic Defo policies. This is the design namespace
    /// the `serve` front-end resolves request names against.
    pub fn catalog() -> Vec<Design> {
        vec![
            Self::itc(),
            Self::diffy(),
            Self::cambricon_d(),
            Self::ditto(),
            Self::ditto_plus(),
            Self::ds(),
            Self::db(),
            Self::db_ds(),
            Self::db_ds_attn(),
            Self::ideal_ditto(),
            Self::ideal_ditto_plus(),
            Self::dynamic_ditto(),
            Self::cambricon_d_original(),
            Self::cambricon_d_attn(),
            Self::cambricon_d_attn_defo(),
            Self::cambricon_d_attn_defo_plus(),
            Self::ditto_sign_mask(),
            Self::ditto_plus_sign_mask(),
        ]
    }

    /// Looks a design up by its display name (case-insensitive), e.g.
    /// `"Ditto+"` or `"Cam-D"`.
    pub fn from_name(name: &str) -> Option<Design> {
        Self::catalog().into_iter().find(|d| d.name.eq_ignore_ascii_case(name))
    }

    /// The Fig. 15 cross-application set.
    pub fn fig15_set() -> Vec<Design> {
        vec![
            Self::cambricon_d_original(),
            Self::cambricon_d_attn(),
            Self::cambricon_d_attn_defo(),
            Self::cambricon_d_attn_defo_plus(),
            Self::ditto(),
            Self::ditto_sign_mask(),
            Self::ditto_plus(),
            Self::ditto_plus_sign_mask(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_capability_table() {
        let itc = Design::itc();
        assert!(!itc.temporal && !itc.spatial && !itc.zero_skip);
        let diffy = Design::diffy();
        assert!(diffy.spatial && !diffy.temporal && diffy.zero_skip);
        let cam = Design::cambricon_d();
        assert!(cam.temporal && cam.outlier_pe && cam.sign_mask && !cam.zero_skip);
        let ditto = Design::ditto();
        assert!(ditto.temporal && ditto.zero_skip && ditto.dyn_bitwidth);
        assert_eq!(ditto.defo, DefoMode::Static);
        assert!(!ditto.outlier_pe && !ditto.sign_mask);
        let plus = Design::ditto_plus();
        assert!(plus.spatial);
        assert!(plus.defo.spatial_fallback());
    }

    #[test]
    fn ablation_set_is_ordered_like_fig16() {
        let names: Vec<String> = Design::fig16_set().into_iter().map(|d| d.name).collect();
        assert_eq!(names, vec!["DS", "DB", "DB&DS", "DB&DS&Attn.", "Ditto", "Ditto+"]);
    }

    #[test]
    fn ds_uses_8bit_pes_db_uses_4bit() {
        assert!(Design::ds().hw.pe_a8w8 > 0);
        assert_eq!(Design::ds().hw.pe_a4w8, 0);
        assert!(Design::db().hw.pe_a4w8 > 0);
        assert_eq!(Design::db().hw.pe_a8w8, 0);
    }

    #[test]
    fn fig15_set_has_eight_variants() {
        assert_eq!(Design::fig15_set().len(), 8);
    }

    #[test]
    fn catalog_names_are_unique_and_resolvable() {
        let catalog = Design::catalog();
        assert_eq!(catalog.len(), 18);
        for d in &catalog {
            let found = Design::from_name(&d.name).expect("every catalog name resolves");
            assert_eq!(found.name, d.name);
        }
        let names: std::collections::HashSet<_> = catalog.iter().map(|d| &d.name).collect();
        assert_eq!(names.len(), catalog.len(), "catalog names collide");
        assert!(Design::from_name("ditto+").is_some(), "lookup is case-insensitive");
        assert!(Design::from_name("no-such-design").is_none());
    }
}
