//! One function per paper experiment; the `ditto-figs` table
//! ([`crate::figs`]) names them. Every function prints the same
//! rows/series the paper reports, at the [`ModelScale`] it is given.
//!
//! The simulation experiments (fig13–fig19) are declarative: each one
//! names its design set, runs it over the whole Table I suite as one
//! (design × model) grid on [`accel::grid`] (via [`crate::sweep`]), and
//! renders its figure from the structured [`SweepReport`] — the
//! `*_render` functions are pure formatting, exercised byte-for-byte
//! against a sequential reference in `tests/golden_figures.rs`. All trace
//! access goes through the process-wide warm [`Suite::shared`].

use std::fmt::Write as _;

use accel::design::Design;
use accel::drift::inject_drift;
use accel::encoder::{Control, EncodingUnit};
use accel::grid::SweepReport;
use accel::pe::ComputeUnit;
use accel::HwConfig;
use diffusion::{metrics, ModelKind, ModelScale};
use ditto_core::analysis;
use ditto_core::runner::{build_quantizer, DittoHook, ExecPolicy};
use ditto_core::trace::StatView;
use quant::kernels::{int_matmul, widen};

use crate::report::{banner, banner_str, f2, f3, pct, Table};
use crate::suite::{build_model, cached_similarity, Suite, MODELS};
use crate::sweep::{paper_sweep, sweep_traces};

/// Table I: evaluated models, datasets and samplers.
pub fn table1(scale: ModelScale) {
    banner("Table I", "Evaluated Models, Datasets, and Samplers");
    let suite = Suite::shared(scale);
    let mut t = Table::new(["Abbr.", "Dataset", "Sampler", "Steps", "Linear layers", "MACs/step"]);
    for &kind in &MODELS {
        let model = build_model(kind, scale);
        let trace = suite.trace(kind);
        t.row([
            kind.abbr().to_string(),
            kind.dataset().to_string(),
            format!("{:?}", model.sampler),
            model.steps.to_string(),
            trace.layer_count().to_string(),
            format!("{:.1}M", trace.macs_per_step() as f64 / 1e6),
        ]);
    }
    t.print();
}

/// Fig. 3a: cosine similarity of adjacent-step inputs for the two layers
/// the paper plots (SDM `conv-in` and `up.0.0.skip`).
pub fn fig03a(scale: ModelScale) {
    banner("Fig. 3a", "Adjacent-step cosine similarity of SDM conv-in / up.0.0.skip");
    let r = cached_similarity(ModelKind::Sdm, scale);
    let mut t = Table::new(["Layer", "step 25→24", "step 2→1", "mean over run"]);
    for name in ["conv-in", "up.0.0.skip"] {
        let l = r.layer_named(name).expect("paper layer exists");
        let series = &r.temporal_cosine[l];
        let n = series.len();
        // Step indices counted from the end of the run (the paper's time
        // steps count down; step 1 is the last). A step the run does not
        // reach (a short Tiny-scale run) renders as a dash.
        let at = |steps_from_end: usize| {
            n.checked_sub(steps_from_end).map_or_else(|| "—".to_string(), |i| f3(series[i] as f64))
        };
        let mean: f32 = series.iter().sum::<f32>() / n as f32;
        t.row([name.to_string(), at(24), at(1), f3(mean as f64)]);
    }
    t.print();
    println!("(paper: 0.9997 / 0.9972 for conv-in, 0.9934 / 0.948 for up.0.0.skip)");
}

/// Fig. 3b: average temporal vs spatial cosine similarity per model.
pub fn fig03b(scale: ModelScale) {
    banner("Fig. 3b", "Average temporal and spatial similarity of activations");
    let mut t = Table::new(["Model", "Temporal", "Spatial"]);
    let (mut st, mut ss) = (0.0, 0.0);
    for &kind in &MODELS {
        let r = cached_similarity(kind, scale);
        st += r.mean_temporal();
        ss += r.mean_spatial();
        t.row([kind.abbr().to_string(), f3(r.mean_temporal()), f3(r.mean_spatial())]);
    }
    let n = MODELS.len() as f64;
    t.row(["AVG.".to_string(), f3(st / n), f3(ss / n)]);
    t.print();
    println!("(paper: temporal 0.983 avg, ≥0.947 per model; spatial 0.31 avg)");
}

/// Fig. 4a: per-step value ranges of activations and temporal differences
/// for SDM conv-in / up.0.0.skip (sampled at the paper's tick positions).
pub fn fig04a(scale: ModelScale) {
    banner("Fig. 4a", "Value ranges across time steps (SDM conv-in / up.0.0.skip)");
    let r = cached_similarity(ModelKind::Sdm, scale);
    for name in ["conv-in", "up.0.0.skip"] {
        let l = r.layer_named(name).expect("paper layer exists");
        let act = &r.act_range[l];
        let diff = &r.diff_range[l];
        let mut t = Table::new(["Series", "50'", "40", "30", "20", "10", "1", "mean"]);
        let n = act.len();
        let pick = |v: &[f32], steps_from_end: usize| {
            v[n.saturating_sub(steps_from_end + 1).min(v.len() - 1)]
        };
        let mean = |v: &[f32]| v.iter().sum::<f32>() as f64 / v.len() as f64;
        t.row([
            format!("{name} activation"),
            f2(act[0] as f64),
            f2(pick(act, 40) as f64),
            f2(pick(act, 30) as f64),
            f2(pick(act, 20) as f64),
            f2(pick(act, 10) as f64),
            f2(*act.last().unwrap() as f64),
            f2(mean(act)),
        ]);
        let nd = diff.len();
        let pickd = |steps_from_end: usize| diff[nd.saturating_sub(steps_from_end + 1).min(nd - 1)];
        t.row([
            format!("{name} temporal diff"),
            f2(diff[0] as f64),
            f2(pickd(40) as f64),
            f2(pickd(30) as f64),
            f2(pickd(20) as f64),
            f2(pickd(10) as f64),
            f2(*diff.last().unwrap() as f64),
            f2(mean(diff)),
        ]);
        t.print();
    }
    println!("(paper: conv-in act range 4.73 avg vs diff 0.23; up.0.0.skip 21.88 vs 4.83)");
}

/// Fig. 4b: average value range of activations vs temporal differences.
pub fn fig04b(scale: ModelScale) {
    banner("Fig. 4b", "Average value range of activations and temporal differences");
    let mut t = Table::new(["Model", "Activation", "Temporal diff", "Ratio"]);
    let (mut sa, mut sd) = (0.0, 0.0);
    for &kind in &MODELS {
        let r = cached_similarity(kind, scale);
        let (a, d) = (r.mean_act_range(), r.mean_diff_range());
        sa += a;
        sd += d;
        t.row([kind.abbr().to_string(), f2(a), f2(d), format!("{:.2}x", a / d)]);
    }
    let n = MODELS.len() as f64;
    t.row(["AVG.".to_string(), f2(sa / n), f2(sd / n), format!("{:.2}x", sa / sd)]);
    t.print();
    println!("(paper: 8.96x narrower on average; 25.02x for DDPM, 2.44x for CHUR)");
}

/// Fig. 5: bit-width requirement of activations / spatial / temporal
/// differences.
pub fn fig05(scale: ModelScale) {
    banner("Fig. 5", "Bit-width requirement (zero / 4-bit / over-4-bit)");
    let suite = Suite::shared(scale);
    let mut t = Table::new(["Model", "View", "Zero", "4-bit", "Over 4-bit"]);
    let mut avg = [[0.0f64; 3]; 3];
    for &kind in &MODELS {
        let trace = suite.trace(kind);
        for (vi, (view, label)) in [
            (StatView::Activation, "Act."),
            (StatView::Spatial, "Spa Diff."),
            (StatView::Temporal, "Temp Diff."),
        ]
        .iter()
        .enumerate()
        {
            let b = analysis::bitwidth_breakdown(trace, *view);
            avg[vi][0] += b.zero;
            avg[vi][1] += b.low4;
            avg[vi][2] += b.over4;
            t.row([
                kind.abbr().to_string(),
                label.to_string(),
                pct(b.zero),
                pct(b.low4),
                pct(b.over4),
            ]);
        }
    }
    let n = MODELS.len() as f64;
    for (vi, label) in ["Act.", "Spa Diff.", "Temp Diff."].iter().enumerate() {
        t.row([
            "AVG.".to_string(),
            label.to_string(),
            pct(avg[vi][0] / n),
            pct(avg[vi][1] / n),
            pct(avg[vi][2] / n),
        ]);
    }
    t.print();
    println!(
        "(paper: temporal diffs 44.48% zero, 96.01% ≤4-bit incl. zero; act 42.28% over-4-bit)"
    );
}

/// Fig. 6a: relative BOPs of the three processing methods.
pub fn fig06a(scale: ModelScale) {
    banner("Fig. 6a", "Relative BOPs (normalized to the original quantized model)");
    let suite = Suite::shared(scale);
    let mut t = Table::new(["Model", "Activation", "Spatial diff", "Temporal diff"]);
    let (mut ss, mut st) = (0.0, 0.0);
    for &kind in &MODELS {
        let trace = suite.trace(kind);
        let spa = analysis::relative_bops(trace, StatView::Spatial);
        let tmp = analysis::relative_bops(trace, StatView::Temporal);
        ss += spa;
        st += tmp;
        t.row([kind.abbr().to_string(), f3(1.0), f3(spa), f3(tmp)]);
    }
    let n = MODELS.len() as f64;
    t.row(["AVG.".to_string(), f3(1.0), f3(ss / n), f3(st / n)]);
    t.print();
    println!("(paper: temporal 53.3% fewer BOPs than original, 23.1% fewer than spatial)");
}

/// Fig. 6b: per-adjacent-step relative BOPs in SDM for the two paper
/// layers.
pub fn fig06b(scale: ModelScale) {
    banner("Fig. 6b", "Per-step relative BOPs of temporal differences (SDM)");
    let trace = Suite::shared(scale).trace(ModelKind::Sdm);
    for name in ["conv-in", "up.0.0.skip"] {
        let series = analysis::per_step_relative_bops(trace, name).expect("layer exists");
        let n = series.len();
        let mut t =
            Table::new(["Layer", "50'~50", "41~40", "31~30", "21~20", "11~10", "2~1", "mean(2..)"]);
        let pick = |steps_from_end: usize| series[n - 1 - steps_from_end.min(n - 1)];
        let mean: f64 = series[1..].iter().sum::<f64>() / (n - 1) as f64;
        t.row([
            name.to_string(),
            f3(series[1]),
            f3(pick(40)),
            f3(pick(30)),
            f3(pick(20)),
            f3(pick(10)),
            f3(pick(1)),
            f3(mean),
        ]);
        t.print();
    }
    println!(
        "(paper: consistent reduction across steps; final steps save least but stay below 1.0)"
    );
}

/// Fig. 7: the paper's worked example on the behavioral hardware models —
/// the 3×3 activation matrices of two adjacent time steps, the Encoding
/// Unit's classification, and the Compute Unit's multiplier-count
/// accounting ("Zero skipping: 15, 4bit mul: 9, 8bit mul: 3" in the
/// figure).
///
/// # Panics
///
/// Panics if the difference path's output is not bit-exact with dense
/// execution.
pub fn fig07() {
    // Fig. 7's matrices (row-major 3×3).
    let act_t1: Vec<i8> = vec![120, 114, 84, 51, 43, 37, 88, 77, 96]; // time step t+1
    let act_t: Vec<i8> = vec![120, 117, 84, 47, 43, 37, 20, 71, 95]; // time step t
    let weight: Vec<i8> = vec![12, 4, 8, -1, 3, -2, -5, -1, 6];

    println!("=== Fig. 7 worked example on the behavioral datapath ===\n");
    let out_t1 = int_matmul(&widen(&act_t1), &weight, 3, 3, 3);
    println!("conventional output at t+1: {out_t1:?}");

    // Stage 1: the Encoding Unit calculates and classifies differences.
    let enc = EncodingUnit::new().encode(&act_t, &act_t1);
    let deltas = enc.decode(9);
    println!("temporal differences:       {deltas:?}");
    let zero = enc.controls.iter().filter(|&&c| c == Control::ZeroSkip).count();
    let low = enc.controls.iter().filter(|&&c| c == Control::EnqueueLow).count();
    let full = enc.controls.iter().filter(|&&c| c == Control::EnqueueBoth).count();
    // Each element multiplies against one weight column (3 outputs here),
    // so per-element counts scale by 3 — matching the figure's totals.
    println!(
        "per output column: zero skipping: {zero}, 4-bit mul: {low}, 8-bit mul: {full} \
         (×3 columns → {}, {}, {}; the paper's Time Step_t box reads 12 / 12 / 3)",
        zero * 3,
        low * 3,
        full * 3
    );

    // Stages 2+3: the Compute Unit executes only the differences and sums
    // with the previous output, per output element.
    let mut out_t = vec![0i32; 9];
    let mut total_cycles = 0u64;
    for row in 0..3 {
        for col in 0..3 {
            let cur: Vec<i8> = (0..3).map(|k| act_t[row * 3 + k]).collect();
            let prev: Vec<i8> = (0..3).map(|k| act_t1[row * 3 + k]).collect();
            let w: Vec<i8> = (0..3).map(|k| weight[k * 3 + col]).collect();
            let (v, cycles) =
                ComputeUnit::new().matvec_delta(out_t1[row * 3 + col], &cur, &prev, &w);
            out_t[row * 3 + col] = v;
            total_cycles += cycles;
        }
    }
    println!("Ditto output at t:          {out_t:?}");
    let reference = int_matmul(&widen(&act_t), &weight, 3, 3, 3);
    assert_eq!(out_t, reference, "bit-exact with dense execution");
    println!("dense reference:            {reference:?}  (bit-exact ✓)");
    println!("PE issue cycles via differences: {total_cycles} (dense 8-bit would need 18)");
}

/// Fig. 8: relative memory accesses of naive temporal difference
/// processing (before Defo).
pub fn fig08(scale: ModelScale) {
    banner("Fig. 8", "Relative memory accesses of temporal difference processing");
    let suite = Suite::shared(scale);
    let mut t =
        Table::new(["Model", "Activation", "Temporal diff (naive)", "After Defo static bypass"]);
    let (mut sn, mut sd) = (0.0, 0.0);
    for &kind in &MODELS {
        let trace = suite.trace(kind);
        let naive = analysis::naive_temporal_memory_ratio(trace);
        let defo = analysis::defo_temporal_memory_ratio(trace);
        sn += naive;
        sd += defo;
        t.row([kind.abbr().to_string(), f2(1.0), f2(naive), f2(defo)]);
    }
    let n = MODELS.len() as f64;
    t.row(["AVG.".to_string(), f2(1.0), f2(sn / n), f2(sd / n)]);
    t.print();
    println!("(paper: 2.75x more accesses on average for naive temporal processing)");
}

/// Table II: generation quality of FP32 vs Ditto over `samples` seeds per
/// model (proxy metrics — see [`diffusion::metrics`]; relative degradation
/// is the comparable quantity).
pub fn table2(scale: ModelScale, samples: usize) {
    banner("Table II", "Accuracy of diffusion models (proxy metrics)");
    let mut t = Table::new([
        "Model",
        "pFID (FP32 vs Ditto)",
        "pFID (FP32 reseed floor)",
        "pIS FP32",
        "pIS Ditto",
        "pCS FP32",
        "pCS Ditto",
    ]);
    for &kind in &MODELS {
        let model = build_model(kind, scale);
        let quantizer = build_quantizer(&model, 100).expect("calibration");
        let mut fp32_set = Vec::new();
        let mut ditto_set = Vec::new();
        let mut fp32_reseed = Vec::new();
        for s in 0..samples as u64 {
            let seed = 100 + s;
            fp32_set.push(model.run_reverse(seed, &mut diffusion::NullHook).expect("fp32"));
            let mut hook = DittoHook::new(&model, quantizer.clone(), ExecPolicy::Dense);
            ditto_set.push(model.run_reverse(seed, &mut hook).expect("ditto"));
            fp32_reseed
                .push(model.run_reverse(200 + s, &mut diffusion::NullHook).expect("fp32 reseed"));
        }
        let fid = metrics::pseudo_fid(&fp32_set, &ditto_set, 7);
        let fid_floor = metrics::pseudo_fid(&fp32_set, &fp32_reseed, 7);
        let is_fp = metrics::pseudo_is(&fp32_set, 7);
        let is_dt = metrics::pseudo_is(&ditto_set, 7);
        let (cs_fp, cs_dt) = match model.sample_inputs(100).1 {
            Some(cond) => (
                f3(metrics::pseudo_clip_score(&fp32_set, &cond, 7)),
                f3(metrics::pseudo_clip_score(&ditto_set, &cond, 7)),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        t.row([
            kind.abbr().to_string(),
            format!("{fid:.4}"),
            format!("{fid_floor:.4}"),
            f3(is_fp),
            f3(is_dt),
            cs_fp,
            cs_dt,
        ]);
    }
    t.print();
    println!("(paper: Ditto preserves FP32 quality; here pFID(FP32,Ditto) should sit at or below the reseed floor)");
}

/// Table III: hardware configurations.
pub fn table3() {
    banner("Table III", "Hardware configurations");
    let mut t = Table::new([
        "Hardware",
        "# of PE",
        "Bit-width",
        "Power (W)",
        "SRAM (MB)",
        "Area (mm2)",
        "Freq",
    ]);
    for hw in HwConfig::table3() {
        let (pes, bits) = match (hw.pe_a4w8, hw.pe_a8w8) {
            (0, p8) => (format!("{p8}"), "A8W8".to_string()),
            (p4, 0) => (format!("{p4}"), "A4W8".to_string()),
            (p4, p8) => (format!("normal-{p4} outlier-{p8}"), "A4W8+A8W8".to_string()),
        };
        t.row([
            hw.name.to_string(),
            pes,
            bits,
            f2(hw.power_w),
            hw.sram_mb.to_string(),
            f2(hw.area_mm2),
            format!("{}GHz", hw.freq_ghz),
        ]);
    }
    t.print();
}

/// Fig. 13: speedup (top) and relative energy (bottom) of every hardware
/// design, normalized to ITC.
pub fn fig13(scale: ModelScale) {
    print!("{}", fig13_render(&paper_sweep(Design::fig13_set(), scale)));
}

/// Renders Fig. 13 from a structured sweep over [`Design::fig13_set`]
/// (design 0 must be ITC, design 3 Ditto).
pub fn fig13_render(r: &SweepReport) -> String {
    let mut out = banner_str("Fig. 13", "Speedup and relative energy vs ITC");
    let designs = r.designs.len();
    let mut t = Table::new(["Model", "GPU", "ITC", "Diffy", "Cam-D", "Ditto", "Ditto+"]);
    let mut e = Table::new(["Model", "GPU", "ITC", "Diffy", "Cam-D", "Ditto", "Ditto+"]);
    let mut sums = vec![0.0f64; designs + 1];
    let mut esums = vec![0.0f64; designs + 1];
    for (mi, model) in r.models.iter().enumerate() {
        // Design 0 is ITC, the normalization baseline.
        let row = r.model_row(mi);
        let itc = &row[0].run;
        let gpu = r.gpu(mi);
        let mut srow = vec![model.clone(), f2(gpu.speedup_over(itc)), f2(1.0)];
        let mut erow = vec![model.clone(), f2(gpu.relative_energy(itc)), f2(1.0)];
        sums[0] += gpu.speedup_over(itc);
        esums[0] += gpu.relative_energy(itc);
        for (i, c) in row.iter().enumerate().skip(1) {
            sums[i] += c.run.speedup_over(itc);
            esums[i] += c.run.relative_energy(itc);
            srow.push(f2(c.run.speedup_over(itc)));
            erow.push(f2(c.run.relative_energy(itc)));
        }
        t.row(srow);
        e.row(erow);
    }
    let n = r.models.len() as f64;
    let mut avg_s = vec!["AVG.".to_string(), f2(sums[0] / n), f2(1.0)];
    let mut avg_e = vec!["AVG.".to_string(), f2(esums[0] / n), f2(1.0)];
    for i in 1..designs {
        avg_s.push(f2(sums[i] / n));
        avg_e.push(f2(esums[i] / n));
    }
    t.row(avg_s);
    e.row(avg_e);
    let _ = writeln!(out, "-- speedup (top; normalized to ITC) --");
    out.push_str(&t.to_markdown());
    let _ = writeln!(out, "-- relative energy (bottom; normalized to ITC) --");
    out.push_str(&e.to_markdown());
    // Energy breakdown of the Ditto hardware (the stacked-bar content).
    let mut b = Table::new(["Model", "CU", "EU", "VPU", "Defo", "SRAM", "DRAM", "static"]);
    for (mi, model) in r.models.iter().enumerate() {
        let f = r.cell(3, mi).run.energy.fractions();
        b.row([
            model.clone(),
            pct(f[0]),
            pct(f[1]),
            pct(f[2]),
            pct(f[3]),
            pct(f[4]),
            pct(f[5]),
            pct(f[6]),
        ]);
    }
    let _ = writeln!(out, "-- Ditto energy breakdown --");
    out.push_str(&b.to_markdown());
    let _ = writeln!(
        out,
        "(paper: Ditto 1.5x speedup / 17.74% energy saving over ITC; Ditto+ 1.06x over Ditto;"
    );
    let _ = writeln!(out, " Ditto 1.56x over Cambricon-D, 43.24% energy saving vs Cam-D; GPU avg speedup 0.18, energy 55x)");
    out
}

/// Fig. 14: relative memory accesses of the hardware designs.
pub fn fig14(scale: ModelScale) {
    let designs = vec![Design::itc(), Design::cambricon_d(), Design::ditto(), Design::ditto_plus()];
    print!("{}", fig14_render(&paper_sweep(designs, scale)));
}

/// Renders Fig. 14 from a sweep over `[ITC, Cam-D, Ditto, Ditto+]`.
pub fn fig14_render(r: &SweepReport) -> String {
    let mut out = banner_str("Fig. 14", "Relative memory accesses (normalized to ITC)");
    let mut t = Table::new(["Model", "ITC", "Cam-D", "Ditto", "Ditto+"]);
    let mut sums = [0.0f64; 3];
    for (mi, model) in r.models.iter().enumerate() {
        let row = r.model_row(mi);
        let itc = &row[0].run;
        let ratios = [
            row[1].run.total_bytes / itc.total_bytes,
            row[2].run.total_bytes / itc.total_bytes,
            row[3].run.total_bytes / itc.total_bytes,
        ];
        for (s, v) in sums.iter_mut().zip(ratios) {
            *s += v;
        }
        t.row([model.clone(), f2(1.0), f2(ratios[0]), f2(ratios[1]), f2(ratios[2])]);
    }
    let n = r.models.len() as f64;
    t.row(["AVG.".to_string(), f2(1.0), f2(sums[0] / n), f2(sums[1] / n), f2(sums[2] / n)]);
    out.push_str(&t.to_markdown());
    let _ = writeln!(out, "(paper: Cam-D 1.95x, Ditto 1.56x, Ditto+ 1.36x)");
    out
}

/// Fig. 15: cross-applying software techniques between Cambricon-D and
/// Ditto (normalized to the original Cambricon-D).
pub fn fig15(scale: ModelScale) {
    print!("{}", fig15_render(&paper_sweep(Design::fig15_set(), scale)));
}

/// Renders Fig. 15 from a sweep over [`Design::fig15_set`] (design 0 is
/// the original Cambricon-D baseline).
pub fn fig15_render(r: &SweepReport) -> String {
    let mut out = banner_str("Fig. 15", "Cross-application of software techniques (vs Org. Cam-D)");
    let mut header = vec!["Model".to_string()];
    header.extend(r.designs.iter().cloned());
    let mut t = Table::new(header);
    let mut sums = vec![0.0f64; r.designs.len()];
    for (mi, model) in r.models.iter().enumerate() {
        let row = r.model_row(mi);
        let base = &row[0].run;
        let mut cells = vec![model.clone()];
        for (i, c) in row.iter().enumerate() {
            let s = c.run.speedup_over(base);
            sums[i] += s;
            cells.push(f2(s));
        }
        t.row(cells);
    }
    let n = r.models.len() as f64;
    let mut avg = vec!["AVG.".to_string()];
    avg.extend(sums.iter().map(|s| f2(s / n)));
    t.row(avg);
    out.push_str(&t.to_markdown());
    let _ = writeln!(
        out,
        "(paper: Cam-D +Ditto techniques 1.16x; Ditto +sign-mask 1.068x, Ditto+ +sign-mask 1.055x;"
    );
    let _ = writeln!(out, " all Cam-D variants stay below the Ditto hardware)");
    out
}

/// Fig. 16: cycle-count breakdown (compute vs memory stall) for the design
/// ablations, relative to ITC.
pub fn fig16(scale: ModelScale) {
    // One sweep covers the normalization baseline and every ablation.
    let mut designs = vec![Design::itc()];
    designs.extend(Design::fig16_set());
    print!("{}", fig16_render(&paper_sweep(designs, scale)));
}

/// Renders Fig. 16 from a sweep over `[ITC] + fig16_set` (design 0 is the
/// ITC normalization baseline; the ablations follow).
pub fn fig16_render(r: &SweepReport) -> String {
    let mut out =
        banner_str("Fig. 16", "Cycle counts of Ditto hardware variants (relative to ITC)");
    let mut header = vec!["Model".to_string(), "metric".to_string()];
    header.extend(r.designs[1..].iter().cloned());
    let mut t = Table::new(header);
    for (mi, model) in r.models.iter().enumerate() {
        let row = r.model_row(mi);
        let itc = &row[0].run;
        let mut comp = vec![model.clone(), "compute".to_string()];
        let mut stall = vec![model.clone(), "mem stall".to_string()];
        for c in &row[1..] {
            comp.push(f2(c.run.compute_cycles / itc.cycles));
            stall.push(f2(c.run.stall_cycles / itc.cycles));
        }
        t.row(comp);
        t.row(stall);
    }
    out.push_str(&t.to_markdown());
    let _ = writeln!(
        out,
        "(paper: DS/DB suffer large memory stalls; Ditto cuts stalls 39.24% vs DB&DS&Attn,"
    );
    let _ = writeln!(out, " for an 18.32% performance gain)");
    out
}

/// Fig. 17: Defo execution-type changes and prediction accuracy.
pub fn fig17(scale: ModelScale) {
    let designs = vec![Design::ditto(), Design::ditto_plus()];
    print!("{}", fig17_render(&paper_sweep(designs, scale)));
}

/// Renders Fig. 17 from a sweep over `[Ditto, Ditto+]`.
pub fn fig17_render(r: &SweepReport) -> String {
    let mut out =
        banner_str("Fig. 17", "Defo layer execution-type changes (top) and accuracy (bottom)");
    let mut t =
        Table::new(["Model", "Defo change", "Defo accuracy", "Defo+ change", "Defo+ accuracy"]);
    let mut sums = [0.0f64; 4];
    for (mi, model) in r.models.iter().enumerate() {
        let d = r.cell(0, mi).run.defo.expect("defo");
        let p = r.cell(1, mi).run.defo.expect("defo+");
        let vals = [d.changed_ratio, d.accuracy, p.changed_ratio, p.accuracy];
        for (s, v) in sums.iter_mut().zip(vals) {
            *s += v;
        }
        t.row([model.clone(), pct(vals[0]), pct(vals[1]), pct(vals[2]), pct(vals[3])]);
    }
    let n = r.models.len() as f64;
    t.row([
        "AVG.".to_string(),
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        pct(sums[3] / n),
    ]);
    out.push_str(&t.to_markdown());
    let _ = writeln!(
        out,
        "(paper: Defo changes 14.4% of layers with 92% accuracy; Defo+ 38.29% with 88.11%)"
    );
    out
}

/// Fig. 18: Ditto vs oracle-Defo (Ideal) designs.
pub fn fig18(scale: ModelScale) {
    let designs = vec![
        Design::itc(),
        Design::ditto(),
        Design::ideal_ditto(),
        Design::ditto_plus(),
        Design::ideal_ditto_plus(),
    ];
    print!("{}", fig18_render(&paper_sweep(designs, scale)));
}

/// Renders Fig. 18 from a sweep over
/// `[ITC, Ditto, Ideal-Ditto, Ditto+, Ideal-Ditto+]`.
pub fn fig18_render(r: &SweepReport) -> String {
    let mut out = banner_str("Fig. 18", "Ditto vs Ideal-Ditto (speedup over ITC)");
    let mut t = Table::new(["Model", "ITC", "Ditto", "Ideal-Ditto", "Ditto+", "Ideal-Ditto+"]);
    let mut fracs = (0.0f64, 0.0f64);
    for (mi, model) in r.models.iter().enumerate() {
        let row = r.model_row(mi);
        let [itc, ditto, ideal, plus, ideal_plus] =
            [&row[0].run, &row[1].run, &row[2].run, &row[3].run, &row[4].run];
        fracs.0 += ideal.cycles / ditto.cycles;
        fracs.1 += ideal_plus.cycles / plus.cycles;
        t.row([
            model.clone(),
            f2(1.0),
            f2(ditto.speedup_over(itc)),
            f2(ideal.speedup_over(itc)),
            f2(plus.speedup_over(itc)),
            f2(ideal_plus.speedup_over(itc)),
        ]);
    }
    let n = r.models.len() as f64;
    out.push_str(&t.to_markdown());
    let _ = writeln!(
        out,
        "Ditto reaches {:.1}% of Ideal-Ditto, Ditto+ {:.1}% of Ideal-Ditto+ (paper: 98.8% / 95.8%)",
        100.0 * fracs.0 / n,
        100.0 * fracs.1 / n
    );
    out
}

/// Fig. 19: Dynamic-Ditto under injected value-distribution drift.
pub fn fig19(scale: ModelScale) {
    let suite = Suite::shared(scale);
    // Drift amplitude/period chosen to flip marginal layers mid-run.
    let drifted: Vec<_> = MODELS
        .iter()
        .map(|&kind| {
            let trace = suite.trace(kind);
            inject_drift(trace, 0.6, (trace.step_count() / 2).max(2))
        })
        .collect();
    let designs =
        vec![Design::itc(), Design::ditto(), Design::dynamic_ditto(), Design::ideal_ditto()];
    let report = sweep_traces(designs, drifted.iter().collect()).expect("drift sweep");
    print!("{}", fig19_render(&report));
}

/// Renders Fig. 19 from a sweep over `[ITC, Ditto, Dyn.-Ditto,
/// Ideal-Ditto]` on drift-injected traces.
pub fn fig19_render(r: &SweepReport) -> String {
    let mut out = banner_str(
        "Fig. 19",
        "Defo under drifting temporal similarity (speedup vs ITC / accuracy)",
    );
    let mut t = Table::new(["Model", "Ditto", "Dyn.-Ditto", "Ideal-Ditto", "Ditto acc", "Dyn acc"]);
    let mut rel = (0.0f64, 0.0f64);
    for (mi, model) in r.models.iter().enumerate() {
        let row = r.model_row(mi);
        let [itc, ditto, dynd, ideal] = [&row[0].run, &row[1].run, &row[2].run, &row[3].run];
        rel.0 += ditto.cycles / ideal.cycles;
        rel.1 += dynd.cycles / ideal.cycles;
        t.row([
            model.clone(),
            f2(ditto.speedup_over(itc)),
            f2(dynd.speedup_over(itc)),
            f2(ideal.speedup_over(itc)),
            pct(ditto.defo.unwrap().accuracy),
            pct(dynd.defo.unwrap().accuracy),
        ]);
    }
    let n = r.models.len() as f64;
    out.push_str(&t.to_markdown());
    let _ = writeln!(
        out,
        "Ideal-relative performance: Ditto {:.1}%, Dynamic-Ditto {:.1}% (paper: 98.03% / 98.18%; accuracy drops ~7%)",
        100.0 * n / rel.0,
        100.0 * n / rel.1
    );
    out
}
