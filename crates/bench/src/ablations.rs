//! Ablation and extension experiments beyond the paper's figures, probing
//! the design choices the paper's argument rests on. Each runs at the
//! [`ModelScale`] it is given:
//!
//! * [`bandwidth`] — DRAM-bandwidth sensitivity of the Ditto hardware and
//!   of Defo's execution-type mix (the compute-/memory-bound crossover the
//!   whole §IV-B story hinges on).
//! * [`quantization`] — calibration granularity (single scale → Q-Diffusion
//!   clusters → TDQ per-step scales) vs the temporal-difference statistics
//!   and generation quality: finer grids track ranges better but re-grid
//!   the difference domain at every boundary.
//! * [`pipeline_fidelity`] — the analytic max(compute, DRAM) bound vs a
//!   tile pipeline under bursty sparsity.
//! * [`classifier_free_guidance`] — CFG: temporal similarity survives CFG
//!   only if difference state is kept per conditioning branch.
//! * [`hierarchy`] — a true down/up-sampling UNet through the full stack
//!   (Defo sees `Upsample2x` as difference-transparent).

use accel::design::Design;
use accel::sim::simulate;
use diffusion::models::build_hierarchical_unet;
use diffusion::{metrics, DiffusionModel, ModelKind, ModelScale, NullHook};
use ditto_core::analysis;
use ditto_core::runner::{CalibrationHook, DittoHook, ExecPolicy};
use ditto_core::trace::StatView;
use quant::Quantizer;

use crate::report::{banner, f2, f3, pct, Table};
use crate::suite::{build_model, Suite, WEIGHT_SEED};
use crate::sweep::sweep_traces;

/// DRAM-bandwidth sensitivity sweep on the SDM workload.
pub fn bandwidth(scale: ModelScale) {
    banner("Ablation A1", "DRAM bandwidth sensitivity (SDM workload)");
    let trace = Suite::shared(scale).trace(ModelKind::Sdm);
    let mut t =
        Table::new(["DRAM BW (B/cyc @1GHz)", "Ditto speedup vs ITC", "Defo change", "stall share"]);
    // The whole (bandwidth × design) grid is one parallel sweep on the
    // grid engine: ITC and Ditto variants at each bandwidth, interleaved
    // pairwise along the design axis.
    const BWS: [f64; 6] = [32.0, 64.0, 128.0, 256.0, 512.0, 1024.0];
    let grid: Vec<Design> = BWS
        .iter()
        .flat_map(|&bw| {
            let mut itc = Design::itc();
            itc.hw.dram_bw = bw;
            let mut ditto = Design::ditto();
            ditto.hw.dram_bw = bw;
            [itc, ditto]
        })
        .collect();
    let report = sweep_traces(grid, vec![trace]).expect("bandwidth sweep");
    for (bw, pair) in BWS.iter().zip(report.cells.chunks_exact(2)) {
        let (r_itc, r) = (&pair[0].run, &pair[1].run);
        t.row([
            format!("{bw}"),
            f2(r.speedup_over(r_itc)),
            pct(r.defo.unwrap().changed_ratio),
            pct(r.stall_cycles / r.cycles),
        ]);
    }
    t.print();
    println!("(expected: at low bandwidth Defo falls back to original activations and the");
    println!(" speedup collapses toward the act-mode ratio; at high bandwidth stalls vanish)");
}

/// Calibration-granularity sweep on DDPM: scales per layer across the
/// schedule.
pub fn quantization(scale: ModelScale) {
    banner("Ablation A2", "Calibration granularity vs temporal differences and quality");
    let model = build_model(ModelKind::Ddpm, scale);
    let fp32 = vec![
        model.run_reverse(0, &mut NullHook).expect("fp32"),
        model.run_reverse(1, &mut NullHook).expect("fp32"),
    ];
    let mut t = Table::new([
        "Grid policy",
        "Temporal zero",
        "Temporal ≤4-bit",
        "Rel. BOPs",
        "pFID vs FP32",
    ]);
    let configs: Vec<(String, Quantizer)> = {
        let mut v = Vec::new();
        for clusters in [1usize, 2, 8, 32] {
            let mut cal = CalibrationHook::new(model.model_calls());
            model.run_reverse(0, &mut cal).expect("calib");
            v.push((format!("{clusters} cluster(s)"), Quantizer::with_table(cal.finish(clusters))));
        }
        let mut cal = CalibrationHook::new(model.model_calls());
        model.run_reverse(0, &mut cal).expect("calib");
        v.push(("per-step (TDQ)".to_string(), Quantizer::with_table(cal.finish_per_step())));
        v
    };
    for (label, quantizer) in configs {
        let mut hook = DittoHook::new(&model, quantizer.clone(), ExecPolicy::Dense);
        let s0 = model.run_reverse(0, &mut hook).expect("run");
        let trace = hook.into_trace();
        let mut hook1 = DittoHook::new(&model, quantizer, ExecPolicy::Dense);
        let s1 = model.run_reverse(1, &mut hook1).expect("run");
        let temporal = trace.merged(StatView::Temporal);
        let fid = metrics::pseudo_fid(&fp32, &[s0, s1], 13);
        t.row([
            label,
            pct(temporal.zero_ratio()),
            pct(temporal.le4_ratio()),
            f3(analysis::relative_bops(&trace, StatView::Temporal)),
            format!("{fid:.4}"),
        ]);
    }
    t.print();
    println!("(on these workloads the activation ranges drift slowly enough that granularity");
    println!(" barely moves the difference statistics or quality — consistent with the paper's");
    println!(" claim that Ditto composes with any of the quantization schemes it cites; the");
    println!(" re-grid boundaries of finer tables are handled exactly by the runner)");
}

/// Classifier-free guidance: per-branch vs interleaved difference state.
pub fn classifier_free_guidance(scale: ModelScale) {
    banner("Extension E1", "Classifier-free guidance and temporal-difference state");
    let model = build_model(ModelKind::Img, scale);
    let quantizer = ditto_core::runner::build_quantizer(&model, 0).expect("calib");
    // Per-branch state: one DittoHook per conditioning branch (the correct
    // deployment — the conditional and unconditional streams each see
    // genuinely adjacent time steps).
    let mut cond = DittoHook::new(&model, quantizer.clone(), ExecPolicy::Dense);
    let mut uncond = DittoHook::new(&model, quantizer, ExecPolicy::Dense);
    model.run_reverse_cfg(0, 3.0, &mut cond, &mut uncond).expect("cfg");
    let per_branch = cond.into_trace().merged(StatView::Temporal);
    // Naive interleaving: a single difference state sees cond, uncond,
    // cond, … alternately.
    let interleaved = interleaved_cfg_stats(&model);
    let mut t = Table::new(["Difference state", "Temporal zero", "Temporal ≤4-bit", "Over 4-bit"]);
    t.row([
        "per-branch (correct)".to_string(),
        pct(per_branch.zero_ratio()),
        pct(per_branch.le4_ratio()),
        pct(per_branch.over4_ratio()),
    ]);
    t.row([
        "interleaved (naive)".to_string(),
        pct(interleaved.zero_ratio()),
        pct(interleaved.le4_ratio()),
        pct(interleaved.over4_ratio()),
    ]);
    t.print();
    println!("(interleaving compares cond vs uncond evaluations of the SAME latent: layers");
    println!(" upstream of the conditioning see identical inputs — all-zero deltas — while");
    println!(" conditioned layers produce several-fold more full-bit-width deltas. Per-branch");
    println!(" state keeps every layer's deltas uniformly narrow, which is what the Ditto");
    println!(" Compute Unit's 4-bit lanes want.)");
}

/// Interleaved-state statistics: one DittoHook sees cond, uncond, cond, …
fn interleaved_cfg_stats(model: &DiffusionModel) -> quant::BitWidthHistogram {
    let quantizer = ditto_core::runner::build_quantizer(model, 0).expect("calib");
    let mut shared = DittoHook::new(model, quantizer, ExecPolicy::Dense);
    // Adapter pair borrowing the same hook sequentially per call: CFG
    // evaluates cond first, then uncond, within each step — the executor
    // calls are strictly sequential, so a RefCell-style split is safe.
    use std::cell::RefCell;
    let cell = RefCell::new(&mut shared);
    struct Alias<'a, 'b>(&'a RefCell<&'b mut DittoHook>);
    impl diffusion::LinearHook for Alias<'_, '_> {
        fn compute_linear(
            &mut self,
            node: &diffusion::Node,
            step: diffusion::StepInfo,
            inputs: &[&tensor::Tensor],
        ) -> Option<tensor::Tensor> {
            self.0.borrow_mut().compute_linear(node, step, inputs)
        }
    }
    let mut a = Alias(&cell);
    let mut b = Alias(&cell);
    model.run_reverse_cfg(0, 3.0, &mut a, &mut b).expect("cfg");
    let _ = (a, b);
    shared.into_trace().merged(StatView::Temporal)
}

/// Analytic vs tile-pipelined timing under sparsity burstiness.
pub fn pipeline_fidelity(scale: ModelScale) {
    use accel::pipeline::{simulate_layer_pipeline, TileConfig};
    use accel::sim::ExecMode;
    banner("Ablation A3", "Analytic bound vs tile pipeline under bursty sparsity (SDM)");
    let trace = Suite::shared(scale).trace(ModelKind::Sdm);
    // The largest temporal-mode conv layer at a mid-run step.
    // The most memory-bound temporal layer: where DMA and compute are
    // comparable, bursty sparsity serializes the pipeline.
    let (li, meta) = trace
        .layers
        .iter()
        .enumerate()
        .max_by_key(|(_, m)| m.temporal_extra_bytes())
        .expect("layers exist");
    let st = &trace.steps[trace.step_count() / 2][li];
    let d = Design::ditto();
    let mut t = Table::new(["Sparsity skew", "Pipeline cycles", "vs analytic bound"]);
    let base = simulate_layer_pipeline(&d, meta, st, ExecMode::Temporal, TileConfig::default());
    let analytic = base.cu_busy.max(base.dma_busy);
    for skew in [0.0, 0.25, 0.5, 0.75, 0.95] {
        let r = simulate_layer_pipeline(
            &d,
            meta,
            st,
            ExecMode::Temporal,
            TileConfig { skew, ..Default::default() },
        );
        t.row([
            format!("{skew:.2}"),
            format!("{:.0}", r.cycles),
            format!("{:.2}x", r.cycles / analytic),
        ]);
    }
    t.print();
    println!(
        "(layer `{}`: {} tiles; the analytic max(compute, DRAM) bound holds for uniform",
        meta.name, base.tiles
    );
    println!(" sparsity; bunched zero-regions make the Compute Unit idle behind bursty DMA)");
}

/// Hierarchical UNet through the complete stack.
pub fn hierarchy(scale: ModelScale) {
    banner("Extension E2", "Resolution-hierarchy UNet through the full Ditto stack");
    let model = build_hierarchical_unet(scale, WEIGHT_SEED);
    let (trace, _) = ditto_core::runner::trace_model(&model, 0, ExecPolicy::Dense).expect("trace");
    let temporal = trace.merged(StatView::Temporal);
    let itc = simulate(&Design::itc(), &trace);
    let ditto = simulate(&Design::ditto(), &trace);
    let mut t = Table::new(["Metric", "Value"]);
    t.row(["linear layers".to_string(), trace.layer_count().to_string()]);
    t.row(["temporal zero ratio".to_string(), pct(temporal.zero_ratio())]);
    t.row(["temporal ≤4-bit ratio".to_string(), pct(temporal.le4_ratio())]);
    t.row([
        "relative BOPs (temporal)".to_string(),
        f3(analysis::relative_bops(&trace, StatView::Temporal)),
    ]);
    t.row(["Ditto speedup vs ITC".to_string(), f2(ditto.speedup_over(&itc))]);
    t.row(["Defo change ratio".to_string(), pct(ditto.defo.unwrap().changed_ratio)]);
    t.print();
    println!("(the stride-2/upsample path changes per-layer shapes but none of the Ditto");
    println!(" phenomena — Upsample2x is difference-transparent, so Defo bypasses it)");
}
