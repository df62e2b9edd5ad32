//! `grid::run` must be a drop-in parallel replacement for the sequential
//! (design × model) nested loop: same cell order, bit-identical numbers,
//! regardless of worker count.

use accel::design::Design;
use accel::gpu::simulate_gpu;
use accel::grid::{self, SweepSpec};
use accel::sim::simulate;
use diffusion::{DiffusionModel, ModelKind, ModelScale};
use ditto_core::runner::{trace_model, ExecPolicy};
use ditto_core::trace::WorkloadTrace;

/// Tiny-scale traces of all seven Table I models (no disk cache — this is
/// the raw trace pipeline, so the test is hermetic).
fn all_model_traces() -> Vec<WorkloadTrace> {
    ModelKind::all()
        .into_iter()
        .map(|kind| {
            let model = DiffusionModel::build(kind, ModelScale::Tiny, 42);
            trace_model(&model, 0, ExecPolicy::Dense).expect("trace").0
        })
        .collect()
}

#[test]
fn full_grid_is_bit_identical_to_sequential_nested_loop() {
    let designs = Design::catalog();
    assert_eq!(designs.len(), 18, "every public design constructor");
    let traces = all_model_traces();
    let spec = SweepSpec::new(designs.clone(), traces.iter().collect());
    let report = grid::run(&spec).expect("valid sweep");

    assert_eq!(report.cells.len(), 18 * traces.len());
    for (m, trace) in traces.iter().enumerate() {
        assert_eq!(report.models[m], trace.model);
        let gpu = simulate_gpu(trace);
        assert_eq!(report.gpu(m).cycles.to_bits(), gpu.cycles.to_bits());
        for (d, design) in designs.iter().enumerate() {
            let cell = report.cell(d, m);
            let seq = simulate(design, trace);
            assert_eq!(cell.run.design, design.name);
            assert_eq!(cell.run.model, trace.model);
            for (label, a, b) in [
                ("cycles", cell.run.cycles, seq.cycles),
                ("compute", cell.run.compute_cycles, seq.compute_cycles),
                ("stall", cell.run.stall_cycles, seq.stall_cycles),
                ("dram_bytes", cell.run.dram_bytes, seq.dram_bytes),
                ("total_bytes", cell.run.total_bytes, seq.total_bytes),
                ("energy", cell.run.energy.total(), seq.energy.total()),
                ("speedup_vs_gpu", cell.speedup_vs_gpu, gpu.cycles / seq.cycles),
            ] {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}/{}: {label} differs between grid and sequential ({a} vs {b})",
                    design.name,
                    trace.model
                );
            }
            match (&cell.run.defo, &seq.defo) {
                (None, None) => {}
                (Some(p), Some(s)) => {
                    assert_eq!(p.changed_ratio.to_bits(), s.changed_ratio.to_bits());
                    assert_eq!(p.accuracy.to_bits(), s.accuracy.to_bits());
                }
                _ => panic!("{}/{}: Defo presence differs", design.name, trace.model),
            }
        }
    }
}

/// Set in the child processes [`grid_is_deterministic_across_kernel_backends`]
/// spawns; a child prints its results instead of comparing.
const CHILD_ENV: &str = "GRID_ENGINE_BACKEND_CHILD";
/// Marks the lines a child prints for its parent.
const MARK: &str = "grid-engine:";

/// Traces one real model on the process backend, sweeps it, and returns
/// one line per result: the backend, then the bit patterns of every cell
/// and GPU baseline.
fn grid_lines_on_the_process_backend() -> Vec<String> {
    use tensor::backend;
    let designs = vec![Design::itc(), Design::ditto(), Design::diffy()];
    let model = DiffusionModel::build(ModelKind::Ddpm, ModelScale::Tiny, 42);
    let trace = trace_model(&model, 0, ExecPolicy::TemporalDelta).expect("trace").0;
    let report = grid::run(&SweepSpec::new(designs, vec![&trace])).expect("valid sweep");
    let mut lines = vec![format!("backend {}", backend::active().resolved_name())];
    for c in &report.cells {
        lines.push(format!(
            "cell {}/{} cycles={:016x} energy={:016x} dram={:016x} speedup={:016x}",
            c.run.design,
            c.run.model,
            c.run.cycles.to_bits(),
            c.run.energy.total().to_bits(),
            c.run.dram_bytes.to_bits(),
            c.speedup_vs_gpu.to_bits()
        ));
    }
    for (m, g) in report.models.iter().zip(&report.gpu) {
        lines.push(format!("gpu {m} cycles={:016x}", g.cycles.to_bits()));
    }
    lines
}

#[test]
fn grid_is_deterministic_across_kernel_backends() {
    // Tracing one real model under every `DITTO_KERNEL_BACKEND` value and
    // sweeping it must be byte-stable: the kernel backends are
    // bit-identical, so both the trace and every derived cell metric are
    // backend-invariant. (The umbrella `backend_invariance` test covers
    // more models; this one pins the accel-level guarantee.) A process has
    // one backend, fixed at startup, so this test re-runs itself once per
    // available backend with the variable set and compares what each
    // child prints.
    use std::process::Command;
    use tensor::backend::KernelBackend;
    if std::env::var_os(CHILD_ENV).is_some() {
        for line in grid_lines_on_the_process_backend() {
            println!("{MARK} {line}");
        }
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut reference: Option<(String, Vec<String>)> = None;
    for b in KernelBackend::available() {
        let name = b.resolved_name();
        let out = Command::new(&exe)
            .args([
                "--exact",
                "grid_is_deterministic_across_kernel_backends",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(CHILD_ENV, "1")
            .env("DITTO_KERNEL_BACKEND", &name)
            .output()
            .expect("spawn the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "child on {name} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let lines: Vec<String> = stdout
            .lines()
            .filter_map(|l| l.split_once(MARK).map(|(_, rest)| rest.trim().to_string()))
            .collect();
        let (ran_on, results) = lines.split_first().expect("child printed its backend");
        assert_eq!(ran_on, &format!("backend {name}"), "the child did not run {name}");
        assert_eq!(results.len(), 3 + 1, "{name}: three cells and one GPU baseline");
        match &reference {
            None => reference = Some((name, results.to_vec())),
            Some((first, want)) => {
                for (got, want) in results.iter().zip(want) {
                    assert_eq!(got, want, "backend {name} drifted from {first}");
                }
            }
        }
    }
}

#[test]
fn grid_is_deterministic_across_worker_counts() {
    // Synthetic traces keep this fast; the point is scheduling, not models.
    use accel::sim::synth;
    let traces = [synth::trace(5, 9, 150_000, 512, true), synth::trace(3, 7, 80_000, 8, false)];
    let spec = SweepSpec::new(Design::catalog(), traces.iter().collect());
    let reference = grid::run_with_workers(&spec, 1).expect("sequential baseline");
    for workers in [2, 3, 4, 16, 64] {
        let report = grid::run_with_workers(&spec, workers).expect("valid sweep");
        assert_eq!(report.designs, reference.designs);
        assert_eq!(report.models, reference.models);
        for (a, b) in report.cells.iter().zip(&reference.cells) {
            assert_eq!(a.design, b.design);
            assert_eq!(a.model, b.model);
            assert_eq!(
                a.run.cycles.to_bits(),
                b.run.cycles.to_bits(),
                "workers={workers}: {}/{} cycles drifted",
                a.run.design,
                a.run.model
            );
            assert_eq!(a.run.energy.total().to_bits(), b.run.energy.total().to_bits());
            assert_eq!(a.speedup_vs_gpu.to_bits(), b.speedup_vs_gpu.to_bits());
        }
        for (a, b) in report.gpu.iter().zip(&reference.gpu) {
            assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
        }
    }
}
