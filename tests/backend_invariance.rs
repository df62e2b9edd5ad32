//! End-to-end kernel-backend invariance: the whole pipeline — integer
//! kernels → quantized tracing → (design × model) grid simulation — must
//! produce bit-identical results under every `DITTO_KERNEL_BACKEND` value
//! the host can run. This is the property that lets the serve scheduler
//! memoize cells without keying them by backend, and lets one CI leg stand
//! in for the others.
//!
//! A process has one backend, fixed at startup, so the parent test re-runs
//! this test binary once per available backend with the variable set: each
//! child runs [`digests_on_the_process_backend`] alone and prints its
//! digests, and the parent compares them.

use std::collections::BTreeMap;
use std::process::Command;

use accel::design::Design;
use accel::grid::{self, SweepSpec};
use diffusion::graph::{fnv1a_fold, FNV1A_OFFSET};
use diffusion::{DiffusionModel, ModelKind, ModelScale};
use ditto_core::runner::{trace_model, ExecPolicy};
use tensor::backend::{self, KernelBackend};
use tensor::Tensor;

/// Marks the lines a child prints for its parent.
const MARK: &str = "backend-invariance:";

fn fnv(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV1A_OFFSET, bytes)
}

fn sample_bytes(sample: &Tensor) -> Vec<u8> {
    sample.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()
}

/// Traces one conv-heavy UNet and one attention-heavy transformer at Tiny
/// under Dense and TemporalDelta — together every integer kernel (dense
/// matmul, fused delta update, attention scores) and every f32 one —
/// checks the two policies agree (the §IV-A equivalence, on this backend),
/// sweeps the traces on the grid, and prints one digest line per result
/// plus the backend that produced them.
#[test]
fn digests_on_the_process_backend() {
    println!("{MARK} backend {}", backend::active().resolved_name());
    let mut traces = Vec::new();
    for kind in [ModelKind::Ddpm, ModelKind::Dit] {
        let model = DiffusionModel::build(kind, ModelScale::Tiny, 6);
        let (trace, sample) = trace_model(&model, 2, ExecPolicy::Dense).unwrap();
        let (delta_trace, delta_sample) =
            trace_model(&model, 2, ExecPolicy::TemporalDelta).unwrap();
        let trace_bytes = ditto_core::binio::to_vec(&trace);
        assert_eq!(trace_bytes, ditto_core::binio::to_vec(&delta_trace), "{kind:?} traces");
        let bits = sample_bytes(&sample);
        assert_eq!(bits, sample_bytes(&delta_sample), "{kind:?} dense/delta samples");
        println!("{MARK} trace.{} {:016x}", kind.abbr(), fnv(&trace_bytes));
        println!("{MARK} sample.{} {:016x}", kind.abbr(), fnv(&bits));
        traces.push(trace);
    }
    let designs = vec![Design::itc(), Design::ditto(), Design::diffy()];
    let report = grid::run(&SweepSpec::new(designs, traces.iter().collect())).unwrap();
    println!("{MARK} grid {:016x}", fnv(&ditto_core::binio::to_vec(&report)));
}

/// What one child printed: its backend and its digests by name.
fn run_child(backend: &str) -> (String, BTreeMap<String, String>) {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", "digests_on_the_process_backend", "--nocapture", "--test-threads=1"])
        .env("DITTO_KERNEL_BACKEND", backend)
        .output()
        .expect("spawn the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child on {backend} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut ran_on = String::new();
    let mut digests = BTreeMap::new();
    for line in stdout.lines() {
        let Some((_, rest)) = line.split_once(MARK) else { continue };
        let (key, value) = rest.trim().split_once(' ').expect("`key value` line");
        if key == "backend" {
            ran_on = value.to_string();
        } else {
            digests.insert(key.to_string(), value.to_string());
        }
    }
    (ran_on, digests)
}

#[test]
fn tracing_and_grid_are_backend_invariant() {
    let mut reference: Option<(String, BTreeMap<String, String>)> = None;
    for backend in KernelBackend::available() {
        let name = backend.resolved_name();
        let (ran_on, digests) = run_child(&name);
        assert_eq!(ran_on, name, "the child did not run the backend it was given");
        assert_eq!(digests.len(), 5, "{name}: digests {digests:?}");
        match &reference {
            None => reference = Some((name, digests)),
            Some((first, want)) => {
                assert_eq!(&digests, want, "{name} diverged from {first}");
            }
        }
    }
}
