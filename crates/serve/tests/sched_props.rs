//! Property tests for the cell scheduler: any interleaving of overlapping
//! requests at mixed priorities must yield `SweepReport`s bit-identical to
//! independent `grid::run` calls, while each distinct cell is simulated
//! exactly once process-wide.

use std::sync::OnceLock;

use accel::design::Design;
use accel::grid::{self, SweepSpec};
use accel::sim::synth;
use ditto_core::trace::WorkloadTrace;
use proptest::collection;
use proptest::prelude::*;
use serve::sched::{CellStats, ModelInput, Scheduler, SweepJob};

/// The fixed design axis of every generated request (masked per request).
fn designs() -> Vec<Design> {
    vec![Design::itc(), Design::cambricon_d(), Design::ditto()]
}

/// Three distinct leaked synthetic workloads (masked per request). Leaked
/// because scheduler jobs require `&'static` traces.
fn traces() -> &'static [&'static WorkloadTrace; 3] {
    static TRACES: OnceLock<[&'static WorkloadTrace; 3]> = OnceLock::new();
    TRACES.get_or_init(|| {
        [
            Box::leak(Box::new(synth::trace(3, 5, 100_000, 64, true))),
            Box::leak(Box::new(synth::trace(2, 4, 50_000, 8, false))),
            Box::leak(Box::new(synth::trace(4, 3, 20_000, 128, true))),
        ]
    })
}

/// Fingerprint assigned to trace index `i` (all three share the "SYNTH"
/// wire name, so only the fingerprint distinguishes them — exactly the
/// situation the memo key must handle).
fn fingerprint(i: usize) -> u64 {
    0x5EED_0000 + i as u64
}

fn masked<T: Clone>(items: &[T], mask: usize) -> Vec<T> {
    items.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, t)| t.clone()).collect()
}

fn job_for(dmask: usize, mmask: usize, priority: i64) -> SweepJob {
    let models = traces()
        .iter()
        .enumerate()
        .filter(|(i, _)| mmask & (1 << i) != 0)
        .map(|(i, &trace)| ModelInput { trace, fingerprint: fingerprint(i) })
        .collect();
    SweepJob { designs: masked(&designs(), dmask), models, scale: "synth".into(), priority }
}

/// The sequential reference for one request shape.
fn reference(dmask: usize, mmask: usize) -> grid::SweepReport {
    let traces: Vec<&WorkloadTrace> = traces()
        .iter()
        .enumerate()
        .filter(|(i, _)| mmask & (1 << i) != 0)
        .map(|(_, &t)| t)
        .collect();
    grid::run(&SweepSpec::new(masked(&designs(), dmask), traces)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overlapping concurrent requests at mixed priorities: every report
    /// is bit-identical to its own fresh grid run, the per-request stats
    /// partition cleanly, and the scheduler simulates each distinct
    /// (design, model) cell exactly once across the whole interleaving.
    #[test]
    fn interleavings_are_bit_identical_and_deduplicated(
        requests in collection::vec((1usize..8, 1usize..8, -2i64..=2), 2..=6),
    ) {
        let sched = Scheduler::with_memo_cap(3, None);
        let results: Vec<(grid::SweepReport, CellStats)> = std::thread::scope(|scope| {
            let sched = &sched;
            let handles: Vec<_> = requests
                .iter()
                .map(|&(dmask, mmask, priority)| {
                    scope.spawn(move || sched.run(&job_for(dmask, mmask, priority)).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut distinct_cells = std::collections::HashSet::new();
        let mut distinct_models = std::collections::HashSet::new();
        for (&(dmask, mmask, _), (report, stats)) in requests.iter().zip(&results) {
            for d in 0..3 {
                for m in 0..3 {
                    if dmask & (1 << d) != 0 && mmask & (1 << m) != 0 {
                        distinct_cells.insert((d, m));
                        distinct_models.insert(m);
                    }
                }
            }
            let want = reference(dmask, mmask);
            prop_assert_eq!(&report.designs, &want.designs);
            prop_assert_eq!(&report.models, &want.models);
            prop_assert_eq!(report.cells.len(), want.cells.len());
            for (a, b) in report.cells.iter().zip(&want.cells) {
                prop_assert_eq!((a.design, a.model), (b.design, b.model));
                prop_assert_eq!(a.run.cycles.to_bits(), b.run.cycles.to_bits());
                prop_assert_eq!(a.run.stall_cycles.to_bits(), b.run.stall_cycles.to_bits());
                prop_assert_eq!(a.run.energy.total().to_bits(), b.run.energy.total().to_bits());
                prop_assert_eq!(a.run.dram_bytes.to_bits(), b.run.dram_bytes.to_bits());
                prop_assert_eq!(a.speedup_vs_gpu.to_bits(), b.speedup_vs_gpu.to_bits());
            }
            for (a, b) in report.gpu.iter().zip(&want.gpu) {
                prop_assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
            }
            prop_assert_eq!(
                stats.total,
                (dmask.count_ones() * mmask.count_ones()) as usize,
                "stats.total must equal the request's cell count"
            );
            prop_assert_eq!(stats.memo_hits + stats.coalesced + stats.simulated, stats.total);
        }

        // The dedup guarantee: one simulation per distinct cell, however
        // the requests interleaved; per-request `simulated` counts sum to
        // exactly that.
        prop_assert_eq!(sched.unique_cells_simulated(), distinct_cells.len());
        prop_assert_eq!(sched.unique_gpu_refs_simulated(), distinct_models.len());
        let simulated_sum: usize = results.iter().map(|(_, s)| s.simulated).sum();
        prop_assert_eq!(simulated_sum, distinct_cells.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Memoized cells are byte-stable: a sequence of overlapping requests
    /// served partly from memo entries earlier requests computed is
    /// bit-identical to fresh grid runs, with one simulation per distinct
    /// cell. Memo keys contain nothing backend-dependent; that the kernel
    /// backends themselves agree is `tests/backend_invariance.rs`' claim.
    #[test]
    fn memoized_cells_are_backend_invariant(
        requests in collection::vec((1usize..8, 1usize..8), 2..=5),
    ) {
        let sched = Scheduler::with_memo_cap(2, None);
        let mut distinct_cells = std::collections::HashSet::new();
        let mut hits = 0usize;
        for &(dmask, mmask) in &requests {
            let (report, stats) = sched.run(&job_for(dmask, mmask, 0)).unwrap();
            hits += stats.memo_hits;
            for d in 0..3 {
                for m in 0..3 {
                    if dmask & (1 << d) != 0 && mmask & (1 << m) != 0 {
                        distinct_cells.insert((d, m));
                    }
                }
            }
            // Bit-identical to a fresh sequential grid run, whichever
            // request computed the memoized cells.
            let want = reference(dmask, mmask);
            for (a, b) in report.cells.iter().zip(&want.cells) {
                prop_assert_eq!(
                    a.run.cycles.to_bits(), b.run.cycles.to_bits(),
                    "cell ({}, {}) diverged", a.design, a.model
                );
                prop_assert_eq!(a.run.energy.total().to_bits(), b.run.energy.total().to_bits());
                prop_assert_eq!(a.speedup_vs_gpu.to_bits(), b.speedup_vs_gpu.to_bits());
            }
        }
        // Distinct cells simulate once; everything else was served from
        // the memo.
        prop_assert_eq!(sched.unique_cells_simulated(), distinct_cells.len());
        let requested: usize =
            requests.iter().map(|&(d, m)| d.count_ones() as usize * m.count_ones() as usize).sum();
        prop_assert_eq!(hits, requested - distinct_cells.len());
    }
}

/// Deterministic worst-case overlap: many threads requesting the *same*
/// sweep concurrently must coalesce onto one simulation per cell.
#[test]
fn identical_concurrent_requests_coalesce() {
    let sched = Scheduler::with_memo_cap(2, None);
    const THREADS: usize = 8;
    let results: Vec<(grid::SweepReport, CellStats)> = std::thread::scope(|scope| {
        let sched = &sched;
        let handles: Vec<_> = (0..THREADS)
            .map(|i| scope.spawn(move || sched.run(&job_for(0b111, 0b11, i as i64)).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let want = reference(0b111, 0b11);
    for (report, stats) in &results {
        assert_eq!(stats.total, 6);
        assert_eq!(stats.memo_hits + stats.coalesced + stats.simulated, 6);
        for (a, b) in report.cells.iter().zip(&want.cells) {
            assert_eq!(a.run.cycles.to_bits(), b.run.cycles.to_bits());
            assert_eq!(a.speedup_vs_gpu.to_bits(), b.speedup_vs_gpu.to_bits());
        }
    }
    // 8 × 6 requested cells, 6 simulations.
    assert_eq!(sched.unique_cells_simulated(), 6);
    assert_eq!(sched.unique_gpu_refs_simulated(), 2);
    let simulated_sum: usize = results.iter().map(|(_, s)| s.simulated).sum();
    assert_eq!(simulated_sum, 6);
}
