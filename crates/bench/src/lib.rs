//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§VI).
//!
//! The simulation figures are declarative (design × model) sweeps
//! ([`sweep::SweepRequest`]) executed by the work-stealing grid engine in
//! [`accel::grid`] over one process-wide warm [`Suite`]; `--bin serve`
//! accepts many such sweeps concurrently as line-delimited JSON and
//! streams structured results as they finish.
//!
//! Each binary in `src/bin/` reproduces one experiment and prints the same
//! rows/series the paper reports (see DESIGN.md §3 for the index). The
//! heavy inputs — per-model workload traces and similarity reports from
//! full reverse-process runs at `ModelScale::Small` with the paper's step
//! counts — are computed in parallel across models and cached in one
//! content-addressed [`store::Store`] under `target/ditto-cache/`
//! (override with `DITTO_CACHE_DIR`), so the full figure suite runs in
//! seconds after the first trace pass.
//!
//! Run everything with:
//!
//! ```bash
//! cargo run --release -p bench --bin all_experiments
//! ```

pub mod report;
pub mod store;
pub mod suite;

pub use suite::{
    cached_similarity, Suite, TraceSource, CACHE_DIR_ENV, CACHE_MAX_BYTES_ENV, MODELS,
};
pub mod ablations;
pub mod experiments;
pub mod sweep;

pub use sweep::{
    experiment_scale, paper_sweep, scale_name, sweep_traces, HitAccounting, ServeRequest,
    SweepRequest,
};
