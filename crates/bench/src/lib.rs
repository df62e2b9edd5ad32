//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§VI).
//!
//! One binary, `ditto-figs`, runs them by name; its table of rows is
//! [`figs::TABLE`] (`ditto-figs list` prints it). Each row calls functions
//! of [`experiments`] or [`ablations`], which print the same rows/series
//! the paper reports at the [`diffusion::ModelScale`] they are given. The
//! simulation figures are declarative (design × model) sweeps
//! ([`sweep::SweepRequest`]) executed by the work-stealing grid engine in
//! [`accel::grid`] over one process-wide warm [`Suite`]; `ditto-serve`
//! (the `serve` crate) answers many such sweeps concurrently over TCP.
//!
//! The heavy inputs — per-model workload traces and similarity reports
//! from full reverse-process runs with the paper's step counts — are
//! computed in parallel across models and cached in one content-addressed
//! [`store::Store`] under `target/ditto-cache/` (override with
//! `DITTO_CACHE_DIR`), so the full figure suite runs in seconds after the
//! first trace pass.
//!
//! Run everything with:
//!
//! ```bash
//! cargo run --release -p bench --bin ditto-figs -- all
//! ```

pub mod report;
pub mod store;
pub mod suite;

pub use suite::{
    cached_similarity, Suite, TraceSource, CACHE_DIR_ENV, CACHE_MAX_BYTES_ENV, MODELS,
};
pub mod ablations;
pub mod experiments;
pub mod figs;
pub mod sweep;

pub use sweep::{paper_sweep, scale_name, sweep_traces, HitAccounting, ServeRequest, SweepRequest};
