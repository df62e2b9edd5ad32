//! The six workloads. Each has an untraced pass (the end-to-end numbers,
//! every telemetry switch off) and a traced pass (per-layer numbers, the
//! benchmark's own spans around every call into a layer).

pub mod batch;
pub mod serve;

use std::path::{Path, PathBuf};

use diffusion::ModelScale;

use crate::harness::Values;
use crate::spans::Spans;

/// The seed the pinned goldens were recorded at, and the default `--seed`.
pub const GOLDEN_SEED: u64 = 1;

/// One invocation's arguments (the driver's contract, plus the suite's).
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Suite mode: directory that receives `<workload>.json` and the spans.
    pub out: Option<PathBuf>,
    /// Print `golden <key> <digest>` lines instead of checking goldens.
    pub record_golden: bool,
    /// Suite mode: run the set twice and compare.
    pub aa: bool,
}

/// Correctness bookkeeping of one pass: digests checked against
/// `golden.json` (or recorded), self-consistency checks, and the reasons
/// for any mismatch.
#[derive(Debug, Default)]
pub struct Check {
    record: bool,
    pub recorded: Vec<(String, u64)>,
    pub mismatches: Vec<String>,
}

impl Check {
    pub fn new(record: bool) -> Self {
        Check { record, ..Check::default() }
    }

    /// Checks `digest` against the golden pinned under `key`.
    pub fn golden(&mut self, key: &str, digest: u64) {
        if self.record {
            self.recorded.push((key.to_string(), digest));
            return;
        }
        match crate::golden::lookup(key) {
            Some(want) if want == digest => {}
            Some(want) => {
                self.mismatches.push(format!("{key}: digest {digest:016x}, golden {want:016x}"))
            }
            None => self.mismatches.push(format!("{key}: no golden pinned")),
        }
    }

    /// Records a failed self-consistency check.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// What an untraced pass produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that failed on their own (wrong or error responses,
    /// refused or dropped connections). Any mismatch fails all of them.
    pub failed: u64,
    pub check: Check,
    /// The six end-to-end metrics.
    pub e2e: Values,
    /// Facts of the untraced pass that per-layer metrics are made from
    /// (load-generator health, cache hits): they must not come from the
    /// traced pass.
    pub aux: Values,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.check.mismatches.is_empty()
    }

    /// Failed operations, a mismatch failing every one.
    pub fn failed_ops(&self) -> u64 {
        if self.correct() {
            self.failed
        } else {
            self.attempted
        }
    }
}

/// Runs the untraced pass of `args.workload` (a name `main` has checked
/// against [`crate::harness::WORKLOADS`]).
pub fn run_untraced(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "trace_cold" => batch::trace_cold(args),
        "trace_delta" => batch::trace_delta(args),
        "denoise_plain" => batch::denoise_plain(args),
        "figures_warm" => batch::figures_warm(args),
        "serve_hot_small" => serve::untraced(args, &serve::HOT_SMALL),
        "serve_cold_full" => serve::untraced(args, &serve::COLD_FULL),
        other => unreachable!("`{other}` is not a workload"),
    }
}

/// Runs the traced pass of `args.workload`, recording into `spans`;
/// returns the per-layer values it measured and the traced wall seconds of
/// the same fixed work the untraced pass times.
pub fn run_traced(args: &Args, spans: &mut Spans) -> (Values, f64) {
    match args.workload.as_str() {
        "trace_cold" => batch::trace_cold_traced(args, spans),
        "trace_delta" => batch::trace_delta_traced(args, spans),
        "denoise_plain" => batch::denoise_plain_traced(args, spans),
        "figures_warm" => batch::figures_warm_traced(args, spans),
        "serve_hot_small" => serve::traced(args, &serve::HOT_SMALL, spans),
        "serve_cold_full" => serve::traced(args, &serve::COLD_FULL, spans),
        other => unreachable!("`{other}` is not a workload"),
    }
}

// --------------------------------------------------------------------------
// Scratch space and the warm trace cache
// --------------------------------------------------------------------------

/// The paper experiments' scale, which every workload runs at.
pub const SCALE: ModelScale = ModelScale::Small;

/// Where the benchmark keeps what it writes, relative to the checkout root
/// it is run from.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from("benchmark/runs")
}

/// The warm trace cache the warm workloads load from. It is keyed by the
/// running executable's size and modification time, so a rebuild never
/// reads traces an older build wrote; caches of other builds are removed.
pub fn warm_cache_dir() -> PathBuf {
    let id = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos() as u64);
            crate::harness::fnv1a(&[m.len().to_le_bytes(), mtime.to_le_bytes()].concat())
        })
        .unwrap_or(0);
    scratch_dir().join(format!("cache-{id:016x}"))
}

/// Empties (or creates) `dir`.
pub fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create scratch directory");
}

/// Points the product's trace cache at the warm cache and makes sure it is
/// populated, tracing all seven models if neither this build nor a
/// `trace_cold` run of it has done so yet (once per build, about 15 s). Not
/// part of `setup_s`: like the build itself it is paid once per checkout,
/// not once per run.
pub fn provision_warm_cache() -> &'static bench::Suite {
    let warm = warm_cache_dir();
    if !warm.exists() {
        if let Ok(entries) = std::fs::read_dir(scratch_dir()) {
            for e in entries.flatten() {
                if e.file_name().to_string_lossy().starts_with("cache-") {
                    let _ = std::fs::remove_dir_all(e.path());
                }
            }
        }
        std::fs::create_dir_all(&warm).expect("create warm cache directory");
    }
    std::env::set_var(bench::suite::CACHE_DIR_ENV, &warm);
    bench::Suite::shared(SCALE)
}
