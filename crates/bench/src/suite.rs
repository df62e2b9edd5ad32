//! The benchmark suite: the seven Table I models with cached traces.
//!
//! Traces and similarity reports are cached on disk in the versioned
//! little-endian binary format of [`ditto_core::binio`] (`trace-*.bin`,
//! `similarity-*.bin`). Both carry a **model fingerprint** header — an
//! FNV-1a digest of the model definition they were computed from (graph
//! structure, op parameters, weight shapes, sampler, step count, seeds) —
//! so editing a model definition invalidates its cached trace and
//! similarity report instead of serving stale data. The fingerprint is
//! computed from a weight-free [`ModelSpec`], so a cache hit draws no
//! weights: only a miss builds the model it traces. Legacy JSON trace
//! caches (`trace-*.json`) from earlier revisions are read once and
//! migrated to `.bin`; corrupt, truncated, fingerprint-mismatched or
//! pre-fingerprint cache files are treated as misses and recomputed. The
//! cache directory defaults to `target/ditto-cache` and can be redirected
//! with the `DITTO_CACHE_DIR` environment variable.
//!
//! [`Suite::load`] fans the per-model trace work out across CPU cores on
//! the shared work-stealing pool ([`accel::pool`]), which collapses
//! first-run latency — previously dominated by the single-threaded
//! Small-scale SDM pass — and reports which traces were cache hits versus
//! freshly traced. [`Suite::shared`] keeps one warm suite per scale for
//! the whole process: the experiment drivers and the `serve` front-end all
//! read the same in-memory traces instead of re-deserializing per call.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

use diffusion::plan::OpCode;
use diffusion::{DiffusionModel, ModelKind, ModelScale, ModelSpec};
use ditto_core::binio::{BinError, FromBin, Reader, ToBin};
use ditto_core::jsonio::Value;
use ditto_core::runner::{trace_model, ExecPolicy};
use ditto_core::similarity::{SimilarityHook, SimilarityReport};
use ditto_core::telemetry;
use ditto_core::trace::WorkloadTrace;

use crate::sweep::{experiment_scale, scale_name};

/// The Table I benchmark order.
pub const MODELS: [ModelKind; 7] = [
    ModelKind::Ddpm,
    ModelKind::Bed,
    ModelKind::Chur,
    ModelKind::Img,
    ModelKind::Sdm,
    ModelKind::Dit,
    ModelKind::Latte,
];

/// Seed used for model weights across the whole experiment suite.
pub const WEIGHT_SEED: u64 = 42;
/// Seed used for the traced generation run.
pub const SAMPLE_SEED: u64 = 0;

/// Environment variable overriding the on-disk cache location.
pub const CACHE_DIR_ENV: &str = "DITTO_CACHE_DIR";

/// Environment variable bounding the total bytes of cached `trace-*.bin`
/// files; the oldest-mtime entries are evicted first once the cap is
/// exceeded (see [`sweep_cache_dir`]).
pub const CACHE_MAX_BYTES_ENV: &str = "DITTO_CACHE_MAX_BYTES";

/// Default trace-cache size cap: generous (16 GiB) so eviction only ever
/// triggers when explicitly configured or on genuinely huge sweeps.
pub const DEFAULT_CACHE_MAX_BYTES: u64 = 16 * 1024 * 1024 * 1024;

fn cache_dir() -> PathBuf {
    let dir = std::env::var_os(CACHE_DIR_ENV).map(PathBuf::from).unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/ditto-cache")
    });
    fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

fn cache_max_bytes() -> u64 {
    std::env::var(CACHE_MAX_BYTES_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CACHE_MAX_BYTES)
}

/// Best-effort mtime refresh marking a cache entry as recently used (the
/// LRU clock for [`sweep_cache_dir`]). Failure is harmless: the entry
/// merely keeps its older timestamp.
fn touch(path: &Path) {
    if let Ok(f) = fs::File::options().append(true).open(path) {
        let _ = f.set_modified(std::time::SystemTime::now());
    }
}

/// One telemetry event per trace-cache acquisition: how the trace was
/// obtained (`hit` / `migrated` / `traced`), for which model at which
/// scale, and how long the decode (or fresh trace) took. Counters
/// (`bench.trace_cache.*`) and a per-outcome timing series ride along so
/// `obs-report` can show hit rates without replaying the stream.
fn note_trace_cache(kind: ModelKind, scale: ModelScale, outcome: &str, started: Instant) {
    if !telemetry::on() {
        return;
    }
    let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    telemetry::event(
        "trace_cache",
        vec![
            ("model", Value::Str(kind.abbr().to_string())),
            ("scale", Value::Str(scale_name(scale).to_string())),
            ("outcome", Value::Str(outcome.to_string())),
            ("us", Value::Int(i128::from(us))),
        ],
    );
    telemetry::counter(&format!("bench.trace_cache.{outcome}"), 1);
    telemetry::series(&format!("bench.trace_{outcome}_us"), us);
}

/// Bounds the cache directory's `trace-*.bin` footprint to `max_bytes` by
/// deleting the least-recently-used entries first (LRU by mtime: a cache
/// *hit* re-stamps the entry's mtime via [`touch`], so the timestamp
/// tracks last use, not creation). Other cache artifacts —
/// `similarity-*.bin`, legacy `trace-*.json` — are never touched. Returns
/// how many files were evicted. Evictions are unattributed on the event
/// stream; suite loads go through [`sweep_cache_dir_for`] so each evicted
/// file is charged to the scale whose load forced it out.
pub fn sweep_cache_dir(dir: &Path, max_bytes: u64) -> usize {
    sweep_cache_dir_for(dir, max_bytes, "unattributed")
}

/// [`sweep_cache_dir`] attributing each eviction to `requester` — the
/// scale (or driver) whose load pushed the cache over the cap. Earlier
/// revisions only printed the evicted path to stderr, so a tiny-scale
/// sweep evicting small-scale entries was indistinguishable from the
/// reverse; the `trace_cache_evict` events carry the requester explicitly.
pub fn sweep_cache_dir_for(dir: &Path, max_bytes: u64, requester: &str) -> usize {
    let Ok(entries) = fs::read_dir(dir) else { return 0 };
    let mut traces: Vec<(PathBuf, u64, std::time::SystemTime)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            if !(name.starts_with("trace-") && name.ends_with(".bin")) {
                return None;
            }
            let meta = e.metadata().ok()?;
            Some((e.path(), meta.len(), meta.modified().ok()?))
        })
        .collect();
    let mut total: u64 = traces.iter().map(|(_, size, _)| size).sum();
    if total <= max_bytes {
        return 0;
    }
    // Oldest first; ties (same-mtime filesystems) break by name so the
    // eviction order is deterministic.
    traces.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
    let mut evicted = 0;
    for (path, size, _) in traces {
        if total <= max_bytes {
            break;
        }
        match fs::remove_file(&path) {
            Ok(()) => {
                eprintln!("[suite] cache over {max_bytes} B cap: evicted {}", path.display());
                if telemetry::on() {
                    let name = path.file_name().map_or_else(
                        || path.display().to_string(),
                        |n| n.to_string_lossy().into_owned(),
                    );
                    telemetry::event(
                        "trace_cache_evict",
                        vec![
                            ("file", Value::Str(name)),
                            ("bytes", Value::Int(i128::from(size))),
                            ("requester", Value::Str(requester.to_string())),
                        ],
                    );
                    telemetry::counter("bench.trace_cache.evict", 1);
                }
                total -= size;
                evicted += 1;
            }
            Err(e) => eprintln!("[suite] failed to evict {}: {e}", path.display()),
        }
    }
    evicted
}

/// How a cached artifact was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSource {
    /// Loaded from the binary cache.
    BinCache,
    /// Migrated from a legacy JSON cache file (and re-stored as binary).
    JsonMigrated,
    /// No usable cache entry: traced from scratch (then cached as binary).
    Traced,
}

impl TraceSource {
    /// Whether the artifact came from disk rather than a fresh trace.
    pub fn is_cache_hit(self) -> bool {
        !matches!(self, TraceSource::Traced)
    }
}

/// Cache file stem for a model at a scale. `Small` keeps the historical
/// un-suffixed names so existing caches stay valid; other scales are
/// namespaced to avoid clashing with them.
fn cache_stem(prefix: &str, kind: ModelKind, scale: ModelScale) -> String {
    match scale {
        ModelScale::Small => format!("{prefix}-{}", kind.abbr()),
        ModelScale::Tiny => format!("{prefix}-tiny-{}", kind.abbr()),
    }
}

fn load_bin<T: ditto_core::binio::FromBin>(dir: &Path, name: &str) -> Option<T> {
    let path = dir.join(name);
    let bytes = fs::read(&path).ok()?;
    match ditto_core::binio::from_slice(&bytes) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("[suite] discarding unreadable cache {}: {e}", path.display());
            None
        }
    }
}

fn store_bin<T: ditto_core::binio::ToBin>(dir: &Path, name: &str, value: &T) {
    fs::write(dir.join(name), ditto_core::binio::to_vec(value)).expect("write cache");
}

fn load_json<T: ditto_core::jsonio::FromJson>(dir: &Path, name: &str) -> Option<T> {
    let bytes = fs::read(dir.join(name)).ok()?;
    ditto_core::jsonio::from_slice(&bytes).ok()
}

/// Builds the model instance used throughout the experiments, at the
/// experiment scale (see [`experiment_scale`]).
pub fn build_model(kind: ModelKind) -> DiffusionModel {
    DiffusionModel::build(kind, experiment_scale(), WEIGHT_SEED)
}

/// On-disk form of a cached trace: the fingerprint of the model definition
/// it was traced from, then the trace itself. A fingerprint mismatch at
/// load time is a cache miss — stale traces from an edited model cannot be
/// served. (Pre-fingerprint cache files fail to decode as this wrapper and
/// are likewise re-traced once.)
struct CachedTrace {
    fingerprint: u64,
    trace: WorkloadTrace,
}

impl ToBin for CachedTrace {
    fn write(&self, out: &mut Vec<u8>) {
        self.fingerprint.write(out);
        self.trace.write(out);
    }
}

impl FromBin for CachedTrace {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(CachedTrace { fingerprint: FromBin::read(r)?, trace: FromBin::read(r)? })
    }
}

/// Fingerprint of everything a cached trace depends on: the model
/// definition ([`ModelSpec::digest`], which covers the seed the weights are
/// drawn from), the sample seed and the execution policy. No weights are
/// drawn to compute it.
fn fingerprint_of(spec: &ModelSpec) -> u64 {
    let mut h = spec.digest();
    for bytes in [&SAMPLE_SEED.to_le_bytes()[..], b"Dense"] {
        h = diffusion::graph::fnv1a_fold(h, bytes);
    }
    h
}

fn trace_in_dir(
    dir: &Path,
    kind: ModelKind,
    scale: ModelScale,
) -> (WorkloadTrace, TraceSource, u64) {
    let spec = ModelSpec::new(kind, scale, WEIGHT_SEED);
    let fingerprint = fingerprint_of(&spec);
    let (trace, source) = lookup_in_dir(dir, kind, scale, fingerprint).unwrap_or_else(|| {
        (trace_and_store(dir, &DiffusionModel::from(spec), scale, fingerprint), TraceSource::Traced)
    });
    (trace, source, fingerprint)
}

/// The trace the cache holds for a model with this `fingerprint`, if any.
fn lookup_in_dir(
    dir: &Path,
    kind: ModelKind,
    scale: ModelScale,
    fingerprint: u64,
) -> Option<(WorkloadTrace, TraceSource)> {
    let started = Instant::now();
    let stem = cache_stem("trace", kind, scale);
    let bin_name = format!("{stem}.bin");
    if let Some(c) = load_bin::<CachedTrace>(dir, &bin_name) {
        if c.fingerprint == fingerprint {
            touch(&dir.join(&bin_name));
            note_trace_cache(kind, scale, "hit", started);
            return Some((c.trace, TraceSource::BinCache));
        }
        telemetry::counter("bench.trace_cache.stale", 1);
        eprintln!(
            "[suite] cache {bin_name} was traced from a different {} definition \
             ({:016x} != {:016x}); re-tracing",
            kind.abbr(),
            c.fingerprint,
            fingerprint
        );
        // No JSON migration after a binary entry failed the fingerprint
        // check: the model definitely changed, so a same-era JSON would
        // launder stale data as fingerprint-valid.
        return None;
    }
    // One-shot migration: read a legacy JSON cache and persist it as binary
    // so the JSON is never parsed again. JSON caches predate fingerprints
    // and are stamped with the current model's fingerprint on trust.
    let trace = load_json::<WorkloadTrace>(dir, &format!("{stem}.json"))?;
    let cached = CachedTrace { fingerprint, trace };
    store_bin(dir, &bin_name, &cached);
    note_trace_cache(kind, scale, "migrated", started);
    Some((cached.trace, TraceSource::JsonMigrated))
}

/// Traces `model` and stores the trace under its `fingerprint`.
fn trace_and_store(
    dir: &Path,
    model: &DiffusionModel,
    scale: ModelScale,
    fingerprint: u64,
) -> WorkloadTrace {
    let started = Instant::now();
    eprintln!("[suite] tracing {} (one-time, cached afterwards)...", model.kind.abbr());
    let (trace, _) = trace_model(model, SAMPLE_SEED, ExecPolicy::Dense).expect("trace");
    let cached = CachedTrace { fingerprint, trace };
    store_bin(dir, &format!("{}.bin", cache_stem("trace", model.kind, scale)), &cached);
    note_trace_cache(model.kind, scale, "traced", started);
    cached.trace
}

/// Estimated cost of tracing `spec`'s model: model calls × the
/// multiply-accumulates of one call's linear layers, read off the compiled
/// plan's shape immediates (no weights needed). Only the order of the
/// estimates matters (it decides which model a pool worker claims first); a
/// model without a plan sorts last.
fn trace_cost_estimate(spec: &ModelSpec) -> u64 {
    let Some(plan) = spec.plan() else { return 0 };
    let macs: usize = plan
        .ops()
        .iter()
        .map(|op| match op.code {
            OpCode::Conv2dIm2col { c_out, ckk, pixels, .. } => pixels * ckk * c_out,
            OpCode::Linear { m, k, n }
            | OpCode::MatmulQk { m, k, n, .. }
            | OpCode::MatmulPv { m, k, n } => m * k * n,
            _ => 0,
        })
        .sum();
    (macs * spec.model_calls()) as u64
}

/// Returns the cached workload trace for `kind`, computing (and caching) it
/// on first use. One trace = one full reverse process at the paper's step
/// count, with Q-Diffusion-style calibration for the UNet models.
pub fn cached_trace(kind: ModelKind) -> WorkloadTrace {
    cached_trace_scaled(kind, ModelScale::Small).0
}

/// [`cached_trace`] at an explicit scale, also reporting where the trace
/// came from (used by `Suite::load` reporting and the CI cache smoke test).
pub fn cached_trace_scaled(kind: ModelKind, scale: ModelScale) -> (WorkloadTrace, TraceSource) {
    let (trace, source, _) = trace_in_dir(&cache_dir(), kind, scale);
    (trace, source)
}

/// On-disk form of a cached similarity report, fingerprinted like
/// [`CachedTrace`]: a report from an edited model definition is a miss.
struct CachedSimilarity {
    fingerprint: u64,
    report: SimilarityReport,
}

impl ToBin for CachedSimilarity {
    fn write(&self, out: &mut Vec<u8>) {
        self.fingerprint.write(out);
        self.report.write(out);
    }
}

impl FromBin for CachedSimilarity {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(CachedSimilarity { fingerprint: FromBin::read(r)?, report: FromBin::read(r)? })
    }
}

/// Returns the cached similarity report for `kind` (Fig. 3 / Fig. 4 data).
pub fn cached_similarity(kind: ModelKind) -> SimilarityReport {
    similarity_in_dir(&cache_dir(), kind, experiment_scale()).0
}

/// The similarity report for `kind` at `scale`: the cache entry if it was
/// computed from this model definition, else a fresh similarity pass
/// (stored under the current fingerprint).
fn similarity_in_dir(
    dir: &Path,
    kind: ModelKind,
    scale: ModelScale,
) -> (SimilarityReport, TraceSource) {
    let spec = ModelSpec::new(kind, scale, WEIGHT_SEED);
    let fingerprint = fingerprint_of(&spec);
    let bin_name = format!("{}.bin", cache_stem("similarity", kind, scale));
    if let Ok(bytes) = fs::read(dir.join(&bin_name)) {
        let stale = match ditto_core::binio::from_slice::<CachedSimilarity>(&bytes) {
            Ok(c) if c.fingerprint == fingerprint => return (c.report, TraceSource::BinCache),
            Ok(c) => Some(format!("{:016x} != {fingerprint:016x}", c.fingerprint)),
            // Reports cached before they carried a fingerprint cannot be
            // vouched for either.
            Err(_) if ditto_core::binio::from_slice::<SimilarityReport>(&bytes).is_ok() => {
                Some("no fingerprint".to_string())
            }
            Err(e) => {
                eprintln!("[suite] discarding unreadable cache {bin_name}: {e}");
                None
            }
        };
        if let Some(why) = stale {
            telemetry::counter("bench.trace_cache.stale", 1);
            eprintln!(
                "[suite] cache {bin_name} was computed from a different {} definition ({why}); \
                 recomputing",
                kind.abbr()
            );
        }
    }
    eprintln!("[suite] similarity pass for {} (one-time, cached)...", kind.abbr());
    let mut hook = SimilarityHook::new();
    DiffusionModel::from(spec).run_reverse(SAMPLE_SEED, &mut hook).expect("similarity run");
    let cached = CachedSimilarity { fingerprint, report: hook.into_report() };
    store_bin(dir, &bin_name, &cached);
    (cached.report, TraceSource::Traced)
}

/// Convenience bundle of all cached inputs.
#[derive(Debug)]
pub struct Suite {
    /// Traces in [`MODELS`] order.
    pub traces: Vec<WorkloadTrace>,
    /// Where each trace came from, in [`MODELS`] order.
    pub sources: Vec<TraceSource>,
    /// Model-definition fingerprint of each trace, in [`MODELS`] order —
    /// the same digest stored in the `trace-*.bin` cache header, exposed so
    /// serving layers can key cross-request memo tables on it.
    pub fingerprints: Vec<u64>,
    /// How many `trace-*.bin` files the post-load LRU sweep evicted to
    /// respect [`CACHE_MAX_BYTES_ENV`] (0 unless the cap was exceeded).
    pub evictions: usize,
}

/// The process-wide warm suites behind [`Suite::shared`], one per scale.
static SHARED_SMALL: OnceLock<Suite> = OnceLock::new();
static SHARED_TINY: OnceLock<Suite> = OnceLock::new();

/// Whether a completed shared load is still waiting for some successful
/// response to report it (see [`Suite::take_warm_credit`]).
static WARM_UNREPORTED_SMALL: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);
static WARM_UNREPORTED_TINY: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

impl Suite {
    /// Loads (or computes) every model's trace at the experiment scale.
    pub fn load() -> Self {
        Self::load_scaled(ModelScale::Small)
    }

    /// Loads every model's trace at `scale`, fanning the per-model work out
    /// across CPU cores, and reports cache hits vs fresh traces plus any
    /// LRU evictions the [`CACHE_MAX_BYTES_ENV`] cap forced.
    pub fn load_scaled(scale: ModelScale) -> Self {
        let _span =
            telemetry::on().then(|| telemetry::span("bench", format!("suite_load:{scale:?}")));
        let dir = cache_dir();
        let mut suite = Self::load_in_dir(&dir, scale);
        // The sweep runs on behalf of *this* load, so its evictions are
        // attributed to the requesting scale even when the files it
        // removes belong to the other scale's namespace.
        suite.evictions = sweep_cache_dir_for(&dir, cache_max_bytes(), scale_name(scale));
        eprintln!(
            "[suite] {} traces loaded: {} cache hit(s), {} freshly traced, {} evicted by size cap",
            suite.traces.len(),
            suite.cache_hits(),
            suite.traces.len() - suite.cache_hits(),
            suite.evictions
        );
        if telemetry::on() {
            let int = |n: usize| Value::Int(n as i128);
            telemetry::event(
                "suite_load",
                vec![
                    ("scale", Value::Str(scale_name(scale).to_string())),
                    ("hits", int(suite.cache_hits())),
                    ("traced", int(suite.traces.len() - suite.cache_hits())),
                    ("evicted", int(suite.evictions)),
                ],
            );
        }
        suite
    }

    /// The process-wide warm suite for `scale`, loaded on first use.
    ///
    /// Every consumer — the experiment drivers, the ablations, each
    /// concurrent `serve` request — shares the same in-memory traces, so a
    /// trace is deserialized (or computed) at most once per process
    /// instead of once per `cached_trace` call.
    pub fn shared(scale: ModelScale) -> &'static Suite {
        Self::shared_observed(scale).0
    }

    /// [`Suite::shared`], additionally reporting whether **this call** is
    /// the one that performed the load (`true` for exactly one caller per
    /// scale per process). A completed load also arms
    /// [`Suite::take_warm_credit`] — serving layers should prefer that
    /// (claimed only when a response actually reports the warm-up) so the
    /// credit is not lost if the warming request itself fails.
    pub fn shared_observed(scale: ModelScale) -> (&'static Suite, bool) {
        let cell = match scale {
            ModelScale::Small => &SHARED_SMALL,
            ModelScale::Tiny => &SHARED_TINY,
        };
        let mut warmed = false;
        let suite = cell.get_or_init(|| {
            warmed = true;
            Suite::load_scaled(scale)
        });
        if warmed {
            Self::warm_unreported(scale).store(true, std::sync::atomic::Ordering::SeqCst);
        }
        (suite, warmed)
    }

    fn warm_unreported(scale: ModelScale) -> &'static std::sync::atomic::AtomicBool {
        match scale {
            ModelScale::Small => &WARM_UNREPORTED_SMALL,
            ModelScale::Tiny => &WARM_UNREPORTED_TINY,
        }
    }

    /// Claims the one-time credit for having warmed the shared suite at
    /// `scale`: returns `true` exactly once after a completed shared load,
    /// for the first claimant. Serving layers call this when building a
    /// **successful** response, so the warm-up's hit/fresh split is
    /// guaranteed to reach a client even when the request that happened to
    /// trigger the load failed for unrelated reasons.
    pub fn take_warm_credit(scale: ModelScale) -> bool {
        Self::warm_unreported(scale).swap(false, std::sync::atomic::Ordering::SeqCst)
    }

    /// The trace of one Table I model.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not in [`MODELS`] (all seven benchmarks are).
    pub fn trace(&self, kind: ModelKind) -> &WorkloadTrace {
        &self.traces[Self::index_of(kind)]
    }

    /// The model-definition fingerprint of one Table I model's trace.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not in [`MODELS`] (all seven benchmarks are).
    pub fn fingerprint(&self, kind: ModelKind) -> u64 {
        self.fingerprints[Self::index_of(kind)]
    }

    fn index_of(kind: ModelKind) -> usize {
        MODELS.iter().position(|&k| k == kind).expect("kind is a Table I model")
    }

    /// How many traces were served from the on-disk cache rather than
    /// freshly traced.
    pub fn cache_hits(&self) -> usize {
        self.sources.iter().filter(|s| s.is_cache_hit()).count()
    }

    fn load_in_dir(dir: &Path, scale: ModelScale) -> Self {
        let workers = accel::pool::default_workers();
        let spec = |i: usize| {
            let spec = ModelSpec::new(MODELS[i], scale, WEIGHT_SEED);
            let fingerprint = fingerprint_of(&spec);
            (spec, fingerprint)
        };
        // First what the cache holds, from the specs alone: a hit draws no
        // weights. A miss only reports what tracing it is estimated to
        // cost; its model is built in the second pass, one per worker.
        let mut loaded = accel::pool::run_indexed(MODELS.len(), workers, |i| {
            let (spec, fingerprint) = spec(i);
            lookup_in_dir(dir, spec.kind, scale, fingerprint)
                .map(|(trace, source)| (trace, source, fingerprint))
                .ok_or_else(|| trace_cost_estimate(&spec))
        });
        // Then the misses, costliest first. Workers claim jobs in index
        // order, so the longest trace never starts behind a short one and
        // sets the load's wall time alone.
        let mut misses: Vec<(usize, u64)> = loaded
            .iter()
            .enumerate()
            .filter_map(|(i, found)| found.as_ref().err().map(|&cost| (i, cost)))
            .collect();
        misses.sort_by_key(|&(_, cost)| std::cmp::Reverse(cost));
        let traced = accel::pool::run_indexed(misses.len(), workers, |job| {
            let (spec, fingerprint) = spec(misses[job].0);
            let model = DiffusionModel::from(spec);
            (trace_and_store(dir, &model, scale, fingerprint), TraceSource::Traced, fingerprint)
        });
        for (&(i, _), fresh) in misses.iter().zip(traced) {
            loaded[i] = Ok(fresh);
        }
        let mut suite = Suite {
            traces: Vec::with_capacity(loaded.len()),
            sources: Vec::with_capacity(loaded.len()),
            fingerprints: Vec::with_capacity(loaded.len()),
            evictions: 0,
        };
        for found in loaded {
            let (trace, source, fingerprint) = found.expect("every miss was traced");
            suite.traces.push(trace);
            suite.sources.push(source);
            suite.fingerprints.push(fingerprint);
        }
        suite
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_core::trace::StatView;

    /// A unique throwaway cache directory (tests must not touch the shared
    /// `target/ditto-cache`, and env-var overrides would race across the
    /// parallel test harness).
    fn temp_cache(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ditto-suite-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp cache dir");
        dir
    }

    fn tiny_trace() -> WorkloadTrace {
        let model = DiffusionModel::build(ModelKind::Ddpm, ModelScale::Tiny, 1);
        trace_model(&model, 0, ExecPolicy::Dense).unwrap().0
    }

    #[test]
    fn model_list_matches_table1() {
        assert_eq!(MODELS.len(), 7);
        assert_eq!(MODELS[0].abbr(), "DDPM");
        assert_eq!(MODELS[6].abbr(), "Latte");
    }

    #[test]
    fn binary_cache_roundtrip() {
        // Mirrors the original JSON cache_roundtrip test on the binary
        // path: store, load, and compare layer/step/merged-histogram views.
        let dir = temp_cache("roundtrip");
        let trace = tiny_trace();
        store_bin(&dir, "test-roundtrip.bin", &trace);
        let back: WorkloadTrace = load_bin(&dir, "test-roundtrip.bin").unwrap();
        assert_eq!(back.layer_count(), trace.layer_count());
        assert_eq!(back.step_count(), trace.step_count());
        for view in [StatView::Activation, StatView::Spatial, StatView::Temporal] {
            assert_eq!(back.merged(view), trace.merged(view));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_then_warm_then_corrupt() {
        let dir = temp_cache("lifecycle");
        // Cold: no cache entry → traced.
        let (t0, s0, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s0, TraceSource::Traced);
        assert!(dir.join("trace-tiny-DDPM.bin").exists());
        // Warm: binary cache hit, same content.
        let (t1, s1, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s1, TraceSource::BinCache);
        assert_eq!(t1.layer_count(), t0.layer_count());
        assert_eq!(t1.step_count(), t0.step_count());
        assert_eq!(t1.merged(StatView::Temporal), t0.merged(StatView::Temporal));
        // Corrupt: truncated file falls back to re-tracing, not a panic,
        // and heals the cache.
        let bytes = fs::read(dir.join("trace-tiny-DDPM.bin")).unwrap();
        fs::write(dir.join("trace-tiny-DDPM.bin"), &bytes[..bytes.len() / 2]).unwrap();
        let (t2, s2, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s2, TraceSource::Traced);
        assert_eq!(t2.merged(StatView::Temporal), t0.merged(StatView::Temporal));
        let (_, s3, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s3, TraceSource::BinCache, "cache healed after corruption");
        // Garbage (wrong magic) also falls back.
        fs::write(dir.join("trace-tiny-DDPM.bin"), b"not a cache file").unwrap();
        let (_, s4, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s4, TraceSource::Traced);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_model_definition_misses_cache() {
        let dir = temp_cache("fingerprint");
        let (t0, s0, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s0, TraceSource::Traced);
        // Simulate a cache entry written by an *older/edited* model
        // definition: same trace payload, different fingerprint header.
        let stale = CachedTrace { fingerprint: 0xDEAD_BEEF, trace: t0.clone() };
        store_bin(&dir, "trace-tiny-DDPM.bin", &stale);
        let (t1, s1, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s1, TraceSource::Traced, "a changed model config must miss the cache");
        assert_eq!(t1.merged(StatView::Temporal), t0.merged(StatView::Temporal));
        // The re-trace heals the cache with the current fingerprint.
        let (_, s2, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s2, TraceSource::BinCache);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_bin_blocks_json_migration() {
        // A fingerprint-mismatched .bin proves the model changed; a legacy
        // .json sitting beside it is same-era-or-older and must NOT be
        // migrated (that would stamp stale data with the new fingerprint).
        let dir = temp_cache("stale-json");
        let (t0, _, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        fs::write(dir.join("trace-tiny-DDPM.json"), ditto_core::jsonio::to_vec(&t0)).unwrap();
        let stale = CachedTrace { fingerprint: 0xDEAD_BEEF, trace: t0 };
        store_bin(&dir, "trace-tiny-DDPM.bin", &stale);
        let (_, source, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(source, TraceSource::Traced, "stale bin must force a re-trace, not migration");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn similarity_cache_misses_on_tampered_fingerprint_and_old_format() {
        let dir = temp_cache("similarity");
        let name = "similarity-tiny-DDPM.bin";
        let (r0, s0) = similarity_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s0, TraceSource::Traced);
        let (r1, s1) = similarity_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s1, TraceSource::BinCache);
        let bytes = |r: &SimilarityReport| ditto_core::binio::to_vec(r);
        assert_eq!(bytes(&r1), bytes(&r0));
        // A report written by an edited model definition: same payload,
        // different fingerprint. It must be recomputed, then heal.
        store_bin(&dir, name, &CachedSimilarity { fingerprint: 0xDEAD_BEEF, report: r0.clone() });
        let (r2, s2) = similarity_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s2, TraceSource::Traced, "a tampered fingerprint must miss the cache");
        assert_eq!(bytes(&r2), bytes(&r0));
        assert_eq!(
            similarity_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny).1,
            TraceSource::BinCache
        );
        // The pre-fingerprint format (a bare report) is a miss as well.
        store_bin(&dir, name, &r0);
        assert_eq!(
            similarity_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny).1,
            TraceSource::Traced
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_tracks_model_definition() {
        let of = |kind, scale, seed| fingerprint_of(&ModelSpec::new(kind, scale, seed));
        let tiny = of(ModelKind::Ddpm, ModelScale::Tiny, 42);
        // Deterministic across rebuilds of the same definition.
        assert_eq!(tiny, of(ModelKind::Ddpm, ModelScale::Tiny, 42));
        // Scale changes dims/steps, kind changes the whole graph, and the
        // weight seed changes every weight.
        assert_ne!(tiny, of(ModelKind::Ddpm, ModelScale::Small, 42));
        assert_ne!(tiny, of(ModelKind::Dit, ModelScale::Tiny, 42));
        assert_ne!(tiny, of(ModelKind::Ddpm, ModelScale::Tiny, 43));
    }

    #[test]
    fn legacy_json_cache_migrates_to_binary() {
        let dir = temp_cache("migrate");
        let trace = tiny_trace();
        fs::write(dir.join("trace-tiny-DDPM.json"), ditto_core::jsonio::to_vec(&trace)).unwrap();
        let (t, source, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(source, TraceSource::JsonMigrated);
        assert_eq!(t.merged(StatView::Temporal), trace.merged(StatView::Temporal));
        assert!(dir.join("trace-tiny-DDPM.bin").exists(), "migration writes the binary cache");
        // Second load prefers the migrated binary.
        let (_, source, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(source, TraceSource::BinCache);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_load_matches_sequential_and_reports_sources() {
        let dir = temp_cache("parallel");
        let cold = Suite::load_in_dir(&dir, ModelScale::Tiny);
        assert_eq!(cold.traces.len(), MODELS.len());
        assert!(cold.sources.iter().all(|s| *s == TraceSource::Traced));
        let warm = Suite::load_in_dir(&dir, ModelScale::Tiny);
        assert!(warm.sources.iter().all(|s| *s == TraceSource::BinCache));
        for (i, (w, c)) in warm.traces.iter().zip(&cold.traces).enumerate() {
            // Traces come back in MODELS order regardless of which worker
            // finished first, identical to the freshly computed ones.
            assert_eq!(w.model, MODELS[i].abbr());
            assert_eq!(w.layer_count(), c.layer_count());
            assert_eq!(w.step_count(), c.step_count());
            assert_eq!(w.merged(StatView::Temporal), c.merged(StatView::Temporal));
        }
        // Fingerprints come back too, and match a direct recomputation.
        assert_eq!(warm.fingerprints, cold.fingerprints);
        assert_eq!(
            warm.fingerprint(ModelKind::Ddpm),
            fingerprint_of(&ModelSpec::new(ModelKind::Ddpm, ModelScale::Tiny, WEIGHT_SEED))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cost_estimate_is_the_traced_mac_count() {
        // The estimate read off the compiled plan is exactly what the hook
        // goes on to record, for a UNet and a transformer alike.
        for kind in [ModelKind::Sdm, ModelKind::Dit] {
            let model = DiffusionModel::build(kind, ModelScale::Tiny, WEIGHT_SEED);
            let (trace, _) = trace_model(&model, 0, ExecPolicy::Dense).unwrap();
            let macs: u64 = trace.layers.iter().map(|l| l.macs).sum();
            assert_eq!(trace_cost_estimate(&model), macs * model.model_calls() as u64, "{kind:?}");
        }
        // At the experiment scale BED is the longest job and Latte the
        // shortest, whatever their Table I positions.
        let cost = |kind| trace_cost_estimate(&ModelSpec::new(kind, ModelScale::Small, 1));
        let costs = MODELS.map(cost);
        assert_eq!(costs.iter().max(), Some(&cost(ModelKind::Bed)));
        assert_eq!(costs.iter().min(), Some(&cost(ModelKind::Latte)));
    }

    /// Writes a fake trace cache entry of `size` bytes and nudges its mtime
    /// ordering by creation order (a short sleep keeps mtimes distinct on
    /// coarse-granularity filesystems).
    fn fake_trace_file(dir: &Path, name: &str, size: usize) {
        fs::write(dir.join(name), vec![0u8; size]).expect("write fake trace");
        std::thread::sleep(std::time::Duration::from_millis(15));
    }

    #[test]
    fn lru_sweep_evicts_oldest_first_under_tiny_cap() {
        let dir = temp_cache("lru");
        fake_trace_file(&dir, "trace-old.bin", 100);
        fake_trace_file(&dir, "trace-mid.bin", 100);
        fake_trace_file(&dir, "trace-new.bin", 100);
        // Non-trace artifacts are exempt from both accounting and eviction.
        fake_trace_file(&dir, "similarity-DDPM.bin", 10_000);
        fake_trace_file(&dir, "trace-legacy.json", 10_000);

        // Under the cap: nothing happens.
        assert_eq!(sweep_cache_dir(&dir, 300), 0);
        assert!(dir.join("trace-old.bin").exists());

        // 300 B of traces against a 250 B cap: exactly the oldest goes.
        assert_eq!(sweep_cache_dir(&dir, 250), 1);
        assert!(!dir.join("trace-old.bin").exists(), "oldest-mtime entry is evicted first");
        assert!(dir.join("trace-mid.bin").exists());
        assert!(dir.join("trace-new.bin").exists());

        // 200 B left against a 10 B cap: both remaining traces go, the
        // similarity report and legacy JSON stay.
        assert_eq!(sweep_cache_dir(&dir, 10), 2);
        assert!(!dir.join("trace-mid.bin").exists());
        assert!(!dir.join("trace-new.bin").exists());
        assert!(dir.join("similarity-DDPM.bin").exists());
        assert!(dir.join("trace-legacy.json").exists());

        // Idempotent on an empty (or missing) cache.
        assert_eq!(sweep_cache_dir(&dir, 10), 0);
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(sweep_cache_dir(&dir, 10), 0);
    }

    #[test]
    fn cache_hits_refresh_mtime_so_hot_entries_survive_lru() {
        let dir = temp_cache("lru-touch");
        let (_, s0, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s0, TraceSource::Traced);
        let path = dir.join("trace-tiny-DDPM.bin");
        let created = fs::metadata(&path).unwrap().modified().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // A hit must re-stamp the entry as recently used...
        let (_, s1, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s1, TraceSource::BinCache);
        let after_hit = fs::metadata(&path).unwrap().modified().unwrap();
        assert!(after_hit > created, "a cache hit must refresh mtime (LRU, not FIFO)");
        // ...so an older-but-newer-created idle entry is evicted first.
        std::thread::sleep(std::time::Duration::from_millis(20));
        fs::write(dir.join("trace-idle.bin"), vec![0u8; 64]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let (_, s2, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s2, TraceSource::BinCache);
        let hot_size = fs::metadata(&path).unwrap().len();
        assert_eq!(sweep_cache_dir(&dir, hot_size), 1, "only the idle entry must go");
        assert!(path.exists(), "the recently used entry survives");
        assert!(!dir.join("trace-idle.bin").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_sweep_eviction_is_a_cache_miss_not_corruption() {
        let dir = temp_cache("lru-miss");
        let (t0, s0, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s0, TraceSource::Traced);
        // A 1-byte cap evicts the freshly written entry...
        assert_eq!(sweep_cache_dir(&dir, 1), 1);
        assert!(!dir.join("trace-tiny-DDPM.bin").exists());
        // ...and the next load simply re-traces, bit-identically.
        let (t1, s1, _) = trace_in_dir(&dir, ModelKind::Ddpm, ModelScale::Tiny);
        assert_eq!(s1, TraceSource::Traced);
        assert_eq!(t1.merged(StatView::Temporal), t0.merged(StatView::Temporal));
        let _ = fs::remove_dir_all(&dir);
    }
}
