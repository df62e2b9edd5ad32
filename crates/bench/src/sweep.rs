//! Declarative (design × model) sweeps over the benchmark suite, and the
//! line-delimited JSON protocol `ditto-serve` speaks.
//!
//! A [`SweepRequest`] names the three axes of a sweep — designs, Table I
//! models, and the model scale — and [`SweepRequest::run`] resolves the
//! traces through the process-wide warm [`Suite`] before handing the grid
//! to the work-stealing engine in [`accel::grid`]. Every experiment driver
//! (fig13–fig19) and every `ditto-serve` request is one of these.
//!
//! # Wire protocol (`ditto-serve`)
//!
//! One request per line, one JSON response per line, streamed as requests
//! finish:
//!
//! ```json
//! {"id":"r1","designs":["ITC","Ditto","Ditto+"],"models":["DDPM","SDM"],"scale":"small"}
//! ```
//!
//! `designs` defaults to the Fig. 13 comparison set, `models` to all seven
//! Table I benchmarks, and `scale` to `"small"` (the experiment scale;
//! `"tiny"` is the CI/test scale). Responses carry the full serialized
//! [`SweepReport`] plus summary fields (per-model best design, geometric-
//! mean speedups vs the first requested design, per-request cell and
//! suite accounting).

use accel::design::Design;
use accel::grid::{self, SweepError, SweepReport, SweepSpec};
use diffusion::{ModelKind, ModelScale};
use ditto_core::jsonio::{self, ToJson, Value};
use ditto_core::trace::WorkloadTrace;
use tensor::KernelBackend;

use crate::suite::{Suite, MODELS};

/// Version of the serve wire protocol, carried in every response's
/// `proto` field so clients can detect server/client skew instead of
/// silently dropping fields they do not understand.
///
/// * **1** — the pre-versioning protocol (no `proto` field on the wire;
///   clients treat its absence as version 1).
/// * **2** — adds `proto`, the `backend` request/response field (kernel
///   backend selection), and `cells.evictions` (serve memo LRU).
/// * **3** — adds `plans {compiled, reused}` (process-wide compiled-plan
///   cache counters).
/// * **4** — `backend` becomes response-only: the process runs the one
///   kernel backend `DITTO_KERNEL_BACKEND` selects at startup, and a
///   request carrying `backend` is answered `ok: false`.
/// * **5** — drops the legacy process-wide `cache_hits` field; the
///   per-request `suite` object carries the warm-up's split.
pub const PROTO_VERSION: i64 = 5;

/// One declarative sweep: which designs, which models, at which scale.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// Design points to simulate (report column order).
    pub designs: Vec<Design>,
    /// Table I models to simulate on (report row order).
    pub models: Vec<ModelKind>,
    /// Trace scale: `Small` for the paper experiments, `Tiny` for CI.
    pub scale: ModelScale,
}

impl SweepRequest {
    /// A request over explicit axes.
    pub fn new(designs: Vec<Design>, models: Vec<ModelKind>, scale: ModelScale) -> Self {
        SweepRequest { designs, models, scale }
    }

    /// Executes the sweep on the shared warm suite for `self.scale`.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for empty axes or degenerate traces.
    pub fn run(&self) -> Result<SweepReport, SweepError> {
        let suite = Suite::shared(self.scale);
        let traces: Vec<&WorkloadTrace> = self.models.iter().map(|&k| suite.trace(k)).collect();
        grid::run(&SweepSpec::new(self.designs.clone(), traces))
    }
}

/// Runs `designs` over the whole Table I suite at `scale` — the shape
/// every fig13–fig19 experiment declares.
pub fn paper_sweep(designs: Vec<Design>, scale: ModelScale) -> SweepReport {
    SweepRequest::new(designs, MODELS.to_vec(), scale)
        .run()
        .expect("paper sweeps have non-empty axes and suite-validated traces")
}

/// Runs `designs` over explicit traces (e.g. the drift-injected Fig. 19
/// workloads) on the grid engine.
///
/// # Errors
///
/// Returns [`SweepError`] for empty axes or degenerate traces.
pub fn sweep_traces(
    designs: Vec<Design>,
    traces: Vec<&WorkloadTrace>,
) -> Result<SweepReport, SweepError> {
    grid::run(&SweepSpec::new(designs, traces))
}

// --------------------------------------------------------------------------
// Serve protocol
// --------------------------------------------------------------------------

/// A parsed serve request: client-chosen id plus the sweep to run.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Echoed verbatim in the response so clients can match streamed
    /// out-of-order responses to requests.
    pub id: String,
    /// The sweep to execute.
    pub sweep: SweepRequest,
    /// Scheduling priority: higher-priority requests' cells are dequeued
    /// first by `ditto-serve`'s cell scheduler; equal priorities run FIFO.
    /// Defaults to 0. Best-effort — already-running cells are never
    /// preempted, and results are bit-identical regardless of order.
    pub priority: i64,
}

/// Parses a scale name (`small` / `tiny`, any case), as the request's
/// `scale` field and `ditto-figs --scale` spell it.
///
/// # Errors
///
/// Names the two accepted values for anything else.
pub fn parse_scale(s: &str) -> Result<ModelScale, String> {
    match s.to_ascii_lowercase().as_str() {
        "small" => Ok(ModelScale::Small),
        "tiny" => Ok(ModelScale::Tiny),
        other => Err(format!("unknown scale `{other}` (expected `small` or `tiny`)")),
    }
}

/// The wire name of a scale (`"small"` / `"tiny"`), as accepted by the
/// request parser and used to namespace scheduler memo keys.
pub fn scale_name(scale: ModelScale) -> &'static str {
    match scale {
        ModelScale::Small => "small",
        ModelScale::Tiny => "tiny",
    }
}

fn parse_names(v: &Value, what: &str) -> Result<Vec<String>, String> {
    match v {
        Value::Arr(items) => items
            .iter()
            .map(|i| match i {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(format!("{what} entries must be strings")),
            })
            .collect(),
        _ => Err(format!("`{what}` must be an array of names")),
    }
}

/// Parses one line of the serve wire protocol into a [`ServeRequest`].
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, unknown design or
/// model names, a bad scale, or a `backend` field (the kernel backend is
/// the process's, not the request's); the server reports it in an
/// `ok: false` response instead of dying.
pub fn parse_request(line: &str) -> Result<ServeRequest, String> {
    let v = jsonio::parse(line.as_bytes()).map_err(|e| e.to_string())?;
    let id = match v.get("id") {
        Ok(Value::Str(s)) => s.clone(),
        Ok(Value::Int(i)) => i.to_string(),
        Ok(_) => return Err("`id` must be a string or integer".into()),
        Err(_) => return Err("request is missing `id`".into()),
    };
    let designs = match v.get("designs") {
        Ok(field) => parse_names(field, "designs")?
            .iter()
            .map(|name| Design::from_name(name).ok_or_else(|| format!("unknown design `{name}`")))
            .collect::<Result<Vec<_>, _>>()?,
        Err(_) => Design::fig13_set(),
    };
    let models = match v.get("models") {
        Ok(field) => parse_names(field, "models")?
            .iter()
            .map(|name| {
                MODELS
                    .iter()
                    .copied()
                    .find(|k| k.abbr().eq_ignore_ascii_case(name))
                    .ok_or_else(|| format!("unknown model `{name}`"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        Err(_) => MODELS.to_vec(),
    };
    let scale = match v.get("scale") {
        Ok(Value::Str(s)) => parse_scale(s)?,
        Ok(_) => return Err("`scale` must be a string".into()),
        Err(_) => ModelScale::Small,
    };
    let priority = match v.get("priority") {
        Ok(Value::Int(i)) => i64::try_from(*i)
            .map_err(|_| format!("`priority` {i} out of range for a 64-bit integer"))?,
        Ok(_) => return Err("`priority` must be an integer".into()),
        Err(_) => 0,
    };
    if v.get("backend").is_ok() {
        return Err("a request cannot choose the kernel backend: the server runs the one \
                    DITTO_KERNEL_BACKEND selects (reported in every response's `backend`)"
            .into());
    }
    Ok(ServeRequest { id, sweep: SweepRequest::new(designs, models, scale), priority })
}

/// Best-effort id extraction from a (possibly malformed) request line, so
/// error responses can still be matched to their request.
pub fn request_id(line: &str) -> String {
    match jsonio::parse(line.as_bytes()) {
        Ok(v) => match v.get("id") {
            Ok(Value::Str(s)) => s.clone(),
            Ok(Value::Int(i)) => i.to_string(),
            _ => String::new(),
        },
        Err(_) => String::new(),
    }
}

/// Per-request-observed cache accounting carried in every successful
/// response. Each counter describes what **this** request saw, not
/// process-wide totals.
///
/// Cell counters partition the request's (design × model) cells:
/// `cells_total == cells_memo + cells_coalesced + cells_simulated`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitAccounting {
    /// Cells this request asked for.
    pub cells_total: usize,
    /// Cells served from the cross-request memo table (already completed
    /// by an earlier request).
    pub cells_memo: usize,
    /// Cells another in-flight request was already simulating; this
    /// request waited for that simulation instead of duplicating it.
    pub cells_coalesced: usize,
    /// Cells this request simulated itself (first toucher).
    pub cells_simulated: usize,
    /// Completed memo entries aged out of the bounded memo table
    /// (`DITTO_MEMO_MAX_CELLS` LRU) by this request's cap sweeps;
    /// approximate under overlapping requests (a sweep may age out cells
    /// another request completed). 0 when the table is unbounded, and
    /// not part of the `cells_total` partition.
    pub cells_evicted: usize,
    /// Whether this request is the one that triggered the shared suite
    /// load for its scale (true for at most one request per scale per
    /// process).
    pub suite_warmed: bool,
    /// Of the suite load this request performed: traces served from the
    /// on-disk cache. 0 when `suite_warmed` is false.
    pub suite_cache_hits: usize,
    /// Of the suite load this request performed: traces freshly traced.
    /// 0 when `suite_warmed` is false.
    pub suite_fresh: usize,
}

impl HitAccounting {
    /// Accounting for an engine without a cross-request memo (a direct
    /// [`accel::grid::run`]): every cell is simulated.
    pub fn all_simulated(cells_total: usize) -> Self {
        HitAccounting { cells_total, cells_simulated: cells_total, ..Default::default() }
    }

    /// Fills the suite-observation fields: `warmed` says whether this
    /// request reports the load of `suite` (see [`Suite::take_warm_credit`]).
    pub fn with_suite(mut self, suite: &Suite, warmed: bool) -> Self {
        self.suite_warmed = warmed;
        if warmed {
            self.suite_cache_hits = suite.cache_hits();
            self.suite_fresh = suite.traces.len() - suite.cache_hits();
        }
        self
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Renders a successful response line: the request id, protocol version,
/// the kernel backend that served it (its resolved name, e.g.
/// `simd:avx2`), per-request cache accounting, summary aggregations, and
/// the full serialized report. See the README protocol spec for the
/// field-by-field schema.
pub fn response_ok(
    id: &str,
    report: &SweepReport,
    hits: &HitAccounting,
    backend: KernelBackend,
) -> String {
    let best: Vec<Value> = report
        .models
        .iter()
        .enumerate()
        .map(|(m, model)| {
            obj(vec![
                ("model", Value::Str(model.clone())),
                ("design", Value::Str(report.designs[report.best_design(m)].clone())),
            ])
        })
        .collect();
    let geomean: Vec<Value> = (0..report.designs.len())
        .map(|d| {
            obj(vec![
                ("design", Value::Str(report.designs[d].clone())),
                ("speedup_vs_baseline", report.geomean_speedup(d, 0).to_json()),
            ])
        })
        .collect();
    let cells = obj(vec![
        ("total", hits.cells_total.to_json()),
        ("memo_hits", hits.cells_memo.to_json()),
        ("coalesced", hits.cells_coalesced.to_json()),
        ("simulated", hits.cells_simulated.to_json()),
        ("evictions", hits.cells_evicted.to_json()),
    ]);
    let suite = obj(vec![
        ("warmed_by_this_request", hits.suite_warmed.to_json()),
        ("trace_cache_hits", hits.suite_cache_hits.to_json()),
        ("freshly_traced", hits.suite_fresh.to_json()),
    ]);
    // Process-wide compiled-plan cache counters (structurally identical
    // models across requests/sweep cells reuse one compilation): unlike
    // the per-request cell counters these are cumulative.
    let plan_stats = diffusion::plan::plan_cache_stats();
    let plans = obj(vec![
        ("compiled", plan_stats.compiled.to_json()),
        ("reused", plan_stats.reused.to_json()),
    ]);
    let v = obj(vec![
        ("id", Value::Str(id.to_string())),
        ("ok", Value::Bool(true)),
        ("proto", Value::Int(PROTO_VERSION.into())),
        ("backend", Value::Str(backend.resolved_name())),
        ("cells", cells),
        ("suite", suite),
        ("plans", plans),
        ("best_design", Value::Arr(best)),
        ("geomean", Value::Arr(geomean)),
        ("report", report.to_json()),
    ]);
    String::from_utf8(jsonio::to_vec(&v)).expect("jsonio writes UTF-8")
}

/// Renders a failure response line (versioned like [`response_ok`]).
pub fn response_err(id: &str, error: &str) -> String {
    let v = obj(vec![
        ("id", Value::Str(id.to_string())),
        ("ok", Value::Bool(false)),
        ("proto", Value::Int(PROTO_VERSION.into())),
        ("error", Value::Str(error.to_string())),
    ]);
    String::from_utf8(jsonio::to_vec(&v)).expect("jsonio writes UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_request() {
        let r = parse_request(
            r#"{"id":"r1","designs":["Ditto","cam-d"],"models":["DDPM","sdm"],"scale":"tiny"}"#,
        )
        .unwrap();
        assert_eq!(r.id, "r1");
        assert_eq!(r.sweep.designs.len(), 2);
        assert_eq!(r.sweep.designs[0].name, "Ditto");
        assert_eq!(r.sweep.designs[1].name, "Cam-D");
        assert_eq!(r.sweep.models, vec![ModelKind::Ddpm, ModelKind::Sdm]);
        assert_eq!(r.sweep.scale, ModelScale::Tiny);
        assert_eq!(r.priority, 0);
    }

    #[test]
    fn parse_defaults() {
        let r = parse_request(r#"{"id": 7}"#).unwrap();
        assert_eq!(r.id, "7");
        assert_eq!(r.sweep.designs.len(), Design::fig13_set().len());
        assert_eq!(r.sweep.models.len(), MODELS.len());
        assert_eq!(r.sweep.scale, ModelScale::Small);
        assert_eq!(r.priority, 0);
    }

    #[test]
    fn parse_priority() {
        let r = parse_request(r#"{"id":"p","priority":9,"scale":"tiny"}"#).unwrap();
        assert_eq!(r.priority, 9);
        let r = parse_request(r#"{"id":"n","priority":-3}"#).unwrap();
        assert_eq!(r.priority, -3);
        assert!(parse_request(r#"{"id":"x","priority":"high"}"#).unwrap_err().contains("priority"));
    }

    #[test]
    fn parse_rejects_bad_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"designs":["Ditto"]}"#).unwrap_err().contains("id"));
        assert!(parse_request(r#"{"id":"x","designs":["Warp9"]}"#)
            .unwrap_err()
            .contains("unknown design"));
        assert!(parse_request(r#"{"id":"x","models":["GPT"]}"#)
            .unwrap_err()
            .contains("unknown model"));
        assert!(parse_request(r#"{"id":"x","scale":"huge"}"#)
            .unwrap_err()
            .contains("unknown scale"));
    }

    #[test]
    fn request_id_is_best_effort() {
        assert_eq!(request_id(r#"{"id":"x","designs":["Warp9"]}"#), "x");
        assert_eq!(request_id(r#"{"id":42}"#), "42");
        assert_eq!(request_id("not json"), "");
        assert_eq!(request_id(r#"{"designs":[]}"#), "");
    }

    #[test]
    fn responses_are_single_line_json() {
        use accel::sim::synth;
        let trace = synth::trace(2, 4, 50_000, 128, true);
        let report = sweep_traces(vec![Design::itc(), Design::ditto()], vec![&trace]).unwrap();
        let hits = HitAccounting {
            cells_total: 2,
            cells_memo: 1,
            cells_coalesced: 0,
            cells_simulated: 1,
            cells_evicted: 3,
            suite_warmed: true,
            suite_cache_hits: 7,
            suite_fresh: 0,
        };
        let ok = response_ok("r9", &report, &hits, KernelBackend::Scalar);
        assert!(!ok.contains('\n'));
        let v = jsonio::parse(ok.as_bytes()).unwrap();
        assert_eq!(v.get("id").unwrap(), &Value::Str("r9".into()));
        assert_eq!(v.get("ok").unwrap(), &Value::Bool(true));
        assert_eq!(v.get("proto").unwrap(), &Value::Int(PROTO_VERSION.into()));
        assert_eq!(v.get("backend").unwrap(), &Value::Str("scalar".into()));
        // The legacy process-wide `cache_hits` field is gone (proto 5).
        assert!(v.get("cache_hits").is_err());
        let cells = v.get("cells").unwrap();
        assert_eq!(cells.get("total").unwrap(), &Value::Int(2));
        assert_eq!(cells.get("memo_hits").unwrap(), &Value::Int(1));
        assert_eq!(cells.get("coalesced").unwrap(), &Value::Int(0));
        assert_eq!(cells.get("simulated").unwrap(), &Value::Int(1));
        assert_eq!(cells.get("evictions").unwrap(), &Value::Int(3));
        let suite = v.get("suite").unwrap();
        assert_eq!(suite.get("warmed_by_this_request").unwrap(), &Value::Bool(true));
        assert_eq!(suite.get("trace_cache_hits").unwrap(), &Value::Int(7));
        assert_eq!(suite.get("freshly_traced").unwrap(), &Value::Int(0));
        // Plan-cache counters are process-cumulative (other tests may be
        // compiling concurrently), so assert presence and type only.
        let plans = v.get("plans").unwrap();
        assert!(matches!(plans.get("compiled").unwrap(), Value::Int(n) if *n >= 0));
        assert!(matches!(plans.get("reused").unwrap(), Value::Int(n) if *n >= 0));
        assert!(matches!(v.get("report").unwrap(), Value::Obj(_)));
        // The embedded report round-trips through the typed decoder.
        let back: SweepReport =
            ditto_core::jsonio::FromJson::from_json(v.get("report").unwrap()).unwrap();
        assert_eq!(back.designs, report.designs);

        // Every backend reports its resolved name: a SIMD one with its
        // level, never bare `simd`.
        for backend in KernelBackend::available() {
            let ok = response_ok("r9", &report, &hits, backend);
            let v = jsonio::parse(ok.as_bytes()).unwrap();
            assert_eq!(v.get("backend").unwrap(), &Value::Str(backend.resolved_name()));
        }

        let err = response_err("r9", "boom");
        let v = jsonio::parse(err.as_bytes()).unwrap();
        assert_eq!(v.get("ok").unwrap(), &Value::Bool(false));
        assert_eq!(v.get("proto").unwrap(), &Value::Int(PROTO_VERSION.into()));
        assert_eq!(v.get("error").unwrap(), &Value::Str("boom".into()));
    }

    /// `backend` is outside input: any request carrying it — with a valid
    /// backend name or not — is refused with a message naming the variable
    /// that does choose it.
    #[test]
    fn parse_backend_field() {
        for line in [
            r#"{"id":"b","backend":"simd","scale":"tiny"}"#,
            r#"{"id":"b","backend":"scalar"}"#,
            r#"{"id":"b","backend":"tiled"}"#,
            r#"{"id":"b","backend":7}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains("DITTO_KERNEL_BACKEND"), "{line}: {err}");
            assert_eq!(request_id(line), "b");
        }
        assert!(parse_request(r#"{"id":"b"}"#).is_ok());
    }
}
