//! The whole-stack telemetry core: scoped spans, counters,
//! [`LogHistogram`]-backed timing series, and two exporters — the shared
//! JSONL event stream (`DITTO_OBS_STREAM`, the same file `serve::obs`
//! writes to) and a Chrome trace-event (catapult) JSON file
//! (`DITTO_TRACE_FILE`) loadable in chrome://tracing or Perfetto.
//!
//! # Cost model
//!
//! Everything hangs off one process-wide gate, [`on`]: a single relaxed
//! atomic load plus a branch. With both env vars unset the global handle is
//! disabled, no writer thread is ever spawned, and every instrumentation
//! point in the compute stack costs exactly that load-and-branch. The gate
//! resolves once (CAS-publish, same pattern as `tensor::backend::active`)
//! so the hot path never re-reads the environment.
//!
//! # Architecture
//!
//! Producers either hold an explicit [`Telemetry`] handle (tests) or go
//! through the module-level helpers ([`span`], [`counter`], [`series`],
//! [`event`]) that route to [`global`]. The enabled handle owns one
//! [`JsonlWriter`] — serve's obs layer shares it, so serve events and
//! compute spans land in one stream — and uses its ~100ms idle cadence to:
//!
//! 1. drain the compute-stack probe registries
//!    ([`plan::drain_exec_telemetry`] and
//!    [`backend::dispatch_counts`]), folding per-opcode plan profiles
//!    into cumulative [`plan::PlanProfile`]s and emitting `plan_profile` /
//!    `kernel_dispatch` stream events when anything changed;
//! 2. run registered idle hooks (serve's summary checkpoint);
//! 3. atomically checkpoint the catapult trace file, so it is valid JSON
//!    — and at most ~100ms stale — even for a `SIGKILL`ed process.
//!
//! Enabling a handle flips the probe gates
//! ([`plan::set_profiling`], [`backend::set_dispatch_counting`]) on; those
//! layers cannot depend on this crate, so they accumulate locally and this
//! layer drains them.
//!
//! Binaries that exit cleanly call [`Telemetry::flush`] (or the module
//! [`flush`]), which emits the final counter/series/profile snapshots and
//! then waits for two idle ticks — the writer only ticks after draining the
//! channel and flushing, so on return every line and the trace file are on
//! disk.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::hist::LogHistogram;
use crate::jsonio::{self, ToJson, Value};
use crate::jsonl::{write_atomic, JsonlWriter};
use diffusion::plan;
use tensor::backend;

// --------------------------------------------------------------------------
// The process-wide gate
// --------------------------------------------------------------------------

/// Cached enabled-ness of the [`global`] handle: `0` unresolved, `1` off,
/// `2` on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether the process-wide telemetry is enabled. This is the whole cost
/// of an instrumentation point on the disabled path: one relaxed load and
/// a branch.
#[inline]
pub fn on() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => resolve(),
    }
}

#[cold]
fn resolve() -> bool {
    let enabled = global().enabled();
    let enc = if enabled { 2 } else { 1 };
    // A racing resolver computed the same value; either write wins.
    let _ = STATE.compare_exchange(0, enc, Ordering::Relaxed, Ordering::Relaxed);
    enabled
}

/// The process-wide handle, initialized from `DITTO_OBS_STREAM` /
/// `DITTO_TRACE_FILE` on first use. Tests build explicit handles with
/// [`Telemetry::to_files`] instead of racing on env vars.
pub fn global() -> &'static Arc<Telemetry> {
    static GLOBAL: OnceLock<Arc<Telemetry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Telemetry::from_env()))
}

/// Small dense per-thread id for trace-event `tid` fields (thread names
/// are not stable or JSON-friendly; catapult wants integers).
fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Plan-interpreter spans carry their own thread ids (diffusion cannot see
/// ours); offsetting them keeps the two id spaces disjoint in the trace.
const PLAN_TID_BASE: u64 = 1 << 32;

// --------------------------------------------------------------------------
// Trace sink (chrome://tracing)
// --------------------------------------------------------------------------

/// One complete (`ph:"X"`) trace event. `args` is the catapult per-event
/// argument object (shown in the chrome://tracing detail pane); empty means
/// the `args` key is omitted entirely.
#[derive(Debug, Clone)]
struct TraceEvent {
    name: String,
    cat: &'static str,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
    args: Vec<(String, Value)>,
}

/// Span cap between checkpoints; beyond it events are counted, not kept
/// (the count is exported as `dittoDroppedEvents`).
const MAX_TRACE_EVENTS: usize = 65_536;

#[derive(Default)]
struct TraceBuf {
    events: Vec<TraceEvent>,
    dropped: u64,
    dirty: bool,
}

struct TraceSink {
    path: PathBuf,
    buf: Mutex<TraceBuf>,
}

/// Renders the catapult JSON object form (`{"traceEvents": [...]}`), which
/// both chrome://tracing and Perfetto load.
fn render_catapult(events: &[TraceEvent], dropped: u64) -> Vec<u8> {
    let pid = u64::from(std::process::id());
    let arr = events
        .iter()
        .map(|e| {
            let mut fields = vec![
                ("name", Value::Str(e.name.clone())),
                ("cat", Value::Str(e.cat.to_string())),
                ("ph", Value::Str("X".into())),
                ("ts", e.ts_us.to_json()),
                ("dur", e.dur_us.to_json()),
                ("pid", pid.to_json()),
                ("tid", e.tid.to_json()),
            ];
            if !e.args.is_empty() {
                fields.push(("args", Value::Obj(e.args.clone())));
            }
            obj(fields)
        })
        .collect();
    let doc =
        obj(vec![("traceEvents", Value::Arr(arr)), ("dittoDroppedEvents", dropped.to_json())]);
    jsonio::to_vec(&doc)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

// --------------------------------------------------------------------------
// Shared state between the handle and the writer thread
// --------------------------------------------------------------------------

struct Shared {
    epoch: Instant,
    trace: Option<TraceSink>,
    hooks: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
    counters: Mutex<Vec<(String, u64)>>,
    series: Mutex<Vec<(String, LogHistogram)>>,
    /// Cumulative plan profiles per (digest, hooked), merged from registry
    /// drains.
    profiles: Mutex<Vec<plan::PlanProfile>>,
    /// Total dispatch count at the last `kernel_dispatch` emission.
    dispatch_emitted: Mutex<u64>,
    /// Completed idle ticks; [`Telemetry::flush`] waits on this.
    ticks: AtomicU64,
    /// Present only while a stream file exists. Cleared by `Inner`'s drop
    /// *before* the writer handle drops — keeping a live `Sender` here
    /// would hold the channel open and the writer thread would never see
    /// `Disconnected`, deadlocking the join.
    sender: Mutex<Option<mpsc::Sender<String>>>,
}

impl Shared {
    fn now_us(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    fn send_line(&self, line: String) {
        let tx = self.sender.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(tx) = tx.as_ref() {
            let _ = tx.send(line);
        }
    }

    fn has_sender(&self) -> bool {
        self.sender.lock().unwrap_or_else(std::sync::PoisonError::into_inner).is_some()
    }

    fn emit(&self, event: &str, mut fields: Vec<(&str, Value)>) {
        if !self.has_sender() {
            return;
        }
        let mut all = Vec::with_capacity(fields.len() + 2);
        all.push(("event", Value::Str(event.to_string())));
        all.push(("t_us", self.now_us(Instant::now()).to_json()));
        all.append(&mut fields);
        let line = jsonio::to_vec(&obj(all));
        self.send_line(String::from_utf8(line).expect("jsonio writes UTF-8"));
    }

    fn push_trace(&self, ev: TraceEvent) {
        let Some(sink) = self.trace.as_ref() else { return };
        let mut buf = sink.buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if buf.events.len() < MAX_TRACE_EVENTS {
            buf.events.push(ev);
            buf.dirty = true;
        } else {
            buf.dropped += 1;
        }
    }

    /// Drains the compute-stack probe registries into this handle. Emits
    /// `plan_profile` and `kernel_dispatch` stream events only when the
    /// drain observed new activity, so an idle server stays quiet.
    fn fold_probes(&self) {
        let t = plan::drain_exec_telemetry();
        for s in &t.spans {
            self.push_trace(TraceEvent {
                name: format!("plan_step:{:016x}", s.digest),
                cat: "plan",
                ts_us: self.now_us(s.start),
                dur_us: s.dur_ns / 1_000,
                tid: PLAN_TID_BASE + s.tid,
                // The digest also rides as a structured catapult arg so
                // trace consumers can group steps by plan without parsing
                // the span name; `hooked` tells a hooked pass from a
                // hook-free one of the same plan.
                args: vec![
                    ("digest".to_string(), Value::Str(format!("{:016x}", s.digest))),
                    ("hooked".to_string(), Value::Bool(s.hooked)),
                ],
            });
        }
        if !t.profiles.is_empty() {
            let mut profs = self.profiles.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            for p in t.profiles {
                merge_profile(&mut profs, p);
            }
            for p in profs.iter() {
                self.emit("plan_profile", profile_fields(p));
            }
        }
        if t.spans_dropped > 0 {
            self.emit("plan_spans_dropped", vec![("count", t.spans_dropped.to_json())]);
        }
        let counts = backend::dispatch_counts();
        let total: u64 = counts.iter().map(|c| c.count).sum();
        let mut last =
            self.dispatch_emitted.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if total != *last {
            *last = total;
            let rows = counts
                .iter()
                .map(|c| {
                    obj(vec![
                        ("kernel", Value::Str(c.kernel.to_string())),
                        ("backend", Value::Str(c.backend.clone())),
                        ("count", c.count.to_json()),
                    ])
                })
                .collect();
            self.emit("kernel_dispatch", vec![("rows", Value::Arr(rows))]);
        }
    }

    fn checkpoint_trace(&self) {
        let Some(sink) = self.trace.as_ref() else { return };
        let rendered = {
            let mut buf = sink.buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if !buf.dirty {
                return;
            }
            buf.dirty = false;
            render_catapult(&buf.events, buf.dropped)
        };
        if let Err(e) = write_atomic(&sink.path, &rendered) {
            eprintln!("[ditto] telemetry: trace checkpoint failed: {e}");
        }
    }

    /// One writer-thread idle tick: probes → hooks → trace checkpoint.
    fn idle_tick(&self) {
        self.fold_probes();
        let hooks = self.hooks.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for h in hooks.iter() {
            h();
        }
        drop(hooks);
        self.checkpoint_trace();
        self.ticks.fetch_add(1, Ordering::Release);
    }
}

fn merge_profile(into: &mut Vec<plan::PlanProfile>, p: plan::PlanProfile) {
    match into.iter_mut().find(|q| q.digest == p.digest && q.hooked == p.hooked) {
        None => into.push(p),
        Some(q) => {
            q.steps += p.steps;
            q.total_ns += p.total_ns;
            q.arena_f32 = q.arena_f32.max(p.arena_f32);
            for k in p.by_kind {
                match q.by_kind.iter_mut().find(|x| x.kind == k.kind) {
                    Some(x) => {
                        x.calls += k.calls;
                        x.ns += k.ns;
                        x.bytes += k.bytes;
                    }
                    None => q.by_kind.push(k),
                }
            }
        }
    }
}

fn profile_fields(p: &plan::PlanProfile) -> Vec<(&'static str, Value)> {
    let by_kind = p
        .by_kind
        .iter()
        .map(|k| {
            (
                k.kind.to_string(),
                obj(vec![
                    ("calls", k.calls.to_json()),
                    ("ns", k.ns.to_json()),
                    ("bytes", k.bytes.to_json()),
                ]),
            )
        })
        .collect();
    vec![
        ("digest", Value::Str(format!("{:016x}", p.digest))),
        ("hooked", Value::Bool(p.hooked)),
        ("steps", p.steps.to_json()),
        ("total_ns", p.total_ns.to_json()),
        ("arena_f32", p.arena_f32.to_json()),
        ("by_kind", Value::Obj(by_kind)),
    ]
}

// --------------------------------------------------------------------------
// The handle
// --------------------------------------------------------------------------

struct Inner {
    /// Owns the writer thread; kept so dropping an explicit handle drains
    /// the stream and runs one final idle tick.
    _writer: JsonlWriter,
    shared: Arc<Shared>,
    stream: bool,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Release the channel before `_writer` drops (fields drop after
        // this body), or the writer thread would never disconnect and the
        // join would hang.
        *self.shared.sender.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }
}

/// Handle to the telemetry layer. Disabled it is a `None` wrapper: every
/// method returns immediately, nothing is spawned or created.
pub struct Telemetry {
    inner: Option<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.enabled()).finish()
    }
}

impl Telemetry {
    /// A disabled handle: no writer thread, every call a no-op.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Reads `DITTO_OBS_STREAM` (JSONL event stream) and `DITTO_TRACE_FILE`
    /// (catapult trace). Both unset ⇒ disabled.
    pub fn from_env() -> Telemetry {
        let path = |k: &str| std::env::var(k).ok().filter(|v| !v.is_empty()).map(PathBuf::from);
        Telemetry::to_files(
            path("DITTO_OBS_STREAM").as_deref(),
            path("DITTO_TRACE_FILE").as_deref(),
        )
    }

    /// An explicit handle: `stream` receives the JSONL event stream,
    /// `trace` the checkpointed catapult JSON. Both `None` ⇒ disabled
    /// (no writer thread at all). Enabling flips the compute-stack probe
    /// gates on (plan profiling, kernel-dispatch counting); file-creation
    /// failures degrade to the sinks that did open.
    pub fn to_files(stream: Option<&Path>, trace: Option<&Path>) -> Telemetry {
        if stream.is_none() && trace.is_none() {
            return Telemetry::disabled();
        }
        let file = stream.and_then(|p| match File::create(p) {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("[ditto] telemetry: cannot create stream {}: {e}", p.display());
                None
            }
        });
        let has_stream = file.is_some();
        let trace_sink = trace
            .map(|p| TraceSink { path: p.to_path_buf(), buf: Mutex::new(TraceBuf::default()) });
        if !has_stream && trace_sink.is_none() {
            return Telemetry::disabled();
        }
        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            trace: trace_sink,
            hooks: Mutex::new(Vec::new()),
            counters: Mutex::new(Vec::new()),
            series: Mutex::new(Vec::new()),
            profiles: Mutex::new(Vec::new()),
            dispatch_emitted: Mutex::new(0),
            ticks: AtomicU64::new(0),
            sender: Mutex::new(None),
        });
        let hook_shared = Arc::clone(&shared);
        let writer = JsonlWriter::spawn(file, move || hook_shared.idle_tick());
        if has_stream {
            *shared.sender.lock().expect("fresh mutex") = Some(writer.sender());
        }
        plan::set_profiling(true);
        backend::set_dispatch_counting(true);
        Telemetry { inner: Some(Inner { _writer: writer, shared, stream: has_stream }) }
    }

    /// Whether anything is being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether a JSONL stream file is attached (vs trace-only).
    #[inline]
    pub fn has_stream(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.stream)
    }

    /// Registers a hook run on the writer thread's ~100ms idle cadence and
    /// once at shutdown — `serve::obs` checkpoints `summary.json` here.
    /// No-op on a disabled handle.
    pub fn on_idle(&self, hook: impl Fn() + Send + Sync + 'static) {
        if let Some(inner) = self.inner.as_ref() {
            inner
                .shared
                .hooks
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(Box::new(hook));
        }
    }

    /// Enqueues one pre-rendered JSONL line (no trailing newline) onto the
    /// shared stream — the seam `serve::obs` writes its events through.
    pub fn write_line(&self, line: String) {
        if let Some(inner) = self.inner.as_ref() {
            inner.shared.send_line(line);
        }
    }

    /// Emits a stream event (stamped with `event` and `t_us` like every
    /// obs event). Silently dropped when no stream file is attached.
    pub fn event(&self, name: &str, fields: Vec<(&str, Value)>) {
        if let Some(inner) = self.inner.as_ref() {
            inner.shared.emit(name, fields);
        }
    }

    /// Microseconds since this handle's epoch (the stream `t_us` base).
    pub fn epoch_us(&self, at: Instant) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.shared.now_us(at))
    }

    /// Records a completed span retroactively — for callers that learn the
    /// start/duration after the fact (e.g. scheduling wait measured by the
    /// worker that dequeues the job). Lands in the catapult trace and, when
    /// a stream is attached, as a `span` event.
    pub fn record_span(&self, cat: &'static str, name: &str, start: Instant, dur: Duration) {
        self.record_span_args(cat, name, start, dur, Vec::new());
    }

    /// [`Telemetry::record_span`] with structured catapult `args` attached
    /// to the trace event (and an `args` object on the stream `span` event
    /// when non-empty).
    pub fn record_span_args(
        &self,
        cat: &'static str,
        name: &str,
        start: Instant,
        dur: Duration,
        args: Vec<(String, Value)>,
    ) {
        let Some(inner) = self.inner.as_ref() else { return };
        let ts_us = inner.shared.now_us(start);
        let dur_us = u64::try_from(dur.as_micros()).unwrap_or(u64::MAX);
        let tid = current_tid();
        let stream_args =
            if inner.stream && !args.is_empty() { Some(Value::Obj(args.clone())) } else { None };
        inner.shared.push_trace(TraceEvent {
            name: name.to_string(),
            cat,
            ts_us,
            dur_us,
            tid,
            args,
        });
        if inner.stream {
            let mut fields = vec![
                ("cat", Value::Str(cat.to_string())),
                ("name", Value::Str(name.to_string())),
                ("ts_us", ts_us.to_json()),
                ("dur_us", dur_us.to_json()),
                ("tid", tid.to_json()),
            ];
            if let Some(a) = stream_args {
                fields.push(("args", a));
            }
            inner.shared.emit("span", fields);
        }
    }

    /// Opens a scoped span; the guard records it on drop. Cheap no-op
    /// guard when disabled.
    pub fn span(self: &Arc<Self>, cat: &'static str, name: impl Into<String>) -> SpanGuard {
        self.span_args(cat, name, Vec::new())
    }

    /// [`Telemetry::span`] with structured catapult `args` recorded on the
    /// span when the guard drops.
    pub fn span_args(
        self: &Arc<Self>,
        cat: &'static str,
        name: impl Into<String>,
        args: Vec<(String, Value)>,
    ) -> SpanGuard {
        if self.enabled() {
            SpanGuard { active: Some((Arc::clone(self), cat, name.into(), Instant::now(), args)) }
        } else {
            SpanGuard { active: None }
        }
    }

    /// Adds `delta` to the named counter (flushed as one snapshot event).
    pub fn counter(&self, name: &str, delta: u64) {
        let Some(inner) = self.inner.as_ref() else { return };
        let mut c = inner.shared.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match c.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += delta,
            None => c.push((name.to_string(), delta)),
        }
    }

    /// Records `value` into the named [`LogHistogram`] timing/depth series.
    pub fn series_record(&self, name: &str, value: u64) {
        let Some(inner) = self.inner.as_ref() else { return };
        let mut s = inner.shared.series.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match s.iter_mut().find(|(n, _)| n == name) {
            Some((_, h)) => h.record(value),
            None => {
                let mut h = LogHistogram::default();
                h.record(value);
                s.push((name.to_string(), h));
            }
        }
    }

    /// Current counter snapshot (insertion order), for tests and the final
    /// flush event.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.shared.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
        })
    }

    /// Emits the final counter/series/profile/dispatch snapshots, then
    /// waits until the writer thread has drained the stream and
    /// checkpointed the trace file (two idle ticks — each tick implies the
    /// channel sat empty and everything before it was flushed). Call from
    /// binaries before exiting; the global handle is never dropped.
    pub fn flush(&self) {
        let Some(inner) = self.inner.as_ref() else { return };
        inner.shared.fold_probes();
        {
            let c = inner.shared.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if !c.is_empty() {
                let fields = c.iter().map(|(n, v)| (n.clone(), v.to_json())).collect::<Vec<_>>();
                inner.shared.emit("counters", vec![("values", Value::Obj(fields))]);
            }
        }
        {
            let s = inner.shared.series.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if !s.is_empty() {
                let fields =
                    s.iter().map(|(n, h)| (n.clone(), h.summary_json())).collect::<Vec<_>>();
                inner.shared.emit("series", vec![("values", Value::Obj(fields))]);
            }
        }
        let t0 = inner.shared.ticks.load(Ordering::Acquire);
        let deadline = Instant::now() + Duration::from_secs(5);
        while inner.shared.ticks.load(Ordering::Acquire) < t0 + 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Everything a live span needs to record itself at drop: the telemetry
/// handle, category, name, start instant, and structured args.
type ActiveSpan = (Arc<Telemetry>, &'static str, String, Instant, Vec<(String, Value)>);

/// RAII guard from [`Telemetry::span`] / the module-level [`span`];
/// records the span on drop.
#[must_use = "a span measures until the guard drops"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((tel, cat, name, start, args)) = self.active.take() {
            tel.record_span_args(cat, &name, start, start.elapsed(), args);
        }
    }
}

// --------------------------------------------------------------------------
// Module-level helpers over the global handle (the instrumentation API)
// --------------------------------------------------------------------------

/// Resolves the env-configured global handle now instead of at the first
/// instrumentation point. Binaries whose hot path starts in layers below
/// this crate (the plan interpreter, kernel dispatch) call this at the top
/// of `main` so the probe gates ([`plan::set_profiling`],
/// [`backend::set_dispatch_counting`]) are already on when the first plan
/// executes; otherwise that work predates the gate flip and goes
/// unrecorded. Returns whether telemetry is enabled.
pub fn init() -> bool {
    on()
}

/// Opens a scoped span on the global handle; free when telemetry is off.
pub fn span(cat: &'static str, name: impl Into<String>) -> SpanGuard {
    if on() {
        global().span(cat, name)
    } else {
        SpanGuard { active: None }
    }
}

/// Opens a scoped span on the global handle with structured catapult
/// `args`; free when telemetry is off (the args vec is never built on the
/// disabled path if the caller gates on [`on`] first).
pub fn span_args(
    cat: &'static str,
    name: impl Into<String>,
    args: Vec<(String, Value)>,
) -> SpanGuard {
    if on() {
        global().span_args(cat, name, args)
    } else {
        SpanGuard { active: None }
    }
}

/// Records a retroactive span on the global handle.
pub fn record_span(cat: &'static str, name: &str, start: Instant, dur: Duration) {
    if on() {
        global().record_span(cat, name, start, dur);
    }
}

/// Bumps a global counter.
pub fn counter(name: &str, delta: u64) {
    if on() {
        global().counter(name, delta);
    }
}

/// Records into a global [`LogHistogram`] series.
pub fn series(name: &str, value: u64) {
    if on() {
        global().series_record(name, value);
    }
}

/// Emits a stream event on the global handle.
pub fn event(name: &str, fields: Vec<(&str, Value)>) {
    if on() {
        global().event(name, fields);
    }
}

/// Flushes the global handle (see [`Telemetry::flush`]).
pub fn flush() {
    if on() {
        global().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ditto-telemetry-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn disabled_handle_has_no_writer_thread_and_ignores_everything() {
        let tel = Arc::new(Telemetry::disabled());
        assert!(!tel.enabled());
        assert!(!tel.has_stream());
        // `to_files(None, None)` is the same non-spawning path.
        assert!(!Telemetry::to_files(None, None).enabled());
        let _g = tel.span("test", "never-recorded");
        tel.counter("x", 1);
        tel.series_record("y", 10);
        tel.record_span("test", "retro", Instant::now(), Duration::from_micros(5));
        tel.event("e", vec![]);
        tel.flush();
        assert!(tel.counters_snapshot().is_empty());
    }

    #[test]
    fn counters_and_series_accumulate() {
        let trace = temp("counters");
        let tel = Telemetry::to_files(None, Some(&trace));
        tel.counter("jobs", 2);
        tel.counter("jobs", 3);
        tel.counter("other", 1);
        tel.series_record("depth", 1);
        tel.series_record("depth", 100);
        assert_eq!(
            tel.counters_snapshot(),
            vec![("jobs".to_string(), 5), ("other".to_string(), 1)]
        );
        drop(tel);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn stream_gets_span_and_flush_snapshot_events() {
        let stream = temp("stream");
        let tel = Arc::new(Telemetry::to_files(Some(&stream), None));
        assert!(tel.has_stream());
        {
            let _g = tel.span("unit", "outer");
            std::thread::sleep(Duration::from_millis(2));
        }
        tel.counter("widgets", 7);
        tel.series_record("lat_us", 42);
        tel.flush();
        let text = std::fs::read_to_string(&stream).unwrap();
        let events: Vec<Value> =
            text.lines().map(|l| jsonio::parse(l.as_bytes()).expect("valid JSONL")).collect();
        let names: Vec<String> = events
            .iter()
            .map(|e| match e.get("event").unwrap() {
                Value::Str(s) => s.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert!(names.iter().any(|n| n == "span"), "span event present: {names:?}");
        let counters = events
            .iter()
            .find(|e| matches!(e.get("event"), Ok(Value::Str(s)) if s == "counters"))
            .expect("counters snapshot");
        assert_eq!(counters.get("values").unwrap().get("widgets").unwrap(), &Value::Int(7));
        let series = events
            .iter()
            .find(|e| matches!(e.get("event"), Ok(Value::Str(s)) if s == "series"))
            .expect("series snapshot");
        assert_eq!(
            series.get("values").unwrap().get("lat_us").unwrap().get("count").unwrap(),
            &Value::Int(1)
        );
        drop(tel);
        let _ = std::fs::remove_file(&stream);
    }

    /// Satellite: every catapult doc parses, `ph`/`ts`/`dur` are
    /// well-formed, and spans nest properly per thread.
    #[test]
    fn catapult_export_is_valid_and_nests_per_thread() {
        let trace = temp("catapult");
        let tel = Arc::new(Telemetry::to_files(None, Some(&trace)));
        {
            let _outer = tel.span("unit", "outer");
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = tel.span("unit", "inner");
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let tel2 = Arc::clone(&tel);
        std::thread::spawn(move || {
            let _g = tel2.span("unit", "elsewhere");
            std::thread::sleep(Duration::from_millis(1));
        })
        .join()
        .unwrap();
        tel.flush();

        let doc = jsonio::parse(&std::fs::read(&trace).unwrap()).expect("catapult parses");
        let Value::Arr(events) = doc.get("traceEvents").unwrap() else {
            panic!("traceEvents must be an array")
        };
        assert!(events.len() >= 3);
        type TidSpans = Vec<(i128, i128, String)>;
        let mut by_tid: Vec<(i128, TidSpans)> = Vec::new();
        for e in events {
            let Value::Str(ph) = e.get("ph").unwrap() else { panic!("ph must be a string") };
            assert_eq!(ph, "X");
            let int = |k: &str| match e.get(k).unwrap() {
                Value::Int(i) => *i,
                other => panic!("{k} must be an integer, got {other:?}"),
            };
            let (ts, dur, tid) = (int("ts"), int("dur"), int("tid"));
            assert!(ts >= 0 && dur >= 0);
            let Value::Str(name) = e.get("name").unwrap() else { panic!("name") };
            match by_tid.iter_mut().find(|(t, _)| *t == tid) {
                Some((_, v)) => v.push((ts, dur, name.clone())),
                None => by_tid.push((tid, vec![(ts, dur, name.clone())])),
            }
        }
        // Per thread: sorted by start, each span either nests in the open
        // span or starts after it ends (±1µs truncation slack).
        for (tid, mut spans) in by_tid {
            spans.sort_by_key(|&(ts, dur, _)| (ts, std::cmp::Reverse(dur)));
            let mut stack: Vec<(i128, i128)> = Vec::new();
            for (ts, dur, name) in spans {
                while let Some(&(_, end)) = stack.last() {
                    if ts + 1 >= end {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&(_, end)) = stack.last() {
                    assert!(
                        ts + dur <= end + 1,
                        "span {name} on tid {tid} partially overlaps its parent"
                    );
                }
                stack.push((ts, ts + dur));
            }
        }
        // The nested pair landed on one thread with inner inside outer.
        drop(tel);
        let _ = std::fs::remove_file(&trace);
    }

    /// Span args ride both exporters: the catapult event carries an `args`
    /// object (omitted entirely when empty), and the stream `span` event
    /// mirrors it.
    #[test]
    fn span_args_land_in_catapult_and_stream() {
        let stream = temp("args-stream");
        let trace = temp("args-trace");
        let tel = Arc::new(Telemetry::to_files(Some(&stream), Some(&trace)));
        {
            let _g = tel.span_args(
                "unit",
                "with-args",
                vec![
                    ("design".to_string(), Value::Str("edge".into())),
                    ("model_index".to_string(), 3u64.to_json()),
                ],
            );
        }
        {
            let _g = tel.span("unit", "no-args");
        }
        tel.flush();

        let doc = jsonio::parse(&std::fs::read(&trace).unwrap()).expect("catapult parses");
        let Value::Arr(events) = doc.get("traceEvents").unwrap() else { panic!("traceEvents") };
        let find = |name: &str| {
            events
                .iter()
                .find(|e| matches!(e.get("name"), Ok(Value::Str(s)) if s == name))
                .unwrap_or_else(|| panic!("span {name} in trace"))
        };
        let with = find("with-args");
        let args = with.get("args").expect("args object on with-args");
        assert_eq!(args.get("design").unwrap(), &Value::Str("edge".into()));
        assert_eq!(args.get("model_index").unwrap(), &Value::Int(3));
        assert!(find("no-args").get("args").is_err(), "empty args must be omitted");

        let text = std::fs::read_to_string(&stream).unwrap();
        let span_ev = text
            .lines()
            .map(|l| jsonio::parse(l.as_bytes()).expect("valid JSONL"))
            .find(|e| {
                matches!(e.get("event"), Ok(Value::Str(s)) if s == "span")
                    && matches!(e.get("name"), Ok(Value::Str(s)) if s == "with-args")
            })
            .expect("stream span event for with-args");
        assert_eq!(span_ev.get("args").unwrap().get("design").unwrap(), &Value::Str("edge".into()));
        drop(tel);
        let _ = std::fs::remove_file(&stream);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn trace_checkpoint_survives_without_flush() {
        // SIGKILL-safety proxy: the idle cadence alone must produce a
        // loadable trace file.
        let trace = temp("idle-ckpt");
        let tel = Arc::new(Telemetry::to_files(None, Some(&trace)));
        tel.record_span("unit", "early", Instant::now(), Duration::from_micros(3));
        std::thread::sleep(Duration::from_millis(350));
        let doc = jsonio::parse(&std::fs::read(&trace).unwrap()).expect("checkpointed JSON");
        let Value::Arr(events) = doc.get("traceEvents").unwrap() else { panic!() };
        assert!(!events.is_empty());
        drop(tel);
        let _ = std::fs::remove_file(&trace);
    }
}
