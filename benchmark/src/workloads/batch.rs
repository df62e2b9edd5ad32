//! The four batch workloads: `trace_cold`, `trace_delta`, `denoise_plain`
//! and `figures_warm`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use accel::design::Design;
use accel::grid::{self, SweepReport, SweepSpec};
use bench::experiments::{
    fig13_render, fig14_render, fig15_render, fig16_render, fig17_render, fig18_render,
    fig19_render,
};
use bench::suite::{CACHE_DIR_ENV, MODELS, SAMPLE_SEED, WEIGHT_SEED};
use bench::sweep::{parse_request, response_ok};
use bench::{HitAccounting, Suite};
use diffusion::plan::PlanCacheStats;
use diffusion::{DiffusionModel, LinearHook, ModelKind, ModelScale, Node, NullHook, StepInfo};
use ditto_core::binio;
use ditto_core::runner::{build_quantizer, trace_model, DittoHook, ExecPolicy};
use ditto_core::trace::{StatView, WorkloadTrace};
use quant::BitWidthHistogram;
use tensor::Tensor;

use super::{
    fresh_dir, provision_warm_cache, scratch_dir, Args, Check, Outcome, GOLDEN_SEED, SCALE,
};
use crate::harness::{
    end_to_end, fnv1a, fnv1a_f32, measure_setup, median, time_ms, timed_rounds, Round, RoundOps,
    Values,
};
use crate::spans::{Folded, SpanId, Spans};

/// The models `trace_delta` walks: the two UNet sampler families (DDIM,
/// PLMS) and both transformers.
const DELTA_MODELS: [ModelKind; 4] =
    [ModelKind::Ddpm, ModelKind::Sdm, ModelKind::Dit, ModelKind::Latte];

/// `trace_delta` and `denoise_plain` run a quarter of the sampler steps of
/// the Small scale (which runs the paper's counts: 20–250). The models keep
/// their Small-scale shapes, so every model call costs what it costs in the
/// paper experiments; only the number of calls is cut. A full-length pass
/// is one 4 s or 11 s sample per run, and single samples of that length
/// spread by 17 % between quartiles on the reference host; a quarter-length
/// pass repeats 8 to 20 times in a run, and the run reports the best
/// pass. README.md ("Why two workloads run a quarter of the steps") has the
/// per-layer shares at both lengths.
const STEP_DIVISOR: usize = 4;

/// Small-shape models that run 1 / [`STEP_DIVISOR`] of their sampler steps.
fn build_models(kinds: &[ModelKind]) -> Vec<DiffusionModel> {
    kinds.iter().map(|&k| build_model(k)).collect()
}

fn build_model(kind: ModelKind) -> DiffusionModel {
    let mut model = DiffusionModel::build(kind, SCALE, WEIGHT_SEED);
    model.steps /= STEP_DIVISOR;
    model
}

fn trace_digest(trace: &WorkloadTrace) -> u64 {
    fnv1a(&binio::to_vec(trace))
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn batch_outcome(check: Check, setup_s: f64, rounds: &[Round], aux: Values) -> Outcome {
    Outcome {
        attempted: rounds.iter().map(|r| r.ops.op_ms.len() as u64).sum(),
        failed: 0,
        check,
        e2e: end_to_end(setup_s, rounds),
        aux,
    }
}

/// One traced pass: the span its set-up ran under and the span of the work
/// the untraced run times.
#[derive(Clone, Copy)]
struct TracedPass {
    setup: SpanId,
    work: SpanId,
}

/// Runs `before` under a parentless `setup` span, then `pass` under a
/// parentless span named `name`.
fn traced_pass<T>(
    spans: &mut Spans,
    name: &str,
    before: impl FnOnce(&mut Spans) -> T,
    pass: impl FnOnce(&mut Spans, T),
) -> TracedPass {
    let setup = spans.open("setup");
    let prepared = before(spans);
    spans.close(setup);
    let work = spans.open(name);
    pass(spans, prepared);
    spans.close(work);
    TracedPass { setup, work }
}

// --------------------------------------------------------------------------
// trace_cold
// --------------------------------------------------------------------------

/// `Suite::load_scaled(Small)` into an empty cache directory: builds,
/// calibrates, hook-traces (dense integer path), encodes and stores all
/// seven models on the shared pool. One round (and one operation) is one
/// whole cold load, about 13 s: a run holds exactly one, whatever
/// `--seconds` says (a second one would fit on a fast day only, and the
/// best of two loads is not the same statistic as one load).
pub fn trace_cold(args: &Args) -> Outcome {
    let cold = scratch_dir().join(format!("cold-{}", std::process::id()));
    std::env::set_var(CACHE_DIR_ENV, &cold);
    // Set-up is a Tiny-scale cold load: it resolves the kernel backend and
    // SIMD level and pages the whole pipeline's code in.
    let (setup_s, _) = measure_setup(|| {
        fresh_dir(&cold);
        Suite::load_scaled(ModelScale::Tiny)
    });
    let mut check = Check::new(args.record_golden);
    let rounds = timed_rounds(0.0, |i| {
        fresh_dir(&cold);
        // A fresh process compiles every plan: do not let earlier loads
        // make this one cheaper than the one a user pays.
        diffusion::plan::reset_plan_cache();
        let (ms, suite) = time_ms(|| Suite::load_scaled(SCALE));
        check.require(suite.cache_hits() == 0, || {
            format!("trace_cold: load {i} had {} cache hits in an empty cache", suite.cache_hits())
        });
        // The suite's sample seed is fixed, so its traces are the same at
        // every `--seed`.
        for (kind, trace) in MODELS.iter().zip(&suite.traces) {
            check.golden(&format!("trace_cold.trace.{}", kind.abbr()), trace_digest(trace));
        }
        RoundOps { op_ms: vec![ms], closed_per_s: None }
    });
    // The loaded cache is what the warm workloads want: keep it for them
    // if this build has none yet.
    let warm = super::warm_cache_dir();
    if !check.mismatches.is_empty() || warm.exists() || std::fs::rename(&cold, &warm).is_err() {
        let _ = std::fs::remove_dir_all(&cold);
    }
    batch_outcome(check, setup_s, &rounds, vec![("bench.suite_cache_hits", 0.0)])
}

/// A delegating hook that times every callback the executor makes into
/// `inner`, so hook time can be told from the executor's own walk.
struct TimingHook<H: LinearHook> {
    inner: H,
    epoch: Instant,
    compute: Folded,
    observe: Folded,
}

impl<H: LinearHook> TimingHook<H> {
    fn new(inner: H, epoch: Instant) -> Self {
        TimingHook { inner, epoch, compute: Folded::default(), observe: Folded::default() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl<H: LinearHook> LinearHook for TimingHook<H> {
    fn compute_linear(
        &mut self,
        node: &Node,
        step: StepInfo,
        inputs: &[&Tensor],
    ) -> Option<Tensor> {
        let start = self.now_ns();
        let out = self.inner.compute_linear(node, step, inputs);
        self.compute.add(start, self.now_ns());
        out
    }

    fn observe(&mut self, node: &Node, step: StepInfo, inputs: &[&Tensor], output: &Tensor) {
        let start = self.now_ns();
        self.inner.observe(node, step, inputs, output);
        self.observe.add(start, self.now_ns());
    }

    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }
}

/// What the decomposed trace pipeline saw besides time.
struct TraceFacts {
    temporal: BitWidthHistogram,
    trace_bytes: usize,
}

/// The trace pipeline `Suite::load` and `trace_model` run, driven step by
/// step and sequentially with a span around each public call: calibrate →
/// hooked reverse run → (optionally) encode, store, decode.
fn traced_pipeline(
    spans: &mut Spans,
    models: &[DiffusionModel],
    seed: u64,
    policy: ExecPolicy,
    store_in: Option<&Path>,
) -> TraceFacts {
    let mut facts = TraceFacts { temporal: BitWidthHistogram::new(), trace_bytes: 0 };
    for model in models {
        let quantizer =
            spans.time("core.calibrate", || build_quantizer(model, seed).expect("calibration"));
        let hook = spans.time("core.hook_new", || DittoHook::new(model, quantizer, policy));
        let mut timing = TimingHook::new(hook, spans.epoch());
        let run = spans.open("diffusion.run_reverse");
        black_box(model.run_reverse(seed, &mut timing).expect("zoo models run"));
        spans.fold("core.hook.compute_linear", timing.compute);
        spans.fold("core.hook.observe", timing.observe);
        spans.close(run);
        let trace = spans.time("core.into_trace", || timing.inner.into_trace());
        facts.temporal.merge(&trace.merged(StatView::Temporal));
        if let Some(dir) = store_in {
            let bytes = spans.time("core.binio_encode", || binio::to_vec(&trace));
            facts.trace_bytes += bytes.len();
            spans.time("fs.write", || {
                std::fs::write(dir.join(format!("trace-{}.bin", model.kind.abbr())), &bytes)
                    .expect("write trace")
            });
            spans.time("core.binio_decode", || {
                black_box(binio::from_slice::<WorkloadTrace>(&bytes).expect("decode own bytes"))
            });
        }
    }
    facts
}

/// Builds `kinds` one by one, each under a `diffusion.build` span.
fn build_traced(
    spans: &mut Spans,
    kinds: &[ModelKind],
    build: impl Fn(ModelKind) -> DiffusionModel,
) -> Vec<DiffusionModel> {
    kinds.iter().map(|&k| spans.time("diffusion.build", || build(k))).collect()
}

/// Starts the pull counters of one traced pass: kernel dispatch counts
/// from zero, plan-cache counters from the returned baseline.
fn start_counters() -> PlanCacheStats {
    tensor::backend::set_dispatch_counting(true);
    tensor::backend::reset_dispatch_counts();
    diffusion::plan::plan_cache_stats()
}

/// [`start_counters`] for a pass that starts like a fresh process, with no
/// plan compiled yet.
fn start_counters_cold() -> PlanCacheStats {
    diffusion::plan::reset_plan_cache();
    start_counters()
}

/// Kernel dispatch counts and plan-cache counters since `baseline`.
fn counter_values(baseline: PlanCacheStats) -> Values {
    let rows = tensor::backend::dispatch_counts();
    let calls =
        |k: &str| rows.iter().filter(|r| r.kernel == k).map(|r| r.count).sum::<u64>() as f64;
    let plans = diffusion::plan::plan_cache_stats();
    vec![
        ("quant.int_matmul_calls", calls("int_matmul")),
        ("quant.int_conv2d_direct_calls", calls("int_conv2d_direct")),
        ("quant.int_scores_calls", calls("int_scores")),
        ("quant.delta_matmul_update_calls", calls("delta_matmul_update")),
        ("quant.attention_delta_scores_calls", calls("attention_delta_scores")),
        ("tensor.matmul_f32_calls", calls("matmul_f32")),
        ("tensor.matvec_f32_calls", calls("matvec_f32")),
        ("tensor.conv2d_f32_calls", calls("conv2d_f32")),
        ("tensor.conv2d_direct_f32_calls", calls("conv2d_direct_f32")),
        ("diffusion.plan_compiled", (plans.compiled - baseline.compiled) as f64),
        ("diffusion.plan_reused", (plans.reused - baseline.reused) as f64),
    ]
}

/// The per-layer values of one traced pass of the trace pipeline; `builds`
/// is the span the models were built under.
fn trace_layer_values(
    spans: &Spans,
    pass: TracedPass,
    builds: SpanId,
    facts: &TraceFacts,
    counters: Values,
) -> Values {
    let view = spans.under(pass.work);
    let temporal = facts.temporal.total().max(1) as f64;
    let mut values = counters;
    values.extend([
        ("diffusion.build_ms", spans.under(builds).total_ms("diffusion.build")),
        ("diffusion.walk_ms", view.self_ms("diffusion.run_reverse")),
        ("core.calibrate_ms", view.total_ms("core.calibrate")),
        (
            "core.hook_ms",
            view.total_ms("core.hook.compute_linear") + view.total_ms("core.hook.observe"),
        ),
        ("core.hook_calls", view.calls("core.hook.compute_linear") as f64),
        ("core.binio_encode_ms", view.total_ms("core.binio_encode")),
        ("core.binio_decode_ms", view.total_ms("core.binio_decode")),
        ("core.trace_bytes", facts.trace_bytes as f64),
        ("quant.temporal_zero_share", facts.temporal.zero as f64 / temporal),
        ("quant.temporal_low4_share", facts.temporal.low4 as f64 / temporal),
    ]);
    values
}

/// The cold pipeline, model builds included, as `Suite::load` runs it — but
/// one model after the other.
pub fn trace_cold_traced(_args: &Args, spans: &mut Spans) -> (Values, f64) {
    let dir = scratch_dir().join(format!("cold-traced-{}", std::process::id()));
    let mut facts = None;
    let mut counters = Vec::new();
    let pass = traced_pass(
        spans,
        "trace_cold",
        |_| fresh_dir(&dir),
        |spans, ()| {
            let baseline = start_counters_cold();
            let build = |kind| DiffusionModel::build(kind, SCALE, WEIGHT_SEED);
            let models = build_traced(spans, &MODELS, build);
            let policy = ExecPolicy::Dense;
            facts = Some(traced_pipeline(spans, &models, SAMPLE_SEED, policy, Some(&dir)));
            counters = counter_values(baseline);
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    let facts = facts.expect("the pass ran");
    (trace_layer_values(spans, pass, pass.work, &facts, counters), spans.seconds(pass.work))
}

// --------------------------------------------------------------------------
// trace_delta
// --------------------------------------------------------------------------

/// `trace_model(.., TemporalDelta)` for four Small-shape models, one after
/// the other on one thread: the paper's three-stage difference path. One
/// round is the four traces; one operation is one model's trace.
pub fn trace_delta(args: &Args) -> Outcome {
    let (setup_s, models) = measure_setup(|| build_models(&DELTA_MODELS));
    let digests = |model: &DiffusionModel, policy: ExecPolicy| -> (f64, (u64, u64)) {
        let (ms, (trace, out)) =
            time_ms(|| trace_model(model, args.seed, policy).expect("zoo models trace"));
        // Digests, not traces, are kept: `peak_rss_mib` is the product's.
        (ms, (trace_digest(&trace), fnv1a_f32(out.as_slice())))
    };
    let mut check = Check::new(args.record_golden);
    // The first round's digests; every later round must reproduce them.
    let mut first: Vec<(u64, u64)> = Vec::new();
    let rounds = timed_rounds(args.seconds, |round| {
        let (op_ms, got): (Vec<f64>, Vec<(u64, u64)>) =
            models.iter().map(|m| digests(m, ExecPolicy::TemporalDelta)).unzip();
        if round == 0 {
            first = got;
        } else {
            check.require(got == first, || format!("trace_delta: round {round} differs from 0"));
        }
        RoundOps { op_ms, closed_per_s: None }
    });
    for ((kind, model), (trace, out)) in DELTA_MODELS.iter().zip(&models).zip(&first) {
        if args.seed == GOLDEN_SEED {
            check.golden(&format!("trace_delta.trace.{}", kind.abbr()), *trace);
            check.golden(&format!("trace_delta.output.{}", kind.abbr()), *out);
        } else {
            // No golden at this seed: difference processing must be
            // bit-identical to dense integer execution (§IV-A).
            check.require(digests(model, ExecPolicy::Dense).1 == (*trace, *out), || {
                format!("trace_delta: {} differs from dense execution", kind.abbr())
            });
        }
    }
    batch_outcome(check, setup_s, &rounds, Vec::new())
}

pub fn trace_delta_traced(args: &Args, spans: &mut Spans) -> (Values, f64) {
    let mut facts = None;
    let mut counters = Vec::new();
    let pass = traced_pass(
        spans,
        "trace_delta",
        |spans| {
            let baseline = start_counters_cold();
            (baseline, build_traced(spans, &DELTA_MODELS, build_model))
        },
        |spans, (baseline, models)| {
            let policy = ExecPolicy::TemporalDelta;
            facts = Some(traced_pipeline(spans, &models, args.seed, policy, None));
            counters = counter_values(baseline);
        },
    );
    let facts = facts.expect("the pass ran");
    (trace_layer_values(spans, pass, pass.setup, &facts, counters), spans.seconds(pass.work))
}

// --------------------------------------------------------------------------
// denoise_plain
// --------------------------------------------------------------------------

/// `run_reverse(seed, NullHook)` for all seven Small-shape models on one
/// thread: the compiled-plan f32 path with no hook and no quantization. One
/// round is the seven runs (about 1 s); one operation is one model's
/// reverse run.
pub fn denoise_plain(args: &Args) -> Outcome {
    let (setup_s, models) = measure_setup(|| build_models(&MODELS));
    let mut check = Check::new(args.record_golden);
    let mut first: Vec<u64> = Vec::new();
    let rounds = timed_rounds(args.seconds, |round| {
        let (op_ms, outputs): (Vec<f64>, Vec<u64>) = models
            .iter()
            .map(|model| {
                let (ms, out) = time_ms(|| {
                    model.run_reverse(args.seed, &mut NullHook).expect("zoo models run")
                });
                (ms, fnv1a_f32(out.as_slice()))
            })
            .unzip();
        if round == 0 {
            first = outputs;
        } else {
            check.require(outputs == first, || {
                format!("denoise_plain: round {round} differs from 0")
            });
        }
        RoundOps { op_ms, closed_per_s: None }
    });
    if args.seed == GOLDEN_SEED {
        for (kind, digest) in MODELS.iter().zip(&first) {
            check.golden(&format!("denoise_plain.output.{}", kind.abbr()), *digest);
        }
    }
    batch_outcome(check, setup_s, &rounds, Vec::new())
}

pub fn denoise_plain_traced(args: &Args, spans: &mut Spans) -> (Values, f64) {
    diffusion::plan::set_profiling(true);
    let mut counters = Vec::new();
    let mut telemetry = None;
    let pass = traced_pass(
        spans,
        "denoise_plain",
        |spans| {
            let baseline = start_counters_cold();
            drop(diffusion::plan::drain_exec_telemetry());
            (baseline, build_traced(spans, &MODELS, build_model))
        },
        |spans, (baseline, models)| {
            for model in &models {
                spans.time("diffusion.run_reverse", || {
                    black_box(model.run_reverse(args.seed, &mut NullHook).expect("zoo models run"))
                });
            }
            counters = counter_values(baseline);
            telemetry = Some(diffusion::plan::drain_exec_telemetry());
        },
    );
    diffusion::plan::set_profiling(false);

    let telemetry = telemetry.expect("the pass ran");
    let steps: u64 = telemetry.profiles.iter().map(|p| p.steps).sum();
    let total_ns: u64 = telemetry.profiles.iter().map(|p| p.total_ns).sum();
    let arena_max = telemetry.profiles.iter().map(|p| p.arena_f32).max().unwrap_or(0);
    let (mut conv, mut matmul, mut other) = (0u64, 0u64, 0u64);
    for kind in telemetry.profiles.iter().flat_map(|p| &p.by_kind) {
        match kind.kind {
            "conv2d_direct" | "conv2d_im2col" => conv += kind.ns,
            "linear" | "matmul_qk" | "matmul_pv" => matmul += kind.ns,
            _ => other += kind.ns,
        }
    }
    let kinds_ns = (conv + matmul + other).max(1) as f64;
    let mut values = counters;
    values.extend([
        ("diffusion.build_ms", spans.under(pass.setup).total_ms("diffusion.build")),
        ("diffusion.plan_ms_per_call", total_ns as f64 / 1e6 / steps.max(1) as f64),
        ("diffusion.plan_conv_share", conv as f64 / kinds_ns),
        ("diffusion.plan_matmul_share", matmul as f64 / kinds_ns),
        ("diffusion.plan_other_share", other as f64 / kinds_ns),
        ("diffusion.plan_arena_f32_max", arena_max as f64),
    ]);
    (values, spans.seconds(pass.work))
}

// --------------------------------------------------------------------------
// figures_warm
// --------------------------------------------------------------------------

/// The design axis of the figure sweep and, per figure, which of its
/// columns the figure's renderer wants, in the order it wants them.
struct FigurePlan {
    catalog: Vec<Design>,
    columns: [Vec<usize>; 7],
}

impl FigurePlan {
    fn new() -> Self {
        let catalog = Design::catalog();
        let index = |designs: Vec<Design>| -> Vec<usize> {
            designs
                .iter()
                .map(|d| {
                    catalog.iter().position(|c| c.name == d.name).expect("catalog has every design")
                })
                .collect()
        };
        let d = Design::ditto;
        let dp = Design::ditto_plus;
        let columns = [
            index(Design::fig13_set()),
            index(vec![Design::itc(), Design::cambricon_d(), d(), dp()]),
            index(Design::fig15_set()),
            index([vec![Design::itc()], Design::fig16_set()].concat()),
            index(vec![d(), dp()]),
            index(vec![
                Design::itc(),
                d(),
                Design::ideal_ditto(),
                dp(),
                Design::ideal_ditto_plus(),
            ]),
            index(vec![Design::itc(), d(), Design::dynamic_ditto(), Design::ideal_ditto()]),
        ];
        FigurePlan { catalog, columns }
    }
}

/// The sub-report over `columns` of `report`'s designs (all models).
fn project(report: &SweepReport, columns: &[usize]) -> SweepReport {
    let cells = (0..report.models.len())
        .flat_map(|m| {
            columns.iter().enumerate().map(move |(design, &c)| {
                let mut cell = report.cell(c, m).clone();
                cell.design = design;
                cell
            })
        })
        .collect();
    SweepReport {
        designs: columns.iter().map(|&c| report.designs[c].clone()).collect(),
        models: report.models.clone(),
        cells,
        gpu: report.gpu.clone(),
    }
}

/// Renders Fig. 13–19 from the catalog sweep; returns the bytes rendered.
fn render_figures(plan: &FigurePlan, report: &SweepReport) -> usize {
    let renderers: [fn(&SweepReport) -> String; 7] = [
        fig13_render,
        fig14_render,
        fig15_render,
        fig16_render,
        fig17_render,
        fig18_render,
        fig19_render,
    ];
    renderers
        .iter()
        .zip(&plan.columns)
        .map(|(render, columns)| black_box(render(&project(report, columns))).len())
        .sum()
}

/// What a warm figure run does: load the suite (seven cache hits), sweep
/// the design catalog over it, render every figure and the JSON response.
struct FigureIteration {
    cache_hits: usize,
    rendered_bytes: usize,
    report_digest: Option<u64>,
}

fn full_hits(report: &SweepReport, suite: &Suite) -> HitAccounting {
    HitAccounting::all_simulated(report.cells.len()).with_suite(suite, true)
}

fn figure_iteration(plan: &FigurePlan) -> (f64, FigureIteration) {
    let (ms, (cache_hits, rendered_bytes, response)) = time_ms(|| {
        let suite = Suite::load_scaled(SCALE);
        let spec = SweepSpec::new(plan.catalog.clone(), suite.traces.iter().collect());
        let report = grid::run(&spec).expect("catalog sweep over suite traces");
        let rendered = render_figures(plan, &report);
        let hits = full_hits(&report, &suite);
        (
            suite.cache_hits(),
            rendered,
            response_ok("figures", &report, &hits, tensor::backend::active()),
        )
    });
    // Hashing the 60 KB report is the benchmark's work, not the driver's.
    let report_digest = report_part(&response).map(|r| fnv1a(r.as_bytes()));
    (ms, FigureIteration { cache_hits, rendered_bytes, report_digest })
}

/// The serialized report inside a `response_ok` line (its last field).
pub fn report_part(response: &str) -> Option<&str> {
    let at = response.find("\"report\":")? + "\"report\":".len();
    response[at..].strip_suffix('}')
}

/// Iterations per `figures_warm` round (about 1.5 s).
const FIGURE_ITERATIONS: usize = 25;

/// Warm figure runs, back to back. One operation is one iteration; one
/// round is [`FIGURE_ITERATIONS`] of them.
pub fn figures_warm(args: &Args) -> Outcome {
    provision_warm_cache();
    let plan = FigurePlan::new();
    // One untimed iteration per repetition: page the cache files in, fill
    // the plan cache.
    let (setup_s, (_, first)) = measure_setup(|| figure_iteration(&plan));
    let mut check = Check::new(args.record_golden);
    check.golden("figures_warm.sweep_report", first.report_digest.unwrap_or(0));
    let rounds = timed_rounds(args.seconds, |round| {
        let op_ms = (0..FIGURE_ITERATIONS)
            .map(|i| {
                let (ms, it) = figure_iteration(&plan);
                let same = it.report_digest == first.report_digest
                    && it.cache_hits == MODELS.len()
                    && it.rendered_bytes == first.rendered_bytes;
                check.require(same, || {
                    format!(
                        "figures_warm: round {round} iteration {i} differs from the first \
                         ({} cache hits, {} bytes rendered)",
                        it.cache_hits, it.rendered_bytes
                    )
                });
                ms
            })
            .collect();
        RoundOps { op_ms, closed_per_s: None }
    });
    let aux = vec![("bench.suite_cache_hits", first.cache_hits as f64)];
    batch_outcome(check, setup_s, &rounds, aux)
}

/// The simulated statistics of the catalog sweep (exact: a change that only
/// speeds the simulator up must leave them identical).
fn simulated_statistics(plan: &FigurePlan, report: &SweepReport) -> Values {
    let col = |name: &str| plan.catalog.iter().position(|d| d.name == name).expect("in catalog");
    let (itc, camd, ditto) =
        (col(&Design::itc().name), col(&Design::cambricon_d().name), col(&Design::ditto().name));
    let over_models = |design: usize, f: &dyn Fn(&accel::sim::RunResult) -> f64| -> f64 {
        (0..report.models.len()).map(|m| f(&report.cell(design, m).run)).sum()
    };
    vec![
        ("accel.sim_cycles_ditto_total", over_models(ditto, &|r| r.cycles)),
        ("accel.sim_geomean_speedup_ditto_vs_itc", report.geomean_speedup(ditto, itc)),
        ("accel.sim_geomean_speedup_ditto_vs_camd", report.geomean_speedup(ditto, camd)),
        (
            "accel.sim_energy_ditto_rel_camd",
            over_models(ditto, &|r| r.energy.total()) / over_models(camd, &|r| r.energy.total()),
        ),
        ("accel.sim_dram_bytes_ditto_total", over_models(ditto, &|r| r.dram_bytes)),
    ]
}

/// Repetitions of each stand-alone layer probe; a probe reports their
/// median.
const PROBE_REPS: usize = 15;

fn probe_ms(spans: &mut Spans, name: &str, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let start = Instant::now();
            spans.time(name, &mut f);
            ms_since(start)
        })
        .collect();
    median(&times)
}

/// Per-layer numbers of the sweep-and-render layers, each from timing the
/// layer's public functions directly. Shared with `serve_cold_full`, whose
/// requests are sweeps of the same catalog.
pub fn sweep_layer_probes(spans: &mut Spans, suite: &Suite) -> Values {
    let plan = FigurePlan::new();
    let probes = spans.open("probes.sweep");
    let traces: Vec<&WorkloadTrace> = suite.traces.iter().collect();
    let spec = SweepSpec::new(plan.catalog.clone(), traces.clone());
    let report = grid::run(&spec).expect("catalog sweep");
    let workers = accel::pool::default_workers();

    let grid_one = probe_ms(spans, "accel.grid_run_1", || {
        black_box(grid::run_with_workers(&spec, 1).expect("catalog sweep"));
    });
    let grid_all = probe_ms(spans, "accel.grid_run", || {
        black_box(grid::run_with_workers(&spec, workers).expect("catalog sweep"));
    });
    let gpu_ref_ms = probe_ms(spans, "accel.simulate_gpu", || {
        for trace in &traces {
            black_box(accel::gpu::simulate_gpu(trace));
        }
    });
    let cells = spans.open("accel.simulate_cell");
    let mut cell_us = Vec::with_capacity(spec.cell_count());
    for (m, trace) in traces.iter().enumerate() {
        for design in &plan.catalog {
            let start = Instant::now();
            black_box(grid::simulate_cell(design, trace, report.gpu(m)));
            cell_us.push(ms_since(start) * 1e3);
        }
    }
    spans.close(cells);
    let render_ms = probe_ms(spans, "bench.render", || {
        black_box(render_figures(&plan, &report));
    });
    let hits = full_hits(&report, suite);
    let jsonio_render_ms = probe_ms(spans, "core.jsonio_render", || {
        black_box(response_ok("probe", &report, &hits, tensor::backend::active()));
    });
    spans.close(probes);

    let mut values = simulated_statistics(&plan, &report);
    values.extend([
        ("accel.grid_ms_per_sweep", grid_all),
        ("accel.cells_per_s", spec.cell_count() as f64 / (grid_all / 1e3)),
        ("accel.cell_us_p50", median(&cell_us)),
        ("accel.gpu_ref_ms", gpu_ref_ms),
        ("accel.grid_scaling", grid_one / grid_all),
        ("bench.render_ms", render_ms),
        ("core.jsonio_render_ms", jsonio_render_ms),
    ]);
    values
}

/// Median microseconds of `parse_request` on `line`.
pub fn parse_probe_us(spans: &mut Spans, line: &str) -> f64 {
    let probe = spans.open("core.jsonio_parse");
    let times: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            black_box(parse_request(black_box(line)).expect("well-formed request"));
            ms_since(start) * 1e3
        })
        .collect();
    spans.close(probe);
    median(&times)
}

pub fn figures_warm_traced(_args: &Args, spans: &mut Spans) -> (Values, f64) {
    let suite = spans.time("setup", provision_warm_cache);
    let plan = FigurePlan::new();

    // The round the untraced run times, call by call. A warm iteration
    // finds every plan in the cache: the counters start without a reset,
    // and count the first iteration only.
    let mut counters = Vec::new();
    let pass = traced_pass(
        spans,
        "figures_warm",
        |_| start_counters(),
        |spans, baseline| {
            for i in 0..FIGURE_ITERATIONS {
                let loaded = spans.time("bench.suite_load", || Suite::load_scaled(SCALE));
                let spec = SweepSpec::new(plan.catalog.clone(), loaded.traces.iter().collect());
                let report =
                    spans.time("accel.grid_run", || grid::run(&spec).expect("catalog sweep"));
                spans.time("bench.render", || render_figures(&plan, &report));
                spans.time("core.jsonio_render", || {
                    let hits = full_hits(&report, &loaded);
                    black_box(response_ok("figures", &report, &hits, tensor::backend::active()))
                });
                if i == 0 {
                    counters = counter_values(baseline);
                }
            }
        },
    );

    // What a warm load is made of: model builds (for fingerprints) and
    // trace decoding, probed on the same data.
    let codec = spans.open("probes.codec");
    let build_ms = probe_ms(spans, "diffusion.build", || {
        for &kind in &MODELS {
            black_box(DiffusionModel::build(kind, SCALE, WEIGHT_SEED));
        }
    });
    let encoded: Vec<Vec<u8>> = suite.traces.iter().map(binio::to_vec).collect();
    let encode_ms = probe_ms(spans, "core.binio_encode", || {
        for trace in &suite.traces {
            black_box(binio::to_vec(trace));
        }
    });
    let decode_ms = probe_ms(spans, "core.binio_decode", || {
        for bytes in &encoded {
            black_box(binio::from_slice::<WorkloadTrace>(bytes).expect("decode own bytes"));
        }
    });
    spans.close(codec);
    let line = super::serve::COLD_FULL.request_line(0, 0);
    let parse_us = parse_probe_us(spans, &line);

    let mut values = counters;
    values.extend(sweep_layer_probes(spans, suite));
    values.extend([
        ("diffusion.build_ms", build_ms),
        ("core.binio_encode_ms", encode_ms),
        ("core.binio_decode_ms", decode_ms),
        ("core.trace_bytes", encoded.iter().map(Vec::len).sum::<usize>() as f64),
        ("core.jsonio_parse_us", parse_us),
        (
            "bench.suite_warm_load_ms",
            spans.under(pass.work).total_ms("bench.suite_load") / FIGURE_ITERATIONS as f64,
        ),
    ]);
    (values, spans.seconds(pass.work))
}
