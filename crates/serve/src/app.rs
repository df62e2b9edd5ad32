//! The suite-backed protocol handler: the glue between the wire protocol
//! (`bench::sweep`), the process-wide warm trace suite (`bench::Suite`),
//! and the memoizing cell scheduler ([`crate::sched`]).

use std::sync::Arc;
use std::time::Instant;

use bench::report::sweep_summary;
use bench::sweep::{parse_request, request_id, response_err, response_ok, scale_name};
use bench::{HitAccounting, Suite};

use crate::diag;
use crate::obs::Obs;
use crate::sched::{CellStats, ModelInput, Scheduler, SweepJob};
use crate::server::App;

/// [`App`] implementation serving real sweep requests: parses the JSON
/// protocol, resolves model names against the shared warm [`Suite`] for
/// the requested scale, runs the cells through the scheduler, and renders
/// the response with per-request-observed cache accounting.
pub struct SuiteApp {
    sched: Arc<Scheduler>,
}

impl SuiteApp {
    /// An app over its own scheduler with `workers` simulation threads.
    pub fn new(workers: usize) -> Self {
        SuiteApp { sched: Arc::new(Scheduler::new(workers)) }
    }

    /// An app whose scheduler records into an explicit [`Obs`] handle
    /// (tests; production uses the env-configured global via [`new`](Self::new)).
    pub fn with_obs(workers: usize, obs: Arc<Obs>) -> Self {
        SuiteApp { sched: Arc::new(Scheduler::with_obs(workers, None, obs)) }
    }

    /// The underlying scheduler (e.g. for dedup counters in logs/tests).
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Records a terminal request event and returns the rendered error
    /// response (every early-exit path funnels through here so the
    /// request accounting stays total).
    fn fail(&self, id: &str, started: Instant, error: &str) -> String {
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.sched.obs().request_completed(id, false, us, 0, 0, 0, 0, 0);
        response_err(id, error)
    }
}

impl App for SuiteApp {
    fn handle(&self, line: &str) -> String {
        let started = Instant::now();
        let obs = Arc::clone(self.sched.obs());
        let req = match parse_request(line) {
            Ok(req) => {
                obs.request_parsed(&req.id, true);
                req
            }
            Err(e) => {
                let id = request_id(line);
                obs.request_parsed(&id, false);
                return self.fail(&id, started, &e);
            }
        };
        // One span per request on its handler thread: parse → suite →
        // schedule → render, the socket-side anchor the per-cell sched/sim
        // spans nest under in the trace timeline.
        let _req_span = ditto_core::telemetry::on()
            .then(|| ditto_core::telemetry::span("serve", format!("request:{}", req.id)));
        // Loading may warm the suite; the credit for reporting the
        // warm-up is claimed only once a response can actually carry it
        // (below), so a failing warmer does not swallow the stats.
        let suite = Suite::shared(req.sweep.scale);
        // Suite warm-up may have built diffusion models, each compiling its
        // trace plan once; surface those one-time compiles on the stream.
        for ev in diffusion::plan::drain_compile_events() {
            obs.plan_compiled(&ev.label, ev.nodes, ev.ops, ev.arena_f32, ev.micros);
        }
        let job = SweepJob {
            designs: req.sweep.designs.clone(),
            models: req
                .sweep
                .models
                .iter()
                .map(|&kind| ModelInput {
                    trace: suite.trace(kind),
                    fingerprint: suite.fingerprint(kind),
                })
                .collect(),
            scale: scale_name(req.sweep.scale).to_string(),
            priority: req.priority,
        };
        match self.sched.run(&job) {
            Ok((report, stats)) => {
                let CellStats { total, memo_hits, coalesced, simulated, evictions } = stats;
                let hits = HitAccounting {
                    cells_total: total,
                    cells_memo: memo_hits,
                    cells_coalesced: coalesced,
                    cells_simulated: simulated,
                    cells_evicted: evictions,
                    ..HitAccounting::default()
                }
                .with_suite(suite, Suite::take_warm_credit(req.sweep.scale));
                diag!(
                    obs,
                    "[ditto-serve] {} (prio {}): {}; cells {}/{} from memo, {} coalesced, \
                     {} simulated ({} unique process-wide)",
                    req.id,
                    req.priority,
                    sweep_summary(&report),
                    memo_hits,
                    total,
                    coalesced,
                    simulated,
                    self.sched.unique_cells_simulated()
                );
                let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                obs.request_completed(
                    &req.id, true, us, total, memo_hits, coalesced, simulated, evictions,
                );
                response_ok(&req.id, &report, &hits, tensor::backend::active())
            }
            Err(e) => self.fail(&req.id, started, &e.to_string()),
        }
    }
}
