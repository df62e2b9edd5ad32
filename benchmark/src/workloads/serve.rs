//! The two serve workloads. Both drive an in-process
//! `serve::server::spawn(SuiteApp)` over loopback TCP in rounds of an
//! open-loop phase A (latency from the due time, at a fixed rate) followed
//! by a closed-loop phase B (throughput), with the whole process (server,
//! simulation worker and load generator) pinned to one CPU: on the two
//! vCPUs of the reference host the clients and the server's threads fall
//! into one of two rhythms that differ by a third or more, and a run reads
//! whichever it happened into (README.md, "The serve workloads run on one
//! CPU"). They are mirror images:
//!
//! * `serve_hot_small` — memo unbounded, a fresh connection per request,
//!   4-cell requests: only the fixed per-request cost is left.
//! * `serve_cold_full` — memo capped at one cell (`main` sets
//!   `DITTO_MEMO_MAX_CELLS=1` before anything runs), two keep-alive pipelined
//!   connections that between them ask for the whole 18×7 catalog, 63 cells
//!   and ~30 KB a request: every cell re-simulates and every response is
//!   large, while connection set-up costs nothing. Each connection owns one
//!   half of the designs, because two identical cold requests in flight
//!   coalesce cell by cell depending on how they happen to align, and the
//!   workload then has two speeds (README.md has the measurement).
//!
//! Rates are constants (about a third of the closed-loop capacity of the
//! 2-core reference host) and are never tuned at run time: parent and
//! change must see the same load.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use accel::design::Design;
use accel::grid::{self, SweepSpec};
use bench::suite::MODELS;
use bench::Suite;
use diffusion::ModelKind;
use ditto_core::jsonio::{self, Value};
use serve::server::{spawn, App, ServerConfig, ServerHandle};
use serve::SuiteApp;

use super::batch::{parse_probe_us, report_part, sweep_layer_probes};
use super::{provision_warm_cache, Args, Check, Outcome, SCALE};
use crate::harness::{
    end_to_end, measure_setup, median, percentile, pin_to_one_cpu, supported_percentile,
    timed_rounds, RoundOps, SplitMix64, Values,
};
use crate::loadgen::{
    closed_shapes, open_schedule, roundtrip_fresh, run_open_loop, run_pipelined, Client, Sample,
    Shot,
};
use crate::spans::{Folded, Spans};

/// One serve workload's fixed parameters.
#[derive(Debug)]
pub struct ServeWorkload {
    pub name: &'static str,
    /// Keep-alive pipelined connections, or a fresh connection per request.
    keep_alive: bool,
    /// Each client asks for its own share of the design catalog over all
    /// seven models; otherwise 16 fixed 4-cell shapes drawn Zipf(1.1).
    catalog_share_per_client: bool,
    /// Draw the arrival schedule from a constant, not from `--seed`.
    fixed_schedule: bool,
    /// Phase A of a round: open-loop arrivals per second, for this long.
    /// Every round sends `rate_per_s · open_s` requests.
    rate_per_s: f64,
    open_s: f64,
    /// Phase A latency limit; a request over it (or failed) misses.
    limit_ms: f64,
    /// Phase B of a round: requests per closed-loop client.
    closed_per_client: usize,
}

/// Rounds of about 1 s (750 open-loop requests, then 2 × 1000 closed-loop
/// ones), 15 to 20 to a run.
pub const HOT_SMALL: ServeWorkload = ServeWorkload {
    name: "serve_hot_small",
    keep_alive: false,
    fixed_schedule: false,
    catalog_share_per_client: false,
    rate_per_s: 1500.0,
    open_s: 0.5,
    limit_ms: 2.0,
    closed_per_client: 1000,
};

/// Rounds of about 3 s (50 open-loop requests, then 2 × 30 closed-loop
/// ones), five or six to a run. Every round's arrival schedule is a fixed
/// Poisson draw that does not depend on `--seed`: a regression gate wants
/// the same load on parent and change, and over 50 arrivals how the draw
/// happens to clump decides how many requests wait behind another.
pub const COLD_FULL: ServeWorkload = ServeWorkload {
    name: "serve_cold_full",
    keep_alive: true,
    fixed_schedule: true,
    catalog_share_per_client: true,
    rate_per_s: 20.0,
    open_s: 2.5,
    limit_ms: 100.0,
    closed_per_client: 30,
};

const ZIPF_S: f64 = 1.1;
const SMALL_SHAPES: usize = 16;

/// Generator threads of phase A and closed-loop clients of phase B.
const CLIENTS: usize = 2;

/// One request shape: its axes and its wire fields.
struct Shape {
    designs: Vec<Design>,
    models: Vec<ModelKind>,
    fields: String,
}

impl Shape {
    fn new(designs: Vec<Design>, models: Vec<ModelKind>) -> Self {
        let names = |items: Vec<&str>| {
            items.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(",")
        };
        let fields = format!(
            "\"designs\":[{}],\"models\":[{}],\"scale\":\"small\"",
            names(designs.iter().map(|d| d.name.as_str()).collect()),
            names(models.iter().map(|m| m.abbr()).collect()),
        );
        Shape { designs, models, fields }
    }
}

impl ServeWorkload {
    /// The workload's request shapes. They do not depend on `--seed`, which
    /// only decides when, and in which order, they are asked for. The small
    /// shapes are 2 designs × 2 models each, drawn once from the catalog.
    fn shapes(&self) -> Vec<Shape> {
        let catalog = Design::catalog();
        if self.catalog_share_per_client {
            return catalog
                .chunks(catalog.len().div_ceil(CLIENTS))
                .map(|designs| Shape::new(designs.to_vec(), MODELS.to_vec()))
                .collect();
        }
        let mut rng = SplitMix64::new(0x5A4E_5348);
        let mut pick_two = |n: usize| {
            let a = (rng.next_u64() % n as u64) as usize;
            let b = (a + 1 + (rng.next_u64() % (n as u64 - 1)) as usize) % n;
            (a, b)
        };
        (0..SMALL_SHAPES)
            .map(|_| {
                let (d0, d1) = pick_two(catalog.len());
                let (m0, m1) = pick_two(MODELS.len());
                Shape::new(
                    vec![catalog[d0].clone(), catalog[d1].clone()],
                    vec![MODELS[m0], MODELS[m1]],
                )
            })
            .collect()
    }

    /// The shape client `client` sends when the schedule drew `drawn`.
    fn shape_for(&self, client: usize, drawn: usize) -> usize {
        if self.catalog_share_per_client {
            client
        } else {
            drawn
        }
    }

    /// The request line of shape `shape` with id `id`.
    pub fn request_line(&self, shape: usize, id: usize) -> String {
        request_line(id, &self.shapes()[shape].fields)
    }
}

fn request_line(id: usize, fields: &str) -> String {
    format!("{{\"id\":\"{id}\",{fields}}}")
}

/// What a response line says, read without parsing its (large) report.
#[derive(Debug, Clone, Copy, Default)]
struct Seen {
    ok: bool,
    /// `cells {total, memo_hits, coalesced, simulated, evictions}`.
    cells: [u64; 5],
}

fn field_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(key)? + key.len();
    let digits: String = text[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Checks a response against the report `accel::grid::run` gives for the
/// same axes (byte for byte) and reads its `cells` counters.
fn read_response(response: &str, expected_report: &str) -> Seen {
    let head = &response[..response.len().min(400)];
    let ok = head.contains("\"ok\":true") && report_part(response) == Some(expected_report);
    let cells_at = head.find("\"cells\":{").unwrap_or(0);
    let cell = |key: &str| field_u64(&head[cells_at..], key).unwrap_or(0);
    Seen {
        ok,
        cells: [
            cell("\"total\":"),
            cell("\"memo_hits\":"),
            cell("\"coalesced\":"),
            cell("\"simulated\":"),
            cell("\"evictions\":"),
        ],
    }
}

/// The id a response echoes (`{"id":"<n>",...`).
fn response_id(response: &str) -> Option<usize> {
    field_u64(response.get(..40)?, "{\"id\":\"").map(|id| id as usize)
}

/// A running server with everything the load phases need.
struct Served {
    server: ServerHandle,
    app: Arc<SuiteApp>,
    lines: Vec<String>,
    /// Per shape: the JSON of the report `grid::run` gives for its axes.
    expected: Vec<String>,
}

impl Served {
    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// Spawns the server the way `ditto-serve` does and sends one request per
/// shape, so the memo (where it is allowed to keep anything) is hot.
fn serve_up(w: &ServeWorkload, suite: &Suite) -> Served {
    // What a server start pays before its first answer: a warm suite load.
    black_box(Suite::load_scaled(SCALE));
    let shapes = w.shapes();
    let expected: Vec<String> = shapes
        .iter()
        .map(|s| {
            let traces = s.models.iter().map(|&m| suite.trace(m)).collect();
            let report =
                grid::run(&SweepSpec::new(s.designs.clone(), traces)).expect("shape sweep");
            String::from_utf8(jsonio::to_vec(&report)).expect("UTF-8")
        })
        .collect();
    let app = Arc::new(SuiteApp::new(accel::pool::default_workers()));
    let server = spawn(app.clone(), ServerConfig::default()).expect("spawn loopback server");
    let mut buf = String::new();
    for (i, want) in expected.iter().enumerate() {
        roundtrip_fresh(server.addr(), &request_line(i, &shapes[i].fields), &mut buf)
            .expect("warm request");
        assert!(read_response(&buf, want).ok, "{}: warm request {i} got a wrong report", w.name);
    }
    let lines = shapes.iter().map(|s| s.fields.clone()).collect();
    Served { server, app, lines, expected }
}

/// Phase results: the samples of every request, per client thread in the
/// order it sent them, and the summed `cells{}` of the responses.
#[derive(Default)]
struct PhaseLog {
    clients: Vec<Vec<Sample>>,
    cells: [u64; 5],
    wall_s: f64,
}

impl PhaseLog {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.clients.iter().flatten()
    }

    fn collect(start: Instant, results: Vec<(Vec<Sample>, [u64; 5])>) -> Self {
        let mut log = PhaseLog { wall_s: start.elapsed().as_secs_f64(), ..PhaseLog::default() };
        for (samples, cells) in results {
            log.clients.push(samples);
            add_cells(&mut log.cells, &cells);
        }
        log
    }
}

fn add_cells(sum: &mut [u64; 5], cells: &[u64; 5]) {
    for (s, c) in sum.iter_mut().zip(cells) {
        *s += c;
    }
}

/// Phase A: open loop. The schedule is dealt round-robin to the generator
/// threads; each runs its share sequentially (fresh connection per request)
/// or pipelined over one keep-alive connection.
fn open_phase(w: &ServeWorkload, served: &Served, shots: &[Shot], epoch: Instant) -> PhaseLog {
    let n = CLIENTS;
    let shares: Vec<Vec<Shot>> = (0..n)
        .map(|t| {
            let own = shots.iter().skip(t).step_by(n);
            own.map(|s| Shot { shape: w.shape_for(t, s.shape), ..*s }).collect()
        })
        .collect();
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| {
                scope.spawn(move || {
                    let line_of = |i: usize| request_line(i, &served.lines[share[i].shape]);
                    // The pipelined reader is a thread of its own.
                    let cells = std::sync::Mutex::new([0u64; 5]);
                    let samples = if w.keep_alive {
                        let client = Client::connect(served.addr()).expect("connect");
                        run_pipelined(epoch, client, share, line_of, |resp| {
                            let i = response_id(resp).filter(|&i| i < share.len())?;
                            let seen = read_response(resp, &served.expected[share[i].shape]);
                            add_cells(&mut cells.lock().expect("cells"), &seen.cells);
                            Some((i, seen.ok))
                        })
                    } else {
                        let mut buf = String::new();
                        let mut i = 0;
                        run_open_loop(epoch, share, |shot| {
                            let sent = roundtrip_fresh(served.addr(), &line_of(i), &mut buf);
                            i += 1;
                            let Ok(()) = sent else { return false };
                            let seen = read_response(&buf, &served.expected[shot.shape]);
                            add_cells(&mut cells.lock().expect("cells"), &seen.cells);
                            seen.ok
                        })
                    };
                    (samples, cells.into_inner().expect("cells"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread")).collect()
    });
    PhaseLog::collect(start, results)
}

/// Phase B: closed loop. Each client sends its next request only when the
/// previous response is in.
fn closed_phase(w: &ServeWorkload, served: &Served, seed: u64, epoch: Instant) -> PhaseLog {
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let drawn = closed_shapes(
                        seed + c as u64,
                        w.closed_per_client,
                        served.lines.len(),
                        ZIPF_S,
                    );
                    let mut keep =
                        w.keep_alive.then(|| Client::connect(served.addr()).expect("connect"));
                    let mut buf = String::new();
                    let mut samples = Vec::with_capacity(drawn.len());
                    let mut cells = [0u64; 5];
                    for (i, &drawn) in drawn.iter().enumerate() {
                        let shape = w.shape_for(c, drawn);
                        let line = request_line(i, &served.lines[shape]);
                        let sent_ns = epoch.elapsed().as_nanos() as u64;
                        let sent = match keep.as_mut() {
                            Some(client) => client.roundtrip(&line, &mut buf),
                            None => roundtrip_fresh(served.addr(), &line, &mut buf),
                        };
                        let done_ns = epoch.elapsed().as_nanos() as u64;
                        let seen = match sent {
                            Ok(()) => read_response(&buf, &served.expected[shape]),
                            Err(_) => Seen::default(),
                        };
                        add_cells(&mut cells, &seen.cells);
                        samples.push(Sample { due_ns: sent_ns, sent_ns, done_ns, ok: seen.ok });
                    }
                    (samples, cells)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    PhaseLog::collect(start, results)
}

/// One round: phase A, then phase B, optionally under spans. The schedule
/// and the request order come from `seed` and the round's number.
fn load_round(
    w: &ServeWorkload,
    served: &Served,
    seed: u64,
    round: usize,
    mut spans: Option<&mut Spans>,
) -> (PhaseLog, PhaseLog) {
    let seed = if w.fixed_schedule { 0x5C4E_D01E } else { seed };
    let seed = seed.wrapping_add((round as u64) << 32);
    let shots = open_schedule(seed, w.rate_per_s, w.open_s, served.lines.len(), ZIPF_S);
    let mut phase = |name: &str, run: &dyn Fn(Instant) -> PhaseLog| match spans.as_deref_mut() {
        None => run(Instant::now()),
        Some(spans) => {
            let id = spans.open(name);
            // Phase times count from the phase's start, span times from the
            // recorder's epoch: shift by the offset between the two.
            let offset = spans.now_ns();
            let log = run(Instant::now());
            for (t, samples) in log.clients.iter().enumerate() {
                let mut folded = Folded::default();
                for s in samples {
                    folded.add(s.sent_ns + offset, s.done_ns.max(s.sent_ns) + offset);
                }
                spans.attach("serve.request", t as u32 + 1, folded);
            }
            spans.close(id);
            log
        }
    };
    let a = phase("loadgen.open_loop", &|epoch| open_phase(w, served, &shots, epoch));
    let b = phase("loadgen.closed_loop", &|epoch| closed_phase(w, served, seed, epoch));
    (a, b)
}

/// Phase B's completions per second of its wall time.
fn closed_per_s(b: &PhaseLog) -> f64 {
    b.samples().filter(|s| s.ok).count() as f64 / b.wall_s
}

/// The untraced pass: set-up, then rounds of phases A and B.
pub fn untraced(args: &Args, w: &ServeWorkload) -> Outcome {
    let suite = provision_warm_cache();
    pin_to_one_cpu();
    let (setup_s, served) = measure_setup(|| serve_up(w, suite));

    // Kept over all rounds: every phase-A latency and generator delay, how
    // many phase-A requests missed the limit, and counts.
    let (mut latency_ms, mut late_us, mut missed) = (Vec::new(), Vec::new(), 0usize);
    let (mut sent, mut failed, mut cells) = (0usize, 0usize, [0u64; 5]);
    let rounds = timed_rounds(args.seconds, |round| {
        let (a, b) = load_round(w, &served, args.seed, round, None);
        let op_ms: Vec<f64> = a.samples().map(Sample::latency_ms).collect();
        missed += a.samples().filter(|s| !s.ok || s.latency_ms() > w.limit_ms).count();
        latency_ms.extend(&op_ms);
        late_us.extend(a.samples().map(Sample::late_us));
        sent += a.samples().count() + b.samples().count();
        failed += a.samples().chain(b.samples()).filter(|s| !s.ok).count();
        add_cells(&mut cells, &a.cells);
        add_cells(&mut cells, &b.cells);
        RoundOps { op_ms, closed_per_s: Some(closed_per_s(&b)) }
    });
    served.server.shutdown().expect("reactor exits cleanly");

    // A response whose report is not byte for byte what `grid::run` gives,
    // an error response and a refused or dropped connection all fail the
    // run: no operation of these workloads may fail.
    let mut check = Check::new(false);
    check.require(failed == 0, || format!("{}: {failed} of {sent} requests failed", w.name));
    // The highest percentile up to `want` with ten samples beyond it.
    let tail =
        |samples: &[f64], want: f64| percentile(samples, supported_percentile(samples.len(), want));
    let aux = vec![
        ("loadgen.sent", sent as f64),
        ("loadgen.ok", (sent - failed) as f64),
        ("loadgen.err", failed as f64),
        ("loadgen.late_p99_us", tail(&late_us, 99.0)),
        ("loadgen.req_p95_ms", tail(&latency_ms, 95.0)),
        ("loadgen.req_p99_ms", tail(&latency_ms, 99.0)),
        ("loadgen.req_max_ms", percentile(&latency_ms, 100.0)),
        ("slo_miss_share", missed as f64 / latency_ms.len().max(1) as f64),
        ("serve.memo_hit_share", cells[1] as f64 / cells[0].max(1) as f64),
        ("serve.cells_coalesced", cells[2] as f64),
        ("serve.cells_simulated", cells[3] as f64),
        ("serve.memo_evictions", cells[4] as f64),
    ];
    Outcome {
        attempted: sent as u64,
        failed: failed as u64,
        check,
        e2e: end_to_end(setup_s, &rounds),
        aux,
    }
}

fn obs_p(doc: &Value, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        match v.get(key) {
            Ok(next) => v = next,
            Err(_) => return 0.0,
        }
    }
    match v {
        Value::Int(i) => *i as f64,
        Value::Num(n) => *n,
        _ => 0.0,
    }
}

/// Probe repetitions: direct handles and keep-alive round trips.
fn probe_reps(w: &ServeWorkload) -> usize {
    if w.catalog_share_per_client {
        60
    } else {
        400
    }
}

/// The traced pass: the same phases under spans with the server's own
/// observability on (`DITTO_OBS_SUMMARY`, set in `main`), then stand-alone
/// probes of each step of a request: connect, parse, handle, round trip.
pub fn traced(args: &Args, w: &ServeWorkload, spans: &mut Spans) -> (Values, f64) {
    let setup = spans.open("setup");
    let suite = provision_warm_cache();
    pin_to_one_cpu();
    let served = serve_up(w, suite);
    spans.close(setup);

    // One round of the untraced pass, timed the same way.
    let start = Instant::now();
    let root = spans.open(w.name);
    load_round(w, &served, args.seed, 0, Some(spans));
    spans.close(root);
    let wall_s = start.elapsed().as_secs_f64();

    // The server-side view of those phases, before the probes add to it.
    let obs = serve::obs::global().summary_json().unwrap_or(Value::Null);
    let mut values = vec![
        ("serve.sched_wait_us_p50", obs_p(&obs, &["cells", "sched_wait_us", "p50"])),
        ("serve.sim_us_p50", obs_p(&obs, &["cells", "sim_us", "p50"])),
        ("serve.queue_depth_p90", obs_p(&obs, &["queue_depth", "p90"])),
        ("serve.backpressure_rejects", obs_p(&obs, &["backpressure", "total"])),
    ];

    let probes = spans.open("probes.request");
    let line = w.request_line(0, 0);
    let want = &served.expected[0];
    let us = |start: Instant| start.elapsed().as_secs_f64() * 1e6;
    let connect_us: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            let conn = spans.time("serve.connect", || std::net::TcpStream::connect(served.addr()));
            let t = us(start);
            drop(conn);
            t
        })
        .collect();
    values.push(("core.jsonio_parse_us", parse_probe_us(spans, &line)));
    // Direct handles and keep-alive round trips take turns, so that neither
    // is measured on warmer caches than the other.
    let mut client = Client::connect(served.addr()).expect("connect");
    let mut buf = String::new();
    let (mut bytes, mut handle_us, mut roundtrip_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..probe_reps(w) {
        let start = Instant::now();
        let response = spans.time("serve.handle", || served.app.handle(&line));
        handle_us.push(us(start));
        assert!(read_response(&response, want).ok, "{}: direct handle gave a wrong report", w.name);
        bytes.push(response.len() as f64);
        let start = Instant::now();
        spans.time("serve.roundtrip", || client.roundtrip(&line, &mut buf)).expect("round trip");
        roundtrip_us.push(us(start));
    }
    drop(client);
    spans.close(probes);

    let handle = median(&handle_us);
    let handle_name = if w.catalog_share_per_client {
        "serve.handle_full_us_p50"
    } else {
        "serve.handle_small_us_p50"
    };
    values.extend([
        ("serve.connect_us_p50", median(&connect_us)),
        (handle_name, handle),
        ("serve.socket_overhead_us_p50", median(&roundtrip_us) - handle),
        ("serve.resp_bytes_p50", median(&bytes)),
    ]);
    if w.catalog_share_per_client {
        // This workload's requests are catalog sweeps: size their layers.
        values.extend(sweep_layer_probes(spans, suite));
    }
    spans.time("teardown", || served.server.shutdown().expect("reactor exits cleanly"));
    (values, wall_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_response_is_ok_only_with_the_expected_report() {
        let cells = "\"cells\":{\"total\":4,\"memo_hits\":3,\"coalesced\":0,\"simulated\":1,\"evictions\":0}";
        let good = format!("{{\"id\":\"7\",\"ok\":true,{cells},\"report\":{{\"cells\":[1,2]}}}}");
        let seen = read_response(&good, "{\"cells\":[1,2]}");
        assert!(seen.ok);
        assert_eq!(seen.cells, [4, 3, 0, 1, 0]);
        assert_eq!(response_id(&good), Some(7));
        // Another report, or an error response, is a failed request.
        assert!(!read_response(&good, "{\"cells\":[1,3]}").ok);
        assert!(!read_response("{\"id\":\"7\",\"ok\":false,\"error\":\"busy\"}", "{}").ok);
        assert!(!read_response("", "{}").ok);
    }
}
