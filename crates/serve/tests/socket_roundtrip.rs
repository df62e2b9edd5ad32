//! End-to-end socket tests: the full wire protocol over real loopback TCP
//! connections, against a synthetic-trace app (so the heavy Table I suite
//! never loads in unit CI — the workflow's socket smoke covers that).
//!
//! The acceptance property under test: overlapping concurrent socket
//! requests produce responses **bit-identical** to sequential
//! `accel::grid::run`, while the scheduler's unique-cell counter proves
//! each duplicated (design, model, scale) cell was simulated exactly once.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

use accel::grid::{self, SweepReport, SweepSpec};
use accel::sim::synth;
use bench::sweep::{parse_request, request_id, response_err, response_ok};
use bench::{HitAccounting, MODELS};
use ditto_core::jsonio::{self, LineFramer, Value};
use ditto_core::trace::WorkloadTrace;
use serve::reactor::Backend;
use serve::sched::{ModelInput, Scheduler, SweepJob};
use serve::server::{spawn, App, ServerConfig, ServerHandle};

/// One distinct leaked synthetic trace per Table I model name, so tests
/// can speak the real protocol (model names resolve positionally) without
/// tracing real models.
fn trace_for(index: usize) -> &'static WorkloadTrace {
    static TRACES: OnceLock<Vec<&'static WorkloadTrace>> = OnceLock::new();
    TRACES.get_or_init(|| {
        (0..MODELS.len())
            .map(|i| {
                let t = synth::trace(2 + i % 3, 3 + i % 2, 20_000 + 10_000 * i as u64, 16, true);
                &*Box::leak(Box::new(t))
            })
            .collect()
    })[index]
}

fn input_for(index: usize) -> ModelInput {
    ModelInput { trace: trace_for(index), fingerprint: 0xF00D + index as u64 }
}

/// A protocol-complete app over synthetic traces: parses real requests,
/// resolves each requested Table I model name to its synthetic stand-in,
/// and runs the shared scheduler.
struct SynthApp {
    sched: Arc<Scheduler>,
}

impl App for SynthApp {
    fn handle(&self, line: &str) -> String {
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(e) => return response_err(&request_id(line), &e),
        };
        let models = req
            .sweep
            .models
            .iter()
            .map(|k| input_for(MODELS.iter().position(|m| m == k).unwrap()))
            .collect();
        let job = SweepJob {
            designs: req.sweep.designs.clone(),
            models,
            scale: "synth".into(),
            priority: req.priority,
        };
        match self.sched.run(&job) {
            Ok((report, stats)) => {
                let hits = HitAccounting {
                    cells_total: stats.total,
                    cells_memo: stats.memo_hits,
                    cells_coalesced: stats.coalesced,
                    cells_simulated: stats.simulated,
                    ..HitAccounting::default()
                };
                response_ok(&req.id, &report, &hits, tensor::backend::active())
            }
            Err(e) => response_err(&req.id, &e.to_string()),
        }
    }
}

fn start(backend: Backend) -> (ServerHandle, Arc<Scheduler>) {
    let sched = Arc::new(Scheduler::with_memo_cap(3, None));
    let app = Arc::new(SynthApp { sched: Arc::clone(&sched) });
    let config = ServerConfig { backend, ..ServerConfig::default() };
    let handle = spawn(app, config).expect("spawn server");
    (handle, sched)
}

fn backends() -> Vec<Backend> {
    if cfg!(target_os = "linux") {
        vec![Backend::Epoll, Backend::Poll]
    } else {
        vec![Backend::Poll]
    }
}

/// Sends `lines` on one connection (pipelined), half-closes the write
/// side, and reads response lines until the server hangs up.
fn roundtrip(addr: std::net::SocketAddr, lines: &[&str]) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    for line in lines {
        conn.write_all(line.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
    }
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    read_all_lines(&mut conn)
}

fn read_all_lines(conn: &mut TcpStream) -> Vec<String> {
    let mut framer = LineFramer::new();
    let mut buf = [0u8; 8192];
    let mut lines = Vec::new();
    loop {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                framer.push(&buf[..n]);
                while let Some(line) = framer.next_line() {
                    lines.push(line);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("read responses: {e}"),
        }
    }
    lines
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key).unwrap_or_else(|e| panic!("response missing `{key}`: {e}"))
}

/// The sequential reference for a (designs, model indices) request, and
/// its canonical JSON serialization.
fn reference(designs: Vec<accel::design::Design>, model_idx: &[usize]) -> (SweepReport, Vec<u8>) {
    let traces: Vec<&WorkloadTrace> = model_idx.iter().map(|&i| trace_for(i)).collect();
    let report = grid::run(&SweepSpec::new(designs, traces)).unwrap();
    let bytes = jsonio::to_vec(&report);
    (report, bytes)
}

#[test]
fn overlapping_concurrent_requests_are_bit_identical_to_grid_run() {
    for backend in backends() {
        let (handle, sched) = start(backend);
        let addr = handle.addr();

        // Three distinct request shapes fanned out over 9 concurrent
        // client connections (every shape requested 3×), with mixed
        // priorities. Shapes overlap pairwise in designs and models.
        let shapes: [(&str, &str, &[usize]); 3] = [
            (
                r#"{"id":"ID","designs":["ITC","Ditto"],"models":["DDPM","SDM"],"scale":"tiny","priority":2}"#,
                "itc-ditto",
                &[0, 4],
            ),
            (
                r#"{"id":"ID","designs":["Ditto","Cam-D"],"models":["SDM","DiT"],"scale":"tiny"}"#,
                "ditto-camd",
                &[4, 5],
            ),
            (
                r#"{"id":"ID","designs":["ITC","Cam-D"],"models":["DDPM","DiT"],"scale":"tiny","priority":-1}"#,
                "itc-camd",
                &[0, 5],
            ),
        ];
        let responses: Vec<(usize, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..9)
                .map(|i| {
                    let shape = i % 3;
                    let line = shapes[shape].0.replace("ID", &format!("req-{i}"));
                    scope.spawn(move || {
                        let lines = roundtrip(addr, &[&line]);
                        assert_eq!(lines.len(), 1, "one response per request");
                        (shape, lines.into_iter().next().unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let designs_of = |shape: usize| -> Vec<accel::design::Design> {
            use accel::design::Design;
            match shape {
                0 => vec![Design::itc(), Design::ditto()],
                1 => vec![Design::ditto(), Design::cambricon_d()],
                _ => vec![Design::itc(), Design::cambricon_d()],
            }
        };
        let mut simulated_sum = 0usize;
        let mut total_sum = 0usize;
        for (shape, line) in &responses {
            let v = jsonio::parse(line.as_bytes()).expect("valid response JSON");
            assert_eq!(field(&v, "ok"), &Value::Bool(true), "{line}");
            // Proto 5 dropped the legacy process-wide `cache_hits`; the
            // per-request `suite` object carries the warm-up instead.
            assert!(v.get("cache_hits").is_err(), "{line}");
            assert!(matches!(field(&v, "suite"), Value::Obj(_)), "{line}");
            let (want, want_bytes) = reference(designs_of(*shape), shapes[*shape].2);
            // Bit-identity, twice over: the serialized report bytes match
            // the canonical serialization of the sequential reference, and
            // the decoded floats match bit-for-bit.
            assert_eq!(jsonio::to_vec(field(&v, "report")), want_bytes, "shape {shape}");
            let got: SweepReport =
                jsonio::from_slice(&jsonio::to_vec(field(&v, "report"))).unwrap();
            for (a, b) in got.cells.iter().zip(&want.cells) {
                assert_eq!(a.run.cycles.to_bits(), b.run.cycles.to_bits());
                assert_eq!(a.speedup_vs_gpu.to_bits(), b.speedup_vs_gpu.to_bits());
            }
            let cells = field(&v, "cells");
            let as_int = |key: &str| match field(cells, key) {
                Value::Int(i) => *i as usize,
                other => panic!("cells.{key} not an int: {other:?}"),
            };
            assert_eq!(as_int("total"), 4);
            assert_eq!(as_int("memo_hits") + as_int("coalesced") + as_int("simulated"), 4);
            simulated_sum += as_int("simulated");
            total_sum += as_int("total");
        }
        // Dedup proof on the wire: 36 cells were requested, but only the
        // distinct ones were simulated — and the per-response counters
        // agree with the scheduler's global counter.
        assert_eq!(total_sum, 36);
        // Union of the shapes' cells: 3 designs × 3 models, all 9 pairs.
        let distinct = 9;
        assert_eq!(simulated_sum, distinct, "backend {backend:?}");
        assert_eq!(sched.unique_cells_simulated(), distinct);
        assert!(simulated_sum < total_sum);

        handle.shutdown().unwrap();
    }
}

#[test]
fn pipelined_requests_on_one_connection_stream_matched_responses() {
    let (handle, _sched) = start(Backend::detect());
    let lines = [
        r#"{"id":"a","designs":["ITC"],"models":["DDPM"],"scale":"tiny"}"#,
        r#"{"id":"b","designs":["Ditto"],"models":["DDPM"],"scale":"tiny","priority":5}"#,
        "",
        r#"{"id":"c","designs":["ITC","Ditto"],"models":["DDPM"],"scale":"tiny"}"#,
    ];
    let responses = roundtrip(handle.addr(), &lines);
    // Blank line skipped: exactly 3 responses, matched by id (order free).
    assert_eq!(responses.len(), 3);
    let mut ids: Vec<String> = responses
        .iter()
        .map(|line| {
            let v = jsonio::parse(line.as_bytes()).unwrap();
            assert_eq!(field(&v, "ok"), &Value::Bool(true));
            match field(&v, "id") {
                Value::Str(s) => s.clone(),
                other => panic!("bad id {other:?}"),
            }
        })
        .collect();
    ids.sort();
    assert_eq!(ids, vec!["a", "b", "c"]);
    handle.shutdown().unwrap();
}

#[test]
fn byte_at_a_time_requests_are_reassembled() {
    let (handle, _sched) = start(Backend::detect());
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    let line = r#"{"id":"slow","designs":["ITC"],"models":["DDPM"],"scale":"tiny"}"#;
    for chunk in line.as_bytes().chunks(7) {
        conn.write_all(chunk).unwrap();
        conn.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    conn.write_all(b"\n").unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let responses = read_all_lines(&mut conn);
    assert_eq!(responses.len(), 1);
    let v = jsonio::parse(responses[0].as_bytes()).unwrap();
    assert_eq!(field(&v, "id"), &Value::Str("slow".into()));
    assert_eq!(field(&v, "ok"), &Value::Bool(true));
    handle.shutdown().unwrap();
}

#[test]
fn malformed_requests_get_error_responses_and_the_connection_survives() {
    let (handle, _sched) = start(Backend::detect());
    let lines = [
        "this is not json",
        r#"{"id":"bad","designs":["Warp9"],"scale":"tiny"}"#,
        r#"{"id":"good","designs":["ITC"],"models":["DDPM"],"scale":"tiny"}"#,
    ];
    let responses = roundtrip(handle.addr(), &lines);
    assert_eq!(responses.len(), 3);
    let mut oks = 0;
    let mut errs = 0;
    for line in &responses {
        let v = jsonio::parse(line.as_bytes()).unwrap();
        match field(&v, "ok") {
            Value::Bool(true) => {
                oks += 1;
                assert_eq!(field(&v, "id"), &Value::Str("good".into()));
            }
            Value::Bool(false) => {
                errs += 1;
                assert!(matches!(field(&v, "error"), Value::Str(_)));
            }
            other => panic!("bad ok field {other:?}"),
        }
    }
    assert_eq!((oks, errs), (1, 2));
    handle.shutdown().unwrap();
}

#[test]
fn pipelining_far_beyond_the_backpressure_cap_still_answers_everything() {
    // A tiny in-flight cap forces the reactor to park the socket and
    // resume dispatch from the backlog as responses drain; every request
    // must still be answered exactly once.
    let sched = Arc::new(Scheduler::with_memo_cap(2, None));
    let app = Arc::new(SynthApp { sched });
    let config = ServerConfig { max_pending_per_conn: 2, ..ServerConfig::default() };
    let handle = spawn(app, config).expect("spawn server");
    let lines: Vec<String> = (0..40)
        .map(|i| format!(r#"{{"id":"p{i}","designs":["ITC"],"models":["DDPM"],"scale":"tiny"}}"#))
        .collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let responses = roundtrip(handle.addr(), &refs);
    assert_eq!(responses.len(), 40);
    let mut ids: Vec<String> = responses
        .iter()
        .map(|line| {
            let v = jsonio::parse(line.as_bytes()).unwrap();
            assert_eq!(field(&v, "ok"), &Value::Bool(true));
            match field(&v, "id") {
                Value::Str(s) => s.clone(),
                other => panic!("bad id {other:?}"),
            }
        })
        .collect();
    ids.sort();
    let mut want: Vec<String> = (0..40).map(|i| format!("p{i}")).collect();
    want.sort();
    assert_eq!(ids, want);
    handle.shutdown().unwrap();
}

#[test]
fn oversized_unterminated_lines_drop_the_connection() {
    let sched = Arc::new(Scheduler::with_memo_cap(1, None));
    let app = Arc::new(SynthApp { sched });
    let config = ServerConfig { max_line_bytes: 1024, ..ServerConfig::default() };
    let handle = spawn(app, config).expect("spawn server");
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    // 4 KiB with no newline: the server must hang up rather than buffer.
    let junk = vec![b'x'; 4096];
    let _ = conn.write_all(&junk);
    let responses = read_all_lines(&mut conn);
    assert!(responses.is_empty(), "no response for an unterminated flood");
    handle.shutdown().unwrap();
}
