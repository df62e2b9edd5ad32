//! Concurrent sweep-serving front-end: compat wrapper and thin client.
//!
//! Reads line-delimited JSON sweep requests (see [`bench::sweep`] for the
//! wire protocol) from stdin — or from a batch file with `--batch FILE` —
//! and streams one JSON response line per request to stdout *as each
//! request finishes* (responses may be reordered; match them by `id`).
//!
//! Two execution modes:
//!
//! * **Client** (`--connect ADDR`, or the `DITTO_SERVE_ADDR` environment
//!   variable): forwards every request line over TCP to a running
//!   `ditto-serve` socket server and relays its responses. This is the
//!   path that gets cross-request cell memoization and priority
//!   scheduling — the server deduplicates identical (design, model,
//!   scale) cells across every connected client.
//! * **Standalone** (default): executes requests in-process on the grid
//!   engine over one shared warm [`bench::Suite`], exactly as before
//!   `ditto-serve` existed. No cross-request memo exists here, so each
//!   response reports all of its cells as freshly simulated. With
//!   `--batch`, requests are submitted in descending `priority` order.
//!
//! Responses are identical in either mode up to the cache-accounting
//! fields (`cells`, `suite`): the report payload is bit-identical because
//! both paths run the same per-cell simulation function.
//!
//! ```bash
//! printf '%s\n' \
//!   '{"id":"a","designs":["ITC","Ditto"],"models":["DDPM"],"scale":"tiny"}' \
//!   '{"id":"b","scale":"tiny"}' \
//!   | cargo run --release -p bench --bin serve
//! ```

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::{mpsc, Mutex};

use bench::report::sweep_summary;
use bench::sweep::parse_request;
use bench::{sweep, HitAccounting, Suite};
use ditto_core::jsonio::{self, LineFramer, Value};

/// Writes one response line atomically: `StdoutLock` is held across the
/// write and flush, so concurrent workers cannot interleave lines.
fn print_line(line: &str) {
    let stdout = std::io::stdout();
    let mut handle = stdout.lock();
    let _ = writeln!(handle, "{line}");
    let _ = handle.flush();
}

/// Parses, runs, and renders one request line in-process; returns the
/// response line and whether the request succeeded.
fn handle(line: &str) -> (String, bool) {
    match parse_request(line) {
        Err(e) => (sweep::response_err(&sweep::request_id(line), &e), false),
        Ok(req) => {
            // Loading may warm the suite; the credit for reporting the
            // warm-up is claimed only by a successful response, so a
            // failing warmer does not swallow the stats.
            let (suite, _) = Suite::shared_observed(req.sweep.scale);
            match req.sweep.run() {
                Ok(report) => {
                    let hits = HitAccounting::all_simulated(report.cells.len())
                        .with_suite(suite, Suite::take_warm_credit(req.sweep.scale));
                    eprintln!("[serve] {}: {}", req.id, sweep_summary(&report));
                    let backend = tensor::backend::active();
                    (sweep::response_ok(&req.id, &report, &hits, backend), true)
                }
                Err(e) => (sweep::response_err(&req.id, &e.to_string()), false),
            }
        }
    }
}

/// Top-level response fields this client version understands. Anything
/// else on the wire means the server speaks a newer protocol: the line is
/// still relayed verbatim, but the skew is reported on stderr instead of
/// being silently dropped.
const KNOWN_RESPONSE_FIELDS: &[&str] = &[
    "id",
    "ok",
    "proto",
    "backend",
    "error",
    "cache_hits",
    "cells",
    "suite",
    "plans",
    "best_design",
    "geomean",
    "report",
];

/// Warns (once per field name / once for a proto mismatch) about
/// server/client version skew visible in a response line.
fn warn_on_version_skew(v: &jsonio::Value, warned: &mut std::collections::BTreeSet<String>) {
    let server_proto = match v.get("proto") {
        Ok(Value::Int(p)) => *p,
        _ => 1, // pre-versioning servers carry no `proto` field
    };
    if server_proto > sweep::PROTO_VERSION.into() && warned.insert("__proto".into()) {
        eprintln!(
            "[serve] server speaks protocol v{server_proto}, this client understands \
             v{} — responses are relayed verbatim but may carry fields this client \
             ignores",
            sweep::PROTO_VERSION
        );
    }
    if let Value::Obj(fields) = v {
        for (key, _) in fields {
            if !KNOWN_RESPONSE_FIELDS.contains(&key.as_str()) && warned.insert(key.clone()) {
                eprintln!(
                    "[serve] response field `{key}` is not understood by this client \
                     (server proto v{server_proto}); upgrade the client to interpret it"
                );
            }
        }
    }
}

/// Client mode: forward request lines to a `ditto-serve` server and relay
/// its response lines to stdout. Returns (served, failed) counts taken
/// from the responses' `ok` fields.
fn run_client(addr: &str, input: Box<dyn BufRead>) -> (usize, usize) {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
    let mut writer = stream.try_clone().expect("clone client stream");
    let reader = std::thread::spawn(move || {
        let mut stream = stream;
        let mut framer = LineFramer::new();
        let mut buf = [0u8; 16 * 1024];
        let (mut ok, mut err) = (0usize, 0usize);
        let mut skew_warned = std::collections::BTreeSet::new();
        loop {
            let n = match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("read response: {e}"),
            };
            framer.push(&buf[..n]);
            while let Some(line) = framer.next_line() {
                if line.trim().is_empty() {
                    continue;
                }
                match jsonio::parse(line.as_bytes()) {
                    Ok(v) => {
                        warn_on_version_skew(&v, &mut skew_warned);
                        match v.get("ok") {
                            Ok(Value::Bool(true)) => ok += 1,
                            _ => err += 1,
                        }
                    }
                    Err(_) => err += 1,
                }
                print_line(&line);
            }
        }
        (ok, err)
    });
    let mut sent = 0usize;
    for line in input.lines() {
        let line = line.expect("read request line");
        if line.trim().is_empty() {
            continue;
        }
        writer.write_all(line.as_bytes()).expect("forward request");
        writer.write_all(b"\n").expect("forward request");
        sent += 1;
    }
    writer.flush().expect("flush requests");
    // Half-close so the server flushes remaining responses and hangs up.
    writer.shutdown(std::net::Shutdown::Write).expect("shutdown write half");
    let (ok, mut err) = reader.join().expect("response reader");
    // The server answers every request line exactly once; a shortfall
    // means it hung up early (dropped connection, restart) and those
    // requests silently vanished — count them as failures.
    if ok + err < sent {
        let missing = sent - ok - err;
        eprintln!("[serve] {missing} request(s) got no response before the server hung up");
        err += missing;
    }
    (ok, err)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut batch: Option<String> = None;
    let mut connect: Option<String> = std::env::var("DITTO_SERVE_ADDR").ok();
    // Each request already fans its grid cells out across every core via
    // `accel::grid`, so request-level concurrency exists to overlap
    // requests' serial sections (parsing, rendering, GPU passes), not to
    // add parallelism — a small pool avoids quadratic thread
    // oversubscription (requests × cores). `--workers` overrides.
    let mut workers = accel::pool::default_workers().min(4);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--batch" => batch = Some(args.next().expect("--batch needs a file path")),
            "--connect" => connect = Some(args.next().expect("--connect needs HOST:PORT")),
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|w| w.parse().ok())
                    .expect("--workers needs a positive integer")
            }
            other => {
                eprintln!(
                    "unknown argument `{other}`; usage: \
                     serve [--batch FILE] [--workers N] [--connect HOST:PORT]"
                );
                std::process::exit(2);
            }
        }
    }
    let workers = workers.max(1);

    let input: Box<dyn BufRead> = match &batch {
        Some(path) => {
            let file = std::fs::File::open(path).unwrap_or_else(|e| panic!("open {path}: {e}"));
            // A batch file is fully known up front, so honor priorities at
            // the request level too: submit high-priority requests first
            // (stable within a level, preserving file order).
            let mut lines: Vec<String> =
                BufReader::new(file).lines().map(|l| l.expect("read batch line")).collect();
            lines.sort_by_key(|l| std::cmp::Reverse(sweep::request_priority(l)));
            Box::new(std::io::Cursor::new(lines.join("\n").into_bytes()))
        }
        None => Box::new(BufReader::new(std::io::stdin())),
    };

    let (served, failed) = match &connect {
        Some(addr) => {
            eprintln!("[serve] forwarding requests to ditto-serve at {addr}");
            run_client(addr, input)
        }
        None => {
            let (tx, rx) = mpsc::channel::<String>();
            let rx = Mutex::new(rx);
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for _ in 0..workers {
                    let rx = &rx;
                    handles.push(scope.spawn(move || {
                        let mut ok = 0usize;
                        let mut err = 0usize;
                        loop {
                            // Take one request off the queue; hold the lock
                            // only for the recv so other workers stream in
                            // parallel.
                            let line = match rx.lock().expect("request queue").recv() {
                                Ok(line) => line,
                                Err(_) => break, // queue closed and drained
                            };
                            let (response, success) = handle(&line);
                            print_line(&response);
                            if success {
                                ok += 1;
                            } else {
                                err += 1;
                            }
                        }
                        (ok, err)
                    }));
                }
                for line in input.lines() {
                    let line = line.expect("read request line");
                    if line.trim().is_empty() {
                        continue;
                    }
                    tx.send(line).expect("workers alive");
                }
                drop(tx);
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker"))
                    .fold((0usize, 0usize), |(a, b), (ok, err)| (a + ok, b + err))
            })
        }
    };
    eprintln!("[serve] done: {served} request(s) served, {failed} failed");
    if failed > 0 {
        std::process::exit(1);
    }
}
