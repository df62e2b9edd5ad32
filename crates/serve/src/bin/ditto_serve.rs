//! The `ditto-serve` socket server binary.
//!
//! Accepts line-delimited JSON sweep requests (the `bench::sweep` wire
//! protocol, plus the optional `priority` field) on a TCP listener and
//! streams one JSON response line per request. All connections share one
//! warm trace suite per scale, one priority worker pool, and one
//! process-wide cell memo: identical (design, model, scale) cells
//! requested by different clients are simulated exactly once.
//!
//! ```bash
//! cargo run --release -p serve --bin ditto-serve -- --addr 127.0.0.1:7311 &
//! printf '{"id":"r1","designs":["ITC","Ditto"],"models":["DDPM"],"scale":"tiny"}\n' \
//!   | nc 127.0.0.1 7311
//! ```
//!
//! Flags:
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:7311`; port 0
//!   picks a free port — combine with `--port-file`).
//! * `--workers N` — simulation threads (default: one per core).
//! * `--poll` — force the portable `poll(2)` reactor backend instead of
//!   epoll (also reachable via the `DITTO_SERVE_POLL` env var).
//! * `--port-file PATH` — write the bound port number to `PATH` once
//!   listening (for scripts using port 0).
//!
//! Environment:
//!
//! * `DITTO_KERNEL_BACKEND` — the process's kernel backend (`auto` /
//!   `scalar` / `simd` / `simd:avx2` / `simd:sse2` / `simd:neon`), fixed
//!   at startup and reported in every response's `backend`. Results are
//!   bit-identical on every backend.
//! * `DITTO_MEMO_MAX_CELLS` — LRU cap on the cross-request cell memo
//!   (default: unbounded); evictions are reported per response.
//! * `DITTO_OBS_STREAM` — path for the per-request/per-cell JSONL
//!   observability event stream (off by default; see the README
//!   "Observability" section for the event schema). Serve events share
//!   the process-wide `ditto_core::telemetry` writer and clock, so
//!   compute-stack spans interleave in the same file.
//! * `DITTO_TRACE_FILE` — path for a Chrome trace-event (catapult) JSON
//!   of every span (scheduler wait/sim, pool jobs, suite loads, plan
//!   steps), checkpointed atomically on the writer's idle cadence;
//!   open in `chrome://tracing` or Perfetto.
//! * `DITTO_OBS_SUMMARY` — path for the checkpointed end-of-run
//!   `summary.json` aggregate (latency percentiles, memo hit rate,
//!   backpressure counts).
//! * `DITTO_SERVE_LOG` — set to emit per-connection/per-request stderr
//!   diagnostics (suppressed by default so busy servers pay nothing).

use std::sync::Arc;

use serve::reactor::Backend;
use serve::server::{spawn, ServerConfig};
use serve::SuiteApp;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut config = ServerConfig { addr: "127.0.0.1:7311".into(), ..ServerConfig::default() };
    let mut workers = accel::pool::default_workers();
    let mut port_file: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = args.next().expect("--addr needs HOST:PORT"),
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|w| w.parse().ok())
                    .expect("--workers needs a positive integer")
            }
            "--poll" => config.backend = Backend::Poll,
            "--port-file" => port_file = Some(args.next().expect("--port-file needs a path")),
            other => {
                eprintln!(
                    "unknown argument `{other}`; usage: \
                     ditto-serve [--addr HOST:PORT] [--workers N] [--poll] [--port-file PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let app = Arc::new(SuiteApp::new(workers.max(1)));
    let handle = match spawn(app, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("[ditto-serve] failed to start: {e}");
            std::process::exit(1);
        }
    };
    let obs = serve::obs::global();
    eprintln!(
        "[ditto-serve] listening on {} ({:?} backend, {} workers, {} kernels, obs {})",
        handle.addr(),
        handle.backend(),
        workers.max(1),
        tensor::backend::active(),
        if obs.enabled() { "on" } else { "off" }
    );
    if let Some(path) = port_file {
        std::fs::write(&path, format!("{}\n", handle.addr().port()))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    if let Err(e) = handle.join() {
        eprintln!("[ditto-serve] reactor failed: {e}");
        std::process::exit(1);
    }
}
