//! `ditto-serve`: the socket-based serving subsystem.
//!
//! This crate serves the `bench::sweep` wire protocol (line-delimited JSON
//! sweep requests) over TCP:
//!
//! * **A non-blocking front-end** ([`server`]): one reactor thread
//!   multiplexes every connection through a minimal dependency-free
//!   [`reactor`] — raw `epoll` on Linux with a portable `poll(2)`
//!   fallback — framing partial reads/writes and streaming each response
//!   as its request finishes.
//! * **Priority scheduling** ([`sched`]): requests carry an optional
//!   `priority`; their grid cells are fed to a shared
//!   [`accel::pool::PriorityPool`] that dequeues high-priority work first
//!   (FIFO within a level).
//! * **Opt-in observability** ([`obs`]): `DITTO_OBS_STREAM` records a
//!   per-request/per-cell JSONL event stream, `DITTO_OBS_SUMMARY`
//!   checkpoints an end-of-run aggregate document (latency percentiles,
//!   memo hit rate, backpressure counts), and `DITTO_SERVE_LOG` gates
//!   the stack's stderr diagnostics — all off (and free) by default.
//! * **Cross-request memoization** ([`sched`]): each request is decomposed
//!   into (design × model × scale) cells that are deduplicated against a
//!   process-wide memo table — completed cells are served from memory,
//!   in-flight cells pick up additional waiters — so N clients asking for
//!   overlapping sweeps cost **one simulation per unique cell**, while
//!   every response stays bit-identical to a fresh [`accel::grid::run`].
//!
//! The binary (`cargo run -p serve --bin ditto-serve`) wires the
//! suite-backed [`app::SuiteApp`] into the server; the library pieces are
//! independently reusable (and tested) with arbitrary [`server::App`]s and
//! synthetic traces.
//!
//! # Example
//!
//! A trivial echo-style app on a random loopback port:
//!
//! ```
//! use std::io::{BufRead, BufReader, Write};
//! use std::sync::Arc;
//!
//! let app = Arc::new(|line: &str| format!("echo:{line}"));
//! let handle = serve::server::spawn(app, serve::server::ServerConfig::default())?;
//!
//! let mut conn = std::net::TcpStream::connect(handle.addr())?;
//! conn.write_all(b"hello\n")?;
//! let mut response = String::new();
//! BufReader::new(conn.try_clone()?).read_line(&mut response)?;
//! assert_eq!(response, "echo:hello\n");
//!
//! handle.shutdown()?;
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod app;
pub mod obs;
pub mod reactor;
pub mod sched;
pub mod server;

pub use app::SuiteApp;
pub use obs::Obs;
pub use reactor::{Backend, Poller, Waker};
pub use sched::{CellStats, ModelInput, SchedError, Scheduler, SweepJob};
pub use server::{spawn, App, ServerConfig, ServerHandle};
