//! The load generator for the serve workloads: seeded Poisson/Zipf
//! schedules, an open-loop runner that times every request from the moment
//! it was *due*, and closed-loop clients.
//!
//! The schedule is generated before the timed region from `--seed`; the
//! server only ever sees the generated request lines.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::harness::SplitMix64;

/// Arrival offsets (ns) of a Poisson process at `rate_per_s` over
/// `duration_s`, conditioned on its expected count: exactly
/// `floor(rate · duration)` arrivals, placed as sorted independent uniform
/// times. Fixing the count fixes the sample size of every latency
/// percentile, whatever the seed.
pub fn poisson_offsets(rng: &mut SplitMix64, rate_per_s: f64, duration_s: f64) -> Vec<u64> {
    let count = (rate_per_s * duration_s).floor() as usize;
    let mut offsets: Vec<u64> =
        (0..count).map(|_| (rng.next_unit() * duration_s * 1e9) as u64).collect();
    offsets.sort_unstable();
    offsets
}

/// Zipf over ranks `0..n` with exponent `s` (rank 0 the most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_unit();
        self.cdf.iter().position(|&c| u < c).unwrap_or(self.cdf.len() - 1)
    }
}

/// One scheduled request: when it is due (ns after the phase starts) and
/// which of the workload's request shapes it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shot {
    pub due_ns: u64,
    pub shape: usize,
}

/// The open-loop schedule of one phase: Poisson arrivals, shapes drawn
/// Zipf(`zipf_s`) from `shapes` ranks. Equal seeds give equal schedules.
pub fn open_schedule(
    seed: u64,
    rate_per_s: f64,
    duration_s: f64,
    shapes: usize,
    zipf_s: f64,
) -> Vec<Shot> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0A11);
    let zipf = Zipf::new(shapes, zipf_s);
    poisson_offsets(&mut rng, rate_per_s, duration_s)
        .into_iter()
        .map(|due_ns| Shot { due_ns, shape: zipf.sample(&mut rng) })
        .collect()
}

/// `count` Zipf-drawn shapes for a closed-loop client.
pub fn closed_shapes(seed: u64, count: usize, shapes: usize, zipf_s: f64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0xC105_ED00);
    let zipf = Zipf::new(shapes, zipf_s);
    (0..count).map(|_| zipf.sample(&mut rng)).collect()
}

/// What happened to one request. Times are ns after the phase started.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due_ns: u64,
    /// When the generator actually started sending it.
    pub sent_ns: u64,
    /// When its response was complete (or the attempt failed).
    pub done_ns: u64,
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time: a request that waited behind a stalled
    /// predecessor is charged that wait.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator ran against its schedule.
    pub fn late_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

fn sleep_until(epoch: Instant, due_ns: u64) {
    let due = Duration::from_nanos(due_ns);
    let now = epoch.elapsed();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs one generator thread's share of an open-loop schedule: waits for
/// each shot's due time, then calls `send`, which returns once the response
/// is in (or the attempt failed). The next shot is never sent before its own
/// due time and never skipped, so when `send` stalls, the shots that became
/// due meanwhile go out late and their latency — taken from the due time —
/// includes the wait.
pub fn run_open_loop(
    epoch: Instant,
    shots: &[Shot],
    mut send: impl FnMut(&Shot) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(shots.len());
    for shot in shots {
        sleep_until(epoch, shot.due_ns);
        let sent_ns = epoch.elapsed().as_nanos() as u64;
        let ok = send(shot);
        let done_ns = epoch.elapsed().as_nanos() as u64;
        samples.push(Sample { due_ns: shot.due_ns, sent_ns, done_ns, ok });
    }
    samples
}

/// A keep-alive client connection speaking the line protocol.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::with_capacity(128 * 1024, stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request line without waiting for its response.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// Reads the next response line into `buf` (cleared first), without the
    /// newline. An early EOF is an error.
    pub fn recv(&mut self, buf: &mut String) -> io::Result<()> {
        buf.clear();
        if self.reader.read_line(buf)? == 0 || !buf.ends_with('\n') {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        buf.pop();
        Ok(())
    }

    pub fn roundtrip(&mut self, line: &str, buf: &mut String) -> io::Result<()> {
        self.send(line)?;
        self.recv(buf)
    }

    /// Splits into the sending half and a reader for a pipelining phase.
    pub fn split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.stream, self.reader)
    }
}

/// One request on a fresh connection (connect, send, read, close).
pub fn roundtrip_fresh(addr: SocketAddr, line: &str, buf: &mut String) -> io::Result<()> {
    Client::connect(addr)?.roundtrip(line, buf)
}

/// Runs one pipelined open-loop connection: a writer sends each shot at its
/// due time without waiting for earlier responses, a reader thread takes
/// responses as they come and matches them to shots by `id_of`. Shots that
/// never got a response come back `ok: false` with `done_ns` at the phase
/// end.
pub fn run_pipelined(
    epoch: Instant,
    client: Client,
    shots: &[Shot],
    line_of: impl Fn(usize) -> String,
    check: impl Fn(&str) -> Option<(usize, bool)> + Send,
) -> Vec<Sample> {
    let (mut stream, mut reader) = client.split();
    let expected = shots.len();
    let mut sent_ns = vec![0u64; expected];
    let done: Vec<Option<(u64, bool)>> = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(move || {
            let mut done = vec![None; expected];
            let mut buf = String::new();
            for _ in 0..expected {
                buf.clear();
                match reader.read_line(&mut buf) {
                    Ok(n) if n > 0 && buf.ends_with('\n') => {}
                    _ => break,
                }
                let now = epoch.elapsed().as_nanos() as u64;
                if let Some((index, ok)) = check(buf.trim_end()) {
                    if index < expected {
                        done[index] = Some((now, ok));
                    }
                }
            }
            done
        });
        for (i, shot) in shots.iter().enumerate() {
            sleep_until(epoch, shot.due_ns);
            sent_ns[i] = epoch.elapsed().as_nanos() as u64;
            if stream.write_all(format!("{}\n", line_of(i)).as_bytes()).is_err() {
                break;
            }
        }
        // Half-close: the server flushes every in-flight response, then
        // closes, which ends the reader even if a response went missing.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        reader_thread.join().expect("reader thread")
    });
    let end_ns = epoch.elapsed().as_nanos() as u64;
    shots
        .iter()
        .zip(sent_ns)
        .zip(done)
        .map(|((shot, sent_ns), done)| {
            let (done_ns, ok) = done.unwrap_or((end_ns, false));
            Sample { due_ns: shot.due_ns, sent_ns, done_ns, ok }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_for_equal_seeds_and_differ_otherwise() {
        let a = open_schedule(7, 500.0, 1.0, 16, 1.1);
        let b = open_schedule(7, 500.0, 1.0, 16, 1.1);
        let c = open_schedule(8, 500.0, 1.0, 16, 1.1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(closed_shapes(7, 100, 16, 1.1), closed_shapes(7, 100, 16, 1.1));
        assert_ne!(closed_shapes(7, 100, 16, 1.1), closed_shapes(8, 100, 16, 1.1));
        // 500/s over 1 s: exactly 500 arrivals, ordered, in range.
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|s| s.due_ns < 1_000_000_000 && s.shape < 16));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(16, 1.1);
        let mut rng = SplitMix64::new(1);
        let mut counts = [0usize; 16];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[3] && counts[3] > counts[15]);
        assert!(counts[15] > 0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time_when_the_generator_stalls() {
        // Three shots due 1 ms apart; the first send stalls for 30 ms.
        let shots: Vec<Shot> = (0..3).map(|i| Shot { due_ns: i * 1_000_000, shape: 0 }).collect();
        let mut first = true;
        let samples = run_open_loop(Instant::now(), &shots, |_| {
            if std::mem::take(&mut first) {
                std::thread::sleep(Duration::from_millis(30));
            }
            true
        });
        // The second shot was due at 1 ms but could only go out after the
        // stall: it is ~29 ms late and its latency says so, although its own
        // send took no time.
        assert!(samples[1].late_us() >= 28_000.0, "late {} us", samples[1].late_us());
        assert!(samples[1].latency_ms() >= 28.0, "latency {} ms", samples[1].latency_ms());
        assert!(samples[1].done_ns - samples[1].sent_ns < 5_000_000);
        assert!(samples[2].latency_ms() >= 27.0);
        assert!(samples[0].late_us() < 5_000.0);
    }

    #[test]
    fn pipelined_runner_matches_out_of_order_responses() {
        // An echo app that answers the first request last.
        let app = std::sync::Arc::new(|line: &str| {
            if line == "0" {
                std::thread::sleep(Duration::from_millis(20));
            }
            line.to_string()
        });
        let config = serve::server::ServerConfig {
            obs: std::sync::Arc::new(serve::Obs::disabled()),
            ..serve::server::ServerConfig::default()
        };
        let server = serve::server::spawn(app, config).unwrap();
        let shots: Vec<Shot> = (0..3).map(|i| Shot { due_ns: i * 100_000, shape: 0 }).collect();
        let client = Client::connect(server.addr()).unwrap();
        let samples = run_pipelined(
            Instant::now(),
            client,
            &shots,
            |i| i.to_string(),
            |resp| resp.parse().ok().map(|i| (i, true)),
        );
        server.shutdown().unwrap();
        assert!(samples.iter().all(|s| s.ok));
        assert!(samples[0].latency_ms() >= 19.0);
        assert!(samples[1].latency_ms() < samples[0].latency_ms());
    }
}
