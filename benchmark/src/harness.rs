//! Measurement plumbing shared by every workload: the metric registry
//! (which must agree with `../BENCHMARK.json`), order statistics, process
//! readings from `/proc`, set-up and round timing, and FNV-1a digests.

use std::time::Instant;

/// The six workloads, in the fixed order the suite runs them.
pub const WORKLOADS: [&str; 6] = [
    "trace_cold",
    "trace_delta",
    "denoise_plain",
    "figures_warm",
    "serve_hot_small",
    "serve_cold_full",
];

/// End-to-end metrics `(name, unit)`, measured with every telemetry,
/// profiling and counting switch off. Every workload reports every one.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
];

/// Per-layer metrics `(name, unit, exact)`. `exact` counts must repeat
/// bit-for-bit between runs of one commit on one seed. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, bool); 66] = [
    ("diffusion.build_ms", "ms", false),
    ("diffusion.plan_compiled", "count", true),
    ("diffusion.plan_reused", "count", true),
    ("diffusion.walk_ms", "ms", false),
    ("diffusion.plan_ms_per_call", "ms", false),
    ("diffusion.plan_conv_share", "ratio", false),
    ("diffusion.plan_matmul_share", "ratio", false),
    ("diffusion.plan_other_share", "ratio", false),
    ("diffusion.plan_arena_f32_max", "count", true),
    ("core.calibrate_ms", "ms", false),
    ("core.hook_ms", "ms", false),
    ("core.hook_calls", "count", true),
    ("core.binio_encode_ms", "ms", false),
    ("core.binio_decode_ms", "ms", false),
    ("core.trace_bytes", "count", true),
    ("core.jsonio_render_ms", "ms", false),
    ("core.jsonio_parse_us", "us", false),
    ("quant.int_matmul_calls", "count", true),
    ("quant.int_conv2d_direct_calls", "count", true),
    ("quant.int_scores_calls", "count", true),
    ("quant.delta_matmul_update_calls", "count", true),
    ("quant.attention_delta_scores_calls", "count", true),
    ("quant.temporal_zero_share", "ratio", true),
    ("quant.temporal_low4_share", "ratio", true),
    ("tensor.matmul_f32_calls", "count", true),
    ("tensor.matvec_f32_calls", "count", true),
    ("tensor.conv2d_f32_calls", "count", true),
    ("tensor.conv2d_direct_f32_calls", "count", true),
    ("accel.grid_ms_per_sweep", "ms", false),
    ("accel.cells_per_s", "1/s", false),
    ("accel.cell_us_p50", "us", false),
    ("accel.gpu_ref_ms", "ms", false),
    ("accel.grid_scaling", "ratio", false),
    ("accel.sim_cycles_ditto_total", "count", true),
    ("accel.sim_geomean_speedup_ditto_vs_itc", "ratio", true),
    ("accel.sim_geomean_speedup_ditto_vs_camd", "ratio", true),
    ("accel.sim_energy_ditto_rel_camd", "ratio", true),
    ("accel.sim_dram_bytes_ditto_total", "count", true),
    ("bench.suite_warm_load_ms", "ms", false),
    ("bench.suite_cache_hits", "count", true),
    ("bench.render_ms", "ms", false),
    ("bench.cold_parallel_eff", "ratio", false),
    ("serve.connect_us_p50", "us", false),
    ("serve.handle_small_us_p50", "us", false),
    ("serve.handle_full_us_p50", "us", false),
    ("serve.socket_overhead_us_p50", "us", false),
    ("serve.resp_bytes_p50", "count", true),
    ("serve.sched_wait_us_p50", "us", false),
    ("serve.sim_us_p50", "us", false),
    ("serve.queue_depth_p90", "count", false),
    ("serve.backpressure_rejects", "count", false),
    ("serve.memo_hit_share", "ratio", false),
    ("serve.cells_simulated", "count", false),
    ("serve.cells_coalesced", "count", false),
    ("serve.memo_evictions", "count", false),
    ("loadgen.sent", "count", false),
    ("loadgen.ok", "count", false),
    ("loadgen.err", "count", false),
    ("loadgen.late_p99_us", "us", false),
    ("loadgen.req_p95_ms", "ms", false),
    ("loadgen.req_p99_ms", "ms", false),
    ("loadgen.req_max_ms", "ms", false),
    ("slo_miss_share", "ratio", false),
    ("fail_share", "ratio", false),
    ("harness.trace_overhead_share", "ratio", false),
    ("harness.selftime_cover", "ratio", false),
];

/// Named values a pass produced; names must come from the registries above.
pub type Values = Vec<(&'static str, f64)>;

/// Looks a value up by name.
pub fn value_of(values: &[(&'static str, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

// --------------------------------------------------------------------------
// Order statistics
// --------------------------------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (0 for an empty one).
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile of the ladder 50/75/90/95 (capped at `want`) that
/// still has at least ten samples beyond it in a sample of `n`; the median
/// when even p50 does not.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    let mut best = 50.0;
    for pct in [50.0, 75.0, 90.0, 95.0, 99.0] {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        if pct <= want && n.saturating_sub(rank) >= 10 {
            best = pct;
        }
    }
    best
}

// --------------------------------------------------------------------------
// Process readings
// --------------------------------------------------------------------------

/// User + system CPU seconds of this process so far, exited threads
/// included: the process CPU-time clock, which is what `utime + stime` of
/// `/proc/self/stat` count in 10 ms ticks, read at the scheduler's own
/// nanosecond resolution (a round lasts a second or less, and a time that
/// reads the same on every run is no measurement). 0 where the clock is
/// unavailable.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live `struct timespec` (two 64-bit fields on every
    // 64-bit Linux ABI) that the call fills in and does not keep.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set (`VmHWM`) in MiB. 0 where `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pins the calling thread, and every thread it spawns from now on, to one
/// CPU (the lowest-numbered one it may run on); `available_parallelism`
/// reads 1 afterwards. Returns whether the kernel accepted it. The serve
/// workloads call this: see README.md, "The serve workloads run on one CPU".
pub fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // glibc's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    (0..64).any(|cpu| {
        let mut mask = [0u64; WORDS];
        mask[0] = 1 << cpu;
        // SAFETY: `mask` is an initialised array of exactly the
        // `WORDS * 8` bytes the call is told to read and outlives it; pid 0
        // names the calling thread. A CPU outside the allowed set makes the
        // call fail with EINVAL and change nothing.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
    })
}

// --------------------------------------------------------------------------
// Rounds
// --------------------------------------------------------------------------
//
// A run repeats its workload's fixed unit of work, a *round*, for about
// `--seconds`. Every end-to-end metric is computed per round by its plain
// definition (wall and CPU seconds of the round, operations per second and
// the median over the round's own operations) and the run reports its
// **best round**: the lowest time, the highest rate. `setup_s` is the
// fastest of the repeated set-ups.
//
// Why the best and not the median round: the reference host is a small VM
// on a shared machine that runs the same code 20-40 % slower for seconds to
// minutes at a time (README.md, "Measured spreads"). The median round of a
// run follows those episodes; the best round reads the speed of the code
// whenever the host left one round in the run alone, and it is still a
// plain measurement of one whole round.

/// Set-up repetitions per run: `setup_s` is the fastest.
pub const SETUP_REPS: usize = 9;

/// Runs `setup` [`SETUP_REPS`] times and returns its best time with the
/// last repetition's product (earlier ones are dropped, which tears down
/// whatever they built).
pub fn measure_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, last.expect("SETUP_REPS is at least 1"))
}

/// What one round's work reports about itself; [`timed_rounds`] adds the
/// round's wall and CPU time.
#[derive(Debug, Default)]
pub struct RoundOps {
    /// Latency of each operation of the round, in ms: a model run, a figure
    /// iteration, or an open-loop request from its due time.
    pub op_ms: Vec<f64>,
    /// Closed-loop completions per second, where the round has a closed
    /// loop; otherwise the round's operations ÷ its wall time is used.
    pub closed_per_s: Option<f64>,
}

/// One measured round.
#[derive(Debug)]
pub struct Round {
    pub wall_s: f64,
    /// User + system CPU seconds of the process over the round.
    pub cpu_s: f64,
    pub ops: RoundOps,
}

/// Repeats `round` for about `seconds`. Another round starts only while at
/// least half of it still fits, so the region rounds to the nearest whole
/// number of rounds (at least one); fixed work is never cut short.
pub fn timed_rounds(seconds: f64, mut round: impl FnMut(usize) -> RoundOps) -> Vec<Round> {
    let mut rounds = Vec::new();
    let start = Instant::now();
    loop {
        let (cpu0, t) = (cpu_seconds(), Instant::now());
        let ops = round(rounds.len());
        let wall_s = t.elapsed().as_secs_f64();
        rounds.push(Round { wall_s, cpu_s: cpu_seconds() - cpu0, ops });
        if start.elapsed().as_secs_f64() + wall_s / 2.0 >= seconds {
            return rounds;
        }
    }
}

/// Times one operation in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// The six end-to-end metrics of a run: each the best over `rounds` of the
/// round's own value (the lowest time, the highest rate).
pub fn end_to_end(setup_s: f64, rounds: &[Round]) -> Values {
    let lowest = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).fold(f64::INFINITY, f64::min);
    let per_s = |r: &Round| r.ops.closed_per_s.unwrap_or(r.ops.op_ms.len() as f64 / r.wall_s);
    vec![
        ("setup_s", setup_s),
        ("wall_s", lowest(&|r| r.wall_s)),
        ("cpu_s", lowest(&|r| r.cpu_s)),
        ("peak_rss_mib", peak_rss_mib()),
        ("req_per_s", rounds.iter().map(per_s).fold(0.0, f64::max)),
        ("req_p50_ms", lowest(&|r| median(&r.ops.op_ms))),
    ]
}

// --------------------------------------------------------------------------
// Digests and seeded randomness
// --------------------------------------------------------------------------

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the little-endian bytes of an `f32` slice.
pub fn fnv1a_f32(values: &[f32]) -> u64 {
    fnv1a(&values.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>())
}

/// SplitMix64: the benchmark's own generator, so a change to the product's
/// `tensor::Rng` cannot change the generated load.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_wants_ten_samples_beyond() {
        // 200 samples: p95 leaves exactly 10 beyond, p99 only 2.
        assert_eq!(supported_percentile(200, 95.0), 95.0);
        assert_eq!(supported_percentile(200, 99.0), 95.0);
        // 199 samples: rank(95) = 190, 9 beyond, so fall back to p90.
        assert_eq!(supported_percentile(199, 95.0), 90.0);
        // 100 samples support p90 (10 beyond), 99 only p75.
        assert_eq!(supported_percentile(100, 95.0), 90.0);
        assert_eq!(supported_percentile(99, 95.0), 75.0);
        // 1000 samples support p99 when asked for it, p95 when capped.
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        assert_eq!(supported_percentile(1000, 95.0), 95.0);
        // Too few for anything: the median.
        assert_eq!(supported_percentile(19, 95.0), 50.0);
        assert_eq!(supported_percentile(0, 95.0), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), 190.0);
        assert_eq!(percentile(&samples, 50.0), 100.0);
        assert_eq!(percentile(&samples, 100.0), 200.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn timed_rounds_rounds_to_whole_rounds() {
        let nap = |ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            RoundOps::default()
        };
        // A round longer than the budget runs once; so does one that would
        // mostly overshoot it.
        assert_eq!(timed_rounds(0.001, |_| nap(5)).len(), 1);
        assert_eq!(timed_rounds(0.030, |_| nap(25)).len(), 1);
        let short = timed_rounds(0.05, |_| nap(2));
        assert!(short.len() >= 5, "{} rounds", short.len());
        assert!(short.iter().map(|r| r.wall_s).sum::<f64>() >= 0.04);
    }

    #[test]
    fn end_to_end_metrics_are_the_best_round() {
        let round = |wall_s: f64, cpu_s: f64, op_ms: Vec<f64>, closed_per_s: Option<f64>| Round {
            wall_s,
            cpu_s,
            ops: RoundOps { op_ms, closed_per_s },
        };
        // Three batch rounds of two operations; the second was disturbed,
        // and the third used the least CPU but not the least wall time.
        let rounds = vec![
            round(1.0, 1.5, vec![400.0, 600.0], None),
            round(3.0, 4.0, vec![900.0, 2100.0], None),
            round(1.25, 1.25, vec![500.0, 750.0], None),
        ];
        let e2e = end_to_end(0.5, &rounds);
        let get = |name| value_of(&e2e, name).unwrap();
        assert_eq!((get("setup_s"), get("wall_s"), get("cpu_s")), (0.5, 1.0, 1.25));
        assert_eq!((get("req_per_s"), get("req_p50_ms")), (2.0, 500.0));
        // Serve rounds: the closed loop's own rate, the median latency.
        let latencies: Vec<f64> = (1..=200).map(f64::from).collect();
        let slow: Vec<f64> = latencies.iter().map(|l| l * 2.0).collect();
        let rounds =
            [round(2.0, 1.0, slow, Some(4000.0)), round(2.0, 1.0, latencies, Some(5000.0))];
        let e2e = end_to_end(0.1, &rounds);
        let get = |name| value_of(&e2e, name).unwrap();
        assert_eq!((get("req_per_s"), get("req_p50_ms")), (5000.0, 100.5));
    }

    #[test]
    fn setup_time_is_the_fastest_repetition() {
        let mut naps = [8u64, 1, 30, 8, 8, 8, 8, 8, 8].into_iter();
        let (best, last) = measure_setup(|| {
            let ms = naps.next().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(ms));
            ms
        });
        assert!((0.001..0.008).contains(&best), "{best}");
        assert_eq!(last, 8);
    }

    #[test]
    fn cpu_clock_counts_work_and_not_sleep() {
        let before = cpu_seconds();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let slept = cpu_seconds() - before;
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        let worked = cpu_seconds() - before - slept;
        assert!(slept < 0.005, "{slept}");
        assert!(worked > 0.010, "{worked}");
    }

    #[test]
    fn registries_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = ditto_core::jsonio::parse(text.as_bytes()).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            let ditto_core::jsonio::Value::Arr(items) = doc.get(key).unwrap() else {
                panic!("`{key}` is not an array")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Ok(ditto_core::jsonio::Value::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |n: &str, u: &str| (n.to_string(), u.to_string());
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|(n, u)| own(n, u)).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|(n, u, _)| own(n, u)).collect::<Vec<_>>()
        );
        assert_eq!(names("workloads").into_iter().map(|(n, _)| n).collect::<Vec<_>>(), WORKLOADS);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_f32(&[1.0]), fnv1a(&1.0f32.to_le_bytes()));
    }
}
