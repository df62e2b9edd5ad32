//! The repo benchmark: six workloads, six bounded end-to-end metrics, and
//! a per-layer ledger timed from outside the layers (see `README.md` here
//! and `../BENCHMARK.json`).
//!
//! ```text
//! ditto-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! ditto-benchmark suite [--seed N] [--workload NAME] [--seconds S] [--aa]
//! ditto-benchmark regen-golden
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every telemetry,
//! profiling and counting switch off. `--trace 1` first runs that same pass
//! in a fresh child process (end-to-end numbers never come from a traced
//! process), then drives the workload again under the benchmark's own spans
//! with the pull counters on, and reports the per-layer metrics.

mod golden;
mod harness;
mod loadgen;
mod spans;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use ditto_core::jsonio::{self, Value};

use harness::{value_of, Values, END_TO_END, PER_LAYER, WORKLOADS};
use spans::Spans;
use workloads::{Args, GOLDEN_SEED};

const USAGE: &str = "usage: ditto-benchmark --workload NAME --seed N --seconds S --trace 0|1
       ditto-benchmark suite [--seed N] [--workload NAME] [--seconds S] [--aa]
       ditto-benchmark regen-golden";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Every DITTO_* knob changes what the product does; the benchmark sets
    // the ones it wants itself and must not inherit any.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DITTO_") {
            std::env::remove_var(key);
        }
    }
    let (mode, flags) = match argv.first().map(String::as_str) {
        Some(mode @ ("suite" | "regen-golden")) => (mode, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let code = match (mode, parse_args(flags)) {
        (_, Err(e)) => {
            eprintln!("ditto-benchmark: {e}\n{USAGE}");
            2
        }
        ("suite", Ok(args)) => suite::run(&args),
        ("regen-golden", Ok(_)) => suite::regen_golden(),
        (_, Ok(args)) if args.workload.is_empty() => {
            eprintln!("ditto-benchmark: --workload is required\n{USAGE}");
            2
        }
        (_, Ok(args)) => run_one(&args),
    };
    std::process::exit(code);
}

/// The one flag parser of every mode. `workload` stays empty when the flag
/// is absent (a run needs it; the suite then runs all six).
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: GOLDEN_SEED,
        seconds: suite::run_seconds(),
        trace: false,
        out: None,
        record_golden: false,
        aa: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--record-golden" => args.record_golden = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.workload.is_empty() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn e2e_unit(name: &str) -> &'static str {
    END_TO_END.iter().find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

fn layer_unit(name: &str) -> &'static str {
    PER_LAYER.iter().find(|(n, _, _)| *n == name).map_or("", |(_, u, _)| u)
}

/// A metrics object, as in the result line: `{name: {value, unit}}`.
fn metrics_json(values: &[(&str, f64)], unit_of: impl Fn(&str) -> &'static str) -> Value {
    Value::Obj(
        values
            .iter()
            .map(|(name, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                let fields = vec![
                    ("value".to_string(), Value::Num(v)),
                    ("unit".to_string(), Value::Str(unit_of(name).to_string())),
                ];
                (name.to_string(), Value::Obj(fields))
            })
            .collect(),
    )
}

/// Reads a metrics object back, keeping the names `registry` knows.
fn metrics_of(doc: &Value, registry: impl Iterator<Item = &'static str> + Clone) -> Values {
    let Value::Obj(fields) = doc else { return Vec::new() };
    fields
        .iter()
        .filter_map(|(name, m)| {
            let name = registry.clone().find(|n| n == name)?;
            let value = match m.get("value").ok()? {
                Value::Int(i) => *i as f64,
                Value::Num(n) => *n,
                _ => return None,
            };
            Some((name, value))
        })
        .collect()
}

fn to_line(v: &Value) -> String {
    String::from_utf8(jsonio::to_vec(v)).expect("jsonio writes UTF-8")
}

/// What one workload measured: the untraced pass's verdict and end-to-end
/// metrics, plus per-layer values (after an untraced pass alone, only the
/// ones that pass hands over to the traced one).
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Values,
    pub layers: Values,
    /// `--record-golden`: the digests the pass would have checked.
    pub golden: Vec<(String, u64)>,
}

impl Report {
    /// The driver's result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics`; `extra` fields follow for the suite's report file.
    fn to_json(&self, metrics: Value, extra: Vec<(String, Value)>) -> Value {
        let mut fields = vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Int(self.attempted.max(1).into())),
            ("failed".into(), Value::Int(self.failed.into())),
            ("metrics".into(), metrics),
        ];
        fields.extend(extra);
        Value::Obj(fields)
    }

    /// Reads [`Report::to_json`] back (`metrics` holding the end-to-end
    /// metrics, an optional `per_layer` beside it).
    pub fn from_json(doc: &Value) -> Report {
        let int = |key: &str| match doc.get(key) {
            Ok(Value::Int(i)) => *i as u64,
            _ => 0,
        };
        let metrics = |key: &str| doc.get(key).unwrap_or(&Value::Null);
        Report {
            correct: doc.get("correct") == Ok(&Value::Bool(true)),
            attempted: int("attempted"),
            failed: int("failed"),
            e2e: metrics_of(metrics("metrics"), END_TO_END.iter().map(|(n, _)| *n)),
            layers: metrics_of(metrics("per_layer"), PER_LAYER.iter().map(|(n, _, _)| *n)),
            golden: Vec::new(),
        }
    }
}

fn run_one(args: &Args) -> i32 {
    std::fs::create_dir_all(workloads::scratch_dir()).expect("create benchmark/runs");
    if args.workload == workloads::serve::COLD_FULL.name {
        std::env::set_var("DITTO_MEMO_MAX_CELLS", "1");
    }
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &Args) -> i32 {
    let outcome = workloads::run_untraced(args);
    for m in &outcome.check.mismatches {
        eprintln!("ditto-benchmark: MISMATCH {m}");
    }
    for (key, digest) in &outcome.check.recorded {
        println!("golden {key} {digest:016x}");
    }
    println!("aux {}", to_line(&metrics_json(&outcome.aux, layer_unit)));
    let report = Report {
        correct: outcome.correct(),
        attempted: outcome.attempted,
        failed: outcome.failed_ops(),
        e2e: outcome.e2e,
        layers: Vec::new(),
        golden: Vec::new(),
    };
    println!("{}", to_line(&report.to_json(metrics_json(&report.e2e, e2e_unit), Vec::new())));
    i32::from(!report.correct)
}

/// Runs one untraced pass of `args.workload` in a fresh process.
pub fn untraced_child(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .stderr(Stdio::inherit());
    if args.record_golden {
        cmd.arg("--record-golden");
    }
    let output = cmd.output().map_err(|e| format!("cannot start the untraced pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (mut report, mut aux, mut golden) = (None, Vec::new(), Vec::new());
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("aux ") {
            let doc = jsonio::parse(rest.as_bytes()).map_err(|e| e.to_string())?;
            aux = metrics_of(&doc, PER_LAYER.iter().map(|(n, _, _)| *n));
        } else if let Some(rest) = line.strip_prefix("golden ") {
            if let Some((key, hex)) = rest.split_once(' ') {
                golden.push((key.to_string(), u64::from_str_radix(hex, 16).unwrap_or(0)));
            }
        } else if line.starts_with('{') {
            report = jsonio::parse(line.as_bytes()).ok();
        }
    }
    let doc = report.ok_or_else(|| {
        format!("the untraced pass printed no result (exit status {})", output.status)
    })?;
    Ok(Report { layers: aux, golden, ..Report::from_json(&doc) })
}

fn run_traced(args: &Args) -> i32 {
    let mut report = match untraced_child(args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ditto-benchmark: {e}");
            return 1;
        }
    };
    let is_serve = args.workload.starts_with("serve_");
    let obs_file = workloads::scratch_dir().join(format!("obs-{}.json", std::process::id()));
    if is_serve {
        // The server's own aggregates (`serve::obs::global`): summary-only
        // mode folds them in memory and checkpoints this file when idle.
        std::env::set_var("DITTO_OBS_SUMMARY", &obs_file);
    }

    let mut spans = Spans::new();
    let start = Instant::now();
    let (measured, traced_wall_s) = workloads::run_traced(args, &mut spans);
    let covered_ns = start.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_file(&obs_file);

    let base_wall_s = value_of(&report.e2e, "wall_s").unwrap_or(0.0);
    let mut layers: Values = PER_LAYER.iter().map(|(n, _, _)| (*n, 0.0)).collect();
    let mut set = |name: &str, v: f64| match layers.iter_mut().find(|(n, _)| *n == name) {
        Some(slot) => slot.1 = v,
        None => panic!("`{name}` is not a per-layer metric"),
    };
    for (name, v) in measured.iter().chain(&report.layers) {
        set(name, *v);
    }
    set("fail_share", report.failed as f64 / report.attempted.max(1) as f64);
    set("harness.selftime_cover", spans.selftime_cover(covered_ns));
    if base_wall_s > 0.0 {
        set("harness.trace_overhead_share", (traced_wall_s - base_wall_s) / base_wall_s);
        if args.workload == "trace_cold" {
            // The traced pass traces the seven models one after the other:
            // its wall time is the sequential work the pool had to spread.
            let cores = accel::pool::default_workers() as f64;
            set("bench.cold_parallel_eff", traced_wall_s / (cores * base_wall_s));
        }
    }
    report.layers = layers;

    if let Some(dir) = &args.out {
        if let Err(e) = suite::write_workload_report(dir, args, &report, &spans) {
            eprintln!("ditto-benchmark: cannot write the report under {}: {e}", dir.display());
            return 1;
        }
    }
    println!("{}", to_line(&report.to_json(metrics_json(&report.layers, layer_unit), Vec::new())));
    i32::from(!report.correct)
}
