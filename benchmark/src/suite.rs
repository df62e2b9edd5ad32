//! Suite mode: every workload in its fixed order, each in a fresh process,
//! into one run directory — `benchmark/runs/<stamp>/summary.json` beside
//! `spans.jsonl` — plus the `--aa` self-check and golden regeneration.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use ditto_core::jsonio::{self, Value};

use crate::harness::{value_of, END_TO_END, PER_LAYER, WORKLOADS};
use crate::spans::Spans;
use crate::workloads::{scratch_dir, Args, GOLDEN_SEED};
use crate::{e2e_unit, layer_unit, metrics_json, Report};

/// The share of phase-A requests that may miss a serve workload's latency
/// limit: the limit is fixed on p95.
const SLO_MISS_MAX: f64 = 0.05;

/// Writes `<dir>/<workload>.json` (both metric sets of one workload) and
/// appends the traced pass's spans to `<dir>/spans.jsonl`.
pub fn write_workload_report(
    dir: &Path,
    args: &Args,
    report: &Report,
    spans: &Spans,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let doc = report.to_json(
        metrics_json(&report.e2e, e2e_unit),
        vec![
            ("workload".into(), Value::Str(args.workload.clone())),
            ("per_layer".into(), metrics_json(&report.layers, layer_unit)),
        ],
    );
    std::fs::write(dir.join(format!("{}.json", args.workload)), jsonio::to_vec_pretty(&doc))?;
    let mut file =
        std::fs::OpenOptions::new().create(true).append(true).open(dir.join("spans.jsonl"))?;
    file.write_all(spans.to_jsonl(&args.workload).as_bytes())?;
    file.flush()
}

/// One workload's report as read back from its report file.
struct WorkloadResult {
    workload: &'static str,
    report: Report,
    doc: Value,
}

fn benchmark_json() -> Option<Value> {
    jsonio::parse(&std::fs::read("BENCHMARK.json").ok()?).ok()
}

/// `run_seconds` of `BENCHMARK.json` (18 when run away from the repo root).
pub fn run_seconds() -> f64 {
    match benchmark_json().as_ref().map(|d| d.get("run_seconds")) {
        Some(Ok(Value::Int(s))) => *s as f64,
        _ => 18.0,
    }
}

/// The regression bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Vec<(String, f64)> {
    let Some(doc) = benchmark_json() else { return Vec::new() };
    let Ok(Value::Arr(metrics)) = doc.get("end_to_end") else { return Vec::new() };
    metrics
        .iter()
        .filter_map(|m| {
            let Ok(Value::Str(name)) = m.get("name") else { return None };
            let bound = match m.get("bound") {
                Ok(Value::Num(b)) => *b,
                Ok(Value::Int(b)) => *b as f64,
                _ => return None,
            };
            Some((name.clone(), bound))
        })
        .collect()
}

/// Runs the selected workloads once, each in a fresh process, into `dir`.
fn run_set(args: &Args, dir: &Path) -> Result<Vec<WorkloadResult>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for workload in WORKLOADS.iter().filter(|w| args.workload.is_empty() || args.workload == **w) {
        eprintln!("ditto-benchmark: running {workload} ...");
        let status = Command::new(&exe)
            .args(["--workload", workload, "--trace", "1"])
            .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
            .arg("--out")
            .arg(dir)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot start {workload}: {e}"))?;
        let path = dir.join(format!("{workload}.json"));
        let doc = std::fs::read(&path)
            .ok()
            .and_then(|bytes| jsonio::parse(&bytes).ok())
            .ok_or_else(|| format!("{workload} left no report ({status})"))?;
        let report = Report::from_json(&doc);
        for (name, unit) in END_TO_END {
            println!("{workload} {name} {} {unit}", value_of(&report.e2e, name).unwrap_or(0.0));
        }
        for (name, unit, _) in PER_LAYER {
            println!("{workload} {name} {} {unit}", value_of(&report.layers, name).unwrap_or(0.0));
        }
        let _ = std::fs::remove_file(path);
        results.push(WorkloadResult { workload, report, doc });
    }
    Ok(results)
}

fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn write_summary(dir: &Path, args: &Args, sets: &[Vec<WorkloadResult>]) -> std::io::Result<()> {
    let sets_json =
        sets.iter().map(|set| Value::Arr(set.iter().map(|r| r.doc.clone()).collect())).collect();
    let fields = vec![
        ("schema", Value::Str("ditto-benchmark-summary/2".into())),
        ("git_head", Value::Str(git_head())),
        ("nproc", Value::Int(accel::pool::default_workers() as i128)),
        ("backend", Value::Str(tensor::backend::active().resolved_name())),
        ("seed", Value::Int(args.seed.into())),
        ("seconds", Value::Num(args.seconds)),
        ("sets", Value::Arr(sets_json)),
    ];
    let doc = Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    std::fs::write(dir.join("summary.json"), jsonio::to_vec_pretty(&doc))
}

/// What every set must satisfy on its own: outputs correct, no operation
/// failed, and the serve latency limits met at the percentile they are
/// fixed on.
fn healthy(set: &[WorkloadResult]) -> bool {
    let mut ok = true;
    for r in set {
        let layer = |name| value_of(&r.report.layers, name).unwrap_or(0.0);
        if !r.report.correct || r.report.failed > 0 || layer("fail_share") > 0.0 {
            eprintln!(
                "ditto-benchmark suite: {}: outputs did not match or operations failed \
                 (fail_share {})",
                r.workload,
                layer("fail_share")
            );
            ok = false;
        }
        if layer("slo_miss_share") > SLO_MISS_MAX {
            eprintln!(
                "ditto-benchmark suite: {}: slo_miss_share {} is over {SLO_MISS_MAX}",
                r.workload,
                layer("slo_miss_share")
            );
            ok = false;
        }
    }
    ok
}

/// The `--aa` verdict: two sets of runs of one build must agree within each
/// end-to-end metric's bound, and every exact count must be identical.
fn compare_sets(a: &[WorkloadResult], b: &[WorkloadResult]) -> bool {
    let bounds = bounds();
    let mut agree = true;
    println!("--- A/A: workload metric first second rel_diff bound verdict");
    for (ra, rb) in a.iter().zip(b) {
        for (name, va) in &ra.report.e2e {
            let vb = value_of(&rb.report.e2e, name).unwrap_or(0.0);
            let rel = (va - vb).abs() / va.min(vb).max(f64::MIN_POSITIVE);
            let bound = bounds.iter().find(|(n, _)| n == name).map_or(0.0, |(_, b)| *b);
            let ok = rel <= bound;
            agree &= ok;
            println!(
                "{} {name} {va} {vb} {rel:.4} {bound} {}",
                ra.workload,
                if ok { "ok" } else { "BREACH" }
            );
        }
        for (name, _, exact) in PER_LAYER {
            let get = |r: &WorkloadResult| value_of(&r.report.layers, name).unwrap_or(0.0);
            if ["fail_share", "slo_miss_share"].contains(&name) {
                println!("{} {name} {} {} (no bound: see above)", ra.workload, get(ra), get(rb));
            }
            if exact && get(ra).to_bits() != get(rb).to_bits() {
                agree = false;
                println!("{} {name} {} {} exact count DIFFERS", ra.workload, get(ra), get(rb));
            }
        }
    }
    agree
}

/// `suite [--seed N] [--workload NAME] [--seconds S] [--aa]`.
pub fn run(args: &Args) -> i32 {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let dir: PathBuf = scratch_dir().join(format!("{stamp}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("ditto-benchmark suite: cannot create {}: {e}", dir.display());
        return 1;
    }
    let mut sets = Vec::new();
    for _ in 0..if args.aa { 2 } else { 1 } {
        match run_set(args, &dir) {
            Ok(set) => sets.push(set),
            Err(e) => {
                eprintln!("ditto-benchmark suite: {e}");
                return 1;
            }
        }
    }
    if let Err(e) = write_summary(&dir, args, &sets) {
        eprintln!("ditto-benchmark suite: cannot write summary.json: {e}");
        return 1;
    }
    eprintln!("ditto-benchmark: wrote {}", dir.join("summary.json").display());
    let mut ok = true;
    for set in &sets {
        ok &= healthy(set);
    }
    if args.aa && !compare_sets(&sets[0], &sets[1]) {
        eprintln!("ditto-benchmark suite: the A/A self-check failed");
        ok = false;
    }
    i32::from(!ok)
}

/// Prints a fresh `golden.json` to stdout: every digest the batch workloads
/// check, recorded at the golden seed.
pub fn regen_golden() -> i32 {
    let mut recorded = Vec::new();
    for workload in ["trace_cold", "trace_delta", "denoise_plain", "figures_warm"] {
        eprintln!("ditto-benchmark: recording {workload} ...");
        let args = Args {
            workload: workload.into(),
            seed: GOLDEN_SEED,
            seconds: 1.0,
            trace: false,
            out: None,
            record_golden: true,
            aa: false,
        };
        match crate::untraced_child(&args) {
            Ok(report) if report.correct => recorded.extend(report.golden),
            Ok(_) => {
                eprintln!("ditto-benchmark: {workload} failed its self-consistency checks");
                return 1;
            }
            Err(e) => {
                eprintln!("ditto-benchmark: {e}");
                return 1;
            }
        }
    }
    print!("{}", crate::golden::render(recorded));
    0
}
