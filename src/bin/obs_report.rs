//! `obs-report` — fold a `DITTO_OBS_STREAM` JSONL event stream into a
//! human-readable whole-stack profile.
//!
//! The stream interleaves serving-layer events (`conn_*`, `request_*`,
//! `cell_*`), suite events (`trace_cache*`, `suite_load`, `plan_compiled`)
//! and telemetry-core events (`span`, `plan_profile`, `kernel_dispatch`,
//! `counters`, `series`). This tool reads one stream file and prints:
//!
//! * the top-N plan opcodes by self time (from the last `plan_profile`
//!   snapshot per plan digest and hooked flag — snapshots are cumulative),
//!   and one row per plan with the share of its time spent outside the
//!   linear sites (hooked passes, where the linear sites time the hook,
//!   get a row of their own);
//! * per-cell (design × model) memo hit rates and the trace-cache
//!   hit/miss/evict accounting per scale;
//! * queue-depth, scheduling-wait, and simulation-latency percentiles
//!   folded from the per-cell events;
//! * kernel dispatch counts per backend and span time by category;
//! * the per-model Ditto-hook stage table (quantize / encode / kernel /
//!   dequant, from the `core.hook.<model>.<stage>_ns` series).
//!
//! ```bash
//! DITTO_OBS_STREAM=/tmp/obs.jsonl cargo run -p serve --bin ditto-serve &
//! # ...traffic...
//! cargo run -p ditto-repro --bin obs-report -- /tmp/obs.jsonl --top 8
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use ditto_core::hist::LogHistogram;
use ditto_core::jsonio::{self, Value};
use ditto_core::runner::HOOK_STAGES;

struct Args {
    stream: PathBuf,
    top: usize,
}

fn parse_args() -> Args {
    let mut stream = None;
    let mut top = 10usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                top = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--top needs a positive integer");
            }
            "--help" | "-h" => {
                println!("usage: obs-report STREAM.jsonl [--top N]");
                std::process::exit(0);
            }
            other if stream.is_none() && !other.starts_with('-') => {
                stream = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown argument `{other}`; usage: obs-report STREAM.jsonl [--top N]");
                std::process::exit(2);
            }
        }
    }
    let stream = stream.unwrap_or_else(|| {
        eprintln!("usage: obs-report STREAM.jsonl [--top N]");
        std::process::exit(2);
    });
    Args { stream, top }
}

fn str_field<'a>(e: &'a Value, key: &str) -> Option<&'a str> {
    match e.get(key) {
        Ok(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn int_field(e: &Value, key: &str) -> Option<u64> {
    match e.get(key) {
        Ok(Value::Int(i)) => u64::try_from(*i).ok(),
        _ => None,
    }
}

/// Per-opcode-kind totals accumulated across every plan's last profile
/// snapshot.
#[derive(Default, Clone)]
struct KindTotals {
    calls: u64,
    ns: u64,
    bytes: u64,
}

/// Per-cell (design × model) event counts.
#[derive(Default)]
struct CellCounts {
    memo_hits: u64,
    coalesced: u64,
    simulated: u64,
}

/// Everything the report prints, folded in one pass over the stream.
#[derive(Default)]
struct Report {
    events: u64,
    unparsed: u64,
    by_kind: BTreeMap<String, u64>,
    first_us: Option<u64>,
    last_us: u64,
    /// Last `plan_profile` snapshot per (digest, hooked); snapshots are
    /// cumulative.
    profiles: BTreeMap<(String, bool), Value>,
    cells: BTreeMap<String, CellCounts>,
    /// `trace_cache` outcome counts per (store kind, scale). Streams from
    /// before the store named no kind: those events were all traces.
    trace_cache: BTreeMap<(String, String), BTreeMap<String, u64>>,
    /// `trace_cache_evict` counts per requester.
    evictions: BTreeMap<String, u64>,
    queue_depth: LogHistogram,
    sched_wait_us: LogHistogram,
    sim_us: LogHistogram,
    /// Span (count, total dur_us) per `cat`.
    span_cats: BTreeMap<String, (u64, u64)>,
    /// Last cumulative `kernel_dispatch` snapshot rows.
    dispatch: Option<Value>,
    /// Last `counters` / `series` snapshots (emitted on flush).
    counters: Option<Value>,
    series: Option<Value>,
}

impl Report {
    fn fold_line(&mut self, line: &str) {
        let Ok(e) = jsonio::parse(line.as_bytes()) else {
            self.unparsed += 1;
            return;
        };
        let Some(kind) = str_field(&e, "event").map(str::to_string) else {
            self.unparsed += 1;
            return;
        };
        self.events += 1;
        *self.by_kind.entry(kind.clone()).or_default() += 1;
        if let Some(t) = int_field(&e, "t_us") {
            self.first_us = Some(self.first_us.map_or(t, |f| f.min(t)));
            self.last_us = self.last_us.max(t);
        }
        let cell_label = || {
            format!(
                "{}:{}",
                str_field(&e, "design").unwrap_or("?"),
                str_field(&e, "model").unwrap_or("?")
            )
        };
        match kind.as_str() {
            "plan_profile" => {
                if let Some(digest) = str_field(&e, "digest") {
                    let hooked = matches!(e.get("hooked"), Ok(Value::Bool(true)));
                    self.profiles.insert((digest.to_string(), hooked), e.clone());
                }
            }
            "cell_memo_hit" => self.cells.entry(cell_label()).or_default().memo_hits += 1,
            "cell_coalesce" => self.cells.entry(cell_label()).or_default().coalesced += 1,
            "cell_enqueue" => {
                self.cells.entry(cell_label()).or_default().simulated += 1;
                if let Some(d) = int_field(&e, "queue_depth") {
                    self.queue_depth.record(d);
                }
            }
            "cell_done" => {
                if let Some(w) = int_field(&e, "sched_wait_us") {
                    self.sched_wait_us.record(w);
                }
                if let Some(s) = int_field(&e, "sim_us") {
                    self.sim_us.record(s);
                }
            }
            "trace_cache" => {
                let kind = str_field(&e, "kind").unwrap_or("trace").to_string();
                let scale = str_field(&e, "scale").unwrap_or("?").to_string();
                let outcome = str_field(&e, "outcome").unwrap_or("?").to_string();
                *self.trace_cache.entry((kind, scale)).or_default().entry(outcome).or_default() +=
                    1;
            }
            "trace_cache_evict" => {
                let who = str_field(&e, "requester").unwrap_or("?").to_string();
                *self.evictions.entry(who).or_default() += 1;
            }
            "span" => {
                let cat = str_field(&e, "cat").unwrap_or("?").to_string();
                let slot = self.span_cats.entry(cat).or_default();
                slot.0 += 1;
                slot.1 += int_field(&e, "dur_us").unwrap_or(0);
            }
            "kernel_dispatch" => self.dispatch = Some(e.clone()),
            "counters" => self.counters = Some(e.clone()),
            "series" => self.series = Some(e.clone()),
            _ => {}
        }
    }

    /// Self time per opcode kind across every plan's latest snapshot.
    fn kind_totals(&self) -> Vec<(String, KindTotals)> {
        let mut totals: BTreeMap<String, KindTotals> = BTreeMap::new();
        for profile in self.profiles.values() {
            let Ok(Value::Obj(kinds)) = profile.get("by_kind") else { continue };
            for (name, v) in kinds {
                let t = totals.entry(name.clone()).or_default();
                t.calls += int_field(v, "calls").unwrap_or(0);
                t.ns += int_field(v, "ns").unwrap_or(0);
                t.bytes += int_field(v, "bytes").unwrap_or(0);
            }
        }
        let mut out: Vec<_> = totals.into_iter().collect();
        out.sort_by(|a, b| b.1.ns.cmp(&a.1.ns).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

/// The opcode kinds that execute linear layers: where a hooked pass times
/// the hook instead of the f32 kernel.
const LINEAR_KINDS: [&str; 4] = ["conv2d_im2col", "linear", "matmul_qk", "matmul_pv"];

/// Share of a `plan_profile`'s per-kind time spent outside [`LINEAR_KINDS`]
/// — on a hooked plan, what a hook cannot speed up.
fn other_share(profile: &Value) -> f64 {
    let Ok(Value::Obj(kinds)) = profile.get("by_kind") else { return 0.0 };
    let (mut other, mut all) = (0u64, 0u64);
    for (name, v) in kinds {
        let ns = int_field(v, "ns").unwrap_or(0);
        all += ns;
        if !LINEAR_KINDS.contains(&name.as_str()) {
            other += ns;
        }
    }
    if all == 0 {
        0.0
    } else {
        other as f64 / all as f64
    }
}

/// Per-model hook-stage rows `(model, calls, [stage ms])` from a `series`
/// snapshot, in the stream's model order.
fn hook_stage_rows(series: &Value) -> Vec<(String, u64, [f64; 4])> {
    let Ok(Value::Obj(values)) = series.get("values") else { return Vec::new() };
    let mut rows: Vec<(String, u64, [f64; 4])> = Vec::new();
    for (name, summary) in values {
        let Some((model, stage)) = name
            .strip_prefix("core.hook.")
            .and_then(|rest| rest.strip_suffix("_ns"))
            .and_then(|rest| rest.rsplit_once('.'))
        else {
            continue;
        };
        let Some(col) = HOOK_STAGES.iter().position(|&s| s == stage) else { continue };
        let calls = int_field(summary, "count").unwrap_or(0);
        let mean_ns = match summary.get("mean") {
            Ok(Value::Num(m)) => *m,
            Ok(Value::Int(m)) => *m as f64,
            _ => 0.0,
        };
        let row = match rows.iter_mut().find(|r| r.0 == model) {
            Some(row) => row,
            None => {
                rows.push((model.to_string(), 0, [0.0; 4]));
                rows.last_mut().expect("just pushed")
            }
        };
        row.1 = row.1.max(calls);
        row.2[col] = mean_ns * calls as f64 / 1e6;
    }
    rows
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn print_hist(name: &str, h: &LogHistogram) {
    if h.count() == 0 {
        return;
    }
    println!(
        "  {name:<14} n={:<7} p50={:<8} p90={:<8} p99={:<8} max={}",
        h.count(),
        h.percentile(50.0),
        h.percentile(90.0),
        h.percentile(99.0),
        h.max()
    );
}

fn print_report(r: &Report, top: usize) {
    println!("== stream ==");
    println!(
        "  {} events ({} unparsed lines), {:.3}s covered",
        r.events,
        r.unparsed,
        r.first_us.map_or(0.0, |f| (r.last_us.saturating_sub(f)) as f64 / 1e6)
    );
    for (kind, n) in &r.by_kind {
        println!("  {kind:<20} {n}");
    }

    let kinds = r.kind_totals();
    if !kinds.is_empty() {
        let total_ns: u64 = kinds.iter().map(|(_, t)| t.ns).sum();
        println!(
            "\n== top {} opcodes by self time ({} plans) ==",
            top.min(kinds.len()),
            r.profiles.len()
        );
        for (name, t) in kinds.iter().take(top) {
            println!(
                "  {name:<22} {:>10.3} ms {:>5.1}%  {:>10} calls  {:>12} bytes",
                t.ns as f64 / 1e6,
                pct(t.ns, total_ns),
                t.calls,
                t.bytes
            );
        }
        for ((digest, hooked), profile) in &r.profiles {
            if let (Some(steps), Some(total), Some(arena)) = (
                int_field(profile, "steps"),
                int_field(profile, "total_ns"),
                int_field(profile, "arena_f32"),
            ) {
                println!(
                    "  plan {digest}{}: {steps} steps, {:.3} ms total, {:.1}% outside linear \
                     sites, arena high-water {arena} f32",
                    if *hooked { " (hooked)" } else { "" },
                    total as f64 / 1e6,
                    100.0 * other_share(profile)
                );
            }
        }
    }

    if !r.cells.is_empty() {
        println!("\n== per-cell memo hit rates ==");
        for (label, c) in &r.cells {
            let total = c.memo_hits + c.coalesced + c.simulated;
            println!(
                "  {label:<22} {:>5.1}% hit ({} memo + {} coalesced / {} cells, {} simulated)",
                pct(c.memo_hits + c.coalesced, total),
                c.memo_hits,
                c.coalesced,
                total,
                c.simulated
            );
        }
    }

    if !r.trace_cache.is_empty() || !r.evictions.is_empty() {
        println!("\n== trace cache ==");
        for ((kind, scale), outcomes) in &r.trace_cache {
            let total: u64 = outcomes.values().sum();
            let hits = outcomes.get("hit").copied().unwrap_or(0);
            let detail: Vec<String> = outcomes.iter().map(|(o, n)| format!("{n} {o}")).collect();
            println!(
                "  {kind:<10} scale {scale:<8} {:>5.1}% hit ({})",
                pct(hits, total),
                detail.join(", ")
            );
        }
        for (who, n) in &r.evictions {
            println!("  {n} eviction(s) forced by {who} loads");
        }
    }

    if r.queue_depth.count() + r.sched_wait_us.count() + r.sim_us.count() > 0 {
        println!("\n== scheduler ==");
        print_hist("queue_depth", &r.queue_depth);
        print_hist("sched_wait_us", &r.sched_wait_us);
        print_hist("sim_us", &r.sim_us);
    }

    if !r.span_cats.is_empty() {
        println!("\n== span time by category ==");
        for (cat, (n, dur_us)) in &r.span_cats {
            println!("  {cat:<10} {n:>7} spans {:>12.3} ms", *dur_us as f64 / 1e3);
        }
    }

    if let Some(d) = &r.dispatch {
        if let Ok(Value::Arr(rows)) = d.get("rows") {
            println!("\n== kernel dispatch ==");
            for row in rows {
                println!(
                    "  {:<22} {:<12} {:>10} calls",
                    str_field(row, "kernel").unwrap_or("?"),
                    str_field(row, "backend").unwrap_or("?"),
                    int_field(row, "count").unwrap_or(0)
                );
            }
        }
    }

    if let Some(c) = &r.counters {
        if let Ok(Value::Obj(values)) = c.get("values") {
            println!("\n== counters (final snapshot) ==");
            for (name, v) in values {
                if let Value::Int(n) = v {
                    println!("  {name:<28} {n}");
                }
            }
        }
    }
    if let Some(s) = &r.series {
        let rows = hook_stage_rows(s);
        if !rows.is_empty() {
            println!("\n== Ditto hook stages per model (ms) ==");
            println!(
                "  {:<8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "model",
                "calls",
                HOOK_STAGES[0],
                HOOK_STAGES[1],
                HOOK_STAGES[2],
                HOOK_STAGES[3],
                "total"
            );
            for (model, calls, ms) in &rows {
                println!(
                    "  {model:<8} {calls:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                    ms[0],
                    ms[1],
                    ms[2],
                    ms[3],
                    ms.iter().sum::<f64>()
                );
            }
        }
        if let Ok(Value::Obj(values)) = s.get("values") {
            println!("\n== series (final snapshot) ==");
            for (name, v) in values {
                println!(
                    "  {name:<28} n={} p50={} p99={} max={}",
                    int_field(v, "count").unwrap_or(0),
                    int_field(v, "p50").unwrap_or(0),
                    int_field(v, "p99").unwrap_or(0),
                    int_field(v, "max").unwrap_or(0)
                );
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let content = std::fs::read_to_string(&args.stream)
        .unwrap_or_else(|e| panic!("read {}: {e}", args.stream.display()));
    let mut report = Report::default();
    for line in content.lines().filter(|l| !l.trim().is_empty()) {
        report.fold_line(line);
    }
    if report.events == 0 {
        eprintln!("obs-report: no events in {}", args.stream.display());
        std::process::exit(1);
    }
    print_report(&report, args.top);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_profiles_cells_and_scheduler_events() {
        let mut r = Report::default();
        for line in [
            r#"{"event":"plan_profile","t_us":10,"digest":"00ab","steps":1,"total_ns":500,"arena_f32":8,"by_kind":{"Conv2d":{"calls":1,"ns":300,"bytes":64}}}"#,
            // A later cumulative snapshot for the same digest supersedes.
            r#"{"event":"plan_profile","t_us":20,"digest":"00ab","steps":2,"total_ns":900,"arena_f32":8,"by_kind":{"Conv2d":{"calls":2,"ns":600,"bytes":128},"Add":{"calls":2,"ns":100,"bytes":8}}}"#,
            // Hooked passes of the same plan are a profile of their own.
            r#"{"event":"plan_profile","t_us":25,"digest":"00ab","hooked":true,"steps":1,"total_ns":400,"arena_f32":8,"by_kind":{"linear":{"calls":1,"ns":300,"bytes":64},"silu":{"calls":1,"ns":100,"bytes":8}}}"#,
            r#"{"event":"cell_memo_hit","t_us":30,"design":"Ditto","model":"DDPM","scale":"tiny"}"#,
            r#"{"event":"cell_enqueue","t_us":31,"design":"Ditto","model":"DDPM","scale":"tiny","priority":0,"queue_depth":3}"#,
            r#"{"event":"cell_done","t_us":40,"design":"Ditto","model":"DDPM","scale":"tiny","sched_wait_us":7,"sim_us":100,"ok":true}"#,
            r#"{"event":"trace_cache","t_us":5,"kind":"trace","model":"DDPM","scale":"tiny","outcome":"hit","us":42}"#,
            // A stream from before the store names no kind: a trace.
            r#"{"event":"trace_cache","t_us":5,"model":"SDM","scale":"tiny","outcome":"traced","us":9}"#,
            r#"{"event":"trace_cache","t_us":5,"kind":"similarity","model":"SDM","scale":"tiny","outcome":"hit","us":7}"#,
            r#"{"event":"trace_cache_evict","t_us":6,"file":"trace-DDPM.bin","bytes":10,"requester":"tiny"}"#,
            r#"{"event":"span","t_us":50,"cat":"sched","name":"sim:Ditto:DDPM","ts_us":40,"dur_us":100,"tid":1}"#,
            "not json at all",
        ] {
            r.fold_line(line);
        }
        assert_eq!(r.events, 11);
        assert_eq!(r.unparsed, 1);
        // Only the last snapshot per (digest, hooked) counts, and kinds sort
        // by ns.
        assert_eq!(r.profiles.len(), 2);
        let kinds = r.kind_totals();
        assert_eq!(kinds.len(), 4);
        assert_eq!(kinds[0].0, "Conv2d");
        assert_eq!(kinds[0].1.ns, 600);
        assert_eq!(kinds[1].0, "linear");
        let hooked = &r.profiles[&("00ab".to_string(), true)];
        assert_eq!(other_share(hooked), 0.25, "silu is the only non-linear kind");
        let cell = &r.cells["Ditto:DDPM"];
        assert_eq!((cell.memo_hits, cell.coalesced, cell.simulated), (1, 0, 1));
        assert_eq!(r.queue_depth.count(), 1);
        assert_eq!(r.sched_wait_us.max(), 7);
        assert_eq!(r.sim_us.max(), 100);
        let cache = |kind: &str| &r.trace_cache[&(kind.to_string(), "tiny".to_string())];
        assert_eq!((cache("trace")["hit"], cache("trace")["traced"]), (1, 1));
        assert_eq!(cache("similarity")["hit"], 1);
        assert_eq!(r.evictions["tiny"], 1);
        assert_eq!(r.span_cats["sched"], (1, 100));
        assert_eq!(r.first_us, Some(5));
        assert_eq!(r.last_us, 50);
    }

    #[test]
    fn hook_stage_series_fold_into_one_row_per_model() {
        let series = jsonio::parse(
            br#"{"event":"series","values":{
                "core.hook.DDPM.quantize_ns":{"count":4,"mean":250000.0,"p50":1,"p90":1,"p99":1,"max":1},
                "core.hook.DDPM.kernel_ns":{"count":4,"mean":500000.0,"p50":1,"p90":1,"p99":1,"max":1},
                "pool.queue_depth":{"count":9,"mean":2.0,"p50":1,"p90":1,"p99":1,"max":1},
                "core.hook.DiT.encode_ns":{"count":2,"mean":1000000.0,"p50":1,"p90":1,"p99":1,"max":1}}}"#,
        )
        .unwrap();
        let rows = hook_stage_rows(&series);
        assert_eq!(rows.len(), 2, "one row per model, foreign series ignored");
        assert_eq!(rows[0], ("DDPM".to_string(), 4, [1.0, 0.0, 2.0, 0.0]));
        assert_eq!(rows[1], ("DiT".to_string(), 2, [0.0, 2.0, 0.0, 0.0]));
    }
}
