//! The benchmark's own spans: one around each public call it makes into a
//! layer during the traced pass. Spans stay in memory; the suite writes
//! them to `spans.jsonl` when the process ends.
//!
//! A span's *self time* is its duration minus the part of it covered by its
//! children on the same thread. Callbacks the product makes into the
//! benchmark (hook calls, thousands per model run) are not stored one by
//! one: they are *folded* into one row per parent carrying the call count
//! and the summed busy time, which the parent's self time subtracts whole.

use std::time::Instant;

use ditto_core::jsonio::Value;

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span (or one folded group of callback spans).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// 0 is the thread that drives the workload; load-generator threads
    /// count from 1. Self time only subtracts children of the same thread.
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into this row (1 for an ordinary span).
    pub calls: u64,
    /// Time inside the span: `end - start`, or the summed call time of a
    /// folded row (its `start..end` then brackets first to last call).
    pub busy_ns: u64,
}

/// Summed callback time to fold under the span that was open meanwhile.
#[derive(Debug, Clone, Copy, Default)]
pub struct Folded {
    pub calls: u64,
    pub busy_ns: u64,
    pub first_ns: u64,
    pub last_ns: u64,
}

impl Folded {
    /// Adds one call that ran over `start_ns..end_ns`.
    pub fn add(&mut self, start_ns: u64, end_ns: u64) {
        if self.calls == 0 {
            self.first_ns = start_ns;
        }
        self.calls += 1;
        self.busy_ns += end_ns - start_ns;
        self.last_ns = end_ns;
    }
}

/// The recorder of one traced pass. Driven from one thread; work done on
/// other threads is attached afterwards with [`Spans::attach`].
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Nanoseconds since this recorder was created (the spans' clock).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The instant `now_ns` counts from, for threads that time their own
    /// work.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            tid: 0,
            start_ns: now,
            end_ns: now,
            calls: 1,
            busy_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Times `f` under a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records callbacks that ran while the innermost open span was open as
    /// one folded child of it. Nothing is recorded for zero calls.
    pub fn fold(&mut self, name: &str, folded: Folded) {
        self.attach(name, 0, folded);
    }

    /// [`Spans::fold`] for work another thread did (`tid` ≥ 1).
    pub fn attach(&mut self, name: &str, tid: u32, folded: Folded) {
        if folded.calls == 0 {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            tid,
            start_ns: folded.first_ns,
            end_ns: folded.last_ns,
            calls: folded.calls,
            busy_ns: folded.busy_ns,
        });
    }

    /// Self time of every span, in [`Spans::spans`] order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// The spans recorded under `root` (a span without a parent), itself
    /// included: the recorder is driven from one thread, so they are the
    /// contiguous run from `root` to the next parentless span.
    pub fn under(&self, root: SpanId) -> SpanView<'_> {
        let end = (root.0 + 1..self.spans.len())
            .find(|&i| self.spans[i].parent.is_none())
            .unwrap_or(self.spans.len());
        SpanView {
            spans: &self.spans[root.0..end],
            selfs: self.self_times_ns()[root.0..end].to_vec(),
        }
    }

    /// Duration of span `id` in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        self.spans[id.0].busy_ns as f64 / 1e9
    }

    /// Σ self times of the driving thread's spans ÷ `wall_ns`: 1 when the
    /// span tree tiles the traced wall time exactly.
    pub fn selftime_cover(&self, wall_ns: u64) -> f64 {
        let selfs = self.self_times_ns();
        let covered: u64 =
            self.spans.iter().zip(selfs).filter(|(s, _)| s.tid == 0).map(|(_, t)| t).sum();
        covered as f64 / wall_ns.max(1) as f64
    }

    /// One JSON object per span for `spans.jsonl`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let selfs = self.self_times_ns();
        let us = |ns: u64| Value::Num(ns as f64 / 1e3);
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let row = Value::Obj(vec![
                ("workload".into(), Value::Str(workload.into())),
                ("id".into(), Value::Int(i as i128)),
                ("parent".into(), s.parent.map_or(Value::Null, |p| Value::Int(p as i128))),
                ("tid".into(), Value::Int(i128::from(s.tid))),
                ("name".into(), Value::Str(s.name.clone())),
                ("start_us".into(), us(s.start_ns)),
                ("end_us".into(), us(s.end_ns)),
                ("busy_us".into(), us(s.busy_ns)),
                ("self_us".into(), us(self_ns)),
                ("calls".into(), Value::Int(i128::from(s.calls))),
            ]);
            out.push_str(&String::from_utf8(ditto_core::jsonio::to_vec(&row)).expect("UTF-8"));
            out.push('\n');
        }
        out
    }
}

/// The spans of one subtree, for per-layer sums.
pub struct SpanView<'a> {
    spans: &'a [Span],
    selfs: Vec<u64>,
}

impl SpanView<'_> {
    /// Summed duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.busy_ns).sum::<u64>() as f64 / 1e6
    }

    /// Summed self time of the spans named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let named = self.spans.iter().zip(&self.selfs).filter(|(s, _)| s.name == name);
        named.map(|(_, t)| *t).sum::<u64>() as f64 / 1e6
    }

    /// Summed call count of the spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.calls).sum()
    }
}

/// Self time of each span: its busy time minus what its same-thread
/// children cover. Ordinary children cover the union of their intervals
/// (so overlapping children are not subtracted twice); folded children
/// cover their summed busy time.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut folded_ns = vec![0u64; spans.len()];
    for s in spans {
        let Some(p) = s.parent else { continue };
        if s.tid != spans[p].tid {
            continue;
        }
        if s.calls > 1 || s.busy_ns != s.end_ns - s.start_ns {
            folded_ns[p] += s.busy_ns;
        } else {
            intervals[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let iv = &mut intervals[i];
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for &(a, b) in iv.iter() {
                let a = a.max(reach).max(s.start_ns);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.busy_ns.saturating_sub(covered + folded_ns[i])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, tid: u32, start: u64, end: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            tid,
            start_ns: start,
            end_ns: end,
            calls: 1,
            busy_ns: end - start,
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span("parent", None, 0, 0, 10),
            span("a", Some(0), 0, 1, 5),
            span("b", Some(0), 0, 3, 8),
            span("inside_a", Some(1), 0, 2, 4),
        ];
        // Children cover 1..8 = 7 of the parent's 10.
        assert_eq!(self_times_ns(&spans), vec![3, 2, 5, 2]);
    }

    #[test]
    fn folded_and_foreign_thread_children() {
        let mut spans =
            vec![span("run", None, 0, 0, 100), span("other_thread", Some(0), 1, 0, 100)];
        spans.push(Span {
            name: "hook".into(),
            parent: Some(0),
            tid: 0,
            start_ns: 5,
            end_ns: 95,
            calls: 30,
            busy_ns: 60,
        });
        // The folded row takes its busy time, not its bracket; the other
        // thread's span takes nothing from the driving thread.
        assert_eq!(self_times_ns(&spans), vec![40, 100, 60]);
    }

    #[test]
    fn recorder_tiles_the_wall() {
        let mut spans = Spans::new();
        let root = spans.open("root");
        spans.time("child", || std::thread::sleep(std::time::Duration::from_millis(2)));
        let mut f = Folded::default();
        let t = spans.now_ns();
        f.add(t, t + 10);
        f.add(t + 20, t + 25);
        spans.fold("callback", f);
        spans.close(root);
        let wall = spans.spans[0].busy_ns;
        assert!((spans.selftime_cover(wall) - 1.0).abs() < 1e-9);
        let other = spans.open("other_root");
        spans.time("child", || ());
        spans.close(other);
        // A view stops at the next parentless span.
        let view = spans.under(root);
        assert_eq!(view.calls("callback"), 2);
        assert_eq!(view.calls("child"), 1);
        assert!((view.total_ms("callback") - 15e-6).abs() < 1e-12);
        assert!(
            (view.self_ms("root") + view.total_ms("child") + view.total_ms("callback")
                - spans.seconds(root) * 1e3)
                .abs()
                < 1e-9
        );
        assert_eq!(spans.under(other).calls("child"), 1);
        assert_eq!(spans.to_jsonl("w").lines().count(), 5);
    }
}
