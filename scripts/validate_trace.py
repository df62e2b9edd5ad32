#!/usr/bin/env python3
"""Validate a DITTO_TRACE_FILE catapult trace (and reconcile it against the
obs stream's plan profiles).

Usage: validate_trace.py TRACE.json [STREAM.jsonl]

Checks, in order:

1. The trace is valid JSON in the chrome://tracing (catapult) JSON-object
   format: a ``traceEvents`` array of complete-phase events plus the
   ``dittoDroppedEvents`` overflow counter.
2. Every event is well-formed: ``ph`` is ``"X"``, ``ts``/``dur`` are
   non-negative numbers, ``name``/``cat`` non-empty strings, ``pid``/``tid``
   integers, and ``args`` (when present) a non-empty object. Events that
   carry structured args by contract are checked field-by-field:
   ``plan_step:<digest>`` spans must carry ``args.digest`` matching the
   name suffix and a boolean ``args.hooked``, and ``cell:<design>:<model>`` grid spans must carry
   ``design``/``model`` strings matching the name plus integer
   ``design_index``/``model_index``.
3. Span nesting balances per thread for ``cat == "plan"`` events (each
   plan-executor tid runs steps sequentially, so spans must nest or abut —
   never partially overlap). Other categories are exempt: the scheduler's
   retroactive wait spans legitimately overlap the previous job's sim span
   on the same worker thread.
4. With a STREAM given: for each plan digest and hooked flag, the last
   (cumulative) ``plan_profile`` snapshot's per-opcode self-time sum must reconcile with
   the interpreter's total step latency, and — when nothing was dropped —
   the ``plan_step`` span totals in the trace must match ``total_ns``
   within the per-span microsecond-truncation slack.
"""

import json
import sys

# Self-times are measured around each opcode inside the interpreter loop,
# so their sum is bounded by the whole-pass wall time but trails it by the
# loop's own overhead; tiny-scale ops make the overhead share significant.
SELF_TIME_FLOOR = 0.2
SELF_TIME_CEIL = 1.05
# Span ts/dur are truncated to whole microseconds.
TRUNC_SLACK_US = 1


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_events(trace):
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")
    dropped = trace.get("dittoDroppedEvents")
    if not isinstance(dropped, int) or dropped < 0:
        fail(f"dittoDroppedEvents missing or negative: {dropped!r}")
    for i, e in enumerate(events):
        if e.get("ph") != "X":
            fail(f"traceEvents[{i}]: ph {e.get('ph')!r} != 'X'")
        for key in ("ts", "dur"):
            v = e.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                fail(f"traceEvents[{i}].{key}: {v!r} not a non-negative number")
        for key in ("name", "cat"):
            if not isinstance(e.get(key), str) or not e[key]:
                fail(f"traceEvents[{i}].{key}: {e.get(key)!r} not a non-empty string")
        for key in ("pid", "tid"):
            if not isinstance(e.get(key), int) or isinstance(e.get(key), bool):
                fail(f"traceEvents[{i}].{key}: {e.get(key)!r} not an integer")
        if "args" in e and (not isinstance(e["args"], dict) or not e["args"]):
            fail(f"traceEvents[{i}].args: {e['args']!r} not a non-empty object")
        check_args_contract(i, e)
    return events, dropped


def check_args_contract(i, e):
    """Spans that promise structured args must carry them, well-formed and
    consistent with the span name."""
    name = e["name"]
    if name.startswith("plan_step:"):
        digest = name.split(":", 1)[1]
        args = e.get("args")
        if not isinstance(args, dict):
            fail(f"traceEvents[{i}]: plan_step span {name!r} has no args object")
        if args.get("digest") != digest:
            fail(
                f"traceEvents[{i}]: plan_step args.digest {args.get('digest')!r} "
                f"!= name digest {digest!r}"
            )
        if not isinstance(args.get("hooked"), bool):
            fail(f"traceEvents[{i}]: plan_step args.hooked {args.get('hooked')!r} not a bool")
    elif e["cat"] == "grid" and name.startswith("cell:"):
        design, _, model = name[len("cell:"):].partition(":")
        args = e.get("args")
        if not isinstance(args, dict):
            fail(f"traceEvents[{i}]: grid cell span {name!r} has no args object")
        if args.get("design") != design or args.get("model") != model:
            fail(
                f"traceEvents[{i}]: cell args ({args.get('design')!r}, "
                f"{args.get('model')!r}) != name coords ({design!r}, {model!r})"
            )
        for key in ("design_index", "model_index"):
            v = args.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                fail(f"traceEvents[{i}]: cell args.{key}: {v!r} not a non-negative int")


def check_plan_nesting(events):
    """Stack-based balance check per tid, cat == "plan" only."""
    by_tid = {}
    for e in events:
        if e["cat"] == "plan":
            by_tid.setdefault(e["tid"], []).append(e)
    for tid, spans in by_tid.items():
        # Same sort the exporter's own validation uses: by start, widest
        # first on ties, so a parent precedes the children it contains.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # end timestamps of open spans
        for e in spans:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and stack[-1] <= start + TRUNC_SLACK_US:
                stack.pop()
            if stack and end > stack[-1] + TRUNC_SLACK_US:
                fail(
                    f"tid {tid}: plan span {e['name']!r} [{start}, {end}] "
                    f"partially overlaps an open span ending at {stack[-1]}"
                )
            stack.append(end)
    return sum(len(s) for s in by_tid.values())


def load_profiles(stream_path):
    """Last cumulative plan_profile snapshot per (digest, hooked) — hooked
    and hook-free passes of one plan are profiled apart — plus the total
    number of exec spans the stream reported dropped."""
    profiles = {}
    spans_dropped = 0
    with open(stream_path) as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                e = json.loads(line)
            except json.JSONDecodeError as err:
                fail(f"{stream_path}:{n}: not valid JSON: {err}")
            if e.get("event") == "plan_profile":
                profiles[(e["digest"], e["hooked"])] = e
            elif e.get("event") == "plan_spans_dropped":
                spans_dropped += e.get("count", 0)
    return profiles, spans_dropped


def reconcile(profiles, events, trace_dropped, spans_dropped):
    if not profiles:
        fail("stream has no plan_profile events (did any plan execute?)")
    span_totals = {}  # (digest, hooked) -> (count, total_us)
    for e in events:
        if e["cat"] == "plan" and e["name"].startswith("plan_step:"):
            key = (e["name"].split(":", 1)[1], e["args"]["hooked"])
            count, total = span_totals.get(key, (0, 0))
            span_totals[key] = (count + 1, total + e["dur"])
    for key, p in sorted(profiles.items()):
        digest = key[0] + (" (hooked)" if key[1] else "")
        total_ns = p["total_ns"]
        steps = p["steps"]
        if steps < 1 or total_ns < 1:
            fail(f"plan {digest}: degenerate profile {p}")
        self_ns = sum(k["ns"] for k in p["by_kind"].values())
        ratio = self_ns / total_ns
        if not SELF_TIME_FLOOR <= ratio <= SELF_TIME_CEIL:
            fail(
                f"plan {digest}: per-opcode self time {self_ns}ns is {ratio:.3f} "
                f"of total step latency {total_ns}ns (want "
                f"[{SELF_TIME_FLOOR}, {SELF_TIME_CEIL}])"
            )
        # Span totals only reconcile exactly when every step's span made it
        # into the trace buffer.
        if trace_dropped or spans_dropped:
            continue
        count, span_us = span_totals.get(key, (0, 0))
        if count != steps:
            fail(f"plan {digest}: {count} plan_step spans != {steps} profiled steps")
        total_us = total_ns / 1000
        slack = steps * TRUNC_SLACK_US + max(2, 0.02 * total_us)
        if abs(span_us - total_us) > slack:
            fail(
                f"plan {digest}: plan_step span total {span_us}us != profile "
                f"total {total_us:.1f}us (slack {slack:.1f}us)"
            )
        print(
            f"validate_trace: plan {digest}: {steps} steps, self/total "
            f"{ratio:.2f}, span total {span_us}us ~ {total_us:.1f}us"
        )


def main():
    if len(sys.argv) not in (2, 3):
        fail("usage: validate_trace.py TRACE.json [STREAM.jsonl]")
    with open(sys.argv[1]) as f:
        trace = json.load(f)
    events, dropped = check_events(trace)
    plan_count = check_plan_nesting(events)
    cats = sorted({e["cat"] for e in events})
    tids = {e["tid"] for e in events}
    print(
        f"validate_trace: {len(events)} events ({dropped} dropped), "
        f"{len(tids)} threads, cats {cats}, {plan_count} plan spans nested cleanly"
    )
    if len(sys.argv) == 3:
        profiles, spans_dropped = load_profiles(sys.argv[2])
        reconcile(profiles, events, dropped, spans_dropped)
        print(f"validate_trace: reconciled {len(profiles)} plan profile(s) OK")


if __name__ == "__main__":
    main()
