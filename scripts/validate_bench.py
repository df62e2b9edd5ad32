#!/usr/bin/env python3
"""Validate a freshly emitted perfbench document against a committed baseline.

Usage: validate_bench.py EMITTED.json BASELINE.json

The committed ``BENCH_kernels.json`` / ``BENCH_serve.json`` baselines define
the *schema*; this script checks a fresh ``perfbench`` run emits the same
shape (identical key sets at every object level, matching value types,
full kernel/shape coverage) with sane value ranges. It deliberately does
NOT compare the numbers themselves — perf values are host-dependent, and
the committed trajectory is reviewed like a changelog, not asserted by CI —
with three exceptions, all same-run, same-host ratios of the committed
baseline: its executor ``speedup`` (plan vs tree oracle) must not sit below
0.95, a ``simd:*`` ``int_matmul`` rate at 50 % zero activations must not
sit below 0.8 x its rate at 0 % on the same shape, and a ``simd:avx2`` GeLU
must run at least 2 x the host libm's rate.
"""

import json
import math
import sys


def fail(msg):
    print(f"validate_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def typename(v):
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return "number"
    if isinstance(v, str):
        return "string"
    if isinstance(v, list):
        return "array"
    if isinstance(v, dict):
        return "object"
    return "null"


def same_structure(new, base, path):
    """Identical key sets and value types, recursively. Array elements are
    checked against the baseline element with the same key set — rows may
    be heterogeneous (conv result rows carry ``class`` and
    ``speedup_vs_im2col``; matmul rows do not) and lengths may differ (a
    host without AVX2 legitimately emits fewer kernel result rows)."""
    if typename(new) != typename(base):
        fail(f"{path}: type {typename(new)} != baseline {typename(base)}")
    if isinstance(base, dict):
        if set(new) != set(base):
            missing = sorted(set(base) - set(new))
            extra = sorted(set(new) - set(base))
            fail(f"{path}: key mismatch (missing {missing}, extra {extra})")
        for k in base:
            same_structure(new[k], base[k], f"{path}.{k}")
    elif isinstance(base, list) and base:
        if not new:
            fail(f"{path}: empty array (baseline has {len(base)} entries)")
        exemplars = {
            frozenset(item): item for item in base if isinstance(item, dict)
        }
        for i, item in enumerate(new):
            if isinstance(item, dict) and exemplars:
                exemplar = exemplars.get(frozenset(item))
                if exemplar is None:
                    fail(
                        f"{path}[{i}]: key set {sorted(item)} matches no "
                        f"baseline row shape"
                    )
                same_structure(item, exemplar, f"{path}[{i}]")
            else:
                same_structure(item, base[0], f"{path}[{i}]")


def sane(x, path, lo, hi):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        fail(f"{path}: {x!r} is not a number")
    if not (math.isfinite(x) and lo <= x <= hi):
        fail(f"{path}: {x} outside sane range [{lo}, {hi}]")


def hist_sane(h, path):
    sane(h["count"], f"{path}.count", 1, 1e9)
    sane(h["mean"], f"{path}.mean", 0, 1e12)
    for p in ("p50", "p90", "p99", "max"):
        sane(h[p], f"{path}.{p}", 0, 1e12)
    if not h["p50"] <= h["p90"] <= h["p99"] <= h["max"]:
        fail(f"{path}: percentiles not monotone: {h}")


def check_kernels(new, base):
    if set(new["shapes"]) != set(base["shapes"]):
        fail(f"shapes {new['shapes']} != baseline {base['shapes']}")
    # conv_shapes entries are {shape, class} objects: the measured grid AND
    # the committed shape-class routing must both match the baseline.
    conv_classes = {c["shape"]: c["class"] for c in new["conv_shapes"]}
    base_classes = {c["shape"]: c["class"] for c in base["conv_shapes"]}
    if conv_classes != base_classes:
        fail(f"conv_shapes {conv_classes} != baseline {base_classes}")
    if not set(conv_classes.values()) <= {"direct_small", "direct_pointwise", "im2col"}:
        fail(f"unknown conv class in {sorted(set(conv_classes.values()))}")
    for portable in ("scalar", "tiled"):
        if portable not in new["backends"]:
            fail(f"the {portable} backend must always be measured")
    # Coverage: every (kernel, shape) pair the baseline measured must be
    # measured for every backend the *new* run reports. Backends come from
    # the new document because the SIMD-level rows are host-dependent (a
    # host without AVX2 legitimately emits fewer of them); kernel/shape
    # pairs come from the baseline because conv kernels only run at conv
    # shapes (the grid is not a full cartesian product).
    # Integer rows are measured once per zero share of the activation
    # operand (`zeros_pct`), which is part of a point's identity.
    def point(r):
        return (r["kernel"], r["shape"], r.get("zeros_pct"))

    pairs = {point(r) for r in base["results"]}
    want = {(*p, b) for p in pairs for b in new["backends"]}
    got = {(*point(r), r["backend"]) for r in new["results"]}
    if got != want:
        fail(
            f"results coverage mismatch (missing {sorted(want - got, key=str)}, "
            f"unexpected {sorted(got - want, key=str)})"
        )
    check_zero_share_floor(base)
    by_pair = {}
    for r in new["results"]:
        by_pair[(*point(r), r["backend"])] = r["gflops"]
    for i, r in enumerate(new["results"]):
        is_int = r["kernel"] in ("int_matmul", "delta_matmul_update")
        if is_int != ("zeros_pct" in r):
            fail(f"results[{i}]: zeros_pct inconsistent with kernel {r['kernel']!r}")
        if is_int:
            sane(r["zeros_pct"], f"results[{i}].zeros_pct", 0, 100)
        sane(r["gflops"], f"results[{i}].gflops", 1e-3, 1e5)
        # The speedup columns are derived, so recompute them: baselines
        # are same-document rows and the JSON numbers round-trip exactly
        # (shortest-representation float printing), so a tight relative
        # tolerance only absorbs the division itself.
        for column, baseline in (("speedup_vs_scalar", "scalar"), ("speedup_vs_tiled", "tiled")):
            speedup = r[column]
            sane(speedup, f"results[{i}].{column}", 1e-3, 1e4)
            want_speedup = r["gflops"] / by_pair[(*point(r), baseline)]
            if abs(speedup - want_speedup) > 1e-9 * want_speedup:
                fail(
                    f"results[{i}]: {column} {speedup} != recomputed {want_speedup}"
                )
            if r["backend"] == baseline and speedup != 1.0:
                fail(f"results[{i}]: {baseline} {column} must be exactly 1.0")
        # Conv rows additionally carry the dispatch class (must agree with
        # the conv_shapes table) and the direct-vs-lowered speedup column,
        # whose baseline is the same shape+backend's forced-im2col row.
        is_conv = r["kernel"].startswith("conv2d")
        if is_conv != ("class" in r) or is_conv != ("speedup_vs_im2col" in r):
            fail(f"results[{i}]: conv columns inconsistent with kernel {r['kernel']!r}")
        if is_conv:
            if r["class"] != conv_classes.get(r["shape"]):
                fail(
                    f"results[{i}]: class {r['class']!r} != conv_shapes entry "
                    f"{conv_classes.get(r['shape'])!r} for {r['shape']}"
                )
            speedup = r["speedup_vs_im2col"]
            sane(speedup, f"results[{i}].speedup_vs_im2col", 1e-3, 1e4)
            want_speedup = r["gflops"] / by_pair[("conv2d_im2col", r["shape"], None, r["backend"])]
            if abs(speedup - want_speedup) > 1e-9 * want_speedup:
                fail(
                    f"results[{i}]: speedup_vs_im2col {speedup} != "
                    f"recomputed {want_speedup}"
                )
            if r["kernel"] == "conv2d_im2col" and speedup != 1.0:
                fail(f"results[{i}]: im2col speedup_vs_im2col must be exactly 1.0")
    print(
        f"validate_bench: kernels OK — {len(new['results'])} points, "
        f"backends {new['backends']}"
    )
    check_executor(new, base)
    check_encode(new, base)
    check_activations(new, base)


# A committed `simd:avx2` GeLU slower than this multiple of the host libm's
# rate fails the check: the exact vector tanh measured 3.5-7x, and a kernel
# that fell back to one scalar call per element would show here first.
GELU_AVX2_FLOOR = 2.0


def check_activations(new, base):
    """The activations section times each activation at its Small shape in
    ns per element for the host libm, the scalar ports and every SIMD level
    (min and median of interleaved trials). Coverage must match the
    baseline — every (function, shape) has a libm, a port and one row per
    level the new run measured — the minimum cannot exceed the median, the
    speedup column is recomputed from the raw ns, and a committed
    ``simd:avx2`` GeLU must run at least ``GELU_AVX2_FLOOR`` x libm."""
    levels = sorted({r["impl"] for r in new["activations"]} - {"libm", "port"})
    if not all(level.startswith("simd:") for level in levels):
        fail(f"activations: unknown impls {levels}")
    cells = {(r["function"], r["shape"]) for r in base["activations"]}
    want = {(*c, i) for c in cells for i in ["libm", "port", *levels]}
    got = {(r["function"], r["shape"], r["impl"]) for r in new["activations"]}
    if got != want:
        fail(
            f"activations coverage mismatch (missing {sorted(want - got)}, "
            f"unexpected {sorted(got - want)})"
        )
    libm = {
        (r["function"], r["shape"]): r["ns_per_elem_min"]
        for r in new["activations"]
        if r["impl"] == "libm"
    }
    for i, r in enumerate(new["activations"]):
        path = f"activations[{i}]({r['function']}/{r['shape']}/{r['impl']})"
        rows, cols = (int(x) for x in r["shape"].split("x"))
        if rows * cols != r["elements"]:
            fail(f"{path}: elements {r['elements']} != {rows}*{cols}")
        sane(r["trials"], f"{path}.trials", 3, 1e3)
        lo, mid = r["ns_per_elem_min"], r["ns_per_elem_median"]
        sane(lo, f"{path}.ns_per_elem_min", 1e-4, 1e6)
        sane(mid, f"{path}.ns_per_elem_median", 1e-4, 1e6)
        if lo > mid:
            fail(f"{path}: ns_per_elem_min {lo} > ns_per_elem_median {mid}")
        speedup = r["speedup_vs_libm"]
        sane(speedup, f"{path}.speedup_vs_libm", 1e-3, 1e4)
        want_speedup = libm[(r["function"], r["shape"])] / lo
        if abs(speedup - want_speedup) > 1e-9 * want_speedup:
            fail(f"{path}: speedup_vs_libm {speedup} != recomputed {want_speedup}")
    for r in base["activations"]:
        if r["function"] == "gelu" and r["impl"] == "simd:avx2":
            if r["speedup_vs_libm"] < GELU_AVX2_FLOOR:
                fail(
                    f"committed simd:avx2 gelu {r['shape']}: {r['speedup_vs_libm']:.2f}x "
                    f"libm is below the {GELU_AVX2_FLOOR}x floor"
                )
    gelu = [r for r in new["activations"] if r["function"] == "gelu"]
    best = max(gelu, key=lambda r: r["speedup_vs_libm"])
    print(
        f"validate_bench: activations OK — {len(new['activations'])} rows, "
        f"gelu best {best['speedup_vs_libm']:.1f}x libm ({best['impl']})"
    )


# A committed `simd:*` `int_matmul` rate at 50 % zero activations below
# this share of its 0 % rate on the same shape fails the check: the packed
# core runs at one rate whatever the sparsity, and a per-element zero scan
# creeping back in (3-10 GMAC/s at 30-70 % zeros against ~20 dense, before
# the core) would show here first.
ZERO_SHARE_FLOOR = 0.8


def check_zero_share_floor(base):
    rate = {
        (r["shape"], r["backend"], r["zeros_pct"]): r["gflops"]
        for r in base["results"]
        if r["kernel"] == "int_matmul" and r["backend"].startswith("simd:")
    }
    for (shape, backend, zeros_pct), dense in sorted(rate.items()):
        if zeros_pct != 0:
            continue
        half = rate.get((shape, backend, 50))
        if half is None:
            fail(f"committed int_matmul {shape} {backend}: no 50 % zeros row")
        if half < ZERO_SHARE_FLOOR * dense:
            fail(
                f"committed int_matmul {shape} {backend}: {half:.1f} GFLOP/s at 50 % "
                f"zeros is below {ZERO_SHARE_FLOOR} x the {dense:.1f} at 0 %"
            )


def check_encode(new, base):
    """The encode section times the fused Encoding Unit pass against the
    scalar oracle per operand shape. Coverage must match the baseline, the
    minimum over the interleaved trials cannot exceed their median, and the
    derived GB/s and speedup columns are recomputed from the raw ns."""
    got = [e["shape"] for e in new["encode"]]
    want = [e["shape"] for e in base["encode"]]
    if got != want:
        fail(f"encode shapes {got} != baseline {want}")
    for i, e in enumerate(new["encode"]):
        path = f"encode[{i}]({e['shape']})"
        sane(e["bytes"], f"{path}.bytes", 1, 1e9)
        rows, cols = (int(x) for x in e["shape"].split("x"))
        if rows * cols != e["bytes"]:
            fail(f"{path}: bytes {e['bytes']} != {rows}*{cols}")
        sane(e["trials"], f"{path}.trials", 3, 1e3)
        for side in ("fused", "scalar"):
            lo, mid = e[f"{side}_ns_min"], e[f"{side}_ns_median"]
            sane(lo, f"{path}.{side}_ns_min", 1, 1e12)
            sane(mid, f"{path}.{side}_ns_median", 1, 1e12)
            if lo > mid:
                fail(f"{path}: {side}_ns_min {lo} > {side}_ns_median {mid}")
            gbps = e[f"{side}_gbps"]
            sane(gbps, f"{path}.{side}_gbps", 1e-4, 1e4)
            want_gbps = e["bytes"] / lo
            if abs(gbps - want_gbps) > 1e-9 * want_gbps:
                fail(f"{path}: {side}_gbps {gbps} != recomputed {want_gbps}")
        speedup = e["speedup_vs_scalar"]
        sane(speedup, f"{path}.speedup_vs_scalar", 1e-3, 1e4)
        want_speedup = e["fused_gbps"] / e["scalar_gbps"]
        if abs(speedup - want_speedup) > 1e-9 * want_speedup:
            fail(f"{path}: speedup_vs_scalar {speedup} != recomputed {want_speedup}")
    best = max(new["encode"], key=lambda e: e["speedup_vs_scalar"])
    print(
        f"validate_bench: encode OK — {len(new['encode'])} shapes, "
        f"best {best['speedup_vs_scalar']:.1f}x over scalar ({best['shape']})"
    )


# Plan-vs-tree ratios below this in the *committed* baseline fail the
# check: a refresh that lands a plan slower than the oracle it replaced (or
# a ratio that drifted there unnoticed, as 2x -> 1.04x once did) must be a
# deliberate, reviewed event, not a silent one.
EXECUTOR_SPEEDUP_FLOOR = 0.95


def check_executor(new, base):
    """The executor section compares the compiled trace plan against the
    tree-walking oracle: a ``forward`` row per model (one hook-free model
    call) and a ``calibrate`` row per statically quantized model (the
    calibration pass under CalibrationHook, min and median of interleaved
    trials). Coverage must match the baseline, the derived rates/speedups
    must be consistent with the raw ns, and no committed speedup may sit
    below the floor."""
    got = {(e["model"], e["pass"]) for e in new["executor"]}
    want = {(e["model"], e["pass"]) for e in base["executor"]}
    if got != want:
        fail(
            f"executor coverage mismatch (missing {sorted(want - got)}, "
            f"unexpected {sorted(got - want)})"
        )
    for e in base["executor"]:
        if e["speedup"] < EXECUTOR_SPEEDUP_FLOOR:
            fail(
                f"committed executor row {e['model']}/{e['pass']}: speedup "
                f"{e['speedup']:.3f} is below the {EXECUTOR_SPEEDUP_FLOOR} floor"
            )
    for i, e in enumerate(new["executor"]):
        path = f"executor[{i}]({e['model']}/{e['pass']})"
        sane(e["speedup"], f"{path}.speedup", 1e-3, 1e4)
        if e["pass"] == "calibrate":
            sane(e["model_calls"], f"{path}.model_calls", 1, 1e6)
            sane(e["trials"], f"{path}.trials", 3, 1e3)
            for side in ("tree", "plan"):
                lo, mid = e[f"{side}_ns_min"], e[f"{side}_ns_median"]
                sane(lo, f"{path}.{side}_ns_min", 1, 1e12)
                sane(mid, f"{path}.{side}_ns_median", 1, 1e12)
                if lo > mid:
                    fail(f"{path}: {side}_ns_min {lo} > {side}_ns_median {mid}")
            want_speedup = e["tree_ns_min"] / e["plan_ns_min"]
        elif e["pass"] == "forward":
            sane(e["graph_nodes"], f"{path}.graph_nodes", 1, 1e6)
            sane(e["plan_ops"], f"{path}.plan_ops", 1, 1e6)
            if e["plan_ops"] > e["graph_nodes"]:
                fail(f"{path}: more plan ops than graph nodes")
            sane(e["arena_f32"], f"{path}.arena_f32", 1, 1e12)
            sane(e["tree_ns_per_step"], f"{path}.tree_ns_per_step", 1, 1e12)
            sane(e["plan_ns_per_step"], f"{path}.plan_ns_per_step", 1, 1e12)
            for side in ("tree", "plan"):
                rate = e[f"{side}_steps_per_s"]
                sane(rate, f"{path}.{side}_steps_per_s", 1e-6, 1e12)
                want_rate = 1e9 / e[f"{side}_ns_per_step"]
                if abs(rate - want_rate) > 1e-6 * want_rate:
                    fail(f"{path}: {side}_steps_per_s {rate} != recomputed {want_rate}")
            want_speedup = e["tree_ns_per_step"] / e["plan_ns_per_step"]
        else:
            fail(f"{path}: unknown pass {e['pass']!r}")
        if abs(e["speedup"] - want_speedup) > 1e-6 * want_speedup:
            fail(f"{path}: speedup {e['speedup']} != recomputed {want_speedup}")
    best = max(new["executor"], key=lambda e: e["speedup"])
    print(
        f"validate_bench: executor OK — {len(new['executor'])} rows, "
        f"best plan speedup {best['speedup']:.2f}x ({best['model']}/{best['pass']})"
    )


def check_serve(new, _base):
    sane(new["clients"], "clients", 1, 1e4)
    sane(new["requests"], "requests", 1, 1e7)
    hist_sane(new["latency_us"], "latency_us")
    if new["latency_us"]["count"] != new["requests"]:
        fail("latency histogram count != requests")
    c = new["cells"]
    for k in ("total", "memo_hits", "coalesced", "simulated"):
        sane(c[k], f"cells.{k}", 0, 1e9)
    if c["memo_hits"] + c["coalesced"] + c["simulated"] != c["total"]:
        fail(f"cell counters do not partition: {c}")
    sane(c["memo_hit_rate"], "cells.memo_hit_rate", 0, 1)
    want_rate = (c["memo_hits"] + c["coalesced"]) / c["total"] if c["total"] else 0.0
    if abs(c["memo_hit_rate"] - want_rate) > 1e-9:
        fail(f"memo_hit_rate {c['memo_hit_rate']} != recomputed {want_rate}")
    sane(new["throughput_rps"], "throughput_rps", 1e-3, 1e7)
    # Server-side scheduling-wait vs simulation-latency breakdown (from the
    # obs aggregates): every simulated cell records exactly one wait, one
    # sim time, and one enqueue-time queue depth. The server also simulates
    # the warm-up request's cells, so its sample count may exceed the
    # burst's client-observed `cells.simulated`.
    b = new["breakdown"]
    for key in ("sched_wait_us", "sim_us", "queue_depth"):
        hist_sane(b[key], f"breakdown.{key}")
    if not b["sched_wait_us"]["count"] == b["sim_us"]["count"] == b["queue_depth"]["count"]:
        fail(f"breakdown: wait/sim/depth sample counts must agree: {b}")
    if b["sim_us"]["count"] < c["simulated"]:
        fail(
            f"breakdown: {b['sim_us']['count']} server-side sim samples < "
            f"{c['simulated']} burst-simulated cells"
        )
    print(
        f"validate_bench: serve OK — {new['requests']} requests, "
        f"p50 {new['latency_us']['p50']}us, hit rate {c['memo_hit_rate']:.3f}, "
        f"sched wait p50 {b['sched_wait_us']['p50']}us vs sim p50 {b['sim_us']['p50']}us"
    )


def main():
    if len(sys.argv) != 3:
        fail("usage: validate_bench.py EMITTED.json BASELINE.json")
    with open(sys.argv[1]) as f:
        new = json.load(f)
    with open(sys.argv[2]) as f:
        base = json.load(f)
    if new.get("schema") != "ditto-perfbench/1":
        fail(f"unknown schema {new.get('schema')!r}")
    if new.get("kind") != base.get("kind"):
        fail(f"kind {new.get('kind')!r} != baseline {base.get('kind')!r}")
    same_structure(new, base, "$")
    if new["kind"] == "kernels":
        check_kernels(new, base)
    elif new["kind"] == "serve":
        check_serve(new, base)
    else:
        fail(f"unknown kind {new['kind']!r}")


if __name__ == "__main__":
    main()
