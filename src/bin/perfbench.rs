//! `perfbench` — the machine-readable perf artifacts behind the committed
//! `BENCH_*.json` trajectory.
//!
//! Two documents, both in a stable schema the CI `perf` job validates
//! against the committed baselines (same key structure, sane value
//! ranges) on every push:
//!
//! * **`BENCH_kernels.json`** — GFLOP/s per kernel backend per shape for
//!   the hot kernels (integer matmul and the temporal-difference delta
//!   update at 0 / 30 / 50 / 70 / 95 % zero activations — the `zeros_pct`
//!   column; the validator fails when a committed `simd:*` `int_matmul`
//!   rate at 50 % is below 0.8 × its 0 % rate — f32 matmul, and f32 conv2d
//!   via the auto dispatch plus the
//!   forced direct and im2col routes, one shape per dispatch class with a
//!   `speedup_vs_im2col` column) at the UNet im2col
//!   shapes plus the classic delta-update bench shape (and, for the
//!   integer kernels, a Tiny-scale conv). The `simd` backend
//!   is measured once per *available* SIMD level (rows labeled with the
//!   resolved name, e.g. `simd:avx2` / `simd:sse2`, exercised via the
//!   same level override `DITTO_SIMD_LEVEL` uses). Every backend is
//!   asserted bit-identical to the scalar reference *before* it is
//!   timed. An `executor` section times the compiled trace plan
//!   (`diffusion::plan`) against the tree-walking oracle
//!   `executor::forward`, bit-identity asserted in setup: a `forward` row
//!   per Table I benchmark (one hook-free model call) and a `calibrate`
//!   row per UNet (the whole Q-Diffusion calibration pass under
//!   `CalibrationHook`, min and median over interleaved trials). The
//!   validator fails when a committed `speedup` is below 0.95.
//!   An `encode` section times the Encoding Unit's fused pass
//!   (`quant::encode`) against the scalar one-value-at-a-time oracle at
//!   three operand sizes, min and median over interleaved trials. An
//!   `activations` section times GeLU, SiLU, sigmoid and softmax in ns per
//!   element at their Small shapes for the host libm, the scalar ports and
//!   every SIMD level (min and median over interleaved trials); the
//!   validator fails when a committed `simd:avx2` GeLU is not 2× `libm`.
//! * **`BENCH_serve.json`** — loopback `ditto-serve` latency percentiles
//!   (client-observed, from a fixed-bucket log-scale histogram) and the
//!   cross-request memo hit rate under a deterministic overlapping
//!   request burst at the tiny scale, plus the server-side breakdown of
//!   scheduling wait vs simulation latency (and enqueue-time queue depth)
//!   folded from an in-memory obs handle.
//!
//! ```bash
//! cargo run --release -p ditto-repro --bin perfbench -- --out-dir .
//! ```
//!
//! Flags: `--out-dir DIR` (default `.`), `--kernels-only` /
//! `--serve-only`, `--min-ms N` (per-point measurement budget, default
//! 60), `--clients N` (default 8), `--repeat N` (requests per client,
//! default 4). `DITTO_CACHE_DIR` is honored by the serve half's trace
//! suite like everywhere else.
//!
//! Numbers are host-dependent by nature; the committed baselines document
//! the *trajectory* (reviewed like a changelog), while CI validates shape
//! and sanity, not exact values.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use diffusion::executor::{forward, Bindings, NullHook, StepInfo};
use diffusion::{DiffusionModel, ModelKind, ModelScale, PlanArena};
use ditto_core::hist::LogHistogram;
use ditto_core::jsonio::{self, ToJson, Value};
use ditto_core::runner::CalibrationHook;
use quant::kernels::{delta_matmul_update_with, int_matmul_with, reference};
use quant::{encode, BitWidthClass, BitWidthHistogram, Emit, Encoded};
use serve::server::{spawn, ServerConfig};
use serve::{Obs, SuiteApp};
use tensor::backend::{available_simd_levels, hw_simd_level, set_simd_level, SimdLevel};
use tensor::ops::{
    conv2d_class_in_mode, conv2d_direct, conv2d_direct_into_with, conv2d_im2col_with, conv2d_with,
    gelu_into_with, matmul_scalar, matmul_with, sigmoid_into_with, silu_into_with,
    softmax_rows_into_with, Conv2dParams, ConvClass, ConvMode,
};
use tensor::{KernelBackend, Rng, Tensor};

/// Schema tag stamped into both documents (bump on breaking changes; the
/// CI validator pins it).
const SCHEMA: &str = "ditto-perfbench/1";

/// The measured shapes: the delta-update bench shape plus the two UNet
/// im2col shapes (`[H·W, C_in·K²] × [C_in·K², C_out]`) the Small-scale
/// models actually produce.
const SHAPES: [(usize, usize, usize); 3] = [(64, 256, 128), (256, 288, 32), (256, 576, 64)];

/// The Tiny-scale conv shape the integer kernels are measured at besides
/// [`SHAPES`]: one 8-column strip, where remainder handling would show.
const TINY_SHAPE: (usize, usize, usize) = (64, 72, 8);

/// Zero shares of the activation operand the integer kernels are measured
/// at, in percent: a first frame, post-SiLU levels, and the temporal
/// differences' 40–65 % and beyond.
const ZERO_PCTS: [usize; 5] = [0, 30, 50, 70, 95];

/// The deterministic overlapping burst (the CI socket smoke's shapes):
/// 0 and 3 request the same 4 cells, 1 and 2 each overlap them by one.
const BURST: [&str; 4] = [
    r#"{"id":"ID","designs":["ITC","Ditto"],"models":["DDPM","SDM"],"scale":"tiny","priority":2}"#,
    r#"{"id":"ID","designs":["Ditto","Cam-D"],"models":["SDM","DiT"],"scale":"tiny"}"#,
    r#"{"id":"ID","designs":["ITC","Cam-D"],"models":["DDPM","CHUR"],"scale":"tiny","priority":-1}"#,
    r#"{"id":"ID","designs":["ITC","Ditto"],"models":["DDPM","SDM"],"scale":"tiny","priority":1}"#,
];

struct Args {
    out_dir: PathBuf,
    kernels: bool,
    serve: bool,
    min_ms: u64,
    clients: usize,
    repeat: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        out_dir: PathBuf::from("."),
        kernels: true,
        serve: true,
        min_ms: 60,
        clients: 8,
        repeat: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a positive integer"))
        };
        match arg.as_str() {
            "--out-dir" => args.out_dir = PathBuf::from(it.next().expect("--out-dir needs a path")),
            "--kernels-only" => args.serve = false,
            "--serve-only" => args.kernels = false,
            "--min-ms" => args.min_ms = num("--min-ms").max(1),
            "--clients" => args.clients = num("--clients").max(1) as usize,
            "--repeat" => args.repeat = num("--repeat").max(1) as usize,
            other => {
                eprintln!(
                    "unknown argument `{other}`; usage: perfbench [--out-dir DIR] \
                     [--kernels-only|--serve-only] [--min-ms N] [--clients N] [--repeat N]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn write_doc(path: &Path, doc: &Value) {
    std::fs::write(path, jsonio::to_vec_pretty(doc))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("perfbench: wrote {}", path.display());
}

/// Measures `f` for at least `min_ms`, doubling the iteration count until
/// the budget is met, and returns achieved GFLOP/s (`flops` per call).
fn gflops(flops: f64, min_ms: u64, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and allocators
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() as u64 >= min_ms {
            return flops * iters as f64 / elapsed.as_secs_f64() / 1e9;
        }
        iters = iters.saturating_mul(2);
    }
}

/// The best of three [`gflops`] measurements of a third of the budget each:
/// for rows a committed ratio gate reads, where one slow episode of the
/// host must not decide the ratio.
fn best_gflops(flops: f64, min_ms: u64, mut f: impl FnMut()) -> f64 {
    (0..3).map(|_| gflops(flops, min_ms.div_ceil(3), &mut f)).fold(0.0, f64::max)
}

/// Measures `f` for at least `min_ms`, doubling the iteration count until
/// the budget is met, and returns average wall-clock ns per call.
fn ns_per_call(min_ms: u64, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and allocators
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() as u64 >= min_ms {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        iters = iters.saturating_mul(2);
    }
}

fn rand_i8(n: usize, rng: &mut Rng) -> Vec<i8> {
    (0..n).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect()
}

/// `n` values, `zeros_pct` % of them zero and the rest non-zero draws of
/// `1..=span` in either sign: `span` 127 for quantized levels, 7 for the
/// small 4-bit temporal differences (Fig. 5).
fn sparse_i16(n: usize, zeros_pct: usize, span: usize, rng: &mut Rng) -> Vec<i16> {
    (0..n)
        .map(|_| {
            if rng.next_below(100) < zeros_pct {
                return 0;
            }
            let v = 1 + rng.next_below(span) as i16;
            if rng.next_below(2) == 0 {
                v
            } else {
                -v
            }
        })
        .collect()
}

/// One measured point, pre-derivation. The speedup columns are computed
/// once all rows exist (the tiled baseline for a shape may be measured
/// after a SIMD level on a re-ordered config list).
struct KernelRow {
    kernel: &'static str,
    shape: String,
    backend: String,
    gflops: f64,
    /// Zero share of the activation operand — integer rows only.
    zeros_pct: Option<usize>,
    /// Auto-mode dispatch class of the shape — conv rows only.
    class: Option<&'static str>,
}

/// The measured backend configurations: the two portable backends at the
/// hardware SIMD level, then the `simd` backend once per *available*
/// SIMD level (so an AVX2 host also measures and commits the SSE2 rows).
/// Labels are resolved names (`simd:avx2`), matching the serve protocol.
fn kernel_configs() -> Vec<(KernelBackend, SimdLevel, String)> {
    let hw = hw_simd_level();
    let mut configs = vec![
        (KernelBackend::Scalar, hw, "scalar".to_string()),
        (KernelBackend::Tiled, hw, "tiled".to_string()),
    ];
    for lvl in available_simd_levels() {
        if lvl != SimdLevel::None {
            configs.push((KernelBackend::Simd, lvl, format!("simd:{lvl}")));
        }
    }
    configs
}

/// The measured conv2d shapes `(c_in, h, w, c_out, params, class)` — at
/// least one per dispatch class of the shape-classed conv router, with the
/// expected auto-mode class pinned so a heuristic change that re-routes a
/// committed shape fails loudly here instead of silently shifting the
/// baselines. Each shape measures all three conv kernels: the auto route
/// (`conv2d_f32`), the forced lowering-free path (`conv2d_direct`), and
/// the forced lowered path (`conv2d_im2col`).
const CONV_SHAPES: [(usize, usize, usize, usize, Conv2dParams, ConvClass); 5] = [
    // ResNet 3×3 block body — small c_out, now direct-classed.
    (8, 16, 16, 16, Conv2dParams { kernel: 3, stride: 1, padding: 1 }, ConvClass::DirectSmall),
    // Small-spatial UNet inner block.
    (8, 12, 12, 8, Conv2dParams { kernel: 3, stride: 1, padding: 1 }, ConvClass::DirectSmall),
    // 1×1 channel-mixing projection.
    (32, 16, 16, 64, Conv2dParams { kernel: 1, stride: 1, padding: 0 }, ConvClass::DirectPointwise),
    // Stride-2 downsampling conv — wide c_out, stays on the im2col route.
    (16, 16, 16, 32, Conv2dParams { kernel: 3, stride: 2, padding: 1 }, ConvClass::Im2col),
    // Wide 3×3 body where the lowered matmul's reuse wins.
    (32, 16, 16, 32, Conv2dParams { kernel: 3, stride: 1, padding: 1 }, ConvClass::Im2col),
];

fn conv_shape_name(c_in: usize, h: usize, w: usize, c_out: usize, p: Conv2dParams) -> String {
    format!("c{c_in}-{c_out}_{h}x{w}_k{}s{}", p.kernel, p.stride)
}

fn conv_class_name(class: ConvClass) -> &'static str {
    match class {
        ConvClass::DirectSmall => "direct_small",
        ConvClass::DirectPointwise => "direct_pointwise",
        ConvClass::Im2col => "im2col",
    }
}

fn bench_kernels(min_ms: u64) -> Value {
    use std::hint::black_box;
    let configs = kernel_configs();
    let mut rows: Vec<KernelRow> = Vec::new();
    let mut rng = Rng::seed_from(11);
    for &(m, k, n) in SHAPES.iter().chain([&TINY_SHAPE]) {
        let shape = format!("{m}x{k}x{n}");
        let flops = (2 * m * k * n) as f64;
        let w = rand_i8(k * n, &mut rng);
        for zeros_pct in ZERO_PCTS {
            let a = sparse_i16(m * k, zeros_pct, 127, &mut rng);
            let deltas = sparse_i16(m * k, zeros_pct, 7, &mut rng);
            // Scalar references: the identity oracle and the speedup baseline.
            let want_int = reference::int_matmul(&a, &w, m, k, n);
            let want_delta = reference::delta_matmul_update(&want_int, &deltas, &w, m, k, n);
            for (backend, level, label) in &configs {
                let (backend, level) = (*backend, *level);
                set_simd_level(level).expect("measured levels are hardware-supported");
                // Bit-identity asserted in setup: a backend (at a SIMD
                // level) that drifts from the scalar reference must never
                // produce a perf number.
                assert_eq!(
                    int_matmul_with(backend, &a, &w, m, k, n),
                    want_int,
                    "{label} int_matmul diverged from the scalar reference at {shape}"
                );
                assert_eq!(
                    delta_matmul_update_with(backend, &want_int, &deltas, &w, m, k, n),
                    want_delta,
                    "{label} delta_matmul_update diverged from the reference at {shape}"
                );
                // Both time the allocating entry points, so on the `simd`
                // backend every call also packs `w`.
                let points: [(&'static str, f64); 2] = [
                    (
                        "int_matmul",
                        best_gflops(flops, min_ms, || {
                            black_box(int_matmul_with(
                                backend,
                                black_box(&a),
                                black_box(&w),
                                m,
                                k,
                                n,
                            ));
                        }),
                    ),
                    (
                        "delta_matmul_update",
                        best_gflops(flops, min_ms, || {
                            black_box(delta_matmul_update_with(
                                backend,
                                black_box(&want_int),
                                black_box(&deltas),
                                &w,
                                m,
                                k,
                                n,
                            ));
                        }),
                    ),
                ];
                for (kernel, gf) in points {
                    println!(
                        "perfbench: {kernel:>20} {shape:>16} z{zeros_pct:<2} {label:>9}: {gf:8.3} \
                         GFLOP/s"
                    );
                    rows.push(KernelRow {
                        kernel,
                        shape: shape.clone(),
                        backend: label.clone(),
                        gflops: gf,
                        zeros_pct: Some(zeros_pct),
                        class: None,
                    });
                }
            }
        }
    }
    for &(m, k, n) in &SHAPES {
        let shape = format!("{m}x{k}x{n}");
        let flops = (2 * m * k * n) as f64;
        let fa = Tensor::randn(&[m, k], &mut rng);
        let fb = Tensor::randn(&[k, n], &mut rng);
        let want_f32 = matmul_scalar(&fa, &fb).expect("scalar f32 matmul");
        for (backend, level, label) in &configs {
            let (backend, level) = (*backend, *level);
            set_simd_level(level).expect("measured levels are hardware-supported");
            let got_f32 = matmul_with(backend, &fa, &fb).expect("f32 matmul");
            assert!(
                got_f32
                    .as_slice()
                    .iter()
                    .zip(want_f32.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{label} f32 matmul diverged bitwise from the scalar reference at {shape}"
            );
            let gf = gflops(flops, min_ms, || {
                black_box(matmul_with(backend, black_box(&fa), black_box(&fb)).unwrap());
            });
            println!("perfbench: {:>20} {shape:>16} {label:>9}: {gf:8.3} GFLOP/s", "matmul_f32");
            rows.push(KernelRow {
                kernel: "matmul_f32",
                shape: shape.clone(),
                backend: label.clone(),
                gflops: gf,
                zeros_pct: None,
                class: None,
            });
        }
    }
    for &(c_in, h, w, c_out, params, class) in &CONV_SHAPES {
        let shape = conv_shape_name(c_in, h, w, c_out, params);
        assert_eq!(
            conv2d_class_in_mode(ConvMode::Auto, c_in, h, w, c_out, params),
            class,
            "committed conv shape {shape} re-routed: update CONV_SHAPES to match the heuristic"
        );
        let class = conv_class_name(class);
        let kk = params.kernel;
        let (ho, wo) = (params.out_extent(h), params.out_extent(w));
        let flops = (2 * c_out * ho * wo * c_in * kk * kk) as f64;
        let input = Tensor::randn(&[c_in, h, w], &mut rng);
        let weight = Tensor::randn(&[c_out, c_in, kk, kk], &mut rng);
        let bias = Tensor::randn(&[c_out], &mut rng);
        let want = conv2d_direct(&input, &weight, Some(&bias), params).expect("direct conv2d");
        for (backend, level, label) in &configs {
            let (backend, level) = (*backend, *level);
            set_simd_level(level).expect("measured levels are hardware-supported");
            // Bit-identity asserted in setup for all three routes: the
            // auto dispatch, the forced direct path, and the forced im2col
            // path must agree with the scalar sliding-window reference
            // before any of them produces a perf number.
            let bitwise_eq = |got: &Tensor| {
                got.as_slice().iter().zip(want.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
            };
            let got = conv2d_with(backend, &input, &weight, Some(&bias), params).expect("conv2d");
            assert!(
                bitwise_eq(&got),
                "{label} conv2d diverged bitwise from the direct reference at {shape}"
            );
            let mut direct_out = Tensor::zeros(&[c_out, ho, wo]);
            conv2d_direct_into_with(
                backend,
                input.as_slice(),
                c_in,
                h,
                w,
                &weight,
                Some(&bias),
                params,
                direct_out.as_mut_slice(),
            )
            .expect("direct conv2d route");
            assert!(
                bitwise_eq(&direct_out),
                "{label} forced-direct conv2d diverged bitwise at {shape}"
            );
            let got_im2col = conv2d_im2col_with(backend, &input, &weight, Some(&bias), params)
                .expect("im2col conv2d route");
            assert!(
                bitwise_eq(&got_im2col),
                "{label} forced-im2col conv2d diverged bitwise at {shape}"
            );
            let mut scratch = vec![0.0f32; c_out * ho * wo];
            let points: [(&'static str, f64); 3] = [
                (
                    "conv2d_f32",
                    gflops(flops, min_ms, || {
                        black_box(
                            conv2d_with(
                                backend,
                                black_box(&input),
                                black_box(&weight),
                                Some(&bias),
                                params,
                            )
                            .unwrap(),
                        );
                    }),
                ),
                (
                    "conv2d_direct",
                    gflops(flops, min_ms, || {
                        conv2d_direct_into_with(
                            backend,
                            black_box(input.as_slice()),
                            c_in,
                            h,
                            w,
                            black_box(&weight),
                            Some(&bias),
                            params,
                            black_box(&mut scratch),
                        )
                        .unwrap();
                    }),
                ),
                (
                    "conv2d_im2col",
                    gflops(flops, min_ms, || {
                        black_box(
                            conv2d_im2col_with(
                                backend,
                                black_box(&input),
                                black_box(&weight),
                                Some(&bias),
                                params,
                            )
                            .unwrap(),
                        );
                    }),
                ),
            ];
            for (kernel, gf) in points {
                println!("perfbench: {kernel:>20} {shape:>16} {label:>9}: {gf:8.3} GFLOP/s");
                rows.push(KernelRow {
                    kernel,
                    shape: shape.clone(),
                    backend: label.clone(),
                    gflops: gf,
                    zeros_pct: None,
                    class: Some(class),
                });
            }
        }
    }
    set_simd_level(hw_simd_level()).expect("hardware level is always available");
    // Derive the speedup columns against the portable baselines measured
    // for the same (kernel, shape, zero share).
    let baseline = |kernel: &str, of: &KernelRow, backend: &str| {
        rows.iter()
            .find(|r| {
                r.kernel == kernel
                    && r.shape == of.shape
                    && r.zeros_pct == of.zeros_pct
                    && r.backend == backend
            })
            .map(|r| r.gflops)
            .expect("every (kernel, shape) measures every config")
    };
    let results: Vec<Value> = rows
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("kernel", Value::Str(r.kernel.to_string())),
                ("shape", Value::Str(r.shape.clone())),
                ("backend", Value::Str(r.backend.clone())),
                ("gflops", Value::Num(r.gflops)),
                ("speedup_vs_scalar", Value::Num(r.gflops / baseline(r.kernel, r, "scalar"))),
                ("speedup_vs_tiled", Value::Num(r.gflops / baseline(r.kernel, r, "tiled"))),
            ];
            if let Some(zeros_pct) = r.zeros_pct {
                fields.push(("zeros_pct", zeros_pct.to_json()));
            }
            if let Some(class) = r.class {
                // Conv rows: dispatch class plus the direct-vs-im2col
                // ratio against the forced-im2col row measured on the
                // *same* backend config (not the portable baselines).
                fields.push(("class", Value::Str(class.to_string())));
                fields.push((
                    "speedup_vs_im2col",
                    Value::Num(r.gflops / baseline("conv2d_im2col", r, &r.backend)),
                ));
            }
            obj(fields)
        })
        .collect();
    obj(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("kind", Value::Str("kernels".into())),
        ("units", Value::Str("gflops = 2*m*k*n ops / second / 1e9".into())),
        (
            "backends",
            Value::Arr(configs.iter().map(|(_, _, label)| Value::Str(label.clone())).collect()),
        ),
        (
            "shapes",
            Value::Arr(SHAPES.iter().map(|(m, k, n)| Value::Str(format!("{m}x{k}x{n}"))).collect()),
        ),
        (
            "conv_shapes",
            Value::Arr(
                CONV_SHAPES
                    .iter()
                    .map(|&(c, h, w, co, p, class)| {
                        obj(vec![
                            ("shape", Value::Str(conv_shape_name(c, h, w, co, p))),
                            ("class", Value::Str(conv_class_name(class).to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("results", Value::Arr(results)),
        ("executor", Value::Arr(bench_executor(min_ms))),
        ("encode", Value::Arr(bench_encode(min_ms))),
        ("activations", Value::Arr(bench_activations(min_ms))),
    ])
}

/// Operands `(function, rows, cols)` of the `activations` section: the
/// Small-scale shapes the compiled plans run them at — the DiT MLP's GeLU
/// (`64 × 384`), a UNet ResNet block's SiLU (`48` channels of `16 × 16`),
/// full and DiT self-attention softmax. No Small plan has a sigmoid; it is
/// measured at the SiLU shape.
const ACTIVATION_SHAPES: [(&str, usize, usize); 5] = [
    ("gelu", 64, 384),
    ("silu", 48, 256),
    ("sigmoid", 48, 256),
    ("softmax", 256, 256),
    ("softmax", 64, 64),
];

/// Interleaved trials per implementation in the `activations` section.
const ACTIVATION_TRIALS: usize = 7;

/// `function` by the host libm's `f32::exp` / `f32::tanh` — what the
/// activations called before they owned their transcendentals. Bench-only:
/// the `libm` baseline of the `activations` section.
fn libm_activation(function: &str, x: &[f32], cols: usize, out: &mut [f32]) {
    match function {
        "gelu" => {
            let c = (2.0f32 / std::f32::consts::PI).sqrt();
            for (o, &v) in out.iter_mut().zip(x) {
                *o = 0.5 * v * (1.0 + (c * (v + 0.044_715 * v * v * v)).tanh());
            }
        }
        "silu" => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = v / (1.0 + (-v).exp());
            }
        }
        "sigmoid" => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = 1.0 / (1.0 + (-v).exp());
            }
        }
        _ => {
            for (row, orow) in x.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0;
                for (o, &v) in orow.iter_mut().zip(row) {
                    *o = (v - max).exp();
                    sum += *o;
                }
                for o in orow.iter_mut() {
                    *o /= sum;
                }
            }
        }
    }
}

/// `function` through its `tensor::ops` slice entry on `backend`.
fn run_activation(
    function: &str,
    backend: KernelBackend,
    x: &[f32],
    rows: usize,
    cols: usize,
    out: &mut [f32],
) {
    match function {
        "gelu" => gelu_into_with(backend, x, out),
        "silu" => silu_into_with(backend, x, out),
        "sigmoid" => sigmoid_into_with(backend, x, out),
        _ => softmax_rows_into_with(backend, x, rows, cols, out),
    }
}

/// The `activations` section: ns per element of each activation at its
/// Small shape for the host libm (`libm`), the scalar ports (`port`, the
/// `scalar` backend) and the vector kernels at every available SIMD level
/// (`simd:<level>`; a level without a kernel for the function runs the
/// port). Trials alternate the implementations; each row reports the min
/// and median. Every `simd` level is asserted bit-identical to the port
/// first (the host libm is not: the ports are fixed, hosts' libms differ).
fn bench_activations(min_ms: u64) -> Vec<Value> {
    use std::hint::black_box;
    let mut rng = Rng::seed_from(19);
    let mut impls: Vec<(String, Option<SimdLevel>)> =
        vec![("libm".to_string(), None), ("port".to_string(), None)];
    for level in available_simd_levels() {
        if level != SimdLevel::None {
            impls.push((format!("simd:{level}"), Some(level)));
        }
    }
    let mut entries = Vec::new();
    for &(function, rows, cols) in &ACTIVATION_SHAPES {
        let n = rows * cols;
        let x: Vec<f32> = (0..n).map(|_| rng.next_normal() * 3.0).collect();
        let mut want = vec![0.0f32; n];
        run_activation(function, KernelBackend::Scalar, &x, rows, cols, &mut want);
        let mut out = vec![0.0f32; n];
        for (label, level) in &impls {
            if let Some(level) = level {
                set_simd_level(*level).expect("measured levels are hardware-supported");
                run_activation(function, KernelBackend::Simd, &x, rows, cols, &mut out);
                assert!(
                    out.iter().zip(&want).all(|(p, q)| p.to_bits() == q.to_bits()),
                    "{label} {function} diverged bitwise from the scalar port at {rows}x{cols}"
                );
            }
        }
        let mut ns = vec![Vec::new(); impls.len()];
        for _ in 0..ACTIVATION_TRIALS {
            for ((label, level), ns) in impls.iter().zip(&mut ns) {
                if let Some(level) = level {
                    set_simd_level(*level).expect("measured levels are hardware-supported");
                }
                let call = ns_per_call(min_ms, || match label.as_str() {
                    "libm" => libm_activation(function, black_box(&x), cols, &mut out),
                    "port" => run_activation(
                        function,
                        KernelBackend::Scalar,
                        black_box(&x),
                        rows,
                        cols,
                        &mut out,
                    ),
                    _ => run_activation(
                        function,
                        KernelBackend::Simd,
                        black_box(&x),
                        rows,
                        cols,
                        &mut out,
                    ),
                });
                ns.push(call / n as f64);
            }
        }
        let stats: Vec<(f64, f64)> = ns.iter_mut().map(|t| min_median(t)).collect();
        let libm_min = stats[0].0;
        for ((label, _), &(lo, mid)) in impls.iter().zip(&stats) {
            println!(
                "perfbench: activation {function:>7} {rows:>3}x{cols:<3} {label:>9}: {lo:7.3} \
                 ns/elem ({:.2}x libm)",
                libm_min / lo
            );
            entries.push(obj(vec![
                ("function", Value::Str(function.to_string())),
                ("shape", Value::Str(format!("{rows}x{cols}"))),
                ("impl", Value::Str(label.clone())),
                ("elements", n.to_json()),
                ("trials", ACTIVATION_TRIALS.to_json()),
                ("ns_per_elem_min", Value::Num(lo)),
                ("ns_per_elem_median", Value::Num(mid)),
                ("speedup_vs_libm", Value::Num(libm_min / lo)),
            ]));
        }
    }
    set_simd_level(hw_simd_level()).expect("hardware level is always available");
    entries
}

/// The Encoding Unit pass one value at a time — three classification
/// sweeps, a delta vector and a widening copy: the specification
/// [`quant::encode`] is held to, and the baseline of the `encode` section.
fn encode_scalar(cur: &[i8], prev: &[i8], rows: usize, cols: usize) -> (Encoded, Vec<i16>) {
    let mut enc = Encoded::default();
    for &v in cur {
        enc.act.push(BitWidthClass::of_i8(v));
    }
    for &v in &cur[..cols] {
        enc.spatial.push(BitWidthClass::of_i8(v));
    }
    for r in 1..rows {
        for c in 0..cols {
            let d = cur[r * cols + c] as i16 - cur[(r - 1) * cols + c] as i16;
            enc.spatial.push(BitWidthClass::of(d));
        }
    }
    let deltas: Vec<i16> = cur.iter().zip(prev).map(|(&c, &p)| c as i16 - p as i16).collect();
    let mut temporal = BitWidthHistogram::new();
    for &d in &deltas {
        temporal.push(BitWidthClass::of(d));
    }
    enc.temporal = Some(temporal);
    (enc, deltas)
}

/// Operand shapes `[rows, cols]` of the `encode` section: the delta-update
/// bench shape and the two UNet im2col operands of [`SHAPES`].
const ENCODE_SHAPES: [(usize, usize); 3] = [(64, 256), (256, 288), (256, 576)];

/// Interleaved fused/scalar trials per `encode` row.
const ENCODE_TRIALS: usize = 7;

/// Times the fused Encoding Unit pass against the scalar oracle under the
/// difference policy (previous step present, delta operand emitted) on
/// operands with adjacent-step statistics: ~60 % unchanged levels, the
/// rest moved by a few levels. Identity is asserted before timing.
fn bench_encode(min_ms: u64) -> Vec<Value> {
    use std::hint::black_box;
    let mut rng = Rng::seed_from(17);
    let mut entries = Vec::new();
    for &(rows, cols) in &ENCODE_SHAPES {
        let prev = rand_i8(rows * cols, &mut rng);
        let cur: Vec<i8> = prev
            .iter()
            .map(|&p| {
                if rng.next_f64() < 0.6 {
                    p
                } else {
                    (p as i32 + rng.next_below(9) as i32 - 4).clamp(-127, 127) as i8
                }
            })
            .collect();
        let mut operand = Vec::new();
        let fused = encode(&cur, Some(&prev), rows, cols, Emit::Delta, &mut operand);
        assert_eq!(
            (fused, operand.clone()),
            encode_scalar(&cur, &prev, rows, cols),
            "fused encode diverged from the scalar oracle at {rows}x{cols}"
        );
        // Alternate the two sides so a load spike cannot land on one only.
        let (mut fused_ns, mut scalar_ns) = (Vec::new(), Vec::new());
        for _ in 0..ENCODE_TRIALS {
            fused_ns.push(ns_per_call(min_ms, || {
                black_box(encode(
                    black_box(&cur),
                    Some(black_box(&prev)),
                    rows,
                    cols,
                    Emit::Delta,
                    &mut operand,
                ));
            }));
            scalar_ns.push(ns_per_call(min_ms, || {
                black_box(encode_scalar(black_box(&cur), black_box(&prev), rows, cols));
            }));
        }
        let (fused_min, fused_median) = min_median(&mut fused_ns);
        let (scalar_min, scalar_median) = min_median(&mut scalar_ns);
        // One `i8` level per element: bytes per ns is GB/s.
        let bytes = (rows * cols) as f64;
        let (fused_gbps, scalar_gbps) = (bytes / fused_min, bytes / scalar_min);
        println!(
            "perfbench: encode {rows:>4}x{cols:<4}: fused {fused_gbps:6.3} GB/s, scalar \
             {scalar_gbps:6.3} GB/s ({:.1}x)",
            fused_gbps / scalar_gbps
        );
        entries.push(obj(vec![
            ("shape", Value::Str(format!("{rows}x{cols}"))),
            ("bytes", (rows * cols).to_json()),
            ("trials", ENCODE_TRIALS.to_json()),
            ("fused_ns_min", Value::Num(fused_min)),
            ("fused_ns_median", Value::Num(fused_median)),
            ("scalar_ns_min", Value::Num(scalar_min)),
            ("scalar_ns_median", Value::Num(scalar_median)),
            ("fused_gbps", Value::Num(fused_gbps)),
            ("scalar_gbps", Value::Num(scalar_gbps)),
            ("speedup_vs_scalar", Value::Num(fused_gbps / scalar_gbps)),
        ]));
    }
    entries
}

/// Interleaved trials per executor in the `executor` section — see the
/// measurement comment in [`bench_executor`].
const EXECUTOR_TRIALS: usize = 5;

/// `(min, median)` of a set of trial timings.
fn min_median(ns: &mut [f64]) -> (f64, f64) {
    ns.sort_by(f64::total_cmp);
    (ns[0], ns[ns.len() / 2])
}

/// The `executor` section: the compiled trace plan against the allocating
/// tree walker `executor::forward` (the oracle), at the tiny scale. A
/// `forward` row per Table I benchmark times one hook-free model call (one
/// sampler step's worth of work); a `calibrate` row per statically
/// quantized model times the whole calibration pass — `run_reverse` under
/// [`CalibrationHook`] — per model call. Identity is asserted in setup: a
/// plan that drifts bitwise from the tree must never produce a perf number.
fn bench_executor(min_ms: u64) -> Vec<Value> {
    use std::hint::black_box;
    let mut entries = Vec::new();
    for kind in ModelKind::all() {
        let model = DiffusionModel::build(kind, ModelScale::Tiny, 13);
        let plan = model.plan.as_ref().expect("benchmark model compiles a plan");
        let (latent, context) = model.sample_inputs(29);
        let bindings = Bindings { latent: &latent, context: context.as_ref(), t: 0.5 };
        let step = StepInfo { step_index: 0, t: 0.5, total_steps: 1 };
        let want = forward(&model.graph, &bindings, step, &mut NullHook).expect("tree forward");
        let mut arena = PlanArena::new();
        let got = plan
            .execute(&model.graph, &bindings, step, &mut NullHook, &mut arena)
            .expect("plan execute");
        assert!(
            want.as_slice().iter().zip(got.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{kind:?}: plan output diverged bitwise from the tree executor"
        );
        // Alternate tree/plan trials and keep each side's minimum: on a
        // shared host the best-of-N per-step time is the noise-robust
        // estimator, and interleaving keeps a load spike from landing
        // entirely on one executor's measurement.
        let (mut tree_ns, mut plan_ns) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..EXECUTOR_TRIALS {
            tree_ns = tree_ns.min(ns_per_call(min_ms, || {
                black_box(
                    forward(&model.graph, black_box(&bindings), step, &mut NullHook).unwrap(),
                );
            }));
            plan_ns = plan_ns.min(ns_per_call(min_ms, || {
                black_box(
                    plan.execute(
                        &model.graph,
                        black_box(&bindings),
                        step,
                        &mut NullHook,
                        &mut arena,
                    )
                    .unwrap(),
                );
            }));
        }
        let speedup = tree_ns / plan_ns;
        entries.push(obj(vec![
            ("model", Value::Str(kind.abbr().to_string())),
            ("pass", Value::Str("forward".into())),
            ("graph_nodes", model.graph.len().to_json()),
            ("plan_ops", plan.op_count().to_json()),
            ("arena_f32", plan.arena_len().to_json()),
            ("tree_ns_per_step", Value::Num(tree_ns)),
            ("plan_ns_per_step", Value::Num(plan_ns)),
            ("tree_steps_per_s", Value::Num(1e9 / tree_ns)),
            ("plan_steps_per_s", Value::Num(1e9 / plan_ns)),
            ("speedup", Value::Num(speedup)),
        ]));
        println!(
            "perfbench: executor {:>5}: tree {tree_ns:>12.0} ns/step, plan {plan_ns:>12.0} \
             ns/step ({speedup:.2}x, {:.0} steps/s)",
            kind.abbr(),
            1e9 / plan_ns
        );
        if !kind.uses_dynamic_quant() {
            entries.push(bench_calibrate(&model, min_ms));
        }
    }
    entries
}

/// One `calibrate` row: the calibration reverse run of `model` on the plan
/// and on the oracle, in ns per model call.
fn bench_calibrate(model: &DiffusionModel, min_ms: u64) -> Value {
    let calls = model.model_calls();
    let calibrate = |oracle: bool| {
        let mut hook = CalibrationHook::new(calls);
        let out = if oracle {
            model.run_reverse_oracle(29, &mut hook)
        } else {
            model.run_reverse(29, &mut hook)
        };
        (out.expect("calibration run"), hook.finish(8))
    };
    assert!(calibrate(true) == calibrate(false), "{:?}: plan calibration diverged", model.kind);
    let (mut tree_ns, mut plan_ns) = (Vec::new(), Vec::new());
    for _ in 0..EXECUTOR_TRIALS {
        for (oracle, ns) in [(true, &mut tree_ns), (false, &mut plan_ns)] {
            ns.push(
                ns_per_call(min_ms, || {
                    std::hint::black_box(calibrate(oracle));
                }) / calls as f64,
            );
        }
    }
    let (tree_min, tree_median) = min_median(&mut tree_ns);
    let (plan_min, plan_median) = min_median(&mut plan_ns);
    let speedup = tree_min / plan_min;
    println!(
        "perfbench: executor {:>5} calibrate: tree {tree_min:>12.0} ns/call, plan \
         {plan_min:>12.0} ns/call ({speedup:.2}x)",
        model.kind.abbr()
    );
    obj(vec![
        ("model", Value::Str(model.kind.abbr().to_string())),
        ("pass", Value::Str("calibrate".into())),
        ("model_calls", calls.to_json()),
        ("trials", EXECUTOR_TRIALS.to_json()),
        ("tree_ns_min", Value::Num(tree_min)),
        ("tree_ns_median", Value::Num(tree_median)),
        ("plan_ns_min", Value::Num(plan_min)),
        ("plan_ns_median", Value::Num(plan_median)),
        ("speedup", Value::Num(speedup)),
    ])
}

/// One burst request over its own loopback connection; returns the
/// client-observed latency and the response's `cells` counters.
fn one_request(port: u16, line: &str) -> (u64, [u64; 4]) {
    let start = Instant::now();
    let mut conn = TcpStream::connect(("127.0.0.1", port)).expect("connect loopback");
    conn.write_all(line.as_bytes()).expect("send request");
    conn.write_all(b"\n").expect("send newline");
    let mut response = String::new();
    BufReader::new(conn).read_line(&mut response).expect("read response");
    let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let v = jsonio::parse(response.as_bytes()).expect("well-formed response");
    assert_eq!(v.get("ok").expect("ok field"), &Value::Bool(true), "request failed: {response}");
    let cells = v.get("cells").expect("cells object");
    let count = |key: &str| match cells.get(key).expect(key) {
        Value::Int(i) => u64::try_from(*i).expect("non-negative counter"),
        other => panic!("cells.{key} must be an integer, got {other:?}"),
    };
    (us, [count("total"), count("memo_hits"), count("coalesced"), count("simulated")])
}

fn bench_serve(clients: usize, repeat: usize) -> Value {
    // The measurement server: in-process, obs in pure in-memory mode — no
    // stream file, no writer thread, just the fold-as-you-go aggregates,
    // so the scheduling-wait vs simulation-latency split lands in the doc
    // without perturbing what is being measured.
    let obs = Arc::new(Obs::in_memory());
    let app = Arc::new(SuiteApp::with_obs(accel::pool::default_workers().max(1), Arc::clone(&obs)));
    let handle = spawn(app, ServerConfig::default()).expect("spawn loopback server");
    let port = handle.addr().port();

    // Warm-up: one throwaway request traces (or cache-loads) the tiny
    // suite and its GPU references, so the burst measures serving, not
    // first-touch tracing.
    let _ = one_request(port, &BURST[0].replace("ID", "warmup"));

    let hist = Mutex::new(LogHistogram::new());
    let counters = Mutex::new([0u64; 4]);
    let burst_start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (hist, counters) = (&hist, &counters);
            s.spawn(move || {
                for r in 0..repeat {
                    let line = BURST[(c + r) % BURST.len()].replace("ID", &format!("c{c}r{r}"));
                    let (us, cells) = one_request(port, &line);
                    hist.lock().expect("latency hist").record(us);
                    let mut sums = counters.lock().expect("cell counters");
                    for (sum, cell) in sums.iter_mut().zip(cells) {
                        *sum += cell;
                    }
                }
            });
        }
    });
    let wall = burst_start.elapsed().as_secs_f64();
    handle.shutdown().expect("clean shutdown");

    let hist = hist.into_inner().expect("latency hist");
    let [total, memo_hits, coalesced, simulated] = counters.into_inner().expect("cell counters");
    let requests = (clients * repeat) as u64;
    assert_eq!(hist.count(), requests, "every request must be measured");
    assert_eq!(memo_hits + coalesced + simulated, total, "cell counters must partition");
    let hit_rate = if total == 0 { 0.0 } else { (memo_hits + coalesced) as f64 / total as f64 };
    // Server-side breakdown from the obs aggregates: how long simulated
    // cells sat queued behind other work vs how long the simulation itself
    // took, plus the queue depth seen at each enqueue. Covers every
    // simulated cell this server ran, warm-up request included (memo hits
    // and coalesced waiters never reach the histograms).
    let summary = obs.summary_json().expect("in-memory obs always has aggregates");
    let cell_summary =
        |key: &str| summary.get("cells").expect("cells").get(key).expect(key).clone();
    let sched_wait_us = cell_summary("sched_wait_us");
    let sim_us = cell_summary("sim_us");
    let queue_depth = summary.get("queue_depth").expect("queue_depth").clone();
    let wait_p50 = sched_wait_us.get("p50").map_or(0, |v| match v {
        Value::Int(i) => *i,
        _ => 0,
    });
    let sim_p50 = sim_us.get("p50").map_or(0, |v| match v {
        Value::Int(i) => *i,
        _ => 0,
    });
    println!(
        "perfbench: serve breakdown: sched wait p50 {wait_p50}us, sim p50 {sim_p50}us per \
         simulated cell"
    );
    println!(
        "perfbench: serve burst {requests} reqs × {total} cells: p50 {}us p99 {}us, \
         memo hit rate {hit_rate:.3}, {:.1} req/s",
        hist.percentile(50.0),
        hist.percentile(99.0),
        requests as f64 / wall
    );
    obj(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("kind", Value::Str("serve".into())),
        ("scale", Value::Str("tiny".into())),
        ("clients", clients.to_json()),
        ("requests", requests.to_json()),
        ("latency_us", hist.summary_json()),
        (
            "cells",
            obj(vec![
                ("total", total.to_json()),
                ("memo_hits", memo_hits.to_json()),
                ("coalesced", coalesced.to_json()),
                ("simulated", simulated.to_json()),
                ("memo_hit_rate", Value::Num(hit_rate)),
            ]),
        ),
        (
            "breakdown",
            obj(vec![
                ("sched_wait_us", sched_wait_us),
                ("sim_us", sim_us),
                ("queue_depth", queue_depth),
            ]),
        ),
        ("throughput_rps", Value::Num(requests as f64 / wall)),
    ])
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.out_dir)
        .unwrap_or_else(|e| panic!("create {}: {e}", args.out_dir.display()));
    if args.kernels {
        let doc = bench_kernels(args.min_ms);
        write_doc(&args.out_dir.join("BENCH_kernels.json"), &doc);
    }
    if args.serve {
        let doc = bench_serve(args.clients, args.repeat);
        write_doc(&args.out_dir.join("BENCH_serve.json"), &doc);
    }
}
