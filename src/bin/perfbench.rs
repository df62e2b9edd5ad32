//! `perfbench` — the machine-readable perf artifacts behind the committed
//! `BENCH_*.json` trajectory.
//!
//! Two documents, both in a stable schema the CI `perf` job validates
//! against the committed baselines (same key structure, sane value
//! ranges) on every push:
//!
//! * **`BENCH_kernels.json`** — GFLOP/s per kernel backend per shape for
//!   the hot kernels: integer matmul and the temporal-difference delta
//!   update at 0 / 30 / 50 / 70 / 95 % zero activations (the `zeros_pct`
//!   column; the validator fails when a committed `simd:*` `int_matmul`
//!   rate at 50 % is below 0.8 × its 0 % rate) at the UNet im2col shapes
//!   plus the classic delta-update bench shape and a Tiny-scale conv; the
//!   f32 matmul at the shapes a `denoise_plain` profile spends its f32 time
//!   in, with no zero, one zero and 30 % zeros in `a` (the validator fails
//!   when a committed `simd:avx2` one-zero rate is below 0.8 × the dense
//!   one); and f32 conv2d through the compiled plans' lowering. A
//!   `roofline` section gives the host's no-FMA mul + add peak per SIMD
//!   level, from a register-only loop. Every available backend is
//!   measured — `scalar` and each SIMD level the host runs, rows labeled
//!   with the resolved name (`simd:avx2`, `simd:sse2`) — and asserted
//!   bit-identical to the scalar reference *before* it is timed. An `executor` section times the compiled trace plan
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
use tensor::backend::SimdLevel;
use tensor::ops::{
    conv2d_direct, conv2d_lowered_into, conv2d_scratch_len, gelu_into_with, matmul_acc_with,
    sigmoid_into_with, silu_into_with, softmax_rows_into_with, Conv2dParams,
};
use tensor::{KernelBackend, Rng, Tensor};

/// Schema tag stamped into both documents (bump on breaking changes; the
/// CI validator pins it).
const SCHEMA: &str = "ditto-perfbench/1";

/// The integer kernels' shapes: the delta-update bench shape plus the two
/// UNet im2col shapes (`[H·W, C_in·K²] × [C_in·K², C_out]`) the
/// Small-scale models actually produce.
const SHAPES: [(usize, usize, usize); 3] = [(64, 256, 128), (256, 288, 32), (256, 576, 64)];

/// The f32 matmul shapes, where a per-op profile of `denoise_plain` puts
/// the f32 time: two lowered UNet 3 × 3 convs (`c_out × c_in·9 × pixels`),
/// the DiT MLP down-projection and an attention projection, and a UNet
/// self-attention `Q·Kᵀ`.
const F32_SHAPES: [(usize, usize, usize); 5] =
    [(48, 432, 256), (24, 648, 256), (64, 384, 96), (64, 96, 96), (256, 48, 256)];

/// Zeros in the f32 matmul's `a`: none, exactly one — a single `0.0` in an
/// activation operand once sent a whole call down a slow path — and 30 %.
#[derive(Clone, Copy)]
enum F32Zeros {
    None,
    One,
    Share30,
}

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

/// One measured point, pre-derivation. The speedup column is computed once
/// all rows exist.
struct KernelRow {
    kernel: &'static str,
    shape: String,
    backend: String,
    gflops: f64,
    /// Zero share of the left operand in percent — matmul rows only.
    zeros_pct: Option<f64>,
}

/// The measured conv2d shapes `(c_in, h, w, c_out, params)`: UNet 3 × 3
/// block bodies (narrow and wide), a 1 × 1 channel mix and a stride-2
/// downsampling conv.
const CONV_SHAPES: [(usize, usize, usize, usize, Conv2dParams); 5] = [
    (8, 16, 16, 16, Conv2dParams { kernel: 3, stride: 1, padding: 1 }),
    (8, 12, 12, 8, Conv2dParams { kernel: 3, stride: 1, padding: 1 }),
    (32, 16, 16, 64, Conv2dParams { kernel: 1, stride: 1, padding: 0 }),
    (16, 16, 16, 32, Conv2dParams { kernel: 3, stride: 2, padding: 1 }),
    (32, 16, 16, 32, Conv2dParams { kernel: 3, stride: 1, padding: 1 }),
];

fn conv_shape_name(c_in: usize, h: usize, w: usize, c_out: usize, p: Conv2dParams) -> String {
    format!("c{c_in}-{c_out}_{h}x{w}_k{}s{}", p.kernel, p.stride)
}

/// Independent accumulator chains of the roofline loop: every vector
/// register but the two operands.
const ROOFLINE_CHAINS: usize = 14;

/// This host's no-FMA mul + add peak at `level` in GFLOP/s, or `None` for
/// a level without a loop here (`level` must run on this host): [`ROOFLINE_CHAINS`] register-resident
/// chains of the dependent `acc = acc·x + y`. The dependence is the point:
/// LLVM hoists a loop-invariant product out of the loop. So is the opaque
/// start value: from a constant one LLVM folds the chain to its fixed
/// point and deletes the loop.
fn roofline_gflops(level: SimdLevel, min_ms: u64) -> Option<f64> {
    #[cfg(target_arch = "x86_64")]
    {
        let lanes = match level {
            SimdLevel::Avx2 => 8,
            SimdLevel::Sse2 => 4,
            _ => return None,
        };
        const ROUNDS: usize = 1 << 14;
        let flops = (2 * ROOFLINE_CHAINS * lanes * ROUNDS) as f64;
        // A peak, so the best of a longer run than a kernel row gets.
        Some(best_gflops(flops, 3 * min_ms, || {
            let start = std::hint::black_box(2.0);
            // SAFETY: `level` runs on this host (it came from an available
            // backend), and AVX2 is only called at `Avx2`.
            std::hint::black_box(unsafe {
                if lanes == 8 {
                    roofline::avx2(ROUNDS, start)
                } else {
                    roofline::sse2(ROUNDS, start)
                }
            });
        }))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (level, min_ms);
        None
    }
}

#[cfg(target_arch = "x86_64")]
mod roofline {
    use std::arch::x86_64::*;

    use super::ROOFLINE_CHAINS;

    /// `rounds` steps of every chain on 8-lane vectors from `start`;
    /// returns the lane sum.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn avx2(rounds: usize, start: f32) -> f32 {
        let (x, y) = (_mm256_set1_ps(0.999_9), _mm256_set1_ps(1e-4));
        let mut acc = [_mm256_set1_ps(start); ROOFLINE_CHAINS];
        for _ in 0..rounds {
            for a in &mut acc {
                *a = _mm256_add_ps(_mm256_mul_ps(*a, x), y);
            }
        }
        let sum = acc.into_iter().fold(_mm256_setzero_ps(), |s, a| _mm256_add_ps(s, a));
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
        lanes.iter().sum()
    }

    /// `rounds` steps of every chain on 4-lane vectors from `start`;
    /// returns the lane sum.
    ///
    /// # Safety
    /// SSE2 must be available.
    #[target_feature(enable = "sse2")]
    pub unsafe fn sse2(rounds: usize, start: f32) -> f32 {
        let (x, y) = (_mm_set1_ps(0.999_9), _mm_set1_ps(1e-4));
        let mut acc = [_mm_set1_ps(start); ROOFLINE_CHAINS];
        for _ in 0..rounds {
            for a in &mut acc {
                *a = _mm_add_ps(_mm_mul_ps(*a, x), y);
            }
        }
        let sum = acc.into_iter().fold(_mm_setzero_ps(), |s, a| _mm_add_ps(s, a));
        let mut lanes = [0.0f32; 4];
        _mm_storeu_ps(lanes.as_mut_ptr(), sum);
        lanes.iter().sum()
    }
}

fn bench_kernels(min_ms: u64) -> Value {
    use std::hint::black_box;
    let backends = KernelBackend::available();
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
            for &backend in &backends {
                let label = backend.resolved_name();
                // Bit-identity asserted in setup: a backend that drifts
                // from the scalar reference must never produce a perf
                // number.
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
                // Both time the allocating entry points, so on a `simd`
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
                        zeros_pct: Some(zeros_pct as f64),
                    });
                }
            }
        }
    }
    for &(m, k, n) in &F32_SHAPES {
        let shape = format!("{m}x{k}x{n}");
        let flops = (2 * m * k * n) as f64;
        let b: Vec<f32> = (0..k * n).map(|_| rng.next_normal()).collect();
        for zeros in [F32Zeros::None, F32Zeros::One, F32Zeros::Share30] {
            // Normal draws are never exactly zero; the zeros are placed.
            let mut a: Vec<f32> = (0..m * k).map(|_| rng.next_normal()).collect();
            match zeros {
                F32Zeros::None => {}
                F32Zeros::One => a[m * k / 2] = 0.0,
                F32Zeros::Share30 => {
                    for v in &mut a {
                        if rng.next_below(100) < 30 {
                            *v = 0.0;
                        }
                    }
                }
            }
            let zeros_pct = 100.0 * a.iter().filter(|&&v| v == 0.0).count() as f64 / a.len() as f64;
            let mut want = vec![0.0f32; m * n];
            matmul_acc_with(KernelBackend::Scalar, &mut want, &a, &b, m, k, n);
            let mut out = vec![0.0f32; m * n];
            for &backend in &backends {
                let label = backend.resolved_name();
                out.fill(0.0);
                matmul_acc_with(backend, &mut out, &a, &b, m, k, n);
                assert!(
                    out.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{label} f32 matmul diverged bitwise from the scalar reference at {shape}"
                );
                let gf = best_gflops(flops, min_ms, || {
                    out.fill(0.0);
                    matmul_acc_with(backend, black_box(&mut out), black_box(&a), &b, m, k, n);
                });
                println!(
                    "perfbench: {:>20} {shape:>16} z{zeros_pct:<7.4} {label:>9}: {gf:8.3} GFLOP/s",
                    "matmul_f32"
                );
                rows.push(KernelRow {
                    kernel: "matmul_f32",
                    shape: shape.clone(),
                    backend: label.clone(),
                    gflops: gf,
                    zeros_pct: Some(zeros_pct),
                });
            }
        }
    }
    for &(c_in, h, w, c_out, params) in &CONV_SHAPES {
        let shape = conv_shape_name(c_in, h, w, c_out, params);
        let kk = params.kernel;
        let (ho, wo) = (params.out_extent(h), params.out_extent(w));
        let flops = (2 * c_out * ho * wo * c_in * kk * kk) as f64;
        let input = Tensor::randn(&[c_in, h, w], &mut rng);
        let weight = Tensor::randn(&[c_out, c_in, kk, kk], &mut rng);
        let bias = Tensor::randn(&[c_out], &mut rng);
        let want = conv2d_direct(&input, &weight, Some(&bias), params).expect("direct conv2d");
        // The compiled plans' entry, over buffers kept across calls.
        let mut scratch = vec![0.0f32; conv2d_scratch_len(c_in, h, w, params)];
        let mut out = vec![0.0f32; c_out * ho * wo];
        let mut conv = |backend, out: &mut [f32]| {
            conv2d_lowered_into(
                backend,
                input.as_slice(),
                c_in,
                h,
                w,
                &weight,
                Some(&bias),
                params,
                &mut scratch,
                out,
            )
            .expect("conv2d");
        };
        for &backend in &backends {
            let label = backend.resolved_name();
            conv(backend, &mut out);
            assert!(
                out.iter().zip(want.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{label} conv2d diverged bitwise from the direct reference at {shape}"
            );
            let gf = gflops(flops, min_ms, || conv(backend, black_box(&mut out)));
            println!("perfbench: {:>20} {shape:>16} {label:>9}: {gf:8.3} GFLOP/s", "conv2d_f32");
            rows.push(KernelRow {
                kernel: "conv2d_f32",
                shape: shape.clone(),
                backend: label.clone(),
                gflops: gf,
                zeros_pct: None,
            });
        }
    }
    let roofline: Vec<Value> = backends
        .iter()
        .filter_map(|&backend| {
            let KernelBackend::Simd(level) = backend else { return None };
            let gf = roofline_gflops(level, min_ms)?;
            let label = backend.resolved_name();
            println!("perfbench: {:>20} {:>16} {label:>9}: {gf:8.3} GFLOP/s", "roofline", "");
            Some(obj(vec![
                ("backend", Value::Str(label)),
                ("chains", ROOFLINE_CHAINS.to_json()),
                ("gflops", Value::Num(gf)),
            ]))
        })
        .collect();
    // Derive the speedup column against the scalar row measured for the
    // same (kernel, shape, zero share).
    let scalar = |of: &KernelRow| {
        rows.iter()
            .find(|r| {
                r.kernel == of.kernel
                    && r.shape == of.shape
                    && r.zeros_pct == of.zeros_pct
                    && r.backend == "scalar"
            })
            .map(|r| r.gflops)
            .expect("every (kernel, shape) measures every backend")
    };
    let results: Vec<Value> = rows
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("kernel", Value::Str(r.kernel.to_string())),
                ("shape", Value::Str(r.shape.clone())),
                ("backend", Value::Str(r.backend.clone())),
                ("gflops", Value::Num(r.gflops)),
                ("speedup_vs_scalar", Value::Num(r.gflops / scalar(r))),
            ];
            if let Some(zeros_pct) = r.zeros_pct {
                fields.push(("zeros_pct", Value::Num(zeros_pct)));
            }
            obj(fields)
        })
        .collect();
    obj(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("kind", Value::Str("kernels".into())),
        ("units", Value::Str("gflops = 2*m*k*n ops / second / 1e9".into())),
        ("backends", Value::Arr(backends.iter().map(|b| Value::Str(b.resolved_name())).collect())),
        (
            "shapes",
            Value::Arr(SHAPES.iter().map(|(m, k, n)| Value::Str(format!("{m}x{k}x{n}"))).collect()),
        ),
        ("results", Value::Arr(results)),
        ("roofline", Value::Arr(roofline)),
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
/// `scalar` backend) and every available SIMD backend (`simd:<level>`; a
/// level without a kernel for the function runs the port). Trials
/// alternate the implementations; each row reports the min and median.
/// Every `simd` level is asserted bit-identical to the port first (the host libm is not: the ports are fixed, hosts' libms differ).
fn bench_activations(min_ms: u64) -> Vec<Value> {
    use std::hint::black_box;
    let mut rng = Rng::seed_from(19);
    let mut impls: Vec<(String, Option<KernelBackend>)> = vec![("libm".to_string(), None)];
    for backend in KernelBackend::available() {
        let label = match backend {
            KernelBackend::Scalar => "port".to_string(),
            simd => simd.resolved_name(),
        };
        impls.push((label, Some(backend)));
    }
    let mut entries = Vec::new();
    for &(function, rows, cols) in &ACTIVATION_SHAPES {
        let n = rows * cols;
        let x: Vec<f32> = (0..n).map(|_| rng.next_normal() * 3.0).collect();
        let mut want = vec![0.0f32; n];
        run_activation(function, KernelBackend::Scalar, &x, rows, cols, &mut want);
        let mut out = vec![0.0f32; n];
        for (label, backend) in &impls {
            if let Some(backend) = *backend {
                run_activation(function, backend, &x, rows, cols, &mut out);
                assert!(
                    out.iter().zip(&want).all(|(p, q)| p.to_bits() == q.to_bits()),
                    "{label} {function} diverged bitwise from the scalar port at {rows}x{cols}"
                );
            }
        }
        let mut ns = vec![Vec::new(); impls.len()];
        for _ in 0..ACTIVATION_TRIALS {
            for ((_, backend), ns) in impls.iter().zip(&mut ns) {
                let call = ns_per_call(min_ms, || match *backend {
                    None => libm_activation(function, black_box(&x), cols, &mut out),
                    Some(backend) => {
                        run_activation(function, backend, black_box(&x), rows, cols, &mut out)
                    }
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
        let plan = model.plan().expect("benchmark model compiles a plan");
        let (graph, weights) = (&model.graph, model.weights());
        let (latent, context) = model.sample_inputs(29);
        let bindings = Bindings { latent: &latent, context: context.as_ref(), t: 0.5 };
        let step = StepInfo { step_index: 0, t: 0.5, total_steps: 1 };
        let want = forward(graph, weights, &bindings, step, &mut NullHook).expect("tree forward");
        let mut arena = PlanArena::new();
        let got = plan
            .execute(graph, weights, &bindings, step, &mut NullHook, &mut arena)
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
                    forward(graph, weights, black_box(&bindings), step, &mut NullHook).unwrap(),
                );
            }));
            plan_ns = plan_ns.min(ns_per_call(min_ms, || {
                black_box(
                    plan.execute(
                        graph,
                        weights,
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
