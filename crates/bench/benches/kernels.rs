//! Criterion micro-benchmarks of the integer kernels the Ditto algorithm
//! is built on: dense A8W8 matmul vs the three-stage temporal-difference
//! update at varying delta sparsity, im2col lowering, backend comparison
//! points at the im2col shapes the UNet models actually produce (one point
//! per available `tensor::KernelBackend`), and binary-vs-JSON trace-cache
//! decoding. (The Encoding Unit pass is timed
//! by `perfbench`'s `encode` section.)
//!
//! These measure *host* (simulation) performance of the library, not the
//! modeled accelerator — they document where the delta path's zero-skipping
//! pays off in software (the scalar loop; a `simd` backend's packed core
//! runs at one rate whatever the sparsity), and that each SIMD level beats
//! the scalar references it is bit-identical to (identity asserted in the
//! bench setup below).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quant::kernels::{delta_matmul_update_with, int_matmul, int_matmul_with, reference, widen};
use std::hint::black_box;
use tensor::ops::{self, Conv2dParams};
use tensor::{KernelBackend, Rng, Tensor};

const M: usize = 64;
const K: usize = 256;
const N: usize = 128;

/// The im2col shapes the Small-scale UNets actually produce
/// (`[H·W, C_in·K²] × [C_in·K², C_out]`): SDM's 32→32 and 64→64 3×3
/// ResNet convolutions at 16×16 resolution.
const UNET_SHAPES: [(usize, usize, usize); 2] = [(256, 288, 32), (256, 576, 64)];

fn rand_i8(n: usize, rng: &mut Rng) -> Vec<i8> {
    (0..n).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect()
}

/// Deltas with the given zero fraction, remainder small 4-bit values.
fn sparse_deltas(n: usize, zero_frac: f64, rng: &mut Rng) -> Vec<i16> {
    (0..n)
        .map(|_| if rng.next_f64() < zero_frac { 0 } else { rng.next_below(15) as i16 - 7 })
        .collect()
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Rng::seed_from(1);
    let a = rand_i8(M * K, &mut rng);
    let w = rand_i8(K * N, &mut rng);
    let mut g = c.benchmark_group("int_matmul");
    g.bench_function("dense_a8w8", |b| {
        let wa = widen(&a);
        b.iter(|| int_matmul(black_box(&wa), black_box(&w), M, K, N))
    });
    let prev_out = int_matmul(&widen(&a), &w, M, K, N);
    for zero_frac in [0.0, 0.5, 0.9] {
        let deltas = sparse_deltas(M * K, zero_frac, &mut rng);
        // The acceptance shape for the explicit-SIMD backend: one point
        // per backend at each sparsity, bit-identity asserted first.
        for backend in KernelBackend::available() {
            assert_eq!(
                delta_matmul_update_with(backend, &prev_out, &deltas, &w, M, K, N),
                reference::delta_matmul_update(&prev_out, &deltas, &w, M, K, N),
                "{backend} delta update must be bit-identical to the reference"
            );
            g.bench_with_input(
                BenchmarkId::new(
                    format!("delta_update_{backend}"),
                    format!("{:.0}%zero", zero_frac * 100.0),
                ),
                &deltas,
                |b, d| {
                    b.iter(|| {
                        delta_matmul_update_with(
                            backend,
                            black_box(&prev_out),
                            black_box(d),
                            &w,
                            M,
                            K,
                            N,
                        )
                    })
                },
            );
        }
    }
    g.finish();
}

/// Integer matmul on every available backend at the UNet im2col shapes.
/// Bit-identity is asserted before timing: every backend must be a pure
/// speedup.
fn bench_int_matmul_backends(c: &mut Criterion) {
    let mut rng = Rng::seed_from(7);
    let mut g = c.benchmark_group("int_matmul_unet");
    for &(m, k, n) in &UNET_SHAPES {
        let a = widen(&rand_i8(m * k, &mut rng));
        let w = rand_i8(k * n, &mut rng);
        let want = reference::int_matmul(&a, &w, m, k, n);
        let label = format!("{m}x{k}x{n}");
        // The delta path at realistic temporal sparsity (Fig. 5: most
        // deltas are zero or 4-bit); scalar runs the two-pass reference.
        let deltas = sparse_deltas(m * k, 0.7, &mut rng);
        let want_delta = reference::delta_matmul_update(&want, &deltas, &w, m, k, n);
        for backend in KernelBackend::available() {
            assert_eq!(
                int_matmul_with(backend, &a, &w, m, k, n),
                want,
                "{backend} int_matmul must be bit-identical to the scalar reference"
            );
            assert_eq!(
                delta_matmul_update_with(backend, &want, &deltas, &w, m, k, n),
                want_delta,
                "{backend} delta update must be bit-identical to the two-pass reference"
            );
            g.bench_with_input(BenchmarkId::new(backend.to_string(), &label), &(), |b, ()| {
                b.iter(|| int_matmul_with(backend, black_box(&a), black_box(&w), m, k, n))
            });
            g.bench_with_input(
                BenchmarkId::new(format!("delta_{backend}_fused"), &label),
                &(),
                |b, ()| {
                    b.iter(|| {
                        delta_matmul_update_with(backend, black_box(&want), &deltas, &w, m, k, n)
                    })
                },
            );
        }
        g.bench_with_input(BenchmarkId::new("delta_scalar_2pass", &label), &(), |b, ()| {
            b.iter(|| reference::delta_matmul_update(black_box(&want), &deltas, &w, m, k, n))
        });
    }
    g.finish();
}

/// f32 matmul on every available backend at the UNet im2col shapes.
fn bench_f32_matmul_backends(c: &mut Criterion) {
    let mut rng = Rng::seed_from(8);
    let mut g = c.benchmark_group("matmul_f32_unet");
    for &(m, k, n) in &UNET_SHAPES {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b_mat = Tensor::randn(&[k, n], &mut rng);
        let scalar = ops::matmul_scalar(&a, &b_mat).unwrap();
        let label = format!("{m}x{k}x{n}");
        for backend in KernelBackend::available() {
            let got = ops::matmul_with(backend, &a, &b_mat).unwrap();
            assert!(
                got.as_slice()
                    .iter()
                    .zip(scalar.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{backend} f32 matmul must be bit-identical to the scalar reference"
            );
            g.bench_with_input(BenchmarkId::new(backend.to_string(), &label), &(), |b, ()| {
                b.iter(|| ops::matmul_with(backend, black_box(&a), black_box(&b_mat)))
            });
        }
    }
    g.finish();
}

fn bench_im2col_and_conv(c: &mut Criterion) {
    let mut rng = Rng::seed_from(3);
    // SDM's 32→32 3×3 convolution at 16×16: the lowered matmul against
    // the sliding-window reference loop.
    let x = Tensor::randn(&[32, 16, 16], &mut rng);
    let w = Tensor::randn(&[32, 32, 3, 3], &mut rng);
    let p = Conv2dParams::same3x3();
    let direct = ops::conv2d_direct(&x, &w, None, p).unwrap();
    let lowered = ops::conv2d(&x, &w, None, p).unwrap();
    assert!(
        direct.as_slice().iter().zip(lowered.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()),
        "the lowered conv2d must be bit-identical to the direct loop"
    );
    c.bench_function("im2col_32x16x16", |b| b.iter(|| ops::im2col(black_box(&x), p)));
    c.bench_function("conv2d_direct_32x16x16", |b| {
        b.iter(|| ops::conv2d_direct(black_box(&x), &w, None, p))
    });
    c.bench_function("conv2d_32x16x16", |b| b.iter(|| ops::conv2d(black_box(&x), &w, None, p)));
}

/// Binary trace-cache decoding — the per-model unit of work behind
/// `Suite::load`'s warm path (the parallel fan-out then divides the total
/// across cores).
fn bench_trace_decode(c: &mut Criterion) {
    use diffusion::{DiffusionModel, ModelKind, ModelScale};
    use ditto_core::runner::{trace_model, ExecPolicy};
    use ditto_core::trace::WorkloadTrace;

    let model = DiffusionModel::build(ModelKind::Ddpm, ModelScale::Tiny, 8);
    let (trace, _) = trace_model(&model, 0, ExecPolicy::Dense).unwrap();
    let bin = ditto_core::binio::to_vec(&trace);
    let mut g = c.benchmark_group("trace_cache_decode");
    g.bench_function(BenchmarkId::new("bin", format!("{}B", bin.len())), |b| {
        b.iter(|| ditto_core::binio::from_slice::<WorkloadTrace>(black_box(&bin)).unwrap())
    });
    g.finish();
}

fn bench_quantize(c: &mut Criterion) {
    let mut rng = Rng::seed_from(4);
    let x = Tensor::randn(&[64 * 256], &mut rng);
    c.bench_function("quantize_dynamic_16k", |b| {
        b.iter(|| quant::QTensor::quantize_dynamic(black_box(&x)))
    });
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_int_matmul_backends, bench_f32_matmul_backends,
        bench_im2col_and_conv, bench_trace_decode, bench_quantize
);
criterion_main!(kernels);
