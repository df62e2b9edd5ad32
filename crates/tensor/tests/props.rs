//! Property-based tests for the tensor substrate.
//!
//! The central property — distributivity of linear kernels over operand
//! sums — is the algebraic foundation of the Ditto algorithm (§IV-A), so it
//! is exercised here on randomized shapes and values.

use proptest::prelude::*;
use tensor::backend::{available_simd_levels, hw_simd_level, set_simd_level, SimdLevel};
use tensor::ops::{self, Conv2dParams};
use tensor::{stats, KernelBackend, Rng, Tensor};

/// Backend × SIMD-level configurations for the bit-identity matrices: the
/// portable backends, then the `simd` backend once per hardware-supported
/// level — including `none`, which exercises the graceful-degradation
/// seam (simd selected, no kernels available → the tiled path). This is
/// exactly the sweep the `DITTO_SIMD_LEVEL` override makes CI-testable on
/// hosts whose native level is higher.
fn backend_level_matrix() -> Vec<(KernelBackend, Option<SimdLevel>)> {
    let mut configs = vec![(KernelBackend::Scalar, None), (KernelBackend::Tiled, None)];
    for level in available_simd_levels() {
        configs.push((KernelBackend::Simd, Some(level)));
    }
    configs
}

fn approx_eq(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(&x, &y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

fn small_vals(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-8.0f32..8.0, n)
}

/// The dense register tile is four rows high with two- and one-row
/// remainders, two vectors wide with one-vector and scalar column tails:
/// `m` on both sides of every row tile against `n` on both sides of every
/// column tile at 4 and 8 lanes, `a` without a zero (the dense predicate),
/// `b` and the seeded `out` carrying zeros of both signs, whose sums show a
/// reordered or fused reduction.
#[test]
fn dense_tile_rows_and_ragged_columns_are_bit_identical() {
    let mut rng = Rng::seed_from(73);
    let mut signed = |len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| match rng.next_below(6) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.next_normal(),
            })
            .collect()
    };
    for m in [3usize, 4, 5, 7, 8] {
        for k in [1usize, 5, 9] {
            for n in [1usize, 3, 4, 7, 8, 9, 12, 15, 16, 17, 23, 33] {
                let a: Vec<f32> =
                    signed(m * k).into_iter().map(|v| if v == 0.0 { 0.5 } else { v }).collect();
                let (b, seed) = (signed(k * n), signed(m * n));
                let mut want = seed.clone();
                ops::matmul_acc_with(KernelBackend::Scalar, &mut want, &a, &b, m, k, n);
                for (backend, level) in backend_level_matrix() {
                    if let Some(level) = level {
                        set_simd_level(level).unwrap();
                    }
                    let mut got = seed.clone();
                    ops::matmul_acc_with(backend, &mut got, &a, &b, m, k, n);
                    for (p, q) in got.iter().zip(&want) {
                        assert_eq!(
                            p.to_bits(),
                            q.to_bits(),
                            "dense matmul diverged on {backend} at {level:?}, {m}x{k}x{n}"
                        );
                    }
                }
            }
        }
    }
    set_simd_level(hw_simd_level()).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (X + D) · W == X·W + D·W — the Ditto distributive identity.
    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..1000
    ) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[m, k], &mut rng);
        let d = Tensor::randn(&[m, k], &mut rng);
        let w = Tensor::randn(&[k, n], &mut rng);
        let sum = ops::add(&x, &d).unwrap();
        let lhs = ops::matmul(&sum, &w).unwrap();
        let rhs = ops::add(
            &ops::matmul(&x, &w).unwrap(),
            &ops::matmul(&d, &w).unwrap(),
        ).unwrap();
        prop_assert!(approx_eq(&lhs, &rhs, 1e-4));
    }

    /// The f32 kernels are bit-identical on every available backend at
    /// every available SIMD level (the explicit-SIMD kernels keep f32
    /// reductions in the scalar fixed order, so even they must not move
    /// a single bit). Shape ranges straddle the lane boundaries: `n`
    /// below one vector width, between one and two, and past the 2-vector
    /// register tile; `k` across the 8-step streaming guard and odd
    /// remainders. `zero_pct == 0` drives the dense register path (randn
    /// essentially never emits exact 0.0).
    #[test]
    fn backend_matrix_is_bit_identical(
        m in 1usize..10, k in 1usize..40, n in 1usize..24,
        zero_pct in 0u32..60, seed in any::<u64>(),
    ) {
        let mut rng = Rng::seed_from(seed);
        let mut a = Tensor::randn(&[m, k], &mut rng);
        for v in a.as_mut_slice().iter_mut() {
            if rng.next_below(100) < zero_pct as usize {
                *v = 0.0;
            }
        }
        let b = Tensor::randn(&[k, n], &mut rng);
        let x = Tensor::randn(&[k], &mut rng);
        let want = ops::matmul_with(KernelBackend::Scalar, &a, &b).unwrap();
        let want_v = ops::matvec_with(KernelBackend::Scalar, &a, &x).unwrap();
        for (backend, level) in backend_level_matrix() {
            if let Some(level) = level {
                set_simd_level(level).unwrap();
            }
            let got = ops::matmul_with(backend, &a, &b).unwrap();
            for (p, q) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert_eq!(
                    p.to_bits(), q.to_bits(), "matmul diverged on {} at {:?}", backend, level
                );
            }
            let got_v = ops::matvec_with(backend, &a, &x).unwrap();
            for (p, q) in got_v.as_slice().iter().zip(want_v.as_slice()) {
                prop_assert_eq!(
                    p.to_bits(), q.to_bits(), "matvec diverged on {} at {:?}", backend, level
                );
            }
        }
        set_simd_level(hw_simd_level()).unwrap();
    }

    /// conv2d on every backend at every available SIMD level is
    /// bit-identical, across the direct/im2col routing threshold.
    #[test]
    fn conv_backend_matrix_is_bit_identical(
        c_in in 1usize..8, hw in 3usize..10, c_out in 1usize..12, seed in any::<u64>(),
    ) {
        let mut rng = Rng::seed_from(seed);
        let p = Conv2dParams::same3x3();
        let input = Tensor::randn(&[c_in, hw, hw], &mut rng);
        let weight = Tensor::randn(&[c_out, c_in, 3, 3], &mut rng);
        let bias = Tensor::randn(&[c_out], &mut rng);
        let want = ops::conv2d_with(KernelBackend::Scalar, &input, &weight, Some(&bias), p).unwrap();
        for (backend, level) in backend_level_matrix() {
            if let Some(level) = level {
                set_simd_level(level).unwrap();
            }
            let got = ops::conv2d_with(backend, &input, &weight, Some(&bias), p).unwrap();
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(), "conv2d diverged on {} at {:?}", backend, level
                );
            }
        }
        set_simd_level(hw_simd_level()).unwrap();
    }

    /// The lowering-free direct route (`conv2d_direct_into_with`, the
    /// compiled-plan `Conv2dDirect` entry) is bit-identical to the
    /// portable reference on every backend at every available SIMD level,
    /// across the full shape-class matrix: 1×1 and 3×3 kernels, stride
    /// 1/2, padding 0/1, non-square spatial extents wide enough to cross
    /// the 8-lane AVX2 strip boundary plus narrow-row/scalar tails, and
    /// channel counts straddling the lane boundaries.
    #[test]
    fn direct_conv_level_matrix_is_bit_identical(
        c_in in 1usize..10, h in 3usize..12, w in 3usize..20, c_out in 1usize..10,
        kernel_is_3 in any::<bool>(), stride in 1usize..3, padding in 0usize..2,
        with_bias in any::<bool>(), seed in any::<u64>(),
    ) {
        let p = Conv2dParams { kernel: if kernel_is_3 { 3 } else { 1 }, stride, padding };
        let mut rng = Rng::seed_from(seed);
        let input = Tensor::randn(&[c_in, h, w], &mut rng);
        let weight = Tensor::randn(&[c_out, c_in, p.kernel, p.kernel], &mut rng);
        let bias = Tensor::randn(&[c_out], &mut rng);
        let b = with_bias.then_some(&bias);
        let want = ops::conv2d_direct(&input, &weight, b, p).unwrap();
        for (backend, level) in backend_level_matrix() {
            if let Some(level) = level {
                set_simd_level(level).unwrap();
            }
            let mut got = vec![f32::NAN; want.len()];
            ops::conv2d_direct_into_with(
                backend, input.as_slice(), c_in, h, w, &weight, b, p, &mut got,
            ).unwrap();
            for (x, y) in got.iter().zip(want.as_slice()) {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "direct conv diverged on {} at {:?} (k={} s={} p={})",
                    backend, level, p.kernel, stride, padding
                );
            }
        }
        set_simd_level(hw_simd_level()).unwrap();
    }

    /// conv2d(x + d) == conv2d(x) + conv2d(d) when bias is folded once.
    #[test]
    fn conv_distributes_over_addition(c_in in 1usize..3, hw in 2usize..6, seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[c_in, hw, hw], &mut rng);
        let d = Tensor::randn(&[c_in, hw, hw], &mut rng);
        let w = Tensor::randn(&[2, c_in, 3, 3], &mut rng);
        let p = Conv2dParams::same3x3();
        let sum = ops::add(&x, &d).unwrap();
        let lhs = ops::conv2d(&sum, &w, None, p).unwrap();
        let rhs = ops::add(
            &ops::conv2d(&x, &w, None, p).unwrap(),
            &ops::conv2d(&d, &w, None, p).unwrap(),
        ).unwrap();
        prop_assert!(approx_eq(&lhs, &rhs, 1e-3));
    }

    /// Matmul is associative with the identity and respects transposition:
    /// (A·B)^T == B^T · A^T.
    #[test]
    fn matmul_transpose_identity(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let ab_t = ops::matmul(&a, &b).unwrap().transpose().unwrap();
        let bt_at = ops::matmul(&b.transpose().unwrap(), &a.transpose().unwrap()).unwrap();
        prop_assert!(approx_eq(&ab_t, &bt_at, 1e-4));
    }

    /// im2col + matmul equals direct convolution.
    #[test]
    fn im2col_equals_direct(c_in in 1usize..3, hw in 3usize..6, c_out in 1usize..3, seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[c_in, hw, hw], &mut rng);
        let w = Tensor::randn(&[c_out, c_in, 3, 3], &mut rng);
        let p = Conv2dParams::same3x3();
        let direct = ops::conv2d(&x, &w, None, p).unwrap();
        let cols = ops::im2col(&x, p).unwrap();
        let wmat = w.reshape(&[c_out, c_in * 9]).unwrap().transpose().unwrap();
        let gemm = ops::matmul(&cols, &wmat).unwrap();
        for co in 0..c_out {
            for pix in 0..hw * hw {
                let dv = direct.as_slice()[co * hw * hw + pix];
                let gv = gemm.as_slice()[pix * c_out + co];
                prop_assert!((dv - gv).abs() < 1e-3 * (1.0 + dv.abs()));
            }
        }
    }

    /// The tiled matmul is bit-identical to the scalar reference on random
    /// shapes straddling the tile boundaries, including sparse operands.
    #[test]
    fn tiled_matmul_bitwise_equals_scalar(
        m in 1usize..20, k in 1usize..40, n in 1usize..20, seed in 0u64..1000
    ) {
        let mut rng = Rng::seed_from(seed);
        let mut a = Tensor::randn(&[m, k], &mut rng);
        for v in a.as_mut_slice().iter_mut() {
            if rng.next_f64() < 0.25 { *v = 0.0; }
        }
        let b = Tensor::randn(&[k, n], &mut rng);
        let tiled = ops::matmul(&a, &b).unwrap();
        let scalar = ops::matmul_scalar(&a, &b).unwrap();
        for (x, y) in tiled.as_slice().iter().zip(scalar.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        let x = Tensor::randn(&[k], &mut rng);
        let mv = ops::matvec(&a, &x).unwrap();
        let mv_ref = ops::matvec_scalar(&a, &x).unwrap();
        for (x, y) in mv.as_slice().iter().zip(mv_ref.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The im2col-lowered convolution is bit-identical to the direct loop.
    #[test]
    fn im2col_conv_bitwise_equals_direct(
        c_in in 1usize..4, hw in 3usize..8, c_out in 1usize..4,
        stride in 1usize..3, seed in 0u64..1000
    ) {
        let mut rng = Rng::seed_from(seed);
        let p = Conv2dParams { kernel: 3, stride, padding: 1 };
        let x = Tensor::randn(&[c_in, hw, hw], &mut rng);
        let w = Tensor::randn(&[c_out, c_in, 3, 3], &mut rng);
        let b = Tensor::randn(&[c_out], &mut rng);
        let direct = ops::conv2d_direct(&x, &w, Some(&b), p).unwrap();
        let lowered = ops::conv2d_im2col(&x, &w, Some(&b), p).unwrap();
        prop_assert_eq!(direct.dims(), lowered.dims());
        for (d, l) in direct.as_slice().iter().zip(lowered.as_slice()) {
            prop_assert_eq!(d.to_bits(), l.to_bits());
        }
    }

    /// Cosine similarity is symmetric, bounded, and scale-invariant.
    #[test]
    fn cosine_properties(v in small_vals(16), scale in 0.1f32..10.0) {
        let w: Vec<f32> = v.iter().map(|&x| x * scale).collect();
        let sim_self = stats::cosine_similarity(&v, &w);
        prop_assert!(sim_self >= 0.999 || v.iter().all(|&x| x == 0.0));
        let u: Vec<f32> = v.iter().rev().copied().collect();
        let s1 = stats::cosine_similarity(&v, &u);
        let s2 = stats::cosine_similarity(&u, &v);
        prop_assert!((s1 - s2).abs() < 1e-6);
        prop_assert!((-1.0001..=1.0001).contains(&s1));
    }

    /// Softmax rows always sum to 1 and are positive.
    #[test]
    fn softmax_rows_are_distributions(rows in 1usize..4, cols in 1usize..8, seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[rows, cols], &mut rng).map(|v| v * 10.0);
        let y = ops::softmax_rows(&x).unwrap();
        for r in 0..rows {
            let s: f32 = y.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(y.row(r).iter().all(|&p| p >= 0.0));
        }
    }

    /// Group norm output has ~zero mean / ~unit variance per group with
    /// identity affine parameters.
    #[test]
    fn group_norm_standardizes(groups in 1usize..3, seed in 0u64..200) {
        let c = groups * 2;
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[c, 4, 4], &mut rng).map(|v| v * 3.0 + 1.0);
        let gamma = Tensor::full(&[c], 1.0);
        let beta = Tensor::zeros(&[c]);
        let y = ops::group_norm(&x, groups, &gamma, &beta, 1e-5).unwrap();
        let per = (c / groups) * 16;
        for g in 0..groups {
            let s = &y.as_slice()[g * per..(g + 1) * per];
            prop_assert!(stats::mean(s).abs() < 1e-3);
            prop_assert!((stats::variance(s) - 1.0).abs() < 0.05);
        }
    }
}

/// Equal bits, or NaN on both sides (payloads are not part of the contract).
fn same_value(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// `(input, tanhf(input), expf(input))` bit patterns, captured once from
/// glibc 2.36's `tanhf` / `expf` on x86-64 (FMA ifunc variant) at every
/// branch boundary of the two ports: signed zeros and subnormals, `2⁻⁵⁵`
/// (tanh's identity arm), `2⁻²⁶` (expm1's), `0.5·ln2 / 2` and
/// `1.5·ln2 / 2` (expm1's `k = 0` / `k = −1` / general reductions), `±1`,
/// the first inputs reaching `k` = 22, 23, 56, 57 (the exponent-path edges),
/// `22` (tanh's saturation), `±88` / `88.72` (expf's special range and
/// overflow), `−103.28` / `−103.97` (its two underflow arms), `±∞`, NaN,
/// and the two inputs where glibc's non-FMA `expf` rounds differently.
const LIBM_PINNED: [(u32, u32, u32); 64] = [
    (0x00000000, 0x00000000, 0x3f800000),
    (0x80000000, 0x80000000, 0x3f800000),
    (0x00000001, 0x00000001, 0x3f800000),
    (0x807fffff, 0x807fffff, 0x3f800000),
    (0x00800000, 0x00800000, 0x3f800000),
    (0x23ffffff, 0x23ffffff, 0x3f800000),
    (0x24000000, 0x24000000, 0x3f800000),
    (0xa4000000, 0xa4000000, 0x3f800000),
    (0x327fffff, 0x327fffff, 0x3f800000),
    (0x32800000, 0x32800000, 0x3f800000),
    (0xb2800000, 0xb2800000, 0x3f800000),
    (0x3e317218, 0x3e2fb0cd, 0x3f9837f0),
    (0x3e317219, 0x3e2fb0cd, 0x3f9837f0),
    (0xbe317219, 0xbe2fb0cd, 0x3f5744fd),
    (0x3f051591, 0x3ef486f8, 0x3fd744fc),
    (0x3f051592, 0x3ef486f8, 0x3fd744fd),
    (0xbf051592, 0xbef486f8, 0x3f1837f0),
    (0x3f7fffff, 0x3f42f7d5, 0x402df854),
    (0x3f800000, 0x3f42f7d6, 0x402df854),
    (0xbf800000, 0xbf42f7d6, 0x3ebc5ab2),
    (0xbf7fffff, 0xbf42f7d5, 0x3ebc5ab2),
    (0x41afffff, 0x3f800000, 0x4f55ad53),
    (0x41b00000, 0x3f800000, 0x4f55ad6e),
    (0xc1b00000, 0xbf800000, 0x2f995a46),
    (0x3f000000, 0x3eec9a9f, 0x3fd3094c),
    (0xbf333333, 0xbf1ab7d8, 0x3efe406e),
    (0x40400000, 0x3f7ebbe9, 0x41a0af2e),
    (0x41200000, 0x3f800000, 0x46ac14ee),
    (0x42b00000, 0x3f800000, 0x7ef882b7),
    (0xc2b00000, 0xbf800000, 0x0041edc4),
    (0x42b17217, 0x3f800000, 0x7f7fff84),
    (0x42b17218, 0x3f800000, 0x7f800000),
    (0xc2b17218, 0xbf800000, 0x001fffff),
    (0xc2ce8ece, 0xbf800000, 0x00000001),
    (0xc2ce8ecf, 0xbf800000, 0x00000001),
    (0xc2ce8ed0, 0xbf800000, 0x00000001),
    (0xc2cff1b3, 0xbf800000, 0x00000001),
    (0xc2cff1b4, 0xbf800000, 0x00000001),
    (0xc2cff1b5, 0xbf800000, 0x00000000),
    (0x42028b2f, 0x3f800000, 0x5707a4e1),
    (0xc27b8d59, 0xbf800000, 0x121a87b4),
    (0x3fc00000, 0x3f67b7cc, 0x408f69ff),
    (0x40200000, 0x3f7c92c1, 0x4142eb7f),
    (0x3f400000, 0x3f22991f, 0x40077cee),
    (0xbf666666, 0xbf375f4c, 0x3ed029e6),
    (0x3d800000, 0x3d7faacd, 0x3f88415b),
    (0x7f800000, 0x3f800000, 0x7f800000),
    (0xff800000, 0xbf800000, 0x00000000),
    (0x7fc00000, 0x7fc00000, 0x7fc00000),
    (0x7f7fffff, 0x3f800000, 0x7f800000),
    (0xff7fffff, 0xbf800000, 0x00000000),
    (0x40ee714f, 0x3f7ffff5, 0x44d744f5),
    (0x40ee7150, 0x3f7ffff5, 0x44d744fb),
    (0xc0ee7150, 0xbf7ffff5, 0x3a1837f1),
    (0x40f98871, 0x3f7ffffa, 0x451837ed),
    (0x40f98872, 0x3f7ffffa, 0x451837f2),
    (0xc0f98872, 0xbf7ffffa, 0x39d744fb),
    (0x4199e0f0, 0x3f800000, 0x4d5744e8),
    (0x4199e0f1, 0x3f800000, 0x4d574503),
    (0xc199e0f1, 0xbf800000, 0x319837ec),
    (0x419ca6b8, 0x3f800000, 0x4d9837da),
    (0x419ca6b9, 0x3f800000, 0x4d9837ed),
    (0xc19ca6b9, 0xbf800000, 0x31574501),
    (0x3e800000, 0x3e7acbf5, 0x3fa45af2),
];

/// The ports reproduce the pinned glibc outputs, on the scalar path and on
/// every vector level — without calling the host libm.
#[test]
fn transcendental_ports_match_pinned_glibc_outputs() {
    let inputs: Vec<f32> = LIBM_PINNED.iter().map(|&(x, ..)| f32::from_bits(x)).collect();
    for &(x, tanh, exp) in &LIBM_PINNED {
        let v = f32::from_bits(x);
        assert!(same_value(ops::tanh_f32(v), f32::from_bits(tanh)), "tanh_f32({x:#010x})");
        assert!(same_value(ops::exp_f32(v), f32::from_bits(exp)), "exp_f32({x:#010x})");
    }
    for (backend, level) in backend_level_matrix() {
        if let Some(level) = level {
            set_simd_level(level).unwrap();
        }
        let mut got = vec![0.0f32; inputs.len()];
        for (name, col, f) in [
            ("tanh", 1, ops::tanh_into_with as fn(KernelBackend, &[f32], &mut [f32])),
            ("exp", 2, ops::exp_into_with),
        ] {
            f(backend, &inputs, &mut got);
            for (row, &y) in LIBM_PINNED.iter().zip(&got) {
                let want = if col == 1 { row.1 } else { row.2 };
                assert!(
                    same_value(y, f32::from_bits(want)),
                    "{name}({:#010x}) on {backend} at {level:?}",
                    row.0
                );
            }
        }
    }
    set_simd_level(hw_simd_level()).unwrap();
}

/// Every 4 099th bit pattern (≈ 1 M inputs spread over all exponents, both
/// signs, NaNs and infinities) through every element-wise function on
/// every backend × level, against the scalar forms. The `#[ignore]`d
/// `exhaustive` test in `ops::simd` covers all 2³² for `tanh` and `exp`.
#[test]
fn strided_sweep_vector_kernels_equal_scalar_ports() {
    let inputs: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
    type Slice = fn(KernelBackend, &[f32], &mut [f32]);
    type Oracle = fn(&Tensor) -> Tensor;
    let functions: [(&str, Slice, Oracle); 5] = [
        ("tanh", ops::tanh_into_with, |x| x.map(ops::tanh_f32)),
        ("exp", ops::exp_into_with, |x| x.map(ops::exp_f32)),
        ("gelu", ops::gelu_into_with, ops::gelu),
        ("silu", ops::silu_into_with, ops::silu),
        ("sigmoid", ops::sigmoid_into_with, ops::sigmoid),
    ];
    let x = Tensor::from_vec(inputs.clone(), &[inputs.len()]).unwrap();
    let mut got = vec![0.0f32; inputs.len()];
    for (name, slice, oracle) in functions {
        let want = oracle(&x).as_slice().to_vec();
        for (backend, level) in backend_level_matrix() {
            if let Some(level) = level {
                set_simd_level(level).unwrap();
            }
            slice(backend, &inputs, &mut got);
            if let Some(i) = (0..inputs.len()).find(|&i| !same_value(got[i], want[i])) {
                panic!(
                    "{name}({:#010x}) on {backend} at {level:?}: {:#010x} != {:#010x}",
                    inputs[i].to_bits(),
                    got[i].to_bits(),
                    want[i].to_bits()
                );
            }
        }
    }
    set_simd_level(hw_simd_level()).unwrap();
}

/// The slice activations at lengths around every lane count and the
/// `64 × 384` GeLU of the Small DiT, and softmax over rows holding `-inf`,
/// signed zeros and equal large logits, on every backend × level against
/// the tensor (scalar) forms.
#[test]
fn activation_slices_match_scalar_forms_at_every_length() {
    let mut rng = Rng::seed_from(97);
    let lengths = [0usize, 1, 7, 8, 9, 15, 16, 17, 33, 64 * 384];
    type Slice = fn(KernelBackend, &[f32], &mut [f32]);
    type Oracle = fn(&Tensor) -> Tensor;
    let functions: [(&str, Slice, Oracle); 3] = [
        ("gelu", ops::gelu_into_with, ops::gelu),
        ("silu", ops::silu_into_with, ops::silu),
        ("sigmoid", ops::sigmoid_into_with, ops::sigmoid),
    ];
    for len in lengths {
        let x = Tensor::randn(&[len], &mut rng).map(|v| v * 6.0);
        for (name, slice, oracle) in functions {
            let want = oracle(&x);
            for (backend, level) in backend_level_matrix() {
                if let Some(level) = level {
                    set_simd_level(level).unwrap();
                }
                let mut got = vec![0.0f32; len];
                slice(backend, x.as_slice(), &mut got);
                for (p, q) in got.iter().zip(want.as_slice()) {
                    assert!(same_value(*p, *q), "{name} len {len} on {backend} at {level:?}");
                }
            }
        }
    }
    for (rows, cols) in
        [(0usize, 4usize), (1, 1), (3, 7), (8, 8), (9, 9), (17, 15), (16, 33), (64, 384)]
    {
        let mut x = Tensor::randn(&[rows, cols], &mut rng).map(|v| v * 8.0);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            match i % 13 {
                2 => *v = f32::NEG_INFINITY,
                4 => *v = 0.0,
                6 => *v = -0.0,
                _ => {}
            }
        }
        // One row of equal large logits, one all -inf (0/0 = NaN on
        // every path), one of signed zeros only.
        for (r, fill) in [(1, 1000.0f32), (2, f32::NEG_INFINITY), (3, -0.0)] {
            if r < rows {
                x.as_mut_slice()[r * cols..(r + 1) * cols].fill(fill);
            }
        }
        let want = ops::softmax_rows(&x).unwrap();
        for (backend, level) in backend_level_matrix() {
            if let Some(level) = level {
                set_simd_level(level).unwrap();
            }
            let mut got = vec![0.0f32; rows * cols];
            ops::softmax_rows_into_with(backend, x.as_slice(), rows, cols, &mut got);
            for (p, q) in got.iter().zip(want.as_slice()) {
                assert!(same_value(*p, *q), "softmax {rows}x{cols} on {backend} at {level:?}");
            }
        }
    }
    set_simd_level(hw_simd_level()).unwrap();
}
