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
