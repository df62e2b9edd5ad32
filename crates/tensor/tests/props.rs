//! Property-based tests for the tensor substrate.
//!
//! The central property — distributivity of linear kernels over operand
//! sums — is the algebraic foundation of the Ditto algorithm (§IV-A), so it
//! is exercised here on randomized shapes and values.

use proptest::prelude::*;
use tensor::ops::{self, Conv2dParams};
use tensor::{stats, KernelBackend, Rng, Tensor};

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

/// `matmul_acc_with` on every available backend against the scalar
/// reference, over the f32 core's tiles and remainders: `m` across the
/// 6-row block and its 4/2/1 remainders, `k` across the vector widths and
/// past the core's 256-index `k` block, `n` across the 4- and 8-lane
/// groups and the 16-column strip. `a` runs without a zero, with one zero
/// at the first and at the last `k`, with one zero in each row of the
/// first 6-row block, 30 % zeros and all zeros, zeros of both signs; the
/// `b` rows next to a single zero hold `±∞` and NaN, so the outputs of the
/// rows whose `a` is zero there are NaN under the reference (every product
/// is computed, `0·∞` included); `out` is seeded with `-0.0`s. (`ops::simd`'s
/// unit test runs the same matrix on the core directly, with `b` in the
/// conv lowering's strips as well.)
#[test]
fn dense_tile_rows_and_ragged_columns_are_bit_identical() {
    let mut rng = Rng::seed_from(73);
    let nonzero = |rng: &mut Rng| {
        let v = rng.next_normal();
        if v == 0.0 {
            0.5
        } else {
            v
        }
    };
    let zero = |i: usize| if i.is_multiple_of(2) { 0.0f32 } else { -0.0 };
    let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let backends = KernelBackend::available();
    for m in 1..=13usize {
        for k in [1usize, 2, 7, 8, 9, 259] {
            for n in [1usize, 7, 8, 9, 15, 16, 17, 24, 33] {
                let dense: Vec<f32> = (0..m * k).map(|_| nonzero(&mut rng)).collect();
                // (a, the k indices whose b rows are poisoned, the rows
                // whose outputs that makes NaN).
                let mut cases = vec![(dense.clone(), vec![], vec![])];
                for (i, (r, kk)) in [(0, 0), (m - 1, k - 1)]
                    .into_iter()
                    .chain((0..m.min(6)).map(|r| (r, k / 2)))
                    .enumerate()
                {
                    let mut a = dense.clone();
                    a[r * k + kk] = zero(i);
                    cases.push((a, vec![kk], vec![r]));
                }
                let sparse = dense.iter().enumerate().map(|(i, &v)| {
                    if rng.next_below(100) < 30 {
                        zero(i)
                    } else {
                        v
                    }
                });
                cases.push((sparse.collect(), vec![], vec![]));
                cases.push(((0..m * k).map(zero).collect(), vec![0, k - 1], (0..m).collect()));
                for (a, poisoned, nan_rows) in cases {
                    let mut b: Vec<f32> = (0..k * n).map(|_| nonzero(&mut rng)).collect();
                    for &kk in &poisoned {
                        for (j, v) in b[kk * n..(kk + 1) * n].iter_mut().enumerate() {
                            *v = poison[j % 3];
                        }
                    }
                    let seed: Vec<f32> = (0..m * n)
                        .map(|i| if i.is_multiple_of(3) { -0.0 } else { nonzero(&mut rng) })
                        .collect();
                    let mut want = seed.clone();
                    ops::matmul_acc_with(KernelBackend::Scalar, &mut want, &a, &b, m, k, n);
                    for &r in &nan_rows {
                        let row = &want[r * n..(r + 1) * n];
                        assert!(row.iter().all(|v| v.is_nan()), "0·∞ kept out of row {r}");
                    }
                    for &backend in &backends {
                        let mut got = seed.clone();
                        ops::matmul_acc_with(backend, &mut got, &a, &b, m, k, n);
                        for (p, q) in got.iter().zip(&want) {
                            assert!(
                                same_value(*p, *q),
                                "matmul diverged on {backend}, {m}x{k}x{n}: {p} vs {q}"
                            );
                        }
                    }
                }
            }
        }
    }
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

    /// The f32 kernels are bit-identical on every available backend (the
    /// explicit-SIMD kernels keep f32 reductions in the scalar fixed order,
    /// so even they must not move a single bit). Shape ranges straddle the
    /// lane boundaries: `n` below one vector width, between one and two,
    /// and past the 2-vector register tile; `k` across the vector widths
    /// and odd remainders; `a` from dense (randn essentially never emits an
    /// exact 0.0) to 60 % zeros.
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
        let want = ops::matmul_with(KernelBackend::Scalar, &a, &b).unwrap();
        for backend in KernelBackend::available() {
            let got = ops::matmul_with(backend, &a, &b).unwrap();
            for (p, q) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert_eq!(
                    p.to_bits(), q.to_bits(), "matmul diverged on {}", backend
                );
            }
        }
    }

    /// conv2d on every available backend is bit-identical, from single-channel to wide convolutions.
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
        for backend in KernelBackend::available() {
            let got = ops::conv2d_with(backend, &input, &weight, Some(&bias), p).unwrap();
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(), "conv2d diverged on {}", backend
                );
            }
        }
    }

    /// The lowered conv (`conv2d_into_with`) is bit-identical to the
    /// sliding-window reference `conv2d_direct` on every available backend:
    /// 1×1, 3×3 and 5×5 kernels, stride 1/2,
    /// padding 0–2, non-square spatial extents whose pixel counts cross
    /// the 16-column strips (and end mid-strip), and channel counts
    /// straddling the 6-row tile.
    #[test]
    fn direct_conv_level_matrix_is_bit_identical(
        c_in in 1usize..10, h in 3usize..12, w in 3usize..20, c_out in 1usize..14,
        kernel_pick in 0usize..3, stride in 1usize..3, padding in 0usize..3,
        with_bias in any::<bool>(), seed in any::<u64>(),
    ) {
        let kernel = [1, 3, 5][kernel_pick];
        prop_assume!(h + 2 * padding >= kernel && w + 2 * padding >= kernel);
        let p = Conv2dParams { kernel, stride, padding };
        let mut rng = Rng::seed_from(seed);
        let input = Tensor::randn(&[c_in, h, w], &mut rng);
        let weight = Tensor::randn(&[c_out, c_in, p.kernel, p.kernel], &mut rng);
        let bias = Tensor::randn(&[c_out], &mut rng);
        let b = with_bias.then_some(&bias);
        let want = ops::conv2d_direct(&input, &weight, b, p).unwrap();
        for backend in KernelBackend::available() {
            let mut got = vec![f32::NAN; want.len()];
            ops::conv2d_into_with(
                backend, input.as_slice(), c_in, h, w, &weight, b, p, &mut got,
            ).unwrap();
            for (x, y) in got.iter().zip(want.as_slice()) {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "lowered conv diverged on {} (k={} s={} p={})",
                    backend, p.kernel, stride, padding
                );
            }
        }
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

    /// The default-backend matmul is bit-identical to the scalar reference
    /// on random shapes straddling the tile boundaries, including sparse
    /// operands.
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
        let got = ops::matmul(&a, &b).unwrap();
        let scalar = ops::matmul_scalar(&a, &b).unwrap();
        for (x, y) in got.as_slice().iter().zip(scalar.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The lowered convolution is bit-identical to the direct loop.
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
        let lowered = ops::conv2d(&x, &w, Some(&b), p).unwrap();
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
/// every available SIMD backend — without calling the host libm.
#[test]
fn transcendental_ports_match_pinned_glibc_outputs() {
    let inputs: Vec<f32> = LIBM_PINNED.iter().map(|&(x, ..)| f32::from_bits(x)).collect();
    for &(x, tanh, exp) in &LIBM_PINNED {
        let v = f32::from_bits(x);
        assert!(same_value(ops::tanh_f32(v), f32::from_bits(tanh)), "tanh_f32({x:#010x})");
        assert!(same_value(ops::exp_f32(v), f32::from_bits(exp)), "exp_f32({x:#010x})");
    }
    for backend in KernelBackend::available() {
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
                    "{name}({:#010x}) on {backend}",
                    row.0
                );
            }
        }
    }
}

/// Every 4 099th bit pattern (≈ 1 M inputs spread over all exponents, both
/// signs, NaNs and infinities) through every element-wise function on
/// every available backend, against the scalar forms. The `#[ignore]`d
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
        for backend in KernelBackend::available() {
            slice(backend, &inputs, &mut got);
            if let Some(i) = (0..inputs.len()).find(|&i| !same_value(got[i], want[i])) {
                panic!(
                    "{name}({:#010x}) on {backend}: {:#010x} != {:#010x}",
                    inputs[i].to_bits(),
                    got[i].to_bits(),
                    want[i].to_bits()
                );
            }
        }
    }
}

/// The slice activations at lengths around every lane count and the
/// `64 × 384` GeLU of the Small DiT, and softmax over rows holding `-inf`,
/// signed zeros and equal large logits, on every available backend against
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
            for backend in KernelBackend::available() {
                let mut got = vec![0.0f32; len];
                slice(backend, x.as_slice(), &mut got);
                for (p, q) in got.iter().zip(want.as_slice()) {
                    assert!(same_value(*p, *q), "{name} len {len} on {backend}");
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
        for backend in KernelBackend::available() {
            let mut got = vec![0.0f32; rows * cols];
            ops::softmax_rows_into_with(backend, x.as_slice(), rows, cols, &mut got);
            for (p, q) in got.iter().zip(want.as_slice()) {
                assert!(same_value(*p, *q), "softmax {rows}x{cols} on {backend}");
            }
        }
    }
}
