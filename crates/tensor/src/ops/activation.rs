//! Non-linear activation functions used by the Fig. 2 block structures.
//!
//! These are the "non-linear functions" Defo must detect: applying them to a
//! temporal *difference* is not numerically equivalent to applying them to
//! the original activations, so difference processing has to be closed
//! (summed back) before any of these run.
//!
//! # Exactness: the transcendentals are ours
//!
//! No function here calls the host libm. [`exp_f32`] and [`tanh_f32`] are
//! bit-for-bit ports of what glibc 2.36 ships on x86-64: `expf` is the ARM
//! optimized-routines algorithm in glibc's FMA variant (a 32-entry `2^(i/32)`
//! table, argument reduction and a cubic in `f64` with fused multiply-adds),
//! and `tanhf` is fdlibm's (`expm1f`-based, plain `f32` arithmetic, no FMA).
//! Both equal that libm on every one of the 2³² inputs, so every digest
//! computed before the ports landed still matches — but the values are now
//! fixed by this file rather than by whichever libm the host links, and the
//! vector kernels in [`super::simd`] run the same operation sequence per lane
//! (arms selected by blend, never by branch), which makes them exact by
//! construction. `f64::mul_add` is a correctly rounded fused multiply-add on
//! every platform, so the scalar port needs no FMA hardware.
//!
//! The `*_into_with` slice forms dispatch like
//! [`super::matmul::matmul_acc_with`]: a `Simd` backend runs the vector
//! kernel of its level where one exists (`tanh`/GeLU at AVX2 and SSE2;
//! `exp`, sigmoid, SiLU and softmax at AVX2 on hosts with FMA), and every
//! other (backend, function) runs the scalar port — the same bits either
//! way.

use crate::backend::KernelBackend;
use crate::{Result, Tensor};

/// Logistic sigmoid `1 / (1 + e^{-x})`.
pub fn sigmoid(x: &Tensor) -> Tensor {
    x.map(sigmoid_scalar)
}

/// SiLU / swish: `x * sigmoid(x)` — the ResNet-block activation.
pub fn silu(x: &Tensor) -> Tensor {
    x.map(silu_scalar)
}

/// GeLU (tanh approximation) — the transformer-block MLP activation.
pub fn gelu(x: &Tensor) -> Tensor {
    x.map(gelu_scalar)
}

pub(crate) fn sigmoid_scalar(v: f32) -> f32 {
    1.0 / (1.0 + exp_f32(-v))
}

pub(crate) fn silu_scalar(v: f32) -> f32 {
    v / (1.0 + exp_f32(-v))
}

/// `sqrt(2 / π)`, GeLU's inner scale.
#[inline]
pub(crate) fn gelu_coeff() -> f32 {
    (2.0f32 / std::f32::consts::PI).sqrt()
}

pub(crate) fn gelu_scalar(v: f32) -> f32 {
    0.5 * v * (1.0 + tanh_f32(gelu_coeff() * (v + 0.044_715 * v * v * v)))
}

/// Slice form of [`sigmoid`] on an explicit backend (see the module docs
/// for the dispatch). Bit-identical on every backend.
///
/// # Panics
///
/// Panics if `xv` and `ov` differ in length.
pub fn sigmoid_into_with(backend: KernelBackend, xv: &[f32], ov: &mut [f32]) {
    map_with(backend, super::simd::Activation::Sigmoid, sigmoid_scalar, xv, ov);
}

/// Slice form of [`silu`] on an explicit backend. Bit-identical on every
/// backend.
///
/// # Panics
///
/// Panics if `xv` and `ov` differ in length.
pub fn silu_into_with(backend: KernelBackend, xv: &[f32], ov: &mut [f32]) {
    map_with(backend, super::simd::Activation::Silu, silu_scalar, xv, ov);
}

/// Slice form of [`gelu`] on an explicit backend. Bit-identical on every
/// backend.
///
/// # Panics
///
/// Panics if `xv` and `ov` differ in length.
pub fn gelu_into_with(backend: KernelBackend, xv: &[f32], ov: &mut [f32]) {
    map_with(backend, super::simd::Activation::Gelu, gelu_scalar, xv, ov);
}

/// Element-wise [`tanh_f32`] on an explicit backend — the vector `tanh`
/// GeLU is built on, exposed so its lanes can be checked against the
/// scalar port on arbitrary bit patterns.
///
/// # Panics
///
/// Panics if `xv` and `ov` differ in length.
pub fn tanh_into_with(backend: KernelBackend, xv: &[f32], ov: &mut [f32]) {
    map_with(backend, super::simd::Activation::Tanh, tanh_f32, xv, ov);
}

/// Element-wise [`exp_f32`] on an explicit backend (the vector `exp`
/// sigmoid, SiLU and softmax are built on).
///
/// # Panics
///
/// Panics if `xv` and `ov` differ in length.
pub fn exp_into_with(backend: KernelBackend, xv: &[f32], ov: &mut [f32]) {
    map_with(backend, super::simd::Activation::Exp, exp_f32, xv, ov);
}

fn map_with(
    backend: KernelBackend,
    f: super::simd::Activation,
    scalar: fn(f32) -> f32,
    xv: &[f32],
    ov: &mut [f32],
) {
    assert_eq!(xv.len(), ov.len(), "activation operand lengths");
    if let KernelBackend::Simd(level) = backend {
        if super::simd::activation(level, f, ov, xv) {
            return;
        }
    }
    for (o, &v) in ov.iter_mut().zip(xv) {
        *o = scalar(v);
    }
}

/// Row-wise softmax of a rank-2 tensor — the attention-score non-linearity.
///
/// Uses the max-subtraction trick for numerical stability.
///
/// # Errors
///
/// Returns a rank error if `x` is not rank 2.
pub fn softmax_rows(x: &Tensor) -> Result<Tensor> {
    x.shape().expect_rank(2)?;
    let (rows, cols) = (x.dims()[0], x.dims()[1]);
    let mut out = Tensor::zeros(&[rows, cols]);
    softmax_rows_into_with(KernelBackend::Scalar, x.as_slice(), rows, cols, out.as_mut_slice());
    Ok(out)
}

/// Slice core of [`softmax_rows`] over pre-validated operands on an explicit
/// backend. Every `out` element is written. Public for arena executors;
/// bit-identical to the tensor entry point on every backend: the
/// vector kernel exponentiates by lane and keeps each row's sum a sequential
/// ascending-column fold (see [`super::simd`]).
///
/// # Panics
///
/// Panics if `xv` or `ov` does not hold `rows · cols` elements.
pub fn softmax_rows_into_with(
    backend: KernelBackend,
    xv: &[f32],
    rows: usize,
    cols: usize,
    ov: &mut [f32],
) {
    assert_eq!(xv.len(), rows * cols, "softmax input length");
    assert_eq!(ov.len(), rows * cols, "softmax output length");
    if let KernelBackend::Simd(level) = backend {
        if super::simd::softmax_rows(level, ov, xv, rows, cols) {
            return;
        }
    }
    for (row, orow) in xv.chunks_exact(cols.max(1)).zip(ov.chunks_exact_mut(cols.max(1))) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for (o, &v) in orow.iter_mut().zip(row) {
            let e = exp_f32(v - max);
            *o = e;
            sum += e;
        }
        for o in orow.iter_mut() {
            *o /= sum;
        }
    }
}

// --------------------------------------------------------------------------
// `expf`: glibc 2.36 `sysdeps/ieee754/flt-32/e_expf.c` as built for its
// x86-64 FMA ifunc variant.
// --------------------------------------------------------------------------

/// `__exp2f_data.tab`: `tab[i] = bits(2^(i/32)) − (i << 47)`, so that
/// `tab[k % 32] + (k << 47)` are the bits of `2^(k/32)` for any integer `k`.
pub(crate) const EXP2F_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `32 / ln 2` (`0x1.71547652b82fep+5`).
pub(crate) const EXP2F_INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `0x1.8p+52`: adding it rounds to an integer held in the low mantissa bits.
pub(crate) const EXP2F_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic's coefficients `C0·r³ + C1·r² + C2·r + 1`, pre-scaled by `1/32ⁱ`.
pub(crate) const EXP2F_C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// `0x1.62e42ep6f` ≈ 88.72: above it `e^x` overflows.
pub(crate) const EXPF_OFLOW: f32 = f32::from_bits(0x42b1_7217);
/// `-0x1.9fe368p6f` ≈ −103.97: below it `e^x` rounds to zero.
pub(crate) const EXPF_UFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// `-0x1.9d1d9ep6f` ≈ −103.28: below it (and above [`EXPF_UFLOW`]) glibc
/// returns `0x1.4p-75f²`, the smallest subnormal.
pub(crate) const EXPF_MAY_UFLOW: f32 = f32::from_bits(0xc2ce_8ecf);

/// `e^x`, bit-identical to glibc 2.36's `expf` on x86-64 with FMA (and to
/// the AVX2 kernel in [`super::simd`]). Without an FMA unit glibc itself
/// picks a non-fused build that differs on exactly two inputs
/// (`0x42028B2F`, `0xC27B8D59`); this port does not depend on the host.
pub fn exp_f32(x: f32) -> f32 {
    // `mul_add` is a libm call unless the code is compiled for FMA, so
    // hosts that have it run the same body compiled with it.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: FMA was just detected.
        return unsafe { exp_f32_fma(x) };
    }
    exp_f32_body(x)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn exp_f32_fma(x: f32) -> f32 {
    exp_f32_body(x)
}

#[inline(always)]
fn exp_f32_body(x: f32) -> f32 {
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    if abstop >= 0x42b {
        // |x| >= 88 or NaN.
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if abstop >= 0x7f8 {
            return x + x;
        }
        if x > EXPF_OFLOW {
            return f32::INFINITY;
        }
        if x < EXPF_UFLOW {
            return 0.0;
        }
        if x < EXPF_MAY_UFLOW {
            return f32::from_bits(1);
        }
    }
    let xd = f64::from(x);
    // x·32/ln2 = k + r with r in [-1/2, 1/2] and integer k.
    let kd = EXP2F_INV_LN2_N.mul_add(xd, EXP2F_SHIFT);
    let ki = kd.to_bits();
    let kd = kd - EXP2F_SHIFT;
    let r = EXP2F_INV_LN2_N.mul_add(xd, -kd);
    // e^x = 2^(k/32) · 2^(r/32) ≈ s · (C0·r³ + C1·r² + C2·r + 1).
    let s = f64::from_bits(EXP2F_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXP2F_C[0].mul_add(r, EXP2F_C[1]);
    let r2 = r * r;
    let y = EXP2F_C[2].mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

// --------------------------------------------------------------------------
// `tanhf`: fdlibm `s_tanhf.c` + `s_expm1f.c` as shipped by glibc 2.36.
// --------------------------------------------------------------------------

pub(crate) const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
pub(crate) const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
pub(crate) const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// `expm1f`'s scaled polynomial `Q1..Q5`.
pub(crate) const EXPM1_Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// `tanh x`, bit-identical to glibc 2.36's `tanhf` (and to the vector
/// kernels in [`super::simd`]).
pub fn tanh_f32(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if jx >= 0 { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2^-55: tanh(x) = x.
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1f(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        // |x| >= 22: ±1 (fdlibm's `one - tiny`, which rounds to 1).
        1.0
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// fdlibm's `expm1f` on the arguments [`tanh_f32`] passes it: `2|x|` in
/// `[2, 44)` or `−2|x|` in `(−2, −2^-54]`. Those take the `k = 0`, `k = −1`
/// and general reductions and the `k ≤ −2 ∨ k > 56`, `k < 23` and
/// `23 ≤ k ≤ 56` exponent paths; the `k = +1`, overflow and saturation arms
/// of the full function are unreachable from there and left out.
fn expm1f(x: f32) -> f32 {
    debug_assert!((2.0..44.0).contains(&x) || (x < 0.0 && x > -2.0), "{x} is not a tanh argument");
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x < 0.0;
    let (k, xr, c) = if hx > 0x3eb1_7218 {
        // |x| > 0.5 ln2: argument reduction.
        let (k, hi, lo) = if hx < 0x3f85_1592 {
            // |x| < 1.5 ln2 (negative here).
            (-1, x + LN2_HI, -LN2_LO)
        } else {
            let k = (INV_LN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (k, x - t * LN2_HI, t * LN2_LO)
        };
        let xr = hi - lo;
        (k, xr, (hi - xr) - lo)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25: expm1(x) = x.
        return x;
    } else {
        (0, x, 0.0)
    };
    let [q1, q2, q3, q4, q5] = EXPM1_Q;
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - xr * t));
    if k == 0 {
        return xr - (xr * e - hxs);
    }
    let e = (xr * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (xr - e) - 0.5;
    }
    if k <= -2 || k > 56 {
        return add_to_exponent(1.0 - (e - xr), k) - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 - 2^-k
        add_to_exponent(t - (e - xr), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^-k
        add_to_exponent(xr - (e + t) + 1.0, k)
    }
}

/// `y · 2^k` by an integer add to the exponent field (fdlibm's
/// `SET_FLOAT_WORD(y, i + (k << 23))`).
fn add_to_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_range_and_symmetry() {
        let x = Tensor::from_vec(vec![-10.0, 0.0, 10.0], &[3]).unwrap();
        let y = sigmoid(&x);
        assert!(y.as_slice()[0] < 0.001);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 0.999);
    }

    #[test]
    fn silu_matches_definition() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = silu(&x);
        let s = sigmoid(&x);
        for i in 0..3 {
            let expect = x.as_slice()[i] * s.as_slice()[i];
            assert!((y.as_slice()[i] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn gelu_known_values() {
        let x = Tensor::from_vec(vec![0.0, 1.0, -1.0], &[3]).unwrap();
        let y = gelu(&x);
        assert_eq!(y.as_slice()[0], 0.0);
        assert!((y.as_slice()[1] - 0.8412).abs() < 1e-3);
        assert!((y.as_slice()[2] + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]).unwrap();
        let y = softmax_rows(&x).unwrap();
        for r in 0..2 {
            let sum: f32 = y.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large equal logits must not produce NaN.
        assert!((y.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_is_monotone_in_logits() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y = softmax_rows(&x).unwrap();
        assert!(y.as_slice()[0] < y.as_slice()[1]);
        assert!(y.as_slice()[1] < y.as_slice()[2]);
    }

    #[test]
    fn nonlinearity_breaks_distributivity() {
        // Documents *why* Defo must close differences before non-linear
        // functions: f(x + d) != f(x) + f(d) in general.
        let x = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let d = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let sum = x.zip_with(&d, |a, b| a + b).unwrap();
        let lhs = silu(&sum).as_slice()[0];
        let rhs = silu(&x).as_slice()[0] + silu(&d).as_slice()[0];
        assert!((lhs - rhs).abs() > 0.1);
    }

    #[test]
    fn exp_table_is_two_to_the_i_over_32() {
        // Each reconstructed entry is within an ulp of 2^(i/32) (the pinned
        // glibc outputs in tests/props.rs pin the exact bits).
        for (i, &t) in EXP2F_TAB.iter().enumerate() {
            let s = f64::from_bits(t.wrapping_add((i as u64) << 47));
            let want = (i as f64 / 32.0).exp2();
            assert!((s - want).abs() <= f64::EPSILON * want, "entry {i}: {s} vs {want}");
        }
    }
}
