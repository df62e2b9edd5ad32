//! Matrix multiplication kernels.
//!
//! The entry point [`matmul`] runs on the process default
//! [`crate::backend::active`]; the `*_with` forms take the backend as a
//! value. Every backend is bit-identical: for every output element every
//! product `a·b` is computed and added, a separately rounded multiply then
//! add — never FMA — in ascending `k` order, as the reference loop
//! ([`matmul_scalar`]) does. A zero `a` is an ordinary operand, so
//! `0·∞` and `0·NaN` give NaN on every backend. Bit-identity is a
//! requirement inherited from the Ditto equivalence claim, which rests on
//! exact accumulator values end to end. `Scalar` runs exactly that loop,
//! and so does a SIMD level without an f32 kernel on this architecture.
//!
//! A `Simd` level runs every matmul — linear layers, attention's `Q·Kᵀ`
//! and `P·V`, and every convolution lowered by [`super::conv`] — on one
//! register-tile core in [`super::simd`]. It never *reassociates* an `f32`
//! reduction (that would change bits): each lane is an independent output
//! element. The core reads its `b` operand row-major or in the conv
//! lowering's 16-column strips ([`Rhs`]); the reference loop reads it
//! row-major. The reassociating intrinsics live in the integer kernels
//! (`quant::kernels::simd`), where wrapping-`i32` associativity keeps any
//! order exact.

use crate::backend::{self, KernelBackend, SimdLevel};
use crate::{Result, Tensor, TensorError};

/// Columns per strip of [`Rhs::Strips`]: two AVX2 vectors, the width of
/// the core's widest tile.
pub(crate) const STRIP: usize = 16;

/// How the right-hand operand `b [k, n]` of a matmul is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rhs {
    /// `b[kk][j]` at `kk·n + j`.
    RowMajor,
    /// [`STRIP`]-column strips, each stored row after row: `b[kk][j]` at
    /// `(j / STRIP)·STRIP·k + kk·STRIP + j % STRIP`, the last strip
    /// zero-padded. A core tile then reads `b` as consecutive 64-byte rows.
    /// Only the f32 core reads it; the conv lowering writes it.
    Strips,
}

impl Rhs {
    /// Elements of a `[k, n]` operand in this layout.
    pub(crate) fn len(self, k: usize, n: usize) -> usize {
        match self {
            Rhs::RowMajor => k * n,
            Rhs::Strips => n.div_ceil(STRIP) * STRIP * k,
        }
    }

    /// Where `b[row][col]` of a `[k, n]` operand sits, and how many
    /// elements of that row are contiguous from there on.
    pub(crate) fn run(self, k: usize, n: usize, row: usize, col: usize) -> (usize, usize) {
        match self {
            Rhs::RowMajor => (row * n + col, n - col),
            Rhs::Strips => {
                ((col / STRIP) * STRIP * k + row * STRIP + col % STRIP, STRIP - col % STRIP)
            }
        }
    }

    /// Distance between `b[kk][j]` and `b[kk + 1][j]`.
    pub(crate) fn row_stride(self, n: usize) -> usize {
        match self {
            Rhs::RowMajor => n,
            Rhs::Strips => STRIP,
        }
    }
}

/// The SIMD level whose f32 core runs `backend`'s matmuls, if it has one on
/// this architecture; `None` runs the reference loop on row-major `b`.
///
/// # Panics
///
/// If `backend` names a SIMD level this host cannot run.
pub(crate) fn core_level(backend: KernelBackend) -> Option<SimdLevel> {
    match backend {
        KernelBackend::Simd(level) => {
            Some(super::simd::runnable(level)).filter(|&l| super::simd::has_core(l))
        }
        KernelBackend::Scalar => None,
    }
}

/// The reference `ikj` loop: `out [m,n] += a [m,k] × b [k,n]`, every
/// product computed. The inner loop streams contiguous rows of `b` and
/// `out`. The one body behind [`matmul_scalar`], the `Scalar` backend and
/// every level without an f32 core — the f32 product rule every backend
/// matches.
pub(crate) fn matmul_acc_reference(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in a[i * k..(i + 1) * k].iter().enumerate() {
            for (o, &bv) in orow.iter_mut().zip(&b[kk * n..(kk + 1) * n]) {
                *o += aik * bv;
            }
        }
    }
}

/// Accumulates `a [m,k] × b [k,n]` on top of `out [m,n]` in place on an
/// explicit backend: the f32 register-tile core of [`super::simd`] at a
/// `Simd` level that has one, the reference loop otherwise. Bit-identical
/// per output element either way.
///
/// `out` may carry initial values (zeros for a plain matmul, a broadcast
/// bias for the convolution path). For each output element the
/// contributions arrive in ascending `k` order, exactly like the scalar
/// reference kernel.
///
/// Public because arena-based executors (`diffusion::plan`) run matmuls
/// directly over caller-owned buffers; going through this entry point
/// keeps them bit-identical to the [`matmul`]/[`matmul_with`] tensor path.
///
/// # Panics
///
/// If `out`, `a` or `b` does not hold `m·n`, `m·k` or `k·n` elements.
pub fn matmul_acc_with(
    backend: KernelBackend,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    matmul_acc_in(backend, out, a, b, Rhs::RowMajor, m, k, n);
}

/// [`matmul_acc_with`] with `b` in `rhs` layout. Only a backend whose
/// [`core_level`] is `Some` reads [`Rhs::Strips`]; callers lay `b` out by
/// it.
///
/// # Panics
///
/// If a slice length disagrees with `m`, `k`, `n` and `rhs`, or if the
/// reference loop is handed [`Rhs::Strips`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_acc_in(
    backend: KernelBackend,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    rhs: Rhs,
    m: usize,
    k: usize,
    n: usize,
) {
    backend::count_dispatch(backend::DispatchKernel::MatmulF32, backend);
    if let Some(level) = core_level(backend) {
        super::simd::matmul_acc(level, out, a, b, rhs, m, k, n);
        return;
    }
    assert_eq!(rhs, Rhs::RowMajor, "the reference matmul reads b row-major");
    assert_eq!(out.len(), m * n, "matmul output length");
    assert_eq!(a.len(), m * k, "matmul lhs length");
    assert_eq!(b.len(), k * n, "matmul rhs length");
    matmul_acc_reference(out, a, b, m, k, n);
}

/// `(m, k, n)` of `a [m, k] × b [k, n]`.
fn matmul_dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize)> {
    a.shape().expect_rank(2)?;
    b.shape().expect_rank(2)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch { left_cols: k, right_rows: k2 });
    }
    Ok((m, k, n))
}

/// Multiplies two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank 2, or
/// [`TensorError::MatmulDimMismatch`] if inner dimensions disagree.
///
/// # Example
///
/// ```
/// use tensor::{Tensor, ops::matmul};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::eye(2);
/// assert_eq!(matmul(&a, &b)?, a);
/// # Ok::<(), tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_with(backend::active(), a, b)
}

/// [`matmul`] on an explicit backend — the entry point the cross-backend
/// bit-identity tests and benchmarks use; results are identical for every
/// backend.
///
/// # Errors
///
/// Same error conditions as [`matmul`].
pub fn matmul_with(backend: KernelBackend, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = matmul_dims(a, b)?;
    let mut out = Tensor::zeros(&[m, n]);
    matmul_acc_with(backend, out.as_mut_slice(), a.as_slice(), b.as_slice(), m, k, n);
    Ok(out)
}

/// Scalar reference matmul: the `ikj` loop, kept as the ground truth every
/// backend is tested (and benchmarked) against.
///
/// # Errors
///
/// Same error conditions as [`matmul`].
pub fn matmul_scalar(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = matmul_dims(a, b)?;
    let mut out = Tensor::zeros(&[m, n]);
    matmul_acc_reference(out.as_mut_slice(), a.as_slice(), b.as_slice(), m, k, n);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    #[test]
    fn known_product() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(vec![1.5, -2.0, 0.0, 4.0], &[2, 2]);
        assert_eq!(matmul(&a, &Tensor::eye(2)).unwrap(), a);
        assert_eq!(matmul(&Tensor::eye(2), &a).unwrap(), a);
    }

    #[test]
    fn dim_mismatch_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::MatmulDimMismatch { left_cols: 3, right_rows: 4 })
        ));
        assert!(matmul(&Tensor::zeros(&[2]), &a).is_err());
        assert!(matmul_scalar(&a, &b).is_err());
    }

    #[test]
    fn tiled_bitwise_matches_scalar() {
        // The default backend against the reference on shapes straddling
        // the core's 6-row and 256-index `k` blocks, with 30 % zeros in `a`
        // (ordinary operands: every product is still computed).
        let mut rng = Rng::seed_from(11);
        for &(m, k, n) in &[
            (1, 1, 1),
            (7, 3, 5),
            (8, 256, 16),
            (9, 257, 3),
            (17, 300, 33),
            (16, 512, 8),
            (10, 520, 40),
            (33, 257, 65),
        ] {
            let mut a = Tensor::randn(&[m, k], &mut rng);
            for v in a.as_mut_slice().iter_mut() {
                if rng.next_f64() < 0.3 {
                    *v = 0.0;
                }
            }
            let b = Tensor::randn(&[k, n], &mut rng);
            let got = matmul(&a, &b).unwrap();
            let scalar = matmul_scalar(&a, &b).unwrap();
            for (x, y) in got.as_slice().iter().zip(scalar.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "matmul diverged at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn every_backend_is_bit_identical() {
        let mut rng = Rng::seed_from(23);
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (7, 40, 9), (9, 300, 60)] {
            let mut a = Tensor::randn(&[m, k], &mut rng);
            for v in a.as_mut_slice().iter_mut() {
                if rng.next_f64() < 0.3 {
                    *v = 0.0;
                }
            }
            let b = Tensor::randn(&[k, n], &mut rng);
            let want = matmul_with(KernelBackend::Scalar, &a, &b).unwrap();
            for backend in KernelBackend::available() {
                let got = matmul_with(backend, &a, &b).unwrap();
                for (p, q) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(p.to_bits(), q.to_bits(), "matmul {backend} at {m}x{k}x{n}");
                }
            }
        }
    }

    /// A backend value can name any level; one this host cannot run (the
    /// other ISA family always exists) is refused before an intrinsic runs.
    #[test]
    #[should_panic(expected = "cannot run on this host")]
    fn unsupported_level_is_refused() {
        let level = SimdLevel::ALL.into_iter().find(|l| !l.is_hw_supported()).unwrap();
        let _ = matmul_with(KernelBackend::Simd(level), &Tensor::eye(2), &Tensor::eye(2));
    }

    #[test]
    fn strip_layout_places_every_element_once() {
        // Every `b[row][col]` of a strip-laid operand gets its own offset
        // inside `len`, each run stays inside one strip row, and exactly
        // the padding of a ragged last strip is left over.
        for (k, n) in [(1usize, 1usize), (3, 16), (5, 17), (2, 40)] {
            let len = Rhs::Strips.len(k, n);
            assert_eq!(len, n.div_ceil(STRIP) * STRIP * k);
            let mut seen = vec![false; len];
            for row in 0..k {
                for col in 0..n {
                    let (at, run) = Rhs::Strips.run(k, n, row, col);
                    assert!(!seen[at], "{k}x{n}: ({row}, {col}) collides");
                    seen[at] = true;
                    assert_eq!(run, STRIP - col % STRIP);
                    let (next, _) = Rhs::Strips.run(k, n, row + 1, col);
                    assert_eq!(next - at, Rhs::Strips.row_stride(n));
                }
            }
            assert_eq!(seen.iter().filter(|&&s| !s).count(), len - k * n);
            assert_eq!(Rhs::RowMajor.run(k, n, k - 1, n - 1), (k * n - 1, 1));
        }
    }

    /// A `b` shorter than `k·n` must stop at the entry's length check — in
    /// release builds too, where it would otherwise be read out of bounds
    /// by the SIMD core.
    #[test]
    #[should_panic(expected = "matmul rhs length")]
    fn short_rhs_panics_before_any_kernel_reads_it() {
        let (m, k, n) = (6, 9, 17);
        let mut out = vec![0.0f32; m * n];
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n - 1];
        matmul_acc_with(KernelBackend::detect(), &mut out, &a, &b, m, k, n);
    }

    #[test]
    fn matmul_acc_respects_initial_values() {
        // The conv path seeds `out` with the bias; accumulation must add on
        // top rather than overwrite.
        let a = t(vec![1.0, 2.0], &[1, 2]);
        let b = t(vec![3.0, 4.0], &[2, 1]);
        let mut out = [10.0f32];
        matmul_acc_with(backend::active(), &mut out, a.as_slice(), b.as_slice(), 1, 2, 1);
        assert_eq!(out[0], 10.0 + 3.0 + 8.0);
    }

    #[test]
    fn distributive_over_addition() {
        // The identity the Ditto algorithm relies on: (X + D) W = XW + DW.
        let x = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let d = t(vec![0.5, -0.5, 0.25, 0.0], &[2, 2]);
        let w = t(vec![2.0, 0.0, 1.0, 3.0], &[2, 2]);
        let lhs = matmul(&x.zip_with(&d, |a, b| a + b).unwrap(), &w).unwrap();
        let xw = matmul(&x, &w).unwrap();
        let dw = matmul(&d, &w).unwrap();
        let rhs = xw.zip_with(&dw, |a, b| a + b).unwrap();
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((l - r).abs() < 1e-5);
        }
    }
}
