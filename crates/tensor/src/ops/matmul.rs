//! Matrix multiplication kernels.
//!
//! The public entry points ([`matmul`], [`matvec`]) are thin dispatchers
//! over the process-wide [`crate::backend`] selection. Every backend is
//! bit-identical: the tiled kernels only *reorder which output rows are
//! visited when*; for every individual output element the products are
//! still accumulated in ascending `k` order with the same zero-skip as
//! the scalar loops, so results are exactly those of the reference
//! kernels ([`matmul_scalar`], [`matvec_scalar`]) — a requirement
//! inherited from the Ditto equivalence claim, which rests on exact
//! accumulator values end to end.
//!
//! The `Simd` backend runs every matmul — linear layers, attention's
//! `Q·Kᵀ` and `P·V`, and every convolution lowered by [`super::conv`] — on
//! one register-tile core in [`super::simd`], whatever the sparsity of
//! `a`. It never *reassociates* an `f32` reduction (that would change
//! bits): each lane is an independent output element combined with
//! separate correctly rounded `mul`/`add` — never FMA — and a zero `a` is
//! skipped exactly as the reference skips it. The core reads its `b`
//! operand row-major or in the conv lowering's 16-column strips ([`Rhs`]);
//! the portable paths read it row-major. The reassociating intrinsics live
//! in the integer kernels (`quant::kernels::simd`), where wrapping-`i32`
//! associativity keeps any order exact.

use crate::backend::{self, KernelBackend, SimdLevel};
use crate::{Result, Tensor, TensorError};

/// Rows of the left operand processed together by the tiled kernels. Each
/// streamed row of `B` is reused `MR` times from L1 instead of being
/// re-fetched per output row, and the `MR` live output rows (≤ `MR`·n·4
/// bytes) stay cache-resident across the whole `k` loop.
const MR: usize = 8;

/// Columns-of-`A` (depth) block. Bounds the slice of `B` rows streamed per
/// row block to `KC`·n·4 bytes so it survives in L2 across row blocks.
const KC: usize = 256;

/// `B` element count below which the row-blocked tiling is not worth it:
/// a `B` this small stays cache-resident across the plain streaming loop,
/// so blocking only adds loop overhead and a strided `A` access pattern.
/// Both orders are bit-identical per output element, so this is purely a
/// performance dispatch.
const B_ELEMS_BLOCK_THRESHOLD: usize = 1 << 14;

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

/// The SIMD level whose f32 core runs `backend`'s matmuls: the active
/// level under `Simd`, if it has a core. Read once per operation, so a
/// concurrent level switch cannot split one operand's layout from the
/// kernel that reads it.
pub(crate) fn core_level(backend: KernelBackend) -> Option<SimdLevel> {
    if backend != KernelBackend::Simd {
        return None;
    }
    let level = backend::simd_level();
    super::simd::has_core(level).then_some(level)
}

/// Streaming-order (`ikj`) core shared by both compilation contexts of the
/// small-`B` path: for each output row, dense stretches of the `a` row are
/// consumed in fused eight- and four-step passes — per output element the
/// products are still added left-to-right in ascending `k` order, exactly
/// the sequence of the one-step reference loop, but the output row is
/// loaded and stored once per pass instead of once per `k`. Any zero in a
/// four-step group falls back to the one-step loop so the reference
/// zero-skip semantics are preserved exactly.
///
/// Autovectorization keeps each element's operation sequence (no
/// reassociation without fast-math), and the `fma` feature stays disabled
/// so no fused multiply-add (single rounding) can be emitted. The `Simd`
/// backend runs the f32 core in [`super::simd`] instead of this portable
/// copy.
#[inline(always)]
fn stream_acc_body(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    // Fully dense `a` (the conv path hands the conv *weight* as `a`, which
    // has no exact zeros) unlocks a two-row register-blocked pass: each
    // block of eight `b` rows is loaded once and accumulated onto two
    // output rows. Output rows are independent elements and each still
    // receives its products left-to-right in ascending `k`, so bits match
    // the one-row path exactly. An `a` holding any zero keeps the guarded
    // zero-skip path below.
    if m >= 2 && k >= 8 && n >= 8 && a.iter().all(|&v| v != 0.0) {
        // Outer-product micro-kernel: a 2-row × 16-column output tile is
        // accumulated in registers across the whole `k` extent (four
        // vector accumulators + two broadcasts + two `b` vectors — well
        // inside the 16 vector registers), so the output tile is loaded
        // and stored exactly once. Per output element this adds single
        // products in ascending `k` order — literally the reference
        // sequence — so bits are unchanged by construction.
        let mut i = 0;
        while i + 2 <= m {
            let (o0, o1) = out[i * n..(i + 2) * n].split_at_mut(n);
            let a0row = &a[i * k..(i + 1) * k];
            let a1row = &a[(i + 1) * k..(i + 2) * k];
            let mut j = 0;
            while j + 16 <= n {
                let mut acc0: [f32; 16] = o0[j..j + 16].try_into().expect("tile of 16");
                let mut acc1: [f32; 16] = o1[j..j + 16].try_into().expect("tile of 16");
                for kk in 0..k {
                    let (av0, av1) = (a0row[kk], a1row[kk]);
                    let brow: &[f32; 16] =
                        b[kk * n + j..kk * n + j + 16].try_into().expect("tile of 16");
                    for t in 0..16 {
                        acc0[t] += av0 * brow[t];
                        acc1[t] += av1 * brow[t];
                    }
                }
                o0[j..j + 16].copy_from_slice(&acc0);
                o1[j..j + 16].copy_from_slice(&acc1);
                j += 16;
            }
            // Remaining columns (n % 16): same k-inner reference order,
            // one element per row pair at a time.
            for jj in j..n {
                let (mut acc0, mut acc1) = (o0[jj], o1[jj]);
                for kk in 0..k {
                    acc0 += a0row[kk] * b[kk * n + jj];
                    acc1 += a1row[kk] * b[kk * n + jj];
                }
                o0[jj] = acc0;
                o1[jj] = acc1;
            }
            i += 2;
        }
        if i < m {
            stream_row(&mut out[i * n..(i + 1) * n], &a[i * k..(i + 1) * k], b, k, n);
        }
        return;
    }
    for i in 0..m {
        stream_row(&mut out[i * n..(i + 1) * n], &a[i * k..(i + 1) * k], b, k, n);
    }
}

/// One streaming output row with the guarded eight-step head: dense
/// stretches of the `a` row run fused, the first zero falls through to the
/// guarded tail ([`stream_row_tail`]).
#[inline(always)]
fn stream_row(orow: &mut [f32], arow: &[f32], b: &[f32], k: usize, n: usize) {
    let mut kk = 0;
    while kk + 8 <= k {
        let a8: [f32; 8] = arow[kk..kk + 8].try_into().expect("slice of 8");
        if a8.contains(&0.0) {
            break;
        }
        let mut rows = b[kk * n..(kk + 8) * n].chunks_exact(n);
        let mut row = || rows.next().expect("eight rows");
        let (b0, b1, b2, b3) = (row(), row(), row(), row());
        let (b4, b5, b6, b7) = (row(), row(), row(), row());
        for (j, o) in orow.iter_mut().enumerate() {
            *o = *o
                + a8[0] * b0[j]
                + a8[1] * b1[j]
                + a8[2] * b2[j]
                + a8[3] * b3[j]
                + a8[4] * b4[j]
                + a8[5] * b5[j]
                + a8[6] * b6[j]
                + a8[7] * b7[j];
        }
        kk += 8;
    }
    stream_row_tail(orow, arow, b, k, n, kk);
}

/// Guarded four- and one-step tail of a streaming row, starting at `kk`:
/// the reference accumulation order with exact zero-skip semantics.
#[inline(always)]
fn stream_row_tail(orow: &mut [f32], arow: &[f32], b: &[f32], k: usize, n: usize, mut kk: usize) {
    while kk + 4 <= k {
        let (a0, a1, a2, a3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
        if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
            let (b01, rest) = b[kk * n..(kk + 4) * n].split_at(2 * n);
            let (b0, b1) = b01.split_at(n);
            let (b2, b3) = rest.split_at(n);
            for (j, o) in orow.iter_mut().enumerate() {
                *o = *o + a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
        } else {
            for (step, &aik) in arow[kk..kk + 4].iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[(kk + step) * n..(kk + step + 1) * n];
                for j in 0..n {
                    orow[j] += aik * brow[j];
                }
            }
        }
        kk += 4;
    }
    for kk in kk..k {
        let aik = arow[kk];
        if aik == 0.0 {
            continue;
        }
        let brow = &b[kk * n..(kk + 1) * n];
        for j in 0..n {
            orow[j] += aik * brow[j];
        }
    }
}

/// Accumulates `a [m,k] × b [k,n]` on top of `out [m,n]` in place on an
/// explicit backend. `Scalar` runs the reference `ikj` streaming order;
/// `Tiled` runs the cache-blocked portable order; `Simd` runs the f32
/// register-tile core in [`super::simd`] at the active `SimdLevel`
/// (falling back to the portable tiled path when the level is `none`).
/// All are bit-identical per output element.
///
/// `out` may carry initial values (zeros for a plain matmul, a broadcast
/// bias for the convolution path). For each output element the
/// contributions arrive in ascending `k` order and `a` zeros are skipped,
/// exactly like the scalar reference kernel.
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
    matmul_acc_in(backend, core_level(backend), out, a, b, Rhs::RowMajor, m, k, n);
}

/// [`matmul_acc_with`] with `b` in `rhs` layout, run by the f32 core at
/// `level` — or, for `None`, by `backend`'s portable path, which reads `b`
/// row-major only. Callers take `level` from [`core_level`] once per
/// operation and lay `b` out for it.
///
/// # Panics
///
/// If a slice length disagrees with `m`, `k`, `n` and `rhs`, or if a
/// portable path is handed [`Rhs::Strips`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_acc_in(
    backend: KernelBackend,
    level: Option<SimdLevel>,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    rhs: Rhs,
    m: usize,
    k: usize,
    n: usize,
) {
    backend::count_dispatch(backend::DispatchKernel::MatmulF32, backend);
    if let Some(level) = level {
        super::simd::matmul_acc(level, out, a, b, rhs, m, k, n);
        return;
    }
    assert_eq!(rhs, Rhs::RowMajor, "the portable matmul paths read b row-major");
    assert_eq!(out.len(), m * n, "matmul output length");
    assert_eq!(a.len(), m * k, "matmul lhs length");
    assert_eq!(b.len(), k * n, "matmul rhs length");
    let scalar = backend == KernelBackend::Scalar;
    if scalar || k * n <= B_ELEMS_BLOCK_THRESHOLD || m < 2 {
        // Scalar backend, or small B where the streaming `ikj` order wins
        // (see threshold doc) on the blocked backends too.
        stream_acc_body(out, a, b, m, k, n);
        return;
    }
    for ib in (0..m).step_by(MR) {
        let ie = (ib + MR).min(m);
        for kb in (0..k).step_by(KC) {
            let ke = (kb + KC).min(k);
            for kk in kb..ke {
                let brow = &b[kk * n..kk * n + n];
                for i in ib..ie {
                    let aik = a[i * k + kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let orow = &mut out[i * n..i * n + n];
                    for j in 0..n {
                        orow[j] += aik * brow[j];
                    }
                }
            }
        }
    }
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
    a.shape().expect_rank(2)?;
    b.shape().expect_rank(2)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch { left_cols: k, right_rows: k2 });
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_acc_with(backend, out.as_mut_slice(), a.as_slice(), b.as_slice(), m, k, n);
    Ok(out)
}

/// Scalar reference matmul: the pre-tiling `ikj` loop, kept as the ground
/// truth the tiled kernel is tested (and benchmarked) against.
///
/// # Errors
///
/// Same error conditions as [`matmul`].
pub fn matmul_scalar(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    a.shape().expect_rank(2)?;
    b.shape().expect_rank(2)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch { left_cols: k, right_rows: k2 });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let av = a.as_slice();
    let bv = b.as_slice();
    let ov = out.as_mut_slice();
    // ikj loop order: the inner loop streams contiguous rows of B and OUT.
    for i in 0..m {
        for kk in 0..k {
            let aik = av[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            let brow = &bv[kk * n..(kk + 1) * n];
            let orow = &mut ov[i * n..(i + 1) * n];
            for j in 0..n {
                orow[j] += aik * brow[j];
            }
        }
    }
    Ok(out)
}

/// Multiplies a rank-2 matrix by a rank-1 vector: `[m, k] × [k] → [m]`.
///
/// Four output rows are computed per pass so the streamed `x` vector is
/// reused from L1; each row's dot product still accumulates sequentially in
/// ascending `k` order, matching [`matvec_scalar`] exactly.
///
/// # Errors
///
/// Returns a rank or dimension mismatch error as for [`matmul`].
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    matvec_with(backend::active(), a, x)
}

/// [`matvec`] on an explicit backend (`Scalar` runs [`matvec_scalar`]'s
/// one-row loop; `Tiled` runs the four-row pass; `Simd` runs the
/// lane-per-row kernel in [`super::simd`], falling back to the four-row
/// pass when the active level is `none`). Bit-identical for every
/// backend: each output row's dot product accumulates in ascending `k`
/// order on all of them.
///
/// # Errors
///
/// Same error conditions as [`matvec`].
pub fn matvec_with(backend: KernelBackend, a: &Tensor, x: &Tensor) -> Result<Tensor> {
    backend::count_dispatch(backend::DispatchKernel::MatvecF32, backend);
    if backend == KernelBackend::Scalar {
        return matvec_scalar(a, x);
    }
    a.shape().expect_rank(2)?;
    x.shape().expect_rank(1)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    if x.len() != k {
        return Err(TensorError::MatmulDimMismatch { left_cols: k, right_rows: x.len() });
    }
    let mut out = Tensor::zeros(&[m]);
    let av = a.as_slice();
    let xv = x.as_slice();
    let ov = out.as_mut_slice();
    if backend == KernelBackend::Simd && super::simd::matvec(ov, av, xv, m, k) {
        return Ok(out);
    }
    let mut i = 0;
    while i + 4 <= m {
        let r0 = &av[i * k..(i + 1) * k];
        let r1 = &av[(i + 1) * k..(i + 2) * k];
        let r2 = &av[(i + 2) * k..(i + 3) * k];
        let r3 = &av[(i + 3) * k..(i + 4) * k];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (kk, &xk) in xv.iter().enumerate() {
            a0 += r0[kk] * xk;
            a1 += r1[kk] * xk;
            a2 += r2[kk] * xk;
            a3 += r3[kk] * xk;
        }
        ov[i] = a0;
        ov[i + 1] = a1;
        ov[i + 2] = a2;
        ov[i + 3] = a3;
        i += 4;
    }
    for i in i..m {
        ov[i] = dot(&av[i * k..(i + 1) * k], xv);
    }
    Ok(out)
}

/// Sequential dot product folded from an explicit `0.0` accumulator, so
/// every matvec path (scalar, tail rows, four-row blocks) shares the same
/// `-0.0` semantics. (`Iterator::sum` seeds from the first element, which
/// would make a single `-0.0` product sum to `-0.0` while an accumulator
/// loop yields `+0.0`.) `pub(crate)` because the explicit-SIMD matvec
/// ([`super::simd`]) reuses it for its remainder rows.
pub(crate) fn dot(row: &[f32], xv: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&w, &v) in row.iter().zip(xv) {
        acc += w * v;
    }
    acc
}

/// Scalar reference matvec: one sequential dot product per output row.
///
/// # Errors
///
/// Same error conditions as [`matvec`].
pub fn matvec_scalar(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    a.shape().expect_rank(2)?;
    x.shape().expect_rank(1)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    if x.len() != k {
        return Err(TensorError::MatmulDimMismatch { left_cols: k, right_rows: x.len() });
    }
    let mut out = Tensor::zeros(&[m]);
    let av = a.as_slice();
    let xv = x.as_slice();
    let ov = out.as_mut_slice();
    for i in 0..m {
        ov[i] = dot(&av[i * k..(i + 1) * k], xv);
    }
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
        // Shapes straddling the MR/KC tile boundaries and the
        // streaming-vs-blocked dispatch threshold (k·n vs 2^14), including
        // sparse operands that exercise the zero-skip path.
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
            let tiled = matmul(&a, &b).unwrap();
            let scalar = matmul_scalar(&a, &b).unwrap();
            for (x, y) in tiled.as_slice().iter().zip(scalar.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "tiled matmul diverged at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn matvec_bitwise_matches_scalar() {
        let mut rng = Rng::seed_from(12);
        for &(m, k) in &[(1, 1), (3, 7), (4, 64), (13, 129), (32, 300)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let x = Tensor::randn(&[k], &mut rng);
            let tiled = matvec(&a, &x).unwrap();
            let scalar = matvec_scalar(&a, &x).unwrap();
            for (x, y) in tiled.as_slice().iter().zip(scalar.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "tiled matvec diverged at {m}x{k}");
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
            let x = Tensor::randn(&[k], &mut rng);
            let want = matmul_with(KernelBackend::Scalar, &a, &b).unwrap();
            let want_v = matvec_with(KernelBackend::Scalar, &a, &x).unwrap();
            for backend in KernelBackend::available() {
                let got = matmul_with(backend, &a, &b).unwrap();
                for (p, q) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(p.to_bits(), q.to_bits(), "matmul {backend} at {m}x{k}x{n}");
                }
                let got_v = matvec_with(backend, &a, &x).unwrap();
                for (p, q) in got_v.as_slice().iter().zip(want_v.as_slice()) {
                    assert_eq!(p.to_bits(), q.to_bits(), "matvec {backend} at {m}x{k}");
                }
            }
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let x = t(vec![1.0, 0.5, -1.0], &[3]);
        let y = matvec(&a, &x).unwrap();
        let xm = x.reshape(&[3, 1]).unwrap();
        let ym = matmul(&a, &xm).unwrap();
        assert_eq!(y.as_slice(), ym.as_slice());
    }

    #[test]
    fn matvec_errors() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(matvec(&a, &Tensor::zeros(&[4])).is_err());
        assert!(matvec(&a, &Tensor::zeros(&[2, 2])).is_err());
        assert!(matvec_scalar(&a, &Tensor::zeros(&[4])).is_err());
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

    /// A `b` shorter than `k·n` must stop at the entry's length check on
    /// every backend — in release builds too, where it would otherwise be
    /// read out of bounds by the SIMD core.
    #[test]
    #[should_panic(expected = "matmul rhs length")]
    fn short_rhs_panics_before_any_kernel_reads_it() {
        let (m, k, n) = (6, 9, 17);
        let mut out = vec![0.0f32; m * n];
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n - 1];
        matmul_acc_with(KernelBackend::Simd, &mut out, &a, &b, m, k, n);
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
