//! Exact integer kernels with `i32` accumulation.
//!
//! These kernels are the ground truth for the Ditto algorithm's numerical
//! equivalence claim: difference processing must produce *bit-identical*
//! accumulator values to dense integer execution (§IV-A, Fig. 7). The
//! activation operand is taken in the `i16` difference domain so the same
//! kernel serves dense (`i8` widened) and delta execution.
//!
//! Every kernel runs on a [`tensor::KernelBackend`] value — the process
//! default [`tensor::backend::active`] for the un-suffixed entry points,
//! the caller's for the `*_with` variants:
//!
//! * **Scalar** runs the `ikj` zero-skip loop kept in [`reference`];
//! * **Simd** at a level runs one packed, register-blocked GEMM core
//!   ([`simd`]): the right-hand operand is packed once into `vpmaddwd`
//!   order ([`PackedRhs`]) and a 4-row × 2-vector output tile stays in
//!   registers across the whole depth loop, at the same rate whatever the
//!   sparsity.
//!
//! Both are **bit-identical**: `i32` addition is associative (wrapping),
//! so any accumulation order reproduces the scalar sums exactly — with or
//! without skipping zero activations, whose products add nothing. The
//! equivalence is asserted in tests, the cross-backend property matrix
//! (`tests/props.rs`), and bench setup.
//!
//! The `*_into` variants are the hook's: they write into buffers the
//! caller keeps, the packed operand among them. The others allocate their
//! result (and, on the `Simd` backend, a pack) per call.

pub mod simd;

pub use simd::PackedRhs;
use tensor::backend::{self, KernelBackend};
use tensor::ops::Conv2dParams;

/// Dispatches one accumulation pass to the chosen backend: `out [m,n] +=
/// a [m,k] × b [k,n]`, for `i8` weights and `i16` attention operands
/// alike. Only a `Simd` backend reads or fills `pack`.
#[allow(clippy::too_many_arguments)]
fn accumulate<W: Copy + Into<i16> + Into<i32>>(
    backend: KernelBackend,
    out: &mut [i32],
    a: &[i16],
    b: &[W],
    pack: &mut PackedRhs,
    m: usize,
    k: usize,
    n: usize,
) {
    match backend {
        KernelBackend::Scalar => accumulate_scalar(out, a, b, m, k, n),
        KernelBackend::Simd(level) => simd::accumulate(level, out, a, b, pack, m, k, n),
    }
}

/// The scalar-backend accumulation: the streaming `ikj` loop, skipping
/// zero activations (the same body [`reference`] exposes). The adds wrap
/// explicitly, so a debug build computes what a release build does; an
/// `i16 × i16` product cannot overflow.
fn accumulate_scalar<W: Copy + Into<i32>>(
    out: &mut [i32],
    a: &[i16],
    b: &[W],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk] as i32;
            if av == 0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for j in 0..n {
                orow[j] = orow[j].wrapping_add(av * brow[j].into());
            }
        }
    }
}

/// Dense integer matmul: `a [m,k] (i16 domain) × w [k,n] (i8) → i32 [m,n]`
/// on the process-wide active backend.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with the given dimensions.
pub fn int_matmul(a: &[i16], w: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    int_matmul_with(backend::active(), a, w, m, k, n)
}

/// [`int_matmul`] into a caller-owned accumulator buffer, which is resized
/// to `m · n` and overwritten, through the caller's `pack` of `w` (see
/// [`PackedRhs`] for when to clear it).
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with the given dimensions.
pub fn int_matmul_into(
    out: &mut Vec<i32>,
    a: &[i16],
    w: &[i8],
    pack: &mut PackedRhs,
    m: usize,
    k: usize,
    n: usize,
) {
    int_matmul_into_with(backend::active(), out, a, w, pack, m, k, n);
}

/// [`int_matmul`] on an explicit backend (bit-identical for every
/// backend).
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with the given dimensions.
pub fn int_matmul_with(
    backend: KernelBackend,
    a: &[i16],
    w: &[i8],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<i32> {
    let mut out = Vec::new();
    int_matmul_into_with(backend, &mut out, a, w, &mut PackedRhs::default(), m, k, n);
    out
}

#[allow(clippy::too_many_arguments)]
fn int_matmul_into_with(
    backend: KernelBackend,
    out: &mut Vec<i32>,
    a: &[i16],
    w: &[i8],
    pack: &mut PackedRhs,
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "activation length");
    assert_eq!(w.len(), k * n, "weight length");
    backend::count_dispatch(backend::DispatchKernel::IntMatmul, backend);
    out.clear();
    out.resize(m * n, 0);
    accumulate(backend, out, a, w, pack, m, k, n);
}

/// Widens `i8` activations into the `i16` domain for [`int_matmul`].
pub fn widen(acts: &[i8]) -> Vec<i16> {
    let mut out = Vec::new();
    widen_into(acts, &mut out);
    out
}

/// [`widen`] into a caller-owned buffer.
pub fn widen_into(acts: &[i8], out: &mut Vec<i16>) {
    out.clear();
    out.extend(acts.iter().map(|&a| i16::from(a)));
}

/// im2col on quantized levels: lowers `data [c,h,w]` to the `[ho·wo,
/// c·k·k]` matrix a convolution multiplies with its `[c·k·k, c_out]`
/// weights, into a caller-owned buffer. Padding contributes exact zeros.
/// Returns the matrix's `(rows, cols)`.
///
/// The `k` taps of one kernel row are adjacent both in the input row and
/// in the lowered row, so each `(pixel, channel, kernel row)` is one span
/// copy, clipped where the window hangs over the left or right edge.
///
/// # Panics
///
/// Panics if `data` is not `c · h · w` long.
pub fn im2col_i8_into(
    data: &[i8],
    c: usize,
    h: usize,
    w: usize,
    p: Conv2dParams,
    out: &mut Vec<i8>,
) -> (usize, usize) {
    assert_eq!(data.len(), c * h * w, "activation length");
    let (ho, wo) = (p.out_extent(h), p.out_extent(w));
    let cols = c * p.kernel * p.kernel;
    out.clear();
    out.resize(ho * wo * cols, 0);
    // A literal kernel size turns the span copy into plain moves.
    match p.kernel {
        1 => im2col_spans(data, h, w, p, 1, cols, out),
        3 => im2col_spans(data, h, w, p, 3, cols, out),
        k => im2col_spans(data, h, w, p, k, cols, out),
    }
    (ho * wo, cols)
}

#[inline(always)]
fn im2col_spans(
    data: &[i8],
    h: usize,
    w: usize,
    p: Conv2dParams,
    k: usize,
    cols: usize,
    out: &mut [i8],
) {
    let wo = p.out_extent(w);
    if wo == 0 || cols == 0 || h * w == 0 {
        return;
    }
    for (oy, orows) in out.chunks_exact_mut(wo * cols).enumerate() {
        for (plane, taps) in data.chunks_exact(h * w).zip((0..).step_by(k * k)) {
            for ky in 0..k {
                // Input row `iy = oy·stride + ky − padding`, if inside.
                let Some(iy) = (oy * p.stride + ky).checked_sub(p.padding).filter(|&iy| iy < h)
                else {
                    continue;
                };
                let src = &plane[iy * w..(iy + 1) * w];
                let col = taps + ky * k;
                for (ox, orow) in orows.chunks_exact_mut(cols).enumerate() {
                    // Tap `kx` reads input column `x0 + kx − padding`.
                    let x0 = ox * p.stride;
                    let dst = &mut orow[col..col + k];
                    if x0 >= p.padding && x0 - p.padding + k <= w {
                        dst.copy_from_slice(&src[x0 - p.padding..x0 - p.padding + k]);
                    } else {
                        let lo = p.padding.saturating_sub(x0);
                        let hi = k.min((w + p.padding).saturating_sub(x0));
                        if lo < hi {
                            dst[lo..hi]
                                .copy_from_slice(&src[x0 + lo - p.padding..x0 + hi - p.padding]);
                        }
                    }
                }
            }
        }
    }
}

/// Delta-processing matmul: given the previous step's output accumulators
/// and the temporal delta of the inputs, reconstructs the current output as
/// `prev_out + delta × w` (stage 2 + stage 3 of the Ditto algorithm).
///
/// The delta product accumulates directly into a clone of `prev_out` —
/// summation (stage 3) is fused into the sparse matmul (stage 2), saving
/// the O(m·n) intermediate the two-pass formulation would materialize.
///
/// # Panics
///
/// Panics on inconsistent dimensions.
pub fn delta_matmul_update(
    prev_out: &[i32],
    delta: &[i16],
    w: &[i8],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<i32> {
    delta_matmul_update_with(backend::active(), prev_out, delta, w, m, k, n)
}

/// [`delta_matmul_update`] in place: `acc` holds the previous step's
/// output accumulators and becomes the current step's — the paper's
/// stage-3 summation with no copy of the previous output — through the
/// caller's `pack` of `w`.
///
/// # Panics
///
/// Panics on inconsistent dimensions.
pub fn delta_matmul_update_into(
    acc: &mut [i32],
    delta: &[i16],
    w: &[i8],
    pack: &mut PackedRhs,
    m: usize,
    k: usize,
    n: usize,
) {
    delta_matmul_update_into_with(backend::active(), acc, delta, w, pack, m, k, n);
}

/// [`delta_matmul_update`] on an explicit backend (bit-identical for
/// every backend).
///
/// # Panics
///
/// Panics on inconsistent dimensions.
pub fn delta_matmul_update_with(
    backend: KernelBackend,
    prev_out: &[i32],
    delta: &[i16],
    w: &[i8],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<i32> {
    let mut out = prev_out.to_vec();
    delta_matmul_update_into_with(backend, &mut out, delta, w, &mut PackedRhs::default(), m, k, n);
    out
}

#[allow(clippy::too_many_arguments)]
fn delta_matmul_update_into_with(
    backend: KernelBackend,
    acc: &mut [i32],
    delta: &[i16],
    w: &[i8],
    pack: &mut PackedRhs,
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(acc.len(), m * n, "previous output length");
    assert_eq!(delta.len(), m * k, "delta length");
    assert_eq!(w.len(), k * n, "weight length");
    backend::count_dispatch(backend::DispatchKernel::DeltaMatmulUpdate, backend);
    accumulate(backend, acc, delta, w, pack, m, k, n);
}

/// Exact attention-score decomposition (§IV-A, attention layers):
///
/// `Q_t · K_tᵀ == Q_{t+1} · K_{t+1}ᵀ + Q_t · ΔKᵀ + ΔQ · K_{t+1}ᵀ`
///
/// where `ΔQ = Q_t − Q_{t+1}` and `ΔK = K_t − K_{t+1}`. Computes the right-
/// hand side from the previous score matrix and the deltas; `q_t` and
/// `k_prev` play the "treated as weight" role the paper describes.
///
/// All operands are in the quantized integer domain; `q_t`/`dq` are `i16`
/// (differences can exceed i8), `k`s are given as `i16` too for uniformity.
///
/// # Panics
///
/// Panics on inconsistent dimensions.
#[allow(clippy::too_many_arguments)]
pub fn attention_delta_scores(
    prev_scores: &[i32], // [m, n] = Q_{t+1} K_{t+1}^T
    q_t: &[i16],         // [m, d]
    dq: &[i16],          // [m, d]
    k_prev_t: &[i16],    // [d, n] = K_{t+1}^T (transposed)
    dk_t: &[i16],        // [d, n] = ΔK^T (transposed)
    m: usize,
    d: usize,
    n: usize,
) -> Vec<i32> {
    attention_delta_scores_with(backend::active(), prev_scores, q_t, dq, k_prev_t, dk_t, m, d, n)
}

/// [`attention_delta_scores`] in place: `scores` holds the previous score
/// matrix and becomes the current one. Both right-hand operands are
/// activations, so `pack` is scratch: each is packed into it afresh.
///
/// # Panics
///
/// Panics on inconsistent dimensions.
#[allow(clippy::too_many_arguments)]
pub fn attention_delta_scores_into(
    scores: &mut [i32],
    q_t: &[i16],
    dq: &[i16],
    k_prev_t: &[i16],
    dk_t: &[i16],
    pack: &mut PackedRhs,
    m: usize,
    d: usize,
    n: usize,
) {
    let backend = backend::active();
    attention_delta_scores_into_with(backend, scores, q_t, dq, k_prev_t, dk_t, pack, m, d, n);
}

/// [`attention_delta_scores`] on an explicit backend (bit-identical for
/// every backend).
///
/// # Panics
///
/// Panics on inconsistent dimensions.
#[allow(clippy::too_many_arguments)]
pub fn attention_delta_scores_with(
    backend: KernelBackend,
    prev_scores: &[i32],
    q_t: &[i16],
    dq: &[i16],
    k_prev_t: &[i16],
    dk_t: &[i16],
    m: usize,
    d: usize,
    n: usize,
) -> Vec<i32> {
    let mut out = prev_scores.to_vec();
    let pack = &mut PackedRhs::default();
    attention_delta_scores_into_with(backend, &mut out, q_t, dq, k_prev_t, dk_t, pack, m, d, n);
    out
}

#[allow(clippy::too_many_arguments)]
fn attention_delta_scores_into_with(
    backend: KernelBackend,
    scores: &mut [i32],
    q_t: &[i16],
    dq: &[i16],
    k_prev_t: &[i16],
    dk_t: &[i16],
    pack: &mut PackedRhs,
    m: usize,
    d: usize,
    n: usize,
) {
    assert_eq!(scores.len(), m * n);
    assert_eq!(q_t.len(), m * d);
    assert_eq!(dq.len(), m * d);
    assert_eq!(k_prev_t.len(), d * n);
    assert_eq!(dk_t.len(), d * n);
    backend::count_dispatch(backend::DispatchKernel::AttentionDeltaScores, backend);
    // Q_t · ΔK^T
    pack.clear();
    accumulate(backend, scores, q_t, dk_t, pack, m, d, n);
    // ΔQ · K_{t+1}^T
    pack.clear();
    accumulate(backend, scores, dq, k_prev_t, pack, m, d, n);
}

/// Reference dense score computation `Q · Kᵀ` in the integer domain.
pub fn int_scores(q: &[i16], k_t: &[i16], m: usize, d: usize, n: usize) -> Vec<i32> {
    int_scores_with(backend::active(), q, k_t, m, d, n)
}

/// [`int_scores`] on an explicit backend (bit-identical for every
/// backend).
///
/// # Panics
///
/// Panics on inconsistent dimensions.
pub fn int_scores_with(
    backend: KernelBackend,
    q: &[i16],
    k_t: &[i16],
    m: usize,
    d: usize,
    n: usize,
) -> Vec<i32> {
    assert_eq!(q.len(), m * d);
    assert_eq!(k_t.len(), d * n);
    backend::count_dispatch(backend::DispatchKernel::IntScores, backend);
    let mut out = vec![0i32; m * n];
    accumulate(backend, &mut out, q, k_t, &mut PackedRhs::default(), m, d, n);
    out
}

/// The scalar kernels — the bit-identity ground truth for tests and the
/// backend benchmark comparisons. The load-bearing `ikj`
/// zero-skip loop itself lives in one place (the parent module's
/// `accumulate_scalar`, which is also exactly what the `Scalar` backend
/// dispatches to), so the reference and the scalar backend can never
/// drift apart.
pub mod reference {
    /// Scalar dense integer matmul (the original `ikj` loop).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths are inconsistent with the given dimensions.
    pub fn int_matmul(a: &[i16], w: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        assert_eq!(a.len(), m * k, "activation length");
        assert_eq!(w.len(), k * n, "weight length");
        let mut out = vec![0i32; m * n];
        super::accumulate_scalar(&mut out, a, w, m, k, n);
        out
    }

    /// Scalar delta update: separate delta matmul, then an O(m·n) zip-add
    /// (the allocation the fused kernel avoids).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent dimensions.
    pub fn delta_matmul_update(
        prev_out: &[i32],
        delta: &[i16],
        w: &[i8],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<i32> {
        assert_eq!(prev_out.len(), m * n, "previous output length");
        let delta_out = int_matmul(delta, w, m, k, n);
        prev_out.iter().zip(&delta_out).map(|(&p, &d)| p.wrapping_add(d)).collect()
    }

    /// Scalar `i16 × i16 → i32` accumulation (the original attention inner
    /// loop).
    pub fn accumulate_i16_matmul(
        out: &mut [i32],
        a: &[i16],
        b: &[i16],
        m: usize,
        k: usize,
        n: usize,
    ) {
        super::accumulate_scalar(out, a, b, m, k, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::backend::SimdLevel;
    use tensor::Rng;

    fn rand_i8(n: usize, rng: &mut Rng) -> Vec<i8> {
        (0..n).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect()
    }

    fn rand_i16(n: usize, rng: &mut Rng) -> Vec<i16> {
        (0..n).map(|_| rng.next_below(511) as i16 - 255).collect()
    }

    #[test]
    fn int_matmul_known() {
        // [1 2; 3 4] × [1 0; 0 1] = same.
        let a = vec![1i16, 2, 3, 4];
        let w = vec![1i8, 0, 0, 1];
        assert_eq!(int_matmul(&a, &w, 2, 2, 2), vec![1, 2, 3, 4]);
    }

    #[test]
    fn tiled_matches_reference_bitwise() {
        // The default backend's public kernels against the references on
        // shapes around the 4-row tile and the 8-column strips, with
        // delta-grade sparsity.
        let mut rng = Rng::seed_from(77);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 4),
            (4, 8, 8),
            (5, 16, 3),
            (13, 64, 17),
            (16, 7, 1),
            (9, 300, 60),
            (5, 600, 33),
        ] {
            let a: Vec<i16> = rand_i16(m * k, &mut rng)
                .into_iter()
                .map(|v| if rng.next_f64() < 0.4 { 0 } else { v })
                .collect();
            let w = rand_i8(k * n, &mut rng);
            assert_eq!(
                int_matmul(&a, &w, m, k, n),
                reference::int_matmul(&a, &w, m, k, n),
                "int_matmul diverged at {m}x{k}x{n}"
            );
            let prev: Vec<i32> =
                (0..m * n).map(|_| rng.next_below(1 << 20) as i32 - (1 << 19)).collect();
            assert_eq!(
                delta_matmul_update(&prev, &a, &w, m, k, n),
                reference::delta_matmul_update(&prev, &a, &w, m, k, n),
                "fused delta update diverged at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn every_backend_matches_reference_bitwise() {
        // The backend seam's core contract: scalar and every SIMD level
        // produce the same bytes for every integer kernel.
        let mut rng = Rng::seed_from(41);
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 9, 5), (6, 40, 17), (9, 120, 33)] {
            let a: Vec<i16> = rand_i16(m * k, &mut rng)
                .into_iter()
                .map(|v| if rng.next_f64() < 0.5 { 0 } else { v })
                .collect();
            let w = rand_i8(k * n, &mut rng);
            let prev: Vec<i32> =
                (0..m * n).map(|_| rng.next_below(1 << 20) as i32 - (1 << 19)).collect();
            let b16 = rand_i16(k * n, &mut rng);
            let want_mm = reference::int_matmul(&a, &w, m, k, n);
            let want_delta = reference::delta_matmul_update(&prev, &a, &w, m, k, n);
            let mut want_sc = prev.clone();
            reference::accumulate_i16_matmul(&mut want_sc, &a, &b16, m, k, n);
            for backend in KernelBackend::available() {
                assert_eq!(
                    int_matmul_with(backend, &a, &w, m, k, n),
                    want_mm,
                    "int_matmul {backend} diverged at {m}x{k}x{n}"
                );
                assert_eq!(
                    delta_matmul_update_with(backend, &prev, &a, &w, m, k, n),
                    want_delta,
                    "delta update {backend} diverged at {m}x{k}x{n}"
                );
                let mut got = prev.clone();
                accumulate(backend, &mut got, &a, &b16, &mut PackedRhs::default(), m, k, n);
                assert_eq!(got, want_sc, "i16 accumulate {backend} diverged at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn delta_update_is_exact() {
        let mut rng = Rng::seed_from(21);
        let (m, k, n) = (3, 5, 4);
        let prev: Vec<i8> = rand_i8(m * k, &mut rng);
        let w = rand_i8(k * n, &mut rng);
        // Current = prev + small delta.
        let delta: Vec<i16> = (0..m * k).map(|_| rng.next_below(7) as i16 - 3).collect();
        let curr: Vec<i16> = prev.iter().zip(&delta).map(|(&p, &d)| p as i16 + d).collect();
        let dense_prev = int_matmul(&widen(&prev), &w, m, k, n);
        let dense_curr = int_matmul(&curr, &w, m, k, n);
        let via_delta = delta_matmul_update(&dense_prev, &delta, &w, m, k, n);
        assert_eq!(dense_curr, via_delta, "delta path must be bit-exact");
    }

    #[test]
    fn fig7_worked_example() {
        // The paper's Fig. 7 3x3 example: Activation_{t+1}, Weight, then the
        // temporal difference at step t reconstructs Output_t exactly.
        let act_t1: Vec<i16> = vec![120, 114, 84, 51, 43, 37, 88, 77, 96];
        let weight: Vec<i8> = vec![12, 4, 8, -1, 3, -2, -5, -1, 6];
        let out_t1 = int_matmul(&act_t1, &weight, 3, 3, 3);
        assert_eq!(out_t1, vec![906, 738, 1236, 384, 296, 544, 499, 487, 1126]);

        let act_t: Vec<i16> = vec![120, 117, 84, 47, 43, 37, 20, 71, 95];
        let delta: Vec<i16> = act_t.iter().zip(&act_t1).map(|(&a, &b)| a - b).collect();
        assert_eq!(delta, vec![0, 3, 0, -4, 0, 0, -68, -6, -1]);
        let out_t = delta_matmul_update(&out_t1, &delta, &weight, 3, 3, 3);
        assert_eq!(out_t, int_matmul(&act_t, &weight, 3, 3, 3));
        assert_eq!(out_t, vec![903, 747, 1230, 336, 280, 512, -306, 198, 588]);
    }

    #[test]
    fn attention_decomposition_is_exact() {
        let mut rng = Rng::seed_from(5);
        let (m, d, n) = (4, 3, 4);
        let q_prev: Vec<i16> = (0..m * d).map(|_| rng.next_below(255) as i16 - 127).collect();
        let k_prev: Vec<i16> = (0..n * d).map(|_| rng.next_below(255) as i16 - 127).collect();
        let dq: Vec<i16> = (0..m * d).map(|_| rng.next_below(9) as i16 - 4).collect();
        let dk: Vec<i16> = (0..n * d).map(|_| rng.next_below(9) as i16 - 4).collect();
        let q_t: Vec<i16> = q_prev.iter().zip(&dq).map(|(&a, &b)| a + b).collect();
        let k_t: Vec<i16> = k_prev.iter().zip(&dk).map(|(&a, &b)| a + b).collect();

        // Transpose helpers ([n, d] → [d, n]).
        let tr = |v: &[i16], rows: usize, cols: usize| {
            let mut t = vec![0i16; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    t[c * rows + r] = v[r * cols + c];
                }
            }
            t
        };
        let k_prev_t = tr(&k_prev, n, d);
        let k_t_t = tr(&k_t, n, d);
        let dk_t = tr(&dk, n, d);

        let prev_scores = int_scores(&q_prev, &k_prev_t, m, d, n);
        let dense = int_scores(&q_t, &k_t_t, m, d, n);
        let via_delta = attention_delta_scores(&prev_scores, &q_t, &dq, &k_prev_t, &dk_t, m, d, n);
        assert_eq!(dense, via_delta, "attention decomposition must be bit-exact");
    }

    #[test]
    fn zero_delta_is_free_and_exact() {
        let prev_out = vec![5i32, -3, 7, 9];
        let delta = vec![0i16; 4];
        let w = vec![1i8, 2, 3, 4];
        let out = delta_matmul_update(&prev_out, &delta, &w, 2, 2, 2);
        assert_eq!(out, prev_out);
    }

    #[test]
    #[should_panic(expected = "activation length")]
    fn int_matmul_length_check() {
        int_matmul(&[0i16; 3], &[0i8; 4], 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "delta length")]
    fn delta_update_length_check() {
        delta_matmul_update(&[0i32; 4], &[0i16; 3], &[0i8; 4], 2, 2, 2);
    }

    /// A backend value can name any level; one this host cannot run (the
    /// other ISA family always exists) is refused before an intrinsic runs.
    #[test]
    #[should_panic(expected = "cannot run on this host")]
    fn unsupported_level_is_refused() {
        let level = SimdLevel::ALL.into_iter().find(|l| !l.is_hw_supported()).unwrap();
        int_matmul_with(KernelBackend::Simd(level), &[1i16; 4], &[1i8; 4], 2, 2, 2);
    }
}
