//! Explicit-SIMD `f32` kernels — the `Simd`-backend implementation of
//! [`super::matmul::matmul_acc_with`] and [`super::matmul::matvec_with`]
//! (and, through the im2col path, `conv2d`).
//!
//! # Bit-exactness strategy
//!
//! Floating-point addition does not associate, so unlike the integer
//! kernels in `quant::kernels::simd` these kernels may never *reassociate*
//! a reduction. Instead, **every SIMD lane is one independent output
//! element**: per element the products still arrive one at a time, in
//! ascending-`k` order, folded from the element's existing value (an
//! explicit `0.0` seed, or the bias the conv path pre-broadcast) with a
//! separate correctly rounded multiply and add — never FMA, whose single
//! rounding would change bits. That makes each kernel equal to the scalar
//! reference *by construction*; the cross-backend/cross-level proptest
//! matrices then verify the construction.
//!
//! The `a`-operand **zero-skip** of the reference kernels is semantic for
//! `f32` (skipping `0.0 × ∞` or `0.0 × NaN` products, and `+0.0 + -0.0`
//! corners, changes results), so the sparse paths here mirror the portable
//! guarded passes exactly, and the register-tiled dense kernel is only
//! entered when `a` contains no zero at all — where skip and no-skip are
//! the same program.
//!
//! # Shape of the kernels
//!
//! One generic implementation ([`generic`]) is written against a minimal
//! vector abstraction (`VecF32`: load/store/splat/mul-then-add/strided
//! gather) and instantiated per instruction set: AVX2 (8 lanes), SSE2
//! (4 lanes), and NEON (4 lanes) — the rungs of the
//! [`crate::backend::SimdLevel`] ladder. Three matmul regimes mirror the
//! portable dispatch:
//!
//! * **dense** (`a` has no zeros — e.g. the compiled-plan conv path, which
//!   hands the conv *weight* as `a`): an output-stationary register-tiled
//!   kernel holds a 4-row × 2-vector output tile in registers across the
//!   whole `k` extent, eliminating the per-`k` output traffic that
//!   dominates the streaming form;
//! * **streaming** (sparse `a`, small `B` or single row): the guarded
//!   eight-step pass of the portable kernel with an explicitly vectorized
//!   column loop;
//! * **blocked** (sparse `a`, large `B`): the `MR`/`KC` cache-blocked loop
//!   nest with a vectorized column loop.
//!
//! Dispatch happens on the *active* level ([`crate::backend::simd_level`]),
//! so forcing `DITTO_SIMD_LEVEL=sse2` on an AVX2 host runs the real SSE2
//! kernels, and level `none` reports "no kernel" (`false`) and lets the
//! caller fall back to the portable tiled path.
//!
//! # Transcendental kernels
//!
//! The activations ([`activation`], [`softmax_rows`]) vectorize the scalar
//! ports of [`super::activation`] the same way: every lane executes the
//! port's operation sequence, computing every arm and selecting per lane by
//! mask, so a lane equals the scalar port on every input.
//!
//! * `tanh` (and GeLU on it) is written once against [`generic::VecMath`]
//!   and runs at AVX2 and SSE2. The lanes need `f32` arithmetic plus the
//!   integer compare / add / shift-by-constant / truncating-convert ops of
//!   fdlibm's bit manipulation; the SSE2 rung selects with and/andnot/or and
//!   forms `1 − 2⁻ᵏ` as an exact `f32` subtraction instead of a variable
//!   shift.
//! * `exp` (and sigmoid, SiLU, softmax on it) needs `f64` fused
//!   multiply-adds to match glibc, so it runs at AVX2 only when the host
//!   also has FMA — `f64` lanes, the 32-entry table gathered by index.
//!
//! Every other (level, function) pair, NEON included, reports "no kernel"
//! and the caller runs the scalar port.

use crate::backend::{self, SimdLevel};

/// The element-wise functions [`activation`] has vector kernels for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Activation {
    Tanh,
    Gelu,
    Exp,
    Sigmoid,
    Silu,
}

/// Whether the `f64`-FMA `exp` kernels can run: AVX2 active and FMA present.
#[cfg(target_arch = "x86_64")]
fn exp_kernels_available() -> bool {
    backend::simd_level() == SimdLevel::Avx2 && std::arch::is_x86_feature_detected!("fma")
}

/// Explicit-SIMD element-wise `out = f(x)` at the active SIMD level.
/// Returns `false` (leaving `out` untouched) when the level has no kernel
/// for `f`; the caller then runs the scalar port.
pub(crate) fn activation(f: Activation, out: &mut [f32], x: &[f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        type Kernel = unsafe fn(&mut [f32], &[f32]);
        let kernel: Option<Kernel> = match (backend::simd_level(), f) {
            (SimdLevel::Avx2, Activation::Tanh) => Some(x86::tanh_avx2),
            (SimdLevel::Avx2, Activation::Gelu) => Some(x86::gelu_avx2),
            (SimdLevel::Sse2, Activation::Tanh) => Some(x86::tanh_sse2),
            (SimdLevel::Sse2, Activation::Gelu) => Some(x86::gelu_sse2),
            (_, Activation::Exp) if exp_kernels_available() => Some(x86::exp_avx2),
            (_, Activation::Sigmoid) if exp_kernels_available() => Some(x86::sigmoid_avx2),
            (_, Activation::Silu) if exp_kernels_available() => Some(x86::silu_avx2),
            _ => None,
        };
        if let Some(kernel) = kernel {
            // SAFETY: only hardware-supported levels can be active, and the
            // FMA kernels are only picked after detecting FMA; each kernel
            // asserts its slice lengths.
            unsafe { kernel(out, x) };
            return true;
        }
    }
    let _ = (f, out, x);
    false
}

/// Explicit-SIMD row-wise softmax of `x [rows, cols]` into `out`. Returns
/// `false` when the active level has no kernel (see [`activation`]'s `exp`).
pub(crate) fn softmax_rows(out: &mut [f32], x: &[f32], rows: usize, cols: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    if exp_kernels_available() {
        // SAFETY: AVX2 is active and FMA detected; the kernel asserts the
        // slice lengths against `rows · cols`.
        unsafe { x86::softmax_rows_avx2(out, x, rows, cols) };
        return true;
    }
    let _ = (out, x, rows, cols);
    false
}

/// Explicit-SIMD `out [m,n] += a [m,k] × b [k,n]` at the active SIMD
/// level. Returns `false` (leaving `out` untouched) when no kernel exists
/// for the active level on this architecture — the caller falls back to
/// the portable path.
pub(crate) fn matmul_acc(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> bool {
    match backend::simd_level() {
        // SAFETY (all arms): only hardware-supported levels can ever be
        // active (`set_simd_level` and the env resolution both enforce
        // `is_hw_supported`), so the matched level proves its feature.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::matmul_acc_avx2(out, a, b, m, k, n) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::matmul_acc_sse2(out, a, b, m, k, n) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::matmul_acc_neon(out, a, b, m, k, n) };
            true
        }
        _ => {
            let _ = (out, a, b, m, k, n);
            false
        }
    }
}

/// Explicit-SIMD `out [m] = a [m,k] × x [k]` at the active SIMD level
/// (lane-per-output-row; each row's dot product folds sequentially from an
/// explicit `0.0` seed exactly like the scalar `dot`). Returns `false`
/// when no kernel exists for the active level.
pub(crate) fn matvec(out: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) -> bool {
    match backend::simd_level() {
        // SAFETY (all arms): as in `matmul_acc` — an active level is
        // always hardware-supported.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::matvec_avx2(out, a, x, m, k) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::matvec_sse2(out, a, x, m, k) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::matvec_neon(out, a, x, m, k) };
            true
        }
        _ => {
            let _ = (out, a, x, m, k);
            false
        }
    }
}

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub(crate) mod generic {
    #[cfg(target_arch = "x86_64")]
    use crate::ops::activation;
    use crate::ops::matmul::{self, B_ELEMS_BLOCK_THRESHOLD, KC, MR};

    /// The minimal vector contract the generic kernels are written
    /// against. All operations are lane-wise; `muladd` must lower to a
    /// separate correctly rounded multiply and add (never a fused
    /// multiply-add), because one rounding vs two changes bits.
    /// `pub(crate)` so the direct-conv kernels
    /// ([`crate::ops::conv_direct_simd`]) instantiate against the same
    /// contract (and the same per-ISA vector types) as the matmul family.
    pub(crate) trait VecF32: Copy {
        /// Lane count (vector width in `f32`s).
        const LANES: usize;
        /// # Safety
        /// `p` must be readable for `LANES` consecutive `f32`s.
        unsafe fn load(p: *const f32) -> Self;
        /// # Safety
        /// `p` must be writable for `LANES` consecutive `f32`s.
        unsafe fn store(self, p: *mut f32);
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn splat(v: f32) -> Self;
        /// `self + a·b`, separately rounded.
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn muladd(self, a: Self, b: Self) -> Self;
        /// `{p[0], p[stride], …, p[(LANES-1)·stride]}`.
        /// # Safety
        /// Every strided element must be readable.
        unsafe fn gather_stride(p: *const f32, stride: usize) -> Self;
    }

    /// Full matmul-accumulate dispatch, mirroring the portable regimes:
    /// register-tiled when `a` is entirely nonzero, guarded streaming for
    /// sparse small-`B`/single-row shapes, `MR`/`KC` blocked otherwise.
    ///
    /// # Safety
    ///
    /// The instantiating instruction set must be enabled in the enclosing
    /// `#[target_feature]` context, and the slices must have the declared
    /// `m·k` / `k·n` / `m·n` lengths (debug-asserted here and by the public
    /// entry).
    #[inline(always)]
    pub(super) unsafe fn matmul_acc_impl<V: VecF32>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        // Everything the kernels' pointer arithmetic relies on.
        debug_assert_eq!(out.len(), m * n);
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        if a.is_empty() || n == 0 {
            return;
        }
        if a.iter().all(|&v| v != 0.0) {
            dense_acc::<V>(out, a, b, m, k, n);
        } else if k * n <= B_ELEMS_BLOCK_THRESHOLD || m < 2 {
            for i in 0..m {
                stream_row::<V>(&mut out[i * n..(i + 1) * n], &a[i * k..(i + 1) * k], b, k, n);
            }
        } else {
            blocked_acc::<V>(out, a, b, m, k, n);
        }
    }

    /// Output-stationary register-tiled kernel for fully dense `a`: a
    /// 4-row × 2-vector output tile lives in eight vector accumulators —
    /// eight independent add chains — across the whole `k` extent (plus two
    /// `b` registers and the row broadcasts, inside 16 vector registers),
    /// so each output element is loaded and stored exactly once instead of
    /// once per streamed pass. Per element the products are still added one
    /// at a time in ascending `k` — the reference sequence — and `a` has no
    /// zeros, so the reference zero-skip is vacuously preserved. The
    /// `m % 4` rows take the same kernel two rows, then one row, high.
    #[inline(always)]
    unsafe fn dense_acc<V: VecF32>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut i = 0;
        while i + 4 <= m {
            dense_rows::<V, 4>(&mut out[i * n..(i + 4) * n], &a[i * k..(i + 4) * k], b, k, n);
            i += 4;
        }
        if i + 2 <= m {
            dense_rows::<V, 2>(&mut out[i * n..(i + 2) * n], &a[i * k..(i + 2) * k], b, k, n);
            i += 2;
        }
        if i < m {
            dense_rows::<V, 1>(&mut out[i * n..(i + 1) * n], &a[i * k..(i + 1) * k], b, k, n);
        }
    }

    /// `R` output rows of [`dense_acc`]: `R × 2`-vector tiles, then an
    /// `R × 1`-vector tile, then scalar columns, each across the whole `k`
    /// extent. Every lane (and every scalar column) is one output element
    /// folding its products in ascending `k` with a separate multiply and
    /// add.
    ///
    /// # Safety
    ///
    /// `out` must hold `R·n`, `a` `R·k` and `b` `k·n` elements.
    #[inline(always)]
    unsafe fn dense_rows<V: VecF32, const R: usize>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
    ) {
        let w = V::LANES;
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut j = 0;
        while j + 2 * w <= n {
            let mut acc = [[V::load(op); 2]; R];
            for r in 0..R {
                acc[r] = [V::load(op.add(r * n + j)), V::load(op.add(r * n + j + w))];
            }
            for kk in 0..k {
                let b0 = V::load(bp.add(kk * n + j));
                let b1 = V::load(bp.add(kk * n + j + w));
                for r in 0..R {
                    let av = V::splat(*ap.add(r * k + kk));
                    acc[r] = [acc[r][0].muladd(av, b0), acc[r][1].muladd(av, b1)];
                }
            }
            for r in 0..R {
                acc[r][0].store(op.add(r * n + j));
                acc[r][1].store(op.add(r * n + j + w));
            }
            j += 2 * w;
        }
        if j + w <= n {
            let mut acc = [V::load(op); R];
            for r in 0..R {
                acc[r] = V::load(op.add(r * n + j));
            }
            for kk in 0..k {
                let bv = V::load(bp.add(kk * n + j));
                for r in 0..R {
                    acc[r] = acc[r].muladd(V::splat(*ap.add(r * k + kk)), bv);
                }
            }
            for r in 0..R {
                acc[r].store(op.add(r * n + j));
            }
            j += w;
        }
        for jj in j..n {
            for r in 0..R {
                let mut acc = out[r * n + jj];
                for kk in 0..k {
                    acc += a[r * k + kk] * b[kk * n + jj];
                }
                out[r * n + jj] = acc;
            }
        }
    }

    /// One streaming output row: the portable kernel's guarded eight-step
    /// head with an explicitly vectorized column loop, falling through to
    /// the shared portable tail ([`matmul::stream_row_tail`]) at the first
    /// zero (or for `k % 8`), so zero-skip semantics are exactly the
    /// reference's.
    #[inline(always)]
    unsafe fn stream_row<V: VecF32>(orow: &mut [f32], arow: &[f32], b: &[f32], k: usize, n: usize) {
        let mut kk = 0;
        while kk + 8 <= k {
            let a8: [f32; 8] = arow[kk..kk + 8].try_into().expect("slice of 8");
            if a8.contains(&0.0) {
                break;
            }
            let bp = b.as_ptr().add(kk * n);
            let mut j = 0;
            while j + V::LANES <= n {
                let mut acc = V::load(orow.as_ptr().add(j));
                for (t, &av) in a8.iter().enumerate() {
                    acc = acc.muladd(V::splat(av), V::load(bp.add(t * n + j)));
                }
                acc.store(orow.as_mut_ptr().add(j));
                j += V::LANES;
            }
            for jj in j..n {
                let mut acc = orow[jj];
                for (t, &av) in a8.iter().enumerate() {
                    acc += av * b[(kk + t) * n + jj];
                }
                orow[jj] = acc;
            }
            kk += 8;
        }
        matmul::stream_row_tail(orow, arow, b, k, n, kk);
    }

    /// The `MR`/`KC` cache-blocked loop nest of the portable large-`B`
    /// path with a vectorized column loop. Per output element this is one
    /// product per non-zero `a[i,kk]` in ascending `k` order (the `kb`
    /// blocks ascend and `kk` ascends within each block), identical to the
    /// portable blocked kernel.
    #[inline(always)]
    unsafe fn blocked_acc<V: VecF32>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let w = V::LANES;
        for ib in (0..m).step_by(MR) {
            let ie = (ib + MR).min(m);
            for kb in (0..k).step_by(KC) {
                let ke = (kb + KC).min(k);
                for kk in kb..ke {
                    let brow = &b[kk * n..kk * n + n];
                    let bp = brow.as_ptr();
                    for i in ib..ie {
                        let aik = *a.get_unchecked(i * k + kk);
                        if aik == 0.0 {
                            continue;
                        }
                        let av = V::splat(aik);
                        let orow = &mut out[i * n..i * n + n];
                        let op = orow.as_mut_ptr();
                        let mut j = 0;
                        while j + w <= n {
                            V::load(op.add(j)).muladd(av, V::load(bp.add(j))).store(op.add(j));
                            j += w;
                        }
                        for jj in j..n {
                            orow[jj] += aik * brow[jj];
                        }
                    }
                }
            }
        }
    }

    /// Lane-per-output-row matvec: `LANES` rows accumulate in one vector
    /// register, gathering the rows' `kk`-th elements with a strided load
    /// per step. Each lane is an independent dot product folded from an
    /// explicit `0.0` seed in ascending `k` — exactly [`matmul::dot`],
    /// which also handles the `m % LANES` remainder rows.
    #[inline(always)]
    pub(super) unsafe fn matvec_impl<V: VecF32>(
        out: &mut [f32],
        a: &[f32],
        x: &[f32],
        m: usize,
        k: usize,
    ) {
        let w = V::LANES;
        let ap = a.as_ptr();
        let mut i = 0;
        if k > 0 {
            while i + w <= m {
                let mut acc = V::splat(0.0);
                for (kk, &xk) in x.iter().enumerate() {
                    let col = V::gather_stride(ap.add(i * k + kk), k);
                    acc = acc.muladd(col, V::splat(xk));
                }
                acc.store(out.as_mut_ptr().add(i));
                i += w;
            }
        }
        for r in i..m {
            out[r] = matmul::dot(&a[r * k..(r + 1) * k], x);
        }
    }

    /// The bit-level lane ops the transcendental kernels need on top of
    /// [`VecF32`]. Masks are vectors with all-ones / all-zero lanes; the
    /// `*_i32` ops read the lanes' bits as two's-complement `i32`. Only the
    /// x86 rungs implement it (NEON runs the scalar ports).
    #[cfg(target_arch = "x86_64")]
    pub(crate) trait VecMath: VecF32 {
        /// Every lane holds the bit pattern `bits`.
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn splat_bits(bits: u32) -> Self;
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn add(self, o: Self) -> Self;
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn sub(self, o: Self) -> Self;
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn mul(self, o: Self) -> Self;
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn div(self, o: Self) -> Self;
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn and(self, o: Self) -> Self;
        /// `!self & o`.
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn andnot(self, o: Self) -> Self;
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn or(self, o: Self) -> Self;
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn xor(self, o: Self) -> Self;
        /// Mask of lanes where `self > o` as signed `i32`.
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn gt_i32(self, o: Self) -> Self;
        /// Mask of lanes where `self == o` as `i32`.
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn eq_i32(self, o: Self) -> Self;
        /// Wrapping `i32` add.
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn add_i32(self, o: Self) -> Self;
        /// Wrapping `i32` subtract.
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn sub_i32(self, o: Self) -> Self;
        /// `i32` shift left by the constant 23 (into the exponent field).
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn shl23_i32(self) -> Self;
        /// `f32` → `i32`, truncating toward zero (C's conversion, Rust's
        /// `as` on in-range values).
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn trunc_i32(self) -> Self;
        /// `i32` → `f32` (exact for the small integers used here).
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn i32_to_f32(self) -> Self;
        /// `mask ? a : b` per lane.
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        #[inline(always)]
        unsafe fn select(mask: Self, a: Self, b: Self) -> Self {
            mask.and(a).or(mask.andnot(b))
        }
    }

    /// An element-wise function: a vector body and the scalar port it must
    /// equal lane for lane (which also serves the remainder elements).
    #[cfg(target_arch = "x86_64")]
    pub(crate) trait LaneFn<V> {
        /// # Safety
        /// The instruction set of `V` must be enabled in the caller.
        unsafe fn vector(x: V) -> V;
        fn scalar(x: f32) -> f32;
    }

    /// `out[i] = F(x[i])`: `LANES` at a time, the remainder by the scalar
    /// port.
    ///
    /// # Safety
    ///
    /// The instruction set of `V` (and whatever `F::vector` uses) must be
    /// enabled in the enclosing `#[target_feature]` context.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    pub(super) unsafe fn map_impl<V: VecF32, F: LaneFn<V>>(out: &mut [f32], x: &[f32]) {
        // Everything the pointer arithmetic below relies on.
        assert_eq!(out.len(), x.len(), "element-wise kernel operand lengths");
        let w = V::LANES;
        let mut i = 0;
        while i + w <= x.len() {
            // SAFETY: `i + LANES <= len` of both slices.
            F::vector(V::load(x.as_ptr().add(i))).store(out.as_mut_ptr().add(i));
            i += w;
        }
        for (o, &v) in out[i..].iter_mut().zip(&x[i..]) {
            *o = F::scalar(v);
        }
    }

    /// [`activation::tanh_f32`] per lane: fdlibm `tanhf` with `expm1f`
    /// inlined for its two argument ranges (`2|x|` for `|x| ≥ 1`, `−2|x|`
    /// below). Every lane computes the one reduction
    /// `hi = y − t·ln2_hi, lo = t·ln2_lo` with its own `k` — for the port's
    /// `k = ±1` arm `t·ln2` is exact and `y − (−a) = y + a`, for `k = 0`
    /// `hi = y, lo = 0` — and then every result arm; masks pick the arm the
    /// port's branches would take.
    ///
    /// # Safety
    ///
    /// The instruction set of `V` must be enabled in the caller.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    pub(super) unsafe fn tanh_v<V: VecMath>(x: V) -> V {
        let bits = V::splat_bits;
        let one = V::splat(1.0);
        let sign_bit = bits(0x8000_0000);
        let minus_one_i = bits(-1i32 as u32);
        let sign = x.and(sign_bit);
        // |x|; whether |x| >= 1; and expm1's argument: 2|x|, negated below 1
        // (×2 and negation are exact).
        let ix = x.and(bits(0x7fff_ffff));
        let big = ix.gt_i32(bits(0x3f7f_ffff));
        let ay = V::splat(2.0).mul(ix);
        let y = ay.or(big.andnot(sign_bit));
        // Reduction: k = 0 below 0.5·ln2, ∓1 below 1.5·ln2 (only the
        // negative side is reachable), else trunc(y/ln2 ± 0.5).
        let half = V::splat(0.5).or(y.and(sign_bit));
        let k_gen = V::splat(activation::INV_LN2).mul(y).add(half).trunc_i32();
        let k_red = V::select(bits(0x3f85_1592).gt_i32(ay), minus_one_i, k_gen);
        let k = ay.gt_i32(bits(0x3eb1_7218)).and(k_red);
        let t = k.i32_to_f32();
        let hi = y.sub(t.mul(V::splat(activation::LN2_HI)));
        let lo = t.mul(V::splat(activation::LN2_LO));
        let xr = hi.sub(lo);
        let c = hi.sub(xr).sub(lo);
        // The polynomial, then the port's result arms.
        let [q1, q2, q3, q4, q5] = activation::EXPM1_Q;
        let hfx = V::splat(0.5).mul(xr);
        let hxs = xr.mul(hfx);
        let poly = V::splat(q4).add(hxs.mul(V::splat(q5)));
        let poly = V::splat(q3).add(hxs.mul(poly));
        let poly = V::splat(q2).add(hxs.mul(poly));
        let poly = V::splat(q1).add(hxs.mul(poly));
        let r1 = one.add(hxs.mul(poly));
        let tt = V::splat(3.0).sub(r1.mul(hfx));
        let e = hxs.mul(r1.sub(tt).div(V::splat(6.0).sub(xr.mul(tt))));
        let r_k0 = xr.sub(xr.mul(e).sub(hxs));
        let e = xr.mul(e.sub(c)).sub(c).sub(hxs);
        let r_km1 = V::splat(0.5).mul(xr.sub(e)).sub(V::splat(0.5));
        let k23 = k.shl23_i32();
        let r_wide = one.sub(e.sub(xr)).add_i32(k23).sub(one);
        let p = bits(0x7f).sub_i32(k).shl23_i32(); // 2^-k
        let r_lt23 = one.sub(p).sub(e.sub(xr)).add_i32(k23);
        let r_ge23 = xr.sub(e.add(p)).add(one).add_i32(k23);
        let mut em1 = V::select(bits(23).gt_i32(k), r_lt23, r_ge23);
        let wide = minus_one_i.gt_i32(k).or(k.gt_i32(bits(56)));
        em1 = V::select(wide, r_wide, em1);
        em1 = V::select(k.eq_i32(minus_one_i), r_km1, em1);
        em1 = V::select(k.eq_i32(bits(0)), r_k0, em1);
        // |y| < 2^-25: expm1(y) = y. Then tanh from expm1: both arms are
        // positive, so the sign is an xor.
        em1 = V::select(bits(0x3300_0000).gt_i32(ay), y, em1);
        let d = em1.add(V::splat(2.0));
        let z_big = one.sub(V::splat(2.0).div(d));
        let z_small = em1.xor(sign_bit).div(d);
        let mut z = V::select(big, z_big, z_small);
        z = V::select(ix.gt_i32(bits(0x41af_ffff)), one, z); // |x| >= 22
        z = z.xor(sign);
        z = V::select(bits(0x2400_0000).gt_i32(ix), x, z); // |x| < 2^-55 (and ±0)
        V::select(ix.gt_i32(bits(0x7f80_0000)), x.add(x), z) // NaN
    }

    #[cfg(target_arch = "x86_64")]
    pub(super) struct Tanh;

    #[cfg(target_arch = "x86_64")]
    impl<V: VecMath> LaneFn<V> for Tanh {
        #[inline(always)]
        unsafe fn vector(x: V) -> V {
            tanh_v(x)
        }
        fn scalar(x: f32) -> f32 {
            activation::tanh_f32(x)
        }
    }

    #[cfg(target_arch = "x86_64")]
    pub(super) struct Gelu;

    #[cfg(target_arch = "x86_64")]
    impl<V: VecMath> LaneFn<V> for Gelu {
        /// `(0.5·v)·(1 + tanh(c·(v + ((0.044715·v)·v)·v)))`, the scalar
        /// expression's exact order.
        #[inline(always)]
        unsafe fn vector(v: V) -> V {
            let cube = V::splat(0.044_715).mul(v).mul(v).mul(v);
            let t = tanh_v(V::splat(activation::gelu_coeff()).mul(v.add(cube)));
            V::splat(0.5).mul(v).mul(V::splat(1.0).add(t))
        }
        fn scalar(x: f32) -> f32 {
            activation::gelu_scalar(x)
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    use super::generic::{
        map_impl, matmul_acc_impl, matvec_impl, Gelu, LaneFn, Tanh, VecF32, VecMath,
    };
    use crate::ops::activation;

    /// 8-lane AVX2 vector. The arithmetic (`vmulps`/`vaddps`) only needs
    /// AVX, but the kernels are gated behind the `Avx2` ladder rung to
    /// keep one detection axis for the integer and float kernels alike.
    #[derive(Clone, Copy)]
    pub(crate) struct V256(__m256);

    impl VecF32 for V256 {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            V256(_mm256_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            V256(_mm256_set1_ps(v))
        }
        #[inline(always)]
        unsafe fn muladd(self, a: Self, b: Self) -> Self {
            // Separate vmulps + vaddps; never vfmadd (single rounding).
            V256(_mm256_add_ps(self.0, _mm256_mul_ps(a.0, b.0)))
        }
        #[inline(always)]
        unsafe fn gather_stride(p: *const f32, stride: usize) -> Self {
            // `_mm256_set_ps` takes lanes high-to-low: lane t = p[t·stride].
            V256(_mm256_set_ps(
                *p.add(7 * stride),
                *p.add(6 * stride),
                *p.add(5 * stride),
                *p.add(4 * stride),
                *p.add(3 * stride),
                *p.add(2 * stride),
                *p.add(stride),
                *p,
            ))
        }
    }

    impl VecMath for V256 {
        #[inline(always)]
        unsafe fn splat_bits(bits: u32) -> Self {
            V256(_mm256_castsi256_ps(_mm256_set1_epi32(bits as i32)))
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            V256(_mm256_add_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            V256(_mm256_sub_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            V256(_mm256_mul_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn div(self, o: Self) -> Self {
            V256(_mm256_div_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn and(self, o: Self) -> Self {
            V256(_mm256_and_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn andnot(self, o: Self) -> Self {
            V256(_mm256_andnot_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn or(self, o: Self) -> Self {
            V256(_mm256_or_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn xor(self, o: Self) -> Self {
            V256(_mm256_xor_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn gt_i32(self, o: Self) -> Self {
            V256(_mm256_castsi256_ps(_mm256_cmpgt_epi32(ints(self.0), ints(o.0))))
        }
        #[inline(always)]
        unsafe fn eq_i32(self, o: Self) -> Self {
            V256(_mm256_castsi256_ps(_mm256_cmpeq_epi32(ints(self.0), ints(o.0))))
        }
        #[inline(always)]
        unsafe fn add_i32(self, o: Self) -> Self {
            V256(_mm256_castsi256_ps(_mm256_add_epi32(ints(self.0), ints(o.0))))
        }
        #[inline(always)]
        unsafe fn sub_i32(self, o: Self) -> Self {
            V256(_mm256_castsi256_ps(_mm256_sub_epi32(ints(self.0), ints(o.0))))
        }
        #[inline(always)]
        unsafe fn shl23_i32(self) -> Self {
            V256(_mm256_castsi256_ps(_mm256_slli_epi32::<23>(ints(self.0))))
        }
        #[inline(always)]
        unsafe fn trunc_i32(self) -> Self {
            V256(_mm256_castsi256_ps(_mm256_cvttps_epi32(self.0)))
        }
        #[inline(always)]
        unsafe fn i32_to_f32(self) -> Self {
            V256(_mm256_cvtepi32_ps(ints(self.0)))
        }
        #[inline(always)]
        unsafe fn select(mask: Self, a: Self, b: Self) -> Self {
            V256(_mm256_blendv_ps(b.0, a.0, mask.0))
        }
    }

    #[inline(always)]
    unsafe fn ints(v: __m256) -> __m256i {
        _mm256_castps_si256(v)
    }

    /// 4-lane SSE2 vector.
    #[derive(Clone, Copy)]
    pub(crate) struct V128(__m128);

    impl VecF32 for V128 {
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            V128(_mm_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            V128(_mm_set1_ps(v))
        }
        #[inline(always)]
        unsafe fn muladd(self, a: Self, b: Self) -> Self {
            V128(_mm_add_ps(self.0, _mm_mul_ps(a.0, b.0)))
        }
        #[inline(always)]
        unsafe fn gather_stride(p: *const f32, stride: usize) -> Self {
            V128(_mm_set_ps(*p.add(3 * stride), *p.add(2 * stride), *p.add(stride), *p))
        }
    }

    /// SSE2 has no `blendv`, so [`VecMath::select`] keeps its
    /// and/andnot/or default.
    impl VecMath for V128 {
        #[inline(always)]
        unsafe fn splat_bits(bits: u32) -> Self {
            V128(_mm_castsi128_ps(_mm_set1_epi32(bits as i32)))
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            V128(_mm_add_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            V128(_mm_sub_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            V128(_mm_mul_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn div(self, o: Self) -> Self {
            V128(_mm_div_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn and(self, o: Self) -> Self {
            V128(_mm_and_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn andnot(self, o: Self) -> Self {
            V128(_mm_andnot_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn or(self, o: Self) -> Self {
            V128(_mm_or_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn xor(self, o: Self) -> Self {
            V128(_mm_xor_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn gt_i32(self, o: Self) -> Self {
            V128(_mm_castsi128_ps(_mm_cmpgt_epi32(_mm_castps_si128(self.0), _mm_castps_si128(o.0))))
        }
        #[inline(always)]
        unsafe fn eq_i32(self, o: Self) -> Self {
            V128(_mm_castsi128_ps(_mm_cmpeq_epi32(_mm_castps_si128(self.0), _mm_castps_si128(o.0))))
        }
        #[inline(always)]
        unsafe fn add_i32(self, o: Self) -> Self {
            V128(_mm_castsi128_ps(_mm_add_epi32(_mm_castps_si128(self.0), _mm_castps_si128(o.0))))
        }
        #[inline(always)]
        unsafe fn sub_i32(self, o: Self) -> Self {
            V128(_mm_castsi128_ps(_mm_sub_epi32(_mm_castps_si128(self.0), _mm_castps_si128(o.0))))
        }
        #[inline(always)]
        unsafe fn shl23_i32(self) -> Self {
            V128(_mm_castsi128_ps(_mm_slli_epi32::<23>(_mm_castps_si128(self.0))))
        }
        #[inline(always)]
        unsafe fn trunc_i32(self) -> Self {
            V128(_mm_castsi128_ps(_mm_cvttps_epi32(self.0)))
        }
        #[inline(always)]
        unsafe fn i32_to_f32(self) -> Self {
            V128(_mm_cvtepi32_ps(_mm_castps_si128(self.0)))
        }
    }

    /// # Safety
    /// AVX2 must be available; slice lengths per [`matmul_acc_impl`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_acc_avx2(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        matmul_acc_impl::<V256>(out, a, b, m, k, n)
    }

    /// # Safety
    /// SSE2 must be available; slice lengths per [`matmul_acc_impl`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn matmul_acc_sse2(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        matmul_acc_impl::<V128>(out, a, b, m, k, n)
    }

    /// # Safety
    /// AVX2 must be available; slice lengths per [`matvec_impl`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matvec_avx2(out: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
        matvec_impl::<V256>(out, a, x, m, k)
    }

    /// # Safety
    /// SSE2 must be available; slice lengths per [`matvec_impl`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn matvec_sse2(out: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
        matvec_impl::<V128>(out, a, x, m, k)
    }

    /// # Safety
    /// AVX2 must be available (lengths are asserted by [`map_impl`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tanh_avx2(out: &mut [f32], x: &[f32]) {
        map_impl::<V256, Tanh>(out, x)
    }

    /// # Safety
    /// AVX2 must be available (lengths are asserted by [`map_impl`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gelu_avx2(out: &mut [f32], x: &[f32]) {
        map_impl::<V256, Gelu>(out, x)
    }

    /// # Safety
    /// SSE2 must be available (lengths are asserted by [`map_impl`]).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn tanh_sse2(out: &mut [f32], x: &[f32]) {
        map_impl::<V128, Tanh>(out, x)
    }

    /// # Safety
    /// SSE2 must be available (lengths are asserted by [`map_impl`]).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn gelu_sse2(out: &mut [f32], x: &[f32]) {
        map_impl::<V128, Gelu>(out, x)
    }

    /// [`activation::exp_f32`] on four `f64` lanes (the inputs widened
    /// exactly): the port's three fused multiply-adds for the reduction and
    /// the cubic, and the table entry fetched by a 64-bit gather of
    /// `k % 32`. Lanes outside the normal range compute garbage the caller
    /// blends away; every gather index is masked into the table.
    ///
    /// # Safety
    /// AVX2 and FMA must be enabled in the caller.
    #[inline(always)]
    unsafe fn exp4_pd(xd: __m256d) -> __m256d {
        let inv = _mm256_set1_pd(activation::EXP2F_INV_LN2_N);
        let shift = _mm256_set1_pd(activation::EXP2F_SHIFT);
        let kd = _mm256_fmadd_pd(inv, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv, xd, kd);
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        // SAFETY: every index is in 0..32, the table's length.
        let t = _mm256_i64gather_epi64::<8>(activation::EXP2F_TAB.as_ptr().cast(), idx);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let [c0, c1, c2] = activation::EXP2F_C;
        let z = _mm256_fmadd_pd(_mm256_set1_pd(c0), r, _mm256_set1_pd(c1));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(_mm256_set1_pd(c2), r, _mm256_set1_pd(1.0));
        _mm256_mul_pd(_mm256_fmadd_pd(z, r2, y), s)
    }

    /// [`activation::exp_f32`] on eight lanes: two [`exp4_pd`] halves
    /// rounded to `f32`, then the port's `|x| ≥ 88` arms by blend (later
    /// blends win, mirroring the port's first-match order).
    ///
    /// # Safety
    /// AVX2 and FMA must be enabled in the caller.
    #[inline(always)]
    unsafe fn exp8(x: __m256) -> __m256 {
        let lo = exp4_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
        let hi = exp4_pd(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
        let y = _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
        let may_uflow = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(activation::EXPF_MAY_UFLOW));
        let smallest = _mm256_castsi256_ps(_mm256_set1_epi32(1));
        let y = _mm256_blendv_ps(y, smallest, may_uflow);
        let uflow = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(activation::EXPF_UFLOW));
        let y = _mm256_blendv_ps(y, _mm256_setzero_ps(), uflow);
        let over = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(activation::EXPF_OFLOW));
        let y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::INFINITY), over);
        _mm256_blendv_ps(y, _mm256_add_ps(x, x), _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
    }

    struct Exp;

    impl LaneFn<V256> for Exp {
        #[inline(always)]
        unsafe fn vector(x: V256) -> V256 {
            V256(exp8(x.0))
        }
        fn scalar(x: f32) -> f32 {
            activation::exp_f32(x)
        }
    }

    /// `1 / (1 + e^{-v})`.
    struct Sigmoid;

    impl LaneFn<V256> for Sigmoid {
        #[inline(always)]
        unsafe fn vector(v: V256) -> V256 {
            let e = exp8(_mm256_xor_ps(v.0, _mm256_set1_ps(-0.0)));
            V256(_mm256_div_ps(_mm256_set1_ps(1.0), _mm256_add_ps(_mm256_set1_ps(1.0), e)))
        }
        fn scalar(x: f32) -> f32 {
            activation::sigmoid_scalar(x)
        }
    }

    /// `v / (1 + e^{-v})`.
    struct Silu;

    impl LaneFn<V256> for Silu {
        #[inline(always)]
        unsafe fn vector(v: V256) -> V256 {
            let e = exp8(_mm256_xor_ps(v.0, _mm256_set1_ps(-0.0)));
            V256(_mm256_div_ps(v.0, _mm256_add_ps(_mm256_set1_ps(1.0), e)))
        }
        fn scalar(x: f32) -> f32 {
            activation::silu_scalar(x)
        }
    }

    /// # Safety
    /// AVX2 and FMA must be available (lengths are asserted by [`map_impl`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_avx2(out: &mut [f32], x: &[f32]) {
        map_impl::<V256, Exp>(out, x)
    }

    /// # Safety
    /// AVX2 and FMA must be available (lengths are asserted by [`map_impl`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sigmoid_avx2(out: &mut [f32], x: &[f32]) {
        map_impl::<V256, Sigmoid>(out, x)
    }

    /// # Safety
    /// AVX2 and FMA must be available (lengths are asserted by [`map_impl`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn silu_avx2(out: &mut [f32], x: &[f32]) {
        map_impl::<V256, Silu>(out, x)
    }

    /// Row-wise softmax, bit-identical to the scalar loop of
    /// [`activation::softmax_rows_into_with`]. Per row: the maximum, then
    /// `e = exp(v − max)` by [`exp8`], then a *sequential* ascending-column
    /// sum `0 + e₀ + e₁ + …`, then `e / sum`.
    ///
    /// * The maximum is reduced by lane (`maxps` keeps its second operand
    ///   when the first is NaN, so NaNs are skipped as `f32::max` skips
    ///   them). A maximum is exact, so the only freedom is the sign of a
    ///   zero maximum, and `v − (±0)` differs at most in the sign of a zero,
    ///   which `exp` maps to 1 either way.
    /// * The sums are never reassociated: eight rows go at once, their
    ///   exponentials transposed in registers so lane `r` of one accumulator
    ///   adds row `r`'s terms in column order — the `matvec` lane-per-row
    ///   pattern. Leftover rows sum one term at a time.
    ///
    /// # Safety
    /// AVX2 and FMA must be available.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn softmax_rows_avx2(out: &mut [f32], x: &[f32], rows: usize, cols: usize) {
        // Everything the pointer arithmetic below relies on.
        assert_eq!(x.len(), rows * cols, "softmax input length");
        assert_eq!(out.len(), rows * cols, "softmax output length");
        if cols == 0 {
            return;
        }
        let blocked = rows / 8 * 8 * cols;
        let (x_blocks, x_rest) = x.split_at(blocked);
        let (o_blocks, o_rest) = out.split_at_mut(blocked);
        for (xb, ob) in x_blocks.chunks_exact(8 * cols).zip(o_blocks.chunks_exact_mut(8 * cols)) {
            let mut max = [0.0f32; 8];
            for (m, row) in max.iter_mut().zip(xb.chunks_exact(cols)) {
                *m = row_max(row);
            }
            let mut sum = _mm256_setzero_ps();
            let mut j = 0;
            while j + 8 <= cols {
                let mut e = [_mm256_setzero_ps(); 8];
                for (r, er) in e.iter_mut().enumerate() {
                    // SAFETY: row r of the block holds `cols` ≥ j + 8 values.
                    let v = _mm256_loadu_ps(xb.as_ptr().add(r * cols + j));
                    *er = exp8(_mm256_sub_ps(v, _mm256_set1_ps(max[r])));
                    _mm256_storeu_ps(ob.as_mut_ptr().add(r * cols + j), *er);
                }
                for column in transpose8(e) {
                    sum = _mm256_add_ps(sum, column);
                }
                j += 8;
            }
            let mut sums = [0.0f32; 8];
            // SAFETY: `sums` holds eight f32s.
            _mm256_storeu_ps(sums.as_mut_ptr(), sum);
            for (r, (row, orow)) in xb.chunks_exact(cols).zip(ob.chunks_exact_mut(cols)).enumerate()
            {
                for (o, &v) in orow[j..].iter_mut().zip(&row[j..]) {
                    *o = activation::exp_f32(v - max[r]);
                    sums[r] += *o;
                }
                divide_row(orow, sums[r]);
            }
        }
        for (row, orow) in x_rest.chunks_exact(cols).zip(o_rest.chunks_exact_mut(cols)) {
            let max = row_max(row);
            map_exp_shifted(orow, row, max);
            let mut sum = 0.0f32;
            for &e in orow.iter() {
                sum += e;
            }
            divide_row(orow, sum);
        }
    }

    /// `max(row)` with `f32::max`'s NaN skipping (see [`softmax_rows_avx2`]).
    #[inline(always)]
    unsafe fn row_max(row: &[f32]) -> f32 {
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut j = 0;
        while j + 8 <= row.len() {
            // SAFETY: j + 8 <= row.len().
            acc = _mm256_max_ps(_mm256_loadu_ps(row.as_ptr().add(j)), acc);
            j += 8;
        }
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` holds eight f32s.
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        lanes.iter().chain(&row[j..]).copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// `out[i] = exp(x[i] − max)`.
    #[inline(always)]
    unsafe fn map_exp_shifted(out: &mut [f32], x: &[f32], max: f32) {
        let m = _mm256_set1_ps(max);
        let mut j = 0;
        while j + 8 <= x.len() {
            // SAFETY: j + 8 <= x.len() == out.len().
            let v = _mm256_loadu_ps(x.as_ptr().add(j));
            _mm256_storeu_ps(out.as_mut_ptr().add(j), exp8(_mm256_sub_ps(v, m)));
            j += 8;
        }
        for (o, &v) in out[j..].iter_mut().zip(&x[j..]) {
            *o = activation::exp_f32(v - max);
        }
    }

    /// `row[i] /= sum` (correctly rounded division, lane or scalar alike).
    #[inline(always)]
    unsafe fn divide_row(row: &mut [f32], sum: f32) {
        let s = _mm256_set1_ps(sum);
        let mut j = 0;
        while j + 8 <= row.len() {
            // SAFETY: j + 8 <= row.len().
            let p = row.as_mut_ptr().add(j);
            _mm256_storeu_ps(p, _mm256_div_ps(_mm256_loadu_ps(p), s));
            j += 8;
        }
        for o in &mut row[j..] {
            *o /= sum;
        }
    }

    /// 8×8 transpose: `out[c]` lane `r` = `rows[r]` lane `c`.
    #[inline(always)]
    unsafe fn transpose8(rows: [__m256; 8]) -> [__m256; 8] {
        let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
        let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
        let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
        let (t4, t5) = (_mm256_unpacklo_ps(r4, r5), _mm256_unpackhi_ps(r4, r5));
        let (t6, t7) = (_mm256_unpacklo_ps(r6, r7), _mm256_unpackhi_ps(r6, r7));
        // Columns {0,4}, {1,5}, {2,6}, {3,7} of rows 0–3, then of rows 4–7.
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xee>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xee>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xee>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xee>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon {
    use core::arch::aarch64::*;

    use super::generic::{matmul_acc_impl, matvec_impl, VecF32};

    /// 4-lane NEON vector (NEON is aarch64 baseline).
    #[derive(Clone, Copy)]
    pub(crate) struct V128N(float32x4_t);

    impl VecF32 for V128N {
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            V128N(vld1q_f32(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            vst1q_f32(p, self.0)
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            V128N(vdupq_n_f32(v))
        }
        #[inline(always)]
        unsafe fn muladd(self, a: Self, b: Self) -> Self {
            // Separate vmulq + vaddq; never vfmaq (single rounding).
            V128N(vaddq_f32(self.0, vmulq_f32(a.0, b.0)))
        }
        #[inline(always)]
        unsafe fn gather_stride(p: *const f32, stride: usize) -> Self {
            let lanes = [*p, *p.add(stride), *p.add(2 * stride), *p.add(3 * stride)];
            V128N(vld1q_f32(lanes.as_ptr()))
        }
    }

    /// # Safety
    /// Slice lengths per [`matmul_acc_impl`] (NEON is always present on
    /// aarch64).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn matmul_acc_neon(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        matmul_acc_impl::<V128N>(out, a, b, m, k, n)
    }

    /// # Safety
    /// Slice lengths per [`matvec_impl`].
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn matvec_neon(out: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
        matvec_impl::<V128N>(out, a, x, m, k)
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::ops::activation;
    use crate::Rng;

    type MapFn = unsafe fn(&mut [f32], &[f32]);
    /// A per-level kernel, named, with the scalar port it must equal.
    type LaneKernel = (&'static str, MapFn, fn(f32) -> f32);

    /// Every per-level element-wise kernel this host can run.
    fn lane_kernels() -> Vec<LaneKernel> {
        let mut kernels: Vec<LaneKernel> = vec![
            ("tanh/sse2", x86::tanh_sse2, activation::tanh_f32),
            ("gelu/sse2", x86::gelu_sse2, activation::gelu_scalar),
        ];
        if std::arch::is_x86_feature_detected!("avx2") {
            kernels.push(("tanh/avx2", x86::tanh_avx2, activation::tanh_f32));
            kernels.push(("gelu/avx2", x86::gelu_avx2, activation::gelu_scalar));
            if std::arch::is_x86_feature_detected!("fma") {
                kernels.push(("exp/avx2", x86::exp_avx2, activation::exp_f32));
                kernels.push(("sigmoid/avx2", x86::sigmoid_avx2, activation::sigmoid_scalar));
                kernels.push(("silu/avx2", x86::silu_avx2, activation::silu_scalar));
            }
        }
        kernels
    }

    fn same_value(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Runs `kernel` over `input` and checks every lane (and the scalar
    /// tail) against `scalar`; returns the first mismatching input bits.
    fn first_mismatch(kernel: MapFn, scalar: fn(f32) -> f32, input: &[f32]) -> Option<u32> {
        let mut out = vec![0.0f32; input.len()];
        // SAFETY: callers only pass kernels `lane_kernels` detected.
        unsafe { kernel(&mut out, input) };
        input.iter().zip(&out).find(|&(&x, &y)| !same_value(scalar(x), y)).map(|(x, _)| x.to_bits())
    }

    /// Every kernel equals its scalar port on each arm's boundary (both
    /// neighbours of every threshold bit pattern) at every lane position.
    #[test]
    fn transcendental_kernels_match_ports_at_branch_boundaries() {
        let thresholds: [u32; 16] = [
            0x0000_0000,
            0x0080_0000,
            0x2400_0000,
            0x3300_0000,
            0x3eb1_7218,
            0x3f85_1592,
            0x3f80_0000,
            0x41b0_0000,
            0x4195_b844,
            0x42b0_0000,
            0x42b1_7217,
            0xc2cf_f1b4,
            0xc2ce_8ecf,
            0x7f80_0000,
            0x7f7f_ffff,
            0x3e80_0000,
        ];
        let mut input = Vec::new();
        for t in thresholds {
            for d in 0..3u32 {
                for s in [0, 0x8000_0000] {
                    input.push(f32::from_bits((t.wrapping_add(d).wrapping_sub(1)) ^ s));
                }
            }
        }
        // Odd length: the scalar tail runs too; rotate so every value
        // visits every lane.
        input.push(1.5);
        for shift in 0..8 {
            input.rotate_left(shift);
            for (name, kernel, scalar) in lane_kernels() {
                assert_eq!(first_mismatch(kernel, scalar, &input), None, "{name}");
            }
        }
    }

    /// All 2³² inputs through every vector `tanh` / `exp` kernel against
    /// the scalar port (NaN ≡ NaN). About a minute on two cores in release:
    /// `cargo test --release -p tensor -- --ignored exhaustive`.
    #[test]
    #[ignore]
    fn exhaustive_transcendental_kernels_match_ports() {
        let kernels: Vec<_> = lane_kernels()
            .into_iter()
            .filter(|(name, ..)| name.starts_with("tanh") || name.starts_with("exp"))
            .collect();
        const CHUNK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get()).min(4) as u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let kernels = &kernels;
                s.spawn(move || {
                    let mut input = vec![0.0f32; CHUNK as usize];
                    let mut base = t * CHUNK;
                    while base < 1 << 32 {
                        for (i, x) in input.iter_mut().enumerate() {
                            *x = f32::from_bits((base + i as u64) as u32);
                        }
                        for &(name, kernel, scalar) in kernels {
                            if let Some(bits) = first_mismatch(kernel, scalar, &input) {
                                panic!("{name} differs from its port at {bits:#010x}");
                            }
                        }
                        base += threads * CHUNK;
                    }
                });
            }
        });
    }

    /// The softmax kernel against the scalar loop on row counts around the
    /// eight-row block and column counts around the vector width, with
    /// `-inf`, signed zeros, NaN and equal large logits in the rows.
    #[test]
    fn softmax_kernel_matches_scalar_rows() {
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return;
        }
        let mut rng = Rng::seed_from(5);
        for rows in [1usize, 7, 8, 9, 16, 17] {
            for cols in [1usize, 7, 8, 9, 16, 33] {
                let mut x: Vec<f32> = (0..rows * cols).map(|_| rng.next_normal() * 4.0).collect();
                for (i, v) in x.iter_mut().enumerate() {
                    match i % 23 {
                        3 => *v = f32::NEG_INFINITY,
                        5 => *v = -0.0,
                        7 => *v = 0.0,
                        11 => *v = 1000.0,
                        13 if cols > 2 => *v = f32::NAN,
                        _ => {}
                    }
                }
                let mut want = vec![0.0f32; rows * cols];
                activation::softmax_rows_into_with(
                    crate::KernelBackend::Scalar,
                    &x,
                    rows,
                    cols,
                    &mut want,
                );
                let mut got = vec![0.0f32; rows * cols];
                // SAFETY: AVX2 and FMA detected above.
                unsafe { x86::softmax_rows_avx2(&mut got, &x, rows, cols) };
                for (p, q) in got.iter().zip(&want) {
                    assert!(same_value(*p, *q), "softmax {rows}x{cols}: {p} vs {q}");
                }
            }
        }
    }

    /// Scalar reference: `ikj` with zero-skip — the ground truth every
    /// backend and level must match bitwise.
    fn reference_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for kk in 0..k {
                let aik = a[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += aik * b[kk * n + j];
                }
            }
        }
    }

    fn reference_matvec(out: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
        for (i, o) in out.iter_mut().enumerate().take(m) {
            let mut acc = 0.0f32;
            for (kk, &xv) in x.iter().enumerate() {
                acc += a[i * k + kk] * xv;
            }
            *o = acc;
        }
    }

    fn rand_f32(rng: &mut Rng, zero_frac: f64) -> f32 {
        if zero_frac > 0.0 && rng.next_f64() < zero_frac {
            return 0.0;
        }
        let v = (rng.next_f64() * 2.0 - 1.0) as f32;
        // Dense cases must contain no *exact* zero, or the register-tiled
        // predicate flips to the streaming path.
        if v == 0.0 {
            0.5
        } else {
            v
        }
    }

    /// Every per-level kernel (called directly, independent of the mutable
    /// active-level global) matches the scalar reference bitwise on shapes
    /// around every lane and dispatch boundary.
    #[test]
    fn level_kernels_match_scalar_bitwise() {
        type AccFn = unsafe fn(&mut [f32], &[f32], &[f32], usize, usize, usize);
        type MvFn = unsafe fn(&mut [f32], &[f32], &[f32], usize, usize);
        let mut kernels: Vec<(&str, AccFn, MvFn)> =
            vec![("sse2", x86::matmul_acc_sse2, x86::matvec_sse2)];
        if std::arch::is_x86_feature_detected!("avx2") {
            kernels.push(("avx2", x86::matmul_acc_avx2, x86::matvec_avx2));
        }
        let mut rng = Rng::seed_from(41);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 8, 16),   // exactly one two-row dense register tile (AVX2)
            (3, 9, 17),   // k % 8 ≠ 0, two-row + one-row remainders, column tails
            (7, 5, 23),   // four-, two- and one-row tiles; vector and scalar column tails
            (5, 13, 7),   // n below one AVX2 vector
            (2, 300, 3),  // n below one SSE2 vector
            (4, 7, 32),   // k below the eight-step streaming head
            (9, 300, 60), // k·n above the blocked-dispatch threshold
        ] {
            for zero_frac in [0.0, 0.35] {
                let a: Vec<f32> = (0..m * k).map(|_| rand_f32(&mut rng, zero_frac)).collect();
                let b: Vec<f32> = (0..k * n).map(|_| rand_f32(&mut rng, 0.0)).collect();
                let x: Vec<f32> = (0..k).map(|_| rand_f32(&mut rng, 0.0)).collect();
                // Non-zero initial values: the conv path accumulates onto
                // a pre-broadcast bias.
                let seed: Vec<f32> = (0..m * n).map(|_| rand_f32(&mut rng, 0.0)).collect();
                let mut want = seed.clone();
                reference_acc(&mut want, &a, &b, m, k, n);
                let mut want_v = vec![0.0f32; m];
                reference_matvec(&mut want_v, &a, &x, m, k);
                for (name, acc_fn, mv_fn) in &kernels {
                    let mut got = seed.clone();
                    // SAFETY: SSE2 is x86-64 baseline; AVX2 entries are
                    // only pushed after runtime detection.
                    unsafe { acc_fn(&mut got, &a, &b, m, k, n) };
                    for (p, q) in got.iter().zip(&want) {
                        assert_eq!(
                            p.to_bits(),
                            q.to_bits(),
                            "{name} matmul_acc diverged at {m}x{k}x{n} z={zero_frac}"
                        );
                    }
                    let mut got_v = vec![0.0f32; m];
                    // SAFETY: as above.
                    unsafe { mv_fn(&mut got_v, &a, &x, m, k) };
                    for (p, q) in got_v.iter().zip(&want_v) {
                        assert_eq!(
                            p.to_bits(),
                            q.to_bits(),
                            "{name} matvec diverged at {m}x{k} z={zero_frac}"
                        );
                    }
                }
            }
        }
    }
}
