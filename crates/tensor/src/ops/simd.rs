//! Explicit-SIMD `f32` kernels — the `Simd`-backend implementation of
//! [`super::matmul::matmul_acc_with`] (and so of every linear layer,
//! attention product and lowered convolution) and of the activations.
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
//! rounding would change bits. Every product is computed, a zero `a`
//! included, as the reference loop computes it. That makes each kernel
//! equal to the scalar reference *by construction*; the
//! cross-backend/cross-level proptest matrices then verify the
//! construction.
//!
//! # The matmul core
//!
//! One generic implementation ([`generic`]) is written against a minimal
//! vector abstraction (`VecF32`: load / store / splat / mul-then-add) and
//! instantiated per instruction set: AVX2 (8 lanes), SSE2 (4 lanes), and
//! NEON (4 lanes) — the rungs of the [`crate::backend::SimdLevel`] ladder.
//!
//! * **The tile.** A 6-row × 2-vector output tile (AVX2: 6 × 16 columns)
//!   holds twelve accumulators across a `k` block — with two `b` vectors
//!   and one broadcast of `a`, 15 of the 16 vector registers of AVX2 and
//!   SSE2 — so `out` is read and written once per block. 4-, 2- and 1-row
//!   tiles take the `m % 6` rows, a 1-vector tile an odd column group, and
//!   a ragged last column group runs on stack copies of its columns, so
//!   no shape falls to a scalar loop. The tile runs at one rate whatever
//!   the share of zeros in `a`.
//! * **`b` as (pointer, row stride).** Linear layers and attention pass
//!   `b` row-major; the conv lowering writes it in 16-column strips
//!   ([`super::matmul::Rhs`]), so a tile reads consecutive 64-byte rows.
//!   A `k` block (256 indices) of `b` stays in L2 while every row block
//!   passes over it.
//!
//! Every entry point takes the level as a value — the one in the
//! `KernelBackend::Simd` the caller was handed — so `simd:sse2` on an AVX2
//! host runs the real SSE2 kernels. A level that cannot run on this host
//! is refused before any intrinsic executes.
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

use crate::backend::SimdLevel;
use crate::ops::matmul::Rhs;

/// The element-wise functions [`activation`] has vector kernels for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Activation {
    Tanh,
    Gelu,
    Exp,
    Sigmoid,
    Silu,
}

/// `level`, checked to run on this host: every kernel below enables its
/// target feature on that premise, and a backend value can name any level.
pub(crate) fn runnable(level: SimdLevel) -> SimdLevel {
    assert!(level.is_hw_supported(), "SIMD level {level} cannot run on this host");
    level
}

/// Whether the `f64`-FMA `exp` kernels can run at `level`: AVX2, and FMA
/// present.
#[cfg(target_arch = "x86_64")]
fn exp_kernels_available(level: SimdLevel) -> bool {
    level == SimdLevel::Avx2 && std::arch::is_x86_feature_detected!("fma")
}

/// Explicit-SIMD element-wise `out = f(x)` at `level`. Returns `false`
/// (leaving `out` untouched) when the level has no kernel for `f`; the
/// caller then runs the scalar port.
pub(crate) fn activation(level: SimdLevel, f: Activation, out: &mut [f32], x: &[f32]) -> bool {
    let level = runnable(level);
    #[cfg(target_arch = "x86_64")]
    {
        type Kernel = unsafe fn(&mut [f32], &[f32]);
        let kernel: Option<Kernel> = match (level, f) {
            (SimdLevel::Avx2, Activation::Tanh) => Some(x86::tanh_avx2),
            (SimdLevel::Avx2, Activation::Gelu) => Some(x86::gelu_avx2),
            (SimdLevel::Sse2, Activation::Tanh) => Some(x86::tanh_sse2),
            (SimdLevel::Sse2, Activation::Gelu) => Some(x86::gelu_sse2),
            (_, Activation::Exp) if exp_kernels_available(level) => Some(x86::exp_avx2),
            (_, Activation::Sigmoid) if exp_kernels_available(level) => Some(x86::sigmoid_avx2),
            (_, Activation::Silu) if exp_kernels_available(level) => Some(x86::silu_avx2),
            _ => None,
        };
        if let Some(kernel) = kernel {
            // SAFETY: `level` runs on this host (checked above), and the FMA
            // kernels are only picked after detecting FMA; each kernel
            // asserts its slice lengths.
            unsafe { kernel(out, x) };
            return true;
        }
    }
    let _ = (level, f, out, x);
    false
}

/// Explicit-SIMD row-wise softmax of `x [rows, cols]` into `out` at
/// `level`. Returns `false` when the level has no kernel (see
/// [`activation`]'s `exp`).
pub(crate) fn softmax_rows(
    level: SimdLevel,
    out: &mut [f32],
    x: &[f32],
    rows: usize,
    cols: usize,
) -> bool {
    let level = runnable(level);
    #[cfg(target_arch = "x86_64")]
    if exp_kernels_available(level) {
        // SAFETY: the level is AVX2 and runs here, and FMA was detected;
        // the kernel asserts the slice lengths against `rows · cols`.
        unsafe { x86::softmax_rows_avx2(out, x, rows, cols) };
        return true;
    }
    let _ = (level, out, x, rows, cols);
    false
}

/// Whether `level` has an f32 matmul core on this architecture.
pub(crate) fn has_core(level: SimdLevel) -> bool {
    match level {
        SimdLevel::Avx2 | SimdLevel::Sse2 => cfg!(target_arch = "x86_64"),
        SimdLevel::Neon => cfg!(target_arch = "aarch64"),
    }
}

/// The f32 core: `out [m,n] += a [m,k] × b [k,n]` at `level`, with `b` in
/// `rhs` layout (see the module docs).
///
/// # Panics
///
/// If a slice length disagrees with `m`, `k`, `n` and `rhs`, or if
/// `level` has no core here or cannot run on this host.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_acc(
    level: SimdLevel,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    rhs: Rhs,
    m: usize,
    k: usize,
    n: usize,
) {
    // Everything the core's pointer arithmetic relies on, checked in every
    // build profile: `matmul_acc_with` is a safe public entry.
    assert_eq!(out.len(), m * n, "matmul output length");
    assert_eq!(a.len(), m * k, "matmul lhs length");
    assert_eq!(b.len(), rhs.len(k, n), "matmul rhs length");
    assert!(has_core(level) && level.is_hw_supported(), "no f32 core at SIMD level {level}");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    match level {
        // SAFETY (all arms): the level runs on this host (asserted above),
        // which is the feature the `target_feature` wrapper enables, and
        // the slices have the lengths asserted above.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::matmul_acc_avx2(out, a, b, rhs, m, k, n) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::matmul_acc_sse2(out, a, b, rhs, m, k, n) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::matmul_acc_neon(out, a, b, rhs, m, k, n) },
        _ => unreachable!("has_core admitted {level}"),
    }
}

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub(crate) mod generic {
    #[cfg(target_arch = "x86_64")]
    use crate::ops::activation;
    use crate::ops::matmul::Rhs;

    /// The minimal vector contract the generic kernels are written
    /// against. All operations are lane-wise; `muladd` must lower to a
    /// separate correctly rounded multiply and add (never a fused
    /// multiply-add), because one rounding vs two changes bits.
    pub(crate) trait VecF32: Copy {
        /// Lane count (vector width in `f32`s); divides 64.
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
    }

    /// `k` indices per block of the core: a block of `b` rows stays in L2
    /// while every row block passes over it.
    const KB: usize = 256;

    /// The widest `LANES` of any instantiation (AVX2), sizing stack tiles.
    const MAX_LANES: usize = 8;

    /// Rows of the tallest tile.
    const MAX_ROWS: usize = 6;

    /// `R` rows of `a` over one `k` block: where they start, their row
    /// stride and the block length.
    struct Panel {
        a: *const f32,
        lda: usize,
        kl: usize,
    }

    /// Rows `kc..` of the core's `b`, a `[k, n]` operand in `rhs` layout.
    #[derive(Clone, Copy)]
    struct Block {
        b: *const f32,
        rhs: Rhs,
        k: usize,
        n: usize,
        kc: usize,
    }

    impl Block {
        /// Column `j` of the block's first row, and the distance to the
        /// same column of the next row. In bounds of the operand for
        /// `j < n`.
        #[inline(always)]
        fn column(self, j: usize) -> (*const f32, usize) {
            let (at, _) = self.rhs.run(self.k, self.n, self.kc, j);
            (self.b.wrapping_add(at), self.rhs.row_stride(self.n))
        }
    }

    /// The f32 core: `out [m,n] += a [m,k] × b`, `b` a `[k, n]` operand in
    /// `rhs` layout. `k` blocks are the outer loop; within one, 6-row
    /// blocks of `a` (then a 4-, 2- and 1-row remainder) each sweep every
    /// column group.
    ///
    /// # Safety
    ///
    /// The instruction set of `V` must be enabled in the enclosing
    /// `#[target_feature]` context, `m`, `k`, `n` must be non-zero, and
    /// `out`, `a` and `b` must hold `m·n`, `m·k` and `rhs.len(k, n)`
    /// elements.
    #[inline(always)]
    pub(super) unsafe fn matmul_acc_impl<V: VecF32>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        rhs: Rhs,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let (op, ap) = (out.as_mut_ptr(), a.as_ptr());
        // SAFETY (every row block below): rows `i..i + R` of `out` and `a`
        // lie inside their `m·n` and `m·k` elements, columns `kc..kc + kl`
        // inside a row of `a`, and rows `kc..kc + kl` inside `b`.
        for kc in (0..k).step_by(KB) {
            let kl = KB.min(k - kc);
            let block = Block { b: b.as_ptr(), rhs, k, n, kc };
            let mut i = 0;
            while i + 6 <= m {
                row_block::<V, 6>(op.add(i * n), ap.add(i * k + kc), k, kl, block);
                i += 6;
            }
            if m - i >= 4 {
                row_block::<V, 4>(op.add(i * n), ap.add(i * k + kc), k, kl, block);
                i += 4;
            }
            if m - i >= 2 {
                row_block::<V, 2>(op.add(i * n), ap.add(i * k + kc), k, kl, block);
                i += 2;
            }
            if m - i == 1 {
                row_block::<V, 1>(op.add(i * n), ap.add(i * k + kc), k, kl, block);
            }
        }
    }

    /// `R` rows of one `k` block: pairs of column groups through the
    /// `R × 2` tile, an odd group through `R × 1`, and a ragged last group
    /// through `R × 1` on a stack copy of its `out` columns — reading `b`
    /// in place where strip padding covers the missing columns, from a
    /// stack copy of its columns where `b` is row-major (the columns past
    /// `n` are the next row's there, and past the end of `b` on the last).
    ///
    /// # Safety
    ///
    /// `out` must hold `R` rows of `block.n` `f32`s `block.n` apart, `a`
    /// `R` rows of `kl` `f32`s `lda` apart, and `block` must cover `kl`
    /// rows of its operand.
    #[inline(always)]
    unsafe fn row_block<V: VecF32, const R: usize>(
        out: *mut f32,
        a: *const f32,
        lda: usize,
        kl: usize,
        block: Block,
    ) {
        let panel = Panel { a, lda, kl };
        let (w, n) = (V::LANES, block.n);
        let mut j = 0;
        while j + 2 * w <= n {
            tile::<V, R, 2>(out.add(j), n, &panel, block.column(j));
            j += 2 * w;
        }
        if j + w <= n {
            tile::<V, R, 1>(out.add(j), n, &panel, block.column(j));
            j += w;
        }
        let ragged = n - j;
        if ragged == 0 {
            return;
        }
        // SAFETY: columns `j..n` of the `R` rows are in `out`, and `stage`
        // holds `R` rows of `LANES > ragged` values.
        let mut stage = [0.0f32; MAX_ROWS * MAX_LANES];
        for r in 0..R {
            std::ptr::copy_nonoverlapping(
                out.add(r * n + j),
                stage.as_mut_ptr().add(r * w),
                ragged,
            );
        }
        let mut b_stage: [f32; KB * MAX_LANES];
        let b = match block.rhs {
            Rhs::Strips => block.column(j),
            Rhs::RowMajor => {
                let (b, ldb) = block.column(j);
                b_stage = [0.0; KB * MAX_LANES];
                // SAFETY: columns `j..n` of the block's `kl` rows are in
                // `b`, and `b_stage` holds `kl <= KB` rows of `LANES`.
                for t in 0..kl {
                    let to = b_stage.as_mut_ptr().add(t * w);
                    std::ptr::copy_nonoverlapping(b.add(t * ldb), to, ragged);
                }
                (b_stage.as_ptr(), w)
            }
        };
        tile::<V, R, 1>(stage.as_mut_ptr(), w, &panel, b);
        for r in 0..R {
            std::ptr::copy_nonoverlapping(stage.as_ptr().add(r * w), out.add(r * n + j), ragged);
        }
    }

    /// The output-stationary micro-kernel: an `R`-row × `C`-vector tile of
    /// `out` (row stride `ldo`) stays in `R · C` accumulators while the
    /// panel's `k` block streams through. Per output element the products
    /// arrive in ascending `k`: the reference sequence.
    ///
    /// # Safety
    ///
    /// `out` must be valid for `R` rows of `C · LANES` `f32`s `ldo` apart,
    /// and `b.0` for `panel.kl` rows of `C · LANES` `f32`s `b.1` apart.
    #[inline(always)]
    unsafe fn tile<V: VecF32, const R: usize, const C: usize>(
        out: *mut f32,
        ldo: usize,
        panel: &Panel,
        (b, ldb): (*const f32, usize),
    ) {
        let mut acc = [[V::splat(0.0); C]; R];
        // SAFETY: the caller's contract covers these `R × C` vectors of
        // `out`, row `t < panel.kl` of the tile's `b` and index `t` of each
        // `a` row.
        for (r, row) in acc.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = V::load(out.add(r * ldo + c * V::LANES));
            }
        }
        for t in 0..panel.kl {
            // acc[r][c] += a[r][t] · b[t][c]
            let bt = b.add(t * ldb);
            let mut bv = [V::load(bt); C];
            for (c, v) in bv.iter_mut().enumerate().skip(1) {
                *v = V::load(bt.add(c * V::LANES));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = V::splat(*panel.a.add(r * panel.lda + t));
                for (v, &bc) in row.iter_mut().zip(&bv) {
                    *v = v.muladd(av, bc);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                v.store(out.add(r * ldo + c * V::LANES));
            }
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

    use super::generic::{map_impl, matmul_acc_impl, Gelu, LaneFn, Tanh, VecF32, VecMath};
    use crate::ops::activation;
    use crate::ops::matmul::Rhs;

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
    /// AVX2 must be available; arguments per [`matmul_acc_impl`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_acc_avx2(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        rhs: Rhs,
        m: usize,
        k: usize,
        n: usize,
    ) {
        matmul_acc_impl::<V256>(out, a, b, rhs, m, k, n)
    }

    /// # Safety
    /// SSE2 must be available; arguments per [`matmul_acc_impl`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn matmul_acc_sse2(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        rhs: Rhs,
        m: usize,
        k: usize,
        n: usize,
    ) {
        matmul_acc_impl::<V128>(out, a, b, rhs, m, k, n)
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
    ///   adds row `r`'s terms in column order, one lane per row. Leftover
    ///   rows sum one term at a time.
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

    use super::generic::{matmul_acc_impl, VecF32};
    use crate::ops::matmul::Rhs;

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
    }

    /// # Safety
    /// Arguments per [`matmul_acc_impl`] (NEON is always present on
    /// aarch64).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn matmul_acc_neon(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        rhs: Rhs,
        m: usize,
        k: usize,
        n: usize,
    ) {
        matmul_acc_impl::<V128N>(out, a, b, rhs, m, k, n)
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

    /// A normal draw that is never an exact zero.
    fn nonzero(rng: &mut Rng) -> f32 {
        let v = rng.next_normal();
        if v == 0.0 {
            0.5
        } else {
            v
        }
    }

    /// `b [k, n]` rewritten in the conv lowering's strip order.
    fn to_strips(b: &[f32], k: usize, n: usize) -> Vec<f32> {
        let mut strips = vec![0.0f32; Rhs::Strips.len(k, n)];
        for kk in 0..k {
            for j in 0..n {
                strips[Rhs::Strips.run(k, n, kk, j).0] = b[kk * n + j];
            }
        }
        strips
    }

    /// The zero patterns of `a [m, k]` the core is checked under, each with
    /// the `k` indices whose `b` rows get poisoned with `±∞` / NaN (a zero
    /// `a` times those is NaN): no zero; one zero at the first and at the
    /// last `k`; one zero in each row of the first 6-row block; 30 % zeros;
    /// all zeros. Zeros alternate between `+0.0` and `-0.0`.
    fn zero_patterns(rng: &mut Rng, m: usize, k: usize) -> Vec<(String, Vec<f32>, Vec<usize>)> {
        let dense: Vec<f32> = (0..m * k).map(|_| nonzero(rng)).collect();
        let zero = |i: usize| if i.is_multiple_of(2) { 0.0 } else { -0.0 };
        let single = |name: String, i: usize, r: usize, kk: usize| {
            let mut a = dense.clone();
            a[r * k + kk] = zero(i);
            (name, a, vec![kk])
        };
        let mut patterns = vec![
            ("none".to_string(), dense.clone(), vec![]),
            single("first k".into(), 1, 0, 0),
            single("last k".into(), 2, m - 1, k - 1),
        ];
        for r in 0..m.min(6) {
            patterns.push(single(format!("row {r}"), r, r, k / 2));
        }
        let sparse =
            dense.iter().enumerate().map(
                |(i, &v)| {
                    if rng.next_below(100) < 30 {
                        zero(i)
                    } else {
                        v
                    }
                },
            );
        patterns.push(("30 %".into(), sparse.collect(), vec![]));
        patterns.push(("all".into(), (0..m * k).map(zero).collect(), vec![0, k - 1]));
        patterns
    }

    /// A level without a core here (NEON on x86-64) is refused before any
    /// kernel runs.
    #[test]
    #[should_panic(expected = "no f32 core")]
    fn core_refuses_a_level_without_kernels() {
        let mut out = [0.0f32; 1];
        matmul_acc(SimdLevel::Neon, &mut out, &[1.0], &[1.0], Rhs::RowMajor, 1, 1, 1);
    }

    /// The core at every level this host runs against the crate's
    /// reference loop. The matrix crosses every tile and remainder: `m`
    /// across the 6-row block and its 4/2/1 remainders, `k` across the
    /// vector widths and past a 256-index `k` block, `n` across the 4- and
    /// 8-lane groups and the 16-column strip. Each shape runs under every
    /// [`zero_patterns`] case, with `±∞` and NaN in the `b` rows next to a
    /// zero `a`, onto a seeded `out` holding `-0.0`s, with `b` row-major
    /// and in strips.
    #[test]
    fn level_kernels_match_scalar_bitwise() {
        let levels: Vec<SimdLevel> =
            SimdLevel::ALL.into_iter().filter(|&l| l.is_hw_supported() && has_core(l)).collect();
        let mut rng = Rng::seed_from(41);
        let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for m in 1..=13usize {
            for k in [1usize, 2, 7, 8, 9, 259] {
                for n in [1usize, 7, 8, 9, 15, 16, 17, 24, 33] {
                    for (pattern, a, poisoned) in zero_patterns(&mut rng, m, k) {
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
                        crate::ops::matmul::matmul_acc_reference(&mut want, &a, &b, m, k, n);
                        let strips = to_strips(&b, k, n);
                        for &level in &levels {
                            for (rhs, b) in [(Rhs::RowMajor, &b), (Rhs::Strips, &strips)] {
                                let mut got = seed.clone();
                                matmul_acc(level, &mut got, &a, b, rhs, m, k, n);
                                if let Some(i) = (0..m * n).find(|&i| !same_value(got[i], want[i]))
                                {
                                    panic!(
                                        "{level} {rhs:?} core diverged at {m}x{k}x{n}, a zeros \
                                         {pattern}, out[{i}]: {} vs {}",
                                        got[i], want[i]
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
