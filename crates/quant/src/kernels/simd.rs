//! The explicit-SIMD integer GEMM core (`std::arch`: x86 AVX2 and SSE2,
//! aarch64 NEON) — the [`tensor::backend::KernelBackend::Simd`]
//! implementation of the paper's hot path, and the only accumulation path
//! every SIMD level has.
//!
//! # What is packed, and when
//!
//! The right-hand operand `b [k, n]` is rewritten once into `vpmaddwd`
//! order ([`PackedRhs`]): `[8-column strip][k-pair][16 × i16]`, where the
//! sixteen values of one entry are the strip's eight `(b[2p][c],
//! b[2p+1][c])` pairs, `i8` levels widened, an odd `k` padded with a zero
//! row and a ragged last strip with zero columns. One vector load then
//! feeds one multiply-add of eight output columns against a broadcast
//! `(a[i][2p], a[i][2p+1])` pair, which is a plain 32-bit read of the
//! activation row. The layout is the same at every SIMD level, so one pack
//! serves every level. Layer weights are packed at the layer's first
//! call and kept; attention's activation-as-weight operands are repacked
//! per call into a buffer the caller keeps (`1/m` of the call's work).
//!
//! # The tile
//!
//! [`gemm`] is written once against a small lane trait ([`Lanes`]: load /
//! store / splat-pair / madd-add) and instantiated per instruction set. A
//! 4-row × 2-vector output tile (AVX2: 4 × 16 columns) holds eight
//! accumulators across the whole `k` extent — two packed loads and four
//! pair broadcasts per eight multiply-adds — so `out` is read and written
//! once per call. A 4 × 1-vector tile takes an odd column group, the same
//! two tiles one row high take the `m % 4` rows, and a ragged last column
//! group is staged through a stack tile, so no shape falls to a scalar
//! loop.
//!
//! # Sparsity
//!
//! There is no per-element zero scan: on a CPU the scan costs more than
//! the multiply-adds it saves at every zero share below ≈ 95 % (the
//! `int_matmul` rows of `BENCH_kernels.json` are flat from 0 to 95 %
//! zeros). Sparsity is used at block granularity only: a 4-row block of
//! `a` that is entirely zero — the cross-attention context deltas — is
//! skipped.
//!
//! # Bit-exactness
//!
//! Integer products are exact and `i32` addition wraps, so it associates
//! and commutes: any accumulation order reproduces the scalar reference,
//! and adding the zero products of skipped-over zeros changes nothing.
//! `vpmaddwd`'s internal pair sum wraps in `i32` like the scalar adds (it
//! can only overflow for `(−32768)² + (−32768)²`, which the lane-boundary
//! tests include). `vpmaddubsw` stays rejected: its `u8 × i8` pair sum
//! *saturates* in `i16`.

use tensor::backend::SimdLevel;

/// Output columns per packed strip (one AVX2 vector of `i32` lanes).
const STRIP: usize = 8;

/// `i16` values per packed `(strip, k-pair)` entry.
const ENTRY: usize = 2 * STRIP;

/// A `[k, n]` right-hand operand in the core's packed order (see the
/// module docs), filled lazily by the kernels that take it.
///
/// It is a cache the caller owns: a kernel packs its `b` operand when the
/// cache is empty (or holds other dimensions) and trusts it otherwise, so
/// keep one per constant operand — a layer's weights — and [`clear`] one
/// that is reused for an operand whose values change.
///
/// [`clear`]: PackedRhs::clear
#[derive(Debug, Default)]
pub struct PackedRhs {
    data: Vec<i16>,
    k: usize,
    n: usize,
}

impl PackedRhs {
    /// Forgets the packed operand; the allocation is kept.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Packs `b [k, n]` unless a `[k, n]` operand is already held.
    fn ensure<W: Copy + Into<i16>>(&mut self, b: &[W], k: usize, n: usize) {
        debug_assert_eq!(b.len(), k * n);
        if !self.data.is_empty() && (self.k, self.n) == (k, n) {
            return;
        }
        let pairs = k.div_ceil(2);
        (self.k, self.n) = (k, n);
        self.data.clear();
        self.data.resize(n.div_ceil(STRIP) * pairs * ENTRY, 0);
        for (p, rows) in b.chunks(2 * n).enumerate() {
            // The odd row of the last pair of an odd `k` stays zero.
            let (even, odd) = rows.split_at(n);
            for (s, cols) in even.chunks(STRIP).enumerate() {
                let entry = &mut self.data[(s * pairs + p) * ENTRY..][..ENTRY];
                for (c, &v) in cols.iter().enumerate() {
                    entry[2 * c] = v.into();
                }
                for (c, &v) in odd.iter().skip(s * STRIP).take(STRIP).enumerate() {
                    entry[2 * c + 1] = v.into();
                }
            }
        }
    }
}

/// `Simd`-backend accumulation `out [m,n] += a [m,k] × b [k,n]` through
/// `pack` at `level`.
///
/// # Panics
///
/// If `level` cannot run on this host.
#[allow(clippy::too_many_arguments)]
pub(super) fn accumulate<W: Copy + Into<i16> + Into<i32>>(
    level: SimdLevel,
    out: &mut [i32],
    a: &[i16],
    b: &[W],
    pack: &mut PackedRhs,
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(level.is_hw_supported(), "SIMD level {level} cannot run on this host");
    if m * k * n == 0 {
        return;
    }
    pack.ensure(b, k, n);
    accumulate_packed(level, out, a, pack, m);
}

/// Runs the core at `level` over an already packed operand.
fn accumulate_packed(level: SimdLevel, out: &mut [i32], a: &[i16], rhs: &PackedRhs, m: usize) {
    let (k, n) = (rhs.k, rhs.n);
    // Everything the core's pointer arithmetic relies on.
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(rhs.data.len(), n.div_ceil(STRIP) * k.div_ceil(2) * ENTRY);
    match level {
        // SAFETY (all arms): `accumulate` checked that the level runs on
        // this host, which proves its target feature; the slice lengths
        // are the ones asserted above.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdLevel::Avx2 => unsafe { x86::gemm_avx2(out, a, &rhs.data, m, k, n) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdLevel::Sse2 => unsafe { x86::gemm_sse2(out, a, &rhs.data, m, k, n) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::gemm_neon(out, a, &rhs.data, m, k, n) },
        _ => unreachable!("no integer kernels at SIMD level {level}"),
    }
}

/// The vector contract the core is written against: `LANES` adjacent
/// output columns as `i32` lanes, and the `LANES` `i16` pairs that feed
/// them.
#[cfg(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64"))]
trait Lanes: Copy {
    /// Output columns per vector; divides [`STRIP`].
    const LANES: usize;
    /// `LANES` `(even-row, odd-row)` pairs of the packed operand, or one
    /// activation pair in every lane.
    type Pairs: Copy;
    /// # Safety
    /// `p` must be readable for `LANES` consecutive `i32`s.
    unsafe fn load(p: *const i32) -> Self;
    /// # Safety
    /// `p` must be writable for `LANES` consecutive `i32`s.
    unsafe fn store(self, p: *mut i32);
    /// # Safety
    /// `p` must be readable for `2 · LANES` consecutive `i16`s.
    unsafe fn load_pairs(p: *const i16) -> Self::Pairs;
    /// The pair `(pair as i16, (pair >> 16) as i16)` in every lane.
    /// # Safety
    /// Only unsafe because the underlying intrinsics are.
    unsafe fn splat_pair(pair: i32) -> Self::Pairs;
    /// `self[c] + b[c].0 · a.0 + b[c].1 · a.1`, wrapping.
    /// # Safety
    /// Only unsafe because the underlying intrinsics are.
    unsafe fn madd_add(self, b: Self::Pairs, a: Self::Pairs) -> Self;
}

/// The whole product over a packed operand. Row blocks are the outer loop,
/// so a block of `a` is tested for all-zero once and stays in L1 while the
/// packed operand streams past it.
///
/// # Safety
///
/// The instantiating instruction set must be enabled in the enclosing
/// `#[target_feature]` context, and `out`, `a` and `packed` must have the
/// lengths [`accumulate_packed`] asserts.
#[cfg(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
unsafe fn gemm<V: Lanes>(out: &mut [i32], a: &[i16], packed: &[i16], m: usize, k: usize, n: usize) {
    let mut i = 0;
    while i + 4 <= m {
        row_block::<V, 4>(&mut out[i * n..(i + 4) * n], &a[i * k..(i + 4) * k], packed, k, n);
        i += 4;
    }
    while i < m {
        row_block::<V, 1>(&mut out[i * n..(i + 1) * n], &a[i * k..(i + 1) * k], packed, k, n);
        i += 1;
    }
}

/// `R` rows of the product: pairs of column groups through the `R × 2`
/// tile, an odd group through `R × 1`, a ragged last group through
/// `R × 1` on a stack copy of its columns.
#[cfg(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
unsafe fn row_block<V: Lanes, const R: usize>(
    out: &mut [i32],
    a: &[i16],
    packed: &[i16],
    k: usize,
    n: usize,
) {
    // Chunked so a dense block leaves at its first chunk and a zero one is
    // scanned a vector at a time.
    if a.chunks(32).all(|c| c.iter().fold(0, |acc, &v| acc | v) == 0) {
        return;
    }
    let w = V::LANES;
    let pairs = k.div_ceil(2);
    // Column group `g` covers columns `g·w ..`; its entries sit `ENTRY`
    // apart inside strip `g·w / STRIP`.
    let group =
        |g: usize| packed.as_ptr().add((g * w / STRIP) * pairs * ENTRY + (g * w % STRIP) * 2);
    let (op, ap) = (out.as_mut_ptr(), a.as_ptr());
    let full = n / w;
    let mut g = 0;
    while g + 2 <= full {
        tile::<V, R, 2>(op.add(g * w), n, ap, k, [group(g), group(g + 1)]);
        g += 2;
    }
    if g < full {
        tile::<V, R, 1>(op.add(g * w), n, ap, k, [group(g)]);
        g += 1;
    }
    let ragged = n - g * w;
    if ragged > 0 {
        let mut stage = [0i32; 4 * STRIP];
        for r in 0..R {
            stage[r * w..r * w + ragged].copy_from_slice(&out[r * n + g * w..(r + 1) * n]);
        }
        tile::<V, R, 1>(stage.as_mut_ptr(), w, ap, k, [group(g)]);
        for r in 0..R {
            out[r * n + g * w..(r + 1) * n].copy_from_slice(&stage[r * w..r * w + ragged]);
        }
    }
}

/// The output-stationary micro-kernel: an `R`-row × `C`-vector tile of
/// `out` (row stride `ldo`) stays in `R · C` accumulators while the whole
/// `k` extent streams through — per `k`-pair `C` packed loads, `R` pair
/// broadcasts and `R · C` multiply-adds.
///
/// # Safety
///
/// `out` must be valid for `R` rows of `C · LANES` `i32`s `ldo` apart, `a`
/// for `R` rows of `k` `i16`s, and every `b[c]` for `⌈k/2⌉` entries
/// [`ENTRY`] apart.
#[cfg(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
unsafe fn tile<V: Lanes, const R: usize, const C: usize>(
    out: *mut i32,
    ldo: usize,
    a: *const i16,
    k: usize,
    b: [*const i16; C],
) {
    let mut acc = [[V::load(out); C]; R];
    for r in 0..R {
        for c in 0..C {
            acc[r][c] = V::load(out.add(r * ldo + c * V::LANES));
        }
    }
    let mut pair = [0i32; R];
    for p in 0..k / 2 {
        for r in 0..R {
            // One unaligned 32-bit read is the `(a[2p], a[2p+1])` pair in
            // the low/high order the multiply-add expects (little-endian
            // targets).
            pair[r] = a.add(r * k + 2 * p).cast::<i32>().read_unaligned();
        }
        madd_step::<V, R, C>(&mut acc, &b, p, pair);
    }
    if k % 2 == 1 {
        for r in 0..R {
            // The last activation pairs with the packed zero row.
            pair[r] = *a.add(r * k + k - 1) as u16 as i32;
        }
        madd_step::<V, R, C>(&mut acc, &b, k / 2, pair);
    }
    for r in 0..R {
        for c in 0..C {
            acc[r][c].store(out.add(r * ldo + c * V::LANES));
        }
    }
}

/// One `k`-pair of [`tile`]: `acc[r][c] += b[c][p] · pair[r]`.
///
/// # Safety
///
/// Every `b[c]` must be readable at entry `p`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
unsafe fn madd_step<V: Lanes, const R: usize, const C: usize>(
    acc: &mut [[V; C]; R],
    b: &[*const i16; C],
    p: usize,
    pair: [i32; R],
) {
    let mut bv = [V::load_pairs(b[0].add(p * ENTRY)); C];
    for c in 1..C {
        bv[c] = V::load_pairs(b[c].add(p * ENTRY));
    }
    for r in 0..R {
        let av = V::splat_pair(pair[r]);
        for c in 0..C {
            acc[r][c] = acc[r][c].madd_add(bv[c], av);
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    use super::{gemm, Lanes};

    impl Lanes for __m256i {
        const LANES: usize = 8;
        type Pairs = __m256i;
        #[inline(always)]
        unsafe fn load(p: *const i32) -> Self {
            _mm256_loadu_si256(p.cast())
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut i32) {
            _mm256_storeu_si256(p.cast(), self)
        }
        #[inline(always)]
        unsafe fn load_pairs(p: *const i16) -> __m256i {
            _mm256_loadu_si256(p.cast())
        }
        #[inline(always)]
        unsafe fn splat_pair(pair: i32) -> __m256i {
            _mm256_set1_epi32(pair)
        }
        #[inline(always)]
        unsafe fn madd_add(self, b: __m256i, a: __m256i) -> Self {
            _mm256_add_epi32(self, _mm256_madd_epi16(b, a))
        }
    }

    impl Lanes for __m128i {
        const LANES: usize = 4;
        type Pairs = __m128i;
        #[inline(always)]
        unsafe fn load(p: *const i32) -> Self {
            _mm_loadu_si128(p.cast())
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut i32) {
            _mm_storeu_si128(p.cast(), self)
        }
        #[inline(always)]
        unsafe fn load_pairs(p: *const i16) -> __m128i {
            _mm_loadu_si128(p.cast())
        }
        #[inline(always)]
        unsafe fn splat_pair(pair: i32) -> __m128i {
            _mm_set1_epi32(pair)
        }
        #[inline(always)]
        unsafe fn madd_add(self, b: __m128i, a: __m128i) -> Self {
            _mm_add_epi32(self, _mm_madd_epi16(b, a))
        }
    }

    /// # Safety
    /// AVX2 must be available; slice lengths per [`gemm`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_avx2(
        out: &mut [i32],
        a: &[i16],
        packed: &[i16],
        m: usize,
        k: usize,
        n: usize,
    ) {
        gemm::<__m256i>(out, a, packed, m, k, n)
    }

    /// # Safety
    /// SSE2 must be available; slice lengths per [`gemm`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn gemm_sse2(
        out: &mut [i32],
        a: &[i16],
        packed: &[i16],
        m: usize,
        k: usize,
        n: usize,
    ) {
        gemm::<__m128i>(out, a, packed, m, k, n)
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    use super::{gemm, Lanes};

    impl Lanes for int32x4_t {
        const LANES: usize = 4;
        /// Even-row values in `.0`, odd-row values in `.1`: NEON has no
        /// `pmaddwd`, so the pairs are split by the load (`vld2`) and fed
        /// to two widening multiply-accumulates.
        type Pairs = int16x4x2_t;
        #[inline(always)]
        unsafe fn load(p: *const i32) -> Self {
            vld1q_s32(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut i32) {
            vst1q_s32(p, self)
        }
        #[inline(always)]
        unsafe fn load_pairs(p: *const i16) -> int16x4x2_t {
            vld2_s16(p)
        }
        #[inline(always)]
        unsafe fn splat_pair(pair: i32) -> int16x4x2_t {
            int16x4x2_t(vdup_n_s16(pair as i16), vdup_n_s16((pair >> 16) as i16))
        }
        #[inline(always)]
        unsafe fn madd_add(self, b: int16x4x2_t, a: int16x4x2_t) -> Self {
            vmlal_s16(vmlal_s16(self, b.0, a.0), b.1, a.1)
        }
    }

    /// # Safety
    /// Slice lengths per [`gemm`] (NEON is always present on aarch64).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn gemm_neon(
        out: &mut [i32],
        a: &[i16],
        packed: &[i16],
        m: usize,
        k: usize,
        n: usize,
    ) {
        gemm::<int32x4_t>(out, a, packed, m, k, n)
    }
}

#[cfg(all(test, any(target_arch = "x86", target_arch = "x86_64")))]
mod tests {
    use super::super::accumulate_scalar;
    use super::*;
    use tensor::Rng;

    /// `len` values, `zeros` of them zero, a quarter of the rest an `i16`
    /// extreme.
    fn operand(rng: &mut Rng, len: usize, zeros: f64) -> Vec<i16> {
        (0..len)
            .map(|_| match rng.next_below(8) {
                _ if rng.next_f64() < zeros => 0,
                0 => i16::MIN,
                1 => i16::MAX,
                _ => rng.next_below(511) as i16 - 255,
            })
            .collect()
    }

    /// The core at every hardware-supported level reproduces the scalar
    /// loop bit for bit on every tile and remainder: `m` across the 4-row
    /// block,
    /// odd and even `k` (and one long `k`), `n` across the 4- and 8-lane
    /// groups, from dense to all-zero `a`, with `i16` extremes whose pair
    /// sum wraps and onto a non-zero `out`.
    #[test]
    fn simd_levels_match_scalar_bitwise() {
        let mut rng = Rng::seed_from(31);
        let levels: Vec<SimdLevel> =
            SimdLevel::ALL.into_iter().filter(|l| l.is_hw_supported()).collect();
        for m in 1..=9usize {
            for k in [1usize, 2, 3, 7, 8, 9, 259] {
                for n in [1usize, 7, 8, 9, 15, 16, 17, 24, 33] {
                    for zero_share in [0.0, 0.5, 0.95, 1.0] {
                        let a = operand(&mut rng, m * k, zero_share);
                        let b16 = operand(&mut rng, k * n, 0.0);
                        let b8: Vec<i8> = b16.iter().map(|&v| v as i8).collect();
                        let init: Vec<i32> = (0..m * n).map(|_| rng.next_u64() as i32).collect();
                        let mut want8 = init.clone();
                        accumulate_scalar(&mut want8, &a, &b8, m, k, n);
                        let mut want16 = init.clone();
                        accumulate_scalar(&mut want16, &a, &b16, m, k, n);
                        let (mut pack8, mut pack16) = (PackedRhs::default(), PackedRhs::default());
                        pack8.ensure(&b8, k, n);
                        pack16.ensure(&b16, k, n);
                        for &level in &levels {
                            let case = format!("{level} at {m}x{k}x{n} z={zero_share}");
                            let mut got = init.clone();
                            accumulate_packed(level, &mut got, &a, &pack8, m);
                            assert_eq!(got, want8, "i8 diverged: {case}");
                            let mut got = init.clone();
                            accumulate_packed(level, &mut got, &a, &pack16, m);
                            assert_eq!(got, want16, "i16 diverged: {case}");
                        }
                    }
                }
            }
        }
    }
}
