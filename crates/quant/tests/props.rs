//! Property tests for the quantization stack: exactness of difference
//! processing in the integer domain, quantization error bounds, and
//! histogram invariants.

use proptest::prelude::*;
use quant::kernels::{delta_matmul_update, im2col_i8_into, int_matmul, widen};
use quant::{
    encode, quantize_into, BitWidthClass, BitWidthHistogram, BopsModel, Emit, Encoded, QTensor,
};
use tensor::backend::{available_simd_levels, hw_simd_level, set_simd_level, SimdLevel};
use tensor::ops::Conv2dParams;
use tensor::{KernelBackend, Tensor};

/// Backend × SIMD-level configurations: the portable backends, then the
/// `simd` backend once per hardware-supported level (the sweep the
/// `DITTO_SIMD_LEVEL` override makes CI-testable). Level `none` is
/// included deliberately — it exercises the graceful fallback from the
/// `simd` dispatchers to the tiled loops.
fn backend_level_matrix() -> Vec<(KernelBackend, Option<SimdLevel>)> {
    let mut configs = vec![(KernelBackend::Scalar, None), (KernelBackend::Tiled, None)];
    for level in available_simd_levels() {
        configs.push((KernelBackend::Simd, Some(level)));
    }
    configs
}

/// The Encoding Unit pass one value at a time: [`BitWidthClass::of`] is
/// the specification of every count [`encode`] returns, and the operand is
/// the plain widened level or difference.
fn encode_oracle(
    cur: &[i8],
    prev: Option<&[i8]>,
    rows: usize,
    cols: usize,
    emit: Emit,
) -> (Encoded, Vec<i16>) {
    let mut enc = Encoded::default();
    for &v in cur {
        enc.act.push(BitWidthClass::of_i8(v));
    }
    for r in 0..rows {
        for c in 0..cols {
            let v = cur[r * cols + c] as i16;
            let above = if r == 0 { 0 } else { cur[(r - 1) * cols + c] as i16 };
            enc.spatial.push(BitWidthClass::of(v - above));
        }
    }
    let deltas = prev.map(|p| cur.iter().zip(p).map(|(&c, &p)| c as i16 - p as i16));
    if let Some(deltas) = deltas.clone() {
        let mut h = BitWidthHistogram::new();
        deltas.for_each(|d| h.push(BitWidthClass::of(d)));
        enc.temporal = Some(h);
    }
    let operand = match (deltas, emit) {
        (Some(deltas), Emit::Delta) => deltas.collect(),
        _ => widen(cur),
    };
    (enc, operand)
}

fn assert_encode_matches_oracle(cur: &[i8], prev: Option<&[i8]>, rows: usize, cols: usize) {
    let mut operand = vec![7i16; 3]; // stale contents must not survive
    for emit in [Emit::Levels, Emit::Delta] {
        let got = encode(cur, prev, rows, cols, emit, &mut operand);
        let (want, want_operand) = encode_oracle(cur, prev, rows, cols, emit);
        assert_eq!(got, want, "{rows}x{cols} {emit:?} prev={}", prev.is_some());
        assert_eq!(operand, want_operand, "{rows}x{cols} {emit:?} prev={}", prev.is_some());
    }
}

fn levels(n: usize, rng: &mut tensor::Rng) -> Vec<i8> {
    (0..n).map(|_| rng.next_below(256) as u8 as i8).collect()
}

/// Every `(cur, prev)` pair of `i8` values — so every difference in
/// `−255..=255`, the `−254..=254` two quantized levels can reach included —
/// lands in the bucket the scalar classifier names, as one long row and as
/// a 256-row matrix whose row differences sweep the same range.
#[test]
fn encode_classifies_every_delta_like_the_scalar_oracle() {
    let cur: Vec<i8> = (0..=255u8).flat_map(|_| (0..=255u8).map(|c| c as i8)).collect();
    let prev: Vec<i8> = (0..=255u8).flat_map(|p| (0..=255u8).map(move |_| p as i8)).collect();
    assert_encode_matches_oracle(&cur, Some(&prev), 1, cur.len());
    assert_encode_matches_oracle(&prev, Some(&cur), 256, 256);
}

/// Lengths around every lane width the pass may be vectorised at and around
/// the block a lane sum may count, as one row, one column and two rows.
#[test]
fn encode_matches_oracle_at_lane_and_block_boundaries() {
    let mut rng = tensor::Rng::seed_from(91);
    for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, (1 << 15) - 1, 1 << 15, (1 << 15) + 1] {
        let cur = levels(n, &mut rng);
        // Mostly-small differences, as between adjacent time steps.
        let prev: Vec<i8> = cur
            .iter()
            .map(|&c| {
                if rng.next_f64() < 0.6 {
                    c
                } else {
                    c.wrapping_add(rng.next_below(17) as i8 - 8)
                }
            })
            .collect();
        for prev in [None, Some(prev.as_slice())] {
            assert_encode_matches_oracle(&cur, prev, 1, n);
            assert_encode_matches_oracle(&cur, prev, n, 1);
            if n % 2 == 0 {
                assert_encode_matches_oracle(&cur, prev, 2, n / 2);
            }
        }
    }
    // Rows longer than a block, so both the first row and the rows under
    // it are counted in more than one block.
    let (rows, cols) = (3, (1 << 15) + 5);
    let cur = levels(rows * cols, &mut rng);
    let prev = levels(rows * cols, &mut rng);
    assert_encode_matches_oracle(&cur, Some(&prev), rows, cols);
}

/// `len` values, `zeros` of them zero and a quarter of the rest an `i16`
/// extreme: `(−32768)² + (−32768)²` is the one pair sum `vpmaddwd` wraps.
fn extreme_i16(len: usize, zeros: f64, rng: &mut tensor::Rng) -> Vec<i16> {
    (0..len)
        .map(|_| match rng.next_below(8) {
            _ if rng.next_f64() < zeros => 0,
            0 => i16::MIN,
            1 => i16::MAX,
            _ => rng.next_below(511) as i16 - 255,
        })
        .collect()
}

/// The packed GEMM core against the scalar reference, bit for bit, on every
/// backend at every SIMD level this host has: `m` across the 4-row block,
/// `k` odd, even and long, `n` across the 4- and 8-lane column groups and
/// their ragged tails, `a` from dense to all-zero (the skipped block), with
/// `i16` extremes on both operand widths and accumulation onto a non-zero
/// `out` (the delta update and the attention decomposition).
#[test]
fn packed_core_matches_reference_at_lane_boundaries() {
    let mut rng = tensor::Rng::seed_from(59);
    for m in 1..=9usize {
        for k in [1usize, 2, 3, 7, 8, 9, 259] {
            for n in [1usize, 7, 8, 9, 15, 16, 17, 24, 33] {
                for zeros in [0.0, 0.5, 0.95, 1.0] {
                    let a = extreme_i16(m * k, zeros, &mut rng);
                    let dq = extreme_i16(m * k, zeros, &mut rng);
                    let k_t = extreme_i16(k * n, 0.0, &mut rng);
                    let dk_t = extreme_i16(k * n, zeros, &mut rng);
                    let w = levels(k * n, &mut rng);
                    let prev: Vec<i32> = (0..m * n).map(|_| rng.next_u64() as i32).collect();
                    let want_mm = quant::kernels::reference::int_matmul(&a, &w, m, k, n);
                    let want_delta =
                        quant::kernels::reference::delta_matmul_update(&prev, &a, &w, m, k, n);
                    let want_attn = quant::kernels::attention_delta_scores_with(
                        KernelBackend::Scalar,
                        &prev,
                        &a,
                        &dq,
                        &k_t,
                        &dk_t,
                        m,
                        k,
                        n,
                    );
                    for (backend, level) in backend_level_matrix() {
                        if let Some(level) = level {
                            set_simd_level(level).unwrap();
                        }
                        let case = format!("{backend} at {level:?}, {m}x{k}x{n} z={zeros}");
                        assert_eq!(
                            quant::kernels::int_matmul_with(backend, &a, &w, m, k, n),
                            want_mm,
                            "int_matmul diverged on {case}"
                        );
                        assert_eq!(
                            quant::kernels::delta_matmul_update_with(
                                backend, &prev, &a, &w, m, k, n
                            ),
                            want_delta,
                            "delta_matmul_update diverged on {case}"
                        );
                        assert_eq!(
                            quant::kernels::attention_delta_scores_with(
                                backend, &prev, &a, &dq, &k_t, &dk_t, m, k, n,
                            ),
                            want_attn,
                            "attention_delta_scores diverged on {case}"
                        );
                    }
                }
            }
        }
    }
    set_simd_level(hw_simd_level()).unwrap();
}

/// The gather loop `im2col_i8_into` replaced: every tap bounds-checked on
/// its own.
fn im2col_gather(data: &[i8], c: usize, h: usize, w: usize, p: Conv2dParams) -> Vec<i8> {
    let (ho, wo, k) = (p.out_extent(h), p.out_extent(w), p.kernel);
    let cols = c * k * k;
    let mut out = vec![0i8; ho * wo * cols];
    for oy in 0..ho {
        for ox in 0..wo {
            for ci in 0..c {
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                        let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                        if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                            out[(oy * wo + ox) * cols + (ci * k + ky) * k + kx] =
                                data[(ci * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    out
}

/// `quantize_into` against the tensor-level quantizer on the inputs where a
/// rounding shortcut would show: exact ties, the largest value below one
/// half, saturation either side of `±127`, infinities, signed zeros, NaN.
#[test]
fn quantize_into_matches_quantize_with_scale_on_edge_values() {
    let mut vals = vec![
        0.0f32,
        -0.0,
        0.5,
        -0.5,
        0.499_999_97,
        -0.499_999_97,
        0.500_000_06,
        1.5,
        -1.5,
        2.5,
        -2.5,
        126.5,
        -126.5,
        126.499_99,
        127.0,
        127.49,
        127.5,
        -127.5,
        128.0,
        -128.0,
        1e9,
        -1e9,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
    ];
    // Every half-integer tie and both its neighbours across the range.
    for i in -260..=260 {
        let tie = i as f32 + 0.5;
        vals.extend([tie, f32::from_bits(tie.to_bits() + 1), f32::from_bits(tie.to_bits() - 1)]);
    }
    let x = Tensor::from_vec(vals.clone(), &[vals.len()]).unwrap();
    let mut got = vec![99i8; 2];
    for scale in [1.0f32, 0.5, 0.1, 3.0, 0.007_874_016, 1e-3, 1e3] {
        let scaled: Vec<f32> = vals.iter().map(|v| v * scale).collect();
        for (src, t) in
            [(&vals, &x), (&scaled, &Tensor::from_vec(scaled.clone(), &[vals.len()]).unwrap())]
        {
            quantize_into(src, scale, &mut got);
            assert_eq!(got, QTensor::quantize_with_scale(t, scale).data(), "scale {scale}");
        }
    }
}

fn i8_vec(n: usize) -> impl Strategy<Value = Vec<i8>> {
    proptest::collection::vec(any::<i8>().prop_map(|v| if v == -128 { -127 } else { v }), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dense integer execution and delta-update execution are bit-identical
    /// for arbitrary previous/current activations (the §IV-A equivalence).
    #[test]
    fn delta_processing_bit_exact(
        m in 1usize..4, k in 1usize..6, n in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = tensor::Rng::seed_from(seed);
        let prev: Vec<i8> = (0..m * k).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect();
        let curr: Vec<i8> = (0..m * k).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect();
        let w: Vec<i8> = (0..k * n).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect();
        let delta: Vec<i16> = curr.iter().zip(&prev).map(|(&c, &p)| c as i16 - p as i16).collect();
        let out_prev = int_matmul(&widen(&prev), &w, m, k, n);
        let dense = int_matmul(&widen(&curr), &w, m, k, n);
        let via = delta_matmul_update(&out_prev, &delta, &w, m, k, n);
        prop_assert_eq!(dense, via);
    }

    /// The tiled kernels are bit-identical to the scalar reference loops on
    /// arbitrary shapes and sparsity (larger shapes than the exactness test
    /// above, straddling the register-tile boundary).
    #[test]
    fn tiled_kernels_match_reference(
        m in 1usize..12, k in 1usize..24, n in 1usize..12,
        zero_pct in 0u32..100, seed in any::<u64>(),
    ) {
        let mut rng = tensor::Rng::seed_from(seed);
        let a: Vec<i16> = (0..m * k)
            .map(|_| {
                if rng.next_below(100) < zero_pct as usize { 0 }
                else { rng.next_below(511) as i16 - 255 }
            })
            .collect();
        let w: Vec<i8> = (0..k * n).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect();
        prop_assert_eq!(
            int_matmul(&a, &w, m, k, n),
            quant::kernels::reference::int_matmul(&a, &w, m, k, n)
        );
        let prev: Vec<i32> =
            (0..m * n).map(|_| rng.next_below(1 << 16) as i32 - (1 << 15)).collect();
        prop_assert_eq!(
            delta_matmul_update(&prev, &a, &w, m, k, n),
            quant::kernels::reference::delta_matmul_update(&prev, &a, &w, m, k, n)
        );
    }

    /// Every kernel × every available backend × every available SIMD
    /// level is bit-identical to the scalar reference loops — the
    /// cross-backend matrix behind the pluggable kernel-backend layer
    /// (`tensor::backend`). Covers the dense matmul, the fused delta
    /// update, and both attention kernels, from dense to delta-realistic
    /// sparsities, on random shapes straddling the 8-lane boundary
    /// (`n < 8`, odd `n`, odd `k` for the packed pairs).
    #[test]
    fn backend_matrix_matches_reference(
        m in 1usize..14, k in 1usize..40, n in 1usize..24,
        zero_pct in 0u32..100, seed in any::<u64>(),
    ) {
        let mut rng = tensor::Rng::seed_from(seed);
        let mut sparse_i16 = |len: usize| -> Vec<i16> {
            (0..len)
                .map(|_| {
                    if rng.next_below(100) < zero_pct as usize { 0 }
                    else { rng.next_below(511) as i16 - 255 }
                })
                .collect()
        };
        let a = sparse_i16(m * k);
        let dq = sparse_i16(m * k);
        let k_t = sparse_i16(k * n);
        let dk_t = sparse_i16(k * n);
        let w: Vec<i8> = (0..k * n).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect();
        let prev: Vec<i32> =
            (0..m * n).map(|_| rng.next_below(1 << 16) as i32 - (1 << 15)).collect();
        let want_mm = quant::kernels::reference::int_matmul(&a, &w, m, k, n);
        let want_delta = quant::kernels::reference::delta_matmul_update(&prev, &a, &w, m, k, n);
        let want_scores = quant::kernels::int_scores_with(KernelBackend::Scalar, &a, &k_t, m, k, n);
        let want_attn = quant::kernels::attention_delta_scores_with(
            KernelBackend::Scalar, &prev, &a, &dq, &k_t, &dk_t, m, k, n,
        );
        for (backend, level) in backend_level_matrix() {
            if let Some(level) = level {
                set_simd_level(level).unwrap();
            }
            prop_assert_eq!(
                &quant::kernels::int_matmul_with(backend, &a, &w, m, k, n),
                &want_mm, "int_matmul diverged on {} at {:?}", backend, level
            );
            prop_assert_eq!(
                &quant::kernels::delta_matmul_update_with(backend, &prev, &a, &w, m, k, n),
                &want_delta, "delta_matmul_update diverged on {} at {:?}", backend, level
            );
            prop_assert_eq!(
                &quant::kernels::int_scores_with(backend, &a, &k_t, m, k, n),
                &want_scores, "int_scores diverged on {} at {:?}", backend, level
            );
            prop_assert_eq!(
                &quant::kernels::attention_delta_scores_with(
                    backend, &prev, &a, &dq, &k_t, &dk_t, m, k, n,
                ),
                &want_attn, "attention_delta_scores diverged on {} at {:?}", backend, level
            );
        }
        set_simd_level(hw_simd_level()).unwrap();
    }

    /// Quantize→dequantize error is bounded by half a quantization step.
    #[test]
    fn quant_error_bounded(vals in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
        let n = vals.len();
        let x = Tensor::from_vec(vals, &[n]).unwrap();
        let q = QTensor::quantize_dynamic(&x);
        let y = q.dequantize();
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            prop_assert!((a - b).abs() <= q.scale() * 0.5 + 1e-5);
        }
    }

    /// The fused Encoding-Unit pass agrees with the scalar classifier on
    /// arbitrary operands, shapes and previous steps.
    #[test]
    fn encode_matches_scalar_oracle(
        rows in 0usize..9, cols in 0usize..40,
        with_prev in any::<bool>(), seed in any::<u64>(),
    ) {
        let mut rng = tensor::Rng::seed_from(seed);
        let cur = levels(rows * cols, &mut rng);
        let prev = levels(rows * cols, &mut rng);
        assert_encode_matches_oracle(&cur, with_prev.then_some(prev.as_slice()), rows, cols);
    }

    /// Span-copy im2col equals the per-tap gather loop, and lowering the
    /// quantized levels directly equals the old detour — dequantize the
    /// lowered matrix to `f32`, quantize it again on the same grid — on
    /// random conv shapes (1×1 and 3×3, stride 1/2, padding 0/1).
    #[test]
    fn im2col_levels_path_matches_gather_and_f32_round_trip(
        c in 1usize..5, h in 1usize..10, w in 1usize..10,
        three in any::<bool>(), stride in 1usize..3, padding in 0usize..2,
        scale in 1e-4f32..50.0, seed in any::<u64>(),
    ) {
        let kernel = if three { 3 } else { 1 };
        prop_assume!(h + 2 * padding >= kernel && w + 2 * padding >= kernel);
        let p = Conv2dParams { kernel, stride, padding };
        let mut rng = tensor::Rng::seed_from(seed);
        let x = Tensor::randn(&[c, h, w], &mut rng).map(|v| v * scale * 60.0);
        let mut raw = Vec::new();
        quantize_into(x.as_slice(), scale, &mut raw);
        prop_assert_eq!(&raw, &QTensor::quantize_with_scale(&x, scale).data().to_vec());
        let mut lowered = vec![5i8; 3];
        let (m, k) = im2col_i8_into(&raw, c, h, w, p, &mut lowered);
        prop_assert_eq!((m, k), (p.out_extent(h) * p.out_extent(w), c * kernel * kernel));
        prop_assert_eq!(&lowered, &im2col_gather(&raw, c, h, w, p));
        let as_f32: Vec<f32> = lowered.iter().map(|&v| v as f32 * scale).collect();
        let again = QTensor::quantize_with_scale(&Tensor::from_vec(as_f32, &[m, k]).unwrap(), scale);
        prop_assert_eq!(&again.data().to_vec(), &lowered);
    }

    /// `quantize_into` is `QTensor::quantize_with_scale` on arbitrary bit
    /// patterns and scales.
    #[test]
    fn quantize_into_matches_quantize_with_scale(
        bits in proptest::collection::vec(any::<u32>(), 0..64),
        scale in 1e-6f32..1e4,
    ) {
        let vals: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let x = Tensor::from_vec(vals.clone(), &[vals.len()]).unwrap();
        let mut got = Vec::new();
        quantize_into(&vals, scale, &mut got);
        prop_assert_eq!(&got, &QTensor::quantize_with_scale(&x, scale).data().to_vec());
    }

    /// Quantization is scale-equivariant: quantizing c*x dynamically gives
    /// the same levels as quantizing x (for c > 0).
    #[test]
    fn dynamic_quant_scale_invariant(
        vals in proptest::collection::vec(-10.0f32..10.0, 1..32),
        c in 0.5f32..20.0,
    ) {
        let n = vals.len();
        let x = Tensor::from_vec(vals.clone(), &[n]).unwrap();
        let xs = Tensor::from_vec(vals.iter().map(|v| v * c).collect(), &[n]).unwrap();
        let qa = QTensor::quantize_dynamic(&x);
        let qb = QTensor::quantize_dynamic(&xs);
        for (a, b) in qa.data().iter().zip(qb.data()) {
            prop_assert!((a - b).abs() <= 1, "levels {a} vs {b}");
        }
    }

    /// Histogram buckets partition the data: counts sum to the total and
    /// every value lands in exactly the bucket its magnitude implies.
    #[test]
    fn histogram_partitions(deltas in proptest::collection::vec(-254i16..=254, 0..256)) {
        let h = BitWidthHistogram::from_deltas(&deltas);
        prop_assert_eq!(h.total(), deltas.len() as u64);
        let zero = deltas.iter().filter(|&&d| d == 0).count() as u64;
        let low4 = deltas.iter().filter(|&&d| d != 0 && (-8..=7).contains(&d)).count() as u64;
        prop_assert_eq!(h.zero, zero);
        prop_assert_eq!(h.low4, low4);
        let ratios = h.zero_ratio() + h.low4_ratio() + h.over4_ratio();
        if !deltas.is_empty() {
            prop_assert!((ratios - 1.0).abs() < 1e-9);
        }
    }

    /// BOPs of difference processing never exceed dense BOPs when no delta
    /// needs more than 8 bits.
    #[test]
    fn bops_never_worse_without_over8(deltas in proptest::collection::vec(-127i16..=127, 1..256)) {
        let h = BitWidthHistogram::from_deltas(&deltas);
        let m = BopsModel::a8w8();
        prop_assert!(m.relative_bops(&h) <= 1.0);
    }

    /// Spatial delta rows reconstruct the original tensor by prefix sums.
    #[test]
    fn spatial_delta_reconstructs(rows in 1usize..6, cols in 1usize..6, data in i8_vec(36)) {
        let need = rows * cols;
        prop_assume!(need <= data.len());
        let q = QTensor::from_parts(data[..need].to_vec(), &[rows, cols], 1.0);
        let (base, deltas) = q.spatial_delta_rows();
        let mut cur: Vec<i16> = base.iter().map(|&v| v as i16).collect();
        prop_assert_eq!(&cur[..], &q.data()[..cols].iter().map(|&v| v as i16).collect::<Vec<_>>()[..]);
        for r in 1..rows {
            for c in 0..cols {
                cur[c] += deltas[(r - 1) * cols + c];
                prop_assert_eq!(cur[c], q.data()[r * cols + c] as i16);
            }
        }
    }

    /// Lane cost is monotone in bit-width class.
    #[test]
    fn lane_cost_monotone(v in -254i16..=254) {
        let c = BitWidthClass::of(v);
        let cost = c.lane_cost();
        prop_assert!(cost <= 4);
        if v == 0 { prop_assert_eq!(cost, 0); }
        if v != 0 { prop_assert!(cost >= 1); }
    }
}
