//! 2-D convolution for NCHW tensors.
//!
//! Every convolution is one matmul: `out [c_out, pixels] = bias + weight
//! [c_out, c·k·k] × cols [c·k·k, pixels]`, where `cols` is the transposed
//! im2col matrix of the input, so a conv runs on the same kernel as every
//! linear layer — on a `Simd` backend, the f32 register-tile core of
//! [`super::simd`]. The weight stays in its native layout and the output
//! is written channel-major directly.
//!
//! * A pointwise conv (1×1, stride 1, no padding) needs no lowering: its
//!   `[c, h·w]` input *is* `cols`, and the matmul reads it in place.
//! * Any other conv is lowered into scratch first (a thread-local buffer
//!   on the tensor path, an arena span in compiled plans — see
//!   [`conv2d_scratch_len`]). When the core runs, the lowering writes
//!   `cols` in the core's 16-column strips; it writes every element
//!   anyway, so the packing costs nothing. The reference loop reads it
//!   row-major.
//!
//! Exactness: every output element is its bias, then one product per
//! `(c_in, ky, kx)` tap in ascending order, separately rounded — the order
//! of the sliding-window reference [`conv2d_direct`], which stays as the
//! test oracle. The two differ only in the padding taps: the matmul adds
//! `w · 0` for each, the reference skips them. On finite operands those
//! terms are signed zeros that leave any sum but a `-0.0` one unchanged,
//! so the two agree bit for bit unless a bias is `-0.0` (or a weight is
//! infinite or NaN); the property tests check it.

use std::cell::RefCell;

use crate::backend::{self, KernelBackend};
use crate::ops::matmul::{self, Rhs, STRIP};
use crate::{Result, Tensor, TensorError};

thread_local! {
    /// Lowering scratch of the tensor-level entry points (compiled plans
    /// bring an arena span instead): the tree executor runs thousands of
    /// convolutions per reverse process, and reusing one buffer saves an
    /// allocation each. Every call writes whatever it reads.
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Parameters of a 2-D convolution.
///
/// Only square kernels/strides/padding are needed by the Fig. 2 block
/// structures (1×1 and 3×3 convolutions, stride 1 or 2, "same" padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Kernel height and width.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
}

impl Conv2dParams {
    /// 3×3, stride 1, padding 1 — the workhorse ResNet-block convolution.
    pub fn same3x3() -> Self {
        Conv2dParams { kernel: 3, stride: 1, padding: 1 }
    }

    /// 1×1 pointwise convolution.
    pub fn pointwise() -> Self {
        Conv2dParams { kernel: 1, stride: 1, padding: 0 }
    }

    /// Output spatial extent for input extent `n`.
    pub fn out_extent(&self, n: usize) -> usize {
        (n + 2 * self.padding - self.kernel) / self.stride + 1
    }
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams::same3x3()
    }
}

/// Validates conv2d operand shapes, returning `(c_in, h, w, c_out)`.
fn check_conv2d_shapes(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<(usize, usize, usize, usize)> {
    input.shape().expect_rank(3)?;
    weight.shape().expect_rank(4)?;
    let (c_in, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let (c_out, wc_in, kh, kw) =
        (weight.dims()[0], weight.dims()[1], weight.dims()[2], weight.dims()[3]);
    if wc_in != c_in || kh != params.kernel || kw != params.kernel {
        return Err(TensorError::ShapeMismatch {
            left: input.dims().to_vec(),
            right: weight.dims().to_vec(),
        });
    }
    if let Some(b) = bias {
        b.shape().expect_rank(1)?;
        if b.len() != c_out {
            return Err(TensorError::LengthMismatch { expected: c_out, actual: b.len() });
        }
    }
    Ok((c_in, h, w, c_out))
}

/// `Ok` when a buffer holds the `expected` element count.
fn check_len(expected: usize, actual: usize) -> Result<()> {
    if expected == actual {
        Ok(())
    } else {
        Err(TensorError::LengthMismatch { expected, actual })
    }
}

/// Validates weight/bias against a stated input channel count (the slice
/// entry point's analogue of [`check_conv2d_shapes`]), returning `c_out`.
fn check_conv2d_weight_shapes(
    c_in: usize,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<usize> {
    weight.shape().expect_rank(4)?;
    let (c_out, wc_in, kh, kw) =
        (weight.dims()[0], weight.dims()[1], weight.dims()[2], weight.dims()[3]);
    if wc_in != c_in || kh != params.kernel || kw != params.kernel {
        return Err(TensorError::ShapeMismatch { left: vec![c_in], right: weight.dims().to_vec() });
    }
    if let Some(b) = bias {
        b.shape().expect_rank(1)?;
        if b.len() != c_out {
            return Err(TensorError::LengthMismatch { expected: c_out, actual: b.len() });
        }
    }
    Ok(c_out)
}

/// 2-D convolution.
///
/// `input` is `[C_in, H, W]`, `weight` is `[C_out, C_in, K, K]`, optional
/// `bias` is `[C_out]`; output is `[C_out, H_out, W_out]`. (Batch size is
/// always 1 in the reproduction; the simulator scales counts instead.)
///
/// # Errors
///
/// Returns shape/rank errors if operands are inconsistent.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor> {
    conv2d_with(backend::active(), input, weight, bias, params)
}

/// [`conv2d`] on an explicit backend, which runs the lowered matmul; the
/// result is bit-identical on every backend.
///
/// # Errors
///
/// Returns shape/rank errors if operands are inconsistent.
pub fn conv2d_with(
    backend: KernelBackend,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor> {
    let (c_in, h, w, c_out) = check_conv2d_shapes(input, weight, bias, params)?;
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    let mut out = Tensor::zeros(&[c_out, ho, wo]);
    conv2d_into_with(
        backend,
        input.as_slice(),
        c_in,
        h,
        w,
        weight,
        bias,
        params,
        out.as_mut_slice(),
    )?;
    Ok(out)
}

/// [`conv2d_with`] over a caller-owned input slice and output buffer.
/// `input` is a `[c_in, h, w]` NCHW slice; `out` must hold exactly
/// `c_out * out_extent(h) * out_extent(w)` elements and is fully written.
/// Lowers into a thread-local scratch buffer; counted as one `conv2d_f32`
/// dispatch (plus the `matmul_f32` it runs).
///
/// # Errors
///
/// Returns shape errors if the weight/bias are inconsistent with `c_in` or
/// the slice lengths disagree with the stated dims.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into_with(
    backend: KernelBackend,
    input: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    out: &mut [f32],
) -> Result<()> {
    let c_out = check_conv2d_weight_shapes(c_in, weight, bias, params)?;
    check_len(c_in * h * w, input.len())?;
    check_len(c_out * params.out_extent(h) * params.out_extent(w), out.len())?;
    backend::count_dispatch(backend::DispatchKernel::Conv2dF32, backend);
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        scratch.resize(conv2d_scratch_len(c_in, h, w, params), 0.0);
        conv2d_lowered_into(backend, input, c_in, h, w, weight, bias, params, &mut scratch, out)
    })
}

/// Whether a conv with these parameters reads its input as the matmul's
/// right operand, unlowered.
fn is_pointwise(params: Conv2dParams) -> bool {
    params.kernel == 1 && params.stride == 1 && params.padding == 0
}

/// The scratch `f32`s [`conv2d_lowered_into`] needs for a `[c_in, h, w]`
/// input: none for a pointwise conv, else the transposed im2col matrix in
/// the core's strip layout (which also holds the row-major one) and, for a
/// padded conv, a zero-bordered copy of the input.
pub fn conv2d_scratch_len(c_in: usize, h: usize, w: usize, params: Conv2dParams) -> usize {
    if is_pointwise(params) {
        return 0;
    }
    let taps = c_in * params.kernel * params.kernel;
    let pixels = params.out_extent(h) * params.out_extent(w);
    Rhs::Strips.len(taps, pixels) + padded_input_len(c_in, h, w, params)
}

/// The convolution itself, over caller-owned buffers: seeds `out` with
/// the bias, lowers the input into `scratch` (unless the conv is
/// pointwise), and runs one matmul against the weight in its native
/// `[c_out, c_in·k·k]` layout. The entry compiled plans use, with an arena
/// span as `scratch`; the layout of the lowered matrix follows the kernel
/// `backend` runs it on. Not counted as a `conv2d_f32` dispatch — only its
/// `matmul_f32` is.
///
/// # Errors
///
/// Returns shape errors if the weight/bias are inconsistent with `c_in`,
/// or if `input`, `out` or `scratch` (at least [`conv2d_scratch_len`])
/// disagree with the stated dims.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_lowered_into(
    backend: KernelBackend,
    input: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    scratch: &mut [f32],
    out: &mut [f32],
) -> Result<()> {
    let c_out = check_conv2d_weight_shapes(c_in, weight, bias, params)?;
    let pixels = params.out_extent(h) * params.out_extent(w);
    check_len(c_in * h * w, input.len())?;
    check_len(c_out * pixels, out.len())?;
    let need = conv2d_scratch_len(c_in, h, w, params);
    if scratch.len() < need {
        return Err(TensorError::LengthMismatch { expected: need, actual: scratch.len() });
    }
    // The bias is every output element's first addend.
    match bias {
        Some(b) => {
            for (plane, &bv) in out.chunks_exact_mut(pixels).zip(b.as_slice()) {
                plane.fill(bv);
            }
        }
        None => out.fill(0.0),
    }
    let taps = c_in * params.kernel * params.kernel;
    let weight = weight.as_slice();
    if is_pointwise(params) {
        matmul::matmul_acc_in(backend, out, weight, input, Rhs::RowMajor, c_out, taps, pixels);
        return Ok(());
    }
    let rhs = if matmul::core_level(backend).is_some() { Rhs::Strips } else { Rhs::RowMajor };
    let cols = im2col_transposed_into(input, c_in, h, w, params, rhs, scratch);
    matmul::matmul_acc_in(backend, out, weight, cols, rhs, c_out, taps, pixels);
    Ok(())
}

/// Direct (sliding-window loop) 2-D convolution — the reference kernel the
/// lowering ([`conv2d`]) is tested against.
///
/// # Errors
///
/// Returns shape/rank errors if operands are inconsistent.
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor> {
    let (c_in, h, w, c_out) = check_conv2d_shapes(input, weight, bias, params)?;
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    let mut out = Tensor::zeros(&[c_out, ho, wo]);
    conv2d_direct_into(
        input.as_slice(),
        c_in,
        h,
        w,
        weight.as_slice(),
        c_out,
        bias.map(Tensor::as_slice),
        params,
        out.as_mut_slice(),
    );
    Ok(out)
}

/// Slice core of [`conv2d_direct`]: the sliding-window reference kernel
/// over pre-validated operands. Every `out` element is written.
///
/// The loop nest streams whole output rows per weight tap instead of
/// computing one output element at a time: each output plane is seeded
/// with the bias, then every `(c_in, ky, kx)` tap adds its shifted input
/// row into the valid output span. For any single output element the
/// addends are exactly those of the elementwise sliding-window loop in the
/// same order — bias first, then taps ascending in `(c_in, ky, kx)`, with
/// padding taps contributing nothing on both formulations — so this is a
/// pure loop-interchange: bit-identical output, but the inner loop is a
/// branch-free contiguous AXPY the compiler can vectorize.
#[allow(clippy::too_many_arguments)]
fn conv2d_direct_into(
    iv: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    wv: &[f32],
    c_out: usize,
    bias: Option<&[f32]>,
    params: Conv2dParams,
    ov: &mut [f32],
) {
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    let k = params.kernel;
    let pad = params.padding as isize;
    for co in 0..c_out {
        let oplane = &mut ov[co * ho * wo..(co + 1) * ho * wo];
        oplane.fill(bias.map_or(0.0, |b| b[co]));
        for ci in 0..c_in {
            let plane = &iv[ci * h * w..(ci + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let wval = wv[((co * c_in + ci) * k + ky) * k + kx];
                    for oy in 0..ho {
                        let iy = (oy * params.stride + ky) as isize - pad;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let src = &plane[iy as usize * w..iy as usize * w + w];
                        let dst = &mut oplane[oy * wo..(oy + 1) * wo];
                        if params.stride == 1 {
                            // ix = ox + kx - pad must land in [0, w).
                            let shift = kx as isize - pad;
                            let lo = (-shift).clamp(0, wo as isize) as usize;
                            let hi = (w as isize - shift).clamp(lo as isize, wo as isize) as usize;
                            // An empty window (narrow input, wide padding:
                            // every ox of this kx falls in the pad) must be
                            // skipped before slicing `src` — `lo + shift`
                            // can sit past the plane width.
                            if lo < hi {
                                let src = &src[(lo as isize + shift) as usize
                                    ..(hi as isize + shift) as usize];
                                for (d, &s) in dst[lo..hi].iter_mut().zip(src) {
                                    *d += wval * s;
                                }
                            }
                        } else {
                            for (ox, d) in dst.iter_mut().enumerate() {
                                let ix = (ox * params.stride + kx) as isize - pad;
                                if ix >= 0 && (ix as usize) < w {
                                    *d += wval * src[ix as usize];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Lowers a `[C, H, W]` input into an im2col matrix of shape
/// `[H_out*W_out, C*K*K]`, so convolution becomes a matmul against the
/// reshaped weight `[C*K*K, C_out]`.
///
/// This is the layout the Ditto hardware operates on: each im2col row is a
/// "sliding window", and Diffy's spatial differences are taken between
/// consecutive rows of exactly this matrix.
///
/// # Errors
///
/// Returns a rank error if `input` is not rank 3.
pub fn im2col(input: &Tensor, params: Conv2dParams) -> Result<Tensor> {
    input.shape().expect_rank(3)?;
    let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    let cols = c * params.kernel * params.kernel;
    let mut out = Tensor::zeros(&[ho * wo, cols]);
    im2col_slice_into(input.as_slice(), c, h, w, params, out.as_mut_slice());
    Ok(out)
}

/// [`im2col`] into a caller-provided buffer of exactly
/// `H_out*W_out * C*K*K` elements (rank already validated). Writes every
/// element — padding taps become explicit zeros — so a reused scratch
/// buffer behaves exactly like a fresh one.
fn im2col_slice_into(
    iv: &[f32],
    c: usize,
    h: usize,
    w: usize,
    params: Conv2dParams,
    ov: &mut [f32],
) {
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    let k = params.kernel;
    let cols = c * k * k;
    debug_assert_eq!(ov.len(), ho * wo * cols);
    for oy in 0..ho {
        for ox in 0..wo {
            let row = oy * wo + ox;
            for ci in 0..c {
                for ky in 0..k {
                    let iy = (oy * params.stride + ky) as isize - params.padding as isize;
                    for kx in 0..k {
                        let ix = (ox * params.stride + kx) as isize - params.padding as isize;
                        let col = (ci * k + ky) * k + kx;
                        let val = if iy < 0 || iy as usize >= h || ix < 0 || ix as usize >= w {
                            0.0
                        } else {
                            iv[ci * h * w + iy as usize * w + ix as usize]
                        };
                        ov[row * cols + col] = val;
                    }
                }
            }
        }
    }
}

/// `f32`s of the zero-bordered copy of the input the lowering reads from;
/// a conv without padding reads the input itself.
fn padded_input_len(c: usize, h: usize, w: usize, params: Conv2dParams) -> usize {
    match params.padding {
        0 => 0,
        p => c * (h + 2 * p) * (w + 2 * p),
    }
}

/// Lowers a `[C, H, W]` input into the **transposed** im2col matrix
/// `[C*K*K, H_out*W_out]` in `rhs` layout at the start of `scratch`, and
/// returns it: element `[kidx, pix]` holds exactly the value [`im2col`]
/// puts at `[pix, kidx]`. A padded conv first copies the input into a
/// zero-bordered copy after the matrix, so every run of the matrix is a
/// plain gather from it — for stride 1 a copy. The matrix is written run
/// by run, a run being the pixels of one output row inside one strip, all
/// rows of a run before the next: for the Small models' 16-pixel output
/// rows, one strip at a time, front to back. Every element is written, the
/// strip padding as zeros, so a dirty scratch buffer behaves like a fresh
/// one.
///
/// # Panics
///
/// If `scratch` is shorter than the matrix plus [`padded_input_len`].
pub(crate) fn im2col_transposed_into<'s>(
    iv: &[f32],
    c: usize,
    h: usize,
    w: usize,
    params: Conv2dParams,
    rhs: Rhs,
    scratch: &'s mut [f32],
) -> &'s [f32] {
    let (k, p, stride) = (params.kernel, params.padding, params.stride);
    let (ho, wo) = (params.out_extent(h), params.out_extent(w));
    let (taps, pixels) = (c * k * k, ho * wo);
    let (ov, rest) = scratch.split_at_mut(rhs.len(taps, pixels));
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    let src: &[f32] = if p == 0 {
        iv
    } else {
        let padded = &mut rest[..padded_input_len(c, h, w, params)];
        padded.fill(0.0);
        for (plane, dst) in iv.chunks_exact(h * w).zip(padded.chunks_exact_mut(ph * pw)) {
            for (y, row) in plane.chunks_exact(w).enumerate() {
                dst[(y + p) * pw + p..][..w].copy_from_slice(row);
            }
        }
        padded
    };
    let row_stride = rhs.row_stride(pixels);
    let mut pix = 0;
    while pix < pixels {
        let (oy, ox) = (pix / wo, pix % wo);
        let (mut at, room) = rhs.run(taps, pixels, 0, pix);
        let len = room.min(wo - ox);
        for ci in 0..c {
            for ky in 0..k {
                let row = &src[ci * ph * pw + (oy * stride + ky) * pw + ox * stride..];
                for kx in 0..k {
                    let dst = &mut ov[at..at + len];
                    at += row_stride;
                    if stride == 1 {
                        copy_run(dst, &row[kx..kx + len]);
                    } else {
                        for (t, d) in dst.iter_mut().enumerate() {
                            *d = row[kx + t * stride];
                        }
                    }
                }
            }
        }
        pix += len;
    }
    // Columns past `pixels` in the last strip.
    let tail = rhs.len(1, pixels) - pixels;
    if tail > 0 {
        for kidx in 0..taps {
            let (at, _) = rhs.run(taps, pixels, kidx, pixels);
            ov[at..at + tail].fill(0.0);
        }
    }
    ov
}

/// `dst.copy_from_slice(src)`, inlined for the usual run of one whole
/// strip row rather than a `memcpy` call per row.
#[inline(always)]
fn copy_run(dst: &mut [f32], src: &[f32]) {
    if let (Ok(d), Ok(s)) =
        (<&mut [f32; STRIP]>::try_from(&mut *dst), <&[f32; STRIP]>::try_from(src))
    {
        *d = *s;
    } else {
        dst.copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;
    use crate::Rng;

    #[test]
    fn pointwise_is_channel_mix() {
        // 1x1 conv over a 2-channel 2x2 input equals a per-pixel matmul.
        let input = Tensor::from_vec((1..=8).map(|x| x as f32).collect(), &[2, 2, 2]).unwrap();
        let weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2, 1, 1]).unwrap();
        let out = conv2d(&input, &weight, None, Conv2dParams::pointwise()).unwrap();
        assert_eq!(out.dims(), &[2, 2, 2]);
        // out[0] = 1*in[0] + 2*in[1]; first pixel: 1*1 + 2*5 = 11.
        assert_eq!(out.at(&[0, 0, 0]), 11.0);
        // out[1] = 3*in[0] + 4*in[1]; first pixel: 3*1 + 4*5 = 23.
        assert_eq!(out.at(&[1, 0, 0]), 23.0);
    }

    #[test]
    fn bias_added() {
        let input = Tensor::full(&[1, 2, 2], 0.0);
        let weight = Tensor::zeros(&[3, 1, 1, 1]);
        let bias = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let out = conv2d(&input, &weight, Some(&bias), Conv2dParams::pointwise()).unwrap();
        assert_eq!(out.at(&[0, 1, 1]), 1.0);
        assert_eq!(out.at(&[2, 0, 0]), 3.0);
    }

    #[test]
    fn same_padding_keeps_extent() {
        let input = Tensor::full(&[1, 5, 5], 1.0);
        let weight = Tensor::full(&[1, 1, 3, 3], 1.0);
        let out = conv2d(&input, &weight, None, Conv2dParams::same3x3()).unwrap();
        assert_eq!(out.dims(), &[1, 5, 5]);
        // Center pixel sees all nine taps; corner only four.
        assert_eq!(out.at(&[0, 2, 2]), 9.0);
        assert_eq!(out.at(&[0, 0, 0]), 4.0);
    }

    #[test]
    fn stride_two_halves_extent() {
        let p = Conv2dParams { kernel: 3, stride: 2, padding: 1 };
        assert_eq!(p.out_extent(8), 4);
        let input = Tensor::full(&[1, 8, 8], 1.0);
        let weight = Tensor::full(&[1, 1, 3, 3], 1.0);
        let out = conv2d(&input, &weight, None, p).unwrap();
        assert_eq!(out.dims(), &[1, 4, 4]);
    }

    #[test]
    fn im2col_route_bitwise_matches_direct() {
        // Every shape class the UNets produce: pointwise, 3x3 same,
        // stride-2, with and without bias, small and large. The lowered
        // matmul must agree with the sliding-window reference bit for bit
        // on every backend — the Ditto equivalence chain sits on top of it.
        let mut rng = Rng::seed_from(7);
        let cases = [
            (1usize, 4usize, 3usize, Conv2dParams::pointwise()),
            (3, 6, 4, Conv2dParams::same3x3()),
            (8, 12, 16, Conv2dParams::same3x3()),
            (16, 16, 32, Conv2dParams { kernel: 3, stride: 2, padding: 1 }),
            (32, 16, 32, Conv2dParams::same3x3()),
        ];
        for &(c_in, hw, c_out, p) in &cases {
            let input = Tensor::randn(&[c_in, hw, hw], &mut rng);
            let weight = Tensor::randn(&[c_out, c_in, p.kernel, p.kernel], &mut rng);
            let bias = Tensor::randn(&[c_out], &mut rng);
            for b in [None, Some(&bias)] {
                let direct = conv2d_direct(&input, &weight, b, p).unwrap();
                for backend in crate::backend::KernelBackend::available() {
                    let lowered = conv2d_with(backend, &input, &weight, b, p).unwrap();
                    assert_eq!(direct.dims(), lowered.dims());
                    for (d, l) in direct.as_slice().iter().zip(lowered.as_slice()) {
                        assert_eq!(
                            d.to_bits(),
                            l.to_bits(),
                            "{backend} lowering diverged at c_in={c_in} hw={hw} c_out={c_out}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // The thread-local lowering scratch is reused across calls of
        // *different* shapes (grow, shrink, regrow) and bias modes; every
        // call must still match the fresh-buffer reference — the direct
        // loop — bit for bit, and repeating a call must reproduce its own
        // output exactly.
        let mut rng = Rng::seed_from(11);
        let cases = [
            (16usize, 16usize, 32usize, Conv2dParams::same3x3()),
            (2, 5, 3, Conv2dParams::pointwise()),
            (32, 16, 32, Conv2dParams::same3x3()),
            (4, 7, 6, Conv2dParams { kernel: 3, stride: 2, padding: 1 }),
            (16, 16, 32, Conv2dParams::same3x3()),
        ];
        for &(c_in, hw, c_out, p) in &cases {
            let input = Tensor::randn(&[c_in, hw, hw], &mut rng);
            let weight = Tensor::randn(&[c_out, c_in, p.kernel, p.kernel], &mut rng);
            let bias = Tensor::randn(&[c_out], &mut rng);
            for b in [None, Some(&bias)] {
                let direct = conv2d_direct(&input, &weight, b, p).unwrap();
                let first = conv2d(&input, &weight, b, p).unwrap();
                let second = conv2d(&input, &weight, b, p).unwrap();
                for ((d, f), s) in
                    direct.as_slice().iter().zip(first.as_slice()).zip(second.as_slice())
                {
                    assert_eq!(d.to_bits(), f.to_bits(), "reused scratch diverged from fresh");
                    assert_eq!(f.to_bits(), s.to_bits(), "repeat call not reproducible");
                }
            }
        }
    }

    #[test]
    fn every_backend_is_bit_identical() {
        let mut rng = Rng::seed_from(17);
        let cases = [
            (3usize, 6usize, 4usize, Conv2dParams::same3x3()),
            (16, 16, 32, Conv2dParams { kernel: 3, stride: 2, padding: 1 }),
            (32, 16, 32, Conv2dParams::same3x3()),
        ];
        for &(c_in, hw, c_out, p) in &cases {
            let input = Tensor::randn(&[c_in, hw, hw], &mut rng);
            let weight = Tensor::randn(&[c_out, c_in, p.kernel, p.kernel], &mut rng);
            let bias = Tensor::randn(&[c_out], &mut rng);
            for b in [None, Some(&bias)] {
                let want =
                    conv2d_with(crate::KernelBackend::Scalar, &input, &weight, b, p).unwrap();
                for backend in crate::backend::KernelBackend::available() {
                    let got = conv2d_with(backend, &input, &weight, b, p).unwrap();
                    for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "conv2d backend {backend} diverged at c_in={c_in} hw={hw}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_route_error_paths_match_direct() {
        let input = Tensor::zeros(&[2, 4, 4]);
        let weight = Tensor::zeros(&[3, 5, 3, 3]); // wrong C_in
        assert!(conv2d_direct(&input, &weight, None, Conv2dParams::same3x3()).is_err());
        assert!(conv2d(&input, &weight, None, Conv2dParams::same3x3()).is_err());
        let weight_ok = Tensor::zeros(&[3, 2, 3, 3]);
        let bad_bias = Tensor::zeros(&[2]);
        let p = Conv2dParams::same3x3();
        assert!(conv2d_direct(&input, &weight_ok, Some(&bad_bias), p).is_err());
        assert!(conv2d(&input, &weight_ok, Some(&bad_bias), p).is_err());
    }

    #[test]
    fn im2col_matmul_matches_direct() {
        let mut rng = Rng::seed_from(3);
        let input = Tensor::randn(&[3, 6, 6], &mut rng);
        let weight = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let p = Conv2dParams::same3x3();
        let direct = conv2d(&input, &weight, None, p).unwrap();

        let cols = im2col(&input, p).unwrap();
        let wmat = weight.reshape(&[4, 27]).unwrap().transpose().unwrap();
        let prod = matmul(&cols, &wmat).unwrap(); // [H*W, C_out]
        for co in 0..4 {
            for pix in 0..36 {
                let d = direct.as_slice()[co * 36 + pix];
                let m = prod.as_slice()[pix * 4 + co];
                assert!((d - m).abs() < 1e-4, "mismatch at co={co} pix={pix}: {d} vs {m}");
            }
        }
    }

    #[test]
    fn transposed_im2col_matches_row_major_lowering() {
        // [kidx, pix] of the transposed lowering must equal [pix, kidx] of
        // `im2col`, bit for bit, in both layouts and across every shape
        // class: pointwise, 3x3 same padding, stride 2, wide padding, and
        // non-square spatial extents (exercising both the bulk-copy
        // stride-1 path and the strided fallback) whose pixel counts end
        // mid-strip; the strip padding must come out zero.
        let mut rng = Rng::seed_from(23);
        let cases = [
            (1usize, 4usize, 4usize, Conv2dParams::pointwise()),
            (3, 6, 6, Conv2dParams::same3x3()),
            (2, 8, 8, Conv2dParams { kernel: 3, stride: 2, padding: 1 }),
            (2, 5, 9, Conv2dParams { kernel: 3, stride: 1, padding: 2 }),
            (4, 8, 4, Conv2dParams { kernel: 5, stride: 2, padding: 2 }),
            (2, 5, 7, Conv2dParams::same3x3()),
        ];
        for &(c, h, w, p) in &cases {
            let input = Tensor::randn(&[c, h, w], &mut rng);
            let cols = im2col(&input, p).unwrap();
            let pixels = p.out_extent(h) * p.out_extent(w);
            let ckk = c * p.kernel * p.kernel;
            for rhs in [Rhs::RowMajor, Rhs::Strips] {
                // Dirty scratch: the lowering must overwrite every element.
                let mut scratch =
                    vec![f32::NAN; conv2d_scratch_len(c, h, w, p).max(rhs.len(ckk, pixels))];
                let t = im2col_transposed_into(input.as_slice(), c, h, w, p, rhs, &mut scratch);
                let mut written = 0;
                for kidx in 0..ckk {
                    for pix in 0..pixels {
                        assert_eq!(
                            t[rhs.run(ckk, pixels, kidx, pix).0].to_bits(),
                            cols.as_slice()[pix * ckk + kidx].to_bits(),
                            "{rhs:?} c={c} h={h} w={w} k={} s={} p={} at kidx={kidx} pix={pix}",
                            p.kernel,
                            p.stride,
                            p.padding
                        );
                        written += 1;
                    }
                }
                let zeros = t.iter().filter(|v| v.to_bits() == 0).count();
                let pad = t.len() - written;
                assert!(zeros >= pad, "{rhs:?}: strip padding left unwritten");
            }
        }
    }

    #[test]
    fn lowered_entry_point_matches_reference_and_checks_shapes() {
        // `conv2d_lowered_into` (the compiled plans' entry, with the
        // caller's scratch) must match `conv2d_direct` bitwise on every
        // backend over a dirty scratch span, need no scratch for a
        // pointwise conv, and validate like the tensor entry.
        let mut rng = Rng::seed_from(29);
        let cases = [
            (3usize, 6usize, 4usize, Conv2dParams::same3x3()),
            (32, 16, 32, Conv2dParams::same3x3()),
            (16, 16, 32, Conv2dParams { kernel: 3, stride: 2, padding: 1 }),
            (8, 8, 8, Conv2dParams::pointwise()),
        ];
        for &(c_in, hw, c_out, p) in &cases {
            let input = Tensor::randn(&[c_in, hw, hw], &mut rng);
            let weight = Tensor::randn(&[c_out, c_in, p.kernel, p.kernel], &mut rng);
            let bias = Tensor::randn(&[c_out], &mut rng);
            let scratch_len = conv2d_scratch_len(c_in, hw, hw, p);
            assert_eq!(scratch_len == 0, p == Conv2dParams::pointwise());
            for b in [None, Some(&bias)] {
                let want = conv2d_direct(&input, &weight, b, p).unwrap();
                for backend in crate::backend::KernelBackend::available() {
                    let mut scratch = vec![f32::NAN; scratch_len];
                    let mut out = vec![f32::NAN; want.len()];
                    conv2d_lowered_into(
                        backend,
                        input.as_slice(),
                        c_in,
                        hw,
                        hw,
                        &weight,
                        b,
                        p,
                        &mut scratch,
                        &mut out,
                    )
                    .unwrap();
                    for (x, y) in out.iter().zip(want.as_slice()) {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "lowered entry diverged on {backend} at c_in={c_in} hw={hw}"
                        );
                    }
                }
            }
        }
        // Error paths: a bad bias, a short input, a short scratch span.
        let input = Tensor::zeros(&[2, 4, 4]);
        let weight = Tensor::zeros(&[3, 2, 3, 3]);
        let p = Conv2dParams::same3x3();
        let mut out = vec![0.0; 3 * 4 * 4];
        let mut scratch = vec![0.0; conv2d_scratch_len(2, 4, 4, p)];
        let bad_bias = Tensor::zeros(&[2]);
        let run = |input: &[f32], bias, scratch: &mut [f32], out: &mut [f32]| {
            conv2d_lowered_into(
                KernelBackend::Scalar,
                input,
                2,
                4,
                4,
                &weight,
                bias,
                p,
                scratch,
                out,
            )
        };
        assert!(run(input.as_slice(), Some(&bad_bias), &mut scratch, &mut out).is_err());
        assert!(run(&input.as_slice()[..7], None, &mut scratch, &mut out).is_err());
        assert!(run(input.as_slice(), None, &mut scratch[1..], &mut out).is_err());
        assert!(run(input.as_slice(), None, &mut scratch, &mut out).is_ok());
    }

    #[test]
    fn shape_errors() {
        let input = Tensor::zeros(&[2, 4, 4]);
        let weight = Tensor::zeros(&[3, 5, 3, 3]); // wrong C_in
        assert!(conv2d(&input, &weight, None, Conv2dParams::same3x3()).is_err());
        let weight_ok = Tensor::zeros(&[3, 2, 3, 3]);
        let bad_bias = Tensor::zeros(&[2]);
        assert!(conv2d(&input, &weight_ok, Some(&bad_bias), Conv2dParams::same3x3()).is_err());
    }
}

#[cfg(test)]
mod review_probe {
    use super::*;
    use crate::Tensor;
    #[test]
    fn narrow_input_wide_padding_direct() {
        // w=1, k=5, p=2 (same-style): valid shape, h+2p>=k.
        let input = Tensor::zeros(&[1, 5, 1]);
        let weight = Tensor::zeros(&[1, 1, 5, 5]);
        let p = Conv2dParams { kernel: 5, stride: 1, padding: 2 };
        let out = conv2d(&input, &weight, None, p).unwrap();
        assert_eq!(out.dims(), &[1, 5, 1]);
    }
}
