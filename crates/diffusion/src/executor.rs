//! Graph executor with hook points.
//!
//! [`forward`] evaluates a [`LayerGraph`] node by node in f32, allocating a
//! [`Tensor`] per node. It is the **oracle**: the compiled-plan interpreter
//! ([`crate::plan`]) is what models run, and tests and `perfbench` call
//! `forward` directly to check the plan against it bit for bit.
//!
//! [`LinearHook`] is the interception interface both executors share,
//! mirroring the Sparse-DySta/PyTorch-hook methodology the paper's
//! evaluation uses (§VI-A):
//!
//! * a hook may *replace* the f32 computation of a linear layer — this is
//!   how the quantized and Ditto execution modes in `ditto-core` are
//!   implemented without the graph knowing about them;
//! * a hook may *observe* a linear layer's operands and output — this is
//!   how activation statistics (calibration maxima, similarity, value
//!   ranges) are collected without storing whole traces.
//!
//! All tensor compute (`ops::{matmul, matvec, conv2d}`) dispatches through
//! the pluggable kernel-backend layer (`tensor::backend`); because every
//! backend is bit-identical, executor outputs — and everything derived
//! from them (calibration, traces, golden figures) — never depend on the
//! selected backend, only their speed does.

use crate::embed::timestep_embedding;
use crate::graph::{LayerGraph, Node};
use crate::op::{InputKind, LayerOp};
use crate::weights::{Params, Weights};
use tensor::ops;
use tensor::{Result, Tensor, TensorError};

/// Per-step metadata passed to hooks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepInfo {
    /// Index within the sampler's schedule (0 = first executed step, i.e.
    /// the largest diffusion time).
    pub step_index: usize,
    /// The diffusion time value `t` fed to the time-embedding.
    pub t: f32,
    /// Total number of scheduled steps.
    pub total_steps: usize,
}

/// A borrowed row-major f32 operand of a linear site: the slice the plan
/// interpreter holds in its arena plus the dims inferred at compile time.
#[derive(Debug, Clone, Copy)]
pub struct OperandView<'a> {
    /// Row-major values.
    pub data: &'a [f32],
    /// Dimensions (`data.len()` is their product).
    pub dims: &'a [usize],
}

impl<'a> From<&'a Tensor> for OperandView<'a> {
    fn from(t: &'a Tensor) -> Self {
        OperandView { data: t.as_slice(), dims: t.dims() }
    }
}

impl OperandView<'_> {
    fn to_tensor(self) -> Tensor {
        Tensor::from_vec(self.data.to_vec(), self.dims).expect("view dims match its data")
    }
}

/// Copies a site's operands into `Tensor`s and lends them to `f` — the
/// slice-to-`Tensor` step of [`LinearHook`]'s default adapters.
fn with_tensors<R>(inputs: &[OperandView<'_>], f: impl FnOnce(&[&Tensor]) -> R) -> R {
    let tensors: Vec<Tensor> = inputs.iter().map(|v| v.to_tensor()).collect();
    let refs: Vec<&Tensor> = tensors.iter().collect();
    f(&refs)
}

/// Hook interface for intercepting and observing linear layers.
///
/// **Contract.** Models run through the plan interpreter, which calls a
/// hook at *linear sites only* — nodes whose op
/// [`is_linear_layer`](LayerOp::is_linear_layer) (conv, FC, `Q·Kᵀ`, `P·V`) —
/// through the two slice-level methods: first
/// [`compute_linear_into`](Self::compute_linear_into); if the hook
/// declines, the f32 opcode runs and the hook gets
/// [`observe_linear`](Self::observe_linear). A site the hook computed is
/// not shown to it again. The default bodies of the slice-level methods
/// adapt to the `Tensor`-level [`compute_linear`](Self::compute_linear) /
/// [`observe`](Self::observe) — the only place the interpreter's operands
/// are copied into `Tensor`s — so a hook may implement either level.
///
/// The oracle [`forward`] calls the `Tensor`-level methods, and shows
/// `observe` every node, linear or not; hooks that must behave the same
/// under both executors filter on `is_linear_layer()`.
pub trait LinearHook {
    /// May replace a linear layer's f32 computation: returning
    /// `Some(tensor)` makes it the node's output.
    fn compute_linear(
        &mut self,
        node: &Node,
        step: StepInfo,
        inputs: &[&Tensor],
    ) -> Option<Tensor> {
        let _ = (node, step, inputs);
        None
    }

    /// Sees a node's operands and output after it executed.
    fn observe(&mut self, node: &Node, step: StepInfo, inputs: &[&Tensor], output: &Tensor) {
        let _ = (node, step, inputs, output);
    }

    /// Whether this hook leaves every method as the default no-op.
    /// Executors then skip all hook calls. Hooks that override any method
    /// must leave this `false` (the default).
    fn is_noop(&self) -> bool {
        false
    }

    /// Slice-level [`compute_linear`](Self::compute_linear): may compute the
    /// linear site `node` from `inputs` straight into `out` (the node's
    /// whole output, row-major) and return `true`; returning `false`
    /// declines, and `out` is then overwritten by the f32 opcode.
    ///
    /// # Panics
    ///
    /// The default adapter panics if `compute_linear` returns a tensor of
    /// the wrong size (a bug in the hook).
    fn compute_linear_into(
        &mut self,
        node: &Node,
        step: StepInfo,
        inputs: &[OperandView<'_>],
        out: &mut [f32],
    ) -> bool {
        match with_tensors(inputs, |refs| self.compute_linear(node, step, refs)) {
            Some(t) => {
                assert_eq!(t.len(), out.len(), "hook output size at `{}`", node.name);
                out.copy_from_slice(t.as_slice());
                true
            }
            None => false,
        }
    }

    /// Slice-level [`observe`](Self::observe), called after the f32 opcode
    /// of a linear site the hook declined.
    fn observe_linear(
        &mut self,
        node: &Node,
        step: StepInfo,
        inputs: &[OperandView<'_>],
        output: OperandView<'_>,
    ) {
        with_tensors(inputs, |refs| self.observe(node, step, refs, &output.to_tensor()));
    }
}

/// A hook that does nothing (plain f32 execution).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHook;

impl LinearHook for NullHook {
    fn is_noop(&self) -> bool {
        true
    }
}

/// Input bindings for one forward pass.
#[derive(Debug, Clone)]
pub struct Bindings<'a> {
    /// Current latent / image.
    pub latent: &'a Tensor,
    /// Conditioning context tokens, if the model uses them.
    pub context: Option<&'a Tensor>,
    /// Diffusion time value.
    pub t: f32,
}

/// Evaluates `graph` with `weights` once under `bindings`, returning the
/// output tensor.
///
/// # Errors
///
/// Propagates shape errors from the kernels, and fails on a weighted node
/// `weights` holds nothing for — a well-formed model built by
/// [`crate::models`] never triggers either.
pub fn forward(
    graph: &LayerGraph,
    weights: &Weights,
    bindings: &Bindings<'_>,
    step: StepInfo,
    hook: &mut dyn LinearHook,
) -> Result<Tensor> {
    let noop = hook.is_noop();
    let mut values: Vec<Option<Tensor>> = vec![None; graph.len()];
    for node in graph.nodes() {
        // Max arity is 3 (Modulate); a stack array avoids a per-node Vec.
        let mut slots: [&Tensor; 3] = [bindings.latent; 3];
        for (slot, &i) in slots.iter_mut().zip(&node.inputs) {
            *slot = values[i].as_ref().expect("topological order");
        }
        let inputs = &slots[..node.inputs.len()];
        let out = eval_node(node, weights, inputs, bindings, step, hook)?;
        if !noop {
            hook.observe(node, step, inputs, &out);
        }
        values[node.id] = Some(out);
    }
    Ok(values[graph.output()].take().expect("output evaluated"))
}

fn eval_node(
    node: &Node,
    weights: &Weights,
    inputs: &[&Tensor],
    bindings: &Bindings<'_>,
    step: StepInfo,
    hook: &mut dyn LinearHook,
) -> Result<Tensor> {
    let _ = step.total_steps;
    if node.op.is_linear_layer() {
        if let Some(out) = hook.compute_linear(node, step, inputs) {
            return Ok(out);
        }
    }
    let params = || weights.get(node.id);
    match &node.op {
        LayerOp::Input(kind) => match kind {
            InputKind::Latent => Ok(bindings.latent.clone()),
            InputKind::Context => bindings
                .context
                .cloned()
                .ok_or_else(|| TensorError::InvalidArgument("model needs a context".into())),
            InputKind::Timestep => Tensor::from_vec(vec![bindings.t], &[1]),
        },
        LayerOp::TimestepEmbed { dim } => Ok(timestep_embedding(inputs[0].as_slice()[0], *dim)),
        LayerOp::Conv2d { params: conv, .. } => {
            let p = params()?;
            ops::conv2d(inputs[0], &p.weight, p.bias.as_ref(), *conv)
        }
        LayerOp::Linear { .. } => {
            let p = params()?;
            linear(inputs[0], &p.weight, p.bias.as_ref())
        }
        LayerOp::MatmulQK => {
            let q = inputs[0];
            let k = inputs[1];
            let d = q.dims().last().copied().unwrap_or(1) as f32;
            let scores = ops::matmul(q, &k.transpose()?)?;
            Ok(ops::scale(&scores, 1.0 / d.sqrt()))
        }
        LayerOp::MatmulPV => ops::matmul(inputs[0], inputs[1]),
        LayerOp::GroupNorm { groups, .. } => {
            let (gamma, beta) = norm_params(params()?);
            ops::group_norm(inputs[0], *groups, gamma, beta, 1e-5)
        }
        LayerOp::LayerNorm { .. } => {
            let (gamma, beta) = norm_params(params()?);
            ops::layer_norm(inputs[0], gamma, beta, 1e-5)
        }
        LayerOp::SiLU => Ok(ops::silu(inputs[0])),
        LayerOp::GeLU => Ok(ops::gelu(inputs[0])),
        LayerOp::Sigmoid => Ok(ops::sigmoid(inputs[0])),
        LayerOp::Softmax => ops::softmax_rows(inputs[0]),
        LayerOp::Add => ops::add(inputs[0], inputs[1]),
        LayerOp::Mul => ops::mul(inputs[0], inputs[1]),
        LayerOp::Scale(s) => Ok(ops::scale(inputs[0], *s)),
        LayerOp::Modulate => modulate(inputs[0], inputs[1], inputs[2]),
        LayerOp::Gate => gate(inputs[0], inputs[1]),
        LayerOp::AddBias2d => add_bias2d(inputs[0], inputs[1]),
        LayerOp::ToTokens => to_tokens(inputs[0]),
        LayerOp::ToSpatial { c, h, w } => to_spatial(inputs[0], *c, *h, *w),
        LayerOp::AvgPool { window } => ops::avg_pool2d(inputs[0], *window),
        LayerOp::SliceCols { start, len } => slice_cols(inputs[0], *start, *len),
        LayerOp::ConcatChannels => concat_channels(inputs[0], inputs[1]),
        LayerOp::ConcatCols => concat_cols(inputs[0], inputs[1]),
        LayerOp::Upsample2x => upsample2x(inputs[0]),
        LayerOp::Unpatchify { c, hp, wp, p } => unpatchify(inputs[0], *c, *hp, *wp, *p),
    }
}

/// A norm's `(γ, β)`: [`Weights::set`] guarantees `β` is present.
pub(crate) fn norm_params(p: &Params) -> (&Tensor, &Tensor) {
    (&p.weight, p.bias.as_ref().expect("norms carry a shift"))
}

// ---------------------------------------------------------------------------
// Shared slice kernels.
//
// Each helper below validates shapes on the `Tensor` path and then runs a
// slice-level kernel that writes every output element exactly once. The
// compiled-plan interpreter (`crate::plan`) calls the same slice kernels
// over its arena spans, which is what makes the plan path bit-identical to
// the tree walk by construction.
// ---------------------------------------------------------------------------

/// Adds a `[cols]` bias row-wise to a `[rows, cols]` buffer in place.
pub(crate) fn add_row_bias(yv: &mut [f32], bv: &[f32], rows: usize, cols: usize) {
    for r in 0..rows {
        for c in 0..cols {
            yv[r * cols + c] += bv[c];
        }
    }
}

/// Slice kernel for [`modulate`]: `out = x·(1+s)+b` over `[rows, cols]`.
pub(crate) fn modulate_into(
    xv: &[f32],
    sv: &[f32],
    bv: &[f32],
    rows: usize,
    cols: usize,
    ov: &mut [f32],
) {
    for r in 0..rows {
        for c in 0..cols {
            ov[r * cols + c] = xv[r * cols + c] * (1.0 + sv[c]) + bv[c];
        }
    }
}

/// Slice kernel for [`gate`]: `out = x·g` over `[rows, cols]`.
pub(crate) fn gate_into(xv: &[f32], gv: &[f32], rows: usize, cols: usize, ov: &mut [f32]) {
    for r in 0..rows {
        for c in 0..cols {
            ov[r * cols + c] = xv[r * cols + c] * gv[c];
        }
    }
}

/// Slice kernel for [`add_bias2d`]: `out = x + e[c]` over `[c, plane]`.
pub(crate) fn add_bias2d_into(xv: &[f32], ev: &[f32], c: usize, plane: usize, ov: &mut [f32]) {
    for ci in 0..c {
        for p in 0..plane {
            ov[ci * plane + p] = xv[ci * plane + p] + ev[ci];
        }
    }
}

/// Transposes a row-major `[rows, cols]` buffer into `[cols, rows]` — both
/// `ToTokens` (`[C, H·W] → [H·W, C]`) and `ToSpatial` (the inverse) are
/// this kernel with swapped dimensions.
pub(crate) fn transpose_into(xv: &[f32], rows: usize, cols: usize, ov: &mut [f32]) {
    for i in 0..rows {
        for j in 0..cols {
            ov[j * rows + i] = xv[i * cols + j];
        }
    }
}

/// Slice kernel for [`slice_cols`]: columns `[start, start+len)` of
/// `[rows, cols]`.
pub(crate) fn slice_cols_into(
    xv: &[f32],
    rows: usize,
    cols: usize,
    start: usize,
    len: usize,
    ov: &mut [f32],
) {
    for r in 0..rows {
        ov[r * len..(r + 1) * len].copy_from_slice(&xv[r * cols + start..r * cols + start + len]);
    }
}

/// Slice kernel for [`concat_cols`]: `[rows, ca] ⊕ [rows, cb]`.
pub(crate) fn concat_cols_into(
    av: &[f32],
    bv: &[f32],
    rows: usize,
    ca: usize,
    cb: usize,
    ov: &mut [f32],
) {
    for r in 0..rows {
        ov[r * (ca + cb)..r * (ca + cb) + ca].copy_from_slice(&av[r * ca..(r + 1) * ca]);
        ov[r * (ca + cb) + ca..(r + 1) * (ca + cb)].copy_from_slice(&bv[r * cb..(r + 1) * cb]);
    }
}

/// Slice kernel for [`upsample2x`]: `[c, h, w] → [c, 2h, 2w]`.
pub(crate) fn upsample2x_into(xv: &[f32], c: usize, h: usize, w: usize, ov: &mut [f32]) {
    for ci in 0..c {
        for y in 0..h {
            for xx in 0..w {
                let v = xv[ci * h * w + y * w + xx];
                let base = ci * 4 * h * w;
                ov[base + (2 * y) * 2 * w + 2 * xx] = v;
                ov[base + (2 * y) * 2 * w + 2 * xx + 1] = v;
                ov[base + (2 * y + 1) * 2 * w + 2 * xx] = v;
                ov[base + (2 * y + 1) * 2 * w + 2 * xx + 1] = v;
            }
        }
    }
}

/// Slice kernel for [`unpatchify`]: `[hp·wp, p·p·c] → [c, hp·p, wp·p]`.
pub(crate) fn unpatchify_into(
    xv: &[f32],
    c: usize,
    hp: usize,
    wp: usize,
    p: usize,
    ov: &mut [f32],
) {
    let (h, w) = (hp * p, wp * p);
    for py in 0..hp {
        for px in 0..wp {
            let row = py * wp + px;
            for iy in 0..p {
                for ix in 0..p {
                    for ci in 0..c {
                        let v = xv[row * p * p * c + (iy * p + ix) * c + ci];
                        ov[ci * h * w + (py * p + iy) * w + (px * p + ix)] = v;
                    }
                }
            }
        }
    }
}

/// `[tokens, in] × [in, out] (+ bias)`.
fn linear(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    let mut y = ops::matmul(x, weight)?;
    if let Some(b) = bias {
        let (rows, cols) = (y.dims()[0], y.dims()[1]);
        if b.len() != cols {
            return Err(TensorError::LengthMismatch { expected: cols, actual: b.len() });
        }
        add_row_bias(y.as_mut_slice(), b.as_slice(), rows, cols);
    }
    Ok(y)
}

/// `x·(1+s)+b`, `s`/`b` shaped `[1, C]`, broadcast over rows of `[T, C]`.
fn modulate(x: &Tensor, s: &Tensor, b: &Tensor) -> Result<Tensor> {
    x.shape().expect_rank(2)?;
    let (rows, cols) = (x.dims()[0], x.dims()[1]);
    if s.len() != cols || b.len() != cols {
        return Err(TensorError::LengthMismatch { expected: cols, actual: s.len() });
    }
    let mut out = Tensor::zeros(&[rows, cols]);
    modulate_into(x.as_slice(), s.as_slice(), b.as_slice(), rows, cols, out.as_mut_slice());
    Ok(out)
}

/// `x·g`, `g` shaped `[1, C]`, broadcast over rows.
fn gate(x: &Tensor, g: &Tensor) -> Result<Tensor> {
    x.shape().expect_rank(2)?;
    let (rows, cols) = (x.dims()[0], x.dims()[1]);
    if g.len() != cols {
        return Err(TensorError::LengthMismatch { expected: cols, actual: g.len() });
    }
    let mut out = Tensor::zeros(&[rows, cols]);
    gate_into(x.as_slice(), g.as_slice(), rows, cols, out.as_mut_slice());
    Ok(out)
}

/// Adds a `[1, C]` embedding to each spatial position of `[C, H, W]`.
fn add_bias2d(x: &Tensor, e: &Tensor) -> Result<Tensor> {
    x.shape().expect_rank(3)?;
    let (c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    if e.len() != c {
        return Err(TensorError::LengthMismatch { expected: c, actual: e.len() });
    }
    let mut out = Tensor::zeros(&[c, h, w]);
    add_bias2d_into(x.as_slice(), e.as_slice(), c, h * w, out.as_mut_slice());
    Ok(out)
}

/// `[C, H, W] → [H·W, C]`.
fn to_tokens(x: &Tensor) -> Result<Tensor> {
    x.shape().expect_rank(3)?;
    let (c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let mut out = Tensor::zeros(&[h * w, c]);
    transpose_into(x.as_slice(), c, h * w, out.as_mut_slice());
    Ok(out)
}

/// `[H·W, C] → [C, H, W]`.
fn to_spatial(x: &Tensor, c: usize, h: usize, w: usize) -> Result<Tensor> {
    x.shape().expect_rank(2)?;
    if x.dims() != [h * w, c] {
        return Err(TensorError::ShapeMismatch { left: x.dims().to_vec(), right: vec![h * w, c] });
    }
    let mut out = Tensor::zeros(&[c, h, w]);
    transpose_into(x.as_slice(), h * w, c, out.as_mut_slice());
    Ok(out)
}

/// Columns `[start, start+len)` of `[rows, cols]`.
fn slice_cols(x: &Tensor, start: usize, len: usize) -> Result<Tensor> {
    x.shape().expect_rank(2)?;
    let (rows, cols) = (x.dims()[0], x.dims()[1]);
    if start + len > cols {
        return Err(TensorError::InvalidArgument(format!(
            "slice {start}+{len} exceeds {cols} columns"
        )));
    }
    let mut out = Tensor::zeros(&[rows, len]);
    slice_cols_into(x.as_slice(), rows, cols, start, len, out.as_mut_slice());
    Ok(out)
}

/// Concatenates `[C1, H, W]` and `[C2, H, W]` into `[C1+C2, H, W]`.
fn concat_channels(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    a.shape().expect_rank(3)?;
    b.shape().expect_rank(3)?;
    if a.dims()[1..] != b.dims()[1..] {
        return Err(TensorError::ShapeMismatch {
            left: a.dims().to_vec(),
            right: b.dims().to_vec(),
        });
    }
    let dims = [a.dims()[0] + b.dims()[0], a.dims()[1], a.dims()[2]];
    let mut data = Vec::with_capacity(dims.iter().product());
    data.extend_from_slice(a.as_slice());
    data.extend_from_slice(b.as_slice());
    Tensor::from_vec(data, &dims)
}

/// `[T, a] ⊕ [T, b] → [T, a+b]` along the feature axis.
fn concat_cols(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    a.shape().expect_rank(2)?;
    b.shape().expect_rank(2)?;
    if a.dims()[0] != b.dims()[0] {
        return Err(TensorError::ShapeMismatch {
            left: a.dims().to_vec(),
            right: b.dims().to_vec(),
        });
    }
    let (rows, ca, cb) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let mut out = Tensor::zeros(&[rows, ca + cb]);
    concat_cols_into(a.as_slice(), b.as_slice(), rows, ca, cb, out.as_mut_slice());
    Ok(out)
}

/// Nearest-neighbour 2× upsampling: `[C, H, W] → [C, 2H, 2W]`.
fn upsample2x(x: &Tensor) -> Result<Tensor> {
    x.shape().expect_rank(3)?;
    let (c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let mut out = Tensor::zeros(&[c, 2 * h, 2 * w]);
    upsample2x_into(x.as_slice(), c, h, w, out.as_mut_slice());
    Ok(out)
}

/// `[hp·wp, p·p·c] → [c, hp·p, wp·p]` (row-major patches, channel-last
/// within each patch vector, matching the patch-embedding convolution).
fn unpatchify(x: &Tensor, c: usize, hp: usize, wp: usize, p: usize) -> Result<Tensor> {
    x.shape().expect_rank(2)?;
    if x.dims() != [hp * wp, p * p * c] {
        return Err(TensorError::ShapeMismatch {
            left: x.dims().to_vec(),
            right: vec![hp * wp, p * p * c],
        });
    }
    let mut out = Tensor::zeros(&[c, hp * p, wp * p]);
    unpatchify_into(x.as_slice(), c, hp, wp, p, out.as_mut_slice());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LayerGraph;

    fn step0() -> StepInfo {
        StepInfo { step_index: 0, t: 999.0, total_steps: 1 }
    }

    #[test]
    fn forward_identity_linear() {
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let l = g.add("fc", LayerOp::Linear { d_in: 3, d_out: 3, bias: false }, &[x]);
        g.set_output(l);
        let mut w = Weights::new();
        w.set(&g, l, Params { weight: Tensor::eye(3), bias: None });
        let latent = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let out = forward(
            &g,
            &w,
            &Bindings { latent: &latent, context: None, t: 0.0 },
            step0(),
            &mut NullHook,
        )
        .unwrap();
        assert_eq!(out, latent);
    }

    #[test]
    fn hook_can_override_linear() {
        struct Override;
        impl LinearHook for Override {
            fn compute_linear(
                &mut self,
                _node: &Node,
                _step: StepInfo,
                inputs: &[&Tensor],
            ) -> Option<Tensor> {
                Some(inputs[0].map(|v| v + 100.0))
            }
        }
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let l = g.add("fc", LayerOp::Linear { d_in: 2, d_out: 2, bias: false }, &[x]);
        g.set_output(l);
        let latent = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let out = forward(
            &g,
            &Weights::new(),
            &Bindings { latent: &latent, context: None, t: 0.0 },
            step0(),
            &mut Override,
        )
        .unwrap();
        assert_eq!(out.as_slice(), &[101.0, 102.0]);
    }

    #[test]
    fn observe_sees_every_node() {
        struct Counter(usize);
        impl LinearHook for Counter {
            fn observe(&mut self, _n: &Node, _s: StepInfo, _i: &[&Tensor], _o: &Tensor) {
                self.0 += 1;
            }
        }
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let s = g.add("silu", LayerOp::SiLU, &[x]);
        g.set_output(s);
        let latent = Tensor::zeros(&[1, 2]);
        let mut c = Counter(0);
        let bindings = Bindings { latent: &latent, context: None, t: 0.0 };
        forward(&g, &Weights::new(), &bindings, step0(), &mut c).unwrap();
        assert_eq!(c.0, 2);
    }

    #[test]
    fn weighted_node_without_weights_errors() {
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let l = g.add("fc", LayerOp::Linear { d_in: 2, d_out: 2, bias: false }, &[x]);
        g.set_output(l);
        let latent = Tensor::zeros(&[1, 2]);
        let bindings = Bindings { latent: &latent, context: None, t: 0.0 };
        let err = forward(&g, &Weights::new(), &bindings, step0(), &mut NullHook).unwrap_err();
        assert!(err.to_string().contains("node 1 has no weights"), "{err}");
    }

    #[test]
    fn tokens_roundtrip() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 2, 2]).unwrap();
        let t = to_tokens(&x).unwrap();
        assert_eq!(t.dims(), &[4, 3]);
        let back = to_spatial(&t, 3, 2, 2).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn upsample2x_replicates() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let y = upsample2x(&x).unwrap();
        assert_eq!(y.dims(), &[1, 4, 4]);
        assert_eq!(y.at(&[0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 0, 1]), 1.0);
        assert_eq!(y.at(&[0, 1, 1]), 1.0);
        assert_eq!(y.at(&[0, 3, 3]), 4.0);
        // Linearity: upsample(a + b) == upsample(a) + upsample(b) — why
        // Upsample2x is classified difference-transparent.
        let b = Tensor::full(&[1, 2, 2], 0.5);
        let lhs = upsample2x(&x.zip_with(&b, |p, q| p + q).unwrap()).unwrap();
        let rhs = upsample2x(&x).unwrap().zip_with(&upsample2x(&b).unwrap(), |p, q| p + q).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn modulate_and_gate() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let s = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 10.0], &[1, 2]).unwrap();
        let m = modulate(&x, &s, &b).unwrap();
        assert_eq!(m.as_slice(), &[2.0, 12.0, 6.0, 14.0]);
        let g = gate(&x, &s).unwrap();
        assert_eq!(g.as_slice(), &[1.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn slice_cols_bounds() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let s = slice_cols(&x, 1, 2).unwrap();
        assert_eq!(s.as_slice(), &[2.0, 3.0, 5.0, 6.0]);
        assert!(slice_cols(&x, 2, 2).is_err());
    }

    #[test]
    fn concat_channels_shapes() {
        let a = Tensor::zeros(&[1, 2, 2]);
        let b = Tensor::full(&[2, 2, 2], 1.0);
        let c = concat_channels(&a, &b).unwrap();
        assert_eq!(c.dims(), &[3, 2, 2]);
        assert_eq!(c.as_slice()[4], 1.0);
        assert!(concat_channels(&a, &Tensor::zeros(&[1, 3, 3])).is_err());
    }

    #[test]
    fn missing_context_errors() {
        let mut g = LayerGraph::new();
        let c = g.add("ctx", LayerOp::Input(InputKind::Context), &[]);
        g.set_output(c);
        let latent = Tensor::zeros(&[1, 1]);
        let r = forward(
            &g,
            &Weights::new(),
            &Bindings { latent: &latent, context: None, t: 0.0 },
            step0(),
            &mut NullHook,
        );
        assert!(r.is_err());
    }

    #[test]
    fn remaining_unary_ops_execute() {
        // Sigmoid, Mul, Scale, AvgPool and TimestepEmbed through the
        // executor (not just the kernel functions).
        let mut g = LayerGraph::new();
        let _x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let t = g.add("t", LayerOp::Input(InputKind::Timestep), &[]);
        let emb = g.add("emb", LayerOp::TimestepEmbed { dim: 4 }, &[t]);
        let sig = g.add("sig", LayerOp::Sigmoid, &[emb]);
        let scaled = g.add("scaled", LayerOp::Scale(2.0), &[sig]);
        let prod = g.add("prod", LayerOp::Mul, &[scaled, scaled]);
        g.set_output(prod);
        let latent = Tensor::zeros(&[1, 1]);
        let out = forward(
            &g,
            &Weights::new(),
            &Bindings { latent: &latent, context: None, t: 0.0 },
            step0(),
            &mut NullHook,
        )
        .unwrap();
        assert_eq!(out.dims(), &[1, 4]);
        // sigmoid(0)=0.5 → ×2 = 1 → squared = 1 for the sin(0) slots.
        assert!((out.as_slice()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn avg_pool_through_graph() {
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let p = g.add("pool", LayerOp::AvgPool { window: 2 }, &[x]);
        g.set_output(p);
        let latent = Tensor::full(&[1, 4, 4], 3.0);
        let out = forward(
            &g,
            &Weights::new(),
            &Bindings { latent: &latent, context: None, t: 0.0 },
            step0(),
            &mut NullHook,
        )
        .unwrap();
        assert_eq!(out.dims(), &[1, 2, 2]);
        assert!(out.as_slice().iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn to_spatial_shape_mismatch_errors() {
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let s = g.add("sp", LayerOp::ToSpatial { c: 2, h: 2, w: 2 }, &[x]);
        g.set_output(s);
        let latent = Tensor::zeros(&[3, 2]); // wrong token count
        assert!(forward(
            &g,
            &Weights::new(),
            &Bindings { latent: &latent, context: None, t: 0.0 },
            step0(),
            &mut NullHook,
        )
        .is_err());
    }

    #[test]
    fn qk_scaling_applied() {
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let qk = g.add("qk", LayerOp::MatmulQK, &[x, x]);
        g.set_output(qk);
        // Q = K = [[2, 0]], d = 2 → score = 4 / sqrt(2).
        let latent = Tensor::from_vec(vec![2.0, 0.0], &[1, 2]).unwrap();
        let out = forward(
            &g,
            &Weights::new(),
            &Bindings { latent: &latent, context: None, t: 0.0 },
            step0(),
            &mut NullHook,
        )
        .unwrap();
        assert!((out.as_slice()[0] - 4.0 / 2.0f32.sqrt()).abs() < 1e-6);
    }
}
