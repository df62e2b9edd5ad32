//! Compiled trace plans: flatten → schedule → arena → tight interpreter.
//!
//! A tree-walking executor ([`crate::executor::forward`], kept as the test
//! oracle) re-resolves operands, re-matches on [`LayerOp`] variants, and
//! allocates a fresh [`Tensor`] for every node of every sampler step — even
//! though the graph, the shapes, and the schedule are identical across all
//! steps and all re-simulations of a model. This module compiles a
//! [`LayerGraph`] **once** into a [`TracePlan`]:
//!
//! 1. **Flatten**: node id order already *is* a topological order (the
//!    builder invariant), so the plan is a flat `Vec<PlanOp>` with
//!    `ops[i].node == i` — a small bytecode of opcode + operand spans +
//!    shape immediates, with all shape inference and validation done at
//!    compile time.
//! 2. **Liveness + arena**: a backwards last-use analysis feeds a first-fit
//!    span allocator with merge-on-free, planning one shared `f32` arena
//!    where dead intermediates are overwritten by later nodes. Offsets are
//!    deterministic: compiling the same graph twice yields the same plan.
//! 3. **Execute**: [`TracePlan::execute`] interprets the flat op array over
//!    a caller-owned [`PlanArena`] with zero per-node dispatch overhead and
//!    zero steady-state allocation (one output `Tensor` per forward pass).
//!
//! **Hooks run in the plan.** Linear sites (conv, FC, `Q·Kᵀ`, `P·V`) are
//! first-class: under a non-noop [`LinearHook`] the interpreter hands the
//! hook each site's operand slices *in the arena*, their compile-time dims
//! and the op's output span. The hook either writes the result there
//! (`ditto-core`'s `DittoHook`: quantize → encode → integer kernel → dequant
//! straight into the arena) or declines, in which case the f32 opcode runs
//! and the hook observes the operands (`CalibrationHook`: `abs_max` on the
//! slices). State that outlives a step (previous-step levels, accumulators)
//! belongs to the hook, not the arena.
//!
//! **Bit-identity is the contract.** Every opcode routes through the exact
//! slice kernels the oracle uses (`tensor::ops::*_into`, the shared
//! executor kernels) in the same order with the same accumulation
//! discipline, so for every model, sampler step, hook and kernel backend
//! the plan's outputs — and everything a hook records along the way — are
//! byte-identical to `executor::forward`'s, including `-0.0` signs.
//!
//! Safety note: the interpreter is 100% safe Rust. The allocator reserves a
//! node's output span *before* releasing the spans of inputs dying at that
//! node, so an op's output never overlaps any of its (still live) inputs;
//! disjoint contiguous spans are then carved with `split_at_mut`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::executor::{
    add_bias2d_into, add_row_bias, concat_cols_into, gate_into, modulate_into, norm_params,
    slice_cols_into, transpose_into, unpatchify_into, upsample2x_into, Bindings, LinearHook,
    OperandView, StepInfo,
};
use crate::graph::{LayerGraph, NodeId};
use crate::op::{InputKind, LayerOp};
use crate::weights::Weights;
use tensor::ops;
use tensor::{backend, Result, Tensor, TensorError};

// ---------------------------------------------------------------------------
// Plan data model.
// ---------------------------------------------------------------------------

/// A contiguous `f32` interval of the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Start offset (in `f32` elements).
    pub off: usize,
    /// Element count.
    pub len: usize,
}

impl Span {
    fn end(self) -> usize {
        self.off + self.len
    }

    fn overlaps(self, other: Span) -> bool {
        self.len > 0 && other.len > 0 && self.off < other.end() && other.off < self.end()
    }
}

/// Opcode + shape immediates. Tensor-valued parameters (weights, norm
/// gains) are *not* copied into the plan; the interpreter borrows them from
/// the caller's [`Weights`] under [`PlanOp::node`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpCode {
    /// Copy the latent binding into the slot.
    CopyLatent,
    /// Copy the context binding into the slot (errors if absent, matching
    /// the tree executor).
    CopyContext,
    /// Write the scalar diffusion time `t` into a 1-element slot.
    WriteT,
    /// Sinusoidal time embedding of the input scalar.
    TimestepEmbed {
        /// Embedding width.
        dim: usize,
    },
    /// 2-D convolution — every `Conv2d` compiles to it. Runs
    /// `ops::conv2d_lowered_into`: the bias seeds the channel-major output,
    /// the transposed im2col matrix `[ckk, pixels]` is lowered into
    /// `scratch` (nothing for a pointwise conv, whose input is read in
    /// place), and one matmul against the weight in its native
    /// `[c_out, ckk]` layout accumulates onto it. It is the lowering the
    /// tree executor's `ops::conv2d` runs, so values match it bit for bit
    /// (asserted across every model/backend by the identity suites).
    Conv2dIm2col {
        /// Input channels.
        c_in: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// Output channels.
        c_out: usize,
        /// Lowered shared dimension `c_in · k · k`.
        ckk: usize,
        /// Output spatial extent `h_out · w_out`.
        pixels: usize,
        /// Kernel/stride/padding.
        params: ops::Conv2dParams,
        /// Arena span the input is lowered into (`ops::conv2d_scratch_len`).
        scratch: Span,
    },
    /// `[m, k] × [k, n] (+ bias)`; weight/bias borrowed from the node's
    /// [`Weights`].
    Linear {
        /// Output rows.
        m: usize,
        /// Shared dimension.
        k: usize,
        /// Output columns.
        n: usize,
    },
    /// Scaled attention scores `Q·Kᵀ / √d` in two phases: transpose K into
    /// `scratch`, matmul into the output, scale in place.
    MatmulQk {
        /// Query rows.
        m: usize,
        /// Head dimension `d`.
        k: usize,
        /// Key rows.
        n: usize,
        /// Arena span holding Kᵀ between the phases.
        scratch: Span,
        /// `1/√d`, computed at compile time exactly as the tree does.
        scale: f32,
    },
    /// Attention-weighted values `[m, k] × [k, n]`.
    MatmulPv {
        /// Output rows.
        m: usize,
        /// Shared dimension.
        k: usize,
        /// Output columns.
        n: usize,
    },
    /// Group normalization; gamma/beta borrowed from the node's [`Weights`].
    GroupNorm {
        /// Group count.
        groups: usize,
        /// Channels.
        c: usize,
        /// Spatial extent `h·w`.
        plane: usize,
    },
    /// Layer normalization; gamma/beta borrowed from the node's [`Weights`].
    LayerNorm {
        /// Token rows.
        rows: usize,
        /// Feature columns.
        cols: usize,
    },
    /// Elementwise SiLU.
    Silu,
    /// Elementwise GeLU.
    Gelu,
    /// Elementwise sigmoid.
    Sigmoid,
    /// Row-wise softmax.
    Softmax {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Elementwise sum of two equal-shape slots.
    Add,
    /// Elementwise product of two equal-shape slots.
    Mul,
    /// Multiply by a compile-time constant.
    Scale {
        /// The factor.
        s: f32,
    },
    /// adaLN modulate `x·(1+s)+b`.
    Modulate {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Column-broadcast gate `x·g`.
    Gate {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Per-channel bias over `[C, H·W]`.
    AddBias2d {
        /// Channels.
        c: usize,
        /// Spatial extent `h·w`.
        plane: usize,
    },
    /// Row-major transpose (serves both `ToTokens` and `ToSpatial`).
    Transpose {
        /// Input rows.
        rows: usize,
        /// Input columns.
        cols: usize,
    },
    /// Windowed average pooling.
    AvgPool {
        /// Channels.
        c: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// Window edge.
        window: usize,
    },
    /// Column slice of a `[rows, cols]` slot.
    SliceCols {
        /// Rows.
        rows: usize,
        /// Input columns.
        cols: usize,
        /// First column.
        start: usize,
        /// Column count.
        len: usize,
    },
    /// Concatenation along axis 0 (`ConcatChannels`): the first input's
    /// flat length is `split`.
    ConcatRows {
        /// Flat length of the first operand.
        split: usize,
    },
    /// Concatenation along the feature axis.
    ConcatCols {
        /// Rows.
        rows: usize,
        /// First operand columns.
        ca: usize,
        /// Second operand columns.
        cb: usize,
    },
    /// Nearest-neighbour 2× upsampling.
    Upsample2x {
        /// Channels.
        c: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
    },
    /// Patch-token to image layout inverse.
    Unpatchify {
        /// Channels.
        c: usize,
        /// Patch rows.
        hp: usize,
        /// Patch columns.
        wp: usize,
        /// Patch edge.
        p: usize,
    },
}

/// Stable profiling names for every [`OpCode`] kind, in declaration order.
/// Indexed by [`OpCode::kind_index`]; the fixed arity lets the profiled
/// interpreter accumulate per-kind totals in a flat array with no hashing
/// on the hot path.
pub const KIND_NAMES: [&str; 27] = [
    "copy_latent",
    "copy_context",
    "write_t",
    "timestep_embed",
    "conv2d_im2col",
    "linear",
    "matmul_qk",
    "matmul_pv",
    "group_norm",
    "layer_norm",
    "silu",
    "gelu",
    "sigmoid",
    "softmax",
    "add",
    "mul",
    "scale",
    "modulate",
    "gate",
    "add_bias2d",
    "transpose",
    "avg_pool",
    "slice_cols",
    "concat_rows",
    "concat_cols",
    "upsample2x",
    "unpatchify",
];

impl OpCode {
    /// Index of this opcode's kind into [`KIND_NAMES`].
    pub fn kind_index(&self) -> usize {
        match self {
            OpCode::CopyLatent => 0,
            OpCode::CopyContext => 1,
            OpCode::WriteT => 2,
            OpCode::TimestepEmbed { .. } => 3,
            OpCode::Conv2dIm2col { .. } => 4,
            OpCode::Linear { .. } => 5,
            OpCode::MatmulQk { .. } => 6,
            OpCode::MatmulPv { .. } => 7,
            OpCode::GroupNorm { .. } => 8,
            OpCode::LayerNorm { .. } => 9,
            OpCode::Silu => 10,
            OpCode::Gelu => 11,
            OpCode::Sigmoid => 12,
            OpCode::Softmax { .. } => 13,
            OpCode::Add => 14,
            OpCode::Mul => 15,
            OpCode::Scale { .. } => 16,
            OpCode::Modulate { .. } => 17,
            OpCode::Gate { .. } => 18,
            OpCode::AddBias2d { .. } => 19,
            OpCode::Transpose { .. } => 20,
            OpCode::AvgPool { .. } => 21,
            OpCode::SliceCols { .. } => 22,
            OpCode::ConcatRows { .. } => 23,
            OpCode::ConcatCols { .. } => 24,
            OpCode::Upsample2x { .. } => 25,
            OpCode::Unpatchify { .. } => 26,
        }
    }

    /// Stable profiling name for this opcode's kind.
    pub fn kind_name(&self) -> &'static str {
        KIND_NAMES[self.kind_index()]
    }

    /// Whether this opcode executes a linear layer — the sites a
    /// [`LinearHook`] is called at. Agrees with `LayerOp::is_linear_layer`
    /// on the op's node (asserted at compile time).
    pub fn is_linear_site(&self) -> bool {
        matches!(
            self,
            OpCode::Conv2dIm2col { .. }
                | OpCode::Linear { .. }
                | OpCode::MatmulQk { .. }
                | OpCode::MatmulPv { .. }
        )
    }
}

/// Max operand count of any [`LayerOp`] (Modulate).
const MAX_ARITY: usize = 3;

/// One scheduled instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOp {
    /// The graph node this op executes (`ops[i].node == i`).
    pub node: NodeId,
    /// Output span.
    pub out: Span,
    /// Operand spans (first `arity` entries meaningful).
    pub ins: [Span; MAX_ARITY],
    /// Producer node ids of the operands (first `arity` meaningful).
    pub srcs: [NodeId; MAX_ARITY],
    /// Operand count.
    pub arity: usize,
    /// What to run.
    pub code: OpCode,
}

impl PlanOp {
    fn inputs(&self) -> &[Span] {
        &self.ins[..self.arity]
    }

    fn scratch(&self) -> Option<Span> {
        match self.code {
            OpCode::MatmulQk { scratch, .. } | OpCode::Conv2dIm2col { scratch, .. } => {
                Some(scratch)
            }
            _ => None,
        }
    }
}

/// Reusable execution buffer for [`TracePlan::execute`]. One arena serves
/// any number of sequential forward passes (and any number of plans —
/// `execute` resizes it on first use per plan).
#[derive(Debug, Default)]
pub struct PlanArena {
    buf: Vec<f32>,
}

impl PlanArena {
    /// An empty arena (allocates on first `execute`).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A compiled forward pass: flat pre-scheduled ops over one arena buffer.
#[derive(Debug, Clone)]
pub struct TracePlan {
    ops: Vec<PlanOp>,
    arena_len: usize,
    /// The graph's output node.
    output: NodeId,
    /// Inferred output dims of every node (`dims[i]` for `ops[i]`): what a
    /// hook is told about a linear site's operands.
    dims: Vec<Vec<usize>>,
    latent_dims: Vec<usize>,
    context_dims: Option<Vec<usize>>,
    digest: u64,
}

// ---------------------------------------------------------------------------
// Compilation.
// ---------------------------------------------------------------------------

/// Deterministic first-fit span allocator with merge-on-free.
#[derive(Debug, Default)]
struct ArenaPlanner {
    /// Free spans as `(off, len)`, sorted by offset, non-adjacent.
    free: Vec<(usize, usize)>,
    /// High-water mark == final arena length.
    high: usize,
}

impl ArenaPlanner {
    fn alloc(&mut self, len: usize) -> Span {
        if len == 0 {
            return Span { off: 0, len: 0 };
        }
        for i in 0..self.free.len() {
            let (off, flen) = self.free[i];
            if flen >= len {
                if flen == len {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + len, flen - len);
                }
                return Span { off, len };
            }
        }
        let off = self.high;
        self.high += len;
        Span { off, len }
    }

    fn release(&mut self, s: Span) {
        if s.len == 0 {
            return;
        }
        let pos = self.free.partition_point(|&(o, _)| o < s.off);
        self.free.insert(pos, (s.off, s.len));
        if pos + 1 < self.free.len() && self.free[pos].0 + self.free[pos].1 == self.free[pos + 1].0
        {
            self.free[pos].1 += self.free[pos + 1].1;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].0 + self.free[pos - 1].1 == self.free[pos].0 {
            self.free[pos - 1].1 += self.free[pos].1;
            self.free.remove(pos);
        }
    }
}

fn product(dims: &[usize]) -> usize {
    dims.iter().product()
}

fn shape_err(left: &[usize], right: &[usize]) -> TensorError {
    TensorError::ShapeMismatch { left: left.to_vec(), right: right.to_vec() }
}

fn rank(dims: &[usize], want: usize) -> Result<()> {
    if dims.len() == want {
        Ok(())
    } else {
        Err(TensorError::InvalidArgument(format!("plan: expected rank {want}, got {:?}", dims)))
    }
}

impl TracePlan {
    /// Compiles `graph` for fixed input shapes. Shape inference mirrors the
    /// tree executor's runtime checks: any graph the tree could not execute
    /// fails to compile (and callers then fall back to the tree walk, which
    /// reports the authoritative error).
    ///
    /// # Errors
    ///
    /// Returns an error when the graph is inconsistent with the given input
    /// shapes (or needs a context and `context_dims` is `None`).
    pub fn compile(
        graph: &LayerGraph,
        latent_dims: &[usize],
        context_dims: Option<&[usize]>,
    ) -> Result<TracePlan> {
        let n = graph.len();
        // Liveness: last consumer per node; the output (and any dead node)
        // handled below.
        let mut last_use: Vec<usize> = (0..n).collect();
        for node in graph.nodes() {
            for &i in &node.inputs {
                last_use[i] = last_use[i].max(node.id);
            }
        }
        let output = graph.output();
        last_use[output] = usize::MAX;

        let mut dims: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut spans: Vec<Span> = Vec::with_capacity(n);
        let mut ops: Vec<PlanOp> = Vec::with_capacity(n);
        let mut planner = ArenaPlanner::default();

        for node in graph.nodes() {
            let in_dims: Vec<&[usize]> = node.inputs.iter().map(|&i| dims[i].as_slice()).collect();
            let (out_dims, code, scratch_len) =
                infer_node(&node.op, &in_dims, latent_dims, context_dims)?;
            debug_assert_eq!(code.is_linear_site(), node.op.is_linear_layer());

            // Allocate the output (and scratch) while every input is still
            // live, then release dying inputs: the output of a node can
            // never alias its own inputs.
            let out = planner.alloc(product(&out_dims));
            let code = match code {
                OpCode::MatmulQk { m, k, n, scale, .. } => {
                    let scratch = planner.alloc(scratch_len);
                    OpCode::MatmulQk { m, k, n, scratch, scale }
                }
                OpCode::Conv2dIm2col { c_in, h, w, c_out, ckk, pixels, params, .. } => {
                    let scratch = planner.alloc(scratch_len);
                    OpCode::Conv2dIm2col { c_in, h, w, c_out, ckk, pixels, params, scratch }
                }
                other => other,
            };
            let mut ins = [Span::default(); MAX_ARITY];
            let mut srcs = [0usize; MAX_ARITY];
            for ((slot, src), &i) in ins.iter_mut().zip(&mut srcs).zip(&node.inputs) {
                *slot = spans[i];
                *src = i;
            }
            ops.push(PlanOp { node: node.id, out, ins, srcs, arity: node.inputs.len(), code });

            for &i in &node.inputs {
                if last_use[i] == node.id {
                    planner.release(spans[i]);
                    // Mark released so a diamond consumer at the same node
                    // doesn't double-free.
                    last_use[i] = usize::MAX - 1;
                }
            }
            if let Some(s) = ops.last().and_then(PlanOp::scratch) {
                planner.release(s);
            }
            if last_use[node.id] == node.id {
                // Dead node: still executed (faithful error/effect
                // behavior), but its slot is immediately reusable.
                planner.release(out);
            }
            dims.push(out_dims);
            spans.push(out);
        }

        Ok(TracePlan {
            output,
            dims,
            ops,
            arena_len: planner.high,
            latent_dims: latent_dims.to_vec(),
            context_dims: context_dims.map(<[usize]>::to_vec),
            digest: graph.structure_digest(),
        })
    }

    /// Number of compiled ops (== graph nodes).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Arena size in `f32` elements.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Output tensor dimensions.
    pub fn out_dims(&self) -> &[usize] {
        &self.dims[self.output]
    }

    /// The compiled instruction stream (inspection / liveness tests).
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// The structure digest of the graph this plan was compiled from.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Whether `bindings` carry the shapes this plan was compiled for.
    pub fn matches(&self, bindings: &Bindings<'_>) -> bool {
        if bindings.latent.dims() != self.latent_dims.as_slice() {
            return false;
        }
        match (&self.context_dims, bindings.context) {
            (Some(d), Some(c)) => c.dims() == d.as_slice(),
            // Plan compiled without a context: a supplied one is ignored by
            // the graph anyway only if the graph has no context input — but
            // then compile would have succeeded with `None` and the tree
            // ignores the binding too, so accept it.
            (None, _) => true,
            // Graph needs a context the binding lacks: let the plan run and
            // report the same "model needs a context" error as the tree.
            (Some(_), None) => true,
        }
    }

    /// Exhaustively checks the arena schedule: no op may overwrite (with
    /// its output or scratch) a span that a later op still reads. O(n²·a);
    /// test-support only.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate_liveness(&self) -> std::result::Result<(), String> {
        for (i, op) in self.ops.iter().enumerate() {
            for (slot, &producer) in op.inputs().iter().zip(&op.srcs) {
                for p in producer + 1..=i {
                    let clobber = &self.ops[p];
                    if clobber.out.overlaps(*slot) {
                        return Err(format!(
                            "op {p} output {:?} clobbers op {i} input {:?} (produced by {producer})",
                            clobber.out, slot
                        ));
                    }
                    if let Some(s) = clobber.scratch() {
                        if s.overlaps(*slot) {
                            return Err(format!(
                                "op {p} scratch {:?} clobbers op {i} input {:?}",
                                s, slot
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs the compiled forward pass over `arena`, returning the output
    /// tensor. Under a non-noop `hook` every linear site goes through
    /// [`LinearHook::compute_linear_into`] / [`LinearHook::observe_linear`]
    /// (see the module docs). Bit-identical to `executor::forward` with the
    /// same hook.
    ///
    /// # Errors
    ///
    /// Returns an error if the bindings' shapes disagree with the compiled
    /// shapes, (matching the oracle) the graph needs a context the bindings
    /// lack, or `weights` holds nothing for a weighted node.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is not the graph this plan was compiled from
    /// (debug builds assert the structure digest), or `weights` were set for
    /// another structure.
    pub fn execute(
        &self,
        graph: &LayerGraph,
        weights: &Weights,
        bindings: &Bindings<'_>,
        step: StepInfo,
        hook: &mut dyn LinearHook,
        arena: &mut PlanArena,
    ) -> Result<Tensor> {
        debug_assert_eq!(self.digest, graph.structure_digest(), "plan/graph mismatch");
        if bindings.latent.dims() != self.latent_dims.as_slice() {
            return Err(shape_err(bindings.latent.dims(), &self.latent_dims));
        }
        if let (Some(want), Some(ctx)) = (&self.context_dims, bindings.context) {
            if ctx.dims() != want.as_slice() {
                return Err(shape_err(ctx.dims(), want));
            }
        }
        arena.buf.resize(self.arena_len, 0.0);
        let run = Run {
            plan: self,
            graph,
            weights,
            bindings,
            step,
            hooked: !hook.is_noop(),
            kb: backend::active(),
        };
        let buf = arena.buf.as_mut_slice();

        if profiling_enabled() {
            run.ops_profiled(hook, buf)?;
        } else {
            for op in &self.ops {
                run.op(op, hook, buf)?;
            }
        }
        let out = self.ops[self.output].out;
        Tensor::from_vec(buf[out.off..out.end()].to_vec(), self.out_dims())
    }
}

/// What every op of one forward pass shares.
struct Run<'a> {
    plan: &'a TracePlan,
    graph: &'a LayerGraph,
    weights: &'a Weights,
    bindings: &'a Bindings<'a>,
    step: StepInfo,
    /// Whether the pass runs under a non-noop hook.
    hooked: bool,
    kb: backend::KernelBackend,
}

impl Run<'_> {
    /// Executes one op: [`exec_op`], around which a linear site of a hooked
    /// pass first offers the hook the computation and, if it declines,
    /// shows it the f32 result.
    fn op(&self, op: &PlanOp, hook: &mut dyn LinearHook, buf: &mut [f32]) -> Result<()> {
        if !(self.hooked && op.code.is_linear_site()) {
            return exec_op(op, self.weights, self.bindings, self.kb, buf);
        }
        let node = self.graph.node(op.node);
        let dims = &self.plan.dims;
        {
            let (lo, out, hi) = carve(buf, op.out);
            let inputs = site_inputs(op, dims, lo, hi);
            if hook.compute_linear_into(node, self.step, &inputs[..op.arity], out) {
                return Ok(());
            }
        }
        exec_op(op, self.weights, self.bindings, self.kb, buf)?;
        let (lo, out, hi) = carve(buf, op.out);
        let inputs = site_inputs(op, dims, lo, hi);
        let output = OperandView { data: out, dims: &dims[op.node] };
        hook.observe_linear(node, self.step, &inputs[..op.arity], output);
        Ok(())
    }

    /// The interpreter loop with per-opcode-kind timing folded into the
    /// process-wide exec registry. Runs exactly the same [`Run::op`] calls
    /// in the same order as the unprofiled loop, so results stay
    /// bit-identical; timing is observed around each call, never inside
    /// it. A hook's time at a linear site lands on that site's kind.
    fn ops_profiled(&self, hook: &mut dyn LinearHook, buf: &mut [f32]) -> Result<()> {
        let step_start = Instant::now();
        let mut kinds = [KindAccum { calls: 0, ns: 0, bytes: 0 }; KIND_NAMES.len()];
        for op in &self.plan.ops {
            let t0 = Instant::now();
            self.op(op, hook, buf)?;
            let acc = &mut kinds[op.code.kind_index()];
            acc.calls += 1;
            acc.ns += t0.elapsed().as_nanos() as u64;
            acc.bytes += (op.out.len * 4) as u64;
        }
        record_exec_step(self.plan.digest, self.hooked, self.plan.arena_len, step_start, &kinds);
        Ok(())
    }
}

/// The operands of linear site `op` (first `op.arity` entries meaningful)
/// against the halves [`carve`] left around its output.
fn site_inputs<'a>(
    op: &PlanOp,
    dims: &'a [Vec<usize>],
    lo: &'a [f32],
    hi: &'a [f32],
) -> [OperandView<'a>; 2] {
    [0, 1]
        .map(|i| OperandView { data: operand(lo, hi, op.out, op.ins[i]), dims: &dims[op.srcs[i]] })
}

/// Shape inference + opcode selection for one node. Returns the output
/// dims, the opcode (QK scratch span patched in by the caller), and the
/// scratch length.
fn infer_node(
    op: &LayerOp,
    ins: &[&[usize]],
    latent_dims: &[usize],
    context_dims: Option<&[usize]>,
) -> Result<(Vec<usize>, OpCode, usize)> {
    let no_scratch = 0usize;
    match op {
        LayerOp::Input(kind) => match kind {
            InputKind::Latent => Ok((latent_dims.to_vec(), OpCode::CopyLatent, no_scratch)),
            InputKind::Context => {
                context_dims.map(|d| (d.to_vec(), OpCode::CopyContext, no_scratch)).ok_or_else(
                    || TensorError::InvalidArgument("plan: model needs a context shape".into()),
                )
            }
            InputKind::Timestep => Ok((vec![1], OpCode::WriteT, no_scratch)),
        },
        LayerOp::TimestepEmbed { dim } => {
            if *dim == 0 || dim % 2 != 0 || product(ins[0]) == 0 {
                return Err(TensorError::InvalidArgument(
                    "plan: embedding dim must be positive and even".into(),
                ));
            }
            Ok((vec![1, *dim], OpCode::TimestepEmbed { dim: *dim }, no_scratch))
        }
        &LayerOp::Conv2d { c_in: want, c_out, params, .. } => {
            rank(ins[0], 3)?;
            let (c_in, h, w) = (ins[0][0], ins[0][1], ins[0][2]);
            if c_in != want {
                return Err(shape_err(ins[0], &[c_out, want, params.kernel, params.kernel]));
            }
            if params.stride == 0 {
                return Err(TensorError::InvalidArgument("plan: zero stride".into()));
            }
            let (ho, wo) = (params.out_extent(h), params.out_extent(w));
            let ckk = c_in * params.kernel * params.kernel;
            let code = OpCode::Conv2dIm2col {
                c_in,
                h,
                w,
                c_out,
                ckk,
                pixels: ho * wo,
                params,
                scratch: Span::default(),
            };
            Ok((vec![c_out, ho, wo], code, ops::conv2d_scratch_len(c_in, h, w, params)))
        }
        &LayerOp::Linear { d_in, d_out: n, .. } => {
            rank(ins[0], 2)?;
            let (m, k) = (ins[0][0], ins[0][1]);
            if d_in != k {
                return Err(shape_err(ins[0], &[d_in, n]));
            }
            Ok((vec![m, n], OpCode::Linear { m, k, n }, no_scratch))
        }
        LayerOp::MatmulQK => {
            rank(ins[0], 2)?;
            rank(ins[1], 2)?;
            let (m, d) = (ins[0][0], ins[0][1]);
            let (n, dk) = (ins[1][0], ins[1][1]);
            if dk != d {
                return Err(shape_err(ins[0], ins[1]));
            }
            let scale = 1.0 / (d as f32).sqrt();
            Ok((
                vec![m, n],
                OpCode::MatmulQk { m, k: d, n, scratch: Span::default(), scale },
                d * n,
            ))
        }
        LayerOp::MatmulPV => {
            rank(ins[0], 2)?;
            rank(ins[1], 2)?;
            let (m, k) = (ins[0][0], ins[0][1]);
            if ins[1][0] != k {
                return Err(shape_err(ins[0], ins[1]));
            }
            Ok((vec![m, ins[1][1]], OpCode::MatmulPv { m, k, n: ins[1][1] }, no_scratch))
        }
        &LayerOp::GroupNorm { groups, channels } => {
            rank(ins[0], 3)?;
            let c = ins[0][0];
            if groups == 0 || !c.is_multiple_of(groups) {
                return Err(TensorError::InvalidArgument(format!(
                    "groups {groups} must divide channels {c}"
                )));
            }
            if channels != c {
                return Err(TensorError::LengthMismatch { expected: c, actual: channels });
            }
            Ok((
                ins[0].to_vec(),
                OpCode::GroupNorm { groups, c, plane: ins[0][1] * ins[0][2] },
                no_scratch,
            ))
        }
        &LayerOp::LayerNorm { features } => {
            rank(ins[0], 2)?;
            let cols = ins[0][1];
            if features != cols {
                return Err(TensorError::LengthMismatch { expected: cols, actual: features });
            }
            Ok((ins[0].to_vec(), OpCode::LayerNorm { rows: ins[0][0], cols }, no_scratch))
        }
        LayerOp::SiLU => Ok((ins[0].to_vec(), OpCode::Silu, no_scratch)),
        LayerOp::GeLU => Ok((ins[0].to_vec(), OpCode::Gelu, no_scratch)),
        LayerOp::Sigmoid => Ok((ins[0].to_vec(), OpCode::Sigmoid, no_scratch)),
        LayerOp::Softmax => {
            rank(ins[0], 2)?;
            Ok((ins[0].to_vec(), OpCode::Softmax { rows: ins[0][0], cols: ins[0][1] }, no_scratch))
        }
        LayerOp::Add | LayerOp::Mul => {
            if ins[0] != ins[1] {
                return Err(shape_err(ins[0], ins[1]));
            }
            let code = if matches!(op, LayerOp::Add) { OpCode::Add } else { OpCode::Mul };
            Ok((ins[0].to_vec(), code, no_scratch))
        }
        LayerOp::Scale(s) => Ok((ins[0].to_vec(), OpCode::Scale { s: *s }, no_scratch)),
        LayerOp::Modulate => {
            rank(ins[0], 2)?;
            let (rows, cols) = (ins[0][0], ins[0][1]);
            if product(ins[1]) != cols || product(ins[2]) != cols {
                return Err(TensorError::LengthMismatch {
                    expected: cols,
                    actual: product(ins[1]),
                });
            }
            Ok((ins[0].to_vec(), OpCode::Modulate { rows, cols }, no_scratch))
        }
        LayerOp::Gate => {
            rank(ins[0], 2)?;
            let (rows, cols) = (ins[0][0], ins[0][1]);
            if product(ins[1]) != cols {
                return Err(TensorError::LengthMismatch {
                    expected: cols,
                    actual: product(ins[1]),
                });
            }
            Ok((ins[0].to_vec(), OpCode::Gate { rows, cols }, no_scratch))
        }
        LayerOp::AddBias2d => {
            rank(ins[0], 3)?;
            let c = ins[0][0];
            if product(ins[1]) != c {
                return Err(TensorError::LengthMismatch { expected: c, actual: product(ins[1]) });
            }
            Ok((ins[0].to_vec(), OpCode::AddBias2d { c, plane: ins[0][1] * ins[0][2] }, no_scratch))
        }
        LayerOp::ToTokens => {
            rank(ins[0], 3)?;
            let (c, h, w) = (ins[0][0], ins[0][1], ins[0][2]);
            Ok((vec![h * w, c], OpCode::Transpose { rows: c, cols: h * w }, no_scratch))
        }
        LayerOp::ToSpatial { c, h, w } => {
            rank(ins[0], 2)?;
            if ins[0] != [h * w, *c] {
                return Err(shape_err(ins[0], &[h * w, *c]));
            }
            Ok((vec![*c, *h, *w], OpCode::Transpose { rows: h * w, cols: *c }, no_scratch))
        }
        LayerOp::AvgPool { window } => {
            rank(ins[0], 3)?;
            let (c, h, w) = (ins[0][0], ins[0][1], ins[0][2]);
            if *window == 0 || h % window != 0 || w % window != 0 {
                return Err(TensorError::InvalidArgument(format!(
                    "window {window} must tile {h}x{w}"
                )));
            }
            Ok((
                vec![c, h / window, w / window],
                OpCode::AvgPool { c, h, w, window: *window },
                no_scratch,
            ))
        }
        LayerOp::SliceCols { start, len } => {
            rank(ins[0], 2)?;
            let (rows, cols) = (ins[0][0], ins[0][1]);
            if start + len > cols {
                return Err(TensorError::InvalidArgument(format!(
                    "slice {start}+{len} exceeds {cols} columns"
                )));
            }
            Ok((
                vec![rows, *len],
                OpCode::SliceCols { rows, cols, start: *start, len: *len },
                no_scratch,
            ))
        }
        LayerOp::ConcatChannels => {
            rank(ins[0], 3)?;
            rank(ins[1], 3)?;
            if ins[0][1..] != ins[1][1..] {
                return Err(shape_err(ins[0], ins[1]));
            }
            Ok((
                vec![ins[0][0] + ins[1][0], ins[0][1], ins[0][2]],
                OpCode::ConcatRows { split: product(ins[0]) },
                no_scratch,
            ))
        }
        LayerOp::ConcatCols => {
            rank(ins[0], 2)?;
            rank(ins[1], 2)?;
            if ins[0][0] != ins[1][0] {
                return Err(shape_err(ins[0], ins[1]));
            }
            let (rows, ca, cb) = (ins[0][0], ins[0][1], ins[1][1]);
            Ok((vec![rows, ca + cb], OpCode::ConcatCols { rows, ca, cb }, no_scratch))
        }
        LayerOp::Upsample2x => {
            rank(ins[0], 3)?;
            let (c, h, w) = (ins[0][0], ins[0][1], ins[0][2]);
            Ok((vec![c, 2 * h, 2 * w], OpCode::Upsample2x { c, h, w }, no_scratch))
        }
        LayerOp::Unpatchify { c, hp, wp, p } => {
            rank(ins[0], 2)?;
            if ins[0] != [hp * wp, p * p * c] {
                return Err(shape_err(ins[0], &[hp * wp, p * p * c]));
            }
            Ok((
                vec![*c, hp * p, wp * p],
                OpCode::Unpatchify { c: *c, hp: *hp, wp: *wp, p: *p },
                no_scratch,
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Interpretation.
// ---------------------------------------------------------------------------

/// Carves `buf` into (everything below `out`, `out` itself, everything
/// above) so operand spans — disjoint from `out` by construction — can be
/// borrowed immutably alongside the mutable output.
fn carve(buf: &mut [f32], out: Span) -> (&[f32], &mut [f32], &[f32]) {
    let (lo, rest) = buf.split_at_mut(out.off);
    let (o, hi) = rest.split_at_mut(out.len);
    (lo, o, hi)
}

/// Resolves an operand span against the carved halves.
fn operand<'a>(lo: &'a [f32], hi: &'a [f32], out: Span, s: Span) -> &'a [f32] {
    if s.end() <= out.off {
        &lo[s.off..s.end()]
    } else {
        let base = s.off - out.end();
        &hi[base..base + s.len]
    }
}

/// Carves `buf` into the operand at `input` and the mutable `out` and
/// `scratch` spans of one op. The three are pairwise disjoint: the
/// allocator reserves an op's output and scratch while its inputs are
/// live.
fn carve_with_scratch(
    buf: &mut [f32],
    input: Span,
    out: Span,
    scratch: Span,
) -> (&[f32], &mut [f32], &mut [f32]) {
    // Ordered by start, an empty span first, so `second` never starts
    // inside `first`.
    let out_first = (out.off, out.len) <= (scratch.off, scratch.len);
    let (first, second) = if out_first { (out, scratch) } else { (scratch, out) };
    let (below, rest) = buf.split_at_mut(first.off);
    let (first_buf, rest) = rest.split_at_mut(first.len);
    let (between, rest) = rest.split_at_mut(second.off - first.end());
    let (second_buf, above) = rest.split_at_mut(second.len);
    let operand = if input.end() <= first.off {
        &below[input.off..input.end()]
    } else if input.end() <= second.off {
        &between[input.off - first.end()..][..input.len]
    } else {
        &above[input.off - second.end()..][..input.len]
    };
    if out_first {
        (operand, first_buf, second_buf)
    } else {
        (operand, second_buf, first_buf)
    }
}

fn exec_op(
    op: &PlanOp,
    weights: &Weights,
    bindings: &Bindings<'_>,
    kb: backend::KernelBackend,
    buf: &mut [f32],
) -> Result<()> {
    let (lo, out, hi) = carve(buf, op.out);
    let arg = |i: usize| operand(lo, hi, op.out, op.ins[i]);
    match op.code {
        OpCode::CopyLatent => out.copy_from_slice(bindings.latent.as_slice()),
        OpCode::CopyContext => {
            let ctx = bindings
                .context
                .ok_or_else(|| TensorError::InvalidArgument("model needs a context".into()))?;
            out.copy_from_slice(ctx.as_slice());
        }
        OpCode::WriteT => out[0] = bindings.t,
        OpCode::TimestepEmbed { dim } => {
            crate::embed::timestep_embedding_into(arg(0)[0], dim, out);
        }
        OpCode::Conv2dIm2col { c_in, h, w, params, scratch, .. } => {
            let p = weights.get(op.node)?;
            let (input, out, scratch) = carve_with_scratch(buf, op.ins[0], op.out, scratch);
            let (weight, bias) = (&p.weight, p.bias.as_ref());
            ops::conv2d_lowered_into(kb, input, c_in, h, w, weight, bias, params, scratch, out)?;
        }
        OpCode::Linear { m, k, n } => {
            let p = weights.get(op.node)?;
            out.fill(0.0);
            ops::matmul_acc_with(kb, out, arg(0), p.weight.as_slice(), m, k, n);
            if let Some(b) = &p.bias {
                add_row_bias(out, b.as_slice(), m, n);
            }
        }
        OpCode::MatmulQk { m, k, n, scratch, scale } => {
            // Phase 1: Kᵀ into the scratch span (disjoint from out and from
            // both operands by construction).
            {
                let (slo, s, shi) = carve(buf, scratch);
                let kv = operand(slo, shi, scratch, op.ins[1]);
                transpose_into(kv, n, k, s);
            }
            // Phase 2: Q · Kᵀ into out, then scale in place.
            let (lo, out, hi) = carve(buf, op.out);
            let q = operand(lo, hi, op.out, op.ins[0]);
            let kt = operand(lo, hi, op.out, scratch);
            out.fill(0.0);
            ops::matmul_acc_with(kb, out, q, kt, m, k, n);
            for v in out.iter_mut() {
                *v *= scale;
            }
        }
        OpCode::MatmulPv { m, k, n } => {
            out.fill(0.0);
            ops::matmul_acc_with(kb, out, arg(0), arg(1), m, k, n);
        }
        OpCode::GroupNorm { groups, c, plane } => {
            let (gamma, beta) = norm_params(weights.get(op.node)?);
            ops::group_norm_into(
                arg(0),
                c,
                plane,
                groups,
                gamma.as_slice(),
                beta.as_slice(),
                1e-5,
                out,
            );
        }
        OpCode::LayerNorm { rows, cols } => {
            let (gamma, beta) = norm_params(weights.get(op.node)?);
            ops::layer_norm_into(arg(0), rows, cols, gamma.as_slice(), beta.as_slice(), 1e-5, out);
        }
        OpCode::Silu => ops::silu_into_with(kb, arg(0), out),
        OpCode::Gelu => ops::gelu_into_with(kb, arg(0), out),
        OpCode::Sigmoid => ops::sigmoid_into_with(kb, arg(0), out),
        OpCode::Softmax { rows, cols } => ops::softmax_rows_into_with(kb, arg(0), rows, cols, out),
        OpCode::Add => {
            let (a, b) = (arg(0), arg(1));
            for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
                *o = x + y;
            }
        }
        OpCode::Mul => {
            let (a, b) = (arg(0), arg(1));
            for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
                *o = x * y;
            }
        }
        OpCode::Scale { s } => {
            for (o, &x) in out.iter_mut().zip(arg(0)) {
                *o = x * s;
            }
        }
        OpCode::Modulate { rows, cols } => {
            modulate_into(arg(0), arg(1), arg(2), rows, cols, out);
        }
        OpCode::Gate { rows, cols } => gate_into(arg(0), arg(1), rows, cols, out),
        OpCode::AddBias2d { c, plane } => add_bias2d_into(arg(0), arg(1), c, plane, out),
        OpCode::Transpose { rows, cols } => transpose_into(arg(0), rows, cols, out),
        OpCode::AvgPool { c, h, w, window } => {
            ops::avg_pool2d_into(arg(0), c, h, w, window, out);
        }
        OpCode::SliceCols { rows, cols, start, len } => {
            slice_cols_into(arg(0), rows, cols, start, len, out);
        }
        OpCode::ConcatRows { split } => {
            out[..split].copy_from_slice(arg(0));
            out[split..].copy_from_slice(arg(1));
        }
        OpCode::ConcatCols { rows, ca, cb } => {
            concat_cols_into(arg(0), arg(1), rows, ca, cb, out);
        }
        OpCode::Upsample2x { c, h, w } => upsample2x_into(arg(0), c, h, w, out),
        OpCode::Unpatchify { c, hp, wp, p } => unpatchify_into(arg(0), c, hp, wp, p, out),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Compile-event registry (observability for `ditto-serve`).
// ---------------------------------------------------------------------------

/// One plan compilation, as recorded by model builders.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileEvent {
    /// Model label (e.g. the model-kind abbreviation).
    pub label: String,
    /// Graph node count.
    pub nodes: usize,
    /// Compiled op count (== nodes on success).
    pub ops: usize,
    /// Arena size in `f32` elements.
    pub arena_f32: usize,
    /// Wall-clock compile time in microseconds.
    pub micros: u64,
}

/// Newest events kept when the registry is full.
const MAX_EVENTS: usize = 64;

static EVENTS: Mutex<Vec<CompileEvent>> = Mutex::new(Vec::new());

/// Records a plan compilation for later [`drain_compile_events`] pickup
/// (e.g. by the serve observability stream). Keeps the newest
/// [`MAX_EVENTS`].
pub fn record_compile_event(ev: CompileEvent) {
    let mut g = EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if g.len() >= MAX_EVENTS {
        let drop_n = g.len() + 1 - MAX_EVENTS;
        g.drain(..drop_n);
    }
    g.push(ev);
}

/// Takes all recorded compile events, oldest first.
pub fn drain_compile_events() -> Vec<CompileEvent> {
    let mut g = EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    std::mem::take(&mut *g)
}

// ---------------------------------------------------------------------------
// Process-wide compiled-plan cache.
// ---------------------------------------------------------------------------

/// Everything a compilation depends on: the graph's structure digest (op
/// kinds, scalar params, parameter shapes, wiring) and the input shapes.
/// Graphs carry no weight values — the plan borrows the caller's
/// [`Weights`] at execute time — so a key is computed without any, and
/// models that differ only in weights share one plan soundly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlanCacheKey {
    digest: u64,
    latent_dims: Vec<usize>,
    context_dims: Option<Vec<usize>>,
}

/// Entries kept before the oldest is evicted. The workloads that benefit
/// (serve request loops, sweep cells) cycle over a handful of models; 64
/// bounds the worst case at a few KB of `PlanOp` vectors.
const MAX_CACHED_PLANS: usize = 64;

static PLAN_CACHE: Mutex<Vec<(PlanCacheKey, Arc<TracePlan>)>> = Mutex::new(Vec::new());
static PLANS_COMPILED: AtomicU64 = AtomicU64::new(0);
static PLANS_REUSED: AtomicU64 = AtomicU64::new(0);

/// Cumulative [`compile_cached`] outcome counters since process start (or
/// the last [`reset_plan_cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Cache misses: plans actually compiled.
    pub compiled: u64,
    /// Cache hits: identical (structure, shapes) requests served
    /// without recompiling.
    pub reused: u64,
}

/// Snapshot of the plan-cache hit/miss counters.
pub fn plan_cache_stats() -> PlanCacheStats {
    PlanCacheStats {
        compiled: PLANS_COMPILED.load(Ordering::Relaxed),
        reused: PLANS_REUSED.load(Ordering::Relaxed),
    }
}

/// Clears the plan cache and its counters (test isolation hook).
pub fn reset_plan_cache() {
    PLAN_CACHE.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    PLANS_COMPILED.store(0, Ordering::Relaxed);
    PLANS_REUSED.store(0, Ordering::Relaxed);
}

/// [`TracePlan::compile`] behind the process-wide cache: repeated builds of
/// structurally identical models (serve requests, repeated sweep cells)
/// reuse the first compilation instead of re-planning the arena. Returns
/// the shared plan and whether this call compiled it fresh (`true`) or hit
/// the cache (`false`) — callers use the flag to record compile events only
/// for real compilations.
///
/// # Errors
///
/// Propagates [`TracePlan::compile`] errors; failures are never cached.
pub fn compile_cached(
    graph: &LayerGraph,
    latent_dims: &[usize],
    context_dims: Option<&[usize]>,
) -> Result<(Arc<TracePlan>, bool)> {
    let key = PlanCacheKey {
        digest: graph.structure_digest(),
        latent_dims: latent_dims.to_vec(),
        context_dims: context_dims.map(<[usize]>::to_vec),
    };
    {
        let cache = PLAN_CACHE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((_, plan)) = cache.iter().find(|(k, _)| *k == key) {
            PLANS_REUSED.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(plan), false));
        }
    }
    // Compile outside the lock: a racing identical request may compile
    // twice, but the result is deterministic and the second insert is
    // dropped below, so the cache never holds duplicates.
    let plan = Arc::new(TracePlan::compile(graph, latent_dims, context_dims)?);
    PLANS_COMPILED.fetch_add(1, Ordering::Relaxed);
    let mut cache = PLAN_CACHE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some((_, cached)) = cache.iter().find(|(k, _)| *k == key) {
        return Ok((Arc::clone(cached), true));
    }
    if cache.len() >= MAX_CACHED_PLANS {
        cache.remove(0);
    }
    cache.push((key, Arc::clone(&plan)));
    Ok((plan, true))
}

// ---------------------------------------------------------------------------
// Execute profiling registry (the `PlanProfile` side of the telemetry layer).
// ---------------------------------------------------------------------------

/// Gate for the profiled interpreter loop. Off by default: the only cost the
/// unprofiled path pays is this one relaxed load + branch per `execute`.
static PROFILING: AtomicBool = AtomicBool::new(false);

/// Turns per-opcode execute profiling on or off process-wide. Profiling
/// never changes results — the profiled loop runs the identical `exec_op`
/// sequence and only observes wall-clock around each call.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Whether the profiled interpreter loop is active.
#[inline]
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Per-kind accumulator cell used by the profiled loop and the registry.
#[derive(Debug, Clone, Copy)]
struct KindAccum {
    calls: u64,
    ns: u64,
    bytes: u64,
}

/// Aggregated time/byte attribution for one opcode kind of one plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpKindProfile {
    /// Kind name from [`KIND_NAMES`].
    pub kind: &'static str,
    /// `exec_op` invocations.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those calls.
    pub ns: u64,
    /// Total output bytes written (`out.len · 4` per call).
    pub bytes: u64,
}

/// Everything the profiled interpreter learned about one compiled plan:
/// how many steps ran, their total latency, the arena high-water mark, and
/// the per-opcode-kind time/byte split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanProfile {
    /// Structure digest of the profiled plan (joins with compile events).
    pub digest: u64,
    /// Whether these passes ran under a non-noop hook. Hooked and hook-free
    /// passes of one plan fold into separate profiles: at a linear site a
    /// hooked pass times the hook, not the f32 opcode.
    pub hooked: bool,
    /// Forward passes folded into this profile.
    pub steps: u64,
    /// Total wall-clock nanoseconds across those passes.
    pub total_ns: u64,
    /// Largest arena (in `f32` elements) any profiled step resized to.
    pub arena_f32: usize,
    /// Per-kind attribution, declaration order, zero-call kinds omitted.
    pub by_kind: Vec<OpKindProfile>,
}

/// One profiled forward pass, for span export (chrome://tracing).
#[derive(Debug, Clone, Copy)]
pub struct ExecSpan {
    /// Plan digest the step executed.
    pub digest: u64,
    /// Whether the step ran under a non-noop hook.
    pub hooked: bool,
    /// Monotonic start of the pass.
    pub start: Instant,
    /// Pass duration in nanoseconds.
    pub dur_ns: u64,
    /// Small dense id of the executing thread — steps from one worker are
    /// sequential, so exporters can lay spans out per thread without
    /// false overlaps. The id space is this module's own (the telemetry
    /// layer offsets it into its trace `tid` space).
    pub tid: u64,
}

/// Dense per-thread id for [`ExecSpan::tid`].
fn exec_tid() -> u64 {
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Newest per-step spans kept between drains; profiles aggregate forever
/// (one slot per digest), so only the span list needs a cap.
const MAX_EXEC_SPANS: usize = 4096;

struct ProfAccum {
    digest: u64,
    hooked: bool,
    steps: u64,
    total_ns: u64,
    arena_f32: usize,
    kinds: [KindAccum; KIND_NAMES.len()],
}

struct ExecRegistry {
    profiles: Vec<ProfAccum>,
    spans: Vec<ExecSpan>,
    spans_dropped: u64,
}

static EXEC: Mutex<ExecRegistry> =
    Mutex::new(ExecRegistry { profiles: Vec::new(), spans: Vec::new(), spans_dropped: 0 });

/// Drained snapshot of the execute-profiling registry.
#[derive(Debug)]
pub struct ExecTelemetry {
    /// One aggregated profile per (plan digest, hooked) seen since the last
    /// drain.
    pub profiles: Vec<PlanProfile>,
    /// Per-step spans, oldest first (capped at [`MAX_EXEC_SPANS`]).
    pub spans: Vec<ExecSpan>,
    /// Spans discarded because the cap was hit between drains.
    pub spans_dropped: u64,
}

fn record_exec_step(
    digest: u64,
    hooked: bool,
    arena_f32: usize,
    start: Instant,
    kinds: &[KindAccum],
) {
    let dur_ns = start.elapsed().as_nanos() as u64;
    let mut g = EXEC.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let prof = match g.profiles.iter_mut().find(|p| p.digest == digest && p.hooked == hooked) {
        Some(p) => p,
        None => {
            g.profiles.push(ProfAccum {
                digest,
                hooked,
                steps: 0,
                total_ns: 0,
                arena_f32: 0,
                kinds: [KindAccum { calls: 0, ns: 0, bytes: 0 }; KIND_NAMES.len()],
            });
            g.profiles.last_mut().unwrap()
        }
    };
    prof.steps += 1;
    prof.total_ns += dur_ns;
    prof.arena_f32 = prof.arena_f32.max(arena_f32);
    for (acc, k) in prof.kinds.iter_mut().zip(kinds) {
        acc.calls += k.calls;
        acc.ns += k.ns;
        acc.bytes += k.bytes;
    }
    if g.spans.len() < MAX_EXEC_SPANS {
        g.spans.push(ExecSpan { digest, hooked, start, dur_ns, tid: exec_tid() });
    } else {
        g.spans_dropped += 1;
    }
}

/// Takes everything the profiled interpreter has recorded since the last
/// drain. Cheap when profiling never ran (two empty `Vec`s).
pub fn drain_exec_telemetry() -> ExecTelemetry {
    let mut g = EXEC.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let profiles = std::mem::take(&mut g.profiles)
        .into_iter()
        .map(|p| PlanProfile {
            digest: p.digest,
            hooked: p.hooked,
            steps: p.steps,
            total_ns: p.total_ns,
            arena_f32: p.arena_f32,
            by_kind: p
                .kinds
                .iter()
                .enumerate()
                .filter(|(_, k)| k.calls > 0)
                .map(|(i, k)| OpKindProfile {
                    kind: KIND_NAMES[i],
                    calls: k.calls,
                    ns: k.ns,
                    bytes: k.bytes,
                })
                .collect(),
        })
        .collect();
    let spans = std::mem::take(&mut g.spans);
    let spans_dropped = std::mem::take(&mut g.spans_dropped);
    ExecTelemetry { profiles, spans, spans_dropped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{forward, NullHook, StepInfo};
    use tensor::ops::Conv2dParams;
    use tensor::{Rng, Tensor};

    fn step0() -> StepInfo {
        StepInfo { step_index: 0, t: 321.0, total_steps: 1 }
    }

    /// Checks the plan against the tree walk on Gaussian weights drawn from
    /// `rng` (biases and norm affines included).
    fn assert_plan_matches_tree(
        graph: &LayerGraph,
        rng: &mut Rng,
        latent: &Tensor,
        context: Option<&Tensor>,
        t: f32,
    ) {
        let weights = Weights::randn(graph, rng);
        let bindings = Bindings { latent, context, t };
        let tree = forward(graph, &weights, &bindings, step0(), &mut NullHook).unwrap();
        let plan = TracePlan::compile(graph, latent.dims(), context.map(Tensor::dims)).unwrap();
        plan.validate_liveness().unwrap();
        let mut arena = PlanArena::new();
        let run = |arena: &mut PlanArena| {
            plan.execute(graph, &weights, &bindings, step0(), &mut NullHook, arena).unwrap()
        };
        let fast = run(&mut arena);
        assert_eq!(fast.dims(), tree.dims());
        for (i, (a, b)) in fast.as_slice().iter().zip(tree.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {i}: plan {a} vs tree {b}");
        }
        // Re-running over the same (now dirty) arena must stay identical —
        // the full-write invariant.
        assert_eq!(run(&mut arena).as_slice(), fast.as_slice());
    }

    #[test]
    fn arena_planner_first_fit_reuses_and_merges() {
        let mut p = ArenaPlanner::default();
        let a = p.alloc(8);
        let b = p.alloc(4);
        assert_eq!((a.off, b.off), (0, 8));
        p.release(a);
        // A smaller request carves the front of the freed span.
        let c = p.alloc(3);
        assert_eq!(c.off, 0);
        // Releasing b and the tail of a merges back into one span able to
        // hold 9 contiguously.
        p.release(b);
        p.release(Span { off: 3, len: 5 });
        let d = p.alloc(9);
        assert_eq!(d.off, 3);
        assert_eq!(p.high, 12);
    }

    #[test]
    fn arena_planner_zero_len_is_inert() {
        let mut p = ArenaPlanner::default();
        let z = p.alloc(0);
        assert_eq!(z.len, 0);
        p.release(z);
        assert_eq!(p.high, 0);
        assert!(p.free.is_empty());
    }

    #[test]
    fn carve_with_scratch_splits_disjoint_spans() {
        // Output below or above the scratch, the operand anywhere around
        // them, and the empty scratch of a pointwise conv at offset 0.
        let mut buf: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let span = |off, len| Span { off, len };
        for (input, out, scratch) in [
            (span(0, 3), span(4, 5), span(10, 6)),
            (span(17, 3), span(10, 6), span(4, 5)),
            (span(9, 1), span(4, 5), span(12, 2)),
            (span(0, 4), span(4, 6), span(0, 0)),
            (span(6, 4), span(0, 6), span(0, 0)),
        ] {
            let (i, o, s) = carve_with_scratch(&mut buf, input, out, scratch);
            assert_eq!(i[0], input.off as f32);
            assert_eq!((o.len(), s.len()), (out.len, scratch.len));
            if out.len > 0 {
                assert_eq!(o[0], out.off as f32);
            }
            if scratch.len > 0 {
                assert_eq!(s[0], scratch.off as f32);
            }
        }
    }

    #[test]
    fn compile_is_deterministic() {
        let g = attention_graph();
        let a = TracePlan::compile(&g, &[4, 6], None).unwrap();
        let b = TracePlan::compile(&g, &[4, 6], None).unwrap();
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.arena_len, b.arena_len);
    }

    #[test]
    fn arena_is_smaller_than_sum_of_slots() {
        let g = chain_graph(12);
        let plan = TracePlan::compile(&g, &[4, 4], None).unwrap();
        let total: usize = plan.ops().iter().map(|o| o.out.len).sum();
        assert!(
            plan.arena_len() < total,
            "liveness reuse should shrink the arena: {} vs {total}",
            plan.arena_len()
        );
    }

    fn chain_graph(depth: usize) -> LayerGraph {
        let mut g = LayerGraph::new();
        let mut cur = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        for i in 0..depth {
            cur = g.add(format!("silu{i}"), LayerOp::SiLU, &[cur]);
        }
        g.set_output(cur);
        g
    }

    #[test]
    fn kind_names_are_unique() {
        for (i, a) in KIND_NAMES.iter().enumerate() {
            for b in &KIND_NAMES[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn exec_profiling_is_gated_and_attributes_kinds() {
        // Depth 7 is used by no other executing test, so the digest is ours
        // alone even though the registry is process-wide.
        let g = chain_graph(7);
        let latent = Tensor::from_vec(vec![0.5; 16], &[4, 4]).unwrap();
        let bindings = Bindings { latent: &latent, context: None, t: 1.0 };
        let plan = TracePlan::compile(&g, &[4, 4], None).unwrap();
        let digest = plan.digest();
        let mut arena = PlanArena::new();
        let mut run = || {
            plan.execute(&g, &Weights::new(), &bindings, step0(), &mut NullHook, &mut arena)
                .unwrap()
        };

        // Gated off: an execute leaves no trace in the registry.
        set_profiling(false);
        drain_exec_telemetry();
        let baseline = run();
        let quiet = drain_exec_telemetry();
        assert!(quiet.profiles.iter().all(|p| p.digest != digest));
        assert!(quiet.spans.iter().all(|s| s.digest != digest));

        // Enabled: two steps fold into one profile, bit-identical output.
        set_profiling(true);
        let a = run();
        let b = run();
        set_profiling(false);
        assert_eq!(a.as_slice(), baseline.as_slice());
        assert_eq!(b.as_slice(), baseline.as_slice());

        let t = drain_exec_telemetry();
        let p = t.profiles.iter().find(|p| p.digest == digest).expect("profile recorded");
        assert!(p.steps >= 2);
        assert_eq!(p.arena_f32, plan.arena_len());
        let silu = p.by_kind.iter().find(|k| k.kind == "silu").expect("silu attributed");
        assert!(silu.calls >= 14, "7 silu ops × 2 steps, got {}", silu.calls);
        assert_eq!(silu.bytes, silu.calls * 16 * 4);
        let copy = p.by_kind.iter().find(|k| k.kind == "copy_latent").expect("input attributed");
        assert!(copy.calls >= 2);
        let kind_ns: u64 = p.by_kind.iter().map(|k| k.ns).sum();
        assert!(kind_ns <= p.total_ns, "per-kind time cannot exceed step total");
        assert!(t.spans.iter().filter(|s| s.digest == digest).count() >= 2);
        let span_ns: u64 = t.spans.iter().filter(|s| s.digest == digest).map(|s| s.dur_ns).sum();
        assert!(span_ns <= p.total_ns || p.steps > 2);
    }

    fn attention_graph() -> LayerGraph {
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let proj = LayerOp::Linear { d_in: 6, d_out: 6, bias: false };
        let q = g.add("q", proj.clone(), &[x]);
        let k = g.add("k", proj.clone(), &[x]);
        let v = g.add("v", proj, &[x]);
        let qk = g.add("qk", LayerOp::MatmulQK, &[q, k]);
        let sm = g.add("sm", LayerOp::Softmax, &[qk]);
        let pv = g.add("pv", LayerOp::MatmulPV, &[sm, v]);
        let res = g.add("res", LayerOp::Add, &[pv, x]);
        g.set_output(res);
        g
    }

    #[test]
    fn attention_block_is_bit_identical() {
        let mut rng = Rng::seed_from(17);
        let latent = Tensor::randn(&[4, 6], &mut rng);
        assert_plan_matches_tree(&attention_graph(), &mut rng, &latent, None, 0.0);
    }

    #[test]
    fn conv_norm_pool_path_is_bit_identical() {
        let mut rng = Rng::seed_from(23);
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let params = Conv2dParams { kernel: 3, stride: 1, padding: 1 };
        let conv = g.add("conv", LayerOp::Conv2d { c_in: 2, c_out: 4, params, bias: true }, &[x]);
        let gn = g.add("gn", LayerOp::GroupNorm { groups: 2, channels: 4 }, &[conv]);
        let act = g.add("act", LayerOp::SiLU, &[gn]);
        let up = g.add("up", LayerOp::Upsample2x, &[act]);
        let pool = g.add("pool", LayerOp::AvgPool { window: 2 }, &[up]);
        g.set_output(pool);
        let latent = Tensor::randn(&[2, 4, 4], &mut rng);
        assert_plan_matches_tree(&g, &mut rng, &latent, None, 100.0);
    }

    /// Single-conv graph over a `[c_in, hw, hw]` latent.
    fn conv_graph(c_in: usize, c_out: usize, params: Conv2dParams, bias: bool) -> LayerGraph {
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let conv = g.add("conv", LayerOp::Conv2d { c_in, c_out, params, bias }, &[x]);
        g.set_output(conv);
        g
    }

    /// The lowered conv opcode carries the lowering's shape and exactly
    /// the scratch `ops::conv2d_scratch_len` asks for: none for a
    /// pointwise conv, which reads its input in place.
    fn assert_lowered(code: OpCode, c_in: usize, hw: usize, params: Conv2dParams) {
        let OpCode::Conv2dIm2col { ckk, pixels, scratch, .. } = code else {
            panic!("conv compiled to {code:?}");
        };
        assert_eq!(ckk, c_in * params.kernel * params.kernel);
        assert_eq!(pixels, params.out_extent(hw).pow(2));
        assert_eq!(scratch.len, ops::conv2d_scratch_len(c_in, hw, hw, params));
        assert_eq!(scratch.len == 0, params == Conv2dParams::pointwise());
    }

    #[test]
    fn im2col_classed_conv_compiles_to_lowered_opcode_and_matches_tree() {
        // Every conv compiles to the lowered matmul opcode and matches the
        // tree walker bit for bit — with and without bias, on a stride-2
        // shape whose padding margins exercise the lowering edges, and on
        // the narrow-`c_out` 3×3 and pointwise shapes.
        let mut rng = Rng::seed_from(41);
        let cases = [
            (8usize, 12usize, 32usize, Conv2dParams::same3x3(), true),
            (8, 12, 32, Conv2dParams::same3x3(), false),
            (16, 16, 32, Conv2dParams { kernel: 3, stride: 2, padding: 1 }, true),
            (12, 12, 4, Conv2dParams::same3x3(), true),
            (4, 6, 4, Conv2dParams::pointwise(), false),
            (8, 12, 16, Conv2dParams::pointwise(), true),
        ];
        for &(c_in, hw, c_out, params, with_bias) in &cases {
            let g = conv_graph(c_in, c_out, params, with_bias);
            let latent = Tensor::randn(&[c_in, hw, hw], &mut rng);
            let plan = TracePlan::compile(&g, latent.dims(), None).unwrap();
            assert_lowered(plan.ops[1].code, c_in, hw, params);
            assert_plan_matches_tree(&g, &mut rng, &latent, None, 0.25);
        }
    }

    #[test]
    fn every_conv_compiles_to_the_lowered_opcode() {
        // A conv-heavy graph — narrow-`c_out` 3×3s and a pointwise mix
        // between activations — compiles every conv to the one lowered
        // opcode and matches the tree bit for bit, over an arena whose
        // scratch spans other ops reuse.
        let mut rng = Rng::seed_from(43);
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let p3 = Conv2dParams::same3x3();
        let mut cur = x;
        let mut convs = Vec::new();
        for (i, (c_in, c_out)) in [(8usize, 12usize), (12, 12), (12, 8)].into_iter().enumerate() {
            let conv = LayerOp::Conv2d { c_in, c_out, params: p3, bias: true };
            cur = g.add(format!("conv{i}"), conv, &[cur]);
            convs.push((cur, c_in, p3));
            cur = g.add(format!("act{i}"), LayerOp::SiLU, &[cur]);
        }
        let mix =
            LayerOp::Conv2d { c_in: 8, c_out: 8, params: Conv2dParams::pointwise(), bias: false };
        cur = g.add("mix", mix, &[cur]);
        convs.push((cur, 8, Conv2dParams::pointwise()));
        g.set_output(cur);

        let plan = TracePlan::compile(&g, &[8, 12, 12], None).unwrap();
        for &(node, c_in, params) in &convs {
            assert_lowered(plan.ops[node].code, c_in, 12, params);
        }
        let latent = Tensor::randn(&[8, 12, 12], &mut rng);
        assert_plan_matches_tree(&g, &mut rng, &latent, None, 50.0);
    }

    #[test]
    fn plan_cache_reuses_identical_structures() {
        // Depth 9 is used by no other test, so the structure digest (and
        // therefore the cache key) is this test's own.
        let g = chain_graph(9);
        let before = plan_cache_stats();
        let (p1, fresh1) = compile_cached(&g, &[4, 4], None).unwrap();
        let (p2, fresh2) = compile_cached(&g, &[4, 4], None).unwrap();
        assert!(fresh1, "first compile of a unique structure must miss");
        assert!(!fresh2, "identical recompile must hit the cache");
        assert!(Arc::ptr_eq(&p1, &p2));
        let after = plan_cache_stats();
        assert!(after.compiled > before.compiled);
        assert!(after.reused > before.reused);

        // Different latent dims are a different key (a fresh compile).
        let (p3, fresh3) = compile_cached(&g, &[2, 8], None).unwrap();
        assert!(fresh3);
        assert!(!Arc::ptr_eq(&p1, &p3));

        // One structure, two sets of weights: the shared plan executes
        // against each caller's own weights (borrowed at execute time),
        // bit-identical to the tree walk on both.
        let mut rng = Rng::seed_from(47);
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let lin = g.add("lin", LayerOp::Linear { d_in: 3, d_out: 3, bias: false }, &[x]);
        g.set_output(lin);
        let (pa, _) = compile_cached(&g, &[3, 3], None).unwrap();
        let (pb, _) = compile_cached(&g.clone(), &[3, 3], None).unwrap();
        assert!(Arc::ptr_eq(&pa, &pb));
        let latent = Tensor::randn(&[3, 3], &mut rng);
        let bindings = Bindings { latent: &latent, context: None, t: 0.0 };
        let mut arena = PlanArena::new();
        let mut outputs = Vec::new();
        for weights in [Weights::randn(&g, &mut rng), Weights::randn(&g, &mut rng)] {
            let tree = forward(&g, &weights, &bindings, step0(), &mut NullHook).unwrap();
            let fast =
                pa.execute(&g, &weights, &bindings, step0(), &mut NullHook, &mut arena).unwrap();
            assert_eq!(fast.as_slice(), tree.as_slice());
            outputs.push(fast);
        }
        assert_ne!(outputs[0], outputs[1]);
    }

    #[test]
    fn context_and_timestep_paths_are_bit_identical() {
        let mut rng = Rng::seed_from(31);
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let ctx = g.add("ctx", LayerOp::Input(InputKind::Context), &[]);
        let t = g.add("t", LayerOp::Input(InputKind::Timestep), &[]);
        let emb = g.add("emb", LayerOp::TimestepEmbed { dim: 6 }, &[t]);
        let joined = g.add("cat", LayerOp::ConcatCols, &[x, ctx]);
        let sliced = g.add("slice", LayerOp::SliceCols { start: 2, len: 6 }, &[joined]);
        let modulated = g.add("mod", LayerOp::Modulate, &[sliced, emb, emb]);
        let gated = g.add("gate", LayerOp::Gate, &[modulated, emb]);
        g.set_output(gated);
        let latent = Tensor::randn(&[1, 4], &mut rng);
        let context = Tensor::randn(&[1, 4], &mut rng);
        assert_plan_matches_tree(&g, &mut rng, &latent, Some(&context), 512.0);
    }

    #[test]
    fn missing_context_matches_tree_error() {
        let mut g = LayerGraph::new();
        let c = g.add("ctx", LayerOp::Input(InputKind::Context), &[]);
        g.set_output(c);
        // Compiling without a context shape fails (callers fall back).
        assert!(TracePlan::compile(&g, &[1, 1], None).is_err());
        // Compiled with a shape but executed without a binding: identical
        // error text to the tree walk.
        let plan = TracePlan::compile(&g, &[1, 1], Some(&[1, 2])).unwrap();
        let latent = Tensor::zeros(&[1, 1]);
        let bindings = Bindings { latent: &latent, context: None, t: 0.0 };
        let err = plan
            .execute(&g, &Weights::new(), &bindings, step0(), &mut NullHook, &mut PlanArena::new())
            .unwrap_err();
        assert!(err.to_string().contains("model needs a context"), "{err}");
    }

    #[test]
    fn latent_shape_mismatch_is_rejected() {
        let g = chain_graph(1);
        let plan = TracePlan::compile(&g, &[2, 2], None).unwrap();
        let wrong = Tensor::zeros(&[3, 2]);
        let bindings = Bindings { latent: &wrong, context: None, t: 0.0 };
        assert!(!plan.matches(&bindings));
        assert!(plan
            .execute(&g, &Weights::new(), &bindings, step0(), &mut NullHook, &mut PlanArena::new())
            .is_err());
    }

    #[test]
    fn dead_nodes_still_execute_and_free_eagerly() {
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let dead = g.add("dead", LayerOp::SiLU, &[x]);
        let live = g.add("live", LayerOp::GeLU, &[x]);
        let _ = dead;
        g.set_output(live);
        let plan = TracePlan::compile(&g, &[1, 3], None).unwrap();
        assert_eq!(plan.op_count(), 3);
        plan.validate_liveness().unwrap();
        // The dead node's slot is released immediately, so the live node
        // reuses it rather than growing the arena.
        assert_eq!(plan.ops()[1].out, plan.ops()[2].out);
    }

    #[test]
    fn compile_event_registry_caps_and_drains() {
        drain_compile_events();
        for i in 0..(MAX_EVENTS + 5) {
            record_compile_event(CompileEvent {
                label: format!("m{i}"),
                nodes: i,
                ops: i,
                arena_f32: 0,
                micros: 0,
            });
        }
        let evs = drain_compile_events();
        assert_eq!(evs.len(), MAX_EVENTS);
        assert_eq!(evs.last().unwrap().label, format!("m{}", MAX_EVENTS + 4));
        assert!(drain_compile_events().is_empty());
    }
}
