//! The Ditto execution engine: quantized linear-layer execution with
//! temporal-difference processing and workload tracing.
//!
//! [`DittoHook`] plugs into the diffusion executor's
//! [`LinearHook`] interface and:
//!
//! 1. executes every linear layer in the quantized integer domain (A8W8,
//!    §VI-A) — convolutions via im2col, FC directly, attention matmuls on
//!    two quantized operands;
//! 2. maintains per-layer *grid-pinned* activation scales so temporal
//!    differences are exact integer subtractions (the Encoding Unit's
//!    subtractor, Fig. 11);
//! 3. optionally computes outputs through the three-stage difference path
//!    (delta → sparse low-bit matmul → summation, Fig. 7), which is
//!    bit-identical to dense integer execution — asserted in tests;
//! 4. records the [`WorkloadTrace`] of per-layer, per-step bit-width
//!    histograms that drives every analysis figure and the hardware
//!    simulator.
//!
//! A hook call is four slice-level stages over buffers the hook keeps
//! between calls: **quantize** (`quant::quantize_into`, then
//! `im2col_i8_into` on the levels for convs), **encode** (`quant::encode`:
//! the three histograms and the kernel's `i16` operand in one pass),
//! **kernel** (`int_matmul_into` / `delta_matmul_update_into` /
//! `attention_delta_scores_into`, accumulating in place on the layer's
//! previous outputs; the SIMD core's packed copy of a layer's weights is
//! made by that layer's first kernel call and kept beside them, attention's
//! activation operands are repacked per call into a scratch buffer) and
//! **dequant** (scale, bias and layout in one write of the node's output).
//! With telemetry on, each stage's time lands in a per-model series
//! (`core.hook.<model>.<stage>_ns`).
//!
//! Both hooks implement the slice-level [`LinearHook`] methods the plan
//! interpreter calls: their operands are slices of the plan arena and
//! [`DittoHook`] dequantizes straight into the node's arena span. The
//! `Tensor`-level methods (the oracle executor's, and delegating wrappers')
//! are thin adapters over the same bodies.
//!
//! The integer kernels the hook drives (`quant::kernels::*`) run on the
//! process's kernel backend (`tensor::backend::active`: scalar, or
//! explicit SIMD at one level). Backends are bit-identical, so traces and
//! samples — and therefore the trace cache, whose fingerprints cover only
//! the model definition — are backend-invariant; choosing one
//! (`DITTO_KERNEL_BACKEND`) only changes tracing speed.

use std::collections::HashMap;
use std::time::Instant;

use diffusion::{DiffusionModel, LayerOp, LinearHook, Node, NodeId, OperandView, Params, StepInfo};
use quant::kernels::{
    attention_delta_scores_into, delta_matmul_update_into, im2col_i8_into, int_matmul_into,
    int_scores, widen, widen_into, PackedRhs,
};
use quant::{encode, quantize_into, CalibrationTable, Calibrator, Emit, QTensor, Quantizer};
use tensor::{stats, Tensor};

use crate::defo::{analyze, LayerBoundary};
use crate::telemetry;
use crate::trace::{LayerMeta, LinearKind, StepStats, SubOp, WorkloadTrace};

/// Headroom multiplier applied to grid scales pinned from the first step of
/// dynamically quantized models, absorbing the gradual range drift across
/// the reverse process (§II).
const DYNAMIC_GRID_HEADROOM: f32 = 1.25;

/// Calibration-table key offset of an attention matmul's secondary
/// operand, which shares its node with the primary one.
const SECONDARY_KEY_OFFSET: NodeId = 1_000_000;

/// How [`DittoHook`] computes linear-layer outputs. Both policies are
/// numerically identical (difference processing is exact, §IV-A); the
/// temporal policy actually walks the three-stage path of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Dense integer matmuls — fastest host execution for trace capture.
    Dense,
    /// Stage-1/2/3 temporal difference processing from the second model
    /// call onward.
    TemporalDelta,
}

impl ExecPolicy {
    /// The operand the Encoding Unit pass hands the kernel.
    fn emit(self) -> Emit {
        match self {
            ExecPolicy::Dense => Emit::Levels,
            ExecPolicy::TemporalDelta => Emit::Delta,
        }
    }
}

/// Quantized weights of a conv/FC layer, with its f32 bias.
#[derive(Debug)]
struct QWeight {
    /// `[k, n]` weight levels (k = reduction dim).
    data: Vec<i8>,
    /// `data` in the SIMD core's order, packed by the layer's first kernel
    /// call on that backend.
    pack: PackedRhs,
    scale: f32,
    k: usize,
    n: usize,
    /// `[n]` bias added at dequantization.
    bias: Option<Vec<f32>>,
}

impl QWeight {
    /// Quantizes conv/FC layer `op`'s `params`; `None` for any other op.
    fn of(op: &LayerOp, params: &Params) -> Option<Self> {
        let (k, n) = match *op {
            LayerOp::Conv2d { c_in, c_out, params, .. } => {
                (c_in * params.kernel * params.kernel, c_out)
            }
            LayerOp::Linear { d_in, d_out, .. } => (d_in, d_out),
            _ => return None,
        };
        let q = QTensor::quantize_dynamic(&params.weight);
        let data = match op {
            // The filter bank is [C_out, C_in·K·K] = [n, k]: transpose it.
            LayerOp::Conv2d { .. } => (0..k * n).map(|i| q.data()[(i % n) * k + i / n]).collect(),
            _ => q.data().to_vec(),
        };
        let bias = params.bias.as_ref().map(|b| b.as_slice().to_vec());
        Some(QWeight { data, pack: PackedRhs::default(), scale: q.scale(), k, n, bias })
    }
}

/// One quantized operand of a layer across steps: the current step's
/// levels are built in `cur` and become `prev` by a buffer swap.
#[derive(Debug, Default)]
struct Operand {
    /// Grid scale pinned at the first step (dynamic quantization only).
    pinned: Option<f32>,
    /// This step's levels (im2col domain for convs, `[red, n]` for the
    /// secondary attention operand).
    cur: Vec<i8>,
    /// Previous-step levels.
    prev: Vec<i8>,
    /// Grid scale `prev` (and the layer's accumulators) were produced on.
    prev_grid: f32,
}

impl Operand {
    /// Resolves (or pins) this operand's activation grid scale.
    fn grid_scale(&mut self, quantizer: &Quantizer, key: NodeId, step: usize, x: &[f32]) -> f32 {
        // Static calibration tables already cluster steps; use their scale
        // directly (constant within a cluster, so deltas stay exact).
        if let Some(s) = quantizer.table().and_then(|t| t.scale_for(key, step)) {
            return s;
        }
        *self.pinned.get_or_insert_with(|| {
            let amax = stats::abs_max(x);
            if amax == 0.0 {
                1.0
            } else {
                amax * DYNAMIC_GRID_HEADROOM / quant::qtensor::QMAX as f32
            }
        })
    }

    fn has_prev(&self) -> bool {
        self.prev.len() == self.cur.len()
    }

    /// Re-quantizes the stored previous levels onto the `grid` of this step
    /// (exact in f32, then rounded) — the boundary cost of calibrated grids
    /// that change across time-step clusters (§VI-A).
    fn regrid_prev(&mut self, grid: f32) {
        regrid_levels(&mut self.prev, self.prev_grid, grid);
        self.prev_grid = grid;
    }

    /// Ends the step: this step's levels become the previous ones.
    fn commit(&mut self, grid: f32) {
        std::mem::swap(&mut self.cur, &mut self.prev);
        self.prev_grid = grid;
    }
}

fn regrid_levels(levels: &mut [i8], old: f32, new: f32) {
    let ratio = old / new;
    for v in levels {
        *v = (*v as f32 * ratio).round().clamp(-127.0, 127.0) as i8;
    }
}

/// Per-layer state across steps.
#[derive(Debug, Default)]
struct Layer {
    /// Row of this layer in the trace, once registered.
    index: Option<usize>,
    weight: Option<QWeight>,
    /// Primary operand.
    a: Operand,
    /// Secondary operand (attention only).
    b: Operand,
    /// Output accumulators: the previous step's until the kernel runs,
    /// then this step's.
    acc: Vec<i32>,
}

/// Buffers every layer's hook call reuses.
#[derive(Debug, Default)]
struct Scratch {
    /// Quantized raw input, before im2col or the `K` transpose.
    levels: Vec<i8>,
    /// The kernel operands the Encoding Unit pass emits.
    op_a: Vec<i16>,
    op_b: Vec<i16>,
    /// Widened `A_t` and `B_prev` of the attention difference path.
    wide_a: Vec<i16>,
    wide_b: Vec<i16>,
    /// Attention's activation-as-weight operand in the SIMD core's order,
    /// repacked every call.
    pack: PackedRhs,
}

/// The trace under construction.
#[derive(Debug)]
struct Recorder {
    boundaries: HashMap<NodeId, LayerBoundary>,
    metas: Vec<LayerMeta>,
    steps: Vec<Vec<StepStats>>,
}

impl Recorder {
    /// Registers layer metadata; returns the layer's row index.
    #[allow(clippy::too_many_arguments)]
    fn register(
        &mut self,
        node: &Node,
        kind: LinearKind,
        macs: u64,
        elems: u64,
        reuse: u64,
        subops: Vec<SubOp>,
        in_bytes: u64,
        weight_bytes: u64,
        out_bytes: u64,
    ) -> usize {
        let (needs_diff_calc, needs_summation, in_boundary, out_boundary) =
            match self.boundaries.get(&node.id) {
                Some(b) => (
                    b.needs_diff_calc,
                    b.needs_summation,
                    b.in_boundary.clone(),
                    b.out_boundary.clone(),
                ),
                None => (true, true, Vec::new(), Vec::new()),
            };
        self.metas.push(LayerMeta {
            node: node.id,
            name: node.name.clone(),
            kind,
            macs,
            elems,
            reuse,
            subops,
            in_bytes,
            weight_bytes,
            out_bytes,
            needs_diff_calc,
            needs_summation,
            in_boundary,
            out_boundary,
        });
        self.metas.len() - 1
    }

    fn record(&mut self, step: usize, layer_idx: usize, stats: StepStats) {
        if self.steps.len() <= step {
            self.steps.resize_with(step + 1, Vec::new);
        }
        let row = &mut self.steps[step];
        if row.len() <= layer_idx {
            row.resize_with(layer_idx + 1, StepStats::default);
        }
        row[layer_idx] = stats;
    }
}

/// The stages of one hook call, in execution order: the `<stage>` of the
/// `core.hook.<model>.<stage>_ns` telemetry series.
pub const HOOK_STAGES: [&str; 4] = ["quantize", "encode", "kernel", "dequant"];
const QUANTIZE: usize = 0;
const ENCODE: usize = 1;
const KERNEL: usize = 2;
const DEQUANT: usize = 3;

/// Splits one hook call's time over [`HOOK_STAGES`] into per-model telemetry
/// series. Off (telemetry disabled) it holds no clock and every lap is one
/// branch on a local.
struct StageClock {
    last: Option<Instant>,
    ns: [u64; HOOK_STAGES.len()],
}

impl StageClock {
    fn start() -> Self {
        StageClock { last: telemetry::on().then(Instant::now), ns: [0; HOOK_STAGES.len()] }
    }

    /// Charges the time since the previous lap to `stage`.
    fn lap(&mut self, stage: usize) {
        if let Some(last) = &mut self.last {
            let now = Instant::now();
            self.ns[stage] += u64::try_from((now - *last).as_nanos()).unwrap_or(u64::MAX);
            *last = now;
        }
    }

    fn finish(self, series: &[String; HOOK_STAGES.len()]) {
        if self.last.is_some() {
            for (name, ns) in series.iter().zip(self.ns) {
                telemetry::series(name, ns);
            }
        }
    }
}

/// The Ditto execution hook. See the module docs.
#[derive(Debug)]
pub struct DittoHook {
    quantizer: Quantizer,
    policy: ExecPolicy,
    layers: HashMap<NodeId, Layer>,
    recorder: Recorder,
    scratch: Scratch,
    model_abbr: &'static str,
    /// `core.hook.<model>.<stage>_ns`, one per entry of [`HOOK_STAGES`].
    stage_series: [String; HOOK_STAGES.len()],
}

impl DittoHook {
    /// Creates a hook for `model`, running Defo's static dependency
    /// analysis and quantizing every conv/FC layer's weights up front.
    pub fn new(model: &DiffusionModel, quantizer: Quantizer, policy: ExecPolicy) -> Self {
        let defo = analyze(&model.graph);
        let model_abbr = model.kind.abbr();
        let weights = model.weights();
        let layers = model
            .graph
            .nodes()
            .iter()
            .filter_map(|node| {
                let params = weights.get(node.id).ok()?;
                let weight = QWeight::of(&node.op, params)?;
                Some((node.id, Layer { weight: Some(weight), ..Layer::default() }))
            })
            .collect();
        DittoHook {
            quantizer,
            policy,
            layers,
            recorder: Recorder {
                boundaries: defo.boundaries.into_iter().map(|b| (b.node, b)).collect(),
                metas: Vec::new(),
                steps: Vec::new(),
            },
            scratch: Scratch::default(),
            model_abbr,
            stage_series: HOOK_STAGES.map(|stage| format!("core.hook.{model_abbr}.{stage}_ns")),
        }
    }

    /// Consumes the hook, returning the captured workload trace.
    pub fn into_trace(self) -> WorkloadTrace {
        WorkloadTrace {
            model: self.model_abbr.to_string(),
            layers: self.recorder.metas,
            steps: self.recorder.steps,
        }
    }
}

impl Layer {
    /// A conv/FC layer's bias.
    fn bias(&self) -> Option<&[f32]> {
        self.weight.as_ref().and_then(|qw| qw.bias.as_deref())
    }

    /// Executes a conv/FC layer in the integer domain and records stats:
    /// `self.a.cur` holds the quantized `[m, k]` operand (im2col for convs)
    /// on `grid`, `raw_in_elems` is the raw input tensor size for byte
    /// accounting. Leaves the output accumulators in `self.acc` and
    /// returns their scale.
    #[allow(clippy::too_many_arguments)]
    fn run_weighted(
        &mut self,
        node: &Node,
        step: usize,
        kind: LinearKind,
        m: usize,
        grid: f32,
        raw_in_elems: u64,
        policy: ExecPolicy,
        recorder: &mut Recorder,
        scratch: &mut Scratch,
        clock: &mut StageClock,
    ) -> f32 {
        let Layer { index, weight, a, acc, .. } = self;
        let qw = weight.as_mut().expect("DittoHook::new quantizes every weighted layer");
        let (k, n) = (qw.k, qw.n);
        debug_assert_eq!(a.cur.len(), m * k);
        let idx = *index.get_or_insert_with(|| {
            let elems = (m * k) as u64;
            recorder.register(
                node,
                kind,
                (m * k * n) as u64,
                elems,
                n as u64,
                vec![SubOp { label: "dx".into(), elems, reuse: n as u64 }],
                raw_in_elems,
                (k * n) as u64,
                (m * n) as u64,
            )
        });
        clock.lap(QUANTIZE);

        let has_prev = a.has_prev();
        // Grid boundary (Q-Diffusion cluster change / TDQ step change):
        // re-quantize the stored previous operand onto the current grid
        // and rebuild its accumulators so the difference stays exact.
        if has_prev && a.prev_grid != grid {
            a.regrid_prev(grid);
            widen_into(&a.prev, &mut scratch.op_a);
            int_matmul_into(acc, &scratch.op_a, &qw.data, &mut qw.pack, m, k, n);
        }
        // Statistics under the three processing views, and the operand.
        let prev = has_prev.then_some(a.prev.as_slice());
        let enc = encode(&a.cur, prev, m, k, policy.emit(), &mut scratch.op_a);
        recorder.record(
            step,
            idx,
            StepStats { act: enc.act, spa: enc.spatial, temporal: enc.temporal.map(|t| vec![t]) },
        );
        clock.lap(ENCODE);

        // Output accumulators: dense, or via the three-stage delta path.
        if has_prev && policy == ExecPolicy::TemporalDelta {
            delta_matmul_update_into(acc, &scratch.op_a, &qw.data, &mut qw.pack, m, k, n);
        } else {
            int_matmul_into(acc, &scratch.op_a, &qw.data, &mut qw.pack, m, k, n);
        }
        a.commit(grid);
        clock.lap(KERNEL);
        grid * qw.scale
    }

    /// Executes an attention matmul (`Q·Kᵀ` or `P·V`) in the integer
    /// domain and records two-sub-op difference statistics. Leaves the
    /// `[m, n]` output accumulators in `self.acc`; returns their scale.
    #[allow(clippy::too_many_arguments)]
    fn run_attention(
        &mut self,
        node: &Node,
        step: usize,
        kind: LinearKind,
        a_f32: OperandView<'_>, // Q [m, d] (or P [m, s])
        b_f32: OperandView<'_>, // K [n, d] (or V [s, d]) — reduced along its matching dim
        quantizer: &Quantizer,
        policy: ExecPolicy,
        recorder: &mut Recorder,
        scratch: &mut Scratch,
        clock: &mut StageClock,
    ) -> f32 {
        let Layer { index, a, b, acc, .. } = self;
        // Dimensions: QK: a=[m,d], b=[n,d], out [m,n] reducing d.
        //             PV: a=[m,s], b=[s,d], out [m,d] reducing s.
        let (m, red) = (a_f32.dims[0], a_f32.dims[1]);
        let n = match kind {
            LinearKind::MatmulQk => b_f32.dims[0],
            LinearKind::MatmulPv => b_f32.dims[1],
            _ => unreachable!(),
        };
        let grid_a = a.grid_scale(quantizer, node.id, step, a_f32.data);
        let grid_b = b.grid_scale(quantizer, node.id + SECONDARY_KEY_OFFSET, step, b_f32.data);
        quantize_into(a_f32.data, grid_a, &mut a.cur);
        // Bring B into [red, n] layout for the matmul.
        if kind == LinearKind::MatmulQk {
            // K is [n, red] → transpose.
            quantize_into(b_f32.data, grid_b, &mut scratch.levels);
            b.cur.clear();
            b.cur.resize(red * n, 0);
            for (r, krow) in scratch.levels.chunks_exact(red).enumerate() {
                for (c, &v) in krow.iter().enumerate() {
                    b.cur[c * n + r] = v;
                }
            }
        } else {
            quantize_into(b_f32.data, grid_b, &mut b.cur);
        }

        let idx = *index.get_or_insert_with(|| {
            let a_elems = (m * red) as u64;
            let b_elems = (red * n) as u64;
            let (sub_b_label, sub_a_label) = match kind {
                LinearKind::MatmulQk => ("dk", "dq"),
                _ => ("dv", "dp"),
            };
            recorder.register(
                node,
                kind,
                (m * red * n) as u64,
                a_elems,
                n as u64,
                vec![
                    SubOp { label: sub_b_label.into(), elems: b_elems, reuse: m as u64 },
                    SubOp { label: sub_a_label.into(), elems: a_elems, reuse: n as u64 },
                ],
                a_elems + b_elems,
                0,
                (m * n) as u64,
            )
        });
        clock.lap(QUANTIZE);

        let has_prev = a.has_prev() && b.has_prev();
        if has_prev && (a.prev_grid != grid_a || b.prev_grid != grid_b) {
            a.regrid_prev(grid_a);
            b.regrid_prev(grid_b);
            *acc = int_scores(&widen(&a.prev), &widen(&b.prev), m, red, n);
        }
        let emit = policy.emit();
        let enc =
            encode(&a.cur, has_prev.then_some(a.prev.as_slice()), m, red, emit, &mut scratch.op_a);
        // Only the temporal view of the secondary operand is recorded: one
        // flat row has no spatial work to do.
        let temporal = has_prev.then(|| {
            let enc_b = encode(&b.cur, Some(&b.prev), 1, red * n, emit, &mut scratch.op_b);
            vec![
                enc_b.temporal.expect("encoded against a previous step"),
                enc.temporal.expect("encoded against a previous step"),
            ]
        });
        recorder.record(step, idx, StepStats { act: enc.act, spa: enc.spatial, temporal });
        clock.lap(ENCODE);

        if has_prev && policy == ExecPolicy::TemporalDelta {
            // scores_t = prev + A_t·ΔB + ΔA·B_prev (§IV-A).
            widen_into(&a.cur, &mut scratch.wide_a);
            widen_into(&b.prev, &mut scratch.wide_b);
            attention_delta_scores_into(
                acc,
                &scratch.wide_a,
                &scratch.op_a,
                &scratch.wide_b,
                &scratch.op_b,
                &mut scratch.pack,
                m,
                red,
                n,
            );
        } else {
            scratch.pack.clear();
            int_matmul_into(acc, &scratch.op_a, &b.cur, &mut scratch.pack, m, red, n);
        }
        a.commit(grid_a);
        b.commit(grid_b);
        clock.lap(KERNEL);
        grid_a * grid_b
    }
}

/// Output dims of linear site `node` over `inputs`; `None` for any other op.
fn site_out_dims(node: &Node, inputs: &[&Tensor]) -> Option<Vec<usize>> {
    let dims = |i: usize| inputs[i].dims();
    match &node.op {
        LayerOp::Conv2d { c_out, params, .. } => {
            Some(vec![*c_out, params.out_extent(dims(0)[1]), params.out_extent(dims(0)[2])])
        }
        LayerOp::Linear { d_out, .. } => Some(vec![dims(0)[0], *d_out]),
        LayerOp::MatmulQK => Some(vec![dims(0)[0], dims(1)[0]]),
        LayerOp::MatmulPV => Some(vec![dims(0)[0], dims(1)[1]]),
        _ => None,
    }
}

impl LinearHook for DittoHook {
    fn compute_linear(
        &mut self,
        node: &Node,
        step: StepInfo,
        inputs: &[&Tensor],
    ) -> Option<Tensor> {
        let dims = site_out_dims(node, inputs)?;
        let views: Vec<OperandView<'_>> = inputs.iter().map(|&t| t.into()).collect();
        let mut out = vec![0.0; dims.iter().product()];
        self.compute_linear_into(node, step, &views, &mut out)
            .then(|| Tensor::from_vec(out, &dims).expect("site output shape"))
    }

    fn compute_linear_into(
        &mut self,
        node: &Node,
        step: StepInfo,
        inputs: &[OperandView<'_>],
        out: &mut [f32],
    ) -> bool {
        let s = step.step_index;
        let DittoHook { quantizer, policy, layers, recorder, scratch, stage_series, .. } = self;
        let policy = *policy;
        let mut clock = StageClock::start();
        match &node.op {
            &LayerOp::Conv2d { c_out: n, params, .. } => {
                let x = inputs[0];
                let (c, h, w) = (x.dims[0], x.dims[1], x.dims[2]);
                let layer = layers.get_mut(&node.id).expect("DittoHook::new quantized this conv");
                // Quantize the raw input once, then expand to im2col so
                // padding zeros and duplicated taps are exact.
                let grid = layer.a.grid_scale(quantizer, node.id, s, x.data);
                quantize_into(x.data, grid, &mut scratch.levels);
                let (m, _) = im2col_i8_into(&scratch.levels, c, h, w, params, &mut layer.a.cur);
                let out_scale = layer.run_weighted(
                    node,
                    s,
                    LinearKind::Conv,
                    m,
                    grid,
                    (c * h * w) as u64,
                    policy,
                    recorder,
                    scratch,
                    &mut clock,
                );
                // [m, n] accumulators → [n, ho, wo] with bias.
                let (acc, bias) = (&layer.acc, layer.bias());
                for (co, plane) in out.chunks_exact_mut(m).enumerate() {
                    let b = bias.map_or(0.0, |bv| bv[co]);
                    for (pix, o) in plane.iter_mut().enumerate() {
                        *o = acc[pix * n + co] as f32 * out_scale + b;
                    }
                }
            }
            &LayerOp::Linear { d_out: n, .. } => {
                let x = inputs[0];
                let m = x.dims[0];
                let layer = layers.get_mut(&node.id).expect("DittoHook::new quantized this layer");
                let grid = layer.a.grid_scale(quantizer, node.id, s, x.data);
                quantize_into(x.data, grid, &mut layer.a.cur);
                let out_scale = layer.run_weighted(
                    node,
                    s,
                    LinearKind::Fc,
                    m,
                    grid,
                    x.data.len() as u64,
                    policy,
                    recorder,
                    scratch,
                    &mut clock,
                );
                let bias = layer.bias();
                for (orow, arow) in out.chunks_exact_mut(n).zip(layer.acc.chunks_exact(n)) {
                    for (j, (o, &v)) in orow.iter_mut().zip(arow).enumerate() {
                        *o = v as f32 * out_scale + bias.map_or(0.0, |bv| bv[j]);
                    }
                }
            }
            LayerOp::MatmulQK | LayerOp::MatmulPV => {
                let kind = if matches!(node.op, LayerOp::MatmulQK) {
                    LinearKind::MatmulQk
                } else {
                    LinearKind::MatmulPv
                };
                let layer = layers.entry(node.id).or_default();
                let scale = layer.run_attention(
                    node, s, kind, inputs[0], inputs[1], quantizer, policy, recorder, scratch,
                    &mut clock,
                );
                let scale = match kind {
                    LinearKind::MatmulQk => scale / (inputs[0].dims[1] as f32).sqrt(),
                    _ => scale,
                };
                for (o, &v) in out.iter_mut().zip(&layer.acc) {
                    *o = v as f32 * scale;
                }
            }
            _ => return false,
        }
        clock.lap(DEQUANT);
        clock.finish(stage_series);
        true
    }
}

/// A hook that records per-layer absolute maxima for offline calibration
/// (the Q-Diffusion calibration pass of §VI-A), while leaving execution in
/// f32.
#[derive(Debug)]
pub struct CalibrationHook {
    cal: Calibrator,
}

impl CalibrationHook {
    /// Creates a calibration hook for a run of `steps` model calls.
    pub fn new(steps: usize) -> Self {
        CalibrationHook { cal: Calibrator::new(steps) }
    }

    /// Finishes calibration into a table with at most `clusters` time-step
    /// clusters per layer.
    pub fn finish(self, clusters: usize) -> CalibrationTable {
        self.cal.finish(clusters)
    }

    /// Finishes calibration TDQ-style: one scale per time step (see the
    /// quantization ablation bench for the trade-off against clustering).
    pub fn finish_per_step(self) -> CalibrationTable {
        self.cal.finish_per_step()
    }
}

impl LinearHook for CalibrationHook {
    fn observe(&mut self, node: &Node, step: StepInfo, inputs: &[&Tensor], out: &Tensor) {
        if node.op.is_linear_layer() {
            let views: Vec<OperandView<'_>> = inputs.iter().map(|&t| t.into()).collect();
            self.observe_linear(node, step, &views, out.into());
        }
    }

    /// Execution stays in f32: every site is declined without looking at it.
    fn compute_linear_into(
        &mut self,
        _node: &Node,
        _step: StepInfo,
        _inputs: &[OperandView<'_>],
        _out: &mut [f32],
    ) -> bool {
        false
    }

    fn observe_linear(
        &mut self,
        node: &Node,
        step: StepInfo,
        inputs: &[OperandView<'_>],
        _out: OperandView<'_>,
    ) {
        self.cal.observe(node.id, step.step_index, stats::abs_max(inputs[0].data));
        if let Some(b) = inputs.get(1) {
            // Secondary attention operand under its offset key.
            self.cal.observe(
                node.id + SECONDARY_KEY_OFFSET,
                step.step_index,
                stats::abs_max(b.data),
            );
        }
    }
}

/// Runs the full pipeline for one model: (optionally) calibrate, then trace
/// a quantized run. Returns the trace and the generated sample.
///
/// Models flagged [`diffusion::ModelKind::uses_dynamic_quant`] skip
/// calibration and pin grids from the first step (§VI-A: dynamic
/// quantization for the diffusion transformers).
///
/// # Errors
///
/// Propagates executor errors (impossible for zoo models).
pub fn trace_model(
    model: &DiffusionModel,
    sample_seed: u64,
    policy: ExecPolicy,
) -> tensor::Result<(WorkloadTrace, Tensor)> {
    let abbr = model.kind.abbr();
    let quantizer = {
        let _span = telemetry::on().then(|| telemetry::span("core", format!("calibrate:{abbr}")));
        build_quantizer(model, sample_seed)?
    };
    let mut hook = DittoHook::new(model, quantizer, policy);
    let out = {
        let _span = telemetry::on().then(|| telemetry::span("core", format!("hooked_run:{abbr}")));
        model.run_reverse(sample_seed, &mut hook)?
    };
    Ok((hook.into_trace(), out))
}

/// Builds the quantization policy the paper applies to `model` (§VI-A):
/// an offline Q-Diffusion-style calibration pass with time-step clustering
/// for the UNet models, dynamic quantization for the diffusion
/// transformers. The calibration run samples with `calib_seed`.
///
/// # Errors
///
/// Propagates executor errors from the calibration run.
pub fn build_quantizer(model: &DiffusionModel, calib_seed: u64) -> tensor::Result<Quantizer> {
    if model.kind.uses_dynamic_quant() {
        Ok(Quantizer::dynamic())
    } else {
        let mut cal = CalibrationHook::new(model.model_calls());
        model.run_reverse(calib_seed, &mut cal)?;
        Ok(Quantizer::with_table(cal.finish(8)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffusion::{ModelKind, ModelScale};

    #[test]
    fn dense_and_delta_policies_are_bit_identical() {
        // The §IV-A equivalence, end to end through a real model.
        let model = DiffusionModel::build(ModelKind::Ddpm, ModelScale::Tiny, 7);
        let (_, out_dense) = trace_model(&model, 3, ExecPolicy::Dense).unwrap();
        let (_, out_delta) = trace_model(&model, 3, ExecPolicy::TemporalDelta).unwrap();
        assert_eq!(out_dense, out_delta);
    }

    #[test]
    fn attention_delta_policy_matches_dense() {
        let model = DiffusionModel::build(ModelKind::Dit, ModelScale::Tiny, 8);
        let (_, a) = trace_model(&model, 1, ExecPolicy::Dense).unwrap();
        let (_, b) = trace_model(&model, 1, ExecPolicy::TemporalDelta).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn delta_path_exact_across_grid_boundaries() {
        // A per-step (TDQ-style) table changes the activation grid every
        // step, forcing the re-grid path; difference processing must stay
        // bit-identical to dense execution through every boundary.
        let model = DiffusionModel::build(ModelKind::Bed, ModelScale::Tiny, 14);
        let mut cal = CalibrationHook::new(model.model_calls());
        model.run_reverse(2, &mut cal).unwrap();
        let table = cal.finish_per_step();
        let q1 = Quantizer::with_table(table.clone());
        let q2 = Quantizer::with_table(table);
        let mut dense_hook = DittoHook::new(&model, q1, ExecPolicy::Dense);
        let dense = model.run_reverse(2, &mut dense_hook).unwrap();
        let mut delta_hook = DittoHook::new(&model, q2, ExecPolicy::TemporalDelta);
        let delta = model.run_reverse(2, &mut delta_hook).unwrap();
        assert_eq!(dense, delta);
    }

    #[test]
    fn regrid_levels_roundtrip() {
        let levels = [10i8, -20, 127, 0];
        let regrid = |old: f32, new: f32| {
            let mut v = levels;
            regrid_levels(&mut v, old, new);
            v
        };
        assert_eq!(regrid(0.5, 0.5), levels);
        // Doubling the grid halves the levels.
        assert_eq!(regrid(0.5, 1.0), [5, -10, 64, 0]);
        // Shrinking the grid saturates.
        assert_eq!(regrid(1.0, 0.001)[2], 127);
    }

    #[test]
    fn trace_covers_all_linear_layers_and_steps() {
        let model = DiffusionModel::build(ModelKind::Bed, ModelScale::Tiny, 9);
        let (trace, _) = trace_model(&model, 2, ExecPolicy::Dense).unwrap();
        assert_eq!(trace.layer_count(), model.graph.linear_layers().len());
        assert_eq!(trace.step_count(), model.model_calls());
        // Step 0 has no temporal stats; later steps do.
        for st in &trace.steps[0] {
            assert!(st.temporal.is_none());
        }
        for st in &trace.steps[1] {
            assert!(st.temporal.is_some());
        }
    }

    #[test]
    fn temporal_deltas_are_mostly_narrow() {
        // The paper's central observation, on our BED instance: most
        // temporal differences are zero or ≤4-bit.
        let model = DiffusionModel::build(ModelKind::Bed, ModelScale::Tiny, 10);
        let (trace, _) = trace_model(&model, 4, ExecPolicy::Dense).unwrap();
        let t = trace.merged(crate::trace::StatView::Temporal);
        let a = trace.merged(crate::trace::StatView::Activation);
        assert!(
            t.le4_ratio() > a.le4_ratio(),
            "temporal {:.3} must beat activation {:.3}",
            t.le4_ratio(),
            a.le4_ratio()
        );
        assert!(t.zero_ratio() > a.zero_ratio());
    }

    #[test]
    fn cross_attention_context_deltas_are_zero() {
        // K'/V' come from the constant context: their producing FC layers
        // see identical inputs every step → all-zero temporal deltas
        // (the §IV-A cross-attention observation).
        let model = DiffusionModel::build(ModelKind::Img, ModelScale::Tiny, 11);
        let (trace, _) = trace_model(&model, 5, ExecPolicy::Dense).unwrap();
        let k_idx = trace
            .layers
            .iter()
            .position(|l| l.name.contains("attn2.k"))
            .expect("cross-attention K projection exists");
        for step in 1..trace.step_count() {
            let st = &trace.steps[step][k_idx];
            let h = st.temporal_merged().unwrap();
            assert_eq!(h.total(), h.zero, "step {step}: context deltas must all be zero");
        }
    }

    #[test]
    fn conv_layers_classified_in_im2col_domain() {
        let model = DiffusionModel::build(ModelKind::Ddpm, ModelScale::Tiny, 12);
        let (trace, _) = trace_model(&model, 6, ExecPolicy::Dense).unwrap();
        let conv = trace.layers.iter().find(|l| l.kind == LinearKind::Conv).unwrap();
        // im2col elements = K² × raw elements for stride-1 same conv.
        assert!(conv.elems >= conv.in_bytes, "{} vs {}", conv.elems, conv.in_bytes);
        assert_eq!(conv.macs, conv.elems * conv.reuse);
    }

    #[test]
    fn spatial_hist_counts_base_row_plus_deltas() {
        let h =
            encode(&[10, 20, 10, 21, 10, 120], None, 3, 2, Emit::Levels, &mut Vec::new()).spatial;
        // Base row: 10, 20 (both Full8). Deltas: 0, 1, 0, 99.
        assert_eq!(h.total(), 6);
        assert_eq!(h.zero, 2);
        assert_eq!(h.low4, 1);
        assert_eq!(h.full8, 3);
    }

    #[test]
    fn quantized_outputs_track_fp32() {
        // Quantized execution must stay close to FP32 (Table II's premise).
        let model = DiffusionModel::build(ModelKind::Ddpm, ModelScale::Tiny, 13);
        let fp32 = model.run_reverse(5, &mut diffusion::NullHook).unwrap();
        let (_, q) = trace_model(&model, 5, ExecPolicy::Dense).unwrap();
        let sim = stats::cosine_similarity(fp32.as_slice(), q.as_slice());
        assert!(sim > 0.95, "cosine similarity {sim}");
    }
}
