//! The Table I benchmark model zoo.
//!
//! Seven structurally faithful, scaled-down denoising models:
//!
//! | Abbr. | Family | Space | Blocks | Sampler & steps |
//! |-------|--------|-------|--------|-----------------|
//! | DDPM  | DDPM UNet | pixel | ResNet + attention | DDIM 100 |
//! | BED   | Latent-Diffusion UNet | latent | ResNet + attention | DDIM 200 |
//! | CHUR  | Latent-Diffusion UNet | latent | ResNet + pooled attention | DDIM 200 |
//! | IMG   | Latent-Diffusion conditional | latent | ResNet + cond transformer | DDIM 20 |
//! | SDM   | Stable-Diffusion | latent | ResNet + cond transformer | PLMS 50 |
//! | DiT   | DiT-XL/2 | latent | adaLN transformer | DDIM 250 |
//! | Latte | Latte-XL/2 | latent video | adaLN transformer (spatial/temporal) | DDIM 20 |
//!
//! Channel/spatial dimensions are scaled down (see `ModelScale`) so the
//! full suite runs in CI time; block topology, layer mix, non-linearity
//! placement, sampler identity and step counts match the paper.
//!
//! A [`ModelSpec`] is a benchmark without its weights — what cache keys and
//! plans are computed from. A [`DiffusionModel`] wraps one and draws the
//! weights the first time it runs. Every model evaluation of
//! [`DiffusionModel::run_reverse`] / [`DiffusionModel::run_reverse_cfg`]
//! runs the model's compiled [`plan`](crate::plan), under any hook. The
//! `*_oracle` twins run the same sampler loops over `executor::forward` for
//! the identity tests.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

use crate::blocks::BlockCtx;
use crate::executor::{forward, Bindings, LinearHook, StepInfo};
use crate::graph::{fnv1a_fold, LayerGraph};
use crate::op::{InputKind, LayerOp};
use crate::plan::{self, PlanArena, TracePlan};
use crate::sampler::{ddim_update, plms_combine, SamplerKind, Schedule};
use crate::weights::Weights;
use tensor::ops::Conv2dParams;
use tensor::{ops, Result, Rng, Tensor};

/// The seven Table I benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Pixel-space unconditional DDPM (CIFAR-10).
    Ddpm,
    /// Latent-space unconditional LDM (LSUN-Bedroom).
    Bed,
    /// Latent-space unconditional LDM with pooled attention (LSUN-Church).
    Chur,
    /// Latent-space class-conditional LDM (ImageNet).
    Img,
    /// Stable-Diffusion-style text-conditional LDM (COCO).
    Sdm,
    /// Diffusion transformer DiT-XL/2 (ImageNet).
    Dit,
    /// Latent video diffusion transformer Latte-XL/2 (UCF-101).
    Latte,
}

impl ModelKind {
    /// All seven benchmarks in Table I order.
    pub fn all() -> [ModelKind; 7] {
        [
            ModelKind::Ddpm,
            ModelKind::Bed,
            ModelKind::Chur,
            ModelKind::Img,
            ModelKind::Sdm,
            ModelKind::Dit,
            ModelKind::Latte,
        ]
    }

    /// Table I abbreviation.
    pub fn abbr(self) -> &'static str {
        match self {
            ModelKind::Ddpm => "DDPM",
            ModelKind::Bed => "BED",
            ModelKind::Chur => "CHUR",
            ModelKind::Img => "IMG",
            ModelKind::Sdm => "SDM",
            ModelKind::Dit => "DiT",
            ModelKind::Latte => "Latte",
        }
    }

    /// Table I dataset name.
    pub fn dataset(self) -> &'static str {
        match self {
            ModelKind::Ddpm => "Cifar-10",
            ModelKind::Bed => "LSUN-Bed",
            ModelKind::Chur => "LSUN-Church",
            ModelKind::Img => "ImageNet",
            ModelKind::Sdm => "COCO2017",
            ModelKind::Dit => "ImageNet",
            ModelKind::Latte => "UCF-101",
        }
    }

    /// Table I sampler.
    pub fn sampler(self) -> SamplerKind {
        match self {
            ModelKind::Sdm => SamplerKind::Plms,
            _ => SamplerKind::Ddim,
        }
    }

    /// Table I sampler step count.
    pub fn paper_steps(self) -> usize {
        match self {
            ModelKind::Ddpm => 100,
            ModelKind::Bed | ModelKind::Chur => 200,
            ModelKind::Img => 20,
            ModelKind::Sdm => 50,
            ModelKind::Dit => 250,
            ModelKind::Latte => 20,
        }
    }

    /// Whether the model quantizes dynamically (DiT/Latte) or via the
    /// Q-Diffusion calibrated static policy (§VI-A).
    pub fn uses_dynamic_quant(self) -> bool {
        matches!(self, ModelKind::Dit | ModelKind::Latte)
    }
}

/// How aggressively model dimensions are scaled down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelScale {
    /// Minimal dimensions and few steps — unit/integration tests.
    Tiny,
    /// The experiment configuration: small dims, paper step counts.
    Small,
}

impl ModelScale {
    fn steps(self, kind: ModelKind) -> usize {
        match self {
            ModelScale::Tiny => kind.paper_steps().min(6),
            ModelScale::Small => kind.paper_steps(),
        }
    }

    fn halved(self, v: usize) -> usize {
        match self {
            ModelScale::Tiny => (v / 2).max(4),
            ModelScale::Small => v,
        }
    }
}

/// A benchmark model without its weights: the graph (structure and
/// parameter shapes), the sampler, the input shapes and the seed the
/// weights are drawn from. Building one costs no weight generation, so
/// everything keyed on a model definition — trace-cache fingerprints,
/// compiled plans — comes from a spec; a [`DiffusionModel`] adds the
/// weights when it first runs.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Which Table I benchmark this is.
    pub kind: ModelKind,
    /// The denoising network.
    pub graph: LayerGraph,
    /// The ᾱ schedule.
    pub schedule: Schedule,
    /// Sampler identity.
    pub sampler: SamplerKind,
    /// Sampler step count.
    pub steps: usize,
    /// Latent/image dims bound to the latent input.
    pub latent_dims: Vec<usize>,
    /// Context dims, if conditional.
    pub context_dims: Option<Vec<usize>>,
    /// Seed of the weight stream [`Weights::seeded`] draws from.
    pub weight_seed: u64,
}

impl ModelSpec {
    /// The spec of a Table I benchmark whose weights are drawn from
    /// `weight_seed`.
    pub fn new(kind: ModelKind, scale: ModelScale, weight_seed: u64) -> Self {
        let mut graph = LayerGraph::new();
        let (latent_dims, context_dims, steps) =
            build_graph(kind, scale, &mut BlockCtx::new(&mut graph));
        graph.validate();
        ModelSpec {
            kind,
            graph,
            schedule: Schedule::linear(1000),
            sampler: kind.sampler(),
            steps,
            latent_dims,
            context_dims,
            weight_seed: weight_seed ^ kind as u64,
        }
    }

    /// Total model evaluations the reverse process performs (PLMS adds its
    /// warm-up call — the paper's "50′" step).
    pub fn model_calls(&self) -> usize {
        self.sampler.model_calls(self.steps)
    }

    /// A 64-bit FNV-1a digest of the definition: the graph's structure
    /// digest (parameter shapes included), the benchmark, sampler, step
    /// count, input dims and weight seed. Two specs with equal digests draw
    /// equal weights and, from equal seeds, equal samples; cache keys are
    /// built on it.
    pub fn digest(&self) -> u64 {
        let mut h = self.graph.structure_digest();
        let mut eat = |bytes: &[u8]| h = fnv1a_fold(h, bytes);
        eat(self.kind.abbr().as_bytes());
        eat(format!("{:?}", self.sampler).as_bytes());
        eat(&(self.steps as u64).to_le_bytes());
        for &d in self.latent_dims.iter().chain(self.context_dims.iter().flatten()) {
            eat(&(d as u64).to_le_bytes());
        }
        eat(&self.weight_seed.to_le_bytes());
        h
    }

    /// The seeded initial latent and conditioning context a reverse run
    /// with `sample_seed` starts from. Exposed so metrics (e.g. the CLIP
    /// proxy of Table II) can reference the conditioning.
    pub fn sample_inputs(&self, sample_seed: u64) -> (Tensor, Option<Tensor>) {
        let mut rng = Rng::seed_from(sample_seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
        let latent = Tensor::randn(&self.latent_dims, &mut rng);
        let context = self.context_dims.as_ref().map(|d| Tensor::randn(d, &mut rng));
        (latent, context)
    }

    /// Draws the model's weights from [`Self::weight_seed`].
    pub fn draw_weights(&self) -> Weights {
        Weights::seeded(&self.graph, self.weight_seed)
    }

    /// The compiled trace plan for this spec's graph and input shapes, from
    /// the process-wide plan cache (compiled on a miss, which records a
    /// [`plan::CompileEvent`] for the observability stream). `None` if the
    /// graph does not compile: the model then runs `executor::forward`,
    /// which reports the authoritative diagnostics on first forward.
    pub fn plan(&self) -> Option<Arc<TracePlan>> {
        let start = std::time::Instant::now();
        let context_dims = self.context_dims.as_deref();
        let (compiled, fresh) =
            plan::compile_cached(&self.graph, &self.latent_dims, context_dims).ok()?;
        if fresh {
            plan::record_compile_event(plan::CompileEvent {
                label: self.kind.abbr().to_string(),
                nodes: self.graph.len(),
                ops: compiled.op_count(),
                arena_f32: compiled.arena_len(),
                micros: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
            });
        }
        Some(compiled)
    }
}

/// A runnable benchmark model: a [`ModelSpec`] (reached through `Deref`)
/// plus its weights and compiled plan, each made on first use (a clone
/// copies what is made by then). Building one is as cheap as building its
/// spec.
#[derive(Debug, Clone)]
pub struct DiffusionModel {
    spec: ModelSpec,
    weights: OnceLock<Weights>,
    plan: OnceLock<Option<Arc<TracePlan>>>,
}

impl From<ModelSpec> for DiffusionModel {
    fn from(spec: ModelSpec) -> Self {
        DiffusionModel { spec, weights: OnceLock::new(), plan: OnceLock::new() }
    }
}

impl Deref for DiffusionModel {
    type Target = ModelSpec;

    fn deref(&self) -> &ModelSpec {
        &self.spec
    }
}

impl DerefMut for DiffusionModel {
    /// Mutable access to the spec drops the weights and plan made from it;
    /// the next run makes them again from the edited spec.
    fn deref_mut(&mut self) -> &mut ModelSpec {
        self.weights = OnceLock::new();
        self.plan = OnceLock::new();
        &mut self.spec
    }
}

impl DiffusionModel {
    /// A Table I benchmark whose weights are drawn from `weight_seed` when
    /// it first runs.
    pub fn build(kind: ModelKind, scale: ModelScale, weight_seed: u64) -> Self {
        ModelSpec::new(kind, scale, weight_seed).into()
    }

    /// The model's weights, drawn on first call.
    pub fn weights(&self) -> &Weights {
        self.weights.get_or_init(|| self.spec.draw_weights())
    }

    /// The trace plan every model evaluation runs, under any hook (see
    /// [`ModelSpec::plan`]); looked up on first call.
    pub fn plan(&self) -> Option<&Arc<TracePlan>> {
        self.plan.get_or_init(|| self.spec.plan()).as_ref()
    }

    /// Evaluates the model once through the compiled plan, whatever the
    /// hook. `executor::forward` runs instead only when asked for as the
    /// `oracle`, or when the plan failed to compile or was compiled for
    /// other shapes than `bindings` carry. Both are bit-identical by
    /// contract.
    fn forward_dispatch(
        &self,
        bindings: &Bindings<'_>,
        step: StepInfo,
        hook: &mut dyn LinearHook,
        arena: &mut PlanArena,
        oracle: bool,
    ) -> Result<Tensor> {
        let weights = self.weights();
        match self.plan() {
            Some(p) if !oracle && p.matches(bindings) => {
                p.execute(&self.graph, weights, bindings, step, hook, arena)
            }
            _ => forward(&self.graph, weights, bindings, step, hook),
        }
    }

    /// Runs the reverse process with classifier-free guidance: every step
    /// evaluates the model twice — once with the conditioning context and
    /// once with a zeroed context — and extrapolates
    /// `ε = ε_u + g·(ε_c − ε_u)`. The two evaluation streams go to
    /// *separate* hooks so difference-processing state stays per branch
    /// (interleaving cond/uncond calls through one temporal-delta state
    /// would destroy adjacent-step similarity; see the `ditto-figs ext-cfg`
    /// experiment). Uses DDIM updates regardless of the model's default
    /// sampler.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is unconditional.
    pub fn run_reverse_cfg(
        &self,
        sample_seed: u64,
        guidance: f32,
        cond_hook: &mut dyn LinearHook,
        uncond_hook: &mut dyn LinearHook,
    ) -> Result<Tensor> {
        self.reverse_cfg(sample_seed, guidance, cond_hook, uncond_hook, false)
    }

    /// [`Self::run_reverse_cfg`] on the oracle `executor::forward`: what the
    /// identity tests compare the plan against.
    ///
    /// # Errors
    ///
    /// As [`Self::run_reverse_cfg`].
    #[doc(hidden)]
    pub fn run_reverse_cfg_oracle(
        &self,
        sample_seed: u64,
        guidance: f32,
        cond_hook: &mut dyn LinearHook,
        uncond_hook: &mut dyn LinearHook,
    ) -> Result<Tensor> {
        self.reverse_cfg(sample_seed, guidance, cond_hook, uncond_hook, true)
    }

    fn reverse_cfg(
        &self,
        sample_seed: u64,
        guidance: f32,
        cond_hook: &mut dyn LinearHook,
        uncond_hook: &mut dyn LinearHook,
        oracle: bool,
    ) -> Result<Tensor> {
        let (mut x, context) = self.sample_inputs(sample_seed);
        let context = context.ok_or_else(|| {
            tensor::TensorError::InvalidArgument("CFG needs a conditional model".into())
        })?;
        let null_context = Tensor::zeros(context.dims());
        let times = self.schedule.sample_times(self.steps);
        let total = self.steps;
        let mut arena = PlanArena::new();
        for (i, &t) in times.iter().enumerate() {
            let t_prev = times.get(i + 1).copied().unwrap_or(usize::MAX);
            let tf = t as f32;
            let step = StepInfo { step_index: i, t: tf, total_steps: total };
            let eps_c = self.forward_dispatch(
                &Bindings { latent: &x, context: Some(&context), t: tf },
                step,
                cond_hook,
                &mut arena,
                oracle,
            )?;
            let eps_u = self.forward_dispatch(
                &Bindings { latent: &x, context: Some(&null_context), t: tf },
                step,
                uncond_hook,
                &mut arena,
                oracle,
            )?;
            // ε_u + g·(ε_c − ε_u)
            let eps = eps_u.zip_with(&eps_c, |u, c| u + guidance * (c - u))?;
            x = ddim_update(&x, &eps, &self.schedule, t, t_prev)?;
        }
        Ok(x)
    }

    /// Runs the complete reverse diffusion process from seeded Gaussian
    /// noise, calling `hook` at every linear site of every model call, and
    /// returns the generated sample.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors (impossible for zoo-built models).
    pub fn run_reverse(&self, sample_seed: u64, hook: &mut dyn LinearHook) -> Result<Tensor> {
        self.reverse(sample_seed, hook, false)
    }

    /// [`Self::run_reverse`] on the oracle `executor::forward` (same sampler
    /// code, allocating tree walk per model call): what the identity tests
    /// and `perfbench` compare the plan against.
    ///
    /// # Errors
    ///
    /// As [`Self::run_reverse`].
    #[doc(hidden)]
    pub fn run_reverse_oracle(
        &self,
        sample_seed: u64,
        hook: &mut dyn LinearHook,
    ) -> Result<Tensor> {
        self.reverse(sample_seed, hook, true)
    }

    fn reverse(&self, sample_seed: u64, hook: &mut dyn LinearHook, oracle: bool) -> Result<Tensor> {
        let (mut x, context) = self.sample_inputs(sample_seed);
        let times = self.schedule.sample_times(self.steps);
        let total = self.model_calls();
        let mut call_idx = 0usize;
        let mut arena = PlanArena::new();
        let mut eval = |x: &Tensor, t: usize, idx: usize, hook: &mut dyn LinearHook| {
            let tf = t as f32;
            self.forward_dispatch(
                &Bindings { latent: x, context: context.as_ref(), t: tf },
                StepInfo { step_index: idx, t: tf, total_steps: total },
                hook,
                &mut arena,
                oracle,
            )
        };
        match self.sampler {
            SamplerKind::Ddim => {
                for (i, &t) in times.iter().enumerate() {
                    let t_prev = times.get(i + 1).copied().unwrap_or(usize::MAX);
                    let eps = eval(&x, t, call_idx, hook)?;
                    call_idx += 1;
                    x = ddim_update(&x, &eps, &self.schedule, t, t_prev)?;
                }
            }
            SamplerKind::Plms => {
                let mut history: Vec<Tensor> = Vec::new();
                for (i, &t) in times.iter().enumerate() {
                    let t_prev = times.get(i + 1).copied().unwrap_or(usize::MAX);
                    let eps_t = eval(&x, t, call_idx, hook)?;
                    call_idx += 1;
                    let eps_prime = if history.is_empty() {
                        // Warm-up: improved-Euler half step — the extra
                        // model call PLMS front-loads (Fig. 4a's 50′).
                        let x_mid = ddim_update(&x, &eps_t, &self.schedule, t, t_prev)?;
                        let eps_mid = eval(&x_mid, t_prev.min(t), call_idx, hook)?;
                        call_idx += 1;
                        ops::scale(&ops::add(&eps_t, &eps_mid)?, 0.5)
                    } else {
                        let recent: Vec<Tensor> = history.iter().rev().take(3).cloned().collect();
                        plms_combine(&eps_t, &recent)?
                    };
                    x = ddim_update(&x, &eps_prime, &self.schedule, t, t_prev)?;
                    history.push(eps_t);
                    if history.len() > 3 {
                        history.remove(0);
                    }
                    let _ = i;
                }
            }
        }
        Ok(x)
    }
}

/// Builds the graph for `kind` and returns `(latent_dims, context_dims,
/// steps)`.
fn build_graph(
    kind: ModelKind,
    scale: ModelScale,
    ctx: &mut BlockCtx<'_>,
) -> (Vec<usize>, Option<Vec<usize>>, usize) {
    let steps = scale.steps(kind);
    match kind {
        ModelKind::Ddpm => {
            let (c, hw) = (scale.halved(16), scale.halved(16));
            unet(ctx, 3, c, hw, UnetConditioning::None, None);
            (vec![3, hw, hw], None, steps)
        }
        ModelKind::Bed => {
            let (c, hw) = (scale.halved(24), scale.halved(16));
            unet(ctx, 4, c, hw, UnetConditioning::None, None);
            (vec![4, hw, hw], None, steps)
        }
        ModelKind::Chur => {
            let (c, hw) = (scale.halved(24), scale.halved(16));
            unet(ctx, 4, c, hw, UnetConditioning::None, Some(2));
            (vec![4, hw, hw], None, steps)
        }
        ModelKind::Img => {
            let (c, hw) = (scale.halved(24), scale.halved(16));
            let (s, ctx_dim) = (4, scale.halved(16));
            unet(ctx, 4, c, hw, UnetConditioning::Cross { ctx_dim, blocks: 1 }, None);
            (vec![4, hw, hw], Some(vec![s, ctx_dim]), steps)
        }
        ModelKind::Sdm => {
            let (c, hw) = (scale.halved(32), scale.halved(16));
            let (s, ctx_dim) = (8, scale.halved(24));
            unet(ctx, 4, c, hw, UnetConditioning::Cross { ctx_dim, blocks: 2 }, None);
            (vec![4, hw, hw], Some(vec![s, ctx_dim]), steps)
        }
        ModelKind::Dit => {
            // Transformer feature width sits in the paper's reuse regime
            // (DiT-XL/2 uses 1152; reuse ≥ 96 keeps the same
            // compute-to-traffic balance at simulation scale).
            let (dim, hw, depth) = (scale.halved(96), scale.halved(16), 3);
            dit(ctx, 4, dim, hw, hw, depth, "block");
            (vec![4, hw, hw], Some(vec![1, dim]), steps)
        }
        ModelKind::Latte => {
            // Video as two frames laid out side by side: [4, H, 2H].
            let (dim, h) = (scale.halved(96), scale.halved(8));
            let w = 2 * h;
            dit_named(ctx, 4, dim, h, w, &["spatial.0", "temporal.0", "spatial.1", "temporal.1"]);
            (vec![4, h, w], Some(vec![1, dim]), steps)
        }
    }
}

/// Gain of the network contribution on top of the identity ε path.
///
/// A trained ε-predictor's output is dominated by the noise component of
/// its input (`ε̂ ≈ x_t` at high noise levels); random weights lack that
/// behaviour, which would make the reverse trajectory non-physical and
/// destroy the temporal similarity the paper measures. Modelling
/// `ε̂ = x + γ·net(x, t)` restores the trained-model dynamics while every
/// internal layer still processes the real network computation (see
/// [`crate::metrics`] for why untrained surrogates stand in).
const EPS_RESIDUAL_GAIN: f32 = 0.05;

/// Builds an *extension* UNet with a true resolution hierarchy: a
/// stride-2 down-sampling convolution into the mid section and a
/// nearest-neighbour [`LayerOp::Upsample2x`] back up, with the cross-
/// resolution skip concatenation of real UNets. Not part of the Table I
/// suite (whose constant-resolution skeleton is sufficient for every
/// paper phenomenon — see `accel::config`); used by the hierarchy ablation to
/// show the Ditto stack handles resolution changes end to end.
///
/// Reuses the DDPM model identity (pixel-space, DDIM, Q-Diffusion
/// calibration policy).
pub fn build_hierarchical_unet(scale: ModelScale, weight_seed: u64) -> DiffusionModel {
    let kind = ModelKind::Ddpm;
    let mut graph = LayerGraph::new();
    let (c_io, c, hw) = (3, scale.halved(16), scale.halved(16));
    {
        let ctx = &mut BlockCtx::new(&mut graph);
        let groups = 4;
        let emb_dim = 2 * c;
        let x = ctx.g.add("input", LayerOp::Input(InputKind::Latent), &[]);
        let t = ctx.g.add("timestep", LayerOp::Input(InputKind::Timestep), &[]);
        let emb = ctx.time_embedding(t, 16, emb_dim);
        let h0 = ctx.conv("conv-in", x, c_io, c, Conv2dParams::same3x3());
        let h1 = ctx.resnet_block("down.0.0", h0, emb, c, c, emb_dim, groups);
        // Stride-2 down-sampling convolution into the low-resolution mid.
        let down = ctx.conv(
            "down.0.downsample",
            h1,
            c,
            2 * c,
            Conv2dParams { kernel: 3, stride: 2, padding: 1 },
        );
        let mid = ctx.resnet_block("mid.res.0", down, emb, 2 * c, 2 * c, emb_dim, groups);
        let mid = ctx.attention_block("mid.attn", mid, 2 * c, hw / 2, hw / 2, groups, None);
        let mid = ctx.resnet_block("mid.res.1", mid, emb, 2 * c, 2 * c, emb_dim, groups);
        // Back to full resolution; concat the high-resolution skip.
        let up = ctx.g.add("up.upsample", LayerOp::Upsample2x, &[mid]);
        let cat = ctx.g.add("up.concat", LayerOp::ConcatChannels, &[up, h1]);
        let up = ctx.resnet_block("up.0.0", cat, emb, 3 * c, c, emb_dim, groups);
        let normed = ctx.group_norm("out.norm", up, c, groups);
        let act = ctx.g.add("out.silu", LayerOp::SiLU, &[normed]);
        let out = ctx.conv("conv-out", act, c, c_io, Conv2dParams::same3x3());
        let scaled = ctx.g.add("out.scale", LayerOp::Scale(EPS_RESIDUAL_GAIN), &[out]);
        let eps = ctx.g.add("out.residual", LayerOp::Add, &[scaled, x]);
        ctx.g.set_output(eps);
    }
    graph.validate();
    ModelSpec {
        kind,
        graph,
        schedule: Schedule::linear(1000),
        sampler: SamplerKind::Ddim,
        steps: scale.steps(kind),
        latent_dims: vec![c_io, hw, hw],
        context_dims: None,
        weight_seed: weight_seed ^ 0xBEEF,
    }
    .into()
}

/// Conditioning style of the UNet mid section.
enum UnetConditioning {
    /// Plain self-attention block (DDPM/BED/CHUR).
    None,
    /// Conditional latent transformer blocks (IMG/SDM).
    Cross { ctx_dim: usize, blocks: usize },
}

/// Shared UNet skeleton: conv-in → ResNet down blocks → attention /
/// transformer mid → skip-concat ResNet up block → conv-out. Spatial
/// resolution is kept constant (down/up-sampling does not affect any Ditto
/// phenomenon; see `accel::config`).
fn unet(
    ctx: &mut BlockCtx<'_>,
    c_io: usize,
    c: usize,
    hw: usize,
    conditioning: UnetConditioning,
    chur_pool: Option<usize>,
) {
    let groups = 4;
    let emb_dim = 2 * c;
    let x = ctx.g.add("input", LayerOp::Input(InputKind::Latent), &[]);
    let t = ctx.g.add("timestep", LayerOp::Input(InputKind::Timestep), &[]);
    let emb = ctx.time_embedding(t, 16, emb_dim);
    let h0 = ctx.conv("conv-in", x, c_io, c, Conv2dParams::same3x3());
    let h1 = ctx.resnet_block("down.0.0", h0, emb, c, c, emb_dim, groups);
    let h2 = ctx.resnet_block("down.1.0", h1, emb, c, 2 * c, emb_dim, groups);
    // Mid section.
    let mid = ctx.resnet_block("mid.res.0", h2, emb, 2 * c, 2 * c, emb_dim, groups);
    let mid = match conditioning {
        UnetConditioning::None => {
            ctx.attention_block("mid.attn", mid, 2 * c, hw, hw, groups, chur_pool)
        }
        UnetConditioning::Cross { ctx_dim, blocks } => {
            let cin = ctx.g.add("context", LayerOp::Input(InputKind::Context), &[]);
            let normed = ctx.group_norm("mid.proj.norm", mid, 2 * c, groups);
            let tokens = ctx.g.add("mid.to_tokens", LayerOp::ToTokens, &[normed]);
            let mut tk = ctx.linear("mid.proj_in", tokens, 2 * c, 2 * c);
            for b in 0..blocks {
                tk = ctx.cond_transformer_block(&format!("mid.tf.{b}"), tk, cin, 2 * c, ctx_dim);
            }
            let tk = ctx.linear("mid.proj_out", tk, 2 * c, 2 * c);
            let sp =
                ctx.g.add("mid.to_spatial", LayerOp::ToSpatial { c: 2 * c, h: hw, w: hw }, &[tk]);
            // The "extra linear layer" conv closing the block (Fig. 2).
            let sp = ctx.conv("mid.conv_out", sp, 2 * c, 2 * c, Conv2dParams::pointwise());
            ctx.g.add("mid.residual", LayerOp::Add, &[sp, mid])
        }
    };
    let mid = ctx.resnet_block("mid.res.1", mid, emb, 2 * c, 2 * c, emb_dim, groups);
    // Up path with UNet skip concatenation; the width-changing residual
    // projection inside this block is the paper's `up.0.0.skip` layer.
    let cat = ctx.g.add("up.concat", LayerOp::ConcatChannels, &[mid, h1]);
    let up = ctx.resnet_block("up.0.0", cat, emb, 3 * c, c, emb_dim, groups);
    let normed = ctx.group_norm("out.norm", up, c, groups);
    let act = ctx.g.add("out.silu", LayerOp::SiLU, &[normed]);
    let out = ctx.conv("conv-out", act, c, c_io, Conv2dParams::same3x3());
    // ε̂ = x + γ·net(x, t): the near-identity behaviour of a trained
    // ε-predictor (see EPS_RESIDUAL_GAIN).
    let scaled = ctx.g.add("out.scale", LayerOp::Scale(EPS_RESIDUAL_GAIN), &[out]);
    let eps = ctx.g.add("out.residual", LayerOp::Add, &[scaled, x]);
    ctx.g.set_output(eps);
}

/// DiT skeleton with uniformly named blocks.
fn dit(
    ctx: &mut BlockCtx<'_>,
    c_io: usize,
    dim: usize,
    h: usize,
    w: usize,
    depth: usize,
    prefix: &str,
) {
    let names: Vec<String> = (0..depth).map(|i| format!("{prefix}.{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    dit_named(ctx, c_io, dim, h, w, &refs);
}

/// DiT/Latte skeleton: patch-embedding conv → adaLN transformer blocks →
/// final modulated linear → unpatchify. `block_names` sets both depth and
/// block naming (Latte alternates `spatial.*` / `temporal.*`).
fn dit_named(
    ctx: &mut BlockCtx<'_>,
    c_io: usize,
    dim: usize,
    h: usize,
    w: usize,
    block_names: &[&str],
) {
    let p = 2;
    let (hp, wp) = (h / p, w / p);
    let x = ctx.g.add("input", LayerOp::Input(InputKind::Latent), &[]);
    let t = ctx.g.add("timestep", LayerOp::Input(InputKind::Timestep), &[]);
    let cin = ctx.g.add("context", LayerOp::Input(InputKind::Context), &[]);
    let temb = ctx.time_embedding(t, 16, dim);
    // Class conditioning enters additively, as in DiT.
    let cond = ctx.g.add("cond", LayerOp::Add, &[temb, cin]);
    let patches =
        ctx.conv("patch_embed", x, c_io, dim, Conv2dParams { kernel: p, stride: p, padding: 0 });
    let mut tokens = ctx.g.add("to_tokens", LayerOp::ToTokens, &[patches]);
    for name in block_names {
        tokens = ctx.dit_block(name, tokens, cond, dim);
    }
    let normed = ctx.layer_norm("final.norm", tokens, dim);
    let out = ctx.linear("final.proj", normed, dim, p * p * c_io);
    let img = ctx.g.add("final.unpatchify", LayerOp::Unpatchify { c: c_io, hp, wp, p }, &[out]);
    // ε̂ = x + γ·net(x, t), as in the UNet skeleton.
    let scaled = ctx.g.add("final.scale", LayerOp::Scale(EPS_RESIDUAL_GAIN), &[img]);
    let eps = ctx.g.add("final.residual", LayerOp::Add, &[scaled, x]);
    ctx.g.set_output(eps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::NullHook;

    #[test]
    fn all_models_build_and_validate() {
        for kind in ModelKind::all() {
            let m = DiffusionModel::build(kind, ModelScale::Tiny, 1);
            assert!(!m.graph.is_empty(), "{kind:?}");
            assert!(m.graph.class_census().linear > 5, "{kind:?} too few linear layers");
        }
    }

    #[test]
    fn a_spec_is_the_model_without_weights() {
        let spec = ModelSpec::new(ModelKind::Sdm, ModelScale::Tiny, 5);
        let model = DiffusionModel::build(ModelKind::Sdm, ModelScale::Tiny, 5);
        assert_eq!(spec.graph.structure_digest(), model.graph.structure_digest());
        assert_eq!(spec.weight_seed, model.weight_seed);
        assert_eq!(&spec.draw_weights(), model.weights());
        assert!(Arc::ptr_eq(&spec.plan().unwrap(), model.plan().unwrap()));
        // Every weighted node gets exactly the shapes its op declares.
        for node in spec.graph.nodes() {
            assert_eq!(node.op.param_dims().is_some(), model.weights().get(node.id).is_ok());
        }
    }

    #[test]
    fn digest_covers_the_definition() {
        let spec = ModelSpec::new(ModelKind::Ddpm, ModelScale::Tiny, 5);
        assert_eq!(spec.digest(), ModelSpec::new(ModelKind::Ddpm, ModelScale::Tiny, 5).digest());
        let edits: [fn(&mut ModelSpec); 5] = [
            |s| s.steps += 1,
            |s| s.weight_seed ^= 1,
            |s| s.sampler = SamplerKind::Plms,
            |s| s.latent_dims[1] += 2,
            |s| s.kind = ModelKind::Bed,
        ];
        for edit in edits {
            let mut edited = spec.clone();
            edit(&mut edited);
            assert_ne!(edited.digest(), spec.digest());
        }
    }

    #[test]
    fn editing_the_spec_redraws_the_weights() {
        let mut model = DiffusionModel::build(ModelKind::Ddpm, ModelScale::Tiny, 5);
        let before = model.run_reverse(0, &mut NullHook).unwrap();
        let drawn = model.weights().clone();
        model.weight_seed ^= 1;
        assert_ne!(model.weights(), &drawn);
        assert_ne!(model.run_reverse(0, &mut NullHook).unwrap(), before);
    }

    #[test]
    fn table1_metadata() {
        assert_eq!(ModelKind::Sdm.sampler(), SamplerKind::Plms);
        assert_eq!(ModelKind::Dit.paper_steps(), 250);
        assert_eq!(ModelKind::Bed.dataset(), "LSUN-Bed");
        assert!(ModelKind::Dit.uses_dynamic_quant());
        assert!(!ModelKind::Sdm.uses_dynamic_quant());
        assert_eq!(ModelKind::all().len(), 7);
    }

    #[test]
    fn reverse_process_runs_and_output_shape_matches() {
        for kind in [ModelKind::Ddpm, ModelKind::Img, ModelKind::Dit] {
            let m = DiffusionModel::build(kind, ModelScale::Tiny, 2);
            let out = m.run_reverse(0, &mut NullHook).unwrap();
            assert_eq!(out.dims(), &m.latent_dims[..], "{kind:?}");
            assert!(out.as_slice().iter().all(|v| v.is_finite()), "{kind:?} diverged");
        }
    }

    #[test]
    fn plms_makes_one_extra_model_call() {
        struct CallCounter {
            max_idx: usize,
        }
        impl LinearHook for CallCounter {
            fn observe(
                &mut self,
                _n: &crate::graph::Node,
                s: StepInfo,
                _i: &[&Tensor],
                _o: &Tensor,
            ) {
                self.max_idx = self.max_idx.max(s.step_index);
            }
        }
        let m = DiffusionModel::build(ModelKind::Sdm, ModelScale::Tiny, 3);
        assert_eq!(m.model_calls(), m.steps + 1);
        let mut c = CallCounter { max_idx: 0 };
        m.run_reverse(0, &mut c).unwrap();
        assert_eq!(c.max_idx + 1, m.model_calls());
    }

    #[test]
    fn deterministic_given_seeds() {
        let m1 = DiffusionModel::build(ModelKind::Bed, ModelScale::Tiny, 5);
        let m2 = DiffusionModel::build(ModelKind::Bed, ModelScale::Tiny, 5);
        let a = m1.run_reverse(9, &mut NullHook).unwrap();
        let b = m2.run_reverse(9, &mut NullHook).unwrap();
        assert_eq!(a, b);
        let c = m1.run_reverse(10, &mut NullHook).unwrap();
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn conditional_models_have_context() {
        for kind in [ModelKind::Img, ModelKind::Sdm, ModelKind::Dit, ModelKind::Latte] {
            let m = DiffusionModel::build(kind, ModelScale::Tiny, 1);
            assert!(m.context_dims.is_some(), "{kind:?}");
        }
        for kind in [ModelKind::Ddpm, ModelKind::Bed, ModelKind::Chur] {
            let m = DiffusionModel::build(kind, ModelScale::Tiny, 1);
            assert!(m.context_dims.is_none(), "{kind:?}");
        }
    }

    #[test]
    fn chur_has_pooling_sdm_has_gelu_softmax() {
        let chur = DiffusionModel::build(ModelKind::Chur, ModelScale::Tiny, 1);
        assert!(chur.graph.nodes().iter().any(|n| n.op.kind_name() == "avg_pool"));
        let sdm = DiffusionModel::build(ModelKind::Sdm, ModelScale::Tiny, 1);
        let kinds: std::collections::HashSet<_> =
            sdm.graph.nodes().iter().map(|n| n.op.kind_name()).collect();
        assert!(kinds.contains("gelu"));
        assert!(kinds.contains("softmax"));
        assert!(kinds.contains("layer_norm"));
        assert!(kinds.contains("group_norm"));
    }

    #[test]
    fn dit_is_pure_transformer() {
        let dit = DiffusionModel::build(ModelKind::Dit, ModelScale::Tiny, 1);
        // No group norm / SiLU-conv ResNet machinery except patch embed conv.
        let convs = dit.graph.nodes().iter().filter(|n| n.op.kind_name() == "conv2d").count();
        assert_eq!(convs, 1, "only the patch embedding is a conv");
        assert!(!dit.graph.nodes().iter().any(|n| n.op.kind_name() == "group_norm"));
    }

    #[test]
    fn hierarchical_unet_runs_and_downsamples() {
        let m = build_hierarchical_unet(ModelScale::Tiny, 3);
        let out = m.run_reverse(0, &mut NullHook).unwrap();
        assert_eq!(out.dims(), &m.latent_dims[..]);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        assert!(m.graph.nodes().iter().any(|n| n.op.kind_name() == "upsample2x"));
        assert!(m.graph.nodes().iter().any(|n| n.name == "down.0.downsample"));
    }

    #[test]
    fn cfg_runs_and_guidance_changes_output() {
        let m = DiffusionModel::build(ModelKind::Img, ModelScale::Tiny, 4);
        let mut h1 = NullHook;
        let mut h2 = NullHook;
        let low = m.run_reverse_cfg(0, 1.0, &mut h1, &mut h2).unwrap();
        let high = m.run_reverse_cfg(0, 4.0, &mut h1, &mut h2).unwrap();
        assert_eq!(low.dims(), &m.latent_dims[..]);
        assert_ne!(low.as_slice(), high.as_slice(), "guidance scale matters");
        // Guidance 1.0 equals the conditional prediction path: same update
        // rule as plain DDIM with the conditional context.
        let plain = m.run_reverse(0, &mut NullHook).unwrap();
        let sim = tensor::stats::cosine_similarity(low.as_slice(), plain.as_slice());
        assert!(sim > 0.99, "g=1 CFG tracks the plain conditional run: {sim}");
    }

    #[test]
    fn cfg_rejects_unconditional_models() {
        let m = DiffusionModel::build(ModelKind::Ddpm, ModelScale::Tiny, 4);
        let mut h1 = NullHook;
        let mut h2 = NullHook;
        assert!(m.run_reverse_cfg(0, 2.0, &mut h1, &mut h2).is_err());
    }

    #[test]
    fn latte_alternates_spatial_temporal() {
        let latte = DiffusionModel::build(ModelKind::Latte, ModelScale::Tiny, 1);
        let has = |p: &str| latte.graph.nodes().iter().any(|n| n.name.starts_with(p));
        assert!(has("spatial.0"));
        assert!(has("temporal.0"));
        assert!(has("spatial.1"));
        assert!(has("temporal.1"));
    }
}
