//! Umbrella identity tests for compiled trace plans (`diffusion::plan`).
//!
//! The contract under test: for every benchmark model, sampler and hook,
//! what the compiled plan produces is **byte-identical** to
//! the tree-walking oracle `executor::forward` — same float op order, same
//! `-0.0`s, no tolerance. The oracle is called directly (`forward`, or the
//! `run_reverse*_oracle` loops that share the sampler code); there is no
//! mode to flip. `tests/equivalence.rs` holds the same comparison for the
//! `ditto-core` hooks.

use diffusion::executor::{forward, Bindings, LinearHook, NullHook, StepInfo};
use diffusion::models::build_hierarchical_unet;
use diffusion::{
    DiffusionModel, InputKind, LayerGraph, LayerOp, ModelKind, ModelScale, Node, NodeId, PlanArena,
    SamplerKind, TracePlan, Weights,
};
use proptest::prelude::*;
use tensor::{Rng, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// End-to-end: full reverse-process runs on the oracle and on the plan must
/// produce bit-identical samples for every benchmark × both samplers, on
/// the process's kernel backend (the backends' agreement with each other
/// is `backend_invariance.rs`' claim).
#[test]
fn plan_and_tree_sampler_runs_are_bit_identical() {
    for kind in ModelKind::all() {
        for sampler in [SamplerKind::Ddim, SamplerKind::Plms] {
            let mut model = DiffusionModel::build(kind, ModelScale::Tiny, 21);
            model.sampler = sampler;
            let tree = model.run_reverse_oracle(4, &mut NullHook).unwrap();
            let planned = model.run_reverse(4, &mut NullHook).unwrap();
            assert_eq!(
                bits(&tree),
                bits(&planned),
                "{kind:?}/{sampler:?} diverged between executors"
            );
        }
    }
    // Classifier-free guidance doubles the per-step model calls through its
    // own dispatch path; cover it on the one context-conditioned benchmark.
    let sdm = DiffusionModel::build(ModelKind::Sdm, ModelScale::Tiny, 21);
    let tree = sdm.run_reverse_cfg_oracle(4, 3.0, &mut NullHook, &mut NullHook).unwrap();
    let planned = sdm.run_reverse_cfg(4, 3.0, &mut NullHook, &mut NullHook).unwrap();
    assert_eq!(bits(&tree), bits(&planned), "SDM CFG diverged between executors");
}

/// A `Tensor`-level hook that computes every other linear site itself (the
/// f32 result plus a per-site offset, so a skipped or doubled call shows in
/// the sample) and declines the rest, logging what it is shown of those.
/// It filters on `is_linear_layer()`, so it logs the same under the oracle
/// (which shows `observe` every node) and under the plan (declined linear
/// sites only) — through the plan's default slice-to-`Tensor` adapters.
struct AlternatingHook<'a> {
    /// The model's weights, for the sites the hook computes.
    weights: &'a Weights,
    computed: usize,
    /// `(node, step, operand count, bits of the output)` per declined site.
    observed: Vec<(NodeId, usize, usize, Vec<u32>)>,
}

impl<'a> AlternatingHook<'a> {
    fn new(weights: &'a Weights) -> Self {
        AlternatingHook { weights, computed: 0, observed: Vec::new() }
    }

    fn computes(node: &Node) -> bool {
        node.id.is_multiple_of(2)
    }
}

impl LinearHook for AlternatingHook<'_> {
    fn compute_linear(
        &mut self,
        node: &Node,
        step: StepInfo,
        inputs: &[&Tensor],
    ) -> Option<Tensor> {
        if !Self::computes(node) {
            return None;
        }
        // The node alone, evaluated by the oracle.
        let mut g = LayerGraph::new();
        let ins: Vec<NodeId> = (0..inputs.len())
            .map(|i| {
                let kind = if i == 0 { InputKind::Latent } else { InputKind::Context };
                g.add(format!("in{i}"), LayerOp::Input(kind), &[])
            })
            .collect();
        let site = g.add("site", node.op.clone(), &ins);
        g.set_output(site);
        let mut weights = Weights::new();
        if let Ok(params) = self.weights.get(node.id) {
            weights.set(&g, site, params.clone());
        }
        let bindings = Bindings { latent: inputs[0], context: inputs.get(1).copied(), t: step.t };
        let plain = forward(&g, &weights, &bindings, step, &mut NullHook).unwrap();
        self.computed += 1;
        Some(plain.map(|v| v + 0.001 * (node.id % 7) as f32))
    }

    fn observe(&mut self, node: &Node, step: StepInfo, inputs: &[&Tensor], output: &Tensor) {
        if node.op.is_linear_layer() && !Self::computes(node) {
            self.observed.push((node.id, step.step_index, inputs.len(), bits(output)));
        }
    }
}

/// A hook that declines some sites and computes others sees the same
/// operands and yields the same sample on both executors.
#[test]
fn partially_declining_hook_matches_the_oracle() {
    for kind in [ModelKind::Ddpm, ModelKind::Sdm, ModelKind::Dit] {
        let model = DiffusionModel::build(kind, ModelScale::Tiny, 17);
        let weights = model.weights();
        let (mut on_tree, mut on_plan) =
            (AlternatingHook::new(weights), AlternatingHook::new(weights));
        let tree = model.run_reverse_oracle(6, &mut on_tree).unwrap();
        let planned = model.run_reverse(6, &mut on_plan).unwrap();
        assert_eq!(bits(&tree), bits(&planned), "{kind:?}: samples diverged");
        assert!(on_plan.computed > 0 && !on_plan.observed.is_empty(), "{kind:?}: both branches");
        assert_eq!(on_tree.computed, on_plan.computed, "{kind:?}: computed sites");
        assert_eq!(on_tree.observed, on_plan.observed, "{kind:?}: observed sites");
        // And the hook changed the sample: it ran where it said it did.
        let plain = model.run_reverse(6, &mut NullHook).unwrap();
        assert_ne!(bits(&plain), bits(&planned), "{kind:?}: the hook had no effect");
    }
}

/// Per-step direct comparison: every benchmark's eagerly compiled plan,
/// executed over one **dirty** arena across several diffusion times, matches
/// `forward` bit for bit. Arena reuse without zeroing is the full-write
/// invariant (every opcode overwrites its whole output span).
#[test]
fn model_plans_match_tree_forward_per_step() {
    for kind in ModelKind::all() {
        let model = DiffusionModel::build(kind, ModelScale::Tiny, 9);
        let plan = model.plan().expect("every benchmark compiles a plan");
        plan.validate_liveness().unwrap();
        let (graph, weights) = (&model.graph, model.weights());
        let (latent, context) = model.sample_inputs(11);
        let mut arena = PlanArena::new();
        for (i, &t) in [0.0f32, 0.25, 0.5, 1.0].iter().enumerate() {
            let bindings = Bindings { latent: &latent, context: context.as_ref(), t };
            let step = StepInfo { step_index: i, t, total_steps: 4 };
            let want = forward(graph, weights, &bindings, step, &mut NullHook).unwrap();
            let got =
                plan.execute(graph, weights, &bindings, step, &mut NullHook, &mut arena).unwrap();
            assert_eq!(want.dims(), got.dims(), "{kind:?} output dims at t={t}");
            assert_eq!(bits(&want), bits(&got), "{kind:?} diverged at t={t}");
        }
    }
}

/// The hierarchical UNet (not one of the seven Table I benchmarks) also
/// compiles and matches — plans are a property of the graph IR, not of the
/// benchmark list.
#[test]
fn hierarchical_unet_plan_matches_tree() {
    let model = build_hierarchical_unet(ModelScale::Tiny, 3);
    let plan = model.plan().expect("hierarchical unet compiles a plan");
    plan.validate_liveness().unwrap();
    let (graph, weights) = (&model.graph, model.weights());
    let (latent, context) = model.sample_inputs(2);
    let mut arena = PlanArena::new();
    let bindings = Bindings { latent: &latent, context: context.as_ref(), t: 0.375 };
    let step = StepInfo { step_index: 0, t: 0.375, total_steps: 1 };
    let want = forward(graph, weights, &bindings, step, &mut NullHook).unwrap();
    let got = plan.execute(graph, weights, &bindings, step, &mut NullHook, &mut arena).unwrap();
    assert_eq!(bits(&want), bits(&got));
}

/// Arena planning is deterministic (same graph → same digest and the same
/// slot offsets) and actually reuses freed slots: the arena is smaller than
/// the sum of all output spans on every benchmark.
#[test]
fn arena_planning_is_deterministic_and_compacts() {
    for kind in ModelKind::all() {
        let model = DiffusionModel::build(kind, ModelScale::Tiny, 5);
        let ctx = model.context_dims.as_deref();
        let a = TracePlan::compile(&model.graph, &model.latent_dims, ctx).unwrap();
        let b = TracePlan::compile(&model.graph, &model.latent_dims, ctx).unwrap();
        assert_eq!(a.digest(), b.digest(), "{kind:?} digest unstable");
        assert_eq!(a.arena_len(), b.arena_len(), "{kind:?} arena unstable");
        for (x, y) in a.ops().iter().zip(b.ops()) {
            assert_eq!(x, y, "{kind:?} schedule unstable at node {}", x.node);
        }
        let live_sum: usize = a.ops().iter().map(|op| op.out.len).sum();
        assert!(
            a.arena_len() < live_sum,
            "{kind:?}: arena {} should undercut sum-of-slots {} via liveness reuse",
            a.arena_len(),
            live_sum
        );
    }
}

/// Builds a random latent-only `[rows, *]` graph from a generated opcode
/// string: linears, activations, layer norms, scales, and residual adds
/// against randomly chosen width-compatible ancestors (exercising diamond
/// liveness patterns the hand-built benchmarks may not hit).
fn random_graph(codes: &[u8], cols: usize) -> LayerGraph {
    let mut g = LayerGraph::new();
    let x0 = g.add("input", LayerOp::Input(InputKind::Latent), &[]);
    let mut widths: Vec<(NodeId, usize)> = vec![(x0, cols)];
    let (mut last, mut last_cols) = (x0, cols);
    for (i, &c) in codes.iter().enumerate() {
        let name = format!("n{i}");
        let (node, ncols) = match c % 7 {
            0 => {
                let out_c = 4 + (c as usize % 3) * 4;
                let op = LayerOp::Linear { d_in: last_cols, d_out: out_c, bias: true };
                (g.add(&name, op, &[last]), out_c)
            }
            1 => (g.add(&name, LayerOp::SiLU, &[last]), last_cols),
            2 => (g.add(&name, LayerOp::GeLU, &[last]), last_cols),
            3 => (g.add(&name, LayerOp::Sigmoid, &[last]), last_cols),
            4 => (g.add(&name, LayerOp::Scale(0.5 + c as f32 / 512.0), &[last]), last_cols),
            5 => (g.add(&name, LayerOp::LayerNorm { features: last_cols }, &[last]), last_cols),
            _ => {
                let peers: Vec<NodeId> =
                    widths.iter().filter(|&&(_, w)| w == last_cols).map(|&(n, _)| n).collect();
                let peer = peers[(c as usize / 7) % peers.len()];
                (g.add(&name, LayerOp::Add, &[last, peer]), last_cols)
            }
        };
        widths.push((node, ncols));
        (last, last_cols) = (node, ncols);
    }
    g.set_output(last);
    g.validate();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property: every random small graph compiles to a liveness-clean plan
    /// whose output is bit-identical to the tree walker, including when
    /// re-executed over the dirty arena.
    #[test]
    fn random_graphs_compile_and_match_tree(
        codes in proptest::collection::vec(any::<u8>(), 1..12),
        rows in 1usize..5,
        width_pick in 0usize..3,
        seed in any::<u64>(),
        t in 0.0f32..1.0,
    ) {
        let cols = [4usize, 8, 12][width_pick];
        let graph = random_graph(&codes, cols);
        let weights = Weights::randn(&graph, &mut Rng::seed_from(seed));
        let latent_dims = vec![rows, cols];
        let plan = TracePlan::compile(&graph, &latent_dims, None).unwrap();
        prop_assert!(plan.validate_liveness().is_ok());
        let mut rng = Rng::seed_from(seed ^ 0xD1F0);
        let latent = Tensor::randn(&latent_dims, &mut rng);
        let bindings = Bindings { latent: &latent, context: None, t };
        let step = StepInfo { step_index: 0, t, total_steps: 1 };
        let want = forward(&graph, &weights, &bindings, step, &mut NullHook).unwrap();
        let mut arena = PlanArena::new();
        let mut run = || {
            plan.execute(&graph, &weights, &bindings, step, &mut NullHook, &mut arena).unwrap()
        };
        prop_assert_eq!(bits(&want), bits(&run()));
        let again = run();
        prop_assert_eq!(bits(&want), bits(&again));
    }
}
