//! Numerical-equivalence integration tests: the Ditto difference path must
//! be bit-identical to dense quantized execution on every benchmark
//! (§IV-A's distributivity claim, end to end), and everything the
//! `ditto-core` hooks produce through the compiled plan must equal what they
//! produce through the oracle `executor::forward`.

use diffusion::{DiffusionModel, ModelKind, ModelScale, NullHook};
use ditto_core::binio;
use ditto_core::runner::{build_quantizer, trace_model, CalibrationHook, DittoHook, ExecPolicy};
use ditto_core::similarity::SimilarityHook;
use quant::Quantizer;
use tensor::{stats, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `build_quantizer` as the oracle executor would have built it.
fn oracle_quantizer(model: &DiffusionModel, seed: u64) -> Quantizer {
    if model.kind.uses_dynamic_quant() {
        return Quantizer::dynamic();
    }
    let mut cal = CalibrationHook::new(model.model_calls());
    model.run_reverse_oracle(seed, &mut cal).expect("oracle calibration");
    Quantizer::with_table(cal.finish(8))
}

#[test]
fn hooked_plan_traces_match_the_oracle_on_every_benchmark() {
    // The tentpole contract: calibration and the Ditto hook run through the
    // plan interpreter, and the trace bytes and the sample are what the tree
    // walk produces — on every model, under both execution policies.
    for kind in ModelKind::all() {
        let model = DiffusionModel::build(kind, ModelScale::Tiny, 57);
        let quantizer = build_quantizer(&model, 3).expect("plan calibration");
        assert_eq!(
            quantizer.table(),
            oracle_quantizer(&model, 3).table(),
            "{kind:?}: calibration tables differ"
        );
        for policy in [ExecPolicy::Dense, ExecPolicy::TemporalDelta] {
            let (planned, sample) = trace_model(&model, 3, policy).expect("plan trace");
            let mut hook = DittoHook::new(&model, oracle_quantizer(&model, 3), policy);
            let want = model.run_reverse_oracle(3, &mut hook).expect("oracle trace");
            assert_eq!(bits(&want), bits(&sample), "{kind:?}/{policy:?}: samples differ");
            assert!(
                binio::to_vec(&hook.into_trace()) == binio::to_vec(&planned),
                "{kind:?}/{policy:?}: trace bytes differ between plan and oracle"
            );
        }
    }
}

#[test]
fn similarity_report_matches_the_oracle_through_the_default_adapter() {
    // `SimilarityHook` implements only the `Tensor`-level `observe`; the
    // plan reaches it through the trait's default slice adapters.
    for kind in [ModelKind::Bed, ModelKind::Sdm, ModelKind::Latte] {
        let model = DiffusionModel::build(kind, ModelScale::Tiny, 23);
        let (mut on_plan, mut on_tree) = (SimilarityHook::new(), SimilarityHook::new());
        let planned = model.run_reverse(2, &mut on_plan).expect("plan");
        let tree = model.run_reverse_oracle(2, &mut on_tree).expect("oracle");
        assert_eq!(bits(&tree), bits(&planned), "{kind:?}");
        // `Debug` prints every f32 in its shortest round-trip form, so equal
        // text is equal bits (and NaN compares equal to itself).
        assert_eq!(
            format!("{:?}", on_tree.into_report()),
            format!("{:?}", on_plan.into_report()),
            "{kind:?}: similarity reports differ"
        );
    }
}

#[test]
fn cfg_with_two_ditto_hooks_sharing_one_arena_matches_the_oracle() {
    // Both guidance branches execute over one `PlanArena`; each hook's
    // previous-step state must stay its own.
    let model = DiffusionModel::build(ModelKind::Img, ModelScale::Tiny, 41);
    let hooks = || {
        let q = build_quantizer(&model, 0).expect("calibration");
        (
            DittoHook::new(&model, q.clone(), ExecPolicy::TemporalDelta),
            DittoHook::new(&model, q, ExecPolicy::TemporalDelta),
        )
    };
    let (mut cond, mut uncond) = hooks();
    let planned = model.run_reverse_cfg(1, 3.0, &mut cond, &mut uncond).expect("plan");
    let (mut cond_t, mut uncond_t) = hooks();
    let tree = model.run_reverse_cfg_oracle(1, 3.0, &mut cond_t, &mut uncond_t).expect("oracle");
    assert_eq!(bits(&tree), bits(&planned));
    for (name, on_plan, on_tree) in [("cond", cond, cond_t), ("uncond", uncond, uncond_t)] {
        assert!(
            binio::to_vec(&on_plan.into_trace()) == binio::to_vec(&on_tree.into_trace()),
            "{name}: trace bytes differ between plan and oracle"
        );
    }
}

#[test]
fn delta_path_is_bit_exact_on_every_benchmark() {
    for kind in ModelKind::all() {
        let model = DiffusionModel::build(kind, ModelScale::Tiny, 99);
        let (_, dense) = trace_model(&model, 5, ExecPolicy::Dense).expect("dense");
        let (_, delta) = trace_model(&model, 5, ExecPolicy::TemporalDelta).expect("delta");
        assert_eq!(dense, delta, "{kind:?}: difference processing must be exact");
    }
}

#[test]
fn dense_and_delta_traces_are_byte_identical_on_every_benchmark() {
    // Not only the samples: both policies run the same Encoding Unit pass,
    // so the serialized traces — every histogram of every layer and step —
    // must agree byte for byte.
    for kind in ModelKind::all() {
        let model = DiffusionModel::build(kind, ModelScale::Tiny, 31);
        let (dense, _) = trace_model(&model, 2, ExecPolicy::Dense).expect("dense");
        let (delta, _) = trace_model(&model, 2, ExecPolicy::TemporalDelta).expect("delta");
        assert!(
            binio::to_vec(&dense) == binio::to_vec(&delta),
            "{kind:?}: trace bytes differ between the dense and the difference path"
        );
    }
}

#[test]
fn quantized_execution_tracks_fp32_on_every_benchmark() {
    // Table II's premise: A8W8 + Ditto preserves the FP32 trajectory.
    for kind in ModelKind::all() {
        let model = DiffusionModel::build(kind, ModelScale::Tiny, 77);
        let fp32 = model.run_reverse(3, &mut NullHook).expect("fp32");
        let (_, quant) = trace_model(&model, 3, ExecPolicy::Dense).expect("quant");
        let sim = stats::cosine_similarity(fp32.as_slice(), quant.as_slice());
        assert!(sim > 0.9, "{kind:?}: cosine {sim}");
    }
}

#[test]
fn delta_path_exact_with_multi_head_attention() {
    // Multi-head attention multiplies the per-block QK/PV matmul count;
    // the difference path must stay bit-exact through every head.
    use diffusion::blocks::BlockCtx;
    use diffusion::{InputKind, LayerGraph, LayerOp, ModelSpec, SamplerKind, Schedule};
    let mut graph = LayerGraph::new();
    {
        let ctx = &mut BlockCtx::new(&mut graph);
        let x = ctx.g.add("input", LayerOp::Input(InputKind::Latent), &[]);
        let a = ctx.multi_head_self_attention("mha0", x, 16, 4);
        let b = ctx.multi_head_self_attention("mha1", a, 16, 2);
        let scaled = ctx.g.add("out.scale", LayerOp::Scale(0.05), &[b]);
        let eps = ctx.g.add("out.residual", LayerOp::Add, &[scaled, x]);
        ctx.g.set_output(eps);
    }
    graph.validate();
    let model: DiffusionModel = ModelSpec {
        kind: ModelKind::Dit, // dynamic quantization policy
        graph,
        schedule: Schedule::linear(1000),
        sampler: SamplerKind::Ddim,
        steps: 8,
        latent_dims: vec![12, 16],
        context_dims: None,
        weight_seed: 5,
    }
    .into();
    let (trace, dense) = trace_model(&model, 1, ExecPolicy::Dense).expect("dense");
    let (_, delta) = trace_model(&model, 1, ExecPolicy::TemporalDelta).expect("delta");
    assert_eq!(dense, delta);
    // 4 + 2 heads → 12 attention matmuls among the linear layers.
    let attn = trace.layers.iter().filter(|l| l.kind.is_attention()).count();
    assert_eq!(attn, 12);
}

#[test]
fn traces_are_deterministic() {
    let model = DiffusionModel::build(ModelKind::Img, ModelScale::Tiny, 7);
    let (a, sa) = trace_model(&model, 1, ExecPolicy::Dense).unwrap();
    let (b, sb) = trace_model(&model, 1, ExecPolicy::Dense).unwrap();
    assert_eq!(sa, sb);
    assert_eq!(
        a.merged(ditto_core::trace::StatView::Temporal),
        b.merged(ditto_core::trace::StatView::Temporal)
    );
}
