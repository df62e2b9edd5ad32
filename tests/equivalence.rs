//! Numerical-equivalence integration tests: the Ditto difference path must
//! be bit-identical to dense quantized execution on every benchmark
//! (§IV-A's distributivity claim, end to end).

use diffusion::{DiffusionModel, ModelKind, ModelScale, NullHook};
use ditto_core::runner::{trace_model, ExecPolicy};
use tensor::stats;

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
            ditto_core::binio::to_vec(&dense) == ditto_core::binio::to_vec(&delta),
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
    use diffusion::{InputKind, LayerGraph, LayerOp, SamplerKind, Schedule};
    let mut graph = LayerGraph::new();
    let mut rng = tensor::Rng::seed_from(5);
    {
        let ctx = &mut BlockCtx::new(&mut graph, &mut rng);
        let x = ctx.g.add("input", LayerOp::Input(InputKind::Latent), &[]);
        let a = ctx.multi_head_self_attention("mha0", x, 16, 4);
        let b = ctx.multi_head_self_attention("mha1", a, 16, 2);
        let scaled = ctx.g.add("out.scale", LayerOp::Scale(0.05), &[b]);
        let eps = ctx.g.add("out.residual", LayerOp::Add, &[scaled, x]);
        ctx.g.set_output(eps);
    }
    graph.validate();
    let model = diffusion::DiffusionModel {
        kind: ModelKind::Dit, // dynamic quantization policy
        graph,
        schedule: Schedule::linear(1000),
        sampler: SamplerKind::Ddim,
        steps: 8,
        latent_dims: vec![12, 16],
        context_dims: None,
        plan: None,
    };
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
