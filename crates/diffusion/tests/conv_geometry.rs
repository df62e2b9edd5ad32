//! Every convolution the model zoo compiles, through the compiled plan on
//! the process's kernel backend and through the lowering on every
//! available backend, against the sliding-window reference
//! `conv2d_direct`.

use diffusion::plan::OpCode;
use diffusion::{
    Bindings, InputKind, LayerGraph, LayerOp, ModelKind, ModelScale, ModelSpec, NullHook,
    PlanArena, StepInfo, TracePlan, Weights,
};
use tensor::ops::{self, Conv2dParams};
use tensor::{KernelBackend, Rng, Tensor};

/// `(c_in, h, w, c_out, params)` of one convolution.
type Geometry = (usize, usize, usize, usize, Conv2dParams);

/// The geometry of every `Conv2d` the seven models compile at both scales
/// (read off their specs: no weights are drawn).
fn model_geometries() -> Vec<Geometry> {
    let mut found = Vec::new();
    for scale in [ModelScale::Tiny, ModelScale::Small] {
        for kind in ModelKind::all() {
            let plan = ModelSpec::new(kind, scale, 1).plan().expect("zoo models compile");
            for op in plan.ops() {
                if let OpCode::Conv2dIm2col { c_in, h, w, c_out, params, .. } = op.code {
                    let geometry = (c_in, h, w, c_out, params);
                    if !found.contains(&geometry) {
                        found.push(geometry);
                    }
                }
            }
        }
    }
    found
}

/// A graph holding the one convolution, with a bias.
fn conv_graph((c_in, _, _, c_out, params): Geometry) -> LayerGraph {
    let mut g = LayerGraph::new();
    let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
    let conv = g.add("conv", LayerOp::Conv2d { c_in, c_out, params, bias: true }, &[x]);
    g.set_output(conv);
    g
}

#[test]
fn every_model_conv_geometry_lowers_bit_identically() {
    let mut geometries = model_geometries();
    assert!(geometries.len() >= 10, "found only {} conv geometries", geometries.len());
    let p = |kernel, stride, padding| Conv2dParams { kernel, stride, padding };
    geometries.extend([
        (16, 16, 16, 32, p(3, 2, 1)), // stride 2
        (8, 12, 10, 8, p(3, 1, 0)),   // no padding
        (24, 16, 16, 7, p(1, 1, 0)),  // pointwise
        (4, 9, 11, 6, p(5, 1, 2)),    // 5 × 5
        (3, 9, 9, 5, p(5, 2, 2)),     // 5 × 5, stride 2: pixels end mid-strip
        (1, 5, 1, 1, p(5, 1, 2)),     // narrow input, wide padding
    ]);
    let mut rng = Rng::seed_from(59);
    let step = StepInfo { step_index: 0, t: 1.0, total_steps: 1 };
    for geometry in geometries {
        let (c_in, h, w, _, params) = geometry;
        let g = conv_graph(geometry);
        let weights = Weights::randn(&g, &mut rng);
        let conv = weights.get(1).unwrap();
        let (weight, bias) = (&conv.weight, conv.bias.as_ref());
        let latent = Tensor::randn(&[c_in, h, w], &mut rng);
        let want = ops::conv2d_direct(&latent, weight, bias, params).unwrap();
        let plan = TracePlan::compile(&g, latent.dims(), None).unwrap();
        let bindings = Bindings { latent: &latent, context: None, t: 1.0 };
        let planned =
            plan.execute(&g, &weights, &bindings, step, &mut NullHook, &mut PlanArena::new());
        let on_plan = format!("the plan on {}", tensor::backend::active());
        let mut runs = vec![(on_plan, planned.unwrap().as_slice().to_vec())];
        for backend in KernelBackend::available() {
            // Dirty buffers: the lowering must write every element it reads.
            let mut scratch = vec![f32::NAN; ops::conv2d_scratch_len(c_in, h, w, params)];
            let mut out = vec![f32::NAN; want.len()];
            ops::conv2d_lowered_into(
                backend,
                latent.as_slice(),
                c_in,
                h,
                w,
                weight,
                bias,
                params,
                &mut scratch,
                &mut out,
            )
            .unwrap();
            runs.push((backend.resolved_name(), out));
        }
        for (on, got) in runs {
            for (i, (x, y)) in got.iter().zip(want.as_slice()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{geometry:?} on {on}: element {i} {x} vs {y}"
                );
            }
        }
    }
}
