//! Property tests of Defo's static dependency analysis on randomized
//! layer graphs: domain-propagation invariants and boundary consistency.

use diffusion::{InputKind, LayerGraph, LayerOp, OpClass};
use ditto_core::defo::{analyze, Domain};
use proptest::prelude::*;

/// Op alphabet for random graph construction (single-operand ops plus Add).
#[derive(Debug, Clone, Copy)]
enum OpPick {
    Linear,
    Silu,
    Gelu,
    Scale,
    Add,
}

fn arb_op() -> impl Strategy<Value = OpPick> {
    prop_oneof![
        3 => Just(OpPick::Linear),
        2 => Just(OpPick::Silu),
        1 => Just(OpPick::Gelu),
        2 => Just(OpPick::Scale),
        2 => Just(OpPick::Add),
    ]
}

/// Builds a random well-formed graph: each node consumes uniformly random
/// earlier nodes.
fn build_graph(ops: &[(OpPick, u64)]) -> LayerGraph {
    let mut g = LayerGraph::new();
    let x = g.add("input", LayerOp::Input(InputKind::Latent), &[]);
    let mut last = x;
    for (i, &(op, seed)) in ops.iter().enumerate() {
        let mut rng = tensor::Rng::seed_from(seed);
        let pick = |rng: &mut tensor::Rng, hi: usize| rng.next_below(hi);
        let a = pick(&mut rng, last + 1);
        last = match op {
            OpPick::Linear => {
                g.add(format!("fc{i}"), LayerOp::Linear { d_in: 2, d_out: 2, bias: false }, &[a])
            }
            OpPick::Silu => g.add(format!("silu{i}"), LayerOp::SiLU, &[a]),
            OpPick::Gelu => g.add(format!("gelu{i}"), LayerOp::GeLU, &[a]),
            OpPick::Scale => g.add(format!("scale{i}"), LayerOp::Scale(0.5), &[a]),
            OpPick::Add => {
                let b = pick(&mut rng, last + 1);
                g.add(format!("add{i}"), LayerOp::Add, &[a, b])
            }
        };
    }
    g.set_output(last);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Boundaries cover exactly the linear layers, in order.
    #[test]
    fn boundaries_cover_linear_layers(ops in proptest::collection::vec((arb_op(), any::<u64>()), 1..24)) {
        let g = build_graph(&ops);
        let a = analyze(&g);
        let linear = g.linear_layers();
        prop_assert_eq!(a.boundaries.len(), linear.len());
        for (b, id) in a.boundaries.iter().zip(&linear) {
            prop_assert_eq!(b.node, *id);
        }
        prop_assert_eq!(a.domains.len(), g.len());
    }

    /// Domain propagation invariants:
    /// * linear nodes are Diff;
    /// * non-linear and input nodes are Original;
    /// * transparent nodes are Diff iff all operands are Diff.
    #[test]
    fn domain_rules_hold(ops in proptest::collection::vec((arb_op(), any::<u64>()), 1..24)) {
        let g = build_graph(&ops);
        let a = analyze(&g);
        for node in g.nodes() {
            let d = a.domains[node.id];
            match node.op.class() {
                OpClass::Linear => prop_assert_eq!(d, Domain::Diff),
                OpClass::NonLinear | OpClass::Input => prop_assert_eq!(d, Domain::Original),
                OpClass::Transparent => {
                    let all_diff = node.inputs.iter().all(|&i| a.domains[i] == Domain::Diff);
                    prop_assert_eq!(d == Domain::Diff, all_diff, "node {}", node.name);
                }
            }
        }
    }

    /// A layer whose operand producer chain contains no non-linear node or
    /// graph input must not need a difference calculation, and vice versa.
    #[test]
    fn diff_calc_matches_operand_domain(ops in proptest::collection::vec((arb_op(), any::<u64>()), 1..24)) {
        let g = build_graph(&ops);
        let a = analyze(&g);
        for b in &a.boundaries {
            let node = g.node(b.node);
            // Single-operand linear layers: flag iff the operand's domain
            // is Original.
            let operand = node.inputs[0];
            prop_assert_eq!(
                b.needs_diff_calc,
                a.domains[operand] == Domain::Original,
                "layer {}",
                node.name
            );
        }
    }

    /// Boundary kind lists only name non-linear ops, deduplicated.
    #[test]
    fn boundary_kinds_are_nonlinear_names(ops in proptest::collection::vec((arb_op(), any::<u64>()), 1..24)) {
        let g = build_graph(&ops);
        let a = analyze(&g);
        let nonlinear = ["silu", "gelu", "softmax", "group_norm", "layer_norm", "sigmoid",
                         "avg_pool", "modulate", "gate", "mul", "time_embed"];
        for b in &a.boundaries {
            for k in b.in_boundary.iter().chain(&b.out_boundary) {
                prop_assert!(nonlinear.contains(&k.as_str()), "unexpected kind {k}");
            }
            let mut sorted = b.out_boundary.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), b.out_boundary.len(), "deduplicated");
        }
    }

    /// Analysis is deterministic.
    #[test]
    fn analysis_is_deterministic(ops in proptest::collection::vec((arb_op(), any::<u64>()), 1..16)) {
        let g = build_graph(&ops);
        let a1 = analyze(&g);
        let a2 = analyze(&g);
        prop_assert_eq!(a1.domains, a2.domains);
        for (x, y) in a1.boundaries.iter().zip(&a2.boundaries) {
            prop_assert_eq!(x.needs_diff_calc, y.needs_diff_calc);
            prop_assert_eq!(x.needs_summation, y.needs_summation);
        }
    }

    /// The graph output always forces a summation on its producing region:
    /// if the output node's domain is Diff, some boundary must carry
    /// `needs_summation`.
    #[test]
    fn output_region_is_summed(ops in proptest::collection::vec((arb_op(), any::<u64>()), 1..24)) {
        let g = build_graph(&ops);
        let a = analyze(&g);
        if a.domains[g.output()] == Domain::Diff {
            prop_assert!(
                a.boundaries.iter().any(|b| b.needs_summation),
                "a diff-domain output must be materialized"
            );
        }
    }
}
