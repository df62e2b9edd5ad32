//! Defo static analysis: computing-graph dependency checking (§IV-B).
//!
//! In static time Defo "applies a computing graph analysis to find all
//! non-linear functions and check the dependency of layers", so that
//! difference calculation and summation are inserted **only before and
//! after non-linear functions** rather than around every linear layer.
//!
//! The analysis here computes, for every linear layer:
//!
//! * whether its classified operand arrives in the *original* domain (a
//!   non-linear producer or a graph input feeds it through
//!   difference-transparent structure only) → the layer must load the
//!   stored previous input and subtract (`needs_diff_calc`);
//! * whether its difference-domain output must be *summed* with the stored
//!   previous output because a non-linear function (or the graph output, or
//!   a domain-mixing junction) consumes it (`needs_summation`);
//! * the *kinds* of non-linear functions at those boundaries — used to
//!   model Cambricon-D's sign-mask data flow, which only supports SiLU and
//!   Group Normalization.
//!
//! Domain rules (§IV-A):
//! * a linear layer executing in difference mode outputs a **Diff**-domain
//!   tensor (bias cancels in the subtraction);
//! * transparent ops (`Add`, reshapes, slices, concat, scale) propagate
//!   **Diff** only if *all* their data operands are Diff — mixing Diff with
//!   Original forces a summation on the Diff side first;
//! * non-linear ops always force summation and output **Original**.

use diffusion::{LayerGraph, LayerOp, NodeId, OpClass};

/// Value domain of a node's output under all-layers-in-difference-mode
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Original activations.
    Original,
    /// Temporal differences.
    Diff,
}

/// Result of the static dependency analysis.
#[derive(Debug, Clone)]
pub struct DefoStatic {
    /// Per graph node: output domain.
    pub domains: Vec<Domain>,
    /// Per linear layer node id: boundary flags.
    pub boundaries: Vec<LayerBoundary>,
}

/// Boundary flags of one linear layer.
#[derive(Debug, Clone)]
pub struct LayerBoundary {
    /// The linear layer's node id.
    pub node: NodeId,
    /// Operand arrives in the Original domain → difference calculation
    /// (load + subtract stored previous input) is required.
    pub needs_diff_calc: bool,
    /// Output region hits a non-linear consumer / graph output / mixing
    /// junction → summation with the stored previous output is required.
    pub needs_summation: bool,
    /// Non-linear producer kinds feeding the operand (via transparent ops).
    pub in_boundary: Vec<String>,
    /// Non-linear consumer kinds reached by the output region.
    pub out_boundary: Vec<String>,
}

/// Runs the static analysis on a graph.
pub fn analyze(graph: &LayerGraph) -> DefoStatic {
    let n = graph.len();
    let mut domains = vec![Domain::Original; n];
    // Forward pass: compute domains in topological (id) order.
    for node in graph.nodes() {
        domains[node.id] = match node.op.class() {
            OpClass::Linear => Domain::Diff,
            OpClass::NonLinear | OpClass::Input => Domain::Original,
            OpClass::Transparent => {
                if node.inputs.iter().all(|&i| domains[i] == Domain::Diff) {
                    Domain::Diff
                } else {
                    Domain::Original
                }
            }
        };
    }
    let consumers = graph.consumers();
    let mut boundaries = Vec::new();
    for node in graph.nodes() {
        if !node.op.is_linear_layer() {
            continue;
        }
        // Input side: walk producers through transparent ops.
        let mut in_kinds = Vec::new();
        let mut needs_diff_calc = false;
        for &operand in classified_operands(&node.op, &node.inputs) {
            collect_original_producers(graph, operand, &mut in_kinds, &mut needs_diff_calc);
        }
        // Output side: walk consumers through transparent ops; a consumer
        // that is non-linear, or a transparent consumer whose own domain is
        // Original (mixing), or the graph output, forces summation.
        let mut out_kinds = Vec::new();
        let mut needs_summation = false;
        collect_summation_consumers(
            graph,
            &consumers,
            &domains,
            node.id,
            &mut out_kinds,
            &mut needs_summation,
        );
        in_kinds.sort_unstable();
        in_kinds.dedup();
        out_kinds.sort_unstable();
        out_kinds.dedup();
        boundaries.push(LayerBoundary {
            node: node.id,
            needs_diff_calc,
            needs_summation,
            in_boundary: in_kinds,
            out_boundary: out_kinds,
        });
    }
    DefoStatic { domains, boundaries }
}

/// The operands whose values the layer classifies / differences.
///
/// For attention matmuls both operands change over time and both are
/// difference-processed; for conv/FC it is the single data operand.
fn classified_operands<'a>(op: &LayerOp, inputs: &'a [NodeId]) -> &'a [NodeId] {
    match op {
        LayerOp::MatmulQK | LayerOp::MatmulPV => inputs,
        _ => &inputs[..1],
    }
}

fn collect_original_producers(
    graph: &LayerGraph,
    node: NodeId,
    kinds: &mut Vec<String>,
    needs_diff_calc: &mut bool,
) {
    let n = graph.node(node);
    match n.op.class() {
        OpClass::Linear => {} // diff domain continues; no boundary here
        OpClass::NonLinear => {
            *needs_diff_calc = true;
            kinds.push(n.op.kind_name().to_string());
        }
        OpClass::Input => {
            // The latent input itself changes across steps; differencing it
            // requires the stored previous input (conv-in's boundary).
            *needs_diff_calc = true;
        }
        OpClass::Transparent => {
            for &i in &n.inputs {
                collect_original_producers(graph, i, kinds, needs_diff_calc);
            }
        }
    }
}

fn collect_summation_consumers(
    graph: &LayerGraph,
    consumers: &[Vec<NodeId>],
    domains: &[Domain],
    node: NodeId,
    kinds: &mut Vec<String>,
    needs_summation: &mut bool,
) {
    if node == graph.output() {
        *needs_summation = true;
    }
    for &c in &consumers[node] {
        let cn = graph.node(c);
        match cn.op.class() {
            OpClass::Linear => {} // stays in the diff domain
            OpClass::NonLinear => {
                *needs_summation = true;
                kinds.push(cn.op.kind_name().to_string());
            }
            OpClass::Transparent => {
                if domains[c] == Domain::Diff {
                    collect_summation_consumers(
                        graph,
                        consumers,
                        domains,
                        c,
                        kinds,
                        needs_summation,
                    );
                } else {
                    // Mixing junction: our diff operand meets an original
                    // operand — must materialize originals first.
                    *needs_summation = true;
                }
            }
            OpClass::Input => unreachable!("inputs consume nothing"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffusion::{InputKind, LayerGraph, LayerOp};

    fn linear_op(n: usize) -> LayerOp {
        LayerOp::Linear { d_in: n, d_out: n, bias: false }
    }

    /// input → fc1 → fc2 → silu → fc3 → (output)
    fn chain() -> LayerGraph {
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let f1 = g.add("fc1", linear_op(2), &[x]);
        let f2 = g.add("fc2", linear_op(2), &[f1]);
        let s = g.add("silu", LayerOp::SiLU, &[f2]);
        let f3 = g.add("fc3", linear_op(2), &[s]);
        g.set_output(f3);
        g
    }

    #[test]
    fn chain_boundaries() {
        let a = analyze(&chain());
        // fc1: operand is the latent input → diff calc; consumer fc2 is
        // linear → no summation.
        let b1 = &a.boundaries[0];
        assert!(b1.needs_diff_calc);
        assert!(!b1.needs_summation);
        // (in_boundary empty: the producer is the graph input, not a
        // non-linear fn.)
        assert!(b1.in_boundary.is_empty());
        // fc2: operand from fc1 (diff domain) → no diff calc; consumer is
        // SiLU → summation with kind recorded.
        let b2 = &a.boundaries[1];
        assert!(!b2.needs_diff_calc);
        assert!(b2.needs_summation);
        assert_eq!(b2.out_boundary, vec!["silu".to_string()]);
        // fc3: operand from SiLU → diff calc with kind; it is the graph
        // output → summation.
        let b3 = &a.boundaries[2];
        assert!(b3.needs_diff_calc);
        assert_eq!(b3.in_boundary, vec!["silu".to_string()]);
        assert!(b3.needs_summation);
    }

    #[test]
    fn transparent_add_keeps_diff_domain() {
        // fc1 and fc2 outputs added → still diff; then softmax forces
        // summation attributed to both producers.
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let f1 = g.add("fc1", linear_op(2), &[x]);
        let f2 = g.add("fc2", linear_op(2), &[x]);
        let add = g.add("add", LayerOp::Add, &[f1, f2]);
        let sm = g.add("softmax", LayerOp::Softmax, &[add]);
        g.set_output(sm);
        let a = analyze(&g);
        assert_eq!(a.domains[add], Domain::Diff);
        for b in &a.boundaries {
            assert!(b.needs_summation);
            assert_eq!(b.out_boundary, vec!["softmax".to_string()]);
        }
    }

    #[test]
    fn mixed_add_forces_summation() {
        // fc output added to the raw input (original domain) — the diff
        // producer must be summed before the add.
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let f1 = g.add("fc1", linear_op(2), &[x]);
        let add = g.add("residual", LayerOp::Add, &[f1, x]);
        let f2 = g.add("fc2", linear_op(2), &[add]);
        g.set_output(f2);
        let a = analyze(&g);
        assert_eq!(a.domains[add], Domain::Original);
        let b1 = &a.boundaries[0];
        assert!(b1.needs_summation, "mixing junction forces summation");
        // fc2 consumes an Original-domain operand → diff calc required.
        let b2 = &a.boundaries[1];
        assert!(b2.needs_diff_calc);
    }

    #[test]
    fn attention_operands_both_checked() {
        // Q from linear (diff), K from softmax (original) → diff calc
        // needed because of the K side.
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let q = g.add("q", linear_op(2), &[x]);
        let s = g.add("sm", LayerOp::Softmax, &[x]);
        let qk = g.add("qk", LayerOp::MatmulQK, &[q, s]);
        g.set_output(qk);
        let a = analyze(&g);
        let qk_b = a.boundaries.iter().find(|b| b.node == qk).unwrap();
        assert!(qk_b.needs_diff_calc);
        assert!(qk_b.in_boundary.iter().any(|k| k == "softmax"));
    }

    #[test]
    fn real_model_analysis_is_consistent() {
        use diffusion::{DiffusionModel, ModelKind, ModelScale};
        for kind in [ModelKind::Sdm, ModelKind::Dit] {
            let m = DiffusionModel::build(kind, ModelScale::Tiny, 1);
            let a = analyze(&m.graph);
            assert_eq!(a.boundaries.len(), m.graph.linear_layers().len());
            // At least one layer must be free of diff-calc (a chained
            // linear) and at least one must need it.
            assert!(a.boundaries.iter().any(|b| !b.needs_diff_calc), "{kind:?}");
            assert!(a.boundaries.iter().any(|b| b.needs_diff_calc), "{kind:?}");
        }
    }

    #[test]
    fn sdm_has_non_signmask_boundaries_ddpm_some_covered() {
        use diffusion::{DiffusionModel, ModelKind, ModelScale};
        let sdm = DiffusionModel::build(ModelKind::Sdm, ModelScale::Tiny, 1);
        let a = analyze(&sdm.graph);
        let non_silu_gn = a.boundaries.iter().any(|b| {
            b.in_boundary.iter().chain(&b.out_boundary).any(|k| *k != "silu" && *k != "group_norm")
        });
        assert!(non_silu_gn, "SDM uses GeLU/Softmax/LayerNorm boundaries");
    }
}
