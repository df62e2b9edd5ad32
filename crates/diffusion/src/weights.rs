//! Model parameters, kept apart from the graph.
//!
//! A [`LayerGraph`] carries the *shapes* of its learned tensors
//! ([`LayerOp::param_dims`]); [`Weights`] carries their values, indexed by
//! node id. Everything keyed on a model's definition — trace-cache
//! fingerprints, compiled plans — is computed from the graph alone, so it
//! costs no weight generation. The executors take both.
//!
//! The zoo's weights are a pure function of the graph and one seed
//! ([`Weights::seeded`]): a seeded Gaussian with 1/√fan-in scaling per conv
//! and FC layer, drawn in node order, zero biases and identity norms. The
//! scaling keeps the random-weight models' activations well conditioned
//! across layers — the property that lets temporal similarity emerge as it
//! does in trained checkpoints.

use crate::graph::{LayerGraph, NodeId};
use crate::op::LayerOp;
use tensor::{Result, Rng, Tensor, TensorError};

/// The learned tensors of one node: a conv's `[C_out, C_in, K, K]` or an FC
/// layer's `[in, out]` weight with its optional bias, or a norm's per-channel
/// scale `γ` (`weight`) and shift `β` (`bias`, always present).
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Weight, or a norm's `γ`.
    pub weight: Tensor,
    /// Bias, or a norm's `β`.
    pub bias: Option<Tensor>,
}

/// Every weighted node's [`Params`], indexed by node id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Weights {
    by_node: Vec<Option<Params>>,
}

impl Weights {
    /// An empty table: fill it with [`Self::set`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The zoo initialisation of `graph` from `seed` (see the module docs).
    pub fn seeded(graph: &LayerGraph, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let mut weights = Weights::new();
        for node in graph.nodes() {
            let Some((w, b)) = node.op.param_dims() else { continue };
            let mut gaussian = |fan_in: usize| {
                let std = 1.0 / (fan_in as f32).sqrt();
                Tensor::randn(&w, &mut rng).map(|v| v * std)
            };
            let weight = match node.op {
                LayerOp::Conv2d { c_in, params, .. } => {
                    gaussian(c_in * params.kernel * params.kernel)
                }
                LayerOp::Linear { d_in, .. } => gaussian(d_in),
                _ => Tensor::full(&w, 1.0),
            };
            let bias = b.map(|d| Tensor::zeros(&d));
            weights.set(graph, node.id, Params { weight, bias });
        }
        weights
    }

    /// Standard-normal values for every parameter of `graph`, biases and
    /// norm affines included: identity tests use it to exercise the paths
    /// the zoo's zero biases and identity norms leave idle.
    pub fn randn(graph: &LayerGraph, rng: &mut Rng) -> Self {
        let mut weights = Weights::new();
        for node in graph.nodes() {
            if let Some((w, b)) = node.op.param_dims() {
                let weight = Tensor::randn(&w, rng);
                let bias = b.map(|d| Tensor::randn(&d, rng));
                weights.set(graph, node.id, Params { weight, bias });
            }
        }
        weights
    }

    /// Sets the parameters of `graph`'s node `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node has no parameters or `params` disagrees with the
    /// shapes its op declares.
    pub fn set(&mut self, graph: &LayerGraph, node: NodeId, params: Params) {
        let op = &graph.node(node).op;
        let (w, b) = op.param_dims().expect("only weighted ops take parameters");
        assert_eq!(params.weight.dims(), w.as_slice(), "weight shape of node {node}");
        assert_eq!(params.bias.as_ref().map(|t| t.dims().to_vec()), b, "bias shape of node {node}");
        if self.by_node.len() <= node {
            self.by_node.resize(node + 1, None);
        }
        self.by_node[node] = Some(params);
    }

    /// The parameters of node `node`.
    ///
    /// # Errors
    ///
    /// Returns an error if the table holds none for it.
    pub fn get(&self, node: NodeId) -> Result<&Params> {
        self.by_node
            .get(node)
            .and_then(Option::as_ref)
            .ok_or_else(|| TensorError::InvalidArgument(format!("node {node} has no weights")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::InputKind;

    #[test]
    fn seeded_draws_in_node_order_with_fan_in_scaling() {
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let fc = g.add("fc", LayerOp::Linear { d_in: 4, d_out: 3, bias: true }, &[x]);
        let ln = g.add("ln", LayerOp::LayerNorm { features: 3 }, &[fc]);
        let w = Weights::seeded(&g, 9);
        let mut rng = Rng::seed_from(9);
        let want = Tensor::randn(&[4, 3], &mut rng).map(|v| v * 0.5);
        assert_eq!(w.get(fc).unwrap().weight, want);
        assert_eq!(w.get(fc).unwrap().bias, Some(Tensor::zeros(&[3])));
        assert_eq!(w.get(ln).unwrap().weight, Tensor::full(&[3], 1.0));
        assert!(w.get(x).is_err());
        assert_eq!(w, Weights::seeded(&g, 9));
        assert_ne!(w, Weights::seeded(&g, 10));
    }

    #[test]
    #[should_panic(expected = "weight shape")]
    fn set_checks_the_declared_shape() {
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let fc = g.add("fc", LayerOp::Linear { d_in: 2, d_out: 2, bias: false }, &[x]);
        Weights::new().set(&g, fc, Params { weight: Tensor::eye(3), bias: None });
    }
}
