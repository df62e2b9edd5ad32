//! The denoising-model computation graph.
//!
//! A [`LayerGraph`] is a topologically ordered DAG of [`Node`]s. Builders in
//! [`crate::blocks`] append nodes in execution order, so node id order *is*
//! a valid topological order — the executor and Defo both rely on this.

use crate::op::{InputKind, LayerOp, OpClass};

/// Identifier of a node within its graph (index into the node list).
pub type NodeId = usize;

/// The FNV-1a 64-bit offset basis — the starting hash for
/// [`fnv1a_fold`] chains.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64-bit hash state. Shared by
/// [`LayerGraph::structure_digest`], `ModelSpec::digest` and `bench`'s
/// trace fingerprint so the hashes cannot drift apart.
pub fn fnv1a_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// One operation instance in the denoising model.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's id (== its index).
    pub id: NodeId,
    /// Human-readable name, e.g. `"down.0.res.0.conv1"` — the paper's layer
    /// naming style (`conv-in`, `up.0.0.skip`).
    pub name: String,
    /// The operation.
    pub op: LayerOp,
    /// Operand node ids (length == `op.arity()`).
    pub inputs: Vec<NodeId>,
}

/// A complete denoising model graph.
#[derive(Debug, Clone, Default)]
pub struct LayerGraph {
    nodes: Vec<Node>,
    output: Option<NodeId>,
}

impl LayerGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any input id is not already in the graph (forward
    /// references would break the topological-order invariant) or the
    /// operand count disagrees with the op's arity.
    pub fn add(&mut self, name: impl Into<String>, op: LayerOp, inputs: &[NodeId]) -> NodeId {
        let id = self.nodes.len();
        assert_eq!(inputs.len(), op.arity(), "operand count must match arity");
        for &i in inputs {
            assert!(i < id, "input {i} must precede node {id}");
        }
        self.nodes.push(Node { id, name: name.into(), op, inputs: inputs.to_vec() });
        id
    }

    /// Marks the node whose value is the model output (the predicted noise).
    pub fn set_output(&mut self, id: NodeId) {
        assert!(id < self.nodes.len(), "output must be an existing node");
        self.output = Some(id);
    }

    /// The output node id.
    ///
    /// # Panics
    ///
    /// Panics if no output was set.
    pub fn output(&self) -> NodeId {
        self.output.expect("graph output not set")
    }

    /// All nodes in topological (execution) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node with id `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all Ditto-targetable linear layers, in execution order.
    pub fn linear_layers(&self) -> Vec<NodeId> {
        self.nodes.iter().filter(|n| n.op.is_linear_layer()).map(|n| n.id).collect()
    }

    /// Direct consumers of each node (adjacency in the forward direction).
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                out[i].push(n.id);
            }
        }
        out
    }

    /// Ids of input nodes of a given kind.
    pub fn inputs_of(&self, kind: InputKind) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, LayerOp::Input(k) if k == kind))
            .map(|n| n.id)
            .collect()
    }

    /// Counts nodes per [`OpClass`] — used for the Table I style inventory.
    pub fn class_census(&self) -> GraphCensus {
        let mut c = GraphCensus::default();
        for n in &self.nodes {
            match n.op.class() {
                OpClass::Linear => c.linear += 1,
                OpClass::NonLinear => c.nonlinear += 1,
                OpClass::Transparent => c.transparent += 1,
                OpClass::Input => c.inputs += 1,
            }
        }
        c
    }

    /// A 64-bit FNV-1a digest of the graph: node names, op signatures
    /// ([`LayerOp::signature`] — variant, scalar parameters, weight
    /// shapes), edges, and the output id. A graph holds no weight values
    /// (see [`crate::weights`]); cache keys hash the seed they are drawn
    /// from alongside this digest. The plan cache keys on it, and `bench`'s
    /// trace cache uses it to invalidate cached traces whenever a model
    /// definition changes.
    pub fn structure_digest(&self) -> u64 {
        fn eat(h: &mut u64, bytes: &[u8]) {
            *h = fnv1a_fold(*h, bytes);
        }
        let mut h = FNV1A_OFFSET;
        for n in &self.nodes {
            eat(&mut h, n.name.as_bytes());
            eat(&mut h, &[0xFF]);
            eat(&mut h, n.op.signature().as_bytes());
            eat(&mut h, &[0xFE]);
            for &i in &n.inputs {
                eat(&mut h, &(i as u64).to_le_bytes());
            }
            eat(&mut h, &[0xFD]);
        }
        eat(&mut h, &(self.output.map_or(u64::MAX, |o| o as u64)).to_le_bytes());
        h
    }

    /// Validates graph invariants; called by model builders after
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if the output is unset or unreachable from inputs, or any
    /// node references a later node.
    pub fn validate(&self) {
        let out = self.output();
        for n in &self.nodes {
            for &i in &n.inputs {
                assert!(i < n.id, "node {} has forward reference {i}", n.id);
            }
        }
        // Reachability: walk backwards from the output.
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack = vec![out];
        while let Some(id) = stack.pop() {
            if reachable[id] {
                continue;
            }
            reachable[id] = true;
            stack.extend_from_slice(&self.nodes[id].inputs);
        }
        assert!(
            self.inputs_of(InputKind::Latent).iter().any(|&i| reachable[i]),
            "latent input does not reach the output"
        );
    }
}

/// Node counts per operation class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphCensus {
    /// Linear layers (Ditto targets).
    pub linear: usize,
    /// Non-linear functions.
    pub nonlinear: usize,
    /// Difference-transparent structure.
    pub transparent: usize,
    /// Graph inputs.
    pub inputs: usize,
}

impl GraphCensus {
    /// Total node count.
    pub fn total(&self) -> usize {
        self.linear + self.nonlinear + self.transparent + self.inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> LayerGraph {
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let l = g.add("fc", LayerOp::Linear { d_in: 2, d_out: 2, bias: false }, &[x]);
        let s = g.add("act", LayerOp::SiLU, &[l]);
        g.set_output(s);
        g
    }

    #[test]
    fn add_assigns_sequential_ids() {
        let g = tiny_graph();
        assert_eq!(g.len(), 3);
        assert_eq!(g.node(1).name, "fc");
        assert_eq!(g.output(), 2);
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn forward_reference_panics() {
        let mut g = LayerGraph::new();
        g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        // Input id 5 does not exist yet.
        g.add("bad", LayerOp::SiLU, &[5]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut g = LayerGraph::new();
        let x = g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        g.add("add", LayerOp::Add, &[x]); // Add needs two operands.
    }

    #[test]
    fn linear_layers_and_census() {
        let g = tiny_graph();
        assert_eq!(g.linear_layers(), vec![1]);
        let c = g.class_census();
        assert_eq!(c.linear, 1);
        assert_eq!(c.nonlinear, 1);
        assert_eq!(c.inputs, 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn consumers_adjacency() {
        let g = tiny_graph();
        let cons = g.consumers();
        assert_eq!(cons[0], vec![1]);
        assert_eq!(cons[1], vec![2]);
        assert!(cons[2].is_empty());
    }

    #[test]
    fn validate_accepts_wellformed() {
        tiny_graph().validate();
    }

    #[test]
    fn structure_digest_tracks_definition_changes() {
        let g = tiny_graph();
        // Deterministic and clone-stable.
        assert_eq!(g.structure_digest(), g.structure_digest());
        assert_eq!(g.clone().structure_digest(), g.structure_digest());
        // A renamed node changes the digest.
        let mut renamed = g.clone();
        renamed.nodes[1].name = "fc-renamed".into();
        assert_ne!(renamed.structure_digest(), g.structure_digest());
        // A different op parameterization changes the digest (3×3 weight
        // instead of 2×2, or an added bias).
        let mut rewired = g.clone();
        rewired.nodes[1].op = LayerOp::Linear { d_in: 3, d_out: 3, bias: false };
        assert_ne!(rewired.structure_digest(), g.structure_digest());
        let mut biased = g.clone();
        biased.nodes[1].op = LayerOp::Linear { d_in: 2, d_out: 2, bias: true };
        assert_ne!(biased.structure_digest(), g.structure_digest());
        // An extra node changes the digest.
        let mut grown = g.clone();
        grown.add("extra", LayerOp::GeLU, &[2]);
        assert_ne!(grown.structure_digest(), g.structure_digest());
    }

    #[test]
    #[should_panic(expected = "output not set")]
    fn validate_requires_output() {
        let mut g = LayerGraph::new();
        g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        g.validate();
    }
}
