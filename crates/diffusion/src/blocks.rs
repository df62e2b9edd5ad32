//! Builders for the Fig. 2 block structures.
//!
//! Each builder appends one paper block to a [`LayerGraph`]:
//!
//! * [`BlockCtx::resnet_block`] — GN → SiLU → Conv → (+time-emb FC) →
//!   GN → SiLU → Conv → +skip.
//! * [`BlockCtx::attention_block`] — GN → Q/K/V → Q·K → Softmax → P·V →
//!   proj → +x, with CHUR's extra pooling variant.
//! * [`BlockCtx::cond_transformer_block`] — the Conditional Latent
//!   Diffusion Transformer Block: self-attention, cross-attention over the
//!   (time-constant) context, GeLU MLP, plus the optional extra conv.
//! * [`BlockCtx::dit_block`] — the DiT/Latte adaLN transformer block with
//!   scale/shift/gate modulation from the conditioning embedding.
//!
//! Builders emit structure only; conv and FC layers carry a bias, and
//! [`crate::weights::Weights::seeded`] draws the values.

use crate::graph::{LayerGraph, NodeId};
use crate::op::LayerOp;
use tensor::ops::Conv2dParams;

/// Graph-building context.
#[derive(Debug)]
pub struct BlockCtx<'a> {
    /// The graph being built.
    pub g: &'a mut LayerGraph,
}

impl<'a> BlockCtx<'a> {
    /// Creates a context.
    pub fn new(g: &'a mut LayerGraph) -> Self {
        BlockCtx { g }
    }

    /// Adds a 2-D convolution with a bias.
    pub fn conv(
        &mut self,
        name: &str,
        x: NodeId,
        c_in: usize,
        c_out: usize,
        params: Conv2dParams,
    ) -> NodeId {
        self.g.add(name, LayerOp::Conv2d { c_in, c_out, params, bias: true }, &[x])
    }

    /// Adds a fully connected layer with a bias.
    pub fn linear(&mut self, name: &str, x: NodeId, d_in: usize, d_out: usize) -> NodeId {
        self.g.add(name, LayerOp::Linear { d_in, d_out, bias: true }, &[x])
    }

    /// Adds a group norm.
    pub fn group_norm(&mut self, name: &str, x: NodeId, channels: usize, groups: usize) -> NodeId {
        self.g.add(name, LayerOp::GroupNorm { groups, channels }, &[x])
    }

    /// Adds a layer norm.
    pub fn layer_norm(&mut self, name: &str, x: NodeId, features: usize) -> NodeId {
        self.g.add(name, LayerOp::LayerNorm { features }, &[x])
    }

    /// ResNet block (Fig. 2, left): two GN→SiLU→Conv stages with a
    /// time-embedding injection between them and a (possibly projected)
    /// residual connection.
    ///
    /// `emb` is the shared `[1, emb_dim]` time embedding; each block learns
    /// its own projection of it, as in the reference UNets.
    #[allow(clippy::too_many_arguments)]
    pub fn resnet_block(
        &mut self,
        name: &str,
        x: NodeId,
        emb: NodeId,
        c_in: usize,
        c_out: usize,
        emb_dim: usize,
        groups: usize,
    ) -> NodeId {
        let n = |s: &str| format!("{name}.{s}");
        let h = self.group_norm(&n("norm1"), x, c_in, groups);
        let h = self.g.add(n("silu1"), LayerOp::SiLU, &[h]);
        let h = self.conv(&n("conv1"), h, c_in, c_out, Conv2dParams::same3x3());
        // Time-embedding injection: SiLU(emb) → FC → broadcast add.
        let e = self.g.add(n("emb.silu"), LayerOp::SiLU, &[emb]);
        let e = self.linear(&n("emb.proj"), e, emb_dim, c_out);
        let h = self.g.add(n("emb.add"), LayerOp::AddBias2d, &[h, e]);
        let h = self.group_norm(&n("norm2"), h, c_out, groups);
        let h = self.g.add(n("silu2"), LayerOp::SiLU, &[h]);
        let h = self.conv(&n("conv2"), h, c_out, c_out, Conv2dParams::same3x3());
        // Residual; project with a 1×1 "skip" conv when widths differ
        // (the paper's `up.0.0.skip` layer is exactly this projection).
        let skip = if c_in == c_out {
            x
        } else {
            self.conv(&n("skip"), x, c_in, c_out, Conv2dParams::pointwise())
        };
        self.g.add(n("residual"), LayerOp::Add, &[h, skip])
    }

    /// Spatial self-attention block (Fig. 2, second column). With
    /// `pool_window`, keys/values are computed from average-pooled tokens —
    /// the "extra non-linear function for CHUR".
    #[allow(clippy::too_many_arguments)]
    pub fn attention_block(
        &mut self,
        name: &str,
        x: NodeId,
        c: usize,
        h: usize,
        w: usize,
        groups: usize,
        pool_window: Option<usize>,
    ) -> NodeId {
        let n = |s: &str| format!("{name}.{s}");
        let normed = self.group_norm(&n("norm"), x, c, groups);
        let tokens = self.g.add(n("to_tokens"), LayerOp::ToTokens, &[normed]);
        let q = self.linear(&n("q"), tokens, c, c);
        let kv_src = if let Some(win) = pool_window {
            let pooled = self.g.add(n("pool"), LayerOp::AvgPool { window: win }, &[normed]);
            self.g.add(n("pool.to_tokens"), LayerOp::ToTokens, &[pooled])
        } else {
            tokens
        };
        let k = self.linear(&n("k"), kv_src, c, c);
        let v = self.linear(&n("v"), kv_src, c, c);
        let scores = self.g.add(n("qk"), LayerOp::MatmulQK, &[q, k]);
        let p = self.g.add(n("softmax"), LayerOp::Softmax, &[scores]);
        let o = self.g.add(n("pv"), LayerOp::MatmulPV, &[p, v]);
        let o = self.linear(&n("proj"), o, c, c);
        let o = self.g.add(n("to_spatial"), LayerOp::ToSpatial { c, h, w }, &[o]);
        self.g.add(n("residual"), LayerOp::Add, &[o, x])
    }

    /// Multi-head self-attention over tokens `[T, c]` with `heads` heads of
    /// width `c/heads`, returning the residual sum.
    ///
    /// Heads are realized at graph level: the Q/K/V projections are sliced
    /// into per-head columns, each head runs its own `Q·Kᵀ → softmax → P·V`
    /// chain, and outputs re-assemble via [`LayerOp::ConcatCols`] — so the
    /// Ditto algorithm sees `2·heads` attention matmuls per block, as the
    /// real transformers of Table I would expose.
    ///
    /// # Panics
    ///
    /// Panics if `heads` is zero or does not divide `c`.
    pub fn multi_head_self_attention(
        &mut self,
        name: &str,
        x: NodeId,
        c: usize,
        heads: usize,
    ) -> NodeId {
        assert!(heads > 0 && c.is_multiple_of(heads), "heads must divide the feature width");
        let n = |s: &str| format!("{name}.{s}");
        let hd = c / heads;
        let normed = self.layer_norm(&n("norm"), x, c);
        let q = self.linear(&n("q"), normed, c, c);
        let k = self.linear(&n("k"), normed, c, c);
        let v = self.linear(&n("v"), normed, c, c);
        let mut head_outs = Vec::with_capacity(heads);
        for h in 0..heads {
            let hn = |s: &str| format!("{name}.h{h}.{s}");
            let slice = |ctx: &mut Self, src: NodeId, label: &str| {
                ctx.g.add(hn(label), LayerOp::SliceCols { start: h * hd, len: hd }, &[src])
            };
            let qh = slice(self, q, "q");
            let kh = slice(self, k, "k");
            let vh = slice(self, v, "v");
            let scores = self.g.add(hn("qk"), LayerOp::MatmulQK, &[qh, kh]);
            let p = self.g.add(hn("softmax"), LayerOp::Softmax, &[scores]);
            head_outs.push(self.g.add(hn("pv"), LayerOp::MatmulPV, &[p, vh]));
        }
        let mut merged = head_outs[0];
        for (h, &ho) in head_outs.iter().enumerate().skip(1) {
            merged = self.g.add(n(&format!("concat.{h}")), LayerOp::ConcatCols, &[merged, ho]);
        }
        let o = self.linear(&n("proj"), merged, c, c);
        self.g.add(n("residual"), LayerOp::Add, &[o, x])
    }

    /// Self-attention sub-layer over tokens `[T, c]`; returns the residual
    /// sum.
    fn token_self_attention(&mut self, name: &str, x: NodeId, c: usize) -> NodeId {
        let n = |s: &str| format!("{name}.{s}");
        let normed = self.layer_norm(&n("norm"), x, c);
        let q = self.linear(&n("q"), normed, c, c);
        let k = self.linear(&n("k"), normed, c, c);
        let v = self.linear(&n("v"), normed, c, c);
        let scores = self.g.add(n("qk"), LayerOp::MatmulQK, &[q, k]);
        let p = self.g.add(n("softmax"), LayerOp::Softmax, &[scores]);
        let o = self.g.add(n("pv"), LayerOp::MatmulPV, &[p, v]);
        let o = self.linear(&n("proj"), o, c, c);
        self.g.add(n("residual"), LayerOp::Add, &[o, x])
    }

    /// Conditional Latent Diffusion Transformer block (Fig. 2, third
    /// column): self-attention → cross-attention over `context`
    /// (`[S, ctx_dim]`, constant across time steps) → GeLU MLP.
    pub fn cond_transformer_block(
        &mut self,
        name: &str,
        x: NodeId,
        context: NodeId,
        c: usize,
        ctx_dim: usize,
    ) -> NodeId {
        let n = |s: &str| format!("{name}.{s}");
        // Self attention (Q', K', V' from x).
        let x = self.token_self_attention(&n("attn1"), x, c);
        // Cross attention: K'', V'' from the constant context — the Ditto
        // algorithm treats these as weights (§IV-A).
        let normed = self.layer_norm(&n("attn2.norm"), x, c);
        let q = self.linear(&n("attn2.q"), normed, c, c);
        let k = self.linear(&n("attn2.k"), context, ctx_dim, c);
        let v = self.linear(&n("attn2.v"), context, ctx_dim, c);
        let scores = self.g.add(n("attn2.qk"), LayerOp::MatmulQK, &[q, k]);
        let p = self.g.add(n("attn2.softmax"), LayerOp::Softmax, &[scores]);
        let o = self.g.add(n("attn2.pv"), LayerOp::MatmulPV, &[p, v]);
        let o = self.linear(&n("attn2.proj"), o, c, c);
        let x = self.g.add(n("attn2.residual"), LayerOp::Add, &[o, x]);
        // Feed-forward with GeLU.
        let normed = self.layer_norm(&n("ff.norm"), x, c);
        let hdim = 4 * c;
        let hmid = self.linear(&n("ff.fc1"), normed, c, hdim);
        let hmid = self.g.add(n("ff.gelu"), LayerOp::GeLU, &[hmid]);
        let out = self.linear(&n("ff.fc2"), hmid, hdim, c);
        self.g.add(n("ff.residual"), LayerOp::Add, &[out, x])
    }

    /// DiT/Latte adaLN transformer block (Fig. 2, right): the conditioning
    /// embedding `cond` (`[1, c]`) produces six modulation vectors
    /// (shift/scale/gate for attention and MLP) through SiLU → FC.
    pub fn dit_block(&mut self, name: &str, x: NodeId, cond: NodeId, c: usize) -> NodeId {
        let n = |s: &str| format!("{name}.{s}");
        // adaLN modulation parameters.
        let s = self.g.add(n("adaln.silu"), LayerOp::SiLU, &[cond]);
        let m = self.linear(&n("adaln.fc"), s, c, 6 * c);
        let chunk = |ctx: &mut Self, i: usize, label: &str| {
            ctx.g.add(n(label), LayerOp::SliceCols { start: i * c, len: c }, &[m])
        };
        let shift_msa = chunk(self, 0, "shift_msa");
        let scale_msa = chunk(self, 1, "scale_msa");
        let gate_msa = chunk(self, 2, "gate_msa");
        let shift_mlp = chunk(self, 3, "shift_mlp");
        let scale_mlp = chunk(self, 4, "scale_mlp");
        let gate_mlp = chunk(self, 5, "gate_mlp");
        // Attention with modulated input and gated output.
        let normed = self.layer_norm(&n("norm1"), x, c);
        let modded = self.g.add(n("mod1"), LayerOp::Modulate, &[normed, scale_msa, shift_msa]);
        let q = self.linear(&n("attn.q"), modded, c, c);
        let k = self.linear(&n("attn.k"), modded, c, c);
        let v = self.linear(&n("attn.v"), modded, c, c);
        let scores = self.g.add(n("attn.qk"), LayerOp::MatmulQK, &[q, k]);
        let p = self.g.add(n("attn.softmax"), LayerOp::Softmax, &[scores]);
        let o = self.g.add(n("attn.pv"), LayerOp::MatmulPV, &[p, v]);
        let o = self.linear(&n("attn.proj"), o, c, c);
        let o = self.g.add(n("attn.gate"), LayerOp::Gate, &[o, gate_msa]);
        let x = self.g.add(n("attn.residual"), LayerOp::Add, &[o, x]);
        // MLP with modulated input and gated output.
        let normed = self.layer_norm(&n("norm2"), x, c);
        let modded = self.g.add(n("mod2"), LayerOp::Modulate, &[normed, scale_mlp, shift_mlp]);
        let hdim = 4 * c;
        let hmid = self.linear(&n("mlp.fc1"), modded, c, hdim);
        let hmid = self.g.add(n("mlp.gelu"), LayerOp::GeLU, &[hmid]);
        let out = self.linear(&n("mlp.fc2"), hmid, hdim, c);
        let out = self.g.add(n("mlp.gate"), LayerOp::Gate, &[out, gate_mlp]);
        self.g.add(n("mlp.residual"), LayerOp::Add, &[out, x])
    }

    /// Shared time-embedding MLP: `TimestepEmbed → FC → SiLU → FC`,
    /// returning a `[1, emb_dim]` embedding node.
    pub fn time_embedding(&mut self, t_input: NodeId, base_dim: usize, emb_dim: usize) -> NodeId {
        let e = self.g.add("time_embed.sin", LayerOp::TimestepEmbed { dim: base_dim }, &[t_input]);
        let e = self.linear("time_embed.fc1", e, base_dim, emb_dim);
        let e = self.g.add("time_embed.silu", LayerOp::SiLU, &[e]);
        self.linear("time_embed.fc2", e, emb_dim, emb_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{forward, Bindings, NullHook, StepInfo};
    use crate::op::InputKind;
    use crate::weights::{Params, Weights};
    use tensor::{Rng, Tensor};

    fn run_with(
        g: &LayerGraph,
        weights: &Weights,
        latent: &Tensor,
        context: Option<&Tensor>,
    ) -> Tensor {
        forward(
            g,
            weights,
            &Bindings { latent, context, t: 500.0 },
            StepInfo { step_index: 0, t: 500.0, total_steps: 1 },
            &mut NullHook,
        )
        .unwrap()
    }

    /// Runs `g` on the zoo initialisation of its weights.
    fn run(g: &LayerGraph, latent: &Tensor, context: Option<&Tensor>) -> Tensor {
        run_with(g, &Weights::seeded(g, 1), latent, context)
    }

    #[test]
    fn resnet_block_preserves_shape_and_width_change() {
        let mut g = LayerGraph::new();
        let mut ctx = BlockCtx::new(&mut g);
        let x = ctx.g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let t = ctx.g.add("t", LayerOp::Input(InputKind::Timestep), &[]);
        let emb = ctx.time_embedding(t, 8, 16);
        let out = ctx.resnet_block("res", x, emb, 4, 8, 16, 2);
        g.set_output(out);
        g.validate();
        let latent = Tensor::randn(&[4, 4, 4], &mut Rng::seed_from(2));
        let y = run(&g, &latent, None);
        assert_eq!(y.dims(), &[8, 4, 4]);
        // Width change must have inserted a skip projection.
        assert!(g.nodes().iter().any(|n| n.name == "res.skip"));
    }

    #[test]
    fn resnet_block_same_width_has_no_skip_conv() {
        let mut g = LayerGraph::new();
        let mut ctx = BlockCtx::new(&mut g);
        let x = ctx.g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let t = ctx.g.add("t", LayerOp::Input(InputKind::Timestep), &[]);
        let emb = ctx.time_embedding(t, 8, 16);
        let out = ctx.resnet_block("res", x, emb, 4, 4, 16, 2);
        g.set_output(out);
        assert!(!g.nodes().iter().any(|n| n.name == "res.skip"));
    }

    #[test]
    fn attention_block_shapes() {
        let mut g = LayerGraph::new();
        let mut ctx = BlockCtx::new(&mut g);
        let x = ctx.g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let out = ctx.attention_block("attn", x, 8, 4, 4, 2, None);
        g.set_output(out);
        g.validate();
        let latent = Tensor::randn(&[8, 4, 4], &mut Rng::seed_from(4));
        let y = run(&g, &latent, None);
        assert_eq!(y.dims(), &[8, 4, 4]);
    }

    #[test]
    fn pooled_attention_has_pool_node() {
        let mut g = LayerGraph::new();
        let mut ctx = BlockCtx::new(&mut g);
        let x = ctx.g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let out = ctx.attention_block("attn", x, 8, 4, 4, 2, Some(2));
        g.set_output(out);
        let latent = Tensor::randn(&[8, 4, 4], &mut Rng::seed_from(4));
        let y = run(&g, &latent, None);
        assert_eq!(y.dims(), &[8, 4, 4]);
        assert!(g.nodes().iter().any(|n| n.name == "attn.pool"));
    }

    #[test]
    fn cond_transformer_block_uses_context() {
        let mut g = LayerGraph::new();
        let mut ctx = BlockCtx::new(&mut g);
        let x = ctx.g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let c = ctx.g.add("ctx", LayerOp::Input(InputKind::Context), &[]);
        let out = ctx.cond_transformer_block("blk", x, c, 16, 12);
        g.set_output(out);
        g.validate();
        let latent = Tensor::randn(&[6, 16], &mut Rng::seed_from(6));
        let context = Tensor::randn(&[3, 12], &mut Rng::seed_from(7));
        let y = run(&g, &latent, Some(&context));
        assert_eq!(y.dims(), &[6, 16]);
        // Changing context must change the output (cross attention works).
        let context2 = Tensor::randn(&[3, 12], &mut Rng::seed_from(8));
        let y2 = run(&g, &latent, Some(&context2));
        assert_ne!(y.as_slice(), y2.as_slice());
    }

    #[test]
    fn multi_head_attention_runs_and_scales_head_count() {
        for heads in [1, 2, 4] {
            let mut g = LayerGraph::new();
            let mut ctx = BlockCtx::new(&mut g);
            let x = ctx.g.add("x", LayerOp::Input(InputKind::Latent), &[]);
            let out = ctx.multi_head_self_attention("mha", x, 16, heads);
            g.set_output(out);
            g.validate();
            let latent = Tensor::randn(&[6, 16], &mut Rng::seed_from(12));
            let y = run(&g, &latent, None);
            assert_eq!(y.dims(), &[6, 16], "{heads} heads");
            // Each head contributes one QK and one PV matmul.
            let qk = g.nodes().iter().filter(|n| n.op.kind_name() == "matmul_qk").count();
            assert_eq!(qk, heads);
        }
    }

    #[test]
    fn multi_head_heads_attend_independently() {
        // Per-head softmax means one head's scores cannot mix with
        // another's; perturbing features in head 1's slice must leave
        // head 0's output columns untouched before the final projection.
        let mut g = LayerGraph::new();
        let ctx = &mut BlockCtx::new(&mut g);
        let x = ctx.g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let q = ctx.g.add("q", LayerOp::Linear { d_in: 4, d_out: 4, bias: false }, &[x]);
        let h0 = ctx.g.add("h0", LayerOp::SliceCols { start: 0, len: 2 }, &[q]);
        let h1 = ctx.g.add("h1", LayerOp::SliceCols { start: 2, len: 2 }, &[q]);
        let s0 = ctx.g.add("qk0", LayerOp::MatmulQK, &[h0, h0]);
        let s1 = ctx.g.add("qk1", LayerOp::MatmulQK, &[h1, h1]);
        let p0 = ctx.g.add("sm0", LayerOp::Softmax, &[s0]);
        let p1 = ctx.g.add("sm1", LayerOp::Softmax, &[s1]);
        let o0 = ctx.g.add("pv0", LayerOp::MatmulPV, &[p0, h0]);
        let o1 = ctx.g.add("pv1", LayerOp::MatmulPV, &[p1, h1]);
        let cat = ctx.g.add("cat", LayerOp::ConcatCols, &[o0, o1]);
        g.set_output(cat);
        // An identity projection exposes the heads directly.
        let mut w = Weights::new();
        w.set(&g, q, Params { weight: Tensor::eye(4), bias: None });
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[2, 4]).unwrap();
        let mut b = a.clone();
        b.set(&[0, 3], 40.0); // perturb head-1 territory only
        let ya = run_with(&g, &w, &a, None);
        let yb = run_with(&g, &w, &b, None);
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(ya.at(&[r, c]), yb.at(&[r, c]), "head 0 isolated at [{r},{c}]");
            }
        }
        assert_ne!(ya.at(&[0, 3]), yb.at(&[0, 3]), "head 1 sees the change");
    }

    #[test]
    fn dit_block_modulates_by_cond() {
        let mut g = LayerGraph::new();
        let mut ctx = BlockCtx::new(&mut g);
        let x = ctx.g.add("x", LayerOp::Input(InputKind::Latent), &[]);
        let t = ctx.g.add("t", LayerOp::Input(InputKind::Timestep), &[]);
        let cond = ctx.time_embedding(t, 8, 16);
        let out = ctx.dit_block("dit", x, cond, 16);
        g.set_output(out);
        g.validate();
        let latent = Tensor::randn(&[4, 16], &mut Rng::seed_from(10));
        let y = run(&g, &latent, None);
        assert_eq!(y.dims(), &[4, 16]);
        // Six modulation slices must exist.
        for label in ["shift_msa", "scale_msa", "gate_msa", "shift_mlp", "scale_mlp", "gate_mlp"] {
            assert!(g.nodes().iter().any(|n| n.name == format!("dit.{label}")), "{label}");
        }
    }
}
