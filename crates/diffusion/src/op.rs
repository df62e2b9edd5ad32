//! Layer operations — the vocabulary of Fig. 2's block structures.
//!
//! Operations are split into three families that drive everything in the
//! Ditto algorithm and Defo:
//!
//! * **Linear layers** (`Conv2d`, `Linear`, `MatmulQK`, `MatmulPV`) — the
//!   targets of difference processing (§IV-A).
//! * **Non-linear functions** (`SiLU`, `GeLU`, `Sigmoid`, `Softmax`,
//!   `GroupNorm`, `LayerNorm`, `AvgPool`) — require original activations;
//!   Defo closes differences before them (§IV-B).
//! * **Difference-transparent structure** (`Add`, `Mul`-by-constant-shape
//!   operands, reshapes, slices) — linear maps through which a difference
//!   domain can flow unchanged.
//!
//! An op carries shapes, never values: the learned tensors of the weighted
//! ops (conv, FC, the norms) live in a separate [`crate::weights::Weights`]
//! table, so a graph — and every cache key hashed from it — exists without
//! them.

use tensor::ops::Conv2dParams;

/// What an [`crate::graph::Node`] computes.
#[derive(Debug, Clone)]
pub enum LayerOp {
    /// A bound model input.
    Input(InputKind),
    /// Sinusoidal embedding of the current diffusion time step → `[1, dim]`.
    TimestepEmbed {
        /// Embedding width.
        dim: usize,
    },
    /// 2-D convolution over `[C, H, W]` with a `[C_out, C_in, K, K]` filter
    /// bank.
    Conv2d {
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Kernel/stride/padding.
        params: Conv2dParams,
        /// Whether a `[C_out]` bias is added.
        bias: bool,
    },
    /// Fully connected layer over `[tokens, in] × [in, out]`.
    Linear {
        /// Input features.
        d_in: usize,
        /// Output features.
        d_out: usize,
        /// Whether an `[out]` bias is added.
        bias: bool,
    },
    /// Attention scores `Q·Kᵀ/√d` from two inputs `(Q, K)`, each
    /// `[tokens, d]`.
    MatmulQK,
    /// Attention-weighted values `P·V` from `(P, V)`.
    MatmulPV,
    /// Group normalization (non-linear: involves data-dependent statistics)
    /// with a per-channel scale and shift.
    GroupNorm {
        /// Number of channel groups.
        groups: usize,
        /// Channels `C`.
        channels: usize,
    },
    /// Layer normalization over the last dim of `[tokens, features]` with a
    /// per-feature scale and shift.
    LayerNorm {
        /// Features per token.
        features: usize,
    },
    /// SiLU activation.
    SiLU,
    /// GeLU activation.
    GeLU,
    /// Logistic sigmoid.
    Sigmoid,
    /// Row-wise softmax.
    Softmax,
    /// Element-wise sum of two same-shaped inputs (residual connections).
    Add,
    /// Element-wise product of two same-shaped inputs.
    Mul,
    /// Multiply by a compile-time constant.
    Scale(f32),
    /// `x·(1+s)+b` with `s`,`b` broadcast from `[1, C]` over rows of
    /// `[tokens, C]` — DiT/Latte adaLN modulation.
    Modulate,
    /// `x·g` with `g` broadcast from `[1, C]` over rows — adaLN gating.
    Gate,
    /// Adds a `[1, C]` embedding to every spatial position of `[C, H, W]` —
    /// ResNet-block time-embedding injection.
    AddBias2d,
    /// `[C, H, W] → [H·W, C]` token view for attention.
    ToTokens,
    /// `[H·W, C] → [C, H, W]` back to spatial.
    ToSpatial {
        /// Channels.
        c: usize,
        /// Height.
        h: usize,
        /// Width.
        w: usize,
    },
    /// Average pooling (window × window) — CHUR's extra non-linearity.
    AvgPool {
        /// Pooling window and stride.
        window: usize,
    },
    /// Slice of the last dimension: columns `[start, start+len)` of
    /// `[rows, features]` — adaLN 6-way chunking.
    SliceCols {
        /// First column.
        start: usize,
        /// Number of columns.
        len: usize,
    },
    /// Concatenate two inputs along the channel axis (rank-3 `[C,H,W]`) —
    /// UNet skip connections.
    ConcatChannels,
    /// Concatenate two rank-2 inputs along the feature axis
    /// (`[T, a] ⊕ [T, b] → [T, a+b]`) — multi-head attention's head
    /// re-assembly. Linear, so difference domains flow through.
    ConcatCols,
    /// Nearest-neighbour 2× spatial upsampling of `[C, H, W]` — the UNet
    /// decoder's resolution doubling. A linear map, so difference domains
    /// flow through it unchanged.
    Upsample2x,
    /// Rearranges patch tokens `[hp·wp, p·p·c]` back into an image
    /// `[c, hp·p, wp·p]` — the DiT/Latte final unpatchify.
    Unpatchify {
        /// Output channels.
        c: usize,
        /// Patch-grid height.
        hp: usize,
        /// Patch-grid width.
        wp: usize,
        /// Patch edge length.
        p: usize,
    },
}

/// Which model input a [`LayerOp::Input`] node binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputKind {
    /// The latent / image being denoised (changes every step).
    Latent,
    /// Conditioning context tokens (constant across steps — the paper's
    /// cross-attention observation in §IV-A relies on this).
    Context,
    /// Scalar time step (consumed by [`LayerOp::TimestepEmbed`]).
    Timestep,
}

/// Coarse operation family used by Defo's static analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Difference-processable linear layer.
    Linear,
    /// Requires original activations.
    NonLinear,
    /// Linear map through which differences flow unchanged.
    Transparent,
    /// Graph input.
    Input,
}

impl LayerOp {
    /// The Defo classification of this op.
    pub fn class(&self) -> OpClass {
        match self {
            LayerOp::Conv2d { .. }
            | LayerOp::Linear { .. }
            | LayerOp::MatmulQK
            | LayerOp::MatmulPV => OpClass::Linear,
            LayerOp::GroupNorm { .. }
            | LayerOp::LayerNorm { .. }
            | LayerOp::SiLU
            | LayerOp::GeLU
            | LayerOp::Sigmoid
            | LayerOp::Softmax
            | LayerOp::AvgPool { .. }
            | LayerOp::TimestepEmbed { .. }
            // Modulate/Gate multiply two *data* operands, so a difference
            // domain does not pass through them unchanged.
            | LayerOp::Modulate
            | LayerOp::Gate
            | LayerOp::Mul => OpClass::NonLinear,
            LayerOp::Add
            | LayerOp::Scale(_)
            | LayerOp::AddBias2d
            | LayerOp::ToTokens
            | LayerOp::ToSpatial { .. }
            | LayerOp::SliceCols { .. }
            | LayerOp::ConcatChannels
            | LayerOp::ConcatCols
            | LayerOp::Upsample2x
            | LayerOp::Unpatchify { .. } => OpClass::Transparent,
            LayerOp::Input(_) => OpClass::Input,
        }
    }

    /// Whether this op is a Ditto-targetable linear layer.
    pub fn is_linear_layer(&self) -> bool {
        self.class() == OpClass::Linear
    }

    /// Whether this op is a non-linear function in Defo's sense.
    pub fn is_nonlinear(&self) -> bool {
        self.class() == OpClass::NonLinear
    }

    /// Number of operands this op consumes.
    pub fn arity(&self) -> usize {
        match self {
            LayerOp::Input(_) => 0,
            LayerOp::MatmulQK
            | LayerOp::MatmulPV
            | LayerOp::Add
            | LayerOp::Mul
            | LayerOp::Gate
            | LayerOp::AddBias2d
            | LayerOp::ConcatChannels
            | LayerOp::ConcatCols => 2,
            LayerOp::Modulate => 3,
            _ => 1,
        }
    }

    /// Short human-readable kind name (stable; used in reports).
    pub fn kind_name(&self) -> &'static str {
        match self {
            LayerOp::Input(InputKind::Latent) => "input.latent",
            LayerOp::Input(InputKind::Context) => "input.context",
            LayerOp::Input(InputKind::Timestep) => "input.timestep",
            LayerOp::TimestepEmbed { .. } => "time_embed",
            LayerOp::Conv2d { .. } => "conv2d",
            LayerOp::Linear { .. } => "linear",
            LayerOp::MatmulQK => "matmul_qk",
            LayerOp::MatmulPV => "matmul_pv",
            LayerOp::GroupNorm { .. } => "group_norm",
            LayerOp::LayerNorm { .. } => "layer_norm",
            LayerOp::SiLU => "silu",
            LayerOp::GeLU => "gelu",
            LayerOp::Sigmoid => "sigmoid",
            LayerOp::Softmax => "softmax",
            LayerOp::Add => "add",
            LayerOp::Mul => "mul",
            LayerOp::Scale(_) => "scale",
            LayerOp::Modulate => "modulate",
            LayerOp::Gate => "gate",
            LayerOp::AddBias2d => "add_bias2d",
            LayerOp::ToTokens => "to_tokens",
            LayerOp::ToSpatial { .. } => "to_spatial",
            LayerOp::AvgPool { .. } => "avg_pool",
            LayerOp::SliceCols { .. } => "slice_cols",
            LayerOp::ConcatChannels => "concat_channels",
            LayerOp::ConcatCols => "concat_cols",
            LayerOp::Upsample2x => "upsample2x",
            LayerOp::Unpatchify { .. } => "unpatchify",
        }
    }

    /// The shapes of this op's learned tensors — `(weight, bias)` for conv
    /// and FC, `(γ, Some(β))` for the norms — or `None` for an op without
    /// any.
    pub fn param_dims(&self) -> Option<(Vec<usize>, Option<Vec<usize>>)> {
        match *self {
            LayerOp::Conv2d { c_in, c_out, params, bias } => {
                Some((vec![c_out, c_in, params.kernel, params.kernel], bias.then(|| vec![c_out])))
            }
            LayerOp::Linear { d_in, d_out, bias } => {
                Some((vec![d_in, d_out], bias.then(|| vec![d_out])))
            }
            LayerOp::GroupNorm { channels: c, .. } | LayerOp::LayerNorm { features: c } => {
                Some((vec![c], Some(vec![c])))
            }
            _ => None,
        }
    }

    /// A structural signature of this op: [`Self::kind_name`] plus scalar
    /// parameters and weight/bias *shapes* (parameter values live outside
    /// the graph; model fingerprints hash the seed they are drawn from).
    /// Feeds [`crate::graph::LayerGraph::structure_digest`].
    pub fn signature(&self) -> String {
        fn dims(d: &[usize]) -> String {
            let strs: Vec<String> = d.iter().map(usize::to_string).collect();
            strs.join("x")
        }
        let kind = self.kind_name();
        let (w, b) = self.param_dims().unwrap_or_default();
        let b = b.as_deref().map_or_else(|| "-".to_string(), dims);
        match self {
            LayerOp::TimestepEmbed { dim } => format!("{kind}({dim})"),
            LayerOp::Conv2d { params, .. } => format!(
                "{kind}(w={},b={b},k={},s={},p={})",
                dims(&w),
                params.kernel,
                params.stride,
                params.padding
            ),
            LayerOp::Linear { .. } => format!("{kind}(w={},b={b})", dims(&w)),
            LayerOp::GroupNorm { groups, channels } => format!("{kind}(g={groups},c={channels})"),
            LayerOp::LayerNorm { features } => format!("{kind}(c={features})"),
            LayerOp::Scale(s) => format!("{kind}({:08x})", s.to_bits()),
            LayerOp::AvgPool { window } => format!("{kind}({window})"),
            LayerOp::SliceCols { start, len } => format!("{kind}({start},{len})"),
            LayerOp::ToSpatial { c, h, w } => format!("{kind}({c},{h},{w})"),
            LayerOp::Unpatchify { c, hp, wp, p } => format!("{kind}({c},{hp},{wp},{p})"),
            _ => kind.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_paper_families() {
        assert!(LayerOp::Linear { d_in: 1, d_out: 1, bias: false }.is_linear_layer());
        assert!(LayerOp::MatmulQK.is_linear_layer());
        assert!(LayerOp::MatmulPV.is_linear_layer());
        assert!(LayerOp::SiLU.is_nonlinear());
        assert!(LayerOp::Softmax.is_nonlinear());
        assert!(LayerOp::GroupNorm { groups: 1, channels: 1 }.is_nonlinear());
        assert_eq!(LayerOp::Add.class(), OpClass::Transparent);
        assert_eq!(LayerOp::Input(InputKind::Latent).class(), OpClass::Input);
    }

    #[test]
    fn arity_by_family() {
        assert_eq!(LayerOp::Input(InputKind::Latent).arity(), 0);
        assert_eq!(LayerOp::SiLU.arity(), 1);
        assert_eq!(LayerOp::Add.arity(), 2);
        assert_eq!(LayerOp::MatmulQK.arity(), 2);
        assert_eq!(LayerOp::Modulate.arity(), 3);
    }

    #[test]
    fn signatures_name_parameter_shapes() {
        // The strings the weight-carrying ops produced before weights moved
        // out of the graph: fingerprints and plan-cache keys hash them.
        let conv =
            LayerOp::Conv2d { c_in: 4, c_out: 8, params: Conv2dParams::same3x3(), bias: true };
        assert_eq!(conv.signature(), "conv2d(w=8x4x3x3,b=8,k=3,s=1,p=1)");
        assert_eq!(
            LayerOp::Linear { d_in: 16, d_out: 96, bias: false }.signature(),
            "linear(w=16x96,b=-)"
        );
        assert_eq!(
            LayerOp::GroupNorm { groups: 4, channels: 32 }.signature(),
            "group_norm(g=4,c=32)"
        );
        assert_eq!(LayerOp::LayerNorm { features: 96 }.signature(), "layer_norm(c=96)");
        assert_eq!(LayerOp::SiLU.param_dims(), None);
    }

    #[test]
    fn kind_names_unique_enough() {
        // Names used as report keys must be distinct per variant family.
        let names = [
            LayerOp::SiLU.kind_name(),
            LayerOp::GeLU.kind_name(),
            LayerOp::Softmax.kind_name(),
            LayerOp::MatmulQK.kind_name(),
            LayerOp::MatmulPV.kind_name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
