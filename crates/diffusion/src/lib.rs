//! Diffusion model inference framework for the Ditto reproduction.
//!
//! A from-scratch implementation of everything the paper's evaluation needs
//! from the diffusion side (Table I, Fig. 1, Fig. 2):
//!
//! * [`graph`] / [`op`] — a layer-graph IR whose operations are classified
//!   exactly the way the Ditto algorithm and Defo need (linear layers,
//!   non-linear functions, difference-transparent structure).
//! * [`blocks`] — builders for every Fig. 2 block (ResNet, attention,
//!   conditional latent transformer, DiT/Latte adaLN transformer, CHUR's
//!   pooled attention).
//! * [`models`] — the seven Table I benchmarks, scaled down but
//!   structurally faithful, with paper sampler identities and step counts.
//!   A [`models::ModelSpec`] is a benchmark without its weights: cache keys
//!   and plans come from it, and a [`models::DiffusionModel`] draws its
//!   [`weights::Weights`] on first evaluation.
//! * [`weights`] — the learned tensors, kept apart from the graph.
//! * [`sampler`] — linear-β schedule, DDIM, and PLMS (with its warm-up
//!   extra model call, Fig. 4a's "50′").
//! * [`executor`] — the PyTorch-hook-style interception interface
//!   ([`executor::LinearHook`]) the quantized and Ditto execution modes in
//!   `ditto-core` plug into, and [`executor::forward`], the allocating
//!   node-by-node f32 walk kept as the oracle for tests and `perfbench`.
//! * [`plan`] — a one-time trace-plan compiler (flatten → liveness → arena)
//!   plus a tight interpreter with zero steady-state allocation. Every
//!   model evaluation runs it, under any hook: linear sites hand the hook
//!   their operand slices and output span in the arena. Bit-identical to
//!   [`executor::forward`].
//! * [`metrics`] — proxy quality metrics standing in for FID/IS/CLIP
//!   (Table II), and the argument for substituting them.
//!
//! # Example
//!
//! ```
//! use diffusion::models::{DiffusionModel, ModelKind, ModelScale};
//! use diffusion::executor::NullHook;
//!
//! let model = DiffusionModel::build(ModelKind::Ddpm, ModelScale::Tiny, 42);
//! let image = model.run_reverse(0, &mut NullHook)?;
//! assert_eq!(image.dims(), &model.latent_dims[..]);
//! # Ok::<(), tensor::TensorError>(())
//! ```

pub mod blocks;
pub mod embed;
pub mod executor;
pub mod graph;
pub mod metrics;
pub mod models;
pub mod op;
pub mod plan;
pub mod sampler;
pub mod weights;

pub use executor::{forward, Bindings, LinearHook, NullHook, OperandView, StepInfo};
pub use graph::{LayerGraph, Node, NodeId};
pub use models::{DiffusionModel, ModelKind, ModelScale, ModelSpec};
pub use op::{InputKind, LayerOp, OpClass};
pub use plan::{PlanArena, TracePlan};
pub use sampler::{SamplerKind, Schedule};
pub use weights::{Params, Weights};
