//! Layer kernels used by denoising models.
//!
//! The hot kernels ([`matmul`], [`conv2d`]) run on a
//! [`crate::KernelBackend`] value: the scalar reference loops, or explicit
//! SIMD at one level — where one f32 register-tile core runs every
//! matmul, and every convolution is lowered onto that matmul ([`conv`]).
//! Every backend produces
//! *exactly* the same results: the per-output-element accumulation order
//! of the scalar loops is preserved, so the Ditto equivalence claim
//! (which rests on exact accumulator values) survives the optimization.
//! The scalar references stay available ([`matmul_scalar`],
//! [`conv2d_direct`]) as ground truth for tests and benchmarks, and the
//! `*_with` variants ([`matmul_with`], [`conv2d_with`]) pin a backend
//! explicitly for
//! cross-backend test matrices. Algebraic properties — including the
//! Ditto core identity, distributivity of linear kernels over operand
//! sums — are property-tested in `tests/props.rs`.

pub mod activation;
pub mod conv;
pub mod elementwise;
pub mod matmul;
pub mod norm;
pub mod pool;
pub(crate) mod simd;

pub use activation::{
    exp_f32, exp_into_with, gelu, gelu_into_with, sigmoid, sigmoid_into_with, silu, silu_into_with,
    softmax_rows, softmax_rows_into_with, tanh_f32, tanh_into_with,
};
pub use conv::{
    conv2d, conv2d_direct, conv2d_into_with, conv2d_lowered_into, conv2d_scratch_len, conv2d_with,
    im2col, Conv2dParams,
};
pub use elementwise::{add, mul, scale, sub};
pub use matmul::{matmul, matmul_acc_with, matmul_scalar, matmul_with};
pub use norm::{group_norm, group_norm_into, layer_norm, layer_norm_into};
pub use pool::{avg_pool2d, avg_pool2d_into, global_avg_pool};
