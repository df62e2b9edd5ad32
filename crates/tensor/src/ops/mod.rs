//! Layer kernels used by denoising models.
//!
//! The hot kernels ([`matmul`], [`matvec`], [`conv2d`]) are thin
//! dispatchers over the pluggable [`crate::backend`] layer: the scalar
//! reference loops, the cache-blocked tiled implementations (default
//! where no SIMD exists), or explicit SIMD. Every backend produces
//! *exactly* the same results: the per-output-element accumulation order
//! of the scalar loops is preserved, so the Ditto equivalence claim
//! (which rests on exact accumulator values) survives the optimization.
//! The scalar references stay available ([`matmul_scalar`],
//! [`matvec_scalar`], [`conv2d_direct`]) as ground truth for tests and
//! benchmarks, and the `*_with` variants ([`matmul_with`],
//! [`matvec_with`], [`conv2d_with`]) pin a backend explicitly for
//! cross-backend test matrices. Algebraic properties — including the
//! Ditto core identity, distributivity of linear kernels over operand
//! sums — are property-tested in `tests/props.rs`.

pub mod activation;
pub mod conv;
pub(crate) mod conv_direct_simd;
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
    conv2d, conv2d_class, conv2d_class_in_mode, conv2d_direct, conv2d_direct_into_with,
    conv2d_im2col, conv2d_im2col_with, conv2d_into_with, conv2d_uses_im2col, conv2d_with,
    conv_mode, im2col, im2col_transposed_into, set_conv_mode, Conv2dParams, ConvClass, ConvMode,
};
pub use elementwise::{add, mul, scale, sub};
pub use matmul::{
    matmul, matmul_acc_with, matmul_scalar, matmul_with, matvec, matvec_scalar, matvec_with,
};
pub use norm::{group_norm, group_norm_into, layer_norm, layer_norm_into};
pub use pool::{avg_pool2d, avg_pool2d_into, global_avg_pool};
