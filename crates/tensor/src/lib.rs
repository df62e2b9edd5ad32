//! Minimal deterministic tensor substrate for the Ditto reproduction.
//!
//! This crate implements everything the diffusion framework and the Ditto
//! algorithm need from a tensor library, from scratch:
//!
//! * [`Shape`] — N-dimensional shapes with row-major stride math.
//! * [`Tensor`] — a dense, row-major `f32` tensor with constructors,
//!   element-wise combinators and views.
//! * [`rng::Rng`] — a seeded, dependency-free pseudo-random generator
//!   (SplitMix64) with uniform and Gaussian sampling, so every experiment in
//!   the repository is exactly reproducible.
//! * [`ops`] — the layer kernels used by denoising models: matrix
//!   multiplication, 2-D convolution (lowered onto the matmul, with the
//!   sliding-window loop kept as the reference), normalization
//!   (group / layer), activations (SiLU, GeLU, softmax), pooling and
//!   element-wise arithmetic.
//! * [`backend`] — the kernel-backend value ([`KernelBackend`]: scalar,
//!   or explicit SIMD at one level) every hot kernel is handed; all
//!   backends are bit-identical, so the choice (`DITTO_KERNEL_BACKEND`,
//!   else runtime CPU detection, once per process) is purely a
//!   performance one.
//! * [`stats`] — the statistics the paper's analyses are built on: value
//!   ranges, cosine similarity, means and variances.
//!
//! # Example
//!
//! ```
//! use tensor::{Tensor, ops};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = ops::matmul(&a, &b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok::<(), tensor::TensorError>(())
//! ```

pub mod backend;
pub mod error;
pub mod ops;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use backend::KernelBackend;
pub use error::TensorError;
pub use rng::Rng;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
