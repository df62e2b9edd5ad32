//! Integer quantization stack for the Ditto reproduction.
//!
//! The paper evaluates Ditto on A8W8 (8-bit activation, 8-bit weight)
//! quantized diffusion models (§VI-A). This crate provides:
//!
//! * [`QTensor`] — a symmetric, per-tensor quantized `i8` tensor with an
//!   `f32` scale, plus exact dequantization.
//! * [`quantizer`] — dynamic (per-call abs-max) quantization for the
//!   diffusion transformers, and Q-Diffusion-style calibrated static
//!   quantization with time-step clustering for the UNet models.
//! * [`calib`] — the offline calibration pass that records per-layer,
//!   per-time-step value ranges and clusters time steps by range.
//! * [`bitwidth`] — the bit-width requirement classifier of §III-B
//!   (zero / ≤4-bit / 8-bit / over-8-bit temporal differences).
//! * [`bops`] — Bit Operations accounting (Fig. 5 / Fig. 6).
//! * [`encode`](mod@encode) — the Encoding Unit's fused pass: the three
//!   histograms and the kernel's `i16` operand in one branchless sweep.
//! * [`kernels`] — exact integer matmul / delta-matmul kernels with `i32`
//!   accumulation, used to prove numerical equivalence of difference
//!   processing.
//!
//! # Example
//!
//! ```
//! use tensor::Tensor;
//! use quant::QTensor;
//!
//! let x = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[3])?;
//! let q = QTensor::quantize_dynamic(&x);
//! let back = q.dequantize();
//! // Quantization error is bounded by half a step.
//! for (a, b) in x.as_slice().iter().zip(back.as_slice()) {
//!     assert!((a - b).abs() <= q.scale() * 0.5 + 1e-6);
//! }
//! # Ok::<(), tensor::TensorError>(())
//! ```

pub mod bitwidth;
pub mod bops;
pub mod calib;
pub mod encode;
pub mod kernels;
pub mod qtensor;
pub mod quantizer;

pub use bitwidth::{BitWidthClass, BitWidthHistogram};
pub use bops::BopsModel;
pub use calib::{CalibrationTable, Calibrator};
pub use encode::{encode, Emit, Encoded};
pub use qtensor::{quantize_into, QTensor};
pub use quantizer::{QuantMode, Quantizer};
