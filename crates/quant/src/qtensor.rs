//! Symmetric per-tensor `i8` quantized tensors.

use tensor::{stats, Shape, Tensor};

/// Number of positive quantization levels for signed 8-bit symmetric
/// quantization (`[-127, 127]`; -128 is unused to keep the grid symmetric).
pub const QMAX: i32 = 127;

/// Largest `f32` below one half. `round(t)` — halves away from zero — is
/// `trunc(t + copysign(HALF_BELOW, t))` for every `f32` (adding exactly one
/// half would carry `0.49999997` up to `1.0`); the truncation is then a
/// plain float-to-int conversion.
const HALF_BELOW: f32 = 0.499_999_97;

/// Quantizes a slice onto the grid `scale` into a caller-owned buffer: the
/// slice-level form of [`QTensor::quantize_with_scale`], with the same
/// result for every input — `round(v / scale)` with halves away from zero,
/// saturated to `±QMAX`, NaN to 0 — but no call into `roundf` per element.
///
/// # Panics
///
/// Panics if `scale` is not finite and positive.
pub fn quantize_into(src: &[f32], scale: f32, out: &mut Vec<i8>) {
    assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
    let inv = 1.0 / scale;
    out.clear();
    out.extend(src.iter().map(|&v| {
        let t = v * inv;
        // Truncation is monotone and fixes ±QMAX, so clamping first
        // saturates exactly as clamping the rounded value does.
        (t + HALF_BELOW.copysign(t)).clamp(-(QMAX as f32), QMAX as f32) as i32 as i8
    }));
}

/// A symmetric, per-tensor quantized `i8` tensor.
///
/// `value ≈ data[i] * scale`. The scale maps the tensor's absolute maximum
/// to [`QMAX`], the standard symmetric scheme the paper's "simple dynamic
/// quantization with 8-bit activation and weight" uses (§III-B).
///
/// # Example
///
/// ```
/// use tensor::Tensor;
/// use quant::QTensor;
///
/// let x = Tensor::from_vec(vec![1.0, -2.0, 0.0], &[3])?;
/// let q = QTensor::quantize_dynamic(&x);
/// assert_eq!(q.data()[1], -127); // abs-max maps to -127
/// assert_eq!(q.data()[2], 0);
/// # Ok::<(), tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    shape: Shape,
    data: Vec<i8>,
    scale: f32,
}

impl QTensor {
    /// Quantizes `x` with a scale derived from its own absolute maximum
    /// (dynamic quantization). An all-zero tensor gets scale 1.0.
    pub fn quantize_dynamic(x: &Tensor) -> Self {
        let amax = stats::abs_max(x.as_slice());
        let scale = if amax == 0.0 { 1.0 } else { amax / QMAX as f32 };
        Self::quantize_with_scale(x, scale)
    }

    /// Quantizes `x` with an externally calibrated `scale`
    /// (static quantization). Values beyond `scale * QMAX` saturate.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn quantize_with_scale(x: &Tensor, scale: f32) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        let inv = 1.0 / scale;
        let data = x
            .as_slice()
            .iter()
            .map(|&v| {
                let q = (v * inv).round();
                q.clamp(-(QMAX as f32), QMAX as f32) as i8
            })
            .collect();
        QTensor { shape: x.shape().clone(), data, scale }
    }

    /// Builds a quantized tensor directly from integer data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    pub fn from_parts(data: Vec<i8>, dims: &[usize], scale: f32) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(data.len(), shape.volume(), "data length must match shape");
        QTensor { shape, data, scale }
    }

    /// The quantization scale (`f32` value represented by one level).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The quantized levels, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Exact dequantization back to `f32`.
    pub fn dequantize(&self) -> Tensor {
        let data = self.data.iter().map(|&q| q as f32 * self.scale).collect();
        Tensor::from_vec(data, self.shape.dims()).expect("shape invariant")
    }

    /// Re-quantizes this tensor onto a different scale grid.
    ///
    /// The Ditto Encoding Unit subtracts the previous step's activation from
    /// the current step's; for the subtraction to be meaningful both
    /// operands must share a scale, so the previous tensor is re-quantized
    /// onto the current scale first (exact in f32, then rounded).
    pub fn requantize(&self, scale: f32) -> QTensor {
        if scale == self.scale {
            return self.clone();
        }
        QTensor::quantize_with_scale(&self.dequantize(), scale)
    }

    /// Element-wise integer difference `self - prev`, producing `i16` values
    /// (two i8 operands can differ by up to 254 levels).
    ///
    /// # Panics
    ///
    /// Panics if shapes or scales differ — callers must [`requantize`]
    /// first. Scale agreement is what makes the difference exact.
    ///
    /// [`requantize`]: QTensor::requantize
    pub fn temporal_delta(&self, prev: &QTensor) -> Vec<i16> {
        assert_eq!(self.shape, prev.shape, "delta requires equal shapes");
        assert!(
            (self.scale - prev.scale).abs() <= f32::EPSILON * self.scale.abs(),
            "delta requires equal scales; requantize first"
        );
        self.data.iter().zip(&prev.data).map(|(&a, &b)| a as i16 - b as i16).collect()
    }

    /// Row-wise spatial differences along axis 0 of a rank-2 view:
    /// row 0 is kept verbatim ("base row"), row `r>0` becomes
    /// `row_r − row_{r−1}`. This is the Diffy-style spatial difference the
    /// paper extends to FC and attention layers (§III-B).
    ///
    /// Returns `(base_row, deltas)` where `deltas` covers rows `1..`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn spatial_delta_rows(&self) -> (Vec<i8>, Vec<i16>) {
        assert_eq!(self.shape.rank(), 2, "spatial deltas need a rank-2 tensor");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        let base = self.data[..cols].to_vec();
        let mut deltas = Vec::with_capacity(cols * rows.saturating_sub(1));
        for r in 1..rows {
            for c in 0..cols {
                deltas.push(self.data[r * cols + c] as i16 - self.data[(r - 1) * cols + c] as i16);
            }
        }
        (base, deltas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_quant_maps_absmax_to_qmax() {
        let x = Tensor::from_vec(vec![2.0, -4.0, 1.0], &[3]).unwrap();
        let q = QTensor::quantize_dynamic(&x);
        assert_eq!(q.data(), &[64, -127, 32]);
        assert!((q.scale() - 4.0 / 127.0).abs() < 1e-7);
    }

    #[test]
    fn zero_tensor_quantizes_cleanly() {
        let q = QTensor::quantize_dynamic(&Tensor::zeros(&[4]));
        assert!(q.data().iter().all(|&v| v == 0));
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn dequantize_error_bounded() {
        let x = Tensor::from_vec(vec![0.3, -1.7, 0.9, 1.701], &[4]).unwrap();
        let q = QTensor::quantize_dynamic(&x);
        let y = q.dequantize();
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() <= q.scale() * 0.5 + 1e-6);
        }
    }

    #[test]
    fn static_scale_saturates() {
        let x = Tensor::from_vec(vec![100.0, -100.0], &[2]).unwrap();
        let q = QTensor::quantize_with_scale(&x, 0.5);
        assert_eq!(q.data(), &[127, -127]);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn bad_scale_panics() {
        QTensor::quantize_with_scale(&Tensor::zeros(&[1]), 0.0);
    }

    #[test]
    fn requantize_roundtrip_same_scale_is_identity() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let q = QTensor::quantize_dynamic(&x);
        let r = q.requantize(q.scale());
        assert_eq!(q, r);
    }

    #[test]
    fn requantize_changes_grid() {
        let x = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let q = QTensor::quantize_with_scale(&x, 1.0 / 127.0);
        let r = q.requantize(2.0 / 127.0);
        assert_eq!(r.data(), &[64, -64]);
    }

    #[test]
    fn temporal_delta_exact() {
        let a = QTensor::from_parts(vec![10, -20, 127], &[3], 0.1);
        let b = QTensor::from_parts(vec![12, -20, -127], &[3], 0.1);
        let d = a.temporal_delta(&b);
        assert_eq!(d, vec![-2, 0, 254]);
    }

    #[test]
    #[should_panic(expected = "equal scales")]
    fn temporal_delta_scale_mismatch_panics() {
        let a = QTensor::from_parts(vec![0], &[1], 0.1);
        let b = QTensor::from_parts(vec![0], &[1], 0.2);
        a.temporal_delta(&b);
    }

    #[test]
    fn spatial_delta_rows_reconstructs() {
        let q = QTensor::from_parts(vec![1, 2, 3, 5, 3, 1], &[3, 2], 1.0);
        let (base, deltas) = q.spatial_delta_rows();
        assert_eq!(base, vec![1, 2]);
        assert_eq!(deltas, vec![2, 3, 0, -4]);
        // Reconstruct row 2: base + d1 + d2.
        assert_eq!(base[0] as i16 + deltas[0] + deltas[2], 3);
        assert_eq!(base[1] as i16 + deltas[1] + deltas[3], 1);
    }

    #[test]
    fn spatial_delta_single_row() {
        let q = QTensor::from_parts(vec![7, 8], &[1, 2], 1.0);
        let (base, deltas) = q.spatial_delta_rows();
        assert_eq!(base, vec![7, 8]);
        assert!(deltas.is_empty());
    }
}
