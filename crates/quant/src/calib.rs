//! Offline calibration with time-step clustering (Q-Diffusion-style).
//!
//! §II / §VI-A: because activation ranges drift across the reverse process,
//! a single static scale is inaccurate. Q-Diffusion and PTQ-D therefore
//! calibrate *per time-step cluster*: steps with similar value ranges share
//! a scaling factor. [`Calibrator`] records per-(layer, step) absolute
//! maxima during a calibration run; [`Calibrator::finish`] clusters each
//! layer's steps into contiguous range-homogeneous clusters and emits a
//! [`CalibrationTable`].

use crate::qtensor::QMAX;
use std::collections::HashMap;

/// Records per-layer, per-step absolute maxima during calibration runs.
#[derive(Debug, Clone)]
pub struct Calibrator {
    steps: usize,
    /// `(layer, step) → abs-max` over all observed tensors.
    absmax: HashMap<(usize, usize), f32>,
}

impl Calibrator {
    /// Creates a calibrator for a schedule with `steps` time steps.
    pub fn new(steps: usize) -> Self {
        Calibrator { steps, absmax: HashMap::new() }
    }

    /// Observes one activation tensor's absolute maximum for `layer` at
    /// time-step index `step`. Repeated observations keep the running max.
    pub fn observe(&mut self, layer: usize, step: usize, abs_max: f32) {
        let e = self.absmax.entry((layer, step)).or_insert(0.0);
        if abs_max > *e {
            *e = abs_max;
        }
    }

    /// Number of time steps this calibrator covers.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// TDQ-style finish: one scale *per observed time step* (the "temporal
    /// dynamic quantization" of So et al., which the paper cites as
    /// synergistic with Ditto). Maximal range fidelity, but every step is
    /// its own grid — temporal difference processing must re-quantize the
    /// previous step's tensor at every boundary (see the quantization
    /// ablation bench).
    pub fn finish_per_step(self) -> CalibrationTable {
        let steps = self.steps;
        let mut layers: HashMap<usize, Vec<(usize, f32)>> = HashMap::new();
        for (&(layer, step), &amax) in &self.absmax {
            layers
                .entry(layer)
                .or_default()
                .push((step, amax.max(f32::MIN_POSITIVE) / QMAX as f32));
        }
        let mut table = HashMap::new();
        for (layer, mut obs) in layers {
            obs.sort_by_key(|&(s, _)| s);
            table.insert(layer, obs);
        }
        CalibrationTable { steps, table }
    }

    /// Clusters each layer's time steps into at most `clusters` contiguous
    /// clusters and derives one symmetric scale per cluster.
    ///
    /// Clustering is a 1-D segmented grouping on the abs-max curve: steps
    /// are scanned in order and a new cluster starts whenever the running
    /// cluster's max/min abs-max ratio would exceed 1.5× (value-range based
    /// clustering as in Q-Diffusion), capped at `clusters` segments.
    pub fn finish(self, clusters: usize) -> CalibrationTable {
        let clusters = clusters.max(1);
        let mut layers: HashMap<usize, Vec<(usize, f32)>> = HashMap::new();
        for (&(layer, step), &amax) in &self.absmax {
            layers.entry(layer).or_default().push((step, amax));
        }
        let mut table = HashMap::new();
        for (layer, mut obs) in layers {
            obs.sort_by_key(|&(s, _)| s);
            let mut scales: Vec<(usize, f32)> = Vec::new(); // (first_step, scale)
            let mut seg_start = 0usize;
            let mut seg_min = f32::INFINITY;
            let mut seg_max: f32 = 0.0;
            let mut segments_used = 1usize;
            for (i, &(_, amax)) in obs.iter().enumerate() {
                let cand_min = seg_min.min(amax.max(f32::MIN_POSITIVE));
                let cand_max = seg_max.max(amax);
                let over_ratio = cand_max / cand_min > 1.5;
                if i > seg_start && over_ratio && segments_used < clusters {
                    // Close the running segment.
                    let scale = seg_max.max(f32::MIN_POSITIVE) / QMAX as f32;
                    scales.push((obs[seg_start].0, scale));
                    seg_start = i;
                    seg_min = amax.max(f32::MIN_POSITIVE);
                    seg_max = amax;
                    segments_used += 1;
                } else {
                    seg_min = cand_min;
                    seg_max = cand_max;
                }
            }
            if seg_start < obs.len() {
                let scale = seg_max.max(f32::MIN_POSITIVE) / QMAX as f32;
                scales.push((obs[seg_start].0, scale));
            }
            table.insert(layer, scales);
        }
        CalibrationTable { steps: self.steps, table }
    }
}

/// Calibrated scales, keyed by layer and resolved by time-step cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CalibrationTable {
    steps: usize,
    /// Per layer: sorted `(first_step_of_cluster, scale)` segments.
    table: HashMap<usize, Vec<(usize, f32)>>,
}

impl CalibrationTable {
    /// Scale for `layer` at `step`, or `None` if the layer was never
    /// calibrated.
    pub fn scale_for(&self, layer: usize, step: usize) -> Option<f32> {
        let segs = self.table.get(&layer)?;
        let mut scale = segs.first()?.1;
        for &(first, s) in segs {
            if step >= first {
                scale = s;
            } else {
                break;
            }
        }
        Some(scale)
    }

    /// Number of clusters a layer's schedule was split into.
    pub fn cluster_count(&self, layer: usize) -> usize {
        self.table.get(&layer).map_or(0, Vec::len)
    }

    /// Number of time steps covered.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Number of calibrated layers.
    pub fn layer_count(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cluster_uses_global_max() {
        let mut c = Calibrator::new(4);
        for step in 0..4 {
            c.observe(0, step, 1.0 + step as f32);
        }
        let t = c.finish(1);
        assert_eq!(t.cluster_count(0), 1);
        let s = t.scale_for(0, 0).unwrap();
        assert!((s - 4.0 / QMAX as f32).abs() < 1e-7);
    }

    #[test]
    fn range_drift_splits_clusters() {
        let mut c = Calibrator::new(8);
        // First half small range, second half 10x larger.
        for step in 0..4 {
            c.observe(0, step, 1.0);
        }
        for step in 4..8 {
            c.observe(0, step, 10.0);
        }
        let t = c.finish(4);
        assert!(t.cluster_count(0) >= 2, "expected a split, got {}", t.cluster_count(0));
        let early = t.scale_for(0, 0).unwrap();
        let late = t.scale_for(0, 7).unwrap();
        assert!(late > early * 5.0, "late scale should track the larger range");
    }

    #[test]
    fn cluster_cap_respected() {
        let mut c = Calibrator::new(16);
        for step in 0..16 {
            c.observe(0, step, (step as f32 + 1.0).powi(2));
        }
        let t = c.finish(3);
        assert!(t.cluster_count(0) <= 3);
    }

    #[test]
    fn unknown_layer_is_none() {
        let c = Calibrator::new(2);
        let t = c.finish(2);
        assert!(t.scale_for(0, 0).is_none());
        assert_eq!(t.layer_count(), 0);
    }

    #[test]
    fn repeated_observe_keeps_max() {
        let mut c = Calibrator::new(1);
        c.observe(0, 0, 1.0);
        c.observe(0, 0, 3.0);
        c.observe(0, 0, 2.0);
        let t = c.finish(1);
        assert!((t.scale_for(0, 0).unwrap() - 3.0 / QMAX as f32).abs() < 1e-7);
    }

    #[test]
    fn per_step_table_tracks_every_step() {
        let mut c = Calibrator::new(4);
        for step in 0..4 {
            c.observe(0, step, 1.0 + step as f32);
        }
        let t = c.finish_per_step();
        assert_eq!(t.cluster_count(0), 4);
        for step in 0..4 {
            let s = t.scale_for(0, step).unwrap();
            assert!((s - (1.0 + step as f32) / QMAX as f32).abs() < 1e-7, "step {step}");
        }
    }

    #[test]
    fn steps_metadata_preserved() {
        let c = Calibrator::new(50);
        assert_eq!(c.steps(), 50);
        assert_eq!(c.finish(2).steps(), 50);
    }
}
