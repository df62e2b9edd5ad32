//! Proxy generation-quality metrics for Table II.
//!
//! The paper reports FID, Inception Score and CLIP Score against real
//! datasets. Without pretrained Inception/CLIP networks, this module keeps
//! Table II's *relative* claim measurable — "Ditto preserves the FP32
//! model's quality" — with three proxies computed on the same generated
//! tensors:
//!
//! * [`pseudo_fid`] — Fréchet distance between diagonal-Gaussian fits of
//!   random-projection features of two sample sets (identical in form to
//!   FID, with a fixed seeded projection standing in for Inception-v3).
//! * [`pseudo_is`] — an entropy-based Inception-Score analogue over the
//!   random-projection soft-max "logits".
//! * [`pseudo_clip_score`] — cosine alignment between generated features
//!   and a conditioning embedding projected into the same space.
//!
//! # The substitution
//!
//! The seven benchmark models are seeded, untrained surrogates at reduced
//! dimensions: the same layer graphs, samplers and step counts as the
//! paper's models, without their trained weights. Two choices keep their
//! step-to-step dynamics like a trained model's, which is what every
//! temporal-difference statistic depends on: a band-limited timestep
//! embedding ([`crate::embed::MAX_FREQ`]) and a residual noise prediction
//! `ε̂ = x + γ·net(x, t)` (see [`crate::models`]). Absolute FID / IS / CLIP
//! values of such models mean nothing; what stays comparable is the
//! *relative* degradation, so Table II reports the FP32-vs-Ditto distance
//! beside the FP32-vs-FP32-reseed floor, and Ditto preserves quality when
//! the first sits at or below the second.

use tensor::{stats, Rng, Tensor};

/// Dimension of the random-projection feature space.
pub const FEATURE_DIM: usize = 16;

/// Projects a sample into [`FEATURE_DIM`] features with a fixed seeded
/// Gaussian projection followed by `tanh` (a stand-in feature extractor —
/// the same projection is used for both operands of every comparison).
pub fn features(sample: &Tensor, proj_seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from(proj_seed);
    let n = sample.len();
    let mut out = Vec::with_capacity(FEATURE_DIM);
    for _ in 0..FEATURE_DIM {
        let mut acc = 0.0f32;
        for &v in sample.as_slice() {
            acc += v * rng.next_normal();
        }
        out.push((acc / (n as f32).sqrt()).tanh());
    }
    out
}

/// Fréchet distance between diagonal-Gaussian feature statistics of two
/// sample sets: `‖μ₁−μ₂‖² + Σᵢ (σ₁ᵢ + σ₂ᵢ − 2·√(σ₁ᵢσ₂ᵢ))`.
///
/// Lower is better; 0 for identical sets.
///
/// # Panics
///
/// Panics if either set is empty.
pub fn pseudo_fid(set_a: &[Tensor], set_b: &[Tensor], proj_seed: u64) -> f64 {
    assert!(!set_a.is_empty() && !set_b.is_empty(), "need samples");
    let fa: Vec<Vec<f32>> = set_a.iter().map(|s| features(s, proj_seed)).collect();
    let fb: Vec<Vec<f32>> = set_b.iter().map(|s| features(s, proj_seed)).collect();
    let (mu_a, var_a) = moments(&fa);
    let (mu_b, var_b) = moments(&fb);
    let mut d = 0.0f64;
    for i in 0..FEATURE_DIM {
        let dm = (mu_a[i] - mu_b[i]) as f64;
        d += dm * dm;
        let (sa, sb) = (var_a[i].max(0.0) as f64, var_b[i].max(0.0) as f64);
        d += sa + sb - 2.0 * (sa * sb).sqrt();
    }
    d
}

/// Inception-Score analogue: `exp(E[KL(p(y|x) ‖ p(y))])` where `p(y|x)` is
/// the softmax of a sample's features. Higher is better (max
/// [`FEATURE_DIM`]).
///
/// # Panics
///
/// Panics if `set` is empty.
pub fn pseudo_is(set: &[Tensor], proj_seed: u64) -> f64 {
    assert!(!set.is_empty(), "need samples");
    let probs: Vec<Vec<f64>> = set.iter().map(|s| softmax64(&features(s, proj_seed))).collect();
    let mut marginal = vec![0.0f64; FEATURE_DIM];
    for p in &probs {
        for i in 0..FEATURE_DIM {
            marginal[i] += p[i];
        }
    }
    for m in &mut marginal {
        *m /= probs.len() as f64;
    }
    let mut kl_sum = 0.0f64;
    for p in &probs {
        for i in 0..FEATURE_DIM {
            if p[i] > 0.0 && marginal[i] > 0.0 {
                kl_sum += p[i] * (p[i] / marginal[i]).ln();
            }
        }
    }
    (kl_sum / probs.len() as f64).exp()
}

/// CLIP-score analogue: mean cosine similarity between each sample's
/// features and the conditioning embedding's features, mapped from
/// `[-1, 1]` to `[0, 1]`.
///
/// # Panics
///
/// Panics if `set` is empty.
pub fn pseudo_clip_score(set: &[Tensor], condition: &Tensor, proj_seed: u64) -> f64 {
    assert!(!set.is_empty(), "need samples");
    let cond_f = features(condition, proj_seed);
    let mean_sim: f64 = set
        .iter()
        .map(|s| stats::cosine_similarity(&features(s, proj_seed), &cond_f) as f64)
        .sum::<f64>()
        / set.len() as f64;
    (mean_sim + 1.0) / 2.0
}

fn moments(rows: &[Vec<f32>]) -> (Vec<f32>, Vec<f32>) {
    let n = rows.len() as f32;
    let mut mu = vec![0.0f32; FEATURE_DIM];
    for r in rows {
        for i in 0..FEATURE_DIM {
            mu[i] += r[i];
        }
    }
    for m in &mut mu {
        *m /= n;
    }
    let mut var = vec![0.0f32; FEATURE_DIM];
    for r in rows {
        for i in 0..FEATURE_DIM {
            let d = r[i] - mu[i];
            var[i] += d * d;
        }
    }
    for v in &mut var {
        *v /= n;
    }
    (mu, var)
}

fn softmax64(x: &[f32]) -> Vec<f64> {
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
    let exps: Vec<f64> = x.iter().map(|&v| ((v as f64) - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set(seed: u64, n: usize, shift: f32) -> Vec<Tensor> {
        let mut rng = Rng::seed_from(seed);
        (0..n).map(|_| Tensor::randn(&[32], &mut rng).map(|v| v + shift)).collect()
    }

    #[test]
    fn identical_sets_have_zero_fid() {
        let a = sample_set(1, 8, 0.0);
        let d = pseudo_fid(&a, &a, 42);
        assert!(d.abs() < 1e-9, "fid {d}");
    }

    #[test]
    fn fid_grows_with_distribution_shift() {
        let a = sample_set(1, 16, 0.0);
        let near = sample_set(2, 16, 0.1);
        let far = sample_set(3, 16, 3.0);
        let d_near = pseudo_fid(&a, &near, 42);
        let d_far = pseudo_fid(&a, &far, 42);
        assert!(d_far > d_near, "far {d_far} vs near {d_near}");
    }

    #[test]
    fn is_bounded_and_higher_for_diverse_sets() {
        let diverse = sample_set(1, 24, 0.0)
            .into_iter()
            .enumerate()
            .map(|(i, t)| t.map(|v| v * 5.0 + i as f32))
            .collect::<Vec<_>>();
        let collapsed: Vec<Tensor> = vec![Tensor::full(&[32], 0.5); 24];
        let is_div = pseudo_is(&diverse, 42);
        let is_col = pseudo_is(&collapsed, 42);
        assert!(is_div >= is_col, "diverse {is_div} vs collapsed {is_col}");
        assert!(is_col >= 1.0 - 1e-9);
        assert!(is_div <= FEATURE_DIM as f64 + 1e-9);
    }

    #[test]
    fn clip_score_highest_for_aligned_samples() {
        let cond = Tensor::full(&[32], 1.0);
        let aligned: Vec<Tensor> = vec![cond.clone(); 4];
        let s_aligned = pseudo_clip_score(&aligned, &cond, 42);
        let opposite: Vec<Tensor> = vec![cond.map(|v| -v); 4];
        let s_opp = pseudo_clip_score(&opposite, &cond, 42);
        assert!(s_aligned > 0.99);
        assert!(s_opp < 0.01);
    }

    #[test]
    fn features_deterministic_per_seed() {
        let t = sample_set(9, 1, 0.0).pop().unwrap();
        assert_eq!(features(&t, 7), features(&t, 7));
        assert_ne!(features(&t, 7), features(&t, 8));
    }
}
