//! Sinusoidal time-step embeddings.

use tensor::Tensor;

/// Highest sinusoid frequency of the embedding.
///
/// Reference implementations use 1.0, but a *trained* denoiser learns to
/// respond smoothly to the time step — that smoothness is precisely the
/// §II-B phenomenon. A random-weight model weights every embedding
/// dimension equally, so we band-limit the embedding instead: with DDIM
/// sub-sampling strides of 4–50 training steps, the fastest component
/// advances well under a radian per sampler step, keeping the conditioning
/// as smooth across adjacent steps as a trained model's (see
/// [`crate::metrics`] for why untrained surrogates stand in).
pub const MAX_FREQ: f32 = 0.02;

/// Sinusoidal embedding of a (possibly fractional) diffusion time step into
/// a `[1, dim]` tensor — the standard DDPM/transformer position encoding,
/// band-limited by [`MAX_FREQ`].
///
/// Even indices carry `sin`, odd indices `cos`, with frequencies spaced
/// geometrically over `max_period` (10 000 as in the reference
/// implementations).
///
/// # Panics
///
/// Panics if `dim` is zero or odd.
pub fn timestep_embedding(t: f32, dim: usize) -> Tensor {
    assert!(dim > 0 && dim.is_multiple_of(2), "embedding dim must be positive and even");
    let mut data = vec![0.0f32; dim];
    timestep_embedding_into(t, dim, &mut data);
    Tensor::from_vec(data, &[1, dim]).expect("length matches dim")
}

/// Slice core of [`timestep_embedding`], writing all `dim` elements of
/// `out` in place (for arena executors that own the output buffer).
///
/// # Panics
///
/// Panics if `dim` is zero or odd, or `out.len() != dim`.
pub fn timestep_embedding_into(t: f32, dim: usize, out: &mut [f32]) {
    assert!(dim > 0 && dim.is_multiple_of(2), "embedding dim must be positive and even");
    assert_eq!(out.len(), dim, "embedding output length");
    let half = dim / 2;
    let max_period: f32 = 10_000.0;
    for i in 0..half {
        let freq = MAX_FREQ * (-(max_period.ln()) * i as f32 / half as f32).exp();
        out[2 * i] = (t * freq).sin();
        out[2 * i + 1] = (t * freq).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_bounds() {
        let e = timestep_embedding(10.0, 8);
        assert_eq!(e.dims(), &[1, 8]);
        assert!(e.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn zero_step_is_cosine_one() {
        let e = timestep_embedding(0.0, 4);
        assert_eq!(e.as_slice()[0], 0.0); // sin(0)
        assert_eq!(e.as_slice()[1], 1.0); // cos(0)
    }

    #[test]
    fn adjacent_steps_are_similar_distant_steps_differ() {
        // The similarity seed of the whole paper: near time steps embed to
        // near vectors, even at DDIM sub-sampling strides.
        let a = timestep_embedding(500.0, 64);
        let b = timestep_embedding(490.0, 64); // a 100-step DDIM stride
        let far = timestep_embedding(10.0, 64);
        let sim_near = tensor::stats::tensor_cosine(&a, &b);
        let sim_far = tensor::stats::tensor_cosine(&a, &far);
        assert!(sim_near > 0.95, "near similarity {sim_near}");
        assert!(sim_far < sim_near);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_dim_panics() {
        timestep_embedding(1.0, 3);
    }
}
