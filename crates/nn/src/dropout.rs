//! Seeded, deterministic dropout.
//!
//! RPoL's replay verification requires every training-time source of
//! randomness to be reproducible by the verifier, so this dropout draws
//! its masks from a seeded PCG stream that the protocol can reset — the
//! same discipline as the PRF-deterministic batch selection of §V-B.

use crate::layer::{copy_of, drop_kept, kept_bytes, Layer, Param};
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::Tensor;

/// Inverted dropout with a deterministic, reseedable mask stream.
///
/// During training each activation is dropped with probability `p` and
/// survivors are scaled by `1/(1-p)`; inference passes inputs through
/// untouched.
///
/// # Examples
///
/// ```
/// use rpol_nn::dropout::Dropout;
/// use rpol_nn::layer::Layer;
/// use rpol_tensor::{scratch::ScratchArena, Tensor};
///
/// let mut layer = Dropout::new(0.5, 42);
/// let x = Tensor::ones(&[1, 100]);
/// let inference = layer.forward(&x, false, &mut ScratchArena::new());
/// assert_eq!(inference, x); // identity at inference time
/// ```
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    seed: u64,
    rng: Pcg32,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1), got {p}"
        );
        Self {
            p,
            seed,
            rng: Pcg32::seed_from(seed),
            mask: None,
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }

    /// Draws the next mask, shaped like `like`, into the empty `buf`.
    fn draw_mask(&mut self, like: &Tensor, mut buf: Vec<f32>) -> Tensor {
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        buf.extend((0..like.len()).map(|_| {
            if self.rng.next_f32() < keep {
                scale
            } else {
                0.0
            }
        }));
        Tensor::from_vec(like.shape().dims(), buf)
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        self.forward_owned(copy_of(input, arena), train, arena)
    }

    /// Masks `input` in place: the output is the input's own buffer.
    fn forward_owned(
        &mut self,
        mut input: Tensor,
        train: bool,
        arena: &mut ScratchArena,
    ) -> Tensor {
        if !train || self.p == 0.0 {
            return input;
        }
        drop_kept(&mut self.mask, arena);
        let mask = self.draw_mask(&input, arena.take_empty(input.len()));
        for (x, &m) in input.data_mut().iter_mut().zip(mask.data()) {
            *x *= m;
        }
        self.mask = Some(mask);
        input
    }

    fn release(&mut self, arena: &mut ScratchArena) {
        drop_kept(&mut self.mask, arena);
    }

    fn held_bytes(&self) -> usize {
        kept_bytes(&self.mask)
    }

    fn backward(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("backward before forward on Dropout");
        let mut dx = copy_of(grad_out, arena);
        for (d, &m) in dx.data_mut().iter_mut().zip(mask.data()) {
            *d *= m;
        }
        dx
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn reseed(&mut self, seed: u64) {
        // Combine with the construction seed so two dropout layers in one
        // model draw distinct masks even under the same protocol seed.
        self.rng = Pcg32::seed_from(self.seed ^ seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let mut arena = ScratchArena::new();
        let mut d = Dropout::new(0.7, 1);
        let x = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(d.forward(&x, false, &mut arena), x);
    }

    #[test]
    fn training_drops_and_rescales() {
        let mut arena = ScratchArena::new();
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::ones(&[1, 10_000]);
        let y = d.forward(&x, true, &mut arena);
        let dropped = y.data().iter().filter(|&&v| v == 0.0).count();
        // Roughly half dropped.
        assert!((4_500..5_500).contains(&dropped), "dropped {dropped}");
        // Survivors scaled by 2 so the expectation is preserved.
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    /// The protocol resets the mask stream by reseeding: the verifier
    /// reseeds before replaying a segment so masks line up with the
    /// worker's.
    #[test]
    fn stream_reset_reproduces_masks() {
        let mut arena = ScratchArena::new();
        let mut d = Dropout::new(0.3, 7);
        let x = Tensor::ones(&[1, 64]);
        d.reseed(11);
        let y1 = d.forward(&x, true, &mut arena);
        let y2 = d.forward(&x, true, &mut arena);
        assert_ne!(y1, y2, "stream should advance");
        d.reseed(11);
        let y1_again = d.forward(&x, true, &mut arena);
        assert_eq!(y1, y1_again, "reseeding must replay the same masks");
    }

    #[test]
    fn backward_masks_gradients() {
        let mut arena = ScratchArena::new();
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[1, 32]);
        let y = d.forward(&x, true, &mut arena);
        let g = Tensor::ones(&[1, 32]);
        let dx = d.backward(&g, &mut arena);
        for (yv, dv) in y.data().iter().zip(dx.data()) {
            assert_eq!(*yv == 0.0, *dv == 0.0, "gradient must follow the mask");
        }
    }

    #[test]
    fn zero_probability_is_identity_even_in_training() {
        let mut arena = ScratchArena::new();
        let mut d = Dropout::new(0.0, 4);
        let x = Tensor::ones(&[2, 8]);
        assert_eq!(d.forward(&x, true, &mut arena), x);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn invalid_probability_rejected() {
        Dropout::new(1.0, 0);
    }
}
