//! Residual wrapper: `y = x + F(x)`.
//!
//! Used both by the "mini-ResNet" task models and by RPoL's AMLayer, which
//! the paper constructs as a residual block whose inner map is constrained
//! to Lipschitz constant `c < 1` so the whole layer is an invertible 1-1
//! mapping (Behrmann et al., "Invertible residual networks").

use crate::layer::{Layer, Param};
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::Tensor;

/// A residual block wrapping an inner layer: `y = x + inner(x)`.
///
/// The inner layer must preserve the input shape.
///
/// # Examples
///
/// ```
/// use rpol_nn::prelude::*;
/// use rpol_tensor::{rng::Pcg32, scratch::ScratchArena, Tensor};
///
/// let mut rng = Pcg32::seed_from(0);
/// let mut block = Residual::new(Box::new(Conv2d::new(4, 4, 3, 1, &mut rng)));
/// let x = Tensor::ones(&[1, 4, 6, 6]);
/// let y = block.forward(&x, false, &mut ScratchArena::new());
/// assert_eq!(y.shape(), x.shape());
/// ```
pub struct Residual {
    inner: Box<dyn Layer>,
}

impl Residual {
    /// Wraps an inner layer.
    pub fn new(inner: Box<dyn Layer>) -> Self {
        Self { inner }
    }

    /// Access to the wrapped layer.
    pub fn inner(&self) -> &dyn Layer {
        self.inner.as_ref()
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Residual({} params)", self.param_count())
    }
}

impl Layer for Residual {
    /// `F(x) + x`, summed into the inner layer's output.
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        let mut y = self.inner.forward(input, train, arena);
        assert_eq!(
            y.shape(),
            input.shape(),
            "residual inner layer must preserve shape"
        );
        y += input;
        y
    }

    /// `dF + g`, summed into the inner layer's input gradient.
    fn backward(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        let mut dx = self.inner.backward(grad_out, arena);
        dx += grad_out;
        dx
    }

    fn release(&mut self, arena: &mut ScratchArena) {
        self.inner.release(arena);
    }

    fn held_bytes(&self) -> usize {
        self.inner.held_bytes()
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.inner.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::Conv2d;
    use crate::dense::Dense;
    use rpol_tensor::rng::Pcg32;

    #[test]
    fn identity_plus_zero_inner_is_identity() {
        let mut arena = ScratchArena::new();
        // Dense initialized with zero weight/bias: F(x) = 0, y = x.
        let weight = Tensor::zeros(&[4, 4]);
        let bias = Tensor::zeros(&[4]);
        let mut block = Residual::new(Box::new(Dense::from_parts(weight, bias)));
        let x = Tensor::from_vec(&[2, 4], (0..8).map(|i| i as f32).collect());
        assert_eq!(block.forward(&x, false, &mut arena), x);
    }

    #[test]
    fn gradient_flows_through_skip() {
        let mut arena = ScratchArena::new();
        let weight = Tensor::zeros(&[2, 2]);
        let bias = Tensor::zeros(&[2]);
        let mut block = Residual::new(Box::new(Dense::from_parts(weight, bias)));
        let x = Tensor::ones(&[1, 2]);
        block.forward(&x, true, &mut arena);
        let g = Tensor::from_vec(&[1, 2], vec![3.0, 5.0]);
        let dx = block.backward(&g, &mut arena);
        // With zero inner weights the skip path passes gradients verbatim.
        assert_eq!(dx.data(), &[3.0, 5.0]);
    }

    #[test]
    fn conv_residual_gradient_check() {
        let mut arena = ScratchArena::new();
        let mut rng = Pcg32::seed_from(3);
        let mut block = Residual::new(Box::new(Conv2d::new(2, 2, 3, 1, &mut rng)));
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let y = block.forward(&x, true, &mut arena);
        let grad_out = y.map(|v| 2.0 * v);
        block.zero_grads();
        let dx = block.backward(&grad_out, &mut arena);

        let eps = 1e-2f32;
        for idx in [0usize, 10, 20] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp: f32 = block
                .forward(&xp, false, &mut arena)
                .data()
                .iter()
                .map(|v| v * v)
                .sum();
            let lm: f32 = block
                .forward(&xm, false, &mut arena)
                .data()
                .iter()
                .map(|v| v * v)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let got = dx.data()[idx];
            assert!(
                (numeric - got).abs() < 0.05 * numeric.abs().max(1.0),
                "dx[{idx}]: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "preserve shape")]
    fn shape_changing_inner_rejected() {
        let mut arena = ScratchArena::new();
        let mut rng = Pcg32::seed_from(0);
        let mut block = Residual::new(Box::new(Dense::new(4, 3, &mut rng)));
        block.forward(&Tensor::ones(&[1, 4]), false, &mut arena);
    }
}
