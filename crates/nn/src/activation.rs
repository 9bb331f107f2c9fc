//! Elementwise activation layers.

use crate::layer::{drop_kept, keep, keep_copy, Layer, Param};
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::Tensor;

/// Maps `src` elementwise into a buffer drawn from `arena`, producing a
/// tensor of the same shape without allocating in steady state.
fn map_into_arena(src: &Tensor, arena: &mut ScratchArena, f: impl Fn(f32) -> f32) -> Tensor {
    let mut buf = arena.take_empty(src.len());
    buf.extend(src.data().iter().map(|&v| f(v)));
    Tensor::from_vec(src.shape().dims(), buf)
}

/// Zips two same-shaped tensors elementwise into an arena buffer.
fn zip_into_arena(
    a: &Tensor,
    b: &Tensor,
    arena: &mut ScratchArena,
    f: impl Fn(f32, f32) -> f32,
) -> Tensor {
    assert_eq!(a.shape().dims(), b.shape().dims(), "zip shape mismatch");
    let mut buf = arena.take_empty(a.len());
    buf.extend(a.data().iter().zip(b.data()).map(|(&x, &y)| f(x, y)));
    Tensor::from_vec(a.shape().dims(), buf)
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self { cached_input: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_input = Some(input.clone());
        }
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward before forward on Relu");
        input.zip(grad_out, |x, g| if x > 0.0 { g } else { 0.0 })
    }

    fn forward_scratch(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        keep_copy(&mut self.cached_input, input, train, arena);
        map_into_arena(input, arena, |x| x.max(0.0))
    }

    fn forward_owned(&mut self, input: Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        if train {
            drop_kept(&mut self.cached_input, arena);
        }
        let y = map_into_arena(&input, arena, |x| x.max(0.0));
        keep(&mut self.cached_input, input, train, arena);
        y
    }

    fn backward_scratch(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward before forward on Relu");
        zip_into_arena(input, grad_out, arena, |x, g| if x > 0.0 { g } else { 0.0 })
    }

    fn release(&mut self, arena: &mut ScratchArena) {
        drop_kept(&mut self.cached_input, arena);
    }

    #[cfg(test)]
    fn held(&self) -> usize {
        self.cached_input.as_ref().map_or(0, Tensor::len)
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

/// Hyperbolic tangent activation.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a Tanh layer.
    pub fn new() -> Self {
        Self {
            cached_output: None,
        }
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = input.map(|x| x.tanh());
        if train {
            self.cached_output = Some(out.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let out = self
            .cached_output
            .as_ref()
            .expect("backward before forward on Tanh");
        out.zip(grad_out, |y, g| (1.0 - y * y) * g)
    }

    fn forward_scratch(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        let out = map_into_arena(input, arena, |x| x.tanh());
        if train {
            self.cached_output = Some(out.clone());
        }
        out
    }

    fn backward_scratch(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        let out = self
            .cached_output
            .as_ref()
            .expect("backward before forward on Tanh");
        zip_into_arena(out, grad_out, arena, |y, g| (1.0 - y * y) * g)
    }

    fn release(&mut self, arena: &mut ScratchArena) {
        drop_kept(&mut self.cached_output, arena);
    }

    #[cfg(test)]
    fn held(&self) -> usize {
        self.cached_output.as_ref().map_or(0, Tensor::len)
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = Tensor::ones(&[1, 4]);
        let dx = relu.backward(&g);
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(relu.param_count(), 0);
    }

    #[test]
    fn tanh_gradient_check() {
        let mut tanh = Tanh::new();
        let x = Tensor::from_vec(&[1, 3], vec![-0.5, 0.1, 0.9]);
        let y = tanh.forward(&x, true);
        let g = Tensor::ones(&[1, 3]);
        let dx = tanh.backward(&g);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let numeric = (tanh.forward(&xp, false).data()[i] - tanh.forward(&xm, false).data()[i])
                / (2.0 * eps);
            assert!((numeric - dx.data()[i]).abs() < 1e-3);
        }
        assert!((y.data()[1] - 0.1f32.tanh()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn relu_requires_forward() {
        Relu::new().backward(&Tensor::ones(&[1, 1]));
    }
}
