//! Elementwise activation layers.

use crate::layer::{byte_slot, drop_kept, kept_bytes, Layer, Param};
use rpol_tensor::scratch::{self, ScratchArena};
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
///
/// Backward reads only the sign of the input, so a training forward keeps
/// a one-byte gate per element (`x > 0.0`) instead of a copy of it.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// `(x > 0.0) as u8` for every input of the last training forward.
    gate: Option<Vec<u8>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self { gate: None }
    }

    /// Records the gate of a training forward's `input`, in the buffer the
    /// last one used when it has room.
    fn keep_gate(&mut self, input: &Tensor) {
        let mut gate = byte_slot(self.gate.take(), input.len());
        gate.extend(input.data().iter().map(|&x| u8::from(x > 0.0)));
        self.gate = Some(gate);
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.forward_scratch(input, train, &mut ScratchArena::new())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_scratch(grad_out, &mut ScratchArena::new())
    }

    fn forward_scratch(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        if train {
            self.keep_gate(input);
        }
        map_into_arena(input, arena, |x| x.max(0.0))
    }

    /// Rectifies in place: the output is the input's own buffer.
    fn forward_owned(
        &mut self,
        mut input: Tensor,
        train: bool,
        _arena: &mut ScratchArena,
    ) -> Tensor {
        if train {
            self.keep_gate(&input);
        }
        input.map_inplace(|x| x.max(0.0));
        input
    }

    fn backward_scratch(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        let gate = self.gate.as_ref().expect("backward before forward on Relu");
        assert_eq!(gate.len(), grad_out.len(), "grad shape");
        let mut dx = arena.take_empty(grad_out.len());
        dx.extend(
            gate.iter()
                .zip(grad_out.data())
                .map(|(&open, &g)| if open != 0 { g } else { 0.0 }),
        );
        Tensor::from_vec(grad_out.shape().dims(), dx)
    }

    fn release(&mut self, _arena: &mut ScratchArena) {
        self.gate.take().into_iter().for_each(scratch::put);
    }

    fn held_bytes(&self) -> usize {
        self.gate.as_ref().map_or(0, Vec::len)
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

    fn held_bytes(&self) -> usize {
        kept_bytes(&self.cached_output)
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

    /// The ReLU gate against the `f32` compare it replaces — forward
    /// `x.max(0.0)`, backward `if x > 0.0 { g } else { 0.0 }` on a kept
    /// copy of the input — bit for bit on NaNs of both signs, ±0.0, ±inf,
    /// subnormals and the smallest normals, through every entry point.
    #[test]
    fn relu_gate_is_the_compare_it_replaces() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let edges = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_0001),
            f32::from_bits(0xFF80_0001),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.5,
            -2.0,
        ];
        let n = edges.len();
        // Every input meets every gradient, the edges included.
        let x: Vec<f32> = (0..n * n).map(|i| edges[i / n]).collect();
        let g: Vec<f32> = (0..n * n).map(|i| edges[i % n]).collect();
        let x = Tensor::from_vec(&[n, n], x);
        let g = Tensor::from_vec(&[n, n], g);
        let want_y = bits(x.map(|v| v.max(0.0)).data());
        let want_dx = bits(x.zip(&g, |v, g| if v > 0.0 { g } else { 0.0 }).data());

        let mut arena = ScratchArena::new();
        let mut relu = Relu::new();
        assert_eq!(bits(relu.forward(&x, true).data()), want_y);
        assert_eq!(bits(relu.backward(&g).data()), want_dx);
        assert_eq!(
            bits(relu.forward_scratch(&x, true, &mut arena).data()),
            want_y
        );
        assert_eq!(relu.held_bytes(), n * n, "one byte per element");
        assert_eq!(bits(relu.backward_scratch(&g, &mut arena).data()), want_dx);
        let y = relu.forward_owned(x.clone(), true, &mut arena);
        assert_eq!(bits(y.data()), want_y);
        // Inference, owned or borrowed, leaves the gate alone.
        let other = Tensor::from_vec(&[n, n], vec![1.0; n * n]);
        relu.forward_owned(other.clone(), false, &mut arena);
        relu.forward_scratch(&other, false, &mut arena);
        assert_eq!(bits(relu.backward_scratch(&g, &mut arena).data()), want_dx);
        relu.release(&mut arena);
        assert_eq!(relu.held_bytes(), 0);
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
