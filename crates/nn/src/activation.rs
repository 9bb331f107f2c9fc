//! Elementwise activation layers.

use crate::layer::{byte_slot, copy_of, Layer, Param};
use rpol_tensor::scratch::{self, ScratchArena};
use rpol_tensor::Tensor;

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
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        self.forward_owned(copy_of(input, arena), train, arena)
    }

    /// Rectifies in place: the output is the input's own buffer. A training
    /// forward records the gate in the buffer the last one used when it has
    /// room.
    fn forward_owned(
        &mut self,
        mut input: Tensor,
        train: bool,
        _arena: &mut ScratchArena,
    ) -> Tensor {
        if train {
            let mut gate = byte_slot(self.gate.take(), input.len());
            gate.extend(input.data().iter().map(|&x| u8::from(x > 0.0)));
            self.gate = Some(gate);
        }
        input.map_inplace(|x| x.max(0.0));
        input
    }

    fn backward(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let mut arena = ScratchArena::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu.forward(&x, true, &mut arena);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = Tensor::ones(&[1, 4]);
        let dx = relu.backward(&g, &mut arena);
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(relu.param_count(), 0);
    }

    /// The ReLU gate against the `f32` compare it replaces — forward
    /// `x.max(0.0)`, backward `if x > 0.0 { g } else { 0.0 }` on a kept
    /// copy of the input — bit for bit on NaNs of both signs, ±0.0, ±inf,
    /// subnormals and the smallest normals. `tests/layer_contract.rs`
    /// holds the other entry points to these bits.
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
        let compare = |(&v, &g): (&f32, &f32)| if v > 0.0 { g } else { 0.0 };
        let want_dx: Vec<f32> = x.data().iter().zip(g.data()).map(compare).collect();
        let want_dx = bits(&want_dx);

        let mut arena = ScratchArena::new();
        let mut relu = Relu::new();
        assert_eq!(bits(relu.forward(&x, true, &mut arena).data()), want_y);
        assert_eq!(relu.held_bytes(), n * n, "one byte per element");
        // An inference forward leaves the gate alone.
        let other = Tensor::from_vec(&[n, n], vec![1.0; n * n]);
        relu.forward(&other, false, &mut arena);
        assert_eq!(bits(relu.backward(&g, &mut arena).data()), want_dx);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn relu_requires_forward() {
        Relu::new().backward(&Tensor::ones(&[1, 1]), &mut ScratchArena::new());
    }
}
