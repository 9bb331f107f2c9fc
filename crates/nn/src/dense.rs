//! Fully connected layer.

use crate::layer::{drop_kept, keep, keep_copy, kept_bytes, Layer, Param};
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::{gemm, Tensor};

/// A fully connected layer `y = x·Wᵀ + b` with He-initialized weights.
///
/// Input `[N, in]`, output `[N, out]`, weight `[out, in]`, bias `[out]`.
///
/// # Examples
///
/// ```
/// use rpol_nn::prelude::*;
/// use rpol_tensor::{rng::Pcg32, scratch::ScratchArena, Tensor};
///
/// let mut rng = Pcg32::seed_from(1);
/// let mut layer = Dense::new(4, 3, &mut rng);
/// let x = Tensor::ones(&[2, 4]);
/// let y = layer.forward(&x, true, &mut ScratchArena::new());
/// assert_eq!(y.shape().dims(), &[2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-normal weight init and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Pcg32) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "zero-sized dense layer"
        );
        let scale = (2.0 / in_features as f32).sqrt();
        let mut weight = Tensor::randn(&[out_features, in_features], rng);
        weight.scale(scale);
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cached_input: None,
        }
    }

    /// Creates a dense layer from explicit weight/bias tensors.
    ///
    /// # Panics
    ///
    /// Panics unless `weight` is `[out, in]` and `bias` is `[out]`.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.shape().rank(), 2, "dense weight must be rank 2");
        assert_eq!(bias.shape().rank(), 1, "dense bias must be rank 1");
        assert_eq!(
            weight.shape().dim(0),
            bias.shape().dim(0),
            "out dims differ"
        );
        Self {
            weight: Param::new(weight),
            bias: Param::new(bias),
            cached_input: None,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape().dim(1)
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape().dim(0)
    }
}

impl Dense {
    /// Forward body of both entry points: the output buffer, drawn zeroed
    /// from `arena`, accumulates `y = x · Wᵀ` via the fused-transpose
    /// kernel, and the bias is added afterwards — the per-element chain
    /// `(Σ_p x·w) + b`. Keeps nothing.
    fn forward_with(&self, input: &Tensor, arena: &mut ScratchArena) -> Tensor {
        assert_eq!(input.shape().rank(), 2, "dense expects [N, in]");
        assert_eq!(
            input.shape().dim(1),
            self.in_features(),
            "dense input width mismatch"
        );
        let n = input.shape().dim(0);
        let out = self.out_features();
        let mut y = arena.take_zeroed(n * out);
        gemm::gemm_into(
            n,
            out,
            self.in_features(),
            input.data(),
            gemm::Trans::No,
            self.weight.value.data(),
            gemm::Trans::Yes,
            &mut y,
            gemm::default_threads(),
        );
        let bias = self.bias.value.data();
        for row in y.chunks_exact_mut(out) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        Tensor::from_vec(&[n, out], y)
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        keep_copy(&mut self.cached_input, input, train, arena);
        self.forward_with(input, arena)
    }

    fn forward_owned(&mut self, input: Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        if train {
            drop_kept(&mut self.cached_input, arena);
        }
        let y = self.forward_with(&input, arena);
        keep(&mut self.cached_input, input, train, arena);
        y
    }

    fn release(&mut self, arena: &mut ScratchArena) {
        drop_kept(&mut self.cached_input, arena);
    }

    fn held_bytes(&self) -> usize {
        kept_bytes(&self.cached_input)
    }

    /// The parameter gradients, then `dx = g · W` into a zeroed buffer.
    fn backward(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        self.backward_params(grad_out, arena);
        let n = grad_out.shape().dim(0);
        let inf = self.in_features();
        let mut dx = arena.take_zeroed(n * inf);
        gemm::gemm_into(
            n,
            inf,
            self.out_features(),
            grad_out.data(),
            gemm::Trans::No,
            self.weight.value.data(),
            gemm::Trans::No,
            &mut dx,
            gemm::default_threads(),
        );
        Tensor::from_vec(&[n, inf], dx)
    }

    fn backward_params(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward before forward on Dense");
        let n = grad_out.shape().dim(0);
        let out = self.out_features();
        let inf = self.in_features();
        // dW = gᵀ · x via the fused kernel (no transpose materialized) into
        // a zeroed temporary, then accumulated into the persistent gradient
        // in one axpy pass.
        let mut dw = arena.take_zeroed(out * inf);
        gemm::gemm_into(
            out,
            inf,
            n,
            grad_out.data(),
            gemm::Trans::Yes,
            input.data(),
            gemm::Trans::No,
            &mut dw,
            gemm::default_threads(),
        );
        for (g, &d) in self.weight.grad.data_mut().iter_mut().zip(&dw) {
            *g += d;
        }
        arena.recycle(dw);
        // db = Σ_batch g, summed per column in batch order.
        let g = grad_out.data();
        let db = self.bias.grad.data_mut();
        for (j, dbj) in db.iter_mut().enumerate() {
            let mut s = 0.0;
            for i in 0..n {
                s += g[i * out + j];
            }
            *dbj += s;
        }
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numeric gradient check on a scalar loss L = Σ y².
    #[test]
    fn gradient_check() {
        let mut arena = ScratchArena::new();
        let mut rng = Pcg32::seed_from(42);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Tensor::randn(&[4, 3], &mut rng);

        let y = layer.forward(&x, true, &mut arena);
        let grad_out = y.map(|v| 2.0 * v); // dL/dy for L = Σ y²
        layer.zero_grads();
        let dx = layer.backward(&grad_out, &mut arena);

        let eps = 1e-3;
        // Check weight gradient numerically.
        let mut analytic = Vec::new();
        layer.visit_params(&mut |p| analytic.push(p.grad.clone()));
        for (pi, sample_idx) in [(0usize, 2usize), (0, 5), (1, 0), (1, 1)] {
            let mut plus = layer.clone();
            let mut idx = 0;
            plus.visit_params_mut(&mut |p| {
                if idx == pi {
                    p.value.data_mut()[sample_idx] += eps;
                }
                idx += 1;
            });
            let mut minus = layer.clone();
            idx = 0;
            minus.visit_params_mut(&mut |p| {
                if idx == pi {
                    p.value.data_mut()[sample_idx] -= eps;
                }
                idx += 1;
            });
            let lp: f32 = plus
                .forward(&x, false, &mut arena)
                .data()
                .iter()
                .map(|v| v * v)
                .sum();
            let lm: f32 = minus
                .forward(&x, false, &mut arena)
                .data()
                .iter()
                .map(|v| v * v)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let got = analytic[pi].data()[sample_idx];
            assert!(
                (numeric - got).abs() < 0.05 * numeric.abs().max(1.0),
                "param {pi}[{sample_idx}]: numeric {numeric} vs analytic {got}"
            );
        }

        // Check input gradient numerically at a few coordinates.
        for sample_idx in [0usize, 7, 11] {
            let mut xp = x.clone();
            xp.data_mut()[sample_idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[sample_idx] -= eps;
            let lp: f32 = layer
                .forward(&xp, false, &mut arena)
                .data()
                .iter()
                .map(|v| v * v)
                .sum();
            let lm: f32 = layer
                .forward(&xm, false, &mut arena)
                .data()
                .iter()
                .map(|v| v * v)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let got = dx.data()[sample_idx];
            assert!(
                (numeric - got).abs() < 0.05 * numeric.abs().max(1.0),
                "input[{sample_idx}]: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn forward_known_values() {
        let mut arena = ScratchArena::new();
        let weight = Tensor::from_vec(&[2, 3], vec![1., 0., 0., 0., 1., 0.]);
        let bias = Tensor::from_vec(&[2], vec![10., 20.]);
        let mut layer = Dense::from_parts(weight, bias);
        let x = Tensor::from_vec(&[1, 3], vec![1., 2., 3.]);
        let y = layer.forward(&x, false, &mut arena);
        assert_eq!(y.data(), &[11., 22.]);
    }

    #[test]
    fn param_count() {
        let mut rng = Pcg32::seed_from(0);
        let layer = Dense::new(10, 5, &mut rng);
        assert_eq!(layer.param_count(), 55);
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut arena = ScratchArena::new();
        let mut rng = Pcg32::seed_from(1);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        layer.forward(&x, true, &mut arena);
        layer.backward(&g, &mut arena);
        let mut first = Vec::new();
        layer.visit_params(&mut |p| first.push(p.grad.clone()));
        layer.forward(&x, true, &mut arena);
        layer.backward(&g, &mut arena);
        let mut second = Vec::new();
        layer.visit_params(&mut |p| second.push(p.grad.clone()));
        for (a, b) in first.iter().zip(&second) {
            for (x1, x2) in a.data().iter().zip(b.data()) {
                assert!((x2 - 2.0 * x1).abs() < 1e-5, "not accumulated");
            }
        }
        layer.zero_grads();
        layer.visit_params(&mut |p| assert!(p.grad.data().iter().all(|&v| v == 0.0)));
    }
}
