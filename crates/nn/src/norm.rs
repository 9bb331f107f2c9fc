//! Layer normalization.
//!
//! Real ResNets use BatchNorm, but BatchNorm keeps *running statistics*
//! that mutate outside the parameter vector — state that RPoL's
//! checkpoint-replay verification cannot bind or reproduce. LayerNorm is
//! the replay-friendly alternative: it normalizes each sample's features
//! on the fly (stateless) with learnable gain and bias, so a checkpoint's
//! flat weight vector fully determines the computation.

use crate::layer::{copy_of, Layer, Param};
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::Tensor;

/// Per-sample layer normalization over the feature dimension of `[N, F]`
/// inputs, with learnable elementwise gain `γ` and bias `β`.
///
/// # Examples
///
/// ```
/// use rpol_nn::norm::LayerNorm;
/// use rpol_nn::layer::Layer;
/// use rpol_tensor::{scratch::ScratchArena, Tensor};
///
/// let mut ln = LayerNorm::new(4);
/// let x = Tensor::from_vec(&[1, 4], vec![1.0, 2.0, 3.0, 4.0]);
/// let y = ln.forward(&x, false, &mut ScratchArena::new());
/// // Unit gain / zero bias: output is standardized.
/// assert!(y.mean().abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gain: Param,
    bias: Param,
    eps: f32,
    /// Cached `(input, mean, inv_std)` per row for backward.
    cache: Option<(Tensor, Vec<f32>, Vec<f32>)>,
}

impl LayerNorm {
    /// Creates a LayerNorm over `features`-wide rows (γ = 1, β = 0).
    ///
    /// # Panics
    ///
    /// Panics if `features == 0`.
    pub fn new(features: usize) -> Self {
        assert!(features > 0, "zero-width LayerNorm");
        Self {
            gain: Param::new(Tensor::ones(&[features])),
            bias: Param::new(Tensor::zeros(&[features])),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Feature width.
    pub fn features(&self) -> usize {
        self.gain.value.len()
    }

    /// The forward's arithmetic: the output plus each row's mean and
    /// inverse standard deviation, all three drawn from `arena`.
    fn normalize(&self, input: &Tensor, arena: &mut ScratchArena) -> (Tensor, Vec<f32>, Vec<f32>) {
        assert_eq!(input.shape().rank(), 2, "LayerNorm expects [N, F]");
        let (n, f) = (input.shape().dim(0), input.shape().dim(1));
        assert_eq!(f, self.features(), "feature width mismatch");
        let mut out = arena.take_zeroed(n * f);
        let x = input.data();
        let gain = self.gain.value.data();
        let bias = self.bias.value.data();
        let mut means = arena.take_empty(n);
        let mut inv_stds = arena.take_empty(n);
        for i in 0..n {
            let row = &x[i * f..(i + 1) * f];
            let mean = row.iter().sum::<f32>() / f as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / f as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            for j in 0..f {
                out[i * f + j] = (row[j] - mean) * inv_std * gain[j] + bias[j];
            }
            means.push(mean);
            inv_stds.push(inv_std);
        }
        (Tensor::from_vec(&[n, f], out), means, inv_stds)
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        self.forward_owned(copy_of(input, arena), train, arena)
    }

    fn forward_owned(&mut self, input: Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        if train {
            self.release(arena);
        }
        let (out, means, inv_stds) = self.normalize(&input, arena);
        if train {
            self.cache = Some((input, means, inv_stds));
        } else {
            arena.recycle(input.into_vec());
            arena.recycle(means);
            arena.recycle(inv_stds);
        }
        out
    }

    fn release(&mut self, arena: &mut ScratchArena) {
        if let Some((input, means, inv_stds)) = self.cache.take() {
            arena.recycle(input.into_vec());
            arena.recycle(means);
            arena.recycle(inv_stds);
        }
    }

    fn held_bytes(&self) -> usize {
        self.cache.as_ref().map_or(0, |(input, means, inv_stds)| {
            4 * (input.len() + means.len() + inv_stds.len())
        })
    }

    fn backward(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        let (input, means, inv_stds) = self
            .cache
            .as_ref()
            .expect("backward before forward on LayerNorm");
        let (n, f) = (input.shape().dim(0), input.shape().dim(1));
        let x = input.data();
        let g = grad_out.data();
        let gain = self.gain.value.data();
        let dgain = self.gain.grad.data_mut();
        let dbias = self.bias.grad.data_mut();
        let mut dx = arena.take_zeroed(n * f);
        for i in 0..n {
            let mean = means[i];
            let inv_std = inv_stds[i];
            let row = &x[i * f..(i + 1) * f];
            let grow = &g[i * f..(i + 1) * f];
            // x̂_j and the two reduction terms of the LayerNorm gradient.
            let mut sum_gy = 0.0f32;
            let mut sum_gy_xhat = 0.0f32;
            for j in 0..f {
                let xhat = (row[j] - mean) * inv_std;
                let gy = grow[j] * gain[j];
                sum_gy += gy;
                sum_gy_xhat += gy * xhat;
                dgain[j] += grow[j] * xhat;
                dbias[j] += grow[j];
            }
            for j in 0..f {
                let xhat = (row[j] - mean) * inv_std;
                let gy = grow[j] * gain[j];
                dx[i * f + j] = inv_std * (gy - sum_gy / f as f32 - xhat * sum_gy_xhat / f as f32);
            }
        }
        Tensor::from_vec(&[n, f], dx)
    }

    fn visit_params(&self, func: &mut dyn FnMut(&Param)) {
        func(&self.gain);
        func(&self.bias);
    }

    fn visit_params_mut(&mut self, func: &mut dyn FnMut(&mut Param)) {
        func(&mut self.gain);
        func(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_tensor::rng::Pcg32;

    #[test]
    fn output_standardized_with_identity_params() {
        let mut arena = ScratchArena::new();
        let mut ln = LayerNorm::new(8);
        let mut rng = Pcg32::seed_from(1);
        let x = Tensor::randn(&[4, 8], &mut rng);
        let y = ln.forward(&x, false, &mut arena);
        for i in 0..4 {
            let row = &y.data()[i * 8..(i + 1) * 8];
            let mean = row.iter().sum::<f32>() / 8.0;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5, "row {i} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {i} var {var}");
        }
    }

    #[test]
    fn shift_and_scale_invariance() {
        let mut arena = ScratchArena::new();
        // LayerNorm(a·x + b) == LayerNorm(x) for scalar a > 0, b.
        let mut ln = LayerNorm::new(6);
        let x = Tensor::from_vec(&[1, 6], vec![1., 2., 3., 4., 5., 6.]);
        let x2 = x.map(|v| 3.0 * v + 7.0);
        let y1 = ln.forward(&x, false, &mut arena);
        let y2 = ln.forward(&x2, false, &mut arena);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn gradient_check() {
        let mut arena = ScratchArena::new();
        let mut ln = LayerNorm::new(5);
        let mut rng = Pcg32::seed_from(3);
        // Non-identity params to exercise all gradient paths.
        let mut uniform =
            |lo, hi| Tensor::from_vec(&[5], (0..5).map(|_| rng.uniform(lo, hi)).collect());
        ln.gain.value = uniform(0.5, 1.5);
        ln.bias.value = uniform(-0.5, 0.5);
        let x = Tensor::randn(&[2, 5], &mut rng);
        let y = ln.forward(&x, true, &mut arena);
        let grad_out = y.map(|v| 2.0 * v);
        ln.zero_grads();
        let dx = ln.backward(&grad_out, &mut arena);

        let eps = 1e-3f32;
        let mut loss = |l: &mut LayerNorm, xv: &Tensor| -> f32 {
            l.forward(xv, false, &mut arena)
                .data()
                .iter()
                .map(|v| v * v)
                .sum()
        };
        for idx in [0usize, 3, 7, 9] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let numeric = (loss(&mut ln, &xp) - loss(&mut ln, &xm)) / (2.0 * eps);
            let got = dx.data()[idx];
            assert!(
                (numeric - got).abs() < 0.05 * numeric.abs().max(0.5),
                "dx[{idx}]: numeric {numeric} vs analytic {got}"
            );
        }
        // Gain gradient check at one coordinate.
        let mut analytic = Vec::new();
        ln.visit_params(&mut |p| analytic.push(p.grad.clone()));
        let mut plus = ln.clone();
        plus.gain.value.data_mut()[2] += eps;
        let mut minus = ln.clone();
        minus.gain.value.data_mut()[2] -= eps;
        let numeric = (loss(&mut plus, &x) - loss(&mut minus, &x)) / (2.0 * eps);
        assert!(
            (numeric - analytic[0].data()[2]).abs() < 0.05 * numeric.abs().max(0.5),
            "dgain: {numeric} vs {}",
            analytic[0].data()[2]
        );
    }

    /// Every forward hands the arena back what the layer no longer needs:
    /// an inference forward its input and both row statistics, a training
    /// forward all three of what the previous one kept.
    #[test]
    fn forwards_return_the_row_statistics_to_the_arena() {
        let mut rng = Pcg32::seed_from(5);
        let mut ln = LayerNorm::new(8);
        let mut arena = ScratchArena::new();
        ln.forward_owned(Tensor::randn(&[4, 8], &mut rng), false, &mut arena);
        assert_eq!(arena.pooled(), 3, "input, means and inv_stds");

        let mut arena = ScratchArena::new();
        ln.forward_owned(Tensor::randn(&[4, 8], &mut rng), true, &mut arena);
        assert_eq!(arena.pooled(), 0, "a training forward keeps all three");
        // Fewer rows: no request of this forward fits a kept buffer, so
        // all three stay in the arena.
        ln.forward_owned(Tensor::randn(&[2, 8], &mut rng), true, &mut arena);
        assert_eq!(arena.pooled(), 3, "the first forward's three");
    }

    #[test]
    fn param_count_is_two_f() {
        let ln = LayerNorm::new(16);
        assert_eq!(ln.param_count(), 32);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn width_checked() {
        let mut arena = ScratchArena::new();
        LayerNorm::new(4).forward(&Tensor::ones(&[1, 5]), false, &mut arena);
    }
}
