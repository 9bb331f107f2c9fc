//! Property-based numeric gradient checks: for random layer shapes,
//! weights and inputs, analytic backward passes must agree with central
//! finite differences on the scalar loss `L = Σ y²`.

use proptest::prelude::*;
use rpol_nn::activation::Relu;
use rpol_nn::conv::Conv2d;
use rpol_nn::dense::Dense;
use rpol_nn::layer::Layer;
use rpol_nn::norm::LayerNorm;
use rpol_nn::residual::Residual;
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::Tensor;

const EPS: f32 = 1e-2;

/// Central-difference input-gradient check at a few coordinates.
fn check_input_gradient(layer: &mut dyn Layer, x: &Tensor, tolerance: f32) -> Result<(), String> {
    let mut arena = ScratchArena::new();
    let y = layer.forward(x, true, &mut arena);
    let grad_out = y.map(|v| 2.0 * v);
    layer.zero_grads();
    let dx = layer.backward(&grad_out, &mut arena);

    let mut loss = |l: &mut dyn Layer, xv: &Tensor| -> f32 {
        l.forward(xv, false, &mut arena)
            .data()
            .iter()
            .map(|v| v * v)
            .sum()
    };
    let stride = (x.len() / 5).max(1);
    for idx in (0..x.len()).step_by(stride) {
        let mut xp = x.clone();
        xp.data_mut()[idx] += EPS;
        let mut xm = x.clone();
        xm.data_mut()[idx] -= EPS;
        let numeric = (loss(layer, &xp) - loss(layer, &xm)) / (2.0 * EPS);
        let got = dx.data()[idx];
        let scale = numeric.abs().max(1.0);
        if (numeric - got).abs() > tolerance * scale {
            return Err(format!(
                "input grad mismatch at {idx}: numeric {numeric} vs analytic {got}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_gradients(
        seed in any::<u64>(),
        in_f in 2usize..8,
        out_f in 2usize..8,
        batch in 1usize..4
    ) {
        let mut rng = Pcg32::seed_from(seed);
        let mut layer = Dense::new(in_f, out_f, &mut rng);
        let x = Tensor::randn(&[batch, in_f], &mut rng);
        check_input_gradient(&mut layer, &x, 0.05).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn conv_gradients(
        seed in any::<u64>(),
        channels in 1usize..3,
        out_ch in 1usize..3,
        hw in 3usize..6
    ) {
        let mut rng = Pcg32::seed_from(seed);
        let mut layer = Conv2d::new(channels, out_ch, 3, 1, &mut rng);
        let x = Tensor::randn(&[1, channels, hw, hw], &mut rng);
        check_input_gradient(&mut layer, &x, 0.08).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn layernorm_gradients(seed in any::<u64>(), features in 2usize..10, batch in 1usize..4) {
        let mut rng = Pcg32::seed_from(seed);
        let mut layer = LayerNorm::new(features);
        let x = Tensor::randn(&[batch, features], &mut rng);
        check_input_gradient(&mut layer, &x, 0.08).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn residual_dense_gradients(seed in any::<u64>(), width in 2usize..8, batch in 1usize..4) {
        let mut rng = Pcg32::seed_from(seed);
        let mut layer = Residual::new(Box::new(Dense::new(width, width, &mut rng)));
        let x = Tensor::randn(&[batch, width], &mut rng);
        check_input_gradient(&mut layer, &x, 0.05).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn relu_gradients_away_from_kink(seed in any::<u64>(), width in 1usize..16) {
        let mut rng = Pcg32::seed_from(seed);
        let mut layer = Relu::new();
        // Keep inputs away from the non-differentiable point at 0 so the
        // finite difference is valid.
        let x = Tensor::randn(&[1, width], &mut rng)
            .map(|v| if v.abs() < 0.1 { v.signum() * 0.5 } else { v });
        check_input_gradient(&mut layer, &x, 0.05).map_err(TestCaseError::fail)?;
    }
}
