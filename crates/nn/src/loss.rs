//! Loss functions.

use rpol_tensor::Tensor;

/// Softmax cross-entropy over a batch of logits.
///
/// Returns `(mean loss, ∂L/∂logits)`. Logits are `[N, classes]`; labels
/// index into the class dimension. The gradient is already divided by the
/// batch size, so it feeds straight into [`crate::layer::Layer::backward`].
///
/// # Panics
///
/// Panics if shapes mismatch or any label is out of range.
///
/// # Examples
///
/// ```
/// use rpol_nn::loss::softmax_cross_entropy;
/// use rpol_tensor::Tensor;
///
/// let logits = Tensor::from_vec(&[1, 3], vec![2.0, 1.0, 0.1]);
/// let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
/// assert!(loss > 0.0 && loss < 1.0); // confident and correct
/// assert_eq!(grad.shape().dims(), &[1, 3]);
/// ```
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.shape().rank(), 2, "logits must be [N, classes]");
    let n = logits.shape().dim(0);
    let classes = logits.shape().dim(1);
    assert_eq!(labels.len(), n, "one label per row");
    assert!(
        labels.iter().all(|&l| l < classes),
        "label out of range (classes = {classes})"
    );
    let x = logits.data();
    let mut grad = vec![0.0f32; n * classes];
    let mut total_loss = 0.0f64;
    for i in 0..n {
        let row = &x[i * classes..(i + 1) * classes];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f64> = row.iter().map(|&v| ((v - max) as f64).exp()).collect();
        let denom: f64 = exps.iter().sum();
        let label = labels[i];
        let p_label = exps[label] / denom;
        total_loss -= p_label.max(1e-12).ln();
        for j in 0..classes {
            let p = (exps[j] / denom) as f32;
            grad[i * classes + j] = (p - if j == label { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    (
        (total_loss / n as f64) as f32,
        Tensor::from_vec(&[n, classes], grad),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_uniform_logits() {
        // Uniform logits over C classes: loss = ln C.
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient rows sum to zero.
        for i in 0..2 {
            let s: f32 = grad.data()[i * 4..(i + 1) * 4].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_confident_correct_is_small() {
        let logits = Tensor::from_vec(&[1, 3], vec![10.0, 0.0, 0.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_confident_wrong_is_large() {
        let logits = Tensor::from_vec(&[1, 3], vec![10.0, 0.0, 0.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[1]);
        assert!(loss > 5.0);
    }

    #[test]
    fn cross_entropy_gradient_check() {
        let logits = Tensor::from_vec(&[2, 3], vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for idx in 0..6 {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let (loss_p, _) = softmax_cross_entropy(&lp, &labels);
            let (loss_m, _) = softmax_cross_entropy(&lm, &labels);
            let numeric = (loss_p - loss_m) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[idx]).abs() < 1e-3,
                "idx {idx}: numeric {numeric} vs {got}",
                got = grad.data()[idx]
            );
        }
    }

    #[test]
    fn cross_entropy_numerically_stable_for_huge_logits() {
        let logits = Tensor::from_vec(&[1, 2], vec![1e4, -1e4]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_rejected() {
        softmax_cross_entropy(&Tensor::zeros(&[1, 3]), &[3]);
    }
}
