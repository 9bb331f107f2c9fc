//! Property-based tests for the neural-network substrate.

use proptest::prelude::*;
use rpol_nn::prelude::*;
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::Tensor;

fn small_model(seed: u64) -> Sequential {
    let mut rng = Pcg32::seed_from(seed);
    Sequential::new(vec![
        Box::new(Dense::new(6, 10, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(10, 4, &mut rng)),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flatten_load_roundtrip_preserves_forward(seed1 in any::<u64>(), seed2 in any::<u64>()) {
        let mut m1 = small_model(seed1);
        let mut m2 = small_model(seed2);
        m2.load_params(&m1.flatten_params());
        let mut rng = Pcg32::seed_from(seed1 ^ seed2);
        let x = Tensor::randn(&[3, 6], &mut rng);
        prop_assert_eq!(m1.forward(&x, false), m2.forward(&x, false));
    }

    #[test]
    fn softmax_ce_gradient_sums_to_zero_per_row(
        logits in proptest::collection::vec(-8.0f32..8.0, 12),
        labels in proptest::collection::vec(0usize..4, 3)
    ) {
        let t = Tensor::from_vec(&[3, 4], logits);
        let (loss, grad) = softmax_cross_entropy(&t, &labels);
        prop_assert!(loss.is_finite() && loss >= 0.0);
        for row in 0..3 {
            let s: f32 = grad.data()[row * 4..(row + 1) * 4].iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {row} sums to {s}");
        }
    }

    #[test]
    fn loss_decreases_on_gradient_step(seed in any::<u64>()) {
        // One small SGD step along the gradient cannot increase the loss
        // on a smooth-enough problem; property-check it on random batches.
        let mut model = small_model(seed);
        let mut rng = Pcg32::seed_from(seed ^ 0x11);
        let x = Tensor::randn(&[8, 6], &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let logits = model.forward(&x, true);
        let (before, grad) = softmax_cross_entropy(&logits, &labels);
        model.backward(&grad);
        let mut opt = Sgd::new(0.01);
        model.step(&mut opt);
        let logits = model.forward(&x, false);
        let (after, _) = softmax_cross_entropy(&logits, &labels);
        prop_assert!(after <= before + 1e-4, "{before} -> {after}");
    }

    #[test]
    fn frozen_params_never_move(seed in any::<u64>()) {
        let mut model = small_model(seed);
        // Freeze the first layer.
        let mut idx = 0;
        model.visit_params_mut(&mut |p| {
            if idx < 2 {
                p.frozen = true;
            }
            idx += 1;
        });
        let before = model.flatten_params();
        let mut rng = Pcg32::seed_from(seed ^ 0x22);
        let x = Tensor::randn(&[4, 6], &mut rng);
        let labels = vec![0, 1, 2, 3];
        for _ in 0..3 {
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            model.backward(&grad);
            let mut opt = Sgd::new(0.1);
            model.step(&mut opt);
        }
        let after = model.flatten_params();
        // First-layer weights (first 6*10 + 10 values) unchanged.
        prop_assert_eq!(&before[..70], &after[..70]);
        prop_assert_ne!(&before[70..], &after[70..], "trainable part should move");
    }

    #[test]
    fn relu_output_nonnegative(xs in proptest::collection::vec(-100.0f32..100.0, 8)) {
        let mut relu = Relu::new();
        let y = relu.forward(&Tensor::from_vec(&[1, 8], xs), false, &mut ScratchArena::new());
        prop_assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn accuracy_bounded_and_exact_on_onehot(labels in proptest::collection::vec(0usize..5, 1..20)) {
        // Build logits that exactly encode the labels.
        let n = labels.len();
        let mut data = vec![0.0f32; n * 5];
        for (i, &l) in labels.iter().enumerate() {
            data[i * 5 + l] = 1.0;
        }
        let logits = Tensor::from_vec(&[n, 5], data);
        prop_assert_eq!(accuracy(&logits, &labels), 1.0);
    }

    #[test]
    fn dataset_sharding_partitions_samples(
        n in 10usize..200, shards in 1usize..10
    ) {
        prop_assume!(n >= shards);
        let spec = ImageSpec::tiny();
        let data = SyntheticImages::generate(&spec, n, &mut Pcg32::seed_from(42));
        let parts = data.shard(shards);
        prop_assert_eq!(parts.len(), shards);
        let per = n / shards;
        prop_assert!(parts.iter().all(|p| p.len() == per));
    }

    #[test]
    fn optimizers_keep_finite_weights(
        lr in 0.001f32..0.5, steps in 1usize..30, seed in any::<u64>()
    ) {
        let mut model = small_model(seed);
        let mut rng = Pcg32::seed_from(seed ^ 0x33);
        let x = Tensor::randn(&[4, 6], &mut rng);
        let labels = vec![0, 1, 2, 3];
        let mut opt = SgdMomentum::new(lr, 0.9);
        for _ in 0..steps {
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            model.backward(&grad);
            model.step(&mut opt);
        }
        prop_assert!(model.flatten_params().iter().all(|w| w.is_finite()));
    }
}
