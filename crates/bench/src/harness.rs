//! Shared experiment harness: single-node training runs used by the
//! AMLayer experiments (Fig. 3, Table I) and the calibration study
//! (Fig. 5).

use rpol::tasks::TaskConfig;
use rpol::trainer::LocalTrainer;
use rpol_crypto::Address;
use rpol_nn::data::SyntheticImages;
use rpol_nn::metrics::evaluate;
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::rng::Pcg32;
use rpol_tensor::Tensor;
use std::time::Instant;

/// The record of one single-node training run.
pub struct SingleRun {
    /// Test accuracy after each epoch.
    pub accuracy_curve: Vec<f32>,
    /// Wall-clock seconds per epoch (real, measured).
    pub epoch_seconds: Vec<f64>,
    /// Final flattened weights.
    pub final_weights: Vec<f32>,
}

impl SingleRun {
    /// Final test accuracy.
    pub fn final_accuracy(&self) -> f32 {
        *self.accuracy_curve.last().expect("at least one epoch")
    }

    /// Mean one-epoch wall-clock time.
    pub fn mean_epoch_seconds(&self) -> f64 {
        self.epoch_seconds.iter().sum::<f64>() / self.epoch_seconds.len() as f64
    }
}

/// Fixed experiment geometry for single-node runs.
pub struct RunSpec {
    /// Number of epochs.
    pub epochs: usize,
    /// SGD steps per epoch.
    pub steps_per_epoch: usize,
    /// Training samples.
    pub train_samples: usize,
    /// Test samples.
    pub test_samples: usize,
    /// Data/run seed.
    pub seed: u64,
}

/// Generates the train/test split for a task.
pub fn task_data(cfg: &TaskConfig, spec: &RunSpec) -> (SyntheticImages, Tensor, Vec<usize>) {
    let mut rng = Pcg32::seed_from(spec.seed);
    let train = SyntheticImages::generate(&cfg.spec, spec.train_samples, &mut rng);
    let test = SyntheticImages::generate(&cfg.spec, spec.test_samples, &mut rng);
    let (tx, ty) = test.full_batch();
    (train, tx, ty)
}

/// Trains a task single-node; `owner` selects the address-encoded variant
/// (`Some`) or the plain model (`None`).
pub fn train_single(cfg: &TaskConfig, owner: Option<&Address>, spec: &RunSpec) -> SingleRun {
    let (train, test_x, test_y) = task_data(cfg, spec);
    let mut model = match owner {
        Some(addr) => cfg.build_encoded_model(addr),
        None => cfg.build_model(),
    };
    let mut trainer = LocalTrainer::new(
        cfg,
        &train,
        NoiseInjector::new(GpuModel::GA10, spec.seed ^ 0x51),
    );
    let mut accuracy_curve = Vec::with_capacity(spec.epochs);
    let mut epoch_seconds = Vec::with_capacity(spec.epochs);
    for epoch in 0..spec.epochs {
        let start = Instant::now();
        trainer.run_epoch(&mut model, spec.seed ^ epoch as u64, spec.steps_per_epoch);
        epoch_seconds.push(start.elapsed().as_secs_f64());
        accuracy_curve.push(evaluate(&mut model, &test_x, &test_y));
    }
    SingleRun {
        accuracy_curve,
        epoch_seconds,
        final_weights: model.flatten_params(),
    }
}

/// Scores a flat encoded-weight vector on a prepared test batch.
pub fn evaluate_flat(cfg: &TaskConfig, weights: &[f32], test_x: &Tensor, test_y: &[usize]) -> f32 {
    let mut model = cfg.build_encoded_model(&Address::from_seed(0));
    model.load_params(weights);
    evaluate(&mut model, test_x, test_y)
}
