//! The paper's model/dataset workload catalogue (§VII-E).
//!
//! Table II and III are driven by the *sizes* of the paper's heavy
//! workloads, not by actually training them: ResNet50 weighs 90.7 MB,
//! VGG16 527 MB, ImageNet has 1,281,167 images. This module records those
//! constants plus standard per-sample FLOP counts so the analytic timing
//! model can regenerate the tables.

use serde::Serialize;
use std::fmt;

/// The DNN architectures appearing in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ModelKind {
    /// ResNet-18 (11.7 M parameters).
    ResNet18,
    /// ResNet-50 (paper: 90.7 MB of weights).
    ResNet50,
    /// VGG-16 (paper: 527 MB of weights).
    Vgg16,
}

impl ModelKind {
    /// Weight payload in bytes (paper's reported sizes).
    pub fn weight_bytes(&self) -> u64 {
        match self {
            ModelKind::ResNet18 => 44_700_000,
            ModelKind::ResNet50 => 90_700_000,
            ModelKind::Vgg16 => 527_000_000,
        }
    }

    /// Forward-pass FLOPs per 224×224 sample (standard published numbers).
    fn flops_per_sample(&self) -> f64 {
        match self {
            ModelKind::ResNet18 => 1.8e9,
            ModelKind::ResNet50 => 4.1e9,
            ModelKind::Vgg16 => 15.5e9,
        }
    }

    /// Training FLOPs per sample: the conventional forward + 2× backward.
    pub fn train_flops_per_sample(&self) -> f64 {
        3.0 * self.flops_per_sample()
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ModelKind::ResNet18 => "ResNet18",
            ModelKind::ResNet50 => "ResNet50",
            ModelKind::Vgg16 => "VGG16",
        };
        f.write_str(name)
    }
}

/// The datasets appearing in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DatasetKind {
    /// CIFAR-10: 50,000 training images of 32×32×3.
    Cifar10,
    /// CIFAR-100: 50,000 training images of 32×32×3.
    Cifar100,
    /// ImageNet-1k: 1,281,167 training images (paper's count).
    ImageNet,
}

impl DatasetKind {
    /// Number of training samples.
    fn train_samples(&self) -> u64 {
        match self {
            DatasetKind::Cifar10 | DatasetKind::Cifar100 => 50_000,
            DatasetKind::ImageNet => 1_281_167,
        }
    }
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DatasetKind::Cifar10 => "CIFAR-10",
            DatasetKind::Cifar100 => "CIFAR-100",
            DatasetKind::ImageNet => "ImageNet",
        };
        f.write_str(name)
    }
}

/// A (model, dataset, batch size) training workload.
///
/// # Examples
///
/// ```
/// use rpol_sim::workload::{DatasetKind, ModelKind, Workload};
///
/// let w = Workload::new(ModelKind::ResNet50, DatasetKind::ImageNet);
/// assert_eq!(w.checkpoints_per_worker(100, 5), 21);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Workload {
    /// The architecture being trained.
    pub model: ModelKind,
    /// The training dataset.
    pub dataset: DatasetKind,
    /// Mini-batch size (paper default 128).
    pub batch_size: u64,
}

impl Workload {
    /// Creates a workload with the paper's default batch size (128).
    pub fn new(model: ModelKind, dataset: DatasetKind) -> Self {
        Self {
            model,
            dataset,
            batch_size: 128,
        }
    }

    /// Samples assigned to each of `n` workers under equal division.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn samples_per_worker(&self, n: usize) -> u64 {
        assert!(n > 0, "no workers");
        self.dataset.train_samples() / n as u64
    }

    /// SGD steps per worker per epoch.
    fn steps_per_worker(&self, n: usize) -> u64 {
        self.samples_per_worker(n).div_ceil(self.batch_size)
    }

    /// Training FLOPs per worker per epoch.
    pub fn flops_per_worker(&self, n: usize) -> f64 {
        self.samples_per_worker(n) as f64 * self.model.train_flops_per_sample()
    }

    /// Checkpoints produced per worker per epoch at checkpoint interval
    /// `interval` (the paper stores weights every `i = 5` steps).
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn checkpoints_per_worker(&self, n: usize, interval: u64) -> u64 {
        assert!(interval > 0, "zero checkpoint interval");
        self.steps_per_worker(n).div_ceil(interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes() {
        assert_eq!(ModelKind::ResNet50.weight_bytes(), 90_700_000);
        assert_eq!(ModelKind::Vgg16.weight_bytes(), 527_000_000);
        assert_eq!(DatasetKind::ImageNet.train_samples(), 1_281_167);
    }

    #[test]
    fn division_among_workers() {
        let w = Workload::new(ModelKind::ResNet50, DatasetKind::ImageNet);
        assert_eq!(w.samples_per_worker(100), 12_811);
        assert_eq!(w.steps_per_worker(100), 101); // ceil(12811/128)
    }

    #[test]
    fn checkpoints_at_interval_5() {
        let w = Workload::new(ModelKind::ResNet50, DatasetKind::ImageNet);
        // 101 steps, interval 5 → 21 checkpoints.
        assert_eq!(w.checkpoints_per_worker(100, 5), 21);
    }

    #[test]
    fn flops_scale_with_model() {
        let r = Workload::new(ModelKind::ResNet50, DatasetKind::ImageNet);
        let v = Workload::new(ModelKind::Vgg16, DatasetKind::ImageNet);
        assert!(v.flops_per_worker(10) > r.flops_per_worker(10));
    }

    #[test]
    fn display_names() {
        assert_eq!(ModelKind::Vgg16.to_string(), "VGG16");
        assert_eq!(DatasetKind::ImageNet.to_string(), "ImageNet");
    }
}
