//! Task model architectures and training configuration.
//!
//! The paper's tasks are ResNet18/CIFAR-10 and ResNet50/CIFAR-100; this
//! reproduction trains CPU-sized "mini" counterparts on the synthetic
//! CIFAR stand-ins (DESIGN.md §2). The architectures keep the structural
//! ingredients that matter to RPoL — convolutions, residual blocks, a
//! classifier head, ten-of-thousands of weights — at laptop scale.

use crate::amlayer::{AmLayer, AmLayerSpec};
use rpol_crypto::Address;
use rpol_nn::activation::Relu;
use rpol_nn::conv::Conv2d;
use rpol_nn::data::ImageSpec;
use rpol_nn::dense::Dense;
use rpol_nn::dropout::Dropout;
use rpol_nn::layer::Flatten;
use rpol_nn::model::Sequential;
use rpol_nn::norm::LayerNorm;
use rpol_nn::optim::OptimizerSpec;
use rpol_nn::pool::{AvgPool2, MaxPool2};
use rpol_nn::residual::Residual;
use rpol_tensor::rng::Pcg32;
use serde::Serialize;

/// The task architectures of the paper's evaluation, miniaturized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ModelArch {
    /// Stand-in for ResNet18: one conv stem + one residual block.
    MiniResNet18,
    /// Stand-in for ResNet50: wider stem + two residual blocks.
    MiniResNet50,
    /// Stand-in for VGG16 (Table II's communication-heavy model): plain
    /// conv stacks with max pooling, LayerNorm and dropout — no residual
    /// connections, more parameters in the dense head.
    MiniVgg16,
}

impl ModelArch {
    /// Builds the (AMLayer-free) task model for a dataset spec.
    ///
    /// Weight initialization is seeded: every consensus node building the
    /// same task from the same seed gets identical initial weights, which
    /// RPoL's replay verification requires.
    pub fn build(&self, spec: &ImageSpec, seed: u64) -> Sequential {
        let mut rng = Pcg32::seed_from(seed);
        if let ModelArch::MiniVgg16 = self {
            return Self::build_mini_vgg(spec, &mut rng);
        }
        let (stem, blocks) = match self {
            ModelArch::MiniResNet18 => (8, 1),
            ModelArch::MiniResNet50 => (12, 2),
            ModelArch::MiniVgg16 => unreachable!("handled above"),
        };
        let mut layers: Vec<Box<dyn rpol_nn::layer::Layer>> = Vec::new();
        layers.push(Box::new(Conv2d::new(spec.channels, stem, 3, 1, &mut rng)));
        layers.push(Box::new(Relu::new()));
        for _ in 0..blocks {
            layers.push(Box::new(Residual::new(Box::new(Conv2d::new(
                stem, stem, 3, 1, &mut rng,
            )))));
            layers.push(Box::new(Relu::new()));
        }
        layers.push(Box::new(AvgPool2::new()));
        layers.push(Box::new(Flatten::new()));
        let feat = stem * (spec.height / 2) * (spec.width / 2);
        layers.push(Box::new(Dense::new(feat, 32, &mut rng)));
        layers.push(Box::new(Relu::new()));
        layers.push(Box::new(Dense::new(32, spec.classes, &mut rng)));
        Sequential::new(layers)
    }

    /// VGG-style stack: conv/conv/maxpool, then a dropout-regularized,
    /// LayerNorm-stabilized dense head (proportionally heavier in dense
    /// parameters, like the original VGG16).
    fn build_mini_vgg(spec: &ImageSpec, rng: &mut Pcg32) -> Sequential {
        let stem = 10;
        let layers: Vec<Box<dyn rpol_nn::layer::Layer>> = vec![
            Box::new(Conv2d::new(spec.channels, stem, 3, 1, rng)),
            Box::new(Relu::new()),
            Box::new(Conv2d::new(stem, stem, 3, 1, rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(
                stem * (spec.height / 2) * (spec.width / 2),
                64,
                rng,
            )),
            Box::new(LayerNorm::new(64)),
            Box::new(Relu::new()),
            Box::new(Dropout::new(0.2, 0xD20)),
            Box::new(Dense::new(64, 48, rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(48, spec.classes, rng)),
        ];
        Sequential::new(layers)
    }

    /// Human-readable name mirroring the paper's task labels.
    pub fn name(&self) -> &'static str {
        match self {
            ModelArch::MiniResNet18 => "mini-ResNet18",
            ModelArch::MiniResNet50 => "mini-ResNet50",
            ModelArch::MiniVgg16 => "mini-VGG16",
        }
    }
}

/// Full configuration of a pool training task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TaskConfig {
    /// Architecture to train.
    pub arch: ModelArch,
    /// Dataset geometry.
    pub spec: ImageSpec,
    /// Model-init seed (shared by all consensus nodes for a task).
    pub init_seed: u64,
    /// Mini-batch size (paper default 128; scaled down here).
    pub batch_size: usize,
    /// Checkpoint interval `i` in steps (paper default 5).
    pub checkpoint_interval: usize,
    /// Optimizer (paper default SGDM 0.1/0.9).
    pub optimizer: OptimizerSpec,
    /// AMLayer Lipschitz coefficient `c`. The paper uses 0.5 with its
    /// 3→64 mapping layer; our invertible-residual geometry (DESIGN.md
    /// deviation 2) passes the raw input through the skip connection, so
    /// the default is raised to 0.8 to give the encoded path a comparable
    /// share of the downstream features (still `< 1`, preserving
    /// invertibility).
    pub lipschitz_c: f32,
    /// Number of stacked AMLayer residual blocks (see
    /// [`crate::amlayer::AmLayerSpec`]).
    pub amlayer_depth: usize,
}

impl TaskConfig {
    /// Task A of the paper: (mini-)ResNet18 on the CIFAR-10 stand-in.
    pub fn task_a() -> Self {
        Self {
            arch: ModelArch::MiniResNet18,
            spec: ImageSpec::cifar10_like(),
            init_seed: 0xA,
            batch_size: 16,
            checkpoint_interval: 5,
            // SGDM like the paper; lr scaled to the mini task (0.1 on the
            // full-size task corresponds to a tamer step here, and keeps
            // segment replay in the linearly-divergent regime).
            optimizer: OptimizerSpec::SgdMomentum {
                lr: 0.05,
                momentum: 0.9,
            },
            lipschitz_c: 0.8,
            amlayer_depth: AmLayerSpec::DEFAULT_DEPTH,
        }
    }

    /// Task B of the paper: (mini-)ResNet50 on the CIFAR-100 stand-in.
    pub fn task_b() -> Self {
        Self {
            arch: ModelArch::MiniResNet50,
            spec: ImageSpec::cifar100_like(),
            init_seed: 0xB,
            batch_size: 16,
            checkpoint_interval: 5,
            optimizer: OptimizerSpec::SgdMomentum {
                lr: 0.05,
                momentum: 0.9,
            },
            lipschitz_c: 0.8,
            amlayer_depth: AmLayerSpec::DEFAULT_DEPTH,
        }
    }

    /// Task C: (mini-)VGG16 on the CIFAR-10 stand-in — the
    /// communication-heavy architecture of Table II.
    pub fn task_c() -> Self {
        Self {
            arch: ModelArch::MiniVgg16,
            spec: ImageSpec::cifar10_like(),
            init_seed: 0xC,
            batch_size: 16,
            checkpoint_interval: 5,
            optimizer: OptimizerSpec::SgdMomentum {
                lr: 0.05,
                momentum: 0.9,
            },
            lipschitz_c: 0.8,
            amlayer_depth: AmLayerSpec::DEFAULT_DEPTH,
        }
    }

    /// A minimal configuration for unit tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            arch: ModelArch::MiniResNet18,
            spec: ImageSpec::tiny(),
            init_seed: 0x7,
            batch_size: 4,
            checkpoint_interval: 2,
            optimizer: OptimizerSpec::paper_default(),
            lipschitz_c: 0.8,
            amlayer_depth: AmLayerSpec::DEFAULT_DEPTH,
        }
    }

    /// Builds the bare task model (no AMLayer).
    pub fn build_model(&self) -> Sequential {
        self.arch.build(&self.spec, self.init_seed)
    }

    /// Builds a model of the geometry `weights` was flattened from — the
    /// bare task model, or the encoded one when the vector carries an
    /// AMLayer prefix — and loads them.
    pub(crate) fn build_model_like(&self, weights: &[f32]) -> Sequential {
        let mut model = self.build_model();
        if model.param_count() != weights.len() {
            // Encoded geometry: any address gives the right shape, and the
            // load below overwrites the frozen prefix with the true values.
            self.prepend_amlayer(&mut model, &Address::from_seed(0));
        }
        assert_eq!(
            model.param_count(),
            weights.len(),
            "weight vector matches neither bare nor encoded model geometry"
        );
        model.load_params(weights);
        model
    }

    /// Builds the address-encoded model: AMLayer for `address` in front of
    /// the task model (§V-A).
    pub fn build_encoded_model(&self, address: &Address) -> Sequential {
        let mut model = self.build_model();
        self.prepend_amlayer(&mut model, address);
        model
    }

    /// Puts the AMLayer for `address` in front of a bare task model.
    pub(crate) fn prepend_amlayer(&self, model: &mut Sequential, address: &Address) {
        let am = AmLayer::generate(address, self.amlayer_spec(), self.lipschitz_c);
        model.push_front(Box::new(am));
    }

    /// The AMLayer geometry for this task.
    pub fn amlayer_spec(&self) -> AmLayerSpec {
        AmLayerSpec::for_channels(self.spec.channels).with_depth(self.amlayer_depth)
    }

    /// Verifies that a flattened encoded-model weight vector encodes
    /// `address` — the consensus-side ownership check.
    pub fn verify_model_owner(&self, flat: &[f32], address: &Address, c: f32) -> bool {
        AmLayer::verify_flat_prefix(flat, address, self.amlayer_spec(), c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_nn::loss::softmax_cross_entropy;
    use rpol_tensor::Tensor;

    #[test]
    fn architectures_build_and_run() {
        for arch in [
            ModelArch::MiniResNet18,
            ModelArch::MiniResNet50,
            ModelArch::MiniVgg16,
        ] {
            let spec = ImageSpec::cifar10_like();
            let mut model = arch.build(&spec, 1);
            let x = Tensor::ones(&[2, spec.channels, spec.height, spec.width]);
            let y = model.forward(&x, false);
            assert_eq!(y.shape().dims(), &[2, spec.classes]);
            assert!(model.param_count() > 1000, "{}", arch.name());
        }
    }

    #[test]
    fn resnet50_is_larger() {
        let spec = ImageSpec::cifar10_like();
        assert!(
            ModelArch::MiniResNet50.build(&spec, 1).param_count()
                > ModelArch::MiniResNet18.build(&spec, 1).param_count()
        );
    }

    #[test]
    fn same_seed_same_model() {
        let spec = ImageSpec::tiny();
        let a = ModelArch::MiniResNet18.build(&spec, 9);
        let b = ModelArch::MiniResNet18.build(&spec, 9);
        assert_eq!(a.flatten_params(), b.flatten_params());
        let c = ModelArch::MiniResNet18.build(&spec, 10);
        assert_ne!(a.flatten_params(), c.flatten_params());
    }

    #[test]
    fn encoded_model_trains_and_verifies() {
        let cfg = TaskConfig::tiny();
        let addr = Address::from_seed(77);
        let mut model = cfg.build_encoded_model(&addr);
        let flat = model.flatten_params();
        assert!(cfg.verify_model_owner(&flat, &addr, cfg.lipschitz_c));
        assert!(!cfg.verify_model_owner(&flat, &Address::from_seed(78), cfg.lipschitz_c));

        // One training step must leave the AMLayer prefix untouched.
        let x = Tensor::ones(&[4, cfg.spec.channels, cfg.spec.height, cfg.spec.width]);
        let labels = vec![0, 1, 2, 3];
        let mut opt = cfg.optimizer.build();
        let logits = model.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        model.backward(&grad);
        model.step(opt.as_mut());
        let flat2 = model.flatten_params();
        assert!(cfg.verify_model_owner(&flat2, &addr, cfg.lipschitz_c));
        assert_ne!(flat, flat2, "trainable weights should move");
    }

    #[test]
    fn encoded_model_param_count() {
        let cfg = TaskConfig::tiny();
        let plain = cfg.build_model().param_count();
        let encoded = cfg
            .build_encoded_model(&Address::from_seed(1))
            .param_count();
        assert_eq!(encoded - plain, AmLayer::weight_count(cfg.amlayer_spec()));
    }
}
