//! From-scratch deep-learning substrate for the RPoL reproduction.
//!
//! The paper trains PyTorch ResNets on CIFAR; this crate provides the
//! minimal equivalent needed to exercise RPoL's protocol end-to-end on a
//! CPU: explicit-gradient layers (no autograd), the four optimizers the
//! paper evaluates (SGD, SGDM, RMSprop, Adam), softmax cross-entropy, and
//! seeded synthetic image datasets standing in for CIFAR-10/100.
//!
//! Everything is deterministic given its seeds — a hard requirement, since
//! RPoL's verifier must be able to *replay* a training step bit-for-bit
//! (reproduction error is then injected explicitly by `rpol-sim`, never by
//! accident).
//!
//! # Examples
//!
//! Train a tiny classifier for a few steps:
//!
//! ```
//! use rpol_nn::prelude::*;
//! use rpol_tensor::rng::Pcg32;
//!
//! let mut rng = Pcg32::seed_from(0);
//! let data = SyntheticImages::generate(&ImageSpec::tiny(), 64, &mut rng);
//! let mut model = Sequential::new(vec![
//!     Box::new(Flatten::new()),
//!     Box::new(Dense::new(data.spec().pixel_count(), 16, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(16, data.spec().classes, &mut rng)),
//! ]);
//! let mut opt = Sgd::new(0.1);
//! let (x, y) = data.batch(&[0, 1, 2, 3]);
//! let logits = model.forward(&x, true);
//! let (loss, grad) = softmax_cross_entropy(&logits, &y);
//! assert!(loss > 0.0);
//! model.backward(&grad);
//! model.step(&mut opt);
//! ```

pub mod activation;
pub mod conv;
pub mod data;
pub mod dense;
pub mod dropout;
pub mod layer;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod norm;
pub mod optim;
pub mod pool;
pub mod residual;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::activation::Relu;
    pub use crate::conv::Conv2d;
    pub use crate::data::{ImageSpec, SyntheticImages};
    pub use crate::dense::Dense;
    pub use crate::dropout::Dropout;
    pub use crate::layer::{Flatten, Layer, Param};
    pub use crate::loss::softmax_cross_entropy;
    pub use crate::metrics::accuracy;
    pub use crate::model::Sequential;
    pub use crate::optim::{Adam, Optimizer, RmsProp, Sgd, SgdMomentum};
    pub use crate::pool::{AvgPool2, MaxPool2};
    pub use crate::residual::Residual;
}
