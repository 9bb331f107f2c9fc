//! p-stable locality-sensitive hashing for Euclidean distance (§II-C, §V-C).
//!
//! RPoL replaces raw-weight comparison with LSH fuzzy matching so that a
//! worker only ships the *input* weights of a sampled checkpoint plus a
//! compact LSH digest of the output — roughly halving verification traffic
//! while still tolerating the inherent reproduction errors of DNN training.
//!
//! The crate provides:
//!
//! * [`pstable`] — the 2-stable (Gaussian) hash family
//!   `h(x) = ⌊(a·x + b)/r⌋` with `l` groups of `k` functions, seeded from a
//!   shared PRF key so the manager and workers derive identical families,
//! * [`probability`] — the closed-form collision model: per-hash collision
//!   probability `p(c/r)` and the family matching probability
//!   `Pr_lsh(c, r, k, l) = 1 - (1 - p^k)^l` (paper Fig. 1),
//! * [`tuning`] — the multi-objective parameter optimizer of Eq. 6, which
//!   minimizes the false-negative proxy `1 - Pr_lsh(α)` and false-positive
//!   proxy `Pr_lsh(β)` by simple additive weighting under the compute
//!   budget `k·l ≤ K_lsh`,
//! * [`matching`] — signature comparison and digesting for commitments.
//!
//! # Examples
//!
//! ```
//! use rpol_lsh::pstable::{LshFamily, LshParams};
//!
//! let params = LshParams::new(4.0, 4, 4);
//! let family = LshFamily::new(8, params, 42);
//! let x = vec![1.0; 8];
//! let mut y = x.clone();
//! y[0] += 1e-4; // tiny "reproduction error"
//! assert!(family.hash(&x).matches(&family.hash(&y)));
//! ```

pub mod matching;
pub mod probability;
pub mod pstable;
pub mod tuning;

pub use matching::Signature;
pub use probability::matching_probability;
pub use pstable::{LshFamily, LshParams};
pub use tuning::{tune, TuningConfig, TuningOutcome};
