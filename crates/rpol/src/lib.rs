//! # RPoL: robust and efficient proof of learning for secure pooled mining
//!
//! A from-scratch Rust reproduction of *"Secure Collaborative Learning in
//! Mining Pool via Robust and Efficient Verification"* (ICDCS 2023).
//!
//! A PoUW mining pool distributes a DNN training task over untrusted
//! workers. RPoL lets the pool manager verify, by sampled replay, that each
//! worker actually performed its training — while tolerating the inherent
//! reproduction errors of parallel hardware and keeping verification
//! traffic low. Three mechanisms make it work:
//!
//! 1. **Address-encoded model** ([`amlayer`]) — a frozen, spectrally
//!    normalized residual layer derived from the manager's blockchain
//!    address. It preserves accuracy, is cheap, and makes a stolen model
//!    worthless: swapping in another address's layer collapses accuracy.
//! 2. **Commitment-based secure sampling** ([`commitment`], [`worker`],
//!    [`manager`]) — workers train with PRF-deterministic batches,
//!    checkpoint every `i` steps, and commit to the ordered checkpoint
//!    digests *before* the manager reveals which checkpoints it samples.
//! 3. **LSH verification with adaptive calibration** ([`verify`],
//!    [`calibrate`]) — commitments carry p-stable LSH digests; the manager
//!    replays each sampled step and fuzzy-matches signatures, falling back
//!    to a raw-weight double-check so honest workers are never rejected.
//!
//! The [`pool`] module assembles everything into a runnable mining pool
//! with configurable adversaries; [`sampling`] and [`economics`] provide
//! the paper's Theorem 2/3 sample-count analysis.
//!
//! # Examples
//!
//! End-to-end: one honest worker, one epoch, verified with LSH:
//!
//! ```
//! use rpol::pool::{MiningPool, PoolConfig, Scheme};
//! use rpol::adversary::WorkerBehavior;
//!
//! let config = PoolConfig::tiny_demo(Scheme::RPoLv2);
//! let mut pool = MiningPool::new(config, vec![WorkerBehavior::Honest; 3]);
//! let report = pool.run();
//! assert_eq!(report.rejections(), 0); // honest workers always pass
//! ```

pub mod adversary;
pub mod amlayer;
pub mod calibrate;
pub mod client;
pub mod commitment;
pub mod committee;
pub mod economics;
pub mod judge;
pub mod manager;
pub mod mining;
pub(crate) mod poll;
pub mod pool;
pub mod sampling;
pub mod server;
pub mod tasks;
pub mod timing;
pub mod trainer;
pub mod transport;
pub mod verify;
pub mod wire;
pub mod worker;

pub use amlayer::AmLayer;
pub use calibrate::{CalibrationResult, Calibrator};
pub use pool::{MiningPool, PoolConfig, PoolReport, Scheme};
pub use transport::{FaultConfig, FaultProfile, RetryPolicy, Transport, TransportStats};
pub use verify::{VerificationOutcome, Verifier};
