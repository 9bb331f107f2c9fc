//! PoUW blockchain substrate (§III-A system setting).
//!
//! RPoL operates *inside* a mining pool; the pool itself is one consensus
//! node of a proof-of-useful-work blockchain where nodes compete to train
//! the best model for a task pulled from an on-chain task pool. This crate
//! provides that surrounding machinery:
//!
//! * [`task`] — the on-chain task pool: DNN training tasks with seeded
//!   datasets and a delayed test-set release (the test set only becomes
//!   visible once enough proposals arrived, preventing test-set training),
//! * [`block`] — blocks carrying the proposer's address and the digest of
//!   the trained model,
//! * [`consensus`] — the mining round: proposals are collected, the test
//!   set is released, every model is scored, the owner encoding (AMLayer)
//!   is checked, and the best-generalizing valid model wins,
//! * [`rewards`] — pool-side reward distribution proportional to verified
//!   worker contributions,
//! * [`ledger`] — the chain itself with parent-hash validation.
//!
//! The crate is model-agnostic: scoring and owner verification are
//! injected via the [`consensus::ModelJudge`] trait, implemented by the
//! `rpol` crate (which knows about AMLayers).

pub mod block;
pub mod consensus;
pub mod ledger;
pub mod rewards;
pub mod task;

pub use block::Block;
pub use consensus::{ConsensusRound, ModelJudge, Proposal, RoundOutcome};
pub use ledger::Ledger;
pub use task::{TaskPool, TrainingTask};
