//! Blocks of the PoUW chain.

use rpol_crypto::sha256::{sha256_f32, Digest, Sha256};
use rpol_crypto::Address;
use serde::Serialize;

/// A block proposed by a consensus node (stage C of §III-A).
///
/// The block binds the proposer's address, the task it solves, and the
/// digest of the submitted model weights; the winning model's rewards are
/// sent to the *address encoded inside the model* (via the AMLayer), which
/// consensus checks against `proposer`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Block {
    /// Height in the chain (genesis = 0).
    pub height: u64,
    /// Hash of the parent block header.
    pub parent: Digest,
    /// The task this block solves.
    pub task_id: u64,
    /// The proposing consensus node (pool manager or solo miner).
    pub proposer: Address,
    /// SHA-256 of the submitted model's flattened weights.
    pub model_digest: Digest,
    /// Test accuracy as scored by consensus (set when the round closes).
    pub test_accuracy: f32,
    /// AMLayer Lipschitz coefficient `c` submitted with the model (§V-A);
    /// consensus nodes need it to re-derive the AMLayer.
    pub lipschitz_c: f32,
}

impl Block {
    /// Assembles a proposal block (accuracy filled by consensus later).
    pub fn new(
        height: u64,
        parent: Digest,
        task_id: u64,
        proposer: Address,
        model_weights: &[f32],
        lipschitz_c: f32,
    ) -> Self {
        Self {
            height,
            parent,
            task_id,
            proposer,
            model_digest: sha256_f32(model_weights),
            test_accuracy: 0.0,
            lipschitz_c,
        }
    }

    /// The genesis block.
    pub fn genesis() -> Self {
        Self {
            height: 0,
            parent: Digest::ZERO,
            task_id: 0,
            proposer: Address::from_seed(0),
            model_digest: Digest::ZERO,
            test_accuracy: 0.0,
            lipschitz_c: 0.0,
        }
    }

    /// The header hash linking children to this block. Accuracy is part of
    /// the header since consensus agreed on it.
    pub fn header_hash(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(&self.height.to_be_bytes());
        h.update(self.parent.as_bytes());
        h.update(&self.task_id.to_be_bytes());
        h.update(self.proposer.as_bytes());
        h.update(self.model_digest.as_bytes());
        h.update(&self.test_accuracy.to_le_bytes());
        h.update(&self.lipschitz_c.to_le_bytes());
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_hash_binds_fields() {
        let weights = vec![0.5f32; 10];
        let base = Block::new(1, Digest::ZERO, 7, Address::from_seed(1), &weights, 0.5);
        let mut other = base.clone();
        other.task_id = 8;
        assert_ne!(base.header_hash(), other.header_hash());
        let mut other = base.clone();
        other.test_accuracy = 0.9;
        assert_ne!(base.header_hash(), other.header_hash());
    }

    #[test]
    fn model_digest_binds_weights() {
        let a = Block::new(1, Digest::ZERO, 7, Address::from_seed(1), &[1.0, 2.0], 0.5);
        let b = Block::new(1, Digest::ZERO, 7, Address::from_seed(1), &[1.0, 2.1], 0.5);
        assert_ne!(a.model_digest, b.model_digest);
    }

    #[test]
    fn genesis_is_height_zero() {
        let g = Block::genesis();
        assert_eq!(g.height, 0);
        assert_eq!(g.parent, Digest::ZERO);
    }
}
