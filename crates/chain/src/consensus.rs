//! The mining round: proposal collection, delayed test-set release,
//! scoring, owner verification, winner selection (§III-A stages B–C).

use crate::block::Block;
use crate::task::TrainingTask;
use rpol_crypto::{sha256::sha256_f32, Address, Digest};
use rpol_nn::data::SyntheticImages;

/// Judges submitted models on behalf of consensus.
///
/// Implemented by the `rpol` crate, which knows how to rebuild the task's
/// architecture from flat weights and how to recompute an AMLayer from a
/// blockchain address. Keeping this behind a trait lets the chain layer
/// stay independent of model architecture.
pub trait ModelJudge {
    /// Test accuracy of `weights` on the released test set.
    fn score(&self, weights: &[f32], test: &SyntheticImages) -> f32;

    /// Whether the model's embedded address encoding matches `claimed`
    /// (AMLayer re-derivation, §V-A). `lipschitz_c` is the scaling
    /// coefficient submitted with the block.
    fn verify_owner(&self, weights: &[f32], claimed: &Address, lipschitz_c: f32) -> bool;
}

/// A model proposal entering a consensus round.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// The proposed block (accuracy not yet scored).
    pub block: Block,
    /// Flattened model weights (on a real chain: fetched off-chain and
    /// checked against `block.model_digest`).
    pub weights: Vec<f32>,
}

/// Outcome of a closed round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The winning block, with `test_accuracy` filled in.
    pub winner: Block,
    /// Scored accuracy of every *valid* proposal, in submission order.
    pub scores: Vec<(Address, f32)>,
    /// Proposals rejected because owner verification failed (model-stealing
    /// attempts) or the weight digest mismatched.
    pub rejected: Vec<Address>,
}

/// A consensus round for one task.
///
/// The round holds the task's withheld test set hostage: it is only
/// materialized once `min_proposals` distinct proposers submitted, then
/// every proposal is scored and the best valid one wins.
pub struct ConsensusRound<'a> {
    task: &'a TrainingTask,
    parent: Digest,
    height: u64,
    min_proposals: usize,
    proposals: Vec<Proposal>,
}

impl<'a> ConsensusRound<'a> {
    /// Opens a round for `task` extending the block with hash `parent` at
    /// `height - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `min_proposals == 0`.
    pub fn open(task: &'a TrainingTask, parent: Digest, height: u64, min_proposals: usize) -> Self {
        assert!(min_proposals > 0, "need at least one proposal to close");
        Self {
            task,
            parent,
            height,
            min_proposals,
            proposals: Vec::new(),
        }
    }

    /// Submits a proposal.
    ///
    /// # Panics
    ///
    /// Panics if the block targets a different task, height, or parent —
    /// those are programming errors in the miner, not adversarial inputs
    /// (an adversarial chain fork is out of scope per §III-B: consensus
    ///-level attacks are handled by existing PoUW work).
    pub fn submit(&mut self, proposal: Proposal) {
        assert_eq!(proposal.block.task_id, self.task.id, "wrong task");
        assert_eq!(proposal.block.height, self.height, "wrong height");
        assert_eq!(proposal.block.parent, self.parent, "wrong parent");
        self.proposals.push(proposal);
    }

    /// Number of proposals so far.
    pub fn proposal_count(&self) -> usize {
        self.proposals.len()
    }

    /// Whether the test set may be released.
    fn can_close(&self) -> bool {
        self.proposals.len() >= self.min_proposals
    }

    /// Releases the test set, scores all proposals, verifies ownership and
    /// returns the winner.
    ///
    /// Returns `None` when no valid proposal exists.
    ///
    /// # Panics
    ///
    /// Panics with fewer than `min_proposals` proposals — the test set must
    /// stay hidden until enough independent proposals arrived.
    pub fn close(self, judge: &dyn ModelJudge) -> Option<RoundOutcome> {
        assert!(
            self.can_close(),
            "test set release requires {} proposals, have {}",
            self.min_proposals,
            self.proposals.len()
        );
        let test = self.task.test_data();
        let mut scores = Vec::new();
        let mut rejected = Vec::new();
        let mut best: Option<Block> = None;
        for p in &self.proposals {
            // Integrity: off-chain weights must match the on-chain digest.
            if sha256_f32(&p.weights) != p.block.model_digest {
                rejected.push(p.block.proposer);
                continue;
            }
            // Ownership: the model must encode the proposer's address.
            if !judge.verify_owner(&p.weights, &p.block.proposer, p.block.lipschitz_c) {
                rejected.push(p.block.proposer);
                continue;
            }
            let acc = judge.score(&p.weights, &test);
            scores.push((p.block.proposer, acc));
            let mut scored = p.block.clone();
            scored.test_accuracy = acc;
            match &best {
                Some(b) if b.test_accuracy >= acc => {}
                _ => best = Some(scored),
            }
        }
        best.map(|winner| RoundOutcome {
            winner,
            scores,
            rejected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_nn::data::ImageSpec;

    /// A toy judge: score = first weight clamped to [0,1]; owner valid when
    /// the second weight equals the first byte of the address.
    struct ToyJudge;

    impl ModelJudge for ToyJudge {
        fn score(&self, weights: &[f32], _test: &SyntheticImages) -> f32 {
            weights[0].clamp(0.0, 1.0)
        }

        fn verify_owner(&self, weights: &[f32], claimed: &Address, _c: f32) -> bool {
            weights[1] as u8 == claimed.as_bytes()[0]
        }
    }

    fn task() -> TrainingTask {
        TrainingTask::new(1, ImageSpec::tiny(), 40, 16, 5, 5)
    }

    fn proposal(task: &TrainingTask, seed: u64, score: f32, honest: bool) -> Proposal {
        let addr = Address::from_seed(seed);
        let w1 = if honest {
            addr.as_bytes()[0] as f32
        } else {
            // Claim someone else's model: encoding does not match.
            Address::from_seed(seed + 1000).as_bytes()[0] as f32
        };
        let weights = vec![score, w1, 0.0];
        Proposal {
            block: Block::new(1, Digest::ZERO, task.id, addr, &weights, 0.5),
            weights,
        }
    }

    #[test]
    fn best_valid_model_wins() {
        let t = task();
        let mut round = ConsensusRound::open(&t, Digest::ZERO, 1, 2);
        round.submit(proposal(&t, 1, 0.6, true));
        round.submit(proposal(&t, 2, 0.8, true));
        round.submit(proposal(&t, 3, 0.7, true));
        let outcome = round.close(&ToyJudge).expect("winner");
        assert_eq!(outcome.winner.proposer, Address::from_seed(2));
        assert!((outcome.winner.test_accuracy - 0.8).abs() < 1e-6);
        assert_eq!(outcome.scores.len(), 3);
        assert!(outcome.rejected.is_empty());
    }

    #[test]
    fn stolen_models_rejected() {
        let t = task();
        let mut round = ConsensusRound::open(&t, Digest::ZERO, 1, 2);
        round.submit(proposal(&t, 1, 0.9, false)); // thief with best score
        round.submit(proposal(&t, 2, 0.5, true));
        let outcome = round.close(&ToyJudge).expect("winner");
        assert_eq!(outcome.winner.proposer, Address::from_seed(2));
        assert_eq!(outcome.rejected, vec![Address::from_seed(1)]);
    }

    #[test]
    fn tampered_weights_rejected() {
        let t = task();
        let mut round = ConsensusRound::open(&t, Digest::ZERO, 1, 1);
        let mut p = proposal(&t, 1, 0.9, true);
        p.weights[0] = 0.99; // diverge from committed digest
        round.submit(p);
        assert!(round.close(&ToyJudge).is_none());
    }

    #[test]
    #[should_panic(expected = "test set release requires")]
    fn early_close_panics() {
        let t = task();
        let round = ConsensusRound::open(&t, Digest::ZERO, 1, 3);
        let _ = round.close(&ToyJudge);
    }

    #[test]
    #[should_panic(expected = "wrong task")]
    fn wrong_task_rejected() {
        let t = task();
        let t2 = TrainingTask::new(2, ImageSpec::tiny(), 40, 16, 6, 5);
        let mut round = ConsensusRound::open(&t, Digest::ZERO, 1, 1);
        round.submit(proposal(&t2, 1, 0.5, true));
    }
}
