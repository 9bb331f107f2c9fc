//! Hierarchical committee sharding: the two-tier verification topology.
//!
//! The flat manager holds every worker's commitments at once, so its
//! peak memory grows linearly with pool size. Here workers are
//! deterministically partitioned into committees by rendezvous (highest-
//! random-weight) hashing — churn moves only O(1/C) of the roster — and
//! each committee's sub-manager runs the existing sampled-replay
//! verification over its members, emitting a **Merkle-committed verdict
//! batch**: one canonical leaf per member verdict, tree built with
//! `rpol_crypto::merkle`. The top manager ingests only committee roots
//! plus per-committee stats, then spot-audits each committee by
//! re-sampling `q_top` verdicts — checking Merkle inclusion proofs and
//! re-replaying the audited samples itself. The soundness algebra of
//! Theorem 2 applies per tier; DESIGN.md §15 derives the composed bound.
//!
//! Everything in this module is a pure deterministic function of its
//! inputs: partitioning, leaf encoding, and audit index selection never
//! touch the manager's RNG stream, which is what keeps hierarchical runs
//! bitwise-identical to flat runs at equal sampling parameters.

use crate::verify::{RejectReason, VerificationOutcome, WorkerVerdict};
use rpol_crypto::merkle::{MerkleProof, MerkleTree};
use rpol_crypto::Digest;
use rpol_tensor::rng::Pcg32;
use serde::Serialize;

/// Two-tier verification parameters: how many committees the roster is
/// sharded into and how many verdicts the top manager re-audits per
/// committee batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Hierarchy {
    /// Number of committees `C` the roster is rendezvous-partitioned into.
    pub committees: usize,
    /// Verdicts the top manager spot-audits per committee (`q_top`): each
    /// audit verifies a Merkle inclusion proof and re-replays the audited
    /// worker's samples. Clamped to the committee's verdict count.
    pub q_top: usize,
}

impl Hierarchy {
    /// Creates a hierarchy config, rejecting degenerate parameters.
    ///
    /// # Errors
    ///
    /// `committees == 0` (no committee to assign workers to).
    pub fn new(committees: usize, q_top: usize) -> Result<Self, String> {
        if committees == 0 {
            return Err("--committees must be at least 1".to_string());
        }
        Ok(Self { committees, q_top })
    }

    /// Validates the config against a concrete roster: `q_top` may not
    /// exceed the verdict count of the *smallest* non-empty committee —
    /// an audit of more verdicts than a batch holds is a configuration
    /// error, not something to silently clamp at scale.
    ///
    /// # Errors
    ///
    /// Describes the offending parameter.
    pub fn validate(&self, n_workers: usize, seed: u64) -> Result<(), String> {
        if self.committees == 0 {
            return Err("--committees must be at least 1".to_string());
        }
        let smallest = partition(seed, n_workers, self.committees)
            .iter()
            .filter(|members| !members.is_empty())
            .map(|members| members.len())
            .min()
            .unwrap_or(0);
        if self.q_top > smallest {
            return Err(format!(
                "--committee-audit {} exceeds the smallest committee's verdict \
                 count ({smallest}) for {n_workers} workers in {} committees",
                self.q_top, self.committees
            ));
        }
        Ok(())
    }
}

/// SplitMix64 finalizer: the cheap statistically-strong mixer behind the
/// rendezvous weights and audit PRF. Cryptographic strength is not needed
/// here — assignment must only be deterministic and balanced; commitment
/// binding comes from the Merkle tree, not from the partition.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The rendezvous weight of `(worker, committee)` under `seed`.
fn hrw_weight(seed: u64, worker: usize, committee: usize) -> u64 {
    mix64(
        mix64(seed ^ 0x434F_4D4D_5254_4545) // "COMMRTEE"
            ^ mix64(worker as u64 ^ 0x574B)
            ^ mix64(committee as u64 ^ 0x4354),
    )
}

/// The committee `worker` lands in: the committee with the highest
/// rendezvous weight. Adding or removing a committee reassigns only the
/// workers whose maximum moved — O(1/C) of the roster in expectation —
/// unlike modular assignment, which reshuffles almost everyone.
///
/// # Panics
///
/// Panics if `committees == 0`.
fn rendezvous_committee(seed: u64, worker: usize, committees: usize) -> usize {
    assert!(committees > 0, "need at least one committee");
    (0..committees)
        .max_by_key(|&c| (hrw_weight(seed, worker, c), std::cmp::Reverse(c)))
        .expect("nonempty range")
}

/// Partitions workers `0..n` into `committees` member lists, each sorted
/// ascending. Committees can be empty when `committees > n`.
///
/// # Panics
///
/// Panics if `committees == 0`.
pub fn partition(seed: u64, n: usize, committees: usize) -> Vec<Vec<usize>> {
    assert!(committees > 0, "need at least one committee");
    let mut members = vec![Vec::new(); committees];
    for w in 0..n {
        members[rendezvous_committee(seed, w, committees)].push(w);
    }
    members
}

/// Canonical verdict-leaf tags. One byte per outcome variant; the encoding
/// is exact (f32 fields travel as raw LE bits), so decode∘encode is the
/// identity and two verdicts encode identically iff they are equal.
const LEAF_ACCEPTED: u8 = 0x01;
const LEAF_ACCEPTED_DOUBLE_CHECKED: u8 = 0x02;
const LEAF_REJECT_INPUT: u8 = 0x03;
const LEAF_REJECT_OUTPUT: u8 = 0x04;
const LEAF_REJECT_DISTANCE: u8 = 0x05;
const LEAF_REJECT_MALFORMED: u8 = 0x06;
const LEAF_UNAVAILABLE: u8 = 0x07;

/// Encodes one `(worker, verdict)` pair as the canonical Merkle leaf:
///
/// ```text
/// worker:u64 | proof_bytes:u64 | replayed_steps:u64 | count:u32
///   then per outcome: sample:u32 | tag:u8 [| distance:f32le | beta:f32le]
/// ```
///
/// All integers little-endian. The encoding is injective over well-formed
/// verdicts, so a committee cannot equivocate: any change to a verdict
/// changes its leaf, hence the batch root.
pub fn encode_verdict_leaf(worker: usize, verdict: &WorkerVerdict) -> Vec<u8> {
    let mut out = Vec::with_capacity(28 + verdict.outcomes.len() * 13);
    out.extend_from_slice(&(worker as u64).to_le_bytes());
    out.extend_from_slice(&verdict.proof_bytes.to_le_bytes());
    out.extend_from_slice(&verdict.replayed_steps.to_le_bytes());
    out.extend_from_slice(&(verdict.outcomes.len() as u32).to_le_bytes());
    for &(sample, outcome) in &verdict.outcomes {
        out.extend_from_slice(&(sample as u32).to_le_bytes());
        match outcome {
            VerificationOutcome::Accepted { double_checked } => {
                out.push(if double_checked {
                    LEAF_ACCEPTED_DOUBLE_CHECKED
                } else {
                    LEAF_ACCEPTED
                });
            }
            VerificationOutcome::Rejected(RejectReason::InputCommitmentMismatch) => {
                out.push(LEAF_REJECT_INPUT);
            }
            VerificationOutcome::Rejected(RejectReason::OutputCommitmentMismatch) => {
                out.push(LEAF_REJECT_OUTPUT);
            }
            VerificationOutcome::Rejected(RejectReason::DistanceExceeded { distance, beta }) => {
                out.push(LEAF_REJECT_DISTANCE);
                out.extend_from_slice(&distance.to_bits().to_le_bytes());
                out.extend_from_slice(&beta.to_bits().to_le_bytes());
            }
            VerificationOutcome::Rejected(RejectReason::MalformedWeights) => {
                out.push(LEAF_REJECT_MALFORMED);
            }
            VerificationOutcome::Unavailable => out.push(LEAF_UNAVAILABLE),
        }
    }
    out
}

/// Decodes a canonical verdict leaf. Exact inverse of
/// [`encode_verdict_leaf`]; trailing bytes are rejected.
///
/// # Errors
///
/// A static description of the malformation.
pub fn decode_verdict_leaf(bytes: &[u8]) -> Result<(usize, WorkerVerdict), &'static str> {
    let mut pos = 0usize;
    let mut take = |n: usize| -> Result<&[u8], &'static str> {
        let end = pos.checked_add(n).ok_or("leaf length overflow")?;
        let slice = bytes.get(pos..end).ok_or("truncated verdict leaf")?;
        pos = end;
        Ok(slice)
    };
    let u64_of = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let u32_of = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
    let worker = u64_of(take(8)?) as usize;
    let proof_bytes = u64_of(take(8)?);
    let replayed_steps = u64_of(take(8)?);
    let count = u32_of(take(4)?) as usize;
    // A verdict holds at most one outcome per sampled checkpoint; a count
    // beyond the remaining bytes is hostile, not just truncated.
    if count > bytes.len() {
        return Err("verdict outcome count exceeds leaf length");
    }
    let mut outcomes = Vec::with_capacity(count);
    for _ in 0..count {
        let sample = u32_of(take(4)?) as usize;
        let tag = take(1)?[0];
        let outcome = match tag {
            LEAF_ACCEPTED => VerificationOutcome::Accepted {
                double_checked: false,
            },
            LEAF_ACCEPTED_DOUBLE_CHECKED => VerificationOutcome::Accepted {
                double_checked: true,
            },
            LEAF_REJECT_INPUT => {
                VerificationOutcome::Rejected(RejectReason::InputCommitmentMismatch)
            }
            LEAF_REJECT_OUTPUT => {
                VerificationOutcome::Rejected(RejectReason::OutputCommitmentMismatch)
            }
            LEAF_REJECT_DISTANCE => {
                let distance = f32::from_bits(u32_of(take(4)?));
                let beta = f32::from_bits(u32_of(take(4)?));
                VerificationOutcome::Rejected(RejectReason::DistanceExceeded { distance, beta })
            }
            LEAF_REJECT_MALFORMED => VerificationOutcome::Rejected(RejectReason::MalformedWeights),
            LEAF_UNAVAILABLE => VerificationOutcome::Unavailable,
            _ => return Err("unknown verdict outcome tag"),
        };
        outcomes.push((sample, outcome));
    }
    if pos != bytes.len() {
        return Err("trailing bytes after verdict leaf");
    }
    Ok((
        worker,
        WorkerVerdict {
            outcomes,
            proof_bytes,
            replayed_steps,
        },
    ))
}

/// A committee's Merkle-committed verdict batch — the only thing the top
/// manager ingests from a sub-manager besides byte counts: the root binds
/// every member verdict, the verdict list is the opening the top manager
/// spot-audits against it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CommitteeBatch {
    /// Epoch the batch belongs to.
    pub epoch: u64,
    /// The committee's index in `0..C`.
    pub committee: usize,
    /// Merkle root over the canonical verdict leaves, in member order.
    pub root: Digest,
    /// The member verdicts, in ascending worker order.
    pub verdicts: Vec<(usize, WorkerVerdict)>,
    /// Commitment bytes the sub-manager had resident while verifying this
    /// committee (drives the pool's peak-memory accounting).
    pub commit_bytes: u64,
}

impl CommitteeBatch {
    /// Builds a batch from member verdicts, committing to them with a
    /// Merkle tree over the canonical leaf encodings.
    ///
    /// # Panics
    ///
    /// Panics if `verdicts` is empty (empty committees emit no batch).
    pub fn from_verdicts(
        epoch: u64,
        committee: usize,
        verdicts: Vec<(usize, WorkerVerdict)>,
        commit_bytes: u64,
    ) -> Self {
        assert!(!verdicts.is_empty(), "empty committee batch");
        let root = Self::tree_of(&verdicts).root();
        Self {
            epoch,
            committee,
            root,
            verdicts,
            commit_bytes,
        }
    }

    fn tree_of(verdicts: &[(usize, WorkerVerdict)]) -> MerkleTree {
        let leaves: Vec<Vec<u8>> = verdicts
            .iter()
            .map(|(w, v)| encode_verdict_leaf(*w, v))
            .collect();
        let refs: Vec<&[u8]> = leaves.iter().map(|l| l.as_slice()).collect();
        MerkleTree::from_leaves(&refs)
    }

    /// The top manager's ingest check, from one tree build: `None` when the
    /// stored root does not cover the verdict list (equivocation), else an
    /// inclusion proof for each position in `indices`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn audit_proofs(&self, indices: &[usize]) -> Option<Vec<MerkleProof>> {
        let tree = Self::tree_of(&self.verdicts);
        (tree.root() == self.root).then(|| indices.iter().map(|&i| tree.prove(i)).collect())
    }

    /// Verifies that `(worker, verdict)` sits at `proof.leaf_index` under
    /// this batch's root.
    pub fn verify_inclusion(
        &self,
        proof: &MerkleProof,
        worker: usize,
        verdict: &WorkerVerdict,
    ) -> bool {
        proof.verify(self.root, &encode_verdict_leaf(worker, verdict))
    }
}

/// The top manager's audit selection: `q_top` distinct verdict positions
/// in `0..leaf_count`, drawn from a PRF keyed on `(seed, epoch,
/// committee)` — deliberately **not** the manager's RNG, whose stream must
/// stay identical between flat and hierarchical runs. Returned sorted.
pub fn audit_indices(
    seed: u64,
    epoch: u64,
    committee: usize,
    q_top: usize,
    leaf_count: usize,
) -> Vec<usize> {
    let q = q_top.min(leaf_count);
    if q == 0 {
        return Vec::new();
    }
    let mut rng = Pcg32::new(
        mix64(seed ^ 0x4155_4449_545F_5052), // "AUDIT_PR"
        mix64(epoch ^ mix64(committee as u64)) | 1,
    );
    // Partial Fisher–Yates: the first q slots of a virtual 0..leaf_count
    // shuffle, tracked sparsely so audits stay O(q) even at 10⁶ leaves.
    let mut swapped = std::collections::HashMap::new();
    let mut picked = Vec::with_capacity(q);
    for i in 0..q {
        let j = i + (rng.next_u64() % (leaf_count - i) as u64) as usize;
        let vi = *swapped.get(&i).unwrap_or(&i);
        let vj = *swapped.get(&j).unwrap_or(&j);
        picked.push(vj);
        swapped.insert(j, vi);
    }
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_verdict(seed: u32) -> WorkerVerdict {
        WorkerVerdict {
            outcomes: vec![
                (
                    seed as usize,
                    VerificationOutcome::Accepted {
                        double_checked: seed.is_multiple_of(2),
                    },
                ),
                (
                    seed as usize + 3,
                    VerificationOutcome::Rejected(RejectReason::DistanceExceeded {
                        distance: 0.25 + seed as f32,
                        beta: 0.125,
                    }),
                ),
            ],
            proof_bytes: 1000 + seed as u64,
            replayed_steps: 7 + seed as u64,
        }
    }

    #[test]
    fn partition_covers_every_worker_once() {
        let parts = partition(42, 1000, 7);
        assert_eq!(parts.len(), 7);
        let mut seen = vec![false; 1000];
        for members in &parts {
            assert!(members.windows(2).all(|w| w[0] < w[1]), "sorted members");
            for &w in members {
                assert!(!seen[w], "worker {w} assigned twice");
                seen[w] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every worker assigned");
    }

    #[test]
    fn partition_is_roughly_balanced() {
        let parts = partition(7, 10_000, 16);
        let expect = 10_000 / 16;
        for (c, members) in parts.iter().enumerate() {
            assert!(
                members.len() > expect / 2 && members.len() < expect * 2,
                "committee {c} holds {} workers (expected ~{expect})",
                members.len()
            );
        }
    }

    #[test]
    fn churn_moves_few_workers_when_committee_count_grows() {
        // Rendezvous property: going from C to C+1 committees moves only
        // the workers whose new committee won their rendezvous — about
        // n/(C+1), not the near-n a modular partition would move.
        let n = 4000;
        let before: Vec<usize> = (0..n).map(|w| rendezvous_committee(5, w, 8)).collect();
        let after: Vec<usize> = (0..n).map(|w| rendezvous_committee(5, w, 9)).collect();
        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        // Expectation is n/9 ≈ 444; allow generous slack, but far below
        // the ~n * 8/9 a modular scheme would reshuffle.
        assert!(moved < n / 4, "churn moved {moved} of {n} workers");
        assert!(moved > 0, "growing C must move someone");
    }

    #[test]
    fn verdict_leaf_roundtrips_exactly() {
        for seed in 0..6 {
            let verdict = sample_verdict(seed);
            let leaf = encode_verdict_leaf(seed as usize * 11, &verdict);
            let (worker, decoded) = decode_verdict_leaf(&leaf).expect("roundtrip");
            assert_eq!(worker, seed as usize * 11);
            assert_eq!(decoded, verdict);
        }
    }

    #[test]
    fn verdict_leaf_rejects_truncation_and_trailing() {
        let leaf = encode_verdict_leaf(3, &sample_verdict(1));
        for cut in 0..leaf.len() {
            assert!(decode_verdict_leaf(&leaf[..cut]).is_err(), "cut {cut}");
        }
        let mut extended = leaf.clone();
        extended.push(0);
        assert!(decode_verdict_leaf(&extended).is_err());
    }

    #[test]
    fn batch_commits_and_audits() {
        let verdicts: Vec<(usize, WorkerVerdict)> =
            (0..5).map(|w| (w, sample_verdict(w as u32))).collect();
        let batch = CommitteeBatch::from_verdicts(2, 1, verdicts, 4096);
        let proofs = batch
            .audit_proofs(&[0, 1, 2, 3, 4])
            .expect("root covers the verdicts");
        for (i, proof) in proofs.iter().enumerate() {
            let (w, v) = &batch.verdicts[i];
            assert!(batch.verify_inclusion(proof, *w, v));
            // A swapped verdict fails inclusion.
            let other = &batch.verdicts[(i + 1) % 5];
            assert!(!batch.verify_inclusion(proof, other.0, &other.1));
        }
    }

    #[test]
    fn tampered_batch_root_is_inconsistent() {
        let verdicts: Vec<(usize, WorkerVerdict)> =
            (0..4).map(|w| (w, sample_verdict(w as u32))).collect();
        let mut batch = CommitteeBatch::from_verdicts(0, 0, verdicts, 0);
        batch.verdicts[2].1.proof_bytes ^= 1;
        assert!(batch.audit_proofs(&[]).is_none());
    }

    #[test]
    fn audit_indices_distinct_sorted_deterministic() {
        for leaf_count in [1usize, 2, 5, 33, 1000] {
            for q in [0usize, 1, 3, 40] {
                let a = audit_indices(9, 4, 2, q, leaf_count);
                let b = audit_indices(9, 4, 2, q, leaf_count);
                assert_eq!(a, b, "deterministic");
                assert_eq!(a.len(), q.min(leaf_count));
                assert!(a.windows(2).all(|w| w[0] < w[1]), "distinct sorted: {a:?}");
                assert!(a.iter().all(|&i| i < leaf_count));
            }
        }
        // Different committees audit different positions (almost surely).
        let x = audit_indices(9, 4, 0, 3, 1000);
        let y = audit_indices(9, 4, 1, 3, 1000);
        assert_ne!(x, y);
    }

    #[test]
    fn hierarchy_validation_rejects_degenerate_configs() {
        assert!(Hierarchy::new(0, 1).is_err());
        let h = Hierarchy::new(4, 100).expect("valid shape");
        assert!(h.validate(8, 7).is_err(), "q_top larger than committees");
        let h = Hierarchy::new(2, 1).expect("valid");
        assert!(h.validate(8, 7).is_ok());
    }
}
