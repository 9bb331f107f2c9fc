//! Epoch commitments over checkpoint sequences (§V-B, §V-C).
//!
//! At the end of an epoch a worker commits to its ordered checkpoints
//! *before* learning which ones will be sampled:
//!
//! * **RPoLv1** commits to the SHA-256 of each checkpoint's raw weights;
//!   opening a sample means shipping both raw weight vectors.
//! * **RPoLv2** commits to the per-group LSH digests of each checkpoint's
//!   weights; opening a sample means shipping only the *input* weights —
//!   the output is checked by fuzzy-matching the replayed weights' LSH
//!   signature against the committed group digests.
//! * **RPoLv3** commits to the bf16 **lattice image** of each checkpoint:
//!   the LSH group digests of the quantized weights plus one SHA-256 over
//!   the packed 2-byte image. V3 workers train *on* the lattice (weights
//!   are snapped at every checkpoint boundary), so the image is the
//!   checkpoint — the quant digest is an exact V1-grade binding at half
//!   the hashed bytes, and the LSH entries drive the fuzzy accept with a
//!   raw-distance escape hatch for borderline (single-group) matches.

use crate::pool::Scheme;
use rpol_crypto::commitment::{Commitment, HashListCommitment};
use rpol_crypto::sha256::{Digest, Sha256};
use rpol_lsh::{LshFamily, Signature};
use serde::{Deserialize, Serialize};

/// An RPoLv2 commitment: ordered per-checkpoint LSH group digests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LshCommitment {
    entries: Vec<Vec<Digest>>,
}

impl LshCommitment {
    /// Commits to checkpoints by hashing each with the epoch's LSH family.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoints` is empty or any checkpoint's length
    /// mismatches the family dimension.
    pub fn commit(checkpoints: &[Vec<f32>], family: &LshFamily) -> Self {
        assert!(!checkpoints.is_empty(), "no checkpoints to commit");
        // One streamed pass derives each projection row once for every
        // checkpoint, and one batch-hash pass digests every group — bitwise
        // identical to the per-checkpoint `family.hash(w).group_digests()`
        // chain.
        let refs: Vec<&[f32]> = checkpoints.iter().map(|w| w.as_slice()).collect();
        let signatures = family.hash_batch(&refs);
        let entries = Signature::group_digests_batch(&signatures);
        Self { entries }
    }

    /// Reassembles a commitment from raw per-checkpoint group digests
    /// (the wire-decoding path).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty, any entry is empty, or entries have
    /// unequal group counts.
    pub fn from_entries(entries: Vec<Vec<Digest>>) -> Self {
        assert!(!entries.is_empty(), "no committed checkpoints");
        let l = entries[0].len();
        assert!(l > 0, "empty group digest list");
        assert!(
            entries.iter().all(|e| e.len() == l),
            "inconsistent group counts"
        );
        Self { entries }
    }

    /// The committed group digests for checkpoint `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn entry(&self, index: usize) -> &[Digest] {
        &self.entries[index]
    }

    /// Number of committed checkpoints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the commitment is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A single digest binding the whole commitment.
    pub fn value(&self) -> Digest {
        let mut h = Sha256::new();
        for entry in &self.entries {
            for d in entry {
                h.update(d.as_bytes());
            }
        }
        h.finalize()
    }

    /// Bytes crossing the wire when the commitment is submitted
    /// (`32 · l` per checkpoint).
    pub fn wire_size(&self) -> usize {
        self.entries.iter().map(|e| e.len() * 32).sum()
    }
}

/// An RPoLv3 commitment: per-checkpoint LSH group digests over the bf16
/// lattice image, plus one SHA-256 of the packed 2-byte image.
///
/// Committing always quantizes: the committed object is the checkpoint's
/// bf16 image regardless of what the caller passes. V3 workers keep their
/// checkpoints *on* the lattice (the trainer snaps at every boundary), so
/// for them the image is the checkpoint itself and the quant digest binds
/// the full-precision weights exactly — the verifier enforces lattice
/// membership on every opened checkpoint, making the 2-byte digest as
/// binding as RPoLv1's 4-byte one at half the hashed bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantCommitment {
    lsh: LshCommitment,
    quant_digests: Vec<Digest>,
}

impl QuantCommitment {
    /// Commits to the bf16 images of `checkpoints` with the epoch's LSH
    /// family.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoints` is empty or any checkpoint's length
    /// mismatches the family dimension.
    pub fn commit(checkpoints: &[Vec<f32>], family: &LshFamily) -> Self {
        // Snap every checkpoint onto the lattice (a no-op image copy for
        // V3-trained checkpoints), then reuse the streamed LSH pass and the
        // multi-lane hash pipelines over the quantized weights.
        let images: Vec<Vec<f32>> = checkpoints
            .iter()
            .map(|w| rpol_tensor::quant::bf16_image(w))
            .collect();
        let lsh = LshCommitment::commit(&images, family);
        let refs: Vec<&[f32]> = images.iter().map(|w| w.as_slice()).collect();
        let quant_digests = rpol_crypto::sha256_bf16_batch(&refs);
        Self { lsh, quant_digests }
    }

    /// Reassembles a commitment from raw per-checkpoint group digests and
    /// packed-image digests (the wire-decoding path).
    ///
    /// # Panics
    ///
    /// Panics if the parts are empty, disagree in checkpoint count, or
    /// entries have inconsistent group counts.
    pub fn from_parts(entries: Vec<Vec<Digest>>, quant_digests: Vec<Digest>) -> Self {
        assert_eq!(
            entries.len(),
            quant_digests.len(),
            "entry/digest count mismatch"
        );
        Self {
            lsh: LshCommitment::from_entries(entries),
            quant_digests,
        }
    }

    /// The committed LSH group digests for checkpoint `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn entry(&self, index: usize) -> &[Digest] {
        self.lsh.entry(index)
    }

    /// The committed packed-image digest for checkpoint `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn quant_digest(&self, index: usize) -> &Digest {
        &self.quant_digests[index]
    }

    /// All committed packed-image digests, in checkpoint order.
    pub fn quant_digests(&self) -> &[Digest] {
        &self.quant_digests
    }

    /// Number of committed checkpoints.
    pub fn len(&self) -> usize {
        self.lsh.len()
    }

    /// Whether the commitment is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.lsh.is_empty()
    }

    /// A single digest binding the whole commitment.
    pub fn value(&self) -> Digest {
        let mut h = Sha256::new();
        for (entry, qd) in self.lsh.entries.iter().zip(&self.quant_digests) {
            for d in entry {
                h.update(d.as_bytes());
            }
            h.update(qd.as_bytes());
        }
        h.finalize()
    }

    /// Bytes crossing the wire when the commitment is submitted
    /// (`32 · (l + 1)` per checkpoint).
    pub fn wire_size(&self) -> usize {
        self.lsh.wire_size() + self.quant_digests.len() * 32
    }
}

/// A scheme-tagged epoch commitment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EpochCommitment {
    /// Raw-hash commitment (RPoLv1).
    V1(HashListCommitment),
    /// LSH commitment (RPoLv2).
    V2(LshCommitment),
    /// Quantized lattice commitment (RPoLv3).
    V3(QuantCommitment),
}

impl EpochCommitment {
    /// Builds the RPoLv1 commitment over raw checkpoint weights.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoints` is empty.
    pub fn commit_v1(checkpoints: &[Vec<f32>]) -> Self {
        assert!(!checkpoints.is_empty(), "no checkpoints to commit");
        // All checkpoint digests in one multi-lane pass: checkpoints share
        // a length, so the batch hasher keeps every SIMD lane occupied.
        let refs: Vec<&[f32]> = checkpoints.iter().map(|w| w.as_slice()).collect();
        let digests: Vec<Digest> = rpol_crypto::sha256_f32_batch(&refs);
        let commitment = EpochCommitment::V1(HashListCommitment::commit(&digests));
        commitment.count_commit(checkpoints.len());
        commitment
    }

    /// Builds the RPoLv2 commitment with the epoch's LSH family.
    pub fn commit_v2(checkpoints: &[Vec<f32>], family: &LshFamily) -> Self {
        let commitment = EpochCommitment::V2(LshCommitment::commit(checkpoints, family));
        commitment.count_commit(checkpoints.len());
        commitment
    }

    /// Builds the RPoLv3 quantized commitment with the epoch's LSH family.
    pub fn commit_v3(checkpoints: &[Vec<f32>], family: &LshFamily) -> Self {
        let commitment = EpochCommitment::V3(QuantCommitment::commit(checkpoints, family));
        commitment.count_commit(checkpoints.len());
        commitment
    }

    /// Bumps the process-wide commit counters. Workers commit from inside
    /// training threads, so this leaf cannot thread an explicit recorder;
    /// the counters are plain atomics and scheduling-independent.
    fn count_commit(&self, checkpoints: usize) {
        if rpol_obs::global_enabled() {
            let rec = rpol_obs::global();
            rec.counter_add("rpol.commit.epochs", 1);
            rec.counter_add("rpol.commit.checkpoints", checkpoints as u64);
            rec.counter_add("rpol.commit.wire_bytes", self.wire_size() as u64);
        }
    }

    /// The scheme whose workers build this kind of commitment.
    pub(crate) fn scheme(&self) -> Scheme {
        match self {
            EpochCommitment::V1(_) => Scheme::RPoLv1,
            EpochCommitment::V2(_) => Scheme::RPoLv2,
            EpochCommitment::V3(_) => Scheme::RPoLv3,
        }
    }

    /// Number of committed checkpoints.
    pub fn len(&self) -> usize {
        match self {
            EpochCommitment::V1(c) => c.len(),
            EpochCommitment::V2(c) => c.len(),
            EpochCommitment::V3(c) => c.len(),
        }
    }

    /// Whether no checkpoints are committed (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes crossing the wire at submission time.
    pub fn wire_size(&self) -> usize {
        match self {
            EpochCommitment::V1(c) => c.wire_size(),
            EpochCommitment::V2(c) => c.wire_size(),
            EpochCommitment::V3(c) => c.wire_size(),
        }
    }

    /// Bytes *hashed* to build this commitment, the throughput currency of
    /// the digest pipeline. Deterministic in the commitment's shape so the
    /// worker (in-process) and the manager (after transport decode) agree:
    ///
    /// * V1 digests each checkpoint's raw f32 image — `len · 4` per
    ///   checkpoint;
    /// * V2 digests `l` group messages of `k` 8-byte values;
    /// * V3 digests the packed 2-byte bf16 image *and* the `l` group
    ///   messages.
    pub fn bytes_hashed(&self, model_len: usize, hashes_per_group: usize) -> u64 {
        let n = self.len() as u64;
        match self {
            EpochCommitment::V1(_) => n * model_len as u64 * 4,
            EpochCommitment::V2(c) => n * c.entry(0).len() as u64 * hashes_per_group as u64 * 8,
            EpochCommitment::V3(c) => {
                let lsh = c.entry(0).len() as u64 * hashes_per_group as u64 * 8;
                n * (model_len as u64 * 2 + lsh)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_lsh::LshParams;

    fn checkpoints(n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| (0..dim).map(|j| (i * dim + j) as f32 * 0.01).collect())
            .collect()
    }

    fn family(dim: usize) -> LshFamily {
        LshFamily::new(dim, LshParams::new(1.0, 4, 4), 42)
    }

    #[test]
    fn v1_binds_each_checkpoint() {
        let cps = checkpoints(4, 8);
        let c1 = EpochCommitment::commit_v1(&cps);
        let mut tampered = cps.clone();
        tampered[2][0] += 1e-4;
        let c2 = EpochCommitment::commit_v1(&tampered);
        assert_ne!(c1, c2);
        assert_eq!(c1.len(), 4);
    }

    #[test]
    fn v1_digests_equal_scalar_hashing() {
        // The batched commitment path must reproduce the scalar
        // per-checkpoint digests exactly.
        let cps = checkpoints(5, 33);
        match EpochCommitment::commit_v1(&cps) {
            EpochCommitment::V1(list) => {
                for (i, cp) in cps.iter().enumerate() {
                    assert_eq!(list.digest_at(i), rpol_crypto::sha256::sha256_f32(cp));
                }
            }
            _ => unreachable!("commit_v1 built a non-V1 commitment"),
        }
    }

    #[test]
    fn v2_entries_match_family_hash() {
        let cps = checkpoints(3, 8);
        let fam = family(8);
        let c = LshCommitment::commit(&cps, &fam);
        for (i, cp) in cps.iter().enumerate() {
            assert_eq!(c.entry(i), fam.hash(cp).group_digests().as_slice());
        }
    }

    #[test]
    fn v2_wire_size_is_l_digests_per_checkpoint() {
        let cps = checkpoints(5, 8);
        let c = LshCommitment::commit(&cps, &family(8));
        assert_eq!(c.wire_size(), 5 * 4 * 32); // l = 4 groups
    }

    #[test]
    fn v2_value_binds_order() {
        let cps = checkpoints(3, 8);
        let fam = family(8);
        let a = LshCommitment::commit(&cps, &fam).value();
        let mut swapped = cps.clone();
        swapped.swap(0, 2);
        let b = LshCommitment::commit(&swapped, &fam).value();
        assert_ne!(a, b);
    }

    #[test]
    fn v3_commits_the_lattice_image() {
        let cps = checkpoints(3, 8);
        let fam = family(8);
        let c = QuantCommitment::commit(&cps, &fam);
        for (i, cp) in cps.iter().enumerate() {
            let image = rpol_tensor::quant::bf16_image(cp);
            assert_eq!(c.entry(i), fam.hash(&image).group_digests().as_slice());
            assert_eq!(
                *c.quant_digest(i),
                rpol_crypto::sha256(&rpol_crypto::bytes::bf16_as_le_bytes(cp))
            );
        }
        // Sub-lattice perturbations vanish in the image: committing the
        // snapped checkpoints gives the identical commitment. (V3 workers
        // train on the lattice, so this is the no-op case, not a leak.)
        let snapped: Vec<Vec<f32>> = cps
            .iter()
            .map(|w| rpol_tensor::quant::bf16_image(w))
            .collect();
        assert_eq!(c, QuantCommitment::commit(&snapped, &fam));
    }

    #[test]
    fn v3_quant_digest_binds_lattice_steps() {
        let cps: Vec<Vec<f32>> = checkpoints(2, 8)
            .iter()
            .map(|w| rpol_tensor::quant::bf16_image(w))
            .collect();
        let fam = family(8);
        let a = QuantCommitment::commit(&cps, &fam);
        let mut tampered = cps.clone();
        // One lattice step on one weight: the smallest representable change.
        tampered[1][3] = f32::from_bits(tampered[1][3].to_bits() + 0x1_0000);
        let b = QuantCommitment::commit(&tampered, &fam);
        assert_ne!(a.quant_digest(1), b.quant_digest(1));
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn v3_wire_size_adds_one_digest_per_checkpoint() {
        let cps = checkpoints(5, 8);
        let c = QuantCommitment::commit(&cps, &family(8));
        assert_eq!(c.wire_size(), 5 * (4 + 1) * 32); // l = 4 groups + quant digest
    }

    #[test]
    fn v3_from_parts_round_trips() {
        let cps = checkpoints(3, 8);
        let c = QuantCommitment::commit(&cps, &family(8));
        let entries: Vec<Vec<Digest>> = (0..c.len()).map(|i| c.entry(i).to_vec()).collect();
        let rebuilt = QuantCommitment::from_parts(entries, c.quant_digests().to_vec());
        assert_eq!(rebuilt, c);
        assert_eq!(rebuilt.value(), c.value());
    }

    #[test]
    fn bytes_hashed_tracks_scheme_costs() {
        let dim = 512;
        let cps = checkpoints(3, dim);
        let fam = family(dim); // l = 4, k = 4
        let v1 = EpochCommitment::commit_v1(&cps);
        let v2 = EpochCommitment::commit_v2(&cps, &fam);
        let v3 = EpochCommitment::commit_v3(&cps, &fam);
        assert_eq!(v1.bytes_hashed(dim, 4), 3 * dim as u64 * 4);
        assert_eq!(v2.bytes_hashed(dim, 4), 3 * 4 * 4 * 8);
        assert_eq!(v3.bytes_hashed(dim, 4), 3 * (dim as u64 * 2 + 4 * 4 * 8));
        // The V3 checkpoint-image hashing is half of V1's.
        assert!(v3.bytes_hashed(dim, 4) < v1.bytes_hashed(dim, 4));
    }

    #[test]
    fn v2_much_smaller_than_v1_proofs() {
        // The point of RPoLv2: commitment grows with l (constant), not
        // with model size.
        let dim = 10_000;
        let cps = checkpoints(2, dim);
        let c = LshCommitment::commit(&cps, &family(dim));
        assert!(c.wire_size() < dim); // 256 bytes vs 40 KB of weights
    }
}
