//! Epoch commitments over checkpoint sequences (§V-B, §V-C).
//!
//! At the end of an epoch a worker commits to its ordered checkpoints
//! *before* learning which ones will be sampled. Every scheme commits the
//! same shape — one row of 32-byte digests per checkpoint — and its
//! [`SchemeSpec`] fixes what fills the row, in wire order:
//!
//! * the `l` LSH group digests of the checkpoint's lattice image, when the
//!   scheme matches replays by LSH ([`SchemeSpec::hashes_by_lsh`]);
//! * then one SHA-256 of that image's bytes, when the scheme binds by
//!   SHA-256 ([`Binding::Sha256`]): the raw f32 bytes on the f32 lattice,
//!   the packed 2-byte image on the bf16 one.
//!
//! So an **RPoLv1** row is the f32 SHA-256 alone (opening a sample ships
//! both raw weight vectors); an **RPoLv2** row is the `l` group digests
//! (opening ships only the input; the output is fuzzy-matched against
//! the row); an **RPoLv3** row is the `l` group digests of the bf16 image,
//! then its SHA-256. V3 workers train *on* the lattice (weights are
//! snapped at every checkpoint boundary), so the image is the checkpoint:
//! the trailing digest is a V1-grade exact binding at half the hashed
//! bytes, and the group digests drive the fuzzy accept.

use crate::pool::{Binding, Lattice, Scheme, SchemeSpec};
use rpol_crypto::sha256::Digest;
use rpol_lsh::{LshFamily, Signature};
use std::borrow::Cow;

/// A scheme's epoch commitment: one row of digests per checkpoint, laid
/// out as the scheme's [`SchemeSpec`] says (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochCommitment {
    scheme: Scheme,
    /// LSH group digests leading each row (`l`); 0 without LSH.
    groups: usize,
    /// Every row, in checkpoint order, flat.
    digests: Vec<Digest>,
}

/// Digests in one row of `spec`'s commitment with `groups` LSH groups.
pub(crate) fn row_width(spec: &SchemeSpec, groups: usize) -> usize {
    groups + usize::from(spec.binding == Binding::Sha256)
}

impl EpochCommitment {
    /// Builds the RPoLv1 commitment over raw checkpoint weights.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoints` is empty.
    pub fn commit_v1(checkpoints: &[Vec<f32>]) -> Self {
        Self::commit(Scheme::RPoLv1, checkpoints, None)
    }

    /// Builds the RPoLv2 commitment with the epoch's LSH family.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoints` is empty or any checkpoint's length
    /// mismatches the family dimension.
    pub fn commit_v2(checkpoints: &[Vec<f32>], family: &LshFamily) -> Self {
        Self::commit(Scheme::RPoLv2, checkpoints, Some(family))
    }

    /// Builds the RPoLv3 commitment, over the checkpoints' bf16 images,
    /// with the epoch's LSH family.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoints` is empty or any checkpoint's length
    /// mismatches the family dimension.
    pub fn commit_v3(checkpoints: &[Vec<f32>], family: &LshFamily) -> Self {
        Self::commit(Scheme::RPoLv3, checkpoints, Some(family))
    }

    /// Commits `scheme`'s rows. Every checkpoint is first moved onto the
    /// scheme's lattice (a copy only for a checkpoint off it: a
    /// lattice-trained one is its own image);
    /// then one streamed LSH pass signs every image and one batch pass
    /// digests every group — bitwise the per-checkpoint
    /// `family.hash(w).group_digests()` chain — and one multi-lane SHA-256
    /// pass digests every image (checkpoints share a length, so the batch
    /// hasher keeps every lane occupied).
    fn commit(scheme: Scheme, checkpoints: &[Vec<f32>], family: Option<&LshFamily>) -> Self {
        assert!(!checkpoints.is_empty(), "no checkpoints to commit");
        let spec = scheme.spec();
        let images: Vec<Cow<'_, [f32]>> = checkpoints
            .iter()
            .map(|w| match spec.lattice {
                Lattice::F32 => Cow::Borrowed(&w[..]),
                Lattice::Bf16 if rpol_tensor::quant::is_bf16_lattice(w) => Cow::Borrowed(&w[..]),
                Lattice::Bf16 => Cow::Owned(rpol_tensor::quant::bf16_image(w)),
            })
            .collect();
        let refs: Vec<&[f32]> = images.iter().map(|w| &w[..]).collect();
        let groups = if spec.hashes_by_lsh() {
            let family = family.unwrap_or_else(|| panic!("{} commits by LSH", spec.name));
            Signature::group_digests_batch(&family.hash_batch(&refs))
        } else {
            Vec::new()
        };
        let shas = match (spec.binding, spec.lattice) {
            (Binding::Sha256, Lattice::F32) => rpol_crypto::sha256_f32_batch(&refs),
            (Binding::Sha256, Lattice::Bf16) => rpol_crypto::sha256_bf16_batch(&refs),
            _ => Vec::new(),
        };
        let l = groups.first().map_or(0, Vec::len);
        let mut digests = Vec::with_capacity(checkpoints.len() * row_width(spec, l));
        for i in 0..checkpoints.len() {
            digests.extend(groups.get(i).into_iter().flatten());
            digests.extend(shas.get(i));
        }
        let commitment = Self {
            scheme,
            groups: l,
            digests,
        };
        commitment.count_commit(checkpoints.len());
        commitment
    }

    /// Reassembles a commitment from its rows, flat in checkpoint order
    /// (the wire-decoding path).
    ///
    /// # Panics
    ///
    /// Panics unless `digests` holds at least one whole row of `scheme`'s
    /// width with `groups` LSH groups, and whole rows only.
    pub(crate) fn from_rows(scheme: Scheme, groups: usize, digests: Vec<Digest>) -> Self {
        let spec = scheme.spec();
        assert_eq!(
            groups > 0,
            spec.hashes_by_lsh(),
            "{} group count",
            spec.name
        );
        let width = row_width(spec, groups);
        assert!(
            width > 0 && !digests.is_empty() && digests.len().is_multiple_of(width),
            "{} digests do not make whole rows of {width}",
            digests.len()
        );
        Self {
            scheme,
            groups,
            digests,
        }
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

    /// The scheme whose workers build this commitment.
    pub(crate) fn scheme(&self) -> Scheme {
        self.scheme
    }

    fn width(&self) -> usize {
        row_width(self.scheme.spec(), self.groups)
    }

    /// Number of committed checkpoints.
    pub fn len(&self) -> usize {
        self.digests.len() / self.width()
    }

    /// Whether no checkpoints are committed (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// LSH group digests per row (`l`); 0 for a scheme without LSH.
    pub(crate) fn group_count(&self) -> usize {
        self.groups
    }

    /// Every row, flat in checkpoint order: the bytes the wire carries.
    pub(crate) fn digests(&self) -> &[Digest] {
        &self.digests
    }

    /// Checkpoint `index`'s row.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn row(&self, index: usize) -> &[Digest] {
        let width = self.width();
        &self.digests[index * width..(index + 1) * width]
    }

    /// The LSH group digests of checkpoint `index` (empty without LSH).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn groups(&self, index: usize) -> &[Digest] {
        &self.row(index)[..self.groups]
    }

    /// The digests that bind checkpoint `index` exactly: the scheme's
    /// [`Binding`] — its trailing SHA-256, or its group digests.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn binding(&self, index: usize) -> &[Digest] {
        let row = self.row(index);
        match self.scheme.spec().binding {
            Binding::Sha256 => &row[self.groups..],
            Binding::LshGroups | Binding::None => &row[..self.groups],
        }
    }

    /// Bytes crossing the wire at submission time: 32 per digest.
    pub fn wire_size(&self) -> usize {
        self.digests.len() * 32
    }

    /// Bytes *hashed* to build this commitment, the throughput currency of
    /// the digest pipeline. Deterministic in the commitment's shape so the
    /// worker (in-process) and the manager (after transport decode) agree:
    /// per checkpoint, `l` group messages of `k` 8-byte values, plus the
    /// checkpoint's image on its lattice when the row binds by SHA-256
    /// (`len · 4` bytes on f32, `len · 2` on bf16).
    pub fn bytes_hashed(&self, model_len: usize, hashes_per_group: usize) -> u64 {
        let spec = self.scheme.spec();
        let image = usize::from(spec.binding == Binding::Sha256)
            * model_len
            * spec.lattice.bytes_per_weight();
        let lsh = self.groups * hashes_per_group * 8;
        self.len() as u64 * (image + lsh) as u64
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
        let c = EpochCommitment::commit_v1(&cps);
        for (i, cp) in cps.iter().enumerate() {
            assert_eq!(c.row(i), [rpol_crypto::sha256::sha256_f32(cp)]);
        }
    }

    /// Each scheme's row is what its spec says: `l` group digests when it
    /// hashes by LSH, then one SHA-256 when it binds by one; the binding
    /// is the trailing SHA-256, or the groups themselves.
    #[test]
    fn rows_follow_the_scheme_spec() {
        let cps = checkpoints(3, 8);
        let fam = family(8); // l = 4
        let commitments = [
            EpochCommitment::commit_v1(&cps),
            EpochCommitment::commit_v2(&cps, &fam),
            EpochCommitment::commit_v3(&cps, &fam),
        ];
        for (c, (width, groups)) in commitments.iter().zip([(1, 0), (4, 4), (5, 4)]) {
            let scheme = c.scheme();
            assert_eq!(c.len(), 3, "{scheme}");
            assert_eq!(c.group_count(), groups, "{scheme}");
            for i in 0..c.len() {
                let row = c.row(i);
                assert_eq!(row.len(), width, "{scheme}");
                assert_eq!(c.groups(i), &row[..groups], "{scheme}");
                let binding = match scheme.spec().binding {
                    Binding::Sha256 => &row[width - 1..],
                    _ => &row[..groups],
                };
                assert_eq!(c.binding(i), binding, "{scheme}");
            }
        }
    }

    #[test]
    fn v2_entries_match_family_hash() {
        let cps = checkpoints(3, 8);
        let fam = family(8);
        let c = EpochCommitment::commit_v2(&cps, &fam);
        for (i, cp) in cps.iter().enumerate() {
            assert_eq!(c.row(i), fam.hash(cp).group_digests().as_slice());
        }
    }

    #[test]
    fn v2_wire_size_is_l_digests_per_checkpoint() {
        let cps = checkpoints(5, 8);
        let c = EpochCommitment::commit_v2(&cps, &family(8));
        assert_eq!(c.wire_size(), 5 * 4 * 32); // l = 4 groups
    }

    /// The rows — all a commitment's value is — bind checkpoint order.
    #[test]
    fn v2_value_binds_order() {
        let cps = checkpoints(3, 8);
        let fam = family(8);
        let a = EpochCommitment::commit_v2(&cps, &fam);
        let mut swapped = cps.clone();
        swapped.swap(0, 2);
        let b = EpochCommitment::commit_v2(&swapped, &fam);
        assert_ne!(a, b);
        assert_eq!(a.row(0), b.row(2));
    }

    #[test]
    fn v3_commits_the_lattice_image() {
        let cps = checkpoints(3, 8);
        let fam = family(8);
        let c = EpochCommitment::commit_v3(&cps, &fam);
        for (i, cp) in cps.iter().enumerate() {
            let image = rpol_tensor::quant::bf16_image(cp);
            assert_eq!(c.groups(i), fam.hash(&image).group_digests().as_slice());
            assert_eq!(
                c.binding(i),
                [rpol_crypto::sha256(&rpol_crypto::bytes::bf16_as_le_bytes(
                    cp
                ))]
            );
        }
        // Sub-lattice perturbations vanish in the image: committing the
        // snapped checkpoints gives the identical commitment. (V3 workers
        // train on the lattice, so this is the no-op case, not a leak.)
        let snapped: Vec<Vec<f32>> = cps
            .iter()
            .map(|w| rpol_tensor::quant::bf16_image(w))
            .collect();
        assert_eq!(c, EpochCommitment::commit_v3(&snapped, &fam));
    }

    #[test]
    fn v3_quant_digest_binds_lattice_steps() {
        let cps: Vec<Vec<f32>> = checkpoints(2, 8)
            .iter()
            .map(|w| rpol_tensor::quant::bf16_image(w))
            .collect();
        let fam = family(8);
        let a = EpochCommitment::commit_v3(&cps, &fam);
        let mut tampered = cps.clone();
        // One lattice step on one weight: the smallest representable change.
        tampered[1][3] = f32::from_bits(tampered[1][3].to_bits() + 0x1_0000);
        let b = EpochCommitment::commit_v3(&tampered, &fam);
        assert_ne!(a.binding(1), b.binding(1));
        assert_ne!(a, b);
    }

    #[test]
    fn v3_wire_size_adds_one_digest_per_checkpoint() {
        let cps = checkpoints(5, 8);
        let c = EpochCommitment::commit_v3(&cps, &family(8));
        assert_eq!(c.wire_size(), 5 * (4 + 1) * 32); // l = 4 groups + quant digest
    }

    #[test]
    fn from_rows_round_trips() {
        let cps = checkpoints(3, 8);
        let fam = family(8);
        for c in [
            EpochCommitment::commit_v1(&cps),
            EpochCommitment::commit_v2(&cps, &fam),
            EpochCommitment::commit_v3(&cps, &fam),
        ] {
            let rebuilt =
                EpochCommitment::from_rows(c.scheme(), c.group_count(), c.digests().to_vec());
            assert_eq!(rebuilt, c);
        }
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn from_rows_refuses_a_partial_row() {
        let c = EpochCommitment::commit_v3(&checkpoints(2, 8), &family(8));
        let mut digests = c.digests().to_vec();
        digests.pop();
        EpochCommitment::from_rows(Scheme::RPoLv3, 4, digests);
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
        let c = EpochCommitment::commit_v2(&cps, &family(dim));
        assert!(c.wire_size() < dim); // 256 bytes vs 40 KB of weights
    }
}
