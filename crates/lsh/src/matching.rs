//! LSH signatures: comparison and commitment digests.

use rpol_crypto::sha256::{Digest, Sha256};
use serde::Serialize;

/// The LSH signature of a vector: `l` groups of `k` quantized projections.
///
/// Two signatures *match* when at least one group agrees on all `k`
/// values — the standard OR-of-ANDs amplification. For commitments the
/// signature is reduced to per-group digests ([`Signature::group_digests`])
/// so the verifier can test group equality against a committed digest
/// without the worker revealing raw projection values ordering-free.
///
/// # Examples
///
/// ```
/// use rpol_lsh::Signature;
///
/// let a = Signature::new(vec![vec![1, 2], vec![3, 4]]);
/// let b = Signature::new(vec![vec![9, 9], vec![3, 4]]);
/// assert!(a.matches(&b)); // second group agrees
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Signature {
    groups: Vec<Vec<i64>>,
}

impl Signature {
    /// Creates a signature from raw group values.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty, any group is empty, or groups have
    /// unequal lengths.
    pub fn new(groups: Vec<Vec<i64>>) -> Self {
        assert!(!groups.is_empty(), "signature needs at least one group");
        let k = groups[0].len();
        assert!(k > 0, "groups must be non-empty");
        assert!(
            groups.iter().all(|g| g.len() == k),
            "all groups must have the same length"
        );
        Self { groups }
    }

    /// The group values.
    pub fn groups(&self) -> &[Vec<i64>] {
        &self.groups
    }

    /// Number of groups (`l`).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Hashes per group (`k`).
    pub fn hashes_per_group(&self) -> usize {
        self.groups[0].len()
    }

    /// OR-of-ANDs matching: true when any group agrees exactly.
    ///
    /// # Panics
    ///
    /// Panics if the signatures have different `(k, l)` geometry — that
    /// indicates the two sides used different LSH families, a protocol
    /// error.
    pub fn matches(&self, other: &Self) -> bool {
        assert_eq!(
            (self.group_count(), self.hashes_per_group()),
            (other.group_count(), other.hashes_per_group()),
            "signatures from different LSH families"
        );
        self.groups.iter().zip(&other.groups).any(|(a, b)| a == b)
    }

    /// Per-group SHA-256 digests, the form carried inside RPoLv2
    /// commitments.
    pub fn group_digests(&self) -> Vec<Digest> {
        self.groups
            .iter()
            .map(|g| {
                let mut h = Sha256::new();
                for v in g {
                    h.update(&v.to_be_bytes());
                }
                h.finalize()
            })
            .collect()
    }

    /// [`group_digests`] for many signatures in one pass: every group's
    /// message (its `k` big-endian values, so all messages from one LSH
    /// family share a length) is fed to the multi-lane batch hasher, which
    /// digests up to 8 groups per compression pass. Digests are identical
    /// to calling [`group_digests`] per signature — the paths share the
    /// byte layout and the batch hasher is tested byte-equal to the scalar
    /// one.
    ///
    /// [`group_digests`]: Signature::group_digests
    pub fn group_digests_batch(signatures: &[Signature]) -> Vec<Vec<Digest>> {
        let msgs: Vec<Vec<u8>> = signatures
            .iter()
            .flat_map(|s| {
                s.groups.iter().map(|g| {
                    let mut m = Vec::with_capacity(g.len() * 8);
                    for v in g {
                        m.extend_from_slice(&v.to_be_bytes());
                    }
                    m
                })
            })
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let mut digests = rpol_crypto::sha256_batch(&refs).into_iter();
        signatures
            .iter()
            .map(|s| digests.by_ref().take(s.group_count()).collect())
            .collect()
    }

    /// A single digest binding the whole signature (ordered group digests),
    /// used as the checkpoint payload digest in RPoLv2 commitments.
    pub fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        for d in self.group_digests() {
            h.update(d.as_bytes());
        }
        h.finalize()
    }

    /// Matching against committed *digests* instead of raw values: true
    /// when any of this signature's group digests equals the committed
    /// digest at the same group position.
    ///
    /// This is what the manager evaluates in RPoLv2: it recomputes the
    /// signature of its re-executed weights and compares against the
    /// worker's committed group digests.
    pub fn matches_digests(&self, committed: &[Digest]) -> bool {
        let mine = self.group_digests();
        mine.len() == committed.len() && mine.iter().zip(committed).any(|(a, b)| a == b)
    }

    /// Number of group positions whose digest agrees with the committed
    /// digest at the same position (0 when geometries differ).
    ///
    /// RPoLv3's two-tier accept logic needs the *count*, not just
    /// any-match: ≥ 2 agreeing groups is a confident accept, exactly 1 is
    /// a borderline match that routes through the raw-digest escape hatch.
    pub fn matching_group_count(&self, committed: &[Digest]) -> usize {
        let mine = self.group_digests();
        if mine.len() != committed.len() {
            return 0;
        }
        mine.iter().zip(committed).filter(|(a, b)| a == b).count()
    }

    /// Wire size in bytes of the raw signature (`l·k` 8-byte values).
    pub fn wire_size(&self) -> usize {
        self.group_count() * self.hashes_per_group() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_requires_full_group_agreement() {
        let a = Signature::new(vec![vec![1, 2, 3]]);
        let b = Signature::new(vec![vec![1, 2, 4]]);
        assert!(!a.matches(&b));
        assert!(a.matches(&a.clone()));
    }

    #[test]
    fn any_group_suffices() {
        let a = Signature::new(vec![vec![1], vec![2], vec![3]]);
        let b = Signature::new(vec![vec![7], vec![2], vec![9]]);
        assert!(a.matches(&b));
    }

    #[test]
    fn digest_matching_mirrors_raw_matching() {
        let a = Signature::new(vec![vec![1, 2], vec![3, 4]]);
        let b = Signature::new(vec![vec![1, 2], vec![9, 9]]);
        let c = Signature::new(vec![vec![5, 5], vec![6, 6]]);
        assert_eq!(a.matches(&b), b.matches_digests(&a.group_digests()));
        assert_eq!(a.matches(&c), c.matches_digests(&a.group_digests()));
    }

    #[test]
    fn digest_matching_is_positional() {
        // Same group values in a *different* group position must not match:
        // group g compares against committed digest g only.
        let a = Signature::new(vec![vec![1], vec![2]]);
        let b = Signature::new(vec![vec![2], vec![1]]);
        assert!(!a.matches(&b));
        assert!(!b.matches_digests(&a.group_digests()));
    }

    #[test]
    fn batched_group_digests_equal_per_signature_digests() {
        let sigs: Vec<Signature> = (0..7)
            .map(|i| Signature::new(vec![vec![i, i + 1, -i], vec![2 * i, -3, i * i]]))
            .collect();
        let batched = Signature::group_digests_batch(&sigs);
        for (s, got) in sigs.iter().zip(&batched) {
            assert_eq!(got, &s.group_digests());
        }
        assert!(Signature::group_digests_batch(&[]).is_empty());
    }

    #[test]
    fn matching_group_count_counts_positional_agreements() {
        let a = Signature::new(vec![vec![1], vec![2], vec![3]]);
        let b = Signature::new(vec![vec![1], vec![9], vec![3]]);
        let committed = a.group_digests();
        assert_eq!(b.matching_group_count(&committed), 2);
        assert_eq!(a.matching_group_count(&committed), 3);
        let c = Signature::new(vec![vec![7], vec![8], vec![9]]);
        assert_eq!(c.matching_group_count(&committed), 0);
        // Geometry mismatch is a protocol error, reported as no agreement.
        assert_eq!(a.matching_group_count(&committed[..2]), 0);
    }

    #[test]
    fn signature_digest_binds_content() {
        let a = Signature::new(vec![vec![1, 2], vec![3, 4]]);
        let b = Signature::new(vec![vec![1, 2], vec![3, 5]]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    #[should_panic(expected = "different LSH families")]
    fn geometry_mismatch_panics() {
        let a = Signature::new(vec![vec![1, 2]]);
        let b = Signature::new(vec![vec![1], vec![2]]);
        a.matches(&b);
    }

    #[test]
    fn wire_size_counts_values() {
        let s = Signature::new(vec![vec![0; 4]; 3]);
        assert_eq!(s.wire_size(), 96);
    }
}
