//! Merkle hash trees over checkpoint digests.
//!
//! §V-B allows the training commitment to be either an ordered list of
//! checkpoint hashes or the root of a Merkle tree whose leaves are the
//! checkpoint proofs in order. This module implements the tree with
//! logarithmic inclusion proofs.

use crate::sha256::{Digest, Sha256};
use serde::Serialize;

/// Domain-separation prefixes preventing leaf/node second-preimage tricks.
const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

fn hash_leaf(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[LEAF_PREFIX]);
    h.update(data);
    h.finalize()
}

fn hash_node(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[NODE_PREFIX]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

/// A complete Merkle tree storing all internal levels.
///
/// # Examples
///
/// ```
/// use rpol_crypto::MerkleTree;
///
/// let tree = MerkleTree::from_leaves(&[b"a".as_ref(), b"b".as_ref(), b"c".as_ref()]);
/// let proof = tree.prove(1);
/// assert!(proof.verify(tree.root(), b"b"));
/// assert!(!proof.verify(tree.root(), b"x"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MerkleTree {
    /// `levels[0]` is the leaf layer; the last level holds the single root.
    levels: Vec<Vec<Digest>>,
}

/// An inclusion proof: sibling digests from the leaf to the root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MerkleProof {
    /// The 0-based index of the proven leaf.
    pub leaf_index: usize,
    /// Sibling hashes, one per level, leaf-to-root.
    pub siblings: Vec<Digest>,
}

impl MerkleTree {
    /// Builds a tree over raw leaf payloads.
    ///
    /// An odd node at any level is paired with itself, the classic Bitcoin
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty.
    pub fn from_leaves(leaves: &[&[u8]]) -> Self {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let mut levels = vec![leaves.iter().map(|l| hash_leaf(l)).collect::<Vec<_>>()];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let right = pair.get(1).unwrap_or(&pair[0]);
                next.push(hash_node(&pair[0], right));
            }
            levels.push(next);
        }
        Self { levels }
    }

    /// The Merkle root.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("nonempty")[0]
    }

    /// The number of leaves.
    fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Generates an inclusion proof for the leaf at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(index < self.leaf_count(), "leaf index out of range");
        let mut siblings = Vec::new();
        let mut ix = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_ix = if ix.is_multiple_of(2) { ix + 1 } else { ix - 1 };
            // Odd tail duplicates itself.
            let sibling = level.get(sibling_ix).unwrap_or(&level[ix]);
            siblings.push(*sibling);
            ix /= 2;
        }
        MerkleProof {
            leaf_index: index,
            siblings,
        }
    }
}

impl MerkleProof {
    /// Verifies that `payload` is the leaf at `self.leaf_index` under `root`.
    pub fn verify(&self, root: Digest, payload: &[u8]) -> bool {
        let mut acc = hash_leaf(payload);
        let mut ix = self.leaf_index;
        for sibling in &self.siblings {
            acc = if ix.is_multiple_of(2) {
                hash_node(&acc, sibling)
            } else {
                hash_node(sibling, &acc)
            };
            ix /= 2;
        }
        acc == root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::from_leaves(&[b"only".as_ref()]);
        assert_eq!(tree.root(), hash_leaf(b"only"));
        assert!(tree.prove(0).verify(tree.root(), b"only"));
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=17 {
            let ls = leaves(n);
            let refs: Vec<&[u8]> = ls.iter().map(|l| l.as_slice()).collect();
            let tree = MerkleTree::from_leaves(&refs);
            // The odd-node pairing pads no leaf into the bottom level.
            assert_eq!(tree.leaf_count(), n);
            for (i, l) in ls.iter().enumerate() {
                let proof = tree.prove(i);
                assert!(proof.verify(tree.root(), l), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_payload_rejected() {
        let ls = leaves(8);
        let refs: Vec<&[u8]> = ls.iter().map(|l| l.as_slice()).collect();
        let tree = MerkleTree::from_leaves(&refs);
        let proof = tree.prove(3);
        assert!(!proof.verify(tree.root(), b"forged"));
    }

    #[test]
    fn wrong_position_rejected() {
        let ls = leaves(8);
        let refs: Vec<&[u8]> = ls.iter().map(|l| l.as_slice()).collect();
        let tree = MerkleTree::from_leaves(&refs);
        let mut proof = tree.prove(3);
        proof.leaf_index = 4;
        assert!(!proof.verify(tree.root(), &ls[3]));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let ls = leaves(9);
        let refs: Vec<&[u8]> = ls.iter().map(|l| l.as_slice()).collect();
        let root = MerkleTree::from_leaves(&refs).root();
        for i in 0..ls.len() {
            let mut tampered = ls.clone();
            tampered[i] = b"tampered".to_vec();
            let refs2: Vec<&[u8]> = tampered.iter().map(|l| l.as_slice()).collect();
            assert_ne!(MerkleTree::from_leaves(&refs2).root(), root, "leaf {i}");
        }
    }

    #[test]
    fn leaf_node_domain_separation() {
        // A tree over [h(a)||h(b)] as a single leaf must differ from the
        // two-leaf tree over [a, b].
        let two = MerkleTree::from_leaves(&[b"a".as_ref(), b"b".as_ref()]);
        let mut concat = Vec::new();
        concat.extend_from_slice(sha256(b"a").as_bytes());
        concat.extend_from_slice(sha256(b"b").as_bytes());
        let one = MerkleTree::from_leaves(&[concat.as_slice()]);
        assert_ne!(two.root(), one.root());
    }
}
