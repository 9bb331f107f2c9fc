//! Property-based hardening of the Merkle tree: inclusion proofs must
//! round-trip for every leaf of every tree shape (odd tails, single
//! leaves, arbitrary payloads), and any mutilated proof — truncated,
//! extended, bit-flipped, or repositioned — must be rejected. The
//! committee verdict batches (DESIGN.md §15) stake the top tier's audit
//! soundness on exactly these properties.

use proptest::prelude::*;
use rpol_crypto::merkle::{MerkleProof, MerkleTree};
use rpol_crypto::sha256::Digest;

fn arb_leaves() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 1..33)
}

fn tree_of(leaves: &[Vec<u8>]) -> MerkleTree {
    let refs: Vec<&[u8]> = leaves.iter().map(|l| l.as_slice()).collect();
    MerkleTree::from_leaves(&refs)
}

proptest! {
    #[test]
    fn inclusion_proof_roundtrips_for_every_leaf(leaves in arb_leaves()) {
        let tree = tree_of(&leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i);
            prop_assert_eq!(proof.leaf_index, i);
            prop_assert!(proof.verify(tree.root(), leaf), "leaf {} failed", i);
        }
    }

    #[test]
    fn odd_leaf_counts_self_pair_consistently(n in 1usize..40) {
        // The odd-tail duplication must give every index — including the
        // duplicated tail — a verifying proof.
        let leaves: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 4]).collect();
        let tree = tree_of(&leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            prop_assert!(tree.prove(i).verify(tree.root(), leaf));
        }
        if n % 2 == 1 && n > 1 {
            // Known artifact of the classic self-pairing construction:
            // appending a copy of the odd tail reproduces the root
            // (CVE-2012-2459 in Bitcoin). Pin it so nobody mistakes the
            // root alone for a leaf-count commitment — consumers like the
            // committee verdict batch must bind the count separately, and
            // do.
            let mut padded = leaves.clone();
            padded.push(leaves.last().expect("nonempty").clone());
            prop_assert_eq!(tree_of(&padded).root(), tree.root());
        }
    }

    #[test]
    fn single_leaf_tree_proves_with_empty_path(payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let tree = MerkleTree::from_leaves(&[payload.as_slice()]);
        let proof = tree.prove(0);
        prop_assert!(proof.siblings.is_empty(), "one leaf needs no siblings");
        prop_assert!(proof.verify(tree.root(), &payload));
        let mut other = payload.clone();
        other.push(0xFF);
        prop_assert!(!proof.verify(tree.root(), &other));
    }

    #[test]
    fn truncated_proofs_are_rejected(leaves in arb_leaves(), pick in 0usize..64) {
        let tree = tree_of(&leaves);
        let i = pick % leaves.len();
        let proof = tree.prove(i);
        // Trees with at least two levels: dropping any suffix of the
        // sibling path must fail verification.
        for keep in 0..proof.siblings.len() {
            let cut = MerkleProof {
                leaf_index: proof.leaf_index,
                siblings: proof.siblings[..keep].to_vec(),
            };
            prop_assert!(!cut.verify(tree.root(), &leaves[i]), "kept {} of {}", keep, proof.siblings.len());
        }
        // And so must padding it with an extra sibling.
        let mut extended = proof.clone();
        extended.siblings.push(Digest([0u8; 32]));
        prop_assert!(!extended.verify(tree.root(), &leaves[i]));
    }

    #[test]
    fn bit_flipped_proofs_are_rejected(
        leaves in arb_leaves(),
        pick in 0usize..64,
        level in 0usize..16,
        bit in 0usize..256,
    ) {
        let tree = tree_of(&leaves);
        let i = pick % leaves.len();
        let proof = tree.prove(i);
        prop_assume!(!proof.siblings.is_empty());
        let mut forged = proof.clone();
        let lvl = level % forged.siblings.len();
        let mut raw = forged.siblings[lvl].0;
        raw[bit / 8] ^= 1 << (bit % 8);
        forged.siblings[lvl] = Digest(raw);
        prop_assert!(!forged.verify(tree.root(), &leaves[i]));
    }

    #[test]
    fn proofs_do_not_transplant_across_positions(leaves in arb_leaves(), pick in 0usize..64) {
        prop_assume!(leaves.len() >= 2);
        let tree = tree_of(&leaves);
        let i = pick % leaves.len();
        let j = (i + 1) % leaves.len();
        let mut proof = tree.prove(i);
        // The right payload under the wrong claimed index must fail
        // (unless the two leaves happen to be byte-identical, in which
        // case sibling paths can legitimately coincide in tiny trees).
        proof.leaf_index = j;
        if leaves[i] != leaves[j] {
            prop_assert!(!proof.verify(tree.root(), &leaves[j]));
        }
    }
}
