//! Property-based tests for the crypto substrate.

use proptest::prelude::*;
use rpol_crypto::hmac::hmac_sha256;
use rpol_crypto::merkle::MerkleTree;
use rpol_crypto::prf::{deterministic_batch, Prf};
use rpol_crypto::sha256::{sha256, sha256_f32, Sha256};
use rpol_crypto::Address;

proptest! {
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        split in 0usize..2048
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn sha256_injective_on_flips(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        bit in 0usize..4096
    ) {
        let mut flipped = data.clone();
        let byte = (bit / 8) % data.len();
        flipped[byte] ^= 1 << (bit % 8);
        if flipped != data {
            prop_assert_ne!(sha256(&data), sha256(&flipped));
        }
    }

    #[test]
    fn sha256_f32_matches_le_byte_hash(xs in proptest::collection::vec(-1e6f32..1e6, 0..256)) {
        let bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
        prop_assert_eq!(sha256_f32(&xs), sha256(&bytes));
    }

    #[test]
    fn hmac_distinct_keys_distinct_tags(
        k1 in proptest::collection::vec(any::<u8>(), 1..64),
        k2 in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..128)
    ) {
        if k1 != k2 {
            prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
        }
    }

    #[test]
    fn merkle_accepts_all_and_only_committed_leaves(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16), 1..20),
        forged in proptest::collection::vec(any::<u8>(), 1..16)
    ) {
        let refs: Vec<&[u8]> = leaves.iter().map(|l| l.as_slice()).collect();
        let tree = MerkleTree::from_leaves(&refs);
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i);
            prop_assert!(proof.verify(tree.root(), leaf));
            if &forged != leaf {
                prop_assert!(!proof.verify(tree.root(), &forged));
            }
        }
    }

    #[test]
    fn prf_batches_replayable_and_in_range(
        nonce in any::<u64>(),
        step in 0u64..1000,
        batch in 1usize..64,
        len in 1u64..100_000
    ) {
        let prf = Prf::from_nonce(nonce);
        let b1 = deterministic_batch(&prf, step, batch, len);
        let b2 = deterministic_batch(&Prf::from_nonce(nonce), step, batch, len);
        prop_assert_eq!(&b1, &b2);
        prop_assert_eq!(b1.len(), batch);
        prop_assert!(b1.iter().all(|&i| (i as u64) < len));
    }

    #[test]
    fn prf_steps_decorrelated(nonce in any::<u64>(), step in 0u64..1000) {
        let prf = Prf::from_nonce(nonce);
        let a = deterministic_batch(&prf, step, 32, 1 << 30);
        let b = deterministic_batch(&prf, step + 1, 32, 1 << 30);
        prop_assert_ne!(a, b);
    }

    #[test]
    fn addresses_deterministic_and_distinct(s1 in any::<u64>(), s2 in any::<u64>()) {
        prop_assert_eq!(Address::from_seed(s1), Address::from_seed(s1));
        if s1 != s2 {
            prop_assert_ne!(Address::from_seed(s1), Address::from_seed(s2));
        }
    }
}
