//! NIST CAVP-style test vectors for SHA-256, enforced on every tier the
//! host has (portable reference, AVX2 lockstep lanes, SHA extensions),
//! single-stream and batched.
//!
//! The short-message vectors are the byte-oriented `SHA256ShortMsg.rsp`
//! messages for lengths 0–64 bits; the long-message vectors exercise every
//! interesting padding boundary (55/56/57, 63/64/65, one/two/many blocks)
//! with deterministic byte patterns. All expected digests were
//! cross-checked against an independent SHA-256 implementation (OpenSSL
//! via Python's `hashlib`), so the from-scratch hasher, its SIMD lanes and
//! its hardware tier are anchored to an external oracle, not to each other.

use proptest::prelude::*;
use rpol_crypto::sha256::{sha256, sha256_with, Digest, Sha256, Tier};
use rpol_crypto::sha256x8::{sha256_batch, sha256_batch_with};

/// CAVP SHA256ShortMsg byte-oriented vectors, Len = 0..64 bits.
const SHORT_MSG: &[(&str, &str)] = &[
    (
        "",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "d3",
        "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1",
    ),
    (
        "11af",
        "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f072d1f98",
    ),
    (
        "b4190e",
        "dff2e73091f6c05e528896c4c831b9448653dc2ff043528f6769437bc7b975c2",
    ),
    (
        "74ba2521",
        "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc1518923ae8b0e",
    ),
    (
        "c299209682",
        "f0887fe961c9cd3beab957e8222494abb969b1ce4c6557976df8b0f6d20e9166",
    ),
    (
        "e1dc724d5621",
        "eca0a060b489636225b4fa64d267dabbe44273067ac679f20820bddc6b6a90ac",
    ),
    (
        "06e076f5a442d5",
        "3fd877e27450e6bbd5d74bb82f9870c64c66e109418baa8e6bbcff355e287926",
    ),
    (
        "5738c929c4f4ccb6",
        "963bb88f27f512777aab6c8b1a02c70ec0ad651d428f870036e1917120fb48bf",
    ),
];

/// Long-message vectors: `msg[i] = (7·i + 13) mod 256` for each length,
/// chosen to straddle the single-block padding boundary (55/56/57), the
/// block boundary (63/64/65), the two-block padding boundary (119), and
/// multi-block messages.
const LONG_MSG: &[(usize, &str)] = &[
    (
        55,
        "764c574722e6e2ccaa5422f8ec731111ac72ff7039793148623e56b75a32c11f",
    ),
    (
        56,
        "43fbbe48a6796cb7414a92cd785d9f4a976c2f70fc59c60a309f95e3022db77a",
    ),
    (
        57,
        "e038a2370dbd74c3c8b89b95e7c351fec4821e3415f7aef3a0925215bc6ff953",
    ),
    (
        63,
        "c309180feace42e90107301813aef6f309cac604e831b3fd9692a3298aa6da54",
    ),
    (
        64,
        "3a38aed112131d75fc0e636437f5b675c83c01ade88d99f6b6c54b0d6129174f",
    ),
    (
        65,
        "2ee4bedec261c1561dafa7ba28e4e3ece281bc0f51afca40b83b3a2a7c41a050",
    ),
    (
        119,
        "0a70cbf85ea376617e4bfad11040a9559638f8ceb57844a901573674578af539",
    ),
    (
        127,
        "ff998a2ad3412188b7ba531324bf977b22e77aa3b1befb11c699bf2a14959ee7",
    ),
    (
        128,
        "8b94fd8b7db8b1ef29c089c16389697a057310b7c739c1ad844e9be970f5cfd6",
    ),
    (
        129,
        "22afcb610b1282b24536c87a33acc00a80c720c9d3509960ae11a9bd87501330",
    ),
    (
        1000,
        "c85e29b0cb8af116cdf735961dfe2a1f12e44bcbb97693911529e1fd0e8d199e",
    ),
    (
        6400,
        "10a39c4cf36b6eddb2b209d7d641b663a123982997e510c27243e7760a17af44",
    ),
];

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

fn long_msg(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 7 + 13) % 256) as u8).collect()
}

/// Every tier this host can run; says so when the hardware one is not
/// among them, so a run that never executed it cannot read as a pass.
fn host_tiers() -> Vec<Tier> {
    let tiers = Tier::host_tiers();
    if !tiers.contains(&Tier::ShaNi) {
        eprintln!("hardware tier absent, skipped (host tiers: {tiers:?})");
    }
    tiers
}

/// Absorbs `data` in the pieces `cuts` marks out (clamped, any order).
fn hash_in_pieces(tier: Tier, data: &[u8], cuts: &[usize]) -> Digest {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(data.len())).collect();
    bounds.push(0);
    bounds.push(data.len());
    bounds.sort_unstable();
    let mut h = Sha256::with_tier(tier);
    for pair in bounds.windows(2) {
        h.update(&data[pair[0]..pair[1]]);
    }
    h.finalize()
}

/// SHA-256 over the concatenated digests of `long_msg(0)..=long_msg(top)`:
/// one externally computed constant pins every length in the range.
fn digest_of_digests(tier: Tier, top: usize) -> String {
    let mut all = Sha256::with_tier(Tier::Portable);
    for len in 0..=top {
        all.update(sha256_with(tier, &long_msg(len)).as_bytes());
    }
    all.finalize().to_hex()
}

#[test]
fn cavp_vectors_on_every_host_tier() {
    for tier in host_tiers() {
        for (msg_hex, digest_hex) in SHORT_MSG {
            let got = sha256_with(tier, &unhex(msg_hex)).to_hex();
            assert_eq!(&got, digest_hex, "{tier:?} msg {msg_hex:?}");
        }
        for &(len, digest_hex) in LONG_MSG {
            let got = sha256_with(tier, &long_msg(len)).to_hex();
            assert_eq!(&got, digest_hex, "{tier:?} len {len}");
        }
    }
    // What production runs is one of the above.
    assert_eq!(sha256(b"abc"), sha256_with(Tier::Portable, b"abc"));
}

/// Every length 0..=1100 — each padding shape at every block count up to
/// 17 — against `hashlib`, one-shot and split at block-straddling cuts.
#[test]
fn every_length_to_1100_on_every_host_tier() {
    for tier in host_tiers() {
        assert_eq!(
            digest_of_digests(tier, 200),
            "9480f99591ac94133736c1c2a996100bbd1bfe8f887de3b5b22adb408ac9959e",
            "{tier:?}"
        );
        assert_eq!(
            digest_of_digests(tier, 1100),
            "ef8cbabcb5df3a6ba3237ede5afbdb9fc650bd1edfd4a09f0b09c39dbf0dba16",
            "{tier:?}"
        );
        for len in 0..=1100usize {
            let msg = long_msg(len);
            let want = sha256_with(Tier::Portable, &msg);
            for cuts in [
                [1, 63],
                [64, 65],
                [len / 2, len / 2 + 64],
                [len - len % 64, len],
            ] {
                assert_eq!(
                    hash_in_pieces(tier, &msg, &cuts),
                    want,
                    "{tier:?} len {len} cuts {cuts:?}"
                );
            }
        }
    }
}

/// One f32 checkpoint of the epoch benchmark's task (97,324 weights).
#[test]
fn checkpoint_sized_message_on_every_host_tier() {
    let msg = long_msg(389_296);
    for tier in host_tiers() {
        assert_eq!(
            sha256_with(tier, &msg).to_hex(),
            "8b6e965df79b2eb7ce45084b8789bb2f227d5e72cad4eadac3781a4b54d3306e",
            "{tier:?}"
        );
        assert_eq!(
            hash_in_pieces(tier, &msg, &[1, 4097, 65_536 + 63, 389_295]),
            sha256_with(Tier::Portable, &msg),
            "{tier:?}"
        );
    }
}

/// Every CAVP vector through the batch hasher, on every tier: the SIMD
/// lanes must agree byte-for-byte with the published digests even when
/// lanes are partially filled or mixed-length.
#[test]
fn cavp_vectors_through_batch_hasher() {
    let mut msgs: Vec<Vec<u8>> = SHORT_MSG.iter().map(|(m, _)| unhex(m)).collect();
    msgs.extend(LONG_MSG.iter().map(|&(len, _)| long_msg(len)));
    let expected: Vec<&str> = SHORT_MSG
        .iter()
        .map(|&(_, d)| d)
        .chain(LONG_MSG.iter().map(|&(_, d)| d))
        .collect();
    // Duplicate the list so equal-length groups actually fill SIMD lanes.
    let refs: Vec<&[u8]> = msgs
        .iter()
        .chain(msgs.iter())
        .map(|m| m.as_slice())
        .collect();
    for tier in host_tiers() {
        let digests = sha256_batch_with(tier, &refs);
        for (i, d) in digests.iter().enumerate() {
            let want = expected[i % expected.len()];
            assert_eq!(&d.to_hex(), want, "vector {i}, {tier:?}");
        }
    }
}

/// Batches of 1/2/3/8/9/17 messages — empty lanes, one full step, a full
/// step plus a straggler, two plus one — of equal and of mixed length.
#[test]
fn batch_counts_and_length_mixes_on_every_host_tier() {
    for count in [1usize, 2, 3, 8, 9, 17] {
        for mixed in [false, true] {
            let msgs: Vec<Vec<u8>> = (0..count)
                .map(|i| {
                    let len = if mixed {
                        [777, 64, 1100, 55][i % 4]
                    } else {
                        777
                    };
                    (0..len).map(|j| (i * 31 + j * 7) as u8).collect()
                })
                .collect();
            let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
            let want: Vec<Digest> = refs
                .iter()
                .map(|m| sha256_with(Tier::Portable, m))
                .collect();
            for tier in host_tiers() {
                assert_eq!(
                    sha256_batch_with(tier, &refs),
                    want,
                    "{tier:?} count {count} mixed {mixed}"
                );
            }
            assert_eq!(
                sha256_batch(&refs),
                want,
                "detected tier, count {count} mixed {mixed}"
            );
        }
    }
}

proptest! {
    /// Incremental `update` chunking never changes the digest: absorbing a
    /// message in arbitrary pieces equals the one-shot portable hash, on
    /// every tier.
    #[test]
    fn incremental_chunking_never_changes_digest(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        cuts in proptest::collection::vec(0usize..4096, 0..8)
    ) {
        let want = sha256_with(Tier::Portable, &data);
        for tier in Tier::host_tiers() {
            prop_assert_eq!(hash_in_pieces(tier, &data, &cuts), want);
        }
    }

    /// Batch hashing equals portable hashing for arbitrary message mixes —
    /// arbitrary counts, lengths, and lane occupancy.
    #[test]
    fn batch_matches_scalar_on_random_messages(
        msgs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300), 0..24
        )
    ) {
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        for tier in Tier::host_tiers() {
            let batch = sha256_batch_with(tier, &refs);
            for (i, m) in msgs.iter().enumerate() {
                prop_assert_eq!(batch[i], sha256_with(Tier::Portable, m));
            }
        }
    }
}
