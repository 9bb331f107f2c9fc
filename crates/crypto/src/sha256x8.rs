//! Multi-way SHA-256: up to 8 messages compressed in parallel.
//!
//! RPoLv1 commits the SHA-256 of every checkpoint of an epoch, and RPoLv2
//! commits `l` group digests per checkpoint — in both cases the manager
//! and workers hash *many same-length messages* back to back. SHA-256's
//! compression function has a long serial dependency chain inside one
//! message, but independent messages have independent chains, so eight of
//! them can ride the lanes of one 256-bit integer register: every round
//! computes `Σ₁`, `Ch`, `Maj`, … for all eight blocks with one instruction
//! each.
//!
//! Determinism contract: SHA-256 is pure integer arithmetic, so every tier
//! produces byte-identical digests to the portable reference
//! ([`Tier::Portable`]) by construction — no rounding, no reassociation.
//! The CAVP vector suite and property tests in `tests/cavp.rs` enforce
//! agreement between every tier the host has anyway, so a transposition
//! bug in a vector path cannot hide.
//!
//! Dispatch: [`Tier::detect`] picks, once per batch. On a host with the
//! SHA extensions one hardware stream outruns all eight AVX2 lanes
//! (DESIGN.md §21), so a batch is hashed message by message and nothing
//! here runs in lockstep. An AVX2 host without them gets the 8-way
//! vectors; anything else gets the portable compression looped over
//! lanes — batching still pays there, because the padded tail blocks are
//! built once per batch instead of once per message.

use crate::bytes::f32s_as_le_bytes;
use crate::sha256::{compress_block, digest_of_state, sha256_with, Digest, Sha256, Tier, H0};

/// Messages hashed in lockstep per batch step.
pub const LANES: usize = 8;

/// Compresses one 64-byte block into each of the 8 lane states, in
/// lockstep. All lanes advance by exactly one block.
fn compress8(tier: Tier, states: &mut [[u32; 8]; LANES], blocks: &[&[u8; 64]; LANES]) {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2Lanes && tier.available() {
        // SAFETY: `Tier::Avx2Lanes.available()` is the runtime detection
        // of `avx2`.
        unsafe { compress8_avx2(states, blocks) };
        return;
    }
    let _ = tier;
    for (state, block) in states.iter_mut().zip(blocks) {
        compress_block(state, block);
    }
}

/// AVX2 8-way compression: one `__m256i` register holds the same working
/// variable for all 8 lanes. Pure integer arithmetic — bitwise identical
/// to [`compress_block`] per lane.
///
/// # Safety
///
/// Callers must have verified `avx2` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn compress8_avx2(states: &mut [[u32; 8]; LANES], blocks: &[&[u8; 64]; LANES]) {
    use std::arch::x86_64::*;

    // The shift intrinsics take const immediates, so the rotation amount
    // must be a literal — hence a macro rather than a helper fn.
    macro_rules! rotr {
        ($x:expr, $n:literal) => {
            _mm256_or_si256(_mm256_srli_epi32($x, $n), _mm256_slli_epi32($x, 32 - $n))
        };
    }

    // Transpose the 16 big-endian message words of each lane into 16
    // vectors of [lane0..lane7].
    let mut w = [_mm256_setzero_si256(); 64];
    let mut lane_words = [[0u32; 16]; LANES];
    for (lane, block) in blocks.iter().enumerate() {
        for (i, word) in lane_words[lane].iter_mut().enumerate() {
            *word = u32::from_be_bytes(block[i * 4..(i + 1) * 4].try_into().expect("4 bytes"));
        }
    }
    for (i, wi) in w.iter_mut().take(16).enumerate() {
        *wi = _mm256_set_epi32(
            lane_words[7][i] as i32,
            lane_words[6][i] as i32,
            lane_words[5][i] as i32,
            lane_words[4][i] as i32,
            lane_words[3][i] as i32,
            lane_words[2][i] as i32,
            lane_words[1][i] as i32,
            lane_words[0][i] as i32,
        );
    }
    for i in 16..64 {
        let s0 = _mm256_xor_si256(
            _mm256_xor_si256(rotr!(w[i - 15], 7), rotr!(w[i - 15], 18)),
            _mm256_srli_epi32(w[i - 15], 3),
        );
        let s1 = _mm256_xor_si256(
            _mm256_xor_si256(rotr!(w[i - 2], 17), rotr!(w[i - 2], 19)),
            _mm256_srli_epi32(w[i - 2], 10),
        );
        w[i] = _mm256_add_epi32(
            _mm256_add_epi32(w[i - 16], s0),
            _mm256_add_epi32(w[i - 7], s1),
        );
    }

    // Load the transposed working variables a..h.
    let mut vars = [_mm256_setzero_si256(); 8];
    for (r, var) in vars.iter_mut().enumerate() {
        *var = _mm256_set_epi32(
            states[7][r] as i32,
            states[6][r] as i32,
            states[5][r] as i32,
            states[4][r] as i32,
            states[3][r] as i32,
            states[2][r] as i32,
            states[1][r] as i32,
            states[0][r] as i32,
        );
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = vars;

    for (i, &wi) in w.iter().enumerate() {
        let s1 = _mm256_xor_si256(_mm256_xor_si256(rotr!(e, 6), rotr!(e, 11)), rotr!(e, 25));
        let ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
        let temp1 = _mm256_add_epi32(
            _mm256_add_epi32(_mm256_add_epi32(h, s1), _mm256_add_epi32(ch, wi)),
            _mm256_set1_epi32(crate::sha256::K[i] as i32),
        );
        let s0 = _mm256_xor_si256(_mm256_xor_si256(rotr!(a, 2), rotr!(a, 13)), rotr!(a, 22));
        let maj = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
            _mm256_and_si256(b, c),
        );
        let temp2 = _mm256_add_epi32(s0, maj);
        h = g;
        g = f;
        f = e;
        e = _mm256_add_epi32(d, temp1);
        d = c;
        c = b;
        b = a;
        a = _mm256_add_epi32(temp1, temp2);
    }

    // Scatter the updated variables back into the per-lane states.
    for (r, var) in [a, b, c, d, e, f, g, h].into_iter().enumerate() {
        let mut out = [0u32; LANES];
        _mm256_storeu_si256(out.as_mut_ptr().cast(), var);
        for (lane, &v) in out.iter().enumerate() {
            states[lane][r] = states[lane][r].wrapping_add(v);
        }
    }
}

/// Hashes up to [`LANES`] equal-length messages in lockstep; `msgs` may be
/// shorter than [`LANES`], in which case the trailing lanes duplicate the
/// first message and their digests are discarded.
fn sha256_lockstep(tier: Tier, msgs: &[&[u8]], out: &mut [Digest]) {
    debug_assert!(!msgs.is_empty() && msgs.len() <= LANES);
    debug_assert_eq!(msgs.len(), out.len());
    let len = msgs[0].len();
    debug_assert!(msgs.iter().all(|m| m.len() == len));

    let mut states = [H0; LANES];
    let filler = msgs[0];
    let lane_msg = |lane: usize| -> &[u8] {
        if lane < msgs.len() {
            msgs[lane]
        } else {
            filler
        }
    };

    // Full 64-byte blocks, all lanes in lockstep.
    let full_blocks = len / 64;
    for blk in 0..full_blocks {
        let blocks: [&[u8; 64]; LANES] = std::array::from_fn(|lane| {
            lane_msg(lane)[blk * 64..(blk + 1) * 64]
                .try_into()
                .expect("64-byte block")
        });
        compress8(tier, &mut states, &blocks);
    }

    // Padding: identical structure across lanes because lengths agree.
    // One extra block when the tail + 0x80 + 8-byte length fit, else two.
    let rem = len % 64;
    let bit_len = (len as u64).wrapping_mul(8).to_be_bytes();
    let mut tails = [[0u8; 128]; LANES];
    let pad_blocks = if rem < 56 { 1 } else { 2 };
    for (lane, tail) in tails.iter_mut().enumerate() {
        let msg = lane_msg(lane);
        tail[..rem].copy_from_slice(&msg[len - rem..]);
        tail[rem] = 0x80;
        tail[pad_blocks * 64 - 8..pad_blocks * 64].copy_from_slice(&bit_len);
    }
    for blk in 0..pad_blocks {
        let blocks: [&[u8; 64]; LANES] = std::array::from_fn(|lane| {
            tails[lane][blk * 64..(blk + 1) * 64]
                .try_into()
                .expect("64-byte block")
        });
        compress8(tier, &mut states, &blocks);
    }

    for (digest, state) in out.iter_mut().zip(&states) {
        *digest = digest_of_state(state);
    }
}

/// Hashes a batch of messages on the fastest tier the host has. Digests
/// are byte-identical to hashing each message with [`sha256`], and are
/// returned in input order.
///
/// With the SHA extensions each message is one hardware stream. Without
/// them, messages of equal length ride the SIMD lanes together, up to
/// [`LANES`] at a time (the checkpoint commitment shape: every digest of
/// an epoch covers the same model size), and a length that appears only
/// once is hashed on its own.
///
/// [`sha256`]: crate::sha256::sha256
///
/// # Examples
///
/// ```
/// use rpol_crypto::sha256::sha256;
/// use rpol_crypto::sha256x8::sha256_batch;
///
/// let msgs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 100]).collect();
/// let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
/// let digests = sha256_batch(&refs);
/// for (msg, d) in msgs.iter().zip(&digests) {
///     assert_eq!(*d, sha256(msg));
/// }
/// ```
pub fn sha256_batch(msgs: &[&[u8]]) -> Vec<Digest> {
    sha256_batch_with(Tier::detect(), msgs)
}

/// [`sha256_batch`] on an explicit tier — for tests and benchmarks. A tier
/// the host lacks degrades to the portable compression.
pub fn sha256_batch_with(tier: Tier, msgs: &[&[u8]]) -> Vec<Digest> {
    if tier == Tier::ShaNi {
        return msgs.iter().map(|m| sha256_with(tier, m)).collect();
    }
    let mut out = vec![Digest::ZERO; msgs.len()];
    // Group message indices by length, preserving input order within a
    // group; equal-length runs then share lockstep batches.
    let mut order: Vec<usize> = (0..msgs.len()).collect();
    order.sort_by_key(|&i| (msgs[i].len(), i));
    let mut start = 0;
    while start < order.len() {
        let len = msgs[order[start]].len();
        let mut end = start + 1;
        while end < order.len() && msgs[order[end]].len() == len {
            end += 1;
        }
        for chunk in order[start..end].chunks(LANES) {
            if chunk.len() == 1 {
                out[chunk[0]] = sha256_with(tier, msgs[chunk[0]]);
            } else {
                let lane_msgs: Vec<&[u8]> = chunk.iter().map(|&i| msgs[i]).collect();
                let mut digests = vec![Digest::ZERO; chunk.len()];
                sha256_lockstep(tier, &lane_msgs, &mut digests);
                for (&i, d) in chunk.iter().zip(digests) {
                    out[i] = d;
                }
            }
        }
        start = end;
    }
    out
}

/// Batched [`crate::sha256::sha256_f32`]: hashes the little-endian byte
/// image of every `f32` slice, riding the SIMD lanes for slices of equal
/// length — one call digests an entire commitment list of checkpoints.
pub fn sha256_f32_batch(slices: &[&[f32]]) -> Vec<Digest> {
    let views: Vec<_> = slices.iter().map(|s| f32s_as_le_bytes(s)).collect();
    let refs: Vec<&[u8]> = views.iter().map(|v| &v[..]).collect();
    sha256_batch(&refs)
}

/// Batched SHA-256 over the packed **bf16 images** of `f32` slices (see
/// [`crate::bytes::bf16_as_le_bytes`]): the RPoLv3 quantized checkpoint
/// digest. Each message is 2 bytes per weight instead of 4, so a
/// commitment list takes roughly half the compression passes of
/// [`sha256_f32_batch`].
pub fn sha256_bf16_batch(slices: &[&[f32]]) -> Vec<Digest> {
    let tier = Tier::detect();
    if tier == Tier::ShaNi {
        // One stream per message: the image is packed a stack buffer at a
        // time straight into the hasher and never exists in memory.
        return slices
            .iter()
            .map(|s| {
                let mut h = Sha256::with_tier(tier);
                crate::bytes::bf16_le_chunks(s, |bytes| h.update(bytes));
                h.finalize()
            })
            .collect();
    }
    let views: Vec<Vec<u8>> = slices
        .iter()
        .map(|s| crate::bytes::bf16_as_le_bytes(s))
        .collect();
    let refs: Vec<&[u8]> = views.iter().map(|v| &v[..]).collect();
    sha256_batch_with(tier, &refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{sha256, sha256_f32};

    fn check_batch(msgs: &[Vec<u8>]) {
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let batch = sha256_batch(&refs);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(batch[i], sha256(m), "message {i} (len {})", m.len());
        }
    }

    #[test]
    fn equal_length_batches_match_scalar() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 128, 1000] {
            for count in [1usize, 2, 7, 8, 9, 17] {
                let msgs: Vec<Vec<u8>> = (0..count)
                    .map(|i| (0..len).map(|j| (i * 31 + j * 7) as u8).collect())
                    .collect();
                check_batch(&msgs);
            }
        }
    }

    #[test]
    fn mixed_length_batches_match_scalar() {
        let msgs: Vec<Vec<u8>> = [3usize, 64, 3, 200, 64, 64, 0, 200, 3, 65]
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 13 + j) as u8).collect())
            .collect();
        check_batch(&msgs);
    }

    #[test]
    fn every_host_tier_agrees_with_the_portable_lanes() {
        let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 777]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let portable = sha256_batch_with(Tier::Portable, &refs);
        for tier in Tier::host_tiers() {
            assert_eq!(sha256_batch_with(tier, &refs), portable, "{tier:?}");
        }
    }

    #[test]
    fn f32_batch_matches_scalar_f32_hash() {
        let slices: Vec<Vec<f32>> = (0..6)
            .map(|i| {
                (0..300)
                    .map(|j| (i * 300 + j) as f32 * 0.125 - 7.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = slices.iter().map(|s| s.as_slice()).collect();
        let batch = sha256_f32_batch(&refs);
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(batch[i], sha256_f32(s), "slice {i}");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(sha256_batch(&[]).is_empty());
    }

    #[test]
    fn bf16_batch_hashes_the_packed_image() {
        let slices: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..200).map(|j| (i * 7 + j) as f32 * 0.375 - 3.0).collect())
            .collect();
        let refs: Vec<&[f32]> = slices.iter().map(|s| s.as_slice()).collect();
        let batch = sha256_bf16_batch(&refs);
        for (i, s) in slices.iter().enumerate() {
            let packed = crate::bytes::bf16_as_le_bytes(s);
            assert_eq!(batch[i], sha256(&packed), "slice {i}");
            assert_eq!(packed.len(), s.len() * 2);
        }
    }
}
