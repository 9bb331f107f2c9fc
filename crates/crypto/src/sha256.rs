//! FIPS 180-4 SHA-256, implemented from scratch.

use serde::Serialize;
use std::fmt;

/// A 256-bit digest.
///
/// # Examples
///
/// ```
/// use rpol_crypto::sha256::sha256;
///
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The zero digest, used as a placeholder (e.g. genesis parent hash).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// A view of the raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lower-case hex encoding of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
            s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
        }
        s
    }

    /// Interprets the first 8 bytes as a big-endian `u64`, handy for
    /// deriving integer seeds from digests.
    pub fn to_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The compression implementations this crate carries. Production code
/// never names one: [`Sha256::new`] and `sha256x8::sha256_batch` run
/// [`Tier::detect`]. The explicit-tier entry points
/// ([`Sha256::with_tier`], `sha256x8::sha256_batch_with`) exist so tests
/// and benchmarks can put every tier the host has beside the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Portable scalar rounds (`compress_block`) — the reference every
    /// other tier is tested against, and the only tier off x86-64.
    Portable,
    /// AVX2: eight equal-length messages in lockstep (`sha256x8`). A
    /// single stream has nothing to put in the other seven lanes and
    /// runs the portable rounds.
    Avx2Lanes,
    /// x86-64 SHA extensions: two rounds per instruction on one stream.
    /// Faster than the lockstep lanes at any batch size, so batches on
    /// this tier are hashed message by message.
    ShaNi,
}

impl Tier {
    /// Whether this CPU can run the tier.
    pub fn available(self) -> bool {
        match self {
            Tier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2Lanes => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Tier::ShaNi => {
                std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("sse2")
                    && std::arch::is_x86_feature_detected!("ssse3")
                    && std::arch::is_x86_feature_detected!("sse4.1")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx2Lanes | Tier::ShaNi => false,
        }
    }

    /// The fastest tier this host supports.
    pub fn detect() -> Tier {
        [Tier::ShaNi, Tier::Avx2Lanes]
            .into_iter()
            .find(|tier| tier.available())
            .unwrap_or(Tier::Portable)
    }

    /// Every tier this host can run, reference first, fastest last.
    pub fn host_tiers() -> Vec<Tier> {
        [Tier::Portable, Tier::Avx2Lanes, Tier::ShaNi]
            .into_iter()
            .filter(|tier| tier.available())
            .collect()
    }
}

/// An incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use rpol_crypto::sha256::{sha256, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
    tier: Tier,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher on the fastest tier the host supports.
    pub fn new() -> Self {
        Self::with_tier(Tier::detect())
    }

    /// Creates a fresh hasher on an explicit tier — for tests and
    /// benchmarks. A tier the host lacks degrades to the portable rounds
    /// (the hardware call site re-checks the CPU).
    pub fn with_tier(tier: Tier) -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
            tier,
        }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                compress_blocks(self.tier, &mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        // The whole run of full blocks in one call: the hardware tier
        // shuffles the state into its register layout once per call.
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(self.tier, &mut self.state, blocks);
        }
        if !tail.is_empty() {
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffer_len = tail.len();
        }
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // `update` never leaves a full buffer behind, so 0x80 always fits.
        let used = self.buffer_len;
        self.buffer[used] = 0x80;
        self.buffer[used + 1..].fill(0);
        if used >= 56 {
            // No room for the length: it goes in a block of its own.
            compress_blocks(self.tier, &mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(self.tier, &mut self.state, &self.buffer);
        digest_of_state(&self.state)
    }
}

/// The digest a final chaining state encodes: its eight words, big-endian.
pub(crate) fn digest_of_state(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Compresses a run of whole 64-byte blocks into `state` on `tier`.
fn compress_blocks(tier: Tier, state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::ShaNi && tier.available() {
        // SAFETY: `Tier::ShaNi.available()` is the runtime detection of
        // exactly the features `compress_blocks_sha_ni` enables.
        unsafe { compress_blocks_sha_ni(state, blocks) };
        return;
    }
    let _ = tier;
    for block in blocks.chunks_exact(64) {
        compress_block(state, block.try_into().expect("64-byte block"));
    }
}

/// The SHA-extensions tier: `sha256rnds2` runs two rounds per
/// instruction on the state held as `ABEF` / `CDGH`, and `sha256msg1` /
/// `sha256msg2` extend the message schedule four words at a time in four
/// registers. The layout shuffle in and out of `state` is paid once per
/// call, not per block. Integer arithmetic throughout — the same digest
/// as [`compress_block`] by construction, and by `tests/cavp.rs`.
///
/// `blocks.len()` must be a multiple of 64; a trailing partial block is
/// ignored.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;

    let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY: `state` is eight `u32`s — two unaligned 16-byte loads.
    let (abcd, efgh) = unsafe {
        (
            _mm_loadu_si128(state.as_ptr().cast()),
            _mm_loadu_si128(state.as_ptr().add(4).cast()),
        )
    };
    let cdab = _mm_shuffle_epi32(abcd, 0xB1);
    let efgh = _mm_shuffle_epi32(efgh, 0x1B);
    let mut s0 = _mm_alignr_epi8(cdab, efgh, 8); // ABEF
    let mut s1 = _mm_blend_epi16(efgh, cdab, 0xF0); // CDGH

    // Four rounds on the schedule words in `$m0`. `finish` completes the
    // next four words (`msg2`, rounds 12..60); `start` begins the four
    // needed twelve rounds on (`msg1`, rounds 4..52).
    macro_rules! rounds4 {
        ($g:literal, $m0:ident $(; finish $m1:ident from $prev:ident)? $(; start $m3:ident)?) => {
            // SAFETY: `K` has 64 words and `$g` < 16, so words
            // 4g..4g+4 are in bounds; the load is unaligned.
            let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * $g).cast()) };
            let wk = _mm_add_epi32($m0, k);
            s1 = _mm_sha256rnds2_epu32(s1, s0, wk);
            $($m1 = _mm_sha256msg2_epu32(
                _mm_add_epi32($m1, _mm_alignr_epi8($m0, $prev, 4)),
                $m0,
            );)?
            s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(wk, 0x0E));
            $($m3 = _mm_sha256msg1_epu32($m3, $m0);)?
        };
    }

    for block in blocks.chunks_exact(64) {
        let (save0, save1) = (s0, s1);
        let p = block.as_ptr();
        // SAFETY: `block` is 64 bytes — four unaligned 16-byte loads.
        let (mut m0, mut m1, mut m2, mut m3) = unsafe {
            (
                _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), be),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), be),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), be),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), be),
            )
        };
        rounds4!(0, m0);
        rounds4!(1, m1; start m0);
        rounds4!(2, m2; start m1);
        rounds4!(3, m3; finish m0 from m2; start m2);
        rounds4!(4, m0; finish m1 from m3; start m3);
        rounds4!(5, m1; finish m2 from m0; start m0);
        rounds4!(6, m2; finish m3 from m1; start m1);
        rounds4!(7, m3; finish m0 from m2; start m2);
        rounds4!(8, m0; finish m1 from m3; start m3);
        rounds4!(9, m1; finish m2 from m0; start m0);
        rounds4!(10, m2; finish m3 from m1; start m1);
        rounds4!(11, m3; finish m0 from m2; start m2);
        rounds4!(12, m0; finish m1 from m3; start m3);
        rounds4!(13, m1; finish m2 from m0);
        rounds4!(14, m2; finish m3 from m1);
        rounds4!(15, m3);
        s0 = _mm_add_epi32(s0, save0);
        s1 = _mm_add_epi32(s1, save1);
    }

    let feba = _mm_shuffle_epi32(s0, 0x1B);
    let dchg = _mm_shuffle_epi32(s1, 0xB1);
    // SAFETY: `state` is eight `u32`s — two unaligned 16-byte stores.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

/// One FIPS 180-4 compression round over a 64-byte block — the portable
/// reference compression: what [`Tier::Portable`] runs in the incremental
/// hasher above and in the multi-lane batch hasher (`sha256x8`), and what
/// the other tiers are tested against.
pub(crate) fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..(i + 1) * 4].try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> Digest {
    sha256_with(Tier::detect(), data)
}

/// [`sha256`] on an explicit tier — for tests and benchmarks.
pub fn sha256_with(tier: Tier, data: &[u8]) -> Digest {
    let mut h = Sha256::with_tier(tier);
    h.update(data);
    h.finalize()
}

/// SHA-256 over the little-endian byte representation of an `f32` slice,
/// the canonical way the workspace hashes model weights. The byte image is
/// obtained zero-copy via [`crate::bytes::f32s_as_le_bytes`], so hashing a
/// checkpoint reads the weights exactly once with no staging copies.
pub fn sha256_f32(data: &[f32]) -> Digest {
    sha256(&crate::bytes::f32s_as_le_bytes(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_empty() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0, 1, 63, 64, 65, 5000, 9999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    /// FIPS 180-4 §5.1.1 padding written out longhand, compressed by the
    /// reference rounds: what `finalize` must equal without sharing its
    /// buffer bookkeeping.
    fn padded_reference(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress_block(&mut state, block.try_into().expect("64-byte block"));
        }
        digest_of_state(&state)
    }

    #[test]
    fn finalize_pads_every_length_and_every_split() {
        let data: Vec<u8> = (0..200usize).map(|i| (i * 7 + 13) as u8).collect();
        for tier in Tier::host_tiers() {
            for len in 0..=data.len() {
                let want = padded_reference(&data[..len]);
                for split in 0..=len {
                    let mut h = Sha256::with_tier(tier);
                    h.update(&data[..split]);
                    h.update(&data[split..len]);
                    assert_eq!(h.finalize(), want, "{tier:?} len {len} split {split}");
                }
            }
        }
    }

    #[test]
    fn f32_hash_sensitive_to_single_bit() {
        let a = vec![1.0f32; 100];
        let mut b = a.clone();
        b[50] = 1.0000001;
        assert_ne!(sha256_f32(&a), sha256_f32(&b));
        assert_eq!(sha256_f32(&a), sha256_f32(&a.clone()));
    }

    #[test]
    fn digest_utils() {
        let d = sha256(b"x");
        assert_eq!(d.to_hex().len(), 64);
        assert_ne!(d.to_u64(), 0);
        assert_eq!(Digest::ZERO.to_u64(), 0);
        assert!(format!("{d:?}").starts_with("Digest("));
    }
}
