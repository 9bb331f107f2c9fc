//! Wire encoding of protocol messages.
//!
//! The in-process pool passes Rust structs around, but the §VII-E
//! communication numbers need byte-exact message sizes, and a deployment
//! would ship these messages over TLS. This module defines the canonical
//! little-endian framing for every worker↔manager message and round-trips
//! them through [`bytes::Bytes`] buffers.
//!
//! Layout conventions: all integers little-endian; digests are 32 raw
//! bytes; every weight vector — a task's global model, a submission's
//! final weights, an opened checkpoint — is one versioned block on its
//! scheme's lattice (a dictionary-coded hi plane, then one lo plane for
//! bf16 or three for f32; see `put_block`), lossless on that lattice.
//!
//! For transit over the (possibly lossy) transport layer, messages are
//! wrapped in a checksummed frame ([`seal_frame`], opened by
//! [`FrameAssembler`]) so that in-flight corruption and truncation surface
//! as [`DecodeError`]s the receiver can turn into retransmission requests
//! — weight payloads carry no internal redundancy, so without the frame
//! digest a flipped byte would silently alter a model instead of failing
//! decode.

use crate::commitment::{row_width, EpochCommitment};
use crate::pool::{Lattice, Scheme};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rpol_crypto::sha256::{sha256, Digest};
use rpol_obs::TraceContext;
use rpol_tensor::scratch;

/// Errors produced while decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the message did.
    Truncated,
    /// A tag or count field held an invalid value.
    Malformed(&'static str),
    /// A frame's payload digest did not match its header (in-flight
    /// corruption).
    ChecksumMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("message truncated"),
            DecodeError::Malformed(what) => write!(f, "malformed field: {what}"),
            DecodeError::ChecksumMismatch => f.write_str("frame checksum mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn get_u32(buf: &mut Bytes) -> Result<u32, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u64_le())
}

/// Validates a length prefix against the bytes actually present *before*
/// any allocation sized by it: a corrupted or malicious count must fail
/// decoding with [`DecodeError::Truncated`], not drive a multi-GB
/// `Vec::with_capacity` reservation.
fn checked_count(buf: &Bytes, n: usize, elem_bytes: usize) -> Result<(), DecodeError> {
    let need = n
        .checked_mul(elem_bytes)
        .ok_or(DecodeError::Malformed("count overflow"))?;
    if buf.remaining() < need {
        return Err(DecodeError::Truncated);
    }
    Ok(())
}

fn put_digest(out: &mut impl BufMut, d: &Digest) {
    out.put_slice(d.as_bytes());
}

fn get_digest(buf: &mut Bytes) -> Result<Digest, DecodeError> {
    if buf.remaining() < 32 {
        return Err(DecodeError::Truncated);
    }
    let mut raw = [0u8; 32];
    buf.copy_to_slice(&mut raw);
    Ok(Digest(raw))
}

/// Message tags: one per message, whatever the scheme or lattice. Protocol
/// 4 retired the per-commitment submission tags `0x01`–`0x04` and the raw
/// f32 opening and task tags `0x11` and `0x20`; none is ever reassigned.
const TAG_SUBMISSION: u8 = 0x05;
const TAG_PROOF_REQUEST: u8 = 0x10;
const TAG_PROOF_RESPONSE: u8 = 0x12;
const TAG_EPOCH_TASK: u8 = 0x21;
const TAG_COMMITTEE_BATCH: u8 = 0x40;

/// Weight-block layout version, the low nibble of a block's first byte.
/// Bumping it (and teaching the decoder the new layout) is how the format
/// evolves; decoders reject versions they do not know with a clean
/// [`DecodeError::Malformed`]. Version 1 was a raw | delta-RLE hi plane.
const BLOCK_V2: u8 = 2;
/// Hi-plane encodings inside a block.
const HI_PLANE_RAW: u8 = 0;
const HI_PLANE_DICT4: u8 = 1;
/// The nibble code of a hi byte outside the dictionary, which therefore
/// holds at most this many entries.
const ESCAPE: u8 = 15;
/// Version and lattice (1) + weight count (4) + hi-plane mode (1).
const BLOCK_HEADER_BYTES: usize = 6;

/// The high nibble of a block's first byte: the lattice its weights lie
/// on, which fixes how many lo planes follow the hi plane. Bf16 is 0, so
/// a bf16 block is byte for byte the version-2 block RPoLv3 shipped before
/// the other schemes joined it.
fn lattice_nibble(lattice: Lattice) -> u8 {
    match lattice {
        Lattice::Bf16 => 0,
        Lattice::F32 => 1,
    }
}

/// Right shifts of the lo planes that follow the hi plane, most
/// significant first: a bf16 weight's second byte, or an f32 weight's
/// three lower bytes.
fn lo_shifts(lattice: Lattice) -> &'static [u32] {
    match lattice {
        Lattice::Bf16 => &[16],
        Lattice::F32 => &[16, 8, 0],
    }
}

fn hi_byte(w: &f32) -> u8 {
    (w.to_bits() >> 24) as u8
}

/// Counts of `key` over `items`, one histogram per lane of four: a trained
/// vector repeats a few hi bytes, and back-to-back increments of one
/// counter serialise.
fn histogram<T>(items: &[T], key: impl Fn(&T) -> u8) -> [usize; 256] {
    let mut lanes = [[0u32; 256]; 4];
    let mut quads = items.chunks_exact(4);
    for quad in &mut quads {
        for (lane, x) in lanes.iter_mut().zip(quad) {
            lane[key(x) as usize] += 1;
        }
    }
    for x in quads.remainder() {
        lanes[0][key(x) as usize] += 1;
    }
    std::array::from_fn(|v| lanes.iter().map(|lane| lane[v] as usize).sum())
}

/// The dictionary of a hi plane: its ≤ 15 most frequent bytes, most
/// frequent first, ties by byte value — a pure function of the image, so
/// an image has exactly one encoding.
struct HiDict {
    table: [u8; ESCAPE as usize],
    len: usize,
    /// Weights whose hi byte the table does not hold.
    escapes: usize,
}

impl HiDict {
    fn of(weights: &[f32]) -> Self {
        Self::from_counts(&histogram(weights, hi_byte), weights.len())
    }

    /// The dictionary of a plane of `n` bytes, `counts[v]` of them `v`.
    fn from_counts(counts: &[usize; 256], n: usize) -> Self {
        let count = |v: &u8| counts[*v as usize];
        let mut order: [u8; 256] = std::array::from_fn(|v| v as u8);
        order.sort_unstable_by_key(|v| (std::cmp::Reverse(count(v)), *v));
        let mut table = [0u8; ESCAPE as usize];
        table.copy_from_slice(&order[..ESCAPE as usize]);
        let len = table.iter().take_while(|v| count(v) > 0).count();
        Self {
            table,
            len,
            escapes: n - table[..len].iter().map(count).sum::<usize>(),
        }
    }

    fn table(&self) -> &[u8] {
        &self.table[..self.len]
    }

    /// Bytes of the dictionary-coded plane of `n` weights — table length,
    /// table, a nibble per weight, escaped bytes — when that is shorter
    /// than the `n`-byte plane itself.
    fn coded_len(&self, n: usize) -> Option<usize> {
        let coded = 1 + self.len + n.div_ceil(2) + self.escapes;
        (coded < n).then_some(coded)
    }
}

/// Bytes the block of `weights` on `lattice` spends — one counting pass,
/// nothing encoded — so paths that never build a frame (the in-process
/// broadcast, a worker's upload, the verifier's openings) charge what the
/// wire would carry.
pub fn block_len(lattice: Lattice, weights: &[f32]) -> usize {
    let n = weights.len();
    BLOCK_HEADER_BYTES
        + HiDict::of(weights).coded_len(n).unwrap_or(n)
        + lo_shifts(lattice).len() * n
}

/// Appends the versioned weight block of `weights` on `lattice` and
/// returns how its hi plane was coded. The block is `version | lattice`,
/// the weight count, then each weight's top byte (sign + upper exponent
/// bits — a trained vector uses two dozen values of it) as a hi plane,
/// then its lower bytes as lo planes shipped as is (near-uniform): one for
/// bf16, three for f32. The hi plane is coded as `table_len | table |
/// ⌈n/2⌉ nibble bytes | escaped bytes`: a nibble per weight, low nibble
/// first, indexing the [`HiDict`] table, [`ESCAPE`] for a byte the table
/// does not hold (those follow in order), a trailing pad nibble 0. When
/// that is not shorter than the plane, a flag byte ships the plane raw —
/// so the block never exceeds `(1 + planes)·n + 6` bytes and is about
/// `planes + 0.5` bytes a weight on weights.
///
/// Lossless on its lattice: an f32 block carries every bit of every
/// weight. A bf16 block drops the low 16 bits, so callers must only put
/// weights already **on the bf16 lattice** (the RPoLv3 checkpoint
/// invariant) in one.
fn put_block(out: &mut Vec<u8>, lattice: Lattice, weights: &[f32]) -> HiPlane {
    debug_assert!(
        lattice == Lattice::F32 || rpol_tensor::quant::is_bf16_lattice(weights),
        "a bf16 block of off-lattice weights would lose bits"
    );
    let n = weights.len();
    let shifts = lo_shifts(lattice);
    out.reserve(block_capacity(lattice, n));
    out.put_u8(lattice_nibble(lattice) << 4 | BLOCK_V2);
    out.put_u32_le(n as u32);
    let dict = HiDict::of(weights);
    let chose = if dict.coded_len(n).is_some() {
        out.put_u8(HI_PLANE_DICT4);
        out.put_u8(dict.len as u8);
        out.put_slice(dict.table());
        let mut code = [ESCAPE; 256];
        for (c, &v) in dict.table().iter().enumerate() {
            code[v as usize] = c as u8;
        }
        let nibble = |w: &f32| code[hi_byte(w) as usize];
        let pairs = weights.chunks_exact(2);
        let odd = pairs.remainder();
        let nibbles_at = out.len();
        out.extend(pairs.map(|pair| nibble(&pair[0]) | nibble(&pair[1]) << 4));
        out.extend(odd.iter().map(nibble));
        // The escaped bytes, in order. Escapes are a handful in 100,000
        // weights: only a 128-weight block whose nibbles hold one is
        // walked, which keeps the pass above free of a branch.
        let mut escaped = Vec::with_capacity(dict.escapes);
        for (block, coded) in weights.chunks(128).zip(out[nibbles_at..].chunks(64)) {
            if count_escapes(coded) > 0 {
                escaped.extend(
                    block
                        .iter()
                        .map(hi_byte)
                        .filter(|&h| code[h as usize] == ESCAPE),
                );
            }
        }
        out.put_slice(&escaped);
        HiPlane::Dict {
            escapes: dict.escapes,
        }
    } else {
        out.put_u8(HI_PLANE_RAW);
        out.extend(weights.iter().map(hi_byte));
        HiPlane::Raw
    };
    for &shift in shifts {
        out.extend(weights.iter().map(|w| (w.to_bits() >> shift) as u8));
    }
    chose
}

/// The most bytes a block of `n` weights on `lattice` spends: the header
/// and a raw hi plane (a dictionary is chosen only when it is shorter).
fn block_capacity(lattice: Lattice, n: usize) -> usize {
    BLOCK_HEADER_BYTES + (1 + lo_shifts(lattice).len()) * n
}

/// Nibbles equal to [`ESCAPE`], counted in `u8` lanes (a block of 127
/// bytes holds at most 254): that shape compiles to 16-byte compares, a
/// `usize` accumulator does not.
fn count_escapes(nibbles: &[u8]) -> usize {
    let escapes = |&b: &u8| u8::from(b & 0x0F == ESCAPE) + u8::from(b >> 4 == ESCAPE);
    nibbles
        .chunks(127)
        .map(|block| usize::from(block.iter().map(escapes).sum::<u8>()))
        .sum()
}

/// Decodes a versioned weight block back into the exact `f32`s put in it,
/// on the lattice it names. `want`, when the message's scheme fixes a
/// lattice, refuses a block naming the other one before anything is read
/// past its first byte. Every length is validated against the bytes
/// actually present before any allocation it sizes, and a block the
/// encoder would not have written for the image it holds — a code beyond
/// the table, a nonzero pad nibble, a table or a mode other than
/// [`HiDict`]'s — fails with [`DecodeError::Malformed`]: hostile input can
/// never panic or over-allocate, and two different blocks never decode to
/// one image.
fn get_block(buf: &mut Bytes, want: Option<Lattice>) -> Result<Vec<f32>, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let head = buf.get_u8();
    if head & 0x0F != BLOCK_V2 {
        return Err(DecodeError::Malformed("unknown packed-weight version"));
    }
    let lattice = [Lattice::Bf16, Lattice::F32]
        .into_iter()
        .find(|&l| lattice_nibble(l) == head >> 4)
        .ok_or(DecodeError::Malformed("unknown packed-weight lattice"))?;
    if want.is_some_and(|want| want != lattice) {
        return Err(DecodeError::Malformed(
            "block lattice disagrees with the scheme",
        ));
    }
    let n = get_u32(buf)? as usize;
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let shifts = lo_shifts(lattice);
    let overflow = DecodeError::Malformed("count overflow");
    let lo_len = n.checked_mul(shifts.len()).ok_or(overflow.clone())?;
    let non_canonical = DecodeError::Malformed("not the encoder's hi plane");
    // Each weight's hi byte in place (`hi << 24`), then the lo planes.
    let (mut bits, hi_len) = match buf.get_u8() {
        HI_PLANE_RAW => {
            checked_count(buf, n, 1 + shifts.len())?;
            let hi = &buf[..n];
            if HiDict::from_counts(&histogram(hi, |&h| h), n)
                .coded_len(n)
                .is_some()
            {
                return Err(non_canonical);
            }
            let mut bits = pooled_bits(n);
            bits.extend(hi.iter().map(|&h| u32::from(h) << 24));
            (bits, n)
        }
        HI_PLANE_DICT4 => {
            if buf.remaining() < 1 {
                return Err(DecodeError::Truncated);
            }
            let len = buf.get_u8() as usize;
            if len > ESCAPE as usize {
                return Err(DecodeError::Malformed("dictionary too long"));
            }
            // Table, nibbles and lo planes must be present before the
            // nibbles are read; the escapes they announce, before `bits`
            // is sized.
            let nibbles_end = len + n.div_ceil(2);
            let fixed = nibbles_end.checked_add(lo_len).ok_or(overflow)?;
            checked_count(buf, fixed, 1)?;
            let (table, nibbles) = buf[..nibbles_end].split_at(len);
            if n % 2 == 1 && nibbles[n / 2] >> 4 != 0 {
                return Err(DecodeError::Malformed("nonzero pad nibble"));
            }
            let escapes = count_escapes(nibbles);
            checked_count(buf, fixed + escapes, 1)?;
            let escaped = &buf[nibbles_end..nibbles_end + escapes];
            // Two weights per nibble byte through a 256-entry pair table;
            // bit 0 (clear in every `hi << 24`) marks a nibble that is an
            // escape or a code beyond the table, resolved one at a time.
            let mut lut = [1u32; 16];
            for (slot, &v) in lut.iter_mut().zip(table) {
                *slot = u32::from(v) << 24;
            }
            let pairs: [[u32; 2]; 256] = std::array::from_fn(|b| [lut[b & 15], lut[b >> 4]]);
            let mut next_escaped = escaped.iter();
            let mut resolve = |code: u8| match lut[code as usize] {
                hi if hi & 1 == 0 => Ok(hi),
                _ if code == ESCAPE => {
                    let byte = next_escaped.next().ok_or(DecodeError::Truncated)?;
                    Ok(u32::from(*byte) << 24)
                }
                _ => Err(DecodeError::Malformed("code beyond the dictionary")),
            };
            let mut bits = pooled_bits(n);
            bits.resize(n, 0);
            for (pair, &b) in bits.chunks_exact_mut(2).zip(nibbles) {
                let mut his = pairs[b as usize];
                if (his[0] | his[1]) & 1 != 0 {
                    his = [resolve(b & 15)?, resolve(b >> 4)?];
                }
                pair.copy_from_slice(&his);
            }
            if n % 2 == 1 {
                bits[n - 1] = resolve(nibbles[n / 2])?;
            }
            // The image's hi-byte counts, from the codes rather than the
            // image: a histogram of n/2 nibble bytes, not of n weights.
            let pair_counts = histogram(nibbles, |&b| b);
            let mut code_counts = [0usize; 16];
            for (b, &count) in pair_counts.iter().enumerate() {
                code_counts[b & 15] += count;
                code_counts[b >> 4] += count;
            }
            // The pad nibble is no weight.
            code_counts[0] -= n % 2;
            let mut counts = [0usize; 256];
            for (&v, &count) in table.iter().zip(&code_counts) {
                counts[v as usize] += count;
            }
            for &v in escaped {
                counts[v as usize] += 1;
            }
            let canon = HiDict::from_counts(&counts, n);
            if canon.coded_len(n).is_none() || canon.table() != table || canon.escapes != escapes {
                return Err(non_canonical);
            }
            (bits, nibbles_end + escapes)
        }
        _ => return Err(DecodeError::Malformed("unknown hi-plane mode")),
    };
    let lo = &buf[hi_len..hi_len + lo_len];
    match *shifts {
        [shift] => {
            for (b, &l) in bits.iter_mut().zip(lo) {
                *b |= u32::from(l) << shift;
            }
        }
        _ => {
            let (l16, rest) = lo.split_at(n);
            let (l8, l0) = rest.split_at(n);
            for (((b, &x), &y), &z) in bits.iter_mut().zip(l16).zip(l8).zip(l0) {
                *b |= u32::from(x) << 16 | u32::from(y) << 8 | u32::from(z);
            }
        }
    }
    buf.advance(hi_len + lo_len);
    Ok(bits.into_iter().map(f32::from_bits).collect())
}

/// An empty buffer for `n` weights' bits, from the process pool of `f32`
/// buffers: the conversions in and out of bits keep the allocation, so the
/// decoded weights are a pooled `Vec<f32>` their reader may put back.
fn pooled_bits(n: usize) -> Vec<u32> {
    scratch::take_empty::<f32>(n)
        .into_iter()
        .map(f32::to_bits)
        .collect()
}

/// How a block coded its hi plane: the number an operator needs to tell
/// "the model stopped looking like weights" from "a link is retrying".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HiPlane {
    /// The dictionary lost; the plane shipped as is.
    Raw,
    /// Dictionary-coded, `escapes` weights outside the table.
    Dict {
        /// Weights whose hi byte travelled as an escaped byte.
        escapes: usize,
    },
}

/// Reads the encoder's choice back off a well-formed block.
fn hi_plane_of(block: &[u8]) -> Option<HiPlane> {
    let n = u32::from_le_bytes(block.get(1..5)?.try_into().ok()?) as usize;
    match *block.get(5)? {
        HI_PLANE_RAW => Some(HiPlane::Raw),
        HI_PLANE_DICT4 => {
            let nibbles = block.get(7..)?.get(*block.get(6)? as usize..)?;
            let escapes = count_escapes(nibbles.get(..n.div_ceil(2))?);
            Some(HiPlane::Dict { escapes })
        }
        _ => None,
    }
}

/// [`HiPlane`] of the block a model payload carries — a task, submission
/// or opening as this module encoded it, on either lattice; `None` for
/// every other payload.
pub fn packed_hi_plane(payload: &[u8]) -> Option<HiPlane> {
    let block_at = match *payload.first()? {
        TAG_SUBMISSION => SUBMISSION_HEADER_BYTES,
        TAG_PROOF_RESPONSE => PROOF_RESPONSE_HEADER_BYTES,
        TAG_EPOCH_TASK => TASK_HEADER_BYTES,
        _ => return None,
    };
    hi_plane_of(payload.get(block_at..)?)
}

/// Wire bytes the raw f32 framing the blocks replaced spent on `n`
/// weights (length prefix + 4 bytes each) — the baseline `bytes_saved`
/// accounting measures blocks against.
fn raw_weights_wire_size(n: usize) -> usize {
    4 + n * 4
}

/// Magic bytes opening every transport frame (`"RPoL"` little-endian).
const FRAME_MAGIC: u32 = 0x4C6F5052;
/// Frame header: magic (4) + payload length (4) + truncated digest (8).
pub(crate) const FRAME_HEADER_BYTES: usize = 4 + 4 + 8;

/// Wraps an encoded message in a transport frame carrying a length prefix
/// and the first 8 bytes of the payload's SHA-256. [`FrameAssembler`]
/// verifies both, so corrupted or truncated deliveries fail decoding
/// deterministically instead of smuggling flipped bytes into weight vectors.
pub fn seal_frame(payload: &Bytes) -> Bytes {
    let mut out = scratch::take_empty(FRAME_HEADER_BYTES + payload.len());
    seal_frame_into(payload, &mut out);
    Bytes::from(out)
}

/// [`seal_frame`] into a caller-supplied buffer (cleared first), producing
/// byte-identical framing without allocating — the outbox path hands in a
/// recycled [`BufPool`] buffer and returns it once the frame is flushed.
pub fn seal_frame_into(payload: &[u8], out: &mut Vec<u8>) {
    let digest = sha256(payload);
    out.clear();
    out.reserve(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&digest.as_bytes()[..8]);
    out.extend_from_slice(payload);
}

/// One server's view of the process pool of `Vec<u8>` buffers
/// ([`rpol_tensor::scratch`]): frame payloads, outbox frames and assembler
/// backing stores are taken from and returned to it, so pumping at a
/// stable working set allocates nothing, and a frame freed by one thread
/// serves the next on another.
///
/// Counters feed the `net.buf_pool.*` metrics and read only this server's
/// own traffic, never the process pool's state: a request is a hit when
/// the server has returned a buffer it has not drawn back since, and
/// `bytes_reused` totals the capacity handed out on hits.
#[derive(Debug, Default)]
pub struct BufPool {
    /// Buffers this server returned and has not drawn back.
    returned: u64,
    /// Requests made while a returned buffer was outstanding.
    pub hits: u64,
    /// Requests made with none.
    pub misses: u64,
    /// Total capacity (bytes) of the buffers handed out on hits.
    pub bytes_reused: u64,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an empty buffer with room for at least `len` bytes.
    pub fn get(&mut self, len: usize) -> Vec<u8> {
        let buf = scratch::take_empty(len);
        if self.returned > 0 {
            self.returned -= 1;
            self.hits += 1;
            self.bytes_reused += buf.capacity() as u64;
        } else {
            self.misses += 1;
        }
        buf
    }

    /// Returns a buffer (one without capacity is dropped uncounted).
    pub fn put(&mut self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        self.returned += 1;
        scratch::put(buf);
    }
}

/// Checks a whole frame's magic, length and checksum, in that order:
/// whether the receiver would get its payload
/// (`frame[FRAME_HEADER_BYTES..]`). The oracle the transport's delivery
/// arithmetic and the frame tests are held to.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when bytes are missing,
/// [`DecodeError::Malformed`] on a bad magic or trailing garbage, and
/// [`DecodeError::ChecksumMismatch`] when the payload digest disagrees
/// with the header.
#[cfg(test)]
pub(crate) fn frame_payload(frame: &[u8]) -> Result<(), DecodeError> {
    let Some((header, payload)) = frame.split_first_chunk::<FRAME_HEADER_BYTES>() else {
        return Err(DecodeError::Truncated);
    };
    let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    if word(0) != FRAME_MAGIC {
        return Err(DecodeError::Malformed("bad frame magic"));
    }
    let len = word(4) as usize;
    if payload.len() < len {
        return Err(DecodeError::Truncated);
    }
    if payload.len() > len {
        return Err(DecodeError::Malformed("frame length mismatch"));
    }
    if sha256(payload).as_bytes()[..8] != header[8..] {
        return Err(DecodeError::ChecksumMismatch);
    }
    Ok(())
}

/// Incremental frame reassembly for byte streams (TCP / Unix sockets),
/// tolerating arbitrary split boundaries: bytes arrive in whatever chunks
/// the kernel hands back, and [`next_frame`](Self::next_frame) carves out
/// exactly one sealed frame at a time once its header-announced length is
/// buffered.
///
/// Robustness properties the socket server leans on:
///
/// - **Partial reads**: feeding a valid stream one byte at a time decodes
///   to the identical payload sequence as one whole-buffer feed
///   (proptest-enforced in `tests/wire_robustness.rs`).
/// - **Checksum rejection without desync**: a complete frame whose digest
///   fails (a chaos-proxy ghost, or genuine line noise with intact
///   framing) is consumed whole and surfaced as an error — the next call
///   continues at the following frame.
/// - **Resynchronization**: garbage before a frame boundary is skipped to
///   the next magic candidate instead of wedging the connection.
/// - **Bounded buffering**: a length field beyond `max_frame` is rejected
///   before any allocation it would size (slowloris / memory-bomb guard).
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use rpol::wire::{seal_frame, FrameAssembler};
///
/// let frame = seal_frame(&Bytes::copy_from_slice(b"hello"));
/// let mut asm = FrameAssembler::new(1024);
/// for &b in frame.iter() {
///     asm.push(&[b]);
/// }
/// let payload = asm.next_frame().unwrap().unwrap();
/// assert_eq!(&payload[..], b"hello");
/// assert!(asm.next_frame().unwrap().is_none());
/// ```
#[derive(Debug)]
pub struct FrameAssembler {
    /// Backing store; `buf[start..]` is the live unconsumed tail. Consuming
    /// a frame advances `start` instead of draining, so the hot path never
    /// memmoves the remaining stream — compaction happens lazily in
    /// [`push`](Self::push) once the dead prefix is worth reclaiming.
    buf: Vec<u8>,
    start: usize,
    max_frame: usize,
}

/// The store goes back to the process pool.
impl Drop for FrameAssembler {
    fn drop(&mut self) {
        scratch::put(std::mem::take(&mut self.buf));
    }
}

impl FrameAssembler {
    /// Dead-prefix size beyond which `push` compacts unconditionally.
    const COMPACT_BYTES: usize = 4096;

    /// An assembler rejecting frames whose payload exceeds `max_frame`
    /// bytes.
    pub fn new(max_frame: usize) -> Self {
        Self::with_buffer(max_frame, Vec::new())
    }

    /// An assembler whose backing store is a recycled buffer (cleared
    /// first) — pair with [`into_buffer`](Self::into_buffer) to cycle
    /// per-connection stream buffers through a [`BufPool`].
    pub fn with_buffer(max_frame: usize, mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self {
            buf,
            start: 0,
            max_frame,
        }
    }

    /// Surrenders the backing store (buffered-but-unconsumed bytes are
    /// discarded with it) so it can return to a [`BufPool`].
    pub fn into_buffer(mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Appends raw stream bytes. The store grows by doubling, each larger
    /// buffer taken from the process pool and the outgrown one put back
    /// there, so a stream's growth leaves nothing in its thread's heap.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.start > 0
            && (self.start >= self.buf.len() - self.start || self.start >= Self::COMPACT_BYTES)
        {
            // The dead prefix dominates the live tail (or is just large):
            // slide the tail down so the buffer stops growing.
            self.buf.copy_within(self.start.., 0);
            let live = self.buf.len() - self.start;
            self.buf.truncate(live);
            self.start = 0;
        }
        let need = self.buf.len() + chunk.len();
        if need > self.buf.capacity() {
            let mut grown = scratch::take_empty(need.max(2 * self.buf.capacity()));
            grown.extend_from_slice(&self.buf);
            scratch::put(std::mem::replace(&mut self.buf, grown));
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Whether a [`next_frame`](Self::next_frame) call would make progress
    /// (yield a payload or report a consumable error) rather than return
    /// `Ok(None)` waiting for more bytes. The readiness reactor uses this
    /// to keep connections with fully-buffered frames on its dirty queue —
    /// epoll only sees kernel buffers, not bytes already assembled here.
    pub fn ready(&self) -> bool {
        let tail = &self.buf[self.start..];
        if tail.is_empty() {
            return false;
        }
        if tail.len() < 4 {
            return !FRAME_MAGIC.to_le_bytes().starts_with(tail);
        }
        if u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")) != FRAME_MAGIC {
            return true;
        }
        if tail.len() < FRAME_HEADER_BYTES {
            return false;
        }
        let len = u32::from_le_bytes(tail[4..8].try_into().expect("4 bytes")) as usize;
        if len > self.max_frame {
            return true;
        }
        tail.len() >= FRAME_HEADER_BYTES + len
    }

    /// Pops the next complete frame's verified payload.
    ///
    /// Returns `Ok(None)` when more bytes are needed. A complete-but-bad
    /// frame (checksum mismatch, bad magic, oversized length) is consumed
    /// — or skipped up to the next magic candidate — and reported as
    /// `Err`; the caller counts it and calls again.
    ///
    /// # Errors
    ///
    /// [`DecodeError::ChecksumMismatch`] for a framed-but-poisoned
    /// payload; [`DecodeError::Malformed`] on a bad magic (after
    /// resynchronizing) or an oversized length field.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, DecodeError> {
        self.next_frame_with(None)
    }

    /// [`next_frame`](Self::next_frame), drawing the payload's buffer from
    /// `pool` when one is supplied. The frame is verified **in place** over
    /// the stream buffer and only the payload bytes are copied out, so the
    /// classification and error behaviour — and the produced payload bytes
    /// — are identical with or without a pool (proptest-enforced in
    /// `tests/wire_robustness.rs`).
    pub fn next_frame_with(
        &mut self,
        pool: Option<&mut BufPool>,
    ) -> Result<Option<Bytes>, DecodeError> {
        let tail = &self.buf[self.start..];
        if tail.len() < 4 {
            // Not even a magic yet — but reject early if what we do have
            // already disagrees with it, so garbage can't stall forever.
            if !FRAME_MAGIC.to_le_bytes().starts_with(tail) {
                self.resync();
                return Err(DecodeError::Malformed("bad frame magic"));
            }
            return Ok(None);
        }
        let magic = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        if magic != FRAME_MAGIC {
            self.resync();
            return Err(DecodeError::Malformed("bad frame magic"));
        }
        if tail.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let len = u32::from_le_bytes(tail[4..8].try_into().expect("4 bytes")) as usize;
        if len > self.max_frame {
            // Skip this header and hunt for the next boundary: the length
            // cannot be trusted enough to jump by it.
            self.start += 4;
            self.resync();
            return Err(DecodeError::Malformed("oversized frame"));
        }
        let total = FRAME_HEADER_BYTES + len;
        if tail.len() < total {
            return Ok(None);
        }
        let expect: [u8; 8] = tail[8..FRAME_HEADER_BYTES].try_into().expect("8 bytes");
        let payload = &tail[FRAME_HEADER_BYTES..total];
        if sha256(payload).as_bytes()[..8] != expect {
            // Consumed whole, like any complete frame: the stream stays in
            // sync at the next boundary.
            self.start += total;
            return Err(DecodeError::ChecksumMismatch);
        }
        let mut out = match pool {
            Some(pool) => pool.get(len),
            None => scratch::take_empty(len),
        };
        out.extend_from_slice(payload);
        self.start += total;
        Ok(Some(Bytes::from(out)))
    }

    /// Drops buffered bytes up to the next magic candidate (or keeps the
    /// last 3 bytes, which may be a magic prefix).
    fn resync(&mut self) {
        let magic = FRAME_MAGIC.to_le_bytes();
        let tail_len = self.buf.len() - self.start;
        let skip = (1..tail_len)
            .find(|&i| {
                let at = self.start + i;
                let window = &self.buf[at..(at + 4).min(self.buf.len())];
                magic.starts_with(window) || window.starts_with(&magic)
            })
            .unwrap_or(tail_len);
        self.start += skip;
    }
}

/// The manager → worker epoch assignment: everything a worker needs before
/// it can start training (§V-B step 1), including the global model.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTask {
    /// Epoch number.
    pub epoch: u64,
    /// The worker's nonce `N_t^w` for PRF-deterministic batch selection.
    pub nonce: u64,
    /// Steps to train this epoch.
    pub steps: u32,
    /// The global model weights to start from.
    pub global_weights: Vec<f32>,
}

/// Task header: tag (1) + epoch (8) + nonce (8) + steps (4).
const TASK_HEADER_BYTES: usize = 1 + 8 + 8 + 4;

/// The global-model block of an epoch's task broadcast, encoded once on
/// the scheme's lattice and spliced behind every worker's 21-byte header
/// by [`TaskBlock::frame`].
#[derive(Debug, Clone)]
pub struct TaskBlock {
    block: Bytes,
    hi_plane: HiPlane,
    saved: u64,
}

impl TaskBlock {
    /// The block of `global_weights` on `lattice`. Bf16 weights must
    /// already lie on that lattice — the image every RPoLv3 receiver snaps
    /// to anyway.
    pub fn new(lattice: Lattice, global_weights: &[f32]) -> Self {
        let mut block = scratch::take_empty(block_capacity(lattice, global_weights.len()));
        let hi_plane = put_block(&mut block, lattice, global_weights);
        let saved = raw_weights_wire_size(global_weights.len()).saturating_sub(block.len());
        Self {
            block: Bytes::from(block),
            hi_plane,
            saved: saved as u64,
        }
    }

    /// One worker's task payload: tag, `epoch`, `nonce`, `steps`, then the
    /// shared block.
    pub fn frame(&self, epoch: u64, nonce: u64, steps: u32) -> Bytes {
        let mut out = scratch::take_empty(TASK_HEADER_BYTES + self.block.len());
        out.put_u8(TAG_EPOCH_TASK);
        out.put_u64_le(epoch);
        out.put_u64_le(nonce);
        out.put_u32_le(steps);
        out.put_slice(&self.block);
        Bytes::from(out)
    }

    /// How the block's hi plane was coded.
    pub fn hi_plane(&self) -> HiPlane {
        self.hi_plane
    }

    /// Payload bytes each framed task avoids versus raw f32 framing — the
    /// per-message `bytes_saved` contribution.
    pub fn bytes_saved(&self) -> u64 {
        self.saved
    }
}

impl Drop for TaskBlock {
    fn drop(&mut self) {
        scratch::put(Vec::from(std::mem::take(&mut self.block)));
    }
}

/// Decodes an epoch task assignment, on whichever lattice its block
/// names, reading through `buf`, which the caller keeps — to hand its
/// storage back to the process pool after the decode.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncated or malformed input.
pub fn decode_epoch_task(buf: &mut Bytes) -> Result<EpochTask, DecodeError> {
    if buf.first() != Some(&TAG_EPOCH_TASK) {
        return Err(DecodeError::Malformed("not an epoch task"));
    }
    buf.advance(1);
    let epoch = get_u64(buf)?;
    let nonce = get_u64(buf)?;
    let steps = get_u32(buf)?;
    if steps == 0 {
        return Err(DecodeError::Malformed("empty epoch"));
    }
    let global_weights = get_block(buf, None)?;
    if global_weights.is_empty() {
        return Err(DecodeError::Malformed("empty global model"));
    }
    Ok(EpochTask {
        epoch,
        nonce,
        steps,
        global_weights,
    })
}

/// Control-plane tags for the socket service (`0x30` block — disjoint
/// from every protocol payload tag so a router can dispatch on the first
/// payload byte).
const TAG_NET_HELLO: u8 = 0x30;
const TAG_NET_WELCOME: u8 = 0x31;
const TAG_NET_BUSY: u8 = 0x32;
const TAG_NET_PING: u8 = 0x33;
const TAG_NET_PONG: u8 = 0x34;
const TAG_NET_COMMIT_SPEC: u8 = 0x35;
const TAG_NET_PROOF_SEQ: u8 = 0x36;
// 0x37 is retired — protocol 1's lost-upload notice — and never reassigned.
const TAG_NET_EPOCH_END: u8 = 0x38;
const TAG_NET_SHUTDOWN: u8 = 0x39;
const TAG_NET_STATUS: u8 = 0x3A;
const TAG_NET_STATUS_REPORT: u8 = 0x3B;
/// Last tag of the control block; `classify_payload` dispatches on
/// `TAG_NET_HELLO..=TAG_NET_LAST`, so new control tags must be appended
/// before this bound.
const TAG_NET_LAST: u8 = TAG_NET_STATUS_REPORT;

/// Why the server refused service with a [`NetControl::Busy`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyReason {
    /// The connection table is full and nothing was idle enough to evict.
    PoolFull,
    /// In-flight submissions exceed the load-shedding budget.
    Shedding,
}

impl BusyReason {
    fn to_u8(self) -> u8 {
        match self {
            BusyReason::PoolFull => 0,
            BusyReason::Shedding => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        match v {
            0 => Ok(BusyReason::PoolFull),
            1 => Ok(BusyReason::Shedding),
            _ => Err(DecodeError::Malformed("unknown busy reason")),
        }
    }
}

/// The p-stable LSH family specification a worker needs to derive the
/// epoch's commitment family locally: a family is a pure function of
/// `(dim, params, seed)`, so shipping these few scalars is equivalent to
/// shipping the whole projection matrix, which no party builds
/// ([`LshFamily::new`]).
///
/// [`LshFamily::new`]: rpol_lsh::pstable::LshFamily::new
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FamilySpec {
    /// Bucket width `r`.
    pub r: f32,
    /// Hashes per group.
    pub k: u32,
    /// Number of groups.
    pub l: u32,
    /// Family generation seed.
    pub seed: u64,
}

/// Connection-management messages for the socket transport (handshake,
/// heartbeats, load shedding, the commitment discipline, proof sequence
/// numbers and the epoch lifecycle). These frames never ride the
/// fault-injecting chaos link:
/// they model the *service*, not the lossy network, and keeping them
/// reliable is what lets a TCP run reproduce an in-memory run's
/// quarantine decisions exactly (DESIGN.md §14).
#[derive(Debug, Clone, PartialEq)]
pub enum NetControl {
    /// Worker → manager: first frame on a connection.
    Hello {
        /// The worker's pool id.
        worker: u32,
        /// Protocol revision (see [`NET_PROTOCOL`]).
        protocol: u32,
    },
    /// Manager → worker: handshake accepted.
    Welcome {
        /// Pool size, so a worker can sanity-check its id.
        workers: u32,
    },
    /// Manager → worker: service refused; back off and retry.
    Busy {
        /// What was saturated.
        reason: BusyReason,
    },
    /// Worker → manager: idle-link heartbeat.
    Ping {
        /// Echo nonce.
        nonce: u64,
    },
    /// Manager → worker: heartbeat reply.
    Pong {
        /// The [`NetControl::Ping`] nonce echoed back.
        nonce: u64,
    },
    /// Manager → worker: this epoch's commitment discipline, sent after
    /// the (chaos-exposed) epoch tasks once the manager's calibration is
    /// adopted: a worker trains on its task and commits on this, deriving
    /// the LSH family from its scalars instead of receiving a projection
    /// matrix.
    CommitSpec {
        /// Epoch number.
        epoch: u64,
        /// The scheme, carried as its
        /// [`SchemeSpec::wire`](crate::pool::SchemeSpec::wire) byte.
        scheme: Scheme,
        /// LSH family derivation inputs, present exactly when the scheme
        /// hashes by LSH
        /// ([`SchemeSpec::hashes_by_lsh`](crate::pool::SchemeSpec::hashes_by_lsh)).
        family: Option<FamilySpec>,
    },
    /// Manager → worker: the chaos sequence number binding the *next*
    /// proof-request/response pair, mirroring the simulated provider's
    /// per-opening counter (which advances even when a request leg is
    /// exhausted and never reaches the worker).
    ProofSeq {
        /// Sequence number for the next opening's fault draws.
        seq: u64,
    },
    /// Manager → worker: the epoch's verdict for this worker.
    EpochEnd {
        /// Epoch number.
        epoch: u64,
        /// 0 = accepted, 1 = rejected, 2 = quarantined.
        status: u8,
    },
    /// Manager → worker: the service is closing; stop reconnecting.
    Shutdown,
    /// Anyone → manager: ask for a live introspection snapshot. Answered in
    /// every connection phase (no handshake required), chaos-exempt, and
    /// side-effect-free on the protocol state, so monitoring a server never
    /// perturbs its quarantine decisions or its trace.
    Status,
    /// Manager → anyone: the introspection snapshot, as a JSON document
    /// (see `server::StatusSnapshot` for the schema and its invariants).
    StatusReport {
        /// rpol-json-encoded `StatusSnapshot`.
        json: String,
    },
}

/// Socket control-plane protocol revision. Revision 2 retired protocol
/// 1's lost-upload notice (tag `0x37`): a worker's upload always ends with
/// its pristine frame, and the manager's own fault draws decide whether it
/// arrived. Revision 3 sends an epoch's [`NetControl::CommitSpec`] after
/// its tasks: a worker trains on the task and commits and uploads only at
/// the spec, so the manager calibrates while its workers train. Revision
/// 4 ships every model payload as one weight block on its scheme's
/// lattice, under one tag per message: a submission names its scheme by
/// the [`SchemeSpec::wire`](crate::pool::SchemeSpec::wire) byte.
pub const NET_PROTOCOL: u32 = 4;

/// Largest frame (header + payload) either end of the socket accepts.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Encodes a control message.
pub fn encode_net_control(msg: &NetControl) -> Bytes {
    let mut out = BytesMut::new();
    match *msg {
        NetControl::Hello { worker, protocol } => {
            out.put_u8(TAG_NET_HELLO);
            out.put_u32_le(worker);
            out.put_u32_le(protocol);
        }
        NetControl::Welcome { workers } => {
            out.put_u8(TAG_NET_WELCOME);
            out.put_u32_le(workers);
        }
        NetControl::Busy { reason } => {
            out.put_u8(TAG_NET_BUSY);
            out.put_u8(reason.to_u8());
        }
        NetControl::Ping { nonce } => {
            out.put_u8(TAG_NET_PING);
            out.put_u64_le(nonce);
        }
        NetControl::Pong { nonce } => {
            out.put_u8(TAG_NET_PONG);
            out.put_u64_le(nonce);
        }
        NetControl::CommitSpec {
            epoch,
            scheme,
            family,
        } => {
            out.put_u8(TAG_NET_COMMIT_SPEC);
            out.put_u64_le(epoch);
            out.put_u8(scheme.spec().wire);
            match family {
                None => out.put_u8(0),
                Some(f) => {
                    out.put_u8(1);
                    out.put_f32_le(f.r);
                    out.put_u32_le(f.k);
                    out.put_u32_le(f.l);
                    out.put_u64_le(f.seed);
                }
            }
        }
        NetControl::ProofSeq { seq } => {
            out.put_u8(TAG_NET_PROOF_SEQ);
            out.put_u64_le(seq);
        }
        NetControl::EpochEnd { epoch, status } => {
            out.put_u8(TAG_NET_EPOCH_END);
            out.put_u64_le(epoch);
            out.put_u8(status);
        }
        NetControl::Shutdown => {
            out.put_u8(TAG_NET_SHUTDOWN);
        }
        NetControl::Status => {
            out.put_u8(TAG_NET_STATUS);
        }
        NetControl::StatusReport { ref json } => {
            out.put_u8(TAG_NET_STATUS_REPORT);
            out.put_u32_le(json.len() as u32);
            out.put_slice(json.as_bytes());
        }
    }
    out.freeze()
}

/// Coarse payload classification by leading tag — the socket router's
/// dispatch key. Full decoding (and validation) happens downstream in the
/// per-message decoders; this only picks which one to call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadClass {
    /// An epoch submission (any scheme).
    Submission,
    /// A checkpoint-opening request.
    ProofRequest,
    /// A checkpoint opening.
    ProofResponse,
    /// An epoch assignment.
    EpochTask,
    /// A Merkle-committed committee verdict batch (sub-manager → top
    /// manager).
    CommitteeBatch,
    /// A connection-management control frame.
    Control,
    /// Nothing this protocol revision knows.
    Unknown,
}

/// Classifies a verified frame payload (see [`PayloadClass`]).
pub fn classify_payload(payload: &[u8]) -> PayloadClass {
    match payload.first() {
        Some(&TAG_SUBMISSION) => PayloadClass::Submission,
        Some(&TAG_PROOF_REQUEST) => PayloadClass::ProofRequest,
        Some(&TAG_PROOF_RESPONSE) => PayloadClass::ProofResponse,
        Some(&TAG_EPOCH_TASK) => PayloadClass::EpochTask,
        Some(&TAG_COMMITTEE_BATCH) => PayloadClass::CommitteeBatch,
        Some(&t) if (TAG_NET_HELLO..=TAG_NET_LAST).contains(&t) => PayloadClass::Control,
        _ => PayloadClass::Unknown,
    }
}

/// Leading byte of the optional trace-context payload extension (`'T'`).
/// Deliberately outside every protocol tag block (submissions `0x0x`,
/// proofs `0x1x`, tasks `0x2x`, control `0x3x`, committee `0x4x`), so a
/// wrapped payload can never be mistaken for a bare message and vice versa.
const TAG_TRACE_CTX: u8 = 0x54;
/// Trace extension revision, bumped like `PACKED_WEIGHTS_V2` — receivers
/// reject unknown revisions by leaving the payload untouched (it then
/// classifies as `Unknown`, exactly like any other foreign tag).
const TRACE_CTX_V1: u8 = 1;
/// Total prefix size the extension adds to a payload.
const TRACE_EXT_BYTES: usize = 2 + TraceContext::WIRE_BYTES;

/// Prefix a payload with a [`TraceContext`] extension. The wrapped payload
/// still travels in an ordinary checksummed frame; receivers that know the
/// extension call [`split_traced`] before classifying. Senders only wrap
/// when their recorder is enabled, so un-instrumented runs ship byte-for-
/// byte the frames they always did (old frames decode unchanged).
pub fn wrap_traced(ctx: TraceContext, payload: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(TRACE_EXT_BYTES + payload.len());
    out.put_u8(TAG_TRACE_CTX);
    out.put_u8(TRACE_CTX_V1);
    out.put_slice(&ctx.to_bytes());
    out.put_slice(payload);
    out.freeze()
}

/// Strip a trace-context extension, if present and well-formed, returning
/// the context and the *inner* payload. All downstream work — dispatch,
/// decoding, and every length-based chaos/byte account — must use the
/// inner payload, which is what keeps the extension chaos-exempt: the
/// simulated and socket paths draw faults over identical byte counts
/// whether or not tracing is on. A payload without the extension (or with
/// a truncated/unknown-revision one) comes back unchanged with `None`.
/// The extension is stripped by advancing the read cursor, so the inner
/// payload keeps the original allocation and the pooled ingest path can
/// recycle it after decoding.
pub fn split_traced(mut payload: Bytes) -> (Option<TraceContext>, Bytes) {
    if payload.len() >= TRACE_EXT_BYTES && payload[0] == TAG_TRACE_CTX && payload[1] == TRACE_CTX_V1
    {
        if let Some(ctx) = TraceContext::from_bytes(&payload[2..TRACE_EXT_BYTES]) {
            payload.advance(TRACE_EXT_BYTES);
            return (Some(ctx), payload);
        }
    }
    (None, payload)
}

/// Encodes a committee verdict batch: the only message a sub-manager sends
/// up the hierarchy. The verdict entries are shipped as length-prefixed
/// **canonical leaf encodings** — the exact byte strings the batch's
/// Merkle tree is built over — so the receiver re-derives the tree from
/// the wire bytes and checks the advertised root against it without a
/// second serialization.
pub fn encode_committee_batch(batch: &crate::committee::CommitteeBatch) -> Bytes {
    let mut out = BytesMut::new();
    out.put_u8(TAG_COMMITTEE_BATCH);
    out.put_u64_le(batch.epoch);
    out.put_u32_le(batch.committee as u32);
    put_digest(&mut out, &batch.root);
    out.put_u64_le(batch.commit_bytes);
    out.put_u32_le(batch.verdicts.len() as u32);
    for (worker, verdict) in &batch.verdicts {
        let leaf = crate::committee::encode_verdict_leaf(*worker, verdict);
        out.put_u32_le(leaf.len() as u32);
        out.put_slice(&leaf);
    }
    out.freeze()
}

/// Decodes a committee verdict batch.
///
/// Validates shape only — the returned batch's root is the **claimed**
/// root; callers must check it with [`audit_proofs`] before trusting it,
/// since a sub-manager could commit to one verdict set and ship another.
///
/// [`audit_proofs`]: crate::committee::CommitteeBatch::audit_proofs
///
/// # Errors
///
/// [`DecodeError`] on a wrong tag, truncation, an empty batch, malformed
/// leaves, or trailing bytes.
pub fn decode_committee_batch(
    mut buf: Bytes,
) -> Result<crate::committee::CommitteeBatch, DecodeError> {
    if buf.remaining() < 1 || buf.get_u8() != TAG_COMMITTEE_BATCH {
        return Err(DecodeError::Malformed("expected committee batch tag"));
    }
    let epoch = get_u64(&mut buf)?;
    let committee = get_u32(&mut buf)? as usize;
    let root = get_digest(&mut buf)?;
    let commit_bytes = get_u64(&mut buf)?;
    let count = get_u32(&mut buf)? as usize;
    if count == 0 {
        return Err(DecodeError::Malformed("empty committee batch"));
    }
    // Each leaf carries at least a 4-byte length prefix; bound the
    // allocation by what is actually present.
    checked_count(&buf, count, 4)?;
    let mut verdicts = Vec::with_capacity(count);
    for _ in 0..count {
        let len = get_u32(&mut buf)? as usize;
        checked_count(&buf, len, 1)?;
        let entry =
            crate::committee::decode_verdict_leaf(&buf[..len]).map_err(DecodeError::Malformed)?;
        buf.advance(len);
        verdicts.push(entry);
    }
    if buf.remaining() > 0 {
        return Err(DecodeError::Malformed("trailing bytes after batch"));
    }
    Ok(crate::committee::CommitteeBatch {
        epoch,
        committee,
        root,
        verdicts,
        commit_bytes,
    })
}

/// Decodes a control message, reading through a borrowed buffer so the
/// caller keeps ownership of the underlying allocation and can recycle it
/// into a [`BufPool`] after the decode.
///
/// # Errors
///
/// [`DecodeError`] on unknown tags, truncation, or invalid fields.
pub fn decode_net_control(buf: &mut Bytes) -> Result<NetControl, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8();
    let msg = match tag {
        TAG_NET_HELLO => NetControl::Hello {
            worker: get_u32(buf)?,
            protocol: get_u32(buf)?,
        },
        TAG_NET_WELCOME => NetControl::Welcome {
            workers: get_u32(buf)?,
        },
        TAG_NET_BUSY => {
            if buf.remaining() < 1 {
                return Err(DecodeError::Truncated);
            }
            NetControl::Busy {
                reason: BusyReason::from_u8(buf.get_u8())?,
            }
        }
        TAG_NET_PING => NetControl::Ping {
            nonce: get_u64(buf)?,
        },
        TAG_NET_PONG => NetControl::Pong {
            nonce: get_u64(buf)?,
        },
        TAG_NET_COMMIT_SPEC => {
            let epoch = get_u64(buf)?;
            if buf.remaining() < 2 {
                return Err(DecodeError::Truncated);
            }
            let scheme = scheme_of(buf.get_u8())?;
            let family = match buf.get_u8() {
                0 => None,
                1 => {
                    if buf.remaining() < 4 {
                        return Err(DecodeError::Truncated);
                    }
                    let r = buf.get_f32_le();
                    if !r.is_finite() || r <= 0.0 {
                        return Err(DecodeError::Malformed("bad bucket width"));
                    }
                    let k = get_u32(buf)?;
                    let l = get_u32(buf)?;
                    if k == 0 || l == 0 {
                        return Err(DecodeError::Malformed("empty lsh family"));
                    }
                    Some(FamilySpec {
                        r,
                        k,
                        l,
                        seed: get_u64(buf)?,
                    })
                }
                _ => return Err(DecodeError::Malformed("bad family flag")),
            };
            if family.is_some() != scheme.spec().hashes_by_lsh() {
                return Err(DecodeError::Malformed("family flag disagrees with scheme"));
            }
            NetControl::CommitSpec {
                epoch,
                scheme,
                family,
            }
        }
        TAG_NET_PROOF_SEQ => NetControl::ProofSeq { seq: get_u64(buf)? },
        TAG_NET_EPOCH_END => {
            let epoch = get_u64(buf)?;
            if buf.remaining() < 1 {
                return Err(DecodeError::Truncated);
            }
            let status = buf.get_u8();
            if status > 2 {
                return Err(DecodeError::Malformed("unknown verdict status"));
            }
            NetControl::EpochEnd { epoch, status }
        }
        TAG_NET_SHUTDOWN => NetControl::Shutdown,
        TAG_NET_STATUS => NetControl::Status,
        TAG_NET_STATUS_REPORT => {
            let len = get_u32(buf)? as usize;
            checked_count(buf, len, 1)?;
            let json = std::str::from_utf8(&buf[..len])
                .map_err(|_| DecodeError::Malformed("status report is not UTF-8"))?
                .to_string();
            buf.advance(len);
            NetControl::StatusReport { json }
        }
        _ => return Err(DecodeError::Malformed("not a control message")),
    };
    if buf.remaining() > 0 {
        return Err(DecodeError::Malformed("trailing control bytes"));
    }
    Ok(msg)
}

/// The scheme whose [`SchemeSpec::wire`](crate::pool::SchemeSpec::wire)
/// byte is `code`.
fn scheme_of(code: u8) -> Result<Scheme, DecodeError> {
    Scheme::ALL
        .into_iter()
        .find(|s| s.spec().wire == code)
        .ok_or(DecodeError::Malformed("unknown scheme"))
}

/// Submission header: tag (1) + the scheme's wire byte (1).
const SUBMISSION_HEADER_BYTES: usize = 2;

/// Bytes `c` occupies in a submission: its count `n`, its group count `l`
/// when its rows lead with LSH group digests, then its rows.
fn commitment_bytes(c: &EpochCommitment) -> usize {
    4 + 4 * usize::from(c.scheme().spec().hashes_by_lsh()) + c.wire_size()
}

/// Encodes a worker's epoch submission: tag, the scheme's wire byte (the
/// commitment's scheme, Baseline without one), the final weights as a
/// block on that scheme's lattice, then the commitment: its checkpoint
/// count `n`, its group count `l` when the scheme hashes by LSH, and its
/// `n` rows of digests.
pub fn encode_submission(final_weights: &[f32], commitment: Option<&EpochCommitment>) -> Bytes {
    let scheme = commitment.map_or(Scheme::Baseline, EpochCommitment::scheme);
    let spec = scheme.spec();
    let mut out = scratch::take_empty(
        SUBMISSION_HEADER_BYTES
            + block_capacity(spec.lattice, final_weights.len())
            + commitment.map_or(0, commitment_bytes),
    );
    out.put_u8(TAG_SUBMISSION);
    out.put_u8(spec.wire);
    put_block(&mut out, spec.lattice, final_weights);
    if let Some(c) = commitment {
        out.put_u32_le(c.len() as u32);
        if spec.hashes_by_lsh() {
            out.put_u32_le(c.group_count() as u32);
        }
        for d in c.digests() {
            put_digest(&mut out, d);
        }
    }
    Bytes::from(out)
}

/// Wire bytes the same submission would occupy with its weights in the
/// raw f32 framing — the baseline the transport's `bytes_saved` counter
/// measures [`encode_submission`] against.
pub fn submission_raw_wire_size(n_weights: usize, commitment: Option<&EpochCommitment>) -> usize {
    SUBMISSION_HEADER_BYTES
        + raw_weights_wire_size(n_weights)
        + commitment.map_or(0, commitment_bytes)
}

/// Decodes an epoch submission.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncated or malformed input, including a
/// weight block on a lattice other than the named scheme's, an empty
/// commitment, and bytes past the commitment's last row.
pub fn decode_submission(
    mut buf: Bytes,
) -> Result<(Vec<f32>, Option<EpochCommitment>), DecodeError> {
    decode_submission_in(&mut buf)
}

/// [`decode_submission`] reading through a borrowed buffer (see
/// [`decode_net_control`] for why: the ingest path recycles the payload
/// allocation after decoding).
pub fn decode_submission_in(
    buf: &mut Bytes,
) -> Result<(Vec<f32>, Option<EpochCommitment>), DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    if buf.get_u8() != TAG_SUBMISSION {
        return Err(DecodeError::Malformed("unknown submission tag"));
    }
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let scheme = scheme_of(buf.get_u8())?;
    let spec = scheme.spec();
    let weights = get_block(buf, Some(spec.lattice))?;
    let commitment = if spec.verifies() {
        Some(get_commitment(buf, scheme)?)
    } else {
        None
    };
    if buf.remaining() > 0 {
        return Err(DecodeError::Malformed("trailing submission bytes"));
    }
    Ok((weights, commitment))
}

/// Reads `scheme`'s commitment as [`encode_submission`] wrote it.
fn get_commitment(buf: &mut Bytes, scheme: Scheme) -> Result<EpochCommitment, DecodeError> {
    let spec = scheme.spec();
    let n = get_u32(buf)? as usize;
    let l = if spec.hashes_by_lsh() {
        get_u32(buf)? as usize
    } else {
        0
    };
    if n == 0 || (spec.hashes_by_lsh() && l == 0) {
        return Err(DecodeError::Malformed("empty commitment"));
    }
    let width = row_width(spec, l);
    let row_bytes = width
        .checked_mul(32)
        .ok_or(DecodeError::Malformed("count overflow"))?;
    checked_count(buf, n, row_bytes)?;
    let digests: Result<Vec<Digest>, _> = (0..n * width).map(|_| get_digest(buf)).collect();
    Ok(EpochCommitment::from_rows(scheme, l, digests?))
}

/// Encodes a proof request: the sampled checkpoint indices.
pub fn encode_proof_request(samples: &[usize]) -> Bytes {
    let mut out = BytesMut::new();
    out.put_u8(TAG_PROOF_REQUEST);
    out.put_u32_le(samples.len() as u32);
    for &s in samples {
        out.put_u32_le(s as u32);
    }
    out.freeze()
}

/// Decodes a proof request.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncated or malformed input.
pub fn decode_proof_request(mut buf: Bytes) -> Result<Vec<usize>, DecodeError> {
    if buf.remaining() < 1 || buf.get_u8() != TAG_PROOF_REQUEST {
        return Err(DecodeError::Malformed("not a proof request"));
    }
    let n = get_u32(&mut buf)? as usize;
    checked_count(&buf, n, 4)?;
    (0..n)
        .map(|_| get_u32(&mut buf).map(|v| v as usize))
        .collect()
}

/// Proof response header: tag (1) + checkpoint index (4).
const PROOF_RESPONSE_HEADER_BYTES: usize = 1 + 4;

/// One opened checkpoint: tag, index, the weights' block on `lattice`.
fn encode_opening(index: usize, lattice: Lattice, weights: &[f32]) -> Bytes {
    let mut out =
        scratch::take_empty(PROOF_RESPONSE_HEADER_BYTES + block_capacity(lattice, weights.len()));
    out.put_u8(TAG_PROOF_RESPONSE);
    out.put_u32_le(index as u32);
    put_block(&mut out, lattice, weights);
    Bytes::from(out)
}

/// Encodes a proof response: one opened checkpoint, on the f32 lattice
/// (Baseline / RPoLv1 / RPoLv2 checkpoints).
pub fn encode_proof_response(index: usize, weights: &[f32]) -> Bytes {
    encode_opening(index, Lattice::F32, weights)
}

/// Encodes a proof response on the bf16 lattice (RPoLv3 openings: the
/// checkpoint lives on the lattice, so its bf16 block round-trips
/// losslessly at about 1.5 bytes a weight).
pub fn encode_proof_response_packed(index: usize, weights: &[f32]) -> Bytes {
    encode_opening(index, Lattice::Bf16, weights)
}

/// Wire bytes an opening of `n_weights` would occupy in the raw f32
/// framing — the `bytes_saved` baseline for openings.
pub fn proof_response_raw_wire_size(n_weights: usize) -> usize {
    PROOF_RESPONSE_HEADER_BYTES + raw_weights_wire_size(n_weights)
}

/// Decodes a proof response, on whichever lattice its block names.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncated or malformed input.
pub fn decode_proof_response(mut buf: Bytes) -> Result<(usize, Vec<f32>), DecodeError> {
    decode_proof_response_in(&mut buf)
}

/// [`decode_proof_response`] reading through a borrowed buffer (see
/// [`decode_net_control`]).
pub fn decode_proof_response_in(buf: &mut Bytes) -> Result<(usize, Vec<f32>), DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    if buf.get_u8() != TAG_PROOF_RESPONSE {
        return Err(DecodeError::Malformed("not a proof response"));
    }
    let index = get_u32(buf)? as usize;
    Ok((index, get_block(buf, None)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_lsh::{LshFamily, LshParams};

    fn checkpoints() -> Vec<Vec<f32>> {
        (0..4).map(|i| vec![i as f32 * 0.25; 12]).collect()
    }

    /// Every scheme's wire byte: the code the server sends, the byte a
    /// `CommitSpec` frame carries after its tag and epoch, and the decode
    /// back. A byte past the last scheme is refused.
    #[test]
    fn every_scheme_round_trips_its_commit_spec_byte() {
        let family = FamilySpec {
            r: 4.0,
            k: 2,
            l: 3,
            seed: 9,
        };
        let table = [
            (Scheme::Baseline, 0u8, false),
            (Scheme::RPoLv1, 1, false),
            (Scheme::RPoLv2, 2, true),
            (Scheme::RPoLv3, 3, true),
        ];
        assert_eq!(Scheme::ALL, table.map(|(scheme, ..)| scheme));
        for (scheme, byte, lsh) in table {
            assert_eq!(scheme.spec().wire, byte);
            assert_eq!(scheme.spec().hashes_by_lsh(), lsh);
            let msg = NetControl::CommitSpec {
                epoch: 7,
                scheme,
                family: lsh.then_some(family),
            };
            let mut bytes = encode_net_control(&msg);
            assert_eq!(bytes[1 + 8], byte, "{scheme}");
            assert_eq!(decode_net_control(&mut bytes), Ok(msg), "{scheme}");
        }
        let mut bytes = encode_net_control(&NetControl::CommitSpec {
            epoch: 7,
            scheme: Scheme::Baseline,
            family: None,
        })
        .to_vec();
        bytes[1 + 8] = 4;
        assert_eq!(
            decode_net_control(&mut Bytes::from(bytes)),
            Err(DecodeError::Malformed("unknown scheme"))
        );
    }

    #[test]
    fn bare_submission_roundtrip() {
        let weights = vec![1.0f32, -2.5, 3.75];
        let encoded = encode_submission(&weights, None);
        let (w, c) = decode_submission(encoded).expect("decodes");
        assert_eq!(w, weights);
        assert!(c.is_none());
    }

    #[test]
    fn v1_submission_roundtrip() {
        let cps = checkpoints();
        let commitment = EpochCommitment::commit_v1(&cps);
        let encoded = encode_submission(&cps[3], Some(&commitment));
        let (w, c) = decode_submission(encoded).expect("decodes");
        assert_eq!(w, cps[3]);
        assert_eq!(c, Some(commitment));
    }

    #[test]
    fn v2_submission_roundtrip() {
        let cps = checkpoints();
        let family = LshFamily::new(12, LshParams::new(1.0, 2, 3), 5);
        let commitment = EpochCommitment::commit_v2(&cps, &family);
        let encoded = encode_submission(&cps[3], Some(&commitment));
        let (w, c) = decode_submission(encoded).expect("decodes");
        assert_eq!(w, cps[3]);
        assert_eq!(c, Some(commitment));
    }

    /// The submission bytes of one seeded v1, v2 and v3 epoch, pinned by
    /// SHA-256 (recorded before the commitment became one row shape), with
    /// the raw-framing size `bytes_saved` is measured against.
    #[test]
    fn submission_bytes_are_pinned() {
        let mut rng = rpol_tensor::rng::Pcg32::seed_from(45);
        let cps: Vec<Vec<f32>> = (0..5)
            .map(|_| (0..64).map(|_| rng.next_normal() * 0.1).collect())
            .collect();
        let lattice: Vec<Vec<f32>> = cps
            .iter()
            .map(|cp| rpol_tensor::quant::bf16_image(cp))
            .collect();
        let family = LshFamily::new(64, LshParams::new(1.0, 3, 4), 7);
        let cases = [
            (
                EpochCommitment::commit_v1(&cps),
                &cps[4],
                "6296d04dc3330bdb05027c80f19b8774e983b33f31a3bceb208cedc9d9f05251",
                426,
            ),
            (
                EpochCommitment::commit_v2(&cps, &family),
                &cps[4],
                "ac68f0a8d58c863cc0b7ec36f4871c7231e92df28bc76b10b090baf46feacfcb",
                910,
            ),
            (
                EpochCommitment::commit_v3(&lattice, &family),
                &lattice[4],
                "3d1e882d3fe063aac80be591f8f8592531bf2862e3a2099f62e769917c13c117",
                1070,
            ),
        ];
        for (commitment, weights, digest, raw) in cases {
            let encoded = encode_submission(weights, Some(&commitment));
            assert_eq!(sha256(&encoded).to_hex(), digest, "{}", commitment.scheme());
            assert_eq!(
                submission_raw_wire_size(weights.len(), Some(&commitment)),
                raw
            );
        }
    }

    #[test]
    fn encoded_size_matches_accounting() {
        // Wire size of a v2 submission: tag and scheme, the weights' f32
        // block, the two counts, 32·l bytes per checkpoint.
        let cps = checkpoints();
        let family = LshFamily::new(12, LshParams::new(1.0, 2, 3), 5);
        let commitment = EpochCommitment::commit_v2(&cps, &family);
        let encoded = encode_submission(&cps[3], Some(&commitment));
        let expected = 2 + block_len(Lattice::F32, &cps[3]) + 8 + commitment.wire_size();
        assert_eq!(encoded.len(), expected);
        // Twelve equal weights: a one-entry dictionary, a nibble each.
        assert_eq!(block_len(Lattice::F32, &cps[3]), 6 + 2 + 6 + 3 * 12);
    }

    /// Lattice checkpoints (low 16 bits zero) for V3 wire tests.
    fn lattice_checkpoints() -> Vec<Vec<f32>> {
        checkpoints()
            .iter()
            .map(|cp| rpol_tensor::quant::bf16_image(cp))
            .collect()
    }

    #[test]
    fn v3_submission_roundtrip() {
        let cps = lattice_checkpoints();
        let family = LshFamily::new(12, LshParams::new(1.0, 2, 3), 5);
        let commitment = EpochCommitment::commit_v3(&cps, &family);
        let encoded = encode_submission(&cps[3], Some(&commitment));
        let (w, c) = decode_submission(encoded).expect("decodes");
        assert_eq!(w, cps[3]);
        assert_eq!(c, Some(commitment));
    }

    #[test]
    fn v3_submission_shrinks_weight_bytes() {
        // Realistic weights: small values in a narrow exponent band, the
        // case the hi-plane dictionary is built for. The bf16 block
        // spends ~1.5 bytes a weight where raw framing spends 4.
        let mut rng = rpol_tensor::rng::Pcg32::seed_from(99);
        let mut weights: Vec<f32> = (0..4096).map(|_| rng.next_normal() * 0.05).collect();
        rpol_tensor::quant::snap_to_bf16(&mut weights);
        let cps = vec![weights.clone(); 3];
        let family = LshFamily::new(4096, LshParams::new(1.0, 2, 3), 5);
        let commitment = EpochCommitment::commit_v3(&cps, &family);
        let encoded = encode_submission(&weights, Some(&commitment));
        let raw = submission_raw_wire_size(weights.len(), Some(&commitment));
        let saved = raw - encoded.len();
        assert!(
            saved * 20 >= raw * 11,
            "only {saved} of {raw} bytes saved (<55%)"
        );
        assert!(matches!(
            packed_hi_plane(&encoded),
            Some(HiPlane::Dict { .. })
        ));
    }

    #[test]
    fn packed_proof_response_roundtrip() {
        let weights = rpol_tensor::quant::bf16_image(&[0.5f32, -0.25, 1.5e-3, 0.0, -7.25]);
        let encoded = encode_proof_response_packed(7, &weights);
        assert!(encoded.len() < proof_response_raw_wire_size(weights.len()));
        let (ix, w) = decode_proof_response(encoded).expect("ok");
        assert_eq!(ix, 7);
        assert_eq!(w, weights);
    }

    const LATTICES: [Lattice; 2] = [Lattice::Bf16, Lattice::F32];

    fn pack(lattice: Lattice, weights: &[f32]) -> Bytes {
        let mut out = Vec::new();
        put_block(&mut out, lattice, weights);
        Bytes::from(out)
    }

    fn unpack(block: impl Into<Bytes>) -> Result<Vec<f32>, DecodeError> {
        let mut buf = block.into();
        let weights = get_block(&mut buf, None)?;
        assert_eq!(buf.remaining(), 0, "the block was not consumed whole");
        Ok(weights)
    }

    /// The lattice a well-formed block's first byte names.
    fn lattice_of(block: &[u8]) -> Lattice {
        if block[0] >> 4 == lattice_nibble(Lattice::F32) {
            Lattice::F32
        } else {
            Lattice::Bf16
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `weights` with their low 16 bits filled: the f32 vector whose hi
    /// plane and first lo plane are those of `weights`.
    fn fill_low_bits(weights: &[f32]) -> Vec<f32> {
        weights
            .iter()
            .enumerate()
            .map(|(i, w)| f32::from_bits(w.to_bits() | (i as u32).wrapping_mul(0x9E37_79B9) >> 16))
            .collect()
    }

    /// The lo planes of `weights` on `lattice`, as a block ships them.
    fn lo_planes(lattice: Lattice, weights: &[f32]) -> Vec<u8> {
        lo_shifts(lattice)
            .iter()
            .flat_map(|&s| weights.iter().map(move |w| (w.to_bits() >> s) as u8))
            .collect()
    }

    #[test]
    fn packed_codec_falls_back_to_raw_hi_plane() {
        // A uniformly random hi plane defeats the dictionary: 15 entries
        // cover a sixteenth of 256 values, the rest escape at a nibble
        // *plus* a byte each. The flag byte must select the raw plane and
        // the block still round-trips, on either lattice.
        let mut rng = rpol_tensor::rng::Pcg32::seed_from(0xDEFEA7);
        let weights: Vec<f32> = (0..64)
            .map(|_| f32::from_bits((rng.next_u32() & 0xFFFF) << 16))
            .collect();
        for (lattice, weights) in [
            (Lattice::Bf16, weights.clone()),
            (Lattice::F32, fill_low_bits(&weights)),
        ] {
            let block = pack(lattice, &weights);
            // header + count + mode + hi plane + lo planes: (1 + planes)·n + 6.
            let planes = lo_shifts(lattice).len();
            assert_eq!(block.len(), 6 + (1 + planes) * weights.len());
            assert_eq!(hi_plane_of(&block), Some(HiPlane::Raw));
            assert_eq!(bits(&unpack(block).expect("decodes")), bits(&weights));
        }
    }

    #[test]
    fn packed_codec_rejects_unknown_version_and_mode() {
        for lattice in LATTICES {
            let good = pack(lattice, &rpol_tensor::quant::bf16_image(&[1.0f32; 8]));
            // 1 is the retired raw | delta-RLE layout: a clean error, as any
            // version this decoder was not taught.
            for version in [0xF, 1] {
                let mut bad_version = good.to_vec();
                bad_version[0] = lattice_nibble(lattice) << 4 | version;
                assert_eq!(
                    unpack(bad_version),
                    Err(DecodeError::Malformed("unknown packed-weight version"))
                );
            }
            let mut bad_mode = good.to_vec();
            bad_mode[5] = 0x7F;
            assert_eq!(
                unpack(bad_mode),
                Err(DecodeError::Malformed("unknown hi-plane mode"))
            );
        }
    }

    #[test]
    fn packed_codec_rejects_unknown_lattice() {
        // Lattice nibbles past the two there are.
        for head in [0x22, 0x72, 0xF2] {
            let mut bad_lattice = pack(Lattice::F32, &[1.0f32; 8]).to_vec();
            bad_lattice[0] = head;
            assert_eq!(
                unpack(bad_lattice),
                Err(DecodeError::Malformed("unknown packed-weight lattice"))
            );
        }
    }

    /// A submission's block must lie on the lattice of the scheme it
    /// names: a v3 submission of an f32 block and a v1 submission of a
    /// bf16 block are each refused, whatever the block holds.
    #[test]
    fn a_submission_block_must_lie_on_its_schemes_lattice() {
        let cps = lattice_checkpoints();
        let family = LshFamily::new(12, LshParams::new(1.0, 2, 3), 5);
        let v1 = encode_submission(&cps[3], Some(&EpochCommitment::commit_v1(&cps)));
        let v3 = encode_submission(&cps[3], Some(&EpochCommitment::commit_v3(&cps, &family)));
        assert_eq!((v1[1], lattice_of(&v1[2..])), (1, Lattice::F32));
        assert_eq!((v3[1], lattice_of(&v3[2..])), (3, Lattice::Bf16));
        for (payload, scheme) in [(&v1, Scheme::RPoLv3), (&v3, Scheme::RPoLv1)] {
            let mut renamed = payload.to_vec();
            renamed[1] = scheme.spec().wire;
            assert_eq!(
                decode_submission(Bytes::from(renamed)),
                Err(DecodeError::Malformed(
                    "block lattice disagrees with the scheme"
                )),
                "{scheme}"
            );
        }
        // A scheme byte past the last scheme.
        let mut unknown = v1.to_vec();
        unknown[1] = 4;
        assert_eq!(
            decode_submission(Bytes::from(unknown)),
            Err(DecodeError::Malformed("unknown scheme"))
        );
    }

    /// Every cut inside a block's lo planes is a clean `Truncated`, on
    /// both lattices, behind a dictionary and behind a raw hi plane.
    #[test]
    fn truncated_lo_planes_are_refused() {
        let mut rng = rpol_tensor::rng::Pcg32::seed_from(21);
        let dict = skewed_plane(&mut rng, 41, 17);
        let raw = with_hi_plane((0..40u8).map(|i| i * 5));
        for weights in [dict, raw] {
            for (lattice, weights) in [
                (Lattice::Bf16, weights.clone()),
                (Lattice::F32, fill_low_bits(&weights)),
            ] {
                let block = pack(lattice, &weights);
                let lo_at = block.len() - lo_shifts(lattice).len() * weights.len();
                for cut in lo_at..block.len() {
                    assert_eq!(
                        unpack(block.slice(0..cut)),
                        Err(DecodeError::Truncated),
                        "{lattice:?}: cut at {cut} of {}",
                        block.len()
                    );
                }
            }
        }
    }

    /// Every f32 bit pattern survives the f32 block: NaN payloads (quiet
    /// and signalling, either sign), ±0, subnormals and ±∞ — escaped inside
    /// a weight-shaped vector, and on a raw hi plane alone — and a vector
    /// of uniform bit patterns, whose hi plane defeats the dictionary.
    #[test]
    fn f32_block_carries_every_bit_pattern() {
        let specials: [u32; 12] = [
            0x7FC0_0000,
            0x7FC0_0001,
            0x7F80_0001,
            0xFFFF_FFFF,
            0x0000_0000,
            0x8000_0000,
            0x0000_0001,
            0x807F_FFFF,
            0x7F80_0000,
            0xFF80_0000,
            0x7F7F_FFFF,
            0x3F80_0001,
        ];
        let mut rng = rpol_tensor::rng::Pcg32::seed_from(7);
        let mut weights: Vec<f32> = (0..1000).map(|_| rng.next_normal() * 0.05).collect();
        for (i, &b) in specials.iter().enumerate() {
            weights[i * 83] = f32::from_bits(b);
        }
        assert!(matches!(
            assert_packs_like_the_oracle(Lattice::F32, &weights),
            HiPlane::Dict { escapes: 1.. }
        ));
        let alone = specials.map(f32::from_bits);
        assert_eq!(
            assert_packs_like_the_oracle(Lattice::F32, &alone),
            HiPlane::Raw
        );
        let uniform: Vec<f32> = (0..4096).map(|_| f32::from_bits(rng.next_u32())).collect();
        assert_eq!(
            assert_packs_like_the_oracle(Lattice::F32, &uniform),
            HiPlane::Raw
        );
    }

    /// A lattice vector whose hi plane is exactly `hi`.
    fn with_hi_plane(hi: impl IntoIterator<Item = u8>) -> Vec<f32> {
        hi.into_iter()
            .enumerate()
            .map(|(i, h)| f32::from_bits((u32::from(h) << 24) | ((i as u32 & 0xFF) << 16)))
            .collect()
    }

    /// A hand-built dictionary block: the caller owns every field.
    fn dict_block(
        lattice: Lattice,
        n: u32,
        table: &[u8],
        nibbles: &[u8],
        escaped: &[u8],
        lo: &[u8],
    ) -> Vec<u8> {
        let mut block = vec![lattice_nibble(lattice) << 4 | BLOCK_V2];
        block.extend_from_slice(&n.to_le_bytes());
        block.extend_from_slice(&[HI_PLANE_DICT4, table.len() as u8]);
        for part in [table, nibbles, escaped, lo] {
            block.extend_from_slice(part);
        }
        block
    }

    #[test]
    fn packed_codec_rejects_hostile_dictionary_blocks() {
        for lattice in LATTICES {
            hostile_dictionary_blocks_are_refused(lattice);
        }
    }

    fn hostile_dictionary_blocks_are_refused(lattice: Lattice) {
        let on_lattice = |weights: Vec<f32>| match lattice {
            Lattice::Bf16 => weights,
            Lattice::F32 => fill_low_bits(&weights),
        };
        // The honest block these are bent from: 10 weights, hi bytes
        // 0x3C ×7, 0x3D ×2, 0xBC ×1.
        let hi = [0x3C, 0x3D, 0x3C, 0xBC, 0x3C, 0x3C, 0x3D, 0x3C, 0x3C, 0x3C];
        let weights = on_lattice(with_hi_plane(hi));
        let table = [0x3C, 0x3D, 0xBC];
        let nibbles = [0x10, 0x20, 0x00, 0x01, 0x00];
        let lo = lo_planes(lattice, &weights);
        let honest = dict_block(lattice, 10, &table, &nibbles, &[], &lo);
        assert_eq!(&pack(lattice, &weights)[..], &honest[..]);
        assert_eq!(
            bits(&unpack(honest.clone()).expect("decodes")),
            bits(&weights)
        );
        let block = |n, table: &[u8], nibbles: &[u8], escaped: &[u8], lo: &[u8]| {
            unpack(dict_block(lattice, n, table, nibbles, escaped, lo))
        };

        // A table longer than a nibble can index, whatever follows it.
        for table_len in [16u8, 255] {
            let mut long = honest.clone();
            long[6] = table_len;
            long.resize(600, 0);
            assert_eq!(
                unpack(long),
                Err(DecodeError::Malformed("dictionary too long"))
            );
        }
        // A code of 14 under a 3-entry table.
        assert_eq!(
            block(10, &table, &[0x10, 0x20, 0x0E, 0x01, 0x00], &[], &lo),
            Err(DecodeError::Malformed("code beyond the dictionary"))
        );
        // One escape announced, the body one byte short of holding it.
        assert_eq!(
            block(10, &table, &[0x10, 0x2F, 0x00, 0x01, 0x00], &[], &lo),
            Err(DecodeError::Truncated)
        );
        // u32::MAX weights over a short body: refused on the length
        // check, before anything is sized by it.
        assert_eq!(
            block(u32::MAX, &table, &[0; 17], &[], &[]),
            Err(DecodeError::Truncated)
        );
        // Odd count, nonzero pad nibble.
        let odd = on_lattice(with_hi_plane(hi[..9].iter().copied()));
        assert_eq!(
            block(
                9,
                &table,
                &[0x10, 0x20, 0x00, 0x01, 0x10],
                &[],
                &lo_planes(lattice, &odd)
            ),
            Err(DecodeError::Malformed("nonzero pad nibble"))
        );

        // Well-formed blocks that decode to the honest image but are not
        // the block the encoder writes for it: each must be refused, or
        // one image would have two encodings.
        let non_canonical = Err(DecodeError::Malformed("not the encoder's hi plane"));
        // Table in another order (codes permuted to match).
        let swapped = [0x01, 0x21, 0x11, 0x10, 0x11];
        assert_eq!(
            block(10, &[0x3D, 0x3C, 0xBC], &swapped, &[], &lo),
            non_canonical
        );
        // A value the table holds, escaped anyway.
        let escaping = [0x10, 0xF0, 0x00, 0x01, 0x00];
        assert_eq!(block(10, &table, &escaping, &[0xBC], &lo), non_canonical);
        // A value the image never uses, listed in the table.
        assert_eq!(
            block(10, &[0x3C, 0x3D, 0xBC, 0x00], &nibbles, &[], &lo),
            non_canonical
        );
        // A value listed twice.
        assert_eq!(
            block(10, &[0x3C, 0x3D, 0xBC, 0x3C], &nibbles, &[], &lo),
            non_canonical
        );
        // The raw plane where the dictionary is shorter…
        let mut raw = vec![honest[0], 10, 0, 0, 0, HI_PLANE_RAW];
        raw.extend_from_slice(&hi);
        raw.extend_from_slice(&lo);
        assert_eq!(unpack(raw), non_canonical);
        // …and the dictionary where it is not (2 + ⌈4/2⌉ = 4 bytes for a
        // 4-byte plane).
        let constant = on_lattice(with_hi_plane([0x3C; 4]));
        assert_eq!(hi_plane_of(&pack(lattice, &constant)), Some(HiPlane::Raw));
        assert_eq!(
            block(4, &[0x3C], &[0, 0], &[], &lo_planes(lattice, &constant)),
            non_canonical
        );
    }

    /// The block encoder written the slow way — a map for the histogram, a
    /// table search per weight, one code per byte packed at the end, each
    /// lo plane a byte at a time. The byte-equality oracle for
    /// [`put_block`], on either lattice.
    fn put_block_oracle(out: &mut BytesMut, lattice: Lattice, weights: &[f32]) {
        let n = weights.len();
        let (head, shifts): (u8, &[u32]) = match lattice {
            Lattice::Bf16 => (0x02, &[16]),
            Lattice::F32 => (0x12, &[16, 8, 0]),
        };
        out.put_u8(head);
        out.put_u32_le(n as u32);
        let hi: Vec<u8> = weights.iter().map(|w| (w.to_bits() >> 24) as u8).collect();
        let mut counts = std::collections::BTreeMap::new();
        for &h in &hi {
            *counts.entry(h).or_insert(0usize) += 1;
        }
        let mut ranked: Vec<(u8, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let table: Vec<u8> = ranked.iter().take(15).map(|&(v, _)| v).collect();
        let mut codes = Vec::new();
        let mut escaped = Vec::new();
        for &h in &hi {
            match table.iter().position(|&t| t == h) {
                Some(code) => codes.push(code as u8),
                None => {
                    codes.push(15);
                    escaped.push(h);
                }
            }
        }
        if n % 2 == 1 {
            codes.push(0);
        }
        let nibbles: Vec<u8> = codes.chunks(2).map(|c| c[0] | c[1] << 4).collect();
        if 1 + table.len() + nibbles.len() + escaped.len() < n {
            out.put_u8(HI_PLANE_DICT4);
            out.put_u8(table.len() as u8);
            out.put_slice(&table);
            out.put_slice(&nibbles);
            out.put_slice(&escaped);
        } else {
            out.put_u8(HI_PLANE_RAW);
            out.put_slice(&hi);
        }
        for &shift in shifts {
            for w in weights {
                out.put_u8((w.to_bits() >> shift) as u8);
            }
        }
    }

    /// Both encoders over `weights` on `lattice`, the counting pass, and
    /// the way back; returns what the encoder chose.
    fn assert_packs_like_the_oracle(lattice: Lattice, weights: &[f32]) -> HiPlane {
        let fast = pack(lattice, weights);
        let mut oracle = BytesMut::new();
        put_block_oracle(&mut oracle, lattice, weights);
        let n = weights.len();
        assert_eq!(&fast[..], oracle.as_ref(), "{lattice:?}, {n} weights");
        assert_eq!(block_len(lattice, weights), fast.len());
        assert!(fast.len() <= (1 + lo_shifts(lattice).len()) * n + 6);
        let back = unpack(fast.clone()).expect("the encoder's block decodes");
        assert_eq!(bits(&back), bits(weights));
        assert_eq!(&pack(lattice, &back)[..], &fast[..]);
        hi_plane_of(&fast).expect("well-formed")
    }

    /// [`assert_packs_like_the_oracle`] on the bf16 vector `weights` and on
    /// it with its low 16 bits filled as f32: one hi plane, one choice.
    fn assert_packs_like_the_oracle_on_both(weights: &[f32]) -> HiPlane {
        let chose = assert_packs_like_the_oracle(Lattice::Bf16, weights);
        assert_eq!(
            assert_packs_like_the_oracle(Lattice::F32, &fill_low_bits(weights)),
            chose
        );
        chose
    }

    /// `len` weights over `distinct` hi bytes (all present once `len`
    /// allows), skewed towards the first of them like a trained vector's
    /// exponent band.
    fn skewed_plane(rng: &mut rpol_tensor::rng::Pcg32, len: usize, distinct: u32) -> Vec<f32> {
        with_hi_plane((0..len as u32).map(|i| {
            let r = rng.next_u32();
            let pick = if i < distinct {
                i
            } else {
                (r % distinct).min((r >> 8) % distinct)
            };
            // Spread over the byte range, sign bit included.
            (pick * 37 + 11) as u8
        }))
    }

    #[test]
    fn packed_encoder_matches_the_oracle_on_structured_planes() {
        let dict = |escapes| HiPlane::Dict { escapes };
        // A constant plane costs 2 + ⌈n/2⌉ bytes: the dictionary wins
        // from n = 6, and loses the tie at 4 and 5.
        for (n, chose) in [
            (0usize, HiPlane::Raw),
            (1, HiPlane::Raw),
            (4, HiPlane::Raw),
            (5, HiPlane::Raw),
            (6, dict(0)),
            (7, dict(0)),
            (4096, dict(0)),
        ] {
            let plane = with_hi_plane((0..n).map(|_| 0x3C));
            assert_eq!(
                assert_packs_like_the_oracle_on_both(&plane),
                chose,
                "constant, n = {n}"
            );
        }
        // A ramp over every byte value: 15 of 256 coded, the rest
        // escaped at a nibble and a byte each — raw.
        for n in [255usize, 256, 511, 4096] {
            let ramp = with_hi_plane((0..n).map(|i| i as u8));
            assert_eq!(
                assert_packs_like_the_oracle_on_both(&ramp),
                HiPlane::Raw,
                "ramp, n = {n}"
            );
        }
        // Equal counts: the table lists them by byte value, and with 16
        // and 17 of them it is the largest that escape.
        for (distinct, escapes) in [(3usize, 0usize), (15, 0), (16, 10), (17, 20)] {
            let n = distinct * 10;
            let plane = with_hi_plane((0..n).map(|i| 0xF0 - ((i % distinct) as u8) * 3));
            let block = pack(Lattice::Bf16, &plane);
            assert_eq!(assert_packs_like_the_oracle_on_both(&plane), dict(escapes));
            let table = &block[7..7 + distinct.min(15)];
            assert!(table.is_sorted(), "{distinct} tied values: {table:?}");
            assert_eq!(table[0], 0xF0 - (distinct as u8 - 1) * 3);
        }
        // Odd and even lengths around a table that is exactly full, one
        // over and two over, on a skewed plane.
        let mut rng = rpol_tensor::rng::Pcg32::seed_from(15);
        for distinct in [15u32, 16, 17] {
            for n in [63usize, 64, 1000, 1001] {
                let chose =
                    assert_packs_like_the_oracle_on_both(&skewed_plane(&mut rng, n, distinct));
                assert!(
                    matches!(chose, HiPlane::Dict { escapes } if (escapes > 0) == (distinct > 15))
                );
            }
        }
        // Task P's size, on weights shaped like a trained vector: the
        // claim this format exists for — under 1.6 bytes a weight on the
        // bf16 lattice, under 3.6 on f32.
        let mut rng = rpol_tensor::rng::Pcg32::seed_from(42);
        let weights: Vec<f32> = (0..97_320).map(|_| rng.next_normal() * 0.05).collect();
        let lattice = rpol_tensor::quant::bf16_image(&weights);
        assert!(matches!(
            assert_packs_like_the_oracle(Lattice::Bf16, &lattice),
            HiPlane::Dict { .. }
        ));
        assert!(block_len(Lattice::Bf16, &lattice) * 10 < weights.len() * 16);
        assert!(matches!(
            assert_packs_like_the_oracle(Lattice::F32, &weights),
            HiPlane::Dict { .. }
        ));
        assert!(block_len(Lattice::F32, &weights) * 10 < weights.len() * 36);
    }

    /// A dictionary block with escapes and an odd count, and a raw one:
    /// the two layouts the never-panics fuzzers bend.
    fn fuzz_vectors() -> [Vec<f32>; 2] {
        let mut rng = rpol_tensor::rng::Pcg32::seed_from(17);
        let escaping = skewed_plane(&mut rng, 81, 17);
        assert!(matches!(
            hi_plane_of(&pack(Lattice::Bf16, &escaping)),
            Some(HiPlane::Dict { escapes: 1.. })
        ));
        [escaping, with_hi_plane((0..40u8).map(|i| i * 5))]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Round-trip: any vector survives the block of its lattice bit
        /// for bit, the block never exceeds (1 + planes)·n + 6 bytes, and
        /// the fast encoder, the counting pass and the scalar oracle agree
        /// — over every length 0..=4096, odd and even, on both lattices, on
        /// hi planes drawn like weights (0), constant (1), with a table
        /// exactly full, one over and two over (2–4), and uniformly random
        /// (5: raw).
        #[test]
        fn packed_encoder_matches_the_oracle(
            seed in 0u64..10_000, len in 0usize..=4096, kind in 0u32..6,
            f32_lattice in proptest::prelude::any::<bool>()
        ) {
            let mut rng = rpol_tensor::rng::Pcg32::seed_from(seed ^ 0x0A_C1E);
            let weights = match kind {
                0 => {
                    let mut w: Vec<f32> = (0..len).map(|_| rng.next_normal() * 0.05).collect();
                    rpol_tensor::quant::snap_to_bf16(&mut w);
                    w
                }
                1 => with_hi_plane((0..len).map(|_| seed as u8)),
                2..=4 => skewed_plane(&mut rng, len, 13 + kind),
                _ => with_hi_plane((0..len).map(|_| rng.next_u32() as u8)),
            };
            let (lattice, weights) = if f32_lattice {
                (Lattice::F32, fill_low_bits(&weights))
            } else {
                (Lattice::Bf16, weights)
            };
            let chose = assert_packs_like_the_oracle(lattice, &weights);
            if kind == 5 && len >= 64 {
                proptest::prop_assert_eq!(chose, HiPlane::Raw);
            }
            if kind < 5 && len >= 64 {
                proptest::prop_assert!(matches!(chose, HiPlane::Dict { .. }));
            }
        }

        /// Round-trip on arbitrary 16-bit images (NaNs, infinities and
        /// subnormals included), short enough that every field is hit.
        #[test]
        fn packed_codec_roundtrips_lattice_vectors(seed in 0u64..1_000, len in 0usize..300) {
            let mut rng = rpol_tensor::rng::Pcg32::seed_from(seed ^ 0xB16_C0DE);
            let weights: Vec<f32> = (0..len)
                .map(|_| f32::from_bits((rng.next_u32() & 0xFFFF_0000) >> 16 << 16))
                .collect();
            assert_packs_like_the_oracle(Lattice::Bf16, &weights);
        }

        /// Round-trip on arbitrary `u32` bit patterns through the f32
        /// block: uniform (a raw hi plane), and weight-shaped with every
        /// third weight's bits drawn uniformly (escapes), or with its low
        /// 24 bits drawn uniformly (a dictionary over full mantissas).
        #[test]
        fn f32_block_roundtrips_any_bit_pattern(
            seed in 0u64..10_000, len in 0usize..600, kind in 0u32..3
        ) {
            let mut rng = rpol_tensor::rng::Pcg32::seed_from(seed ^ 0xF32_B175);
            let weights: Vec<f32> = (0..len)
                .map(|i| {
                    let shaped = (rng.next_normal() * 0.05).to_bits();
                    let any = rng.next_u32();
                    f32::from_bits(match kind {
                        0 => any,
                        1 if i % 3 == 0 => any,
                        1 => shaped,
                        _ => shaped & 0xFF00_0000 | any >> 8,
                    })
                })
                .collect();
            assert_packs_like_the_oracle(Lattice::F32, &weights);
        }

        /// One encoding per image, on both lattices: whatever block the
        /// decoder accepts is the block the encoder writes for what it
        /// decoded to. Honest blocks of every shape, bent in up to three
        /// bytes — most die on the canonical-form checks, a bent lo byte
        /// survives as another image's honest block, a bent lattice
        /// nibble as an empty block's on the other lattice.
        #[test]
        fn accepted_blocks_reencode_to_themselves(
            seed in 0u64..100_000, len in 0usize..48, distinct in 1u32..20, flips in 1usize..=3,
            f32_lattice in proptest::prelude::any::<bool>()
        ) {
            let mut rng = rpol_tensor::rng::Pcg32::seed_from(seed);
            let weights = skewed_plane(&mut rng, len, distinct);
            let mut block = if f32_lattice {
                pack(Lattice::F32, &fill_low_bits(&weights))
            } else {
                pack(Lattice::Bf16, &weights)
            }
            .to_vec();
            for _ in 0..flips {
                let pos = rng.next_u32() as usize % block.len();
                block[pos] ^= 1 << (rng.next_u32() % 8);
            }
            let mut buf = Bytes::from(block.clone());
            if let Ok(image) = get_block(&mut buf, None) {
                let consumed = block.len() - buf.remaining();
                proptest::prop_assert_eq!(&pack(lattice_of(&block), &image)[..], &block[..consumed]);
            }
        }

        /// Fuzz: truncating a valid V3 submission at any byte must fail
        /// with a clean DecodeError — never panic, never misdecode.
        #[test]
        fn truncated_v3_submission_never_panics(cut_seed in 0u64..400) {
            let family = LshFamily::new(12, LshParams::new(1.0, 2, 3), 5);
            let commitment = EpochCommitment::commit_v3(&lattice_checkpoints(), &family);
            for weights in fuzz_vectors() {
                let encoded = encode_submission(&weights, Some(&commitment));
                let cut = (cut_seed as usize * 0x9E37) % encoded.len();
                proptest::prop_assert!(decode_submission(encoded.slice(0..cut)).is_err());
            }
        }

        /// Fuzz: a single corrupted byte in a packed proof response either
        /// decodes to *something* or errors — it must never panic.
        #[test]
        fn corrupt_packed_response_never_panics(pos_seed in 0u64..500, xor in 1u8..=255) {
            for weights in fuzz_vectors() {
                let encoded = encode_proof_response_packed(3, &weights);
                let pos = (pos_seed as usize * 0x5851) % encoded.len();
                let mut bad = encoded.to_vec();
                bad[pos] ^= xor;
                let _ = decode_proof_response(Bytes::from(bad));
            }
        }

        /// The same two fuzzers on the f32 lattice: a v1 submission cut
        /// anywhere fails cleanly, an f32 opening bent anywhere decodes or
        /// errors, and neither panics.
        #[test]
        fn f32_payloads_cut_or_bent_never_panic(
            cut_seed in 0u64..400, pos_seed in 0u64..500, xor in 1u8..=255
        ) {
            let commitment = EpochCommitment::commit_v1(&checkpoints());
            for weights in fuzz_vectors().map(|w| fill_low_bits(&w)) {
                let encoded = encode_submission(&weights, Some(&commitment));
                let cut = (cut_seed as usize * 0x9E37) % encoded.len();
                proptest::prop_assert!(decode_submission(encoded.slice(0..cut)).is_err());
                let opening = encode_proof_response(3, &weights);
                let pos = (pos_seed as usize * 0x5851) % opening.len();
                let mut bad = opening.to_vec();
                bad[pos] ^= xor;
                let _ = decode_proof_response(Bytes::from(bad));
            }
        }
    }

    #[test]
    fn proof_request_roundtrip() {
        let samples = vec![0usize, 3, 7];
        let decoded = decode_proof_request(encode_proof_request(&samples)).expect("ok");
        assert_eq!(decoded, samples);
    }

    #[test]
    fn proof_response_roundtrip() {
        let weights = vec![0.5f32; 20];
        let (ix, w) = decode_proof_response(encode_proof_response(7, &weights)).expect("ok");
        assert_eq!(ix, 7);
        assert_eq!(w, weights);
    }

    #[test]
    fn truncated_messages_rejected() {
        let cps = checkpoints();
        let commitment = EpochCommitment::commit_v1(&cps);
        let encoded = encode_submission(&cps[0], Some(&commitment));
        for cut in [0, 1, 5, encoded.len() - 1] {
            let sliced = encoded.slice(0..cut);
            assert!(
                decode_submission(sliced).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn empty_or_overlong_commitments_rejected() {
        let cps = checkpoints();
        let family = LshFamily::new(12, LshParams::new(1.0, 2, 3), 5);
        for commitment in [
            EpochCommitment::commit_v1(&cps),
            EpochCommitment::commit_v2(&cps, &family),
            EpochCommitment::commit_v3(&lattice_checkpoints(), &family),
        ] {
            let scheme = commitment.scheme();
            let encoded = encode_submission(&cps[0], Some(&commitment)).to_vec();
            let counts = encoded.len() - commitment_bytes(&commitment);
            // A byte past the last row.
            let mut longer = encoded.clone();
            longer.push(0);
            assert_eq!(
                decode_submission(Bytes::from(longer)),
                Err(DecodeError::Malformed("trailing submission bytes")),
                "{scheme}"
            );
            // n = 0, then (with LSH) l = 0.
            let zeroed = |at: usize| {
                let mut bytes = encoded.clone();
                bytes[at..at + 4].fill(0);
                decode_submission(Bytes::from(bytes))
            };
            let empty = Err(DecodeError::Malformed("empty commitment"));
            assert_eq!(zeroed(counts), empty, "{scheme}");
            if scheme.spec().hashes_by_lsh() {
                assert_eq!(zeroed(counts + 4), empty, "{scheme}");
            }
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        // The retired per-commitment tags included.
        for tag in [0xEE, 0x01, 0x02, 0x03, 0x04] {
            let mut out = BytesMut::new();
            out.put_u8(tag);
            out.put_u32_le(0);
            assert_eq!(
                decode_submission(out.freeze()),
                Err(DecodeError::Malformed("unknown submission tag"))
            );
        }
    }

    #[test]
    fn wrong_tag_for_request_rejected() {
        let resp = encode_proof_response(1, &[1.0]);
        assert!(decode_proof_request(resp).is_err());
    }

    #[test]
    fn hostile_length_prefix_rejected_without_allocation() {
        // A submission whose block claims u32::MAX weights: the decoder
        // must fail on the length check, never reserve ~16 GB.
        let mut out = BytesMut::new();
        out.put_u8(TAG_SUBMISSION);
        out.put_u8(Scheme::Baseline.spec().wire);
        out.put_u8(lattice_nibble(Lattice::F32) << 4 | BLOCK_V2);
        out.put_u32_le(u32::MAX);
        out.put_u8(HI_PLANE_RAW);
        out.put_f32_le(1.0);
        assert_eq!(decode_submission(out.freeze()), Err(DecodeError::Truncated));
        // Same for a v2 commitment with hostile n×l.
        let mut out = BytesMut::new();
        out.put_u8(TAG_SUBMISSION);
        out.put_u8(Scheme::RPoLv2.spec().wire);
        out.put_slice(&pack(Lattice::F32, &[])); // no weights
        out.put_u32_le(u32::MAX);
        out.put_u32_le(u32::MAX);
        assert!(decode_submission(out.freeze()).is_err());
        // And a proof request claiming 4 billion samples.
        let mut out = BytesMut::new();
        out.put_u8(TAG_PROOF_REQUEST);
        out.put_u32_le(u32::MAX);
        assert_eq!(
            decode_proof_request(out.freeze()),
            Err(DecodeError::Truncated)
        );
    }

    /// A task frame on the f32 lattice, as the server frames one.
    fn f32_task(task: &EpochTask) -> Bytes {
        TaskBlock::new(Lattice::F32, &task.global_weights).frame(task.epoch, task.nonce, task.steps)
    }

    #[test]
    fn epoch_task_roundtrip() {
        let task = EpochTask {
            epoch: 7,
            nonce: 0xDEAD_BEEF,
            steps: 15,
            global_weights: vec![0.25f32, -1.5, 3.0],
        };
        let decoded = decode_epoch_task(&mut f32_task(&task)).expect("ok");
        assert_eq!(decoded, task);
    }

    #[test]
    fn epoch_task_rejects_degenerate_fields() {
        let mut task = EpochTask {
            epoch: 0,
            nonce: 1,
            steps: 0,
            global_weights: vec![1.0],
        };
        assert!(decode_epoch_task(&mut f32_task(&task)).is_err());
        task.steps = 4;
        task.global_weights.clear();
        assert!(decode_epoch_task(&mut f32_task(&task)).is_err());
    }

    /// The RPoLv3 task frame of protocol 3, written out field by field: a
    /// bf16 block behind the header must reproduce it byte for byte, so
    /// no v3 task, nor any fault draw keyed on its length, moved when the
    /// other schemes joined the codec.
    #[test]
    fn bf16_task_frame_is_byte_identical_to_the_parent_encoding() {
        let weights =
            rpol_tensor::quant::bf16_image(&[0.25f32, -1.5, 3.0, f32::MIN_POSITIVE, -0.0]);
        let mut golden = vec![0x21u8];
        golden.extend_from_slice(&7u64.to_le_bytes());
        golden.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        golden.extend_from_slice(&15u32.to_le_bytes());
        // PACKED_WEIGHTS_V2, the count, a raw hi plane, the lo plane.
        golden.push(2);
        golden.extend_from_slice(&(weights.len() as u32).to_le_bytes());
        golden.push(0);
        golden.extend(weights.iter().map(|w| w.to_le_bytes()[3]));
        golden.extend(weights.iter().map(|w| w.to_le_bytes()[2]));
        let block = TaskBlock::new(Lattice::Bf16, &weights);
        assert_eq!(&block.frame(7, 0xDEAD_BEEF, 15)[..], &golden[..]);
        assert_eq!(
            block.bytes_saved() as usize,
            raw_weights_wire_size(weights.len()) - (golden.len() - TASK_HEADER_BYTES)
        );
    }

    #[test]
    fn packed_task_roundtrips_classifies_and_counts_its_saving() {
        let weights = rpol_tensor::quant::bf16_image(&[0.5f32, -0.25, 1.5e-3, 0.0, -7.25, 3.0]);
        for (lattice, weights) in [
            (Lattice::Bf16, weights.clone()),
            (Lattice::F32, fill_low_bits(&weights)),
        ] {
            let block = TaskBlock::new(lattice, &weights);
            let mut payload = block.frame(3, 99, 10);
            assert_eq!(payload[0], 0x21);
            assert_eq!(classify_payload(&payload), PayloadClass::EpochTask);
            // header + version + count + mode + hi plane + lo planes.
            let planes = lo_shifts(lattice).len();
            assert_eq!(
                payload.len(),
                TASK_HEADER_BYTES + 6 + (1 + planes) * weights.len()
            );
            assert_eq!(block.hi_plane(), HiPlane::Raw);
            assert_eq!(packed_hi_plane(&payload), Some(HiPlane::Raw));
            let raw_len = TASK_HEADER_BYTES + raw_weights_wire_size(weights.len());
            assert_eq!(
                block.bytes_saved(),
                raw_len.saturating_sub(payload.len()) as u64
            );
            let task = decode_epoch_task(&mut payload).expect("decodes");
            assert_eq!((task.epoch, task.nonce, task.steps), (3, 99, 10));
            assert_eq!(bits(&task.global_weights), bits(&weights));
        }
    }

    #[test]
    fn packed_task_rejects_degenerate_and_hostile_fields() {
        let weights = rpol_tensor::quant::bf16_image(&[1.0f32; 8]);
        for lattice in LATTICES {
            let good = TaskBlock::new(lattice, &weights).frame(1, 2, 4).to_vec();
            let decode = |bytes: Vec<u8>| decode_epoch_task(&mut Bytes::from(bytes));
            for cut in 0..good.len() {
                assert!(decode(good[..cut].to_vec()).is_err(), "cut at {cut}");
            }
            let mut zero_steps = good.clone();
            zero_steps[17..21].copy_from_slice(&0u32.to_le_bytes());
            assert_eq!(
                decode(zero_steps),
                Err(DecodeError::Malformed("empty epoch"))
            );
            // An unknown version, and the retired V1 layout's.
            for version in [0xF, 1] {
                let mut bad_version = good.clone();
                bad_version[TASK_HEADER_BYTES] = lattice_nibble(lattice) << 4 | version;
                assert_eq!(
                    decode(bad_version),
                    Err(DecodeError::Malformed("unknown packed-weight version"))
                );
            }
            assert_eq!(
                decode(TaskBlock::new(lattice, &[]).frame(1, 2, 4).to_vec()),
                Err(DecodeError::Malformed("empty global model"))
            );
            // A count of u32::MAX weights must fail the length check before
            // any plane is allocated.
            let mut hostile = good.clone();
            hostile[TASK_HEADER_BYTES + 1..TASK_HEADER_BYTES + 5]
                .copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(decode(hostile), Err(DecodeError::Truncated));
        }
        // The retired raw f32 task tag.
        let mut retired = TaskBlock::new(Lattice::F32, &weights)
            .frame(1, 2, 4)
            .to_vec();
        retired[0] = 0x20;
        assert_eq!(
            decode_epoch_task(&mut Bytes::from(retired)),
            Err(DecodeError::Malformed("not an epoch task"))
        );
    }

    #[test]
    fn frame_roundtrip() {
        let payload = encode_proof_request(&[1, 2, 3]);
        let framed = seal_frame(&payload);
        assert_eq!(framed.len(), payload.len() + 16);
        frame_payload(&framed).expect("opens");
        assert_eq!(framed.slice(FRAME_HEADER_BYTES..), payload);
    }

    #[test]
    fn frame_detects_single_byte_corruption_anywhere() {
        let payload = encode_proof_response(3, &[0.5f32; 8]);
        let framed = seal_frame(&payload);
        for pos in 0..framed.len() {
            let mut bad = framed.to_vec();
            bad[pos] ^= 0x40;
            assert!(
                frame_payload(&bad).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn frame_detects_truncation_and_padding() {
        let payload = encode_proof_request(&[9]);
        let framed = seal_frame(&payload);
        for cut in 0..framed.len() {
            assert!(
                frame_payload(&framed[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        let mut padded = framed.to_vec();
        padded.push(0);
        assert_eq!(
            frame_payload(&padded),
            Err(DecodeError::Malformed("frame length mismatch"))
        );
    }

    #[test]
    fn status_controls_roundtrip_and_classify_as_control() {
        for msg in [
            NetControl::Status,
            NetControl::StatusReport {
                json: "{\"net\":{\"accepted\":3}}".to_string(),
            },
        ] {
            let mut encoded = encode_net_control(&msg);
            assert_eq!(classify_payload(&encoded), PayloadClass::Control);
            assert_eq!(decode_net_control(&mut encoded).expect("decodes"), msg);
        }
        // Non-UTF-8 report bodies must be rejected, not mangled.
        let mut bad = BytesMut::new();
        bad.put_u8(0x3B);
        bad.put_u32_le(2);
        bad.put_slice(&[0xFF, 0xFE]);
        assert!(decode_net_control(&mut bad.freeze()).is_err());
    }

    #[test]
    fn trace_extension_roundtrips_and_strips_cleanly() {
        let ctx = TraceContext {
            trace_id: 11,
            parent_span: 22,
            watermark: 33,
        };
        let inner = encode_net_control(&NetControl::Ping { nonce: 9 });
        let wrapped = wrap_traced(ctx, &inner);
        assert_eq!(wrapped.len(), inner.len() + TRACE_EXT_BYTES);
        // A wrapped payload is not a control/submission/anything until it
        // is split — the 0x54 tag is outside every protocol block.
        assert_eq!(classify_payload(&wrapped), PayloadClass::Unknown);
        let (got_ctx, got_inner) = split_traced(wrapped);
        assert_eq!(got_ctx, Some(ctx));
        assert_eq!(got_inner, inner);
        assert_eq!(classify_payload(&got_inner), PayloadClass::Control);
    }

    #[test]
    fn split_traced_leaves_plain_payloads_untouched() {
        // Every existing message class passes through unchanged — the
        // "old frames decode unchanged" guarantee.
        let plain = [
            encode_net_control(&NetControl::Shutdown),
            encode_proof_request(&[1, 2]),
            encode_submission(&[1.0f32, 2.0], None),
        ];
        for payload in plain {
            let (ctx, inner) = split_traced(payload.clone());
            assert_eq!(ctx, None);
            assert_eq!(inner, payload);
        }
        // Truncated or unknown-revision extensions also pass through (and
        // then classify as Unknown, like any foreign tag).
        let ctx = TraceContext::default();
        let wrapped = wrap_traced(ctx, &encode_proof_request(&[3]));
        let truncated = wrapped.slice(0..TRACE_EXT_BYTES - 1);
        assert_eq!(split_traced(truncated).0, None);
        let mut unknown_rev = wrapped.to_vec();
        unknown_rev[1] = 2;
        let unknown_rev = Bytes::from(unknown_rev);
        assert_eq!(split_traced(unknown_rev.clone()).0, None);
        assert_eq!(classify_payload(&unknown_rev), PayloadClass::Unknown);
    }
}
