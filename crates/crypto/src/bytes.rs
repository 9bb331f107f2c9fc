//! Canonical `f32` ↔ little-endian byte framing.
//!
//! Every protocol surface that serializes model weights — checkpoint
//! digests, wire messages, transport frames — hashes or ships the
//! little-endian byte image of an `f32` slice. Doing that one element at a
//! time (`for w in weights { out.put_f32_le(w) }`) costs a bounds check,
//! a 4-byte store and a length bump per weight; for multi-megabyte models
//! the framing alone rivals the hashing it feeds. This module provides the
//! fast path once, for everyone:
//!
//! * on little-endian targets the byte image of `&[f32]` *is* the slice's
//!   memory, so [`f32s_as_le_bytes`] is a zero-copy reinterpretation;
//! * on big-endian targets it falls back to per-element conversion, so the
//!   wire format is identical everywhere.
//!
//! The reinterpretation is sound because `f32` and `u8` have no invalid
//! bit patterns and `u8` has alignment 1; this is the same contract the
//! `bytemuck` crate enforces for these types, implemented locally because
//! the workspace builds offline.

use std::borrow::Cow;

/// The little-endian byte image of an `f32` slice.
///
/// Zero-copy (`Cow::Borrowed`) on little-endian targets; an owned chunked
/// conversion on big-endian ones. The returned bytes are exactly what
/// `src.iter().flat_map(|x| x.to_le_bytes())` would produce.
///
/// # Examples
///
/// ```
/// use rpol_crypto::bytes::f32s_as_le_bytes;
///
/// let bytes = f32s_as_le_bytes(&[1.0f32]);
/// assert_eq!(&bytes[..], &1.0f32.to_le_bytes());
/// ```
pub fn f32s_as_le_bytes(src: &[f32]) -> Cow<'_, [u8]> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: u8 has alignment 1 and no invalid bit patterns; the
        // region is exactly the slice's own allocation.
        Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(src.as_ptr().cast::<u8>(), src.len() * 4)
        })
    }
    #[cfg(target_endian = "big")]
    {
        Cow::Owned(src.iter().flat_map(|x| x.to_le_bytes()).collect())
    }
}

/// The packed little-endian **bf16 image** of an `f32` slice: the top 16
/// bits of each `f32` (sign, exponent, 7 mantissa bits), 2 bytes per
/// weight. For weights already on the bf16 lattice (low 16 bits zero, the
/// RPoLv3 checkpoint invariant) this framing is lossless and exactly halves
/// the bytes hashed and shipped; for arbitrary weights it is the canonical
/// truncating quantizer.
pub fn bf16_as_le_bytes(src: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() * 2);
    bf16_le_chunks(src, |bytes| out.extend_from_slice(bytes));
    out
}

/// Feeds the packed bf16 image of `src` (see [`bf16_as_le_bytes`]) to `sink`
/// in order, a stack buffer at a time — a consumer that streams (a hasher)
/// never needs the whole image in memory.
pub fn bf16_le_chunks(src: &[f32], mut sink: impl FnMut(&[u8])) {
    let mut staging = [0u8; 1024];
    for chunk in src.chunks(staging.len() / 2) {
        for (dst, &x) in staging.chunks_exact_mut(2).zip(chunk) {
            dst.copy_from_slice(&((x.to_bits() >> 16) as u16).to_le_bytes());
        }
        sink(&staging[..chunk.len() * 2]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_image_matches_per_element_encoding() {
        let xs = [0.0f32, -1.5, f32::MIN_POSITIVE, 3.25e7, -0.0];
        let expect: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(&f32s_as_le_bytes(&xs)[..], &expect[..]);
    }

    #[test]
    fn roundtrip_preserves_bits() {
        let xs = [f32::NAN, f32::INFINITY, -0.0, 1.0, f32::from_bits(1)];
        let back: Vec<u32> = f32s_as_le_bytes(&xs)
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
            .collect();
        let expect: Vec<u32> = xs.iter().map(|x| x.to_bits()).collect();
        assert_eq!(back, expect);
    }

    #[test]
    fn bf16_image_is_lossless_on_the_lattice() {
        let xs: Vec<f32> = [1.0f32, -2.5, 0.0, -0.0, 3.0e-20, f32::INFINITY]
            .iter()
            .map(|x| f32::from_bits(x.to_bits() & 0xFFFF_0000))
            .collect();
        let packed = bf16_as_le_bytes(&xs);
        assert_eq!(packed.len(), xs.len() * 2);
        // Each 2-byte word is the high half of its lattice point.
        let back: Vec<u32> = packed
            .chunks_exact(2)
            .map(|pair| (u16::from_le_bytes([pair[0], pair[1]]) as u32) << 16)
            .collect();
        let bits: Vec<u32> = xs.iter().map(|x| x.to_bits()).collect();
        assert_eq!(back, bits);
    }

    #[test]
    fn bf16_image_truncates_off_lattice_values() {
        let x = f32::from_bits(0x3F80_1234);
        assert_eq!(bf16_as_le_bytes(&[x]), [0x80, 0x3F]);
    }
}
