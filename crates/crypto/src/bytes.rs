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
//!   memory, so [`f32s_as_le_bytes`] is a zero-copy reinterpretation and
//!   [`copy_f32s_from_le`] is a single `memcpy`;
//! * on big-endian targets the same functions fall back to chunked
//!   conversion, so the wire format is identical everywhere.
//!
//! The reinterpretations are sound because `f32` and `u8` have no invalid
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
        let mut out = Vec::with_capacity(src.len() * 4);
        extend_f32s_le(&mut out, src);
        Cow::Owned(out)
    }
}

/// Appends the little-endian byte image of `src` to `out` in cache-sized
/// chunks (never per-element).
pub fn extend_f32s_le(out: &mut Vec<u8>, src: &[f32]) {
    #[cfg(target_endian = "little")]
    {
        out.extend_from_slice(&f32s_as_le_bytes(src));
    }
    #[cfg(target_endian = "big")]
    {
        out.reserve(src.len() * 4);
        let mut staging = [0u8; 1024];
        for chunk in src.chunks(staging.len() / 4) {
            for (dst, &x) in staging.chunks_exact_mut(4).zip(chunk) {
                dst.copy_from_slice(&x.to_le_bytes());
            }
            out.extend_from_slice(&staging[..chunk.len() * 4]);
        }
    }
}

/// The mutable byte view of an `f32` slice, for bulk-copying little-endian
/// wire bytes straight into place (follow with [`le_fixup_in_place`]).
pub fn f32s_as_bytes_mut(dst: &mut [f32]) -> &mut [u8] {
    // SAFETY: u8 has alignment 1 and no invalid bit patterns, and every
    // bit pattern is a valid f32; the region is the slice's own memory.
    unsafe { std::slice::from_raw_parts_mut(dst.as_mut_ptr().cast::<u8>(), dst.len() * 4) }
}

/// Repairs element order after raw little-endian bytes were copied into an
/// `f32` slice's memory: a no-op on little-endian targets, a byte swap on
/// big-endian ones.
pub fn le_fixup_in_place(dst: &mut [f32]) {
    #[cfg(target_endian = "big")]
    for x in dst.iter_mut() {
        *x = f32::from_bits(x.to_bits().swap_bytes());
    }
    #[cfg(target_endian = "little")]
    let _ = dst;
}

/// Decodes a little-endian byte image into `f32`s, appending to `out`.
///
/// # Panics
///
/// Panics unless `bytes.len()` is a multiple of 4.
pub fn copy_f32s_from_le(bytes: &[u8], out: &mut Vec<f32>) {
    assert!(
        bytes.len().is_multiple_of(4),
        "byte length {} not a multiple of 4",
        bytes.len()
    );
    let n = bytes.len() / 4;
    let start = out.len();
    out.resize(start + n, 0.0);
    let dst = &mut out[start..];
    f32s_as_bytes_mut(dst).copy_from_slice(bytes);
    le_fixup_in_place(dst);
}

/// Appends the packed little-endian **bf16 image** of `src` to `out`: the
/// top 16 bits of each `f32` (sign, exponent, 7 mantissa bits), 2 bytes
/// per weight. For weights already on the bf16 lattice (low 16 bits zero,
/// the RPoLv3 checkpoint invariant) this framing is lossless and exactly
/// halves the bytes hashed and shipped; for arbitrary weights it is the
/// canonical truncating quantizer.
pub fn extend_bf16_le(out: &mut Vec<u8>, src: &[f32]) {
    out.reserve(src.len() * 2);
    bf16_le_chunks(src, |bytes| out.extend_from_slice(bytes));
}

/// Feeds the packed bf16 image of `src` (see [`extend_bf16_le`]) to `sink`
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

/// The packed little-endian bf16 image of an `f32` slice (see
/// [`extend_bf16_le`]).
pub fn bf16_as_le_bytes(src: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() * 2);
    extend_bf16_le(&mut out, src);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_image_matches_per_element_encoding() {
        let xs = [0.0f32, -1.5, f32::MIN_POSITIVE, 3.25e7, -0.0];
        let expect: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(&f32s_as_le_bytes(&xs)[..], &expect[..]);
        let mut appended = vec![0xAAu8];
        extend_f32s_le(&mut appended, &xs);
        assert_eq!(&appended[1..], &expect[..]);
    }

    #[test]
    fn roundtrip_preserves_bits() {
        let xs = [f32::NAN, f32::INFINITY, -0.0, 1.0, f32::from_bits(1)];
        let bytes = f32s_as_le_bytes(&xs).into_owned();
        let mut back = Vec::new();
        copy_f32s_from_le(&bytes, &mut back);
        let bits: Vec<u32> = back.iter().map(|x| x.to_bits()).collect();
        let expect: Vec<u32> = xs.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, expect);
    }

    #[test]
    fn copy_appends_after_existing() {
        let mut out = vec![7.0f32];
        copy_f32s_from_le(&2.5f32.to_le_bytes(), &mut out);
        assert_eq!(out, [7.0, 2.5]);
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn ragged_byte_length_rejected() {
        copy_f32s_from_le(&[1, 2, 3], &mut Vec::new());
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
