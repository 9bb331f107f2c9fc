//! Deterministic bf16-pattern weight quantization (DESIGN.md §13).
//!
//! RPoLv3 shrinks the commit/verify data plane by quantizing checkpoint
//! weights to the **bfloat16 bit pattern**: the top 16 bits of the IEEE
//! `f32` encoding (sign, the full 8-bit exponent, the 7 highest mantissa
//! bits), obtained by truncation. Truncation — rather than
//! round-to-nearest — is chosen deliberately:
//!
//! * it is a pure bit operation, so the mapping is trivially deterministic
//!   across hosts, ISAs and thread counts;
//! * it is **idempotent**: a value whose low 16 bits are already zero maps
//!   to itself, so `quantize ∘ dequantize` is the identity on the
//!   quantized lattice and re-quantizing a checkpoint never drifts;
//! * it is monotone (round-toward-zero), so quantization preserves the
//!   total order of weights.
//!
//! A quantized weight is stored as the `u16` holding those top 16 bits;
//! its exact `f32` image is that `u16` shifted back up with a zero low
//! half. Everything downstream — SHA-256 commitment digests, the
//! streamed LSH projections, the packed wire blocks — operates on
//! either the 2-byte lattice points or their exact `f32` images, so the
//! whole pipeline stays byte-deterministic while halving the bytes
//! hashed, projected and shipped.

/// Quantizes one weight to its bf16 bit pattern (truncation).
#[inline]
pub fn quantize_bf16(x: f32) -> u16 {
    (x.to_bits() >> 16) as u16
}

/// The exact `f32` image of a bf16 lattice point (low 16 bits zero).
#[inline]
pub fn dequantize_bf16(q: u16) -> f32 {
    f32::from_bits((q as u32) << 16)
}

/// `true` when every element already lies on the bf16 lattice — i.e. the
/// slice is its own quantized image and 2-byte packing is lossless.
pub fn is_bf16_lattice(weights: &[f32]) -> bool {
    weights.iter().all(|w| w.to_bits() & 0xFFFF == 0)
}

/// Quantizes a slice to packed `u16` lattice points.
pub fn quantize_slice(weights: &[f32]) -> Vec<u16> {
    weights.iter().map(|&w| quantize_bf16(w)).collect()
}

/// Expands packed lattice points back to their exact `f32` images.
pub fn dequantize_slice(quants: &[u16]) -> Vec<f32> {
    quants.iter().map(|&q| dequantize_bf16(q)).collect()
}

/// Snaps a slice onto the bf16 lattice in place (`quantize ∘ dequantize`
/// fused, staying in `f32`) — the checkpoint-boundary projection RPoLv3
/// training and replay both apply, so worker and verifier walk the same
/// lattice trajectory.
pub fn snap_to_bf16(weights: &mut [f32]) {
    for w in weights.iter_mut() {
        *w = f32::from_bits(w.to_bits() & 0xFFFF_0000);
    }
}

/// Returns the bf16-lattice image of a slice (non-destructive
/// [`snap_to_bf16`]).
pub fn bf16_image(weights: &[f32]) -> Vec<f32> {
    let mut out = weights.to_vec();
    snap_to_bf16(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    #[test]
    fn truncation_round_trips_exactly() {
        let mut rng = Pcg32::seed_from(21);
        for _ in 0..1000 {
            let x = rng.next_normal();
            let q = quantize_bf16(x);
            let dq = dequantize_bf16(q);
            // Idempotent: the image is a fixed point.
            assert_eq!(quantize_bf16(dq), q);
            assert_eq!(dequantize_bf16(quantize_bf16(dq)), dq);
            // Truncation rounds toward zero and keeps the sign.
            assert!(dq.abs() <= x.abs());
            assert_eq!(dq.is_sign_negative(), x.is_sign_negative());
        }
    }

    #[test]
    fn snap_matches_pack_unpack() {
        let mut rng = Pcg32::seed_from(22);
        let weights: Vec<f32> = (0..257).map(|_| rng.next_normal()).collect();
        let mut snapped = weights.clone();
        snap_to_bf16(&mut snapped);
        assert_eq!(snapped, dequantize_slice(&quantize_slice(&weights)));
        assert!(is_bf16_lattice(&snapped));
        assert!(!is_bf16_lattice(&weights) || weights.iter().all(|w| *w == 0.0));
    }

    #[test]
    fn special_values_survive() {
        for x in [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(dequantize_bf16(quantize_bf16(x)).to_bits(), x.to_bits());
        }
        assert!(dequantize_bf16(quantize_bf16(f32::NAN)).is_nan());
    }
}
