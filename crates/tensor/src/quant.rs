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
//!   to itself, so snapping is the identity on the quantized lattice
//!   and re-quantizing a checkpoint never drifts;
//! * it is monotone (round-toward-zero), so quantization preserves the
//!   total order of weights.
//!
//! A quantized weight's exact `f32` image is its top 16 bits with a zero
//! low half; the wire packs the top 16 bits as two bytes. Everything
//! downstream — SHA-256 commitment digests, the
//! streamed LSH projections, the packed wire blocks — operates on
//! either the 2-byte lattice points or their exact `f32` images, so the
//! whole pipeline stays byte-deterministic while halving the bytes
//! hashed, projected and shipped.

/// `true` when every element already lies on the bf16 lattice — i.e. the
/// slice is its own quantized image and 2-byte packing is lossless.
pub fn is_bf16_lattice(weights: &[f32]) -> bool {
    weights.iter().all(|w| w.to_bits() & 0xFFFF == 0)
}

/// Snaps a slice onto the bf16 lattice in place (truncation, staying in
/// `f32`) — the checkpoint-boundary projection RPoLv3
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
            let dq = bf16_image(&[x])[0];
            // Idempotent: the image is a fixed point.
            assert_eq!(bf16_image(&[dq])[0].to_bits(), dq.to_bits());
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
        // The top 16 bits, as the wire packs them, shifted back up.
        let unpacked: Vec<f32> = weights
            .iter()
            .map(|w| f32::from_bits((w.to_bits() >> 16) << 16))
            .collect();
        assert_eq!(snapped, unpacked);
        assert!(is_bf16_lattice(&snapped));
        assert!(!is_bf16_lattice(&weights) || weights.iter().all(|w| *w == 0.0));
    }

    #[test]
    fn special_values_survive() {
        let specials = [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY];
        for (x, dq) in specials.iter().zip(bf16_image(&specials)) {
            assert_eq!(dq.to_bits(), x.to_bits());
        }
        assert!(bf16_image(&[f32::NAN])[0].is_nan());
    }
}
