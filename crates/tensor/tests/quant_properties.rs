//! Property-based tests for the bf16 lattice quantizer (DESIGN.md §13).
//!
//! The RPoLv3 data plane leans on two properties of truncation
//! quantization: it is idempotent (re-quantizing never drifts, so worker
//! and verifier walk the same lattice), and it is a pure per-element bit
//! operation (so any parallel schedule produces the same bytes).

use proptest::prelude::*;
use rpol_exec::Executor;
use rpol_tensor::quant::{bf16_image, is_bf16_lattice, snap_to_bf16};

/// Reinterprets raw bit patterns as f32s: covers normals, subnormals,
/// zeros, infinities and NaNs — the quantizer must be total over all.
fn from_bits(patterns: &[u32]) -> Vec<f32> {
    patterns.iter().map(|&b| f32::from_bits(b)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|w| w.to_bits()).collect()
}

proptest! {
    #[test]
    fn round_trip_is_idempotent(patterns in proptest::collection::vec(any::<u32>(), 64)) {
        let weights = from_bits(&patterns);
        // One snap lands on the lattice; a second snap is the identity.
        let once = bf16_image(&weights);
        prop_assert!(is_bf16_lattice(&once));
        let twice = bf16_image(&once);
        prop_assert_eq!(bits(&once), bits(&twice));
        // The top 16 bits shifted back up reproduce the snapped image
        // bit-for-bit, so 2-byte storage of lattice checkpoints is lossless.
        let unpacked: Vec<u32> = patterns.iter().map(|&p| (p >> 16) << 16).collect();
        prop_assert_eq!(unpacked, bits(&once));
    }

    #[test]
    fn scalar_and_slice_paths_agree(patterns in proptest::collection::vec(any::<u32>(), 33)) {
        let weights = from_bits(&patterns);
        let slice = bf16_image(&weights);
        for (i, &w) in weights.iter().enumerate() {
            prop_assert_eq!(slice[i].to_bits(), bf16_image(&[w])[0].to_bits());
            prop_assert_eq!(slice[i].to_bits(), w.to_bits() & 0xFFFF_0000);
        }
    }

    #[test]
    fn snapping_is_deterministic_across_thread_counts(
        patterns in proptest::collection::vec(any::<u32>(), 96),
    ) {
        let weights = from_bits(&patterns);
        // Serial reference.
        let mut reference = weights.clone();
        snap_to_bf16(&mut reference);
        // Chunked across executors of every width: same bytes, any schedule.
        for threads in [1usize, 2, 8] {
            let exec = Executor::new(threads);
            let chunks: Vec<&[f32]> = weights.chunks(17).collect();
            let snapped: Vec<Vec<f32>> =
                exec.run_indexed(chunks.len(), |i| bf16_image(chunks[i]));
            let flat: Vec<f32> = snapped.into_iter().flatten().collect();
            prop_assert_eq!(bits(&flat), bits(&reference), "threads = {}", threads);
        }
    }
}
