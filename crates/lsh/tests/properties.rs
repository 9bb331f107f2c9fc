//! Property-based tests for the LSH crate.

use proptest::prelude::*;
use rpol_lsh::probability::matching_probability;
use rpol_lsh::tuning::{tune, TuningConfig};
use rpol_lsh::{LshFamily, LshParams, Signature};

/// The per-hash collision probability `p(c, r)`: a family of one hash.
fn collision_probability(c: f64, r: f64) -> f64 {
    matching_probability(c, r, 1, 1)
}

proptest! {
    #[test]
    fn collision_probability_is_a_probability(c in 0.0f64..1e6, r in 0.0f64..1e3) {
        let p = collision_probability(c, r);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn collision_monotone_decreasing_in_distance(
        c in 0.0f64..100.0, dc in 0.0f64..100.0, r in 0.01f64..100.0
    ) {
        prop_assert!(
            collision_probability(c + dc, r) <= collision_probability(c, r) + 1e-12
        );
    }

    #[test]
    fn collision_monotone_increasing_in_width(
        c in 0.01f64..100.0, r in 0.01f64..100.0, dr in 0.0f64..100.0
    ) {
        prop_assert!(
            collision_probability(c, r + dr) + 1e-12 >= collision_probability(c, r)
        );
    }

    #[test]
    fn matching_probability_amplification_bounds(
        c in 0.01f64..50.0, r in 0.01f64..50.0, k in 1usize..8, l in 1usize..8
    ) {
        let p = collision_probability(c, r);
        let m = matching_probability(c, r, k, l);
        prop_assert!((0.0..=1.0).contains(&m));
        // OR over l of AND over k: bounded by union bound and single-group.
        prop_assert!(m <= (l as f64) * p.powi(k as i32) + 1e-9);
        prop_assert!(m + 1e-12 >= p.powi(k as i32));
    }

    #[test]
    fn family_generation_deterministic(dim in 1usize..64, seed in any::<u64>()) {
        let params = LshParams::new(1.0, 2, 3);
        let a = LshFamily::new(dim, params, seed);
        let b = LshFamily::new(dim, params, seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn hashing_identical_inputs_matches(
        xs in proptest::collection::vec(-10.0f32..10.0, 1..64),
        seed in any::<u64>()
    ) {
        let family = LshFamily::new(xs.len(), LshParams::new(2.0, 3, 3), seed);
        let s1 = family.hash(&xs);
        let s2 = family.hash(&xs);
        prop_assert_eq!(&s1, &s2);
        prop_assert!(s1.matches(&s2));
        prop_assert!(s1.matches_digests(&s2.group_digests()));
    }

    #[test]
    fn matching_is_symmetric(
        xs in proptest::collection::vec(-5.0f32..5.0, 8),
        ys in proptest::collection::vec(-5.0f32..5.0, 8),
        seed in any::<u64>()
    ) {
        let family = LshFamily::new(8, LshParams::new(1.0, 2, 4), seed);
        let sx = family.hash(&xs);
        let sy = family.hash(&ys);
        prop_assert_eq!(sx.matches(&sy), sy.matches(&sx));
        prop_assert_eq!(sx.matches(&sy), sy.matches_digests(&sx.group_digests()));
    }

    /// The lane-split hash must equal the scalar reference oracle
    /// *bitwise* — same bucket IDs for every hash function — for random
    /// weights and family parameters, at every lane count (1, 2, 3 and 8),
    /// whatever row a lane starts in.
    #[test]
    fn lane_split_digests_match_scalar_bitwise(
        dim in 1usize..96,
        n_inputs in 1usize..12,
        k in 1usize..5,
        l in 1usize..5,
        r in 0.5f32..8.0,
        seed in any::<u64>()
    ) {
        let family = LshFamily::new(dim, LshParams::new(r, k, l), seed);
        let mut rng = rpol_tensor::rng::Pcg32::seed_from(seed ^ 0x5eed);
        let inputs: Vec<Vec<f32>> = (0..n_inputs)
            .map(|_| (0..dim).map(|_| rng.next_normal() * 3.0).collect())
            .collect();
        let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
        let scalar: Vec<_> = refs.iter().map(|x| family.hash_scalar(x)).collect();
        for threads in [1usize, 2, 3, 8] {
            let batched = family.hash_batch_threads(&refs, threads);
            prop_assert_eq!(&batched, &scalar, "threads = {}", threads);
        }
        for (x, want) in refs.iter().zip(&scalar) {
            prop_assert_eq!(&family.hash(x), want);
        }
    }

    #[test]
    fn signature_digest_deterministic(groups in proptest::collection::vec(
        proptest::collection::vec(-1000i64..1000, 3), 1..6
    )) {
        let a = Signature::new(groups.clone());
        let b = Signature::new(groups);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.group_digests(), b.group_digests());
    }

    #[test]
    fn tuner_respects_budget_and_improves_on_trivial(
        alpha in 0.01f64..10.0, ratio in 1.5f64..20.0, budget in 2usize..32
    ) {
        let beta = alpha * ratio;
        let out = tune(&TuningConfig::new(alpha, beta).with_budget(budget));
        prop_assert!(out.params.total_hashes() <= budget);
        prop_assert!(out.pr_alpha >= out.pr_beta, "no inversion");
        // Scores sane probabilities.
        prop_assert!((0.0..=1.0).contains(&out.pr_alpha));
        prop_assert!((0.0..=1.0).contains(&out.pr_beta));
    }
}
