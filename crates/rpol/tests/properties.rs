//! Property-based tests for RPoL's protocol invariants.

use proptest::prelude::*;
use rpol::adversary::spoof_next_checkpoint;
use rpol::amlayer::{AmLayer, AmLayerSpec};
use rpol::commitment::EpochCommitment;
use rpol::economics::EconomicModel;
use rpol::sampling::{evasion_probability, samples_for_soundness};
use rpol::tasks::TaskConfig;
use rpol::trainer::epoch_segments;
use rpol_crypto::Address;
use rpol_lsh::{LshFamily, LshParams};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn segments_partition_every_epoch(total in 1usize..200, interval in 1usize..20) {
        let segs = epoch_segments(total, interval);
        prop_assert_eq!(segs[0].start_step, 0);
        let mut expected_start = 0;
        for s in &segs {
            prop_assert_eq!(s.start_step, expected_start);
            prop_assert!(s.steps >= 1 && s.steps <= interval);
            expected_start += s.steps;
        }
        prop_assert_eq!(expected_start, total);
    }

    #[test]
    fn amlayer_weights_deterministic_per_address(seed in any::<u64>(), c in 0.05f32..0.95) {
        let spec = AmLayerSpec::for_channels(2);
        let addr = Address::from_seed(seed);
        let w1 = AmLayer::derive_weight_stack(&addr, spec, c);
        let w2 = AmLayer::derive_weight_stack(&addr, spec, c);
        prop_assert_eq!(&w1, &w2);
        let other = AmLayer::derive_weight_stack(&Address::from_seed(seed ^ 1), spec, c);
        prop_assert_ne!(w1, other);
    }

    #[test]
    fn amlayer_prefix_verification_sound(seed in any::<u64>()) {
        let cfg = TaskConfig::tiny();
        let owner = Address::from_seed(seed);
        let flat = cfg.build_encoded_model(&owner).flatten_params();
        prop_assert!(cfg.verify_model_owner(&flat, &owner, cfg.lipschitz_c));
        prop_assert!(!cfg.verify_model_owner(&flat, &Address::from_seed(seed ^ 0xFF), cfg.lipschitz_c));
    }

    #[test]
    fn commitments_bind_all_checkpoints(
        n in 2usize..8, dim in 4usize..32, seed in any::<u64>(), tamper in 0usize..8
    ) {
        let tamper = tamper % n;
        let checkpoints: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..dim).map(|j| ((seed as usize + i * dim + j) % 97) as f32 * 0.1).collect())
            .collect();
        let v1 = EpochCommitment::commit_v1(&checkpoints);
        let family = LshFamily::new(dim, LshParams::new(0.5, 2, 2), seed);
        let v2 = EpochCommitment::commit_v2(&checkpoints, &family);
        prop_assert_eq!(v1.len(), n);
        prop_assert_eq!(v2.len(), n);
        let mut tampered = checkpoints.clone();
        tampered[tamper][0] += 100.0;
        prop_assert_ne!(v1, EpochCommitment::commit_v1(&tampered));
        prop_assert_ne!(v2, EpochCommitment::commit_v2(&tampered, &family));
    }

    #[test]
    fn evasion_probability_behaves(
        q in 1u32..60, h in 0.0f64..1.0, p in 0.0f64..1.0
    ) {
        let e = evasion_probability(q, h, p);
        prop_assert!((0.0..=1.0).contains(&e));
        if q > 1 {
            prop_assert!(e <= evasion_probability(q - 1, h, p) + 1e-12);
        }
    }

    #[test]
    fn soundness_bound_is_achieved(
        pr_err_pct in 1u32..50, h in 0.0f64..0.99, p in 0.0f64..0.5
    ) {
        let pr_err = pr_err_pct as f64 / 100.0;
        if let Some(q) = samples_for_soundness(pr_err, h, p) {
            prop_assert!(evasion_probability(q, h, p) <= pr_err + 1e-12);
            if q > 1 {
                // q is minimal.
                prop_assert!(evasion_probability(q - 1, h, p) > pr_err - 1e-12);
            }
        }
    }

    #[test]
    fn deterrence_q_actually_deters(h in 0.0f64..0.99) {
        let m = EconomicModel::paper_example();
        let q = m.samples_to_deter(h);
        if q != u32::MAX {
            prop_assert!(m.adversary_gain(h, q) <= 1e-9, "q = {q} fails at h = {h}");
        }
    }

    #[test]
    fn spoof_preserves_dimension_and_is_deterministic(
        dims in 1usize..16, n in 1usize..6, lambda in 0.0f32..1.0
    ) {
        let history: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..dims).map(|j| (i * dims + j) as f32 * 0.5).collect())
            .collect();
        let a = spoof_next_checkpoint(&history, lambda);
        let b = spoof_next_checkpoint(&history, lambda);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), dims);
        prop_assert!(a.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn lsh_commitment_wire_size_scales_with_l(
        n in 1usize..6, l in 1usize..8
    ) {
        let dim = 8;
        let checkpoints: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32; dim]).collect();
        let family = LshFamily::new(dim, LshParams::new(1.0, 2, l), 3);
        let c = EpochCommitment::commit_v2(&checkpoints, &family);
        prop_assert_eq!(c.wire_size(), n * l * 32);
    }
}
