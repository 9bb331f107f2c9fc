//! Security-focused integration tests: every attack the paper's threat
//! model (§III-B) names, exercised against the full protocol stack.

use rpol_repro::crypto::Address;
use rpol_repro::nn::data::SyntheticImages;
use rpol_repro::rpol::adversary::{replace_amlayer, spoof_next_checkpoint, WorkerBehavior};
use rpol_repro::rpol::commitment::EpochCommitment;
use rpol_repro::rpol::tasks::TaskConfig;
use rpol_repro::rpol::trainer::LocalTrainer;
use rpol_repro::rpol::verify::{
    ProofProvider, ProofUnavailable, RejectReason, VerificationOutcome, Verifier,
};
use rpol_repro::rpol::worker::{CommitMode, PoolWorker};
use rpol_repro::sim::gpu::{GpuModel, NoiseInjector};
use rpol_repro::tensor::rng::Pcg32;

struct VecProvider(Vec<Vec<f32>>);

impl ProofProvider for VecProvider {
    fn open_checkpoint(
        &self,
        index: usize,
    ) -> Result<std::borrow::Cow<'_, [f32]>, ProofUnavailable> {
        Ok(std::borrow::Cow::Borrowed(&self.0[index]))
    }
}

fn setup() -> (TaskConfig, SyntheticImages, Vec<f32>) {
    let cfg = TaskConfig::tiny();
    let data = SyntheticImages::generate(&cfg.spec, 48, &mut Pcg32::seed_from(0xA7));
    let global = cfg.build_model().flatten_params();
    (cfg, data, global)
}

/// A cheater who trains honestly but tries to *reuse last epoch's*
/// checkpoints for this epoch's commitment. The nonce-keyed deterministic
/// batches make the replayed trajectory diverge, so verification fails.
#[test]
fn stale_checkpoint_replay_attack_rejected() {
    let (cfg, data, global) = setup();
    // Epoch 1 (nonce 111): train honestly, keep the checkpoints.
    let mut model = cfg.build_model();
    model.load_params(&global);
    let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 1));
    let old_trace = trainer.run_epoch(&mut model, 111, 6);

    // Epoch 2 (nonce 222): submit the epoch-1 checkpoints verbatim.
    let commitment = EpochCommitment::commit_v1(&old_trace.checkpoints);
    let mut scratch = cfg.build_model();
    let mut verifier = Verifier::new(
        &cfg,
        &data,
        222, // the manager replays with the *new* nonce
        0.05,
        None,
        NoiseInjector::new(GpuModel::G3090, 2),
    );
    let verdict = verifier.verify_samples(
        &mut scratch,
        &commitment,
        &old_trace.segments,
        &[0, 1, 2],
        &VecProvider(old_trace.checkpoints.clone()),
    );
    assert!(
        !verdict.all_accepted(),
        "stale-checkpoint replay must fail under a fresh nonce"
    );
}

/// Equivocation: committing to one sequence and opening another.
#[test]
fn equivocating_openings_rejected() {
    let (cfg, data, global) = setup();
    let mut model = cfg.build_model();
    model.load_params(&global);
    let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 3));
    let trace = trainer.run_epoch(&mut model, 7, 6);
    let commitment = EpochCommitment::commit_v1(&trace.checkpoints);

    // Open a *different* (also honestly-produced!) sequence.
    let mut model2 = cfg.build_model();
    model2.load_params(&global);
    let mut trainer2 = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 4));
    let other = trainer2.run_epoch(&mut model2, 7, 6);

    let mut scratch = cfg.build_model();
    let mut verifier = Verifier::new(
        &cfg,
        &data,
        7,
        0.05,
        None,
        NoiseInjector::new(GpuModel::G3090, 5),
    );
    let verdict = verifier.verify_samples(
        &mut scratch,
        &commitment,
        &trace.segments,
        &[1],
        &VecProvider(other.checkpoints.clone()),
    );
    assert!(matches!(
        verdict.outcomes[0].1,
        VerificationOutcome::Rejected(RejectReason::InputCommitmentMismatch)
    ));
}

/// The Eq. 12 spoof caught on the spoofed region but not the honest one.
#[test]
fn partial_spoof_caught_exactly_on_spoofed_segments() {
    let (cfg, data, _global) = setup();
    let manager = Address::from_seed(1);
    let mut worker = PoolWorker::new(
        0,
        &cfg,
        &manager,
        data.clone(),
        GpuModel::GA10,
        WorkerBehavior::PartialSpoof {
            honest_fraction: 0.5,
            lambda: 0.5,
        },
    );
    let encoded_global = cfg.build_encoded_model(&manager).flatten_params();
    // 8 steps, interval 2 → 4 segments: 2 honest then 2 spoofed.
    worker.run_epoch(&cfg, &encoded_global, 5, 8, 0, CommitMode::V1);
    let commitment = EpochCommitment::commit_v1(
        &(0..=4)
            .map(|j| worker.open_checkpoint(j).expect("local").into_owned())
            .collect::<Vec<_>>(),
    );

    let mut scratch = cfg.build_encoded_model(&manager);
    let mut verifier = Verifier::new(
        &cfg,
        &data,
        5,
        0.05,
        None,
        NoiseInjector::new(GpuModel::G3090, 6),
    );
    let verdict = verifier.verify_samples(
        &mut scratch,
        &commitment,
        worker.segments(),
        &[0, 1, 2, 3],
        &worker,
    );
    let accepted: Vec<bool> = verdict
        .outcomes
        .iter()
        .map(|(_, o)| matches!(o, VerificationOutcome::Accepted { .. }))
        .collect();
    assert!(accepted[0], "honest segment 0 must pass");
    assert!(accepted[1], "honest segment 1 must pass");
    assert!(!accepted[2], "spoofed segment 2 must fail");
    assert!(!accepted[3], "spoofed segment 3 must fail");
}

/// Address-replacing attack across the whole stack: ownership flips but
/// the judge can still detect the theft economically (accuracy collapse is
/// covered in Table I; here we check the pure crypto path).
#[test]
fn address_replacement_detected_by_owner_checks() {
    let cfg = TaskConfig::tiny();
    let owner = Address::from_seed(10);
    let thief = Address::from_seed(20);
    let weights = cfg.build_encoded_model(&owner).flatten_params();
    assert!(cfg.verify_model_owner(&weights, &owner, cfg.lipschitz_c));

    let forged = replace_amlayer(&cfg, &weights, &thief);
    // Ownership moved to the thief — consensus pays the thief only if the
    // forged model also *wins*, which the accuracy collapse prevents.
    assert!(cfg.verify_model_owner(&forged, &thief, cfg.lipschitz_c));
    assert!(!cfg.verify_model_owner(&forged, &owner, cfg.lipschitz_c));
    // And the original owner's claim over the forged weights fails too,
    // so the thief cannot frame the owner.
    assert_ne!(forged, weights);
}

/// Spoofing from a standing start (no honest checkpoints at all).
#[test]
fn cold_spoof_is_distance_rejected() {
    let (cfg, data, global) = setup();
    // Forge an entire epoch by extrapolating from the global alone.
    let segments = rpol_repro::rpol::trainer::epoch_segments(6, cfg.checkpoint_interval);
    let mut forged = vec![global.clone()];
    for _ in 0..segments.len() {
        forged.push(spoof_next_checkpoint(&forged, 0.5));
    }
    let commitment = EpochCommitment::commit_v1(&forged);
    let mut scratch = cfg.build_model();
    let mut verifier = Verifier::new(
        &cfg,
        &data,
        13,
        0.05,
        None,
        NoiseInjector::new(GpuModel::G3090, 8),
    );
    let verdict = verifier.verify_samples(
        &mut scratch,
        &commitment,
        &segments,
        &[0],
        &VecProvider(forged),
    );
    assert!(matches!(
        verdict.outcomes[0].1,
        VerificationOutcome::Rejected(RejectReason::DistanceExceeded { .. })
    ));
}

/// The two cheats no sampled segment can catch: every step of their
/// committed trajectory is honest training. What convicts them is that the
/// trajectory does not *start* at the model the manager broadcast
/// (`ForeignStart`) or does not *end* at the model they submit for
/// aggregation (`SwapFinal`).
mod endpoint_binding {
    use rpol_repro::rpol::adversary::WorkerBehavior;
    use rpol_repro::rpol::pool::{MiningPool, PoolConfig, PoolReport, Scheme};
    use rpol_repro::rpol::transport::FaultConfig;
    use rpol_repro::rpol::verify::{RejectReason, VerificationOutcome};
    use std::collections::BTreeSet;

    const VERIFIED: [Scheme; 3] = [Scheme::RPoLv1, Scheme::RPoLv2, Scheme::RPoLv3];
    const SEEDS: [u64; 3] = [0xD00D, 0xBEEF, 0x5EED];
    /// Three segments per epoch, one sampled: an epoch can sample the
    /// first, the last, or neither end of the trajectory.
    const SEGMENTS: usize = 3;
    const SWAPPER: usize = 1;
    const SQUATTER: usize = 2;

    fn roster() -> Vec<WorkerBehavior> {
        vec![
            WorkerBehavior::Honest,
            WorkerBehavior::SwapFinal,
            WorkerBehavior::ForeignStart,
            WorkerBehavior::Honest,
        ]
    }

    fn config(scheme: Scheme, seed: u64, fault: Option<FaultConfig>) -> PoolConfig {
        let mut cfg = PoolConfig::tiny_demo(scheme);
        cfg.epochs = 3;
        cfg.steps_per_epoch = SEGMENTS * cfg.task.checkpoint_interval;
        cfg.q_samples = 1;
        cfg.seed = seed;
        cfg.fault = fault;
        cfg
    }

    /// The segment the manager samples for `worker` in each epoch. The
    /// schedule is drawn from the pool seed before anything trains, so an
    /// all-honest pool of the same seed shows it in its verdicts.
    fn sampled_segments(scheme: Scheme, seed: u64, worker: usize) -> Vec<usize> {
        let twin = MiningPool::new(
            config(scheme, seed, None),
            vec![WorkerBehavior::Honest; roster().len()],
        )
        .run();
        assert_eq!(twin.rejections(), 0, "{scheme}: honest twin convicted");
        twin.epochs
            .iter()
            .map(|e| e.report.verdicts[worker].1.outcomes[0].0)
            .collect()
    }

    fn assert_both_convicted_everywhere(report: &PoolReport, at: &str) {
        for (e, record) in report.epochs.iter().enumerate() {
            let r = &record.report;
            assert_eq!(r.accepted, vec![0, 3], "{at} epoch {e}: honest peers");
            assert_eq!(r.rejected, vec![SWAPPER, SQUATTER], "{at} epoch {e}");
            assert!(r.quarantined.is_empty(), "{at} epoch {e}: {r:?}");
            let reason = |w: usize| r.verdicts[w].1.outcomes[0].1;
            assert_eq!(
                reason(SWAPPER),
                VerificationOutcome::Rejected(RejectReason::OutputCommitmentMismatch),
                "{at} epoch {e}"
            );
            assert_eq!(
                reason(SQUATTER),
                VerificationOutcome::Rejected(RejectReason::InputCommitmentMismatch),
                "{at} epoch {e}"
            );
            for w in [SWAPPER, SQUATTER] {
                let verdict = &r.verdicts[w].1;
                assert_eq!((verdict.proof_bytes, verdict.replayed_steps), (0, 0));
            }
        }
    }

    #[test]
    fn swapped_final_and_foreign_start_are_rejected_in_every_epoch_at_every_sampled_index() {
        for scheme in VERIFIED {
            let mut sampled: [BTreeSet<usize>; 2] = Default::default();
            for seed in SEEDS {
                for (cheat, seen) in [SWAPPER, SQUATTER].into_iter().zip(&mut sampled) {
                    seen.extend(sampled_segments(scheme, seed, cheat));
                }
                let sources = [
                    ("direct", None),
                    ("ideal link", Some(FaultConfig::ideal(seed))),
                    ("lossy link", Some(FaultConfig::lossy(seed))),
                ];
                for (source, fault) in sources {
                    let at = format!("{scheme}/{source}/seed {seed:#x}");
                    let report = MiningPool::new(config(scheme, seed, fault), roster()).run();
                    assert_both_convicted_everywhere(&report, &at);
                    if source == "lossy link" {
                        let retries = report.transport_totals().retries;
                        assert!(retries > 0, "{at}: the link lost nothing");
                    }
                }
            }
            // Vacuity guard: between them the seeds put the one sample on
            // every segment, for both cheats.
            let all: BTreeSet<usize> = (0..SEGMENTS).collect();
            assert_eq!(sampled, [all.clone(), all], "{scheme}: sampled segments");
        }
    }

    /// Before the manager bound `commitment[last]` to the submitted
    /// weights this worker was **accepted in every epoch** — also in the
    /// epochs whose sample was the last segment, because the verifier
    /// compared its replay with the committed (honest) output, never with
    /// what was aggregated.
    #[test]
    fn swapped_final_model_is_rejected_even_when_the_last_segment_is_not_sampled() {
        for scheme in VERIFIED {
            let mut last_sampled = 0;
            let mut last_unsampled = 0;
            for seed in SEEDS {
                let report = MiningPool::new(config(scheme, seed, None), roster()).run();
                let sampled = sampled_segments(scheme, seed, SWAPPER);
                for (record, segment) in report.epochs.iter().zip(sampled) {
                    assert!(
                        record.report.rejected.contains(&SWAPPER),
                        "{scheme}/seed {seed:#x}: sampled segment {segment}, swapper accepted"
                    );
                    if segment + 1 == SEGMENTS {
                        last_sampled += 1;
                    } else {
                        last_unsampled += 1;
                    }
                }
            }
            assert!(last_sampled > 0 && last_unsampled > 0, "{scheme}: vacuous");
        }
    }

    /// A poisoned model never reaches the aggregate: a pool with the two
    /// cheats learns exactly what the same pool learns with two free-riders
    /// (rejected in every epoch too) in their seats.
    #[test]
    fn the_cheats_contribute_nothing_to_the_global_model() {
        for scheme in VERIFIED {
            let cheated = MiningPool::new(config(scheme, SEEDS[0], None), roster()).run();
            let mut replayers = roster();
            replayers[SWAPPER] = WorkerBehavior::ReplayPrevious;
            replayers[SQUATTER] = WorkerBehavior::ReplayPrevious;
            let reference = MiningPool::new(config(scheme, SEEDS[0], None), replayers).run();
            assert_eq!(reference.acceptances(), cheated.acceptances());
            let bits = |r: &PoolReport| -> Vec<u32> {
                r.epochs.iter().map(|e| e.test_accuracy.to_bits()).collect()
            };
            assert_eq!(bits(&cheated), bits(&reference), "{scheme}");
        }
    }
}
