//! Failure injection: workers submitting numerically hostile payloads
//! (NaN / infinity / absurd magnitudes). Verified schemes must reject
//! them without poisoning the global model or panicking.

use rpol_repro::nn::data::SyntheticImages;
use rpol_repro::rpol::commitment::EpochCommitment;
use rpol_repro::rpol::tasks::TaskConfig;
use rpol_repro::rpol::trainer::epoch_segments;
use rpol_repro::rpol::verify::{ProofProvider, ProofUnavailable, VerificationOutcome, Verifier};
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

fn hostile_checkpoints(template: &[f32], poison: f32, segments: usize) -> Vec<Vec<f32>> {
    let mut checkpoints = vec![template.to_vec()];
    for j in 0..segments {
        let mut next = template.to_vec();
        // Poison a growing prefix so every segment output is hostile.
        for w in next.iter_mut().take(j + 1) {
            *w = poison;
        }
        checkpoints.push(next);
    }
    checkpoints
}

fn verify_hostile(poison: f32) {
    let cfg = TaskConfig::tiny();
    let data = SyntheticImages::generate(&cfg.spec, 48, &mut Pcg32::seed_from(0xF00));
    let global = cfg.build_model().flatten_params();
    let segments = epoch_segments(6, cfg.checkpoint_interval);
    let forged = hostile_checkpoints(&global, poison, segments.len());
    let commitment = EpochCommitment::commit_v1(&forged);
    let mut scratch = cfg.build_model();
    let mut verifier = Verifier::new(
        &cfg,
        &data,
        3,
        0.05,
        None,
        NoiseInjector::new(GpuModel::G3090, 1),
    );
    let samples: Vec<usize> = (0..segments.len()).collect();
    let verdict = verifier.verify_samples(
        &mut scratch,
        &commitment,
        &segments,
        &samples,
        &VecProvider(forged),
    );
    assert!(
        !verdict.all_accepted(),
        "hostile payload {poison} must not verify"
    );
    // Every sampled segment whose claimed output is poisoned is rejected.
    for (j, outcome) in &verdict.outcomes {
        assert!(
            !matches!(outcome, VerificationOutcome::Accepted { .. }),
            "segment {j} accepted a {poison} payload"
        );
    }
}

#[test]
fn nan_checkpoints_rejected_without_panic() {
    verify_hostile(f32::NAN);
}

#[test]
fn infinite_checkpoints_rejected_without_panic() {
    verify_hostile(f32::INFINITY);
}

#[test]
fn huge_checkpoints_rejected_without_panic() {
    verify_hostile(1e30);
}

#[test]
fn hostile_submissions_never_reach_the_global_model() {
    use rpol_repro::rpol::adversary::WorkerBehavior;
    use rpol_repro::rpol::pool::{MiningPool, PoolConfig, Scheme};

    // The spoofer's extrapolations are finite here, but the invariant this
    // guards is general: rejected submissions never touch the global
    // model, so whatever garbage a cheater produces, the aggregated
    // weights stay finite.
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv2);
    config.epochs = 3;
    let mut pool = MiningPool::new(
        config,
        vec![
            WorkerBehavior::Honest,
            WorkerBehavior::PartialSpoof {
                honest_fraction: 0.0,
                lambda: 1.0,
            },
        ],
    );
    let report = pool.run();
    assert_eq!(report.rejections(), 3);
    assert!(pool
        .manager()
        .global_weights()
        .iter()
        .all(|w| w.is_finite()));
}

/// Shape-hostile submissions handed to the manager in process: whatever a
/// delivered submission looks like, the worker is rejected before anything
/// indexes it — never a panic, never a truncated aggregate.
mod shapes {
    use rpol_repro::crypto::Address;
    use rpol_repro::nn::data::SyntheticImages;
    use rpol_repro::rpol::adversary::WorkerBehavior;
    use rpol_repro::rpol::commitment::EpochCommitment;
    use rpol_repro::rpol::manager::{EpochReport, PoolManager};
    use rpol_repro::rpol::pool::Scheme;
    use rpol_repro::rpol::tasks::TaskConfig;
    use rpol_repro::rpol::verify::{RejectReason, VerificationOutcome};
    use rpol_repro::rpol::worker::{EpochSubmission, PoolWorker};
    use rpol_repro::sim::gpu::GpuModel;
    use rpol_repro::tensor::rng::Pcg32;

    const STEPS: usize = 6;

    /// One epoch of a two-worker pool where `doctor` rewrites worker 1's
    /// honest submission before the manager sees it. Returns the report
    /// and the global model before and after.
    fn epoch_with(
        scheme: Scheme,
        doctor: impl FnOnce(&mut EpochSubmission),
    ) -> (EpochReport, Vec<f32>, Vec<f32>) {
        let cfg = TaskConfig::tiny();
        let address = Address::from_seed(1);
        let data = SyntheticImages::generate(&cfg.spec, 96, &mut Pcg32::seed_from(4));
        let mut shards = data.shard(3);
        let manager_shard = shards.pop().expect("manager shard");
        let mut workers: Vec<PoolWorker> = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let honest = WorkerBehavior::Honest;
                PoolWorker::new(i, &cfg, &address, shard, GpuModel::GA10, honest)
            })
            .collect();
        let mut manager = PoolManager::new(cfg, scheme, address, manager_shard, 2, STEPS, 99);
        let before = manager.global_weights().to_vec();
        let plan = manager.begin_epoch(workers.len(), 0);
        let mut submissions: Vec<EpochSubmission> = workers
            .iter_mut()
            .enumerate()
            .map(|(w, worker)| {
                let (nonce, mode) = (plan.nonces[w], plan.commit_mode());
                worker.run_epoch(&cfg, &before, nonce, plan.steps, 0, mode)
            })
            .collect();
        doctor(&mut submissions[1]);
        let report = manager.finish_epoch(&workers, &plan, &submissions);
        (report, before, manager.global_weights().to_vec())
    }

    /// Worker 1 is rejected for `reason`, at no cost; worker 0 is accepted
    /// and the aggregate is exactly what worker 0 alone produces.
    fn assert_rejected_alone(
        scheme: Scheme,
        doctor: impl FnOnce(&mut EpochSubmission),
        reason: RejectReason,
    ) {
        let (report, before, after) = epoch_with(scheme, doctor);
        assert_eq!(
            (&report.accepted, &report.rejected),
            (&vec![0], &vec![1]),
            "{scheme}"
        );
        let (_, verdict) = &report.verdicts[1];
        assert_eq!(verdict.outcomes.len(), 1, "{scheme}: {verdict:?}");
        assert_eq!(
            verdict.outcomes[0].1,
            VerificationOutcome::Rejected(reason),
            "{scheme}"
        );
        assert_eq!(
            (verdict.proof_bytes, verdict.replayed_steps),
            (0, 0),
            "{scheme}"
        );
        let (alone, _, expected) = epoch_with(scheme, |_| {});
        assert_eq!(alone.accepted, vec![0, 1]);
        assert_eq!(after.len(), before.len());
        assert_ne!(after, before, "{scheme}: worker 0's update must land");
        assert_ne!(after, expected, "{scheme}: worker 1's update must not");
    }

    const VERIFIED: [Scheme; 3] = [Scheme::RPoLv1, Scheme::RPoLv2, Scheme::RPoLv3];

    #[test]
    fn a_submission_without_a_commitment_is_rejected_not_unwrapped() {
        for scheme in VERIFIED {
            assert_rejected_alone(
                scheme,
                |sub| sub.commitment = None,
                RejectReason::InputCommitmentMismatch,
            );
        }
    }

    #[test]
    fn a_commitment_of_the_wrong_length_is_rejected_not_indexed() {
        for scheme in VERIFIED {
            for keep in [1usize, 2] {
                // A v1 commitment over fewer checkpoints than the epoch has
                // — and so, under v2/v3, also one of the wrong kind.
                let short = |sub: &mut EpochSubmission| {
                    let stub = vec![sub.final_weights.clone(); keep];
                    sub.commitment = Some(EpochCommitment::commit_v1(&stub));
                };
                assert_rejected_alone(scheme, short, RejectReason::InputCommitmentMismatch);
            }
        }
    }

    #[test]
    fn a_commitment_of_another_scheme_is_rejected_not_dispatched_on() {
        // Right length, wrong kind: v1's hash list where an LSH commitment
        // is due (the verifier would have taken the v1 path), and an LSH
        // commitment where no family exists (it would have panicked).
        let (v2, _, _) = epoch_with(Scheme::RPoLv2, |_| {});
        assert_eq!(v2.accepted, vec![0, 1]);
        let as_v1 = |sub: &mut EpochSubmission| {
            let n = sub.commitment.as_ref().expect("committed").len();
            sub.commitment = Some(EpochCommitment::commit_v1(&vec![
                sub.final_weights.clone();
                n
            ]));
        };
        assert_rejected_alone(Scheme::RPoLv2, as_v1, RejectReason::InputCommitmentMismatch);
        assert_rejected_alone(Scheme::RPoLv3, as_v1, RejectReason::InputCommitmentMismatch);
        let as_v2 = |sub: &mut EpochSubmission| {
            use rpol_repro::lsh::{LshFamily, LshParams};
            let n = sub.commitment.as_ref().expect("committed").len();
            let family = LshFamily::new(sub.final_weights.len(), LshParams::new(1.0, 4, 4), 7);
            let stub = vec![sub.final_weights.clone(); n];
            sub.commitment = Some(EpochCommitment::commit_v2(&stub, &family));
        };
        assert_rejected_alone(Scheme::RPoLv1, as_v2, RejectReason::InputCommitmentMismatch);
    }

    #[test]
    fn final_weights_of_the_wrong_length_are_rejected_not_zip_truncated() {
        for scheme in VERIFIED {
            assert_rejected_alone(
                scheme,
                |sub| sub.final_weights.truncate(10),
                RejectReason::MalformedWeights,
            );
            assert_rejected_alone(
                scheme,
                |sub| sub.final_weights.push(0.0),
                RejectReason::MalformedWeights,
            );
        }
        // The baseline has no verdicts to carry a reason; the vector still
        // must not be folded into the aggregate.
        let (report, before, after) =
            epoch_with(Scheme::Baseline, |sub| sub.final_weights.truncate(10));
        assert_eq!((report.accepted, report.rejected), (vec![0], vec![1]));
        assert!(report.verdicts.is_empty());
        assert_eq!(after.len(), before.len());
        assert_ne!(after, before);
    }

    #[test]
    fn non_finite_final_weights_are_rejected_before_they_are_aggregated() {
        for scheme in VERIFIED {
            assert_rejected_alone(
                scheme,
                |sub| sub.final_weights[3] = f32::NAN,
                RejectReason::MalformedWeights,
            );
        }
    }
}
