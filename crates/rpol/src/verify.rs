//! Sampled replay verification with LSH fuzzy matching and the
//! double-check fallback (§V-B verification, §V-C optimization).
//!
//! RPoLv3 adds a two-tier accept rule over the quantized commitment: the
//! replayed (and lattice-snapped) weights' LSH signature is compared
//! group-by-group against the committed entry, and the **count** of
//! agreeing groups decides. Two or more agreeing groups is a confident
//! accept; one agreeing group is a *borderline* match that routes through
//! the raw-weight escape hatch (fetch the output, bind it exactly via the
//! packed-image digest, distance-check); zero is the ordinary
//! double-check. Every path either tightens or equals RPoLv2's acceptance
//! region, so Theorem 2's soundness bound carries over unchanged.

use crate::commitment::EpochCommitment;
use crate::tasks::TaskConfig;
use crate::trainer::{LocalTrainer, Segment};
use crate::worker::CommitMode;
use rpol_crypto::commitment::Commitment as _;
use rpol_crypto::sha256::Digest;
use rpol_lsh::LshFamily;
use rpol_nn::data::SyntheticImages;
use rpol_nn::model::Sequential;
use rpol_obs::{event, span, Recorder};
use rpol_sim::gpu::NoiseInjector;
use rpol_tensor::scratch::ScratchArena;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A checkpoint opening could not be obtained: the link to the worker is
/// dead, the retry budget ran out, or the response failed to decode
/// permanently. This is a **transport** verdict, not a verification one —
/// the manager quarantines the worker for the epoch instead of flagging
/// it as a cheater.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProofUnavailable {
    /// The checkpoint index whose opening failed.
    pub index: usize,
}

impl std::fmt::Display for ProofUnavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint {} opening unavailable", self.index)
    }
}

impl std::error::Error for ProofUnavailable {}

/// Serves checkpoint openings on demand — implemented by pool workers.
///
/// Honest workers return their stored checkpoints; adversaries return
/// whatever they committed to (they cannot do better: the commitment binds
/// them before sampling decisions are revealed). Under the fault-injecting
/// transport a fetch can *fail* ([`ProofUnavailable`]): the worker crashed
/// or its link exhausted the retry budget. Local in-process providers are
/// infallible and always return `Ok`.
pub trait ProofProvider {
    /// The committed weights of checkpoint `index`.
    ///
    /// In-process providers that keep their checkpoints resident return a
    /// [`Cow::Borrowed`] view, so the hot replay loop never copies a
    /// weight vector it already holds; transport-backed providers decode
    /// into an owned buffer and return [`Cow::Owned`].
    ///
    /// # Errors
    ///
    /// [`ProofUnavailable`] when the opening cannot be fetched (dead or
    /// exhausted transport link) — never for a *wrong* opening, which is
    /// a verification failure, not a transport one.
    fn open_checkpoint(&self, index: usize) -> Result<Cow<'_, [f32]>, ProofUnavailable>;

    /// Whether `index` is served from a copy the verifying side already
    /// holds, so opening it moves no bytes. The manager's endpoint adapter
    /// answers `true` for both ends of the committed trajectory.
    fn held(&self, _index: usize) -> bool {
        false
    }

    /// An opening that was scheduled but never sent. Link-backed providers
    /// advance their per-opening `seq` exactly as a sent one would, so
    /// every exchange that still happens keeps its fault draws.
    fn skip_opening(&self) {}
}

/// Why a sampled checkpoint was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The opened input weights do not match the commitment.
    InputCommitmentMismatch,
    /// The opened output weights do not match the commitment.
    OutputCommitmentMismatch,
    /// Replayed weights are farther than `β` from the claimed output.
    DistanceExceeded {
        /// Measured Euclidean distance between replayed and claimed.
        distance: f32,
        /// The tolerance in force.
        beta: f32,
    },
    /// An opened checkpoint contained non-finite weights (NaN/∞) — a
    /// numerically hostile payload rejected before replay.
    MalformedWeights,
}

/// Outcome of verifying one sampled checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VerificationOutcome {
    /// The checkpoint verified.
    Accepted {
        /// Whether the raw-weight double-check was needed (RPoLv2 and
        /// RPoLv3: an LSH mismatch — under v3 also a single-group
        /// borderline match — rescued by the distance check).
        double_checked: bool,
    },
    /// The checkpoint failed verification.
    Rejected(RejectReason),
    /// The opening could not be fetched over the transport (dead link,
    /// retry budget exhausted). Neither an accept nor a cheating verdict:
    /// the worker is quarantined for the epoch, not rejected.
    Unavailable,
}

impl VerificationOutcome {
    /// Whether the checkpoint passed.
    pub fn is_accepted(&self) -> bool {
        matches!(self, VerificationOutcome::Accepted { .. })
    }
}

/// Outcome of verifying a single sampled segment, with the cost it
/// incurred. The unit the executor schedules: one worker's verification
/// decomposes into one `SampleVerdict` per sampled checkpoint, merged back
/// into a [`WorkerVerdict`] in sample-index order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleVerdict {
    /// The sampled checkpoint index.
    pub sample: usize,
    /// How the sample verified.
    pub outcome: VerificationOutcome,
    /// Proof bytes this sample required (raw weight openings).
    pub proof_bytes: u64,
    /// Training steps replayed for this sample.
    pub replayed_steps: u64,
    /// Openings this sample was served from copies the manager holds
    /// ([`ProofProvider::held`]) — scheduled, never sent, charged no bytes.
    pub openings_elided: u64,
}

/// Result of verifying all sampled checkpoints of one worker's epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerVerdict {
    /// Per-sample outcomes, in sample order.
    pub outcomes: Vec<(usize, VerificationOutcome)>,
    /// Bytes the worker had to upload for proofs (raw weight openings).
    pub proof_bytes: u64,
    /// Training steps the manager re-executed.
    pub replayed_steps: u64,
}

impl WorkerVerdict {
    /// Whether every sampled checkpoint verified (the worker is credited).
    pub fn all_accepted(&self) -> bool {
        self.outcomes.iter().all(|(_, o)| o.is_accepted())
    }

    /// Whether the verdict is really a transport failure: some sampled
    /// opening could not be fetched at all. Callers must treat this as
    /// "quarantine for the epoch", never as "caught cheating".
    pub fn transport_failed(&self) -> bool {
        self.outcomes
            .iter()
            .any(|(_, o)| matches!(o, VerificationOutcome::Unavailable))
    }

    /// Merges per-sample verdicts (in sample-index order) into a worker
    /// verdict, reproducing the serial early-stop contract: verdicts after
    /// the first [`VerificationOutcome::Unavailable`] are discarded, and
    /// their proof bytes and replayed steps are not counted — exactly what
    /// a serial verifier would have skipped against a dead link.
    pub fn from_samples(verdicts: impl IntoIterator<Item = SampleVerdict>) -> Self {
        Self::merge_samples(verdicts).0
    }

    /// [`from_samples`](Self::from_samples) plus the kept samples'
    /// [`SampleVerdict::openings_elided`] — beside the verdict, not in it:
    /// a verdict crosses the committee wire field for field.
    pub(crate) fn merge_samples(verdicts: impl IntoIterator<Item = SampleVerdict>) -> (Self, u64) {
        let mut outcomes = Vec::new();
        let mut proof_bytes = 0u64;
        let mut replayed_steps = 0u64;
        let mut openings_elided = 0u64;
        for v in verdicts {
            let stop = matches!(v.outcome, VerificationOutcome::Unavailable);
            proof_bytes += v.proof_bytes;
            replayed_steps += v.replayed_steps;
            openings_elided += v.openings_elided;
            outcomes.push((v.sample, v.outcome));
            if stop {
                break;
            }
        }
        let verdict = WorkerVerdict {
            outcomes,
            proof_bytes,
            replayed_steps,
        };
        (verdict, openings_elided)
    }

    /// Which end of the committed trajectory failed to bind a model the
    /// manager holds, when that is why the worker was rejected. A bind
    /// rejection is the only one that cost nothing: a sampled segment's
    /// rejection fetched its input or replayed it first.
    pub fn unbound_end(&self) -> Option<&'static str> {
        if self.proof_bytes != 0 || self.replayed_steps != 0 {
            return None;
        }
        match self.outcomes.first()?.1 {
            VerificationOutcome::Rejected(RejectReason::InputCommitmentMismatch) => Some("start"),
            VerificationOutcome::Rejected(_) => Some("final"),
            _ => None,
        }
    }

    /// Number of double-check fallbacks triggered.
    pub fn double_checks(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| {
                matches!(
                    o,
                    VerificationOutcome::Accepted {
                        double_checked: true
                    }
                )
            })
            .count()
    }
}

/// The manager-side verifier for one epoch of one worker.
///
/// Holds everything needed to replay: the task config, the worker's shard
/// and nonce, the distance tolerance `β`, and (for RPoLv2) the epoch's LSH
/// family.
pub struct Verifier<'a> {
    config: &'a TaskConfig,
    shard: &'a SyntheticImages,
    nonce: u64,
    beta: f32,
    /// LSH family for RPoLv2; `None` selects RPoLv1 raw verification.
    family: Option<&'a LshFamily>,
    noise: NoiseInjector,
    /// Weight-sized scratch buffers carried across the per-sample replay
    /// trainers, so verifying a whole sample set allocates the flatten
    /// staging buffers once instead of twice per training step.
    arena: ScratchArena,
    /// Observability handle (replay spans, double-check events). Defaults
    /// to the shared no-op recorder.
    rec: &'a Recorder,
}

impl<'a> Verifier<'a> {
    /// Creates a verifier.
    ///
    /// # Panics
    ///
    /// Panics unless `beta > 0`.
    pub fn new(
        config: &'a TaskConfig,
        shard: &'a SyntheticImages,
        nonce: u64,
        beta: f32,
        family: Option<&'a LshFamily>,
        noise: NoiseInjector,
    ) -> Self {
        assert!(beta.is_finite() && beta > 0.0, "beta must be positive");
        Self::with_arena(
            config,
            shard,
            nonce,
            beta,
            family,
            noise,
            ScratchArena::new(),
        )
    }

    /// Like [`new`], but seeded with an existing scratch arena, so a
    /// manager verifying many workers on one thread carries the warmed
    /// weight-sized buffers from verifier to verifier. Reclaim it with
    /// [`into_arena`].
    ///
    /// [`new`]: Verifier::new
    /// [`into_arena`]: Verifier::into_arena
    ///
    /// # Panics
    ///
    /// Panics unless `beta > 0`.
    pub fn with_arena(
        config: &'a TaskConfig,
        shard: &'a SyntheticImages,
        nonce: u64,
        beta: f32,
        family: Option<&'a LshFamily>,
        noise: NoiseInjector,
        arena: ScratchArena,
    ) -> Self {
        assert!(beta.is_finite() && beta > 0.0, "beta must be positive");
        Self {
            config,
            shard,
            nonce,
            beta,
            family,
            noise,
            arena,
            rec: rpol_obs::noop().as_ref(),
        }
    }

    /// Attaches an observability recorder: each replayed segment becomes a
    /// `rpol.verify.replay_segment` span, double-check fallbacks and
    /// transport-failed openings become events.
    pub fn with_recorder(mut self, rec: &'a Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Consumes the verifier, returning its scratch arena for reuse.
    pub fn into_arena(self) -> ScratchArena {
        self.arena
    }

    /// Verifies the sampled checkpoint indices of one worker.
    ///
    /// `segments[j]` transforms checkpoint `j` into checkpoint `j+1`;
    /// sample index `j` therefore refers to the segment between committed
    /// checkpoints `j` and `j+1`.
    ///
    /// # Panics
    ///
    /// Panics if a sample index has no successor checkpoint in the
    /// commitment (programming error in the sampler).
    pub fn verify_samples(
        &mut self,
        model: &mut Sequential,
        commitment: &EpochCommitment,
        segments: &[Segment],
        samples: &[usize],
        provider: &dyn ProofProvider,
    ) -> WorkerVerdict {
        WorkerVerdict::from_samples(
            self.verify_each(model, commitment, segments, samples, provider),
        )
    }

    /// [`verify_samples`](Verifier::verify_samples) before the merge: one
    /// [`SampleVerdict`] per sample, in order, ending with the first
    /// [`VerificationOutcome::Unavailable`] — a fetch failure means the
    /// link is dead or exhausted, later fetches would fail too.
    pub(crate) fn verify_each(
        &mut self,
        model: &mut Sequential,
        commitment: &EpochCommitment,
        segments: &[Segment],
        samples: &[usize],
        provider: &dyn ProofProvider,
    ) -> Vec<SampleVerdict> {
        let mut verdicts = Vec::with_capacity(samples.len());
        for &j in samples {
            let v = self.verify_sample(model, commitment, segments, j, provider);
            let stop = matches!(v.outcome, VerificationOutcome::Unavailable);
            verdicts.push(v);
            if stop {
                break;
            }
        }
        verdicts
    }

    /// Verifies a single sampled checkpoint index — the segment-granular
    /// unit the executor schedules independently. Behaves exactly like one
    /// iteration of [`verify_samples`]: same spans, events, byte
    /// accounting, and replay numerics. Sample outcomes are independent of
    /// each other (the replay noise stream is cloned per sample), so
    /// verdicts computed on different threads merge back losslessly via
    /// [`WorkerVerdict::from_samples`].
    ///
    /// [`verify_samples`]: Verifier::verify_samples
    ///
    /// # Panics
    ///
    /// Panics if `index` has no successor checkpoint in the commitment
    /// (programming error in the sampler).
    pub fn verify_sample(
        &mut self,
        model: &mut Sequential,
        commitment: &EpochCommitment,
        segments: &[Segment],
        index: usize,
        provider: &dyn ProofProvider,
    ) -> SampleVerdict {
        let j = index;
        assert!(j + 1 < commitment.len(), "sample {j} beyond commitment");
        // V3 openings travel as packed bf16 blocks (lattice checkpoints
        // round-trip losslessly), the others as 4 bytes per weight.
        let opening_bytes = |weights: &[f32]| match commitment {
            EpochCommitment::V3(_) => crate::wire::packed_block_len(weights) as u64,
            _ => (weights.len() * 4) as u64,
        };
        let rec = self.rec;
        let segment = segments[j];
        let _sample_span = span!(
            rec,
            "rpol.verify.replay_segment",
            sample = j,
            steps = segment.steps
        );
        // The sample's running tally; it reads `Unavailable` until a step
        // below decides otherwise, which is what a failed fetch returns.
        let mut tally = SampleVerdict {
            sample: j,
            outcome: VerificationOutcome::Unavailable,
            proof_bytes: 0,
            replayed_steps: 0,
            openings_elided: 0,
        };
        // One opening: bytes are charged only if it crossed the link — a
        // checkpoint the manager holds is scheduled, not sent.
        let open = |index: usize, tally: &mut SampleVerdict| {
            let weights = provider.open_checkpoint(index);
            match &weights {
                Ok(_) if provider.held(index) => tally.openings_elided += 1,
                Ok(opened) => tally.proof_bytes += opening_bytes(opened),
                Err(_) => event!(rec, "rpol.verify.unavailable", sample = j),
            }
            weights
        };
        let Ok(input) = open(j, &mut tally) else {
            return tally;
        };

        // Step 0: refuse numerically hostile payloads outright — a
        // NaN/∞ checkpoint would otherwise poison the replay. Under
        // RPoLv3 an opened checkpoint must additionally sit *on* the bf16
        // lattice: the protocol trains on lattice points, and lattice
        // membership is what upgrades the packed-image digest to an exact
        // binding (off-lattice weights could share an image).
        if !well_formed(commitment, &input) {
            return SampleVerdict {
                outcome: VerificationOutcome::Rejected(RejectReason::MalformedWeights),
                ..tally
            };
        }

        // Step 1: the opened input must match the commitment.
        if !self.check_commitment(commitment, j, &input) {
            return SampleVerdict {
                outcome: VerificationOutcome::Rejected(RejectReason::InputCommitmentMismatch),
                ..tally
            };
        }

        // Step 2: replay the segment from the opened input. The replay
        // trainer borrows the verifier's scratch arena so consecutive
        // samples reuse the same weight-sized staging buffers.
        let mut trainer = LocalTrainer::with_arena(
            self.config,
            self.shard,
            self.noise.clone(),
            std::mem::take(&mut self.arena),
        );
        let mut replayed = trainer.replay_segment(model, &input, self.nonce, segment);
        self.arena = trainer.into_arena();
        tally.replayed_steps += segment.steps as u64;
        // RPoLv3 workers snap to the lattice at every segment boundary;
        // the replay mirrors that so signatures and distances compare
        // lattice point against lattice point.
        if matches!(commitment, EpochCommitment::V3(_)) {
            rpol_tensor::quant::snap_to_bf16(&mut replayed);
        }

        // Step 3: compare with the committed output. Fuzzy schemes first
        // try to accept on the LSH signature alone; whoever does not is
        // bound exactly to the raw output and distance-checked.
        let double_checked = match (commitment, self.family) {
            // Raw scheme: always fetch the output weights too.
            (EpochCommitment::V1(_), _) => false,
            (EpochCommitment::V2(lsh_commit), Some(family)) => {
                if family
                    .hash(&replayed)
                    .matches_digests(lsh_commit.entry(j + 1))
                {
                    return SampleVerdict {
                        outcome: VerificationOutcome::Accepted {
                            double_checked: false,
                        },
                        ..tally
                    };
                }
                // Double-check: fetch raw output, re-bind to the
                // commitment, and fall back to a distance check so LSH
                // false negatives never penalize honesty.
                true
            }
            (EpochCommitment::V3(qc), Some(family)) => {
                // Two-tier accept: count agreeing groups against the
                // committed entry instead of any-match. ≥ 2 groups is a
                // confident accept; 1 is a borderline match that must
                // survive the raw-weight escape hatch; 0 is the ordinary
                // double-check. Both sub-2 paths fetch the output, bind it
                // exactly via the packed-image digest, and distance-check —
                // a strictly tighter acceptance region than RPoLv2's.
                let agreeing = family.hash(&replayed).matching_group_count(qc.entry(j + 1));
                if agreeing >= 2 {
                    return SampleVerdict {
                        outcome: VerificationOutcome::Accepted {
                            double_checked: false,
                        },
                        ..tally
                    };
                }
                if agreeing == 1 {
                    event!(rec, "rpol.verify.escape_hatch", sample = j);
                }
                true
            }
            (EpochCommitment::V2(_), None) => {
                panic!("RPoLv2 commitment but no LSH family configured")
            }
            (EpochCommitment::V3(_), None) => {
                panic!("RPoLv3 commitment but no LSH family configured")
            }
        };
        if double_checked {
            event!(rec, "rpol.verify.double_check", sample = j);
        }
        let Ok(output) = open(j + 1, &mut tally) else {
            return tally;
        };
        let outcome = if !well_formed(commitment, &output) {
            VerificationOutcome::Rejected(RejectReason::MalformedWeights)
        } else if !self.check_commitment(commitment, j + 1, &output) {
            VerificationOutcome::Rejected(RejectReason::OutputCommitmentMismatch)
        } else {
            let distance = euclidean(&replayed, &output);
            if distance < self.beta {
                VerificationOutcome::Accepted { double_checked }
            } else {
                VerificationOutcome::Rejected(RejectReason::DistanceExceeded {
                    distance,
                    beta: self.beta,
                })
            }
        };
        SampleVerdict { outcome, ..tally }
    }

    /// Checks an opened checkpoint against the commitment at `index`: the
    /// digests the scheme binds these weights by
    /// ([`CommitMode::binding_of`]) are what the entry carries ([`binds`]).
    fn check_commitment(
        &self,
        commitment: &EpochCommitment,
        index: usize,
        weights: &[f32],
    ) -> bool {
        let mode = CommitMode::of(commitment, self.family);
        binds(commitment, index, &mode.binding_of(weights))
    }
}

/// Whether a checkpoint may enter a replay or an aggregate at all: finite
/// everywhere, and under RPoLv3 *on* the bf16 lattice.
pub(crate) fn well_formed(commitment: &EpochCommitment, weights: &[f32]) -> bool {
    weights.iter().all(|w| w.is_finite())
        && (!matches!(commitment, EpochCommitment::V3(_))
            || rpol_tensor::quant::is_bf16_lattice(weights))
}

/// Whether `commitment`'s entry `index` carries exactly `binding` (as
/// [`CommitMode::binding_of`] computed it for the same scheme).
pub(crate) fn binds(commitment: &EpochCommitment, index: usize, binding: &[Digest]) -> bool {
    match commitment {
        EpochCommitment::V1(list) => list.verify(index, &binding[0], &()),
        EpochCommitment::V2(lsh_commit) => lsh_commit.entry(index) == binding,
        EpochCommitment::V3(qc) => *qc.quant_digest(index) == binding[0],
    }
}

/// Euclidean distance between two weight vectors, accumulated in f64.
///
/// Runs four independent f64 accumulator lanes over 4-wide chunks so the
/// sum has no loop-carried dependency on a single register — the hot
/// distance check of every replay comparison. The lane split changes the
/// floating-point summation *order* versus a sequential fold, so results
/// may differ from the scalar oracle in the last few ulps; the distance
/// thresholds in force (`β`, calibration `α`) are orders of magnitude
/// wider. Training-side checkpoint numerics (`trainer::distance`) are
/// pinned elsewhere and do not route through this function.
pub(crate) fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "weight vector length mismatch");
    let mut acc = [0.0f64; 4];
    let chunks_a = a.chunks_exact(4);
    let chunks_b = b.chunks_exact(4);
    let tail_a = chunks_a.remainder();
    let tail_b = chunks_b.remainder();
    for (ca, cb) in chunks_a.zip(chunks_b) {
        for lane in 0..4 {
            let d = (ca[lane] - cb[lane]) as f64;
            acc[lane] += d * d;
        }
    }
    let mut tail = 0.0f64;
    for (&x, &y) in tail_a.iter().zip(tail_b) {
        let d = (x - y) as f64;
        tail += d * d;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3]) + tail).sqrt() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::LocalTrainer;
    use rpol_lsh::LshParams;
    use rpol_sim::gpu::GpuModel;
    use rpol_tensor::rng::Pcg32;

    struct VecProvider(Vec<Vec<f32>>);

    impl ProofProvider for VecProvider {
        fn open_checkpoint(&self, index: usize) -> Result<Cow<'_, [f32]>, ProofUnavailable> {
            Ok(Cow::Borrowed(&self.0[index]))
        }
    }

    /// A provider whose link dies after serving `alive` openings.
    struct FlakyProvider {
        checkpoints: Vec<Vec<f32>>,
        alive: std::cell::Cell<usize>,
    }

    impl ProofProvider for FlakyProvider {
        fn open_checkpoint(&self, index: usize) -> Result<Cow<'_, [f32]>, ProofUnavailable> {
            let left = self.alive.get();
            if left == 0 {
                return Err(ProofUnavailable { index });
            }
            self.alive.set(left - 1);
            Ok(Cow::Borrowed(&self.checkpoints[index]))
        }
    }

    fn honest_trace(
        cfg: &TaskConfig,
        data: &SyntheticImages,
        nonce: u64,
    ) -> crate::trainer::EpochTrace {
        let mut model = cfg.build_model();
        let mut trainer = LocalTrainer::new(cfg, data, NoiseInjector::new(GpuModel::GA10, 11));
        trainer.run_epoch(&mut model, nonce, 6)
    }

    fn setup() -> (TaskConfig, SyntheticImages) {
        let cfg = TaskConfig::tiny();
        let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
        (cfg, data)
    }

    #[test]
    fn v1_accepts_honest_worker() {
        let (cfg, data) = setup();
        let trace = honest_trace(&cfg, &data, 3);
        let commitment = EpochCommitment::commit_v1(&trace.checkpoints);
        let mut model = cfg.build_model();
        let mut verifier = Verifier::new(
            &cfg,
            &data,
            3,
            0.5, // generous beta for the tiny task
            None,
            NoiseInjector::new(GpuModel::G3090, 99),
        );
        let verdict = verifier.verify_samples(
            &mut model,
            &commitment,
            &trace.segments,
            &[0, 1, 2],
            &VecProvider(trace.checkpoints.clone()),
        );
        assert!(verdict.all_accepted(), "{:?}", verdict.outcomes);
        assert_eq!(verdict.replayed_steps, 6);
        assert!(verdict.proof_bytes > 0);
    }

    #[test]
    fn v1_rejects_fabricated_output() {
        let (cfg, data) = setup();
        let trace = honest_trace(&cfg, &data, 3);
        // The worker commits to a fabricated checkpoint 2 (random garbage
        // far from the training trajectory).
        let mut forged = trace.checkpoints.clone();
        for w in forged[2].iter_mut() {
            *w += 0.5;
        }
        let commitment = EpochCommitment::commit_v1(&forged);
        let mut model = cfg.build_model();
        let mut verifier = Verifier::new(
            &cfg,
            &data,
            3,
            0.5,
            None,
            NoiseInjector::new(GpuModel::G3090, 99),
        );
        let verdict = verifier.verify_samples(
            &mut model,
            &commitment,
            &trace.segments,
            &[1],
            &VecProvider(forged),
        );
        assert!(!verdict.all_accepted());
        assert!(matches!(
            verdict.outcomes[0].1,
            VerificationOutcome::Rejected(RejectReason::DistanceExceeded { .. })
        ));
    }

    #[test]
    fn v1_rejects_commitment_mismatch() {
        let (cfg, data) = setup();
        let trace = honest_trace(&cfg, &data, 3);
        let commitment = EpochCommitment::commit_v1(&trace.checkpoints);
        // The worker later tries to open different weights than committed.
        let mut swapped = trace.checkpoints.clone();
        swapped[0][0] += 1.0;
        let mut model = cfg.build_model();
        let mut verifier = Verifier::new(
            &cfg,
            &data,
            3,
            0.5,
            None,
            NoiseInjector::new(GpuModel::G3090, 99),
        );
        let verdict = verifier.verify_samples(
            &mut model,
            &commitment,
            &trace.segments,
            &[0],
            &VecProvider(swapped),
        );
        assert_eq!(
            verdict.outcomes[0].1,
            VerificationOutcome::Rejected(RejectReason::InputCommitmentMismatch)
        );
    }

    #[test]
    fn v2_accepts_honest_worker_and_saves_bytes() {
        let (cfg, data) = setup();
        let trace = honest_trace(&cfg, &data, 5);
        let dim = trace.checkpoints[0].len();
        // Wide bucket: honest reproduction errors land in the same bucket.
        let family = LshFamily::generate(dim, LshParams::new(4.0, 4, 4), 7);
        let commitment = EpochCommitment::commit_v2(&trace.checkpoints, &family);
        let mut model = cfg.build_model();
        let mut verifier = Verifier::new(
            &cfg,
            &data,
            5,
            0.5,
            Some(&family),
            NoiseInjector::new(GpuModel::G3090, 42),
        );
        let verdict = verifier.verify_samples(
            &mut model,
            &commitment,
            &trace.segments,
            &[0, 1, 2],
            &VecProvider(trace.checkpoints.clone()),
        );
        assert!(verdict.all_accepted(), "{:?}", verdict.outcomes);
        // Without double-checks, v2 ships only the input per sample:
        // 3 inputs = 3 model payloads (v1 would ship 6).
        let model_bytes = (dim * 4) as u64;
        assert!(
            verdict.proof_bytes <= 3 * model_bytes + verdict.double_checks() as u64 * model_bytes,
            "proof bytes {}",
            verdict.proof_bytes
        );
    }

    #[test]
    fn v2_rejects_spoofed_output() {
        let (cfg, data) = setup();
        let trace = honest_trace(&cfg, &data, 5);
        let dim = trace.checkpoints[0].len();
        let family = LshFamily::generate(dim, LshParams::new(0.05, 4, 4), 7);
        let mut forged = trace.checkpoints.clone();
        for w in forged[1].iter_mut() {
            *w += 0.3;
        }
        let commitment = EpochCommitment::commit_v2(&forged, &family);
        let mut model = cfg.build_model();
        let mut verifier = Verifier::new(
            &cfg,
            &data,
            5,
            0.05, // tight beta: the forgery is far outside
            Some(&family),
            NoiseInjector::new(GpuModel::G3090, 42),
        );
        let verdict = verifier.verify_samples(
            &mut model,
            &commitment,
            &trace.segments,
            &[0],
            &VecProvider(forged),
        );
        assert!(!verdict.all_accepted());
    }

    #[test]
    fn v2_rejects_nan_input_before_replay() {
        let (cfg, data) = setup();
        let trace = honest_trace(&cfg, &data, 5);
        let dim = trace.checkpoints[0].len();
        let family = LshFamily::generate(dim, LshParams::new(4.0, 4, 4), 7);
        // The worker commits to NaN-poisoned checkpoints and opens them.
        let mut forged = trace.checkpoints.clone();
        forged[0][0] = f32::NAN;
        forged[1][3] = f32::NAN;
        let commitment = EpochCommitment::commit_v2(&forged, &family);
        let mut model = cfg.build_model();
        let mut verifier = Verifier::new(
            &cfg,
            &data,
            5,
            0.5,
            Some(&family),
            NoiseInjector::new(GpuModel::G3090, 42),
        );
        let verdict = verifier.verify_samples(
            &mut model,
            &commitment,
            &trace.segments,
            &[0],
            &VecProvider(forged),
        );
        assert_eq!(
            verdict.outcomes[0].1,
            VerificationOutcome::Rejected(RejectReason::MalformedWeights)
        );
        // And crucially: no replay was spent on the hostile sample.
        assert_eq!(verdict.replayed_steps, 0);
    }

    #[test]
    fn dead_link_yields_unavailable_not_rejection() {
        let (cfg, data) = setup();
        let trace = honest_trace(&cfg, &data, 3);
        let commitment = EpochCommitment::commit_v1(&trace.checkpoints);
        let mut model = cfg.build_model();
        let mut verifier = Verifier::new(
            &cfg,
            &data,
            3,
            0.5,
            None,
            NoiseInjector::new(GpuModel::G3090, 99),
        );
        // The link serves one opening (sample 0's input) then dies mid-way
        // through the V1 output fetch.
        let provider = FlakyProvider {
            checkpoints: trace.checkpoints.clone(),
            alive: std::cell::Cell::new(1),
        };
        let verdict = verifier.verify_samples(
            &mut model,
            &commitment,
            &trace.segments,
            &[0, 1, 2],
            &provider,
        );
        assert!(verdict.transport_failed());
        assert!(!verdict.all_accepted());
        // One Unavailable outcome, then the loop stopped: no later samples
        // were attempted against the dead link.
        assert_eq!(verdict.outcomes.len(), 1);
        assert_eq!(verdict.outcomes[0], (0, VerificationOutcome::Unavailable));
        // No rejection reason anywhere — this worker is not a cheater.
        assert!(!verdict
            .outcomes
            .iter()
            .any(|(_, o)| matches!(o, VerificationOutcome::Rejected(_))));
    }

    /// The sequential-fold oracle the 4-lane `euclidean` must agree with
    /// (up to summation-order rounding).
    fn euclidean_scalar(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = (x - y) as f64;
                d * d
            })
            .sum::<f64>()
            .sqrt() as f32
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn euclidean_matches_scalar_oracle(seed in 0u64..1_000, len in 0usize..67) {
            let mut rng = Pcg32::seed_from(seed ^ 0xD15_7A4C);
            let a: Vec<f32> = (0..len).map(|_| rng.next_normal()).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.next_normal()).collect();
            let lanes = euclidean(&a, &b);
            let oracle = euclidean_scalar(&a, &b);
            let tol = 1e-5_f32 * oracle.max(1.0);
            proptest::prop_assert!(
                (lanes - oracle).abs() <= tol,
                "lanes {lanes} vs oracle {oracle}"
            );
        }
    }

    #[test]
    fn euclidean_handles_tail_and_empty() {
        assert_eq!(euclidean(&[], &[]), 0.0);
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0f32, 2.0, 3.0, 4.0, 7.0];
        assert_eq!(euclidean(&a, &b), 2.0);
    }

    #[test]
    fn verify_sample_agrees_with_verify_samples() {
        let (cfg, data) = setup();
        let trace = honest_trace(&cfg, &data, 3);
        let commitment = EpochCommitment::commit_v1(&trace.checkpoints);
        let provider = VecProvider(trace.checkpoints.clone());
        let mk = || {
            Verifier::new(
                &cfg,
                &data,
                3,
                0.5,
                None,
                NoiseInjector::new(GpuModel::G3090, 99),
            )
        };
        let mut model = cfg.build_model();
        let batch = mk().verify_samples(
            &mut model,
            &commitment,
            &trace.segments,
            &[0, 1, 2],
            &provider,
        );
        // Each sample through its own verifier (as the executor schedules
        // them) merges into a bitwise-identical worker verdict.
        let singles: Vec<SampleVerdict> = [0usize, 1, 2]
            .iter()
            .map(|&j| {
                let mut model = cfg.build_model();
                mk().verify_sample(&mut model, &commitment, &trace.segments, j, &provider)
            })
            .collect();
        let merged = WorkerVerdict::from_samples(singles);
        assert_eq!(merged.outcomes, batch.outcomes);
        assert_eq!(merged.proof_bytes, batch.proof_bytes);
        assert_eq!(merged.replayed_steps, batch.replayed_steps);
    }

    #[test]
    fn from_samples_truncates_at_first_unavailable() {
        let mk = |sample, outcome| SampleVerdict {
            sample,
            outcome,
            proof_bytes: 10,
            replayed_steps: 2,
            openings_elided: 0,
        };
        let merged = WorkerVerdict::from_samples(vec![
            mk(
                0,
                VerificationOutcome::Accepted {
                    double_checked: false,
                },
            ),
            mk(1, VerificationOutcome::Unavailable),
            mk(
                2,
                VerificationOutcome::Accepted {
                    double_checked: false,
                },
            ),
        ]);
        assert_eq!(merged.outcomes.len(), 2);
        assert!(merged.transport_failed());
        // Speculative work after the dead link is not billed.
        assert_eq!(merged.proof_bytes, 20);
        assert_eq!(merged.replayed_steps, 4);
    }

    fn quantized_trace(
        cfg: &TaskConfig,
        data: &SyntheticImages,
        nonce: u64,
    ) -> crate::trainer::EpochTrace {
        let mut model = cfg.build_model();
        let mut trainer = LocalTrainer::new(cfg, data, NoiseInjector::new(GpuModel::GA10, 11));
        trainer.run_epoch_quantized(&mut model, nonce, 6)
    }

    #[test]
    fn v3_accepts_honest_quantized_worker() {
        let (cfg, data) = setup();
        let trace = quantized_trace(&cfg, &data, 5);
        let dim = trace.checkpoints[0].len();
        let family = LshFamily::generate(dim, LshParams::new(4.0, 4, 4), 7);
        let commitment = EpochCommitment::commit_v3(&trace.checkpoints, &family);
        let mut model = cfg.build_model();
        let mut verifier = Verifier::new(
            &cfg,
            &data,
            5,
            0.5,
            Some(&family),
            NoiseInjector::new(GpuModel::G3090, 42),
        );
        let verdict = verifier.verify_samples(
            &mut model,
            &commitment,
            &trace.segments,
            &[0, 1, 2],
            &VecProvider(trace.checkpoints.clone()),
        );
        assert!(verdict.all_accepted(), "{:?}", verdict.outcomes);
        // V3 proofs travel packed: at most 2 bytes per weight per opening.
        let packed = (dim * 2) as u64;
        assert!(
            verdict.proof_bytes <= (3 + verdict.double_checks() as u64) * packed,
            "proof bytes {}",
            verdict.proof_bytes
        );
    }

    #[test]
    fn v3_rejects_off_lattice_opening_as_malformed() {
        let (cfg, data) = setup();
        let trace = quantized_trace(&cfg, &data, 5);
        let dim = trace.checkpoints[0].len();
        let family = LshFamily::generate(dim, LshParams::new(4.0, 4, 4), 7);
        let commitment = EpochCommitment::commit_v3(&trace.checkpoints, &family);
        // The worker opens weights a sub-lattice nudge away from what it
        // committed — same packed image, different f32s. Lattice
        // enforcement must refuse before any digest comparison.
        let mut opened = trace.checkpoints.clone();
        opened[0][0] = f32::from_bits(opened[0][0].to_bits() | 1);
        let mut model = cfg.build_model();
        let mut verifier = Verifier::new(
            &cfg,
            &data,
            5,
            0.5,
            Some(&family),
            NoiseInjector::new(GpuModel::G3090, 42),
        );
        let verdict = verifier.verify_samples(
            &mut model,
            &commitment,
            &trace.segments,
            &[0],
            &VecProvider(opened),
        );
        assert_eq!(
            verdict.outcomes[0].1,
            VerificationOutcome::Rejected(RejectReason::MalformedWeights)
        );
        assert_eq!(verdict.replayed_steps, 0);
    }

    #[test]
    fn v3_rejects_spoofed_output() {
        let (cfg, data) = setup();
        let trace = quantized_trace(&cfg, &data, 5);
        let dim = trace.checkpoints[0].len();
        let family = LshFamily::generate(dim, LshParams::new(0.05, 4, 4), 7);
        let mut forged = trace.checkpoints.clone();
        for w in forged[1].iter_mut() {
            *w += 0.25;
        }
        rpol_tensor::quant::snap_to_bf16(&mut forged[1]);
        let commitment = EpochCommitment::commit_v3(&forged, &family);
        let mut model = cfg.build_model();
        let mut verifier = Verifier::new(
            &cfg,
            &data,
            5,
            0.05,
            Some(&family),
            NoiseInjector::new(GpuModel::G3090, 42),
        );
        let verdict = verifier.verify_samples(
            &mut model,
            &commitment,
            &trace.segments,
            &[0],
            &VecProvider(forged),
        );
        assert!(!verdict.all_accepted());
    }

    #[test]
    fn v3_escape_hatch_catches_single_group_collision() {
        // A single agreeing LSH group is NOT enough to accept under V3.
        // Construct a commitment whose entry for the sampled segment's
        // output agrees with the honest replay in exactly one group but
        // whose actual committed output is far away: RPoLv2's any-match
        // rule would accept on the colliding group alone; RPoLv3 routes
        // the borderline match through the raw-weight escape hatch, where
        // the exact packed-image binding + distance check expose it.
        let (cfg, data) = setup();
        let trace = quantized_trace(&cfg, &data, 5);
        let dim = trace.checkpoints[0].len();
        let family = LshFamily::generate(dim, LshParams::new(4.0, 4, 4), 7);

        // The far-away "output" the cheater actually serves.
        let mut far = trace.checkpoints[1].clone();
        for w in far.iter_mut() {
            *w += 0.4;
        }
        rpol_tensor::quant::snap_to_bf16(&mut far);
        let honest_entry = family.hash(&trace.checkpoints[1]).group_digests();
        let far_entry = family.hash(&far).group_digests();
        // Entry j+1: one group copied from the honest signature (the
        // collision), the rest from the far output.
        let mut collided = far_entry.clone();
        collided[2] = honest_entry[2];
        assert_eq!(
            family
                .hash(&trace.checkpoints[1])
                .matching_group_count(&collided),
            1,
            "construction must collide in exactly one group"
        );
        // The colliding entry would satisfy RPoLv2's any-match rule.
        assert!(family
            .hash(&trace.checkpoints[1])
            .matches_digests(&collided));

        let honest = EpochCommitment::commit_v3(&trace.checkpoints, &family);
        let (entries, digests) = match &honest {
            EpochCommitment::V3(qc) => {
                let mut entries: Vec<Vec<rpol_crypto::Digest>> =
                    (0..qc.len()).map(|i| qc.entry(i).to_vec()).collect();
                let mut digests = qc.quant_digests().to_vec();
                entries[1] = collided;
                digests[1] = rpol_crypto::sha256(&rpol_crypto::bytes::bf16_as_le_bytes(&far));
                (entries, digests)
            }
            _ => unreachable!(),
        };
        let commitment = EpochCommitment::V3(crate::commitment::QuantCommitment::from_parts(
            entries, digests,
        ));
        let mut opened = trace.checkpoints.clone();
        opened[1] = far;

        let mut model = cfg.build_model();
        let mut verifier = Verifier::new(
            &cfg,
            &data,
            5,
            0.05, // the far output is 0.4·√dim away — well past beta
            Some(&family),
            NoiseInjector::new(GpuModel::G3090, 42),
        );
        let verdict = verifier.verify_samples(
            &mut model,
            &commitment,
            &trace.segments,
            &[0],
            &VecProvider(opened),
        );
        assert!(
            matches!(
                verdict.outcomes[0].1,
                VerificationOutcome::Rejected(RejectReason::DistanceExceeded { .. })
            ),
            "escape hatch must reject the single-group collision: {:?}",
            verdict.outcomes
        );
    }

    #[test]
    fn v2_double_check_rescues_lsh_false_negative() {
        let (cfg, data) = setup();
        let trace = honest_trace(&cfg, &data, 5);
        let dim = trace.checkpoints[0].len();
        // Absurdly narrow buckets: even tiny reproduction errors miss,
        // forcing the double-check path for an honest worker.
        let family = LshFamily::generate(dim, LshParams::new(1e-6, 8, 2), 7);
        let commitment = EpochCommitment::commit_v2(&trace.checkpoints, &family);
        let mut model = cfg.build_model();
        let mut verifier = Verifier::new(
            &cfg,
            &data,
            5,
            0.5, // generous beta: the distance check passes
            Some(&family),
            NoiseInjector::new(GpuModel::G3090, 43),
        );
        let verdict = verifier.verify_samples(
            &mut model,
            &commitment,
            &trace.segments,
            &[0, 1],
            &VecProvider(trace.checkpoints.clone()),
        );
        assert!(verdict.all_accepted(), "{:?}", verdict.outcomes);
        assert!(
            verdict.double_checks() > 0,
            "expected double-checks with degenerate LSH"
        );
    }
}
