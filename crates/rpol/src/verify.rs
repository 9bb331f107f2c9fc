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
use crate::pool::{Binding, Lattice};
use crate::tasks::TaskConfig;
use crate::trainer::{LocalTrainer, Segment};
use crate::worker::CommitMode;
use rpol_crypto::sha256::Digest;
use rpol_exec::Executor;
use rpol_lsh::{LshFamily, Signature};
use rpol_nn::data::SyntheticImages;
use rpol_nn::model::Sequential;
use rpol_obs::{event, span, Recorder};
use rpol_sim::gpu::NoiseInjector;
use rpol_tensor::scratch;
use serde::Serialize;
use std::borrow::Cow;

/// A checkpoint opening could not be obtained: the link to the worker is
/// dead, the retry budget ran out, or the response failed to decode
/// permanently. This is a **transport** verdict, not a verification one —
/// the manager quarantines the worker for the epoch instead of flagging
/// it as a cheater.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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
/// Shared by the verification lanes that fetch a rank's openings at once,
/// hence `Sync`.
///
/// Honest workers return their stored checkpoints; adversaries return
/// whatever they committed to (they cannot do better: the commitment binds
/// them before sampling decisions are revealed). Under the fault-injecting
/// transport a fetch can *fail* ([`ProofUnavailable`]): the worker crashed
/// or its link exhausted the retry budget. Local in-process providers are
/// infallible and always return `Ok`.
pub trait ProofProvider: Sync {
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

    /// An opening that was scheduled but never sent. Link-backed providers
    /// advance their per-opening `seq` exactly as a sent one would, so
    /// every exchange that still happens keeps its fault draws.
    fn skip_opening(&self) {}
}

/// Why a sampled checkpoint was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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
    fn is_accepted(&self) -> bool {
        matches!(self, VerificationOutcome::Accepted { .. })
    }
}

/// Outcome of verifying a single sampled segment, with the cost it
/// incurred: one worker's verification decomposes into one
/// `SampleVerdict` per sampled checkpoint, merged back into a
/// [`WorkerVerdict`] in sample-index order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SampleVerdict {
    /// The sampled checkpoint index.
    pub sample: usize,
    /// How the sample verified.
    pub outcome: VerificationOutcome,
    /// Proof bytes this sample required (raw weight openings).
    pub proof_bytes: u64,
    /// Training steps replayed for this sample.
    pub replayed_steps: u64,
    /// Openings this sample was served from copies the manager holds —
    /// scheduled, never sent, charged no bytes.
    pub openings_elided: u64,
}

impl SampleVerdict {
    /// Sample `sample` before any stage ran: it reads `Unavailable` until
    /// a stage decides otherwise, which is what a failed fetch returns.
    pub(crate) fn pending(sample: usize) -> Self {
        Self {
            sample,
            outcome: VerificationOutcome::Unavailable,
            proof_bytes: 0,
            replayed_steps: 0,
            openings_elided: 0,
        }
    }

    /// The tally so far, decided as `outcome`.
    pub(crate) fn decided(self, outcome: VerificationOutcome) -> Self {
        Self { outcome, ..self }
    }
}

/// Result of verifying all sampled checkpoints of one worker's epoch.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
    /// a serial verifier would have skipped against a dead link. Beside
    /// the verdict, not in it: the kept samples'
    /// [`SampleVerdict::openings_elided`] — a verdict crosses the committee
    /// wire field for field.
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
        Self {
            config,
            shard,
            nonce,
            beta,
            family,
            noise,
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

    /// Verifies the sampled checkpoint indices of one worker, checking
    /// every opening against the commitment.
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
        WorkerVerdict::merge_samples(
            self.verify_each(model, commitment, segments, samples, provider, None),
        )
        .0
    }

    /// [`verify_samples`](Verifier::verify_samples) before the merge:
    /// [`verify_ranked`] over this one worker, every replay on `model`.
    pub(crate) fn verify_each(
        &self,
        model: &mut Sequential,
        commitment: &EpochCommitment,
        segments: &[Segment],
        samples: &[usize],
        provider: &dyn ProofProvider,
        ends: Option<BoundEnds<'_>>,
    ) -> Vec<SampleVerdict> {
        let subject = Subject {
            verifier: self,
            commitment,
            provider,
            samples,
            ends,
        };
        let lanes = Lanes::Serial(model);
        let hash = |family: &LshFamily, xs: &[&[f32]]| family.hash_batch(xs);
        let mut verdicts = verify_ranked(&[subject], segments, lanes, hash);
        verdicts.pop().expect("one subject")
    }

    /// Replays one segment from `input` on `model`.
    pub(crate) fn replay(
        &self,
        model: &mut Sequential,
        input: &[f32],
        segment: Segment,
    ) -> Vec<f32> {
        let mut trainer = LocalTrainer::new(self.config, self.shard, self.noise.clone());
        trainer.replay_segment(model, input, self.nonce, segment)
    }

    /// Compares the replay's signature with the committed output of sample
    /// `j`. `None` is an accept on the signature alone; `Some` says the
    /// output must be fetched, bound exactly and distance-checked, and
    /// whether that is a double-check. The raw scheme (no signature)
    /// always fetches the output.
    ///
    /// Where the group digests are the binding (RPoLv2), any agreeing
    /// group accepts. Where an exact SHA-256 backs them (RPoLv3), the
    /// count decides: ≥ 2 is a confident accept; 1 is a borderline match
    /// that must survive the raw-weight escape hatch; 0 is the ordinary
    /// double-check — a strictly tighter acceptance region than RPoLv2's.
    fn lsh_match(
        &self,
        commitment: &EpochCommitment,
        j: usize,
        signature: Option<&Signature>,
    ) -> Option<bool> {
        let Some(sig) = signature else {
            return Some(false);
        };
        let groups = commitment.groups(j + 1);
        let accepted = if commitment.scheme().spec().binding == Binding::LshGroups {
            sig.matches_digests(groups)
        } else {
            let agreeing = sig.matching_group_count(groups);
            if agreeing == 1 {
                event!(self.rec, "rpol.verify.escape_hatch", sample = j);
            }
            agreeing >= 2
        };
        if accepted {
            return None;
        }
        // Double-check: fetch raw output, re-bind to the commitment, and
        // fall back to a distance check so LSH false negatives never
        // penalize honesty.
        event!(self.rec, "rpol.verify.double_check", sample = j);
        Some(true)
    }

    /// Judges the fetched output against the replay — well formed, bound
    /// to the commitment (`bound` is asked only for a well-formed output),
    /// and within `β`.
    fn judge_output(
        &self,
        commitment: &EpochCommitment,
        tally: SampleVerdict,
        double_checked: bool,
        replayed: &[f32],
        output: &[f32],
        bound: impl FnOnce() -> bool,
    ) -> SampleVerdict {
        tally.decided(if !well_formed(commitment, output) {
            VerificationOutcome::Rejected(RejectReason::MalformedWeights)
        } else if !bound() {
            VerificationOutcome::Rejected(RejectReason::OutputCommitmentMismatch)
        } else {
            let distance = euclidean(replayed, output);
            if distance < self.beta {
                VerificationOutcome::Accepted { double_checked }
            } else {
                VerificationOutcome::Rejected(RejectReason::DistanceExceeded {
                    distance,
                    beta: self.beta,
                })
            }
        })
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
        let mode = CommitMode::new(commitment.scheme().spec(), self.family);
        binds(commitment, index, &mode.binding_of(weights))
    }
}

/// Both ends of a committed trajectory as the manager holds them, already
/// bound to the commitment: checkpoint 0 is the start model it broadcast,
/// checkpoint `last` the final weights it was sent. Their openings are
/// served from here, charged no bytes and never checked again; the
/// provider's `seq` still advances ([`ProofProvider::skip_opening`]), so
/// the exchanges that remain keep their fault draws.
#[derive(Clone, Copy)]
pub(crate) struct BoundEnds<'a> {
    pub(crate) start: &'a [f32],
    pub(crate) last: usize,
    pub(crate) final_weights: &'a [f32],
}

/// One worker's sampled segments, as [`verify_ranked`] sees them.
pub(crate) struct Subject<'s> {
    pub(crate) verifier: &'s Verifier<'s>,
    pub(crate) commitment: &'s EpochCommitment,
    pub(crate) provider: &'s dyn ProofProvider,
    pub(crate) samples: &'s [usize],
    /// Set only by the manager, after it bound both ends; without it every
    /// opening is fetched and checked.
    pub(crate) ends: Option<BoundEnds<'s>>,
}

/// A sample between its replay and its verdict.
struct Flight<'p> {
    tally: SampleVerdict,
    /// A fetched input RPoLv2 binds by LSH, until the replays' batch has.
    input: Option<Cow<'p, [f32]>>,
    replayed: Vec<f32>,
    double_checked: bool,
}

impl<'s> Subject<'s> {
    /// Whether an opening of `index` still has to be bound by LSH — in
    /// the next batch — rather than at once or not at all: fetched (not a
    /// bound end) under RPoLv2.
    fn lsh_bound(&self, index: usize) -> bool {
        self.commitment.scheme().spec().binding == Binding::LshGroups && !self.is_end(index)
    }

    fn is_end(&self, index: usize) -> bool {
        self.ends.is_some_and(|e| index == 0 || index == e.last)
    }

    /// One opening: a bound end is served from the manager's copy, one
    /// that crossed the link is charged its bytes. `None` when it could
    /// not be fetched; `tally` then still reads `Unavailable`.
    fn open(&self, index: usize, tally: &mut SampleVerdict) -> Option<Cow<'s, [f32]>> {
        if let Some(ends) = self.ends.filter(|_| self.is_end(index)) {
            self.provider.skip_opening();
            tally.openings_elided += 1;
            return Some(Cow::Borrowed(if index == 0 {
                ends.start
            } else {
                ends.final_weights
            }));
        }
        match self.provider.open_checkpoint(index) {
            Ok(opened) => {
                // An opening travels as a block on its scheme's lattice.
                tally.proof_bytes +=
                    crate::wire::block_len(self.commitment.scheme().spec().lattice, &opened) as u64;
                Some(opened)
            }
            Err(_) => {
                event!(
                    self.verifier.rec,
                    "rpol.verify.unavailable",
                    sample = tally.sample
                );
                None
            }
        }
    }

    /// Opens sample `j`'s input, refuses numerically hostile payloads — a
    /// NaN/∞ checkpoint would poison the replay; under RPoLv3 an opening
    /// must also sit *on* the bf16 lattice, which is what upgrades the
    /// packed-image digest to an exact binding — binds it by SHA-256 when
    /// the scheme does, then replays the segment through `replay`. RPoLv3
    /// workers snap to the lattice at every segment boundary; the replay
    /// mirrors that so signatures and distances compare lattice point
    /// against lattice point. `Err` is the sample's final verdict.
    fn replay(
        &self,
        j: usize,
        segment: Segment,
        replay: impl FnOnce(&[f32]) -> Vec<f32>,
    ) -> Result<Flight<'s>, SampleVerdict> {
        let commitment = self.commitment;
        assert!(j + 1 < commitment.len(), "sample {j} beyond commitment");
        let _span = span!(
            self.verifier.rec,
            "rpol.verify.replay_segment",
            sample = j,
            steps = segment.steps
        );
        let mut tally = SampleVerdict::pending(j);
        let input = self.open(j, &mut tally).ok_or(tally)?;
        let reject = |reason| Err(tally.decided(VerificationOutcome::Rejected(reason)));
        if !well_formed(commitment, &input) {
            return reject(RejectReason::MalformedWeights);
        }
        let sha_bound = !self.is_end(j) && !self.lsh_bound(j);
        if sha_bound && !self.verifier.check_commitment(commitment, j, &input) {
            return reject(RejectReason::InputCommitmentMismatch);
        }
        let mut replayed = replay(&input);
        tally.replayed_steps += segment.steps as u64;
        commitment.scheme().spec().lattice.snap(&mut replayed);
        let input = if self.lsh_bound(j) {
            Some(input)
        } else {
            recycle(input);
            None
        };
        Ok(Flight {
            tally,
            input,
            replayed,
            double_checked: false,
        })
    }
}

/// Hands an opening the link delivered, once read, back to the process
/// pool ([`rpol_tensor::scratch`]); a borrowed one is left alone.
fn recycle(opened: Cow<'_, [f32]>) {
    if let Cow::Owned(weights) = opened {
        scratch::put(weights);
    }
}

/// Whether `commitment` compares replays by LSH signature.
fn fuzzy(commitment: &EpochCommitment) -> bool {
    commitment.scheme().spec().hashes_by_lsh()
}

/// `replay(subject, input, segment)`: one replay, on whatever lane calls.
pub(crate) type Replay<'a> = &'a (dyn Fn(usize, &[f32], Segment) -> Vec<f32> + Sync);

/// Where [`verify_ranked`] replays and fetches.
pub(crate) enum Lanes<'a> {
    /// The calling thread, every replay on this one model.
    Serial(&'a mut Sequential),
    /// The executor's lanes, each replay through the given [`Replay`].
    Exec(&'a Executor, Replay<'a>),
}

impl Lanes<'_> {
    /// `f` over `0..n`, results in index order.
    fn run<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        match self {
            Lanes::Exec(exec, _) => exec.run_indexed(n, f),
            Lanes::Serial(..) => (0..n).map(f).collect(),
        }
    }

    /// [`Lanes::run`], handing `f` the lane's `replay(s, input, segment)`:
    /// subject `s`'s [`Verifier::replay`] on the serial model, or the
    /// executor's [`Replay`].
    pub(crate) fn replays<T: Send>(
        &mut self,
        verifiers: &[&Verifier<'_>],
        n: usize,
        f: impl Fn(usize, &mut dyn FnMut(usize, &[f32], Segment) -> Vec<f32>) -> T + Sync,
    ) -> Vec<T> {
        match self {
            Lanes::Serial(model) => (0..n)
                .map(|d| {
                    f(d, &mut |s, input, segment| {
                        verifiers[s].replay(model, input, segment)
                    })
                })
                .collect(),
            Lanes::Exec(exec, replay) => {
                let replay = *replay;
                exec.run_indexed(n, |d| {
                    f(d, &mut |s, input, segment| replay(s, input, segment))
                })
            }
        }
    }
}

/// Verifies every subject's samples by rank (DESIGN.md §23). For rank
/// `r`, the subjects still verifying go in batches of at most `k·l/2`
/// (`k·l` floats per weight being what a projection matrix would have
/// held; a lane's worth under RPoLv1, which hashes nothing): their `r`-th
/// inputs are opened, checked and replayed on `lanes`, one `hash` pass
/// signs the replays — after the inputs RPoLv2 binds by LSH, so a forged
/// one costs its replay rather than a pass — the outputs the signatures
/// did not accept are fetched, and under RPoLv2 one more pass binds them.
/// A subject's openings keep their order (input, output if needed, next
/// input, …) and stop after the first that cannot be fetched (the link is
/// dead or exhausted — later fetches would fail too), so a link-backed
/// provider's `seq`-keyed fault draws are a serial verifier's. Returns
/// each subject's verdicts in sample order.
pub(crate) fn verify_ranked(
    subjects: &[Subject<'_>],
    segments: &[Segment],
    mut lanes: Lanes<'_>,
    hash: impl Fn(&LshFamily, &[&[f32]]) -> Vec<Signature>,
) -> Vec<Vec<SampleVerdict>> {
    let family = subjects
        .iter()
        .find_map(|s| s.verifier.family.filter(|_| fuzzy(s.commitment)));
    let width = match (family, &lanes) {
        (Some(f), _) => (f.params().k * f.params().l / 2).max(1),
        (None, Lanes::Exec(exec, _)) => exec.threads(),
        (None, Lanes::Serial(..)) => 1,
    };
    let signed = |xs: &[&[f32]]| match family {
        Some(family) if !xs.is_empty() => hash(family, xs),
        _ => Vec::new(),
    };
    let verifiers: Vec<&Verifier<'_>> = subjects.iter().map(|s| s.verifier).collect();
    let mut verdicts: Vec<Vec<SampleVerdict>> = vec![Vec::new(); subjects.len()];
    for rank in 0.. {
        let due: Vec<(usize, usize)> = verdicts
            .iter()
            .enumerate()
            .filter(|(_, done)| {
                !done
                    .last()
                    .is_some_and(|v| matches!(v.outcome, VerificationOutcome::Unavailable))
            })
            .filter_map(|(s, _)| Some((s, *subjects[s].samples.get(rank)?)))
            .collect();
        if due.is_empty() {
            break;
        }
        for batch in due.chunks(width) {
            let flights = lanes.replays(&verifiers, batch.len(), |d, replay| {
                let (s, j) = batch[d];
                subjects[s].replay(j, segments[j], |input| replay(s, input, segments[j]))
            });
            // One pass: the inputs RPoLv2 binds by LSH, then the replays.
            let flown = || {
                flights
                    .iter()
                    .zip(batch)
                    .filter_map(|(f, &(s, _))| Some((f.as_ref().ok()?, &subjects[s])))
            };
            let inputs: Vec<&[f32]> = flown().filter_map(|(f, _)| f.input.as_deref()).collect();
            let replays = flown().filter(|(_, subject)| fuzzy(subject.commitment));
            let xs: Vec<&[f32]> = (inputs.iter().copied())
                .chain(replays.map(|(f, _)| &f.replayed[..]))
                .collect();
            let signatures = signed(&xs);
            let (input_sigs, replay_sigs) = signatures.split_at(inputs.len().min(signatures.len()));
            let (mut input_sigs, mut replay_sigs) = (input_sigs.iter(), replay_sigs.iter());
            let flights: Vec<Result<Flight<'_>, SampleVerdict>> = flights
                .into_iter()
                .zip(batch)
                .map(|(flight, &(s, j))| {
                    let mut flight = flight?;
                    let subject = &subjects[s];
                    let input_sig = flight.input.take().map(|input| {
                        recycle(input);
                        input_sigs.next().expect("signed")
                    });
                    let sig =
                        fuzzy(subject.commitment).then(|| replay_sigs.next().expect("signed"));
                    let outcome = if input_sig
                        .is_some_and(|sig| !binds(subject.commitment, j, &sig.group_digests()))
                    {
                        VerificationOutcome::Rejected(RejectReason::InputCommitmentMismatch)
                    } else {
                        match subject.verifier.lsh_match(subject.commitment, j, sig) {
                            None => VerificationOutcome::Accepted {
                                double_checked: false,
                            },
                            Some(double_checked) => {
                                return Ok(Flight {
                                    double_checked,
                                    ..flight
                                })
                            }
                        }
                    };
                    scratch::put(flight.replayed);
                    Err(flight.tally.decided(outcome))
                })
                .collect();
            // The outputs left to judge, each fetched after its sample's
            // input.
            let outputs = lanes.run(batch.len(), |d| {
                let mut tally = flights[d].as_ref().ok()?.tally;
                let (s, j) = batch[d];
                let output = subjects[s].open(j + 1, &mut tally);
                Some((tally, output))
            });
            // RPoLv2 binds a fetched, well-formed output by LSH.
            let lsh_bound = |d: usize, output: &[f32]| {
                let (s, j) = batch[d];
                subjects[s].lsh_bound(j + 1) && well_formed(subjects[s].commitment, output)
            };
            let xs: Vec<&[f32]> = outputs
                .iter()
                .enumerate()
                .filter_map(|(d, o)| Some((d, o.as_ref()?.1.as_deref()?)))
                .filter(|&(d, output)| lsh_bound(d, output))
                .map(|(_, output)| output)
                .collect();
            let output_sigs = signed(&xs);
            let mut output_sigs = output_sigs.iter();
            for (d, (flight, opened)) in flights.into_iter().zip(&outputs).enumerate() {
                let (s, j) = batch[d];
                let subject = &subjects[s];
                let verdict = match (flight, opened) {
                    (Err(done), _) => done,
                    (Ok(flight), Some((tally, None))) => {
                        scratch::put(flight.replayed);
                        *tally
                    }
                    (Ok(flight), Some((tally, Some(output)))) => {
                        let sig = lsh_bound(d, output).then(|| output_sigs.next().expect("signed"));
                        let commitment = subject.commitment;
                        let verdict = subject.verifier.judge_output(
                            commitment,
                            *tally,
                            flight.double_checked,
                            &flight.replayed,
                            output,
                            || match sig {
                                Some(sig) => binds(commitment, j + 1, &sig.group_digests()),
                                None => {
                                    subject.is_end(j + 1)
                                        || subject.verifier.check_commitment(
                                            commitment,
                                            j + 1,
                                            output,
                                        )
                                }
                            },
                        );
                        scratch::put(flight.replayed);
                        verdict
                    }
                    (Ok(_), None) => unreachable!("every flight fetched its output"),
                };
                verdicts[s].push(verdict);
            }
            outputs
                .into_iter()
                .flatten()
                .filter_map(|(_, output)| output)
                .for_each(recycle);
        }
    }
    verdicts
}

/// Whether a checkpoint may enter a replay or an aggregate at all: finite
/// everywhere, and on a bf16-lattice scheme *on* the lattice.
pub(crate) fn well_formed(commitment: &EpochCommitment, weights: &[f32]) -> bool {
    weights.iter().all(|w| w.is_finite())
        && (commitment.scheme().spec().lattice == Lattice::F32
            || rpol_tensor::quant::is_bf16_lattice(weights))
}

/// Whether `commitment`'s row `index` binds by exactly `binding` (as
/// [`CommitMode::binding_of`] computed it for the same scheme).
pub(crate) fn binds(commitment: &EpochCommitment, index: usize, binding: &[Digest]) -> bool {
    commitment.binding(index) == binding
}

/// Euclidean distance between two weight vectors, accumulated in f64.
///
/// Runs four independent f64 accumulator lanes over 4-wide chunks so the
/// sum has no loop-carried dependency on a single register — the hot
/// distance check of every replay comparison. The lane split changes the
/// floating-point summation *order* versus a sequential fold, so results
/// may differ from the scalar oracle in the last few ulps; the distance
/// thresholds in force (`β`, calibration `α`) are orders of magnitude
/// wider. The sequential fold is [`rpol_tensor::stats::euclidean`], which
/// the figure binaries use.
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
        alive: std::sync::atomic::AtomicUsize,
    }

    impl ProofProvider for FlakyProvider {
        fn open_checkpoint(&self, index: usize) -> Result<Cow<'_, [f32]>, ProofUnavailable> {
            use std::sync::atomic::Ordering::Relaxed;
            let left = self.alive.load(Relaxed);
            if left == 0 {
                return Err(ProofUnavailable { index });
            }
            self.alive.store(left - 1, Relaxed);
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
        let family = LshFamily::new(dim, LshParams::new(4.0, 4, 4), 7);
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
        let family = LshFamily::new(dim, LshParams::new(0.05, 4, 4), 7);
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
        let family = LshFamily::new(dim, LshParams::new(4.0, 4, 4), 7);
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
            alive: std::sync::atomic::AtomicUsize::new(1),
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn euclidean_matches_scalar_oracle(seed in 0u64..1_000, len in 0usize..67) {
            let mut rng = Pcg32::seed_from(seed ^ 0xD15_7A4C);
            let a: Vec<f32> = (0..len).map(|_| rng.next_normal()).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.next_normal()).collect();
            let lanes = euclidean(&a, &b);
            // The sequential fold, equal up to summation-order rounding.
            let oracle = rpol_tensor::stats::euclidean(&a, &b);
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
    fn samples_verified_apart_merge_to_the_batch_verdict() {
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
        // Sample outcomes are independent of each other (the replay noise
        // stream is cloned per sample): each sample through its own
        // verifier adds up to a bitwise-identical worker verdict.
        let mut merged = WorkerVerdict {
            outcomes: vec![],
            proof_bytes: 0,
            replayed_steps: 0,
        };
        for j in [0usize, 1, 2] {
            let mut model = cfg.build_model();
            let single =
                mk().verify_samples(&mut model, &commitment, &trace.segments, &[j], &provider);
            merged.outcomes.extend(single.outcomes);
            merged.proof_bytes += single.proof_bytes;
            merged.replayed_steps += single.replayed_steps;
        }
        assert_eq!(merged.outcomes, batch.outcomes);
        assert_eq!(merged.proof_bytes, batch.proof_bytes);
        assert_eq!(merged.replayed_steps, batch.replayed_steps);
    }

    #[test]
    fn merge_samples_truncates_at_first_unavailable() {
        let mk = |sample, outcome| SampleVerdict {
            sample,
            outcome,
            proof_bytes: 10,
            replayed_steps: 2,
            openings_elided: 0,
        };
        let (merged, _) = WorkerVerdict::merge_samples(vec![
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
        let family = LshFamily::new(dim, LshParams::new(4.0, 4, 4), 7);
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
        let family = LshFamily::new(dim, LshParams::new(4.0, 4, 4), 7);
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
        let family = LshFamily::new(dim, LshParams::new(0.05, 4, 4), 7);
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
        let family = LshFamily::new(dim, LshParams::new(4.0, 4, 4), 7);

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
        // Row 1 carries the colliding groups, then the far output's digest.
        let mut digests = honest.digests().to_vec();
        let width = honest.row(1).len();
        let far_digest = rpol_crypto::sha256(&rpol_crypto::bytes::bf16_as_le_bytes(&far));
        digests[width..2 * width].copy_from_slice(&[collided, vec![far_digest]].concat());
        let commitment =
            EpochCommitment::from_rows(crate::pool::Scheme::RPoLv3, honest.group_count(), digests);
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

    /// Outside the manager no end of the trajectory counts as bound: a
    /// forged checkpoint 0 or a forged last checkpoint is caught by the
    /// commitment check, by LSH under RPoLv2 and by SHA-256 under RPoLv3.
    #[test]
    fn public_verification_checks_both_ends_of_the_trajectory() {
        let (cfg, data) = setup();
        let trace = quantized_trace(&cfg, &data, 5);
        let dim = trace.checkpoints[0].len();
        let last = trace.segments.len();
        // Narrow buckets: every replay is double-checked, so the last
        // checkpoint is opened too.
        let family = LshFamily::new(dim, LshParams::new(1e-6, 8, 2), 7);
        let schemes = [
            EpochCommitment::commit_v2(&trace.checkpoints, &family),
            EpochCommitment::commit_v3(&trace.checkpoints, &family),
        ];
        for commitment in &schemes {
            for (forged, sample, reason) in [
                (0, 0, RejectReason::InputCommitmentMismatch),
                (last, last - 1, RejectReason::OutputCommitmentMismatch),
            ] {
                let mut opened = trace.checkpoints.clone();
                for w in opened[forged].iter_mut() {
                    *w += 0.25;
                }
                rpol_tensor::quant::snap_to_bf16(&mut opened[forged]);
                let mut verifier = Verifier::new(
                    &cfg,
                    &data,
                    5,
                    1e3, // the distance check would pass: only the binding can refuse
                    Some(&family),
                    NoiseInjector::new(GpuModel::G3090, 42),
                );
                let verdict = verifier.verify_samples(
                    &mut cfg.build_model(),
                    commitment,
                    &trace.segments,
                    &[sample],
                    &VecProvider(opened),
                );
                assert_eq!(
                    verdict.outcomes[0].1,
                    VerificationOutcome::Rejected(reason),
                    "checkpoint {forged} forged"
                );
            }
        }
    }

    /// A rank goes in batches of at most `k·l/2` subjects: five workers at
    /// `k·l = 4` hash each rank in three passes of at most two replays,
    /// and every worker gets the verdicts it gets alone.
    #[test]
    fn a_rank_is_hashed_in_batches_of_at_most_half_k_l_subjects() {
        let (cfg, data) = setup();
        let trace = quantized_trace(&cfg, &data, 5);
        let dim = trace.checkpoints[0].len();
        let family = LshFamily::new(dim, LshParams::new(4.0, 2, 2), 7);
        let commitment = EpochCommitment::commit_v3(&trace.checkpoints, &family);
        let provider = VecProvider(trace.checkpoints.clone());
        let verifier = Verifier::new(
            &cfg,
            &data,
            5,
            0.5,
            Some(&family),
            NoiseInjector::new(GpuModel::G3090, 42),
        );
        let samples = [0usize, 2];
        let alone = verifier.verify_each(
            &mut cfg.build_model(),
            &commitment,
            &trace.segments,
            &samples,
            &provider,
            None,
        );
        assert!(alone.iter().all(|v| v.outcome.is_accepted()), "{alone:?}");
        let subjects: Vec<Subject<'_>> = (0..5)
            .map(|_| Subject {
                verifier: &verifier,
                commitment: &commitment,
                provider: &provider,
                samples: &samples,
                ends: None,
            })
            .collect();
        let passes = std::cell::Cell::new(0);
        let mut model = cfg.build_model();
        let lanes = Lanes::Serial(&mut model);
        let verdicts = verify_ranked(&subjects, &trace.segments, lanes, |family, xs| {
            assert!(xs.len() <= 2, "{} vectors in one pass", xs.len());
            passes.set(passes.get() + 1);
            family.hash_batch(xs)
        });
        assert!(verdicts.iter().all(|v| *v == alone));
        assert_eq!(passes.get(), 2 * 3, "two ranks, three batches each");
    }

    #[test]
    fn v2_double_check_rescues_lsh_false_negative() {
        let (cfg, data) = setup();
        let trace = honest_trace(&cfg, &data, 5);
        let dim = trace.checkpoints[0].len();
        // Absurdly narrow buckets: even tiny reproduction errors miss,
        // forcing the double-check path for an honest worker.
        let family = LshFamily::new(dim, LshParams::new(1e-6, 8, 2), 7);
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
