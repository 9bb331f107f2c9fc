//! The pool manager: epoch orchestration, secure sampling, verification,
//! aggregation, and reward crediting (§III-A, §V).

use crate::calibrate::{CalibrationPolicy, CalibrationResult, Calibrator};
use crate::commitment::EpochCommitment;
use crate::pool::{Calibration, Lattice, Scheme};
use crate::tasks::TaskConfig;
use crate::trainer::{epoch_segments, ScratchPool};
use crate::transport::TransportStats;
use crate::verify::{
    binds, verify_ranked, well_formed, BoundEnds, Lanes, ProofProvider, RejectReason,
    SampleVerdict, Subject, VerificationOutcome, Verifier, WorkerVerdict,
};
use crate::worker::{CommitMode, EpochSubmission, PoolWorker};
use rpol_chain::rewards::ContributionLedger;
use rpol_crypto::Address;
use rpol_exec::Executor;
use rpol_lsh::{LshFamily, Signature};
use rpol_nn::data::SyntheticImages;
use rpol_nn::model::Sequential;
use rpol_obs::{event, span, Recorder};
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch;
use serde::Serialize;
use std::sync::Arc;

/// Fixed-point scale of the order-invariant aggregation accumulator:
/// per-weight deltas are quantized to multiples of 2⁻²⁴ and summed as
/// `i64`, making the fold associative and commutative. Headroom: |delta|
/// ≤ 2¹⁵ gives 2³⁹ per worker, ~2⁵⁹ at 10⁶ workers — no overflow.
const AGG_SCALE: f64 = (1u64 << 24) as f64;

/// The GPU the manager replays sampled segments on.
const VERIFIER_GPU: GpuModel = GpuModel::G3090;

/// Per-epoch communication accounting (bytes over the star topology).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CommStats {
    /// Manager → workers: global model broadcast.
    pub broadcast_bytes: u64,
    /// Workers → manager: final weights + commitments.
    pub submission_bytes: u64,
    /// Workers → manager: sampled proof openings (incl. double-checks).
    pub proof_bytes: u64,
}

impl CommStats {
    /// Total bytes moved this epoch.
    pub fn total(&self) -> u64 {
        self.broadcast_bytes + self.submission_bytes + self.proof_bytes
    }
}

/// Counts how a just-encoded packed block coded its hi plane, on the
/// recorder of whoever encoded it (`wire` itself records nothing). `raw`
/// moving off zero means a model stopped looking like weights.
pub(crate) fn count_hi_plane(rec: &Recorder, chose: Option<crate::wire::HiPlane>) {
    match chose {
        Some(crate::wire::HiPlane::Dict { escapes }) => {
            rec.counter_add("rpol.wire.packed_blocks_dict", 1);
            rec.counter_add("rpol.wire.packed_escapes", escapes as u64);
        }
        Some(crate::wire::HiPlane::Raw) => rec.counter_add("rpol.wire.packed_blocks_raw", 1),
        None => {}
    }
}

/// Per-epoch accounting of the two-tier committee hierarchy. `None` on
/// flat runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct HierarchyReport {
    /// Committees the roster was rendezvous-partitioned into.
    pub committees: usize,
    /// Member verdicts Merkle-committed across all committee batches.
    pub verdicts: u64,
    /// Verdicts the top manager spot-audited (inclusion proof + re-replay).
    pub audits: u64,
    /// Audits whose re-replayed verdict disagreed with the committed leaf
    /// (always zero with an honest sub-manager — the committees here run
    /// in-process — but counted because the top tier's soundness bound in
    /// DESIGN.md §15 is defined over exactly this event).
    pub audit_mismatches: u64,
    /// Training steps the top manager re-executed for audits (charged here,
    /// not to [`EpochReport::replayed_steps`], so flat and hierarchical
    /// runs agree on the tier-1 verification accounting).
    pub audit_replayed_steps: u64,
    /// Proof bytes the audits re-fetched (charged here, not to
    /// [`EpochReport::comm`], for the same reason).
    pub audit_proof_bytes: u64,
    /// Wire bytes of the framed committee verdict batches.
    pub batch_bytes: u64,
}

/// What `verify` hands `settle` for one worker: its verdict and, beside it
/// (a verdict crosses the committee wire field for field), the openings
/// its verification was served from the manager's own copies.
pub(crate) type Verified = (WorkerVerdict, u64);

/// In-flight state of one epoch's `settle` stage: everything the manager
/// retains **between** groups. Deliberately O(pool size) in verdict ids
/// only — never in submissions or commitments, which belong to exactly one
/// group at a time.
pub(crate) struct Settlement {
    /// `Some` routes every group's verdicts through the committee batch
    /// round trip and the top tier's audits before they are classified.
    hierarchy: Option<crate::committee::Hierarchy>,
    /// Order-invariant fixed-point aggregation accumulator: per-weight
    /// deltas as `i64` at scale 2⁻²⁴ (finer than f32 resolution on
    /// unit-scale weights), so the sum is an associative, commutative
    /// integer addition — folding in committee order and in worker order
    /// land on bitwise-identical global weights. Allocated at the first
    /// accept: held from the start of the epoch it would sit under the
    /// training buffers and raise the process's peak RSS.
    acc: Vec<i64>,
    /// The report under construction; its sets are in fold order until
    /// [`PoolManager::settle_finish`] sorts them.
    report: EpochReport,
}

/// What happened in one epoch of pooled training.
#[derive(Debug, Clone, Serialize)]
pub struct EpochReport {
    /// Epoch number (0-based).
    pub epoch: u64,
    /// Worker ids whose submissions were aggregated.
    pub accepted: Vec<usize>,
    /// Worker ids whose submissions were rejected by verification.
    pub rejected: Vec<usize>,
    /// Worker ids excluded for the epoch by **transport** failure (crash,
    /// exhausted retries, missed deadline) — uncredited but never flagged
    /// as cheaters. Always empty without a fault-injecting transport.
    pub quarantined: Vec<usize>,
    /// Transport-layer counters for the epoch (all zero without a
    /// fault-injecting transport).
    pub transport: TransportStats,
    /// Raw-weight double-checks triggered (RPoLv2 false-negative rescues).
    pub double_checks: usize,
    /// Training steps the manager re-executed for verification.
    pub replayed_steps: u64,
    /// Checkpoint bytes hashed into commitments this epoch, summed over
    /// delivered submissions (the §VII-E hashing cost RPoLv3's quantized
    /// digests halve). Deterministic given model size and scheme, so the
    /// worker-side and manager-side accounting always agree.
    pub commit_bytes_hashed: u64,
    /// Peak commitment bytes resident at once. A flat epoch materializes
    /// every delivered submission before verifying, so this equals
    /// [`EpochReport::commit_bytes_hashed`]; a hierarchical epoch streams
    /// committee-by-committee and peaks at the largest committee's share.
    pub peak_commit_bytes: u64,
    /// Two-tier committee accounting (`None` on flat runs).
    pub hierarchy: Option<HierarchyReport>,
    /// Bytes moved.
    pub comm: CommStats,
    /// The epoch's calibration (RPoLv2 every epoch; RPoLv1 first epoch).
    pub calibration: Option<CalibrationResult>,
    /// Per-worker verification verdicts (empty for the baseline scheme).
    pub verdicts: Vec<(usize, WorkerVerdict)>,
}

/// The outputs of the `plan` stage ([`PoolManager::begin_epoch`]):
/// everything workers need to train this epoch and, once the calibration
/// is adopted, to commit — fixed before any submission arrives.
#[derive(Debug, Clone)]
pub struct EpochPlan {
    /// Epoch number.
    pub epoch: u64,
    /// Steps each worker must train.
    pub steps: usize,
    scheme: Scheme,
    /// Per-worker nonces `N_t^w`.
    pub nonces: Vec<u64>,
    /// The nonce of this epoch's calibration between
    /// [`PoolManager::plan`] and [`PoolManager::adopt`].
    calibration_nonce: Option<u64>,
    /// This epoch's calibration, when one ran.
    pub calibration: Option<CalibrationResult>,
    family: Option<LshFamily>,
    /// The verification schedule (`None` under the baseline scheme).
    verification: Option<PreparedVerification>,
}

impl EpochPlan {
    /// Whether submissions are verified at all (not under the baseline).
    pub(crate) fn verifies(&self) -> bool {
        self.verification.is_some()
    }

    /// Sampled checkpoints assigned to `worker` (none under the baseline).
    pub(crate) fn sample_count(&self, worker: usize) -> usize {
        self.verification
            .as_ref()
            .map_or(0, |v| v.assignments[worker].samples.len())
    }

    /// The nonce of the calibration this plan still waits for, if any.
    pub(crate) fn pending_calibration(&self) -> Option<u64> {
        self.calibration_nonce
    }

    /// The commitment mode workers must use this epoch.
    ///
    /// # Panics
    ///
    /// Panics on an LSH scheme's plan before its calibration was adopted.
    pub fn commit_mode(&self) -> CommitMode<'_> {
        CommitMode::new(self.scheme.spec(), self.family.as_ref())
    }
}

/// One worker's sampling decision plus the verifier's noise seed, drawn
/// serially so parallel verification stays deterministic.
#[derive(Debug, Clone)]
struct VerificationAssignment {
    /// Sampled checkpoint indices.
    samples: Vec<usize>,
    /// Seed of the manager-side replay noise.
    noise_seed: u64,
}

/// The serially-drawn inputs of one epoch's verification: the checkpoint
/// segment table plus every worker's sampling decision and noise seed,
/// indexed by worker id.
///
/// Training never touches the manager's RNG, so drawing this eagerly —
/// inside [`PoolManager::begin_epoch`], right after the nonces — consumes
/// the exact same RNG stream as drawing it after training. That
/// equivalence is what lets the pool start verifying a worker's sampled
/// checkpoints the moment its submission lands, while other workers are
/// still training. Workers see only the nonces and the commitment mode:
/// the schedule stays private to the manager until they have committed.
#[derive(Debug, Clone)]
struct PreparedVerification {
    segments: Vec<crate::trainer::Segment>,
    assignments: Vec<VerificationAssignment>,
}

/// What [`PoolManager::start_model`] hands out: the global model itself,
/// or its lattice image in a process-pool buffer that goes back on drop.
enum StartModel<'a> {
    Global(&'a [f32]),
    Image(Vec<f32>),
}

impl std::ops::Deref for StartModel<'_> {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        match self {
            Self::Global(weights) => weights,
            Self::Image(image) => image,
        }
    }
}

impl Drop for StartModel<'_> {
    fn drop(&mut self) {
        if let Self::Image(image) = self {
            scratch::put(std::mem::take(image));
        }
    }
}

/// One worker whose submission actually reached the manager this epoch,
/// with whatever channel serves its checkpoint openings: the worker itself
/// (in-process pools) or a fault-injecting transport endpoint. Workers
/// quarantined before verification simply have no participant.
#[derive(Clone, Copy)]
pub(crate) struct Participant<'a> {
    /// The worker's pool index.
    pub(crate) id: usize,
    /// The worker's reward address.
    pub(crate) address: Address,
    /// The worker's data shard (the manager holds a copy).
    pub(crate) shard: &'a SyntheticImages,
    /// The delivered submission.
    pub(crate) submission: &'a EpochSubmission,
    /// Serves checkpoint openings; may fail over a faulty transport.
    pub(crate) provider: &'a dyn ProofProvider,
}

impl<'a> Participant<'a> {
    /// A worker whose submission was handed over in process and who serves
    /// its own openings (infallibly). Link-backed sources override
    /// `provider` with their endpoint.
    pub(crate) fn in_process(worker: &'a PoolWorker, submission: &'a EpochSubmission) -> Self {
        Self {
            id: worker.id,
            address: worker.address,
            shard: worker.shard(),
            submission,
            provider: worker,
        }
    }
}

/// The pool manager (assumed honest inside the pool, §III-B).
pub struct PoolManager {
    /// The manager's blockchain address — encoded into the model.
    pub address: Address,
    config: TaskConfig,
    scheme: Scheme,
    global: Vec<f32>,
    manager_shard: SyntheticImages,
    q_samples: usize,
    steps_per_epoch: usize,
    policy: CalibrationPolicy,
    calibration_gpus: (GpuModel, GpuModel),
    rng: Pcg32,
    /// The pool seed: keys the top tier's audit PRF, which deliberately
    /// never touches `rng`.
    seed: u64,
    /// β cached from the first calibration, reused by RPoLv1.
    cached_beta: Option<f32>,
    contributions: ContributionLedger,
    /// Observability handle shared with the pool (defaults to no-op).
    recorder: Arc<Recorder>,
    /// Persistent executor for calibration fan-out (verification takes its
    /// executor per call): the pool's. `None` on a manager driven outside
    /// a pool, which calibrates on the calling thread.
    executor: Option<Arc<Executor>>,
    /// Scratch states lent to every replay, calibration run and evaluation
    /// batch, so steady-state epochs stop allocating scratch models and
    /// weight-sized staging buffers.
    scratch: ScratchPool,
}

impl PoolManager {
    /// Creates a manager with a fresh address-encoded global model.
    ///
    /// `manager_shard` is the (n+1)-th i.i.d. shard the manager keeps for
    /// adaptive calibration (§V-C).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config: TaskConfig,
        scheme: Scheme,
        address: Address,
        manager_shard: SyntheticImages,
        q_samples: usize,
        steps_per_epoch: usize,
        seed: u64,
    ) -> Self {
        assert!(q_samples > 0, "need at least one sample per worker");
        assert!(steps_per_epoch > 0, "empty epochs");
        let global = config.build_encoded_model(&address).flatten_params();
        Self {
            address,
            config,
            scheme,
            global,
            manager_shard,
            q_samples,
            steps_per_epoch,
            policy: CalibrationPolicy::default(),
            calibration_gpus: GpuModel::top2(),
            rng: Pcg32::seed_from(seed ^ 0x4D47_5200),
            seed,
            cached_beta: None,
            contributions: ContributionLedger::new(),
            recorder: rpol_obs::noop().clone(),
            executor: None,
            scratch: ScratchPool::default(),
        }
    }

    /// Attaches an observability recorder (sampling events, verification
    /// spans). Normally called through `MiningPool::with_recorder`.
    pub fn set_recorder(&mut self, rec: Arc<Recorder>) {
        self.recorder = rec;
    }

    /// Sets the GPU pair used for calibration runs. §V-C: the manager
    /// picks the top-2 best-performant GPUs *from the pool workers'
    /// registration information* to measure near-worst-case errors.
    pub fn set_calibration_gpus(&mut self, gpus: (GpuModel, GpuModel)) {
        self.calibration_gpus = gpus;
    }

    /// Attaches a persistent executor: calibration fans out onto its
    /// long-lived workers. Every `MiningPool` attaches its own.
    pub fn set_executor(&mut self, exec: Arc<Executor>) {
        self.executor = Some(exec);
    }

    /// Lends a scratch model of the global geometry ([`ScratchPool`]).
    pub(crate) fn checkout_scratch(&self) -> Sequential {
        self.scratch.checkout(&self.recorder, || {
            self.config.build_model_like(&self.global)
        })
    }

    /// Returns a model [`Self::checkout_scratch`] lent.
    pub(crate) fn checkin_scratch(&self, model: Sequential) {
        self.scratch.checkin(model);
    }

    /// The current global model weights.
    pub fn global_weights(&self) -> &[f32] {
        &self.global
    }

    /// This epoch's global-model block for the task broadcast, encoded
    /// once on the scheme's lattice and shared by every worker's task
    /// frame. Every consumer of a task snaps it onto the scheme's lattice
    /// before first use ([`Lattice::snap`], in `LocalTrainer::train` and
    /// the adversaries' arms of `PoolWorker::train`) and the snap is
    /// idempotent, so v3 ships the lattice image; the other schemes ship
    /// the f32 model.
    /// The manager's own f32 aggregate is untouched.
    pub(crate) fn task_block(&self, plan: &EpochPlan) -> crate::wire::TaskBlock {
        self.recorder
            .counter_add("rpol.wire.task_blocks_encoded", 1);
        let block =
            crate::wire::TaskBlock::new(plan.scheme.spec().lattice, &self.start_model(plan));
        count_hi_plane(&self.recorder, Some(block.hi_plane()));
        block
    }

    /// The model `plan`'s workers train from, as checkpoint 0 holds it:
    /// the global model, or under RPoLv3 its lattice image, drawn into a
    /// process-pool buffer by each stage that reads it (the task block,
    /// the broadcast charge, a group's binding and bound ends) and put
    /// back when that stage is done. The global model moves only when the
    /// epoch settles, so every read sees the same bits.
    fn start_model(&self, plan: &EpochPlan) -> StartModel<'_> {
        if plan.scheme.spec().lattice != Lattice::Bf16 {
            return StartModel::Global(&self.global);
        }
        let mut image = scratch::take_empty(self.global.len());
        image.extend_from_slice(&self.global);
        rpol_tensor::quant::snap_to_bf16(&mut image);
        StartModel::Image(image)
    }

    /// Broadcast bytes the in-process paths charge for sending the global
    /// model to `n_workers`: the length of the block [`Self::task_block`]
    /// would put on a link — the same story the wire tells.
    pub(crate) fn broadcast_bytes(&self, plan: &EpochPlan, n_workers: usize) -> u64 {
        let per_worker =
            crate::wire::block_len(plan.scheme.spec().lattice, &self.start_model(plan));
        (per_worker * n_workers) as u64
    }

    /// The task configuration.
    pub fn config(&self) -> &TaskConfig {
        &self.config
    }

    /// The verification scheme in force.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Verified contributions accumulated so far (drives reward splits).
    pub fn contributions(&self) -> &ContributionLedger {
        &self.contributions
    }

    /// The whole `plan` stage of an epoch: [`Self::plan`], then the
    /// epoch's calibration (per scheme policy) run and adopted in place.
    /// After this, workers can train and commit **concurrently**: nothing
    /// in the plan changes, and no later stage is random.
    pub fn begin_epoch(&mut self, n_workers: usize, epoch: u64) -> EpochPlan {
        let mut plan = self.plan(n_workers, epoch);
        let calibration = plan
            .calibration_nonce
            .map(|nonce| self.calibrate(nonce, epoch));
        self.adopt(&mut plan, calibration);
        plan
    }

    /// Every draw the epoch takes from the manager's RNG, in one fixed
    /// order: the calibration nonce (when the scheme calibrates this
    /// epoch), the per-worker nonces, the verification schedule. The plan
    /// has no calibration yet: workers may train from it, but commit only
    /// after [`Self::adopt`].
    pub(crate) fn plan(&mut self, n_workers: usize, epoch: u64) -> EpochPlan {
        assert!(n_workers > 0, "pool has no workers");
        let spec = self.scheme.spec();
        let calibrates = match spec.calibration {
            Calibration::Never => false,
            Calibration::Once => self.cached_beta.is_none(),
            Calibration::EveryEpoch => true,
        };
        let calibration_nonce = calibrates.then(|| self.rng.next_u64());
        // Per-worker nonces for stochastic-yet-deterministic selection.
        let nonces: Vec<u64> = (0..n_workers).map(|_| self.rng.next_u64()).collect();
        let verification = self.prepare_verification(epoch, n_workers);
        EpochPlan {
            epoch,
            steps: self.steps_per_epoch,
            scheme: self.scheme,
            nonces,
            calibration_nonce,
            calibration: None,
            family: None,
            verification,
        }
    }

    /// Completes `plan` with the calibration its nonce asked for: the
    /// calibration itself, the epoch's LSH family, and `β` for this and
    /// (under calibrate-once) every later epoch.
    ///
    /// # Panics
    ///
    /// Panics unless `calibration` is present exactly when the plan still
    /// waits for one.
    pub(crate) fn adopt(&mut self, plan: &mut EpochPlan, calibration: Option<CalibrationResult>) {
        assert_eq!(
            plan.calibration_nonce.take().is_some(),
            calibration.is_some(),
            "a calibration exactly when the plan asked for one"
        );
        if let Some(cal) = &calibration {
            self.cached_beta = Some(cal.beta);
        }
        plan.family = self.scheme.spec().hashes_by_lsh().then(|| {
            let cal = calibration.expect("an LSH scheme calibrates every epoch");
            cal.family(self.global.len())
        });
        plan.calibration = calibration;
    }

    /// The rest of an epoch over in-process submissions, serially: reveal
    /// the sampling decisions, verify every submission, aggregate the
    /// accepted updates (Eq. 1) and credit contributions — `verify →
    /// settle` over one group of everyone (DESIGN.md §22).
    ///
    /// # Panics
    ///
    /// Panics if `submissions` does not align with `workers`.
    pub fn finish_epoch(
        &mut self,
        workers: &[PoolWorker],
        plan: &EpochPlan,
        submissions: &[EpochSubmission],
    ) -> EpochReport {
        let n = workers.len();
        assert_eq!(submissions.len(), n, "one submission per worker");
        let participants: Vec<Participant<'_>> = workers
            .iter()
            .map(|worker| Participant::in_process(worker, &submissions[worker.id]))
            .collect();
        let comm = CommStats {
            broadcast_bytes: self.broadcast_bytes(plan, n),
            submission_bytes: submissions.iter().map(|sub| sub.upload_bytes).sum(),
            proof_bytes: 0,
        };
        let mut settlement = self.settle_begin(plan, None);
        self.verify_and_fold(&mut settlement, 0, &participants, plan, None);
        self.settle_finish(settlement, comm, &[])
    }

    /// The epoch's verification schedule: the segment table plus per-worker
    /// sample indices and noise seeds. Returns `None` for the baseline
    /// scheme, which never draws sampling state. Sampling decisions are
    /// drawn serially for **all** `n_workers` (those whose links later fail
    /// included), so the manager's RNG schedule is independent of which
    /// links happened to fail and the `rpol.manager.sample` events land in
    /// worker order, ahead of training, on every path.
    fn prepare_verification(
        &mut self,
        epoch: u64,
        n_workers: usize,
    ) -> Option<PreparedVerification> {
        if !self.scheme.spec().verifies() {
            return None;
        }
        let segments = epoch_segments(self.steps_per_epoch, self.config.checkpoint_interval);
        let assignments: Vec<VerificationAssignment> = (0..n_workers)
            .map(|_| VerificationAssignment {
                samples: self.sample_indices(segments.len()),
                noise_seed: self.rng.next_u64(),
            })
            .collect();
        if self.recorder.enabled() {
            for (w, assignment) in assignments.iter().enumerate() {
                event!(
                    self.recorder,
                    "rpol.manager.sample",
                    epoch,
                    worker = w,
                    samples = assignment.samples.len()
                );
            }
        }
        Some(PreparedVerification {
            segments,
            assignments,
        })
    }

    /// The `verify` stage's first step, once per worker per epoch and
    /// before any opening or replay: each delivered submission has the
    /// epoch's shape, and both ends of its committed trajectory are models
    /// the manager holds — `commitment[0]` binds the start model it
    /// broadcast, `commitment[last]` the final weights it would aggregate,
    /// each by the scheme's own commitment check. What verification then
    /// samples is a path between those two, and what aggregation uses is
    /// its end. The start model and every well-shaped final vector are
    /// bound in one pass: one LSH batch under RPoLv2, a SHA-256 each under
    /// the other schemes. `Err` is the rejection, at a valid sample index,
    /// having cost no proof bytes and no replay.
    fn bind(
        &self,
        participants: &[Participant<'_>],
        plan: &EpochPlan,
        start_model: &[f32],
    ) -> Vec<Result<(), SampleVerdict>> {
        let prepared = plan.verification.as_ref().expect("a verifying scheme");
        let last = prepared.segments.len();
        let mode = plan.commit_mode();
        let reject = |sample: usize, reason| {
            SampleVerdict::pending(sample).decided(VerificationOutcome::Rejected(reason))
        };
        let shaped: Vec<Result<&EpochCommitment, SampleVerdict>> = participants
            .iter()
            .map(|part| {
                let submission = part.submission;
                let commitment = submission
                    .commitment
                    .as_ref()
                    .filter(|c| c.scheme() == plan.scheme && c.len() == last + 1)
                    .ok_or_else(|| reject(0, RejectReason::InputCommitmentMismatch))?;
                let final_weights = &submission.final_weights;
                if final_weights.len() != self.global.len()
                    || !well_formed(commitment, final_weights)
                {
                    return Err(reject(last - 1, RejectReason::MalformedWeights));
                }
                Ok(commitment)
            })
            .collect();
        let weights: Vec<&[f32]> = std::iter::once(start_model)
            .chain(
                participants
                    .iter()
                    .zip(&shaped)
                    .filter(|(_, shape)| shape.is_ok())
                    .map(|(part, _)| part.submission.final_weights.as_slice()),
            )
            .collect();
        let bindings = match mode {
            CommitMode::V2(family) => {
                Signature::group_digests_batch(&self.streamed_pass(family, &weights))
            }
            _ => weights.iter().map(|w| mode.binding_of(w)).collect(),
        };
        let (start, mut finals) = (&bindings[0], bindings[1..].iter());
        shaped
            .into_iter()
            .map(|shape| {
                let commitment = shape?;
                let submitted = finals.next().expect("one binding per well-shaped final");
                if !binds(commitment, 0, start) {
                    return Err(reject(0, RejectReason::InputCommitmentMismatch));
                }
                if !binds(commitment, last, submitted) {
                    return Err(reject(last - 1, RejectReason::OutputCommitmentMismatch));
                }
                Ok(())
            })
            .collect()
    }

    /// One pass of the epoch's family over `xs`, counted as
    /// `rpol.lsh.streamed_passes`.
    fn streamed_pass(&self, family: &LshFamily, xs: &[&[f32]]) -> Vec<Signature> {
        self.recorder.counter_add("rpol.lsh.streamed_passes", 1);
        family.hash_batch(xs)
    }

    /// The `verify` stage over one group (DESIGN.md §23): [`Self::bind`]
    /// every participant, then [`verify_ranked`] the bound ones' prepared
    /// samples — replays on `exec` when given, else on one scratch model;
    /// hashes counted as streamed passes. Openings of the two bound ends
    /// are served from the manager's own copies ([`BoundEnds`]) and never
    /// hashed again. A verdict depends only on its own assignment: every
    /// replay clones the verifier's pristine injector and fully overwrites
    /// its scratch model, so neither grouping nor fan-out can change one,
    /// and the top manager's audit (a group of one) repeats it bit for bit.
    /// Beside each verdict, the openings it did not fetch.
    pub(crate) fn verify_group(
        &self,
        participants: &[Participant<'_>],
        plan: &EpochPlan,
        exec: Option<&Executor>,
    ) -> Vec<Verified> {
        let prepared = plan.verification.as_ref().expect("a verifying scheme");
        let verifiers: Vec<Verifier<'_>> = participants
            .iter()
            .map(|part| {
                event!(
                    self.recorder,
                    "rpol.verify.worker",
                    epoch = plan.epoch,
                    worker = part.id,
                    samples = plan.sample_count(part.id)
                );
                Verifier::new(
                    &self.config,
                    part.shard,
                    plan.nonces[part.id],
                    self.cached_beta.expect("calibrated"),
                    plan.family.as_ref(),
                    NoiseInjector::new(VERIFIER_GPU, prepared.assignments[part.id].noise_seed),
                )
                .with_recorder(&self.recorder)
            })
            .collect();
        let start = self.start_model(plan);
        let bound = self.bind(participants, plan, &start);
        let subjects: Vec<Subject<'_>> = (0..participants.len())
            .filter(|&i| bound[i].is_ok())
            .map(|i| {
                let part = &participants[i];
                Subject {
                    verifier: &verifiers[i],
                    commitment: part.submission.commitment.as_ref().expect("bound"),
                    provider: part.provider,
                    samples: &prepared.assignments[part.id].samples,
                    ends: Some(BoundEnds {
                        start: &start,
                        last: prepared.segments.len(),
                        final_weights: &part.submission.final_weights,
                    }),
                }
            })
            .collect();
        let by_subject: Vec<&Verifier<'_>> = subjects.iter().map(|s| s.verifier).collect();
        let hash = |family: &LshFamily, xs: &[&[f32]]| self.streamed_pass(family, xs);
        let verified = self.on_lanes(exec, &by_subject, |lanes| {
            verify_ranked(&subjects, &prepared.segments, lanes, hash)
        });
        let mut verified = verified.into_iter();
        bound
            .into_iter()
            .map(|bound| {
                WorkerVerdict::merge_samples(match bound {
                    Ok(()) => verified.next().expect("one per bound participant"),
                    Err(rejection) => vec![rejection],
                })
            })
            .collect()
    }

    /// `verify → settle` over one group whose submissions are in hand:
    /// [`Self::verify_group`] — its per-sample stages on `exec` when given
    /// — then [`Self::settle_fold`].
    pub(crate) fn verify_and_fold(
        &mut self,
        settlement: &mut Settlement,
        group: usize,
        participants: &[Participant<'_>],
        plan: &EpochPlan,
        exec: Option<&Executor>,
    ) {
        let verdicts = plan
            .verifies()
            .then(|| self.verify_group(participants, plan, exec));
        self.settle_fold(settlement, group, participants, verdicts, plan);
    }

    /// Opens the `settle` stage (DESIGN.md §22): groups stream through
    /// [`Self::settle_fold`] one at a time and [`Self::settle_finish`]
    /// closes the epoch. The only place verdicts are classified, updates
    /// aggregated, contributions credited and an [`EpochReport`] built —
    /// for every source, flat or sharded.
    pub(crate) fn settle_begin(
        &self,
        plan: &EpochPlan,
        hierarchy: Option<crate::committee::Hierarchy>,
    ) -> Settlement {
        Settlement {
            hierarchy,
            acc: Vec::new(),
            report: EpochReport {
                epoch: plan.epoch,
                accepted: Vec::new(),
                rejected: Vec::new(),
                quarantined: Vec::new(),
                transport: TransportStats::default(),
                double_checks: 0,
                replayed_steps: 0,
                commit_bytes_hashed: 0,
                peak_commit_bytes: 0,
                hierarchy: hierarchy.map(|h| HierarchyReport {
                    committees: h.committees,
                    ..HierarchyReport::default()
                }),
                comm: CommStats::default(),
                calibration: plan.calibration,
                verdicts: Vec::new(),
            },
        }
    }

    /// Settles one group's delivered participants: accept / reject /
    /// quarantine per verdict, accepted updates folded into the
    /// order-invariant accumulator and credited, so the caller can drop the
    /// group's submissions before the next group runs. `verdicts` holds one
    /// verdict per participant beside the openings it elided, in
    /// participant order, or `None` under the baseline scheme (every
    /// delivered submission of the model's shape is aggregated). Under a
    /// hierarchy the verdicts first make the committee round trip. What
    /// verification has to tell the recorder is said here, by the settling
    /// thread, never from inside a verification task.
    pub(crate) fn settle_fold(
        &mut self,
        settlement: &mut Settlement,
        group: usize,
        participants: &[Participant<'_>],
        verdicts: Option<Vec<Verified>>,
        plan: &EpochPlan,
    ) {
        if participants.is_empty() {
            return;
        }
        let commit_bytes: u64 = participants
            .iter()
            .map(|p| p.submission.commit_bytes_hashed)
            .sum();
        let report = &mut settlement.report;
        report.commit_bytes_hashed += commit_bytes;
        // Only one group's commitments are resident at a time.
        report.peak_commit_bytes = report.peak_commit_bytes.max(commit_bytes);
        let Some(verdicts) = verdicts else {
            for part in participants {
                // Nothing to bind to without a commitment, but a vector of
                // another length is not an update of this model.
                if part.submission.final_weights.len() == self.global.len() {
                    self.accept(settlement, part);
                } else {
                    settlement.report.rejected.push(part.id);
                }
            }
            return;
        };
        assert_eq!(
            verdicts.len(),
            participants.len(),
            "one verdict per participant"
        );
        let (mut verdicts, elided): (Vec<WorkerVerdict>, Vec<u64>) = verdicts.into_iter().unzip();
        self.recorder
            .counter_add("rpol.verify.openings_elided", elided.iter().sum());
        if settlement.hierarchy.is_some() {
            verdicts = self.committee_round_trip(
                settlement,
                group,
                participants,
                verdicts,
                commit_bytes,
                plan,
            );
        }
        for (part, verdict) in participants.iter().zip(verdicts) {
            let report = &mut settlement.report;
            report.comm.proof_bytes += verdict.proof_bytes;
            report.double_checks += verdict.double_checks();
            report.replayed_steps += verdict.replayed_steps;
            if let Some(end) = verdict.unbound_end() {
                event!(
                    self.recorder,
                    "rpol.verify.endpoint_mismatch",
                    epoch = plan.epoch,
                    worker = part.id,
                    end
                );
            }
            if verdict.transport_failed() {
                // Openings stopped arriving: a dead or exhausted link, not
                // evidence of cheating.
                report.quarantined.push(part.id);
            } else if verdict.all_accepted() {
                self.accept(settlement, part);
            } else {
                report.rejected.push(part.id);
            }
            settlement.report.verdicts.push((part.id, verdict));
        }
    }

    /// Aggregation (Eq. 1 with equal shards) is restricted to accepted
    /// updates; credits drive the eventual reward split.
    fn accept(&mut self, settlement: &mut Settlement, part: &Participant<'_>) {
        settlement.report.accepted.push(part.id);
        if settlement.acc.is_empty() {
            settlement.acc = scratch::take_zeroed(self.global.len());
        }
        let deltas = self.global.iter().zip(&part.submission.final_weights);
        for (a, (&cur, &fin)) in settlement.acc.iter_mut().zip(deltas) {
            *a += (((fin - cur) as f64) * AGG_SCALE).round() as i64;
        }
        self.contributions.credit(part.address);
    }

    /// One committee's sub-manager → top-manager round trip (DESIGN.md
    /// §15), returning the verdicts as the top manager received them:
    ///
    /// 1. **Sub-manager**: the group's verdicts are Merkle-committed into a
    ///    [`CommitteeBatch`](crate::committee::CommitteeBatch).
    /// 2. **Wire**: the batch is encoded and decoded back through the real
    ///    codec, and charged its framed size (header + payload).
    /// 3. **Top manager**: root-consistency check (anything else is
    ///    sub-manager equivocation), then `q_top` spot-audits — Merkle
    ///    inclusion proof plus a full re-replay of the audited worker —
    ///    with audit replay and proof costs charged to the
    ///    [`HierarchyReport`] only, never to the tier-1 epoch accounting.
    fn committee_round_trip(
        &self,
        settlement: &mut Settlement,
        committee: usize,
        participants: &[Participant<'_>],
        verdicts: Vec<WorkerVerdict>,
        commit_bytes: u64,
        plan: &EpochPlan,
    ) -> Vec<WorkerVerdict> {
        use crate::committee::{audit_indices, CommitteeBatch};
        let hierarchy = settlement.hierarchy.expect("committee round trip");
        let report = settlement.report.hierarchy.as_mut().expect("set at begin");
        let batch = CommitteeBatch::from_verdicts(
            plan.epoch,
            committee,
            participants.iter().map(|p| p.id).zip(verdicts).collect(),
            commit_bytes,
        );
        let payload = crate::wire::encode_committee_batch(&batch);
        report.batch_bytes += (crate::wire::FRAME_HEADER_BYTES + payload.len()) as u64;
        let delivered = crate::wire::decode_committee_batch(payload)
            .expect("self-encoded committee batch decodes");
        let audited = audit_indices(
            self.seed,
            plan.epoch,
            committee,
            hierarchy.q_top,
            delivered.verdicts.len(),
        );
        let proofs = delivered
            .audit_proofs(&audited)
            .expect("committee batch equivocation: root does not cover the shipped verdicts");
        for (&i, proof) in audited.iter().zip(&proofs) {
            let (w, committed) = &delivered.verdicts[i];
            debug_assert_eq!(*w, participants[i].id, "batch order is participant order");
            assert!(
                delivered.verify_inclusion(proof, *w, committed),
                "audited verdict failed its inclusion proof"
            );
            let (replayed, _) = self
                .verify_group(std::slice::from_ref(&participants[i]), plan, None)
                .pop()
                .expect("one participant, one verdict");
            report.audits += 1;
            report.audit_replayed_steps += replayed.replayed_steps;
            report.audit_proof_bytes += replayed.proof_bytes;
            if replayed != *committed {
                report.audit_mismatches += 1;
                event!(
                    self.recorder,
                    "rpol.committee.audit_mismatch",
                    epoch = plan.epoch,
                    committee,
                    worker = *w
                );
            }
        }
        report.verdicts += delivered.verdicts.len() as u64;
        delivered.verdicts.into_iter().map(|(_, v)| v).collect()
    }

    /// Closes the `settle` stage: `lost` workers (submission never
    /// delivered) join the quarantined, every set takes canonical worker-id
    /// order (groups fold in committee order), and the accumulated deltas
    /// are applied once — renormalized over the accepted count, since `|D|`
    /// is the union of the data actually aggregated: a verified pool full
    /// of cheaters (or quarantined links) still trains at full speed on its
    /// healthy honest workers' shards instead of being diluted by dropped
    /// terms. `comm` carries the broadcast and submission bytes the
    /// caller's source accounted.
    pub(crate) fn settle_finish(
        &mut self,
        settlement: Settlement,
        comm: CommStats,
        lost: &[usize],
    ) -> EpochReport {
        let Settlement {
            acc, mut report, ..
        } = settlement;
        report.quarantined.extend_from_slice(lost);
        report.accepted.sort_unstable();
        report.rejected.sort_unstable();
        report.quarantined.sort_unstable();
        report.verdicts.sort_by_key(|&(w, _)| w);
        if !report.accepted.is_empty() {
            let weight = 1.0f64 / report.accepted.len() as f64;
            for (g, &a) in self.global.iter_mut().zip(&acc) {
                *g = (*g as f64 + weight * (a as f64 / AGG_SCALE)) as f32;
            }
        }
        scratch::put(acc);
        report.comm.broadcast_bytes += comm.broadcast_bytes;
        report.comm.submission_bytes += comm.submission_bytes;
        report.comm.proof_bytes += comm.proof_bytes;
        report
    }

    /// Samples `q` distinct checkpoint indices from `0..segment_count`
    /// (all of them when `q ≥ segment_count`).
    fn sample_indices(&mut self, segment_count: usize) -> Vec<usize> {
        let mut indices: Vec<usize> = (0..segment_count).collect();
        self.rng.shuffle(&mut indices);
        indices.truncate(self.q_samples.min(segment_count));
        indices.sort_unstable();
        indices
    }

    /// `f` on `exec`'s lanes, each replay through `verifiers[s]` on a
    /// scratch model lent for that replay; else on one scratch model on
    /// the calling thread.
    fn on_lanes<T>(
        &self,
        exec: Option<&Executor>,
        verifiers: &[&Verifier<'_>],
        f: impl FnOnce(Lanes<'_>) -> T,
    ) -> T {
        match exec {
            Some(exec) => {
                let replay = |s: usize, input: &[f32], segment| {
                    let mut model = self.checkout_scratch();
                    let replayed = verifiers[s].replay(&mut model, input, segment);
                    self.checkin_scratch(model);
                    replayed
                };
                f(Lanes::Exec(exec, &replay))
            }
            None => {
                let mut model = self.checkout_scratch();
                let out = f(Lanes::Serial(&mut model));
                self.checkin_scratch(model);
                out
            }
        }
    }

    /// The manager's §V-C sub-task for `epoch` from the current global
    /// model, keyed by the plan's calibration `nonce`: pure, so it may run
    /// beside the workers' training. Run A is one task of the attached
    /// executor and its replays are verification's lanes ([`Self::on_lanes`],
    /// subject 0 replaying on GPU B, 1 on GPU A); without an executor both
    /// run on the calling thread. The result is bitwise identical either
    /// way, at any width.
    pub(crate) fn calibrate(&self, nonce: u64, epoch: u64) -> CalibrationResult {
        let calibrator = Calibrator::new(
            &self.config,
            &self.manager_shard,
            self.policy,
            self.calibration_gpus,
        )
        .with_recorder(self.recorder.clone())
        .on(self.scheme.spec().lattice);
        let (exec, steps) = (self.executor.as_deref(), self.steps_per_epoch);
        let run_a = |_: usize| {
            let mut model = self.checkout_scratch();
            let trace = calibrator.train(&mut model, &self.global, nonce, steps, epoch);
            self.checkin_scratch(model);
            trace
        };
        let trace = {
            let _g = span!(self.recorder, "rpol.calibrate.trace", epoch, steps);
            match exec {
                Some(exec) => exec.run_indexed(1, run_a).pop().expect("run A"),
                None => run_a(0),
            }
        };
        let [gpu_b, gpu_a] = calibrator.replayers(nonce, epoch);
        let replayers = [&gpu_b, &gpu_a];
        let (cal, trained) = self.on_lanes(exec, &replayers, |lanes| {
            calibrator.measure(trace, &replayers, lanes, epoch)
        });
        scratch::put(trained);
        cal
    }
}

impl std::fmt::Debug for PoolManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PoolManager({:?}, {} weights, q {})",
            self.scheme,
            self.global.len(),
            self.q_samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::WorkerBehavior;
    use crate::verify::ProofUnavailable;
    use std::borrow::Cow;

    fn build_pool(scheme: Scheme, behaviors: &[WorkerBehavior]) -> (PoolManager, Vec<PoolWorker>) {
        let cfg = TaskConfig::tiny();
        let address = Address::from_seed(1);
        let data = SyntheticImages::generate(
            &cfg.spec,
            32 * (behaviors.len() + 1),
            &mut Pcg32::seed_from(4),
        );
        let mut shards = data.shard(behaviors.len() + 1);
        let manager_shard = shards.pop().expect("manager shard");
        let workers: Vec<PoolWorker> = behaviors
            .iter()
            .zip(shards)
            .enumerate()
            .map(|(i, (&b, shard))| PoolWorker::new(i, &cfg, &address, shard, GpuModel::GA10, b))
            .collect();
        let manager = PoolManager::new(cfg, scheme, address, manager_shard, 2, 4, 99);
        (manager, workers)
    }

    impl PoolManager {
        /// One serial epoch: begin, train every worker in order, finish.
        fn run_epoch(&mut self, workers: &mut [PoolWorker], epoch: u64) -> EpochReport {
            let plan = self.begin_epoch(workers.len(), epoch);
            let (cfg, global, mode) = (self.config, self.global.clone(), plan.commit_mode());
            let submissions: Vec<EpochSubmission> = workers
                .iter_mut()
                .enumerate()
                .map(|(w, worker)| {
                    worker.run_epoch(&cfg, &global, plan.nonces[w], plan.steps, epoch, mode)
                })
                .collect();
            self.finish_epoch(workers, &plan, &submissions)
        }
    }

    /// The `begin_epoch` the plan stage had before calibration could run
    /// beside training: the calibration nonce drawn, and the calibration
    /// run and adopted, inline ahead of the worker nonces.
    fn frozen_begin_epoch(m: &mut PoolManager, n_workers: usize, epoch: u64) -> EpochPlan {
        let spec = m.scheme.spec();
        let calibrates = match spec.calibration {
            Calibration::Never => false,
            Calibration::Once => m.cached_beta.is_none(),
            Calibration::EveryEpoch => true,
        };
        let calibration = calibrates.then(|| {
            let nonce = m.rng.next_u64();
            let cal = m.calibrate(nonce, epoch);
            m.cached_beta = Some(cal.beta);
            cal
        });
        let family = spec
            .hashes_by_lsh()
            .then(|| calibration.expect("calibrated").family(m.global.len()));
        let nonces = (0..n_workers).map(|_| m.rng.next_u64()).collect();
        let verification = m.prepare_verification(epoch, n_workers);
        EpochPlan {
            epoch,
            steps: m.steps_per_epoch,
            scheme: m.scheme,
            nonces,
            calibration_nonce: None,
            calibration,
            family,
            verification,
        }
    }

    /// `begin_epoch`, and the pool's `plan → calibrate → adopt`, equal the
    /// frozen `begin_epoch` on every scheme: nonces, schedule, calibration
    /// bits and family (a plan's `Debug` prints every float round-trip
    /// exactly), the cached `β`, and the manager RNG's next draw.
    #[test]
    fn begin_epoch_is_plan_calibrate_adopt() {
        let behaviors = [
            WorkerBehavior::Honest,
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
        ];
        for scheme in Scheme::ALL {
            let (mut frozen, _) = build_pool(scheme, &behaviors);
            let (mut begun, _) = build_pool(scheme, &behaviors);
            let (mut split, _) = build_pool(scheme, &behaviors);
            for epoch in 0..2 {
                let want = frozen_begin_epoch(&mut frozen, behaviors.len(), epoch);
                let via_begin = begun.begin_epoch(behaviors.len(), epoch);
                let mut via_split = split.plan(behaviors.len(), epoch);
                let calibration = via_split
                    .pending_calibration()
                    .map(|nonce| split.calibrate(nonce, epoch));
                split.adopt(&mut via_split, calibration);
                for (path, m, plan) in [("begin", &begun, via_begin), ("split", &split, via_split)]
                {
                    let at = format!("{scheme} epoch {epoch} via {path}");
                    assert_eq!(format!("{plan:?}"), format!("{want:?}"), "{at}");
                    assert_eq!(
                        m.cached_beta.map(f32::to_bits),
                        frozen.cached_beta.map(f32::to_bits),
                        "{at}"
                    );
                    assert_eq!(
                        m.rng.clone().next_u64(),
                        frozen.rng.clone().next_u64(),
                        "{at}"
                    );
                }
            }
        }
    }

    /// Task P's geometry: a weight vector the process pool keeps.
    fn pooled_task() -> TaskConfig {
        let mut cfg = TaskConfig::task_c();
        (cfg.spec.height, cfg.spec.width) = (24, 24);
        cfg
    }

    #[test]
    fn the_v3_start_image_is_a_pool_buffer_put_back_after_each_read() {
        let cfg = pooled_task();
        let shard = SyntheticImages::generate(&cfg.spec, 8, &mut Pcg32::seed_from(4));
        let address = Address::from_seed(1);
        let mut v3 = PoolManager::new(cfg, Scheme::RPoLv3, address, shard.clone(), 1, 4, 9);
        let plan = v3.plan(2, 0);
        let len = v3.global.len();
        // The pool is the process's: another test's pass may take the
        // buffer between the put and the take below, so one of three
        // reads must see it come back.
        let came_back = (0..3).any(|_| {
            let image = v3.start_model(&plan);
            let StartModel::Image(buf) = &image else {
                panic!("RPoLv3 starts from the lattice image");
            };
            assert_eq!(buf.capacity(), len.next_power_of_two(), "a pool class");
            assert_eq!(**buf, rpol_tensor::quant::bf16_image(&v3.global));
            let at = buf.as_ptr();
            drop(image);
            let next = scratch::take_empty::<f32>(len);
            let same = next.as_ptr() == at;
            scratch::put(next);
            same
        });
        assert!(came_back, "the image goes back to the pool when dropped");
        // The other schemes read the global model in place.
        let mut v2 = PoolManager::new(cfg, Scheme::RPoLv2, address, shard, 1, 4, 9);
        let plan = v2.plan(2, 0);
        assert!(
            matches!(v2.start_model(&plan), StartModel::Global(w) if std::ptr::eq(w, &v2.global[..]))
        );
    }

    #[test]
    fn baseline_accepts_everyone() {
        let (mut manager, mut workers) = build_pool(
            Scheme::Baseline,
            &[WorkerBehavior::Honest, WorkerBehavior::ReplayPrevious],
        );
        let report = manager.run_epoch(&mut workers, 0);
        assert_eq!(report.accepted.len(), 2);
        assert!(report.rejected.is_empty());
        assert_eq!(report.comm.proof_bytes, 0);
        assert!(report.calibration.is_none());
    }

    #[test]
    fn v1_accepts_honest_rejects_replayer() {
        let (mut manager, mut workers) = build_pool(
            Scheme::RPoLv1,
            &[WorkerBehavior::Honest, WorkerBehavior::ReplayPrevious],
        );
        let report = manager.run_epoch(&mut workers, 0);
        assert_eq!(report.accepted, vec![0], "outcomes: {report:?}");
        assert_eq!(report.rejected, vec![1]);
        assert!(report.replayed_steps > 0);
        assert!(report.calibration.is_some());
        // Second epoch: v1 does not recalibrate.
        let report2 = manager.run_epoch(&mut workers, 1);
        assert!(report2.calibration.is_none());
    }

    #[test]
    fn v2_accepts_honest_rejects_spoofer() {
        let (mut manager, mut workers) = build_pool(
            Scheme::RPoLv2,
            &[
                WorkerBehavior::Honest,
                WorkerBehavior::PartialSpoof {
                    honest_fraction: 0.0,
                    lambda: 0.5,
                },
            ],
        );
        let report = manager.run_epoch(&mut workers, 0);
        assert!(report.accepted.contains(&0), "honest rejected: {report:?}");
        assert!(report.rejected.contains(&1), "spoofer accepted: {report:?}");
        assert!(report.calibration.is_some());
    }

    #[test]
    fn v3_accepts_honest_rejects_spoofer_with_cheaper_hashing() {
        let attack = [
            WorkerBehavior::Honest,
            WorkerBehavior::PartialSpoof {
                honest_fraction: 0.0,
                lambda: 0.5,
            },
        ];
        let (mut manager, mut workers) = build_pool(Scheme::RPoLv3, &attack);
        let report = manager.run_epoch(&mut workers, 0);
        assert!(report.accepted.contains(&0), "honest rejected: {report:?}");
        assert!(report.rejected.contains(&1), "spoofer accepted: {report:?}");
        assert!(report.calibration.is_some(), "v3 calibrates every epoch");
        assert!(report.commit_bytes_hashed > 0);

        // The quantized digests hash roughly half the bytes RPoLv1 does
        // on the same model (2 bytes/weight vs 4, plus the LSH digests).
        let (mut m1, mut w1) = build_pool(Scheme::RPoLv1, &attack);
        let r1 = m1.run_epoch(&mut w1, 0);
        assert!(
            report.commit_bytes_hashed < r1.commit_bytes_hashed,
            "v3 hashed {} vs v1 {}",
            report.commit_bytes_hashed,
            r1.commit_bytes_hashed
        );
    }

    #[test]
    fn global_model_moves_only_with_accepted_updates() {
        let (mut manager, mut workers) =
            build_pool(Scheme::RPoLv1, &[WorkerBehavior::ReplayPrevious]);
        let before = manager.global_weights().to_vec();
        let report = manager.run_epoch(&mut workers, 0);
        assert!(report.accepted.is_empty());
        assert_eq!(manager.global_weights(), before.as_slice());
    }

    #[test]
    fn contributions_credit_accepted_workers() {
        let (mut manager, mut workers) = build_pool(
            Scheme::RPoLv1,
            &[WorkerBehavior::Honest, WorkerBehavior::ReplayPrevious],
        );
        manager.run_epoch(&mut workers, 0);
        manager.run_epoch(&mut workers, 1);
        // Two credits in all, both the honest worker's.
        assert_eq!(manager.contributions().total(), 2);
        assert_eq!(
            manager.contributions().distribute(2.0),
            vec![(workers[0].address, 2.0)]
        );
    }

    /// A link-backed provider reduced to what its fault draws are keyed
    /// by: every opening that is sent records `(seq, index)`, every opening
    /// claims a `seq` whether sent or skipped.
    #[derive(Default)]
    struct SeqRecorder {
        checkpoints: Vec<Vec<f32>>,
        seq: std::sync::atomic::AtomicU64,
        sent: parking_lot::Mutex<Vec<(u64, usize)>>,
    }

    impl SeqRecorder {
        fn next_seq(&self) -> u64 {
            self.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl ProofProvider for SeqRecorder {
        fn open_checkpoint(&self, index: usize) -> Result<Cow<'_, [f32]>, ProofUnavailable> {
            self.sent.lock().push((self.next_seq(), index));
            Ok(Cow::Borrowed(&self.checkpoints[index]))
        }

        fn skip_opening(&self) {
            self.next_seq();
        }
    }

    /// The draws-only-disappear property: with the two ends bound, a
    /// provider sends exactly the openings it sent without them minus
    /// those two, each under the `seq` it had — so every surviving exchange
    /// keeps its `(epoch, worker, kind, seq, attempt, length)` fault draws.
    #[test]
    fn eliding_held_ends_leaves_every_other_opening_on_its_seq() {
        use crate::commitment::EpochCommitment;
        use crate::trainer::LocalTrainer;
        let cfg = TaskConfig::tiny();
        let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
        let mut model = cfg.build_model();
        let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 11));
        let trace = trainer.run_epoch(&mut model, 3, 8);
        let last = trace.segments.len();
        assert_eq!(last, 4, "a 4-segment epoch");
        // v1 opens input and output of every sample: the most openings.
        let commitment = EpochCommitment::commit_v1(&trace.checkpoints);
        let mut elided_total = 0;
        for skipped in 0..last {
            // q = 3: every 3-subset of the 4 segments, in sample order.
            let samples: Vec<usize> = (0..last).filter(|&j| j != skipped).collect();
            let run = |held: bool| {
                let link = SeqRecorder {
                    checkpoints: trace.checkpoints.clone(),
                    ..SeqRecorder::default()
                };
                let ends = held.then(|| BoundEnds {
                    start: &trace.checkpoints[0],
                    last,
                    final_weights: &trace.checkpoints[last],
                });
                let noise = NoiseInjector::new(GpuModel::G3090, 99);
                let verdict = WorkerVerdict::merge_samples(
                    Verifier::new(&cfg, &data, 3, 0.5, None, noise).verify_each(
                        &mut cfg.build_model(),
                        &commitment,
                        &trace.segments,
                        &samples,
                        &link,
                        ends,
                    ),
                )
                .0;
                assert!(
                    verdict.all_accepted(),
                    "{samples:?}: {:?}",
                    verdict.outcomes
                );
                let sent = link.sent.lock().clone();
                (sent, link.seq.into_inner(), verdict.proof_bytes)
            };
            let (all, scheduled, all_bytes) = run(false);
            let (kept, scheduled_held, kept_bytes) = run(true);
            let expected: Vec<(u64, usize)> = all
                .iter()
                .copied()
                .filter(|&(_, index)| index != 0 && index != last)
                .collect();
            assert_eq!(kept, expected, "samples {samples:?}");
            assert_eq!(scheduled_held, scheduled, "seq counts openings scheduled");
            assert_eq!(all.len(), 6, "two openings per sample");
            // Bytes are charged per opening that crossed, and only those:
            // each its checkpoint's block.
            let charged = |sent: &[(u64, usize)]| -> u64 {
                sent.iter()
                    .map(|&(_, j)| {
                        crate::wire::block_len(Lattice::F32, &trace.checkpoints[j]) as u64
                    })
                    .sum()
            };
            assert_eq!(all_bytes, charged(&all));
            assert_eq!(kept_bytes, charged(&kept));
            elided_total += all.len() - kept.len();
        }
        // Segment 0 and segment 3 are each in three of the four sample sets.
        assert_eq!(elided_total, 6);
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let (mut manager, _) = build_pool(Scheme::RPoLv1, &[WorkerBehavior::Honest]);
        for _ in 0..10 {
            let s = manager.sample_indices(5);
            assert!(s.len() <= 2);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&i| i < 5));
        }
    }
}
