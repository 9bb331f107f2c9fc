//! The pool manager: epoch orchestration, secure sampling, verification,
//! aggregation, and reward crediting (§III-A, §V).

use crate::calibrate::{CalibrationPolicy, CalibrationResult, Calibrator};
use crate::pool::Scheme;
use crate::tasks::TaskConfig;
use crate::trainer::epoch_segments;
use crate::transport::TransportStats;
use crate::verify::{ProofProvider, SampleVerdict, Verifier, WorkerVerdict};
use crate::worker::{CommitMode, PoolWorker};
use rpol_chain::rewards::ContributionLedger;
use rpol_crypto::Address;
use rpol_exec::Executor;
use rpol_lsh::LshFamily;
use rpol_nn::data::SyntheticImages;
use rpol_nn::model::Sequential;
use rpol_obs::{event, span, Recorder};
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::ScratchArena;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A pooled verification replay state: a scratch model sharing the global
/// geometry plus the weight-sized staging arena its replay trainers use.
pub(crate) type ReplayState = (Sequential, ScratchArena);

/// Fixed-point scale of the order-invariant aggregation accumulator:
/// per-weight deltas are quantized to multiples of 2⁻²⁴ and summed as
/// `i64`, making the fold associative and commutative. Headroom: |delta|
/// ≤ 2¹⁵ gives 2³⁹ per worker, ~2⁵⁹ at 10⁶ workers — no overflow.
const AGG_SCALE: f64 = (1u64 << 24) as f64;

/// Per-epoch communication accounting (bytes over the star topology).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// Per-epoch accounting of the two-tier committee hierarchy. `None` on
/// flat runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// In-flight state of one hierarchical epoch reduction: everything the
/// top manager retains **between** committees. Deliberately O(pool size)
/// in verdict ids only — never in submissions or commitments, which
/// belong to exactly one committee at a time.
pub(crate) struct HierarchicalIngest {
    hierarchy: crate::committee::Hierarchy,
    /// Order-invariant fixed-point aggregation accumulator.
    acc: Vec<i64>,
    accepted: Vec<usize>,
    rejected: Vec<usize>,
    quarantined: Vec<usize>,
    verdicts: Vec<(usize, WorkerVerdict)>,
    double_checks: usize,
    replayed_steps: u64,
    /// Proof bytes folded into [`CommStats`] at finish (kept separate so
    /// committees never mutate the caller's comm accounting mid-epoch).
    proof_bytes: u64,
    commit_bytes_hashed: u64,
    peak_commit_bytes: u64,
    report: HierarchyReport,
}

/// What happened in one epoch of pooled training.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// The frozen outputs of [`PoolManager::begin_epoch`]: everything workers
/// need to train this epoch, fixed before any submission arrives.
#[derive(Debug, Clone)]
pub struct EpochPlan {
    /// Epoch number.
    pub epoch: u64,
    /// Steps each worker must train.
    pub steps: usize,
    scheme: Scheme,
    /// Per-worker nonces `N_t^w`.
    pub nonces: Vec<u64>,
    /// This epoch's calibration, when one ran.
    pub calibration: Option<CalibrationResult>,
    family: Option<LshFamily>,
}

impl EpochPlan {
    /// The commitment mode workers must use this epoch.
    pub fn commit_mode(&self) -> CommitMode<'_> {
        match (self.scheme, &self.family) {
            (Scheme::Baseline, _) => CommitMode::Skip,
            (Scheme::RPoLv1, _) => CommitMode::V1,
            (Scheme::RPoLv2, Some(f)) => CommitMode::V2(f),
            (Scheme::RPoLv3, Some(f)) => CommitMode::V3(f),
            (Scheme::RPoLv2 | Scheme::RPoLv3, None) => {
                unreachable!("v2/v3 always have a family")
            }
        }
    }
}

/// One worker's sampling decision plus the verifier's noise seed, drawn
/// serially so parallel verification stays deterministic.
#[derive(Debug, Clone)]
pub struct VerificationAssignment {
    /// Sampled checkpoint indices.
    pub samples: Vec<usize>,
    /// Seed of the manager-side replay noise.
    pub noise_seed: u64,
}

/// The serially-drawn inputs of one epoch's verification phase: the
/// checkpoint segment table plus every worker's sampling decision and
/// noise seed, indexed by worker id.
///
/// Training never touches the manager's RNG, so drawing this eagerly —
/// right after [`PoolManager::begin_epoch`] — consumes the exact same RNG
/// stream as drawing it after training. That equivalence is what lets the
/// overlapped pool runtime start verifying a worker's sampled checkpoints
/// the moment its submission lands, while other workers are still
/// training. The baseline scheme never draws sampling state, so
/// [`PoolManager::prepare_verification`] returns `None` for it on every
/// path.
#[derive(Debug, Clone)]
pub struct PreparedVerification {
    pub(crate) segments: Vec<crate::trainer::Segment>,
    pub(crate) assignments: Vec<VerificationAssignment>,
}

impl PreparedVerification {
    /// Number of sampled checkpoints assigned to `worker`.
    pub fn sample_count(&self, worker: usize) -> usize {
        self.assignments[worker].samples.len()
    }
}

/// One worker whose submission actually reached the manager this epoch,
/// with whatever channel serves its checkpoint openings: the worker itself
/// (in-process pools) or a fault-injecting transport endpoint. Workers
/// quarantined before verification simply have no participant.
#[derive(Clone, Copy)]
pub struct Participant<'a> {
    /// The worker's pool index.
    pub id: usize,
    /// The worker's reward address.
    pub address: Address,
    /// The worker's data shard (the manager holds a copy).
    pub shard: &'a SyntheticImages,
    /// The delivered submission.
    pub submission: &'a crate::worker::EpochSubmission,
    /// Serves checkpoint openings; may fail over a faulty transport.
    pub provider: &'a (dyn ProofProvider + Sync),
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
    /// Injector of the GPU the manager verifies on, never run itself:
    /// every verification `rerun`s it, so the GPU's fingerprint is drawn
    /// once per manager.
    verifier_noise: NoiseInjector,
    calibration_gpus: (GpuModel, GpuModel),
    rng: Pcg32,
    /// β cached from the first calibration, reused by RPoLv1.
    cached_beta: Option<f32>,
    contributions: ContributionLedger,
    /// Observability handle shared with the pool (defaults to no-op).
    recorder: Arc<Recorder>,
    /// Persistent executor for parallel verification and calibration
    /// fan-out. `None` on serial pools — the serial path never constructs
    /// a thread pool.
    executor: Option<Arc<Executor>>,
    /// Pooled replay states, checked out per verification task and
    /// returned afterwards, so steady-state verification stops allocating
    /// scratch models and weight-sized staging buffers.
    replay_pool: parking_lot::Mutex<Vec<ReplayState>>,
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
            verifier_noise: NoiseInjector::new(GpuModel::G3090, 0),
            calibration_gpus: GpuModel::top2(),
            rng: Pcg32::seed_from(seed ^ 0x4D47_5200),
            cached_beta: None,
            contributions: ContributionLedger::new(),
            recorder: rpol_obs::noop().clone(),
            executor: None,
            replay_pool: parking_lot::Mutex::new(Vec::new()),
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

    /// Attaches a persistent executor: parallel verification and
    /// calibration fan out onto its long-lived workers instead of
    /// spawning scoped threads per epoch. Serial pools never call this.
    pub fn set_executor(&mut self, exec: Arc<Executor>) {
        self.executor = Some(exec);
    }

    /// The attached executor, if any.
    pub fn executor(&self) -> Option<&Arc<Executor>> {
        self.executor.as_ref()
    }

    /// Checks a replay state out of the pool, building a fresh one on a
    /// miss. States recycle across epochs and samples: replay overwrites
    /// every parameter via `load_params` and the arena only lends
    /// capacity, so a reused state is bitwise-equivalent to a fresh one.
    pub(crate) fn checkout_replay_state(&self) -> ReplayState {
        let pooled = self.replay_pool.lock().pop();
        if self.recorder.enabled() {
            self.recorder.counter_add(
                if pooled.is_some() {
                    "rpol.verify.replay_pool_hits"
                } else {
                    "rpol.verify.replay_pool_misses"
                },
                1,
            );
        }
        pooled.unwrap_or_else(|| (self.scratch_model(), ScratchArena::new()))
    }

    /// Returns a replay state to the pool for reuse.
    pub(crate) fn checkin_replay_state(&self, state: ReplayState) {
        self.replay_pool.lock().push(state);
    }

    /// The current global model weights.
    pub fn global_weights(&self) -> &[f32] {
        &self.global
    }

    /// This epoch's global-model block for the task broadcast, encoded
    /// once and shared by every worker's task frame. Every RPoLv3 consumer
    /// of a task starts from `snap_to_bf16(global)` (`PoolWorker::run_epoch`,
    /// `LocalTrainer::run_epoch_quantized`) and the snap is idempotent, so
    /// v3 ships the packed lattice image; the other schemes ship raw f32.
    /// The manager's own f32 aggregate is untouched.
    pub(crate) fn task_block(&self) -> crate::wire::TaskBlock {
        self.recorder
            .counter_add("rpol.wire.task_blocks_encoded", 1);
        match self.scheme {
            Scheme::RPoLv3 => {
                crate::wire::TaskBlock::packed(&rpol_tensor::quant::bf16_image(&self.global))
            }
            Scheme::Baseline | Scheme::RPoLv1 | Scheme::RPoLv2 => {
                crate::wire::TaskBlock::raw(&self.global)
            }
        }
    }

    /// Broadcast bytes the in-process paths charge for sending the global
    /// model to `n_workers`: 4 bytes per weight, or the packed 2 under
    /// RPoLv3 — the same story the wire tells (see [`Self::task_block`]).
    pub(crate) fn broadcast_bytes(&self, n_workers: usize) -> u64 {
        let per_weight = match self.scheme {
            Scheme::RPoLv3 => 2,
            Scheme::Baseline | Scheme::RPoLv1 | Scheme::RPoLv2 => 4,
        };
        (self.global.len() * per_weight * n_workers) as u64
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

    /// Runs one full epoch of the pool protocol over `workers` and
    /// advances the global model.
    ///
    /// Equivalent to [`PoolManager::begin_epoch`], collecting every
    /// worker's submission serially, then [`PoolManager::finish_epoch`].
    /// The parallel pool runtime uses the two-phase API directly.
    pub fn run_epoch(&mut self, workers: &mut [PoolWorker], epoch: u64) -> EpochReport {
        assert!(!workers.is_empty(), "pool has no workers");
        let plan = self.begin_epoch(workers.len(), epoch);
        let recorder = self.recorder.clone();
        let submissions: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(w, worker)| {
                let _g = span!(
                    recorder,
                    "rpol.worker.train_epoch",
                    epoch,
                    worker = w,
                    steps = plan.steps
                );
                worker.run_epoch(
                    &self.config,
                    &self.global,
                    plan.nonces[w],
                    plan.steps,
                    epoch,
                    plan.commit_mode(),
                )
            })
            .collect();
        self.finish_epoch(workers, &plan, &submissions)
    }

    /// Phase 1 of an epoch: calibrate (per scheme policy) and fix the
    /// per-worker nonces and the commitment mode. After this, workers can
    /// train **concurrently** — nothing in the plan changes until
    /// [`PoolManager::finish_epoch`].
    pub fn begin_epoch(&mut self, n_workers: usize, epoch: u64) -> EpochPlan {
        assert!(n_workers > 0, "pool has no workers");
        // Adaptive calibration: every epoch for v2, once for v1.
        let calibration = match self.scheme {
            Scheme::Baseline => None,
            Scheme::RPoLv1 => {
                if self.cached_beta.is_none() {
                    let cal = self.calibrate(epoch);
                    self.cached_beta = Some(cal.beta);
                    Some(cal)
                } else {
                    None
                }
            }
            Scheme::RPoLv2 | Scheme::RPoLv3 => {
                let cal = self.calibrate(epoch);
                self.cached_beta = Some(cal.beta);
                Some(cal)
            }
        };
        let family: Option<LshFamily> = match self.scheme {
            Scheme::RPoLv2 | Scheme::RPoLv3 => {
                let cal = calibration.expect("v2/v3 calibrate every epoch");
                Some(cal.family(self.global.len()))
            }
            _ => None,
        };
        // Per-worker nonces for stochastic-yet-deterministic selection.
        let nonces: Vec<u64> = (0..n_workers).map(|_| self.rng.next_u64()).collect();
        EpochPlan {
            epoch,
            steps: self.steps_per_epoch,
            scheme: self.scheme,
            nonces,
            calibration,
            family,
        }
    }

    /// Phase 2 of an epoch: reveal sampling decisions, verify every
    /// submission, aggregate the accepted updates (Eq. 1) and credit
    /// contributions.
    ///
    /// # Panics
    ///
    /// Panics if `submissions` does not align with `workers`.
    pub fn finish_epoch(
        &mut self,
        workers: &[PoolWorker],
        plan: &EpochPlan,
        submissions: &[crate::worker::EpochSubmission],
    ) -> EpochReport {
        self.finish_epoch_workers(workers, plan, submissions, false)
    }

    /// Like [`PoolManager::finish_epoch`], but verifies workers on
    /// parallel threads (the paper's future-work "decentralized
    /// verification" runs the same fan-out across worker nodes). Sampling
    /// decisions and noise seeds are drawn serially first, so the result
    /// is identical to the serial path.
    pub fn finish_epoch_parallel(
        &mut self,
        workers: &[PoolWorker],
        plan: &EpochPlan,
        submissions: &[crate::worker::EpochSubmission],
    ) -> EpochReport {
        self.finish_epoch_workers(workers, plan, submissions, true)
    }

    /// Shared delegate for the in-process (fault-free) epoch finish: every
    /// worker participates, openings are served locally and never fail.
    fn finish_epoch_workers(
        &mut self,
        workers: &[PoolWorker],
        plan: &EpochPlan,
        submissions: &[crate::worker::EpochSubmission],
        parallel: bool,
    ) -> EpochReport {
        let n = workers.len();
        assert_eq!(submissions.len(), n, "one submission per worker");
        let participants: Vec<Participant<'_>> = workers
            .iter()
            .map(|worker| Participant {
                id: worker.id,
                address: worker.address,
                shard: worker.shard(),
                submission: &submissions[worker.id],
                provider: worker,
            })
            .collect();
        let mut comm = CommStats {
            broadcast_bytes: self.broadcast_bytes(n),
            ..CommStats::default()
        };
        for sub in submissions {
            comm.submission_bytes += sub.upload_bytes;
        }
        self.finish_epoch_partial(plan, n, &participants, &[], comm, parallel)
    }

    /// Phase 2 of an epoch under possible transport faults: verify the
    /// submissions that *arrived*, aggregate the accepted updates (Eq. 1)
    /// and credit contributions. Workers whose submissions never made it
    /// are passed in `quarantined_before`; workers whose proof channel
    /// dies mid-verification join them. `comm` carries the broadcast and
    /// submission byte counts the caller already accounted.
    ///
    /// Sampling decisions and noise seeds are drawn for **all**
    /// `n_workers` — quarantined ones included — so the manager's RNG
    /// schedule is independent of which links happened to fail.
    ///
    /// # Panics
    ///
    /// Panics if a participant id is out of `0..n_workers`.
    pub fn finish_epoch_partial(
        &mut self,
        plan: &EpochPlan,
        n_workers: usize,
        participants: &[Participant<'_>],
        quarantined_before: &[usize],
        comm: CommStats,
        parallel: bool,
    ) -> EpochReport {
        assert!(
            participants.iter().all(|p| p.id < n_workers),
            "participant id out of range"
        );
        let prepared = self.prepare_verification(plan, n_workers);
        let verdict_list = prepared
            .as_ref()
            .map(|prepared| self.verify_committee(participants, plan, prepared, parallel));
        self.reduce_epoch(plan, participants, quarantined_before, comm, verdict_list)
    }

    /// Verifies a group of participants — a whole flat roster or one
    /// committee's members — against an already-prepared verification
    /// schedule, returning one verdict per participant in order. Shared by
    /// the flat finish path and the hierarchical sub-managers: the verdict
    /// for a worker depends only on its own assignment, so partitioning
    /// the roster into committees cannot change any verdict.
    pub(crate) fn verify_committee(
        &self,
        participants: &[Participant<'_>],
        plan: &EpochPlan,
        prepared: &PreparedVerification,
        parallel: bool,
    ) -> Vec<WorkerVerdict> {
        if parallel {
            self.verify_participants_parallel(participants, plan, prepared)
        } else {
            let (mut scratch, mut arena) = self.checkout_replay_state();
            let verdicts = participants
                .iter()
                .map(|part| {
                    self.verify_one(
                        &mut scratch,
                        &mut arena,
                        part,
                        plan,
                        &prepared.segments,
                        &prepared.assignments[part.id],
                    )
                })
                .collect();
            self.checkin_replay_state((scratch, arena));
            verdicts
        }
    }

    /// Re-verifies one participant from scratch — the top manager's audit
    /// replay. Identical numerics to the sub-manager's verification (same
    /// assignment, nonce, noise seed, pooled replay states), so an honest
    /// committee's audited verdict always matches bit for bit; the audit's
    /// replay and proof costs are charged to [`HierarchyReport`], never to
    /// the tier-1 epoch accounting.
    pub(crate) fn audit_one(
        &self,
        part: &Participant<'_>,
        plan: &EpochPlan,
        prepared: &PreparedVerification,
    ) -> WorkerVerdict {
        let (mut scratch, mut arena) = self.checkout_replay_state();
        let verdict = self.verify_one(
            &mut scratch,
            &mut arena,
            part,
            plan,
            &prepared.segments,
            &prepared.assignments[part.id],
        );
        self.checkin_replay_state((scratch, arena));
        verdict
    }

    /// Starts a hierarchical epoch reduction (DESIGN.md §15): committees
    /// stream through [`PoolManager::ingest_committee`] one at a time, and
    /// [`PoolManager::ingest_finish`] closes the epoch. Shared by the
    /// in-process streaming pool and the socket server so the two-tier
    /// accept/reject rule exists in exactly one place.
    pub(crate) fn ingest_begin(
        &self,
        hierarchy: crate::committee::Hierarchy,
        quarantined_before: &[usize],
    ) -> HierarchicalIngest {
        HierarchicalIngest {
            hierarchy,
            acc: self.agg_begin(),
            accepted: Vec::new(),
            rejected: Vec::new(),
            quarantined: quarantined_before.to_vec(),
            verdicts: Vec::new(),
            double_checks: 0,
            replayed_steps: 0,
            proof_bytes: 0,
            commit_bytes_hashed: 0,
            peak_commit_bytes: 0,
            report: HierarchyReport {
                committees: hierarchy.committees,
                ..HierarchyReport::default()
            },
        }
    }

    /// One committee's full sub-manager → top-manager round trip:
    ///
    /// 1. **Sub-manager**: sampled-replay verification over the
    ///    committee's delivered participants, verdicts Merkle-committed
    ///    into a [`CommitteeBatch`](crate::committee::CommitteeBatch).
    /// 2. **Wire**: the batch is encoded, framed, and decoded back — the
    ///    byte accounting and codec are the real thing, not a model.
    /// 3. **Top manager**: root-consistency check (anything else is
    ///    sub-manager equivocation), then `q_top` spot-audits — Merkle
    ///    inclusion proof plus a full re-replay of the audited worker —
    ///    with audit costs charged to the [`HierarchyReport`] only.
    /// 4. **Classification**: accept/reject/quarantine per the delivered
    ///    verdicts, accepted updates folded into the order-invariant
    ///    fixed-point accumulator so the caller can drop the committee's
    ///    submissions before the next committee runs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn ingest_committee(
        &mut self,
        ingest: &mut HierarchicalIngest,
        seed: u64,
        committee: usize,
        participants: &[Participant<'_>],
        plan: &EpochPlan,
        prepared: &PreparedVerification,
        parallel: bool,
    ) {
        use crate::committee::{audit_indices, CommitteeBatch};
        if participants.is_empty() {
            return;
        }
        let verdict_list = self.verify_committee(participants, plan, prepared, parallel);
        let committee_commit_bytes: u64 = participants
            .iter()
            .map(|p| p.submission.commit_bytes_hashed)
            .sum();
        let batch = CommitteeBatch::from_verdicts(
            plan.epoch,
            committee,
            participants
                .iter()
                .map(|p| p.id)
                .zip(verdict_list)
                .collect(),
            committee_commit_bytes,
        );
        let payload = crate::wire::encode_committee_batch(&batch);
        ingest.report.batch_bytes += crate::wire::seal_frame(&payload).len() as u64;
        let delivered = crate::wire::decode_committee_batch(payload)
            .expect("self-encoded committee batch decodes");
        assert!(
            delivered.root_consistent(),
            "committee batch equivocation: root does not cover the shipped verdicts"
        );
        for &i in &audit_indices(
            seed,
            plan.epoch,
            committee,
            ingest.hierarchy.q_top,
            delivered.verdicts.len(),
        ) {
            let (w, committed) = &delivered.verdicts[i];
            let proof = delivered.prove(i);
            assert!(
                delivered.verify_inclusion(&proof, *w, committed),
                "audited verdict failed its inclusion proof"
            );
            let replayed = self.audit_one(&participants[i], plan, prepared);
            ingest.report.audits += 1;
            ingest.report.audit_replayed_steps += replayed.replayed_steps;
            ingest.report.audit_proof_bytes += replayed.proof_bytes;
            if replayed != *committed {
                ingest.report.audit_mismatches += 1;
                event!(
                    self.recorder,
                    "rpol.committee.audit_mismatch",
                    epoch = plan.epoch,
                    committee,
                    worker = *w
                );
            }
        }
        ingest.report.verdicts += delivered.verdicts.len() as u64;
        for ((w, verdict), part) in delivered.verdicts.into_iter().zip(participants) {
            debug_assert_eq!(w, part.id, "batch order matches participant order");
            ingest.proof_bytes += verdict.proof_bytes;
            ingest.double_checks += verdict.double_checks();
            ingest.replayed_steps += verdict.replayed_steps;
            if verdict.transport_failed() {
                ingest.quarantined.push(w);
            } else if verdict.all_accepted() {
                ingest.accepted.push(w);
                self.agg_accumulate(&mut ingest.acc, &part.submission.final_weights);
                self.credit(part.address);
            } else {
                ingest.rejected.push(w);
            }
            ingest.verdicts.push((w, verdict));
        }
        ingest.commit_bytes_hashed += committee_commit_bytes;
        ingest.peak_commit_bytes = ingest.peak_commit_bytes.max(committee_commit_bytes);
    }

    /// Closes a hierarchical epoch: canonical worker-id ordering (the
    /// flat reduce walks participants in id order, so sorting restores
    /// the identical layout), one renormalized aggregation step, and the
    /// assembled [`EpochReport`].
    pub(crate) fn ingest_finish(
        &mut self,
        mut ingest: HierarchicalIngest,
        plan: &EpochPlan,
        mut comm: CommStats,
    ) -> EpochReport {
        ingest.accepted.sort_unstable();
        ingest.rejected.sort_unstable();
        ingest.quarantined.sort_unstable();
        ingest.verdicts.sort_by_key(|&(w, _)| w);
        self.agg_finalize(&ingest.acc, ingest.accepted.len());
        comm.proof_bytes += ingest.proof_bytes;
        EpochReport {
            epoch: plan.epoch,
            accepted: ingest.accepted,
            rejected: ingest.rejected,
            quarantined: ingest.quarantined,
            transport: TransportStats::default(),
            double_checks: ingest.double_checks,
            replayed_steps: ingest.replayed_steps,
            commit_bytes_hashed: ingest.commit_bytes_hashed,
            peak_commit_bytes: ingest.peak_commit_bytes,
            hierarchy: Some(ingest.report),
            comm,
            calibration: plan.calibration,
            verdicts: ingest.verdicts,
        }
    }

    /// Runs a whole two-tier reduction over one batch of delivered
    /// participants: rendezvous-partition them into committees, stream
    /// each committee through [`Self::ingest_committee`], and close the
    /// epoch with [`Self::ingest_finish`].
    ///
    /// `enter_committee(c, present)` runs once per committee — including
    /// empty ones, whose ingest is a no-op — and its return value is held
    /// for that committee's duration, so callers can hang per-committee
    /// trace spans (or any other scope guard) off the reduction without
    /// owning its loop.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn ingest_partitioned<G>(
        &mut self,
        hierarchy: crate::committee::Hierarchy,
        seed: u64,
        n_workers: usize,
        participants: &[Participant<'_>],
        quarantined: &[usize],
        plan: &EpochPlan,
        prepared: &PreparedVerification,
        parallel: bool,
        comm: CommStats,
        mut enter_committee: impl FnMut(usize, usize) -> G,
    ) -> EpochReport {
        let mut ingest = self.ingest_begin(hierarchy, quarantined);
        let grouped =
            crate::committee::select_present(seed, n_workers, hierarchy.committees, participants);
        for (c, present) in grouped.iter().enumerate() {
            let _guard = enter_committee(c, present.len());
            self.ingest_committee(&mut ingest, seed, c, present, plan, prepared, parallel);
        }
        self.ingest_finish(ingest, plan, comm)
    }

    /// Draws the epoch's verification schedule: the segment table plus
    /// per-worker sample indices and noise seeds. Returns `None` for the
    /// baseline scheme, which never draws sampling state. Sampling
    /// decisions are drawn serially for **all** `n_workers` (quarantined
    /// included), so the `rpol.manager.sample` events land in worker
    /// order on every code path.
    pub(crate) fn prepare_verification(
        &mut self,
        plan: &EpochPlan,
        n_workers: usize,
    ) -> Option<PreparedVerification> {
        if matches!(self.scheme, Scheme::Baseline) {
            return None;
        }
        let segments = epoch_segments(plan.steps, self.config.checkpoint_interval);
        let assignments = self.verification_assignments(n_workers, segments.len());
        if self.recorder.enabled() {
            for (w, assignment) in assignments.iter().enumerate() {
                event!(
                    self.recorder,
                    "rpol.manager.sample",
                    epoch = plan.epoch,
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

    /// Worker-granular parallel verification: one task per participant,
    /// on the persistent executor when one is attached (scoped threads
    /// otherwise). Kept worker-granular — rather than per-sample — on the
    /// transport path because a faulty provider's fault draws are keyed
    /// by its own request sequence, which must advance in sample order.
    fn verify_participants_parallel(
        &self,
        participants: &[Participant<'_>],
        plan: &EpochPlan,
        prepared: &PreparedVerification,
    ) -> Vec<WorkerVerdict> {
        let verify = |i: usize| {
            let part = &participants[i];
            let (mut scratch, mut arena) = self.checkout_replay_state();
            let verdict = self.verify_one(
                &mut scratch,
                &mut arena,
                part,
                plan,
                &prepared.segments,
                &prepared.assignments[part.id],
            );
            self.checkin_replay_state((scratch, arena));
            verdict
        };
        if let Some(exec) = &self.executor {
            exec.run_indexed(participants.len(), verify)
        } else {
            let slots: parking_lot::Mutex<Vec<Option<WorkerVerdict>>> =
                parking_lot::Mutex::new((0..participants.len()).map(|_| None).collect());
            crossbeam::thread::scope(|scope| {
                for i in 0..participants.len() {
                    let verify = &verify;
                    let slots = &slots;
                    scope.spawn(move |_| {
                        slots.lock()[i] = Some(verify(i));
                    });
                }
            })
            .expect("verification thread panicked");
            slots
                .into_inner()
                .into_iter()
                .map(|s| s.expect("every participant verified"))
                .collect()
        }
    }

    /// The serial tail of an epoch: merge per-worker verdicts in
    /// participant order, aggregate the accepted updates (Eq. 1) and
    /// credit contributions. `verdict_list` is `None` for the baseline
    /// scheme (every delivered submission is aggregated) and otherwise
    /// holds one verdict per participant, in participant order.
    pub(crate) fn reduce_epoch(
        &mut self,
        plan: &EpochPlan,
        participants: &[Participant<'_>],
        quarantined_before: &[usize],
        mut comm: CommStats,
        verdict_list: Option<Vec<WorkerVerdict>>,
    ) -> EpochReport {
        let mut accepted = Vec::new();
        let mut rejected = Vec::new();
        let mut quarantined: Vec<usize> = quarantined_before.to_vec();
        let mut double_checks = 0;
        let mut replayed_steps = 0;
        let mut verdicts = Vec::new();
        match verdict_list {
            // No verification: every delivered submission is aggregated.
            None => accepted.extend(participants.iter().map(|p| p.id)),
            Some(list) => {
                assert_eq!(
                    list.len(),
                    participants.len(),
                    "one verdict per participant"
                );
                for (part, verdict) in participants.iter().zip(list) {
                    comm.proof_bytes += verdict.proof_bytes;
                    double_checks += verdict.double_checks();
                    replayed_steps += verdict.replayed_steps;
                    if verdict.transport_failed() {
                        // Openings stopped arriving: a dead or exhausted
                        // link, not evidence of cheating.
                        quarantined.push(part.id);
                    } else if verdict.all_accepted() {
                        accepted.push(part.id);
                    } else {
                        rejected.push(part.id);
                    }
                    verdicts.push((part.id, verdict));
                }
            }
        }
        quarantined.sort_unstable();
        let commit_bytes_hashed = participants
            .iter()
            .map(|p| p.submission.commit_bytes_hashed)
            .sum();

        self.aggregate_and_credit(participants, &accepted);
        EpochReport {
            epoch: plan.epoch,
            accepted,
            rejected,
            quarantined,
            transport: TransportStats::default(),
            double_checks,
            replayed_steps,
            commit_bytes_hashed,
            // Flat epochs hold every delivered commitment at once.
            peak_commit_bytes: commit_bytes_hashed,
            hierarchy: None,
            comm,
            calibration: plan.calibration,
            verdicts,
        }
    }

    /// Verifies a single sampled checkpoint of one participant — the
    /// segment-granular unit the overlapped pool runtime schedules as an
    /// executor task the moment the worker's submission lands. Per-sample
    /// verdicts merged in index order via [`WorkerVerdict::from_samples`]
    /// are bitwise-identical to the batch [`Verifier::verify_samples`]
    /// path: the verifier clones its pristine injector per sample either
    /// way, and replay fully overwrites the pooled scratch model.
    pub(crate) fn verify_prepared_sample(
        &self,
        part: &Participant<'_>,
        plan: &EpochPlan,
        prepared: &PreparedVerification,
        sample_pos: usize,
    ) -> SampleVerdict {
        let assignment = &prepared.assignments[part.id];
        let beta = self.cached_beta.expect("calibrated");
        let commitment = part
            .submission
            .commitment
            .as_ref()
            .expect("verified schemes commit");
        let (mut scratch, arena) = self.checkout_replay_state();
        let mut verifier = Verifier::with_arena(
            &self.config,
            part.shard,
            plan.nonces[part.id],
            beta,
            plan.family.as_ref(),
            self.verifier_noise.rerun(assignment.noise_seed),
            arena,
        )
        .with_recorder(&self.recorder);
        let verdict = verifier.verify_sample(
            &mut scratch,
            commitment,
            &prepared.segments,
            assignment.samples[sample_pos],
            part.provider,
        );
        self.checkin_replay_state((scratch, verifier.into_arena()));
        verdict
    }

    /// Draws the per-worker sampling decisions and verifier noise seeds —
    /// the serial part of verification, kept deterministic under the
    /// manager's RNG.
    pub(crate) fn verification_assignments(
        &mut self,
        n_workers: usize,
        segment_count: usize,
    ) -> Vec<VerificationAssignment> {
        (0..n_workers)
            .map(|_| {
                let samples = self.sample_indices(segment_count);
                let noise_seed = self.rng.next_u64();
                VerificationAssignment {
                    samples,
                    noise_seed,
                }
            })
            .collect()
    }

    /// Verifies one participant's submission against one assignment.
    /// Requires only shared access to the manager, so callers may fan out
    /// across threads with per-thread scratch models and arenas; `arena`
    /// carries the replay trainers' weight-sized staging buffers from one
    /// participant to the next, so steady-state verification threads stop
    /// allocating per checkpoint.
    pub(crate) fn verify_one(
        &self,
        scratch: &mut rpol_nn::model::Sequential,
        arena: &mut rpol_tensor::scratch::ScratchArena,
        part: &Participant<'_>,
        plan: &EpochPlan,
        segments: &[crate::trainer::Segment],
        assignment: &VerificationAssignment,
    ) -> WorkerVerdict {
        let beta = self.cached_beta.expect("calibrated");
        let _g = span!(
            self.recorder,
            "rpol.verify.worker",
            epoch = plan.epoch,
            worker = part.id,
            samples = assignment.samples.len()
        );
        let commitment = part
            .submission
            .commitment
            .as_ref()
            .expect("verified schemes commit");
        let mut verifier = Verifier::with_arena(
            &self.config,
            part.shard,
            plan.nonces[part.id],
            beta,
            plan.family.as_ref(),
            self.verifier_noise.rerun(assignment.noise_seed),
            std::mem::take(arena),
        )
        .with_recorder(&self.recorder);
        let verdict = verifier.verify_samples(
            scratch,
            commitment,
            segments,
            &assignment.samples,
            part.provider,
        );
        *arena = verifier.into_arena();
        verdict
    }

    /// Builds a fresh scratch model with the current global geometry, for
    /// per-thread verification.
    pub(crate) fn scratch_model(&self) -> rpol_nn::model::Sequential {
        self.config.build_model_like(&self.global)
    }

    fn aggregate_and_credit(&mut self, participants: &[Participant<'_>], accepted: &[usize]) {
        // Aggregation (Eq. 1 with equal shards), restricted to accepted
        // updates: `|D|` is the union of the data actually aggregated, so
        // the weights renormalize over the accepted set — a verified pool
        // full of cheaters (or quarantined links) still trains at full
        // speed on its healthy honest workers' shards instead of being
        // diluted by dropped terms.
        let mut acc = self.agg_begin();
        let mut n_accepted = 0usize;
        for part in participants.iter().filter(|p| accepted.contains(&p.id)) {
            self.agg_accumulate(&mut acc, &part.submission.final_weights);
            n_accepted += 1;
        }
        self.agg_finalize(&acc, n_accepted);
        // Credit verified contributions for the eventual reward split.
        for part in participants.iter().filter(|p| accepted.contains(&p.id)) {
            self.contributions.credit(part.address);
        }
    }

    /// Starts an order-invariant aggregation of one epoch's accepted
    /// updates. Per-weight deltas are accumulated as fixed-point `i64`
    /// (scale 2⁻²⁴, finer than f32 resolution on unit-scale weights), so
    /// the sum is an associative, commutative integer addition: the
    /// hierarchical runtime folds updates in committee order, the flat one
    /// in worker order, and both land on bitwise-identical global weights.
    pub(crate) fn agg_begin(&self) -> Vec<i64> {
        vec![0i64; self.global.len()]
    }

    /// Folds one accepted worker's final weights into the accumulator.
    pub(crate) fn agg_accumulate(&self, acc: &mut [i64], final_weights: &[f32]) {
        for (a, (&cur, &fin)) in acc.iter_mut().zip(self.global.iter().zip(final_weights)) {
            *a += (((fin - cur) as f64) * AGG_SCALE).round() as i64;
        }
    }

    /// Applies the accumulated deltas, renormalized over the accepted
    /// count, to the global model. No-op when nothing was accepted.
    pub(crate) fn agg_finalize(&mut self, acc: &[i64], n_accepted: usize) {
        if n_accepted == 0 {
            return;
        }
        let weight = 1.0f64 / n_accepted as f64;
        for (g, &a) in self.global.iter_mut().zip(acc) {
            *g = (*g as f64 + weight * (a as f64 / AGG_SCALE)) as f32;
        }
    }

    /// Credits one accepted worker for the eventual reward split — the
    /// streaming hierarchical runtime's counterpart of the crediting loop
    /// in [`PoolManager::reduce_epoch`].
    pub(crate) fn credit(&mut self, address: Address) {
        self.contributions.credit(address);
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

    fn calibrate(&mut self, epoch: u64) -> CalibrationResult {
        let calibrator = Calibrator::new(
            &self.config,
            &self.manager_shard,
            self.policy,
            self.calibration_gpus,
        )
        .with_recorder(self.recorder.clone())
        .quantized(matches!(self.scheme, Scheme::RPoLv3));
        let nonce = self.rng.next_u64();
        // With an executor attached the per-(replay, segment) measurements
        // fan out onto its workers; `calibrate_with` is bitwise-identical
        // either way, so serial and parallel pools calibrate alike.
        let (cal, _trained) = calibrator.calibrate_with(
            &self.global,
            nonce,
            self.steps_per_epoch,
            epoch,
            self.executor.as_deref(),
        );
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
        assert_eq!(manager.contributions().credits(&workers[0].address), 2);
        assert_eq!(manager.contributions().credits(&workers[1].address), 0);
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
