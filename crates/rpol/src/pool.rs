//! The assembled mining pool: data sharding, multi-epoch training with
//! verification, accuracy tracking, and accounting — the engine behind the
//! Fig. 6 attack experiments and the §VII-E overhead measurements.

use crate::adversary::WorkerBehavior;
use crate::committee::{partition, Hierarchy};
use crate::manager::{CommStats, EpochPlan, EpochReport, Participant, PoolManager};
use crate::tasks::TaskConfig;
use crate::transport::{FaultConfig, TransportStats};
use crate::worker::{EpochSubmission, PoolWorker};
use rpol_crypto::Address;
use rpol_exec::Executor;
use rpol_nn::data::SyntheticImages;
use rpol_nn::metrics::correct_count;
use rpol_obs::{event, span, Recorder};
use rpol_sim::gpu::GpuModel;
use rpol_sim::SimClock;
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch;
use serde::Serialize;
use std::sync::Arc;

/// Fixed evaluation chunk (rows per forward pass). Serial and parallel
/// evaluation run the same chunk shapes and merge integer correct-counts
/// in index order, so their reported accuracy is bitwise identical.
const EVAL_CHUNK: usize = 16;

/// Which verification scheme the pool runs (§VII-E). Each scheme is one
/// row of settings, [`Scheme::spec`]; code reads the setting it needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Scheme {
    /// No verification — every submission is aggregated (insecure).
    Baseline,
    /// Sampled replay with raw-weight proofs.
    RPoLv1,
    /// Sampled replay with LSH commitments and adaptive calibration.
    RPoLv2,
    /// Sampled replay over bf16-lattice checkpoints: quantized commitment
    /// digests (half the hashed bytes), packed wire framing (half the
    /// payload bytes), and a raw-distance double-check escape hatch when
    /// an LSH match is borderline.
    RPoLv3,
}

impl Scheme {
    /// Every scheme, in wire-byte order.
    pub const ALL: [Scheme; 4] = [
        Scheme::Baseline,
        Scheme::RPoLv1,
        Scheme::RPoLv2,
        Scheme::RPoLv3,
    ];

    /// This scheme's settings.
    pub fn spec(self) -> &'static SchemeSpec {
        &SCHEMES[self as usize]
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().name)
    }
}

/// What a commitment entry binds a checkpoint by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// Nothing: no commitment, no verification.
    None,
    /// SHA-256 of the checkpoint's bytes (its bf16 image on that lattice).
    Sha256,
    /// The checkpoint's LSH group digests.
    LshGroups,
}

/// What a replayed checkpoint is matched to the committed one by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchDigest {
    /// The raw-weight distance to the opened checkpoint.
    RawDistance,
    /// Its LSH group digests, the opening fetched only to double-check.
    LshGroups,
}

/// Where training checkpoints live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lattice {
    /// Full f32 weights: about 3.5 bytes each on the wire.
    F32,
    /// Snapped to bf16 at every checkpoint: about 1.5 bytes each on the
    /// wire.
    Bf16,
}

impl Lattice {
    /// Bytes one weight takes on the lattice: 4 on `F32`, 2 on `Bf16`.
    pub fn bytes_per_weight(self) -> usize {
        match self {
            Lattice::F32 => 4,
            Lattice::Bf16 => 2,
        }
    }

    /// Moves `weights` onto the lattice: nothing on `F32`, the bf16 snap
    /// on `Bf16`. Idempotent either way.
    pub fn snap(self, weights: &mut [f32]) {
        if self == Lattice::Bf16 {
            rpol_tensor::quant::snap_to_bf16(weights);
        }
    }
}

/// How often the manager calibrates the tolerance `β` (§V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calibration {
    /// Never: nothing is verified.
    Never,
    /// In the first epoch; later epochs reuse its `β`.
    Once,
    /// Every epoch, which also seeds the epoch's LSH family.
    EveryEpoch,
}

/// One scheme's settings: a row of the table [`Scheme::spec`] reads.
#[derive(Debug)]
#[non_exhaustive]
pub struct SchemeSpec {
    /// Display name.
    pub name: &'static str,
    /// The CLI's `--scheme` value.
    pub flag: &'static str,
    /// The byte a [`CommitSpec`](crate::wire::NetControl::CommitSpec) carries.
    pub wire: u8,
    /// What a commitment binds.
    pub binding: Binding,
    /// What a replay is matched by.
    pub digest: MatchDigest,
    /// Where checkpoints live.
    pub lattice: Lattice,
    /// How often the manager calibrates.
    pub calibration: Calibration,
}

impl SchemeSpec {
    /// Whether submissions are committed and verified at all.
    pub fn verifies(&self) -> bool {
        self.binding != Binding::None
    }

    /// Whether commitments carry LSH group digests, so the epoch has a
    /// family.
    pub fn hashes_by_lsh(&self) -> bool {
        self.digest == MatchDigest::LshGroups
    }
}

/// The table, indexed by [`Scheme`] discriminant (declaration order).
static SCHEMES: [SchemeSpec; 4] = [
    SchemeSpec {
        name: "Baseline",
        flag: "baseline",
        wire: 0,
        binding: Binding::None,
        digest: MatchDigest::RawDistance,
        lattice: Lattice::F32,
        calibration: Calibration::Never,
    },
    SchemeSpec {
        name: "RPoLv1",
        flag: "v1",
        wire: 1,
        binding: Binding::Sha256,
        digest: MatchDigest::RawDistance,
        lattice: Lattice::F32,
        calibration: Calibration::Once,
    },
    SchemeSpec {
        name: "RPoLv2",
        flag: "v2",
        wire: 2,
        binding: Binding::LshGroups,
        digest: MatchDigest::LshGroups,
        lattice: Lattice::F32,
        calibration: Calibration::EveryEpoch,
    },
    SchemeSpec {
        name: "RPoLv3",
        flag: "v3",
        wire: 3,
        binding: Binding::Sha256,
        digest: MatchDigest::LshGroups,
        lattice: Lattice::Bf16,
        calibration: Calibration::EveryEpoch,
    },
];

/// Pool-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PoolConfig {
    /// The training task.
    pub task: TaskConfig,
    /// Verification scheme.
    pub scheme: Scheme,
    /// Number of epochs to run.
    pub epochs: usize,
    /// Training steps per worker per epoch.
    pub steps_per_epoch: usize,
    /// Training samples drawn for the whole pool (split into n+1 shards).
    pub train_samples: usize,
    /// Held-out test samples for accuracy tracking.
    pub test_samples: usize,
    /// Checkpoints sampled per worker per epoch (paper: 3).
    pub q_samples: usize,
    /// Master seed.
    pub seed: u64,
    /// Fault-injecting transport between manager and workers: `Some` runs
    /// every epoch as the socket server's, over in-memory connections
    /// behind the seeded chaos proxy (DESIGN.md §14); `None` hands tasks,
    /// submissions and openings over directly (no framing).
    pub fault: Option<FaultConfig>,
    /// Two-tier committee hierarchy (DESIGN.md §15). `None` runs the flat
    /// single-manager pipeline. Accept/reject/quarantine sets are bitwise
    /// identical either way at equal sampling parameters; the hierarchy
    /// changes *where* verification runs and how much memory peaks, not
    /// what is decided.
    pub hierarchy: Option<Hierarchy>,
}

impl PoolConfig {
    /// A minimal configuration for tests and doc examples.
    pub fn tiny_demo(scheme: Scheme) -> Self {
        Self {
            task: TaskConfig::tiny(),
            scheme,
            epochs: 2,
            steps_per_epoch: 4,
            train_samples: 160,
            test_samples: 40,
            q_samples: 2,
            seed: 0xD0_0D,
            fault: None,
            hierarchy: None,
        }
    }

    /// A configuration matching the paper's experimental shape: task A/B,
    /// 10 workers, 3 sampled checkpoints.
    pub fn paper_like(task: TaskConfig, scheme: Scheme, epochs: usize) -> Self {
        Self {
            task,
            scheme,
            epochs,
            steps_per_epoch: 15,
            train_samples: 1_760, // 11 shards × 160
            test_samples: 300,
            q_samples: 3,
            seed: 0x009A_9E12,
            fault: None,
            hierarchy: None,
        }
    }

    /// Routes every protocol message through a fault-injecting transport.
    ///
    /// # Panics
    ///
    /// Panics if the result fails [`PoolConfig::validate`].
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// Shards verification into a two-tier committee hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the result fails [`PoolConfig::validate`].
    pub fn with_hierarchy(mut self, hierarchy: Hierarchy) -> Self {
        self.hierarchy = Some(hierarchy);
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// Which field combinations a pool can run — the fields are public, so
    /// every entry point ([`MiningPool::run_epoch`],
    /// [`PoolServer::bind`](crate::server::PoolServer::bind)) checks, not
    /// only the builders.
    ///
    /// # Errors
    ///
    /// An invalid fault config; a hierarchy under the baseline scheme (no
    /// verdicts to commit) or over the in-process link (the top tier's
    /// audits would fetch their openings over the link a second time, so
    /// its stats and clock would no longer be the flat run's).
    pub fn validate(&self) -> Result<(), String> {
        if let Some(fault) = &self.fault {
            fault
                .validate()
                .map_err(|e| format!("invalid fault config: {e}"))?;
        }
        if self.hierarchy.is_some() {
            if !self.scheme.spec().verifies() {
                return Err(
                    "hierarchy requires a verifying scheme: the baseline emits no verdicts to commit"
                        .to_string(),
                );
            }
            if self.fault.is_some() {
                return Err(
                    "hierarchy over the fault-injecting transport is not supported".to_string(),
                );
            }
        }
        Ok(())
    }
}

/// The roster as the groups one epoch streams through: everyone at once on
/// a flat pool; under a hierarchy the rendezvous committees — seeded on the
/// pool seed, so the assignment is stable across epochs and churn moves
/// O(1/C) workers. Members ascend within a group.
pub(crate) fn roster_groups(config: &PoolConfig, n: usize) -> Vec<Vec<usize>> {
    match config.hierarchy {
        Some(hierarchy) => partition(config.seed, n, hierarchy.committees),
        None => vec![(0..n).collect()],
    }
}

/// One epoch's row in the pool report.
#[derive(Debug, Clone, Serialize)]
pub struct EpochRecord {
    /// The manager's protocol report.
    pub report: EpochReport,
    /// Global-model test accuracy after this epoch's aggregation.
    pub test_accuracy: f32,
    /// Real wall-clock seconds the epoch took in this process (training +
    /// verification + evaluation) — the in-process complement to the
    /// analytic Table II model.
    pub wall_seconds: f64,
    /// Simulated transport time and event counters for the epoch (empty
    /// without a fault-injecting transport).
    pub transport_time: SimClock,
}

/// The full run record (returned by [`MiningPool::run`]).
#[derive(Debug, Clone, Serialize)]
pub struct PoolReport {
    /// The scheme that produced this report.
    pub scheme: Scheme,
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
    /// Total checkpoint storage held by workers at the end (bytes).
    pub worker_storage_bytes: u64,
}

impl PoolReport {
    /// Final test accuracy.
    pub fn final_accuracy(&self) -> f32 {
        self.epochs.last().map(|e| e.test_accuracy).unwrap_or(0.0)
    }

    /// Total rejected submissions across the run.
    pub fn rejections(&self) -> usize {
        self.epochs.iter().map(|e| e.report.rejected.len()).sum()
    }

    /// Total accepted submissions across the run.
    pub fn acceptances(&self) -> usize {
        self.epochs.iter().map(|e| e.report.accepted.len()).sum()
    }

    /// Total double-checks triggered across the run.
    pub fn double_checks(&self) -> usize {
        self.epochs.iter().map(|e| e.report.double_checks).sum()
    }

    /// Total bytes moved across the run.
    pub fn total_comm_bytes(&self) -> u64 {
        self.epochs.iter().map(|e| e.report.comm.total()).sum()
    }

    /// Total wall-clock seconds across epochs.
    pub fn total_wall_seconds(&self) -> f64 {
        self.epochs.iter().map(|e| e.wall_seconds).sum()
    }

    /// Total epoch-quarantine events across the run (a worker quarantined
    /// in `k` epochs counts `k` times).
    pub fn quarantine_events(&self) -> usize {
        self.epochs.iter().map(|e| e.report.quarantined.len()).sum()
    }

    /// Merged transport counters across the run (all zero without a
    /// fault-injecting transport).
    pub fn transport_totals(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for e in &self.epochs {
            total.merge(&e.report.transport);
        }
        total
    }
}

/// `members`' workers (ids ascending), mutably, each with its id.
fn members_mut<'a>(
    workers: &'a mut [PoolWorker],
    members: &'a [usize],
) -> impl Iterator<Item = (usize, &'a mut PoolWorker)> {
    let mut wanted = members.iter().copied().peekable();
    workers
        .iter_mut()
        .enumerate()
        .filter(move |(w, _)| wanted.next_if_eq(w).is_some())
}

/// A mining pool: one manager plus a set of (possibly adversarial)
/// workers, run for a configured number of epochs.
///
/// # Examples
///
/// ```
/// use rpol::pool::{MiningPool, PoolConfig, Scheme};
/// use rpol::adversary::WorkerBehavior;
///
/// let mut pool = MiningPool::new(
///     PoolConfig::tiny_demo(Scheme::RPoLv1),
///     vec![WorkerBehavior::Honest, WorkerBehavior::ReplayPrevious],
/// );
/// let report = pool.run();
/// assert!(report.rejections() > 0); // the replayer is caught
/// ```
pub struct MiningPool {
    pub(crate) config: PoolConfig,
    pub(crate) manager: PoolManager,
    pub(crate) workers: Vec<PoolWorker>,
    /// Held-out test set, pre-split into [`EVAL_CHUNK`]-row batches.
    test_chunks: Vec<(rpol_tensor::Tensor, Vec<usize>)>,
    /// Observability handle: phase spans, per-epoch metric publication.
    /// Defaults to the shared no-op recorder (free when off).
    pub(crate) recorder: Arc<Recorder>,
    /// The persistent executor every epoch runs on, shared with the
    /// manager: built with the pool and reused across all epochs and
    /// phases. Width 1 is the reference every wider run must equal.
    executor: Arc<Executor>,
}

/// The manager's reward address (defines the AMLayer geometry of every
/// model in the pool).
fn manager_address(config: &PoolConfig) -> Address {
    Address::derive(&config.seed.to_be_bytes())
}

/// The data half of a pool build: the training set drawn from the config
/// seed, cut into one shard per worker plus the manager's, and the workers
/// over their shards. Returns the generator positioned where the test set
/// is drawn next.
fn build_roster(
    config: &PoolConfig,
    behaviors: &[WorkerBehavior],
) -> (Vec<PoolWorker>, SyntheticImages, Pcg32) {
    assert!(!behaviors.is_empty(), "pool needs at least one worker");
    let mut rng = Pcg32::seed_from(config.seed);
    let data = SyntheticImages::generate(&config.task.spec, config.train_samples, &mut rng);
    let mut shards = data.into_shards(behaviors.len() + 1);
    let manager_shard = shards.pop().expect("manager shard");
    let address = manager_address(config);
    let workers = behaviors
        .iter()
        .zip(shards)
        .enumerate()
        .map(|(i, (&behavior, shard))| {
            // Workers register heterogeneous GPUs, cycling the catalogue
            // (the manager calibrates against the top-2).
            let gpu = GpuModel::ALL[i % GpuModel::ALL.len()];
            PoolWorker::new(i, &config.task, &address, shard, gpu, behavior)
        })
        .collect();
    (workers, manager_shard, rng)
}

impl MiningPool {
    /// Builds a pool with one worker per behaviour entry.
    ///
    /// # Panics
    ///
    /// Panics if `behaviors` is empty or the configured sample counts are
    /// too small for `behaviors.len() + 1` shards.
    pub fn new(config: PoolConfig, behaviors: Vec<WorkerBehavior>) -> Self {
        let (workers, manager_shard, mut rng) = build_roster(&config, &behaviors);
        let test = SyntheticImages::generate(&config.task.spec, config.test_samples, &mut rng);
        let test_chunks: Vec<(rpol_tensor::Tensor, Vec<usize>)> = (0..test.len())
            .step_by(EVAL_CHUNK)
            .map(|start| {
                let indices: Vec<usize> = (start..(start + EVAL_CHUNK).min(test.len())).collect();
                test.batch(&indices)
            })
            .collect();

        let address = manager_address(&config);
        let mut manager = PoolManager::new(
            config.task,
            config.scheme,
            address,
            manager_shard,
            config.q_samples,
            config.steps_per_epoch,
            config.seed,
        );
        // §V-C: calibrate on the top-2 GPUs registered by the workers.
        let mut registered: Vec<GpuModel> = workers.iter().map(|w| w.gpu).collect();
        registered.sort_by(|a, b| {
            b.fp32_tflops()
                .partial_cmp(&a.fp32_tflops())
                .expect("finite TFLOPS")
        });
        registered.dedup();
        let top2 = match registered.as_slice() {
            [only] => (*only, *only),
            [first, second, ..] => (*first, *second),
            [] => unreachable!("pool has workers"),
        };
        manager.set_calibration_gpus(top2);
        let mut pool = Self {
            config,
            manager,
            workers,
            test_chunks,
            recorder: rpol_obs::noop().clone(),
            executor: Arc::new(Executor::new(Executor::default_threads())),
        };
        pool.manager.set_executor(Arc::clone(&pool.executor));
        pool
    }

    /// Runs the pool on `threads` executor lanes instead of
    /// [`Executor::default_threads`]. Every width produces the same bytes;
    /// 1 is the reference.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.rebuild_executor(threads);
        self
    }

    /// Replaces the executor with one of `threads` lanes that publishes to
    /// the pool's recorder, and hands it to the manager.
    fn rebuild_executor(&mut self, threads: usize) {
        self.executor = Arc::new(Executor::with_recorder(threads, self.recorder.clone()));
        self.manager.set_executor(Arc::clone(&self.executor));
    }

    /// The pool's persistent executor — the socket server runs on it too.
    pub(crate) fn executor(&self) -> Arc<Executor> {
        Arc::clone(&self.executor)
    }

    /// Attaches an observability recorder: epoch/phase spans, transport
    /// events, executor counters and per-epoch metric publication all land
    /// on `rec`. The manager (and through it the verifier) shares the same
    /// handle. Metrics are mirrored from the epoch reports at deterministic
    /// merge points, so exported totals always equal the report's own
    /// numbers.
    pub fn with_recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.manager.set_recorder(rec.clone());
        self.recorder = rec;
        self.rebuild_executor(self.executor.threads());
        self
    }

    /// The pool's manager.
    pub fn manager(&self) -> &PoolManager {
        &self.manager
    }

    /// The pool's workers.
    pub fn workers(&self) -> &[PoolWorker] {
        &self.workers
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Only the workers of the pool [`MiningPool::new`] would build — for a
    /// worker process (`rpol worker`) or a test that binds its own server.
    /// Data generation and sharding go through the same code on the same
    /// seeded stream, so every shard matches the server's replica bit for
    /// bit; the test set, manager and evaluation state are never built.
    /// (A socket run in one process shares its pool's shards instead:
    /// [`MiningPool::fresh_workers`].)
    ///
    /// # Panics
    ///
    /// As [`MiningPool::new`].
    pub fn build_workers(config: PoolConfig, behaviors: &[WorkerBehavior]) -> Vec<PoolWorker> {
        build_roster(&config, behaviors).0
    }

    /// Fresh copies of this pool's workers — same id, address, GPU,
    /// behaviour and shard, each with a new model — without drawing the
    /// training set again or copying it: a copy's shard reads its
    /// original's rows. The client side of a socket run in this process,
    /// built before the pool moves into the server.
    pub(crate) fn fresh_workers(&self) -> Vec<PoolWorker> {
        let address = manager_address(&self.config);
        self.workers
            .iter()
            .map(|w| {
                let (task, shard) = (&self.config.task, w.shard().clone());
                PoolWorker::new(w.id, task, &address, shard, w.gpu, w.behavior())
            })
            .collect()
    }

    /// Current global-model accuracy on the held-out test set, evaluated
    /// in fixed [`EVAL_CHUNK`]-row batches on the pool's executor, one pass
    /// each. Per-chunk integer correct-counts are merged in index order, so
    /// every width agrees bitwise.
    pub fn test_accuracy(&self) -> f32 {
        let total: usize = self
            .test_chunks
            .iter()
            .map(|(_, labels)| labels.len())
            .sum();
        let counts = self.executor.run_indexed(self.test_chunks.len(), |i| {
            let (inputs, labels) = &self.test_chunks[i];
            let mut model = self.manager.checkout_scratch();
            model.load_params(self.manager.global_weights());
            let logits = model.forward(inputs, false);
            model.end_pass();
            self.manager.checkin_scratch(model);
            correct_count(&logits, labels)
        });
        // Recorded here, after the join and in index order — never from
        // inside a task, where pool threads would race for clock ticks.
        for (chunk, (&correct, (_, labels))) in counts.iter().zip(&self.test_chunks).enumerate() {
            event!(
                self.recorder,
                "rpol.pool.eval_chunk",
                chunk,
                rows = labels.len(),
                correct
            );
        }
        counts.iter().sum::<usize>() as f32 / total as f32
    }

    /// Runs one epoch — the paper's one protocol (§IV–V), written once as
    /// four stages (DESIGN.md §22):
    ///
    /// 1. **plan** — [`PoolManager::plan`]: the calibration nonce, the
    ///    worker nonces and the verification schedule, i.e. every draw
    ///    from the manager's RNG, before anything trains.
    /// 2. **collect** — per group of the roster ([`roster_groups`]: one
    ///    group of everyone, or committee by committee so only one
    ///    committee's submissions are ever resident), train, commit, and
    ///    hand the submissions over ([`Self::collect`]). The first group's
    ///    training runs beside the epoch's calibration, which reads no
    ///    worker's output and which no training reads.
    /// 3. **verify** — sampled replay of each submission.
    /// 4. **settle** — [`PoolManager::settle_fold`] per group, then
    ///    [`PoolManager::settle_finish`]: verdicts classified, accepted
    ///    updates aggregated (Eq. 1) and credited, the report built.
    ///
    /// With `config.fault` set, the epoch is the socket server's instead
    /// (DESIGN.md §14): every message is framed, crosses the seeded chaos
    /// proxy and is routed by the server's reactor, over in-memory
    /// connections to this pool's own workers — no socket, no thread.
    ///
    /// Runs on the pool's executor. The record is bitwise identical at
    /// every width and committee count (`tests/epoch_matrix.rs`): no stage
    /// after `plan` is random, every fault draw is keyed by its own
    /// coordinates, per-sample verdicts merge in index order, the aggregate
    /// is an order-invariant integer sum, and evaluation chunks are fixed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`PoolConfig::validate`].
    pub fn run_epoch(&mut self, epoch: u64) -> EpochRecord {
        self.config.validate().unwrap_or_else(|e| panic!("{e}"));
        let recorder = self.recorder.clone();
        let _epoch_span = span!(recorder, "rpol.pool.epoch", epoch);
        self.run_planned(epoch, PoolManager::plan)
    }

    /// The epoch with its plan stage drawn by `plan`: [`PoolManager::plan`],
    /// or [`PoolManager::begin_epoch`] for an epoch whose calibration runs
    /// before anything trains.
    fn run_planned(
        &mut self,
        epoch: u64,
        plan: impl FnOnce(&mut PoolManager, usize, u64) -> EpochPlan,
    ) -> EpochRecord {
        if self.config.fault.is_some() {
            return crate::server::run_link_epoch(self, epoch, plan);
        }
        let start = std::time::Instant::now();
        let recorder = self.recorder.clone();
        let rec: &Recorder = &recorder;
        let executor = self.executor();
        let n = self.workers.len();
        let hierarchy = self.config.hierarchy;

        let mut plan = plan(&mut self.manager, n, epoch);
        let mut comm = CommStats {
            broadcast_bytes: self.manager.broadcast_bytes(&plan, n),
            ..CommStats::default()
        };
        let mut settlement = None;

        for (g, members) in roster_groups(&self.config, n).iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let _committee_span = hierarchy.map(|_| {
                span!(
                    rec,
                    "rpol.pool.committee",
                    epoch,
                    committee = g,
                    members = members.len()
                )
            });
            let submissions = self.collect(members, &mut plan, &mut comm);
            let settlement =
                settlement.get_or_insert_with(|| self.manager.settle_begin(&plan, hierarchy));
            // Openings are served by the worker itself.
            let participants: Vec<Participant<'_>> = members
                .iter()
                .zip(&submissions)
                .map(|(&w, sub)| Participant::in_process(&self.workers[w], sub))
                .collect();
            self.manager
                .verify_and_fold(settlement, g, &participants, &plan, Some(&*executor));
            // The next group starts from a clean memory floor.
            drop(participants);
            for sub in submissions {
                scratch::put(sub.final_weights);
            }
        }

        let settlement = settlement.expect("a pool has a non-empty group");
        let report = self.manager.settle_finish(settlement, comm, &[]);
        EpochRecord {
            report,
            test_accuracy: self.test_accuracy(),
            wall_seconds: start.elapsed().as_secs_f64(),
            transport_time: SimClock::new(),
        }
    }

    /// The `collect` stage for one group: members train as one executor
    /// task each, beside the plan's pending calibration (the first group's)
    /// as one more; after the join the calibration is adopted and members
    /// commit as one task each. A member's task is read off the plan and
    /// its submission handed back as is, by member position.
    fn collect(
        &mut self,
        members: &[usize],
        plan: &mut EpochPlan,
        comm: &mut CommStats,
    ) -> Vec<EpochSubmission> {
        let (workers, manager) = (&mut self.workers[..], &self.manager);
        let (exec, rec) = (&*self.executor, &*self.recorder);
        let epoch = plan.epoch;
        let (nonces, steps) = (&plan.nonces, plan.steps);
        let spec = self.config.scheme.spec();
        let train = |w: usize, worker: &mut PoolWorker| {
            let _g = span!(rec, "rpol.worker.train_epoch", epoch, worker = w, steps);
            let global = manager.global_weights();
            worker.train(manager.config(), global, nonces[w], steps, epoch, spec)
        };
        let mut trained: Vec<Vec<Vec<f32>>> = members.iter().map(|_| Vec::new()).collect();
        let pending = plan.pending_calibration();
        let mut calibration = None;
        exec.scope(|s| {
            if let Some(nonce) = pending {
                let calibration = &mut calibration;
                s.spawn(move || *calibration = Some(manager.calibrate(nonce, epoch)));
            }
            for ((w, worker), slot) in members_mut(workers, members).zip(&mut trained) {
                let train = &train;
                s.spawn(move || *slot = train(w, worker));
            }
        });
        if pending.is_some() {
            self.manager.adopt(plan, calibration);
        }

        let mode = plan.commit_mode();
        let mut local: Vec<Option<EpochSubmission>> = members.iter().map(|_| None).collect();
        exec.scope(|s| {
            let members = members_mut(&mut self.workers, members);
            for (((_, worker), checkpoints), slot) in members.zip(trained).zip(&mut local) {
                s.spawn(move || *slot = Some(worker.commit(checkpoints, mode)));
            }
        });
        let local: Vec<EpochSubmission> = local
            .into_iter()
            .map(|sub| sub.expect("every member committed"))
            .collect();
        comm.submission_bytes += local.iter().map(|s| s.upload_bytes).sum::<u64>();
        local
    }

    /// Runs the configured number of epochs on the pool's executor.
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`PoolConfig::validate`] refuses or a
    /// hierarchy that does not fit the roster.
    pub fn run(&mut self) -> PoolReport {
        if let Some(hierarchy) = self.config.hierarchy {
            hierarchy
                .validate(self.workers.len(), self.config.seed)
                .expect("invalid hierarchy for this roster");
        }
        let epochs = (0..self.config.epochs as u64)
            .map(|e| {
                let record = self.run_epoch(e);
                self.publish_epoch(&record);
                record
            })
            .collect();
        let report = PoolReport {
            scheme: self.config.scheme,
            epochs,
            worker_storage_bytes: self.workers.iter().map(|w| w.storage_bytes()).sum(),
        };
        self.recorder.gauge_set(
            "rpol.pool.worker_storage_bytes",
            report.worker_storage_bytes as f64,
        );
        report
    }

    /// Mirrors one finished epoch into the recorder. Runs at the serial
    /// point after all per-worker state has been merged in worker-id
    /// order, so every exported counter equals the corresponding
    /// [`EpochReport`] total exactly — parallel scheduling never shows.
    pub(crate) fn publish_epoch(&self, record: &EpochRecord) {
        let rec = &*self.recorder;
        if !rec.enabled() {
            return;
        }
        let report = &record.report;
        rec.counter_add("rpol.pool.epochs", 1);
        rec.counter_add("rpol.pool.accepted", report.accepted.len() as u64);
        rec.counter_add("rpol.pool.rejected", report.rejected.len() as u64);
        rec.counter_add("rpol.pool.quarantined", report.quarantined.len() as u64);
        rec.counter_add("rpol.verify.double_checks", report.double_checks as u64);
        rec.counter_add("rpol.verify.replayed_steps", report.replayed_steps);
        rec.counter_add("rpol.commit.bytes_hashed", report.commit_bytes_hashed);
        rec.counter_add("rpol.comm.broadcast_bytes", report.comm.broadcast_bytes);
        rec.counter_add("rpol.comm.submission_bytes", report.comm.submission_bytes);
        rec.counter_add("rpol.comm.proof_bytes", report.comm.proof_bytes);
        rec.counter_add("rpol.pool.peak_commit_bytes", report.peak_commit_bytes);
        if let Some(h) = &report.hierarchy {
            rec.counter_add("rpol.committee.verdicts", h.verdicts);
            rec.counter_add("rpol.committee.audits", h.audits);
            rec.counter_add("rpol.committee.audit_mismatch", h.audit_mismatches);
            rec.counter_add("rpol.committee.batch_bytes", h.batch_bytes);
        }
        rec.gauge_set("rpol.pool.test_accuracy", f64::from(record.test_accuracy));
        report.transport.publish(rec);
        record.transport_time.publish(rec, "sim.clock");
        for (phase, seconds) in record.transport_time.iter() {
            event!(
                rec,
                "rpol.pool.phase_time",
                epoch = report.epoch,
                phase,
                seconds
            );
        }
        // Fold the epoch's simulated seconds into the (logical) clock so
        // trace timestamps advance with simulated time across epochs.
        rec.advance_ns((record.transport_time.total() * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `F32.snap` moves no bit; `Bf16.snap` lands on the lattice and a
    /// second snap moves nothing.
    #[test]
    fn f32_snap_is_the_identity_and_bf16_snap_is_idempotent() {
        let mut rng = Pcg32::seed_from(0x5A1);
        let mut weights: Vec<f32> = (0..257).map(|_| rng.next_normal()).collect();
        weights.extend([0.0, -0.0, f32::MIN_POSITIVE, f32::INFINITY, f32::NAN]);
        let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut f32s = weights.clone();
        Lattice::F32.snap(&mut f32s);
        assert_eq!(bits(&f32s), bits(&weights));
        let mut once = weights.clone();
        Lattice::Bf16.snap(&mut once);
        assert!(rpol_tensor::quant::is_bf16_lattice(&once));
        assert_ne!(bits(&once), bits(&weights));
        let mut twice = once.clone();
        Lattice::Bf16.snap(&mut twice);
        assert_eq!(bits(&twice), bits(&once));
    }

    #[test]
    fn honest_pool_trains_and_passes() {
        let mut pool = MiningPool::new(
            PoolConfig::tiny_demo(Scheme::RPoLv2),
            vec![WorkerBehavior::Honest; 3],
        );
        let report = pool.run();
        assert_eq!(report.rejections(), 0, "honest workers must all pass");
        assert_eq!(report.acceptances(), 6); // 3 workers × 2 epochs
        assert!(report.total_comm_bytes() > 0);
        assert!(report.worker_storage_bytes > 0);
    }

    #[test]
    fn workers_build_their_models_when_they_first_train() {
        let behaviors = vec![WorkerBehavior::Honest, WorkerBehavior::ReplayPrevious];
        let mut pool = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv2), behaviors);
        assert!(
            pool.workers().iter().all(|w| !w.holds_model()),
            "a new pool holds no worker model"
        );
        pool.run_epoch(0);
        let built: Vec<bool> = pool.workers().iter().map(PoolWorker::holds_model).collect();
        assert_eq!(built, [true, false], "the zero-effort cheat never trains");
    }

    /// The client half of a socket run builds workers without the rest of
    /// the pool — drawn again by `build_workers`, or shared with the pool by
    /// `fresh_workers`; either must be the workers `MiningPool::new` builds
    /// — same shards bit for bit, same GPUs, behaviours and addresses — so
    /// the two equal each other shard for shard, or the server's replay
    /// would run on different data than the client trained on.
    #[test]
    fn build_workers_yields_the_full_pools_workers() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
            WorkerBehavior::Honest,
            WorkerBehavior::Honest,
        ];
        let config = PoolConfig::tiny_demo(Scheme::RPoLv3);
        let pool = MiningPool::new(config, behaviors.clone());
        let alone = MiningPool::build_workers(config, &behaviors);
        let fresh = pool.fresh_workers();
        let bits = |xs: &[f32]| -> Vec<u32> { xs.iter().map(|x| x.to_bits()).collect() };
        for copies in [&alone, &fresh] {
            assert_eq!(copies.len(), pool.workers().len());
            for (a, b) in copies.iter().zip(pool.workers()) {
                assert_eq!((a.id, a.gpu, a.address), (b.id, b.gpu, b.address));
                assert_eq!(a.behavior(), b.behavior());
                let ((xa, ya), (xb, yb)) = (a.shard().full_batch(), b.shard().full_batch());
                assert_eq!(ya, yb);
                assert_eq!(bits(xa.data()), bits(xb.data()), "worker {} shard", a.id);
            }
        }
    }

    #[test]
    fn fresh_workers_read_the_pools_rows() {
        let behaviors = vec![WorkerBehavior::Honest; 3];
        let pool = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv3), behaviors);
        for (copy, replica) in pool.fresh_workers().iter().zip(pool.workers()) {
            let (a, b) = (copy.shard(), replica.shard());
            assert_eq!(a.len(), b.len());
            assert!(
                (0..a.len()).all(|i| std::ptr::eq(a.image(i), b.image(i))),
                "worker {} holds its own pixels",
                copy.id
            );
        }
    }

    #[test]
    fn verified_pool_beats_baseline_under_attack() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
            WorkerBehavior::ReplayPrevious,
        ];
        let mut cfg = PoolConfig::tiny_demo(Scheme::Baseline);
        cfg.epochs = 3;
        cfg.steps_per_epoch = 8;
        let baseline = MiningPool::new(cfg, behaviors.clone()).run();
        let mut cfg = PoolConfig::tiny_demo(Scheme::RPoLv1);
        cfg.epochs = 3;
        cfg.steps_per_epoch = 8;
        let verified = MiningPool::new(cfg, behaviors).run();
        assert!(verified.rejections() > 0);
        assert!(
            verified.final_accuracy() >= baseline.final_accuracy(),
            "verified {} vs baseline {}",
            verified.final_accuracy(),
            baseline.final_accuracy()
        );
    }

    #[test]
    fn v2_comm_is_cheaper_than_v1_proofs() {
        let behaviors = vec![WorkerBehavior::Honest; 3];
        let v1 = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv1), behaviors.clone()).run();
        let v2 = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv2), behaviors).run();
        let v1_proofs: u64 = v1.epochs.iter().map(|e| e.report.comm.proof_bytes).sum();
        let v2_proofs: u64 = v2.epochs.iter().map(|e| e.report.comm.proof_bytes).sum();
        assert!(
            v2_proofs < v1_proofs,
            "v2 proof bytes {v2_proofs} should undercut v1 {v1_proofs}"
        );
    }

    #[test]
    fn v3_matches_v1_detection_with_fewer_bytes() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
        ];
        let v1 = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv1), behaviors.clone()).run();
        let v3 = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv3), behaviors).run();
        // Detection is unchanged: same accept/reject sets every epoch.
        for (a, b) in v1.epochs.iter().zip(&v3.epochs) {
            assert_eq!(a.report.accepted, b.report.accepted);
            assert_eq!(a.report.rejected, b.report.rejected);
        }
        // Packed uploads and quantized digests shrink both data planes.
        let sum =
            |r: &PoolReport, f: fn(&EpochRecord) -> u64| -> u64 { r.epochs.iter().map(f).sum() };
        let v1_sub = sum(&v1, |e| e.report.comm.submission_bytes);
        let v3_sub = sum(&v3, |e| e.report.comm.submission_bytes);
        assert!(v3_sub < v1_sub, "v3 uploads {v3_sub} vs v1 {v1_sub}");
        let v1_hashed = sum(&v1, |e| e.report.commit_bytes_hashed);
        let v3_hashed = sum(&v3, |e| e.report.commit_bytes_hashed);
        assert!(
            v3_hashed < v1_hashed,
            "v3 hashed {v3_hashed} vs v1 {v1_hashed}"
        );
        let v1_proof = sum(&v1, |e| e.report.comm.proof_bytes);
        let v3_proof = sum(&v3, |e| e.report.comm.proof_bytes);
        assert!(v3_proof < v1_proof, "v3 proofs {v3_proof} vs v1 {v1_proof}");
    }

    #[test]
    fn v3_transport_saves_wire_bytes_without_losing_detection() {
        let behaviors = vec![WorkerBehavior::Honest, WorkerBehavior::ReplayPrevious];
        let cfg = PoolConfig::tiny_demo(Scheme::RPoLv3).with_faults(FaultConfig::ideal(3));
        let v3 = MiningPool::new(cfg, behaviors.clone()).run();
        assert!(v3.rejections() > 0, "replayer must still be caught");
        let saved = v3.transport_totals().bytes_saved;
        assert!(saved > 0, "packed framing saved nothing");

        // The f32 schemes save too — their blocks code the hi plane but
        // ship three lo planes as is — and less than v3's one lo plane.
        let cfg = PoolConfig::tiny_demo(Scheme::RPoLv1).with_faults(FaultConfig::ideal(3));
        let v1 = MiningPool::new(cfg, behaviors).run();
        let v1_saved = v1.transport_totals().bytes_saved;
        assert!(
            0 < v1_saved && v1_saved < saved,
            "v1 saved {v1_saved} vs v3 {saved}"
        );
        // And v3's savings cover ≥40% of the weight payload it replaced:
        // every submission and opening moves half the raw weight bytes.
        assert!(
            v3.transport_totals().wire_bytes < v1.transport_totals().wire_bytes,
            "v3 wire {} vs v1 {}",
            v3.transport_totals().wire_bytes,
            v1.transport_totals().wire_bytes
        );
    }

    #[test]
    fn baseline_workers_store_nothing() {
        let report = MiningPool::new(
            PoolConfig::tiny_demo(Scheme::Baseline),
            vec![WorkerBehavior::Honest; 2],
        )
        .run();
        assert_eq!(report.worker_storage_bytes, 0);
    }

    #[test]
    fn small_pools_calibrate_against_registered_gpus() {
        // With 2 workers the registered GPUs are {G3090, GA10}; with 1 it
        // degenerates to a same-GPU pair. Both must calibrate and verify
        // honest workers cleanly.
        for n in [1usize, 2] {
            let mut pool = MiningPool::new(
                PoolConfig::tiny_demo(Scheme::RPoLv2),
                vec![WorkerBehavior::Honest; n],
            );
            let report = pool.run();
            assert_eq!(report.rejections(), 0, "{n}-worker pool rejected honesty");
            for rec in &report.epochs {
                let cal = rec.report.calibration.expect("v2 calibrates");
                assert!(cal.alpha > 0.0);
            }
        }
    }

    /// Per epoch at q = 1 the manager hashes in at least two and at most
    /// three streamed passes under RPoLv2 (the binding, the replays, the
    /// double-check outputs) and in exactly one under RPoLv3, whose
    /// bindings are SHA-256.
    #[test]
    fn the_manager_hashes_an_epoch_in_at_most_three_streamed_passes() {
        for scheme in [Scheme::RPoLv2, Scheme::RPoLv3] {
            let config = PoolConfig {
                q_samples: 1,
                ..PoolConfig::tiny_demo(scheme)
            };
            let roster = vec![
                WorkerBehavior::Honest,
                WorkerBehavior::ReplayPrevious,
                WorkerBehavior::Honest,
            ];
            let rec = Arc::new(Recorder::logical());
            let report = MiningPool::new(config, roster)
                .with_recorder(rec.clone())
                .run();
            let epochs = report.epochs.len() as u64;
            let passes = rec.snapshot().counter("rpol.lsh.streamed_passes");
            match scheme {
                Scheme::RPoLv2 => assert!(
                    (2 * epochs..=3 * epochs).contains(&passes),
                    "{passes} passes in {epochs} epochs"
                ),
                _ => assert_eq!(passes, epochs, "{scheme}"),
            }
        }
    }

    /// Calibrating beside the training changes nothing: an epoch equals,
    /// record and `rpol.calibrate.unit` events alike, the epoch whose
    /// calibration ran in [`PoolManager::begin_epoch`] before anything
    /// trained — flat v2 and under two committees on the direct source, and
    /// v2 and v3 over the ideal and the lossy in-memory link (whose
    /// `CommitSpec` goes out after the tasks), at executor widths 1 and 2.
    #[test]
    fn calibrating_beside_training_equals_calibrating_first() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
            WorkerBehavior::PartialSpoof {
                honest_fraction: 0.0,
                lambda: 0.5,
            },
        ];
        let mut configs = vec![
            (PoolConfig::tiny_demo(Scheme::RPoLv2), 2),
            (
                PoolConfig::tiny_demo(Scheme::RPoLv2)
                    .with_hierarchy(Hierarchy::new(2, 1).expect("valid hierarchy")),
                2,
            ),
        ];
        for scheme in [Scheme::RPoLv2, Scheme::RPoLv3] {
            for fault in [FaultConfig::ideal(7), FaultConfig::lossy(7)] {
                for threads in [1, 2] {
                    configs.push((PoolConfig::tiny_demo(scheme).with_faults(fault), threads));
                }
            }
        }
        let units = |rec: &Recorder| -> Vec<String> {
            rec.events()
                .iter()
                .filter(|ev| ev.name == "rpol.calibrate.unit")
                .map(|ev| format!("{:?}", ev.fields))
                .collect()
        };
        for (config, threads) in configs {
            let run = |begin_first: bool| {
                let rec = Arc::new(Recorder::logical());
                let mut pool = MiningPool::new(config, behaviors.clone())
                    .with_recorder(rec.clone())
                    .with_threads(threads);
                let records: Vec<String> = (0..2)
                    .map(|epoch| {
                        let record = if begin_first {
                            pool.run_planned(epoch, PoolManager::begin_epoch)
                        } else {
                            pool.run_epoch(epoch)
                        };
                        format!(
                            "{:?} {:?} {}",
                            record.report,
                            record.transport_time,
                            record.test_accuracy.to_bits()
                        )
                    })
                    .collect();
                (records, units(&rec))
            };
            let (beside, first) = (run(false), run(true));
            assert!(!first.1.is_empty(), "{config:?}: calibrates every epoch");
            assert_eq!(beside, first, "{config:?} at {threads} lanes");
        }
    }

    /// The fields are public, so a struct literal can dodge the builders:
    /// the run must refuse what they refuse, in the same words.
    #[test]
    fn struct_literal_configs_are_validated_at_run() {
        let refused = PoolConfig {
            fault: Some(FaultConfig::ideal(3)),
            hierarchy: Some(Hierarchy::new(2, 1).expect("valid hierarchy")),
            ..PoolConfig::tiny_demo(Scheme::RPoLv2)
        };
        let builder = std::panic::catch_unwind(|| {
            PoolConfig::tiny_demo(Scheme::RPoLv2)
                .with_faults(FaultConfig::ideal(3))
                .with_hierarchy(Hierarchy::new(2, 1).expect("valid hierarchy"))
        })
        .expect_err("the builders refuse the combination");
        let run = std::panic::catch_unwind(|| {
            MiningPool::new(refused, vec![WorkerBehavior::Honest; 4]).run()
        })
        .expect_err("run() refuses the same configuration");
        let message = |payload: Box<dyn std::any::Any + Send>| {
            *payload.downcast::<String>().expect("a formatted panic")
        };
        let expected = "hierarchy over the fault-injecting transport is not supported";
        assert_eq!(refused.validate(), Err(expected.to_string()));
        assert_eq!(message(builder), expected);
        assert_eq!(message(run), expected);
        let baseline = PoolConfig {
            hierarchy: refused.hierarchy,
            ..PoolConfig::tiny_demo(Scheme::Baseline)
        };
        assert!(baseline
            .validate()
            .expect_err("no verdicts to commit")
            .starts_with("hierarchy requires a verifying scheme"));
    }

    #[test]
    fn accuracy_curve_has_one_point_per_epoch() {
        let mut cfg = PoolConfig::tiny_demo(Scheme::Baseline);
        cfg.epochs = 3;
        let report = MiningPool::new(cfg, vec![WorkerBehavior::Honest; 2]).run();
        assert_eq!(report.epochs.len(), 3);
        assert!(report
            .epochs
            .iter()
            .all(|e| (0.0..=1.0).contains(&e.test_accuracy)));
    }
}
