//! The assembled mining pool: data sharding, multi-epoch training with
//! verification, accuracy tracking, and accounting — the engine behind the
//! Fig. 6 attack experiments and the §VII-E overhead measurements.

use crate::adversary::WorkerBehavior;
use crate::committee::{partition, Hierarchy};
use crate::manager::{CommStats, EpochReport, Participant, PoolManager};
use crate::tasks::TaskConfig;
use crate::transport::{link_state, FaultConfig, LinkState, MsgKind, Transport, TransportStats};
use crate::verify::{ProofProvider, ProofUnavailable, SampleVerdict, WorkerVerdict};
use crate::wire;
use crate::worker::{CommitMode, EpochSubmission, PoolWorker};
use rpol_crypto::Address;
use rpol_exec::Executor;
use rpol_nn::data::SyntheticImages;
use rpol_nn::metrics::correct_count;
use rpol_nn::model::Sequential;
use rpol_obs::{event, span, Recorder};
use rpol_sim::gpu::GpuModel;
use rpol_sim::SimClock;
use rpol_tensor::rng::Pcg32;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock, RwLock};

/// Fixed evaluation chunk (rows per forward pass). Serial and parallel
/// evaluation run the same chunk shapes and merge integer correct-counts
/// in index order, so their reported accuracy is bitwise identical.
const EVAL_CHUNK: usize = 16;

/// Which runtime drives a multi-epoch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunMode {
    /// Single-threaded reference path; never constructs an executor.
    Serial,
    /// Per-epoch crossbeam scoped threads (pre-executor baseline).
    Scoped,
    /// Persistent executor with train/verify phase overlap.
    Overlapped,
}

/// Which verification scheme the pool runs (§VII-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Scheme::Baseline => "Baseline",
            Scheme::RPoLv1 => "RPoLv1",
            Scheme::RPoLv2 => "RPoLv2",
            Scheme::RPoLv3 => "RPoLv3",
        };
        f.write_str(name)
    }
}

/// Pool-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    /// Fault-injecting transport between manager and workers. `None` runs
    /// the legacy in-process protocol (perfect channels, no framing).
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
    /// Panics if the fault config fails [`FaultConfig::validate`].
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        fault.validate().expect("invalid fault config");
        assert!(
            self.hierarchy.is_none(),
            "hierarchy over the fault-injecting transport is not supported"
        );
        self.fault = Some(fault);
        self
    }

    /// Shards verification into a two-tier committee hierarchy.
    ///
    /// # Panics
    ///
    /// Panics on a baseline scheme (no verdicts to commit) or when faults
    /// are configured (the chaos transport path stays flat).
    pub fn with_hierarchy(mut self, hierarchy: Hierarchy) -> Self {
        assert!(
            !matches!(self.scheme, Scheme::Baseline),
            "hierarchy requires a verifying scheme: the baseline emits no verdicts to commit"
        );
        assert!(
            self.fault.is_none(),
            "hierarchy over the fault-injecting transport is not supported"
        );
        self.hierarchy = Some(hierarchy);
        self
    }
}

/// One epoch's row in the pool report.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolReport {
    /// The scheme that produced this report.
    pub scheme: Scheme,
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
    /// Total checkpoint storage held by workers at the end (bytes).
    pub worker_storage_bytes: u64,
}

impl PoolReport {
    /// The accuracy curve across epochs.
    pub fn accuracy_curve(&self) -> Vec<f32> {
        self.epochs.iter().map(|e| e.test_accuracy).collect()
    }

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

    /// Whether `worker` was quarantined in every epoch of the run.
    pub fn quarantined_throughout(&self, worker: usize) -> bool {
        self.epochs
            .iter()
            .all(|e| e.report.quarantined.contains(&worker))
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

/// Per-provider mutable state: the RPC sequence counter plus the stats
/// and clock this worker's proof traffic accumulates. Kept behind a mutex
/// so a provider can be shared with the parallel verification fan-out;
/// the counters are merged back into the epoch totals in worker-id order,
/// so scheduling never shows in the report.
struct ProviderState {
    seq: u64,
    stats: TransportStats,
    clock: SimClock,
}

/// A [`ProofProvider`] that reaches its worker through the lossy
/// transport: each opening is a proof-request / proof-response RPC whose
/// legs can drop, corrupt, truncate, or time out. Exhausted retries
/// surface as [`ProofUnavailable`] and quarantine the worker.
struct TransportProvider<'a> {
    transport: &'a Transport,
    worker: &'a PoolWorker,
    epoch: u64,
    rec: &'a Recorder,
    /// RPoLv3: openings ride the packed (bf16 lattice) framing.
    packed: bool,
    link_request: LinkState,
    link_response: LinkState,
    state: parking_lot::Mutex<ProviderState>,
}

impl<'a> TransportProvider<'a> {
    fn new(
        transport: &'a Transport,
        worker: &'a PoolWorker,
        epoch: u64,
        rec: &'a Recorder,
        packed: bool,
    ) -> Self {
        Self {
            transport,
            worker,
            epoch,
            rec,
            packed,
            link_request: link_state(&worker.behavior(), epoch, MsgKind::ProofRequest),
            link_response: link_state(&worker.behavior(), epoch, MsgKind::ProofResponse),
            state: parking_lot::Mutex::new(ProviderState {
                seq: 0,
                stats: TransportStats::default(),
                clock: SimClock::new(),
            }),
        }
    }
}

impl ProofProvider for TransportProvider<'_> {
    fn open_checkpoint(&self, index: usize) -> Result<Cow<'_, [f32]>, ProofUnavailable> {
        let unavailable = ProofUnavailable { index };
        let mut guard = self.state.lock();
        let seq = guard.seq;
        guard.seq += 1;
        let ProviderState { stats, clock, .. } = &mut *guard;

        // Request leg: manager → worker.
        let request = wire::encode_proof_request(&[index]);
        let delivered = self
            .transport
            .exchange(
                self.epoch,
                self.worker.id,
                MsgKind::ProofRequest,
                seq,
                &request,
                self.link_request,
                stats,
                clock,
                self.rec,
            )
            .map_err(|_| unavailable)?;
        let samples = wire::decode_proof_request(delivered).map_err(|_| unavailable)?;
        let &sample = samples.first().ok_or(unavailable)?;

        // The worker opens from local storage (infallible in-process).
        let weights = self
            .worker
            .open_checkpoint(sample)
            .map_err(|_| unavailable)?;

        // Response leg: worker → manager.
        let response = if self.packed {
            wire::encode_proof_response_packed(sample, &weights)
        } else {
            wire::encode_proof_response(sample, &weights)
        };
        stats.bytes_saved += (wire::proof_response_raw_wire_size(weights.len()) as u64)
            .saturating_sub(response.len() as u64);
        let delivered = self
            .transport
            .exchange(
                self.epoch,
                self.worker.id,
                MsgKind::ProofResponse,
                seq,
                &response,
                self.link_response,
                stats,
                clock,
                self.rec,
            )
            .map_err(|_| unavailable)?;
        let (got_index, got_weights) =
            wire::decode_proof_response(delivered).map_err(|_| unavailable)?;
        if got_index != index {
            return Err(unavailable);
        }
        // Decoded off the wire: necessarily an owned buffer.
        Ok(Cow::Owned(got_weights))
    }
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
    /// The persistent executor behind every parallel run: constructed once
    /// (lazily, on the first parallel epoch) and reused across all epochs
    /// and phases. Serial runs never construct it.
    executor: Option<Arc<Executor>>,
    /// Requested executor width; `None` falls back to
    /// [`Executor::default_threads`].
    threads: Option<usize>,
    /// Pooled evaluation models for [`MiningPool::test_accuracy`], built
    /// once and reloaded with the current global weights per use.
    eval_pool: parking_lot::Mutex<Vec<Sequential>>,
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
    let mut shards = data.shard(behaviors.len() + 1);
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
        Self {
            config,
            manager,
            workers,
            test_chunks,
            recorder: rpol_obs::noop().clone(),
            executor: None,
            threads: None,
            eval_pool: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Sets the executor width for parallel runs. Must be called before
    /// the first parallel epoch constructs the pool's persistent executor.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The pool's persistent executor, constructed on first use and then
    /// reused for every epoch and phase — parallel epochs spawn zero
    /// threads after this. The manager shares the handle for verification
    /// and calibration fan-out.
    pub(crate) fn ensure_executor(&mut self) -> Arc<Executor> {
        if self.executor.is_none() {
            let threads = self.threads.unwrap_or_else(Executor::default_threads);
            let exec = Arc::new(Executor::with_recorder(threads, self.recorder.clone()));
            self.manager.set_executor(Arc::clone(&exec));
            self.executor = Some(exec);
        }
        Arc::clone(self.executor.as_ref().expect("executor constructed"))
    }

    /// Attaches an observability recorder: epoch/phase spans, transport
    /// events, and per-epoch metric publication all land on `rec`. The
    /// manager (and through it the verifier) shares the same handle.
    /// Metrics are mirrored from the epoch reports at deterministic merge
    /// points, so exported totals always equal the report's own numbers.
    pub fn with_recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.manager.set_recorder(rec.clone());
        self.recorder = rec;
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

    /// Only the workers of the pool [`MiningPool::new`] would build — the
    /// client side of a socket run. Data generation and sharding go
    /// through the same code on the same seeded stream, so every shard
    /// matches the server's replica bit for bit; the test set, manager
    /// and evaluation state are never built.
    ///
    /// # Panics
    ///
    /// As [`MiningPool::new`].
    pub fn build_workers(config: PoolConfig, behaviors: &[WorkerBehavior]) -> Vec<PoolWorker> {
        build_roster(&config, behaviors).0
    }

    /// Current global-model accuracy on the held-out test set, evaluated
    /// in fixed [`EVAL_CHUNK`]-row batches — on the persistent executor
    /// when one is attached. Per-chunk integer correct-counts are merged
    /// in index order, so serial and parallel evaluation agree bitwise.
    pub fn test_accuracy(&self) -> f32 {
        let total: usize = self
            .test_chunks
            .iter()
            .map(|(_, labels)| labels.len())
            .sum();
        let eval_chunk = |i: usize| {
            let (inputs, labels) = &self.test_chunks[i];
            let _g = span!(
                self.recorder,
                "rpol.pool.eval_chunk",
                chunk = i,
                rows = labels.len()
            );
            let mut model = self.checkout_eval_model();
            let logits = model.forward(inputs, false);
            let correct = correct_count(&logits, labels);
            self.eval_pool.lock().push(model);
            correct
        };
        let correct: usize = match &self.executor {
            Some(exec) => exec
                .run_indexed(self.test_chunks.len(), eval_chunk)
                .into_iter()
                .sum(),
            None => (0..self.test_chunks.len()).map(eval_chunk).sum(),
        };
        correct as f32 / total as f32
    }

    /// Checks an evaluation model out of the pool (building one on a
    /// miss) and loads the current global weights into it.
    fn checkout_eval_model(&self) -> Sequential {
        let mut model = self.eval_pool.lock().pop().unwrap_or_else(|| {
            self.manager
                .config()
                .build_encoded_model(&self.manager.address)
        });
        model.load_params(self.manager.global_weights());
        model
    }

    /// Runs one epoch and returns its record.
    pub fn run_epoch(&mut self, epoch: u64) -> EpochRecord {
        let start = std::time::Instant::now();
        let _epoch_span = span!(self.recorder, "rpol.pool.epoch", epoch);
        let report = self.manager.run_epoch(&mut self.workers, epoch);
        EpochRecord {
            report,
            test_accuracy: self.test_accuracy(),
            wall_seconds: start.elapsed().as_secs_f64(),
            transport_time: SimClock::new(),
        }
    }

    /// Runs one epoch on the pool's persistent executor with **phase
    /// overlap**: every worker's training is one task, and the moment
    /// worker `w`'s submission lands, one verification task per sampled
    /// checkpoint of `w` is spawned — other workers may still be training.
    /// Zero threads are spawned per epoch; the executor is constructed
    /// once for the pool's lifetime.
    ///
    /// Bitwise identical to [`MiningPool::run_epoch`] at every thread
    /// count: the sampling schedule is drawn eagerly from the same RNG
    /// stream (training never touches the manager's RNG), per-sample
    /// verdicts merge in index order, and evaluation chunks are fixed.
    pub fn run_epoch_parallel(&mut self, epoch: u64) -> EpochRecord {
        use parking_lot::Mutex;

        let exec = self.ensure_executor();
        let start = std::time::Instant::now();
        let recorder = self.recorder.clone();
        let _epoch_span = span!(recorder, "rpol.pool.epoch", epoch);
        let n = self.workers.len();
        let plan = self.manager.begin_epoch(n, epoch);
        // Eager draw of the verification schedule — same RNG stream as the
        // serial path's post-training draw. `None` for the baseline
        // scheme, which never draws sampling state.
        let prepared = self.manager.prepare_verification(&plan, n);

        let config = *self.manager.config();
        let global = self.manager.global_weights().to_vec();
        let manager = &self.manager;

        // Each worker moves by value into its training task; verification
        // tasks read it back from its slot as soon as training stores it.
        let slots: Vec<RwLock<Option<PoolWorker>>> = std::mem::take(&mut self.workers)
            .into_iter()
            .map(|w| RwLock::new(Some(w)))
            .collect();
        let submissions: Vec<OnceLock<EpochSubmission>> = (0..n).map(|_| OnceLock::new()).collect();
        let sample_slots: Vec<Vec<Mutex<Option<SampleVerdict>>>> = (0..n)
            .map(|w| {
                let q = prepared.as_ref().map_or(0, |p| p.sample_count(w));
                (0..q).map(|_| Mutex::new(None)).collect()
            })
            .collect();

        exec.scope(|s| {
            for w in 0..n {
                let slot = &slots[w];
                let submission = &submissions[w];
                let verdicts = &sample_slots[w];
                let plan = &plan;
                let prepared = prepared.as_ref();
                let config = &config;
                let global = &global;
                let recorder = &recorder;
                s.spawn(move || {
                    let mut worker = slot.write().expect("worker slot").take().expect("present");
                    let sub = {
                        let _g = span!(
                            recorder,
                            "rpol.worker.train_epoch",
                            epoch,
                            worker = w,
                            steps = plan.steps
                        );
                        worker.run_epoch(
                            config,
                            global,
                            plan.nonces[w],
                            plan.steps,
                            epoch,
                            plan.commit_mode(),
                        )
                    };
                    *slot.write().expect("worker slot") = Some(worker);
                    assert!(submission.set(sub).is_ok(), "one submission per worker");
                    // This worker's commit landed: fan its sampled
                    // checkpoints out as independent tasks right away.
                    if let Some(prepared) = prepared {
                        span!(
                            recorder,
                            "rpol.verify.worker",
                            epoch = plan.epoch,
                            worker = w,
                            samples = prepared.sample_count(w)
                        );
                        for (pos, verdict_slot) in verdicts.iter().enumerate() {
                            s.spawn(move || {
                                let guard = slot.read().expect("worker slot");
                                let worker = guard.as_ref().expect("trained worker stored");
                                let part = Participant {
                                    id: w,
                                    address: worker.address,
                                    shard: worker.shard(),
                                    submission: submission.get().expect("submission stored"),
                                    provider: worker,
                                };
                                *verdict_slot.lock() = Some(
                                    manager.verify_prepared_sample(&part, plan, prepared, pos),
                                );
                            });
                        }
                    }
                });
            }
        });

        // Deterministic reduction: reassemble state and merge per-sample
        // verdicts in (worker, sample) index order.
        self.workers = slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("worker slot")
                    .expect("worker returned to its slot")
            })
            .collect();
        let submissions: Vec<EpochSubmission> = submissions
            .into_iter()
            .map(|s| s.into_inner().expect("every worker submitted"))
            .collect();
        let verdict_list: Option<Vec<WorkerVerdict>> = prepared.as_ref().map(|_| {
            sample_slots
                .iter()
                .map(|per_worker| {
                    WorkerVerdict::from_samples(
                        per_worker
                            .iter()
                            .map(|m| m.lock().take().expect("sample verified")),
                    )
                })
                .collect()
        });

        let participants: Vec<Participant<'_>> = self
            .workers
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
            broadcast_bytes: self.manager.broadcast_bytes(n),
            ..CommStats::default()
        };
        for sub in &submissions {
            comm.submission_bytes += sub.upload_bytes;
        }
        let report = self
            .manager
            .reduce_epoch(&plan, &participants, &[], comm, verdict_list);
        drop(participants);
        EpochRecord {
            report,
            test_accuracy: self.test_accuracy(),
            wall_seconds: start.elapsed().as_secs_f64(),
            transport_time: SimClock::new(),
        }
    }

    /// Runs one epoch through the two-tier committee hierarchy
    /// (DESIGN.md §15), **streaming committee-by-committee** so peak
    /// commitment memory is O(committee size), never O(pool size):
    ///
    /// 1. The roster is rendezvous-partitioned into committees (seeded on
    ///    the pool seed, so the assignment is stable across epochs and
    ///    churn moves O(1/C) workers).
    /// 2. Each committee's sub-manager trains its members (on the
    ///    persistent executor when `parallel`), runs the existing
    ///    sampled-replay verification over them, and emits a
    ///    Merkle-committed verdict batch over canonical verdict leaves.
    /// 3. The top manager ingests only the batch (root + verdicts + byte
    ///    counts) off the framed wire format, checks root consistency,
    ///    spot-audits `q_top` verdicts per committee — Merkle inclusion
    ///    proof plus a full re-replay of the audited worker — and folds
    ///    accepted updates into an order-invariant fixed-point aggregation
    ///    accumulator. The committee's submissions are dropped before the
    ///    next committee trains.
    ///
    /// Bitwise identical accept/reject/quarantine sets to the flat path at
    /// equal sampling parameters and any thread count: the manager RNG is
    /// consumed in exactly the flat order (`begin_epoch` nonces, then
    /// `prepare_verification` assignments for all workers), each verdict
    /// depends only on its own worker's assignment, audit sampling uses an
    /// independent PRF, and the fixed-point aggregation makes the
    /// committee-order fold equal the worker-order fold exactly.
    fn run_epoch_hierarchical(&mut self, epoch: u64, parallel: bool) -> EpochRecord {
        let start = std::time::Instant::now();
        let recorder = self.recorder.clone();
        let _epoch_span = span!(recorder, "rpol.pool.epoch", epoch);
        let hierarchy = self
            .config
            .hierarchy
            .expect("hierarchical path needs a hierarchy");
        let exec = parallel.then(|| self.ensure_executor());
        let n = self.workers.len();
        // Identical RNG consumption to the flat paths: nonces, then the
        // full verification schedule, before any committee runs.
        let plan = self.manager.begin_epoch(n, epoch);
        let prepared = self
            .manager
            .prepare_verification(&plan, n)
            .expect("hierarchy requires a verifying scheme");
        let committees = partition(self.config.seed, n, hierarchy.committees);

        let config = *self.manager.config();
        let global = self.manager.global_weights().to_vec();
        let mut comm = CommStats {
            broadcast_bytes: self.manager.broadcast_bytes(n),
            ..CommStats::default()
        };
        let mut ingest = self.manager.ingest_begin(hierarchy, &[]);

        for (c, members) in committees.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let _committee_span = span!(
                recorder,
                "rpol.pool.committee",
                epoch,
                committee = c,
                members = members.len()
            );
            // Sub-manager phase 1: train this committee's members. Only
            // their submissions are resident — the previous committee's
            // were dropped at the end of its loop iteration.
            let subs: Vec<EpochSubmission> = if let Some(exec) = &exec {
                let slots: Vec<OnceLock<EpochSubmission>> =
                    members.iter().map(|_| OnceLock::new()).collect();
                let member_pos: std::collections::HashMap<usize, usize> =
                    members.iter().enumerate().map(|(p, &w)| (w, p)).collect();
                exec.scope(|s| {
                    for (w, worker) in self.workers.iter_mut().enumerate() {
                        let Some(&pos) = member_pos.get(&w) else {
                            continue;
                        };
                        let slot = &slots[pos];
                        let plan = &plan;
                        let config = &config;
                        let global = &global;
                        let recorder = &recorder;
                        s.spawn(move || {
                            let _g = span!(
                                recorder,
                                "rpol.worker.train_epoch",
                                epoch,
                                worker = w,
                                steps = plan.steps
                            );
                            let sub = worker.run_epoch(
                                config,
                                global,
                                plan.nonces[w],
                                plan.steps,
                                epoch,
                                plan.commit_mode(),
                            );
                            assert!(slot.set(sub).is_ok(), "one submission per worker");
                        });
                    }
                });
                slots
                    .into_iter()
                    .map(|s| s.into_inner().expect("member trained"))
                    .collect()
            } else {
                members
                    .iter()
                    .map(|&w| {
                        let _g = span!(
                            recorder,
                            "rpol.worker.train_epoch",
                            epoch,
                            worker = w,
                            steps = plan.steps
                        );
                        self.workers[w].run_epoch(
                            &config,
                            &global,
                            plan.nonces[w],
                            plan.steps,
                            epoch,
                            plan.commit_mode(),
                        )
                    })
                    .collect()
            };

            // Sub-manager phase 2 + top-manager ingest: sampled-replay
            // verification, Merkle-committed batch over the framed wire
            // format, root check, spot audits, classification, and the
            // fixed-point aggregation fold — all shared with the socket
            // server through the manager's ingest API.
            let participants: Vec<Participant<'_>> = members
                .iter()
                .zip(&subs)
                .map(|(&w, sub)| {
                    let worker = &self.workers[w];
                    Participant {
                        id: w,
                        address: worker.address,
                        shard: worker.shard(),
                        submission: sub,
                        provider: worker,
                    }
                })
                .collect();
            self.manager.ingest_committee(
                &mut ingest,
                self.config.seed,
                c,
                &participants,
                &plan,
                &prepared,
                parallel,
            );
            drop(participants);
            comm.submission_bytes += subs.iter().map(|s| s.upload_bytes).sum::<u64>();
            // `subs` drops here: the next committee starts from a clean
            // memory floor.
        }

        let report = self.manager.ingest_finish(ingest, &plan, comm);
        EpochRecord {
            report,
            test_accuracy: self.test_accuracy(),
            wall_seconds: start.elapsed().as_secs_f64(),
            transport_time: SimClock::new(),
        }
    }

    /// Runs one epoch on per-epoch crossbeam scoped threads: the pre-
    /// executor runtime, retained as the benchmark baseline the persistent
    /// executor is measured against. Training is a hard barrier before
    /// worker-granular verification — no phase overlap. Assumes no
    /// executor has been attached (use a fresh pool for baseline runs).
    pub fn run_epoch_scoped(&mut self, epoch: u64) -> EpochRecord {
        use parking_lot::Mutex;

        let start = std::time::Instant::now();
        let recorder = self.recorder.clone();
        let _epoch_span = span!(recorder, "rpol.pool.epoch", epoch);
        let n = self.workers.len();
        let plan = self.manager.begin_epoch(n, epoch);

        // Phase 1: workers train concurrently.
        let config = *self.manager.config();
        let global = self.manager.global_weights().to_vec();
        let submissions: Mutex<Vec<Option<crate::worker::EpochSubmission>>> =
            Mutex::new((0..n).map(|_| None).collect());
        crossbeam::thread::scope(|scope| {
            for (w, worker) in self.workers.iter_mut().enumerate() {
                let plan = &plan;
                let global = &global;
                let submissions = &submissions;
                let config = &config;
                let recorder = &recorder;
                scope.spawn(move |_| {
                    let _g = span!(
                        recorder,
                        "rpol.worker.train_epoch",
                        epoch,
                        worker = w,
                        steps = plan.steps
                    );
                    let sub = worker.run_epoch(
                        config,
                        global,
                        plan.nonces[w],
                        plan.steps,
                        epoch,
                        plan.commit_mode(),
                    );
                    submissions.lock()[w] = Some(sub);
                });
            }
        })
        .expect("worker thread panicked");
        let submissions: Vec<crate::worker::EpochSubmission> = submissions
            .into_inner()
            .into_iter()
            .map(|s| s.expect("every worker submitted"))
            .collect();

        // Phase 2: verification also fans out across threads.
        let report = self
            .manager
            .finish_epoch_parallel(&self.workers, &plan, &submissions);
        EpochRecord {
            report,
            test_accuracy: self.test_accuracy(),
            wall_seconds: start.elapsed().as_secs_f64(),
            transport_time: SimClock::new(),
        }
    }

    /// Runs the configured number of epochs.
    pub fn run(&mut self) -> PoolReport {
        self.run_with(RunMode::Serial)
    }

    /// Runs the configured number of epochs on the persistent executor
    /// with train/verify phase overlap ([`MiningPool::run_epoch_parallel`]).
    pub fn run_parallel(&mut self) -> PoolReport {
        self.ensure_executor();
        self.run_with(RunMode::Overlapped)
    }

    /// Runs the configured number of epochs on per-epoch scoped threads
    /// ([`MiningPool::run_epoch_scoped`]) — the pre-executor baseline kept
    /// for benchmarking. Never constructs the persistent executor.
    pub fn run_scoped(&mut self) -> PoolReport {
        self.run_with(RunMode::Scoped)
    }

    fn run_with(&mut self, mode: RunMode) -> PoolReport {
        if let Some(hierarchy) = self.config.hierarchy {
            assert!(
                !matches!(self.config.scheme, Scheme::Baseline),
                "hierarchy requires a verifying scheme: the baseline emits no verdicts to commit"
            );
            assert!(
                self.config.fault.is_none(),
                "hierarchy over the fault-injecting transport is not supported"
            );
            hierarchy
                .validate(self.workers.len(), self.config.seed)
                .expect("invalid hierarchy for this roster");
        }
        let mut epochs = Vec::with_capacity(self.config.epochs);
        for e in 0..self.config.epochs {
            let record = if self.config.fault.is_some() {
                self.run_epoch_transport(e as u64, mode != RunMode::Serial)
            } else if self.config.hierarchy.is_some() {
                self.run_epoch_hierarchical(e as u64, mode != RunMode::Serial)
            } else {
                match mode {
                    RunMode::Serial => self.run_epoch(e as u64),
                    RunMode::Scoped => self.run_epoch_scoped(e as u64),
                    RunMode::Overlapped => self.run_epoch_parallel(e as u64),
                }
            };
            self.publish_epoch(&record);
            epochs.push(record);
        }
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

    /// Runs one epoch with every protocol message crossing the
    /// fault-injecting transport (DESIGN.md §9).
    ///
    /// Phases, with all fault draws serialized in worker-id order so
    /// `parallel` changes scheduling but never outcomes:
    ///
    /// 1. **Task broadcast** — each worker's [`wire::EpochTask`] (nonce +
    ///    global model) crosses its link; delivery failure quarantines the
    ///    worker before it trains.
    /// 2. **Training** — tasked workers whose submission link is up train
    ///    from the *delivered* task bytes (serially or on threads). A
    ///    worker crashing this epoch trains partial steps that nobody will
    ///    ever see; the simulation skips the wasted compute.
    /// 3. **Submission upload** — results cross the links back; a dead
    ///    peer costs the manager one commitment deadline, an exhausted
    ///    retry budget quarantines.
    /// 4. **Verification** — proof RPCs ride the same transport; openings
    ///    that stop arriving quarantine the worker instead of rejecting
    ///    it. Aggregation and credit run over the survivors.
    ///
    /// Byte accounting: [`CommStats`] counts each logical payload once
    /// (what the protocol *moved*); [`TransportStats::wire_bytes`] counts
    /// physical frames including retransmissions (what the network
    /// *carried*).
    fn run_epoch_transport(&mut self, epoch: u64, parallel: bool) -> EpochRecord {
        use parking_lot::Mutex;

        let start = std::time::Instant::now();
        let recorder = self.recorder.clone();
        let _epoch_span = span!(recorder, "rpol.pool.epoch", epoch);
        let fault = self.config.fault.expect("transport path needs faults");
        let transport = Transport::new(&fault);
        let n = self.workers.len();
        let plan = self.manager.begin_epoch(n, epoch);
        let mut stats = TransportStats::default();
        let mut clock = SimClock::new();
        let mut quarantined: Vec<usize> = Vec::new();
        let mut comm = CommStats::default();

        // Phase 1: task broadcast, serial in worker order.
        let phase_broadcast = span!(recorder, "rpol.pool.task_broadcast", epoch);
        let block = self.manager.task_block();
        let mut tasks: Vec<Option<wire::EpochTask>> = (0..n).map(|_| None).collect();
        for (w, worker) in self.workers.iter().enumerate() {
            let payload = block.frame(epoch, plan.nonces[w], plan.steps as u32);
            comm.broadcast_bytes += payload.len() as u64;
            stats.bytes_saved += block.bytes_saved();
            let link = link_state(&worker.behavior(), epoch, MsgKind::Task);
            match transport
                .exchange(
                    epoch,
                    w,
                    MsgKind::Task,
                    0,
                    &payload,
                    link,
                    &mut stats,
                    &mut clock,
                    &recorder,
                )
                .map(wire::decode_epoch_task)
            {
                Ok(Ok(delivered)) => tasks[w] = Some(delivered),
                _ => quarantined.push(w),
            }
        }
        drop(phase_broadcast);

        // Phase 2: training on the delivered tasks. Workers that will not
        // be able to submit (crashed this epoch) skip the doomed compute.
        let phase_training = span!(recorder, "rpol.pool.training", epoch);
        let submission_links: Vec<LinkState> = self
            .workers
            .iter()
            .map(|worker| link_state(&worker.behavior(), epoch, MsgKind::Submission))
            .collect();
        let config = *self.manager.config();
        let commit_mode = plan.commit_mode();
        let mut local: Vec<Option<EpochSubmission>> = (0..n).map(|_| None).collect();
        if parallel {
            let slots: Mutex<Vec<Option<EpochSubmission>>> =
                Mutex::new((0..n).map(|_| None).collect());
            if let Some(exec) = self.executor.clone() {
                // Persistent-executor runtime: training tasks land on the
                // long-lived pool instead of per-epoch OS threads.
                exec.scope(|s| {
                    for (w, worker) in self.workers.iter_mut().enumerate() {
                        let Some(task) = tasks[w].as_ref() else {
                            continue;
                        };
                        if !submission_links[w].alive {
                            continue;
                        }
                        let slots = &slots;
                        let config = &config;
                        let recorder = &recorder;
                        s.spawn(move || {
                            let _g = span!(
                                recorder,
                                "rpol.worker.train_epoch",
                                epoch,
                                worker = w,
                                steps = task.steps
                            );
                            let sub = worker.run_epoch(
                                config,
                                &task.global_weights,
                                task.nonce,
                                task.steps as usize,
                                epoch,
                                commit_mode,
                            );
                            slots.lock()[w] = Some(sub);
                        });
                    }
                });
            } else {
                crossbeam::thread::scope(|scope| {
                    for (w, worker) in self.workers.iter_mut().enumerate() {
                        let Some(task) = tasks[w].as_ref() else {
                            continue;
                        };
                        if !submission_links[w].alive {
                            continue;
                        }
                        let slots = &slots;
                        let config = &config;
                        let recorder = &recorder;
                        scope.spawn(move |_| {
                            let _g = span!(
                                recorder,
                                "rpol.worker.train_epoch",
                                epoch,
                                worker = w,
                                steps = task.steps
                            );
                            let sub = worker.run_epoch(
                                config,
                                &task.global_weights,
                                task.nonce,
                                task.steps as usize,
                                epoch,
                                commit_mode,
                            );
                            slots.lock()[w] = Some(sub);
                        });
                    }
                })
                .expect("worker thread panicked");
            }
            local = slots.into_inner();
        } else {
            for (w, worker) in self.workers.iter_mut().enumerate() {
                let Some(task) = tasks[w].as_ref() else {
                    continue;
                };
                if !submission_links[w].alive {
                    continue;
                }
                let _g = span!(
                    recorder,
                    "rpol.worker.train_epoch",
                    epoch,
                    worker = w,
                    steps = task.steps
                );
                local[w] = Some(worker.run_epoch(
                    &config,
                    &task.global_weights,
                    task.nonce,
                    task.steps as usize,
                    epoch,
                    commit_mode,
                ));
            }
        }
        drop(phase_training);

        // Phase 3: submission upload, serial in worker order.
        let phase_submission = span!(recorder, "rpol.pool.submission", epoch);
        let hashes_per_group = match plan.commit_mode() {
            CommitMode::V2(f) | CommitMode::V3(f) => f.params().k,
            _ => 0,
        };
        let mut delivered: Vec<Option<EpochSubmission>> = (0..n).map(|_| None).collect();
        for w in 0..n {
            if tasks[w].is_none() {
                continue; // already quarantined at task delivery
            }
            if !submission_links[w].alive {
                // The worker fell silent: the manager waits out one
                // commitment deadline, then quarantines it.
                stats.timeouts += 1;
                clock.add(MsgKind::Submission.label(), transport.policy().timeout_s);
                clock.tick("deadline_miss");
                event!(recorder, "rpol.pool.deadline_miss", epoch, worker = w);
                quarantined.push(w);
                continue;
            }
            let sub = local[w].take().expect("tasked live worker trained");
            let payload = wire::encode_submission(&sub.final_weights, sub.commitment.as_ref());
            stats.bytes_saved +=
                (wire::submission_raw_wire_size(sub.final_weights.len(), sub.commitment.as_ref())
                    as u64)
                    .saturating_sub(payload.len() as u64);
            match transport
                .exchange(
                    epoch,
                    w,
                    MsgKind::Submission,
                    0,
                    &payload,
                    submission_links[w],
                    &mut stats,
                    &mut clock,
                    &recorder,
                )
                .map(wire::decode_submission)
            {
                Ok(Ok((final_weights, commitment))) => {
                    comm.submission_bytes += payload.len() as u64;
                    // The manager works from what the wire delivered, not
                    // from the worker's in-process state. Hashing cost is
                    // recomputed from the decoded commitment — a pure
                    // function of model size and scheme, so both sides of
                    // the wire always account the same number.
                    let commit_bytes_hashed = commitment
                        .as_ref()
                        .map_or(0, |c| c.bytes_hashed(final_weights.len(), hashes_per_group));
                    delivered[w] = Some(EpochSubmission {
                        worker_id: w,
                        final_weights,
                        commitment,
                        upload_bytes: payload.len() as u64,
                        commit_bytes_hashed,
                    });
                }
                _ => quarantined.push(w),
            }
        }
        drop(phase_submission);

        // Phase 4: verification over the survivors, openings served
        // through per-worker transport endpoints.
        let phase_verification = span!(recorder, "rpol.pool.verification", epoch);
        let packed = matches!(self.config.scheme, Scheme::RPoLv3);
        let providers: Vec<Option<TransportProvider<'_>>> = self
            .workers
            .iter()
            .enumerate()
            .map(|(w, worker)| {
                delivered[w]
                    .as_ref()
                    .map(|_| TransportProvider::new(&transport, worker, epoch, &recorder, packed))
            })
            .collect();
        let participants: Vec<Participant<'_>> = self
            .workers
            .iter()
            .enumerate()
            .filter_map(|(w, worker)| {
                let submission = delivered[w].as_ref()?;
                let provider = providers[w].as_ref()?;
                Some(Participant {
                    id: w,
                    address: worker.address,
                    shard: worker.shard(),
                    submission,
                    provider,
                })
            })
            .collect();
        let mut report = self.manager.finish_epoch_partial(
            &plan,
            n,
            &participants,
            &quarantined,
            comm,
            parallel,
        );

        // Merge proof-channel traffic in worker-id order: deterministic
        // regardless of verification scheduling.
        for provider in providers.into_iter().flatten() {
            let state = provider.state.into_inner();
            stats.merge(&state.stats);
            clock.merge(&state.clock);
        }
        report.transport = stats;
        drop(phase_verification);

        EpochRecord {
            report,
            test_accuracy: self.test_accuracy(),
            wall_seconds: start.elapsed().as_secs_f64(),
            transport_time: clock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The client half of a socket run builds workers without the rest of
    /// the pool; they must be the workers `MiningPool::new` builds — same
    /// shards bit for bit, same GPUs, behaviours and addresses — or the
    /// server's replay would run on different data than the client trained on.
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
        assert_eq!(alone.len(), pool.workers().len());
        for (a, b) in alone.iter().zip(pool.workers()) {
            assert_eq!((a.id, a.gpu, a.address), (b.id, b.gpu, b.address));
            assert_eq!(a.behavior(), b.behavior());
            let ((xa, ya), (xb, yb)) = (a.shard().full_batch(), b.shard().full_batch());
            assert_eq!(ya, yb);
            let bits = |t: &rpol_tensor::Tensor| -> Vec<u32> {
                t.data().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&xa), bits(&xb), "worker {} shard", a.id);
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
    fn v3_parallel_run_matches_serial_exactly() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
        ];
        let serial =
            MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv3), behaviors.clone()).run();
        let parallel =
            MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv3), behaviors).run_parallel();
        assert_eq!(serial.accuracy_curve(), parallel.accuracy_curve());
        for (a, b) in serial.epochs.iter().zip(&parallel.epochs) {
            assert_eq!(a.report.accepted, b.report.accepted);
            assert_eq!(a.report.rejected, b.report.rejected);
            assert_eq!(a.report.comm, b.report.comm);
            assert_eq!(a.report.commit_bytes_hashed, b.report.commit_bytes_hashed);
        }
    }

    #[test]
    fn v3_transport_saves_wire_bytes_without_losing_detection() {
        let behaviors = vec![WorkerBehavior::Honest, WorkerBehavior::ReplayPrevious];
        let cfg = PoolConfig::tiny_demo(Scheme::RPoLv3).with_faults(FaultConfig::ideal(3));
        let v3 = MiningPool::new(cfg, behaviors.clone()).run();
        assert!(v3.rejections() > 0, "replayer must still be caught");
        let saved = v3.transport_totals().bytes_saved;
        assert!(saved > 0, "packed framing saved nothing");

        // The raw schemes save nothing: their encodings ARE the raw framing.
        let cfg = PoolConfig::tiny_demo(Scheme::RPoLv1).with_faults(FaultConfig::ideal(3));
        let v1 = MiningPool::new(cfg, behaviors).run();
        assert_eq!(v1.transport_totals().bytes_saved, 0);
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

    #[test]
    fn parallel_run_matches_serial_exactly() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
        ];
        let serial =
            MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv2), behaviors.clone()).run();
        let parallel =
            MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv2), behaviors).run_parallel();
        assert_eq!(serial.accuracy_curve(), parallel.accuracy_curve());
        for (a, b) in serial.epochs.iter().zip(&parallel.epochs) {
            assert_eq!(a.report.accepted, b.report.accepted);
            assert_eq!(a.report.rejected, b.report.rejected);
            assert_eq!(a.report.comm, b.report.comm);
        }
    }

    #[test]
    fn hierarchical_run_matches_flat_exactly() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
            WorkerBehavior::Honest,
        ];
        let flat = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv2), behaviors.clone()).run();
        let cfg = PoolConfig::tiny_demo(Scheme::RPoLv2)
            .with_hierarchy(Hierarchy::new(2, 1).expect("valid hierarchy"));
        let hier = MiningPool::new(cfg, behaviors.clone()).run();
        let hier_par = MiningPool::new(cfg, behaviors).run_parallel();
        assert_eq!(flat.accuracy_curve(), hier.accuracy_curve());
        assert_eq!(flat.accuracy_curve(), hier_par.accuracy_curve());
        for (a, b) in flat.epochs.iter().zip(&hier.epochs) {
            assert_eq!(a.report.accepted, b.report.accepted);
            assert_eq!(a.report.rejected, b.report.rejected);
            assert_eq!(a.report.quarantined, b.report.quarantined);
            assert_eq!(a.report.verdicts, b.report.verdicts);
            assert_eq!(a.report.comm, b.report.comm);
            assert_eq!(a.report.commit_bytes_hashed, b.report.commit_bytes_hashed);
            // Streaming bounds the peak at the largest committee's share.
            let h = b.report.hierarchy.expect("hierarchical run reports");
            assert!(b.report.peak_commit_bytes < a.report.peak_commit_bytes);
            assert_eq!(h.verdicts, 4);
            assert_eq!(h.audits, 2, "one audit per non-empty committee");
            assert_eq!(h.audit_mismatches, 0, "in-process sub-managers are honest");
            assert!(h.batch_bytes > 0);
        }
        for (a, b) in hier.epochs.iter().zip(&hier_par.epochs) {
            assert_eq!(a.report.accepted, b.report.accepted);
            assert_eq!(a.report.verdicts, b.report.verdicts);
            assert_eq!(a.report.hierarchy, b.report.hierarchy);
        }
    }

    #[test]
    fn accuracy_curve_has_one_point_per_epoch() {
        let mut cfg = PoolConfig::tiny_demo(Scheme::Baseline);
        cfg.epochs = 3;
        let report = MiningPool::new(cfg, vec![WorkerBehavior::Honest; 2]).run();
        assert_eq!(report.accuracy_curve().len(), 3);
    }
}
