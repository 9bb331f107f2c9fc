//! Pool workers: honest training and the cheating strategies of §VII.

use crate::adversary::{spoof_next_checkpoint, WorkerBehavior};
use crate::commitment::EpochCommitment;
use crate::pool::{Binding, MatchDigest, Scheme, SchemeSpec};
use crate::tasks::TaskConfig;
use crate::trainer::{epoch_segments, LocalTrainer, Segment};
use crate::verify::ProofProvider;
use rpol_crypto::sha256::Digest;
use rpol_crypto::Address;
use rpol_lsh::LshFamily;
use rpol_nn::data::SyntheticImages;
use rpol_nn::model::Sequential;
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::scratch;

/// Which commitment (if any) a worker produces for the epoch.
#[derive(Debug, Clone, Copy)]
pub enum CommitMode<'a> {
    /// No commitment, no checkpoint storage — the insecure baseline.
    Skip,
    /// RPoLv1: raw-hash commitment over checkpoints.
    V1,
    /// RPoLv2: LSH commitment with the epoch's calibrated family.
    V2(&'a LshFamily),
    /// RPoLv3: quantized lattice commitment with the epoch's calibrated
    /// family. Training itself moves onto the bf16 lattice (weights snap
    /// at every checkpoint boundary), so commitments and openings shrink
    /// to 2 bytes per weight without losing exactness.
    V3(&'a LshFamily),
}

impl<'a> CommitMode<'a> {
    /// The mode `spec`'s workers commit in, hashing by `family` when the
    /// scheme's commitments carry LSH digests.
    ///
    /// # Panics
    ///
    /// Panics on an LSH scheme without a family.
    pub(crate) fn new(spec: &SchemeSpec, family: Option<&'a LshFamily>) -> Self {
        let family = || {
            family
                .unwrap_or_else(|| panic!("{} commitment but no LSH family configured", spec.name))
        };
        match (spec.binding, spec.digest) {
            (Binding::None, _) => CommitMode::Skip,
            (Binding::Sha256, MatchDigest::RawDistance) => CommitMode::V1,
            (Binding::LshGroups, _) => CommitMode::V2(family()),
            (Binding::Sha256, MatchDigest::LshGroups) => CommitMode::V3(family()),
        }
    }

    /// The scheme whose workers commit in this mode.
    pub(crate) fn scheme(&self) -> Scheme {
        match self {
            CommitMode::Skip => Scheme::Baseline,
            CommitMode::V1 => Scheme::RPoLv1,
            CommitMode::V2(_) => Scheme::RPoLv2,
            CommitMode::V3(_) => Scheme::RPoLv3,
        }
    }

    /// LSH hashes per group (`k`) of the epoch's family; 0 for the schemes
    /// without one. Together with the model size it fixes the commitment's
    /// hashing cost.
    fn hashes_per_group(&self) -> usize {
        match self {
            CommitMode::V2(f) | CommitMode::V3(f) => f.params().k,
            CommitMode::Skip | CommitMode::V1 => 0,
        }
    }

    /// The digests this scheme binds a checkpoint by — what the commitment
    /// entry of exactly these weights carries. A function of the weights
    /// alone, so the manager computes it once per epoch for the start
    /// model every worker must have committed to.
    pub(crate) fn binding_of(&self, weights: &[f32]) -> Vec<Digest> {
        match self {
            CommitMode::Skip => Vec::new(),
            CommitMode::V1 => vec![rpol_crypto::sha256::sha256_f32(weights)],
            // Exact binding: the worker computed these digests from exactly
            // these weights, so all groups must agree.
            CommitMode::V2(family) => family.hash(weights).group_digests(),
            // Exact binding at half the bytes: an opened checkpoint is
            // lattice-enforced, so its packed 2-byte image determines the
            // f32 weights uniquely and the image digest binds as strongly
            // as V1's raw digest.
            CommitMode::V3(_) => vec![rpol_crypto::sha256(&rpol_crypto::bytes::bf16_as_le_bytes(
                weights,
            ))],
        }
    }
}

/// What a worker uploads at the end of an epoch (§V-B): its local result
/// plus the commitment over all checkpoints — *before* any sampling
/// decision is revealed.
#[derive(Debug, Clone)]
pub struct EpochSubmission {
    /// The submitting worker's index in the pool.
    pub worker_id: usize,
    /// The worker's final model weights for the epoch.
    pub final_weights: Vec<f32>,
    /// Commitment over the ordered checkpoint sequence (`None` under
    /// [`CommitMode::Skip`]).
    pub commitment: Option<EpochCommitment>,
    /// Bytes uploaded for this submission (weights + commitment). The
    /// final weights are counted at their block's length on the scheme's
    /// lattice ([`block_len`](crate::wire::block_len)).
    pub upload_bytes: u64,
    /// Bytes the worker's digest pipeline hashed to build the commitment
    /// (see [`EpochCommitment::bytes_hashed`]); 0 under
    /// [`CommitMode::Skip`].
    pub commit_bytes_hashed: u64,
}

impl EpochSubmission {
    /// The manager's copy of a submission that crossed a link, built from
    /// what the `payload_len`-byte payload decoded to and never from the
    /// worker's in-process state. Hashing cost is recomputed from the
    /// decoded commitment — a pure function of model size and scheme, so
    /// both sides of the wire always account the same number.
    pub(crate) fn delivered(
        worker_id: usize,
        (final_weights, commitment): (Vec<f32>, Option<EpochCommitment>),
        payload_len: usize,
        mode: CommitMode<'_>,
    ) -> Self {
        let commit_bytes_hashed = commitment.as_ref().map_or(0, |c| {
            c.bytes_hashed(final_weights.len(), mode.hashes_per_group())
        });
        Self {
            worker_id,
            final_weights,
            commitment,
            upload_bytes: payload_len as u64,
            commit_bytes_hashed,
        }
    }
}

/// A pool worker: owns a data shard, a GPU profile, and a (possibly
/// adversarial) behaviour.
///
/// # Examples
///
/// ```
/// use rpol::worker::{CommitMode, PoolWorker};
/// use rpol::adversary::WorkerBehavior;
/// use rpol::tasks::TaskConfig;
/// use rpol_crypto::Address;
/// use rpol_nn::data::SyntheticImages;
/// use rpol_sim::gpu::GpuModel;
/// use rpol_tensor::rng::Pcg32;
///
/// let cfg = TaskConfig::tiny();
/// let shard = SyntheticImages::generate(&cfg.spec, 32, &mut Pcg32::seed_from(0));
/// let mut worker = PoolWorker::new(
///     0, &cfg, &Address::from_seed(9), shard, GpuModel::GA10, WorkerBehavior::Honest,
/// );
/// let global = cfg.build_encoded_model(&Address::from_seed(9)).flatten_params();
/// let submission = worker.run_epoch(&cfg, &global, 7, 4, 1, CommitMode::V1);
/// assert_eq!(submission.final_weights.len(), global.len());
/// ```
pub struct PoolWorker {
    /// Pool-assigned index.
    pub id: usize,
    /// Reward address of this worker.
    pub address: Address,
    /// Registered GPU model (drives both compute speed and
    /// reproduction-error magnitude).
    pub gpu: GpuModel,
    behavior: WorkerBehavior,
    shard: SyntheticImages,
    /// The task and the manager whose address its AMLayer encodes: what
    /// the model is built from.
    task: TaskConfig,
    manager: Address,
    /// Built by the first [`Self::train`] that trains: a worker that never
    /// trains here (a socket server's roster, whose clients train) or
    /// never trains at all (a zero-effort cheat) holds none.
    model: Option<Sequential>,
    /// Checkpoints of the most recent epoch (the worker's local "proof"
    /// storage that openings are served from).
    checkpoints: Vec<Vec<f32>>,
    segments: Vec<Segment>,
}

impl PoolWorker {
    /// Creates a worker for a task coordinated by `manager` (whose address
    /// defines the model's AMLayer geometry).
    pub fn new(
        id: usize,
        config: &TaskConfig,
        manager: &Address,
        shard: SyntheticImages,
        gpu: GpuModel,
        behavior: WorkerBehavior,
    ) -> Self {
        Self {
            id,
            address: Address::from_seed(0xF00D_0000 ^ id as u64),
            gpu,
            behavior,
            shard,
            task: *config,
            manager: *manager,
            model: None,
            checkpoints: Vec::new(),
            segments: Vec::new(),
        }
    }

    /// The worker's behaviour.
    pub fn behavior(&self) -> WorkerBehavior {
        self.behavior
    }

    /// The worker's shard (the manager holds a copy too — it created the
    /// shards — so verification can replay against identical data).
    pub fn shard(&self) -> &SyntheticImages {
        &self.shard
    }

    /// Bytes of checkpoint storage currently held (§VII-E storage
    /// overhead).
    pub fn storage_bytes(&self) -> u64 {
        self.checkpoints.iter().map(|c| c.len() as u64 * 4).sum()
    }

    /// Whether the worker has built its model (test probe).
    #[cfg(test)]
    pub(crate) fn holds_model(&self) -> bool {
        self.model.is_some()
    }

    /// Segment layout of the last epoch.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Runs one epoch per the worker's behaviour and returns the
    /// submission: [`Self::train`] on `mode`'s scheme, then
    /// [`Self::commit`] in `mode`.
    pub fn run_epoch(
        &mut self,
        config: &TaskConfig,
        global_weights: &[f32],
        nonce: u64,
        total_steps: usize,
        epoch: u64,
        mode: CommitMode<'_>,
    ) -> EpochSubmission {
        let spec = mode.scheme().spec();
        let checkpoints = self.train(config, global_weights, nonce, total_steps, epoch, spec);
        self.commit(checkpoints, mode)
    }

    /// Trains one epoch per the worker's behaviour and returns its
    /// checkpoints, input first — what [`Self::commit`] binds. Reads two
    /// settings of `spec`: the lattice training runs on, and whether any
    /// checkpoint but the last is kept. Nothing here depends on the epoch's
    /// calibration (a commitment's LSH family), which a worker may
    /// therefore learn after training.
    pub fn train(
        &mut self,
        config: &TaskConfig,
        global_weights: &[f32],
        nonce: u64,
        total_steps: usize,
        epoch: u64,
        spec: &SchemeSpec,
    ) -> Vec<Vec<f32>> {
        let segments = epoch_segments(total_steps, config.checkpoint_interval);
        let run_seed = (epoch << 20) ^ (self.id as u64) << 4 ^ nonce;
        // RPoLv3 trains on the bf16 lattice: every protocol-visible state
        // (epoch input, checkpoints, spoofed extrapolations) is snapped,
        // honest and adversarial alike — an off-lattice opening is
        // rejected as malformed before any replay.
        let lattice = spec.lattice;
        // The last epoch's proofs are served: its checkpoints go back to
        // the process pool before this epoch's are taken, but for the
        // previous result a foreign start trains from.
        let mut previous = std::mem::take(&mut self.checkpoints);
        let foreign = matches!(self.behavior, WorkerBehavior::ForeignStart).then(|| {
            previous
                .pop()
                .unwrap_or_else(|| global_weights.iter().map(|w| w * 0.5).collect())
        });
        previous.into_iter().for_each(scratch::put);
        let checkpoints = match self.behavior {
            // Crash and straggler faults train honestly: the crash cuts off
            // *communication* (modelled by the transport layer, which stops
            // calling this worker), and the straggler is merely slow.
            // The two endpoint cheats train honestly too: `SwapFinal` lies
            // only in what it submits (below), `ForeignStart` only in where
            // it starts — its own previous result, or before it has one the
            // broadcast model halved.
            WorkerBehavior::Honest
            | WorkerBehavior::CrashAt { .. }
            | WorkerBehavior::Straggler { .. }
            | WorkerBehavior::SwapFinal
            | WorkerBehavior::ForeignStart => {
                let model = self
                    .model
                    .get_or_insert_with(|| self.task.build_encoded_model(&self.manager));
                model.load_params(foreign.as_deref().unwrap_or(global_weights));
                let noise = NoiseInjector::new(self.gpu, run_seed);
                let mut trainer = LocalTrainer::new(config, &self.shard, noise);
                if !spec.verifies() {
                    // No proof storage: the final weights are the only
                    // checkpoint anyone reads.
                    for &segment in &segments {
                        trainer.run_segment(model, nonce, segment);
                    }
                    model.end_pass();
                    vec![model.flatten_params()]
                } else {
                    trainer.train(model, nonce, &segments, lattice).checkpoints
                }
            }
            WorkerBehavior::ReplayPrevious => {
                // Adv1: zero effort — every "checkpoint" is the input.
                let mut input = pooled_copy(global_weights);
                lattice.snap(&mut input);
                let mut checkpoints: Vec<Vec<f32>> =
                    (0..segments.len()).map(|_| pooled_copy(&input)).collect();
                checkpoints.push(input);
                checkpoints
            }
            WorkerBehavior::PartialSpoof {
                honest_fraction,
                lambda,
            } => {
                // Ceil: an Adv2 that "trains 10% of the steps" trains at
                // least one segment, giving its Eq. 12 extrapolation a
                // real momentum history (and making its fake updates
                // actively poisonous rather than degenerate no-ops).
                let honest_segments = if honest_fraction > 0.0 {
                    ((segments.len() as f32 * honest_fraction).ceil() as usize)
                        .clamp(1, segments.len())
                } else {
                    0
                };
                let model = self
                    .model
                    .get_or_insert_with(|| self.task.build_encoded_model(&self.manager));
                model.load_params(global_weights);
                let noise = NoiseInjector::new(self.gpu, run_seed);
                let mut trainer = LocalTrainer::new(config, &self.shard, noise);
                let honest = &segments[..honest_segments];
                let mut checkpoints = trainer.train(model, nonce, honest, lattice).checkpoints;
                // Spoof the rest by Eq. 12 extrapolation.
                for _ in honest_segments..segments.len() {
                    let mut next = spoof_next_checkpoint(&checkpoints, lambda);
                    lattice.snap(&mut next);
                    checkpoints.push(next);
                }
                checkpoints
            }
        };
        self.segments = segments;
        checkpoints
    }

    /// Commits to the checkpoints [`Self::train`] returned, in `mode`, and
    /// returns the submission; the worker keeps them as its proof storage
    /// (none under [`CommitMode::Skip`]).
    pub fn commit(
        &mut self,
        mut checkpoints: Vec<Vec<f32>>,
        mode: CommitMode<'_>,
    ) -> EpochSubmission {
        let commitment = match mode {
            CommitMode::Skip => None,
            CommitMode::V1 => Some(EpochCommitment::commit_v1(&checkpoints)),
            CommitMode::V2(f) => Some(EpochCommitment::commit_v2(&checkpoints, f)),
            CommitMode::V3(f) => Some(EpochCommitment::commit_v3(&checkpoints, f)),
        };
        // Baseline workers keep no proof storage (below), so their
        // submission takes the final checkpoint instead of a copy.
        let mut final_weights = match mode {
            CommitMode::Skip => checkpoints.pop().expect("nonempty"),
            _ => pooled_copy(checkpoints.last().expect("nonempty")),
        };
        if matches!(self.behavior, WorkerBehavior::SwapFinal) {
            // Committed honestly, submitted sign-flipped (still on the
            // lattice, still finite): only the binding can tell.
            final_weights.iter_mut().for_each(|w| *w = -*w);
        }
        let commit_bytes = commitment.as_ref().map_or(0, EpochCommitment::wire_size);
        let commit_bytes_hashed = commitment.as_ref().map_or(0, |c| {
            c.bytes_hashed(final_weights.len(), mode.hashes_per_group())
        });
        // The final weights ship as a block on the scheme's lattice:
        // charge the block's own length, ~1.5 bytes a weight on bf16 and
        // ~3.5 on f32.
        let weight_bytes = crate::wire::block_len(mode.scheme().spec().lattice, &final_weights);
        let upload_bytes = (weight_bytes + commit_bytes) as u64;
        // Baseline workers keep no proof storage.
        self.checkpoints = if matches!(mode, CommitMode::Skip) {
            Vec::new()
        } else {
            checkpoints
        };
        EpochSubmission {
            worker_id: self.id,
            final_weights,
            commitment,
            upload_bytes,
            commit_bytes_hashed,
        }
    }
}

/// A copy of `weights` in a buffer from the process pool.
fn pooled_copy(weights: &[f32]) -> Vec<f32> {
    let mut copy = scratch::take_empty(weights.len());
    copy.extend_from_slice(weights);
    copy
}

impl ProofProvider for PoolWorker {
    /// In-process opening: the worker's local storage never fails, and the
    /// resident checkpoint is served as a borrow — no copy per opening.
    /// The transport layer wraps this in a lossy channel whose failures
    /// *do* surface as [`crate::verify::ProofUnavailable`].
    fn open_checkpoint(
        &self,
        index: usize,
    ) -> Result<std::borrow::Cow<'_, [f32]>, crate::verify::ProofUnavailable> {
        Ok(std::borrow::Cow::Borrowed(&self.checkpoints[index]))
    }
}

impl std::fmt::Debug for PoolWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PoolWorker(id {}, {} on {:?}, {} checkpoints)",
            self.id,
            self.gpu,
            self.behavior,
            self.checkpoints.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_tensor::rng::Pcg32;

    fn setup(behavior: WorkerBehavior) -> (TaskConfig, PoolWorker, Vec<f32>) {
        let cfg = TaskConfig::tiny();
        let manager = Address::from_seed(9);
        let shard = SyntheticImages::generate(&cfg.spec, 32, &mut Pcg32::seed_from(3));
        let worker = PoolWorker::new(0, &cfg, &manager, shard, GpuModel::GA10, behavior);
        let global = cfg.build_encoded_model(&manager).flatten_params();
        (cfg, worker, global)
    }

    #[test]
    fn honest_worker_makes_progress() {
        let (cfg, mut worker, global) = setup(WorkerBehavior::Honest);
        let sub = worker.run_epoch(&cfg, &global, 1, 4, 0, CommitMode::V1);
        assert_ne!(sub.final_weights, global);
        let commitment = sub.commitment.as_ref().expect("committed");
        assert_eq!(commitment.len(), worker.segments().len() + 1);
        assert!(worker.storage_bytes() > 0);
    }

    #[test]
    fn honest_worker_preserves_amlayer() {
        let (cfg, mut worker, global) = setup(WorkerBehavior::Honest);
        let manager = Address::from_seed(9);
        let sub = worker.run_epoch(&cfg, &global, 1, 4, 0, CommitMode::V1);
        assert!(cfg.verify_model_owner(&sub.final_weights, &manager, cfg.lipschitz_c));
    }

    #[test]
    fn replay_adversary_does_nothing() {
        let (cfg, mut worker, global) = setup(WorkerBehavior::ReplayPrevious);
        let sub = worker.run_epoch(&cfg, &global, 1, 4, 0, CommitMode::V1);
        assert_eq!(sub.final_weights, global);
        // All committed checkpoints are the global weights.
        for j in 0..sub.commitment.as_ref().expect("committed").len() {
            assert_eq!(worker.open_checkpoint(j).expect("local"), global);
        }
    }

    #[test]
    fn partial_spoofer_trains_then_extrapolates() {
        let (cfg, mut worker, global) = setup(WorkerBehavior::PartialSpoof {
            honest_fraction: 0.5,
            lambda: 0.5,
        });
        // 8 steps, interval 2 → 4 segments; 2 honest, 2 spoofed.
        let sub = worker.run_epoch(&cfg, &global, 1, 8, 0, CommitMode::V1);
        assert_eq!(worker.segments().len(), 4);
        assert_ne!(sub.final_weights, global);
        // Honest prefix differs from spoofed checkpoints: checkpoint 2 was
        // trained, checkpoint 3 extrapolated.
        let c2 = worker.open_checkpoint(2).expect("local");
        let c3 = worker.open_checkpoint(3).expect("local");
        assert_ne!(c2, c3);
    }

    #[test]
    fn proof_provider_serves_committed_checkpoints() {
        let (cfg, mut worker, global) = setup(WorkerBehavior::Honest);
        let sub = worker.run_epoch(&cfg, &global, 5, 4, 0, CommitMode::V1);
        // Opening 0 must be the epoch input.
        assert_eq!(worker.open_checkpoint(0).expect("local"), global);
        let last = worker
            .open_checkpoint(sub.commitment.as_ref().expect("committed").len() - 1)
            .expect("local");
        assert_eq!(last, sub.final_weights);
    }

    #[test]
    fn v3_worker_checkpoints_live_on_the_lattice() {
        use rpol_lsh::{LshFamily, LshParams};
        for behavior in [
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
            WorkerBehavior::PartialSpoof {
                honest_fraction: 0.5,
                lambda: 0.5,
            },
        ] {
            let (cfg, mut worker, global) = setup(behavior);
            let dim = global.len();
            let family = LshFamily::new(dim, LshParams::new(1.0, 4, 4), 11);
            let sub = worker.run_epoch(&cfg, &global, 1, 8, 0, CommitMode::V3(&family));
            assert!(
                rpol_tensor::quant::is_bf16_lattice(&sub.final_weights),
                "{behavior:?} final weights off the lattice"
            );
            let n = sub.commitment.as_ref().expect("committed").len();
            for j in 0..n {
                assert!(
                    rpol_tensor::quant::is_bf16_lattice(&worker.open_checkpoint(j).expect("local")),
                    "{behavior:?} checkpoint {j} off the lattice"
                );
            }
            assert!(sub.commit_bytes_hashed > 0);
            // Packed weights: upload accounting charges 2 bytes per weight.
            let v1_equivalent = (dim * 4) as u64;
            assert!(sub.upload_bytes < v1_equivalent + sub.commitment.unwrap().wire_size() as u64);
        }
    }

    /// What the packed task broadcast rests on: under V3 every behaviour
    /// starts from `snap(global)`, so handing it the lattice image instead
    /// of the f32 model changes nothing it submits, commits to or stores.
    #[test]
    fn v3_epoch_is_the_same_from_the_global_model_and_its_lattice_image() {
        use rpol_lsh::{LshFamily, LshParams};
        let behaviors = [
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
            WorkerBehavior::PartialSpoof {
                honest_fraction: 0.5,
                lambda: 0.5,
            },
            WorkerBehavior::CrashAt {
                epoch: 9,
                after_steps: 1,
            },
            WorkerBehavior::Straggler { slowdown: 4.0 },
            WorkerBehavior::SwapFinal,
            WorkerBehavior::ForeignStart,
        ];
        for behavior in behaviors {
            // A new behaviour must join the list above (and hold the
            // property) before this compiles again.
            match behavior {
                WorkerBehavior::Honest
                | WorkerBehavior::ReplayPrevious
                | WorkerBehavior::PartialSpoof { .. }
                | WorkerBehavior::CrashAt { .. }
                | WorkerBehavior::Straggler { .. }
                | WorkerBehavior::SwapFinal
                | WorkerBehavior::ForeignStart => {}
            }
            let (cfg, mut from_f32, global) = setup(behavior);
            let (_, mut from_lattice, _) = setup(behavior);
            assert!(!rpol_tensor::quant::is_bf16_lattice(&global));
            let snapped = rpol_tensor::quant::bf16_image(&global);
            let family = LshFamily::new(global.len(), LshParams::new(1.0, 4, 4), 11);
            let mode = CommitMode::V3(&family);
            let a = from_f32.run_epoch(&cfg, &global, 1, 8, 0, mode);
            let b = from_lattice.run_epoch(&cfg, &snapped, 1, 8, 0, mode);
            assert_eq!(
                crate::wire::encode_submission(&a.final_weights, a.commitment.as_ref()),
                crate::wire::encode_submission(&b.final_weights, b.commitment.as_ref()),
                "{behavior:?} submission bytes"
            );
            assert_eq!(a.commitment, b.commitment, "{behavior:?} commitment");
            assert_eq!(a.upload_bytes, b.upload_bytes);
            assert_eq!(a.commit_bytes_hashed, b.commit_bytes_hashed);
            let bits = |cps: &[Vec<f32>]| -> Vec<Vec<u32>> {
                cps.iter()
                    .map(|cp| cp.iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            assert_eq!(
                bits(&from_f32.checkpoints),
                bits(&from_lattice.checkpoints),
                "{behavior:?} stored checkpoints"
            );
        }
    }

    /// The pool's path — `train` on the plan's scheme row, then `commit` in
    /// the plan's mode — equals `run_epoch` in that mode, for every
    /// behaviour on every scheme: submission bits, commitment, byte counts
    /// and the stored checkpoints.
    #[test]
    fn run_epoch_is_train_then_commit() {
        use rpol_lsh::{LshFamily, LshParams};
        let behaviors = [
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
            WorkerBehavior::PartialSpoof {
                honest_fraction: 0.5,
                lambda: 0.5,
            },
            WorkerBehavior::CrashAt {
                epoch: 9,
                after_steps: 1,
            },
            WorkerBehavior::Straggler { slowdown: 4.0 },
            WorkerBehavior::SwapFinal,
            WorkerBehavior::ForeignStart,
        ];
        let bits = |cps: &[Vec<f32>]| -> Vec<Vec<u32>> {
            cps.iter()
                .map(|cp| cp.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        for behavior in behaviors {
            let (cfg, _, global) = setup(behavior);
            let family = LshFamily::new(global.len(), LshParams::new(1.0, 4, 4), 11);
            for scheme in Scheme::ALL {
                let spec = scheme.spec();
                let mode = CommitMode::new(spec, Some(&family));
                let (_, mut whole, _) = setup(behavior);
                let (_, mut split, _) = setup(behavior);
                // Two epochs: `ForeignStart` starts its second from its own
                // stored result.
                for epoch in 0..2 {
                    let a = whole.run_epoch(&cfg, &global, 1, 8, epoch, mode);
                    let checkpoints = split.train(&cfg, &global, 1, 8, epoch, spec);
                    let b = split.commit(checkpoints, mode);
                    let at = format!("{behavior:?} on {scheme}, epoch {epoch}");
                    assert_eq!(bits(&[a.final_weights]), bits(&[b.final_weights]), "{at}");
                    assert_eq!(a.commitment, b.commitment, "{at}");
                    assert_eq!(a.upload_bytes, b.upload_bytes, "{at}");
                    assert_eq!(a.commit_bytes_hashed, b.commit_bytes_hashed, "{at}");
                    assert_eq!(bits(&whole.checkpoints), bits(&split.checkpoints), "{at}");
                    assert_eq!(whole.segments, split.segments, "{at}");
                }
            }
        }
    }

    #[test]
    fn commit_bytes_hashed_tracks_mode() {
        use rpol_lsh::{LshFamily, LshParams};
        let (cfg, mut worker, global) = setup(WorkerBehavior::Honest);
        let dim = global.len();
        let sub_v1 = worker.run_epoch(&cfg, &global, 1, 4, 0, CommitMode::V1);
        let n = sub_v1.commitment.as_ref().expect("committed").len() as u64;
        assert_eq!(sub_v1.commit_bytes_hashed, n * dim as u64 * 4);
        let family = LshFamily::new(dim, LshParams::new(1.0, 4, 4), 11);
        let sub_v3 = worker.run_epoch(&cfg, &global, 2, 4, 1, CommitMode::V3(&family));
        assert_eq!(sub_v3.commit_bytes_hashed, n * (dim as u64 * 2 + 4 * 4 * 8));
        let skip = worker.run_epoch(&cfg, &global, 3, 4, 2, CommitMode::Skip);
        assert_eq!(skip.commit_bytes_hashed, 0);
    }

    #[test]
    fn upload_accounts_commitment_bytes() {
        let (cfg, mut worker, global) = setup(WorkerBehavior::Honest);
        let sub = worker.run_epoch(&cfg, &global, 5, 4, 0, CommitMode::V1);
        let block = crate::wire::block_len(crate::pool::Lattice::F32, &sub.final_weights);
        let commitment = sub.commitment.as_ref().expect("v1 commits");
        assert_eq!(sub.upload_bytes, (block + commitment.wire_size()) as u64);
    }
}
