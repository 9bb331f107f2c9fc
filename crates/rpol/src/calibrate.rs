//! Adaptive LSH calibration (§V-C).
//!
//! Reproduction errors drift across epochs, optimizers and hardware, so
//! the manager re-estimates the tolerance bound `α` every epoch: it runs
//! its *own* i.i.d. sub-task once on each of the pool's top-2 GPUs — the
//! pairing that maximizes observed errors — replaying each checkpoint
//! segment on the second GPU from the first GPU's checkpoints, exactly
//! mirroring verification: run A is a worker's [`LocalTrainer::train`],
//! the replays a verifier's, on its `Lanes`. What is left here is the
//! arithmetic, [`CalibrationResult::from_distances`]:
//!
//! * `α` = maximum + standard deviation of the per-checkpoint distances,
//! * `β` = `x·α + y` (defaults `x = 5`, `y = 0`),
//! * LSH parameters solve Eq. 6 under `k·l ≤ K_lsh`.

use crate::pool::Lattice;
use crate::tasks::TaskConfig;
use crate::trainer::{epoch_segments, EpochTrace, LocalTrainer};
use crate::verify::{euclidean, Lanes, Verifier};
use rpol_lsh::tuning::{tune, TuningConfig, TuningOutcome};
use rpol_lsh::{LshFamily, LshParams};
use rpol_nn::data::SyntheticImages;
use rpol_nn::model::Sequential;
use rpol_obs::{event, span, Recorder};
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::scratch;
use rpol_tensor::stats::RunningStats;
use serde::Serialize;
use std::sync::Arc;

/// The per-epoch calibration broadcast: distance bounds plus the LSH
/// family parameters and seed every worker must use for its commitment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CalibrationResult {
    /// Epoch this calibration applies to.
    pub epoch: u64,
    /// Reproduction-error tolerance `α`: the maximum per-checkpoint replay
    /// distance the calibration run measured, plus their standard deviation.
    pub alpha: f32,
    /// Spoof-rejection threshold `β = x·α + y`.
    pub beta: f32,
    /// Optimal LSH parameters for `(α, β)`.
    pub params: LshParams,
    /// Seed from which workers and manager derive the identical family.
    pub family_seed: u64,
    /// Theoretical operating point of the tuned family.
    pub tuning: TuningOutcome,
    /// Largest single per-checkpoint error observed during calibration.
    pub max_observed_error: f32,
    /// Mean of the calibration errors (they are normal per §VII-C, so
    /// mean/std parameterize the Eq. 5 density `p_repr`).
    pub mean_error: f32,
    /// Standard deviation of the calibration errors.
    pub std_error: f32,
}

impl CalibrationResult {
    /// The calibration of the replay `distances` (in unit order) and each
    /// segment's `progress` (the distance between its two checkpoints).
    /// The max, not the mean, is what makes `β = x·α` cover the heavy
    /// tail of replay divergence; `β` is lifted to the gate-flip floor
    /// ([`CalibrationPolicy::progress_floor`]). Panics on no distances.
    fn from_distances(
        epoch: u64,
        policy: &CalibrationPolicy,
        distances: &[f32],
        progress: &[f32],
    ) -> Self {
        let mut stats = RunningStats::new();
        distances.iter().for_each(|&d| stats.push(d));
        let alpha = (stats.max() + stats.std_dev()).max(1e-9);
        let max_progress = progress.iter().copied().fold(0.0f32, f32::max);
        let beta =
            (policy.beta_x * alpha + policy.beta_y).max(policy.progress_floor * max_progress);
        let tuning = tune(&TuningConfig::new(alpha as f64, beta as f64).with_budget(policy.k_lsh));
        Self {
            epoch,
            alpha,
            beta,
            params: tuning.params,
            family_seed: 0xCA11_B000 ^ epoch,
            tuning,
            max_observed_error: stats.max(),
            mean_error: stats.mean(),
            std_error: stats.std_dev(),
        }
    }

    /// The epoch's LSH family for a `dim`-dimensional model: its key and
    /// `k·l` offsets, the same on every party.
    pub fn family(&self, dim: usize) -> LshFamily {
        LshFamily::new(dim, self.params, self.family_seed)
    }

    /// The Eq. 5 *expected* false-negative rate under the measured error
    /// distribution: `∫₀^β p_repr(c)·(1 − Pr_lsh(c)) dc` with `p_repr`
    /// the normal density fitted to the calibration errors (§VII-C found
    /// reproduction errors normal). This refines the worst-case proxy
    /// `1 − Pr_lsh(α)` reported in [`TuningOutcome`].
    pub fn expected_fnr(&self) -> f64 {
        let (mean, std) = (self.mean_error as f64, (self.std_error as f64).max(1e-12));
        rpol_lsh::probability::expected_fnr(
            move |c| rpol_tensor::stats::norm_pdf((c - mean) / std),
            self.beta as f64,
            self.params.r as f64,
            self.params.k,
            self.params.l,
            512,
        )
    }
}

/// Calibration policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CalibrationPolicy {
    /// Multiplier `x` in `β = x·α + y` (paper experiments use 5).
    pub beta_x: f32,
    /// Offset `y` in `β = x·α + y`.
    pub beta_y: f32,
    /// Replay of a segment can be perturbed by a *constant-magnitude*
    /// event — a single ReLU gate flipping for one batch sample changes
    /// that step's gradient by `O(‖Δθ_segment‖ / batch)` regardless of how
    /// small the hardware noise is. β is therefore floored at
    /// `progress_floor · max‖Δθ_segment‖` so these rare flips never reject
    /// honest workers. Spoof distances sit near `‖Δθ_segment‖` itself
    /// (Fig. 5), an order of magnitude above the floor.
    pub progress_floor: f32,
    /// Compute budget `K_lsh` on `k·l` (paper: 16).
    pub k_lsh: usize,
}

impl Default for CalibrationPolicy {
    fn default() -> Self {
        Self {
            beta_x: 5.0,
            beta_y: 0.0,
            progress_floor: 0.05,
            k_lsh: 16,
        }
    }
}

/// The manager-side calibrator: owns the manager's i.i.d. shard and the
/// top-2 GPU profiles.
pub struct Calibrator<'a> {
    config: &'a TaskConfig,
    shard: &'a SyntheticImages,
    policy: CalibrationPolicy,
    /// GPU A and GPU B. Run A and every replay build their own injector;
    /// a GPU's fingerprint is drawn once per process.
    gpus: [GpuModel; 2],
    recorder: Arc<Recorder>,
    lattice: Lattice,
}

impl<'a> Calibrator<'a> {
    /// Creates a calibrator using the pool's top-2 registered GPUs.
    pub fn new(
        config: &'a TaskConfig,
        shard: &'a SyntheticImages,
        policy: CalibrationPolicy,
        gpus: (GpuModel, GpuModel),
    ) -> Self {
        Self {
            config,
            shard,
            policy,
            gpus: [gpus.0, gpus.1],
            recorder: rpol_obs::noop().clone(),
            lattice: Lattice::F32,
        }
    }

    /// Calibrates on the RPoLv3 trajectory, [`Lattice::Bf16`], when `on`;
    /// else on f32.
    #[must_use]
    pub fn quantized(self, on: bool) -> Self {
        self.on(if on { Lattice::Bf16 } else { Lattice::F32 })
    }

    /// Calibrates on `lattice`: run A and every replay snap to it, so `α`
    /// and `β` absorb the quantization error as verification sees it.
    pub(crate) fn on(mut self, lattice: Lattice) -> Self {
        self.lattice = lattice;
        self
    }

    /// Attaches a recorder: a `rpol.calibrate.trace` span around run A,
    /// then one `rpol.calibrate.unit` event per replay with its `distance`,
    /// from the calling thread in unit order, on any lanes.
    #[must_use]
    pub fn with_recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.recorder = rec;
        self
    }

    /// Runs the calibration sub-task for one epoch on the calling thread,
    /// on one model.
    ///
    /// Trains from `global_weights` for `steps` on GPU A, then replays each
    /// segment on GPU B and again on GPU A from GPU A's checkpoints; the
    /// per-checkpoint distances are the measured reproduction errors. The
    /// trained result is *useful work* — the caller may aggregate it like
    /// any worker update (the paper notes the sub-task "is not useless
    /// work").
    ///
    /// Returns the calibration plus GPU A's trained final weights. Panics
    /// if `steps == 0`.
    pub fn calibrate(
        &self,
        global_weights: &[f32],
        nonce: u64,
        steps: usize,
        epoch: u64,
    ) -> (CalibrationResult, Vec<f32>) {
        let mut model = self.config.build_model_like(global_weights);
        let trace = {
            let _g = span!(self.recorder, "rpol.calibrate.trace", epoch, steps);
            self.train(&mut model, global_weights, nonce, steps, epoch)
        };
        let [gpu_b, gpu_a] = self.replayers(nonce, epoch);
        self.measure(trace, &[&gpu_b, &gpu_a], Lanes::Serial(&mut model), epoch)
    }

    /// Run A: a worker's epoch on `model` from `global_weights`, under
    /// GPU A's noise, on the calibration's lattice. The caller opens the
    /// `rpol.calibrate.trace` span around it, outside any executor task.
    pub(crate) fn train(
        &self,
        model: &mut Sequential,
        global_weights: &[f32],
        nonce: u64,
        steps: usize,
        epoch: u64,
    ) -> EpochTrace {
        assert!(steps > 0, "empty calibration run");
        model.load_params(global_weights);
        let noise = NoiseInjector::new(self.gpus[0], seed(epoch, 1));
        let mut trainer = LocalTrainer::new(self.config, self.shard, noise);
        let segments = epoch_segments(steps, self.config.checkpoint_interval);
        trainer.train(model, nonce, &segments, self.lattice)
    }

    /// The two replay passes as verifiers (their `β` is never read):
    /// subject 0 replays on GPU B, 1 on GPU A, each replay from a fresh
    /// injector, as verification replays.
    pub(crate) fn replayers(&self, nonce: u64, epoch: u64) -> [Verifier<'a>; 2] {
        [(1, 2), (0, 3)].map(|(gpu, run)| {
            let noise = NoiseInjector::new(self.gpus[gpu], seed(epoch, run));
            Verifier::new(self.config, self.shard, nonce, f32::MAX, None, noise)
        })
    }

    /// Replays every segment of run A's `trace` on `lanes` once per pass
    /// (unit `i`: pass `i / S`, segment `i % S`), snapped, and measures
    /// each against the checkpoint it should land on; reduced in unit
    /// order, so any lanes give the same bits. Returns the calibration
    /// and run A's final weights.
    pub(crate) fn measure(
        &self,
        trace: EpochTrace,
        replayers: &[&Verifier<'_>; 2],
        mut lanes: Lanes<'_>,
        epoch: u64,
    ) -> (CalibrationResult, Vec<f32>) {
        let (cps, segments) = (&trace.checkpoints, trace.segments.len());
        let distances = lanes.replays(replayers, 2 * segments, |i, replay| {
            let j = i % segments;
            let mut replayed = replay(i / segments, &cps[j], trace.segments[j]);
            self.lattice.snap(&mut replayed);
            let distance = euclidean(&replayed, &cps[j + 1]);
            scratch::put(replayed);
            distance
        });
        // Recorded here, after the join and in index order — never from
        // inside a task, where pool threads would race for clock ticks.
        let rec = &self.recorder;
        for (i, &distance) in distances.iter().enumerate() {
            let (replay, segment) = ((i / segments) as u64, i % segments);
            event!(rec, "rpol.calibrate.unit", epoch, replay, segment, distance);
        }
        let progress: Vec<f32> = (0..segments)
            .map(|j| euclidean(&cps[j], &cps[j + 1]))
            .collect();
        let result = CalibrationResult::from_distances(epoch, &self.policy, &distances, &progress);
        (result, trace.into_final_weights())
    }
}

/// The noise seed of `epoch`'s run A (`run` 1) and replay passes (2, 3).
fn seed(epoch: u64, run: u64) -> u64 {
    epoch.wrapping_mul(0x9E37).wrapping_add(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_exec::Executor;
    use rpol_obs::Value;
    use rpol_tensor::rng::Pcg32;

    fn setup() -> (TaskConfig, SyntheticImages) {
        let cfg = TaskConfig::tiny();
        let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(2));
        (cfg, data)
    }

    /// What `PoolManager::calibrate` does with an executor, each model
    /// built fresh: run A as one task, then the replay units on the
    /// executor's lanes.
    fn calibrate_on(
        calibrator: &Calibrator<'_>,
        global: &[f32],
        (nonce, steps, epoch): (u64, usize, u64),
        exec: &Executor,
    ) -> (CalibrationResult, Vec<f32>) {
        let model = || calibrator.config.build_model_like(global);
        let run_a = |_: usize| calibrator.train(&mut model(), global, nonce, steps, epoch);
        let trace = exec.run_indexed(1, run_a).pop().expect("run A");
        let [gpu_b, gpu_a] = calibrator.replayers(nonce, epoch);
        let replayers = [&gpu_b, &gpu_a];
        let replay =
            |s: usize, input: &[f32], segment| replayers[s].replay(&mut model(), input, segment);
        calibrator.measure(trace, &replayers, Lanes::Exec(exec, &replay), epoch)
    }

    /// The arithmetic alone, on distances whose statistics are exact:
    /// `α` is max + std, `β = x·α + y`, and `β` is lifted to
    /// `progress_floor · max progress` when that is larger.
    #[test]
    fn alpha_and_beta_are_the_section_v_c_arithmetic() {
        let policy = CalibrationPolicy {
            beta_y: 0.5,
            ..CalibrationPolicy::default()
        };
        // [1, 3]: max 3, mean 2, population std 1, so α = 4 and
        // β = 5·4 + 0.5 = 20.5 above the floor 0.05 · 10.
        let cal = CalibrationResult::from_distances(7, &policy, &[1.0, 3.0], &[10.0, 4.0]);
        assert_eq!(
            (cal.max_observed_error, cal.mean_error, cal.std_error),
            (3.0, 2.0, 1.0)
        );
        assert_eq!((cal.alpha, cal.beta), (4.0, 20.5));
        let tuning = tune(&TuningConfig::new(4.0, 20.5).with_budget(policy.k_lsh));
        assert_eq!((cal.params, cal.tuning), (tuning.params, tuning));
        assert_eq!((cal.epoch, cal.family_seed), (7, 0xCA11_B000 ^ 7));
        // Equal distances have no spread: α is their maximum.
        let flat = CalibrationResult::from_distances(7, &policy, &[2.0; 4], &[10.0]);
        assert_eq!((flat.alpha, flat.std_error), (2.0, 0.0));
        assert_eq!(flat.beta, 10.5);
        // A segment that moved 500 lifts β to 0.05 · 500 > 20.5.
        let lifted = CalibrationResult::from_distances(7, &policy, &[1.0, 3.0], &[10.0, 500.0]);
        assert_eq!(lifted.alpha, 4.0);
        assert_eq!(lifted.beta, policy.progress_floor * 500.0);
        assert!(lifted.beta > 20.5);
    }

    /// A calibration replay unit measures what a `Verifier` on the same
    /// injector does — `Verifier::replay`, then the lattice snap — bit for
    /// bit, on both lattices.
    #[test]
    fn a_replay_unit_is_a_verifier_replay_then_the_snap() {
        let (cfg, data) = setup();
        let global = cfg.build_model().flatten_params();
        let (nonce, steps, epoch) = (21, 7, 5);
        let (gpu_a, gpu_b) = GpuModel::top2();
        for lattice in [Lattice::F32, Lattice::Bf16] {
            let rec = Arc::new(Recorder::logical());
            let calibrator =
                Calibrator::new(&cfg, &data, CalibrationPolicy::default(), (gpu_a, gpu_b))
                    .on(lattice)
                    .with_recorder(rec.clone());
            calibrator.calibrate(&global, nonce, steps, epoch);
            let units: Vec<u32> = (rec.events().iter())
                .filter(|ev| ev.name == "rpol.calibrate.unit")
                .map(|ev| match ev.fields.iter().find(|(k, _)| k == "distance") {
                    Some((_, Value::F64(d))) => (*d as f32).to_bits(),
                    other => panic!("distance field: {other:?}"),
                })
                .collect();
            let mut model = cfg.build_model_like(&global);
            let trace = calibrator.train(&mut model, &global, nonce, steps, epoch);
            let mut want = Vec::new();
            for (gpu, run) in [(gpu_b, 2), (gpu_a, 3)] {
                let noise = NoiseInjector::new(gpu, seed(epoch, run));
                let verifier = Verifier::new(&cfg, &data, nonce, 1.0, None, noise);
                for (j, &segment) in trace.segments.iter().enumerate() {
                    let mut replayed = verifier.replay(&mut model, &trace.checkpoints[j], segment);
                    lattice.snap(&mut replayed);
                    want.push(euclidean(&replayed, &trace.checkpoints[j + 1]).to_bits());
                }
            }
            assert_eq!(units.len(), 2 * trace.segments.len(), "{lattice:?}");
            assert_eq!(units, want, "{lattice:?}");
        }
    }

    #[test]
    fn calibration_produces_sane_bounds() {
        let (cfg, data) = setup();
        let calibrator =
            Calibrator::new(&cfg, &data, CalibrationPolicy::default(), GpuModel::top2());
        let global = cfg.build_model().flatten_params();
        let (cal, trained) = calibrator.calibrate(&global, 9, 6, 1);
        assert!(cal.alpha > 0.0);
        // β is x·α lifted to the gate-flip floor when that is larger.
        assert!(cal.beta >= 5.0 * cal.alpha - 1e-6);
        assert!(cal.params.total_hashes() <= 16);
        assert!(cal.tuning.pr_alpha > cal.tuning.pr_beta);
        assert_eq!(trained.len(), global.len());
        assert_ne!(trained, global, "calibration sub-task should train");
        // α is max + std of the observed errors, so it covers the maximum
        // itself, and β = 5α covers it with room to spare.
        assert!(cal.alpha >= cal.max_observed_error);
        assert!(cal.beta > cal.max_observed_error);
    }

    #[test]
    fn quantized_calibration_covers_the_lattice_trajectory() {
        let (cfg, data) = setup();
        let calibrator =
            Calibrator::new(&cfg, &data, CalibrationPolicy::default(), GpuModel::top2())
                .quantized(true);
        let global = cfg.build_model().flatten_params();
        let (cal, trained) = calibrator.calibrate(&global, 9, 6, 1);
        assert!(cal.alpha > 0.0);
        assert!(cal.beta > cal.max_observed_error);
        // The trained sub-task result lives on the bf16 lattice, like any
        // RPoLv3 worker checkpoint.
        assert!(rpol_tensor::quant::is_bf16_lattice(&trained));
    }

    #[test]
    fn eq5_expected_rates_are_tight() {
        let (cfg, data) = setup();
        let calibrator =
            Calibrator::new(&cfg, &data, CalibrationPolicy::default(), GpuModel::top2());
        let global = cfg.build_model().flatten_params();
        let (cal, _) = calibrator.calibrate(&global, 9, 6, 1);
        // Expected FNR under the fitted density refines (is at most) the
        // worst-case proxy, and honest errors sit far below β, so it is
        // near zero.
        let fnr = cal.expected_fnr();
        assert!(fnr <= 1.0 - cal.tuning.pr_alpha + 1e-9, "{fnr}");
        assert!(fnr < 0.25, "expected FNR suspiciously high: {fnr}");
    }

    #[test]
    fn family_is_shared_given_result() {
        let (cfg, data) = setup();
        let calibrator =
            Calibrator::new(&cfg, &data, CalibrationPolicy::default(), GpuModel::top2());
        let global = cfg.build_model().flatten_params();
        let (cal, _) = calibrator.calibrate(&global, 9, 4, 2);
        let f1 = cal.family(100);
        let f2 = cal.family(100);
        assert_eq!(f1, f2, "workers and manager must derive identical families");
    }

    #[test]
    fn different_epochs_different_calibrations() {
        let (cfg, data) = setup();
        let calibrator =
            Calibrator::new(&cfg, &data, CalibrationPolicy::default(), GpuModel::top2());
        let global = cfg.build_model().flatten_params();
        let (c1, _) = calibrator.calibrate(&global, 9, 4, 1);
        let (c2, _) = calibrator.calibrate(&global, 9, 4, 2);
        assert_ne!(c1.family_seed, c2.family_seed);
        // Alphas differ because the GPU noise draws differ per epoch.
        assert_ne!(c1.alpha, c2.alpha);
    }

    #[test]
    fn executor_calibration_is_bitwise_identical_to_serial() {
        let (cfg, data) = setup();
        let calibrator =
            Calibrator::new(&cfg, &data, CalibrationPolicy::default(), GpuModel::top2());
        let global = cfg.build_model().flatten_params();
        let (serial, trained_serial) = calibrator.calibrate(&global, 9, 6, 1);
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            let (parallel, trained_parallel) = calibrate_on(&calibrator, &global, (9, 6, 1), &exec);
            assert_eq!(parallel, serial, "{threads} threads");
            assert_eq!(trained_parallel, trained_serial, "{threads} threads");
        }
    }

    /// Quantized, with an uneven last segment (7 steps at interval 2): at
    /// every executor width and on the calling thread, calibration keeps
    /// pinned bits — the broadcast every worker derives its family from.
    #[test]
    fn quantized_calibration_keeps_the_pinned_bits() {
        let (cfg, data) = setup();
        let calibrator =
            Calibrator::new(&cfg, &data, CalibrationPolicy::default(), GpuModel::top2())
                .quantized(true);
        let segments = epoch_segments(7, cfg.checkpoint_interval);
        assert_eq!(segments.last().map(|s| s.steps), Some(1));
        let global = cfg.build_model().flatten_params();
        let check = |(cal, trained): (CalibrationResult, Vec<f32>), at: &str| {
            let bits = (
                cal.alpha.to_bits(),
                cal.beta.to_bits(),
                cal.params.r.to_bits(),
                cal.params.k,
                cal.params.l,
                cal.max_observed_error.to_bits(),
                cal.mean_error.to_bits(),
                cal.std_error.to_bits(),
            );
            let want = (
                0x3cc9_99ab,
                0x3dfc_0016,
                0x3df2_3bad,
                4,
                4,
                0x3cb4_9708,
                0x3c93_404e,
                0x3b28_151b,
            );
            assert_eq!(bits, want, "{at}");
            assert_eq!(
                rpol_crypto::sha256::sha256_f32(&trained).to_hex(),
                "8b58082d3c1d714e5b34feaf686b709eabd92bea2d8bed7262b9844a3ebdf434",
                "{at}"
            );
        };
        check(calibrator.calibrate(&global, 21, 7, 5), "calling thread");
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            let at = format!("{threads} lanes");
            check(calibrate_on(&calibrator, &global, (21, 7, 5), &exec), &at);
        }
    }

    #[test]
    fn honest_cross_gpu_errors_below_beta() {
        // The crux of robustness: a worker on GA10 verified from G3090
        // must land under β estimated by the calibrator.
        let (cfg, data) = setup();
        let calibrator =
            Calibrator::new(&cfg, &data, CalibrationPolicy::default(), GpuModel::top2());
        let global = cfg.build_model().flatten_params();
        let (cal, _) = calibrator.calibrate(&global, 9, 6, 3);

        // Simulate an honest worker + verification on a different shard of
        // the same task (i.i.d.).
        let worker_data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(5));
        let mut model = cfg.build_model_like(&global);
        let mut worker =
            LocalTrainer::new(&cfg, &worker_data, NoiseInjector::new(GpuModel::GA10, 77));
        let trace = worker.run_epoch(&mut model, 13, 6);
        let mut verify_model = cfg.build_model();
        let mut verifier =
            LocalTrainer::new(&cfg, &worker_data, NoiseInjector::new(GpuModel::G3090, 88));
        for (j, seg) in trace.segments.iter().enumerate() {
            let replayed =
                verifier.replay_segment(&mut verify_model, &trace.checkpoints[j], 13, *seg);
            let dist = euclidean(&replayed, &trace.checkpoints[j + 1]);
            assert!(
                dist < cal.beta,
                "honest checkpoint {j} rejected: dist {dist} >= beta {}",
                cal.beta
            );
        }
    }
}
