//! Adaptive LSH calibration (§V-C).
//!
//! Reproduction errors drift across epochs, optimizers and hardware, so
//! the manager re-estimates the tolerance bound `α` every epoch: it runs
//! its *own* i.i.d. sub-task once on each of the pool's top-2 GPUs — the
//! pairing that maximizes observed errors — replaying each checkpoint
//! segment on the second GPU from the first GPU's checkpoints, exactly
//! mirroring verification. Then
//!
//! * `α` = maximum + standard deviation of the per-checkpoint distances,
//! * `β` = `x·α + y` (defaults `x = 5`, `y = 0`),
//! * LSH parameters solve Eq. 6 under `k·l ≤ K_lsh`.

use crate::tasks::TaskConfig;
use crate::trainer::{epoch_segments, LocalTrainer, ScratchPool};
use crate::verify::euclidean;
use rpol_exec::Executor;
use rpol_lsh::tuning::{tune, TuningConfig, TuningOutcome};
use rpol_lsh::{LshFamily, LshParams};
use rpol_nn::data::SyntheticImages;
use rpol_nn::model::Sequential;
use rpol_obs::{event, span, Recorder};
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::scratch;
use rpol_tensor::stats::RunningStats;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The per-epoch calibration broadcast: distance bounds plus the LSH
/// family parameters and seed every worker must use for its commitment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

    /// The Eq. 5 expected false-positive rate for spoof distances modelled
    /// as normal around `spoof_mean` with deviation `spoof_std` (measured
    /// from an attack study such as Fig. 5):
    /// `∫_β^∞ p_spoof(c)·Pr_lsh(c) dc`.
    ///
    /// # Panics
    ///
    /// Panics unless `spoof_mean > β` (a spoof distribution centred inside
    /// the acceptance region is not a spoof model).
    pub fn expected_fpr(&self, spoof_mean: f32, spoof_std: f32) -> f64 {
        assert!(
            spoof_mean > self.beta,
            "spoof distances must centre beyond beta"
        );
        let (mean, std) = (spoof_mean as f64, (spoof_std as f64).max(1e-12));
        rpol_lsh::probability::expected_fpr(
            move |c| rpol_tensor::stats::norm_pdf((c - mean) / std),
            self.beta as f64,
            mean + 6.0 * std,
            self.params.r as f64,
            self.params.k,
            self.params.l,
            512,
        )
    }
}

/// Calibration policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    gpus: (GpuModel, GpuModel),
    recorder: Arc<Recorder>,
    quantized: bool,
    /// Where the runs borrow their models: the manager's scratch pool, or
    /// one that lives for a single calibration.
    scratch: Option<&'a ScratchPool>,
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
            gpus,
            recorder: rpol_obs::noop().clone(),
            quantized: false,
            scratch: None,
        }
    }

    /// Borrows every run's model from `scratch`.
    pub(crate) fn with_scratch(mut self, scratch: &'a ScratchPool) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Calibrates on the RPoLv3 quantized trajectory: the sub-task's
    /// checkpoints are snapped to the bf16 lattice and every replay is
    /// snapped the same way, so `α` and `β` absorb the quantization error
    /// under exactly the conditions verification later reproduces.
    #[must_use]
    pub fn quantized(mut self, on: bool) -> Self {
        self.quantized = on;
        self
    }

    /// Attaches a recorder; the calibrator then emits a
    /// `rpol.calibrate.trace` span around its sub-task training run and
    /// one `rpol.calibrate.unit` event per `(replay, segment)` replay
    /// measurement carrying the measured `distance`, emitted by the
    /// calling thread in index order — so the trace is byte-identical
    /// whether the units ran serially or on an executor.
    #[must_use]
    pub fn with_recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.recorder = rec;
        self
    }

    /// Runs the calibration sub-task for one epoch.
    ///
    /// Trains from `global_weights` for `steps` on GPU A, then replays each
    /// segment on GPU B from GPU A's checkpoints; the per-checkpoint
    /// distances are the measured reproduction errors. The trained result
    /// is *useful work* — the caller may aggregate it like any worker
    /// update (the paper notes the sub-task "is not useless work").
    ///
    /// Returns the calibration plus GPU A's trained final weights.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn calibrate(
        &self,
        global_weights: &[f32],
        nonce: u64,
        steps: usize,
        epoch: u64,
    ) -> (CalibrationResult, Vec<f32>) {
        self.calibrate_with(global_weights, nonce, steps, epoch, None)
    }

    /// Like [`calibrate`], optionally fanning the replay measurements out
    /// over a persistent executor.
    ///
    /// Each of the `2 × segments` replay units is independent: it replays
    /// one segment from GPU A's checkpoint with a **fresh** noise injector
    /// seeded per replay pass — exactly the conditions a verifier later
    /// reproduces, where every sampled segment starts from a freshly
    /// cloned injector. Distances are reduced into the running statistics
    /// in `(replay pass, segment)` index order on the calling thread, so
    /// the result is bitwise identical whether the units run serially or
    /// on any number of pool threads.
    ///
    /// [`calibrate`]: Calibrator::calibrate
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn calibrate_with(
        &self,
        global_weights: &[f32],
        nonce: u64,
        steps: usize,
        epoch: u64,
        exec: Option<&Executor>,
    ) -> (CalibrationResult, Vec<f32>) {
        assert!(steps > 0, "empty calibration run");
        // One injector per calibration GPU, rerun for run A and every
        // replay unit, so each GPU's fingerprint is drawn once per
        // calibration instead of once per run.
        let (noise_a, noise_b) = (
            NoiseInjector::new(self.gpus.0, 0),
            NoiseInjector::new(self.gpus.1, 0),
        );
        let run_seed = |run: u64| epoch.wrapping_mul(0x9E37).wrapping_add(run);
        // Every run borrows a scratch model: a run loads its input weights
        // and reseeds, which resets every piece of model state, so a
        // calibration builds at most one model per lane — none once the
        // manager's pool is warm.
        let local = ScratchPool::default();
        let scratch = self.scratch.unwrap_or(&local);
        // Run A: train on the faster GPU, as one task of `exec`. In a
        // pool's epoch the whole calibration is itself a task beside the
        // workers' training, so run A and the replay units nest in it.
        let trace = {
            let _g = span!(self.recorder, "rpol.calibrate.trace", epoch, steps);
            let run_a = |_: usize| {
                let noise = noise_a.rerun(run_seed(1));
                self.on_scratch(scratch, global_weights, noise, |trainer, model| {
                    model.load_params(global_weights);
                    if self.quantized {
                        trainer.run_epoch_quantized(model, nonce, steps)
                    } else {
                        trainer.run_epoch(model, nonce, steps)
                    }
                })
            };
            indexed(exec, 1, run_a).pop().expect("run A")
        };

        // Replay every segment on both top-2 GPUs (the paper's "execute
        // the sub-task twice on the current top-2 best-performant GPUs"),
        // measuring per-checkpoint distances exactly as verification
        // would. Two independent replays per segment double the sample
        // count behind the tail estimate for α.
        let units: Vec<(u64, &NoiseInjector, usize)> = [&noise_b, &noise_a]
            .into_iter()
            .enumerate()
            .flat_map(|(replay_idx, noise)| {
                (0..trace.segments.len()).map(move |j| (replay_idx as u64, noise, j))
            })
            .collect();
        let unit = |i: usize| {
            let (replay_idx, noise, j) = units[i];
            let noise = noise.rerun(run_seed(2 + replay_idx));
            let (input, segment) = (&trace.checkpoints[j], trace.segments[j]);
            let replayed = self.on_scratch(scratch, global_weights, noise, |trainer, model| {
                if self.quantized {
                    trainer.replay_segment_quantized(model, input, nonce, segment)
                } else {
                    trainer.replay_segment(model, input, nonce, segment)
                }
            });
            let distance = euclidean(&replayed, &trace.checkpoints[j + 1]);
            scratch::put(replayed);
            distance
        };
        let distances = indexed(exec, units.len(), unit);
        // Recorded here, after the join and in index order — never from
        // inside a task, where pool threads would race for clock ticks.
        let mut stats = RunningStats::new();
        for (&(replay, _, segment), &distance) in units.iter().zip(&distances) {
            event!(
                self.recorder,
                "rpol.calibrate.unit",
                epoch,
                replay,
                segment,
                distance
            );
            stats.push(distance);
        }

        // §V-C: "α is set as the measured maximum reproduction error plus
        // the standard deviation" — the max (not the mean) is what makes
        // β = 5α cover the heavy tail of replay divergence.
        let alpha = (stats.max() + stats.std_dev()).max(1e-9);
        // Gate-flip floor: see `CalibrationPolicy::progress_floor`.
        let max_progress = trace
            .segments
            .iter()
            .enumerate()
            .map(|(j, _)| euclidean(&trace.checkpoints[j], &trace.checkpoints[j + 1]))
            .fold(0.0f32, f32::max);
        let beta = (self.policy.beta_x * alpha + self.policy.beta_y)
            .max(self.policy.progress_floor * max_progress);
        let tuning =
            tune(&TuningConfig::new(alpha as f64, beta as f64).with_budget(self.policy.k_lsh));
        let result = CalibrationResult {
            epoch,
            alpha,
            beta,
            params: tuning.params,
            family_seed: 0xCA11_B000 ^ epoch,
            tuning,
            max_observed_error: stats.max(),
            mean_error: stats.mean(),
            std_error: stats.std_dev(),
        };
        (result, trace.into_final_weights())
    }

    /// Runs `f` on a model borrowed from `scratch` (built like
    /// `global_weights` on a miss), with a trainer on `noise`.
    fn on_scratch<T>(
        &self,
        scratch: &ScratchPool,
        global_weights: &[f32],
        noise: NoiseInjector,
        f: impl FnOnce(&mut LocalTrainer<'_>, &mut Sequential) -> T,
    ) -> T {
        let build = || self.config.build_model_like(global_weights);
        let mut model = scratch.checkout(&self.recorder, build);
        let mut trainer = LocalTrainer::new(self.config, self.shard, noise);
        let out = f(&mut trainer, &mut model);
        scratch.checkin(model);
        out
    }

    /// Segment layout of a calibration epoch (same as any worker epoch).
    pub fn segments(&self, steps: usize) -> Vec<crate::trainer::Segment> {
        epoch_segments(steps, self.config.checkpoint_interval)
    }
}

/// `f` over `0..n`, results in index order: on `exec` when given, else on
/// the calling thread.
fn indexed<T: Send>(exec: Option<&Executor>, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    match exec {
        Some(exec) => exec.run_indexed(n, f),
        None => (0..n).map(f).collect(),
    }
}

impl TaskConfig {
    /// Builds a model of the geometry `weights` was flattened from — the
    /// bare task model, or the encoded one when the vector carries an
    /// AMLayer prefix — and loads them.
    pub(crate) fn build_model_like(&self, weights: &[f32]) -> Sequential {
        let mut model = self.build_model();
        if model.param_count() != weights.len() {
            // Encoded geometry: any address gives the right shape, and the
            // load below overwrites the frozen prefix with the true values.
            self.prepend_amlayer(&mut model, &rpol_crypto::Address::from_seed(0));
        }
        assert_eq!(
            model.param_count(),
            weights.len(),
            "weight vector matches neither bare nor encoded model geometry"
        );
        model.load_params(weights);
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_tensor::rng::Pcg32;

    fn setup() -> (TaskConfig, SyntheticImages) {
        let cfg = TaskConfig::tiny();
        let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(2));
        (cfg, data)
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
        assert!(fnr <= cal.tuning.fnr_bound() + 1e-9, "{fnr}");
        assert!(fnr < 0.25, "expected FNR suspiciously high: {fnr}");
        // Spoofs an order of magnitude beyond β almost never match.
        let fpr = cal.expected_fpr(cal.beta * 10.0, cal.beta);
        assert!(fpr < 0.05, "expected FPR too high: {fpr}");
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
            let (parallel, trained_parallel) =
                calibrator.calibrate_with(&global, 9, 6, 1, Some(&exec));
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
        assert_eq!(calibrator.segments(7).last().map(|s| s.steps), Some(1));
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
            check(
                calibrator.calibrate_with(&global, 21, 7, 5, Some(&exec)),
                &at,
            );
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
