//! The deterministic local training engine (§V-B) with simulated hardware
//! nondeterminism.
//!
//! Both sides of the protocol run this code: workers to train their
//! sub-task, the manager to *replay* sampled checkpoint segments. Batches
//! are selected by the stochastic-yet-deterministic PRF rule
//! `PRF(N·m + n) mod |D_w|`, so a replay touches exactly the same data in
//! exactly the same order; the only divergence between an honest worker
//! and its replay is the injected GPU noise (reproduction error).
//!
//! **Protocol clarification (documented deviation):** replay verification
//! starts from a checkpoint's *weights only*, so stateful optimizers
//! (momentum/Adam) are re-initialized at every checkpoint boundary — by
//! both workers and the verifier. Segments are therefore self-contained:
//! the paper does not spell out how optimizer state crosses sampled
//! checkpoints, and resetting it per segment is the only choice that makes
//! honest replay reproducible without shipping optimizer state in proofs.

use crate::pool::Lattice;
use crate::tasks::TaskConfig;
use rpol_crypto::prf::{deterministic_batch, Prf};
use rpol_nn::data::SyntheticImages;
use rpol_nn::loss::softmax_cross_entropy;
use rpol_nn::model::Sequential;
use rpol_obs::Recorder;
use rpol_sim::gpu::NoiseInjector;
use rpol_tensor::scratch;

/// One checkpoint segment: the training steps between two consecutive
/// stored checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Global step index where the segment starts.
    pub start_step: usize,
    /// Number of steps in the segment (equals the checkpoint interval,
    /// except possibly the last segment of an epoch).
    pub steps: usize,
}

/// Splits an epoch of `total_steps` into checkpoint segments of length
/// `interval` (last may be shorter).
///
/// # Panics
///
/// Panics if either argument is zero.
pub fn epoch_segments(total_steps: usize, interval: usize) -> Vec<Segment> {
    assert!(total_steps > 0, "empty epoch");
    assert!(interval > 0, "zero checkpoint interval");
    let mut segments = Vec::new();
    let mut start = 0;
    while start < total_steps {
        let steps = interval.min(total_steps - start);
        segments.push(Segment {
            start_step: start,
            steps,
        });
        start += steps;
    }
    segments
}

/// The result of one epoch of honest local training.
#[derive(Debug, Clone)]
pub struct EpochTrace {
    /// Checkpointed weight vectors: `checkpoints[0]` is the epoch's input
    /// weights, `checkpoints.last()` the epoch output; one entry per
    /// segment boundary.
    pub checkpoints: Vec<Vec<f32>>,
    /// The segment layout matching `checkpoints` (segment `j` transforms
    /// `checkpoints[j]` into `checkpoints[j+1]`).
    pub segments: Vec<Segment>,
    /// Mean training loss across the epoch.
    pub mean_loss: f32,
}

impl EpochTrace {
    /// The epoch's final weights.
    pub fn final_weights(&self) -> &[f32] {
        self.checkpoints.last().expect("nonempty trace")
    }

    /// The epoch's final weights, moved out; every other checkpoint goes
    /// back to the process pool ([`rpol_tensor::scratch`]).
    pub fn into_final_weights(mut self) -> Vec<f32> {
        let last = self.checkpoints.pop().expect("nonempty trace");
        self.checkpoints.into_iter().for_each(scratch::put);
        last
    }
}

/// The manager's scratch models, lent to one pass at a time — a replayed
/// sample, a calibration run, an evaluation batch — so the pool holds as
/// many as ever ran at once, not one per use. A pass starts from a full
/// `load_params` and ends with [`Sequential::end_pass`], so a reused model
/// is bitwise a fresh one.
#[derive(Default)]
pub(crate) struct ScratchPool(parking_lot::Mutex<Vec<Sequential>>);

impl ScratchPool {
    /// Lends a model, building it with `build` on a miss; hits and misses
    /// are counted on `rec`.
    pub(crate) fn checkout(
        &self,
        rec: &Recorder,
        build: impl FnOnce() -> Sequential,
    ) -> Sequential {
        let pooled = self.0.lock().pop();
        if rec.enabled() {
            let counter = match pooled {
                Some(_) => "rpol.scratch.hits",
                None => "rpol.scratch.misses",
            };
            rec.counter_add(counter, 1);
        }
        pooled.unwrap_or_else(build)
    }

    /// Returns a lent model.
    pub(crate) fn checkin(&self, model: Sequential) {
        self.0.lock().push(model);
    }
}

/// The deterministic trainer used by workers (to train) and by the manager
/// (to replay and to calibrate).
#[derive(Debug)]
pub struct LocalTrainer<'a> {
    config: &'a TaskConfig,
    shard: &'a SyntheticImages,
    noise: NoiseInjector,
}

impl<'a> LocalTrainer<'a> {
    /// Creates a trainer over a data shard with a hardware-noise profile.
    pub fn new(config: &'a TaskConfig, shard: &'a SyntheticImages, noise: NoiseInjector) -> Self {
        Self {
            config,
            shard,
            noise,
        }
    }

    /// Runs `segment.steps` deterministic training steps on `model`
    /// starting at `segment.start_step`, with a fresh optimizer (see the
    /// module docs for why state resets per segment). Returns the mean
    /// loss over the segment.
    pub fn run_segment(&mut self, model: &mut Sequential, nonce: u64, segment: Segment) -> f32 {
        // Stochastic layers (dropout) re-derive their mask streams from
        // the protocol state so replay reproduces them exactly.
        model.reseed(nonce ^ (segment.start_step as u64).wrapping_mul(0x9E37_79B9));
        let mut opt = self.config.optimizer.build();
        let prf = Prf::from_nonce(nonce);
        let trainable = model.trainable_count();
        let mut total_loss = 0.0;
        for s in 0..segment.steps {
            let step = segment.start_step + s;
            let indices = deterministic_batch(
                &prf,
                step as u64,
                self.config.batch_size,
                self.shard.len() as u64,
            );
            let (x, labels) = self.shard.batch(&indices);
            let logits = model.forward(&x, true);
            // The first layer keeps a copy of what it borrowed.
            scratch::put(x.into_vec());
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            total_loss += loss;
            model.backward(&grad);

            // Two passes over the trainable weights: the update, which
            // measures its own length, and the hardware nondeterminism,
            // injected in place.
            let update_norm = model.step(opt.as_mut());
            if let Some(mut noise) = self.noise.step_noise(trainable, update_norm) {
                model.visit_params_mut(&mut |p| {
                    if !p.frozen {
                        noise.perturb(p.value.data_mut());
                    }
                });
            }
        }
        total_loss / segment.steps as f32
    }

    /// Trains `segments` from the model's current weights on `lattice`,
    /// recording a checkpoint at every segment boundary — the one epoch
    /// loop workers and calibration run. The weights are snapped onto the
    /// lattice before the first step and at every boundary, so each
    /// checkpoint is a lattice point and the next segment trains on from
    /// it; steps inside a segment run in full f32 (on `Bf16` the
    /// quantized-descent trick that makes the packed image a lossless,
    /// exactly replayable encoding). One pass: the model holds only its
    /// weights afterwards ([`Sequential::end_pass`]).
    pub fn train(
        &mut self,
        model: &mut Sequential,
        nonce: u64,
        segments: &[Segment],
        lattice: Lattice,
    ) -> EpochTrace {
        let checkpoint = |model: &mut Sequential| {
            model.visit_params_mut(&mut |p| lattice.snap(p.value.data_mut()));
            model.flatten_params()
        };
        let mut checkpoints = vec![checkpoint(model)];
        let mut loss_sum = 0.0;
        for &segment in segments {
            loss_sum += self.run_segment(model, nonce, segment);
            checkpoints.push(checkpoint(model));
        }
        model.end_pass();
        EpochTrace {
            checkpoints,
            mean_loss: loss_sum / segments.len() as f32,
            segments: segments.to_vec(),
        }
    }

    /// [`train`](LocalTrainer::train) over a whole epoch of `total_steps`
    /// on [`Lattice::F32`].
    pub fn run_epoch(
        &mut self,
        model: &mut Sequential,
        nonce: u64,
        total_steps: usize,
    ) -> EpochTrace {
        let segments = epoch_segments(total_steps, self.config.checkpoint_interval);
        self.train(model, nonce, &segments, Lattice::F32)
    }

    /// [`train`](LocalTrainer::train) over a whole epoch of `total_steps`
    /// on [`Lattice::Bf16`] (RPoLv3).
    pub fn run_epoch_quantized(
        &mut self,
        model: &mut Sequential,
        nonce: u64,
        total_steps: usize,
    ) -> EpochTrace {
        let segments = epoch_segments(total_steps, self.config.checkpoint_interval);
        self.train(model, nonce, &segments, Lattice::Bf16)
    }

    /// Replays one segment from explicit input weights and snaps the
    /// result onto `lattice`, as an honest worker recorded the segment's
    /// end — the manager's verification primitive. One pass, like
    /// [`LocalTrainer::train`].
    pub fn replay(
        &mut self,
        model: &mut Sequential,
        input_weights: &[f32],
        nonce: u64,
        segment: Segment,
        lattice: Lattice,
    ) -> Vec<f32> {
        model.load_params(input_weights);
        self.run_segment(model, nonce, segment);
        model.end_pass();
        let mut replayed = model.flatten_params();
        lattice.snap(&mut replayed);
        replayed
    }

    /// [`replay`](LocalTrainer::replay) on [`Lattice::F32`].
    pub fn replay_segment(
        &mut self,
        model: &mut Sequential,
        input_weights: &[f32],
        nonce: u64,
        segment: Segment,
    ) -> Vec<f32> {
        self.replay(model, input_weights, nonce, segment, Lattice::F32)
    }

    /// [`replay`](LocalTrainer::replay) on [`Lattice::Bf16`] (RPoLv3).
    pub fn replay_segment_quantized(
        &mut self,
        model: &mut Sequential,
        input_weights: &[f32],
        nonce: u64,
        segment: Segment,
    ) -> Vec<f32> {
        self.replay(model, input_weights, nonce, segment, Lattice::Bf16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_nn::optim::OptimizerSpec;
    use rpol_sim::gpu::GpuModel;
    use rpol_tensor::rng::Pcg32;

    fn setup() -> (TaskConfig, SyntheticImages) {
        let cfg = TaskConfig::tiny();
        let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
        (cfg, data)
    }

    /// The step as it ran before the optimizer measured its own update:
    /// flatten the trainable weights into a copy, step, measure the
    /// distance the step moved the copy while advancing it, perturb the
    /// copy, copy it back. Returns each step's update norm.
    fn five_pass_segment(
        trainer: &mut LocalTrainer<'_>,
        model: &mut Sequential,
        nonce: u64,
        segment: Segment,
    ) -> Vec<f32> {
        model.reseed(nonce ^ (segment.start_step as u64).wrapping_mul(0x9E37_79B9));
        let mut opt = trainer.config.optimizer.build();
        let prf = Prf::from_nonce(nonce);
        let mut norms = Vec::new();
        for s in 0..segment.steps {
            let step = segment.start_step + s;
            let indices = deterministic_batch(
                &prf,
                step as u64,
                trainer.config.batch_size,
                trainer.shard.len() as u64,
            );
            let (x, labels) = trainer.shard.batch(&indices);
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            model.backward(&grad);

            let mut noisy = Vec::new();
            model.visit_params(&mut |p| {
                if !p.frozen {
                    noisy.extend_from_slice(p.value.data());
                }
            });
            model.step(opt.as_mut());
            let (mut sum, mut offset) = (0.0f64, 0);
            model.visit_params(&mut |p| {
                if !p.frozen {
                    for (w, &now) in noisy[offset..offset + p.len()]
                        .iter_mut()
                        .zip(p.value.data())
                    {
                        let d = (*w - now) as f64;
                        sum += d * d;
                        *w = now;
                    }
                    offset += p.len();
                }
            });
            let update_norm = sum.sqrt() as f32;
            if let Some(mut noise) = trainer.noise.step_noise(noisy.len(), update_norm) {
                noise.perturb(&mut noisy);
            }
            let mut offset = 0;
            model.visit_params_mut(&mut |p| {
                if !p.frozen {
                    let n = p.len();
                    p.value
                        .data_mut()
                        .copy_from_slice(&noisy[offset..offset + n]);
                    offset += n;
                }
            });
            norms.push(update_norm);
        }
        model.end_pass();
        norms
    }

    fn bits(weights: &[f32]) -> Vec<u32> {
        weights.iter().map(|w| w.to_bits()).collect()
    }

    /// The two-pass step (the optimizer measures its update, the noise
    /// lands in place) is bitwise the five-pass one under every optimizer,
    /// on the AMLayer-encoded model the pool trains: the frozen prefix is
    /// skipped by both passes and the noise's 1,024-normal chunks run
    /// across the trainable tensors' boundaries.
    #[test]
    fn the_two_pass_step_equals_the_five_pass_oracle() {
        let mut cfg = TaskConfig::tiny();
        cfg.arch = crate::tasks::ModelArch::MiniVgg16;
        let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(4));
        let address = rpol_crypto::Address::from_seed(0xA11);
        let specs = [
            OptimizerSpec::Sgd { lr: 0.05 },
            OptimizerSpec::paper_default(),
            OptimizerSpec::RmsProp {
                lr: 0.01,
                decay: 0.9,
            },
            OptimizerSpec::Adam {
                lr: 1e-3,
                beta1: 0.9,
                beta2: 0.999,
            },
        ];
        for spec in specs {
            cfg.optimizer = spec;
            let segment = Segment {
                start_step: 3,
                steps: 6,
            };
            let start = cfg.build_encoded_model(&address);
            let noise = NoiseInjector::new(GpuModel::GA10, 9);
            let (mut ours, mut theirs) = (
                LocalTrainer::new(&cfg, &data, noise.clone()),
                LocalTrainer::new(&cfg, &data, noise),
            );
            let (mut a, mut b) = (
                cfg.build_encoded_model(&address),
                cfg.build_encoded_model(&address),
            );
            ours.run_segment(&mut a, 5, segment);
            a.end_pass();
            let norms = five_pass_segment(&mut theirs, &mut b, 5, segment);
            assert!(norms.iter().all(|n| n.is_finite() && *n > 0.0), "{spec:?}");
            let (got, want) = (a.flatten_params(), b.flatten_params());
            assert_ne!(got, start.flatten_params(), "{spec:?} trained nothing");
            assert_eq!(bits(&got), bits(&want), "{spec:?}");
        }
    }

    /// A step whose update norm is NaN or infinite draws no noise in
    /// either path: the weights agree bit for bit, and the run's noise
    /// stream is untouched, so a following segment from sane weights
    /// equals a fresh trainer's.
    #[test]
    fn a_non_finite_update_skips_the_noise_in_both_paths() {
        let mut cfg = TaskConfig::tiny();
        cfg.arch = crate::tasks::ModelArch::MiniVgg16;
        let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(5));
        let address = rpol_crypto::Address::from_seed(0xA12);
        let sane = cfg.build_encoded_model(&address).flatten_params();
        let segment = Segment {
            start_step: 0,
            steps: 6,
        };
        for poison in [f32::NAN, f32::INFINITY] {
            let mut bad = sane.clone();
            *bad.last_mut().expect("weights") = poison;
            let noise = NoiseInjector::new(GpuModel::G3090, 3);
            let mut fresh = LocalTrainer::new(&cfg, &data, noise.clone());
            let (mut ours, mut theirs) = (
                LocalTrainer::new(&cfg, &data, noise.clone()),
                LocalTrainer::new(&cfg, &data, noise),
            );
            let (mut a, mut b) = (
                cfg.build_encoded_model(&address),
                cfg.build_encoded_model(&address),
            );
            a.load_params(&bad);
            b.load_params(&bad);
            ours.run_segment(&mut a, 8, segment);
            a.end_pass();
            let norms = five_pass_segment(&mut theirs, &mut b, 8, segment);
            assert!(norms.iter().all(|n| !n.is_finite()), "{poison}: {norms:?}");
            assert_eq!(bits(&a.flatten_params()), bits(&b.flatten_params()));

            let after = |trainer: &mut LocalTrainer<'_>| {
                let mut model = cfg.build_encoded_model(&address);
                trainer.replay_segment(&mut model, &sane, 8, segment)
            };
            let want = bits(&after(&mut fresh));
            assert_eq!(bits(&after(&mut ours)), want, "{poison}: ours");
            assert_eq!(bits(&after(&mut theirs)), want, "{poison}: oracle");
        }
    }

    #[test]
    fn segments_cover_epoch() {
        let segs = epoch_segments(13, 5);
        assert_eq!(segs.len(), 3);
        assert_eq!(
            segs[0],
            Segment {
                start_step: 0,
                steps: 5
            }
        );
        assert_eq!(
            segs[2],
            Segment {
                start_step: 10,
                steps: 3
            }
        );
        let total: usize = segs.iter().map(|s| s.steps).sum();
        assert_eq!(total, 13);
    }

    #[test]
    fn noiseless_training_is_reproducible() {
        let (cfg, data) = setup();
        let run = || {
            let mut model = cfg.build_model();
            let mut trainer =
                LocalTrainer::new(&cfg, &data, NoiseInjector::noiseless(GpuModel::G3090));
            trainer.run_epoch(&mut model, 42, 6).checkpoints
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn noiseless_replay_matches_exactly() {
        let (cfg, data) = setup();
        let mut model = cfg.build_model();
        let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::noiseless(GpuModel::G3090));
        let trace = trainer.run_epoch(&mut model, 7, 6);

        let mut verify_model = cfg.build_model();
        let mut verifier =
            LocalTrainer::new(&cfg, &data, NoiseInjector::noiseless(GpuModel::G3090));
        for (j, seg) in trace.segments.iter().enumerate() {
            let replayed =
                verifier.replay_segment(&mut verify_model, &trace.checkpoints[j], 7, *seg);
            assert_eq!(replayed, trace.checkpoints[j + 1], "segment {j}");
        }
    }

    /// An epoch and a replay each end their pass: what a step kept for
    /// backward is gone, so a backward without a new forward is refused.
    #[test]
    fn epochs_and_replays_end_their_pass() {
        let (cfg, data) = setup();
        let mut model = cfg.build_model();
        let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::noiseless(GpuModel::G3090));
        let grad = rpol_tensor::Tensor::ones(&[cfg.batch_size, cfg.spec.classes]);
        let ended = |model: &mut Sequential| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.backward(&grad)))
                .is_err()
        };
        let trace = trainer.run_epoch(&mut model, 7, 4);
        assert!(ended(&mut model), "after run_epoch");
        trainer.replay_segment(&mut model, &trace.checkpoints[0], 7, trace.segments[0]);
        assert!(ended(&mut model), "after replay_segment");
    }

    #[test]
    fn noisy_replay_is_close_but_not_exact() {
        let (cfg, data) = setup();
        let mut model = cfg.build_model();
        let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 1));
        let trace = trainer.run_epoch(&mut model, 7, 6);

        let mut verify_model = cfg.build_model();
        let mut verifier = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::G3090, 2));
        let replayed = verifier.replay_segment(
            &mut verify_model,
            &trace.checkpoints[0],
            7,
            trace.segments[0],
        );
        let dist = crate::verify::euclidean(&replayed, &trace.checkpoints[1]);
        assert!(dist > 0.0, "noisy runs should differ");
        // Reproduction error is orders of magnitude below the weight-change
        // scale of a segment.
        let progress = crate::verify::euclidean(&trace.checkpoints[0], &trace.checkpoints[1]);
        assert!(
            dist < progress * 0.2,
            "repro error {dist} vs segment progress {progress}"
        );
    }

    #[test]
    fn quantized_epoch_checkpoints_live_on_the_lattice() {
        let (cfg, data) = setup();
        let mut model = cfg.build_model();
        let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 3));
        let trace = trainer.run_epoch_quantized(&mut model, 11, 6);
        for (j, cp) in trace.checkpoints.iter().enumerate() {
            assert!(
                rpol_tensor::quant::is_bf16_lattice(cp),
                "checkpoint {j} off the lattice"
            );
        }
        // Training still makes progress on the lattice.
        assert_ne!(trace.checkpoints[0], *trace.final_weights());
    }

    #[test]
    fn quantized_noiseless_replay_matches_exactly() {
        // The quantized analogue of `noiseless_replay_matches_exactly`:
        // replay from a lattice checkpoint, snap the result, and land on
        // the worker's next lattice checkpoint bit for bit.
        let (cfg, data) = setup();
        let mut model = cfg.build_model();
        let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::noiseless(GpuModel::G3090));
        let trace = trainer.run_epoch_quantized(&mut model, 7, 6);

        let mut verify_model = cfg.build_model();
        let mut verifier =
            LocalTrainer::new(&cfg, &data, NoiseInjector::noiseless(GpuModel::G3090));
        for (j, seg) in trace.segments.iter().enumerate() {
            let replayed = verifier.replay_segment_quantized(
                &mut verify_model,
                &trace.checkpoints[j],
                7,
                *seg,
            );
            assert_eq!(replayed, trace.checkpoints[j + 1], "segment {j}");
        }
    }

    #[test]
    fn training_reduces_loss_over_epochs() {
        let (cfg, data) = setup();
        let mut model = cfg.build_model();
        let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::G3090, 5));
        let first = trainer.run_epoch(&mut model, 1, 12).mean_loss;
        let mut last = first;
        for e in 2..=5 {
            last = trainer.run_epoch(&mut model, e, 12).mean_loss;
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn stochastic_layers_replay_exactly() {
        // MiniVgg16 contains dropout; the reseed hook must make replay
        // bit-exact on noiseless hardware despite the stochastic masks.
        let mut cfg = TaskConfig::tiny();
        cfg.arch = crate::tasks::ModelArch::MiniVgg16;
        let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(2));
        let mut model = cfg.build_model();
        let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::noiseless(GpuModel::G3090));
        let trace = trainer.run_epoch(&mut model, 21, 6);

        let mut verify_model = cfg.build_model();
        let mut verifier =
            LocalTrainer::new(&cfg, &data, NoiseInjector::noiseless(GpuModel::G3090));
        for (j, seg) in trace.segments.iter().enumerate() {
            let replayed =
                verifier.replay_segment(&mut verify_model, &trace.checkpoints[j], 21, *seg);
            assert_eq!(replayed, trace.checkpoints[j + 1], "segment {j}");
        }
    }

    #[test]
    fn different_nonces_different_trajectories() {
        let (cfg, data) = setup();
        let run = |nonce: u64| {
            let mut model = cfg.build_model();
            let mut trainer =
                LocalTrainer::new(&cfg, &data, NoiseInjector::noiseless(GpuModel::G3090));
            trainer
                .run_epoch(&mut model, nonce, 4)
                .final_weights()
                .to_vec()
        };
        assert_ne!(
            run(1),
            run(2),
            "replay-attack resistance: nonces must matter"
        );
    }
}
