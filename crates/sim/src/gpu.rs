//! GPU models and the training-nondeterminism injector.
//!
//! §VII-C measures DNN reproduction errors across four GPUs and finds:
//!
//! 1. errors exist even for the same task on the same GPU model,
//! 2. errors grow with GPU performance (more parallelism → more atomics),
//! 3. cross-GPU pairs see larger errors than same-GPU pairs, largest for
//!    the top-2 pair (G3090 + GA10),
//! 4. per-checkpoint errors on i.i.d. shards follow a normal distribution,
//! 5. errors vary across epochs and optimizers but the structure holds
//!    within an epoch,
//! 6. errors grow linearly with the checkpoint interval.
//!
//! [`NoiseInjector`] reproduces all six: after every optimizer step it adds
//! i.i.d. Gaussian noise to the weights with standard deviation
//! `σ_rel(gpu) · ‖Δθ‖ / √d` — i.e. noise proportional to the magnitude of
//! the step just taken (as real nondeterminism is: atomics perturb the
//! accumulated gradients). Facts (1)–(3) follow from `σ_rel` growing with
//! GPU speed; (4) from the CLT over many independent per-step noises;
//! (5) because `‖Δθ‖` shrinks as training converges and differs per
//! optimizer; (6) because variances add across the steps of an interval.

use rpol_tensor::rng::Pcg32;
use serde::Serialize;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// The four GPU models of the paper's evaluation (§VII-C), ordered by
/// descending FP32 throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum GpuModel {
    /// NVIDIA GeForce RTX 3090 — 35.7 TFLOPS FP32 ("G3090").
    G3090,
    /// NVIDIA A10 (Alibaba gn7i) — 31.2 TFLOPS FP32 ("GA10").
    GA10,
    /// NVIDIA P100 (Alibaba gn5) — 10.6 TFLOPS FP32 ("GP100").
    GP100,
    /// NVIDIA T4 (Alibaba gn6i) — 8.1 TFLOPS FP32 ("GT4").
    GT4,
}

impl GpuModel {
    /// All models, fastest first (the paper's ordering).
    pub const ALL: [GpuModel; 4] = [
        GpuModel::G3090,
        GpuModel::GA10,
        GpuModel::GP100,
        GpuModel::GT4,
    ];

    /// FP32 throughput in TFLOPS (paper §VII-C).
    pub fn fp32_tflops(&self) -> f64 {
        match self {
            GpuModel::G3090 => 35.7,
            GpuModel::GA10 => 31.2,
            GpuModel::GP100 => 10.6,
            GpuModel::GT4 => 8.1,
        }
    }

    /// Relative nondeterminism scale `σ_rel`: the standard deviation of
    /// per-weight noise as a fraction of the RMS weight update. Calibrated
    /// so faster GPUs (more parallel reduction orders) produce larger
    /// errors, matching the paper's Fig. 4 ordering.
    fn noise_rel_sigma(&self) -> f32 {
        // ~ 5e-6 · sqrt(TFLOPS / 10) — calibrated so replayed segments
        // stay in the regime where divergence accumulates roughly
        // linearly rather than chaotically: with larger σ the noise
        // frequently flips ReLU gates during replay, producing a heavy
        // constant-magnitude tail that real cuDNN atomics noise (relative
        // error ~1e-7) essentially never triggers.
        (5e-6 * (self.fp32_tflops() / 10.0).sqrt()) as f32
    }

    /// Wall-clock seconds to execute `flops` floating-point operations at
    /// a conventional 35% utilization efficiency.
    pub fn compute_seconds(&self, flops: f64) -> f64 {
        assert!(flops >= 0.0, "negative flops");
        flops / (self.fp32_tflops() * 1e12 * 0.35)
    }

    /// The top-2 fastest models — what the pool manager uses for
    /// calibration runs to measure near-worst-case reproduction errors
    /// (§V-C).
    pub fn top2() -> (GpuModel, GpuModel) {
        (GpuModel::G3090, GpuModel::GA10)
    }
}

impl fmt::Display for GpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            GpuModel::G3090 => "G3090",
            GpuModel::GA10 => "GA10",
            GpuModel::GP100 => "GP100",
            GpuModel::GT4 => "GT4",
        };
        f.write_str(name)
    }
}

/// Injects per-step training nondeterminism for a given GPU.
///
/// Each injector has its own RNG stream: two injectors with the same GPU
/// model but different seeds model two *runs* on identical hardware, which
/// still diverge (paper finding 1).
///
/// # Examples
///
/// ```
/// use rpol_sim::gpu::{GpuModel, NoiseInjector};
///
/// let mut inj = NoiseInjector::new(GpuModel::G3090, 42);
/// let mut weights = vec![1.0f32; 100];
/// let before = weights.clone();
/// if let Some(mut noise) = inj.step_noise(weights.len(), 0.5) {
///     noise.perturb(&mut weights);
/// }
/// assert_ne!(weights, before);
/// ```
#[derive(Debug, Clone)]
pub struct NoiseInjector {
    model: GpuModel,
    rng: Pcg32,
    /// When set, the injector is a deterministic-hardware baseline.
    zero: bool,
    /// The leading draws of the GPU model's fingerprint stream, as the
    /// process's [`FINGERPRINTS`] held them when this injector last looked;
    /// shared with every clone (the verifier clones one injector per
    /// sample).
    fingerprint: Arc<Vec<f32>>,
}

impl NoiseInjector {
    /// Creates an injector for one training run on `model`.
    pub fn new(model: GpuModel, run_seed: u64) -> Self {
        Self {
            model,
            rng: Pcg32::seed_from(run_seed ^ 0x6E01_5E00),
            zero: false,
            fingerprint: lock_fingerprints().at_least(model, 0),
        }
    }

    /// A silent injector useful as a "perfectly deterministic hardware"
    /// baseline: [`NoiseInjector::step_noise`] draws nothing.
    pub fn noiseless(model: GpuModel) -> Self {
        let mut inj = Self::new(model, 0);
        inj.zero = true;
        inj
    }

    /// The GPU model.
    pub fn model(&self) -> GpuModel {
        self.model
    }

    /// The two components of training nondeterminism an optimizer step
    /// whose update had Euclidean norm `update_norm` adds to `len` weights:
    ///
    /// 1. **run-to-run noise** — i.i.d. Gaussian per element with std
    ///    `σ_rel · update_norm / √d` (atomics reduction-order effects);
    /// 2. **kernel fingerprint drift** — a *deterministic per-GPU-model*
    ///    direction of the same magnitude, modelling systematic library /
    ///    kernel-selection differences. Two runs on the same GPU model
    ///    share the drift (it cancels in their difference); runs on
    ///    different models do not, which is why the paper measures larger
    ///    errors for cross-GPU pairs — largest for the top-2 pair.
    ///
    /// The weights may live in several parts (a model's trainable
    /// tensors): hand the parts to [`StepNoise::perturb`] in flattening
    /// order and each is perturbed in place, bitwise as one part holding
    /// their concatenation would be. `None` when the step draws nothing — a
    /// noiseless injector, no weights, or an update norm that is not
    /// finite and positive (a replay from adversarial NaN/Inf weights),
    /// which leaves the run's stream untouched.
    pub fn step_noise(&mut self, len: usize, update_norm: f32) -> Option<StepNoise<'_>> {
        let valid_norm = update_norm.is_finite() && update_norm > 0.0;
        if self.zero || !valid_norm || len == 0 {
            return None;
        }
        let sigma = self.model.noise_rel_sigma() * update_norm / (len as f32).sqrt();
        assert!(sigma.is_finite() && sigma >= 0.0, "invalid std dev {sigma}");
        if self.fingerprint.len() < len {
            self.fingerprint = lock_fingerprints().at_least(self.model, len);
        }
        Some(StepNoise {
            rng: &mut self.rng,
            fingerprint: &self.fingerprint,
            sigma,
            normals: [0.0; NORMAL_CHUNK],
            at: 0,
            len,
        })
    }
}

/// Every GPU model's fingerprint: a pure function of the model, so the
/// process holds one vector per model, shared by every injector. An
/// injector reads the table when it is built and again only when a step
/// needs more draws than its vector holds; the step path takes no lock.
static FINGERPRINTS: Mutex<Fingerprints> = Mutex::new(Fingerprints([None, None, None, None]));

/// The leading draws of each model's fingerprint stream, indexed by
/// position in [`GpuModel::ALL`], regrown to the longest length asked.
#[derive(Debug, Default)]
struct Fingerprints([Option<Arc<Vec<f32>>>; 4]);

/// The process's fingerprints, also after a panic elsewhere while they were
/// locked: a slot only ever moves from one complete vector to another.
fn lock_fingerprints() -> MutexGuard<'static, Fingerprints> {
    FINGERPRINTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Fingerprints {
    fn slot(&mut self, model: GpuModel) -> &mut Option<Arc<Vec<f32>>> {
        let i = GpuModel::ALL.iter().position(|&m| m == model);
        &mut self.0[i.expect("every model is in the catalogue")]
    }

    /// At least the first `len` standard normals of `model`'s fingerprint
    /// stream. A longer draw replaces the held vector; element `i` is the
    /// stream's `i`-th normal at any length ([`Pcg32::fill_normal`]), so
    /// the order in which lengths are asked changes no bit.
    fn at_least(&mut self, model: GpuModel, len: usize) -> Arc<Vec<f32>> {
        let slot = self.slot(model);
        match slot {
            Some(held) if held.len() >= len => Arc::clone(held),
            _ => {
                let mut rng = Pcg32::seed_from(0xF17E_0000 ^ model.fp32_tflops().to_bits());
                let mut draws = vec![0.0; len];
                rng.fill_normal(&mut draws);
                Arc::clone(slot.insert(Arc::new(draws)))
            }
        }
    }
}

/// Run-to-run normals are drawn in chunks of this many over a step's
/// flattened weight index.
const NORMAL_CHUNK: usize = 1024;

/// One step's noise, applied part by part ([`NoiseInjector::step_noise`]).
#[derive(Debug)]
pub struct StepNoise<'a> {
    rng: &'a mut Pcg32,
    fingerprint: &'a [f32],
    sigma: f32,
    /// The normals of the chunk holding weight `at`.
    normals: [f32; NORMAL_CHUNK],
    /// Weights of the step perturbed so far.
    at: usize,
    len: usize,
}

impl StepNoise<'_> {
    /// Perturbs the step's next `part.len()` weights in place.
    ///
    /// # Panics
    ///
    /// Panics if the parts outgrow the step's `len`.
    pub fn perturb(&mut self, mut part: &mut [f32]) {
        assert!(
            part.len() <= self.len - self.at,
            "{} weights past the step's {}",
            self.at + part.len(),
            self.len
        );
        let sigma = self.sigma;
        while !part.is_empty() {
            let offset = self.at % NORMAL_CHUNK;
            if offset == 0 {
                let n = NORMAL_CHUNK.min(self.len - self.at);
                self.rng.fill_normal(&mut self.normals[..n]);
            }
            let n = part.len().min(NORMAL_CHUNK - offset);
            let (ws, rest) = std::mem::take(&mut part).split_at_mut(n);
            let zs = &self.normals[offset..offset + n];
            let fs = &self.fingerprint[self.at..self.at + n];
            for ((w, &z), &f) in ws.iter_mut().zip(zs).zip(fs) {
                // A zero-mean draw `0.0 + σ·z`: the addition turns a
                // `-0.0` product into `+0.0`.
                *w += (0.0 + sigma * z) + sigma * f;
            }
            self.at += n;
            part = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_tensor::stats;

    /// One step's noise over the whole of `weights`.
    fn perturb(inj: &mut NoiseInjector, weights: &mut [f32], update_norm: f32) {
        if let Some(mut noise) = inj.step_noise(weights.len(), update_norm) {
            noise.perturb(weights);
        }
    }

    #[test]
    fn gpu_ordering_matches_paper() {
        let t: Vec<f64> = GpuModel::ALL.iter().map(|g| g.fp32_tflops()).collect();
        assert!(t.windows(2).all(|w| w[0] > w[1]), "not descending: {t:?}");
        assert_eq!(t, vec![35.7, 31.2, 10.6, 8.1]);
    }

    #[test]
    fn noise_grows_with_gpu_speed() {
        let s: Vec<f32> = GpuModel::ALL.iter().map(|g| g.noise_rel_sigma()).collect();
        assert!(s.windows(2).all(|w| w[0] > w[1]), "not descending: {s:?}");
    }

    #[test]
    fn compute_seconds_scales_inversely() {
        let flops = 1e12;
        assert!(GpuModel::G3090.compute_seconds(flops) < GpuModel::GT4.compute_seconds(flops));
    }

    #[test]
    fn same_gpu_two_runs_diverge() {
        let mut a = NoiseInjector::new(GpuModel::GT4, 1);
        let mut b = NoiseInjector::new(GpuModel::GT4, 2);
        let mut wa = vec![0.0f32; 1000];
        let mut wb = vec![0.0f32; 1000];
        perturb(&mut a, &mut wa, 1.0);
        perturb(&mut b, &mut wb, 1.0);
        assert_ne!(wa, wb);
        // Both nonzero.
        assert!(wa.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn expected_error_magnitude() {
        // Noise and fingerprint components each contribute σ_rel·‖Δθ‖,
        // so a single perturbation has E‖ε‖ ≈ √2·σ_rel·‖Δθ‖.
        let mut inj = NoiseInjector::new(GpuModel::G3090, 3);
        let d = 10_000;
        let update_norm = 2.0f32;
        let mut w = vec![0.0f32; d];
        perturb(&mut inj, &mut w, update_norm);
        let err: f32 = w.iter().map(|&x| x * x).sum::<f32>().sqrt();
        let expected = std::f32::consts::SQRT_2 * GpuModel::G3090.noise_rel_sigma() * update_norm;
        assert!(
            (err - expected).abs() < expected * 0.1,
            "err {err} vs expected {expected}"
        );
    }

    #[test]
    fn same_model_pairs_cancel_fingerprint() {
        // The drift is identical for two runs on the same GPU model, so
        // the *difference* between the runs contains only i.i.d. noise.
        let run = |seed: u64| {
            let mut inj = NoiseInjector::new(GpuModel::GA10, seed);
            let mut w = vec![0.0f32; 5_000];
            perturb(&mut inj, &mut w, 1.0);
            w
        };
        let (a, b) = (run(1), run(2));
        let diff: f32 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt();
        // √2·σ (two independent noise draws), not 2σ (which would include
        // uncancelled drift).
        let expected = std::f32::consts::SQRT_2 * GpuModel::GA10.noise_rel_sigma();
        assert!(
            (diff - expected).abs() < expected * 0.15,
            "diff {diff} vs {expected}"
        );
    }

    #[test]
    fn cross_model_pairs_keep_fingerprint_gap() {
        // Same seed pattern, different GPU models: the fingerprint
        // difference adds to the noise, so cross-pairs diverge more.
        let run = |model: GpuModel, seed: u64| {
            let mut inj = NoiseInjector::new(model, seed);
            let mut w = vec![0.0f32; 5_000];
            perturb(&mut inj, &mut w, 1.0);
            w
        };
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter()
                .zip(b)
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        let same = dist(&run(GpuModel::G3090, 1), &run(GpuModel::G3090, 2));
        let cross = dist(&run(GpuModel::G3090, 1), &run(GpuModel::GA10, 2));
        assert!(cross > same, "cross {cross} !> same {same}");
    }

    #[test]
    fn noiseless_is_noop() {
        let mut inj = NoiseInjector::noiseless(GpuModel::G3090);
        let mut w = vec![1.0f32; 10];
        perturb(&mut inj, &mut w, 5.0);
        assert_eq!(w, vec![1.0f32; 10]);
    }

    #[test]
    #[should_panic(expected = "past the step's")]
    fn parts_may_not_outgrow_their_step() {
        let mut inj = NoiseInjector::new(GpuModel::GA10, 1);
        let mut noise = inj.step_noise(10, 1.0).expect("a noisy step");
        noise.perturb(&mut [0.0; 6]);
        noise.perturb(&mut [0.0; 5]);
    }

    /// More weights than any other test of this crate perturbs on
    /// [`GpuModel::GP100`], which none of them uses: no test regrows its
    /// fingerprint under this one.
    const GP100_LONGEST: usize = 20_000;

    #[test]
    fn injectors_of_one_model_share_its_fingerprint() {
        let mut first = NoiseInjector::new(GpuModel::GP100, 1);
        perturb(&mut first, &mut vec![0.0f32; GP100_LONGEST], 1.0);
        let mut second = NoiseInjector::new(GpuModel::GP100, 2);
        assert!(Arc::ptr_eq(&first.fingerprint, &second.fingerprint));
        // A shorter step keeps the vector the injector holds.
        perturb(&mut second, &mut [0.0f32; 100], 1.0);
        assert!(Arc::ptr_eq(&first.fingerprint, &second.fingerprint));
        assert!(Arc::ptr_eq(&first.fingerprint, &second.clone().fingerprint));
        let mut other = NoiseInjector::new(GpuModel::GT4, 1);
        perturb(&mut other, &mut [0.0f32; 100], 1.0);
        assert!(!Arc::ptr_eq(&first.fingerprint, &other.fingerprint));
    }

    #[test]
    fn the_order_of_lengths_changes_no_fingerprint_bit() {
        // The trainable weights of task P and of `TaskConfig::tiny`.
        let (long, short) = (97_152, 1_852);
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        for model in GpuModel::ALL {
            let (mut short_first, mut long_first) =
                (Fingerprints::default(), Fingerprints::default());
            let early = short_first.at_least(model, short);
            let late = short_first.at_least(model, long);
            let held = long_first.at_least(model, long);
            assert_eq!(bits(&late), bits(&held), "{model}");
            assert_eq!(bits(&early), bits(&held[..short]), "{model}");
            // A shorter ask is served from the longer vector.
            assert!(Arc::ptr_eq(&held, &long_first.at_least(model, short)));
            assert_eq!(late.len(), long);
        }
    }

    #[test]
    fn checkpoint_distances_normal_across_runs() {
        // Distances between pairs of noisy runs over many steps should be
        // approximately normal (paper finding 4).
        let d = 2000;
        let steps = 25;
        let mut distances = Vec::new();
        for trial in 0..60 {
            let mut a = NoiseInjector::new(GpuModel::G3090, 100 + trial);
            let mut b = NoiseInjector::new(GpuModel::GA10, 900 + trial);
            let mut wa = vec![0.0f32; d];
            let mut wb = vec![0.0f32; d];
            for _ in 0..steps {
                perturb(&mut a, &mut wa, 1.0);
                perturb(&mut b, &mut wb, 1.0);
            }
            let dist: f32 = wa
                .iter()
                .zip(&wb)
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt();
            distances.push(dist);
        }
        let ks = stats::ks_normality_test(&distances);
        assert!(ks.is_normal(0.01), "distances not normal: {ks:?}");
    }

    #[test]
    fn error_grows_with_interval() {
        // Between two same-model runs the drift cancels and noise
        // variance adds across steps: distance after 4x the steps ≈ 2x.
        let run = |steps: usize, seed: u64| -> Vec<f32> {
            let mut a = NoiseInjector::new(GpuModel::G3090, seed);
            let mut w = vec![0.0f32; 5000];
            for _ in 0..steps {
                perturb(&mut a, &mut w, 1.0);
            }
            w
        };
        let dist = |steps: usize| -> f32 {
            let a = run(steps, 7);
            let b = run(steps, 8);
            a.iter()
                .zip(&b)
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        let e1 = dist(5);
        let e4 = dist(20);
        assert!(
            (e4 / e1 - 2.0).abs() < 0.3,
            "interval scaling off: {e1} -> {e4}"
        );
    }
}
