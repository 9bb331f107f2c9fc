//! Property-based tests for the environment substrate.

use proptest::prelude::*;
use rpol_sim::cost::CostModel;
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_sim::net::NetworkModel;
use rpol_sim::workload::{DatasetKind, ModelKind, Workload};
use rpol_sim::SimClock;
use rpol_tensor::rng::Pcg32;

/// One [`NoiseInjector::step_noise`] over a whole weight vector as it was
/// before the fingerprint was cached and the normals were drawn in blocks:
/// one `next_normal` per element from each stream, the per-GPU stream
/// re-derived from its seed on every call, `σ_rel` written out.
fn perturb_uncached(rng: &mut Pcg32, gpu: GpuModel, weights: &mut [f32], update_norm: f32) {
    if !(update_norm.is_finite() && update_norm > 0.0) || weights.is_empty() {
        return;
    }
    let sigma_rel = (5e-6 * (gpu.fp32_tflops() / 10.0).sqrt()) as f32;
    let sigma = sigma_rel * update_norm / (weights.len() as f32).sqrt();
    let mut fingerprint = Pcg32::seed_from(0xF17E_0000 ^ gpu.fp32_tflops().to_bits());
    for w in weights.iter_mut() {
        *w += (0.0 + sigma * rng.next_normal()) + sigma * fingerprint.next_normal();
    }
}

/// One step's noise over the whole of `weights`: a single part.
fn perturb(inj: &mut NoiseInjector, weights: &mut [f32], update_norm: f32) {
    let len = weights.len();
    perturb_parts(inj, weights, &[len], update_norm);
}

fn bits(weights: &[f32]) -> Vec<u32> {
    weights.iter().map(|w| w.to_bits()).collect()
}

/// Perturbs `weights` in place as consecutive parts ending at `ends`
/// (ascending, the last one `weights.len()`; a repeated end is an empty
/// part), one [`NoiseInjector::step_noise`] over all of them.
fn perturb_parts(inj: &mut NoiseInjector, weights: &mut [f32], ends: &[usize], update_norm: f32) {
    let len = weights.len();
    let Some(mut noise) = inj.step_noise(len, update_norm) else {
        return;
    };
    let (mut rest, mut start) = (weights, 0);
    for &end in ends {
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
        noise.perturb(part);
        (rest, start) = (tail, end);
    }
    assert!(rest.is_empty(), "the parts cover the step");
}

fn ramp(len: usize) -> Vec<f32> {
    (0..len).map(|j| j as f32 * 0.25 - 3.0).collect()
}

/// Hand-picked splits: empty parts at the front, in the middle and at the
/// end, parts straddling the 1,024 and 2,048 chunk boundaries, a short
/// tail, and one weight per part; each over two steps of one run.
#[test]
fn in_place_parts_at_chosen_splits_equal_the_uncached_expression() {
    let one_each: Vec<usize> = (1..=70).collect();
    let cases: [(usize, Vec<usize>); 5] = [
        (2051, vec![0, 0, 1000, 1030, 1030, 2047, 2049, 2051, 2051]),
        (1024, vec![1023, 1024]),
        (1025, vec![1024, 1024, 1025]),
        (3000, vec![512, 1536, 2560, 3000]),
        (70, one_each),
    ];
    for (case, (len, ends)) in cases.iter().enumerate() {
        for gpu in GpuModel::ALL {
            let mut inj = NoiseInjector::new(gpu, 17 + case as u64);
            let mut oracle = Pcg32::seed_from((17 + case as u64) ^ 0x6E01_5E00);
            for step in 0..2 {
                let norm = 0.5 + step as f32;
                let (mut got, mut want) = (ramp(*len), ramp(*len));
                perturb_parts(&mut inj, &mut got, ends, norm);
                perturb_uncached(&mut oracle, gpu, &mut want, norm);
                assert_eq!(bits(&got), bits(&want), "case {case} {gpu} step {step}");
            }
        }
    }
    let mut inj = NoiseInjector::new(GpuModel::GA10, 1);
    assert!(inj.step_noise(0, 1.0).is_none(), "no weights");
    assert!(inj.step_noise(8, f32::NAN).is_none(), "NaN norm");
    assert!(inj.step_noise(8, f32::INFINITY).is_none(), "infinite norm");
    assert!(inj.step_noise(8, 0.0).is_none(), "zero norm");
    assert!(NoiseInjector::noiseless(GpuModel::GA10)
        .step_noise(8, 1.0)
        .is_none());
}

proptest! {
    #[test]
    fn compute_seconds_linear_in_flops(flops in 0.0f64..1e15, scale in 1.0f64..10.0) {
        for gpu in GpuModel::ALL {
            let t1 = gpu.compute_seconds(flops);
            let t2 = gpu.compute_seconds(flops * scale);
            prop_assert!((t2 - t1 * scale).abs() < 1e-6 * t2.max(1.0));
        }
    }

    #[test]
    fn injector_deterministic_per_seed(seed in any::<u64>(), norm in 0.01f32..10.0) {
        let run = |s: u64| {
            let mut inj = NoiseInjector::new(GpuModel::GA10, s);
            let mut w = vec![0.5f32; 64];
            perturb(&mut inj, &mut w, norm);
            w
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn cached_fingerprint_equals_the_uncached_expression(
        seed in any::<u64>(),
        gpu_pick in 0usize..4,
        // Up to 3000 weights: below, at and across the injector's
        // 1024-float chunks, odd tails included.
        len in 2usize..1500,
        shorter in 1usize..1500,
        longer in 1usize..1500,
        norm in 0.01f32..10.0,
    ) {
        let gpu = GpuModel::ALL[gpu_pick];
        let (shorter, longer) = (shorter.min(len - 1), len + longer);
        let mut inj = NoiseInjector::new(gpu, seed);
        let mut oracle = Pcg32::seed_from(seed ^ 0x6E01_5E00);
        // (use the clone?, weight count, update norm): the clone is taken
        // after the first step and shares the cache; lengths shrink, then
        // grow past the cached prefix; invalid norms must neither perturb
        // nor consume the run's noise stream.
        let mut fork: Option<(NoiseInjector, Pcg32)> = None;
        let steps = [
            (false, len, norm),
            (true, shorter, norm * 0.5),
            (false, longer, norm * 2.0),
            (false, len, f32::NAN),
            (false, len, 0.0),
            (true, longer, norm),
            (false, shorter, norm),
        ];
        for (i, &(on_fork, n, update_norm)) in steps.iter().enumerate() {
            let (inj, oracle) = if on_fork {
                let (inj, oracle) = fork.get_or_insert_with(|| (inj.clone(), oracle.clone()));
                (inj, oracle)
            } else {
                (&mut inj, &mut oracle)
            };
            let mut got: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 3.0).collect();
            let mut want = got.clone();
            perturb(inj, &mut got, update_norm);
            perturb_uncached(oracle, gpu, &mut want, update_norm);
            prop_assert_eq!(bits(&got), bits(&want), "step {}", i);
        }

        let mut silent = NoiseInjector::noiseless(gpu);
        let mut w = vec![0.5f32; len];
        perturb(&mut silent, &mut w, norm);
        prop_assert!(w.iter().all(|&x| x == 0.5));
    }

    #[test]
    fn in_place_parts_equal_the_uncached_expression(
        seed in any::<u64>(),
        gpu_pick in 0usize..4,
        // Up to 3,200 weights over up to eight cuts: parts shorter and
        // longer than a 1,024-normal chunk, empty ones where cuts repeat.
        len in 0usize..3200,
        cuts in proptest::collection::vec(0usize..3200, 0..8),
        norm in 0.01f32..10.0,
    ) {
        let gpu = GpuModel::ALL[gpu_pick];
        let mut inj = NoiseInjector::new(gpu, seed);
        let mut oracle = Pcg32::seed_from(seed ^ 0x6E01_5E00);
        let mut ends: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
        ends.push(len);
        ends.sort_unstable();
        // Two steps of one run: the first split at the cuts, the second
        // whole, so a part that drew the wrong number of normals shows.
        for (step, ends) in [&ends[..], &[len][..]].into_iter().enumerate() {
            let (mut got, mut want) = (ramp(len), ramp(len));
            perturb_parts(&mut inj, &mut got, ends, norm);
            perturb_uncached(&mut oracle, gpu, &mut want, norm);
            prop_assert_eq!(bits(&got), bits(&want), "step {}", step);
        }
    }

    #[test]
    fn injectors_built_before_and_after_a_regrowth_agree(
        other_seed in any::<u64>(),
        run_seed in any::<u64>(),
        gpu_pick in 0usize..4,
        lens in proptest::collection::vec(1usize..2500, 1..5),
        extra in 0usize..2500,
        norm in 0.01f32..10.0,
    ) {
        let gpu = GpuModel::ALL[gpu_pick];
        let mut before = NoiseInjector::new(gpu, run_seed);
        // Another run regrows the process's fingerprint of `gpu` past every
        // length below; its own noise stream may not leak.
        let longest = lens.iter().max().expect("one length") + extra;
        perturb(&mut NoiseInjector::new(gpu, other_seed), &mut vec![0.0; longest], norm);
        let mut after = NoiseInjector::new(gpu, run_seed);
        prop_assert_eq!(after.model(), gpu);
        for (step, &n) in lens.iter().enumerate() {
            let mut got: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 3.0).collect();
            let mut want = got.clone();
            perturb(&mut after, &mut got, norm);
            perturb(&mut before, &mut want, norm);
            prop_assert_eq!(bits(&got), bits(&want), "step {}", step);
        }
    }

    #[test]
    fn noise_scales_with_update_norm(seed in any::<u64>(), norm in 0.1f32..10.0) {
        let err = |n: f32| {
            let mut inj = NoiseInjector::new(GpuModel::G3090, seed);
            let mut w = vec![0.0f32; 4096];
            perturb(&mut inj, &mut w, n);
            w.iter().map(|&x| x * x).sum::<f32>().sqrt()
        };
        let e1 = err(norm);
        let e2 = err(norm * 2.0);
        prop_assert!((e2 / e1 - 2.0).abs() < 0.2, "scaling off: {e1} vs {e2}");
    }

    #[test]
    fn broadcast_time_monotone_in_bytes_and_workers(
        bytes in 1u64..1_000_000_000, n in 1usize..500
    ) {
        let net = NetworkModel::paper_default();
        prop_assert!(net.broadcast_seconds(bytes, n) <= net.broadcast_seconds(bytes * 2, n));
        prop_assert!(net.broadcast_seconds(bytes, n) <= net.broadcast_seconds(bytes, n * 2) + 1e-12);
        prop_assert!(net.p2p_seconds(bytes) >= net.latency_s);
    }

    #[test]
    fn cost_is_additive(
        gpu_s in 0.0f64..100_000.0,
        comm in 0u64..1_000_000_000_000,
        storage in 0u64..1_000_000_000_000
    ) {
        let m = CostModel::paper_default();
        let total = m.total_usd(gpu_s, comm, storage, 1.0);
        let parts = m.total_usd(gpu_s, 0, 0, 0.0)
            + m.total_usd(0.0, comm, 0, 0.0)
            + m.total_usd(0.0, 0, storage, 1.0);
        prop_assert!((total - parts).abs() < 1e-9 * total.max(1.0));
    }

    #[test]
    fn workload_partitions_conserve_samples(n in 1usize..1000) {
        let w = Workload::new(ModelKind::ResNet50, DatasetKind::ImageNet);
        // Each worker's share of the paper's 1,281,167 ImageNet samples.
        let per = 1_281_167 / n as u64;
        // A checkpoint every step counts the steps: the fewest batches
        // that cover the share.
        let steps = w.checkpoints_per_worker(n, 1);
        prop_assert!(steps * w.batch_size >= per);
        prop_assert!(steps == 0 || (steps - 1) * w.batch_size < per);
        prop_assert_eq!(w.flops_per_worker(n), per as f64 * w.model.train_flops_per_sample());
    }

    #[test]
    fn clock_accumulates_commutatively(xs in proptest::collection::vec(0.0f64..100.0, 1..20)) {
        let mut forward = SimClock::new();
        for &x in &xs {
            forward.add("t", x);
        }
        let mut reverse = SimClock::new();
        for &x in xs.iter().rev() {
            reverse.add("t", x);
        }
        prop_assert!((forward.total() - reverse.total()).abs() < 1e-9);
    }
}
