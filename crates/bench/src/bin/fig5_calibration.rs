//! Fig. 5 regenerator: the adaptive LSH calibration study.
//!
//! For four tasks (mini-ResNet18/50 × CIFAR-10/100 stand-ins) and each
//! epoch, this harness reports:
//!
//! * the measured **maximum reproduction error** of an honest worker
//!   (trains on GA10, verified from G3090 — the near-worst pairing),
//! * the **minimum spoof distance** of the Eq. 12 adversary that honestly
//!   trains the first third of checkpoints and extrapolates the rest,
//! * the calibrated **α** and **β = 5α**,
//! * measured **FNR_lsh** (honest checkpoints failing LSH matching) and
//!   **FPR_lsh** (spoofed checkpoints passing LSH matching) across
//!   repeated trials.
//!
//! Expected shape (paper): spoof distances decrease toward convergence but
//! stay far above reproduction errors; β upper-bounds every honest error
//! (0 end-to-end false negatives); both measured rates sit below the 5%
//! theoretical bound.
//!
//! Usage: `cargo run --release -p rpol-bench --bin fig5_calibration \
//!         [--epochs=4] [--trials=8] [--steps=30]`

use rpol::adversary::spoof_next_checkpoint;
use rpol::calibrate::{CalibrationPolicy, Calibrator};
use rpol::tasks::{ModelArch, TaskConfig};
use rpol::trainer::LocalTrainer;
use rpol_bench::{arg_usize, pct, print_table};
use rpol_nn::data::{ImageSpec, SyntheticImages};
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::rng::Pcg32;
use rpol_tensor::stats::euclidean;

struct EpochStats {
    max_repro: f32,
    min_spoof: f32,
    alpha: f32,
    beta: f32,
    lsh_fails_honest: usize,
    honest_total: usize,
    lsh_passes_spoof: usize,
    spoof_total: usize,
    beta_covers_honest: bool,
}

fn main() {
    let epochs = arg_usize("epochs", 4);
    let trials = arg_usize("trials", 8);
    let steps = arg_usize("steps", 30);

    let tasks: [(&str, ModelArch, ImageSpec); 4] = [
        (
            "mini-ResNet18 / CIFAR-10-like",
            ModelArch::MiniResNet18,
            ImageSpec::cifar10_like(),
        ),
        (
            "mini-ResNet18 / CIFAR-100-like",
            ModelArch::MiniResNet18,
            ImageSpec::cifar100_like(),
        ),
        (
            "mini-ResNet50 / CIFAR-10-like",
            ModelArch::MiniResNet50,
            ImageSpec::cifar10_like(),
        ),
        (
            "mini-ResNet50 / CIFAR-100-like",
            ModelArch::MiniResNet50,
            ImageSpec::cifar100_like(),
        ),
    ];

    for (label, arch, spec) in tasks {
        let mut cfg = TaskConfig::task_a();
        cfg.arch = arch;
        cfg.spec = spec;
        let mut rng = Pcg32::seed_from(0xF15);
        let data = SyntheticImages::generate(&cfg.spec, 400, &mut rng);
        let shards = data.shard(2);
        let (manager_shard, worker_shard) = (&shards[0], &shards[1]);
        let calibrator = Calibrator::new(
            &cfg,
            manager_shard,
            CalibrationPolicy::default(),
            GpuModel::top2(),
        );

        let mut global = cfg.build_model().flatten_params();
        let mut rows = Vec::new();
        for epoch in 0..epochs {
            let (cal, _) = calibrator.calibrate(&global, 0xCA ^ epoch as u64, steps, epoch as u64);
            let family = cal.family(global.len());
            let mut stats = EpochStats {
                max_repro: 0.0,
                min_spoof: f32::INFINITY,
                alpha: cal.alpha,
                beta: cal.beta,
                lsh_fails_honest: 0,
                honest_total: 0,
                lsh_passes_spoof: 0,
                spoof_total: 0,
                beta_covers_honest: true,
            };
            let mut next_global = global.clone();
            for trial in 0..trials {
                let seed = (epoch as u64) << 16 | trial as u64;
                // Honest worker on GA10.
                let mut model = cfg.build_model();
                model.load_params(&global);
                let mut worker = LocalTrainer::new(
                    &cfg,
                    worker_shard,
                    NoiseInjector::new(GpuModel::GA10, 0x10_000 ^ seed),
                );
                let nonce = 0x1F ^ seed;
                let trace = worker.run_epoch(&mut model, nonce, steps);
                if trial == 0 {
                    next_global = trace.final_weights().to_vec();
                }
                // Verification replays on G3090.
                let mut verify_model = cfg.build_model();
                let mut verifier = LocalTrainer::new(
                    &cfg,
                    worker_shard,
                    NoiseInjector::new(GpuModel::G3090, 0x20_000 ^ seed),
                );
                let replays: Vec<Vec<f32>> = trace
                    .segments
                    .iter()
                    .enumerate()
                    .map(|(j, seg)| {
                        verifier.replay_segment(
                            &mut verify_model,
                            &trace.checkpoints[j],
                            nonce,
                            *seg,
                        )
                    })
                    .collect();
                for (j, replayed) in replays.iter().enumerate() {
                    let dist = euclidean(replayed, &trace.checkpoints[j + 1]);
                    stats.max_repro = stats.max_repro.max(dist);
                    stats.honest_total += 1;
                    if dist >= stats.beta {
                        stats.beta_covers_honest = false;
                    }
                }
                // Adversary: honest first third, Eq. 12 spoof for the rest.
                let honest_prefix = (trace.segments.len() / 3).max(1);
                let mut forged: Vec<Vec<f32>> = trace.checkpoints[..=honest_prefix].to_vec();
                for _ in honest_prefix..trace.segments.len() {
                    forged.push(spoof_next_checkpoint(&forged, 0.5));
                }
                let spoofed: Vec<Vec<f32>> = (honest_prefix..trace.segments.len())
                    .map(|j| {
                        let seg = trace.segments[j];
                        verifier.replay_segment(&mut verify_model, &forged[j], nonce, seg)
                    })
                    .collect();
                for (j, replayed) in (honest_prefix..).zip(&spoofed) {
                    let dist = euclidean(replayed, &forged[j + 1]);
                    stats.min_spoof = stats.min_spoof.min(dist);
                    stats.spoof_total += 1;
                }
                // The trial's signatures in one streamed pass: every honest
                // checkpoint and its replay, every forged one and its replay.
                let n = replays.len();
                let xs: Vec<&[f32]> = trace.checkpoints[1..]
                    .iter()
                    .chain(&replays)
                    .chain(&forged[honest_prefix + 1..])
                    .chain(&spoofed)
                    .map(Vec::as_slice)
                    .collect();
                let sigs = family.hash_batch(&xs);
                let (honest, spoof) = sigs.split_at(2 * n);
                let (committed, replayed) = honest.split_at(n);
                stats.lsh_fails_honest += committed
                    .iter()
                    .zip(replayed)
                    .filter(|(c, r)| !r.matches(c))
                    .count();
                let (committed, replayed) = spoof.split_at(spoof.len() / 2);
                stats.lsh_passes_spoof += committed
                    .iter()
                    .zip(replayed)
                    .filter(|(c, r)| r.matches(c))
                    .count();
            }
            global = next_global;

            rows.push(vec![
                (epoch + 1).to_string(),
                format!("{:.2e}", stats.max_repro),
                format!("{:.2e}", stats.min_spoof),
                format!("{:.2e}", stats.alpha),
                format!("{:.2e}", stats.beta),
                pct(stats.lsh_fails_honest as f64 / stats.honest_total as f64),
                pct(cal.expected_fnr()),
                pct(stats.lsh_passes_spoof as f64 / stats.spoof_total as f64),
                stats.beta_covers_honest.to_string(),
            ]);
        }
        print_table(
            &format!("Fig. 5 — {label} ({trials} trials/epoch)"),
            &[
                "epoch",
                "max repro error",
                "min spoof dist",
                "alpha",
                "beta",
                "FNR_lsh",
                "Eq.5 E[FNR]",
                "FPR_lsh",
                "β covers honest?",
            ],
            &rows,
        );
    }
    println!(
        "Expected shape: min spoof distance ≫ max reproduction error; \
         β always above honest errors (→ 0 end-to-end false negatives via \
         double-check); FNR_lsh and FPR_lsh below the theoretical 5%."
    );
}
