//! Ablation studies for RPoL's design knobs (DESIGN.md §6 calls these
//! out): the sampling count `q`, the checkpoint interval `i`, the LSH
//! budget `K_lsh`, and the double-check fallback.
//!
//! Usage: `cargo run --release -p rpol-bench --bin ablation_sweeps [--trials=6]`

use rpol::adversary::spoof_next_checkpoint;
use rpol::calibrate::{CalibrationPolicy, Calibrator};
use rpol::sampling::evasion_probability;
use rpol::tasks::TaskConfig;
use rpol::trainer::LocalTrainer;
use rpol_bench::{arg_usize, pct, print_table};
use rpol_lsh::tuning::{tune, TuningConfig};
use rpol_nn::data::SyntheticImages;
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::rng::Pcg32;
use rpol_tensor::stats::{self, euclidean};

/// Sweep 1: evasion probability vs sample count `q` for a worker that
/// spoofs two of three segments (h_A = 1/3), measured empirically against
/// the Theorem 2 bound.
fn sweep_q(trials: usize) {
    let cfg = TaskConfig::task_a();
    let steps = 15; // 3 segments
    let mut rng = Pcg32::seed_from(0xAB1);
    let data = SyntheticImages::generate(&cfg.spec, 400, &mut rng);
    let shards = data.shard(2);
    let calibrator = Calibrator::new(
        &cfg,
        &shards[0],
        CalibrationPolicy::default(),
        GpuModel::top2(),
    );
    let global = cfg.build_model().flatten_params();
    let (cal, _) = calibrator.calibrate(&global, 0xC0, steps, 0);

    let mut rows = Vec::new();
    for q in 1..=3usize {
        let mut evasions = 0;
        for trial in 0..trials {
            // The adversary trains segment 0 honestly, spoofs 1 and 2.
            let mut model = cfg.build_model();
            model.load_params(&global);
            let mut trainer = LocalTrainer::new(
                &cfg,
                &shards[1],
                NoiseInjector::new(GpuModel::GA10, 0x5000 + trial as u64),
            );
            let nonce = 0x77 + trial as u64;
            let trace = trainer.run_epoch(&mut model, nonce, steps);
            let mut forged = trace.checkpoints[..=1].to_vec();
            for _ in 1..trace.segments.len() {
                forged.push(spoof_next_checkpoint(&forged, 0.5));
            }
            // Sample q segments at random; evasion = all sampled honest.
            let mut sampler = Pcg32::seed_from(0x9999 + (q * 100 + trial) as u64);
            let mut indices: Vec<usize> = (0..trace.segments.len()).collect();
            sampler.shuffle(&mut indices);
            let sampled = &indices[..q];
            let mut verify_model = cfg.build_model();
            let mut verifier = LocalTrainer::new(
                &cfg,
                &shards[1],
                NoiseInjector::new(GpuModel::G3090, 0x6000 + trial as u64),
            );
            let caught = sampled.iter().any(|&j| {
                let replayed = verifier.replay_segment(
                    &mut verify_model,
                    &forged[j],
                    nonce,
                    trace.segments[j],
                );
                euclidean(&replayed, &forged[j + 1]) >= cal.beta
            });
            if !caught {
                evasions += 1;
            }
        }
        let empirical = evasions as f64 / trials as f64;
        // h_A = 1/3 honest segments; FPR ≈ 0 for distance checks.
        let theory = evasion_probability(q as u32, 1.0 / 3.0, 0.0);
        rows.push(vec![q.to_string(), pct(empirical), pct(theory)]);
    }
    print_table(
        "Ablation — evasion rate vs sampled checkpoints q (adversary honest on 1/3)",
        &["q", "measured evasion", "Theorem 2 bound"],
        &rows,
    );
}

/// Sweep 2: reproduction error and per-epoch storage vs checkpoint
/// interval.
fn sweep_interval() {
    let base = TaskConfig::task_a();
    let mut rng = Pcg32::seed_from(0xAB2);
    let data = SyntheticImages::generate(&base.spec, 200, &mut rng);
    let mut rows = Vec::new();
    for interval in [2usize, 5, 10] {
        let mut cfg = base;
        cfg.checkpoint_interval = interval;
        let mut model = cfg.build_model();
        let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 0x42));
        let trace = trainer.run_epoch(&mut model, 0x13, 20);
        let mut verify_model = cfg.build_model();
        let mut verifier =
            LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::G3090, 0x43));
        let dists: Vec<f32> = trace
            .segments
            .iter()
            .enumerate()
            .map(|(j, seg)| {
                let replayed =
                    verifier.replay_segment(&mut verify_model, &trace.checkpoints[j], 0x13, *seg);
                euclidean(&replayed, &trace.checkpoints[j + 1])
            })
            .collect();
        let storage = trace.checkpoints.len() * trace.checkpoints[0].len() * 4;
        rows.push(vec![
            interval.to_string(),
            format!("{:.2e}", stats::mean(&dists)),
            format!("{}", trace.checkpoints.len()),
            format!("{:.1} KB", storage as f64 / 1e3),
        ]);
    }
    print_table(
        "Ablation — checkpoint interval: error grows, storage shrinks",
        &[
            "interval",
            "mean repro error",
            "checkpoints",
            "storage/epoch",
        ],
        &rows,
    );
}

/// Sweep 3: LSH operating point vs compute budget `K_lsh`.
fn sweep_klsh() {
    let mut rows = Vec::new();
    for budget in [2usize, 4, 8, 16, 32, 64] {
        let out = tune(&TuningConfig::new(1.0, 5.0).with_budget(budget));
        rows.push(vec![
            budget.to_string(),
            format!(
                "r={:.2}, k={}, l={}",
                out.params.r, out.params.k, out.params.l
            ),
            format!("{:.3}", out.pr_alpha),
            format!("{:.3}", out.pr_beta),
        ]);
    }
    print_table(
        "Ablation — LSH budget K_lsh vs achievable operating point (α=1, β=5)",
        &["K_lsh", "optimal params", "Pr_lsh(α) ↑", "Pr_lsh(β) ↓"],
        &rows,
    );
}

/// Sweep 4: the double-check fallback — how many honest checkpoints the
/// bare LSH match would reject, all of which the fallback rescues.
fn sweep_double_check(trials: usize) {
    let cfg = TaskConfig::task_a();
    let steps = 15;
    let mut rng = Pcg32::seed_from(0xAB4);
    let data = SyntheticImages::generate(&cfg.spec, 400, &mut rng);
    let shards = data.shard(2);
    let calibrator = Calibrator::new(
        &cfg,
        &shards[0],
        CalibrationPolicy::default(),
        GpuModel::top2(),
    );
    let global = cfg.build_model().flatten_params();
    let (cal, _) = calibrator.calibrate(&global, 0xD0, steps, 0);
    let dim = global.len();
    let family = cal.family(dim);

    let mut lsh_fails = 0;
    let mut distance_fails = 0;
    let mut total = 0;
    for trial in 0..trials {
        let mut model = cfg.build_model();
        model.load_params(&global);
        let mut trainer = LocalTrainer::new(
            &cfg,
            &shards[1],
            NoiseInjector::new(GpuModel::GA10, 0x7000 + trial as u64),
        );
        let nonce = 0x88 + trial as u64;
        let trace = trainer.run_epoch(&mut model, nonce, steps);
        let mut verify_model = cfg.build_model();
        let mut verifier = LocalTrainer::new(
            &cfg,
            &shards[1],
            NoiseInjector::new(GpuModel::G3090, 0x8000 + trial as u64),
        );
        let replays: Vec<Vec<f32>> = trace
            .segments
            .iter()
            .enumerate()
            .map(|(j, seg)| {
                verifier.replay_segment(&mut verify_model, &trace.checkpoints[j], nonce, *seg)
            })
            .collect();
        // The trial's signatures in one streamed pass: every committed
        // checkpoint and its replay.
        let xs: Vec<&[f32]> = trace.checkpoints[1..]
            .iter()
            .chain(&replays)
            .map(Vec::as_slice)
            .collect();
        let sigs = family.hash_batch(&xs);
        let (committed, replayed) = sigs.split_at(replays.len());
        for (j, (c, r)) in committed.iter().zip(replayed).enumerate() {
            total += 1;
            if !r.matches(c) {
                lsh_fails += 1;
                // The fallback: raw distance against β.
                if euclidean(&replays[j], &trace.checkpoints[j + 1]) >= cal.beta {
                    distance_fails += 1;
                }
            }
        }
    }
    print_table(
        "Ablation — double-check fallback on honest checkpoints",
        &["quantity", "value"],
        &[
            vec!["honest checkpoints verified".into(), total.to_string()],
            vec![
                "LSH-only rejections (would-be FNs)".into(),
                format!("{lsh_fails} ({})", pct(lsh_fails as f64 / total as f64)),
            ],
            vec![
                "rejections after double-check".into(),
                format!(
                    "{distance_fails} ({})",
                    pct(distance_fails as f64 / total as f64)
                ),
            ],
        ],
    );
    println!("without the double-check, every LSH false negative would cost an honest worker its epoch reward.");
}

fn main() {
    let trials = arg_usize("trials", 6);
    sweep_q(trials);
    sweep_interval();
    sweep_klsh();
    sweep_double_check(trials * 3);
}
