//! Fig. 6 regenerator: global-model test accuracy under attack, with and
//! without verification, as the adversary fraction grows from 10% to 90%.
//!
//! Four settings per task, as in the paper:
//!
//! * `BL_Adv1` — no verification, Adv1 (replay) adversaries aggregated,
//! * `BL_Adv2` — no verification, Adv2 (10% training + Eq. 12 spoof),
//! * `RPoLv1`  — sampled raw-weight verification (Adv1 + Adv2 mixed in),
//! * `RPoLv2`  — LSH verification (same adversaries).
//!
//! Expected shape (paper): both RPoL variants dominate the baselines at
//! every adversary fraction, the gap grows with the fraction, and
//! RPoLv1 ≡ RPoLv2 in accuracy.
//!
//! Results are averaged over `--reps` independent pool seeds to damp
//! run-to-run training noise.
//!
//! Usage: `cargo run --release -p rpol-bench --bin fig6_attacks \
//!         [--epochs=8] [--workers=10] [--reps=3] [--taskb=0]`

use rpol::adversary::WorkerBehavior;
use rpol::pool::{MiningPool, PoolConfig, Scheme};
use rpol::tasks::TaskConfig;
use rpol_bench::{arg_usize, pct, print_table};

fn behaviors(n: usize, adversaries: usize, adv: WorkerBehavior) -> Vec<WorkerBehavior> {
    (0..n)
        .map(|i| {
            if i < adversaries {
                adv
            } else {
                WorkerBehavior::Honest
            }
        })
        .collect()
}

fn run(
    task: TaskConfig,
    scheme: Scheme,
    behaviors: Vec<WorkerBehavior>,
    epochs: usize,
    reps: usize,
) -> f32 {
    let mut total = 0.0;
    for rep in 0..reps {
        let mut cfg = PoolConfig::paper_like(task, scheme, epochs);
        cfg.steps_per_epoch = 25; // 5 segments: Adv2 trains 1, fakes 4
        cfg.train_samples = 160 * (behaviors.len() + 1);
        cfg.seed ^= (rep as u64) << 32;
        let mut pool = MiningPool::new(cfg, behaviors.clone());
        total += pool.run().final_accuracy();
    }
    total / reps as f32
}

fn main() {
    let epochs = arg_usize("epochs", 8);
    let workers = arg_usize("workers", 10);
    let reps = arg_usize("reps", 3);
    let include_task_b = arg_usize("taskb", 0) != 0;

    let mut tasks = vec![("Task A (mini-ResNet18/CIFAR-10-like)", TaskConfig::task_a())];
    if include_task_b {
        tasks.push((
            "Task B (mini-ResNet50/CIFAR-100-like)",
            TaskConfig::task_b(),
        ));
    }

    let adv2 = WorkerBehavior::adv2_default();
    for (label, task) in tasks {
        let mut rows = Vec::new();
        for tenths in [1usize, 3, 5, 7, 9] {
            let adversaries = (workers * tenths).div_ceil(10);
            let bl1 = run(
                task,
                Scheme::Baseline,
                behaviors(workers, adversaries, WorkerBehavior::ReplayPrevious),
                epochs,
                reps,
            );
            let bl2 = run(
                task,
                Scheme::Baseline,
                behaviors(workers, adversaries, adv2),
                epochs,
                reps,
            );
            // RPoL pools face the harder Adv2 mixture (paper uses both; the
            // verified result is the same — detected workers are dropped).
            let v1 = run(
                task,
                Scheme::RPoLv1,
                behaviors(workers, adversaries, adv2),
                epochs,
                reps,
            );
            let v2 = run(
                task,
                Scheme::RPoLv2,
                behaviors(workers, adversaries, adv2),
                epochs,
                reps,
            );
            rows.push(vec![
                pct(adversaries as f64 / workers as f64),
                pct(bl1 as f64),
                pct(bl2 as f64),
                pct(v1 as f64),
                pct(v2 as f64),
                (v1.min(v2) >= bl1.max(bl2)).to_string(),
            ]);
        }
        print_table(
            &format!("Fig. 6 — {label}, final accuracy after {epochs} epochs, {workers} workers"),
            &[
                "adversaries",
                "BL_Adv1",
                "BL_Adv2",
                "RPoLv1",
                "RPoLv2",
                "RPoL wins?",
            ],
            &rows,
        );
    }
    println!(
        "Expected shape: RPoLv1/RPoLv2 ≥ baselines everywhere, growing gap \
         with adversary fraction, v1 ≈ v2."
    );
}
