//! Table I regenerator: AMLayer performance — one-epoch training time,
//! final accuracy, and accuracy under the address-replacing attack
//! (10 random thief addresses, mean ± std).
//!
//! Expected shape (paper): epoch time inflated by only a few percent,
//! accuracy within half a point, and the attack collapsing accuracy by
//! tens of points.
//!
//! A mini-model epoch takes 5–20 ms, so one run's epoch time is mostly
//! the host's noise: the overhead line is the median over alternating
//! origin/AMLayer runs (each run's median epoch), with its range. The
//! table shows the first pair's mean epochs.
//!
//! Usage: `cargo run --release -p rpol-bench --bin table1_amlayer [--epochs=10]`

use rpol::adversary::replace_amlayer;
use rpol::tasks::TaskConfig;
use rpol_bench::harness::{evaluate_flat, task_data, train_single, RunSpec, SingleRun};
use rpol_bench::{arg_usize, pct, print_table};
use rpol_crypto::Address;
use rpol_tensor::stats;

/// Alternating origin/AMLayer runs per task behind the overhead line.
const PAIRS: usize = 9;

fn main() {
    let spec = RunSpec {
        epochs: arg_usize("epochs", 16),
        steps_per_epoch: arg_usize("steps", 25),
        train_samples: arg_usize("train", 800),
        test_samples: arg_usize("test", 400),
        seed: 0x7AB_1E1,
    };
    let owner = Address::from_seed(0xA1);

    let mut rows = Vec::new();
    for (label, cfg) in [("A", TaskConfig::task_a()), ("B", TaskConfig::task_b())] {
        let plain = train_single(&cfg, None, &spec);
        let encoded = train_single(&cfg, Some(&owner), &spec);
        let mut overheads = vec![median_epoch(&encoded) / median_epoch(&plain) - 1.0];
        for _ in 1..PAIRS {
            let plain = median_epoch(&train_single(&cfg, None, &spec));
            let encoded = median_epoch(&train_single(&cfg, Some(&owner), &spec));
            overheads.push(encoded / plain - 1.0);
        }
        overheads.sort_by(f64::total_cmp);

        // Address-replacing attack: swap the trained model's AMLayer for
        // layers encoding 10 random addresses and score each forgery.
        let (_, test_x, test_y) = task_data(&cfg, &spec);
        let attack_accs: Vec<f32> = (0..10)
            .map(|i| {
                let thief = Address::from_seed(0xBAD0 + i);
                let forged = replace_amlayer(&cfg, &encoded.final_weights, &thief);
                evaluate_flat(&cfg, &forged, &test_x, &test_y)
            })
            .collect();

        rows.push(vec![
            format!("{label} ({})", cfg.arch.name()),
            "Origin".into(),
            millis(plain.mean_epoch_seconds()),
            pct(plain.final_accuracy() as f64),
            "—".into(),
        ]);
        rows.push(vec![
            String::new(),
            "AMLayer".into(),
            millis(encoded.mean_epoch_seconds()),
            pct(encoded.final_accuracy() as f64),
            format!(
                "{} ± {}",
                pct(stats::mean(&attack_accs) as f64),
                pct(stats::std_dev(&attack_accs) as f64)
            ),
        ]);
        let drop = encoded.final_accuracy() - stats::mean(&attack_accs);
        println!(
            "Task {label}: AMLayer epoch-time overhead {} (median of {PAIRS} alternating runs, \
             {} to {}; paper: 3.5% / 1.2%); attack accuracy drop {:.1} points \
             (paper: ~67.8 / ~72.7).",
            pct(overheads[PAIRS / 2]),
            pct(overheads[0]),
            pct(overheads[PAIRS - 1]),
            drop * 100.0,
        );
    }
    print_table(
        "Table I — AMLayer performance, tasks A (mini-ResNet18/CIFAR-10-like) \
         and B (mini-ResNet50/CIFAR-100-like)",
        &[
            "task",
            "variant",
            "one-epoch time",
            "accuracy",
            "accuracy (w/ address-replacing attack)",
        ],
        &rows,
    );
}

/// A run's median epoch, in seconds: one epoch the host slowed down moves
/// it less than the mean.
fn median_epoch(run: &SingleRun) -> f64 {
    let mut epochs = run.epoch_seconds.clone();
    epochs.sort_by(f64::total_cmp);
    epochs[epochs.len() / 2]
}

/// An epoch time in milliseconds: a mini-model epoch takes tens of them,
/// which whole tenths of a second would print as `0.0s`.
fn millis(seconds: f64) -> String {
    format!("{:.1} ms", seconds * 1e3)
}
