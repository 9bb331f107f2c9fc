//! Table I regenerator: AMLayer performance — one-epoch training time,
//! final accuracy, and accuracy under the address-replacing attack
//! (10 random thief addresses, mean ± std).
//!
//! Expected shape (paper): epoch time inflated by only a few percent,
//! accuracy within half a point, and the attack collapsing accuracy by
//! tens of points.
//!
//! Usage: `cargo run --release -p rpol-bench --bin table1_amlayer [--epochs=10]`

use rpol::adversary::replace_amlayer;
use rpol::tasks::TaskConfig;
use rpol_bench::harness::{evaluate_flat, task_data, train_single, RunSpec};
use rpol_bench::{arg_usize, pct, print_table};
use rpol_crypto::Address;
use rpol_tensor::stats;

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
        let overhead = encoded.mean_epoch_seconds() / plain.mean_epoch_seconds() - 1.0;
        let drop = encoded.final_accuracy() - stats::mean(&attack_accs);
        println!(
            "Task {label}: AMLayer epoch-time overhead {} (paper: 3.5% / 1.2%); \
             attack accuracy drop {:.1} points (paper: ~67.8 / ~72.7).",
            pct(overhead as f64),
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

/// An epoch time in milliseconds: a mini-model epoch takes tens of them,
/// which whole tenths of a second would print as `0.0s`.
fn millis(seconds: f64) -> String {
    format!("{:.1} ms", seconds * 1e3)
}
