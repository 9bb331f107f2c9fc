//! §VI regenerator: the Theorem 2 / Theorem 3 sample-count analysis.
//!
//! Reproduces the paper's worked numbers: with `Pr_err = 1%` and
//! `Pr_lsh(β) = 5%`, Theorem 2 needs 3 / 47 samples for `h_A = 10% / 90%`;
//! the economic view (Theorem 3, `C_train = 0.88`) needs only 2 / 3, and
//! at `q = 3` the soundness error is ≈ 74.12% yet cheating is
//! unprofitable.
//!
//! Usage: `cargo run --release -p rpol-bench --bin soundness_analysis`

use rpol::economics::EconomicModel;
use rpol::sampling::{evasion_probability, samples_for_soundness};
use rpol_bench::{pct, print_table};

fn main() {
    let ratios: Vec<f64> = (1..10).map(|i| i as f64 / 10.0).collect();

    // Theorem 2.
    let q2: Vec<u32> = ratios
        .iter()
        .map(|&h| samples_for_soundness(0.01, h, 0.05).expect("h < 1 always yields finite q"))
        .collect();
    let rows: Vec<Vec<String>> = ratios
        .iter()
        .zip(&q2)
        .map(|(&h, &q)| {
            vec![
                pct(h),
                q.to_string(),
                format!("{:.3}%", evasion_probability(q, h, 0.05) * 100.0),
            ]
        })
        .collect();
    print_table(
        "Theorem 2 — samples for soundness error ≤ 1% (Pr_lsh(β) = 5%)",
        &["honesty ratio h_A", "q (samples)", "achieved error"],
        &rows,
    );
    println!(
        "paper checks: h=10% → q={} (paper 3); h=90% → q={} (paper 47)",
        q2[0], q2[8]
    );

    // Theorem 3.
    let econ = EconomicModel::paper_example();
    let rows: Vec<Vec<String>> = ratios
        .iter()
        .map(|&h| {
            let q = econ.samples_to_deter(h);
            vec![
                pct(h),
                q.to_string(),
                format!("{:+.3}", econ.adversary_gain(h, q)),
                format!("{:+.3}", econ.adversary_gain(h, 3)),
                format!("{:+.3}", econ.honest_gain(3)),
            ]
        })
        .collect();
    print_table(
        "Theorem 3 — economic deterrence (C_train = 0.88, C_spoof = 0)",
        &[
            "honesty ratio h_A",
            "q to deter",
            "adversary gain at that q",
            "adversary gain at q = 3",
            "honest gain at q = 3",
        ],
        &rows,
    );
    println!(
        "paper checks: h=10% → q={} (paper 2); h=90% → q={} (paper 3); \
         soundness error at q=3, h=90%: {} (paper ≈ 74.12%)",
        econ.samples_to_deter(0.10),
        econ.samples_to_deter(0.90),
        pct(evasion_probability(3, 0.90, 0.05)),
    );
}
