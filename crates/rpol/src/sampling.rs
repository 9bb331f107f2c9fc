//! Sample-count analysis: Theorem 2 (soundness) of §VI.
//!
//! For an adversary with honesty ratio `h_A` (fraction of honestly trained
//! checkpoints) and an LSH false-positive ceiling `Pr_lsh(β)`, one sampled
//! checkpoint passes with probability at most
//! `p₁ = h_A + (1 − h_A)·Pr_lsh(β)`, so `q` independent samples bound the
//! evasion probability by `p₁^q`. Inverting gives the minimum sample count
//! for a target soundness error (Eq. 8).

/// Per-sample pass probability `h_A + (1 − h_A)·Pr_lsh(β)` for an
/// adversary.
///
/// # Panics
///
/// Panics unless both arguments are probabilities in `[0, 1]`.
pub fn per_sample_pass_probability(honesty_ratio: f64, pr_lsh_beta: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&honesty_ratio),
        "honesty ratio must be in [0, 1]"
    );
    assert!(
        (0.0..=1.0).contains(&pr_lsh_beta),
        "Pr_lsh(beta) must be in [0, 1]"
    );
    honesty_ratio + (1.0 - honesty_ratio) * pr_lsh_beta
}

/// Evasion probability (soundness error) for `q` sampled checkpoints:
/// `(h_A + (1 − h_A)·Pr_lsh(β))^q`.
///
/// # Panics
///
/// Panics if `q == 0` or the probabilities are invalid.
pub fn evasion_probability(q: u32, honesty_ratio: f64, pr_lsh_beta: f64) -> f64 {
    assert!(q > 0, "need at least one sample");
    per_sample_pass_probability(honesty_ratio, pr_lsh_beta).powi(q as i32)
}

/// Minimum `q` achieving soundness error at most `pr_err` (Eq. 8):
/// `q ≥ log(pr_err) / log(h_A + (1 − h_A)·Pr_lsh(β))`.
///
/// # Examples
///
/// ```
/// use rpol::sampling::samples_for_soundness;
///
/// // The paper's worked example: 1% soundness error, Pr_lsh(β) = 5%.
/// assert_eq!(samples_for_soundness(0.01, 0.10, 0.05), Some(3));
/// assert_eq!(samples_for_soundness(0.01, 0.90, 0.05), Some(47));
/// ```
///
/// Returns `None` when the adversary is fully honest (`p₁ = 1`), in which
/// case no finite sample count separates it from honesty — nor needs to.
///
/// # Panics
///
/// Panics unless `0 < pr_err < 1` and the probabilities are valid.
pub fn samples_for_soundness(pr_err: f64, honesty_ratio: f64, pr_lsh_beta: f64) -> Option<u32> {
    assert!(
        pr_err > 0.0 && pr_err < 1.0,
        "soundness error must be in (0, 1)"
    );
    let p1 = per_sample_pass_probability(honesty_ratio, pr_lsh_beta);
    if p1 >= 1.0 {
        return None;
    }
    let q = (pr_err.ln() / p1.ln()).ceil();
    Some(q.max(1.0) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_q3_and_q47() {
        // Pr_err = 1%, Pr_lsh(β) = 5%: h = 10% → 3 samples, h = 90% → 47.
        assert_eq!(samples_for_soundness(0.01, 0.10, 0.05), Some(3));
        assert_eq!(samples_for_soundness(0.01, 0.90, 0.05), Some(47));
    }

    #[test]
    fn paper_example_soundness_at_q3() {
        // §VI: at q = 3 with h = 90%, the soundness error is ≈ 74.12%.
        let p = evasion_probability(3, 0.90, 0.05);
        assert!((p - 0.7412).abs() < 0.001, "p = {p}");
    }

    #[test]
    fn more_samples_tighter_soundness() {
        let e3 = evasion_probability(3, 0.5, 0.05);
        let e10 = evasion_probability(10, 0.5, 0.05);
        assert!(e10 < e3);
    }

    #[test]
    fn fully_honest_needs_no_separation() {
        assert_eq!(samples_for_soundness(0.01, 1.0, 0.05), None);
    }

    #[test]
    fn fully_dishonest_cheapest_to_catch() {
        let q0 = samples_for_soundness(0.01, 0.0, 0.05).expect("finite");
        let q9 = samples_for_soundness(0.01, 0.9, 0.05).expect("finite");
        assert!(q0 < q9);
        assert_eq!(q0, 2); // 0.05^2 = 0.25% < 1%
    }

    #[test]
    fn table_is_monotone_in_honesty() {
        let qs: Vec<u32> = [0.1, 0.3, 0.5, 0.7, 0.9]
            .iter()
            .map(|&h| samples_for_soundness(0.01, h, 0.05).expect("finite"))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]));
        for (&q, h) in qs.iter().zip([0.1, 0.3, 0.5, 0.7, 0.9]) {
            assert!(evasion_probability(q, h, 0.05) <= 0.01 + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        evasion_probability(0, 0.5, 0.05);
    }
}
