//! Summary statistics and distribution tests.
//!
//! The paper's adaptive LSH calibration (§V-C) rests on the empirical claim
//! that per-checkpoint reproduction errors follow a normal distribution
//! (validated by a Kolmogorov–Smirnov test in §VII-C). This module provides
//! the statistics the manager needs: mean/standard deviation, the standard
//! normal CDF (also used in the p-stable LSH collision-probability model),
//! and a one-sample KS normality test.

/// The mean of a sample.
///
/// # Panics
///
/// Panics if the sample is empty.
pub fn mean(xs: &[f32]) -> f32 {
    assert!(!xs.is_empty(), "mean of empty sample");
    (xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64) as f32
}

/// The population standard deviation of a sample.
///
/// # Panics
///
/// Panics if the sample is empty.
pub fn std_dev(xs: &[f32]) -> f32 {
    let m = mean(xs) as f64;
    let var = xs.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / xs.len() as f64;
    var.sqrt() as f32
}

/// The maximum of a sample.
///
/// # Panics
///
/// Panics if the sample is empty.
pub fn max(xs: &[f32]) -> f32 {
    assert!(!xs.is_empty(), "max of empty sample");
    xs.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// The minimum of a sample.
///
/// # Panics
///
/// Panics if the sample is empty.
pub fn min(xs: &[f32]) -> f32 {
    assert!(!xs.is_empty(), "min of empty sample");
    xs.iter().copied().fold(f32::INFINITY, f32::min)
}

/// The Euclidean distance between two same-length slices: one sequential
/// `f64` fold of the squared differences, so a long weight vector's
/// distance stays stable.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt() as f32
}

/// The error function `erf(x)`, via the Abramowitz–Stegun 7.1.26
/// approximation (|error| ≤ 1.5e-7), sufficient for LSH probability
/// modelling and KS testing.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// The standard normal CDF `Φ(x)`.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// The standard normal PDF `φ(x)`.
pub fn norm_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Result of a one-sample Kolmogorov–Smirnov test against a normal
/// distribution fitted to the sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic: the supremum distance between the empirical CDF
    /// and the fitted normal CDF.
    pub statistic: f64,
    /// Approximate p-value via the asymptotic Kolmogorov distribution.
    pub p_value: f64,
}

impl KsResult {
    /// Whether the normality hypothesis survives at the given significance
    /// level (i.e. `p_value > alpha`).
    pub fn is_normal(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// One-sample KS test of `xs` against `N(mean, std)` fitted from the sample.
///
/// This mirrors the paper's use of the KS test to statistically confirm
/// that reproduction errors are normally distributed (§VII-C). The p-value
/// uses the asymptotic Kolmogorov series and is approximate for small
/// samples; the workspace uses it as a yes/no normality gate, not for
/// precise inference.
///
/// # Panics
///
/// Panics if the sample has fewer than 3 points or zero variance.
pub fn ks_normality_test(xs: &[f32]) -> KsResult {
    assert!(xs.len() >= 3, "KS test needs at least 3 samples");
    let m = mean(xs) as f64;
    let s = std_dev(xs) as f64;
    assert!(s > 0.0, "KS test on constant sample");
    let mut sorted: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in KS sample"));
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let cdf = norm_cdf((x - m) / s);
        let ecdf_hi = (i as f64 + 1.0) / n;
        let ecdf_lo = i as f64 / n;
        d = d.max((ecdf_hi - cdf).abs()).max((cdf - ecdf_lo).abs());
    }
    // Asymptotic Kolmogorov distribution: Q(λ) = 2 Σ (-1)^{j-1} e^{-2 j² λ²}.
    let lambda = (n.sqrt() + 0.12 + 0.11 / n.sqrt()) * d;
    let mut p = 0.0;
    for j in 1..=100 {
        let j = j as f64;
        let term = 2.0 * (-1.0f64).powi(j as i32 - 1) * (-2.0 * j * j * lambda * lambda).exp();
        p += term;
        if term.abs() < 1e-12 {
            break;
        }
    }
    KsResult {
        statistic: d,
        p_value: p.clamp(0.0, 1.0),
    }
}

/// A running accumulator for mean/std/max without storing the sample,
/// used by the manager when aggregating per-checkpoint reproduction errors.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    max: f64,
    min: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            max: f64::NEG_INFINITY,
            min: f64::INFINITY,
        }
    }

    /// Adds one observation (Welford update).
    pub fn push(&mut self, x: f32) {
        let x = x as f64;
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.max = self.max.max(x);
        self.min = self.min.min(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations so far.
    ///
    /// # Panics
    ///
    /// Panics if no observations were added.
    pub fn mean(&self) -> f32 {
        assert!(self.n > 0, "mean of empty accumulator");
        self.mean as f32
    }

    /// Population standard deviation so far.
    ///
    /// # Panics
    ///
    /// Panics if no observations were added.
    pub fn std_dev(&self) -> f32 {
        assert!(self.n > 0, "std of empty accumulator");
        (self.m2 / self.n as f64).sqrt() as f32
    }

    /// Maximum so far.
    ///
    /// # Panics
    ///
    /// Panics if no observations were added.
    pub fn max(&self) -> f32 {
        assert!(self.n > 0, "max of empty accumulator");
        self.max as f32
    }

    /// Minimum so far.
    ///
    /// # Panics
    ///
    /// Panics if no observations were added.
    pub fn min(&self) -> f32 {
        assert!(self.n > 0, "min of empty accumulator");
        self.min as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-6);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn erf_reference_values() {
        assert!(erf(0.0).abs() < 1e-9);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
    }

    #[test]
    fn norm_cdf_reference_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((norm_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((norm_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn ks_accepts_normal_sample() {
        let mut rng = Pcg32::seed_from(42);
        let xs: Vec<f32> = (0..500).map(|_| 3.0 + 0.5 * rng.next_normal()).collect();
        let ks = ks_normality_test(&xs);
        assert!(ks.is_normal(0.05), "normal sample rejected: {ks:?}");
    }

    #[test]
    fn ks_rejects_uniform_sample() {
        let mut rng = Pcg32::seed_from(42);
        let xs: Vec<f32> = (0..2000).map(|_| rng.uniform(0.0, 1.0)).collect();
        let ks = ks_normality_test(&xs);
        assert!(!ks.is_normal(0.05), "uniform sample accepted: {ks:?}");
    }

    #[test]
    fn ks_rejects_bimodal_sample() {
        let mut rng = Pcg32::seed_from(7);
        let xs: Vec<f32> = (0..1000)
            .map(|i| {
                if i % 2 == 0 {
                    -4.0 + 0.3 * rng.next_normal()
                } else {
                    4.0 + 0.3 * rng.next_normal()
                }
            })
            .collect();
        assert!(!ks_normality_test(&xs).is_normal(0.05));
    }

    #[test]
    fn running_stats_matches_batch() {
        let mut rng = Pcg32::seed_from(3);
        let xs: Vec<f32> = (0..1000).map(|_| 1.0 + 2.0 * rng.next_normal()).collect();
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert!((rs.mean() - mean(&xs)).abs() < 1e-4);
        assert!((rs.std_dev() - std_dev(&xs)).abs() < 1e-4);
        assert_eq!(rs.max(), max(&xs));
        assert_eq!(rs.min(), min(&xs));
        assert_eq!(rs.count(), 1000);
    }
}
