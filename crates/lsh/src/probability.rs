//! Closed-form collision model for the 2-stable hash family.
//!
//! For `h(x) = ⌊(a·x + b)/r⌋` with `a ~ N(0, I)` and `b ~ U[0, r]`, two
//! points at Euclidean distance `c` collide with probability
//!
//! ```text
//! p(c, r) = 1 − 2Φ(−r/c) − (2c / (√(2π)·r)) · (1 − e^{−r²/(2c²)})
//! ```
//!
//! (Datar–Immorlica–Indyk–Mirrokni 2004), which depends only on the ratio
//! `t = r/c`. With `l` groups of `k` functions, two points match when all
//! `k` hashes agree in at least one group:
//!
//! ```text
//! Pr_lsh(c, r, k, l) = 1 − (1 − p(c,r)^k)^l
//! ```
//!
//! These formulas reproduce the paper's Fig. 1 and drive both the parameter
//! tuner (Eq. 6) and the theoretical FNR/FPR bounds (Eq. 5).

use rpol_tensor::stats::norm_cdf;

/// Per-hash collision probability `p(c, r)` for two points at Euclidean
/// distance `c` with bucket width `r`.
///
/// Edge cases: `c == 0` collides with probability 1; `r == 0` never
/// collides (degenerate bucket).
///
/// # Panics
///
/// Panics if `c` or `r` is negative or non-finite.
fn collision_probability(c: f64, r: f64) -> f64 {
    assert!(c.is_finite() && c >= 0.0, "invalid distance {c}");
    assert!(r.is_finite() && r >= 0.0, "invalid bucket width {r}");
    if c == 0.0 {
        return 1.0;
    }
    if r == 0.0 {
        return 0.0;
    }
    let t = r / c;
    let p = 1.0
        - 2.0 * norm_cdf(-t)
        - (2.0 / ((2.0 * std::f64::consts::PI).sqrt() * t)) * (1.0 - (-t * t / 2.0).exp());
    p.clamp(0.0, 1.0)
}

/// Family matching probability `Pr_lsh(c, r, k, l) = 1 − (1 − p^k)^l`.
///
/// # Panics
///
/// Panics if `k == 0` or `l == 0`, or on invalid `c`/`r` (see
/// [`collision_probability`]).
pub fn matching_probability(c: f64, r: f64, k: usize, l: usize) -> f64 {
    assert!(k > 0 && l > 0, "k and l must be positive");
    let p = collision_probability(c, r);
    1.0 - (1.0 - p.powi(k as i32)).powi(l as i32)
}

/// A sampled point of the `Pr_lsh` curve, used by the Fig. 1 regenerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Euclidean distance between the two points.
    pub distance: f64,
    /// Matching probability at that distance.
    pub probability: f64,
}

/// Samples the `Pr_lsh` curve on `[0, max_distance]` at `steps` points
/// (inclusive of both endpoints), reproducing the curves of Fig. 1.
///
/// # Panics
///
/// Panics if `steps < 2` or `max_distance <= 0`.
pub fn matching_curve(
    r: f64,
    k: usize,
    l: usize,
    max_distance: f64,
    steps: usize,
) -> Vec<CurvePoint> {
    assert!(steps >= 2, "need at least 2 curve points");
    assert!(max_distance > 0.0, "max distance must be positive");
    (0..steps)
        .map(|i| {
            let distance = max_distance * i as f64 / (steps - 1) as f64;
            CurvePoint {
                distance,
                probability: matching_probability(distance, r, k, l),
            }
        })
        .collect()
}

/// The Eq. 5 expected false-negative rate:
/// `FNR_lsh = ∫₀^β p_repr(c) · (1 − Pr_lsh(c)) dc`,
/// evaluated by Simpson integration of a caller-supplied reproduction-error
/// density `p_repr` (the paper finds it normal; pass any density).
///
/// The density need not be normalized over `[0, β)`; the result is the
/// conditional rate — the integral divided by `∫₀^β p_repr`.
///
/// # Panics
///
/// Panics if `beta <= 0`, `steps < 2`, or the density integrates to ~0 on
/// the interval.
pub fn expected_fnr(
    p_repr: impl Fn(f64) -> f64,
    beta: f64,
    r: f64,
    k: usize,
    l: usize,
    steps: usize,
) -> f64 {
    assert!(beta > 0.0, "beta must be positive");
    integrate_rate(p_repr, 0.0, beta, steps, |c| {
        1.0 - matching_probability(c, r, k, l)
    })
}

/// Simpson integration of `density(c)·rate(c)` over `[lo, hi]`, normalized
/// by the density mass on the same interval.
fn integrate_rate(
    density: impl Fn(f64) -> f64,
    lo: f64,
    hi: f64,
    steps: usize,
    rate: impl Fn(f64) -> f64,
) -> f64 {
    assert!(steps >= 2, "need at least two integration steps");
    let n = steps + steps % 2; // Simpson needs an even interval count
    let h = (hi - lo) / n as f64;
    let mut weighted = 0.0;
    let mut mass = 0.0;
    for i in 0..=n {
        let c = lo + h * i as f64;
        let w = if i == 0 || i == n {
            1.0
        } else if i % 2 == 1 {
            4.0
        } else {
            2.0
        };
        let d = density(c).max(0.0);
        weighted += w * d * rate(c);
        mass += w * d;
    }
    assert!(mass > 1e-300, "density has no mass on the interval");
    weighted / mass
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_tensor::stats::norm_pdf;

    #[test]
    fn collision_limits() {
        assert_eq!(collision_probability(0.0, 4.0), 1.0);
        assert_eq!(collision_probability(1.0, 0.0), 0.0);
        // Very close points: near-certain collision.
        assert!(collision_probability(1e-9, 1.0) > 0.999);
        // Very distant points: near-zero collision.
        assert!(collision_probability(1e9, 1.0) < 1e-6);
    }

    #[test]
    fn collision_depends_only_on_ratio() {
        let a = collision_probability(1.0, 4.0);
        let b = collision_probability(10.0, 40.0);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn collision_monotone_in_distance() {
        let mut prev = 1.0;
        for i in 1..100 {
            let p = collision_probability(i as f64 * 0.1, 4.0);
            assert!(p <= prev + 1e-12, "non-monotone at {i}");
            prev = p;
        }
    }

    #[test]
    fn collision_known_value_t1() {
        // t = r/c = 1: p = 1 - 2Φ(-1) - 2/√(2π)·(1 - e^{-1/2}) ≈ 0.3685.
        let p = collision_probability(1.0, 1.0);
        assert!((p - 0.3685).abs() < 1e-3, "p = {p}");
    }

    #[test]
    fn matching_monotone_in_l_and_antitone_in_k() {
        let c = 2.0;
        let r = 4.0;
        assert!(matching_probability(c, r, 4, 8) > matching_probability(c, r, 4, 4));
        assert!(matching_probability(c, r, 8, 4) < matching_probability(c, r, 4, 4));
    }

    #[test]
    fn matching_amplification_separates() {
        // Amplification should push close pairs toward 1 and far pairs
        // toward 0 relative to the single-hash probability.
        let r = 5.0;
        let close = 0.5;
        let far = 20.0;
        let p_close = collision_probability(close, r);
        let p_far = collision_probability(far, r);
        let m_close = matching_probability(close, r, 4, 8);
        let m_far = matching_probability(far, r, 4, 8);
        assert!(m_close > p_close);
        assert!(m_far < p_far);
    }

    #[test]
    fn curve_endpoints() {
        let curve = matching_curve(4.0, 4, 4, 10.0, 21);
        assert_eq!(curve.len(), 21);
        assert_eq!(curve[0].distance, 0.0);
        assert_eq!(curve[0].probability, 1.0);
        assert_eq!(curve[20].distance, 10.0);
        assert!(curve
            .windows(2)
            .all(|w| w[1].probability <= w[0].probability + 1e-12));
    }

    #[test]
    #[should_panic(expected = "k and l")]
    fn zero_k_rejected() {
        matching_probability(1.0, 1.0, 0, 4);
    }

    #[test]
    fn eq5_point_mass_reduces_to_worst_case() {
        // A density concentrated at α makes Eq. 5 collapse to the paper's
        // worst-case proxy 1 − Pr_lsh(α).
        let alpha = 1.0;
        let narrow = |c: f64| norm_pdf((c - alpha) / 0.001);
        let fnr = expected_fnr(narrow, 5.0 * alpha, 4.0, 4, 4, 2000);
        let worst = 1.0 - matching_probability(alpha, 4.0, 4, 4);
        assert!((fnr - worst).abs() < 1e-3, "{fnr} vs {worst}");
    }

    #[test]
    fn eq5_fnr_below_worst_case_for_spread_density() {
        // Reproduction errors spread below α only match *more* often, so
        // the expected FNR is at most the worst-case bound.
        let alpha = 1.0;
        let spread = |c: f64| norm_pdf((c - 0.6 * alpha) / (0.15 * alpha));
        let fnr = expected_fnr(spread, alpha, 4.0, 4, 4, 2000);
        let worst = 1.0 - matching_probability(alpha, 4.0, 4, 4);
        assert!(fnr <= worst + 1e-9, "{fnr} > {worst}");
    }
}
