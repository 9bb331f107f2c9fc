//! The 2-stable (Gaussian) LSH family `h(x) = ⌊(a·x + b)/r⌋`.

use crate::matching::Signature;
use rpol_crypto::Prf;
use rpol_tensor::gemm::matmul_nt_f64acc;
use rpol_tensor::rng::Pcg32;
use serde::{Deserialize, Serialize};

/// LSH family parameters `{r, k, l}` (§II-C).
///
/// `r` is the quantization bucket width, `k` the number of concatenated
/// hash functions per group (AND-amplification), `l` the number of groups
/// (OR-amplification). The paper's compute budget constrains `k·l ≤ K_lsh`.
///
/// # Examples
///
/// ```
/// use rpol_lsh::LshParams;
///
/// let p = LshParams::new(4.0, 4, 4);
/// assert_eq!(p.total_hashes(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LshParams {
    /// Bucket width `r` (same unit as the Euclidean distances being hashed).
    pub r: f32,
    /// Hashes per group (AND amplification).
    pub k: usize,
    /// Number of groups (OR amplification).
    pub l: usize,
}

impl LshParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics unless `r > 0`, `k > 0` and `l > 0`.
    pub fn new(r: f32, k: usize, l: usize) -> Self {
        assert!(
            r.is_finite() && r > 0.0,
            "bucket width must be positive, got {r}"
        );
        assert!(k > 0 && l > 0, "k and l must be positive");
        Self { r, k, l }
    }

    /// Total number of hash evaluations per input (`k·l`), the quantity
    /// bounded by `K_lsh` in Eq. 6.
    pub fn total_hashes(&self) -> usize {
        self.k * self.l
    }
}

/// A concrete, seeded 2-stable hash family over vectors of a fixed
/// dimension.
///
/// The projection vectors `a` (standard normal) and offsets `b`
/// (uniform in `[0, r)`) are expanded deterministically from a seed via the
/// workspace PRF, so the pool manager and all workers derive the *same*
/// family from the epoch's calibration broadcast — a correctness
/// requirement for commitment verification.
///
/// # Examples
///
/// ```
/// use rpol_lsh::{LshFamily, LshParams};
///
/// let f1 = LshFamily::generate(16, LshParams::new(2.0, 4, 4), 7);
/// let f2 = LshFamily::generate(16, LshParams::new(2.0, 4, 4), 7);
/// let x = vec![0.5; 16];
/// assert_eq!(f1.hash(&x), f2.hash(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LshFamily {
    params: LshParams,
    dim: usize,
    /// Row-major `(k·l) × dim` projection matrix.
    projections: Vec<f32>,
    /// `k·l` offsets in `[0, r)`.
    offsets: Vec<f32>,
}

impl LshFamily {
    /// Deterministically generates a family for `dim`-dimensional inputs.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn generate(dim: usize, params: LshParams, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let prf = Prf::new(&seed.to_be_bytes());
        let total = params.total_hashes();
        let mut rng = Pcg32::seed_from(prf.derive_seed(0));
        let mut projections = vec![0.0; total * dim];
        rng.fill_normal(&mut projections);
        let mut rng_b = Pcg32::seed_from(prf.derive_seed(1));
        let offsets = (0..total).map(|_| rng_b.uniform(0.0, params.r)).collect();
        Self {
            params,
            dim,
            projections,
            offsets,
        }
    }

    /// The family parameters.
    pub fn params(&self) -> LshParams {
        self.params
    }

    /// The input dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Hashes a vector into an `l`-group signature.
    ///
    /// All `k·l` projections are computed as a single GEMM-lowered pass
    /// (`rpol_tensor::gemm::matmul_nt_f64acc`) rather than `k·l` separate
    /// dot products; the result is bitwise identical to [`hash_scalar`],
    /// which is kept as the reference oracle and enforced equal by property
    /// tests.
    ///
    /// [`hash_scalar`]: LshFamily::hash_scalar
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn hash(&self, x: &[f32]) -> Signature {
        assert_eq!(x.len(), self.dim, "input dimension mismatch");
        let dots = matmul_nt_f64acc(
            1,
            self.params.total_hashes(),
            self.dim,
            x,
            &self.projections,
            1,
        );
        self.quantize_row(&dots)
    }

    /// The original scalar hash: one explicit dot product per hash
    /// function, each an f64 accumulator chain in ascending index order.
    /// Retained as the reference oracle the GEMM-lowered [`hash`] and
    /// [`hash_batch`] paths are tested bitwise-equal against.
    ///
    /// [`hash`]: LshFamily::hash
    /// [`hash_batch`]: LshFamily::hash_batch
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn hash_scalar(&self, x: &[f32]) -> Signature {
        assert_eq!(x.len(), self.dim, "input dimension mismatch");
        let LshParams { r, k, l } = self.params;
        let mut groups = Vec::with_capacity(l);
        for g in 0..l {
            let mut values = Vec::with_capacity(k);
            for j in 0..k {
                let h = g * k + j;
                let row = &self.projections[h * self.dim..(h + 1) * self.dim];
                // f64 accumulation: projections of long weight vectors are
                // the protocol-critical quantity, keep them stable.
                let dot: f64 = row
                    .iter()
                    .zip(x)
                    .map(|(&a, &xi)| a as f64 * xi as f64)
                    .sum();
                values.push(((dot + self.offsets[h] as f64) / r as f64).floor() as i64);
            }
            groups.push(values);
        }
        Signature::new(groups)
    }

    /// Hashes many vectors at once: the inputs are stacked into one
    /// `m × dim` matrix and every projection of every input is computed in
    /// a single GEMM call, so a verifier digesting a whole checkpoint list
    /// amortizes the projection-matrix traffic across checkpoints. Uses the
    /// workspace default GEMM thread count; signatures are bitwise
    /// identical for any thread count (see [`hash_batch_threads`]).
    ///
    /// [`hash_batch_threads`]: LshFamily::hash_batch_threads
    ///
    /// # Panics
    ///
    /// Panics if any input's length differs from `self.dim()`.
    pub fn hash_batch(&self, xs: &[&[f32]]) -> Vec<Signature> {
        self.hash_batch_threads(xs, rpol_tensor::gemm::default_threads())
    }

    /// [`hash_batch`] with an explicit worker-thread count. The GEMM shards
    /// disjoint input rows across threads and each signature depends only
    /// on its own row, so the output is bitwise identical for every
    /// `threads` value — a property the test suite enforces.
    ///
    /// [`hash_batch`]: LshFamily::hash_batch
    ///
    /// # Panics
    ///
    /// Panics if any input's length differs from `self.dim()`.
    pub fn hash_batch_threads(&self, xs: &[&[f32]], threads: usize) -> Vec<Signature> {
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(x.len(), self.dim, "input {i} dimension mismatch");
        }
        let total = self.params.total_hashes();
        let mut stacked = Vec::with_capacity(xs.len() * self.dim);
        for x in xs {
            stacked.extend_from_slice(x);
        }
        let dots = matmul_nt_f64acc(
            xs.len(),
            total,
            self.dim,
            &stacked,
            &self.projections,
            threads,
        );
        dots.chunks_exact(total)
            .map(|row| self.quantize_row(row))
            .collect()
    }

    /// Quantizes one input's `k·l` raw projections into a signature using
    /// the exact scalar formula `⌊(dot + b) / r⌋`.
    fn quantize_row(&self, dots: &[f64]) -> Signature {
        let LshParams { r, k, l } = self.params;
        let mut groups = Vec::with_capacity(l);
        for g in 0..l {
            let mut values = Vec::with_capacity(k);
            for j in 0..k {
                let h = g * k + j;
                values.push(((dots[h] + self.offsets[h] as f64) / r as f64).floor() as i64);
            }
            groups.push(values);
        }
        Signature::new(groups)
    }

    /// Approximate size in bytes of the family description if shipped raw;
    /// in practice only `(params, seed)` cross the wire (a few bytes), since
    /// workers regenerate the family locally.
    pub fn storage_size(&self) -> usize {
        (self.projections.len() + self.offsets.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probability::matching_probability;

    fn random_unit_pair(dim: usize, distance: f32, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = Pcg32::seed_from(seed);
        let x: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
        // Perturb along a random direction scaled to `distance`.
        let dir: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
        let norm: f32 = dir.iter().map(|d| d * d).sum::<f32>().sqrt();
        let y: Vec<f32> = x
            .iter()
            .zip(&dir)
            .map(|(&xi, &di)| xi + di / norm * distance)
            .collect();
        (x, y)
    }

    #[test]
    fn deterministic_generation() {
        let p = LshParams::new(4.0, 3, 5);
        let a = LshFamily::generate(10, p, 99);
        let b = LshFamily::generate(10, p, 99);
        assert_eq!(a, b);
        let c = LshFamily::generate(10, p, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn projections_are_the_elementwise_normal_stream() {
        let params = LshParams::new(2.0, 3, 5);
        for (dim, seed) in [(1, 0u64), (7, 3), (97, 9), (1031, 0xFEED)] {
            let family = LshFamily::generate(dim, params, seed);
            let prf = Prf::new(&seed.to_be_bytes());
            let mut rng = Pcg32::seed_from(prf.derive_seed(0));
            let want: Vec<u32> = (0..params.total_hashes() * dim)
                .map(|_| rng.next_normal().to_bits())
                .collect();
            let got: Vec<u32> = family.projections.iter().map(|p| p.to_bits()).collect();
            assert_eq!(got, want, "dim {dim} seed {seed}");
        }
    }

    #[test]
    fn identical_inputs_always_match() {
        let f = LshFamily::generate(32, LshParams::new(1.0, 4, 4), 1);
        let x = vec![0.25; 32];
        assert!(f.hash(&x).matches(&f.hash(&x)));
    }

    #[test]
    fn empirical_matches_theory_close() {
        // Points at distance c where Pr_lsh is high should almost always
        // match; empirical rate within a few points of theory.
        let params = LshParams::new(4.0, 2, 4);
        let f = LshFamily::generate(64, params, 5);
        let c = 1.0f32;
        let theory = matching_probability(c as f64, 4.0, 2, 4);
        let trials = 400;
        let hits = (0..trials)
            .filter(|&t| {
                let (x, y) = random_unit_pair(64, c, 1000 + t);
                f.hash(&x).matches(&f.hash(&y))
            })
            .count();
        let empirical = hits as f64 / trials as f64;
        assert!(
            (empirical - theory).abs() < 0.08,
            "empirical {empirical:.3} vs theory {theory:.3}"
        );
    }

    #[test]
    fn empirical_matches_theory_far() {
        let params = LshParams::new(4.0, 4, 4);
        let f = LshFamily::generate(64, params, 6);
        let c = 20.0f32;
        let theory = matching_probability(c as f64, 4.0, 4, 4);
        let trials = 400;
        let hits = (0..trials)
            .filter(|&t| {
                let (x, y) = random_unit_pair(64, c, 5000 + t);
                f.hash(&x).matches(&f.hash(&y))
            })
            .count();
        let empirical = hits as f64 / trials as f64;
        assert!(
            (empirical - theory).abs() < 0.08,
            "empirical {empirical:.3} vs theory {theory:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_checked() {
        let f = LshFamily::generate(8, LshParams::new(1.0, 2, 2), 0);
        f.hash(&[1.0; 9]);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_r_rejected() {
        LshParams::new(0.0, 2, 2);
    }
}
