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
/// requirement for commitment verification. Row `h` of the projection
/// matrix is normals `h·dim .. (h+1)·dim` of one Gaussian stream.
///
/// A family is its key `(dim, params, seed)`; the `(k·l) × dim` matrix is
/// one way to hold it. [`generate`](LshFamily::generate) materializes the
/// matrix once, for a party that hashes many times (the verifier).
/// [`streaming`](LshFamily::streaming) holds only the offsets and derives
/// each row inside every hash, for a party that hashes once (a worker's
/// commitment). Both hash every input to the same signature, bit for bit.
///
/// # Examples
///
/// ```
/// use rpol_lsh::{LshFamily, LshParams};
///
/// let f1 = LshFamily::generate(16, LshParams::new(2.0, 4, 4), 7);
/// let f2 = LshFamily::streaming(16, LshParams::new(2.0, 4, 4), 7);
/// let x = vec![0.5; 16];
/// assert_eq!(f1.hash(&x), f2.hash(&x));
/// assert_eq!(f1, f2);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LshFamily {
    params: LshParams,
    dim: usize,
    seed: u64,
    /// Row-major `(k·l) × dim` projection matrix; empty in a streaming
    /// family.
    projections: Vec<f32>,
    /// `k·l` offsets in `[0, r)`.
    offsets: Vec<f32>,
}

/// Two families are equal when they have the same key: the matrix is a
/// function of it, held or not.
impl PartialEq for LshFamily {
    fn eq(&self, other: &Self) -> bool {
        (self.params, self.dim, self.seed) == (other.params, other.dim, other.seed)
    }
}

/// Projection values a streaming hash derives at a time: 16 KiB, so the
/// block stays in L1 while every input's chain walks it.
const STREAM_BLOCK: usize = 4096;

impl LshFamily {
    /// Deterministically generates a family for `dim`-dimensional inputs,
    /// with its projection matrix materialized (`k·l·dim` floats).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn generate(dim: usize, params: LshParams, seed: u64) -> Self {
        let mut family = Self::streaming(dim, params, seed);
        family.projections = vec![0.0; params.total_hashes() * dim];
        family
            .projection_stream()
            .fill_normal(&mut family.projections);
        family
    }

    /// The family [`generate`](LshFamily::generate) builds, without its
    /// projection matrix: every hash derives the rows again, one block at a
    /// time, so the family holds `k·l` floats instead of `k·l·dim` and each
    /// call pays the generation once.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn streaming(dim: usize, params: LshParams, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let prf = Prf::new(&seed.to_be_bytes());
        let mut rng_b = Pcg32::seed_from(prf.derive_seed(1));
        let offsets = (0..params.total_hashes())
            .map(|_| rng_b.uniform(0.0, params.r))
            .collect();
        Self {
            params,
            dim,
            seed,
            projections: Vec::new(),
            offsets,
        }
    }

    /// The Gaussian stream the projection rows are read from, at row 0.
    fn projection_stream(&self) -> Pcg32 {
        Pcg32::seed_from(Prf::new(&self.seed.to_be_bytes()).derive_seed(0))
    }

    /// The family parameters.
    pub fn params(&self) -> LshParams {
        self.params
    }

    /// The input dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the projection matrix is held (`generate`) rather than
    /// derived inside every hash (`streaming`).
    fn is_materialized(&self) -> bool {
        !self.projections.is_empty()
    }

    /// Hashes a vector into an `l`-group signature: [`hash_batch`] over one
    /// input, bitwise identical to [`hash_scalar`], which is kept as the
    /// reference oracle and enforced equal by property tests.
    ///
    /// [`hash_batch`]: LshFamily::hash_batch
    /// [`hash_scalar`]: LshFamily::hash_scalar
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn hash(&self, x: &[f32]) -> Signature {
        let mut signatures = self.hash_batch_threads(&[x], 1);
        signatures.pop().expect("one input, one signature")
    }

    /// The original scalar hash: one explicit dot product per hash
    /// function, each an f64 accumulator chain in ascending index order.
    /// Retained as the reference oracle the GEMM-lowered and streamed
    /// [`hash_batch`] paths are tested bitwise-equal against. A streaming
    /// family draws each row whole from the Gaussian stream.
    ///
    /// [`hash_batch`]: LshFamily::hash_batch
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn hash_scalar(&self, x: &[f32]) -> Signature {
        assert_eq!(x.len(), self.dim, "input dimension mismatch");
        let LshParams { r, k, l } = self.params;
        let mut stream = self.projection_stream();
        let mut derived = vec![0.0; if self.is_materialized() { 0 } else { self.dim }];
        let mut groups = Vec::with_capacity(l);
        for g in 0..l {
            let mut values = Vec::with_capacity(k);
            for j in 0..k {
                let h = g * k + j;
                let row = if self.is_materialized() {
                    &self.projections[h * self.dim..(h + 1) * self.dim]
                } else {
                    stream.fill_normal(&mut derived);
                    &derived
                };
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

    /// Hashes many vectors at once. A materialized family stacks the
    /// inputs into one `m × dim` matrix and computes every projection of
    /// every input in a single GEMM call, so a verifier digesting a whole
    /// checkpoint list amortizes the projection-matrix traffic across
    /// checkpoints; a streaming family derives each row once and walks
    /// every input's chain over it. Uses the workspace default GEMM thread
    /// count; signatures are bitwise identical for any thread count (see
    /// [`hash_batch_threads`]).
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
    /// `threads` value — a property the test suite enforces. A streaming
    /// family reads its rows from one sequential stream and runs on the
    /// calling thread whatever `threads` says.
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
        if xs.is_empty() {
            return Vec::new();
        }
        let total = self.params.total_hashes();
        let dots = if self.is_materialized() {
            let stacked;
            let a: &[f32] = match xs {
                [x] => x,
                _ => {
                    stacked = xs.concat();
                    &stacked
                }
            };
            matmul_nt_f64acc(xs.len(), total, self.dim, a, &self.projections, threads)
        } else {
            self.streamed_dots(xs)
        };
        dots.chunks_exact(total)
            .map(|row| self.quantize_row(row))
            .collect()
    }

    /// `matmul_nt_f64acc(m, k·l, dim, xs, projections)` without the
    /// projections: row `h` is drawn block by block from the stream, and
    /// each input's dot with it is one f64 chain `acc += a·x` in ascending
    /// index order, the kernel's chain exactly. Up to four inputs share a
    /// pass over each block, so their chains overlap.
    fn streamed_dots(&self, xs: &[&[f32]]) -> Vec<f64> {
        let total = self.params.total_hashes();
        let mut dots = vec![0.0f64; xs.len() * total];
        let mut stream = self.projection_stream();
        let mut block = vec![0.0f32; self.dim.min(STREAM_BLOCK)];
        let mut acc = vec![0.0f64; xs.len()];
        for h in 0..total {
            acc.fill(0.0);
            for start in (0..self.dim).step_by(STREAM_BLOCK) {
                let a = &mut block[..(self.dim - start).min(STREAM_BLOCK)];
                stream.fill_normal(a);
                for (acc, xs) in acc.chunks_mut(4).zip(xs.chunks(4)) {
                    match xs.len() {
                        1 => fold_block::<1>(acc, xs, start, a),
                        2 => fold_block::<2>(acc, xs, start, a),
                        3 => fold_block::<3>(acc, xs, start, a),
                        _ => fold_block::<4>(acc, xs, start, a),
                    }
                }
            }
            for (i, &dot) in acc.iter().enumerate() {
                dots[i * total + h] = dot;
            }
        }
        dots
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

    /// Bytes the family holds: the projection matrix if materialized, and
    /// the offsets. Only `(params, seed)` ever cross the wire.
    pub fn resident_bytes(&self) -> usize {
        (self.projections.len() + self.offsets.len()) * 4
    }
}

/// Advances `R` inputs' chains over one block `a` of a projection row that
/// starts at column `start`.
fn fold_block<const R: usize>(acc: &mut [f64], xs: &[&[f32]], start: usize, a: &[f32]) {
    let x: [&[f32]; R] = std::array::from_fn(|r| &xs[r][start..][..a.len()]);
    let mut chains: [f64; R] = std::array::from_fn(|r| acc[r]);
    for (p, &ap) in a.iter().enumerate() {
        let ap = ap as f64;
        for r in 0..R {
            chains[r] += ap * x[r][p] as f64;
        }
    }
    acc[..R].copy_from_slice(&chains);
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
        // Equality is by key; the contents follow from it.
        assert_eq!((&a.projections, &a.offsets), (&b.projections, &b.offsets));
        let c = LshFamily::generate(10, p, 100);
        assert_ne!(a, c);
        assert_ne!(a.projections, c.projections);
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
    fn a_streaming_family_holds_only_offsets_and_hashes_like_the_matrix() {
        let params = LshParams::new(0.5, 3, 5);
        // Odd dims end rows inside a Box–Muller pair; the large ones cross
        // derivation blocks, at, around and away from a boundary.
        for dim in [1, 7, STREAM_BLOCK - 1, STREAM_BLOCK, STREAM_BLOCK + 1, 9001] {
            let held = LshFamily::generate(dim, params, dim as u64);
            let derived = LshFamily::streaming(dim, params, dim as u64);
            assert_eq!(held, derived);
            assert!(held.is_materialized() && !derived.is_materialized());
            assert_eq!(derived.resident_bytes(), params.total_hashes() * 4);
            assert_eq!(held.resident_bytes(), params.total_hashes() * (dim + 1) * 4);
            let mut rng = Pcg32::seed_from(dim as u64);
            let inputs: Vec<Vec<f32>> = (0..6)
                .map(|_| (0..dim).map(|_| rng.next_normal()).collect())
                .collect();
            for m in 0..=inputs.len() {
                let refs: Vec<&[f32]> = inputs[..m].iter().map(Vec::as_slice).collect();
                let want = held.hash_batch_threads(&refs, 1);
                assert_eq!(
                    derived.hash_batch_threads(&refs, 1),
                    want,
                    "dim {dim}, m {m}"
                );
                for (x, want) in refs.iter().zip(&want) {
                    assert_eq!(&held.hash_scalar(x), want, "dim {dim}");
                    assert_eq!(&derived.hash_scalar(x), want, "dim {dim}");
                }
            }
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
