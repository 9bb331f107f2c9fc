//! The 2-stable (Gaussian) LSH family `h(x) = ⌊(a·x + b)/r⌋`.

use crate::matching::Signature;
use rpol_crypto::Prf;
use rpol_tensor::rng::Pcg32;
use serde::Serialize;

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
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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
/// A family is its key `(dim, params, seed)` plus the `k·l` offsets: no
/// party holds the `(k·l) × dim` matrix. Every hash derives the rows it
/// needs again, one block at a time, so a batch of inputs pays the
/// generation once and a model of any size costs `k·l` floats to hold.
///
/// # Examples
///
/// ```
/// use rpol_lsh::{LshFamily, LshParams};
///
/// let f1 = LshFamily::new(16, LshParams::new(2.0, 4, 4), 7);
/// let f2 = LshFamily::new(16, LshParams::new(2.0, 4, 4), 7);
/// let x = vec![0.5; 16];
/// assert_eq!(f1.hash(&x), f2.hash_scalar(&x));
/// assert_eq!(f1, f2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LshFamily {
    params: LshParams,
    dim: usize,
    seed: u64,
    /// `k·l` offsets in `[0, r)`.
    offsets: Vec<f32>,
}

/// Projection values a streaming hash derives at a time: 16 KiB, so the
/// block stays in L1 while every input's chain walks it.
const STREAM_BLOCK: usize = 4096;

/// Normals a lane of [`LshFamily::hash_batch`] derives at least: ≈ 0.3 ms
/// of generation, well above the cost of handing the lane to the shared
/// executor.
const LANE_NORMALS: usize = 1 << 16;

impl LshFamily {
    /// Deterministically derives the family for `dim`-dimensional inputs:
    /// its offsets, `k·l` floats. The projection rows are derived inside
    /// every hash.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, params: LshParams, seed: u64) -> Self {
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
        let mut signatures = self.hash_batch(&[x]);
        signatures.pop().expect("one input, one signature")
    }

    /// The original scalar hash: one explicit dot product per hash
    /// function, each an f64 accumulator chain in ascending index order,
    /// each row drawn whole from the Gaussian stream in row order. Retained
    /// as the reference oracle the lane-split [`hash_batch`] path is tested
    /// bitwise-equal against.
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
        let mut row = vec![0.0; self.dim];
        let mut groups = Vec::with_capacity(l);
        for g in 0..l {
            let mut values = Vec::with_capacity(k);
            for j in 0..k {
                let h = g * k + j;
                stream.fill_normal(&mut row);
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

    /// Hashes many vectors in one pass over the projection rows: each row
    /// is derived once and every input's chain walks it, so a batch pays
    /// the generation once however many inputs it holds. Splits the rows
    /// over the lanes of the shared executor it runs on, one lane per
    /// `LANE_NORMALS` (2¹⁶) normals at least, so a small family is not split
    /// into lanes that cost more to dispatch than to derive; signatures
    /// are bitwise identical for any lane count (see
    /// [`hash_batch_threads`]).
    ///
    /// [`hash_batch_threads`]: LshFamily::hash_batch_threads
    ///
    /// # Panics
    ///
    /// Panics if any input's length differs from `self.dim()`.
    pub fn hash_batch(&self, xs: &[&[f32]]) -> Vec<Signature> {
        let normals = self.params.total_hashes() * self.dim;
        let lanes = rpol_exec::shared()
            .threads()
            .min(normals.div_ceil(LANE_NORMALS));
        self.hash_batch_threads(xs, lanes)
    }

    /// [`hash_batch`] with an explicit lane count. The `k·l` rows split
    /// into `threads` contiguous ranges on the shared executor; each lane
    /// jumps the Gaussian stream to its first row ([`Pcg32::advance`]) and
    /// walks its rows exactly as one sequential pass would, so the output
    /// is bitwise identical for every `threads` value — a property the test
    /// suite enforces.
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
        let dots = self.streamed_dots(&self.projection_stream(), xs, threads);
        (0..xs.len())
            .map(|i| self.quantize(&dots, i, xs.len()))
            .collect()
    }

    /// Every input's raw projection on every row, row-major by row
    /// (`dots[h·m + i]` for input `i` of `m`), with the rows read from
    /// `stream` (positioned at row 0). Row `h` starts at normal `h·dim`,
    /// the first or second output of Box–Muller pair `⌊h·dim/2⌋`, which
    /// starts at `u32` draw `4·⌊h·dim/2⌋` unless an earlier pair redrew a
    /// rejected `u1 ≤ ε`. Lanes therefore jump to their first row as if no
    /// pair had; a lane that did not end where its successor started drew
    /// a rejection, and every later row is then walked again sequentially
    /// from where that lane really ended.
    fn streamed_dots(&self, stream: &Pcg32, xs: &[&[f32]], threads: usize) -> Vec<f64> {
        let (m, total) = (xs.len(), self.params.total_hashes());
        let mut dots = vec![0.0f64; total * m];
        let lanes = threads.clamp(1, total);
        if lanes == 1 {
            self.fold_rows(stream.clone(), xs, &mut dots);
            return dots;
        }
        // Lane `i` walks rows `bounds[i]..bounds[i + 1]`.
        let bounds: Vec<usize> = (0..=lanes).map(|i| i * total / lanes).collect();
        let starts: Vec<Pcg32> = bounds[..lanes]
            .iter()
            .map(|&h| self.stream_at_row(stream, h))
            .collect();
        let mut ends: Vec<Option<Pcg32>> = vec![None; lanes];
        rpol_exec::shared().scope(|scope| {
            let mut rest = dots.as_mut_slice();
            for ((lane, start), end) in bounds.windows(2).zip(&starts).zip(&mut ends) {
                let (chunk, tail) = rest.split_at_mut((lane[1] - lane[0]) * m);
                rest = tail;
                scope.spawn(move || *end = Some(self.fold_rows(start.clone(), xs, chunk)));
            }
        });
        let ends: Vec<Pcg32> = ends.into_iter().map(|e| e.expect("lane ran")).collect();
        if let Some(i) = (1..lanes).find(|&i| ends[i - 1] != starts[i]) {
            self.fold_rows(ends[i - 1].clone(), xs, &mut dots[bounds[i] * m..]);
        }
        dots
    }

    /// `stream` (at row 0) moved to the start of row `h`, assuming no
    /// Box–Muller pair before it redrew a rejected uniform.
    fn stream_at_row(&self, stream: &Pcg32, h: usize) -> Pcg32 {
        let first = (h * self.dim) as u64;
        let mut at = stream.clone();
        at.advance(4 * (first / 2));
        if first % 2 == 1 {
            // The row starts with the pair's second output: draw the pair
            // and keep only what it caches.
            at.next_normal();
        }
        at
    }

    /// Walks `dots.len() / m` consecutive rows from `stream`: each row is
    /// drawn block by block, and each input's dot with it is one f64 chain
    /// `acc += a·x` in ascending index order, the scalar oracle's chain
    /// exactly. Up to four inputs share a pass over each block, so their
    /// chains overlap. Returns the stream where the last row ended.
    fn fold_rows(&self, mut stream: Pcg32, xs: &[&[f32]], dots: &mut [f64]) -> Pcg32 {
        let mut block = vec![0.0f32; self.dim.min(STREAM_BLOCK)];
        for acc in dots.chunks_exact_mut(xs.len()) {
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
        }
        stream
    }

    /// Quantizes input `i`'s `k·l` raw projections (of `m` inputs in
    /// row-major `dots`) into a signature using the exact scalar formula
    /// `⌊(dot + b) / r⌋`.
    fn quantize(&self, dots: &[f64], i: usize, m: usize) -> Signature {
        let LshParams { r, k, l } = self.params;
        let mut groups = Vec::with_capacity(l);
        for g in 0..l {
            let mut values = Vec::with_capacity(k);
            for j in 0..k {
                let h = g * k + j;
                values.push(((dots[h * m + i] + self.offsets[h] as f64) / r as f64).floor() as i64);
            }
            groups.push(values);
        }
        Signature::new(groups)
    }

    /// Bytes the family holds: its `k·l` offsets. Only `(params, seed)`
    /// ever cross the wire.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * 4
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
        let a = LshFamily::new(10, p, 99);
        let b = LshFamily::new(10, p, 99);
        assert_eq!(a, b);
        assert_eq!(a.offsets, b.offsets);
        let c = LshFamily::new(10, p, 100);
        assert_ne!(a, c);
        assert_ne!(a.offsets, c.offsets);
    }

    /// Every lane's rows, jumped to and walked, are the elementwise
    /// `next_normal` stream: row `h` is normals `h·dim .. (h+1)·dim`.
    #[test]
    fn projections_are_the_elementwise_normal_stream() {
        let params = LshParams::new(2.0, 3, 5);
        for (dim, seed) in [(1, 0u64), (7, 3), (97, 9), (1031, 0xFEED)] {
            let family = LshFamily::new(dim, params, seed);
            let mut rng = family.projection_stream();
            let want: Vec<u32> = (0..params.total_hashes() * dim)
                .map(|_| rng.next_normal().to_bits())
                .collect();
            for h in 0..params.total_hashes() {
                let mut row = vec![0.0f32; dim];
                family
                    .stream_at_row(&family.projection_stream(), h)
                    .fill_normal(&mut row);
                let got: Vec<u32> = row.iter().map(|p| p.to_bits()).collect();
                assert_eq!(got, want[h * dim..][..dim], "dim {dim} seed {seed} row {h}");
            }
        }
    }

    fn normal_inputs(dim: usize, m: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Pcg32::seed_from(seed);
        (0..m)
            .map(|_| (0..dim).map(|_| rng.next_normal()).collect())
            .collect()
    }

    #[test]
    fn a_family_holds_only_offsets_and_hashes_like_the_scalar_oracle() {
        // Odd dims start rows inside a Box–Muller pair; the large ones
        // cross derivation blocks, at, around and away from a boundary.
        let dims = [1, 7, STREAM_BLOCK - 1, STREAM_BLOCK, STREAM_BLOCK + 1, 9001];
        for (dim, (k, l)) in dims
            .into_iter()
            .zip([(1, 1), (1, 5), (4, 4)].iter().cycle())
        {
            let params = LshParams::new(0.5, *k, *l);
            let family = LshFamily::new(dim, params, dim as u64);
            assert_eq!(family.resident_bytes(), params.total_hashes() * 4);
            let inputs = normal_inputs(dim, 11, dim as u64);
            let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
            let want: Vec<Signature> = refs.iter().map(|x| family.hash_scalar(x)).collect();
            for m in [0, 1, 2, 3, 4, 5, 11] {
                for lanes in [1, 2, 3, 8] {
                    assert_eq!(
                        family.hash_batch_threads(&refs[..m], lanes),
                        want[..m],
                        "dim {dim}, k·l {}, m {m}, lanes {lanes}",
                        params.total_hashes()
                    );
                }
            }
        }
    }

    /// A generator whose next two `u32` outputs are 0, so the next
    /// Box–Muller pair draws `u1 = 0` and must redraw it: PCG outputs 0
    /// from any state below 2²⁷, and the increment is chosen so that state
    /// 1 steps to state 2.
    fn rejecting_stream() -> Pcg32 {
        const MULT: u64 = 6_364_136_223_846_793_005;
        let (target, inc) = (1u64, 2u64.wrapping_sub(MULT));
        // `Pcg32::new(s, stream)` lands on `(inc + s)·MULT + inc`.
        let mut inverse = MULT;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(MULT.wrapping_mul(inverse)));
        }
        let s = target
            .wrapping_sub(inc)
            .wrapping_mul(inverse)
            .wrapping_sub(inc);
        let stream = Pcg32::new(s, inc >> 1);
        assert_eq!(
            (stream.clone().next_u32(), stream.clone().next_u64()),
            (0, 0)
        );
        stream
    }

    /// A rejected uniform in the first lane's rows shifts every later row:
    /// the lanes that jumped there are walked again from where the first
    /// lane really ended, and the dots equal one sequential walk.
    #[test]
    fn a_rejected_uniform_sends_later_lanes_back_to_the_sequential_walk() {
        let stream = rejecting_stream();
        for (dim, k, l) in [(7, 2, 3), (8, 4, 4), (3, 1, 5)] {
            let family = LshFamily::new(dim, LshParams::new(1.0, k, l), 3);
            // The jump assumed no redraw; the true row 1 starts later.
            let mut walked = stream.clone();
            walked.fill_normal(&mut vec![0.0; dim]);
            assert_ne!(walked, family.stream_at_row(&stream, 1), "dim {dim}");

            let inputs = normal_inputs(dim, 5, 17);
            let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
            let mut want = vec![0.0f64; k * l * refs.len()];
            family.fold_rows(stream.clone(), &refs, &mut want);
            // The oracle's chain over the elementwise stream.
            let mut normals = stream.clone();
            for h in 0..k * l {
                let row: Vec<f32> = (0..dim).map(|_| normals.next_normal()).collect();
                for (i, x) in refs.iter().enumerate() {
                    let dot: f64 = row.iter().zip(*x).map(|(&a, &x)| a as f64 * x as f64).sum();
                    assert_eq!(want[h * refs.len() + i].to_bits(), dot.to_bits());
                }
            }
            for lanes in [2, 3, 8] {
                let got = family.streamed_dots(&stream, &refs, lanes);
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "dim {dim}, lanes {lanes}");
            }
        }
    }

    #[test]
    fn identical_inputs_always_match() {
        let f = LshFamily::new(32, LshParams::new(1.0, 4, 4), 1);
        let x = vec![0.25; 32];
        assert!(f.hash(&x).matches(&f.hash(&x)));
    }

    #[test]
    fn empirical_matches_theory_close() {
        // Points at distance c where Pr_lsh is high should almost always
        // match; empirical rate within a few points of theory.
        let params = LshParams::new(4.0, 2, 4);
        let f = LshFamily::new(64, params, 5);
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
        let f = LshFamily::new(64, params, 6);
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
        let f = LshFamily::new(8, LshParams::new(1.0, 2, 2), 0);
        f.hash(&[1.0; 9]);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_r_rejected() {
        LshParams::new(0.0, 2, 2);
    }
}
