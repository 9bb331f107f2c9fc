//! Synthetic image datasets standing in for CIFAR-10/100 (see DESIGN.md).
//!
//! The paper's datasets matter to the protocol in exactly two ways: they
//! provide (a) i.i.d. sub-datasets for pool workers and the manager's
//! calibration shard, and (b) a learnable signal so accuracy curves are
//! meaningful. `SyntheticImages` reproduces both: each class is a Gaussian
//! cluster around a seeded class prototype "image", optionally passed
//! through a mild nonlinearity so linear models cannot saturate instantly.

use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch;
use rpol_tensor::Tensor;
use serde::Serialize;
use std::sync::Arc;

/// Geometry and difficulty of a synthetic image dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ImageSpec {
    /// Number of classes (10 for the CIFAR-10 stand-in, 20 for the
    /// CIFAR-100 stand-in scaled to CPU budgets).
    pub classes: usize,
    /// Channels (CIFAR: 3).
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Within-class noise standard deviation; larger is harder.
    pub noise: f32,
    /// Seed for class prototypes — tasks with the same seed share the same
    /// underlying distribution, so shards drawn with different RNGs are
    /// i.i.d. in the paper's sense.
    pub task_seed: u64,
}

impl ImageSpec {
    /// The "CIFAR-10-like" task used by most experiments: 10 classes of
    /// 3×8×8 images (CIFAR geometry scaled down 4× for CPU training).
    /// Noise is tuned so a mini-ResNet plateaus around the paper's
    /// CIFAR-10 accuracy band rather than saturating instantly.
    pub fn cifar10_like() -> Self {
        Self {
            classes: 10,
            channels: 3,
            height: 8,
            width: 8,
            noise: 2.5,
            task_seed: 0xC1FA_0010,
        }
    }

    /// The "CIFAR-100-like" task: more classes, same geometry, harder.
    pub fn cifar100_like() -> Self {
        Self {
            classes: 20,
            channels: 3,
            height: 8,
            width: 8,
            noise: 3.2,
            task_seed: 0xC1FA_0100,
        }
    }

    /// A minimal spec for fast unit tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            classes: 4,
            channels: 1,
            height: 4,
            width: 4,
            noise: 0.3,
            task_seed: 7,
        }
    }

    /// Pixels per image (`channels · height · width`).
    pub fn pixel_count(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions or non-positive noise.
    pub fn validate(&self) {
        assert!(self.classes > 1, "need at least 2 classes");
        assert!(
            self.channels > 0 && self.height > 0 && self.width > 0,
            "zero-sized images"
        );
        assert!(self.noise > 0.0 && self.noise.is_finite(), "invalid noise");
    }
}

/// One sample of [`SyntheticImages::synthesize`]'s loop: sample `i`'s
/// image, drawn from the generator into its row.
type SampleDraw<'a> = dyn Fn(&mut Pcg32, usize, &mut Vec<f32>) + Sync + 'a;

/// A labelled synthetic image dataset.
///
/// Rows are immutable and shared: a clone, a [`SyntheticImages::shard`]
/// and the dataset it was cut from all read the same pixels, so the
/// process holds each sample once however many parties train on it.
///
/// # Examples
///
/// ```
/// use rpol_nn::data::{ImageSpec, SyntheticImages};
/// use rpol_tensor::rng::Pcg32;
///
/// let mut rng = Pcg32::seed_from(1);
/// let data = SyntheticImages::generate(&ImageSpec::tiny(), 40, &mut rng);
/// assert_eq!(data.len(), 40);
/// let shards = data.shard(4);
/// assert!(shards.iter().all(|s| s.len() == 10));
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticImages {
    spec: ImageSpec,
    /// Flattened images, one row of `pixel_count` floats each.
    images: Vec<Arc<Vec<f32>>>,
    labels: Vec<usize>,
}

impl SyntheticImages {
    /// Generates `n` samples with labels cycling through the classes, then
    /// shuffled with `rng`.
    ///
    /// Sample `i` is the serial loop's: its image is the next
    /// `pixel_count` normals of `rng` around class `i % classes`'s
    /// prototype. The samples are drawn on the lanes of the shared
    /// executor ([`Pcg32::draw_each`]), which hands back exactly what that
    /// loop draws and leaves `rng` where it leaves it, at any width.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the spec is invalid.
    pub fn generate(spec: &ImageSpec, n: usize, rng: &mut Pcg32) -> Self {
        Self::synthesize(spec, n, rng, |rng, rows, draw| {
            rng.draw_each(rows, spec.pixel_count(), draw);
        })
    }

    /// [`SyntheticImages::generate`] with the sample loop run by `run`,
    /// which must equal `for (i, row) in rows.iter_mut().enumerate() {
    /// draw(rng, i, row) }` in rows and generator state.
    fn synthesize(
        spec: &ImageSpec,
        n: usize,
        rng: &mut Pcg32,
        run: impl FnOnce(&mut Pcg32, &mut [Vec<f32>], &SampleDraw<'_>),
    ) -> Self {
        spec.validate();
        assert!(n > 0, "empty dataset");
        // Class prototypes from the task seed: every shard of the same task
        // sees the same class structure (i.i.d. shards).
        let mut proto_rng = Pcg32::seed_from(spec.task_seed);
        let pixels = spec.pixel_count();
        let prototypes: Vec<Vec<f32>> = (0..spec.classes)
            .map(|_| {
                let mut proto = vec![0.0; pixels];
                proto_rng.fill_normal(&mut proto);
                proto.iter_mut().for_each(|p| *p *= 1.5);
                proto
            })
            .collect();

        let draw = |rng: &mut Pcg32, i: usize, img: &mut Vec<f32>| {
            rng.fill_normal(img);
            for (z, &p) in img.iter_mut().zip(&prototypes[i % spec.classes]) {
                let raw = p + *z * spec.noise;
                // Mild nonlinearity keeps the task from being linearly
                // separable at zero effort.
                *z = raw.tanh() + 0.1 * raw;
            }
        };
        let mut images = vec![vec![0.0; pixels]; n];
        run(rng, &mut images, &draw);
        // Shuffle sample order (labels follow their images).
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let images = order
            .iter()
            .map(|&i| Arc::new(std::mem::take(&mut images[i])))
            .collect();
        let labels = order.iter().map(|&i| i % spec.classes).collect();
        Self {
            spec: *spec,
            images,
            labels,
        }
    }

    /// The dataset's spec.
    pub fn spec(&self) -> &ImageSpec {
        &self.spec
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the dataset is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// The label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// The pixels of sample `i`, flattened.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn image(&self, i: usize) -> &[f32] {
        &self.images[i]
    }

    /// Assembles a batch `[B, C, H, W]` plus labels from sample indices.
    /// Indices may repeat (sampling with replacement).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of range.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        assert!(!indices.is_empty(), "empty batch");
        let spec = &self.spec;
        let pixels = spec.pixel_count();
        let mut data = scratch::take_empty(indices.len() * pixels);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "sample index {i} out of range");
            data.extend_from_slice(&self.images[i]);
            labels.push(self.labels[i]);
        }
        (
            Tensor::from_vec(
                &[indices.len(), spec.channels, spec.height, spec.width],
                data,
            ),
            labels,
        )
    }

    /// The whole dataset as one batch (for evaluation).
    pub fn full_batch(&self) -> (Tensor, Vec<usize>) {
        let indices: Vec<usize> = (0..self.len()).collect();
        self.batch(&indices)
    }

    /// Splits into `n` equal contiguous shards — the manager's "randomly
    /// shuffle, then divide equally" (§III-A). Samples are already
    /// shuffled, so contiguous shards are i.i.d.; a trailing remainder of
    /// fewer than `n` samples is dropped to keep shards equal. The shards
    /// share their rows with `self`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or there are fewer than `n` samples.
    pub fn shard(&self, n: usize) -> Vec<SyntheticImages> {
        self.clone().into_shards(n)
    }

    /// [`SyntheticImages::shard`] that moves the rows into the shards
    /// instead of sharing them.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or there are fewer than `n` samples.
    pub fn into_shards(self, n: usize) -> Vec<SyntheticImages> {
        assert!(n > 0, "need at least one shard");
        assert!(self.len() >= n, "fewer samples than shards");
        let per = self.len() / n;
        let (mut images, mut labels) = (self.images.into_iter(), self.labels.into_iter());
        (0..n)
            .map(|_| SyntheticImages {
                spec: self.spec,
                images: images.by_ref().take(per).collect(),
                labels: labels.by_ref().take(per).collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `SyntheticImages::generate` as it was before normals were drawn in
    /// blocks: one `next_normal` per pixel.
    fn generate_elementwise(spec: &ImageSpec, n: usize, rng: &mut Pcg32) -> SyntheticImages {
        let mut proto_rng = Pcg32::seed_from(spec.task_seed);
        let pixels = spec.pixel_count();
        let prototypes: Vec<Vec<f32>> = (0..spec.classes)
            .map(|_| (0..pixels).map(|_| proto_rng.next_normal() * 1.5).collect())
            .collect();
        let mut images = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % spec.classes;
            let img: Vec<f32> = prototypes[label]
                .iter()
                .map(|&p| {
                    let raw = p + rng.next_normal() * spec.noise;
                    raw.tanh() + 0.1 * raw
                })
                .collect();
            images.push(img);
            labels.push(label);
        }
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        SyntheticImages {
            spec: *spec,
            images: order.iter().map(|&i| Arc::new(images[i].clone())).collect(),
            labels: order.iter().map(|&i| labels[i]).collect(),
        }
    }

    #[test]
    fn generation_equals_the_elementwise_oracle() {
        // 3·5·7 = 105 pixels: an odd count, so every image after the first
        // starts on the cached half of a Box–Muller pair.
        let mut odd = ImageSpec::tiny();
        (odd.channels, odd.height, odd.width) = (3, 5, 7);
        for (spec, n, seed) in [(ImageSpec::tiny(), 20, 1u64), (odd, 33, 2)] {
            let (mut rng, mut oracle_rng) = (Pcg32::seed_from(seed), Pcg32::seed_from(seed));
            let got = SyntheticImages::generate(&spec, n, &mut rng);
            let want = generate_elementwise(&spec, n, &mut oracle_rng);
            assert_eq!(got.labels, want.labels);
            let bits = |d: &SyntheticImages| -> Vec<Vec<u32>> {
                let row = |img: &Arc<Vec<f32>>| img.iter().map(|p| p.to_bits()).collect();
                d.images.iter().map(row).collect()
            };
            assert_eq!(bits(&got), bits(&want));
            assert_eq!(rng, oracle_rng, "generator state after generation");
        }
    }

    /// [`SyntheticImages::generate`] on the lanes of `exec`.
    fn generate_on(
        exec: &rpol_exec::Executor,
        spec: &ImageSpec,
        n: usize,
        rng: &mut Pcg32,
    ) -> SyntheticImages {
        SyntheticImages::synthesize(spec, n, rng, |rng, rows, draw| {
            rng.draw_each_on(exec, rows, spec.pixel_count(), draw);
        })
    }

    /// Rows' bits, labels and the generator left behind.
    type Drawn = (Vec<Vec<u32>>, Vec<usize>, Pcg32);

    fn drawn(data: &SyntheticImages, rng: Pcg32) -> Drawn {
        let row = |img: &Arc<Vec<f32>>| img.iter().map(|p| p.to_bits()).collect();
        (
            data.images.iter().map(row).collect(),
            data.labels.clone(),
            rng,
        )
    }

    /// `generate` at executor width 1, 2 and 8 against the element-wise
    /// oracle, from `start`.
    fn assert_every_width_draws_the_oracle(spec: &ImageSpec, n: usize, start: &Pcg32) {
        let mut oracle_rng = start.clone();
        let oracle = generate_elementwise(spec, n, &mut oracle_rng);
        let want = drawn(&oracle, oracle_rng);
        for width in [1, 2, 8] {
            let exec = rpol_exec::Executor::new(width);
            let mut rng = start.clone();
            let got = generate_on(&exec, spec, n, &mut rng);
            assert_eq!(drawn(&got, rng), want, "width {width} n {n}");
        }
    }

    #[test]
    fn every_width_draws_the_serial_loop() {
        for n in [1, 7, 257, 640, 641] {
            assert_every_width_draws_the_oracle(&ImageSpec::tiny(), n, &Pcg32::seed_from(n as u64));
        }
        // Odd pixel counts and a pending cached normal: the serial loop.
        let mut odd = ImageSpec::tiny();
        (odd.channels, odd.height, odd.width) = (3, 5, 7);
        assert_every_width_draws_the_oracle(&odd, 65, &Pcg32::seed_from(2));
        let mut pending = Pcg32::seed_from(3);
        pending.next_normal();
        assert_every_width_draws_the_oracle(&ImageSpec::tiny(), 65, &pending);
    }

    /// A generator whose next two outputs are 0, so the next Box–Muller
    /// pair draws `u1 = 0` and redraws it (PCG outputs 0 from state 1; the
    /// increment makes state 1 step to state 2).
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
        assert_eq!(stream.clone().next_u64(), 0);
        stream
    }

    #[test]
    fn a_redrawn_u1_in_a_middle_block_falls_back_bit_exactly() {
        // 16 pixels a sample, 32 outputs: sample 27's second pair draws
        // u1 = 0, inside the fourth of eight blocks at width 2.
        let (sample, pair) = (27u64, 1u64);
        let mut start = rejecting_stream();
        start.advance((32 * sample + 4 * pair).wrapping_neg());
        assert_every_width_draws_the_oracle(&ImageSpec::tiny(), 64, &start);
    }

    #[test]
    fn generation_is_seeded() {
        let spec = ImageSpec::tiny();
        let a = SyntheticImages::generate(&spec, 20, &mut Pcg32::seed_from(1));
        let b = SyntheticImages::generate(&spec, 20, &mut Pcg32::seed_from(1));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.images[0], b.images[0]);
        let c = SyntheticImages::generate(&spec, 20, &mut Pcg32::seed_from(2));
        assert_ne!(a.images[0], c.images[0]);
    }

    #[test]
    fn labels_cover_all_classes() {
        let spec = ImageSpec::cifar10_like();
        let data = SyntheticImages::generate(&spec, 100, &mut Pcg32::seed_from(3));
        let mut seen = vec![false; spec.classes];
        for &l in &data.labels {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s), "missing classes");
    }

    #[test]
    fn batch_geometry() {
        let spec = ImageSpec::tiny();
        let data = SyntheticImages::generate(&spec, 16, &mut Pcg32::seed_from(4));
        let (x, y) = data.batch(&[0, 5, 5, 9]);
        assert_eq!(x.shape().dims(), &[4, 1, 4, 4]);
        assert_eq!(y.len(), 4);
        assert_eq!(y[1], y[2]);
    }

    #[test]
    fn shards_are_equal_and_disjoint() {
        let spec = ImageSpec::tiny();
        let data = SyntheticImages::generate(&spec, 103, &mut Pcg32::seed_from(5));
        let shards = data.shard(5);
        assert_eq!(shards.len(), 5);
        assert!(shards.iter().all(|s| s.len() == 20));
        // Disjoint: first images differ across shards with high probability.
        for i in 0..5 {
            for j in i + 1..5 {
                assert_ne!(shards[i].images[0], shards[j].images[0]);
            }
        }
    }

    #[test]
    fn clones_and_shards_share_rows_with_their_source() {
        let data = SyntheticImages::generate(&ImageSpec::tiny(), 40, &mut Pcg32::seed_from(5));
        let same_row = |a: &SyntheticImages, i: usize, b: &SyntheticImages, j: usize| {
            std::ptr::eq(a.image(i), b.image(j))
        };
        let copy = data.clone();
        assert!((0..data.len()).all(|i| same_row(&data, i, &copy, i)));
        for (k, shard) in data.shard(4).iter().enumerate() {
            assert!((0..shard.len()).all(|i| same_row(shard, i, &data, 10 * k + i)));
        }
        // Moved, not copied: the shards hold the clone's rows.
        let moved = copy.into_shards(4);
        assert!(same_row(&moved[3], 9, &data, 39));
    }

    #[test]
    fn shards_have_similar_class_balance() {
        let spec = ImageSpec::cifar10_like();
        let data = SyntheticImages::generate(&spec, 1000, &mut Pcg32::seed_from(6));
        for shard in data.shard(5) {
            for class in 0..spec.classes {
                let count = shard.labels.iter().filter(|&&l| l == class).count();
                // 20 expected per class per 200-sample shard.
                assert!((8..=35).contains(&count), "class {class}: {count}");
            }
        }
    }

    #[test]
    fn same_task_seed_same_distribution() {
        // Two independently generated datasets of the same task must share
        // class prototypes: per-class means should be close.
        let spec = ImageSpec::tiny();
        let a = SyntheticImages::generate(&spec, 400, &mut Pcg32::seed_from(8));
        let b = SyntheticImages::generate(&spec, 400, &mut Pcg32::seed_from(9));
        let class_mean = |d: &SyntheticImages, class: usize| -> f32 {
            let rows: Vec<&Arc<Vec<f32>>> = d
                .images
                .iter()
                .zip(&d.labels)
                .filter(|(_, &l)| l == class)
                .map(|(img, _)| img)
                .collect();
            rows.iter().map(|r| r[0]).sum::<f32>() / rows.len() as f32
        };
        for class in 0..spec.classes {
            let (ma, mb) = (class_mean(&a, class), class_mean(&b, class));
            assert!((ma - mb).abs() < 0.3, "class {class}: {ma} vs {mb}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_batch_index_rejected() {
        let data = SyntheticImages::generate(&ImageSpec::tiny(), 4, &mut Pcg32::seed_from(0));
        data.batch(&[4]);
    }
}
