//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use rpol_tensor::gemm::{self, Trans};
use rpol_tensor::rng::{Pcg32, SplitMix64};
use rpol_tensor::{stats, Shape, Tensor};

/// `a · b` for rank-2 tensors, by the GEMM kernel the layers call.
fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.shape().dim(0), a.shape().dim(1), b.shape().dim(1));
    let c = gemm::matmul(m, n, k, a.data(), Trans::No, b.data(), Trans::No, 1);
    Tensor::from_vec(&[m, n], c)
}

/// `a + b`, elementwise.
fn sum(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = a.clone();
    out += b;
    out
}

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, len)
}

proptest! {
    #[test]
    fn shape_offset_bijective(dims in proptest::collection::vec(1usize..5, 1..4)) {
        let shape = Shape::new(&dims);
        let mut seen = std::collections::HashSet::new();
        let mut index = vec![0usize; dims.len()];
        loop {
            let off = shape.offset(&index);
            prop_assert!(off < shape.len());
            prop_assert!(seen.insert(off), "offset collision at {index:?}");
            // Advance the multi-index odometer.
            let mut i = dims.len();
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                index[i] += 1;
                if index[i] < dims[i] {
                    break;
                }
                index[i] = 0;
                if i == 0 {
                    prop_assert_eq!(seen.len(), shape.len());
                    return Ok(());
                }
            }
            if index.iter().all(|&x| x == 0) {
                break;
            }
        }
        prop_assert_eq!(seen.len(), shape.len());
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in finite_vec(6), b in finite_vec(6), c in finite_vec(6)
    ) {
        // A·(B + C) == A·B + A·C for 2x3 · 3x2 shapes.
        let ta = Tensor::from_vec(&[2, 3], a);
        let tb = Tensor::from_vec(&[3, 2], b);
        let tc = Tensor::from_vec(&[3, 2], c);
        let lhs = matmul(&ta, &sum(&tb, &tc));
        let rhs = sum(&matmul(&ta, &tb), &matmul(&ta, &tc));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 0.3 + 1e-3 * x.abs().max(y.abs()),
                "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_preserves_matmul(a in finite_vec(6), b in finite_vec(6)) {
        // (A·B)ᵀ == Bᵀ·Aᵀ.
        let ta = Tensor::from_vec(&[2, 3], a);
        let tb = Tensor::from_vec(&[3, 2], b);
        let lhs = matmul(&ta, &tb).transpose();
        let rhs = matmul(&tb.transpose(), &ta.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
    }

    #[test]
    fn euclidean_distance_is_a_metric(
        a in finite_vec(10), b in finite_vec(10), c in finite_vec(10)
    ) {
        let dab = stats::euclidean(&a, &b);
        let dba = stats::euclidean(&b, &a);
        prop_assert!((dab - dba).abs() < 1e-4, "symmetry");
        prop_assert!(stats::euclidean(&a, &a) == 0.0, "identity");
        let dac = stats::euclidean(&a, &c);
        let dcb = stats::euclidean(&c, &b);
        prop_assert!(dab <= dac + dcb + 1e-3, "triangle inequality");
    }

    #[test]
    fn rng_streams_deterministic(seed in any::<u64>()) {
        let mut a = Pcg32::seed_from(seed);
        let mut b = Pcg32::seed_from(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut s1 = SplitMix64::new(seed);
        let mut s2 = SplitMix64::new(seed);
        prop_assert_eq!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn fill_normal_interleaves_with_every_other_draw(
        seed in any::<u64>(),
        // (operation, length): block fills of any length mixed with single
        // normals and integer draws, so fills start with and without a
        // pending cached value and at every uniform-stream offset.
        ops in proptest::collection::vec((0u8..4, 0usize..1200), 1..12),
    ) {
        let mut bulk = Pcg32::seed_from(seed);
        let mut scalar = bulk.clone();
        for (step, &(op, len)) in ops.iter().enumerate() {
            match op {
                0 => prop_assert_eq!(bulk.next_u32(), scalar.next_u32()),
                1 => prop_assert_eq!(
                    bulk.next_normal().to_bits(),
                    scalar.next_normal().to_bits()
                ),
                _ => {
                    let mut got = vec![f32::NAN; len];
                    bulk.fill_normal(&mut got);
                    let want: Vec<u32> = (0..len).map(|_| scalar.next_normal().to_bits()).collect();
                    let got: Vec<u32> = got.iter().map(|z| z.to_bits()).collect();
                    prop_assert_eq!(got, want, "step {}", step);
                }
            }
            prop_assert_eq!(&bulk, &scalar, "state after step {}", step);
        }
    }

    #[test]
    fn randn_equals_elementwise_next_normal(
        seed in any::<u64>(),
        dims in proptest::collection::vec(1usize..12, 1..4),
        pending in any::<bool>(),
    ) {
        let mut rng = Pcg32::seed_from(seed);
        if pending {
            rng.next_normal();
        }
        let mut oracle = rng.clone();
        let t = Tensor::randn(&dims, &mut rng);
        prop_assert_eq!(t.shape().dims(), &dims[..]);
        for (i, z) in t.data().iter().enumerate() {
            prop_assert_eq!(z.to_bits(), oracle.next_normal().to_bits(), "element {}", i);
        }
        prop_assert_eq!(rng, oracle);
    }

    #[test]
    fn next_below_in_range(seed in any::<u64>(), bound in 1u32..10_000) {
        let mut rng = Pcg32::seed_from(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    #[test]
    fn running_stats_matches_batch(xs in proptest::collection::vec(-50.0f32..50.0, 2..50)) {
        let mut rs = stats::RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        prop_assert!((rs.mean() - stats::mean(&xs)).abs() < 1e-2);
        prop_assert!((rs.std_dev() - stats::std_dev(&xs)).abs() < 1e-2);
        prop_assert_eq!(rs.max(), stats::max(&xs));
        prop_assert_eq!(rs.min(), stats::min(&xs));
    }

    #[test]
    fn norm_cdf_monotone_and_bounded(x in -10.0f64..10.0, dx in 0.0f64..5.0) {
        let a = stats::norm_cdf(x);
        let b = stats::norm_cdf(x + dx);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!(b + 1e-12 >= a);
        // Symmetry: Φ(x) + Φ(−x) = 1.
        prop_assert!((stats::norm_cdf(x) + stats::norm_cdf(-x) - 1.0).abs() < 1e-6);
    }
}
