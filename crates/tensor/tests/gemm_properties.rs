//! Bitwise-equivalence properties for the blocked GEMM backend.
//!
//! The blocked/packed/threaded kernels are only admissible if they produce
//! the *exact* bytes of the retained naive reference kernel — RPoL hashes
//! checkpoints, so "numerically close" is not close enough. These tests
//! sweep degenerate, prime, tall-skinny and wide-flat shapes plus
//! proptest-driven random ones, and check that thread count is invisible.

use proptest::prelude::*;
use rpol_tensor::gemm::{self, Trans};

/// The kernel's row-block size (`gemm::MC`): shapes at and across it.
const MC: usize = 64;
use rpol_tensor::rng::Pcg32;
use rpol_tensor::Tensor;

fn randn(len: usize, rng: &mut Pcg32) -> Vec<f32> {
    (0..len).map(|_| rng.next_normal()).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Shapes chosen to stress every tiling edge: unit, primes (never aligned
/// to MR/NR/MC/KC/NC), tall-skinny, wide-flat, and exact block multiples.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 1, 513),
    (2, 3, 1),
    (7, 11, 13),
    (31, 37, 41),
    (257, 3, 5),   // tall-skinny
    (3, 1031, 7),  // wide-flat
    (4, 8, 256),   // exact MR × NR × KC
    (64, 512, 64), // exact MC × NC blocks
    (65, 513, 257),
];

#[test]
fn blocked_kernel_is_bitwise_equal_to_naive_reference() {
    let mut rng = Pcg32::seed_from(101);
    for &(m, n, k) in SHAPES {
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let fast = gemm::matmul(m, n, k, &a, Trans::No, &b, Trans::No, 1);
        let slow = gemm::matmul_naive(m, n, k, &a, &b);
        assert_eq!(bits(&fast), bits(&slow), "shape {m}x{n}x{k}");
    }
}

#[test]
fn naive_zero_skip_is_bitwise_invisible() {
    // The reference kernel skips `a == 0.0` rows; the blocked kernel does
    // not. Inputs with many exact zeros must still agree bitwise.
    let mut rng = Pcg32::seed_from(102);
    let (m, n, k) = (23, 29, 31);
    let mut a = randn(m * k, &mut rng);
    for (i, v) in a.iter_mut().enumerate() {
        if i % 3 == 0 {
            *v = 0.0;
        }
    }
    let b = randn(k * n, &mut rng);
    let fast = gemm::matmul(m, n, k, &a, Trans::No, &b, Trans::No, 1);
    let slow = gemm::matmul_naive(m, n, k, &a, &b);
    assert_eq!(bits(&fast), bits(&slow));
}

#[test]
fn thread_count_is_bitwise_invisible_across_shapes() {
    let mut rng = Pcg32::seed_from(103);
    for &(m, n, k) in &[(2 * MC, 17, 19), (3 * MC + 5, 65, 300), (257, 513, 31)] {
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let single = gemm::matmul(m, n, k, &a, Trans::No, &b, Trans::No, 1);
        for threads in [2, 8] {
            let multi = gemm::matmul(m, n, k, &a, Trans::No, &b, Trans::No, threads);
            assert_eq!(bits(&single), bits(&multi), "{m}x{n}x{k} @ {threads}t");
        }
    }
}

#[test]
fn fused_transpose_variants_match_materialized_transpose() {
    let mut rng = Pcg32::seed_from(104);
    for &(m, n, k) in &[(1, 1, 1), (7, 11, 13), (33, 65, 129)] {
        let a = Tensor::from_vec(&[m, k], randn(m * k, &mut rng));
        let b = Tensor::from_vec(&[k, n], randn(k * n, &mut rng));
        let bt = b.transpose(); // stored [n, k]
        let at = a.transpose(); // stored [k, m]
        let plain = gemm::matmul(m, n, k, a.data(), Trans::No, b.data(), Trans::No, 1);
        assert_eq!(
            bits(&gemm::matmul(
                m,
                n,
                k,
                a.data(),
                Trans::No,
                bt.data(),
                Trans::Yes,
                1
            )),
            bits(&plain),
            "nt {m}x{n}x{k}"
        );
        assert_eq!(
            bits(&gemm::matmul(
                m,
                n,
                k,
                at.data(),
                Trans::Yes,
                b.data(),
                Trans::No,
                1
            )),
            bits(&plain),
            "tn {m}x{n}x{k}"
        );
    }
}

#[test]
fn blocked_transpose_is_an_involution_and_matches_indexing() {
    let mut rng = Pcg32::seed_from(106);
    for &(r, c) in &[(1, 1), (1, 97), (97, 1), (31, 33), (130, 70)] {
        let t = Tensor::from_vec(&[r, c], randn(r * c, &mut rng));
        let tt = t.transpose();
        for i in 0..r {
            for j in 0..c {
                assert_eq!(
                    t.data()[i * c + j].to_bits(),
                    tt.data()[j * r + i].to_bits()
                );
            }
        }
        assert_eq!(bits(tt.transpose().data()), bits(t.data()), "{r}x{c}");
    }
}

proptest! {
    #[test]
    fn random_shapes_match_naive_bitwise(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..60,
        seed in proptest::arbitrary::any::<u32>(),
    ) {
        let mut rng = Pcg32::seed_from(seed as u64);
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let fast = gemm::matmul(m, n, k, &a, Trans::No, &b, Trans::No, 1);
        let slow = gemm::matmul_naive(m, n, k, &a, &b);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    #[test]
    fn random_accumulate_preserves_preloaded_chain(
        m in 1usize..20,
        n in 1usize..20,
        k in 1usize..40,
        seed in proptest::arbitrary::any::<u32>(),
    ) {
        let mut rng = Pcg32::seed_from(0x5eed ^ seed as u64);
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let init = randn(m * n, &mut rng);
        let mut c = init.clone();
        gemm::gemm_into(m, n, k, &a, Trans::No, &b, Trans::No, &mut c, 1);
        for i in 0..m {
            for j in 0..n {
                let mut acc = init[i * n + j];
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                prop_assert_eq!(c[i * n + j].to_bits(), acc.to_bits());
            }
        }
    }
}
