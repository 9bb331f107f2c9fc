//! Criterion benchmarks for the blocked GEMM backend.
//!
//! Two shapes anchor the comparison: `64×784×128` (the Dense layer shape
//! from the mini-VGG classifier head at batch 64) and `256×256×256` (the
//! square shape the blocked kernel's speedup over naive is read on).
//! Each is run through the retained naive reference kernel, the blocked
//! kernel single-threaded, and the fused-transpose variants.

use criterion::{criterion_group, criterion_main, Criterion};
use rpol_tensor::gemm::{self, Trans};
use rpol_tensor::rng::Pcg32;
use std::hint::black_box;

const SHAPES: &[(usize, usize, usize)] = &[(64, 784, 128), (256, 256, 256)];

fn randn(len: usize, rng: &mut Pcg32) -> Vec<f32> {
    (0..len).map(|_| rng.next_normal()).collect()
}

fn bench_gemm(c: &mut Criterion) {
    let mut rng = Pcg32::seed_from(7);
    for &(m, n, k) in SHAPES {
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let bt = {
            // B stored [n, k] for the NT variant.
            let mut t = vec![0.0f32; n * k];
            for p in 0..k {
                for j in 0..n {
                    t[j * k + p] = b[p * n + j];
                }
            }
            t
        };
        c.bench_function(&format!("gemm_naive_{m}x{n}x{k}"), |bch| {
            bch.iter(|| gemm::matmul_naive(m, n, k, black_box(&a), black_box(&b)))
        });
        c.bench_function(&format!("gemm_blocked_{m}x{n}x{k}"), |bch| {
            bch.iter(|| {
                gemm::matmul(
                    m,
                    n,
                    k,
                    black_box(&a),
                    Trans::No,
                    black_box(&b),
                    Trans::No,
                    1,
                )
            })
        });
        c.bench_function(&format!("gemm_blocked_nt_{m}x{n}x{k}"), |bch| {
            bch.iter(|| {
                gemm::matmul(
                    m,
                    n,
                    k,
                    black_box(&a),
                    Trans::No,
                    black_box(&bt),
                    Trans::Yes,
                    1,
                )
            })
        });
    }
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
