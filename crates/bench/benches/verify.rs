//! Criterion benchmarks for the verification data plane.
//!
//! Finer-grained companions to `verify_bench` (which emits the
//! `BENCH_verify.json` acceptance artifact): checkpoint commitment
//! hashing portable vs production batch, LSH digests scalar vs one
//! streamed batch, and the end-to-end `verify_samples` replay on the tiny
//! task. Shapes are scaled
//! down from the standalone binary so `cargo bench` stays interactive.

use criterion::{criterion_group, criterion_main, Criterion};
use rpol::commitment::EpochCommitment;
use rpol::tasks::TaskConfig;
use rpol::trainer::LocalTrainer;
use rpol::verify::{ProofProvider, ProofUnavailable, Verifier};
use rpol_crypto::bytes::f32s_as_le_bytes;
use rpol_crypto::sha256::{sha256_with, Digest, Tier};
use rpol_crypto::sha256_f32_batch;
use rpol_lsh::{LshFamily, LshParams, Signature};
use rpol_nn::data::SyntheticImages;
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::rng::Pcg32;
use std::hint::black_box;

const DIM: usize = 16_384;
const CHECKPOINTS: usize = 8;

struct VecProvider(Vec<Vec<f32>>);

impl ProofProvider for VecProvider {
    fn open_checkpoint(
        &self,
        index: usize,
    ) -> Result<std::borrow::Cow<'_, [f32]>, ProofUnavailable> {
        Ok(std::borrow::Cow::Borrowed(&self.0[index]))
    }
}

fn bench_verify(c: &mut Criterion) {
    let mut rng = Pcg32::seed_from(42);
    let checkpoints: Vec<Vec<f32>> = (0..CHECKPOINTS)
        .map(|_| (0..DIM).map(|_| rng.next_normal() * 0.05).collect())
        .collect();
    let refs: Vec<&[f32]> = checkpoints.iter().map(|w| w.as_slice()).collect();

    c.bench_function("commit_hash_portable", |bch| {
        bch.iter(|| {
            black_box(&refs)
                .iter()
                .map(|w| sha256_with(Tier::Portable, &f32s_as_le_bytes(w)))
                .collect::<Vec<Digest>>()
        })
    });
    c.bench_function("commit_hash_batch", |bch| {
        bch.iter(|| sha256_f32_batch(black_box(&refs)))
    });

    let family = LshFamily::new(DIM, LshParams::new(4.0, 4, 8), 7);
    c.bench_function("lsh_digest_scalar", |bch| {
        bch.iter(|| {
            black_box(&refs)
                .iter()
                .map(|w| family.hash_scalar(w).group_digests())
                .collect::<Vec<Vec<Digest>>>()
        })
    });
    c.bench_function("lsh_digest_streamed", |bch| {
        bch.iter(|| {
            let sigs = family.hash_batch(black_box(&refs));
            Signature::group_digests_batch(&sigs)
        })
    });

    let cfg = TaskConfig::tiny();
    let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
    let mut model = cfg.build_model();
    let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 11));
    let trace = trainer.run_epoch(&mut model, 5, 6);
    let model_dim = trace.checkpoints[0].len();
    let e2e_family = LshFamily::new(model_dim, LshParams::new(4.0, 4, 4), 7);
    let commitment = EpochCommitment::commit_v2(&trace.checkpoints, &e2e_family);
    let provider = VecProvider(trace.checkpoints.clone());
    let mut verifier = Verifier::new(
        &cfg,
        &data,
        5,
        0.5,
        Some(&e2e_family),
        NoiseInjector::new(GpuModel::G3090, 42),
    );
    c.bench_function("verify_samples_e2e_v2", |bch| {
        bch.iter(|| {
            verifier.verify_samples(
                &mut model,
                &commitment,
                &trace.segments,
                black_box(&[0usize]),
                &provider,
            )
        })
    });

    // Observability overhead on the replay path. `verify_samples_e2e_v2`
    // above runs with the shared noop recorder; the `obs_disabled` case
    // attaches a real (but disabled) recorder so every span/event site
    // pays its `enabled()` guard — the contract is that this stays within
    // 2% of the noop case. `obs_enabled` shows the full recording cost
    // for comparison; its buffer is drained each iteration so the span
    // store cannot grow without bound.
    let rec_off = rpol_obs::Recorder::logical();
    rec_off.disable();
    let mut verifier_off = Verifier::new(
        &cfg,
        &data,
        5,
        0.5,
        Some(&e2e_family),
        NoiseInjector::new(GpuModel::G3090, 42),
    )
    .with_recorder(&rec_off);
    c.bench_function("verify_samples_e2e_v2_obs_disabled", |bch| {
        bch.iter(|| {
            verifier_off.verify_samples(
                &mut model,
                &commitment,
                &trace.segments,
                black_box(&[0usize]),
                &provider,
            )
        })
    });

    let rec_on = rpol_obs::Recorder::logical();
    let mut verifier_on = Verifier::new(
        &cfg,
        &data,
        5,
        0.5,
        Some(&e2e_family),
        NoiseInjector::new(GpuModel::G3090, 42),
    )
    .with_recorder(&rec_on);
    c.bench_function("verify_samples_e2e_v2_obs_enabled", |bch| {
        bch.iter(|| {
            let verdict = verifier_on.verify_samples(
                &mut model,
                &commitment,
                &trace.segments,
                black_box(&[0usize]),
                &provider,
            );
            rec_on.drain_events();
            verdict
        })
    });
}

criterion_group!(benches, bench_verify);
criterion_main!(benches);
