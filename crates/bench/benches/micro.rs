//! Criterion micro-benchmarks for the protocol's hot primitives.
//!
//! These complement the table/figure regenerators with per-operation
//! costs: hashing and committing checkpoints, LSH signing a weight vector
//! (the paper reports ~250 ms for 50 ResNet50 checkpoints — i.e. LSH is
//! negligible next to training), AMLayer derivation (power iteration),
//! and a full verify-one-checkpoint replay vs a plain training step.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rpol::amlayer::{AmLayer, AmLayerSpec};
use rpol::commitment::EpochCommitment;
use rpol::tasks::TaskConfig;
use rpol::trainer::{LocalTrainer, Segment};
use rpol::transport::{FaultConfig, LinkState, MsgKind, Transport, TransportStats};
use rpol_crypto::hmac::hmac_sha256;
use rpol_crypto::sha256::{sha256, sha256_f32};
use rpol_crypto::{sha256_batch, Address, MerkleTree};
use rpol_lsh::{LshFamily, LshParams};
use rpol_nn::data::SyntheticImages;
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_sim::SimClock;
use rpol_tensor::conv;
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::ScratchArena;
use std::hint::black_box;

/// Bytes in one f32 checkpoint of the epoch benchmark's task P.
const TASK_P_CHECKPOINT: usize = 389_296;

fn bench_sha256(c: &mut Criterion) {
    let data = vec![0xABu8; 1 << 20];
    c.bench_function("sha256_1MiB", |b| b.iter(|| sha256(black_box(&data))));
    let weights = vec![0.5f32; 100_000];
    c.bench_function("sha256_f32_100k_weights", |b| {
        b.iter(|| sha256_f32(black_box(&weights)))
    });

    // One f32 checkpoint of the epoch benchmark's task P (97,324 weights):
    // the frame checksum's unit of work, alone and as `commit_v1` batches
    // it (3 checkpoints per worker) and as a full 8-lane step.
    let checkpoints: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; TASK_P_CHECKPOINT]).collect();
    let refs: Vec<&[u8]> = checkpoints.iter().map(|m| m.as_slice()).collect();
    c.bench_function("sha256/single_389k", |b| {
        b.iter(|| sha256(black_box(refs[0])))
    });
    c.bench_function("sha256/batch3_389k", |b| {
        b.iter(|| sha256_batch(black_box(&refs[..3])))
    });
    c.bench_function("sha256/batch8_389k", |b| {
        b.iter(|| sha256_batch(black_box(&refs)))
    });
    // Two `finalize` calls over short messages: PRF batch selection,
    // address derivation.
    let (key, msg) = ([7u8; 32], [9u8; 32]);
    c.bench_function("sha256/hmac_32b", |b| {
        b.iter(|| hmac_sha256(black_box(&key), black_box(&msg)))
    });
}

/// One checkpoint-sized message through the lossy link model, as the
/// sender of a chaos-proxied socket runs it (frames for the stream) and as
/// the receiver does (the outcome, from the length alone).
fn bench_transport(c: &mut Criterion) {
    let transport = Transport::new(&FaultConfig::lossy(42));
    let payload = rpol::wire::encode_submission(&vec![0.5f32; TASK_P_CHECKPOINT / 4], None);
    let rec = rpol_obs::noop();
    let mut seq = 0u64;
    c.bench_function("transport/chaos_send_389k", |b| {
        b.iter(|| {
            seq += 1;
            transport.chaos_send(
                1,
                3,
                MsgKind::ProofResponse,
                seq,
                black_box(&payload),
                LinkState::healthy(),
                None,
                &mut TransportStats::default(),
                &mut SimClock::new(),
                rec,
            )
        })
    });
    c.bench_function("transport/chaos_outcome_389k", |b| {
        b.iter(|| {
            seq += 1;
            transport.chaos_outcome(
                1,
                3,
                MsgKind::ProofResponse,
                seq,
                black_box(payload.len()),
                LinkState::healthy(),
                &mut TransportStats::default(),
                &mut SimClock::new(),
                rec,
            )
        })
    });
}

fn bench_merkle(c: &mut Criterion) {
    let leaves: Vec<Vec<u8>> = (0..256u32).map(|i| i.to_be_bytes().to_vec()).collect();
    let refs: Vec<&[u8]> = leaves.iter().map(|l| l.as_slice()).collect();
    c.bench_function("merkle_build_256_leaves", |b| {
        b.iter(|| MerkleTree::from_leaves(black_box(&refs)))
    });
    let tree = MerkleTree::from_leaves(&refs);
    c.bench_function("merkle_prove_and_verify", |b| {
        b.iter(|| {
            let proof = tree.prove(128);
            black_box(proof.verify(tree.root(), &leaves[128]))
        })
    });
}

fn bench_lsh(c: &mut Criterion) {
    let dim = 100_000;
    let family = LshFamily::new(dim, LshParams::new(1.0, 4, 4), 7);
    let mut rng = Pcg32::seed_from(1);
    let x: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
    c.bench_function("lsh_sign_100k_weights_k4_l4", |b| {
        b.iter(|| family.hash(black_box(&x)))
    });
    let sig = family.hash(&x);
    c.bench_function("lsh_signature_digest", |b| b.iter(|| sig.digest()));

    // A worker's whole use of an epoch's family at task P: key it, hash its
    // three checkpoints in one streamed pass, the rows on one lane or split
    // across two.
    let (dim, params) = (TASK_P_CHECKPOINT / 4, LshParams::new(1.0, 4, 4));
    let checkpoints: Vec<Vec<f32>> = (0..3)
        .map(|_| (0..dim).map(|_| rng.next_normal()).collect())
        .collect();
    let refs: Vec<&[f32]> = checkpoints.iter().map(Vec::as_slice).collect();
    for lanes in [1, 2] {
        c.bench_function(&format!("lsh/streaming_hash_3x97k/{lanes}_lanes"), |b| {
            b.iter(|| LshFamily::new(dim, params, 7).hash_batch_threads(black_box(&refs), lanes))
        });
    }
}

/// One training step's worth of run-to-run noise at the epoch benchmark's
/// task P: the scalar definition against the block path.
fn bench_normals(c: &mut Criterion) {
    let mut out = vec![0.0f32; 97_152];
    let mut rng = Pcg32::seed_from(1);
    c.bench_function("rng/next_normal_97k", |b| {
        b.iter(|| {
            for z in out.iter_mut() {
                *z = rng.next_normal();
            }
            black_box(&mut out);
        })
    });
    c.bench_function("rng/fill_normal_97k", |b| {
        b.iter(|| {
            rng.fill_normal(&mut out);
            black_box(&mut out);
        })
    });
    // The uniforms alone: what the normals above are fed by.
    let (mut u1, mut u2) = (vec![0.0f64; 97_152 / 2], vec![0.0f64; 97_152 / 2]);
    c.bench_function("rng/uniform_stream_97k", |b| {
        b.iter(|| {
            rng.fill_uniform_pairs(&mut u1, &mut u2);
            black_box((&mut u1, &mut u2));
        })
    });
}

/// The three convolution products of one step at task P's conv2
/// (`[16, 10, 24, 24]`, 3×3 / pad 1 / stride 1, 1.04 MFLOP per sample
/// each), on the two kernels `Conv2d` lowers onto.
fn bench_conv(c: &mut Criterion) {
    let (n, ch, hw, k) = (16, 10, 24, 3);
    let mut rng = Pcg32::seed_from(2);
    let mut randn = |len: usize| -> Vec<f32> {
        let mut v = vec![0.0f32; len];
        rng.fill_normal(&mut v);
        v
    };
    let x = randn(n * ch * hw * hw);
    let g = randn(n * ch * hw * hw);
    let weights = randn(ch * ch * k * k);
    let bias = randn(ch);
    let mut out = vec![0.0f32; n * ch * hw * hw];
    let mut dw = vec![0.0f32; ch * ch * k * k];
    let mut arena = ScratchArena::new();
    c.bench_function("conv/task_p_forward", |b| {
        b.iter(|| {
            conv::shifted(
                n, ch, &weights, &bias, ch, hw, hw, &x, 1, 1, k, 1, hw, hw, &mut out, &mut arena,
            );
            black_box(&mut out);
        })
    });
    c.bench_function("conv/task_p_dw", |b| {
        b.iter(|| {
            conv::gather(
                n, ch, &g, ch, hw, hw, &x, 1, k, 1, hw, hw, &mut dw, &mut arena,
            );
            black_box(&mut dw);
        })
    });
    // `weights` stands in for the rotated kernels: same shape, same work.
    let zeros = vec![0.0f32; ch];
    c.bench_function("conv/task_p_dx", |b| {
        b.iter(|| {
            conv::shifted(
                n, ch, &weights, &zeros, ch, hw, hw, &g, 1, 1, k, 1, hw, hw, &mut out, &mut arena,
            );
            black_box(&mut out);
        })
    });
}

fn bench_amlayer(c: &mut Criterion) {
    let spec = AmLayerSpec::for_channels(3);
    c.bench_function("amlayer_derive_weights", |b| {
        b.iter(|| AmLayer::derive_weight_stack(black_box(&Address::from_seed(7)), spec, 0.9))
    });
}

fn bench_commitments(c: &mut Criterion) {
    let checkpoints: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32; 10_000]).collect();
    let family = LshFamily::new(10_000, LshParams::new(1.0, 4, 4), 3);
    c.bench_function("commit_v1_10_checkpoints_10k", |b| {
        b.iter(|| EpochCommitment::commit_v1(black_box(&checkpoints)))
    });
    c.bench_function("commit_v2_10_checkpoints_10k", |b| {
        b.iter(|| EpochCommitment::commit_v2(black_box(&checkpoints), &family))
    });
}

fn bench_training_and_replay(c: &mut Criterion) {
    let cfg = TaskConfig::tiny();
    let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
    let segment = Segment {
        start_step: 0,
        steps: cfg.checkpoint_interval,
    };
    c.bench_function("train_one_segment", |b| {
        b.iter_batched(
            || cfg.build_model(),
            |mut model| {
                let mut trainer =
                    LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 5));
                trainer.run_segment(&mut model, 9, segment);
                model
            },
            BatchSize::SmallInput,
        )
    });
    let weights = cfg.build_model().flatten_params();
    c.bench_function("verify_replay_one_segment", |b| {
        b.iter_batched(
            || cfg.build_model(),
            |mut model| {
                let mut trainer =
                    LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::G3090, 6));
                trainer.replay_segment(&mut model, &weights, 9, segment)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_wire(c: &mut Criterion) {
    let weights = vec![0.5f32; 10_000];
    let checkpoints: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32; 10_000]).collect();
    let commitment = EpochCommitment::commit_v1(&checkpoints);
    c.bench_function("wire_encode_submission_10k", |b| {
        b.iter(|| rpol::wire::encode_submission(black_box(&weights), Some(&commitment)))
    });
    let encoded = rpol::wire::encode_submission(&weights, Some(&commitment));
    c.bench_function("wire_decode_submission_10k", |b| {
        b.iter(|| rpol::wire::decode_submission(black_box(encoded.clone())).expect("decodes"))
    });

    // Task P's model (97,320 weights) shaped like a trained vector, on
    // each lattice: the weight block alone (behind a proof response's
    // five header bytes), then a whole task broadcast payload — block plus
    // one worker's header.
    use rpol::pool::Lattice;
    let mut rng = Pcg32::seed_from(42);
    let model_f32: Vec<f32> = (0..97_320).map(|_| rng.next_normal() * 0.05).collect();
    let model = rpol_tensor::quant::bf16_image(&model_f32);
    c.bench_function("wire/pack_97k", |b| {
        b.iter(|| rpol::wire::encode_proof_response_packed(1, black_box(&model)))
    });
    let packed = rpol::wire::encode_proof_response_packed(1, &model);
    c.bench_function("wire/unpack_97k", |b| {
        b.iter_batched(
            || packed.clone(),
            |p| rpol::wire::decode_proof_response(p).expect("decodes"),
            BatchSize::LargeInput,
        )
    });
    c.bench_function("wire/pack_f32_97k", |b| {
        b.iter(|| rpol::wire::encode_proof_response(1, black_box(&model_f32)))
    });
    let packed_f32 = rpol::wire::encode_proof_response(1, &model_f32);
    c.bench_function("wire/unpack_f32_97k", |b| {
        b.iter_batched(
            || packed_f32.clone(),
            |p| rpol::wire::decode_proof_response(p).expect("decodes"),
            BatchSize::LargeInput,
        )
    });
    c.bench_function("wire/encode_task_f32_97k", |b| {
        b.iter(|| rpol::wire::TaskBlock::new(Lattice::F32, black_box(&model_f32)).frame(1, 2, 10))
    });
    c.bench_function("wire/encode_task_packed_97k", |b| {
        b.iter(|| rpol::wire::TaskBlock::new(Lattice::Bf16, black_box(&model)).frame(1, 2, 10))
    });
}

fn bench_tuning(c: &mut Criterion) {
    use rpol_lsh::tuning::{tune, TuningConfig};
    c.bench_function("lsh_tune_eq6_budget16", |b| {
        b.iter(|| tune(black_box(&TuningConfig::new(1.0, 5.0).with_budget(16))))
    });
}

fn bench_json(c: &mut Criterion) {
    let report = {
        use rpol::adversary::WorkerBehavior;
        use rpol::pool::{MiningPool, PoolConfig, Scheme};
        let mut pool = MiningPool::new(
            PoolConfig::tiny_demo(Scheme::RPoLv2),
            vec![WorkerBehavior::Honest; 2],
        );
        pool.run()
    };
    c.bench_function("json_export_pool_report", |b| {
        b.iter(|| rpol_json::to_string_pretty(black_box(&report)).expect("serializes"))
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_transport,
    bench_merkle,
    bench_lsh,
    bench_normals,
    bench_conv,
    bench_amlayer,
    bench_commitments,
    bench_training_and_replay,
    bench_wire,
    bench_tuning,
    bench_json
);
criterion_main!(benches);
