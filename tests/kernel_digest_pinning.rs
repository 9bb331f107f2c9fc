//! Pins the trainer's epoch checkpoint digests to the values produced by
//! the original reference kernels.
//!
//! RPoL's commitment protocol hashes the exact `f32` bytes of model
//! checkpoints, so the GEMM/im2col lowering in `rpol-tensor::gemm` and
//! `rpol-nn` is only admissible if it is *bitwise* invisible to training.
//! These digests were recorded from the pre-lowering loop nests; any
//! change to reduction order anywhere in the math stack fails this test.
//! Also exercised with multiple GEMM thread counts, since a checkpoint
//! digest must not depend on the host's parallelism.
//!
//! The `ENCODED_*` and `STRIDED_*` constants pin what the eight original
//! ones do not reach: an AMLayer-prefixed model (the path the pool runs —
//! train one epoch, replay one segment with a fresh injector) and
//! stride-2 convolutions. They were recorded on commit 149e81b, *before*
//! the training step stopped backward at the frozen prefix, before
//! `im2col`/`im2col_grad` became span copies and before the GPU
//! fingerprint was cached, with `examples/digest_probe.rs` (which prints
//! all of them).
//!
//! The `TASK_P_*` constants pin the epoch benchmark's own 97,320-weight
//! task, the one `epoch_bench`'s performance claims are made on. They were
//! recorded on commit 2f6422c, before Gaussians were drawn in blocks
//! (`Pcg32::fill_normal`) and before a GPU fingerprint was shared, first
//! by every run of one owner, now by every injector of the process.

use rpol_repro::crypto::sha256::sha256_f32;
use rpol_repro::crypto::Address;
use rpol_repro::nn::data::SyntheticImages;
use rpol_repro::nn::prelude::*;
use rpol_repro::rpol::tasks::{ModelArch, TaskConfig};
use rpol_repro::rpol::trainer::LocalTrainer;
use rpol_repro::sim::gpu::{GpuModel, NoiseInjector};
use rpol_repro::tensor::gemm::set_default_threads;
use rpol_repro::tensor::rng::Pcg32;

/// Digests recorded from the seed kernels (naive matmul, direct conv).
const RESNET_DIGESTS: [&str; 4] = [
    "6123028feb8a892d2af32e631bd17c733de285604e22436f6d77ea3111e59ab0",
    "89ab40a05dabb45bd4821c79a93bc9be78ff114050575260ba6d786bdbe5f32f",
    "a1d567a1e47e23d5f04c1a013c888f8c6029b6f8aa456dc060617ab6d6b35a0e",
    "84348c4a61dca9f2e2982a38098cc8da393b275cf734e621b24a8e8c402ebce1",
];
const VGG_DIGESTS: [&str; 4] = [
    "6dda9b55a8a904b6850c9fb4fb66b8dad0a7dcc89572dd0b204c8450c9be2038",
    "757b2f20363f9905b69da42d061a540eb655d9ff6f202584d470b8199e376dbb",
    "887c8de393fb0023b079f742192abf3350728aaf4436181eab8550960c06493e",
    "c6d37a3332dcc3ba3a12a2eee627245013c1faeeb7b9f029431a5a52fa0d3244",
];
/// Recorded on commit 149e81b (see the module header).
const ENCODED_DIGESTS: [&str; 4] = [
    "7230b8a1d0be3ce3d485a0fd63fda778c67638e3df329c63d82cae4669b9639f",
    "00eaaf0955a3a90f77dbd44cb15de3a180871a103f790e64d237ff252bcee0e1",
    "f895d8d13987c7bae140d5525b8f14ded650eaa8b7711816d34dea3d9aa17a43",
    "735017ec21130d14083291f428be06b4a6b5b2c1db0d675ba4366921e150f35b",
];
const ENCODED_REPLAY_DIGEST: &str =
    "61048fd54c95ea2f0b0a8fb4930bd7b724a671f93e3155d39d2a166e762403a6";
const STRIDED_DIGESTS: [&str; 4] = [
    "02749f9100070412142ae712c27493f779cb3fc1c60fdc9217ddfbf2ae0803c6",
    "899541a02f244111fc6fbb76f48bc26126701019333796b8bc0b5d88373f8292",
    "ab11fa768af395cd3506adb7b60bf7cd467308155d7a3f3ac28507ba5fca6193",
    "7f0c1170817e357b983188d4aabb01f25b688585c16ef42ee9108d361105c9ae",
];
/// Recorded on commit 2f6422c (see the module header).
const TASK_P_DIGESTS: [&str; 3] = [
    "b3ed4e26b49b93c8cc4de3a5c9b9910cfc72fdc771e86dd29ae9820cdbea1005",
    "573850d044e078bc5421e75f755d1827f805e473a0e08557e9325b09949a616e",
    "7abd4d934bc3dbd494254897aba47b5fd154171c51c9962dc586eb3a8e95f6cc",
];
const TASK_P_REPLAY_DIGEST: &str =
    "294d5e1309c256ce3abc9910bd5d66e026e44535e60fc0b7a2a04f81b74816a5";

fn hex_digests(checkpoints: &[Vec<f32>]) -> Vec<String> {
    checkpoints.iter().map(|c| sha256_f32(c).to_hex()).collect()
}

fn epoch_digests(arch: ModelArch) -> Vec<String> {
    let mut cfg = TaskConfig::tiny();
    cfg.arch = arch;
    let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
    let mut model = cfg.build_model();
    let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 5));
    hex_digests(&trainer.run_epoch(&mut model, 7, 6).checkpoints)
}

#[test]
fn resnet_epoch_digests_match_seed_kernels() {
    for threads in [1, 4] {
        set_default_threads(threads);
        assert_eq!(
            epoch_digests(ModelArch::MiniResNet18),
            RESNET_DIGESTS,
            "with {threads} GEMM threads"
        );
    }
    set_default_threads(1);
}

#[test]
fn vgg_epoch_digests_match_seed_kernels() {
    assert_eq!(epoch_digests(ModelArch::MiniVgg16), VGG_DIGESTS);
}

/// The path the pool runs: an AMLayer-prefixed model trained for one
/// epoch, then one segment replayed on a second GPU with a fresh injector.
fn encoded_train_and_replay_digests(cfg: &TaskConfig, steps: usize) -> (Vec<String>, String) {
    let address = Address::from_seed(0xE1C0);
    let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
    let mut model = cfg.build_encoded_model(&address);
    let mut trainer = LocalTrainer::new(cfg, &data, NoiseInjector::new(GpuModel::GA10, 5));
    let trace = trainer.run_epoch(&mut model, 7, steps);
    let mut replay_model = cfg.build_encoded_model(&address);
    let mut verifier = LocalTrainer::new(cfg, &data, NoiseInjector::new(GpuModel::G3090, 9));
    let replayed = verifier.replay_segment(
        &mut replay_model,
        &trace.checkpoints[1],
        7,
        trace.segments[1],
    );
    (
        hex_digests(&trace.checkpoints),
        sha256_f32(&replayed).to_hex(),
    )
}

#[test]
fn encoded_model_train_and_replay_digests_match_parent_kernels() {
    for threads in [1, 4] {
        set_default_threads(threads);
        let (checkpoints, replay) = encoded_train_and_replay_digests(&TaskConfig::tiny(), 6);
        assert_eq!(checkpoints, ENCODED_DIGESTS, "with {threads} GEMM threads");
        assert_eq!(replay, ENCODED_REPLAY_DIGEST, "with {threads} GEMM threads");
    }
    set_default_threads(1);
}

#[test]
fn task_p_train_and_replay_digests_match_parent_kernels() {
    let mut task_p = TaskConfig::task_c();
    task_p.spec.height = 24;
    task_p.spec.width = 24;
    let (checkpoints, replay) = encoded_train_and_replay_digests(&task_p, 10);
    assert_eq!(checkpoints, TASK_P_DIGESTS);
    assert_eq!(replay, TASK_P_REPLAY_DIGEST);
}

#[test]
fn strided_conv_epoch_digests_match_parent_kernels() {
    let mut cfg = TaskConfig::tiny();
    cfg.spec.channels = 2;
    cfg.spec.height = 9;
    cfg.spec.width = 7;
    let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
    let mut rng = Pcg32::seed_from(cfg.init_seed);
    let mut model = Sequential::new(vec![
        Box::new(Conv2d::with_stride(2, 6, 3, 1, 2, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Conv2d::with_stride(6, 8, 3, 1, 2, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(8 * 3 * 2, cfg.spec.classes, &mut rng)),
    ]);
    let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 5));
    let trace = trainer.run_epoch(&mut model, 7, 6);
    assert_eq!(hex_digests(&trace.checkpoints), STRIDED_DIGESTS);
}
