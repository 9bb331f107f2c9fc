//! Prints the epoch checkpoint digests for fixed seed/task configs.
//!
//! Used to pin the trainer's bitwise behaviour across kernel rewrites: the
//! commitment protocol hashes exact f32 bytes, so any change to reduction
//! order in the math kernels shows up here immediately. The reference
//! values live in `tests/kernel_digest_pinning.rs`.

use rpol::tasks::{ModelArch, TaskConfig};
use rpol::trainer::LocalTrainer;
use rpol_crypto::sha256::sha256_f32;
use rpol_crypto::Address;
use rpol_nn::data::SyntheticImages;
use rpol_nn::prelude::*;
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::rng::Pcg32;

fn probe(arch: ModelArch, name: &str) {
    let mut cfg = TaskConfig::tiny();
    cfg.arch = arch;
    let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
    let mut model = cfg.build_model();
    let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 5));
    let trace = trainer.run_epoch(&mut model, 7, 6);
    for (i, ckpt) in trace.checkpoints.iter().enumerate() {
        println!("{name} checkpoint[{i}] {}", sha256_f32(ckpt).to_hex());
    }
}

/// The path the pool runs: an AMLayer-prefixed model trained for one
/// epoch, then one segment replayed on a second GPU with a fresh injector.
fn probe_encoded(cfg: &TaskConfig, name: &str, steps: usize) {
    let address = Address::from_seed(0xE1C0);
    let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
    let mut model = cfg.build_encoded_model(&address);
    let mut trainer = LocalTrainer::new(cfg, &data, NoiseInjector::new(GpuModel::GA10, 5));
    let trace = trainer.run_epoch(&mut model, 7, steps);
    for (i, ckpt) in trace.checkpoints.iter().enumerate() {
        println!("{name} checkpoint[{i}] {}", sha256_f32(ckpt).to_hex());
    }
    let mut replay_model = cfg.build_encoded_model(&address);
    let mut verifier = LocalTrainer::new(cfg, &data, NoiseInjector::new(GpuModel::G3090, 9));
    let replayed = verifier.replay_segment(
        &mut replay_model,
        &trace.checkpoints[1],
        7,
        trace.segments[1],
    );
    println!("{name} replay[1] {}", sha256_f32(&replayed).to_hex());
}

/// Two stride-2 convolutions over a non-square image: the first is the
/// model's first trainable layer, the second sits behind it.
fn probe_strided() {
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
    for (i, ckpt) in trace.checkpoints.iter().enumerate() {
        println!("strided checkpoint[{i}] {}", sha256_f32(ckpt).to_hex());
    }
}

fn main() {
    probe(ModelArch::MiniResNet18, "mini_resnet18");
    probe(ModelArch::MiniVgg16, "mini_vgg16");
    probe_encoded(&TaskConfig::tiny(), "encoded", 6);
    probe_strided();
    // The epoch benchmark's task P (97,320 weights).
    let mut task_p = TaskConfig::task_c();
    task_p.spec.height = 24;
    task_p.spec.width = 24;
    probe_encoded(&task_p, "task_p", 10);
}
