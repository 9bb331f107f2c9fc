//! The training step does only the work its outputs depend on: on an
//! AMLayer-prefixed model `LocalTrainer::run_segment` runs no backward
//! through the frozen prefix and no input-gradient product for the first
//! trainable convolution. Counted with the GEMM call counter of the
//! process-wide recorder — which is why this file holds a single test.

use rpol::tasks::{ModelArch, TaskConfig};
use rpol::trainer::{LocalTrainer, Segment};
use rpol_crypto::Address;
use rpol_nn::data::SyntheticImages;
use rpol_nn::loss::softmax_cross_entropy;
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::rng::Pcg32;

fn gemm_calls() -> u64 {
    rpol_obs::global().snapshot().counter("tensor.gemm.calls")
}

#[test]
fn run_segment_skips_the_frozen_prefix_and_conv1_input_gradient() {
    let mut cfg = TaskConfig::tiny();
    cfg.arch = ModelArch::MiniVgg16;
    let batch = cfg.batch_size as u64;
    let blocks = cfg.amlayer_depth as u64;
    let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
    let mut model = cfg.build_encoded_model(&Address::from_seed(3));
    let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 5));
    rpol_obs::global().enable();

    let steps = 3;
    let before = gemm_calls();
    trainer.run_segment(
        &mut model,
        7,
        Segment {
            start_step: 0,
            steps,
        },
    );
    let per_step = (gemm_calls() - before) / steps as u64;

    // The same step through the full chain, for the difference.
    let (x, labels) = data.batch(&(0..cfg.batch_size).collect::<Vec<_>>());
    let before = gemm_calls();
    let (_, grad) = softmax_cross_entropy(&model.forward_keep_all(&x), &labels);
    model.backward_to_input(&grad);
    let full_chain = gemm_calls() - before;
    rpol_obs::global().disable();

    // A convolution is one GEMM per sample and product; a dense layer one
    // per product. MiniVgg16 behind the AMLayer: conv1, conv2, three dense.
    let forward = (blocks + 2) * batch + 3;
    let backward = 3 * 2 + 2 * batch + batch; // conv1: weight gradient only
    assert_eq!(per_step, forward + backward);
    assert_eq!(
        full_chain - per_step,
        blocks * 2 * batch + batch,
        "the AMLayer's backward (2 products per block) and conv1's input gradient"
    );
}
