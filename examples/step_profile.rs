//! Per-layer budget of one training step at the epoch benchmark's task P
//! (task_c at 24×24, 97,320 weights, batch 16, AMLayer-encoded) — the
//! profiler behind EXPERIMENTS.md's "Training-step budget".
//!
//! Each layer is fed its real input and its real output gradient through
//! one shared arena, as the step feeds it: the first layer borrows the
//! batch, every later one owns its input (`forward_owned`, on a copy drawn
//! from the arena outside the timing). "bwd" is what the step runs for
//! that layer (nothing
//! for the frozen AMLayer, parameter gradients only for conv1, the full
//! backward elsewhere). The last lines time the whole model, the rest of
//! the step — the batch gather, the loss, the update (optimizer, update
//! norm and zeroed gradients in one pass) and the noise (injected in
//! place) — their sum, and the whole `run_segment` step. Prints the
//! median of `REPS` repetitions in µs. The last line counts the minor page
//! faults (`/proc/self/stat` minflt) one replayed five-step segment takes —
//! a verifier's whole pass: load, train, end the pass, flatten — median
//! of `REPS` replays.
//!
//! ```text
//! RPOL_GEMM_THREADS=2 cargo run --release --example step_profile
//! ```

use rpol::amlayer::AmLayer;
use rpol::tasks::TaskConfig;
use rpol::trainer::{LocalTrainer, Segment};
use rpol_crypto::Address;
use rpol_nn::data::SyntheticImages;
use rpol_nn::norm::LayerNorm;
use rpol_nn::prelude::*;
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::{self, ScratchArena};
use rpol_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

const WARMUP: usize = 20;
const REPS: usize = 200;

/// Median of `REPS` samples in µs, after `WARMUP` discarded ones.
fn median_of(mut sample_us: impl FnMut() -> f64) -> f64 {
    for _ in 0..WARMUP {
        sample_us();
    }
    let mut samples: Vec<f64> = (0..REPS).map(|_| sample_us()).collect();
    samples.sort_by(f64::total_cmp);
    samples[REPS / 2]
}

/// Median wall time of `f` in µs.
fn median_us(mut f: impl FnMut()) -> f64 {
    median_of(|| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6
    })
}

/// Minor page faults the process has taken so far (`/proc/self/stat`,
/// field 10; 0 where there is no procfs).
fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesized command name start at 3.
            let fields = stat.rsplit_once(')')?.1;
            fields.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// What a training step asks of a layer on the way back.
#[derive(Clone, Copy, PartialEq)]
enum Bwd {
    /// Behind no trainable layer: never entered.
    Skipped,
    /// First trainable layer: `backward_params`.
    ParamsOnly,
    Full,
}

fn main() {
    let mut cfg = TaskConfig::task_c();
    cfg.spec.height = 24;
    cfg.spec.width = 24;
    let address = Address::from_seed(0xE1C0);
    let data = SyntheticImages::generate(&cfg.spec, 256, &mut Pcg32::seed_from(1));

    // The encoded mini-VGG16 layer by layer, as `build_encoded_model`
    // stacks it (checked against it below).
    let (stem, feat) = (10, 10 * (cfg.spec.height / 2) * (cfg.spec.width / 2));
    let mut rng = Pcg32::seed_from(cfg.init_seed);
    let am = AmLayer::generate(&address, cfg.amlayer_spec(), cfg.lipschitz_c);
    let mut layers: Vec<(&str, Bwd, Box<dyn Layer>)> = vec![
        ("amlayer", Bwd::Skipped, Box::new(am)),
        (
            "conv1",
            Bwd::ParamsOnly,
            Box::new(Conv2d::new(cfg.spec.channels, stem, 3, 1, &mut rng)),
        ),
        ("relu1", Bwd::Full, Box::new(Relu::new())),
        (
            "conv2",
            Bwd::Full,
            Box::new(Conv2d::new(stem, stem, 3, 1, &mut rng)),
        ),
        ("relu2", Bwd::Full, Box::new(Relu::new())),
        ("maxpool", Bwd::Full, Box::new(MaxPool2::new())),
        ("flatten", Bwd::Full, Box::new(Flatten::new())),
        (
            "dense1",
            Bwd::Full,
            Box::new(Dense::new(feat, 64, &mut rng)),
        ),
        ("layernorm", Bwd::Full, Box::new(LayerNorm::new(64))),
        ("relu3", Bwd::Full, Box::new(Relu::new())),
        ("dropout", Bwd::Full, Box::new(Dropout::new(0.2, 0xD20))),
        ("dense2", Bwd::Full, Box::new(Dense::new(64, 48, &mut rng))),
        ("relu4", Bwd::Full, Box::new(Relu::new())),
        (
            "dense3",
            Bwd::Full,
            Box::new(Dense::new(48, cfg.spec.classes, &mut rng)),
        ),
    ];
    let mut model = cfg.build_encoded_model(&address);
    let mut flat = Vec::new();
    for (_, _, layer) in &layers {
        layer.visit_params(&mut |p| flat.extend_from_slice(p.value.data()));
    }
    assert_eq!(
        flat,
        model.flatten_params(),
        "the layer list drifted from tasks.rs"
    );

    // Real activations and gradients: one forward and one backward sweep.
    let (x, labels) = data.batch(&(0..cfg.batch_size).collect::<Vec<_>>());
    let mut arena = ScratchArena::new();
    let mut inputs = vec![x.clone()];
    for (_, _, layer) in &mut layers {
        let y = layer.forward(inputs.last().expect("seeded"), true, &mut arena);
        inputs.push(y);
    }
    let (_, loss_grad) = softmax_cross_entropy(inputs.last().expect("seeded"), &labels);
    let mut grads: Vec<Option<Tensor>> = vec![None; layers.len()];
    let mut g = loss_grad;
    for (i, (_, bwd, layer)) in layers.iter_mut().enumerate().rev() {
        grads[i] = Some(g.clone());
        if *bwd != Bwd::Full {
            break;
        }
        g = layer.backward(&g, &mut arena);
    }

    println!(
        "task P, batch {}, RPOL_GEMM_THREADS={} — median of {REPS} µs",
        cfg.batch_size,
        rpol_tensor::gemm::default_threads()
    );
    println!("{:<12} {:>10} {:>10}", "layer", "fwd", "bwd");
    let (mut fwd_sum, mut bwd_sum) = (0.0, 0.0);
    for (i, (name, bwd, layer)) in layers.iter_mut().enumerate() {
        let fwd = if i == 0 {
            median_us(|| {
                let y = layer.forward(black_box(&inputs[i]), true, &mut arena);
                arena.recycle(black_box(y).into_vec());
            })
        } else {
            median_of(|| {
                let mut owned = arena.take_empty(inputs[i].len());
                owned.extend_from_slice(inputs[i].data());
                let owned = Tensor::from_vec(inputs[i].shape().dims(), owned);
                let t = Instant::now();
                let y = layer.forward_owned(black_box(owned), true, &mut arena);
                arena.recycle(black_box(y).into_vec());
                t.elapsed().as_secs_f64() * 1e6
            })
        };
        let back = match (*bwd, &grads[i]) {
            (Bwd::Full, Some(g)) => median_us(|| {
                let dx = layer.backward(black_box(g), &mut arena);
                arena.recycle(black_box(dx).into_vec());
            }),
            (Bwd::ParamsOnly, Some(g)) => {
                median_us(|| layer.backward_params(black_box(g), &mut arena))
            }
            _ => 0.0,
        };
        fwd_sum += fwd;
        bwd_sum += back;
        println!("{name:<12} {fwd:>10.1} {back:>10.1}");
    }
    println!("{:<12} {fwd_sum:>10.1} {bwd_sum:>10.1}", "sum");

    let fwd = median_us(|| {
        black_box(model.forward(black_box(&x), true));
    });
    let logits = model.forward(&x, true);
    let (_, grad) = softmax_cross_entropy(&logits, &labels);
    let back = median_us(|| model.backward(black_box(&grad)));
    println!("{:<12} {fwd:>10.1} {back:>10.1}", "model");

    // The rest of the step, each part on its real inputs.
    let indices: Vec<usize> = (0..cfg.batch_size).collect();
    let batch = median_us(|| {
        black_box(data.batch(black_box(&indices)));
    });
    let loss = median_us(|| {
        black_box(softmax_cross_entropy(black_box(&logits), &labels));
    });
    let weights = model.flatten_params();
    let mut opt = cfg.optimizer.build();
    let update_norm = model.step(opt.as_mut());
    let update = median_us(|| {
        black_box(model.step(black_box(opt.as_mut())));
    });
    let trainable = model.trainable_count();
    let mut injector = NoiseInjector::new(GpuModel::GA10, 5);
    let noise = median_us(|| {
        if let Some(mut noise) = injector.step_noise(trainable, update_norm) {
            model.visit_params_mut(&mut |p| {
                if !p.frozen {
                    noise.perturb(p.value.data_mut());
                }
            });
        }
    });
    model.load_params(&weights);
    for (name, us) in [
        ("batch", batch),
        ("loss", loss),
        ("update", update),
        ("noise", noise),
    ] {
        println!("{name:<12} {us:>10.1}");
    }
    let parts = fwd + back + batch + loss + update + noise;
    println!("{:<12} {parts:>10.1}", "parts");

    let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 5));
    let steps = 5;
    let segment = median_us(|| {
        let segment = Segment {
            start_step: 0,
            steps,
        };
        black_box(trainer.run_segment(&mut model, 7, segment));
    });
    println!("{:<12} {:>10.1}", "step", segment / steps as f64);

    let segment = Segment {
        start_step: 0,
        steps,
    };
    let mut replay = || {
        let before = minor_faults();
        let out = trainer.replay_segment(&mut model, &weights, 7, segment);
        scratch::put(black_box(out));
        minor_faults() - before
    };
    for _ in 0..WARMUP {
        replay();
    }
    let mut faults: Vec<u64> = (0..REPS).map(|_| replay()).collect();
    faults.sort_unstable();
    println!("{:<12} {:>10}", "faults/replay", faults[REPS / 2]);
}
