//! `Sequential::backward` is the parameter-gradient pass: it stops at the
//! first trainable layer and never enters a frozen prefix. Over random
//! conv/dense stacks, the gradients it leaves on trainable parameters must
//! be bitwise those of the full chain, `Sequential::backward_to_input`.

use proptest::prelude::*;
use rpol_nn::prelude::*;
use rpol_tensor::rng::Pcg32;
use rpol_tensor::Tensor;

/// A random stack of `convs` strided/padded convolutions and `denses`
/// dense layers (ReLU between, 3 logits out) over `[2, 4, 5]` images,
/// with its first `frozen` parameter-owning layers frozen, plus the layer
/// at index `also_frozen` when that lies behind a trainable one.
fn stack(seed: u64, convs: usize, denses: usize, frozen: usize, also_frozen: usize) -> Sequential {
    let mut rng = Pcg32::seed_from(seed);
    let (mut c, mut h, mut w) = (2usize, 4usize, 5usize);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for _ in 0..convs {
        let oc = 1 + rng.next_below(3) as usize;
        let k = [1, 3][rng.next_below(2) as usize];
        let stride = 1 + rng.next_below(2) as usize;
        layers.push(Box::new(Conv2d::with_stride(c, oc, k, 1, stride, &mut rng)));
        layers.push(Box::new(Relu::new()));
        (c, h, w) = (oc, (h + 2 - k) / stride + 1, (w + 2 - k) / stride + 1);
    }
    layers.push(Box::new(Flatten::new()));
    let mut features = c * h * w;
    for d in 0..denses {
        let out = if d + 1 == denses {
            3
        } else {
            2 + rng.next_below(5) as usize
        };
        layers.push(Box::new(Dense::new(features, out, &mut rng)));
        if d + 1 < denses {
            layers.push(Box::new(Relu::new()));
        }
        features = out;
    }
    let mut model = Sequential::new(layers);
    // Conv2d and Dense own two parameters each (weight, bias).
    let mut index = 0;
    model.visit_params_mut(&mut |p| {
        let layer = index / 2;
        p.frozen = layer < frozen || layer == also_frozen;
        index += 1;
    });
    model
}

fn grads(model: &Sequential) -> Vec<(bool, Vec<u32>)> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| {
        out.push((
            p.frozen,
            p.grad.data().iter().map(|g| g.to_bits()).collect(),
        ));
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn backward_leaves_the_full_chains_trainable_gradients(
        seed in any::<u64>(),
        convs in 0usize..3,
        denses in 1usize..4,
        frozen_pick in 0usize..6,
        also_frozen in 0usize..6,
    ) {
        // 0 = no frozen prefix, `layers` = every layer frozen.
        let layers = convs + denses;
        let frozen = frozen_pick.min(layers);
        let mut partial = stack(seed, convs, denses, frozen, also_frozen);
        let mut full = stack(seed, convs, denses, frozen, also_frozen);
        let mut rng = Pcg32::seed_from(seed ^ 0xBAC);
        // Two accumulating passes: the second starts from preloaded grads.
        for _ in 0..2 {
            let x = Tensor::randn(&[3, 2, 4, 5], &mut rng);
            let labels = [0usize, 1, 2];
            let (_, grad) = softmax_cross_entropy(&partial.forward(&x, true), &labels);
            partial.backward(&grad);
            let (_, grad_full) = softmax_cross_entropy(&full.forward_keep_all(&x), &labels);
            prop_assert_eq!(&grad, &grad_full);
            let dx = full.backward_to_input(&grad_full);
            prop_assert_eq!(dx.shape(), x.shape());
        }
        let (got, want) = (grads(&partial), grads(&full));
        let first_trainable = got.iter().position(|(frozen, _)| !frozen);
        for (i, ((is_frozen, g), (_, w))) in got.iter().zip(&want).enumerate() {
            if !is_frozen {
                prop_assert_eq!(g, w, "trainable param {} differs", i);
            } else if first_trainable.is_none_or(|t| i < t) {
                // The frozen prefix is never entered.
                prop_assert!(g.iter().all(|&b| b == 0), "prefix param {} touched", i);
            } else {
                // A frozen layer behind a trainable one is still on the path.
                prop_assert_eq!(g, w, "mid-stack frozen param {} differs", i);
            }
        }
    }
}
