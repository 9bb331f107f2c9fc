//! The `Layer` contract, held row by row over every layer a task builds:
//! each entry point of one direction gives the bits (and the random draws)
//! of the one forward and the one backward, and a layer keeps nothing
//! once it has released its pass.
//!
//! For each row and each random input (a third of it exact `±0.0`, what a
//! ReLU feeds the next layer):
//! * `forward` and `forward_owned` give the same output bits, training and
//!   inference, and what each keeps gives the same backward bits — with an
//!   inference forward on other data in between, which keeps nothing;
//! * `forward_frozen` gives a training forward's bits, advances the layer's
//!   random stream as far (the next training forward agrees too), and
//!   leaves `held_bytes() == 0`;
//! * `backward_params` leaves the parameter gradients `backward` leaves;
//! * after `release`, `held_bytes() == 0`.

use proptest::prelude::*;
use rpol_nn::norm::LayerNorm;
use rpol_nn::prelude::*;
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::Tensor;

/// One row: a layer built from a seeded stream, and its input shape.
struct Row {
    name: &'static str,
    build: fn(&mut Pcg32) -> Box<dyn Layer>,
    input: &'static [usize],
}

const ROWS: &[Row] = &[
    Row {
        name: "Conv2d",
        build: |rng| Box::new(Conv2d::new(3, 4, 3, 1, rng)),
        input: &[2, 3, 6, 6],
    },
    Row {
        name: "Dense",
        build: |rng| Box::new(Dense::new(8, 5, rng)),
        input: &[3, 8],
    },
    Row {
        name: "Relu",
        build: |_| Box::new(Relu::new()),
        input: &[2, 3, 4, 4],
    },
    Row {
        name: "MaxPool2",
        build: |_| Box::new(MaxPool2::new()),
        input: &[2, 3, 4, 6],
    },
    Row {
        name: "AvgPool2",
        build: |_| Box::new(AvgPool2::new()),
        input: &[2, 3, 4, 6],
    },
    Row {
        name: "Flatten",
        build: |_| Box::new(Flatten::new()),
        input: &[2, 3, 4, 4],
    },
    Row {
        name: "LayerNorm",
        build: |rng| {
            let mut ln = LayerNorm::new(8);
            ln.visit_params_mut(&mut |p| {
                p.value
                    .data_mut()
                    .iter_mut()
                    .for_each(|v| *v = rng.uniform(0.5, 1.5));
            });
            Box::new(ln)
        },
        input: &[3, 8],
    },
    Row {
        name: "Dropout",
        build: |rng| Box::new(Dropout::new(0.3, rng.next_u64())),
        input: &[3, 8],
    },
    Row {
        name: "Residual",
        build: |rng| Box::new(Residual::new(Box::new(Conv2d::new(3, 3, 3, 1, rng)))),
        input: &[2, 3, 4, 4],
    },
];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

fn grads(layer: &dyn Layer) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(bits(&p.grad)));
    out
}

/// A tensor of `dims` whose entries are a third exact `±0.0`.
fn draw(dims: &[usize], rng: &mut Pcg32) -> Tensor {
    let len = dims.iter().product();
    let data = (0..len)
        .map(|_| match rng.next_below(6) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.next_normal(),
        })
        .collect();
    Tensor::from_vec(dims, data)
}

fn check(row: &Row, seed: u64) -> Result<(), TestCaseError> {
    let build = || (row.build)(&mut Pcg32::seed_from(seed));
    let mut rng = Pcg32::seed_from(seed ^ 0x5eed);
    let x = draw(row.input, &mut rng);
    let other = draw(row.input, &mut rng);
    let mut arena = ScratchArena::new();
    let name = row.name;

    // Borrowed against owned, training: same output, same backward.
    let (mut borrowed, mut owned) = (build(), build());
    let y = borrowed.forward(&x, true, &mut arena);
    let y_owned = owned.forward_owned(x.clone(), true, &mut arena);
    prop_assert_eq!(bits(&y), bits(&y_owned), "{} training forward", name);
    let g = draw(y.shape().dims(), &mut rng);
    for layer in [&mut borrowed, &mut owned] {
        let eval = layer.forward(&other, false, &mut arena);
        let eval_owned = layer.forward_owned(other.clone(), false, &mut arena);
        prop_assert_eq!(bits(&eval), bits(&eval_owned), "{} inference forward", name);
    }
    let dx = borrowed.backward(&g, &mut arena);
    prop_assert_eq!(
        bits(&dx),
        bits(&owned.backward(&g, &mut arena)),
        "{} backward",
        name
    );
    prop_assert_eq!(
        grads(&*borrowed),
        grads(&*owned),
        "{} parameter gradients",
        name
    );

    // The frozen forward: a training forward's bits and draws, nothing kept.
    let mut frozen = build();
    prop_assert_eq!(
        bits(&frozen.forward_frozen(&x, &mut arena)),
        bits(&y),
        "{} frozen",
        name
    );
    prop_assert_eq!(
        frozen.held_bytes(),
        0,
        "{} keeps after a frozen forward",
        name
    );
    let next = frozen.forward(&other, true, &mut arena);
    prop_assert_eq!(
        bits(&next),
        bits(&borrowed.forward(&other, true, &mut arena)),
        "{} draws after a frozen forward",
        name
    );

    // The parameter-gradient pass leaves the full backward's gradients.
    let mut params_only = build();
    params_only.forward(&x, true, &mut arena);
    params_only.backward_params(&g, &mut arena);
    prop_assert_eq!(
        grads(&*params_only),
        grads(&*owned),
        "{} backward_params",
        name
    );

    for layer in [&mut borrowed, &mut owned, &mut frozen, &mut params_only] {
        layer.release(&mut arena);
        prop_assert_eq!(layer.held_bytes(), 0, "{} keeps after release", name);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_entry_point_gives_the_one_pass_bits(seed in any::<u64>()) {
        for row in ROWS {
            check(row, seed)?;
        }
    }
}
