//! The four optimizers the paper evaluates (§VII-C): SGD, SGD with
//! momentum (the paper's default, lr 0.1, momentum 0.9), RMSprop and Adam.
//!
//! Optimizers are driven by [`crate::model::Sequential::step`], which
//! visits parameters in deterministic order; per-parameter state is keyed
//! by that visitation index.
//!
//! An update is the step's only pass over a parameter: as it writes each
//! weight it adds the squared move `((old − new) as f64)²` to the caller's
//! accumulator and zeroes the gradient it read, so the step's Euclidean
//! length needs no copy of the weights from before it.

use crate::layer::Param;
use rpol_tensor::scratch;
use serde::Serialize;

/// An optimizer updating one parameter per call, identified by a stable
/// index.
///
/// Implementations lazily allocate per-parameter state the first time an
/// index is seen; parameter order must therefore be stable across steps
/// (guaranteed by [`crate::model::Sequential`]).
pub trait Optimizer {
    /// Applies one update to parameter `index` using its accumulated
    /// gradient, zeroing the gradient and adding each weight's squared
    /// move `((old − new) as f64)²` to `sq_step`, in element order.
    fn update(&mut self, index: usize, param: &mut Param, sq_step: &mut f64);

    /// The nominal learning rate (for reporting).
    fn learning_rate(&self) -> f32;

    /// A short human-readable name (e.g. `"sgdm"`).
    fn name(&self) -> &'static str;
}

/// Identifies an optimizer family plus hyper-parameters; the pool manager
/// broadcasts this so workers and verifier run the *same* update rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum OptimizerSpec {
    /// Plain stochastic gradient descent.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// SGD with classical momentum (the paper's default: 0.1 / 0.9).
    SgdMomentum {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient.
        momentum: f32,
    },
    /// RMSprop.
    RmsProp {
        /// Learning rate.
        lr: f32,
        /// Squared-gradient decay.
        decay: f32,
    },
    /// Adam.
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
    },
}

impl OptimizerSpec {
    /// The paper's default optimizer: SGDM with lr 0.1, momentum 0.9.
    pub fn paper_default() -> Self {
        OptimizerSpec::SgdMomentum {
            lr: 0.1,
            momentum: 0.9,
        }
    }

    /// Instantiates the optimizer.
    pub fn build(&self) -> Box<dyn Optimizer> {
        match *self {
            OptimizerSpec::Sgd { lr } => Box::new(Sgd::new(lr)),
            OptimizerSpec::SgdMomentum { lr, momentum } => Box::new(SgdMomentum::new(lr, momentum)),
            OptimizerSpec::RmsProp { lr, decay } => Box::new(RmsProp::new(lr, decay)),
            OptimizerSpec::Adam { lr, beta1, beta2 } => Box::new(Adam::new(lr, beta1, beta2)),
        }
    }
}

/// Writes `new` over the weight `w`, adds its squared move to `sq_step`
/// and zeroes the gradient `g` the move was computed from.
#[inline(always)]
fn write(w: &mut f32, g: &mut f32, new: f32, sq_step: &mut f64) {
    let d = (*w - new) as f64;
    *sq_step += d * d;
    *w = new;
    *g = 0.0;
}

fn check_lr(lr: f32) {
    assert!(
        lr.is_finite() && lr > 0.0,
        "learning rate must be positive, got {lr}"
    );
}

/// Plain SGD: `θ ← θ − η·g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates plain SGD.
    ///
    /// # Panics
    ///
    /// Panics unless `lr > 0`.
    pub fn new(lr: f32) -> Self {
        check_lr(lr);
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn update(&mut self, _index: usize, param: &mut Param, sq_step: &mut f64) {
        let lr = self.lr;
        for (w, g) in param.value.data_mut().iter_mut().zip(param.grad.data_mut()) {
            write(w, g, *w - lr * *g, sq_step);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn name(&self) -> &'static str {
        "sgd"
    }
}

/// Per-parameter optimizer state: one buffer per parameter index, zeroed
/// when first sized, drawn from and — when the optimizer drops, at the end
/// of every segment — returned to the process pool.
#[derive(Debug, Clone, Default)]
struct State(Vec<Vec<f32>>);

impl State {
    /// Parameter `index`'s state, `len` floats.
    fn slot(&mut self, index: usize, len: usize) -> &mut [f32] {
        if self.0.len() <= index {
            self.0.resize_with(index + 1, Vec::new);
        }
        let s = &mut self.0[index];
        if s.is_empty() {
            *s = scratch::take_zeroed(len);
        } else if s.len() != len {
            s.resize(len, 0.0);
        }
        s
    }
}

impl Drop for State {
    fn drop(&mut self) {
        self.0.drain(..).for_each(scratch::put);
    }
}

/// SGD with classical momentum: `v ← μ·v + g; θ ← θ − η·v`.
#[derive(Debug, Clone)]
pub struct SgdMomentum {
    lr: f32,
    momentum: f32,
    velocity: State,
}

impl SgdMomentum {
    /// Creates SGDM.
    ///
    /// # Panics
    ///
    /// Panics unless `lr > 0` and `0 ≤ momentum < 1`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        check_lr(lr);
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum must be in [0, 1), got {momentum}"
        );
        Self {
            lr,
            momentum,
            velocity: State::default(),
        }
    }
}

impl Optimizer for SgdMomentum {
    fn update(&mut self, index: usize, param: &mut Param, sq_step: &mut f64) {
        let v = self.velocity.slot(index, param.len());
        let (lr, mu) = (self.lr, self.momentum);
        for ((w, g), vi) in param
            .value
            .data_mut()
            .iter_mut()
            .zip(param.grad.data_mut())
            .zip(v.iter_mut())
        {
            *vi = mu * *vi + *g;
            write(w, g, *w - lr * *vi, sq_step);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn name(&self) -> &'static str {
        "sgdm"
    }
}

/// RMSprop: `s ← ρ·s + (1−ρ)·g²; θ ← θ − η·g/(√s + ε)`.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
    decay: f32,
    eps: f32,
    sq_avg: State,
}

impl RmsProp {
    /// Creates RMSprop.
    ///
    /// # Panics
    ///
    /// Panics unless `lr > 0` and `0 < decay < 1`.
    pub fn new(lr: f32, decay: f32) -> Self {
        check_lr(lr);
        assert!((0.0..1.0).contains(&decay) && decay > 0.0, "decay in (0,1)");
        Self {
            lr,
            decay,
            eps: 1e-8,
            sq_avg: State::default(),
        }
    }
}

impl Optimizer for RmsProp {
    fn update(&mut self, index: usize, param: &mut Param, sq_step: &mut f64) {
        let s = self.sq_avg.slot(index, param.len());
        let (lr, rho, eps) = (self.lr, self.decay, self.eps);
        for ((w, g), si) in param
            .value
            .data_mut()
            .iter_mut()
            .zip(param.grad.data_mut())
            .zip(s.iter_mut())
        {
            *si = rho * *si + (1.0 - rho) * *g * *g;
            write(w, g, *w - lr * *g / (si.sqrt() + eps), sq_step);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn name(&self) -> &'static str {
        "rmsprop"
    }
}

/// Adam with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: State,
    v: State,
    /// Index of the first parameter seen each step, used to advance `t`
    /// exactly once per optimization step.
    first_index: Option<usize>,
}

impl Adam {
    /// Creates Adam.
    ///
    /// # Panics
    ///
    /// Panics unless `lr > 0` and both betas are in `(0, 1)`.
    pub fn new(lr: f32, beta1: f32, beta2: f32) -> Self {
        check_lr(lr);
        assert!((0.0..1.0).contains(&beta1) && beta1 > 0.0, "beta1 in (0,1)");
        assert!((0.0..1.0).contains(&beta2) && beta2 > 0.0, "beta2 in (0,1)");
        Self {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
            m: State::default(),
            v: State::default(),
            first_index: None,
        }
    }
}

impl Optimizer for Adam {
    fn update(&mut self, index: usize, param: &mut Param, sq_step: &mut f64) {
        // Advance the timestep when we revisit the first parameter.
        match self.first_index {
            None => {
                self.first_index = Some(index);
                self.t = 1;
            }
            Some(first) if first == index => self.t += 1,
            _ => {}
        }
        let (lr, b1, b2, eps, t) = (self.lr, self.beta1, self.beta2, self.eps, self.t);
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        let (ms, vs) = (
            self.m.slot(index, param.len()),
            self.v.slot(index, param.len()),
        );
        for (((w, g), mi), vi) in param
            .value
            .data_mut()
            .iter_mut()
            .zip(param.grad.data_mut())
            .zip(ms.iter_mut())
            .zip(vs.iter_mut())
        {
            *mi = b1 * *mi + (1.0 - b1) * *g;
            *vi = b2 * *vi + (1.0 - b2) * *g * *g;
            let m_hat = *mi / bc1;
            let v_hat = *vi / bc2;
            write(w, g, *w - lr * m_hat / (v_hat.sqrt() + eps), sq_step);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn name(&self) -> &'static str {
        "adam"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_tensor::Tensor;

    fn quadratic_param(start: f32) -> Param {
        Param::new(Tensor::from_vec(&[1], vec![start]))
    }

    /// Runs `steps` of minimizing f(w) = w² (gradient 2w) and returns the
    /// final |w|.
    fn minimize(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut p = quadratic_param(5.0);
        for _ in 0..steps {
            let w = p.value.data()[0];
            p.grad.data_mut()[0] = 2.0 * w;
            opt.update(0, &mut p, &mut 0.0);
        }
        p.value.data()[0].abs()
    }

    #[test]
    fn all_optimizers_minimize_quadratic() {
        assert!(minimize(&mut Sgd::new(0.1), 100) < 1e-3);
        assert!(minimize(&mut SgdMomentum::new(0.05, 0.9), 200) < 1e-2);
        assert!(minimize(&mut RmsProp::new(0.05, 0.9), 400) < 0.05);
        assert!(minimize(&mut Adam::new(0.2, 0.9, 0.999), 400) < 0.05);
    }

    #[test]
    fn sgd_known_step() {
        let mut p = quadratic_param(1.0);
        p.grad.data_mut()[0] = 0.5;
        Sgd::new(0.1).update(0, &mut p, &mut 0.0);
        assert!((p.value.data()[0] - 0.95).abs() < 1e-7);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = SgdMomentum::new(0.1, 0.9);
        let mut p = quadratic_param(0.0);
        // Constant gradient 1: first step -0.1, second step -(0.1 * 1.9).
        p.grad.data_mut()[0] = 1.0;
        opt.update(0, &mut p, &mut 0.0);
        assert!((p.value.data()[0] + 0.1).abs() < 1e-7);
        p.grad.data_mut()[0] = 1.0;
        opt.update(0, &mut p, &mut 0.0);
        assert!((p.value.data()[0] + 0.1 + 0.19).abs() < 1e-6);
    }

    #[test]
    fn optimizers_are_deterministic() {
        let run = || {
            let mut opt = Adam::new(1e-3, 0.9, 0.999);
            let mut p = quadratic_param(2.0);
            for _ in 0..50 {
                let w = p.value.data()[0];
                p.grad.data_mut()[0] = 2.0 * w;
                opt.update(0, &mut p, &mut 0.0);
            }
            p.value.data()[0]
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spec_builds_correct_kind() {
        assert_eq!(OptimizerSpec::paper_default().build().name(), "sgdm");
        assert_eq!(OptimizerSpec::Sgd { lr: 0.1 }.build().name(), "sgd");
        assert_eq!(
            OptimizerSpec::RmsProp {
                lr: 0.01,
                decay: 0.9
            }
            .build()
            .name(),
            "rmsprop"
        );
        assert_eq!(
            OptimizerSpec::Adam {
                lr: 1e-3,
                beta1: 0.9,
                beta2: 0.999
            }
            .build()
            .name(),
            "adam"
        );
    }

    #[test]
    fn multi_param_state_is_independent() {
        let mut opt = SgdMomentum::new(0.1, 0.9);
        let mut a = quadratic_param(1.0);
        let mut b = quadratic_param(1.0);
        a.grad.data_mut()[0] = 1.0;
        b.grad.data_mut()[0] = -1.0;
        opt.update(0, &mut a, &mut 0.0);
        opt.update(1, &mut b, &mut 0.0);
        assert!((a.value.data()[0] - 0.9).abs() < 1e-7);
        assert!((b.value.data()[0] - 1.1).abs() < 1e-7);
    }

    /// Every optimizer adds exactly the squared moves of the weights it
    /// wrote, in element order, and leaves the gradient zeroed.
    #[test]
    fn updates_measure_their_step_and_zero_the_gradient() {
        let specs = [
            OptimizerSpec::Sgd { lr: 0.1 },
            OptimizerSpec::paper_default(),
            OptimizerSpec::RmsProp {
                lr: 0.01,
                decay: 0.9,
            },
            OptimizerSpec::Adam {
                lr: 1e-3,
                beta1: 0.9,
                beta2: 0.999,
            },
        ];
        for spec in specs {
            let mut opt = spec.build();
            let mut p = Param::new(Tensor::from_vec(&[5], vec![1.0, -2.0, 0.5, 3.0, 0.0]));
            for step in 0..3 {
                let before = p.value.data().to_vec();
                for (i, g) in p.grad.data_mut().iter_mut().enumerate() {
                    *g = (i as f32 - 2.0) * 0.3 + step as f32;
                }
                let mut sq = 0.25;
                opt.update(0, &mut p, &mut sq);
                let want = before
                    .iter()
                    .zip(p.value.data())
                    .fold(0.25, |acc, (&o, &n)| {
                        let d = (o - n) as f64;
                        acc + d * d
                    });
                assert_eq!(sq.to_bits(), want.to_bits(), "{} step {step}", opt.name());
                assert!(p.grad.data().iter().all(|&g| g == 0.0), "{}", opt.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn negative_lr_rejected() {
        Sgd::new(-0.1);
    }
}
