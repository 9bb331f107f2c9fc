//! Sequential model container and weight-vector flattening.

use crate::layer::{Layer, Param};
use crate::optim::Optimizer;
use rpol_tensor::scratch::{self, ScratchArena};
use rpol_tensor::Tensor;

/// A sequential stack of layers.
///
/// Beyond forward/backward chaining, `Sequential` provides the operations
/// RPoL's protocol needs on whole models:
///
/// * [`Sequential::flatten_params`] — the model as one `Vec<f32>` in
///   deterministic layer order, the unit that is checkpointed, hashed,
///   LSH-signed and distance-compared;
/// * [`Sequential::load_params`] — restore a model from such a vector
///   (used by the verifier to replay from a checkpoint's input weights);
/// * [`Sequential::step`] — apply an [`Optimizer`] to every parameter.
///
/// # Examples
///
/// ```
/// use rpol_nn::prelude::*;
/// use rpol_tensor::rng::Pcg32;
///
/// let mut rng = Pcg32::seed_from(0);
/// let model = Sequential::new(vec![
///     Box::new(Dense::new(4, 8, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Dense::new(8, 2, &mut rng)),
/// ]);
/// assert_eq!(model.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Recycles intermediate activation/gradient buffers between layers
    /// and across steps during a pass, empty between passes; purely a
    /// memory optimization, invisible to the computed values (and
    /// therefore to checkpoint digests).
    arena: ScratchArena,
}

impl Sequential {
    /// Builds a model from an ordered layer list.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(!layers.is_empty(), "model needs at least one layer");
        Self {
            layers,
            arena: ScratchArena::new(),
        }
    }

    /// Inserts a layer at the front (how RPoL prepends the AMLayer).
    pub fn push_front(&mut self, layer: Box<dyn Layer>) {
        self.layers.insert(0, layer);
    }

    /// Removes and returns the front layer (used by the address-replacing
    /// attack to swap AMLayers).
    ///
    /// # Panics
    ///
    /// Panics if the model would become empty.
    pub fn pop_front(&mut self) -> Box<dyn Layer> {
        assert!(self.layers.len() > 1, "cannot remove the only layer");
        self.layers.remove(0)
    }

    /// Forward pass through all layers. Each activation is handed to the
    /// layer that reads it, which keeps it for backward or recycles it:
    /// a training forward holds every activation [`Sequential::backward`]
    /// reads once, and steady-state passes reuse scratch buffers instead
    /// of allocating per layer. The frozen prefix that backward never
    /// enters (RPoL's AMLayer) keeps nothing ([`Layer::forward_frozen`]);
    /// [`Sequential::forward_keep_all`] is the training forward for
    /// [`Sequential::backward_to_input`].
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let frozen = if train {
            self.first_trainable().unwrap_or(self.layers.len())
        } else {
            0
        };
        self.forward_from(input, train, frozen)
    }

    /// A training forward in which every layer, the frozen prefix too,
    /// keeps what its backward reads: what
    /// [`Sequential::backward_to_input`] needs. Same output bits and draws
    /// as `forward(input, true)`.
    pub fn forward_keep_all(&mut self, input: &Tensor) -> Tensor {
        self.forward_from(input, true, 0)
    }

    /// The forward with its first `frozen` layers run by
    /// [`Layer::forward_frozen`].
    fn forward_from(&mut self, input: &Tensor, train: bool, frozen: usize) -> Tensor {
        if rpol_obs::global_enabled() {
            rpol_obs::global().counter_add("nn.model.forwards", 1);
        }
        let arena = &mut self.arena;
        let mut x: Option<Tensor> = None;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let y = match x.take() {
                None if i < frozen => layer.forward_frozen(input, arena),
                None => layer.forward(input, train, arena),
                Some(x) if i < frozen => {
                    let y = layer.forward_frozen(&x, arena);
                    arena.recycle(x.into_vec());
                    y
                }
                Some(x) => layer.forward_owned(x, train, arena),
            };
            x = Some(y);
        }
        x.expect("model needs at least one layer")
    }

    /// Index of the first layer that owns a non-frozen [`Param`], if any:
    /// where [`Sequential::backward`] stops.
    fn first_trainable(&self) -> Option<usize> {
        self.layers.iter().position(|l| {
            let mut trainable = false;
            l.visit_params(&mut |p| trainable |= !p.frozen);
            trainable
        })
    }

    /// Bytes the layers keep for backward — the activations (or their
    /// gates) of the last training forward, until [`Sequential::end_pass`].
    pub fn held_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.held_bytes()).sum()
    }

    /// Ends a pass — a training run, a replayed segment, an evaluation
    /// batch: every layer hands what it kept for backward to the scratch
    /// arena, whose epoch-sized buffers are in the process pool
    /// ([`rpol_tensor::scratch`]) for any thread's next pass, and the
    /// model drops the arena's small ones. Between passes a model holds
    /// only its parameters.
    pub fn end_pass(&mut self) {
        for layer in &mut self.layers {
            layer.release(&mut self.arena);
        }
        self.arena = ScratchArena::new();
    }

    /// The parameter-gradient pass: back-propagates `grad_out` from the
    /// last layer down to the first layer (from the front) that owns a
    /// non-frozen [`Param`], accumulating `∂L/∂params` on the way. That
    /// layer is asked for parameter gradients only, and a frozen prefix in
    /// front of it (RPoL's AMLayer) is never entered: its gradients would
    /// be discarded by [`Sequential::step`] and `∂L/∂input` has no reader
    /// in a training step. The trainable parameters' gradients are
    /// bitwise those [`Sequential::backward_to_input`] leaves.
    pub fn backward(&mut self, grad_out: &Tensor) {
        if rpol_obs::global_enabled() {
            rpol_obs::global().counter_add("nn.model.backwards", 1);
        }
        let Some(first) = self.first_trainable() else {
            return;
        };
        let (head, tail) = self.layers[first..]
            .split_first_mut()
            .expect("position is in range");
        let g = backward_chain(tail, grad_out, &mut self.arena);
        head.backward_params(g.as_ref().unwrap_or(grad_out), &mut self.arena);
        if let Some(spent) = g {
            self.arena.recycle(spent.into_vec());
        }
    }

    /// The full backward chain through every layer, frozen or not:
    /// accumulates all parameter gradients and returns `∂L/∂input` — for
    /// gradient checks and input-space attacks. It needs
    /// [`Sequential::forward_keep_all`] first; training uses
    /// [`Sequential::backward`].
    pub fn backward_to_input(&mut self, grad_out: &Tensor) -> Tensor {
        backward_chain(&mut self.layers, grad_out, &mut self.arena)
            .expect("model needs at least one layer")
    }

    /// Applies the optimizer to every non-frozen parameter and zeroes
    /// every gradient, returning the step's Euclidean length: the squared
    /// moves of the trainable weights, summed in `f64` in flattening order
    /// by the update that writes them ([`Optimizer::update`]). Frozen
    /// parameters (e.g. RPoL's AMLayer weights) keep their values but
    /// still occupy an optimizer index so state stays aligned if a layer
    /// is later unfrozen.
    pub fn step(&mut self, opt: &mut dyn Optimizer) -> f32 {
        let (mut index, mut sq_step) = (0, 0.0f64);
        for layer in &mut self.layers {
            layer.visit_params_mut(&mut |p| {
                if p.frozen {
                    p.zero_grad();
                } else {
                    opt.update(index, p, &mut sq_step);
                }
                index += 1;
            });
        }
        sq_step.sqrt() as f32
    }

    /// Reseeds every stochastic layer (see [`Layer::reseed`]).
    pub fn reseed(&mut self, seed: u64) {
        for layer in &mut self.layers {
            layer.reseed(seed);
        }
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Number of scalar parameters the optimizer moves (not frozen).
    pub fn trainable_count(&self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p| {
            if !p.frozen {
                count += p.len();
            }
        });
        count
    }

    /// Flattens all parameters into one vector, in deterministic layer
    /// order. This is the paper's "model weights θ". The vector comes from
    /// the process pool ([`rpol_tensor::scratch`]); a caller done with it
    /// may put it back.
    pub fn flatten_params(&self) -> Vec<f32> {
        let mut out = scratch::take_empty(self.param_count());
        for layer in &self.layers {
            layer.visit_params(&mut |p| out.extend_from_slice(p.value.data()));
        }
        out
    }

    /// Restores all parameters from a flat vector produced by
    /// [`Sequential::flatten_params`] on an identically shaped model.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` does not equal [`Sequential::param_count`].
    pub fn load_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat vector length {} does not match model parameter count {}",
            flat.len(),
            self.param_count()
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            layer.visit_params_mut(&mut |p| {
                let n = p.len();
                p.value
                    .data_mut()
                    .copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            });
        }
    }

    /// Visits all parameters immutably in flattening order.
    pub fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        for layer in &self.layers {
            layer.visit_params(f);
        }
    }

    /// Visits all parameters mutably in flattening order.
    pub fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params_mut(f);
        }
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sequential({} layers, {} params)",
            self.layers.len(),
            self.param_count()
        )
    }
}

/// Full backward through `layers`, last to first, recycling each
/// intermediate gradient once the next layer has consumed it. Returns the
/// gradient with respect to the first layer's input, or `None` for an
/// empty slice.
fn backward_chain(
    layers: &mut [Box<dyn Layer>],
    grad_out: &Tensor,
    arena: &mut ScratchArena,
) -> Option<Tensor> {
    let mut g: Option<Tensor> = None;
    for layer in layers.iter_mut().rev() {
        let g_next = layer.backward(g.as_ref().unwrap_or(grad_out), arena);
        if let Some(spent) = g.replace(g_next) {
            arena.recycle(spent.into_vec());
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use crate::dropout::Dropout;
    use crate::loss::softmax_cross_entropy;
    use crate::norm::LayerNorm;
    use crate::optim::Sgd;
    use rpol_tensor::rng::Pcg32;

    fn small_model(seed: u64) -> Sequential {
        let mut rng = Pcg32::seed_from(seed);
        Sequential::new(vec![
            Box::new(Dense::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ])
    }

    #[test]
    fn flatten_load_roundtrip() {
        let m1 = small_model(1);
        let mut m2 = small_model(2);
        let flat = m1.flatten_params();
        assert_eq!(flat.len(), m1.param_count());
        m2.load_params(&flat);
        assert_eq!(m2.flatten_params(), flat);
    }

    #[test]
    fn loaded_models_agree_on_outputs() {
        let mut m1 = small_model(1);
        let mut m2 = small_model(2);
        m2.load_params(&m1.flatten_params());
        let mut rng = Pcg32::seed_from(9);
        let x = Tensor::randn(&[3, 4], &mut rng);
        assert_eq!(m1.forward(&x, false), m2.forward(&x, false));
    }

    #[test]
    fn training_reduces_loss() {
        let mut model = small_model(3);
        let mut opt = Sgd::new(0.5);
        let mut rng = Pcg32::seed_from(4);
        let x = Tensor::randn(&[16, 4], &mut rng);
        let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();
        let logits = model.forward(&x, true);
        let (loss0, _) = softmax_cross_entropy(&logits, &labels);
        for _ in 0..50 {
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            model.backward(&grad);
            model.step(&mut opt);
        }
        let logits = model.forward(&x, false);
        let (loss1, _) = softmax_cross_entropy(&logits, &labels);
        assert!(loss1 < loss0 * 0.5, "loss {loss0} -> {loss1}");
    }

    #[test]
    fn training_is_deterministic() {
        let run = || {
            let mut model = small_model(5);
            let mut opt = Sgd::new(0.1);
            let mut rng = Pcg32::seed_from(6);
            let x = Tensor::randn(&[8, 4], &mut rng);
            let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
            for _ in 0..10 {
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &labels);
                model.backward(&grad);
                model.step(&mut opt);
            }
            model.flatten_params()
        };
        assert_eq!(run(), run());
    }

    /// Task P's dense head: every kind of layer that keeps something for
    /// backward, and none that needs scratch of its own.
    fn head(seed: u64) -> Sequential {
        let mut rng = Pcg32::seed_from(seed);
        Sequential::new(vec![
            Box::new(Dense::new(12, 16, &mut rng)),
            Box::new(LayerNorm::new(16)),
            Box::new(Relu::new()),
            Box::new(Dropout::new(0.2, 7)),
            Box::new(Dense::new(16, 3, &mut rng)),
        ])
    }

    /// `steps` training steps on one batch, ending the pass after each
    /// `segment` of them when asked to; returns the weights.
    fn train(model: &mut Sequential, steps: usize, segment: Option<usize>) -> Vec<f32> {
        let x = Tensor::randn(&[8, 12], &mut Pcg32::seed_from(2));
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let mut opt = Sgd::new(0.1);
        for s in 1..=steps {
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            model.backward(&grad);
            model.step(&mut opt);
            if segment.is_some_and(|len| s % len == 0) {
                model.end_pass();
            }
        }
        model.flatten_params()
    }

    #[test]
    fn between_passes_a_model_holds_only_its_parameters() {
        let mut model = head(1);
        let start = model.flatten_params();
        // `LocalTrainer::run_epoch`: steps from the current weights.
        train(&mut model, 3, None);
        assert!(model.held_bytes() > 0, "a training step keeps activations");
        model.end_pass();
        assert_eq!(model.held_bytes(), 0, "after an epoch");
        assert_eq!(model.arena.pooled(), 0, "and no scratch");
        // `replay_segment`: load a checkpoint, train, end.
        model.load_params(&start);
        train(&mut model, 2, Some(2));
        assert_eq!(model.held_bytes(), 0, "after a replayed segment");
        // An evaluation batch.
        model.forward(&Tensor::ones(&[4, 12]), false);
        model.end_pass();
        assert_eq!(model.held_bytes(), 0, "after an eval forward");
        assert_eq!(model.arena.pooled(), 0);
    }

    #[test]
    fn a_training_forward_holds_each_activation_once() {
        let mut model = head(3);
        let logits = model.forward(&Tensor::randn(&[8, 12], &mut Pcg32::seed_from(4)), true);
        assert_eq!(logits.len(), 8 * 3);
        // The first layer copies the batch it borrows; every later one
        // keeps the activation it was handed (LayerNorm with its row
        // statistics), except that ReLU keeps a byte per element and
        // Dropout its mask …
        assert_eq!(
            model.held_bytes(),
            4 * (8 * 12) + 4 * (8 * 16 + 2 * 8) + 8 * 16 + 4 * (8 * 16) + 4 * (8 * 16)
        );
        // … and no second copy of any of them waits in the scratch.
        assert_eq!(model.arena.pooled(), 0);
    }

    #[test]
    fn ending_passes_moves_no_bit() {
        let whole = train(&mut head(5), 6, None);
        let segmented = train(&mut head(5), 6, Some(2));
        assert_eq!(whole, segmented);
    }

    #[test]
    fn push_pop_front() {
        let mut model = small_model(7);
        let n = model.param_count();
        let mut rng = Pcg32::seed_from(8);
        model.push_front(Box::new(Dense::new(4, 4, &mut rng)));
        assert_eq!(model.param_count(), n + 20);
        model.pop_front();
        assert_eq!(model.param_count(), n);
    }

    #[test]
    #[should_panic(expected = "does not match model parameter count")]
    fn load_length_checked() {
        small_model(0).load_params(&[0.0; 3]);
    }
}
