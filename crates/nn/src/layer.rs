//! The layer abstraction: explicit forward/backward with cached state.

use rpol_tensor::scratch::{self, ScratchArena};
use rpol_tensor::Tensor;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Gradient accumulated by the latest backward pass.
    pub grad: Tensor,
    /// Frozen parameters are part of the model's weight vector (hashed,
    /// checkpointed, distance-compared) but skipped by optimizers — how
    /// RPoL keeps its non-trainable AMLayer weights verifiable on chain.
    pub frozen: bool,
}

impl Param {
    /// Wraps a tensor as a parameter with zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        Self {
            value,
            grad,
            frozen: false,
        }
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A neural-network layer with explicit gradients.
///
/// The contract mirrors classic define-by-hand frameworks, with one pass
/// per direction and every buffer drawn from the caller's [`ScratchArena`]:
///
/// * [`Layer::forward`] consumes a batch-first input (`[N, features]` or
///   `[N, C, H, W]`), keeps what its backward reads when training, and
///   returns the output;
/// * [`Layer::backward`] consumes `∂L/∂output`, accumulates `∂L/∂params`
///   into its [`Param`]s, and returns `∂L/∂input`
///   ([`Layer::backward_params`] is the same minus the return);
/// * parameter traversal ([`Layer::visit_params`]/[`Layer::visit_params_mut`])
///   exposes parameters in a stable, deterministic order so optimizers can
///   key per-parameter state by index and RPoL can flatten the model into
///   one weight vector for hashing and distance measurement.
///
/// Every entry point of one direction gives the same bits and the same
/// random draws; only what is kept and which buffer is reused differ.
/// Frozen layers (like RPoL's AMLayer) simply expose no parameters.
///
/// `Send + Sync` are supertraits so models can move between (and be read
/// from) worker threads in the parallel pool runtime; layers are plain
/// data and satisfy both trivially.
pub trait Layer: Send + Sync {
    /// Runs the layer on a batch, its output drawn from `arena`. `train`
    /// keeps what backward reads; inference leaves the kept state alone.
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor;

    /// [`Layer::forward`] on an owned `input`: a layer that keeps its input
    /// for backward keeps this very buffer instead of a copy, and a layer
    /// that does not hands it to `arena` once read. What
    /// [`crate::model::Sequential`] calls for every layer after the first,
    /// so each activation exists once.
    fn forward_owned(&mut self, input: Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        let y = self.forward(&input, train, arena);
        arena.recycle(input.into_vec());
        y
    }

    /// A training forward whose backward never runs — a layer of the
    /// frozen prefix [`crate::model::Sequential::backward`] never enters:
    /// the bits and the draws of `forward(input, true, arena)`, keeping
    /// nothing. The default runs that forward and [`Layer::release`]s what
    /// it kept; a layer whose training forward differs from its inference
    /// one only in what it keeps overrides it to keep nothing in the first
    /// place.
    fn forward_frozen(&mut self, input: &Tensor, arena: &mut ScratchArena) -> Tensor {
        let y = self.forward(input, true, arena);
        self.release(arena);
        y
    }

    /// Ends a pass: hands whatever the layer kept for backward to `arena`,
    /// so between passes it holds only its parameters. A later `backward`
    /// needs a training-mode forward first.
    fn release(&mut self, arena: &mut ScratchArena) {
        let _ = arena;
    }

    /// Bytes the layer keeps for backward.
    fn held_bytes(&self) -> usize {
        0
    }

    /// Back-propagates `grad_out`, accumulating parameter gradients; the
    /// input gradient is drawn from `arena`.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before a training-mode forward pass.
    fn backward(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor;

    /// Accumulates `∂L/∂params` exactly as [`Layer::backward`] does,
    /// without producing `∂L/∂input` — what a model asks of its first
    /// trainable layer, whose input gradient nobody reads. The default runs
    /// the full backward and recycles the result; layers whose input
    /// gradient is separable work override it to skip that.
    fn backward_params(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) {
        let dx = self.backward(grad_out, arena);
        arena.recycle(dx.into_vec());
    }

    /// Visits all parameters in deterministic order.
    fn visit_params(&self, f: &mut dyn FnMut(&Param));

    /// Visits all parameters mutably in deterministic order (same order as
    /// [`Layer::visit_params`]).
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Zeroes all parameter gradients.
    fn zero_grads(&mut self) {
        self.visit_params_mut(&mut |p| p.zero_grad());
    }

    /// Re-derives any internal randomness (e.g. dropout masks) from
    /// `seed`. Deterministic layers ignore this; stochastic layers MUST
    /// honour it so that replay verification can reproduce a training
    /// segment exactly from `(weights, nonce, step)`.
    fn reseed(&mut self, seed: u64) {
        let _ = seed;
    }
}

/// Hands what a layer kept for backward to `arena` — first thing in a
/// training forward, so the layer's output can reuse the buffer.
pub(crate) fn drop_kept(slot: &mut Option<Tensor>, arena: &mut ScratchArena) {
    if let Some(kept) = slot.take() {
        arena.recycle(kept.into_vec());
    }
}

/// What a layer keeps for backward: `input` goes into `slot` when
/// training and back to `arena` otherwise (an inference pass leaves
/// `slot` alone).
pub(crate) fn keep(
    slot: &mut Option<Tensor>,
    input: Tensor,
    train: bool,
    arena: &mut ScratchArena,
) {
    if train {
        *slot = Some(input);
    } else {
        arena.recycle(input.into_vec());
    }
}

/// [`keep`] for an input the layer only borrows: when training, a copy
/// drawn from `arena`.
pub(crate) fn keep_copy(
    slot: &mut Option<Tensor>,
    input: &Tensor,
    train: bool,
    arena: &mut ScratchArena,
) {
    if train {
        drop_kept(slot, arena);
        *slot = Some(copy_of(input, arena));
    }
}

/// A copy of `input` in a buffer drawn from `arena`: how a layer that
/// works in place ([`Layer::forward_owned`]) runs on a borrowed input.
pub(crate) fn copy_of(input: &Tensor, arena: &mut ScratchArena) -> Tensor {
    let mut copy = arena.take_empty(input.len());
    copy.extend_from_slice(input.data());
    Tensor::from_vec(input.shape().dims(), copy)
}

/// `kept`, emptied, when it has room for `len` bytes; else a buffer from
/// the process pool, and `kept` goes back to it. Where a layer's byte-wide
/// record of a training forward (a ReLU gate, a max-pool argmax) lives.
pub(crate) fn byte_slot(kept: Option<Vec<u8>>, len: usize) -> Vec<u8> {
    match kept {
        Some(mut buf) if buf.capacity() >= len => {
            buf.clear();
            buf
        }
        other => {
            other.into_iter().for_each(scratch::put);
            scratch::take_empty(len)
        }
    }
}

/// Bytes of an `f32` tensor a layer keeps, if any.
pub(crate) fn kept_bytes(slot: &Option<Tensor>) -> usize {
    slot.as_ref().map_or(0, |t| 4 * t.len())
}

/// Reshapes `[N, C, H, W]` (or any rank ≥ 2) into `[N, features]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self { input_dims: None }
    }

    /// The `[N, features]` shape of `input`, noting its own for backward.
    fn flat_dims(&mut self, input: &Tensor, train: bool) -> [usize; 2] {
        let dims = input.shape().dims();
        assert!(dims.len() >= 2, "flatten expects a batch dimension");
        if train {
            self.input_dims = Some(dims.to_vec());
        }
        [dims[0], dims[1..].iter().product()]
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        self.forward_owned(copy_of(input, arena), train, arena)
    }

    /// Reshapes in place: the output is the input's own buffer.
    fn forward_owned(&mut self, input: Tensor, train: bool, _arena: &mut ScratchArena) -> Tensor {
        let dims = self.flat_dims(&input, train);
        Tensor::from_vec(&dims, input.into_vec())
    }

    /// The reshape's copy, into a buffer drawn from `arena`.
    fn backward(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        let dims = self
            .input_dims
            .as_ref()
            .expect("backward before forward on Flatten");
        Tensor::from_vec(dims, copy_of(grad_out, arena).into_vec())
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}

    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::ones(&[3]));
        p.grad = Tensor::from_vec(&[3], vec![2.0; 3]);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0, 0.0]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut fl = Flatten::new();
        let mut arena = ScratchArena::new();
        let x = Tensor::from_vec(&[2, 2, 2, 2], (0..16).map(|i| i as f32).collect());
        let y = fl.forward(&x, true, &mut arena);
        assert_eq!(y.shape().dims(), &[2, 8]);
        let back = fl.backward(&y, &mut arena);
        assert_eq!(back, x);
        assert_eq!(fl.param_count(), 0);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn flatten_backward_requires_forward() {
        let mut fl = Flatten::new();
        fl.backward(&Tensor::ones(&[1, 4]), &mut ScratchArena::new());
    }
}
