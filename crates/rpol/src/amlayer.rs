//! The address-encoded mapping layer (AMLayer, §V-A).
//!
//! The pool manager prepends an address-derived mapping block to the task
//! model: a stack of residual convolutions whose weights are a
//! deterministic PRF expansion of its blockchain address, each spectrally
//! normalized (power iteration, Eq. 4) so every residual map has Lipschitz
//! constant `c < 1` — making each block an invertible 1-1 mapping (no
//! information loss, Behrmann et al.) and the stack a composition of
//! invertible maps. The layer is frozen during training; any consensus
//! node can recompute it from the claimed address and reject blocks whose
//! models encode someone else.
//!
//! Two deliberate deviations from the paper's prose (DESIGN.md §6):
//!
//! * §VII-B describes a 3-in/64-out convolution, but an invertible
//!   *residual* map needs equal input/output dimensionality; we keep
//!   `channels → channels`.
//! * Because the identity skip passes the raw input through, a *single*
//!   residual block with small `c` contributes too little for an
//!   address swap to destroy accuracy. The default is therefore a stack
//!   of [`AmLayerSpec::DEFAULT_DEPTH`] blocks at `c = 0.8`: still
//!   invertible block-by-block, but the thief's perturbation compounds
//!   across the stack, reproducing the paper's Table I collapse (an
//!   ~50-point accuracy drop at mini-model scale; the clean-accuracy cost
//!   of a few points is a miniaturization artifact — see EXPERIMENTS.md).

use rpol_crypto::{Address, Prf};
use rpol_nn::conv::Conv2d;
use rpol_nn::layer::{Layer, Param};
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::Tensor;

/// Geometry of an AMLayer: `depth` stacked square-kernel residual
/// convolutions over `channels`-channel images.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AmLayerSpec {
    /// Image channels (input == output for invertibility).
    pub channels: usize,
    /// Kernel size (paper: 3, padding 1, stride 1).
    pub kernel: usize,
    /// Number of stacked residual blocks.
    pub depth: usize,
}

impl AmLayerSpec {
    /// Default stack depth (see the module docs).
    pub const DEFAULT_DEPTH: usize = 2;

    /// The default geometry: `depth` 3×3 residual convolutions, padding 1.
    pub fn for_channels(channels: usize) -> Self {
        Self {
            channels,
            kernel: 3,
            depth: Self::DEFAULT_DEPTH,
        }
    }

    /// Overrides the stack depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn with_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "AMLayer needs at least one block");
        self.depth = depth;
        self
    }
}

/// The address-encoded mapping layer:
/// `y = (1 + Conv_d) ∘ … ∘ (1 + Conv_1)(x)` with every `‖Conv_i‖ ≤ c < 1`.
///
/// # Examples
///
/// ```
/// use rpol::amlayer::{AmLayer, AmLayerSpec};
/// use rpol_crypto::Address;
/// use rpol_nn::layer::Layer;
/// use rpol_tensor::{scratch::ScratchArena, Tensor};
///
/// let addr = Address::from_seed(42);
/// let mut layer = AmLayer::generate(&addr, AmLayerSpec::for_channels(3), 0.9);
/// let x = Tensor::ones(&[1, 3, 8, 8]);
/// let y = layer.forward(&x, false, &mut ScratchArena::new());
/// assert_eq!(y.shape(), x.shape());
/// ```
pub struct AmLayer {
    address: Address,
    spec: AmLayerSpec,
    lipschitz_c: f32,
    blocks: Vec<Conv2d>,
}

impl AmLayer {
    /// Number of power-iteration rounds for the spectral-norm estimate.
    const POWER_ITERS: usize = 30;

    /// Generates the AMLayer for `address` with per-block scaling
    /// coefficient `c`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < c < 1`.
    pub fn generate(address: &Address, spec: AmLayerSpec, c: f32) -> Self {
        assert!(
            c > 0.0 && c < 1.0,
            "Lipschitz coefficient must be in (0, 1), got {c}"
        );
        let blocks = Self::derive_weight_stack(address, spec, c)
            .into_iter()
            .map(|weight| {
                let bias = Tensor::zeros(&[spec.channels]);
                let mut conv = Conv2d::from_parts(weight, bias, (spec.kernel - 1) / 2);
                // Freeze: the AMLayer never trains.
                conv.visit_params_mut(&mut |p| p.frozen = true);
                conv
            })
            .collect();
        Self {
            address: *address,
            spec,
            lipschitz_c: c,
            blocks,
        }
    }

    /// Derives the spectrally normalized kernel of every block: a pure
    /// function of `(address, spec, c)` (PRF expansion plus
    /// [`Self::POWER_ITERS`] power-iteration rounds per block), so any
    /// consensus node recomputes the identical tensors.
    pub fn derive_weight_stack(address: &Address, spec: AmLayerSpec, c: f32) -> Vec<Tensor> {
        let prf = Prf::new(address.as_bytes());
        (0..spec.depth)
            .map(|block| {
                let mut rng = Pcg32::seed_from(prf.derive_seed(0xA31A + block as u64));
                let ch = spec.channels;
                let k = spec.kernel;
                let mut weight = Tensor::randn(&[ch, ch, k, k], &mut rng);
                // Kaiming-style scale before normalization keeps power
                // iteration numerically comfortable.
                weight.scale((2.0 / (ch * k * k) as f32).sqrt());
                let sigma = Self::spectral_norm(&weight, &mut rng);
                // Eq. 4: scale to c/σ̃ when that shrinks the layer.
                if c / sigma < 1.0 {
                    weight.scale(c / sigma);
                }
                weight
            })
            .collect()
    }

    /// Estimates the maximum singular value of a conv kernel reshaped to
    /// `[out, in·k·k]` by power iteration (the standard spectral-norm
    /// surrogate for convolutions).
    fn spectral_norm(weight: &Tensor, rng: &mut Pcg32) -> f32 {
        let out = weight.shape().dim(0);
        let cols: usize = weight.shape().dims()[1..].iter().product();
        let w = weight.reshape(&[out, cols]);
        let wt = w.transpose();
        let mut v = Tensor::randn(&[cols], rng);
        let mut sigma = 0.0f32;
        for _ in 0..Self::POWER_ITERS {
            let u = w.matvec(&v);
            let un = u.norm().max(1e-12);
            let u = &u * (1.0 / un);
            let v2 = wt.matvec(&u);
            sigma = v2.norm();
            v = &v2 * (1.0 / sigma.max(1e-12));
        }
        sigma.max(1e-12)
    }

    /// The encoded blockchain address.
    pub fn address(&self) -> &Address {
        &self.address
    }

    /// The layer's geometry.
    pub fn spec(&self) -> AmLayerSpec {
        self.spec
    }

    /// Verifies that the leading weights of a flattened model vector are
    /// the canonical AMLayer expansion of `address`. Returns `false` when
    /// the vector is too short.
    pub fn verify_flat_prefix(flat: &[f32], address: &Address, spec: AmLayerSpec, c: f32) -> bool {
        if !(0.0..1.0).contains(&c) || c <= 0.0 {
            return false;
        }
        if flat.len() < Self::weight_count(spec) {
            return false;
        }
        let kernels = Self::derive_weight_stack(address, spec, c);
        let bias_len = spec.channels;
        let mut offset = 0;
        for kernel in kernels.iter() {
            let n = kernel.len();
            // RPoLv3 models live on the bf16 lattice: every protocol-visible
            // weight (frozen AMLayer prefix included) is snapped. Ownership
            // must survive that quantization, so a prefix equal to the
            // *lattice image* of the canonical expansion also verifies. The
            // image is still address-specific — truncation is deterministic,
            // so a different address yields a different image.
            let window = &flat[offset..offset + n];
            let exact = window == kernel.data();
            if !exact {
                let snapped = window
                    .iter()
                    .zip(kernel.data())
                    .all(|(&w, &k)| w.to_bits() == k.to_bits() & 0xFFFF_0000);
                if !snapped {
                    return false;
                }
            }
            offset += n;
            // The frozen zero bias follows each kernel in the flattening.
            if flat[offset..offset + bias_len].iter().any(|&b| b != 0.0) {
                return false;
            }
            offset += bias_len;
        }
        true
    }

    /// `x ↦ x + block(x)` through the stack, each block run by `forward`.
    fn chain(
        &mut self,
        input: &Tensor,
        arena: &mut ScratchArena,
        mut forward: impl FnMut(&mut Conv2d, &Tensor, &mut ScratchArena) -> Tensor,
    ) -> Tensor {
        let mut x: Option<Tensor> = None;
        for block in &mut self.blocks {
            let cur = x.as_ref().unwrap_or(input);
            let mut y = forward(block, cur, arena);
            assert_eq!(
                y.shape(),
                cur.shape(),
                "AMLayer blocks must preserve shape (equal channels, same-size conv)"
            );
            y += cur;
            if let Some(spent) = x.replace(y) {
                arena.recycle(spent.into_vec());
            }
        }
        x.unwrap_or_else(|| input.clone())
    }

    /// Parameter count of the whole stack (kernels + biases), all frozen.
    pub fn weight_count(spec: AmLayerSpec) -> usize {
        spec.depth * (spec.channels * spec.channels * spec.kernel * spec.kernel + spec.channels)
    }
}

impl std::fmt::Debug for AmLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AmLayer(addr {}, c {}, {} blocks, {} weights)",
            self.address,
            self.lipschitz_c,
            self.spec.depth,
            Self::weight_count(self.spec)
        )
    }
}

impl Layer for AmLayer {
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        self.chain(input, arena, |block, x, arena| {
            block.forward(x, train, arena)
        })
    }

    /// Every block's forward alone: in a model's frozen prefix the stack
    /// copies none of its inputs.
    fn forward_frozen(&mut self, input: &Tensor, arena: &mut ScratchArena) -> Tensor {
        self.chain(input, arena, |block, x, arena| {
            block.forward_frozen(x, arena)
        })
    }

    fn backward(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        // Chain through the stack in reverse; parameter gradients are
        // accumulated but never applied (frozen).
        let mut g: Option<Tensor> = None;
        for block in self.blocks.iter_mut().rev() {
            let cur = g.as_ref().unwrap_or(grad_out);
            let mut dx = block.backward(cur, arena);
            dx += cur;
            if let Some(spent) = g.replace(dx) {
                arena.recycle(spent.into_vec());
            }
        }
        g.unwrap_or_else(|| grad_out.clone())
    }

    fn release(&mut self, arena: &mut ScratchArena) {
        for block in &mut self.blocks {
            block.release(arena);
        }
    }

    fn held_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.held_bytes()).sum()
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        for block in &self.blocks {
            block.visit_params(f);
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for block in &mut self.blocks {
            block.visit_params_mut(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_tensor::stats::euclidean;

    fn spec() -> AmLayerSpec {
        AmLayerSpec::for_channels(3)
    }

    fn flat_of(layer: &AmLayer) -> Vec<f32> {
        let mut flat = Vec::new();
        layer.visit_params(&mut |p| flat.extend_from_slice(p.value.data()));
        flat
    }

    /// Task P's encoded MiniVgg16 (24×24 images, batch 16): a training
    /// forward keeps nothing in the AMLayer, which backward never enters,
    /// and a byte per element in every ReLU and max-pool.
    #[test]
    fn a_training_forward_keeps_nothing_in_the_frozen_prefix() {
        let mut task = crate::tasks::TaskConfig::task_c();
        (task.spec.height, task.spec.width) = (24, 24);
        let [c, side, batch] = [task.spec.channels, 24, task.batch_size];
        let x = Tensor::randn(&[batch, c, side, side], &mut Pcg32::seed_from(1));
        let mut model = task.build_encoded_model(&Address::from_seed(5));
        // Each forward from the same dropout seed, as a step's is.
        model.reseed(9);
        let y = model.forward(&x, true);
        let kept = model.held_bytes();
        // conv1's input 110,592 + ReLU 92,160 + conv2's input 368,640 +
        // ReLU 92,160 + max-pool 23,040 + the dense head 115,440.
        assert!(kept <= 796_032, "a training forward keeps {kept} B");
        model.reseed(9);
        let all = model.forward_keep_all(&x);
        assert_eq!(all, y, "same bits either way");
        let image = 4 * x.len();
        assert_eq!(
            model.held_bytes(),
            kept + AmLayerSpec::DEFAULT_DEPTH * image,
            "keep-all: every AMLayer block copies its input"
        );
        model.forward(&x, true);
        assert_eq!(model.held_bytes(), kept);
        let am = model.pop_front();
        assert_eq!(am.held_bytes(), 0, "the AMLayer holds nothing");
    }

    #[test]
    fn generation_is_deterministic() {
        let addr = Address::from_seed(7);
        let a = AmLayer::generate(&addr, spec(), 0.9);
        let b = AmLayer::generate(&addr, spec(), 0.9);
        assert_eq!(flat_of(&a), flat_of(&b));
    }

    #[test]
    fn different_addresses_different_layers() {
        let a = AmLayer::generate(&Address::from_seed(1), spec(), 0.9);
        let b = AmLayer::generate(&Address::from_seed(2), spec(), 0.9);
        assert_ne!(flat_of(&a), flat_of(&b));
    }

    #[test]
    fn blocks_differ_within_the_stack() {
        let layer = AmLayer::generate(&Address::from_seed(3), spec(), 0.9);
        let stack = AmLayer::derive_weight_stack(&Address::from_seed(3), spec(), 0.9);
        assert_eq!(stack.len(), AmLayerSpec::DEFAULT_DEPTH);
        assert_ne!(stack[0], stack[1]);
        assert_eq!(layer.blocks.len(), stack.len());
    }

    #[test]
    fn ownership_survives_lattice_quantization() {
        // RPoLv3 snaps every weight to the bf16 lattice; the snapped
        // prefix must still verify for the true owner and still fail for
        // anyone else.
        let addr = Address::from_seed(17);
        let layer = AmLayer::generate(&addr, spec(), 0.9);
        let mut flat = flat_of(&layer);
        rpol_tensor::quant::snap_to_bf16(&mut flat);
        assert!(AmLayer::verify_flat_prefix(&flat, &addr, spec(), 0.9));
        assert!(!AmLayer::verify_flat_prefix(
            &flat,
            &Address::from_seed(18),
            spec(),
            0.9
        ));
        // A lattice vector that is *not* the owner's image fails too.
        flat[0] = f32::from_bits(flat[0].to_bits() ^ 0x0001_0000);
        assert!(!AmLayer::verify_flat_prefix(&flat, &addr, spec(), 0.9));
    }

    #[test]
    fn verification_accepts_own_address_only() {
        let addr = Address::from_seed(3);
        let flat = flat_of(&AmLayer::generate(&addr, spec(), 0.9));
        assert!(AmLayer::verify_flat_prefix(&flat, &addr, spec(), 0.9));
        assert!(!AmLayer::verify_flat_prefix(
            &flat,
            &Address::from_seed(4),
            spec(),
            0.9
        ));
    }

    /// Each block's residual-map Lipschitz ratio, estimated on `trials`
    /// random input pairs: Eq. 3 block by block.
    fn empirical_block_lipschitz(
        layer: &mut AmLayer,
        trials: usize,
        hw: usize,
        rng: &mut Pcg32,
    ) -> Vec<f32> {
        let channels = layer.spec.channels;
        let mut arena = ScratchArena::new();
        layer
            .blocks
            .iter_mut()
            .map(|block| {
                let mut worst = 0.0f32;
                for _ in 0..trials {
                    let x1 = Tensor::randn(&[1, channels, hw, hw], rng);
                    let x2 = Tensor::randn(&[1, channels, hw, hw], rng);
                    let f1 = block.forward(&x1, false, &mut arena);
                    let f2 = block.forward(&x2, false, &mut arena);
                    let num = euclidean(f1.data(), f2.data());
                    let den = euclidean(x1.data(), x2.data()).max(1e-12);
                    worst = worst.max(num / den);
                }
                worst
            })
            .collect()
    }

    #[test]
    fn block_lipschitz_constraint_holds() {
        let mut rng = Pcg32::seed_from(5);
        let mut layer = AmLayer::generate(&Address::from_seed(5), spec(), 0.9);
        for (i, ratio) in empirical_block_lipschitz(&mut layer, 40, 8, &mut rng)
            .into_iter()
            .enumerate()
        {
            assert!(ratio < 1.0, "block {i} empirical Lipschitz {ratio} >= 1");
            assert!(
                ratio > 0.05,
                "block {i} suspiciously close to zero: {ratio}"
            );
        }
    }

    #[test]
    fn params_are_frozen() {
        let layer = AmLayer::generate(&Address::from_seed(6), spec(), 0.9);
        let mut all_frozen = true;
        layer.visit_params(&mut |p| all_frozen &= p.frozen);
        assert!(all_frozen);
        assert_eq!(layer.param_count(), AmLayer::weight_count(spec()));
    }

    #[test]
    fn forward_preserves_shape_and_information() {
        let mut layer = AmLayer::generate(&Address::from_seed(8), spec(), 0.9);
        let mut rng = Pcg32::seed_from(9);
        let x1 = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let x2 = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let mut arena = ScratchArena::new();
        let y1 = layer.forward(&x1, false, &mut arena);
        let y2 = layer.forward(&x2, false, &mut arena);
        assert_eq!(y1.shape(), x1.shape());
        // Composition of invertible residuals: distinct inputs stay
        // distinct with margin ≥ Π(1−c) per block.
        let dist_in = euclidean(x1.data(), x2.data());
        let dist_out = euclidean(y1.data(), y2.data());
        assert!(dist_out > 1e-4 * dist_in, "information collapsed");
    }

    #[test]
    fn swapping_addresses_perturbs_features_strongly() {
        // The attack surface: the thief's stack output differs from the
        // owner's by a magnitude comparable to the input itself.
        let mut rng = Pcg32::seed_from(11);
        let x = Tensor::randn(&[1, 3, 8, 8], &mut rng);
        let mut owner = AmLayer::generate(&Address::from_seed(1), spec(), 0.9);
        let mut thief = AmLayer::generate(&Address::from_seed(2), spec(), 0.9);
        let mut arena = ScratchArena::new();
        let y = thief.forward(&x, false, &mut arena);
        let diff = euclidean(owner.forward(&x, false, &mut arena).data(), y.data());
        assert!(
            diff > 0.5 * x.norm(),
            "swap perturbation too weak: {diff} vs input {}",
            x.norm()
        );
    }

    #[test]
    fn flat_prefix_verification() {
        let addr = Address::from_seed(10);
        let layer = AmLayer::generate(&addr, spec(), 0.9);
        let mut flat = flat_of(&layer);
        flat.extend_from_slice(&[1.0, 2.0, 3.0]); // task-model weights
        assert!(AmLayer::verify_flat_prefix(&flat, &addr, spec(), 0.9));
        assert!(!AmLayer::verify_flat_prefix(
            &flat,
            &Address::from_seed(11),
            spec(),
            0.9
        ));
        // Tampered prefix fails — first block and a later block.
        let mut t1 = flat.clone();
        t1[0] += 1e-3;
        assert!(!AmLayer::verify_flat_prefix(&t1, &addr, spec(), 0.9));
        let per_block = spec().channels * spec().channels * 9 + spec().channels;
        let mut t2 = flat.clone();
        t2[per_block + 3] += 1e-3;
        assert!(!AmLayer::verify_flat_prefix(&t2, &addr, spec(), 0.9));
        // Wrong c fails.
        assert!(!AmLayer::verify_flat_prefix(&flat, &addr, spec(), 0.5));
    }

    #[test]
    #[should_panic(expected = "Lipschitz coefficient")]
    fn invalid_c_rejected() {
        AmLayer::generate(&Address::from_seed(0), spec(), 1.5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Across addresses, geometries and coefficients, a generated
        /// layer holds exactly the bits `derive_weight_stack` returns, and
        /// its flattened parameters verify as the owner's prefix.
        #[test]
        fn generated_layer_is_bitwise_identical_to_derive_weight_stack(
            seed in proptest::prelude::any::<u64>(),
            channels in 1usize..4,
            depth in 1usize..3,
            c_mill in 100u32..950,
        ) {
            let addr = Address::from_seed(seed);
            let spec = AmLayerSpec::for_channels(channels).with_depth(depth);
            let c = c_mill as f32 / 1000.0;
            let oracle = AmLayer::derive_weight_stack(&addr, spec, c);
            let layer = AmLayer::generate(&addr, spec, c);
            let kernels: Vec<&Tensor> = layer.blocks.iter().map(|b| &b.weight().value).collect();
            proptest::prop_assert_eq!(kernels, oracle.iter().collect::<Vec<_>>());
            let flat = flat_of(&layer);
            proptest::prop_assert!(AmLayer::verify_flat_prefix(&flat, &addr, spec, c));
        }
    }
}
