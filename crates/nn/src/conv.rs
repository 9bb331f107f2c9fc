//! 2-D convolution.

use crate::layer::{drop_kept, keep, keep_copy, kept_bytes, Layer, Param};
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::{conv, Tensor};

/// A 2-D convolution with square kernels, symmetric zero padding and a
/// configurable stride. The paper's AMLayer and residual blocks use
/// 3×3 / padding 1 / stride 1 ([`Conv2d::new`]); stride-2 variants
/// ([`Conv2d::with_stride`]) provide ResNet-style downsampling.
///
/// Input `[N, C, H, W]`, weight `[OC, C, K, K]`, bias `[OC]`, output
/// `[N, OC, (H + 2·pad − K)/S + 1, (W + 2·pad − K)/S + 1]`.
///
/// # Examples
///
/// ```
/// use rpol_nn::prelude::*;
/// use rpol_tensor::{rng::Pcg32, scratch::ScratchArena, Tensor};
///
/// let mut rng = Pcg32::seed_from(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, &mut rng);
/// let x = Tensor::ones(&[2, 3, 8, 8]);
/// let y = conv.forward(&x, false, &mut ScratchArena::new());
/// assert_eq!(y.shape().dims(), &[2, 8, 8, 8]); // same-size with pad 1
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    kernel: usize,
    pad: usize,
    stride: usize,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-normal initialization.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_channels`, `out_channels`, `kernel` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        pad: usize,
        rng: &mut Pcg32,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0,
            "zero-sized convolution"
        );
        let fan_in = in_channels * kernel * kernel;
        let scale = (2.0 / fan_in as f32).sqrt();
        let mut weight = Tensor::randn(&[out_channels, in_channels, kernel, kernel], rng);
        weight.scale(scale);
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            kernel,
            pad,
            stride: 1,
            cached_input: None,
        }
    }

    /// Creates a strided convolution (He-normal init).
    ///
    /// # Panics
    ///
    /// Panics if any of the dimensions or `stride` is zero.
    pub fn with_stride(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        pad: usize,
        stride: usize,
        rng: &mut Pcg32,
    ) -> Self {
        assert!(stride > 0, "zero stride");
        let mut conv = Self::new(in_channels, out_channels, kernel, pad, rng);
        conv.stride = stride;
        conv
    }

    /// Creates a convolution from explicit weights.
    ///
    /// # Panics
    ///
    /// Panics unless `weight` is rank 4 with square kernel and `bias`
    /// matches the output channel count.
    pub fn from_parts(weight: Tensor, bias: Tensor, pad: usize) -> Self {
        assert_eq!(weight.shape().rank(), 4, "conv weight must be rank 4");
        let kernel = weight.shape().dim(2);
        assert_eq!(weight.shape().dim(3), kernel, "kernel must be square");
        assert_eq!(
            bias.shape().dims(),
            &[weight.shape().dim(0)],
            "bias mismatch"
        );
        Self {
            weight: Param::new(weight),
            bias: Param::new(bias),
            kernel,
            pad,
            stride: 1,
            cached_input: None,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.value.shape().dim(0)
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.weight.value.shape().dim(1)
    }

    /// Direct access to the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.pad - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Forward body shared by every entry point: [`conv::shifted`] over
    /// the input padded by `pad`, from the bias — each output element's
    /// chain is `bias + Σ taps` in `(ci, ky, kx)` order, padded taps
    /// included as `weight · 0.0`. Keeps nothing.
    fn forward_with(&self, input: &Tensor, arena: &mut ScratchArena) -> Tensor {
        assert_eq!(input.shape().rank(), 4, "conv expects [N, C, H, W]");
        let (n, c, h, w) = (
            input.shape().dim(0),
            input.shape().dim(1),
            input.shape().dim(2),
            input.shape().dim(3),
        );
        assert_eq!(c, self.in_channels(), "conv channel mismatch");
        assert!(
            h + 2 * self.pad >= self.kernel && w + 2 * self.pad >= self.kernel,
            "input smaller than kernel"
        );
        let (oh, ow) = self.out_hw(h, w);
        let oc = self.out_channels();
        let mut out = arena.take_zeroed(n * oc * oh * ow);
        conv::shifted(
            n,
            oc,
            self.weight.value.data(),
            self.bias.value.data(),
            c,
            h,
            w,
            input.data(),
            self.pad as isize,
            1,
            self.kernel,
            self.stride,
            oh,
            ow,
            &mut out,
            arena,
        );
        Tensor::from_vec(&[n, oc, oh, ow], out)
    }

    /// Parameter-gradient half of the backward pass, each chain in the
    /// original tap-by-tap accumulation order:
    ///
    /// * `db[oci]` accumulates `grad_out` element-by-element in
    ///   `(ni, oy, ox)` order, directly into the persistent gradient;
    /// * `dW[oci, tap]` continues from the persistent gradient through
    ///   `g · x` over samples, then positions, ascending
    ///   ([`conv::gather`]), so cross-call accumulation keeps the chain.
    ///
    /// Dropping the original `go == 0.0` skip is bitwise-safe: skipped
    /// contributions become `±0.0` adds, and none of these accumulators can
    /// reach `-0.0` (exact cancellation rounds to `+0.0`).
    fn param_grads_with(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward before forward on Conv2d");
        let (n, c, h, w) = (
            input.shape().dim(0),
            input.shape().dim(1),
            input.shape().dim(2),
            input.shape().dim(3),
        );
        let (oh, ow) = self.out_hw(h, w);
        let oc = self.out_channels();
        assert_eq!(grad_out.shape().dims(), &[n, oc, oh, ow], "grad shape");
        let ohow = oh * ow;
        let g = grad_out.data();

        // db: element-by-element in (ni, oci, oy, ox) order, matching the
        // original accumulation chain per output channel.
        let db = self.bias.grad.data_mut();
        for ni in 0..n {
            for (oci, dbv) in db.iter_mut().enumerate() {
                for &go in &g[(ni * oc + oci) * ohow..][..ohow] {
                    *dbv += go;
                }
            }
        }

        conv::gather(
            n,
            oc,
            g,
            c,
            h,
            w,
            input.data(),
            self.pad,
            self.kernel,
            self.stride,
            oh,
            ow,
            self.weight.grad.data_mut(),
            arena,
        );
    }

    /// Input-gradient half of the backward pass: [`conv::shifted`] over
    /// the output gradient — dilated by the stride, padded by
    /// `K − 1 − pad` — against the 180°-rotated kernels laid out
    /// `[C, OC·K·K]`, from zeros. For a fixed input cell the original
    /// contributions arrive in `(oci ↑, oy ↑, ox ↑)` order, which is
    /// exactly ascending rotated-tap order.
    fn input_grad_with(&self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward before forward on Conv2d");
        let (n, c, h, w) = (
            input.shape().dim(0),
            input.shape().dim(1),
            input.shape().dim(2),
            input.shape().dim(3),
        );
        let (oh, ow) = self.out_hw(h, w);
        let oc = self.out_channels();
        let k = self.kernel;
        assert_eq!(grad_out.shape().dims(), &[n, oc, oh, ow], "grad shape");
        let mut wrot = arena.take_zeroed(c * oc * k * k);
        rotate_kernels(self.weight.value.data(), oc, c, k, &mut wrot);
        let zeros = arena.take_zeroed(c);
        let mut dx = arena.take_zeroed(n * c * h * w);
        conv::shifted(
            n,
            c,
            &wrot,
            &zeros,
            oc,
            oh,
            ow,
            grad_out.data(),
            (k - 1) as isize - self.pad as isize,
            self.stride,
            k,
            1,
            h,
            w,
            &mut dx,
            arena,
        );
        arena.recycle(wrot);
        arena.recycle(zeros);
        Tensor::from_vec(&[n, c, h, w], dx)
    }
}

/// Rotated kernels: `wrot[ci][(oci·K + kyr)·K + kxr] = w[oci, ci, K−1−kyr, K−1−kxr]`.
fn rotate_kernels(wgt: &[f32], oc: usize, c: usize, k: usize, wrot: &mut [f32]) {
    for ci in 0..c {
        let dst = &mut wrot[ci * oc * k * k..][..oc * k * k];
        for oci in 0..oc {
            for kyr in 0..k {
                for kxr in 0..k {
                    dst[(oci * k + kyr) * k + kxr] =
                        wgt[((oci * c + ci) * k + (k - 1 - kyr)) * k + (k - 1 - kxr)];
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        keep_copy(&mut self.cached_input, input, train, arena);
        self.forward_with(input, arena)
    }

    fn forward_owned(&mut self, input: Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        if train {
            drop_kept(&mut self.cached_input, arena);
        }
        let y = self.forward_with(&input, arena);
        keep(&mut self.cached_input, input, train, arena);
        y
    }

    /// The forward alone: training and inference differ only in the input
    /// a training forward keeps.
    fn forward_frozen(&mut self, input: &Tensor, arena: &mut ScratchArena) -> Tensor {
        drop_kept(&mut self.cached_input, arena);
        self.forward_with(input, arena)
    }

    fn release(&mut self, arena: &mut ScratchArena) {
        drop_kept(&mut self.cached_input, arena);
    }

    fn held_bytes(&self) -> usize {
        kept_bytes(&self.cached_input)
    }

    fn backward(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        self.param_grads_with(grad_out, arena);
        self.input_grad_with(grad_out, arena)
    }

    fn backward_params(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) {
        self.param_grads_with(grad_out, arena);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lowering this layer ran before the offset-table kernels —
    /// `im2col` into a `[C·K·K, OH·OW]` matrix, one `gemm_into` per sample
    /// and product — kept verbatim as the oracle.
    mod lowered {
        use super::super::rotate_kernels;
        use rpol_tensor::gemm::{self, Trans};

        /// Kernel size, padding, stride.
        pub type Geometry = (usize, usize, usize);

        fn out_hw((k, pad, stride): Geometry, h: usize, w: usize) -> (usize, usize) {
            (
                (h + 2 * pad - k) / stride + 1,
                (w + 2 * pad - k) / stride + 1,
            )
        }

        /// The output positions `[lo, hi)` along one axis whose tap at kernel
        /// offset `k_off` reads a real (unpadded) input cell, i.e. those `o` with
        /// `pad ≤ o·stride + k_off < len + pad`, clipped to `out_len`. Empty
        /// ranges come back as `lo ≥ hi`.
        fn valid_outputs(
            k_off: usize,
            pad: usize,
            stride: usize,
            len: usize,
            out_len: usize,
        ) -> (usize, usize) {
            let lo = pad.saturating_sub(k_off).div_ceil(stride);
            let hi = (len + pad).saturating_sub(k_off).div_ceil(stride);
            (lo, hi.min(out_len))
        }

        /// Gathers the receptive fields of one `[C, H, W]` sample into
        /// `col[(ci·K + ky)·K + kx][oy·OW + ox]`. Only in-bounds taps are written;
        /// the caller provides a zeroed buffer and the valid-tap set depends only
        /// on geometry, so the buffer can be reused across samples. Per tap the
        /// in-bounds outputs form one span per row ([`valid_outputs`]), copied
        /// without a per-element bounds decision — a `memcpy` at stride 1.
        #[allow(clippy::too_many_arguments)]
        fn im2col(
            x: &[f32],
            c: usize,
            h: usize,
            w: usize,
            oh: usize,
            ow: usize,
            k: usize,
            pad: usize,
            stride: usize,
            col: &mut [f32],
        ) {
            let ohow = oh * ow;
            for ci in 0..c {
                for ky in 0..k {
                    let (oy_lo, oy_hi) = valid_outputs(ky, pad, stride, h, oh);
                    for kx in 0..k {
                        let (ox_lo, ox_hi) = valid_outputs(kx, pad, stride, w, ow);
                        if ox_lo >= ox_hi {
                            continue;
                        }
                        let row = &mut col[((ci * k + ky) * k + kx) * ohow..][..ohow];
                        let ix_lo = ox_lo * stride + kx - pad;
                        for oy in oy_lo..oy_hi {
                            let src = &x[(ci * h + oy * stride + ky - pad) * w + ix_lo..];
                            let dst = &mut row[oy * ow + ox_lo..oy * ow + ox_hi];
                            if stride == 1 {
                                dst.copy_from_slice(&src[..dst.len()]);
                            } else {
                                for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                                    *d = v;
                                }
                            }
                        }
                    }
                }
            }
        }

        /// Gathers one sample's output gradient `[OC, OH, OW]` into the
        /// stride-dilated, padded form `colg[(oci·K + kyr)·K + kxr][iy·W + ix]`
        /// used by the input-gradient GEMM: entry `(p', r)` holds
        /// `g[oci, oy, ox]` when the rotated tap `(K−1−kyr, K−1−kxr)` at input
        /// cell `(iy, ix)` maps onto a valid output cell, else stays zero. Valid
        /// positions depend only on geometry, so the caller's zeroed buffer can be
        /// reused across samples. Walks the same per-tap output spans as
        /// [`im2col`], scattering instead of gathering.
        #[allow(clippy::too_many_arguments)]
        fn im2col_grad(
            g: &[f32],
            oc: usize,
            oh: usize,
            ow: usize,
            h: usize,
            w: usize,
            k: usize,
            pad: usize,
            stride: usize,
            colg: &mut [f32],
        ) {
            let hw = h * w;
            for oci in 0..oc {
                for kyr in 0..k {
                    let ky = k - 1 - kyr;
                    let (oy_lo, oy_hi) = valid_outputs(ky, pad, stride, h, oh);
                    for kxr in 0..k {
                        let kx = k - 1 - kxr;
                        let (ox_lo, ox_hi) = valid_outputs(kx, pad, stride, w, ow);
                        if ox_lo >= ox_hi {
                            continue;
                        }
                        let row = &mut colg[((oci * k + kyr) * k + kxr) * hw..][..hw];
                        let ix_lo = ox_lo * stride + kx - pad;
                        for oy in oy_lo..oy_hi {
                            let src =
                                &g[(oci * oh + oy) * ow + ox_lo..(oci * oh + oy) * ow + ox_hi];
                            let dst = &mut row[(oy * stride + ky - pad) * w + ix_lo..];
                            if stride == 1 {
                                dst[..src.len()].copy_from_slice(src);
                            } else {
                                for (&v, d) in src.iter().zip(dst.iter_mut().step_by(stride)) {
                                    *d = v;
                                }
                            }
                        }
                    }
                }
            }
        }

        /// `out[ni] = bias + weight · col(x[ni])`.
        pub fn forward(
            geo: Geometry,
            wgt: &[f32],
            bias: &[f32],
            x: &[f32],
            [n, c, h, w]: [usize; 4],
        ) -> Vec<f32> {
            let (k, pad, stride) = geo;
            let (oh, ow) = out_hw(geo, h, w);
            let (oc, ckk, ohow) = (bias.len(), c * k * k, oh * ow);
            let mut col = vec![0.0; ckk * ohow];
            let mut out = vec![0.0; n * oc * ohow];
            for ni in 0..n {
                let x_s = &x[ni * c * h * w..][..c * h * w];
                im2col(x_s, c, h, w, oh, ow, k, pad, stride, &mut col);
                let out_s = &mut out[ni * oc * ohow..][..oc * ohow];
                for (oci, row) in out_s.chunks_exact_mut(ohow).enumerate() {
                    row.fill(bias[oci]);
                }
                gemm::gemm_into(oc, ohow, ckk, wgt, Trans::No, &col, Trans::No, out_s, 1);
            }
            out
        }

        /// `dW += g[ni] · col(x[ni])ᵀ`, samples ascending, the persistent
        /// gradient preloaded as C.
        pub fn weight_grad(
            geo: Geometry,
            g: &[f32],
            x: &[f32],
            [n, c, h, w]: [usize; 4],
            dw: &mut [f32],
        ) {
            let (k, pad, stride) = geo;
            let (oh, ow) = out_hw(geo, h, w);
            let (ckk, ohow) = (c * k * k, oh * ow);
            let oc = dw.len() / ckk;
            let mut col = vec![0.0; ckk * ohow];
            for ni in 0..n {
                let x_s = &x[ni * c * h * w..][..c * h * w];
                im2col(x_s, c, h, w, oh, ow, k, pad, stride, &mut col);
                let g_s = &g[ni * oc * ohow..][..oc * ohow];
                gemm::gemm_into(oc, ckk, ohow, g_s, Trans::No, &col, Trans::Yes, dw, 1);
            }
        }

        /// `dx[ni] = Wrot · colg(g[ni])` into fresh zeros.
        pub fn input_grad(
            geo: Geometry,
            wgt: &[f32],
            g: &[f32],
            [n, c, h, w]: [usize; 4],
        ) -> Vec<f32> {
            let (k, pad, stride) = geo;
            let (oh, ow) = out_hw(geo, h, w);
            let (ohow, hw) = (oh * ow, h * w);
            let oc = wgt.len() / (c * k * k);
            let mut wrot = vec![0.0; c * oc * k * k];
            rotate_kernels(wgt, oc, c, k, &mut wrot);
            let mut colg = vec![0.0; oc * k * k * hw];
            let mut dx = vec![0.0; n * c * hw];
            for ni in 0..n {
                let g_s = &g[ni * oc * ohow..][..oc * ohow];
                im2col_grad(g_s, oc, oh, ow, h, w, k, pad, stride, &mut colg);
                let dx_s = &mut dx[ni * c * hw..][..c * hw];
                gemm::gemm_into(
                    c,
                    hw,
                    oc * k * k,
                    &wrot,
                    Trans::No,
                    &colg,
                    Trans::No,
                    dx_s,
                    1,
                );
            }
            dx
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        /// Forward, `dW`/`db` and `dx` carry the bytes of the old lowering
        /// for k ∈ {1,3,5}, pad ∈ {0,1,2} (pad ≥ k included), stride ∈
        /// {1,2,3}, non-square inputs down to one cell, row tiles past 12
        /// and lane groups past 16 — on data that is one third exact
        /// `±0.0` (what ReLU feeds the layer) — and a second `backward`
        /// without `zero_grads` continues every chain where the first
        /// stopped.
        #[test]
        fn offset_table_kernels_match_the_old_lowering(
            seed in proptest::prelude::any::<u64>(),
            k_pick in 0usize..3,
            pad in 0usize..3,
            stride in 1usize..4,
            c_pick in 0usize..6,
            oc_pick in 0usize..6,
            n in 1usize..4,
            h in 1usize..8,
            w in 1usize..8,
        ) {
            let k = 2 * k_pick + 1;
            proptest::prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let channels = [1, 3, 10, 13, 17, 33];
            let (c, oc) = (channels[c_pick], channels[oc_pick]);
            let geo = (k, pad, stride);
            let mut rng = Pcg32::seed_from(seed);
            let mut draw = |len: usize| -> Vec<f32> {
                (0..len)
                    .map(|_| match rng.next_below(6) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.next_normal(),
                    })
                    .collect()
            };

            let mut conv = Conv2d::with_stride(c, oc, k, pad, stride, &mut Pcg32::seed_from(0));
            conv.weight.value = Tensor::from_vec(&[oc, c, k, k], draw(oc * c * k * k));
            conv.bias.value = Tensor::from_vec(&[oc], draw(oc));
            let wgt = conv.weight.value.data().to_vec();
            let bias = conv.bias.value.data().to_vec();
            let dims = [n, c, h, w];
            let x = Tensor::from_vec(&dims, draw(n * c * h * w));

            let mut arena = ScratchArena::new();
            let y = conv.forward(&x, true, &mut arena);
            let want = lowered::forward(geo, &wgt, &bias, x.data(), dims);
            proptest::prop_assert_eq!(bits(y.data()), bits(&want));

            let g = Tensor::from_vec(y.shape().dims(), draw(y.len()));
            conv.weight.grad = Tensor::from_vec(&[oc, c, k, k], draw(oc * c * k * k));
            let mut dw = conv.weight.grad.data().to_vec();
            for _ in 0..2 {
                let dx = conv.backward(&g, &mut arena);
                lowered::weight_grad(geo, g.data(), x.data(), dims, &mut dw);
                proptest::prop_assert_eq!(bits(conv.weight.grad.data()), bits(&dw));
                let want = lowered::input_grad(geo, &wgt, g.data(), dims);
                proptest::prop_assert_eq!(bits(dx.data()), bits(&want));
            }
        }
    }

    #[test]
    fn identity_kernel_passthrough() {
        let mut arena = ScratchArena::new();
        // 1x1 kernel with weight 1: output == input per channel.
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let bias = Tensor::zeros(&[1]);
        let mut conv = Conv2d::from_parts(weight, bias, 0);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let y = conv.forward(&x, false, &mut arena);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_sum_kernel() {
        let mut arena = ScratchArena::new();
        // All-ones 3x3 kernel with pad 1 computes neighbourhood sums.
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let bias = Tensor::zeros(&[1]);
        let mut conv = Conv2d::from_parts(weight, bias, 1);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x, false, &mut arena);
        // Corners see 4 neighbours, edges 6, center 9.
        assert_eq!(y.data(), &[4., 6., 4., 6., 9., 6., 4., 6., 4.]);
    }

    #[test]
    fn shape_with_padding() {
        let mut arena = ScratchArena::new();
        let mut rng = Pcg32::seed_from(0);
        let mut conv = Conv2d::new(3, 5, 3, 1, &mut rng);
        let x = Tensor::ones(&[2, 3, 8, 8]);
        assert_eq!(
            conv.forward(&x, false, &mut arena).shape().dims(),
            &[2, 5, 8, 8]
        );
        let mut conv0 = Conv2d::new(3, 5, 3, 0, &mut rng);
        assert_eq!(
            conv0.forward(&x, false, &mut arena).shape().dims(),
            &[2, 5, 6, 6]
        );
    }

    #[test]
    fn gradient_check() {
        let mut arena = ScratchArena::new();
        let mut rng = Pcg32::seed_from(7);
        let mut conv = Conv2d::new(2, 3, 3, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let y = conv.forward(&x, true, &mut arena);
        let grad_out = y.map(|v| 2.0 * v);
        conv.zero_grads();
        let dx = conv.backward(&grad_out, &mut arena);

        let eps = 1e-2f32;
        let mut loss = |c: &mut Conv2d, xv: &Tensor| -> f32 {
            c.forward(xv, false, &mut arena)
                .data()
                .iter()
                .map(|v| v * v)
                .sum()
        };

        // Input gradient at a few coordinates.
        for idx in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let numeric = (loss(&mut conv, &xp) - loss(&mut conv, &xm)) / (2.0 * eps);
            let got = dx.data()[idx];
            assert!(
                (numeric - got).abs() < 0.05 * numeric.abs().max(1.0),
                "dx[{idx}]: numeric {numeric} vs analytic {got}"
            );
        }

        // Weight gradient at a few coordinates.
        let mut analytic = Vec::new();
        conv.visit_params(&mut |p| analytic.push(p.grad.clone()));
        for idx in [0usize, 9, 26] {
            let mut plus = conv.clone();
            plus.weight.value.data_mut()[idx] += eps;
            let mut minus = conv.clone();
            minus.weight.value.data_mut()[idx] -= eps;
            let numeric = (loss(&mut plus, &x) - loss(&mut minus, &x)) / (2.0 * eps);
            let got = analytic[0].data()[idx];
            assert!(
                (numeric - got).abs() < 0.05 * numeric.abs().max(1.0),
                "dw[{idx}]: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn param_count() {
        let mut rng = Pcg32::seed_from(0);
        let conv = Conv2d::new(3, 8, 3, 1, &mut rng);
        assert_eq!(conv.param_count(), 3 * 8 * 9 + 8);
    }

    #[test]
    fn stride_halves_spatial_dims() {
        let mut arena = ScratchArena::new();
        let mut rng = Pcg32::seed_from(1);
        let mut conv = Conv2d::with_stride(3, 6, 3, 1, 2, &mut rng);
        let x = Tensor::ones(&[1, 3, 8, 8]);
        assert_eq!(
            conv.forward(&x, false, &mut arena).shape().dims(),
            &[1, 6, 4, 4]
        );
    }

    #[test]
    fn stride_2_subsamples_stride_1_outputs() {
        let mut arena = ScratchArena::new();
        // A stride-2 conv output equals the stride-1 output sampled at
        // every other position.
        let mut rng = Pcg32::seed_from(2);
        let mut s1 = Conv2d::new(2, 3, 3, 1, &mut rng);
        let mut s2 = s1.clone();
        s2.stride = 2;
        let x = Tensor::randn(&[1, 2, 6, 6], &mut rng);
        let y1 = s1.forward(&x, false, &mut arena);
        let y2 = s2.forward(&x, false, &mut arena);
        for oc in 0..3 {
            for oy in 0..3 {
                for ox in 0..3 {
                    assert_eq!(
                        y2.data()[y2.shape().offset(&[0, oc, oy, ox])],
                        y1.data()[y1.shape().offset(&[0, oc, 2 * oy, 2 * ox])],
                        "({oc},{oy},{ox})"
                    );
                }
            }
        }
    }

    #[test]
    fn strided_gradient_check() {
        let mut arena = ScratchArena::new();
        let mut rng = Pcg32::seed_from(9);
        let mut conv = Conv2d::with_stride(2, 2, 3, 1, 2, &mut rng);
        let x = Tensor::randn(&[1, 2, 6, 6], &mut rng);
        let y = conv.forward(&x, true, &mut arena);
        let grad_out = y.map(|v| 2.0 * v);
        conv.zero_grads();
        let dx = conv.backward(&grad_out, &mut arena);
        let eps = 1e-2f32;
        let mut loss = |c: &mut Conv2d, xv: &Tensor| -> f32 {
            c.forward(xv, false, &mut arena)
                .data()
                .iter()
                .map(|v| v * v)
                .sum()
        };
        for idx in [0usize, 13, 31, 50, 71] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let numeric = (loss(&mut conv, &xp) - loss(&mut conv, &xm)) / (2.0 * eps);
            let got = dx.data()[idx];
            assert!(
                (numeric - got).abs() < 0.05 * numeric.abs().max(1.0),
                "dx[{idx}]: numeric {numeric} vs analytic {got}"
            );
        }
    }
}
