//! 2-D convolution.

use crate::layer::{Layer, Param};
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::{gemm, Tensor};

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
/// use rpol_tensor::{rng::Pcg32, Tensor};
///
/// let mut rng = Pcg32::seed_from(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, &mut rng);
/// let x = Tensor::ones(&[2, 3, 8, 8]);
/// let y = conv.forward(&x, false);
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

    /// Direct access to the weight parameter; RPoL's AMLayer freezes and
    /// spectrally normalizes these weights in place.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
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

    /// Forward body shared by the plain and arena entry points. The
    /// convolution is lowered to one GEMM per sample: `im2col` gathers the
    /// receptive fields into a `[C·K·K, OH·OW]` matrix whose row order
    /// `(ci, ky, kx)` matches the tap order of the original loop nest, the
    /// output slab is pre-filled with the bias, and `gemm_into` accumulates
    /// `weight · col` on top — so each output element's reduction chain is
    /// `bias + Σ taps` in the original order. Padded taps contribute
    /// `weight · 0.0`, which is bitwise-invisible to a chain that can never
    /// hold `-0.0`.
    fn forward_with(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
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
        if train {
            self.cached_input = Some(input.clone());
        }
        let (oh, ow) = self.out_hw(h, w);
        let oc = self.out_channels();
        let k = self.kernel;
        let (ckk, ohow) = (c * k * k, oh * ow);
        let x = input.data();
        let wgt = self.weight.value.data();
        let bias = self.bias.value.data();
        let threads = gemm::default_threads();
        let mut col = arena.take_zeroed(ckk * ohow);
        let mut out = arena.take_zeroed(n * oc * ohow);
        for ni in 0..n {
            let x_s = &x[ni * c * h * w..][..c * h * w];
            im2col(x_s, c, h, w, oh, ow, k, self.pad, self.stride, &mut col);
            let out_s = &mut out[ni * oc * ohow..][..oc * ohow];
            for (oci, row) in out_s.chunks_exact_mut(ohow).enumerate() {
                row.fill(bias[oci]);
            }
            gemm::gemm_into(
                oc,
                ohow,
                ckk,
                wgt,
                gemm::Trans::No,
                &col,
                gemm::Trans::No,
                out_s,
                threads,
            );
        }
        arena.recycle(col);
        Tensor::from_vec(&[n, oc, oh, ow], out)
    }

    /// Parameter-gradient half of the backward pass; two GEMM-shaped
    /// products, each arranged to reproduce the original tap-by-tap
    /// accumulation order bitwise:
    ///
    /// * `db[oci]` accumulates `grad_out` element-by-element in
    ///   `(ni, oy, ox)` order, directly into the persistent gradient;
    /// * `dW += g · colᵀ` per sample (samples ascending), with the
    ///   persistent gradient preloaded as C so cross-call accumulation
    ///   keeps the original chain.
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
        let (k, pad, stride) = (self.kernel, self.pad, self.stride);
        let (oh, ow) = self.out_hw(h, w);
        let oc = self.out_channels();
        assert_eq!(grad_out.shape().dims(), &[n, oc, oh, ow], "grad shape");
        let (ckk, ohow, hw) = (c * k * k, oh * ow, h * w);
        let x = input.data();
        let g = grad_out.data();
        let dw = self.weight.grad.data_mut();
        let db = self.bias.grad.data_mut();
        let threads = gemm::default_threads();

        // db: element-by-element in (ni, oci, oy, ox) order, matching the
        // original accumulation chain per output channel.
        for ni in 0..n {
            for (oci, dbv) in db.iter_mut().enumerate() {
                for &go in &g[(ni * oc + oci) * ohow..][..ohow] {
                    *dbv += go;
                }
            }
        }

        // dW += g_s · colᵀ, preloading the persistent gradient.
        let mut col = arena.take_zeroed(ckk * ohow);
        for ni in 0..n {
            im2col(
                &x[ni * c * hw..][..c * hw],
                c,
                h,
                w,
                oh,
                ow,
                k,
                pad,
                stride,
                &mut col,
            );
            gemm::gemm_into(
                oc,
                ckk,
                ohow,
                &g[ni * oc * ohow..][..oc * ohow],
                gemm::Trans::No,
                &col,
                gemm::Trans::Yes,
                dw,
                threads,
            );
        }
        arena.recycle(col);
    }

    /// Input-gradient half of the backward pass: `dx = Wrot · colg` per
    /// sample into fresh zeros, where `Wrot` holds the 180°-rotated kernels
    /// laid out `[C, OC·K·K]` and `colg` gathers the stride-dilated, padded
    /// gradient — for a fixed input cell the original contributions arrive
    /// in `(oci ↑, oy ↑, ox ↑)` order, which is exactly ascending
    /// rotated-tap order.
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
        let (ohow, hw) = (oh * ow, h * w);
        let g = grad_out.data();
        let wgt = self.weight.value.data();
        let threads = gemm::default_threads();

        // Rotated kernels: wrot[ci][(oci·K + kyr)·K + kxr] = w[oci, ci, K−1−kyr, K−1−kxr].
        let mut wrot = arena.take_zeroed(c * oc * k * k);
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

        let mut colg = arena.take_zeroed(oc * k * k * hw);
        let mut dx = arena.take_zeroed(n * c * hw);
        for ni in 0..n {
            let g_s = &g[ni * oc * ohow..][..oc * ohow];
            im2col_grad(g_s, oc, oh, ow, h, w, k, self.pad, self.stride, &mut colg);
            gemm::gemm_into(
                c,
                hw,
                oc * k * k,
                &wrot,
                gemm::Trans::No,
                &colg,
                gemm::Trans::No,
                &mut dx[ni * c * hw..][..c * hw],
                threads,
            );
        }
        arena.recycle(wrot);
        arena.recycle(colg);
        Tensor::from_vec(&[n, c, h, w], dx)
    }
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
                    let src = &g[(oci * oh + oy) * ow + ox_lo..(oci * oh + oy) * ow + ox_hi];
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

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut arena = ScratchArena::new();
        self.forward_with(input, train, &mut arena)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_scratch(grad_out, &mut ScratchArena::new())
    }

    fn forward_scratch(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        self.forward_with(input, train, arena)
    }

    fn backward_scratch(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        self.param_grads_with(grad_out, arena);
        self.input_grad_with(grad_out, arena)
    }

    fn backward_params_scratch(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) {
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

    /// Element-wise oracle for [`im2col`]: one bounds decision per cell.
    #[allow(clippy::too_many_arguments)]
    fn im2col_elementwise(
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
                for kx in 0..k {
                    let row = &mut col[((ci * k + ky) * k + kx) * ohow..][..ohow];
                    for oy in 0..oh {
                        let iy = oy * stride + ky;
                        if iy < pad || iy >= h + pad {
                            continue;
                        }
                        let xrow = (ci * h + (iy - pad)) * w;
                        let dst = &mut row[oy * ow..][..ow];
                        for (ox, d) in dst.iter_mut().enumerate() {
                            let ix = ox * stride + kx;
                            if ix < pad || ix >= w + pad {
                                continue;
                            }
                            *d = x[xrow + ix - pad];
                        }
                    }
                }
            }
        }
    }

    /// Element-wise oracle for [`im2col_grad`].
    #[allow(clippy::too_many_arguments)]
    fn im2col_grad_elementwise(
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
                for kxr in 0..k {
                    let kx = k - 1 - kxr;
                    let row = &mut colg[((oci * k + kyr) * k + kxr) * hw..][..hw];
                    for iy in 0..h {
                        let t = iy + pad;
                        if t < ky || !(t - ky).is_multiple_of(stride) {
                            continue;
                        }
                        let oy = (t - ky) / stride;
                        if oy >= oh {
                            continue;
                        }
                        let grow = (oci * oh + oy) * ow;
                        let dst = &mut row[iy * w..][..w];
                        for (ix, d) in dst.iter_mut().enumerate() {
                            let u = ix + pad;
                            if u < kx || !(u - kx).is_multiple_of(stride) {
                                continue;
                            }
                            let ox = (u - kx) / stride;
                            if ox >= ow {
                                continue;
                            }
                            *d = g[grow + ox];
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The span copies write exactly the cells the element-wise
        /// oracles write, with the same values, for k ∈ {1,3,5},
        /// pad ∈ {0,1,2}, stride ∈ {1,2,3} and non-square inputs down to
        /// one cell wide — narrower than the kernel reaches.
        #[test]
        fn span_copies_match_the_elementwise_oracles(
            seed in proptest::prelude::any::<u64>(),
            k_pick in 0usize..3,
            pad in 0usize..3,
            stride in 1usize..4,
            c in 1usize..3,
            h in 1usize..8,
            w in 1usize..8,
        ) {
            let k = 2 * k_pick + 1;
            proptest::prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let (oh, ow) = ((h + 2 * pad - k) / stride + 1, (w + 2 * pad - k) / stride + 1);
            let mut rng = Pcg32::seed_from(seed);
            // Nonzero everywhere, so a skipped cell shows against the
            // sentinel-filled buffers.
            let mut draw = |n: usize| -> Vec<f32> {
                (0..n).map(|_| 1.0 + rng.next_f32()).collect()
            };

            let x = draw(c * h * w);
            let mut got = vec![-7.0f32; c * k * k * oh * ow];
            let mut want = got.clone();
            im2col(&x, c, h, w, oh, ow, k, pad, stride, &mut got);
            im2col_elementwise(&x, c, h, w, oh, ow, k, pad, stride, &mut want);
            proptest::prop_assert_eq!(got, want);

            let g = draw(c * oh * ow);
            let mut got = vec![-7.0f32; c * k * k * h * w];
            let mut want = got.clone();
            im2col_grad(&g, c, oh, ow, h, w, k, pad, stride, &mut got);
            im2col_grad_elementwise(&g, c, oh, ow, h, w, k, pad, stride, &mut want);
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn identity_kernel_passthrough() {
        // 1x1 kernel with weight 1: output == input per channel.
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let bias = Tensor::zeros(&[1]);
        let mut conv = Conv2d::from_parts(weight, bias, 0);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_sum_kernel() {
        // All-ones 3x3 kernel with pad 1 computes neighbourhood sums.
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let bias = Tensor::zeros(&[1]);
        let mut conv = Conv2d::from_parts(weight, bias, 1);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x, false);
        // Corners see 4 neighbours, edges 6, center 9.
        assert_eq!(y.data(), &[4., 6., 4., 6., 9., 6., 4., 6., 4.]);
    }

    #[test]
    fn shape_with_padding() {
        let mut rng = Pcg32::seed_from(0);
        let mut conv = Conv2d::new(3, 5, 3, 1, &mut rng);
        let x = Tensor::ones(&[2, 3, 8, 8]);
        assert_eq!(conv.forward(&x, false).shape().dims(), &[2, 5, 8, 8]);
        let mut conv0 = Conv2d::new(3, 5, 3, 0, &mut rng);
        assert_eq!(conv0.forward(&x, false).shape().dims(), &[2, 5, 6, 6]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = Pcg32::seed_from(7);
        let mut conv = Conv2d::new(2, 3, 3, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let y = conv.forward(&x, true);
        let grad_out = y.map(|v| 2.0 * v);
        conv.zero_grads();
        let dx = conv.backward(&grad_out);

        let eps = 1e-2f32;
        let loss = |c: &mut Conv2d, xv: &Tensor| -> f32 {
            c.forward(xv, false).data().iter().map(|v| v * v).sum()
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
            plus.weight_mut().value.data_mut()[idx] += eps;
            let mut minus = conv.clone();
            minus.weight_mut().value.data_mut()[idx] -= eps;
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
        let mut rng = Pcg32::seed_from(1);
        let mut conv = Conv2d::with_stride(3, 6, 3, 1, 2, &mut rng);
        let x = Tensor::ones(&[1, 3, 8, 8]);
        assert_eq!(conv.forward(&x, false).shape().dims(), &[1, 6, 4, 4]);
    }

    #[test]
    fn stride_2_subsamples_stride_1_outputs() {
        // A stride-2 conv output equals the stride-1 output sampled at
        // every other position.
        let mut rng = Pcg32::seed_from(2);
        let mut s1 = Conv2d::new(2, 3, 3, 1, &mut rng);
        let mut s2 = s1.clone();
        s2.stride = 2;
        let x = Tensor::randn(&[1, 2, 6, 6], &mut rng);
        let y1 = s1.forward(&x, false);
        let y2 = s2.forward(&x, false);
        for oc in 0..3 {
            for oy in 0..3 {
                for ox in 0..3 {
                    assert_eq!(
                        y2.at(&[0, oc, oy, ox]),
                        y1.at(&[0, oc, 2 * oy, 2 * ox]),
                        "({oc},{oy},{ox})"
                    );
                }
            }
        }
    }

    #[test]
    fn strided_gradient_check() {
        let mut rng = Pcg32::seed_from(9);
        let mut conv = Conv2d::with_stride(2, 2, 3, 1, 2, &mut rng);
        let x = Tensor::randn(&[1, 2, 6, 6], &mut rng);
        let y = conv.forward(&x, true);
        let grad_out = y.map(|v| 2.0 * v);
        conv.zero_grads();
        let dx = conv.backward(&grad_out);
        let eps = 1e-2f32;
        let loss = |c: &mut Conv2d, xv: &Tensor| -> f32 {
            c.forward(xv, false).data().iter().map(|v| v * v).sum()
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
