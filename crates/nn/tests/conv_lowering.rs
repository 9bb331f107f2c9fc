//! `Conv2d` against the convolution written as plain loop nests — one
//! accumulator chain per element, every tap in `(ci, ky, kx)` order,
//! padded taps entering as `· 0.0` — bit for bit, over kernel sizes,
//! paddings (up to `pad ≥ k`), strides, non-square inputs down to one
//! cell, and channel counts past one row tile (12) and one lane group (16)
//! of the kernels in `rpol_tensor::conv`.

use rpol_nn::prelude::*;
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::Tensor;

#[derive(Debug, Clone, Copy)]
struct Geometry {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    oc: usize,
    k: usize,
    pad: usize,
    stride: usize,
}

impl Geometry {
    fn out_hw(&self) -> (usize, usize) {
        (
            (self.h + 2 * self.pad - self.k) / self.stride + 1,
            (self.w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// `x[ni, ci]` at padded coordinates, `0.0` in the padding.
    fn padded(&self, x: &[f32], ni: usize, ci: usize, py: usize, px: usize) -> f32 {
        let inside = |p: usize, len: usize| p >= self.pad && p < len + self.pad;
        if inside(py, self.h) && inside(px, self.w) {
            x[((ni * self.c + ci) * self.h + py - self.pad) * self.w + px - self.pad]
        } else {
            0.0
        }
    }

    fn forward(&self, wgt: &[f32], bias: &[f32], x: &[f32]) -> Vec<f32> {
        let Geometry {
            n,
            c,
            oc,
            k,
            stride,
            ..
        } = *self;
        let (oh, ow) = self.out_hw();
        let mut out = Vec::with_capacity(n * oc * oh * ow);
        for ni in 0..n {
            for oci in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias[oci];
                        for ci in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let wv = wgt[((oci * c + ci) * k + ky) * k + kx];
                                    acc += wv
                                        * self.padded(
                                            x,
                                            ni,
                                            ci,
                                            oy * stride + ky,
                                            ox * stride + kx,
                                        );
                                }
                            }
                        }
                        out.push(acc);
                    }
                }
            }
        }
        out
    }

    /// Continues the chains in `dw` and `db` over samples, then positions.
    fn param_grads(&self, g: &[f32], x: &[f32], dw: &mut [f32], db: &mut [f32]) {
        let Geometry {
            n,
            c,
            oc,
            k,
            stride,
            ..
        } = *self;
        let (oh, ow) = self.out_hw();
        let g_at =
            |ni: usize, oci: usize, oy: usize, ox: usize| g[((ni * oc + oci) * oh + oy) * ow + ox];
        for oci in 0..oc {
            for ni in 0..n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        db[oci] += g_at(ni, oci, oy, ox);
                    }
                }
            }
            for ci in 0..c {
                for ky in 0..k {
                    for kx in 0..k {
                        let acc = &mut dw[((oci * c + ci) * k + ky) * k + kx];
                        for ni in 0..n {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    *acc += g_at(ni, oci, oy, ox)
                                        * self.padded(
                                            x,
                                            ni,
                                            ci,
                                            oy * stride + ky,
                                            ox * stride + kx,
                                        );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Per input cell from zero, contributions in `(oci ↑, oy ↑, ox ↑)`
    /// order; output cells the tap does not reach enter as `· 0.0`.
    fn input_grad(&self, wgt: &[f32], g: &[f32]) -> Vec<f32> {
        let Geometry {
            n,
            c,
            h,
            w,
            oc,
            k,
            pad,
            stride,
        } = *self;
        let (oh, ow) = self.out_hw();
        // The output index whose tap `k_off` lands on input index `i`.
        let reached = |i: usize, k_off: usize, out_len: usize| -> Option<usize> {
            let t = (i + pad).checked_sub(k_off)?;
            (t % stride == 0 && t / stride < out_len).then_some(t / stride)
        };
        let mut dx = Vec::with_capacity(n * c * h * w);
        for ni in 0..n {
            for ci in 0..c {
                for iy in 0..h {
                    for ix in 0..w {
                        let mut acc = 0.0f32;
                        for oci in 0..oc {
                            for ky in (0..k).rev() {
                                for kx in (0..k).rev() {
                                    let gv = match (reached(iy, ky, oh), reached(ix, kx, ow)) {
                                        (Some(oy), Some(ox)) => {
                                            g[((ni * oc + oci) * oh + oy) * ow + ox]
                                        }
                                        _ => 0.0,
                                    };
                                    acc += wgt[((oci * c + ci) * k + ky) * k + kx] * gv;
                                }
                            }
                        }
                        dx.push(acc);
                    }
                }
            }
        }
        dx
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One third exact `±0.0` (what ReLU leaves), one whole zero run.
fn draw(len: usize, rng: &mut Pcg32) -> Vec<f32> {
    let mut v: Vec<f32> = (0..len)
        .map(|_| match rng.next_below(6) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.next_normal(),
        })
        .collect();
    let run = rng.next_below(len as u32 + 1) as usize;
    let at = rng.next_below((len - run) as u32 + 1) as usize;
    v[at..at + run].fill(0.0);
    v
}

#[test]
fn conv2d_matches_the_loop_nests_bitwise() {
    let mut rng = Pcg32::seed_from(0xC0A7);
    let channels = [1, 3, 10, 13, 17, 33];
    let mut case = 0usize;
    for k in [1usize, 3, 5] {
        for pad in 0..3 {
            for stride in 1..4 {
                for _ in 0..3 {
                    // Every channel count meets every other one as `c` and
                    // as `oc` over the grid; sizes stay random.
                    let (c, oc) = (channels[case % 6], channels[case / 6 % 6]);
                    case += 1;
                    let geo = Geometry {
                        n: 1 + rng.next_below(3) as usize,
                        c,
                        h: (k.saturating_sub(2 * pad)).max(1) + rng.next_below(6) as usize,
                        w: (k.saturating_sub(2 * pad)).max(1) + rng.next_below(6) as usize,
                        oc,
                        k,
                        pad,
                        stride,
                    };
                    check(geo, &mut rng);
                }
            }
        }
    }
}

fn check(geo: Geometry, rng: &mut Pcg32) {
    let Geometry {
        n,
        c,
        h,
        w,
        oc,
        k,
        pad,
        stride,
    } = geo;
    let (oh, ow) = geo.out_hw();
    let wgt = draw(oc * c * k * k, rng);
    let bias = draw(oc, rng);
    let mut dw = draw(oc * c * k * k, rng);
    let mut db = draw(oc, rng);
    let mut conv = Conv2d::with_stride(c, oc, k, pad, stride, &mut Pcg32::seed_from(0));
    let mut params = vec![(bias.clone(), db.clone()), (wgt.clone(), dw.clone())];
    conv.visit_params_mut(&mut |p| {
        let (value, grad) = params.pop().expect("weight, then bias");
        p.value.data_mut().copy_from_slice(&value);
        p.grad.data_mut().copy_from_slice(&grad);
    });

    let x = Tensor::from_vec(&[n, c, h, w], draw(n * c * h * w, rng));
    let mut arena = ScratchArena::new();
    let y = conv.forward(&x, true, &mut arena);
    assert_eq!(y.shape().dims(), &[n, oc, oh, ow], "{geo:?}");
    assert_eq!(
        bits(y.data()),
        bits(&geo.forward(&wgt, &bias, x.data())),
        "forward {geo:?}"
    );

    let g = Tensor::from_vec(&[n, oc, oh, ow], draw(n * oc * oh * ow, rng));
    let want_dx = geo.input_grad(&wgt, g.data());
    // Twice without `zero_grads`: the second pass continues every chain.
    for pass in 0..2 {
        let dx = conv.backward(&g, &mut arena);
        geo.param_grads(g.data(), x.data(), &mut dw, &mut db);
        assert_eq!(bits(dx.data()), bits(&want_dx), "dx pass {pass} {geo:?}");
        let mut grads = Vec::new();
        conv.visit_params(&mut |p| grads.push(bits(p.grad.data())));
        assert_eq!(grads, [bits(&dw), bits(&db)], "dW/db pass {pass} {geo:?}");
    }
}
