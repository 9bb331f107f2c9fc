//! Pooling layers.

use crate::layer::{byte_slot, Layer, Param};
use rpol_tensor::scratch::{self, ScratchArena};
use rpol_tensor::Tensor;

/// 2×2 average pooling with stride 2.
///
/// Input `[N, C, H, W]` with even `H` and `W`; output `[N, C, H/2, W/2]`.
#[derive(Debug, Clone, Default)]
pub struct AvgPool2 {
    input_dims: Option<Vec<usize>>,
}

impl AvgPool2 {
    /// Creates a 2×2 average-pooling layer.
    pub fn new() -> Self {
        Self { input_dims: None }
    }
}

impl Layer for AvgPool2 {
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        assert_eq!(input.shape().rank(), 4, "pool expects [N, C, H, W]");
        let (n, c, h, w) = (
            input.shape().dim(0),
            input.shape().dim(1),
            input.shape().dim(2),
            input.shape().dim(3),
        );
        assert!(h % 2 == 0 && w % 2 == 0, "AvgPool2 needs even H and W");
        if train {
            self.input_dims = Some(input.shape().dims().to_vec());
        }
        let (oh, ow) = (h / 2, w / 2);
        let x = input.data();
        let mut out = arena.take_zeroed(n * c * oh * ow);
        for nc in 0..n * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let base = nc * h * w;
                    let sum = x[base + (2 * oy) * w + 2 * ox]
                        + x[base + (2 * oy) * w + 2 * ox + 1]
                        + x[base + (2 * oy + 1) * w + 2 * ox]
                        + x[base + (2 * oy + 1) * w + 2 * ox + 1];
                    out[nc * oh * ow + oy * ow + ox] = sum * 0.25;
                }
            }
        }
        Tensor::from_vec(&[n, c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        let dims = self
            .input_dims
            .as_ref()
            .expect("backward before forward on AvgPool2");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (oh, ow) = (h / 2, w / 2);
        let g = grad_out.data();
        let mut dx = arena.take_zeroed(n * c * h * w);
        for nc in 0..n * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = g[nc * oh * ow + oy * ow + ox] * 0.25;
                    let base = nc * h * w;
                    dx[base + (2 * oy) * w + 2 * ox] += go;
                    dx[base + (2 * oy) * w + 2 * ox + 1] += go;
                    dx[base + (2 * oy + 1) * w + 2 * ox] += go;
                    dx[base + (2 * oy + 1) * w + 2 * ox + 1] += go;
                }
            }
        }
        Tensor::from_vec(dims, dx)
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

/// 2×2 max pooling with stride 2.
///
/// Input `[N, C, H, W]` with even `H` and `W`; output `[N, C, H/2, W/2]`.
/// Backward routes each gradient to the window's argmax (first on ties).
#[derive(Debug, Clone, Default)]
pub struct MaxPool2 {
    input_dims: Option<Vec<usize>>,
    /// Where each output's maximum sits in its window, one byte each
    /// (0 top-left, 1 top-right, 2 bottom-left, 3 bottom-right); refilled
    /// by every training-mode forward, untouched by inference.
    argmax: Option<Vec<u8>>,
}

impl MaxPool2 {
    /// Creates a 2×2 max-pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The maximum of window `ox` of a row pair (`rows` = two rows of `w`)
/// and its place in the window (see [`MaxPool2`]). Compared with `>`
/// against the running best in the order top-left, top-right,
/// bottom-left, bottom-right: the first maximum wins ties and a NaN never
/// replaces the best. Written as selects — which of four random
/// activations is largest is not a branch a predictor can learn.
#[inline(always)]
fn window_max(rows: &[f32], w: usize, ox: usize) -> (f32, u8) {
    let (mut best, mut at) = (rows[2 * ox], 0);
    for (place, i) in [(1, 2 * ox + 1), (2, w + 2 * ox), (3, w + 2 * ox + 1)] {
        let take = rows[i] > best;
        best = if take { rows[i] } else { best };
        at = if take { place } else { at };
    }
    (best, at)
}

impl Layer for MaxPool2 {
    /// Walks two input rows per output row ([`window_max`] per window).
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut ScratchArena) -> Tensor {
        assert_eq!(input.shape().rank(), 4, "pool expects [N, C, H, W]");
        let (n, c, h, w) = (
            input.shape().dim(0),
            input.shape().dim(1),
            input.shape().dim(2),
            input.shape().dim(3),
        );
        assert!(h % 2 == 0 && w % 2 == 0, "MaxPool2 needs even H and W");
        let (oh, ow) = (h / 2, w / 2);
        let mut out = arena.take_zeroed(n * c * oh * ow);
        let row_pairs = input.data().chunks_exact(2 * w);
        if train {
            self.input_dims = Some(input.shape().dims().to_vec());
            let mut argmax = byte_slot(self.argmax.take(), out.len());
            argmax.resize(out.len(), 0);
            let slots = out.chunks_exact_mut(ow).zip(argmax.chunks_exact_mut(ow));
            for (rows, (out_row, at_row)) in row_pairs.zip(slots) {
                for (ox, (o, at)) in out_row.iter_mut().zip(at_row).enumerate() {
                    (*o, *at) = window_max(rows, w, ox);
                }
            }
            self.argmax = Some(argmax);
        } else {
            for (rows, out_row) in row_pairs.zip(out.chunks_exact_mut(ow)) {
                for (ox, o) in out_row.iter_mut().enumerate() {
                    *o = window_max(rows, w, ox).0;
                }
            }
        }
        Tensor::from_vec(&[n, c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor, arena: &mut ScratchArena) -> Tensor {
        let (Some(dims), Some(argmax)) = (self.input_dims.as_ref(), self.argmax.as_ref()) else {
            panic!("backward before forward on MaxPool2");
        };
        assert_eq!(grad_out.len(), argmax.len(), "grad shape");
        let w = dims[3];
        let ow = w / 2;
        let mut dx = arena.take_zeroed(dims.iter().product());
        let places = argmax
            .chunks_exact(ow)
            .zip(grad_out.data().chunks_exact(ow));
        for (rows, (at_row, g_row)) in dx.chunks_exact_mut(2 * w).zip(places) {
            for (ox, (&at, &g)) in at_row.iter().zip(g_row).enumerate() {
                let at = usize::from(at);
                rows[(at >> 1) * w + 2 * ox + (at & 1)] += g;
            }
        }
        Tensor::from_vec(dims, dx)
    }

    fn release(&mut self, _arena: &mut ScratchArena) {
        self.input_dims = None;
        self.argmax.take().into_iter().for_each(scratch::put);
    }

    fn held_bytes(&self) -> usize {
        self.argmax.as_ref().map_or(0, Vec::len)
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `MaxPool2` as it was before it moved onto the arena: four flat
    /// indices per window through a `candidates` array, fresh buffers.
    fn maxpool_oracle(x: &[f32], [n, c, h, w]: [usize; 4], g: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let (oh, ow) = (h / 2, w / 2);
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut dx = vec![0.0f32; n * c * h * w];
        for nc in 0..n * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let base = nc * h * w;
                    let candidates = [
                        base + (2 * oy) * w + 2 * ox,
                        base + (2 * oy) * w + 2 * ox + 1,
                        base + (2 * oy + 1) * w + 2 * ox,
                        base + (2 * oy + 1) * w + 2 * ox + 1,
                    ];
                    let mut best = candidates[0];
                    for &cix in &candidates[1..] {
                        if x[cix] > x[best] {
                            best = cix;
                        }
                    }
                    let o = nc * oh * ow + oy * ow + ox;
                    out[o] = x[best];
                    dx[best] += g[o];
                }
            }
        }
        (out, dx)
    }

    #[test]
    fn maxpool_on_the_arena_matches_the_old_loops_bitwise() {
        use rpol_tensor::rng::Pcg32;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut rng = Pcg32::seed_from(0x9001);
        let mut pool = MaxPool2::new();
        let mut arena = ScratchArena::new();
        for round in 0..40 {
            let dims = [
                1 + rng.next_below(3) as usize,
                1 + rng.next_below(4) as usize,
                2 * (1 + rng.next_below(4) as usize),
                2 * (1 + rng.next_below(5) as usize),
            ];
            let len: usize = dims.iter().product();
            // A small value set: exact ties in most windows, `-0.0` against
            // `+0.0` (equal under `>`, so the first one wins), and NaN.
            let values = [0.0, -0.0, 1.5, -2.0, 1.5, f32::NAN, 0.25];
            let mut draw = |n: usize| -> Vec<f32> {
                (0..n)
                    .map(|_| match rng.next_below(3) {
                        0 => rng.next_normal(),
                        _ => values[rng.next_below(values.len() as u32) as usize],
                    })
                    .collect()
            };
            let x = Tensor::from_vec(&dims, draw(len));
            let g = Tensor::from_vec(&[dims[0], dims[1], dims[2] / 2, dims[3] / 2], draw(len / 4));
            let (want_y, want_dx) = maxpool_oracle(x.data(), dims, g.data());

            let y = pool.forward(&x, true, &mut arena);
            assert_eq!(bits(y.data()), bits(&want_y), "round {round}");
            // An inference pass in between leaves the routing alone.
            let other = Tensor::from_vec(&dims, draw(len));
            let y_eval = pool.forward(&other, false, &mut arena);
            assert_eq!(
                bits(y_eval.data()),
                bits(&maxpool_oracle(other.data(), dims, g.data()).0)
            );
            let dx = pool.backward(&g, &mut arena);
            assert_eq!(bits(dx.data()), bits(&want_dx), "round {round}");
            for spent in [y, y_eval, dx] {
                arena.recycle(spent.into_vec());
            }
        }
    }

    #[test]
    fn maxpool_known_values() {
        let mut arena = ScratchArena::new();
        let mut pool = MaxPool2::new();
        let x = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|i| i as f32).collect());
        let y = pool.forward(&x, true, &mut arena);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
        // Gradient routes only to the maxima.
        let g = Tensor::ones(&[1, 1, 2, 2]);
        let dx = pool.backward(&g, &mut arena);
        let nonzero: Vec<usize> = dx
            .data()
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0.0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(nonzero, vec![5, 7, 13, 15]);
    }

    #[test]
    fn maxpool_is_invariant_to_nonmax_perturbation() {
        let mut arena = ScratchArena::new();
        let mut pool = MaxPool2::new();
        let mut x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 9.0]);
        let y1 = pool.forward(&x, false, &mut arena);
        x.data_mut()[0] = 1.5; // not the max
        let y2 = pool.forward(&x, false, &mut arena);
        assert_eq!(y1, y2);
    }

    #[test]
    fn avgpool_known_values() {
        let mut arena = ScratchArena::new();
        let mut pool = AvgPool2::new();
        let x = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|i| i as f32).collect());
        let y = pool.forward(&x, true, &mut arena);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[2.5, 4.5, 10.5, 12.5]);
        let g = Tensor::ones(&[1, 1, 2, 2]);
        let dx = pool.backward(&g, &mut arena);
        assert!(dx.data().iter().all(|&v| (v - 0.25).abs() < 1e-7));
    }

    #[test]
    #[should_panic(expected = "even H and W")]
    fn avgpool_odd_rejected() {
        let mut arena = ScratchArena::new();
        AvgPool2::new().forward(&Tensor::ones(&[1, 1, 3, 4]), false, &mut arena);
    }
}
