//! Implicit-operand convolution products: the `[C·K·K, OH·OW]` im2col
//! matrix is never built — it is *read* through an offset table into a
//! zero-padded copy of one sample (the **canvas**, `[C, HP, WP]`, one
//! buffer reused for every sample of a batch).
//!
//! Both kernels keep the [`crate::gemm`] contract verbatim: one
//! accumulator chain per output element, ascending over the shared
//! dimension, `mul` then `add` (never FMA), operand order `a · b` as the
//! GEMM micro-kernel has it, ISA tier invisible in the bytes. Each chain
//! is term for term the one `gemm_into` ran over the materialised matrix:
//! a padded tap used to be a `0.0` the matrix was zero-filled with and is
//! now a `0.0` the canvas was zero-filled with, so its `a · 0.0` term
//! still enters the chain at the same place.
//!
//! * [`shifted`] (forward, input gradient) — in the canvas' flat
//!   coordinates `q = oy·WP + ox`, tap `p = (ci, ky, kx)` of 16
//!   consecutive stride-1 outputs is the 16 contiguous floats at
//!   `off[p] + q`, `off[p] = ci·HP·WP + ky·WP + kx`. A tile is ≤ 12 real
//!   rows × 16 lanes; `WP − OW` lanes per image row straddle the row end
//!   and compute garbage that the copy-out skips. Lanes are independent
//!   chains, so garbage (even NaN from the slack behind the canvas) never
//!   reaches a kept lane. A stride `s > 1` is computed at stride 1 and
//!   subsampled in the copy-out — every kept chain is a stride-1 chain.
//! * [`gather`] (weight gradient) — the chain runs along output
//!   positions, so positions cannot be lanes; lanes are the output
//!   channels (`gᵀ` laid out `[pos][16]`, zero lanes beyond `OC`), rows
//!   are ≤ 12 taps, and each step broadcasts one canvas cell
//!   `off[p] + oy·s·WP + ox·s`. Accumulators are preloaded from the
//!   persistent gradient and carried across samples in ascending order.

use crate::gemm::isa_tier;
use crate::scratch::ScratchArena;

/// Lanes per tile: one ZMM, two YMM, or a `[f32; 16]` on the baseline.
const LANES: usize = 16;
/// Rows (independent accumulator registers) per tile on the intrinsics
/// tiers; 12 + operand registers fit the 16 YMM of AVX2.
const MAX_ROWS: usize = 12;
/// Rows per tile on the baseline tier: 2 rows × 16 lanes are 8 XMM-sized
/// accumulators, which with the operands still fit 16 registers — a
/// 12-row tile there lives on the stack (measured 2–3× slower).
const PORTABLE_ROWS: usize = 2;

/// Tiling is invisible in the bytes: every chain stays within one lane of
/// one row, whatever rows share its tile.
fn rows_per_tile(tier: usize) -> usize {
    if tier == 1 {
        PORTABLE_ROWS
    } else {
        MAX_ROWS
    }
}

/// Calls `$f::<R>($args)` with the runtime row count `$r` as the const
/// generic: the intrinsics bodies need `R` accumulator *registers*.
macro_rules! dispatch_rows {
    ($r:expr, $f:ident($($arg:expr),*)) => {
        match $r {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            8 => $f::<8>($($arg),*),
            9 => $f::<9>($($arg),*),
            10 => $f::<10>($($arg),*),
            11 => $f::<11>($($arg),*),
            12 => $f::<12>($($arg),*),
            _ => unreachable!("tiles are cut to at most MAX_ROWS rows"),
        }
    };
}

/// `out[ni, r, oy, ox] = init[r] + Σ_p a[r, p] · canvas_ni[ci, oy·stride + ky, ox·stride + kx]`
/// for `p = (ci, ky, kx)` ascending — `n` samples, `rows` output maps,
/// `a` row-major `[rows, c·k·k]`, `out` `[n, rows, oh, ow]`.
///
/// `canvas_ni` is a zero image `[c, (oh−1)·stride + k, (ow−1)·stride + k]`
/// with `src[ni, ci, y, x]` (`src` is `[n, c, h, w]`) written at
/// `(lead + y·dilation, lead + x·dilation)`; source cells that land
/// outside are dropped. The forward pass of a convolution is
/// `lead = pad, dilation = 1`; its input gradient is the same product
/// over the output gradient with `lead = k − 1 − pad` (negative crops),
/// `dilation` = the forward stride, `stride = 1`, against the
/// 180°-rotated kernels, from `init = 0`.
///
/// Reports `n` calls and their real (unpadded) FLOPs to the
/// `tensor.gemm.*` counters, as the per-sample GEMMs it replaces did.
///
/// # Panics
///
/// Panics if a slice length does not match its shape or a size is zero.
#[allow(clippy::too_many_arguments)]
pub fn shifted(
    n: usize,
    rows: usize,
    a: &[f32],
    init: &[f32],
    c: usize,
    h: usize,
    w: usize,
    src: &[f32],
    lead: isize,
    dilation: usize,
    k: usize,
    stride: usize,
    oh: usize,
    ow: usize,
    out: &mut [f32],
    arena: &mut ScratchArena,
) {
    count_products(n, rows, oh * ow, c * k * k);
    shifted_on(
        isa_tier(),
        n,
        rows,
        a,
        init,
        c,
        h,
        w,
        src,
        lead,
        dilation,
        k,
        stride,
        oh,
        ow,
        out,
        arena,
    );
}

/// `dw[o, p] += Σ_ni Σ_t g[ni, o, t] · canvas_ni[ci, oy·stride + ky, ox·stride + kx]`
/// for `t = (oy, ox)` ascending within samples ascending — `g` is
/// `[n, oc, oh, ow]`, `dw` row-major `[oc, c·k·k]` and the start of every
/// chain, `canvas_ni` the sample `x[ni]` (`x` is `[n, c, h, w]`) under
/// `pad` zeros as in [`shifted`].
///
/// Reports `n` calls and their FLOPs to the `tensor.gemm.*` counters.
///
/// # Panics
///
/// Panics if a slice length does not match its shape or a size is zero.
#[allow(clippy::too_many_arguments)]
pub fn gather(
    n: usize,
    oc: usize,
    g: &[f32],
    c: usize,
    h: usize,
    w: usize,
    x: &[f32],
    pad: usize,
    k: usize,
    stride: usize,
    oh: usize,
    ow: usize,
    dw: &mut [f32],
    arena: &mut ScratchArena,
) {
    count_products(n, oc, c * k * k, oh * ow);
    gather_on(
        isa_tier(),
        n,
        oc,
        g,
        c,
        h,
        w,
        x,
        pad,
        k,
        stride,
        oh,
        ow,
        dw,
        arena,
    );
}

/// One `[m × cols × depth]` product per sample, on the counters
/// `gemm_into` reports to; one relaxed load when observability is off.
fn count_products(n: usize, m: usize, cols: usize, depth: usize) {
    if rpol_obs::global_enabled() {
        let rec = rpol_obs::global();
        rec.counter_add("tensor.gemm.calls", n as u64);
        rec.counter_add(
            "tensor.gemm.flops_total",
            2 * (n as u64) * (m as u64) * (cols as u64) * (depth as u64),
        );
    }
}

/// `off[p] = ci·hp·wp + ky·wp + kx` for `p = (ci, ky, kx)` ascending.
fn offsets(c: usize, hp: usize, wp: usize, k: usize) -> Vec<usize> {
    let mut off = Vec::with_capacity(c * k * k);
    for ci in 0..c {
        for ky in 0..k {
            off.extend((0..k).map(|kx| (ci * hp + ky) * wp + kx));
        }
    }
    off
}

/// The source indices `[lo, hi)` along one axis of length `len` whose
/// canvas coordinate `lead + i·dilation` lies in `[0, canvas_len)`.
fn placed_range(len: usize, lead: isize, dilation: usize, canvas_len: usize) -> (usize, usize) {
    let lo = lead.min(0).unsigned_abs().div_ceil(dilation);
    let hi = (canvas_len as isize - lead)
        .max(0)
        .unsigned_abs()
        .div_ceil(dilation);
    (lo, hi.min(len))
}

/// Writes one `[c, h, w]` sample into its canvas cells. Which cells those
/// are depends on geometry only, so a canvas zeroed once serves every
/// sample of a batch: the cells between them are never written.
#[allow(clippy::too_many_arguments)]
fn place(
    src: &[f32],
    c: usize,
    h: usize,
    w: usize,
    lead: isize,
    dilation: usize,
    hp: usize,
    wp: usize,
    canvas: &mut [f32],
) {
    let (y_lo, y_hi) = placed_range(h, lead, dilation, hp);
    let (x_lo, x_hi) = placed_range(w, lead, dilation, wp);
    if x_lo >= x_hi {
        return;
    }
    // Non-negative by the ranges above.
    let at = |i: usize| (lead + (i * dilation) as isize) as usize;
    for ci in 0..c {
        for y in y_lo..y_hi {
            let row = &src[(ci * h + y) * w..][x_lo..x_hi];
            let dst = &mut canvas[(ci * hp + at(y)) * wp + at(x_lo)..];
            if dilation == 1 {
                dst[..row.len()].copy_from_slice(row);
            } else {
                for (d, &v) in dst.iter_mut().step_by(dilation).zip(row) {
                    *d = v;
                }
            }
        }
    }
}

/// [`shifted`] on an explicit ISA tier (tests run every tier the host has).
#[allow(clippy::too_many_arguments)]
fn shifted_on(
    tier: usize,
    n: usize,
    rows: usize,
    a: &[f32],
    init: &[f32],
    c: usize,
    h: usize,
    w: usize,
    src: &[f32],
    lead: isize,
    dilation: usize,
    k: usize,
    stride: usize,
    oh: usize,
    ow: usize,
    out: &mut [f32],
    arena: &mut ScratchArena,
) {
    assert!(
        rows > 0 && c > 0 && k > 0 && stride > 0 && dilation > 0 && oh > 0 && ow > 0,
        "zero-sized convolution product"
    );
    let taps = c * k * k;
    assert_eq!(a.len(), rows * taps, "A operand length");
    assert_eq!(init.len(), rows, "init length");
    assert_eq!(src.len(), n * c * h * w, "source length");
    assert_eq!(out.len(), n * rows * oh * ow, "output length");
    let (hp, wp) = ((oh - 1) * stride + k, (ow - 1) * stride + k);
    let off = offsets(c, hp, wp, k);
    // Stride-1 positions up to the last one the copy-out keeps; the last
    // tap of that position is the canvas' last cell.
    let span = (hp - k) * wp + (wp - k) + 1;
    let tiles = span.div_ceil(LANES);
    let ldo = tiles * LANES;
    // The slack behind the canvas is read by the last tile's garbage
    // lanes only.
    let mut canvas = arena.take_zeroed(c * hp * wp + ldo - span);
    let mut stage = arena.take_zeroed(rows * ldo);
    for ni in 0..n {
        let sample = &src[ni * c * h * w..][..c * h * w];
        place(sample, c, h, w, lead, dilation, hp, wp, &mut canvas);
        shifted_sample(tier, a, init, &off, &canvas, tiles, &mut stage);
        let out_s = &mut out[ni * rows * oh * ow..][..rows * oh * ow];
        for (r, map) in out_s.chunks_exact_mut(oh * ow).enumerate() {
            for (oy, dst) in map.chunks_exact_mut(ow).enumerate() {
                let kept = &stage[r * ldo + oy * stride * wp..];
                if stride == 1 {
                    dst.copy_from_slice(&kept[..ow]);
                } else {
                    for (d, &v) in dst.iter_mut().zip(kept.iter().step_by(stride)) {
                        *d = v;
                    }
                }
            }
        }
    }
    arena.recycle(canvas);
    arena.recycle(stage);
}

/// All tiles of one sample: `stage[r, q] = init[r] + Σ_p a[r, p] ·
/// canvas[off[p] + q]` for `q < tiles·16`, rows cut into tiles of at most
/// [`rows_per_tile`] real rows (no padded rows).
fn shifted_sample(
    tier: usize,
    a: &[f32],
    init: &[f32],
    off: &[usize],
    canvas: &[f32],
    tiles: usize,
    stage: &mut [f32],
) {
    let (rows, taps, ldo) = (init.len(), off.len(), tiles * LANES);
    assert!(a.len() == rows * taps && stage.len() == rows * ldo);
    // Offsets ascend, so the last one bounds every read of every tile.
    assert!(
        off.last().is_some_and(|last| last + ldo <= canvas.len()),
        "canvas shorter than the last tile reads"
    );
    // A tier is only ever run after its feature was detected.
    let tier = tier.min(isa_tier());
    let max_rows = rows_per_tile(tier);
    for r0 in (0..rows).step_by(max_rows) {
        let r = max_rows.min(rows - r0);
        let (a_t, init_t, stage_t) = (&a[r0 * taps..], &init[r0..], &mut stage[r0 * ldo..]);
        match tier {
            // SAFETY: avx512f was detected (tier ≤ isa_tier()); the two
            // asserts above cover every address `r` rows × `tiles` touch.
            #[cfg(target_arch = "x86_64")]
            3 => unsafe {
                dispatch_rows!(
                    r,
                    shifted_rows_avx512(a_t, init_t, off, canvas, tiles, stage_t)
                )
            },
            // SAFETY: as above, for avx2.
            #[cfg(target_arch = "x86_64")]
            2 => unsafe {
                dispatch_rows!(
                    r,
                    shifted_rows_avx2(a_t, init_t, off, canvas, tiles, stage_t)
                )
            },
            _ => match r {
                1 => shifted_rows_portable::<1>(a_t, init_t, off, canvas, tiles, stage_t),
                2 => shifted_rows_portable::<2>(a_t, init_t, off, canvas, tiles, stage_t),
                _ => unreachable!("baseline tiles are cut to PORTABLE_ROWS rows"),
            },
        }
    }
}

/// Baseline tier of the [`shifted`] tile loop (`R ≤` [`PORTABLE_ROWS`]);
/// the chain per lane is the definition the intrinsics tiers are tested
/// against.
fn shifted_rows_portable<const R: usize>(
    a: &[f32],
    init: &[f32],
    off: &[usize],
    canvas: &[f32],
    tiles: usize,
    stage: &mut [f32],
) {
    let (taps, ldo) = (off.len(), tiles * LANES);
    for t in 0..tiles {
        let mut acc = [[0.0f32; LANES]; R];
        for (row, &start) in acc.iter_mut().zip(init) {
            row.fill(start);
        }
        for (p, &o) in off.iter().enumerate() {
            let x = &canvas[o + t * LANES..][..LANES];
            for (ri, row) in acc.iter_mut().enumerate() {
                let av = a[ri * taps + p];
                for (acc_v, &xv) in row.iter_mut().zip(x) {
                    *acc_v += av * xv;
                }
            }
        }
        for (ri, row) in acc.iter().enumerate() {
            stage[ri * ldo + t * LANES..][..LANES].copy_from_slice(row);
        }
    }
}

/// AVX-512 tier: one ZMM per row, `R` chains in flight, `vmulps` then
/// `vaddps` per lane.
///
/// # Safety
///
/// Callers must have verified `avx512f` at runtime; `a` holds `R` rows of
/// `off.len()` floats, `init` `R` floats, `stage` `R` rows of `tiles·16`
/// floats, and `canvas` at least `off[p] + tiles·16` floats for every `p`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn shifted_rows_avx512<const R: usize>(
    a: &[f32],
    init: &[f32],
    off: &[usize],
    canvas: &[f32],
    tiles: usize,
    stage: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (taps, ldo) = (off.len(), tiles * LANES);
    let (a, stage) = (a.as_ptr(), stage.as_mut_ptr());
    for t in 0..tiles {
        let x = canvas.as_ptr().add(t * LANES);
        let mut acc = [_mm512_setzero_ps(); R];
        for (ri, v) in acc.iter_mut().enumerate() {
            *v = _mm512_set1_ps(*init.get_unchecked(ri));
        }
        for (p, &o) in off.iter().enumerate() {
            let vx = _mm512_loadu_ps(x.add(o));
            for (ri, v) in acc.iter_mut().enumerate() {
                let va = _mm512_set1_ps(*a.add(ri * taps + p));
                *v = _mm512_add_ps(*v, _mm512_mul_ps(va, vx));
            }
        }
        for (ri, v) in acc.iter().enumerate() {
            _mm512_storeu_ps(stage.add(ri * ldo + t * LANES), *v);
        }
    }
}

/// AVX2 tier: a tile is two 8-lane halves so `R ≤ 12` accumulators plus
/// the two operands fit the 16 YMM registers.
///
/// # Safety
///
/// As [`shifted_rows_avx512`], for `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn shifted_rows_avx2<const R: usize>(
    a: &[f32],
    init: &[f32],
    off: &[usize],
    canvas: &[f32],
    tiles: usize,
    stage: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (taps, ldo) = (off.len(), tiles * LANES);
    let (a, stage) = (a.as_ptr(), stage.as_mut_ptr());
    for q in (0..tiles * LANES).step_by(8) {
        let x = canvas.as_ptr().add(q);
        let mut acc = [_mm256_setzero_ps(); R];
        for (ri, v) in acc.iter_mut().enumerate() {
            *v = _mm256_set1_ps(*init.get_unchecked(ri));
        }
        for (p, &o) in off.iter().enumerate() {
            let vx = _mm256_loadu_ps(x.add(o));
            for (ri, v) in acc.iter_mut().enumerate() {
                let va = _mm256_set1_ps(*a.add(ri * taps + p));
                *v = _mm256_add_ps(*v, _mm256_mul_ps(va, vx));
            }
        }
        for (ri, v) in acc.iter().enumerate() {
            _mm256_storeu_ps(stage.add(ri * ldo + q), *v);
        }
    }
}

/// [`gather`] on an explicit ISA tier.
#[allow(clippy::too_many_arguments)]
fn gather_on(
    tier: usize,
    n: usize,
    oc: usize,
    g: &[f32],
    c: usize,
    h: usize,
    w: usize,
    x: &[f32],
    pad: usize,
    k: usize,
    stride: usize,
    oh: usize,
    ow: usize,
    dw: &mut [f32],
    arena: &mut ScratchArena,
) {
    assert!(
        oc > 0 && c > 0 && k > 0 && stride > 0 && oh > 0 && ow > 0,
        "zero-sized convolution product"
    );
    let (taps, positions) = (c * k * k, oh * ow);
    assert_eq!(g.len(), n * oc * positions, "gradient length");
    assert_eq!(x.len(), n * c * h * w, "input length");
    assert_eq!(dw.len(), oc * taps, "weight gradient length");
    let (hp, wp) = ((oh - 1) * stride + k, (ow - 1) * stride + k);
    let off = offsets(c, hp, wp, k);
    let groups = oc.div_ceil(LANES);
    let width = groups * LANES;
    let mut canvas = arena.take_zeroed(c * hp * wp);
    // gᵀ as `[group][pos][16]`; lanes beyond `oc` stay zero.
    let mut gt = arena.take_zeroed(groups * positions * LANES);
    // The accumulators, `[tap][width]`: channels along the lanes.
    let mut acc = arena.take_zeroed(taps * width);
    for (o, row) in dw.chunks_exact(taps).enumerate() {
        for (p, &v) in row.iter().enumerate() {
            acc[p * width + o] = v;
        }
    }
    for ni in 0..n {
        let sample = &x[ni * c * h * w..][..c * h * w];
        place(sample, c, h, w, pad as isize, 1, hp, wp, &mut canvas);
        let g_s = &g[ni * oc * positions..][..oc * positions];
        for (o, row) in g_s.chunks_exact(positions).enumerate() {
            let lanes = &mut gt[(o / LANES) * positions * LANES + o % LANES..];
            for (lane, &v) in lanes.iter_mut().step_by(LANES).zip(row) {
                *lane = v;
            }
        }
        gather_sample(tier, &off, &canvas, wp, stride, oh, ow, &gt, &mut acc);
    }
    for (o, row) in dw.chunks_exact_mut(taps).enumerate() {
        for (p, v) in row.iter_mut().enumerate() {
            *v = acc[p * width + o];
        }
    }
    arena.recycle(canvas);
    arena.recycle(gt);
    arena.recycle(acc);
}

/// One sample's contribution: `acc[p, o] += Σ_t gt[o, t] · canvas[off[p]
/// + oy·stride·wp + ox·stride]`, `t` ascending, taps cut into tiles of at
/// most [`rows_per_tile`], one lane group per 16 channels.
#[allow(clippy::too_many_arguments)]
fn gather_sample(
    tier: usize,
    off: &[usize],
    canvas: &[f32],
    wp: usize,
    stride: usize,
    oh: usize,
    ow: usize,
    gt: &[f32],
    acc: &mut [f32],
) {
    let (taps, positions) = (off.len(), oh * ow);
    let width = acc.len() / taps;
    assert!(acc.len() == taps * width && gt.len() == width * positions);
    // Offsets ascend: the last tap of the last position is the furthest read.
    assert!(
        off.last()
            .is_some_and(|last| last + (oh - 1) * stride * wp + (ow - 1) * stride < canvas.len()),
        "canvas shorter than the last position reads"
    );
    let tier = tier.min(isa_tier());
    let max_rows = rows_per_tile(tier);
    for (group, gt_g) in gt.chunks_exact(positions * LANES).enumerate() {
        for p0 in (0..taps).step_by(max_rows) {
            let r = max_rows.min(taps - p0);
            let (off_t, acc_t) = (&off[p0..p0 + r], &mut acc[p0 * width + group * LANES..]);
            match tier {
                // SAFETY: avx512f was detected (tier ≤ isa_tier()); the
                // asserts above cover every canvas, `gt_g` and `acc_t`
                // address `r` taps × `oh·ow` positions touch.
                #[cfg(target_arch = "x86_64")]
                3 => unsafe {
                    dispatch_rows!(
                        r,
                        gather_rows_avx512(off_t, canvas, wp, stride, oh, ow, gt_g, acc_t, width)
                    )
                },
                // SAFETY: as above, for avx2.
                #[cfg(target_arch = "x86_64")]
                2 => unsafe {
                    dispatch_rows!(
                        r,
                        gather_rows_avx2(off_t, canvas, wp, stride, oh, ow, gt_g, acc_t, width)
                    )
                },
                _ => match r {
                    1 => gather_rows_portable::<1>(
                        off_t, canvas, wp, stride, oh, ow, gt_g, acc_t, width,
                    ),
                    2 => gather_rows_portable::<2>(
                        off_t, canvas, wp, stride, oh, ow, gt_g, acc_t, width,
                    ),
                    _ => unreachable!("baseline tiles are cut to PORTABLE_ROWS rows"),
                },
            }
        }
    }
}

/// Baseline tier of the [`gather`] tile: `R ≤` [`PORTABLE_ROWS`] taps ×
/// 16 channels.
#[allow(clippy::too_many_arguments)]
fn gather_rows_portable<const R: usize>(
    off: &[usize],
    canvas: &[f32],
    wp: usize,
    stride: usize,
    oh: usize,
    ow: usize,
    gt: &[f32],
    acc: &mut [f32],
    width: usize,
) {
    let off: [usize; R] = std::array::from_fn(|ri| off[ri]);
    let mut tile = [[0.0f32; LANES]; R];
    for (ri, row) in tile.iter_mut().enumerate() {
        row.copy_from_slice(&acc[ri * width..][..LANES]);
    }
    let mut gt = gt.chunks_exact(LANES);
    for oy in 0..oh {
        for ox in 0..ow {
            let q = oy * stride * wp + ox * stride;
            let gv = gt.next().expect("one lane vector per position");
            for (row, &o) in tile.iter_mut().zip(&off) {
                let xv = canvas[o + q];
                for (acc_v, &g) in row.iter_mut().zip(gv) {
                    *acc_v += g * xv;
                }
            }
        }
    }
    for (ri, row) in tile.iter().enumerate() {
        acc[ri * width..][..LANES].copy_from_slice(row);
    }
}

/// AVX-512 tier: one ZMM of 16 channels per tap.
///
/// # Safety
///
/// Callers must have verified `avx512f` at runtime; `off` holds `R`
/// offsets, `canvas` at least `off[r] + (oh−1)·stride·wp + (ow−1)·stride
/// + 1` floats for each, `gt` `oh·ow·16` floats, and `acc` `R` rows of 16
/// floats at row stride `width`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn gather_rows_avx512<const R: usize>(
    off: &[usize],
    canvas: &[f32],
    wp: usize,
    stride: usize,
    oh: usize,
    ow: usize,
    gt: &[f32],
    acc: &mut [f32],
    width: usize,
) {
    use std::arch::x86_64::*;
    let off: [usize; R] = std::array::from_fn(|ri| *off.get_unchecked(ri));
    let acc = acc.as_mut_ptr();
    let mut tile = [_mm512_setzero_ps(); R];
    for (ri, v) in tile.iter_mut().enumerate() {
        *v = _mm512_loadu_ps(acc.add(ri * width));
    }
    let mut gt = gt.as_ptr();
    for oy in 0..oh {
        let row = canvas.as_ptr().add(oy * stride * wp);
        for ox in 0..ow {
            let cell = row.add(ox * stride);
            let vg = _mm512_loadu_ps(gt);
            gt = gt.add(LANES);
            for (v, &o) in tile.iter_mut().zip(&off) {
                let vx = _mm512_set1_ps(*cell.add(o));
                *v = _mm512_add_ps(*v, _mm512_mul_ps(vg, vx));
            }
        }
    }
    for (ri, v) in tile.iter().enumerate() {
        _mm512_storeu_ps(acc.add(ri * width), *v);
    }
}

/// AVX2 tier: the 16 channels as two 8-lane halves.
///
/// # Safety
///
/// As [`gather_rows_avx512`], for `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gather_rows_avx2<const R: usize>(
    off: &[usize],
    canvas: &[f32],
    wp: usize,
    stride: usize,
    oh: usize,
    ow: usize,
    gt: &[f32],
    acc: &mut [f32],
    width: usize,
) {
    use std::arch::x86_64::*;
    let off: [usize; R] = std::array::from_fn(|ri| *off.get_unchecked(ri));
    for half in [0, 8] {
        let acc = acc.as_mut_ptr().add(half);
        let mut tile = [_mm256_setzero_ps(); R];
        for (ri, v) in tile.iter_mut().enumerate() {
            *v = _mm256_loadu_ps(acc.add(ri * width));
        }
        let mut gt = gt.as_ptr().add(half);
        for oy in 0..oh {
            let row = canvas.as_ptr().add(oy * stride * wp);
            for ox in 0..ow {
                let cell = row.add(ox * stride);
                let vg = _mm256_loadu_ps(gt);
                gt = gt.add(LANES);
                for (v, &o) in tile.iter_mut().zip(&off) {
                    let vx = _mm256_set1_ps(*cell.add(o));
                    *v = _mm256_add_ps(*v, _mm256_mul_ps(vg, vx));
                }
            }
        }
        for (ri, v) in tile.iter().enumerate() {
            _mm256_storeu_ps(acc.add(ri * width), *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    /// Every ISA tier this host can run, baseline first.
    fn host_tiers() -> Vec<usize> {
        (1..=isa_tier()).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One third exact `±0.0` — what ReLU feeds a convolution, and where a
    /// skipped or reordered tap would first show — plus a whole zero run.
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

    /// Shapes of one product, in the entry points' argument order.
    #[derive(Debug, Clone, Copy)]
    struct Case {
        n: usize,
        rows: usize,
        c: usize,
        h: usize,
        w: usize,
        lead: isize,
        dilation: usize,
        k: usize,
        stride: usize,
        oh: usize,
        ow: usize,
    }

    impl Case {
        fn canvas_dims(&self) -> (usize, usize) {
            (
                (self.oh - 1) * self.stride + self.k,
                (self.ow - 1) * self.stride + self.k,
            )
        }

        /// The canvas of one sample by its definition, cell by cell.
        fn canvas(&self, sample: &[f32]) -> Vec<f32> {
            let (hp, wp) = self.canvas_dims();
            let mut canvas = vec![0.0; self.c * hp * wp];
            for ci in 0..self.c {
                for y in 0..self.h {
                    for x in 0..self.w {
                        let cy = self.lead + (y * self.dilation) as isize;
                        let cx = self.lead + (x * self.dilation) as isize;
                        if (0..hp as isize).contains(&cy) && (0..wp as isize).contains(&cx) {
                            canvas[(ci * hp + cy as usize) * wp + cx as usize] =
                                sample[(ci * self.h + y) * self.w + x];
                        }
                    }
                }
            }
            canvas
        }

        /// Canvas cell under tap `(ci, ky, kx)` of output `(oy, ox)`.
        fn cell(
            &self,
            canvas: &[f32],
            ci: usize,
            oy: usize,
            ox: usize,
            ky: usize,
            kx: usize,
        ) -> f32 {
            let (hp, wp) = self.canvas_dims();
            canvas[(ci * hp + oy * self.stride + ky) * wp + ox * self.stride + kx]
        }

        /// [`shifted`] as a plain loop nest: one chain per output element.
        fn shifted_naive(&self, a: &[f32], init: &[f32], src: &[f32]) -> Vec<f32> {
            let Case {
                n,
                rows,
                c,
                h,
                w,
                k,
                oh,
                ow,
                ..
            } = *self;
            let mut out = Vec::with_capacity(n * rows * oh * ow);
            for ni in 0..n {
                let canvas = self.canvas(&src[ni * c * h * w..][..c * h * w]);
                for r in 0..rows {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = init[r];
                            for ci in 0..c {
                                for ky in 0..k {
                                    for kx in 0..k {
                                        let av = a[(r * c + ci) * k * k + ky * k + kx];
                                        acc += av * self.cell(&canvas, ci, oy, ox, ky, kx);
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

        /// [`gather`] as a plain loop nest (`rows` is `oc`).
        fn gather_naive(&self, g: &[f32], x: &[f32], dw: &mut [f32]) {
            let Case {
                n,
                rows: oc,
                c,
                h,
                w,
                k,
                oh,
                ow,
                ..
            } = *self;
            let canvases: Vec<Vec<f32>> =
                x.chunks_exact(c * h * w).map(|s| self.canvas(s)).collect();
            for o in 0..oc {
                for ci in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let acc = &mut dw[(o * c + ci) * k * k + ky * k + kx];
                            for ni in 0..n {
                                for oy in 0..oh {
                                    for ox in 0..ow {
                                        let gv = g[((ni * oc + o) * oh + oy) * ow + ox];
                                        *acc += gv * self.cell(&canvases[ni], ci, oy, ox, ky, kx);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        fn run_shifted(&self, tier: usize, a: &[f32], init: &[f32], src: &[f32]) -> Vec<f32> {
            let Case {
                n,
                rows,
                c,
                h,
                w,
                lead,
                dilation,
                k,
                stride,
                oh,
                ow,
            } = *self;
            let mut out = vec![f32::NAN; n * rows * oh * ow];
            let mut arena = ScratchArena::new();
            shifted_on(
                tier, n, rows, a, init, c, h, w, src, lead, dilation, k, stride, oh, ow, &mut out,
                &mut arena,
            );
            out
        }
    }

    /// Random shapes over k ∈ {1,3,5}, leads −2..=2 (a negative lead crops,
    /// a lead ≥ k is all padding at the rim), stride and dilation ∈
    /// {1,2,3}, non-square sources and outputs down to one cell, row and
    /// channel counts past one tile (12) and one lane group (16), batch 1–3.
    fn cases(count: usize, rng: &mut Pcg32) -> Vec<Case> {
        let channels = [1, 3, 10, 13, 17, 33];
        let mut pick = |n: u32| rng.next_below(n) as usize;
        (0..count)
            .map(|_| Case {
                n: 1 + pick(3),
                rows: channels[pick(6)],
                c: channels[pick(6)],
                h: 1 + pick(7),
                w: 1 + pick(7),
                lead: pick(5) as isize - 2,
                dilation: 1 + pick(3),
                k: 1 + 2 * pick(3),
                stride: 1 + pick(3),
                oh: 1 + pick(7),
                ow: 1 + pick(7),
            })
            .collect()
    }

    #[test]
    fn shifted_matches_the_loop_nest_on_every_tier() {
        let mut rng = Pcg32::seed_from(0x5F1F);
        for case in cases(150, &mut rng) {
            let Case {
                n,
                rows,
                c,
                h,
                w,
                k,
                ..
            } = case;
            let a = draw(rows * c * k * k, &mut rng);
            let init = draw(rows, &mut rng);
            let src = draw(n * c * h * w, &mut rng);
            let want = bits(&case.shifted_naive(&a, &init, &src));
            for tier in host_tiers() {
                let got = case.run_shifted(tier, &a, &init, &src);
                assert_eq!(bits(&got), want, "tier {tier} {case:?}");
            }
        }
    }

    #[test]
    fn gather_matches_the_loop_nest_on_every_tier_and_continues_its_chains() {
        let mut rng = Pcg32::seed_from(0x6A7E);
        for mut case in cases(150, &mut rng) {
            // `gather` pads like a forward pass: no dilation, no crop.
            (case.dilation, case.lead) = (1, case.lead.abs());
            let Case {
                n,
                rows: oc,
                c,
                h,
                w,
                lead,
                k,
                stride,
                oh,
                ow,
                ..
            } = case;
            let g = draw(n * oc * oh * ow, &mut rng);
            let x = draw(n * c * h * w, &mut rng);
            let start = draw(oc * c * k * k, &mut rng);
            let mut want = start.clone();
            case.gather_naive(&g, &x, &mut want);
            case.gather_naive(&g, &x, &mut want);
            for tier in host_tiers() {
                let mut dw = start.clone();
                let mut arena = ScratchArena::new();
                // A second call starts every chain where the first stopped.
                for _ in 0..2 {
                    gather_on(
                        tier,
                        n,
                        oc,
                        &g,
                        c,
                        h,
                        w,
                        &x,
                        lead as usize,
                        k,
                        stride,
                        oh,
                        ow,
                        &mut dw,
                        &mut arena,
                    );
                }
                assert_eq!(bits(&dw), bits(&want), "tier {tier} {case:?}");
            }
        }
    }

    /// The lanes the copy-out drops — row-straddling columns and the last
    /// tile's reads of the slack behind the canvas — and whatever an
    /// earlier sample left in the reused buffers never reach a kept lane.
    #[test]
    fn garbage_lanes_and_stale_buffers_do_not_reach_an_output() {
        let mut rng = Pcg32::seed_from(0x6A2B);
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for case in cases(60, &mut rng) {
            let Case {
                rows,
                c,
                h,
                w,
                k,
                lead,
                dilation,
                oh,
                ow,
                stride,
                ..
            } = case;
            let a = draw(rows * c * k * k, &mut rng);
            let init = draw(rows, &mut rng);
            let sample = draw(c * h * w, &mut rng);
            let alone = Case { n: 1, ..case };
            let want = bits(&alone.shifted_naive(&a, &init, &sample));

            // Behind a sample of NaN/∞ in the same batch.
            let mut batch: Vec<f32> = (0..c * h * w).map(|i| poison[i % 3]).collect();
            batch.extend_from_slice(&sample);
            let pair = Case { n: 2, ..case };
            // One tile's worth of slack and stage, poisoned, per tier.
            let (hp, wp) = case.canvas_dims();
            let off = offsets(c, hp, wp, k);
            let span = (hp - k) * wp + (wp - k) + 1;
            let tiles = span.div_ceil(LANES);
            for tier in host_tiers() {
                let got = pair.run_shifted(tier, &a, &init, &batch);
                assert_eq!(
                    bits(&got[rows * oh * ow..]),
                    want,
                    "stale sample, tier {tier} {case:?}"
                );

                let mut canvas = vec![f32::NAN; c * hp * wp + tiles * LANES - span];
                canvas[..c * hp * wp].fill(0.0);
                place(&sample, c, h, w, lead, dilation, hp, wp, &mut canvas);
                let mut stage = vec![f32::INFINITY; rows * tiles * LANES];
                shifted_sample(tier, &a, &init, &off, &canvas, tiles, &mut stage);
                let kept: Vec<f32> = (0..rows * oh * ow)
                    .map(|i| {
                        let (r, oy, ox) = (i / (oh * ow), i / ow % oh, i % ow);
                        stage[r * tiles * LANES + oy * stride * wp + ox * stride]
                    })
                    .collect();
                assert_eq!(bits(&kept), want, "poisoned slack, tier {tier} {case:?}");
            }
        }
    }

    /// The production shapes by name: conv2 and the AMLayer block of the
    /// epoch benchmark's task P, and a bias of `-0.0` over all-zero taps
    /// (the one chain whose sign a dropped `w · 0.0` term would flip).
    #[test]
    fn task_p_shapes_and_the_negative_zero_chain() {
        let mut rng = Pcg32::seed_from(0x7A5C);
        for (rows, c) in [(10, 10), (3, 3), (10, 3)] {
            let case = Case {
                n: 2,
                rows,
                c,
                h: 24,
                w: 24,
                lead: 1,
                dilation: 1,
                k: 3,
                stride: 1,
                oh: 24,
                ow: 24,
            };
            let a = draw(rows * c * 9, &mut rng);
            let init = draw(rows, &mut rng);
            let src = draw(2 * c * 24 * 24, &mut rng);
            let want = bits(&case.shifted_naive(&a, &init, &src));
            for tier in host_tiers() {
                assert_eq!(
                    bits(&case.run_shifted(tier, &a, &init, &src)),
                    want,
                    "tier {tier}"
                );
            }
        }
        let case = Case {
            n: 1,
            rows: 1,
            c: 1,
            h: 2,
            w: 2,
            lead: 1,
            dilation: 1,
            k: 3,
            stride: 1,
            oh: 2,
            ow: 2,
        };
        for tier in host_tiers() {
            // -0.0 + (-1 · 0.0) = -0.0 + -0.0 stays -0.0 only if every
            // term, padded taps included, is the -0.0 the old lowering added.
            let out = case.run_shifted(tier, &[-1.0; 9], &[-0.0], &[0.0; 4]);
            assert_eq!(bits(&out), bits(&[-0.0; 4]), "tier {tier}");
            let out = case.run_shifted(tier, &[1.0; 9], &[-0.0], &[0.0; 4]);
            assert_eq!(bits(&out), bits(&[0.0; 4]), "tier {tier}");
        }
    }
}
