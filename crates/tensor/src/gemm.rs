//! Cache-blocked, packed GEMM kernels with a bitwise-deterministic
//! reduction order.
//!
//! RPoL's verification protocol hashes the exact `f32` bytes of model
//! checkpoints, so every kernel here preserves the reduction order of the
//! original reference kernel: each output element `C[i,j]` is produced by
//! one accumulator chain `((init + a₀·b₀) + a₁·b₁) + …` over the shared
//! dimension in strictly ascending order. The blocking, packing and
//! threading below are arranged so that this chain is *identical* no
//! matter how the work is tiled or sharded:
//!
//! * K is split into `KC` blocks processed in ascending order; the partial
//!   sum is stored to `C` between blocks and reloaded, which is exact for
//!   `f32` round trips, so the chain is unbroken.
//! * The micro-kernel unrolls across M and N only — never across K — so
//!   there is exactly one accumulator per output element.
//! * Packed panels are zero-padded at the M/N edges; padded lanes compute
//!   `±0.0` contributions that are never written back.
//! * The multi-threaded path shards disjoint *row ranges* of `C` onto the
//!   process-wide [`rpol_exec::shared`] executor; each element's chain
//!   involves only its own row of A, so the result is bitwise identical
//!   for any thread count or pool width (see `tests/gemm_properties.rs`),
//!   and no GEMM call ever spawns an OS thread of its own.
//!
//! Rust never contracts `a * b + c` into an FMA without explicit opt-in,
//! so mul-then-add rounding matches the reference kernel exactly.

use crate::scratch;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Micro-kernel tile rows (M-unroll); 8 independent accumulator rows keep
/// the add-latency chain covered on wide cores.
const MR: usize = 8;
/// Micro-kernel tile columns (N-unroll); 16-wide so the inner loop maps to
/// whole SIMD registers under autovectorization (one ZMM, two YMM, or four
/// XMM per accumulator row depending on the dispatched ISA tier).
const NR: usize = 16;
/// Row-block size: `MC × KC` packed A panels stay L2-resident.
const MC: usize = 64;
/// Depth-block size: one `KC × NR` packed B panel is 8 KiB, L1-resident.
const KC: usize = 256;
/// Column-block size for packed B.
const NC: usize = 512;

/// Whether an operand is used as stored (`No`) or logically transposed
/// (`Yes`). Transposition is fused into packing — no transposed copy of
/// the operand is ever materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the operand transposed.
    Yes,
}

static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads GEMM entry points use by default: the value
/// of `RPOL_GEMM_THREADS` if set, else available parallelism capped at 8.
/// The result is bitwise identical for any setting.
pub fn default_threads() -> usize {
    let cached = THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("RPOL_GEMM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get().min(8))
                .unwrap_or(1)
        });
    THREADS.store(n, Ordering::Relaxed);
    n
}

/// Overrides the default GEMM thread count (for benchmarks and tests).
pub fn set_default_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// `C[m,n] = A·B` with zero-initialized C. `a`/`b` are row-major with
/// shapes implied by `(m, n, k)` and the `Trans` flags.
#[allow(clippy::too_many_arguments)]
pub fn matmul(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    threads: usize,
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_into(m, n, k, a, ta, b, tb, &mut c, threads);
    c
}

/// `C += A·B` into a caller-initialized `C` (`beta = 1` semantics): every
/// element's chain starts from the value already in `C`, which is how the
/// convolution lowering threads bias terms and cross-sample accumulation
/// through without disturbing the reduction order.
///
/// # Panics
///
/// Panics if operand or output slice lengths do not match `(m, n, k)`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    c: &mut [f32],
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "A operand length");
    assert_eq!(b.len(), k * n, "B operand length");
    assert_eq!(c.len(), m * n, "C output length");
    if m == 0 || n == 0 {
        return;
    }
    // GEMM sits below every layer that could thread a recorder handle, so
    // it reports to the process-wide recorder; the enabled check is one
    // relaxed atomic load when observability is off.
    if rpol_obs::global_enabled() {
        let rec = rpol_obs::global();
        rec.counter_add("tensor.gemm.calls", 1);
        rec.counter_add(
            "tensor.gemm.flops_total",
            2 * (m as u64) * (n as u64) * (k as u64),
        );
    }
    let lda = match ta {
        Trans::No => k,
        Trans::Yes => m,
    };
    let ldb = match tb {
        Trans::No => n,
        Trans::Yes => k,
    };
    // Parallelism only pays off once several row blocks exist; below that
    // (and on single-core hosts) run in place.
    if threads <= 1 || m < 2 * MC {
        gemm_rows(a, lda, ta, b, ldb, tb, c, 0..m, n, k);
        return;
    }
    // Shard disjoint row ranges, MR-aligned so panel packing stays full.
    // The shards run on the process-wide shared executor — `threads` only
    // determines the chunk count, which the row-sharding invariant makes
    // bitwise invisible — so kernels nested under epoch-pipeline tasks
    // reuse long-lived pool workers instead of spawning threads per call.
    let chunk = m.div_ceil(threads).div_ceil(MR) * MR;
    rpol_exec::shared().scope(|scope| {
        let mut rest = c;
        let mut row0 = 0usize;
        while row0 < m {
            let rows = chunk.min(m - row0);
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(rows * n);
            rest = tail;
            let range = row0..row0 + rows;
            scope.spawn(move || gemm_rows(a, lda, ta, b, ldb, tb, head, range, n, k));
            row0 += rows;
        }
    });
}

/// Blocked driver for the C rows `rows`; `c` holds exactly those rows.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    a: &[f32],
    lda: usize,
    ta: Trans,
    b: &[f32],
    ldb: usize,
    tb: Trans,
    c: &mut [f32],
    rows: Range<usize>,
    n: usize,
    k: usize,
) {
    let row0 = rows.start;
    let m = rows.len();
    // Sized for the call's largest blocks, so a repeated shape draws the
    // same pooled pair every time.
    let kc_max = KC.min(k);
    let mut packed_a = scratch::take_empty(MC.min(m).next_multiple_of(MR) * kc_max);
    let mut packed_b = scratch::take_empty(NC.min(n).next_multiple_of(NR) * kc_max);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        // K blocks ascend so each C element accumulates its chain in order.
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(b, ldb, tb, pc, kc, jc, nc, &mut packed_b);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(a, lda, ta, row0 + ic, mc, pc, kc, &mut packed_a);
                for pj in 0..nc.div_ceil(NR) {
                    let jr = jc + pj * NR;
                    let nr = NR.min(jc + nc - jr);
                    let pb = &packed_b[pj * kc * NR..][..kc * NR];
                    for pi in 0..mc.div_ceil(MR) {
                        let ir = ic + pi * MR;
                        let mr = MR.min(ic + mc - ir);
                        let pa = &packed_a[pi * kc * MR..][..kc * MR];
                        let c_tile = &mut c[ir * n + jr..];
                        if mr == MR && nr == NR {
                            microkernel(kc, pa, pb, c_tile, n);
                        } else {
                            microkernel_edge(kc, pa, pb, c_tile, n, mr, nr);
                        }
                    }
                }
            }
        }
    }
    scratch::put(packed_a);
    scratch::put(packed_b);
}

/// Packs an `mc × kc` block of A into `⌈mc/MR⌉` panels laid out
/// `[panel][p][ii]`, zero-padding the tail panel's missing rows. `out`
/// only ever grows (to the largest block of the call); everything else in
/// the packed range is overwritten, so nothing else is cleared.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &[f32],
    lda: usize,
    ta: Trans,
    i0: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    out: &mut Vec<f32>,
) {
    let panels = mc.div_ceil(MR);
    if out.len() < panels * kc * MR {
        out.resize(panels * kc * MR, 0.0);
    }
    for pi in 0..panels {
        let ir = i0 + pi * MR;
        let rows = MR.min(i0 + mc - ir);
        let panel = &mut out[pi * kc * MR..][..kc * MR];
        if rows < MR {
            // Only the tail panel has lanes the copy below leaves alone;
            // an earlier, larger block may have left values in them.
            for lanes in panel.chunks_exact_mut(MR) {
                lanes[rows..].fill(0.0);
            }
        }
        match ta {
            Trans::No => {
                for ii in 0..rows {
                    let src = &a[(ir + ii) * lda + pc..][..kc];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * MR + ii] = v;
                    }
                }
            }
            Trans::Yes => {
                for (p, dst) in panel.chunks_exact_mut(MR).enumerate() {
                    let src = &a[(pc + p) * lda + ir..][..rows];
                    dst[..rows].copy_from_slice(src);
                }
            }
        }
    }
}

/// Packs a `kc × nc` block of B into `⌈nc/NR⌉` panels laid out
/// `[panel][p][jj]`, zero-padding the tail panel's missing columns; `out`
/// is reused as in [`pack_a`].
#[allow(clippy::too_many_arguments)]
fn pack_b(
    b: &[f32],
    ldb: usize,
    tb: Trans,
    pc: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    out: &mut Vec<f32>,
) {
    let panels = nc.div_ceil(NR);
    if out.len() < panels * kc * NR {
        out.resize(panels * kc * NR, 0.0);
    }
    for pj in 0..panels {
        let jr = j0 + pj * NR;
        let cols = NR.min(j0 + nc - jr);
        let panel = &mut out[pj * kc * NR..][..kc * NR];
        if cols < NR {
            for lanes in panel.chunks_exact_mut(NR) {
                lanes[cols..].fill(0.0);
            }
        }
        match tb {
            Trans::No => {
                for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                    let src = &b[(pc + p) * ldb + jr..][..cols];
                    dst[..cols].copy_from_slice(src);
                }
            }
            Trans::Yes => {
                for jj in 0..cols {
                    let src = &b[(jr + jj) * ldb + pc..][..kc];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * NR + jj] = v;
                    }
                }
            }
        }
    }
}

/// `MR × NR` register-tile kernel body over one packed A/B panel pair.
///
/// The C tile is loaded once, accumulated for `p = 0..kc` with a single
/// accumulator per element (unrolled across the tile, never across K),
/// and stored once — so the chain per element is `c + Σ_p a·b` in strict
/// ascending `p` order. The body is inlined into one wrapper per ISA tier
/// below; wider vectors change only how many of these independent chains
/// advance per instruction, never the arithmetic within a chain (and Rust
/// never contracts `a * b + c` into an FMA), so every tier produces
/// identical bytes.
#[inline(always)]
fn microkernel_body(kc: usize, pa: &[f32], pb: &[f32], c: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (ii, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[ii * ldc..][..NR]);
    }
    for p in 0..kc {
        let a = &pa[p * MR..][..MR];
        let b = &pb[p * NR..][..NR];
        for (ii, row) in acc.iter_mut().enumerate() {
            let av = a[ii];
            for (jj, acc_v) in row.iter_mut().enumerate() {
                *acc_v += av * b[jj];
            }
        }
    }
    for (ii, row) in acc.iter().enumerate() {
        c[ii * ldc..][..NR].copy_from_slice(row);
    }
}

/// Baseline-ISA micro-kernel (whatever the crate was compiled for).
fn microkernel_generic(kc: usize, pa: &[f32], pb: &[f32], c: &mut [f32], ldc: usize) {
    microkernel_body(kc, pa, pb, c, ldc);
}

/// AVX2 specialization: each accumulator row is two 256-bit registers,
/// processed as two independent half-tiles so the live register set fits.
/// Per lane the arithmetic is `acc = acc + a·b` via separate `vmulps` /
/// `vaddps` (never FMA), the exact chain of the scalar body.
///
/// # Safety
///
/// Callers must have verified `avx2` support at runtime, and `c` must hold
/// a full `MR × NR` tile at row stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2(kc: usize, pa: &[f32], pb: &[f32], c: &mut [f32], ldc: usize) {
    use std::arch::x86_64::*;
    debug_assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
    debug_assert!(c.len() >= (MR - 1) * ldc + NR);
    let pa = pa.as_ptr();
    let pb = pb.as_ptr();
    for half in 0..2 {
        let off = half * 8;
        let mut acc = [_mm256_setzero_ps(); MR];
        for (ii, a) in acc.iter_mut().enumerate() {
            *a = _mm256_loadu_ps(c.as_ptr().add(ii * ldc + off));
        }
        for p in 0..kc {
            let vb = _mm256_loadu_ps(pb.add(p * NR + off));
            let arow = pa.add(p * MR);
            for (ii, a) in acc.iter_mut().enumerate() {
                let va = _mm256_set1_ps(*arow.add(ii));
                *a = _mm256_add_ps(*a, _mm256_mul_ps(va, vb));
            }
        }
        for (ii, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(c.as_mut_ptr().add(ii * ldc + off), *a);
        }
    }
}

/// AVX-512 specialization: one 512-bit register per accumulator row, MR
/// independent chains in flight. Arithmetic per lane is `vmulps` then
/// `vaddps` (never FMA) — the exact chain of the scalar body.
///
/// # Safety
///
/// Callers must have verified `avx512f` support at runtime, and `c` must
/// hold a full `MR × NR` tile at row stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(kc: usize, pa: &[f32], pb: &[f32], c: &mut [f32], ldc: usize) {
    use std::arch::x86_64::*;
    debug_assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
    debug_assert!(c.len() >= (MR - 1) * ldc + NR);
    let pa = pa.as_ptr();
    let pb = pb.as_ptr();
    let mut acc = [_mm512_setzero_ps(); MR];
    for (ii, a) in acc.iter_mut().enumerate() {
        *a = _mm512_loadu_ps(c.as_ptr().add(ii * ldc));
    }
    for p in 0..kc {
        let vb = _mm512_loadu_ps(pb.add(p * NR));
        let arow = pa.add(p * MR);
        for (ii, a) in acc.iter_mut().enumerate() {
            let va = _mm512_set1_ps(*arow.add(ii));
            *a = _mm512_add_ps(*a, _mm512_mul_ps(va, vb));
        }
    }
    for (ii, a) in acc.iter().enumerate() {
        _mm512_storeu_ps(c.as_mut_ptr().add(ii * ldc), *a);
    }
}

/// Cached ISA tier: 0 = undetected, 1 = baseline, 2 = AVX2, 3 = AVX-512.
static ISA_TIER: AtomicUsize = AtomicUsize::new(0);

#[cfg(target_arch = "x86_64")]
pub(crate) fn isa_tier() -> usize {
    let cached = ISA_TIER.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let tier = if std::arch::is_x86_feature_detected!("avx512f") {
        3
    } else if std::arch::is_x86_feature_detected!("avx2") {
        2
    } else {
        1
    };
    ISA_TIER.store(tier, Ordering::Relaxed);
    tier
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn isa_tier() -> usize {
    1
}

/// Dispatches to the widest micro-kernel the host supports. All tiers
/// compute bit-identical results; dispatch is a pure speed decision.
#[inline]
fn microkernel(kc: usize, pa: &[f32], pb: &[f32], c: &mut [f32], ldc: usize) {
    match isa_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier 3 is only cached after avx512f was detected.
        3 => unsafe { microkernel_avx512(kc, pa, pb, c, ldc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier 2 is only cached after avx2 was detected.
        2 => unsafe { microkernel_avx2(kc, pa, pb, c, ldc) },
        _ => microkernel_generic(kc, pa, pb, c, ldc),
    }
}

/// Edge wrapper: stages a partial tile through an `MR × NR` buffer so the
/// main kernel always runs full-width; padded lanes start at `0.0`,
/// accumulate `±0.0`, and are discarded on write-back.
fn microkernel_edge(
    kc: usize,
    pa: &[f32],
    pb: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut tile = [0.0f32; MR * NR];
    for ii in 0..mr {
        tile[ii * NR..][..nr].copy_from_slice(&c[ii * ldc..][..nr]);
    }
    microkernel(kc, pa, pb, &mut tile, NR);
    for ii in 0..mr {
        c[ii * ldc..][..nr].copy_from_slice(&tile[ii * NR..][..nr]);
    }
}

/// The original reference kernel (ikj order, one accumulator chain per
/// element, `a == 0.0` rows skipped), kept verbatim as the ground truth
/// the blocked kernels are tested bitwise-equal against, and as the
/// baseline the GEMM benchmarks compare speedups to.
pub fn matmul_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A operand length");
    assert_eq!(b.len(), k * n, "B operand length");
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    fn randn(len: usize, rng: &mut Pcg32) -> Vec<f32> {
        (0..len).map(|_| rng.next_normal()).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn blocked_matches_naive_bitwise() {
        let mut rng = Pcg32::seed_from(11);
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (17, 9, 300), (70, 520, 33)] {
            let a = randn(m * k, &mut rng);
            let b = randn(k * n, &mut rng);
            let fast = matmul(m, n, k, &a, Trans::No, &b, Trans::No, 1);
            let slow = matmul_naive(m, n, k, &a, &b);
            assert_eq!(bits(&fast), bits(&slow), "{m}x{n}x{k}");
        }
    }

    /// The pack buffers keep their high-water length and are not cleared
    /// between blocks: a large block followed by a smaller one with
    /// `m % MR ≠ 0` and `n % NR ≠ 0` must find zeros, not the large block's
    /// values, in the edge tile's padding lanes.
    #[test]
    fn stale_pack_lanes_do_not_leak_into_the_edge_tile() {
        let mut rng = Pcg32::seed_from(16);
        let (mut packed_a, mut packed_b) = (Vec::new(), Vec::new());
        for &(m, n, k) in &[(MR + 3, NR + 5, 7), (2, 3, KC)] {
            for (ta, tb) in [(Trans::No, Trans::No), (Trans::Yes, Trans::Yes)] {
                // NaN everywhere a stale lane could be read from.
                let a = vec![f32::NAN; MC * KC];
                let b = vec![f32::NAN; KC * NC];
                pack_a(
                    &a,
                    if ta == Trans::No { KC } else { MC },
                    ta,
                    0,
                    MC,
                    0,
                    KC,
                    &mut packed_a,
                );
                pack_b(
                    &b,
                    if tb == Trans::No { NC } else { KC },
                    tb,
                    0,
                    KC,
                    0,
                    NC,
                    &mut packed_b,
                );

                let a = randn(m * k, &mut rng);
                let b = randn(k * n, &mut rng);
                let (lda, ldb) = (
                    if ta == Trans::No { k } else { m },
                    if tb == Trans::No { n } else { k },
                );
                pack_a(&a, lda, ta, 0, m, 0, k, &mut packed_a);
                pack_b(&b, ldb, tb, 0, k, 0, n, &mut packed_b);
                let (mut fresh_a, mut fresh_b) = (Vec::new(), Vec::new());
                pack_a(&a, lda, ta, 0, m, 0, k, &mut fresh_a);
                pack_b(&b, ldb, tb, 0, k, 0, n, &mut fresh_b);
                assert_eq!(
                    bits(&packed_a[..fresh_a.len()]),
                    bits(&fresh_a),
                    "A {m}x{k}"
                );
                assert_eq!(
                    bits(&packed_b[..fresh_b.len()]),
                    bits(&fresh_b),
                    "B {k}x{n}"
                );
                assert!(packed_a.len() >= MC * KC && packed_b.len() >= KC * NC);
            }
        }
    }

    #[test]
    fn fused_transposes_match_explicit() {
        let mut rng = Pcg32::seed_from(12);
        let (m, n, k) = (13, 21, 40);
        let a = randn(m * k, &mut rng);
        let bt = randn(n * k, &mut rng); // stored [n, k]
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let nt = matmul(m, n, k, &a, Trans::No, &bt, Trans::Yes, 1);
        let plain = matmul(m, n, k, &a, Trans::No, &b, Trans::No, 1);
        assert_eq!(bits(&nt), bits(&plain));

        let at = randn(k * m, &mut rng); // stored [k, m]
        let mut a2 = vec![0.0f32; m * k];
        for p in 0..k {
            for i in 0..m {
                a2[i * k + p] = at[p * m + i];
            }
        }
        let tn = matmul(m, n, k, &at, Trans::Yes, &b, Trans::No, 1);
        let plain2 = matmul(m, n, k, &a2, Trans::No, &b, Trans::No, 1);
        assert_eq!(bits(&tn), bits(&plain2));
    }

    #[test]
    fn accumulate_mode_preloads_c() {
        let mut rng = Pcg32::seed_from(13);
        let (m, n, k) = (6, 10, 9);
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let init = randn(m * n, &mut rng);
        let mut c = init.clone();
        gemm_into(m, n, k, &a, Trans::No, &b, Trans::No, &mut c, 1);
        // Reference: same chain starting from the preloaded value.
        for i in 0..m {
            for j in 0..n {
                let mut acc = init[i * n + j];
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                assert_eq!(c[i * n + j].to_bits(), acc.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn thread_count_is_bitwise_invisible() {
        let mut rng = Pcg32::seed_from(14);
        let (m, n, k) = (3 * MC + 5, 33, 129);
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let single = matmul(m, n, k, &a, Trans::No, &b, Trans::No, 1);
        for threads in [2, 3, 8] {
            let multi = matmul(m, n, k, &a, Trans::No, &b, Trans::No, threads);
            assert_eq!(bits(&single), bits(&multi), "{threads} threads");
        }
    }

    #[test]
    fn threaded_gemm_reuses_the_shared_executor() {
        let mut rng = Pcg32::seed_from(15);
        let (m, n, k) = (2 * MC, 24, 65);
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let serial = matmul(m, n, k, &a, Trans::No, &b, Trans::No, 1);
        let pool_before = std::sync::Arc::as_ptr(rpol_exec::shared());
        for _ in 0..3 {
            let multi = matmul(m, n, k, &a, Trans::No, &b, Trans::No, 4);
            assert_eq!(bits(&serial), bits(&multi));
        }
        // Every call scheduled onto the same long-lived pool: no per-call
        // thread spawns anywhere in the threaded paths.
        assert_eq!(pool_before, std::sync::Arc::as_ptr(rpol_exec::shared()));
    }
}
