//! Deterministic pseudo-random number generators.
//!
//! Every piece of randomness that takes part in the RPoL protocol — model
//! initialization, AMLayer weights, LSH projection vectors, batch selection —
//! must be reproducible by a remote verifier from a seed. These generators
//! are therefore fully deterministic: state transitions are integer-only,
//! and integer and uniform outputs are bit-identical on every platform.
//!
//! Normal draws are the one exception to *cross-platform* equality:
//! [`Pcg32::next_normal`] rounds a Box–Muller pair computed with the
//! platform's `f64` `ln`/`sin`/`cos`, so two hosts whose math libraries
//! round a result differently can disagree in the last `f32` bit of a
//! draw. On one platform the stream is a pure function of the seed, and
//! [`Pcg32::fill_normal`] reproduces that platform's stream bit for bit
//! (DESIGN.md §6 and §19).

use rpol_exec::Executor;

/// SplitMix64: a tiny, high-quality 64-bit generator.
///
/// Used both directly and as a seeder for [`Pcg32`]. The state transition is
/// the standard Vigna construction.
///
/// # Examples
///
/// ```
/// use rpol_tensor::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// PCG32 (XSH-RR variant): the workhorse generator for the workspace.
///
/// Deterministic, seedable, `O(1)` state. All floating-point sampling
/// (uniform, normal) is implemented on top of its integer output; integer
/// and uniform results are bit-identical across platforms, normal draws
/// across runs on one platform (see the module documentation).
///
/// # Examples
///
/// ```
/// use rpol_tensor::rng::Pcg32;
///
/// let mut rng = Pcg32::seed_from(123);
/// let x = rng.next_f32();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
    /// Cached second output of the Box–Muller transform.
    cached_normal: Option<f32>,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

impl Pcg32 {
    /// Creates a generator from an explicit state/stream pair.
    pub fn new(state: u64, stream: u64) -> Self {
        let mut rng = Self {
            state: 0,
            inc: (stream << 1) | 1,
            cached_normal: None,
        };
        rng.state = rng.inc.wrapping_add(state);
        rng.next_u32();
        rng
    }

    /// Creates a generator from a single seed, expanding it with
    /// [`SplitMix64`].
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let state = sm.next_u64();
        let stream = sm.next_u64();
        Self::new(state, stream)
    }

    /// Returns the next 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        xsh_rr(old)
    }

    /// Moves the generator `delta` outputs ahead in `O(log delta)` steps:
    /// the state `delta` calls of [`Pcg32::next_u32`] would leave behind
    /// (Brown's LCG jump-ahead, as in the PCG reference). A cached normal
    /// is kept, exactly as `next_u32` keeps it.
    ///
    /// # Examples
    ///
    /// ```
    /// use rpol_tensor::rng::Pcg32;
    ///
    /// let mut a = Pcg32::seed_from(5);
    /// let mut b = a.clone();
    /// a.advance(3);
    /// (0..3).for_each(|_| { b.next_u32(); });
    /// assert_eq!(a, b);
    /// ```
    pub fn advance(&mut self, delta: u64) {
        let (mult, plus) = self.jump(delta);
        self.state = mult.wrapping_mul(self.state).wrapping_add(plus);
    }

    /// The affine map `state ↦ mult·state + plus` that `delta` calls of
    /// [`Pcg32::next_u32`] apply, as `(mult, plus)`.
    fn jump(&self, delta: u64) -> (u64, u64) {
        let (mut acc_mult, mut acc_plus) = (1u64, 0u64);
        let (mut cur_mult, mut cur_plus) = (PCG_MULT, self.inc);
        let mut delta = delta;
        while delta > 0 {
            if delta & 1 == 1 {
                acc_mult = acc_mult.wrapping_mul(cur_mult);
                acc_plus = acc_plus.wrapping_mul(cur_mult).wrapping_add(cur_plus);
            }
            cur_plus = cur_mult.wrapping_add(1).wrapping_mul(cur_plus);
            cur_mult = cur_mult.wrapping_mul(cur_mult);
            delta >>= 1;
        }
        (acc_mult, acc_plus)
    }

    /// Returns the next 64-bit output (two 32-bit draws).
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Returns a uniform draw in `[0, 1)` with 24 bits of precision.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Returns a uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        f64_of(self.next_u32(), self.next_u32())
    }

    /// Returns a uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f32()
    }

    /// Returns an unbiased uniform integer in `[0, bound)` using Lemire
    /// rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's nearly-divisionless method with rejection.
        loop {
            let x = self.next_u32();
            let m = (x as u64).wrapping_mul(bound as u64);
            let low = m as u32;
            if low >= bound || low >= (u32::MAX - bound + 1) % bound {
                return (m >> 32) as u32;
            }
        }
    }

    /// Returns a standard-normal draw via the Box–Muller transform.
    ///
    /// Deterministic given the generator state; the paired output is cached
    /// so consecutive calls consume uniform draws two at a time. This is
    /// the definition of the normal stream: [`Pcg32::fill_normal`] is
    /// specified, and tested, against it.
    pub fn next_normal(&mut self) -> f32 {
        if let Some(z) = self.cached_normal.take() {
            return z;
        }
        let (u1, u2) = self.next_uniform_pair();
        let (z0, z1) = box_muller(u1, u2);
        self.cached_normal = Some(z1);
        z0
    }

    /// The two uniforms behind one Box–Muller pair, in stream order.
    fn next_uniform_pair(&mut self) -> (f64, f64) {
        // Avoid u1 == 0 which would produce -inf.
        let mut u1 = self.next_f64();
        while u1 <= f64::EPSILON {
            u1 = self.next_f64();
        }
        (u1, self.next_f64())
    }

    /// Fills `u1`/`u2` with the uniforms behind the next `u1.len()`
    /// Box–Muller pairs of the normal stream, in stream order — what
    /// [`Pcg32::fill_normal`] transforms — and leaves the generator where
    /// drawing them leaves it. A pending cached normal is kept.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn fill_uniform_pairs(&mut self, u1: &mut [f64], u2: &mut [f64]) {
        assert_eq!(u1.len(), u2.len(), "one u2 per u1");
        for (u1, u2) in u1.chunks_mut(BLOCK_PAIRS).zip(u2.chunks_mut(BLOCK_PAIRS)) {
            self.uniform_pairs(true, u1, u2);
        }
    }

    /// Fills `u1`/`u2` with what `u1.len()` (at most [`BLOCK_PAIRS`]) calls
    /// of [`Pcg32::next_uniform_pair`] return, and leaves the generator
    /// where they would. `wide` draws the block [`STREAM_LANES`] outputs at
    /// a time where the host can ([`stream_wide`]; tests pass `false` for
    /// the pairwise reference); a block in which some `u1 ≤ ε` would have
    /// been redrawn is drawn again, pair by pair, from where it started.
    fn uniform_pairs(&mut self, wide: bool, u1: &mut [f64], u2: &mut [f64]) {
        let pairs = u1.len();
        assert!(
            pairs <= BLOCK_PAIRS && u2.len() == pairs,
            "block of {pairs} pairs with mismatched or oversized buffers"
        );
        #[cfg(target_arch = "x86_64")]
        if wide && stream_wide() {
            let stride = self.jump(STREAM_LANES as u64);
            // SAFETY: `stream_wide` detected avx512f and avx512dq.
            if unsafe { stream_block_avx512(self.state, self.inc, stride, u1, u2) } {
                self.advance(4 * pairs as u64);
                return;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = wide;
        for (a, b) in u1.iter_mut().zip(u2) {
            (*a, *b) = self.next_uniform_pair();
        }
    }

    /// Fills `out` with exactly what `out.len()` calls of
    /// [`Pcg32::next_normal`] would return, and leaves the generator in the
    /// same state (a pending cached value is consumed first; an odd tail
    /// caches its unused second output).
    ///
    /// Both halves run over blocks of up to [`BLOCK_PAIRS`] pairs: the
    /// uniforms [`STREAM_LANES`] outputs wide where the host has AVX-512
    /// DQ (one by one elsewhere, or when a block redraws a `u1`), the
    /// Box–Muller arithmetic with kernels that vectorise. A lane whose
    /// result could round differently from the platform's math library is
    /// recomputed by the scalar expression `next_normal` uses, so the
    /// output does not depend on which kernels ran.
    ///
    /// # Examples
    ///
    /// ```
    /// use rpol_tensor::rng::Pcg32;
    ///
    /// let mut a = Pcg32::seed_from(9);
    /// let mut b = a.clone();
    /// let mut block = [0.0f32; 7];
    /// a.fill_normal(&mut block);
    /// assert!(block.iter().all(|&z| z == b.next_normal()));
    /// assert_eq!(a, b);
    /// ```
    pub fn fill_normal(&mut self, out: &mut [f32]) {
        let mut out = out;
        if out.is_empty() {
            return;
        }
        if let Some(z) = self.cached_normal.take() {
            out[0] = z;
            out = &mut out[1..];
        }
        let tier = crate::gemm::isa_tier();
        let mut u1 = [0.0f64; BLOCK_PAIRS];
        let mut u2 = [0.0f64; BLOCK_PAIRS];
        let mut z0 = [0.0f32; BLOCK_PAIRS];
        let mut z1 = [0.0f32; BLOCK_PAIRS];
        while !out.is_empty() {
            let pairs = out.len().div_ceil(2).min(BLOCK_PAIRS);
            self.uniform_pairs(true, &mut u1[..pairs], &mut u2[..pairs]);
            box_muller_block(
                tier,
                &u1[..pairs],
                &u2[..pairs],
                &mut z0[..pairs],
                &mut z1[..pairs],
            );
            let take = out.len().min(2 * pairs);
            let (head, rest) = out.split_at_mut(take);
            for (pair, (&a, &b)) in head.chunks_mut(2).zip(z0.iter().zip(&z1)) {
                pair[0] = a;
                match pair.get_mut(1) {
                    Some(second) => *second = b,
                    None => self.cached_normal = Some(b),
                }
            }
            out = rest;
        }
    }

    /// [`Pcg32::draw_each_on`] on the lanes of the process's shared
    /// executor ([`rpol_exec::shared`]).
    pub fn draw_each<T: Send>(
        &mut self,
        items: &mut [T],
        normals: usize,
        draw: impl Fn(&mut Pcg32, usize, &mut T) + Sync,
    ) -> bool {
        self.draw_each_on(rpol_exec::shared(), items, normals, draw)
    }

    /// The serial loop `for (i, item) in items.iter_mut().enumerate() {
    /// draw(self, i, item) }`, where each call draws `normals` normals from
    /// the generator and nothing else, run in blocks on the lanes of
    /// `exec`. The loop is the definition; the lanes only accelerate it.
    ///
    /// A block starts from a clone [`advance`]d `2·normals` outputs per
    /// item before it: where the stream stands if no Box–Muller pair
    /// redraws a `u1`. A block that does not end where its successor
    /// started drew a redraw, and from that successor on the loop runs
    /// serially from where the block really ended. One lane, an odd
    /// `normals`, or a cached normal pending on entry takes the serial loop
    /// from the start. `draw` must set its item from the generator and the index
    /// alone. Returns whether every block's result stood.
    ///
    /// [`advance`]: Pcg32::advance
    ///
    /// # Examples
    ///
    /// ```
    /// use rpol_exec::Executor;
    /// use rpol_tensor::rng::Pcg32;
    ///
    /// let draw = |rng: &mut Pcg32, _: usize, row: &mut Vec<f32>| rng.fill_normal(row);
    /// let (mut lanes, mut serial) = (Pcg32::seed_from(3), Pcg32::seed_from(3));
    /// let mut rows = vec![vec![0.0f32; 4]; 9];
    /// assert!(lanes.draw_each_on(&Executor::new(2), &mut rows, 4, draw));
    /// for (i, row) in rows.iter().enumerate() {
    ///     let mut want = vec![0.0f32; 4];
    ///     draw(&mut serial, i, &mut want);
    ///     assert_eq!(*row, want);
    /// }
    /// assert_eq!(lanes, serial);
    /// ```
    pub fn draw_each_on<T: Send>(
        &mut self,
        exec: &Executor,
        items: &mut [T],
        normals: usize,
        draw: impl Fn(&mut Pcg32, usize, &mut T) + Sync,
    ) -> bool {
        let n = items.len();
        let blocks = (BLOCKS_PER_LANE * exec.threads()).min(n);
        if exec.threads() == 1 || blocks < 2 || normals % 2 == 1 || self.cached_normal.is_some() {
            for (i, item) in items.iter_mut().enumerate() {
                draw(self, i, item);
            }
            return false;
        }
        // Block `b` draws items `bounds[b]..bounds[b + 1]`.
        let bounds: Vec<usize> = (0..=blocks).map(|b| b * n / blocks).collect();
        let starts: Vec<Pcg32> = bounds[..blocks]
            .iter()
            .map(|&first| {
                let mut at = self.clone();
                at.advance(2 * normals as u64 * first as u64);
                at
            })
            .collect();
        let mut ends: Vec<Option<Pcg32>> = vec![None; blocks];
        exec.scope(|scope| {
            let (draw, mut rest) = (&draw, &mut *items);
            for ((block, start), end) in bounds.windows(2).zip(&starts).zip(&mut ends) {
                let (chunk, tail) = rest.split_at_mut(block[1] - block[0]);
                rest = tail;
                let first = block[0];
                scope.spawn(move || {
                    let mut rng = start.clone();
                    for (k, item) in chunk.iter_mut().enumerate() {
                        draw(&mut rng, first + k, item);
                    }
                    *end = Some(rng);
                });
            }
        });
        let ends: Vec<Pcg32> = ends
            .into_iter()
            .map(|end| end.expect("block ran"))
            .collect();
        if let Some(b) = (1..blocks).find(|&b| ends[b - 1] != starts[b]) {
            *self = ends[b - 1].clone();
            for (i, item) in items.iter_mut().enumerate().skip(bounds[b]) {
                draw(self, i, item);
            }
            return false;
        }
        *self = ends[blocks - 1].clone();
        true
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u32 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Blocks [`Pcg32::draw_each_on`] cuts per executor lane, so a lane that
/// finishes early takes another block instead of idling.
const BLOCKS_PER_LANE: usize = 4;

/// PCG's XSH-RR output function of the state an output is drawn from.
#[inline(always)]
fn xsh_rr(old: u64) -> u32 {
    let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
    let rot = (old >> 59) as u32;
    xorshifted.rotate_right(rot)
}

/// `(u64 >> 11)·2⁻⁵³` of the `u64` two outputs make: [`Pcg32::next_f64`].
#[inline(always)]
fn f64_of(hi: u32, lo: u32) -> f64 {
    ((((hi as u64) << 32) | lo as u64) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Generators the wide uniform stream steps at once: lane `j` starts `j`
/// outputs ahead, and every lane steps `STREAM_LANES` outputs at a time.
const STREAM_LANES: usize = 32;

/// Whether [`Pcg32::fill_normal`] draws its uniforms [`STREAM_LANES`]
/// wide: the lanes' 64-bit multiplies need AVX-512 DQ.
fn stream_wide() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        crate::gemm::isa_tier() == 3 && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The next `words.len()` (a multiple of [`STREAM_LANES`]) outputs of a
/// generator at `(state, inc)`, drawn by [`STREAM_LANES`] generators side
/// by side: lane `j` starts `j` steps ahead and every lane steps by
/// `stride`, the map `jump(STREAM_LANES)` — one 64-bit multiply-add per
/// output, none waiting on another.
#[inline(always)]
fn stream_words(state: u64, inc: u64, (mult, plus): (u64, u64), words: &mut [u32]) {
    let mut lanes = [0u64; STREAM_LANES];
    let mut at = state;
    for lane in &mut lanes {
        *lane = at;
        at = at.wrapping_mul(PCG_MULT).wrapping_add(inc);
    }
    for chunk in words.chunks_exact_mut(STREAM_LANES) {
        for (word, lane) in chunk.iter_mut().zip(&mut lanes) {
            *word = xsh_rr(*lane);
            *lane = lane.wrapping_mul(mult).wrapping_add(plus);
        }
    }
}

/// The uniforms of `u1.len()` Box–Muller pairs drawn from a generator at
/// `(state, inc)` as if no `u1` were redrawn: pair `p` is outputs `4p` to
/// `4p + 3` of [`stream_words`]. Returns whether every `u1` exceeds `ε`,
/// i.e. whether [`Pcg32::next_uniform_pair`] draws the same block.
///
/// # Safety
///
/// Callers must have verified `avx512f` and `avx512dq` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn stream_block_avx512(
    state: u64,
    inc: u64,
    stride: (u64, u64),
    u1: &mut [f64],
    u2: &mut [f64],
) -> bool {
    let mut words = [0u32; 4 * BLOCK_PAIRS];
    let drawn = (4 * u1.len()).next_multiple_of(STREAM_LANES);
    stream_words(state, inc, stride, &mut words[..drawn]);
    let mut clean = true;
    for ((a, b), w) in u1.iter_mut().zip(u2).zip(words.chunks_exact(4)) {
        *a = f64_of(w[0], w[1]);
        *b = f64_of(w[2], w[3]);
        clean &= *a > f64::EPSILON;
    }
    clean
}

/// One Box–Muller pair through the platform's math library: the expression
/// that defines the normal stream. [`Pcg32::next_normal`] evaluates it per
/// draw and [`box_muller_block`] for every lane it flags.
fn box_muller(u1: f64, u2: f64) -> (f32, f32) {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    ((r * theta.cos()) as f32, (r * theta.sin()) as f32)
}

/// Pairs per block of [`Pcg32::fill_normal`]: the block's buffers (two
/// uniforms, a flag and two outputs per pair) are 8 KiB of stack,
/// L1-resident.
const BLOCK_PAIRS: usize = 256;

/// Half-width, in `f64` ulps, of the band around every `f32` rounding
/// midpoint inside which a product is recomputed with [`box_muller`]. The
/// block kernels stay within a few ulp of the platform's `ln`/`sin`/`cos`
/// (`kernels_stay_within_4_ulp_of_libm` enforces it), so outside the band
/// both values lie on the same side of the midpoint and round to the same
/// `f32`; the band costs 2 · 2¹⁴ / 2²⁹ ≈ 6·10⁻⁵ of the pairs.
const GUARD_ULPS: u64 = 1 << 13;

/// The `f64` mantissa bits an `as f32` cast rounds away, and their midpoint.
const DROPPED_BITS: u64 = (1 << 29) - 1;
const DROPPED_MIDPOINT: u64 = 1 << 28;

/// At or below this reduced angle the block kernels defer to
/// [`box_muller`]: the Cody–Waite reduction's absolute error (below 1e-30)
/// stops being negligible relative to the angle only far below it, and
/// `u2 ∈ {0, ¼, ½, ¾}` lands here.
const SMALL_ANGLE: f64 = 1e-7;

/// `1.5 · 2⁵²`: adding it to a small non-negative `f64` rounds that value
/// to an integer and leaves the integer in the low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `ln x` for a normal `x` in `(0, 1)`: fdlibm's `__ieee754_log` without
/// its special-case branches (the unified form musl used), error < 1 ulp.
/// Here and in [`sin_cos_kernel`] the constants are fdlibm's, written as
/// the bit patterns its sources list.
#[inline(always)]
fn ln_kernel(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    /// High word of `√2 / 2`, shifted into place.
    const SQRT_HALF_HI: u64 = 0x3fe6_a09e << 32;
    const ONE_HI: u64 = 0x3ff0_0000 << 32;
    // Split x = 2^k · m with m in [√2/2, √2).
    let shifted = x.to_bits().wrapping_add(ONE_HI - SQRT_HALF_HI);
    let biased_k = shifted >> 52;
    let m = f64::from_bits((shifted & 0x000f_ffff_ffff_ffff).wrapping_add(SQRT_HALF_HI));
    // Exact small-integer-to-f64 conversion that every ISA tier vectorises.
    let dk = f64::from_bits(ROUND_MAGIC.to_bits() | biased_k) - (ROUND_MAGIC + 1023.0);
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI
}

/// `(sin θ, cos θ, |reduced angle|)` for `θ` in `[0, 2π]`: a three-term
/// Cody–Waite reduction to `[-π/4, π/4]` that keeps a tail, fdlibm's
/// `__kernel_sin` / musl's branch-free `__cos` polynomials, and a quadrant
/// rotation done with bit masks. Error < 1 ulp each once the reduced angle
/// exceeds [`SMALL_ANGLE`].
#[inline(always)]
fn sin_cos_kernel(theta: f64) -> (f64, f64, f64) {
    const INV_PIO2: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
    /// First 33 bits of π/2, the next 33, and what remains.
    const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
    const PIO2_2: f64 = f64::from_bits(0x3dd0_b461_1a60_0000);
    const PIO2_2T: f64 = f64::from_bits(0x3ba3_198a_2e03_7073);
    const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
    const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
    const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
    const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
    const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
    const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
    const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
    const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
    const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
    const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
    const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
    const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);
    // θ = n·π/2 + (y0 + y1), n in 0..=4. The products n·PIO2_1 and
    // n·PIO2_2 are exact (33-bit × 3-bit), as is the first subtraction.
    let rounded = theta * INV_PIO2 + ROUND_MAGIC;
    let quadrant = rounded.to_bits();
    let n = rounded - ROUND_MAGIC;
    let t = theta - n * PIO2_1;
    let w = n * PIO2_2;
    let r = t - w;
    let w = n * PIO2_2T - ((t - r) - w);
    let y0 = r - w;
    let y1 = (r - y0) - w;

    let z = y0 * y0;
    let v = z * y0;
    let poly = S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)));
    let sin = y0 - ((z * (0.5 * y1 - v * poly) - y1) - v * S1);

    let zz = z * z;
    let poly = z * (C1 + z * (C2 + z * C3)) + zz * zz * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_minus = 1.0 - hz;
    let cos = one_minus + (((1.0 - one_minus) - hz) + (z * poly - y0 * y1));

    // Quadrant n: sin θ = [s, c, -s, -c][n & 3], cos θ = [c, -s, -c, s][n & 3].
    let swap = 0u64.wrapping_sub(quadrant & 1);
    let (sin, cos) = (sin.to_bits(), cos.to_bits());
    let sin_theta = ((sin & !swap) | (cos & swap)) ^ ((quadrant & 2) << 62);
    let cos_theta = ((cos & !swap) | (sin & swap)) ^ ((quadrant.wrapping_add(1) & 2) << 62);
    (
        f64::from_bits(sin_theta),
        f64::from_bits(cos_theta),
        y0.abs(),
    )
}

/// Whether the `f32` a product casts to could depend on the last few ulp
/// of the product: it sits within [`GUARD_ULPS`] of a rounding midpoint, or
/// its exponent is outside ±120 (towards the `f32` subnormals the midpoints
/// move; zero lands here too).
#[inline(always)]
fn cast_is_fragile(product: f64) -> bool {
    let bits = product.to_bits();
    let near_midpoint =
        (bits & DROPPED_BITS).wrapping_sub(DROPPED_MIDPOINT - GUARD_ULPS) <= 2 * GUARD_ULPS;
    let exponent = (bits >> 52) & 0x7ff;
    near_midpoint | (exponent.wrapping_sub(1023 - 120) > 240)
}

/// The block kernel: one branch-free loop over structure-of-arrays
/// buffers that the compiler vectorises for whichever ISA tier the wrapper
/// enables. Writes both outputs of every pair and a flag per pair that is
/// nonzero when the pair must be recomputed with [`box_muller`]. No
/// `mul_add`: every tier performs the same IEEE operations per lane, so
/// neither the flags nor the outputs depend on the tier.
#[inline(always)]
fn box_muller_block_body(
    u1: &[f64],
    u2: &[f64],
    z0: &mut [f32],
    z1: &mut [f32],
    flags: &mut [u64],
) {
    let n = u1.len();
    let (u2, z0, z1, flags) = (&u2[..n], &mut z0[..n], &mut z1[..n], &mut flags[..n]);
    for i in 0..n {
        let radius = (-2.0 * ln_kernel(u1[i])).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2[i];
        let (sin, cos, reduced) = sin_cos_kernel(theta);
        let (p0, p1) = (radius * cos, radius * sin);
        z0[i] = p0 as f32;
        z1[i] = p1 as f32;
        let fragile = (reduced <= SMALL_ANGLE) | cast_is_fragile(p0) | cast_is_fragile(p1);
        flags[i] = fragile as u64;
    }
}

/// # Safety
///
/// Callers must have verified `avx2` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn box_muller_block_avx2(
    u1: &[f64],
    u2: &[f64],
    z0: &mut [f32],
    z1: &mut [f32],
    flags: &mut [u64],
) {
    box_muller_block_body(u1, u2, z0, z1, flags);
}

/// # Safety
///
/// Callers must have verified `avx512f` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn box_muller_block_avx512(
    u1: &[f64],
    u2: &[f64],
    z0: &mut [f32],
    z1: &mut [f32],
    flags: &mut [u64],
) {
    box_muller_block_body(u1, u2, z0, z1, flags);
}

/// Box–Muller over up to [`BLOCK_PAIRS`] uniform pairs on the given
/// [`crate::gemm::isa_tier`]: `(z0[i], z1[i])` is bitwise
/// `box_muller(u1[i], u2[i])` for every lane, whatever the tier. Returns
/// how many lanes took the scalar fallback.
fn box_muller_block(tier: usize, u1: &[f64], u2: &[f64], z0: &mut [f32], z1: &mut [f32]) -> usize {
    let n = u1.len();
    assert!(
        n <= BLOCK_PAIRS && u2.len() == n && z0.len() == n && z1.len() == n,
        "block of {n} pairs with mismatched or oversized buffers"
    );
    let mut flags = [0u64; BLOCK_PAIRS];
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier 3 is only reported after avx512f was detected.
        3 => unsafe { box_muller_block_avx512(u1, u2, z0, z1, &mut flags) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier 2 is only reported after avx2 was detected.
        2 => unsafe { box_muller_block_avx2(u1, u2, z0, z1, &mut flags) },
        _ => box_muller_block_body(u1, u2, z0, z1, &mut flags),
    }
    let mut fallbacks = 0;
    for i in (0..n).filter(|&i| flags[i] != 0) {
        (z0[i], z1[i]) = box_muller(u1[i], u2[i]);
        fallbacks += 1;
    }
    fallbacks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // First output for seed 0 of the reference SplitMix64.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    /// `advance(n)` is `n` calls of `next_u32`, cached normal included.
    /// 2³² + 5 is checked by composition: 2¹⁶ jumps of 2¹⁶ (each jump held
    /// to the loop) and five single steps.
    #[test]
    fn advance_equals_repeated_next_u32() {
        let mut start = Pcg32::seed_from(0xADFA);
        start.next_normal();
        assert!(start.cached_normal.is_some());
        for n in [0u64, 1, 255, 1 << 16] {
            let mut jumped = start.clone();
            jumped.advance(n);
            let mut stepped = start.clone();
            (0..n).for_each(|_| {
                stepped.next_u32();
            });
            assert_eq!(jumped, stepped, "n = {n}");
        }
        let mut jumped = start.clone();
        jumped.advance((1 << 32) + 5);
        let mut composed = start.clone();
        (0..1 << 16).for_each(|_| composed.advance(1 << 16));
        (0..5).for_each(|_| {
            composed.next_u32();
        });
        assert_eq!(jumped, composed);
        // A full period returns to the start.
        let mut lapped = start.clone();
        lapped.advance(u64::MAX);
        lapped.next_u32();
        assert_eq!(lapped, start);
    }

    #[test]
    fn pcg_streams_differ() {
        let mut a = Pcg32::new(42, 1);
        let mut b = Pcg32::new(42, 2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(
            same < 4,
            "streams should be nearly disjoint, {same} collisions"
        );
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Pcg32::seed_from(7);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn next_below_unbiased_smoke() {
        let mut rng = Pcg32::seed_from(11);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[rng.next_below(5) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket should hold ~10_000 draws.
            assert!((8_500..11_500).contains(&c), "biased bucket: {counts:?}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Pcg32::seed_from(3);
        let n = 100_000;
        let xs: Vec<f32> = (0..n).map(|_| rng.next_normal()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg32::seed_from(17);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input in order"
        );
    }

    /// Every ISA tier this host can run, baseline first.
    fn host_tiers() -> Vec<usize> {
        (1..=crate::gemm::isa_tier()).collect()
    }

    fn ulp_distance(a: f64, b: f64) -> u64 {
        assert!(a.is_finite() && b.is_finite() && (a < 0.0) == (b < 0.0));
        a.to_bits().abs_diff(b.to_bits())
    }

    /// The pair-level hook: runs one pair through the block path on `tier`
    /// and reports whether it took the fallback.
    fn block_pair(tier: usize, u1: f64, u2: f64) -> ((f32, f32), bool) {
        let (mut z0, mut z1) = ([0.0f32], [0.0f32]);
        let fallbacks = box_muller_block(tier, &[u1], &[u2], &mut z0, &mut z1);
        ((z0[0], z1[0]), fallbacks == 1)
    }

    fn bits2((a, b): (f32, f32)) -> (u32, u32) {
        (a.to_bits(), b.to_bits())
    }

    /// u1 × u2 values where the kernels are most likely to part from libm:
    /// the ends of both ranges, powers of two, and the quadrant boundaries.
    fn edge_grid() -> Vec<(f64, f64)> {
        let ulp = f64::EPSILON / 2.0;
        let mut u1s = vec![
            f64::EPSILON * (1.0 + f64::EPSILON),
            0.5 - ulp / 2.0,
            0.5,
            0.5 + ulp,
            1.0 - ulp,
            1.0 - 2f64.powi(-30),
            std::f64::consts::FRAC_1_SQRT_2,
        ];
        u1s.extend((1..=52).map(|k| 2f64.powi(-k)));
        let mut u2s = vec![0.0, ulp, 1.0 - ulp];
        for q in [0.25, 0.5, 0.75] {
            u2s.extend([q - ulp, q, q + ulp, q - 1e-9, q + 1e-9, q - 1e-6, q + 1e-6]);
        }
        u2s.extend([0.125, 0.375, 0.625, 0.875, 1e-9, 1e-6]);
        u1s.iter()
            .flat_map(|&a| u2s.iter().map(move |&b| (a, b)))
            .collect()
    }

    #[test]
    fn fill_normal_equals_a_next_normal_loop() {
        for seed in 0..8u64 {
            for len in [0usize, 1, 2, 3, 511, 512, 513, 1000, 100_001] {
                for pending in [false, true] {
                    let mut bulk = Pcg32::seed_from(seed);
                    if pending {
                        bulk.next_normal();
                    }
                    let mut scalar = bulk.clone();
                    let mut out = vec![f32::NAN; len];
                    bulk.fill_normal(&mut out);
                    for (i, z) in out.iter().enumerate() {
                        assert_eq!(
                            z.to_bits(),
                            scalar.next_normal().to_bits(),
                            "seed {seed} len {len} pending {pending} draw {i}"
                        );
                    }
                    assert_eq!(bulk, scalar, "seed {seed} len {len} pending {pending}");
                }
            }
        }
    }

    #[test]
    fn edge_grid_is_flagged_or_equal_to_libm() {
        for tier in host_tiers() {
            for (u1, u2) in edge_grid() {
                let (got, _) = block_pair(tier, u1, u2);
                assert_eq!(
                    bits2(got),
                    bits2(box_muller(u1, u2)),
                    "tier {tier} u1 {u1:e} u2 {u2:e}"
                );
            }
        }
        // The quadrant boundaries themselves must take the fallback: their
        // reduced angle is the rounding error of π/2.
        for u2 in [0.0, 0.25, 0.5, 0.75] {
            assert!(block_pair(1, 0.3, u2).1, "u2 {u2} not flagged");
        }
    }

    /// Protects the guard band: [`GUARD_ULPS`] is sized for kernels within
    /// a few ulp of libm, so a kernel edit that loosens them fails here
    /// before it can flip an `f32`.
    #[test]
    fn kernels_stay_within_4_ulp_of_libm() {
        let mut rng = Pcg32::seed_from(0xB0C5);
        let random = (0..1 << 22).map(|_| rng.next_uniform_pair());
        let (mut worst_ln, mut worst_trig, mut worst_product) = (0, 0, 0);
        for (u1, u2) in random.chain(edge_grid()) {
            let (ln, ln_libm) = (ln_kernel(u1), u1.ln());
            worst_ln = worst_ln.max(ulp_distance(ln, ln_libm));
            let theta = 2.0 * std::f64::consts::PI * u2;
            let (sin, cos, reduced) = sin_cos_kernel(theta);
            if reduced > SMALL_ANGLE {
                let (sin_libm, cos_libm) = theta.sin_cos();
                worst_trig = worst_trig
                    .max(ulp_distance(sin, sin_libm))
                    .max(ulp_distance(cos, cos_libm));
                let (r, r_libm) = ((-2.0 * ln).sqrt(), (-2.0 * ln_libm).sqrt());
                worst_product = worst_product
                    .max(ulp_distance(r * sin, r_libm * sin_libm))
                    .max(ulp_distance(r * cos, r_libm * cos_libm));
            }
        }
        println!("worst ulp vs libm: ln {worst_ln}, sin/cos {worst_trig}, product {worst_product}");
        assert!(worst_ln <= 4, "ln kernel {worst_ln} ulp from libm");
        assert!(worst_trig <= 4, "sin/cos kernel {worst_trig} ulp from libm");
        assert!(
            worst_product <= GUARD_ULPS / 1000,
            "products {worst_product} ulp from libm"
        );
    }

    /// The uniform streams this host can draw: one by one, and 32 lanes
    /// wide where it has AVX-512 DQ.
    fn host_streams() -> Vec<bool> {
        let mut streams = vec![false];
        if stream_wide() {
            streams.push(true);
        } else {
            println!("no AVX-512 DQ: the wide stream is not exercised");
        }
        streams
    }

    /// `pairs` pairs through `uniform_pairs` on `wide`: the uniforms' bits
    /// and the generator left behind.
    fn drawn_block(start: &Pcg32, wide: bool, pairs: usize) -> (Vec<(u64, u64)>, Pcg32) {
        let mut rng = start.clone();
        let (mut u1, mut u2) = (vec![0.0; pairs], vec![0.0; pairs]);
        rng.uniform_pairs(wide, &mut u1, &mut u2);
        let bits = u1.iter().zip(&u2).map(|(a, b)| (a.to_bits(), b.to_bits()));
        (bits.collect(), rng)
    }

    #[test]
    fn the_wide_stream_equals_next_uniform_pair() {
        for seed in 0..3u64 {
            let mut start = Pcg32::seed_from(seed);
            if seed == 2 {
                start.next_normal();
            }
            for pairs in 1..=BLOCK_PAIRS {
                let want = drawn_block(&start, false, pairs);
                let mut scalar = start.clone();
                let pairwise: Vec<(u64, u64)> = (0..pairs)
                    .map(|_| scalar.next_uniform_pair())
                    .map(|(a, b)| (a.to_bits(), b.to_bits()))
                    .collect();
                assert_eq!(want, (pairwise, scalar), "seed {seed} pairs {pairs}");
                for wide in host_streams() {
                    let got = drawn_block(&start, wide, pairs);
                    assert_eq!(got, want, "seed {seed} pairs {pairs} wide {wide}");
                }
            }
        }
    }

    /// A generator whose next two outputs are 0, so the next Box–Muller
    /// pair draws `u1 = 0` and redraws it: PCG outputs 0 from any state
    /// below 2²⁷, and the increment is chosen so that state 1 steps to
    /// state 2.
    fn rejecting_stream() -> Pcg32 {
        let (target, inc) = (1u64, 2u64.wrapping_sub(PCG_MULT));
        let stream = Pcg32 {
            state: target,
            inc,
            cached_normal: None,
        };
        assert_eq!(
            (stream.clone().next_u32(), stream.clone().next_u64()),
            (0, 0)
        );
        stream
    }

    /// A block that redraws a `u1` — at its first, a middle or its last
    /// pair — is drawn pair by pair: the same uniforms and the same
    /// generator as [`Pcg32::next_uniform_pair`], and the normals of
    /// `fill_normal` still equal a `next_normal` loop.
    #[test]
    fn a_rejected_uniform_falls_back_bit_exactly() {
        let rejecting = rejecting_stream();
        for (at, pairs) in [(0usize, 256usize), (100, 256), (255, 256), (0, 1), (6, 7)] {
            let mut start = rejecting.clone();
            start.advance((4 * at as u64).wrapping_neg());
            let mut probe = start.clone();
            probe.advance(4 * at as u64);
            assert_eq!(probe.next_u64(), 0, "pair {at} draws u1 = 0");
            let want = drawn_block(&start, false, pairs);
            for wide in host_streams() {
                let got = drawn_block(&start, wide, pairs);
                assert_eq!(got, want, "rejection at pair {at} of {pairs}, wide {wide}");
            }
            let mut bulk = start.clone();
            let mut out = vec![0.0f32; 2 * pairs + 1];
            bulk.fill_normal(&mut out);
            let mut scalar = start.clone();
            for (i, z) in out.iter().enumerate() {
                assert_eq!(z.to_bits(), scalar.next_normal().to_bits(), "draw {i}");
            }
            assert_eq!(bulk, scalar, "rejection at pair {at}");
        }
    }

    /// One item of the block-driver tests: a row of normals, tagged with
    /// its index so a block that passes the wrong one shows.
    fn draw_row(rng: &mut Pcg32, i: usize, row: &mut [f32]) {
        rng.fill_normal(row);
        row[0] += i as f32;
    }

    /// `n` rows of `normals` through `draw_each_on` at `width`: the rows'
    /// bits, the generator left behind, and whether the lanes' result stood.
    fn drawn_rows(
        start: &Pcg32,
        width: Option<usize>,
        n: usize,
        normals: usize,
    ) -> (Vec<Vec<u32>>, Pcg32, bool) {
        let mut rng = start.clone();
        let mut rows = vec![vec![f32::NAN; normals]; n];
        let stood = match width {
            Some(width) => {
                let draw = |rng: &mut Pcg32, i, row: &mut Vec<f32>| draw_row(rng, i, row);
                rng.draw_each_on(&Executor::new(width), &mut rows, normals, draw)
            }
            None => {
                for (i, row) in rows.iter_mut().enumerate() {
                    draw_row(&mut rng, i, row);
                }
                false
            }
        };
        let bits = rows.iter().map(|r| r.iter().map(|z| z.to_bits()).collect());
        (bits.collect(), rng, stood)
    }

    #[test]
    fn draw_each_equals_the_serial_loop_at_any_width() {
        for width in [1usize, 2, 8] {
            for n in [0, 1, width - 1, 257, 640, 641] {
                let start = Pcg32::seed_from(n as u64);
                let (want_rows, want_rng, _) = drawn_rows(&start, None, n, 6);
                let (rows, rng, stood) = drawn_rows(&start, Some(width), n, 6);
                assert_eq!(rows, want_rows, "width {width} n {n}");
                assert_eq!(rng, want_rng, "width {width} n {n}");
                assert_eq!(stood, width > 1 && n > 1, "width {width} n {n}");
            }
        }
    }

    #[test]
    fn odd_normals_and_a_pending_normal_take_the_serial_loop() {
        let mut pending = Pcg32::seed_from(4);
        pending.next_normal();
        for (start, normals) in [(Pcg32::seed_from(4), 5), (pending, 6)] {
            let want = drawn_rows(&start, None, 100, normals);
            for width in [2, 8] {
                let got = drawn_rows(&start, Some(width), 100, normals);
                assert_eq!(got, want, "width {width} normals {normals}");
            }
        }
    }

    /// A `u1` redrawn in a middle block moves every later block's start:
    /// the blocks after it are drawn again from where it really ended.
    #[test]
    fn a_redrawn_u1_in_a_middle_block_falls_back_bit_exactly() {
        // 64 rows of 6 normals: 8 blocks of 8 rows at width 2, 32 of 2 at
        // width 8. Row 27's second pair draws u1 = 0.
        let (n, normals, row, pair) = (64usize, 6usize, 27u64, 1u64);
        let mut start = rejecting_stream();
        start.advance((2 * normals as u64 * row + 4 * pair).wrapping_neg());
        let mut probe = start.clone();
        probe.advance(2 * normals as u64 * row + 4 * pair);
        assert_eq!(probe.next_u64(), 0, "row {row} pair {pair} draws u1 = 0");
        let (want_rows, want_rng, _) = drawn_rows(&start, None, n, normals);
        for width in [2, 8] {
            let (rows, rng, stood) = drawn_rows(&start, Some(width), n, normals);
            assert!(!stood, "width {width}: the redraw must be caught");
            assert_eq!(rows, want_rows, "width {width}");
            assert_eq!(rng, want_rng, "width {width}");
        }
    }

    #[test]
    fn isa_tiers_produce_identical_output() {
        let mut rng = Pcg32::seed_from(77);
        let (mut u1, mut u2) = ([0.0; BLOCK_PAIRS], [0.0; BLOCK_PAIRS]);
        for _ in 0..64 {
            let streams: Vec<_> = host_streams()
                .into_iter()
                .map(|wide| drawn_block(&rng, wide, BLOCK_PAIRS))
                .collect();
            assert!(streams.windows(2).all(|w| w[0] == w[1]), "wide stream");
            for (a, b) in u1.iter_mut().zip(&mut u2) {
                (*a, *b) = rng.next_uniform_pair();
            }
            let run = |tier: usize| {
                let (mut z0, mut z1) = ([0.0f32; BLOCK_PAIRS], [0.0f32; BLOCK_PAIRS]);
                let fallbacks = box_muller_block(tier, &u1, &u2, &mut z0, &mut z1);
                let bits = |z: [f32; BLOCK_PAIRS]| z.map(f32::to_bits);
                (bits(z0), bits(z1), fallbacks)
            };
            let baseline = run(1);
            for tier in host_tiers() {
                assert_eq!(run(tier), baseline, "tier {tier}");
            }
        }
    }

    /// Compares `draws` block-path normals with the libm expression and
    /// returns the share of pairs that took the fallback.
    fn soak(draws: u64) -> f64 {
        let tier = crate::gemm::isa_tier();
        let mut rng = Pcg32::seed_from(0x50AC);
        let (mut u1, mut u2) = ([0.0; BLOCK_PAIRS], [0.0; BLOCK_PAIRS]);
        let (mut z0, mut z1) = ([0.0f32; BLOCK_PAIRS], [0.0f32; BLOCK_PAIRS]);
        let blocks = draws / (2 * BLOCK_PAIRS as u64);
        let (mut fallbacks, mut mismatches) = (0u64, 0u64);
        for _ in 0..blocks {
            for (a, b) in u1.iter_mut().zip(&mut u2) {
                (*a, *b) = rng.next_uniform_pair();
            }
            fallbacks += box_muller_block(tier, &u1, &u2, &mut z0, &mut z1) as u64;
            for i in 0..BLOCK_PAIRS {
                mismatches += (bits2((z0[i], z1[i])) != bits2(box_muller(u1[i], u2[i]))) as u64;
            }
        }
        let share = fallbacks as f64 / (blocks * BLOCK_PAIRS as u64) as f64;
        println!("{draws} draws, tier {tier}: {mismatches} mismatches, fallback share {share:.3e}");
        assert_eq!(mismatches, 0);
        share
    }

    #[test]
    fn fallback_share_is_the_guard_band() {
        // Two products per pair, each flagged with probability 2·2¹³/2²⁹.
        let share = soak(1 << 22);
        assert!((3e-5..1.2e-4).contains(&share), "fallback share {share:e}");
    }

    /// `scripts/ci.sh` runs this one in release (a few seconds).
    #[test]
    #[ignore = "2^28 draws; run in release"]
    fn fill_normal_soak() {
        assert!(soak(1 << 28) < 2e-4);
    }

    #[test]
    #[ignore = "2^30 draws; run in release"]
    fn fill_normal_long_soak() {
        assert!(soak(1 << 30) < 2e-4);
    }

    /// [`stream_words`] compiled as the wide stream runs it.
    ///
    /// # Safety
    ///
    /// Callers must have verified `avx512f` and `avx512dq` support.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn stream_words_avx512(rng: &Pcg32, words: &mut [u32]) {
        stream_words(rng.state, rng.inc, rng.jump(STREAM_LANES as u64), words);
    }

    /// 2²⁸ outputs of the 32-lane stream against `next_u32`, in blocks of
    /// the size `fill_normal` draws. `scripts/ci.sh` runs it in release.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[ignore = "2^28 outputs; run in release"]
    fn pcg_stream_soak() {
        if !stream_wide() {
            println!("no AVX-512 DQ: the wide stream is not exercised");
            return;
        }
        let mut rng = Pcg32::seed_from(0x5EA4);
        let mut words = [0u32; 4 * BLOCK_PAIRS];
        let mut mismatches = 0u64;
        for _ in 0..(1u64 << 28) / words.len() as u64 {
            // SAFETY: `stream_wide` detected avx512f and avx512dq.
            unsafe { stream_words_avx512(&rng, &mut words) };
            for &word in &words {
                mismatches += (word != rng.next_u32()) as u64;
            }
        }
        println!("2^28 outputs of the 32-lane stream: {mismatches} mismatches");
        assert_eq!(mismatches, 0);
    }
}
