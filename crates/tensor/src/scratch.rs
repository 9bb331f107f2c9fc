//! One process-wide pool for epoch-sized working buffers.
//!
//! An epoch churns the same large buffers over and over — activations and
//! gradients in every pass, weight vectors in every checkpoint and replay,
//! frames on the wire — on whichever thread runs the work. Freed through
//! the allocator, each thread's malloc arena keeps its own last pass, so
//! peak memory grows with the number of threads that ever held one.
//! Every buffer of at least [`POOLED_BYTES`] is instead taken from and put
//! back into one pool per element type, shared by every thread and never
//! returned to the allocator.
//!
//! A buffer's capacity is its class: a request is rounded up to a power of
//! two, so sizes within a factor of two — a weight vector and an
//! activation, a frame a few bytes longer than the last — share buffers.
//! Only the pages a buffer's users wrote are resident, so the rounding
//! costs address space, not memory.
//!
//! The pool bounds itself: per class it keeps at most as many free buffers
//! as were ever out of it at once. Nothing is configured; the high-water
//! mark is the working set.
//!
//! The pool only manages memory — a taken buffer is empty or zeroed, so
//! values computed through it are those of fresh allocations and it is
//! invisible to checkpoint digests.

use std::sync::Mutex;

/// Smallest buffer, in bytes, the process pool keeps. Below it the
/// allocator's own bins recycle as well and nothing epoch-sized is at
/// stake.
const POOLED_BYTES: usize = 64 * 1024;

/// Free buffers of one capacity, and how many are out.
#[derive(Debug)]
struct Class<T> {
    capacity: usize,
    free: Vec<Vec<T>>,
    /// Buffers taken and not yet put back.
    out: usize,
    /// The most ever out at once: the bound on `free`.
    high: usize,
}

/// Capacity classes, sorted by capacity — the bookkeeping the process
/// pool and a [`ScratchArena`]'s small buffers share.
#[derive(Debug)]
struct Classes<T>(Vec<Class<T>>);

impl<T> Classes<T> {
    const fn new() -> Self {
        Self(Vec::new())
    }

    /// A free buffer of exactly `capacity`, if one is kept; counts it out
    /// either way.
    fn take(&mut self, capacity: usize) -> Option<Vec<T>> {
        let i = match self.0.binary_search_by_key(&capacity, |c| c.capacity) {
            Ok(i) => i,
            Err(i) => {
                self.0.insert(
                    i,
                    Class {
                        capacity,
                        free: Vec::new(),
                        out: 0,
                        high: 0,
                    },
                );
                i
            }
        };
        let class = &mut self.0[i];
        class.out += 1;
        class.high = class.high.max(class.out);
        class.free.pop()
    }

    /// Keeps `buf` (cleared) when its class has room below its high-water
    /// mark; hands it back otherwise, for the caller to drop.
    fn put(&mut self, mut buf: Vec<T>) -> Option<Vec<T>> {
        let Ok(i) = self.0.binary_search_by_key(&buf.capacity(), |c| c.capacity) else {
            return Some(buf);
        };
        let class = &mut self.0[i];
        class.out = class.out.saturating_sub(1);
        if class.free.len() >= class.high {
            return Some(buf);
        }
        buf.clear();
        class.free.push(buf);
        None
    }

    /// Free buffers of exactly `capacity`.
    #[cfg(test)]
    fn idle(&self, capacity: usize) -> usize {
        self.0
            .binary_search_by_key(&capacity, |c| c.capacity)
            .map_or(0, |i| self.0[i].free.len())
    }

    /// Free buffers across every class.
    fn idle_total(&self) -> usize {
        self.0.iter().map(|c| c.free.len()).sum()
    }
}

/// A pool of `Vec<T>` buffers shared by every thread. The process has one
/// per element type ([`Element::pool`]); the free functions [`take_empty`],
/// [`take_zeroed`] and [`put`] use it.
#[derive(Debug)]
pub struct Pool<T>(Mutex<Classes<T>>);

impl<T: Element> Pool<T> {
    /// An empty pool.
    pub const fn new() -> Self {
        Self(Mutex::new(Classes::new()))
    }

    /// The classes, also after a panic elsewhere while they were locked:
    /// every update leaves them valid (an off count only loosens or
    /// tightens a bound), and a pool refusing service would take every
    /// thread's next pass down with the one that panicked.
    fn classes(&self) -> std::sync::MutexGuard<'_, Classes<T>> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// An empty buffer with room for at least `capacity` elements: a
    /// pooled one's capacity is `capacity` rounded up to a power of two.
    pub fn take_empty(&self, capacity: usize) -> Vec<T> {
        if !is_pooled::<T>(capacity) {
            return Vec::with_capacity(capacity);
        }
        let class = capacity.next_power_of_two();
        let kept = self.classes().take(class);
        kept.unwrap_or_else(|| Vec::with_capacity(class))
    }

    /// A buffer of exactly `len` zeros.
    pub fn take_zeroed(&self, len: usize) -> Vec<T> {
        let mut buf = self.take_empty(len);
        buf.resize(len, T::default());
        buf
    }

    /// Returns a buffer. One below [`POOLED_BYTES`], of a capacity that is
    /// no class taken so far, or beyond its class's high-water mark goes
    /// to the allocator.
    pub fn put(&self, buf: Vec<T>) {
        if !is_pooled::<T>(buf.capacity()) {
            return;
        }
        let refused = self.classes().put(buf);
        drop(refused);
    }

    /// Free buffers in the class a request for `capacity` elements takes
    /// from.
    #[cfg(test)]
    fn idle(&self, capacity: usize) -> usize {
        self.classes().idle(capacity.next_power_of_two())
    }
}

impl<T: Element> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// An element type with a process-wide [`Pool`].
pub trait Element: Copy + Default + Send + 'static {
    /// The process's pool of buffers of this element.
    fn pool() -> &'static Pool<Self>;
}

impl Element for f32 {
    fn pool() -> &'static Pool<f32> {
        static POOL: Pool<f32> = Pool::new();
        &POOL
    }
}

impl Element for u32 {
    fn pool() -> &'static Pool<u32> {
        static POOL: Pool<u32> = Pool::new();
        &POOL
    }
}

impl Element for u8 {
    fn pool() -> &'static Pool<u8> {
        static POOL: Pool<u8> = Pool::new();
        &POOL
    }
}

impl Element for i64 {
    fn pool() -> &'static Pool<i64> {
        static POOL: Pool<i64> = Pool::new();
        &POOL
    }
}

fn is_pooled<T>(capacity: usize) -> bool {
    capacity.saturating_mul(std::mem::size_of::<T>()) >= POOLED_BYTES
}

/// [`Pool::take_empty`] on the process pool.
pub fn take_empty<T: Element>(capacity: usize) -> Vec<T> {
    T::pool().take_empty(capacity)
}

/// [`Pool::take_zeroed`] on the process pool.
pub fn take_zeroed<T: Element>(len: usize) -> Vec<T> {
    T::pool().take_zeroed(len)
}

/// [`Pool::put`] on the process pool.
pub fn put<T: Element>(buf: Vec<T>) {
    T::pool().put(buf)
}

/// The working buffers of one pass (a training run, a replayed segment,
/// an evaluation batch). Buffers of at least [`POOLED_BYTES`] come from and
/// go back to the process pool at once, so another thread's pass can use
/// them next; smaller ones are kept here, by exact capacity under the same
/// per-class bound, and freed with the arena.
///
/// # Examples
///
/// ```
/// use rpol_tensor::scratch::ScratchArena;
///
/// let mut arena = ScratchArena::new();
/// let buf = arena.take_zeroed(128);
/// assert!(buf.iter().all(|&v| v == 0.0));
/// arena.recycle(buf);
/// // The next request of that size reuses the same allocation.
/// let again = arena.take_empty(128);
/// assert!(again.is_empty() && again.capacity() == 128);
/// ```
#[derive(Debug)]
pub struct ScratchArena {
    small: Classes<f32>,
}

impl ScratchArena {
    /// An arena holding nothing.
    pub fn new() -> Self {
        Self {
            small: Classes::new(),
        }
    }

    /// An empty buffer with room for at least `capacity` floats (exactly
    /// `capacity` below [`POOLED_BYTES`]).
    pub fn take_empty(&mut self, capacity: usize) -> Vec<f32> {
        if is_pooled::<f32>(capacity) {
            return take_empty(capacity);
        }
        self.small
            .take(capacity)
            .unwrap_or_else(|| Vec::with_capacity(capacity))
    }

    /// A buffer of exactly `len` zeros.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_empty(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer for reuse.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if is_pooled::<f32>(buf.capacity()) {
            put(buf);
        } else {
            drop(self.small.put(buf));
        }
    }

    /// Small buffers the arena holds.
    pub fn pooled(&self) -> usize {
        self.small.idle_total()
    }
}

impl Default for ScratchArena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Elements of `T` in `bytes` bytes.
    fn elems<T>(bytes: usize) -> usize {
        bytes / std::mem::size_of::<T>()
    }

    #[test]
    fn zeroed_after_dirty_use() {
        let pool = Pool::<f32>::new();
        let n = elems::<f32>(POOLED_BYTES) + 3;
        let mut buf = pool.take_zeroed(n);
        let ptr = buf.as_ptr();
        buf.fill(7.5);
        pool.put(buf);
        let again = pool.take_zeroed(n);
        assert_eq!(again.as_ptr(), ptr, "the allocation is reused");
        assert!(again.iter().all(|&v| v == 0.0));
        pool.put(again);
        let empty = pool.take_empty(n);
        assert_eq!((empty.as_ptr(), empty.len()), (ptr, 0));
    }

    #[test]
    fn sizes_within_a_power_of_two_share_a_class() {
        let pool = Pool::<f32>::new();
        let n = elems::<f32>(POOLED_BYTES) + 1;
        let buf = pool.take_empty(n);
        assert_eq!(buf.capacity(), n.next_power_of_two());
        let ptr = buf.as_ptr();
        pool.put(buf);
        let again = pool.take_empty(2 * n - 2);
        assert_eq!(again.as_ptr(), ptr);
        // Below the threshold nothing is pooled or rounded.
        assert_eq!(pool.take_empty(100).capacity(), 100);
    }

    /// The `u32` pool is this test's alone in this crate's tests.
    #[test]
    fn a_buffer_put_on_one_thread_is_taken_on_another() {
        let n = elems::<u32>(POOLED_BYTES);
        let put_at = std::thread::spawn(move || {
            let buf = take_zeroed::<u32>(n);
            let ptr = buf.as_ptr() as usize;
            put(buf);
            ptr
        })
        .join()
        .expect("putter");
        let taken_at = std::thread::spawn(move || {
            let buf = take_empty::<u32>(n);
            buf.as_ptr() as usize
        })
        .join()
        .expect("taker");
        assert_eq!(taken_at, put_at, "the pool is process-wide");
    }

    #[test]
    fn pool_stays_bounded() {
        let pool = Pool::<f32>::new();
        let n = elems::<f32>(POOLED_BYTES);
        let out: Vec<_> = (0..3).map(|_| pool.take_empty(n)).collect();
        for buf in out {
            pool.put(buf);
        }
        assert_eq!(pool.idle(n), 3);
        // A burst of buffers the pool never handed out — inputs a layer
        // was given, not taken — is dropped beyond the high-water mark.
        for _ in 0..10 {
            pool.put(Vec::with_capacity(n));
        }
        assert_eq!(pool.idle(n), 3);
        // Two out at once never raise the mark past three.
        let (a, b) = (pool.take_empty(n), pool.take_empty(n));
        pool.put(a);
        pool.put(b);
        assert_eq!(pool.idle(n), 3);
        // A class nobody took keeps nothing.
        pool.put(Vec::<f32>::with_capacity(2 * n));
        assert_eq!(pool.idle(2 * n), 0);
    }

    #[test]
    fn recycles_allocations() {
        let mut arena = ScratchArena::new();
        let buf = arena.take_zeroed(100);
        let ptr = buf.as_ptr();
        arena.recycle(buf);
        assert_eq!(arena.pooled(), 1);
        let again = arena.take_zeroed(100);
        assert_eq!(again.as_ptr(), ptr, "allocation should be reused");
        assert!(again.iter().all(|&v| v == 0.0));
        // Beyond what the arena handed out, small buffers are dropped.
        arena.recycle(again);
        arena.recycle(vec![1.0; 100]);
        assert_eq!(arena.pooled(), 1);
    }

    /// The `u8` pool is this test's alone in this crate's tests.
    #[test]
    fn byte_buffers_have_their_own_pool() {
        let n = POOLED_BYTES;
        let buf = take_empty::<u8>(n);
        let ptr = buf.as_ptr();
        put(buf);
        let again = take_empty::<u8>(n);
        assert_eq!(again.as_ptr(), ptr);
    }
}
