//! `rpol-exec`: a persistent, deterministic work-stealing executor.
//!
//! The epoch pipeline used to spawn fresh scoped OS threads per phase per
//! epoch (training fan-out, verification fan-out). This crate replaces
//! those with **one long-lived thread pool** shared across epochs and
//! phases: tasks are pushed onto per-worker deques (owner pops LIFO from
//! the back, stealers pop FIFO from the front) plus a global injector
//! queue for tasks submitted from outside the pool. Victim order for
//! stealing is a seeded permutation per worker, so scheduling is
//! reproducible run-to-run for a fixed thread count.
//!
//! # Determinism contract (DESIGN.md §12)
//!
//! The executor never makes a *value-affecting* decision. Callers draw all
//! randomness serially before fanning out, tasks write results into
//! pre-sized indexed slots ([`Executor::run_indexed`]), and reductions run
//! in index order on the caller's thread. Under that discipline the results
//! are bitwise identical for **any** thread count, including 1 — the
//! seeded steal order only makes the *schedule* reproducible, it is not
//! what correctness rests on.
//!
//! Observability: the executor emits **metrics counters only** — never
//! trace events — because steal counts and queue depths are scheduling
//! facts that may differ between serial and parallel runs, and the obs
//! determinism contract compares serial/parallel event multisets.
//!
//! # Example
//!
//! ```
//! use rpol_exec::Executor;
//!
//! let exec = Executor::new(4);
//! let squares = exec.run_indexed(8, |i| i * i);
//! assert_eq!(squares[7], 49);
//!
//! // Nested spawn: a task may schedule follow-up work into the same scope.
//! let mut flags = vec![false; 4];
//! exec.scope(|s| {
//!     for (i, flag) in flags.iter_mut().enumerate() {
//!         s.spawn(move || *flag = i % 2 == 0);
//!     }
//! });
//! assert_eq!(flags, [true, false, true, false]);
//! ```

use rpol_obs::Recorder;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Environment variable overriding [`Executor::default_threads`].
const THREADS_ENV: &str = "RPOL_EXEC_THREADS";

/// The process-wide shared executor, built on first use.
static SHARED: OnceLock<Arc<Executor>> = OnceLock::new();

/// The process-wide shared pool: one executor every compute layer (GEMM
/// row sharding, ad-hoc fan-outs) schedules onto, so kernels nested under
/// an epoch-pipeline task never oversubscribe the host with per-call
/// scoped threads.
///
/// Built lazily on first call with [`Executor::default_threads`] workers
/// and never torn down — its threads park when idle and die with the
/// process. It outlives every run, so it has no run to report to and
/// publishes no metrics; per-run executors publish `exec.*` to the
/// recorder their owner hands them. Nesting is safe in both directions:
/// a shared-pool worker that opens another shared scope help-drains
/// instead of sleeping, and a worker of a *different* executor that
/// blocks in a shared scope merely sleeps on the condvar.
pub fn shared() -> &'static Arc<Executor> {
    SHARED.get_or_init(|| Arc::new(Executor::new(Executor::default_threads())))
}

/// A type-erased unit of work. Jobs are `'static` inside the pool; the
/// scope API transmutes shorter-lived closures in and guarantees they run
/// (or are dropped) before the borrow they capture ends.
type Job = Box<dyn FnOnce() + Send>;

/// Distinguishes executors so a pool thread never pops work belonging to a
/// different executor instance living in the same process.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(pool id, worker index)` when the current thread is a pool worker.
    static CURRENT_WORKER: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

/// SplitMix64 step — the seed expander behind the per-worker victim
/// permutations (scheduling only; never value-affecting).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` excluding `me` — the order worker `me`
/// scans victims when its own deque and the injector are empty.
fn victim_order(me: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).filter(|&v| v != me).collect();
    let mut state = seed ^ (me as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    // Fisher–Yates with the splitmix stream.
    for i in (1..order.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// State shared between the pool threads and every handle.
struct Shared {
    pool_id: u64,
    /// Per-worker deques: owner pushes/pops the back, thieves pop the front.
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// Overflow queue for work submitted from non-pool threads.
    injector: Mutex<VecDeque<Job>>,
    /// Parking lot: bumped on every push so sleepers never miss work.
    work_epoch: AtomicU64,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Tasks currently queued (not yet started) across all queues.
    queued: AtomicUsize,
    /// High-water mark of `queued`, exported as a gauge.
    queued_peak: AtomicUsize,
    recorder: Arc<Recorder>,
}

impl Shared {
    /// The calling thread's index when it is a pool thread of this executor.
    fn own_worker(&self) -> Option<usize> {
        match CURRENT_WORKER.with(|c| c.get()) {
            Some((pool, idx)) if pool == self.pool_id => Some(idx),
            _ => None,
        }
    }

    /// Pushes jobs, in order: onto the calling worker's own deque (LIFO
    /// end) when the caller is a pool thread of this executor, else onto
    /// the injector. Always wakes sleepers.
    fn push(&self, jobs: impl ExactSizeIterator<Item = Job>) {
        let n = jobs.len();
        if n == 0 {
            return;
        }
        // Count the jobs BEFORE publishing them: a sibling can steal (and
        // decrement) the instant one lands in a deque, and counting after
        // would let `queued` wrap below zero under that race.
        let depth = self.queued.fetch_add(n, Ordering::SeqCst) + n;
        let peak = self.queued_peak.fetch_max(depth, Ordering::SeqCst);
        if depth > peak && self.recorder.enabled() {
            self.recorder
                .gauge_set("exec.queue_depth_peak", depth as f64);
        }
        match self.own_worker() {
            Some(idx) => self.locals[idx].lock().expect("local deque").extend(jobs),
            None => {
                let mut injector = self.injector.lock().expect("injector");
                for job in jobs {
                    injector.push_front(job);
                }
                drop(injector);
                if self.recorder.enabled() {
                    self.recorder.counter_add("exec.injected", n as u64);
                }
            }
        }
        self.work_epoch.fetch_add(1, Ordering::SeqCst);
        // Lock/unlock pairs the notification with the sleepers' re-check,
        // so a worker can never sleep through a push.
        drop(self.sleep.lock().expect("sleep lock"));
        self.wake.notify_all();
    }

    /// Tries to obtain one job for worker `me`: own deque (LIFO), then the
    /// injector (FIFO), then victims in seeded order (FIFO steal).
    fn find_task(&self, me: usize, victims: &[usize]) -> Option<Job> {
        if let Some(job) = self.locals[me].lock().expect("local deque").pop_back() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        if let Some(job) = self.injector.lock().expect("injector").pop_back() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        for &v in victims {
            if let Some(job) = self.locals[v].lock().expect("victim deque").pop_front() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                if self.recorder.enabled() {
                    self.recorder.counter_add("exec.steals", 1);
                }
                return Some(job);
            }
        }
        None
    }

    fn run_job(&self, job: Job) {
        // Counted before the job runs: the job's last act releases its
        // scope's latch, and a caller that returns from `scope` must find
        // every one of its tasks in `exec.tasks`.
        if self.recorder.enabled() {
            self.recorder.counter_add("exec.tasks", 1);
        }
        job();
    }

    /// The main loop of one pool thread.
    fn worker_loop(&self, me: usize, victims: &[usize]) {
        CURRENT_WORKER.with(|c| c.set(Some((self.pool_id, me))));
        loop {
            let epoch = self.work_epoch.load(Ordering::SeqCst);
            if let Some(job) = self.find_task(me, victims) {
                self.run_job(job);
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let guard = self.sleep.lock().expect("sleep lock");
            if self.work_epoch.load(Ordering::SeqCst) != epoch
                || self.shutdown.load(Ordering::SeqCst)
            {
                continue;
            }
            // The timeout is a pure backstop; the epoch/lock protocol above
            // already rules out lost wakeups.
            let _ = self
                .wake
                .wait_timeout(guard, Duration::from_millis(200))
                .expect("sleep wait");
        }
    }
}

/// Book-keeping for one [`Executor::scope`] invocation.
#[derive(Default)]
struct ScopeState {
    /// Spawned-but-unfinished task count (counted from spawn time).
    pending: AtomicUsize,
    /// First panic payload observed in a task of this scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done: Condvar,
    done_lock: Mutex<()>,
    /// Jobs spawned from outside the pool while the scope's body runs,
    /// published together when it returns (`None` after that).
    held: Mutex<Option<Vec<Job>>>,
}

impl ScopeState {
    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().expect("panic slot");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            drop(self.done_lock.lock().expect("done lock"));
            self.done.notify_all();
        }
    }
}

/// A spawn handle scoped to one [`Executor::scope`] call: tasks may borrow
/// anything that outlives the scope (`'env`), and may spawn follow-up
/// tasks into the same scope by capturing the `&Scope` reference (it is
/// `Copy`-able as a reference and `Sync`).
pub struct Scope<'scope, 'env: 'scope> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Schedules `f` onto the pool. The closure may borrow `'scope` data
    /// (anything alive for the whole `scope` call); it runs before
    /// [`Executor::scope`] returns, panics are re-raised there.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state.record_panic(payload);
            }
            state.finish_one();
        });
        // SAFETY: `scope()` blocks until `pending == 0` before returning
        // (even when the body panics), so the job — and every `'scope`
        // borrow it captures — is consumed while those borrows are live.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        if self.shared.own_worker().is_none() {
            if let Some(held) = self.state.held.lock().expect("held jobs").as_mut() {
                held.push(job);
                return;
            }
        }
        self.shared.push(std::iter::once(job));
    }
}

/// The persistent thread pool. Construct once, reuse across every epoch
/// and phase; dropping it shuts the threads down.
pub struct Executor {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Spawns a pool of `threads` workers (at least one) with the shared
    /// no-op recorder.
    pub fn new(threads: usize) -> Self {
        Self::with_recorder(threads, rpol_obs::noop().clone())
    }

    /// Spawns a pool whose metrics land on `recorder` (`exec.tasks`,
    /// `exec.steals`, `exec.injected`, gauges `exec.threads` and
    /// `exec.queue_depth_peak`).
    pub fn with_recorder(threads: usize, recorder: Arc<Recorder>) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            pool_id: NEXT_POOL_ID.fetch_add(1, Ordering::SeqCst),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            work_epoch: AtomicU64::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queued: AtomicUsize::new(0),
            queued_peak: AtomicUsize::new(0),
            recorder,
        });
        if shared.recorder.enabled() {
            shared.recorder.gauge_set("exec.threads", threads as f64);
        }
        let handles = (0..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                // Scheduling seed: fixed, so a given (thread count, task
                // DAG) steals in the same order every run.
                let victims = victim_order(me, threads, 0x5EED_EC5E_C0DE);
                std::thread::Builder::new()
                    .name(format!("rpol-exec-{me}"))
                    .spawn(move || shared.worker_loop(me, &victims))
                    .expect("spawn pool thread")
            })
            .collect();
        Self { shared, handles }
    }

    /// Pool width.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Default pool width: `RPOL_EXEC_THREADS` when set, else the host
    /// parallelism capped at 8 (the bench sweep's top configuration).
    pub fn default_threads() -> usize {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
                    .min(8)
            })
    }

    /// Runs `f` with a [`Scope`] for spawning borrowing tasks, then blocks
    /// until every spawned task (including nested spawns) finished. Task
    /// panics are propagated here, after all siblings completed.
    ///
    /// What `f` spawns from outside the pool is published when `f`
    /// returns, all at once and in spawn order: one wake-up, and a queue
    /// depth that does not depend on how fast a lane picks the first job
    /// up — so at width 1 even the executor's metrics repeat run to run.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            state: Arc::new(ScopeState {
                held: Mutex::new(Some(Vec::new())),
                ..ScopeState::default()
            }),
            scope: PhantomData,
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        let held = scope.state.held.lock().expect("held jobs").take();
        self.shared.push(held.unwrap_or_default().into_iter());
        self.wait_scope(&scope.state);
        if let Some(payload) = scope.state.panic.lock().expect("panic slot").take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Blocks until the scope's pending count hits zero. A caller that is
    /// itself a pool worker helps drain queues instead of sleeping, so
    /// nested scopes cannot deadlock the pool.
    fn wait_scope(&self, state: &ScopeState) {
        match self.shared.own_worker() {
            Some(idx) => {
                let victims: Vec<usize> = (0..self.threads()).filter(|&v| v != idx).collect();
                while state.pending.load(Ordering::SeqCst) != 0 {
                    match self.shared.find_task(idx, &victims) {
                        Some(job) => self.shared.run_job(job),
                        None => std::thread::yield_now(),
                    }
                }
            }
            None => {
                let mut guard = self.shared.sleep.lock().expect("sleep lock");
                drop(guard);
                let mut done = state.done_lock.lock().expect("done lock");
                while state.pending.load(Ordering::SeqCst) != 0 {
                    done = state
                        .done
                        .wait_timeout(done, Duration::from_millis(50))
                        .expect("done wait")
                        .0;
                }
                guard = self.shared.sleep.lock().expect("sleep lock");
                drop(guard);
            }
        }
    }

    /// Deterministic indexed fan-out: computes `f(i)` for `i in 0..n` on
    /// the pool and returns the results **in index order** — the canonical
    /// reduction shape for bitwise-reproducible parallel verification.
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        self.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                let f = &f;
                s.spawn(move || *slot = Some(f(i)));
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every index computed"))
            .collect()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(self.shared.sleep.lock().expect("sleep lock"));
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Executor({} threads)", self.threads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_matches_serial_at_every_thread_count() {
        let serial: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(i) ^ 0xABCD).collect();
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            let parallel = exec.run_indexed(64, |i| (i as u64).wrapping_mul(i as u64) ^ 0xABCD);
            assert_eq!(parallel, serial, "{threads} threads");
        }
    }

    #[test]
    fn pool_is_reusable_across_many_scopes() {
        let exec = Executor::new(4);
        for round in 0..50usize {
            let sum: usize = exec.run_indexed(16, |i| i * round).iter().sum();
            assert_eq!(sum, 120 * round);
        }
    }

    #[test]
    fn nested_spawn_runs_before_scope_returns() {
        let exec = Executor::new(3);
        let flags: Vec<AtomicUsize> = (0..24).map(|_| AtomicUsize::new(0)).collect();
        exec.scope(|s| {
            for chunk in flags.chunks(4) {
                s.spawn(move || {
                    // First element set by the outer task, the rest by a
                    // nested task scheduled from inside the pool.
                    chunk[0].store(1, Ordering::SeqCst);
                    s.spawn(move || {
                        for flag in &chunk[1..] {
                            flag.store(1, Ordering::SeqCst);
                        }
                    });
                });
            }
        });
        assert!(flags.iter().all(|f| f.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn tasks_borrow_mutably_via_disjoint_slots() {
        let exec = Executor::new(2);
        let mut values = vec![0u32; 10];
        exec.scope(|s| {
            for (i, v) in values.iter_mut().enumerate() {
                s.spawn(move || *v = i as u32 + 1);
            }
        });
        assert_eq!(values, (1..=10).collect::<Vec<u32>>());
    }

    #[test]
    fn panic_in_task_propagates_after_siblings_finish() {
        let exec = Executor::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| {
                for i in 0..8 {
                    let finished = &finished;
                    s.spawn(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(finished.load(Ordering::SeqCst), 7, "siblings still ran");
        // The pool survives a panicked scope.
        assert_eq!(exec.run_indexed(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn metrics_count_tasks_and_threads() {
        let rec = Arc::new(Recorder::logical());
        let exec = Executor::with_recorder(4, rec.clone());
        let _ = exec.run_indexed(32, |i| i);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("exec.tasks"), 32);
        let threads = snap
            .gauges
            .iter()
            .find(|(n, _)| n.as_str() == "exec.threads")
            .map(|(_, v)| *v);
        assert_eq!(threads, Some(4.0));
        // No trace events, ever: scheduling facts are metrics-only.
        assert!(rec.events().is_empty());
    }

    /// Regression: `exec.tasks` used to be bumped after the job had
    /// released its scope's latch, so a snapshot taken right after
    /// `run_indexed` returned could read 31 of 32.
    #[test]
    fn task_count_is_exact_when_the_scope_returns() {
        let rec = Arc::new(Recorder::logical());
        // Default width, so `scripts/ci.sh` can widen the race window with
        // `RPOL_EXEC_THREADS=8`.
        let exec = Executor::with_recorder(Executor::default_threads(), rec.clone());
        for round in 1..=400u64 {
            let _ = exec.run_indexed(32, |i| i);
            assert_eq!(
                rec.snapshot().counter("exec.tasks"),
                32 * round,
                "round {round}"
            );
        }
    }

    /// A fan-out from outside the pool lands in one piece, so its queue
    /// depth is the fan-out however fast the lane starts.
    #[test]
    fn external_spawns_are_published_together() {
        let rec = Arc::new(Recorder::logical());
        let exec = Executor::with_recorder(1, rec.clone());
        for _ in 0..50 {
            let _ = exec.run_indexed(32, |i| i);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.gauges["exec.queue_depth_peak"], 32.0);
        assert_eq!(snap.counter("exec.injected"), 50 * 32);
    }

    #[test]
    fn victim_order_is_seeded_and_stable() {
        let a = victim_order(2, 8, 42);
        let b = victim_order(2, 8, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
        assert!(!a.contains(&2));
        let c = victim_order(3, 8, 42);
        assert_ne!(a, c, "different workers scan in different orders");
    }

    #[test]
    fn shared_pool_is_one_process_wide_instance() {
        let first = Arc::as_ptr(shared());
        let again = Arc::as_ptr(shared());
        assert_eq!(first, again, "shared() must always return the same pool");
        assert!(shared().threads() >= 1);
        // The shared pool is reusable like any other executor.
        assert_eq!(shared().run_indexed(4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn default_threads_honors_env_override() {
        // Serialized by cargo's per-test process isolation being absent:
        // use a throwaway variable name check instead of mutating the real
        // one concurrently with other tests.
        assert!(Executor::default_threads() >= 1);
    }
}
