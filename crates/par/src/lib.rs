//! # imcat-par — a from-scratch deterministic scoped thread pool
//!
//! The build environment has no crates.io access, so — following the
//! `rand-compat` / `proptest-compat` precedent — this crate implements the
//! small slice of `rayon`-style functionality the IMCAT hot paths need, on
//! top of `std` only: spawn-once workers, a `Mutex`/`Condvar` job slot, and
//! `scope` / [`Pool::parallel_for`] / [`Pool::parallel_chunks`] entry points.
//!
//! ## Determinism guarantee
//!
//! Every API in this crate parallelizes over *disjoint output partitions*
//! whose boundaries are chosen by the caller (never by the scheduler) and
//! whose per-partition work is executed by exactly one thread. Floating-point
//! accumulation order inside a partition is therefore identical to a serial
//! run, and partition results are merged (by the caller) in partition-index
//! order. Consequently **results are bit-for-bit identical for any thread
//! count**, including 1 — `IMCAT_THREADS=1` is exact serial execution, and
//! the determinism suite at the workspace root asserts `1 == 4` bitwise.
//!
//! ## Sizing
//!
//! The global pool honors `IMCAT_THREADS` (defaulting to the machine's
//! available parallelism) and can be resized at runtime with [`set_threads`]
//! — used by the Fig. 9 thread-scaling table. Nested calls from inside a
//! worker degrade to inline serial execution (same bits, no deadlock), so
//! callers never need to care whether they are already on a pool thread.
//!
//! ## Telemetry
//!
//! Dispatches are recorded through `imcat-obs` on the submitting thread
//! (`pool.tasks` counter, `pool.queue_depth` gauge, `pool.dispatch` span).
//! The obs registry is globally sharded, so counters and spans recorded
//! inside chunk closures on worker threads land in `snapshot()` like any
//! other metric; workers register their shard eagerly on spawn. Per-worker
//! busy time still accumulates in pool-local atomics — it spans many
//! dispatches — and [`flush_obs`] folds it into the `pool.worker.busy`
//! histogram at report time.
//!
//! Request traces propagate across the dispatch boundary: when the
//! submitting thread has an active `imcat_obs::trace` handle, each executor
//! re-installs it for the duration of its chunks, so spans recorded on
//! workers attach to the submitter's in-flight trace.

#![warn(missing_docs)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

thread_local! {
    /// True on pool worker threads; nested dispatch degrades to serial.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Raw, lifetime-erased pointer to the chunk closure of an in-flight job.
///
/// Soundness: the submitting thread blocks inside [`Pool::run`] until every
/// chunk has completed, so the pointee outlives all dereferences.
struct ErasedTask(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine) and
// is kept alive by the blocked submitter for the whole time workers can see it.
unsafe impl Send for ErasedTask {}
unsafe impl Sync for ErasedTask {}

/// One submitted fan-out: a closure plus an atomic cursor over chunk indices.
struct ActiveJob {
    task: ErasedTask,
    n_chunks: usize,
    cursor: AtomicUsize,
    completed: Mutex<usize>,
    done: Condvar,
    /// The submitter's in-flight request trace, re-installed on every
    /// executor so worker-side spans attach to it.
    trace: Option<imcat_obs::trace::TraceHandle>,
}

struct PoolState {
    job: Option<Arc<ActiveJob>>,
    /// Incremented on every submit so sleeping workers can tell a fresh job
    /// from one they already drained (prevents busy-spinning on exhausted
    /// cursors).
    epoch: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    /// Per-executor busy nanoseconds; the last slot belongs to the submitter.
    busy_ns: Vec<AtomicU64>,
    tasks_run: AtomicU64,
}

impl Shared {
    /// Pulls chunk indices off the job cursor until it is exhausted, then
    /// reports how many this executor ran. Returns only when the cursor is
    /// drained (other executors may still be running their last chunk).
    fn run_chunks(&self, job: &ActiveJob, slot: usize) {
        let _trace = job.trace.as_ref().map(|h| imcat_obs::trace::enter(h.clone()));
        let t0 = Instant::now();
        let mut ran = 0usize;
        loop {
            let i = job.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= job.n_chunks {
                break;
            }
            // SAFETY: see `ErasedTask` — the submitter outlives the job.
            let f = unsafe { &*job.task.0 };
            f(i);
            ran += 1;
        }
        if ran > 0 {
            self.busy_ns[slot].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.tasks_run.fetch_add(ran as u64, Ordering::Relaxed);
            let mut done = self.lock_completed(job);
            *done += ran;
            if *done == job.n_chunks {
                job.done.notify_all();
            }
        }
    }

    fn lock_completed<'a>(&self, job: &'a ActiveJob) -> std::sync::MutexGuard<'a, usize> {
        job.completed.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn worker_loop(shared: Arc<Shared>, slot: usize) {
    IN_POOL.with(|f| f.set(true));
    // Register this worker's obs shard up front so the first chunk's metric
    // records skip the registration lock.
    imcat_obs::register_thread();
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    if let Some(j) = &st.job {
                        last_epoch = st.epoch;
                        break j.clone();
                    }
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.run_chunks(&job, slot);
    }
}

/// A fixed-size thread pool executing caller-partitioned fan-outs.
///
/// Workers are spawned once at construction; each dispatch reuses them via a
/// shared job slot (one `Mutex` + `Condvar`, no channels, no spinning). The
/// submitting thread always participates in chunk execution, so a pool of
/// size `n` uses exactly `n` threads and `Pool::new(1)` spawns none at all —
/// size 1 *is* serial execution, not an emulation of it.
pub struct Pool {
    threads: usize,
    shared: Option<Arc<Shared>>,
    /// Serializes dispatches; contended submitters fall back to inline serial
    /// execution (identical bits), so this never deadlocks or queues.
    submit: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool that executes fan-outs on `threads` threads
    /// (the calling thread plus `threads - 1` workers). `0` is treated as 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        if threads == 1 {
            return Self { threads, shared: None, submit: Mutex::new(()), workers: Vec::new() };
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState { job: None, epoch: 0, shutdown: false }),
            work_cv: Condvar::new(),
            busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            tasks_run: AtomicU64::new(0),
        });
        let workers = (0..threads - 1)
            .map(|slot| {
                let sh = shared.clone();
                std::thread::Builder::new()
                    .name(format!("imcat-par-{slot}"))
                    .spawn(move || worker_loop(sh, slot))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { threads, shared: Some(shared), submit: Mutex::new(()), workers }
    }

    /// Number of threads this pool executes on (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `f(chunk_index)` once for every index in `0..n_chunks`,
    /// blocking until all complete. The backbone of every other entry point.
    ///
    /// Falls back to an in-order serial loop when the pool is serial, when
    /// called from a pool worker (nested dispatch), when there is at most one
    /// chunk, or when another dispatch is already in flight.
    pub fn run(&self, n_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_chunks == 0 {
            return;
        }
        let serial = || {
            for i in 0..n_chunks {
                f(i);
            }
        };
        let Some(shared) = &self.shared else {
            return serial();
        };
        if n_chunks == 1 || IN_POOL.with(|c| c.get()) {
            return serial();
        }
        let Ok(_guard) = self.submit.try_lock() else {
            return serial();
        };
        let sp = imcat_obs::span("pool.dispatch");
        if sp.active() {
            imcat_obs::counter_add("pool.tasks", n_chunks as u64);
            imcat_obs::gauge_set("pool.queue_depth", n_chunks as f64);
        }
        // SAFETY: lifetime erasure only; this thread blocks on `done` below
        // until every chunk has run, so `f` outlives all uses.
        let task = ErasedTask(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        });
        let job = Arc::new(ActiveJob {
            task,
            n_chunks,
            cursor: AtomicUsize::new(0),
            completed: Mutex::new(0),
            done: Condvar::new(),
            trace: imcat_obs::trace::current(),
        });
        {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.epoch = st.epoch.wrapping_add(1);
            st.job = Some(job.clone());
        }
        shared.work_cv.notify_all();
        // The caller is an executor too, on the last busy-time slot.
        shared.run_chunks(&job, self.threads - 1);
        let mut done = shared.lock_completed(&job);
        while *done < job.n_chunks {
            done = job.done.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        drop(done);
        shared.state.lock().unwrap_or_else(|e| e.into_inner()).job = None;
    }

    /// Calls `f(i)` exactly once for every `i` in `range`, potentially in
    /// parallel, blocking until all calls return. Indices are grouped into
    /// `grain`-sized chunks; within a chunk they run in ascending order on
    /// one thread.
    pub fn parallel_for(&self, range: Range<usize>, grain: usize, f: impl Fn(usize) + Sync) {
        let n = range.end.saturating_sub(range.start);
        let base = range.start;
        self.parallel_chunks(n, grain, |_, r| {
            for i in r {
                f(base + i);
            }
        });
    }

    /// Splits `0..n` into fixed `chunk`-sized ranges (the last may be short)
    /// and calls `f(chunk_index, index_range)` once per range, blocking until
    /// all return. Chunk boundaries depend only on `n` and `chunk` — never on
    /// the thread count — so per-chunk results are reproducible.
    pub fn parallel_chunks(&self, n: usize, chunk: usize, f: impl Fn(usize, Range<usize>) + Sync) {
        if n == 0 {
            return;
        }
        let chunk = chunk.max(1);
        let n_chunks = n.div_ceil(chunk);
        self.run(n_chunks, &|ci| {
            let lo = ci * chunk;
            let hi = (lo + chunk).min(n);
            f(ci, lo..hi);
        });
    }

    /// Splits `data` into fixed `chunk`-sized sub-slices and calls
    /// `f(chunk_index, sub_slice)` once per sub-slice, potentially in
    /// parallel. The sub-slices are disjoint, so this is a safe mutable
    /// fan-out over one buffer.
    pub fn parallel_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let n = data.len();
        let ptr = SendPtr(data.as_mut_ptr());
        self.parallel_chunks(n, chunk, |ci, r| {
            // SAFETY: chunk ranges are disjoint and in-bounds; exactly one
            // executor touches each range (`run` calls every index once).
            let slice = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r.start), r.len()) };
            f(ci, slice);
        });
    }

    /// Like [`Pool::parallel_chunks`], but collects each chunk's return value
    /// into a vector ordered by chunk index — the deterministic way to reduce
    /// across a fan-out (merge the returned partials in order).
    pub fn map_chunks<R: Send>(
        &self,
        n: usize,
        chunk: usize,
        f: impl Fn(usize, Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        let chunk = chunk.max(1);
        let n_chunks = if n == 0 { 0 } else { n.div_ceil(chunk) };
        let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
        self.parallel_chunks_mut(&mut slots, 1, |ci, slot| {
            let lo = ci * chunk;
            let hi = (lo + chunk).min(n);
            slot[0] = Some(f(ci, lo..hi));
        });
        slots.into_iter().map(|s| s.expect("pool chunk did not run")).collect()
    }

    /// Runs a scope in which heterogeneous tasks can be spawned; all spawned
    /// tasks have started *and finished* by the time `scope` returns. Tasks
    /// are dispatched when the scope body returns, in spawn order (task `i`
    /// is partition `i` of the fan-out).
    pub fn scope<'scope, R>(&self, body: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let scope = Scope { tasks: Mutex::new(Vec::new()) };
        let out = body(&scope);
        let tasks = scope.tasks.into_inner().unwrap_or_else(|e| e.into_inner());
        if !tasks.is_empty() {
            let slots: Vec<Mutex<Option<Task<'scope>>>> =
                tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
            self.run(slots.len(), &|i| {
                let task = slots[i].lock().unwrap_or_else(|e| e.into_inner()).take();
                if let Some(t) = task {
                    t();
                }
            });
        }
        out
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.state.lock().unwrap_or_else(|e| e.into_inner()).shutdown = true;
            shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// Handle passed to the [`Pool::scope`] body for spawning borrowed tasks.
pub struct Scope<'scope> {
    tasks: Mutex<Vec<Task<'scope>>>,
}

impl<'scope> Scope<'scope> {
    /// Registers a task; it runs (possibly on another thread) before the
    /// enclosing [`Pool::scope`] call returns.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'scope) {
        self.tasks.lock().unwrap_or_else(|e| e.into_inner()).push(Box::new(f));
    }
}

/// Raw-pointer wrapper so disjoint sub-slices of one buffer can cross the
/// dispatch boundary.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor instead of field access: closures then capture the whole
    /// `Sync` wrapper rather than the bare (non-`Sync`) pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Global pool
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<RwLock<Arc<Pool>>> = OnceLock::new();
/// Cached thread count of the global pool so hot kernels can gate their
/// parallel path without taking the `RwLock` (0 = not yet initialized).
static THREADS_HINT: AtomicUsize = AtomicUsize::new(0);

fn global_lock() -> &'static RwLock<Arc<Pool>> {
    GLOBAL.get_or_init(|| {
        let n = default_threads();
        THREADS_HINT.store(n, Ordering::Relaxed);
        RwLock::new(Arc::new(Pool::new(n)))
    })
}

/// Thread count the global pool starts with: `IMCAT_THREADS` if set (minimum
/// 1), otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    match imcat_obs::knob_str("IMCAT_THREADS").and_then(|v| v.parse::<usize>().ok()) {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// The process-wide pool used by the tensor/eval/bench hot paths.
pub fn global() -> Arc<Pool> {
    global_lock().read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Replaces the global pool with one of `threads` threads. In-flight users of
/// the old pool keep their `Arc` and finish normally; determinism makes the
/// swap observable only as a speed change.
pub fn set_threads(threads: usize) {
    let threads = threads.max(1);
    let mut guard = global_lock().write().unwrap_or_else(|e| e.into_inner());
    if guard.threads() != threads {
        // The outgoing pool's workers are about to be joined; fold their
        // busy-time telemetry into this thread's registry before it is lost.
        flush_pool_obs(&guard);
        *guard = Arc::new(Pool::new(threads));
    }
    THREADS_HINT.store(threads, Ordering::Relaxed);
}

/// Thread count of the global pool.
pub fn current_threads() -> usize {
    let hint = THREADS_HINT.load(Ordering::Relaxed);
    if hint == 0 {
        global().threads()
    } else {
        hint
    }
}

/// Cheap gate for hot kernels: true when a parallel dispatch could actually
/// fan out (global pool is larger than 1 thread and we are not already on a
/// pool worker).
#[inline]
pub fn parallelism_available() -> bool {
    current_threads() > 1 && !IN_POOL.with(|c| c.get())
}

/// Folds the workers' atomic busy-time counters into the caller's `imcat-obs`
/// registry (`pool.worker.busy` histogram, seconds per worker, and the
/// `pool.tasks_run` counter) and resets them. Call once per report, from the
/// thread that owns the telemetry registry.
pub fn flush_obs() {
    flush_pool_obs(&global());
}

fn flush_pool_obs(pool: &Pool) {
    if !imcat_obs::enabled() {
        return;
    }
    if let Some(shared) = &pool.shared {
        for slot in &shared.busy_ns {
            let ns = slot.swap(0, Ordering::Relaxed);
            if ns > 0 {
                imcat_obs::observe("pool.worker.busy", ns as f64 * 1e-9);
            }
        }
        let run = shared.tasks_run.swap(0, Ordering::Relaxed);
        if run > 0 {
            imcat_obs::counter_add("pool.tasks_run", run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn serial_pool_runs_inline_in_order() {
        let pool = Pool::new(1);
        let order = Mutex::new(Vec::new());
        pool.parallel_for(0..10, 3, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let pool = Pool::new(4);
        let counts: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        pool.parallel_for(0..1000, 7, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_chunks_mut_covers_disjoint_slices() {
        let pool = Pool::new(3);
        let mut data = vec![0u32; 257];
        pool.parallel_chunks_mut(&mut data, 16, |ci, slice| {
            for (off, x) in slice.iter_mut().enumerate() {
                *x = (ci * 16 + off) as u32;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        let pool = Pool::new(4);
        let sums = pool.map_chunks(100, 9, |_, r| r.sum::<usize>());
        let expected: Vec<usize> =
            (0..100).collect::<Vec<_>>().chunks(9).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn scope_runs_all_spawned_tasks() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        pool.scope(|s| {
            for h in &hits {
                s.spawn(|| {
                    h.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_dispatch_degrades_to_serial() {
        let pool = Arc::new(Pool::new(4));
        let total = AtomicU32::new(0);
        let p2 = pool.clone();
        pool.parallel_for(0..4, 1, |_| {
            // Runs on pool threads; inner dispatch must not deadlock.
            p2.parallel_for(0..10, 2, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn zero_and_one_element_ranges() {
        let pool = Pool::new(2);
        let n = AtomicU32::new(0);
        pool.parallel_for(5..5, 4, |_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 0);
        pool.parallel_for(5..6, 4, |i| {
            assert_eq!(i, 5);
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 1);
        assert_eq!(pool.map_chunks(0, 8, |_, _| 1u8), Vec::<u8>::new());
    }

    #[test]
    fn pool_survives_many_dispatches() {
        let pool = Pool::new(4);
        for round in 0..200 {
            let acc = AtomicU32::new(0);
            pool.parallel_for(0..round % 17, 2, |_| {
                acc.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(acc.load(Ordering::Relaxed) as usize, round % 17);
        }
    }
}
