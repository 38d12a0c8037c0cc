//! Persistent worker pool for chunked parallel iteration.
//!
//! Every parallel kernel in `sgnn` is a partitioned loop over a flat
//! buffer. The seed implementation spawned fresh OS threads per call via
//! scoped threads; this version keeps a lazily-initialized pool of
//! persistent workers (parked on a condvar when idle) and dispatches jobs
//! to them with **zero allocation per call**: the job descriptor lives on
//! the submitting thread's stack and workers claim chunks through an
//! atomic counter, which doubles as work stealing for skewed workloads.
//!
//! Two partitioning regimes are offered:
//!
//! - *uniform*: `0..len` split into equal chunks ([`par_chunks`],
//!   [`par_rows_mut`]) — right for dense kernels where every row costs the
//!   same;
//! - *balanced*: chunk boundaries placed by binary search on a caller-
//!   provided prefix-sum of per-row weights ([`par_balanced_rows_mut`]) —
//!   right for CSR kernels on power-law graphs, where equal row counts put
//!   one hub's entire edge list on a single worker.
//!
//! Threading contract: [`set_threads`]`(1)` makes every kernel run inline
//! on the calling thread (the reproducible-benchmark baseline);
//! [`set_threads`]`(k)` caps a job's participants at `k`. Results are
//! bitwise identical at any thread count because partition boundaries
//! depend only on the input, never on execution order.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

// Observability (all gated on a single relaxed load when disabled; see
// DESIGN.md §5). Counters tell the load-balance story: how many jobs
// engaged the pool, how finely they were chunked, how many chunks pool
// workers stole from the submitter's share, and how long workers sat
// parked versus how long submitters spent inside dispatch.
static POOL_DISPATCHES: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.pool.dispatches");
static POOL_CHUNKS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.pool.chunks");
static POOL_STEALS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.pool.steals");
static POOL_IDLE_NS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.pool.idle_ns");
static POOL_SUBMIT_NS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.pool.submit_ns");

/// Returns the number of worker threads to use for parallel kernels.
///
/// The default is the `SGNN_THREADS` environment variable when set to a
/// positive integer, else the process hardware parallelism
/// (`available_parallelism`); the value is cached after the first read.
/// Override globally with [`set_threads`] (useful for benchmarks that want
/// single-threaded baselines).
pub fn num_threads() -> usize {
    let cached = THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = default_threads();
    THREADS.store(n, Ordering::Relaxed);
    n
}

/// The configured default: `SGNN_THREADS` (CI pins the determinism matrix
/// with it) or the hardware count.
fn default_threads() -> usize {
    match std::env::var("SGNN_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => hardware_threads(),
    }
}

/// Overrides the worker-thread count used by all parallel kernels.
///
/// Passing `0` resets to the hardware default on next use. Values above
/// the hardware count are honored for chunking but cannot exceed the pool
/// size (workers are created once, at first use).
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

static THREADS: AtomicUsize = AtomicUsize::new(0);

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// One in-flight job. Lives on the **submitting thread's stack**; workers
/// reach it through a lifetime-erased pointer published in the pool slot.
/// The submitter does not return until every attached worker has detached,
/// which is what makes the erasure sound.
struct Job {
    /// Chunk executor (borrowed from the submitter's frame).
    run: *const (dyn Fn(usize) + Sync),
    /// Next chunk index to claim (the work-stealing counter).
    next: AtomicUsize,
    /// Chunks fully executed.
    done: AtomicUsize,
    /// Total chunks.
    num_chunks: usize,
    /// Worker-participation permits left (`participants - 1`; the
    /// submitter always participates).
    permits: AtomicUsize,
    /// First chunk panic's payload; re-raised by the submitter so callers
    /// see the original message, not a generic pool error.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
}

unsafe impl Send for Job {}
unsafe impl Sync for Job {}

/// The publication slot workers poll: bumping `seq` under the mutex and
/// notifying is the entire dispatch protocol.
struct Slot {
    seq: u64,
    job: Option<*const Job>,
    /// Workers currently holding a reference to `job`.
    attached: usize,
}

unsafe impl Send for Slot {}

struct Pool {
    state: Mutex<Slot>,
    work_ready: Condvar,
    work_done: Condvar,
    /// Serializes submitters so one job owns the slot at a time.
    submit: Mutex<()>,
    workers: usize,
}

thread_local! {
    /// True while this thread is a pool worker or is inside a dispatched
    /// job; nested kernels then run inline instead of re-entering the pool.
    static IN_POOL_CONTEXT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    static SPAWNED: std::sync::Once = std::sync::Once::new();
    let p = POOL.get_or_init(|| Pool {
        state: Mutex::new(Slot { seq: 0, job: None, attached: 0 }),
        work_ready: Condvar::new(),
        work_done: Condvar::new(),
        submit: Mutex::new(()),
        workers: hardware_threads().saturating_sub(1),
    });
    SPAWNED.call_once(|| {
        for i in 0..p.workers {
            let _ = std::thread::Builder::new()
                .name(format!("sgnn-par-{i}"))
                .spawn(move || worker_loop(p, i));
        }
    });
    p
}

fn worker_loop(pool: &'static Pool, worker: usize) {
    IN_POOL_CONTEXT.with(|f| f.set(true));
    let mut seen = 0u64;
    loop {
        // Time parked on the condvar counts as pool idle capacity.
        let idle_from = if sgnn_obs::enabled() { Some(Instant::now()) } else { None };
        // Wait for a job generation we haven't inspected, then try to buy
        // a participation permit while still holding the slot lock.
        let job_ptr = {
            let mut s = pool.state.lock();
            loop {
                if s.seq != seen {
                    seen = s.seq;
                    if let Some(ptr) = s.job {
                        let job = unsafe { &*ptr };
                        let got_permit = job
                            .permits
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| {
                                p.checked_sub(1)
                            })
                            .is_ok();
                        if got_permit {
                            s.attached += 1;
                            break ptr;
                        }
                    }
                }
                pool.work_ready.wait(&mut s);
            }
        };
        if let Some(t0) = idle_from {
            POOL_IDLE_NS.add(t0.elapsed().as_nanos() as u64);
        }
        let job = unsafe { &*job_ptr };
        let executed = execute_chunks(job);
        if executed > 0 && sgnn_obs::enabled() {
            // Every chunk a pool worker runs was "stolen" from the
            // submitting thread's sequential share.
            POOL_STEALS.add(executed);
            sgnn_obs::record_worker_chunks(worker, executed);
        }
        let mut s = pool.state.lock();
        s.attached -= 1;
        pool.work_done.notify_all();
    }
}

/// Claims and runs chunks until the counter is exhausted, returning how
/// many this thread executed. Chunk panics are captured (the first
/// payload is kept) so the job always drains; the submitter re-raises.
fn execute_chunks(job: &Job) -> u64 {
    let run = unsafe { &*job.run };
    let mut executed = 0u64;
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.num_chunks {
            break;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(i))) {
            let mut slot = job.panic_payload.lock();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        job.done.fetch_add(1, Ordering::Release);
        executed += 1;
    }
    executed
}

/// Dispatches `num_chunks` invocations of `run` across the pool with up to
/// `participants` threads (this one included). Blocks until every chunk
/// has executed and all workers have let go of the job.
fn run_job(num_chunks: usize, participants: usize, run: &(dyn Fn(usize) + Sync)) {
    debug_assert!(num_chunks > 0 && participants > 1);
    let submit_from = if sgnn_obs::enabled() {
        POOL_DISPATCHES.incr();
        POOL_CHUNKS.add(num_chunks as u64);
        // Register the worker-side counters too (adding zero), so every
        // report that shows dispatches also shows the steal/idle story —
        // including a truthful zero on hosts where the pool has no
        // workers and the submitter runs every chunk itself.
        POOL_STEALS.add(0);
        POOL_IDLE_NS.add(0);
        Some(Instant::now())
    } else {
        None
    };
    let pool = pool();
    let _submit = pool.submit.lock();
    let job = Job {
        run: unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                run as *const _,
            )
        },
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        num_chunks,
        permits: AtomicUsize::new(participants.saturating_sub(1).min(pool.workers)),
        panic_payload: Mutex::new(None),
    };
    {
        let mut s = pool.state.lock();
        s.seq += 1;
        s.job = Some(&job as *const Job);
    }
    pool.work_ready.notify_all();

    // The submitter is participant zero; nested kernels inside `run` must
    // not re-enter the pool.
    let was = IN_POOL_CONTEXT.with(|f| f.replace(true));
    execute_chunks(&job);
    IN_POOL_CONTEXT.with(|f| f.set(was));

    {
        let mut s = pool.state.lock();
        // Retract the job so late-waking workers cannot attach; then wait
        // for stragglers still executing claimed chunks.
        s.job = None;
        while s.attached > 0 || job.done.load(Ordering::Acquire) < job.num_chunks {
            pool.work_done.wait(&mut s);
        }
    }
    if let Some(t0) = submit_from {
        POOL_SUBMIT_NS.add(t0.elapsed().as_nanos() as u64);
    }
    let payload = job.panic_payload.lock().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Chunks-per-participant oversubscription: enough granularity for the
/// atomic counter to rebalance when chunk costs are skewed, small enough
/// that per-chunk overhead stays invisible.
const OVERSUB: usize = 4;

/// Effective participant count for a job with `max_useful` parallel units.
fn participants_for(max_useful: usize) -> usize {
    if IN_POOL_CONTEXT.with(|f| f.get()) {
        return 1;
    }
    num_threads().min(max_useful).max(1)
}

// ---------------------------------------------------------------------------
// Uniform partitioning
// ---------------------------------------------------------------------------

/// Runs `body(start, end)` over disjoint chunks of `0..len` on the pool.
///
/// The closure receives half-open ranges; chunk boundaries depend only on
/// `len`, so results are identical at any thread count. Falls back to a
/// direct call when `len` is small or one thread is configured, so callers
/// never pay dispatch cost on tiny inputs.
pub fn par_chunks<F>(len: usize, min_chunk: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    let threads = participants_for(len / min_chunk.max(1));
    if threads <= 1 || len == 0 {
        body(0, len);
        return;
    }
    let chunks = (threads * OVERSUB).min(len / min_chunk.max(1)).max(1);
    let chunk = len.div_ceil(chunks);
    run_job(chunks, threads, &|i| {
        let start = i * chunk;
        let end = ((i + 1) * chunk).min(len);
        if start < end {
            body(start, end);
        }
    });
}

/// Splits `data` into disjoint mutable row chunks and runs
/// `body(first_row, rows_slice)` in parallel.
///
/// This is the write-side companion of [`par_chunks`]: output buffers are
/// partitioned by row so each worker owns its slice exclusively.
pub fn par_rows_mut<T, F>(data: &mut [T], row_width: usize, min_rows: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_width > 0, "row_width must be positive");
    assert_eq!(data.len() % row_width, 0, "buffer not a whole number of rows");
    let rows = data.len() / row_width;
    let threads = participants_for(rows / min_rows.max(1));
    if threads <= 1 || rows == 0 {
        body(0, data);
        return;
    }
    let chunks = (threads * OVERSUB).min(rows / min_rows.max(1)).max(1);
    let chunk = rows.div_ceil(chunks);
    let base = SendPtr(data.as_mut_ptr());
    run_job(chunks, threads, &|i| {
        let start = i * chunk;
        let end = ((i + 1) * chunk).min(rows);
        if start < end {
            // Disjoint by construction: chunk i owns rows [start, end).
            let slice = unsafe {
                std::slice::from_raw_parts_mut(
                    base.get().add(start * row_width),
                    (end - start) * row_width,
                )
            };
            body(start, slice);
        }
    });
}

/// Maps `f` over `0..num` task indices on the pool and collects the
/// results **in index order**.
///
/// This is the collect-side companion of [`par_chunks`], built for
/// producers whose per-task output is an owned value (the data-parallel
/// samplers: one sampled sub-frontier per target chunk). Each index is
/// claimed exactly once through the pool's work-stealing counter and
/// writes its own result slot, so the returned vector is independent of
/// execution order and thread count; with one thread configured (or a
/// single task) it degenerates to a plain sequential map with no
/// dispatch cost.
pub fn par_map_chunks<T, F>(num: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = participants_for(num);
    if threads <= 1 || num <= 1 {
        return (0..num).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::with_capacity(num);
    slots.resize_with(num, || None);
    let base = SendPtr(slots.as_mut_ptr());
    run_job(num, threads, &|i| {
        // Sound: the counter hands out each index once, so slot writes
        // are disjoint, and run_job joins before `slots` is touched again.
        unsafe { *base.get().add(i) = Some(f(i)) };
    });
    slots.into_iter().map(|s| s.expect("pool executed every task")).collect()
}

// ---------------------------------------------------------------------------
// Balanced (prefix-sum) partitioning
// ---------------------------------------------------------------------------

/// Row index where balanced chunk `j` of `chunks` begins, given the
/// prefix-sum `prefix` of per-row weights (`prefix.len() = rows + 1`,
/// `prefix[0] = 0`; a CSR `indptr` is exactly such an array).
///
/// Boundaries are non-decreasing in `j`, `boundary(.., 0) = 0`, and
/// `boundary(.., chunks) = rows`, so chunks tile the row range exactly;
/// individual chunks may be empty when one heavy row spans several ideal
/// splits.
pub fn balanced_boundary(prefix: &[usize], chunks: usize, j: usize) -> usize {
    let rows = prefix.len() - 1;
    if j == 0 {
        return 0;
    }
    if j >= chunks {
        return rows;
    }
    let total = prefix[rows];
    if total == 0 {
        // No weight anywhere: fall back to uniform row split.
        return (rows * j) / chunks;
    }
    let target = ((total as u128 * j as u128) / chunks as u128) as usize;
    prefix.partition_point(|&p| p < target).min(rows)
}

/// Splits `data` into row slices whose **weight** (per the prefix-sum
/// `prefix`) is as equal as possible — the partitioning for CSR kernels on
/// skewed degree distributions — and runs `body(first_row, rows)` on each.
/// `min_weight` is the minimum total weight that justifies a second
/// thread.
///
/// `prefix` must describe exactly `data.len() / row_width` rows.
pub fn par_balanced_rows_mut<T, F>(
    data: &mut [T],
    row_width: usize,
    prefix: &[usize],
    min_weight: usize,
    body: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_width > 0, "row_width must be positive");
    assert_eq!(data.len() % row_width, 0, "buffer not a whole number of rows");
    let rows = data.len() / row_width;
    assert_eq!(prefix.len(), rows + 1, "prefix must cover every row");
    let total = if rows == 0 { 0 } else { prefix[rows] };
    let threads = participants_for(total / min_weight.max(1));
    if threads <= 1 || rows == 0 {
        body(0, data);
        return;
    }
    let chunks = (threads * OVERSUB).min(rows).max(1);
    let base = SendPtr(data.as_mut_ptr());
    run_job(chunks, threads, &|i| {
        let start = balanced_boundary(prefix, chunks, i);
        let end = balanced_boundary(prefix, chunks, i + 1);
        if start < end {
            let slice = unsafe {
                std::slice::from_raw_parts_mut(
                    base.get().add(start * row_width),
                    (end - start) * row_width,
                )
            };
            body(start, slice);
        }
    });
}

/// Raw-pointer wrapper so chunk closures can carve disjoint `&mut` slices
/// out of one buffer. Soundness argument: chunk index ↦ row range is
/// injective and the dispatch joins before the buffer borrow ends.
struct SendPtr<T>(*mut T);

// Manual impls: derive would bound `T: Copy`, but the wrapper is a pointer.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// wrapper — edition-2021 disjoint capture would otherwise grab the
    /// bare `*mut T`, which is not `Sync`.
    fn get(self) -> *mut T {
        self.0
    }
}

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that toggle or depend on the global thread count must not
    /// interleave (the test harness runs tests concurrently).
    fn threads_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn par_chunks_covers_every_index_once() {
        use std::sync::Mutex;
        let hits = Mutex::new(vec![0u32; 1000]);
        par_chunks(1000, 1, |s, e| {
            let mut h = hits.lock().unwrap();
            for i in s..e {
                h[i] += 1;
            }
        });
        assert!(hits.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn par_chunks_empty_is_noop() {
        par_chunks(0, 1, |s, e| assert_eq!(s, e));
    }

    #[test]
    fn par_rows_mut_partitions_by_row() {
        let mut buf = vec![0f32; 7 * 3];
        par_rows_mut(&mut buf, 3, 1, |first_row, rows| {
            for (i, r) in rows.chunks_mut(3).enumerate() {
                let row = first_row + i;
                for v in r.iter_mut() {
                    *v = row as f32;
                }
            }
        });
        for (row, chunk) in buf.chunks(3).enumerate() {
            assert!(chunk.iter().all(|&v| v == row as f32));
        }
    }

    #[test]
    fn set_threads_round_trip() {
        let _g = threads_guard();
        set_threads(2);
        assert_eq!(num_threads(), 2);
        set_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn balanced_boundaries_tile_rows_exactly() {
        // Skewed prefix: one hub row with weight 1000 among unit rows.
        let mut prefix = vec![0usize];
        for r in 0..50 {
            let w = if r == 7 { 1000 } else { 1 };
            prefix.push(prefix.last().unwrap() + w);
        }
        for chunks in 1..12 {
            let mut covered = [0u32; 50];
            for j in 0..chunks {
                let s = balanced_boundary(&prefix, chunks, j);
                let e = balanced_boundary(&prefix, chunks, j + 1);
                assert!(s <= e);
                for c in covered.iter_mut().take(e).skip(s) {
                    *c += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "chunks={chunks}");
        }
    }

    #[test]
    fn balanced_zero_weight_falls_back_to_uniform() {
        let prefix = vec![0usize; 11]; // 10 rows, no weight
        let mut covered = [0u32; 10];
        for j in 0..4 {
            let s = balanced_boundary(&prefix, 4, j);
            let e = balanced_boundary(&prefix, 4, j + 1);
            for c in covered.iter_mut().take(e).skip(s) {
                *c += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn par_balanced_rows_mut_covers_with_hub_rows() {
        // 64 rows, row 3 carries half the total weight.
        let mut prefix = vec![0usize];
        for r in 0..64 {
            let w = if r == 3 { 640 } else { 10 };
            prefix.push(prefix.last().unwrap() + w);
        }
        let mut buf = vec![0u32; 64 * 2];
        par_balanced_rows_mut(&mut buf, 2, &prefix, 1, |first_row, rows| {
            for (i, r) in rows.chunks_mut(2).enumerate() {
                r[0] += 1;
                r[1] = (first_row + i) as u32;
            }
        });
        for (row, chunk) in buf.chunks(2).enumerate() {
            assert_eq!(chunk[0], 1, "row {row} visited once");
            assert_eq!(chunk[1], row as u32);
        }
    }

    #[test]
    fn par_map_chunks_returns_results_in_index_order() {
        let out = par_map_chunks(257, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        // Degenerate sizes.
        assert_eq!(par_map_chunks(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_chunks(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_map_chunks_is_thread_count_invariant() {
        let _g = threads_guard();
        set_threads(1);
        let single: Vec<u64> = par_map_chunks(100, |i| (i as u64).wrapping_mul(0x9E37));
        set_threads(0);
        let pooled: Vec<u64> = par_map_chunks(100, |i| (i as u64).wrapping_mul(0x9E37));
        assert_eq!(single, pooled);
    }

    #[test]
    fn nested_parallel_calls_run_inline() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let outer = AtomicUsize::new(0);
        par_chunks(64, 1, |s, e| {
            // Nested kernel: must complete inline without deadlocking.
            let inner = AtomicUsize::new(0);
            par_chunks(16, 1, |is, ie| {
                inner.fetch_add(ie - is, Ordering::Relaxed);
            });
            assert_eq!(inner.load(Ordering::Relaxed), 16);
            outer.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(outer.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        let total = std::sync::atomic::AtomicUsize::new(0);
                        par_chunks(512, 1, |a, b| {
                            total.fetch_add(b - a, Ordering::Relaxed);
                        });
                        assert_eq!(total.load(Ordering::Relaxed), 512);
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "chunk zero exploded")]
    fn worker_panic_propagates_to_submitter_with_payload() {
        let _g = threads_guard();
        set_threads(0);
        if num_threads() < 2 {
            // Single-core host: the pool never engages, so the dispatch
            // path under test does not exist here.
            panic!("chunk zero exploded");
        }
        // The submitter must re-raise the *original* payload — recovery
        // layers above (pipeline restart, fault tests) match on it.
        par_chunks(1024, 1, |s, _| {
            if s == 0 {
                panic!("chunk zero exploded");
            }
        });
    }

    #[test]
    fn single_thread_override_runs_inline() {
        let _g = threads_guard();
        set_threads(1);
        let calls = AtomicUsize::new(0);
        // With one thread the body gets the whole range in one call.
        par_chunks(100, 1, |s, e| {
            assert_eq!((s, e), (0, 100));
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        set_threads(0);
    }
}
