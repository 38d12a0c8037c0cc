//! Admission batching: coalesce concurrent queries into one head matmul.
//!
//! Producers push `(node, enqueue-time, optional deadline)` into an
//! [`AdmissionQueue`]; [`run_server`] drains it in arrival order. When
//! a query opens a batch, the server admits every query already
//! waiting, and then holds the window open (measured from admission of
//! the *first* query in the batch) only while a co-arrival is likely:
//! it waits for the next arrival while the expected gap to it — an
//! EWMA of the gaps between the `enqueued` stamps it has drained — fits
//! in the time left. It answers the batch with one `serve_batch` call
//! once the batch reaches `max_batch`, the window elapses, or the next
//! arrival is expected after the window closes. The rule is the pure
//! `window_step`. Deadline semantics (DESIGN.md §12): the window
//! bounds *added* queueing delay — a query never waits more than
//! `deadline` past the moment it could have been served solo, and a
//! full batch is released immediately.
//!
//! Timing affects only *when* work happens and how it is grouped, never
//! the answer bits: `serve_batch` rows are bitwise-equal to
//! one-at-a-time answers (see `crates/serve/src/engine.rs`), so the
//! open-loop harness can batch aggressively without a correctness
//! trade. Under an [`OverloadConfig`] the server additionally derives a
//! [`Pressure`] level from the queue depth observed when each batch
//! opens, threads per-request deadline budgets through the engine, and
//! feeds observed deadline outcomes back to the circuit breaker —
//! timing then chooses *which* rung of the deterministic degradation
//! ladder serves each request, and the engine-side decision remains a
//! pure function of that recorded `(pressure, expired)` context
//! (DESIGN.md §13).
//!
//! ## Queue shutdown contract
//!
//! Deterministic, documented outcomes for every shutdown edge (pinned
//! by `tests/serving_overload.rs`):
//!
//! - **Close-while-draining** — every query admitted before [`close`]
//!   is served; `run_server` returns only once the queue is closed
//!   *and* empty. No query is lost.
//! - **Enqueue-after-close** — rejected: [`push`] returns `false` and
//!   the query is never admitted (it does not count as a shed).
//! - **Concurrent producers racing `close`** — each push resolves
//!   under the queue lock: a push that acquires the lock before the
//!   close is admitted and served, one after is rejected. Either way
//!   producers and server cannot deadlock, because `close` wakes every
//!   waiter on the same condvar that arrivals notify.
//! - **Bounded queue full** — reject-newest: [`push`] returns `false`
//!   and the reject is counted (`serve.shed.count`,
//!   [`AdmissionQueue::shed_count`]).
//! - **Poisoned lock** — a producer that panics while holding the
//!   queue mutex poisons it; the queue recovers the guard
//!   (`PoisonError::into_inner`) instead of propagating the panic, so
//!   one crashed producer cannot take down the server. Every critical
//!   section leaves the queue structurally consistent, which is what
//!   makes the recovery sound.
//!
//! [`close`]: AdmissionQueue::close
//! [`push`]: AdmissionQueue::push

use crate::engine::{PressuredRequest, ServeEngine};
use crate::plan::{record_shed, Strategy};
use crate::pressure::{OverloadConfig, Pressure};
use sgnn_graph::NodeId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static BATCHES: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.batch.count");
static BATCHED_QUERIES: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.batch.queries");
/// Batch windows closed before `deadline` with room left in the batch:
/// the next arrival was expected after the window, or the queue closed.
static EARLY_CLOSE: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.batch.early_close");
/// Per request: enqueue → batch admission (queueing plus batch window).
static QUEUE_WAIT_NS: sgnn_obs::Histogram = sgnn_obs::Histogram::new("serve.queue.wait_ns");
/// Per request: batch admission → answer ready (the engine's batch call).
static SERVICE_NS: sgnn_obs::Histogram = sgnn_obs::Histogram::new("serve.service.ns");

/// Admission window configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// The longest the server holds an open batch for co-arriving
    /// queries. It closes sooner when the next arrival is expected after
    /// the window ends.
    pub deadline: Duration,
    /// Hard cap on coalesced batch size.
    pub max_batch: usize,
    /// `Some` enables the overload-robustness layer: queue-depth
    /// pressure → degradation ladder, per-request deadline budgets, and
    /// breaker feedback. `None` (default) is the PR 9 serving path,
    /// bit-for-bit.
    pub overload: Option<OverloadConfig>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { deadline: Duration::from_micros(200), max_batch: 64, overload: None }
    }
}

/// One answered query, as reported by [`run_server`].
#[derive(Debug, Clone)]
pub struct ServedQuery {
    /// The queried node.
    pub node: NodeId,
    /// End-to-end latency (enqueue → answer ready), nanoseconds.
    pub latency_ns: u64,
    /// Size of the batch this query was coalesced into.
    pub batch_size: usize,
    /// The tier that answered it ([`Strategy::Shed`] = zero-logit shed
    /// response).
    pub strategy: Strategy,
    /// True when the answer arrived after the request's deadline budget.
    pub deadline_missed: bool,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    node: NodeId,
    enqueued: Instant,
    deadline: Option<Duration>,
}

#[derive(Debug, Default)]
struct QueueInner {
    q: VecDeque<Pending>,
    closed: bool,
}

/// MPSC arrival queue with shutdown and optional bounded admission,
/// shared between load generators and the serving loop.
#[derive(Debug)]
pub struct AdmissionQueue {
    inner: Mutex<QueueInner>,
    arrived: Condvar,
    capacity: usize,
    shed: AtomicU64,
}

impl Default for AdmissionQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl AdmissionQueue {
    /// An empty open queue with unbounded admission.
    pub fn new() -> Self {
        Self::bounded(usize::MAX)
    }

    /// An empty open queue that rejects the newest arrival once
    /// `capacity` queries are waiting (admission-control load shedding,
    /// counted in `serve.shed.count`).
    pub fn bounded(capacity: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(QueueInner::default()),
            arrived: Condvar::new(),
            capacity,
            shed: AtomicU64::new(0),
        }
    }

    /// Locks the queue, recovering from a poisoned mutex: a producer
    /// that panicked mid-push leaves the queue structurally consistent
    /// (every critical section is a single `VecDeque` operation), so
    /// serving continues instead of propagating the panic.
    fn lock_inner(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues one query, stamping its arrival time. Returns `false` —
    /// and does not admit the query — when the queue is closed or full
    /// (the latter counts toward `serve.shed.count`).
    pub fn push(&self, node: NodeId) -> bool {
        self.push_with_deadline(node, None)
    }

    /// [`push`](Self::push) with a per-request deadline budget that
    /// overrides the server's default for this query.
    pub fn push_with_deadline(&self, node: NodeId, deadline: Option<Duration>) -> bool {
        let mut inner = self.lock_inner();
        if inner.closed {
            return false;
        }
        if inner.q.len() >= self.capacity {
            drop(inner);
            self.shed.fetch_add(1, Ordering::Relaxed);
            record_shed();
            return false;
        }
        inner.q.push_back(Pending { node, enqueued: Instant::now(), deadline });
        drop(inner);
        self.arrived.notify_one();
        true
    }

    /// Marks the end of the arrival stream; `run_server` drains what is
    /// left and returns. Wakes every waiting server thread.
    pub fn close(&self) {
        self.lock_inner().closed = true;
        self.arrived.notify_all();
    }

    /// Queries currently waiting.
    pub fn depth(&self) -> usize {
        self.lock_inner().q.len()
    }

    /// Queries currently waiting, and whether the queue is closed.
    fn state(&self) -> (usize, bool) {
        let inner = self.lock_inner();
        (inner.q.len(), inner.closed)
    }

    /// Arrivals rejected because the queue was at capacity.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Pops up to `max` queries without blocking.
    fn drain(&self, max: usize, out: &mut Vec<Pending>) {
        let mut inner = self.lock_inner();
        while out.len() < max {
            match inner.q.pop_front() {
                Some(item) => out.push(item),
                None => break,
            }
        }
    }

    /// Blocks until a query arrives or the queue is closed and empty.
    /// Returns `false` on shutdown. Purely notification-driven: `push`
    /// notifies one waiter, `close` notifies all — no polling timeout.
    fn wait_nonempty(&self) -> bool {
        let mut inner = self.lock_inner();
        loop {
            if !inner.q.is_empty() {
                return true;
            }
            if inner.closed {
                return false;
            }
            inner = self.arrived.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until a query is waiting, the queue is closed, or `until`
    /// passes. Woken by the same notifications as
    /// [`wait_nonempty`](Self::wait_nonempty), so a co-arrival is
    /// admitted when it lands.
    fn wait_arrival(&self, until: Instant) {
        let mut inner = self.lock_inner();
        while inner.q.is_empty() && !inner.closed {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            inner =
                self.arrived.wait_timeout(inner, left).unwrap_or_else(PoisonError::into_inner).0;
        }
    }
}

/// The inter-arrival EWMA gives the newest gap weight `1 / GAP_WEIGHT_DIV`.
const GAP_WEIGHT_DIV: u64 = 8;

/// EWMA of the gaps between consecutive `enqueued` stamps of the
/// queries the server drains: the expected wait for the next arrival.
#[derive(Debug, Default)]
struct ArrivalGap {
    last: Option<Instant>,
    ewma_ns: Option<u64>,
}

impl ArrivalGap {
    fn observe(&mut self, drained: &[Pending]) {
        for p in drained {
            if let Some(last) = self.last {
                let gap = p.enqueued.saturating_duration_since(last).as_nanos() as u64;
                self.ewma_ns = Some(match self.ewma_ns {
                    Some(e) => e - e / GAP_WEIGHT_DIV + gap / GAP_WEIGHT_DIV,
                    None => gap,
                });
            }
            self.last = Some(p.enqueued);
        }
    }

    fn estimate(&self) -> Option<Duration> {
        self.ewma_ns.map(Duration::from_nanos)
    }
}

/// What an open batch does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WindowStep {
    /// Answer the batch now.
    Dispatch,
    /// Admit the queries already waiting.
    Drain,
    /// Wait for the next arrival at most this long: past it, the time
    /// left in the window is shorter than the expected gap.
    Wait(Duration),
}

/// The batch-window rule, a pure function of the open batch's size,
/// the queue depth, the expected gap to the next arrival (`None`: no
/// estimate yet, or the queue is closed) and the time left in the
/// window. A full batch or an elapsed window dispatches; waiting
/// queries are drained; an empty queue is waited on only while the
/// next arrival is expected inside the window.
fn window_step(
    pending: usize,
    max_batch: usize,
    depth: usize,
    gap: Option<Duration>,
    left: Duration,
) -> WindowStep {
    if pending >= max_batch || left.is_zero() {
        return WindowStep::Dispatch;
    }
    if depth > 0 {
        return WindowStep::Drain;
    }
    match gap {
        Some(g) if g <= left => WindowStep::Wait(left - g),
        _ => WindowStep::Dispatch,
    }
}

/// Serves the queue to exhaustion (queue closed *and* drained),
/// coalescing under `cfg`, and reports per-query latency in completion
/// order. With `cfg.overload` set, each batch is served at the pressure
/// level derived from the queue depth observed when the batch opened,
/// expired deadline budgets drop requests to the cheapest viable tier,
/// and per-request outcomes feed the engine's breaker.
pub fn run_server(
    engine: &mut ServeEngine,
    queue: &AdmissionQueue,
    cfg: &BatchConfig,
) -> Vec<ServedQuery> {
    assert!(cfg.max_batch >= 1, "max_batch must admit at least one query");
    let mut served = Vec::new();
    let mut pending: Vec<Pending> = Vec::with_capacity(cfg.max_batch);
    let mut arrivals = ArrivalGap::default();
    while queue.wait_nonempty() {
        pending.clear();
        // Depth at batch admission — the observable the pressure ladder
        // is a function of. Sampled before the drain so it includes
        // this batch's own queries.
        let depth_at_open = queue.depth();
        queue.drain(cfg.max_batch, &mut pending);
        if pending.is_empty() {
            continue;
        }
        arrivals.observe(&pending);
        // Hold the window open while a co-arrival is likely, measured
        // from admission of the batch opener.
        let window_end = Instant::now() + cfg.deadline;
        loop {
            let now = Instant::now();
            let left = window_end.saturating_duration_since(now);
            let (depth, closed) = queue.state();
            // A closed queue has no next arrival to wait for.
            let gap = if closed { None } else { arrivals.estimate() };
            match window_step(pending.len(), cfg.max_batch, depth, gap, left) {
                WindowStep::Dispatch => {
                    if pending.len() < cfg.max_batch && !left.is_zero() {
                        EARLY_CLOSE.incr();
                    }
                    break;
                }
                WindowStep::Drain => {
                    let from = pending.len();
                    queue.drain(cfg.max_batch, &mut pending);
                    arrivals.observe(&pending[from..]);
                }
                WindowStep::Wait(at_most) => queue.wait_arrival(now + at_most),
            }
        }
        let pressure =
            cfg.overload.as_ref().map_or(Pressure::Normal, |o| o.pressure.level(depth_at_open));
        let default_deadline = cfg.overload.as_ref().and_then(|o| o.request_deadline);
        let admit = Instant::now();
        let reqs: Vec<PressuredRequest> = pending
            .iter()
            .map(|p| {
                let budget = p.deadline.or(default_deadline);
                let expired = budget.is_some_and(|d| admit.duration_since(p.enqueued) > d);
                PressuredRequest { node: p.node, pressure, expired }
            })
            .collect();
        let (_, strategies) = engine.serve_batch_pressured(&reqs);
        let done = Instant::now();
        BATCHES.incr();
        BATCHED_QUERIES.add(pending.len() as u64);
        let service_ns = done.duration_since(admit).as_nanos() as u64;
        for (i, p) in pending.iter().enumerate() {
            let latency_ns = done.duration_since(p.enqueued).as_nanos() as u64;
            QUEUE_WAIT_NS.record(admit.duration_since(p.enqueued).as_nanos() as u64);
            SERVICE_NS.record(service_ns);
            let budget = p.deadline.or(default_deadline);
            let deadline_missed = strategies[i] != Strategy::Shed
                && budget.is_some_and(|d| done.duration_since(p.enqueued) > d);
            engine.note_outcome(strategies[i], deadline_missed);
            served.push(ServedQuery {
                node: p.node,
                latency_ns,
                batch_size: pending.len(),
                strategy: strategies[i],
                deadline_missed,
            });
        }
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::plan::PlannerConfig;
    use crate::store::PrecomputePolicy;
    use sgnn_graph::generate;
    use sgnn_linalg::DenseMatrix;
    use sgnn_nn::Mlp;

    fn engine() -> ServeEngine {
        let g = generate::barabasi_albert(80, 3, 5);
        let x = DenseMatrix::gaussian(80, 4, 1.0, 2);
        let head = Mlp::new(&[4, 6, 3], 0.0, 7);
        let cfg = ServeConfig {
            policy: PrecomputePolicy::Full { rmax: 1e-3 },
            planner: PlannerConfig::default(),
            ..Default::default()
        };
        ServeEngine::new(g, x, head, cfg)
    }

    #[test]
    fn server_answers_every_enqueued_query() {
        let mut e = engine();
        let q = AdmissionQueue::new();
        for u in 0..50u32 {
            assert!(q.push(u % 80));
        }
        q.close();
        let served = run_server(
            &mut e,
            &q,
            &BatchConfig { deadline: Duration::ZERO, max_batch: 8, overload: None },
        );
        assert_eq!(served.len(), 50);
        assert_eq!(e.stats().requests, 50);
        assert!(served.iter().all(|s| s.batch_size >= 1 && s.batch_size <= 8));
        assert!(served.iter().all(|s| s.strategy == Strategy::Cached && !s.deadline_missed));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn concurrent_producer_drains_cleanly() {
        let mut e = engine();
        let q = std::sync::Arc::new(AdmissionQueue::new());
        let producer = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                for u in 0..200u32 {
                    assert!(q.push(u % 80));
                    if u % 16 == 0 {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
                q.close();
            })
        };
        let served = run_server(
            &mut e,
            &q,
            &BatchConfig { deadline: Duration::from_micros(300), max_batch: 32, overload: None },
        );
        producer.join().unwrap();
        assert_eq!(served.len(), 200);
        assert!(served.iter().any(|s| s.batch_size > 1), "no query was ever coalesced");
    }

    const US: Duration = Duration::from_micros(1);

    #[test]
    fn sparse_arrivals_dispatch_at_once() {
        // Arrivals ~3 ms apart never land inside a 200 µs window.
        assert_eq!(window_step(1, 64, 0, Some(US * 3_000), US * 200), WindowStep::Dispatch);
        // Nor once part of the window has gone by and the gap no longer fits.
        assert_eq!(window_step(3, 64, 0, Some(US * 150), US * 149), WindowStep::Dispatch);
    }

    #[test]
    fn dense_arrivals_wait_until_the_gap_no_longer_fits() {
        assert_eq!(window_step(1, 64, 0, Some(US * 10), US * 200), WindowStep::Wait(US * 190));
        assert_eq!(window_step(5, 64, 0, Some(US * 50), US * 50), WindowStep::Wait(Duration::ZERO));
    }

    #[test]
    fn full_batch_or_elapsed_window_dispatches() {
        assert_eq!(window_step(64, 64, 9, Some(US), US * 200), WindowStep::Dispatch);
        assert_eq!(window_step(3, 64, 9, Some(US), Duration::ZERO), WindowStep::Dispatch);
    }

    #[test]
    fn no_estimate_yet_dispatches() {
        assert_eq!(window_step(1, 64, 0, None, US * 200), WindowStep::Dispatch);
    }

    #[test]
    fn nonempty_queue_keeps_draining() {
        // Whatever the estimate: waiting queries are admitted first.
        for gap in [None, Some(US), Some(US * 10_000)] {
            assert_eq!(window_step(1, 64, 1, gap, US * 200), WindowStep::Drain);
        }
    }

    #[test]
    fn gap_estimate_is_an_ewma_of_drained_stamps() {
        let t0 = Instant::now();
        let at = |us: u32| Pending { node: 0, enqueued: t0 + US * us, deadline: None };
        let mut a = ArrivalGap::default();
        a.observe(&[at(0)]);
        assert_eq!(a.estimate(), None, "one stamp has no gap");
        a.observe(&[at(800)]);
        assert_eq!(a.estimate(), Some(US * 800), "the first gap seeds the estimate");
        a.observe(&[at(808), at(816)]);
        // Each gap of 8 µs: 800 − 800/8 + 8/8 = 701 µs, then 701 − 701/8 + 1 = 614.375 µs.
        assert_eq!(a.estimate(), Some(Duration::from_nanos(614_375)));
    }

    #[test]
    fn bounded_queue_rejects_newest_when_full() {
        let q = AdmissionQueue::bounded(3);
        assert!(q.push(0));
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(!q.push(3), "fourth arrival must be rejected");
        assert!(!q.push(4));
        assert_eq!(q.shed_count(), 2);
        assert_eq!(q.depth(), 3, "rejected arrivals are never admitted");
    }

    #[test]
    fn enqueue_after_close_is_rejected_not_shed() {
        let q = AdmissionQueue::bounded(8);
        assert!(q.push(1));
        q.close();
        assert!(!q.push(2), "push after close must be rejected");
        assert_eq!(q.shed_count(), 0, "a post-close reject is not a capacity shed");
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn poisoned_lock_does_not_take_down_the_server() {
        let q = std::sync::Arc::new(AdmissionQueue::new());
        assert!(q.push(5));
        // A producer panics while holding the queue mutex.
        let poisoner = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.inner.lock().unwrap();
                panic!("producer crashed mid-push");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(q.inner.is_poisoned(), "the panic must have poisoned the lock");
        // The queue recovers: pushes, depth, and serving all still work.
        assert!(q.push(7));
        assert_eq!(q.depth(), 2);
        q.close();
        let mut e = engine();
        let served = run_server(
            &mut e,
            &q,
            &BatchConfig { deadline: Duration::ZERO, max_batch: 8, overload: None },
        );
        assert_eq!(served.len(), 2);
    }

    #[test]
    fn close_wakes_a_blocked_server_without_polling() {
        let q = std::sync::Arc::new(AdmissionQueue::new());
        let server = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.wait_nonempty())
        };
        // Give the server time to block on the condvar, then close; the
        // notification (not a timeout) must wake it promptly.
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        q.close();
        assert!(!server.join().unwrap(), "close on an empty queue reports shutdown");
        assert!(t0.elapsed() < Duration::from_millis(100));
    }
}
