//! `benchserve` — online-serving latency/throughput snapshot.
//!
//! ```text
//! cargo run --release -p sgnn-bench --bin benchserve             # writes bench_out/BENCH_serve.json
//! cargo run --release -p sgnn-bench --bin benchserve -- --quick  # CI-sized workload
//! cargo run --release -p sgnn-bench --bin benchserve -- --json   # + ObsReport line on stdout
//! ```
//!
//! Six sections, one JSON object:
//!
//! 1. **Replay** — a fixed Zipf-skewed request trace against a
//!    `Hot`-policy engine, served batched and (on a fresh engine)
//!    one-at-a-time. The answers must be bitwise identical and the
//!    cache/planner counters must replay exactly (both asserted here;
//!    proptested in `tests/serving_equivalence.rs`), so the emitted
//!    `cache_hits`/`plan_*`/`requests` counters are exact-gated by
//!    `benchdiff`. A third engine with a `Full` store checks the
//!    column-parallel precompute against the sequential reference
//!    bitwise.
//! 2. **Degraded replay** — a recorded overload trace (per request:
//!    node, pressure rung, expired flag, observed deadline outcome)
//!    walked twice; ladder decisions, shed/degrade counts, stale
//!    serves, and breaker trips must be identical, so those counters
//!    are exact-gated by `benchdiff` (DESIGN.md §13).
//! 3. **Open loop** — heavy-tail arrivals (Pareto inter-arrival times,
//!    Zipf node popularity) produced by a generator thread into the
//!    admission queue while the serving loop coalesces under a deadline
//!    window; reports p50/p99/p999 end-to-end latency and queries/sec.
//!    The offered rate is a fixed share (`OPEN_LOAD`) of the saturation
//!    throughput measured on the same workload in the same run, so a
//!    slower host is offered proportionally less load instead of a
//!    growing queue. Timing numbers get the wide 10× `benchdiff` band;
//!    the answer-bit contract is covered by the replay section, which
//!    timing cannot perturb.
//! 4. **Overload** — measures saturation throughput closed-loop, then
//!    drives the open loop well past it (~4× offered) twice: once with
//!    the overload layer off (unbounded queue, serve everything), once
//!    with it on (bounded admission + degradation ladder + deadline
//!    budgets). Asserts shedding-on sustains strictly higher goodput
//!    (answers within budget per second) at strictly lower p99.
//!    Timing-dependent shed/degrade totals, and the goodput with
//!    shedding off (legitimately 0 when every request misses its
//!    budget), are exported with a `_live` tag, which `benchdiff`
//!    deliberately leaves ungated.
//! 5. **Chaos** — the open loop under an armed serving fault plan
//!    (latency spike, store-row corruption ×2, stalled producer): every
//!    accepted query is still answered at its normal tier and both
//!    corrupted rows are CRC-caught and rebuilt (`store_repairs` is
//!    exact-gated — corruption indices are part of the plan).
//! 6. **Push sweep** — `fresh_row_into` through one reused
//!    `PushWorkspace` on BA(n, 8) at n = 20k and 200k (20k only under
//!    `--quick`), over a seeded sample of sources at the `FullProp`
//!    tolerance. Per-push µs rides the 10× time band; the mean edge
//!    touches and pushes per query are exact-gated, so the work a push
//!    does is pinned while its cost is free to fall with graph size.

use rand::RngExt;
use sgnn_fault::FaultPlan;
use sgnn_graph::{generate, CsrGraph, NodeId};
use sgnn_linalg::{DenseMatrix, QuantMode};
use sgnn_nn::Mlp;
use sgnn_prop::PushWorkspace;
use sgnn_serve::{
    fresh_row_into, run_server, smooth_matrix_seq, AdmissionQueue, BatchConfig, BreakerConfig,
    OverloadConfig, PlannerConfig, PrecomputePolicy, Pressure, PressureConfig, PressuredRequest,
    ServeConfig, ServeEngine, ServedQuery, Strategy,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Zipf(`s`) sampler over `n` ranks via inverse-CDF binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut impl RngExt) -> usize {
        let u: f64 = rng.random();
        let target = u * self.cdf[self.cdf.len() - 1];
        self.cdf.partition_point(|&c| c < target).min(self.cdf.len() - 1)
    }
}

/// A Zipf-popular request trace where rank 0 is the highest-degree node
/// (hot requests hit the hot store, like production skew does).
fn zipf_trace(g: &CsrGraph, len: usize, skew: f64, seed: u64) -> Vec<NodeId> {
    let n = g.num_nodes();
    let mut by_degree: Vec<NodeId> = (0..n as NodeId).collect();
    by_degree.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
    let zipf = Zipf::new(n, skew);
    let mut rng = sgnn_linalg::rng::seeded(seed);
    (0..len).map(|_| by_degree[zipf.sample(&mut rng)]).collect()
}

/// Sources per graph size in the push sweep.
const SWEEP_SOURCES: usize = 200;
/// Timed passes over the sources; the median pass is reported.
const SWEEP_PASSES: usize = 5;
/// Push tolerance of the sweep (the open loop's `FullProp` eps).
const SWEEP_EPS: f64 = 1e-5;

/// Offered rate of the open loop, as a share of its measured saturation.
const OPEN_LOAD: f64 = 0.5;

/// Closed-loop service rate of `engine` on `trace` with the queue
/// pre-filled and no batch window — the fastest it answers this
/// workload, queries/sec.
fn saturation_qps(mut engine: ServeEngine, trace: &[NodeId]) -> f64 {
    let q = AdmissionQueue::new();
    for &u in trace {
        q.push(u);
    }
    q.close();
    let t = Instant::now();
    let served = run_server(
        &mut engine,
        &q,
        &BatchConfig { deadline: Duration::ZERO, max_batch: 64, overload: None },
    );
    assert_eq!(served.len(), trace.len());
    trace.len() as f64 / t.elapsed().as_secs_f64()
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs_json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--json" && a != "--quick");
    let out_path =
        args.into_iter().next().unwrap_or_else(|| "bench_out/BENCH_serve.json".to_string());
    sgnn_obs::enable();

    // --- Replay: fixed trace, exact-gated counters. ---------------------
    let (rn, requests, batch) = if quick { (2_000, 1_200, 16) } else { (8_000, 6_000, 32) };
    let rg = generate::barabasi_albert(rn, 4, 7);
    let rx = DenseMatrix::gaussian(rn, 8, 1.0, 3);
    let head = Mlp::new(&[8, 16, 5], 0.0, 11);
    // Store smaller than the hub set so the trace exercises all three
    // strategies: the exact gate on `plan_sampled`/`plan_full` is vacuous
    // if one path never fires.
    let planner = PlannerConfig {
        hub_degree: 16,
        hub_frontier: 2_048,
        full_eps: 1e-6,
        sampled_eps: 1e-4,
        escalate_below: None,
    };
    let cfg = ServeConfig {
        alpha: 0.15,
        policy: PrecomputePolicy::Hot { count: rn / 20, eps: 1e-6 },
        planner: planner.clone(),
        cache_capacity: 128,
        quant: QuantMode::F32,
        ..Default::default()
    };
    let trace = zipf_trace(&rg, requests, 0.9, 42);

    let t0 = Instant::now();
    let mut batched = ServeEngine::new(rg.clone(), rx.clone(), head.clone(), cfg.clone());
    let precompute_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut batched_logits: Vec<Vec<u32>> = Vec::with_capacity(trace.len() / batch + 1);
    for chunk in trace.chunks(batch) {
        batched_logits.push(bits(&batched.serve_batch(chunk)));
    }
    let replay_secs = t1.elapsed().as_secs_f64();

    // Differential: fresh engine, same trace one-at-a-time — identical
    // bits, identical replay counters.
    let mut solo = ServeEngine::new(rg.clone(), rx.clone(), head.clone(), cfg.clone());
    let mut cursor = trace.iter();
    for chunk_bits in &batched_logits {
        for (row, want) in chunk_bits.chunks(5).enumerate() {
            let u = *cursor.next().expect("trace length matches");
            let (one, _) = solo.serve_one(u);
            let got: Vec<u32> = one.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "row {row}: batched logits diverged from one-at-a-time");
        }
    }
    // `batches` necessarily differs (75 coalesced batches vs 1200 solo
    // calls); every per-request counter must replay exactly.
    let mut want_stats = solo.stats().clone();
    want_stats.batches = batched.stats().batches;
    assert_eq!(
        batched.stats(),
        &want_stats,
        "replay counters diverged between batched and one-at-a-time serving"
    );
    let stats = batched.stats().clone();

    // Full-store sanity: the column-parallel precompute serves answers
    // bitwise equal to head(sequential smoothing), batch-assembled with
    // the scratch-reusing gather.
    {
        let full_cfg = ServeConfig { policy: PrecomputePolicy::Full { rmax: 1e-4 }, ..cfg.clone() };
        let mut full = ServeEngine::new(rg.clone(), rx.clone(), head.clone(), full_cfg);
        let (emb_seq, _) = smooth_matrix_seq(&rg, &rx, 0.15, 1e-4);
        let probe: Vec<NodeId> = trace.iter().take(64).copied().collect();
        let (got, strategies) = full.serve_batch_with_strategies(&probe);
        assert!(strategies.iter().all(|&s| s == Strategy::Cached));
        let rows: Vec<usize> = probe.iter().map(|&u| u as usize).collect();
        let mut gathered = DenseMatrix::zeros(rows.len(), rx.cols());
        emb_seq.gather_rows_into(&rows, &mut gathered);
        let want = head.forward_inference(&gathered);
        assert_eq!(bits(&got), bits(&want), "full-store answers diverged from seq reference");
    }
    eprintln!(
        "replay: {requests} requests, store {} rows, cache h/m/e {}/{}/{}, \
         plan c/f/s {}/{}/{} in {replay_secs:.3}s",
        batched.store_rows(),
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.plan_cached,
        stats.plan_full,
        stats.plan_sampled
    );

    // --- Degraded replay: recorded overload trace, exact-gated. ---------
    // Same schedule shape `tests/serving_overload.rs` pins: 40 distinct
    // nodes under a rotating pressure ladder (8-request blocks), every
    // 11th request arriving with an expired budget, recorded deadline
    // outcomes fed back to the breaker. The walk is a pure function of
    // the trace, so two fresh engines must agree on every answered bit
    // and every counter.
    let dreq: u64 = if quick { 480 } else { 1_920 };
    let degraded_walk = || {
        let g = generate::barabasi_albert(160, 3, 5);
        let x = DenseMatrix::gaussian(160, 5, 1.0, 2);
        let dhead = Mlp::new(&[5, 8, 4], 0.0, 17);
        let dcfg = ServeConfig {
            policy: PrecomputePolicy::Hot { count: 16, eps: 1e-6 },
            planner: PlannerConfig {
                hub_degree: 10,
                hub_frontier: 512,
                full_eps: 1e-6,
                sampled_eps: 1e-3,
                escalate_below: None,
            },
            cache_capacity: 64,
            breaker: Some(BreakerConfig { trip_after: 2, probe_after: 3 }),
            ..Default::default()
        };
        let mut e = ServeEngine::new(g, x, dhead, dcfg);
        let reqs: Vec<PressuredRequest> = (0..dreq)
            .map(|i| {
                let pressure = match (i / 8) % 4 {
                    0 => Pressure::Normal,
                    1 => Pressure::Degraded,
                    2 => Pressure::CachedOnly,
                    _ => Pressure::Shed,
                };
                PressuredRequest { node: ((i * 13) % 40) as NodeId, pressure, expired: i % 11 == 0 }
            })
            .collect();
        let mut all_bits = Vec::new();
        for (b, chunk) in reqs.chunks(9).enumerate() {
            let (logits, strategies) = e.serve_batch_pressured(chunk);
            for (j, &s) in strategies.iter().enumerate() {
                e.note_outcome(s, (b * 9 + j) % 5 < 2);
            }
            all_bits.extend(bits(&logits));
        }
        let breaker_state = e.breaker_state();
        (all_bits, e.stats().clone(), breaker_state)
    };
    let t_d = Instant::now();
    let (dbits, dstats, dbreaker) = degraded_walk();
    let degraded_secs = t_d.elapsed().as_secs_f64();
    let (dbits2, dstats2, dbreaker2) = degraded_walk();
    assert_eq!(dbits, dbits2, "degraded-replay answers diverged between identical walks");
    assert_eq!(dstats, dstats2, "degraded-replay counters diverged between identical walks");
    assert_eq!(dbreaker, dbreaker2);
    assert!(
        dstats.shed > 0
            && dstats.degraded > 0
            && dstats.plan_stale > 0
            && dstats.breaker_trips > 0
            && dstats.deadline_miss > 0,
        "degraded-replay schedule must exercise the whole ladder: {dstats:?}"
    );
    eprintln!(
        "degraded_replay: {dreq} requests, shed/degraded/stale {}/{}/{}, \
         deadline_miss {}, breaker trips {} in {degraded_secs:.3}s",
        dstats.shed, dstats.degraded, dstats.plan_stale, dstats.deadline_miss, dstats.breaker_trips
    );

    // --- Open loop: heavy-tail arrivals against the admission queue. ----
    let (on, oreq) = if quick { (20_000, 2_500) } else { (100_000, 20_000) };
    let og = generate::barabasi_albert(on, if quick { 4 } else { 8 }, 9);
    let ox = DenseMatrix::gaussian(on, 16, 1.0, 5);
    let ohead = Mlp::new(&[16, 32, 8], 0.0, 13);
    let ocfg = ServeConfig {
        alpha: 0.15,
        policy: PrecomputePolicy::Hot { count: on / 20, eps: 1e-5 },
        planner: PlannerConfig {
            hub_degree: 48,
            hub_frontier: 16_384,
            full_eps: 1e-5,
            sampled_eps: 1e-3,
            escalate_below: None,
        },
        cache_capacity: 4_096,
        quant: QuantMode::Int8,
        ..Default::default()
    };
    let nodes = zipf_trace(&og, oreq, 0.9, 77);
    let open_sat_qps = saturation_qps(
        ServeEngine::new(og.clone(), ox.clone(), ohead.clone(), ocfg.clone()),
        &nodes,
    );
    let t2 = Instant::now();
    let mut engine = ServeEngine::new(og.clone(), ox, ohead, ocfg);
    let open_precompute_secs = t2.elapsed().as_secs_f64();

    // Pre-draw the whole arrival schedule so the producer thread only
    // sleeps and pushes: Zipf(0.9) popularity, Pareto(a = 2) gaps with
    // mean `2 * scale` at `OPEN_LOAD` of saturation, capped at 64
    // scales — bursts plus occasional silences of many mean gaps.
    let mut rng = sgnn_linalg::rng::seeded(99);
    let scale_ns = 1e9 / (OPEN_LOAD * open_sat_qps) / 2.0;
    let gaps: Vec<Duration> = (0..oreq)
        .map(|_| {
            let u: f64 = rng.random();
            Duration::from_nanos((scale_ns / (1.0 - u).sqrt()).min(64.0 * scale_ns) as u64)
        })
        .collect();
    let queue = Arc::new(AdmissionQueue::new());
    let producer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            let t = Instant::now();
            for (u, gap) in nodes.into_iter().zip(gaps) {
                std::thread::sleep(gap);
                queue.push(u);
            }
            queue.close();
            t.elapsed().as_secs_f64()
        })
    };
    let bcfg = BatchConfig { deadline: Duration::from_micros(200), max_batch: 64, overload: None };
    let t3 = Instant::now();
    let served = run_server(&mut engine, &queue, &bcfg);
    let open_secs = t3.elapsed().as_secs_f64();
    let open_offered_qps = oreq as f64 / producer.join().unwrap();
    assert_eq!(served.len(), oreq, "open-loop server dropped queries");
    let mut lat: Vec<u64> = served.iter().map(|s| s.latency_ns).collect();
    lat.sort_unstable();
    let (p50, p99, p999) = (quantile(&lat, 0.5), quantile(&lat, 0.99), quantile(&lat, 0.999));
    let qps = oreq as f64 / open_secs;
    let batches =
        served.iter().filter(|s| s.batch_size >= 1).map(|s| 1.0 / s.batch_size as f64).sum::<f64>();
    let mean_batch = oreq as f64 / batches;
    let ostats = engine.stats().clone();
    eprintln!(
        "open_loop: sat {open_sat_qps:.0} q/s, offered {open_offered_qps:.0} q/s; \
         {oreq} requests in {open_secs:.3}s ({qps:.0} q/s), \
         p50/p99/p999 {p50}/{p99}/{p999} ns, mean batch {mean_batch:.2}"
    );

    // --- Overload: goodput with shedding on vs off past saturation. -----
    let (sn, sreq) = if quick { (10_000, 2_500) } else { (40_000, 10_000) };
    let sg = generate::barabasi_albert(sn, 4, 21);
    let sx = DenseMatrix::gaussian(sn, 8, 1.0, 23);
    let shead = Mlp::new(&[8, 16, 5], 0.0, 29);
    let scfg = ServeConfig {
        alpha: 0.15,
        policy: PrecomputePolicy::Hot { count: sn / 20, eps: 1e-5 },
        planner: PlannerConfig {
            hub_degree: 24,
            hub_frontier: 4_096,
            full_eps: 1e-5,
            sampled_eps: 1e-3,
            escalate_below: None,
        },
        cache_capacity: 1_024,
        quant: QuantMode::Int8,
        ..Default::default()
    };
    let sat_qps = saturation_qps(
        ServeEngine::new(sg.clone(), sx.clone(), shead.clone(), scfg.clone()),
        &zipf_trace(&sg, sreq, 0.9, 31),
    );
    let service_ns = (1e9 / sat_qps) as u64;
    // A request "made it" when it was answered (not shed) within this
    // budget: ~128 service times, i.e. generous at saturation but far
    // below the queue delay an unshed overload run accumulates.
    let budget = Duration::from_nanos((service_ns * 128).clamp(1_000_000, 20_000_000));
    // Offer ~4x saturation. The producer sleeps once per 64-request
    // burst so scheduler sleep granularity cannot pull the offered rate
    // back under saturation.
    let gap_ns = (1e9 / (4.0 * sat_qps)) as u64;
    let overload_nodes = zipf_trace(&sg, sreq, 0.9, 37);
    let drive = |queue: AdmissionQueue,
                 overload: Option<OverloadConfig>,
                 breaker: Option<BreakerConfig>|
     -> (Vec<ServedQuery>, u64, u64, f64, f64) {
        let mut e = ServeEngine::new(
            sg.clone(),
            sx.clone(),
            shead.clone(),
            ServeConfig { breaker, ..scfg.clone() },
        );
        let queue = Arc::new(queue);
        let producer = {
            let queue = Arc::clone(&queue);
            let nodes = overload_nodes.clone();
            std::thread::spawn(move || {
                let t = Instant::now();
                for (i, u) in nodes.into_iter().enumerate() {
                    if i % 64 == 0 {
                        std::thread::sleep(Duration::from_nanos(gap_ns * 64));
                    }
                    queue.push(u);
                }
                queue.close();
                t.elapsed().as_secs_f64()
            })
        };
        let t = Instant::now();
        let served = run_server(
            &mut e,
            &queue,
            &BatchConfig { deadline: Duration::from_micros(200), max_batch: 64, overload },
        );
        let secs = t.elapsed().as_secs_f64();
        let producer_secs = producer.join().unwrap();
        (served, e.stats().shed, e.stats().degraded, secs, producer_secs)
    };
    let (a_served, a_shed, a_degraded, a_secs, a_prod_secs) =
        drive(AdmissionQueue::new(), None, None);
    let shed_on = OverloadConfig {
        pressure: PressureConfig { degrade_at: 64, cached_only_at: 160, shed_at: 320 },
        request_deadline: Some(budget),
    };
    let (b_served, b_ladder_shed, b_degraded, b_secs, b_prod_secs) =
        drive(AdmissionQueue::bounded(512), Some(shed_on), Some(BreakerConfig::default()));
    let offered_qps = sreq as f64 / a_prod_secs.min(b_prod_secs);
    assert!(
        offered_qps > 2.0 * sat_qps,
        "offered load {offered_qps:.0} q/s must exceed 2x saturation ({sat_qps:.0} q/s)"
    );
    let goodput = |served: &[ServedQuery], secs: f64| {
        let ok = served
            .iter()
            .filter(|s| s.strategy != Strategy::Shed && s.latency_ns <= budget.as_nanos() as u64)
            .count();
        ok as f64 / secs
    };
    let p99_answered = |served: &[ServedQuery]| {
        let mut lat: Vec<u64> =
            served.iter().filter(|s| s.strategy != Strategy::Shed).map(|s| s.latency_ns).collect();
        assert!(!lat.is_empty(), "overload run answered nothing");
        lat.sort_unstable();
        quantile(&lat, 0.99)
    };
    let (a_goodput, b_goodput) = (goodput(&a_served, a_secs), goodput(&b_served, b_secs));
    let (a_p99, b_p99) = (p99_answered(&a_served), p99_answered(&b_served));
    assert_eq!(a_served.len(), sreq, "the unshed run must eventually answer everything");
    assert_eq!(a_shed + a_degraded, 0, "no overload config -> no ladder activity");
    assert!(
        b_goodput > a_goodput,
        "shedding on must sustain higher goodput past saturation: \
         on {b_goodput:.0} q/s vs off {a_goodput:.0} q/s at {offered_qps:.0} q/s offered"
    );
    assert!(
        b_p99 < a_p99,
        "shedding on must answer at lower p99 past saturation: on {b_p99} ns vs off {a_p99} ns"
    );
    let b_total_shed =
        b_ladder_shed + b_served.iter().filter(|s| s.strategy == Strategy::Shed).count() as u64;
    eprintln!(
        "overload: sat {sat_qps:.0} q/s, offered {offered_qps:.0} q/s, budget {budget:?}; \
         goodput off/on {a_goodput:.0}/{b_goodput:.0} q/s, p99 off/on {a_p99}/{b_p99} ns, \
         shed(on) {b_total_shed}, degraded(on) {b_degraded}"
    );

    // --- Chaos: armed serving faults through the full loop. -------------
    let (cn, creq) = (1_500, if quick { 600 } else { 1_200 });
    let cg = generate::barabasi_albert(cn, 3, 41);
    let cx = DenseMatrix::gaussian(cn, 6, 1.0, 43);
    let chead = Mlp::new(&[6, 12, 4], 0.0, 47);
    let plan = Arc::new(
        FaultPlan::new(51)
            .spike_request(7, 400)
            .corrupt_store_row_at(19, 6)
            .corrupt_store_row_at(257, 4)
            .stall_producer(103, 900),
    );
    let ccfg = ServeConfig {
        policy: PrecomputePolicy::Full { rmax: 1e-4 },
        fault_plan: Some(Arc::clone(&plan)),
        ..Default::default()
    };
    let mut ce = ServeEngine::new(cg.clone(), cx, chead, ccfg);
    let cq = Arc::new(AdmissionQueue::new());
    let cproducer = {
        let cq = Arc::clone(&cq);
        let nodes = zipf_trace(&cg, creq, 0.9, 53);
        let cplan = Arc::clone(&plan);
        std::thread::spawn(move || {
            for (i, u) in nodes.into_iter().enumerate() {
                if let Some(stall) = cplan.poll_producer_stall(i as u64) {
                    std::thread::sleep(stall);
                }
                if i % 8 == 0 {
                    std::thread::sleep(Duration::from_micros(80));
                }
                cq.push(u);
            }
            cq.close();
        })
    };
    let t_c = Instant::now();
    let cserved = run_server(
        &mut ce,
        &cq,
        &BatchConfig {
            deadline: Duration::from_micros(200),
            max_batch: 32,
            overload: Some(OverloadConfig {
                pressure: PressureConfig::disabled(),
                request_deadline: None,
            }),
        },
    );
    let chaos_secs = t_c.elapsed().as_secs_f64();
    cproducer.join().unwrap();
    assert!(plan.exhausted(), "all four armed serving faults must fire");
    assert_eq!(cserved.len(), creq, "chaos must not drop an accepted query");
    assert!(
        cserved.iter().all(|s| s.strategy == Strategy::Cached),
        "a full store answers at the cached tier, faults or not"
    );
    let crepairs = ce.stats().store_repairs;
    assert_eq!(crepairs, 2, "both corrupted rows must be CRC-caught and rebuilt");
    let chaos_injected = sgnn_fault::injected_count();
    eprintln!(
        "chaos: {creq} requests under spike+corruption+stall, {crepairs} store repairs, \
         {chaos_injected} faults injected in {chaos_secs:.3}s"
    );

    // --- Push sweep: per-push cost against graph size. -------------------
    let sweep_sizes: &[usize] = if quick { &[20_000] } else { &[20_000, 200_000] };
    let mut sweep = Vec::new();
    for &n in sweep_sizes {
        let g = generate::barabasi_albert(n, 8, 61);
        let x = DenseMatrix::gaussian(n, 16, 1.0, 63);
        let mut rng = sgnn_linalg::rng::seeded(67);
        let sources: Vec<NodeId> =
            (0..SWEEP_SOURCES).map(|_| rng.random_range(0..n as NodeId)).collect();
        let mut ws = PushWorkspace::new(n);
        let mut row = vec![0f32; x.cols()];
        let (mut touches, mut pushes) = (0u64, 0u64);
        let mut pass_us = Vec::with_capacity(SWEEP_PASSES);
        for pass in 0..=SWEEP_PASSES {
            let t = Instant::now();
            for &u in &sources {
                let st = fresh_row_into(&mut ws, &g, &x, u, 0.15, SWEEP_EPS, &mut row);
                if pass == 0 {
                    touches += st.edge_touches;
                    pushes += st.pushes;
                }
            }
            // Pass 0 warms caches and the workspace; it is not timed.
            if pass > 0 {
                pass_us.push(t.elapsed().as_secs_f64() * 1e6 / SWEEP_SOURCES as f64);
            }
        }
        pass_us.sort_by(f64::total_cmp);
        let push_us = pass_us[pass_us.len() / 2];
        let k = SWEEP_SOURCES as f64;
        eprintln!(
            "push_sweep: n = {n}: {push_us:.1} us per push, {:.1} edge touches, {:.1} pushes",
            touches as f64 / k,
            pushes as f64 / k
        );
        sweep.push((n, push_us, touches as f64 / k, pushes as f64 / k));
    }

    // --- Report. --------------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"threads_hardware\": {},\n",
        std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1)
    ));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"replay\": {\n");
    json.push_str(&format!(
        "    \"workload\": \"barabasi_albert({rn}, 4, seed 7), zipf(0.9) trace, hot store {}, cache 128\",\n",
        rn / 10
    ));
    json.push_str(&format!("    \"requests\": {},\n", stats.requests));
    json.push_str(&format!("    \"store_hits\": {},\n", stats.store_hits));
    json.push_str(&format!("    \"cache_hits\": {},\n", stats.cache_hits));
    json.push_str(&format!("    \"cache_misses\": {},\n", stats.cache_misses));
    json.push_str(&format!("    \"cache_evictions\": {},\n", stats.cache_evictions));
    json.push_str(&format!("    \"plan_cached\": {},\n", stats.plan_cached));
    json.push_str(&format!("    \"plan_full\": {},\n", stats.plan_full));
    json.push_str(&format!("    \"plan_sampled\": {},\n", stats.plan_sampled));
    json.push_str(&format!("    \"precompute_secs\": {precompute_secs:.9},\n"));
    json.push_str(&format!("    \"replay_secs\": {replay_secs:.9}\n"));
    json.push_str("  },\n");
    json.push_str("  \"degraded_replay\": {\n");
    json.push_str(
        "    \"workload\": \"barabasi_albert(160, 3, seed 5), 40-node walk, 8-request pressure blocks, expired every 11th, hot store 16, cache 64, breaker 2/3\",\n"
    );
    json.push_str(&format!("    \"requests\": {},\n", dstats.requests));
    json.push_str(&format!("    \"shed\": {},\n", dstats.shed));
    json.push_str(&format!("    \"degraded\": {},\n", dstats.degraded));
    json.push_str(&format!("    \"plan_stale\": {},\n", dstats.plan_stale));
    json.push_str(&format!("    \"deadline_miss\": {},\n", dstats.deadline_miss));
    json.push_str(&format!("    \"breaker_trips\": {},\n", dstats.breaker_trips));
    json.push_str(&format!("    \"breaker_state\": {dbreaker},\n"));
    json.push_str(&format!("    \"degraded_secs\": {degraded_secs:.9}\n"));
    json.push_str("  },\n");
    json.push_str("  \"open_loop\": {\n");
    json.push_str(&format!(
        "    \"workload\": \"barabasi_albert({on}), zipf(0.9) popularity, pareto arrivals at {OPEN_LOAD} of measured saturation, deadline 200us, max_batch 64, int8 head\",\n"
    ));
    json.push_str(&format!("    \"requests\": {oreq},\n"));
    json.push_str(&format!("    \"saturation_per_sec\": {open_sat_qps:.3},\n"));
    json.push_str(&format!("    \"offered_per_sec\": {open_offered_qps:.3},\n"));
    json.push_str(&format!("    \"queries_per_sec\": {qps:.3},\n"));
    json.push_str(&format!("    \"p50_ns\": {p50},\n"));
    json.push_str(&format!("    \"p99_ns\": {p99},\n"));
    json.push_str(&format!("    \"p999_ns\": {p999},\n"));
    json.push_str(&format!("    \"mean_batch\": {mean_batch:.3},\n"));
    json.push_str(&format!("    \"open_store_hits\": {},\n", ostats.store_hits));
    json.push_str(&format!("    \"precompute_secs\": {open_precompute_secs:.9},\n"));
    json.push_str(&format!("    \"open_secs\": {open_secs:.9}\n"));
    json.push_str("  },\n");
    json.push_str("  \"overload\": {\n");
    json.push_str(&format!(
        "    \"workload\": \"barabasi_albert({sn}), zipf(0.9), ~4x saturation offered, bounded 512, ladder 64/160/320, budget 128 service times\",\n"
    ));
    json.push_str(&format!("    \"offered_requests\": {sreq},\n"));
    json.push_str(&format!("    \"saturation_per_sec\": {sat_qps:.3},\n"));
    json.push_str(&format!("    \"offered_per_sec\": {offered_qps:.3},\n"));
    json.push_str(&format!("    \"budget_live_ns\": {},\n", budget.as_nanos()));
    // Legitimately 0 when every unshed request misses its budget, which
    // no ratio band can hold: exported `_live`, ungated. CI checks
    // on > off instead.
    json.push_str(&format!("    \"goodput_off_live_per_sec\": {a_goodput:.3},\n"));
    json.push_str(&format!("    \"goodput_on_per_sec\": {b_goodput:.3},\n"));
    json.push_str(&format!("    \"p99_off_ns\": {a_p99},\n"));
    json.push_str(&format!("    \"p99_on_ns\": {b_p99},\n"));
    // Timing-dependent by construction (which requests land on which
    // rung depends on live queue depth): exported `_live`, ungated.
    json.push_str(&format!("    \"shed_live\": {b_total_shed},\n"));
    json.push_str(&format!("    \"degraded_live\": {b_degraded},\n"));
    json.push_str(&format!("    \"overload_off_secs\": {a_secs:.9},\n"));
    json.push_str(&format!("    \"overload_on_secs\": {b_secs:.9}\n"));
    json.push_str("  },\n");
    json.push_str("  \"chaos\": {\n");
    json.push_str(&format!(
        "    \"workload\": \"barabasi_albert({cn}), full store, spike@7 corrupt@19,257 stall@103\",\n"
    ));
    json.push_str(&format!("    \"requests\": {creq},\n"));
    json.push_str(&format!("    \"store_repairs\": {crepairs},\n"));
    json.push_str(&format!("    \"fault_injected\": {chaos_injected},\n"));
    json.push_str(&format!("    \"chaos_secs\": {chaos_secs:.9}\n"));
    json.push_str("  },\n");
    json.push_str("  \"push_sweep\": [\n");
    for (i, (n, push_us, touches, pushes)) in sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"barabasi_albert({n}, 8, seed 61), {SWEEP_SOURCES} uniform sources, eps {SWEEP_EPS:e}, reused workspace\", \"n\": {n}, \"push_us\": {push_us:.3}, \"edge_touches_mean\": {touches:.3}, \"pushes_mean\": {pushes:.3}}}{}\n",
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create bench output dir");
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    print!("{json}");
    eprintln!("wrote {out_path}");
    if obs_json {
        println!("{}", serde::json::to_string(&sgnn_obs::report()));
        sgnn_obs::flush();
    }
    sgnn_obs::disable();
}
