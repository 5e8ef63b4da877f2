//! `paper serve` — the network serving load harness (PR 10 trajectory).
//!
//! Drives a real [`GsiServer`] over TCP with two arrival models:
//!
//! * **closed loop** — each client issues its next query the moment the
//!   previous one completes; measures the server's sustainable
//!   throughput and in-saturation latency.
//! * **open loop** — queries arrive on a fixed-rate schedule regardless
//!   of completions, and each latency is measured from the *scheduled*
//!   arrival time, not the actual send — the coordinated-omission-aware
//!   number. Sweeping the rate past the closed-loop throughput exposes
//!   the saturation knee.
//!
//! Both phases run mixed tenants and concurrent update churn. Before and
//! after the load, every probe query is **equivalence-gated**: the match
//! set streamed over the wire must be bit-identical (canonical order) to
//! `GsiService::query_blocking` on the same service instance.

use crate::report::JsonObj;
use crate::workloads::HarnessOpts;
use gsi::api::QueryRequest;
use gsi::datasets::DatasetKind;
use gsi::graph::query_gen::random_walk_query;
use gsi::graph::update::random_update_batch;
use gsi::graph::Graph;
use gsi::server::{ClientError, GsiClient, GsiServer, ServerConfig};
use gsi::service::{GsiService, ServiceConfig, TenantPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Latency percentiles of one load phase, microsecond resolution.
#[derive(Debug, Clone, Copy)]
struct Percentiles {
    p50: Duration,
    p99: Duration,
    p999: Duration,
}

fn percentiles(samples: &mut [Duration]) -> Percentiles {
    assert!(!samples.is_empty(), "phase produced no latency samples");
    samples.sort_unstable();
    let at = |p: f64| {
        let idx = (p * (samples.len() - 1) as f64).round() as usize;
        samples[idx.min(samples.len() - 1)]
    };
    Percentiles {
        p50: at(0.50),
        p99: at(0.99),
        p999: at(0.999),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The query pool: connected random-walk patterns of 3–6 vertices, sized
/// for serving latency rather than the paper's heavyweight defaults.
fn query_pool(data: &Graph, seed: u64, n: usize) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = Vec::with_capacity(n);
    while pool.len() < n {
        let size = 3 + pool.len() % 4;
        if let Some(q) = random_walk_query(data, size, &mut rng) {
            pool.push(q);
        }
    }
    pool
}

/// One wire query with bounded Busy retries. Returns the busy count.
fn query_with_backoff(
    client: &mut GsiClient,
    request: QueryRequest,
) -> Result<(gsi::server::RemoteOutcome, u64), ClientError> {
    let mut busy = 0u64;
    loop {
        match client.query(request.clone()) {
            Ok(outcome) => return Ok((outcome, busy)),
            Err(ClientError::Busy { retry_after }) => {
                busy += 1;
                std::thread::sleep(retry_after.max(Duration::from_micros(200)));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Wire-vs-in-process equivalence over `pool`: every canonical match set
/// must be identical. Returns the total number of matches checked.
fn equivalence_gate(
    addr: SocketAddr,
    service: &GsiService,
    graph_name: &str,
    pool: &[Graph],
) -> u64 {
    let mut client = GsiClient::connect(addr).expect("gate connect");
    let mut total = 0u64;
    for (i, q) in pool.iter().enumerate() {
        let (remote, _busy) =
            query_with_backoff(&mut client, QueryRequest::new(graph_name, q.clone()))
                .unwrap_or_else(|e| panic!("gate query {i} failed over the wire: {e}"));
        let local = service
            .query_blocking(QueryRequest::new(graph_name, q.clone()))
            .expect("gate query admitted")
            .result
            .unwrap_or_else(|e| panic!("gate query {i} failed in-process: {e:?}"));
        assert_eq!(
            remote.canonical(),
            local.output.matches.canonical(),
            "equivalence gate: wire and in-process diverge on query {i}"
        );
        total += remote.assignments.len() as u64;
    }
    total
}

struct PhaseOutcome {
    latencies: Vec<Duration>,
    wall: Duration,
    busy: u64,
}

/// Closed loop: `clients` threads, round-robin tenants, each issuing
/// `per_client` queries back to back.
fn closed_loop(
    addr: SocketAddr,
    graph_name: &str,
    pool: Arc<Vec<Graph>>,
    clients: usize,
    per_client: usize,
) -> PhaseOutcome {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let pool = Arc::clone(&pool);
            let graph_name = graph_name.to_string();
            std::thread::spawn(move || {
                let mut client = GsiClient::connect(addr)
                    .expect("closed-loop connect")
                    .with_tenant(format!("tenant-{}", c % 4));
                let mut latencies = Vec::with_capacity(per_client);
                let mut busy = 0u64;
                for i in 0..per_client {
                    let q = pool[(c + i * clients) % pool.len()].clone();
                    let sent = Instant::now();
                    let (_outcome, b) =
                        query_with_backoff(&mut client, QueryRequest::new(&graph_name, q))
                            .unwrap_or_else(|e| panic!("closed-loop query failed: {e}"));
                    latencies.push(sent.elapsed());
                    busy += b;
                }
                (latencies, busy)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut busy = 0u64;
    for h in handles {
        let (l, b) = h.join().expect("closed-loop client");
        latencies.extend(l);
        busy += b;
    }
    PhaseOutcome {
        latencies,
        wall: t0.elapsed(),
        busy,
    }
}

/// Open loop at a fixed arrival rate: `arrivals` queries are scheduled at
/// `1/rate` intervals from a common origin; a pool of worker connections
/// picks up each arrival in order, sleeping until its scheduled time if
/// early and proceeding immediately if the schedule has slipped. The
/// recorded latency runs from the *scheduled* time, so queueing delay
/// under saturation is charged to the server, not silently absorbed by
/// the client (coordinated omission).
fn open_loop(
    addr: SocketAddr,
    graph_name: &str,
    pool: Arc<Vec<Graph>>,
    workers: usize,
    rate_qps: f64,
    arrivals: usize,
) -> PhaseOutcome {
    let interval = Duration::from_secs_f64(1.0 / rate_qps.max(0.1));
    let next = Arc::new(AtomicUsize::new(0));
    let busy_total = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let pool = Arc::clone(&pool);
            let next = Arc::clone(&next);
            let busy_total = Arc::clone(&busy_total);
            let graph_name = graph_name.to_string();
            std::thread::spawn(move || {
                let mut client = GsiClient::connect(addr)
                    .expect("open-loop connect")
                    .with_tenant(format!("tenant-{}", w % 4));
                let mut latencies = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= arrivals {
                        return latencies;
                    }
                    let scheduled = t0 + interval.mul_f64(i as f64);
                    let now = Instant::now();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    }
                    let q = pool[i % pool.len()].clone();
                    let (_outcome, b) =
                        query_with_backoff(&mut client, QueryRequest::new(&graph_name, q))
                            .unwrap_or_else(|e| panic!("open-loop query failed: {e}"));
                    busy_total.fetch_add(b, Ordering::Relaxed);
                    // Latency from the schedule, not the send.
                    latencies.push(scheduled.elapsed());
                }
            })
        })
        .collect();
    let mut latencies = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("open-loop worker"));
    }
    PhaseOutcome {
        latencies,
        wall: t0.elapsed(),
        busy: busy_total.load(Ordering::Relaxed),
    }
}

/// The `paper serve` experiment: equivalence gate, closed-loop load,
/// open-loop rate sweep with knee detection, update churn throughout the
/// load phases, graceful drain — reported to `out_path`.
pub fn serve(opts: &HarnessOpts, clients: usize, min_throughput: f64, out_path: &str) {
    println!("\n=== Serving over the wire — closed/open-loop load harness ===");

    let data = gsi::datasets::build(&opts.spec(DatasetKind::Enron));
    println!(
        "dataset: enron stand-in, |V|={}, |E|={}",
        data.n_vertices(),
        data.n_edges()
    );
    let service = Arc::new(GsiService::new(ServiceConfig {
        workers: 4,
        queue_capacity: 512,
        tenants: TenantPolicy {
            queue_quota: 128,
            inflight_quota: 16,
            quantum: 8,
        },
        ..ServiceConfig::for_tests()
    }));
    let server = GsiServer::start(Arc::clone(&service), ServerConfig::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr();

    let mut setup = GsiClient::connect(addr).expect("connect");
    setup.register("enron", &data).expect("register over wire");

    let pool = Arc::new(query_pool(&data, opts.seed, 12));
    let gate_pool: Vec<Graph> = pool.iter().take(8).cloned().collect();

    // Phase 1: pre-load equivalence gate on a quiescent server.
    let gate_matches = equivalence_gate(addr, &service, "enron", &gate_pool);
    println!("equivalence gate (pre-load): 8 queries, {gate_matches} matches, bit-identical");

    // Update churn runs through both load phases: a writer applies a
    // small batch over the wire every few milliseconds, tracking the
    // evolving graph locally so every batch is valid by construction.
    let churn_stop = Arc::new(AtomicBool::new(false));
    let churn_counts = Arc::new(Mutex::new((0u64, 0u64))); // (batches, final epoch)
    let churn = {
        let stop = Arc::clone(&churn_stop);
        let counts = Arc::clone(&churn_counts);
        let mut current = data.clone();
        let seed = opts.seed;
        std::thread::spawn(move || {
            let mut client = GsiClient::connect(addr)
                .expect("churn connect")
                .with_tenant("churn");
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A2);
            while !stop.load(Ordering::Relaxed) {
                let batch = random_update_batch(&current, 8, 2, &mut rng);
                if batch.is_empty() {
                    continue;
                }
                let up = client.update("enron", &batch).expect("churn update");
                current = current.apply_updates(&batch).expect("batch is valid");
                let mut c = counts.lock().expect("churn counts");
                c.0 += 1;
                c.1 = up.epoch;
                drop(c);
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    // Phase 2: closed loop.
    let per_client = (opts.queries * 8).max(24);
    let mut closed = closed_loop(addr, "enron", Arc::clone(&pool), clients, per_client);
    let closed_n = closed.latencies.len();
    let closed_pct = percentiles(&mut closed.latencies);
    let closed_qps = closed_n as f64 / closed.wall.as_secs_f64();
    println!(
        "closed loop: {clients} clients x {per_client} queries -> {closed_qps:.1} q/s, \
         p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms, {} busy retries",
        ms(closed_pct.p50),
        ms(closed_pct.p99),
        ms(closed_pct.p999),
        closed.busy
    );

    // Phase 3: open-loop sweep, rates calibrated to the closed-loop
    // throughput so the knee is bracketed by construction.
    let arrivals = (opts.queries * 16).max(48);
    let rate_fractions = [0.4f64, 0.8, 1.2];
    let mut sweep: Vec<(f64, f64, Percentiles, u64)> = Vec::new();
    for frac in rate_fractions {
        let rate = (closed_qps * frac).max(1.0);
        let mut phase = open_loop(
            addr,
            "enron",
            Arc::clone(&pool),
            clients * 2,
            rate,
            arrivals,
        );
        let pct = percentiles(&mut phase.latencies);
        let achieved = phase.latencies.len() as f64 / phase.wall.as_secs_f64();
        println!(
            "open loop @ {rate:.1} q/s offered: {achieved:.1} q/s achieved, \
             p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms, {} busy retries",
            ms(pct.p50),
            ms(pct.p99),
            ms(pct.p999),
            phase.busy
        );
        sweep.push((rate, achieved, pct, phase.busy));
    }

    // Saturation knee: the first offered rate the server can no longer
    // track — achieved < 90% of offered, or p99 blowing up by 8x over the
    // lightest load. The knee estimate is the last rate *before* that.
    let base_p99 = sweep[0].2.p99;
    let mut knee_qps = sweep[sweep.len() - 1].1; // default: highest achieved
    let mut knee_found = false;
    for (i, (offered, achieved, pct, _)) in sweep.iter().enumerate() {
        let saturated = *achieved < 0.9 * *offered || (i > 0 && pct.p99 > base_p99.mul_f64(8.0));
        if saturated {
            knee_qps = if i == 0 { *achieved } else { sweep[i - 1].0 };
            knee_found = true;
            break;
        }
    }
    println!(
        "saturation knee: ~{knee_qps:.1} q/s ({})",
        if knee_found {
            "offered rate before the first saturated step"
        } else {
            "no saturated step in sweep; highest achieved rate"
        }
    );

    // Phase 4: stop the churn, then re-gate equivalence on the *mutated*
    // catalog — serving results must still match in-process exactly.
    churn_stop.store(true, Ordering::Relaxed);
    churn.join().expect("churn thread");
    let (churn_batches, churn_epoch) = *churn_counts.lock().expect("churn counts");
    let regate_matches = equivalence_gate(addr, &service, "enron", &gate_pool);
    println!(
        "update churn: {churn_batches} batches applied over the wire (final epoch {churn_epoch}); \
         post-churn equivalence gate: 8 queries, {regate_matches} matches, bit-identical"
    );

    // Phase 5: graceful drain.
    drop(setup);
    let report = server.shutdown();
    println!(
        "drain: {} responses served over the server's lifetime, {} connection(s) closed",
        report.served_total, report.connections_drained
    );
    let expected_served = (closed_n + sweep.len() * arrivals + 2 * gate_pool.len()) as u64;
    assert!(
        report.served_total >= expected_served,
        "drain must account for every completed response: served {} < expected {}",
        report.served_total,
        expected_served
    );

    // Throughput gate — a measurement, noisy on shared runners; CI smoke
    // passes a low bar and records the number as trajectory data.
    if min_throughput > 0.0 {
        assert!(
            closed_qps >= min_throughput,
            "closed-loop throughput {closed_qps:.1} q/s below the {min_throughput:.1} q/s bar"
        );
    }

    let mut json = JsonObj::new()
        .u64("pr", 10)
        .str("experiment", "serve")
        .str(
            "description",
            "network serving harness: closed-loop and open-loop (fixed-rate, \
             coordinated-omission-aware) load over the versioned wire protocol with \
             mixed tenants and update churn, equivalence-gated against in-process \
             query_blocking before and after the churn",
        )
        .str("dataset", "enron")
        .f64("scale", opts.scale)
        .u64("seed", opts.seed)
        .u64("protocol_version", u64::from(gsi::server::PROTOCOL_VERSION))
        .u64("clients", clients as u64)
        .obj(
            "equivalence",
            JsonObj::new()
                .u64("gate_queries", 2 * gate_pool.len() as u64)
                .u64("pre_churn_matches", gate_matches)
                .u64("post_churn_matches", regate_matches)
                .bool("bit_identical", true),
        )
        .obj(
            "closed_loop",
            JsonObj::new()
                .u64("queries", closed_n as u64)
                .f64("throughput_qps", closed_qps)
                .f64("p50_ms", ms(closed_pct.p50))
                .f64("p99_ms", ms(closed_pct.p99))
                .f64("p999_ms", ms(closed_pct.p999))
                .u64("busy_retries", closed.busy),
        );
    for (i, (offered, achieved, pct, busy)) in sweep.iter().enumerate() {
        json = json.obj(
            &format!("open_loop_{i}"),
            JsonObj::new()
                .f64("offered_qps", *offered)
                .f64("achieved_qps", *achieved)
                .f64("p50_ms", ms(pct.p50))
                .f64("p99_ms", ms(pct.p99))
                .f64("p999_ms", ms(pct.p999))
                .u64("busy_retries", *busy),
        );
    }
    let json = json
        .f64("saturation_knee_qps", knee_qps)
        .bool("knee_saturated_in_sweep", knee_found)
        .obj(
            "update_churn",
            JsonObj::new()
                .u64("batches_applied", churn_batches)
                .u64("final_epoch", churn_epoch),
        )
        .obj(
            "drain",
            JsonObj::new()
                .u64("served_total", report.served_total)
                .u64("connections_drained", report.connections_drained as u64)
                .bool("zero_dropped", true),
        )
        .f64("min_throughput_qps", min_throughput)
        .bool("throughput_gate_passed", true);
    json.write(out_path).expect("write bench report");
    println!("wrote {out_path}");
}
