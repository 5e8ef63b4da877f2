//! The load generators: closed loop over TCP, in process on one thread,
//! and the paced open loop with an update stream beside it. At most two
//! generator threads and two connections, whatever the workload.

use crate::pool::{shuffle, sub_seed, Pool};
use crate::schedule::{fire_at, paced, Arrival};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::workloads::GRAPH_NAME;
use gsi::api::QueryRequest;
use gsi::engine::UpdateBatch;
use gsi::server::{ClientError, GsiClient};
use gsi::service::CatalogEntry;
use gsi::service::GsiService;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One measured query.
#[derive(Debug, Clone, Copy)]
pub struct QuerySample {
    pub pool_idx: usize,
    /// As the caller saw it; from the due time in the open loop.
    pub latency: Duration,
    /// The server's own clock for the request (`RemoteOutcome::
    /// server_latency`); zero in process.
    pub server: Duration,
    pub rows: u64,
    /// Answered, complete, and (on static graphs) the admitted row count.
    pub ok: bool,
    pub busy: bool,
    /// Whether spans were recorded around this request.
    pub traced: bool,
}

/// One measured update batch.
#[derive(Debug, Clone, Copy)]
pub struct UpdateSample {
    pub latency: Duration,
    pub ok: bool,
}

/// Everything one measured phase produced.
#[derive(Debug)]
pub struct Phase {
    pub queries: Vec<QuerySample>,
    pub updates: Vec<UpdateSample>,
    pub wall: Duration,
    /// How late the open-loop generator sent each arrival, ms.
    pub generator_late_ms: Vec<f64>,
    pub spans: SpanLog,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        (self.queries.len() + self.updates.len()) as u64
    }

    pub fn failed(&self) -> u64 {
        (self.queries.iter().filter(|q| !q.ok).count()
            + self.updates.iter().filter(|u| !u.ok).count()) as u64
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.queries.iter().map(|q| ms(q.latency)).collect()
    }

    /// What the spans cost: for each pool query, the median latency of
    /// its traced requests against that of its untraced ones, as a share
    /// of the latter; the median of those shares over the pool. Pairing by
    /// query keeps a pool of unequal patterns from turning a one-rank
    /// shift of the pooled p50 into an "overhead".
    pub fn trace_overhead_frac(&self, pool_len: usize) -> f64 {
        let shares: Vec<f64> = (0..pool_len)
            .filter_map(|i| {
                let of = |traced: bool| {
                    let q = self.queries.iter();
                    let q = q.filter(|q| q.pool_idx == i && q.traced == traced);
                    q.map(|q| ms(q.latency)).collect::<Vec<f64>>()
                };
                let (with, without) = (median(&of(true)), median(&of(false)));
                (with > 0.0 && without > 0.0).then(|| (with - without) / without)
            })
            .collect();
        median(&shares)
    }
}

/// In a traced run every other pass over the pool records spans. Both
/// halves answer the same queries under the same conditions, interleaved
/// in time, so the difference of their p50s is what the spans cost and
/// not what the minute happened to bring.
fn pass_is_traced(traced_run: bool, index: usize, pool_len: usize) -> bool {
    traced_run && (index / pool_len).is_multiple_of(2)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Hands out pool queries pass by pass. Time is checked only at a pass
/// boundary, so a phase always answers whole passes: two commits of
/// different speed answer the same multiset of queries, just more or
/// fewer copies of it.
///
/// Every pass goes through the pool in a fresh seeded order. With one
/// fixed order, which big answers the two connections stream side by side
/// is the same in every pass, and that pairing — an accident of the seed —
/// moved `wire-heavy`'s p95 by 10 % from seed to seed.
struct Dispenser {
    state: Mutex<Issued>,
    origin: Instant,
    run_for: Duration,
}

struct Issued {
    count: usize,
    /// This pass's order: a permutation of the pool's indices.
    order: Vec<usize>,
    rng: StdRng,
}

impl Dispenser {
    fn new(pool: &Pool, seed: u64, origin: Instant, run_for: Duration) -> Self {
        Dispenser {
            state: Mutex::new(Issued {
                count: 0,
                order: (0..pool.queries.len()).collect(),
                rng: StdRng::seed_from_u64(sub_seed(seed, 3)),
            }),
            origin,
            run_for,
        }
    }

    /// The next request's running number and the pool query it asks.
    fn take(&self) -> Option<(usize, usize)> {
        let mut guard = self
            .state
            .lock()
            .expect("no generator thread panics holding it");
        let issued = &mut *guard;
        let at = issued.count % issued.order.len();
        if at == 0 {
            if issued.count > 0 && self.origin.elapsed() >= self.run_for {
                return None;
            }
            shuffle(&mut issued.order, &mut issued.rng);
        }
        issued.count += 1;
        Some((issued.count - 1, issued.order[at]))
    }
}

/// Whether static-graph responses must reproduce the admitted row count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowCheck {
    Exact,
    /// The graph is being updated underneath: only completeness is
    /// checked per response; the final epoch is re-gated afterwards.
    CompleteOnly,
}

fn wire_query(
    client: &mut GsiClient,
    pool: &Pool,
    pool_idx: usize,
    check: RowCheck,
    traced: bool,
) -> QuerySample {
    let q = &pool.queries[pool_idx];
    let t = Instant::now();
    let res = client.query(QueryRequest::new(GRAPH_NAME, q.pattern.clone()));
    let latency = t.elapsed();
    match res {
        Ok(out) => {
            let rows = out.assignments.len() as u64;
            QuerySample {
                pool_idx,
                latency,
                server: out.server_latency,
                rows,
                ok: out.completion.is_complete()
                    && (check == RowCheck::CompleteOnly || rows == q.rows),
                busy: false,
                traced,
            }
        }
        Err(e) => QuerySample {
            pool_idx,
            latency,
            server: Duration::ZERO,
            rows: 0,
            ok: false,
            busy: matches!(e, ClientError::Busy { .. }),
            traced,
        },
    }
}

/// Record a client call and, inside it, the share the server's own clock
/// accounts for; the rest of the client span is egress. The server part
/// is known only as a duration, so it is anchored at the call's start.
/// `s.latency` must still be the call's own wall time.
fn record_wire_spans(log: &mut SpanLog, start: Instant, s: &QuerySample, request: u64) {
    let parent = log.record("client.query", start, start + s.latency, None, request);
    let p = &log.spans()[parent];
    let (from, to) = (p.start_ns, p.start_ns + s.server.as_nanos() as u64);
    log.record_ns("server.clock", from, to, Some(parent), request);
}

/// Closed loop: each connection sends its next request as soon as the
/// previous reply is decoded, for whole passes over the pool until
/// `run_for` has elapsed.
pub fn closed_wire(
    clients: &mut [GsiClient],
    pool: &Pool,
    seed: u64,
    run_for: Duration,
    traced: bool,
) -> Phase {
    let origin = Instant::now();
    let dispenser = Dispenser::new(pool, seed, origin, run_for);
    let per_thread: Vec<(Vec<QuerySample>, SpanLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let dispenser = &dispenser;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut log = SpanLog::new(origin);
                    let n = pool.queries.len();
                    while let Some((idx, pool_idx)) = dispenser.take() {
                        let traced = pass_is_traced(traced, idx, n);
                        let start = Instant::now();
                        let s = wire_query(client, pool, pool_idx, RowCheck::Exact, traced);
                        if traced {
                            record_wire_spans(&mut log, start, &s, idx as u64);
                        }
                        samples.push(s);
                    }
                    (samples, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let wall = origin.elapsed();
    let mut queries = Vec::new();
    let mut spans = SpanLog::new(origin);
    for (samples, log) in per_thread {
        queries.extend(samples);
        spans.absorb(log);
    }
    Phase {
        queries,
        updates: Vec::new(),
        wall,
        generator_late_ms: Vec::new(),
        spans,
    }
}

/// In process, one thread: `GsiEngine::query` on the service's own engine
/// and catalog entry, whole passes until `run_for` has elapsed.
pub fn in_process(
    service: &GsiService,
    entry: &CatalogEntry,
    pool: &Pool,
    seed: u64,
    run_for: Duration,
    traced: bool,
) -> Phase {
    let origin = Instant::now();
    let dispenser = Dispenser::new(pool, seed, origin, run_for);
    let mut queries = Vec::new();
    let mut spans = SpanLog::new(origin);
    while let Some((idx, pool_idx)) = dispenser.take() {
        let traced = pass_is_traced(traced, idx, pool.queries.len());
        let q = &pool.queries[pool_idx];
        let start = Instant::now();
        let res = service
            .engine()
            .query(entry.graph(), entry.prepared(), &q.pattern);
        let end = Instant::now();
        let (rows, ok) = match &res {
            Ok(out) => {
                let rows = out.matches.len() as u64;
                (rows, !out.stats.timed_out && rows == q.rows)
            }
            Err(_) => (0, false),
        };
        if traced {
            spans.record("engine.query", start, end, None, idx as u64);
        }
        std::hint::black_box(&res);
        queries.push(QuerySample {
            pool_idx,
            latency: end - start,
            server: Duration::ZERO,
            rows,
            ok,
            busy: false,
            traced,
        });
    }
    Phase {
        queries,
        updates: Vec::new(),
        wall: origin.elapsed(),
        generator_late_ms: Vec::new(),
        spans,
    }
}

/// Open loop: connection A sends one pool query and connection B one
/// update batch at every due time, whatever the replies do. Latency
/// counts from the due time.
pub fn paced_wire(
    clients: &mut [GsiClient],
    pool: &Pool,
    batches: &[UpdateBatch],
    interval: Duration,
    traced: bool,
) -> Phase {
    let [reader, writer] = clients else {
        panic!("the paced workload uses exactly two connections");
    };
    let schedule = paced(batches.len(), interval);
    let origin = Instant::now();
    let (read_side, updates) = std::thread::scope(|scope| {
        let schedule = &schedule;
        let reads = scope.spawn(move || {
            let mut samples = Vec::with_capacity(schedule.len());
            let mut late = Vec::with_capacity(schedule.len());
            let mut log = SpanLog::new(origin);
            let n = pool.queries.len();
            for (i, &due) in schedule.iter().enumerate() {
                let traced = pass_is_traced(traced, i, n);
                let (arrival, mut s) = fire_at(origin, due, || {
                    // Check the connection before use, as a pooled client
                    // does (one tiny frame each way, ~10 us). It also pins
                    // down what the kernel does next: a socket that sends
                    // right after it received counts as interactive and
                    // delays its ACKs, which is the state a back-to-back
                    // client is always in. Without it an idle gap now and
                    // then flips the socket into quick-ACK mode for some
                    // 14 requests, which answer in 5 ms instead of 45
                    // while the server's replies go out as several small
                    // writes; how many such bursts a run caught moved
                    // its p50 between 22 and 51 ms.
                    let alive = reader.health().is_ok();
                    let mut s = wire_query(reader, pool, i % n, RowCheck::CompleteOnly, traced);
                    s.ok &= alive;
                    s
                });
                if traced {
                    let start = origin + arrival.done - s.latency;
                    record_wire_spans(&mut log, start, &s, i as u64);
                }
                s.latency = arrival.latency_from_due();
                late.push(ms(arrival.generator_late()));
                samples.push(s);
            }
            (samples, late, log)
        });
        let writes = scope.spawn(move || {
            let mut samples = Vec::with_capacity(schedule.len());
            for (&due, batch) in schedule.iter().zip(batches) {
                let (arrival, res): (Arrival, _) =
                    fire_at(origin, due, || writer.update(GRAPH_NAME, batch));
                samples.push(UpdateSample {
                    latency: arrival.latency_from_due(),
                    ok: res.is_ok_and(|ack| ack.applied_ops == batch.len() as u64),
                });
            }
            samples
        });
        (
            reads.join().expect("query generator panicked"),
            writes.join().expect("update generator panicked"),
        )
    });
    let (queries, generator_late_ms, spans) = read_side;
    Phase {
        queries,
        updates,
        wall: origin.elapsed(),
        generator_late_ms,
        spans,
    }
}
