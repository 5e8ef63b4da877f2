//! The peel: the same request issued at four boundaries of a quiescent
//! system, one inside the other, so that each layer's self time is what
//! its boundary adds over the one below it.
//!
//! ```text
//! GsiClient::query            server   = wire    − service
//!   GsiService::query_blocking service  = service − engine
//!     GsiEngine::query          core     = engine  − filter
//!       GsiEngine::filter       signature = filter
//! ```
//!
//! The boundaries are called in turn (the harness cannot open a span
//! inside the product), each distinct pool query `REPS` times; a
//! boundary's time for a query is the median over reps, and a layer's
//! figure for the workload is the mean of its per-query self times over
//! the pool — so the four parts add up to the pool-mean outer latency by
//! construction. A lower boundary that measures slower than the one
//! containing it is an *inversion*: it is counted and its negative part
//! kept, not hidden.
//!
//! The microbenchmarks at the end time the pieces no boundary isolates:
//! the `gsi::api::wire` codecs, the chunk frame codec, a health round
//! trip, a metrics scrape, a cold `prepare`.

use crate::drive::ms;
use crate::pool::{Pool, UpdatePlan};
use crate::setup::{service_config, Stack};
use crate::spans::SpanLog;
use crate::stats::{median, percentile_of};
use crate::workloads::GRAPH_NAME;
use gsi::api::wire::{
    decode_graph, decode_update_batch, encode_graph, encode_update_batch, WireReader, WireWriter,
};
use gsi::api::QueryRequest;
use gsi::engine::{GsiEngine, RunStats};
use gsi::server::frame::{decode_frame, encode_frame, Frame, FrameHeader};
use gsi::service::MetricFormat;
use gsi::sim::Gpu;
use std::time::Instant;

/// Repetitions of each pool query at each boundary.
pub const REPS: usize = 5;

/// Boundary medians of one pool query, ms. A boundary the workload does
/// not have (no server in process) is absent.
#[derive(Debug, Clone, Default)]
struct QueryPeel {
    wire_ms: Option<f64>,
    service_ms: f64,
    engine_ms: f64,
    filter_ms: f64,
}

/// The peel's findings.
pub struct Peel {
    per_query: Vec<QueryPeel>,
    /// `RunStats` of every engine-boundary run (quiescent, so the modeled
    /// device counts are exact).
    engine_runs: Vec<RunStats>,
    /// Σ|C(u)| / (|V(Q)|·|V(G)|) per pool query.
    pass_frac: Vec<f64>,
    queue_ms: Vec<f64>,
    plan_ms: Vec<f64>,
    respond_ms: Vec<f64>,
    /// Whether the workload's own path crosses the service and the wire.
    served: bool,
    pub spans: SpanLog,
}

/// Peel every distinct pool query on the quiescent stack.
pub fn peel(stack: &mut Stack, pool: &Pool, origin: Instant) -> Peel {
    let entry = stack.entry();
    let engine = stack.service.engine();
    let n_data = entry.graph().n_vertices() as f64;
    let served = !stack.clients.is_empty();
    let mut out = Peel {
        per_query: Vec::new(),
        engine_runs: Vec::new(),
        pass_frac: Vec::new(),
        queue_ms: Vec::new(),
        plan_ms: Vec::new(),
        respond_ms: Vec::new(),
        served,
        spans: SpanLog::new(origin),
    };
    for (qi, q) in pool.queries.iter().enumerate() {
        let mut reps: [Vec<f64>; 4] = Default::default();
        for rep in 0..REPS {
            let request = (qi * REPS + rep) as u64;
            let mut parent = None;
            if let Some(client) = stack.clients.first_mut() {
                let t = Instant::now();
                let res = client.query(QueryRequest::new(GRAPH_NAME, q.pattern.clone()));
                let end = Instant::now();
                std::hint::black_box(&res);
                reps[0].push(ms(end - t));
                parent = Some(out.spans.record("peel.wire", t, end, parent, request));
            }
            if served {
                let t = Instant::now();
                let res = stack
                    .service
                    .query_blocking(QueryRequest::new(GRAPH_NAME, q.pattern.clone()));
                let end = Instant::now();
                reps[1].push(ms(end - t));
                parent = Some(out.spans.record("peel.service", t, end, parent, request));
                if let Some(o) = res.ok().and_then(|r| r.result.ok()) {
                    out.queue_ms.push(ms(o.stage_breakdown.queue));
                    out.plan_ms.push(ms(o.stage_breakdown.plan));
                    out.respond_ms.push(ms(o.stage_breakdown.respond));
                }
            }
            let t = Instant::now();
            let res = engine.query(entry.graph(), entry.prepared(), &q.pattern);
            let end = Instant::now();
            reps[2].push(ms(end - t));
            parent = Some(out.spans.record("peel.engine", t, end, parent, request));
            if let Ok(o) = res {
                out.engine_runs.push(o.stats);
            }
            let t = Instant::now();
            let cands = engine.filter(entry.prepared(), &q.pattern);
            let end = Instant::now();
            reps[3].push(ms(end - t));
            out.spans.record("peel.filter", t, end, parent, request);
            if rep == 0 {
                let total: usize = cands.iter().map(|c| c.len()).sum();
                out.pass_frac
                    .push(total as f64 / (q.pattern.n_vertices() as f64 * n_data));
            }
        }
        out.per_query.push(QueryPeel {
            wire_ms: served.then(|| median(&reps[0])),
            service_ms: median(&reps[1]),
            engine_ms: median(&reps[2]),
            filter_ms: median(&reps[3]),
        });
    }
    out
}

impl Peel {
    /// Per-query self times `(server, service, core, signature)` and the
    /// outermost boundary they should add up to.
    fn parts(&self) -> Vec<([f64; 4], f64)> {
        self.per_query
            .iter()
            .map(|q| match q.wire_ms {
                Some(wire) => (
                    [
                        wire - q.service_ms,
                        q.service_ms - q.engine_ms,
                        q.engine_ms - q.filter_ms,
                        q.filter_ms,
                    ],
                    wire,
                ),
                None => (
                    [0.0, 0.0, q.engine_ms - q.filter_ms, q.filter_ms],
                    q.engine_ms,
                ),
            })
            .collect()
    }

    /// Pool means of the per-query self times, and of the outer boundary.
    fn layer_means(&self) -> ([f64; 4], f64) {
        let parts = self.parts();
        let n = parts.len().max(1) as f64;
        let layers = [0, 1, 2, 3].map(|l| parts.iter().map(|(p, _)| p[l]).sum::<f64>() / n);
        (layers, parts.iter().map(|&(_, o)| o).sum::<f64>() / n)
    }

    /// (query, layer) pairs where the contained boundary was slower.
    fn inversions(&self) -> usize {
        self.parts()
            .iter()
            .map(|(p, _)| p.iter().filter(|&&x| x < 0.0).count())
            .sum()
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let runs = &self.engine_runs;
        let n = runs.len().max(1) as f64;
        let per_query = |f: &dyn Fn(&RunStats) -> u64| runs.iter().map(f).sum::<u64>() as f64 / n;
        let col = |f: &dyn Fn(&RunStats) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
        let join_ms = col(&|r| ms(r.join_time));
        let join_s: f64 = runs.iter().map(|r| r.join_time.as_secs_f64()).sum();
        let work: u64 = runs.iter().map(|r| r.join_work_units).sum();
        let rows: u64 = runs.iter().map(|r| r.n_matches as u64).sum();
        let ([server, service, _, _], _) = self.layer_means();
        vec![
            (
                "signature.filter_ms_p50",
                median(
                    &self
                        .per_query
                        .iter()
                        .map(|q| q.filter_ms)
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "signature.filter_gld_per_query",
                per_query(&|r| r.filter_device.gld_transactions),
            ),
            ("signature.pass_frac", median(&self.pass_frac)),
            ("gpu-sim.gld_per_query", per_query(&|r| r.gld())),
            ("gpu-sim.gst_per_query", per_query(&|r| r.gst())),
            ("gpu-sim.kernels_per_query", per_query(&|r| r.kernels())),
            (
                "gpu-sim.work_units_per_query",
                per_query(&|r| r.device.work_units),
            ),
            (
                "gpu-sim.alloc_bytes_per_query",
                per_query(&|r| r.device.device_alloc_bytes),
            ),
            (
                "core.plan_ms_p50",
                percentile_of(&col(&|r| ms(r.plan_time)), 0.50),
            ),
            ("core.join_ms_p50", percentile_of(&join_ms, 0.50)),
            ("core.join_ms_p95", percentile_of(&join_ms, 0.95)),
            (
                "core.join_melem_per_s",
                if join_s > 0.0 {
                    work as f64 / join_s / 1e6
                } else {
                    0.0
                },
            ),
            (
                "core.engine_self_ms_p50",
                percentile_of(
                    &col(&|r| ms(r.total_time.saturating_sub(r.filter_time + r.join_time))),
                    0.50,
                ),
            ),
            (
                "core.rows_per_work_unit",
                if work > 0 {
                    rows as f64 / work as f64
                } else {
                    0.0
                },
            ),
            (
                "core.peak_intermediate_rows_p95",
                percentile_of(&col(&|r| r.max_intermediate_rows as f64), 0.95),
            ),
            (
                "core.replans_per_query",
                per_query(&|r| u64::from(r.replans)),
            ),
            ("service.self_ms_p50", service),
            ("service.queue_ms_p50", percentile_of(&self.queue_ms, 0.50)),
            ("service.plan_ms_p50", percentile_of(&self.plan_ms, 0.50)),
            (
                "service.respond_ms_p50",
                percentile_of(&self.respond_ms, 0.50),
            ),
            ("server.self_ms_p50", server),
            ("bench.peel_inversions", self.inversions() as f64),
        ]
    }

    /// The peel as a table for the human reader: which layer holds the
    /// largest self time.
    pub fn notes(&self) -> Vec<String> {
        let ([server, service, core, signature], outer) = self.layer_means();
        let layers = [
            ("server", server),
            ("service", service),
            ("core", core),
            ("signature", signature),
        ];
        let largest = layers
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("medians are never NaN"))
            .expect("four layers");
        vec![
            format!(
                "peel ({} queries x {REPS} reps, pool mean of rep medians): {} {outer:.3} ms = server {server:.3} + service {service:.3} + core {core:.3} + signature {signature:.3}",
                self.per_query.len(),
                if self.served { "wire" } else { "engine" },
            ),
            format!("peel: largest self time is {} ({:.3} ms)", largest.0, largest.1),
        ]
    }
}

fn time_us(mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    op();
    t.elapsed().as_secs_f64() * 1e6
}

/// The pieces no boundary isolates, each timed alone.
pub fn microbenchmarks(
    stack: &mut Stack,
    pool: &Pool,
    plan: Option<&UpdatePlan>,
) -> Vec<(&'static str, f64)> {
    // Request codec: encode + decode of every pool query, as the client
    // and the server's reader each do once per request.
    let mut request_us = Vec::new();
    for q in &pool.queries {
        let req = QueryRequest::new(GRAPH_NAME, q.pattern.clone()).with_tenant("t0");
        for _ in 0..20 {
            request_us.push(time_us(|| {
                let mut w = WireWriter::new();
                req.encode(&mut w);
                let bytes = w.into_vec();
                let decoded = QueryRequest::decode(&mut WireReader::new(&bytes));
                std::hint::black_box(decoded.is_ok());
            }));
        }
    }
    let update_us: Vec<f64> = plan.map_or(Vec::new(), |p| {
        p.batches
            .iter()
            .map(|b| {
                time_us(|| {
                    let mut w = WireWriter::new();
                    encode_update_batch(b, &mut w);
                    let bytes = w.into_vec();
                    let decoded = decode_update_batch(&mut WireReader::new(&bytes));
                    std::hint::black_box(decoded.is_ok());
                })
            })
            .collect()
    });
    // Graph codec: what `GsiClient::register` pays during set-up.
    let graph_mb_per_s = if stack.clients.is_empty() {
        0.0
    } else {
        let mut rates = Vec::new();
        for _ in 0..3 {
            let mut bytes_len = 0usize;
            let us = time_us(|| {
                let mut w = WireWriter::new();
                encode_graph(&stack.graph, &mut w);
                let bytes = w.into_vec();
                bytes_len = bytes.len();
                let decoded = decode_graph(&mut WireReader::new(&bytes));
                std::hint::black_box(decoded.is_ok());
            });
            rates.push(bytes_len as f64 / us);
        }
        median(&rates)
    };
    // Chunk codec: one full default-size chunk (512 rows x 4 columns).
    let chunk_mrows_per_s = if stack.clients.is_empty() {
        0.0
    } else {
        let header = FrameHeader::new(1, "t0");
        let frame = Frame::MatchChunk {
            first_row: 0,
            n_query_vertices: 4,
            rows: (0..512 * 4).collect(),
        };
        let reps = 2_000;
        let us = time_us(|| {
            for _ in 0..reps {
                let bytes = encode_frame(&header, std::hint::black_box(&frame));
                assert!(
                    decode_frame(&bytes).is_ok(),
                    "a frame decodes from its own encoding"
                );
            }
        });
        (512 * reps) as f64 / us
    };
    let mut health_us = Vec::new();
    if let Some(client) = stack.clients.first_mut() {
        for _ in 0..200 {
            health_us.push(time_us(|| {
                std::hint::black_box(client.health().is_ok());
            }));
        }
    }
    let export_ms: Vec<f64> = (0..5)
        .map(|_| {
            time_us(|| {
                std::hint::black_box(stack.service.export_metrics(MetricFormat::Prometheus).len());
            }) / 1e3
        })
        .collect();
    // A cold prepare on an engine of the harness's own: the service's
    // engine shares a device ledger that `prepare` would reset.
    let cfg = service_config();
    let scratch = GsiEngine::with_gpu(cfg.engine, Gpu::new(cfg.device));
    let prepare_ms: Vec<f64> = (0..3)
        .map(|_| {
            time_us(|| {
                std::hint::black_box(scratch.prepare(&stack.graph));
            }) / 1e3
        })
        .collect();
    vec![
        ("api.request_codec_us_p50", percentile_of(&request_us, 0.50)),
        ("api.update_codec_us_p50", percentile_of(&update_us, 0.50)),
        ("api.graph_codec_mb_per_s", graph_mb_per_s),
        ("server.chunk_codec_mrows_per_s", chunk_mrows_per_s),
        ("server.health_rtt_us_p50", percentile_of(&health_us, 0.50)),
        ("obs.metrics_export_ms", median(&export_ms)),
        ("core.prepare_ms", median(&prepare_ms)),
    ]
}
