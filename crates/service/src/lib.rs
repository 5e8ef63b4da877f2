//! # gsi-service — the concurrent query-serving subsystem
//!
//! The GSI paper splits subgraph isomorphism into an offline *prepare*
//! phase (vertex signatures, PCSR construction — §III-A, §IV) and an
//! online *query* phase (filter + join — §III, §V). That split is exactly
//! the shape of a serving system: preparation is per data graph and
//! amortizes across queries, while a query stream is many small patterns
//! over a few shared graphs. This crate turns the single-shot
//! [`gsi_core::GsiEngine`] into a multi-tenant server built from three
//! components:
//!
//! * **[`GraphCatalog`]** (`catalog`) — named data graphs, each prepared
//!   once at registration and shared with every in-flight query through an
//!   `Arc`. Every published state carries an *epoch*: re-registering a name
//!   bumps it, and [`GraphCatalog::update`] applies an [`UpdateBatch`]
//!   through the incremental re-prepare path (untouched PCSR label layers
//!   are shared between epochs) and atomically publishes the next epoch —
//!   in-flight queries finish against the epoch they pinned at submit,
//!   while new queries see the update, and [`ServiceStats`] attributes
//!   every completion to the epoch it ran against.
//! * **[`QueryScheduler`]** (`scheduler`) — one bounded submission queue
//!   in front of a worker-thread pool. The bound *is* the admission
//!   control, the only one in the stack (the network front-end submits
//!   straight from its readers): a full queue
//!   ([`SubmitError::QueueFull`]) or tenant lane
//!   ([`SubmitError::TenantQuota`]) rejects immediately rather than
//!   growing an unbounded backlog. Workers pop the per-tenant lanes
//!   ([`TenantPolicy`]) in deficit-round-robin order weighted by pattern
//!   size. Every accepted query carries a deadline budget; queue wait is
//!   charged against it, the remainder becomes the engine's join-loop
//!   timeout, and a query that expires while queued is failed without
//!   running.
//! * **[`ServiceStats`]** (`stats`) — the metric ledger: every serving
//!   metric (throughput, p50/p99/p99.9 end-to-end latency, timeout and
//!   rejection counts, …) is a handle in one `gsi-obs` registry, declared
//!   once when the service is built and recorded into on the hot path. [`GsiService::stats`] is a typed read of the
//!   handles.
//!
//! On top of the three, the **observability layer** (the `gsi-obs` crate)
//! threads through every served query: each [`QueryOutcome`] carries a
//! [`StageBreakdown`] partitioning its latency into queue / plan / filter
//! / join / respond; [`GsiService::export_metrics`] renders the live
//! registry (counters, gauges, log-linear histograms; the scheduler's and
//! flight recorder's own values are copied in at scrape time) in
//! Prometheus-text or JSON; and a
//! [`FlightRecorder`] retains full traces of the slowest and failed
//! queries ([`GsiService::dump_flight_recorder`]). Per-query span trees
//! are recorded only under [`TraceConfig::On`]
//! ([`ServiceConfig::trace`]) — `Off` is the zero-cost default.
//!
//! [`GsiService`] wires the three together. A query's life: `submit`
//! validates the pattern and resolves the catalog entry → the bounded
//! queue admits or rejects it → a worker runs the engine on the entry it
//! pinned (filter, then a join order planned from that query's own
//! candidate sets as in the paper's Algorithm 2, then the join) and
//! resolves the submitter's [`QueryTicket`]. No plan is cached: planning
//! costs microseconds beside the filter's milliseconds.
//!
//! [`canonicalize`] (`canon`) is kept beside the serving path: its
//! isomorphism-invariant key is what a workload generator dedupes a
//! pattern pool by.
//!
//! ```
//! use gsi_service::{GsiService, QueryRequest, ServiceConfig};
//! use gsi_graph::GraphBuilder;
//!
//! let service = GsiService::new(ServiceConfig::for_tests());
//!
//! let mut b = GraphBuilder::new();
//! let v0 = b.add_vertex(0);
//! let v1 = b.add_vertex(1);
//! let v2 = b.add_vertex(1);
//! b.add_edge(v0, v1, 0);
//! b.add_edge(v0, v2, 0);
//! service.register("social", b.build());
//!
//! let mut qb = GraphBuilder::new();
//! let u0 = qb.add_vertex(0);
//! let u1 = qb.add_vertex(1);
//! qb.add_edge(u0, u1, 0);
//! let query = qb.build();
//!
//! let ticket = service.submit(QueryRequest::new("social", query)).unwrap();
//! let response = ticket.wait();
//! assert_eq!(response.match_count(), 2);
//! println!("{}", service.stats());
//! ```

pub mod canon;
pub mod catalog;
pub mod scheduler;
pub mod stats;
mod tenant;

pub use canon::{canonicalize, CanonicalQuery};
pub use catalog::{CatalogEntry, CatalogUpdate, CatalogUpdateError, GraphCatalog, Registration};
pub use gsi_core::{GraphOp, UpdateBatch, UpdateError};
pub use scheduler::{
    Delivery, QueryError, QueryOutcome, QueryRequest, QueryResponse, QueryScheduler, QueryTicket,
    SubmitError,
};
pub use stats::{EpochStats, ServiceStats, ServiceStatsSnapshot};
pub use tenant::{LaneSnapshot, TenantPolicy};

pub use gsi_api::{ApiError, Completion, PartialReason};

pub use gsi_obs::{
    FlightRecorder, HistogramSnapshot, MetricFormat, MetricsRegistry, QueryTrace, StageBreakdown,
    TraceConfig, TraceOutcome,
};

use gsi_core::{GsiConfig, GsiEngine, PlannerKind};
use gsi_gpu_sim::{DeviceConfig, Gpu};
use gsi_graph::Graph;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// Everything a [`GsiService`] is configured by.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Engine configuration shared by all queries.
    pub engine: GsiConfig,
    /// Simulated device the engine runs on.
    pub device: DeviceConfig,
    /// Worker threads; `0` uses all available parallelism.
    pub workers: usize,
    /// Bounded submission-queue capacity (admission-control threshold).
    pub queue_capacity: usize,
    /// Per-tenant quotas inside that capacity, and the DRR quantum.
    /// Requests without a tenant (the embedding application's own) are
    /// bounded by `queue_capacity` alone.
    pub tenants: TenantPolicy,
    /// Most *compatible* queued queries — same graph, same epoch — one
    /// worker pickup drains into a single batched run over a shared
    /// filter cache (shared candidate filtering; the mechanism of
    /// `GsiEngine::query_batch`). Batches form only from already-queued
    /// work and only when every other worker is busy, so a lone query
    /// never waits and parallel dispatch wins while the pool has idle
    /// capacity; `1` (or `0`) disables batching. Results are
    /// bit-identical either way.
    pub batch_window: usize,
    /// Deadline applied to queries that don't set their own.
    pub default_deadline: Option<Duration>,
    /// Per-query tracing. `Off` (the default) records no span trees and
    /// skips every per-join-step clock read — the zero-cost path; every
    /// served query still gets its coarse [`StageBreakdown`]. `On` builds
    /// a full span tree per query and hands the slowest/failed ones to
    /// the flight recorder with spans attached.
    pub trace: TraceConfig,
    /// Total traces the flight recorder retains (half for the most recent
    /// failures, half for the slowest completed queries; minimum 2).
    pub flight_recorder_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            // The serving stack runs the cost-based optimizer by default:
            // plan quality is the hot path's biggest lever, and the greedy
            // planner stays available via `GsiConfig::with_planner`.
            engine: GsiConfig::gsi_opt().with_planner(PlannerKind::CostBased),
            device: DeviceConfig::titan_xp(),
            workers: 0,
            queue_capacity: 256,
            tenants: TenantPolicy::default(),
            batch_window: 8,
            default_deadline: None,
            trace: TraceConfig::Off,
            flight_recorder_capacity: 64,
        }
    }
}

impl ServiceConfig {
    /// Small deterministic configuration for tests and doc examples: the
    /// shipped engine arm ([`ServiceConfig::default`]'s) on the
    /// single-threaded test device, 2 workers, a short queue.
    pub fn for_tests() -> Self {
        Self {
            engine: Self::default().engine,
            device: DeviceConfig::test_device(),
            workers: 2,
            queue_capacity: 64,
            tenants: TenantPolicy {
                queue_quota: 16,
                inflight_quota: 4,
                quantum: 8,
            },
            batch_window: 4,
            default_deadline: None,
            trace: TraceConfig::Off,
            flight_recorder_capacity: 16,
        }
    }
}

/// Shared state behind the scheduler's workers (crate-internal).
pub(crate) struct ServiceCore {
    pub(crate) engine: GsiEngine,
    pub(crate) catalog: GraphCatalog,
    pub(crate) stats: ServiceStats,
    pub(crate) default_deadline: Option<Duration>,
    /// Workers currently executing a query (the batch window reads it).
    pub(crate) busy_workers: std::sync::atomic::AtomicUsize,
    /// Per-query tracing mode (see [`ServiceConfig::trace`]).
    pub(crate) trace: TraceConfig,
    /// Retained traces of the slowest / failed / panicked queries.
    pub(crate) flight: FlightRecorder,
    /// Service-wide query-id sequence (stamped at pickup).
    pub(crate) query_seq: AtomicU64,
}

impl ServiceCore {
    /// Next service-wide query id.
    pub(crate) fn next_query_id(&self) -> u64 {
        self.query_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }
}

/// The assembled serving system: catalog + scheduler + stats.
///
/// See the crate-level docs for the architecture. Dropping the service
/// stops admissions, drains queued queries, and joins the workers.
pub struct GsiService {
    core: Arc<ServiceCore>,
    scheduler: QueryScheduler,
}

impl GsiService {
    /// Build the service and spawn its worker pool.
    pub fn new(config: ServiceConfig) -> Self {
        let core = Arc::new(ServiceCore {
            engine: GsiEngine::with_gpu(config.engine, Gpu::new(config.device)),
            catalog: GraphCatalog::new(),
            stats: ServiceStats::new(),
            default_deadline: config.default_deadline,
            busy_workers: std::sync::atomic::AtomicUsize::new(0),
            trace: config.trace,
            flight: FlightRecorder::new(config.flight_recorder_capacity),
            query_seq: AtomicU64::new(0),
        });
        let scheduler = QueryScheduler::new(
            Arc::clone(&core),
            config.workers,
            config.queue_capacity,
            config.batch_window,
            config.tenants,
        );
        Self { core, scheduler }
    }

    /// Prepare and register a data graph under `name` (replacing any
    /// previous registration; in-flight queries keep the old graph alive).
    /// The preparation's device work is not serving work:
    /// [`GsiService::stats`] counts only what served queries charged.
    pub fn register(&self, name: &str, graph: Graph) -> Registration {
        let reg = self.core.catalog.register(&self.core.engine, name, graph);
        // A replaced registration's epoch can never serve again; retire its
        // stats entry.
        if let Some(old) = &reg.displaced {
            self.core.stats.retire_epoch(old.epoch());
        }
        reg
    }

    /// Apply a mutation batch to a registered graph and publish the result
    /// as the graph's next epoch (see [`GraphCatalog::update`]).
    ///
    /// Queries in flight keep the old epoch's data pinned and finish
    /// against it; queries submitted after this returns see the new epoch.
    /// The re-prepare's device work is not serving work, like
    /// registration's.
    ///
    /// Every query plans from its own candidate sets, so nothing carries
    /// over from the displaced epoch. The statistics drift between the two
    /// epochs (`GraphStats::drift`) is recorded as an observability reading
    /// only: the `gsi_last_update_drift` gauge.
    ///
    /// An **empty** batch is a cheap no-op: the current epoch stays
    /// published, nothing is re-prepared, and the epoch's stats are
    /// untouched (the returned [`CatalogUpdate`] has
    /// `entry.epoch() == displaced.epoch()`).
    pub fn update_graph(
        &self,
        name: &str,
        batch: &UpdateBatch,
    ) -> Result<CatalogUpdate, CatalogUpdateError> {
        let up = self.core.catalog.update(&self.core.engine, name, batch)?;
        if up.entry.epoch() != up.displaced.epoch() {
            let drift = up
                .displaced
                .prepared()
                .stats()
                .drift(up.entry.prepared().stats());
            self.core
                .stats
                .record_update(up.report.store_incremental(), drift);
            self.core.stats.retire_epoch(up.displaced.epoch());
        }
        Ok(up)
    }

    /// Unregister a graph and retire its epoch's stats entry.
    pub fn unregister_graph(&self, name: &str) -> bool {
        match self.core.catalog.unregister(name) {
            Some(entry) => {
                self.core.stats.retire_epoch(entry.epoch());
                true
            }
            None => false,
        }
    }

    /// Submit a query for asynchronous execution.
    pub fn submit(&self, req: QueryRequest) -> Result<QueryTicket, SubmitError> {
        self.scheduler.submit(req)
    }

    /// Convenience: submit and block for the response.
    pub fn query_blocking(&self, req: QueryRequest) -> Result<QueryResponse, SubmitError> {
        Ok(self.submit(req)?.wait())
    }

    /// The graph catalog.
    pub fn catalog(&self) -> &GraphCatalog {
        &self.core.catalog
    }

    /// The scheduler (queue depth, worker count).
    pub fn scheduler(&self) -> &QueryScheduler {
        &self.scheduler
    }

    /// The engine serving the queries.
    pub fn engine(&self) -> &GsiEngine {
        &self.core.engine
    }

    /// Typed read of the service's metric ledger. `device` is the sum of
    /// the completed queries' own device ledgers — exact however many ran
    /// side by side, since each query charges a ledger of its own.
    pub fn stats(&self) -> ServiceStatsSnapshot {
        self.sample();
        self.core.stats.snapshot()
    }

    /// The service's metrics registry — the ledger itself, every metric
    /// declared once when the service was built — with the values other
    /// components own copied in (a *scrape*, in Prometheus terms).
    /// Declaration order is fixed, so rendered exports are
    /// snapshot-testable. Names follow
    /// `gsi_<subsystem>_<quantity>[_<unit>][_total]` — `_total` marks
    /// monotone counters, units are spelled out (`_us`, `_bytes`,
    /// `_seconds`). A front-end declares its own metrics into the same
    /// registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.sample();
        self.core.stats.registry()
    }

    /// Copy the scheduler's and flight recorder's current values into
    /// their metric handles.
    fn sample(&self) {
        self.core.stats.sample(&self.scheduler, &self.core.flight);
    }

    /// Render the metrics registry in the requested exporter format.
    pub fn export_metrics(&self, format: MetricFormat) -> String {
        self.metrics().render(format)
    }

    /// The flight recorder retaining traces of the slowest, failed, and
    /// panicked queries.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.core.flight
    }

    /// JSON dump of every retained flight-recorder trace.
    pub fn dump_flight_recorder(&self) -> String {
        self.core.flight.to_json()
    }

    /// Stop admissions, drain queued queries, and join the workers.
    pub fn shutdown(mut self) {
        self.scheduler.shutdown();
    }
}

// The whole service is shared across submitting threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GsiService>();
    assert_send_sync::<GraphCatalog>();
    assert_send_sync::<ServiceStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use gsi_graph::GraphBuilder;

    fn data_graph() -> Graph {
        // The Fig. 1-style graph from the engine tests, shrunk.
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(0);
        let bs: Vec<u32> = (0..10).map(|_| b.add_vertex(1)).collect();
        let cs: Vec<u32> = (0..11).map(|_| b.add_vertex(2)).collect();
        for &vb in &bs {
            b.add_edge(v0, vb, 0);
        }
        let last_c = *cs.last().unwrap();
        b.add_edge(v0, last_c, 1);
        for (i, &vb) in bs.iter().enumerate() {
            b.add_edge(vb, cs[i], 0);
            b.add_edge(vb, last_c, 0);
        }
        b.build()
    }

    fn edge_query() -> Graph {
        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(0);
        let u1 = qb.add_vertex(1);
        qb.add_edge(u0, u1, 0);
        qb.build()
    }

    #[test]
    fn end_to_end_serving() {
        let service = GsiService::new(ServiceConfig::for_tests());
        service.register("g", data_graph());
        let resp = service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .expect("submits");
        assert_eq!(resp.match_count(), 10);
        assert!(resp.result.is_ok(), "runs");
        let snap = service.stats();
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn unknown_graph_and_invalid_queries_rejected() {
        let service = GsiService::new(ServiceConfig::for_tests());
        service.register("g", data_graph());
        assert!(matches!(
            service.submit(QueryRequest::new("nope", edge_query())),
            Err(SubmitError::UnknownGraph(_))
        ));
        let empty = GraphBuilder::new().build();
        assert!(matches!(
            service.submit(QueryRequest::new("g", empty)),
            Err(SubmitError::InvalidQuery(_))
        ));
        let mut qb = GraphBuilder::new();
        qb.add_vertex(0);
        qb.add_vertex(1); // two isolated vertices: disconnected
        assert!(matches!(
            service.submit(QueryRequest::new("g", qb.build())),
            Err(SubmitError::InvalidQuery(_))
        ));
    }

    #[test]
    fn deadline_expired_in_queue_fails_without_running() {
        let service = GsiService::new(ServiceConfig::for_tests());
        service.register("g", data_graph());
        // Zero deadline: by the time a worker sees it, it has expired.
        let resp = service
            .query_blocking(QueryRequest::new("g", edge_query()).with_deadline(Duration::ZERO))
            .unwrap();
        assert!(matches!(
            resp.result,
            Err(QueryError::DeadlineExpired { .. })
        ));
        let snap = service.stats();
        assert_eq!(snap.deadline_expired, 1);
        assert_eq!(snap.completed, 0);
    }

    #[test]
    fn unregister_drops_graph() {
        let service = GsiService::new(ServiceConfig::for_tests());
        service.register("g", data_graph());
        service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .unwrap();
        assert!(service.unregister_graph("g"));
        assert!(!service.unregister_graph("g"));
        assert!(matches!(
            service.submit(QueryRequest::new("g", edge_query())),
            Err(SubmitError::UnknownGraph(_))
        ));
    }

    #[test]
    fn reregistration_serves_the_new_epoch() {
        let service = GsiService::new(ServiceConfig::for_tests());
        let first = service.register("g", data_graph()).entry;
        service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .unwrap();
        // Replacing the graph under the same name publishes a new epoch;
        // the next query runs against it.
        let second = service.register("g", data_graph()).entry;
        assert_ne!(second.epoch(), first.epoch());
        let resp = service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .unwrap();
        assert_eq!(resp.result.unwrap().epoch, second.epoch());
    }

    #[test]
    fn empty_update_batch_is_a_noop() {
        let service = GsiService::new(ServiceConfig::for_tests());
        service.register("g", data_graph());
        service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .unwrap();
        let before = service.catalog().get("g").unwrap();

        let up = service
            .update_graph("g", &UpdateBatch::new())
            .expect("empty batch applies trivially");
        // No epoch bump, no re-prepare: the very same entry stays current.
        assert_eq!(up.entry.epoch(), before.epoch());
        assert!(Arc::ptr_eq(&up.entry, &before));
        assert!(Arc::ptr_eq(&up.displaced, &before));
        assert!(!up.report.store_incremental());
        let after = service.catalog().get("g").unwrap();
        assert!(Arc::ptr_eq(&after, &before));

        let resp = service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .unwrap();
        let outcome = resp.result.unwrap();
        assert_eq!(outcome.epoch, before.epoch());
    }

    #[test]
    fn degenerate_submissions_get_typed_errors_and_panic_no_worker() {
        // Regression for the old `query_with_timeout` panic path: a
        // disconnected/degenerate query submitted to the service must be
        // answered with a typed error; no worker may die.
        let service = GsiService::new(ServiceConfig::for_tests());
        service.register("g", data_graph());

        let mut qb = GraphBuilder::new();
        qb.add_vertex(0);
        qb.add_vertex(2); // isolated second vertex: disconnected
        let disconnected = qb.build();
        assert!(matches!(
            service.submit(QueryRequest::new("g", disconnected)),
            Err(SubmitError::InvalidQuery(_))
        ));

        // A label absent from the data flows through the whole pipeline
        // and comes back as an ordinary empty result.
        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(999);
        let u1 = qb.add_vertex(0);
        qb.add_edge(u0, u1, 0);
        let resp = service
            .query_blocking(QueryRequest::new("g", qb.build()))
            .expect("admitted");
        assert_eq!(resp.match_count(), 0);
        assert!(resp.result.is_ok());

        // The pool is intact: a normal query still runs, nothing panicked.
        let resp = service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .unwrap();
        assert_eq!(resp.match_count(), 10);
        assert_eq!(service.stats().worker_panics, 0);
    }

    #[test]
    fn queue_overflow_rejects() {
        // 1 worker, capacity-1 queue: the worker parks on the first slow
        // query, the second fills the queue, later ones must be rejected.
        let cfg = ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::for_tests()
        };
        let service = GsiService::new(cfg);
        // A denser graph so queries take measurable time.
        let mut b = GraphBuilder::new();
        let vs: Vec<u32> = (0..60).map(|i| b.add_vertex(i % 2)).collect();
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                b.add_edge(vs[i], vs[j], 0);
            }
        }
        service.register("dense", b.build());
        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(0);
        let u1 = qb.add_vertex(1);
        let u2 = qb.add_vertex(0);
        let u3 = qb.add_vertex(1);
        qb.add_edge(u0, u1, 0);
        qb.add_edge(u1, u2, 0);
        qb.add_edge(u2, u3, 0);
        let slow_query = qb.build();

        let mut tickets = Vec::new();
        let mut rejected = 0;
        for _ in 0..40 {
            match service.submit(QueryRequest::new("dense", slow_query.clone())) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rejected > 0, "admission control engaged");
        for t in tickets {
            t.wait();
        }
        let snap = service.stats();
        assert_eq!(snap.rejected, rejected);
        assert_eq!(snap.submitted + snap.rejected, 40);
    }

    #[test]
    fn latency_histogram_counts_every_served_query() {
        // Past 65,536 served queries (where a sample reservoir would start
        // decimating), the exported latency histogram still counts every
        // one: `_count` is the completed counter and `_sum` their latency.
        let service = GsiService::new(ServiceConfig::for_tests());
        let n = 70_000u64;
        let mut total_us = 0u64;
        for i in 0..n {
            let us = 1 + i % 5_000;
            total_us += us;
            let latency = Duration::from_micros(us);
            let run = gsi_core::RunStats::default();
            service.core.stats.record_completed(0, latency, &run);
        }
        let text = service.export_metrics(MetricFormat::Prometheus);
        let value = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or_else(|| panic!("no sample {name}"))
        };
        assert_eq!(value("gsi_queries_completed_total"), n);
        assert_eq!(value("gsi_query_latency_us_count"), n);
        assert_eq!(value("gsi_query_latency_us_sum"), total_us);
    }

    #[test]
    fn shutdown_drains_pending_queries() {
        let service = GsiService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::for_tests()
        });
        service.register("g", data_graph());
        let tickets: Vec<QueryTicket> = (0..16)
            .map(|_| {
                service
                    .submit(QueryRequest::new("g", edge_query()))
                    .unwrap()
            })
            .collect();
        service.shutdown();
        for t in tickets {
            assert_eq!(t.wait().match_count(), 10);
        }
    }
}
