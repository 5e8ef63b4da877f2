//! # gsi-service — the concurrent query-serving subsystem
//!
//! The GSI paper splits subgraph isomorphism into an offline *prepare*
//! phase (vertex signatures, PCSR construction — §III-A, §IV) and an
//! online *query* phase (filter + join — §III, §V). That split is exactly
//! the shape of a serving system: preparation is per data graph and
//! amortizes across queries, while real workloads (see "Deep Analysis on
//! Subgraph Isomorphism", Zeng et al.) are streams of many small,
//! *recurring* patterns over a few shared graphs. This crate turns the
//! single-shot [`gsi_core::GsiEngine`] into a multi-tenant server built
//! from four components:
//!
//! * **[`GraphCatalog`]** (`catalog`) — named data graphs, each prepared
//!   once at registration and shared with every in-flight query through an
//!   `Arc`. Every published state carries an *epoch*: re-registering a name
//!   bumps it, and [`GraphCatalog::update`] applies an [`UpdateBatch`]
//!   through the incremental re-prepare path (untouched PCSR label layers
//!   are shared between epochs) and atomically publishes the next epoch —
//!   in-flight queries finish against the epoch they pinned at submit,
//!   while new queries see the update. Cached plans cross an epoch
//!   boundary only deliberately: under the statistics-drift threshold
//!   they migrate, past it each is *re-costed* against the new epoch's
//!   statistics catalog (see [`GsiService::update_graph`]) — and
//!   [`ServiceStats`] attributes every completion to the epoch it ran
//!   against.
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
//! * **[`PlanCache`]** (`plan_cache`) — join orders (Algorithm 2 output)
//!   and candidate-size estimates keyed by `(graph epoch, canonical query
//!   hash)`. The canonical hash (`canon`) is isomorphism-invariant, so a
//!   pattern and any vertex-relabeling of it share one entry; cached plans
//!   are stored in canonical vertex space, mapped through each query's
//!   canonical permutation on lookup, and validated with
//!   [`gsi_core::JoinPlan::covers`] — a hash collision degrades to a cache
//!   miss, never a wrong plan.
//! * **[`ServiceStats`]** (`stats`) — an aggregated ledger: throughput,
//!   p50/p99/p99.9 end-to-end latency, plan-cache hit rate, timeout and
//!   rejection counts. Snapshots are plain data and mergeable across
//!   services.
//!
//! On top of the four, the **observability layer** (the `gsi-obs` crate)
//! threads through every served query: each [`QueryOutcome`] carries a
//! [`StageBreakdown`] partitioning its latency into queue / plan / filter
//! / join / respond; [`GsiService::export_metrics`] renders a typed
//! metrics registry (counters, gauges, log-bucketed histograms populated
//! from the stats ledger, the scheduler, the plan cache, the update path,
//! and the device ledger) in Prometheus-text or JSON; and a
//! [`FlightRecorder`] retains full traces of the slowest and failed
//! queries ([`GsiService::dump_flight_recorder`]). Per-query span trees
//! are recorded only under [`TraceConfig::On`]
//! ([`ServiceConfig::trace`]) — `Off` is the zero-cost default.
//!
//! [`GsiService`] wires the four together. A query's life: `submit`
//! validates the pattern and resolves the catalog entry → the bounded
//! queue admits or rejects it → a worker canonicalizes the pattern,
//! consults the plan cache, runs the engine (reusing the cached join order
//! on a hit), records the executed plan back, and resolves the submitter's
//! [`QueryTicket`].
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
pub mod plan_cache;
pub mod scheduler;
pub mod stats;
mod tenant;

pub use canon::{canonicalize, CanonicalQuery};
pub use catalog::{CatalogEntry, CatalogUpdate, CatalogUpdateError, GraphCatalog, Registration};
pub use gsi_core::{GraphOp, UpdateBatch, UpdateError};
pub use plan_cache::{CachedPlan, PlanCache, PlanEstimates};
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

use gsi_core::{plan_join_estimated, GsiConfig, GsiEngine, JoinPlan, PlannerKind, PreparedData};
use gsi_gpu_sim::{DeviceConfig, Gpu, StatsSnapshot};
use gsi_graph::Graph;
use parking_lot::Mutex;
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
    /// Maximum number of cached plans (LRU beyond it).
    pub plan_cache_capacity: usize,
    /// Statistics-drift threshold for cached-plan survival across epoch
    /// publications (`GraphStats::drift`, in `[0, 1]`). When an update's
    /// drift stays at or below this, the displaced epoch's cached plans
    /// migrate to the new epoch untouched (the data barely moved, the
    /// orders remain good bets); past it, each cached plan is **re-costed**
    /// against the new statistics — re-planned from selectivity estimates,
    /// kept only if the cheapest order is unchanged — so stale orders
    /// cannot outlive the data layout that justified them. `0.0` re-costs
    /// on every update. Only meaningful when the engine planner is
    /// cost-based; a greedy-planner service drops displaced plans outright
    /// (the pre-optimizer behavior).
    pub replan_drift_threshold: f64,
    /// Host-thread budget shared by the intra-query worker pools of
    /// concurrently executing queries (engine backend `HostParallel`;
    /// ignored by `Serial`). Each running query holds a grant of
    /// `budget / busy_workers` threads, capped by what earlier grants
    /// left unclaimed and released when the query finishes — so a lone
    /// query fans out across the whole budget while the *sum* of
    /// concurrent grants stays bounded by the budget (plus the 1-thread
    /// floor each running query keeps), never oversubscribing cores
    /// `workers × threads`-fold. `0` = all available host parallelism.
    pub intra_query_parallelism: usize,
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
            plan_cache_capacity: 1024,
            replan_drift_threshold: 0.25,
            intra_query_parallelism: 0,
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
            plan_cache_capacity: 64,
            default_deadline: None,
            replan_drift_threshold: 0.25,
            intra_query_parallelism: 0,
            trace: TraceConfig::Off,
            flight_recorder_capacity: 16,
        }
    }
}

/// Shared state behind the scheduler's workers (crate-internal).
pub(crate) struct ServiceCore {
    pub(crate) engine: GsiEngine,
    pub(crate) catalog: GraphCatalog,
    pub(crate) plan_cache: PlanCache,
    pub(crate) stats: ServiceStats,
    pub(crate) default_deadline: Option<Duration>,
    /// Statistics-drift bar for cached-plan survival across epochs (see
    /// [`ServiceConfig::replan_drift_threshold`]).
    pub(crate) replan_drift_threshold: f64,
    /// Resolved intra-query thread budget (see
    /// [`ServiceConfig::intra_query_parallelism`]).
    pub(crate) intra_budget: usize,
    /// Workers currently executing a query (divides `intra_budget`).
    pub(crate) busy_workers: std::sync::atomic::AtomicUsize,
    /// Intra-query threads currently granted to running queries; grants
    /// are held for each query's full run, so their sum stays bounded by
    /// `intra_budget` (plus the 1-thread floor per running query).
    pub(crate) intra_granted: std::sync::atomic::AtomicUsize,
    /// Device-ledger work attributable to graph preparation, accumulated
    /// across registrations and subtracted from the serving aggregate in
    /// [`GsiService::stats`].
    pub(crate) prepare_device: Mutex<StatsSnapshot>,
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

/// The assembled serving system: catalog + scheduler + plan cache + stats.
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
        let intra_budget = if config.intra_query_parallelism == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.intra_query_parallelism
        };
        let core = Arc::new(ServiceCore {
            engine: GsiEngine::with_gpu(config.engine, Gpu::new(config.device)),
            catalog: GraphCatalog::new(),
            plan_cache: PlanCache::new(config.plan_cache_capacity),
            stats: ServiceStats::new(),
            default_deadline: config.default_deadline,
            replan_drift_threshold: config.replan_drift_threshold,
            intra_budget,
            busy_workers: std::sync::atomic::AtomicUsize::new(0),
            intra_granted: std::sync::atomic::AtomicUsize::new(0),
            prepare_device: Mutex::new(StatsSnapshot::default()),
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
    ///
    /// The preparation's device work is tracked separately so the serving
    /// aggregate in [`GsiService::stats`] reflects query work only. When a
    /// registration runs concurrently with queries, work from those queries
    /// that lands inside the preparation window is attributed to
    /// preparation — register up front for exact accounting.
    pub fn register(&self, name: &str, graph: Graph) -> Registration {
        let before = self.core.engine.gpu().stats().snapshot();
        let reg = self.core.catalog.register(&self.core.engine, name, graph);
        let delta = self.core.engine.gpu().stats().snapshot() - before;
        {
            let mut prep = self.core.prepare_device.lock();
            *prep = *prep + delta;
        }
        // A replaced registration's epoch can never match again; drop its
        // plans instead of waiting for LRU pressure to evict them, and
        // retire its stats entry.
        if let Some(old) = &reg.displaced {
            self.core.plan_cache.invalidate_scope(old.epoch());
            self.core.stats.retire_epoch(old.epoch());
        }
        reg
    }

    /// Apply a mutation batch to a registered graph and publish the result
    /// as the graph's next epoch (see [`GraphCatalog::update`]).
    ///
    /// Queries in flight keep the old epoch's data pinned and finish
    /// against it; queries submitted after this returns see the new epoch.
    /// The re-prepare's device work is attributed to preparation, like
    /// registration's.
    ///
    /// **Cached plans survive the publication when the data barely moved.**
    /// The statistics catalogs of the two epochs are compared
    /// (`GraphStats::drift`): at or below
    /// [`ServiceConfig::replan_drift_threshold`], the displaced epoch's
    /// cached join orders migrate to the new epoch untouched — recurring
    /// patterns keep hitting the plan cache across a stream of small
    /// updates. Past the threshold (and with the cost-based planner
    /// configured), each cached plan is **re-costed**: re-planned from the
    /// new epoch's statistics and signature-selectivity candidate
    /// estimates, kept only if the cheapest order is unchanged, dropped
    /// otherwise so the pattern's next occurrence re-plans against exact
    /// candidates. A greedy-planner service drops displaced plans outright.
    /// [`ServiceStats`] counts migrations, re-cost survivals, and drops.
    ///
    /// An **empty** batch is a cheap no-op: the current epoch stays
    /// published, nothing is re-prepared, and the epoch's cached plans and
    /// stats are untouched (the returned [`CatalogUpdate`] has
    /// `entry.epoch() == displaced.epoch()`).
    pub fn update_graph(
        &self,
        name: &str,
        batch: &UpdateBatch,
    ) -> Result<CatalogUpdate, CatalogUpdateError> {
        let before = self.core.engine.gpu().stats().snapshot();
        let result = self.core.catalog.update(&self.core.engine, name, batch);
        let delta = self.core.engine.gpu().stats().snapshot() - before;
        {
            let mut prep = self.core.prepare_device.lock();
            *prep = *prep + delta;
        }
        let up = result?;
        if up.entry.epoch() != up.displaced.epoch() {
            let drift = up
                .displaced
                .prepared()
                .stats()
                .drift(up.entry.prepared().stats());
            self.core
                .stats
                .record_update(up.report.store_incremental(), Some(drift));
            self.carry_plans_across_epochs(&up.displaced, &up.entry);
            self.core.stats.retire_epoch(up.displaced.epoch());
        }
        Ok(up)
    }

    /// Decide the fate of `displaced`'s cached plans under `current` (see
    /// [`GsiService::update_graph`]): migrate on small statistics drift,
    /// re-cost past the threshold, drop wholesale for greedy services.
    fn carry_plans_across_epochs(&self, displaced: &CatalogEntry, current: &CatalogEntry) {
        let (old_scope, new_scope) = (displaced.epoch(), current.epoch());
        if self.core.engine.config().planner != PlannerKind::CostBased {
            self.core.plan_cache.invalidate_scope(old_scope);
            return;
        }
        let drift = displaced
            .prepared()
            .stats()
            .drift(current.prepared().stats());
        if drift <= self.core.replan_drift_threshold {
            let migrated = self.core.plan_cache.rekey_scope(old_scope, new_scope);
            self.core.stats.record_plans_migrated(migrated as u64);
            return;
        }
        // Drift past the bar: re-cost every cached order against the new
        // statistics. Candidate sizes come from the selectivity estimator
        // (no query is in flight, so no exact candidate sets exist).
        let cfg = self.core.engine.config();
        let prepared = current.prepared();
        let density = prepared
            .signature_table()
            .map(|table| (table.group_density(), *table.config()));
        let (kept, dropped) = self.core.plan_cache.recost_scope(
            old_scope,
            new_scope,
            |pattern: &Graph, cached: &JoinPlan| {
                let sizes = estimated_candidate_sizes(pattern, prepared, &density);
                match plan_join_estimated(pattern, prepared.stats(), &sizes, cfg) {
                    Ok((best, _)) => best.order == cached.order,
                    Err(_) => false,
                }
            },
        );
        self.core
            .stats
            .record_plans_recosted(kept as u64, dropped as u64);
    }

    /// Unregister a graph and drop its cached plans.
    pub fn unregister_graph(&self, name: &str) -> bool {
        match self.core.catalog.unregister(name) {
            Some(entry) => {
                self.core.plan_cache.invalidate_scope(entry.epoch());
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

    /// The plan cache.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.core.plan_cache
    }

    /// The scheduler (queue depth, worker count).
    pub fn scheduler(&self) -> &QueryScheduler {
        &self.scheduler
    }

    /// The engine serving the queries.
    pub fn engine(&self) -> &GsiEngine {
        &self.core.engine
    }

    /// Aggregated statistics snapshot (plan-cache counters included).
    ///
    /// `run_totals.device` is replaced by an exact device-ledger delta
    /// (total ledger minus preparation work): per-query device snapshots
    /// overlap when queries run concurrently on the shared simulated
    /// device, so summing them would over-count roughly `workers`-fold.
    pub fn stats(&self) -> ServiceStatsSnapshot {
        let mut snap = self.core.stats.snapshot();
        snap.plan_cache_hits = self.core.plan_cache.hits();
        snap.plan_cache_misses = self.core.plan_cache.misses();
        snap.run_totals.device =
            self.core.engine.gpu().stats().snapshot() - *self.core.prepare_device.lock();
        snap
    }

    /// Build the metrics registry from the service's live state.
    ///
    /// Rebuilt on every call (a *scrape*, in Prometheus terms) so values
    /// are always current; registration order is fixed, so rendered
    /// exports are snapshot-testable. Names follow
    /// `gsi_<subsystem>_<quantity>[_<unit>][_total]` — `_total` marks
    /// monotone counters, units are spelled out (`_us`, `_bytes`,
    /// `_seconds`).
    pub fn metrics(&self) -> MetricsRegistry {
        let snap = self.stats();
        let mut reg = MetricsRegistry::new();
        reg.counter(
            "gsi_queries_submitted_total",
            "Queries accepted into the queue.",
            snap.submitted,
        );
        reg.counter(
            "gsi_queries_rejected_total",
            "Queries turned away by admission control.",
            snap.rejected,
        );
        reg.counter(
            "gsi_queries_completed_total",
            "Queries that ran to completion (including engine timeouts).",
            snap.completed,
        );
        reg.counter(
            "gsi_engine_timeouts_total",
            "Completed runs that aborted on the engine timeout/guard.",
            snap.engine_timeouts,
        );
        reg.counter(
            "gsi_deadline_expired_total",
            "Queries whose deadline expired while still queued.",
            snap.deadline_expired,
        );
        reg.counter(
            "gsi_plan_rejected_total",
            "Queries rejected at plan time (typed error, no panic).",
            snap.plan_rejected,
        );
        reg.counter(
            "gsi_worker_panics_total",
            "Query executions that panicked (isolated; the worker survived).",
            snap.worker_panics,
        );
        reg.counter(
            "gsi_query_matches_total",
            "Matches produced by served queries.",
            snap.run_totals.n_matches as u64,
        );
        reg.counter(
            "gsi_batched_queries_total",
            "Queries executed as part of a multi-query batch.",
            snap.batched_queries,
        );
        reg.counter(
            "gsi_filter_demands_computed_total",
            "Distinct filter demands paid in full across batch runs.",
            snap.filter_demands_computed,
        );
        reg.counter(
            "gsi_filter_demands_reused_total",
            "Filter-demand lookups served from a batch's shared cache.",
            snap.filter_demands_reused,
        );
        reg.counter(
            "gsi_planned_greedy_total",
            "Served queries whose join order came from the greedy planner.",
            snap.planned_greedy,
        );
        reg.counter(
            "gsi_planned_cost_based_total",
            "Served queries whose join order came from the cost-based optimizer.",
            snap.planned_cost_based,
        );
        reg.counter(
            "gsi_plans_migrated_total",
            "Cached plans migrated across low-drift epoch publications.",
            snap.plans_migrated,
        );
        reg.counter(
            "gsi_plans_recost_kept_total",
            "Cached plans that survived re-costing after statistics drift.",
            snap.plans_recost_kept,
        );
        reg.counter(
            "gsi_plans_recost_dropped_total",
            "Cached plans dropped by re-costing after statistics drift.",
            snap.plans_recost_dropped,
        );
        reg.counter(
            "gsi_plan_cache_hits_total",
            "Plan-cache lookup hits.",
            snap.plan_cache_hits,
        );
        reg.counter(
            "gsi_plan_cache_misses_total",
            "Plan-cache lookup misses.",
            snap.plan_cache_misses,
        );
        reg.counter(
            "gsi_plan_cache_evictions_total",
            "Plans evicted by the cache's LRU capacity bound.",
            self.core.plan_cache.evictions(),
        );
        reg.counter(
            "gsi_query_replans_total",
            "Mid-query re-plans performed by adaptive execution.",
            snap.run_totals.replans as u64,
        );
        reg.counter(
            "gsi_plan_feedback_hits_total",
            "Served queries that executed a feedback-refined cached plan.",
            snap.plan_feedback_hits,
        );
        reg.counter(
            "gsi_updates_incremental_total",
            "Graph updates applied by incremental PCSR splice.",
            snap.updates_incremental,
        );
        reg.counter(
            "gsi_updates_rebuilt_total",
            "Graph updates applied by wholesale storage rebuild.",
            snap.updates_rebuilt,
        );
        for (i, stage) in ["queue", "plan", "filter", "join", "respond"]
            .iter()
            .enumerate()
        {
            reg.counter(
                &format!("gsi_stage_{stage}_us_total"),
                &format!("Summed {stage}-stage wall time of served queries, microseconds."),
                snap.stage_us[i],
            );
        }
        for (suffix, value) in snap.run_totals.device.metric_fields() {
            reg.counter(
                &format!("gsi_device_{suffix}_total"),
                &format!("Device-ledger {suffix} attributed to serving (preparation excluded)."),
                value,
            );
        }
        reg.gauge(
            "gsi_queue_depth",
            "Queries currently queued.",
            self.scheduler.queue_depth() as f64,
        );
        reg.gauge(
            "gsi_queue_depth_highwater",
            "Deepest the queue has been since the scheduler started.",
            self.scheduler.queue_depth_highwater() as f64,
        );
        reg.gauge(
            "gsi_scheduler_workers",
            "Worker threads serving queries.",
            self.scheduler.n_workers() as f64,
        );
        let lanes = self.scheduler.lanes();
        reg.gauge(
            "gsi_scheduler_lanes",
            "Tenant lanes with queued or in-flight queries.",
            lanes.len() as f64,
        );
        reg.gauge(
            "gsi_scheduler_lane_depth_max",
            "Queries queued in the deepest tenant lane.",
            lanes.iter().map(|l| l.queued).max().unwrap_or(0) as f64,
        );
        reg.gauge(
            "gsi_scheduler_in_flight",
            "Queries dispatched whose response has not been handed over or written yet.",
            lanes.iter().map(|l| l.in_flight).sum::<usize>() as f64,
        );
        reg.gauge(
            "gsi_plan_cache_size",
            "Plans currently cached.",
            self.core.plan_cache.len() as f64,
        );
        reg.gauge(
            "gsi_plan_cache_hit_rate",
            "Plan-cache hit rate over all lookups (0 when none).",
            snap.plan_cache_hit_rate(),
        );
        reg.gauge(
            "gsi_mean_q_error",
            "Mean q-error of served queries' cardinality estimates (NaN before any).",
            snap.mean_estimation_error().unwrap_or(f64::NAN),
        );
        reg.gauge(
            "gsi_mean_pre_replan_q_error",
            "Mean q-error of the static plans adaptive runs abandoned (NaN before any).",
            snap.mean_pre_replan_error().unwrap_or(f64::NAN),
        );
        reg.gauge(
            "gsi_last_update_drift",
            "Statistics drift reported by the most recent epoch publication (NaN before any).",
            snap.last_update_drift.unwrap_or(f64::NAN),
        );
        reg.gauge(
            "gsi_flight_recorder_len",
            "Query traces currently retained by the flight recorder.",
            self.core.flight.len() as f64,
        );
        reg.gauge(
            "gsi_service_uptime_seconds",
            "Time the service's statistics ledger has been live.",
            snap.elapsed.as_secs_f64(),
        );
        reg.histogram(
            "gsi_query_latency_us",
            "End-to-end latency of served queries, microseconds (reservoir-sampled).",
            HistogramSnapshot::from_samples(snap.latencies_us.iter().copied()),
        );
        // Batch-fill counts are exact small integers, so the histogram
        // uses one bucket per observed fill instead of log spacing.
        let fill = HistogramSnapshot {
            buckets: snap.batch_fill.iter().map(|(&n, &c)| (n, c)).collect(),
            sum: snap.batch_fill.iter().map(|(&n, &c)| n * c).sum(),
            count: snap.batch_fill.values().sum(),
        };
        reg.histogram(
            "gsi_batch_fill",
            "Compatible queries drained per worker pickup.",
            fill,
        );
        reg
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

/// Candidate-size estimates for a pattern against prepared data, without
/// running any filter: the signature-selectivity estimator when a signature
/// table exists, the raw label-class sizes otherwise.
fn estimated_candidate_sizes(
    pattern: &Graph,
    prepared: &PreparedData,
    density: &Option<(gsi_signature::GroupDensity, gsi_signature::SignatureConfig)>,
) -> Vec<f64> {
    let stats = prepared.stats();
    (0..pattern.n_vertices())
        .map(|u| {
            let u = u as gsi_graph::VertexId;
            let class = stats.vlabel_count(pattern.vlabel(u));
            match density {
                Some((density, sig_cfg)) => {
                    let sig = gsi_signature::encode::encode_vertex(pattern, u, sig_cfg);
                    gsi_signature::estimate_candidates(&sig, class, density)
                }
                None => class as f64,
            }
        })
        .collect()
}

// The whole service is shared across submitting threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GsiService>();
    assert_send_sync::<GraphCatalog>();
    assert_send_sync::<PlanCache>();
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
        let outcome = resp.result.expect("runs");
        assert!(!outcome.plan_cache_hit, "first run computes the plan");
        let snap = service.stats();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.plan_cache_misses, 1);
    }

    #[test]
    fn repeat_queries_hit_the_plan_cache() {
        let service = GsiService::new(ServiceConfig::for_tests());
        service.register("g", data_graph());
        for i in 0..4 {
            let resp = service
                .query_blocking(QueryRequest::new("g", edge_query()))
                .unwrap();
            let outcome = resp.result.unwrap();
            assert_eq!(outcome.plan_cache_hit, i > 0, "hit from the 2nd run on");
            assert_eq!(resp.graph, "g");
        }
        let snap = service.stats();
        assert!(snap.plan_cache_hit_rate() > 0.5);
        assert!(snap.p50().is_some() && snap.p99().is_some());
        assert!(snap.throughput_qps() > 0.0);
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
    fn unregister_drops_graph_and_plans() {
        let service = GsiService::new(ServiceConfig::for_tests());
        service.register("g", data_graph());
        service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .unwrap();
        assert_eq!(service.plan_cache().len(), 1);
        assert!(service.unregister_graph("g"));
        assert_eq!(service.plan_cache().len(), 0);
        assert!(!service.unregister_graph("g"));
        assert!(matches!(
            service.submit(QueryRequest::new("g", edge_query())),
            Err(SubmitError::UnknownGraph(_))
        ));
    }

    #[test]
    fn reregistration_drops_stale_plans() {
        let service = GsiService::new(ServiceConfig::for_tests());
        service.register("g", data_graph());
        service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .unwrap();
        assert_eq!(service.plan_cache().len(), 1);
        // Replacing the graph under the same name must invalidate the old
        // epoch's plans; the next query misses and re-plans.
        service.register("g", data_graph());
        assert_eq!(service.plan_cache().len(), 0);
        let resp = service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .unwrap();
        assert!(!resp.result.unwrap().plan_cache_hit);
        assert_eq!(service.plan_cache().len(), 1);
    }

    #[test]
    fn host_parallel_service_grants_budgeted_intra_threads() {
        use gsi_core::BackendKind;
        let mut cfg = ServiceConfig::for_tests();
        cfg.engine = cfg.engine.with_backend(BackendKind::HostParallel, 1);
        cfg.workers = 1;
        cfg.intra_query_parallelism = 6;
        let service = GsiService::new(cfg);
        service.register("g", data_graph());
        let resp = service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .unwrap();
        let outcome = resp.result.expect("runs");
        // One busy worker → the whole budget goes to this query.
        assert_eq!(outcome.intra_threads, 6);
        assert_eq!(outcome.output.matches.len(), 10);
    }

    #[test]
    fn serial_service_reports_one_intra_thread() {
        let service = GsiService::new(ServiceConfig::for_tests());
        service.register("g", data_graph());
        let resp = service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .unwrap();
        assert_eq!(resp.result.expect("runs").intra_threads, 1);
    }

    #[test]
    fn empty_update_batch_is_a_noop() {
        let service = GsiService::new(ServiceConfig::for_tests());
        service.register("g", data_graph());
        service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .unwrap();
        assert_eq!(service.plan_cache().len(), 1);
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

        // No plan-cache invalidation: the next query still hits.
        assert_eq!(service.plan_cache().len(), 1);
        let resp = service
            .query_blocking(QueryRequest::new("g", edge_query()))
            .unwrap();
        let outcome = resp.result.unwrap();
        assert!(outcome.plan_cache_hit, "cached plan survived the no-op");
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
