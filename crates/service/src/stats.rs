//! The service's metric ledger.
//!
//! Every serving metric is a handle in one `gsi-obs` [`MetricsRegistry`],
//! declared once (name, help, kind) when the ledger is built. The
//! scheduler's `record_*` calls add to those handles — relaxed atomics, no
//! lock except the per-epoch map — and a scrape renders the same handles,
//! after [`ServiceStats`] has copied in the few values other components
//! own (queue depth and lanes, plan-cache size and traffic, flight-recorder
//! occupancy, uptime). Device work is recorded per completed query, from
//! the query's own device ledger.
//!
//! End-to-end latency and batch fill are log-linear histograms
//! ([`gsi_obs::Histogram`]): every served query is counted, and p50 / p99
//! / p99.9 are read from those exact counts, over-reporting by at most
//! 1/16. [`ServiceStatsSnapshot`] is a typed read of the handles.
//! Per-epoch attribution is a keyed map, not a metric, and stays beside
//! the registry.

use crate::{PlanCache, QueryScheduler};
use gsi_core::{PlannerKind, RunStats};
use gsi_gpu_sim::StatsSnapshot;
use gsi_obs::{
    Counter, FlightRecorder, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, StageBreakdown,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Most recently *retired* epochs whose per-epoch counters are retained.
/// Every `update_graph` bumps the epoch, so a long-running serving loop
/// would otherwise accumulate (and `snapshot()` would clone) one entry per
/// update ever applied. Only epochs the service has explicitly retired
/// ([`ServiceStats::retire_epoch`] — displaced by an update or
/// re-registration, or unregistered) are evictable; a currently-serving
/// epoch is never dropped, however many graphs the catalog holds.
const RETIRED_EPOCH_CAP: usize = 64;

/// Live, thread-safe metric ledger for one service.
#[derive(Debug)]
///
/// Single-counter events are recorded straight into the crate-visible
/// handles (each one's help text says what it counts); the `record_*`
/// methods cover events that touch several.
pub struct ServiceStats {
    started: Instant,
    registry: MetricsRegistry,
    pub(crate) submitted: Counter,
    /// Queue-full and tenant-quota refusals.
    pub(crate) rejected: Counter,
    completed: Counter,
    engine_timeouts: Counter,
    pub(crate) deadline_expired: Counter,
    pub(crate) plan_rejected: Counter,
    pub(crate) worker_panics: Counter,
    matches: Counter,
    /// Members of multi-query batches; singleton runs are not counted.
    pub(crate) batched_queries: Counter,
    /// Filter-demand lookups of multi-query batches: `computed` paid a full
    /// filter pass, `reused` shared one (singleton runs are not counted, so
    /// the reuse rate reads as what batching bought).
    pub(crate) filter_demands_computed: Counter,
    pub(crate) filter_demands_reused: Counter,
    planned_greedy: Counter,
    planned_cost_based: Counter,
    pub(crate) plans_migrated: Counter,
    pub(crate) plans_recost_kept: Counter,
    pub(crate) plans_recost_dropped: Counter,
    plan_cache_hits: Counter,
    plan_cache_misses: Counter,
    plan_cache_evictions: Counter,
    replans: Counter,
    plan_feedback_hits: Counter,
    updates_incremental: Counter,
    updates_rebuilt: Counter,
    /// Summed per-stage wall time of served queries, microseconds, in
    /// `StageBreakdown::stages` order.
    stage_us: [Counter; 5],
    /// Summed device ledgers of completed queries, in
    /// `StatsSnapshot::metric_fields` order.
    device: [Counter; 8],
    queue_depth: Gauge,
    queue_depth_highwater: Gauge,
    workers: Gauge,
    lanes: Gauge,
    lane_depth_max: Gauge,
    in_flight: Gauge,
    plan_cache_size: Gauge,
    plan_cache_hit_rate: Gauge,
    mean_q_error: Gauge,
    mean_pre_replan_q_error: Gauge,
    last_update_drift: Gauge,
    flight_recorder_len: Gauge,
    uptime: Gauge,
    /// End-to-end (submit → response) latency of *served* queries,
    /// microseconds. Failed queries (deadline expiry, worker panic) are
    /// counted but not observed, so percentiles reflect answers actually
    /// delivered, not the deadline constant.
    latency_us: Histogram,
    /// Compatible queries drained per worker pickup, singletons included,
    /// so the distribution shows how often batching found company.
    pub(crate) batch_fill: Histogram,
    /// Inputs of the mean-q-error gauges (not exported themselves).
    estimation_error_sum: Gauge,
    estimation_samples: Counter,
    pre_replan_error_sum: Gauge,
    pre_replan_samples: Counter,
    /// Served-query counters keyed by the catalog epoch each query pinned —
    /// the observable record that epoch-versioned serving attributed every
    /// query to the graph state it actually ran against. Entries for live
    /// epochs are kept unconditionally (at most one per registered graph);
    /// retired epochs keep the [`RETIRED_EPOCH_CAP`] most recent.
    per_epoch: Mutex<BTreeMap<u64, EpochStats>>,
    /// Epochs retired by the service, oldest first (the eviction queue).
    retired_epochs: Mutex<VecDeque<u64>>,
}

/// Served-query counters for one catalog epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Queries completed against this epoch's data.
    pub completed: u64,
    /// Matches those queries produced.
    pub matches: u64,
    /// Of the completed queries, how many hit the engine timeout/guard.
    pub engine_timeouts: u64,
}

impl Default for ServiceStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceStats {
    /// Fresh ledger with every metric declared; throughput and uptime are
    /// measured from this instant. Declaration order is export order.
    pub fn new() -> Self {
        let r = MetricsRegistry::new();
        Self {
            started: Instant::now(),
            submitted: r.counter(
                "gsi_queries_submitted_total",
                "Queries accepted into the queue.",
            ),
            rejected: r.counter(
                "gsi_queries_rejected_total",
                "Queries turned away by admission control.",
            ),
            completed: r.counter(
                "gsi_queries_completed_total",
                "Queries that ran to completion (including engine timeouts).",
            ),
            engine_timeouts: r.counter(
                "gsi_engine_timeouts_total",
                "Completed runs that aborted on the engine timeout/guard.",
            ),
            deadline_expired: r.counter(
                "gsi_deadline_expired_total",
                "Queries whose deadline expired while still queued.",
            ),
            plan_rejected: r.counter(
                "gsi_plan_rejected_total",
                "Queries rejected at plan time (typed error, no panic).",
            ),
            worker_panics: r.counter(
                "gsi_worker_panics_total",
                "Query executions that panicked (isolated; the worker survived).",
            ),
            matches: r.counter(
                "gsi_query_matches_total",
                "Matches produced by served queries.",
            ),
            batched_queries: r.counter(
                "gsi_batched_queries_total",
                "Queries executed as part of a multi-query batch.",
            ),
            filter_demands_computed: r.counter(
                "gsi_filter_demands_computed_total",
                "Distinct filter demands paid in full across batch runs.",
            ),
            filter_demands_reused: r.counter(
                "gsi_filter_demands_reused_total",
                "Filter-demand lookups served from a batch's shared cache.",
            ),
            planned_greedy: r.counter(
                "gsi_planned_greedy_total",
                "Served queries whose join order came from the greedy planner.",
            ),
            planned_cost_based: r.counter(
                "gsi_planned_cost_based_total",
                "Served queries whose join order came from the cost-based optimizer.",
            ),
            plans_migrated: r.counter(
                "gsi_plans_migrated_total",
                "Cached plans migrated across low-drift epoch publications.",
            ),
            plans_recost_kept: r.counter(
                "gsi_plans_recost_kept_total",
                "Cached plans that survived re-costing after statistics drift.",
            ),
            plans_recost_dropped: r.counter(
                "gsi_plans_recost_dropped_total",
                "Cached plans dropped by re-costing after statistics drift.",
            ),
            plan_cache_hits: r.counter("gsi_plan_cache_hits_total", "Plan-cache lookup hits."),
            plan_cache_misses: r
                .counter("gsi_plan_cache_misses_total", "Plan-cache lookup misses."),
            plan_cache_evictions: r.counter(
                "gsi_plan_cache_evictions_total",
                "Plans evicted by the cache's LRU capacity bound.",
            ),
            replans: r.counter(
                "gsi_query_replans_total",
                "Mid-query re-plans performed by adaptive execution.",
            ),
            plan_feedback_hits: r.counter(
                "gsi_plan_feedback_hits_total",
                "Served queries that executed a feedback-refined cached plan.",
            ),
            updates_incremental: r.counter(
                "gsi_updates_incremental_total",
                "Graph updates applied by incremental PCSR splice.",
            ),
            updates_rebuilt: r.counter(
                "gsi_updates_rebuilt_total",
                "Graph updates applied by wholesale storage rebuild.",
            ),
            stage_us: StageBreakdown::default().stages().map(|(stage, _)| {
                let stage = stage.name();
                r.counter(
                    &format!("gsi_stage_{stage}_us_total"),
                    &format!("Summed {stage}-stage wall time of served queries, microseconds."),
                )
            }),
            device: StatsSnapshot::default().metric_fields().map(|(suffix, _)| {
                r.counter(
                    &format!("gsi_device_{suffix}_total"),
                    &format!(
                        "Device-ledger {suffix} attributed to serving (preparation excluded)."
                    ),
                )
            }),
            queue_depth: r.gauge("gsi_queue_depth", "Queries currently queued."),
            queue_depth_highwater: r.gauge(
                "gsi_queue_depth_highwater",
                "Deepest the queue has been since the scheduler started.",
            ),
            workers: r.gauge("gsi_scheduler_workers", "Worker threads serving queries."),
            lanes: r.gauge(
                "gsi_scheduler_lanes",
                "Tenant lanes with queued or in-flight queries.",
            ),
            lane_depth_max: r.gauge(
                "gsi_scheduler_lane_depth_max",
                "Queries queued in the deepest tenant lane.",
            ),
            in_flight: r.gauge(
                "gsi_scheduler_in_flight",
                "Queries dispatched whose response has not been handed over or written yet.",
            ),
            plan_cache_size: r.gauge("gsi_plan_cache_size", "Plans currently cached."),
            plan_cache_hit_rate: r.gauge(
                "gsi_plan_cache_hit_rate",
                "Plan-cache hit rate over all lookups (0 when none).",
            ),
            mean_q_error: r.gauge(
                "gsi_mean_q_error",
                "Mean q-error of served queries' cardinality estimates (NaN before any).",
            ),
            mean_pre_replan_q_error: r.gauge(
                "gsi_mean_pre_replan_q_error",
                "Mean q-error of the static plans adaptive runs abandoned (NaN before any).",
            ),
            last_update_drift: {
                let drift = r.gauge(
                    "gsi_last_update_drift",
                    "Statistics drift reported by the most recent epoch publication (NaN before any).",
                );
                drift.set(f64::NAN);
                drift
            },
            flight_recorder_len: r.gauge(
                "gsi_flight_recorder_len",
                "Query traces currently retained by the flight recorder.",
            ),
            uptime: r.gauge(
                "gsi_service_uptime_seconds",
                "Time the service's statistics ledger has been live.",
            ),
            latency_us: r.histogram(
                "gsi_query_latency_us",
                "End-to-end latency of served queries, microseconds.",
            ),
            batch_fill: r.histogram(
                "gsi_batch_fill",
                "Compatible queries drained per worker pickup.",
            ),
            estimation_error_sum: Gauge::default(),
            estimation_samples: Counter::default(),
            pre_replan_error_sum: Gauge::default(),
            pre_replan_samples: Counter::default(),
            per_epoch: Mutex::new(BTreeMap::new()),
            retired_epochs: Mutex::new(VecDeque::new()),
            registry: r,
        }
    }

    /// The registry every metric of this ledger is declared in.
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A served query executed a join order of the given provenance;
    /// `estimation_error` is its plan's mean q-error when the run executed
    /// at least one join position.
    pub fn record_planned(&self, planner: PlannerKind, estimation_error: Option<f64>) {
        match planner {
            PlannerKind::Greedy => self.planned_greedy.inc(),
            PlannerKind::CostBased => self.planned_cost_based.inc(),
        };
        // Belt-and-braces: `ExplainPlan::mean_q_error` guards its inputs,
        // but a non-finite sample would poison the accumulated sum for the
        // rest of the service's life, so the sink checks too.
        if let Some(err) = estimation_error.filter(|e| e.is_finite()) {
            self.estimation_error_sum.add(err);
            self.estimation_samples.inc();
        }
    }

    /// A served query's adaptive-execution record: `feedback_hit` is
    /// whether its executed order came from a feedback-refined cache
    /// entry, `pre_replan_q_error` the static plan's measured q-error at
    /// the run's first mid-query re-plan (`None` when it never re-planned;
    /// non-finite samples are dropped, like `record_planned`'s). The
    /// re-plan *count* comes from `RunStats::replans` via
    /// [`ServiceStats::record_completed`].
    pub fn record_adaptive(&self, feedback_hit: bool, pre_replan_q_error: Option<f64>) {
        if feedback_hit {
            self.plan_feedback_hits.inc();
        }
        if let Some(q) = pre_replan_q_error.filter(|q| q.is_finite()) {
            self.pre_replan_error_sum.add(q);
            self.pre_replan_samples.inc();
        }
    }

    /// A graph update was applied: `incremental` is whether storage took
    /// the PCSR splice path (vs a wholesale rebuild), `drift` the
    /// statistics drift the epoch publication reported.
    pub fn record_update(&self, incremental: bool, drift: Option<f64>) {
        if incremental {
            self.updates_incremental.inc();
        } else {
            self.updates_rebuilt.inc();
        }
        if let Some(d) = drift.filter(|d| d.is_finite()) {
            self.last_update_drift.set(d);
        }
    }

    /// A served query's stage breakdown (summed into per-stage totals).
    pub fn record_stage_breakdown(&self, breakdown: &StageBreakdown) {
        for (total, (_, d)) in self.stage_us.iter().zip(breakdown.stages()) {
            total.add(d.as_micros() as u64);
        }
    }

    /// A query ran to completion (`stats` is its engine run report, with
    /// its own device ledger). `epoch` is the catalog epoch whose data the
    /// query pinned.
    pub fn record_completed(&self, epoch: u64, latency: Duration, stats: &RunStats) {
        self.completed.inc();
        for (counter, (_, value)) in self.device.iter().zip(stats.device.metric_fields()) {
            counter.add(value);
        }
        if stats.timed_out {
            self.engine_timeouts.inc();
        }
        self.latency_us.observe(latency.as_micros() as u64);
        self.matches.add(stats.n_matches as u64);
        self.replans.add(stats.replans as u64);
        let mut per_epoch = self.per_epoch.lock();
        let e = per_epoch.entry(epoch).or_default();
        e.completed += 1;
        e.matches += stats.n_matches as u64;
        if stats.timed_out {
            e.engine_timeouts += 1;
        }
    }

    /// Mark an epoch retired (displaced by an update or re-registration,
    /// or unregistered): its counters become evictable, and the oldest
    /// retired epochs beyond the retention cap are dropped. Live
    /// epochs are never evicted, so per-epoch attribution stays exact for
    /// every graph still serving.
    pub fn retire_epoch(&self, epoch: u64) {
        let mut retired = self.retired_epochs.lock();
        retired.push_back(epoch);
        if retired.len() > RETIRED_EPOCH_CAP {
            let mut per_epoch = self.per_epoch.lock();
            while retired.len() > RETIRED_EPOCH_CAP {
                if let Some(old) = retired.pop_front() {
                    per_epoch.remove(&old);
                }
            }
        }
    }

    /// Copy the values other components own into their handles, and
    /// derive the rate and mean gauges; done before every read of the
    /// ledger. Counters only ever rise, so racing reads cannot make one
    /// look reset.
    pub(crate) fn sample(
        &self,
        scheduler: &QueryScheduler,
        plan_cache: &PlanCache,
        flight: &FlightRecorder,
    ) {
        self.queue_depth.set(scheduler.queue_depth() as f64);
        self.queue_depth_highwater
            .set(scheduler.queue_depth_highwater() as f64);
        self.workers.set(scheduler.n_workers() as f64);
        let lanes = scheduler.lanes();
        self.lanes.set(lanes.len() as f64);
        let deepest = lanes.iter().map(|l| l.queued).max().unwrap_or(0);
        self.lane_depth_max.set(deepest as f64);
        let in_flight: usize = lanes.iter().map(|l| l.in_flight).sum();
        self.in_flight.set(in_flight as f64);
        self.plan_cache_size.set(plan_cache.len() as f64);
        self.plan_cache_hits.raise_to(plan_cache.hits());
        self.plan_cache_misses.raise_to(plan_cache.misses());
        self.plan_cache_evictions.raise_to(plan_cache.evictions());
        let (hits, misses) = (self.plan_cache_hits.get(), self.plan_cache_misses.get());
        self.plan_cache_hit_rate.set(rate(hits, hits + misses));
        let mean_q = mean(
            self.estimation_error_sum.get(),
            self.estimation_samples.get(),
        );
        self.mean_q_error.set(mean_q.unwrap_or(f64::NAN));
        let pre_replan = mean(
            self.pre_replan_error_sum.get(),
            self.pre_replan_samples.get(),
        );
        self.mean_pre_replan_q_error
            .set(pre_replan.unwrap_or(f64::NAN));
        self.flight_recorder_len.set(flight.len() as f64);
        self.uptime.set(self.started.elapsed().as_secs_f64());
    }

    /// Typed read of every handle. Values other components own are as of
    /// the last sample (`GsiService::stats` samples first).
    pub fn snapshot(&self) -> ServiceStatsSnapshot {
        let drift = self.last_update_drift.get();
        ServiceStatsSnapshot {
            elapsed: self.started.elapsed(),
            submitted: self.submitted.get(),
            rejected: self.rejected.get(),
            completed: self.completed.get(),
            engine_timeouts: self.engine_timeouts.get(),
            deadline_expired: self.deadline_expired.get(),
            plan_rejected: self.plan_rejected.get(),
            worker_panics: self.worker_panics.get(),
            matches: self.matches.get(),
            batched_queries: self.batched_queries.get(),
            filter_demands_computed: self.filter_demands_computed.get(),
            filter_demands_reused: self.filter_demands_reused.get(),
            planned_greedy: self.planned_greedy.get(),
            planned_cost_based: self.planned_cost_based.get(),
            plans_migrated: self.plans_migrated.get(),
            plans_recost_kept: self.plans_recost_kept.get(),
            plans_recost_dropped: self.plans_recost_dropped.get(),
            estimation_error_sum: self.estimation_error_sum.get(),
            estimation_samples: self.estimation_samples.get(),
            plan_feedback_hits: self.plan_feedback_hits.get(),
            replans: self.replans.get(),
            pre_replan_error_sum: self.pre_replan_error_sum.get(),
            pre_replan_samples: self.pre_replan_samples.get(),
            updates_incremental: self.updates_incremental.get(),
            updates_rebuilt: self.updates_rebuilt.get(),
            last_update_drift: (!drift.is_nan()).then_some(drift),
            batch_fill: self.batch_fill.snapshot(),
            stage_us: self.stage_us.each_ref().map(Counter::get),
            plan_cache_hits: self.plan_cache_hits.get(),
            plan_cache_misses: self.plan_cache_misses.get(),
            device: StatsSnapshot::from_metric_values(self.device.each_ref().map(Counter::get)),
            latency_us: self.latency_us.snapshot(),
            per_epoch: self.per_epoch.lock().clone(),
        }
    }

    /// Served-query counters for one catalog epoch (`None`: no query
    /// completed against it).
    pub fn epoch_stats(&self, epoch: u64) -> Option<EpochStats> {
        self.per_epoch.lock().get(&epoch).copied()
    }
}

/// `part / whole`, 0 when `whole` is.
fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `sum / n`, `None` when `n` is 0.
fn mean(sum: f64, n: u64) -> Option<f64> {
    (n > 0).then(|| sum / n as f64)
}

/// Typed read of one service's [`ServiceStats`] handles.
#[derive(Debug, Clone)]
pub struct ServiceStatsSnapshot {
    /// Time the ledger has been live.
    pub elapsed: Duration,
    /// Queries accepted into the queue.
    pub submitted: u64,
    /// Queries rejected by admission control.
    pub rejected: u64,
    /// Queries that ran to completion (including engine timeouts).
    pub completed: u64,
    /// Completed runs that aborted on the engine's timeout/guard.
    pub engine_timeouts: u64,
    /// Queries whose deadline expired while still queued.
    pub deadline_expired: u64,
    /// Queries rejected at plan time (typed `PlanError`, no panic).
    pub plan_rejected: u64,
    /// Query executions that panicked (isolated; the worker survived).
    pub worker_panics: u64,
    /// Matches produced by completed queries.
    pub matches: u64,
    /// Queries that executed as part of a multi-query batch (shared
    /// candidate filtering); singleton runs are not counted.
    pub batched_queries: u64,
    /// Distinct filter demands computed across multi-query batch runs
    /// (each paid one full filter pass; singleton runs are not counted).
    pub filter_demands_computed: u64,
    /// Filter-demand lookups served from a batch's shared cache (each
    /// skipped a pass; singleton runs are not counted).
    pub filter_demands_reused: u64,
    /// Served queries whose executed join order came from the greedy
    /// planner (Algorithm 2) — fresh runs and cache hits alike.
    pub planned_greedy: u64,
    /// Served queries whose executed join order came from the cost-based
    /// optimizer.
    pub planned_cost_based: u64,
    /// Cached plans migrated across an epoch publication whose statistics
    /// drift stayed under the replan threshold.
    pub plans_migrated: u64,
    /// Cached plans that survived re-costing at a past-threshold epoch
    /// publication (cheapest order unchanged under the new statistics).
    pub plans_recost_kept: u64,
    /// Cached plans dropped by re-costing (the new statistics prefer a
    /// different order; the pattern re-plans on next occurrence).
    pub plans_recost_dropped: u64,
    /// Summed per-query mean q-errors of cardinality estimates (see
    /// [`ServiceStatsSnapshot::mean_estimation_error`]).
    pub estimation_error_sum: f64,
    /// Queries contributing to `estimation_error_sum`.
    pub estimation_samples: u64,
    /// Served queries whose executed join order came from a plan-cache
    /// entry that cardinality feedback had refined (see
    /// `PlanCache::record`).
    pub plan_feedback_hits: u64,
    /// Mid-query re-plans performed by adaptive execution.
    pub replans: u64,
    /// Summed q-errors of the static plans adaptive runs abandoned at
    /// their first mid-query re-plan (see
    /// [`ServiceStatsSnapshot::mean_pre_replan_error`]).
    pub pre_replan_error_sum: f64,
    /// Queries contributing to `pre_replan_error_sum`.
    pub pre_replan_samples: u64,
    /// Graph updates whose storage took the incremental PCSR splice path.
    pub updates_incremental: u64,
    /// Graph updates that rebuilt storage wholesale.
    pub updates_rebuilt: u64,
    /// Statistics drift of the most recent epoch publication.
    pub last_update_drift: Option<f64>,
    /// Batch-pickup fill distribution (every fill up to 32 is a bucket of
    /// its own).
    pub batch_fill: HistogramSnapshot,
    /// Summed per-stage wall time of served queries, microseconds, in
    /// queue/plan/filter/join/respond order.
    pub stage_us: [u64; 5],
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses.
    pub plan_cache_misses: u64,
    /// Device work of completed queries: the sum of their own device
    /// ledgers (graph preparation excluded). Exact under concurrency —
    /// each query charges a ledger no other query touches.
    pub device: StatsSnapshot,
    /// End-to-end latency distribution of *served* queries, microseconds.
    pub latency_us: HistogramSnapshot,
    /// Served-query counters keyed by catalog epoch: which graph state each
    /// completed query actually ran against under epoch-versioned updates
    /// (the most recent epochs; old entries are evicted).
    pub per_epoch: BTreeMap<u64, EpochStats>,
}

impl ServiceStatsSnapshot {
    /// Completed queries per second since the ledger started.
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Latency percentile (`q` in `[0, 1]`) of the served queries, read as
    /// its histogram bucket's upper bound (at most 1/16 over the exact
    /// nearest-rank value, never under); `None` before any.
    pub fn latency_percentile(&self, q: f64) -> Option<Duration> {
        self.latency_us.percentile(q).map(Duration::from_micros)
    }

    /// Median end-to-end latency.
    pub fn p50(&self) -> Option<Duration> {
        self.latency_percentile(0.50)
    }

    /// 99th-percentile end-to-end latency.
    pub fn p99(&self) -> Option<Duration> {
        self.latency_percentile(0.99)
    }

    /// 99.9th-percentile end-to-end latency — the tail the flight recorder
    /// retains traces for.
    pub fn p999(&self) -> Option<Duration> {
        self.latency_percentile(0.999)
    }

    /// Plan-cache hit rate over all lookups, 0 when none.
    pub fn plan_cache_hit_rate(&self) -> f64 {
        rate(
            self.plan_cache_hits,
            self.plan_cache_hits + self.plan_cache_misses,
        )
    }

    /// Mean q-error of served queries' per-plan cardinality estimates
    /// (1.0 = perfect estimation); `None` before any join executed.
    pub fn mean_estimation_error(&self) -> Option<f64> {
        mean(self.estimation_error_sum, self.estimation_samples)
    }

    /// Mean q-error of the static plans that adaptive runs abandoned at
    /// their first mid-query re-plan (`None` before any run re-planned).
    /// Compare against [`ServiceStatsSnapshot::mean_estimation_error`],
    /// which measures the plans actually *executed*: the gap is what
    /// cardinality feedback bought.
    pub fn mean_pre_replan_error(&self) -> Option<f64> {
        mean(self.pre_replan_error_sum, self.pre_replan_samples)
    }

    /// Fraction of multi-query-batch filter-demand lookups served from
    /// the shared cache instead of a fresh filter pass, in `[0, 1]`; 0
    /// when no multi-query batch ran.
    pub fn filter_reuse_rate(&self) -> f64 {
        rate(
            self.filter_demands_reused,
            self.filter_demands_computed + self.filter_demands_reused,
        )
    }
}

impl std::fmt::Display for ServiceStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "queries: {} submitted, {} completed, {} rejected, {} deadline-expired, \
             {} engine timeouts, {} plan-rejected, {} panics",
            self.submitted,
            self.completed,
            self.rejected,
            self.deadline_expired,
            self.engine_timeouts,
            self.plan_rejected,
            self.worker_panics
        )?;
        writeln!(
            f,
            "throughput: {:.1} q/s over {:.2?}",
            self.throughput_qps(),
            self.elapsed
        )?;
        match (self.p50(), self.p99()) {
            (Some(p50), Some(p99)) => writeln!(f, "latency: p50 {p50:.2?}, p99 {p99:.2?}")?,
            _ => writeln!(f, "latency: no samples")?,
        }
        writeln!(
            f,
            "plan cache: {:.0}% hit rate ({} hits / {} misses)",
            self.plan_cache_hit_rate() * 100.0,
            self.plan_cache_hits,
            self.plan_cache_misses
        )?;
        writeln!(
            f,
            "batching: {} batched queries; filter reuse {:.0}% ({} shared / {} computed)",
            self.batched_queries,
            self.filter_reuse_rate() * 100.0,
            self.filter_demands_reused,
            self.filter_demands_computed
        )?;
        write!(
            f,
            "planner: {} cost-based / {} greedy",
            self.planned_cost_based, self.planned_greedy
        )?;
        match self.mean_estimation_error() {
            Some(err) => writeln!(f, "; mean q-error {err:.2}")?,
            None => writeln!(f)?,
        }
        if self.replans > 0 || self.plan_feedback_hits > 0 {
            write!(
                f,
                "adaptive: {} mid-query re-plans, {} feedback hits",
                self.replans, self.plan_feedback_hits
            )?;
            match self.mean_pre_replan_error() {
                Some(q) => writeln!(f, "; pre-replan q-error {q:.2}")?,
                None => writeln!(f)?,
            }
        }
        if self.plans_migrated + self.plans_recost_kept + self.plans_recost_dropped > 0 {
            writeln!(
                f,
                "epoch plan carry-over: {} migrated, {} re-cost kept, {} re-cost dropped",
                self.plans_migrated, self.plans_recost_kept, self.plans_recost_dropped
            )?;
        }
        if !self.per_epoch.is_empty() {
            let cells: Vec<String> = self
                .per_epoch
                .iter()
                .map(|(e, s)| format!("e{e}:{}q/{}m", s.completed, s.matches))
                .collect();
            writeln!(f, "epochs: {}", cells.join(" "))?;
        }
        write!(
            f,
            "matches: {} total; device: {} GLD, {} GST, {} kernels",
            self.matches,
            self.device.gld_transactions,
            self.device.gst_transactions,
            self.device.kernel_launches
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_percentiles() {
        let s = ServiceStats::new();
        for i in 1..=100u64 {
            s.submitted.inc();
            s.record_completed(
                i % 2, // two epochs, evenly split
                Duration::from_micros(i * 1000),
                &RunStats {
                    n_matches: 1,
                    ..RunStats::default()
                },
            );
        }
        s.rejected.inc();
        let snap = s.snapshot();
        assert_eq!(snap.submitted, 100);
        assert_eq!(snap.completed, 100);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.matches, 100);
        let p50 = snap.p50().unwrap();
        assert!(p50 >= Duration::from_millis(49) && p50 <= Duration::from_millis(52));
        let p99 = snap.p99().unwrap();
        assert!(p99 >= Duration::from_millis(98));
        assert!(snap.throughput_qps() > 0.0);
        // Per-epoch attribution: every completed query landed in its epoch.
        assert_eq!(snap.per_epoch.len(), 2);
        assert_eq!(snap.per_epoch[&0].completed, 50);
        assert_eq!(snap.per_epoch[&1].completed, 50);
        assert_eq!(snap.per_epoch[&0].matches, 50);
        assert_eq!(s.epoch_stats(1).unwrap().completed, 50);
        assert!(s.epoch_stats(9).is_none());
    }

    #[test]
    fn timeouts_tracked() {
        let s = ServiceStats::new();
        s.record_completed(
            3,
            Duration::from_micros(5),
            &RunStats {
                timed_out: true,
                ..RunStats::default()
            },
        );
        s.deadline_expired.inc();
        s.worker_panics.inc();
        let snap = s.snapshot();
        assert_eq!(snap.engine_timeouts, 1);
        assert_eq!(snap.deadline_expired, 1);
        assert_eq!(snap.worker_panics, 1);
        // Only the served query is observed: failures don't skew p50/p99.
        assert_eq!(snap.latency_us.count, 1);
        assert_eq!(snap.per_epoch[&3].engine_timeouts, 1);
    }

    #[test]
    fn retired_epochs_evict_oldest_beyond_cap_live_ones_never() {
        let s = ServiceStats::new();
        // Epoch 0 stays live (never retired) while a long churn of
        // update-displaced epochs 1..=N+10 retires each in turn.
        let churned = RETIRED_EPOCH_CAP as u64 + 10;
        for epoch in 0..=churned {
            s.record_completed(epoch, Duration::from_micros(1), &RunStats::default());
            if epoch > 0 {
                s.retire_epoch(epoch);
            }
        }
        let snap = s.snapshot();
        assert_eq!(snap.per_epoch.len(), RETIRED_EPOCH_CAP + 1);
        assert!(
            s.epoch_stats(0).is_some(),
            "live epoch survives any amount of churn"
        );
        assert!(s.epoch_stats(1).is_none(), "oldest retired epoch evicted");
        assert!(s.epoch_stats(churned).is_some(), "recent history kept");
    }

    #[test]
    fn p999_tracks_the_tail() {
        let s = ServiceStats::new();
        // 998 fast queries and two 1-second outliers: the top 0.2% of the
        // distribution is slow, so nearest-rank p999 must surface it while
        // p50/p99 stay fast. 100 µs is a bucket bound, so it reads exactly;
        // 1 s reads as its bucket's bound, at most 1/16 above.
        let served =
            |us: u64| s.record_completed(0, Duration::from_micros(us), &RunStats::default());
        for _ in 0..998 {
            served(100);
        }
        served(1_000_000);
        served(1_000_000);
        let snap = s.snapshot();
        assert_eq!(snap.p50().unwrap(), Duration::from_micros(100));
        assert_eq!(snap.p99().unwrap(), Duration::from_micros(100));
        let p999 = snap.p999().unwrap();
        assert!(
            p999 >= Duration::from_secs(1) && p999 <= Duration::from_secs(1) * 17 / 16,
            "p999 {p999:?}"
        );
    }

    #[test]
    fn non_finite_q_error_samples_are_dropped() {
        let s = ServiceStats::new();
        s.record_planned(PlannerKind::CostBased, Some(2.0));
        s.record_planned(PlannerKind::CostBased, Some(f64::NAN));
        s.record_planned(PlannerKind::CostBased, Some(f64::INFINITY));
        let snap = s.snapshot();
        assert_eq!(snap.estimation_samples, 1);
        assert_eq!(snap.mean_estimation_error(), Some(2.0));
        assert_eq!(snap.planned_cost_based, 3, "planner counts still tick");
    }

    #[test]
    fn stage_breakdown_sums_accumulate() {
        let s = ServiceStats::new();
        s.record_stage_breakdown(&StageBreakdown {
            queue: Duration::from_micros(5),
            plan: Duration::from_micros(1),
            filter: Duration::from_micros(2),
            join: Duration::from_micros(10),
            respond: Duration::from_micros(3),
        });
        s.record_stage_breakdown(&StageBreakdown {
            join: Duration::from_micros(7),
            ..Default::default()
        });
        assert_eq!(s.snapshot().stage_us, [5, 1, 2, 17, 3]);
        let text = s.registry().to_prometheus_text();
        assert!(text.contains("gsi_stage_join_us_total 17\n"), "{text}");
    }

    #[test]
    fn batch_fill_keeps_one_bucket_per_small_fill() {
        let s = ServiceStats::new();
        for n in [1, 1, 3, 8, 8, 8] {
            s.batch_fill.observe(n);
        }
        let fill = s.snapshot().batch_fill;
        assert_eq!(fill.buckets, vec![(1, 2), (3, 1), (8, 3)]);
        assert_eq!((fill.count, fill.sum), (6, 29));
    }

    #[test]
    fn display_is_complete() {
        let s = ServiceStats::new();
        s.submitted.inc();
        s.record_completed(0, Duration::from_micros(42), &RunStats::default());
        let mut snap = s.snapshot();
        snap.plan_cache_hits = 1;
        let text = format!("{snap}");
        for needle in ["throughput", "p50", "p99", "plan cache", "matches"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
