//! The query scheduler: one bounded, tenant-fair submission queue (the
//! `tenant` module) feeding a worker pool.
//!
//! [`QueryScheduler::submit`] is the serving stack's **only** admission
//! decision: it fails fast with [`SubmitError::QueueFull`] when the queue
//! is at capacity and with [`SubmitError::TenantQuota`] when the tenant's
//! lane is, instead of building an unbounded backlog (callers shed or
//! retry with backoff; the wire front-end answers both `Busy`). Each
//! accepted query carries a deadline budget on the one clock started
//! here: time spent waiting in its lane is charged against it, the
//! remainder becomes the engine's join-loop timeout, and a query whose
//! budget is exhausted before a worker picks it up is failed without
//! running.
//!
//! Workers execute the full serving pipeline per query: run the engine on
//! the catalog entry the query pinned — filter, a join order planned from
//! this query's own candidate sets, join — and deliver a [`QueryResponse`]
//! into the submitter's sink — the private channel behind a
//! [`QueryTicket`], or a receiver shared by many tagged queries
//! ([`QueryScheduler::submit_to`]).
//!
//! **Batched execution.** When a worker picks up work and every *other*
//! worker is already busy, it drains up to `batch_window` *compatible*
//! jobs queued in the same tenant lane — jobs that pinned the same
//! catalog entry, i.e. the same `(graph, epoch)` — into one batch served
//! over a shared [`FilterCache`] (the same mechanism as
//! [`gsi_core::GsiEngine::query_batch`]): each distinct label demand's
//! candidate set is computed once and shared across the batch's joins.
//! Results are bit-identical to running each query alone; only the shared
//! filtering work (and wall time) shrinks. A query never waits for a
//! batch to fill (batches form only from jobs *already* queued, so an
//! idle service runs singletons immediately), an idle peer worker
//! disables draining (parallel dispatch beats serializing joins behind
//! one worker), and jobs for other graphs or epochs are left queued in
//! order for the next worker.
//!
//! Workers share the engine's one modeled device, and each query charges a
//! device ledger of its own (`gsi_gpu_sim::Gpu::scoped`): queries on
//! different workers run side by side, kernels included, and each one's
//! device counts are its own. Every query's join runs at the engine's
//! width (`gsi_core::GsiConfig::join_threads`); the scheduler hands out
//! no threads of its own.

use crate::catalog::CatalogEntry;
use crate::tenant::{FairQueue, LaneSlot, LaneSnapshot, TenantPolicy};
use crate::ServiceCore;
use gsi_api::{ApiError, Completion, PartialReason};
use gsi_core::{FilterCache, PlanError, PlannerKind, QueryOptions, QueryOutput};
use gsi_graph::Graph;
use gsi_obs::{QueryTrace, Stage, StageBreakdown, TraceOutcome, TraceSpan};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// The request type lives in `gsi-api` (shared with the wire path); this
// re-export keeps `gsi_service::QueryRequest` working for existing code.
pub use gsi_api::QueryRequest;

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No graph with this name is registered.
    UnknownGraph(String),
    /// The bounded queue is at capacity — shed load or retry later.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The tenant's lane is at its queue quota — the same backpressure,
    /// scoped to one tenant.
    TenantQuota {
        /// The tenant whose lane is full.
        tenant: String,
        /// Jobs already queued for the tenant.
        queued: usize,
        /// The configured lane capacity.
        quota: usize,
    },
    /// The query cannot be served (empty or disconnected pattern).
    InvalidQuery(String),
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownGraph(name) => write!(f, "unknown graph '{name}'"),
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            SubmitError::TenantQuota {
                tenant,
                queued,
                quota,
            } => write!(
                f,
                "tenant '{tenant}' lane full ({queued} queued, quota {quota})"
            ),
            SubmitError::InvalidQuery(why) => write!(f, "invalid query: {why}"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<SubmitError> for ApiError {
    fn from(e: SubmitError) -> Self {
        match e {
            SubmitError::UnknownGraph(name) => ApiError::UnknownGraph { name },
            SubmitError::QueueFull { capacity } => ApiError::QueueFull {
                capacity: capacity as u64,
            },
            SubmitError::TenantQuota {
                tenant,
                queued,
                quota,
            } => ApiError::TenantQuota {
                tenant,
                reason: format!("{queued} queued (cap {quota})"),
            },
            SubmitError::InvalidQuery(reason) => ApiError::InvalidQuery { reason },
            SubmitError::ShuttingDown => ApiError::ShuttingDown,
        }
    }
}

/// Why an accepted query produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The deadline expired while the query was still queued.
    DeadlineExpired {
        /// How long the query waited before being failed.
        waited: Duration,
    },
    /// The planner rejected the pattern (empty or disconnected) with a
    /// typed error. No worker panicked and nothing ran; submit-time
    /// validation catches these up front, so this surfaces only for
    /// patterns that degenerate after validation (defense in depth).
    Plan(PlanError),
    /// The query's execution panicked. The panic is isolated: the worker
    /// survives, other queries are unaffected, and the failure is counted
    /// in the service stats.
    Internal {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl From<QueryError> for ApiError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::DeadlineExpired { waited } => ApiError::DeadlineExpired { waited },
            QueryError::Plan(p) => ApiError::PlanRejected {
                reason: p.to_string(),
            },
            QueryError::Internal { message } => ApiError::Internal { message },
        }
    }
}

/// A completed query: the engine output plus serving metadata.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The engine's full output (matches, run stats, executed plan).
    /// `output.stats.device` is this query's own device ledger: exact, and
    /// the same whether or not other queries ran beside it.
    pub output: QueryOutput,
    /// Catalog epoch whose data the query pinned at submit time. Under
    /// concurrent `GraphCatalog::update`s this is the proof of which graph
    /// state the query actually saw — `ServiceStats` attributes the
    /// completion to the same epoch.
    pub epoch: u64,
    /// Mean q-error of the executed plan's cardinality estimates
    /// (estimated vs. actual intermediate rows per join position; 1.0 =
    /// perfect). `None` when the run executed no join position.
    pub estimation_error: Option<f64>,
    /// How many queries were drained into the pickup this query executed
    /// in (`1` when it executed alone; members that expired in the queue
    /// are included). Queries in a batch share one filtering pass per
    /// distinct label demand; results are identical either way.
    pub batch_size: usize,
    /// Time spent queued before a worker started the query.
    pub queue_wait: Duration,
    /// End-to-end latency (submit → response ready).
    pub latency: Duration,
    /// Service-wide submission sequence number — the same id the flight
    /// recorder's retained traces carry, so an outcome can be correlated
    /// with its postmortem dump.
    pub query_id: u64,
    /// Where `latency` went, stage by stage (queue / plan / filter / join
    /// / respond). Populated for **every** served query regardless of
    /// [`gsi_core::TraceConfig`]; the stages sum to `latency` within
    /// measurement slack (clock-read gaps, channel send).
    pub stage_breakdown: StageBreakdown,
    /// Whether `output.matches` is the full match set or a typed partial
    /// — [`Completion::Partial`] with [`PartialReason::DeadlineTriage`]
    /// when the engine's deadline triage stopped enumeration early (the
    /// same condition `output.stats.timed_out` flags, promoted to a
    /// first-class API contract).
    pub completion: Completion,
}

/// What a [`QueryTicket`] resolves to.
#[derive(Debug)]
pub struct QueryResponse {
    /// The catalog graph the query ran against.
    pub graph: String,
    /// The outcome, or why the query never ran.
    pub result: Result<QueryOutcome, QueryError>,
}

impl QueryResponse {
    /// Number of matches, 0 for failed queries.
    pub fn match_count(&self) -> usize {
        self.result
            .as_ref()
            .map(|o| o.output.matches.len())
            .unwrap_or(0)
    }
}

/// One answered query as the scheduler hands it to the submitter's sink.
///
/// It carries the tenant's in-flight slot: the slot is released when the
/// `Delivery` is dropped, so a receiver keeps it exactly as long as the
/// response is still owed to someone — [`QueryTicket::wait`] drops it on
/// hand-over, a connection writer after the last frame was written (or
/// abandoned).
pub struct Delivery {
    /// The tag the submitter attached ([`QueryScheduler::submit_to`]).
    pub tag: u64,
    /// The response.
    pub response: QueryResponse,
    _slot: LaneSlot<Job>,
}

/// Handle to one in-flight query.
#[derive(Debug)]
pub struct QueryTicket {
    rx: mpsc::Receiver<Delivery>,
}

impl QueryTicket {
    /// Block until the response arrives.
    ///
    /// If the service was torn down without answering (a serving bug:
    /// graceful shutdown drains the queue first), the ticket resolves to a
    /// typed [`QueryError::Internal`] instead of panicking the caller.
    pub fn wait(self) -> QueryResponse {
        self.rx
            .recv()
            .map(|delivery| delivery.response)
            .unwrap_or_else(|_| QueryResponse {
                graph: String::new(),
                result: Err(QueryError::Internal {
                    message: "service dropped an in-flight query without responding".to_string(),
                }),
            })
    }

    /// Non-blocking poll; `None` while the query is still in flight.
    pub fn try_wait(&self) -> Option<QueryResponse> {
        self.rx.try_recv().ok().map(|delivery| delivery.response)
    }
}

/// One queued unit of work.
struct Job {
    entry: Arc<CatalogEntry>,
    query: Graph,
    deadline: Option<Duration>,
    /// The one clock: deadline budget, queue wait and reported latency
    /// all start here, so time spent in a tenant lane counts.
    submitted: Instant,
    tag: u64,
    tx: mpsc::Sender<Delivery>,
}

/// Jobs batch together when they pinned the same catalog entry — the same
/// `(graph, epoch)`, by `Arc` identity.
fn compatible(a: &Job, b: &Job) -> bool {
    Arc::ptr_eq(&a.entry, &b.entry)
}

/// The worker pool plus its bounded, tenant-fair submission queue.
pub struct QueryScheduler {
    core: Arc<ServiceCore>,
    queue: Arc<FairQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryScheduler {
    /// Spawn `workers` threads serving from a queue of `queue_capacity`
    /// split into per-tenant lanes under `tenants`, draining up to
    /// `batch_window` compatible jobs per pickup.
    pub(crate) fn new(
        core: Arc<ServiceCore>,
        workers: usize,
        queue_capacity: usize,
        batch_window: usize,
        tenants: TenantPolicy,
    ) -> Self {
        let n = gsi_gpu_sim::device::resolve_threads(workers);
        let queue = Arc::new(FairQueue::new(queue_capacity, tenants));
        let batch_window = batch_window.max(1);
        let handles = (0..n)
            .map(|i| {
                let core = Arc::clone(&core);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("gsi-service-worker-{i}"))
                    .spawn(move || worker_loop(&core, &queue, n, batch_window))
                    // gsi-lint: allow(panic-freedom, reason = "service construction, not the serving path; a host that cannot spawn threads cannot serve at all")
                    .expect("spawn service worker")
            })
            .collect();
        Self {
            core,
            queue,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Queries currently waiting (excludes ones being executed).
    pub fn queue_depth(&self) -> usize {
        self.queue.total_queued()
    }

    /// Deepest the queue has ever been since the scheduler started —
    /// the backlog gauge `queue_depth` can't show once a burst drains.
    pub fn queue_depth_highwater(&self) -> usize {
        self.queue.depth_highwater()
    }

    /// Per-tenant lane accounting (queued, in flight, dispatched work),
    /// sorted by tenant; idle lanes are not listed.
    pub fn lanes(&self) -> Vec<LaneSnapshot> {
        self.queue.snapshot()
    }

    /// Submit a query; returns a ticket resolving to its response.
    pub fn submit(&self, req: QueryRequest) -> Result<QueryTicket, SubmitError> {
        let (tx, rx) = mpsc::channel();
        self.submit_to(req, 0, &tx)?;
        Ok(QueryTicket { rx })
    }

    /// Submit a query whose response is delivered into `sink`, tagged
    /// `tag` — how one receiver (a connection's writer) serves many
    /// in-flight queries. This is the serving stack's single admission
    /// point: the global capacity, then the tenant's queue quota.
    pub fn submit_to(
        &self,
        req: QueryRequest,
        tag: u64,
        sink: &mpsc::Sender<Delivery>,
    ) -> Result<(), SubmitError> {
        if req.query.n_vertices() == 0 {
            return Err(SubmitError::InvalidQuery("empty query".into()));
        }
        if !req.query.is_connected() {
            return Err(SubmitError::InvalidQuery(
                "disconnected query (split components upstream)".into(),
            ));
        }
        let entry = self
            .core
            .catalog
            .get(&req.graph)
            .ok_or_else(|| SubmitError::UnknownGraph(req.graph.clone()))?;
        // DRR cost: pattern size, a proxy for join depth.
        let cost = req.query.n_vertices() as u64;
        let job = Job {
            entry,
            query: req.query,
            deadline: req.deadline.or(self.core.default_deadline),
            submitted: Instant::now(),
            tag,
            tx: sink.clone(),
        };
        let admitted = self.queue.enqueue(req.tenant.as_deref(), cost, job);
        match &admitted {
            Ok(()) => self.core.stats.submitted.inc(),
            Err(SubmitError::QueueFull { .. } | SubmitError::TenantQuota { .. }) => {
                self.core.stats.rejected.inc()
            }
            Err(_) => {}
        }
        admitted
    }

    /// Stop accepting work, drain the queue, and join the workers.
    pub(crate) fn shutdown(&mut self) {
        self.queue.drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for QueryScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    core: &ServiceCore,
    queue: &Arc<FairQueue<Job>>,
    n_workers: usize,
    batch_window: usize,
) {
    // Batch only when every *other* worker is already busy: with an idle
    // worker available, parallel dispatch of the queued jobs beats
    // serializing their join phases behind this one's for the sake of
    // shared filtering.
    let window = || {
        if core.busy_workers.load(Ordering::SeqCst) + 1 < n_workers {
            1
        } else {
            batch_window
        }
    };
    while let Some(jobs) = queue.dequeue_batch(window, compatible) {
        core.busy_workers.fetch_add(1, Ordering::SeqCst);
        execute_batch(core, jobs);
        core.busy_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run one compatible batch of jobs end to end and deliver every response.
///
/// Items execute sequentially over one shared [`FilterCache`] — the same
/// mechanism as [`gsi_core::GsiEngine::query_batch`], unrolled here so
/// each item's deadline triage and queue-wait accounting happen at *its
/// own* execution instant: time spent running earlier batch items charges
/// later items' deadline budgets exactly as if each had been picked up on
/// its own, and every submitter is answered the moment their item
/// finishes.
///
/// Panic isolation is **per item**: a poisoned query gets
/// [`QueryError::Internal`], is counted, and the rest of the batch (and
/// the worker) carries on — exactly the old single-job guarantee.
fn execute_batch(core: &ServiceCore, jobs: Vec<(Job, LaneSlot<Job>)>) {
    let Some((first, _)) = jobs.first() else {
        return;
    };
    let entry = Arc::clone(&first.entry);
    let scope = entry.epoch();
    let batch_size = jobs.len();

    // Pickup-size distribution (singletons included): how often batching
    // found company at all.
    core.stats.batch_fill.observe(batch_size as u64);

    // Shared filtering for the whole batch: each distinct label demand
    // pays one filter pass, repeats share the cached candidate list.
    let cache = FilterCache::new();
    let mut ran = 0u64;
    for (job, slot) in jobs {
        let graph = entry.name().to_string();
        let query_id = core.next_query_id();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(core, &entry, batch_size, &cache, query_id, &job)
        }))
        .unwrap_or_else(|payload| {
            // The panic is this item's alone.
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err((QueryError::Internal { message }, StageBreakdown::default()))
        });
        // Every way a query can fail is counted and handed to the flight
        // recorder here; only a deadline that expired in the queue never
        // reached the engine.
        let result = result.map_err(|(error, breakdown)| {
            let outcome = match &error {
                QueryError::DeadlineExpired { .. } => {
                    core.stats.deadline_expired.inc();
                    TraceOutcome::DeadlineExpired
                }
                QueryError::Plan(_) => {
                    core.stats.plan_rejected.inc();
                    TraceOutcome::PlanRejected
                }
                QueryError::Internal { message } => {
                    core.stats.worker_panics.inc();
                    let message = message.clone();
                    TraceOutcome::Panicked { message }
                }
            };
            core.flight.record_failure(QueryTrace {
                query_id,
                graph: graph.clone(),
                epoch: scope,
                planner: String::new(),
                outcome,
                latency: job.submitted.elapsed(),
                breakdown,
                spans: Vec::new(),
                explain_rows: Vec::new(),
            });
            error
        });
        ran += !matches!(result, Err(QueryError::DeadlineExpired { .. })) as u64;
        // A vanished receiver drops the delivery, which frees the slot.
        let _ = job.tx.send(Delivery {
            tag: job.tag,
            response: QueryResponse { graph, result },
            _slot: slot,
        });
    }

    // Only real batches — two or more items that actually reached the
    // engine — count toward the sharing stats: singletons' intra-query
    // demand repeats (or a batch whose other members expired in the
    // queue) would otherwise inflate a rate read as "what batching buys".
    if ran > 1 {
        let stats = &core.stats;
        stats.filter_demands_computed.add(cache.demands_computed());
        stats.filter_demands_reused.add(cache.demands_reused());
        stats.batched_queries.add(ran);
    }
}

/// Serve one batch item end to end. A query that produced no result
/// comes back with the stage times it did spend, for its failure trace.
fn run_job(
    core: &ServiceCore,
    entry: &Arc<CatalogEntry>,
    batch_size: usize,
    cache: &FilterCache,
    query_id: u64,
    job: &Job,
) -> Result<QueryOutcome, (QueryError, StageBreakdown)> {
    let scope = entry.epoch();
    // Deadline budget, measured when this item actually starts: queue
    // wait *and* earlier batch items' run time are part of its latency
    // budget; an expired job is answered without running.
    let waited = job.submitted.elapsed();
    let remaining = match job.deadline {
        Some(d) => match d.checked_sub(waited) {
            Some(rem) => Some(rem),
            None => {
                let breakdown = StageBreakdown {
                    queue: waited,
                    ..StageBreakdown::default()
                };
                return Err((QueryError::DeadlineExpired { waited }, breakdown));
            }
        },
        None => None,
    };

    let output = core.engine.query_with_options(
        entry.graph(),
        entry.prepared(),
        &job.query,
        QueryOptions {
            timeout: remaining,
            filter_cache: Some(cache),
            trace: core.trace,
            ..QueryOptions::default()
        },
    );
    let t_respond = Instant::now();

    let output = match output {
        Ok(output) => output,
        Err(e) => {
            // Typed planner rejection: the worker neither panicked nor ran
            // the join phase, and the rest of the batch is unaffected.
            let breakdown = StageBreakdown {
                queue: waited,
                plan: job.submitted.elapsed().saturating_sub(waited),
                ..StageBreakdown::default()
            };
            return Err((QueryError::Plan(e), breakdown));
        }
    };

    let estimation_error = output.explain.mean_q_error();
    let latency = job.submitted.elapsed();

    // Stage accounting for every served query. The engine's `join_time`
    // historically includes plan resolution; the breakdown separates the
    // two so the five stages partition the latency:
    //   queue   — admission → pickup (incl. earlier batch items),
    //   plan    — the engine's plan construction,
    //   filter  — candidate-set construction,
    //   join    — Algorithm 3's iterations (planning excluded),
    //   respond — post-engine bookkeeping through response hand-off.
    let breakdown = StageBreakdown {
        queue: waited,
        plan: output.stats.plan_time,
        filter: output.stats.filter_time,
        join: output
            .stats
            .join_time
            .saturating_sub(output.stats.plan_time),
        respond: t_respond.elapsed(),
    };
    core.stats.record_stage_breakdown(&breakdown);
    core.stats.record_completed(scope, latency, &output.stats);
    core.stats.record_planned(output.planner, estimation_error);

    // Offer the trace to the flight recorder (a relaxed load for the fast
    // majority). Span trees exist only under TraceConfig::On; the coarse
    // trace — breakdown, provenance, explain rows — is always available.
    let spans = if core.trace.is_on() {
        build_spans(&breakdown, &output)
    } else {
        Vec::new()
    };
    core.flight.offer_completed(QueryTrace {
        query_id,
        graph: entry.name().to_string(),
        epoch: scope,
        planner: planner_name(output.planner).to_string(),
        outcome: TraceOutcome::Completed {
            matches: output.matches.len() as u64,
            timed_out: output.stats.timed_out,
        },
        latency,
        breakdown,
        spans,
        explain_rows: output
            .explain
            .steps
            .iter()
            .map(|s| (s.estimated_rows, s.actual_rows.map(|r| r as u64)))
            .collect(),
    });

    let completion = if output.stats.timed_out {
        Completion::Partial {
            reason: PartialReason::DeadlineTriage,
        }
    } else {
        Completion::Complete
    };
    let outcome = QueryOutcome {
        output,
        epoch: scope,
        estimation_error,
        batch_size,
        queue_wait: waited,
        latency,
        query_id,
        stage_breakdown: breakdown,
        completion,
    };
    Ok(outcome)
}

/// Stable lower-case planner name for trace output.
fn planner_name(kind: PlannerKind) -> &'static str {
    match kind {
        PlannerKind::Greedy => "greedy",
        PlannerKind::CostBased => "cost-based",
    }
}

/// Lay out the span tree of a completed run: the five stage spans at depth
/// 0 in execution order, one child span per executed join position under
/// the join stage. Offsets are from the query's submission; the engine's
/// per-step wall clocks (`RunStats::step_times`, recorded only under
/// `TraceConfig::On`) place the children.
fn build_spans(breakdown: &StageBreakdown, output: &QueryOutput) -> Vec<TraceSpan> {
    let mut spans = Vec::with_capacity(5 + output.stats.step_times.len());
    let mut offset = Duration::ZERO;
    for (stage, duration) in breakdown.stages() {
        spans.push(TraceSpan {
            stage,
            depth: 0,
            detail: String::new(),
            start: offset,
            duration,
        });
        if stage == Stage::Join {
            // Children: join step i consumes candidate plan.steps[i] and
            // leaves step_rows[i + 1] rows (step_rows[0] is the seed).
            let mut step_start = offset;
            for (i, &dt) in output.stats.step_times.iter().enumerate() {
                let vertex = output
                    .plan
                    .steps
                    .get(i)
                    .map(|s| s.vertex.to_string())
                    .unwrap_or_default();
                let rows = output
                    .stats
                    .step_rows
                    .get(i + 1)
                    .map(|r| r.to_string())
                    .unwrap_or_default();
                spans.push(TraceSpan {
                    stage: Stage::Join,
                    depth: 1,
                    detail: format!("step {i} vertex {vertex} rows {rows}"),
                    start: step_start,
                    duration: dt,
                });
                step_start += dt;
            }
        }
        offset += duration;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::{compatible, Job};
    use crate::tenant::{FairQueue, TenantPolicy};
    use crate::GraphCatalog;
    use gsi_core::{GsiConfig, GsiEngine};
    use gsi_gpu_sim::{DeviceConfig, Gpu};
    use gsi_graph::GraphBuilder;
    use std::sync::{mpsc, Arc};
    use std::time::Instant;

    fn tiny_graph(label: u32) -> gsi_graph::Graph {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(label);
        let v1 = b.add_vertex(label + 1);
        b.add_edge(v0, v1, 0);
        b.build()
    }

    /// A job for `entry`, tagged with the lane it will be queued in.
    fn job_for(entry: &Arc<crate::CatalogEntry>, lane: u64) -> Job {
        let (tx, _rx) = mpsc::channel();
        Job {
            entry: Arc::clone(entry),
            query: tiny_graph(0),
            deadline: None,
            submitted: Instant::now(),
            tag: lane,
            tx,
        }
    }

    #[test]
    fn drain_compatible_batches_same_entry_only_and_respects_window() {
        let engine = GsiEngine::with_gpu(GsiConfig::gsi(), Gpu::new(DeviceConfig::test_device()));
        let catalog = GraphCatalog::new();
        let a = catalog.register(&engine, "a", tiny_graph(0)).entry;
        let b = catalog.register(&engine, "b", tiny_graph(5)).entry;
        // Re-register "a": same name, *new epoch* — must not batch with the
        // old entry's jobs.
        let a2 = catalog.register(&engine, "a", tiny_graph(0)).entry;

        let queue = Arc::new(FairQueue::new(64, TenantPolicy::default()));
        // Lane 1: a2 b a2 a(old-epoch) a2 a2 — first pickup is a2. Lane 2
        // holds more a2 jobs: compatible, but another tenant's.
        for entry in [&a2, &b, &a2, &a, &a2, &a2] {
            queue.enqueue(Some("1"), 2, job_for(entry, 1)).unwrap();
        }
        for _ in 0..2 {
            queue.enqueue(Some("2"), 2, job_for(&a2, 2)).unwrap();
        }
        let pickup = |window: usize| -> Vec<Job> {
            let batch = queue.dequeue_batch(|| window, compatible).unwrap();
            batch.into_iter().map(|(job, _slot)| job).collect()
        };

        let batch = pickup(3);
        assert_eq!(batch.len(), 3, "window caps the batch");
        assert!(batch
            .iter()
            .all(|j| j.tag == 1 && Arc::ptr_eq(&j.entry, &a2)));

        // Window 1 disables batching entirely. What is left comes out one
        // by one, each lane in its own order.
        let rest: Vec<Job> = (0..5).flat_map(|_| pickup(1)).collect();
        assert_eq!(queue.total_queued(), 0);
        let lane = |tag: u64| -> Vec<&Job> { rest.iter().filter(|j| j.tag == tag).collect() };
        // Lane 1 kept b, old-epoch a, the surplus a2 — order preserved.
        let kept = lane(1);
        assert_eq!(kept.len(), 3);
        assert!(Arc::ptr_eq(&kept[0].entry, &b));
        assert!(Arc::ptr_eq(&kept[1].entry, &a));
        assert!(Arc::ptr_eq(&kept[2].entry, &a2));
        // Lane 2's compatible jobs were never pulled into lane 1's batch.
        assert_eq!(lane(2).len(), 2);
    }
}
