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
//! Every worker pickup is one job, and the worker runs the full serving
//! pipeline for it: run the engine on the catalog entry the query pinned
//! — filter, a join order planned from this query's own candidate sets,
//! join — and deliver a [`QueryResponse`] into the submitter's sink — the
//! private channel behind a [`QueryTicket`], or a receiver shared by many
//! tagged queries ([`QueryScheduler::submit_to`]).
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
use gsi_core::{FilterCache, PlanError, PlannerKind, QueryOutput};
use gsi_graph::Graph;
use gsi_obs::{QueryTrace, Stage, StageBreakdown, TraceOutcome, TraceSpan};
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

/// The worker pool plus its bounded, tenant-fair submission queue.
pub struct QueryScheduler {
    core: Arc<ServiceCore>,
    queue: Arc<FairQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryScheduler {
    /// Spawn `workers` threads serving from a queue of `queue_capacity`
    /// split into per-tenant lanes under `tenants`.
    pub(crate) fn new(
        core: Arc<ServiceCore>,
        workers: usize,
        queue_capacity: usize,
        tenants: TenantPolicy,
    ) -> Self {
        let n = gsi_gpu_sim::device::resolve_threads(workers);
        let queue = Arc::new(FairQueue::new(queue_capacity, tenants));
        let handles = (0..n)
            .map(|i| {
                let core = Arc::clone(&core);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("gsi-service-worker-{i}"))
                    .spawn(move || worker_loop(&core, &queue))
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

fn worker_loop(core: &ServiceCore, queue: &Arc<FairQueue<Job>>) {
    while let Some((job, slot)) = queue.dequeue() {
        execute_job(core, job, slot);
    }
}

/// Run one job end to end and deliver its response.
///
/// Panic isolation: a poisoned query gets [`QueryError::Internal`], is
/// counted, and the worker carries on serving.
fn execute_job(core: &ServiceCore, job: Job, slot: LaneSlot<Job>) {
    let entry = &job.entry;
    let graph = entry.name().to_string();
    let query_id = core.next_query_id();
    // Measured once, at pickup: the deadline budget, the breakdown and a
    // panicked job's failure trace all read this one queue wait.
    let waited = job.submitted.elapsed();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_job(core, query_id, &job, waited)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        // The run's stage times are lost with the panic; its queue wait
        // is not.
        let breakdown = StageBreakdown {
            queue: waited,
            ..StageBreakdown::default()
        };
        Err((QueryError::Internal { message }, breakdown))
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
            epoch: entry.epoch(),
            planner: String::new(),
            outcome,
            latency: job.submitted.elapsed(),
            breakdown,
            spans: Vec::new(),
            explain_rows: Vec::new(),
        });
        error
    });
    // A vanished receiver drops the delivery, which frees the slot.
    let _ = job.tx.send(Delivery {
        tag: job.tag,
        response: QueryResponse { graph, result },
        _slot: slot,
    });
}

/// Serve one job end to end. A query that produced no result comes back
/// with the stage times it did spend, for its failure trace.
fn run_job(
    core: &ServiceCore,
    query_id: u64,
    job: &Job,
    waited: Duration,
) -> Result<QueryOutcome, (QueryError, StageBreakdown)> {
    let entry = &job.entry;
    let scope = entry.epoch();
    // Deadline budget: the queue wait is part of the latency budget; an
    // expired job is answered without running.
    if job.deadline.is_some_and(|d| waited > d) {
        let breakdown = StageBreakdown {
            queue: waited,
            ..StageBreakdown::default()
        };
        return Err((QueryError::DeadlineExpired { waited }, breakdown));
    }
    let deadline = job.deadline.and_then(|d| job.submitted.checked_add(d));

    // A cache of the job's own: a label demand repeated within the
    // pattern is filtered once.
    let cache = FilterCache::new();
    let (engine, data, prepared) = (&core.engine, entry.graph(), entry.prepared());
    let cands = engine.candidates(prepared, &job.query, Some(&cache));
    let t_plan = Instant::now();
    let output = engine
        .plan(data, prepared, &cands, engine.config().planner)
        .and_then(|planned| engine.join(data, prepared, &cands, planned, deadline, core.trace));
    let t_respond = Instant::now();

    let output = match output {
        Ok(output) => output,
        Err(e) => {
            // Typed planner rejection: the worker neither panicked nor ran
            // the join phase.
            let breakdown = StageBreakdown {
                queue: waited,
                filter: cands.time,
                plan: t_plan.elapsed(),
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
    //   queue   — admission → pickup,
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
    core.stats
        .record_planned(output.explain.planner, estimation_error);

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
        planner: planner_name(output.explain.planner).to_string(),
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
    use super::*;
    use crate::{GsiService, ServiceConfig};
    use gsi_graph::GraphBuilder;

    /// Submission rejects a disconnected pattern, so this test queues one
    /// directly: the worker's filter runs, the planner rejects, and the
    /// failure trace books each stage's own time.
    #[test]
    fn plan_rejected_trace_books_filter_and_plan_stages() {
        let service = GsiService::new(ServiceConfig::for_tests());
        let mut b = GraphBuilder::new();
        let vs: Vec<u32> = (0..64).map(|i| b.add_vertex(i % 2)).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], 0);
        }
        let entry = service.register("g", b.build()).entry;
        let mut qb = GraphBuilder::new();
        qb.add_vertex(0);
        qb.add_vertex(1); // no edge: disconnected
        let (tx, rx) = mpsc::channel();
        let job = Job {
            entry,
            query: qb.build(),
            deadline: None,
            submitted: Instant::now(),
            tag: 0,
            tx,
        };
        service.scheduler.queue.enqueue(None, 2, job).expect("room");
        let delivery = rx.recv().expect("delivered");
        assert!(matches!(delivery.response.result, Err(QueryError::Plan(_))));

        let trace = service
            .flight_recorder()
            .records()
            .into_iter()
            .find(|t| matches!(t.outcome, TraceOutcome::PlanRejected))
            .expect("the flight recorder keeps the rejected query");
        let b = &trace.breakdown;
        assert!(b.filter > Duration::ZERO, "filter time booked to filter");
        assert!(b.queue + b.filter + b.plan <= trace.latency, "{b:?}");
    }
}
