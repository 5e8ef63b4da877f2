//! Per-query structured tracing: stages, spans, and stage breakdowns.
//!
//! A served query's life is a fixed sequence of stages — queued, planned,
//! filtered, joined, responded — and the whole point of tracing it is that
//! the stage durations *account for* the one end-to-end latency number the
//! service already reported. [`StageBreakdown`] is that account (cheap, on
//! for every query); [`QueryTrace`] is the full record (stage spans plus
//! one child span per executed join position), built only when
//! [`TraceConfig::On`] and retained by the flight recorder for the queries
//! worth a postmortem.
//!
//! **Lock freedom.** Spans are recorded into buffers owned by the worker
//! serving the query — a `Vec` on its stack, touched by no other thread —
//! so the record path takes no lock and issues no shared write. The only
//! cross-thread hand-off is the finished trace's offer to the flight
//! recorder, which fast queries decline with a single atomic load (see
//! [`crate::flight::FlightRecorder`]).

use std::time::Duration;

/// Whether per-query tracing is enabled.
///
/// `Off` is the zero-cost path: no span buffer is allocated, and
/// instrumented code skips its per-join-step clock reads entirely (the
/// coarse phase timers — filter, plan, join wall — predate tracing and
/// stay on; they are a handful of `Instant::now()` calls per query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceConfig {
    /// No spans are recorded; instrumentation reduces to a branch.
    #[default]
    Off,
    /// Record a full span tree per query and offer it to the flight
    /// recorder.
    On,
}

impl TraceConfig {
    /// Whether spans (and per-join-step timings) should be recorded.
    pub fn is_on(self) -> bool {
        self == TraceConfig::On
    }
}

/// The stages of a served query, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Waiting in the bounded submission queue (admission → pickup).
    Queue,
    /// Plan resolution: the engine's join-order construction / costing.
    Plan,
    /// The filtering phase (candidate-set construction).
    Filter,
    /// The joining phase (Algorithm 3's iterations; join-step child spans
    /// hang under this stage in a full trace).
    Join,
    /// Post-engine bookkeeping: stats, trace, response send.
    Respond,
}

impl Stage {
    /// Stable lower-case name (used in span output and metric labels).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Filter => "filter",
            Stage::Plan => "plan",
            Stage::Join => "join",
            Stage::Respond => "respond",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a query's end-to-end latency went, one duration per [`Stage`].
///
/// Built for **every** served query (the measurements are a handful of
/// clock reads the serving path mostly took already); the invariant —
/// asserted by the serving integration tests — is that the stages sum to
/// the end-to-end latency within measurement slack (the unattributed
/// remainder is scheduling noise between clock reads, not a hidden stage).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Time queued before a worker started the query (plus, for batch
    /// members, earlier batch items' run time — both charge the deadline).
    pub queue: Duration,
    /// Serving-side plan lookup plus engine-side join-order construction.
    pub plan: Duration,
    /// Filtering-phase wall time.
    pub filter: Duration,
    /// Joining-phase wall time (join iterations only; planning excluded).
    pub join: Duration,
    /// Post-engine bookkeeping through response delivery.
    pub respond: Duration,
}

impl StageBreakdown {
    /// Sum of all stage durations (compare against end-to-end latency).
    pub fn total(&self) -> Duration {
        self.queue + self.plan + self.filter + self.join + self.respond
    }

    /// `(stage, duration)` pairs in execution order.
    pub fn stages(&self) -> [(Stage, Duration); 5] {
        [
            (Stage::Queue, self.queue),
            (Stage::Plan, self.plan),
            (Stage::Filter, self.filter),
            (Stage::Join, self.join),
            (Stage::Respond, self.respond),
        ]
    }
}

/// One recorded span: a stage (or a join step under [`Stage::Join`]) with
/// its offset from the query's submission and its duration.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// The stage this span belongs to.
    pub stage: Stage,
    /// Nesting depth: `0` for the five stage spans, `1` for join-step
    /// children (the span tree is at most two levels deep by construction).
    pub depth: u8,
    /// Human-readable detail — empty for stage spans, `"step N vertex V
    /// rows R"` for join-step children.
    pub detail: String,
    /// Offset of the span's start from the query's submission instant.
    pub start: Duration,
    /// The span's duration.
    pub duration: Duration,
}

/// How a traced query ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The engine ran to completion (including guarded/timed-out runs).
    Completed {
        /// Matches delivered.
        matches: u64,
        /// Whether the engine aborted on its timeout/row guard.
        timed_out: bool,
    },
    /// The deadline expired while the query was still queued.
    DeadlineExpired,
    /// The planner rejected the pattern with a typed error.
    PlanRejected,
    /// Execution panicked (isolated; the worker survived).
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl TraceOutcome {
    /// Whether this outcome is a failure (flight-recorder failure pool).
    pub fn is_failure(&self) -> bool {
        !matches!(self, TraceOutcome::Completed { .. })
    }

    /// Stable lower-snake-case name for output.
    pub fn name(&self) -> &'static str {
        match self {
            TraceOutcome::Completed { .. } => "completed",
            TraceOutcome::DeadlineExpired => "deadline_expired",
            TraceOutcome::PlanRejected => "plan_rejected",
            TraceOutcome::Panicked { .. } => "panicked",
        }
    }
}

/// The full trace of one served query: identity, provenance, outcome,
/// stage breakdown, and the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Service-wide submission sequence number (identifies the query in
    /// flight-recorder dumps).
    pub query_id: u64,
    /// Catalog name of the graph the query ran against.
    pub graph: String,
    /// Catalog epoch the query pinned.
    pub epoch: u64,
    /// Planner provenance of the executed join order (`"greedy"`,
    /// `"cost-based"`; empty when the query never reached planning).
    pub planner: String,
    /// How the query ended.
    pub outcome: TraceOutcome,
    /// End-to-end latency (submit → response ready).
    pub latency: Duration,
    /// Where that latency went, stage by stage.
    pub breakdown: StageBreakdown,
    /// The span tree: stage spans at depth 0, join-step children at
    /// depth 1, in start order.
    pub spans: Vec<TraceSpan>,
    /// Per-position `estimated → actual` row counts of the executed plan
    /// (the `ExplainPlan` essentials, carried without a `gsi-core`
    /// dependency); empty when the query never executed a position.
    pub explain_rows: Vec<(f64, Option<u64>)>,
}

impl QueryTrace {
    /// Serialize the trace as one JSON object into `buf`.
    pub fn write_json(&self, buf: &mut crate::json::JsonBuf) {
        buf.begin_obj();
        buf.field_u64("query_id", self.query_id);
        buf.field_str("graph", &self.graph);
        buf.field_u64("epoch", self.epoch);
        buf.field_str("planner", &self.planner);
        buf.field_str("outcome", self.outcome.name());
        if let TraceOutcome::Panicked { message } = &self.outcome {
            buf.field_str("panic_message", message);
        }
        buf.field_u64("latency_us", self.latency.as_micros() as u64);
        buf.key("stage_breakdown_us");
        buf.begin_obj();
        for (stage, d) in self.breakdown.stages() {
            buf.field_u64(stage.name(), d.as_micros() as u64);
        }
        buf.end_obj();
        buf.key("spans");
        buf.begin_arr();
        for span in &self.spans {
            buf.begin_obj();
            buf.field_str("stage", span.stage.name());
            buf.field_u64("depth", span.depth as u64);
            if !span.detail.is_empty() {
                buf.field_str("detail", &span.detail);
            }
            buf.field_u64("start_us", span.start.as_micros() as u64);
            buf.field_u64("duration_us", span.duration.as_micros() as u64);
            buf.end_obj();
        }
        buf.end_arr();
        buf.key("explain");
        buf.begin_arr();
        for &(estimated, actual) in &self.explain_rows {
            buf.begin_obj();
            buf.field_f64("estimated_rows", estimated);
            match actual {
                Some(rows) => buf.field_u64("actual_rows", rows),
                None => buf.field_null("actual_rows"),
            }
            buf.end_obj();
        }
        buf.end_arr();
        buf.end_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_and_order() {
        let b = StageBreakdown {
            queue: Duration::from_micros(10),
            plan: Duration::from_micros(20),
            filter: Duration::from_micros(30),
            join: Duration::from_micros(40),
            respond: Duration::from_micros(5),
        };
        assert_eq!(b.total(), Duration::from_micros(105));
        let names: Vec<&str> = b.stages().iter().map(|(s, _)| s.name()).collect();
        assert_eq!(names, ["queue", "plan", "filter", "join", "respond"]);
    }

    #[test]
    fn off_is_default_and_cheap_to_test() {
        assert_eq!(TraceConfig::default(), TraceConfig::Off);
        assert!(!TraceConfig::Off.is_on());
        assert!(TraceConfig::On.is_on());
    }

    #[test]
    fn trace_serializes_to_json() {
        let trace = QueryTrace {
            query_id: 7,
            graph: "g".into(),
            epoch: 3,
            planner: "cost-based".into(),
            outcome: TraceOutcome::Completed {
                matches: 2,
                timed_out: false,
            },
            latency: Duration::from_micros(120),
            breakdown: StageBreakdown {
                queue: Duration::from_micros(50),
                ..StageBreakdown::default()
            },
            spans: vec![TraceSpan {
                stage: Stage::Join,
                depth: 1,
                detail: "step 1 vertex 2 rows 9".into(),
                start: Duration::from_micros(60),
                duration: Duration::from_micros(40),
            }],
            explain_rows: vec![(3.5, Some(4)), (9.0, None)],
        };
        let mut buf = crate::json::JsonBuf::new();
        trace.write_json(&mut buf);
        let json = buf.finish();
        assert!(json.contains("\"query_id\":7"));
        assert!(json.contains("\"outcome\":\"completed\""));
        assert!(json.contains("\"queue\":50"));
        assert!(json.contains("\"detail\":\"step 1 vertex 2 rows 9\""));
        assert!(json.contains("\"actual_rows\":null"));
    }

    #[test]
    fn failure_outcomes_flagged() {
        assert!(TraceOutcome::DeadlineExpired.is_failure());
        assert!(TraceOutcome::Panicked {
            message: "x".into()
        }
        .is_failure());
        assert!(!TraceOutcome::Completed {
            matches: 0,
            timed_out: true
        }
        .is_failure());
        assert_eq!(TraceOutcome::PlanRejected.name(), "plan_rejected");
    }
}
