//! # gsi-obs — the observability spine
//!
//! PRs 1–5 built the serving machinery (scheduler, epochs, batching,
//! cost-based planning); this crate ties their siloed telemetry together,
//! the same "measure everything, prove it" discipline the paper applies to
//! its per-kernel GLD/GST transaction accounting. Three pieces, shared by
//! every layer of the stack, the network server included:
//!
//! * **Per-query structured tracing** ([`trace`]) — a lightweight span API:
//!   one [`QueryTrace`] per query carries a [`StageBreakdown`]
//!   (queue / plan / filter / join / respond durations that sum to the
//!   end-to-end latency) plus, when tracing is enabled, a span tree with
//!   one child span per executed join position. Spans are recorded into
//!   worker-local buffers — no lock, no shared write on the hot path — and
//!   tracing is **zero-cost when disabled**: [`TraceConfig::Off`] skips
//!   every per-step clock read (the engine's coarse phase timers, which
//!   predate this crate, are a handful of reads per query and always on).
//! * **A metrics registry** ([`metrics`]) — the serving layer's one
//!   metric ledger. Counters, gauges, and log-linear histograms are
//!   declared by name once, when their owner is built; declaring returns a
//!   typed handle the hot path records through, and the Prometheus-text
//!   and JSON exporters render the live handles.
//! * **A flight recorder** ([`flight`]) — a bounded ring of full traces
//!   retained for the slowest, failed, and panicked queries, dumpable as
//!   JSON for postmortems. Admission for completed traces is a lock-free
//!   floor check, so fast queries never touch the ring's lock.
//!
//! The crate is dependency-free by design (vendored `parking_lot` only —
//! no external tracing or metrics frameworks), sits below `gsi-core`, and
//! knows nothing about graphs: it moves durations, names, and numbers.

pub mod flight;
pub mod json;
pub mod metrics;
pub mod trace;

pub use flight::FlightRecorder;
pub use json::JsonBuf;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricFormat, MetricsRegistry};
pub use trace::{QueryTrace, Stage, StageBreakdown, TraceConfig, TraceOutcome, TraceSpan};
