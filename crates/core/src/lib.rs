//! # gsi-core — the GSI subgraph-isomorphism engine
//!
//! The full pipeline of the GSI paper ([Zeng et al., ICDE 2020]) on the
//! simulated GPU substrate:
//!
//! * **Filtering phase** (§III-A): delegated to [`gsi_signature`], selected
//!   by [`config::FilterStrategy`].
//! * **Join order** (Algorithm 2): [`plan`] scores query vertices by
//!   `|C(u)| / deg(u)` and refines scores with edge-label frequencies.
//!   [`cost`] goes beyond the paper: a statistics-driven cost-based
//!   optimizer (cardinality model over `gsi_graph::GraphStats`, exact
//!   subset-DP search over connected orders, [`cost::ExplainPlan`]
//!   estimated-vs-actual reports), selected per engine or per query via
//!   [`cost::PlannerKind`] with the greedy planner as pluggable fallback.
//! * **Joining phase** (Algorithm 3): one warp per intermediate-table row
//!   joins the row with the next candidate set. Two output schemes are
//!   implemented: the paper's **Prealloc-Combine** ([`prealloc`], Algorithm
//!   4 — GBA pre-allocation bounded by `|N(v', l0)|`, join performed once)
//!   and the **two-step output scheme** of GpSM/GunrockSM ([`two_step`] —
//!   count pass, prefix sum, then the same join again).
//! * **GPU-friendly set operations** (§V): [`set_ops`] — small lists cached
//!   in shared memory, medium lists streamed in 128-byte batches, large
//!   candidate sets probed through a bitset, plus the 128-byte write cache
//!   ([`write_cache`]); a naive one-kernel-per-operation baseline for
//!   ablation.
//! * **Optimizations** (§VI): the 4-layer load-balance scheme
//!   ([`load_balance`]) and block-level duplicate removal ([`dedup`],
//!   Algorithm 5).
//!
//! The joining phase is a layered pipeline: a [`strategy::JoinStrategy`]
//! (Prealloc-Combine or two-step) decides *what* each iteration computes,
//! an execution backend ([`backend::ExecBackend`] — faithful serial, or a
//! real host worker pool) decides *how* its planned kernels run, and the
//! simulated device underneath keeps the transaction ledger — one per
//! query and per launch worker, so it is exact under concurrency. See the [`backend`] module docs for the stack.
//!
//! Entry point: [`engine::GsiEngine`].
//!
//! ```
//! use gsi_core::{GsiConfig, GsiEngine};
//! use gsi_graph::GraphBuilder;
//!
//! // Data: a labeled triangle plus a pendant vertex.
//! let mut b = GraphBuilder::new();
//! let v0 = b.add_vertex(0);
//! let v1 = b.add_vertex(1);
//! let v2 = b.add_vertex(1);
//! let v3 = b.add_vertex(1);
//! b.add_edge(v0, v1, 0);
//! b.add_edge(v0, v2, 0);
//! b.add_edge(v1, v2, 1);
//! b.add_edge(v2, v3, 0);
//! let data = b.build();
//!
//! // Query: vertex labeled 0 connected to a vertex labeled 1 over label 0.
//! let mut qb = GraphBuilder::new();
//! let u0 = qb.add_vertex(0);
//! let u1 = qb.add_vertex(1);
//! qb.add_edge(u0, u1, 0);
//! let query = qb.build();
//!
//! let engine = GsiEngine::new(GsiConfig::gsi());
//! let prepared = engine.prepare(&data);
//! let out = engine.query(&data, &prepared, &query).expect("connected query");
//! assert_eq!(out.matches.len(), 2); // v0→{v1, v2}
//! ```
//!
//! [Zeng et al., ICDE 2020]: https://arxiv.org/abs/1906.03420

pub mod backend;
pub mod components;
pub mod config;
pub mod cost;
pub mod dedup;
pub mod engine;
pub mod join;
pub mod load_balance;
pub mod matches;
pub mod plan;
pub mod prealloc;
pub mod radix;
pub mod set_ops;
pub mod stats;
pub mod strategy;
pub mod table;
pub mod two_step;
pub mod write_cache;

pub use backend::{ExecBackend, HostParallelBackend, SerialBackend};
pub use config::{
    BackendKind, FilterStrategy, GsiConfig, JoinScheme, LbParams, SetOpKernels, SetOpStrategy,
};
pub use cost::{
    estimate_for_plan, plan_from_order, plan_join_costed, plan_join_estimated, replan_suffix,
    splice_replanned, CostModel, ExplainPlan, ExplainStep, PlannerKind, MAX_EXACT_SEARCH_VERTICES,
};
pub use engine::{
    BatchItem, BatchOutput, GsiEngine, PreparedData, QueryOptions, QueryOutput, UpdateReport,
};
pub use gsi_graph::update::{GraphOp, UpdateBatch, UpdateError};
pub use gsi_graph::GraphStats;
pub use gsi_obs::TraceConfig;
pub use gsi_signature::{FilterCache, FilterDemand};
pub use matches::Matches;
pub use plan::{JoinPlan, JoinStep, PlanError};
pub use stats::RunStats;
pub use strategy::JoinStrategy;
