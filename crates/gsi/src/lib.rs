//! # gsi — GPU-friendly Subgraph Isomorphism
//!
//! A from-scratch Rust reproduction of *GSI: GPU-friendly Subgraph
//! Isomorphism* (Zeng, Zou, Özsu, Hu, Zhang — ICDE 2020, arXiv:1906.03420),
//! running on a software GPU execution-model simulator so that the paper's
//! memory-hierarchy arguments (128-byte transactions, coalescing, shared
//! memory, warp-centric kernels) are exercised and measured without GPU
//! hardware.
//!
//! This facade re-exports the whole stack:
//!
//! * [`sim`] — the GPU execution model (warps, blocks, transactions, GLD/GST
//!   accounting).
//! * [`graph`] — labeled graphs, generators, random-walk queries, and the
//!   storage structures CSR / Basic / Compressed / **PCSR**.
//! * [`signature`] — the vertex-signature filtering phase.
//! * [`engine`] — the GSI engine: Prealloc-Combine joins, GPU-friendly set
//!   operations, load balancing, duplicate removal.
//! * [`baselines`] — GpSM, GunrockSM, VF2, VF3-like, CFL-like.
//! * [`datasets`] — Table III dataset stand-ins.
//! * [`service`] — the concurrent query-serving subsystem: a graph catalog
//!   sharing prepared graphs across queries with epoch-versioned in-place
//!   updates, a scheduler whose one bounded queue is the stack's only
//!   admission point (per-tenant lanes popped in deficit-round-robin
//!   order, deadlines, worker threads) where every query plans from its
//!   own candidate sets, and aggregated serving statistics with per-epoch
//!   attribution (see the `gsi-service` crate docs for the architecture,
//!   and the repository `README.md` for the crate map and the "Updating
//!   graphs in place" walkthrough).
//! * [`api`] — the transport-neutral request/response vocabulary:
//!   builder-style [`prelude::QueryRequest`], consolidated
//!   [`prelude::ApiError`] with stable wire discriminants, typed
//!   [`prelude::Completion`], and the hand-rolled wire-encoding helpers.
//! * [`server`] — the TCP front-end: versioned binary framing, `Busy`
//!   backpressure from the scheduler's admission decision, match tables
//!   streamed by per-connection writers under a write deadline, graceful
//!   drain, and the matching blocking client (see the repository
//!   `README.md`'s "Serving over the network" and `docs/PROTOCOL.md`).
//!
//! ## Quickstart
//!
//! ```
//! use gsi::prelude::*;
//!
//! // A labeled data graph…
//! let mut b = GraphBuilder::new();
//! let alice = b.add_vertex(0);
//! let bob = b.add_vertex(1);
//! let carol = b.add_vertex(1);
//! b.add_edge(alice, bob, 0);
//! b.add_edge(alice, carol, 0);
//! b.add_edge(bob, carol, 1);
//! let data = b.build();
//!
//! // …a pattern to search for…
//! let mut qb = GraphBuilder::new();
//! let u = qb.add_vertex(0);
//! let w = qb.add_vertex(1);
//! qb.add_edge(u, w, 0);
//! let query = qb.build();
//!
//! // …and the GSI engine. Planning is fallible (typed `PlanError` on
//! // empty/disconnected patterns — no panic), hence the `expect`.
//! let engine = GsiEngine::new(GsiConfig::gsi_opt());
//! let prepared = engine.prepare(&data);
//! let out = engine.query(&data, &prepared, &query).expect("connected query");
//! assert_eq!(out.matches.len(), 2);
//! println!("GLD transactions: {}", out.stats.gld());
//! ```

pub use gsi_api as api;
pub use gsi_baselines as baselines;
pub use gsi_core as engine;
pub use gsi_datasets as datasets;
pub use gsi_gpu_sim as sim;
pub use gsi_graph as graph;
pub use gsi_server as server;
pub use gsi_service as service;
pub use gsi_signature as signature;

/// The most common imports in one place.
pub mod prelude {
    pub use gsi_api::{ApiError, Completion, PartialReason};
    pub use gsi_core::{
        BatchItem, BatchOutput, ExplainPlan, FilterCache, FilterStrategy, GraphOp, GraphStats,
        GsiConfig, GsiEngine, JoinPlan, JoinScheme, LbParams, Matches, PlanError, PlannerKind,
        QueryOptions, QueryOutput, RunStats, SetOpKernels, SetOpStrategy, TraceConfig, UpdateBatch,
        UpdateError, UpdateReport,
    };
    pub use gsi_datasets::{DatasetKind, DatasetSpec};
    pub use gsi_gpu_sim::{DeviceConfig, Gpu};
    pub use gsi_graph::{Graph, GraphBuilder, StorageKind};
    pub use gsi_server::{GsiClient, GsiServer, ServerConfig};
    pub use gsi_service::{
        GsiService, MetricFormat, QueryRequest, QueryResponse, ServiceConfig, ServiceStatsSnapshot,
        SubmitError, TenantPolicy,
    };
    pub use gsi_signature::{Layout, SignatureConfig};
}
