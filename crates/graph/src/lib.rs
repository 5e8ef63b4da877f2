//! # gsi-graph — labeled graph substrate and GPU storage structures
//!
//! Everything the GSI engine ([Zeng et al., ICDE 2020]) needs to represent
//! and store edge-labeled, vertex-labeled undirected graphs:
//!
//! * [`Graph`] — the host-side logical graph (adjacency sorted by edge label,
//!   label frequencies, degrees), built through [`GraphBuilder`].
//! * Storage structures for `N(v, l)` extraction on the simulated GPU, all
//!   implementing [`storage::LabeledStore`]:
//!   * [`csr::Csr`] — the traditional 3-layer CSR (row offset / column index
//!     / edge value) that GpSM and GunrockSM use (§IV, Fig. 10);
//!   * [`basic::BasicStore`] — per-label CSR with a full `|V|`-sized row
//!     offset layer ("Basic Representation", Fig. 11(a));
//!   * [`compressed::CompressedStore`] — per-label CSR with a binary-searched
//!     vertex-ID layer ("Compressed Representation", Fig. 11(b));
//!   * [`pcsr::MultiPcsr`] — the paper's **PCSR** (Definition 4, Algorithm 1,
//!     Fig. 11(c)): hashed groups of `GPN` pairs, one 128-byte transaction
//!     per group probe, overflow chaining with Claim 1 guarantees.
//! * Generators for synthetic graphs ([`generate`]) and the paper's
//!   random-walk query workload ([`query_gen`]).
//! * Dynamic updates ([`update`]): [`UpdateBatch`]es of edge/vertex
//!   mutations applied to immutable graphs, and the incremental PCSR
//!   maintenance ([`pcsr::MultiPcsr::apply_updates`]) that absorbs them
//!   without rebuilding untouched label layers.
//! * A per-graph statistics catalog ([`stats`]): label histograms,
//!   per-label degree mass, and edge-label co-occurrence counts for
//!   cost-based join planning, built in one pass and refreshed
//!   incrementally from update batches (bit-identical to a cold rebuild).
//! * A plain-text interchange format ([`io`]).
//!
//! [Zeng et al., ICDE 2020]: https://arxiv.org/abs/1906.03420

pub mod basic;
pub mod builder;
pub mod compressed;
pub mod csr;
#[cfg(test)]
pub(crate) mod fixtures;
pub mod generate;
pub mod graph;
pub mod io;
pub mod partition;
pub mod pcsr;
pub mod query_gen;
pub mod stats;
pub mod storage;
pub mod types;
pub mod update;

pub use builder::GraphBuilder;
pub use graph::Graph;
pub use pcsr::{LayerAction, MultiPcsr, StoreUpdateReport};
pub use stats::GraphStats;
pub use storage::{LabeledStore, Neighbors, StorageKind};
pub use types::{EdgeLabel, VertexId, VertexLabel};
pub use update::{GraphOp, UpdateBatch, UpdateError};
