//! # gsi-signature — vertex signatures and the GSI filtering phase
//!
//! Implements §III-A of the GSI paper: every vertex's neighborhood structure
//! is encoded offline into a length-`N` bitvector signature whose first
//! `K = 32` bits store the raw vertex label and whose remaining bits are
//! 2-bit hash groups over the vertex's `(edge label, neighbor label)` pairs.
//! A data vertex `v` can only match a query vertex `u` if `v`'s label equals
//! `u`'s and `S(v) & S(u) = S(u)` on the group bits.
//!
//! The signature table lives in simulated global memory in either row-first
//! or **column-first** layout; the paper's filtering kernel reads it
//! column-first so that a warp's 32 lane reads of the same signature word
//! coalesce into one 128-byte transaction (Fig. 8(c)/(d)).
//!
//! Baseline filters used in Table IV — GpSM's label + degree check and
//! GunrockSM's label-only check — are provided in [`filter`] as well.

pub mod encode;
pub mod filter;
pub mod shared;
pub mod table;

pub use encode::{Signature, SignatureConfig};
pub use filter::{
    filter_label_degree, filter_label_only, filter_signature, min_candidate_size, CandidateSet,
};
pub use shared::{FilterCache, FilterDemand};
pub use table::{Layout, SignatureTable};
