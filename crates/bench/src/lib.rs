//! # gsi-bench — reproduction harness for every table and figure
//!
//! The `paper` binary regenerates each experiment of the paper's §VII on the
//! simulated-GPU substrate (see DESIGN.md for the substitution contract):
//!
//! ```text
//! cargo run --release -p gsi-bench --bin paper -- all
//! cargo run --release -p gsi-bench --bin paper -- table6 --queries 10
//! cargo run --release -p gsi-bench --bin paper -- fig13 --scale 2.0
//! ```
//!
//! The repo-trajectory experiments (`backend`, `update-churn`, `batch`,
//! `optimize`, `observe`, `setops`) compare arms under
//! deterministic gates and write one [`report::Report`] each. How fast the
//! shipped arm is end to end is `benchmark/`'s question, not this crate's.

pub mod experiments;
pub mod fmt;
pub mod report;
pub mod runner;
pub mod workloads;
