//! The repo's benchmark: four fixed workloads, seven end-to-end metrics,
//! and a layer-by-layer peel. See `README.md` in this directory for the
//! tables, the predictions, and the public-API footprint this package
//! depends on.
//!
//! The package touches the product only through public items of the
//! `gsi` facade; the product's own tracing stays off.

pub mod compare;
pub mod drive;
pub mod metrics;
pub mod peel;
pub mod pool;
pub mod report;
pub mod run;
pub mod schedule;
pub mod setup;
pub mod spans;
pub mod stats;
pub mod workloads;
