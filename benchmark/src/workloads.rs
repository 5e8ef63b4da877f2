//! The four fixed workloads. Names are normative: `BENCHMARK.json`, the
//! README and later issues refer to them.

use gsi::datasets::DatasetKind;
use std::time::Duration;

/// Catalog name every workload registers its data graph under.
pub const GRAPH_NAME: &str = "bench";

/// How requests are driven at the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// Closed loop over TCP: `clients` connections (tenants `t0`, `t1`, …)
    /// pull the next pool index from a shared counter and send it as soon
    /// as the previous reply has been decoded.
    ClosedWire { clients: usize },
    /// One thread calling `GsiEngine::query` on the service's own engine
    /// and catalog entry: no scheduler, no wire.
    InProcess,
    /// Open loop over TCP: connection A sends one query per `interval`,
    /// connection B one `ops_per_batch`-op update batch per `interval`,
    /// both due at the same instants.
    PacedWire {
        interval: Duration,
        ops_per_batch: usize,
    },
}

/// One class of pool patterns, admitted by exact answer size and
/// deterministic engine counts — never by wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class {
    pub label: &'static str,
    pub count: usize,
    /// Inclusive |V(Q)| range.
    pub n_vertices: (usize, usize),
    /// Inclusive band of answer rows.
    pub rows: (u64, u64),
    /// Reject candidates whose largest intermediate table exceeds this.
    pub max_intermediate_rows: Option<u64>,
    /// Reject candidates whose `RunStats::join_work_units` exceeds this: a
    /// deterministic stand-in for "runs far below the dry-run cut-off",
    /// so that no admitted pattern depends on that wall-clock limit.
    pub max_join_work: Option<u64>,
}

/// Everything that defines a workload besides the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: DatasetKind,
    pub scale: f64,
    pub drive: Drive,
    pub classes: Vec<Class>,
    /// Wall-clock cut-off for exploding candidates during pool search,
    /// behind the deterministic one (an intermediate table larger than the
    /// largest admitted answer). A candidate that hits either is rejected,
    /// so admitted patterns (bounded by deterministic counts far below
    /// what this allows) do not depend on it; `pool_digest` shows if a run
    /// ever disagrees.
    pub dry_run_timeout: Duration,
    /// Latency limit behind `slo_met_frac`: a request counts as met when
    /// it was answered correctly within this time.
    pub slo: Duration,
}

/// The normative workload names, in report order.
pub const NAMES: [&str; 4] = ["wire-light", "wire-heavy", "engine-join", "wire-churn"];

const LIGHT: Class = Class {
    label: "light",
    count: 24,
    n_vertices: (3, 6),
    rows: (1, 1_000),
    max_intermediate_rows: Some(10_000),
    max_join_work: None,
};

/// Look a workload up by name. `smoke` shrinks the graph to ×0.05 of the
/// paper's size and the admission bands with it, so all four workloads run
/// end to end in seconds (for `cargo test`, not for numbers).
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let ms = Duration::from_millis;
    let mut w = match name {
        "wire-light" => Workload {
            name: "wire-light",
            why: "selective queries over TCP: fixed per-request cost (egress, framing, hand-offs, filter) dominates, join does ~0.1 ms",
            dataset: DatasetKind::Enron,
            scale: 0.5,
            drive: Drive::ClosedWire { clients: 2 },
            classes: vec![LIGHT],
            dry_run_timeout: ms(40),
            slo: ms(100),
        },
        "wire-heavy" => Workload {
            name: "wire-heavy",
            why: "large answers over TCP: join, table materialisation and chunk encode/stream/decode dominate; filter is under 5 %",
            dataset: DatasetKind::Enron,
            scale: 0.5,
            drive: Drive::ClosedWire { clients: 2 },
            classes: vec![Class {
                label: "heavy",
                // With 11 equally often asked patterns both the p50 and
                // the p95 rank fall in the middle of one pattern's
                // samples (the 6th and the 11th), not on the border
                // between two patterns, where a percentile jumps.
                count: 11,
                n_vertices: (3, 6),
                rows: (50_000, 1_500_000),
                max_intermediate_rows: None,
                max_join_work: Some(4_000_000),
            }],
            dry_run_timeout: ms(400),
            slo: ms(500),
        },
        "engine-join" => Workload {
            name: "engine-join",
            why: "the paper's own measurement, in process on one thread: join order, set-op kernels, Prealloc-Combine, modeled GLD; bypasses service, api and server",
            dataset: DatasetKind::Gowalla,
            scale: 0.25,
            drive: Drive::InProcess,
            classes: vec![Class {
                label: "join",
                count: 17,
                n_vertices: (6, 10),
                rows: (1_000, 2_000_000),
                max_intermediate_rows: None,
                max_join_work: Some(2_000_000),
            }],
            dry_run_timeout: ms(500),
            slo: ms(100),
        },
        "wire-churn" => Workload {
            name: "wire-churn",
            why: "paced reads racing paced update batches over TCP: apply_updates, incremental re-prepare, epoch publication, plan-cache rekey, epoch pinning",
            dataset: DatasetKind::Enron,
            scale: 0.5,
            drive: Drive::PacedWire {
                interval: ms(75),
                ops_per_batch: 8,
            },
            classes: vec![
                Class { count: 18, ..LIGHT },
                Class {
                    label: "medium",
                    count: 6,
                    n_vertices: (3, 6),
                    rows: (10_000, 300_000),
                    max_intermediate_rows: None,
                    max_join_work: Some(1_000_000),
                },
            ],
            dry_run_timeout: ms(120),
            slo: ms(150),
        },
        _ => return None,
    };
    if smoke {
        w.scale *= 0.1;
        for c in &mut w.classes {
            // Smaller graphs have smaller answers: keep every class
            // satisfiable at the smoke scale.
            if c.rows.0 > 1 {
                c.rows = (c.rows.0 / 100, c.rows.1 / 10);
            }
            c.n_vertices.1 = c.n_vertices.1.min(7);
        }
    }
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_in_both_configurations() {
        for name in NAMES {
            for smoke in [false, true] {
                let w = workload(name, smoke).expect("known workload");
                assert_eq!(w.name, name);
                assert!(w.why.len() <= 200, "BENCHMARK.json caps a why at 200");
                for c in &w.classes {
                    assert!(c.rows.0 <= c.rows.1 && c.count > 0);
                }
            }
        }
        assert!(workload("nope", false).is_none());
    }
}
