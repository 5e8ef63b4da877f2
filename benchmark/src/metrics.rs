//! The metric catalogue: names, units, directions and regression bounds.
//!
//! `../BENCHMARK.json` carries the same tables for the driver; a unit
//! test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see. `bound` is the share of the
/// parent's median by which it may get worse before it is a regression.
/// Each bound is at least three times the widest spread (interquartile
/// distance over the median, ten seeds) the metric showed on any workload
/// on the 2-core box the benchmark was defined on; README.md has the
/// spreads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of a single layer; the layer is the crate name before the dot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every workload reports every one of these with `--trace 0`.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p95_ms", "ms", Better::Lower, 0.25),
    e2e("throughput_qps", "1/s", Better::Higher, 0.20),
    e2e("rows_per_s", "rows/s", Better::Higher, 0.20),
    e2e("slo_met_frac", "fraction", Better::Higher, 0.03),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.25),
];

/// Every workload reports every one of these with `--trace 1`; a layer a
/// workload bypasses reports 0.
pub const PER_LAYER: [PerLayer; 45] = [
    lo("datasets.build_ms", "ms"),
    lo("graph.apply_updates_ms_p50", "ms"),
    lo("signature.filter_ms_p50", "ms"),
    lo("signature.filter_gld_per_query", "transactions"),
    lo("signature.pass_frac", "fraction"),
    lo("gpu-sim.gld_per_query", "transactions"),
    lo("gpu-sim.gst_per_query", "transactions"),
    lo("gpu-sim.kernels_per_query", "count"),
    lo("gpu-sim.work_units_per_query", "count"),
    lo("gpu-sim.alloc_bytes_per_query", "bytes"),
    lo("core.prepare_ms", "ms"),
    lo("core.plan_ms_p50", "ms"),
    lo("core.join_ms_p50", "ms"),
    lo("core.join_ms_p95", "ms"),
    hi("core.join_melem_per_s", "Melem/s"),
    lo("core.engine_self_ms_p50", "ms"),
    hi("core.rows_per_work_unit", "rows/unit"),
    lo("core.peak_intermediate_rows_p95", "rows"),
    lo("core.replans_per_query", "count"),
    lo("service.self_ms_p50", "ms"),
    lo("service.queue_ms_p50", "ms"),
    lo("service.plan_ms_p50", "ms"),
    lo("service.respond_ms_p50", "ms"),
    hi("service.plan_cache_hit_rate", "fraction"),
    hi("service.filter_reuse_rate", "fraction"),
    hi("service.batched_frac", "fraction"),
    lo("service.queue_depth_highwater", "count"),
    lo("service.rejected", "count"),
    lo("service.deadline_expired", "count"),
    lo("api.request_codec_us_p50", "us"),
    lo("api.update_codec_us_p50", "us"),
    hi("api.graph_codec_mb_per_s", "MB/s"),
    lo("server.egress_ms_p50", "ms"),
    lo("server.egress_ms_p95", "ms"),
    lo("server.self_ms_p50", "ms"),
    lo("server.health_rtt_us_p50", "us"),
    hi("server.chunk_codec_mrows_per_s", "Mrows/s"),
    hi("server.stream_mrows_per_s", "Mrows/s"),
    lo("server.busy_refusals", "count"),
    lo("server.update_ms_p50", "ms"),
    lo("obs.metrics_export_ms", "ms"),
    lo("bench.trace_overhead_frac", "fraction"),
    lo("bench.generator_late_ms_p95", "ms"),
    lo("bench.pool_gen_s", "s"),
    lo("bench.peel_inversions", "count"),
];

/// Modeled-device counts: with the same seed they must repeat exactly on
/// any host, so `compare` checks them by equality instead of by bound.
pub fn is_exact(name: &str) -> bool {
    name.starts_with("gpu-sim.") || name == "signature.filter_gld_per_query"
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Pair measured values with the catalogue, in catalogue order; a metric
/// nobody measured is a bug in the harness, not a 0.
pub fn in_catalogue_order(
    catalogue: impl Iterator<Item = (&'static str, &'static str)>,
    measured: &[(&'static str, f64)],
) -> Vec<Value> {
    catalogue
        .map(|(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            Value { name, unit, value }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(crate::workloads::NAMES);
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(u), "bad unit {u}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what
    /// `compare` and the reports use. They must say the same thing.
    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let flat: String = json.split_whitespace().collect();
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            flat.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric this table does not"
        );
        for name in crate::workloads::NAMES {
            let w = crate::workloads::workload(name, false).unwrap();
            assert!(json.contains(&format!("\"name\": \"{name}\"")));
            assert!(json.contains(w.why), "why of {name} differs");
        }
    }
}
