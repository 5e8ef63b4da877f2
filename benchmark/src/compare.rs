//! `compare A B`: do two result sets agree?
//!
//! One row per (workload, metric) with both medians and quartiles, the
//! bound and a verdict, B judged against A:
//!
//! * `ok` — B's median is not worse than A's by more than the bound;
//! * `regressed` — it is;
//! * `unresolved` — the run-to-run spread of either set exceeds the
//!   bound, so the medians cannot carry the claim (unless every run of B
//!   is better than every run of A);
//! * exact metrics (modeled device counts) are compared by equality, seed
//!   by seed: `ok` or `regressed`;
//! * per-layer metrics have no bound and are listed as `info`.
//!
//! Sets whose `pool_digest`s differ answered different queries and are
//! refused.

use crate::metrics::{is_exact, Better, END_TO_END, PER_LAYER};
use crate::report::Row;
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub spread: f64,
}

fn summarize(values: &[f64]) -> Summary {
    if values.len() < 2 {
        let m = median(values);
        return Summary {
            n: values.len(),
            q1: m,
            median: m,
            q3: m,
            spread: 0.0,
        };
    }
    let (q1, q2, q3) = quartiles(values);
    Summary {
        n: values.len(),
        q1,
        median: q2,
        q3,
        spread: spread(values),
    }
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Summary,
    pub b: Summary,
    pub bound: Option<f64>,
    /// How much worse B's median is, as a share of A's (negative = better).
    pub worse: f64,
    pub verdict: &'static str,
}

type Key = (String, String);

/// seed → value per (workload, metric), and seed → digest per workload.
struct Set {
    values: BTreeMap<Key, BTreeMap<u64, f64>>,
    units: BTreeMap<String, String>,
    digests: BTreeMap<String, BTreeMap<u64, String>>,
}

fn index(rows: &[Row], side: &str) -> Result<Set, String> {
    let mut set = Set {
        values: BTreeMap::new(),
        units: BTreeMap::new(),
        digests: BTreeMap::new(),
    };
    for r in rows {
        let known = set
            .digests
            .entry(r.workload.clone())
            .or_default()
            .entry(r.seed)
            .or_insert_with(|| r.pool_digest.clone());
        if *known != r.pool_digest {
            return Err(format!(
                "set {side}: workload {} seed {} has two pool digests ({known}, {}): the pool is not a function of the seed",
                r.workload, r.seed, r.pool_digest
            ));
        }
        // A seed run twice in one set keeps its last value; sets are
        // meant to hold one run per (workload, seed, trace).
        set.values
            .entry((r.workload.clone(), r.metric.clone()))
            .or_default()
            .insert(r.seed, r.value);
        set.units.insert(r.metric.clone(), r.unit.clone());
    }
    Ok(set)
}

fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> (f64, &'static str) {
    let (sa, sb) = (summarize(a), summarize(b));
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse = if sa.median == 0.0 {
        0.0
    } else {
        sign * (sb.median - sa.median) / sa.median.abs()
    };
    if worse > bound {
        return (worse, "regressed");
    }
    if sa.spread.max(sb.spread) > bound {
        let b_always_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
        if !b_always_better {
            return (worse, "unresolved");
        }
    }
    (worse, "ok")
}

/// Compare two result sets.
pub fn compare(a: &[Row], b: &[Row]) -> Result<Vec<Line>, String> {
    let (a, b) = (index(a, "A")?, index(b, "B")?);
    for (workload, seeds_a) in &a.digests {
        let Some(seeds_b) = b.digests.get(workload) else {
            continue;
        };
        if seeds_a != seeds_b {
            return Err(format!(
                "workload {workload}: the sets ran different pools (A: {seeds_a:?}, B: {seeds_b:?}); \
                 results with different pool digests are not comparable"
            ));
        }
    }
    let catalogue = END_TO_END
        .iter()
        .map(|m| (m.name, m.better, Some(m.bound)))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.better, None)));
    let mut lines = Vec::new();
    for workload in crate::workloads::NAMES {
        for (name, better, bound) in catalogue.clone() {
            let key = (workload.to_string(), name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (xa, xb): (Vec<f64>, Vec<f64>) = (
                va.values().copied().collect(),
                vb.values().copied().collect(),
            );
            let (worse, verdict) = if is_exact(name) {
                (0.0, if va == vb { "ok" } else { "regressed" })
            } else if let Some(bound) = bound {
                verdict(better, bound, &xa, &xb)
            } else {
                (verdict(better, f64::INFINITY, &xa, &xb).0, "info")
            };
            lines.push(Line {
                workload: workload.to_string(),
                metric: name.to_string(),
                unit: a.units.get(name).cloned().unwrap_or_default(),
                a: summarize(&xa),
                b: summarize(&xb),
                bound: if is_exact(name) { Some(0.0) } else { bound },
                worse,
                verdict,
            });
        }
    }
    if lines.is_empty() {
        return Err("the sets share no (workload, metric) pair".to_string());
    }
    Ok(lines)
}

/// Render the comparison as a table.
pub fn render(lines: &[Line]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<12} {:<34} {:>9} | {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>6} {:>8} verdict",
        "workload",
        "metric",
        "unit",
        "A.q1",
        "A.median",
        "A.q3",
        "B.q1",
        "B.median",
        "B.q3",
        "bound",
        "worse"
    )
    .expect("writing to a String");
    for l in lines {
        let bound = l
            .bound
            .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
        writeln!(
            out,
            "{:<12} {:<34} {:>9} | {:>12.4} {:>12.4} {:>12.4} | {:>12.4} {:>12.4} {:>12.4} | {:>6} {:>+7.1}% {}",
            l.workload, l.metric, l.unit, l.a.q1, l.a.median, l.a.q3, l.b.q1, l.b.median, l.b.q3, bound,
            l.worse * 100.0, l.verdict
        )
        .expect("writing to a String");
    }
    let count = |v: &str| lines.iter().filter(|l| l.verdict == v).count();
    writeln!(
        out,
        "{} ok, {} regressed, {} unresolved, {} info",
        count("ok"),
        count("regressed"),
        count("unresolved"),
        count("info")
    )
    .expect("writing to a String");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(workload: &str, metric: &str, digest: &str, values: &[f64]) -> Vec<Row> {
        values
            .iter()
            .enumerate()
            .map(|(seed, &value)| Row {
                workload: workload.to_string(),
                seed: seed as u64,
                trace: false,
                pool_digest: format!("{digest}{seed}"),
                metric: metric.to_string(),
                unit: "ms".to_string(),
                value,
            })
            .collect()
    }

    fn only(lines: Vec<Line>) -> Line {
        assert_eq!(lines.len(), 1);
        lines.into_iter().next().unwrap()
    }

    #[test]
    fn agreeing_sets_are_ok_and_a_slowdown_past_the_bound_regresses() {
        let a = rows(
            "wire-light",
            "latency_p50_ms",
            "d",
            &[10.0, 10.1, 9.9, 10.0, 10.05],
        );
        let same = rows(
            "wire-light",
            "latency_p50_ms",
            "d",
            &[10.1, 10.0, 10.0, 9.95, 10.1],
        );
        let l = only(compare(&a, &same).unwrap());
        assert_eq!(l.verdict, "ok");
        let bound = END_TO_END[0].bound;
        assert_eq!(
            (END_TO_END[0].name, l.bound),
            ("latency_p50_ms", Some(bound))
        );
        let slow = rows(
            "wire-light",
            "latency_p50_ms",
            "d",
            &[13.5, 13.6, 13.4, 13.5, 13.5],
        );
        let l = only(compare(&a, &slow).unwrap());
        assert_eq!(l.verdict, "regressed");
        assert!(l.worse > bound);
        // Higher-is-better metrics flip the sign.
        let a = rows("wire-light", "throughput_qps", "d", &[100.0, 101.0, 99.0]);
        let b = rows("wire-light", "throughput_qps", "d", &[70.0, 71.0, 69.0]);
        assert_eq!(only(compare(&a, &b).unwrap()).verdict, "regressed");
        assert_eq!(only(compare(&b, &a).unwrap()).verdict, "ok");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let a = rows(
            "wire-heavy",
            "latency_p50_ms",
            "d",
            &[10.0, 14.0, 8.0, 12.0, 9.0],
        );
        let b = rows(
            "wire-heavy",
            "latency_p50_ms",
            "d",
            &[10.5, 13.0, 8.5, 12.0, 9.0],
        );
        assert_eq!(only(compare(&a, &b).unwrap()).verdict, "unresolved");
        let b = rows(
            "wire-heavy",
            "latency_p50_ms",
            "d",
            &[5.0, 7.0, 4.0, 6.0, 4.5],
        );
        assert_eq!(only(compare(&a, &b).unwrap()).verdict, "ok");
    }

    #[test]
    fn differing_pool_digests_are_refused() {
        let a = rows("wire-light", "latency_p50_ms", "x", &[10.0, 10.0]);
        let b = rows("wire-light", "latency_p50_ms", "y", &[10.0, 10.0]);
        let err = compare(&a, &b).unwrap_err();
        assert!(err.contains("not comparable"), "{err}");
        // So is a set that disagrees with itself.
        let mut twice = a.clone();
        twice.push(Row {
            pool_digest: "other".to_string(),
            ..a[0].clone()
        });
        assert!(compare(&twice, &a)
            .unwrap_err()
            .contains("two pool digests"));
    }

    #[test]
    fn exact_metrics_compare_by_equality_seed_by_seed() {
        let a = rows(
            "engine-join",
            "gpu-sim.gld_per_query",
            "d",
            &[1000.0, 2000.0],
        );
        assert_eq!(only(compare(&a, &a).unwrap()).verdict, "ok");
        // Same multiset, different seeds: still a difference.
        let b = rows(
            "engine-join",
            "gpu-sim.gld_per_query",
            "d",
            &[2000.0, 1000.0],
        );
        assert_eq!(only(compare(&a, &b).unwrap()).verdict, "regressed");
        // One transaction fewer is a difference too: exact means exact.
        let b = rows(
            "engine-join",
            "gpu-sim.gld_per_query",
            "d",
            &[1000.0, 1999.0],
        );
        assert_eq!(only(compare(&a, &b).unwrap()).verdict, "regressed");
    }

    #[test]
    fn per_layer_metrics_are_informational() {
        let a = rows("wire-light", "server.egress_ms_p50", "d", &[1.0, 1.1, 0.9]);
        let b = rows("wire-light", "server.egress_ms_p50", "d", &[5.0, 5.1, 4.9]);
        let l = only(compare(&a, &b).unwrap());
        assert_eq!((l.verdict, l.bound), ("info", None));
        assert!(render(&[l]).contains("info"));
    }
}
