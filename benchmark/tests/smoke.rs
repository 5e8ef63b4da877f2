//! The `--smoke` configuration end to end: every workload, untraced and
//! traced, on a graph small enough for `cargo test`. It checks that the
//! harness holds together — gates pass, every catalogued metric is
//! reported, the span file is written — not what the numbers are.

use gsi_benchmark::metrics::{END_TO_END, PER_LAYER};
use gsi_benchmark::run::{run, Options, Report};
use gsi_benchmark::{compare, report, workloads};
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    // Inside the package's own (git-ignored) target directory, wherever
    // CARGO_TARGET_DIR points the build itself.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-out")
}

fn smoke(workload: &str, seed: u64, trace: bool) -> Report {
    let report = run(&Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.5,
        trace,
        smoke: true,
        out_dir: out_dir(),
    })
    .unwrap_or_else(|e| panic!("{workload} seed {seed}: {e}"));
    assert!(
        report.correct && report.failed == 0,
        "{workload}: {:?}",
        report.notes
    );
    assert!(report.attempted >= 1);
    report
}

#[test]
fn every_workload_runs_untraced_and_reports_every_end_to_end_metric() {
    for name in workloads::NAMES {
        let r = smoke(name, 1, false);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{name}");
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{name}: {} = {} (end-to-end metrics are never 0)",
                m.name,
                m.value
            );
        }
        assert!(r.span_file.is_none());
        let line = report::json_line(&r);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn every_workload_runs_traced_and_reports_every_per_layer_metric() {
    for name in workloads::NAMES {
        let r = smoke(name, 2, true);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{name}");
        assert!(r.metrics.iter().all(|m| m.value.is_finite()));
        let value = |n: &str| r.metrics.iter().find(|m| m.name == n).unwrap().value;
        // The layers a workload bypasses report 0; the ones it crosses do not.
        let served = name != "engine-join";
        assert_eq!(value("server.egress_ms_p50") > 0.0, served, "{name}");
        assert_eq!(value("server.health_rtt_us_p50") > 0.0, served, "{name}");
        assert_eq!(
            value("server.update_ms_p50") > 0.0,
            name == "wire-churn",
            "{name}"
        );
        assert!(value("signature.filter_ms_p50") > 0.0);
        assert!(value("gpu-sim.gld_per_query") > 0.0);
        assert!(value("bench.trace_overhead_frac").abs() < 0.5);

        let spans = std::fs::read_to_string(r.span_file.as_ref().expect("traced run writes spans"))
            .expect("span file is readable");
        let mut lines = spans.lines();
        assert_eq!(lines.next(), Some("name,start_ns,end_ns,parent,request"));
        assert!(spans.contains("peel.engine,") && spans.contains("peel.filter,"));
        assert_eq!(spans.contains("client.query,"), served, "{name}");
        for line in lines {
            let f: Vec<&str> = line.split(',').collect();
            assert_eq!(f.len(), 5, "{line}");
            let (start, end): (u64, u64) = (f[1].parse().unwrap(), f[2].parse().unwrap());
            assert!(end >= start, "{line}");
        }
    }
}

#[test]
fn modeled_device_counts_repeat_exactly_and_a_second_seed_changes_the_digest() {
    let save = |r: &Report| {
        let path = out_dir().join(format!("set-{}-{}.tsv", r.seed, std::process::id()));
        std::fs::create_dir_all(out_dir()).unwrap();
        let _ = std::fs::remove_file(&path);
        report::append_tsv(&path, r).unwrap();
        let rows = report::parse_tsv(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        rows
    };
    let (a, b) = (smoke("engine-join", 5, true), smoke("engine-join", 5, true));
    assert_eq!(a.pool_digest, b.pool_digest);
    let lines = compare::compare(&save(&a), &save(&b)).expect("same seed, same pool");
    for l in lines.iter().filter(|l| l.metric.starts_with("gpu-sim.")) {
        assert_eq!(
            l.verdict, "ok",
            "{} differs between identical runs",
            l.metric
        );
        assert_eq!(l.a.median, l.b.median);
    }
    assert!(lines.iter().any(|l| l.metric == "gpu-sim.gld_per_query"));

    let c = smoke("engine-join", 6, true);
    assert_ne!(a.pool_digest, c.pool_digest);
    assert!(compare::compare(&save(&a), &save(&c)).is_err());
}
