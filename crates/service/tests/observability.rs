//! Integration tests for the observability layer: stage breakdowns that
//! account for end-to-end latency, metrics exports in both exporter
//! formats, and the slow-query flight recorder — all exercised through
//! the public `GsiService` surface.

use std::time::Duration;

use gsi_datasets::{build, DatasetKind, DatasetSpec};
use gsi_graph::query_gen::random_walk_query;
use gsi_graph::{Graph, GraphBuilder};
use gsi_obs::Stage;
use gsi_service::{
    GsiService, MetricFormat, QueryRequest, ServiceConfig, TraceConfig, TraceOutcome, UpdateBatch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn data_graph() -> Graph {
    build(&DatasetSpec::scaled(DatasetKind::Enron, 0.01))
}

/// `n` random-walk patterns of 3–5 vertices over `g`.
fn patterns(g: &Graph, n: usize) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(0x0B5E);
    let mut out = Vec::new();
    while out.len() < n {
        let size = 3 + out.len() % 3;
        if let Some(q) = random_walk_query(g, size, &mut rng) {
            out.push(q);
        }
    }
    out
}

fn observed_service(trace: TraceConfig) -> GsiService {
    GsiService::new(ServiceConfig {
        workers: 2,
        trace,
        ..ServiceConfig::for_tests()
    })
}

fn serve(service: &GsiService, queries: &[Graph]) -> Vec<gsi_service::QueryResponse> {
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| {
            service
                .submit(QueryRequest::new("g", q.clone()))
                .expect("queue has room")
        })
        .collect();
    tickets.into_iter().map(|t| t.wait()).collect()
}

/// Every served query's stage breakdown (queue / plan / filter / join /
/// respond) accounts for its end-to-end latency within measurement slack.
#[test]
fn stage_breakdown_sums_to_latency() {
    let g = data_graph();
    let service = observed_service(TraceConfig::Off);
    service.register("g", g.clone());
    let responses = serve(&service, &patterns(&g, 12));

    let mut checked = 0;
    for resp in &responses {
        let outcome = resp.result.as_ref().expect("query served");
        let total = outcome.stage_breakdown.total();
        let slack = Duration::from_millis(2).max(outcome.latency / 10);
        let diff = total.abs_diff(outcome.latency);
        assert!(
            diff <= slack,
            "stage sum {total:?} vs latency {:?} (diff {diff:?} > slack {slack:?})",
            outcome.latency,
        );
        checked += 1;
    }
    assert_eq!(checked, 12);

    // The per-stage totals the stats ledger accumulated agree in spirit:
    // join dominates a subgraph-matching workload's stage time.
    let snap = service.stats();
    let total_us: u64 = snap.stage_us.iter().sum();
    assert!(total_us > 0, "stage totals recorded");
    assert!(snap.stage_us[3] > 0, "join stage saw wall time");
}

/// The Prometheus exposition parses line by line: every line is a HELP
/// comment, a TYPE comment, or a `name[{labels}] value` sample whose name
/// was declared by a preceding TYPE line.
#[test]
fn prometheus_export_parses_line_by_line() {
    let g = data_graph();
    let service = observed_service(TraceConfig::Off);
    service.register("g", g.clone());
    let n = 8;
    serve(&service, &patterns(&g, n));

    let text = service.export_metrics(MetricFormat::Prometheus);
    let valid_name = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    let mut declared: Vec<(String, String)> = Vec::new();
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP has name and text");
            assert!(valid_name(name), "bad HELP name {name:?}");
            assert!(!help.is_empty(), "empty help for {name}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest.split_once(' ').expect("TYPE has name and kind");
            assert!(valid_name(name), "bad TYPE name {name:?}");
            assert!(
                ["counter", "gauge", "histogram"].contains(&ty),
                "unknown type {ty:?} for {name}"
            );
            declared.push((name.to_string(), ty.to_string()));
        } else {
            let (sample, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok() || ["NaN", "+Inf", "-Inf"].contains(&value),
                "unparseable value {value:?} in {line:?}"
            );
            let name = sample.split('{').next().unwrap();
            assert!(valid_name(name), "bad sample name {name:?}");
            // The sample must belong to a declared metric: itself, or its
            // histogram parent via the _bucket/_sum/_count suffixes.
            let owner = declared.iter().any(|(decl, ty)| {
                name == decl
                    || (ty == "histogram"
                        && [
                            format!("{decl}_bucket"),
                            format!("{decl}_sum"),
                            format!("{decl}_count"),
                        ]
                        .iter()
                        .any(|s| s == name))
            });
            assert!(owner, "sample {name} missing TYPE declaration");
            samples += 1;
        }
    }
    assert!(
        samples > 30,
        "expected a full registry, got {samples} samples"
    );

    // Exact lines: counters the workload fully determines.
    assert!(
        text.contains(&format!("gsi_queries_submitted_total {n}")),
        "submitted counter"
    );
    assert!(
        text.contains(&format!("gsi_queries_completed_total {n}")),
        "completed counter"
    );
    assert!(text.contains("# TYPE gsi_query_latency_us histogram"));
    assert!(text.contains("gsi_query_latency_us_bucket{le=\"+Inf\"}"));
    assert!(text.contains(&format!("gsi_query_latency_us_count {n}")));
}

/// Every exported metric name obeys the project grammar
/// `gsi_<subsystem>_<quantity>[_<unit>][_total]` — enforced with the same
/// validator `gsi-lint` applies statically at registration sites, so the
/// exporter and the lint can never drift apart. Also snapshots the names
/// that were corrected when the grammar lint first ran (they previously
/// passed only the looser per-scrape validation).
#[test]
fn exported_metric_names_follow_the_grammar() {
    let g = data_graph();
    let service = observed_service(TraceConfig::Off);
    service.register("g", g.clone());
    serve(&service, &patterns(&g, 4));

    let text = service.export_metrics(MetricFormat::Prometheus);
    let mut checked = 0usize;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("# TYPE ") else {
            continue;
        };
        let name = rest.split(' ').next().unwrap_or(rest);
        assert!(
            gsi_lint::metric_name_ok(name).is_ok(),
            "exported metric `{name}` violates the naming grammar: {:?}",
            gsi_lint::metric_name_ok(name)
        );
        checked += 1;
    }
    assert!(checked > 30, "expected a full registry, saw {checked}");

    // The corrected names, exactly as exported now.
    for fixed in [
        "gsi_query_matches_total",
        "gsi_scheduler_workers",
        "gsi_service_uptime_seconds",
    ] {
        assert!(
            text.contains(&format!("# TYPE {fixed} ")),
            "missing {fixed}"
        );
    }
    // And the latent originals are gone.
    for stale in [
        "gsi_matches_total",
        "gsi_replans_total",
        "gsi_workers ",
        "gsi_uptime_seconds",
    ] {
        assert!(
            !text.contains(&format!("# TYPE {stale}")),
            "stale name {stale} still exported"
        );
    }
}

/// The JSON export is one object with a `metrics` array carrying every
/// registered metric with its type.
#[test]
fn json_export_carries_the_registry() {
    let g = data_graph();
    let service = observed_service(TraceConfig::Off);
    service.register("g", g.clone());
    serve(&service, &patterns(&g, 4));

    let json = service.export_metrics(MetricFormat::Json);
    assert!(json.starts_with("{\"metrics\":["), "envelope");
    assert!(json.ends_with("]}"), "envelope close");
    for name in [
        "gsi_queries_completed_total",
        "gsi_queue_depth_highwater",
        "gsi_query_latency_us",
        "gsi_batch_fill",
        "gsi_device_gld_transactions_total",
    ] {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "{name} missing from JSON export"
        );
    }
    assert!(json.contains("\"type\":\"histogram\""));
    assert!(json.contains("\"buckets\":["));
}

/// The queue-depth high-watermark gauge is recorded on submit and
/// exported; it never resets while the service lives.
#[test]
fn queue_depth_highwater_is_recorded() {
    let g = data_graph();
    let service = observed_service(TraceConfig::Off);
    service.register("g", g.clone());
    let qs = patterns(&g, 10);
    let responses = serve(&service, &qs);
    assert!(responses.iter().all(|r| r.result.is_ok()));

    // submit() takes the max under the queue lock, so after any accepted
    // submission the watermark is at least 1 — deterministically, however
    // fast the workers drained.
    let hw = service.scheduler().queue_depth_highwater();
    assert!((1..=qs.len()).contains(&hw), "highwater {hw}");
    assert_eq!(service.scheduler().queue_depth(), 0, "drained");
    let text = service.export_metrics(MetricFormat::Prometheus);
    assert!(text.contains(&format!("gsi_queue_depth_highwater {hw}")));
}

/// A single-vertex pattern (no join positions) must not poison the
/// q-error ledger: the mean stays clean and the gauge renders as NaN
/// until a real sample arrives.
#[test]
fn single_vertex_pattern_leaves_q_error_clean() {
    let g = data_graph();
    let service = observed_service(TraceConfig::Off);
    service.register("g", g.clone());

    // Before any query, the mean gauge renders as the exporter's NaN
    // spelling rather than poisoning the text format.
    assert!(service
        .export_metrics(MetricFormat::Prometheus)
        .contains("gsi_mean_q_error NaN"));

    let mut b = GraphBuilder::new();
    b.add_vertex(g.vlabel(0));
    let single = b.build();
    let resp = serve(&service, &[single]);
    let outcome = resp[0].result.as_ref().expect("single vertex serves");
    // A zero-join plan may report a (trivially perfect) q-error or none
    // at all — what it must never do is feed NaN/inf into the ledger.
    if let Some(e) = outcome.estimation_error {
        assert!(e.is_finite() && e >= 1.0, "degenerate q-error {e}");
    }
    let snap = service.stats();
    assert!(snap.estimation_error_sum.is_finite());
    if let Some(mean) = snap.mean_estimation_error() {
        assert!(mean.is_finite() && mean >= 1.0, "mean q-error {mean}");
    }

    // A real pattern afterwards keeps the mean finite — the degenerate
    // query contributed nothing poisonous.
    serve(&service, &patterns(&g, 3));
    let snap = service.stats();
    let mean = snap.mean_estimation_error().expect("real joins sampled");
    assert!(mean.is_finite() && mean >= 1.0, "mean q-error {mean}");
    assert!(!service
        .export_metrics(MetricFormat::Prometheus)
        .contains("gsi_mean_q_error NaN"));
}

/// The flight recorder retains completed-query traces through the
/// service, the dump is well-formed, and trace ids line up with the
/// outcomes the callers saw.
#[test]
fn flight_recorder_retains_served_queries() {
    let g = data_graph();
    let service = observed_service(TraceConfig::Off);
    service.register("g", g.clone());
    let responses = serve(&service, &patterns(&g, 12));

    let recorder = service.flight_recorder();
    assert!(!recorder.is_empty());
    assert!(recorder.len() <= recorder.capacity());
    let ids: Vec<u64> = responses
        .iter()
        .map(|r| r.result.as_ref().unwrap().query_id)
        .collect();
    for trace in recorder.records() {
        assert!(ids.contains(&trace.query_id), "trace id {}", trace.query_id);
        assert_eq!(trace.graph, "g");
        assert!(matches!(trace.outcome, TraceOutcome::Completed { .. }));
        assert!(trace.spans.is_empty(), "trace Off retains no span trees");
        assert!(!trace.planner.is_empty());
    }
    let dump = service.dump_flight_recorder();
    assert!(dump.starts_with("{\"capacity\":"));
    assert!(dump.contains("\"traces\":["));
    assert!(dump.contains("\"outcome\":\"completed\""));
}

/// Under `TraceConfig::On`, retained traces carry a span tree: the five
/// stages at depth 0 in order, join-step children at depth 1, and the
/// plan's explain rows for provenance.
#[test]
fn trace_on_attaches_span_trees() {
    let g = data_graph();
    let service = observed_service(TraceConfig::On);
    service.register("g", g.clone());
    serve(&service, &patterns(&g, 6));

    let records = service.flight_recorder().records();
    assert!(!records.is_empty());
    for trace in &records {
        let roots: Vec<Stage> = trace
            .spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.stage)
            .collect();
        assert_eq!(
            roots,
            vec![
                Stage::Queue,
                Stage::Plan,
                Stage::Filter,
                Stage::Join,
                Stage::Respond
            ],
            "stage roots in order"
        );
        // Join-step children: one per executed join position, nested
        // under the join stage's window.
        let join_root = trace.spans.iter().find(|s| s.stage == Stage::Join).unwrap();
        let children: Vec<_> = trace.spans.iter().filter(|s| s.depth == 1).collect();
        assert!(!children.is_empty(), "multi-vertex patterns join");
        for c in &children {
            assert_eq!(c.stage, Stage::Join);
            assert!(c.detail.starts_with("step "), "detail {:?}", c.detail);
            assert!(c.start >= join_root.start);
        }
        assert!(!trace.explain_rows.is_empty(), "explain provenance");
    }
}

/// Updates are observable: splice-vs-rebuild counters tick and the drift
/// gauge reflects the last publication.
#[test]
fn update_path_is_observable() {
    let g = data_graph();
    let service = observed_service(TraceConfig::Off);
    service.register("g", g.clone());

    // Grow the graph: a fresh vertex wired to vertex 0 can't collide
    // with any existing edge.
    let fresh = g.n_vertices() as u32;
    let mut batch = UpdateBatch::new();
    batch.add_vertex(g.vlabel(0));
    batch.insert_edge(0, fresh, 0);
    service.update_graph("g", &batch).expect("update applies");

    let snap = service.stats();
    assert_eq!(
        snap.updates_incremental + snap.updates_rebuilt,
        1,
        "exactly one update recorded"
    );
    let drift = snap.last_update_drift.expect("publication reported drift");
    assert!(drift.is_finite() && drift >= 0.0);
    let text = service.export_metrics(MetricFormat::Prometheus);
    assert!(text.contains("gsi_last_update_drift "));
}
