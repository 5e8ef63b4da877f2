//! Plan-cache cardinality-feedback convergence: when a graph update makes a
//! cached join order stale, the next adaptive run re-plans mid-query, the
//! measured-better order is fed back into the cache, and every later run of
//! the same canonical pattern executes the refined order — with the recorded
//! q-error non-increasing and the results bit-identical to a cold service.
//!
//! The fixture is a fork pattern `a(0)–b(1)` with two same-edge-label
//! branches `b–x(2)` and `b–y(3)` whose typed densities *flip* across the
//! epoch boundary: epoch 1 has B–X sparse / B–Y complete-bipartite, epoch 2
//! inverts both. The epoch-1 optimal suffix (x early, y last) is exactly
//! wrong afterwards, so the migrated plan forces a mid-query re-plan.

use gsi_core::{GsiConfig, PlannerKind};
use gsi_graph::{Graph, GraphBuilder};
use gsi_service::{
    GsiService, MetricFormat, QueryOutcome, QueryRequest, ServiceConfig, UpdateBatch,
};

const AS: usize = 2;
const BS: usize = 60;
const XS: usize = 3;
const YS: usize = 8;

/// Vertex ids by construction order: a's, then b's, x's, y's.
fn a(i: usize) -> u32 {
    i as u32
}
fn b(i: usize) -> u32 {
    (AS + i) as u32
}
fn x(i: usize) -> u32 {
    (AS + BS + i) as u32
}
fn y(i: usize) -> u32 {
    (AS + BS + XS + i) as u32
}

/// Epoch-1 data: B–X sparse (3 edges), B–Y dense (every b × every y).
fn epoch1_graph() -> Graph {
    let mut gb = GraphBuilder::new();
    for _ in 0..AS {
        gb.add_vertex(0);
    }
    for _ in 0..BS {
        gb.add_vertex(1);
    }
    for _ in 0..XS {
        gb.add_vertex(2);
    }
    for _ in 0..YS {
        gb.add_vertex(3);
    }
    for i in 0..BS {
        gb.add_edge(a(i % AS), b(i), 0);
    }
    for i in 0..XS {
        gb.add_edge(b(i), x(i), 1);
    }
    for i in 0..BS {
        for j in 0..YS {
            gb.add_edge(b(i), y(j), 1);
        }
    }
    gb.build()
}

/// The update that flips both branch densities: B–X becomes complete
/// bipartite, B–Y shrinks to one edge per y (on every 7th b).
fn density_flip() -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for i in 0..BS {
        for j in 0..XS {
            if !(i < XS && j == i) {
                batch.insert_edge(b(i), x(j), 1);
            }
        }
    }
    for i in 0..BS {
        for j in 0..YS {
            if i != j * 7 {
                batch.remove_edge(b(i), y(j), 1);
            }
        }
    }
    batch
}

/// Epoch-2 data built directly (no update machinery): the cold-service
/// ground truth the adaptive runs must match bit-for-bit.
fn epoch2_graph() -> Graph {
    let mut gb = GraphBuilder::new();
    for _ in 0..AS {
        gb.add_vertex(0);
    }
    for _ in 0..BS {
        gb.add_vertex(1);
    }
    for _ in 0..XS {
        gb.add_vertex(2);
    }
    for _ in 0..YS {
        gb.add_vertex(3);
    }
    for i in 0..BS {
        gb.add_edge(a(i % AS), b(i), 0);
    }
    for i in 0..BS {
        for j in 0..XS {
            gb.add_edge(b(i), x(j), 1);
        }
    }
    for j in 0..YS {
        gb.add_edge(b(j * 7), y(j), 1);
    }
    gb.build()
}

/// Fork query: a(0)–0–b(1), b–1–x(2), b–1–y(3).
fn fork_query() -> Graph {
    let mut qb = GraphBuilder::new();
    let qa = qb.add_vertex(0);
    let qv = qb.add_vertex(1);
    let qx = qb.add_vertex(2);
    let qy = qb.add_vertex(3);
    qb.add_edge(qa, qv, 0);
    qb.add_edge(qv, qx, 1);
    qb.add_edge(qv, qy, 1);
    qb.build()
}

/// Cost-based service with adaptive execution always armed (threshold 1.0
/// examines every step) and migration guaranteed (drift threshold 1.0).
fn adaptive_service() -> ServiceConfig {
    ServiceConfig {
        engine: GsiConfig::gsi()
            .with_planner(PlannerKind::CostBased)
            .with_replan_qerror_threshold(Some(1.0)),
        workers: 1,
        batch_window: 1,
        replan_drift_threshold: 1.0,
        ..ServiceConfig::for_tests()
    }
}

fn run(service: &GsiService, query: &Graph) -> QueryOutcome {
    service
        .submit(QueryRequest::new("g", query.clone()))
        .expect("queue has room")
        .wait()
        .result
        .expect("fork query plans")
}

/// The full convergence story: stale migrated plan → mid-query re-plan →
/// feedback refinement → stable measured-optimal order, equal results
/// throughout.
#[test]
fn feedback_converges_to_the_measured_optimal_order_after_an_epoch_flip() {
    let query = fork_query();
    let service = GsiService::new(adaptive_service());
    service.register("g", epoch1_graph());

    // Epoch 1: cold plan, then a warm hit. No feedback exists yet.
    let cold = run(&service, &query);
    assert!(!cold.plan_cache_hit, "first run must plan from scratch");
    assert!(!cold.plan_feedback);
    let warm = run(&service, &query);
    assert!(warm.plan_cache_hit, "identical pattern must hit the cache");
    assert!(
        !warm.plan_feedback,
        "nothing has refined the entry in epoch 1"
    );
    assert_eq!(
        warm.output.matches.canonical(),
        cold.output.matches.canonical(),
        "cache hit must not change results"
    );

    // Flip the branch densities. Drift threshold 1.0 migrates the cached
    // plan — now exactly wrong for the new data.
    service
        .update_graph("g", &density_flip())
        .expect("update applies");
    assert!(
        service.stats().plans_migrated >= 1,
        "drift threshold 1.0 must migrate the cached plan"
    );

    // Epoch 2, run 1: the migrated stale plan triggers a mid-query
    // re-plan, and the spliced order is fed back into the cache.
    let stale = run(&service, &query);
    assert!(stale.plan_cache_hit, "migrated entry still serves the hit");
    assert!(
        !stale.plan_feedback,
        "the entry is only refined after this run records"
    );
    assert!(
        stale.output.stats.replans >= 1,
        "stale suffix must force a mid-query re-plan (got {})",
        stale.output.stats.replans
    );
    let pre_q = stale
        .output
        .pre_replan_q_error
        .expect("a re-planning run reports the abandoned plan's q-error");
    assert!(pre_q.is_finite() && pre_q >= 1.0);

    // Epoch 2, runs 2..: feedback hits executing the refined order, which
    // no longer needs to re-plan and stays put across repetitions.
    let refined = run(&service, &query);
    assert!(refined.plan_cache_hit);
    assert!(
        refined.plan_feedback,
        "the hit must come from the feedback-refined entry"
    );
    assert_eq!(
        refined.output.plan.order, stale.output.plan.order,
        "cached refined order == the order the adaptive run spliced to"
    );
    assert_ne!(
        refined.output.plan.order, warm.output.plan.order,
        "refinement must actually change the executed order"
    );
    assert_eq!(
        refined.output.stats.replans, 0,
        "the measured-optimal order has nothing left to re-plan"
    );

    let stable = run(&service, &query);
    assert!(stable.plan_feedback);
    assert_eq!(stable.output.plan.order, refined.output.plan.order);
    assert_eq!(stable.output.stats.replans, 0);

    // Recorded q-error is the best seen: non-increasing across lookups.
    let q_refined = refined
        .estimates
        .as_ref()
        .and_then(|e| e.q_error)
        .expect("feedback leaves a measured q-error on the entry");
    let q_stable = stable
        .estimates
        .as_ref()
        .and_then(|e| e.q_error)
        .expect("q-error persists on later hits");
    assert!(
        q_stable <= q_refined,
        "recorded q-error must be non-increasing ({q_stable} > {q_refined})"
    );

    // Equivalence: every epoch-2 run — stale, re-planned, refined — is
    // bit-identical to a cold cost-based service on the same data.
    let cold_service = GsiService::new(adaptive_service());
    cold_service.register("g", epoch2_graph());
    let truth = run(&cold_service, &query).output.matches.canonical();
    assert!(!truth.is_empty(), "fixture must produce matches");
    for (name, outcome) in [
        ("stale", &stale),
        ("refined", &refined),
        ("stable", &stable),
    ] {
        assert_eq!(
            outcome.output.matches.canonical(),
            truth,
            "{name} run diverged from the cold service"
        );
    }

    // The adaptive counters surface through stats and the metrics registry.
    let snap = service.stats();
    assert!(snap.replans >= 1, "aggregated re-plan count");
    assert!(snap.plan_feedback_hits >= 2, "two feedback hits recorded");
    let mean_pre = snap
        .mean_pre_replan_error()
        .expect("re-planning runs leave a pre-replan q-error sample");
    assert!(mean_pre.is_finite() && mean_pre >= 1.0);

    let text = service.export_metrics(MetricFormat::Prometheus);
    assert!(
        text.contains("gsi_query_replans_total"),
        "metrics must export the re-plan counter:\n{text}"
    );
    assert!(
        text.contains("gsi_plan_feedback_hits_total"),
        "metrics must export the feedback-hit counter:\n{text}"
    );
    assert!(
        text.contains("gsi_mean_pre_replan_q_error"),
        "metrics must export the pre-replan q-error gauge:\n{text}"
    );
}

/// A service whose engine never arms the adaptive threshold records no
/// re-plans and no feedback, even across the same epoch flip — the knob,
/// not the workload, controls the behavior.
#[test]
fn adaptive_machinery_stays_cold_without_a_threshold() {
    let query = fork_query();
    let service = GsiService::new(ServiceConfig {
        engine: GsiConfig::gsi().with_planner(PlannerKind::CostBased),
        workers: 1,
        batch_window: 1,
        replan_drift_threshold: 1.0,
        ..ServiceConfig::for_tests()
    });
    service.register("g", epoch1_graph());

    let first = run(&service, &query);
    service
        .update_graph("g", &density_flip())
        .expect("update applies");
    let second = run(&service, &query);
    let third = run(&service, &query);

    for outcome in [&first, &second, &third] {
        assert_eq!(outcome.output.stats.replans, 0);
        assert!(!outcome.plan_feedback);
        assert!(outcome.output.pre_replan_q_error.is_none());
    }
    let snap = service.stats();
    assert_eq!(snap.replans, 0);
    assert_eq!(snap.plan_feedback_hits, 0);
    assert!(snap.mean_pre_replan_error().is_none());
}
