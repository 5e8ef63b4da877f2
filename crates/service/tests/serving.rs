//! Integration tests for the serving subsystem: concurrent execution is
//! byte-identical to serial execution, queries pin their epoch across
//! updates, and every served query runs the join order the engine plans
//! fresh from its own candidate sets.

use gsi_core::{GsiConfig, GsiEngine};
use gsi_datasets::{build, DatasetKind, DatasetSpec};
use gsi_gpu_sim::{DeviceConfig, Gpu};
use gsi_graph::query_gen::random_walk_query;
use gsi_graph::{Graph, GraphBuilder};
use gsi_service::{GsiService, QueryRequest, ServiceConfig, UpdateBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two small catalog graphs from the dataset stand-ins.
fn catalog_graphs() -> Vec<(&'static str, Graph)> {
    let enron = build(&DatasetSpec::scaled(DatasetKind::Enron, 0.01));
    let gowalla = build(&DatasetSpec::scaled(DatasetKind::Gowalla, 0.004));
    vec![("enron", enron), ("gowalla", gowalla)]
}

/// A mixed workload: `n` random-walk queries of 3–5 vertices per graph.
fn workload(graphs: &[(&'static str, Graph)], n: usize) -> Vec<(&'static str, Graph)> {
    let mut queries = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for (name, g) in graphs {
        let mut made = 0;
        while made < n {
            let size = 3 + made % 3;
            if let Some(q) = random_walk_query(g, size, &mut rng) {
                queries.push((*name, q));
                made += 1;
            }
        }
    }
    queries
}

fn test_service(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: 256,
        ..ServiceConfig::for_tests()
    }
}

/// N worker threads × M in-flight queries over 2 catalog graphs produce
/// match counts identical to single-threaded serial execution.
#[test]
fn concurrent_matches_equal_serial() {
    let graphs = catalog_graphs();
    let queries = workload(&graphs, 12);

    // Serial ground truth: one engine, same configuration as the service.
    let engine = GsiEngine::with_gpu(GsiConfig::gsi(), Gpu::new(DeviceConfig::test_device()));
    let prepared: Vec<_> = graphs.iter().map(|(_, g)| engine.prepare(g)).collect();
    let serial_counts: Vec<usize> = queries
        .iter()
        .map(|(name, q)| {
            let idx = graphs.iter().position(|(n, _)| n == name).unwrap();
            engine
                .query(&graphs[idx].1, &prepared[idx], q)
                .expect("plans")
                .matches
                .len()
        })
        .collect();

    // Service with a pool of workers, everything in flight at once.
    let service = GsiService::new(test_service(4));
    for (name, g) in &graphs {
        service.register(name, g.clone());
    }
    let tickets: Vec<_> = queries
        .iter()
        .map(|(name, q)| {
            service
                .submit(QueryRequest::new(*name, q.clone()))
                .expect("queue has room")
        })
        .collect();
    let service_counts: Vec<usize> = tickets
        .into_iter()
        .map(|t| t.wait().match_count())
        .collect();

    assert_eq!(service_counts, serial_counts, "concurrent == serial");
    let snap = service.stats();
    assert_eq!(snap.completed, queries.len() as u64);
    assert_eq!(snap.engine_timeouts, 0);
}

/// Each query charges a device ledger of its own: run side by side on two
/// workers, every query reports exactly the device work it reports when it
/// runs alone, and the service's device totals are the sum of them.
/// (Batching is off: a batch shares filter work, and charges it once.)
#[test]
fn concurrent_queries_report_the_device_work_they_report_alone() {
    let graphs = catalog_graphs();
    let queries = workload(&graphs, 6);
    let service = GsiService::new(ServiceConfig {
        batch_window: 1,
        ..test_service(2)
    });
    for (name, g) in &graphs {
        service.register(name, g.clone());
    }
    let device_of =
        |resp: gsi_service::QueryResponse| resp.result.expect("query ran").output.stats.device;
    let alone: Vec<_> = queries
        .iter()
        .map(|(name, q)| {
            device_of(
                service
                    .query_blocking(QueryRequest::new(*name, q.clone()))
                    .unwrap(),
            )
        })
        .collect();
    let tickets: Vec<_> = queries
        .iter()
        .map(|(name, q)| service.submit(QueryRequest::new(*name, q.clone())).unwrap())
        .collect();
    let side_by_side: Vec<_> = tickets.into_iter().map(|t| device_of(t.wait())).collect();
    assert_eq!(side_by_side, alone);
    assert!(alone.iter().all(|d| d.gld_transactions > 0));
    let total = alone
        .iter()
        .chain(&side_by_side)
        .fold(gsi_gpu_sim::StatsSnapshot::default(), |acc, &d| acc + d);
    assert_eq!(service.stats().device, total, "preparation excluded");
}

/// Two identical service runs give identical results (scheduling noise
/// never leaks into outputs), and full matches — not just counts — equal
/// the serial canonical form.
#[test]
fn concurrent_execution_is_deterministic() {
    let graphs = catalog_graphs();
    let queries = workload(&graphs, 6);

    let run = || -> Vec<Vec<Vec<u32>>> {
        let service = GsiService::new(test_service(3));
        for (name, g) in &graphs {
            service.register(name, g.clone());
        }
        let tickets: Vec<_> = queries
            .iter()
            .map(|(name, q)| service.submit(QueryRequest::new(*name, q.clone())).unwrap())
            .collect();
        tickets
            .into_iter()
            .map(|t| {
                t.wait()
                    .result
                    .expect("query ran")
                    .output
                    .matches
                    .canonical()
            })
            .collect()
    };
    assert_eq!(run(), run());
}

/// Epoch isolation: a query admitted *before* `GraphCatalog::update`
/// publishes completes against the old epoch's data even though it executes
/// *after* the publish, while a query admitted after sees the new epoch.
/// No torn reads — each query's match count is exactly one epoch's answer —
/// and `ServiceStats` attributes each completion to the epoch it pinned.
#[test]
fn queries_pin_their_epoch_across_updates() {
    // One worker: a heavy blocker query occupies it while the lighter
    // queries sit in the queue, so the epoch-e0 query provably *executes*
    // after the update has published epoch e1.
    let service = GsiService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::for_tests()
    });

    // "g": v0(A) fanning out to 3 B-vertices over label 0.
    let mut b = GraphBuilder::new();
    let v0 = b.add_vertex(0);
    let bs: Vec<u32> = (0..3).map(|_| b.add_vertex(1)).collect();
    for &vb in &bs {
        b.add_edge(v0, vb, 0);
    }
    b.add_vertex(1); // v4: unwired B vertex the update will connect
    let e0 = service.register("g", b.build()).entry;

    // A dense blocker graph whose 4-path query takes a while.
    let mut d = GraphBuilder::new();
    let vs: Vec<u32> = (0..48).map(|i| d.add_vertex(i % 2)).collect();
    for i in 0..vs.len() {
        for j in (i + 1)..vs.len() {
            d.add_edge(vs[i], vs[j], 0);
        }
    }
    service.register("dense", d.build());
    let mut qb = GraphBuilder::new();
    let u0 = qb.add_vertex(0);
    let u1 = qb.add_vertex(1);
    let u2 = qb.add_vertex(0);
    let u3 = qb.add_vertex(1);
    qb.add_edge(u0, u1, 0);
    qb.add_edge(u1, u2, 0);
    qb.add_edge(u2, u3, 0);
    let blocker = service
        .submit(QueryRequest::new("dense", qb.build()))
        .expect("blocker admitted");

    // Admitted now: pins epoch e0 (3 matches), runs after the update.
    let before = service
        .submit(QueryRequest::new("g", edge_query_ab()))
        .expect("admitted before update");

    // Publish epoch e1: wire v4 to v0, raising the match count to 4. v4
    // had no label-0 edge, so this exercises the local-rebuild path of the
    // incremental store update.
    let mut batch = UpdateBatch::new();
    batch.insert_edge(0, 4, 0);
    let up = service.update_graph("g", &batch).expect("update applies");
    assert_eq!(up.displaced.epoch(), e0.epoch());
    let e1 = up.entry.epoch();
    assert_ne!(e0.epoch(), e1);

    // Admitted now: pins epoch e1.
    let after = service
        .submit(QueryRequest::new("g", edge_query_ab()))
        .expect("admitted after update");

    blocker.wait();
    let before = before.wait().result.expect("ran");
    let after = after.wait().result.expect("ran");

    // Old-epoch query saw exactly the old graph; new-epoch the new one.
    assert_eq!(before.epoch, e0.epoch());
    assert_eq!(before.output.matches.len(), 3, "old epoch's data, untorn");
    assert_eq!(after.epoch, e1);
    assert_eq!(after.output.matches.len(), 4, "new epoch's data, untorn");

    // Stats attribute each completion to its epoch.
    let snap = service.stats();
    assert_eq!(snap.per_epoch[&e0.epoch()].completed, 1);
    assert_eq!(snap.per_epoch[&e0.epoch()].matches, 3);
    assert_eq!(snap.per_epoch[&e1].completed, 1);
    assert_eq!(snap.per_epoch[&e1].matches, 4);
}

/// An A–a–B edge query (used by the epoch tests).
fn edge_query_ab() -> Graph {
    let mut qb = GraphBuilder::new();
    let u0 = qb.add_vertex(0);
    let u1 = qb.add_vertex(1);
    qb.add_edge(u0, u1, 0);
    qb.build()
}

/// A B–b–C edge query (labels 1 and 2 over edge label 1).
fn edge_query_bc() -> Graph {
    let mut qb = GraphBuilder::new();
    let u0 = qb.add_vertex(1);
    let u1 = qb.add_vertex(2);
    qb.add_edge(u0, u1, 1);
    qb.build()
}

/// Every served query runs the join order the engine plans fresh from the
/// candidate sets of the epoch it pinned — after a low-drift update that
/// flips the cheapest seed, and after a high-drift one. A join order from
/// an earlier epoch is never replayed.
#[test]
fn served_queries_run_the_fresh_plan_of_their_pinned_epoch() {
    let service = GsiService::new(test_service(1));
    // A star of 24 A–B–C paths: v0(A) –a– b_i(B) –b– c_i(C).
    let mut b = GraphBuilder::new();
    let v0 = b.add_vertex(0);
    let bs: Vec<u32> = (0..24).map(|_| b.add_vertex(1)).collect();
    let cs: Vec<u32> = (0..24).map(|_| b.add_vertex(2)).collect();
    for (i, &vb) in bs.iter().enumerate() {
        b.add_edge(v0, vb, 0);
        b.add_edge(vb, cs[i], 1);
    }
    service.register("g", b.build());
    let q = edge_query_bc();

    // Serve `q`, and check it against a fresh engine run on the catalog
    // entry it pinned; returns the served join order.
    let serve_and_check = || {
        let outcome = service
            .query_blocking(QueryRequest::new("g", q.clone()))
            .unwrap()
            .result
            .unwrap();
        let entry = service.catalog().get("g").unwrap();
        assert_eq!(outcome.epoch, entry.epoch());
        let fresh = service
            .engine()
            .query(entry.graph(), entry.prepared(), &q)
            .expect("plans");
        assert_eq!(outcome.output.plan, fresh.plan, "epoch {}", entry.epoch());
        assert_eq!(
            outcome.output.matches.canonical(),
            fresh.matches.canonical()
        );
        outcome.output.plan
    };
    let first = serve_and_check();

    // Low drift: one new B vertex wired to c_0. B now has 25 candidates
    // and C 24, so the cheapest order seeds from the other end.
    let mut batch = UpdateBatch::new();
    batch.add_vertex(1).insert_edge(49, cs[0], 1);
    service.update_graph("g", &batch).expect("applies");
    let drift = service.stats().last_update_drift.expect("recorded");
    assert!(drift < 0.25, "low drift: {drift}");
    let second = serve_and_check();
    assert_ne!(second, first, "the update flipped the cheapest order");

    // High drift: 20 of the 24 B–C edges removed.
    let mut batch = UpdateBatch::new();
    for i in 0..20 {
        batch.remove_edge(bs[i], cs[i], 1);
    }
    service.update_graph("g", &batch).expect("applies");
    let drift = service.stats().last_update_drift.expect("recorded");
    assert!(drift > 0.25, "high drift: {drift}");
    serve_and_check();
}

/// Serving outcomes carry planner provenance and estimation quality: the
/// default service plans cost-based, and the stats ledger aggregates both.
#[test]
fn outcomes_report_planner_kind_and_estimation_error() {
    use gsi_core::PlannerKind;
    let service = GsiService::new(test_service(1));
    let mut b = GraphBuilder::new();
    let v0 = b.add_vertex(0);
    let v1 = b.add_vertex(1);
    let v2 = b.add_vertex(1);
    b.add_edge(v0, v1, 0);
    b.add_edge(v0, v2, 0);
    service.register("g", b.build());

    let first = service
        .query_blocking(QueryRequest::new("g", edge_query_ab()))
        .unwrap()
        .result
        .unwrap();
    assert_eq!(first.output.planner, PlannerKind::CostBased);
    let err = first.estimation_error.expect("join positions executed");
    assert!(err >= 1.0, "q-error is at least 1: {err}");

    let second = service
        .query_blocking(QueryRequest::new("g", edge_query_ab()))
        .unwrap()
        .result
        .unwrap();
    assert_eq!(second.output.planner, PlannerKind::CostBased);

    let snap = service.stats();
    assert_eq!(snap.planned_cost_based, 2);
    assert_eq!(snap.planned_greedy, 0);
    assert!(snap.mean_estimation_error().expect("samples") >= 1.0);
}

/// Batched execution is invisible in results: queries drained into one
/// shared-filter batch return matches bit-identical to solo serial runs,
/// while the stats record the batching and the filter reuse it bought.
#[test]
fn batched_execution_is_bit_identical_to_solo_runs() {
    let graphs = catalog_graphs();
    let (gname, data) = &graphs[0];
    // Two recurring patterns, interleaved — the repetition a batch shares.
    let mut rng = StdRng::seed_from_u64(7);
    let patterns: Vec<Graph> = (0..2)
        .map(|_| random_walk_query(data, 4, &mut rng).expect("query"))
        .collect();
    let workload: Vec<Graph> = (0..6).map(|i| patterns[i % 2].clone()).collect();

    // Solo ground truth on an identical engine configuration.
    let engine = GsiEngine::with_gpu(GsiConfig::gsi(), Gpu::new(DeviceConfig::test_device()));
    let prepared = engine.prepare(data);
    let solo: Vec<Vec<Vec<u32>>> = workload
        .iter()
        .map(|q| {
            engine
                .query(data, &prepared, q)
                .expect("plans")
                .matches
                .canonical()
        })
        .collect();

    // One worker, parked on a dense blocker: the workload queues up behind
    // it and the next pickups drain it in batches of `batch_window`.
    let service = GsiService::new(test_service(1));
    service.register(gname, data.clone());
    let mut d = GraphBuilder::new();
    let vs: Vec<u32> = (0..48).map(|i| d.add_vertex(i % 2)).collect();
    for i in 0..vs.len() {
        for j in (i + 1)..vs.len() {
            d.add_edge(vs[i], vs[j], 0);
        }
    }
    service.register("dense", d.build());
    let mut qb = GraphBuilder::new();
    let u0 = qb.add_vertex(0);
    let u1 = qb.add_vertex(1);
    let u2 = qb.add_vertex(0);
    let u3 = qb.add_vertex(1);
    qb.add_edge(u0, u1, 0);
    qb.add_edge(u1, u2, 0);
    qb.add_edge(u2, u3, 0);
    let blocker = service
        .submit(QueryRequest::new("dense", qb.build()))
        .expect("blocker admitted");

    let tickets: Vec<_> = workload
        .iter()
        .map(|q| {
            service
                .submit(QueryRequest::new(*gname, q.clone()))
                .expect("admitted")
        })
        .collect();
    blocker.wait();
    let outcomes: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().result.expect("ran"))
        .collect();

    for (i, (outcome, expect)) in outcomes.iter().zip(&solo).enumerate() {
        assert_eq!(
            outcome.output.matches.canonical(),
            *expect,
            "query {i}: batched result must equal the solo run"
        );
    }
    assert!(
        outcomes.iter().any(|o| o.batch_size >= 2),
        "the parked queue must have produced at least one real batch"
    );
    let snap = service.stats();
    assert!(snap.batched_queries >= 2, "stats count batched queries");
    assert!(
        snap.filter_demands_reused > 0,
        "repeated patterns share filter passes (reuse rate {:.2})",
        snap.filter_reuse_rate()
    );
}
