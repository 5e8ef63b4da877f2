//! Integration tests for the serving subsystem: concurrent execution is
//! byte-identical to serial execution, and the plan cache amortizes
//! planning across repeated and relabeled patterns.

use gsi_core::{GsiConfig, GsiEngine};
use gsi_datasets::{build, DatasetKind, DatasetSpec};
use gsi_gpu_sim::{DeviceConfig, Gpu};
use gsi_graph::query_gen::random_walk_query;
use gsi_graph::{Graph, GraphBuilder};
use gsi_service::{
    canonicalize, GsiService, QueryRequest, ServiceConfig, SubmitError, UpdateBatch,
};
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

/// Repeat queries hit the plan cache; the hit rate over a repeated
/// workload is strictly positive and the cached plans change no results.
#[test]
fn repeated_workload_hits_plan_cache() {
    let graphs = catalog_graphs();
    let queries = workload(&graphs, 5);

    let service = GsiService::new(test_service(2));
    for (name, g) in &graphs {
        service.register(name, g.clone());
    }
    let mut counts_by_round = Vec::new();
    for _round in 0..3 {
        let tickets: Vec<_> = queries
            .iter()
            .map(|(name, q)| service.submit(QueryRequest::new(*name, q.clone())).unwrap())
            .collect();
        counts_by_round.push(
            tickets
                .into_iter()
                .map(|t| t.wait().match_count())
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(counts_by_round[0], counts_by_round[1]);
    assert_eq!(counts_by_round[0], counts_by_round[2]);

    let snap = service.stats();
    assert!(
        snap.plan_cache_hit_rate() > 0.0,
        "repeat workload must hit the cache (rate {})",
        snap.plan_cache_hit_rate()
    );
    // Rounds 2 and 3 replay round 1's patterns exactly: at least 2/3 of
    // lookups hit (distinct patterns miss once each).
    assert!(
        snap.plan_cache_hits >= 2 * snap.plan_cache_misses,
        "hits {} vs misses {}",
        snap.plan_cache_hits,
        snap.plan_cache_misses
    );
}

/// Isomorphic-but-relabeled queries hash to the same plan key and share a
/// cache entry.
#[test]
fn relabeled_queries_share_plan_entries() {
    // A labeled path pattern and a vertex-permuted copy.
    let mut b = GraphBuilder::new();
    let u0 = b.add_vertex(0);
    let u1 = b.add_vertex(1);
    let u2 = b.add_vertex(2);
    b.add_edge(u0, u1, 0);
    b.add_edge(u1, u2, 1);
    let q = b.build();

    let mut b = GraphBuilder::new();
    let w2 = b.add_vertex(2); // ids reversed
    let w1 = b.add_vertex(1);
    let w0 = b.add_vertex(0);
    b.add_edge(w0, w1, 0);
    b.add_edge(w1, w2, 1);
    let q_relabeled = b.build();

    assert_eq!(
        canonicalize(&q).key,
        canonicalize(&q_relabeled).key,
        "relabelings share the canonical key"
    );

    let service = GsiService::new(test_service(1));
    let (name, data) = &catalog_graphs()[0];
    service.register(name, data.clone());

    let first = service
        .query_blocking(QueryRequest::new(*name, q.clone()))
        .unwrap()
        .result
        .unwrap();
    assert!(!first.plan_cache_hit);
    let second = service
        .query_blocking(QueryRequest::new(*name, q_relabeled.clone()))
        .unwrap()
        .result
        .unwrap();
    assert!(
        second.plan_cache_hit,
        "the relabeled pattern must reuse the cached plan"
    );
    assert_eq!(service.plan_cache().len(), 1, "one shared entry");

    // Same pattern, same data ⇒ same number of embeddings.
    assert_eq!(
        first.output.matches.len(),
        second.output.matches.len(),
        "relabeling cannot change the embedding count"
    );
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

/// After a past-threshold update, cached plans are *re-costed* under the
/// new epoch's statistics: a plan whose cheapest order is unchanged is
/// carried over (and keeps serving hits), never blindly replayed — the
/// re-cost decision is observable in the service stats, and results stay
/// correct against the new data.
#[test]
fn high_drift_updates_recost_old_epoch_plans() {
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
    assert!(!first.plan_cache_hit);
    assert_eq!(service.plan_cache().len(), 1);

    // Removing 1 of 2 edges moves the statistics catalog far past the
    // 0.25 drift threshold: the blanket migration path must NOT run.
    let mut batch = UpdateBatch::new();
    batch.remove_edge(0, 2, 0);
    service.update_graph("g", &batch).expect("applies");
    let snap = service.stats();
    assert_eq!(snap.plans_migrated, 0, "drift too large to migrate blindly");
    assert_eq!(
        snap.plans_recost_kept + snap.plans_recost_dropped,
        1,
        "the cached plan was re-costed"
    );

    // Either way the next query answers correctly against the new data; a
    // re-cost survivor serves it as a hit, a dropped plan re-plans.
    let second = service
        .query_blocking(QueryRequest::new("g", edge_query_ab()))
        .unwrap()
        .result
        .unwrap();
    assert_eq!(second.output.matches.len(), 1, "new epoch's data");
    assert_eq!(
        second.plan_cache_hit,
        snap.plans_recost_kept == 1,
        "hit iff the re-cost kept the order"
    );
    let third = service
        .query_blocking(QueryRequest::new("g", edge_query_ab()))
        .unwrap()
        .result
        .unwrap();
    assert!(
        third.plan_cache_hit,
        "the pattern is cached again either way"
    );
}

/// A small update (statistics drift under the threshold) migrates cached
/// plans to the new epoch: recurring patterns keep hitting the plan cache
/// across a stream of minor mutations instead of re-planning after each.
#[test]
fn low_drift_updates_migrate_cached_plans() {
    let service = GsiService::new(test_service(1));
    // A larger graph so one extra edge is a tiny relative drift.
    let mut b = GraphBuilder::new();
    let v0 = b.add_vertex(0);
    let bs: Vec<u32> = (0..24).map(|_| b.add_vertex(1)).collect();
    let cs: Vec<u32> = (0..24).map(|_| b.add_vertex(2)).collect();
    for (i, &vb) in bs.iter().enumerate() {
        b.add_edge(v0, vb, 0);
        b.add_edge(vb, cs[i], 1);
    }
    service.register("g", b.build());

    let first = service
        .query_blocking(QueryRequest::new("g", edge_query_ab()))
        .unwrap()
        .result
        .unwrap();
    assert!(!first.plan_cache_hit);
    assert_eq!(service.plan_cache().len(), 1);

    let mut batch = UpdateBatch::new();
    batch.insert_edge(bs[0], cs[1], 1);
    let up = service.update_graph("g", &batch).expect("applies");
    assert_ne!(up.entry.epoch(), up.displaced.epoch(), "epoch bumped");

    let snap = service.stats();
    assert_eq!(snap.plans_migrated, 1, "plan carried to the new epoch");
    assert_eq!(snap.plans_recost_kept + snap.plans_recost_dropped, 0);
    assert_eq!(service.plan_cache().len(), 1);

    let second = service
        .query_blocking(QueryRequest::new("g", edge_query_ab()))
        .unwrap()
        .result
        .unwrap();
    assert!(second.plan_cache_hit, "migrated plan serves the new epoch");
    assert_eq!(second.epoch, up.entry.epoch());
    assert_eq!(second.output.matches.len(), 24);
}

/// Serving outcomes carry planner provenance and estimation quality: the
/// default service plans cost-based, hits report the cached provenance,
/// and the stats ledger aggregates both.
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
    assert_eq!(first.planner_kind, PlannerKind::CostBased);
    let err = first.estimation_error.expect("join positions executed");
    assert!(err >= 1.0, "q-error is at least 1: {err}");

    let second = service
        .query_blocking(QueryRequest::new("g", edge_query_ab()))
        .unwrap()
        .result
        .unwrap();
    assert!(second.plan_cache_hit);
    assert_eq!(
        second.planner_kind,
        PlannerKind::CostBased,
        "hits report the cached plan's provenance"
    );

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

/// The same pattern on two different catalog graphs gets two cache entries
/// (plans are data-dependent), and both serve correctly.
#[test]
fn plan_cache_scoped_per_graph() {
    let graphs = catalog_graphs();
    let service = GsiService::new(test_service(2));
    for (name, g) in &graphs {
        service.register(name, g.clone());
    }
    let q = workload(&graphs, 1)[0].1.clone();
    for (name, _) in &graphs {
        match service.query_blocking(QueryRequest::new(*name, q.clone())) {
            Ok(resp) => assert!(resp.result.is_ok()),
            Err(SubmitError::UnknownGraph(_)) => panic!("registered above"),
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert_eq!(service.plan_cache().len(), 2, "one entry per graph scope");
    assert_eq!(service.stats().plan_cache_hits, 0);
}
