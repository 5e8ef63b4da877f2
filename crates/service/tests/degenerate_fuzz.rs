//! Property fuzz: degenerate queries through the *full* service path —
//! submit → scheduler → engine → response — must never panic a
//! worker. Every degenerate pattern either fails submit-time validation
//! with a typed [`SubmitError`], fails at plan time with a typed
//! [`QueryError::Plan`], or runs to an ordinary (possibly empty) result.
//! Exercised on one- and two-thread join pools.
//!
//! Self-loop queries are covered separately: the graph builder (and the
//! update vocabulary) reject self-loops at construction, so one can never
//! reach `submit` in the first place — asserted below.

use gsi_graph::{Graph, GraphBuilder};
use gsi_service::{GsiService, QueryError, QueryRequest, ServiceConfig, SubmitError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The small serving graph shared by every case (labels 0, 1, 2).
fn data_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let v0 = b.add_vertex(0);
    let bs: Vec<u32> = (0..8).map(|_| b.add_vertex(1)).collect();
    let cs: Vec<u32> = (0..9).map(|_| b.add_vertex(2)).collect();
    for &vb in &bs {
        b.add_edge(v0, vb, 0);
    }
    for (i, &vb) in bs.iter().enumerate() {
        b.add_edge(vb, cs[i], 0);
    }
    b.build()
}

/// One degenerate (or near-degenerate) query pattern, by kind.
fn degenerate_query(kind: usize, rng: &mut StdRng) -> Graph {
    match kind {
        // Empty pattern: zero vertices.
        0 => GraphBuilder::new().build(),
        // Single vertex, label possibly absent from the data.
        1 => {
            let mut b = GraphBuilder::new();
            b.add_vertex(rng.random_range(0..6));
            b.build()
        }
        // Disconnected: an edge plus an isolated vertex, or two isolated
        // vertices.
        2 => {
            let mut b = GraphBuilder::new();
            let u0 = b.add_vertex(rng.random_range(0..3));
            let u1 = b.add_vertex(rng.random_range(0..3));
            if rng.random_bool(0.5) {
                b.add_edge(u0, u1, 0);
                b.add_vertex(rng.random_range(0..3));
            }
            b.build()
        }
        // Label absent from the data (vertex or edge label).
        3 => {
            let mut b = GraphBuilder::new();
            let u0 = b.add_vertex(if rng.random_bool(0.5) { 99 } else { 0 });
            let u1 = b.add_vertex(1);
            b.add_edge(u0, u1, rng.random_range(7..99));
            b.build()
        }
        // Pattern larger than anything the data can satisfy: a clique of
        // one label over a non-clique graph.
        _ => {
            let mut b = GraphBuilder::new();
            let us: Vec<u32> = (0..4).map(|_| b.add_vertex(1)).collect();
            for i in 0..us.len() {
                for j in (i + 1)..us.len() {
                    b.add_edge(us[i], us[j], 0);
                }
            }
            b.build()
        }
    }
}

fn service_for(join_threads: usize) -> GsiService {
    let mut cfg = ServiceConfig::for_tests();
    cfg.engine = cfg.engine.with_join_threads(join_threads);
    let service = GsiService::new(cfg);
    service.register("g", data_graph());
    service
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn degenerate_queries_never_panic_the_service(
        seed in any::<u64>(),
        kinds in proptest::collection::vec(0usize..5, 1..6),
        parallel in any::<bool>(),
    ) {
        let service = service_for(if parallel { 2 } else { 1 });
        let mut rng = StdRng::seed_from_u64(seed);

        // Submit the whole degenerate workload first (so compatible jobs
        // can batch), then resolve every ticket.
        let mut tickets = Vec::new();
        for &kind in &kinds {
            let q = degenerate_query(kind, &mut rng);
            match service.submit(QueryRequest::new("g", q)) {
                Ok(t) => tickets.push(t),
                // Submit-time validation may reject: that *is* the typed
                // path (empty / disconnected patterns).
                Err(SubmitError::InvalidQuery(_)) => {}
                Err(e) => return Err(TestCaseError::fail(format!("unexpected submit error: {e}"))),
            }
        }
        for t in tickets {
            let resp = t.wait();
            match resp.result {
                // Served: empty results are fine; panics are not.
                Ok(_) => {}
                // Defense in depth: typed plan rejection, no panic, no run.
                Err(QueryError::Plan(_)) => {}
                Err(e) => {
                    return Err(TestCaseError::fail(format!(
                        "degenerate query must fail typed, got: {e:?}"
                    )))
                }
            }
        }

        // The invariant of the whole exercise: no worker ever panicked,
        // and the pool still serves ordinary queries.
        prop_assert_eq!(service.stats().worker_panics, 0);
        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(0);
        let u1 = qb.add_vertex(1);
        qb.add_edge(u0, u1, 0);
        let resp = service
            .query_blocking(QueryRequest::new("g", qb.build()))
            .expect("pool alive");
        prop_assert_eq!(resp.match_count(), 8);
    }
}

/// Self-loop patterns cannot even be constructed, let alone submitted: the
/// builder enforces Definition 2 (distinct endpoints) at `add_edge` time.
#[test]
fn self_loop_queries_are_rejected_at_construction() {
    let attempt = std::panic::catch_unwind(|| {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(0);
        b.add_edge(u, u, 0);
        b.build()
    });
    assert!(attempt.is_err(), "builder must reject self-loops");
}
