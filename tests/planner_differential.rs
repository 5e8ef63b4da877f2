//! Differential gate for the cost-based join-order optimizer: for every
//! fuzzed query, the optimized plan's match table must be **bit-identical**
//! (in canonical, query-vertex-indexed form — the join orders differ by
//! design) to the greedy plan's, across **both execution backends and all
//! three join schemes** (plus a mixed cell where the cost model promotes
//! high-multiplicity steps to radix-hash), with exactly reproducible
//! device counters per
//! `(planner, backend, scheme)` cell. A cheaper plan that changed even one
//! row would be a correctness bug, not an optimization.
//!
//! `PLANNER_FUZZ_CASES` scales the number of fuzzed queries (default 24;
//! CI raises it).

use gsi::graph::generate::{barabasi_albert, erdos_renyi, LabelModel};
use gsi::graph::query_gen::random_walk_query;
use gsi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fuzz_cases() -> usize {
    std::env::var("PLANNER_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

fn test_engine(cfg: GsiConfig) -> GsiEngine {
    GsiEngine::with_gpu(cfg, Gpu::new(DeviceConfig::test_device()))
}

/// One run; returns (canonical matches, device delta, executed order).
fn run_once(
    engine: &GsiEngine,
    data: &Graph,
    prepared: &gsi::engine::PreparedData,
    query: &Graph,
    planner: PlannerKind,
) -> (Vec<Vec<u32>>, gsi::sim::StatsSnapshot, Vec<u32>) {
    let out = engine
        .query_with_options(
            data,
            prepared,
            query,
            QueryOptions {
                planner: Some(planner),
                ..QueryOptions::default()
            },
        )
        .expect("random-walk queries are connected");
    let delta = out.stats.device;
    assert!(out.plan.covers(query), "executed plan must cover");
    assert_eq!(
        out.explain.steps.len(),
        out.plan.order.len(),
        "explain reports every join position"
    );
    (out.matches.canonical(), delta, out.plan.order)
}

#[test]
fn costed_plans_match_greedy_plans_across_backends_and_schemes() {
    let mut rng = StdRng::seed_from_u64(0x0515_C0DE);
    let graphs: Vec<Graph> = vec![
        barabasi_albert(220, 3, &LabelModel::zipf(4, 3, 0.9), &mut rng),
        erdos_renyi(180, 540, &LabelModel::uniform(3, 4), &mut rng),
        erdos_renyi(120, 600, &LabelModel::zipf(5, 2, 0.6), &mut rng),
    ];
    let cases = fuzz_cases();
    let mut checked = 0usize;
    let mut order_diverged = 0usize;

    for (gi, data) in graphs.iter().enumerate() {
        // Engines per (backend, scheme); all four must agree per planner.
        let configs: Vec<(String, GsiConfig)> = [
            ("serial", BackendKind::Serial),
            ("host-parallel", BackendKind::HostParallel),
        ]
        .into_iter()
        .flat_map(|(bname, backend)| {
            [
                ("prealloc", JoinScheme::PreallocCombine, None),
                ("two-step", JoinScheme::TwoStep, None),
                ("radix-hash", JoinScheme::RadixHash, None),
                // Prealloc base scheme with cost-model promotion: any step
                // whose estimated fan-out crosses 1.0 runs radix-hash, so
                // fuzzed queries exercise mixed-strategy plans too.
                ("prealloc+radix", JoinScheme::PreallocCombine, Some(1.0)),
            ]
            .into_iter()
            .map(move |(sname, scheme, radix_at)| {
                let cfg = GsiConfig {
                    join_scheme: scheme,
                    radix_join_threshold: radix_at,
                    ..GsiConfig::gsi_opt()
                }
                .with_backend(backend, if backend == BackendKind::Serial { 0 } else { 3 });
                (format!("{bname}/{sname}"), cfg)
            })
        })
        .collect();

        let engines: Vec<(String, GsiEngine, Graph)> = configs
            .into_iter()
            .map(|(name, cfg)| (name, test_engine(cfg), data.clone()))
            .collect();

        for case in 0..cases.div_ceil(graphs.len()) {
            let size = 3 + (case % 4);
            let Some(query) = random_walk_query(data, size, &mut rng) else {
                continue;
            };
            let mut reference: Option<Vec<Vec<u32>>> = None;
            for (name, engine, data) in &engines {
                let prepared = engine.prepare(data);
                let (g_canon, g_dev, g_order) =
                    run_once(engine, data, &prepared, &query, PlannerKind::Greedy);
                let (c_canon, c_dev, c_order) =
                    run_once(engine, data, &prepared, &query, PlannerKind::CostBased);

                // The differential gate itself.
                assert_eq!(
                    g_canon, c_canon,
                    "graph {gi} case {case} [{name}]: planners disagree on matches"
                );
                if g_order != c_order {
                    order_diverged += 1;
                }

                // Determinism of each cell: an identical re-run charges
                // exactly the same device counters.
                let (g2, g2_dev, _) =
                    run_once(engine, data, &prepared, &query, PlannerKind::Greedy);
                let (c2, c2_dev, _) =
                    run_once(engine, data, &prepared, &query, PlannerKind::CostBased);
                assert_eq!(g_canon, g2, "greedy rerun diverged [{name}]");
                assert_eq!(c_canon, c2, "costed rerun diverged [{name}]");
                assert_eq!(g_dev, g2_dev, "greedy counters non-deterministic [{name}]");
                assert_eq!(c_dev, c2_dev, "costed counters non-deterministic [{name}]");

                // All (backend, scheme) cells agree on the match set.
                match &reference {
                    None => reference = Some(c_canon),
                    Some(expect) => {
                        assert_eq!(
                            &c_canon, expect,
                            "graph {gi} case {case} [{name}]: cell disagrees"
                        )
                    }
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "fuzz loop must exercise at least one query");
    // The optimizer must actually be choosing different orders somewhere —
    // otherwise this gate is vacuously comparing a planner with itself.
    assert!(
        order_diverged > 0,
        "cost-based planner never diverged from greedy across {checked} runs"
    );
}

#[test]
fn costed_plans_agree_with_greedy_on_the_paper_example() {
    // The Fig. 1 graph: a deterministic, human-checkable instance.
    let mut b = GraphBuilder::new();
    let v0 = b.add_vertex(0);
    let bs: Vec<u32> = (0..40).map(|_| b.add_vertex(1)).collect();
    let cs: Vec<u32> = (0..41).map(|_| b.add_vertex(2)).collect();
    for &vb in &bs {
        b.add_edge(v0, vb, 0);
    }
    let last = *cs.last().unwrap();
    b.add_edge(v0, last, 1);
    for (i, &vb) in bs.iter().enumerate() {
        b.add_edge(vb, cs[i], 0);
        b.add_edge(vb, last, 0);
    }
    let data = b.build();

    let mut qb = GraphBuilder::new();
    let u0 = qb.add_vertex(0);
    let u1 = qb.add_vertex(1);
    let u2 = qb.add_vertex(2);
    let u3 = qb.add_vertex(2);
    qb.add_edge(u0, u1, 0);
    qb.add_edge(u0, u2, 1);
    qb.add_edge(u1, u2, 0);
    qb.add_edge(u1, u3, 0);
    let query = qb.build();

    for planner in [PlannerKind::Greedy, PlannerKind::CostBased] {
        let engine = test_engine(GsiConfig::gsi_opt().with_planner(planner));
        let prepared = engine.prepare(&data);
        let out = engine.query(&data, &prepared, &query).expect("plans");
        assert_eq!(out.matches.len(), 40, "{planner}: match count");
        out.matches.verify(&data, &query).expect("valid embeddings");
    }
}
