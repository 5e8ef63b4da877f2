//! Differential fuzz gate for adaptive mid-query re-planning: for every
//! fuzzed query, an adaptive run (threshold 1.0 — every join position is
//! examined against its estimate) must produce a match table **bit-identical**
//! (in canonical, query-vertex-indexed form) to the static plan of the same
//! planner AND to both static planners, across **one- and three-thread join
//! pools and all four join-scheme cells** (including the mixed radix-promotion cell) —
//! with exactly reproducible device counters per arm, and counters identical
//! to the static run whenever the adaptive run kept the static order. A
//! re-plan that changed even one row would make every cardinality-feedback
//! refinement a correctness hazard.
//!
//! The gate also proves its own teeth: a deliberate off-by-one in the
//! suffix-splice linking columns (`QueryOptions::adaptive_splice_skew`)
//! must corrupt the matches of a re-planning case.
//!
//! `ADAPTIVE_FUZZ_CASES` scales the number of fuzzed queries (default 24).
//! In CI the variable must be set explicitly — a job that forgot to pin it
//! would otherwise gate merges on the tiny local smoke size without anyone
//! noticing, so failing early with a clear message wins.

use gsi::graph::generate::{barabasi_albert, erdos_renyi, LabelModel};
use gsi::graph::query_gen::random_walk_query;
use gsi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fuzz_cases() -> usize {
    match std::env::var("ADAPTIVE_FUZZ_CASES") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("ADAPTIVE_FUZZ_CASES must be an integer, got '{v}'")),
        Err(_) => {
            assert!(
                std::env::var_os("CI").is_none() && std::env::var_os("GITHUB_ACTIONS").is_none(),
                "ADAPTIVE_FUZZ_CASES is unset in CI: pin the fuzz case count explicitly \
                 (the local default of 24 is a smoke size, not a merge gate)"
            );
            24
        }
    }
}

fn test_engine(cfg: GsiConfig) -> GsiEngine {
    GsiEngine::with_gpu(cfg, Gpu::new(DeviceConfig::test_device()))
}

/// The (join-pool width × scheme) configuration matrix every case runs under.
fn config_matrix() -> Vec<(String, GsiConfig)> {
    [("serial", 1), ("host-parallel", 3)]
        .into_iter()
        .flat_map(|(bname, join_threads)| {
            [
                ("prealloc", JoinScheme::PreallocCombine, None),
                ("two-step", JoinScheme::TwoStep, None),
                ("radix-hash", JoinScheme::RadixHash, None),
                ("prealloc+radix", JoinScheme::PreallocCombine, Some(1.0)),
            ]
            .into_iter()
            .map(move |(sname, scheme, radix_at)| {
                let cfg = GsiConfig {
                    join_scheme: scheme,
                    radix_join_threshold: radix_at,
                    ..GsiConfig::gsi_opt()
                }
                .with_join_threads(join_threads);
                (format!("{bname}/{sname}"), cfg)
            })
        })
        .collect()
}

/// One run; returns (canonical matches, device delta, order, replans).
fn run_once(
    engine: &GsiEngine,
    data: &Graph,
    prepared: &gsi::engine::PreparedData,
    query: &Graph,
    planner: PlannerKind,
    adaptive: bool,
) -> (Vec<Vec<u32>>, gsi::sim::StatsSnapshot, Vec<u32>, u32) {
    let out = engine
        .query_with_options(
            data,
            prepared,
            query,
            QueryOptions {
                planner: Some(planner),
                replan_qerror_threshold: if adaptive { Some(1.0) } else { None },
                ..QueryOptions::default()
            },
        )
        .expect("connected queries plan");
    let delta = out.stats.device;
    assert!(out.plan.covers(query), "executed plan must cover");
    assert_eq!(
        out.explain.steps.len(),
        out.plan.order.len(),
        "explain reports every join position, spliced or not"
    );
    if !adaptive {
        assert_eq!(out.stats.replans, 0, "static arm must never re-plan");
    }
    if out.stats.replans > 0 {
        assert!(
            out.pre_replan_q_error.is_some(),
            "a re-planning run reports the abandoned plan's q-error"
        );
    }
    (
        out.matches.canonical(),
        delta,
        out.plan.order,
        out.stats.replans,
    )
}

/// Deterministic re-plan bait: a fork `a(0)–b(1)` with two branches that
/// share one edge label but have opposite typed densities — the greedy
/// label-frequency score picks the explosive branch first, so an adaptive
/// run over the greedy plan must splice mid-query.
fn skewed_fork() -> (Graph, Graph) {
    let mut b = GraphBuilder::new();
    let a: Vec<u32> = (0..2).map(|_| b.add_vertex(0)).collect();
    let bs: Vec<u32> = (0..60).map(|_| b.add_vertex(1)).collect();
    let xs: Vec<u32> = (0..3).map(|_| b.add_vertex(2)).collect();
    let ys: Vec<u32> = (0..8).map(|_| b.add_vertex(3)).collect();
    for (i, &vb) in bs.iter().enumerate() {
        b.add_edge(a[i % 2], vb, 0);
    }
    for &vb in &bs {
        for &vx in &xs {
            b.add_edge(vb, vx, 1);
        }
    }
    for (i, &vy) in ys.iter().enumerate() {
        b.add_edge(bs[i * 7], vy, 1);
    }
    let data = b.build();

    let mut qb = GraphBuilder::new();
    let qa = qb.add_vertex(0);
    let qbv = qb.add_vertex(1);
    let qx = qb.add_vertex(2);
    let qy = qb.add_vertex(3);
    qb.add_edge(qa, qbv, 0);
    qb.add_edge(qbv, qx, 1);
    qb.add_edge(qbv, qy, 1);
    (data, qb.build())
}

#[test]
fn adaptive_runs_match_static_plans_across_backends_and_schemes() {
    let mut rng = StdRng::seed_from_u64(0xADA9_7153);
    let fork = skewed_fork();
    let graphs: Vec<Graph> = vec![
        fork.0.clone(),
        barabasi_albert(220, 3, &LabelModel::zipf(4, 3, 0.9), &mut rng),
        erdos_renyi(180, 540, &LabelModel::uniform(3, 4), &mut rng),
        erdos_renyi(120, 600, &LabelModel::zipf(5, 2, 0.6), &mut rng),
    ];
    let cases = fuzz_cases();
    let mut checked = 0usize;
    let mut replanned = 0usize;
    let mut order_diverged = 0usize;

    for (gi, data) in graphs.iter().enumerate() {
        let engines: Vec<(String, GsiEngine)> = config_matrix()
            .into_iter()
            .map(|(name, cfg)| (name, test_engine(cfg)))
            .collect();

        for case in 0..cases.div_ceil(graphs.len()) {
            // The fork graph always replays its deterministic bait query;
            // the fuzzed graphs draw fresh random walks.
            let query = if gi == 0 {
                fork.1.clone()
            } else {
                let size = 3 + (case % 4);
                match random_walk_query(data, size, &mut rng) {
                    Some(q) => q,
                    None => continue,
                }
            };
            let mut reference: Option<Vec<Vec<u32>>> = None;
            for (name, engine) in &engines {
                let prepared = engine.prepare(data);
                for planner in [PlannerKind::Greedy, PlannerKind::CostBased] {
                    let (s_canon, s_dev, s_order, _) =
                        run_once(engine, data, &prepared, &query, planner, false);
                    let (a_canon, a_dev, a_order, a_replans) =
                        run_once(engine, data, &prepared, &query, planner, true);

                    // The differential gate itself.
                    assert_eq!(
                        s_canon, a_canon,
                        "graph {gi} case {case} [{name}/{planner}]: \
                         adaptive run changed the match table"
                    );
                    replanned += (a_replans > 0) as usize;
                    if a_order != s_order {
                        order_diverged += 1;
                        assert!(
                            a_replans > 0,
                            "order changed without a recorded re-plan [{name}/{planner}]"
                        );
                    } else {
                        // Same executed order ⇒ the device did exactly the
                        // same join work, transaction for transaction.
                        assert_eq!(
                            s_dev, a_dev,
                            "graph {gi} case {case} [{name}/{planner}]: \
                             unchanged order must charge identical counters"
                        );
                    }

                    // Determinism: an identical adaptive re-run replays the
                    // same splices and charges exactly the same counters.
                    let (a2, a2_dev, a2_order, a2_replans) =
                        run_once(engine, data, &prepared, &query, planner, true);
                    assert_eq!(a_canon, a2, "adaptive rerun diverged [{name}/{planner}]");
                    assert_eq!(
                        a_order, a2_order,
                        "adaptive order flapped [{name}/{planner}]"
                    );
                    assert_eq!(a_replans, a2_replans, "re-plan count flapped");
                    assert_eq!(
                        a_dev, a2_dev,
                        "adaptive counters non-deterministic [{name}/{planner}]"
                    );

                    // All arms and cells agree on the match set.
                    match &reference {
                        None => reference = Some(a_canon),
                        Some(expect) => assert_eq!(
                            &a_canon, expect,
                            "graph {gi} case {case} [{name}/{planner}]: cell disagrees"
                        ),
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0, "fuzz loop must exercise at least one query");
    // Non-vacuity: the corpus must actually exercise mid-query re-planning
    // (the fork fixture guarantees it even at smoke sizes) and splice in a
    // different order somewhere — otherwise the gate compares a plan with
    // itself.
    assert!(
        replanned > 0,
        "no run re-planned across {checked} adaptive runs — gate is vacuous"
    );
    assert!(
        order_diverged > 0,
        "no adaptive run diverged from its static order across {checked} runs"
    );
}

/// Mutation check: the gate must have teeth. Forcing the hidden
/// `adaptive_splice_skew` fault — an off-by-one in the spliced suffix's
/// linking columns — on a case that re-plans must corrupt the match table;
/// if it did not, this differential battery could never catch a real
/// splicing bug.
#[test]
fn splice_off_by_one_mutation_is_caught_by_the_differential() {
    let (data, query) = skewed_fork();
    let engine = test_engine(GsiConfig::gsi_opt());
    let prepared = engine.prepare(&data);

    let truth = engine
        .query_with_options(
            &data,
            &prepared,
            &query,
            QueryOptions {
                planner: Some(PlannerKind::Greedy),
                ..QueryOptions::default()
            },
        )
        .expect("static greedy plans");
    let truth_canon = truth.matches.canonical();
    assert!(!truth_canon.is_empty(), "fixture must produce matches");

    let mutated = engine
        .query_with_options(
            &data,
            &prepared,
            &query,
            QueryOptions {
                planner: Some(PlannerKind::Greedy),
                replan_qerror_threshold: Some(1.0),
                adaptive_splice_skew: true,
                ..QueryOptions::default()
            },
        )
        .expect("mutated run still executes");
    assert!(
        mutated.stats.replans > 0,
        "the fixture must re-plan for the mutation to be reachable"
    );
    assert_ne!(
        mutated.matches.canonical(),
        truth_canon,
        "an off-by-one in suffix splicing must corrupt the match table — \
         otherwise the differential gate is toothless"
    );
}
