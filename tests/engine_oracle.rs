//! Oracle tests: the GSI engine must return exactly the match set the VF2
//! reference enumerates, on randomized graphs and workloads — including
//! graphs that *mutate* between queries, where the engine serves from
//! incrementally re-prepared structures while VF2 recomputes from the
//! mutated logical graph.

use gsi::baselines::vf2;
use gsi::graph::generate::{barabasi_albert, erdos_renyi, mesh, LabelModel};
use gsi::graph::query_gen::{random_walk_query, random_walk_query_with_edges};
use gsi::graph::update::random_update_batch;
use gsi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn test_engine(cfg: GsiConfig) -> GsiEngine {
    GsiEngine::with_gpu(cfg, Gpu::new(DeviceConfig::test_device()))
}

fn check_against_oracle(data: &Graph, query: &Graph, cfg: GsiConfig, tag: &str) {
    let engine = test_engine(cfg);
    let prepared = engine.prepare(data);
    let out = engine.query(data, &prepared, query).expect("plans");
    assert!(!out.stats.timed_out, "{tag}: unexpected timeout");
    out.matches
        .verify(data, query)
        .unwrap_or_else(|e| panic!("{tag}: invalid match: {e}"));
    let oracle = vf2::run(data, query, None);
    assert_eq!(
        out.matches.canonical(),
        oracle.assignments,
        "{tag}: match set differs from VF2"
    );
}

#[test]
fn gsi_opt_matches_vf2_on_scale_free_graphs() {
    for seed in 0..8u64 {
        let model = LabelModel::zipf(5, 4, 0.9);
        let mut rng = StdRng::seed_from_u64(seed);
        let data = barabasi_albert(200, 3, &model, &mut rng);
        let query = random_walk_query(&data, 5, &mut rng).expect("query");
        check_against_oracle(&data, &query, GsiConfig::gsi_opt(), &format!("seed {seed}"));
    }
}

#[test]
fn gsi_matches_vf2_on_erdos_renyi() {
    for seed in 20..26u64 {
        let model = LabelModel::uniform(4, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let data = erdos_renyi(150, 450, &model, &mut rng);
        if let Some(query) = random_walk_query(&data, 4, &mut rng) {
            check_against_oracle(&data, &query, GsiConfig::gsi(), &format!("er seed {seed}"));
        }
    }
}

#[test]
fn gsi_matches_vf2_on_mesh() {
    let model = LabelModel::uniform(3, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let data = mesh(15, 15, &model, &mut rng);
    for _ in 0..4 {
        let query = random_walk_query(&data, 4, &mut rng).expect("query");
        check_against_oracle(&data, &query, GsiConfig::gsi_opt(), "mesh");
    }
}

#[test]
fn gsi_base_matches_vf2() {
    // The unoptimized GSI- pipeline (CSR + two-step + naive set ops) must be
    // just as correct.
    for seed in 40..44u64 {
        let model = LabelModel::zipf(4, 3, 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let data = barabasi_albert(120, 2, &model, &mut rng);
        let query = random_walk_query(&data, 4, &mut rng).expect("query");
        check_against_oracle(
            &data,
            &query,
            GsiConfig::gsi_base(),
            &format!("base {seed}"),
        );
    }
}

#[test]
fn dense_queries_with_extra_edges() {
    // Queries densified beyond the spanning walk exercise multi-edge
    // linking steps (several intersect kernels per iteration).
    for seed in 60..64u64 {
        let model = LabelModel::zipf(3, 3, 0.7);
        let mut rng = StdRng::seed_from_u64(seed);
        let data = barabasi_albert(150, 3, &model, &mut rng);
        if let Some(query) = random_walk_query_with_edges(&data, 5, 7, &mut rng) {
            assert!(query.n_edges() >= 7);
            check_against_oracle(
                &data,
                &query,
                GsiConfig::gsi_opt(),
                &format!("dense {seed}"),
            );
        }
    }
}

#[test]
fn queries_with_no_matches_are_empty_for_both() {
    // A query whose labels cannot all be satisfied.
    let model = LabelModel::uniform(3, 3);
    let mut rng = StdRng::seed_from_u64(99);
    let data = barabasi_albert(100, 2, &model, &mut rng);
    let mut qb = GraphBuilder::new();
    let u0 = qb.add_vertex(777); // label not in data
    let u1 = qb.add_vertex(0);
    qb.add_edge(u0, u1, 0);
    let query = qb.build();
    check_against_oracle(&data, &query, GsiConfig::gsi_opt(), "no-match");
}

/// Differential oracle under churn: interleave mutation batches with
/// queries. After every batch, the engine — serving from *incrementally*
/// re-prepared structures — must return exactly VF2's match set on the
/// mutated graph, across both execution backends and both join schemes.
/// The incremental path must also be indistinguishable from a cold rebuild:
/// bit-identical match tables and exact device-ledger counters.
#[test]
fn mutated_graphs_track_vf2_across_backends_and_schemes() {
    let configs: Vec<(String, GsiConfig)> = [JoinScheme::PreallocCombine, JoinScheme::TwoStep]
        .into_iter()
        .flat_map(|scheme| {
            let base = GsiConfig {
                join_scheme: scheme,
                ..GsiConfig::gsi_opt()
            };
            [
                (format!("{scheme:?}/serial"), base.clone()),
                (
                    format!("{scheme:?}/parallel"),
                    base.with_backend(BackendKind::HostParallel, 3),
                ),
            ]
        })
        .collect();

    for (tag, cfg) in configs {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let model = LabelModel::zipf(4, 3, 0.8);
        let mut data = barabasi_albert(120, 2, &model, &mut rng);
        let engine = test_engine(cfg);
        let mut prepared = engine.prepare(&data);

        for round in 0..5 {
            let batch = random_update_batch(&data, 8, 3, &mut rng);
            let (updated, inc, _report) = engine
                .apply_updates(&data, &prepared, &batch)
                .expect("generated batch is valid");

            // Incremental re-prepare vs cold rebuild: queries must be
            // bit-identical in tables and exact in device counters.
            let cold = engine.prepare_shared(&updated);
            let Some(query) = (0..50).find_map(|_| random_walk_query(&updated, 4, &mut rng)) else {
                // Graph too fragmented for this query size; keep churning.
                data = updated;
                prepared = inc;
                continue;
            };
            let a = engine.query(&updated, &inc, &query).expect("plans");
            let b = engine.query(&updated, &cold, &query).expect("plans");
            assert_eq!(
                a.matches.table, b.matches.table,
                "{tag} round {round}: incremental vs rebuild tables"
            );
            assert_eq!(
                a.stats.device, b.stats.device,
                "{tag} round {round}: device counters"
            );

            // Both must equal the VF2 oracle on the mutated graph.
            a.matches
                .verify(&updated, &query)
                .unwrap_or_else(|e| panic!("{tag} round {round}: invalid match: {e}"));
            let oracle = vf2::run(&updated, &query, None);
            assert_eq!(
                a.matches.canonical(),
                oracle.assignments,
                "{tag} round {round}: match set differs from VF2"
            );

            data = updated;
            prepared = inc;
        }
    }
}

#[test]
fn multigraph_edges_between_same_pair() {
    // Two parallel edges with different labels between the same vertices.
    let mut b = GraphBuilder::new();
    let v0 = b.add_vertex(0);
    let v1 = b.add_vertex(1);
    let v2 = b.add_vertex(1);
    b.add_edge(v0, v1, 0);
    b.add_edge(v0, v1, 1);
    b.add_edge(v0, v2, 0);
    let data = b.build();
    let mut qb = GraphBuilder::new();
    let u0 = qb.add_vertex(0);
    let u1 = qb.add_vertex(1);
    qb.add_edge(u0, u1, 0);
    qb.add_edge(u0, u1, 1);
    let query = qb.build();
    check_against_oracle(&data, &query, GsiConfig::gsi_opt(), "multigraph");
}
