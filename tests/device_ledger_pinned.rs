//! The device ledger, pinned cell by cell.
//!
//! Every other differential suite compares two arms of the *current* code
//! with each other (join width 1 against N, scalar against vectorized
//! kernels). This one compares the current code with fixed numbers: for
//! each cell of the configuration lattice — every `config_matrix` cell, plus
//! both join schemes under load balance on/off × duplicate removal on/off
//! with thresholds low enough to split rows into chunks — the join phase's
//! full [`StatsSnapshot`], the join pool's work
//! units and the match count must equal the values below, at join widths 1
//! and 3. A host refactor of the join passes may change how rows are
//! computed; it may not move a single counter.
//!
//! On a mismatch the test prints the whole table as observed, in the
//! literal form below, so a deliberate change to the device model can be
//! re-pinned in one paste (and reviewed as one diff).

use gsi::graph::generate::{barabasi_albert, LabelModel};
use gsi::graph::query_gen::random_walk_query;
use gsi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The `config_matrix` workload: a 160-vertex Barabási–Albert graph and a
/// five-vertex random-walk query, both from `seed`.
fn matrix_workload(seed: u64) -> (Graph, Graph) {
    let model = LabelModel::zipf(4, 4, 0.8);
    let mut rng = StdRng::seed_from_u64(seed);
    let data = barabasi_albert(160, 3, &model, &mut rng);
    let query = random_walk_query(&data, 5, &mut rng).expect("query");
    (data, query)
}

/// A hub-heavy workload for the scheme × LB × DR cells: one edge label, so
/// hub rows stream long lists that [`tight_lb`] splits into many chunks,
/// and many rows share a link vertex within a block (duplicate removal).
fn hub_workload(seed: u64) -> (Graph, Graph) {
    let model = LabelModel::zipf(2, 1, 0.8);
    let mut rng = StdRng::seed_from_u64(seed);
    let data = barabasi_albert(400, 4, &model, &mut rng);
    let query = random_walk_query(&data, 4, &mut rng).expect("query");
    (data, query)
}

/// The lowest thresholds `LbParams::validate` admits: rows above 33
/// elements are chunked, above 80 fill a block, above 160 get a launch.
fn tight_lb() -> LbParams {
    LbParams {
        w1: 160,
        w2: 80,
        w3: 33,
    }
}

struct Cell {
    name: String,
    cfg: GsiConfig,
    workload: fn(u64) -> (Graph, Graph),
    seed: u64,
}

fn cell(name: String, cfg: GsiConfig, workload: fn(u64) -> (Graph, Graph), seed: u64) -> Cell {
    Cell {
        name,
        cfg,
        workload,
        seed,
    }
}

/// The lattice, in a fixed order. The first six groups are
/// `tests/config_matrix.rs`'s cells with its seeds.
fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for storage in [
        StorageKind::Csr,
        StorageKind::Basic,
        StorageKind::Compressed,
        StorageKind::Pcsr,
    ] {
        for join_scheme in [JoinScheme::PreallocCombine, JoinScheme::TwoStep] {
            for set_ops in [SetOpStrategy::Naive, SetOpStrategy::GpuFriendly] {
                let cfg = GsiConfig {
                    storage,
                    join_scheme,
                    set_ops,
                    ..GsiConfig::gsi()
                };
                let name = format!("storage={storage:?} join={join_scheme:?} setops={set_ops:?}");
                out.push(cell(name, cfg, matrix_workload, 1));
            }
        }
    }
    for write_cache in [false, true] {
        for lb in [None, Some(LbParams::default())] {
            for dedup in [false, true] {
                let cfg = GsiConfig {
                    write_cache,
                    load_balance: lb,
                    duplicate_removal: dedup,
                    ..GsiConfig::gsi()
                };
                let name = format!("cache={write_cache} lb={} dedup={dedup}", lb.is_some());
                out.push(cell(name, cfg, matrix_workload, 2));
            }
        }
    }
    for filter in [
        FilterStrategy::Signature,
        FilterStrategy::LabelDegree,
        FilterStrategy::LabelOnly,
    ] {
        for layout in [Layout::RowFirst, Layout::ColumnFirst] {
            let cfg = GsiConfig {
                filter,
                signature_layout: layout,
                ..GsiConfig::gsi_opt()
            };
            let name = format!("filter={filter:?} layout={layout:?}");
            out.push(cell(name, cfg, matrix_workload, 3));
        }
    }
    for n_bits in [64, 128, 256, 512] {
        for gpn in [2, 4, 16] {
            let cfg = GsiConfig {
                signature: SignatureConfig::with_n(n_bits),
                storage_gpn: gpn,
                ..GsiConfig::gsi_opt()
            };
            out.push(cell(
                format!("N={n_bits} GPN={gpn}"),
                cfg,
                matrix_workload,
                4,
            ));
        }
    }
    for first_edge_min_freq in [false, true] {
        for combined_alloc in [false, true] {
            let cfg = GsiConfig {
                first_edge_min_freq,
                combined_alloc,
                ..GsiConfig::gsi_opt()
            };
            let name = format!("min_freq={first_edge_min_freq} combined={combined_alloc}");
            out.push(cell(name, cfg, matrix_workload, 5));
        }
    }
    for (w1, w3) in [(2048, 64), (4096, 256), (6144, 320)] {
        let cfg = GsiConfig {
            load_balance: Some(LbParams { w1, w2: 1024, w3 }),
            ..GsiConfig::gsi_opt()
        };
        out.push(cell(format!("w1={w1} w3={w3}"), cfg, matrix_workload, 6));
    }
    for join_scheme in [JoinScheme::PreallocCombine, JoinScheme::TwoStep] {
        for set_ops in [SetOpStrategy::Naive, SetOpStrategy::GpuFriendly] {
            for lb in [false, true] {
                for dedup in [false, true] {
                    let cfg = GsiConfig {
                        join_scheme,
                        set_ops,
                        load_balance: lb.then(tight_lb),
                        duplicate_removal: dedup,
                        ..GsiConfig::gsi_opt()
                    };
                    let name = format!(
                        "hub join={join_scheme:?} setops={set_ops:?} lb={lb} dedup={dedup}"
                    );
                    out.push(cell(name, cfg, hub_workload, 7));
                }
            }
        }
    }
    out
}

/// One cell's observation: the join-phase ledger's eight counters in
/// `StatsSnapshot::metric_fields` order, the pool's work units, matches.
type Observed = ([u64; 8], u64, usize);

fn observe(cfg: GsiConfig, data: &Graph, query: &Graph) -> Observed {
    let engine = GsiEngine::with_gpu(cfg, Gpu::new(DeviceConfig::test_device()));
    let prepared = engine.prepare(data);
    let out = engine.query(data, &prepared, query).expect("plans");
    assert!(!out.stats.timed_out);
    let device = out.stats.device.metric_fields().map(|(_, v)| v);
    (device, out.stats.join_work_units, out.stats.n_matches)
}

#[test]
fn device_ledger_matches_pinned_values_at_widths_1_and_3() {
    let cells = cells();
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        let (data, query) = (c.workload)(c.seed);
        let serial = observe(c.cfg.clone(), &data, &query);
        let parallel = observe(c.cfg.clone().with_join_threads(3), &data, &query);
        let (device, work, n) = serial;
        table.push_str(&format!("    ({device:?}, {work}, {n}), // {}\n", c.name));
        let pinned = PINNED.get(i).copied();
        if pinned != Some(serial) || pinned != Some(parallel) {
            mismatches.push(format!(
                "{}: pinned {pinned:?}, width 1 {serial:?}, width 3 {parallel:?}",
                c.name
            ));
        }
    }
    assert_eq!(cells.len(), PINNED.len(), "observed table:\n{table}");
    assert!(
        mismatches.is_empty(),
        "{} of {} cells moved:\n{}\nobserved table:\n{table}",
        mismatches.len(),
        cells.len(),
        mismatches.join("\n")
    );
}

/// `(device counters, join work units, matches)` per cell, in [`cells`]
/// order.
#[rustfmt::skip]
const PINNED: &[Observed] = &[
    ([884, 76, 45, 85, 3646, 12, 648, 9390], 90, 16), // storage=Csr join=PreallocCombine setops=Naive
    ([660, 81, 25, 85, 3726, 12, 408, 9390], 90, 16), // storage=Csr join=PreallocCombine setops=GpuFriendly
    ([1170, 76, 65, 85, 3708, 8, 432, 9536], 152, 16), // storage=Csr join=TwoStep setops=Naive
    ([722, 81, 25, 85, 3788, 8, 192, 9536], 152, 16), // storage=Csr join=TwoStep setops=GpuFriendly
    ([804, 76, 45, 85, 2814, 12, 648, 9244], 90, 16), // storage=Basic join=PreallocCombine setops=Naive
    ([578, 81, 25, 85, 2894, 12, 408, 9244], 90, 16), // storage=Basic join=PreallocCombine setops=GpuFriendly
    ([1114, 76, 65, 85, 2876, 8, 432, 9244], 152, 16), // storage=Basic join=TwoStep setops=Naive
    ([662, 81, 25, 85, 2956, 8, 192, 9244], 152, 16), // storage=Basic join=TwoStep setops=GpuFriendly
    ([1030, 76, 45, 85, 2814, 12, 648, 9244], 90, 16), // storage=Compressed join=PreallocCombine setops=Naive
    ([804, 81, 25, 85, 2894, 12, 408, 9244], 90, 16), // storage=Compressed join=PreallocCombine setops=GpuFriendly
    ([1340, 76, 65, 85, 2876, 8, 432, 9244], 152, 16), // storage=Compressed join=TwoStep setops=Naive
    ([888, 81, 25, 85, 2956, 8, 192, 9244], 152, 16), // storage=Compressed join=TwoStep setops=GpuFriendly
    ([802, 76, 45, 85, 3454, 12, 648, 9244], 90, 16), // storage=Pcsr join=PreallocCombine setops=Naive
    ([577, 81, 25, 85, 3534, 12, 408, 9244], 90, 16), // storage=Pcsr join=PreallocCombine setops=GpuFriendly
    ([1110, 76, 65, 85, 3516, 8, 432, 9244], 152, 16), // storage=Pcsr join=TwoStep setops=Naive
    ([660, 81, 25, 85, 3596, 8, 192, 9244], 152, 16), // storage=Pcsr join=TwoStep setops=GpuFriendly
    ([506, 53, 25, 76, 3008, 12, 384, 8162], 70, 2), // cache=false lb=false dedup=false
    ([506, 53, 25, 76, 3008, 12, 384, 8162], 70, 2), // cache=false lb=false dedup=true
    ([506, 53, 25, 76, 3008, 12, 384, 8162], 70, 2), // cache=false lb=true dedup=false
    ([506, 53, 25, 76, 3008, 12, 384, 8162], 70, 2), // cache=false lb=true dedup=true
    ([506, 53, 25, 76, 3008, 12, 384, 8162], 70, 2), // cache=true lb=false dedup=false
    ([506, 53, 25, 76, 3008, 12, 384, 8162], 70, 2), // cache=true lb=false dedup=true
    ([506, 53, 25, 76, 3008, 12, 384, 8162], 70, 2), // cache=true lb=true dedup=false
    ([506, 53, 25, 76, 3008, 12, 384, 8162], 70, 2), // cache=true lb=true dedup=true
    ([2378, 103, 25, 118, 3833, 12, 800, 9555], 188, 15), // filter=Signature layout=RowFirst
    ([713, 103, 25, 118, 3833, 12, 800, 9555], 188, 15), // filter=Signature layout=ColumnFirst
    ([559, 132, 25, 196, 3033, 12, 1036, 0], 235, 15), // filter=LabelDegree layout=RowFirst
    ([559, 132, 25, 196, 3033, 12, 1036, 0], 235, 15), // filter=LabelDegree layout=ColumnFirst
    ([534, 132, 25, 196, 3033, 12, 1036, 0], 235, 15), // filter=LabelOnly layout=RowFirst
    ([534, 132, 25, 196, 3033, 12, 1036, 0], 235, 15), // filter=LabelOnly layout=ColumnFirst
    ([699, 183, 25, 184, 2237, 12, 1636, 573], 434, 58), // N=64 GPN=2
    ([674, 183, 25, 184, 2355, 12, 1636, 573], 434, 58), // N=64 GPN=4
    ([674, 183, 25, 184, 3363, 12, 1636, 573], 434, 58), // N=64 GPN=16
    ([557, 154, 25, 115, 2310, 12, 1348, 1683], 371, 58), // N=128 GPN=2
    ([546, 154, 25, 115, 2380, 12, 1348, 1683], 371, 58), // N=128 GPN=4
    ([546, 154, 25, 115, 2932, 12, 1348, 1683], 371, 58), // N=128 GPN=16
    ([645, 152, 25, 112, 2838, 12, 1340, 4184], 370, 58), // N=256 GPN=2
    ([634, 152, 25, 112, 2904, 12, 1340, 4184], 370, 58), // N=256 GPN=4
    ([634, 152, 25, 112, 3432, 12, 1340, 4184], 370, 58), // N=256 GPN=16
    ([805, 154, 25, 115, 3376, 12, 1348, 8553], 371, 58), // N=512 GPN=2
    ([794, 154, 25, 115, 3446, 12, 1348, 8553], 371, 58), // N=512 GPN=4
    ([794, 154, 25, 115, 3998, 12, 1348, 8553], 371, 58), // N=512 GPN=16
    ([3188, 869, 25, 724, 12945, 241, 8864, 8308], 2296, 342), // min_freq=false combined=false
    ([3188, 869, 25, 724, 12945, 12, 7932, 8308], 2296, 342), // min_freq=false combined=true
    ([3188, 869, 25, 724, 12945, 241, 8864, 8308], 2296, 342), // min_freq=true combined=false
    ([3188, 869, 25, 724, 12945, 12, 7932, 8308], 2296, 342), // min_freq=true combined=true
    ([1373, 304, 25, 313, 7079, 12, 1988, 9137], 544, 82), // w1=2048 w3=64
    ([1373, 304, 25, 313, 7079, 12, 1988, 9137], 544, 82), // w1=4096 w3=256
    ([1373, 304, 25, 313, 7079, 12, 1988, 9137], 544, 82), // w1=6144 w3=320
    ([1873644, 174726, 8072, 24211, 1175011, 9, 1062940, 11557], 416444, 151598), // hub join=PreallocCombine setops=Naive lb=false dedup=false
    ([1850178, 174726, 8072, 24211, 1060739, 9, 1062940, 11557], 416444, 151598), // hub join=PreallocCombine setops=Naive lb=false dedup=true
    ([1895555, 177602, 12805, 30110, 1250739, 9, 1062940, 11557], 416444, 151598), // hub join=PreallocCombine setops=Naive lb=true dedup=false
    ([1895523, 177602, 12805, 30110, 1250579, 9, 1062940, 11557], 416444, 151598), // hub join=PreallocCombine setops=Naive lb=true dedup=true
    ([313009, 174749, 19, 24211, 1175673, 9, 1060448, 11557], 416444, 151598), // hub join=PreallocCombine setops=GpuFriendly lb=false dedup=false
    ([291792, 174749, 19, 24211, 1061401, 9, 1060448, 11557], 416444, 151598), // hub join=PreallocCombine setops=GpuFriendly lb=false dedup=true
    ([329899, 177625, 19, 30110, 1251401, 9, 1060448, 11557], 416444, 151598), // hub join=PreallocCombine setops=GpuFriendly lb=true dedup=false
    ([329873, 177625, 19, 30110, 1251241, 9, 1060448, 11557], 416444, 151598), // hub join=PreallocCombine setops=GpuFriendly lb=true dedup=true
    ([3691954, 174467, 16125, 24211, 1432031, 6, 640344, 11557], 673464, 151598), // hub join=TwoStep setops=Naive lb=false dedup=false
    ([3645022, 174467, 16125, 24211, 1203487, 6, 640344, 11557], 673464, 151598), // hub join=TwoStep setops=Naive lb=false dedup=true
    ([3733373, 177352, 25591, 34843, 1583487, 6, 640344, 11557], 673464, 151598), // hub join=TwoStep setops=Naive lb=true dedup=false
    ([3733309, 177352, 25591, 34843, 1583167, 6, 640344, 11557], 673464, 151598), // hub join=TwoStep setops=Naive lb=true dedup=true
    ([570684, 174490, 19, 24211, 1432693, 6, 637852, 11557], 673464, 151598), // hub join=TwoStep setops=GpuFriendly lb=false dedup=false
    ([528250, 174490, 19, 24211, 1204149, 6, 637852, 11557], 673464, 151598), // hub join=TwoStep setops=GpuFriendly lb=false dedup=true
    ([602061, 177375, 19, 34843, 1584149, 6, 637852, 11557], 673464, 151598), // hub join=TwoStep setops=GpuFriendly lb=true dedup=false
    ([602009, 177375, 19, 34843, 1583829, 6, 637852, 11557], 673464, 151598), // hub join=TwoStep setops=GpuFriendly lb=true dedup=true
];
