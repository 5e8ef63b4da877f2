//! One function per table and figure of the paper's evaluation (§VII).
//!
//! Every function prints the same rows/series the paper reports, measured on
//! the simulated-GPU substrate at the harness scale. Absolute numbers differ
//! from the Titan XP testbed; the *shape* (who wins, by what factor, where
//! crossovers fall) is the reproduction target — EXPERIMENTS.md records the
//! paper-vs-measured comparison.

use crate::fmt::{drop_pct, human, ms, speedup, Table};
use crate::report::metric::*;
use crate::report::{ratio, Better, Cmp, Metric, Outcome, Report};
use crate::runner::{
    run_cpu_baseline, run_edge_baseline, run_gsi, run_gsi_filter_only, run_gsi_on_device,
    Aggregate, CpuBaseline,
};
use crate::workloads::{gowalla_with_labels, watdiv_series, HarnessOpts};
use gsi::baselines::{gpsm, gunrock};
use gsi::datasets::{statistics, DatasetKind};
use gsi::engine::PreparedData;
use gsi::graph::basic::BasicStore;
use gsi::graph::compressed::CompressedStore;
use gsi::graph::csr::Csr;
use gsi::graph::pcsr::MultiPcsr;
use gsi::graph::LabeledStore;
use gsi::prelude::*;
use gsi::sim::StatsSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Render an engine cell: mean over completed queries, annotated with the
/// number of timeouts ("12ms (+2T)"), or ">limit" when everything timed out.
fn time_cell(agg: &Aggregate, limit: Duration) -> String {
    match agg.avg_completed_time() {
        Some(avg) if agg.timeouts == 0 => ms(avg),
        Some(avg) => format!("{} (+{}T)", ms(avg), agg.timeouts),
        None => format!(">{}", ms(limit)),
    }
}

fn section(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Table II: time/space of CSR vs BR vs CR vs PCSR, measured as average GLD
/// transactions per `N(v, l)` extraction — plus the GPN ablation.
pub fn table2(opts: &HarnessOpts) {
    section("Table II — storage structures: transactions per N(v,l) extraction");
    let data = opts.dataset(DatasetKind::Gowalla);
    println!("dataset: gowalla stand-in, {}", statistics(&data));

    // Sample (v, l) pairs that exist.
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut samples = Vec::with_capacity(2_000);
    while samples.len() < 2_000 {
        let v = rng.random_range(0..data.n_vertices()) as u32;
        let nbrs = data.neighbors(v);
        if nbrs.is_empty() {
            continue;
        }
        let (_, l) = nbrs[rng.random_range(0..nbrs.len())];
        samples.push((v, l));
    }

    let gpu = Gpu::new(DeviceConfig::titan_xp());
    // (name, store, the paper's time and space complexity)
    let stores: Vec<(&str, Box<dyn LabeledStore>, &str)> = vec![
        ("CSR", Box::new(Csr::build(&data)), "O(|N(v)|), O(|E|)"),
        (
            "BR",
            Box::new(BasicStore::build(&data)),
            "O(1), O(|E|+|LE||V|)",
        ),
        (
            "CR",
            Box::new(CompressedStore::build(&data)),
            "O(log|V(G,l)|), O(|E|)",
        ),
        ("PCSR", Box::new(MultiPcsr::build(&data)), "O(1), O(|E|)"),
    ];

    let mut t = Table::new(vec![
        "structure",
        "avg GLD/op",
        "time/2k ops",
        "space (MB)",
        "paper complexity",
    ]);
    for (name, store, complexity) in &stores {
        gpu.reset_stats();
        let t0 = Instant::now();
        let mut total_len = 0usize;
        for &(v, l) in &samples {
            let n = store.neighbors_with_label(&gpu, v, l);
            n.for_each_batch(&gpu, |b| total_len += b.len());
        }
        let elapsed = t0.elapsed();
        let gld = gpu.stats().snapshot().gld_transactions as f64 / samples.len() as f64;
        t.row(vec![
            name.to_string(),
            format!("{gld:.2}"),
            ms(elapsed),
            format!("{:.1}", store.space_bytes() as f64 / 1e6),
            complexity.to_string(),
        ]);
    }
    t.print();

    println!("\nGPN ablation (PCSR group size; paper fixes 16 = one 128B transaction):");
    let mut t = Table::new(vec!["GPN", "avg GLD/locate", "max chain", "space (MB)"]);
    for gpn in [2usize, 4, 8, 16] {
        let store = MultiPcsr::build_with_gpn(&data, gpn);
        gpu.reset_stats();
        for &(v, l) in &samples {
            store.neighbor_count(&gpu, v, l);
        }
        let gld = gpu.stats().snapshot().gld_transactions as f64 / samples.len() as f64;
        t.row(vec![
            gpn.to_string(),
            format!("{gld:.2}"),
            store.max_chain().to_string(),
            format!("{:.1}", store.space_bytes() as f64 / 1e6),
        ]);
    }
    t.print();
}

/// Table III: dataset statistics (generated stand-ins at harness scale,
/// with the paper's full-scale targets alongside).
pub fn table3(opts: &HarnessOpts) {
    section("Table III — dataset statistics (stand-ins at harness scale)");
    let mut t = Table::new(vec![
        "name",
        "|V|",
        "|E|",
        "|LV|",
        "|LE|",
        "MD",
        "paper |V|",
        "paper |E|",
        "paper MD",
    ]);
    for kind in DatasetKind::ALL {
        let g = opts.dataset(kind);
        let s = statistics(&g);
        let (pv, pe, _, _, _) = kind.full_target();
        let paper_md = match kind {
            DatasetKind::Enron => "1.7K",
            DatasetKind::Gowalla => "29K",
            DatasetKind::RoadCentral => "8",
            DatasetKind::DBpedia => "2.2M",
            DatasetKind::WatDiv => "671K",
        };
        t.row(vec![
            kind.name().to_string(),
            human(s.n_vertices as u64),
            human(s.n_edges as u64),
            human(s.n_vertex_labels as u64),
            human(s.n_edge_labels as u64),
            human(s.max_degree as u64),
            human(pv as u64),
            human(pe as u64),
            paper_md.to_string(),
        ]);
    }
    t.print();
}

/// Table IV: filtering strategies — minimum `|C(u)|` and filter time for
/// GpSM, GunrockSM (GSM) and GSI filters — plus the Fig. 8 signature-table
/// layout ablation (column-first vs row-first filter GLD).
pub fn table4(opts: &HarnessOpts) {
    section("Table IV — filtering strategies: minimum |C(u)| and time (ms)");
    let mut t = Table::new(vec![
        "dataset", "GpSM |C|", "GSM |C|", "GSI |C|", "GpSM ms", "GSM ms", "GSI ms",
    ]);
    let mut layout_t = Table::new(vec!["dataset", "row-first", "column-first", "drop"]);
    for kind in DatasetKind::ALL {
        let data = opts.dataset(kind);
        let queries = opts.query_batch(&data);
        let mk = |filter| GsiConfig {
            filter,
            ..GsiConfig::gsi_opt()
        };
        let gpsm_f = run_gsi_filter_only(&mk(FilterStrategy::LabelDegree), &data, &queries);
        let gsm_f = run_gsi_filter_only(&mk(FilterStrategy::LabelOnly), &data, &queries);
        let gsi_f = run_gsi_filter_only(&mk(FilterStrategy::Signature), &data, &queries);
        let row_first = run_gsi_filter_only(
            &GsiConfig {
                signature_layout: Layout::RowFirst,
                ..GsiConfig::gsi_opt()
            },
            &data,
            &queries,
        );
        let per_query = |agg: &Aggregate| agg.stats.gld() / agg.queries.max(1) as u64;
        let layouts = [&row_first, &gsi_f].map(per_query);
        layout_t.row(ladder(kind.name(), layouts, human, drop_pct));
        t.row(vec![
            kind.name().to_string(),
            gpsm_f.avg_min_candidate().to_string(),
            gsm_f.avg_min_candidate().to_string(),
            gsi_f.avg_min_candidate().to_string(),
            ms(gpsm_f.avg_filter_time()),
            ms(gsm_f.avg_filter_time()),
            ms(gsi_f.avg_filter_time()),
        ]);
    }
    t.print();
    println!("(paper: GSI reduces min |C(u)| by 10-100x at lower filter time)");
    println!("\nFig. 8 signature-table layout: filter-phase GLD (average per query):");
    layout_t.print();
}

/// Table V: tuning the signature length N on gowalla.
pub fn table5(opts: &HarnessOpts) {
    section("Table V — tuning N (signature bits) on gowalla: min |C(u)|");
    let data = opts.dataset(DatasetKind::Gowalla);
    let queries = opts.query_batch(&data);
    let mut t = Table::new(vec!["N", "min |C(u)|", "filter ms"]);
    for n in [64usize, 128, 192, 256, 320, 384, 448, 512] {
        let cfg = GsiConfig {
            signature: SignatureConfig::with_n(n),
            ..GsiConfig::gsi_opt()
        };
        let agg = run_gsi_filter_only(&cfg, &data, &queries);
        t.row(vec![
            n.to_string(),
            agg.avg_min_candidate().to_string(),
            ms(agg.avg_filter_time()),
        ]);
    }
    t.print();
    println!("(paper: 394, 271, 154, 137, 112, 101, 92, 90 — monotone drop, flattening at 512)");
}

/// One row of a technique-ladder table: the dataset, the first rung's
/// value, then each later rung's value followed by its change against the
/// rung before it.
fn ladder<T: Copy, const N: usize>(
    dataset: &str,
    rungs: [T; N],
    show: fn(T) -> String,
    change: fn(T, T) -> String,
) -> Vec<String> {
    let mut row = vec![dataset.to_string(), show(rungs[0])];
    for pair in rungs.windows(2) {
        row.extend([show(pair[1]), change(pair[0], pair[1])]);
    }
    row
}

/// Table VI: the join-phase technique ladder — GLD and time for GSI-, +DS,
/// +PC, +SO — plus the two GBA ablations of Algorithm 4: first-edge
/// selection (min-frequency vs arbitrary, allocated bytes) and combined vs
/// per-row buffer allocation (allocation requests).
pub fn table6(opts: &HarnessOpts) {
    section("Table VI — join techniques: GLD (join phase) and query time");
    let mut gld_t = Table::new(vec![
        "dataset", "GSI-", "+DS", "drop", "+PC", "drop", "+SO", "drop",
    ]);
    let mut time_t = Table::new(vec![
        "dataset", "GSI-", "+DS", "spd", "+PC", "spd", "+SO", "spd",
    ]);
    let mut join_t = Table::new(vec![
        "dataset", "GSI-", "+DS", "spd", "+PC", "spd", "+SO", "spd",
    ]);
    let mut gba_t = Table::new(vec![
        "dataset",
        "bytes min-freq",
        "bytes arbitrary",
        "allocs combined",
        "allocs per-row",
    ]);
    for kind in DatasetKind::ALL {
        let data = opts.dataset(kind);
        let queries = opts.query_batch(&data);
        let base = run_gsi(&GsiConfig::gsi_base(), &data, &queries, opts);
        let ds = run_gsi(&GsiConfig::gsi_ds(), &data, &queries, opts);
        let pc = run_gsi(&GsiConfig::gsi_pc(), &data, &queries, opts);
        let so = run_gsi(&GsiConfig::gsi(), &data, &queries, opts);
        let rungs = [&base, &ds, &pc, &so];
        let name = kind.name();
        join_t.row(ladder(name, rungs.map(|a| a.avg_join_time()), ms, speedup));
        gld_t.row(ladder(
            name,
            rungs.map(|a| a.avg_join_gld()),
            human,
            drop_pct,
        ));
        time_t.row(ladder(name, rungs.map(|a| a.avg_time()), ms, speedup));

        let device_of = |cfg: GsiConfig| run_gsi(&cfg, &data, &queries, opts).stats.device;
        let arbitrary_edge = device_of(GsiConfig {
            first_edge_min_freq: false,
            ..GsiConfig::gsi()
        });
        let per_row = device_of(GsiConfig {
            combined_alloc: false,
            ..GsiConfig::gsi()
        });
        let n = queries.len() as u64;
        gba_t.row(vec![
            name.to_string(),
            human(so.stats.device.device_alloc_bytes / n),
            human(arbitrary_edge.device_alloc_bytes / n),
            human(so.stats.device.device_allocs / n),
            human(per_row.device_allocs / n),
        ]);
    }
    println!("global memory load transactions (average per query):");
    gld_t.print();
    println!("\nquery response time (average, ms):");
    time_t.print();
    println!("\njoin-phase time only (average, ms — isolates the techniques at reduced scale):");
    join_t.print();
    println!(
        "(paper: DS ~25-42% GLD drop & 1.4-3.6x; PC ~21-33% & 1.2-2.0x; SO ~5-59% & 1.0-6.3x)"
    );
    println!("\nGBA ablations on full GSI (average per query): first-edge selection, allocation:");
    gba_t.print();
}

/// Table VII: write-cache ablation — GST and time.
pub fn table7(opts: &HarnessOpts) {
    section("Table VII — write cache: GST (join phase) and query time");
    let mut t = Table::new(vec![
        "dataset",
        "GST no-cache",
        "GST cache",
        "drop",
        "ms no-cache",
        "ms cache",
        "drop",
    ]);
    for kind in DatasetKind::ALL {
        let data = opts.dataset(kind);
        let queries = opts.query_batch(&data);
        let cached = run_gsi(&GsiConfig::gsi(), &data, &queries, opts);
        let uncached = run_gsi(
            &GsiConfig {
                write_cache: false,
                ..GsiConfig::gsi()
            },
            &data,
            &queries,
            opts,
        );
        let micros = |d: Duration| d.as_micros() as u64;
        t.row(vec![
            kind.name().to_string(),
            human(uncached.avg_join_gst()),
            human(cached.avg_join_gst()),
            drop_pct(uncached.avg_join_gst(), cached.avg_join_gst()),
            ms(uncached.avg_time()),
            ms(cached.avg_time()),
            drop_pct(micros(uncached.avg_time()), micros(cached.avg_time())),
        ]);
    }
    t.print();
    println!("(paper: 7-64% GST drop; up to 76% time drop on enron/WatDiv/DBpedia)");
}

/// Table VIII: the optimization ladder — GSI, +LB, +DR times.
pub fn table8(opts: &HarnessOpts) {
    section("Table VIII — optimizations: query time for GSI, +LB, +DR");
    let mut t = Table::new(vec!["dataset", "GSI", "+LB", "spd", "+DR", "spd"]);
    for kind in DatasetKind::ALL {
        let data = opts.dataset(kind);
        let queries = opts.query_batch(&data);
        let gsi = run_gsi(&GsiConfig::gsi(), &data, &queries, opts);
        let lb = run_gsi(&GsiConfig::gsi_lb(), &data, &queries, opts);
        let dr = run_gsi(&GsiConfig::gsi_opt(), &data, &queries, opts);
        let rungs = [gsi, lb, dr].map(|a| a.avg_time());
        t.row(ladder(kind.name(), rungs, ms, speedup));
    }
    t.print();
    println!("(paper: LB ≥2.7x on WatDiv/DBpedia, 1.0x on small sets; DR 1.1-1.3x)");
}

/// One load-balance threshold sweep on WatDiv (Tables IX and X).
fn lb_sweep(opts: &HarnessOpts, column: &str, values: [usize; 5], params: fn(usize) -> LbParams) {
    let data = opts.dataset(DatasetKind::WatDiv);
    let queries = opts.query_batch(&data);
    let mut t = Table::new(vec![column, "time (ms)"]);
    for v in values {
        let cfg = GsiConfig {
            load_balance: Some(params(v)),
            ..GsiConfig::gsi_opt()
        };
        let agg = run_gsi(&cfg, &data, &queries, opts);
        t.row(vec![v.to_string(), ms(agg.avg_time())]);
    }
    t.print();
}

/// Table IX: tuning W1 on WatDiv.
pub fn table9(opts: &HarnessOpts) {
    section("Table IX — tuning W1 (load balance, W3=256) on WatDiv");
    lb_sweep(opts, "W1", [2048, 3072, 4096, 5120, 6144], |w1| LbParams {
        w1,
        w2: 1024,
        w3: 256,
    });
    println!("(paper: 2.00K, 1.44K, 1.30K, 2.51K, 3.73K — minimum at 4096)");
}

/// Table X: tuning W3 on WatDiv.
pub fn table10(opts: &HarnessOpts) {
    section("Table X — tuning W3 (load balance, W1=4096) on WatDiv");
    lb_sweep(opts, "W3", [192, 224, 256, 288, 320], |w3| LbParams {
        w1: 4096,
        w2: 1024,
        w3,
    });
    println!("(paper: 1.40K, 1.35K, 1.30K, 1.61K, 1.92K — shallow minimum at 256)");
}

/// Table XI: duplicate removal — GLD and time detail.
pub fn table11(opts: &HarnessOpts) {
    section("Table XI — duplicate removal: GLD (join) and query time");
    let mut t = Table::new(vec![
        "dataset",
        "GLD with-dup",
        "GLD dedup",
        "drop",
        "ms with-dup",
        "ms dedup",
    ]);
    for kind in DatasetKind::ALL {
        let data = opts.dataset(kind);
        let queries = opts.query_batch(&data);
        let with_dup = run_gsi(&GsiConfig::gsi_lb(), &data, &queries, opts);
        let dedup = run_gsi(&GsiConfig::gsi_opt(), &data, &queries, opts);
        let arms = [&with_dup, &dedup];
        let mut row = ladder(kind.name(), arms.map(|a| a.avg_join_gld()), human, drop_pct);
        row.extend(arms.map(|a| ms(a.avg_time())));
        t.row(row);
    }
    t.print();
    println!("(paper: 3-23% GLD drop; up to 17% time drop on WatDiv)");
}

/// The four GPU engines of Figs. 12 and 13 on one workload, as time cells
/// (GpSM, GunrockSM, GSI, GSI-opt).
fn gpu_engine_cells(data: &Graph, queries: &[Graph], opts: &HarnessOpts) -> Vec<String> {
    let titan = || Gpu::new(DeviceConfig::titan_xp());
    [
        run_edge_baseline(&gpsm::engine(titan()), data, queries, opts),
        run_edge_baseline(&gunrock::engine(titan()), data, queries, opts),
        run_gsi(&GsiConfig::gsi(), data, queries, opts),
        run_gsi(&GsiConfig::gsi_opt(), data, queries, opts),
    ]
    .iter()
    .map(|agg| time_cell(agg, opts.timeout()))
    .collect()
}

/// Fig. 12: overall comparison — VF3, CFL-Match, GpSM, GunrockSM, GSI,
/// GSI-opt on all datasets.
pub fn fig12(opts: &HarnessOpts) {
    section("Fig. 12 — overall comparison: average query time (ms)");
    let mut t = Table::new(vec![
        "dataset",
        "VF3",
        "CFL",
        "GpSM",
        "GunrockSM",
        "GSI",
        "GSI-opt",
    ]);
    for kind in DatasetKind::ALL {
        let data = opts.dataset(kind);
        let queries = opts.query_batch(&data);
        let mut row = vec![kind.name().to_string()];
        for which in [CpuBaseline::Vf3, CpuBaseline::Cfl] {
            let agg = run_cpu_baseline(which, &data, &queries, opts);
            row.push(time_cell(&agg, opts.cpu_timeout()));
        }
        row.extend(gpu_engine_cells(&data, &queries, opts));
        t.row(row);
    }
    t.print();
    println!("(paper: GPU beats CPU everywhere; GSI ≥23x over GpSM/GunrockSM on WatDiv/DBpedia;");
    println!(" VF3/CFL exceed the 100 s threshold on the large datasets)");
}

/// Fig. 13: scalability on the WatDiv series.
pub fn fig13(opts: &HarnessOpts) {
    section("Fig. 13 — scalability on watdiv10M..100M: average query time (ms)");
    let series = watdiv_series(opts, 10);
    // Scalability needs one point per size, not a deep average; cap the
    // batch so the 10-step sweep stays bounded.
    let opts = &HarnessOpts {
        queries: opts.queries.min(3),
        ..opts.clone()
    };
    let mut t = Table::new(vec!["graph", "|E|", "GpSM", "GunrockSM", "GSI", "GSI-opt"]);
    for (name, data) in &series {
        let queries = opts.query_batch(data);
        let mut row = vec![name.clone(), human(data.n_edges() as u64)];
        row.extend(gpu_engine_cells(data, &queries, opts));
        t.row(row);
    }
    t.print();
    println!(
        "(paper: GpSM/GunrockSM rise sharply; GSI-opt is near-linear with the smallest slope)"
    );
}

/// Fig. 14: vary the number of vertex and edge labels on gowalla.
pub fn fig14(opts: &HarnessOpts) {
    section("Fig. 14 — varying |LV| and |LE| on gowalla: GSI-opt time (ms)");
    let mut t = Table::new(vec!["labels", "vary |LV| (LE=100)", "vary |LE| (LV=100)"]);
    for n in [20usize, 40, 60, 80, 100, 120, 140, 160] {
        let gv = gowalla_with_labels(opts, n, 100);
        let qv = opts.query_batch(&gv);
        let av = run_gsi(&GsiConfig::gsi_opt(), &gv, &qv, opts);
        let ge = gowalla_with_labels(opts, 100, n);
        let qe = opts.query_batch(&ge);
        let ae = run_gsi(&GsiConfig::gsi_opt(), &ge, &qe, opts);
        t.row(vec![n.to_string(), ms(av.avg_time()), ms(ae.avg_time())]);
    }
    t.print();
    println!("(paper: time drops as labels grow; |LV| drops sharply then flattens past 100)");
}

/// Fig. 15: vary |E(Q)| at |V(Q)|=12, and |V(Q)| at |E(Q)|=2|V(Q)|.
pub fn fig15(opts: &HarnessOpts) {
    section("Fig. 15 — varying query size on gowalla: GSI-opt time (ms)");
    let data = opts.dataset(DatasetKind::Gowalla);

    // One GSI-opt time per `(label, |V(Q)|, min |E(Q)|)` shape.
    let sweep = |column: &str, shapes: Vec<(usize, usize, usize)>| {
        let mut t = Table::new(vec![column, "time (ms)", "queries"]);
        for (label, nv, ne) in shapes {
            let queries = opts.shaped_query_batch(&data, nv, ne);
            let time = if queries.is_empty() {
                "n/a".to_string()
            } else {
                ms(run_gsi(&GsiConfig::gsi_opt(), &data, &queries, opts).avg_time())
            };
            t.row(vec![label.to_string(), time, queries.len().to_string()]);
        }
        t.print();
    };

    // The paper sweeps |E(Q)| up to 26 on real gowalla (clustered core);
    // the synthetic stand-in's 12-vertex regions top out around 16 internal
    // edges, so the sweep covers the feasible range and reports n/a beyond.
    println!("\nvary |E(Q)| at |V(Q)| = 12 (paper range 12..26; stand-in saturates ~16):");
    let edge_counts = [11usize, 12, 13, 14, 15, 16, 20, 26];
    sweep(
        "|E(Q)|",
        edge_counts.iter().map(|&ne| (ne, 12, ne)).collect(),
    );

    println!("\nvary |V(Q)| at |E(Q)| = ~1.25|V(Q)| (paper used 2|V|; see note above):");
    sweep(
        "|V(Q)|",
        (8usize..=15).map(|nv| (nv, nv, nv + nv / 4)).collect(),
    );
    println!("(paper: edge growth is cheap, slight drop past 24; vertex growth raises time, flattening past 13)");
}

/// The device the repo-trajectory experiments measure on: one *simulator*
/// worker thread (so the legacy opportunistic threading inside
/// `launch_blocks` cannot blur a comparison) and `latency_ns` of modeled
/// memory stall per streamed element. With the latency model on, join wall
/// clock tracks streamed elements — the quantity a real GPU's memory system
/// pays for — instead of host-side fixed overheads that vanish at
/// production scale.
fn bench_device(latency_ns: u64) -> DeviceConfig {
    DeviceConfig {
        worker_threads: 1,
        stream_latency_ns: latency_ns,
        ..DeviceConfig::titan_xp()
    }
}

fn bench_engine(cfg: GsiConfig, latency_ns: u64) -> GsiEngine {
    GsiEngine::with_gpu(cfg, Gpu::new(bench_device(latency_ns)))
}

/// One measured, determinism-checked run of `arm` in `scope`: `q` executes
/// twice under `opts`; `report` gains the warmed-up second run's rows (its
/// own `stats.join_time` is the wall time kept) and the gates
/// `<scope>/<arm>/completes` (neither repetition hit the timeout or row
/// guard) and `<scope>/<arm>/repeats_exactly` (match table and
/// device-counter delta identical between the two). Returns the second run.
fn run_twice(
    report: &mut Report,
    (scope, arm): (&str, &str),
    engine: &GsiEngine,
    (data, prepared): (&Graph, &PreparedData),
    q: &Graph,
    opts: QueryOptions<'_>,
) -> QueryOutput {
    let run = || {
        engine
            .query_with_options(data, prepared, q, opts)
            .expect("workload patterns are connected")
    };
    let (first, second) = (run(), run());
    report.check(
        format!("{scope}/{arm}/completes"),
        first.stats.timed_out as usize + second.stats.timed_out as usize,
    );
    report.check(
        format!("{scope}/{arm}/repeats_exactly"),
        (first.matches.table != second.matches.table) as usize
            + (first.stats.device != second.stats.device) as usize,
    );
    report.arm(scope, arm).query(&second);
    second
}

/// Streamed elements per wall second, in millions.
fn melem_per_s(work_units: u64, wall: Duration) -> f64 {
    ratio(work_units, wall.as_secs_f64()) / 1e6
}

/// PR 2 perf trajectory — serial vs `HostParallel` execution backend on the
/// join workload (not part of the paper; the repo's own scaling series).
///
/// Both runs use an identical `bench_device` with the memory-latency
/// model enabled at `latency_ns` per streamed element — the regime where a
/// real GPU's SMs earn their parallelism by hiding latency, and where the
/// `HostParallel` backend's overlapping workers show real wall-clock
/// speedup even on a single-core host. Gate: the backends' device counters
/// and match counts are *exactly* equal — only wall clock may move.
/// Committed copy: `BENCH_PR2.json`.
pub fn backend(opts: &HarnessOpts, threads: usize, latency_ns: u64, out_path: &str) -> Outcome {
    /// Parallel speedup the executed join schedule admits (work / span).
    const SCHEDULE_SPEEDUP: Metric =
        Metric::measured("core.join_schedule_speedup", "x", Better::Higher);

    section(&format!(
        "Backend scaling — serial vs host-parallel join execution ({threads} threads)"
    ));
    let data = opts.dataset(DatasetKind::Enron);
    println!("dataset: enron stand-in, {}", statistics(&data));
    let queries = opts.query_batch(&data);
    let device = bench_device(latency_ns);
    let cfg = GsiConfig::gsi_opt();

    let serial = run_gsi_on_device(&cfg, device.clone(), &data, &queries, opts);
    let parallel = run_gsi_on_device(
        &cfg.clone().with_backend(BackendKind::HostParallel, threads),
        device.clone(),
        &data,
        &queries,
        opts,
    );

    let mut report = Report::new(
        "backend",
        "serial vs HostParallel join execution backend, identical device, \
         memory-latency model enabled",
        opts,
    );
    report.param_str("dataset", "enron");
    report.param("threads", threads);
    report.param("device.worker_threads", device.worker_threads);
    report.param("device.stream_latency_ns", device.stream_latency_ns);
    serial.rows(&mut report.arm("enron", "serial"));
    let mut arm = report.arm("enron", "host-parallel");
    parallel.rows(&mut arm);
    arm.put(
        &SPEEDUP,
        ratio(serial.stats.join_time, parallel.stats.join_time),
    )
    .put(&SCHEDULE_SPEEDUP, parallel.stats.join_schedule_speedup());

    // The whole device ledger, not a selection of its counters.
    let counters = |agg: &Aggregate| {
        let s = &agg.stats;
        (s.n_matches, s.device, s.join_work_units)
    };
    report.check(
        "device_counters_equal_across_backends",
        counters(&serial) != counters(&parallel),
    );
    report.finish(out_path)
}

/// PR 3 perf trajectory — dynamic update churn: interleaved mutation
/// batches and queries on an evolving graph, incremental re-prepare
/// (`PreparedData::apply_updates`: PCSR layer splices + touched-vertex
/// signature refresh) vs a cold `prepare_shared` rebuild of the mutated
/// graph (not part of the paper; the repo's own serving trajectory).
///
/// Each round mutates a couple of "hot" edge labels — the delta-locality
/// regime PCSR's layer partitioning was built for — then runs the query
/// batch against *both* preparations. Gate: bit-identical match tables and
/// exact device-ledger counters on every query, before either wall time is
/// trusted. Committed copy: `BENCH_PR3.json`.
pub fn update_churn(
    opts: &HarnessOpts,
    rounds: usize,
    batch_size: usize,
    out_path: &str,
) -> Outcome {
    use gsi::graph::update::UpdateBatch;
    use std::collections::BTreeSet;
    const OPS: Metric = Metric::exact("graph.update_ops", "count", Better::Neither);
    const SPLICED: Metric = Metric::exact("graph.layers_spliced", "count", Better::Higher);
    const REBUILT: Metric = Metric::exact("graph.layers_rebuilt", "count", Better::Lower);
    const SIGS: Metric = Metric::exact("signature.refreshed", "count", Better::Lower);
    const QUERIES: Metric = Metric::exact("bench.queries_checked", "count", Better::Neither);

    section(&format!(
        "Update churn — incremental re-prepare vs full rebuild ({rounds} rounds × {batch_size} ops)"
    ));
    let n_elabels = 8usize;
    let mut g = gowalla_with_labels(opts, 4, n_elabels);
    println!(
        "dataset: gowalla stand-in ({n_elabels} edge labels), {}",
        statistics(&g)
    );
    let engine = bench_engine(GsiConfig::gsi_opt(), 0);
    let mut prepared = engine.prepare(&g);
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let mut report = Report::new(
        "update-churn",
        "interleaved mutation batches + queries on an evolving graph: \
         incremental PreparedData::apply_updates vs cold prepare_shared \
         rebuild, equivalence-gated",
        opts,
    );
    report.param_str("dataset", "gowalla");
    report.param("edge_labels", n_elabels);
    report.param("rounds", rounds);
    report.param("batch_size", batch_size);

    // The re-prepare totals are the headline; every other per-round row
    // sums trivially.
    let (mut incremental_total, mut rebuild_total) = (Duration::ZERO, Duration::ZERO);
    let mut diverged = 0usize;
    for round in 0..rounds {
        // A mutation batch with delta locality: ops on two hot labels,
        // endpoints drawn mostly from vertices already active in that
        // label (attachment locality — and the regime where the canonical
        // splice applies; a sprinkle of arbitrary endpoints keeps the
        // local-rebuild path honest).
        let hot: Vec<u32> = (0..2)
            .map(|_| rng.random_range(0..n_elabels as u32))
            .collect();
        let mut edges: BTreeSet<(u32, u32, u32)> = g
            .edges()
            .into_iter()
            .filter(|e| hot.contains(&e.label))
            .map(|e| (e.u, e.v, e.label))
            .collect();
        // Ordered: `present` is built from its keys, and a hash map's
        // per-process order would make the seeded batch differ run to run.
        let mut deg: std::collections::BTreeMap<(u32, u32), usize> = Default::default();
        for &(u, v, l) in &edges {
            *deg.entry((l, u)).or_default() += 1;
            *deg.entry((l, v)).or_default() += 1;
        }
        let present: Vec<Vec<u32>> = hot
            .iter()
            .map(|&l| {
                deg.keys()
                    .filter(|&&(dl, _)| dl == l)
                    .map(|&(_, v)| v)
                    .collect()
            })
            .collect();
        let n = g.n_vertices() as u32;
        let mut batch = UpdateBatch::new();
        for _ in 0..batch_size {
            let roll = rng.random_range(0..10);
            if roll < 3 && !edges.is_empty() {
                // Remove an edge both of whose endpoints keep label-degree
                // ≥ 1 (presence-preserving).
                for _ in 0..8 {
                    let idx = rng.random_range(0..edges.len());
                    let &(u, v, l) = edges.iter().nth(idx).expect("in range");
                    if deg[&(l, u)] >= 2 && deg[&(l, v)] >= 2 {
                        batch.remove_edge(u, v, l);
                        edges.remove(&(u, v, l));
                        *deg.get_mut(&(l, u)).expect("present") -= 1;
                        *deg.get_mut(&(l, v)).expect("present") -= 1;
                        break;
                    }
                }
            } else {
                let li = rng.random_range(0..hot.len());
                let l = hot[li];
                for _ in 0..8 {
                    // 1-in-10 inserts attach an arbitrary vertex (may force
                    // a local layer rebuild); the rest stay label-local.
                    let (u, v) = if roll == 9 || present[li].len() < 2 {
                        (rng.random_range(0..n), rng.random_range(0..n))
                    } else {
                        (
                            present[li][rng.random_range(0..present[li].len())],
                            present[li][rng.random_range(0..present[li].len())],
                        )
                    };
                    let key = (u.min(v), u.max(v), l);
                    if u != v && !g.has_edge(u, v, l) && !edges.contains(&key) {
                        batch.insert_edge(u, v, l);
                        edges.insert(key);
                        *deg.entry((l, u)).or_default() += 1;
                        *deg.entry((l, v)).or_default() += 1;
                        break;
                    }
                }
            }
        }

        // Incremental path: delta re-prepare (includes the logical graph
        // mutation, which the rebuild path gets for free — conservative).
        let t0 = Instant::now();
        let (updated, inc, update) = engine
            .apply_updates(&g, &prepared, &batch)
            .expect("generated batch is valid");
        let incremental = t0.elapsed();

        // Rebuild path: cold offline phase on the already-mutated graph.
        let t0 = Instant::now();
        let cold = engine.prepare_shared(&updated);
        let rebuild = t0.elapsed();

        // Interleaved queries, against both preparations.
        let queries = opts.query_batch(&updated);
        let mut matches = 0usize;
        for q in &queries {
            let a = engine
                .query_with_timeout(&updated, &inc, q, Some(opts.timeout()))
                .expect("plans");
            let b = engine
                .query_with_timeout(&updated, &cold, q, Some(opts.timeout()))
                .expect("plans");
            let same = a.matches.table == b.matches.table && a.stats.device == b.stats.device;
            diverged += !same as usize;
            matches += a.matches.len();
        }

        let scope = format!("round-{round}");
        let store = update.store.as_ref().expect("pcsr storage");
        report.arm(&scope, "rebuild").put(&PREPARE_MS, rebuild);
        report
            .arm(&scope, "incremental")
            .put(&PREPARE_MS, incremental)
            .put(&SPEEDUP, ratio(rebuild, incremental))
            .put(&OPS, batch.len())
            .put(&SPLICED, store.spliced())
            .put(&REBUILT, store.rebuilt())
            .put(&SIGS, update.signatures_refreshed.unwrap_or(0))
            .put(&QUERIES, queries.len())
            .put(&MATCHES, matches);
        incremental_total += incremental;
        rebuild_total += rebuild;
        g = updated;
        prepared = inc;
    }
    report
        .arm("total", "rebuild")
        .put(&PREPARE_MS, rebuild_total);
    report
        .arm("total", "incremental")
        .put(&PREPARE_MS, incremental_total)
        .put(&SPEEDUP, ratio(rebuild_total, incremental_total));
    report.check(
        "incremental_tables_and_counters_equal_cold_rebuild",
        diverged,
    );
    report.finish(out_path)
}

/// PR 4 perf trajectory — inter-query batched execution: a batch of
/// concurrent same-graph queries drawn from a small recurring-pattern pool
/// (the shape real serving workloads have), run once per query through
/// `GsiEngine::query_with_options` and once as a single
/// `GsiEngine::query_batch` with shared candidate filtering (not part of
/// the paper; the repo's own serving trajectory).
///
/// Gates, per concurrency level: per-query match tables bit-identical,
/// per-query join work exactly equal, every repeated demand actually
/// shared, and the batch's device GLD strictly below the solo runs'
/// whenever anything was shared (never above otherwise) — device-ledger
/// counters, immune to CI timing noise. The 16-query level's wall-clock
/// win must clear `min_speedup_at_16` (a measurement; CI passes 0).
/// Committed copy: `BENCH_PR4.json`.
pub fn batch_queries(
    opts: &HarnessOpts,
    pool: usize,
    min_speedup_at_16: f64,
    out_path: &str,
) -> Outcome {
    use gsi::engine::BatchItem;
    const DEMANDS_COMPUTED: Metric =
        Metric::exact("core.filter_demands_computed", "count", Better::Lower);
    const DEMANDS_REUSED: Metric =
        Metric::exact("core.filter_demands_reused", "count", Better::Higher);
    const REUSE_RATE: Metric =
        Metric::exact("service.filter_reuse_rate", "fraction", Better::Higher);

    section(&format!(
        "Batched execution — shared candidate filtering, {pool}-pattern pool"
    ));
    let data = opts.dataset(DatasetKind::Gowalla);
    println!("dataset: gowalla stand-in, {}", statistics(&data));
    // The intermediate-row guard keeps every pool pattern's join bounded.
    // It trips on row *count* — deterministic, identical for solo and
    // batched execution — unlike a wall-clock timeout, which would break
    // the bit-identical equivalence gate.
    let engine = bench_engine(
        GsiConfig {
            max_intermediate_rows: 10_000,
            ..GsiConfig::gsi_opt()
        },
        0,
    );
    let prepared = engine.prepare(&data);
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Recurring-pattern pool, vetted: a random walk can land in a dense
    // region whose join explodes; such a pattern would drown the filtering
    // phase this experiment isolates (and CI's wall clock with it). Keep
    // only patterns that complete under the row guard.
    let mut patterns: Vec<Graph> = Vec::with_capacity(pool);
    let mut attempts = 0usize;
    while patterns.len() < pool {
        attempts += 1;
        assert!(
            attempts <= 256,
            "could not assemble a join-bounded pattern pool at this scale"
        );
        let Some(q) = gsi::graph::query_gen::random_walk_query(&data, opts.query_size, &mut rng)
        else {
            continue;
        };
        let vet = engine
            .query_with_options(&data, &prepared, &q, QueryOptions::default())
            .expect("random walks are connected");
        if !vet.stats.timed_out {
            patterns.push(q);
        }
    }

    let mut report = Report::new(
        "batch",
        "inter-query batched execution with shared candidate filtering vs \
         per-query serial runs, equivalence-gated (bit-identical tables, \
         exact join work)",
        opts,
    );
    report.param_str("dataset", "gowalla");
    report.param("pattern_pool", pool);

    for &c in &[8usize, 16, 32] {
        let scope = format!("c={c}");
        let workload: Vec<&Graph> = (0..c).map(|i| &patterns[i % pool]).collect();

        // Per-query serial reference: each query pays its own filtering.
        let t0 = Instant::now();
        let solo: Vec<_> = workload
            .iter()
            .map(|q| {
                engine
                    .query_with_options(&data, &prepared, q, QueryOptions::default())
                    .expect("pool queries are connected")
            })
            .collect();
        let t_solo = t0.elapsed();
        let solo_gld: u64 = solo.iter().map(|o| o.stats.device.gld_transactions).sum();

        // Batched: one engine call, filtering shared per distinct demand.
        let t0 = Instant::now();
        let items: Vec<BatchItem<'_>> = workload.iter().map(|q| BatchItem::new(q)).collect();
        let batch = engine.query_batch(&data, &prepared, &items);
        let t_batch = t0.elapsed();
        // A shared demand is charged to the item that computed it.
        let batch_gld: u64 = batch
            .results
            .iter()
            .flatten()
            .map(|o| o.stats.device.gld_transactions)
            .sum();

        let (mut tables_differ, mut work_differs) = (0usize, 0usize);
        let (mut matches, mut solo_matches) = (0usize, 0usize);
        for (b, s) in batch.results.iter().zip(&solo) {
            let b = b.as_ref().expect("solo run planned the same query");
            tables_differ += (b.matches.table != s.matches.table) as usize;
            work_differs += (b.stats.join_work_units != s.stats.join_work_units) as usize;
            matches += b.matches.len();
            solo_matches += s.matches.len();
        }
        report.check(format!("{scope}/tables_identical_to_solo"), tables_differ);
        report.check(format!("{scope}/join_work_identical_to_solo"), work_differs);
        if c > pool {
            report.gate(
                format!("{scope}/repeated_demands_are_shared"),
                batch.filter_demands_reused,
                Cmp::Gt,
                0u64,
            );
        }
        // Shared passes must remove device work; batching never adds any.
        let cmp = if batch.filter_demands_reused > 0 {
            Cmp::Lt
        } else {
            Cmp::Le
        };
        report.gate(
            format!("{scope}/batch_gld_vs_solo"),
            batch_gld,
            cmp,
            solo_gld,
        );

        let speedup = ratio(t_solo, t_batch);
        report
            .arm(&scope, "solo")
            .put(&QUERY_MS, t_solo)
            .put(&GLD, solo_gld)
            .put(&MATCHES, solo_matches);
        report
            .arm(&scope, "batch")
            .put(&QUERY_MS, t_batch)
            .put(&GLD, batch_gld)
            .put(&MATCHES, matches)
            .put(&SPEEDUP, speedup)
            .put(&DEMANDS_COMPUTED, batch.filter_demands_computed)
            .put(&DEMANDS_REUSED, batch.filter_demands_reused)
            .put(&REUSE_RATE, batch.filter_reuse_rate());
        if c == 16 {
            // The wall-clock bar is a *measurement*, noisy on shared CI
            // runners; `--min-speedup 0` keeps only the deterministic
            // counter gates above and records the speedup as information.
            report.gate("speedup_at_16", speedup, Cmp::Ge, min_speedup_at_16);
        }
    }
    report.finish(out_path)
}

/// Build the skewed-label workload for the `optimize` experiment: a few
/// "anchor" vertices (label A) fan out over a *dense* edge class to a large
/// B population, while rare edge classes connect B→C→D. Greedy planning
/// (Algorithm 2) seeds at the smallest `|C(u)|/deg(u)` score — the anchor —
/// and is then forced to expand through the dense A–B class before any rare
/// edge can prune; a cost-based order enters from the rare side and keeps
/// every intermediate table small.
fn skewed_graph(scale: f64, seed: u64) -> Graph {
    use gsi::graph::GraphBuilder;
    let n_a = 8usize;
    let n_b = ((3000.0 * scale) as usize).max(60);
    let n_c = ((150.0 * scale) as usize).max(12);
    let n_d = ((30.0 * scale) as usize).max(6);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0001_5EED);
    let mut b = GraphBuilder::new();
    let a: Vec<u32> = (0..n_a).map(|_| b.add_vertex(0)).collect();
    let bs: Vec<u32> = (0..n_b).map(|_| b.add_vertex(1)).collect();
    let cs: Vec<u32> = (0..n_c).map(|_| b.add_vertex(2)).collect();
    let ds: Vec<u32> = (0..n_d).map(|_| b.add_vertex(3)).collect();
    // Dense class 0: every B touches one or two anchors.
    for &vb in &bs {
        let first = a[rng.random_range(0..n_a)];
        b.add_edge(first, vb, 0);
        if rng.random_range(0..2) == 0 {
            let second = a[(first as usize + 1 + rng.random_range(0..(n_a - 1))) % n_a];
            b.add_edge(second, vb, 0);
        }
    }
    // Rare class 1: each C reaches two distinct Bs.
    for (i, &vc) in cs.iter().enumerate() {
        b.add_edge(bs[(i * 7) % n_b], vc, 1);
        b.add_edge(bs[(i * 7 + 3) % n_b], vc, 1);
    }
    // Rare class 2: each D reaches two distinct Cs.
    for (i, &vd) in ds.iter().enumerate() {
        b.add_edge(cs[(i * 5) % n_c], vd, 2);
        b.add_edge(cs[(i * 5 + 2) % n_c], vd, 2);
    }
    b.build()
}

/// A small query pattern from its vertex labels and `(u, v, edge label)`
/// list.
fn pattern(vertex_labels: &[u32], edges: &[(u32, u32, u32)]) -> Graph {
    let mut qb = gsi::graph::GraphBuilder::new();
    for &label in vertex_labels {
        qb.add_vertex(label);
    }
    for &(u, v, label) in edges {
        qb.add_edge(u, v, label);
    }
    qb.build()
}

/// The recurring patterns of the skewed workload. Every pattern contains
/// an anchor vertex whose tiny candidate set baits the greedy seed.
fn skewed_patterns() -> Vec<(&'static str, Graph)> {
    vec![
        // a(A) -0- b(B) -1- c(C)
        ("path3", pattern(&[0, 1, 2], &[(0, 1, 0), (1, 2, 1)])),
        // a(A) -0- b(B) -1- c(C) -2- d(D)
        (
            "path4",
            pattern(&[0, 1, 2, 3], &[(0, 1, 0), (1, 2, 1), (2, 3, 2)]),
        ),
        // Y-shape: two anchors off one B, which reaches a C.
        (
            "fork",
            pattern(&[0, 0, 1, 2], &[(0, 2, 0), (1, 2, 0), (2, 3, 1)]),
        ),
    ]
}

/// PR 5 perf trajectory — cost-based join ordering: the same skewed-label
/// workload planned by Algorithm 2's greedy heuristic and by the
/// statistics-driven cost-based optimizer, executed on one engine and one
/// prepared graph (not part of the paper; the repo's own serving
/// trajectory).
///
/// Gates, strongest first: (1) **determinism** — each (pattern, planner)
/// pair runs twice (`run_twice`) and must charge exactly equal device
/// counters and produce bit-identical tables; (2) **equivalence** — greedy
/// and costed runs must produce bit-identical *canonical* match tables
/// (same rows, vertex-indexed, sorted; the join orders differ by design);
/// (3) the costed orders must win by at least `min_work_ratio` on join
/// work units (deterministic, timing-immune); (4) the join wall-clock win
/// must clear `min_speedup` (a measurement — CI passes 0 and keeps gates
/// 1–3). Committed copy: `BENCH_PR5.json`.
pub fn optimize(
    opts: &HarnessOpts,
    min_speedup: f64,
    min_work_ratio: f64,
    out_path: &str,
) -> Outcome {
    section("Cost-based join ordering — greedy vs costed on a skewed-label workload");
    let data = skewed_graph(opts.scale, opts.seed);
    println!("dataset: skewed-label synthetic, {}", statistics(&data));
    let engine = bench_engine(GsiConfig::gsi_opt(), 100);
    let prepared = engine.prepare(&data);
    let patterns = skewed_patterns();

    let mut report = Report::new(
        "optimize",
        "statistics-driven cost-based join ordering vs Algorithm 2's greedy \
         heuristic on a skewed-label workload, equivalence-gated (canonical \
         tables bit-identical, device counters deterministic)",
        opts,
    );
    report.param_str("dataset", "skewed-label synthetic");
    report.param("patterns", patterns.len());

    let (mut greedy_total, mut costed_total) = (RunStats::default(), RunStats::default());
    for (name, q) in &patterns {
        let mut run = |arm: &str, planner| {
            let opts = QueryOptions {
                planner: Some(planner),
                ..QueryOptions::default()
            };
            let out = run_twice(
                &mut report,
                (name, arm),
                &engine,
                (&data, &prepared),
                q,
                opts,
            );
            report.check(
                format!("{name}/{arm}/planner_override_honoured"),
                out.planner != planner,
            );
            out
        };
        let greedy = run("greedy", PlannerKind::Greedy);
        let costed = run("costed", PlannerKind::CostBased);
        // The orders (and so the raw column layouts) differ by design.
        report.check(
            format!("{name}/canonical_tables_equal"),
            greedy.matches.canonical() != costed.matches.canonical(),
        );
        println!(
            "{name}: greedy order {:?}, costed order {:?}",
            greedy.plan.order, costed.plan.order
        );

        report
            .arm(name, "costed")
            .versus(&greedy.stats, &costed.stats);
        greedy_total.accumulate(&greedy.stats);
        costed_total.accumulate(&costed.stats);
    }

    report.arm("total", "greedy").run(&greedy_total);
    let (work_ratio, wall_speedup) = report
        .arm("total", "costed")
        .run(&costed_total)
        .versus(&greedy_total, &costed_total);
    report.gate("join_work_ratio", work_ratio, Cmp::Ge, min_work_ratio);
    // The wall bar is a measurement, noisy on shared CI runners; pass
    // `--min-speedup 0` to keep only the deterministic gates above.
    report.gate("join_wall_speedup", wall_speedup, Cmp::Ge, min_speedup);
    report.finish(out_path)
}

/// Correlated-label graph for the adaptive experiment: a small "active"
/// subpopulation of the B class carries every edge, so class-average
/// statistics dilute its true fanouts ~10x (the independence error the
/// cost model cannot see), and the Y/Z branch densities invert between
/// the `planned` version (where the cached plans are computed) and the
/// served version (concept drift that makes those plans stale).
fn correlated_graph(scale: f64, planned: bool) -> Graph {
    use gsi::graph::GraphBuilder;
    let n_a = 8usize;
    let n_b = ((2000.0 * scale) as usize).max(400);
    let n_s = ((160.0 * scale) as usize).max(50); // active subpopulation
    let n_x = ((100.0 * scale) as usize).max(20);
    let n_y = ((100.0 * scale) as usize).max(20);
    let n_z = ((100.0 * scale) as usize).max(20);
    let mut b = GraphBuilder::new();
    let a: Vec<u32> = (0..n_a).map(|_| b.add_vertex(0)).collect();
    let bs: Vec<u32> = (0..n_b).map(|_| b.add_vertex(1)).collect();
    let xs: Vec<u32> = (0..n_x).map(|_| b.add_vertex(2)).collect();
    let ys: Vec<u32> = (0..n_y).map(|_| b.add_vertex(3)).collect();
    let zs: Vec<u32> = (0..n_z).map(|_| b.add_vertex(4)).collect();
    // Only the active b's have any edges; the rest are the uncorrelated
    // mass that drags the class averages down.
    for i in 0..n_s {
        let vb = bs[i];
        b.add_edge(a[i % n_a], vb, 0);
        for j in 0..5 {
            b.add_edge(vb, xs[(i * 3 + j) % n_x], 1);
        }
        let (y_deg, z_deg) = if planned { (10, 1) } else { (1, 10) };
        for j in 0..y_deg {
            b.add_edge(vb, ys[(i * 7 + j) % n_y], 2);
        }
        for j in 0..z_deg {
            b.add_edge(vb, zs[(i * 7 + j) % n_z], 3);
        }
    }
    b.build()
}

/// The recurring star patterns of the adaptive workload, centered on the
/// correlated B class.
fn correlated_patterns() -> Vec<(&'static str, Graph)> {
    use gsi::graph::GraphBuilder;
    let star = |branches: &[(u32, u32)]| {
        let mut qb = GraphBuilder::new();
        let qa = qb.add_vertex(0);
        let qbv = qb.add_vertex(1);
        qb.add_edge(qa, qbv, 0);
        for &(vlabel, elabel) in branches {
            let v = qb.add_vertex(vlabel);
            qb.add_edge(qbv, v, elabel);
        }
        qb.build()
    };
    vec![
        // a(A) -0- b(B) with branch subsets of {x(X,1), y(Y,2), z(Z,3)}.
        ("fork-xy", star(&[(2, 1), (3, 2)])),
        ("fork-zy", star(&[(4, 3), (3, 2)])),
        ("star-zxy", star(&[(4, 3), (2, 1), (3, 2)])),
    ]
}

/// PR 8 perf trajectory — adaptive mid-query re-planning: recurring star
/// patterns over a correlated-label graph are planned once by the
/// cost-based optimizer, the branch densities then invert (concept
/// drift), and the now-stale cached plans are replayed on the served
/// data in two arms: **static** executes each stale plan to the end,
/// **adaptive** (re-plan threshold 2.0) detects the correlation-driven
/// cardinality misses mid-query and re-plans the remaining suffix from
/// observed cardinalities. A fresh-planned arm is reported for context.
///
/// Gates, strongest first: (1) **determinism** — each (pattern, arm)
/// pair runs twice (`run_twice`) and must charge exactly equal device
/// counters and produce bit-identical tables; (2) **equivalence** — all
/// three arms must produce bit-identical *canonical* match tables, and the
/// static arm must replay the cached order without re-planning; (3) the
/// adaptive arm must actually re-plan on at least one pattern; (4) the
/// adaptive orders must win by at least `min_work_ratio` on join work
/// units (deterministic, timing-immune); (5) the join wall-clock win must
/// clear `min_speedup` (a measurement — CI passes 0 and keeps gates 1–4).
/// Committed copy: `BENCH_PR8.json`.
pub fn adapt(opts: &HarnessOpts, min_speedup: f64, min_work_ratio: f64, out_path: &str) -> Outcome {
    /// The static plan's mean q-error when the first re-plan fired.
    const PRE_REPLAN_Q_ERROR: Metric =
        Metric::exact("core.pre_replan_q_error", "ratio", Better::Lower);
    const THRESHOLD: f64 = 2.0;

    section("Adaptive mid-query re-planning — stale plans under concept drift");
    let planned_data = correlated_graph(opts.scale, true);
    let served_data = correlated_graph(opts.scale, false);
    println!(
        "dataset: correlated-label synthetic (served), {}",
        statistics(&served_data)
    );
    let patterns = correlated_patterns();
    let costed = QueryOptions {
        planner: Some(PlannerKind::CostBased),
        ..QueryOptions::default()
    };

    // Plan every pattern once on the pre-drift data — the plan-cache
    // contents a serving system would carry across the update.
    let planner_engine = bench_engine(GsiConfig::gsi_opt(), 100);
    let planned_prepared = planner_engine.prepare(&planned_data);
    let stale_plans: Vec<JoinPlan> = patterns
        .iter()
        .map(|(_, q)| {
            planner_engine
                .query_with_options(&planned_data, &planned_prepared, q, costed)
                .expect("patterns are connected")
                .plan
        })
        .collect();

    let engine = bench_engine(GsiConfig::gsi_opt(), 100);
    let prepared = engine.prepare(&served_data);

    let mut report = Report::new(
        "adapt",
        "adaptive mid-query re-planning vs replayed stale cost-based plans on a \
         correlated-label workload under concept drift, equivalence-gated \
         (canonical tables bit-identical, device counters deterministic)",
        opts,
    );
    report.param_str("dataset", "correlated-label synthetic");
    report.param("patterns", patterns.len());
    report.param("replan_qerror_threshold", THRESHOLD);

    let (mut static_total, mut adaptive_total) = (RunStats::default(), RunStats::default());
    for ((name, q), stale) in patterns.iter().zip(&stale_plans) {
        let mut run = |arm: &str, plan: Option<&JoinPlan>, replan_qerror_threshold| {
            let opts = QueryOptions {
                plan,
                replan_qerror_threshold,
                ..costed
            };
            let served = (&served_data, &prepared);
            run_twice(&mut report, (name, arm), &engine, served, q, opts)
        };
        let stat = run("static-stale", Some(stale), None);
        let adaptive = run("adaptive", Some(stale), Some(THRESHOLD));
        let fresh = run("fresh", None, None); // fresh post-drift plan, for context
        report.check(
            format!("{name}/static_arm_never_replans"),
            stat.stats.replans,
        );
        report.check(
            format!("{name}/static_arm_replays_the_cache"),
            stat.plan.order != stale.order,
        );
        // The orders (and column layouts) differ by design.
        let truth = stat.matches.canonical();
        report.check(
            format!("{name}/adaptive_canonical_table_equals_static"),
            truth != adaptive.matches.canonical(),
        );
        report.check(
            format!("{name}/fresh_canonical_table_equals_static"),
            truth != fresh.matches.canonical(),
        );
        println!(
            "{name}: stale order {:?}, adaptive order {:?}, fresh order {:?}",
            stat.plan.order, adaptive.plan.order, fresh.plan.order
        );

        report
            .arm(name, "adaptive")
            .put(
                &PRE_REPLAN_Q_ERROR,
                adaptive.pre_replan_q_error.unwrap_or(f64::NAN),
            )
            .versus(&stat.stats, &adaptive.stats);
        static_total.accumulate(&stat.stats);
        adaptive_total.accumulate(&adaptive.stats);
    }

    report.arm("total", "static-stale").run(&static_total);
    let (work_ratio, wall_speedup) = report
        .arm("total", "adaptive")
        .run(&adaptive_total)
        .versus(&static_total, &adaptive_total);
    report.gate(
        "drifted_workload_triggers_a_replan",
        adaptive_total.replans,
        Cmp::Gt,
        0u64,
    );
    report.gate("join_work_ratio", work_ratio, Cmp::Ge, min_work_ratio);
    // The wall bar is a measurement, noisy on shared CI runners; pass
    // `--min-speedup 0` to keep only the deterministic gates above.
    report.gate("join_wall_speedup", wall_speedup, Cmp::Ge, min_speedup);
    report.finish(out_path)
}

/// PR 6 perf trajectory — observability overhead: the PR 2 (enron
/// random-walk) and PR 5 (skewed-label) join workloads run in two arms —
/// `TraceConfig::Off` (the default) and `TraceConfig::On` (per-join-step
/// span timing). Gates: every repetition of both arms produces the same
/// canonical tables, device counters and guard aborts (tracing must never
/// change what the engine does, only whether it is watched); `On` times
/// every executed join step and `Off` keeps no step timers; the On arm's
/// join-wall overhead over Off stays within `max_overhead` (`0` disables
/// that timing gate for noisy CI runners). A closing service-layer pass
/// exercises the metrics exporters, stage breakdowns, and the flight
/// recorder end to end. Committed copy: `BENCH_PR6.json`.
pub fn observe(opts: &HarnessOpts, max_overhead: f64, out_path: &str) -> Outcome {
    use gsi::prelude::{MetricFormat, TraceConfig};
    use gsi::service::{QueryRequest, ServiceConfig};
    /// Join-wall overhead of the On arm over the Off arm.
    const OVERHEAD: Metric =
        Metric::measured("bench.trace_overhead_frac", "fraction", Better::Lower);
    const SPAN_STEPS: Metric = Metric::exact("obs.span_steps_timed", "count", Better::Neither);
    const COMPLETED: Metric = Metric::exact("service.completed", "count", Better::Neither);
    const UNACCOUNTED: Metric =
        Metric::measured("service.stage_unaccounted_frac", "fraction", Better::Lower);
    const FLIGHT_TRACES: Metric =
        Metric::exact("obs.flight_recorder_traces", "count", Better::Neither);
    /// Metric families (`# TYPE` lines) in the Prometheus export: exact,
    /// unlike its line count, which grows with the histograms' non-empty
    /// buckets.
    const PROM_FAMILIES: Metric =
        Metric::exact("obs.prometheus_families", "count", Better::Neither);
    const Q_ERROR_P50: Metric = Metric::measured("service.q_error_p50", "ratio", Better::Lower);
    const Q_ERROR_MAX: Metric = Metric::measured("service.q_error_max", "ratio", Better::Lower);
    const REPS: usize = 3;

    section("Observability overhead — tracing Off vs On on the PR 2 / PR 5 workloads");
    let engine = bench_engine(GsiConfig::gsi_opt(), 100);
    let enron = opts.dataset(DatasetKind::Enron);
    let enron_queries = opts.query_batch(&enron);
    let skew = skewed_graph(opts.scale, opts.seed);
    let skew_queries: Vec<Graph> = skewed_patterns().into_iter().map(|(_, q)| q).collect();

    let mut report = Report::new(
        "observe",
        "per-query tracing overhead: TraceConfig::Off vs TraceConfig::On \
         on the PR 2 (enron) and PR 5 (skewed-label) join workloads, \
         equivalence-gated (canonical tables and device counters \
         bit-identical across arms), min-of-reps join wall; \
         plus a traced service-layer pass over the exporters and the \
         flight recorder",
        opts,
    );
    report.param("max_overhead", max_overhead);
    report.param("reps", REPS);

    // Per workload and arm: min-of-REPS join wall per query (summed).
    // Every run of a query — each repetition, in each arm — is held to the
    // first one's canonical table, device-counter delta and guard outcome.
    // Guard-tripped runs (intermediate-rows cap, like the PR 2 harness
    // tolerates) stay in the workload — they must abort identically.
    type RunFingerprint = (Vec<Vec<u32>>, StatsSnapshot, bool);
    let arms = [("off", TraceConfig::Off), ("on", TraceConfig::On)];
    for (wname, data, queries) in [
        ("enron", &*enron, &enron_queries),
        ("skewed", &skew, &skew_queries),
    ] {
        let prepared = engine.prepare(data);
        let mut reference: Vec<Option<RunFingerprint>> = vec![None; queries.len()];
        let mut previous_wall: Option<Duration> = None;
        let (mut runs_differ, mut untimed_steps, mut stray_timers) = (0usize, 0usize, 0usize);
        for (aname, trace) in arms {
            let mut wall = Duration::ZERO;
            let (mut span_steps, mut matches, mut aborts) = (0usize, 0usize, 0usize);
            for (q, first) in queries.iter().zip(&mut reference) {
                let mut best = Duration::MAX;
                for rep in 0..REPS {
                    let o = engine
                        .query_with_options(
                            data,
                            &prepared,
                            q,
                            QueryOptions {
                                trace,
                                timeout: Some(opts.timeout()),
                                ..QueryOptions::default()
                            },
                        )
                        .expect("workload patterns are connected");
                    let delta = o.stats.device;
                    best = best.min(o.stats.join_time);
                    if trace.is_on() {
                        span_steps += o.stats.step_times.len();
                        // One timer per executed join iteration: step_rows
                        // records the seed row count plus one entry per
                        // iteration, however early the run stopped.
                        let executed = o.stats.step_rows.len().saturating_sub(1);
                        untimed_steps += (o.stats.step_times.len() != executed) as usize;
                    } else {
                        stray_timers += !o.stats.step_times.is_empty() as usize;
                    }
                    if rep == 0 {
                        matches += o.matches.len();
                        aborts += o.stats.timed_out as usize;
                    }
                    let fp = (o.matches.canonical(), delta, o.stats.timed_out);
                    match first {
                        None => *first = Some(fp),
                        Some(first) => runs_differ += (*first != fp) as usize,
                    }
                }
                wall += best;
            }
            let overhead = previous_wall
                .replace(wall)
                .map(|prev| ratio(wall, prev) - 1.0);
            let mut arm = report.arm(wname, aname);
            arm.put(&JOIN_MS, wall)
                .put(&MATCHES, matches)
                .put(&TIMEOUTS, aborts)
                .put(&SPAN_STEPS, span_steps);
            if let Some(overhead) = overhead {
                arm.put(&OVERHEAD, overhead);
                if max_overhead > 0.0 {
                    report.gate(
                        format!("{wname}/{aname}_join_wall_overhead"),
                        overhead,
                        Cmp::Le,
                        max_overhead,
                    );
                }
            }
        }
        for (gate, violations) in [
            ("every_run_in_every_arm_identical", runs_differ),
            ("on_times_every_executed_join_step", untimed_steps),
            ("off_keeps_no_step_timers", stray_timers),
        ] {
            report.check(format!("{wname}/{gate}"), violations);
        }
    }

    // Service-layer pass: the same enron workload through `GsiService`
    // with tracing On — stage breakdowns must account for end-to-end
    // latency, the exporters must render, and the flight recorder must
    // hold span trees for the slowest queries.
    let service = GsiService::new(ServiceConfig {
        workers: 2,
        trace: TraceConfig::On,
        ..ServiceConfig::default()
    });
    service.register("enron", (*enron).clone());
    let tickets: Vec<_> = enron_queries
        .iter()
        .map(|q| {
            service
                .submit(QueryRequest::new("enron", q.clone()))
                .expect("queue has room")
        })
        .collect();
    let mut max_unaccounted = 0.0f64;
    let mut q_errors: Vec<f64> = Vec::new();
    for ticket in tickets {
        let outcome = ticket.wait().result.expect("query served");
        let lat = outcome.latency.as_secs_f64();
        let sum = outcome.stage_breakdown.total().as_secs_f64();
        max_unaccounted = max_unaccounted.max((lat - sum).abs() / lat.max(1e-9));
        q_errors.extend(outcome.estimation_error);
    }
    // One outlier decides a mean of q-errors; report the median and the
    // outlier itself instead.
    q_errors.sort_by(f64::total_cmp);
    let snap = service.stats();
    let prom = service.export_metrics(MetricFormat::Prometheus);
    let flight_len = service.flight_recorder().len();
    report
        .arm("service", "traced")
        .put(&COMPLETED, snap.completed)
        .put(&UNACCOUNTED, max_unaccounted)
        .put(&FLIGHT_TRACES, flight_len)
        .put(
            &PROM_FAMILIES,
            prom.lines().filter(|l| l.starts_with("# TYPE ")).count(),
        )
        .put(
            &Q_ERROR_P50,
            q_errors
                .get(q_errors.len() / 2)
                .copied()
                .unwrap_or(f64::NAN),
        )
        .put(&Q_ERROR_MAX, q_errors.last().copied().unwrap_or(f64::NAN));
    report.gate(
        "flight_recorder_retains_served_queries",
        flight_len,
        Cmp::Gt,
        0u64,
    );
    report.check(
        "exporter_reflects_the_served_workload",
        !prom.contains(&format!("gsi_queries_completed_total {}", snap.completed)),
    );
    report.finish(out_path)
}

/// High-multiplicity synthetic: a handful of label-0 anchors each fanning
/// out to many label-1 vertices (every B touches exactly two distinct
/// anchors), plus a sparse label-1 ring among the Bs. Join steps that link
/// back to the anchor column see the same `v'` repeated across hundreds of
/// rows — the radix-hash strategy's target shape.
fn multiplicity_graph(scale: f64, seed: u64) -> Graph {
    use gsi::graph::GraphBuilder;
    let n_a = 6usize;
    let n_b = ((1600.0 * scale) as usize).max(240);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00AD_17E5);
    let mut b = GraphBuilder::new();
    let a: Vec<u32> = (0..n_a).map(|_| b.add_vertex(0)).collect();
    let bs: Vec<u32> = (0..n_b).map(|_| b.add_vertex(1)).collect();
    for &vb in &bs {
        let first = rng.random_range(0..n_a);
        let second = (first + 1 + rng.random_range(0..(n_a - 1))) % n_a;
        b.add_edge(a[first], vb, 0);
        b.add_edge(a[second], vb, 0);
    }
    for i in 0..n_b {
        b.add_edge(bs[i], bs[(i + 1) % n_b], 1);
        b.add_edge(bs[i], bs[(i + 7) % n_b], 1);
    }
    b.build()
}

/// The recurring patterns of the multiplicity workload: a fork (two Bs off
/// one anchor — the second extension re-streams the anchor's full fan-out
/// per row) and a wedge (closing a triangle through the anchor — a
/// two-linking-edge step whose second edge repeats the anchor per row).
fn multiplicity_patterns() -> Vec<(&'static str, Graph)> {
    vec![
        ("fork", pattern(&[0, 1, 1], &[(0, 1, 0), (0, 2, 0)])),
        (
            "wedge",
            pattern(&[0, 1, 1], &[(0, 1, 0), (1, 2, 1), (0, 2, 0)]),
        ),
    ]
}

/// PR 7 perf trajectory — columnar execution: the vectorized set-operation
/// kernels against the scalar reference, and the radix-hash join strategy
/// against Prealloc-Combine / two-step on a high-multiplicity workload.
///
/// Three parts, every wall time guarded by a deterministic gate first:
///
/// 1. **Kernel microbenchmark** — a fixed stream of first-edge/intersect
///    operations over synthetic sorted lists (dense-merge, skewed-gallop,
///    and sparse profiles) runs under the scalar and vectorized kernel
///    arms on identical zero-latency devices. Outputs must be
///    bit-identical and the two devices' final counters **exactly equal**
///    (the vectorized kernels are a host-execution optimization only —
///    the modeled device cost is contractually unchanged); then the
///    vectorized arm's min-of-reps wall must clear `min_speedup`.
///    Throughput is reported as Melem/s = streamed work units / join
///    wall seconds / 1e6.
/// 2. **Join strategies** — the fork/wedge patterns on the multiplicity
///    graph under Prealloc-Combine, two-step, radix-hash, and
///    Prealloc-Combine with cost-model promotion (`radix_join_threshold`):
///    canonical tables bit-identical across all four, counters
///    deterministic per cell (`run_twice`), and the radix cells must
///    *cut GLD transactions* vs Prealloc-Combine (the promotion cell
///    proves the threshold actually fired).
/// 3. **Engine-level kernel equivalence** — the same workload under
///    scalar vs vectorized kernels on both backends: all four cells must
///    charge exactly equal device counters and produce bit-identical
///    tables.
///
/// Committed copy: `BENCH_PR7.json`.
pub fn setops(opts: &HarnessOpts, min_speedup: f64, out_path: &str) -> Outcome {
    use gsi::engine::set_ops::{CandidateProbe, SetOpExec};
    use gsi::graph::storage::Neighbors;
    use gsi::signature::CandidateSet;
    use std::borrow::Cow;
    use std::hint::black_box;
    use std::sync::Arc;
    /// Min-of-reps wall time of one sweep over the microbenchmark's ops.
    const SWEEP_MS: Metric = Metric::measured("core.setop_sweep_ms", "ms", Better::Lower);
    const MICRO_GPU_FRIENDLY: &str = "microbench/gpu-friendly";
    const MICRO_NAIVE: &str = "microbench/naive";

    section("Columnar set-op kernels — scalar vs vectorized, plus radix-hash joins");
    let mut report = Report::new(
        "setops",
        "columnar execution: vectorized set-op kernels vs the scalar \
         reference (bit-identical outputs and device counters, wall \
         speedup gated), and the radix-hash join strategy vs \
         Prealloc-Combine / two-step on a high-multiplicity workload \
         (canonical tables bit-identical, radix cells gated on a \
         deterministic GLD cut)",
        opts,
    );

    // ---- Part 1: kernel microbenchmark --------------------------------
    let universe: u32 = 1 << 16;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5E70_0555);
    let n_ops = ((240.0 * opts.scale) as usize).max(48);
    let reps = 5usize;
    struct Op {
        nbrs: Vec<u32>,
        buf: Vec<u32>,
        cand: Vec<u32>,
        row: Vec<u32>,
    }
    let mut make_sorted = |len: usize, span: u32| -> Vec<u32> {
        let base = rng.random_range(0..universe - span);
        let mut v: Vec<u32> = (0..len).map(|_| base + rng.random_range(0..span)).collect();
        v.sort_unstable();
        v
    };
    let ops: Vec<Op> = (0..n_ops)
        .map(|i| {
            // Three density profiles: dense merge, skewed (gallop side),
            // sparse wide-span.
            let (nl, bl, span) = match i % 3 {
                0 => (4096usize, 3000usize, 6000u32),
                1 => (8192, 96, 48000),
                _ => (2048, 2048, 60000),
            };
            let mut cand = make_sorted(nl / 2, span);
            cand.dedup();
            Op {
                nbrs: make_sorted(nl, span),
                buf: make_sorted(bl, span),
                cand,
                row: vec![3, 11, 27],
            }
        })
        .collect();

    // One arm: fresh zero-latency device (both arms charge identical
    // transactions, so any modeled stall would cancel; the wall clock
    // isolates host kernel execution). Probe builds and the output-
    // collecting verification pass stay outside the timed region.
    let mut run_arm = |arm: &str, kernels: SetOpKernels| {
        let gpu = Gpu::new(bench_device(0));
        let probes: Vec<(CandidateProbe, CandidateProbe)> = ops
            .iter()
            .map(|op| {
                let cs = CandidateSet {
                    query_vertex: 0,
                    list: Arc::new(op.cand.clone()),
                };
                (
                    CandidateProbe::build(&gpu, SetOpStrategy::GpuFriendly, universe as usize, &cs),
                    CandidateProbe::build(&gpu, SetOpStrategy::Naive, universe as usize, &cs),
                )
            })
            .collect();
        // One sub-sweep per set-op strategy: the naive strategy's probes
        // are per-element binary searches and per-batch row rereads in
        // *both* kernel arms by contract, so it is timed (and reported)
        // separately from the GPU-friendly strategy the paper's design —
        // and the speedup gate — targets.
        let one_sweep = |strategy: SetOpStrategy, collect: bool| -> Vec<Vec<u32>> {
            let exec = SetOpExec {
                strategy,
                write_cache: true,
                kernels,
            };
            let mut outs = Vec::new();
            for (op, (pg, pn)) in ops.iter().zip(&probes) {
                let nbrs = Neighbors {
                    list: Cow::Borrowed(op.nbrs.as_slice()),
                    in_global: true,
                    ci_offset: 13,
                };
                let probe = match strategy {
                    SetOpStrategy::GpuFriendly => pg,
                    SetOpStrategy::Naive => pn,
                };
                let fe = exec.first_edge(
                    &gpu,
                    &nbrs,
                    &op.row,
                    probe,
                    Some((5, op.row.len())),
                    Some(64),
                    true,
                    None,
                );
                let ix = exec.intersect(&gpu, &op.buf, Some(32), &nbrs, Some(64), true, None);
                if collect {
                    outs.push(fe);
                    outs.push(ix);
                } else {
                    black_box((fe, ix));
                }
            }
            outs
        };
        let mut outputs = Vec::new();
        let mut walls = Vec::new();
        let mut elems = Vec::new();
        for (strategy, scope) in [
            (SetOpStrategy::GpuFriendly, MICRO_GPU_FRIENDLY),
            (SetOpStrategy::Naive, MICRO_NAIVE),
        ] {
            outputs.extend(one_sweep(strategy, true)); // warm-up + equivalence
            let work0 = gpu.stats().snapshot().work_units;
            let mut best = Duration::MAX;
            for _ in 0..reps {
                let t0 = Instant::now();
                one_sweep(strategy, false);
                best = best.min(t0.elapsed());
            }
            let per_sweep = (gpu.stats().snapshot().work_units - work0) / reps as u64;
            report
                .arm(scope, arm)
                .put(&SWEEP_MS, best)
                .put(&DEVICE_WORK, per_sweep)
                .put(&MELEM_PER_S, melem_per_s(per_sweep, best));
            walls.push(best);
            elems.push(per_sweep);
        }
        (outputs, walls, elems, gpu.stats().snapshot())
    };

    let (s_out, s_walls, s_elems, s_snap) = run_arm("scalar", SetOpKernels::Scalar);
    let (v_out, v_walls, v_elems, v_snap) = run_arm("vectorized", SetOpKernels::Vectorized);
    report.param("microbench.ops", n_ops);
    report.check("microbench/outputs_bit_identical", s_out != v_out);
    report.check("microbench/device_counters_equal", s_snap != v_snap);
    report.check("microbench/work_per_sweep_equal", s_elems != v_elems);
    // The naive strategy is an ablation; the speedup bar is on the
    // GPU-friendly strategy the paper's design targets. It is a
    // measurement, noisy on shared CI runners; pass `--min-speedup 0` to
    // keep only the deterministic gates.
    let speedups = [0, 1].map(|si| ratio(s_walls[si], v_walls[si]));
    report
        .arm(MICRO_GPU_FRIENDLY, "vectorized")
        .put(&SPEEDUP, speedups[0]);
    report
        .arm(MICRO_NAIVE, "vectorized")
        .put(&SPEEDUP, speedups[1]);
    report.gate(
        "microbench/kernel_wall_speedup",
        speedups[0],
        Cmp::Ge,
        min_speedup,
    );

    // ---- Part 2: join strategies on the multiplicity workload ---------
    let data = multiplicity_graph(opts.scale, opts.seed);
    println!(
        "dataset: high-multiplicity synthetic, {}",
        statistics(&data)
    );
    let patterns = multiplicity_patterns();
    let cells: [(&str, JoinScheme, Option<f64>); 4] = [
        ("prealloc", JoinScheme::PreallocCombine, None),
        ("two-step", JoinScheme::TwoStep, None),
        ("radix-hash", JoinScheme::RadixHash, None),
        ("prealloc+radix", JoinScheme::PreallocCombine, Some(8.0)),
    ];
    let mut reference: Option<Vec<Vec<u32>>> = None;
    let [prealloc_gld, _, radix_gld, promoted_gld] = cells.map(|(name, scheme, threshold)| {
        let engine = bench_engine(
            GsiConfig {
                join_scheme: scheme,
                radix_join_threshold: threshold,
                ..GsiConfig::gsi_opt()
            }
            .with_planner(PlannerKind::CostBased),
            100,
        );
        let prepared = engine.prepare(&data);
        let mut total = RunStats::default();
        let mut canon_all: Vec<Vec<u32>> = Vec::new();
        for (pname, q) in &patterns {
            let scope = format!("multiplicity/{pname}");
            let opts = QueryOptions::default();
            let out = run_twice(
                &mut report,
                (&scope, name),
                &engine,
                (&data, &prepared),
                q,
                opts,
            );
            total.accumulate(&out.stats);
            canon_all.extend(out.matches.canonical());
        }
        match &reference {
            None => reference = Some(canon_all),
            Some(expect) => {
                report.check(
                    format!("{name}/canonical_tables_equal_prealloc"),
                    canon_all != *expect,
                );
            }
        }
        report.arm("multiplicity", name).run(&total).put(
            &MELEM_PER_S,
            melem_per_s(total.join_work_units, total.join_time),
        );
        total.gld()
    });
    // Deterministic radix gates: the restructured step must cut GLD
    // transactions, and the promotion cell proves the threshold fired.
    report.gate(
        "radix_hash_cuts_gld_vs_prealloc",
        radix_gld,
        Cmp::Lt,
        prealloc_gld,
    );
    report.gate(
        "cost_model_promotion_fires_and_cuts_gld",
        promoted_gld,
        Cmp::Lt,
        prealloc_gld,
    );

    // ---- Part 3: engine-level kernel equivalence ----------------------
    let mut first_cell: Option<(StatsSnapshot, Vec<Vec<u32>>)> = None;
    for (kname, kernels) in [
        ("scalar", SetOpKernels::Scalar),
        ("vectorized", SetOpKernels::Vectorized),
    ] {
        for (bname, backend, threads) in [
            ("serial", BackendKind::Serial, 0usize),
            ("host-parallel", BackendKind::HostParallel, 3),
        ] {
            let cell = format!("{kname}/{bname}");
            let engine = bench_engine(
                GsiConfig {
                    set_op_kernels: kernels,
                    ..GsiConfig::gsi_opt()
                }
                .with_backend(backend, threads),
                0,
            );
            let prepared = engine.prepare(&data);
            let mut wall = Duration::ZERO;
            let mut canon_all: Vec<Vec<u32>> = Vec::new();
            let mut delta = StatsSnapshot::default();
            for (_, q) in &patterns {
                let out = engine
                    .query(&data, &prepared, q)
                    .expect("multiplicity patterns are connected");
                wall += out.stats.join_time;
                delta = delta + out.stats.device;
                canon_all.extend(out.matches.canonical());
            }
            report
                .arm("engine-cells", &cell)
                .put(&JOIN_MS, wall)
                .put(&GLD, delta.gld_transactions)
                .put(&GST, delta.gst_transactions)
                .put(&KERNELS, delta.kernel_launches)
                .put(&DEVICE_WORK, delta.work_units);
            match &first_cell {
                None => first_cell = Some((delta, canon_all)),
                Some((snap, tables)) => {
                    report.check(
                        format!("{cell}/counters_and_tables_equal_scalar_serial"),
                        (delta != *snap) as usize + (canon_all != *tables) as usize,
                    );
                }
            }
        }
    }
    report.finish(out_path)
}

/// Entry point of one paper table or figure.
pub type PaperExperiment = fn(&HarnessOpts);

/// The paper's own tables and figures, in paper order (console only).
pub const PAPER: [(&str, PaperExperiment); 14] = [
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("table7", table7),
    ("table8", table8),
    ("table9", table9),
    ("table10", table10),
    ("table11", table11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
];

/// Run every paper experiment in order.
pub fn all(opts: &HarnessOpts) {
    for (_, run) in PAPER {
        run(opts);
    }
}
