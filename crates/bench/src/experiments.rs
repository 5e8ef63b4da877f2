//! One function per table and figure of the paper's evaluation (§VII).
//!
//! Every function prints the same rows/series the paper reports, measured on
//! the simulated-GPU substrate at the harness scale. Absolute numbers differ
//! from the Titan XP testbed; the *shape* (who wins, by what factor, where
//! crossovers fall) is the reproduction target — EXPERIMENTS.md records the
//! paper-vs-measured comparison.

use crate::fmt::{drop_pct, human, ms, speedup, Table};
use crate::runner::{
    run_cpu_baseline, run_edge_baseline, run_gsi, run_gsi_filter_only, CpuBaseline,
};
use crate::workloads::{gowalla_with_labels, watdiv_series, HarnessOpts};
use gsi::baselines::{gpsm, gunrock};
use gsi::datasets::{statistics, DatasetKind};
use gsi::graph::basic::BasicStore;
use gsi::graph::compressed::CompressedStore;
use gsi::graph::csr::Csr;
use gsi::graph::pcsr::MultiPcsr;
use gsi::graph::LabeledStore;
use gsi::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Render an engine cell: mean over completed queries, annotated with the
/// number of timeouts ("12ms (+2T)"), or ">limit" when everything timed out.
fn time_cell(agg: &crate::runner::Aggregate, limit: std::time::Duration) -> String {
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
    let stores: Vec<(&str, Box<dyn LabeledStore>)> = vec![
        ("CSR", Box::new(Csr::build(&data))),
        ("BR", Box::new(BasicStore::build(&data))),
        ("CR", Box::new(CompressedStore::build(&data))),
        ("PCSR", Box::new(MultiPcsr::build(&data))),
    ];

    let mut t = Table::new(vec![
        "structure",
        "avg GLD/op",
        "time/2k ops",
        "space (MB)",
        "paper complexity",
    ]);
    for (name, store) in &stores {
        gpu.reset_stats();
        let t0 = std::time::Instant::now();
        let mut total_len = 0usize;
        for &(v, l) in &samples {
            let n = store.neighbors_with_label(&gpu, v, l);
            n.for_each_batch(&gpu, |b| total_len += b.len());
        }
        let elapsed = t0.elapsed();
        let gld = gpu.stats().snapshot().gld_transactions as f64 / samples.len() as f64;
        let complexity = match *name {
            "CSR" => "O(|N(v)|), O(|E|)",
            "BR" => "O(1), O(|E|+|LE||V|)",
            "CR" => "O(log|V(G,l)|), O(|E|)",
            _ => "O(1), O(|E|)",
        };
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
/// GpSM, GunrockSM (GSM) and GSI filters.
pub fn table4(opts: &HarnessOpts) {
    section("Table IV — filtering strategies: minimum |C(u)| and time (ms)");
    let mut t = Table::new(vec![
        "dataset", "GpSM |C|", "GSM |C|", "GSI |C|", "GpSM ms", "GSM ms", "GSI ms",
    ]);
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

/// Table VI: the join-phase technique ladder — GLD and time for GSI-, +DS,
/// +PC, +SO.
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
    for kind in DatasetKind::ALL {
        let data = opts.dataset(kind);
        let queries = opts.query_batch(&data);
        let base = run_gsi(&GsiConfig::gsi_base(), &data, &queries, opts);
        let ds = run_gsi(&GsiConfig::gsi_ds(), &data, &queries, opts);
        let pc = run_gsi(&GsiConfig::gsi_pc(), &data, &queries, opts);
        let so = run_gsi(&GsiConfig::gsi(), &data, &queries, opts);
        join_t.row(vec![
            kind.name().to_string(),
            ms(base.avg_join_time()),
            ms(ds.avg_join_time()),
            speedup(base.avg_join_time(), ds.avg_join_time()),
            ms(pc.avg_join_time()),
            speedup(ds.avg_join_time(), pc.avg_join_time()),
            ms(so.avg_join_time()),
            speedup(pc.avg_join_time(), so.avg_join_time()),
        ]);
        gld_t.row(vec![
            kind.name().to_string(),
            human(base.avg_join_gld()),
            human(ds.avg_join_gld()),
            drop_pct(base.avg_join_gld(), ds.avg_join_gld()),
            human(pc.avg_join_gld()),
            drop_pct(ds.avg_join_gld(), pc.avg_join_gld()),
            human(so.avg_join_gld()),
            drop_pct(pc.avg_join_gld(), so.avg_join_gld()),
        ]);
        time_t.row(vec![
            kind.name().to_string(),
            ms(base.avg_time()),
            ms(ds.avg_time()),
            speedup(base.avg_time(), ds.avg_time()),
            ms(pc.avg_time()),
            speedup(ds.avg_time(), pc.avg_time()),
            ms(so.avg_time()),
            speedup(pc.avg_time(), so.avg_time()),
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
        let dt = |a: std::time::Duration, b: std::time::Duration| {
            if a.as_nanos() == 0 {
                "-".to_string()
            } else {
                format!(
                    "{:.0}%",
                    100.0 * (a.saturating_sub(b)).as_secs_f64() / a.as_secs_f64()
                )
            }
        };
        t.row(vec![
            kind.name().to_string(),
            human(uncached.avg_join_gst()),
            human(cached.avg_join_gst()),
            drop_pct(uncached.avg_join_gst(), cached.avg_join_gst()),
            ms(uncached.avg_time()),
            ms(cached.avg_time()),
            dt(uncached.avg_time(), cached.avg_time()),
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
        t.row(vec![
            kind.name().to_string(),
            ms(gsi.avg_time()),
            ms(lb.avg_time()),
            speedup(gsi.avg_time(), lb.avg_time()),
            ms(dr.avg_time()),
            speedup(lb.avg_time(), dr.avg_time()),
        ]);
    }
    t.print();
    println!("(paper: LB ≥2.7x on WatDiv/DBpedia, 1.0x on small sets; DR 1.1-1.3x)");
}

/// Table IX: tuning W1 on WatDiv.
pub fn table9(opts: &HarnessOpts) {
    section("Table IX — tuning W1 (load balance, W3=256) on WatDiv");
    let data = opts.dataset(DatasetKind::WatDiv);
    let queries = opts.query_batch(&data);
    let mut t = Table::new(vec!["W1", "time (ms)"]);
    for w1 in [2048usize, 3072, 4096, 5120, 6144] {
        let cfg = GsiConfig {
            load_balance: Some(LbParams {
                w1,
                w2: 1024,
                w3: 256,
            }),
            ..GsiConfig::gsi_opt()
        };
        let agg = run_gsi(&cfg, &data, &queries, opts);
        t.row(vec![w1.to_string(), ms(agg.avg_time())]);
    }
    t.print();
    println!("(paper: 2.00K, 1.44K, 1.30K, 2.51K, 3.73K — minimum at 4096)");
}

/// Table X: tuning W3 on WatDiv.
pub fn table10(opts: &HarnessOpts) {
    section("Table X — tuning W3 (load balance, W1=4096) on WatDiv");
    let data = opts.dataset(DatasetKind::WatDiv);
    let queries = opts.query_batch(&data);
    let mut t = Table::new(vec!["W3", "time (ms)"]);
    for w3 in [192usize, 224, 256, 288, 320] {
        let cfg = GsiConfig {
            load_balance: Some(LbParams {
                w1: 4096,
                w2: 1024,
                w3,
            }),
            ..GsiConfig::gsi_opt()
        };
        let agg = run_gsi(&cfg, &data, &queries, opts);
        t.row(vec![w3.to_string(), ms(agg.avg_time())]);
    }
    t.print();
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
        t.row(vec![
            kind.name().to_string(),
            human(with_dup.avg_join_gld()),
            human(dedup.avg_join_gld()),
            drop_pct(with_dup.avg_join_gld(), dedup.avg_join_gld()),
            ms(with_dup.avg_time()),
            ms(dedup.avg_time()),
        ]);
    }
    t.print();
    println!("(paper: 3-23% GLD drop; up to 17% time drop on WatDiv)");
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
        let cell = |agg: &crate::runner::Aggregate| time_cell(agg, opts.cpu_timeout());
        let gcell = |agg: &crate::runner::Aggregate| time_cell(agg, opts.timeout());
        let vf3 = run_cpu_baseline(CpuBaseline::Vf3, &data, &queries, opts);
        let cfl = run_cpu_baseline(CpuBaseline::Cfl, &data, &queries, opts);
        let gp = run_edge_baseline(
            &gpsm::engine(Gpu::new(DeviceConfig::titan_xp())),
            &data,
            &queries,
            opts,
        );
        let gk = run_edge_baseline(
            &gunrock::engine(Gpu::new(DeviceConfig::titan_xp())),
            &data,
            &queries,
            opts,
        );
        let gsi = run_gsi(&GsiConfig::gsi(), &data, &queries, opts);
        let gsi_opt = run_gsi(&GsiConfig::gsi_opt(), &data, &queries, opts);
        t.row(vec![
            kind.name().to_string(),
            cell(&vf3),
            cell(&cfl),
            gcell(&gp),
            gcell(&gk),
            gcell(&gsi),
            gcell(&gsi_opt),
        ]);
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
        let gp = run_edge_baseline(
            &gpsm::engine(Gpu::new(DeviceConfig::titan_xp())),
            data,
            &queries,
            opts,
        );
        let gk = run_edge_baseline(
            &gunrock::engine(Gpu::new(DeviceConfig::titan_xp())),
            data,
            &queries,
            opts,
        );
        let gsi = run_gsi(&GsiConfig::gsi(), data, &queries, opts);
        let gsi_opt = run_gsi(&GsiConfig::gsi_opt(), data, &queries, opts);
        let cell = |agg: &crate::runner::Aggregate| time_cell(agg, opts.timeout());
        t.row(vec![
            name.clone(),
            human(data.n_edges() as u64),
            cell(&gp),
            cell(&gk),
            cell(&gsi),
            cell(&gsi_opt),
        ]);
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

    // The paper sweeps |E(Q)| up to 26 on real gowalla (clustered core);
    // the synthetic stand-in's 12-vertex regions top out around 16 internal
    // edges, so the sweep covers the feasible range and reports n/a beyond.
    println!("\nvary |E(Q)| at |V(Q)| = 12 (paper range 12..26; stand-in saturates ~16):");
    let mut t = Table::new(vec!["|E(Q)|", "time (ms)", "queries"]);
    for ne in [11usize, 12, 13, 14, 15, 16, 20, 26] {
        let queries = opts.shaped_query_batch(&data, 12, ne);
        if queries.is_empty() {
            t.row(vec![ne.to_string(), "n/a".into(), "0".into()]);
            continue;
        }
        let agg = run_gsi(&GsiConfig::gsi_opt(), &data, &queries, opts);
        t.row(vec![
            ne.to_string(),
            ms(agg.avg_time()),
            queries.len().to_string(),
        ]);
    }
    t.print();

    println!("\nvary |V(Q)| at |E(Q)| = ~1.25|V(Q)| (paper used 2|V|; see note above):");
    let mut t = Table::new(vec!["|V(Q)|", "time (ms)", "queries"]);
    for nv in [8usize, 9, 10, 11, 12, 13, 14, 15] {
        let queries = opts.shaped_query_batch(&data, nv, nv + nv / 4);
        if queries.is_empty() {
            t.row(vec![nv.to_string(), "n/a".into(), "0".into()]);
            continue;
        }
        let agg = run_gsi(&GsiConfig::gsi_opt(), &data, &queries, opts);
        t.row(vec![
            nv.to_string(),
            ms(agg.avg_time()),
            queries.len().to_string(),
        ]);
    }
    t.print();
    println!("(paper: edge growth is cheap, slight drop past 24; vertex growth raises time, flattening past 13)");
}

/// PR 2 perf trajectory — serial vs `HostParallel` execution backend on the
/// join workload (not part of the paper; the repo's own scaling series).
///
/// Both runs use an identical device with one *simulator* worker thread
/// (so the legacy opportunistic threading inside `launch_blocks` cannot
/// blur the comparison) and the memory-latency model enabled at
/// `latency_ns` per streamed element — the regime where a real GPU's SMs
/// earn their parallelism by hiding latency, and where the `HostParallel`
/// backend's overlapping workers show real wall-clock speedup even on a
/// single-core host. Verifies the backends' device counters and match
/// counts are *exactly* equal, then writes the measurements to `out_path`
/// (`BENCH_PR2.json`).
pub fn backend(opts: &HarnessOpts, threads: usize, latency_ns: u64, out_path: &str) {
    use crate::report::JsonObj;
    use crate::runner::run_gsi_on_device;

    section(&format!(
        "Backend scaling — serial vs host-parallel join execution ({threads} threads)"
    ));
    let data = opts.dataset(DatasetKind::Enron);
    println!("dataset: enron stand-in, {}", statistics(&data));
    let queries = opts.query_batch(&data);
    let device = DeviceConfig {
        worker_threads: 1,
        stream_latency_ns: latency_ns,
        ..DeviceConfig::titan_xp()
    };
    let cfg = GsiConfig::gsi_opt();

    let serial = run_gsi_on_device(&cfg, device.clone(), &data, &queries, opts);
    let parallel = run_gsi_on_device(
        &cfg.clone().with_backend(BackendKind::HostParallel, threads),
        device.clone(),
        &data,
        &queries,
        opts,
    );

    // The parallel backend must be *indistinguishable* on everything the
    // simulator measures — only wall clock may move.
    let exact = serial.matches == parallel.matches
        && serial.gld == parallel.gld
        && serial.gst == parallel.gst
        && serial.kernels == parallel.kernels
        && serial.allocs == parallel.allocs
        && serial.join_work_units == parallel.join_work_units;
    assert!(
        exact,
        "parallel backend diverged: {serial:?} vs {parallel:?}"
    );

    let mut t = Table::new(vec![
        "backend", "join", "total", "GLD", "GST", "work", "span", "matches",
    ]);
    for (name, agg) in [("serial", &serial), ("host-parallel", &parallel)] {
        t.row(vec![
            name.to_string(),
            ms(agg.join_time),
            ms(agg.total_time),
            human(agg.join_gld),
            human(agg.join_gst),
            human(agg.join_work_units),
            human(agg.join_span_units),
            agg.matches.to_string(),
        ]);
    }
    t.print();

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let schedule_speedup = serial.join_span_units as f64 / parallel.join_span_units.max(1) as f64;
    println!(
        "join wall speedup: {}   schedule (work/span) speedup: {:.2}x   host cores: {}",
        speedup(serial.join_time, parallel.join_time),
        schedule_speedup,
        host_cores
    );
    println!("device counters: exactly equal across backends");

    let agg_obj = |agg: &crate::runner::Aggregate| {
        JsonObj::new()
            .f64("join_wall_ms", agg.join_time.as_secs_f64() * 1e3)
            .f64("total_wall_ms", agg.total_time.as_secs_f64() * 1e3)
            .u64("join_gld", agg.join_gld)
            .u64("join_gst", agg.join_gst)
            .u64("kernels", agg.kernels)
            .u64("allocs", agg.allocs)
            .u64("work_units", agg.join_work_units)
            .u64("span_units", agg.join_span_units)
            .u64("matches", agg.matches as u64)
            .u64("timeouts", agg.timeouts as u64)
    };
    let report = JsonObj::new()
        .u64("pr", 2)
        .str("experiment", "backend-scaling")
        .str(
            "description",
            "serial vs HostParallel join execution backend, identical device, \
             memory-latency model enabled",
        )
        .str("dataset", "enron")
        .f64("scale", opts.scale)
        .u64("queries", queries.len() as u64)
        .u64("query_size", opts.query_size as u64)
        .u64("seed", opts.seed)
        .u64("threads", threads as u64)
        .u64("host_cores", host_cores as u64)
        .obj(
            "device",
            JsonObj::new()
                .u64("worker_threads", 1)
                .u64("stream_latency_ns_per_element", latency_ns),
        )
        .obj("serial", agg_obj(&serial))
        .obj("host_parallel", agg_obj(&parallel))
        .bool("counters_exactly_equal", exact)
        .obj(
            "speedup",
            JsonObj::new()
                .f64(
                    "join_wall",
                    serial.join_time.as_secs_f64() / parallel.join_time.as_secs_f64().max(1e-12),
                )
                .f64(
                    "total_wall",
                    serial.total_time.as_secs_f64() / parallel.total_time.as_secs_f64().max(1e-12),
                )
                .f64("schedule_work_over_span", schedule_speedup),
        );
    report.write(out_path).expect("write bench report");
    println!("wrote {out_path}");
}

/// PR 3 perf trajectory — dynamic update churn: interleaved mutation
/// batches and queries on an evolving graph, incremental re-prepare
/// (`PreparedData::apply_updates`: PCSR layer splices + touched-vertex
/// signature refresh) vs a cold `prepare_shared` rebuild of the mutated
/// graph (not part of the paper; the repo's own serving trajectory).
///
/// Each round mutates a couple of "hot" edge labels — the delta-locality
/// regime PCSR's layer partitioning was built for — then runs the query
/// batch against *both* preparations, asserting bit-identical match tables
/// and exact device-ledger counters before trusting either wall time.
/// Writes the measurements to `out_path` (`BENCH_PR3.json`).
pub fn update_churn(opts: &HarnessOpts, rounds: usize, batch_size: usize, out_path: &str) {
    use crate::report::JsonObj;
    use gsi::graph::update::UpdateBatch;
    use std::collections::BTreeSet;
    use std::time::{Duration, Instant};

    section(&format!(
        "Update churn — incremental re-prepare vs full rebuild ({rounds} rounds × {batch_size} ops)"
    ));
    let n_elabels = 8usize;
    let mut g = gowalla_with_labels(opts, 4, n_elabels);
    println!(
        "dataset: gowalla stand-in ({n_elabels} edge labels), {}",
        statistics(&g)
    );
    let engine = GsiEngine::with_gpu(
        GsiConfig::gsi_opt(),
        Gpu::new(DeviceConfig {
            worker_threads: 1,
            ..DeviceConfig::titan_xp()
        }),
    );
    let mut prepared = engine.prepare(&g);
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let mut t_inc_total = Duration::ZERO;
    let mut t_rebuild_total = Duration::ZERO;
    let mut layers_spliced = 0usize;
    let mut layers_rebuilt = 0usize;
    let mut sigs_refreshed = 0usize;
    let mut queries_checked = 0usize;
    let mut matches_total = 0usize;
    let mut equivalent = true;

    let mut t = Table::new(vec![
        "round",
        "ops",
        "incremental",
        "rebuild",
        "speedup",
        "spliced",
        "rebuilt",
        "queries",
    ]);
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
        let mut deg: std::collections::HashMap<(u32, u32), usize> = Default::default();
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
        let (updated, inc, report) = engine
            .apply_updates(&g, &prepared, &batch)
            .expect("generated batch is valid");
        let t_inc = t0.elapsed();

        // Rebuild path: cold offline phase on the already-mutated graph.
        let t0 = Instant::now();
        let cold = engine.prepare_shared(&updated);
        let t_rebuild = t0.elapsed();

        let store_report = report.store.as_ref().expect("pcsr storage");
        let spliced = store_report.spliced();
        let rebuilt = store_report.rebuilt();
        layers_spliced += spliced;
        layers_rebuilt += rebuilt;
        sigs_refreshed += report.signatures_refreshed.unwrap_or(0);

        // Interleaved queries, against both preparations: equivalence gate.
        let queries = opts.query_batch(&updated);
        for q in &queries {
            let snap0 = engine.gpu().stats().snapshot();
            let a = engine
                .query_with_timeout(&updated, &inc, q, Some(opts.timeout()))
                .expect("plans");
            let snap1 = engine.gpu().stats().snapshot();
            let b = engine
                .query_with_timeout(&updated, &cold, q, Some(opts.timeout()))
                .expect("plans");
            let snap2 = engine.gpu().stats().snapshot();
            equivalent &= a.matches.table == b.matches.table && snap1 - snap0 == snap2 - snap1;
            matches_total += a.matches.len();
            queries_checked += 1;
        }

        t.row(vec![
            round.to_string(),
            batch.len().to_string(),
            ms(t_inc),
            ms(t_rebuild),
            speedup(t_rebuild, t_inc),
            spliced.to_string(),
            rebuilt.to_string(),
            queries.len().to_string(),
        ]);
        t_inc_total += t_inc;
        t_rebuild_total += t_rebuild;
        g = updated;
        prepared = inc;
    }
    t.print();
    assert!(
        equivalent,
        "incremental re-prepare diverged from cold rebuild"
    );
    println!(
        "re-prepare wall: incremental {} vs rebuild {} ({})   layers: {} spliced / {} rebuilt   sigs refreshed: {}",
        ms(t_inc_total),
        ms(t_rebuild_total),
        speedup(t_rebuild_total, t_inc_total),
        layers_spliced,
        layers_rebuilt,
        sigs_refreshed
    );
    println!(
        "equivalence: tables bit-identical, device counters exact over {queries_checked} queries"
    );

    let report = JsonObj::new()
        .u64("pr", 3)
        .str("experiment", "update-churn")
        .str(
            "description",
            "interleaved mutation batches + queries on an evolving graph: \
             incremental PreparedData::apply_updates vs cold prepare_shared \
             rebuild, equivalence-gated",
        )
        .str("dataset", "gowalla")
        .f64("scale", opts.scale)
        .u64("edge_labels", n_elabels as u64)
        .u64("rounds", rounds as u64)
        .u64("batch_size", batch_size as u64)
        .u64("query_size", opts.query_size as u64)
        .u64("seed", opts.seed)
        .obj(
            "incremental",
            JsonObj::new()
                .f64("reprepare_wall_ms", t_inc_total.as_secs_f64() * 1e3)
                .u64("layers_spliced", layers_spliced as u64)
                .u64("layers_rebuilt", layers_rebuilt as u64)
                .u64("signatures_refreshed", sigs_refreshed as u64),
        )
        .obj(
            "rebuild",
            JsonObj::new().f64("reprepare_wall_ms", t_rebuild_total.as_secs_f64() * 1e3),
        )
        .obj(
            "speedup",
            JsonObj::new().f64(
                "reprepare_wall",
                t_rebuild_total.as_secs_f64() / t_inc_total.as_secs_f64().max(1e-12),
            ),
        )
        .obj(
            "equivalence",
            JsonObj::new()
                .bool("tables_bit_identical_and_counters_exact", equivalent)
                .u64("queries_checked", queries_checked as u64)
                .u64("matches_total", matches_total as u64),
        );
    report.write(out_path).expect("write bench report");
    println!("wrote {out_path}");
}

/// PR 4 perf trajectory — inter-query batched execution: a batch of
/// concurrent same-graph queries drawn from a small recurring-pattern pool
/// (the shape real serving workloads have), run once per query through
/// `GsiEngine::query_with_options` and once as a single
/// `GsiEngine::query_batch` with shared candidate filtering (not part of
/// the paper; the repo's own serving trajectory).
///
/// Every concurrency level is equivalence-gated before its wall times are
/// trusted: per-query match tables must be bit-identical, per-query join
/// work exactly equal, and the batch's total device transactions no more
/// than the solo runs' (sharing can only remove filter passes). Writes the
/// measurements to `out_path` (`BENCH_PR4.json`); the 16-query level must
/// clear the `min_speedup_at_16` bar.
pub fn batch_queries(opts: &HarnessOpts, pool: usize, min_speedup_at_16: f64, out_path: &str) {
    use crate::report::JsonObj;
    use gsi::engine::BatchItem;
    use std::time::Instant;

    section(&format!(
        "Batched execution — shared candidate filtering, {pool}-pattern pool"
    ));
    let data = opts.dataset(DatasetKind::Gowalla);
    println!("dataset: gowalla stand-in, {}", statistics(&data));
    // The intermediate-row guard keeps every pool pattern's join bounded.
    // It trips on row *count* — deterministic, identical for solo and
    // batched execution — unlike a wall-clock timeout, which would break
    // the bit-identical equivalence gate.
    let engine = GsiEngine::with_gpu(
        GsiConfig {
            max_intermediate_rows: 10_000,
            ..GsiConfig::gsi_opt()
        },
        Gpu::new(DeviceConfig {
            worker_threads: 1,
            ..DeviceConfig::titan_xp()
        }),
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

    let mut t = Table::new(vec![
        "concurrency",
        "solo wall",
        "batch wall",
        "speedup",
        "reuse rate",
        "matches",
    ]);
    let mut levels = Vec::new();
    let mut speedup_at_16 = 0.0f64;
    for &c in &[8usize, 16, 32] {
        let workload: Vec<&Graph> = (0..c).map(|i| &patterns[i % pool]).collect();

        // Per-query serial reference: each query pays its own filtering.
        let snap0 = engine.gpu().stats().snapshot();
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
        let solo_device = engine.gpu().stats().snapshot() - snap0;

        // Batched: one engine call, filtering shared per distinct demand.
        let snap1 = engine.gpu().stats().snapshot();
        let t0 = Instant::now();
        let items: Vec<BatchItem<'_>> = workload.iter().map(|q| BatchItem::new(q)).collect();
        let batch = engine.query_batch(&data, &prepared, &items);
        let t_batch = t0.elapsed();
        let batch_device = engine.gpu().stats().snapshot() - snap1;

        // Equivalence gate: bit-identical tables, identical join work,
        // and no extra device transactions from batching.
        let mut matches_total = 0usize;
        for (i, (b, s)) in batch.results.iter().zip(&solo).enumerate() {
            let b = b.as_ref().expect("solo run planned the same query");
            assert_eq!(
                b.matches.table, s.matches.table,
                "c={c} query {i}: batched table diverged"
            );
            assert_eq!(
                b.stats.join_work_units, s.stats.join_work_units,
                "c={c} query {i}: join work diverged"
            );
            matches_total += b.matches.len();
        }
        // Deterministic win gates (device-ledger counters, immune to CI
        // timing noise): every repeated demand must actually be shared,
        // and shared passes must remove device work.
        assert!(
            c <= pool || batch.filter_demands_reused > 0,
            "c={c}: a {pool}-pattern pool must produce demand reuse"
        );
        if batch.filter_demands_reused > 0 {
            assert!(
                batch_device.gld_transactions < solo_device.gld_transactions,
                "c={c}: shared filter passes must remove device work \
                 ({} vs {} GLD)",
                batch_device.gld_transactions,
                solo_device.gld_transactions
            );
        } else {
            assert!(
                batch_device.gld_transactions <= solo_device.gld_transactions,
                "c={c}: batching must never add device work"
            );
        }

        let speedup_wall = t_solo.as_secs_f64() / t_batch.as_secs_f64().max(1e-12);
        if c == 16 {
            speedup_at_16 = speedup_wall;
        }
        t.row(vec![
            c.to_string(),
            ms(t_solo),
            ms(t_batch),
            speedup(t_solo, t_batch),
            format!("{:.0}%", batch.filter_reuse_rate() * 100.0),
            matches_total.to_string(),
        ]);
        levels.push((
            c,
            JsonObj::new()
                .u64("concurrency", c as u64)
                .f64("solo_wall_ms", t_solo.as_secs_f64() * 1e3)
                .f64("batch_wall_ms", t_batch.as_secs_f64() * 1e3)
                .f64("speedup_wall", speedup_wall)
                .u64("solo_gld", solo_device.gld_transactions)
                .u64("batch_gld", batch_device.gld_transactions)
                .u64("filter_demands_computed", batch.filter_demands_computed)
                .u64("filter_demands_reused", batch.filter_demands_reused)
                .f64("filter_reuse_rate", batch.filter_reuse_rate())
                .u64("matches", matches_total as u64)
                .bool("equivalent", true),
        ));
    }
    t.print();
    println!("equivalence: tables bit-identical, join work exact, device GLD strictly lower");
    println!("speedup at 16 concurrent queries: {speedup_at_16:.2}x (bar: {min_speedup_at_16}x)");
    // The wall-clock bar is a *measurement*, noisy on shared CI runners;
    // pass `--min-speedup 0` to keep only the deterministic counter gates
    // above and record the speedup as informational.
    assert!(
        speedup_at_16 >= min_speedup_at_16,
        "shared filtering must win >= {min_speedup_at_16}x at 16 concurrent queries \
         (got {speedup_at_16:.2}x)"
    );

    let mut report = JsonObj::new()
        .u64("pr", 4)
        .str("experiment", "batched-execution")
        .str(
            "description",
            "inter-query batched execution with shared candidate filtering vs \
             per-query serial runs, equivalence-gated (bit-identical tables, \
             exact join work)",
        )
        .str("dataset", "gowalla")
        .f64("scale", opts.scale)
        .u64("pattern_pool", pool as u64)
        .u64("query_size", opts.query_size as u64)
        .u64("seed", opts.seed)
        .f64("min_speedup_at_16", min_speedup_at_16)
        .f64("speedup_at_16", speedup_at_16);
    for (c, level) in levels {
        report = report.obj(&format!("level_{c}"), level);
    }
    report.write(out_path).expect("write bench report");
    println!("wrote {out_path}");
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

/// The recurring patterns of the skewed workload. Every pattern contains
/// an anchor vertex whose tiny candidate set baits the greedy seed.
fn skewed_patterns() -> Vec<(&'static str, Graph)> {
    use gsi::graph::GraphBuilder;
    // a(A) -0- b(B) -1- c(C)
    let mut qb = GraphBuilder::new();
    let qa = qb.add_vertex(0);
    let qbv = qb.add_vertex(1);
    let qc = qb.add_vertex(2);
    qb.add_edge(qa, qbv, 0);
    qb.add_edge(qbv, qc, 1);
    let path3 = qb.build();

    // a(A) -0- b(B) -1- c(C) -2- d(D)
    let mut qb = GraphBuilder::new();
    let qa = qb.add_vertex(0);
    let qbv = qb.add_vertex(1);
    let qc = qb.add_vertex(2);
    let qd = qb.add_vertex(3);
    qb.add_edge(qa, qbv, 0);
    qb.add_edge(qbv, qc, 1);
    qb.add_edge(qc, qd, 2);
    let path4 = qb.build();

    // Y-shape: two anchors off one B, which reaches a C.
    let mut qb = GraphBuilder::new();
    let qa1 = qb.add_vertex(0);
    let qa2 = qb.add_vertex(0);
    let qbv = qb.add_vertex(1);
    let qc = qb.add_vertex(2);
    qb.add_edge(qa1, qbv, 0);
    qb.add_edge(qa2, qbv, 0);
    qb.add_edge(qbv, qc, 1);
    let y = qb.build();

    vec![("path3", path3), ("path4", path4), ("fork", y)]
}

/// PR 5 perf trajectory — cost-based join ordering: the same skewed-label
/// workload planned by Algorithm 2's greedy heuristic and by the
/// statistics-driven cost-based optimizer, executed on one engine and one
/// prepared graph (not part of the paper; the repo's own serving
/// trajectory).
///
/// Gates, strongest first: (1) **determinism** — each (pattern, planner)
/// pair runs twice and must charge exactly equal device counters and
/// produce bit-identical tables; (2) **equivalence** — greedy and costed
/// runs must produce bit-identical *canonical* match tables (same rows,
/// vertex-indexed, sorted; the join orders differ by design); (3) the
/// costed orders must win by at least `min_work_ratio` on join work units
/// (deterministic, timing-immune); (4) the join wall-clock win must clear
/// `min_speedup` (a measurement — CI passes 0 and keeps gates 1–3).
/// Writes BENCH_PR5.json.
pub fn optimize(opts: &HarnessOpts, min_speedup: f64, min_work_ratio: f64, out_path: &str) {
    use crate::report::JsonObj;
    use std::time::Duration;

    section("Cost-based join ordering — greedy vs costed on a skewed-label workload");
    let data = skewed_graph(opts.scale, opts.seed);
    println!("dataset: skewed-label synthetic, {}", statistics(&data));
    // The memory-latency model (as in the `backend` experiment) makes the
    // join wall clock track streamed elements — the quantity a real GPU's
    // memory system pays for — instead of host-side fixed overheads that
    // vanish at production scale.
    let engine = GsiEngine::with_gpu(
        GsiConfig::gsi_opt(),
        Gpu::new(DeviceConfig {
            worker_threads: 1,
            stream_latency_ns: 100,
            ..DeviceConfig::titan_xp()
        }),
    );
    let prepared = engine.prepare(&data);
    let patterns = skewed_patterns();

    // One measured, determinism-checked run per (pattern, planner); wall
    // times come from the run's own `stats.join_time` (the warmed-up
    // second repetition is the one kept).
    let run = |q: &Graph, planner: PlannerKind| {
        let mut table = None;
        let mut device = None;
        let mut out = None;
        for rep in 0..2 {
            let snap0 = engine.gpu().stats().snapshot();
            let o = engine
                .query_with_options(
                    &data,
                    &prepared,
                    q,
                    QueryOptions {
                        planner: Some(planner),
                        ..QueryOptions::default()
                    },
                )
                .expect("skewed patterns are connected");
            let delta = engine.gpu().stats().snapshot() - snap0;
            assert!(!o.stats.timed_out, "workload must complete");
            match (&table, &device) {
                (None, None) => {
                    table = Some(o.matches.table.clone());
                    device = Some(delta);
                }
                (Some(t), Some(d)) => {
                    assert_eq!(t, &o.matches.table, "rep {rep}: non-deterministic table");
                    assert_eq!(d, &delta, "rep {rep}: non-deterministic device counters");
                }
                _ => unreachable!(),
            }
            out = Some(o);
        }
        (out.expect("ran"), device.expect("ran"))
    };

    let mut t = Table::new(vec![
        "pattern",
        "matches",
        "greedy work",
        "costed work",
        "ratio",
        "greedy wall",
        "costed wall",
        "spd",
    ]);
    let mut pattern_reports = Vec::new();
    let mut greedy_wall_total = Duration::ZERO;
    let mut costed_wall_total = Duration::ZERO;
    let (mut greedy_work_total, mut costed_work_total) = (0u64, 0u64);
    for (name, q) in &patterns {
        let (g_out, g_dev) = run(q, PlannerKind::Greedy);
        let (c_out, c_dev) = run(q, PlannerKind::CostBased);
        assert_eq!(g_out.planner, PlannerKind::Greedy);
        assert_eq!(c_out.planner, PlannerKind::CostBased);

        // Equivalence gate: identical canonical match tables — the orders
        // (and so the raw column layouts) differ by design.
        assert_eq!(
            g_out.matches.canonical(),
            c_out.matches.canonical(),
            "{name}: planners disagree on the match set"
        );

        let work_ratio =
            g_out.stats.join_work_units as f64 / c_out.stats.join_work_units.max(1) as f64;
        t.row(vec![
            name.to_string(),
            c_out.matches.len().to_string(),
            human(g_out.stats.join_work_units),
            human(c_out.stats.join_work_units),
            format!("{work_ratio:.1}x"),
            ms(g_out.stats.join_time),
            ms(c_out.stats.join_time),
            speedup(g_out.stats.join_time, c_out.stats.join_time),
        ]);
        greedy_wall_total += g_out.stats.join_time;
        costed_wall_total += c_out.stats.join_time;
        greedy_work_total += g_out.stats.join_work_units;
        costed_work_total += c_out.stats.join_work_units;

        let side = |out: &QueryOutput, dev: &gsi::sim::StatsSnapshot| {
            JsonObj::new()
                .f64("join_wall_ms", out.stats.join_time.as_secs_f64() * 1e3)
                .u64("join_work_units", out.stats.join_work_units)
                .u64("gld", dev.gld_transactions)
                .u64(
                    "max_intermediate_rows",
                    out.stats.max_intermediate_rows as u64,
                )
                .u64("matches", out.matches.len() as u64)
                .str("order", &format!("{:?}", out.plan.order))
                .f64("q_error", out.explain.mean_q_error().unwrap_or(f64::NAN))
        };
        pattern_reports.push((
            name.to_string(),
            JsonObj::new()
                .obj("greedy", side(&g_out, &g_dev))
                .obj("costed", side(&c_out, &c_dev))
                .f64("work_ratio", work_ratio)
                .f64(
                    "speedup_wall",
                    g_out.stats.join_time.as_secs_f64()
                        / c_out.stats.join_time.as_secs_f64().max(1e-12),
                )
                .bool("equivalent", true),
        ));
    }
    t.print();

    let work_ratio = greedy_work_total as f64 / costed_work_total.max(1) as f64;
    let wall_speedup = greedy_wall_total.as_secs_f64() / costed_wall_total.as_secs_f64().max(1e-12);
    println!(
        "aggregate join work: greedy {} vs costed {} ({work_ratio:.2}x, deterministic)",
        human(greedy_work_total),
        human(costed_work_total)
    );
    println!(
        "aggregate join wall: greedy {} vs costed {} ({wall_speedup:.2}x, bar {min_speedup}x)",
        ms(greedy_wall_total),
        ms(costed_wall_total)
    );
    println!("equivalence: canonical tables bit-identical, repeated runs charge exact counters");
    assert!(
        work_ratio >= min_work_ratio,
        "cost-based orders must cut join work >= {min_work_ratio}x (got {work_ratio:.2}x)"
    );
    // The wall bar is a measurement, noisy on shared CI runners; pass
    // `--min-speedup 0` to keep only the deterministic gates above.
    assert!(
        wall_speedup >= min_speedup,
        "cost-based orders must win >= {min_speedup}x join wall (got {wall_speedup:.2}x)"
    );

    let mut report = JsonObj::new()
        .u64("pr", 5)
        .str("experiment", "optimize")
        .str(
            "description",
            "statistics-driven cost-based join ordering vs Algorithm 2's greedy \
             heuristic on a skewed-label workload, equivalence-gated (canonical \
             tables bit-identical, device counters deterministic)",
        )
        .str("dataset", "skewed-label synthetic")
        .f64("scale", opts.scale)
        .u64("seed", opts.seed)
        .u64("patterns", patterns.len() as u64)
        .f64("min_speedup", min_speedup)
        .f64("min_work_ratio", min_work_ratio)
        .obj(
            "aggregate",
            JsonObj::new()
                .u64("greedy_join_work_units", greedy_work_total)
                .u64("costed_join_work_units", costed_work_total)
                .f64("work_ratio", work_ratio)
                .f64("greedy_join_wall_ms", greedy_wall_total.as_secs_f64() * 1e3)
                .f64("costed_join_wall_ms", costed_wall_total.as_secs_f64() * 1e3)
                .f64("speedup_join_wall", wall_speedup),
        );
    for (name, obj) in pattern_reports {
        report = report.obj(&name, obj);
    }
    report.write(out_path).expect("write bench report");
    println!("wrote {out_path}");
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
/// pair runs twice and must charge exactly equal device counters and
/// produce bit-identical tables; (2) **equivalence** — all three arms
/// must produce bit-identical *canonical* match tables; (3) the adaptive
/// arm must actually re-plan on at least one pattern; (4) the adaptive
/// orders must win by at least `min_work_ratio` on join work units
/// (deterministic, timing-immune); (5) the join wall-clock win must
/// clear `min_speedup` (a measurement — CI passes 0 and keeps gates
/// 1–4). Writes BENCH_PR8.json.
pub fn adapt(opts: &HarnessOpts, min_speedup: f64, min_work_ratio: f64, out_path: &str) {
    use crate::report::JsonObj;
    use std::time::Duration;

    section("Adaptive mid-query re-planning — stale plans under concept drift");
    let planned_data = correlated_graph(opts.scale, true);
    let served_data = correlated_graph(opts.scale, false);
    println!(
        "dataset: correlated-label synthetic (served), {}",
        statistics(&served_data)
    );
    let make_engine = || {
        GsiEngine::with_gpu(
            GsiConfig::gsi_opt(),
            Gpu::new(DeviceConfig {
                worker_threads: 1,
                stream_latency_ns: 100,
                ..DeviceConfig::titan_xp()
            }),
        )
    };
    let patterns = correlated_patterns();

    // Plan every pattern once on the pre-drift data — the plan-cache
    // contents a serving system would carry across the update.
    let planner_engine = make_engine();
    let planned_prepared = planner_engine.prepare(&planned_data);
    let stale_plans: Vec<JoinPlan> = patterns
        .iter()
        .map(|(_, q)| {
            planner_engine
                .query_with_options(
                    &planned_data,
                    &planned_prepared,
                    q,
                    QueryOptions {
                        planner: Some(PlannerKind::CostBased),
                        ..QueryOptions::default()
                    },
                )
                .expect("patterns are connected")
                .plan
        })
        .collect();

    let engine = make_engine();
    let prepared = engine.prepare(&served_data);

    // One measured, determinism-checked run per (pattern, arm); the
    // warmed-up second repetition is the one kept.
    let run = |q: &Graph, plan: Option<&JoinPlan>, threshold: Option<f64>| {
        let mut table = None;
        let mut device = None;
        let mut out = None;
        for rep in 0..2 {
            let snap0 = engine.gpu().stats().snapshot();
            let o = engine
                .query_with_options(
                    &served_data,
                    &prepared,
                    q,
                    QueryOptions {
                        planner: Some(PlannerKind::CostBased),
                        plan,
                        replan_qerror_threshold: threshold,
                        ..QueryOptions::default()
                    },
                )
                .expect("patterns are connected");
            let delta = engine.gpu().stats().snapshot() - snap0;
            assert!(!o.stats.timed_out, "workload must complete");
            match (&table, &device) {
                (None, None) => {
                    table = Some(o.matches.table.clone());
                    device = Some(delta);
                }
                (Some(t), Some(d)) => {
                    assert_eq!(t, &o.matches.table, "rep {rep}: non-deterministic table");
                    assert_eq!(d, &delta, "rep {rep}: non-deterministic device counters");
                }
                _ => unreachable!(),
            }
            out = Some(o);
        }
        out.expect("ran")
    };

    let mut t = Table::new(vec![
        "pattern",
        "matches",
        "static work",
        "adaptive work",
        "ratio",
        "replans",
        "static wall",
        "adaptive wall",
        "spd",
    ]);
    let mut pattern_reports = Vec::new();
    let mut static_wall_total = Duration::ZERO;
    let mut adaptive_wall_total = Duration::ZERO;
    let (mut static_work_total, mut adaptive_work_total) = (0u64, 0u64);
    let mut total_replans = 0u32;
    for ((name, q), stale) in patterns.iter().zip(&stale_plans) {
        let s_out = run(q, Some(stale), None);
        let a_out = run(q, Some(stale), Some(2.0));
        let f_out = run(q, None, None); // fresh post-drift plan, for context
        assert_eq!(
            s_out.stats.replans, 0,
            "{name}: static arm must not re-plan"
        );
        assert_eq!(
            s_out.plan.order, stale.order,
            "{name}: static replays the cache"
        );

        // Equivalence gate: identical canonical match tables across all
        // three arms — the orders (and column layouts) differ by design.
        let truth = s_out.matches.canonical();
        assert_eq!(
            truth,
            a_out.matches.canonical(),
            "{name}: adaptive run changed the match set"
        );
        assert_eq!(
            truth,
            f_out.matches.canonical(),
            "{name}: fresh plan disagrees on the match set"
        );
        total_replans += a_out.stats.replans;

        let work_ratio =
            s_out.stats.join_work_units as f64 / a_out.stats.join_work_units.max(1) as f64;
        t.row(vec![
            name.to_string(),
            a_out.matches.len().to_string(),
            human(s_out.stats.join_work_units),
            human(a_out.stats.join_work_units),
            format!("{work_ratio:.1}x"),
            a_out.stats.replans.to_string(),
            ms(s_out.stats.join_time),
            ms(a_out.stats.join_time),
            speedup(s_out.stats.join_time, a_out.stats.join_time),
        ]);
        static_wall_total += s_out.stats.join_time;
        adaptive_wall_total += a_out.stats.join_time;
        static_work_total += s_out.stats.join_work_units;
        adaptive_work_total += a_out.stats.join_work_units;

        let side = |out: &QueryOutput| {
            JsonObj::new()
                .f64("join_wall_ms", out.stats.join_time.as_secs_f64() * 1e3)
                .u64("join_work_units", out.stats.join_work_units)
                .u64(
                    "max_intermediate_rows",
                    out.stats.max_intermediate_rows as u64,
                )
                .u64("replans", out.stats.replans as u64)
                .u64("matches", out.matches.len() as u64)
                .str("order", &format!("{:?}", out.plan.order))
                .f64("q_error", out.explain.mean_q_error().unwrap_or(f64::NAN))
        };
        pattern_reports.push((
            name.to_string(),
            JsonObj::new()
                .obj("static_stale", side(&s_out))
                .obj(
                    "adaptive",
                    side(&a_out).f64(
                        "pre_replan_q_error",
                        a_out.pre_replan_q_error.unwrap_or(f64::NAN),
                    ),
                )
                .obj("fresh", side(&f_out))
                .f64("work_ratio", work_ratio)
                .f64(
                    "speedup_wall",
                    s_out.stats.join_time.as_secs_f64()
                        / a_out.stats.join_time.as_secs_f64().max(1e-12),
                )
                .bool("equivalent", true),
        ));
    }
    t.print();

    let work_ratio = static_work_total as f64 / adaptive_work_total.max(1) as f64;
    let wall_speedup =
        static_wall_total.as_secs_f64() / adaptive_wall_total.as_secs_f64().max(1e-12);
    println!(
        "aggregate join work: static {} vs adaptive {} ({work_ratio:.2}x, deterministic)",
        human(static_work_total),
        human(adaptive_work_total)
    );
    println!(
        "aggregate join wall: static {} vs adaptive {} ({wall_speedup:.2}x, bar {min_speedup}x)",
        ms(static_wall_total),
        ms(adaptive_wall_total)
    );
    println!(
        "equivalence: canonical tables bit-identical across static/adaptive/fresh, \
         {total_replans} mid-query re-plans"
    );
    assert!(
        total_replans > 0,
        "the drifted workload must trigger at least one mid-query re-plan"
    );
    assert!(
        work_ratio >= min_work_ratio,
        "adaptive re-planning must cut join work >= {min_work_ratio}x (got {work_ratio:.2}x)"
    );
    // The wall bar is a measurement, noisy on shared CI runners; pass
    // `--min-speedup 0` to keep only the deterministic gates above.
    assert!(
        wall_speedup >= min_speedup,
        "adaptive re-planning must win >= {min_speedup}x join wall (got {wall_speedup:.2}x)"
    );

    let mut report = JsonObj::new()
        .u64("pr", 8)
        .str("experiment", "adapt")
        .str(
            "description",
            "adaptive mid-query re-planning vs replayed stale cost-based plans on a \
             correlated-label workload under concept drift, equivalence-gated \
             (canonical tables bit-identical, device counters deterministic)",
        )
        .str("dataset", "correlated-label synthetic")
        .f64("scale", opts.scale)
        .u64("seed", opts.seed)
        .u64("patterns", patterns.len() as u64)
        .u64("replans", total_replans as u64)
        .f64("replan_qerror_threshold", 2.0)
        .f64("min_speedup", min_speedup)
        .f64("min_work_ratio", min_work_ratio)
        .obj(
            "aggregate",
            JsonObj::new()
                .u64("static_join_work_units", static_work_total)
                .u64("adaptive_join_work_units", adaptive_work_total)
                .f64("work_ratio", work_ratio)
                .f64("static_join_wall_ms", static_wall_total.as_secs_f64() * 1e3)
                .f64(
                    "adaptive_join_wall_ms",
                    adaptive_wall_total.as_secs_f64() * 1e3,
                )
                .f64("speedup_join_wall", wall_speedup),
        );
    for (name, obj) in pattern_reports {
        report = report.obj(&name, obj);
    }
    report.write(out_path).expect("write bench report");
    println!("wrote {out_path}");
}

/// PR 6 perf trajectory — observability overhead: the PR 2 (enron
/// random-walk) and PR 5 (skewed-label) join workloads run in three arms
/// — baseline `QueryOptions::default()`, explicit `TraceConfig::Off`, and
/// `TraceConfig::On` (per-join-step span timing) — asserting match tables
/// and device counters *exactly* equal across all arms before trusting
/// any wall time, then gating the On arm's aggregate join-wall overhead
/// at `max_overhead` (`0` disables the timing gate for noisy CI runners;
/// the counter-equality gates always run). A closing service-layer pass
/// exercises the metrics exporters, stage breakdowns, and the flight
/// recorder end to end. Writes the measurements to `out_path`
/// (`BENCH_PR6.json`).
pub fn observe(opts: &HarnessOpts, max_overhead: f64, out_path: &str) {
    use crate::report::JsonObj;
    use gsi::prelude::{MetricFormat, TraceConfig};
    use gsi::service::{QueryRequest, ServiceConfig};
    use std::time::Duration;

    section("Observability overhead — tracing Off vs On on the PR 2 / PR 5 workloads");
    let engine = GsiEngine::with_gpu(
        GsiConfig::gsi_opt(),
        Gpu::new(DeviceConfig {
            worker_threads: 1,
            stream_latency_ns: 100,
            ..DeviceConfig::titan_xp()
        }),
    );

    let enron = opts.dataset(DatasetKind::Enron);
    let enron_queries = opts.query_batch(&enron);
    let skew = skewed_graph(opts.scale, opts.seed);
    let skew_queries: Vec<Graph> = skewed_patterns().into_iter().map(|(_, q)| q).collect();
    println!(
        "workloads: enron stand-in ({} random walks), skewed-label synthetic ({} patterns)",
        enron_queries.len(),
        skew_queries.len()
    );

    const REPS: usize = 3;
    let arms: [(&str, TraceConfig); 3] = [
        ("baseline", TraceConfig::default()),
        ("off", TraceConfig::Off),
        ("on", TraceConfig::On),
    ];

    // Per workload and arm: min-of-REPS join wall per query (summed), with
    // every repetition's match table and device-counter delta checked
    // identical — tracing must never change what the engine does, only
    // whether it is watched.
    type RunFingerprint = (Vec<Vec<u32>>, gsi::sim::StatsSnapshot, bool);
    let mut t = Table::new(vec!["workload", "baseline", "off", "on", "on/off"]);
    let mut workload_objs = Vec::new();
    let mut gate_failures = Vec::new();
    for (wname, data, queries) in [
        ("enron", &*enron, &enron_queries),
        ("skewed", &skew, &skew_queries),
    ] {
        let prepared = engine.prepare(data);
        let mut arm_walls = Vec::new();
        let mut reference: Option<Vec<RunFingerprint>> = None;
        let mut matches_total = 0u64;
        let mut guard_aborts = 0u64;
        let mut span_steps = 0u64;
        for (aname, trace) in arms {
            let mut wall = Duration::ZERO;
            let mut fingerprints = Vec::with_capacity(queries.len());
            for q in queries {
                let mut best: Option<Duration> = None;
                let mut seen: Option<RunFingerprint> = None;
                for rep in 0..REPS {
                    let snap0 = engine.gpu().stats().snapshot();
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
                    let delta = engine.gpu().stats().snapshot() - snap0;
                    best = Some(
                        best.map_or(o.stats.join_time, |b: Duration| b.min(o.stats.join_time)),
                    );
                    // Guard-tripped runs (intermediate-rows cap, like the
                    // PR 2 harness tolerates) stay in the workload — they
                    // must abort identically in every arm.
                    let fp = (o.matches.canonical(), delta, o.stats.timed_out);
                    match &seen {
                        None => seen = Some(fp),
                        Some(prev) => assert_eq!(
                            prev, &fp,
                            "{wname}/{aname} rep {rep}: non-deterministic run"
                        ),
                    }
                    if aname == "on" {
                        span_steps += o.stats.step_times.len() as u64;
                        // One timer per executed join iteration: step_rows
                        // records the seed row count plus one entry per
                        // iteration, however early the run stopped.
                        assert_eq!(
                            o.stats.step_times.len(),
                            o.stats.step_rows.len().saturating_sub(1),
                            "On must time every executed join step"
                        );
                    } else {
                        assert!(o.stats.step_times.is_empty(), "Off keeps no step timers");
                    }
                    if aname == "baseline" && rep == 0 {
                        matches_total += o.matches.len() as u64;
                        guard_aborts += o.stats.timed_out as u64;
                    }
                }
                wall += best.expect("ran");
                fingerprints.push(seen.expect("ran"));
            }
            match &reference {
                None => reference = Some(fingerprints),
                Some(base) => assert_eq!(
                    base, &fingerprints,
                    "{wname}/{aname}: tracing changed matches or device counters"
                ),
            }
            arm_walls.push((aname, wall));
        }
        let base = arm_walls[0].1.as_secs_f64();
        let off = arm_walls[1].1.as_secs_f64();
        let on = arm_walls[2].1.as_secs_f64();
        let on_overhead = on / off.max(1e-12) - 1.0;
        let off_delta = off / base.max(1e-12) - 1.0;
        t.row(vec![
            wname.to_string(),
            ms(arm_walls[0].1),
            ms(arm_walls[1].1),
            ms(arm_walls[2].1),
            format!("{:+.1}%", on_overhead * 100.0),
        ]);
        if max_overhead > 0.0 {
            if on_overhead > max_overhead {
                gate_failures.push(format!(
                    "{wname}: On-tracing join-wall overhead {:.1}% > {:.1}%",
                    on_overhead * 100.0,
                    max_overhead * 100.0
                ));
            }
            if off_delta > max_overhead {
                gate_failures.push(format!(
                    "{wname}: Off-mode join wall drifted {:.1}% from baseline (> {:.1}%)",
                    off_delta * 100.0,
                    max_overhead * 100.0
                ));
            }
        }
        workload_objs.push((
            wname,
            JsonObj::new()
                .u64("queries", queries.len() as u64)
                .u64("matches", matches_total)
                .u64("guard_aborts", guard_aborts)
                .u64("reps", REPS as u64)
                .f64("baseline_join_wall_ms", base * 1e3)
                .f64("off_join_wall_ms", off * 1e3)
                .f64("on_join_wall_ms", on * 1e3)
                .f64("overhead_on_vs_off", on_overhead)
                .f64("overhead_off_vs_baseline", off_delta)
                .u64("on_span_steps_timed", span_steps)
                .bool("counters_exactly_equal", true),
        ));
    }
    t.print();
    println!("equivalence: canonical tables and device counters bit-identical across arms");
    assert!(gate_failures.is_empty(), "{}", gate_failures.join("; "));

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
    for ticket in tickets {
        let resp = ticket.wait();
        let outcome = resp.result.expect("query served");
        let lat = outcome.latency.as_secs_f64();
        let sum = outcome.stage_breakdown.total().as_secs_f64();
        max_unaccounted = max_unaccounted.max((lat - sum).abs() / lat.max(1e-9));
    }
    let snap = service.stats();
    let prom = service.export_metrics(MetricFormat::Prometheus);
    let flight_len = service.flight_recorder().len();
    println!(
        "service pass: {} served, stage sums within {:.1}% of latency, \
         {} flight-recorder traces, {} Prometheus lines",
        snap.completed,
        max_unaccounted * 100.0,
        flight_len,
        prom.lines().count()
    );
    assert!(flight_len > 0, "flight recorder retained served queries");
    assert!(
        prom.contains(&format!("gsi_queries_completed_total {}", snap.completed)),
        "exporter reflects the served workload"
    );

    let mut report = JsonObj::new()
        .u64("pr", 6)
        .str("experiment", "observe")
        .str(
            "description",
            "per-query tracing overhead: baseline vs TraceConfig::Off vs \
             TraceConfig::On on the PR 2 (enron) and PR 5 (skewed-label) join \
             workloads, equivalence-gated (canonical tables and device \
             counters bit-identical across arms), min-of-reps join wall; \
             plus a traced service-layer pass over the exporters and the \
             flight recorder",
        )
        .f64("scale", opts.scale)
        .u64("seed", opts.seed)
        .f64("max_overhead", max_overhead)
        .obj(
            "service",
            JsonObj::new()
                .u64("completed", snap.completed)
                .f64("stage_sum_max_unaccounted_fraction", max_unaccounted)
                .u64("flight_recorder_traces", flight_len as u64)
                .u64("prometheus_lines", prom.lines().count() as u64)
                .f64(
                    "mean_q_error",
                    snap.mean_estimation_error().unwrap_or(f64::NAN),
                ),
        );
    for (name, obj) in workload_objs {
        report = report.obj(name, obj);
    }
    report.write(out_path).expect("write bench report");
    println!("wrote {out_path}");
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
    use gsi::graph::GraphBuilder;
    let mut qb = GraphBuilder::new();
    let u0 = qb.add_vertex(0);
    let u1 = qb.add_vertex(1);
    let u2 = qb.add_vertex(1);
    qb.add_edge(u0, u1, 0);
    qb.add_edge(u0, u2, 0);
    let fork = qb.build();

    let mut qb = GraphBuilder::new();
    let u0 = qb.add_vertex(0);
    let u1 = qb.add_vertex(1);
    let u2 = qb.add_vertex(1);
    qb.add_edge(u0, u1, 0);
    qb.add_edge(u1, u2, 1);
    qb.add_edge(u0, u2, 0);
    let wedge = qb.build();

    vec![("fork", fork), ("wedge", wedge)]
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
///    deterministic per cell, and the radix cells must *cut GLD
///    transactions* vs Prealloc-Combine (the promotion cell proves the
///    threshold actually fired).
/// 3. **Engine-level kernel equivalence** — the same workload under
///    scalar vs vectorized kernels on both backends: all four cells must
///    charge exactly equal device counters and produce bit-identical
///    tables.
///
/// Writes BENCH_PR7.json.
pub fn setops(opts: &HarnessOpts, min_speedup: f64, out_path: &str) {
    use crate::report::JsonObj;
    use gsi::engine::set_ops::{CandidateProbe, SetOpExec};
    use gsi::graph::storage::Neighbors;
    use gsi::signature::CandidateSet;
    use std::borrow::Cow;
    use std::hint::black_box;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    section("Columnar set-op kernels — scalar vs vectorized, plus radix-hash joins");

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
    let run_arm = |kernels: SetOpKernels| {
        let gpu = Gpu::new(DeviceConfig {
            worker_threads: 1,
            stream_latency_ns: 0,
            ..DeviceConfig::titan_xp()
        });
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
        for strategy in [SetOpStrategy::GpuFriendly, SetOpStrategy::Naive] {
            outputs.extend(one_sweep(strategy, true)); // warm-up + equivalence
            let work0 = gpu.stats().snapshot().work_units;
            let mut best = Duration::MAX;
            for _ in 0..reps {
                let t0 = Instant::now();
                one_sweep(strategy, false);
                best = best.min(t0.elapsed());
            }
            walls.push(best);
            elems.push((gpu.stats().snapshot().work_units - work0) / reps as u64);
        }
        (outputs, walls, elems, gpu.stats().snapshot())
    };

    let (s_out, s_walls, s_elems, s_snap) = run_arm(SetOpKernels::Scalar);
    let (v_out, v_walls, v_elems, v_snap) = run_arm(SetOpKernels::Vectorized);
    assert_eq!(
        s_out, v_out,
        "kernel arms must produce bit-identical outputs"
    );
    assert_eq!(
        s_snap, v_snap,
        "kernel arms must charge exactly equal device counters"
    );
    assert_eq!(s_elems, v_elems, "identical charges imply identical work");
    let melem = |elems: u64, wall: Duration| elems as f64 / wall.as_secs_f64().max(1e-12) / 1e6;
    // Index 0 = GPU-friendly strategy (the gated arm), 1 = naive ablation.
    let kernel_speedup = s_walls[0].as_secs_f64() / v_walls[0].as_secs_f64().max(1e-12);
    let naive_speedup = s_walls[1].as_secs_f64() / v_walls[1].as_secs_f64().max(1e-12);
    let mut t = Table::new(vec![
        "strategy / kernel arm",
        "wall/sweep",
        "Melem/s",
        "spd",
    ]);
    for (si, sname) in ["gpu-friendly", "naive"].iter().enumerate() {
        t.row(vec![
            format!("{sname} / scalar"),
            ms(s_walls[si]),
            format!("{:.1}", melem(s_elems[si], s_walls[si])),
            "1.0x".into(),
        ]);
        t.row(vec![
            format!("{sname} / vectorized"),
            ms(v_walls[si]),
            format!("{:.1}", melem(v_elems[si], v_walls[si])),
            format!(
                "{:.2}x",
                s_walls[si].as_secs_f64() / v_walls[si].as_secs_f64().max(1e-12)
            ),
        ]);
    }
    t.print();
    println!(
        "microbench: {n_ops} ops x 2 primitives/strategy, {} elements/sweep \
         (gpu-friendly), counters bit-identical; naive ablation {naive_speedup:.2}x",
        human(s_elems[0])
    );
    // The wall bar is a measurement, noisy on shared CI runners; pass
    // `--min-speedup 0` to keep only the deterministic gates.
    assert!(
        kernel_speedup >= min_speedup,
        "vectorized kernels must win >= {min_speedup}x wall (got {kernel_speedup:.2}x)"
    );

    // ---- Part 2: join strategies on the multiplicity workload ---------
    let data = multiplicity_graph(opts.scale, opts.seed);
    println!(
        "\ndataset: high-multiplicity synthetic, {}",
        statistics(&data)
    );
    let patterns = multiplicity_patterns();
    let cells: Vec<(&str, JoinScheme, Option<f64>)> = vec![
        ("prealloc", JoinScheme::PreallocCombine, None),
        ("two-step", JoinScheme::TwoStep, None),
        ("radix-hash", JoinScheme::RadixHash, None),
        ("prealloc+radix", JoinScheme::PreallocCombine, Some(8.0)),
    ];

    let mut t = Table::new(vec![
        "strategy",
        "matches",
        "join work",
        "GLD",
        "join wall",
        "Melem/s",
    ]);
    let mut strategy_objs: Vec<(String, JsonObj)> = Vec::new();
    let mut reference: Option<Vec<Vec<u32>>> = None;
    let mut gld_by_cell: Vec<(String, u64)> = Vec::new();
    for (name, scheme, threshold) in &cells {
        let engine = GsiEngine::with_gpu(
            GsiConfig {
                join_scheme: *scheme,
                radix_join_threshold: *threshold,
                ..GsiConfig::gsi_opt()
            }
            .with_planner(PlannerKind::CostBased),
            Gpu::new(DeviceConfig {
                worker_threads: 1,
                stream_latency_ns: 100,
                ..DeviceConfig::titan_xp()
            }),
        );
        let prepared = engine.prepare(&data);
        let mut wall = Duration::ZERO;
        let mut work = 0u64;
        let mut gld = 0u64;
        let mut matches_total = 0u64;
        let mut canon_all: Vec<Vec<u32>> = Vec::new();
        for (pname, q) in &patterns {
            // Two reps: determinism gate on table and counters, keep the
            // warmed second rep's wall.
            let mut kept: Option<(Vec<Vec<u32>>, gsi::sim::StatsSnapshot)> = None;
            for rep in 0..2 {
                let snap0 = engine.gpu().stats().snapshot();
                let out = engine
                    .query(&data, &prepared, q)
                    .expect("multiplicity patterns are connected");
                let delta = engine.gpu().stats().snapshot() - snap0;
                assert!(!out.stats.timed_out, "{name}/{pname}: must complete");
                match &kept {
                    None => kept = Some((out.matches.canonical(), delta)),
                    Some((table, dev)) => {
                        assert_eq!(
                            table,
                            &out.matches.canonical(),
                            "{name}/{pname} rep {rep}: non-deterministic table"
                        );
                        assert_eq!(
                            dev, &delta,
                            "{name}/{pname} rep {rep}: non-deterministic counters"
                        );
                        wall += out.stats.join_time;
                        work += out.stats.join_work_units;
                        gld += delta.gld_transactions;
                        matches_total += out.matches.len() as u64;
                    }
                }
            }
            canon_all.extend(kept.expect("ran").0);
        }
        // Equivalence gate: every cell reproduces the same match set.
        match &reference {
            None => reference = Some(canon_all),
            Some(expect) => assert_eq!(
                &canon_all, expect,
                "{name}: strategies disagree on the match set"
            ),
        }
        let melem_s = work as f64 / wall.as_secs_f64().max(1e-12) / 1e6;
        t.row(vec![
            name.to_string(),
            matches_total.to_string(),
            human(work),
            human(gld),
            ms(wall),
            format!("{melem_s:.1}"),
        ]);
        gld_by_cell.push((name.to_string(), gld));
        strategy_objs.push((
            name.to_string(),
            JsonObj::new()
                .f64("join_wall_ms", wall.as_secs_f64() * 1e3)
                .u64("join_work_units", work)
                .u64("gld", gld)
                .u64("matches", matches_total)
                .f64("melem_per_s", melem_s)
                .bool("equivalent", true),
        ));
    }
    t.print();
    let gld_of = |n: &str| {
        gld_by_cell
            .iter()
            .find(|(c, _)| c == n)
            .map(|&(_, g)| g)
            .expect("cell ran")
    };
    // Deterministic radix gates: the restructured step must cut GLD
    // transactions, and the promotion cell proves the threshold fired.
    assert!(
        gld_of("radix-hash") < gld_of("prealloc"),
        "radix-hash must cut GLD on the high-multiplicity workload \
         (radix {} vs prealloc {})",
        gld_of("radix-hash"),
        gld_of("prealloc")
    );
    assert!(
        gld_of("prealloc+radix") < gld_of("prealloc"),
        "cost-model promotion must fire and cut GLD (promoted {} vs base {})",
        gld_of("prealloc+radix"),
        gld_of("prealloc")
    );
    println!(
        "radix GLD cut: {:.2}x vs prealloc ({} -> {}); promoted cell {:.2}x",
        gld_of("prealloc") as f64 / gld_of("radix-hash").max(1) as f64,
        human(gld_of("prealloc")),
        human(gld_of("radix-hash")),
        gld_of("prealloc") as f64 / gld_of("prealloc+radix").max(1) as f64,
    );

    // ---- Part 3: engine-level kernel equivalence ----------------------
    let mut cell_snaps: Vec<(String, gsi::sim::StatsSnapshot, Duration)> = Vec::new();
    let mut cell_tables: Vec<Vec<Vec<u32>>> = Vec::new();
    for (kname, kernels) in [
        ("scalar", SetOpKernels::Scalar),
        ("vectorized", SetOpKernels::Vectorized),
    ] {
        for (bname, backend, threads) in [
            ("serial", BackendKind::Serial, 0usize),
            ("host-parallel", BackendKind::HostParallel, 3),
        ] {
            let engine = GsiEngine::with_gpu(
                GsiConfig {
                    set_op_kernels: kernels,
                    ..GsiConfig::gsi_opt()
                }
                .with_backend(backend, threads),
                Gpu::new(DeviceConfig {
                    worker_threads: 1,
                    stream_latency_ns: 0,
                    ..DeviceConfig::titan_xp()
                }),
            );
            let prepared = engine.prepare(&data);
            let mut wall = Duration::ZERO;
            let mut canon_all: Vec<Vec<u32>> = Vec::new();
            let snap0 = engine.gpu().stats().snapshot();
            for (_, q) in &patterns {
                let out = engine
                    .query(&data, &prepared, q)
                    .expect("multiplicity patterns are connected");
                wall += out.stats.join_time;
                canon_all.extend(out.matches.canonical());
            }
            let delta = engine.gpu().stats().snapshot() - snap0;
            cell_snaps.push((format!("{kname}/{bname}"), delta, wall));
            cell_tables.push(canon_all);
        }
    }
    for ((name, snap, _), table) in cell_snaps.iter().zip(&cell_tables).skip(1) {
        assert_eq!(
            snap, &cell_snaps[0].1,
            "{name}: engine-level counters diverge from scalar/serial"
        );
        assert_eq!(
            table, &cell_tables[0],
            "{name}: engine-level tables diverge from scalar/serial"
        );
    }
    println!(
        "engine-level: 4 (kernel x backend) cells bit-identical; \
         scalar/serial join wall {} vs vectorized/serial {}",
        ms(cell_snaps[0].2),
        ms(cell_snaps[2].2)
    );

    // ---- report -------------------------------------------------------
    let mut report = JsonObj::new()
        .u64("pr", 7)
        .str("experiment", "setops")
        .str(
            "description",
            "columnar execution: vectorized set-op kernels vs the scalar \
             reference (bit-identical outputs and device counters, wall \
             speedup gated), and the radix-hash join strategy vs \
             Prealloc-Combine / two-step on a high-multiplicity workload \
             (canonical tables bit-identical, radix cells gated on a \
             deterministic GLD cut)",
        )
        .f64("scale", opts.scale)
        .u64("seed", opts.seed)
        .f64("min_speedup", min_speedup)
        .obj(
            "microbench",
            JsonObj::new()
                .u64("ops", n_ops as u64)
                .u64("elements_per_sweep", s_elems[0])
                .f64("scalar_wall_ms", s_walls[0].as_secs_f64() * 1e3)
                .f64("vectorized_wall_ms", v_walls[0].as_secs_f64() * 1e3)
                .f64("scalar_melem_per_s", melem(s_elems[0], s_walls[0]))
                .f64("vectorized_melem_per_s", melem(v_elems[0], v_walls[0]))
                .f64("speedup_wall", kernel_speedup)
                .f64("naive_ablation_speedup_wall", naive_speedup)
                .bool("counters_bit_identical", true),
        )
        .obj(
            "engine_kernel_equivalence",
            JsonObj::new()
                .u64("cells", cell_snaps.len() as u64)
                .bool("counters_bit_identical", true)
                .bool("tables_bit_identical", true)
                .f64(
                    "scalar_serial_join_wall_ms",
                    cell_snaps[0].2.as_secs_f64() * 1e3,
                )
                .f64(
                    "vectorized_serial_join_wall_ms",
                    cell_snaps[2].2.as_secs_f64() * 1e3,
                ),
        );
    for (name, obj) in strategy_objs {
        report = report.obj(&name, obj);
    }
    report.write(out_path).expect("write bench report");
    println!("wrote {out_path}");
}

/// Run every experiment in paper order.
pub fn all(opts: &HarnessOpts) {
    table2(opts);
    table3(opts);
    table4(opts);
    table5(opts);
    table6(opts);
    table7(opts);
    table8(opts);
    table9(opts);
    table10(opts);
    table11(opts);
    fig12(opts);
    fig13(opts);
    fig14(opts);
    fig15(opts);
}
