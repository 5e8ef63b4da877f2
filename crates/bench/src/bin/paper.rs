//! `paper` — regenerate every table and figure of the GSI paper.
//!
//! ```text
//! paper <experiment> [options]
//!
//! experiments:
//!   table2 table3 table4 table5 table6 table7 table8 table9 table10 table11
//!   fig12 fig13 fig14 fig15 all
//!
//! repo perf trajectory (not part of the paper): each compares arms under
//! deterministic gates, prints its rows as a table and writes them as one
//! report — `{schema, experiment, description, params, rows, gates}` — to
//! `--out`; a failed gate fails the run *after* the report is on disk.
//! What each one measures and gates is on its function in `experiments`.
//!   backend        one- vs many-thread join pool (BENCH_PR2.json)
//!   update-churn   incremental re-prepare vs full rebuild (BENCH_PR3.json)
//!   batch          shared candidate filtering vs solo runs (BENCH_PR4.json)
//!   optimize       cost-based vs greedy vs best-of-40 random join orders
//!                  (BENCH_PR5.json)
//!   observe        tracing Off vs On, exporters, recorder (BENCH_PR6.json)
//!   setops         scalar vs vectorized kernels, join schemes (BENCH_PR7.json)
//!
//! options:
//!   --scale <f64>      multiplier on the default dataset scales (default 1.0)
//!   --queries <n>      queries per configuration (default 5; the paper uses 100)
//!   --query-size <n>   |V(Q)| (default 12, the paper's default)
//!   --seed <n>         RNG seed (default 42)
//!   --timeout <ms>     per-query timeout for GPU engines (default 30000)
//!   --cpu-timeout <ms> per-query timeout for CPU baselines (default 10000)
//!   --threads <n>      join-pool width of the host-parallel arm (backend only,
//!                      default 4)
//!   --latency <ns>     modeled memory latency per streamed element
//!                      (backend only, default 100)
//!   --rounds <n>       mutation rounds (update-churn only, default 8)
//!   --batch <n>        ops per mutation batch (update-churn only, default 32)
//!   --pool <n>         recurring-pattern pool size (batch only, default 4)
//!   --min-speedup <f>  required wall-clock speedup: shared filtering at 16
//!                      concurrent queries (batch, default 1.3), costed
//!                      join orders (optimize, default 1.5), vectorized
//!                      set-op kernels (setops, default 1.5); 0 disables
//!   --min-work-ratio <f> required deterministic join-work ratio of greedy
//!                      over costed (optimize, default 1.5)
//!   --max-overhead <f> allowed enabled-tracing join-wall overhead as a
//!                      fraction (observe only, default 0.05); 0 keeps only
//!                      the deterministic counter-equality gates
//!   --out <path>       report path (default: the file named above)
//! ```

use gsi_bench::experiments;
use gsi_bench::workloads::HarnessOpts;

fn usage() -> ! {
    eprintln!(
        "usage: paper <table2..table11|fig12..fig15|backend|update-churn|batch|optimize|observe|setops|all> \
         [--scale F] [--queries N] [--query-size N] [--seed N] \
         [--timeout MS] [--cpu-timeout MS] [--threads N] [--latency NS] \
         [--rounds N] [--batch N] [--pool N] [--min-speedup F] \
         [--min-work-ratio F] [--max-overhead F] [--out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let exp = args[0].clone();
    let mut opts = HarnessOpts::default();
    let mut threads = 4usize;
    let mut latency_ns = 100u64;
    let mut rounds = 8usize;
    let mut batch = 32usize;
    let mut pool = 4usize;
    let mut min_speedup: Option<f64> = None;
    let mut min_work_ratio = 1.5f64;
    let mut max_overhead = 0.05f64;
    let mut out_path: Option<String> = None;

    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let val = args.get(i + 1).unwrap_or_else(|| usage());
        match flag {
            "--scale" => opts.scale = val.parse().unwrap_or_else(|_| usage()),
            "--queries" => opts.queries = val.parse().unwrap_or_else(|_| usage()),
            "--query-size" => opts.query_size = val.parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = val.parse().unwrap_or_else(|_| usage()),
            "--timeout" => opts.timeout_ms = val.parse().unwrap_or_else(|_| usage()),
            "--cpu-timeout" => opts.cpu_timeout_ms = val.parse().unwrap_or_else(|_| usage()),
            "--threads" => threads = val.parse().unwrap_or_else(|_| usage()),
            "--latency" => latency_ns = val.parse().unwrap_or_else(|_| usage()),
            "--rounds" => rounds = val.parse().unwrap_or_else(|_| usage()),
            "--batch" => batch = val.parse().unwrap_or_else(|_| usage()),
            "--pool" => pool = val.parse().unwrap_or_else(|_| usage()),
            "--min-speedup" => min_speedup = Some(val.parse().unwrap_or_else(|_| usage())),
            "--min-work-ratio" => min_work_ratio = val.parse().unwrap_or_else(|_| usage()),
            "--max-overhead" => max_overhead = val.parse().unwrap_or_else(|_| usage()),
            "--out" => out_path = Some(val.clone()),
            _ => usage(),
        }
        i += 2;
    }

    println!(
        "GSI reproduction harness — scale x{}, {} queries/config, |V(Q)|={}, seed {}",
        opts.scale, opts.queries, opts.query_size, opts.seed
    );

    let out = |default: &'static str| out_path.as_deref().unwrap_or(default);
    let outcome = match exp.as_str() {
        "backend" => experiments::backend(&opts, threads, latency_ns, out("BENCH_PR2.json")),
        "update-churn" => experiments::update_churn(&opts, rounds, batch, out("BENCH_PR3.json")),
        "batch" => experiments::batch_queries(
            &opts,
            pool,
            min_speedup.unwrap_or(1.3),
            out("BENCH_PR4.json"),
        ),
        "optimize" => experiments::optimize(
            &opts,
            min_speedup.unwrap_or(1.5),
            min_work_ratio,
            out("BENCH_PR5.json"),
        ),
        "observe" => experiments::observe(&opts, max_overhead, out("BENCH_PR6.json")),
        "setops" => experiments::setops(&opts, min_speedup.unwrap_or(1.5), out("BENCH_PR7.json")),
        table => {
            match experiments::PAPER.iter().find(|(name, _)| *name == table) {
                Some((_, run)) => run(&opts),
                None if table == "all" => experiments::all(&opts),
                None => usage(),
            }
            Ok(())
        }
    };
    if let Err(e) = outcome {
        eprintln!("paper: {e}");
        std::process::exit(1);
    }
}
