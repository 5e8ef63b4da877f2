//! One run: set up from the seed, gate correctness, measure, and — with
//! `--trace 1` — measure again with spans on and peel the layers apart.

use crate::drive::{self, ms, Phase};
use crate::metrics::{in_catalogue_order, Value, END_TO_END, PER_LAYER};
use crate::peel;
use crate::pool::{self, Pool, UpdatePlan};
use crate::schedule::arrivals_in;
use crate::setup::{base_graph, set_up, SetupTimes, Stack};
use crate::spans::SpanLog;
use crate::stats::{median, percentile_of, supports_percentile};
use crate::workloads::{workload, Drive, Workload, GRAPH_NAME};
use gsi::api::QueryRequest;
use gsi::service::ServiceStatsSnapshot;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median, so one slow page-fault
/// storm does not decide it.
const SETUP_REPS: usize = 5;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the traced run writes its span file.
    pub out_dir: PathBuf,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub pool_digest: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (`trace` off) or every per-layer metric
    /// (`trace` on), in catalogue order.
    pub metrics: Vec<Value>,
    /// Context lines for the human reader: sample counts, pool search
    /// cost, gate results.
    pub notes: Vec<String>,
    pub span_file: Option<PathBuf>,
}

/// Counts that only a correct run leaves at zero.
#[derive(Debug, Default)]
struct Gate {
    checked: u64,
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Warm-up pass and correctness gate in one: every pool query is answered
/// at every boundary the workload has, and the full canonical tables must
/// be equal (wire ≡ `query_blocking` ≡ `engine.query`) and of the admitted
/// size. Also fills the plan cache and touches every connection.
fn gate_pool(stack: &mut Stack, pool: &Pool, gate: &mut Gate, when: &str, check_rows: bool) {
    let entry = stack.entry();
    // Smallest answers first, whatever order the seed issues them in: the
    // gate sorts full tables, and what that leaves behind on the heap
    // should not depend on the seed.
    let mut order: Vec<usize> = (0..pool.queries.len()).collect();
    order.sort_by_key(|&i| (pool.queries[i].rows, i));
    for i in order {
        let q = &pool.queries[i];
        let engine = stack
            .service
            .engine()
            .query(entry.graph(), entry.prepared(), &q.pattern);
        let Ok(engine) = engine else {
            gate.check(false, || format!("{when}: engine rejected pool query {i}"));
            continue;
        };
        let reference = engine.matches.canonical();
        gate.check(
            !engine.stats.timed_out && (!check_rows || reference.len() as u64 == q.rows),
            || {
                format!(
                    "{when}: engine.query gave {} rows for pool query {i}, admitted with {}",
                    reference.len(),
                    q.rows
                )
            },
        );
        let served = stack
            .service
            .query_blocking(QueryRequest::new(GRAPH_NAME, q.pattern.clone()))
            .ok()
            .and_then(|r| r.result.ok());
        gate.check(
            served.as_ref().is_some_and(|o| {
                o.completion.is_complete() && o.output.matches.canonical() == reference
            }),
            || format!("{when}: query_blocking differs from engine.query on pool query {i}"),
        );
        for (c, client) in stack.clients.iter_mut().enumerate() {
            let remote = client.query(QueryRequest::new(GRAPH_NAME, q.pattern.clone()));
            gate.check(
                remote
                    .as_ref()
                    .is_ok_and(|r| r.completion.is_complete() && r.canonical() == reference),
                || format!("{when}: connection {c} differs from engine.query on pool query {i}"),
            );
        }
    }
}

/// A `kB` field of `/proc/self/status`, in MiB (0 where there is no procfs).
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: return free heap pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Make `peak_rss_mib` the peak of the measured phase, not of what came
/// before it. Pool search materialises exploding candidates the workload
/// never sees, and the gate sorts full answer tables; the allocator keeps
/// those freed pages, and how many depends on the seed's rejects. So:
/// hand free pages back, then restart the kernel's high-water mark. Where
/// the kernel refuses the restart, the whole-process peak is reported.
fn settle_memory() -> bool {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes no pointers and only releases pages the
    // allocator already holds free; it is safe to call at any time, from
    // any thread, concurrently with other allocator calls.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The measured phase of a workload; in a traced run every other pass
/// records spans.
fn measure(
    w: &Workload,
    stack: &mut Stack,
    pool: &Pool,
    plan: Option<&UpdatePlan>,
    opts: &Options,
) -> Phase {
    let (run_for, traced) = (Duration::from_secs_f64(opts.seconds), opts.trace);
    match w.drive {
        Drive::ClosedWire { .. } => {
            drive::closed_wire(&mut stack.clients, pool, opts.seed, run_for, traced)
        }
        Drive::InProcess => {
            let entry = stack.entry();
            drive::in_process(&stack.service, &entry, pool, opts.seed, run_for, traced)
        }
        Drive::PacedWire { interval, .. } => {
            let plan = plan.expect("the paced workload has an update plan");
            drive::paced_wire(&mut stack.clients, pool, &plan.batches, interval, traced)
        }
    }
}

fn end_to_end(w: &Workload, phase: &Phase, setup_s: f64) -> Vec<(&'static str, f64)> {
    let wall = phase.wall.as_secs_f64();
    let lat = phase.latencies_ms();
    let good = || phase.queries.iter().filter(|q| q.ok);
    let met = good().filter(|q| q.latency <= w.slo).count();
    vec![
        ("latency_p50_ms", percentile_of(&lat, 0.50)),
        ("latency_p95_ms", percentile_of(&lat, 0.95)),
        ("throughput_qps", good().count() as f64 / wall),
        (
            "rows_per_s",
            good().map(|q| q.rows).sum::<u64>() as f64 / wall,
        ),
        (
            "slo_met_frac",
            met as f64 / phase.queries.len().max(1) as f64,
        ),
        ("setup_s", setup_s),
        ("peak_rss_mib", status_mib("VmHWM:")),
    ]
}

fn delta(after: &ServiceStatsSnapshot, before: &ServiceStatsSnapshot) -> ServiceDelta {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let lookups = d(after.plan_cache_hits, before.plan_cache_hits)
        + d(after.plan_cache_misses, before.plan_cache_misses);
    let demands = d(
        after.filter_demands_computed,
        before.filter_demands_computed,
    ) + d(after.filter_demands_reused, before.filter_demands_reused);
    let completed = d(after.completed, before.completed);
    let frac = |n: f64, of: f64| if of > 0.0 { n / of } else { 0.0 };
    ServiceDelta {
        plan_cache_hit_rate: frac(d(after.plan_cache_hits, before.plan_cache_hits), lookups),
        filter_reuse_rate: frac(
            d(after.filter_demands_reused, before.filter_demands_reused),
            demands,
        ),
        batched_frac: frac(d(after.batched_queries, before.batched_queries), completed),
        rejected: d(after.rejected, before.rejected),
        deadline_expired: d(after.deadline_expired, before.deadline_expired),
    }
}

/// What the service's own ledger says happened during the measured phase.
struct ServiceDelta {
    plan_cache_hit_rate: f64,
    filter_reuse_rate: f64,
    batched_frac: f64,
    rejected: f64,
    deadline_expired: f64,
}

/// Per-layer numbers from the traced passes: every client span splits into
/// the server's own clock and the egress around it.
fn egress_metrics(phase: &Phase) -> Vec<(&'static str, f64)> {
    let log: &SpanLog = &phase.spans;
    let client_calls = log.spans().iter().enumerate();
    let egress_ms: Vec<f64> = client_calls
        .filter(|(_, s)| s.name == "client.query")
        .map(|(i, _)| log.self_time_ns(i) as f64 / 1e6)
        .collect();
    let traced = phase.queries.iter().filter(|q| q.traced && q.ok);
    let rows: u64 = traced.map(|q| q.rows).sum();
    let egress_s: f64 = egress_ms.iter().sum::<f64>() / 1e3;
    vec![
        ("server.egress_ms_p50", percentile_of(&egress_ms, 0.50)),
        ("server.egress_ms_p95", percentile_of(&egress_ms, 0.95)),
        (
            "server.stream_mrows_per_s",
            if egress_s > 0.0 {
                rows as f64 / egress_s / 1e6
            } else {
                0.0
            },
        ),
    ]
}

/// Run one workload for one seed.
pub fn run(opts: &Options) -> Result<Report, String> {
    let w = workload(&opts.workload, opts.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let mut notes = Vec::new();

    // Seeded inputs first, on a heap that holds nothing else: pool search
    // materialises exploding candidates, and what it leaves behind must
    // not sit underneath the stack that is measured. (Not part of
    // setup_s: search cost depends on the bands, not on the system's
    // set-up path.)
    let t_pool = Instant::now();
    let pool = pool::generate(&w, &base_graph(&w), opts.seed)?;
    let pool_gen_s = t_pool.elapsed().as_secs_f64();
    settle_memory();

    // Set-up, several times; the last one is kept and measured on.
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut kept: Option<Stack> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            previous.tear_down();
        }
        let (stack, t) = set_up(&w, opts.seed)?;
        times.push(t);
        kept = Some(stack);
    }
    let mut stack = kept.expect("SETUP_REPS is at least one");
    let setup_s = median(&times.iter().map(|t| t.total_s).collect::<Vec<_>>());
    let build_ms = median(&times.iter().map(|t| t.build_ms).collect::<Vec<_>>());

    let t_plan = Instant::now();
    let plan = match w.drive {
        Drive::PacedWire {
            interval,
            ops_per_batch,
        } => Some(pool::update_plan(
            &stack.graph,
            arrivals_in(opts.seconds, interval),
            ops_per_batch,
            opts.seed,
        )),
        _ => None,
    };
    let pool_gen_s = pool_gen_s + t_plan.elapsed().as_secs_f64();
    notes.push(format!(
        "pool: {} patterns from {} draws in {:.2} s, {} rows per pass",
        pool.queries.len(),
        pool.draws,
        pool_gen_s,
        pool.queries.iter().map(|q| q.rows).sum::<u64>()
    ));

    let mut gate = Gate::default();
    gate_pool(&mut stack, &pool, &mut gate, "warm-up", true);

    let stats_before = stack.service.stats();
    if !settle_memory() {
        notes.push("peak_rss_mib: kernel refused the reset; whole-process peak".to_string());
    }
    notes.push(format!(
        "resident before the measured phase: {:.1} MiB",
        status_mib("VmRSS:")
    ));

    let phase = measure(&w, &mut stack, &pool, plan.as_ref(), opts);
    let e2e = end_to_end(&w, &phase, setup_s);
    let stats_after = stack.service.stats();

    // After churn: the server's graph must be the one tracked locally,
    // and every pool query must still agree at every boundary.
    if let Some(plan) = &plan {
        let entry = stack.entry();
        gate.check(entry.graph() == &plan.final_graph, || {
            "final epoch: the server's graph differs from the locally tracked one".to_string()
        });
        gate_pool(&mut stack, &pool, &mut gate, "final epoch", false);
    }

    let n = phase.queries.len();
    notes.push(format!(
        "measured: {n} queries, {} updates in {:.2} s; p95 has {} samples beyond it",
        phase.updates.len(),
        phase.wall.as_secs_f64(),
        crate::stats::samples_beyond(n, 0.95)
    ));
    if !opts.smoke && !supports_percentile(n, 0.95) {
        notes.push(format!(
            "warning: {n} samples do not support a p95 (fewer than ten beyond it)"
        ));
    }

    let (phase_attempted, phase_failed) = (phase.attempted(), phase.failed());
    let mut span_file = None;
    let metrics = if opts.trace {
        let peel = peel::peel(&mut stack, &pool, phase.spans.origin());
        let micro = peel::microbenchmarks(&mut stack, &pool, plan.as_ref());
        let svc = delta(&stats_after, &stats_before);
        let busy = phase.queries.iter().filter(|q| q.busy).count();
        let update_ms: Vec<f64> = phase.updates.iter().map(|u| ms(u.latency)).collect();
        let mut measured: Vec<(&'static str, f64)> = vec![
            ("datasets.build_ms", build_ms),
            (
                "graph.apply_updates_ms_p50",
                plan.as_ref()
                    .map_or(0.0, |p| percentile_of(&p.apply_ms, 0.50)),
            ),
            ("service.plan_cache_hit_rate", svc.plan_cache_hit_rate),
            ("service.filter_reuse_rate", svc.filter_reuse_rate),
            ("service.batched_frac", svc.batched_frac),
            (
                "service.queue_depth_highwater",
                stack.service.scheduler().queue_depth_highwater() as f64,
            ),
            ("service.rejected", svc.rejected),
            ("service.deadline_expired", svc.deadline_expired),
            ("server.busy_refusals", busy as f64),
            ("server.update_ms_p50", percentile_of(&update_ms, 0.50)),
            (
                "bench.trace_overhead_frac",
                phase.trace_overhead_frac(pool.queries.len()),
            ),
            (
                "bench.generator_late_ms_p95",
                percentile_of(&phase.generator_late_ms, 0.95),
            ),
            ("bench.pool_gen_s", pool_gen_s),
        ];
        measured.extend(egress_metrics(&phase));
        measured.extend(peel.metrics());
        measured.extend(micro);
        notes.extend(peel.notes());

        std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("create out dir: {e}"))?;
        let path = opts
            .out_dir
            .join(format!("spans-{}-{}.csv", w.name, opts.seed));
        let mut all = phase.spans;
        all.absorb(peel.spans);
        all.write_csv(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        span_file = Some(path);
        in_catalogue_order(PER_LAYER.iter().map(|m| (m.name, m.unit)), &measured)
    } else {
        in_catalogue_order(END_TO_END.iter().map(|m| (m.name, m.unit)), &e2e)
    };

    stack.tear_down();

    for f in gate.failures.iter().take(5) {
        notes.push(format!("GATE FAILED: {f}"));
    }
    notes.push(format!(
        "gates: {} checks, {} failed",
        gate.checked,
        gate.failures.len()
    ));
    // Wrong answers anywhere count: in the measured phase or at a gate.
    let attempted = phase_attempted + gate.checked;
    let failed = phase_failed + gate.failures.len() as u64;
    Ok(Report {
        workload: w.name,
        seed: opts.seed,
        trace: opts.trace,
        pool_digest: pool.digest_hex(),
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        span_file,
    })
}
