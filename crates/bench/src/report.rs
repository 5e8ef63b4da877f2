//! One report for every `paper` experiment: rows in, two renderings out.
//!
//! An experiment pushes *rows* — `(scope, arm, metric, value)`, where the
//! [`Metric`] carries the name, unit, direction and exactness it was
//! declared with once — plus its `params` and its *gates*. [`Report::render`]
//! pivots the rows into the console table (one arm per line, one metric per
//! column) and [`Report::to_json`] emits the one schema
//! `{schema, experiment, description, params, rows, gates}` through
//! [`gsi_obs::JsonBuf`], the workspace's only JSON writer. Gates are
//! recorded, not asserted: [`Report::finish`] writes the file first and
//! fails the run afterwards, so a failing CI run still uploads the observed
//! values. Comparing two reports is `benchmark … compare`'s job, not this
//! crate's.

use crate::fmt::{human, ms, Table};
use crate::workloads::HarnessOpts;
use gsi::prelude::{QueryOutput, RunStats};
use gsi_obs::JsonBuf;
use std::time::Duration;

/// Identifies the layout [`Report::to_json`] writes.
pub const SCHEMA: &str = "gsi-paper-report/1";

/// What an experiment entry point returns: `Err` when a gate failed (or the
/// report could not be written) — after the report is on disk.
pub type Outcome = Result<(), Box<dyn std::error::Error>>;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, transactions, work).
    Lower,
    /// Larger is better (throughput, speedups, reuse rates).
    Higher,
    /// Neither: a property of the workload (match counts, batch sizes).
    Neither,
}

/// A measured quantity, declared once and referenced by every row of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Dotted `layer.quantity` name; where `BENCHMARK.json` measures the
    /// same quantity per layer, the same stem.
    pub name: &'static str,
    /// Unit of the value (`ms`, `transactions`, `count`, `x`, `fraction`, …).
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The value is a pure function of inputs and seed and must repeat
    /// bit-for-bit across runs (device counters, work units, match counts);
    /// wall-clock measurements are not.
    pub exact: bool,
}

impl Metric {
    /// A wall-clock, or otherwise run-to-run varying, measurement.
    pub const fn measured(name: &'static str, unit: &'static str, better: Better) -> Self {
        Self {
            name,
            unit,
            better,
            exact: false,
        }
    }

    /// A deterministic count or a ratio of such counts.
    pub const fn exact(name: &'static str, unit: &'static str, better: Better) -> Self {
        Self {
            name,
            unit,
            better,
            exact: true,
        }
    }
}

/// The vocabulary experiments share. Metrics only one experiment reports
/// are declared next to it.
pub mod metric {
    use super::Better::{Higher, Lower, Neither};
    use super::Metric;

    /// Join-phase wall time.
    pub const JOIN_MS: Metric = Metric::measured("core.join_ms", "ms", Lower);
    /// End-to-end query wall time (filter + plan + join).
    pub const QUERY_MS: Metric = Metric::measured("core.query_ms", "ms", Lower);
    /// Offline-phase wall time (cold prepare or incremental re-prepare).
    pub const PREPARE_MS: Metric = Metric::measured("core.prepare_ms", "ms", Lower);
    /// Streamed join work units per join-wall second.
    pub const MELEM_PER_S: Metric = Metric::measured("core.join_melem_per_s", "Melem/s", Higher);
    /// Wall-clock ratio of the scope's baseline arm over this arm.
    pub const SPEEDUP: Metric = Metric::measured("speedup_vs_baseline", "x", Higher);
    /// Global-memory load transactions over the whole run.
    pub const GLD: Metric = Metric::exact("gpu-sim.gld", "transactions", Lower);
    /// Global-memory store transactions over the whole run.
    pub const GST: Metric = Metric::exact("gpu-sim.gst", "transactions", Lower);
    /// Kernel launches.
    pub const KERNELS: Metric = Metric::exact("gpu-sim.kernels", "count", Lower);
    /// Device allocation requests.
    pub const ALLOCS: Metric = Metric::exact("gpu-sim.allocs", "count", Lower);
    /// Device-ledger work units (lane-elements processed).
    pub const DEVICE_WORK: Metric = Metric::exact("gpu-sim.work_units", "count", Lower);
    /// Join-backend work: total streamed elements.
    pub const JOIN_WORK: Metric = Metric::exact("core.join_work_units", "count", Lower);
    /// Join-backend span: the schedule's critical path (which worker ends
    /// up busiest varies from run to run under `HostParallel`).
    pub const JOIN_SPAN: Metric = Metric::measured("core.join_span_units", "count", Lower);
    /// Join-work ratio of the scope's baseline arm over this arm.
    pub const WORK_RATIO: Metric = Metric::exact("work_ratio_vs_baseline", "x", Higher);
    /// Peak intermediate-table rows across join iterations.
    pub const PEAK_ROWS: Metric = Metric::exact("core.peak_intermediate_rows", "rows", Lower);
    /// Mid-query re-plans.
    pub const REPLANS: Metric = Metric::exact("core.replans", "count", Neither);
    /// Mean q-error of the executed plan's cardinality estimates.
    pub const Q_ERROR: Metric = Metric::exact("core.q_error", "ratio", Lower);
    /// Matches found.
    pub const MATCHES: Metric = Metric::exact("core.matches", "rows", Neither);
    /// Queries that hit the timeout or the intermediate-rows guard.
    pub const TIMEOUTS: Metric = Metric::exact("core.timeouts", "count", Lower);
}

/// A row or gate value. Durations convert to **milliseconds** — every
/// wall-time metric in the vocabulary is in ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value(pub f64);

macro_rules! value_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value(v as f64)
            }
        }
    )*};
}
value_from!(f64, u64, u32, usize);

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value(f64::from(u8::from(v)))
    }
}

impl From<Duration> for Value {
    fn from(d: Duration) -> Self {
        Value(d.as_secs_f64() * 1e3)
    }
}

/// `old / new` with the zero-denominator guard every ratio row uses.
pub fn ratio(old: impl Into<Value>, new: impl Into<Value>) -> f64 {
    old.into().0 / new.into().0.max(1e-12)
}

/// The comparison a gate holds its observed value to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `observed == bar`
    Eq,
    /// `observed < bar`
    Lt,
    /// `observed <= bar`
    Le,
    /// `observed >= bar`
    Ge,
    /// `observed > bar`
    Gt,
}

#[derive(Debug)]
struct Row {
    scope: String,
    arm: String,
    metric: Metric,
    value: f64,
}

#[derive(Debug)]
enum Param {
    Num(f64),
    Text(String),
}

#[derive(Debug)]
struct Gate {
    name: String,
    observed: f64,
    bar: String,
    passed: bool,
}

/// One experiment's measurements; see the module docs.
#[derive(Debug)]
pub struct Report {
    experiment: String,
    description: String,
    params: Vec<(String, Param)>,
    rows: Vec<Row>,
    gates: Vec<Gate>,
}

/// Cursor for pushing one arm's rows: `report.arm(scope, arm).put(..).put(..)`.
pub struct Arm<'r> {
    report: &'r mut Report,
    scope: String,
    arm: String,
}

impl Arm<'_> {
    /// Push one row.
    pub fn put(&mut self, metric: &Metric, value: impl Into<Value>) -> &mut Self {
        self.report.rows.push(Row {
            scope: self.scope.clone(),
            arm: self.arm.clone(),
            metric: *metric,
            value: value.into().0,
        });
        self
    }

    /// The per-run frame: what one engine run (or an accumulation of
    /// runs) measured.
    pub fn run(&mut self, s: &RunStats) -> &mut Self {
        use metric::*;
        self.put(&JOIN_MS, s.join_time)
            .put(&JOIN_WORK, s.join_work_units)
            .put(&GLD, s.gld())
            .put(&PEAK_ROWS, s.max_intermediate_rows)
            .put(&REPLANS, s.replans)
            .put(&MATCHES, s.n_matches)
    }

    /// The per-query frame: [`Arm::run`] plus the executed plan's q-error.
    pub fn query(&mut self, out: &QueryOutput) -> &mut Self {
        let q_error = out.explain.mean_q_error().unwrap_or(f64::NAN);
        self.run(&out.stats).put(&metric::Q_ERROR, q_error)
    }

    /// [`metric::WORK_RATIO`] and [`metric::SPEEDUP`] of this arm's run
    /// against the scope's baseline run; returns `(work_ratio, speedup)`.
    pub fn versus(&mut self, baseline: &RunStats, this: &RunStats) -> (f64, f64) {
        let work = ratio(baseline.join_work_units, this.join_work_units.max(1));
        let wall = ratio(baseline.join_time, this.join_time);
        self.put(&metric::WORK_RATIO, work)
            .put(&metric::SPEEDUP, wall);
        (work, wall)
    }
}

impl Report {
    /// Start a report; the harness options every experiment shares become
    /// its first params, with the host's core count beside them (thread-
    /// dependent numbers mean nothing without it).
    pub fn new(experiment: &str, description: &str, opts: &HarnessOpts) -> Self {
        let mut r = Self {
            experiment: experiment.to_string(),
            description: description.to_string(),
            params: Vec::new(),
            rows: Vec::new(),
            gates: Vec::new(),
        };
        r.param("scale", opts.scale);
        r.param("queries", opts.queries);
        r.param("query_size", opts.query_size);
        r.param("seed", opts.seed);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        r.param("host_cores", cores);
        r
    }

    /// Record a numeric input of the run.
    pub fn param(&mut self, name: &str, value: impl Into<Value>) {
        self.params
            .push((name.to_string(), Param::Num(value.into().0)));
    }

    /// Record a textual input of the run.
    pub fn param_str(&mut self, name: &str, value: &str) {
        self.params
            .push((name.to_string(), Param::Text(value.to_string())));
    }

    /// Cursor for pushing the rows of `arm` within `scope`.
    pub fn arm(&mut self, scope: &str, arm: &str) -> Arm<'_> {
        Arm {
            report: self,
            scope: scope.to_string(),
            arm: arm.to_string(),
        }
    }

    /// Record a gate: `observed <cmp> bar` must hold or [`Report::finish`]
    /// fails the run. Returns whether it held.
    pub fn gate(
        &mut self,
        name: impl Into<String>,
        observed: impl Into<Value>,
        cmp: Cmp,
        bar: impl Into<Value>,
    ) -> bool {
        let (observed, bar) = (observed.into().0, bar.into().0);
        let (passed, op) = match cmp {
            Cmp::Eq => (observed == bar, "=="),
            Cmp::Lt => (observed < bar, "<"),
            Cmp::Le => (observed <= bar, "<="),
            Cmp::Ge => (observed >= bar, ">="),
            Cmp::Gt => (observed > bar, ">"),
        };
        self.gates.push(Gate {
            name: name.into(),
            observed,
            bar: format!("{op} {bar}"),
            passed,
        });
        passed
    }

    /// The equivalence gate: `violations` — a count of mismatches, or
    /// whether two things differ — must be zero.
    pub fn check(&mut self, name: impl Into<String>, violations: impl Into<Value>) -> bool {
        self.gate(name, violations, Cmp::Eq, 0u64)
    }

    fn failed(&self) -> impl Iterator<Item = &Gate> {
        self.gates.iter().filter(|g| !g.passed)
    }

    /// The console rendering: rows pivoted to one `(scope, arm)` per line
    /// and one metric per column — consecutive scopes that report the same
    /// metrics share a table — then the gate tally and every failed gate.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut scopes: Vec<&str> = Vec::new();
        for r in &self.rows {
            if !scopes.contains(&r.scope.as_str()) {
                scopes.push(&r.scope);
            }
        }
        let mut table: Option<(Vec<Metric>, Table)> = None;
        for scope in scopes {
            let in_scope = || self.rows.iter().filter(move |r| r.scope == scope);
            let mut cols: Vec<Metric> = Vec::new();
            let mut arms: Vec<&str> = Vec::new();
            for r in in_scope() {
                if !cols.contains(&r.metric) {
                    cols.push(r.metric);
                }
                if !arms.contains(&r.arm.as_str()) {
                    arms.push(&r.arm);
                }
            }
            if table.as_ref().is_none_or(|(c, _)| *c != cols) {
                if let Some((_, t)) = table.take() {
                    out.push_str(&t.render());
                    out.push('\n');
                }
                let headers = ["scope", "arm"]
                    .into_iter()
                    .chain(cols.iter().map(|m| m.name))
                    .collect();
                table = Some((cols.clone(), Table::new(headers)));
            }
            let (_, t) = table.as_mut().expect("table opened above");
            for arm in arms {
                let cell_of = |m: &Metric| {
                    in_scope()
                        .find(|r| r.arm == arm && r.metric == *m)
                        .map_or("-".to_string(), |r| cell(m, r.value))
                };
                let mut line = vec![scope.to_string(), arm.to_string()];
                line.extend(cols.iter().map(cell_of));
                t.row(line);
            }
        }
        if let Some((_, t)) = table {
            out.push_str(&t.render());
        }
        let held = self.gates.len() - self.failed().count();
        out.push_str(&format!("gates: {held} of {} hold\n", self.gates.len()));
        for g in self.failed() {
            out.push_str(&format!(
                "gate FAILED: {} — observed {}, bar {}\n",
                g.name, g.observed, g.bar
            ));
        }
        out
    }

    /// The file rendering (one row per line, trailing newline).
    pub fn to_json(&self) -> String {
        // Micro-unit precision: below any wall-clock noise, and a pure
        // function of the value, so exact rows stay exact.
        let round = |v: f64| (v * 1e6).round() / 1e6;
        let mut b = JsonBuf::indented(2);
        b.begin_obj();
        b.field_str("schema", SCHEMA);
        b.field_str("experiment", &self.experiment);
        b.field_str("description", &self.description);
        b.key("params");
        b.begin_obj();
        for (name, value) in &self.params {
            match value {
                Param::Num(v) => b.field_f64(name, *v),
                Param::Text(s) => b.field_str(name, s),
            }
        }
        b.end_obj();
        b.key("rows");
        b.begin_arr();
        for r in &self.rows {
            b.begin_obj();
            b.field_str("scope", &r.scope);
            b.field_str("arm", &r.arm);
            b.field_str("metric", r.metric.name);
            b.field_str("unit", r.metric.unit);
            b.field_f64("value", round(r.value));
            b.field_str(
                "better",
                match r.metric.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                    Better::Neither => "none",
                },
            );
            b.field_bool("exact", r.metric.exact);
            b.end_obj();
        }
        b.end_arr();
        b.key("gates");
        b.begin_arr();
        for g in &self.gates {
            b.begin_obj();
            b.field_str("name", &g.name);
            b.field_f64("observed", round(g.observed));
            b.field_str("bar", &g.bar);
            b.field_bool("passed", g.passed);
            b.end_obj();
        }
        b.end_arr();
        b.end_obj();
        let mut s = b.finish();
        s.push('\n');
        s
    }

    /// Print the console rendering, write the file, and only then fail the
    /// run if any gate did not hold — the artifact shows what was observed.
    pub fn finish(self, path: &str) -> Outcome {
        print!("{}", self.render());
        std::fs::write(path, self.to_json())?;
        println!("wrote {path}");
        let failed: Vec<&str> = self.failed().map(|g| g.name.as_str()).collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{}: {} gate(s) failed: {}",
                self.experiment,
                failed.len(),
                failed.join(", ")
            )
            .into())
        }
    }
}

/// Console cell for a value of `m`, in the paper tables' number style.
fn cell(m: &Metric, v: f64) -> String {
    if !v.is_finite() {
        return "-".to_string();
    }
    match m.unit {
        "ms" => ms(Duration::from_secs_f64(v.max(0.0) / 1e3)),
        "x" => format!("{v:.2}x"),
        "fraction" => format!("{:.1}%", v * 100.0),
        _ if v.fract() == 0.0 && v >= 0.0 => human(v as u64),
        _ => format!("{v:.2}"),
    }
}

#[cfg(test)]
mod tests {
    use super::metric::{GLD, JOIN_MS, SPEEDUP};
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new(
            "sample",
            "a \"quoted\" description",
            &HarnessOpts::default(),
        );
        r.param_str("dataset", "enron");
        r.param("threads", 4usize);
        r.arm("enron", "serial")
            .put(&JOIN_MS, Duration::from_millis(20))
            .put(&GLD, 1_700u64);
        r.arm("enron", "parallel")
            .put(&JOIN_MS, Duration::from_millis(10))
            .put(&GLD, 1_700u64)
            .put(&SPEEDUP, f64::NAN);
        r.check("counters_equal", 0u64);
        r
    }

    #[test]
    fn renders_ordered_nested_json() {
        let mut r = sample();
        r.gate("speedup", 1.25, Cmp::Ge, 1.5);
        let s = r.to_json();
        let pos = |needle: &str| s.find(needle).unwrap_or_else(|| panic!("{needle} in {s}"));
        for pair in [
            "\"schema\"",
            "\"experiment\"",
            "\"description\"",
            "\"params\"",
            "\"rows\"",
            "\"gates\"",
        ]
        .windows(2)
        {
            assert!(pos(pair[0]) < pos(pair[1]), "top-level key order");
        }
        assert!(s.contains("\"description\": \"a \\\"quoted\\\" description\""));
        assert!(pos("\"scale\"") < pos("\"host_cores\""));
        assert!(pos("\"host_cores\"") < pos("\"dataset\": \"enron\""));
        assert!(pos("\"dataset\"") < pos("\"threads\": 4"));
        assert!(pos("\"arm\":\"serial\"") < pos("\"arm\":\"parallel\""));
        assert!(s.contains(
            "{\"scope\":\"enron\",\"arm\":\"serial\",\"metric\":\"core.join_ms\",\
             \"unit\":\"ms\",\"value\":20,\"better\":\"lower\",\"exact\":false}"
        ));
        assert!(s.contains("\"metric\":\"gpu-sim.gld\",\"unit\":\"transactions\",\"value\":1700,\"better\":\"lower\",\"exact\":true"));
        assert!(pos("\"name\":\"counters_equal\"") < pos("\"name\":\"speedup\""));
        assert!(s.contains(
            "{\"name\":\"speedup\",\"observed\":1.25,\"bar\":\">= 1.5\",\"passed\":false}"
        ));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut r = sample();
        r.gate("nan_bar", f64::INFINITY, Cmp::Le, 1.0);
        let s = r.to_json();
        assert!(s.contains("\"metric\":\"speedup_vs_baseline\",\"unit\":\"x\",\"value\":null"));
        assert!(s.contains("{\"name\":\"nan_bar\",\"observed\":null,"));
    }

    #[test]
    fn pivot_puts_one_arm_per_line_and_one_metric_per_column() {
        let mut r = sample();
        // A second scope with the same metrics joins the table; one with
        // different metrics opens its own.
        r.arm("gowalla", "serial")
            .put(&JOIN_MS, 5.0)
            .put(&GLD, 9u64);
        r.arm("total", "serial").put(&GLD, 1_709u64);
        let text = r.render();
        let lines: Vec<&str> = text.lines().collect();
        let header: Vec<&str> = lines[0].split_whitespace().collect();
        assert_eq!(
            header,
            [
                "scope",
                "arm",
                "core.join_ms",
                "gpu-sim.gld",
                "speedup_vs_baseline"
            ]
        );
        let cells = |l: &str| l.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(cells(lines[2]), ["enron", "serial", "20", "1.7K", "-"]);
        assert_eq!(cells(lines[3]), ["enron", "parallel", "10", "1.7K", "-"]);
        // gowalla lacks the speedup column → new table.
        assert_eq!(
            cells(lines[5]),
            ["scope", "arm", "core.join_ms", "gpu-sim.gld"]
        );
        assert_eq!(cells(lines[7]), ["gowalla", "serial", "5.00", "9"]);
        assert_eq!(cells(lines[9]), ["scope", "arm", "gpu-sim.gld"]);
        assert!(text.ends_with("gates: 1 of 1 hold\n"));
        r.gate("speedup", 1.25, Cmp::Ge, 1.5);
        assert!(r
            .render()
            .ends_with("gates: 1 of 2 hold\ngate FAILED: speedup — observed 1.25, bar >= 1.5\n"));
    }

    #[test]
    fn gates_compare_and_a_failed_one_fails_finish_after_the_file_exists() {
        let mut r = sample();
        assert!(r.gate("ge", 2.0, Cmp::Ge, 2.0));
        assert!(r.gate("lt", 1u64, Cmp::Lt, 2u64));
        assert!(r.check("same", 1 != 1));
        assert!(!r.check("differ", 3usize));
        assert!(!r.gate("gt", 2.0, Cmp::Gt, 2.0));
        assert!(!r.gate("le", 3.0, Cmp::Le, 2.0));
        let path = std::env::temp_dir().join(format!("gsi-report-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let err = r.finish(path).expect_err("three gates failed");
        assert_eq!(err.to_string(), "sample: 3 gate(s) failed: differ, gt, le");
        let written = std::fs::read_to_string(path).expect("report written before the failure");
        assert!(
            written.contains("{\"name\":\"gt\",\"observed\":2,\"bar\":\"> 2\",\"passed\":false}")
        );
        std::fs::remove_file(path).expect("cleanup");

        let ok = std::env::temp_dir().join(format!("gsi-report-ok-{}.json", std::process::id()));
        let ok = ok.to_str().expect("utf-8 temp path");
        sample().finish(ok).expect("all gates hold");
        std::fs::remove_file(ok).expect("cleanup");
    }
}
