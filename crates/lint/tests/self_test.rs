//! Mutation battery for the lint itself.
//!
//! Each check gets a fixture with a *seeded violation* and the test asserts
//! the exact finding count, check identity, and file:line anchors — so a
//! regression that makes a check silently stop firing (the classic static-
//! analysis failure mode) breaks this suite, not the codebase. The binary
//! is exercised end-to-end on miniature workspace trees under
//! `tests/fixtures/` to pin the exit-code contract.

use gsi_lint::{check_file, lint_files, metric_name_ok, Baseline, Check, SourceFile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn report_for(path: &str, content: &str) -> gsi_lint::FileReport {
    check_file(&SourceFile::new(path, content))
}

fn anchors(findings: &[gsi_lint::Finding]) -> Vec<(String, usize)> {
    findings.iter().map(|f| (f.path.clone(), f.line)).collect()
}

// ---------------------------------------------------------------------------
// Check 1: panic-freedom
// ---------------------------------------------------------------------------

#[test]
fn panic_freedom_flags_each_seeded_site() {
    let src = "\
pub fn a(v: Option<u32>) -> u32 {
    v.unwrap()
}
pub fn b(v: Option<u32>) -> u32 {
    v.expect(\"present\")
}
fn c() {
    unreachable!(\"seeded\");
}
";
    let rep = report_for("crates/core/src/fixture.rs", src);
    assert!(rep.errors.is_empty(), "panic sites ratchet, not hard-fail");
    assert_eq!(rep.panic_sites.len(), 3);
    assert!(rep
        .panic_sites
        .iter()
        .all(|f| f.check == Check::PanicFreedom));
    assert_eq!(
        anchors(&rep.panic_sites),
        vec![
            ("crates/core/src/fixture.rs".to_string(), 2),
            ("crates/core/src/fixture.rs".to_string(), 5),
            ("crates/core/src/fixture.rs".to_string(), 8),
        ]
    );
}

#[test]
fn panic_freedom_ignores_test_modules_comments_and_strings() {
    let src = "\
pub fn a() -> &'static str {
    // a comment mentioning .unwrap() is inert
    \"a string mentioning .unwrap() is inert\"
}
#[cfg(test)]
mod tests {
    fn t(v: Option<u32>) {
        v.unwrap(); // test code is out of scope
    }
}
";
    let rep = report_for("crates/core/src/fixture.rs", src);
    assert!(rep.panic_sites.is_empty());
    assert!(rep.errors.is_empty());
}

#[test]
fn panic_freedom_outside_serving_crates_is_out_of_scope() {
    let rep = report_for(
        "crates/bench/src/fixture.rs",
        "fn a(v: Option<u32>) { v.unwrap(); }\n",
    );
    assert!(rep.panic_sites.is_empty());
}

// ---------------------------------------------------------------------------
// Check 2: charge-discipline
// ---------------------------------------------------------------------------

#[test]
fn charge_discipline_flags_ledger_access_outside_charge_helpers() {
    let src = "\
fn charge_row(gpu: &Gpu) {
    gpu.stats().gld(1);
}
fn kernel(gpu: &Gpu, buf: &DeviceVec) {
    gpu.stats().gld(1);
    buf.warp_read(gpu, 0, 4);
}
";
    let rep = report_for("crates/core/src/set_ops.rs", src);
    assert_eq!(rep.errors.len(), 2, "only the two sites in `kernel`");
    assert!(rep
        .errors
        .iter()
        .all(|f| f.check == Check::ChargeDiscipline));
    assert_eq!(
        anchors(&rep.errors),
        vec![
            ("crates/core/src/set_ops.rs".to_string(), 5),
            ("crates/core/src/set_ops.rs".to_string(), 6),
        ]
    );
    assert!(rep.errors[0].message.contains("in `kernel`"));
}

#[test]
fn charge_discipline_attributes_closures_to_the_enclosing_fn() {
    let src = "\
fn charge_all(gpu: &Gpu, rows: &[u32]) {
    rows.iter().for_each(|r| {
        gpu.stats().gld(*r as u64);
    });
}
";
    let rep = report_for("crates/core/src/radix.rs", src);
    assert!(rep.errors.is_empty(), "closure body belongs to charge_all");
}

#[test]
fn charge_discipline_only_applies_to_strategy_files() {
    let src = "fn anywhere(gpu: &Gpu) { gpu.stats().gld(1); }\n";
    assert!(report_for("crates/core/src/engine.rs", src)
        .errors
        .is_empty());
    assert_eq!(report_for("crates/core/src/join.rs", src).errors.len(), 1);
}

// ---------------------------------------------------------------------------
// Check 3: trace-gating
// ---------------------------------------------------------------------------

#[test]
fn trace_gating_flags_ungated_instant_now() {
    let src = "\
fn f(opts: &Opts) {
    let t = Instant::now();
    let gated = opts.trace.is_on().then(Instant::now);
}
";
    let rep = report_for("crates/core/src/engine.rs", src);
    assert_eq!(rep.errors.len(), 1, "the is_on-gated timestamp is fine");
    assert_eq!(rep.errors[0].check, Check::TraceGating);
    assert_eq!(rep.errors[0].line, 2);
}

// ---------------------------------------------------------------------------
// Check 4: metric-grammar
// ---------------------------------------------------------------------------

#[test]
fn metric_grammar_flags_malformed_names_at_registration() {
    let src = "\
fn reg(r: &MetricsRegistry) {
    r.counter(\"gsi_query_matches_total\", \"ok\");
    r.counter(\"matches_total\", \"missing prefix\");
    r.gauge(\"gsi_workers\", \"missing quantity\");
    r.histogram(
        \"gsi_query_latency_us\",
        \"wrapped by rustfmt, still found\",
    );
}
";
    let rep = report_for("crates/obs/src/metrics.rs", src);
    assert_eq!(rep.errors.len(), 2);
    assert!(rep.errors.iter().all(|f| f.check == Check::MetricGrammar));
    assert_eq!(
        anchors(&rep.errors),
        vec![
            ("crates/obs/src/metrics.rs".to_string(), 3),
            ("crates/obs/src/metrics.rs".to_string(), 4),
        ]
    );
}

#[test]
fn metric_grammar_accepts_format_placeholders_as_segments() {
    let src =
        "fn reg(r: &M, s: &str) { r.counter(&format!(\"gsi_stage_{s}_us_total\"), \"d\"); }\n";
    assert!(report_for("crates/obs/src/x.rs", src).errors.is_empty());
}

/// The real declaration sites: the service's metric ledger and the
/// server's egress counters, both declared into one registry. Breaking
/// every name literal must produce exactly one finding per literal, so no
/// declaration can slip past the check (e.g. behind a spelling the lint
/// does not recognise).
#[test]
fn metric_grammar_sees_every_live_declaration_site() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (path, at_least) in [
        ("crates/service/src/stats.rs", 30),
        ("crates/server/src/server.rs", 3),
    ] {
        let text = std::fs::read_to_string(root.join(path)).expect("source readable");
        let grammar_errors = |content: &str| {
            report_for(path, content)
                .errors
                .into_iter()
                .filter(|f| f.check == Check::MetricGrammar)
                .count()
        };
        assert_eq!(grammar_errors(&text), 0, "{path} declares valid names");
        let live = text.split("#[cfg(test)]").next().unwrap_or(&text);
        let literals = live.matches("\"gsi_").count();
        assert!(literals >= at_least, "{path}: {literals} name literals");
        let broken = text.replace("\"gsi_", "\"Gsi_");
        assert_eq!(
            grammar_errors(&broken),
            literals,
            "{path}: every declared name literal is checked"
        );
    }
}

#[test]
fn metric_name_grammar_unit_rules() {
    assert!(metric_name_ok("gsi_query_latency_us").is_ok());
    assert!(metric_name_ok("gsi_service_uptime_seconds").is_ok());
    assert!(metric_name_ok("gsi_query_replans_total").is_ok());
    assert!(
        metric_name_ok("gsi_us").is_err(),
        "unit alone has no quantity"
    );
    assert!(
        metric_name_ok("gsi_query__latency").is_err(),
        "empty segment"
    );
    assert!(metric_name_ok("gsi_Query_latency").is_err(), "case");
    assert!(metric_name_ok("queries_total").is_err(), "prefix");
}

// ---------------------------------------------------------------------------
// Check 5: lock-hygiene
// ---------------------------------------------------------------------------

#[test]
fn lock_hygiene_flags_order_inversion_and_unknown_fields() {
    let src = "\
impl S {
    fn inverted(&self) {
        let a = self.per_epoch.lock();
        let b = self.retired_epochs.lock();
    }
    fn unknown(&self) {
        self.mystery.lock();
    }
    fn ordered(&self) {
        let a = self.retired_epochs.lock();
        let b = self.per_epoch.lock();
    }
}
";
    let rep = report_for("crates/service/src/stats.rs", src);
    assert_eq!(rep.errors.len(), 2);
    assert!(rep.errors.iter().all(|f| f.check == Check::LockHygiene));
    assert_eq!(rep.errors[0].line, 4);
    assert!(rep.errors[0]
        .message
        .contains("violates the lock-order map"));
    assert_eq!(rep.errors[1].line, 7);
    assert!(rep.errors[1]
        .message
        .contains("not in the documented lock-order map"));
}

#[test]
fn lock_hygiene_releases_guards_at_block_end() {
    let src = "\
impl S {
    fn f(&self) {
        {
            let a = self.per_epoch.lock();
        }
        let b = self.retired_epochs.lock();
    }
}
";
    let rep = report_for("crates/service/src/stats.rs", src);
    assert!(rep.errors.is_empty(), "per_epoch guard died with its block");
}

// ---------------------------------------------------------------------------
// Allow annotations
// ---------------------------------------------------------------------------

#[test]
fn allow_annotation_suppresses_exactly_its_check() {
    let src = "\
pub fn a(v: Option<u32>) -> u32 {
    // gsi-lint: allow(panic-freedom, reason = \"fixture: audited invariant\")
    v.unwrap()
}
fn f(opts: &Opts) {
    let t = Instant::now();
}
";
    let rep = report_for("crates/core/src/fixture.rs", src);
    assert!(
        rep.panic_sites.is_empty(),
        "annotation covers the line below"
    );
    assert_eq!(rep.errors.len(), 1, "trace-gating is not covered by it");
    assert_eq!(rep.errors[0].check, Check::TraceGating);
}

#[test]
fn allow_annotation_reason_may_contain_parens_and_commas() {
    let src = "\
pub fn a(v: Option<u32>) -> u32 {
    // gsi-lint: allow(panic-freedom, reason = \"prepare() always builds it, by construction\")
    v.unwrap()
}
";
    let rep = report_for("crates/core/src/fixture.rs", src);
    assert!(rep.panic_sites.is_empty());
    assert!(rep.errors.is_empty());
}

#[test]
fn malformed_allow_annotations_are_hard_errors() {
    let cases = [
        ("// gsi-lint: allow(panic-freedom)\n", "needs `, reason"),
        (
            "// gsi-lint: allow(panics, reason = \"x\")\n",
            "unknown check",
        ),
        (
            "// gsi-lint: allow(panic-freedom, reason = \"\")\n",
            "empty reason",
        ),
        (
            "// gsi-lint: allow(annotation, reason = \"self-suppress\")\n",
            "unknown check",
        ),
    ];
    for (line, expect) in cases {
        let rep = report_for("crates/core/src/fixture.rs", line);
        assert_eq!(rep.errors.len(), 1, "for {line:?}");
        assert_eq!(rep.errors[0].check, Check::Annotation);
        assert!(
            rep.errors[0].message.contains(expect),
            "{:?} should mention {expect:?}",
            rep.errors[0].message
        );
    }
}

#[test]
fn doc_comments_describing_the_syntax_are_inert() {
    let src = "/// Suppress with `// gsi-lint: allow(panic-freedom)` — malformed on purpose.\nfn a() {}\n";
    let rep = report_for("crates/core/src/fixture.rs", src);
    assert!(rep.errors.is_empty());
}

// ---------------------------------------------------------------------------
// Ratchet semantics (library level)
// ---------------------------------------------------------------------------

const TWO_SITES: &str = "fn a(v: Option<u32>) { v.unwrap(); v.unwrap(); }\n";

fn baseline(path: &str, n: usize) -> Baseline {
    let mut counts = BTreeMap::new();
    counts.insert(path.to_string(), n);
    Baseline {
        panic_counts: counts,
    }
}

#[test]
fn ratchet_blocks_a_count_regression() {
    let path = "crates/service/src/fixture.rs";
    let report = lint_files([(path, TWO_SITES)], &baseline(path, 1));
    assert!(!report.clean());
    assert_eq!(report.ratchet_notes.len(), 1);
    assert!(report.ratchet_notes[0].contains("2 panic site(s) but the ratchet allows 1"));
    assert!(report.errors.is_empty(), "regressions are not hard errors");
    assert_eq!(
        report.ratchet_errors.len(),
        2,
        "sites surface with anchors on regression"
    );
}

#[test]
fn ratchet_accepts_a_matching_count() {
    let path = "crates/service/src/fixture.rs";
    let report = lint_files([(path, TWO_SITES)], &baseline(path, 2));
    assert!(report.clean());
}

#[test]
fn ratchet_flags_an_unlocked_improvement() {
    let path = "crates/service/src/fixture.rs";
    let report = lint_files([(path, TWO_SITES)], &baseline(path, 3));
    assert!(!report.clean(), "improvements must be locked in, not drift");
    assert!(report.ratchet_notes[0].contains("down from 3"));
    assert!(report.errors.is_empty());
    assert!(report.ratchet_errors.is_empty());
    let gone = lint_files([], &baseline(path, 3));
    assert!(!gone.clean(), "a deleted file still holds a baseline slot");
}

// ---------------------------------------------------------------------------
// Binary end-to-end: exit codes on fixture workspaces
// ---------------------------------------------------------------------------

fn run_lint(root: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gsi-lint"))
        .arg("--workspace")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn gsi-lint");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("exit code"), text)
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn binary_fails_on_a_ratchet_regression_with_anchored_findings() {
    let (code, text) = run_lint(&fixture("ws_regression"), &[]);
    assert_eq!(code, 1, "output was: {text}");
    assert!(
        text.contains("crates/service/src/bad.rs:3: [panic-freedom]"),
        "finding must be anchored to file:line; output was: {text}"
    );
    assert!(text.contains("ratchet allows 0"), "output was: {text}");
}

#[test]
fn binary_passes_a_workspace_that_matches_its_baseline() {
    let (code, text) = run_lint(&fixture("ws_clean"), &[]);
    assert_eq!(code, 0, "output was: {text}");
    assert!(
        text.contains("clean (1 files scanned)"),
        "output was: {text}"
    );
}

#[test]
fn binary_exits_2_on_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_gsi-lint"))
        .output()
        .expect("spawn gsi-lint");
    assert_eq!(
        out.status.code(),
        Some(2),
        "missing --workspace is a usage error"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_gsi-lint"))
        .args(["--workspace", "--frobnicate"])
        .output()
        .expect("spawn gsi-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn write_baseline_locks_in_the_current_counts() {
    // Copy the regression fixture into a scratch tree (fixtures stay
    // pristine), then tighten its baseline and re-lint.
    let scratch = std::env::temp_dir().join(format!(
        "gsi-lint-selftest-{}-write-baseline",
        std::process::id()
    ));
    let src_dir = scratch.join("crates/service/src");
    std::fs::create_dir_all(&src_dir).expect("scratch tree");
    std::fs::copy(
        fixture("ws_regression").join("crates/service/src/bad.rs"),
        src_dir.join("bad.rs"),
    )
    .expect("copy fixture source");

    // No baseline at all: the new site is a regression against zero.
    let (code, _) = run_lint(&scratch, &[]);
    assert_eq!(code, 1);

    let (code, text) = run_lint(&scratch, &["--write-baseline"]);
    assert_eq!(code, 0, "no hard findings, so writing succeeds: {text}");
    let written =
        std::fs::read_to_string(scratch.join("lint-baseline.toml")).expect("baseline written");
    assert!(written.contains("\"crates/service/src/bad.rs\" = 1"));

    let (code, text) = run_lint(&scratch, &[]);
    assert_eq!(code, 0, "pinned count now passes: {text}");

    std::fs::remove_dir_all(&scratch).ok();
}
