//! `gsi-lint`: project-native static analysis for the GSI workspace.
//!
//! A rustc-`tidy`-style pass — hand-rolled line/token scanning, zero
//! dependencies — that mechanically enforces the invariants the fuzz
//! gates only sample:
//!
//! 1. **panic-freedom** — panic-capable calls in serving-path crates are
//!    ratcheted against [`lint-baseline.toml`](baseline::Baseline).
//! 2. **charge-discipline** — device-ledger mutation in the join-phase
//!    kernels only inside named `charge_*` helpers.
//! 3. **trace-gating** — no ungated `Instant::now` in core hot paths.
//! 4. **metric-grammar** — metric names validated at lint time, not at
//!    scrape time.
//! 5. **lock-hygiene** — nested `.lock()` acquisitions follow the
//!    documented lock-order map.
//!
//! Any finding can be suppressed in place with
//! `// gsi-lint: allow(<check>, reason = "...")` on the offending line or
//! the line above; the reason is mandatory.

pub mod baseline;
pub mod checks;
pub mod scan;

pub use baseline::Baseline;
pub use checks::{check_file, metric_name_ok, Check, FileReport, Finding, LOCK_ORDER};
pub use scan::SourceFile;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Result of linting a set of files against a baseline.
#[derive(Debug, Default)]
pub struct Report {
    /// Hard errors (every check except the ratcheted panic-freedom).
    pub errors: Vec<Finding>,
    /// Panic sites surfaced because their file regressed the ratchet.
    /// Kept apart from `errors` so `--write-baseline` can re-pin them
    /// without being failed by the very counts it is recording.
    pub ratchet_errors: Vec<Finding>,
    /// Extra ratchet diagnostics (not tied to one line).
    pub ratchet_notes: Vec<String>,
    /// Current panic-site counts per file (for `--write-baseline`).
    pub panic_counts: BTreeMap<String, usize>,
    /// Total files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the lint run passes.
    pub fn clean(&self) -> bool {
        self.errors.is_empty() && self.ratchet_errors.is_empty() && self.ratchet_notes.is_empty()
    }
}

/// Lint `(path, content)` pairs against `baseline`. Paths are the
/// workspace-relative strings used both for check applicability and in
/// findings.
pub fn lint_files<'a>(
    files: impl IntoIterator<Item = (&'a str, &'a str)>,
    baseline: &Baseline,
) -> Report {
    let mut report = Report::default();
    for (path, content) in files {
        let src = SourceFile::new(path, content);
        let file_report = check_file(&src);
        report.files_scanned += 1;
        report.errors.extend(file_report.errors);

        let count = file_report.panic_sites.len();
        if count > 0 {
            report.panic_counts.insert(path.to_string(), count);
        }
        let allowed = baseline.panic_counts.get(path).copied().unwrap_or(0);
        if count > allowed {
            report.ratchet_notes.push(format!(
                "{path}: {count} panic site(s) but the ratchet allows {allowed} — \
                 new panic-capable calls on the serving path"
            ));
            report.ratchet_errors.extend(file_report.panic_sites);
        } else if count < allowed {
            report.ratchet_notes.push(format!(
                "{path}: {count} panic site(s), down from {allowed} — \
                 lock the improvement in with --write-baseline"
            ));
        }
    }
    // Files that disappeared (or dropped to zero sites) still hold a
    // baseline slot; flag them so the ratchet tightens.
    for (path, allowed) in &baseline.panic_counts {
        if *allowed > 0 && !report.panic_counts.contains_key(path) {
            report.ratchet_notes.push(format!(
                "{path}: 0 panic site(s), down from {allowed} — \
                 lock the improvement in with --write-baseline"
            ));
        }
    }
    report
}

/// Collect the workspace source files to lint, as paths relative to
/// `root`. First-party code only: `crates/*/src/**/*.rs`, skipping test
/// trees, benches, examples, and fixtures (test *modules* inside source
/// files are skipped by the scanner itself).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut out)?;
        }
    }
    out.sort();
    Ok(out
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(Path::to_path_buf))
        .collect())
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "tests" | "benches" | "examples" | "fixtures") {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run a full workspace lint rooted at `root`, reading the baseline from
/// `baseline_path` (missing file = empty baseline).
pub fn lint_workspace(root: &Path, baseline_path: &Path) -> Result<Report, String> {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(text) => {
            Baseline::parse(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return Err(format!("{}: {e}", baseline_path.display())),
    };
    let files = workspace_files(root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let mut loaded = Vec::with_capacity(files.len());
    for rel in files {
        let content = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("{}: {e}", rel.display()))?;
        // Paths in findings are `/`-separated regardless of platform so
        // the baseline file is portable.
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        loaded.push((rel_str, content));
    }
    Ok(lint_files(
        loaded.iter().map(|(p, c)| (p.as_str(), c.as_str())),
        &baseline,
    ))
}
