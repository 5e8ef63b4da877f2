//! The five project-specific checks.
//!
//! Each check is a pure function over a preprocessed [`SourceFile`]; which
//! checks apply to a file is decided from its workspace-relative path, so
//! the self-test fixtures can opt into any check by presenting themselves
//! under a synthetic path.

use crate::scan::{boundary_before, SourceFile};

/// Identity of a lint check (also the name used in `allow(...)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Check {
    /// `unwrap()`/`expect(`/`panic!`/... in serving-path crates (ratcheted).
    PanicFreedom,
    /// Device-ledger mutation outside named charge helpers.
    ChargeDiscipline,
    /// `Instant::now()` outside trace-gated code in core hot paths.
    TraceGating,
    /// Metric names at registration sites must match the naming grammar.
    MetricGrammar,
    /// Nested `.lock()` acquisitions must follow the lock-order map.
    LockHygiene,
    /// Malformed `gsi-lint: allow(...)` annotations.
    Annotation,
}

impl Check {
    /// The kebab-case name used in annotations and output.
    pub fn name(self) -> &'static str {
        match self {
            Check::PanicFreedom => "panic-freedom",
            Check::ChargeDiscipline => "charge-discipline",
            Check::TraceGating => "trace-gating",
            Check::MetricGrammar => "metric-grammar",
            Check::LockHygiene => "lock-hygiene",
            Check::Annotation => "annotation",
        }
    }

    /// Parse an annotation's check name. `annotation` itself is not
    /// allowable: a malformed suppression must never self-suppress.
    pub fn from_name(s: &str) -> Option<Check> {
        match s {
            "panic-freedom" => Some(Check::PanicFreedom),
            "charge-discipline" => Some(Check::ChargeDiscipline),
            "trace-gating" => Some(Check::TraceGating),
            "metric-grammar" => Some(Check::MetricGrammar),
            "lock-hygiene" => Some(Check::LockHygiene),
            _ => None,
        }
    }
}

/// One lint finding, anchored to a file and 1-based line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub check: Check,
    pub path: String,
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.check.name(),
            self.message
        )
    }
}

/// Per-file result: hard errors plus the ratcheted panic sites.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that fail the build outright.
    pub errors: Vec<Finding>,
    /// Panic-freedom findings (compared against the ratchet baseline, not
    /// failed directly).
    pub panic_sites: Vec<Finding>,
}

/// Serving-path crates whose panic sites are ratcheted.
const SERVING_CRATES: [&str; 7] = [
    "crates/api/src",
    "crates/core/src",
    "crates/server/src",
    "crates/service/src",
    "crates/signature/src",
    "crates/graph/src",
    "crates/obs/src",
];

/// Files under `crates/core/src` holding the join-phase kernels that charge
/// the device ledger (charge discipline).
const CHARGE_FILES: [&str; 4] = ["set_ops.rs", "join.rs", "prealloc.rs", "two_step.rs"];

/// Functions that may touch the device ledger without a `charge_` name:
/// the streaming/probing primitives whose whole body *is* the charge model.
const CHARGE_ALLOWED_FNS: [&str; 2] = ["stream", "probe"];

/// Run every applicable check over one preprocessed file.
pub fn check_file(src: &SourceFile) -> FileReport {
    let mut rep = FileReport::default();
    rep.errors.extend(src.annotation_errors.iter().cloned());

    let path = src.path.as_str();
    let file_name = path.rsplit('/').next().unwrap_or(path);

    if SERVING_CRATES.iter().any(|c| path.contains(c)) {
        panic_freedom(src, &mut rep);
    }
    if path.contains("crates/core/src") && CHARGE_FILES.contains(&file_name) {
        charge_discipline(src, &mut rep);
    }
    if path.contains("crates/core/src") {
        trace_gating(src, &mut rep);
    }
    metric_grammar(src, &mut rep);
    if path.contains("crates/service/src") {
        lock_hygiene(src, &mut rep);
    }
    rep
}

// ---------------------------------------------------------------------------
// Check 1: panic-freedom
// ---------------------------------------------------------------------------

const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

fn panic_freedom(src: &SourceFile, rep: &mut FileReport) {
    for (idx, line) in src.lines.iter().enumerate() {
        let line_no = idx + 1;
        for tok in PANIC_TOKENS {
            for pos in occurrences(&line.code, tok) {
                // A leading `.` is its own boundary; for bare macros the
                // preceding byte must not extend an identifier (so `panic!`
                // does not match inside `dont_panic!`).
                if !tok.starts_with('.') && !boundary_before(&line.code, pos) {
                    continue;
                }
                if src.allowed(Check::PanicFreedom, line_no) {
                    continue;
                }
                rep.panic_sites.push(Finding {
                    check: Check::PanicFreedom,
                    path: src.path.clone(),
                    line: line_no,
                    message: format!("panic-capable `{tok}` on the serving path (ratcheted)"),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Check 2: charge-discipline
// ---------------------------------------------------------------------------

/// Tokens that mutate the device ledger: the `GpuStats` accessor and the
/// `DeviceVec` warp-stream methods. Inside a charge file these may only
/// appear in functions named `charge_*` (or the allowlisted streaming
/// primitives), so every kernel arm routes its charges through one named,
/// reviewable helper — the property the counter-equivalence fuzz gates
/// sample dynamically.
const LEDGER_TOKENS: [&str; 6] = [
    ".stats()",
    ".warp_read_one(",
    ".warp_write_one(",
    ".warp_read(",
    ".warp_write(",
    ".warp_gather(",
];

fn charge_discipline(src: &SourceFile, rep: &mut FileReport) {
    let mut fns = FnTracker::default();
    for (idx, line) in src.lines.iter().enumerate() {
        let line_no = idx + 1;
        fns.observe(&line.code);
        let mut claimed: Vec<(usize, usize)> = Vec::new();
        for tok in LEDGER_TOKENS {
            for pos in occurrences(&line.code, tok) {
                if claimed.iter().any(|&(s, e)| pos >= s && pos < e) {
                    continue; // `.warp_read_one(` already claimed `.warp_read(`'s prefix
                }
                claimed.push((pos, pos + tok.len()));
                let fn_name = fns.current();
                let ok = fn_name
                    .is_some_and(|f| f.starts_with("charge_") || CHARGE_ALLOWED_FNS.contains(&f));
                if ok || src.allowed(Check::ChargeDiscipline, line_no) {
                    continue;
                }
                rep.errors.push(Finding {
                    check: Check::ChargeDiscipline,
                    path: src.path.clone(),
                    line: line_no,
                    message: format!(
                        "device-ledger access `{tok}` outside a charge_* helper (in `{}`)",
                        fn_name.unwrap_or("<module scope>")
                    ),
                });
            }
        }
    }
}

/// Tracks the innermost enclosing `fn` by brace depth. Token-level: good
/// enough for the charge files' flat `fn`/closure structure (closures
/// belong to their enclosing named fn, which is exactly the attribution
/// the charge rule wants).
#[derive(Default)]
struct FnTracker {
    depth: usize,
    /// (body depth, fn name); innermost last.
    stack: Vec<(usize, String)>,
    /// A `fn name` seen whose body `{` has not opened yet.
    pending: Option<String>,
}

impl FnTracker {
    fn observe(&mut self, code: &str) {
        if let Some(name) = fn_decl_name(code) {
            self.pending = Some(name);
        }
        for b in code.bytes() {
            match b {
                b'{' => {
                    self.depth += 1;
                    if let Some(name) = self.pending.take() {
                        self.stack.push((self.depth, name));
                    }
                }
                b'}' => {
                    if self.stack.last().is_some_and(|(d, _)| *d == self.depth) {
                        self.stack.pop();
                    }
                    self.depth = self.depth.saturating_sub(1);
                }
                _ => {}
            }
        }
    }

    fn current(&self) -> Option<&str> {
        self.stack.last().map(|(_, n)| n.as_str())
    }
}

/// Extract the name from an `fn` declaration on this line, if any.
fn fn_decl_name(code: &str) -> Option<String> {
    for pos in occurrences(code, "fn ") {
        if !boundary_before(code, pos) {
            continue;
        }
        let rest = &code[pos + 3..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            return Some(name);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Check 3: trace-gating
// ---------------------------------------------------------------------------

fn trace_gating(src: &SourceFile, rep: &mut FileReport) {
    for (idx, line) in src.lines.iter().enumerate() {
        let line_no = idx + 1;
        for _pos in occurrences(&line.code, "Instant::now") {
            // A timestamp is fine when the same expression is gated on the
            // trace level (`opts.trace.is_on().then(Instant::now)`): the
            // Off path never evaluates it, preserving zero-cost-Off.
            if line.code.contains("is_on") {
                continue;
            }
            if src.allowed(Check::TraceGating, line_no) {
                continue;
            }
            rep.errors.push(Finding {
                check: Check::TraceGating,
                path: src.path.clone(),
                line: line_no,
                message: "ungated `Instant::now` in a core hot path (breaks zero-cost-Off tracing)"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Check 4: metric-grammar
// ---------------------------------------------------------------------------

/// Recognized unit segments (`gsi_<subsystem>_<quantity>[_<unit>][_total]`).
const UNITS: [&str; 5] = ["us", "ns", "ms", "seconds", "bytes"];

const REGISTRY_METHODS: [&str; 3] = [".counter(", ".gauge(", ".histogram("];

fn metric_grammar(src: &SourceFile, rep: &mut FileReport) {
    for (idx, line) in src.lines.iter().enumerate() {
        let line_no = idx + 1;
        for m in REGISTRY_METHODS {
            for pos in occurrences(&line.code, m) {
                // The name is the first string literal at/after the call,
                // possibly on a following line (rustfmt wraps these).
                let Some((lit_line, name)) = first_literal(src, idx, pos) else {
                    continue;
                };
                if src.allowed(Check::MetricGrammar, line_no)
                    || src.allowed(Check::MetricGrammar, lit_line)
                {
                    continue;
                }
                if let Err(why) = metric_name_ok(&name) {
                    rep.errors.push(Finding {
                        check: Check::MetricGrammar,
                        path: src.path.clone(),
                        line: lit_line,
                        message: format!(
                            "metric name `{name}` violates `gsi_<subsystem>_<quantity>[_<unit>][_total]`: {why}"
                        ),
                    });
                }
            }
        }
    }
}

/// Find the first string literal at or after byte `pos` of line `idx`,
/// searching a few lines ahead. Returns (1-based line, literal contents
/// with `format!` placeholders replaced by a dummy segment).
fn first_literal(src: &SourceFile, idx: usize, pos: usize) -> Option<(usize, String)> {
    for (off, line) in src.lines.iter().enumerate().skip(idx).take(4) {
        let text = &line.text;
        let from = if off == idx { pos } else { 0 };
        let Some(q) = text[from.min(text.len())..].find('"') else {
            continue;
        };
        let start = from + q + 1;
        let end = text[start..].find('"')? + start;
        let raw = &text[start..end];
        // `format!("gsi_stage_{stage}_us_total", ...)`: a placeholder
        // stands for one lowercase segment, so substitute a dummy one.
        let mut name = String::with_capacity(raw.len());
        let mut chars = raw.chars();
        while let Some(c) = chars.next() {
            if c == '{' {
                for c2 in chars.by_ref() {
                    if c2 == '}' {
                        break;
                    }
                }
                name.push('x');
            } else {
                name.push(c);
            }
        }
        return Some((off + 1, name));
    }
    None
}

/// Validate a metric name against the grammar. The unit and `_total`
/// suffixes are stripped first, then at least two segments (subsystem and
/// quantity) must remain.
pub fn metric_name_ok(name: &str) -> Result<(), String> {
    let Some(rest) = name.strip_prefix("gsi_") else {
        return Err("missing `gsi_` prefix".to_string());
    };
    let mut segs: Vec<&str> = rest.split('_').collect();
    for s in &segs {
        if s.is_empty() {
            return Err("empty segment (doubled or trailing underscore)".to_string());
        }
        let mut cs = s.chars();
        let first_ok = cs.next().is_some_and(|c| c.is_ascii_lowercase());
        if !first_ok || !cs.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()) {
            return Err(format!("segment `{s}` is not lowercase snake_case"));
        }
    }
    if segs.last() == Some(&"total") {
        segs.pop();
    }
    if segs.last().is_some_and(|s| UNITS.contains(s)) {
        segs.pop();
    }
    if segs.len() < 2 {
        return Err("needs both a subsystem and a quantity segment".to_string());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Check 5: lock-hygiene
// ---------------------------------------------------------------------------

/// The documented lock-order map for `crates/service`: when two of these
/// locks are ever held together, they must be acquired left-to-right.
/// The one real nesting is `ServiceStats::retire_epoch`, which takes
/// `retired_epochs` then `per_epoch`; the scheduler queue's `state` and
/// the plan cache's `inner` are each taken alone. (Metrics are registry
/// handles and device work arrives in each query's own ledger — atomics,
/// no lock.) A `.lock()` on a field that is not listed here is itself an
/// error: the map must grow with the code.
pub const LOCK_ORDER: [&str; 4] = ["retired_epochs", "per_epoch", "state", "inner"];

fn lock_rank(field: &str) -> Option<usize> {
    LOCK_ORDER.iter().position(|f| *f == field)
}

fn lock_hygiene(src: &SourceFile, rep: &mut FileReport) {
    let mut depth: usize = 0;
    /// A lock known to be held: (block depth it lives at, field, line).
    struct Guard {
        depth: usize,
        field: String,
        line: usize,
    }
    let mut guards: Vec<Guard> = Vec::new(); // let-bound, live to block end
    let mut stmt: Vec<(String, usize)> = Vec::new(); // temporaries, live to `;`

    for (idx, line) in src.lines.iter().enumerate() {
        let line_no = idx + 1;
        let code = &line.code;

        for pos in occurrences(code, ".lock()") {
            let field = ident_before(code, pos);
            if src.allowed(Check::LockHygiene, line_no) {
                continue;
            }
            let Some(rank) = lock_rank(&field) else {
                rep.errors.push(Finding {
                    check: Check::LockHygiene,
                    path: src.path.clone(),
                    line: line_no,
                    message: format!(
                        "`.lock()` on `{field}`, which is not in the documented lock-order map"
                    ),
                });
                continue;
            };
            let held = guards
                .iter()
                .map(|g| (g.field.as_str(), g.line))
                .chain(stmt.iter().map(|(f, l)| (f.as_str(), *l)));
            for (hfield, hline) in held {
                if hfield == field {
                    rep.errors.push(Finding {
                        check: Check::LockHygiene,
                        path: src.path.clone(),
                        line: line_no,
                        message: format!(
                            "`{field}` locked again while already held (guard from line {hline})"
                        ),
                    });
                } else if lock_rank(hfield).is_some_and(|hr| hr > rank) {
                    rep.errors.push(Finding {
                        check: Check::LockHygiene,
                        path: src.path.clone(),
                        line: line_no,
                        message: format!(
                            "`{field}` acquired while holding `{hfield}` (line {hline}) — \
                             violates the lock-order map"
                        ),
                    });
                }
            }
            stmt.push((field, line_no));
        }

        // Update brace depth, releasing let-bound guards when their block
        // closes.
        for b in code.bytes() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                }
                _ => {}
            }
        }

        // A statement of the exact shape `let [mut] name = <path>.lock();`
        // binds the guard: it stays held to the end of the block. Any
        // other statement drops its lock temporaries at the `;`.
        let trimmed = code.trim();
        let ends_stmt = trimmed.ends_with(';') || trimmed.ends_with('{') || trimmed.ends_with('}');
        if trimmed.starts_with("let ") && trimmed.ends_with(".lock();") {
            if let Some((field, line)) = stmt.pop() {
                guards.push(Guard { depth, field, line });
            }
        }
        if ends_stmt {
            stmt.clear();
        }
    }
}

/// The identifier ending at byte `pos` (e.g. the field in
/// `self.per_epoch.lock()`).
fn ident_before(code: &str, pos: usize) -> String {
    let bytes = code.as_bytes();
    let mut start = pos;
    while start > 0 {
        let b = bytes[start - 1];
        if b.is_ascii_alphanumeric() || b == b'_' {
            start -= 1;
        } else {
            break;
        }
    }
    code[start..pos].to_string()
}

// ---------------------------------------------------------------------------

/// Byte offsets of every occurrence of `needle` in `hay`.
fn occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        out.push(from + p);
        from += p + needle.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::CHARGE_FILES;
    use std::path::Path;

    /// A renamed or deleted kernel file must fail here, not silently drop
    /// out of the charge-discipline check.
    #[test]
    fn every_charge_file_exists_in_gsi_core() {
        let core_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src");
        for file in CHARGE_FILES {
            assert!(
                core_src.join(file).is_file(),
                "charge-discipline file `{file}` is not in crates/core/src"
            );
        }
    }
}
