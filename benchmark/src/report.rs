//! What a run prints and saves.
//!
//! Standard output ends with the one JSON object the driver reads
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it name
//! every metric with its unit for a human, plus the `pool_digest`. A
//! result set for `compare` is a tab-separated file that `--save` appends
//! one row per metric to.

use crate::run::Report;
use std::io::{self, Write};
use std::path::Path;

/// A float with all its digits, as JSON (never NaN or infinite here: a
/// non-finite measurement is reported as 0 and fails nothing silently —
/// every caller divides only by checked non-zero denominators).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The final line of standard output.
pub fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Print the human-readable report, then the JSON line.
pub fn print(r: &Report, out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "workload {} seed {} trace {} pool_digest {}",
        r.workload,
        r.seed,
        u8::from(r.trace),
        r.pool_digest
    )?;
    for note in &r.notes {
        writeln!(out, "  {note}")?;
    }
    for m in &r.metrics {
        writeln!(out, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit)?;
    }
    if let Some(path) = &r.span_file {
        writeln!(out, "  spans written to {}", path.display())?;
    }
    writeln!(out, "{}", json_line(r))
}

/// One saved measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub pool_digest: String,
    pub metric: String,
    pub unit: String,
    pub value: f64,
}

/// Append the run's metrics to a result-set file.
pub fn append_tsv(path: &Path, r: &Report) -> io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for m in &r.metrics {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.workload,
            r.seed,
            u8::from(r.trace),
            r.pool_digest,
            m.name,
            m.unit,
            num(m.value)
        )?;
    }
    f.flush()
}

/// Parse a result-set file; a malformed line is an error, not skipped.
pub fn parse_tsv(text: &str) -> Result<Vec<Row>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, line)| {
            let bad = |what: &str| format!("line {}: {what}: {line:?}", i + 1);
            let f: Vec<&str> = line.split('\t').collect();
            let [workload, seed, trace, digest, metric, unit, value] = f[..] else {
                return Err(bad("expected 7 tab-separated fields"));
            };
            Ok(Row {
                workload: workload.to_string(),
                seed: seed.parse().map_err(|_| bad("bad seed"))?,
                trace: match trace {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("bad trace flag")),
                },
                pool_digest: digest.to_string(),
                metric: metric.to_string(),
                unit: unit.to_string(),
                value: value.parse().map_err(|_| bad("bad value"))?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Value;

    fn report() -> Report {
        Report {
            workload: "wire-light",
            seed: 3,
            trace: false,
            pool_digest: "00ff".to_string(),
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Value {
                    name: "latency_p50_ms",
                    unit: "ms",
                    value: 1.2034,
                },
                Value {
                    name: "setup_s",
                    unit: "s",
                    value: 0.8127,
                },
            ],
            notes: vec!["note".to_string()],
            span_file: None,
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        assert_eq!(
            json_line(&report()),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn the_json_line_is_printed_last() {
        let mut out = Vec::new();
        print(&report(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("pool_digest 00ff"));
        assert_eq!(text.lines().last().unwrap(), json_line(&report()));
    }

    #[test]
    fn saved_rows_parse_back() {
        // Inside the package's own git-ignored target directory.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/test-out/report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.tsv");
        let _ = std::fs::remove_file(&path);
        append_tsv(&path, &report()).unwrap();
        append_tsv(&path, &report()).unwrap();
        let rows = parse_tsv(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[1].metric, "setup_s");
        assert_eq!(rows[1].value, 0.8127);
        assert_eq!(rows[0].pool_digest, "00ff");
        assert!(parse_tsv("a\tb").is_err());
    }
}
