//! The one report schema, checked on a real experiment: `optimize` (the
//! fastest) runs twice into temp files.

use gsi_bench::experiments;
use gsi_bench::workloads::HarnessOpts;

const ROW_FIELDS: [&str; 7] = ["scope", "arm", "metric", "unit", "value", "better", "exact"];

fn run_optimize(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("gsi-schema-{tag}-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    let opts = HarnessOpts {
        scale: 0.2,
        ..HarnessOpts::default()
    };
    experiments::optimize(&opts, 0.0, 1.5, path).expect("every gate holds");
    let text = std::fs::read_to_string(path).expect("report written");
    std::fs::remove_file(path).expect("cleanup");
    text
}

/// The lines of the top-level array `key`: the report puts one element per
/// line between `"key": [` and the closing `]`.
fn array_lines<'a>(report: &'a str, key: &str) -> Vec<&'a str> {
    report
        .lines()
        .skip_while(|l| l.trim() != format!("\"{key}\": ["))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .collect()
}

#[test]
fn optimize_writes_the_one_schema_and_exact_rows_repeat() {
    let first = run_optimize("a");
    let second = run_optimize("b");

    // Exactly the six top-level keys, in order: the only lines indented by
    // two spaces that open with a quoted key.
    let top_level: Vec<&str> = first
        .lines()
        .filter(|l| l.starts_with("  \""))
        .filter_map(|l| l.trim_start().strip_prefix('"')?.split('"').next())
        .collect();
    assert_eq!(
        top_level,
        [
            "schema",
            "experiment",
            "description",
            "params",
            "rows",
            "gates"
        ]
    );
    assert!(first.contains("\"schema\": \"gsi-paper-report/1\""));
    assert!(first.contains("\"experiment\": \"optimize\""));

    let rows = array_lines(&first, "rows");
    assert!(rows.len() > 20, "three patterns x two arms x the run frame");
    for row in &rows {
        let keys: Vec<&str> = row
            .split("\":")
            .filter_map(|part| part.rsplit('"').next())
            .take(ROW_FIELDS.len())
            .collect();
        assert_eq!(keys, ROW_FIELDS, "row {row}");
    }

    let gates = array_lines(&first, "gates");
    assert!(!gates.is_empty());
    for gate in &gates {
        for field in ["\"name\":", "\"observed\":", "\"bar\":", "\"passed\":true"] {
            assert!(gate.contains(field), "gate {gate} lacks {field}");
        }
    }

    // Exact rows are pure functions of inputs and seed: the two runs agree
    // on them byte for byte, and there are some (device counters, work
    // units, matches); wall-clock rows are free to differ.
    let exact = |report: &'_ str| -> Vec<String> {
        array_lines(report, "rows")
            .into_iter()
            .filter(|r| r.contains("\"exact\":true"))
            .map(String::from)
            .collect()
    };
    assert!(exact(&first).len() > 10);
    assert_eq!(exact(&first), exact(&second));
    assert!(rows.iter().any(|r| r.contains("\"exact\":false")));
}
