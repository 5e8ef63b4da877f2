//! Command line of the benchmark.
//!
//! ```text
//! gsi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--smoke] [--save <set.tsv>] [--out-dir <dir>]
//! gsi-benchmark compare <setA.tsv> <setB.tsv>
//! ```

use gsi_benchmark::run::{run, Options};
use gsi_benchmark::{compare, report, workloads};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  gsi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--save <set.tsv>] [--out-dir <dir>]
  gsi-benchmark compare <setA.tsv> <setB.tsv>";

struct RunArgs {
    opts: Options,
    save: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut save) = (false, None);
    let mut out_dir = PathBuf::from("benchmark/target/trace");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.to_string()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            "--save" => save = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workloads::workload(&workload, smoke).is_none() {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(RunArgs {
        opts: Options {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
            out_dir,
        },
        save,
    })
}

fn main_run(args: &[String]) -> Result<ExitCode, String> {
    let RunArgs { opts, save } = parse_run(args)?;
    let result = run(&opts)?;
    if let Some(path) = &save {
        report::append_tsv(path, &result).map_err(|e| format!("save {}: {e}", path.display()))?;
    }
    report::print(&result, &mut std::io::stdout().lock()).map_err(|e| format!("stdout: {e}"))?;
    // Wrong results are a failed run, whatever the timings say.
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {p}: {e}"))
            .and_then(|text| report::parse_tsv(&text).map_err(|e| format!("{p}: {e}")))
    };
    let lines = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", compare::render(&lines));
    Ok(if lines.iter().any(|l| l.verdict == "regressed") {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => main_compare(&args[1..]),
        Some("-h" | "--help") | None => Err(USAGE.to_string()),
        Some(_) => main_run(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
