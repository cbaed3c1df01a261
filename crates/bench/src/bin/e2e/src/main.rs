//! `e2e` — the repository's end-to-end benchmark: the paper's Fig. 3 crawl
//! plus four variants, timed end to end and layer by layer from outside.
//!
//! ```text
//! e2e --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
//! e2e --all [--seed N] [--seconds S] [--trace [0|1]]
//! e2e --calibrate K [--workload NAME] [--seed N] [--seconds S] [--out FILE]
//! e2e compare PARENT.jsonl CHANGE.jsonl [--bounds BENCHMARK.json]
//! ```
//!
//! A run prints every metric with its unit, then, as its last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Untraced
//! runs report the end-to-end metrics; `--trace` runs report the per-layer
//! metrics. A run whose outputs fail a check exits 1 with no metrics. See
//! README.md beside this file for the workloads, metrics and bounds.

mod compare;
mod host;
mod json;
mod probe;
mod replay;
mod run;
mod stats;
mod workload;

use json::Json;
use run::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;

#[derive(Debug, PartialEq)]
enum Cmd {
    Run { workload: Workload, seed: u64, seconds: u64, trace: bool },
    All { seed: u64, seconds: u64, trace: bool },
    Calibrate { workload: Option<Workload>, k: u64, seed: u64, seconds: u64, out: Option<PathBuf> },
    Compare { a: PathBuf, b: PathBuf, bounds: PathBuf },
}

const USAGE: &str = "usage:
  e2e --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
  e2e --all [--seed N] [--seconds S] [--trace [0|1]]
  e2e --calibrate K [--workload NAME] [--seed N] [--seconds S] [--out FILE]
  e2e compare PARENT.jsonl CHANGE.jsonl [--bounds BENCHMARK.json]
workloads: fig3-inproc fig3-wire-paged fleet-overlap conj-inproc conj-journaled";

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let number = |v: Option<&String>, flag: &str| -> Result<u64, String> {
        v.and_then(|s| s.parse().ok()).ok_or_else(|| format!("{flag} needs a whole number"))
    };
    if args.first().map(String::as_str) == Some("compare") {
        let (mut files, mut bounds) = (Vec::new(), PathBuf::from("BENCHMARK.json"));
        let mut it = args[1..].iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--bounds" => bounds = it.next().ok_or("--bounds needs a path")?.into(),
                f => files.push(PathBuf::from(f)),
            }
        }
        let [a, b]: [PathBuf; 2] =
            files.try_into().map_err(|_| "compare needs exactly two result files")?;
        return Ok(Cmd::Compare { a, b, bounds });
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, DEFAULT_SECONDS, false);
    let (mut all, mut calibrate, mut out) = (false, None, None);
    let mut i = 0;
    while i < args.len() {
        let next = args.get(i + 1);
        match args[i].as_str() {
            "--workload" => {
                let name = next.ok_or("--workload needs a name")?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
                i += 1;
            }
            "--seed" => {
                seed = number(next, "--seed")?;
                i += 1;
            }
            "--seconds" => {
                seconds = number(next, "--seconds")?;
                i += 1;
            }
            "--trace" => match next.map(String::as_str) {
                Some("0") | Some("1") => {
                    trace = next.map(String::as_str) == Some("1");
                    i += 1;
                }
                _ => trace = true,
            },
            "--all" => all = true,
            "--calibrate" => {
                calibrate = Some(number(next, "--calibrate")?);
                i += 1;
            }
            "--out" => {
                out = Some(PathBuf::from(next.ok_or("--out needs a path")?));
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    match (calibrate, all, workload) {
        (Some(k), false, workload) if k >= 1 => {
            Ok(Cmd::Calibrate { workload, k, seed, seconds, out })
        }
        (None, true, None) => Ok(Cmd::All { seed, seconds, trace }),
        (None, false, Some(workload)) => Ok(Cmd::Run { workload, seed, seconds, trace }),
        _ => Err("give exactly one of --workload, --all or --calibrate K".into()),
    }
}

/// Prints the human-readable report and the result line.
fn report(workload: Workload, seed: u64, trace: bool, outcome: &Outcome) -> bool {
    let mode = if trace { "traced" } else { "end-to-end" };
    println!("e2e {} (seed {seed}, {mode})", workload.name());
    for note in &outcome.notes {
        println!("  {note}");
    }
    for f in &outcome.failures {
        println!("  CHECK FAILED: {f}");
    }
    let correct = outcome.failures.is_empty();
    let metrics = if correct {
        for m in &outcome.metrics {
            println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        outcome
            .metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect()
    } else {
        // A run that fails a check reports no timings.
        Vec::new()
    };
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(outcome.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(outcome.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    );
    correct
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        Cmd::Run { workload, seed, seconds, trace } => {
            let outcome = if trace {
                run::trace(workload, seed, seconds)
            } else {
                run::measure(workload, seed, seconds)
            };
            match outcome {
                Ok(o) if report(workload, seed, trace, &o) => Ok(()),
                Ok(_) => Err("outputs failed the correctness checks".to_string()),
                Err(e) => Err(e),
            }
        }
        Cmd::All { seed, seconds, trace } => compare::run_all(seed, seconds, trace),
        Cmd::Calibrate { workload, k, seed, seconds, out } => {
            let workloads = workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            compare::calibrate(&workloads, k, seed, seconds, out.as_deref())
        }
        Cmd::Compare { a, b, bounds } => compare::compare(&a, &b, &bounds),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cmd = parse_args(&args("--workload fig3-inproc --seed 7 --seconds 10 --trace 0"));
        assert_eq!(
            cmd,
            Ok(Cmd::Run { workload: Workload::Fig3Inproc, seed: 7, seconds: 10, trace: false })
        );
        let cmd = parse_args(&args("--workload conj-journaled --trace 1"));
        assert!(matches!(cmd, Ok(Cmd::Run { trace: true, seed: 1, .. })));
        let cmd = parse_args(&args("--workload conj-inproc --trace"));
        assert!(matches!(cmd, Ok(Cmd::Run { trace: true, .. })));
    }

    #[test]
    fn parses_the_other_modes() {
        assert!(matches!(parse_args(&args("--all --trace")), Ok(Cmd::All { trace: true, .. })));
        assert!(matches!(
            parse_args(&args("--calibrate 5 --out runs.jsonl")),
            Ok(Cmd::Calibrate { k: 5, workload: None, out: Some(_), .. })
        ));
        assert!(matches!(parse_args(&args("compare a.jsonl b.jsonl")), Ok(Cmd::Compare { .. })));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload fig3-inproc --all",
            "--seed x --all",
            "--all --seconds 0",
            "--calibrate 0",
            "compare only-one.jsonl",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.name().chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
