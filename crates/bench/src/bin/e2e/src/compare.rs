//! Noise calibration and two-commit comparison.
//!
//! `--calibrate K` runs every workload K times, each in its own process and
//! with its own seed, prints each metric's median, IQR, min and max, and
//! appends the raw results (one JSON object per line) to `--out`.
//!
//! `compare A B` reads two such files — A from the parent commit, B from
//! the change, run as pairs with the same seeds and alternating which side
//! goes first — and applies the rule of choosing-metrics §8 to every
//! workload × end-to-end metric: a gain needs B to win at least nine in ten
//! pairs and to move the median by more than A's own quartile spread; a
//! metric whose spread exceeds its bound is unresolved unless every B run
//! beats every A run; otherwise B may not be worse than A by more than the
//! bound `BENCHMARK.json` fixes.

use crate::json::Json;
use crate::stats::{median, quartiles, relative_iqr};
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// Runs the benchmark's own executable for one workload and returns the
/// parsed result line.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    echo: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!("{} (seed {seed}) failed: {}", workload.name(), output.status));
    }
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
    Json::parse(last).map_err(|e| format!("{}: unreadable result line: {e}", workload.name()))
}

/// Runs each workload in its own process, one after another.
pub fn run_all(seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    for w in Workload::ALL {
        run_child(w, seed, seconds, trace, true)?;
    }
    Ok(())
}

fn metric_values(result: &Json) -> Vec<(String, f64)> {
    result
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// Runs `k` processes per workload with seeds `seed..seed+k`, prints each
/// metric's spread, and appends every result to `out`.
pub fn calibrate(
    workloads: &[Workload],
    k: u64,
    seed: u64,
    seconds: u64,
    out: Option<&Path>,
) -> Result<(), String> {
    let mut file = match out {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let mut summary = Vec::new();
    for &w in workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut order = Vec::new();
        for s in seed..seed + k {
            eprintln!("calibrating {} with seed {s}", w.name());
            let result = run_child(w, s, seconds, false, false)?;
            if result.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{} (seed {s}) reported incorrect output", w.name()));
            }
            for (name, v) in metric_values(&result) {
                if !values.contains_key(&name) {
                    order.push(name.clone());
                }
                values.entry(name).or_default().push(v);
            }
            if let Some(f) = file.as_mut() {
                let line = Json::Obj(vec![
                    ("workload".into(), Json::Str(w.name().into())),
                    ("seed".into(), Json::Num(s as f64)),
                    ("result".into(), result),
                ]);
                writeln!(f, "{line}").map_err(|e| format!("cannot write results: {e}"))?;
            }
        }
        for name in order {
            summary.push((w, name.clone(), values.remove(&name).unwrap_or_default()));
        }
    }
    println!(
        "\n{:<16} {:<14} {:>14} {:>14} {:>8} {:>14} {:>14}",
        "workload", "metric", "median", "IQR", "IQR %", "min", "max"
    );
    for (w, name, v) in summary {
        let (q1, q3) = quartiles(&v);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{:<16} {:<14} {:>14.4} {:>14.4} {:>7.2}% {:>14.4} {:>14.4}",
            w.name(),
            name,
            median(&v),
            q3 - q1,
            100.0 * relative_iqr(&v),
            min,
            max
        );
    }
    Ok(())
}

/// One calibration run read back: workload, seed, metric values.
type Run = (String, u64, Vec<(String, f64)>);

fn read_runs(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            let workload =
                v.get("workload").and_then(Json::as_str).ok_or("run without workload")?;
            let seed = v.get("seed").and_then(Json::as_f64).ok_or("run without seed")? as u64;
            let result = v.get("result").ok_or("run without result")?;
            Ok((workload.to_string(), seed, metric_values(result)))
        })
        .collect()
}

/// An end-to-end metric's direction and regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The `end_to_end` entries of a `BENCHMARK.json` document.
pub fn read_bounds(doc: &Json) -> Result<Vec<Bound>, String> {
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m.get("name").and_then(Json::as_str).ok_or("metric without name")?.into(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// The §8 verdict on one workload × metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Share of pairs the change won (ties count for neither side).
    pub win_share: f64,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Parent quartile spread as a share of its median.
    pub parent_spread: f64,
    /// `better`, `worse`, `flat` or `unresolved`.
    pub verdict: &'static str,
}

/// Applies §8 to paired runs `a` (parent) and `b` (change).
///
/// # Panics
/// Panics on empty inputs.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let better = |x: f64, y: f64| if bound.higher_is_better { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&pa, &pb)| better(pb, pa)).count();
    let win_share = wins as f64 / pairs as f64;
    let (parent, change) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let parent_spread = relative_iqr(a);
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let worse_by = if bound.higher_is_better { parent - change } else { change - parent };
    let clear_win = win_share >= 0.9 && (change - parent).abs() > q3 - q1 && better(change, parent);
    let verdict = if clear_win || all_better {
        "better"
    } else if parent_spread > bound.bound {
        "unresolved"
    } else if worse_by > bound.bound * parent.abs() {
        "worse"
    } else {
        "flat"
    };
    Verdict { win_share, parent, change, parent_spread, verdict }
}

/// Prints one row per workload × end-to-end metric comparing `a` with `b`.
pub fn compare(a: &Path, b: &Path, bounds: &Path) -> Result<(), String> {
    let doc = std::fs::read_to_string(bounds)
        .map_err(|e| format!("cannot read {}: {e}", bounds.display()))
        .and_then(|t| Json::parse(&t))?;
    let bounds = read_bounds(&doc)?;
    let (runs_a, runs_b) = (read_runs(a)?, read_runs(b)?);
    let mut workloads: Vec<&str> = Vec::new();
    for (w, _, _) in &runs_a {
        if !workloads.contains(&w.as_str()) {
            workloads.push(w);
        }
    }
    println!(
        "{:<16} {:<14} {:>13} {:>13} {:>8} {:>9} {:>6} {:>6}  verdict",
        "workload", "metric", "parent", "change", "delta", "parent±", "wins", "bound"
    );
    let mut regressed = false;
    for w in workloads {
        let side = |runs: &[Run]| -> Vec<(u64, Vec<(String, f64)>)> {
            runs.iter().filter(|(rw, _, _)| rw == w).map(|(_, s, m)| (*s, m.clone())).collect()
        };
        let (sa, sb) = (side(&runs_a), side(&runs_b));
        if sa.len() != sb.len() || sa.iter().zip(&sb).any(|(x, y)| x.0 != y.0) {
            return Err(format!("{w}: the two files must pair the same seeds in the same order"));
        }
        for bound in &bounds {
            let pick = |runs: &[(u64, Vec<(String, f64)>)]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|(_, m)| m.iter().find(|(n, _)| *n == bound.name).map(|(_, v)| *v))
                    .collect()
            };
            let (va, vb) = (pick(&sa), pick(&sb));
            if va.is_empty() || va.len() != vb.len() {
                continue;
            }
            let v = judge(&va, &vb, bound);
            regressed |= v.verdict == "worse";
            println!(
                "{:<16} {:<14} {:>13.4} {:>13.4} {:>7.2}% {:>8.2}% {:>5.0}% {:>5.0}%  {}",
                w,
                bound.name,
                v.parent,
                v.change,
                100.0 * (v.change / v.parent - 1.0),
                100.0 * v.parent_spread,
                100.0 * v.win_share,
                100.0 * bound.bound,
                v.verdict
            );
        }
    }
    if regressed {
        Err("at least one metric regressed beyond its bound".into())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound { name: "round_us_p50".into(), higher_is_better: false, bound }
    }

    #[test]
    fn a_clear_win_is_better() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let v = judge(&a, &b, &lower(0.1));
        assert_eq!(v.verdict, "better");
        assert_eq!(v.win_share, 1.0);
    }

    #[test]
    fn noise_within_the_bound_is_flat() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let b = [10.1, 10.0, 10.0, 10.2, 9.9, 10.1, 10.0, 10.2, 10.1, 10.0];
        assert_eq!(judge(&a, &b, &lower(0.1)).verdict, "flat");
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let b: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(judge(&a, &b, &lower(0.1)).verdict, "worse");
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let a = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let b = [6.0, 14.0, 9.0, 12.0, 10.0, 6.0, 15.0, 8.0, 11.0, 10.0];
        assert_eq!(judge(&a, &b, &lower(0.1)).verdict, "unresolved");
    }

    #[test]
    fn bounds_come_from_the_benchmark_file() {
        let doc = Json::parse(
            r#"{"end_to_end": [
                {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let b = read_bounds(&doc).unwrap();
        assert_eq!(b.len(), 2);
        assert!(b[0].higher_is_better);
        assert_eq!(b[1].bound, 0.25);
    }
}
