//! `dwc fleet --tenants`: a weighted-fair fleet prints one usage line per
//! tenant, and the tenants' rounds sum to the fleet's elapsed rounds; a
//! malformed tenant spec is refused with the bad entry named.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const DWC: &str = env!("CARGO_BIN_EXE_dwc");

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dwc-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn dwc(args: &[&str]) -> Output {
    Command::new(DWC).args(args).output().expect("run dwc")
}

/// Generates the IMDB preset at scale 0.01, seed 2, into `dir`.
fn generate_imdb(dir: &Path) -> String {
    let csv = dir.join("imdb.csv").to_str().expect("UTF-8 path").to_string();
    let out = dwc(&["generate", "imdb", "--scale", "0.01", "--seed", "2", "--out", &csv]);
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    csv
}

/// A weighted-fair `dwc fleet` of three Director crawls under `tenants`.
fn fleet(csv: &str, tenants: &str) -> Output {
    dwc(&[
        "fleet",
        csv,
        "--allocation",
        "weighted-fair",
        "--tenants",
        tenants,
        "--budget",
        "1500",
        "--seed-value",
        "Director=Director_1",
        "--seed-value",
        "Director=Director_7",
        "--seed-value",
        "Director=Director_30",
    ])
}

/// Splits `"828 rounds"` into its count and unit.
fn count_and_unit(field: &str) -> (u64, &str) {
    let (count, unit) = field.split_once(' ').unwrap_or_else(|| panic!("field {field:?}"));
    (count.parse().unwrap_or_else(|_| panic!("count in {field:?}")), unit)
}

#[test]
fn tenant_ledger_lines_sum_to_the_fleet_rounds() {
    let dir = scratch_dir("fleet-tenants");
    let out = fleet(&generate_imdb(&dir), "2:800,1");
    assert!(out.status.success(), "dwc fleet failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);

    // "fleet: 3 jobs, R records, E elapsed rounds"
    let fleet_line = stdout.lines().find(|l| l.starts_with("fleet:")).expect("fleet line");
    let elapsed = fleet_line
        .strip_suffix(" elapsed rounds")
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("elapsed rounds in {fleet_line:?}"));

    // "tenant N: R rounds / P pages / K preemptions"
    let tenants: Vec<&str> =
        stdout.lines().map(str::trim).filter(|l| l.starts_with("tenant ")).collect();
    assert_eq!(tenants.len(), 2, "one line per tenant in {stdout}");
    let mut billed = 0;
    for (id, line) in tenants.iter().enumerate() {
        let (who, ledger) = line.split_once(": ").unwrap_or_else(|| panic!("line {line:?}"));
        assert_eq!(who, format!("tenant {id}"));
        let fields: Vec<(u64, &str)> = ledger.split(" / ").map(count_and_unit).collect();
        let units: Vec<&str> = fields.iter().map(|&(_, unit)| unit).collect();
        assert_eq!(units, ["rounds", "pages", "preemptions"], "columns of {line:?}");
        billed += fields[0].0;
    }
    assert_eq!(billed, elapsed, "the tenants' rounds are the fleet's rounds");
    for column in ["admitted", "shed", "retransmit"] {
        assert!(!stdout.contains(column), "no {column} column in {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_tenant_specs_are_refused_naming_the_entry() {
    let dir = scratch_dir("fleet-bad-tenants");
    let csv = generate_imdb(&dir);
    for (spec, entry) in [("2:800:1:9,1", "2:800:1:9"), ("x,1", "x")] {
        let out = fleet(&csv, spec);
        assert!(!out.status.success(), "--tenants {spec} must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{entry:?}")), "{entry:?} named in {stderr:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
