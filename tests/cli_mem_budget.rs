//! `dwc --mem-budget`: the paged backend prints the resident crawl's report
//! and removes its segment directory once the run is done with the server,
//! on error returns too.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const DWC: &str = env!("CARGO_BIN_EXE_dwc");

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dwc-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `dwc` with `TMPDIR` pointed at `tmp`, where paged runs put their
/// segments.
fn dwc_in(tmp: &Path, args: &[&str]) -> Output {
    Command::new(DWC).args(args).env("TMPDIR", tmp).output().expect("run dwc")
}

/// The report lines of a successful crawl.
fn report_lines(out: &Output) -> Vec<String> {
    assert!(out.status.success(), "dwc failed: {}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| {
            ["records", "coverage", "queries", "rounds", "aborted"].iter().any(|k| l.starts_with(k))
        })
        .map(String::from)
        .collect();
    assert_eq!(lines.len(), 5, "report lines in {:?}", String::from_utf8_lossy(&out.stdout));
    lines
}

fn segment_dirs(tmp: &Path) -> Vec<String> {
    std::fs::read_dir(tmp)
        .expect("list TMPDIR")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("dwc-segments-"))
        .collect()
}

#[test]
fn paged_runs_report_like_resident_ones_and_leave_no_segments() {
    let dir = scratch_dir("mem-budget");
    let tmp = dir.join("tmp");
    std::fs::create_dir(&tmp).expect("TMPDIR");
    let csv = dir.join("ebay.csv").to_str().expect("UTF-8 path").to_string();
    let out = dwc_in(&tmp, &["generate", "ebay", "--scale", "0.05", "--out", &csv]);
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));

    let crawl = ["crawl", &csv, "--seed-value", "Seller=Seller_5", "--budget", "2000"];
    let resident = report_lines(&dwc_in(&tmp, &crawl));
    let paged = dwc_in(&tmp, &[&crawl[..], &["--mem-budget", "4"]].concat());
    assert!(String::from_utf8_lossy(&paged.stderr).contains("paged backend"));
    assert_eq!(report_lines(&paged), resident, "paging must not change the crawl");
    assert_eq!(segment_dirs(&tmp), Vec::<String>::new(), "dwc crawl left its segments");

    let journal = dir.join("crawl.jnl").to_str().expect("UTF-8 path").to_string();
    let journaled = [&crawl[..4], &["--budget", "300", "--journal", &journal]].concat();
    let out = dwc_in(&tmp, &journaled);
    assert!(out.status.success(), "crawl failed: {}", String::from_utf8_lossy(&out.stderr));
    let resume = ["resume", &csv, "--budget", "2000", "--journal", &journal, "--mem-budget", "4"];
    assert_eq!(report_lines(&dwc_in(&tmp, &resume)), resident, "resumed to the same report");
    assert_eq!(segment_dirs(&tmp), Vec::<String>::new(), "dwc resume left its segments");

    let fleet = ["fleet", &csv, "--seed-value", "Seller=Seller_5", "--budget", "500"];
    let out = dwc_in(&tmp, &[&fleet[..], &["--mem-budget", "4"]].concat());
    assert!(out.status.success(), "fleet failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(segment_dirs(&tmp), Vec::<String>::new(), "dwc fleet left its segments");

    // An error after the segments are packed still removes them.
    let bogus = ["crawl", &csv, "--seed-value", "Bogus=x", "--mem-budget", "4"];
    assert!(!dwc_in(&tmp, &bogus).status.success());
    assert_eq!(segment_dirs(&tmp), Vec::<String>::new(), "a failed crawl left its segments");

    let zero = dwc_in(&tmp, &[&crawl[..], &["--mem-budget", "0"]].concat());
    assert!(!zero.status.success(), "a zero budget is a command-line error");
    let _ = std::fs::remove_dir_all(&dir);
}
