//! The `dwc` binary's crawl loop and `dwc resume`: a journaled crawl
//! killed mid-run by SIGKILL and continued with `dwc resume` prints the
//! uninterrupted crawl's report; a journal that decodes to an impossible
//! state is an error, never an abort; the manual crawl loop stops by the
//! crawler's own stop rule; and fleet flags on `dwc resume` are refused.
#![cfg(unix)]

use deep_web_crawler::store::FrameLog;
use std::os::unix::process::ExitStatusExt as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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

/// Generates the DBLP preset at `scale` into `dir`.
fn generate(dir: &Path, scale: &str) -> String {
    let csv = dir.join("dblp.csv").to_str().expect("UTF-8 path").to_string();
    let out = dwc(&["generate", "dblp", "--scale", scale, "--out", &csv]);
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    csv
}

/// The `records`, `queries` and `rounds` lines of a successful crawl.
fn report_lines(out: &Output) -> Vec<String> {
    assert!(out.status.success(), "dwc failed: {}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| ["records", "queries", "rounds"].iter().any(|k| l.starts_with(k)))
        .map(String::from)
        .collect();
    assert_eq!(lines.len(), 3, "report lines in {:?}", String::from_utf8_lossy(&out.stdout));
    lines
}

#[test]
fn killed_journaled_crawl_resumes_to_the_uninterrupted_report() {
    let dir = scratch_dir("kill");
    let csv = generate(&dir, "0.05");
    let journal = dir.join("crawl.jnl");
    let journal_arg = journal.to_str().expect("UTF-8 path");
    let crawl = ["--seed-value", "Author=Author_5", "--cap", "20", "--budget", "30000"];
    let baseline = report_lines(&dwc(&[&["crawl", &csv][..], &crawl].concat()));

    let persist = ["--journal", journal_arg, "--checkpoint-every", "1000"];
    let mut child = Command::new(DWC)
        .args([&["crawl", &csv][..], &crawl, &persist].concat())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dwc crawl");
    // The first periodic rebase rotates the crawl's initial base to `.bak`.
    let bak = dir.join("crawl.jnl.bak");
    let deadline = Instant::now() + Duration::from_secs(600);
    while !bak.exists() {
        assert!(
            child.try_wait().expect("poll dwc").is_none(),
            "the crawl exited before its first periodic rebase"
        );
        assert!(Instant::now() < deadline, "no periodic rebase within the deadline");
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL the crawl");
    let status = child.wait().expect("reap dwc");
    assert_eq!(status.signal(), Some(9), "the crawl must still be running when killed");

    let resumed = dwc(&[&["resume", &csv][..], &crawl, &persist].concat());
    assert_eq!(report_lines(&resumed), baseline, "the resumed crawl must finish identically");
    assert!(String::from_utf8_lossy(&resumed.stderr).contains("resumed from journal"));
    let frames = FrameLog::replay(&journal).expect("replay journal").frames.len();
    assert!(frames <= 1001, "a journal rebased every 1000 queries holds {frames} frames");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checksummed journals that decode to impossible states (a base whose
/// attribute count would size a 2.4 TB allocation; a delta naming a value
/// past the vocabulary) make `dwc resume` exit 1 with a message, never
/// abort or panic.
#[test]
fn resume_rejects_an_impossible_journal_with_an_error() {
    let dir = scratch_dir("bad-journal");
    let csv = generate(&dir, "0.001");
    let one_value = "DWC-CHECKPOINT v1\nmeta\t10\t0\t0\t0\nattrs\t1\na\tAuthor\t1\nvalues\t1\n\
                     v\t0\tAuthor_5\nstatus\tF\nqueried\t\nrecords\t0\n";
    let journals: [&[&str]; 2] = [
        &["DWC-CHECKPOINT v1\nmeta\t10\t0\t0\t0\nattrs\t100000000000\n"],
        &[one_value, "d\t1\t1\nr\t9\t0,4\n"],
    ];
    for frames in journals {
        let journal = dir.join("bad.jnl");
        let mut log = FrameLog::create(&journal).expect("create journal");
        for frame in frames {
            log.append(frame.as_bytes()).expect("append frame");
        }
        let out = dwc(&["resume", &csv, "--journal", journal.to_str().expect("UTF-8 path")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{frames:?}: {stderr}");
        assert!(stderr.contains("recovering"), "{frames:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `dwc crawl` drives the crawler step by step but stops by
/// `Crawler::budget_stop`, the rule `Crawler::run` uses: when the round
/// budget and the coverage target are both met, the round budget wins, and
/// the event stream's `crawl_finished` line says so.
#[test]
fn crawl_loop_stops_by_the_crawlers_own_rule() {
    let dir = scratch_dir("stop-rule");
    let csv = dir.join("ebay.csv").to_str().expect("UTF-8 path").to_string();
    let out = dwc(&["generate", "ebay", "--scale", "0.02", "--seed", "3", "--out", &csv]);
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    let events = dir.join("events.jsonl");
    let events_arg = events.to_str().expect("UTF-8 path");
    let crawl = ["--seed-value", "Seller=Seller_43", "--budget", "1", "--coverage", "0.001"];
    let out = dwc(&[&["crawl", &csv][..], &crawl, &["--events", events_arg]].concat());
    assert_eq!(report_lines(&out)[2], "rounds    : 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stopping: round budget 1 exhausted"), "{stderr}");
    let stream = std::fs::read_to_string(&events).expect("read events");
    let finished = stream.lines().last().expect("a non-empty event stream");
    assert!(
        finished.starts_with(r#"{"event":"crawl_finished","stop":"round_budget""#),
        "{finished}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `dwc resume` runs one crawl; fleet flags belong to `dwc fleet`. Each is
/// refused with a message naming it, before the journal is touched.
#[test]
fn resume_refuses_fleet_flags_and_names_dwc_fleet() {
    let dir = scratch_dir("fleet-flags");
    let csv = generate(&dir, "0.001");
    let journal = dir.join("crawl.jnl");
    let journal_arg = journal.to_str().expect("UTF-8 path");
    let crawl = ["--seed-value", "Author=Author_5", "--budget", "20", "--journal", journal_arg];
    report_lines(&dwc(&[&["crawl", &csv][..], &crawl].concat()));
    let before = std::fs::read(&journal).expect("read journal");
    for extra in [&["--workers", "2"][..], &["--allocation", "even"][..]] {
        let out = dwc(&[&["resume", &csv, "--journal", journal_arg][..], extra].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(stderr.contains("dwc fleet"), "{extra:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{extra:?}: no report for a refused resume");
    }
    assert_eq!(std::fs::read(&journal).expect("read journal"), before, "journal untouched");
    let _ = std::fs::remove_dir_all(&dir);
}
