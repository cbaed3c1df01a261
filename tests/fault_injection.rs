//! Fault-injection acceptance suite: the ISSUE's crash-safety scenarios run
//! end to end through the public façade.
//!
//! * **Kill and recover** — a fleet job killed mid-crawl by a scheduled
//!   panic is restarted from its state journal and finishes with the same
//!   record count as an uninterrupted baseline, at a total cost within the
//!   one query that was in flight.
//! * **Circuit breaker** — a job hit by a long fault burst trips its
//!   per-source breaker, is paused, probed half-open, recovers, and still
//!   loses zero records.
//! * **Fault matrix** — the same no-loss invariant under each fault kind,
//!   parameterized by `DWC_FAULT_KIND` (`none`|`burst`|`stall`|`corrupt`|
//!   `panic`|`mixed`) and `DWC_FAULT_SEED` so CI can sweep a seeds × kinds
//!   matrix with a single test binary (the plans live in `common`).

mod common;

use common::{fault_matrix_cell, matrix_plan};
use deep_web_crawler::core::fleet::{run_fleet, FleetConfig, FleetJob};
use deep_web_crawler::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A small IMDB-flavoured source: big enough that crawls span many queries
/// (so journal frames and slices interleave with faults), capped so one query
/// costs a bounded number of pages.
fn imdb_server(seed: u64) -> Arc<WebDbServer> {
    let table = Preset::Imdb.table(0.002, seed);
    let spec = InterfaceSpec::permissive(table.schema(), 10).with_result_cap(40);
    Arc::new(WebDbServer::new(table, spec))
}

fn scratch_journal(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dwc-faultinj-{}-{}-{name}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("job.jnl")
}

/// One supervised job over a faulty view of an IMDB source.
fn job(
    data_seed: u64,
    plan: FaultPlan,
    journal: Option<&Path>,
) -> FleetJob<FaultPlanSource<Arc<WebDbServer>>> {
    let mut builder = CrawlConfig::builder().max_requeues(20);
    if let Some(journal) = journal {
        builder = builder.journal_path(journal);
    }
    FleetJob {
        source: FaultPlanSource::new(imdb_server(data_seed), plan),
        policy: PolicyKind::GreedyLink,
        seeds: vec![("Language".into(), "Language_0".into())],
        config: builder.build().unwrap(),
        resume: None,
        tenant: None,
    }
}

fn fleet_config() -> FleetConfig {
    let mut builder = FleetConfig::builder()
        .total_rounds(20_000)
        .slice(8)
        .default_retry(RetryPolicy::retries(4))
        .max_restarts(5)
        .breaker(BreakerConfig { trip_after: 3, cooldown: 2 });
    // CI's scheduler stress sweeps pool widths over the same fault matrix;
    // every invariant here must hold at any worker count.
    if let Some(w) = std::env::var("DWC_WORKERS").ok().and_then(|s| s.parse().ok()) {
        builder = builder.workers(w);
    }
    builder.build().unwrap()
}

/// The fault-free reference run every scenario is measured against.
fn baseline(data_seed: u64) -> deep_web_crawler::core::fleet::FleetReport {
    run_fleet(vec![job(data_seed, FaultPlan::new(), None)], fleet_config())
}

/// Kill-and-recover: with a journal frame after every query, a worker
/// killed by a mid-crawl panic restarts from disk and redoes at most the
/// one query that was in flight — so the harvested set matches the
/// uninterrupted baseline and the cost overshoot is bounded by that query.
#[test]
fn killed_worker_recovers_from_checkpoint_and_matches_baseline() {
    let clean = baseline(11);
    assert_eq!(clean.worker_restarts(), 0);
    let journal = scratch_journal("kill-recover");
    let faulted =
        run_fleet(vec![job(11, FaultPlan::new().panic_at(25), Some(&journal))], fleet_config());
    assert_eq!(faulted.worker_restarts(), 1, "the scheduled panic kills exactly one worker");
    assert!(!faulted.health[0].abandoned);
    assert!(journal.exists(), "the journal persisted");
    assert_eq!(
        faulted.sources[0].records, clean.sources[0].records,
        "recovery must not lose or duplicate records"
    );
    assert_eq!(faulted.sources[0].stop, clean.sources[0].stop);
    // The journal frames every query; with the result cap at 40 and pages
    // of 10, redoing the in-flight query costs at most 4 requests plus that
    // query's retry backoff. 16 elapsed rounds is a safe envelope.
    let slack = 16;
    assert!(
        faulted.total_rounds <= clean.total_rounds + slack,
        "recovery redid more than the query in flight: {} vs baseline {}",
        faulted.total_rounds,
        clean.total_rounds
    );
}

/// The restart resumes from the journal, not from the seeds. The fleet
/// bills a restarted job's rounds as a running maximum, so only the
/// source's own request counter shows work done twice: here it may exceed
/// the uninterrupted crawl's by the pages of the query in flight, never by
/// the 59 requests a restart from the seeds would repeat.
#[test]
fn killed_worker_resumes_from_its_journal_not_its_seeds() {
    let served = |plan: FaultPlan, journal: Option<&Path>| {
        let job = job(11, plan, journal);
        let server = Arc::clone(job.source.inner());
        let report = run_fleet(vec![job], fleet_config());
        (report.sources[0].records, server.rounds_used())
    };
    let (clean_records, clean_served) = served(FaultPlan::new(), None);
    let journal = scratch_journal("no-repeat");
    let (records, faulted_served) = served(FaultPlan::new().panic_at(60), Some(&journal));
    assert_eq!(records, clean_records);
    assert!(
        faulted_served <= clean_served + 4,
        "the restart repeated completed queries: {faulted_served} requests vs {clean_served}"
    );
}

/// Breaker acceptance: a long transient burst trips the per-source breaker
/// (pausing the job) and the half-open probe later recovers it; requeues
/// put every failed value back on the frontier, so nothing is lost.
#[test]
fn breaker_trips_on_burst_recovers_and_loses_nothing() {
    let clean = baseline(13);
    let report = run_fleet(vec![job(13, FaultPlan::new().burst(10, 60), None)], fleet_config());
    assert!(report.breaker_trips() >= 1, "the 60-request burst must trip the breaker");
    assert!(report.breaker_recoveries() >= 1, "the probe must eventually find the source healthy");
    assert!(!report.health[0].abandoned);
    assert_eq!(
        report.sources[0].records, clean.sources[0].records,
        "breaker pauses and requeues must not lose records"
    );
    assert!(report.sources[0].transient_failures > 0);
    let rendered = report.to_string();
    assert!(rendered.contains("trips"), "FleetReport::Display surfaces breaker activity");
}

/// The matrix invariant: whatever the fault kind and seed, a supervised,
/// journaled fleet harvests exactly the fault-free record
/// set, and the per-kind side effects show up in the report.
#[test]
fn fault_matrix_preserves_the_harvest() {
    let (kind, seed) = fault_matrix_cell();
    let clean = baseline(17);
    let journal = scratch_journal("matrix");
    let report = run_fleet(vec![job(17, matrix_plan(&kind, seed), Some(&journal))], fleet_config());
    assert!(!report.health[0].abandoned, "kind {kind} seed {seed} exhausted its restart budget");
    assert_eq!(
        report.sources[0].records, clean.sources[0].records,
        "kind {kind} seed {seed} lost records"
    );
    assert!(journal.exists());
    let r = &report.sources[0];
    match kind.as_str() {
        "none" => {
            assert_eq!((r.transient_failures, r.stall_rounds), (0, 0), "no plan, no faults");
            assert_eq!(report.worker_restarts(), 0);
        }
        "stall" => assert!(r.stall_rounds > 0, "stall plan must bill stall rounds"),
        "corrupt" => assert!(r.corrupt_pages > 0, "corrupt plan must surface corrupt pages"),
        "panic" => assert!(report.worker_restarts() >= 1, "panic plan must force a restart"),
        "burst" => assert!(r.transient_failures > 0),
        "mixed" => assert!(r.transient_failures > 0, "mixed plan must inject something"),
        other => unreachable!("matrix_plan rejects kind {other:?}"),
    }
    assert!(
        report.total_rounds >= clean.total_rounds,
        "faults can only make the crawl more expensive"
    );
}
