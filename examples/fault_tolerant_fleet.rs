//! Crash-safe fleet supervision: a worker is killed mid-crawl by an
//! injected panic, the supervisor restarts it from its on-disk state
//! journal, and a second job rides out a fault burst behind its
//! per-source circuit breaker — no records are lost either way.
//!
//! Run with: `cargo run --release --example fault_tolerant_fleet`

use deep_web_crawler::core::fleet::{run_fleet, FleetConfig, FleetJob};
use deep_web_crawler::prelude::*;
use std::path::Path;
use std::sync::Arc;

fn server(seed: u64) -> Arc<WebDbServer> {
    let table = Preset::Acm.table(0.005, seed);
    let spec = InterfaceSpec::permissive(table.schema(), 10).with_result_cap(40);
    Arc::new(WebDbServer::new(table, spec))
}

fn job(
    seed: u64,
    plan: FaultPlan,
    journal: Option<&Path>,
) -> FleetJob<FaultPlanSource<Arc<WebDbServer>>> {
    let mut builder = CrawlConfig::builder().max_requeues(20);
    if let Some(journal) = journal {
        // One journal frame per completed query: a killed worker redoes at
        // most the one query that was in flight.
        builder = builder.journal_path(journal);
    }
    FleetJob {
        source: FaultPlanSource::new(server(seed), plan),
        policy: PolicyKind::GreedyLink,
        seeds: vec![("Conference".into(), "Conference_0".into())],
        config: builder.build().expect("valid crawl config"),
        resume: None,
        tenant: None,
    }
}

fn main() {
    // The injected worker-killing panic is expected and caught by the
    // supervisor; keep its default backtrace off the example's output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let dir = std::env::temp_dir().join(format!("dwc-example-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let journal = dir.join("job0.jnl");

    // Job 0 panics at its 25th page request (a worker crash); job 1 sees a
    // 50-request transient burst (a source brown-out).
    let jobs = vec![
        job(11, FaultPlan::new().panic_at(25), Some(&journal)),
        job(13, FaultPlan::new().burst(10, 50), None),
    ];
    let config = FleetConfig::builder()
        .total_rounds(20_000)
        .slice(8)
        .default_retry(RetryPolicy::retries(4))
        .max_restarts(3)
        .breaker(BreakerConfig { trip_after: 3, cooldown: 2 })
        .build()
        .expect("valid fleet config");
    let report = run_fleet(jobs, config);
    print!("{report}");

    // The same two crawls without any faults, for comparison.
    let clean = run_fleet(
        vec![job(11, FaultPlan::new(), None), job(13, FaultPlan::new(), None)],
        FleetConfig::builder().total_rounds(20_000).slice(8).build().expect("valid fleet config"),
    );
    for (i, (faulted, baseline)) in report.sources.iter().zip(&clean.sources).enumerate() {
        assert_eq!(
            faulted.records, baseline.records,
            "job {i} must harvest exactly the fault-free record set"
        );
    }
    println!(
        "\nsupervision: {} worker restart(s), {} breaker trip(s), {} recover(ies)",
        report.worker_restarts(),
        report.breaker_trips(),
        report.breaker_recoveries()
    );
    println!(
        "both jobs harvested their full fault-free record sets; job 0 resumed from {}",
        journal.display()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
