//! Concurrency stress tests: many crawlers hammering one shared
//! `Arc<WebDbServer>` must agree with the server's own global round counter
//! (Definition 2.3 bills the *source*, whichever worker asks), and fault
//! injection under concurrency — one `FaultPlanSource` shared by every
//! worker — must cost rounds without losing records.

use deep_web_crawler::core::fleet::{run_fleet, FleetConfig, FleetJob};
use deep_web_crawler::prelude::*;
use std::sync::Arc;
use std::thread;

fn shared_server(scale: f64, seed: u64) -> Arc<WebDbServer> {
    let table = Preset::Imdb.table(scale, seed);
    let spec = InterfaceSpec::permissive(table.schema(), 10);
    Arc::new(WebDbServer::new(table, spec))
}

/// Four-plus threads, one server: every page request any thread makes lands
/// in the same atomic counter, so the per-thread `rounds()` totals must sum
/// exactly to the server's `rounds_used()`.
#[test]
fn threads_sharing_a_server_sum_to_its_global_counter() {
    let server = shared_server(0.01, 3);
    assert_eq!(server.rounds_used(), 0);
    let threads = 6;
    let per_thread_budget = 40u64;
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                let config = CrawlConfig::builder()
                    .max_rounds(per_thread_budget)
                    .build()
                    .expect("valid crawl config");
                let mut crawler =
                    Crawler::new(server, PolicyKind::Random(i as u64).build(), config);
                crawler.add_seed("Language", &format!("Language_{i}"));
                crawler.add_seed("Actor", &format!("Actor_{}", i * 13));
                crawler.run().rounds
            })
        })
        .collect();
    let per_thread: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let summed: u64 = per_thread.iter().sum();
    assert!(per_thread.iter().all(|&r| r > 0), "every thread crawled: {per_thread:?}");
    assert_eq!(
        summed,
        server.rounds_used(),
        "per-thread rounds {per_thread:?} must sum to the server's global counter"
    );
}

/// The same invariant holds when the shared source injects transient faults:
/// failed requests are billed rounds (Def. 2.3) and counted by both sides.
#[test]
fn concurrent_crawls_bill_failed_rounds_consistently() {
    let table = Preset::Imdb.table(0.005, 9);
    let spec = InterfaceSpec::permissive(table.schema(), 10);
    let server = Arc::new(FaultPlanSource::new(WebDbServer::new(table, spec), FaultPlan::every(5)));
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                let config = CrawlConfig::builder()
                    .max_rounds(60)
                    .max_retries(16)
                    .build()
                    .expect("valid crawl config");
                let mut crawler = Crawler::new(server, PolicyKind::GreedyLink.build(), config);
                crawler.add_seed("Language", &format!("Language_{i}"));
                let report = crawler.run();
                (report.rounds, report.transient_failures)
            })
        })
        .collect();
    let results: Vec<(u64, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let summed_rounds: u64 = results.iter().map(|&(r, _)| r).sum();
    let summed_failures: u64 = results.iter().map(|&(_, f)| f).sum();
    assert_eq!(summed_rounds, DataSource::rounds_used(&server));
    assert!(summed_failures > 0, "the every-5 schedule must fire under concurrency");
    assert_eq!(
        summed_failures,
        server.tally().transient,
        "every injected fault surfaced as exactly one crawler-side transient failure"
    );
}

/// The ISSUE acceptance scenario end to end: two fleet jobs share one faulty
/// source, retries are billed as rounds, and no records are lost.
#[test]
fn fleet_jobs_share_a_faulty_source_without_losing_records() {
    let table = Preset::Imdb.table(0.005, 21);
    let n = table.num_records();
    let spec = InterfaceSpec::permissive(table.schema(), 10);
    let shared = Arc::new(FaultPlanSource::new(WebDbServer::new(table, spec), FaultPlan::every(7)));
    let jobs: Vec<FleetJob<Arc<FaultPlanSource<WebDbServer>>>> = (0..2)
        .map(|i| FleetJob {
            source: Arc::clone(&shared),
            policy: PolicyKind::GreedyLink,
            seeds: vec![("Language".into(), format!("Language_{i}"))],
            config: CrawlConfig::builder()
                .known_target_size(n)
                .max_retries(32)
                .build()
                .expect("valid crawl config"),
            resume: None,
            tenant: None,
        })
        .collect();
    let config =
        FleetConfig::builder().total_rounds(6_000).slice(50).build().expect("valid fleet config");
    let report = run_fleet(jobs, config);

    let clean = {
        let table = Preset::Imdb.table(0.005, 21);
        let spec = InterfaceSpec::permissive(table.schema(), 10);
        let server = WebDbServer::new(table, spec);
        let mut records = Vec::new();
        for i in 0..2 {
            let config =
                CrawlConfig::builder().known_target_size(n).build().expect("valid crawl config");
            let mut crawler = Crawler::new(&server, PolicyKind::GreedyLink.build(), config);
            crawler.add_seed("Language", &format!("Language_{i}"));
            records.push(crawler.run().records);
        }
        records
    };
    for (i, r) in report.sources.iter().enumerate() {
        assert_eq!(
            r.records, clean[i],
            "job {i} under faults must harvest what a fault-free run harvests"
        );
    }
    let summed: u64 = report.sources.iter().map(|r| r.rounds).sum();
    assert_eq!(summed, DataSource::rounds_used(&shared), "shared billing stays exact under faults");
    let failures: u64 = report.sources.iter().map(|r| r.transient_failures).sum();
    assert!(failures > 0, "the every-7 fault schedule must have fired");
}
