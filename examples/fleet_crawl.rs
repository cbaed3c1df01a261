//! Fleet crawling: harvest several structured sources under one global
//! communication budget (the paper's closing "real world product database
//! crawler" deployment scenario).
//!
//! Part 1 compares even budget allocation against harvest-proportional
//! allocation over four distinct stores. Part 2 points two workers at the
//! *same* store through `Arc<WebDbServer>`: the server bills every round to
//! one shared atomic counter, whichever worker asks, and the example asserts
//! that counter equals the fleet's billed total.
//!
//! Run with: `cargo run --release --example fleet_crawl`

use deep_web_crawler::core::fleet::{run_fleet, AllocationStrategy, FleetConfig, FleetJob};
use deep_web_crawler::prelude::*;
use std::sync::Arc;

fn jobs() -> Vec<FleetJob<WebDbServer>> {
    // Four stores of very different sizes from the same movie domain.
    [0.002, 0.004, 0.01, 0.02]
        .iter()
        .enumerate()
        .map(|(i, &scale)| {
            let table = Preset::Imdb.table(scale, i as u64 + 1);
            let n = table.num_records();
            let spec = InterfaceSpec::permissive(table.schema(), 10);
            FleetJob {
                source: WebDbServer::new(table, spec),
                policy: PolicyKind::GreedyLink,
                seeds: vec![("Language".into(), "Language_0".into())],
                config: CrawlConfig::builder()
                    .known_target_size(n)
                    .build()
                    .expect("valid crawl config"),
                resume: None,
                tenant: None,
            }
        })
        .collect()
}

fn main() {
    let budget = 2_000;
    for allocation in [AllocationStrategy::Even, AllocationStrategy::HarvestProportional] {
        let config = FleetConfig::builder()
            .total_rounds(budget)
            .slice(100)
            .allocation(allocation)
            .build()
            .expect("valid fleet config");
        let report = run_fleet(jobs(), config);
        println!("{allocation:?} allocation — budget {budget} rounds:");
        for (i, r) in report.sources.iter().enumerate() {
            println!(
                "  source {}: {:5} records ({:5.1}% coverage) in {:4} rounds [{:?}]",
                i + 1,
                r.records,
                r.final_coverage.unwrap_or(0.0) * 100.0,
                r.rounds,
                r.stop
            );
        }
        println!("  total: {} records in {} rounds", report.total_records(), report.total_rounds);
        let s = &report.scheduler;
        println!(
            "  scheduler: {} workers, {} slices, {} rounds executed\n",
            s.workers, s.slices_completed, s.rounds_executed
        );
    }
    println!(
        "Harvest-proportional allocation moves budget away from saturated sources,\n\
         which lifts the fleet-wide record total at the same cost.\n"
    );

    // ---- Two workers, one source ---------------------------------------
    let table = Preset::Imdb.table(0.01, 7);
    let n = table.num_records();
    let spec = InterfaceSpec::permissive(table.schema(), 10);
    let shared = Arc::new(WebDbServer::new(table, spec));
    let config = CrawlConfig::builder().known_target_size(n).build().expect("valid crawl config");
    let shared_jobs: Vec<FleetJob<Arc<WebDbServer>>> = ["Language_0", "Language_1"]
        .iter()
        .map(|&seed| FleetJob {
            source: Arc::clone(&shared),
            policy: PolicyKind::GreedyLink,
            seeds: vec![("Language".into(), seed.into())],
            config: config.clone(),
            resume: None,
            tenant: None,
        })
        .collect();
    let fleet_config =
        FleetConfig::builder().total_rounds(budget).slice(100).build().expect("valid fleet config");
    let report = run_fleet(shared_jobs, fleet_config);
    println!("two workers sharing one {n}-record source from different seeds:");
    for (i, r) in report.sources.iter().enumerate() {
        println!("  worker {}: {} records in {} rounds", i + 1, r.records, r.rounds);
    }
    println!(
        "  server's own global round counter: {} (== sum of the workers' {})",
        shared.rounds_used(),
        report.total_rounds
    );
    assert_eq!(
        shared.rounds_used(),
        report.total_rounds,
        "the shared server billed exactly the rounds the fleet counted"
    );
}
