//! Full-pipeline crawl over the XML wire format, with fault injection.
//!
//! The crawler here never touches in-process result structures: every page is
//! serialized to the XML wire format (as Amazon's Web Service returned XML to
//! the paper's crawler) and re-parsed by the Result Extractor. A
//! `FaultPlanSource` in front of the server fails every 7th request with a
//! transient fault; the crawler retries, and no record behind a failed
//! request is lost.
//!
//! Run with: `cargo run --release --example wire_crawl`

use deep_web_crawler::prelude::*;

fn main() {
    let table = Preset::Acm.table(0.005, 3);
    let n = table.num_records();
    println!("ACM-like source: {} records, {} distinct values", n, table.num_distinct_values());

    let interface = InterfaceSpec::permissive(table.schema(), 10);
    let server = WebDbServer::new(table, interface);
    let source = FaultPlanSource::new(server, FaultPlan::every(7));
    let config = CrawlConfig::builder()
        .known_target_size(n)
        .prober(ProberMode::Wire)
        .max_retries(5)
        .abort(AbortPolicy::standard())
        .build()
        .expect("valid crawl config");
    let mut crawler = Crawler::new(&source, PolicyKind::GreedyLink.build(), config);
    crawler.add_seed("Conference", "Conference_0");
    crawler.add_seed("Author", "Author_3");
    let report = crawler.run();

    println!(
        "harvested {} records in {} queries / {} rounds (coverage {:.1}%)",
        report.records,
        report.queries,
        report.rounds,
        report.final_coverage.unwrap_or(0.0) * 100.0
    );
    println!(
        "transient failures retried: {}   queries aborted early: {}",
        report.transient_failures, report.aborted_queries
    );
    assert!(report.transient_failures > 0, "the fault injector must have fired");
    assert_eq!(report.transient_failures, source.tally().transient);
    assert_eq!(report.rounds, DataSource::rounds_used(&source), "every round billed once");
    println!("\nevery record crossed the XML wire format and the Result Extractor.");
}
