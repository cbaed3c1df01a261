//! Event-stream replay acceptance: a crawl's report IS a fold over its
//! event stream.
//!
//! Every test attaches a sink to a crawl, runs it, and checks that
//! `replay_report` over the recorded stream reproduces the exact
//! `CrawlReport` the crawl returned — under clean runs, under every
//! non-lethal kind of the `DWC_FAULT_KIND` matrix, across the JSONL
//! serialization round trip (`dwc crawl --events` fidelity), through the
//! checkpoint/resume path (late-attached sinks get a snapshot event), and
//! property-tested across seeded fault plans.

mod common;

use common::{fault_matrix_cell, matrix_plan};
use deep_web_crawler::core::metrics::replay_report;
use deep_web_crawler::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// The fault-matrix source: big enough that crawls span many queries, so
/// faults interleave with pagination, retries, and requeues.
fn imdb_server(seed: u64) -> Arc<WebDbServer> {
    let table = Preset::Imdb.table(0.002, seed);
    let spec = InterfaceSpec::permissive(table.schema(), 10).with_result_cap(40);
    Arc::new(WebDbServer::new(table, spec))
}

/// Runs one crawl over a fault-plan-wrapped source with a sink attached
/// before the first event, returning the report and the recorded stream.
fn run_with_sink(plan: FaultPlan, data_seed: u64) -> (CrawlReport, Vec<CrawlEvent>) {
    let source = FaultPlanSource::new(imdb_server(data_seed), plan);
    let config = CrawlConfig::builder().max_requeues(20).max_retries(4).build().unwrap();
    let mut crawler = Crawler::new(source, PolicyKind::GreedyLink.build(), config);
    assert!(crawler.add_seed("Language", "Language_0"));
    let sink = MemorySink::new();
    crawler.add_sink(Box::new(sink.clone()));
    let report = crawler.run();
    (report, sink.collected())
}

/// Replay parity across the fault matrix. `DWC_FAULT_KIND`/`DWC_FAULT_SEED`
/// narrow the sweep to one CI matrix cell; unset, every non-lethal kind runs.
#[test]
fn replay_matches_report_across_the_fault_matrix() {
    let (kind, seed) = fault_matrix_cell();
    let kinds: Vec<String> = if std::env::var_os("DWC_FAULT_KIND").is_some() {
        vec![kind]
    } else {
        ["burst", "stall", "corrupt", "mixed"].iter().map(|s| s.to_string()).collect()
    };
    for kind in kinds {
        // A `panic` plan kills the crawling thread itself (its parity story
        // is the resume-path test below); here it runs the mixed plan so
        // every matrix cell still checks stream parity.
        let plan = matrix_plan(if kind == "panic" { "mixed" } else { &kind }, seed);
        let (report, events) = run_with_sink(plan, 17);
        assert!(
            matches!(events.last(), Some(CrawlEvent::CrawlFinished { .. })),
            "kind {kind}: the stream must end with the verdict"
        );
        assert_eq!(
            replay_report(&events),
            Some(report),
            "kind {kind} seed {seed}: replayed report diverged"
        );
    }
}

/// JSONL fidelity: the exact byte format `dwc crawl --events` writes — one
/// `to_json` line per event — parses back into a stream that replays to the
/// same report.
#[test]
fn jsonl_round_trip_replays_to_the_same_report() {
    let (report, events) = run_with_sink(matrix_plan("mixed", 3), 17);
    let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let parsed: Vec<CrawlEvent> = jsonl
        .lines()
        .map(|line| {
            CrawlEvent::from_json(line).unwrap_or_else(|| panic!("unparseable line {line:?}"))
        })
        .collect();
    assert_eq!(parsed, events, "serialization must be lossless");
    assert_eq!(replay_report(&parsed), Some(report));
}

/// Resume-path parity: a sink attached to a *resumed* crawler first receives
/// a snapshot event carrying the checkpointed totals, so its stream still
/// replays to the exact final report.
#[test]
fn late_attached_sink_on_a_resumed_crawl_replays_exactly() {
    let server = imdb_server(17);
    let config = CrawlConfig::builder().build().unwrap();
    let mut first = Crawler::new(Arc::clone(&server), PolicyKind::GreedyLink.build(), config);
    assert!(first.add_seed("Language", "Language_0"));
    for _ in 0..5 {
        first.step().unwrap();
    }
    let text = first.checkpoint().to_text();
    drop(first);

    let cp = Checkpoint::from_text(&text).unwrap();
    let config = CrawlConfig::builder().build().unwrap();
    let mut resumed = Crawler::resume(server, PolicyKind::GreedyLink.build(), &cp, config);
    let sink = MemorySink::new();
    resumed.add_sink(Box::new(sink.clone()));
    let report = resumed.run();
    let events = sink.collected();
    assert!(
        matches!(events.first(), Some(CrawlEvent::CrawlResumed { .. })),
        "a late sink must be seeded with the snapshot event"
    );
    assert_eq!(replay_report(&events), Some(report));
}

/// Cache-hit parity: two wire-mode crawls sharing one server overlap on the
/// render cache; the second crawl's `PageCacheHit` events must fold into the
/// report's `page_cache_hits` exactly, and its stream must still replay.
#[test]
fn page_cache_hits_survive_replay() {
    let server = imdb_server(17);
    let run = |server: &Arc<WebDbServer>| {
        let config =
            CrawlConfig::builder().prober(ProberMode::Wire).max_rounds(200).build().unwrap();
        let mut crawler = Crawler::new(Arc::clone(server), PolicyKind::GreedyLink.build(), config);
        assert!(crawler.add_seed("Language", "Language_0"));
        let sink = MemorySink::new();
        crawler.add_sink(Box::new(sink.clone()));
        (crawler.run(), sink.collected())
    };
    let (first_report, first_events) = run(&server);
    assert_eq!(first_report.page_cache_hits, 0, "a cold cache renders every page");
    assert_eq!(replay_report(&first_events), Some(first_report));

    // The second "fleet worker" re-issues the same greedy query sequence and
    // rides the first worker's rendered pages.
    let (report, events) = run(&server);
    assert!(report.page_cache_hits > 0, "overlapping crawls must hit the cache");
    assert_eq!(report.page_cache_hits, server.page_cache().hits());
    let hit_events = events.iter().filter(|e| matches!(e, CrawlEvent::PageCacheHit)).count() as u64;
    assert_eq!(report.page_cache_hits, hit_events, "report is a fold over the stream");
    assert_eq!(replay_report(&events), Some(report));
}

proptest! {
    // Whole crawls per case are expensive; a dozen seeded fault plans cover
    // plenty of interleavings of faults, retries, stalls, and requeues.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any seeded fault plan, the recorded stream replays to the exact
    /// report the crawl returned.
    #[test]
    fn replay_parity_holds_for_seeded_fault_plans(
        seed in 0u64..1000,
        fault_prob in 0.0f64..0.12,
    ) {
        let plan = FaultPlan::seeded(
            seed,
            500,
            fault_prob,
            &[FaultKind::Transient, FaultKind::Stall { rounds: 2 }, FaultKind::Corrupt],
        );
        let (report, events) = run_with_sink(plan, 7);
        prop_assert_eq!(replay_report(&events), Some(report));
    }
}
