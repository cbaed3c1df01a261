//! Serving-tier parity suite: the protocol transport is observationally
//! identical to the in-process path.
//!
//! A crawl driven through a [`SourceService`] connection (frames over a
//! bounded queue, worker threads, the render shipped as the wire frame and
//! parsed by the client) must produce a
//! `CrawlReport` — counters, coverage, *and* the full query trace —
//! bit-identical to the same crawl run against the source in process. The
//! suite sweeps the same `DWC_FAULT_KIND` × `DWC_FAULT_SEED` matrix CI uses
//! for the crash suite, so parity is proven under bursts, stalls, and
//! corruption, not just on the happy path.
//!
//! Billing conservation rides along: every round the crawl report counts is
//! billed by exactly one counter on the other side of the seam
//! (`report.rounds == source.rounds_used()`), shed and cancelled requests
//! included.

mod common;

use common::{fault_matrix_cell, matrix_plan};
use deep_web_crawler::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn imdb_server(seed: u64) -> Arc<WebDbServer> {
    let table = Preset::Imdb.table(0.002, seed);
    let spec = InterfaceSpec::permissive(table.schema(), 10).with_result_cap(40);
    Arc::new(WebDbServer::new(table, spec))
}

fn crawl_config() -> CrawlConfig {
    // Wire mode on BOTH transports: the in-process reference then exercises
    // the same render cache the service workers hit, so cache-hit counters
    // (part of the report) line up too.
    CrawlConfig::builder()
        .max_rounds(1_500)
        .prober(ProberMode::Wire)
        .max_retries(4)
        .build()
        .expect("valid crawl config")
}

fn run_crawl<S: DataSource>(source: S, config: CrawlConfig) -> CrawlReport {
    let mut crawler = Crawler::new(source, PolicyKind::GreedyLink.build(), config);
    crawler.add_seed("Language", "Language_0");
    crawler.add_seed("Actor", "Actor_0");
    crawler.run()
}

/// The tentpole invariant: in-process and protocol-backed crawls are
/// indistinguishable above the seam, fault matrix included.
#[test]
fn protocol_crawl_report_is_identical_to_in_process() {
    let (kind, seed) = fault_matrix_cell();
    // A `panic` cell needs a supervisor; a single crawler runs `mixed`.
    let plan = || matrix_plan(if kind == "panic" { "mixed" } else { &kind }, seed);

    let in_process = run_crawl(FaultPlanSource::new(imdb_server(3), plan()), crawl_config());

    let faulty = Arc::new(FaultPlanSource::new(imdb_server(3), plan()));
    let service = SourceService::start(Arc::clone(&faulty), ServeConfig::default());
    let conn = service.connect();
    let protocol = run_crawl(conn.clone(), crawl_config());

    assert_eq!(
        protocol, in_process,
        "fault cell {kind}/{seed}: protocol transport must reproduce the in-process report"
    );
    assert!(in_process.records > 0, "fault cell {kind}/{seed} harvested nothing");

    // Conservation across the seam: every round the crawl counted is billed
    // by exactly one source-side counter.
    assert_eq!(protocol.rounds, conn.rounds_used());
    drop(conn);
    let served = service.shutdown();
    assert_eq!(served.enqueued, protocol.rounds, "no shed/cancel at nominal load");
    assert_eq!(served.completed, served.enqueued, "queue fully drained");
    assert_eq!(served.shed, 0);
    assert_eq!(served.cancelled, 0);
}

/// Parity also holds through a hedging connection: a hedge is a same-id
/// second transmission, served from the dedup window, so it moves nothing
/// above the seam. Hedges fire on wall-clock time; each one bills exactly
/// one extra round, whichever way it ends.
#[test]
fn hedged_connection_preserves_parity() {
    let in_process = run_crawl(imdb_server(11), crawl_config());

    let config = ServeConfig::builder().workers(2).build().expect("valid serve config");
    let service = SourceService::start(imdb_server(11), config);
    let conn = service.connect().with_hedging(Duration::from_micros(200));
    let protocol = run_crawl(&conn, crawl_config());
    assert_eq!(protocol, in_process);

    // Losing hedges may still be draining when the crawl's last reply lands.
    loop {
        let r = service.service_report();
        if r.enqueued == r.completed + r.cancelled {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let billed = conn.rounds_used();
    drop(conn);
    let served = service.shutdown();
    assert_eq!(billed, protocol.rounds + served.hedged, "one round per hedge, none lost");
}

/// Deadlines that no in-flight request can meet turn every attempt into a
/// billed cancellation: the crawl gives up per its retry budget, and the
/// service's cancelled counter pays for each attempt (Def. 2.3).
#[test]
fn impossible_deadlines_are_billed_as_cancellations() {
    let config = ServeConfig::builder()
        .queue_depth(8)
        .latency(LatencyModel::Fixed(Duration::from_millis(20)))
        .build()
        .expect("valid serve config");
    let service = SourceService::start(imdb_server(5), config);
    let conn = service.connect();

    let crawl_config = CrawlConfig::builder()
        .prober(ProberMode::Wire)
        .deadline(Duration::from_nanos(1))
        .max_retries(2)
        .build()
        .expect("valid crawl config");
    let report = run_crawl(conn.clone(), crawl_config);

    assert_eq!(report.records, 0, "nothing survives an impossible deadline");
    assert!(report.rounds > 0, "attempts are still billed");
    assert_eq!(report.rounds, conn.rounds_used());
    drop(conn);
    let served = service.shutdown();
    assert_eq!(served.cancelled, report.rounds, "every attempt died at dequeue");
    assert_eq!(served.completed, 0);
}
