//! BENCH-6: the serving tier under load — throughput scaling, tail latency,
//! and backpressure.
//!
//! One `SourceService` fronts a DBLP-shaped server; fleets of N ∈ {1, 4, 16}
//! client connections drive page requests through the bounded queue and the
//! run records sustained req/s plus p50/p95/p99 latency per fleet width. Two
//! gates then pin the admission-control contract from the PR:
//!
//! * **nominal**: with the queue sized above the client count, *nothing* is
//!   shed — every offered request completes, and throughput grows with the
//!   fleet (more connections keep more workers busy).
//! * **overload**: with offered concurrency at ~2× what a single worker and
//!   a 4-slot queue can absorb, the server sheds at admission instead of
//!   letting the queue grow — shed rate is nonzero and the observed queue
//!   depth never exceeds the configured bound.
//!
//! Measured numbers land in `BENCH_6.json` at the repo root so CI's bench
//! gate can archive them; a violated gate fails `cargo bench` loudly.

use dwc_core::serve::{LatencyModel, ServeConfig, ServiceReport, SourceService};
use dwc_core::{CrawlError, DataSource, ProberMode, SourceRequest};
use dwc_datagen::presets::Preset;
use dwc_server::{Query, WebDbServer};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet widths for the scaling sweep.
const FLEETS: [usize; 3] = [1, 4, 16];

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn requests_per_client() -> usize {
    if quick_mode() {
        150
    } else {
        600
    }
}

fn server() -> Arc<WebDbServer> {
    let table = Preset::Dblp.table(0.01, 9);
    let spec = dwc_server::InterfaceSpec::permissive(table.schema(), 10);
    Arc::new(WebDbServer::new(table, spec))
}

/// The request workload: attribute values matching a handful of records
/// each, harvested from the table itself so every request is a live query.
fn workload(server: &WebDbServer) -> Vec<Query> {
    let table = server.table();
    table
        .interner()
        .iter_ids()
        .filter(|&v| (3..=30).contains(&table.count_matches(v)))
        .map(|v| Query::ByString {
            attr: table.schema().attr(table.interner().attr_of(v)).name.clone(),
            value: table.interner().value_str(v).to_owned(),
        })
        .take(32)
        .collect()
}

/// Drives `clients` connections, each issuing `requests` page-0 probes
/// round-robin over the workload, and returns the drained service report
/// plus the wall-clock the fleet took.
fn drive(
    source: Arc<WebDbServer>,
    config: ServeConfig,
    clients: usize,
    requests: usize,
    queries: &[Query],
) -> (ServiceReport, Duration) {
    let service = SourceService::start(source, config);
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let conn = service.connect();
            let queries = queries.to_vec();
            std::thread::spawn(move || {
                for i in 0..requests {
                    let q = &queries[(c + i) % queries.len()];
                    match conn.respond(&SourceRequest::new(q, 0, ProberMode::Wire), &mut |_| {}) {
                        Ok(_) | Err(CrawlError::Rejected) | Err(CrawlError::Cancelled) => {}
                        Err(e) => panic!("workload queries are valid, got {e}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = start.elapsed();
    (service.shutdown(), elapsed)
}

fn main() {
    let source = server();
    let queries = workload(&source);
    assert!(queries.len() >= 8, "workload must not be empty");
    let requests = requests_per_client();

    // --- Scaling sweep: nominal load, queue sized above the fleet. -------
    // 4 workers at 200us modeled latency; the queue (64) always has room
    // for every blocked client, so admission control must never fire.
    let nominal = |workers: usize| {
        ServeConfig::builder()
            .queue_depth(64)
            .workers(workers)
            .latency(LatencyModel::Fixed(Duration::from_micros(200)))
            .seed(7)
            .build()
            .expect("valid serve config")
    };
    let mut sweep = Vec::new();
    for &clients in &FLEETS {
        let (report, elapsed) = drive(Arc::clone(&source), nominal(4), clients, requests, &queries);
        let offered = report.offered();
        assert_eq!(report.shed, 0, "nominal load at {clients} connections must not shed");
        assert_eq!(report.cancelled, 0);
        assert_eq!(report.completed, offered, "every offered request completes");
        assert_eq!(offered, (clients * requests) as u64);
        let rps = report.completed as f64 / elapsed.as_secs_f64().max(1e-9);
        println!(
            "serving {clients:>2} conns: {rps:>7.0} req/s  p50 {}us  p95 {}us  p99 {}us",
            report.p50_latency_us, report.p95_latency_us, report.p99_latency_us
        );
        sweep.push((clients, rps, report));
    }
    // More connections keep more of the 4 workers busy: the 16-wide fleet
    // must clearly out-run the single closed-loop client.
    let (rps_1, rps_16) = (sweep[0].1, sweep[2].1);
    assert!(
        rps_16 > rps_1 * 1.5,
        "throughput must scale with connections: {rps_1:.0} req/s at 1 vs {rps_16:.0} at 16"
    );

    // --- Overload: ~2x what one worker and a 4-slot queue absorb. --------
    // 16 closed-loop clients against concurrency budget 1 (worker) + 4
    // (queue): admission must shed the excess, and the queue must stay at
    // its bound rather than growing with offered load.
    const OVERLOAD_QUEUE: usize = 4;
    let overload_cfg = ServeConfig::builder()
        .queue_depth(OVERLOAD_QUEUE)
        .workers(1)
        .latency(LatencyModel::Fixed(Duration::from_micros(300)))
        .seed(7)
        .build()
        .expect("valid serve config");
    let (overload, elapsed) = drive(Arc::clone(&source), overload_cfg, 16, requests, &queries);
    let overload_rps = overload.completed as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "serving overload: {overload_rps:.0} req/s, shed {:.1}% of {}, queue max {}",
        overload.shed_rate() * 100.0,
        overload.offered(),
        overload.max_queue_depth
    );
    assert!(overload.shed > 0, "2x overload must shed at admission, not grow the queue");
    assert!(
        overload.max_queue_depth as usize <= OVERLOAD_QUEUE,
        "queue depth {} exceeded its configured bound {OVERLOAD_QUEUE}",
        overload.max_queue_depth
    );
    assert_eq!(
        overload.offered(),
        overload.completed + overload.shed + overload.cancelled,
        "every offered request is accounted for"
    );

    let fleet_json: Vec<String> = sweep
        .iter()
        .map(|(clients, rps, r)| {
            format!(
                "    {{ \"connections\": {}, \"req_per_s\": {:.0}, \"p50_us\": {}, \
                 \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {} }}",
                clients,
                rps,
                r.p50_latency_us,
                r.p95_latency_us,
                r.p99_latency_us,
                r.max_latency_us
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serving\",\n  \"mode\": \"{}\",\n  \"requests_per_client\": {},\n  \
         \"fleets\": [\n{}\n  ],\n  \"overload\": {{\n    \"connections\": 16,\n    \
         \"queue_depth\": {},\n    \"workers\": 1,\n    \"req_per_s\": {:.0},\n    \
         \"offered\": {},\n    \"completed\": {},\n    \"shed\": {},\n    \
         \"shed_rate\": {:.3},\n    \"max_queue_depth\": {},\n    \"p99_us\": {}\n  }}\n}}\n",
        if quick_mode() { "quick" } else { "full" },
        requests,
        fleet_json.join(",\n"),
        OVERLOAD_QUEUE,
        overload_rps,
        overload.offered(),
        overload.completed,
        overload.shed,
        overload.shed_rate(),
        overload.max_queue_depth,
        overload.p99_latency_us,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_6.json");
    std::fs::write(&out, &json).expect("write BENCH_6.json");
    println!(
        "serving gates passed (0 shed nominal, {:.1}% shed at overload) -> {}",
        overload.shed_rate() * 100.0,
        out.display()
    );
}
