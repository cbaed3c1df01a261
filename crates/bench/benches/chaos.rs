//! BENCH-7: hedging under stall injection — tail latency vs round cost.
//!
//! One `SourceService` (8 workers, 200us modeled latency) fronts a
//! DBLP-shaped server behind a seeded `ChaosPlan` that stalls ~2.5% of
//! wire frames for 6ms — a long, fat tail on an otherwise sub-millisecond
//! round-trip. Two fleets drive the identical request stream through the
//! identical plan:
//!
//! * **unhedged**: a plain `ClientPool` — every stalled frame is paid for
//!   in full, so the client-side p99 sits at the stall duration;
//! * **hedged**: `ClientPool::with_hedging(1.2ms)` — a duplicate attempt
//!   races any request still unanswered past the threshold, and the dedup
//!   window bills the loser as a retransmission instead of re-executing it.
//!
//! Latency is measured where it matters: each `respond()` call is timed in
//! the client thread (the `ServiceReport` percentiles only see per-job
//! service time, not the stall the caller ate). Two gates pin the PR's
//! claim:
//!
//! * **tail**: hedged p99 must be at least 2x better than unhedged p99;
//! * **cost**: hedged billed rounds must stay within 1.15x of unhedged —
//!   hedging buys its tail with a bounded round premium, not a blowup.
//!
//! Measured numbers land in `BENCH_7.json` at the repo root so CI's bench
//! gate can archive them; a violated gate fails `cargo bench` loudly.

use dwc_core::serve::{LatencyModel, ServeConfig, ServiceReport, SourceService};
use dwc_core::{
    ChaosKind, ChaosPlan, ChaosState, CrawlError, DataSource, ProberMode, SourceRequest,
};
use dwc_datagen::presets::Preset;
use dwc_server::{Query, WebDbServer};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client threads per fleet.
const CLIENTS: usize = 4;
/// Fraction of wire frames the plan stalls. Low enough that a request and
/// its hedge almost never stall together (the one tail hedging can't cut),
/// high enough that the stall dominates the unhedged p99.
const STALL_RATE: f64 = 0.025;
/// How long a stalled frame sleeps — the unhedged tail.
const STALL: Duration = Duration::from_millis(6);
/// Hedge threshold: well above a clean round-trip (including queue wait
/// under hedge load), well below a stall.
const HEDGE_AFTER: Duration = Duration::from_micros(1200);
/// Seed shared by both passes so they face the same frame schedule.
const CHAOS_SEED: u64 = 11;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn requests_per_client() -> usize {
    if quick_mode() {
        150
    } else {
        400
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

fn serve_config() -> ServeConfig {
    ServeConfig::builder()
        .queue_depth(64)
        // Stalled jobs camp on a worker for the full stall; size the pool
        // so a handful of concurrent stalls never starves clean requests.
        .workers(8)
        .latency(LatencyModel::Fixed(Duration::from_micros(200)))
        .seed(7)
        .build()
        .expect("valid serve config")
}

/// What one fleet pass measures.
struct Pass {
    /// Client-observed per-request wall times, microseconds, unsorted.
    samples: Vec<u64>,
    /// Total billed rounds (executed + shed + cancelled + retransmitted).
    rounds: u64,
    report: ServiceReport,
    stalls_injected: u64,
    elapsed: Duration,
}

/// Drives `CLIENTS` closed-loop clients through one pool — hedged or not —
/// behind a fresh `ChaosState` seeded identically for every pass, timing
/// each `respond()` at the call site.
fn drive(hedge: Option<Duration>, requests: usize) -> Pass {
    // Fresh inner server per pass: its round counter is cumulative, and the
    // billed-rounds gate compares passes, not lifetimes.
    let source = server();
    let queries = workload(&source);
    let service = SourceService::start(source, serve_config());
    // Horizon covers every frame the pass can send: two per attempt, plus
    // headroom for hedges and retransmissions.
    let horizon = (CLIENTS * requests * 4) as u64;
    let plan =
        ChaosPlan::seeded(CHAOS_SEED, horizon, STALL_RATE, &[ChaosKind::Stall]).stall_for(STALL);
    let chaos = Arc::new(ChaosState::new(plan));
    let mut pool =
        service.connect_pool(CLIENTS).expect("pool size is nonzero").with_chaos(Arc::clone(&chaos));
    if let Some(threshold) = hedge {
        pool = pool.with_hedging(threshold);
    }
    let pool = Arc::new(pool);

    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let pool = Arc::clone(&pool);
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut samples = Vec::with_capacity(requests);
                for i in 0..requests {
                    let q = &queries[(c + i) % queries.len()];
                    let t0 = Instant::now();
                    match pool.respond(&SourceRequest::new(q, 0, ProberMode::Wire), &mut |_| {}) {
                        Ok(_) | Err(CrawlError::Rejected) | Err(CrawlError::Cancelled) => {}
                        Err(e) => panic!("workload queries are valid, got {e}"),
                    }
                    samples.push(t0.elapsed().as_micros() as u64);
                }
                samples
            })
        })
        .collect();
    let mut samples = Vec::with_capacity(CLIENTS * requests);
    for h in handles {
        samples.extend(h.join().expect("client thread"));
    }
    let elapsed = start.elapsed();

    // Quiesce: hedge losers and retransmits may still be draining — wait
    // until every enqueued job has completed or cancelled before reading
    // the billing counters.
    loop {
        let r = service.service_report();
        if r.enqueued == r.completed + r.cancelled {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let rounds = pool.rounds_used();
    let stalls_injected = chaos.tally().stalled;
    // `shutdown` blocks until every connection is gone — release ours.
    drop(pool);
    let report = service.shutdown();
    Pass { samples, rounds, report, stalls_injected, elapsed }
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    let idx = (sorted.len() * pct / 100).min(sorted.len().saturating_sub(1));
    sorted[idx]
}

fn main() {
    let requests = requests_per_client();

    let mut unhedged = drive(None, requests);
    let mut hedged = drive(Some(HEDGE_AFTER), requests);
    unhedged.samples.sort_unstable();
    hedged.samples.sort_unstable();

    let (u_p50, u_p95, u_p99) = (
        percentile(&unhedged.samples, 50),
        percentile(&unhedged.samples, 95),
        percentile(&unhedged.samples, 99),
    );
    let (h_p50, h_p95, h_p99) = (
        percentile(&hedged.samples, 50),
        percentile(&hedged.samples, 95),
        percentile(&hedged.samples, 99),
    );
    println!(
        "chaos unhedged: p50 {u_p50}us  p95 {u_p95}us  p99 {u_p99}us  rounds {}  \
         stalls {}  {:.2}s",
        unhedged.rounds,
        unhedged.stalls_injected,
        unhedged.elapsed.as_secs_f64()
    );
    println!(
        "chaos hedged:   p50 {h_p50}us  p95 {h_p95}us  p99 {h_p99}us  rounds {}  \
         hedges {}  stalls {}  {:.2}s",
        hedged.rounds,
        hedged.report.hedged,
        hedged.stalls_injected,
        hedged.elapsed.as_secs_f64()
    );
    println!(
        "  breakdown unhedged: enq {} done {} shed {} canc {} retx {}",
        unhedged.report.enqueued,
        unhedged.report.completed,
        unhedged.report.shed,
        unhedged.report.cancelled,
        unhedged.report.retransmitted
    );
    println!(
        "  breakdown hedged:   enq {} done {} shed {} canc {} retx {}",
        hedged.report.enqueued,
        hedged.report.completed,
        hedged.report.shed,
        hedged.report.cancelled,
        hedged.report.retransmitted
    );

    // Sanity: the plan actually fired, and hedges actually raced.
    assert!(unhedged.stalls_injected > 0, "stall plan never fired — no tail to cut");
    assert!(hedged.report.hedged > 0, "hedging never triggered below the stall threshold");
    assert_eq!(
        unhedged.report.enqueued,
        unhedged.report.completed + unhedged.report.cancelled,
        "unhedged drain invariant"
    );
    assert_eq!(
        hedged.report.enqueued,
        hedged.report.completed + hedged.report.cancelled,
        "hedged drain invariant"
    );

    // --- Gate 1: hedging must cut the stall tail at least in half. -------
    assert!(
        h_p99 * 2 <= u_p99,
        "hedged p99 {h_p99}us must be at least 2x better than unhedged p99 {u_p99}us"
    );
    // --- Gate 2: ...without more than a 15% round premium. ---------------
    let premium = hedged.rounds as f64 / unhedged.rounds.max(1) as f64;
    assert!(
        premium <= 1.15,
        "hedging round premium {premium:.3}x exceeds the 1.15x budget \
         ({} hedged vs {} unhedged)",
        hedged.rounds,
        unhedged.rounds
    );

    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"mode\": \"{}\",\n  \
         \"requests_per_client\": {},\n  \"clients\": {},\n  \
         \"stall_rate\": {:.3},\n  \"stall_us\": {},\n  \"hedge_after_us\": {},\n  \
         \"unhedged\": {{\n    \"p50_us\": {},\n    \"p95_us\": {},\n    \
         \"p99_us\": {},\n    \"rounds\": {},\n    \"stalls\": {}\n  }},\n  \
         \"hedged\": {{\n    \"p50_us\": {},\n    \"p95_us\": {},\n    \
         \"p99_us\": {},\n    \"rounds\": {},\n    \"hedges\": {},\n    \
         \"retransmitted\": {},\n    \"stalls\": {}\n  }},\n  \
         \"p99_speedup\": {:.2},\n  \"round_premium\": {:.3}\n}}\n",
        if quick_mode() { "quick" } else { "full" },
        requests,
        CLIENTS,
        STALL_RATE,
        STALL.as_micros(),
        HEDGE_AFTER.as_micros(),
        u_p50,
        u_p95,
        u_p99,
        unhedged.rounds,
        unhedged.stalls_injected,
        h_p50,
        h_p95,
        h_p99,
        hedged.rounds,
        hedged.report.hedged,
        hedged.report.retransmitted,
        hedged.stalls_injected,
        u_p99 as f64 / h_p99.max(1) as f64,
        premium,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_7.json");
    std::fs::write(&out, &json).expect("write BENCH_7.json");
    println!(
        "chaos gates passed (p99 {:.1}x better at {premium:.3}x rounds) -> {}",
        u_p99 as f64 / h_p99.max(1) as f64,
        out.display()
    );
}
