//! Chaos suite: seeded lossy-wire schedules against the serving tier.
//!
//! Every schedule is a [`ChaosPlan`] — an exact map from wire-frame index to
//! fault — interposed between a crawler and a [`SourceService`]. The matrix
//! sweeps all eight [`ChaosKind`]s across enough seeds for ≥1,000 schedules
//! and checks four invariants on every one:
//!
//! 1. **Absorption** — the crawl report is bit-identical to the fault-free
//!    baseline (exactly-once request ids + client retransmission hide every
//!    recoverable fault below the `DataSource` seam). `Halt` is the one
//!    unrecoverable kind: there the crawl may end early but must never
//!    harvest records the baseline didn't.
//! 2. **Billing conservation** — `rounds_used` equals `executed + shed +
//!    cancelled + retransmitted`, cross-checked between the connection's
//!    atomic counters and the folded event stream.
//! 3. **Replay parity** — the [`ServiceReport`] folded live equals the one
//!    replayed from the recorded event stream.
//! 4. **Determinism** — re-running the same seed reproduces the same crawl
//!    report and the same service counters.
//!
//! A failing schedule is ddmin-shrunk ([`shrink_plan`]) to a 1-minimal fault
//! set, written to `target/chaos/` (CI uploads it as an artifact) beside the
//! figure-1 fixture as CSV, and printed as a `dwc chaos` command line that
//! carries every flag of the run and replays it over that CSV.
//!
//! A hedged sweep runs the non-halt schedules again through a connection
//! that hedges past a threshold below the stall, checking every invariant
//! but determinism (hedges fire on wall-clock time).
//!
//! The invariants themselves are [`ChaosRun::violation`], the check
//! `dwc chaos` runs too.
//!
//! CI selects one kind per job via `DWC_CHAOS_KIND` and offsets seeds via
//! `DWC_CHAOS_SEED`, for the matrix and the hedged sweep alike; unset, the
//! full 8 × 125 matrix runs.

use deep_web_crawler::core::replay_service_report;
use deep_web_crawler::datagen::loader::to_csv;
use deep_web_crawler::model::fixtures::figure1_table;
use deep_web_crawler::model::{AttrId, AttrSpec, Schema, UniversalTable};
use deep_web_crawler::prelude::*;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

/// Seeds per chaos kind: 8 kinds × 125 = 1,000 schedules when the matrix
/// is not filtered down to one kind, and 7 × 125 for the hedged sweep.
const SEEDS_PER_KIND: u64 = 125;

/// The crawl every schedule runs: GL from `A=a2` over the figure-1 table,
/// two records a page, 400 rounds at most.
const SEED: (&str, &str) = ("A", "a2");
const PAGE_SIZE: usize = 2;
const BUDGET: u64 = 400;

fn figure1_server() -> Arc<WebDbServer> {
    let table = figure1_table();
    let spec = InterfaceSpec::permissive(table.schema(), PAGE_SIZE);
    Arc::new(WebDbServer::new(table, spec))
}

fn crawl_config() -> CrawlConfig {
    CrawlConfig::builder().max_rounds(BUDGET).prober(ProberMode::Wire).build().unwrap()
}

fn run_crawl<S: DataSource>(source: S) -> CrawlReport {
    let mut crawler = Crawler::new(source, PolicyKind::GreedyLink.build(), crawl_config());
    crawler.add_seed(SEED.0, SEED.1);
    crawler.run()
}

/// Service workers of a run: two when hedging, so a hedge can overtake a
/// stalled primary, else one.
fn serve_workers(hedge: Option<Duration>) -> usize {
    if hedge.is_some() {
        2
    } else {
        1
    }
}

/// Runs the GL crawl under `plan` on a fresh service over the figure-1
/// table through one connection, hedging past `hedge` when it is set.
fn run_chaos_with(plan: &ChaosPlan, hedge: Option<Duration>) -> ChaosRun {
    let inner = figure1_server();
    let config = ServeConfig::builder().workers(serve_workers(hedge)).build().unwrap();
    let service = SourceService::start(Arc::clone(&inner), config);
    let sink = MemorySink::new();
    service.add_sink(Box::new(sink.clone()));
    let chaos = Arc::new(ChaosState::new(plan.clone()));
    let mut conn = service.connect().with_chaos(Arc::clone(&chaos));
    if let Some(threshold) = hedge {
        conn = conn.with_hedging(threshold);
    }
    let report = run_crawl(&conn);
    drain(&service);
    let rounds_used = conn.rounds_used();
    drop(conn);
    let service_report = service.shutdown();
    ChaosRun {
        report,
        service: service_report,
        replayed: replay_service_report(&sink.collected()),
        executed: inner.rounds_used(),
        rounds_used,
        frames: chaos.frames_sent(),
        tally: chaos.tally(),
    }
}

fn run_chaos(plan: &ChaosPlan) -> ChaosRun {
    run_chaos_with(plan, None)
}

/// Hedge threshold of the hedged sweep: below the suite's 200 µs stall.
const HEDGE_AFTER: Duration = Duration::from_micros(100);

fn run_hedged(plan: &ChaosPlan) -> ChaosRun {
    run_chaos_with(plan, Some(HEDGE_AFTER))
}

/// Waits until every admitted request is accounted for: chaos duplicates
/// and losing hedges enqueued alongside the crawl's final request may
/// still be draining when its reply lands.
fn drain(service: &SourceService<WebDbServer>) {
    loop {
        let r = service.service_report();
        if r.enqueued == r.completed + r.cancelled {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The counter half of a [`ServiceReport`] — everything that must be
/// deterministic across same-seed runs (latencies are wall-clock and are
/// not).
fn counters(r: &ServiceReport) -> [u64; 8] {
    [
        r.enqueued,
        r.completed,
        r.shed,
        r.cancelled,
        r.frames_dropped,
        r.retransmitted,
        r.hedged,
        r.restarts,
    ]
}

/// A seeded single-kind schedule over the first 48 frames. Sub-millisecond
/// stall/reorder keeps 1,000 schedules fast while still exercising the
/// delayed-execution paths.
fn seeded_plan(seed: u64, kind: ChaosKind) -> ChaosPlan {
    ChaosPlan::seeded(seed, 48, 0.2, &[kind])
        .stall_for(Duration::from_micros(200))
        .reorder_for(Duration::from_micros(100))
}

/// Writes the figure-1 table as CSV into `dir`, the file a printed
/// reproduction crawls.
fn write_fixture(dir: &Path) -> PathBuf {
    let _ = std::fs::create_dir_all(dir);
    let csv = dir.join("figure1.csv");
    let _ = std::fs::write(&csv, to_csv(&figure1_table()));
    csv
}

/// The `dwc chaos` arguments that replay a run under `plan` over the
/// fixture at `csv`: every flag of the run that `dwc chaos` takes, then the
/// plan. `dwc chaos` takes no stall or reorder duration; it uses the plan's
/// defaults.
fn repro_args(csv: &Path, plan: &ChaosPlan, hedge: Option<Duration>) -> Vec<String> {
    let mut args = vec!["dwc".to_string(), "chaos".into(), csv.display().to_string()];
    let mut flag = |name: &str, value: String| args.extend([format!("--{name}"), value]);
    flag("seed-value", format!("{}={}", SEED.0, SEED.1));
    flag("policy", "gl".into());
    flag("budget", BUDGET.to_string());
    flag("page-size", PAGE_SIZE.to_string());
    flag("serve-workers", serve_workers(hedge).to_string());
    flag("queue", ServeConfig::default().queue_depth.to_string());
    if let Some(threshold) = hedge {
        flag("hedge-us", threshold.as_micros().to_string());
    }
    flag("chaos-plan", plan.to_spec());
    args
}

/// `args` as one shell line, each word single-quoted unless it holds only
/// characters no shell treats specially.
fn repro_line(args: &[String]) -> String {
    let plain = |c: char| c.is_ascii_alphanumeric() || "-_=.,:/+@%".contains(c);
    let word = |a: &String| {
        if !a.is_empty() && a.chars().all(plain) {
            a.clone()
        } else {
            format!("'{}'", a.replace('\'', "'\\''"))
        }
    };
    args.iter().map(word).collect::<Vec<_>>().join(" ")
}

/// Shrinks a plan that runs with `hedge` show failing, writes the artifact
/// CI uploads and the fixture its repro line names, and panics with that
/// line.
fn report_failure(
    kind: ChaosKind,
    seed: u64,
    plan: &ChaosPlan,
    why: &str,
    baseline: &CrawlReport,
    hedge: Option<Duration>,
) {
    let shrunk = shrink_plan(plan, |p| run_chaos_with(p, hedge).violation(p, baseline).is_some());
    let spec = shrunk.to_spec();
    let dir = Path::new("target/chaos");
    let repro = repro_line(&repro_args(&write_fixture(dir), &shrunk, hedge));
    let sweep = if hedge.is_some() { "-hedged" } else { "" };
    let artifact = dir.join(format!("shrunk-{kind}-{seed}{sweep}.txt"));
    let defaults = ChaosPlan::new();
    let _ = std::fs::write(
        &artifact,
        format!(
            "kind: {kind}\nseed: {seed}\nviolation: {why}\nfull plan: {}\nshrunk plan: {spec}\n\
             stall: {:?}, reorder: {:?} (dwc chaos takes neither; it uses {:?} and {:?})\n\
             repro: {repro}\n",
            plan.to_spec(),
            shrunk.stall(),
            shrunk.reorder(),
            defaults.stall(),
            defaults.reorder()
        ),
    );
    panic!(
        "chaos schedule {kind}/{seed} violated an invariant: {why}\n\
         shrunk to {} fault(s): {spec}\n\
         reproduce with: {repro}\n\
         (also written to {})",
        shrunk.len(),
        artifact.display()
    );
}

fn matrix_kinds() -> Vec<ChaosKind> {
    match std::env::var("DWC_CHAOS_KIND") {
        Ok(token) => {
            let kind = ChaosKind::parse(&token)
                .unwrap_or_else(|| panic!("unknown DWC_CHAOS_KIND {token:?}"));
            vec![kind]
        }
        Err(_) => ChaosKind::ALL.to_vec(),
    }
}

fn seed_base() -> u64 {
    std::env::var("DWC_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// The tentpole matrix: ≥1,000 seeded schedules (8 kinds × 125 seeds, or
/// 125 for the CI-selected kind), every invariant checked on each, with a
/// determinism double-run on a stride of cells.
#[test]
fn seeded_chaos_matrix_holds_every_invariant() {
    let baseline = run_crawl(&*figure1_server());
    assert!(baseline.records > 0, "the baseline crawl must harvest something");
    let base = seed_base();
    for kind in matrix_kinds() {
        for i in 0..SEEDS_PER_KIND {
            let seed = base + i;
            let plan = seeded_plan(seed, kind);
            if let Some(why) = run_chaos(&plan).violation(&plan, &baseline) {
                report_failure(kind, seed, &plan, &why, &baseline, None);
            }
            if i % 8 == 0 {
                // Determinism: the same seed must reproduce the same crawl
                // report and the same service counters.
                let a = run_chaos(&plan);
                let b = run_chaos(&plan);
                assert_eq!(a.report, b.report, "{kind}/{seed}: crawl report not deterministic");
                assert_eq!(
                    counters(&a.service),
                    counters(&b.service),
                    "{kind}/{seed}: service counters not deterministic"
                );
                assert_eq!(a.tally, b.tally, "{kind}/{seed}: chaos tally not deterministic");
            }
        }
    }
}

/// Mixed-kind schedules (the pool drawn from all eight kinds at once) stress
/// fault interactions the single-kind matrix cannot.
#[test]
fn mixed_kind_schedules_hold_every_invariant() {
    let baseline = run_crawl(&*figure1_server());
    let base = seed_base();
    for i in 0..64 {
        let seed = 10_000 + base + i;
        let plan = ChaosPlan::seeded(seed, 48, 0.25, &ChaosKind::ALL)
            .stall_for(Duration::from_micros(200))
            .reorder_for(Duration::from_micros(100));
        if let Some(why) = run_chaos(&plan).violation(&plan, &baseline) {
            report_failure(ChaosKind::Drop, seed, &plan, &why, &baseline, None);
        }
    }
}

/// The matrix's non-halt schedules through a hedging connection. Hedges fire on
/// wall-clock time, so a schedule's frame indices shift with timing and
/// same-seed determinism is not checked; absorption, conservation and
/// replay parity must hold on every run.
#[test]
fn hedged_chaos_sweep_holds_every_invariant_but_determinism() {
    let baseline = run_crawl(&*figure1_server());
    let base = seed_base();
    let mut hedged = 0;
    for kind in matrix_kinds().into_iter().filter(|&k| k != ChaosKind::Halt) {
        for i in 0..SEEDS_PER_KIND {
            let seed = base + i;
            let plan = seeded_plan(seed, kind);
            let run = run_hedged(&plan);
            if let Some(why) = run.violation(&plan, &baseline) {
                report_failure(kind, seed, &plan, &why, &baseline, Some(HEDGE_AFTER));
            }
            hedged += run.service.hedged;
        }
    }
    if matrix_kinds().contains(&ChaosKind::Stall) {
        assert!(hedged > 0, "no request outlived the {HEDGE_AFTER:?} threshold");
    }
}

/// The repro line a failure prints replays through the `dwc` binary, hedged
/// and not: the fixture it names loads, every flag parses, and the crawl
/// harvests what the suite's baseline harvests.
#[test]
fn a_printed_repro_line_replays_through_dwc() {
    let baseline = run_crawl(&*figure1_server());
    let n = figure1_table().num_records();
    let dir = std::env::temp_dir().join(format!("dwc-chaos-repro-{}", std::process::id()));
    let csv = write_fixture(&dir);
    let kinds: Vec<ChaosKind> =
        ChaosKind::ALL.into_iter().filter(|&k| k != ChaosKind::Halt).collect();
    let plan = ChaosPlan::seeded(seed_base(), 48, 0.25, &kinds);
    assert!(!plan.is_empty());
    let runs: Vec<(String, std::process::Output)> = [None, Some(HEDGE_AFTER)]
        .into_iter()
        .map(|hedge| {
            let args = repro_args(&csv, &plan, hedge);
            let out = Command::new(env!("CARGO_BIN_EXE_dwc")).args(&args[1..]).output();
            (repro_line(&args), out.expect("run dwc"))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    for (line, out) in runs {
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{line}: {}", String::from_utf8_lossy(&out.stderr));
        let records = baseline.records;
        assert!(
            stdout.contains(&format!("records    : {records} / {n} (baseline {records})")),
            "{line}: {stdout}"
        );
    }
}

/// The shrinker turned loose on a real failure: a plan that genuinely
/// violates absorption (a halt) shrinks to exactly the halt fault.
#[test]
fn shrinking_a_halting_plan_isolates_the_halt() {
    let baseline = run_crawl(&*figure1_server());
    // Pad a halt with harmless recoverable faults; the crawl ends early, so
    // the report diverges (fewer records) — `violation` flags nothing for
    // halts unless records exceed baseline, so use report divergence
    // directly as the failing predicate here.
    let plan = ChaosPlan::new().stall_at(1).duplicate_at(3).halt_at(5).corrupt_at(7);
    let fails = |p: &ChaosPlan| run_chaos(p).report != baseline;
    assert!(fails(&plan), "a mid-crawl halt must change the crawl report");
    let shrunk = shrink_plan(&plan, fails);
    assert_eq!(shrunk.len(), 1, "only the halt matters: {}", shrunk.to_spec());
    assert_eq!(shrunk.kind_at(5), Some(ChaosKind::Halt));
}

// ---------------------------------------------------------------------------
// Crash-at-every-frame recovery (satellite: checkpoint-resume parity)
// ---------------------------------------------------------------------------

/// Runs the protocol crawl stepping with a checkpoint before every step,
/// killing the service at wire frame `halt_at`. If the kill landed
/// mid-crawl, resumes from the last pre-kill checkpoint against a fresh
/// in-process source and returns that report; otherwise returns the
/// completed report.
fn crawl_killed_at(server: Arc<WebDbServer>, halt_at: u64) -> CrawlReport {
    let service = SourceService::start(Arc::clone(&server), ServeConfig::default());
    let chaos = Arc::new(ChaosState::new(ChaosPlan::new().halt_at(halt_at)));
    let conn = service.connect().with_chaos(Arc::clone(&chaos));
    let mut crawler = Crawler::new(conn, PolicyKind::Bfs.build(), CrawlConfig::default());
    crawler.add_seed("A", "a2");
    let mut last_cp = crawler.checkpoint();
    loop {
        if chaos.is_halted() {
            // The service died mid-crawl. Steps that observed the dead
            // service polluted the crawler's state (failed queries), so the
            // crawler is discarded; the last checkpoint taken *before* the
            // kill is the recovery point.
            drop(crawler);
            let fresh = figure1_server();
            let resumed =
                Crawler::resume(&*fresh, PolicyKind::Bfs.build(), &last_cp, CrawlConfig::default());
            return resumed.run();
        }
        last_cp = crawler.checkpoint();
        if crawler.step().is_none() {
            return crawler.into_report(StopReason::FrontierExhausted);
        }
    }
}

/// Killing the service at *every* frame index of the reference run, one at
/// a time, always recovers to the uninterrupted report via
/// checkpoint-resume.
#[test]
fn service_killed_at_every_frame_recovers_to_the_uninterrupted_report() {
    let baseline = {
        let server = figure1_server();
        let mut crawler = Crawler::new(&*server, PolicyKind::Bfs.build(), CrawlConfig::default());
        crawler.add_seed("A", "a2");
        crawler.run()
    };
    // Count the reference run's wire frames with a no-fault chaos wire.
    let frames = {
        let server = figure1_server();
        let service = SourceService::start(Arc::clone(&server), ServeConfig::default());
        let chaos = Arc::new(ChaosState::new(ChaosPlan::new()));
        let conn = service.connect().with_chaos(Arc::clone(&chaos));
        let report = run_protocol_bfs(conn);
        assert_eq!(report.records, baseline.records, "fault-free protocol parity");
        chaos.frames_sent()
    };
    assert!(frames >= 4, "the reference crawl must actually use the wire");
    for halt_at in 1..=frames {
        let report = crawl_killed_at(figure1_server(), halt_at);
        assert_eq!(
            report.records, baseline.records,
            "kill at frame {halt_at}/{frames}: resumed crawl lost or duplicated records"
        );
        assert_eq!(
            report.queries, baseline.queries,
            "kill at frame {halt_at}/{frames}: resumed crawl issued a different query set"
        );
        assert_eq!(
            report.rounds, baseline.rounds,
            "kill at frame {halt_at}/{frames}: BFS resume must be cost-exact"
        );
    }
}

fn run_protocol_bfs<S: DataSource>(source: S) -> CrawlReport {
    let mut crawler = Crawler::new(source, PolicyKind::Bfs.build(), CrawlConfig::default());
    crawler.add_seed("A", "a2");
    crawler.run()
}

/// A random record: 2–5 `(attr, value-index)` fields over 3 attributes.
fn record_strategy() -> impl Strategy<Value = Vec<(u16, u8)>> {
    prop::collection::vec((0u16..3, 0u8..10), 2..=5)
}

fn table_from(records: &[Vec<(u16, u8)>]) -> UniversalTable {
    let schema = Schema::new(vec![
        AttrSpec::queriable("A"),
        AttrSpec::queriable("B"),
        AttrSpec::queriable("C"),
    ]);
    let mut t = UniversalTable::new(schema);
    for rec in records {
        let fields: Vec<(AttrId, String)> =
            rec.iter().map(|&(a, v)| (AttrId(a), format!("v{v}"))).collect();
        t.push_record_strs(fields.iter().map(|(a, s)| (*a, s.as_str())));
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint-resume recovery holds on random databases too, with the
    /// kill frame drawn across the whole schedule.
    #[test]
    fn service_crash_recovery_on_random_databases(
        records in prop::collection::vec(record_strategy(), 1..20),
        halt_at in 1u64..60,
        seed_val in 0u8..8,
    ) {
        let table = table_from(&records);
        let seed = format!("v{seed_val}");
        let make_server = || {
            let spec = InterfaceSpec::permissive(table.schema(), 3);
            Arc::new(WebDbServer::new(table.clone(), spec))
        };
        let baseline = {
            let server = make_server();
            let mut c = Crawler::new(&*server, PolicyKind::Bfs.build(), CrawlConfig::default());
            c.add_seed("A", &seed);
            c.run()
        };

        let service = SourceService::start(make_server(), ServeConfig::default());
        let chaos = Arc::new(ChaosState::new(ChaosPlan::new().halt_at(halt_at)));
        let conn = service.connect().with_chaos(Arc::clone(&chaos));
        let mut crawler = Crawler::new(conn, PolicyKind::Bfs.build(), CrawlConfig::default());
        crawler.add_seed("A", &seed);
        let mut last_cp = crawler.checkpoint();
        let report = loop {
            if chaos.is_halted() {
                drop(crawler);
                let fresh = make_server();
                let resumed = Crawler::resume(
                    &*fresh,
                    PolicyKind::Bfs.build(),
                    &last_cp,
                    CrawlConfig::default(),
                );
                break resumed.run();
            }
            last_cp = crawler.checkpoint();
            if crawler.step().is_none() {
                break crawler.into_report(StopReason::FrontierExhausted);
            }
        };
        prop_assert_eq!(report.records, baseline.records);
        prop_assert_eq!(report.queries, baseline.queries);
        prop_assert_eq!(report.rounds, baseline.rounds, "BFS resume is cost-exact");
    }
}
