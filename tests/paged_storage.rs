//! Out-of-core storage parity suite: a server reading file-backed segments
//! through a buffer pool is observationally identical to one reading
//! in-memory segments in place, and the state journal loses at most the
//! query in flight.
//!
//! Four invariants:
//!
//! 1. **Read-path parity under faults** — a crawl against a
//!    [`SegmentTable`] on files behind a small buffer pool produces a
//!    `CrawlReport` bit-identical to `WebDbServer::new`'s (in-memory
//!    segments, read in place), across the same `DWC_FAULT_KIND` ×
//!    `DWC_FAULT_SEED` matrix the crash and serving-parity suites sweep.
//!    Storage is below the query seam; policies must not be able to tell.
//! 2. **Read-path parity on random databases** — the same equality,
//!    property tested over random small tables, page sizes, and result caps.
//! 3. **Storage errors end requests, not crawls** — a segment file cut
//!    short under a live server fails each request with a fatal error, and
//!    the crawl over it stops without panicking.
//! 4. **Journal recovery at every frame** — kill a journaled crawl at every
//!    frame boundary (and mid-frame), recover exactly the state the crawler
//!    had after that query, resume, and the finished crawl matches the
//!    uninterrupted baseline exactly. A resume after a kill past the last
//!    periodic rebase takes the journal's newest state and re-spends no
//!    rounds.

mod common;

use common::{fault_matrix_cell, matrix_plan};
use deep_web_crawler::core::JournalRecovery;
use deep_web_crawler::model::{AttrId, AttrSpec, Schema, UniversalTable};
use deep_web_crawler::prelude::*;
use deep_web_crawler::server::ServerError;
use deep_web_crawler::store::{FilePager, FrameLog, MemoryBudget, SegmentTable};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fresh per-test scratch directory (same idiom as the store's own tests).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("dwc-paged-storage-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn imdb_table(seed: u64) -> UniversalTable {
    Preset::Imdb.table(0.002, seed)
}

fn interface(table: &UniversalTable) -> InterfaceSpec {
    InterfaceSpec::permissive(table.schema(), 10).with_result_cap(40)
}

/// A paged copy of `table` on real files, with the buffer pool sized from a
/// deliberately small budget so eviction actually happens mid-crawl.
fn paged_server(table: &UniversalTable, dir: &std::path::Path) -> WebDbServer {
    let budget = MemoryBudget::from_mb(2);
    let pager =
        FilePager::open(dir, deep_web_crawler::store::DEFAULT_PAGE_SIZE).expect("open segment dir");
    let seg = SegmentTable::from_table(table, Box::new(pager), budget.pool_bytes())
        .expect("pack segments");
    WebDbServer::paged(Arc::new(seg), interface(table)).with_page_cache(budget.page_cache_entries())
}

fn crawl_config() -> CrawlConfig {
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

/// Swapping in-memory segments for file-backed ones changes nothing above
/// the query seam — counters, coverage, and the full per-query trace are
/// bit-identical, fault matrix included.
#[test]
fn paged_backend_reproduces_resident_reports_across_fault_matrix() {
    let (kind, seed) = fault_matrix_cell();
    // A `panic` cell needs a supervisor; a single crawler runs `mixed`.
    let plan = || matrix_plan(if kind == "panic" { "mixed" } else { &kind }, seed);
    let table = imdb_table(3);
    let dir = scratch_dir("matrix");

    let resident = run_crawl(
        FaultPlanSource::new(WebDbServer::new(table.clone(), interface(&table)), plan()),
        crawl_config(),
    );
    let paged = run_crawl(FaultPlanSource::new(paged_server(&table, &dir), plan()), crawl_config());

    assert_eq!(
        paged, resident,
        "fault cell {kind}/{seed}: the paged backend must reproduce the resident report"
    );
    assert!(resident.records > 0, "fault cell {kind}/{seed} harvested nothing");
    std::fs::remove_dir_all(&dir).ok();
}

/// Parity holds through the serving tier too: segments under a bounded
/// queue and worker threads still bill and harvest identically.
#[test]
fn paged_backend_parity_through_the_service() {
    let table = imdb_table(11);
    let dir = scratch_dir("service");

    let resident = {
        let service = SourceService::start(
            Arc::new(WebDbServer::new(table.clone(), interface(&table))),
            ServeConfig::default(),
        );
        let conn = service.connect();
        let report = run_crawl(conn.clone(), crawl_config());
        assert_eq!(report.rounds, conn.rounds_used());
        drop(conn);
        service.shutdown();
        report
    };
    let paged = {
        let service =
            SourceService::start(Arc::new(paged_server(&table, &dir)), ServeConfig::default());
        let conn = service.connect();
        let report = run_crawl(conn.clone(), crawl_config());
        assert_eq!(report.rounds, conn.rounds_used());
        drop(conn);
        service.shutdown();
        report
    };

    assert_eq!(paged, resident);
    std::fs::remove_dir_all(&dir).ok();
}

/// A random record: 2–5 `(attr, value-index)` fields over 3 attributes with
/// value pools of 12 per attribute (the shared properties-suite shape).
fn record_strategy() -> impl Strategy<Value = Vec<(u16, u8)>> {
    prop::collection::vec((0u16..3, 0u8..12), 2..=5)
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Read-path parity as a property: for any random table, page size, and
    /// result cap, crawls of in-memory and pooled file segments produce
    /// identical reports.
    #[test]
    fn paged_crawls_match_resident_on_random_tables(
        records in prop::collection::vec(record_strategy(), 1..40),
        page_size in 1usize..7,
        cap in prop::option::of(1usize..30),
    ) {
        let t = table_from(&records);
        let mut spec = InterfaceSpec::permissive(t.schema(), page_size);
        if let Some(c) = cap {
            spec = spec.with_result_cap(c);
        }
        let config = CrawlConfig::builder()
            .max_rounds(400)
            .prober(ProberMode::Wire)
            .build()
            .expect("valid crawl config");
        let run = |server: WebDbServer| {
            let mut crawler = Crawler::new(server, PolicyKind::GreedyLink.build(), config.clone());
            crawler.add_seed("A", "v0");
            crawler.run()
        };

        let resident = run(WebDbServer::new(t.clone(), spec.clone()));
        // Files behind a one-frame pool, which cannot hold the table's four
        // segments at once, so the pooled path evicts mid-crawl.
        let dir = scratch_dir("random");
        let pager = FilePager::open(&dir, 64).expect("open segment dir");
        let seg = SegmentTable::from_table(&t, Box::new(pager), 64).expect("pack segments");
        let paged = run(WebDbServer::paged(Arc::new(seg), spec));
        std::fs::remove_dir_all(&dir).ok();

        prop_assert_eq!(paged, resident);
    }
}

/// Segment files cut short under a live file-paged server: every request
/// fails with a fatal storage error (still billed), and a crawl over the
/// server gives up its seeds and stops instead of panicking.
#[test]
fn truncated_segment_files_end_the_crawl_without_panicking() {
    let table = imdb_table(3);
    let dir = scratch_dir("truncated");
    let server = paged_server(&table, &dir);
    for entry in std::fs::read_dir(&dir).expect("segment dir") {
        let file = std::fs::OpenOptions::new().write(true).open(entry.expect("entry").path());
        file.expect("open segment file").set_len(0).expect("truncate");
    }
    let q = Query::ByString { attr: "Actor".into(), value: "Actor_0".into() };
    assert!(matches!(server.query_page(&q, 0), Err(ServerError::Storage { .. })));

    let report = run_crawl(&server, crawl_config());
    assert_eq!(report.records, 0, "nothing can be read");
    assert_eq!(report.rounds, server.rounds_used() - 1, "each failed request is billed");
    assert!(report.rounds > 0 && report.rounds < 1_500, "the crawl stops on its own");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs a crawl one step at a time until its round budget, as
/// [`Crawler::run`] would, and returns its report with the state after
/// seeding and after every query: journal frame `i` must hold `states[i]`.
fn stepped_crawl<S: DataSource>(source: S, config: CrawlConfig) -> (CrawlReport, Vec<Checkpoint>) {
    let budget = config.max_rounds.expect("a round budget");
    let mut crawler = Crawler::new(source, PolicyKind::GreedyLink.build(), config);
    crawler.add_seed("Language", "Language_0");
    crawler.add_seed("Actor", "Actor_0");
    let mut states = vec![crawler.checkpoint()];
    let stop = loop {
        if crawler.elapsed_rounds() >= budget {
            break StopReason::RoundBudget;
        }
        if crawler.step().is_none() {
            break StopReason::FrontierExhausted;
        }
        states.push(crawler.checkpoint());
    };
    (crawler.into_report(stop), states)
}

/// Cuts the journal at `path` at every frame boundary and 5 bytes past it
/// (a torn write) and recovers each cut. A cut keeping `i` frames must
/// recover `states[i - 1]`, the crawler's own checkpoint after query
/// `i - 1`, field for field; `resume` then gets `i`, the torn bytes and
/// the recovery.
fn kill_at_every_frame(
    path: &std::path::Path,
    states: &[Checkpoint],
    mut resume: impl FnMut(usize, u64, &JournalRecovery),
) {
    let replay = FrameLog::replay(path).expect("replay journal");
    assert!(!replay.torn, "a cleanly finished crawl leaves no torn tail");
    assert_eq!(replay.frames.len(), states.len(), "one base frame, then one delta per query");
    let bytes = std::fs::read(path).expect("read journal");
    assert_eq!(replay.valid_len, bytes.len() as u64);

    // Frame boundaries: each frame is [u32 len][u64 checksum][payload].
    let mut boundaries = vec![0u64];
    for frame in &replay.frames {
        boundaries.push(boundaries.last().unwrap() + 12 + frame.len() as u64);
    }
    let cut_path = path.with_extension("cut");
    for (i, &cut) in boundaries.iter().enumerate() {
        // The kill point: everything after `cut` never reached disk.
        for extra in [0u64, 5] {
            let end = (cut + extra).min(bytes.len() as u64) as usize;
            std::fs::write(&cut_path, &bytes[..end]).expect("write cut journal");
            let recovered = StateJournal::recover(&cut_path);
            if i == 0 {
                // Bases are renamed into place whole, so no crash leaves a
                // partial one: an empty journal has no state yet, and a
                // damaged first frame (with no `.bak`) is an error.
                match extra {
                    0 => assert!(recovered.expect("recover").is_none(), "empty cut"),
                    _ => assert!(recovered.is_err(), "a torn base frame must not pass as none"),
                }
                continue;
            }
            let rec = recovered.expect("recover").expect("base frame present");
            assert_eq!(rec.deltas_applied, (i - 1) as u64, "cut after frame {i}");
            if extra > 0 && end < bytes.len() {
                assert!(rec.torn, "a half-frame tail must be flagged torn");
            }
            assert_eq!(
                rec.checkpoint,
                states[i - 1],
                "kill after frame {i} (+{extra}B) must recover the state after query {}",
                i - 1
            );
            resume(i, extra, &rec);
        }
    }
}

/// Journal crash-recovery sweep: run a journaled crawl to completion, then
/// simulate a kill at **every frame boundary** (and mid-frame, to model a
/// torn write). Each recovery must yield exactly the crawler's own
/// checkpoint after that query, and the crawler resumes from it to the
/// exact baseline outcome — the journal never loses more than the query
/// that was in flight, and a torn tail is discarded, not trusted. The same
/// exact-state sweep runs under the `DWC_FAULT_KIND` matrix cell, whose
/// faults drive the retry and requeue paths.
#[test]
fn journal_recovers_at_every_kill_point() {
    let table = imdb_table(3);
    let dir = scratch_dir("journal");
    let journal_path = dir.join("crawl.journal");
    let config = |journal: &std::path::Path| {
        CrawlConfig::builder()
            .max_rounds(300)
            .journal_path(journal)
            .build()
            .expect("valid crawl config")
    };

    let server = WebDbServer::new(table.clone(), interface(&table));
    let (baseline, states) = stepped_crawl(&server, config(&journal_path));
    assert!(baseline.records > 0);
    let resume_config = CrawlConfig::builder().max_rounds(300).build().expect("valid config");
    let mut prev_records = 0usize;
    kill_at_every_frame(&journal_path, &states, |i, extra, rec| {
        // Resume from the recovered state and finish the crawl: the
        // outcome must match the uninterrupted baseline exactly.
        let fresh = WebDbServer::new(table.clone(), interface(&table));
        let crawler = Crawler::resume(
            &fresh,
            PolicyKind::GreedyLink.build(),
            &rec.checkpoint,
            resume_config.clone(),
        );
        let resumed = crawler.run();
        assert_eq!(
            resumed.records, baseline.records,
            "kill after frame {i} (+{extra}B) lost records"
        );
        assert_eq!(resumed.rounds, baseline.rounds, "kill after frame {i} changed billing");
        if extra == 0 {
            // More journal survived ⇒ at least as much state recovered.
            assert!(rec.checkpoint.records.len() >= prev_records);
            prev_records = rec.checkpoint.records.len();
        }
    });

    let (kind, seed) = fault_matrix_cell();
    let faulty_path = dir.join("faulty.journal");
    let source = FaultPlanSource::new(
        WebDbServer::new(table.clone(), interface(&table)),
        matrix_plan(if kind == "panic" { "mixed" } else { &kind }, seed),
    );
    let (report, states) = stepped_crawl(source, config(&faulty_path));
    assert!(report.records > 0, "fault cell {kind}/{seed} harvested nothing");
    kill_at_every_frame(&faulty_path, &states, |_, _, _| {});
    std::fs::remove_dir_all(&dir).ok();
}

/// A kill 7 queries past the last periodic rebase. The journal's current
/// generation holds the rebase's base and those 7 queries. Resume must
/// recover the state at the kill, reopening the journal must not truncate
/// it before the resumed crawl's first base, and the resumed crawl must
/// bill exactly the uninterrupted crawl's rounds: the fresh server sees
/// only the rounds after the kill.
#[test]
fn resume_from_the_journal_respends_no_rounds() {
    let table = imdb_table(3);
    let dir = scratch_dir("resume");
    let journal_path = dir.join("crawl.journal");
    let config = CrawlConfig::builder()
        .max_rounds(300)
        .journal_path(&journal_path)
        .checkpoint_every(10)
        .build()
        .expect("valid crawl config");
    let plain = CrawlConfig::builder().max_rounds(300).build().expect("valid config");
    let baseline = run_crawl(WebDbServer::new(table.clone(), interface(&table)), plain);

    let server = WebDbServer::new(table.clone(), interface(&table));
    let mut crawler = Crawler::new(&server, PolicyKind::GreedyLink.build(), config.clone());
    crawler.add_seed("Language", "Language_0");
    crawler.add_seed("Actor", "Actor_0");
    while crawler.metrics().queries() < 27 {
        crawler.step().expect("the frontier outlasts 27 queries");
    }
    let killed_at = crawler.checkpoint();
    assert!(killed_at.rounds < baseline.rounds, "the kill must interrupt the crawl");
    drop(crawler);

    let previous = dir.join("crawl.journal.bak");
    let previous = StateJournal::recover(&previous).expect("recover .bak").expect("base frame");
    assert_eq!(previous.checkpoint.queries, 20, "the rebase at 20 rotated its predecessor");
    let point = StateJournal::recover(&journal_path).expect("recover").expect("base frame");
    assert_eq!((point.deltas_applied, point.torn, point.from_backup), (7, false, false));
    assert_eq!(point.checkpoint, killed_at);

    let fresh = WebDbServer::new(table.clone(), interface(&table));
    let resumed =
        Crawler::resume(&fresh, PolicyKind::GreedyLink.build(), &point.checkpoint, config);
    let reopened = StateJournal::recover(&journal_path).expect("recover").expect("base frame");
    assert_eq!(reopened.checkpoint, killed_at, "resuming must not truncate the journal");
    let report = resumed.run();
    assert_eq!(report.records, baseline.records);
    assert_eq!(report.rounds, baseline.rounds, "rounds were re-spent");
    assert_eq!(DataSource::rounds_used(&fresh), baseline.rounds - killed_at.rounds);
    std::fs::remove_dir_all(&dir).ok();
}
