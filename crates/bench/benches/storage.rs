//! BENCH-9 — out-of-core storage: crawl a multi-million-record source under
//! a hard RSS ceiling, without giving up serving throughput.
//!
//! Two phases, and the order matters:
//!
//! 1. **Bounded-memory phase (first, under an RSS sampler).** The big IMDB
//!    preset is *streamed* record by record from the generator straight into
//!    file-backed segments ([`SegmentTableBuilder`] with a bounded build
//!    budget — no resident table ever exists), then crawled through the
//!    paged backend with a small buffer pool. A sampler thread reads
//!    `VmRSS` from `/proc/self/status` throughout; the observed peak must
//!    stay under the ceiling. Defaults: 50M records / 3 GiB full,
//!    1M / 1.5 GiB quick; override with `DWC_BENCH9_BIG_RECORDS` and
//!    `DWC_BENCH9_CEILING_MB` (the CI storage-smoke job crawls the 10M
//!    preset this way).
//! 2. **Throughput phase.** At a common scale both backends can hold, the
//!    identical crawl runs resident and paged. The reports must be
//!    bit-identical (policies cannot see the storage engine), and the paged
//!    backend must sustain at least [`REQUIRED_THROUGHPUT`]× the resident
//!    pages/sec.
//!
//! Measured numbers go to `BENCH_9.json` at the repo root; either gate
//! failing fails `cargo bench` (and CI's bench gate) loudly.

use dwc_core::{CrawlConfig, CrawlReport, Crawler, PolicyKind, ProberMode};
use dwc_datagen::presets::{BigScale, Preset};
use dwc_server::{InterfaceSpec, WebDbServer};
use dwc_store::{FilePager, MemoryBudget, SegmentTable, SegmentTableBuilder, DEFAULT_PAGE_SIZE};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The throughput gate: paged serving must sustain at least this fraction
/// of the resident backend's pages/sec on the identical crawl.
const REQUIRED_THROUGHPUT: f64 = 0.7;

/// One deterministic seed for every phase.
const SEED: u64 = 3;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Current resident set size in KiB, from `/proc/self/status`.
fn rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Background peak-RSS sampler. Started before the big phase, stopped right
/// after it, so the peak covers exactly the bounded-memory claim.
struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
}

impl RssSampler {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0u64;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(rss_kb());
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            peak.max(rss_kb())
        });
        RssSampler { stop, handle }
    }

    /// Stops sampling and returns the peak RSS in KiB.
    fn stop(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("rss sampler thread")
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dwc-bench9-{tag}-{}", std::process::id()));
    // A fresh directory per run: stale segments would shadow the new build.
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    dir
}

/// The out-of-core model whose vocabulary scaling matches the record count
/// (pools grow as the square root of the record multiplier).
fn big_model(records: u64) -> dwc_datagen::DomainModel {
    let scale = if records > 50_000_000 {
        BigScale::M100
    } else if records > 10_000_000 {
        BigScale::M50
    } else {
        BigScale::M10
    };
    Preset::Imdb.big_model(scale)
}

fn interface(schema: &dwc_model::Schema) -> InterfaceSpec {
    InterfaceSpec::permissive(schema, 10).with_result_cap(40)
}

fn crawl_config(max_rounds: u64) -> CrawlConfig {
    CrawlConfig::builder()
        .max_rounds(max_rounds)
        .prober(ProberMode::Wire)
        .build()
        .expect("valid crawl config")
}

fn run_crawl(server: &WebDbServer, max_rounds: u64) -> CrawlReport {
    let mut crawler =
        Crawler::new(server, PolicyKind::GreedyLink.build(), crawl_config(max_rounds));
    crawler.add_seed("Language", "Language_0");
    crawler.add_seed("Actor", "Actor_0");
    crawler.run()
}

/// Phase 1: stream-generate `records` records into file-backed segments and
/// crawl them paged. Returns (pages/sec, report, build seconds, disk bytes).
fn big_paged_phase(records: u64, budget: MemoryBudget, dir: &Path) -> (f64, CrawlReport, f64, u64) {
    let model = big_model(records);
    let build_start = Instant::now();
    let pager = FilePager::open(dir, DEFAULT_PAGE_SIZE).expect("open segment dir");
    let mut builder = SegmentTableBuilder::new(model.schema(), Box::new(pager))
        .expect("segment builder")
        .with_build_budget(budget.pool_bytes());
    model.generate_with(records as usize, SEED, |_, fields| {
        builder
            .push_record_strs(fields.iter().map(|(a, s)| (*a, s.as_str())))
            .expect("push streamed record");
    });
    let seg = builder.finish(budget.pool_bytes()).expect("finish segments");
    let build_secs = build_start.elapsed().as_secs_f64();
    let disk = seg.storage_bytes();

    let schema = model.schema();
    let server = WebDbServer::paged(Arc::new(seg), interface(&schema))
        .with_page_cache(budget.page_cache_entries());
    let rounds = if quick_mode() { 800 } else { 2_000 };
    let start = Instant::now();
    let report = run_crawl(&server, rounds);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (report.rounds as f64 / secs, report, build_secs, disk)
}

/// Phase 2: resident vs paged on the identical common-scale crawl.
/// Returns (resident pages/sec, paged pages/sec); asserts report parity.
fn throughput_phase(dir: &Path, budget: MemoryBudget) -> (f64, f64) {
    let scale = if quick_mode() { 0.05 } else { 0.25 };
    let table = Preset::Imdb.table(scale, SEED);
    let rounds = 1_500;

    // Same rendered-page cache capacity on both sides: the cache sits above
    // the storage engine, so unequal capacities would skew hit counts (and
    // the warm-run parity assert) for reasons unrelated to paging.
    let resident_server = WebDbServer::new(table.clone(), interface(table.schema()))
        .with_page_cache(budget.page_cache_entries());
    let paged_server = {
        let pager = FilePager::open(dir, DEFAULT_PAGE_SIZE).expect("open segment dir");
        let seg = SegmentTable::from_table(&table, Box::new(pager), budget.pool_bytes())
            .expect("pack segments");
        WebDbServer::paged(Arc::new(seg), interface(table.schema()))
            .with_page_cache(budget.page_cache_entries())
    };

    // Warm both once; parity is asserted on the warm run below too.
    let resident_report = run_crawl(&resident_server, rounds);
    let paged_report = run_crawl(&paged_server, rounds);
    assert_eq!(
        paged_report, resident_report,
        "paged and resident backends must produce bit-identical crawl reports"
    );

    let start = Instant::now();
    let r = black_box(run_crawl(&resident_server, rounds));
    let resident_pps = r.rounds as f64 / start.elapsed().as_secs_f64().max(1e-9);
    let start = Instant::now();
    let p = black_box(run_crawl(&paged_server, rounds));
    let paged_pps = p.rounds as f64 / start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(p, r);
    (resident_pps, paged_pps)
}

fn main() {
    let quick = quick_mode();
    let big_records = env_u64("DWC_BENCH9_BIG_RECORDS", if quick { 1_000_000 } else { 50_000_000 });
    let ceiling_mb = env_u64("DWC_BENCH9_CEILING_MB", if quick { 1_536 } else { 3_072 });
    let budget = MemoryBudget::from_mb(64);

    // Big paged phase FIRST, under the sampler: nothing resident-sized may
    // exist yet, so the observed peak is the out-of-core claim itself.
    let big_dir = scratch_dir("big");
    let sampler = RssSampler::start();
    let (big_pps, big_report, build_secs, disk_bytes) =
        big_paged_phase(big_records, budget, &big_dir);
    let peak_kb = sampler.stop();
    let peak_mb = peak_kb / 1024;
    std::fs::remove_dir_all(&big_dir).ok();
    assert!(big_report.records > 0, "the big crawl must harvest records");

    // Throughput phase at a scale both backends can hold.
    let common_dir = scratch_dir("common");
    let (resident_pps, paged_pps) = throughput_phase(&common_dir, budget);
    std::fs::remove_dir_all(&common_dir).ok();
    let ratio = paged_pps / resident_pps.max(1e-9);

    let json = format!(
        "{{\n  \"bench\": \"storage\",\n  \"mode\": \"{}\",\n  \"big_records\": {},\n  \
         \"big_build_secs\": {:.1},\n  \"big_disk_bytes\": {},\n  \
         \"big_crawl_records\": {},\n  \"big_pages_per_sec\": {:.0},\n  \
         \"peak_rss_mb\": {},\n  \"rss_ceiling_mb\": {},\n  \
         \"resident_pages_per_sec\": {:.0},\n  \"paged_pages_per_sec\": {:.0},\n  \
         \"throughput_ratio\": {:.3},\n  \"required_throughput_ratio\": {:.1}\n}}\n",
        if quick { "quick" } else { "full" },
        big_records,
        build_secs,
        disk_bytes,
        big_report.records,
        big_pps,
        peak_mb,
        ceiling_mb,
        resident_pps,
        paged_pps,
        ratio,
        REQUIRED_THROUGHPUT,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_9.json");
    std::fs::write(&out, &json).expect("write BENCH_9.json");
    println!(
        "storage: {big_records} records, peak RSS {peak_mb} MiB (ceiling {ceiling_mb}), \
         throughput ratio {ratio:.2}x (gate {REQUIRED_THROUGHPUT:.1}x) -> {}",
        out.display()
    );

    assert!(
        peak_mb <= ceiling_mb,
        "out-of-core crawl of {big_records} records peaked at {peak_mb} MiB RSS, over the \
         {ceiling_mb} MiB ceiling"
    );
    assert!(
        ratio >= REQUIRED_THROUGHPUT,
        "paged backend served {paged_pps:.0} pages/s vs resident {resident_pps:.0} — ratio \
         {ratio:.2} is under the {REQUIRED_THROUGHPUT} gate"
    );
}
