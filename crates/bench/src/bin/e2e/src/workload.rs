//! The five workloads: set-up, one pass, and the correctness references
//! every pass is checked against.
//!
//! Every workload is closed loop — a crawler issues its next page only
//! after the previous one returned — and uses at most two threads of load.
//! Modeled service latency is `LatencyModel::None` with zero decode cost, so
//! no sleep ever stands in for the program.

use crate::probe::{
    CountingSink, Level, PagerProbe, PolicyProbe, SourceCounts, SourceProbe, Timed, TimedPager,
    TimedPolicy,
};
use dwc_core::policy::PolicyKind;
use dwc_core::{
    run_fleet, CheckpointStore, Connection, CrawlConfig, CrawlReport, Crawler, DataSource,
    FleetConfig, FleetJob, ProberMode, QueryMode, SchedulerStats, ServeConfig, ServiceReport,
    SourceService,
};
use dwc_datagen::presets::Preset;
use dwc_model::UniversalTable;
use dwc_server::{InterfaceSpec, Query, WebDbServer};
use dwc_store::{FilePager, MemPager, PoolStats, SegmentPager, SegmentTable, DEFAULT_PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dataset scale of every workload (the paper's sizes × 0.05).
const SCALE: f64 = 0.05;
/// Records per result page (`k`).
const PAGE_SIZE: usize = 10;
/// Fig. 3 averages four seed runs.
const FIG3_RUNS: u64 = 4;
/// Coverage each Fig. 3 crawl runs to.
const FIG3_COVERAGE: f64 = 0.90;
/// Seed groups of the conjunctive crawl, from records spread evenly
/// through the table. From 8 groups (records 0–7) the crawl's size varies
/// 5,331–14,815 rounds over seeds 1–30; from 256 its quartiles lie within
/// 3% of each other, so runs with different seeds do comparable work.
const CONJ_GROUPS: u32 = 256;
/// The journaled crawl persists a checkpoint every this many queries.
const CHECKPOINT_EVERY: u64 = 1_000;
/// Fleet shape: jobs over one shared source, global budget, slice, workers.
const FLEET_JOBS: u64 = 8;
const FLEET_ROUNDS: u64 = 24_000;
const FLEET_SLICE: u64 = 800;
/// Pool workers of the fleet (its two threads of load).
const FLEET_WORKERS: usize = 2;
/// Rendered pages the fleet's shared source caches.
const FLEET_PAGE_CACHE: usize = 4_096;
/// Buffer pool of the paged Fig. 3 source: 32 frames against ~1.5 MB of
/// segments, so about one page in twenty-five misses.
const WIRE_POOL_BYTES: usize = 256 << 10;
/// Buffer pool of the fleet's source: larger than all of its segments.
const FLEET_POOL_BYTES: usize = 64 << 20;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 3 crawl, resident and in-process.
    Fig3Inproc,
    /// The same crawls through a service, a wire and a file-paged table.
    Fig3WirePaged,
    /// Eight overlapping crawlers sharing one cached, pool-resident source.
    FleetOverlap,
    /// A crawl of a two-field conjunctive form, resident and in-process.
    ConjInproc,
    /// The conjunctive crawl with its state journal and checkpoints.
    ConjJournaled,
}

impl Workload {
    /// Every workload, in the order `--all` runs them.
    pub const ALL: [Workload; 5] = [
        Workload::Fig3Inproc,
        Workload::Fig3WirePaged,
        Workload::FleetOverlap,
        Workload::ConjInproc,
        Workload::ConjJournaled,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Inproc => "fig3-inproc",
            Workload::Fig3WirePaged => "fig3-wire-paged",
            Workload::FleetOverlap => "fleet-overlap",
            Workload::ConjInproc => "conj-inproc",
            Workload::ConjJournaled => "conj-journaled",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn preset(self) -> Preset {
        match self {
            Workload::FleetOverlap => Preset::Imdb,
            _ => Preset::Dblp,
        }
    }

    fn conjunctive(self) -> bool {
        matches!(self, Workload::ConjInproc | Workload::ConjJournaled)
    }

    /// Worker threads a pass keeps busy (the fleet's pool; one otherwise).
    pub fn load_threads(self) -> usize {
        match self {
            Workload::FleetOverlap => FLEET_WORKERS,
            _ => 1,
        }
    }
}

/// Picks `n` distinct queriable `(attribute, value)` seed pairs from random
/// records. Draws exactly as the repository's experiment harness does, so
/// the seeds — and the Fig. 3 rounds — match `fig3_policies`.
pub fn pick_seeds(table: &UniversalTable, n: usize, rng_seed: u64) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut out: Vec<(String, String)> = Vec::with_capacity(n);
    let mut guard = 0;
    while out.len() < n && guard < 10_000 {
        guard += 1;
        let rec = table.record(dwc_model::RecordId(rng.gen_range(0..table.num_records() as u32)));
        if rec.is_empty() {
            continue;
        }
        let v = rec.values()[rng.gen_range(0..rec.values().len())];
        let attr = table.interner().attr_of(v);
        if !table.schema().attr(attr).queriable {
            continue;
        }
        let pair =
            (table.schema().attr(attr).name.clone(), table.interner().value_str(v).to_owned());
        if !out.contains(&pair) {
            out.push(pair);
        }
    }
    out
}

/// The first two queriable values of record `rid`: one seed query of the
/// conjunctive crawl.
fn seed_group(table: &UniversalTable, rid: u32) -> Vec<(String, String)> {
    let (schema, interner) = (table.schema(), table.interner());
    table
        .record(dwc_model::RecordId(rid))
        .values()
        .iter()
        .filter(|&&v| schema.attr(interner.attr_of(v)).queriable)
        .take(2)
        .map(|&v| (schema.attr(interner.attr_of(v)).name.clone(), interner.value_str(v).to_owned()))
        .collect()
}

/// FNV-1a fingerprint of a generated table (vocabulary and records), so a
/// change to the data generator shows up as a changed workload.
pub fn table_fingerprint(table: &UniversalTable) -> u64 {
    let mut bytes = table.interner().to_packed_bytes();
    for (_, rec) in table.iter() {
        bytes.extend_from_slice(&(rec.len() as u32).to_le_bytes());
        for v in rec.values() {
            bytes.extend_from_slice(&v.0.to_le_bytes());
        }
    }
    dwc_model::packed::fnv1a64(&bytes)
}

/// Seeds of one crawl.
#[derive(Debug, Clone)]
enum Seeds {
    /// Single `(attribute, value)` seeds.
    Pairs(Vec<(String, String)>),
    /// Whole seed queries for a conjunctive form.
    Groups(Vec<Vec<(String, String)>>),
}

/// One crawl of a pass.
#[derive(Debug, Clone)]
struct CrawlSpec {
    seeds: Seeds,
    config: CrawlConfig,
}

impl CrawlSpec {
    fn plant<S: DataSource>(&self, crawler: &mut Crawler<S>) {
        match &self.seeds {
            Seeds::Pairs(pairs) => {
                for (attr, value) in pairs {
                    assert!(crawler.add_seed(attr, value), "seed {attr}={value} is queriable");
                }
            }
            Seeds::Groups(groups) => {
                for group in groups {
                    let pairs: Vec<(&str, &str)> =
                        group.iter().map(|(a, v)| (a.as_str(), v.as_str())).collect();
                    crawler.add_seed_group(&pairs);
                }
            }
        }
    }

    fn pairs(&self) -> Vec<(String, String)> {
        match &self.seeds {
            Seeds::Pairs(pairs) => pairs.clone(),
            Seeds::Groups(_) => unreachable!("fleet jobs are seeded with pairs"),
        }
    }
}

fn plan(workload: Workload, table: &UniversalTable, seed: u64) -> Vec<CrawlSpec> {
    let n = table.num_records();
    match workload {
        Workload::Fig3Inproc | Workload::Fig3WirePaged => {
            let prober = if workload == Workload::Fig3WirePaged {
                ProberMode::Wire
            } else {
                ProberMode::InProcess
            };
            (0..FIG3_RUNS)
                .map(|run| CrawlSpec {
                    seeds: Seeds::Pairs(pick_seeds(table, 2, 1_000 * seed + run)),
                    config: CrawlConfig::builder()
                        .known_target_size(n)
                        .target_coverage(FIG3_COVERAGE)
                        .max_rounds(200 * n as u64 + 10_000)
                        .prober(prober)
                        .build()
                        .expect("valid Fig. 3 config"),
                })
                .collect()
        }
        Workload::FleetOverlap => (0..FLEET_JOBS)
            .map(|job| CrawlSpec {
                seeds: Seeds::Pairs(pick_seeds(table, 2, 2_000 * seed + job)),
                config: CrawlConfig::builder()
                    .prober(ProberMode::Wire)
                    .build()
                    .expect("valid fleet job config"),
            })
            .collect(),
        Workload::ConjInproc | Workload::ConjJournaled => vec![CrawlSpec {
            seeds: Seeds::Groups(
                (0..CONJ_GROUPS).map(|i| seed_group(table, i * (n as u32 / CONJ_GROUPS))).collect(),
            ),
            config: CrawlConfig::builder()
                .query_mode(QueryMode::Conjunctive { arity: 2 })
                .known_target_size(n)
                .max_rounds(400 * n as u64)
                .build()
                .expect("valid conjunctive config"),
        }],
    }
}

fn interface(workload: Workload, table: &UniversalTable) -> InterfaceSpec {
    let spec = InterfaceSpec::permissive(table.schema(), PAGE_SIZE);
    if workload.conjunctive() {
        spec.requiring_attrs(2)
    } else {
        spec
    }
}

/// A directory for one rig's files under `.e2e_scratch/` in the working
/// directory (the benchmark reads and writes only inside its checkout),
/// removed on drop.
#[derive(Debug)]
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::current_dir()?
            .join(".e2e_scratch")
            .join(format!("{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other rig's directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

type WireService = SourceService<Timed<WebDbServer>>;

/// Where a workload's pages come from.
// A rig holds exactly one backend, so boxing the large variant buys nothing.
#[allow(clippy::large_enum_variant)]
enum Backend {
    /// A resident server called in-process.
    Resident(WebDbServer),
    /// A paged server behind a one-worker service and one connection.
    Wire {
        worker: Arc<Timed<WebDbServer>>,
        worker_probe: Arc<SourceProbe>,
        service: Option<WireService>,
        conn: Option<Connection<Timed<WebDbServer>>>,
    },
    /// A pool-resident segment table shared by a fleet; each pass serves
    /// it through a fresh server (so the page cache starts cold).
    Fleet(Arc<SegmentTable>),
}

/// A workload after set-up: its data, its server, and its crawl plan.
pub struct Rig {
    /// Which workload this is.
    pub workload: Workload,
    /// The `--seed` the data and seeds were derived from.
    pub seed: u64,
    table: UniversalTable,
    spec: InterfaceSpec,
    plan: Vec<CrawlSpec>,
    backend: Backend,
    pager: Option<Arc<PagerProbe>>,
    scratch: Scratch,
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Backend::Wire { service, conn, .. } = &mut self.backend {
            // The service joins its worker once every connection is gone.
            drop(conn.take());
            if let Some(service) = service.take() {
                service.shutdown();
            }
        }
    }
}

/// Everything one pass measured. Counters are deltas over the pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// One report per crawl (per fleet job).
    pub reports: Vec<CrawlReport>,
    /// Wall time of the pass: crawler construction through the last report.
    pub elapsed: Duration,
    /// Per-round latency at the crawler's `respond` call site, nanoseconds.
    pub samples: Vec<u64>,
    /// The crawler-facing seam.
    pub client: SourceCounts,
    /// The service worker's seam (zero without a service).
    pub worker: SourceCounts,
    /// Every `(query, page)` the crawlers requested (traced passes).
    pub log: Vec<(Query, usize)>,
    /// Policy hook time, hook calls, and per-`select` durations (traced
    /// passes of single-crawler-driven workloads).
    pub policy: Option<(u64, u64, Vec<u64>)>,
    /// Crawl events emitted (traced passes), or the fleet's scheduling
    /// events.
    pub events: u64,
    /// Buffer-pool counters (zero without a pool).
    pub pool: PoolStats,
    /// Pager reads and their time (traced set-ups only).
    pub pager: (u64, u64),
    /// Rendered-page cache hits and misses.
    pub cache: (u64, u64),
    /// The service's cumulative report after the pass.
    pub service: Option<ServiceReport>,
    /// The fleet scheduler's counters.
    pub sched: Option<SchedulerStats>,
    /// `/proc/self/io` write bytes and write calls during the pass.
    pub io: (u64, u64),
    /// Whether the crawls journaled and checkpointed.
    pub journaled: bool,
    /// Host-speed factor measured right after the pass ([`crate::host`]).
    pub scale: f64,
}

impl Pass {
    /// Def. 2.3 rounds billed across the pass's crawls.
    pub fn rounds(&self) -> u64 {
        self.reports.iter().map(|r| r.rounds).sum()
    }

    /// Queries issued across the pass's crawls.
    pub fn queries(&self) -> u64 {
        self.reports.iter().map(|r| r.queries).sum()
    }

    /// The pass's wall time scaled to the quiet host, in nanoseconds.
    pub fn scaled_ns(&self) -> f64 {
        self.elapsed.as_nanos() as f64 * self.scale
    }

    /// Transient, shed and cancelled requests across the pass.
    pub fn failed(&self) -> u64 {
        self.reports.iter().map(|r| r.transient_failures).sum()
    }

    /// Checkpoints `report` must show: one per [`CHECKPOINT_EVERY`]
    /// completed queries when the pass journaled, none otherwise.
    pub fn expected_checkpoints(&self, report: &CrawlReport) -> u64 {
        if self.journaled {
            report.queries / CHECKPOINT_EVERY
        } else {
            0
        }
    }
}

fn pool_delta(after: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        overflow_reads: after.overflow_reads - before.overflow_reads,
    }
}

/// `wchar` and `syscw` from `/proc/self/io` (zeros where unavailable).
fn proc_io() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("wchar:"), field("syscw:"))
}

/// Counters sampled before and after a pass.
struct Counters {
    worker: SourceCounts,
    pool: PoolStats,
    pager: (u64, u64),
    cache: (u64, u64),
    io: (u64, u64),
}

impl Rig {
    /// Generates the workload's data and starts its server. With `traced`,
    /// the pager gets a probe (the trace run is its own process, so
    /// untraced runs carry none); the service worker's probe records only
    /// during traced passes.
    pub fn setup(workload: Workload, seed: u64, traced: bool) -> std::io::Result<Rig> {
        let table = workload.preset().table(SCALE, seed);
        let spec = interface(workload, &table);
        let plan = plan(workload, &table, seed);
        let scratch = Scratch::new()?;
        let pager_probe = traced.then(|| Arc::new(PagerProbe::default()));
        let wrap = |pager: Box<dyn SegmentPager>| -> Box<dyn SegmentPager> {
            match &pager_probe {
                Some(probe) => Box::new(TimedPager::new(pager, Arc::clone(probe))),
                None => pager,
            }
        };
        let backend = match workload {
            Workload::Fig3Inproc | Workload::ConjInproc | Workload::ConjJournaled => {
                Backend::Resident(WebDbServer::new(table.clone(), spec.clone()).with_page_cache(0))
            }
            Workload::Fig3WirePaged => {
                let pager = FilePager::open(&scratch.path().join("segments"), DEFAULT_PAGE_SIZE)?;
                let st = SegmentTable::from_table(&table, wrap(Box::new(pager)), WIRE_POOL_BYTES)?;
                let server = WebDbServer::paged(Arc::new(st), spec.clone()).with_page_cache(0);
                let worker_probe = SourceProbe::new(Level::Off);
                let worker = Arc::new(Timed::new(server, Arc::clone(&worker_probe)));
                let config = ServeConfig::builder()
                    .workers(1)
                    .queue_depth(4)
                    .build()
                    .expect("valid serve config");
                let service = SourceService::start(Arc::clone(&worker), config);
                let conn = service.connect();
                Backend::Wire { worker, worker_probe, service: Some(service), conn: Some(conn) }
            }
            Workload::FleetOverlap => {
                let pager = wrap(Box::new(MemPager::new(DEFAULT_PAGE_SIZE)));
                Backend::Fleet(Arc::new(SegmentTable::from_table(&table, pager, FLEET_POOL_BYTES)?))
            }
        };
        Ok(Rig { workload, seed, table, spec, plan, backend, pager: pager_probe, scratch })
    }

    /// The generated table.
    pub fn table(&self) -> &UniversalTable {
        &self.table
    }

    /// Bytes of segments behind the paged workloads' pools.
    pub fn segment_bytes(&self) -> Option<u64> {
        self.segment_table().map(|st| st.storage_bytes())
    }

    fn segment_table(&self) -> Option<&SegmentTable> {
        match &self.backend {
            Backend::Resident(_) => None,
            Backend::Wire { worker, .. } => worker.inner().segment_table().map(|st| &**st),
            Backend::Fleet(st) => Some(st),
        }
    }

    /// A fresh server over the workload's data, for replay: same backend,
    /// cold counters, no cache.
    pub fn replica(&self) -> WebDbServer {
        match &self.backend {
            Backend::Resident(server) => server.clone(),
            Backend::Wire { worker, .. } => worker.inner().clone(),
            Backend::Fleet(st) => WebDbServer::paged(Arc::clone(st), self.spec.clone()),
        }
    }

    fn counters(&self) -> Counters {
        let (worker, cache) = match &self.backend {
            Backend::Wire { worker, worker_probe, .. } => {
                let cache = worker.inner().page_cache();
                (worker_probe.counts(), (cache.hits(), cache.misses()))
            }
            _ => (SourceCounts::default(), (0, 0)),
        };
        Counters {
            worker,
            pool: self.segment_table().map(SegmentTable::pool_stats).unwrap_or_default(),
            pager: self.pager.as_ref().map(|p| p.totals()).unwrap_or_default(),
            cache,
            io: proc_io(),
        }
    }

    /// Runs one pass of the workload with the crawler-facing seam recording
    /// at `level`. `Level::Trace` also decorates the policy, attaches an
    /// event counter and traces the service worker.
    pub fn run_pass(&mut self, level: Level) -> Pass {
        self.run_pass_with(level, self.workload == Workload::ConjJournaled)
    }

    /// [`Rig::run_pass`] with the journal switched explicitly (the trace
    /// run of `conj-journaled` times passes without it for comparison).
    pub fn run_pass_with(&mut self, level: Level, journaled: bool) -> Pass {
        let traced = level == Level::Trace;
        if let Backend::Wire { worker_probe, .. } = &self.backend {
            worker_probe.set_level(if traced { Level::Trace } else { Level::Off });
        }
        let before = self.counters();
        let mut pass = match &self.backend {
            Backend::Resident(server) => {
                let dir = journaled.then(|| self.scratch.path().join("journal"));
                crawl_pass(server, &self.plan, level, dir.as_deref())
            }
            Backend::Wire { conn, .. } => {
                let conn = conn.as_ref().expect("connection lives as long as the rig").clone();
                crawl_pass(conn, &self.plan, level, None)
            }
            Backend::Fleet(st) => {
                let server = WebDbServer::paged(Arc::clone(st), self.spec.clone())
                    .with_page_cache(FLEET_PAGE_CACHE);
                fleet_pass(Arc::new(server), &self.plan, level, FLEET_WORKERS)
            }
        };
        let after = self.counters();
        pass.journaled = journaled;
        pass.pool = pool_delta(after.pool, before.pool);
        pass.pager = (after.pager.0 - before.pager.0, after.pager.1 - before.pager.1);
        pass.io = (after.io.0 - before.io.0, after.io.1 - before.io.1);
        if let Backend::Wire { worker_probe, service, .. } = &self.backend {
            pass.worker = after.worker.since(before.worker);
            pass.cache = (after.cache.0 - before.cache.0, after.cache.1 - before.cache.1);
            pass.service = service.as_ref().map(SourceService::service_report);
            worker_probe.take_samples();
            worker_probe.take_log();
        }
        pass.scale = crate::host::scale();
        pass
    }

    /// The reports every pass must reproduce, from the workload's reference
    /// configuration — `None` when the reference is the workload's own
    /// first pass:
    ///
    /// * `fig3-wire-paged`: the same crawls, resident and in-process;
    /// * `fleet-overlap`: the same fleet on one pool worker;
    /// * `conj-journaled`: the same crawl without journal or checkpoints.
    pub fn reference(&mut self) -> Option<Vec<CrawlReport>> {
        match self.workload {
            Workload::Fig3Inproc | Workload::ConjInproc => None,
            Workload::Fig3WirePaged => {
                let server = WebDbServer::new(self.table.clone(), self.spec.clone());
                let plan = plan(Workload::Fig3Inproc, &self.table, self.seed);
                Some(crawl_pass(&server, &plan, Level::Off, None).reports)
            }
            Workload::FleetOverlap => {
                let Backend::Fleet(st) = &self.backend else { unreachable!("fleet backend") };
                let server = WebDbServer::paged(Arc::clone(st), self.spec.clone())
                    .with_page_cache(FLEET_PAGE_CACHE);
                Some(fleet_pass(Arc::new(server), &self.plan, Level::Off, 1).reports)
            }
            Workload::ConjJournaled => Some(self.run_pass_with(Level::Off, false).reports),
        }
    }

    /// Clears the fields a workload may legitimately change relative to its
    /// reference: render-cache hits depend on how two fleet workers
    /// interleave, and only the journaled crawl writes checkpoints.
    pub fn normalize(&self, reports: &[CrawlReport]) -> Vec<CrawlReport> {
        reports
            .iter()
            .cloned()
            .map(|mut r| {
                match self.workload {
                    Workload::FleetOverlap => r.page_cache_hits = 0,
                    Workload::ConjJournaled => r.checkpoints_written = 0,
                    _ => {}
                }
                r
            })
            .collect()
    }

    /// Rounds each Fig. 3 crawl needed to reach 90% coverage.
    pub fn rounds_to_coverage(&self, reports: &[CrawlReport]) -> Vec<Option<u64>> {
        let n = self.table.num_records();
        reports.iter().map(|r| r.trace.rounds_to_coverage(FIG3_COVERAGE, n)).collect()
    }
}

/// Runs every crawl of `plan` against `source`, one after another.
fn crawl_pass<S: DataSource>(
    source: S,
    plan: &[CrawlSpec],
    level: Level,
    journal_dir: Option<&Path>,
) -> Pass {
    let probe = SourceProbe::new(level);
    let timed = Timed::new(source, Arc::clone(&probe));
    let traced = level == Level::Trace;
    let policy_probe = Arc::new(PolicyProbe::default());
    let sink = CountingSink::default();
    if let Some(dir) = journal_dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("journal directory");
    }
    let start = Instant::now();
    let reports = plan
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut config = spec.config.clone();
            if let Some(dir) = journal_dir {
                config.journal_path = Some(dir.join(format!("crawl-{i}.journal")));
                config.checkpoint_store =
                    Some(CheckpointStore::new(dir.join(format!("crawl-{i}.ckpt"))));
                config.checkpoint_every = Some(CHECKPOINT_EVERY);
            }
            let mut policy = PolicyKind::GreedyLink.build();
            if traced {
                policy = Box::new(TimedPolicy::new(policy, Arc::clone(&policy_probe)));
            }
            let mut crawler = Crawler::new(&timed, policy, config);
            if traced {
                crawler.add_sink(Box::new(sink.clone()));
            }
            spec.plant(&mut crawler);
            crawler.run()
        })
        .collect();
    let elapsed = start.elapsed();
    if let Some(dir) = journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let (ns, calls) = policy_probe.totals();
    Pass {
        reports,
        elapsed,
        samples: probe.take_samples(),
        client: probe.counts(),
        log: probe.take_log(),
        policy: traced.then(|| (ns, calls, policy_probe.take_select_ns())),
        events: sink.events(),
        ..Pass::default()
    }
}

/// Runs the plan as one fleet over a shared source on `workers` pool
/// threads. The fleet builds its own policies, so no policy seam exists
/// here.
fn fleet_pass(server: Arc<WebDbServer>, plan: &[CrawlSpec], level: Level, workers: usize) -> Pass {
    let probes: Vec<Arc<SourceProbe>> = plan.iter().map(|_| SourceProbe::new(level)).collect();
    let jobs = plan
        .iter()
        .zip(&probes)
        .map(|(spec, probe)| FleetJob {
            source: Timed::new(Arc::clone(&server), Arc::clone(probe)),
            policy: PolicyKind::GreedyLink,
            seeds: spec.pairs(),
            config: spec.config.clone(),
            resume: None,
            tenant: None,
        })
        .collect();
    let config = FleetConfig::builder()
        .total_rounds(FLEET_ROUNDS)
        .slice(FLEET_SLICE)
        .workers(workers)
        .build()
        .expect("valid fleet config");
    let start = Instant::now();
    let report = run_fleet(jobs, config);
    let elapsed = start.elapsed();
    let mut pass = Pass {
        reports: report.sources,
        elapsed,
        events: report.events.len() as u64,
        cache: (server.page_cache().hits(), server.page_cache().misses()),
        sched: Some(report.scheduler),
        ..Pass::default()
    };
    for probe in &probes {
        pass.samples.extend(probe.take_samples());
        pass.log.extend(probe.take_log());
        pass.client = pass.client.plus(probe.counts());
    }
    pass
}
