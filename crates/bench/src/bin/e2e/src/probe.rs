//! Timing from outside: decorators at the program's public seams.
//!
//! Nothing here changes what a layer does. [`Timed`] wraps any
//! [`DataSource`] (the crawler's `respond` call site, or the source a
//! service worker calls), [`TimedPolicy`] wraps a [`SelectionPolicy`],
//! [`TimedPager`] wraps a [`SegmentPager`], and [`CountingSink`] listens on
//! the crawl's event bus. Each reports into a shared probe of relaxed
//! atomics (plain statistics: they publish no other data), read as deltas
//! around a pass.

use dwc_core::extract::ExtractedPageRef;
use dwc_core::{
    CrawlError, CrawlEvent, CrawlState, DataSource, EventSink, ProberMode, QueryOutcome,
    SelectionPolicy, SourceRequest, SourceResponse,
};
use dwc_model::ValueId;
use dwc_server::{InterfaceSpec, Query};
use dwc_store::{SegmentId, SegmentPager};
use std::io;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// What a [`Timed`] source records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Forward only.
    Off,
    /// One wall-clock sample per `respond` call: the round latency the
    /// end-to-end metrics are built from.
    Clock,
    /// Split each call into the visitor (the caller's ingest, or a service
    /// worker's re-encode) and the rest, count records and wire parses, and
    /// log every `(query, page)` for replay.
    Trace,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Off,
            1 => Level::Clock,
            _ => Level::Trace,
        }
    }
}

/// Counters a [`Timed`] source fills.
#[derive(Debug)]
pub struct SourceProbe {
    level: AtomicU8,
    samples: Mutex<Vec<u64>>,
    log: Mutex<Vec<(Query, usize)>>,
    calls: AtomicU64,
    respond_ns: AtomicU64,
    visit_ns: AtomicU64,
    records: AtomicU64,
    wire_parses: AtomicU64,
}

/// A copy of a [`SourceProbe`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCounts {
    /// `respond` calls (rounds offered through this seam).
    pub calls: u64,
    /// Wall time inside `respond`, visitor included (traced only).
    pub respond_ns: u64,
    /// Wall time inside the visitor (traced only).
    pub visit_ns: u64,
    /// Records handed to the visitor (traced only).
    pub records: u64,
    /// Pages the wrapped source parsed from a wire or HTML document before
    /// visiting (traced only).
    pub wire_parses: u64,
}

impl SourceCounts {
    /// Counter-wise `self − earlier`.
    pub fn since(self, earlier: SourceCounts) -> SourceCounts {
        SourceCounts {
            calls: self.calls - earlier.calls,
            respond_ns: self.respond_ns - earlier.respond_ns,
            visit_ns: self.visit_ns - earlier.visit_ns,
            records: self.records - earlier.records,
            wire_parses: self.wire_parses - earlier.wire_parses,
        }
    }

    /// Counter-wise `self + other`.
    pub fn plus(self, other: SourceCounts) -> SourceCounts {
        SourceCounts {
            calls: self.calls + other.calls,
            respond_ns: self.respond_ns + other.respond_ns,
            visit_ns: self.visit_ns + other.visit_ns,
            records: self.records + other.records,
            wire_parses: self.wire_parses + other.wire_parses,
        }
    }
}

impl SourceProbe {
    /// A probe recording at `level`.
    pub fn new(level: Level) -> Arc<Self> {
        Arc::new(SourceProbe {
            level: AtomicU8::new(level as u8),
            samples: Mutex::new(Vec::new()),
            log: Mutex::new(Vec::new()),
            calls: AtomicU64::new(0),
            respond_ns: AtomicU64::new(0),
            visit_ns: AtomicU64::new(0),
            records: AtomicU64::new(0),
            wire_parses: AtomicU64::new(0),
        })
    }

    /// Switches what the probe records from the next call on (a service
    /// worker's probe lives as long as the service; it traces only during
    /// traced passes).
    pub fn set_level(&self, level: Level) {
        self.level.store(level as u8, Relaxed);
    }

    /// The counters so far.
    pub fn counts(&self) -> SourceCounts {
        SourceCounts {
            calls: self.calls.load(Relaxed),
            respond_ns: self.respond_ns.load(Relaxed),
            visit_ns: self.visit_ns.load(Relaxed),
            records: self.records.load(Relaxed),
            wire_parses: self.wire_parses.load(Relaxed),
        }
    }

    /// Takes the per-call latency samples (nanoseconds, call order).
    pub fn take_samples(&self) -> Vec<u64> {
        std::mem::take(&mut *self.samples.lock().expect("sample buffer poisoned"))
    }

    /// Takes the request log.
    pub fn take_log(&self) -> Vec<(Query, usize)> {
        std::mem::take(&mut *self.log.lock().expect("request log poisoned"))
    }
}

/// A [`DataSource`] decorator that times `respond` from outside.
pub struct Timed<S> {
    inner: S,
    probe: Arc<SourceProbe>,
}

impl<S> Timed<S> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: S, probe: Arc<SourceProbe>) -> Self {
        Timed { inner, probe }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: DataSource> DataSource for Timed<S> {
    fn respond(
        &self,
        request: &SourceRequest<'_>,
        visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
    ) -> Result<SourceResponse, CrawlError> {
        let p = &*self.probe;
        match Level::from_u8(p.level.load(Relaxed)) {
            Level::Off => self.inner.respond(request, visit),
            Level::Clock => {
                let start = Instant::now();
                let out = self.inner.respond(request, visit);
                let ns = ns_since(start);
                p.samples.lock().expect("sample buffer poisoned").push(ns);
                p.calls.fetch_add(1, Relaxed);
                out
            }
            Level::Trace => {
                p.log
                    .lock()
                    .expect("request log poisoned")
                    .push((request.query.clone(), request.page_index));
                let (mut visit_ns, mut records) = (0u64, 0u64);
                let start = Instant::now();
                let out = self.inner.respond(request, &mut |page| {
                    let t = Instant::now();
                    visit(page);
                    visit_ns += ns_since(t);
                    records += page.records.len() as u64;
                });
                let ns = ns_since(start);
                p.samples.lock().expect("sample buffer poisoned").push(ns);
                p.calls.fetch_add(1, Relaxed);
                p.respond_ns.fetch_add(ns, Relaxed);
                p.visit_ns.fetch_add(visit_ns, Relaxed);
                p.records.fetch_add(records, Relaxed);
                if out.is_ok() && request.prober != ProberMode::InProcess {
                    // Every non-in-process page reaches the visitor through
                    // one parse of a rendered document in the wrapped source.
                    p.wire_parses.fetch_add(1, Relaxed);
                }
                out
            }
        }
    }

    fn interface(&self) -> &InterfaceSpec {
        self.inner.interface()
    }

    fn rounds_used(&self) -> u64 {
        self.inner.rounds_used()
    }
}

/// Counters a [`TimedPolicy`] fills.
#[derive(Debug, Default)]
pub struct PolicyProbe {
    ns: AtomicU64,
    calls: AtomicU64,
    select_ns: Mutex<Vec<u64>>,
}

impl PolicyProbe {
    /// Total wall time in policy hooks and number of hook calls.
    pub fn totals(&self) -> (u64, u64) {
        (self.ns.load(Relaxed), self.calls.load(Relaxed))
    }

    /// Takes the per-call `select` durations.
    pub fn take_select_ns(&self) -> Vec<u64> {
        std::mem::take(&mut *self.select_ns.lock().expect("select buffer poisoned"))
    }

    fn add(&self, start: Instant) -> u64 {
        let ns = ns_since(start);
        self.ns.fetch_add(ns, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        ns
    }
}

/// A [`SelectionPolicy`] decorator timing every hook.
pub struct TimedPolicy {
    inner: Box<dyn SelectionPolicy>,
    probe: Arc<PolicyProbe>,
}

impl TimedPolicy {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn SelectionPolicy>, probe: Arc<PolicyProbe>) -> Self {
        TimedPolicy { inner, probe }
    }
}

impl SelectionPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, state: &mut CrawlState) {
        let t = Instant::now();
        self.inner.init(state);
        self.probe.add(t);
    }

    fn on_discovered(&mut self, state: &CrawlState, v: ValueId) {
        let t = Instant::now();
        self.inner.on_discovered(state, v);
        self.probe.add(t);
    }

    fn resume(&mut self, state: &mut CrawlState) {
        let t = Instant::now();
        self.inner.resume(state);
        self.probe.add(t);
    }

    fn on_query_done(&mut self, state: &CrawlState, v: ValueId, outcome: &QueryOutcome) {
        let t = Instant::now();
        self.inner.on_query_done(state, v, outcome);
        self.probe.add(t);
    }

    fn select(&mut self, state: &CrawlState) -> Option<ValueId> {
        let t = Instant::now();
        let v = self.inner.select(state);
        let ns = self.probe.add(t);
        self.probe.select_ns.lock().expect("select buffer poisoned").push(ns);
        v
    }
}

/// An [`EventSink`] counting the events a crawl emits.
#[derive(Debug, Clone, Default)]
pub struct CountingSink(Arc<AtomicU64>);

impl CountingSink {
    /// Events seen so far.
    pub fn events(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

impl EventSink for CountingSink {
    fn emit(&mut self, _event: &CrawlEvent) {
        self.0.fetch_add(1, Relaxed);
    }
}

/// Counters a [`TimedPager`] fills.
#[derive(Debug, Default)]
pub struct PagerProbe {
    reads: AtomicU64,
    read_ns: AtomicU64,
}

impl PagerProbe {
    /// Page reads and their total wall time.
    pub fn totals(&self) -> (u64, u64) {
        (self.reads.load(Relaxed), self.read_ns.load(Relaxed))
    }
}

/// A [`SegmentPager`] decorator timing page reads (the buffer pool's
/// misses and overflow reads).
#[derive(Debug)]
pub struct TimedPager {
    inner: Box<dyn SegmentPager>,
    probe: Arc<PagerProbe>,
}

impl TimedPager {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn SegmentPager>, probe: Arc<PagerProbe>) -> Self {
        TimedPager { inner, probe }
    }
}

impl SegmentPager for TimedPager {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_segments(&self) -> u32 {
        self.inner.num_segments()
    }

    fn segment_len(&self, seg: SegmentId) -> u64 {
        self.inner.segment_len(seg)
    }

    fn create_segment(&mut self) -> io::Result<SegmentId> {
        self.inner.create_segment()
    }

    fn append(&mut self, seg: SegmentId, bytes: &[u8]) -> io::Result<u64> {
        self.inner.append(seg, bytes)
    }

    fn read_page(&self, seg: SegmentId, page_no: u32, buf: &mut [u8]) -> io::Result<usize> {
        let t = Instant::now();
        let out = self.inner.read_page(seg, page_no, buf);
        self.probe.read_ns.fetch_add(ns_since(t), Relaxed);
        self.probe.reads.fetch_add(1, Relaxed);
        out
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::pick_seeds;
    use dwc_core::policy::PolicyKind;
    use dwc_core::{CrawlConfig, CrawlReport, Crawler, ServeConfig, SourceService};
    use dwc_datagen::presets::Preset;
    use dwc_model::fixtures::figure1_table;
    use dwc_model::UniversalTable;
    use dwc_server::WebDbServer;
    use dwc_store::{MemPager, SegmentTable};

    /// Crawls `source` with GL from `seeds`, optionally through every
    /// decorator a traced pass installs on the crawler side.
    fn crawl<S: DataSource>(
        source: S,
        seeds: &[(String, String)],
        config: CrawlConfig,
        decorated: bool,
    ) -> CrawlReport {
        let mut policy = PolicyKind::GreedyLink.build();
        if decorated {
            policy = Box::new(TimedPolicy::new(policy, Arc::new(PolicyProbe::default())));
        }
        let probe = SourceProbe::new(if decorated { Level::Trace } else { Level::Off });
        let timed = Timed::new(source, Arc::clone(&probe));
        let mut crawler = Crawler::new(&timed, policy, config);
        if decorated {
            crawler.add_sink(Box::new(CountingSink::default()));
        }
        for (a, v) in seeds {
            assert!(crawler.add_seed(a, v));
        }
        let report = crawler.run();
        if decorated {
            assert_eq!(probe.counts().calls, report.rounds, "every round crossed the seam");
        }
        report
    }

    /// The plain resident in-process report, and the same crawl through a
    /// service whose worker calls a timed, pool-paged server over a timed
    /// pager, with every crawler-side decorator installed.
    fn plain_and_decorated(
        table: UniversalTable,
        seeds: &[(String, String)],
        config: CrawlConfig,
    ) -> (CrawlReport, CrawlReport) {
        let spec = InterfaceSpec::permissive(table.schema(), 10);
        let resident = WebDbServer::new(table.clone(), spec.clone());
        let plain = crawl(&resident, seeds, config.clone(), false);

        let pager = Arc::new(PagerProbe::default());
        let paged = SegmentTable::from_table(
            &table,
            Box::new(TimedPager::new(Box::new(MemPager::new(256)), Arc::clone(&pager))),
            8 * 256,
        )
        .unwrap();
        let worker = Arc::new(Timed::new(
            WebDbServer::paged(Arc::new(paged), spec).with_page_cache(0),
            SourceProbe::new(Level::Trace),
        ));
        let service = SourceService::start(worker, ServeConfig::default());
        let mut wire = config;
        wire.prober = ProberMode::Wire;
        let decorated = crawl(service.connect(), seeds, wire, true);
        service.shutdown();
        assert!(pager.totals().0 > 0, "the small pool must miss");
        (plain, decorated)
    }

    #[test]
    fn decorators_are_transparent_on_figure1() {
        let seeds = [("A".to_string(), "a2".to_string())];
        let config = CrawlConfig::builder().known_target_size(5).build().unwrap();
        let (plain, decorated) = plain_and_decorated(figure1_table(), &seeds, config);
        assert_eq!(plain.records, 5);
        assert_eq!(plain, decorated);
    }

    #[test]
    fn decorators_are_transparent_on_a_fig3_seed() {
        let table = Preset::Dblp.table(0.05, 1);
        let n = table.num_records();
        let seeds = pick_seeds(&table, 2, 1_000);
        let config = CrawlConfig::builder()
            .known_target_size(n)
            .target_coverage(0.9)
            .max_rounds(200 * n as u64 + 10_000)
            .build()
            .unwrap();
        let (plain, decorated) = plain_and_decorated(table, &seeds, config);
        assert_eq!(plain.trace.rounds_to_coverage(0.9, n), Some(3_776), "seed 1000 of Fig. 3");
        assert_eq!(plain, decorated);
    }
}
