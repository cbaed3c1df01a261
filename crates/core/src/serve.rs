//! The serving tier: [`WebDbServer`](dwc_server::WebDbServer) (or any
//! [`DataSource`]) behind a real request/response boundary.
//!
//! The paper's cost model (Definition 2.3) bills communication rounds
//! against a *remote* query interface, but an in-process `DataSource` call
//! cannot exhibit the service phenomena that make rounds expensive: queueing,
//! load shedding, deadlines, tail latency. [`SourceService`] supplies that
//! missing seam. It owns an inner source, a bounded job queue, and a pool of
//! worker threads; [`Connection`] is the client half — itself a
//! [`DataSource`], so every policy, engine, and fleet above the seam runs
//! unmodified against either transport. A connection carries concurrent
//! requests from any number of threads (each transmission answers on its
//! own reply channel), so threads share one by reference, `Arc` or clone:
//!
//! ```text
//!  Crawler ──respond(SourceRequest)──▶ Connection ──try_send──▶ [bounded queue]
//!     ▲                                   │   ▲                      │
//!     │                                   │   └──reply channel──  worker × W
//!     │                            queue full?                       │
//!     └── Err(Rejected) ◀── shed ─────────┘       framed respond() on inner source:
//!                                                 its render is the wire frame
//! ```
//!
//! Contract, in terms of the paper's cost model:
//!
//! * **Admission control.** The queue is bounded ([`ServeConfig::queue_depth`]).
//!   A full queue sheds the request at admission — the client gets
//!   [`CrawlError::Rejected`] and the service bills the round itself (the
//!   request reached the service; Definition 2.3 counts requests, not
//!   outcomes). The queue can never grow unboundedly.
//! * **Deadlines.** A queued request whose deadline passes is cancelled at
//!   dequeue — billed, answered [`CrawlError::Cancelled`], never executed.
//! * **Exactly-once under a lossy wire.** Every logical request carries an
//!   idempotent request id. The service keeps a bounded dedup window: the
//!   first transmission of an id executes, every later transmission of the
//!   same id — a retransmit after a lost frame, a chaos duplicate, a hedge —
//!   is billed as a fresh round but served the cached outcome, never
//!   re-executed. This is what keeps crawl reports bit-identical between a
//!   fault-free wire and a chaos wire ([`crate::chaos::ChaosPlan`]): faults
//!   are absorbed entirely below `respond()`.
//! * **Crash recovery.** A worker killed *before* executing its request
//!   ([`crate::chaos::ChaosKind::Crash`] on the request frame) bills the
//!   round cancelled and the retransmit re-executes; killed *after*
//!   executing, the outcome survives in the dedup window and the retransmit
//!   is served from it. Either way the queue and the billing counters
//!   survive the restart, so `ServiceReport` replay parity still holds. An
//!   inner source that panics mid-request (it bills the attempt itself) is
//!   caught on the worker, which forgets the request id and keeps serving:
//!   the client and any parked retransmits retransmit and re-execute.
//! * **Conservation.** Every request that reached the service is billed
//!   exactly once: `rounds_used = executed + shed + cancelled +
//!   retransmitted`. Request frames the wire ate before admission bill
//!   nothing.
//! * **Hedging.** [`Connection::with_hedging`] sends one same-id duplicate
//!   of any request whose reply outlives a latency threshold, on the same
//!   connection into the same reply channel: the dedup window makes the
//!   race safe, and the first intact frame wins. A hedge shed, halted or
//!   lost at submit is billed but never answers, and nothing is transmitted
//!   after `respond` returns: the request is marked settled then, so a
//!   transmission still queued is cancelled at dequeue and a stalled
//!   primary is billed as a retransmit, never executed, however long ago
//!   its outcome left the dedup window. BENCH-7 gates the p99 it buys
//!   against the rounds it costs.
//! * **Observability.** The service runs its own [`EventBus`], emitting
//!   [`CrawlEvent::RequestEnqueued`] / [`CrawlEvent::RequestShed`] /
//!   [`CrawlEvent::RequestCancelled`] / [`CrawlEvent::RequestCompleted`]
//!   plus the chaos-era events [`CrawlEvent::FrameDropped`] /
//!   [`CrawlEvent::FrameRetransmitted`] / [`CrawlEvent::Hedged`] /
//!   [`CrawlEvent::ServiceRestarted`];
//!   [`MetricsRegistry`](crate::metrics::MetricsRegistry) folds them into a
//!   [`ServiceReport`], and [`crate::metrics::replay_service_report`]
//!   reproduces it from a recorded stream. This stream is the one place a
//!   request's queue depth and latency are reported; responses carry page
//!   facts only. Service events never enter the *crawl* bus — crawl reports
//!   stay bit-identical across transports, which is what the parity and
//!   chaos suites check.
//!
//! Responses cross the boundary as frames, and a wire round renders once and
//! parses once, on the client. The worker sends the inner source a
//! [framed](SourceRequest::framed) request: a source that renders (a
//! `WebDbServer` asked for a [`ProberMode::Wire`] page) answers with its
//! render — the buffer its page cache holds — and the page facts kept beside
//! it, neither parsing nor visiting, and that buffer is the frame. A source
//! that visits instead (an in-process request, or a source that does not
//! render) has its page encoded by [`crate::extract::page_ref_to_wire`],
//! byte for byte the document a render would be; a success that brings
//! neither a frame nor a visited page served no page and is answered
//! [`CrawlError::CorruptPage`]. The worker stamps a checksum that folds the
//! frame 8 bytes at a time with its length, and the client verifies it and
//! parses with [`crate::extract::parse_page_ref`] — a checksum mismatch
//! means the wire truncated the frame in transit (retransmit; the intact
//! frame is served from the dedup window), while a parse failure on an
//! intact frame means the source itself served garbage (surfaced as
//! [`CrawlError::CorruptPage`], exactly as in-process). The frame is written
//! once and shared: the page cache, the dedup window, parked waiters and
//! every reply hold a handle to it, never a copy.

use crate::chaos::{ChaosKind, ChaosState};
use crate::events::{CrawlEvent, EventBus, EventSink};
use crate::extract::{page_ref_to_wire, parse_page_ref, ExtractedPageRef};
use crate::fault::splitmix64;
use crate::source::{CrawlError, DataSource, PageMeta, ProberMode, SourceRequest, SourceResponse};
use crate::ConfigError;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use dwc_server::{InterfaceSpec, Query};
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Serving-tier counters and tail-latency summary, folded by
/// [`MetricsRegistry`](crate::metrics::MetricsRegistry) from the service's
/// event stream. All-zero when no request ever crossed a service boundary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceReport {
    /// Requests admitted into the queue.
    pub enqueued: u64,
    /// Requests fully processed by a worker (successes and inner failures).
    pub completed: u64,
    /// Requests refused at admission because the queue was full.
    pub shed: u64,
    /// Requests cancelled at dequeue (deadline expired, hedged request
    /// already settled, or worker crashed before executing).
    pub cancelled: u64,
    /// Largest queue depth observed at any admission.
    pub max_queue_depth: u32,
    /// Mean queue depth observed at admission.
    pub mean_queue_depth: f64,
    /// Median request latency (admission → reply), microseconds.
    pub p50_latency_us: u64,
    /// 95th-percentile request latency, microseconds.
    pub p95_latency_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_latency_us: u64,
    /// Largest request latency observed, microseconds.
    pub max_latency_us: u64,
    /// Wire frames eaten by the chaos layer (dropped, truncated, or lost
    /// with their link). Dropped request frames bill nothing.
    pub frames_dropped: u64,
    /// Retransmitted or duplicated request frames served from the dedup
    /// window: billed as new rounds, never executed twice.
    pub retransmitted: u64,
    /// Requests a hedging connection hedged past its latency threshold.
    pub hedged: u64,
    /// Service worker crash-and-restart cycles survived.
    pub restarts: u64,
}

impl ServiceReport {
    /// Requests offered to the service: admitted plus shed at the door.
    pub fn offered(&self) -> u64 {
        self.enqueued + self.shed
    }

    /// Fraction of offered requests shed at admission (0.0 when idle).
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.shed as f64 / offered as f64
        }
    }
}

/// Per-request service latency model, sampled deterministically from the
/// config seed and the request's admission sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyModel {
    /// No modeled latency: the worker answers as fast as it can.
    #[default]
    None,
    /// Every request costs the same fixed service time.
    Fixed(Duration),
    /// Service time drawn uniformly from `[min, max]`.
    Uniform {
        /// Lower bound of the service time.
        min: Duration,
        /// Upper bound of the service time.
        max: Duration,
    },
}

impl LatencyModel {
    /// The modeled service time for the `seq`-th admitted request.
    fn sample(&self, seed: u64, seq: u64) -> Duration {
        match *self {
            LatencyModel::None => Duration::ZERO,
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform { min, max } => {
                let (lo, hi) = if min <= max { (min, max) } else { (max, min) };
                let span = hi - lo;
                if span.is_zero() {
                    return lo;
                }
                let frac = (splitmix64(seed ^ seq) >> 11) as f64 / (1u64 << 53) as f64;
                lo + span.mul_f64(frac)
            }
        }
    }
}

/// Serving-tier knobs, validated together by [`ServeConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bound on the request queue; admission sheds beyond it.
    pub queue_depth: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Per-request service-time distribution.
    pub latency: LatencyModel,
    /// Modeled decode cost billed per record in the response page.
    pub decode_per_record: Duration,
    /// Deadline applied to requests whose envelope carries none.
    pub default_deadline: Option<Duration>,
    /// Seed for the latency distribution.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 32,
            workers: 1,
            latency: LatencyModel::None,
            decode_per_record: Duration::ZERO,
            default_deadline: None,
            seed: 0,
        }
    }
}

impl ServeConfig {
    /// A builder seeded with the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { config: ServeConfig::default() }
    }
}

/// Builder for [`ServeConfig`]; `build()` validates every knob together and
/// returns a typed [`ConfigError`] instead of panicking.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the queue bound. Must be positive.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Sets the worker-thread count. Must be positive.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the per-request service-time distribution.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.config.latency = latency;
        self
    }

    /// Sets the modeled per-record decode cost.
    pub fn decode_per_record(mut self, cost: Duration) -> Self {
        self.config.decode_per_record = cost;
        self
    }

    /// Sets the deadline applied to requests that carry none. Must be
    /// positive.
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.config.default_deadline = Some(deadline);
        self
    }

    /// Sets the latency-distribution seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates all knobs together.
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        let c = self.config;
        if c.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if c.workers == 0 {
            return Err(ConfigError::ZeroBudget("workers"));
        }
        if c.default_deadline == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroDeadline);
        }
        Ok(c)
    }
}

/// The frame checksum: the frame length, then every 8-byte little-endian
/// word (the last one zero-padded), each folded in by xor, an odd multiply
/// and a rotation, and a splitmix64 finish. Every step is a bijection in the
/// state for a fixed word and in the word for a fixed state, so two frames of
/// one length that differ inside one word (any single bit flip) always get
/// different checksums. Lets the client tell transit corruption (checksum
/// mismatch → retransmit) from a source that genuinely served a corrupt page
/// (intact checksum, unparseable body → [`CrawlError::CorruptPage`]).
fn wire_checksum(bytes: &[u8]) -> u64 {
    let fold = |h: u64, word: u64| (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    let mut words = bytes.chunks_exact(8);
    let mut h = fold(0xcbf2_9ce4_8422_2325, bytes.len() as u64);
    for word in &mut words {
        h = fold(h, u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes")));
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    splitmix64(fold(h, u64::from_le_bytes(last)))
}

/// The prefix of a wire frame that survives a cut at roughly two thirds of
/// its length on a char boundary, modeling the *wire* (not the source)
/// garbling the frame.
fn truncated(wire: &str) -> &str {
    let mut cut = (wire.len() * 2) / 3;
    while !wire.is_char_boundary(cut) {
        cut -= 1;
    }
    &wire[..cut]
}

/// The frame a worker ships back on success: the page in the XML wire
/// format plus whether the source served it from its render cache. The
/// frame is shared, not copied: the dedup window, parked waiters and every
/// reply to one request id hold a handle to one buffer — the source's render
/// (the buffer its page cache holds) or, for a source that visits, the
/// worker's encoding of the visited page.
#[derive(Clone)]
struct ReplyFrame {
    wire: Arc<str>,
    served_from_cache: bool,
    /// [`wire_checksum`] of `wire` as it left the worker; survives chaos
    /// truncation so the client can detect it.
    checksum: u64,
}

/// What travels on a reply channel.
type Reply = Result<ReplyFrame, CrawlError>;

/// Chaos directives attached to one queued job, all decided at submit time
/// so a schedule is a pure function of the wire-frame counter.
#[derive(Debug, Clone, Copy, Default)]
struct JobChaos {
    /// Request-frame stall/reorder: the wire delivered this frame late. The
    /// worker sleeps this long *before* claiming the dedup entry, so a
    /// hedge can overtake a stalled primary.
    exec_delay: Duration,
    /// Worker crashes at dequeue, before execution: billed cancelled, no
    /// dedup claim, the retransmit re-executes.
    crash_before: bool,
    /// Worker crashes after execution, before transmitting: the outcome
    /// survives in the dedup window, every reply channel drops.
    crash_after: bool,
    /// The reply frame is lost: the outcome is cached, the channel drops,
    /// the client retransmits into the cache.
    drop_reply: bool,
    /// The reply frame is truncated in transit; its checksum no longer
    /// matches and the client retransmits.
    corrupt_reply: bool,
    /// The reply frame stalls on the wire after the outcome is cached —
    /// exactly the window hedging exists to cut.
    reply_delay: Duration,
}

/// One queued request: the owned envelope plus the rendezvous reply channel.
struct Job {
    query: Query,
    page_index: usize,
    prober: ProberMode,
    deadline: Option<Instant>,
    enqueued_at: Instant,
    seq: u64,
    /// Idempotent request id: identical across retransmits, duplicates and
    /// hedges of one logical request.
    rid: u64,
    /// A hedged request's settled flag, set once its `respond` returned:
    /// the job is then billed but never executed. `None` for unhedged
    /// requests.
    settled: Option<Arc<AtomicBool>>,
    chaos: JobChaos,
    reply: Sender<Reply>,
}

/// One request id's entry in the dedup window.
enum DedupEntry {
    /// A worker is executing this id; later transmissions park their reply
    /// senders here and the executor fans the outcome out.
    InFlight(Vec<Sender<Reply>>),
    /// The id's outcome, served verbatim (a handle on the same frame) to
    /// any later transmission.
    Done(Reply),
}

/// Outcomes retained after completion; old entries are evicted FIFO. A
/// retransmit or chaos duplicate lands right after its first transmission,
/// and a hedged request's late transmissions are settled by its flag, not
/// by this window, so a window this deep is effectively unbounded for real
/// schedules.
const DEDUP_WINDOW: usize = 256;

/// Consecutive wire transmissions one `respond()` will attempt before
/// giving up — a safety valve, not a policy; real chaos schedules never
/// fault this many frames in a row.
const RETRANSMIT_LIMIT: usize = 32;

#[derive(Default)]
struct DedupTable {
    entries: HashMap<u64, DedupEntry>,
    /// Completed ids in completion order, for FIFO eviction.
    order: VecDeque<u64>,
}

/// State shared by the service and every connection: the service-side event
/// bus, the billing counters for requests that never reach the inner
/// source, the request-id allocator and the exactly-once dedup window.
struct ServiceShared {
    bus: Mutex<EventBus>,
    shed: AtomicU64,
    cancelled: AtomicU64,
    retransmitted: AtomicU64,
    seq: AtomicU64,
    request_ids: AtomicU64,
    dedup: Mutex<DedupTable>,
}

impl ServiceShared {
    fn emit(&self, event: CrawlEvent) {
        self.bus.lock().expect("service bus poisoned").emit(event);
    }
}

/// A [`DataSource`] served over a bounded queue by worker threads. Create
/// with [`SourceService::start`], obtain clients with
/// [`connect`](SourceService::connect).
pub struct SourceService<S> {
    inner: Arc<S>,
    tx: Sender<Job>,
    shared: Arc<ServiceShared>,
    config: ServeConfig,
    workers: Vec<JoinHandle<()>>,
}

impl<S: DataSource + Send + Sync + 'static> SourceService<S> {
    /// Spawns the worker pool and starts serving `inner`.
    pub fn start(inner: Arc<S>, config: ServeConfig) -> Self {
        let (tx, rx) = bounded::<Job>(config.queue_depth);
        let shared = Arc::new(ServiceShared {
            bus: Mutex::new(EventBus::new()),
            shed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            retransmitted: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            request_ids: AtomicU64::new(0),
            dedup: Mutex::new(DedupTable::default()),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                let rx = rx.clone();
                let shared = Arc::clone(&shared);
                let config = config.clone();
                thread::spawn(move || worker_loop(inner, rx, shared, config))
            })
            .collect();
        SourceService { inner, tx, shared, config, workers }
    }

    /// A new client connection: a channel handle and two `Arc`s onto the
    /// service's one queue, dedup window and bill. One connection serves
    /// any number of threads at once.
    pub fn connect(&self) -> Connection<S> {
        Connection {
            inner: Arc::clone(&self.inner),
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
            default_deadline: self.config.default_deadline,
            chaos: None,
            hedge_after: None,
        }
    }

    /// Attaches a streaming sink to the service-side event bus. Attach
    /// before traffic to capture the full stream.
    pub fn add_sink(&self, sink: Box<dyn EventSink>) {
        self.shared.bus.lock().expect("service bus poisoned").add_sink(sink);
    }

    /// The serving-tier report folded from the service's own event stream.
    pub fn service_report(&self) -> ServiceReport {
        self.shared.bus.lock().expect("service bus poisoned").metrics().service_report()
    }

    /// Drops the service's queue handle, joins the workers once every
    /// outstanding [`Connection`] is gone, and returns the final report.
    /// Call after dropping clients; with live connections this blocks until
    /// they disconnect.
    pub fn shutdown(self) -> ServiceReport {
        let SourceService { tx, shared, workers, .. } = self;
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        let report = shared.bus.lock().expect("service bus poisoned").metrics().service_report();
        report
    }
}

/// What the executing worker found when it claimed the job's request id.
enum Claim {
    /// First transmission: execute it.
    Fresh,
    /// Billed, with nothing to execute or ship: another worker is executing
    /// the id right now and the reply was parked, or the job's hedged
    /// request already returned.
    Parked,
    /// The id already completed; serve the cached outcome.
    Served(Reply),
}

/// Applies the job's reply-side chaos and ships the payload (or loses it).
fn ship_reply(job: &Job, mut payload: Reply) {
    if job.chaos.drop_reply {
        // The wire ate the reply frame: the sender drops with the job and
        // the client's recv error triggers a retransmit.
        return;
    }
    if !job.chaos.reply_delay.is_zero() {
        thread::sleep(job.chaos.reply_delay);
    }
    if job.chaos.corrupt_reply {
        if let Ok(frame) = &mut payload {
            // The checksum still describes the intact frame, so the client
            // detects the truncation and retransmits. The cut goes to a copy:
            // the shared frame (the dedup window's, and the page cache's)
            // stays intact for the retransmit.
            frame.wire = Arc::from(truncated(&frame.wire));
        }
    }
    let _ = job.reply.try_send(payload);
}

fn worker_loop<S: DataSource>(
    inner: Arc<S>,
    rx: Receiver<Job>,
    shared: Arc<ServiceShared>,
    config: ServeConfig,
) {
    let settled = |job: &Job| job.settled.as_ref().is_some_and(|s| s.load(Ordering::Acquire));
    while let Ok(job) = rx.recv() {
        let latency = |job: &Job| job.enqueued_at.elapsed().as_micros() as u64;
        if job.chaos.crash_before {
            // The worker dies holding the request and the supervisor
            // restarts it: the round is billed cancelled, no dedup entry
            // was claimed, and the dropped reply channel makes the client
            // retransmit — which re-executes from scratch.
            shared.cancelled.fetch_add(1, Ordering::Relaxed);
            shared.emit(CrawlEvent::RequestCancelled);
            shared.emit(CrawlEvent::ServiceRestarted);
            continue;
        }
        let expired = job.deadline.is_some_and(|d| Instant::now() >= d);
        if expired || settled(&job) {
            shared.cancelled.fetch_add(1, Ordering::Relaxed);
            shared.emit(CrawlEvent::RequestCancelled);
            let _ = job.reply.try_send(Err(CrawlError::Cancelled));
            continue;
        }
        if !job.chaos.exec_delay.is_zero() {
            // Chaos wire delay: the frame arrived late. Sleeping before the
            // dedup claim is what lets a hedge overtake a stalled primary.
            thread::sleep(job.chaos.exec_delay);
        }
        let claim = {
            let mut dedup = shared.dedup.lock().expect("dedup poisoned");
            match dedup.entries.get_mut(&job.rid) {
                // The hedged request returned while this transmission was
                // stalled; its outcome may have left the window since.
                _ if settled(&job) => Claim::Parked,
                None => {
                    dedup.entries.insert(job.rid, DedupEntry::InFlight(Vec::new()));
                    Claim::Fresh
                }
                Some(DedupEntry::InFlight(waiters)) => {
                    waiters.push(job.reply.clone());
                    Claim::Parked
                }
                Some(DedupEntry::Done(outcome)) => Claim::Served(outcome.clone()),
            }
        };
        match claim {
            Claim::Fresh => {}
            Claim::Parked => {
                // Billed as a new round (Definition 2.3 counts requests),
                // but the executing worker will fan the single outcome out.
                shared.retransmitted.fetch_add(1, Ordering::Relaxed);
                shared.emit(CrawlEvent::FrameRetransmitted { request: job.rid });
                shared.emit(CrawlEvent::RequestCompleted { latency_us: latency(&job) });
                continue;
            }
            Claim::Served(outcome) => {
                shared.retransmitted.fetch_add(1, Ordering::Relaxed);
                shared.emit(CrawlEvent::FrameRetransmitted { request: job.rid });
                shared.emit(CrawlEvent::RequestCompleted { latency_us: latency(&job) });
                ship_reply(&job, outcome);
                continue;
            }
        }
        let modeled = config.latency.sample(config.seed, job.seq);
        if !modeled.is_zero() {
            thread::sleep(modeled);
        }
        // Framed: a source that renders answers with its render, which
        // ships as it is; a source that visits is encoded here.
        let request = SourceRequest {
            query: &job.query,
            page_index: job.page_index,
            prober: job.prober,
            deadline: job.deadline,
            framed: true,
        };
        let mut visited = None;
        let executed = panic::catch_unwind(AssertUnwindSafe(|| {
            inner.respond(&request, &mut |page| visited = Some(page_ref_to_wire(page)))
        }));
        let Ok(outcome) = executed else {
            // The inner source panicked mid-request and billed the attempt
            // itself. Forget the id: dropping its in-flight entry closes
            // every parked waiter's channel, and this job's channel drops
            // with the job, so each client retransmits and re-executes. The
            // worker restarts in place and keeps serving.
            shared.dedup.lock().expect("dedup poisoned").entries.remove(&job.rid);
            shared.emit(CrawlEvent::RequestCompleted { latency_us: latency(&job) });
            shared.emit(CrawlEvent::ServiceRestarted);
            continue;
        };
        let payload: Reply = outcome.and_then(|resp| {
            let wire: Arc<str> = match (resp.frame, visited) {
                (Some(frame), _) => frame,
                (None, Some(encoded)) => Arc::from(encoded),
                // A success with neither a frame nor a visit served no page.
                (None, None) => return Err(CrawlError::CorruptPage),
            };
            if !config.decode_per_record.is_zero() && resp.meta.records > 0 {
                thread::sleep(config.decode_per_record * resp.meta.records as u32);
            }
            let checksum = wire_checksum(wire.as_bytes());
            Ok(ReplyFrame { wire, served_from_cache: resp.meta.served_from_cache, checksum })
        });
        let latency_us = latency(&job);
        // Finalize the dedup entry *before* any reply leaves: once the
        // client can observe completion, the cached outcome already exists,
        // so a retransmit can never re-execute.
        let waiters = {
            let mut dedup = shared.dedup.lock().expect("dedup poisoned");
            let waiters = match dedup.entries.insert(job.rid, DedupEntry::Done(payload.clone())) {
                Some(DedupEntry::InFlight(waiters)) => waiters,
                _ => Vec::new(),
            };
            dedup.order.push_back(job.rid);
            while dedup.order.len() > DEDUP_WINDOW {
                if let Some(old) = dedup.order.pop_front() {
                    dedup.entries.remove(&old);
                }
            }
            waiters
        };
        // Completed means "a worker finished processing it" — inner failures
        // included, so enqueued == completed + cancelled once drained.
        shared.emit(CrawlEvent::RequestCompleted { latency_us });
        if job.chaos.crash_after {
            // Crash between execute and transmit: the outcome survives in
            // the dedup window, every reply channel (ours and the parked
            // ones) drops, and every waiting client retransmits into the
            // cache — exactly-once across the crash.
            shared.emit(CrawlEvent::ServiceRestarted);
            continue;
        }
        for waiter in waiters {
            let _ = waiter.try_send(payload.clone());
        }
        ship_reply(&job, payload);
    }
}

/// The client half of the protocol transport: a [`DataSource`] that frames
/// each request into the service's bounded queue and parses the reply frame.
///
/// Billing: `rounds_used()` is the inner source's counter plus the service's
/// shed, cancelled and retransmitted counters — every request that reached
/// the service costs one round no matter how it ends, and frames the wire
/// ate before admission cost nothing.
pub struct Connection<S> {
    inner: Arc<S>,
    tx: Sender<Job>,
    shared: Arc<ServiceShared>,
    default_deadline: Option<Duration>,
    chaos: Option<Arc<ChaosState>>,
    hedge_after: Option<Duration>,
}

impl<S> std::fmt::Debug for Connection<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("queued", &self.tx.len())
            .field("default_deadline", &self.default_deadline)
            .field("chaos", &self.chaos.is_some())
            .field("hedge_after", &self.hedge_after)
            .finish()
    }
}

impl<S> Clone for Connection<S> {
    fn clone(&self) -> Self {
        Connection {
            inner: Arc::clone(&self.inner),
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
            default_deadline: self.default_deadline,
            chaos: self.chaos.clone(),
            hedge_after: self.hedge_after,
        }
    }
}

impl<S> Connection<S> {
    /// Interposes a chaos wire between this connection and the service.
    /// Connections sharing one [`ChaosState`] share its frame counter, so a
    /// plan's frame indices count transmissions across all of them.
    pub fn with_chaos(mut self, chaos: Arc<ChaosState>) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Enables request hedging: a reply still missing `threshold` after
    /// `respond` began draws one same-id duplicate into the same reply
    /// channel, and the first intact frame wins (see the module docs).
    pub fn with_hedging(mut self, threshold: Duration) -> Self {
        self.hedge_after = Some(threshold);
        self
    }
}

impl<S: DataSource> Connection<S> {
    /// Transmits one request: decides the chaos fate of its request and
    /// reply frames, builds the job around `reply` and the hedged request's
    /// `settled` flag, and offers it to the queue. `Ok(false)` means the
    /// wire ate the request frame before the service saw it (nothing
    /// billed; retransmit).
    fn submit(
        &self,
        request: &SourceRequest<'_>,
        rid: u64,
        settled: Option<&Arc<AtomicBool>>,
        reply: Sender<Reply>,
    ) -> Result<bool, CrawlError> {
        let mut jc = JobChaos::default();
        let mut duplicate = false;
        if let Some(chaos) = &self.chaos {
            if chaos.is_halted() {
                return Err(CrawlError::Cancelled);
            }
            let (frame, fault) = chaos.next_frame();
            if let Some(kind) = fault {
                chaos.note(kind);
                match kind {
                    // A corrupted request frame fails service-side framing
                    // and is discarded — observably a drop, like a downed
                    // link. None of these reach the service: unbilled.
                    ChaosKind::Drop | ChaosKind::Corrupt | ChaosKind::Disconnect => {
                        self.shared.emit(CrawlEvent::FrameDropped { frame });
                        return Ok(false);
                    }
                    ChaosKind::Stall => jc.exec_delay = chaos.plan().stall(),
                    ChaosKind::Reorder => jc.exec_delay = chaos.plan().reorder(),
                    ChaosKind::Duplicate => duplicate = true,
                    ChaosKind::Crash => jc.crash_before = true,
                    ChaosKind::Halt => return Err(CrawlError::Cancelled),
                }
            }
            // The reply frame is allocated now: every chaos decision is made
            // at submit time, so a schedule is a pure function of the frame
            // counter, independent of worker timing.
            let (reply_frame, reply_fault) = chaos.next_frame();
            if let Some(kind) = reply_fault {
                chaos.note(kind);
                match kind {
                    ChaosKind::Drop | ChaosKind::Disconnect => {
                        jc.drop_reply = true;
                        self.shared.emit(CrawlEvent::FrameDropped { frame: reply_frame });
                    }
                    ChaosKind::Corrupt => jc.corrupt_reply = true,
                    ChaosKind::Stall => jc.reply_delay = chaos.plan().stall(),
                    ChaosKind::Reorder => jc.reply_delay = chaos.plan().reorder(),
                    // A doubled reply is discarded by the client; tally only.
                    ChaosKind::Duplicate => {}
                    ChaosKind::Crash => jc.crash_after = true,
                    // The halt latched; it takes effect on the next
                    // transmission, after this request completes.
                    ChaosKind::Halt => {}
                }
            }
        }
        let deadline =
            request.deadline.or_else(|| self.default_deadline.map(|d| Instant::now() + d));
        let job = |chaos, reply| Job {
            query: request.query.clone(),
            page_index: request.page_index,
            prober: request.prober,
            deadline,
            enqueued_at: Instant::now(),
            seq: self.shared.seq.fetch_add(1, Ordering::Relaxed),
            rid,
            settled: settled.cloned(),
            chaos,
            reply,
        };
        self.enqueue(job(jc, reply))?;
        if duplicate {
            // The wire doubled the request frame: a second job with the
            // same request id, admitted like any other. The dedup window
            // bills it as a retransmit and never re-executes it; its reply
            // goes nowhere.
            let _ = self.enqueue(job(JobChaos::default(), bounded(1).0));
        }
        Ok(true)
    }

    /// The one admission path: the bounded queue. A full queue is a shed,
    /// billed here — the request reached the service, and Definition 2.3
    /// counts requests, not outcomes. The queue depth the admitted job saw
    /// goes to the service's event stream.
    fn enqueue(&self, job: Job) -> Result<(), CrawlError> {
        match self.tx.try_send(job) {
            Ok(()) => {
                self.shared.emit(CrawlEvent::RequestEnqueued { depth: self.tx.len() as u32 });
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                self.shared.emit(CrawlEvent::RequestShed);
                Err(CrawlError::Rejected)
            }
            Err(TrySendError::Disconnected(_)) => Err(CrawlError::Cancelled),
        }
    }

    /// The one transmission loop, hedged or not: transmit, await, verify,
    /// and retransmit with the same request id until an intact frame (or a
    /// definitive error) arrives.
    ///
    /// Each transmission's job answers on a fresh reply channel. With
    /// hedging on, a reply that outlives the threshold draws at most one
    /// same-id hedge, into the same channel; the first intact frame wins.
    /// Every job of a hedged request carries its settled flag, which is set
    /// on every return, so a job that outlives the answer is billed but
    /// never executed. The loop retransmits only once every sender of the
    /// channel is gone, so no job it sent can still answer, and it
    /// transmits nothing after it returns.
    fn fetch_frame(&self, request: &SourceRequest<'_>) -> Result<ReplyFrame, CrawlError> {
        let rid = self.shared.request_ids.fetch_add(1, Ordering::Relaxed);
        let mut hedge_at = self.hedge_after.map(|after| Instant::now() + after);
        let settled = hedge_at.is_some().then(|| Settled(Arc::default()));
        let flag = settled.as_ref().map(|s| &s.0);
        for _ in 0..RETRANSMIT_LIMIT {
            let (tx, rx) = bounded(2);
            // A sender is held back only while a hedge may still join.
            let mut held = hedge_at.map(|at| (at, tx.clone()));
            if !self.submit(request, rid, flag, tx)? {
                continue;
            }
            let mut failed = None;
            loop {
                let reply = match held.take() {
                    Some((at, tx)) => {
                        match rx.recv_timeout(at.saturating_duration_since(Instant::now())) {
                            // The transmission's only job answered first.
                            Ok(reply) => reply,
                            Err(_) => {
                                // The reply outlived the threshold: one hedge
                                // joins the channel. Shed, halted or lost at
                                // submit, it is billed as such but never
                                // answers.
                                hedge_at = None;
                                self.shared.emit(CrawlEvent::Hedged { request: rid });
                                let _ = self.submit(request, rid, flag, tx);
                                continue;
                            }
                        }
                    }
                    None => match rx.recv() {
                        Ok(reply) => reply,
                        Err(_) => break,
                    },
                };
                match reply {
                    Ok(frame) if wire_checksum(frame.wire.as_bytes()) == frame.checksum => {
                        return Ok(frame)
                    }
                    // Truncated in transit; the intact frame is cached.
                    Ok(_) => {}
                    Err(e) => {
                        failed.get_or_insert(e);
                    }
                }
            }
            // Every sender is gone. A definitive outcome from the service
            // (inner error, cancel, …) ends the protocol. Otherwise the
            // reply was lost or truncated, or its worker crashed: retransmit;
            // the dedup window guarantees a completed request never
            // re-executes.
            if let Some(e) = failed {
                return Err(e);
            }
        }
        // The wire never stabilized within the safety valve.
        Err(CrawlError::Cancelled)
    }
}

/// A hedged request's settled flag, set when `fetch_frame` returns by any
/// path.
struct Settled(Arc<AtomicBool>);

impl Drop for Settled {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

impl ReplyFrame {
    /// Parses an intact frame and hands the page to `visit`. A frame that
    /// passed its checksum but does not parse means the source itself
    /// served garbage.
    fn deliver(
        &self,
        visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
    ) -> Result<SourceResponse, CrawlError> {
        let page = parse_page_ref(&self.wire).map_err(|_| CrawlError::CorruptPage)?;
        let meta = PageMeta {
            page_index: page.page_index,
            total_matches: page.total_matches,
            has_more: page.has_more,
            records: page.records.len(),
            served_from_cache: self.served_from_cache,
        };
        visit(&page);
        Ok(SourceResponse { meta, frame: None })
    }
}

impl<S: DataSource> DataSource for Connection<S> {
    fn respond(
        &self,
        request: &SourceRequest<'_>,
        visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
    ) -> Result<SourceResponse, CrawlError> {
        self.fetch_frame(request)?.deliver(visit)
    }

    fn interface(&self) -> &InterfaceSpec {
        self.inner.interface()
    }

    fn rounds_used(&self) -> u64 {
        self.inner.rounds_used()
            + self.shared.shed.load(Ordering::Relaxed)
            + self.shared.cancelled.load(Ordering::Relaxed)
            + self.shared.retransmitted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;
    use crate::events::MemorySink;
    use crate::fault::{FaultPlan, FaultPlanSource};
    use crate::metrics::replay_service_report;
    use dwc_model::fixtures::figure1_table;
    use dwc_model::AttrId;
    use dwc_server::{InterfaceSpec, WebDbServer};
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    fn server() -> WebDbServer {
        let table = figure1_table();
        let spec = InterfaceSpec::permissive(table.schema(), 2);
        WebDbServer::new(table, spec)
    }

    fn a2(server: &WebDbServer) -> Query {
        Query::Value(server.table().interner().get(AttrId(0), "a2").unwrap())
    }

    /// A service over the figure-1 fixture with a chaos wire on one
    /// connection.
    fn chaos_rig(
        plan: ChaosPlan,
    ) -> (Arc<WebDbServer>, SourceService<WebDbServer>, Connection<WebDbServer>, Arc<ChaosState>)
    {
        let inner = Arc::new(server());
        let service = SourceService::start(Arc::clone(&inner), ServeConfig::default());
        let chaos = Arc::new(ChaosState::new(plan));
        let conn = service.connect().with_chaos(Arc::clone(&chaos));
        (inner, service, conn, chaos)
    }

    fn fetch_owned(
        conn: &Connection<WebDbServer>,
        query: &Query,
    ) -> Result<crate::extract::ExtractedPage, CrawlError> {
        let mut owned = None;
        conn.respond(&SourceRequest::new(query, 0, ProberMode::Wire), &mut |page| {
            owned = Some(page.to_owned_page());
        })?;
        Ok(owned.expect("respond visits exactly once on success"))
    }

    #[test]
    fn builder_validates_all_knobs_together() {
        assert_eq!(
            ServeConfig::builder().queue_depth(0).build().unwrap_err(),
            ConfigError::ZeroQueueDepth
        );
        assert_eq!(
            ServeConfig::builder().workers(0).build().unwrap_err(),
            ConfigError::ZeroBudget("workers")
        );
        assert_eq!(
            ServeConfig::builder().default_deadline(Duration::ZERO).build().unwrap_err(),
            ConfigError::ZeroDeadline
        );
        let ok = ServeConfig::builder()
            .queue_depth(4)
            .workers(2)
            .latency(LatencyModel::Fixed(Duration::from_micros(10)))
            .default_deadline(Duration::from_millis(100))
            .build()
            .unwrap();
        assert_eq!(ok.queue_depth, 4);
        assert_eq!(ok.workers, 2);
    }

    #[test]
    fn protocol_response_matches_in_process_response() {
        let inner = Arc::new(server());
        let query = a2(&inner);
        let mut direct = None;
        let direct_meta = inner
            .respond(&SourceRequest::new(&query, 0, ProberMode::Wire), &mut |page| {
                direct = Some(page.to_owned_page());
            })
            .unwrap();

        let service = SourceService::start(Arc::clone(&inner), ServeConfig::default());
        let conn = service.connect();
        let mut served = None;
        let response = conn
            .respond(&SourceRequest::new(&query, 0, ProberMode::Wire), &mut |page| {
                served = Some(page.to_owned_page());
            })
            .unwrap();
        assert_eq!(served, direct);
        assert_eq!(response.meta.page_index, direct_meta.meta.page_index);
        assert_eq!(response.meta.total_matches, direct_meta.meta.total_matches);
        assert_eq!(response.meta.has_more, direct_meta.meta.has_more);

        // One executed request, zero shed/cancelled: billing matches the
        // inner counter exactly (the direct probe billed one round too).
        assert_eq!(conn.rounds_used(), inner.rounds_used());
        drop(conn);
        let report = service.shutdown();
        assert_eq!(report.enqueued, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.shed, 0);
        assert_eq!(report.shed_rate(), 0.0);
        assert_eq!(report.retransmitted, 0);
        assert_eq!(report.frames_dropped, 0);
    }

    #[test]
    fn full_queue_sheds_at_admission_and_bills_the_round() {
        let inner = Arc::new(server());
        let query = a2(&inner);
        let config = ServeConfig::builder()
            .queue_depth(1)
            .workers(1)
            .latency(LatencyModel::Fixed(Duration::from_millis(150)))
            .build()
            .unwrap();
        let service = SourceService::start(Arc::clone(&inner), config);

        // Stagger two slow requests so neither collides at admission: the
        // first is executing (~150ms) by the time the second is queued.
        let spawn_one = |service: &SourceService<WebDbServer>| {
            let conn = service.connect();
            let query = query.clone();
            thread::spawn(move || {
                conn.respond(&SourceRequest::new(&query, 0, ProberMode::Wire), &mut |_| {})
            })
        };
        let first = spawn_one(&service);
        thread::sleep(Duration::from_millis(50));
        let second = spawn_one(&service);
        thread::sleep(Duration::from_millis(50));

        // One executing + one queued: the single-slot queue is full, so the
        // probe must be shed at the door, immediately, without queueing.
        let conn = service.connect();
        let probe_started = Instant::now();
        let err = conn
            .respond(&SourceRequest::new(&query, 0, ProberMode::Wire), &mut |_| {})
            .unwrap_err();
        assert_eq!(err, CrawlError::Rejected);
        assert!(err.is_transient(), "rejection must be retryable");
        assert!(
            probe_started.elapsed() < Duration::from_millis(100),
            "shedding happens at admission, not after queueing"
        );

        first.join().unwrap().unwrap();
        second.join().unwrap().unwrap();
        drop(conn);
        let report = service.shutdown();
        assert_eq!(report.shed, 1);
        assert!(report.shed_rate() > 0.0);
        assert_eq!(report.enqueued, 2);
        assert_eq!(report.completed, 2);
        // Conservation: executed requests billed by the inner source, shed
        // ones by the service's own counter.
        assert_eq!(inner.rounds_used(), 2);
        assert_eq!(inner.rounds_used() + report.shed, 3);
    }

    #[test]
    fn expired_deadline_cancels_at_dequeue_and_bills_the_round() {
        let inner = Arc::new(server());
        let query = a2(&inner);
        let service = SourceService::start(Arc::clone(&inner), ServeConfig::default());
        let conn = service.connect();

        let request = SourceRequest::new(&query, 0, ProberMode::Wire).with_deadline(Instant::now());
        let err = conn.respond(&request, &mut |_| {}).unwrap_err();
        assert_eq!(err, CrawlError::Cancelled);
        assert_eq!(conn.rounds_used(), inner.rounds_used() + 1);

        drop(conn);
        let report = service.shutdown();
        assert_eq!(report.cancelled, 1);
        assert_eq!(report.enqueued, 1);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn one_connection_serves_many_threads_on_one_bill() {
        let inner = Arc::new(server());
        let query = a2(&inner);
        let config = ServeConfig::builder().workers(2).build().unwrap();
        let service = SourceService::start(Arc::clone(&inner), config);
        let conn = service.connect();
        thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..2 {
                        let request = SourceRequest::new(&query, 0, ProberMode::InProcess);
                        conn.respond(&request, &mut |_| {}).unwrap();
                    }
                });
            }
        });
        assert_eq!(conn.rounds_used(), 6);
        assert_eq!(conn.rounds_used(), inner.rounds_used());
        drop(conn);
        assert_eq!(service.shutdown().completed, 6);
    }

    #[test]
    fn a_hedged_connection_shared_by_threads_executes_each_request_once() {
        // Every reply takes 2 ms against a 100 µs threshold, so requests
        // from three threads hedge while others are in flight.
        let inner = Arc::new(server());
        let query = a2(&inner);
        let config = ServeConfig::builder()
            .workers(2)
            .latency(LatencyModel::Fixed(Duration::from_millis(2)))
            .build()
            .unwrap();
        let service = SourceService::start(Arc::clone(&inner), config);
        let conn = service.connect().with_hedging(Duration::from_micros(100));
        thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..4 {
                        let request = SourceRequest::new(&query, 0, ProberMode::Wire);
                        conn.respond(&request, &mut |_| {}).unwrap();
                    }
                });
            }
        });
        wait_until("losing hedges drain", || {
            let r = service.service_report();
            r.enqueued == r.completed + r.cancelled
        });
        assert_eq!(inner.rounds_used(), 12, "one execution per logical request");
        let billed = conn.rounds_used();
        drop(conn);
        let report = service.shutdown();
        assert!(report.hedged > 0);
        assert_eq!(billed, 12 + report.hedged, "each hedge bills exactly one round");
    }

    #[test]
    fn service_report_replays_from_the_recorded_stream() {
        let inner = Arc::new(server());
        let query = a2(&inner);
        let service = SourceService::start(Arc::clone(&inner), ServeConfig::default());
        let sink = MemorySink::new();
        service.add_sink(Box::new(sink.clone()));
        let conn = service.connect();
        for page in 0..2 {
            conn.respond(&SourceRequest::new(&query, page, ProberMode::Wire), &mut |_| {}).unwrap();
        }
        let expired = SourceRequest::new(&query, 0, ProberMode::Wire).with_deadline(Instant::now());
        conn.respond(&expired, &mut |_| {}).unwrap_err();
        drop(conn);
        let live = service.shutdown();
        assert_eq!(replay_service_report(&sink.collected()), live);
        assert_eq!(live.enqueued, 3);
        assert_eq!(live.completed, 2);
        assert_eq!(live.cancelled, 1);
    }

    #[test]
    fn uniform_latency_samples_are_seeded_and_bounded() {
        let model = LatencyModel::Uniform {
            min: Duration::from_micros(100),
            max: Duration::from_micros(900),
        };
        for seq in 0..64 {
            let d = model.sample(7, seq);
            assert!(d >= Duration::from_micros(100) && d <= Duration::from_micros(900));
            assert_eq!(d, model.sample(7, seq), "same seed+seq must resample identically");
        }
        assert_eq!(LatencyModel::None.sample(1, 2), Duration::ZERO);
        assert_eq!(
            LatencyModel::Fixed(Duration::from_millis(3)).sample(1, 2),
            Duration::from_millis(3)
        );
    }

    #[test]
    fn dropped_request_frames_bill_nothing_and_retransmit() {
        // Frame 1 is the first request frame: the wire eats it.
        let (inner, service, conn, chaos) = chaos_rig(ChaosPlan::new().drop_at(1));
        let query = a2(&inner);
        let direct = {
            let mut owned = None;
            inner
                .respond(&SourceRequest::new(&query, 0, ProberMode::Wire), &mut |page| {
                    owned = Some(page.to_owned_page());
                })
                .unwrap();
            owned.unwrap()
        };
        let served = fetch_owned(&conn, &query).unwrap();
        assert_eq!(served, direct, "retransmitted payload is byte-identical");
        // The dropped frame never reached the service: only the retransmit
        // (which executed) is billed.
        assert_eq!(inner.rounds_used(), 2, "direct probe + one service execution");
        assert_eq!(conn.rounds_used(), inner.rounds_used());
        assert_eq!(chaos.tally().dropped, 1);
        drop(conn);
        let report = service.shutdown();
        assert_eq!(report.frames_dropped, 1);
        assert_eq!(report.retransmitted, 0, "the retransmit executed fresh, no dedup hit");
        assert_eq!(report.enqueued, 1);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn dropped_reply_is_billed_once_executed_once_served_from_dedup() {
        // Frame 2 is the first reply frame: executed, then lost on the wire.
        let (inner, service, conn, _chaos) = chaos_rig(ChaosPlan::new().drop_at(2));
        let query = a2(&inner);
        let served = fetch_owned(&conn, &query).unwrap();
        assert!(!served.records.is_empty());
        assert_eq!(inner.rounds_used(), 1, "executed exactly once");
        // One executed + one retransmit served from the dedup window.
        assert_eq!(conn.rounds_used(), 2);
        drop(conn);
        let report = service.shutdown();
        assert_eq!(report.frames_dropped, 1);
        assert_eq!(report.retransmitted, 1);
        assert_eq!(report.enqueued, 2);
        assert_eq!(report.completed, 2);
        // Conservation: rounds = executed + shed + cancelled + retransmitted.
        assert_eq!(
            conn_rounds(&report, inner.rounds_used()),
            2,
            "billing conservation under reply loss"
        );
    }

    /// `executed + shed + cancelled + retransmitted`, the conservation sum.
    fn conn_rounds(report: &ServiceReport, executed: u64) -> u64 {
        executed + report.shed + report.cancelled + report.retransmitted
    }

    #[test]
    fn corrupted_reply_retransmits_and_serves_the_intact_frame() {
        let (inner, service, conn, chaos) = chaos_rig(ChaosPlan::new().corrupt_at(2));
        let query = a2(&inner);
        let served = fetch_owned(&conn, &query).unwrap();
        assert!(!served.records.is_empty(), "client never sees the truncated frame");
        assert_eq!(inner.rounds_used(), 1);
        assert_eq!(conn.rounds_used(), 2);
        assert_eq!(chaos.tally().corrupted, 1);
        // The frame is the page cache's buffer, so the cut went to a copy: a
        // second request for the page is served from the cache, intact.
        let mut again = None;
        let response = conn
            .respond(&SourceRequest::new(&query, 0, ProberMode::Wire), &mut |page| {
                again = Some(page.to_owned_page());
            })
            .unwrap();
        assert!(response.meta.served_from_cache);
        assert_eq!(again, Some(served));
        assert_eq!(inner.page_cache().hits(), 1);
        drop(conn);
        let report = service.shutdown();
        assert_eq!(report.retransmitted, 1);
    }

    #[test]
    fn crash_before_execution_bills_cancelled_and_reexecutes() {
        let (inner, service, conn, _chaos) = chaos_rig(ChaosPlan::new().crash_at(1));
        let query = a2(&inner);
        assert!(fetch_owned(&conn, &query).is_ok());
        assert_eq!(inner.rounds_used(), 1, "the retransmit is the only execution");
        // Crashed attempt billed cancelled + the retransmit executed.
        assert_eq!(conn.rounds_used(), 2);
        drop(conn);
        let report = service.shutdown();
        assert_eq!(report.restarts, 1);
        assert_eq!(report.cancelled, 1);
        assert_eq!(report.retransmitted, 0, "nothing was cached before the crash");
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn crash_after_execution_survives_via_the_dedup_window() {
        // Frame 2 = reply frame of the first request: crash after execute.
        let (inner, service, conn, _chaos) = chaos_rig(ChaosPlan::new().crash_at(2));
        let query = a2(&inner);
        assert!(fetch_owned(&conn, &query).is_ok());
        assert_eq!(inner.rounds_used(), 1, "exactly-once across the crash");
        assert_eq!(conn.rounds_used(), 2);
        drop(conn);
        let report = service.shutdown();
        assert_eq!(report.restarts, 1);
        assert_eq!(report.cancelled, 0);
        assert_eq!(report.retransmitted, 1, "the retransmit was served from the dedup window");
        assert_eq!(report.enqueued, 2);
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn halt_fails_unbilled() {
        let (inner, service, conn, chaos) = chaos_rig(ChaosPlan::new().halt_at(1));
        let query = a2(&inner);
        assert_eq!(fetch_owned(&conn, &query).unwrap_err(), CrawlError::Cancelled);
        assert!(chaos.is_halted());
        assert_eq!(conn.rounds_used(), 0, "a halted service bills nothing");
        assert_eq!(fetch_owned(&conn, &query).unwrap_err(), CrawlError::Cancelled);
        drop(conn);
        let report = service.shutdown();
        assert_eq!(report.enqueued, 0);
    }

    #[test]
    fn duplicated_request_frame_is_billed_but_not_reexecuted() {
        let (inner, service, conn, chaos) = chaos_rig(ChaosPlan::new().duplicate_at(1));
        let query = a2(&inner);
        assert!(fetch_owned(&conn, &query).is_ok());
        // Wait for the duplicate job to drain before reading counters.
        drop(conn);
        let report = service.shutdown();
        assert_eq!(inner.rounds_used(), 1, "the double executes once");
        assert_eq!(chaos.tally().duplicated, 1);
        assert_eq!(report.enqueued, 2);
        assert_eq!(report.completed, 2);
        assert_eq!(report.retransmitted, 1);
    }

    /// A source that holds each request until its gate opens (10 s at
    /// most), then serves it from the figure-1 server. `entered` counts the
    /// requests that reached it.
    struct Gated {
        server: WebDbServer,
        open: Arc<AtomicBool>,
        entered: AtomicUsize,
    }

    impl Gated {
        fn new() -> Self {
            Gated { server: server(), open: Arc::default(), entered: AtomicUsize::new(0) }
        }
    }

    impl DataSource for Gated {
        fn respond(
            &self,
            request: &SourceRequest<'_>,
            visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
        ) -> Result<SourceResponse, CrawlError> {
            self.entered.fetch_add(1, Ordering::AcqRel);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !self.open.load(Ordering::Acquire) && Instant::now() < deadline {
                thread::sleep(Duration::from_micros(200));
            }
            self.server.respond(request, visit)
        }

        fn interface(&self) -> &InterfaceSpec {
            self.server.interface()
        }

        fn rounds_used(&self) -> u64 {
            self.server.rounds_used()
        }
    }

    /// A service-bus sink that opens a [`Gated`] source's gate on the first
    /// event its predicate picks.
    struct OpenOn(Arc<AtomicBool>, fn(&CrawlEvent) -> bool);

    impl EventSink for OpenOn {
        fn emit(&mut self, event: &CrawlEvent) {
            if (self.1)(event) {
                self.0.store(true, Ordering::Release);
            }
        }
    }

    /// Polls `done` every 100 µs, failing after 10 s.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            thread::sleep(Duration::from_micros(100));
        }
    }

    #[test]
    fn hedging_races_a_duplicate_and_executes_once() {
        // The executing request is held until the hedge is parked on it,
        // so the hedge can never lose the race to the dequeue-time cancel.
        let inner = Arc::new(Gated::new());
        let query = a2(&inner.server);
        let config = ServeConfig::builder()
            .workers(2)
            .latency(LatencyModel::Fixed(Duration::from_millis(20)))
            .build()
            .unwrap();
        let service = SourceService::start(Arc::clone(&inner), config);
        let parked = |e: &CrawlEvent| matches!(e, CrawlEvent::FrameRetransmitted { .. });
        service.add_sink(Box::new(OpenOn(Arc::clone(&inner.open), parked)));
        let conn = service.connect().with_hedging(Duration::from_millis(1));
        let mut seen = false;
        conn.respond(&SourceRequest::new(&query, 0, ProberMode::Wire), &mut |_| seen = true)
            .unwrap();
        assert!(seen);
        drop(conn);
        let report = service.shutdown();
        assert_eq!(report.hedged, 1, "the 20ms reply outlived the 1ms threshold");
        assert_eq!(inner.rounds_used(), 1, "dedup keeps the race exactly-once");
        // The hedge is billed: one executed + one retransmitted round.
        assert_eq!(report.retransmitted, 1);
    }

    #[test]
    fn a_hedge_shed_at_admission_does_not_fail_a_served_request() {
        // One worker held inside the primary and a queued filler fill the
        // one-slot queue, so the hedge is shed at the door; the shed opens
        // the gate and the primary is served.
        let inner = Arc::new(Gated::new());
        let query = a2(&inner.server);
        let config = ServeConfig::builder().workers(1).queue_depth(1).build().unwrap();
        let service = SourceService::start(Arc::clone(&inner), config);
        let shed = |e: &CrawlEvent| matches!(e, CrawlEvent::RequestShed);
        service.add_sink(Box::new(OpenOn(Arc::clone(&inner.open), shed)));
        let conn = service.connect().with_hedging(Duration::from_millis(300));
        let filler = service.connect();
        let request = SourceRequest::new(&query, 0, ProberMode::Wire);
        thread::scope(|s| {
            let primary = s.spawn(|| conn.respond(&request, &mut |_| {}));
            wait_until("the worker holds the primary", || {
                inner.entered.load(Ordering::Acquire) == 1
            });
            let filler = s.spawn(|| filler.respond(&request, &mut |_| {}));
            wait_until("the filler is queued", || service.tx.len() == 1);
            assert!(primary.join().unwrap().is_ok(), "the primary's page is the answer");
            filler.join().unwrap().unwrap();
        });
        drop((conn, filler));
        let report = service.shutdown();
        assert_eq!(report.hedged, 1);
        assert_eq!(report.shed, 1, "the hedge was shed at admission");
        assert_eq!(report.completed, 2);
        assert_eq!(inner.rounds_used(), 2);
    }

    #[test]
    fn nothing_is_transmitted_after_a_hedged_respond_returns() {
        // The primary's request frame stalls 50 ms and its reply frame is
        // lost; the hedge, sent at 5 ms, executes and answers first.
        let inner = Arc::new(server());
        let query = a2(&inner);
        let config = ServeConfig::builder().workers(2).build().unwrap();
        let service = SourceService::start(Arc::clone(&inner), config);
        let plan = ChaosPlan::new().stall_at(1).drop_at(2).stall_for(Duration::from_millis(50));
        let chaos = Arc::new(ChaosState::new(plan));
        let conn =
            service.connect().with_chaos(Arc::clone(&chaos)).with_hedging(Duration::from_millis(5));
        conn.respond(&SourceRequest::new(&query, 0, ProberMode::Wire), &mut |_| {}).unwrap();
        let sent = chaos.frames_sent();
        assert_eq!(sent, 4, "two frames each for the primary and the hedge");
        drop(conn);
        let report = service.shutdown();
        assert_eq!(chaos.frames_sent(), sent, "the stalled primary never retransmits");
        assert_eq!(report.hedged, 1);
        assert_eq!(inner.rounds_used(), 1, "executed once");
        assert_eq!(report.retransmitted, 1, "the primary is billed once, from the dedup window");
        assert_eq!(conn_rounds(&report, inner.rounds_used()), 2);
    }

    #[test]
    fn a_stalled_hedged_primary_never_executes_after_its_outcome_is_evicted() {
        // The primary's request frame stalls 200 ms and the hedge, sent at
        // 1 ms, answers. While the primary sleeps, 300 requests (more than
        // the dedup window holds) complete on a plain connection.
        let inner = Arc::new(server());
        let query = a2(&inner);
        let config = ServeConfig::builder().workers(2).build().unwrap();
        let service = SourceService::start(Arc::clone(&inner), config);
        let plan = ChaosPlan::new().stall_at(1).stall_for(Duration::from_millis(200));
        let hedged = service
            .connect()
            .with_chaos(Arc::new(ChaosState::new(plan)))
            .with_hedging(Duration::from_millis(1));
        let request = SourceRequest::new(&query, 0, ProberMode::Wire);
        hedged.respond(&request, &mut |_| {}).unwrap();
        let conn = service.connect();
        for _ in 0..300 {
            conn.respond(&request, &mut |_| {}).unwrap();
        }
        drop((hedged, conn));
        let report = service.shutdown();
        assert_eq!(report.hedged, 1);
        assert_eq!(inner.rounds_used(), 301, "one execution per logical request");
        assert_eq!(report.retransmitted, 1, "the woken primary is billed, never executed");
    }

    #[test]
    fn checksum_catches_truncation_and_roundtrips_cleanly() {
        let intact = "<page><r a=\"x\"/></page>".to_owned();
        let sum = wire_checksum(intact.as_bytes());
        assert_eq!(sum, wire_checksum(intact.clone().as_bytes()));
        let cut = truncated(&intact);
        assert!(cut.len() < intact.len());
        assert_ne!(wire_checksum(cut.as_bytes()), sum);
    }

    /// A full first page of the Fig. 3 table (DBLP preset at scale 0.05,
    /// page size 10), framed by the server exactly as a worker ships it.
    fn fig3_frame() -> Arc<str> {
        let table = dwc_datagen::presets::Preset::Dblp.table(0.05, 1);
        let spec = InterfaceSpec::permissive(table.schema(), 10);
        let server = WebDbServer::new(table, spec);
        let values = server.table().record(dwc_model::RecordId(0)).values().to_vec();
        for v in values {
            let query = Query::Value(v);
            let request =
                SourceRequest { framed: true, ..SourceRequest::new(&query, 0, ProberMode::Wire) };
            let response = server.respond(&request, &mut |_| {}).unwrap();
            if response.meta.records == 10 {
                return response.frame.expect("a rendering source frames a framed request");
            }
        }
        panic!("record 0 of the Fig. 3 table has a value with a full first page");
    }

    /// Every truncation and every single-bit flip of a real frame changes
    /// its checksum, and the parser returns an error or a page on each
    /// damaged frame that is still UTF-8, never panicking.
    #[test]
    fn adversarial_frames_change_the_checksum_and_never_panic_the_parser() {
        let frame = fig3_frame();
        let intact = frame.as_bytes();
        let sum = wire_checksum(intact);
        assert!(parse_page_ref(&frame).is_ok());
        let mut parsed = 0;
        for cut in 0..intact.len() {
            assert_ne!(wire_checksum(&intact[..cut]), sum, "truncation at {cut}");
            if let Ok(text) = std::str::from_utf8(&intact[..cut]) {
                parsed += usize::from(parse_page_ref(text).is_ok());
            }
        }
        let mut flipped = intact.to_vec();
        for bit in 0..intact.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(wire_checksum(&flipped), sum, "flip of bit {bit}");
            if let Ok(text) = std::str::from_utf8(&flipped) {
                parsed += usize::from(parse_page_ref(text).is_ok());
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        // Some damaged frames still parse (a flipped digit in a key), which
        // is why the checksum, not the parser, detects transit damage.
        assert!(parsed > 0);
    }

    /// The inner source panics on its first request. The worker survives
    /// it, the client's retransmit re-executes and is served, and the
    /// drained report balances. A regression hangs `respond`, so it runs on
    /// its own thread under a timeout.
    fn panicking_source_is_retried_and_served(workers: usize) {
        let server = server();
        let query = a2(&server);
        let inner = Arc::new(FaultPlanSource::new(server, FaultPlan::new().panic_at(1)));
        let config = ServeConfig::builder().workers(workers).build().unwrap();
        let service = SourceService::start(Arc::clone(&inner), config);
        let conn = service.connect();
        let (tx, rx) = bounded(1);
        thread::spawn(move || {
            let mut records = 0;
            let outcome = conn
                .respond(&SourceRequest::new(&query, 0, ProberMode::Wire), &mut |page| {
                    records = page.records.len();
                })
                .map(|_| records);
            let _ = tx.try_send((outcome, conn.rounds_used()));
        });
        let (outcome, rounds) =
            rx.recv_timeout(Duration::from_secs(10)).expect("respond returns within 10 s");
        assert_eq!(outcome, Ok(2), "the retransmit serves the page");
        assert_eq!(rounds, 2, "the panicked attempt and the re-execution");
        let report = service.shutdown();
        assert_eq!(report.restarts, 1);
        assert_eq!(report.enqueued, 2);
        assert_eq!(report.enqueued, report.completed + report.cancelled);
    }

    #[test]
    fn panicking_source_is_retried_and_served_on_one_worker() {
        panicking_source_is_retried_and_served(1);
    }

    #[test]
    fn panicking_source_is_retried_and_served_on_two_workers() {
        panicking_source_is_retried_and_served(2);
    }

    /// Forwards `respond` to the figure-1 server with a no-op visitor: an
    /// in-process request succeeds with neither a frame nor a visited page.
    struct Unvisited(WebDbServer);

    impl DataSource for Unvisited {
        fn respond(
            &self,
            request: &SourceRequest<'_>,
            _visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
        ) -> Result<SourceResponse, CrawlError> {
            self.0.respond(request, &mut |_| {})
        }

        fn interface(&self) -> &InterfaceSpec {
            self.0.interface()
        }

        fn rounds_used(&self) -> u64 {
            self.0.rounds_used()
        }
    }

    #[test]
    fn a_success_without_a_page_is_corrupt_and_the_worker_keeps_serving() {
        // One worker, and the first reply frame is lost: the retransmit is
        // answered from the finalized dedup entry, not re-executed.
        let inner = Arc::new(Unvisited(server()));
        let query = a2(&inner.0);
        let service = SourceService::start(Arc::clone(&inner), ServeConfig::default());
        let chaos = Arc::new(ChaosState::new(ChaosPlan::new().drop_at(2)));
        let conn = service.connect().with_chaos(chaos);
        let in_process = SourceRequest::new(&query, 0, ProberMode::InProcess);
        for _ in 0..2 {
            let mut visited = false;
            let outcome = conn.respond(&in_process, &mut |_| visited = true);
            assert_eq!(outcome, Err(CrawlError::CorruptPage), "the source served no page");
            assert!(!visited);
        }
        // The worker still serves: a wire request is answered with the
        // server's frame, which needs no visit.
        let mut records = 0;
        let wire = SourceRequest::new(&query, 0, ProberMode::Wire);
        conn.respond(&wire, &mut |page| records = page.records.len()).unwrap();
        assert_eq!(records, 2);
        assert_eq!(inner.rounds_used(), 3, "each logical request executed once");
        drop(conn);
        let report = service.shutdown();
        assert_eq!(report.retransmitted, 1, "the retransmit was served from the dedup window");
        assert_eq!((report.enqueued, report.completed, report.restarts), (4, 4, 0));
    }

    #[test]
    fn decode_cost_is_billed_per_record_of_a_framed_page() {
        // The worker ships the server's render without visiting it; the
        // modeled decode cost still comes from the page's record count.
        let inner = Arc::new(server());
        let query = a2(&inner);
        let cost = Duration::from_millis(3);
        let config = ServeConfig::builder().decode_per_record(cost).build().unwrap();
        let service = SourceService::start(Arc::clone(&inner), config);
        let conn = service.connect();
        let response =
            conn.respond(&SourceRequest::new(&query, 0, ProberMode::Wire), &mut |_| {}).unwrap();
        assert_eq!(response.meta.records, 2);
        drop(conn);
        let report = service.shutdown();
        assert!(report.max_latency_us >= 2 * cost.as_micros() as u64, "{report:?}");
    }

    #[test]
    fn queued_reply_channels_close_when_the_last_worker_exits() {
        // A job still queued when the last worker drops its receiver must
        // not keep its reply sender alive: the client sees a disconnect
        // instead of blocking forever on a reply nobody will send.
        use crossbeam::channel::TryRecvError;
        let (jobs, worker) = bounded::<Sender<Reply>>(4);
        let (reply, client) = bounded::<Reply>(1);
        assert!(jobs.try_send(reply).is_ok());
        drop(worker);
        assert!(matches!(client.try_recv(), Err(TryRecvError::Disconnected)));
        assert!(client.recv().is_err());
    }
}
