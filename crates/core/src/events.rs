//! The cross-layer structured event bus.
//!
//! Every observable thing that happens during a crawl — a query planned, a
//! page requested, a retry billed, records ingested, a checkpoint written, a
//! breaker transition, a worker restart — is a [`CrawlEvent`]. Events are
//! emitted exactly once, at the layer where the fact is established
//! (executor, ingestor, checkpoint loop, fleet supervisor), and flow through
//! an [`EventBus`] to any number of [`EventSink`]s. The first, mandatory
//! sink is the [`crate::metrics::MetricsRegistry`]: the *single source of
//! truth* from which [`crate::CrawlReport`], `FleetReport::health` and
//! [`crate::CrawlTrace`] are derived, so reports can no longer drift from
//! what actually happened. Additional sinks stream the same events elsewhere
//! — [`JsonlSink`] writes one JSON object per line for offline analysis
//! (`dwc crawl --events <path>`), [`MemorySink`] buffers them for tests.
//!
//! The JSONL encoding round-trips: [`CrawlEvent::to_json`] /
//! [`CrawlEvent::from_json`] are inverses, and replaying a recorded stream
//! through a fresh registry ([`crate::metrics::replay_report`]) rebuilds the
//! exact [`crate::CrawlReport`] the crawl returned.

use std::io::Write;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

/// Why a crawl ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// `L_to-query` is empty: every reachable candidate was issued.
    FrontierExhausted,
    /// The round budget was exhausted.
    RoundBudget,
    /// The query budget was exhausted.
    QueryBudget,
    /// The coverage target was reached.
    CoverageReached,
    /// The fleet abandoned the job after its worker exceeded the
    /// restart budget ([`crate::fleet::FleetConfig::max_restarts`]).
    WorkerFailed,
    /// The crawl's [`crate::source::CancelToken`] fired: the driver stopped
    /// issuing requests and finalized the report at the current state.
    Cancelled,
    /// The job's tenant exhausted its round quota
    /// ([`crate::tenant::Tenant::round_quota`]) and the fleet parked the job
    /// at a slice boundary (cooperative preemption).
    QuotaExhausted,
}

impl StopReason {
    /// Stable identifier used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::FrontierExhausted => "frontier_exhausted",
            StopReason::RoundBudget => "round_budget",
            StopReason::QueryBudget => "query_budget",
            StopReason::CoverageReached => "coverage_reached",
            StopReason::WorkerFailed => "worker_failed",
            StopReason::Cancelled => "cancelled",
            StopReason::QuotaExhausted => "quota_exhausted",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "frontier_exhausted" => StopReason::FrontierExhausted,
            "round_budget" => StopReason::RoundBudget,
            "query_budget" => StopReason::QueryBudget,
            "coverage_reached" => StopReason::CoverageReached,
            "worker_failed" => StopReason::WorkerFailed,
            "cancelled" => StopReason::Cancelled,
            "quota_exhausted" => StopReason::QuotaExhausted,
            _ => return None,
        })
    }
}

/// A circuit breaker's position, flattened for event reporting (the
/// cooldown countdown of [`crate::health::BreakerState::Open`] is supervisor
/// detail, not an observable transition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// Healthy: slices flow normally.
    Closed,
    /// Tripped: the job is paused.
    Open,
    /// Cooled down: the next slice is a probe.
    HalfOpen,
}

impl BreakerPhase {
    /// Stable identifier used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open => "open",
            BreakerPhase::HalfOpen => "half_open",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "closed" => BreakerPhase::Closed,
            "open" => BreakerPhase::Open,
            "half_open" => BreakerPhase::HalfOpen,
            _ => return None,
        })
    }
}

/// One structured fact about a crawl, emitted where it happens.
///
/// The taxonomy spans all layers: planner (`QueryPlanned`), executor
/// (`PageRequested` through `QueryAborted`), ingestor (`PageFetched`
/// carries the harvest), the driver's bookkeeping (`QueryCompleted`,
/// `QueryRequeued`, checkpoint events, `CrawlResumed`/`CrawlFinished`),
/// the fleet coordinator (`SliceScheduled` through `TenantPreempted`), the
/// fleet supervisor (`BreakerTransition`, `WorkerRestarted`,
/// `JobAbandoned`) and the serving tier (`RequestEnqueued` through
/// `ServiceRestarted`).
///
/// Every variant folds into exactly the report/registry fields below —
/// [`crate::metrics::MetricsRegistry::record`] is the *only* place a
/// counter changes, so this table is the complete map from facts to
/// figures:
///
/// | Variant | Folds into |
/// |---|---|
/// | `QueryPlanned` | nothing (selection visibility only) |
/// | `PageRequested` | [`crate::CrawlReport`] `rounds` |
/// | `PageFetched` | `CrawlReport::records`; resets the fault streak |
/// | `PageCacheHit` | `CrawlReport::page_cache_hits` |
/// | `TransientFailure` | `CrawlReport::transient_failures` / `corrupt_pages`; fault streak |
/// | `BackoffBilled` | `CrawlReport::backoff_rounds` |
/// | `StallBilled` | `CrawlReport::stall_rounds` |
/// | `QueryAborted` | `CrawlReport::aborted_queries` |
/// | `QueryCompleted` | `CrawlReport::queries`; pushes a [`crate::CrawlTrace`] point |
/// | `QueryRequeued` | `CrawlReport::requeued_queries` |
/// | `CheckpointWritten` | `CrawlReport::checkpoints_written` |
/// | `CheckpointFailed` | `CrawlReport::checkpoint_failures` |
/// | `CrawlResumed` | seeds `rounds`/`queries`/`records`; pushes a trace point |
/// | `CrawlFinished` | `CrawlReport::stop` / `final_coverage` |
/// | `BreakerTransition` | [`crate::JobHealth`] `breaker_trips` / `breaker_recoveries` |
/// | `WorkerRestarted` | `JobHealth::worker_restarts` |
/// | `JobAbandoned` | `JobHealth::abandoned` |
/// | `SliceScheduled` | [`crate::SchedulerStats`] `slices_scheduled` / `rounds_granted` |
/// | `SliceCompleted` | `SchedulerStats` `slices_completed` / `rounds_executed` / `per_worker_slices`; [`crate::UsageLedger`] `rounds` / `pages` (per-job maxima) |
/// | `JobAttached` | `UsageLedger` `rounds` / `pages` baselines; tenant↔job membership |
/// | `JobDetached` | `UsageLedger` `rounds` / `pages` (final per-job maxima) |
/// | `TenantPreempted` | `UsageLedger::preempted` |
/// | `RequestEnqueued` | [`crate::ServiceReport`] `enqueued` / queue-depth stats |
/// | `RequestShed` | `ServiceReport::shed` |
/// | `RequestCancelled` | `ServiceReport::cancelled` |
/// | `RequestCompleted` | `ServiceReport::completed`; latency histogram |
/// | `FrameDropped` | `ServiceReport::frames_dropped` |
/// | `FrameRetransmitted` | `ServiceReport::retransmitted` |
/// | `Hedged` | `ServiceReport::hedged` |
/// | `ServiceRestarted` | `ServiceReport::restarts` |
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrawlEvent {
    /// The planner chose the next query: a policy-selected candidate
    /// (`candidate = Some(value id)`) or a pending seed group (`None`).
    QueryPlanned {
        /// Crawler-vocabulary id of the selected candidate, if any.
        candidate: Option<u32>,
    },
    /// One page request went out (successful or not): one communication
    /// round billed (Definition 2.3).
    PageRequested,
    /// A page arrived intact and was ingested.
    PageFetched {
        /// Records returned on the page (including duplicates).
        returned: u64,
        /// Records new to `DB_local`.
        new: u64,
    },
    /// The source served the page from its render cache (shared-fleet
    /// overlap): the round was billed as usual, but no re-render happened.
    /// Emitted immediately before the page's `PageFetched`.
    PageCacheHit,
    /// A page request failed on a transient-class error.
    TransientFailure {
        /// Whether the page arrived but was truncated/garbled
        /// ([`crate::CrawlError::CorruptPage`]).
        corrupt: bool,
    },
    /// The retry schedule billed a backoff wait.
    BackoffBilled {
        /// Simulated rounds spent waiting.
        rounds: u64,
    },
    /// A stalled request billed its wasted wait rounds.
    StallBilled {
        /// Simulated rounds lost to the stall.
        rounds: u64,
    },
    /// The abortion heuristic cut the current query short (§3.4).
    QueryAborted,
    /// A query finished (pages exhausted, aborted, or given up); one trace
    /// point is derived from the registry's counters at this instant.
    QueryCompleted,
    /// A query that failed entirely on transient errors was put back on the
    /// frontier.
    QueryRequeued {
        /// Crawler-vocabulary id of the requeued candidate.
        candidate: u32,
    },
    /// A periodic checkpoint was persisted: the journal was rebased onto it.
    CheckpointWritten {
        /// Whether the previous on-disk generation was rotated to `.bak`.
        rotated_backup: bool,
    },
    /// A periodic journal rebase failed (the crawl continues; the previous
    /// on-disk generation remains valid).
    CheckpointFailed,
    /// The crawl resumed from a checkpoint with these already-billed
    /// counters. Also emitted as a snapshot when a sink attaches to a crawl
    /// that already has history, so every stream is replayable from its
    /// first line.
    CrawlResumed {
        /// Page-request rounds already billed.
        rounds: u64,
        /// Queries already issued.
        queries: u64,
        /// Records already harvested.
        records: u64,
    },
    /// The crawl ended; carries the verdict a report needs.
    CrawlFinished {
        /// Why the crawl stopped.
        stop: StopReason,
        /// Final true coverage, when the target size was known.
        coverage: Option<f64>,
    },
    /// A fleet job's circuit breaker moved between phases.
    BreakerTransition {
        /// Fleet job index.
        job: u32,
        /// Phase before the transition.
        from: BreakerPhase,
        /// Phase after the transition.
        to: BreakerPhase,
    },
    /// A fleet worker was restarted from its last checkpoint after a panic.
    WorkerRestarted {
        /// Fleet job index.
        job: u32,
    },
    /// A fleet job was abandoned after exhausting its restart budget.
    JobAbandoned {
        /// Fleet job index.
        job: u32,
    },
    /// The fleet coordinator queued one budget slice for a job on the
    /// worker pool.
    SliceScheduled {
        /// Fleet job index.
        job: u32,
        /// Rounds granted for this slice.
        rounds: u64,
    },
    /// A pool worker finished executing a job's slice (without panicking).
    SliceCompleted {
        /// Fleet job index.
        job: u32,
        /// Pool worker that executed the slice.
        worker: u32,
        /// Elapsed rounds actually billed during the slice.
        rounds: u64,
        /// Tenant billed for the slice (`None` in a tenant-blind fleet).
        tenant: Option<u32>,
        /// The job's *cumulative* billed rounds after the slice. Carried so
        /// the usage fold stays exact (a per-job maximum) even when worker
        /// panics or restarts make slice deltas lossy.
        total: u64,
        /// The job's cumulative page-request rounds after the slice.
        pages: u64,
    },
    /// A job joined the fleet: at startup or on a post-panic restart.
    /// Carries the job's already-billed cumulative counters so a replayed
    /// stream seeds the same baselines the coordinator used.
    JobAttached {
        /// Fleet job index.
        job: u32,
        /// Tenant the job runs under (`None` in a tenant-blind fleet).
        tenant: Option<u32>,
        /// Rounds already billed to the job when it attached (non-zero when
        /// resuming from a checkpoint).
        rounds: u64,
        /// Page-request rounds already executed when it attached.
        pages: u64,
    },
    /// A job left the fleet: finalized or abandoned. Carries the job's final
    /// cumulative counters — the authoritative last word for the usage fold.
    JobDetached {
        /// Fleet job index.
        job: u32,
        /// Final cumulative rounds billed to the job.
        rounds: u64,
        /// Final cumulative page-request rounds.
        pages: u64,
    },
    /// The fleet parked one of a tenant's jobs at a slice boundary —
    /// round quota exhausted, or its breaker tripped open. Cooperative
    /// preemption: the in-flight slice always completes first.
    TenantPreempted {
        /// Tenant whose job was parked.
        tenant: u32,
        /// Fleet job index that was parked.
        job: u32,
    },
    /// The serving tier admitted one request into its bounded queue
    /// ([`crate::serve::SourceService`]).
    RequestEnqueued {
        /// Queue depth right after admission (this request included).
        depth: u32,
    },
    /// The serving tier rejected one request at admission: the bounded queue
    /// was full and the load was shed. The round is still billed
    /// (Definition 2.3 counts requests, not outcomes).
    RequestShed,
    /// An admitted request was cancelled at dequeue — its deadline expired
    /// while it waited, or its cancellation token fired. Billed like any
    /// other round.
    RequestCancelled,
    /// The serving tier finished processing an admitted request (whether the
    /// payload succeeded or carried a source error).
    RequestCompleted {
        /// Admission-to-reply wall latency in microseconds.
        latency_us: u64,
    },
    /// A wire frame was lost, truncated beyond use, or taken down with its
    /// link by the chaos layer ([`crate::chaos::ChaosPlan`]); the sender will
    /// retransmit. Dropped *request* frames never reached the service and
    /// bill nothing; dropped *reply* frames were already billed by whichever
    /// counter their request landed in.
    FrameDropped {
        /// Chaos-layer wire-frame index (1-based transmission count).
        frame: u64,
    },
    /// A retransmitted or duplicated request frame hit the service-side
    /// dedup window: the round is billed as a new request (Definition 2.3),
    /// but the cached outcome is served — the request is never executed
    /// twice.
    FrameRetransmitted {
        /// Idempotent request id shared by every transmission of the
        /// request.
        request: u64,
    },
    /// The client raced a hedge duplicate of a request whose reply exceeded
    /// the hedging threshold ([`crate::serve::ClientPool::with_hedging`]).
    Hedged {
        /// Idempotent request id the hedge duplicates.
        request: u64,
    },
    /// A service worker was killed mid-request and the service recovered:
    /// queue and billing state survive, the in-flight request is billed
    /// cancelled (crash before execution) or served from the dedup cache on
    /// retransmit (crash after execution).
    ServiceRestarted,
}

impl CrawlEvent {
    /// Encodes the event as one JSON object (no trailing newline), e.g.
    /// `{"event":"page_fetched","returned":10,"new":3}`.
    pub fn to_json(&self) -> String {
        match *self {
            CrawlEvent::QueryPlanned { candidate } => match candidate {
                Some(c) => format!("{{\"event\":\"query_planned\",\"candidate\":{c}}}"),
                None => "{\"event\":\"query_planned\"}".to_string(),
            },
            CrawlEvent::PageRequested => "{\"event\":\"page_requested\"}".to_string(),
            CrawlEvent::PageFetched { returned, new } => {
                format!("{{\"event\":\"page_fetched\",\"returned\":{returned},\"new\":{new}}}")
            }
            CrawlEvent::PageCacheHit => "{\"event\":\"page_cache_hit\"}".to_string(),
            CrawlEvent::TransientFailure { corrupt } => {
                format!("{{\"event\":\"transient_failure\",\"corrupt\":{corrupt}}}")
            }
            CrawlEvent::BackoffBilled { rounds } => {
                format!("{{\"event\":\"backoff_billed\",\"rounds\":{rounds}}}")
            }
            CrawlEvent::StallBilled { rounds } => {
                format!("{{\"event\":\"stall_billed\",\"rounds\":{rounds}}}")
            }
            CrawlEvent::QueryAborted => "{\"event\":\"query_aborted\"}".to_string(),
            CrawlEvent::QueryCompleted => "{\"event\":\"query_completed\"}".to_string(),
            CrawlEvent::QueryRequeued { candidate } => {
                format!("{{\"event\":\"query_requeued\",\"candidate\":{candidate}}}")
            }
            CrawlEvent::CheckpointWritten { rotated_backup } => {
                format!("{{\"event\":\"checkpoint_written\",\"rotated_backup\":{rotated_backup}}}")
            }
            CrawlEvent::CheckpointFailed => "{\"event\":\"checkpoint_failed\"}".to_string(),
            CrawlEvent::CrawlResumed { rounds, queries, records } => format!(
                "{{\"event\":\"crawl_resumed\",\"rounds\":{rounds},\"queries\":{queries},\
                 \"records\":{records}}}"
            ),
            CrawlEvent::CrawlFinished { stop, coverage } => match coverage {
                Some(cov) => format!(
                    "{{\"event\":\"crawl_finished\",\"stop\":\"{}\",\"coverage\":{cov}}}",
                    stop.as_str()
                ),
                None => {
                    format!("{{\"event\":\"crawl_finished\",\"stop\":\"{}\"}}", stop.as_str())
                }
            },
            CrawlEvent::BreakerTransition { job, from, to } => format!(
                "{{\"event\":\"breaker_transition\",\"job\":{job},\"from\":\"{}\",\"to\":\"{}\"}}",
                from.as_str(),
                to.as_str()
            ),
            CrawlEvent::WorkerRestarted { job } => {
                format!("{{\"event\":\"worker_restarted\",\"job\":{job}}}")
            }
            CrawlEvent::JobAbandoned { job } => {
                format!("{{\"event\":\"job_abandoned\",\"job\":{job}}}")
            }
            CrawlEvent::SliceScheduled { job, rounds } => {
                format!("{{\"event\":\"slice_scheduled\",\"job\":{job},\"rounds\":{rounds}}}")
            }
            CrawlEvent::SliceCompleted { job, worker, rounds, tenant, total, pages } => {
                let tenant = match tenant {
                    Some(t) => format!(",\"tenant\":{t}"),
                    None => String::new(),
                };
                format!(
                    "{{\"event\":\"slice_completed\",\"job\":{job},\"worker\":{worker},\
                     \"rounds\":{rounds}{tenant},\"total\":{total},\
                     \"pages\":{pages}}}"
                )
            }
            CrawlEvent::JobAttached { job, tenant, rounds, pages } => {
                let tenant = match tenant {
                    Some(t) => format!(",\"tenant\":{t}"),
                    None => String::new(),
                };
                format!(
                    "{{\"event\":\"job_attached\",\"job\":{job}{tenant},\"rounds\":{rounds},\
                     \"pages\":{pages}}}"
                )
            }
            CrawlEvent::JobDetached { job, rounds, pages } => format!(
                "{{\"event\":\"job_detached\",\"job\":{job},\"rounds\":{rounds},\
                 \"pages\":{pages}}}"
            ),
            CrawlEvent::TenantPreempted { tenant, job } => {
                format!("{{\"event\":\"tenant_preempted\",\"tenant\":{tenant},\"job\":{job}}}")
            }
            CrawlEvent::RequestEnqueued { depth } => {
                format!("{{\"event\":\"request_enqueued\",\"depth\":{depth}}}")
            }
            CrawlEvent::RequestShed => "{\"event\":\"request_shed\"}".to_string(),
            CrawlEvent::RequestCancelled => "{\"event\":\"request_cancelled\"}".to_string(),
            CrawlEvent::RequestCompleted { latency_us } => {
                format!("{{\"event\":\"request_completed\",\"latency_us\":{latency_us}}}")
            }
            CrawlEvent::FrameDropped { frame } => {
                format!("{{\"event\":\"frame_dropped\",\"frame\":{frame}}}")
            }
            CrawlEvent::FrameRetransmitted { request } => {
                format!("{{\"event\":\"frame_retransmitted\",\"request\":{request}}}")
            }
            CrawlEvent::Hedged { request } => {
                format!("{{\"event\":\"hedged\",\"request\":{request}}}")
            }
            CrawlEvent::ServiceRestarted => "{\"event\":\"service_restarted\"}".to_string(),
        }
    }

    /// Decodes one JSON object produced by [`CrawlEvent::to_json`]. Returns
    /// `None` on anything else — the parser understands exactly the flat
    /// single-object lines this module writes, not arbitrary JSON. A field
    /// that is present but does not fit its type (an id past `u32::MAX`,
    /// say) rejects the line; it is never wrapped or dropped.
    pub fn from_json(line: &str) -> Option<Self> {
        let kind = json_str(line, "event")?;
        Some(match kind {
            "query_planned" => CrawlEvent::QueryPlanned { candidate: json_opt(line, "candidate")? },
            "page_requested" => CrawlEvent::PageRequested,
            "page_fetched" => CrawlEvent::PageFetched {
                returned: json(line, "returned")?,
                new: json(line, "new")?,
            },
            "page_cache_hit" => CrawlEvent::PageCacheHit,
            "transient_failure" => CrawlEvent::TransientFailure { corrupt: json(line, "corrupt")? },
            "backoff_billed" => CrawlEvent::BackoffBilled { rounds: json(line, "rounds")? },
            "stall_billed" => CrawlEvent::StallBilled { rounds: json(line, "rounds")? },
            "query_aborted" => CrawlEvent::QueryAborted,
            "query_completed" => CrawlEvent::QueryCompleted,
            "query_requeued" => CrawlEvent::QueryRequeued { candidate: json(line, "candidate")? },
            "checkpoint_written" => {
                CrawlEvent::CheckpointWritten { rotated_backup: json(line, "rotated_backup")? }
            }
            "checkpoint_failed" => CrawlEvent::CheckpointFailed,
            "crawl_resumed" => CrawlEvent::CrawlResumed {
                rounds: json(line, "rounds")?,
                queries: json(line, "queries")?,
                records: json(line, "records")?,
            },
            "crawl_finished" => CrawlEvent::CrawlFinished {
                stop: StopReason::parse(json_str(line, "stop")?)?,
                coverage: json_opt(line, "coverage")?,
            },
            "breaker_transition" => CrawlEvent::BreakerTransition {
                job: json(line, "job")?,
                from: BreakerPhase::parse(json_str(line, "from")?)?,
                to: BreakerPhase::parse(json_str(line, "to")?)?,
            },
            "worker_restarted" => CrawlEvent::WorkerRestarted { job: json(line, "job")? },
            "job_abandoned" => CrawlEvent::JobAbandoned { job: json(line, "job")? },
            "slice_scheduled" => CrawlEvent::SliceScheduled {
                job: json(line, "job")?,
                rounds: json(line, "rounds")?,
            },
            "slice_completed" => CrawlEvent::SliceCompleted {
                job: json(line, "job")?,
                worker: json(line, "worker")?,
                rounds: json(line, "rounds")?,
                tenant: json_opt(line, "tenant")?,
                total: json(line, "total")?,
                pages: json(line, "pages")?,
            },
            "job_attached" => CrawlEvent::JobAttached {
                job: json(line, "job")?,
                tenant: json_opt(line, "tenant")?,
                rounds: json(line, "rounds")?,
                pages: json(line, "pages")?,
            },
            "job_detached" => CrawlEvent::JobDetached {
                job: json(line, "job")?,
                rounds: json(line, "rounds")?,
                pages: json(line, "pages")?,
            },
            "tenant_preempted" => CrawlEvent::TenantPreempted {
                tenant: json(line, "tenant")?,
                job: json(line, "job")?,
            },
            "request_enqueued" => CrawlEvent::RequestEnqueued { depth: json(line, "depth")? },
            "request_shed" => CrawlEvent::RequestShed,
            "request_cancelled" => CrawlEvent::RequestCancelled,
            "request_completed" => {
                CrawlEvent::RequestCompleted { latency_us: json(line, "latency_us")? }
            }
            "frame_dropped" => CrawlEvent::FrameDropped { frame: json(line, "frame")? },
            "frame_retransmitted" => {
                CrawlEvent::FrameRetransmitted { request: json(line, "request")? }
            }
            "hedged" => CrawlEvent::Hedged { request: json(line, "request")? },
            "service_restarted" => CrawlEvent::ServiceRestarted,
            _ => return None,
        })
    }
}

/// Finds the raw value text after `"key":` in a flat JSON object. String
/// values in our encoding are bare identifiers (no escapes), so scanning to
/// the next `,`/`}`/closing quote is exact.
fn json_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    json_raw(line, key)?.strip_prefix('"')?.strip_suffix('"')
}

/// A required number or boolean field, parsed as its own type: a `u32`
/// field past `u32::MAX` is `None`, not a wrapped id.
fn json<T: FromStr>(line: &str, key: &str) -> Option<T> {
    json_raw(line, key)?.parse().ok()
}

/// An optional field: `Some(None)` when the key is absent, `None` when it
/// is present but does not parse as `T`.
fn json_opt<T: FromStr>(line: &str, key: &str) -> Option<Option<T>> {
    json_raw(line, key).map_or(Some(None), |raw| raw.parse().ok().map(Some))
}

/// A consumer of crawl events. Sinks must keep up — emission is synchronous
/// on the crawl path — and must never panic the crawl over analytics.
pub trait EventSink: Send {
    /// Consumes one event.
    fn emit(&mut self, event: &CrawlEvent);
}

/// The per-crawl event bus: the metrics registry (always first, the source
/// of truth) plus any number of streaming sinks.
#[derive(Default)]
pub struct EventBus {
    metrics: crate::metrics::MetricsRegistry,
    sinks: Vec<Box<dyn EventSink>>,
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("metrics", &self.metrics)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl EventBus {
    /// A bus with a fresh registry and no streaming sinks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes one event: records it in the registry, then forwards it to
    /// every attached sink.
    pub fn emit(&mut self, event: CrawlEvent) {
        self.metrics.record(&event);
        for sink in &mut self.sinks {
            sink.emit(&event);
        }
    }

    /// Attaches a streaming sink. If the crawl already has history (a
    /// resumed or mid-flight crawl), the sink first receives a
    /// [`CrawlEvent::CrawlResumed`] snapshot so its stream replays to the
    /// same totals as the registry.
    pub fn add_sink(&mut self, mut sink: Box<dyn EventSink>) {
        if let Some(snapshot) = self.metrics.snapshot_event() {
            sink.emit(&snapshot);
        }
        self.sinks.push(sink);
    }

    /// Read access to the registry — the single source of truth for every
    /// counter a report surfaces.
    pub fn metrics(&self) -> &crate::metrics::MetricsRegistry {
        &self.metrics
    }
}

/// A sink that writes one JSON line per event (the `dwc crawl --events`
/// stream). Write errors are counted, not propagated: analytics must never
/// kill a crawl.
pub struct JsonlSink<W: Write + Send> {
    writer: W,
    write_errors: u64,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer. Consider a `BufWriter` for file targets.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, write_errors: 0 }
    }

    /// Write errors swallowed so far.
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&mut self, event: &CrawlEvent) {
        if writeln!(self.writer, "{}", event.to_json()).is_err() {
            self.write_errors += 1;
        }
    }
}

/// A sink buffering events in a shared vector (test and tooling harnesses
/// read the buffer after the crawl consumed the crawler).
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<CrawlEvent>>>,
}

impl MemorySink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle to the shared buffer; clones observe the same stream.
    pub fn events(&self) -> Arc<Mutex<Vec<CrawlEvent>>> {
        Arc::clone(&self.events)
    }

    /// Copies the buffered events out.
    pub fn collected(&self) -> Vec<CrawlEvent> {
        self.events.lock().expect("event buffer poisoned").clone()
    }
}

impl EventSink for MemorySink {
    fn emit(&mut self, event: &CrawlEvent) {
        self.events.lock().expect("event buffer poisoned").push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<CrawlEvent> {
        vec![
            CrawlEvent::QueryPlanned { candidate: Some(7) },
            CrawlEvent::QueryPlanned { candidate: None },
            CrawlEvent::PageRequested,
            CrawlEvent::PageFetched { returned: 10, new: 3 },
            CrawlEvent::PageCacheHit,
            CrawlEvent::TransientFailure { corrupt: true },
            CrawlEvent::TransientFailure { corrupt: false },
            CrawlEvent::BackoffBilled { rounds: 4 },
            CrawlEvent::StallBilled { rounds: 9 },
            CrawlEvent::QueryAborted,
            CrawlEvent::QueryCompleted,
            CrawlEvent::QueryRequeued { candidate: 12 },
            CrawlEvent::CheckpointWritten { rotated_backup: true },
            CrawlEvent::CheckpointFailed,
            CrawlEvent::CrawlResumed { rounds: 100, queries: 5, records: 42 },
            CrawlEvent::CrawlFinished { stop: StopReason::RoundBudget, coverage: Some(0.75) },
            CrawlEvent::CrawlFinished { stop: StopReason::FrontierExhausted, coverage: None },
            CrawlEvent::CrawlFinished { stop: StopReason::QuotaExhausted, coverage: None },
            CrawlEvent::BreakerTransition {
                job: 2,
                from: BreakerPhase::HalfOpen,
                to: BreakerPhase::Closed,
            },
            CrawlEvent::WorkerRestarted { job: 1 },
            CrawlEvent::JobAbandoned { job: 0 },
            CrawlEvent::SliceScheduled { job: 3, rounds: 250 },
            CrawlEvent::SliceCompleted {
                job: 3,
                worker: 1,
                rounds: 248,
                tenant: Some(2),
                total: 500,
                pages: 480,
            },
            CrawlEvent::SliceCompleted {
                job: 0,
                worker: 0,
                rounds: 10,
                tenant: None,
                total: 10,
                pages: 9,
            },
            CrawlEvent::JobAttached { job: 4, tenant: Some(1), rounds: 120, pages: 110 },
            CrawlEvent::JobAttached { job: 5, tenant: None, rounds: 0, pages: 0 },
            CrawlEvent::JobDetached { job: 4, rounds: 300, pages: 280 },
            CrawlEvent::TenantPreempted { tenant: 1, job: 4 },
            CrawlEvent::RequestEnqueued { depth: 5 },
            CrawlEvent::RequestShed,
            CrawlEvent::RequestCancelled,
            CrawlEvent::RequestCompleted { latency_us: 1_250 },
            CrawlEvent::FrameDropped { frame: 17 },
            CrawlEvent::FrameRetransmitted { request: 42 },
            CrawlEvent::Hedged { request: 42 },
            CrawlEvent::ServiceRestarted,
        ]
    }

    #[test]
    fn json_roundtrips_every_variant() {
        for ev in all_variants() {
            let line = ev.to_json();
            let back =
                CrawlEvent::from_json(&line).unwrap_or_else(|| panic!("unparseable line {line:?}"));
            assert_eq!(back, ev, "round-trip through {line:?}");
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert_eq!(CrawlEvent::from_json(""), None);
        assert_eq!(CrawlEvent::from_json("{\"event\":\"warp_drive\"}"), None);
        assert_eq!(CrawlEvent::from_json("{\"event\":\"page_fetched\"}"), None, "missing fields");
        assert_eq!(CrawlEvent::from_json("not json at all"), None);
    }

    #[test]
    fn out_of_range_ids_are_rejected_not_wrapped() {
        let wrapped = 1u64 << 32 | 1;
        for line in [
            format!("{{\"event\":\"job_abandoned\",\"job\":{wrapped}}}"),
            format!("{{\"event\":\"query_planned\",\"candidate\":{wrapped}}}"),
            format!("{{\"event\":\"query_requeued\",\"candidate\":{wrapped}}}"),
            format!("{{\"event\":\"request_enqueued\",\"depth\":{wrapped}}}"),
            format!("{{\"event\":\"tenant_preempted\",\"tenant\":{wrapped},\"job\":1}}"),
            format!(
                "{{\"event\":\"slice_completed\",\"job\":0,\"worker\":{wrapped},\
                 \"rounds\":1,\"total\":1,\"pages\":1}}"
            ),
            format!(
                "{{\"event\":\"job_attached\",\"job\":0,\"tenant\":{wrapped},\"rounds\":0,\
                 \"pages\":0}}"
            ),
        ] {
            assert_eq!(CrawlEvent::from_json(&line), None, "{line}");
        }
        let max = CrawlEvent::JobAbandoned { job: u32::MAX };
        assert_eq!(CrawlEvent::from_json(&max.to_json()), Some(max));
    }

    /// Every truncation, and every single-bit flip that stays UTF-8, of
    /// every variant's line decodes to nothing or to an event that
    /// round-trips, and never panics.
    #[test]
    fn damaged_lines_decode_to_none_or_a_round_tripping_event() {
        let check = |text: &str| {
            if let Some(ev) = CrawlEvent::from_json(text) {
                assert_eq!(CrawlEvent::from_json(&ev.to_json()), Some(ev), "from {text:?}");
            }
        };
        for ev in all_variants() {
            let line = ev.to_json();
            for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
                check(&line[..cut]);
            }
            let mut bytes = line.into_bytes();
            for bit in 0..bytes.len() * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    check(text);
                }
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn key_lookup_is_not_fooled_by_suffix_keys() {
        // "rounds" must not match inside another key that ends in `rounds`.
        let line = "{\"event\":\"stall_billed\",\"xrounds\":7,\"rounds\":3}";
        assert_eq!(CrawlEvent::from_json(line), Some(CrawlEvent::StallBilled { rounds: 3 }));
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&CrawlEvent::PageRequested);
        sink.emit(&CrawlEvent::QueryCompleted);
        assert_eq!(sink.write_errors(), 0);
        let text = String::from_utf8(sink.writer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(CrawlEvent::from_json(lines[0]), Some(CrawlEvent::PageRequested));
    }

    #[test]
    fn memory_sink_shares_its_buffer() {
        let sink = MemorySink::new();
        let handle = sink.events();
        let mut boxed: Box<dyn EventSink> = Box::new(sink.clone());
        boxed.emit(&CrawlEvent::QueryAborted);
        assert_eq!(handle.lock().unwrap().as_slice(), &[CrawlEvent::QueryAborted]);
        assert_eq!(sink.collected(), vec![CrawlEvent::QueryAborted]);
    }
}
