//! The metrics registry: the single source of truth behind every report.
//!
//! A [`MetricsRegistry`] is an [`EventSink`] that
//! folds the [`CrawlEvent`] stream into counters, the
//! [`CrawlTrace`], and the final verdict. Nothing else in the engine keeps
//! tallies: [`CrawlReport`], `FleetReport::health` and the trace are all
//! *derived* from a registry, so a figure in a report is — by construction —
//! a fold over events that actually happened. [`replay_report`] runs the
//! same fold over a recorded stream (e.g. a `dwc crawl --events` JSONL
//! file), rebuilding the exact report the original crawl returned.

use crate::events::{BreakerPhase, CrawlEvent, EventSink, StopReason};
use crate::tenant::UsageLedger;
use crate::trace::{CrawlTrace, TracePoint};
use std::collections::BTreeMap;

/// Summary of a finished crawl.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlReport {
    /// Queries issued.
    pub queries: u64,
    /// Page requests issued (including failed attempts). Matches the
    /// source-side request count attributable to this crawler.
    pub rounds: u64,
    /// Simulated rounds spent waiting in retry backoff.
    pub backoff_rounds: u64,
    /// Simulated rounds lost to source-side latency stalls.
    pub stall_rounds: u64,
    /// Records harvested into `DB_local`.
    pub records: u64,
    /// Queries cut short by the abortion heuristics.
    pub aborted_queries: u64,
    /// Transient failures encountered (and retried).
    pub transient_failures: u64,
    /// Pages that arrived truncated or otherwise corrupt (subset of
    /// `transient_failures`).
    pub corrupt_pages: u64,
    /// Attempts put back on the frontier after failing entirely on
    /// transient-class errors.
    pub requeued_queries: u64,
    /// Pages the source served from its render cache (overlapping fleet
    /// workers re-requesting the same `(query, page)`); each such round was
    /// still billed per Definition 2.3.
    pub page_cache_hits: u64,
    /// Periodic checkpoints persisted during the crawl.
    pub checkpoints_written: u64,
    /// Periodic checkpoint saves that failed (the crawl continues; the
    /// previous on-disk generation remains valid).
    pub checkpoint_failures: u64,
    /// Why the crawl stopped.
    pub stop: StopReason,
    /// Per-query progress trace.
    pub trace: CrawlTrace,
    /// Final true coverage, when the target size was known.
    pub final_coverage: Option<f64>,
}

impl CrawlReport {
    /// Total rounds billed against budgets: requests plus backoff waits
    /// plus stall waits.
    pub fn elapsed_rounds(&self) -> u64 {
        self.rounds + self.backoff_rounds + self.stall_rounds
    }
}

/// Folds a [`CrawlEvent`] stream into every figure a report surfaces.
///
/// One registry backs one crawl (or, fleet-side, one job's supervision
/// stream). It is `Clone` so supervisors can snapshot it across worker
/// restarts.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    rounds: u64,
    backoff_rounds: u64,
    stall_rounds: u64,
    queries: u64,
    records: u64,
    aborted_queries: u64,
    transient_failures: u64,
    corrupt_pages: u64,
    requeued_queries: u64,
    page_cache_hits: u64,
    checkpoints_written: u64,
    checkpoint_failures: u64,
    fault_streak: u32,
    breaker_trips: u64,
    breaker_recoveries: u64,
    worker_restarts: u32,
    abandoned: bool,
    slices_scheduled: u64,
    slices_completed: u64,
    rounds_granted: u64,
    rounds_executed: u64,
    per_worker_slices: Vec<u64>,
    requests_enqueued: u64,
    requests_shed: u64,
    requests_cancelled: u64,
    requests_completed: u64,
    frames_dropped: u64,
    frames_retransmitted: u64,
    hedged_requests: u64,
    service_restarts: u64,
    queue_depth_sum: u64,
    queue_depth_max: u32,
    latency_max_us: u64,
    /// Log2-bucketed completion latencies: bucket 0 holds `0 µs`, bucket
    /// `i ≥ 1` holds `[2^(i−1), 2^i)` µs. Allocated on first use so crawls
    /// that never cross a service boundary pay nothing.
    latency_buckets: Vec<u64>,
    /// Tenant each fleet job runs under (tenanted jobs only), learned from
    /// `JobAttached` / `SliceCompleted` tags.
    job_tenant: BTreeMap<u32, u32>,
    /// Per-job cumulative billed rounds, folded as a running *maximum* over
    /// the `rounds`/`total` fields of `JobAttached` / `SliceCompleted` /
    /// `JobDetached`. Maxima (not slice-delta sums) keep the fold exact
    /// under worker panics, restarts, and checkpoint resumes.
    job_rounds: BTreeMap<u32, u64>,
    /// Per-job cumulative page-request rounds, folded like `job_rounds`.
    job_pages: BTreeMap<u32, u64>,
    /// Per-tenant preemption event counts.
    tenant_preempted: BTreeMap<u32, u64>,
    trace: CrawlTrace,
    stop: Option<StopReason>,
    final_coverage: Option<f64>,
}

/// Folds `value` into `map[key]` as a running maximum.
fn max_fold(map: &mut BTreeMap<u32, u64>, key: u32, value: u64) {
    let slot = map.entry(key).or_insert(0);
    *slot = (*slot).max(value);
}

/// Log2 bucket index for a microsecond latency (0 → bucket 0).
fn latency_bucket(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        64 - us.leading_zeros() as usize
    }
}

/// Upper bound (representative value) of a log2 latency bucket — the
/// pessimistic edge, which is the honest way to quote a tail percentile
/// from a histogram.
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

impl MetricsRegistry {
    /// A registry with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event into the registry. This is the *only* place any
    /// crawl counter changes.
    pub fn record(&mut self, event: &CrawlEvent) {
        match *event {
            CrawlEvent::QueryPlanned { .. } => {}
            CrawlEvent::PageRequested => self.rounds += 1,
            CrawlEvent::PageFetched { new, .. } => {
                self.records += new;
                self.fault_streak = 0;
            }
            CrawlEvent::TransientFailure { corrupt } => {
                self.transient_failures += 1;
                self.corrupt_pages += u64::from(corrupt);
                self.fault_streak = self.fault_streak.saturating_add(1);
            }
            CrawlEvent::BackoffBilled { rounds } => self.backoff_rounds += rounds,
            CrawlEvent::StallBilled { rounds } => self.stall_rounds += rounds,
            CrawlEvent::QueryAborted => self.aborted_queries += 1,
            CrawlEvent::QueryCompleted => {
                self.queries += 1;
                self.trace.push(TracePoint {
                    rounds: self.rounds,
                    queries: self.queries,
                    records: self.records,
                });
            }
            CrawlEvent::PageCacheHit => self.page_cache_hits += 1,
            CrawlEvent::QueryRequeued { .. } => self.requeued_queries += 1,
            CrawlEvent::CheckpointWritten { .. } => self.checkpoints_written += 1,
            CrawlEvent::CheckpointFailed => self.checkpoint_failures += 1,
            CrawlEvent::CrawlResumed { rounds, queries, records } => {
                self.rounds = rounds;
                self.queries = queries;
                self.records = records;
                self.trace.push(TracePoint { rounds, queries, records });
            }
            CrawlEvent::CrawlFinished { stop, coverage } => {
                self.stop = Some(stop);
                self.final_coverage = coverage;
            }
            CrawlEvent::BreakerTransition { from, to, .. } => {
                if to == BreakerPhase::Open {
                    self.breaker_trips += 1;
                }
                if from == BreakerPhase::HalfOpen && to == BreakerPhase::Closed {
                    self.breaker_recoveries += 1;
                }
            }
            CrawlEvent::WorkerRestarted { .. } => {
                self.worker_restarts = self.worker_restarts.saturating_add(1);
            }
            CrawlEvent::JobAbandoned { .. } => self.abandoned = true,
            CrawlEvent::SliceScheduled { rounds, .. } => {
                self.slices_scheduled += 1;
                self.rounds_granted += rounds;
            }
            CrawlEvent::SliceCompleted { job, worker, rounds, tenant, total, pages } => {
                self.slices_completed += 1;
                self.rounds_executed += rounds;
                let idx = worker as usize;
                if self.per_worker_slices.len() <= idx {
                    self.per_worker_slices.resize(idx + 1, 0);
                }
                self.per_worker_slices[idx] += 1;
                if let Some(t) = tenant {
                    self.job_tenant.insert(job, t);
                    max_fold(&mut self.job_rounds, job, total);
                    max_fold(&mut self.job_pages, job, pages);
                }
            }
            CrawlEvent::JobAttached { job, tenant, rounds, pages } => {
                if let Some(t) = tenant {
                    self.job_tenant.insert(job, t);
                    max_fold(&mut self.job_rounds, job, rounds);
                    max_fold(&mut self.job_pages, job, pages);
                }
            }
            CrawlEvent::JobDetached { job, rounds, pages } => {
                if self.job_tenant.contains_key(&job) {
                    max_fold(&mut self.job_rounds, job, rounds);
                    max_fold(&mut self.job_pages, job, pages);
                }
            }
            CrawlEvent::TenantPreempted { tenant, .. } => {
                *self.tenant_preempted.entry(tenant).or_insert(0) += 1;
            }
            CrawlEvent::RequestEnqueued { depth } => {
                self.requests_enqueued += 1;
                self.queue_depth_sum += u64::from(depth);
                self.queue_depth_max = self.queue_depth_max.max(depth);
            }
            CrawlEvent::RequestShed => self.requests_shed += 1,
            CrawlEvent::RequestCancelled => self.requests_cancelled += 1,
            CrawlEvent::RequestCompleted { latency_us } => {
                self.requests_completed += 1;
                self.latency_max_us = self.latency_max_us.max(latency_us);
                if self.latency_buckets.is_empty() {
                    self.latency_buckets = vec![0; 65];
                }
                self.latency_buckets[latency_bucket(latency_us)] += 1;
            }
            CrawlEvent::FrameDropped { .. } => self.frames_dropped += 1,
            CrawlEvent::FrameRetransmitted { .. } => self.frames_retransmitted += 1,
            CrawlEvent::Hedged { .. } => self.hedged_requests += 1,
            CrawlEvent::ServiceRestarted => self.service_restarts += 1,
        }
    }

    /// Page requests billed so far (including failed attempts).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Simulated rounds spent waiting in retry backoff so far.
    pub fn backoff_rounds(&self) -> u64 {
        self.backoff_rounds
    }

    /// Simulated rounds lost to source-side latency stalls so far.
    pub fn stall_rounds(&self) -> u64 {
        self.stall_rounds
    }

    /// Rounds billed against budgets: requests plus backoff waits plus
    /// stall waits (Definition 2.3 bills time, not just served pages).
    pub fn elapsed_rounds(&self) -> u64 {
        self.rounds + self.backoff_rounds + self.stall_rounds
    }

    /// Queries completed so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Records harvested so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Consecutive transient-class failures since the last intact page.
    /// Supervisors sample this at slice boundaries to drive per-source
    /// circuit breakers.
    pub fn fault_streak(&self) -> u32 {
        self.fault_streak
    }

    /// Pages served from the source's render cache so far.
    pub fn page_cache_hits(&self) -> u64 {
        self.page_cache_hits
    }

    /// Periodic checkpoints persisted so far.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// Worker restarts observed so far (fleet supervision stream).
    pub fn worker_restarts(&self) -> u32 {
        self.worker_restarts
    }

    /// The per-query progress trace.
    pub fn trace(&self) -> &CrawlTrace {
        &self.trace
    }

    /// A [`CrawlEvent::CrawlResumed`] snapshot carrying this registry's
    /// resumable counters, or `None` when nothing has happened yet. Sinks
    /// attached mid-crawl receive this first so their streams replay to the
    /// same totals.
    pub fn snapshot_event(&self) -> Option<CrawlEvent> {
        if self.rounds == 0 && self.queries == 0 && self.records == 0 {
            return None;
        }
        Some(CrawlEvent::CrawlResumed {
            rounds: self.rounds,
            queries: self.queries,
            records: self.records,
        })
    }

    /// Derives the final [`CrawlReport`]. `None` until a
    /// [`CrawlEvent::CrawlFinished`] has been recorded — a report needs a
    /// verdict.
    pub fn report(&self) -> Option<CrawlReport> {
        Some(CrawlReport {
            queries: self.queries,
            rounds: self.rounds,
            backoff_rounds: self.backoff_rounds,
            stall_rounds: self.stall_rounds,
            records: self.records,
            aborted_queries: self.aborted_queries,
            transient_failures: self.transient_failures,
            corrupt_pages: self.corrupt_pages,
            requeued_queries: self.requeued_queries,
            page_cache_hits: self.page_cache_hits,
            checkpoints_written: self.checkpoints_written,
            checkpoint_failures: self.checkpoint_failures,
            stop: self.stop?,
            trace: self.trace.clone(),
            final_coverage: self.final_coverage,
        })
    }

    /// Derives a fleet job's [`crate::health::JobHealth`] from the
    /// supervision events recorded here.
    pub fn job_health(&self) -> crate::health::JobHealth {
        crate::health::JobHealth {
            breaker_trips: self.breaker_trips,
            breaker_recoveries: self.breaker_recoveries,
            worker_restarts: self.worker_restarts,
            abandoned: self.abandoned,
        }
    }

    /// Derives the scheduler section of a fleet report from the
    /// [`CrawlEvent::SliceScheduled`] / [`CrawlEvent::SliceCompleted`]
    /// stream recorded here. `workers` reports the worker count the fleet
    /// resolved to (the event stream alone can only prove which workers
    /// completed at least one slice, so the count is supplied by the
    /// caller); `per_worker_slices` is padded out to that size.
    pub fn scheduler_stats(&self, workers: u32) -> crate::sched::SchedulerStats {
        let mut per_worker_slices = self.per_worker_slices.clone();
        if per_worker_slices.len() < workers as usize {
            per_worker_slices.resize(workers as usize, 0);
        }
        crate::sched::SchedulerStats {
            workers,
            slices_scheduled: self.slices_scheduled,
            slices_completed: self.slices_completed,
            rounds_granted: self.rounds_granted,
            rounds_executed: self.rounds_executed,
            steals: 0,
            per_worker_slices,
        }
    }

    /// Derives the per-tenant [`UsageLedger`]s from the tenant-tagged
    /// events recorded here, sorted by tenant id. Empty for a tenant-blind
    /// stream.
    ///
    /// A tenant's `rounds`/`pages` are the sums of its jobs' cumulative
    /// maxima (see the field docs), so — because the fleet coordinator
    /// bills budgets from the same per-job maxima — the `rounds` of all
    /// ledgers in a fully-tenanted fleet sum *exactly* to
    /// `FleetReport::total_rounds`, faults and restarts included.
    pub fn usage_ledgers(&self) -> Vec<(u32, UsageLedger)> {
        let mut ids: std::collections::BTreeSet<u32> = self.job_tenant.values().copied().collect();
        ids.extend(self.tenant_preempted.keys().copied());
        ids.into_iter()
            .map(|t| {
                let mut ledger = UsageLedger {
                    preempted: self.tenant_preempted.get(&t).copied().unwrap_or(0),
                    ..UsageLedger::default()
                };
                for (&job, &tenant) in &self.job_tenant {
                    if tenant == t {
                        ledger.rounds += self.job_rounds.get(&job).copied().unwrap_or(0);
                        ledger.pages += self.job_pages.get(&job).copied().unwrap_or(0);
                    }
                }
                (t, ledger)
            })
            .collect()
    }

    /// Nearest-rank percentile over the log2 latency histogram: the upper
    /// bound of the bucket containing the `⌈q·n⌉`-th smallest completion.
    fn latency_percentile(&self, q: f64) -> u64 {
        if self.requests_completed == 0 {
            return 0;
        }
        let rank = ((q * self.requests_completed as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &count) in self.latency_buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // The top bucket's upper bound is unbounded; quote the
                // largest latency actually observed instead.
                return bucket_upper_bound(idx).min(self.latency_max_us);
            }
        }
        self.latency_max_us
    }

    /// Derives the serving-tier section of a report from the
    /// [`CrawlEvent::RequestEnqueued`] / `RequestShed` / `RequestCancelled` /
    /// `RequestCompleted` stream recorded here. All-zero when the crawl never
    /// crossed a service boundary.
    pub fn service_report(&self) -> crate::serve::ServiceReport {
        let enq = self.requests_enqueued;
        crate::serve::ServiceReport {
            enqueued: enq,
            completed: self.requests_completed,
            shed: self.requests_shed,
            cancelled: self.requests_cancelled,
            max_queue_depth: self.queue_depth_max,
            mean_queue_depth: if enq == 0 { 0.0 } else { self.queue_depth_sum as f64 / enq as f64 },
            p50_latency_us: self.latency_percentile(0.50),
            p95_latency_us: self.latency_percentile(0.95),
            p99_latency_us: self.latency_percentile(0.99),
            max_latency_us: self.latency_max_us,
            frames_dropped: self.frames_dropped,
            retransmitted: self.frames_retransmitted,
            hedged: self.hedged_requests,
            restarts: self.service_restarts,
        }
    }
}

impl EventSink for MetricsRegistry {
    fn emit(&mut self, event: &CrawlEvent) {
        self.record(event);
    }
}

/// Replays a recorded event stream through a fresh registry and derives the
/// report. Returns `None` when the stream has no
/// [`CrawlEvent::CrawlFinished`] (an unfinished or truncated stream).
///
/// For any stream recorded by a sink attached before the crawl's first
/// event, the result is identical to the report the crawl itself returned.
pub fn replay_report<'a, I: IntoIterator<Item = &'a CrawlEvent>>(events: I) -> Option<CrawlReport> {
    let mut registry = MetricsRegistry::new();
    for event in events {
        registry.record(event);
    }
    registry.report()
}

/// Replays a recorded stream through a fresh registry and derives its
/// per-tenant usage ledgers — the same fold the fleet runs live, so
/// `replay_usage(&report.events)` reproduces `FleetReport::usage`
/// bit-for-bit for any fleet run.
pub fn replay_usage<'a, I: IntoIterator<Item = &'a CrawlEvent>>(
    events: I,
) -> Vec<(u32, UsageLedger)> {
    let mut registry = MetricsRegistry::new();
    for event in events {
        registry.record(event);
    }
    registry.usage_ledgers()
}

/// Replays a recorded stream through a fresh registry and derives its
/// serving-tier report — the same fold [`crate::serve::SourceService`] runs
/// live, so `replay_service_report(recorded) == service.service_report()`
/// for any stream captured by a sink attached before the first request.
pub fn replay_service_report<'a, I: IntoIterator<Item = &'a CrawlEvent>>(
    events: I,
) -> crate::serve::ServiceReport {
    let mut registry = MetricsRegistry::new();
    for event in events {
        registry.record(event);
    }
    registry.service_report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_folds_the_cost_model() {
        let mut m = MetricsRegistry::new();
        for ev in [
            CrawlEvent::PageRequested,
            CrawlEvent::TransientFailure { corrupt: false },
            CrawlEvent::BackoffBilled { rounds: 2 },
            CrawlEvent::PageRequested,
            CrawlEvent::TransientFailure { corrupt: true },
            CrawlEvent::StallBilled { rounds: 5 },
            CrawlEvent::PageRequested,
            CrawlEvent::PageFetched { returned: 10, new: 7 },
            CrawlEvent::QueryCompleted,
        ] {
            m.record(&ev);
        }
        assert_eq!(m.rounds(), 3);
        assert_eq!(m.backoff_rounds(), 2);
        assert_eq!(m.stall_rounds(), 5);
        assert_eq!(m.elapsed_rounds(), 10);
        assert_eq!(m.records(), 7);
        assert_eq!(m.queries(), 1);
        assert_eq!(m.fault_streak(), 0, "an intact page resets the streak");
        let r = m.report();
        assert!(r.is_none(), "no CrawlFinished yet");
        m.record(&CrawlEvent::CrawlFinished {
            stop: StopReason::FrontierExhausted,
            coverage: Some(1.0),
        });
        let r = m.report().unwrap();
        assert_eq!(r.transient_failures, 2);
        assert_eq!(r.corrupt_pages, 1);
        assert_eq!(r.elapsed_rounds(), 10);
        assert_eq!(r.trace.points(), &[TracePoint { rounds: 3, queries: 1, records: 7 }]);
    }

    #[test]
    fn fault_streak_counts_consecutive_failures() {
        let mut m = MetricsRegistry::new();
        m.record(&CrawlEvent::TransientFailure { corrupt: false });
        m.record(&CrawlEvent::TransientFailure { corrupt: false });
        assert_eq!(m.fault_streak(), 2);
        m.record(&CrawlEvent::PageFetched { returned: 1, new: 1 });
        assert_eq!(m.fault_streak(), 0);
    }

    #[test]
    fn resume_seeds_counters_and_trace() {
        let mut m = MetricsRegistry::new();
        m.record(&CrawlEvent::CrawlResumed { rounds: 40, queries: 3, records: 25 });
        assert_eq!(m.rounds(), 40);
        assert_eq!(m.queries(), 3);
        assert_eq!(m.records(), 25);
        assert_eq!(m.trace().points().len(), 1, "resume contributes the initial trace point");
        assert_eq!(
            m.snapshot_event(),
            Some(CrawlEvent::CrawlResumed { rounds: 40, queries: 3, records: 25 })
        );
        assert_eq!(MetricsRegistry::new().snapshot_event(), None);
    }

    #[test]
    fn breaker_transitions_fold_into_job_health() {
        let mut m = MetricsRegistry::new();
        let trip = CrawlEvent::BreakerTransition {
            job: 0,
            from: BreakerPhase::Closed,
            to: BreakerPhase::Open,
        };
        let probe = CrawlEvent::BreakerTransition {
            job: 0,
            from: BreakerPhase::Open,
            to: BreakerPhase::HalfOpen,
        };
        let recover = CrawlEvent::BreakerTransition {
            job: 0,
            from: BreakerPhase::HalfOpen,
            to: BreakerPhase::Closed,
        };
        let retrip = CrawlEvent::BreakerTransition {
            job: 0,
            from: BreakerPhase::HalfOpen,
            to: BreakerPhase::Open,
        };
        for ev in
            [trip, probe, recover, trip, probe, retrip, CrawlEvent::WorkerRestarted { job: 0 }]
        {
            m.record(&ev);
        }
        let h = m.job_health();
        assert_eq!(h.breaker_trips, 3, "every entry into Open is a trip");
        assert_eq!(h.breaker_recoveries, 1, "only HalfOpen→Closed recovers");
        assert_eq!(h.worker_restarts, 1);
        assert!(!h.abandoned);
        m.record(&CrawlEvent::JobAbandoned { job: 0 });
        assert!(m.job_health().abandoned);
    }

    #[test]
    fn scheduler_events_fold_into_stats() {
        let mut m = MetricsRegistry::new();
        for ev in [
            CrawlEvent::SliceScheduled { job: 0, rounds: 100 },
            CrawlEvent::SliceScheduled { job: 1, rounds: 50 },
            CrawlEvent::SliceCompleted {
                job: 0,
                worker: 2,
                rounds: 97,
                tenant: None,
                total: 97,
                pages: 95,
            },
            CrawlEvent::SliceCompleted {
                job: 1,
                worker: 0,
                rounds: 50,
                tenant: None,
                total: 50,
                pages: 50,
            },
        ] {
            m.record(&ev);
        }
        let s = m.scheduler_stats(4);
        assert_eq!(s.workers, 4);
        assert_eq!(s.slices_scheduled, 2);
        assert_eq!(s.slices_completed, 2);
        assert_eq!(s.rounds_granted, 150);
        assert_eq!(s.rounds_executed, 147);
        assert_eq!(s.steals, 0, "one shared queue: nothing is ever stolen");
        assert_eq!(s.per_worker_slices, vec![1, 0, 1, 0], "padded to the worker count");
    }

    #[test]
    fn tenant_events_fold_into_usage_ledgers() {
        let mut m = MetricsRegistry::new();
        assert!(m.usage_ledgers().is_empty(), "tenant-blind streams report no usage");
        let events = [
            // Job 0 (tenant 1) resumes from a checkpoint with 40 rounds billed.
            CrawlEvent::JobAttached { job: 0, tenant: Some(1), rounds: 40, pages: 38 },
            CrawlEvent::JobAttached { job: 1, tenant: Some(2), rounds: 0, pages: 0 },
            CrawlEvent::SliceCompleted {
                job: 0,
                worker: 0,
                rounds: 10,
                tenant: Some(1),
                total: 50,
                pages: 47,
            },
            // A panic + restart replays job 1's slice: the re-attach carries
            // the checkpointed totals, so the max-fold stays exact.
            CrawlEvent::JobAttached { job: 1, tenant: Some(2), rounds: 5, pages: 5 },
            CrawlEvent::SliceCompleted {
                job: 1,
                worker: 1,
                rounds: 7,
                tenant: Some(2),
                total: 12,
                pages: 12,
            },
            CrawlEvent::TenantPreempted { tenant: 2, job: 1 },
            CrawlEvent::JobDetached { job: 0, rounds: 50, pages: 47 },
            CrawlEvent::JobDetached { job: 1, rounds: 12, pages: 12 },
        ];
        for ev in &events {
            m.record(ev);
        }
        let usage = m.usage_ledgers();
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[0], (1, UsageLedger { rounds: 50, pages: 47, preempted: 0 }));
        assert_eq!(usage[1], (2, UsageLedger { rounds: 12, pages: 12, preempted: 1 }));
        assert_eq!(replay_usage(&events), usage, "the live fold and the replay agree");
    }

    #[test]
    fn service_events_fold_into_the_service_report() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.service_report(), crate::serve::ServiceReport::default());
        let events = [
            CrawlEvent::RequestEnqueued { depth: 1 },
            CrawlEvent::RequestCompleted { latency_us: 3 },
            CrawlEvent::RequestEnqueued { depth: 3 },
            CrawlEvent::RequestShed,
            CrawlEvent::RequestEnqueued { depth: 2 },
            CrawlEvent::RequestCancelled,
            CrawlEvent::RequestCompleted { latency_us: 900 },
        ];
        for ev in &events {
            m.record(ev);
        }
        let s = m.service_report();
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.completed, 2);
        assert_eq!(s.shed, 1);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.max_queue_depth, 3);
        assert!((s.mean_queue_depth - 2.0).abs() < 1e-9);
        assert_eq!(s.p50_latency_us, 3, "rank 1 of 2 lands in the 2–3 µs bucket");
        assert_eq!(s.p99_latency_us, 900, "tail quote is clamped to the observed max");
        assert_eq!(s.max_latency_us, 900);
        assert!((s.shed_rate() - 0.25).abs() < 1e-9, "1 shed of 4 offered");
        assert_eq!(replay_service_report(&events), s, "the live fold and the replay agree");
    }

    #[test]
    fn latency_percentiles_are_monotone_and_zero_safe() {
        let mut m = MetricsRegistry::new();
        m.record(&CrawlEvent::RequestCompleted { latency_us: 0 });
        let s = m.service_report();
        assert_eq!((s.p50_latency_us, s.p99_latency_us, s.max_latency_us), (0, 0, 0));
        for us in [10, 100, 1_000, 10_000, 100_000] {
            m.record(&CrawlEvent::RequestCompleted { latency_us: us });
        }
        let s = m.service_report();
        assert!(s.p50_latency_us <= s.p95_latency_us);
        assert!(s.p95_latency_us <= s.p99_latency_us);
        assert!(s.p99_latency_us <= s.max_latency_us);
        assert_eq!(s.max_latency_us, 100_000);
    }

    #[test]
    fn replay_is_a_pure_fold() {
        let events = vec![
            CrawlEvent::CrawlResumed { rounds: 10, queries: 1, records: 4 },
            CrawlEvent::PageRequested,
            CrawlEvent::PageFetched { returned: 3, new: 2 },
            CrawlEvent::QueryCompleted,
            CrawlEvent::CrawlFinished { stop: StopReason::RoundBudget, coverage: None },
        ];
        let a = replay_report(&events).unwrap();
        let b = replay_report(&events).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.rounds, 11);
        assert_eq!(a.records, 6);
        assert_eq!(a.stop, StopReason::RoundBudget);
        assert_eq!(replay_report(&events[..4]), None, "truncated stream has no verdict");
    }
}
