//! Executor stage: pagination, transient-failure retries, per-query
//! abortion, and round billing.
//!
//! Every page request — including failed ones — costs one communication
//! round (Definition 2.3); retry backoff waits and latency stalls are billed
//! additionally as simulated rounds. The executor holds no counters of its
//! own: each billable fact is emitted as a [`CrawlEvent`] and the bus's
//! [`crate::metrics::MetricsRegistry`] does the arithmetic (including the
//! elapsed-rounds budget the executor itself consults mid-query).

use crate::abort::{AbortPolicy, AbortState};
use crate::config::{CrawlConfig, RetryPolicy};
use crate::events::{CrawlEvent, EventBus};
use crate::extract::ExtractedPageRef;
use crate::source::{CancelToken, CrawlError, DataSource, PageMeta, ProberMode, SourceRequest};
use crate::stage::ingestor::{Ingestor, PageIngest};
use crate::state::{CrawlState, QueryOutcome};
use dwc_model::ValueId;
use dwc_server::Query;
use std::time::{Duration, Instant};

/// What one executed query produced.
#[derive(Debug)]
pub struct ExecResult {
    /// The query's outcome (pages, new records, abortion, failure class).
    pub outcome: QueryOutcome,
    /// Values promoted to the frontier by this query's records, in
    /// decomposition order — the driver announces them to the policy.
    pub newly_discovered: Vec<ValueId>,
}

/// Outcome of one page fetch (after retries).
enum PageFetch {
    /// The page arrived intact and was handed to the visitor; only its
    /// metadata outlives the borrow.
    Meta(PageMeta),
    /// The fetch was abandoned; `transient` says whether the final error was
    /// transient-class (retry exhaustion / budget) rather than fatal.
    GaveUp { transient: bool },
}

/// The execute stage: runs one query against the source until pagination
/// ends, the abortion heuristic fires, or a budget is hit.
#[derive(Debug, Clone)]
pub struct Executor {
    abort: AbortPolicy,
    retry: RetryPolicy,
    prober: ProberMode,
    max_rounds: Option<u64>,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
}

impl Executor {
    /// An executor applying `config`'s abort, retry, prober, and
    /// round-budget settings.
    pub fn from_config(config: &CrawlConfig) -> Self {
        Executor {
            abort: config.abort.clone(),
            retry: config.retry,
            prober: config.prober,
            max_rounds: config.max_rounds,
            deadline: config.deadline,
            cancel: config.cancel.clone(),
        }
    }

    /// Fetches pages of one query until pagination ends, the abortion
    /// heuristic fires, or the round budget is hit. `local_before` is the
    /// number of matching records already held (`num(q, DB_local)` at query
    /// start). Records are handed to the `ingestor` as they arrive; billing
    /// flows through the `bus`.
    pub fn run<S: DataSource>(
        &self,
        source: &S,
        query: &Query,
        local_before: u64,
        state: &mut CrawlState,
        ingestor: &mut Ingestor,
        bus: &mut EventBus,
    ) -> ExecResult {
        let mut outcome = QueryOutcome::default();
        let mut abort_state = AbortState::new(self.abort.clone(), state.page_size, local_before);
        let mut touched: Vec<ValueId> = Vec::new();
        let mut newly_discovered: Vec<ValueId> = Vec::new();
        let mut page_index = 0usize;
        let mut gave_up_transient = false;
        loop {
            if let Some(max) = self.max_rounds {
                if bus.metrics().elapsed_rounds() >= max {
                    break;
                }
            }
            let mut page_stats = PageIngest::default();
            let meta = match self.fetch_page_with_retries(
                source,
                query,
                page_index,
                bus,
                &mut |page: &ExtractedPageRef<'_>| {
                    page_stats =
                        ingestor.ingest_page(state, page, &mut touched, &mut newly_discovered);
                },
            ) {
                PageFetch::Meta(meta) => meta,
                PageFetch::GaveUp { transient } => {
                    gave_up_transient = transient;
                    break;
                }
            };
            outcome.pages += 1;
            if meta.total_matches.is_some() {
                outcome.reported_total = meta.total_matches;
            }
            if meta.served_from_cache {
                bus.emit(CrawlEvent::PageCacheHit);
            }
            bus.emit(CrawlEvent::PageFetched {
                returned: page_stats.returned,
                new: page_stats.new,
            });
            outcome.returned_records += page_stats.returned;
            outcome.new_records += page_stats.new;
            abort_state.observe_page(meta.total_matches, page_stats.returned, page_stats.new);
            if !meta.has_more {
                break;
            }
            if abort_state.should_abort() {
                outcome.aborted = true;
                bus.emit(CrawlEvent::QueryAborted);
                break;
            }
            page_index += 1;
        }
        touched.sort_unstable();
        touched.dedup();
        outcome.touched_values = touched;
        outcome.failed_transient = outcome.pages == 0 && gave_up_transient;
        ExecResult { outcome, newly_discovered }
    }

    /// One page request with transient-failure retries. Every attempt emits
    /// a `PageRequested` round; every wait between attempts emits
    /// `BackoffBilled` rounds per the [`RetryPolicy`] schedule, and latency
    /// stalls emit their wasted rounds as `StallBilled` instead (a stall is
    /// its own wait — no extra backoff is layered on top). Fatal errors,
    /// retry exhaustion, and running out of round budget mid-backoff end the
    /// query.
    fn fetch_page_with_retries<S: DataSource>(
        &self,
        source: &S,
        query: &Query,
        page_index: usize,
        bus: &mut EventBus,
        visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
    ) -> PageFetch {
        let mut attempt = 0u32;
        loop {
            // A fired crawl token stops re-submission BEFORE the round is
            // requested: nothing is offered to the source, nothing is billed.
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                return PageFetch::GaveUp { transient: true };
            }
            bus.emit(CrawlEvent::PageRequested);
            let mut request = SourceRequest::new(query, page_index, self.prober);
            if let Some(per_request) = self.deadline {
                request = request.with_deadline(Instant::now() + per_request);
            }
            if let Some(token) = self.cancel.as_ref() {
                request = request.with_cancel(token);
            }
            let err = match source.respond(&request, visit) {
                Ok(response) => return PageFetch::Meta(response.meta),
                Err(e) => e,
            };
            if !err.is_transient() {
                return PageFetch::GaveUp { transient: false };
            }
            bus.emit(CrawlEvent::TransientFailure {
                corrupt: matches!(err, CrawlError::CorruptPage),
            });
            if let CrawlError::Stalled { wasted_rounds } = err {
                bus.emit(CrawlEvent::StallBilled { rounds: wasted_rounds });
            }
            attempt += 1;
            if attempt > self.retry.max_retries {
                return PageFetch::GaveUp { transient: true };
            }
            if !matches!(err, CrawlError::Stalled { .. }) {
                // Salting the jitter draw with elapsed rounds decorrelates
                // clients that hit the same fault at different points in
                // their crawls while keeping each crawl deterministic.
                let wait = self.retry.backoff_jittered(attempt, bus.metrics().elapsed_rounds());
                if wait > 0 {
                    bus.emit(CrawlEvent::BackoffBilled { rounds: wait });
                }
            }
            if let Some(max) = self.max_rounds {
                if bus.metrics().elapsed_rounds() >= max {
                    return PageFetch::GaveUp { transient: true };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultPlanSource};
    use dwc_model::fixtures::figure1_table;
    use dwc_server::{InterfaceSpec, WebDbServer};

    fn state_for(server: &WebDbServer) -> CrawlState {
        let iface = server.interface();
        let names = iface.attr_names.clone();
        let queriable: Vec<bool> =
            (0..names.len()).map(|i| iface.is_queriable(dwc_model::AttrId(i as u16))).collect();
        CrawlState::new(names, queriable, iface.page_size)
    }

    fn a2_query() -> Query {
        Query::ByString { attr: "A".into(), value: "a2".into() }
    }

    #[test]
    fn run_pages_through_and_bills_rounds() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 1);
        let server = WebDbServer::new(t, spec);
        let mut state = state_for(&server);
        let mut ingestor = Ingestor::new(false);
        let mut bus = EventBus::new();
        let exec = Executor::from_config(&CrawlConfig::default());
        let result = exec.run(&server, &a2_query(), 0, &mut state, &mut ingestor, &mut bus);
        // a2 matches 3 records at page size 1 → 3 pages, 3 rounds.
        assert_eq!(result.outcome.pages, 3);
        assert_eq!(result.outcome.new_records, 3);
        assert_eq!(bus.metrics().rounds(), 3);
        assert_eq!(bus.metrics().records(), 3);
        assert!(!result.newly_discovered.is_empty(), "decomposition feeds the frontier");
    }

    #[test]
    fn round_budget_stops_mid_query() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 1);
        let server = WebDbServer::new(t, spec);
        let mut state = state_for(&server);
        let mut ingestor = Ingestor::new(false);
        let mut bus = EventBus::new();
        let config = CrawlConfig::builder().max_rounds(2).build().unwrap();
        let exec = Executor::from_config(&config);
        let result = exec.run(&server, &a2_query(), 0, &mut state, &mut ingestor, &mut bus);
        assert_eq!(bus.metrics().rounds(), 2, "budget cuts pagination short");
        assert_eq!(result.outcome.pages, 2);
    }

    #[test]
    fn wire_reruns_are_cache_hits_in_the_event_stream() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 1);
        let server = WebDbServer::new(t, spec);
        let mut state = state_for(&server);
        let mut ingestor = Ingestor::new(false);
        let mut bus = EventBus::new();
        let config = CrawlConfig::builder().prober(ProberMode::Wire).build().unwrap();
        let exec = Executor::from_config(&config);
        let first = exec.run(&server, &a2_query(), 0, &mut state, &mut ingestor, &mut bus);
        assert_eq!(first.outcome.new_records, 3);
        assert_eq!(bus.metrics().page_cache_hits(), 0, "a cold cache renders every page");
        // A second worker re-running the same query hits the render cache on
        // all three pages — the wire bytes are identical, so the harvest is
        // too, and every round is still billed.
        let second = exec.run(&server, &a2_query(), 0, &mut state, &mut ingestor, &mut bus);
        assert_eq!(second.outcome.returned_records, 3);
        assert_eq!(second.outcome.new_records, 0, "all duplicates the second time");
        assert_eq!(bus.metrics().page_cache_hits(), 3);
        assert_eq!(bus.metrics().rounds(), 6, "cache hits do not discount rounds");
    }

    #[test]
    fn total_transient_failure_is_flagged_for_requeue() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        let source = FaultPlanSource::new(WebDbServer::new(t, spec), FaultPlan::every(1));
        let mut state = state_for(source.inner());
        let mut ingestor = Ingestor::new(false);
        let mut bus = EventBus::new();
        let exec = Executor::from_config(&CrawlConfig::default());
        let result = exec.run(&source, &a2_query(), 0, &mut state, &mut ingestor, &mut bus);
        assert!(result.outcome.failed_transient, "zero pages + transient error");
        assert_eq!(result.outcome.pages, 0);
        assert!(bus.metrics().fault_streak() > 0, "the streak survives for supervisors");
    }

    #[test]
    fn retries_emit_backoff_and_recover() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        let source = FaultPlanSource::new(WebDbServer::new(t, spec), FaultPlan::new().burst(1, 2));
        let mut state = state_for(source.inner());
        let mut ingestor = Ingestor::new(false);
        let mut bus = EventBus::new();
        let config = CrawlConfig::builder().max_retries(3).build().unwrap();
        let exec = Executor::from_config(&config);
        let result = exec.run(&source, &a2_query(), 0, &mut state, &mut ingestor, &mut bus);
        assert_eq!(result.outcome.new_records, 3, "retries must not lose the page");
        assert!(bus.metrics().backoff_rounds() > 0, "waits between attempts are billed");
        assert_eq!(bus.metrics().fault_streak(), 0, "an intact page resets the streak");
    }
}
