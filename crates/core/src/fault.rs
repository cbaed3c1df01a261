//! Seeded, deterministic multi-kind fault injection — the harness the
//! fault-tolerance layer is tested against, and the one source-side fault
//! schedule in the crate.
//!
//! A production crawler faces throttling and 5xx responses, bursts of them,
//! requests that stall and waste wall-clock rounds, result pages that arrive
//! truncated, and faults severe enough to kill the worker process outright.
//! [`FaultPlan`] schedules any mix of these at exact request indices —
//! hand-placed, periodic ([`FaultPlan::every`]), or generated from a seed —
//! so every recovery path (retry, requeue, checkpoint resume, supervisor
//! restart, circuit breaker) can be exercised deterministically and asserted
//! on. Faults on the wire itself (dropped, duplicated or reordered frames)
//! are [`crate::chaos::ChaosPlan`]'s job.
//!
//! A plan is *pure schedule*; [`FaultPlanSource`] is the [`DataSource`]
//! decorator that executes it. The decorator's mutable side (the request
//! counter and per-kind tallies) lives behind an `Arc`, so clones of one
//! `FaultPlanSource` share a single schedule position: a caller can keep a
//! handle to read the tallies of the source its fleet job crawls. Worker
//! restarts reuse the job's own handle, so the schedule keeps advancing
//! instead of replaying the same fault forever.

use crate::source::{CrawlError, DataSource};
use dwc_server::InterfaceSpec;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `splitmix64` — the one tiny generator behind every seeded schedule in the
/// engine: fault plans, chaos plans ([`crate::chaos::ChaosPlan`]) and service
/// latency sampling; it also finishes the frame checksum. Stateless form:
/// mixes its input with the golden-ratio increment, so independent streams
/// decorrelate by salting the input.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The golden-ratio increment that steps a splitmix64 stream; request/frame
/// numbers are multiplied by it before mixing so consecutive indices land in
/// uncorrelated parts of the sequence.
pub(crate) const SPLITMIX_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A plain transient failure (throttle / 5xx): the round is billed, a
    /// retry may succeed.
    Transient,
    /// A stalled request: billed as one round plus `rounds` extra elapsed
    /// rounds of waiting (surfaced as [`CrawlError::Stalled`]).
    Stall {
        /// Extra elapsed rounds wasted waiting for the response.
        rounds: u64,
    },
    /// The result page is damaged in flight and the Result Extractor rejects
    /// it (surfaced as [`CrawlError::CorruptPage`]). The request *does* reach
    /// the source and is billed there; the caller never sees the page.
    Corrupt,
    /// A worker-killing panic — models a crash of the crawling process
    /// itself. Only a fleet ([`crate::fleet::run_fleet`], which supervises
    /// every job) survives this; the fault fires exactly once per scheduled
    /// index.
    Panic,
}

/// A deterministic schedule mapping 1-based request numbers to faults.
///
/// Build one by placing events explicitly ([`transient_at`](Self::transient_at),
/// [`burst`](Self::burst), [`stall_at`](Self::stall_at),
/// [`corrupt_at`](Self::corrupt_at), [`panic_at`](Self::panic_at)), start
/// from a periodic transient schedule ([`every`](Self::every)), or generate a
/// reproducible mix from a seed ([`seeded`](Self::seeded)). Requests not
/// named by the plan succeed normally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: BTreeMap<u64, FaultKind>,
    /// Every request whose number is a multiple of this fails transiently,
    /// unless an explicit event names it.
    period: Option<u64>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// A plan failing every `n`-th request (1-based) with a transient fault.
    /// Explicit events placed on top take precedence at their indices.
    pub fn every(n: u64) -> Self {
        assert!(n > 0, "fault period must be positive");
        FaultPlan { events: BTreeMap::new(), period: Some(n) }
    }

    /// Schedules `kind` at request number `request_no` (1-based), replacing
    /// any event already there.
    pub fn at(mut self, request_no: u64, kind: FaultKind) -> Self {
        assert!(request_no > 0, "request numbers are 1-based");
        self.events.insert(request_no, kind);
        self
    }

    /// Schedules a plain transient failure at `request_no`.
    pub fn transient_at(self, request_no: u64) -> Self {
        self.at(request_no, FaultKind::Transient)
    }

    /// Schedules a burst of `len` consecutive transient failures starting at
    /// request `start` — the pattern that trips a circuit breaker.
    pub fn burst(mut self, start: u64, len: u64) -> Self {
        assert!(start > 0, "request numbers are 1-based");
        for i in 0..len {
            self.events.insert(start + i, FaultKind::Transient);
        }
        self
    }

    /// Schedules a stall of `rounds` extra elapsed rounds at `request_no`.
    pub fn stall_at(self, request_no: u64, rounds: u64) -> Self {
        self.at(request_no, FaultKind::Stall { rounds })
    }

    /// Schedules a truncated/corrupt result page at `request_no`.
    pub fn corrupt_at(self, request_no: u64) -> Self {
        self.at(request_no, FaultKind::Corrupt)
    }

    /// Schedules a worker-killing panic at `request_no`.
    pub fn panic_at(self, request_no: u64) -> Self {
        self.at(request_no, FaultKind::Panic)
    }

    /// Generates a reproducible plan from `seed`: roughly `rate` of the first
    /// `horizon` requests fault, cycling through `kinds` in a seed-shuffled
    /// order. The same `(seed, horizon, rate, kinds)` always yields the same
    /// plan — run-to-run reproducibility is the whole point.
    pub fn seeded(seed: u64, horizon: u64, rate: f64, kinds: &[FaultKind]) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must lie in [0, 1]");
        let mut plan = FaultPlan::new();
        if kinds.is_empty() || rate == 0.0 {
            return plan;
        }
        let threshold = (rate * u64::MAX as f64) as u64;
        let mut pick = 0usize;
        for request_no in 1..=horizon {
            if splitmix64(seed.wrapping_add(request_no.wrapping_mul(SPLITMIX_STEP))) <= threshold {
                let kind = kinds[pick % kinds.len()];
                pick += 1;
                plan.events.insert(request_no, kind);
            }
        }
        plan
    }

    /// The fault scheduled at `request_no`, if any: an explicit event, else
    /// the periodic transient.
    pub fn event_at(&self, request_no: u64) -> Option<FaultKind> {
        self.events.get(&request_no).copied().or_else(|| {
            self.period.filter(|&n| request_no.is_multiple_of(n)).map(|_| FaultKind::Transient)
        })
    }

    /// Number of explicitly placed events (a period adds an unbounded
    /// series on top).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.period.is_none()
    }

    /// Iterates the explicit `(request_no, kind)` events in request order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, FaultKind)> + '_ {
        self.events.iter().map(|(&n, &k)| (n, k))
    }
}

/// Per-kind injection tallies of a [`FaultPlanSource`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Transient failures injected (including burst members).
    pub transient: u64,
    /// Stalls injected.
    pub stalls: u64,
    /// Corrupt pages injected.
    pub corrupt: u64,
    /// Panics fired.
    pub panics: u64,
}

impl FaultTally {
    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.transient + self.stalls + self.corrupt + self.panics
    }
}

#[derive(Debug, Default)]
struct PlanState {
    requests: AtomicU64,
    transient: AtomicU64,
    stalls: AtomicU64,
    corrupt: AtomicU64,
    panics: AtomicU64,
}

/// A [`DataSource`] decorator executing a [`FaultPlan`].
///
/// Request numbering is global across clones: the schedule position lives in
/// a shared `Arc`, so every clone counts the same stream of requests. Billing mirrors reality: transient, stall, and
/// panic faults consume the request *before* it reaches the inner source
/// (billed here), while a corrupt page *was* served (billed by the inner
/// source, merely mangled in flight).
#[derive(Debug)]
pub struct FaultPlanSource<S> {
    inner: S,
    plan: Arc<FaultPlan>,
    state: Arc<PlanState>,
}

impl<S: Clone> Clone for FaultPlanSource<S> {
    fn clone(&self) -> Self {
        FaultPlanSource {
            inner: self.inner.clone(),
            plan: Arc::clone(&self.plan),
            state: Arc::clone(&self.state),
        }
    }
}

impl<S: DataSource> FaultPlanSource<S> {
    /// Wraps `inner`, failing requests per `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultPlanSource { inner, plan: Arc::new(plan), state: Arc::new(PlanState::default()) }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The schedule being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Requests seen so far (served or faulted), across all clones.
    pub fn requests_seen(&self) -> u64 {
        self.state.requests.load(Ordering::Relaxed)
    }

    /// Per-kind injection tallies so far, across all clones.
    pub fn tally(&self) -> FaultTally {
        FaultTally {
            transient: self.state.transient.load(Ordering::Relaxed),
            stalls: self.state.stalls.load(Ordering::Relaxed),
            corrupt: self.state.corrupt.load(Ordering::Relaxed),
            panics: self.state.panics.load(Ordering::Relaxed),
        }
    }

    /// Faults injected that consumed the request before it reached the inner
    /// source (transient + stall + panic) — the wrapper-billed rounds.
    fn absorbed(&self) -> u64 {
        self.state.transient.load(Ordering::Relaxed)
            + self.state.stalls.load(Ordering::Relaxed)
            + self.state.panics.load(Ordering::Relaxed)
    }
}

impl<S: DataSource> DataSource for FaultPlanSource<S> {
    fn respond(
        &self,
        request: &crate::source::SourceRequest<'_>,
        visit: &mut dyn FnMut(&crate::extract::ExtractedPageRef<'_>),
    ) -> Result<crate::source::SourceResponse, CrawlError> {
        let request_no = self.state.requests.fetch_add(1, Ordering::Relaxed) + 1;
        match self.plan.event_at(request_no) {
            None => self.inner.respond(request, visit),
            Some(FaultKind::Transient) => {
                self.state.transient.fetch_add(1, Ordering::Relaxed);
                Err(CrawlError::Transient)
            }
            Some(FaultKind::Stall { rounds }) => {
                self.state.stalls.fetch_add(1, Ordering::Relaxed);
                Err(CrawlError::Stalled { wasted_rounds: rounds })
            }
            Some(FaultKind::Corrupt) => {
                // The inner request executes (and is billed there), but the
                // page is lost in flight: the caller's visitor never runs.
                self.inner.respond(request, &mut |_| {})?;
                self.state.corrupt.fetch_add(1, Ordering::Relaxed);
                Err(CrawlError::CorruptPage)
            }
            Some(FaultKind::Panic) => {
                self.state.panics.fetch_add(1, Ordering::Relaxed);
                panic!("injected fault: worker-killing panic at request {request_no}");
            }
        }
    }

    fn interface(&self) -> &InterfaceSpec {
        self.inner.interface()
    }

    fn rounds_used(&self) -> u64 {
        self.inner.rounds_used() + self.absorbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::ExtractedPage;
    use crate::source::{ProberMode, SourceRequest};
    use dwc_model::fixtures::figure1_table;
    use dwc_server::{Query, WebDbServer};

    fn server() -> WebDbServer {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        WebDbServer::new(t, spec)
    }

    fn a2() -> Query {
        Query::ByString { attr: "A".into(), value: "a2".into() }
    }

    /// Fetches one page as an owned value through the `respond` envelope.
    fn query_page<S: DataSource>(
        s: &S,
        query: &Query,
        page: usize,
        prober: ProberMode,
    ) -> Result<ExtractedPage, CrawlError> {
        let mut owned = None;
        s.respond(&SourceRequest::new(query, page, prober), &mut |view| {
            owned = Some(view.to_owned_page())
        })?;
        Ok(owned.expect("respond visits exactly once on success"))
    }

    #[test]
    fn plan_builders_compose() {
        let plan = FaultPlan::new().burst(3, 2).stall_at(7, 5).corrupt_at(9).panic_at(11);
        assert_eq!(plan.event_at(3), Some(FaultKind::Transient));
        assert_eq!(plan.event_at(4), Some(FaultKind::Transient));
        assert_eq!(plan.event_at(5), None);
        assert_eq!(plan.event_at(7), Some(FaultKind::Stall { rounds: 5 }));
        assert_eq!(plan.event_at(9), Some(FaultKind::Corrupt));
        assert_eq!(plan.event_at(11), Some(FaultKind::Panic));
        assert_eq!(plan.len(), 5);
    }

    #[test]
    fn none_never_fails() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!((1..100).all(|i| plan.event_at(i).is_none()));
        // Wrapping a source in an empty plan changes nothing: every request
        // is served, and billed once, by the inner source.
        let s = FaultPlanSource::new(server(), plan);
        for _ in 0..3 {
            assert!(query_page(&s, &a2(), 0, ProberMode::InProcess).is_ok());
        }
        assert_eq!(s.tally(), FaultTally::default());
        assert_eq!(s.inner().rounds_used(), 3);
        assert_eq!(DataSource::rounds_used(&s), 3);
    }

    #[test]
    fn every_third_fails() {
        let plan = FaultPlan::every(3);
        assert!(!plan.is_empty());
        let fails: Vec<u64> = (1..=10).filter(|&i| plan.event_at(i).is_some()).collect();
        assert_eq!(fails, vec![3, 6, 9]);
        assert_eq!(plan.event_at(9), Some(FaultKind::Transient));
    }

    #[test]
    fn explicit_events_take_precedence_over_the_period() {
        let plan = FaultPlan::every(3).stall_at(6, 4).corrupt_at(7).burst(10, 2);
        assert_eq!(plan.event_at(3), Some(FaultKind::Transient), "the period still fires");
        assert_eq!(plan.event_at(6), Some(FaultKind::Stall { rounds: 4 }), "explicit event wins");
        assert_eq!(plan.event_at(7), Some(FaultKind::Corrupt));
        assert_eq!(plan.event_at(8), None);
        // The burst covers 10 and 11, the period 9 and 12: four in a row.
        let run: Vec<bool> =
            (9..=13).map(|i| plan.event_at(i) == Some(FaultKind::Transient)).collect();
        assert_eq!(run, [true, true, true, true, false]);
        assert_eq!(plan.len(), 4, "len counts the explicit events only");
    }

    #[test]
    fn max_faults_caps_injection() {
        // A capped schedule is a finite burst: the first two requests fail,
        // and none after them.
        let plan = FaultPlan::new().burst(1, 2);
        assert_eq!(plan.event_at(1), Some(FaultKind::Transient));
        assert_eq!(plan.event_at(2), Some(FaultKind::Transient));
        assert!((3..1000).all(|i| plan.event_at(i).is_none()), "the cap is spent");
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn state_tracks_and_caps_injection() {
        // The shared state counts every request and every injected fault;
        // once the burst is spent, requests pass through untouched.
        let s = FaultPlanSource::new(server(), FaultPlan::new().burst(2, 2));
        assert!(query_page(&s, &a2(), 0, ProberMode::InProcess).is_ok());
        for _ in 0..2 {
            assert_eq!(query_page(&s, &a2(), 0, ProberMode::InProcess), Err(CrawlError::Transient));
        }
        for _ in 0..5 {
            assert!(query_page(&s, &a2(), 0, ProberMode::InProcess).is_ok(), "the cap is spent");
        }
        assert_eq!(s.requests_seen(), 8);
        assert_eq!(s.tally(), FaultTally { transient: 2, ..FaultTally::default() });
        assert_eq!(s.inner().rounds_used(), 6);
        assert_eq!(DataSource::rounds_used(&s), 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        let _ = FaultPlan::every(0);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let kinds = [FaultKind::Transient, FaultKind::Corrupt];
        let a = FaultPlan::seeded(42, 1000, 0.2, &kinds);
        let b = FaultPlan::seeded(42, 1000, 0.2, &kinds);
        let c = FaultPlan::seeded(43, 1000, 0.2, &kinds);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        let n = a.len() as f64;
        assert!((100.0..400.0).contains(&n), "rate 0.2 over 1000 ≈ 200 events, got {n}");
        assert!(FaultPlan::seeded(1, 100, 0.0, &kinds).is_empty());
        assert!(FaultPlan::seeded(1, 100, 0.5, &[]).is_empty());
    }

    #[test]
    fn each_kind_surfaces_as_its_error() {
        let s = FaultPlanSource::new(
            server(),
            FaultPlan::new().transient_at(1).stall_at(2, 7).corrupt_at(3),
        );
        assert_eq!(query_page(&s, &a2(), 0, ProberMode::InProcess), Err(CrawlError::Transient));
        assert_eq!(
            query_page(&s, &a2(), 0, ProberMode::InProcess),
            Err(CrawlError::Stalled { wasted_rounds: 7 })
        );
        assert_eq!(query_page(&s, &a2(), 0, ProberMode::InProcess), Err(CrawlError::CorruptPage));
        assert!(query_page(&s, &a2(), 0, ProberMode::InProcess).is_ok());
        let tally = s.tally();
        assert_eq!((tally.transient, tally.stalls, tally.corrupt, tally.panics), (1, 1, 1, 0));
        assert_eq!(tally.total(), 3);
    }

    #[test]
    fn billing_splits_absorbed_and_served_faults() {
        // Request 1 transient (absorbed: billed by wrapper), request 2
        // corrupt (served: billed by inner), request 3 the clean retry.
        let s = FaultPlanSource::new(server(), FaultPlan::new().transient_at(1).corrupt_at(2));
        assert_eq!(query_page(&s, &a2(), 0, ProberMode::InProcess), Err(CrawlError::Transient));
        assert_eq!(query_page(&s, &a2(), 0, ProberMode::InProcess), Err(CrawlError::CorruptPage));
        let page = query_page(&s, &a2(), 0, ProberMode::InProcess).expect("the retry succeeds");
        assert_eq!(page.records.len(), 3);
        assert_eq!(s.inner().rounds_used(), 2, "corrupt + clean reached the server");
        assert_eq!(DataSource::rounds_used(&s), 3, "every request is billed exactly once");
    }

    #[test]
    fn state_cap_is_exact_under_contention() {
        // Eight threads race for request numbers through clones of one
        // source: each number is claimed once, so exactly the scheduled
        // burst fires — never one fault more or less.
        let s = FaultPlanSource::new(std::sync::Arc::new(server()), FaultPlan::new().burst(1, 100));
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (s, start) = (s.clone(), &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..250 {
                        let _ = query_page(&s, &a2(), 0, ProberMode::InProcess);
                    }
                });
            }
        });
        assert_eq!(s.requests_seen(), 2000);
        assert_eq!(s.tally().transient, 100, "the schedule must never overshoot the burst");
        assert_eq!(s.inner().rounds_used(), 1900);
        assert_eq!(DataSource::rounds_used(&s), 2000);
    }

    #[test]
    fn clones_share_the_schedule_position() {
        let s =
            FaultPlanSource::new(std::sync::Arc::new(server()), FaultPlan::new().transient_at(2));
        let s2 = s.clone();
        assert!(query_page(&s, &a2(), 0, ProberMode::InProcess).is_ok());
        assert_eq!(
            query_page(&s2, &a2(), 0, ProberMode::InProcess),
            Err(CrawlError::Transient),
            "the clone's request is number 2 in the shared stream"
        );
        assert_eq!(s.requests_seen(), 2);
        assert_eq!(s.tally().transient, 1);
    }

    #[test]
    fn panic_fault_panics_once_then_schedule_moves_on() {
        let s = FaultPlanSource::new(std::sync::Arc::new(server()), FaultPlan::new().panic_at(1));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = query_page(&s, &a2(), 0, ProberMode::InProcess);
        }));
        assert!(caught.is_err(), "the scheduled panic must fire");
        assert_eq!(s.tally().panics, 1);
        // The stream advanced past the panic: the next request succeeds.
        assert!(query_page(&s, &a2(), 0, ProberMode::InProcess).is_ok());
    }
}
