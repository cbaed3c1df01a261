//! The query–harvest–decompose crawl loop (paper §1, §2.5).
//!
//! "It starts with some seed queries prepared in the form of attribute value
//! pairs … automatically queries the target data source … harvests the data
//! records from the returned pages … populates the extracted records to its
//! local database and decomposes these records into attribute values, which
//! are stored as candidates for future query formulation. This process is
//! repeated until all the possible queries are issued or some stopping
//! criterion is met."
//!
//! [`Crawler`] is a thin driver over the staged engine in [`crate::stage`]:
//! the [`Planner`] selects and formulates the next query, the [`Executor`]
//! runs it against the source (pagination, retries, abortion, round
//! billing), and the [`Ingestor`] harvests its records and grows the
//! frontier. The driver contributes only the glue the stages cannot own —
//! requeue bookkeeping, periodic checkpointing, and stop conditions.
//!
//! Nothing here keeps counters. Every observable fact flows as a
//! [`CrawlEvent`] through the crawler's [`EventBus`], and the bus's
//! [`crate::metrics::MetricsRegistry`] is the single source of truth the
//! [`CrawlReport`] is derived from. Attach extra sinks (JSONL streams, test
//! buffers) with [`Crawler::add_sink`].

use crate::events::{CrawlEvent, EventBus, EventSink};
use crate::journal::StateJournal;
use crate::policy::SelectionPolicy;
use crate::source::DataSource;
use crate::stage::{Executor, Ingestor, Planner};
use crate::state::{CandStatus, CrawlState, QueryOutcome};
use dwc_model::ValueId;
use std::collections::HashMap;

pub use crate::config::{CrawlConfig, CrawlConfigBuilder, QueryMode};
pub use crate::events::StopReason;
pub use crate::metrics::CrawlReport;
pub use crate::source::ProberMode;

/// A hidden-web database crawler bound to one target source.
///
/// The crawler owns its source handle `S`. Borrow-style use passes
/// `&server` (the blanket `DataSource for &S` impl); fleet workers sharing
/// one server each own an `Arc<WebDbServer>` clone.
pub struct Crawler<S: DataSource> {
    source: S,
    planner: Planner,
    executor: Executor,
    ingestor: Ingestor,
    state: CrawlState,
    config: CrawlConfig,
    bus: EventBus,
    /// Per-value requeue tally (values absent have never been requeued).
    requeues: HashMap<ValueId, u32>,
    /// The state journal, when `config.journal_path` is set. The base frame
    /// is written lazily at the first [`Crawler::step`] so seeds planted
    /// between construction and the first query are captured.
    journal: Option<StateJournal>,
}

impl<S: DataSource> Crawler<S> {
    /// Creates a crawler for `source` with the given policy.
    ///
    /// The attribute names and their queriability are read from the source's
    /// interface — the information a crawler gets from inspecting the query
    /// form — never from backend data.
    pub fn new(source: S, policy: Box<dyn SelectionPolicy>, config: CrawlConfig) -> Self {
        let iface = source.interface();
        let attr_names = iface.attr_names.clone();
        let attr_queriable: Vec<bool> = (0..attr_names.len())
            .map(|i| iface.is_queriable(dwc_model::AttrId(i as u16)))
            .collect();
        let keyword_available = iface.keyword_search;
        let mut state = CrawlState::new(attr_names, attr_queriable, iface.page_size);
        state.target_size = config.known_target_size;
        state.keyword_mode = config.query_mode == QueryMode::Keyword;
        assert!(
            !state.keyword_mode || keyword_available,
            "keyword query mode requires an interface with keyword search"
        );
        let mut planner = Planner::new(policy, config.query_mode);
        planner.init(&mut state);
        let executor = Executor::from_config(&config);
        let ingestor = Ingestor::new(matches!(config.query_mode, QueryMode::Conjunctive { .. }));
        let journal = Self::open_journal(&config);
        Crawler {
            source,
            planner,
            executor,
            ingestor,
            state,
            config,
            bus: EventBus::new(),
            requeues: HashMap::new(),
            journal,
        }
    }

    /// Opens the state journal named by the configuration, if any. Its
    /// frames stay on disk until the first [`Crawler::step`] writes a new
    /// base, so a crawl resumed from the journal cannot lose them to a crash
    /// in between.
    fn open_journal(config: &CrawlConfig) -> Option<StateJournal> {
        config.journal_path.as_deref().map(StateJournal::open)
    }

    /// Resumes a checkpointed crawl against `source` with a fresh policy
    /// instance. The shared state (vocabulary, statuses, `DB_local`,
    /// `L_queried`, cost counters) is restored exactly; policy internals and
    /// derived indexes are rebuilt.
    ///
    /// # Panics
    /// Panics if the checkpoint is internally inconsistent (ids out of
    /// range) or if `config.query_mode` demands keyword support the
    /// checkpoint's interface flags contradict.
    pub fn resume(
        source: S,
        policy: Box<dyn SelectionPolicy>,
        checkpoint: &crate::checkpoint::Checkpoint,
        config: CrawlConfig,
    ) -> Self {
        let mut state = CrawlState::from_checkpoint(checkpoint);
        state.target_size = config.known_target_size;
        let mut planner = Planner::new(policy, config.query_mode);
        planner.resume(&mut state);
        let executor = Executor::from_config(&config);
        let mut ingestor =
            Ingestor::new(matches!(config.query_mode, QueryMode::Conjunctive { .. }));
        ingestor.rebuild_from(&state);
        let mut bus = EventBus::new();
        bus.emit(CrawlEvent::CrawlResumed {
            rounds: checkpoint.rounds,
            queries: checkpoint.queries,
            records: state.local.num_records() as u64,
        });
        let journal = Self::open_journal(&config);
        Crawler {
            source,
            planner,
            executor,
            ingestor,
            state,
            config,
            bus,
            requeues: HashMap::new(),
            journal,
        }
    }

    /// Snapshots the crawl into a [`crate::checkpoint::Checkpoint`]:
    /// vocabulary, statuses, `L_queried`, harvested records and cost
    /// counters. Policy internals are rebuilt on resume.
    pub fn checkpoint(&self) -> crate::checkpoint::Checkpoint {
        let metrics = self.bus.metrics();
        crate::checkpoint::Checkpoint::capture(&self.state, metrics.rounds(), metrics.queries())
    }

    /// Adds a whole seed *query* — a group of `(attribute, value)` pairs
    /// issued as one conjunctive query before the policy takes over. This is
    /// how a crawl of a restrictive multi-attribute form is bootstrapped
    /// (single seed values cannot be issued there).
    pub fn add_seed_group(&mut self, pairs: &[(&str, &str)]) {
        self.planner.add_seed_group(pairs);
    }

    /// Adds a seed attribute value. Returns `false` when the attribute is
    /// unknown or not queriable (the seed is useless then).
    pub fn add_seed(&mut self, attr_name: &str, value: &str) -> bool {
        self.planner.add_seed(&mut self.state, attr_name, value)
    }

    /// Attaches a streaming [`EventSink`] to the crawl's bus. A sink
    /// attached to a crawl that already has history first receives a
    /// [`CrawlEvent::CrawlResumed`] snapshot so its stream replays to the
    /// same totals.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.bus.add_sink(sink);
    }

    /// Read access to the crawl state (vocabulary, `DB_local`, `L_queried`).
    pub fn state(&self) -> &CrawlState {
        &self.state
    }

    /// Read access to the source handle.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Read access to the metrics registry — every counter the crawl has
    /// folded so far.
    pub fn metrics(&self) -> &crate::metrics::MetricsRegistry {
        self.bus.metrics()
    }

    /// Page requests issued so far (including failed attempts).
    pub fn rounds(&self) -> u64 {
        self.bus.metrics().rounds()
    }

    /// Simulated rounds spent waiting in retry backoff so far.
    pub fn backoff_rounds(&self) -> u64 {
        self.bus.metrics().backoff_rounds()
    }

    /// Simulated rounds lost to source-side latency stalls so far.
    pub fn stall_rounds(&self) -> u64 {
        self.bus.metrics().stall_rounds()
    }

    /// Rounds billed against budgets: requests plus backoff waits plus
    /// stall waits.
    pub fn elapsed_rounds(&self) -> u64 {
        self.bus.metrics().elapsed_rounds()
    }

    /// Consecutive transient-class failures since the last successful page.
    /// Resets to zero on every page that arrives intact. Supervisors sample
    /// this at slice boundaries to drive per-source circuit breakers.
    pub fn fault_streak(&self) -> u32 {
        self.bus.metrics().fault_streak()
    }

    /// Checkpoints persisted by the periodic checkpointing loop so far.
    pub fn checkpoints_written(&self) -> u64 {
        self.bus.metrics().checkpoints_written()
    }

    /// Consumes the crawler and returns its source handle (the fleet
    /// supervisor hands it to the rebuilt crawler after a panicked slice).
    pub fn into_source(self) -> S {
        self.source
    }

    /// The configured round budget, if any.
    pub fn max_rounds(&self) -> Option<u64> {
        self.config.max_rounds
    }

    /// The configured coverage target, if any.
    pub fn target_coverage(&self) -> Option<f64> {
        self.config.target_coverage
    }

    /// Runs the crawl to a stop condition and reports.
    pub fn run(mut self) -> CrawlReport {
        let stop = loop {
            if let Some(reason) = self.budget_stop() {
                break reason;
            }
            match self.step() {
                Some(()) => {}
                None => break StopReason::FrontierExhausted,
            }
        };
        self.into_report(stop)
    }

    /// Finalizes the crawl at its current state without issuing further
    /// queries (used by drivers that call [`Crawler::step`] themselves, like
    /// the fleet coordinator). Syncs the journal, so the last completed
    /// query is durable (a failed sync costs durability, never the report),
    /// then emits [`CrawlEvent::CrawlFinished`] and derives the report from
    /// the registry.
    pub fn into_report(mut self, stop: StopReason) -> CrawlReport {
        if let Some(journal) = self.journal.as_mut() {
            let _ = journal.sync();
        }
        self.bus.emit(CrawlEvent::CrawlFinished { stop, coverage: self.state.coverage() });
        self.bus.metrics().report().expect("CrawlFinished was just emitted")
    }

    /// The stop rule [`Crawler::run`] checks before every query: the cancel
    /// token, then the round budget, the query budget and the coverage
    /// target, in that order. Loops that call [`Crawler::step`]
    /// themselves check it the same way.
    pub fn budget_stop(&self) -> Option<StopReason> {
        if self.config.cancel.as_ref().is_some_and(crate::source::CancelToken::is_cancelled) {
            return Some(StopReason::Cancelled);
        }
        let metrics = self.bus.metrics();
        if let Some(max) = self.config.max_rounds {
            if metrics.elapsed_rounds() >= max {
                return Some(StopReason::RoundBudget);
            }
        }
        if let Some(max) = self.config.max_queries {
            if metrics.queries() >= max {
                return Some(StopReason::QueryBudget);
            }
        }
        if let (Some(target), Some(cov)) = (self.config.target_coverage, self.state.coverage()) {
            if cov >= target {
                return Some(StopReason::CoverageReached);
            }
        }
        None
    }

    /// Issues one query through the staged pipeline — plan, execute, ingest,
    /// then the driver's bookkeeping. Returns `None` when seeds and frontier
    /// are both exhausted.
    pub fn step(&mut self) -> Option<()> {
        if self.journal.as_ref().is_some_and(|j| !j.has_base()) {
            // Persistence failures never kill the crawl.
            let _ = self.rebase_journal();
        }
        let planned = self.planner.plan(&mut self.state, &self.ingestor, &mut self.bus)?;
        let local_before =
            planned.candidate.map(|v| u64::from(self.state.local.count(v))).unwrap_or(0);
        let exec = self.executor.run(
            &self.source,
            &planned.query,
            local_before,
            &mut self.state,
            &mut self.ingestor,
            &mut self.bus,
        );
        for &d in &exec.newly_discovered {
            self.planner.notify_discovered(&self.state, d);
        }
        match planned.candidate {
            Some(v) if exec.outcome.failed_transient && self.try_requeue(v) => {
                // The attempt is billed (rounds, a query, a trace point) but
                // the candidate goes back on the frontier instead of being
                // treated as answered: the records behind it are not lost to
                // the fault burst that swallowed this attempt.
                self.finish_query(None, exec.outcome);
            }
            candidate => self.finish_query(candidate, exec.outcome),
        }
        Some(())
    }

    /// Puts `v` back on the frontier after a total transient failure, if its
    /// requeue budget allows. Returns whether the requeue happened.
    fn try_requeue(&mut self, v: ValueId) -> bool {
        let n = self.requeues.entry(v).or_insert(0);
        if *n >= self.config.max_requeues {
            return false;
        }
        *n += 1;
        // The candidate was pushed onto `L_queried` at selection time and no
        // other query completes in between, so it is still the tail and the
        // removal is an O(1), order-preserving pop.
        self.state.remove_queried(v);
        self.state.set_status(v, CandStatus::Frontier);
        self.planner.notify_discovered(&self.state, v);
        self.bus.emit(CrawlEvent::QueryRequeued { candidate: v.0 });
        true
    }

    /// Book-keeping shared by candidate queries and seed-group queries.
    fn finish_query(&mut self, v: Option<ValueId>, outcome: QueryOutcome) {
        self.state.push_harvest(outcome.normalized_harvest_rate(self.state.page_size));
        self.bus.emit(CrawlEvent::QueryCompleted);
        if let Some(v) = v {
            self.planner.on_query_done(&self.state, v, &outcome);
        }
        match self.journal.as_mut() {
            Some(journal) => {
                let (rounds, queries) = (self.bus.metrics().rounds(), self.bus.metrics().queries());
                if journal.append_delta(&mut self.state, rounds, queries).is_err() {
                    self.journal = None;
                }
            }
            // Nothing drains the change log: keep it from growing.
            None => self.state.clear_changes(),
        }
        self.maybe_checkpoint();
    }

    /// Rebases the journal (if any) onto the current state; returns whether
    /// a previous generation was rotated to `.bak`. A journal left without
    /// any base by a failed write is dropped and the crawl goes on
    /// unjournaled; one with a base keeps extending its previous generation.
    fn rebase_journal(&mut self) -> Option<std::io::Result<bool>> {
        let journal = self.journal.as_mut()?;
        let metrics = self.bus.metrics();
        let written = journal.write_base(&mut self.state, metrics.rounds(), metrics.queries());
        if !journal.has_base() {
            self.journal = None;
        }
        Some(written)
    }

    /// Rebases the journal when the checkpoint cadence is due. A journal
    /// dropped after a failed write is reopened first, so persistence
    /// resumes at the next due checkpoint. Failures never kill the crawl:
    /// they are tallied as [`CrawlEvent::CheckpointFailed`], and the
    /// previous generation on disk stays valid.
    fn maybe_checkpoint(&mut self) {
        let Some(every) = self.config.checkpoint_every else { return };
        if !self.bus.metrics().queries().is_multiple_of(every.max(1)) {
            return;
        }
        if self.journal.is_none() {
            self.journal = Self::open_journal(&self.config);
        }
        let event = match self.rebase_journal() {
            Some(Ok(rotated_backup)) => CrawlEvent::CheckpointWritten { rotated_backup },
            Some(Err(_)) => CrawlEvent::CheckpointFailed,
            None => return,
        };
        self.bus.emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RetryPolicy;
    use crate::fault::{FaultPlan, FaultPlanSource};
    use crate::policy::PolicyKind;
    use dwc_model::fixtures::figure1_table;
    use dwc_server::{InterfaceSpec, WebDbServer};

    fn figure1_server(page_size: usize) -> WebDbServer {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), page_size);
        WebDbServer::new(t, spec)
    }

    fn run_policy(kind: PolicyKind, page_size: usize) -> CrawlReport {
        let server = figure1_server(page_size);
        let config = CrawlConfig::builder().known_target_size(5).build().unwrap();
        let mut crawler = Crawler::new(&server, kind.build(), config);
        assert!(crawler.add_seed("A", "a2"));
        crawler.run()
    }

    #[test]
    fn every_policy_harvests_the_whole_figure1_database() {
        for kind in [
            PolicyKind::Bfs,
            PolicyKind::Dfs,
            PolicyKind::Random(7),
            PolicyKind::GreedyLink,
            PolicyKind::Mmmi(Default::default()),
        ] {
            let report = run_policy(kind.clone(), 10);
            assert_eq!(report.records, 5, "{} must reach all records", kind.label());
            assert_eq!(report.stop, StopReason::FrontierExhausted);
            assert_eq!(report.final_coverage, Some(1.0));
        }
    }

    #[test]
    fn example_2_1_first_query_sees_three_records() {
        let server = figure1_server(10);
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
        crawler.add_seed("A", "a2");
        crawler.step().unwrap();
        assert_eq!(crawler.state().local.num_records(), 3);
        assert_eq!(crawler.rounds(), 1);
        // Decomposition discovered b2, c1, c2, b3 (a2 is queried).
        assert_eq!(crawler.state().vocab.len(), 5);
    }

    #[test]
    fn wire_mode_equals_in_process_mode() {
        let run = |prober| {
            let server = figure1_server(2);
            let config = CrawlConfig::builder().prober(prober).build().unwrap();
            let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), config);
            crawler.add_seed("A", "a2");
            let report = crawler.run();
            (report.records, report.rounds, report.queries)
        };
        let baseline = run(ProberMode::InProcess);
        assert_eq!(baseline, run(ProberMode::Wire));
    }

    #[test]
    fn rounds_match_cost_model() {
        // Page size 1: querying a2 (3 matches) costs 3 rounds.
        let server = figure1_server(1);
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
        crawler.add_seed("A", "a2");
        crawler.step().unwrap();
        assert_eq!(crawler.rounds(), 3);
        assert_eq!(crawler.rounds(), DataSource::rounds_used(crawler.source()));
    }

    #[test]
    fn round_budget_stops_mid_query() {
        let server = figure1_server(1);
        let config = CrawlConfig::builder().max_rounds(2).build().unwrap();
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), config);
        crawler.add_seed("A", "a2");
        let report = crawler.run();
        assert_eq!(report.stop, StopReason::RoundBudget);
        assert_eq!(report.rounds, 2);
    }

    #[test]
    fn query_budget_respected() {
        let server = figure1_server(10);
        let config = CrawlConfig::builder().max_queries(1).build().unwrap();
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), config);
        crawler.add_seed("A", "a2");
        let report = crawler.run();
        assert_eq!(report.stop, StopReason::QueryBudget);
        assert_eq!(report.queries, 1);
    }

    #[test]
    fn coverage_target_stops_early() {
        let server = figure1_server(10);
        let config =
            CrawlConfig::builder().known_target_size(5).target_coverage(0.6).build().unwrap();
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), config);
        crawler.add_seed("A", "a2");
        let report = crawler.run();
        assert_eq!(report.stop, StopReason::CoverageReached);
        assert!(report.records >= 3);
    }

    #[test]
    fn transient_faults_are_retried_and_counted() {
        let source = FaultPlanSource::new(figure1_server(10), FaultPlan::every(2));
        let config = CrawlConfig::builder().max_retries(3).build().unwrap();
        let mut crawler = Crawler::new(&source, PolicyKind::Bfs.build(), config);
        crawler.add_seed("A", "a2");
        let report = crawler.run();
        assert_eq!(report.records, 5, "faults must not lose records");
        assert!(report.transient_failures > 0);
        assert!(report.rounds > report.queries, "failed rounds are counted");
        assert!(report.backoff_rounds > 0, "retries wait before re-asking");
        assert_eq!(
            (report.rounds, report.queries, report.transient_failures, report.backoff_rounds),
            (17, 9, 8, 8)
        );
        assert_eq!(report.rounds, DataSource::rounds_used(&source), "every round billed once");
    }

    #[test]
    fn backoff_counts_against_round_budget() {
        // Every request fails; generous retries but a tiny round budget. The
        // budget must stop the crawl even though no page ever arrives.
        let server = FaultPlanSource::new(figure1_server(10), FaultPlan::every(1));
        let config = CrawlConfig::builder()
            .max_rounds(10)
            .retry(RetryPolicy { max_retries: 100, backoff_base: 1, backoff_cap: 8 })
            .build()
            .unwrap();
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), config);
        crawler.add_seed("A", "a2");
        let report = crawler.run();
        assert_eq!(report.stop, StopReason::RoundBudget);
        assert!(report.elapsed_rounds() >= 10);
        assert!(
            report.rounds < 10,
            "backoff waits, not just requests, must fill the budget: {} requests",
            report.rounds
        );
    }

    #[test]
    fn keyword_mode_crawls_through_the_keyword_box() {
        let server = figure1_server(10);
        let config = CrawlConfig::builder().query_mode(QueryMode::Keyword).build().unwrap();
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), config);
        assert!(crawler.add_seed("A", "a2"));
        let report = crawler.run();
        assert_eq!(report.records, 5, "keyword crawling reaches everything too");
    }

    #[test]
    fn keyword_mode_unlocks_form_locked_attributes() {
        let run = |mode: QueryMode| {
            let t = figure1_table();
            let mut spec2 = InterfaceSpec::permissive(t.schema(), 10);
            spec2.queriable_attrs.retain(|&a| a == dwc_model::AttrId(2));
            let server = WebDbServer::new(t, spec2);
            let config = CrawlConfig { query_mode: mode, ..Default::default() };
            let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), config);
            crawler.add_seed("C", "c1");
            crawler.run()
        };
        // Structured: only C-values can be issued. c1 retrieves records 0–1,
        // whose decomposition yields no further C value (c2 appears only in
        // records it cannot reach) — the crawl is stuck at 2 records.
        let structured = run(QueryMode::Structured);
        assert_eq!(structured.records, 2);
        // Keyword: every discovered value (a*, b*, c*) is usable — a2 bridges
        // to c2's records and the whole database is harvested. This is
        // §2.2's "fading schema opens exciting opportunities" in action.
        let keyword = run(QueryMode::Keyword);
        assert_eq!(keyword.records, 5);
    }

    #[test]
    fn conjunctive_mode_crawls_restrictive_forms() {
        // The form demands two filled fields; the keyword box is gone.
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 10).requiring_attrs(2);
        let server = WebDbServer::new(t, spec);
        let config = CrawlConfig::builder()
            .query_mode(QueryMode::Conjunctive { arity: 2 })
            .known_target_size(5)
            .build()
            .unwrap();
        let mut crawler = Crawler::new(&server, PolicyKind::GreedyLink.build(), config);
        crawler.add_seed_group(&[("A", "a2"), ("B", "b2")]);
        let report = crawler.run();
        // The seed pair a2 ∧ b2 retrieves records 1–2; follow-up conjunctive
        // queries keep harvesting, but conjunctions are restrictive — full
        // coverage is NOT guaranteed (which is exactly why the paper's case
        // study flags multi-attribute-only sources as hard to crawl).
        assert!(report.records >= 2, "seed group must land");
        assert!(report.queries > 1, "policy-driven conjunctive queries must follow");
    }

    #[test]
    fn conjunctive_covers_less_than_single_attribute_crawling() {
        let run = |mode: QueryMode, restrictive: bool| {
            let t = figure1_table();
            let mut spec = InterfaceSpec::permissive(t.schema(), 10);
            if restrictive {
                spec = spec.requiring_attrs(2);
            }
            let server = WebDbServer::new(t, spec);
            let config = CrawlConfig { query_mode: mode, ..Default::default() };
            let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), config);
            if restrictive {
                crawler.add_seed_group(&[("A", "a2"), ("B", "b2")]);
            } else {
                crawler.add_seed("A", "a2");
            }
            crawler.run().records
        };
        let single = run(QueryMode::Structured, false);
        let conjunctive = run(QueryMode::Conjunctive { arity: 2 }, true);
        assert_eq!(single, 5);
        assert!(conjunctive <= single);
    }

    #[test]
    #[should_panic(expected = "keyword query mode requires")]
    fn keyword_mode_requires_keyword_interface() {
        let t = figure1_table();
        let mut spec = InterfaceSpec::permissive(t.schema(), 10);
        spec.keyword_search = false;
        let server = WebDbServer::new(t, spec);
        let config = CrawlConfig { query_mode: QueryMode::Keyword, ..Default::default() };
        let _ = Crawler::new(&server, PolicyKind::Bfs.build(), config);
    }

    #[test]
    fn bad_seed_rejected() {
        let server = figure1_server(10);
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
        assert!(!crawler.add_seed("Nope", "x"));
        let report = crawler.run();
        assert_eq!(report.stop, StopReason::FrontierExhausted);
        assert_eq!(report.records, 0);
    }

    #[test]
    fn seed_that_matches_nothing_still_costs_a_round() {
        let server = figure1_server(10);
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
        assert!(crawler.add_seed("A", "does-not-exist"));
        let report = crawler.run();
        assert_eq!(report.rounds, 1);
        assert_eq!(report.records, 0);
        assert_eq!(report.queries, 1);
    }

    #[test]
    fn duplicate_records_not_double_counted() {
        let server = figure1_server(10);
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
        crawler.add_seed("A", "a2");
        crawler.add_seed("C", "c2");
        let report = crawler.run();
        assert_eq!(report.records, 5, "overlapping queries must dedup");
    }

    #[test]
    fn checkpoint_resume_completes_like_uninterrupted_run() {
        // Uninterrupted baseline.
        let server = figure1_server(2);
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
        crawler.add_seed("A", "a2");
        let baseline = crawler.run();

        // Interrupted run: two queries, checkpoint through the text format,
        // resume with a fresh server and policy, finish.
        let server1 = figure1_server(2);
        let mut crawler1 = Crawler::new(&server1, PolicyKind::Bfs.build(), CrawlConfig::default());
        crawler1.add_seed("A", "a2");
        crawler1.step().unwrap();
        crawler1.step().unwrap();
        let text = crawler1.checkpoint().to_text();
        drop(crawler1);

        let cp = crate::checkpoint::Checkpoint::from_text(&text).unwrap();
        let server2 = figure1_server(2);
        let crawler2 =
            Crawler::resume(&server2, PolicyKind::Bfs.build(), &cp, CrawlConfig::default());
        let resumed = crawler2.run();

        assert_eq!(resumed.records, baseline.records);
        // BFS frontier order is id order = discovery order, so the resumed
        // run issues exactly the remaining queries: total cost matches.
        assert_eq!(resumed.rounds, baseline.rounds);
        assert_eq!(resumed.queries, baseline.queries);
    }

    #[test]
    fn checkpoint_resume_works_for_domain_policy() {
        use crate::domain_table::DomainTable;
        use std::sync::Arc;
        let dm = Arc::new(DomainTable::build(figure1_table()));
        let kind = PolicyKind::Domain(Arc::clone(&dm));
        let config = || CrawlConfig { known_target_size: Some(5), ..Default::default() };

        let server1 = figure1_server(10);
        let mut crawler1 = Crawler::new(&server1, kind.build(), config());
        crawler1.add_seed("A", "a2");
        crawler1.step().unwrap();
        let cp = crawler1.checkpoint();
        drop(crawler1);

        let server2 = figure1_server(10);
        let crawler2 = Crawler::resume(&server2, kind.build(), &cp, config());
        let resumed = crawler2.run();
        assert_eq!(resumed.records, 5, "DM resume must still reach everything");
        assert_eq!(resumed.final_coverage, Some(1.0));
    }

    #[test]
    fn checkpoint_counters_carry_over() {
        let server = figure1_server(1);
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
        crawler.add_seed("A", "a2");
        crawler.step().unwrap(); // 3 matches at page size 1 → 3 rounds
        let cp = crawler.checkpoint();
        assert_eq!(cp.rounds, 3);
        assert_eq!(cp.queries, 1);
        assert_eq!(cp.records.len(), 3);
        drop(crawler);
        let server2 = figure1_server(1);
        let crawler2 =
            Crawler::resume(&server2, PolicyKind::Bfs.build(), &cp, CrawlConfig::default());
        assert_eq!(crawler2.rounds(), 3);
        assert_eq!(crawler2.state().local.num_records(), 3);
    }

    #[test]
    fn trace_is_recorded_per_query() {
        let server = figure1_server(10);
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
        crawler.add_seed("A", "a2");
        let report = crawler.run();
        assert_eq!(report.trace.points().len() as u64, report.queries);
        let last = report.trace.last().unwrap();
        assert_eq!(last.records, report.records);
        assert_eq!(last.rounds, report.rounds);
    }

    #[test]
    fn attached_sink_replays_to_the_returned_report() {
        use crate::events::MemorySink;
        use crate::metrics::replay_report;
        let server = figure1_server(2);
        let config = CrawlConfig::builder().max_retries(2).build().unwrap();
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), config);
        let sink = MemorySink::new();
        crawler.add_sink(Box::new(sink.clone()));
        crawler.add_seed("A", "a2");
        let report = crawler.run();
        let events = sink.collected();
        assert_eq!(replay_report(&events), Some(report));
    }

    #[test]
    fn requeued_candidate_survives_a_checkpoint_round_trip() {
        use crate::events::MemorySink;
        // One fault total: the first query fails entirely (fail-fast retry
        // default) and its candidate is requeued.
        let server = FaultPlanSource::new(figure1_server(10), FaultPlan::new().transient_at(1));
        let config = CrawlConfig::builder().known_target_size(5).max_requeues(5).build().unwrap();
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), config.clone());
        assert!(crawler.add_seed("A", "a2"));
        let sink = MemorySink::new();
        crawler.add_sink(Box::new(sink.clone()));
        crawler.step().unwrap();
        assert!(
            sink.collected().iter().any(|e| matches!(e, CrawlEvent::QueryRequeued { .. })),
            "the failed attempt must requeue its candidate"
        );
        assert!(
            crawler.state().queried().is_empty(),
            "the requeued candidate must leave L_queried"
        );

        // The requeue must survive the text checkpoint format: the resumed
        // crawl re-selects the value and still harvests everything.
        let text = crawler.checkpoint().to_text();
        drop(crawler);
        let cp = crate::checkpoint::Checkpoint::from_text(&text).unwrap();
        let resumed = Crawler::resume(&server, PolicyKind::Bfs.build(), &cp, config).run();
        assert_eq!(resumed.records, 5, "nothing behind the requeued value may be lost");
        assert_eq!(resumed.final_coverage, Some(1.0));
    }
}
