//! Planner stage: policy-driven candidate selection and query formulation.
//!
//! The planner owns the [`SelectionPolicy`] (whose internal `L_to-query`
//! organization *is* the policy — queue, stack, heap, …) and the pending
//! seed-group queue for conjunctive bootstrapping. Each [`Planner::plan`]
//! call produces the next query to issue: a pending seed group if any,
//! otherwise the policy's selected candidate formulated per the configured
//! [`QueryMode`] (structured form fill, keyword box, or a conjunctive query
//! whose partner values come from the ingestor's co-occurrence index).

use crate::config::QueryMode;
use crate::events::{CrawlEvent, EventBus};
use crate::policy::SelectionPolicy;
use crate::stage::ingestor::Ingestor;
use crate::state::{CandStatus, CrawlState, QueryOutcome};
use dwc_model::ValueId;
use dwc_server::Query;

/// One planned query, ready for the executor.
#[derive(Debug)]
pub struct PlannedQuery {
    /// The formulated query.
    pub query: Query,
    /// The selected candidate, when the query came from the policy (`None`
    /// for seed-group queries, which bill a query but answer no candidate).
    pub candidate: Option<ValueId>,
}

/// The plan stage: wraps the selection policy and formulates queries.
pub struct Planner {
    policy: Box<dyn SelectionPolicy>,
    query_mode: QueryMode,
    /// Whole-query seed groups for conjunctive mode, issued before the
    /// policy takes over.
    pending_seed_groups: Vec<Vec<(String, String)>>,
}

impl std::fmt::Debug for Planner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Planner")
            .field("policy", &self.policy.name())
            .field("query_mode", &self.query_mode)
            .field("pending_seed_groups", &self.pending_seed_groups.len())
            .finish()
    }
}

impl Planner {
    /// A planner driving `policy` in `query_mode`.
    pub fn new(policy: Box<dyn SelectionPolicy>, query_mode: QueryMode) -> Self {
        Planner { policy, query_mode, pending_seed_groups: Vec::new() }
    }

    /// Initializes the policy over fresh state.
    pub fn init(&mut self, state: &mut CrawlState) {
        self.policy.init(state);
    }

    /// Rebuilds the policy's internals over restored state (the resume path).
    pub fn resume(&mut self, state: &mut CrawlState) {
        self.policy.resume(state);
    }

    /// Queues a whole seed *query* — a group of `(attribute, value)` pairs
    /// issued as one conjunctive query before the policy takes over.
    pub fn add_seed_group(&mut self, pairs: &[(&str, &str)]) {
        self.pending_seed_groups
            .push(pairs.iter().map(|(a, v)| (a.to_string(), v.to_string())).collect());
    }

    /// Adds a seed attribute value to the frontier. Returns `false` when the
    /// attribute is unknown or not queriable (the seed is useless then).
    pub fn add_seed(&mut self, state: &mut CrawlState, attr_name: &str, value: &str) -> bool {
        let Some(attr) = state.attr_by_name(attr_name) else { return false };
        if !state.keyword_mode && !state.attr_queriable[attr.0 as usize] {
            return false;
        }
        let v = state.intern(attr, value);
        if state.status_of(v) == CandStatus::Undiscovered {
            state.set_status(v, CandStatus::Frontier);
            self.policy.on_discovered(state, v);
        }
        true
    }

    /// Announces a value newly promoted to the frontier (by ingestion or a
    /// requeue) to the policy.
    pub fn notify_discovered(&mut self, state: &CrawlState, v: ValueId) {
        self.policy.on_discovered(state, v);
    }

    /// Reports a candidate's completed query back to the policy.
    pub fn on_query_done(&mut self, state: &CrawlState, v: ValueId, outcome: &QueryOutcome) {
        self.policy.on_query_done(state, v, outcome);
    }

    /// Plans the next query: a pending seed group if any, otherwise the
    /// policy's selection formulated per the query mode. The chosen
    /// candidate moves to `L_queried` here, so the checkpointed state always
    /// reflects in-flight queries. Returns `None` when seeds and frontier
    /// are both exhausted.
    pub fn plan(
        &mut self,
        state: &mut CrawlState,
        ingestor: &Ingestor,
        bus: &mut EventBus,
    ) -> Option<PlannedQuery> {
        if let Some(group) = self.pending_seed_groups.pop() {
            bus.emit(CrawlEvent::QueryPlanned { candidate: None });
            return Some(PlannedQuery { query: Query::Conjunctive(group), candidate: None });
        }
        let v = self.policy.select(state)?;
        state.set_status(v, CandStatus::Queried);
        state.push_queried(v);
        let value_str = state.vocab.value_str(v).to_owned();
        let attr = state.vocab.attr_of(v);
        let attr_name = state.attr_names[attr.0 as usize].clone();
        let query = match self.query_mode {
            QueryMode::Structured => Query::ByString { attr: attr_name, value: value_str },
            QueryMode::Keyword => Query::Keyword(value_str),
            QueryMode::Conjunctive { arity } => {
                let mut pairs = vec![(attr_name, value_str)];
                pairs.extend(ingestor.co_index().best_partners(state, v, arity.saturating_sub(1)));
                Query::Conjunctive(pairs)
            }
        };
        bus.emit(CrawlEvent::QueryPlanned { candidate: Some(v.0) });
        Some(PlannedQuery { query, candidate: Some(v) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    fn seeded() -> (CrawlState, Planner) {
        let mut state = CrawlState::new(vec!["A".into(), "B".into()], vec![true, true], 10);
        let mut planner = Planner::new(PolicyKind::Bfs.build(), QueryMode::Structured);
        planner.init(&mut state);
        assert!(planner.add_seed(&mut state, "A", "a2"));
        (state, planner)
    }

    #[test]
    fn plan_moves_the_candidate_to_queried() {
        let (mut state, mut planner) = seeded();
        let ingestor = Ingestor::new(false);
        let mut bus = EventBus::new();
        let planned = planner.plan(&mut state, &ingestor, &mut bus).unwrap();
        let v = planned.candidate.unwrap();
        assert_eq!(state.status_of(v), CandStatus::Queried);
        assert_eq!(state.queried(), [v]);
        assert_eq!(planned.query, Query::ByString { attr: "A".into(), value: "a2".into() });
        // Frontier exhausted now.
        assert!(planner.plan(&mut state, &ingestor, &mut bus).is_none());
    }

    #[test]
    fn seed_groups_are_planned_before_the_policy() {
        let (mut state, mut planner) = seeded();
        planner.add_seed_group(&[("A", "a1"), ("B", "b1")]);
        let ingestor = Ingestor::new(false);
        let mut bus = EventBus::new();
        let first = planner.plan(&mut state, &ingestor, &mut bus).unwrap();
        assert!(first.candidate.is_none(), "seed groups answer no candidate");
        assert_eq!(
            first.query,
            Query::Conjunctive(vec![
                ("A".to_string(), "a1".to_string()),
                ("B".to_string(), "b1".to_string())
            ])
        );
        let second = planner.plan(&mut state, &ingestor, &mut bus).unwrap();
        assert!(second.candidate.is_some(), "then the policy takes over");
    }

    #[test]
    fn bad_seed_is_rejected() {
        let mut state = CrawlState::new(vec!["A".into(), "B".into()], vec![true, false], 10);
        let mut planner = Planner::new(PolicyKind::Bfs.build(), QueryMode::Structured);
        planner.init(&mut state);
        assert!(!planner.add_seed(&mut state, "Nope", "x"), "unknown attribute");
        assert!(!planner.add_seed(&mut state, "B", "b1"), "unqueriable attribute");
        assert!(planner.add_seed(&mut state, "A", "a1"));
    }

    #[test]
    fn conjunctive_plans_pull_partners_from_the_index() {
        use crate::extract::ExtractedRecord;
        let mut state = CrawlState::new(vec!["A".into(), "B".into()], vec![true, true], 10);
        let mut planner =
            Planner::new(PolicyKind::Bfs.build(), QueryMode::Conjunctive { arity: 2 });
        planner.init(&mut state);
        let mut ingestor = Ingestor::new(true);
        let (mut touched, mut newly) = (Vec::new(), Vec::new());
        ingestor.ingest_record(
            &mut state,
            &ExtractedRecord {
                key: 1,
                fields: vec![("A".into(), "a1".into()), ("B".into(), "b1".into())],
            },
            &mut touched,
            &mut newly,
        );
        for &v in &newly {
            planner.notify_discovered(&state, v);
        }
        let mut bus = EventBus::new();
        let planned = planner.plan(&mut state, &ingestor, &mut bus).unwrap();
        match planned.query {
            Query::Conjunctive(pairs) => {
                assert_eq!(pairs.len(), 2, "arity-2 plan carries one partner");
                assert_eq!(pairs[0], ("A".to_string(), "a1".to_string()));
                assert_eq!(pairs[1], ("B".to_string(), "b1".to_string()));
            }
            other => panic!("expected a conjunctive query, got {other:?}"),
        }
    }
}
