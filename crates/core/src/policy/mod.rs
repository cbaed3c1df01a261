//! Query selection policies (`L_to-query` organizations).
//!
//! The Query Selector of §2.5 is a pluggable policy deciding which candidate
//! attribute value to issue next. "The naïve methods … do not utilize any
//! database information"; the greedy link-based method follows local-graph
//! degree; MMMI re-ranks by mutual information; the domain-knowledge policy
//! estimates harvest rates from a domain statistics table.

use crate::domain_table::DomainTable;
use crate::state::{CrawlState, QueryOutcome};
use dwc_model::ValueId;
use std::sync::Arc;

mod domain;
mod freq;
mod greedy;
mod mmmi;
mod naive;

pub use domain::DomainPolicy;
pub use freq::FreqGreedy;
pub use greedy::GreedyLink;
pub use mmmi::{Mmmi, MmmiConfig, Saturation};
pub use naive::{Bfs, Dfs, RandomSelect};

/// A query-selection policy: the organization of `L_to-query`.
///
/// The crawler owns the shared [`CrawlState`] (vocabulary, statuses,
/// `L_queried`, `DB_local`) and drives the policy through these hooks. A
/// policy must only return values whose status is
/// [`crate::state::CandStatus::Frontier`] — except the domain-knowledge
/// policy, which may return `Undiscovered` values from its domain-table pool
/// (Q_DT).
///
/// Policies are `Send` so a parked crawler (policy included) can migrate
/// between the fleet scheduler's worker threads across budget slices; every
/// built-in policy is plain owned data.
pub trait SelectionPolicy: Send {
    /// Display name (used by the experiment harnesses).
    fn name(&self) -> &'static str;

    /// One-time setup before any seed is added (e.g. the DM policy interns
    /// its whole domain table into the crawler vocabulary here — "the
    /// database crawler … acquires the categorical attribute values for query
    /// generation", §4.1).
    fn init(&mut self, _state: &mut CrawlState) {}

    /// A queriable value just entered the frontier.
    fn on_discovered(&mut self, state: &CrawlState, v: ValueId);

    /// Rebuilds policy-internal structures from a resumed crawl state
    /// (see `dwc_core::checkpoint`). The default runs [`Self::init`] and
    /// re-announces every frontier value; ids are assigned in discovery
    /// order, so queue/stack/heap policies recover their original semantics.
    /// Policies with derived aggregates (the DM policy's covered set, Δ_DM
    /// and hit counters) override this.
    fn resume(&mut self, state: &mut CrawlState) {
        self.init(state);
        let frontier: Vec<ValueId> = (0..state.status().len() as u32)
            .map(ValueId)
            .filter(|&v| state.status_of(v) == crate::state::CandStatus::Frontier)
            .collect();
        for v in frontier {
            self.on_discovered(state, v);
        }
    }

    /// A query completed (or was aborted); `outcome.touched_values` lists the
    /// values whose local statistics may have changed.
    fn on_query_done(&mut self, _state: &CrawlState, _v: ValueId, _outcome: &QueryOutcome) {}

    /// Picks the next value to query; `None` ends the crawl.
    fn select(&mut self, state: &CrawlState) -> Option<ValueId>;
}

/// Constructors for the built-in policies (harness convenience).
#[derive(Debug, Clone)]
pub enum PolicyKind {
    /// Breadth-first (`L_to-query` as a FIFO queue).
    Bfs,
    /// Depth-first (`L_to-query` as a stack).
    Dfs,
    /// Uniform random selection with the given seed.
    Random(u64),
    /// Greedy link-based selection (max degree in `G_local`).
    GreedyLink,
    /// Frequency-greedy selection (max `num(q, DB_local)`), the Ntoulas et
    /// al. keyword-crawling baseline.
    FreqGreedy,
    /// Greedy + min–max mutual-information re-ranking.
    Mmmi(MmmiConfig),
    /// Domain-knowledge-based selection over the given domain table.
    Domain(Arc<DomainTable>),
}

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn SelectionPolicy> {
        match self {
            PolicyKind::Bfs => Box::new(Bfs::new()),
            PolicyKind::Dfs => Box::new(Dfs::new()),
            PolicyKind::Random(seed) => Box::new(RandomSelect::new(*seed)),
            PolicyKind::GreedyLink => Box::new(GreedyLink::new()),
            PolicyKind::FreqGreedy => Box::new(FreqGreedy::new()),
            PolicyKind::Mmmi(cfg) => Box::new(Mmmi::new(*cfg)),
            PolicyKind::Domain(dt) => Box::new(DomainPolicy::new(Arc::clone(dt))),
        }
    }

    /// Short label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Bfs => "BFS",
            PolicyKind::Dfs => "DFS",
            PolicyKind::Random(_) => "Random",
            PolicyKind::GreedyLink => "GL",
            PolicyKind::FreqGreedy => "FreqGreedy",
            PolicyKind::Mmmi(_) => "GL+MMMI",
            PolicyKind::Domain(_) => "DM",
        }
    }
}
