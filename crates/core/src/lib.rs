//! Query-selection crawler for structured web sources.
//!
//! This crate is the reproduction of the paper's primary contribution:
//! a hidden-web database crawler built around the *query–harvest–decompose*
//! loop of Section 1, with pluggable **query selection policies**:
//!
//! * naive breadth-first / depth-first / random selection (§3.1),
//! * the greedy relational-link-based policy **GL** (§3.2),
//! * GL + min–max mutual-information re-ranking **MMMI** for the
//!   low-marginal-benefit regime (§3.3),
//! * heuristic query abortion (§3.4),
//! * the domain-knowledge policy **DM** with the harvest-rate estimators of
//!   Section 4 (equations 4.1–4.3, Q_DT hit-rate estimation, lazy evaluation,
//!   incremental `P(L_queried, DM)` maintenance).
//!
//! Architecture (paper §2.5): the **Query Selector** (a
//! [`policy::SelectionPolicy`]), the **Database Prober**
//! ([`source::ProberMode`]) and the **Result Extractor** ([`extract`]).
//! The crawler maintains `L_to-query` / `L_queried`, a statistics table, and
//! the local database `DB_local` ([`local::LocalDb`]).
//!
//! The crawler reaches its target exclusively through the [`source::DataSource`]
//! trait — a [`source::SourceRequest`]/[`source::SourceResponse`] envelope per
//! page request, `&self`, atomically billed — which makes an in-process
//! [`dwc_server::WebDbServer`], a fault-injecting decorator
//! ([`fault::FaultPlanSource`]), and a protocol-backed [`serve::Connection`]
//! into a [`serve::SourceService`] (bounded queue, admission control,
//! deadlines) interchangeable.
//! Because the trait is implemented for `&S` and `Arc<S>` too, the same
//! generic [`Crawler`] covers both exclusive borrow-style use and fleets of
//! workers sharing one source ([`fleet`]).
//!
//! The crawler-side vocabulary is its own [`dwc_model::ValueInterner`]: the
//! crawler never shares an id space with the server — queries go out as
//! attribute-name + value-string form fills, results come back as strings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abort;
pub mod chaos;
pub mod checkpoint;
pub mod config;
pub mod crawler;
pub mod domain_table;
pub mod events;
pub mod extract;
pub mod fault;
pub mod fleet;
pub mod health;
pub mod journal;
pub mod local;
pub mod metrics;
pub mod policy;
pub mod report;
pub mod sched;
pub mod serve;
pub mod source;
pub mod stage;
pub mod state;
pub mod store;
pub mod tenant;
pub mod trace;

pub use abort::AbortPolicy;
pub use chaos::{
    shrink_plan, ChaosKind, ChaosPlan, ChaosRun, ChaosSpecError, ChaosState, ChaosTally,
};
pub use checkpoint::Checkpoint;
pub use config::{ConfigError, RetryPolicy};
pub use crawler::{CrawlConfig, CrawlReport, Crawler, ProberMode, QueryMode, StopReason};
pub use domain_table::DomainTable;
pub use events::{BreakerPhase, CrawlEvent, EventBus, EventSink, JsonlSink, MemorySink};
pub use fault::{FaultKind, FaultPlan, FaultPlanSource, FaultTally};
pub use fleet::{
    run_fleet, AllocationStrategy, Allocator, EvenAllocator, FleetConfig, FleetJob, FleetReport,
    HarvestAllocator, WeightedFairAllocator,
};
pub use health::{BreakerConfig, BreakerState, CircuitBreaker, JobHealth};
pub use journal::{JournalRecovery, StateJournal};
pub use local::LocalDb;
pub use metrics::{replay_report, replay_service_report, replay_usage, MetricsRegistry};
pub use policy::{PolicyKind, SelectionPolicy};
pub use report::CrawlSummary;
pub use sched::SchedulerStats;
pub use serve::{
    Connection, LatencyModel, ServeConfig, ServeConfigBuilder, ServiceReport, SourceService,
};
pub use source::{CrawlError, DataSource, PageMeta, SourceRequest, SourceResponse};
pub use stage::{Executor, Ingestor, Planner};
pub use state::{CandStatus, CrawlState, QueryOutcome};
pub use store::CheckpointStore;
pub use tenant::{Tenant, TenantId, UsageLedger};
pub use trace::{CrawlTrace, TraceError};

/// Hands `check` every prefix of `text` that ends on a char boundary and
/// every single-bit flip of `text` that is still UTF-8: the damage every
/// decoder of untrusted text must survive with an error or a valid value.
#[cfg(test)]
pub(crate) fn for_each_damaged(text: &str, mut check: impl FnMut(&str)) {
    for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
        check(&text[..cut]);
    }
    let mut bytes = text.as_bytes().to_vec();
    for bit in 0..bytes.len() * 8 {
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok(flipped) = std::str::from_utf8(&bytes) {
            check(flipped);
        }
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}
