//! The staged crawl engine: Planner → Executor → Ingestor.
//!
//! The paper's crawl loop is an explicit pipeline — select a candidate
//! (§3), issue the query, fetch paginated pages under the round-cost model
//! (Definition 2.3), extract records and decompose them into new candidates.
//! Each stage is its own unit-testable module here, and
//! [`crate::Crawler`] is just the driver that wires them together over the
//! shared [`crate::state::CrawlState`] and the
//! [event bus](crate::events::EventBus):
//!
//! * [`Planner`] — policy selection and query formulation, including
//!   conjunctive partner choice;
//! * [`Executor`] — pagination, retries, abortion, and round billing;
//! * [`Ingestor`] — record extraction into `DB_local`, frontier discovery,
//!   and the incremental co-occurrence index behind conjunctive partners.
//!
//! Stages never keep counters: every observable fact is emitted as a
//! [`crate::events::CrawlEvent`], and the driver's
//! [`crate::metrics::MetricsRegistry`] folds the stream into reports.

pub mod executor;
pub mod ingestor;
pub mod planner;

pub use executor::{ExecResult, Executor};
pub use ingestor::{CoOccurrenceIndex, Ingestor, PageIngest};
pub use planner::{PlannedQuery, Planner};
