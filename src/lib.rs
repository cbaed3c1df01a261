//! # deep-web-crawler
//!
//! A reproduction of *"Query Selection Techniques for Efficient Crawling of
//! Structured Web Sources"* (Wu, Wen, Liu, Ma — ICDE 2006): a hidden-web
//! database crawler whose central component is the **query selection policy**
//! — how to pick the next attribute value to query so that database coverage
//! grows with the fewest communication rounds.
//!
//! The workspace crates, re-exported here:
//!
//! * [`model`] (`dwc-model`) — records, the attribute-value graph (AVG),
//!   connectivity, degree distributions, weighted dominating sets;
//! * [`stats`] (`dwc-stats`) — Zipf sampling, Student-t, capture–recapture,
//!   PMI, regression;
//! * [`server`] (`dwc-server`) — the simulated structured web-database
//!   server (pagination, result caps, totals, XML result pages);
//! * [`datagen`] (`dwc-datagen`) — generative domain datasets standing in
//!   for eBay / ACM / DBLP / IMDB / Amazon-DVD;
//! * [`store`] (`dwc-store`) — out-of-core packed storage: segment files,
//!   pluggable pagers, the clock-eviction buffer pool, the checksummed frame
//!   log, and the shared memory budget;
//! * [`core`] (`dwc-core`) — the crawler and its selection policies (BFS,
//!   DFS, Random, greedy link-based, GL+MMMI, domain-knowledge).
//!
//! ## Quickstart
//!
//! ```
//! use deep_web_crawler::prelude::*;
//!
//! // A tiny structured source (the paper's Figure 1 example).
//! let table = deep_web_crawler::model::fixtures::figure1_table();
//! let interface = InterfaceSpec::permissive(table.schema(), 10);
//! let server = WebDbServer::new(table, interface);
//!
//! // Crawl it greedily from seed value (A, "a2").
//! let config = CrawlConfig::builder().known_target_size(5).build().unwrap();
//! let mut crawler = Crawler::new(&server, PolicyKind::GreedyLink.build(), config);
//! crawler.add_seed("A", "a2");
//! let report = crawler.run();
//! assert_eq!(report.records, 5); // full coverage
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dwc_core as core;
pub use dwc_datagen as datagen;
pub use dwc_model as model;
/// The simulated structured web-database server (`dwc-server`).
pub mod server {
    pub use dwc_server::*;

    #[cfg(test)]
    mod tests;
}
pub use dwc_stats as stats;
pub use dwc_store as store;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use dwc_core::policy::{MmmiConfig, PolicyKind, Saturation, SelectionPolicy};
    pub use dwc_core::{
        run_fleet, shrink_plan, AbortPolicy, AllocationStrategy, BreakerConfig, ChaosKind,
        ChaosPlan, ChaosRun, ChaosState, ChaosTally, Checkpoint, CircuitBreaker, ConfigError,
        Connection, CrawlConfig, CrawlError, CrawlEvent, CrawlReport, CrawlTrace, Crawler,
        DataSource, DomainTable, EventSink, FaultKind, FaultPlan, FaultPlanSource, FleetConfig,
        FleetJob, FleetReport, JobHealth, JsonlSink, LatencyModel, MemorySink, MetricsRegistry,
        ProberMode, QueryMode, RetryPolicy, SchedulerStats, ServeConfig, ServiceReport,
        SourceRequest, SourceService, StateJournal, StopReason, Tenant, TenantId, UsageLedger,
    };
    pub use dwc_datagen::presets::Preset;
    pub use dwc_datagen::{PairedDataset, PairedSpec};
    pub use dwc_model::{AvGraph, Schema, UniversalTable};
    pub use dwc_server::{InterfaceSpec, Query, WebDbServer};
}
