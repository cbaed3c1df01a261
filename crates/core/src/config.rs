//! Crawl configuration: limits, modes, retry policy, builder validation.
//!
//! Crawl and fleet configurations are built through validating builders
//! ([`CrawlConfig::builder`], [`crate::fleet::FleetConfig::builder`])
//! that reject nonsensical parameters — zero budgets, zero slices,
//! conjunctive arity below 2, a checkpoint cadence with no journal to
//! rebase — at build time with a [`ConfigError`], instead of panicking (or
//! silently stalling) mid-crawl.
//!
//! Persistence is one knob pair: [`CrawlConfig::journal_path`] names the
//! state journal, the crawl's only durable form, and
//! [`CrawlConfig::checkpoint_every`] sets how often it is rebased.

use crate::abort::AbortPolicy;
use crate::source::ProberMode;
use std::path::PathBuf;
use std::time::Duration;

/// Retry behaviour on transient page-request failures.
///
/// A real crawler that gets throttled waits before retrying; waiting costs
/// wall-clock time that the simulation bills as *backoff rounds*. The
/// schedule is deterministic exponential backoff: before retry attempt `k`
/// (1-based) the crawler waits `backoff_base · 2^(k−1)` simulated rounds,
/// capped at `backoff_cap`. Backoff rounds count against round budgets
/// (Definition 2.3 bills time, not just served pages) but are not server
/// requests — the source's own counter only grows by real attempts.
///
/// **The default is `max_retries: 0` — fail fast.** A bare
/// [`crate::CrawlConfig`] abandons a page on its first transient error;
/// only the total-failure requeue path
/// ([`crate::CrawlConfig::max_requeues`]) gives the query another chance.
/// Set retries explicitly for any fault-prone source
/// ([`crate::crawler::CrawlConfigBuilder::max_retries`]); fleet runners
/// substitute [`crate::fleet::FleetConfig::default_retry`] into jobs left
/// on this default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per page after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry, in simulated rounds.
    pub backoff_base: u64,
    /// Upper bound on a single backoff wait, in simulated rounds.
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 0, backoff_base: 1, backoff_cap: 64 }
    }
}

impl RetryPolicy {
    /// A policy with `n` retries and the default backoff schedule.
    pub fn retries(n: u32) -> Self {
        RetryPolicy { max_retries: n, ..Default::default() }
    }

    /// Simulated rounds to wait before retry attempt `attempt` (1-based).
    /// Attempt 0 is the initial request: no wait.
    pub fn backoff_before(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let exp = (attempt - 1).min(63);
        self.backoff_base.saturating_mul(1u64 << exp).min(self.backoff_cap)
    }
}

/// A configuration rejected at build time.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A budget or slice parameter was zero where positive is required.
    ZeroBudget(&'static str),
    /// Conjunctive query mode needs at least two predicates per query.
    BadArity(usize),
    /// A coverage target outside `(0, 1]`.
    BadCoverage(f64),
    /// A coverage target without a known target size can never fire.
    CoverageNeedsTargetSize,
    /// A serving-tier queue bound of zero can never admit a request.
    ZeroQueueDepth,
    /// A zero deadline would cancel every request at admission.
    ZeroDeadline,
    /// A tenant with zero weight can never be granted rounds under
    /// weighted-fair allocation.
    ZeroTenantWeight(u32),
    /// A tenant quota of zero rounds parks the tenant before it ever runs.
    ZeroTenantQuota(u32),
    /// Two tenants in the registry share the same id.
    DuplicateTenant(u32),
    /// A job references a tenant id absent from the registry.
    UnknownTenant(u32),
    /// A fleet defines a tenant registry but a job names no tenant.
    MissingTenant,
    /// A checkpoint cadence without a journal has nowhere to write.
    CheckpointNeedsJournal,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroBudget(what) => write!(f, "{what} must be positive"),
            ConfigError::BadArity(n) => {
                write!(f, "conjunctive arity must be at least 2, got {n}")
            }
            ConfigError::BadCoverage(c) => {
                write!(f, "target coverage must lie in (0, 1], got {c}")
            }
            ConfigError::CoverageNeedsTargetSize => {
                write!(f, "a coverage target requires known_target_size")
            }
            ConfigError::ZeroQueueDepth => {
                write!(f, "serving queue depth must be positive")
            }
            ConfigError::ZeroDeadline => {
                write!(f, "a request deadline must be positive")
            }
            ConfigError::ZeroTenantWeight(id) => {
                write!(f, "tenant {id} has zero weight and would never be scheduled")
            }
            ConfigError::ZeroTenantQuota(id) => {
                write!(f, "tenant {id} has a zero round quota and would never run")
            }
            ConfigError::DuplicateTenant(id) => {
                write!(f, "tenant id {id} appears more than once in the registry")
            }
            ConfigError::UnknownTenant(id) => {
                write!(f, "job references tenant {id}, which is not in the registry")
            }
            ConfigError::MissingTenant => {
                write!(f, "the fleet defines a tenant registry but a job names no tenant")
            }
            ConfigError::CheckpointNeedsJournal => {
                write!(f, "checkpoint_every needs a journal_path to rebase")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// How queries are submitted to the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Fill the value into its attribute's structured form field
    /// (`Query::ByString`). Requires the attribute to be queriable.
    #[default]
    Structured,
    /// Throw the bare value string into the keyword box (`Query::Keyword`)
    /// and "rely on the end site's query processing mechanism to decide which
    /// column that value should actually match" (§2.2). Requires the
    /// interface to advertise keyword search; makes every discovered value a
    /// candidate, even from attributes without a form field.
    Keyword,
    /// Multi-attribute form fill: the selected candidate value is combined
    /// with its most co-occurring locally-known partner values from `arity−1`
    /// *other* attributes into a [`dwc_server::Query::Conjunctive`]. This is
    /// the query class the paper defers to future work; restrictive sources
    /// (`InterfaceSpec::requiring_attrs`) only accept it. Seeds must be
    /// provided as whole groups via [`crate::Crawler::add_seed_group`].
    Conjunctive {
        /// Number of equality predicates per query (≥ 2).
        arity: usize,
    },
}

/// Crawl limits and knobs.
///
/// Prefer [`CrawlConfig::builder`], which validates parameters at build
/// time; the struct literal form remains available for tests that want an
/// intentionally odd configuration.
///
/// Note the retry default: [`RetryPolicy::default`] has `max_retries: 0`, so
/// a bare `CrawlConfig` **fails fast on the first transient error** of a
/// page (the total-failure requeue path is the only second chance). Any
/// crawl against a source that can throttle should set
/// [`CrawlConfigBuilder::max_retries`] (fleets apply
/// [`crate::fleet::FleetConfig::default_retry`] automatically).
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Stop after this many elapsed rounds — page requests plus retry
    /// backoff waits (Figures 5–6 use 10,000).
    pub max_rounds: Option<u64>,
    /// Stop when true coverage reaches this fraction (requires
    /// `known_target_size`; Figure 3 uses 0.9).
    pub target_coverage: Option<f64>,
    /// The target's true size, when the harness knows it (controlled
    /// experiments).
    pub known_target_size: Option<usize>,
    /// Per-query abortion heuristics (§3.4).
    pub abort: AbortPolicy,
    /// Transient-failure retry schedule (each attempt costs a round; waits
    /// between attempts cost backoff rounds).
    pub retry: RetryPolicy,
    /// How many times a query that failed *entirely* on transient-class
    /// errors (zero pages retrieved) is put back on the frontier for a later
    /// attempt, per value. Keeps a burst of failures from permanently losing
    /// the records behind the affected candidates.
    pub max_requeues: u32,
    /// Prober mode.
    pub prober: ProberMode,
    /// Query submission mode (structured form fill vs keyword box).
    pub query_mode: QueryMode,
    /// Retired and inert: nothing reads it. The journal is the only durable
    /// crawl state ([`CrawlConfig::journal_path`]).
    pub checkpoint_store: Option<crate::store::CheckpointStore>,
    /// Checkpoint cadence in completed queries: every this many, the
    /// journal is rebased atomically onto a fresh snapshot (its previous
    /// generation kept as `.bak`). `None` never rebases. Needs
    /// [`CrawlConfig::journal_path`].
    pub checkpoint_every: Option<u64>,
    /// Where the crawl's state journal lives
    /// ([`crate::journal::StateJournal`]): one delta frame per completed
    /// query over a checkpoint base. `None` disables persistence (manual
    /// [`crate::Crawler::checkpoint`] still works).
    pub journal_path: Option<PathBuf>,
    /// Per-request deadline: each page request's [`crate::SourceRequest`]
    /// carries `now + deadline` as its absolute deadline. In-process sources
    /// answer instantly and ignore it; a [`crate::serve::SourceService`]
    /// cancels (and bills) requests still queued past it.
    pub deadline: Option<Duration>,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            max_rounds: None,
            target_coverage: None,
            known_target_size: None,
            abort: AbortPolicy::default(),
            retry: RetryPolicy::default(),
            max_requeues: 4,
            prober: ProberMode::default(),
            query_mode: QueryMode::default(),
            checkpoint_store: None,
            checkpoint_every: None,
            journal_path: None,
            deadline: None,
        }
    }
}

impl CrawlConfig {
    /// Starts building a validated configuration.
    pub fn builder() -> CrawlConfigBuilder {
        CrawlConfigBuilder { config: CrawlConfig::default() }
    }
}

/// Builder for [`CrawlConfig`]; see [`CrawlConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct CrawlConfigBuilder {
    config: CrawlConfig,
}

impl CrawlConfigBuilder {
    /// Caps elapsed rounds (requests + backoff waits). Must be positive.
    pub fn max_rounds(mut self, rounds: u64) -> Self {
        self.config.max_rounds = Some(rounds);
        self
    }

    /// Stops once true coverage reaches `fraction` (in `(0, 1]`); requires
    /// [`known_target_size`](Self::known_target_size).
    pub fn target_coverage(mut self, fraction: f64) -> Self {
        self.config.target_coverage = Some(fraction);
        self
    }

    /// Declares the target's true size (controlled experiments).
    pub fn known_target_size(mut self, records: usize) -> Self {
        self.config.known_target_size = Some(records);
        self
    }

    /// Sets the per-query abortion heuristics.
    pub fn abort(mut self, abort: AbortPolicy) -> Self {
        self.config.abort = abort;
        self
    }

    /// Sets the transient-failure retry schedule.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Shorthand: `n` retries with the default backoff schedule.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.config.retry.max_retries = n;
        self
    }

    /// Caps total-failure requeues per value (0 = never requeue).
    pub fn max_requeues(mut self, n: u32) -> Self {
        self.config.max_requeues = n;
        self
    }

    /// Rebases the journal every `queries` completed queries. Must be
    /// positive, and needs [`CrawlConfigBuilder::journal_path`].
    pub fn checkpoint_every(mut self, queries: u64) -> Self {
        self.config.checkpoint_every = Some(queries);
        self
    }

    /// Persists the crawl in a state journal at `path`.
    pub fn journal_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.journal_path = Some(path.into());
        self
    }

    /// Sets the prober mode.
    pub fn prober(mut self, prober: ProberMode) -> Self {
        self.config.prober = prober;
        self
    }

    /// Sets the query submission mode.
    pub fn query_mode(mut self, mode: QueryMode) -> Self {
        self.config.query_mode = mode;
        self
    }

    /// Sets the per-request deadline. Must be positive.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<CrawlConfig, ConfigError> {
        let c = &self.config;
        if c.max_rounds == Some(0) {
            return Err(ConfigError::ZeroBudget("max_rounds"));
        }
        if c.checkpoint_every == Some(0) {
            return Err(ConfigError::ZeroBudget("checkpoint_every"));
        }
        if c.checkpoint_every.is_some() && c.journal_path.is_none() {
            return Err(ConfigError::CheckpointNeedsJournal);
        }
        if let QueryMode::Conjunctive { arity } = c.query_mode {
            if arity < 2 {
                return Err(ConfigError::BadArity(arity));
            }
        }
        if let Some(t) = c.target_coverage {
            if !(t > 0.0 && t <= 1.0) {
                return Err(ConfigError::BadCoverage(t));
            }
            if c.known_target_size.is_none() {
                return Err(ConfigError::CoverageNeedsTargetSize);
            }
        }
        if c.deadline == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroDeadline);
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RetryPolicy { max_retries: 10, backoff_base: 2, backoff_cap: 9 };
        assert_eq!(r.backoff_before(0), 0);
        assert_eq!(r.backoff_before(1), 2);
        assert_eq!(r.backoff_before(2), 4);
        assert_eq!(r.backoff_before(3), 8);
        assert_eq!(r.backoff_before(4), 9, "capped");
        assert_eq!(r.backoff_before(100), 9, "huge attempts saturate, no overflow");
    }

    #[test]
    fn default_policy_fails_fast() {
        assert_eq!(RetryPolicy::default().max_retries, 0);
        assert_eq!(RetryPolicy::retries(3).max_retries, 3);
    }

    #[test]
    fn builder_rejects_nonsense() {
        assert_eq!(
            CrawlConfig::builder().max_rounds(0).build().unwrap_err(),
            ConfigError::ZeroBudget("max_rounds")
        );
        assert_eq!(
            CrawlConfig::builder()
                .query_mode(QueryMode::Conjunctive { arity: 1 })
                .build()
                .unwrap_err(),
            ConfigError::BadArity(1)
        );
        assert_eq!(
            CrawlConfig::builder().known_target_size(5).target_coverage(1.5).build().unwrap_err(),
            ConfigError::BadCoverage(1.5)
        );
        assert_eq!(
            CrawlConfig::builder().target_coverage(0.9).build().unwrap_err(),
            ConfigError::CoverageNeedsTargetSize
        );
        assert_eq!(
            CrawlConfig::builder().deadline(Duration::ZERO).build().unwrap_err(),
            ConfigError::ZeroDeadline
        );
        assert!(CrawlConfig::builder().deadline(Duration::from_millis(50)).build().is_ok());
        assert!(CrawlConfig::builder()
            .max_rounds(10_000)
            .known_target_size(5)
            .target_coverage(0.9)
            .build()
            .is_ok());
    }

    #[test]
    fn checkpoint_every_needs_a_journal() {
        assert_eq!(
            CrawlConfig::builder().checkpoint_every(10).build().unwrap_err(),
            ConfigError::CheckpointNeedsJournal
        );
        assert_eq!(
            CrawlConfig::builder().journal_path("j").checkpoint_every(0).build().unwrap_err(),
            ConfigError::ZeroBudget("checkpoint_every")
        );
        let config = CrawlConfig::builder().journal_path("j").checkpoint_every(10).build();
        assert_eq!(config.unwrap().checkpoint_every, Some(10));
    }
}
