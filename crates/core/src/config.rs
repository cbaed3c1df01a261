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
use crate::source::{CancelToken, ProberMode};
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
    /// Jitter seed. `None` keeps the exact exponential schedule; `Some(s)`
    /// draws each wait uniformly from `[1, exponential]`, decorrelating
    /// retry storms across clients that share a fault (see
    /// [`backoff_jittered`](RetryPolicy::backoff_jittered)).
    pub jitter_seed: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 0, backoff_base: 1, backoff_cap: 64, jitter_seed: None }
    }
}

impl RetryPolicy {
    /// A policy with `n` retries and the default backoff schedule.
    pub fn retries(n: u32) -> Self {
        RetryPolicy { max_retries: n, ..Default::default() }
    }

    /// The same policy with jittered backoff seeded by `seed` (typically the
    /// crawl seed, so the schedule is deterministic per crawl).
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// Simulated rounds to wait before retry attempt `attempt` (1-based),
    /// on the exact exponential schedule (ignores jitter). Attempt 0 is the
    /// initial request: no wait.
    pub fn backoff_before(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let exp = (attempt - 1).min(63);
        self.backoff_base.saturating_mul(1u64 << exp).min(self.backoff_cap)
    }

    /// Jittered backoff before retry `attempt`: with a jitter seed, a
    /// deterministic draw from `[1, backoff_before(attempt)]` keyed on
    /// `(seed, salt, attempt)` — same seed and salt, same schedule; clients
    /// retrying the same fault with different salts (e.g. their elapsed
    /// round counts) spread out instead of hammering in lockstep. Without a
    /// seed this is exactly [`backoff_before`](RetryPolicy::backoff_before).
    pub fn backoff_jittered(&self, attempt: u32, salt: u64) -> u64 {
        let exact = self.backoff_before(attempt);
        match self.jitter_seed {
            None => exact,
            Some(seed) if exact > 1 => {
                let draw = crate::fault::splitmix64(
                    seed ^ salt.rotate_left(17)
                        ^ u64::from(attempt).wrapping_mul(crate::fault::SPLITMIX_STEP),
                );
                1 + draw % exact
            }
            Some(_) => exact,
        }
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
    /// A client pool needs at least one connection.
    ZeroConnections,
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
    /// A memory budget of zero megabytes cannot size a buffer pool or page
    /// cache.
    ZeroMemBudget,
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
            ConfigError::ZeroConnections => {
                write!(f, "a client pool needs at least one connection")
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
            ConfigError::ZeroMemBudget => {
                write!(f, "memory budget must be at least 1 MiB")
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
    /// Stop after this many queries.
    pub max_queries: Option<u64>,
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
    /// Shared memory budget, in MiB, for out-of-core serving: the driver
    /// splits it between the segment-store buffer pool and the server's
    /// rendered-page cache (see `dwc_store::MemoryBudget`). `None` keeps the
    /// fully resident defaults.
    pub mem_budget_mb: Option<u64>,
    /// Per-request deadline: each page request's [`crate::SourceRequest`]
    /// carries `now + deadline` as its absolute deadline. In-process sources
    /// answer instantly and ignore it; a [`crate::serve::SourceService`]
    /// cancels (and bills) requests still queued past it.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation for the whole crawl: when the token fires,
    /// the executor stops submitting requests and the driver finalizes the
    /// report with [`crate::StopReason::Cancelled`].
    pub cancel: Option<CancelToken>,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            max_rounds: None,
            max_queries: None,
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
            mem_budget_mb: None,
            deadline: None,
            cancel: None,
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

    /// Caps issued queries. Must be positive.
    pub fn max_queries(mut self, queries: u64) -> Self {
        self.config.max_queries = Some(queries);
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

    /// Seeds jittered retry backoff (typically with the crawl seed):
    /// deterministic per seed, decorrelated across clients. See
    /// [`RetryPolicy::backoff_jittered`].
    pub fn retry_jitter(mut self, seed: u64) -> Self {
        self.config.retry.jitter_seed = Some(seed);
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

    /// Sets the shared out-of-core memory budget in MiB. Must be positive.
    pub fn mem_budget_mb(mut self, mb: u64) -> Self {
        self.config.mem_budget_mb = Some(mb);
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

    /// Attaches a crawl-wide cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.config.cancel = Some(token);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<CrawlConfig, ConfigError> {
        let c = &self.config;
        if c.max_rounds == Some(0) {
            return Err(ConfigError::ZeroBudget("max_rounds"));
        }
        if c.max_queries == Some(0) {
            return Err(ConfigError::ZeroBudget("max_queries"));
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
        if c.mem_budget_mb == Some(0) {
            return Err(ConfigError::ZeroMemBudget);
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let r =
            RetryPolicy { max_retries: 10, backoff_base: 2, backoff_cap: 9, ..Default::default() };
        assert_eq!(r.backoff_before(0), 0);
        assert_eq!(r.backoff_before(1), 2);
        assert_eq!(r.backoff_before(2), 4);
        assert_eq!(r.backoff_before(3), 8);
        assert_eq!(r.backoff_before(4), 9, "capped");
        assert_eq!(r.backoff_before(100), 9, "huge attempts saturate, no overflow");
    }

    #[test]
    fn jittered_backoff_is_seeded_bounded_and_decorrelated() {
        let base =
            RetryPolicy { max_retries: 8, backoff_base: 4, backoff_cap: 64, jitter_seed: None };
        // No seed: jittered == exact for every attempt and salt.
        for attempt in 0..6 {
            assert_eq!(base.backoff_jittered(attempt, 17), base.backoff_before(attempt));
        }
        let jittered = base.with_jitter(42);
        assert_eq!(jittered.backoff_jittered(0, 0), 0, "attempt 0 never waits");
        let mut varied = false;
        for attempt in 1..=8 {
            let exact = jittered.backoff_before(attempt);
            for salt in 0..16 {
                let wait = jittered.backoff_jittered(attempt, salt);
                assert!((1..=exact).contains(&wait), "jitter stays in [1, exponential]");
                assert_eq!(
                    wait,
                    jittered.backoff_jittered(attempt, salt),
                    "same (seed, salt, attempt) must redraw identically"
                );
                if wait != jittered.backoff_jittered(attempt, salt + 1) {
                    varied = true;
                }
            }
        }
        assert!(varied, "different salts must spread the schedule");
        // Different seeds decorrelate the schedules.
        let other = base.with_jitter(43);
        assert!(
            (1..=8).any(|a| jittered.backoff_jittered(a, 5) != other.backoff_jittered(a, 5)),
            "seeds 42 and 43 should not produce identical schedules"
        );
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
            CrawlConfig::builder().max_queries(0).build().unwrap_err(),
            ConfigError::ZeroBudget("max_queries")
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
        assert_eq!(
            CrawlConfig::builder().mem_budget_mb(0).build().unwrap_err(),
            ConfigError::ZeroMemBudget
        );
        assert!(CrawlConfig::builder().mem_budget_mb(64).build().is_ok());
        assert!(CrawlConfig::builder()
            .deadline(Duration::from_millis(50))
            .cancel(CancelToken::new())
            .build()
            .is_ok());
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
