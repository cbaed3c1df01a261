//! Fleet crawling on a bounded pool of worker threads.
//!
//! The paper closes with "our future work also includes the implementation
//! and deployment of a real world product database crawler" — a crawler that
//! faces *many* crawl jobs at once under one global communication budget
//! (e.g. a comparison-shopping engine harvesting every DVD store it knows).
//! This module provides that deployment layer on top of [`crate::Crawler`]:
//!
//! * each job is a **parked state machine** around its own crawler (own
//!   policy, own vocabulary, own `DB_local`); between budget slices the
//!   crawler sits in a coordinator-owned slot, owning no thread;
//! * slices are multiplexed onto a bounded [`Pool`] of
//!   [`FleetConfig::workers`] threads (default `available_parallelism`,
//!   capped at the job count) draining one FIFO queue ([`crate::sched`]),
//!   so a 10k-job fleet runs on 8 threads instead of 10k threads × ~8 MB
//!   of stack, and one slow source holds only the worker running it;
//! * jobs are generic over [`DataSource`], so a fleet can mix distinct
//!   servers with *shared* ones — pass `Arc<WebDbServer>` clones and N
//!   jobs probe the same source concurrently, every page request landing
//!   in the same atomic round counter (partitioned crawling of one large
//!   source, e.g. different seed regions of the same store);
//! * the global budget is handed out in *slices*, split across jobs by an
//!   [`AllocationStrategy`]: evenly, or proportionally to each job's
//!   observed recent harvest rate — the fleet-level analogue of per-query
//!   selection (spend the next rounds where they buy the most new records);
//!   grants in a cycle are clamped to the remaining global budget;
//! * jobs are billed in **elapsed rounds** — page requests plus retry
//!   backoff waits ([`crate::RetryPolicy`]) — so a job stuck retrying a
//!   flaky source drains its own budget, not its siblings';
//! * a job whose frontier dries up stops drawing budget, and under
//!   proportional allocation a saturating job gradually loses budget to
//!   fresher ones;
//! * every scheduling fact is observable: the coordinator records
//!   [`CrawlEvent::SliceScheduled`] / [`CrawlEvent::SliceCompleted`] on a
//!   fleet-level [`MetricsRegistry`], and [`FleetReport::scheduler`] is
//!   derived from that stream ([`MetricsRegistry::scheduler_stats`]).
//!
//! Reports depend only on the allocator's per-cycle grants, never on which
//! worker ran a slice: the coordinator queues at most one slice per job
//! per cycle and waits for the whole batch. With `workers = 1` the pool
//! drains slices strictly in submission order and the coordinator folds
//! outcomes in that same order, so a fixed-seed fleet run is bit-for-bit
//! reproducible, event stream included.
//!
//! # Supervision
//!
//! Every fleet is supervised; there is no unsupervised mode:
//!
//! * every slice runs under [`std::panic::catch_unwind`] — isolation is
//!   per *slice*, not per thread, so a panicking job never takes a pool
//!   worker (or its queued siblings) down with it, and a panic never
//!   unwinds out of [`run_fleet`];
//! * the worker hands the victim's source handle back
//!   ([`Crawler::into_source`]) and the coordinator rebuilds the job over
//!   it from a small per-job record (policy, seeds, config, starting
//!   checkpoint): from its state journal ([`CrawlConfig::journal_path`])
//!   through [`StateJournal::recover`] — the recovery path of every crawl
//!   and of `dwc resume` — when it recovers, else from its starting
//!   [`FleetJob::resume`] or its seeds. Completed rounds are not re-billed,
//!   a journaled job repeats at most the query in flight, and no source
//!   ever needs to be `Clone`;
//! * a job that panics more than [`FleetConfig::max_restarts`] times is
//!   abandoned with [`StopReason::WorkerFailed`] instead of wedging the
//!   fleet;
//! * each job runs behind a per-source [`CircuitBreaker`]: a job whose
//!   consecutive-failure streak reaches [`BreakerConfig::trip_after`] is
//!   paused *by not being scheduled* — no thread blocks on it — its budget
//!   flows to healthy jobs, and after the cooldown a half-open probe slice
//!   decides between recovery and another pause;
//! * jobs whose retry policy was left on the fail-fast
//!   [`RetryPolicy::default`] get [`FleetConfig::default_retry`]
//!   substituted, so a fleet never hammers a flaky source without backoff
//!   by accident;
//! * every supervision fact — breaker phase transition, worker restart,
//!   abandonment — is recorded as a [`CrawlEvent`] on a per-job
//!   [`MetricsRegistry`], and [`FleetReport::health`] is *derived* from
//!   those streams ([`MetricsRegistry::job_health`]); the supervisor keeps
//!   no tallies of its own.
//!
//! On fault-free sources none of this fires, and the reports are those of
//! the bare scheduler.

use crate::checkpoint::Checkpoint;
use crate::config::{ConfigError, RetryPolicy};
use crate::crawler::{CrawlConfig, CrawlReport, Crawler, StopReason};
use crate::events::CrawlEvent;
use crate::health::{BreakerConfig, CircuitBreaker, JobHealth};
use crate::journal::StateJournal;
use crate::metrics::MetricsRegistry;
use crate::policy::PolicyKind;
use crate::sched::{Pool, SchedulerStats, TaskCtx};
use crate::source::DataSource;
use crate::tenant::{validate_tenants, Tenant, TenantId, UsageLedger};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How the global round budget is divided across jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationStrategy {
    /// Every active job gets the same share of every slice.
    Even,
    /// Each slice is divided proportionally to the jobs' mean normalized
    /// harvest rates over their recent queries (floored at 5% so a job is
    /// never starved before it can prove itself).
    HarvestProportional,
    /// Deficit round-robin over tenant weights ([`FleetConfig::tenants`]):
    /// each slice is split across the *tenants* with active jobs in exact
    /// weight proportion (largest-remainder rounding, so grants always sum
    /// to the slice), clamped to each tenant's remaining
    /// [`Tenant::round_quota`]; rounds a tenant was entitled to but not
    /// granted carry over as a deficit, and rounds freed by quota clamping
    /// are redistributed to tenants with headroom. Within a tenant the
    /// grant is split evenly over its jobs, rotating the remainder. With an
    /// empty registry every job is its own implicit weight-1 tenant.
    WeightedFair,
}

impl AllocationStrategy {
    /// Builds the stateful [`Allocator`] implementing this strategy. The
    /// fleet constructs exactly one allocator per run and calls it once per
    /// cycle.
    pub fn build_allocator(&self) -> Box<dyn Allocator> {
        match self {
            AllocationStrategy::Even => Box::new(EvenAllocator),
            AllocationStrategy::HarvestProportional => Box::new(HarvestAllocator),
            AllocationStrategy::WeightedFair => Box::new(WeightedFairAllocator::default()),
        }
    }
}

/// One crawl job of the fleet.
///
/// `S` is any [`DataSource`] handle a pool worker can own while the job's
/// slice runs: a `WebDbServer` (exclusive), an `Arc<WebDbServer>` (shared
/// with other jobs), or a [`crate::FaultPlanSource`]-wrapped source.
pub struct FleetJob<S: DataSource> {
    /// The target source handle.
    pub source: S,
    /// Selection policy for this job.
    pub policy: PolicyKind,
    /// Seed values (attribute name, value string). Ignored when `resume`
    /// is set — a resumed crawl re-enters its persisted frontier instead.
    pub seeds: Vec<(String, String)>,
    /// Per-job config template (budgets are driven by the fleet; leave
    /// `max_rounds` unset).
    pub config: CrawlConfig,
    /// Start from this checkpoint instead of the seeds. The checkpointed
    /// rounds count against [`FleetConfig::total_rounds`].
    pub resume: Option<Checkpoint>,
    /// The tenant this job runs (and is billed) under. Must name an entry
    /// of [`FleetConfig::tenants`] when the registry is non-empty; must be
    /// `None` when the fleet is tenant-blind (empty registry).
    pub tenant: Option<TenantId>,
}

/// Fleet-level configuration. Prefer [`FleetConfig::builder`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Total elapsed rounds across all jobs (requests + backoff waits).
    pub total_rounds: u64,
    /// Rounds distributed per allocation slice.
    pub slice: u64,
    /// Budget split strategy.
    pub allocation: AllocationStrategy,
    /// Pool worker threads. `None` (the default) resolves to
    /// `std::thread::available_parallelism()`; the resolved count is capped
    /// at the job count (idle workers buy nothing). `Some(0)` is rejected
    /// by the builder.
    pub workers: Option<usize>,
    /// Retry schedule substituted into any job whose config still carries
    /// the fail-fast [`RetryPolicy::default`] (`max_retries: 0`). Defaults
    /// to 4 retries — a fleet-scale crawl against sources that can throttle
    /// should never fail fast by accident. A job that *wants* to fail fast
    /// must say so with a non-default schedule (e.g. `backoff_cap: 63`).
    pub default_retry: RetryPolicy,
    /// Slice restarts per job before the job is abandoned with
    /// [`StopReason::WorkerFailed`].
    pub max_restarts: u32,
    /// Per-source circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// The tenant registry. Empty (the default) means tenant-blind: no
    /// quotas, no weighted fairness, no per-tenant metering — exactly the
    /// pre-tenancy engine. Non-empty means every job must name one of
    /// these tenants.
    pub tenants: Vec<Tenant>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            total_rounds: 10_000,
            slice: 500,
            allocation: AllocationStrategy::Even,
            workers: None,
            default_retry: RetryPolicy::retries(4),
            max_restarts: 3,
            breaker: BreakerConfig::default(),
            tenants: Vec::new(),
        }
    }
}

impl FleetConfig {
    /// Starts building a validated configuration.
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder { config: FleetConfig::default() }
    }

    /// The worker-thread count this configuration resolves to for a fleet
    /// of `jobs` jobs: the configured [`FleetConfig::workers`] (or
    /// `available_parallelism` when unset), capped at the job count,
    /// floored at 1.
    pub fn resolved_workers(&self, jobs: usize) -> usize {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        self.workers.unwrap_or(hw).min(jobs.max(1)).max(1)
    }
}

/// Builder for [`FleetConfig`]; see [`FleetConfig::builder`].
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// Sets the global round budget. Must be positive.
    pub fn total_rounds(mut self, rounds: u64) -> Self {
        self.config.total_rounds = rounds;
        self
    }

    /// Sets the per-slice grant size. Must be positive.
    pub fn slice(mut self, slice: u64) -> Self {
        self.config.slice = slice;
        self
    }

    /// Sets the budget split strategy.
    pub fn allocation(mut self, allocation: AllocationStrategy) -> Self {
        self.config.allocation = allocation;
        self
    }

    /// Sets the pool worker-thread count. Must be positive; leave unset for
    /// `available_parallelism`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = Some(workers);
        self
    }

    /// Sets the retry schedule substituted into jobs left on
    /// [`RetryPolicy::default`].
    pub fn default_retry(mut self, retry: RetryPolicy) -> Self {
        self.config.default_retry = retry;
        self
    }

    /// Sets slice restarts per job before abandonment.
    pub fn max_restarts(mut self, restarts: u32) -> Self {
        self.config.max_restarts = restarts;
        self
    }

    /// Sets the per-source circuit-breaker thresholds.
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.config.breaker = breaker;
        self
    }

    /// Sets the tenant registry. Validated at [`FleetConfigBuilder::build`]:
    /// zero weights, zero quotas and duplicate ids are all rejected.
    pub fn tenants(mut self, tenants: Vec<Tenant>) -> Self {
        self.config.tenants = tenants;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<FleetConfig, ConfigError> {
        if self.config.total_rounds == 0 {
            return Err(ConfigError::ZeroBudget("total_rounds"));
        }
        if self.config.slice == 0 {
            return Err(ConfigError::ZeroBudget("slice"));
        }
        if self.config.workers == Some(0) {
            return Err(ConfigError::ZeroBudget("workers"));
        }
        validate_tenants(&self.config.tenants)?;
        Ok(self.config)
    }
}

/// Validates a fleet's jobs against its tenant registry: with a non-empty
/// registry every job must name a known tenant; with an empty registry
/// no job may name one. [`run_fleet`] asserts this; callers that want a
/// recoverable error (the CLI) check first.
pub fn validate_fleet_jobs<S: DataSource>(
    jobs: &[FleetJob<S>],
    config: &FleetConfig,
) -> Result<(), ConfigError> {
    let registry = &config.tenants;
    jobs.iter().try_for_each(|job| match job.tenant {
        Some(id) if !registry.iter().any(|t| t.id == id) => Err(ConfigError::UnknownTenant(id.0)),
        None if !registry.is_empty() => Err(ConfigError::MissingTenant),
        _ => Ok(()),
    })
}

/// Result of a fleet crawl: one report per job, in input order.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-job crawl reports.
    pub sources: Vec<CrawlReport>,
    /// Total elapsed rounds actually spent across the fleet.
    pub total_rounds: u64,
    /// Per-job fault-tolerance counters, in input order. All-zero for jobs
    /// that never panicked or tripped their breaker.
    pub health: Vec<JobHealth>,
    /// Scheduler counters, derived from the fleet-level
    /// [`CrawlEvent::SliceScheduled`] / [`CrawlEvent::SliceCompleted`]
    /// stream.
    pub scheduler: SchedulerStats,
    /// Per-tenant usage ledgers, sorted by tenant id, derived by folding
    /// the fleet event stream ([`MetricsRegistry::usage_ledgers`]). Empty
    /// for tenant-blind fleets. The `rounds` fields sum exactly to
    /// [`FleetReport::total_rounds`] when every job is tenanted.
    pub usage: Vec<(TenantId, UsageLedger)>,
    /// The fleet-level event stream the scheduler and usage sections are
    /// folds of — replaying it through [`MetricsRegistry`] reproduces both
    /// bit-for-bit ([`crate::metrics::replay_usage`]).
    pub events: Vec<CrawlEvent>,
}

impl FleetReport {
    /// Total records harvested across all jobs.
    pub fn total_records(&self) -> u64 {
        self.sources.iter().map(|r| r.records).sum()
    }

    /// Total circuit-breaker trips across all jobs.
    pub fn breaker_trips(&self) -> u64 {
        self.health.iter().map(|h| h.breaker_trips).sum()
    }

    /// Total circuit-breaker recoveries across all jobs.
    pub fn breaker_recoveries(&self) -> u64 {
        self.health.iter().map(|h| h.breaker_recoveries).sum()
    }

    /// Total worker restarts across all jobs.
    pub fn worker_restarts(&self) -> u64 {
        self.health.iter().map(|h| u64::from(h.worker_restarts)).sum()
    }
}

/// One allocation cycle's inputs, handed to an [`Allocator`] by the fleet
/// coordinator. Job-indexed slices (`rates`, `tenant_of`) cover *all* jobs;
/// the allocator must only grant to indices listed in `active`.
pub struct AllocCycle<'a> {
    /// Indices of schedulable jobs: not done, breaker closed, tenant not
    /// quota-parked.
    pub active: &'a [usize],
    /// Per-job recent normalized harvest rates.
    pub rates: &'a [f64],
    /// Rounds left in the global budget; grants must never sum past it.
    pub remaining: u64,
    /// Configured per-cycle slice size ([`FleetConfig::slice`]).
    pub slice: u64,
    /// Per-job tenant slot: an index into `tenants`, `None` for
    /// tenant-blind jobs.
    pub tenant_of: &'a [Option<usize>],
    /// The tenant registry ([`FleetConfig::tenants`]); may be empty.
    pub tenants: &'a [Tenant],
    /// Rounds billed so far per tenant slot (for quota clamping), indexed
    /// like `tenants`.
    pub tenant_used: &'a [u64],
}

impl AllocCycle<'_> {
    /// The rounds actually divisible this cycle: one slice, clamped to the
    /// remaining global budget.
    fn cycle_slice(&self) -> u64 {
        self.remaining.min(self.slice)
    }
}

/// Splits one slice of the remaining budget across the active jobs,
/// returning `(job index, grant)` pairs whose grants never sum past the
/// slice (and therefore never past the remaining global budget).
///
/// Allocators may be stateful (deficit counters, rotation cursors). The
/// fleet constructs exactly one allocator per run and calls it once per
/// cycle, after folding every outcome of the previous cycle, so the grant
/// sequence — and hence the reports on deterministic sources — does not
/// depend on the pool width.
pub trait Allocator {
    /// Computes this cycle's grants.
    fn allocate(&mut self, cycle: &AllocCycle<'_>) -> Vec<(usize, u64)>;
}

/// [`AllocationStrategy::Even`]: every active job gets the same share of
/// every slice (`slice / active`, floored at one round), clamped in job
/// order so the cycle never overspends the slice.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvenAllocator;

impl Allocator for EvenAllocator {
    fn allocate(&mut self, cycle: &AllocCycle<'_>) -> Vec<(usize, u64)> {
        if cycle.active.is_empty() || cycle.remaining == 0 {
            return Vec::new();
        }
        let slice = cycle.cycle_slice();
        let each = (slice / cycle.active.len() as u64).max(1);
        clamp_shares(cycle.active, cycle.active.iter().map(|_| each), slice)
    }
}

/// [`AllocationStrategy::HarvestProportional`]: each slice is divided
/// proportionally to the jobs' recent harvest rates, floored at 5% so a
/// job is never starved before it can prove itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct HarvestAllocator;

impl Allocator for HarvestAllocator {
    fn allocate(&mut self, cycle: &AllocCycle<'_>) -> Vec<(usize, u64)> {
        if cycle.active.is_empty() || cycle.remaining == 0 {
            return Vec::new();
        }
        let slice = cycle.cycle_slice();
        const FLOOR: f64 = 0.05;
        let weights: Vec<f64> = cycle.active.iter().map(|&i| cycle.rates[i].max(FLOOR)).collect();
        let total: f64 = weights.iter().sum();
        let shares = weights.iter().map(|w| (((w / total) * slice as f64).round() as u64).max(1));
        clamp_shares(cycle.active, shares, slice)
    }
}

/// Sequentially clamps per-job shares to the slice: the shared tail of the
/// pre-tenancy `allocate()`, byte-identical so `Even` and
/// `HarvestProportional` fleets reproduce pre-refactor grant sequences.
fn clamp_shares(
    active: &[usize],
    shares: impl Iterator<Item = u64>,
    slice: u64,
) -> Vec<(usize, u64)> {
    let mut cycle_left = slice;
    active
        .iter()
        .zip(shares)
        .filter_map(|(&i, share)| {
            let grant = share.min(cycle_left);
            cycle_left -= grant;
            (grant > 0).then_some((i, grant))
        })
        .collect()
}

/// [`AllocationStrategy::WeightedFair`]: deficit round-robin over tenant
/// weights.
///
/// Per cycle: tenants with active jobs are entitled to weight-proportional
/// shares of the slice (largest-remainder rounding — entitlements sum to
/// the slice *exactly*); each tenant's grant is its entitlement plus any
/// carried deficit, clamped to its quota headroom and the rounds left in
/// the cycle; rounds freed by quota clamping are redistributed to tenants
/// with headroom; whatever a tenant was owed but not granted carries over
/// as a deficit (capped at one slice, so a parked tenant cannot hoard an
/// unbounded claim). The tenant's grant is then split evenly over its
/// active jobs, rotating which jobs absorb the remainder so no job is
/// systematically favored.
#[derive(Debug, Clone, Default)]
pub struct WeightedFairAllocator {
    /// Rounds owed per tenant slot (entitled but not granted), carried
    /// across cycles. Indexed by tenant slot — or by job index when the
    /// registry is empty and every job is its own implicit tenant.
    deficits: Vec<u64>,
    /// Per-slot rotation cursor for intra-tenant remainder placement.
    cursors: Vec<usize>,
}

impl Allocator for WeightedFairAllocator {
    fn allocate(&mut self, cycle: &AllocCycle<'_>) -> Vec<(usize, u64)> {
        if cycle.active.is_empty() || cycle.remaining == 0 {
            return Vec::new();
        }
        let slice = cycle.cycle_slice();
        // Group active jobs by tenant slot, in registry order. With an
        // empty registry every job is its own implicit weight-1 tenant.
        struct Group {
            slot: usize,
            weight: u64,
            headroom: u64,
            jobs: Vec<usize>,
        }
        let groups: Vec<Group> = if cycle.tenants.is_empty() {
            cycle
                .active
                .iter()
                .map(|&j| Group { slot: j, weight: 1, headroom: u64::MAX, jobs: vec![j] })
                .collect()
        } else {
            cycle
                .tenants
                .iter()
                .enumerate()
                .filter_map(|(slot, t)| {
                    let jobs: Vec<usize> = cycle
                        .active
                        .iter()
                        .copied()
                        .filter(|&j| cycle.tenant_of[j] == Some(slot))
                        .collect();
                    if jobs.is_empty() {
                        return None;
                    }
                    let headroom = t
                        .round_quota
                        .map_or(u64::MAX, |q| q.saturating_sub(cycle.tenant_used[slot]));
                    (headroom > 0).then_some(Group {
                        slot,
                        weight: u64::from(t.weight),
                        headroom,
                        jobs,
                    })
                })
                .collect()
        };
        if groups.is_empty() {
            return Vec::new();
        }
        let slots = groups.iter().map(|g| g.slot).max().unwrap_or(0) + 1;
        if self.deficits.len() < slots {
            self.deficits.resize(slots, 0);
            self.cursors.resize(slots, 0);
        }
        // Entitlements by largest remainder: floor(slice·w/W) each, then
        // the leftover rounds go one apiece to the largest fractional
        // remainders (ties to the earliest slot) — summing to the slice.
        let total_w: u128 = groups.iter().map(|g| u128::from(g.weight)).sum();
        let mut entitled: Vec<u64> = groups
            .iter()
            .map(|g| (u128::from(slice) * u128::from(g.weight) / total_w) as u64)
            .collect();
        let mut leftover = slice - entitled.iter().sum::<u64>();
        let mut by_rem: Vec<usize> = (0..groups.len()).collect();
        by_rem.sort_by_key(|&gi| {
            std::cmp::Reverse(u128::from(slice) * u128::from(groups[gi].weight) % total_w)
        });
        for &gi in &by_rem {
            if leftover == 0 {
                break;
            }
            entitled[gi] += 1;
            leftover -= 1;
        }
        // Grant pass: entitlement + carried deficit, clamped to quota
        // headroom and the rounds left in the cycle.
        let mut cycle_left = slice;
        let mut wants = vec![0u64; groups.len()];
        let mut grants = vec![0u64; groups.len()];
        for (gi, g) in groups.iter().enumerate() {
            wants[gi] = entitled[gi].saturating_add(self.deficits[g.slot]);
            let grant = wants[gi].min(g.headroom).min(cycle_left);
            grants[gi] = grant;
            cycle_left -= grant;
        }
        // Redistribution pass: rounds freed by quota clamping flow to
        // tenants that still have headroom, in slot order.
        for (gi, g) in groups.iter().enumerate() {
            if cycle_left == 0 {
                break;
            }
            let extra = g.headroom.saturating_sub(grants[gi]).min(cycle_left);
            grants[gi] += extra;
            cycle_left -= extra;
        }
        // Carry what each tenant was owed but not granted, capped at one
        // slice.
        for (gi, g) in groups.iter().enumerate() {
            self.deficits[g.slot] = wants[gi].saturating_sub(grants[gi]).min(slice);
        }
        // Intra-tenant split: even shares, remainder rotated across jobs.
        let mut out = Vec::new();
        for (gi, g) in groups.iter().enumerate() {
            let grant = grants[gi];
            if grant == 0 {
                continue;
            }
            let k = g.jobs.len();
            let each = grant / k as u64;
            let rem = (grant % k as u64) as usize;
            let offset = self.cursors[g.slot] % k;
            for (pos, &job) in g.jobs.iter().enumerate() {
                let rotated = (pos + k - offset) % k;
                let share = each + u64::from(rotated < rem);
                if share > 0 {
                    out.push((job, share));
                }
            }
            self.cursors[g.slot] = self.cursors[g.slot].wrapping_add(1);
        }
        out.sort_unstable_by_key(|&(job, _)| job);
        out
    }
}

/// One budget slice queued on the pool: a parked crawler plus its grant.
struct SliceTask<S: DataSource> {
    idx: usize,
    crawler: Crawler<S>,
    grant: u64,
}

/// What a pool worker hands back after executing (or crashing on) a slice.
struct SliceOutcome<S: DataSource> {
    idx: usize,
    worker: u32,
    end: SliceEnd<S>,
}

/// How a slice ended. Moved by value once per slice; boxing the crawler
/// would only add an allocation to every slice.
#[allow(clippy::large_enum_variant)]
enum SliceEnd<S: DataSource> {
    /// The grant was spent or the frontier dried up; the crawler returns to
    /// its coordinator slot.
    Parked {
        crawler: Crawler<S>,
        /// Elapsed rounds billed during this slice alone.
        slice_rounds: u64,
        recent_rate: f64,
        exhausted: bool,
    },
    /// The slice panicked. The crawler's in-memory state is suspect, so only
    /// its source handle comes back; the coordinator rebuilds the job over
    /// it from its journal's last completed query.
    Panicked(S),
}

/// Executes one slice on a pool worker: steps the crawler until the grant
/// is spent or the frontier dries up, under `catch_unwind` so a panicking
/// job is isolated per *slice* and the worker thread survives.
fn slice_handler<S: DataSource>(ctx: TaskCtx, task: SliceTask<S>) -> SliceOutcome<S> {
    let SliceTask { idx, mut crawler, grant } = task;
    let before = crawler.elapsed_rounds();
    let target = before + grant;
    let stepped = catch_unwind(AssertUnwindSafe(|| {
        let mut exhausted = false;
        while !exhausted && crawler.elapsed_rounds() < target {
            exhausted = crawler.step().is_none();
        }
        exhausted
    }));
    let end = match stepped {
        Ok(exhausted) => SliceEnd::Parked {
            slice_rounds: crawler.elapsed_rounds() - before,
            recent_rate: crawler.state().recent_harvest_mean(8).unwrap_or(if exhausted {
                0.0
            } else {
                1.0
            }),
            exhausted,
            crawler,
        },
        Err(_) => SliceEnd::Panicked(crawler.into_source()),
    };
    SliceOutcome { idx, worker: ctx.worker, end }
}

/// Everything of a [`FleetJob`] the coordinator keeps to rebuild the job
/// after a panicked slice: the source comes back from the suspect crawler,
/// and the tenant is coordinator state, not crawler state.
struct Recipe {
    policy: PolicyKind,
    seeds: Vec<(String, String)>,
    config: CrawlConfig,
    resume: Option<Checkpoint>,
}

impl Recipe {
    /// Builds the job's crawler over `source`: resumed from `checkpoint`,
    /// else from the job's starting [`FleetJob::resume`], else fresh from
    /// its seeds.
    fn build<S: DataSource>(&self, source: S, checkpoint: Option<&Checkpoint>) -> Crawler<S> {
        let config = self.config.clone();
        match checkpoint.or(self.resume.as_ref()) {
            Some(cp) => Crawler::resume(source, self.policy.build(), cp, config),
            None => {
                let mut c = Crawler::new(source, self.policy.build(), config);
                for (a, v) in &self.seeds {
                    c.add_seed(a, v);
                }
                c
            }
        }
    }

    /// The job's state after its last journaled query, if its journal
    /// recovers.
    fn last_checkpoint(&self) -> Option<Checkpoint> {
        let path = self.config.journal_path.as_deref()?;
        StateJournal::recover(path).ok().flatten().map(|rec| rec.checkpoint)
    }
}

/// One job as the coordinator tracks it.
struct Slot<S: DataSource> {
    recipe: Recipe,
    /// Index into [`FleetConfig::tenants`]; `None` for tenant-blind jobs.
    tenant: Option<usize>,
    /// The parked crawler: `None` while its slice is in flight, and for
    /// good once the job left early (`report` is set then).
    crawler: Option<Crawler<S>>,
    /// Recent normalized harvest rate, the proportional allocator's input.
    rate: f64,
    /// No more slices: frontier exhausted or abandoned.
    done: bool,
    /// Parked by cooperative preemption (tenant over quota). Parked is not
    /// done: the job finalizes with [`StopReason::QuotaExhausted`].
    parked: bool,
    /// Billed elapsed rounds and page requests: running maxima over every
    /// crawler the job has had, so a restart never un-bills.
    rounds: u64,
    pages: u64,
    breaker: CircuitBreaker,
    /// The job's supervision events; [`FleetReport::health`] is derived
    /// from these, never tallied by hand.
    supervision: MetricsRegistry,
    /// The final report of an abandoned job, finalized and billed when it
    /// left.
    report: Option<CrawlReport>,
}

/// The coordinator's event stream: every fleet-level event is recorded on
/// the registry *and* kept verbatim, so [`FleetReport::scheduler`] and
/// [`FleetReport::usage`] are both replayable folds of
/// [`FleetReport::events`].
struct FleetStream {
    registry: MetricsRegistry,
    events: Vec<CrawlEvent>,
}

impl FleetStream {
    fn new() -> FleetStream {
        FleetStream { registry: MetricsRegistry::new(), events: Vec::new() }
    }

    fn emit(&mut self, event: CrawlEvent) {
        self.registry.record(&event);
        self.events.push(event);
    }
}

/// The coordinator's state between allocation cycles. Every crawler is
/// parked in its [`Slot`] here at a cycle boundary, so a restart never
/// races a pool worker.
struct Coordinator<'a, S: DataSource> {
    config: &'a FleetConfig,
    slots: Vec<Slot<S>>,
    /// Rounds billed per tenant slot, the quota-clamping input.
    tenant_used: Vec<u64>,
    stream: FleetStream,
}

impl<S: DataSource> Coordinator<'_, S> {
    fn tenant_id(&self, tenant: Option<usize>) -> Option<u32> {
        tenant.map(|t| self.config.tenants[t].id.0)
    }

    /// Adds a job and announces it. A resumed job enters with its
    /// checkpointed rounds already billed.
    fn admit(&mut self, job: FleetJob<S>) {
        let FleetJob { source, policy, seeds, mut config, resume, tenant } = job;
        apply_default_retry(&mut config, self.config);
        let tenant = tenant.and_then(|id| self.config.tenants.iter().position(|t| t.id == id));
        let recipe = Recipe { policy, seeds, config, resume };
        let crawler = recipe.build(source, None);
        let idx = self.slots.len();
        self.slots.push(Slot {
            recipe,
            tenant,
            crawler: None,
            rate: 1.0,
            done: false,
            parked: false,
            rounds: 0,
            pages: 0,
            breaker: CircuitBreaker::new(self.config.breaker),
            supervision: MetricsRegistry::new(),
            report: None,
        });
        self.bill(idx, crawler.elapsed_rounds(), crawler.rounds());
        self.slots[idx].crawler = Some(crawler);
        self.announce(idx);
    }

    /// Raises job `i`'s bill to the given cumulative totals, charging any
    /// newly billed rounds to its tenant.
    fn bill(&mut self, i: usize, rounds: u64, pages: u64) {
        let slot = &mut self.slots[i];
        let before = slot.rounds;
        slot.rounds = before.max(rounds);
        slot.pages = slot.pages.max(pages);
        if let Some(t) = slot.tenant {
            self.tenant_used[t] += slot.rounds - before;
        }
    }

    /// Records that job `i` (re-)entered the fleet with its current bill.
    /// A restart re-announces, which keeps the ledger fold in lockstep with
    /// the coordinator's own max-bookkeeping.
    fn announce(&mut self, i: usize) {
        let slot = &self.slots[i];
        let event = CrawlEvent::JobAttached {
            job: i as u32,
            tenant: self.tenant_id(slot.tenant),
            rounds: slot.rounds,
            pages: slot.pages,
        };
        self.stream.emit(event);
    }

    /// Records that job `i` left the fleet with its final bill.
    fn retire(&mut self, i: usize) {
        let slot = &self.slots[i];
        let event =
            CrawlEvent::JobDetached { job: i as u32, rounds: slot.rounds, pages: slot.pages };
        self.stream.emit(event);
    }

    /// Cooperative preemption at the slice boundary: every job of a tenant
    /// that has consumed its quota is parked — no thread is held, the
    /// crawlers stay in their slots and finalize as QuotaExhausted.
    fn preempt_over_quota(&mut self) {
        let config = self.config;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(t) = slot.tenant else { continue };
            if slot.done || slot.parked {
                continue;
            }
            if config.tenants[t].round_quota.is_some_and(|q| self.tenant_used[t] >= q) {
                slot.parked = true;
                self.stream.emit(CrawlEvent::TenantPreempted {
                    tenant: config.tenants[t].id.0,
                    job: i as u32,
                });
            }
        }
    }

    /// One allocation round passes: open breakers cool toward half-open.
    fn tick_breakers(&mut self) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some((from, to)) = slot.breaker.tick() {
                slot.supervision.record(&CrawlEvent::BreakerTransition { job: i as u32, from, to });
            }
        }
    }

    /// Folds one slice outcome back into the job's slot.
    fn fold(&mut self, out: SliceOutcome<S>) {
        let i = out.idx;
        let (crawler, slice_rounds, recent_rate, exhausted) = match out.end {
            SliceEnd::Parked { crawler, slice_rounds, recent_rate, exhausted } => {
                (crawler, slice_rounds, recent_rate, exhausted)
            }
            SliceEnd::Panicked(source) => return self.recover(i, source),
        };
        let tenant = self.tenant_id(self.slots[i].tenant);
        self.stream.emit(CrawlEvent::SliceCompleted {
            job: i as u32,
            worker: out.worker,
            rounds: slice_rounds,
            tenant,
            total: crawler.elapsed_rounds(),
            pages: crawler.rounds(),
        });
        self.bill(i, crawler.elapsed_rounds(), crawler.rounds());
        let slot = &mut self.slots[i];
        slot.rate = recent_rate;
        slot.done |= exhausted;
        if let Some((from, to)) = slot.breaker.observe(crawler.fault_streak()) {
            slot.supervision.record(&CrawlEvent::BreakerTransition { job: i as u32, from, to });
            // A tripped tenant job is parked off the schedule: that is a
            // preemption, and the ledger says so.
            if let (crate::events::BreakerPhase::Open, Some(tenant)) = (to, tenant) {
                self.stream.emit(CrawlEvent::TenantPreempted { tenant, job: i as u32 });
            }
        }
        slot.crawler = Some(crawler);
    }

    /// Rebuilds job `i` over `source` after a panicked slice — or abandons
    /// it with [`StopReason::WorkerFailed`] once its restart budget is
    /// spent, reporting whatever the last checkpoint proves was harvested.
    fn recover(&mut self, i: usize, source: S) {
        let slot = &mut self.slots[i];
        let checkpoint = slot.recipe.last_checkpoint();
        let crawler = slot.recipe.build(source, checkpoint.as_ref());
        if slot.supervision.worker_restarts() >= self.config.max_restarts {
            slot.supervision.record(&CrawlEvent::JobAbandoned { job: i as u32 });
            slot.done = true;
            slot.report = Some(crawler.into_report(StopReason::WorkerFailed));
            self.retire(i);
            return;
        }
        slot.supervision.record(&CrawlEvent::WorkerRestarted { job: i as u32 });
        // The checkpointed rounds stay billed; only the work since the last
        // snapshot is repeated.
        self.bill(i, checkpoint.map_or(0, |cp| cp.rounds), crawler.rounds());
        self.slots[i].crawler = Some(crawler);
        self.announce(i);
    }

    /// Finalizes every job still in the fleet and assembles the report.
    fn finish(mut self, workers: usize) -> FleetReport {
        let mut sources: Vec<CrawlReport> = Vec::with_capacity(self.slots.len());
        for i in 0..self.slots.len() {
            let slot = &mut self.slots[i];
            if let Some(report) = slot.report.take() {
                // Abandoned: finalized (and billed) when it left.
                sources.push(report);
                continue;
            }
            // Finalizing syncs the job's journal: its last state is what
            // `dwc resume` picks up.
            let crawler = slot.crawler.take().expect("unfinished job has a parked crawler");
            let stop = if slot.done {
                StopReason::FrontierExhausted
            } else if slot.parked {
                StopReason::QuotaExhausted
            } else {
                StopReason::RoundBudget
            };
            let pages = crawler.rounds();
            let report = crawler.into_report(stop);
            self.bill(i, report.elapsed_rounds(), pages);
            self.retire(i);
            sources.push(report);
        }
        let usage = self
            .stream
            .registry
            .usage_ledgers()
            .into_iter()
            .map(|(id, ledger)| (TenantId(id), ledger))
            .collect();
        FleetReport {
            sources,
            total_rounds: self.slots.iter().map(|s| s.rounds).sum(),
            health: self.slots.iter().map(|s| s.supervision.job_health()).collect(),
            scheduler: self.stream.registry.scheduler_stats(workers as u32),
            usage,
            events: self.stream.events,
        }
    }
}

/// Runs the fleet to budget exhaustion (or until every job's frontier is
/// dry) on a bounded pool of [`FleetConfig::resolved_workers`] threads,
/// supervising every job as the [module docs](self) describe: a panicking
/// slice restarts its job from its journal (up to
/// [`FleetConfig::max_restarts`] times, then the job finishes as
/// [`StopReason::WorkerFailed`]), and a job whose failure streak trips its
/// breaker is paused. All accounting is in elapsed rounds (requests +
/// backoff waits).
///
/// The coordinator owns every parked crawler in a slot. Each allocation
/// cycle it parks over-quota tenants, computes grants through the
/// configured [`Allocator`], queues one slice per granted job (those of
/// higher-priority tenants first), and folds the outcomes back into rates
/// / budget / breaker / ledger state — restarting any job whose slice
/// panicked — before the next cycle. A job is never in flight on two
/// workers at once.
pub fn run_fleet<S>(jobs: Vec<FleetJob<S>>, config: FleetConfig) -> FleetReport
where
    S: DataSource + Send + 'static,
{
    assert!(config.slice > 0, "slice must be positive");
    if let Err(e) = validate_fleet_jobs(&jobs, &config) {
        panic!("invalid fleet: {e}");
    }
    let workers = config.resolved_workers(jobs.len());
    let mut fleet = Coordinator {
        config: &config,
        slots: Vec::with_capacity(jobs.len()),
        tenant_used: vec![0; config.tenants.len()],
        stream: FleetStream::new(),
    };
    for job in jobs {
        fleet.admit(job);
    }
    let pool: Pool<SliceTask<S>, SliceOutcome<S>> = Pool::new(workers, slice_handler::<S>);
    let mut allocator = config.allocation.build_allocator();
    loop {
        let spent: u64 = fleet.slots.iter().map(|s| s.rounds).sum();
        let remaining = config.total_rounds.saturating_sub(spent);
        if remaining == 0 || fleet.slots.iter().all(|s| s.done) {
            break;
        }
        fleet.preempt_over_quota();
        fleet.tick_breakers();
        // A tripped or parked job is paused by *not scheduling it* — it
        // holds no thread, its crawler just stays parked in its slot.
        let schedulable = |s: &Slot<S>| !s.done && !s.parked;
        let active: Vec<usize> = (0..fleet.slots.len())
            .filter(|&i| schedulable(&fleet.slots[i]) && !fleet.slots[i].breaker.is_open())
            .collect();
        if active.is_empty() {
            // Distinguish "paused, will resume" (an open breaker cooling
            // toward its half-open probe — tick guarantees progress) from
            // "parked for good" (quota exhaustion): only the former is
            // worth idling for.
            if fleet.slots.iter().any(|s| schedulable(s) && s.breaker.is_open()) {
                continue;
            }
            break;
        }
        let rates: Vec<f64> = fleet.slots.iter().map(|s| s.rate).collect();
        let tenant_of: Vec<Option<usize>> = fleet.slots.iter().map(|s| s.tenant).collect();
        let mut grants = allocator.allocate(&AllocCycle {
            active: &active,
            rates: &rates,
            remaining,
            slice: config.slice,
            tenant_of: &tenant_of,
            tenants: &config.tenants,
            tenant_used: &fleet.tenant_used,
        });
        if grants.is_empty() {
            break;
        }
        // Priority-aware dispatch: a stable sort puts higher-priority
        // tenants' slices first in the queue, equal priorities in grant
        // order. Order only — grant amounts (and therefore reports) are
        // unaffected.
        grants.sort_by_key(|&(i, _)| {
            std::cmp::Reverse(tenant_of[i].map_or(0, |t| config.tenants[t].priority))
        });
        for &(i, grant) in &grants {
            let crawler = fleet.slots[i].crawler.take().expect("active job has a parked crawler");
            fleet.stream.emit(CrawlEvent::SliceScheduled { job: i as u32, rounds: grant });
            pool.submit(SliceTask { idx: i, crawler, grant });
        }
        for _ in 0..grants.len() {
            fleet.fold(pool.recv());
        }
    }
    pool.join();
    fleet.finish(workers)
}

/// Substitutes the fleet's [`FleetConfig::default_retry`] into a job left on
/// the fail-fast [`RetryPolicy::default`]. An explicitly chosen schedule
/// (any non-default field) passes through untouched; an explicit
/// *fail-fast* wish must be expressed with a non-default schedule, since it
/// is indistinguishable from the unset default.
fn apply_default_retry(job_config: &mut CrawlConfig, fleet: &FleetConfig) {
    if job_config.retry == RetryPolicy::default() {
        job_config.retry = fleet.default_retry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultPlanSource};
    use dwc_server::{InterfaceSpec, WebDbServer};
    use std::sync::Arc;

    fn figure1_server() -> WebDbServer {
        let t = dwc_model::fixtures::figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        WebDbServer::new(t, spec)
    }

    fn scratch_journal(name: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dwc-fleet-{}-{}-{name}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("job.jnl")
    }

    fn job(seed_value: &str) -> FleetJob<WebDbServer> {
        FleetJob {
            source: figure1_server(),
            policy: PolicyKind::GreedyLink,
            seeds: vec![("A".into(), seed_value.to_string())],
            config: CrawlConfig::builder().known_target_size(5).build().unwrap(),
            resume: None,
            tenant: None,
        }
    }

    #[test]
    fn empty_fleet_is_fine() {
        let report = run_fleet(Vec::<FleetJob<WebDbServer>>::new(), FleetConfig::default());
        assert_eq!(report.total_records(), 0);
        assert_eq!(report.scheduler.slices_scheduled, 0);
    }

    #[test]
    fn fleet_crawls_every_source_to_exhaustion() {
        let jobs = vec![job("a2"), job("a2"), job("a3")];
        let config = FleetConfig::builder()
            .total_rounds(1000)
            .slice(10)
            .allocation(AllocationStrategy::Even)
            .build()
            .unwrap();
        let report = run_fleet(jobs, config);
        assert_eq!(report.sources.len(), 3);
        assert_eq!(report.sources[0].records, 5);
        assert_eq!(report.sources[1].records, 5);
        // Source 2 was seeded from a3 and also reaches everything (connected).
        assert_eq!(report.sources[2].records, 5);
        assert!(report.total_rounds <= 1000);
    }

    #[test]
    fn budget_is_respected() {
        let jobs = vec![job("a2"), job("a2")];
        let config = FleetConfig::builder().total_rounds(4).slice(2).build().unwrap();
        let report = run_fleet(jobs, config);
        assert!(
            report.total_rounds <= 6,
            "slight overshoot ≤ one query per source allowed, got {}",
            report.total_rounds
        );
        assert!(report.total_records() > 0);
    }

    #[test]
    fn proportional_allocation_finishes_too() {
        let jobs = vec![job("a2"), job("a1")];
        let config = FleetConfig::builder()
            .total_rounds(100)
            .slice(4)
            .allocation(AllocationStrategy::HarvestProportional)
            .build()
            .unwrap();
        let report = run_fleet(jobs, config);
        assert_eq!(report.sources.len(), 2);
        assert_eq!(report.sources[0].records, 5);
        assert_eq!(report.sources[1].records, 5);
    }

    #[test]
    fn builder_rejects_zero_parameters() {
        assert_eq!(
            FleetConfig::builder().total_rounds(0).build().unwrap_err(),
            ConfigError::ZeroBudget("total_rounds")
        );
        assert_eq!(
            FleetConfig::builder().slice(0).build().unwrap_err(),
            ConfigError::ZeroBudget("slice")
        );
        assert_eq!(
            FleetConfig::builder().workers(0).build().unwrap_err(),
            ConfigError::ZeroBudget("workers")
        );
        assert!(FleetConfig::builder().workers(8).build().is_ok());
    }

    #[test]
    fn workers_resolve_capped_at_job_count() {
        let config = FleetConfig::builder().workers(8).build().unwrap();
        assert_eq!(config.resolved_workers(3), 3);
        assert_eq!(config.resolved_workers(100), 8);
        assert_eq!(config.resolved_workers(0), 1);
        let auto = FleetConfig::default();
        assert!(auto.resolved_workers(1000) >= 1);
    }

    #[test]
    fn two_jobs_share_one_source() {
        // Two jobs crawl the SAME server (different seed regions) — the
        // Arc handles land every request on one global round counter.
        let shared = Arc::new(figure1_server());
        let jobs: Vec<FleetJob<Arc<WebDbServer>>> = ["a2", "a3"]
            .iter()
            .map(|seed| FleetJob {
                source: Arc::clone(&shared),
                policy: PolicyKind::GreedyLink,
                seeds: vec![("A".into(), seed.to_string())],
                config: CrawlConfig::builder().known_target_size(5).build().unwrap(),
                resume: None,
                tenant: None,
            })
            .collect();
        let config = FleetConfig::builder().total_rounds(1000).slice(10).build().unwrap();
        let report = run_fleet(jobs, config);
        assert_eq!(report.sources.len(), 2);
        for r in &report.sources {
            assert_eq!(r.records, 5, "each job harvests the full database");
        }
        let summed: u64 = report.sources.iter().map(|r| r.rounds).sum();
        assert_eq!(
            summed,
            shared.rounds_used(),
            "per-job request counts must add up to the shared global counter"
        );
    }

    #[test]
    fn wide_pool_report_matches_single_worker_run() {
        let make = || vec![job("a2"), job("a1"), job("a3"), job("a2")];
        let config = |workers| {
            FleetConfig::builder()
                .total_rounds(300)
                .slice(12)
                .allocation(AllocationStrategy::HarvestProportional)
                .workers(workers)
                .build()
                .unwrap()
        };
        let wide = run_fleet(make(), config(2));
        let serial = run_fleet(make(), config(1));
        assert_eq!(wide.sources, serial.sources, "identical grant sequences, identical jobs");
        assert_eq!(wide.total_rounds, serial.total_rounds);
        assert_eq!(wide.health, serial.health);
    }

    #[test]
    fn scheduler_stats_account_for_every_slice() {
        let jobs = vec![job("a2"), job("a3")];
        let config =
            FleetConfig::builder().total_rounds(1000).slice(10).workers(2).build().unwrap();
        let report = run_fleet(jobs, config);
        let s = &report.scheduler;
        assert_eq!(s.workers, 2);
        assert!(s.slices_scheduled > 0);
        assert_eq!(s.slices_completed, s.slices_scheduled, "no panics: every slice completes");
        assert_eq!(
            s.per_worker_slices.iter().sum::<u64>(),
            s.slices_completed,
            "per-worker tallies cover every completed slice"
        );
        assert!(s.rounds_executed <= s.rounds_granted, "figure1 queries never overshoot");
        assert_eq!(s.rounds_executed, report.total_rounds);
    }

    #[test]
    fn single_worker_run_is_reproducible() {
        let run = || {
            let jobs = vec![job("a2"), job("a1"), job("a3")];
            let config = FleetConfig::builder()
                .total_rounds(500)
                .slice(7)
                .allocation(AllocationStrategy::HarvestProportional)
                .workers(1)
                .build()
                .unwrap();
            run_fleet(jobs, config)
        };
        let a = run();
        let b = run();
        assert_eq!(a.sources, b.sources, "reports (traces included) must match");
        assert_eq!(a.scheduler, b.scheduler, "the full slice schedule must match");
    }

    #[test]
    fn fleet_resumes_a_job_from_its_checkpoint() {
        let journal = scratch_journal("fleet-resume");
        let partial_config =
            CrawlConfig::builder().known_target_size(5).journal_path(&journal).build().unwrap();
        let partial = run_fleet(
            vec![FleetJob {
                source: figure1_server(),
                policy: PolicyKind::GreedyLink,
                seeds: vec![("A".into(), "a2".to_string())],
                config: partial_config.clone(),
                resume: None,
                tenant: None,
            }],
            FleetConfig::builder().total_rounds(2).slice(2).build().unwrap(),
        );
        assert!(partial.sources[0].records < 5, "tiny budget must stop early");
        let cp =
            StateJournal::recover(&journal).unwrap().expect("final state journaled").checkpoint;
        assert!(cp.rounds > 0);
        let resumed = run_fleet(
            vec![FleetJob {
                source: figure1_server(),
                policy: PolicyKind::GreedyLink,
                seeds: Vec::new(),
                config: partial_config,
                resume: Some(cp.clone()),
                tenant: None,
            }],
            FleetConfig::builder().total_rounds(1000).slice(10).build().unwrap(),
        );
        assert_eq!(resumed.sources[0].records, 5, "resume finishes the crawl");
        assert!(
            resumed.total_rounds >= cp.rounds,
            "checkpointed rounds count against the fleet budget"
        );
    }

    /// One job over a fault-plan-wrapped shared server.
    fn faulty_job(
        plan: FaultPlan,
        journal: Option<&std::path::Path>,
    ) -> FleetJob<FaultPlanSource<Arc<WebDbServer>>> {
        let mut builder = CrawlConfig::builder().known_target_size(5).max_requeues(10);
        if let Some(journal) = journal {
            builder = builder.journal_path(journal);
        }
        FleetJob {
            source: FaultPlanSource::new(Arc::new(figure1_server()), plan),
            policy: PolicyKind::GreedyLink,
            seeds: vec![("A".into(), "a2".to_string())],
            config: builder.build().unwrap(),
            resume: None,
            tenant: None,
        }
    }

    #[test]
    fn fault_free_fleet_reports_clean_health() {
        let jobs = vec![faulty_job(FaultPlan::new(), None), faulty_job(FaultPlan::new(), None)];
        let config = FleetConfig::builder().total_rounds(1000).slice(10).build().unwrap();
        let report = run_fleet(jobs, config);
        assert_eq!(report.sources.len(), 2);
        for r in &report.sources {
            assert_eq!(r.records, 5);
        }
        assert_eq!(report.breaker_trips(), 0);
        assert_eq!(report.worker_restarts(), 0);
        assert!(report.health.iter().all(|h| !h.abandoned));
    }

    #[test]
    fn panicking_slice_restarts_from_checkpoint_and_finishes() {
        let journal = scratch_journal("restart");
        let jobs = vec![faulty_job(FaultPlan::new().panic_at(4), Some(&journal))];
        let config = FleetConfig::builder().total_rounds(1000).slice(5).build().unwrap();
        let report = run_fleet(jobs, config);
        assert_eq!(report.health[0].worker_restarts, 1, "one injected crash, one restart");
        assert!(!report.health[0].abandoned);
        assert_eq!(report.sources[0].records, 5, "recovery must lose no records");
        assert!(journal.exists(), "the journal was persisted");
    }

    #[test]
    fn job_without_restart_budget_is_abandoned() {
        let journal = scratch_journal("abandon");
        // Panic on every early request: even rebuilt jobs die again.
        let plan = FaultPlan::new().panic_at(1).panic_at(2).panic_at(3).panic_at(4);
        let jobs = vec![faulty_job(plan, Some(&journal))];
        let config =
            FleetConfig::builder().total_rounds(1000).slice(5).max_restarts(2).build().unwrap();
        let report = run_fleet(jobs, config);
        assert!(report.health[0].abandoned);
        assert_eq!(report.health[0].worker_restarts, 2, "restart budget spent before abandoning");
        assert_eq!(report.sources[0].stop, StopReason::WorkerFailed);
    }

    #[test]
    fn breaker_trips_on_burst_and_recovers() {
        let journal = scratch_journal("breaker");
        // 20 consecutive transient failures starting at request 4: long
        // enough that a slice boundary lands mid-burst with a live streak.
        let jobs = vec![faulty_job(FaultPlan::new().burst(4, 20), Some(&journal))];
        let config = FleetConfig::builder()
            .total_rounds(4000)
            .slice(8)
            .breaker(BreakerConfig { trip_after: 3, cooldown: 1 })
            .build()
            .unwrap();
        let report = run_fleet(jobs, config);
        assert!(report.breaker_trips() >= 1, "the burst must trip the breaker");
        assert!(report.breaker_recoveries() >= 1, "the probe after the burst must recover");
        assert_eq!(report.sources[0].records, 5, "zero records lost through the pause");
        assert!(!report.health[0].abandoned);
    }

    #[test]
    fn default_retry_substituted_only_for_default_jobs() {
        let fleet = FleetConfig::default();
        let mut on_default = CrawlConfig::default();
        apply_default_retry(&mut on_default, &fleet);
        assert_eq!(on_default.retry, fleet.default_retry, "default jobs get fleet retries");
        let explicit = RetryPolicy { max_retries: 2, backoff_base: 3, backoff_cap: 10 };
        let mut custom = CrawlConfig { retry: explicit, ..CrawlConfig::default() };
        apply_default_retry(&mut custom, &fleet);
        assert_eq!(custom.retry, explicit, "explicit schedules pass through");
    }

    #[test]
    fn shared_source_with_faults_loses_no_records() {
        // Two crawlers share one source failing every 7th request; retries
        // (billed as rounds + backoff) must still deliver every record to
        // both jobs.
        let shared = Arc::new(FaultPlanSource::new(figure1_server(), FaultPlan::every(7)));
        let jobs: Vec<FleetJob<Arc<FaultPlanSource<WebDbServer>>>> = ["a2", "a3"]
            .iter()
            .map(|seed| FleetJob {
                source: Arc::clone(&shared),
                policy: PolicyKind::GreedyLink,
                seeds: vec![("A".into(), seed.to_string())],
                config: CrawlConfig::builder()
                    .known_target_size(5)
                    .max_retries(32)
                    .build()
                    .unwrap(),
                resume: None,
                tenant: None,
            })
            .collect();
        let config = FleetConfig::builder().total_rounds(4000).slice(50).build().unwrap();
        let report = run_fleet(jobs, config);
        for r in &report.sources {
            assert_eq!(r.records, 5, "zero records may be lost to faults");
        }
        let failures: u64 = report.sources.iter().map(|r| r.transient_failures).sum();
        assert!(failures > 0, "the fault schedule must actually have fired");
        assert_eq!(failures, shared.tally().transient);
        let summed: u64 = report.sources.iter().map(|r| r.rounds).sum();
        assert_eq!(summed, DataSource::rounds_used(&shared), "failed rounds are billed too");
    }

    // ---- tenancy -------------------------------------------------------

    fn tenant_job(seed_value: &str, tenant: u32) -> FleetJob<WebDbServer> {
        FleetJob { tenant: Some(TenantId(tenant)), ..job(seed_value) }
    }

    #[test]
    fn builder_rejects_tenant_misconfiguration() {
        let build = |tenants: Vec<Tenant>| FleetConfig::builder().tenants(tenants).build();
        assert_eq!(
            build(vec![Tenant::new(0).with_weight(0)]).unwrap_err(),
            ConfigError::ZeroTenantWeight(0)
        );
        assert_eq!(
            build(vec![Tenant::new(1).with_quota(0)]).unwrap_err(),
            ConfigError::ZeroTenantQuota(1)
        );
        assert_eq!(
            build(vec![Tenant::new(2), Tenant::new(2)]).unwrap_err(),
            ConfigError::DuplicateTenant(2)
        );
        assert!(build(vec![Tenant::new(0), Tenant::new(1).with_weight(4).with_quota(50)]).is_ok());
    }

    #[test]
    fn jobs_are_validated_against_the_registry() {
        let tenanted = FleetConfig::builder().tenants(vec![Tenant::new(0)]).build().unwrap();
        assert_eq!(
            validate_fleet_jobs(&[tenant_job("a2", 9)], &tenanted).unwrap_err(),
            ConfigError::UnknownTenant(9)
        );
        assert_eq!(
            validate_fleet_jobs(&[job("a2")], &tenanted).unwrap_err(),
            ConfigError::MissingTenant
        );
        let blind = FleetConfig::default();
        assert_eq!(
            validate_fleet_jobs(&[tenant_job("a2", 0)], &blind).unwrap_err(),
            ConfigError::UnknownTenant(0)
        );
        assert!(validate_fleet_jobs(&[tenant_job("a2", 0)], &tenanted).is_ok());
        assert!(validate_fleet_jobs(&[job("a2")], &blind).is_ok());
    }

    #[test]
    fn weighted_fair_grants_follow_weights() {
        let tenants = vec![Tenant::new(0).with_weight(3), Tenant::new(1)];
        let mut alloc = WeightedFairAllocator::default();
        let grants = alloc.allocate(&AllocCycle {
            active: &[0, 1],
            rates: &[1.0, 1.0],
            remaining: 1000,
            slice: 8,
            tenant_of: &[Some(0), Some(1)],
            tenants: &tenants,
            tenant_used: &[0, 0],
        });
        assert_eq!(grants, vec![(0, 6), (1, 2)], "3:1 weights split an 8-round slice 6:2");
    }

    #[test]
    fn weighted_fair_clamps_to_quota_and_redistributes() {
        let tenants = vec![Tenant::new(0).with_weight(3).with_quota(4), Tenant::new(1)];
        let mut alloc = WeightedFairAllocator::default();
        let cycle = |used: &'static [u64]| AllocCycle {
            active: &[0, 1],
            rates: &[1.0, 1.0],
            remaining: 1000,
            slice: 8,
            tenant_of: &[Some(0), Some(1)],
            tenants: &tenants,
            tenant_used: used,
        };
        // Tenant 0 is entitled to 6 but has 4 rounds of quota headroom; the
        // 2 freed rounds flow to tenant 1 on top of its own entitlement.
        assert_eq!(alloc.allocate(&cycle(&[0, 0])), vec![(0, 4), (1, 4)]);
        // Quota spent: tenant 0 drops out entirely, tenant 1 absorbs the
        // full slice (plus nothing carried — its deficit is zero).
        assert_eq!(alloc.allocate(&cycle(&[4, 4])), vec![(1, 8)]);
    }

    #[test]
    fn weighted_fair_carries_deficits_across_cycles() {
        // Deficits originate from quota clamping and are drawn once the
        // headroom returns (here: the operator raises the quota between
        // cycles — the registry is a per-cycle input to the allocator).
        let capped = vec![Tenant::new(0).with_weight(3).with_quota(4), Tenant::new(1)];
        let uncapped = vec![Tenant::new(0).with_weight(3), Tenant::new(1)];
        let mut alloc = WeightedFairAllocator::default();
        fn cycle(tenants: &[Tenant]) -> AllocCycle<'_> {
            AllocCycle {
                active: &[0, 1],
                rates: &[1.0, 1.0],
                remaining: 1000,
                slice: 8,
                tenant_of: &[Some(0), Some(1)],
                tenants,
                tenant_used: &[0, 0],
            }
        }
        // Cycle 1: tenant 0 is entitled to 6 but clamped to 4 by its quota;
        // the 2-round shortfall is carried as a deficit.
        assert_eq!(alloc.allocate(&cycle(&capped)), vec![(0, 4), (1, 4)]);
        // Cycle 2: headroom restored — tenant 0 draws entitlement (6) plus
        // the carried deficit (2), absorbing the whole slice; tenant 1's
        // unmet entitlement becomes *its* deficit in turn.
        assert_eq!(alloc.allocate(&cycle(&uncapped)), vec![(0, 8)]);
        // Cycle 3: tenant 0's deficit is spent, so tenant 1 gets its
        // entitlement (2) back while the steady 3:1 split resumes.
        assert_eq!(alloc.allocate(&cycle(&uncapped)), vec![(0, 6), (1, 2)]);
    }

    #[test]
    fn weighted_fair_splits_a_tenant_grant_over_its_jobs() {
        // Tenant 0 runs jobs 0 and 2; a 7-round grant splits 4/3 with the
        // remainder rotating between the jobs across cycles.
        let tenants = vec![Tenant::new(0)];
        let mut alloc = WeightedFairAllocator::default();
        let cycle = AllocCycle {
            active: &[0, 2],
            rates: &[1.0, 1.0, 1.0],
            remaining: 1000,
            slice: 7,
            tenant_of: &[Some(0), None, Some(0)],
            tenants: &tenants,
            tenant_used: &[0],
        };
        assert_eq!(alloc.allocate(&cycle), vec![(0, 4), (2, 3)]);
        assert_eq!(alloc.allocate(&cycle), vec![(0, 3), (2, 4)], "remainder rotates");
    }

    #[test]
    fn weighted_fair_without_registry_treats_jobs_as_peers() {
        let mut alloc = WeightedFairAllocator::default();
        let grants = alloc.allocate(&AllocCycle {
            active: &[0, 1, 2],
            rates: &[1.0, 1.0, 1.0],
            remaining: 1000,
            slice: 9,
            tenant_of: &[None, None, None],
            tenants: &[],
            tenant_used: &[],
        });
        assert_eq!(grants, vec![(0, 3), (1, 3), (2, 3)], "implicit weight-1 tenants");
    }

    #[test]
    fn weighted_fleet_meters_rounds_by_weight() {
        let tenants = vec![Tenant::new(0).with_weight(3), Tenant::new(1)];
        let jobs = vec![tenant_job("a2", 0), tenant_job("a3", 1)];
        let config = FleetConfig::builder()
            .total_rounds(4)
            .slice(4)
            .allocation(AllocationStrategy::WeightedFair)
            .workers(1)
            .tenants(tenants)
            .build()
            .unwrap();
        let report = run_fleet(jobs, config);
        assert_eq!(report.usage.len(), 2);
        assert_eq!(report.usage[0].0, TenantId(0));
        assert_eq!(report.usage[0].1.rounds, 3, "weight 3 draws 3 of the 4 budget rounds");
        assert_eq!(report.usage[1].0, TenantId(1));
        assert_eq!(report.usage[1].1.rounds, 1);
        let ledger_rounds: u64 = report.usage.iter().map(|(_, l)| l.rounds).sum();
        assert_eq!(ledger_rounds, report.total_rounds, "ledgers conserve the budget");
    }

    #[test]
    fn quota_exhaustion_parks_the_tenant() {
        let tenants = vec![Tenant::new(0).with_quota(3), Tenant::new(1)];
        let jobs = vec![tenant_job("a2", 0), tenant_job("a3", 1)];
        let config = FleetConfig::builder()
            .total_rounds(1000)
            .slice(4)
            .allocation(AllocationStrategy::WeightedFair)
            .workers(1)
            .tenants(tenants)
            .build()
            .unwrap();
        let report = run_fleet(jobs, config);
        assert_eq!(report.sources[0].stop, StopReason::QuotaExhausted);
        assert!(report.sources[0].elapsed_rounds() <= 3, "grants were clamped to the quota");
        assert_eq!(report.sources[1].records, 5, "the unlimited tenant finishes");
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, CrawlEvent::TenantPreempted { tenant: 0, job: 0 })));
        let t0 = &report.usage[0].1;
        assert_eq!(t0.preempted, 1, "one cooperative preemption");
        assert!(t0.rounds <= 3);
        let ledger_rounds: u64 = report.usage.iter().map(|(_, l)| l.rounds).sum();
        assert_eq!(ledger_rounds, report.total_rounds);
    }

    #[test]
    fn usage_ledgers_replay_from_the_event_stream() {
        let tenants =
            vec![Tenant::new(0).with_weight(2).with_quota(6), Tenant::new(1).with_priority(3)];
        let jobs = vec![tenant_job("a2", 0), tenant_job("a1", 1), tenant_job("a3", 1)];
        let config = FleetConfig::builder()
            .total_rounds(200)
            .slice(6)
            .allocation(AllocationStrategy::WeightedFair)
            .workers(1)
            .tenants(tenants)
            .build()
            .unwrap();
        let report = run_fleet(jobs, config);
        let replayed: Vec<(TenantId, UsageLedger)> = crate::metrics::replay_usage(&report.events)
            .into_iter()
            .map(|(id, ledger)| (TenantId(id), ledger))
            .collect();
        assert_eq!(replayed, report.usage, "usage is a pure fold of the event stream");
    }

    #[test]
    fn single_tenant_fleet_matches_tenant_blind_runs() {
        for allocation in [AllocationStrategy::Even, AllocationStrategy::HarvestProportional] {
            let config = |tenants: Vec<Tenant>| {
                FleetConfig::builder()
                    .total_rounds(300)
                    .slice(12)
                    .allocation(allocation)
                    .workers(1)
                    .tenants(tenants)
                    .build()
                    .unwrap()
            };
            let blind = run_fleet(vec![job("a2"), job("a1"), job("a3")], config(Vec::new()));
            let tenanted = run_fleet(
                vec![tenant_job("a2", 0), tenant_job("a1", 0), tenant_job("a3", 0)],
                config(vec![Tenant::new(0)]),
            );
            assert_eq!(
                blind.sources, tenanted.sources,
                "{allocation:?}: tenancy must not change grant math"
            );
            assert_eq!(blind.total_rounds, tenanted.total_rounds);
            assert_eq!(blind.scheduler, tenanted.scheduler);
            assert!(blind.usage.is_empty(), "tenant-blind fleets report no ledgers");
            assert_eq!(tenanted.usage.len(), 1);
            assert_eq!(tenanted.usage[0].1.rounds, tenanted.total_rounds);
        }
    }

    #[test]
    fn weighted_fair_wide_pool_matches_single_worker_run() {
        let tenants = || vec![Tenant::new(0).with_weight(3), Tenant::new(1)];
        let make = || vec![tenant_job("a2", 0), tenant_job("a1", 1), tenant_job("a3", 0)];
        let config = |workers| {
            FleetConfig::builder()
                .total_rounds(300)
                .slice(12)
                .allocation(AllocationStrategy::WeightedFair)
                .workers(workers)
                .tenants(tenants())
                .build()
                .unwrap()
        };
        let wide = run_fleet(make(), config(2));
        let serial = run_fleet(make(), config(1));
        assert_eq!(wide.sources, serial.sources, "identical grant sequences");
        assert_eq!(wide.total_rounds, serial.total_rounds);
        assert_eq!(wide.usage, serial.usage, "both pool widths fold the same ledgers");
    }

    #[test]
    fn tenanted_single_worker_run_is_reproducible() {
        let run = || {
            let tenants = vec![
                Tenant::new(0).with_weight(3).with_priority(2),
                Tenant::new(1).with_quota(40),
                Tenant::new(2),
            ];
            let jobs = vec![tenant_job("a2", 0), tenant_job("a1", 1), tenant_job("a3", 2)];
            let config = FleetConfig::builder()
                .total_rounds(500)
                .slice(7)
                .allocation(AllocationStrategy::WeightedFair)
                .workers(1)
                .tenants(tenants)
                .build()
                .unwrap();
            run_fleet(jobs, config)
        };
        let a = run();
        let b = run();
        assert_eq!(a.sources, b.sources, "reports (traces included) must match");
        assert_eq!(a.scheduler, b.scheduler);
        assert_eq!(a.usage, b.usage);
        assert_eq!(a.events, b.events, "the full event stream is deterministic");
    }

    #[test]
    fn higher_priority_tenants_dispatch_first_in_every_cycle() {
        // Tenant 1 outranks tenant 0, so each cycle queues its job's slice
        // first; equal priorities keep grant order, and one worker runs the
        // queue in exactly that order.
        let tenants = vec![Tenant::new(0), Tenant::new(1).with_priority(3)];
        let jobs = vec![tenant_job("a2", 0), tenant_job("a3", 0), tenant_job("a1", 1)];
        let config = FleetConfig::builder()
            .total_rounds(60)
            .slice(6)
            .workers(1)
            .tenants(tenants)
            .build()
            .unwrap();
        let report = run_fleet(jobs, config);
        let jobs_of = |scheduled: bool| -> Vec<u32> {
            let events = report.events.iter();
            events
                .filter_map(|e| match *e {
                    CrawlEvent::SliceScheduled { job, .. } if scheduled => Some(job),
                    CrawlEvent::SliceCompleted { job, .. } if !scheduled => Some(job),
                    _ => None,
                })
                .collect()
        };
        let scheduled = jobs_of(true);
        assert_eq!(scheduled[..3], [2, 0, 1], "priority first, then grant order");
        assert_eq!(jobs_of(false), scheduled, "one worker completes slices in queue order");
    }
}
