//! Acceptance suite for the fleet scheduler.
//!
//! * **Budget conservation** — a property sweep over job counts × worker
//!   counts × budgets × slices × allocation strategies on figure-1 jobs,
//!   whose every query costs one round: there the fleet bills at most
//!   `total_rounds`, and a wide fleet's report and event stream are
//!   identical to a `workers = 1` run's on deterministic sources (the
//!   allocator sees the same inputs every cycle whatever the width, and
//!   outcomes fold in dispatch order, so any drift is a scheduler bug, not
//!   an allocation difference). A multi-page query can still run past its
//!   slice's grant, so elsewhere the bill may end a few rounds past
//!   `total_rounds`.
//! * **A job's own limits** — a job's `max_rounds` or `target_coverage`
//!   ends it exactly as it ends a lone crawl.
//! * **Victim isolation** — a slice panic kills exactly the faulty job;
//!   the workers keep draining its siblings, which finish untouched — even
//!   when the source cannot be cloned.
//! * **Determinism** — a `workers = 1` fleet is bit-for-bit reproducible:
//!   same reports (per-query traces included) and same slice schedule on
//!   every run.
//! * **Stress matrix** — the CI fault matrix (`DWC_FAULT_KIND` ×
//!   `DWC_FAULT_SEED`) replayed at the fleet width given by `DWC_WORKERS`,
//!   so supervision invariants are exercised at 1, 2, and 8 workers.

use deep_web_crawler::core::fleet::{
    run_fleet, AllocCycle, AllocationStrategy, Allocator, EvenAllocator, FleetConfig, FleetJob,
    HarvestAllocator, WeightedFairAllocator,
};
use deep_web_crawler::core::replay_usage;
use deep_web_crawler::prelude::*;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn figure1_server() -> WebDbServer {
    let t = deep_web_crawler::model::fixtures::figure1_table();
    let spec = InterfaceSpec::permissive(t.schema(), 10);
    WebDbServer::new(t, spec)
}

/// A journal path in a fresh directory under the temp dir; dropping it
/// removes the directory with the journal in it.
struct ScratchJournal(PathBuf);

impl std::ops::Deref for ScratchJournal {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchJournal {
    fn drop(&mut self) {
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn scratch_journal(name: &str) -> ScratchJournal {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dwc-fleetsched-{}-{}-{name}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    ScratchJournal(dir.join("job.jnl"))
}

/// One self-contained figure-1 job. Every figure-1 query costs exactly one
/// elapsed round (5 records, page size 10, no faults), which is what makes
/// budget conservation exact rather than "within one query" below.
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

fn jobs(n: usize) -> Vec<FleetJob<WebDbServer>> {
    let seeds = ["a1", "a2", "a3"];
    (0..n).map(|i| job(seeds[i % seeds.len()])).collect()
}

/// Fleet widths to sweep: the CI matrix pins one via `DWC_WORKERS`; local
/// runs cover the serial, small, and oversubscribed cases.
fn worker_counts() -> Vec<usize> {
    match std::env::var("DWC_WORKERS").ok().and_then(|s| s.parse().ok()) {
        Some(w) => vec![w],
        None => vec![1, 2, 8],
    }
}

/// A fleet event stream with every `SliceCompleted`'s worker tag zeroed:
/// the one field that may differ between widths.
fn masked(events: &[CrawlEvent]) -> Vec<CrawlEvent> {
    let mask = |e: &CrawlEvent| match *e {
        CrawlEvent::SliceCompleted { job, rounds, tenant, total, pages, .. } => {
            CrawlEvent::SliceCompleted { job, worker: 0, rounds, tenant, total, pages }
        }
        other => other,
    };
    events.iter().map(mask).collect()
}

/// The property sweep: billed rounds never exceed the budget, and every
/// width reports exactly what the `workers = 1` baseline does, event stream
/// included, across the whole parameter grid.
#[test]
fn budget_is_conserved_and_reports_match_baseline_across_the_grid() {
    for &n in &[1usize, 3, 17] {
        for &workers in &worker_counts() {
            for &total in &[5u64, 37, 200, 10_000] {
                for &slice in &[1u64, 7, 50] {
                    for &alloc in &[
                        AllocationStrategy::Even,
                        AllocationStrategy::HarvestProportional,
                        AllocationStrategy::WeightedFair,
                    ] {
                        let config = |workers| {
                            FleetConfig::builder()
                                .total_rounds(total)
                                .slice(slice)
                                .allocation(alloc)
                                .workers(workers)
                                .build()
                                .unwrap()
                        };
                        let ctx = format!(
                            "jobs={n} workers={workers} total={total} slice={slice} alloc={alloc:?}"
                        );
                        let pooled = run_fleet(jobs(n), config(workers));
                        assert!(
                            pooled.total_rounds <= total,
                            "budget overrun ({} > {total}) at {ctx}",
                            pooled.total_rounds
                        );
                        let billed: u64 = pooled.sources.iter().map(|r| r.elapsed_rounds()).sum();
                        assert_eq!(billed, pooled.total_rounds, "billing must be exact at {ctx}");
                        assert!(
                            pooled.scheduler.rounds_executed <= pooled.scheduler.rounds_granted,
                            "one-round queries can never overshoot their grant at {ctx}"
                        );
                        let baseline = run_fleet(jobs(n), config(1));
                        assert_eq!(
                            pooled.sources, baseline.sources,
                            "pooled report diverged from the single-worker run at {ctx}"
                        );
                        assert_eq!(pooled.total_rounds, baseline.total_rounds, "at {ctx}");
                        assert_eq!(
                            masked(&pooled.events),
                            masked(&baseline.events),
                            "event stream diverged from the single-worker run at {ctx}"
                        );
                    }
                }
            }
        }
    }
}

/// A panicking slice must take down only its own job: the supervisor
/// rebuilds the victim from its journal while the workers keep draining
/// the three healthy siblings, whose health stays spotless.
#[test]
fn slice_panic_restarts_only_the_victim_job() {
    for &workers in &worker_counts() {
        let journal = scratch_journal("victim");
        let mut fleet_jobs: Vec<FleetJob<FaultPlanSource<Arc<WebDbServer>>>> = Vec::new();
        for i in 0..4 {
            let plan = if i == 0 { FaultPlan::new().panic_at(4) } else { FaultPlan::new() };
            let mut builder = CrawlConfig::builder().known_target_size(5);
            if i == 0 {
                builder = builder.journal_path(&*journal);
            }
            fleet_jobs.push(FleetJob {
                source: FaultPlanSource::new(Arc::new(figure1_server()), plan),
                policy: PolicyKind::GreedyLink,
                seeds: vec![("A".into(), "a2".into())],
                config: builder.build().unwrap(),
                resume: None,
                tenant: None,
            });
        }
        let config =
            FleetConfig::builder().total_rounds(2_000).slice(8).workers(workers).build().unwrap();
        let report = run_fleet(fleet_jobs, config);
        assert_eq!(
            report.health[0].worker_restarts, 1,
            "exactly one restart for the victim at workers={workers}"
        );
        assert!(!report.health[0].abandoned);
        for (i, h) in report.health.iter().enumerate().skip(1) {
            assert_eq!(
                (h.worker_restarts, h.breaker_trips, h.abandoned),
                (0, 0, false),
                "healthy job {i} must be untouched by job 0's panic at workers={workers}"
            );
        }
        for (i, r) in report.sources.iter().enumerate() {
            assert_eq!(r.records, 5, "job {i} must finish its harvest at workers={workers}");
        }
    }
}

/// An exclusively owned figure-1 server that panics on one request number.
/// Deliberately not `Clone`: the supervisor must rebuild a crashed job over
/// the handle its crawler already owned.
struct CrashingServer {
    server: WebDbServer,
    crash_at: Option<u64>,
    requests: AtomicU64,
}

impl CrashingServer {
    fn new(crash_at: Option<u64>) -> CrashingServer {
        CrashingServer { server: figure1_server(), crash_at, requests: AtomicU64::new(0) }
    }
}

impl DataSource for CrashingServer {
    fn respond(
        &self,
        request: &SourceRequest<'_>,
        visit: &mut dyn FnMut(&deep_web_crawler::core::extract::ExtractedPageRef<'_>),
    ) -> Result<deep_web_crawler::core::SourceResponse, CrawlError> {
        let request_no = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        if self.crash_at == Some(request_no) {
            panic!("injected fault: crash at request {request_no}");
        }
        self.server.respond(request, visit)
    }

    fn interface(&self) -> &InterfaceSpec {
        self.server.interface()
    }

    fn rounds_used(&self) -> u64 {
        self.server.rounds_used()
    }
}

/// `run_fleet` isolates a panicking job even over a source it cannot clone:
/// the job restarts, finishes its harvest, and its siblings' health stays
/// all-zero.
#[test]
fn run_fleet_restarts_a_panicking_job_over_a_non_clone_source() {
    for &workers in &worker_counts() {
        let fleet_jobs: Vec<FleetJob<CrashingServer>> = (0..3)
            .map(|i| FleetJob {
                source: CrashingServer::new((i == 0).then_some(3)),
                policy: PolicyKind::GreedyLink,
                seeds: vec![("A".into(), "a2".into())],
                config: CrawlConfig::builder().known_target_size(5).build().unwrap(),
                resume: None,
                tenant: None,
            })
            .collect();
        let config =
            FleetConfig::builder().total_rounds(2_000).slice(8).workers(workers).build().unwrap();
        let report = run_fleet(fleet_jobs, config);
        assert_eq!(report.health[0].worker_restarts, 1, "one crash, one restart at {workers}");
        assert!(!report.health[0].abandoned);
        for (i, h) in report.health.iter().enumerate().skip(1) {
            assert_eq!(*h, JobHealth::default(), "sibling {i} must stay healthy at {workers}");
        }
        for (i, r) in report.sources.iter().enumerate() {
            assert_eq!(r.records, 5, "job {i} must finish its harvest at workers={workers}");
        }
    }
}

/// `workers = 1` is the reproducibility anchor: the coordinator runs every
/// slice itself in dispatch order, so two identical runs produce identical
/// reports (per-query traces included) *and* identical slice schedules.
#[test]
fn single_worker_fleet_is_fully_deterministic() {
    let run = || {
        let config = FleetConfig::builder()
            .total_rounds(700)
            .slice(9)
            .allocation(AllocationStrategy::HarvestProportional)
            .workers(1)
            .build()
            .unwrap();
        run_fleet(jobs(5), config)
    };
    let a = run();
    let b = run();
    assert_eq!(a.sources, b.sources, "reports must be bit-for-bit identical");
    assert_eq!(a.scheduler, b.scheduler, "the slice schedule must be identical");
}

/// Builds the fault plan the CI matrix selects via `DWC_FAULT_KIND`,
/// scaled to a figure-1 crawl (~15 requests per attempt). The kinds are those
/// of `tests/common`'s plan, which is scaled to the IMDB crawls.
fn matrix_plan(kind: &str, seed: u64) -> FaultPlan {
    match kind {
        "none" => FaultPlan::new(),
        "burst" => FaultPlan::new().burst(2 + seed % 5, 6),
        "stall" => FaultPlan::seeded(seed, 40, 0.15, &[FaultKind::Stall { rounds: 2 }]),
        "corrupt" => FaultPlan::seeded(seed, 40, 0.15, &[FaultKind::Corrupt]),
        "panic" => FaultPlan::new().panic_at(3 + seed % 7),
        "mixed" => FaultPlan::seeded(
            seed,
            40,
            0.12,
            &[FaultKind::Transient, FaultKind::Stall { rounds: 2 }, FaultKind::Corrupt],
        ),
        other => panic!("unknown DWC_FAULT_KIND {other:?}"),
    }
}

/// The CI stress cell: a supervised fleet (one faulted job among healthy
/// siblings) must preserve the full harvest at whatever fleet width
/// `DWC_WORKERS` pins — supervision semantics cannot depend on how slices
/// interleave across workers.
#[test]
fn fault_matrix_holds_at_every_pool_width() {
    let kind = std::env::var("DWC_FAULT_KIND").unwrap_or_else(|_| "mixed".into());
    let seed: u64 = std::env::var("DWC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
    for &workers in &worker_counts() {
        let journal = scratch_journal("matrix");
        let mut fleet_jobs: Vec<FleetJob<FaultPlanSource<Arc<WebDbServer>>>> = Vec::new();
        for i in 0..3 {
            let plan = if i == 0 { matrix_plan(&kind, seed) } else { FaultPlan::new() };
            let mut builder =
                CrawlConfig::builder().known_target_size(5).max_requeues(10).max_retries(8);
            if i == 0 {
                builder = builder.journal_path(&*journal);
            }
            fleet_jobs.push(FleetJob {
                source: FaultPlanSource::new(Arc::new(figure1_server()), plan),
                policy: PolicyKind::GreedyLink,
                seeds: vec![("A".into(), "a2".into())],
                config: builder.build().unwrap(),
                resume: None,
                tenant: None,
            });
        }
        let config = FleetConfig::builder()
            .total_rounds(4_000)
            .slice(8)
            .max_restarts(5)
            .breaker(BreakerConfig { trip_after: 3, cooldown: 2 })
            .workers(workers)
            .build()
            .unwrap();
        let report = run_fleet(fleet_jobs, config);
        assert!(
            !report.health[0].abandoned,
            "kind {kind} seed {seed} workers {workers}: restart budget exhausted"
        );
        for (i, r) in report.sources.iter().enumerate() {
            assert_eq!(
                r.records, 5,
                "kind {kind} seed {seed} workers {workers}: job {i} lost records"
            );
        }
        if kind == "panic" {
            assert!(report.worker_restarts() >= 1, "panic plan must force a restart");
        }
    }
}

/// Satellite: a budget scarcer than the job count still makes progress —
/// the even split floors at one round and the sequential clamp hands those
/// rounds to the earliest jobs instead of granting nobody anything.
#[test]
fn even_allocator_floors_at_one_round_when_budget_is_scarcer_than_jobs() {
    let active: Vec<usize> = (0..5).collect();
    let rates = vec![1.0; 5];
    let mut alloc = EvenAllocator;
    let grants = alloc.allocate(&AllocCycle {
        active: &active,
        rates: &rates,
        remaining: 3,
        slice: 8,
        tenant_of: &[None; 5],
        tenants: &[],
        tenant_used: &[],
    });
    assert_eq!(grants, vec![(0, 1), (1, 1), (2, 1)], "3 budget rounds reach the first 3 of 5 jobs");
}

/// Satellite: all-zero recent harvest rates under `HarvestProportional`
/// degenerate to an even split — the 5% floor keeps zero-rate jobs equal
/// peers rather than dividing by zero or starving everyone.
#[test]
fn harvest_allocator_splits_evenly_when_all_rates_are_zero() {
    let active = [0usize, 1, 2];
    let rates = [0.0; 3];
    let mut alloc = HarvestAllocator;
    let grants = alloc.allocate(&AllocCycle {
        active: &active,
        rates: &rates,
        remaining: 1000,
        slice: 9,
        tenant_of: &[None; 3],
        tenants: &[],
        tenant_used: &[],
    });
    assert_eq!(grants, vec![(0, 3), (1, 3), (2, 3)]);
}

/// A job's own round budget or coverage target ends it as it ends a lone
/// crawl: one IMDB job on one worker, in 300-round slices of a 3,000-round
/// fleet, reports exactly what the same crawl run alone reports. A slice
/// that skips the job's stop rule lets the executor's round cap turn every
/// later query into an unbilled no-op that still marks its candidate
/// queried, or crawls on past the coverage target.
#[test]
fn a_jobs_own_limits_end_it_as_they_end_a_lone_crawl() {
    let table = Preset::Imdb.table(0.01, 2);
    let n = table.num_records();
    let spec = InterfaceSpec::permissive(table.schema(), 10);
    let server = WebDbServer::new(table, spec);
    let seeds = vec![("Director".to_string(), "Director_1".to_string())];
    let limits = [
        (CrawlConfig::builder().max_rounds(50), StopReason::RoundBudget),
        (
            CrawlConfig::builder().known_target_size(n).target_coverage(0.05),
            StopReason::CoverageReached,
        ),
    ];
    for (builder, stop) in limits {
        let config = builder.build().unwrap();
        let lone = {
            let mut crawler = Crawler::new(&server, PolicyKind::GreedyLink.build(), config.clone());
            crawler.add_seed("Director", "Director_1");
            crawler.run()
        };
        assert_eq!(lone.stop, stop);
        let job = FleetJob {
            source: &server,
            policy: PolicyKind::GreedyLink,
            seeds: seeds.clone(),
            config,
            resume: None,
            tenant: None,
        };
        let fleet =
            FleetConfig::builder().total_rounds(3_000).slice(300).workers(1).build().unwrap();
        let report = run_fleet(vec![job], fleet);
        assert_eq!(report.sources[0].stop, stop);
        assert_eq!(report.sources[0], lone, "{stop:?}: the fleet job must end like the lone crawl");
        assert_eq!(report.total_rounds, lone.elapsed_rounds(), "{stop:?}");
    }
}

/// Satellite: a single-job fleet absorbs the whole slice under every
/// strategy — and the end-to-end run finishes its harvest.
#[test]
fn single_job_fleet_absorbs_every_slice_under_every_strategy() {
    for alloc in [
        AllocationStrategy::Even,
        AllocationStrategy::HarvestProportional,
        AllocationStrategy::WeightedFair,
    ] {
        let mut allocator = alloc.build_allocator();
        let grants = allocator.allocate(&AllocCycle {
            active: &[0],
            rates: &[0.4],
            remaining: 1000,
            slice: 13,
            tenant_of: &[None],
            tenants: &[],
            tenant_used: &[],
        });
        assert_eq!(grants, vec![(0, 13)], "{alloc:?}: one job takes the full slice");
        let config = FleetConfig::builder()
            .total_rounds(200)
            .slice(13)
            .allocation(alloc)
            .workers(1)
            .build()
            .unwrap();
        let report = run_fleet(vec![job("a2")], config);
        assert_eq!(report.sources[0].records, 5, "{alloc:?}: the lone job finishes");
        assert_eq!(report.sources[0].stop, StopReason::FrontierExhausted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: with no quotas, weighted-fair grants conserve the cycle
    /// slice *exactly* across cycles — largest-remainder entitlements and
    /// the rotating intra-tenant remainder split never leak a round.
    #[test]
    fn weighted_fair_conserves_the_cycle_slice_exactly(
        spec in prop::collection::vec((1u32..9, 1usize..4), 1..6),
        slice in 1u64..200,
        remaining in 1u64..400,
        cycles in 1usize..4,
    ) {
        let tenants: Vec<Tenant> = spec
            .iter()
            .enumerate()
            .map(|(i, &(w, _))| Tenant::new(i as u32).with_weight(w))
            .collect();
        let mut tenant_of = Vec::new();
        for (slot, &(_, fanout)) in spec.iter().enumerate() {
            for _ in 0..fanout {
                tenant_of.push(Some(slot));
            }
        }
        let active: Vec<usize> = (0..tenant_of.len()).collect();
        let rates = vec![1.0; tenant_of.len()];
        let used = vec![0u64; tenants.len()];
        let mut alloc = WeightedFairAllocator::default();
        for _ in 0..cycles {
            let grants = alloc.allocate(&AllocCycle {
                active: &active,
                rates: &rates,
                remaining,
                slice,
                tenant_of: &tenant_of,
                tenants: &tenants,
                tenant_used: &used,
            });
            let granted: u64 = grants.iter().map(|&(_, g)| g).sum();
            prop_assert_eq!(granted, slice.min(remaining), "unquota'd cycles grant the full slice");
            for &(j, g) in &grants {
                prop_assert!(j < tenant_of.len(), "grants only to known jobs");
                prop_assert!(g > 0, "zero grants are filtered out");
            }
        }
    }

    /// Satellite: weighted-fair grants never exceed a tenant's quota
    /// headroom, and redistribution fills the slice up to the aggregate
    /// headroom — no round is lost to the clamp.
    #[test]
    fn weighted_fair_never_exceeds_quota_headroom(
        spec in prop::collection::vec((1u32..9, 1u64..60, 0u64..80), 1..6),
        slice in 1u64..200,
    ) {
        let tenants: Vec<Tenant> = spec
            .iter()
            .enumerate()
            .map(|(i, &(w, q, _))| Tenant::new(i as u32).with_weight(w).with_quota(q))
            .collect();
        let used: Vec<u64> = spec.iter().map(|&(_, _, u)| u).collect();
        let tenant_of: Vec<Option<usize>> = (0..tenants.len()).map(Some).collect();
        let active: Vec<usize> = (0..tenants.len()).collect();
        let rates = vec![1.0; tenants.len()];
        let mut alloc = WeightedFairAllocator::default();
        let grants = alloc.allocate(&AllocCycle {
            active: &active,
            rates: &rates,
            remaining: 10_000,
            slice,
            tenant_of: &tenant_of,
            tenants: &tenants,
            tenant_used: &used,
        });
        let headroom_total: u64 = spec.iter().map(|&(_, q, u)| q.saturating_sub(u)).sum();
        let granted: u64 = grants.iter().map(|&(_, g)| g).sum();
        prop_assert_eq!(
            granted,
            slice.min(headroom_total),
            "grants fill the slice up to the aggregate headroom"
        );
        for &(j, g) in &grants {
            prop_assert!(
                g <= spec[j].1.saturating_sub(spec[j].2),
                "job {} was granted past its tenant's headroom", j
            );
        }
    }

    /// The legacy allocators under arbitrary harvest rates: grants never
    /// overspend the cycle, and somebody always makes progress.
    #[test]
    fn legacy_allocators_never_overspend_the_cycle(
        n in 1usize..9,
        rates in prop::collection::vec(0.0f64..1.0, 9),
        slice in 1u64..60,
        remaining in 1u64..120,
    ) {
        let active: Vec<usize> = (0..n).collect();
        let tenant_of = vec![None; n];
        for strategy in [AllocationStrategy::Even, AllocationStrategy::HarvestProportional] {
            let mut alloc = strategy.build_allocator();
            let grants = alloc.allocate(&AllocCycle {
                active: &active,
                rates: &rates[..n],
                remaining,
                slice,
                tenant_of: &tenant_of,
                tenants: &[],
                tenant_used: &[],
            });
            let granted: u64 = grants.iter().map(|&(_, g)| g).sum();
            prop_assert!(granted <= slice.min(remaining), "{:?} overspent", strategy);
            prop_assert!(granted > 0, "{:?} granted nothing", strategy);
        }
    }
}

/// Satellite: per-tenant ledgers survive the whole fault matrix — the
/// `rounds` fields sum exactly to the fleet total, and replaying
/// `FleetReport::events` through a fresh registry reproduces every ledger
/// bit-for-bit, at every fleet width, under every `DWC_FAULT_KIND` plan.
#[test]
fn tenanted_fault_matrix_conserves_and_replays_ledgers() {
    let kind = std::env::var("DWC_FAULT_KIND").unwrap_or_else(|_| "mixed".into());
    let seed: u64 = std::env::var("DWC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
    for &workers in &worker_counts() {
        let journal = scratch_journal("tenant-ledger");
        let mut fleet_jobs: Vec<FleetJob<FaultPlanSource<Arc<WebDbServer>>>> = Vec::new();
        for i in 0..3 {
            let plan = if i == 0 { matrix_plan(&kind, seed) } else { FaultPlan::new() };
            let mut builder =
                CrawlConfig::builder().known_target_size(5).max_requeues(10).max_retries(8);
            if i == 0 {
                builder = builder.journal_path(&*journal);
            }
            fleet_jobs.push(FleetJob {
                source: FaultPlanSource::new(Arc::new(figure1_server()), plan),
                policy: PolicyKind::GreedyLink,
                seeds: vec![("A".into(), "a2".into())],
                config: builder.build().unwrap(),
                resume: None,
                tenant: Some(TenantId(if i == 0 { 0 } else { 1 })),
            });
        }
        let config = FleetConfig::builder()
            .total_rounds(4_000)
            .slice(8)
            .max_restarts(5)
            .breaker(BreakerConfig { trip_after: 3, cooldown: 2 })
            .allocation(AllocationStrategy::WeightedFair)
            .workers(workers)
            .tenants(vec![Tenant::new(0).with_weight(2), Tenant::new(1)])
            .build()
            .unwrap();
        let report = run_fleet(fleet_jobs, config);
        for (i, r) in report.sources.iter().enumerate() {
            assert_eq!(r.records, 5, "kind {kind} workers {workers}: job {i} lost records");
        }
        let ledger_rounds: u64 = report.usage.iter().map(|(_, l)| l.rounds).sum();
        assert_eq!(
            ledger_rounds, report.total_rounds,
            "kind {kind} workers {workers}: ledgers must conserve the billed total"
        );
        let replayed: Vec<(TenantId, UsageLedger)> = replay_usage(&report.events)
            .into_iter()
            .map(|(id, ledger)| (TenantId(id), ledger))
            .collect();
        assert_eq!(
            replayed, report.usage,
            "kind {kind} workers {workers}: the usage section must replay bit-for-bit"
        );
    }
}
