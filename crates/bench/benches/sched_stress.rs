//! BENCH-8: scheduler stress under multi-tenancy — fairness and overhead.
//!
//! Ten thousand crawl jobs (each its own tiny figure-1 server, a tenth of
//! them running a seeded transient-fault plan) are spread round-robin over
//! eight tenants whose weights span a 10:1 skew, under a budget tight
//! enough that every tenant stays hungry. The gates:
//!
//! * **Fairness** — under `AllocationStrategy::WeightedFair`, each tenant's
//!   weighted progress (`ledger rounds / weight`) must agree across the
//!   skew: `max / min ≤` [`FAIRNESS_RATIO_MAX`]. Deficit round-robin with
//!   largest-remainder entitlements should hold this near 1.0.
//! * **Throughput** — the tenancy-aware run must not tax the scheduler:
//!   wall-clock throughput must stay ≥ [`REQUIRED_THROUGHPUT`]× the
//!   tenant-blind `Even` baseline on the identical workload.
//!
//! Setup first asserts the ledgers conserve the billed total and replay
//! bit-for-bit from the event stream; the measured numbers (per-tenant
//! ledgers included) land in `BENCH_8.json` at the repo root so a
//! regression fails `cargo bench` (and CI's scheduler-stress gate) loudly.
//!
//! Pool width follows `DWC_WORKERS` (default 8) so CI can pin the same
//! matrix the fleet acceptance suite sweeps.

use dwc_core::fault::{FaultPlan, FaultPlanSource};
use dwc_core::fleet::{run_fleet, AllocationStrategy, FleetConfig, FleetJob};
use dwc_core::policy::PolicyKind;
use dwc_core::{replay_usage, CrawlConfig, FaultKind, Tenant, TenantId, UsageLedger};
use dwc_server::{InterfaceSpec, WebDbServer};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The fairness gate: max/min weighted tenant progress across the skew.
const FAIRNESS_RATIO_MAX: f64 = 1.25;

/// The throughput gate: tenanted throughput relative to the tenant-blind
/// `Even` baseline on the identical workload.
const REQUIRED_THROUGHPUT: f64 = 0.9;

/// The 10:1 weight skew, one entry per tenant.
const WEIGHTS: [u32; 8] = [10, 8, 6, 5, 4, 3, 2, 1];

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn job_count() -> usize {
    if quick_mode() {
        800
    } else {
        10_000
    }
}

fn workers() -> usize {
    std::env::var("DWC_WORKERS").ok().and_then(|s| s.parse().ok()).unwrap_or(8)
}

fn registry() -> Vec<Tenant> {
    WEIGHTS.iter().enumerate().map(|(i, &w)| Tenant::new(i as u32).with_weight(w)).collect()
}

/// The stress workload: independent figure-1 jobs (one round per query),
/// seeds rotating, every tenth job carrying a seeded transient-fault plan
/// so retries and backoff billing are in the measured path. `tenanted`
/// selects round-robin tenant tags or a tenant-blind fleet.
fn jobs(n: usize, tenanted: bool) -> Vec<FleetJob<FaultPlanSource<Arc<WebDbServer>>>> {
    let seeds = ["a1", "a2", "a3"];
    (0..n)
        .map(|i| {
            let t = dwc_model::fixtures::figure1_table();
            let spec = InterfaceSpec::permissive(t.schema(), 10);
            let plan = if i % 10 == 0 {
                FaultPlan::seeded(i as u64, 40, 0.05, &[FaultKind::Transient])
            } else {
                FaultPlan::new()
            };
            FleetJob {
                source: FaultPlanSource::new(Arc::new(WebDbServer::new(t, spec)), plan),
                policy: PolicyKind::GreedyLink,
                seeds: vec![("A".into(), seeds[i % seeds.len()].into())],
                config: CrawlConfig::builder()
                    .known_target_size(5)
                    .max_retries(8)
                    .build()
                    .expect("valid crawl config"),
                resume: None,
                tenant: tenanted.then(|| TenantId((i % WEIGHTS.len()) as u32)),
            }
        })
        .collect()
}

/// A budget tight enough that no frontier exhausts (figure-1 jobs need ~13
/// rounds; the heaviest tenant's jobs see ~8 here), so every tenant stays
/// contended and fairness is measured under pressure.
fn fleet_config(n: usize, allocation: AllocationStrategy, tenanted: bool) -> FleetConfig {
    FleetConfig::builder()
        .total_rounds(n as u64 * 4)
        .slice(n as u64)
        .allocation(allocation)
        .workers(workers())
        .tenants(if tenanted { registry() } else { Vec::new() })
        .build()
        .expect("valid fleet config")
}

/// Weighted progress per tenant: ledger rounds normalized by weight.
fn weighted_progress(usage: &[(TenantId, UsageLedger)]) -> Vec<f64> {
    usage
        .iter()
        .map(|&(id, ledger)| ledger.rounds as f64 / f64::from(WEIGHTS[id.0 as usize]))
        .collect()
}

fn main() {
    let n = job_count();
    let w = workers();

    // Correctness first: ledgers must conserve the billed total and replay
    // bit-for-bit before any fairness or timing number means anything.
    let report = run_fleet(jobs(n, true), fleet_config(n, AllocationStrategy::WeightedFair, true));
    assert_eq!(report.usage.len(), WEIGHTS.len(), "every tenant must appear in the ledger");
    let ledger_rounds: u64 = report.usage.iter().map(|(_, l)| l.rounds).sum();
    assert_eq!(ledger_rounds, report.total_rounds, "ledgers must conserve the billed total");
    let replayed: Vec<(TenantId, UsageLedger)> = replay_usage(&report.events)
        .into_iter()
        .map(|(id, ledger)| (TenantId(id), ledger))
        .collect();
    assert_eq!(replayed, report.usage, "usage must replay bit-for-bit from the event stream");

    // The fairness gate.
    let progress = weighted_progress(&report.usage);
    let max = progress.iter().cloned().fold(f64::MIN, f64::max);
    let min = progress.iter().cloned().fold(f64::MAX, f64::min);
    let fairness_ratio = max / min.max(1e-12);
    assert!(
        fairness_ratio <= FAIRNESS_RATIO_MAX,
        "weighted tenant progress diverged: max/min {fairness_ratio:.3} > \
         {FAIRNESS_RATIO_MAX} (per-tenant weighted rounds: {progress:?})"
    );

    // The throughput gate: tenancy-aware vs tenant-blind on the identical
    // workload.
    let passes = if quick_mode() { 2 } else { 3 };
    let start = Instant::now();
    for _ in 0..passes {
        black_box(run_fleet(jobs(n, false), fleet_config(n, AllocationStrategy::Even, false)));
    }
    let blind_elapsed = start.elapsed();
    let start = Instant::now();
    for _ in 0..passes {
        black_box(run_fleet(
            jobs(n, true),
            fleet_config(n, AllocationStrategy::WeightedFair, true),
        ));
    }
    let tenanted_elapsed = start.elapsed();
    let throughput_ratio = blind_elapsed.as_secs_f64() / tenanted_elapsed.as_secs_f64().max(1e-12);

    let ledgers: Vec<String> = report
        .usage
        .iter()
        .map(|&(id, l)| {
            format!(
                "    {{\"tenant\": {}, \"weight\": {}, \"rounds\": {}, \"pages\": {}, \
                 \"preempted\": {}}}",
                id.0, WEIGHTS[id.0 as usize], l.rounds, l.pages, l.preempted
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sched_stress\",\n  \"mode\": \"{}\",\n  \"jobs\": {},\n  \
         \"workers\": {},\n  \"tenants\": {},\n  \"timed_passes\": {},\n  \
         \"fairness_ratio\": {:.4},\n  \"fairness_ratio_max\": {:.2},\n  \
         \"tenant_blind_ns_per_pass\": {:.0},\n  \"tenanted_ns_per_pass\": {:.0},\n  \
         \"throughput_ratio\": {:.3},\n  \"required_throughput\": {:.2},\n  \
         \"total_rounds\": {},\n  \"ledgers\": [\n{}\n  ]\n}}\n",
        if quick_mode() { "quick" } else { "full" },
        n,
        w,
        WEIGHTS.len(),
        passes,
        fairness_ratio,
        FAIRNESS_RATIO_MAX,
        blind_elapsed.as_nanos() as f64 / passes as f64,
        tenanted_elapsed.as_nanos() as f64 / passes as f64,
        throughput_ratio,
        REQUIRED_THROUGHPUT,
        report.total_rounds,
        ledgers.join(",\n"),
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_8.json");
    std::fs::write(&out, &json).expect("write BENCH_8.json");
    println!(
        "sched_stress fairness {fairness_ratio:.3} (gate {FAIRNESS_RATIO_MAX}), throughput \
         {throughput_ratio:.2}x blind (gate {REQUIRED_THROUGHPUT}x) -> {}",
        out.display()
    );
    assert!(
        throughput_ratio >= REQUIRED_THROUGHPUT,
        "tenancy-aware scheduling must stay within {REQUIRED_THROUGHPUT}x of the tenant-blind \
         baseline at {n} jobs, measured {throughput_ratio:.3}x ({blind_elapsed:?} blind vs \
         {tenanted_elapsed:?} tenanted)"
    );
}
