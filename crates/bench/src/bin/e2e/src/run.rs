//! One run of one workload: set-up, correctness checks, warm-up, then
//! measured passes for the requested time — untraced for the end-to-end
//! metrics, or alternating untraced and traced passes plus a replay for the
//! per-layer metrics.

use crate::host;
use crate::probe::Level;
use crate::replay::{replay, ReplayTotals};
use crate::stats::{median, percentile_sorted, relative_iqr, samples_beyond, tail_supported};
use crate::workload::{table_fingerprint, Pass, Rig, Workload};
use dwc_core::CrawlReport;
use std::time::{Duration, Instant};

/// Untimed passes before measuring: fill the buffer pool, the allocator's
/// free lists and the branch predictors.
const WARMUP_PASSES: usize = 2;
/// Fewest measured (or traced) passes, however long they take.
const MIN_PASSES: usize = 3;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// FNV-1a fingerprints of the generated tables at `--seed 1`.
const DBLP_FINGERPRINT: u64 = 0xc6a4_ca0f_0925_a5f2;
const IMDB_FINGERPRINT: u64 = 0x19aa_b77a_3814_b02c;
/// Rounds each Fig. 3 crawl needs to reach 90% coverage at `--seed 1`
/// (mean 3,767.25; EXPERIMENTS.md still quotes an older 3,797).
const FIG3_ROUNDS_TO_90: [u64; 4] = [3_776, 3_798, 3_718, 3_777];
/// Rounds and queries of the conjunctive crawl at `--seed 1`.
const CONJ_ROUNDS: u64 = 17_420;
const CONJ_QUERIES: u64 = 15_294;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check that failed (empty when correct).
    pub failures: Vec<String>,
    /// Requests offered during the measured passes.
    pub attempted: u64,
    /// Of those, transient, shed or cancelled.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Context lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Every pass must reproduce the workload's reference reports; the pins
/// additionally fix the reference itself at `--seed 1`.
struct Checker {
    reference: Option<Vec<CrawlReport>>,
    failures: Vec<String>,
}

impl Checker {
    fn new(rig: &mut Rig) -> Checker {
        let mut failures = pin_table(rig);
        let reference = rig.reference().map(|reports| {
            failures.extend(pin_reports(rig, &reports));
            rig.normalize(&reports)
        });
        Checker { reference, failures }
    }

    fn pass(&mut self, rig: &Rig, pass: &Pass, what: &str) {
        for (i, r) in pass.reports.iter().enumerate() {
            if r.transient_failures > 0 || r.checkpoint_failures > 0 {
                self.failures.push(format!(
                    "{what}: crawl {i} met {} transient failures and {} failed checkpoints",
                    r.transient_failures, r.checkpoint_failures
                ));
            }
            if r.checkpoints_written != pass.expected_checkpoints(r) {
                self.failures.push(format!(
                    "{what}: crawl {i} wrote {} checkpoints, expected {}",
                    r.checkpoints_written,
                    pass.expected_checkpoints(r)
                ));
            }
        }
        let got = rig.normalize(&pass.reports);
        match &self.reference {
            None => {
                self.failures.extend(pin_reports(rig, &pass.reports));
                self.reference = Some(got);
            }
            Some(expected) if *expected != got => self.failures.push(format!(
                "{what}: crawl reports differ from the reference (rounds {} vs {})",
                got.iter().map(|r| r.rounds).sum::<u64>(),
                expected.iter().map(|r| r.rounds).sum::<u64>()
            )),
            Some(_) => {}
        }
    }
}

fn pin_table(rig: &Rig) -> Vec<String> {
    if rig.seed != 1 {
        return Vec::new();
    }
    let pinned = match rig.workload {
        Workload::FleetOverlap => IMDB_FINGERPRINT,
        _ => DBLP_FINGERPRINT,
    };
    let got = table_fingerprint(rig.table());
    if got == pinned {
        Vec::new()
    } else {
        vec![format!("table fingerprint {got:#018x}, pinned {pinned:#018x}")]
    }
}

fn pin_reports(rig: &Rig, reports: &[CrawlReport]) -> Vec<String> {
    if rig.seed != 1 {
        return Vec::new();
    }
    match rig.workload {
        Workload::Fig3Inproc | Workload::Fig3WirePaged => {
            let got = rig.rounds_to_coverage(reports);
            let pinned: Vec<Option<u64>> = FIG3_ROUNDS_TO_90.iter().copied().map(Some).collect();
            if got == pinned {
                Vec::new()
            } else {
                vec![format!("rounds to 90% coverage {got:?}, pinned {pinned:?}")]
            }
        }
        Workload::ConjInproc | Workload::ConjJournaled => {
            let (rounds, queries) = (reports[0].rounds, reports[0].queries);
            if (rounds, queries) == (CONJ_ROUNDS, CONJ_QUERIES) {
                Vec::new()
            } else {
                vec![format!(
                    "conjunctive crawl took {rounds} rounds / {queries} queries, pinned \
                     {CONJ_ROUNDS} / {CONJ_QUERIES}"
                )]
            }
        }
        Workload::FleetOverlap => Vec::new(),
    }
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Runs `iteration` until `seconds` have been spent and at least
/// [`MIN_PASSES`] iterations ran.
fn until(seconds: u64, mut iteration: impl FnMut()) {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_PASSES || start.elapsed() < budget {
        iteration();
        n += 1;
    }
}

fn warm_up(rig: &mut Rig, check: &mut Checker) {
    for i in 0..WARMUP_PASSES {
        let pass = rig.run_pass(Level::Clock);
        check.pass(rig, &pass, &format!("warm-up pass {i}"));
    }
}

fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// What the end-to-end metrics need from one measured pass (the pass
/// itself is dropped, so memory does not grow with the pass count).
struct Summary {
    rounds: u64,
    failed: u64,
    /// Wall time and per-round percentiles, scaled to the quiet host.
    scaled_ns: f64,
    p50_ns: f64,
    p99_ns: f64,
    /// Unscaled wall time, for the report.
    raw_ns: f64,
    samples: usize,
}

impl Summary {
    fn of(mut pass: Pass) -> Summary {
        pass.samples.sort_unstable();
        let pct = |q| percentile_sorted(&pass.samples, q) as f64 * pass.scale;
        Summary {
            rounds: pass.rounds(),
            failed: pass.failed(),
            scaled_ns: pass.scaled_ns(),
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
            raw_ns: pass.elapsed.as_nanos() as f64,
            samples: pass.samples.len(),
        }
    }
}

/// The end-to-end run: set up [`SETUP_REPS`] times, check, warm up, and
/// measure untraced passes for `seconds`.
pub fn measure(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        // The previous rig (its service, its segment files) goes first, so
        // every set-up starts from the same state.
        drop(rig.take());
        let start = Instant::now();
        let r = Rig::setup(workload, seed, false).map_err(|e| format!("set-up failed: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64() * host::scale());
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");
    let mut check = Checker::new(&mut rig);
    warm_up(&mut rig, &mut check);

    let mut passes: Vec<Summary> = Vec::new();
    until(seconds, || {
        let pass = rig.run_pass(Level::Clock);
        check.pass(&rig, &pass, &format!("pass {}", passes.len()));
        passes.push(Summary::of(pass));
    });

    let mut out = Outcome { failures: std::mem::take(&mut check.failures), ..Outcome::default() };
    out.attempted = passes.iter().map(|p| p.rounds).sum();
    out.failed = passes.iter().map(|p| p.failed).sum();
    if let Some(p) = passes.iter().find(|p| !tail_supported(p.samples, 0.99)) {
        out.failures.push(format!("a pass has only {} round samples", p.samples));
        return Ok(out);
    }
    let of = |f: fn(&Summary) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let rates: Vec<f64> = passes.iter().map(|p| p.rounds as f64 / p.scaled_ns * 1e9).collect();
    let raw_rate = of(|p| p.rounds as f64 / p.raw_ns * 1e9);
    let samples = passes[0].samples;
    out.notes = vec![
        format!("{} measured passes after {WARMUP_PASSES} warm-up passes", passes.len()),
        format!(
            "{samples} round samples per pass, {} beyond p99; rounds_per_s IQR {:.2}% of median",
            samples_beyond(samples, 0.99),
            100.0 * relative_iqr(&rates)
        ),
        format!(
            "times scaled to the quiet host: median factor {:.3}, unscaled rounds_per_s {raw_rate:.1}",
            of(|p| p.scaled_ns / p.raw_ns)
        ),
        format!("scaled set-up times (s): {setup_s:.4?}"),
    ];
    if let Some(bytes) = rig.segment_bytes() {
        out.notes.push(format!("segment bytes behind the pool: {bytes}"));
    }
    drop(rig);
    out.metrics = vec![
        metric("rounds_per_s", median(&rates), "1/s"),
        metric("round_us_p50", of(|p| p.p50_ns) / 1e3, "us"),
        metric("round_us_p99", of(|p| p.p99_ns) / 1e3, "us"),
        metric("rounds", passes[0].rounds as f64, "count"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    Ok(out)
}

/// The traced run: alternate untraced and traced passes for `seconds`
/// (plus unjournaled passes on `conj-journaled`), then replay the last
/// traced pass's request log on a replica.
pub fn trace(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut rig = Rig::setup(workload, seed, true).map_err(|e| format!("set-up failed: {e}"))?;
    let mut check = Checker::new(&mut rig);
    warm_up(&mut rig, &mut check);

    let (mut plain, mut untraced, mut traced): (Vec<Pass>, Vec<Pass>, Vec<Pass>) =
        (Vec::new(), Vec::new(), Vec::new());
    until(seconds, || {
        if workload == Workload::ConjJournaled {
            let mut pass = rig.run_pass_with(Level::Clock, false);
            check.pass(&rig, &pass, "unjournaled pass");
            pass.samples = Vec::new();
            plain.push(pass);
        }
        let mut pass = rig.run_pass(Level::Clock);
        check.pass(&rig, &pass, "untraced pass");
        pass.samples = Vec::new();
        untraced.push(pass);
        let mut pass = rig.run_pass(Level::Trace);
        check.pass(&rig, &pass, "traced pass");
        // Only the last traced pass is replayed.
        if let Some(prev) = traced.last_mut() {
            prev.log = Vec::new();
        }
        pass.samples = Vec::new();
        traced.push(pass);
    });
    let last = traced.last().expect("at least one traced pass");
    let replica = rig.replica();
    let mut totals = replay(&replica, &last.log, |_| {});
    totals.scale(host::scale());

    let mut out = Outcome { failures: std::mem::take(&mut check.failures), ..Outcome::default() };
    out.attempted = traced.iter().map(Pass::rounds).sum();
    out.failed = traced.iter().map(Pass::failed).sum();
    out.metrics = layer_metrics(&rig, &plain, &untraced, &traced, &totals);
    out.notes = vec![
        format!("{} traced and {} untraced passes", traced.len(), untraced.len()),
        format!("replayed {} requests of the last traced pass", last.log.len()),
        "times scaled to the quiet host".to_string(),
    ];
    Ok(out)
}

/// Per-layer metrics. Times are medians over traced passes; replay
/// measures a layer's public function on the last traced pass's requests.
fn layer_metrics(
    rig: &Rig,
    plain: &[Pass],
    untraced: &[Pass],
    traced: &[Pass],
    r: &ReplayTotals,
) -> Vec<Metric> {
    let last = traced.last().expect("at least one traced pass");
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let elapsed = |ps: &[Pass]| {
        if ps.is_empty() {
            0.0
        } else {
            med(ps, Pass::scaled_ns)
        }
    };
    let rounds = |p: &Pass| p.rounds() as f64;
    let pages = r.pages as f64;
    let service = last.service.is_some();
    let threads = rig.workload.load_threads() as f64;

    // Every time below is scaled by its own pass's host factor.
    let ns = |p: &Pass, raw: u64| raw as f64 * p.scale;
    let policy_ns = |p: &Pass| p.policy.as_ref().map_or(0.0, |(t, _, _)| ns(p, *t));
    let select_p50 = |p: &Pass| match &p.policy {
        Some((_, _, s)) if !s.is_empty() => {
            let mut s = s.clone();
            s.sort_unstable();
            ns(p, percentile_sorted(&s, 0.5))
        }
        _ => 0.0,
    };
    let journaled = rig.workload == Workload::ConjJournaled;
    let queries = last.queries() as f64;
    // Journal and checkpoint writes happen between rounds, outside every
    // decorator: their cost is the journaled-minus-unjournaled pass time.
    let journal_ns_per_query =
        if journaled { per(elapsed(untraced) - elapsed(plain), queries) } else { 0.0 };
    let round_ns = |p: &Pass| per(p.scaled_ns() * threads, rounds(p));
    let layers_ns = |p: &Pass| {
        let journal = journal_ns_per_query * p.queries() as f64;
        per(policy_ns(p) + ns(p, p.client.respond_ns) + journal, rounds(p))
    };
    let parse_per_page = per(r.parse_ns as f64, pages);
    let serve_ns = |p: &Pass| {
        let c = p.client;
        per(ns(p, c.respond_ns - c.visit_ns) - ns(p, p.worker.respond_ns), rounds(p))
            - parse_per_page
    };
    let pool = last.pool;
    let svc = last.service.unwrap_or_default();
    let sched = last.sched.clone().unwrap_or_default();
    let imbalance = {
        let w = &sched.per_worker_slices;
        let mean = w.iter().sum::<u64>() as f64 / w.len().max(1) as f64;
        per(w.iter().copied().max().unwrap_or(0) as f64, mean)
    };

    vec![
        metric("policy.ns_per_round", med(traced, |p| per(policy_ns(p), rounds(p))), "ns"),
        metric("policy.select_ns_p50", med(traced, select_p50), "ns"),
        metric(
            "policy.calls_per_query",
            per(last.policy.as_ref().map_or(0.0, |(_, c, _)| *c as f64), queries),
            "count",
        ),
        metric(
            "ingest.ns_per_round",
            med(traced, |p| per(ns(p, p.client.visit_ns), rounds(p))),
            "ns",
        ),
        metric(
            "ingest.ns_per_record",
            med(traced, |p| per(ns(p, p.client.visit_ns), p.client.records as f64)),
            "ns",
        ),
        metric(
            "ingest.new_per_returned",
            per(
                last.reports.iter().map(|r| r.records).sum::<u64>() as f64,
                last.client.records as f64,
            ),
            "ratio",
        ),
        metric("serve.ns_per_round", if service { med(traced, serve_ns) } else { 0.0 }, "ns"),
        metric("serve.queue_depth_max", f64::from(svc.max_queue_depth), "count"),
        metric("serve.latency_us_p50", svc.p50_latency_us as f64, "us"),
        metric("serve.latency_us_p99", svc.p99_latency_us as f64, "us"),
        metric("serve.shed", svc.shed as f64, "count"),
        metric("server.page_ns", per(r.page_ns as f64, pages), "ns"),
        metric(
            "server.intersect_ns_per_query",
            per(r.intersect_ns as f64, r.conj_queries as f64),
            "ns",
        ),
        metric(
            "server.records_per_page",
            per(last.client.records as f64, last.client.calls as f64),
            "count",
        ),
        metric("render.ns_per_page", per(r.render_ns as f64, pages), "ns"),
        metric("render.bytes_per_page", per(r.render_bytes as f64, pages), "B"),
        metric(
            "cache.hit_rate",
            per(last.cache.0 as f64, (last.cache.0 + last.cache.1) as f64),
            "ratio",
        ),
        metric("extract.ns_per_page", parse_per_page, "ns"),
        metric(
            "extract.parses_per_round",
            per((last.client.wire_parses + last.worker.wire_parses) as f64, rounds(last)),
            "count",
        ),
        metric(
            "wire.encode_ns_per_round",
            if service { med(traced, |p| per(ns(p, p.worker.visit_ns), rounds(p))) } else { 0.0 },
            "ns",
        ),
        metric(
            "wire.bytes_per_round",
            if service { per(r.encode_bytes as f64, pages) } else { 0.0 },
            "B",
        ),
        metric(
            "store.pool_hit_rate",
            per(pool.hits as f64, (pool.hits + pool.misses) as f64),
            "ratio",
        ),
        metric("store.pool_misses_per_round", per(pool.misses as f64, rounds(last)), "count"),
        metric("store.evictions_per_round", per(pool.evictions as f64, rounds(last)), "count"),
        metric("store.overflow_reads", pool.overflow_reads as f64, "count"),
        metric("store.ns_per_round", med(traced, |p| per(ns(p, p.pager.1), rounds(p))), "ns"),
        metric("sched.slices", sched.slices_completed as f64, "count"),
        metric("sched.steals", sched.steals as f64, "count"),
        metric(
            "sched.grant_use",
            per(sched.rounds_executed as f64, sched.rounds_granted as f64),
            "ratio",
        ),
        metric("sched.worker_imbalance", imbalance, "ratio"),
        metric("journal.ns_per_query", journal_ns_per_query, "ns"),
        metric(
            "journal.wchar_per_query",
            if journaled { med(traced, |p| per(p.io.0 as f64, p.queries() as f64)) } else { 0.0 },
            "B",
        ),
        metric(
            "journal.write_syscalls_per_query",
            if journaled { med(traced, |p| per(p.io.1 as f64, p.queries() as f64)) } else { 0.0 },
            "count",
        ),
        metric(
            "journal.checkpoints",
            last.reports.iter().map(|r| r.checkpoints_written).sum::<u64>() as f64,
            "count",
        ),
        metric("events.per_round", per(last.events as f64, rounds(last)), "count"),
        metric("trace.round_ns", med(traced, round_ns), "ns"),
        metric("trace.layers_ns_per_round", med(traced, layers_ns), "ns"),
        metric(
            "driver.unattributed_ns_per_round",
            med(traced, |p| round_ns(p) - layers_ns(p)),
            "ns",
        ),
        metric("trace.overhead_pct", 100.0 * (elapsed(traced) / elapsed(untraced) - 1.0), "%"),
    ]
}
