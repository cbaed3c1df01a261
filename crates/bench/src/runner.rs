//! Crawl-run orchestration: build a server, seed a crawler, run, report —
//! and a small scoped-thread parallel map for sweeping configurations.

use dwc_core::policy::PolicyKind;
use dwc_core::{CrawlConfig, CrawlReport, Crawler};
use dwc_model::UniversalTable;
use dwc_server::{InterfaceSpec, WebDbServer};
use std::sync::Mutex;

/// One crawl: fresh server over (a clone of) the table, seeded crawler, run.
pub fn run_crawl(
    table: &UniversalTable,
    interface: InterfaceSpec,
    policy: &PolicyKind,
    seeds: &[(String, String)],
    config: CrawlConfig,
) -> CrawlReport {
    let server = WebDbServer::new(table.clone(), interface);
    let mut crawler = Crawler::new(&server, policy.build(), config);
    for (attr, value) in seeds {
        crawler.add_seed(attr, value);
    }
    crawler.run()
}

/// Averages `rounds_to_coverage` over several reports; `None` if any run
/// failed to reach the checkpoint.
pub fn mean_rounds_to_coverage(
    reports: &[CrawlReport],
    coverage: f64,
    target_size: usize,
) -> Option<f64> {
    let mut sum = 0.0;
    for r in reports {
        sum += r.trace.rounds_to_coverage(coverage, target_size)? as f64;
    }
    Some(sum / reports.len() as f64)
}

/// Runs `jobs` closures on worker threads (bounded by available parallelism)
/// and returns their results in input order. Workers pull jobs from one
/// shared iterator, so a slow job never holds up the others.
pub fn parallel_map<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get()).min(jobs.len());
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let drain = || -> Vec<(usize, T)> {
        std::iter::from_fn(|| queue.lock().expect("job queue poisoned").next())
            .map(|(pos, job)| (pos, job()))
            .collect()
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(drain)).collect();
        let mut done = drain();
        for handle in spawned {
            done.extend(handle.join().expect("worker thread panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(pos, _)| pos);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeds::pick_seeds;
    use dwc_datagen::presets::Preset;

    #[test]
    fn run_crawl_reaches_full_coverage_on_tiny_source() {
        let t = Preset::Ebay.table(0.005, 1);
        let n = t.num_records();
        let seeds = pick_seeds(&t, 2, 3);
        let interface = InterfaceSpec::permissive(t.schema(), 10);
        let config = CrawlConfig { known_target_size: Some(n), ..Default::default() };
        let report = run_crawl(&t, interface, &PolicyKind::GreedyLink, &seeds, config);
        assert!(
            report.final_coverage.unwrap() > 0.95,
            "well-connected source must be almost fully crawlable, got {:?}",
            report.final_coverage
        );
    }

    #[test]
    fn parallel_map_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0usize..32).map(|i| Box::new(move || i * i) as _).collect();
        let out = parallel_map(jobs);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn mean_rounds_handles_unreached_checkpoints() {
        let t = Preset::Ebay.table(0.005, 1);
        let n = t.num_records();
        let seeds = pick_seeds(&t, 1, 3);
        let interface = InterfaceSpec::permissive(t.schema(), 10);
        let config =
            CrawlConfig { known_target_size: Some(n), max_rounds: Some(2), ..Default::default() };
        let report = run_crawl(&t, interface, &PolicyKind::Bfs, &seeds, config);
        let reports = vec![report];
        assert!(mean_rounds_to_coverage(&reports, 0.99, n).is_none());
    }
}
