//! Cross-crate integration tests: full crawls over generated sources,
//! exercising datagen → server → crawler → policies together.

use deep_web_crawler::core::crawler::StopReason;
use deep_web_crawler::model::components::Connectivity;
use deep_web_crawler::prelude::*;
use std::sync::Arc;

fn crawl(
    table: &UniversalTable,
    interface: InterfaceSpec,
    kind: &PolicyKind,
    seeds: &[(&str, &str)],
    config: CrawlConfig,
) -> CrawlReport {
    let server = WebDbServer::new(table.clone(), interface);
    let mut crawler = Crawler::new(&server, kind.build(), config);
    for (a, v) in seeds {
        crawler.add_seed(a, v);
    }
    crawler.run()
}

/// With an unlimited budget, every policy harvests exactly the records
/// reachable from the seeds — the coverage convergence is policy-independent
/// (Section 1: "the ultimate database coverage is predetermined by the seed
/// values and the target query interfaces").
#[test]
fn coverage_convergence_is_policy_independent() {
    let table = Preset::Ebay.table(0.01, 5);
    let n = table.num_records();
    let seeds = [("Categories", "Categories_0")];
    let mut reached = Vec::new();
    for kind in [
        PolicyKind::Bfs,
        PolicyKind::Dfs,
        PolicyKind::Random(3),
        PolicyKind::GreedyLink,
        PolicyKind::Mmmi(MmmiConfig::default()),
    ] {
        let config = CrawlConfig::builder().known_target_size(n).build().unwrap();
        let report =
            crawl(&table, InterfaceSpec::permissive(table.schema(), 10), &kind, &seeds, config);
        assert_eq!(report.stop, StopReason::FrontierExhausted, "{}", kind.label());
        reached.push(report.records);
    }
    assert!(
        reached.windows(2).all(|w| w[0] == w[1]),
        "all policies reach the same set: {reached:?}"
    );
}

/// The crawl's final record count equals the reachability predicted by the
/// connectivity analysis on the value-union structure.
#[test]
fn crawl_matches_connectivity_analysis() {
    let table = Preset::Acm.table(0.005, 9);
    let n = table.num_records();
    let seed_attr = table.schema().attr_by_name("Author").unwrap();
    let seed_value = table.interner().ids_of_attr(seed_attr)[0];
    let seed_str = table.interner().value_str(seed_value).to_owned();

    let mut conn = Connectivity::analyze(&table);
    let predicted = conn.reachable_coverage(&[seed_value]);

    let config = CrawlConfig::builder().known_target_size(n).build().unwrap();
    let report = crawl(
        &table,
        InterfaceSpec::permissive(table.schema(), 10),
        &PolicyKind::Bfs,
        &[("Author", &seed_str)],
        config,
    );
    let crawled = report.records as f64 / n as f64;
    assert!(
        (crawled - predicted).abs() < 1e-9,
        "connectivity predicts {predicted}, crawl reached {crawled}"
    );
}

/// Wire mode (serialize every page to XML, re-extract) produces exactly the
/// same crawl as the in-process fast path.
#[test]
fn wire_and_in_process_probers_agree() {
    let table = Preset::Ebay.table(0.005, 2);
    let n = table.num_records();
    let run = |prober| {
        let config = CrawlConfig::builder().known_target_size(n).prober(prober).build().unwrap();
        let report = crawl(
            &table,
            InterfaceSpec::permissive(table.schema(), 10),
            &PolicyKind::GreedyLink,
            &[("Categories", "Categories_0"), ("Seller", "Seller_1")],
            config,
        );
        (report.records, report.rounds, report.queries)
    };
    assert_eq!(run(ProberMode::InProcess), run(ProberMode::Wire));
}

/// Transient faults with retries leave the harvested database identical;
/// only the round count grows.
#[test]
fn faults_change_cost_not_content() {
    let table = Preset::Ebay.table(0.005, 2);
    let n = table.num_records();
    let run = |plan: FaultPlan| {
        let server = WebDbServer::new(table.clone(), InterfaceSpec::permissive(table.schema(), 10));
        let source = FaultPlanSource::new(server, plan);
        let config = CrawlConfig::builder().known_target_size(n).max_retries(4).build().unwrap();
        let mut crawler = Crawler::new(&source, PolicyKind::Bfs.build(), config);
        crawler.add_seed("Categories", "Categories_0");
        crawler.run()
    };
    let clean = run(FaultPlan::new());
    let faulty = run(FaultPlan::every(5));
    assert_eq!(clean.records, faulty.records, "faults must not lose records");
    assert_eq!(clean.queries, faulty.queries);
    assert!(faulty.rounds > clean.rounds, "retries cost extra rounds");
    assert!(faulty.transient_failures > 0);
}

/// The abortion heuristics may only reduce communication rounds, never
/// reduce final coverage below the target.
#[test]
fn abortion_saves_rounds_without_losing_target_coverage() {
    let table = Preset::Ebay.table(0.02, 7);
    let n = table.num_records();
    let run = |abort: AbortPolicy| {
        let config = CrawlConfig::builder()
            .known_target_size(n)
            .target_coverage(0.9)
            .abort(abort)
            .build()
            .unwrap();
        crawl(
            &table,
            InterfaceSpec::permissive(table.schema(), 10),
            &PolicyKind::GreedyLink,
            &[("Categories", "Categories_0"), ("Seller", "Seller_1")],
            config,
        )
    };
    let plain = run(AbortPolicy::never());
    let aborted = run(AbortPolicy::standard());
    assert!(plain.final_coverage.unwrap() >= 0.9);
    assert!(aborted.final_coverage.unwrap() >= 0.9);
    assert!(
        aborted.rounds <= plain.rounds,
        "abortion must not cost extra rounds ({} vs {})",
        aborted.rounds,
        plain.rounds
    );
    assert!(aborted.aborted_queries > 0, "the heuristic must actually fire");
}

/// A domain table from a same-domain sample lets the DM policy crawl records
/// the seeds cannot reach (the "data islands" argument of §4, Limitation 2).
#[test]
fn domain_policy_escapes_data_islands() {
    use deep_web_crawler::model::{AttrSpec, Schema};
    // Target: two disconnected blocks. Seeds only reach block 1.
    let schema = Schema::new(vec![AttrSpec::queriable("A"), AttrSpec::queriable("B")]);
    let mut target = UniversalTable::new(schema.clone());
    use deep_web_crawler::model::AttrId;
    for i in 0..10 {
        target.push_record_strs([(AttrId(0), "block1"), (AttrId(1), &format!("x{i}") as &str)]);
    }
    for i in 0..10 {
        target.push_record_strs([(AttrId(0), "block2"), (AttrId(1), &format!("y{i}") as &str)]);
    }
    // Sample: contains both block anchors.
    let mut sample = UniversalTable::new(schema);
    sample.push_record_strs([(AttrId(0), "block1"), (AttrId(1), "z1")]);
    sample.push_record_strs([(AttrId(0), "block2"), (AttrId(1), "z2")]);
    let dm = Arc::new(DomainTable::build(sample));

    let n = target.num_records();
    let config = CrawlConfig::builder().known_target_size(n).build().unwrap();
    // GL from a block-1 seed gets stuck at 50%.
    let gl = crawl(
        &target,
        InterfaceSpec::permissive(target.schema(), 10),
        &PolicyKind::GreedyLink,
        &[("A", "block1")],
        config.clone(),
    );
    assert_eq!(gl.records, 10, "GL cannot cross to the island");
    // DM probes the table value "block2" and finds the island.
    let dm_report = crawl(
        &target,
        InterfaceSpec::permissive(target.schema(), 10),
        &PolicyKind::Domain(dm),
        &[("A", "block1")],
        config,
    );
    assert_eq!(dm_report.records, 20, "DM reaches both blocks");
}

/// Result caps reduce what a single query can retrieve but pagination still
/// never duplicates or loses records within the accessible window.
#[test]
fn result_caps_limit_but_do_not_corrupt() {
    let table = Preset::Ebay.table(0.005, 2);
    let n = table.num_records();
    let run = |cap: usize| {
        let config = CrawlConfig::builder().known_target_size(n).build().unwrap();
        crawl(
            &table,
            InterfaceSpec::permissive(table.schema(), 10).with_result_cap(cap),
            &PolicyKind::GreedyLink,
            &[("Categories", "Categories_0")],
            config,
        )
    };
    let tight = run(10);
    let loose = run(10_000);
    assert!(tight.records <= loose.records);
    assert!(tight.records > 0);
}
