//! Property-based tests over randomly generated databases, spanning the
//! model, server, and crawler crates.

use deep_web_crawler::model::components::Connectivity;
use deep_web_crawler::model::domset::{
    exact_minimum_dominating_set, greedy_weighted_dominating_set, is_dominating_set, set_weight,
};
use deep_web_crawler::model::{AttrId, AttrSpec, AvGraph, Schema, UniversalTable, ValueId};
use deep_web_crawler::prelude::*;
use proptest::prelude::*;

/// A random record: 2–5 `(attr, value-index)` fields over 3 attributes with
/// value pools of 12 per attribute.
fn record_strategy() -> impl Strategy<Value = Vec<(u16, u8)>> {
    prop::collection::vec((0u16..3, 0u8..12), 2..=5)
}

fn table_from(records: &[Vec<(u16, u8)>]) -> UniversalTable {
    let schema = Schema::new(vec![
        AttrSpec::queriable("A"),
        AttrSpec::queriable("B"),
        AttrSpec::queriable("C"),
    ]);
    let mut t = UniversalTable::new(schema);
    for rec in records {
        let fields: Vec<(AttrId, String)> =
            rec.iter().map(|&(a, v)| (AttrId(a), format!("v{v}"))).collect();
        t.push_record_strs(fields.iter().map(|(a, s)| (*a, s.as_str())));
    }
    t
}

proptest! {
    // Whole-crawl properties are expensive per case; 64 random databases per
    // property keeps the suite fast while exploring plenty of shapes.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Definition 2.1: an AVG edge exists iff the two values co-occur in at
    /// least one record.
    #[test]
    fn avg_edges_iff_cooccurrence(records in prop::collection::vec(record_strategy(), 1..30)) {
        let t = table_from(&records);
        let g = AvGraph::from_table(&t);
        // Forward: every record's values form a clique.
        for (_, rec) in t.iter() {
            let vals = rec.values();
            for (i, &a) in vals.iter().enumerate() {
                for &b in &vals[i + 1..] {
                    prop_assert!(g.has_edge(a, b), "record clique edge {a}-{b} missing");
                }
            }
        }
        // Backward: every edge is witnessed by some record.
        for v in g.vertices() {
            for &w in g.neighbors(v) {
                let witnessed = t.iter().any(|(_, r)| r.contains(v) && r.contains(ValueId(w)));
                prop_assert!(witnessed, "edge {v}-{w} has no witnessing record");
            }
        }
    }

    /// Degree sums equal twice the edge count, and adjacency is symmetric.
    #[test]
    fn avg_degree_sum_is_twice_edges(records in prop::collection::vec(record_strategy(), 1..30)) {
        let t = table_from(&records);
        let g = AvGraph::from_table(&t);
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        for v in g.vertices() {
            for &w in g.neighbors(v) {
                prop_assert!(g.has_edge(ValueId(w), v));
            }
        }
    }

    /// Greedy dominating sets are always dominating; on tiny graphs the exact
    /// optimum is also dominating and no heavier than the greedy result.
    #[test]
    fn dominating_sets_are_valid(records in prop::collection::vec(record_strategy(), 1..12)) {
        let t = table_from(&records);
        let g = AvGraph::from_table(&t);
        let weight = |v: ValueId| 1.0 + (v.0 % 3) as f64;
        let greedy = greedy_weighted_dominating_set(&g, weight);
        prop_assert!(is_dominating_set(&g, &greedy));
        if let Some(exact) = exact_minimum_dominating_set(&g, weight) {
            prop_assert!(is_dominating_set(&g, &exact));
            prop_assert!(set_weight(&exact, weight) <= set_weight(&greedy, weight) + 1e-9);
        }
    }

    /// Pagination partitions a query's accessible results: no duplicates, no
    /// losses, page sizes respected, for any page size and cap.
    #[test]
    fn pagination_partitions_results(
        records in prop::collection::vec(record_strategy(), 1..40),
        page_size in 1usize..7,
        cap in prop::option::of(1usize..30),
    ) {
        let t = table_from(&records);
        let mut spec = InterfaceSpec::permissive(t.schema(), page_size);
        if let Some(c) = cap {
            spec = spec.with_result_cap(c);
        }
        let server = WebDbServer::new(t, spec);
        let q = Query::ByString { attr: "A".into(), value: "v0".into() };
        let total = server.oracle_match_count(&q);
        let accessible = cap.map_or(total, |c| total.min(c));
        let mut seen = std::collections::HashSet::new();
        let mut page = 0;
        loop {
            let p = server.query_page(&q, page).unwrap();
            prop_assert!(p.records.len() <= page_size);
            for r in &p.records {
                prop_assert!(seen.insert(r.key), "duplicate key {} across pages", r.key);
            }
            if !p.has_more {
                break;
            }
            page += 1;
            prop_assert!(page < 1000, "pagination must terminate");
        }
        prop_assert_eq!(seen.len(), accessible, "accessible results exactly covered");
    }

    /// Crawler completeness: from any seed, an unlimited-budget BFS crawl
    /// harvests exactly the records the connectivity analysis says are
    /// reachable.
    #[test]
    fn crawl_is_complete_wrt_reachability(
        records in prop::collection::vec(record_strategy(), 1..25),
        seed_attr in 0u16..3,
        seed_val in 0u8..12,
    ) {
        let t = table_from(&records);
        let n = t.num_records();
        let seed_string = format!("v{seed_val}");
        let expected = match t.interner().get(AttrId(seed_attr), &seed_string) {
            Some(v) => {
                let mut conn = Connectivity::analyze(&t);
                (conn.reachable_coverage(&[v]) * n as f64).round() as u64
            }
            None => 0,
        };
        let attr_name = t.schema().attr(AttrId(seed_attr)).name.clone();
        let server = WebDbServer::new(t, InterfaceSpec::permissive(&Schema::new(vec![
            AttrSpec::queriable("A"), AttrSpec::queriable("B"), AttrSpec::queriable("C"),
        ]), 3));
        let mut crawler = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
        crawler.add_seed(&attr_name, &seed_string);
        let report = crawler.run();
        prop_assert_eq!(report.records, expected);
    }

    /// Every policy harvests the same record set on the same source (with
    /// unlimited budget) — selection order changes cost, never convergence.
    #[test]
    fn policies_agree_on_convergence(
        records in prop::collection::vec(record_strategy(), 1..20),
        seed_val in 0u8..12,
    ) {
        let t = table_from(&records);
        let seed = format!("v{seed_val}");
        let run = |kind: PolicyKind| {
            let server = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 4));
            let mut crawler = Crawler::new(&server, kind.build(), CrawlConfig::default());
            crawler.add_seed("B", &seed);
            crawler.run().records
        };
        let bfs = run(PolicyKind::Bfs);
        prop_assert_eq!(run(PolicyKind::Dfs), bfs);
        prop_assert_eq!(run(PolicyKind::Random(9)), bfs);
        prop_assert_eq!(run(PolicyKind::GreedyLink), bfs);
    }

    /// Capture–recapture is exact whenever one sample is the whole
    /// population.
    #[test]
    fn capture_recapture_exact_on_full_sample(pop in 1usize..200, frac in 0.1f64..1.0) {
        let full: Vec<u32> = (0..pop as u32).collect();
        let partial: Vec<u32> =
            (0..pop as u32).filter(|&i| (i as f64) < frac * pop as f64).collect();
        prop_assume!(!partial.is_empty());
        let est = deep_web_crawler::stats::lincoln_petersen(
            full.len(),
            partial.len(),
            deep_web_crawler::stats::capture::sorted_intersection_size(&full, &partial),
        ).unwrap();
        prop_assert!((est - pop as f64).abs() < 1e-9);
    }
}

proptest! {
    // Serving-tier cases spawn worker threads and run whole crawls; a
    // smaller case count keeps the suite quick while still sweeping queue
    // contention, deadlines, and latency seeds.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Def. 2.3 conservation across the serving seam: for any database,
    /// queue pressure, deadline, and latency seed, the rounds the crawls
    /// count equal the rounds the source side billed — executed requests on
    /// the inner counter, shed and cancelled ones on the service's. Neither
    /// backpressure nor cancellation can lose or double-bill a round.
    #[test]
    fn shed_and_cancel_conserve_round_billing(
        records in prop::collection::vec(record_strategy(), 5..30),
        deadline_us in prop::option::of(80u64..4_000),
        seed in 0u64..1_000,
    ) {
        use deep_web_crawler::core::serve::SourceService;
        use std::sync::Arc;
        use std::time::Duration;

        let t = table_from(&records);
        let server = Arc::new(WebDbServer::new(
            t.clone(),
            InterfaceSpec::permissive(t.schema(), 2),
        ));
        // A one-slot queue under two competing crawls forces sheds; the
        // latency floor keeps the queue occupied long enough to collide.
        let config = ServeConfig::builder()
            .queue_depth(1)
            .workers(1)
            .latency(LatencyModel::Uniform {
                min: Duration::from_micros(20),
                max: Duration::from_micros(400),
            })
            .seed(seed)
            .build()
            .expect("valid serve config");
        let service = SourceService::start(Arc::clone(&server), config);
        let conn = Arc::new(service.connect());

        let crawl = |policy_seed: u64| {
            let conn = Arc::clone(&conn);
            let mut builder = CrawlConfig::builder()
                .max_rounds(60)
                .prober(ProberMode::Wire)
                .max_retries(3);
            if let Some(us) = deadline_us {
                builder = builder.deadline(Duration::from_micros(us));
            }
            let config = builder.build().expect("valid crawl config");
            std::thread::spawn(move || {
                let mut crawler =
                    Crawler::new(conn, PolicyKind::Random(policy_seed).build(), config);
                crawler.add_seed("A", "v0");
                crawler.add_seed("B", "v1");
                crawler.run().rounds
            })
        };
        let threads = [crawl(1), crawl(2)];
        let crawled: u64 = threads.into_iter().map(|t| t.join().expect("crawl thread")).sum();

        prop_assert_eq!(crawled, conn.rounds_used(), "every round billed exactly once");

        drop(conn);
        let served = service.shutdown();
        prop_assert_eq!(served.enqueued, served.completed + served.cancelled,
            "a drained queue completes or cancels everything it admitted");
        prop_assert_eq!(crawled, server.rounds_used() + served.shed + served.cancelled,
            "executed + shed + cancelled partitions the crawl's rounds");
    }
}
