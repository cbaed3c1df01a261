//! Property tests for the crawler: checkpoint round-trips, resume
//! equivalence, query-mode set relations, and abortion safety — all over
//! randomly generated databases.

use dwc_core::checkpoint::Checkpoint;
use dwc_core::policy::PolicyKind;
use dwc_core::state::CandStatus;
use dwc_core::{AbortPolicy, CrawlConfig, Crawler, LocalDb, QueryMode};
use dwc_model::{AttrId, AttrSpec, Schema, UniversalTable, ValueId};
use dwc_server::{InterfaceSpec, WebDbServer};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(vec![AttrSpec::queriable("A"), AttrSpec::queriable("B"), AttrSpec::queriable("C")])
}

fn table_from(records: &[Vec<(u16, u8)>]) -> UniversalTable {
    let mut t = UniversalTable::new(schema());
    for rec in records {
        let fields: Vec<(AttrId, String)> =
            rec.iter().map(|&(a, v)| (AttrId(a % 3), format!("v{v}"))).collect();
        t.push_record_strs(fields.iter().map(|(a, s)| (*a, s.as_str())));
    }
    t
}

fn record_strategy() -> impl Strategy<Value = Vec<(u16, u8)>> {
    prop::collection::vec((0u16..3, 0u8..12), 1..=5)
}

fn status_strategy() -> impl Strategy<Value = CandStatus> {
    prop_oneof![
        Just(CandStatus::Undiscovered),
        Just(CandStatus::Frontier),
        Just(CandStatus::Queried),
    ]
}

/// Strings stacked with the characters the checkpoint text format must
/// escape or survive: its own field separator (tab), its escape introducer
/// (%), line breaks that could forge record boundaries, and multi-byte
/// unicode that could break naive byte slicing.
fn adversarial_string() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        Just("\t".to_string()),
        Just("%".to_string()),
        Just("\r\n".to_string()),
        Just("\n".to_string()),
        Just("%09".to_string()),
        Just("%%".to_string()),
        Just("é⟩𝄞".to_string()),
        Just("DWC-CHECKPOINT v2 crc=".to_string()),
        ".{0,3}",
    ];
    prop::collection::vec(fragment, 0..6).prop_map(|parts| parts.concat())
}

/// A structurally valid checkpoint over arbitrary value strings: each
/// `(attr, string)` pair is listed once, as a vocabulary interns it.
fn checkpoint_from(values: Vec<(u16, String)>, rounds: u64, queries: u64) -> Checkpoint {
    let mut seen = std::collections::HashSet::new();
    let values: Vec<(u16, String)> =
        values.into_iter().map(|(a, s)| (a % 3, s)).filter(|v| seen.insert(v.clone())).collect();
    let n = values.len();
    Checkpoint {
        attr_names: vec!["A".into(), "B".into(), "C".into()],
        attr_queriable: vec![true, true, false],
        page_size: 7,
        keyword_mode: queries.is_multiple_of(2),
        values,
        status: (0..n)
            .map(|i| if i.is_multiple_of(2) { CandStatus::Frontier } else { CandStatus::Queried })
            .collect(),
        queried: (0..n as u32).filter(|i| i.is_multiple_of(3)).collect(),
        records: (0..n as u64).map(|k| (k, vec![k as u32])).collect(),
        rounds,
        queries,
    }
}

/// Record keys for `LocalDb`: small ones (repeats likely), 0, and the top of
/// the `u64` range, the empty-slot sentinel of its key table included.
fn record_key_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..160,
        0u64..160,
        Just(0u64),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(1u64 << 63)
    ]
}

/// Value ids for `LocalDb`: a dense low range plus ids with high bits set.
/// `LocalDb`'s counts and degrees are columns indexed by id, so ids stop at
/// 2^20.
fn local_value_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..40, 0u32..40, Just(65_535u32), Just(65_536u32), Just((1u32 << 20) - 1)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `LocalDb`'s incremental counts, degrees and edge count equal a naive
    /// recomputation over the records it accepted, after every insert (the
    /// greedy policy reads degrees between inserts): first sighting of a key
    /// wins, values are deduplicated per record, and `G_local`'s edges are a
    /// std `HashSet` of value pairs. The stream is long enough for values to
    /// reach a third record and beyond.
    #[test]
    fn local_db_matches_a_naive_recount(
        records in prop::collection::vec(
            (record_key_strategy(), prop::collection::vec(local_value_strategy(), 0..8)),
            0..120,
        ),
    ) {
        let mut db = LocalDb::new();
        let mut kept: Vec<(u64, Vec<u32>)> = Vec::new();
        let mut edges = std::collections::HashSet::new();
        let mut count = std::collections::HashMap::<u32, u32>::new();
        for (key, values) in &records {
            let ids: Vec<ValueId> = values.iter().map(|&v| ValueId(v)).collect();
            let new = !kept.iter().any(|(k, _)| k == key);
            prop_assert_eq!(db.insert(*key, &ids), new);
            prop_assert!(db.contains_key(*key));
            if new {
                let mut sorted = values.clone();
                sorted.sort_unstable();
                sorted.dedup();
                for (i, &a) in sorted.iter().enumerate() {
                    *count.entry(a).or_default() += 1;
                    edges.extend(sorted[i + 1..].iter().map(|&b| (a, b)));
                }
                kept.push((*key, sorted));
            }
            let mut degree = std::collections::HashMap::<u32, u32>::new();
            for &(a, b) in &edges {
                *degree.entry(a).or_default() += 1;
                *degree.entry(b).or_default() += 1;
            }
            prop_assert_eq!(db.num_records(), kept.len());
            prop_assert_eq!(db.num_edges(), edges.len());
            for v in (0..40).chain([65_535, 65_536, (1 << 20) - 1, 1 << 20]) {
                prop_assert_eq!(db.count(ValueId(v)), count.get(&v).copied().unwrap_or(0));
                prop_assert_eq!(db.degree(ValueId(v)), degree.get(&v).copied().unwrap_or(0));
            }
        }
        let stored: Vec<(u64, Vec<u32>)> =
            db.iter_keyed().map(|(k, r)| (k, r.iter().map(|v| v.0).collect())).collect();
        prop_assert_eq!(stored, kept);
        for key in [0, 1, 23, 159, u64::MAX, u64::MAX - 1, 1 << 63] {
            prop_assert_eq!(db.contains_key(key), records.iter().any(|(k, _)| *k == key));
        }
    }

    /// Checkpoint text serialization round-trips arbitrary content,
    /// including metacharacters in attribute names and values, exactly
    /// when the checkpoint is consistent: every value's attribute exists
    /// and no `(attr, string)` pair repeats. Anything else is malformed.
    #[test]
    fn checkpoint_text_roundtrips(
        attr_names in prop::collection::vec(any::<String>(), 1..4),
        value_strs in prop::collection::vec((0u16..3, any::<String>()), 0..20),
        rounds in any::<u64>(),
        queries in any::<u64>(),
        statuses in prop::collection::vec(status_strategy(), 0..20),
        page_size in 1usize..50,
    ) {
        let n = value_strs.len().min(statuses.len());
        let cp = Checkpoint {
            attr_queriable: attr_names.iter().map(|s| s.len().is_multiple_of(2)).collect(),
            attr_names,
            page_size,
            keyword_mode: rounds.is_multiple_of(2),
            values: value_strs[..n].to_vec(),
            status: statuses[..n].to_vec(),
            queried: (0..n as u32).filter(|i| i.is_multiple_of(3)).collect(),
            records: (0..n as u64).map(|k| (k, vec![k as u32 % n.max(1) as u32])).collect(),
            rounds,
            queries,
        };
        let mut seen = std::collections::HashSet::new();
        let consistent = cp
            .values
            .iter()
            .all(|(a, s)| usize::from(*a) < cp.attr_names.len() && seen.insert((a, s)));
        match Checkpoint::from_text(&cp.to_text()) {
            Ok(back) => {
                prop_assert!(consistent, "an inconsistent checkpoint was accepted");
                prop_assert_eq!(back, cp);
            }
            Err(e) => prop_assert!(!consistent, "a consistent checkpoint was rejected: {e}"),
        }
    }

    /// Round-trips survive value strings built specifically to attack the
    /// text format: tabs (the field separator), % (the escape introducer),
    /// CR/LF (record-boundary forgery), unicode, and header look-alikes.
    #[test]
    fn checkpoint_roundtrips_adversarial_strings(
        values in prop::collection::vec((0u16..3, adversarial_string()), 0..12),
        rounds in any::<u64>(),
        queries in any::<u64>(),
    ) {
        let cp = checkpoint_from(values, rounds, queries);
        let back = Checkpoint::from_text(&cp.to_text()).unwrap();
        prop_assert_eq!(back, cp);
    }

    /// A v2 checkpoint truncated at ANY byte — the torn-write shape a crash
    /// leaves behind — must be rejected by the checksum, never half-parsed.
    #[test]
    fn truncation_at_every_byte_is_rejected(
        values in prop::collection::vec((0u16..3, adversarial_string()), 0..8),
        rounds in any::<u64>(),
        queries in any::<u64>(),
    ) {
        let cp = checkpoint_from(values, rounds, queries);
        let text = cp.to_text();
        prop_assert!(Checkpoint::from_text(&text).is_ok());
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            prop_assert!(
                Checkpoint::from_text(&text[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not parse",
                text.len()
            );
        }
    }

    /// Interrupt-at-any-point + resume harvests exactly the same record set
    /// as an uninterrupted crawl (BFS: even the same cost).
    #[test]
    fn resume_equals_uninterrupted(
        records in prop::collection::vec(record_strategy(), 1..25),
        cut_after in 0u64..6,
        seed_val in 0u8..12,
    ) {
        let t = table_from(&records);
        let seed = format!("v{seed_val}");
        let baseline = {
            let server = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 3));
            let mut c = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
            c.add_seed("B", &seed);
            c.run()
        };
        let resumed = {
            let server = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 3));
            let mut c = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
            c.add_seed("B", &seed);
            for _ in 0..cut_after {
                if c.step().is_none() {
                    break;
                }
            }
            let cp = Checkpoint::from_text(&c.checkpoint().to_text()).unwrap();
            drop(c);
            let server2 = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 3));
            let c2 = Crawler::resume(&server2, PolicyKind::Bfs.build(), &cp, CrawlConfig::default());
            c2.run()
        };
        prop_assert_eq!(resumed.records, baseline.records);
        prop_assert_eq!(resumed.rounds, baseline.rounds, "BFS resume is cost-exact");
        prop_assert_eq!(resumed.queries, baseline.queries);
    }

    /// Keyword-mode coverage is a superset of structured-mode coverage: any
    /// structured query's matches are contained in the keyword query of the
    /// same string.
    #[test]
    fn keyword_coverage_superset(
        records in prop::collection::vec(record_strategy(), 1..25),
        seed_val in 0u8..12,
    ) {
        let t = table_from(&records);
        let seed = format!("v{seed_val}");
        let run = |mode: QueryMode| {
            let server = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 3));
            let config = CrawlConfig { query_mode: mode, ..Default::default() };
            let mut c = Crawler::new(&server, PolicyKind::Bfs.build(), config);
            c.add_seed("A", &seed);
            c.run().records
        };
        prop_assert!(run(QueryMode::Keyword) >= run(QueryMode::Structured));
    }

    /// The abortion heuristics never reduce the final harvested set when the
    /// crawl runs to frontier exhaustion — aborting a query only skips pages
    /// whose records remain reachable through later queries... except records
    /// reachable ONLY via skipped pages; so instead we assert the safe
    /// property the crawler guarantees: abortion never *increases* cost.
    #[test]
    fn abortion_never_costs_more(
        records in prop::collection::vec(record_strategy(), 1..30),
        seed_val in 0u8..12,
    ) {
        let t = table_from(&records);
        let seed = format!("v{seed_val}");
        let run = |abort: AbortPolicy| {
            let server = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 2));
            let config = CrawlConfig { abort, ..Default::default() };
            let mut c = Crawler::new(&server, PolicyKind::Bfs.build(), config);
            c.add_seed("C", &seed);
            c.run()
        };
        let plain = run(AbortPolicy::never());
        let aborted = run(AbortPolicy::standard());
        prop_assert!(aborted.rounds <= plain.rounds);
    }

    /// Conjunctive-mode coverage never exceeds structured-mode coverage on
    /// the same seeds (each conjunction is an intersection of a structured
    /// query's result).
    #[test]
    fn conjunctive_coverage_subset(
        records in prop::collection::vec(record_strategy(), 1..25),
        seed_val in 0u8..12,
    ) {
        let t = table_from(&records);
        let seed = format!("v{seed_val}");
        let structured = {
            let server = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 3));
            let mut c = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
            c.add_seed("A", &seed);
            c.run().records
        };
        let conjunctive = {
            let server = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 3));
            let config = CrawlConfig {
                query_mode: QueryMode::Conjunctive { arity: 2 },
                ..Default::default()
            };
            let mut c = Crawler::new(&server, PolicyKind::Bfs.build(), config);
            c.add_seed("A", &seed);
            c.run().records
        };
        prop_assert!(conjunctive <= structured);
    }
}
