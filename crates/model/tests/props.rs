//! Property tests for the data-model substrate.

use dwc_model::components::UnionFind;
use dwc_model::{AttrId, Record, U64Table, ValueId, ValueInterner};
use proptest::prelude::*;

/// Value ids at both ends of the `u32` range.
fn edge_id_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..6, (u32::MAX - 5)..=u32::MAX]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `U64Table` as a set of packed value pairs `(a << 32) | b` agrees with
    /// std's `HashSet` when ids sit near 0 and near `u32::MAX`: the keys
    /// crowd both ends of the `u64` range, and `(u32::MAX, u32::MAX)` packs
    /// to the table's empty-slot sentinel.
    #[test]
    fn u64_table_agrees_with_std_on_packed_pairs(
        pairs in prop::collection::vec((edge_id_strategy(), edge_id_strategy()), 0..200),
    ) {
        let mut table = U64Table::<()>::new();
        let mut oracle = std::collections::HashSet::new();
        for &(a, b) in &pairs {
            let key = (u64::from(a) << 32) | u64::from(b);
            prop_assert_eq!(table.insert(key), oracle.insert(key));
        }
        prop_assert_eq!(table.len(), oracle.len());
        for a in (0u32..6).chain((u32::MAX - 5)..=u32::MAX) {
            for b in (0u32..6).chain((u32::MAX - 5)..=u32::MAX) {
                let key = (u64::from(a) << 32) | u64::from(b);
                prop_assert_eq!(table.contains(key), oracle.contains(&key));
            }
        }
    }

    /// Interning arbitrary strings (any unicode) round-trips exactly, and
    /// repeated interning is idempotent.
    #[test]
    fn interner_roundtrips_arbitrary_strings(
        strings in prop::collection::vec(any::<String>(), 1..30),
        attrs in prop::collection::vec(0u16..4, 1..30),
    ) {
        let mut it = ValueInterner::new();
        let mut ids = Vec::new();
        for (s, a) in strings.iter().zip(attrs.iter().cycle()) {
            ids.push((it.intern(AttrId(*a), s), AttrId(*a), s.clone()));
        }
        for (id, attr, s) in &ids {
            prop_assert_eq!(it.value_str(*id), s.as_str());
            prop_assert_eq!(it.attr_of(*id), *attr);
            prop_assert_eq!(it.intern(*attr, s), *id, "idempotent");
            prop_assert_eq!(it.get(*attr, s), Some(*id));
        }
    }

    /// Distinct (attr, string) pairs always get distinct ids.
    #[test]
    fn interner_ids_injective(pairs in prop::collection::btree_set((0u16..4, ".{0,12}"), 1..50)) {
        let mut it = ValueInterner::new();
        let ids: Vec<ValueId> =
            pairs.iter().map(|(a, s)| it.intern(AttrId(*a), s)).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), pairs.len());
    }

    /// Record construction sorts, dedups, and is idempotent.
    #[test]
    fn record_normalization(ids in prop::collection::vec(0u32..64, 0..24)) {
        let rec = Record::new(ids.iter().map(|&i| ValueId(i)).collect());
        let vals = rec.values();
        prop_assert!(vals.windows(2).all(|w| w[0] < w[1]), "strictly sorted");
        for &i in &ids {
            prop_assert!(rec.contains(ValueId(i)));
        }
        let again = Record::new(vals.to_vec());
        prop_assert_eq!(again.values(), vals);
    }

    /// Union–find maintains an equivalence relation: reflexive, symmetric
    /// (trivially), transitive through arbitrary union sequences.
    #[test]
    fn union_find_equivalence(unions in prop::collection::vec((0u32..40, 0u32..40), 0..80)) {
        let mut uf = UnionFind::new(40);
        // Reference: naive set partition.
        let mut labels: Vec<u32> = (0..40).collect();
        for &(a, b) in &unions {
            uf.union(a, b);
            let (la, lb) = (labels[a as usize], labels[b as usize]);
            if la != lb {
                for l in labels.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for i in 0..40u32 {
            for j in 0..40u32 {
                prop_assert_eq!(
                    uf.connected(i, j),
                    labels[i as usize] == labels[j as usize],
                    "pair ({}, {})", i, j
                );
            }
        }
    }
}
