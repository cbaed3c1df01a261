//! Inverted index from attribute values to record ids.
//!
//! `ValueId → sorted postings list` of the records containing that value,
//! over a resident table: the DM domain table's sample and `oracle_gap`'s
//! cost model use it. (A server answers from the postings of its
//! `SegmentTable` instead.) Built once from the universal table in two
//! counting passes (no per-posting allocation).

use dwc_model::{UniversalTable, ValueId};

/// Inverted index: postings per distinct attribute value.
///
/// Both columns are sealed `Box<[u32]>`s: the index never grows after
/// `build`, so it carries no `Vec` growth slack.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    offsets: Box<[u32]>,
    postings: Box<[u32]>,
}

impl InvertedIndex {
    /// Builds the index over all records of the table.
    pub fn build(table: &UniversalTable) -> Self {
        let n = table.num_distinct_values();
        let mut counts = vec![0u32; n + 1];
        for (_, rec) in table.iter() {
            for &v in rec.values() {
                counts[v.index() + 1] += 1;
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts;
        let mut postings = vec![0u32; *offsets.last().unwrap_or(&0) as usize];
        let mut cursor = offsets.clone();
        for (rid, rec) in table.iter() {
            for &v in rec.values() {
                let c = &mut cursor[v.index()];
                postings[*c as usize] = rid.0;
                *c += 1;
            }
        }
        // Record ids are visited in ascending order, so each postings list is
        // already sorted. Seal both columns into boxed slices: the exact-size
        // allocations shed whatever capacity slack the build vectors carried.
        InvertedIndex { offsets: offsets.into_boxed_slice(), postings: postings.into_boxed_slice() }
    }

    /// Sorted record ids containing `v`.
    #[inline]
    pub fn postings(&self, v: ValueId) -> &[u32] {
        match self.offsets.get(v.index()..=v.index() + 1) {
            Some([s, e]) => &self.postings[*s as usize..*e as usize],
            _ => &[],
        }
    }

    /// Number of records matching `v` (`num(q_i, DB)` in Definition 2.3).
    #[inline]
    pub fn match_count(&self, v: ValueId) -> usize {
        self.postings(v).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwc_model::fixtures::figure1_table;
    use dwc_model::{AttrId, RecordId};
    use dwc_store::postings;

    #[test]
    fn postings_match_table_scan() {
        let t = figure1_table();
        let idx = InvertedIndex::build(&t);
        for v in t.interner().iter_ids() {
            assert_eq!(idx.match_count(v), t.count_matches(v), "value {v}");
        }
    }

    #[test]
    fn postings_sorted() {
        let t = figure1_table();
        let idx = InvertedIndex::build(&t);
        for v in t.interner().iter_ids() {
            let p = idx.postings(v);
            assert!(p.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn figure1_a2_matches_three_records() {
        let t = figure1_table();
        let idx = InvertedIndex::build(&t);
        let a2 = t.interner().get(AttrId(0), "a2").unwrap();
        assert_eq!(idx.postings(a2), &[1, 2, 3]);
    }

    /// The postings of `values`, packed little-endian the way a
    /// `SegmentTable` stores them, for `dwc_store::postings`.
    fn packed(idx: &InvertedIndex, values: &[ValueId]) -> Vec<Vec<u8>> {
        values
            .iter()
            .map(|&v| idx.postings(v).iter().flat_map(|id| id.to_le_bytes()).collect())
            .collect()
    }

    fn intersect(idx: &InvertedIndex, values: &[ValueId]) -> Vec<RecordId> {
        postings::intersect(&mut packed(idx, values)).into_iter().map(RecordId).collect()
    }

    fn union(idx: &InvertedIndex, values: &[ValueId]) -> Vec<RecordId> {
        postings::union(&packed(idx, values)).into_iter().map(RecordId).collect()
    }

    #[test]
    fn union_dedups_across_lists() {
        let t = figure1_table();
        let idx = InvertedIndex::build(&t);
        let a2 = t.interner().get(AttrId(0), "a2").unwrap();
        let c2 = t.interner().get(AttrId(2), "c2").unwrap();
        // a2 → {1,2,3}, c2 → {2,3,4}; union {1,2,3,4}.
        let u = union(&idx, &[a2, c2]);
        assert_eq!(u, vec![RecordId(1), RecordId(2), RecordId(3), RecordId(4)]);
    }

    #[test]
    fn intersect_narrows() {
        let t = figure1_table();
        let idx = InvertedIndex::build(&t);
        let a2 = t.interner().get(AttrId(0), "a2").unwrap();
        let c2 = t.interner().get(AttrId(2), "c2").unwrap();
        // a2 → {1,2,3}, c2 → {2,3,4}; intersection {2,3}.
        assert_eq!(intersect(&idx, &[a2, c2]), vec![RecordId(2), RecordId(3)]);
        assert_eq!(intersect(&idx, &[a2]), vec![RecordId(1), RecordId(2), RecordId(3)]);
        assert!(intersect(&idx, &[]).is_empty());
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let t = figure1_table();
        let idx = InvertedIndex::build(&t);
        let a1 = t.interner().get(AttrId(0), "a1").unwrap();
        let c2 = t.interner().get(AttrId(2), "c2").unwrap();
        assert!(intersect(&idx, &[a1, c2]).is_empty());
    }

    #[test]
    fn union_of_nothing_is_empty() {
        let t = figure1_table();
        let idx = InvertedIndex::build(&t);
        assert!(union(&idx, &[]).is_empty());
    }

    #[test]
    fn skewed_conjunction_through_the_index() {
        use dwc_model::{AttrSpec, Schema};
        // 400 records all share A=common; C=rare appears on 3 of them —
        // exactly the rare∧popular shape galloping is for.
        let schema = Schema::new(vec![AttrSpec::queriable("A"), AttrSpec::queriable("C")]);
        let mut t = UniversalTable::new(schema);
        for i in 0..400u32 {
            let c = if i % 150 == 7 { "rare".to_string() } else { format!("c{i}") };
            t.push_record_strs([(AttrId(0), "common"), (AttrId(1), c.as_str())]);
        }
        let idx = InvertedIndex::build(&t);
        let common = t.interner().get(AttrId(0), "common").unwrap();
        let rare = t.interner().get(AttrId(1), "rare").unwrap();
        assert!(idx.match_count(common) >= postings::GALLOP_SKEW * idx.match_count(rare));
        let got = intersect(&idx, &[common, rare]);
        assert_eq!(got, vec![RecordId(7), RecordId(157), RecordId(307)]);
        assert_eq!(intersect(&idx, &[rare, common]), got, "order-insensitive");
    }

    #[test]
    fn out_of_range_value_has_no_postings() {
        let t = figure1_table();
        let idx = InvertedIndex::build(&t);
        assert_eq!(idx.match_count(ValueId(10_000)), 0);
    }
}
