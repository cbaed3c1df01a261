//! `DB_local`: the crawler's local copy of the harvested database.
//!
//! Stores every harvested record (deduplicated by the source's record key),
//! and maintains incrementally the statistics the selection policies need:
//!
//! * `num(q, DB_local)` — per-value local match counts (Definition 2.5's
//!   harvest-rate numerator, equation 4.1's numerator),
//! * the local attribute-value graph's **exact degrees** (the greedy
//!   link-based policy of §3.2 ranks candidates by degree in `G_local`),
//! * the record list itself, over which the MMMI policy's batch
//!   mutual-information recomputation iterates (§3.3).

use dwc_model::{PackedLists, U64Table, ValueId};

/// The packed key `(a << 32) | b` of the value pair `(a, b)`, `a < b`: an
/// undirected edge of `G_local`, or a co-occurring pair.
#[inline]
pub(crate) fn pair_key(a: ValueId, b: ValueId) -> u64 {
    (u64::from(a.0) << 32) | u64::from(b.0)
}

/// The crawler's local database and statistics table.
///
/// Records are held in a [`PackedLists`] arena (one flat allocation plus an
/// offset column) rather than one boxed slice per record: at paper scale the
/// per-record allocator overhead dominated the record bytes themselves.
#[derive(Debug, Default)]
pub struct LocalDb {
    seen_keys: U64Table,
    /// Source keys in insertion order, parallel to `records`.
    keys: Vec<u64>,
    records: PackedLists<ValueId>,
    value_count: Vec<u32>,
    degree: Vec<u32>,
    /// Edges of `G_local`, by [`pair_key`].
    edges: U64Table,
    /// The record being inserted, sorted and deduplicated; reused.
    scratch: Vec<ValueId>,
}

impl LocalDb {
    /// An empty local database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of harvested records (`|DB_local|`).
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// Whether the record with this source key has been harvested already.
    pub fn contains_key(&self, key: u64) -> bool {
        self.seen_keys.contains(key)
    }

    /// `num(q, DB_local)`: local records containing `v`.
    #[inline]
    pub fn count(&self, v: ValueId) -> u32 {
        self.value_count.get(v.index()).copied().unwrap_or(0)
    }

    /// Degree of `v` in the local attribute-value graph `G_local`.
    #[inline]
    pub fn degree(&self, v: ValueId) -> u32 {
        self.degree.get(v.index()).copied().unwrap_or(0)
    }

    /// Number of distinct edges in `G_local`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The harvested records (sorted, deduplicated value-id sets).
    pub fn records(&self) -> impl Iterator<Item = &[ValueId]> {
        self.records.iter()
    }

    /// Records inserted at or after index `start` (records are append-only,
    /// so `start = previous num_records()` iterates exactly the new ones).
    pub fn records_since(&self, start: usize) -> impl Iterator<Item = &[ValueId]> {
        self.records.iter_since(start)
    }

    /// `(source key, values)` pairs in insertion order (checkpointing).
    pub fn iter_keyed(&self) -> impl Iterator<Item = (u64, &[ValueId])> {
        self.keys.iter().copied().zip(self.records.iter())
    }

    /// `(source key, values)` pairs inserted at or after index `start` — the
    /// incremental flavor of [`LocalDb::iter_keyed`] the state journal uses
    /// to frame only what a delta added.
    pub fn keyed_since(&self, start: usize) -> impl Iterator<Item = (u64, &[ValueId])> {
        let start = start.min(self.keys.len());
        self.keys[start..].iter().copied().zip(self.records.iter_since(start))
    }

    /// Heap bytes held by the record arena and key/statistics columns
    /// (capacity-based, matching what RSS accounting sees).
    pub fn heap_bytes(&self) -> usize {
        self.records.heap_bytes()
            + self.keys.capacity() * std::mem::size_of::<u64>()
            + self.value_count.capacity() * std::mem::size_of::<u32>()
            + self.degree.capacity() * std::mem::size_of::<u32>()
    }

    /// Inserts a record if its key is new. `values` are crawler-vocabulary
    /// ids in any order, repeats allowed; they are sorted and deduplicated
    /// into a reused buffer. Returns `true` when the record was new (a
    /// *harvested* record in the paper's sense; duplicates are the waste the
    /// policies minimize).
    pub fn insert(&mut self, key: u64, values: &[ValueId]) -> bool {
        if !self.seen_keys.insert(key) {
            return false;
        }
        let sorted = &mut self.scratch;
        sorted.clear();
        sorted.extend_from_slice(values);
        sorted.sort_unstable();
        sorted.dedup();
        let max_idx = sorted.last().map_or(0, |v| v.index());
        if max_idx >= self.value_count.len() {
            self.value_count.resize(max_idx + 1, 0);
            self.degree.resize(max_idx + 1, 0);
        }
        for &v in sorted.iter() {
            self.value_count[v.index()] += 1;
        }
        // Update exact local-graph degrees: each new clique edge bumps both
        // endpoints.
        for (i, &a) in sorted.iter().enumerate() {
            for &b in &sorted[i + 1..] {
                if self.edges.insert(pair_key(a, b)) {
                    self.degree[a.index()] += 1;
                    self.degree[b.index()] += 1;
                }
            }
        }
        self.keys.push(key);
        self.records.push(sorted);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> ValueId {
        ValueId(x)
    }

    #[test]
    fn insert_dedups_by_key() {
        let mut db = LocalDb::new();
        assert!(db.insert(1, &[v(0), v(1)]));
        assert!(!db.insert(1, &[v(0), v(1)]));
        assert_eq!(db.num_records(), 1);
        assert!(db.contains_key(1));
        assert!(!db.contains_key(2));
    }

    #[test]
    fn counts_accumulate() {
        let mut db = LocalDb::new();
        db.insert(1, &[v(0), v(1)]);
        db.insert(2, &[v(0), v(2)]);
        assert_eq!(db.count(v(0)), 2);
        assert_eq!(db.count(v(1)), 1);
        assert_eq!(db.count(v(9)), 0);
    }

    #[test]
    fn degrees_match_local_graph() {
        let mut db = LocalDb::new();
        // Two records sharing v0: G_local = triangle-ish.
        db.insert(1, &[v(0), v(1)]);
        db.insert(2, &[v(0), v(2)]);
        assert_eq!(db.degree(v(0)), 2);
        assert_eq!(db.degree(v(1)), 1);
        assert_eq!(db.degree(v(2)), 1);
        assert_eq!(db.num_edges(), 2);
        // Re-observing the same edge through another record adds nothing.
        db.insert(3, &[v(0), v(1)]);
        assert!(!db.insert(3, &[v(0), v(1)]));
        assert_eq!(db.degree(v(0)), 2);
        assert_eq!(db.num_edges(), 2);
    }

    #[test]
    fn record_values_dedup_within_record() {
        let mut db = LocalDb::new();
        db.insert(7, &[v(3), v(3), v(1)]);
        assert_eq!(db.count(v(3)), 1);
        let rec: Vec<_> = db.records().next().unwrap().to_vec();
        assert_eq!(rec, vec![v(1), v(3)]);
    }

    #[test]
    fn clique_edges_from_larger_record() {
        let mut db = LocalDb::new();
        db.insert(1, &[v(0), v(1), v(2), v(3)]);
        assert_eq!(db.num_edges(), 6, "C(4,2) clique edges");
        for i in 0..4 {
            assert_eq!(db.degree(v(i)), 3);
        }
    }

    #[test]
    fn keyed_since_yields_the_new_tail() {
        let mut db = LocalDb::new();
        db.insert(10, &[v(0)]);
        let mark = db.num_records();
        db.insert(11, &[v(2), v(1)]);
        let tail: Vec<(u64, Vec<ValueId>)> =
            db.keyed_since(mark).map(|(k, r)| (k, r.to_vec())).collect();
        assert_eq!(tail, vec![(11, vec![v(1), v(2)])]);
        assert_eq!(db.keyed_since(99).count(), 0);
        assert!(db.heap_bytes() > 0);
    }

    #[test]
    fn empty_record_is_counted_but_harmless() {
        let mut db = LocalDb::new();
        assert!(db.insert(5, &[]));
        assert_eq!(db.num_records(), 1);
        assert_eq!(db.num_edges(), 0);
    }
}
