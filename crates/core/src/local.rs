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
//!
//! Degrees are kept without a table of edges. Each value `b` answers for the
//! edges to the smaller ids it shares a record with, its *lower neighbours*,
//! so a new record's pair `(a, b)`, `a < b`, is a new edge exactly when `a`
//! is not yet a lower neighbour of `b`. A value's first record makes all of
//! its pairs new, with no lookup. While it sits in that one record, the
//! record itself lists its lower neighbours; it gets a set of them, built
//! from that record, when it enters its second. Degrees follow a power law
//! (the paper's Fig. 2), so most values never need a set.

use dwc_model::flat::{home_slot, odd_multiplier, over_load, slots_for};
use dwc_model::{PackedLists, U64Table, ValueId};

/// The crawler's local database and statistics table.
///
/// Records are held in a [`PackedLists`] arena (one flat allocation plus an
/// offset column) rather than one boxed slice per record: at paper scale the
/// per-record allocator overhead dominated the record bytes themselves.
/// `G_local`'s degrees come from per-value lower-neighbour sets, which exist
/// only for values in two or more records (see the module doc).
#[derive(Debug)]
pub struct LocalDb {
    seen_keys: U64Table,
    /// Source keys in insertion order, parallel to `records`.
    keys: Vec<u64>,
    records: PackedLists<ValueId>,
    value_count: Vec<u32>,
    degree: Vec<u32>,
    /// Per value in exactly one record, that record's index; per value in
    /// more, the index of its set in `lower`.
    home: Vec<u32>,
    /// Lower-neighbour sets of the values in two or more records.
    lower: Vec<LowerSet>,
    /// The odd multiplier every set in `lower` hashes by. The keys are the
    /// crawler's own ids, not the source's, so the sets share one.
    multiplier: u64,
    /// Number of distinct edges in `G_local`.
    edges: usize,
    /// The record being inserted, sorted and deduplicated; reused.
    scratch: Vec<ValueId>,
}

impl Default for LocalDb {
    fn default() -> Self {
        LocalDb {
            seen_keys: U64Table::new(),
            keys: Vec::new(),
            records: PackedLists::new(),
            value_count: Vec::new(),
            degree: Vec::new(),
            home: Vec::new(),
            lower: Vec::new(),
            multiplier: odd_multiplier(),
            edges: 0,
            scratch: Vec::new(),
        }
    }
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
        self.edges
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
            self.home.resize(max_idx + 1, 0);
        }
        let record = u32::try_from(self.records.len()).expect("at most u32::MAX records");
        // Each value `b` settles its pairs with the record's lower ids, top
        // down. `first_above` counts the values above `b` that enter their
        // first record: each made a new edge with `b`.
        let mut first_above = 0;
        for (j, &b) in sorted.iter().enumerate().rev() {
            let (bi, below) = (b.index(), &sorted[..j]);
            self.degree[bi] += first_above;
            match self.value_count[bi] {
                0 => {
                    // Nothing was adjacent to `b`: every pair is a new edge.
                    // `j` fits: the record holds distinct `u32` ids.
                    self.degree[bi] += j as u32;
                    self.edges += j;
                    self.home[bi] = record;
                    first_above += 1;
                }
                seen => {
                    if seen == 1 {
                        // `b`'s one earlier record lists its lower neighbours.
                        let earlier = self.records.get(self.home[bi] as usize);
                        let lower = &earlier[..earlier.partition_point(|&a| a < b)];
                        let mut set = LowerSet::sized_for(lower.len() + j);
                        for &a in lower {
                            set.insert(a.0, self.multiplier);
                        }
                        self.home[bi] =
                            u32::try_from(self.lower.len()).expect("at most u32::MAX sets");
                        self.lower.push(set);
                    }
                    let set = &mut self.lower[self.home[bi] as usize];
                    let mut new = 0;
                    for &a in below {
                        if set.insert(a.0, self.multiplier) {
                            self.degree[a.index()] += 1;
                            new += 1;
                        }
                    }
                    self.degree[bi] += new;
                    self.edges += new as usize;
                }
            }
            self.value_count[bi] += 1;
        }
        self.keys.push(key);
        self.records.push(sorted);
        true
    }
}

/// Vacant-slot marker of a [`LowerSet`]. A lower neighbour is below some
/// `u32` id, so it is never `u32::MAX`.
const VACANT: u32 = u32::MAX;

/// One value's lower neighbours: a flat set of ids on the workspace's slot
/// rule, hashed by multiply-shift with its [`LocalDb`]'s multiplier.
#[derive(Debug)]
struct LowerSet {
    slots: Box<[u32]>,
    filled: usize,
}

impl LowerSet {
    /// An empty set with room for `entries` ids.
    fn sized_for(entries: usize) -> Self {
        LowerSet { slots: vec![VACANT; slots_for(entries)].into(), filled: 0 }
    }

    /// Adds `id`; `true` when it was not held yet.
    #[inline]
    fn insert(&mut self, id: u32, multiplier: u64) -> bool {
        if over_load(self.filled + 1, self.slots.len()) {
            let old = std::mem::replace(self, LowerSet::sized_for(self.filled + 1));
            for &held in old.slots.iter().filter(|&&held| held != VACANT) {
                self.insert(held, multiplier);
            }
        }
        let mask = self.slots.len() - 1;
        let mut i = home_slot(u64::from(id).wrapping_mul(multiplier), self.slots.len());
        loop {
            match self.slots[i] {
                VACANT => {
                    self.slots[i] = id;
                    self.filled += 1;
                    return true;
                }
                held if held == id => return false,
                _ => i = (i + 1) & mask,
            }
        }
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
    }

    /// Replays an IMDB-like table (about 12 values per record, with hub
    /// values in hundreds of records) under the table's id order and its
    /// reverse: a value's lower neighbours under one are its upper ones
    /// under the other. Degrees and the edge count must equal a recount over
    /// a set of value pairs.
    #[test]
    fn imdb_replay_matches_a_pair_set_recount() {
        let table = dwc_datagen::Preset::Imdb.table(0.01, 7);
        let n = table.num_distinct_values() as u32;
        let pairs: usize = table.iter().map(|(_, r)| r.len() * (r.len() - 1) / 2).sum();
        assert!(pairs > 60 * table.num_records(), "{pairs} pairs");
        for relabel in [|x: u32, _| x, |x: u32, n: u32| n - 1 - x] {
            let mut db = LocalDb::new();
            let mut edges = std::collections::HashSet::new();
            let mut rec = Vec::new();
            for (id, record) in table.iter() {
                rec.clear();
                rec.extend(record.values().iter().map(|x| v(relabel(x.0, n))));
                assert!(db.insert(id.index() as u64, &rec));
                rec.sort_unstable();
                for (i, &a) in rec.iter().enumerate() {
                    edges.extend(rec[i + 1..].iter().map(|&b| (a, b)));
                }
                assert_eq!(db.num_edges(), edges.len(), "after record {}", id.index());
            }
            let mut degree = vec![0u32; n as usize];
            for &(a, b) in &edges {
                degree[a.index()] += 1;
                degree[b.index()] += 1;
            }
            for x in 0..n {
                assert_eq!(db.degree(v(x)), degree[x as usize], "degree of {x}");
            }
            let hub = (0..n).map(|x| db.count(v(x))).max().unwrap();
            assert!(hub > 500, "the busiest value is in {hub} records");
        }
    }

    #[test]
    fn empty_record_is_counted_but_harmless() {
        let mut db = LocalDb::new();
        assert!(db.insert(5, &[]));
        assert_eq!(db.num_records(), 1);
        assert_eq!(db.num_edges(), 0);
    }
}
