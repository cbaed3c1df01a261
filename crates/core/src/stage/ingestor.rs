//! Ingestor stage: record extraction into `DB_local`, frontier discovery,
//! and the incremental co-occurrence index behind conjunctive partners.
//!
//! This is the "harvest and decompose" half of the paper's loop (§2.5):
//! every record returned by a query is inserted into the local database and
//! decomposed into attribute values, which become candidates for future
//! queries. In conjunctive mode the ingestor additionally maintains a
//! per-value co-occurrence count so partner selection is an index lookup,
//! not a scan over every harvested record per query.

use crate::extract::{ExtractedPageRef, ExtractedRecordRef};
use crate::state::{CandStatus, CrawlState};
use dwc_model::{AttrId, U64Table, ValueId};

/// The packed key `(a << 32) | b` of the co-occurring value pair `(a, b)`,
/// `a < b`.
#[inline]
fn pair_key(a: ValueId, b: ValueId) -> u64 {
    (u64::from(a.0) << 32) | u64::from(b.0)
}

/// Incrementally maintained co-occurrence counts between values of
/// *different* attributes.
///
/// A pair's count is the number of harvested records containing both values
/// (each record counted once; values within a record are deduplicated,
/// matching [`crate::local::LocalDb`]'s stored form). Same-attribute pairs
/// are never recorded — conjunctive partners must come from other attributes.
/// Each value keeps a list of its partners, and each pair's count is found
/// through a [`U64Table`] keyed by the packed pair.
#[derive(Debug, Default)]
pub struct CoOccurrenceIndex {
    enabled: bool,
    /// Per value, its partners, each with the pair's index into `counts`.
    partners: Vec<Vec<(ValueId, u32)>>,
    /// One count per pair, in first-seen order.
    counts: Vec<u32>,
    /// Packed pair (`pair_key`, smaller id first) → index into `counts`.
    pairs: U64Table<u32>,
}

impl CoOccurrenceIndex {
    /// An index that tracks pairs only when `enabled` (conjunctive mode);
    /// a disabled index costs nothing per ingested record.
    pub fn new(enabled: bool) -> Self {
        CoOccurrenceIndex { enabled, ..Self::default() }
    }

    /// Whether the index records pairs at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one harvested record's cross-attribute pairs. `values` must
    /// be sorted and deduplicated (the form [`crate::local::LocalDb`] stores).
    pub fn observe_record(&mut self, state: &CrawlState, values: &[ValueId]) {
        if !self.enabled {
            return;
        }
        for (i, &a) in values.iter().enumerate() {
            let attr_a = state.vocab.attr_of(a);
            for &b in &values[i + 1..] {
                if state.vocab.attr_of(b) == attr_a {
                    continue;
                }
                let next = u32::try_from(self.counts.len()).expect("at most u32::MAX pairs");
                if let Some(pair) = self.pairs.try_insert(pair_key(a, b), next) {
                    self.counts[pair as usize] += 1;
                    continue;
                }
                self.counts.push(1);
                // `values` is sorted, so `b` is the larger id.
                if b.index() >= self.partners.len() {
                    self.partners.resize_with(b.index() + 1, Vec::new);
                }
                self.partners[a.index()].push((b, next));
                self.partners[b.index()].push((a, next));
            }
        }
    }

    /// Rebuilds the index from every record already in `DB_local` (the
    /// resume path: checkpoints persist records, not derived indexes).
    pub fn rebuild(&mut self, state: &CrawlState) {
        *self = Self::new(self.enabled);
        if !self.enabled {
            return;
        }
        for rec in state.local.records() {
            self.observe_record(state, rec);
        }
    }

    /// How many records contain both `v` and `w` (zero when never seen
    /// together, or when they share an attribute).
    pub fn count(&self, v: ValueId, w: ValueId) -> u32 {
        self.pairs.get(pair_key(v.min(w), v.max(w))).map_or(0, |pair| self.counts[pair as usize])
    }

    /// The locally most co-occurring partner values of `v`, one per distinct
    /// attribute other than `v`'s (and each other's). Partners make the
    /// conjunction as unrestrictive as local knowledge allows — a popular
    /// co-value keeps the intersection large. Ranks exactly like a scan of
    /// every harvested record (the tests' oracle), served from the index.
    pub fn best_partners(
        &self,
        state: &CrawlState,
        v: ValueId,
        want: usize,
    ) -> Vec<(String, String)> {
        if want == 0 {
            return Vec::new();
        }
        let ranked: Vec<(ValueId, u32)> = self
            .partners
            .get(v.index())
            .map(|list| list.iter().map(|&(w, pair)| (w, self.counts[pair as usize])).collect())
            .unwrap_or_default();
        rank_partners(state, v, ranked, want)
    }
}

/// Shared ranking tail of partner selection: order by co-occurrence count
/// (ties by id for determinism), take one per distinct attribute.
fn rank_partners(
    state: &CrawlState,
    v: ValueId,
    mut ranked: Vec<(ValueId, u32)>,
    want: usize,
) -> Vec<(String, String)> {
    ranked.sort_by_key(|&(w, c)| (std::cmp::Reverse(c), w.0));
    let my_attr = state.vocab.attr_of(v);
    let mut used_attrs = vec![my_attr];
    let mut out = Vec::with_capacity(want);
    for (w, _) in ranked {
        let attr = state.vocab.attr_of(w);
        if used_attrs.contains(&attr) {
            continue;
        }
        used_attrs.push(attr);
        out.push((state.attr_names[attr.0 as usize].clone(), state.vocab.value_str(w).to_owned()));
        if out.len() == want {
            break;
        }
    }
    out
}

/// Reference implementation of partner selection that scans every record in
/// `DB_local` per query (the pre-index behavior): the oracle the index's
/// tests are checked against.
#[cfg(test)]
fn best_partners_by_scan(state: &CrawlState, v: ValueId, want: usize) -> Vec<(String, String)> {
    if want == 0 {
        return Vec::new();
    }
    let my_attr = state.vocab.attr_of(v);
    let mut co_counts: std::collections::HashMap<ValueId, u32> = Default::default();
    for rec in state.local.records() {
        if rec.binary_search(&v).is_err() {
            continue;
        }
        for &w in rec {
            if w != v && state.vocab.attr_of(w) != my_attr {
                *co_counts.entry(w).or_insert(0) += 1;
            }
        }
    }
    rank_partners(state, v, co_counts.into_iter().collect(), want)
}

/// Per-page ingest tallies returned by [`Ingestor::ingest_page`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PageIngest {
    /// Records returned on the page (including duplicates).
    pub returned: u64,
    /// Records new to `DB_local`.
    pub new: u64,
}

/// The ingest stage: inserts extracted records into `DB_local`, decomposes
/// them into candidates, and keeps the co-occurrence index current.
#[derive(Debug)]
pub struct Ingestor {
    co: CoOccurrenceIndex,
    /// Attribute-name resolution memo for the zero-copy path: wire pages
    /// repeat the same handful of names on every record, so resolve each
    /// spelling once per crawl instead of scanning the name table per field.
    attr_memo: Vec<(Box<str>, Option<AttrId>)>,
    /// Scratch `(attribute, field index)` pairs reused across
    /// [`Ingestor::ingest_record_ref`] calls.
    resolved_scratch: Vec<(AttrId, u32)>,
    /// Scratch value ids of the record being ingested, reused across records.
    values_scratch: Vec<ValueId>,
}

impl Ingestor {
    /// An ingestor; `track_cooccurrence` enables the conjunctive partner
    /// index (only conjunctive crawls pay its upkeep).
    pub fn new(track_cooccurrence: bool) -> Self {
        Ingestor {
            co: CoOccurrenceIndex::new(track_cooccurrence),
            attr_memo: Vec::new(),
            resolved_scratch: Vec::new(),
            values_scratch: Vec::new(),
        }
    }

    /// The co-occurrence index (the planner reads partners from it).
    pub fn co_index(&self) -> &CoOccurrenceIndex {
        &self.co
    }

    /// Rebuilds derived indexes from restored state (the resume path).
    pub fn rebuild_from(&mut self, state: &CrawlState) {
        self.co.rebuild(state);
    }

    /// Owned-record reference path: interns each field through the scalar
    /// [`CrawlState::intern`]. The zero-copy path must match it exactly.
    #[cfg(test)]
    pub fn ingest_record(
        &mut self,
        state: &mut CrawlState,
        rec: &crate::extract::ExtractedRecord,
        touched: &mut Vec<ValueId>,
        newly_discovered: &mut Vec<ValueId>,
    ) -> bool {
        if state.local.contains_key(rec.key) {
            return false;
        }
        let mut values = std::mem::take(&mut self.values_scratch);
        values.clear();
        for (attr_name, s) in &rec.fields {
            let Some(attr) = state.attr_by_name(attr_name) else { continue };
            values.push(state.intern(attr, s));
        }
        self.finish_record(state, rec.key, values, touched, newly_discovered)
    }

    /// Inserts one extracted record into `DB_local`; returns `true` when new.
    /// Decomposes the record into candidate values (the "decompose" step):
    /// every value is pushed to `touched`, and values seen for the first
    /// time that can actually be queried are promoted to the frontier and
    /// pushed to `newly_discovered`.
    ///
    /// The record's fields still borrow the wire buffer, attribute names
    /// resolve through the memo, and every value string is hashed exactly
    /// once via the vocabulary's batch path
    /// ([`crate::state::CrawlState::intern_page`]).
    pub fn ingest_record_ref(
        &mut self,
        state: &mut CrawlState,
        rec: &ExtractedRecordRef<'_>,
        touched: &mut Vec<ValueId>,
        newly_discovered: &mut Vec<ValueId>,
    ) -> bool {
        if state.local.contains_key(rec.key) {
            return false;
        }
        self.resolved_scratch.clear();
        for (i, (attr_name, _)) in rec.fields.iter().enumerate() {
            if let Some(attr) = self.attr_lookup(state, attr_name) {
                self.resolved_scratch.push((attr, i as u32));
            }
        }
        let mut values = std::mem::take(&mut self.values_scratch);
        values.clear();
        state.intern_page(
            self.resolved_scratch
                .iter()
                .map(|&(attr, i)| (attr, rec.fields[i as usize].1.as_ref())),
            &mut values,
        );
        self.finish_record(state, rec.key, values, touched, newly_discovered)
    }

    /// Ingests every record of a borrowed page, returning the per-page
    /// tallies the executor reports in
    /// [`crate::events::CrawlEvent::PageFetched`].
    pub fn ingest_page(
        &mut self,
        state: &mut CrawlState,
        page: &ExtractedPageRef<'_>,
        touched: &mut Vec<ValueId>,
        newly_discovered: &mut Vec<ValueId>,
    ) -> PageIngest {
        let mut stats = PageIngest::default();
        for rec in &page.records {
            stats.returned += 1;
            if self.ingest_record_ref(state, rec, touched, newly_discovered) {
                stats.new += 1;
            }
        }
        stats
    }

    /// Resolves an attribute name through the memo, falling back to (and
    /// memoizing) a scan of the state's name table on first sight.
    fn attr_lookup(&mut self, state: &CrawlState, name: &str) -> Option<AttrId> {
        if let Some((_, id)) = self.attr_memo.iter().find(|(n, _)| &**n == name) {
            return *id;
        }
        let id = state.attr_by_name(name);
        self.attr_memo.push((name.into(), id));
        id
    }

    /// Shared tail of both ingest paths: candidate promotion, `DB_local`
    /// insertion, and the co-occurrence feed. `values` is the scratch
    /// buffer, handed back for the next record.
    fn finish_record(
        &mut self,
        state: &mut CrawlState,
        key: u64,
        values: Vec<ValueId>,
        touched: &mut Vec<ValueId>,
        newly_discovered: &mut Vec<ValueId>,
    ) -> bool {
        for &vid in &values {
            touched.push(vid);
            if state.status_of(vid) == CandStatus::Undiscovered && state.is_queriable(vid) {
                state.set_status(vid, CandStatus::Frontier);
                newly_discovered.push(vid);
            }
        }
        let before = state.local.num_records();
        let inserted = state.local.insert(key, &values);
        self.values_scratch = values;
        if inserted && self.co.is_enabled() {
            if let Some(stored) = state.local.records_since(before).next() {
                self.co.observe_record(state, stored);
            }
        }
        inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::ExtractedRecord;
    use dwc_model::AttrId;

    fn abc_state() -> CrawlState {
        CrawlState::new(vec!["A".into(), "B".into(), "C".into()], vec![true, true, true], 10)
    }

    fn record(key: u64, fields: &[(&str, &str)]) -> ExtractedRecord {
        ExtractedRecord {
            key,
            fields: fields.iter().map(|(a, v)| (a.to_string(), v.to_string())).collect(),
        }
    }

    #[test]
    fn ingest_inserts_and_discovers_frontier() {
        let mut state = abc_state();
        let mut ing = Ingestor::new(false);
        let (mut touched, mut newly) = (Vec::new(), Vec::new());
        assert!(ing.ingest_record(
            &mut state,
            &record(1, &[("A", "a1"), ("B", "b1")]),
            &mut touched,
            &mut newly
        ));
        assert_eq!(state.local.num_records(), 1);
        assert_eq!(touched.len(), 2);
        assert_eq!(newly.len(), 2, "both values are queriable and new");
        assert!(newly.iter().all(|&v| state.status_of(v) == CandStatus::Frontier));
        // The same key again is a duplicate.
        assert!(!ing.ingest_record(
            &mut state,
            &record(1, &[("A", "a1")]),
            &mut touched,
            &mut newly
        ));
        assert_eq!(state.local.num_records(), 1);
    }

    #[test]
    fn unqueriable_values_are_not_promoted() {
        let mut state = CrawlState::new(vec!["A".into(), "B".into()], vec![true, false], 10);
        let mut ing = Ingestor::new(false);
        let (mut touched, mut newly) = (Vec::new(), Vec::new());
        ing.ingest_record(
            &mut state,
            &record(1, &[("A", "a1"), ("B", "b1")]),
            &mut touched,
            &mut newly,
        );
        assert_eq!(newly.len(), 1, "only the queriable A value joins the frontier");
        assert_eq!(touched.len(), 2, "but both values' statistics were touched");
    }

    #[test]
    fn unknown_attributes_are_skipped() {
        let mut state = abc_state();
        let mut ing = Ingestor::new(false);
        let (mut touched, mut newly) = (Vec::new(), Vec::new());
        assert!(ing.ingest_record(
            &mut state,
            &record(1, &[("Nope", "x"), ("A", "a1")]),
            &mut touched,
            &mut newly
        ));
        assert_eq!(state.vocab.len(), 1, "the unknown attribute interned nothing");
    }

    #[test]
    fn incremental_index_matches_full_scan() {
        let mut state = abc_state();
        let mut ing = Ingestor::new(true);
        let (mut touched, mut newly) = (Vec::new(), Vec::new());
        let recs = [
            record(1, &[("A", "a1"), ("B", "b1"), ("C", "c1")]),
            record(2, &[("A", "a1"), ("B", "b2"), ("C", "c1")]),
            record(3, &[("A", "a2"), ("B", "b1"), ("C", "c2")]),
            record(4, &[("A", "a1"), ("B", "b1"), ("C", "c2")]),
            record(5, &[("A", "a3"), ("B", "b3")]),
        ];
        for r in &recs {
            ing.ingest_record(&mut state, r, &mut touched, &mut newly);
        }
        for v in state.vocab.iter_ids() {
            for want in 0..3 {
                assert_eq!(
                    ing.co_index().best_partners(&state, v, want),
                    best_partners_by_scan(&state, v, want),
                    "partners for {v:?} (want {want}) must match the scan"
                );
            }
        }
        let a1 = state.vocab.intern(AttrId(0), "a1");
        let b1 = state.vocab.intern(AttrId(1), "b1");
        assert_eq!(ing.co_index().count(a1, b1), 2, "records 1 and 4");
    }

    #[test]
    fn index_ranks_partners_like_the_scan_on_ebay() {
        use dwc_datagen::Preset;
        let table = Preset::Ebay.table(0.05, 1);
        let names: Vec<String> = table.schema().iter().map(|(_, a)| a.name.clone()).collect();
        let mut state = CrawlState::new(names.clone(), vec![true; names.len()], 10);
        let mut ing = Ingestor::new(true);
        let (mut touched, mut newly) = (Vec::new(), Vec::new());
        for (key, (_, rec)) in table.iter().enumerate() {
            let fields = rec
                .values()
                .iter()
                .map(|&v| {
                    let attr = table.interner().attr_of(v);
                    (names[attr.0 as usize].clone(), table.interner().value_str(v).to_owned())
                })
                .collect();
            let rec = ExtractedRecord { key: key as u64, fields };
            ing.ingest_record(&mut state, &rec, &mut touched, &mut newly);
        }
        let step = state.vocab.len() / 64;
        let candidates: Vec<ValueId> = state.vocab.iter_ids().step_by(step).take(64).collect();
        assert_eq!(candidates.len(), 64);
        for &v in &candidates {
            assert_eq!(
                ing.co_index().best_partners(&state, v, 1),
                best_partners_by_scan(&state, v, 1),
                "partners of {v:?} must rank exactly like the scan"
            );
        }
    }

    #[test]
    fn zero_copy_ingest_matches_the_owned_path() {
        use crate::extract::{ExtractedPage, ExtractedPageRef};
        let recs = vec![
            record(1, &[("A", "a1"), ("B", "b1"), ("Nope", "x")]),
            record(2, &[("A", "a1"), ("C", "c1")]),
            record(1, &[("A", "dup")]),
            record(3, &[("B", "b1"), ("C", "c2")]),
        ];
        let page =
            ExtractedPage { page_index: 0, total_matches: None, has_more: false, records: recs };

        // Owned baseline.
        let mut st_owned = abc_state();
        let mut ing_owned = Ingestor::new(true);
        let (mut touched_o, mut newly_o) = (Vec::new(), Vec::new());
        let mut new_o = 0u64;
        for rec in &page.records {
            new_o += u64::from(ing_owned.ingest_record(
                &mut st_owned,
                rec,
                &mut touched_o,
                &mut newly_o,
            ));
        }

        // Zero-copy path over the borrowed view of the same page.
        let mut st_ref = abc_state();
        let mut ing_ref = Ingestor::new(true);
        let (mut touched_r, mut newly_r) = (Vec::new(), Vec::new());
        let view = ExtractedPageRef::borrowed(&page);
        let stats = ing_ref.ingest_page(&mut st_ref, &view, &mut touched_r, &mut newly_r);

        assert_eq!(stats, PageIngest { returned: 4, new: new_o });
        assert_eq!(touched_r, touched_o);
        assert_eq!(newly_r, newly_o);
        assert_eq!(st_ref.vocab.len(), st_owned.vocab.len());
        assert_eq!(st_ref.local.num_records(), st_owned.local.num_records());
        for v in st_owned.vocab.iter_ids() {
            assert_eq!(st_ref.status_of(v), st_owned.status_of(v), "status of {v:?}");
            assert_eq!(st_ref.vocab.value_str(v), st_owned.vocab.value_str(v));
            assert_eq!(
                ing_ref.co_index().best_partners(&st_ref, v, 2),
                ing_owned.co_index().best_partners(&st_owned, v, 2)
            );
        }
    }

    #[test]
    fn rebuild_recovers_the_index_from_state() {
        let mut state = abc_state();
        let mut ing = Ingestor::new(true);
        let (mut touched, mut newly) = (Vec::new(), Vec::new());
        ing.ingest_record(
            &mut state,
            &record(1, &[("A", "a1"), ("B", "b1")]),
            &mut touched,
            &mut newly,
        );
        ing.ingest_record(
            &mut state,
            &record(2, &[("A", "a1"), ("B", "b2")]),
            &mut touched,
            &mut newly,
        );
        // A fresh ingestor (the resume path) rebuilds to the same counts.
        let mut fresh = Ingestor::new(true);
        fresh.rebuild_from(&state);
        for v in state.vocab.iter_ids() {
            assert_eq!(
                fresh.co_index().best_partners(&state, v, 2),
                ing.co_index().best_partners(&state, v, 2)
            );
        }
    }

    #[test]
    fn same_attribute_pairs_are_never_counted() {
        let mut state = abc_state();
        let mut ing = Ingestor::new(true);
        let (mut touched, mut newly) = (Vec::new(), Vec::new());
        // A record with two A values (multi-valued field).
        ing.ingest_record(
            &mut state,
            &record(1, &[("A", "a1"), ("A", "a2"), ("B", "b1")]),
            &mut touched,
            &mut newly,
        );
        let a1 = state.vocab.intern(AttrId(0), "a1");
        let a2 = state.vocab.intern(AttrId(0), "a2");
        assert_eq!(ing.co_index().count(a1, a2), 0);
        let partners = ing.co_index().best_partners(&state, a1, 2);
        assert_eq!(partners, vec![("B".to_string(), "b1".to_string())]);
    }

    #[test]
    fn disabled_index_returns_nothing() {
        let mut state = abc_state();
        let mut ing = Ingestor::new(false);
        let (mut touched, mut newly) = (Vec::new(), Vec::new());
        ing.ingest_record(
            &mut state,
            &record(1, &[("A", "a1"), ("B", "b1")]),
            &mut touched,
            &mut newly,
        );
        let a1 = state.vocab.intern(AttrId(0), "a1");
        assert!(!ing.co_index().is_enabled());
        assert!(ing.co_index().best_partners(&state, a1, 2).is_empty());
    }
}
