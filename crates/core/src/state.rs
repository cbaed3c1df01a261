//! Shared crawl state: the crawler-side vocabulary, candidate statuses,
//! `L_queried`, and the statistics the Query Selector reads.
//!
//! Section 2.5 of the paper: "The Query Selector implements three internal
//! data structures: L_to-query, L_queried, and a statistics table." Here the
//! statistics table is [`LocalDb`] plus the per-value status array;
//! `L_to-query` lives inside each policy (its organization *is* the policy —
//! queue, stack, heap, …), while `L_queried` and the vocabulary are shared.

use crate::checkpoint::Checkpoint;
use crate::local::LocalDb;
use dwc_model::{AttrId, ValueId, ValueInterner};
use std::collections::VecDeque;

/// Lifecycle of a candidate attribute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandStatus {
    /// Known only from a domain statistics table; never seen in the target.
    /// Only the DM policy may select such values (its Q_DT pool).
    Undiscovered,
    /// Seen in harvested results and waiting in `L_to-query`.
    Frontier,
    /// Already issued as a query (member of `L_queried`).
    Queried,
}

/// Outcome of one completed query, passed to the policy.
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// Result pages fetched (communication rounds spent on this query).
    pub pages: u64,
    /// Records returned that were new to `DB_local`.
    pub new_records: u64,
    /// Records returned in total (including duplicates).
    pub returned_records: u64,
    /// Total match count reported by the source, if any.
    pub reported_total: Option<usize>,
    /// Whether the abortion heuristic cut the query short.
    pub aborted: bool,
    /// Whether the query failed *entirely* on transient-class errors: zero
    /// pages retrieved, every attempt lost to faults. Such queries are
    /// eligible for requeueing ([`crate::CrawlConfig::max_requeues`]).
    pub failed_transient: bool,
    /// Distinct values occurring in the *new* records of this query
    /// (both newly discovered and previously known): the values whose local
    /// statistics (counts, degrees) may have changed.
    pub touched_values: Vec<ValueId>,
}

impl QueryOutcome {
    /// Normalized harvest rate: new records per retrieved record slot,
    /// in `[0, 1]` (Definition 2.5 divided by `k`).
    pub fn normalized_harvest_rate(&self, page_size: usize) -> f64 {
        if self.pages == 0 {
            return 0.0;
        }
        self.new_records as f64 / (self.pages as f64 * page_size as f64)
    }
}

/// Shared crawl state readable by every policy.
#[derive(Debug)]
pub struct CrawlState {
    /// Crawler-side vocabulary: `(attribute, value string) → ValueId`.
    /// This id space is private to the crawler — not the server's.
    pub vocab: ValueInterner,
    /// Attribute names in interface order (index = `AttrId`).
    pub attr_names: Vec<String>,
    /// Whether each attribute is queriable through the interface.
    pub attr_queriable: Vec<bool>,
    /// Page size `k` advertised by the interface.
    pub page_size: usize,
    /// Per-value candidate status (indexed by `ValueId`). Written only
    /// through [`CrawlState::set_status`], which logs the write.
    status: Vec<CandStatus>,
    /// `L_queried`, in issue order.
    queried: Vec<ValueId>,
    /// Ids whose status was written since the state journal last drained
    /// the log (unsorted, may repeat).
    status_log: Vec<ValueId>,
    /// Smallest `L_queried` index a removal touched since the last drain.
    queried_low_water: Option<usize>,
    /// The local database / statistics table.
    pub local: LocalDb,
    /// Normalized harvest rates of the most recent queries (for saturation
    /// detection), newest last; bounded length.
    pub recent_harvest: VecDeque<f64>,
    /// Known target size, when the harness provides it (controlled
    /// experiments); lets policies and stop conditions compute true coverage.
    pub target_size: Option<usize>,
    /// Whether the crawler queries through the keyword box instead of
    /// structured form fields. Keyword search matches every column (§2.2's
    /// "fading schema"), so *all* discovered values become candidates,
    /// including those of attributes with no structured form field.
    pub keyword_mode: bool,
}

/// Maximum number of recent harvest rates retained for saturation detection.
pub const RECENT_HARVEST_WINDOW: usize = 64;

impl CrawlState {
    /// Fresh state for an interface with the given attribute names and
    /// queriability flags.
    pub fn new(attr_names: Vec<String>, attr_queriable: Vec<bool>, page_size: usize) -> Self {
        assert_eq!(attr_names.len(), attr_queriable.len());
        CrawlState {
            vocab: ValueInterner::new(),
            attr_names,
            attr_queriable,
            page_size,
            status: Vec::new(),
            queried: Vec::new(),
            status_log: Vec::new(),
            queried_low_water: None,
            local: LocalDb::new(),
            recent_harvest: VecDeque::with_capacity(RECENT_HARVEST_WINDOW),
            target_size: None,
            keyword_mode: false,
        }
    }

    /// Interns a value into the crawler vocabulary, extending the status
    /// array; newly created ids start as [`CandStatus::Undiscovered`].
    pub fn intern(&mut self, attr: AttrId, s: &str) -> ValueId {
        let id = self.vocab.intern(attr, s);
        if id.index() >= self.status.len() {
            self.status.resize(id.index() + 1, CandStatus::Undiscovered);
        }
        id
    }

    /// Batch-interns one record's `(attribute, value)` fields through the
    /// vocabulary's single-hash path ([`ValueInterner::intern_page`]),
    /// appending the ids to `out` and extending the status array; newly
    /// created ids start as [`CandStatus::Undiscovered`].
    pub fn intern_page<'a, I>(&mut self, fields: I, out: &mut Vec<ValueId>)
    where
        I: IntoIterator<Item = (AttrId, &'a str)>,
    {
        self.vocab.intern_page(fields, out);
        if self.vocab.len() > self.status.len() {
            self.status.resize(self.vocab.len(), CandStatus::Undiscovered);
        }
    }

    /// Resolves an attribute name to its id.
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        self.attr_names.iter().position(|n| n == name).map(|i| AttrId(i as u16))
    }

    /// Whether the value can be used as a query: through its attribute's
    /// structured form field, or through the keyword box (which searches all
    /// columns) when the crawler operates in keyword mode.
    pub fn is_queriable(&self, v: ValueId) -> bool {
        self.keyword_mode || self.attr_queriable[self.vocab.attr_of(v).0 as usize]
    }

    /// Restores the state a checkpoint describes: vocabulary, statuses,
    /// `L_queried` and harvested records. The change log starts empty.
    ///
    /// # Panics
    /// Panics if the checkpoint is internally inconsistent (ids out of
    /// range, status and vocabulary of different lengths).
    pub(crate) fn from_checkpoint(cp: &Checkpoint) -> Self {
        assert_eq!(cp.values.len(), cp.status.len(), "checkpoint status/vocabulary mismatch");
        let mut state =
            CrawlState::new(cp.attr_names.clone(), cp.attr_queriable.clone(), cp.page_size);
        state.keyword_mode = cp.keyword_mode;
        for (attr, s) in &cp.values {
            assert!((*attr as usize) < state.attr_names.len(), "value attr out of range");
            state.intern(AttrId(*attr), s);
        }
        state.status.copy_from_slice(&cp.status);
        let id = |v: u32, what: &str| {
            assert!((v as usize) < cp.values.len(), "{what} id out of range");
            ValueId(v)
        };
        state.queried = cp.queried.iter().map(|&q| id(q, "queried")).collect();
        let mut record = Vec::new();
        for (key, vals) in &cp.records {
            record.clear();
            record.extend(vals.iter().map(|&v| id(v, "record")));
            state.local.insert(*key, &record);
        }
        state
    }

    /// Current status of a value.
    #[inline]
    pub fn status_of(&self, v: ValueId) -> CandStatus {
        self.status[v.index()]
    }

    /// Every value's status, indexed by `ValueId`.
    pub fn status(&self) -> &[CandStatus] {
        &self.status
    }

    /// Sets a value's status. Every status write goes through here: the
    /// write is logged so the state journal frames only what changed.
    #[inline]
    pub(crate) fn set_status(&mut self, v: ValueId, s: CandStatus) {
        self.status[v.index()] = s;
        self.status_log.push(v);
    }

    /// `L_queried`, in issue order.
    pub fn queried(&self) -> &[ValueId] {
        &self.queried
    }

    /// Appends an issued query's value to `L_queried`.
    pub(crate) fn push_queried(&mut self, v: ValueId) {
        self.queried.push(v);
    }

    /// Takes the most recent occurrence of `v` out of `L_queried`; returns
    /// whether it was there. The tail is popped in O(1), order-preserving;
    /// an earlier occurrence is swap-removed. Either way the removed index is
    /// logged as the list's low-water mark, so the journal knows the list
    /// no longer extends what it last framed.
    pub(crate) fn remove_queried(&mut self, v: ValueId) -> bool {
        let Some(pos) = self.queried.iter().rposition(|&q| q == v) else { return false };
        self.queried.swap_remove(pos);
        self.queried_low_water = Some(self.queried_low_water.map_or(pos, |w| w.min(pos)));
        true
    }

    /// Hands the change log to the state journal: swaps the logged status
    /// writes into `buf` (passed in empty, so the log keeps its capacity)
    /// and returns and resets the `L_queried` low-water mark.
    pub(crate) fn take_changes(&mut self, buf: &mut Vec<ValueId>) -> Option<usize> {
        debug_assert!(buf.is_empty(), "change buffer must be drained before reuse");
        std::mem::swap(&mut self.status_log, buf);
        self.queried_low_water.take()
    }

    /// Forgets the change log (nothing journals it, or a full snapshot just
    /// absorbed it).
    pub(crate) fn clear_changes(&mut self) {
        self.status_log.clear();
        self.queried_low_water = None;
    }

    /// Records a completed query's harvest rate for saturation detection.
    pub fn push_harvest(&mut self, hr: f64) {
        if self.recent_harvest.len() == RECENT_HARVEST_WINDOW {
            self.recent_harvest.pop_front();
        }
        self.recent_harvest.push_back(hr);
    }

    /// Mean of the recent harvest rates over the last `window` queries;
    /// `None` until `window` queries have completed.
    pub fn recent_harvest_mean(&self, window: usize) -> Option<f64> {
        if window == 0 || self.recent_harvest.len() < window {
            return None;
        }
        let sum: f64 = self.recent_harvest.iter().rev().take(window).sum();
        Some(sum / window as f64)
    }

    /// True coverage (`|DB_local| / |DB|`) when the target size is known.
    pub fn coverage(&self) -> Option<f64> {
        self.target_size.map(
            |n| {
                if n == 0 {
                    1.0
                } else {
                    self.local.num_records() as f64 / n as f64
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_state() -> CrawlState {
        CrawlState::new(vec!["A".into(), "B".into()], vec![true, false], 10)
    }

    #[test]
    fn intern_extends_status() {
        let mut st = tiny_state();
        let v = st.intern(AttrId(0), "x");
        assert_eq!(st.status_of(v), CandStatus::Undiscovered);
        assert_eq!(st.status().len(), 1);
    }

    #[test]
    fn intern_page_batches_and_extends_status() {
        let mut st = tiny_state();
        let mut out = Vec::new();
        st.intern_page([(AttrId(0), "x"), (AttrId(1), "y"), (AttrId(0), "x")], &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[2], "duplicate field resolves to the same id");
        assert_eq!(st.status().len(), st.vocab.len());
        assert!(out.iter().all(|&v| st.status_of(v) == CandStatus::Undiscovered));
        assert_eq!(st.intern(AttrId(0), "x"), out[0], "agrees with the scalar path");
    }

    #[test]
    fn queriability_follows_attribute() {
        let mut st = tiny_state();
        let a = st.intern(AttrId(0), "x");
        let b = st.intern(AttrId(1), "y");
        assert!(st.is_queriable(a));
        assert!(!st.is_queriable(b));
    }

    #[test]
    fn attr_by_name_resolves() {
        let st = tiny_state();
        assert_eq!(st.attr_by_name("B"), Some(AttrId(1)));
        assert_eq!(st.attr_by_name("C"), None);
    }

    #[test]
    fn harvest_window_is_bounded_and_averaged() {
        let mut st = tiny_state();
        for i in 0..(RECENT_HARVEST_WINDOW + 10) {
            st.push_harvest(i as f64);
        }
        assert_eq!(st.recent_harvest.len(), RECENT_HARVEST_WINDOW);
        // Mean of the last 4 entries: 70, 71, 72, 73.
        let m = st.recent_harvest_mean(4).unwrap();
        assert!((m - 71.5).abs() < 1e-12);
        assert!(st.recent_harvest_mean(0).is_none());
        assert!(st.recent_harvest_mean(1000).is_none());
    }

    #[test]
    fn coverage_requires_target_size() {
        let mut st = tiny_state();
        assert_eq!(st.coverage(), None);
        st.target_size = Some(4);
        st.local.insert(1, &[]);
        assert_eq!(st.coverage(), Some(0.25));
        st.target_size = Some(0);
        assert_eq!(st.coverage(), Some(1.0));
    }

    #[test]
    fn normalized_harvest_rate_bounds() {
        let o = QueryOutcome { pages: 2, new_records: 15, ..Default::default() };
        assert!((o.normalized_harvest_rate(10) - 0.75).abs() < 1e-12);
        let zero = QueryOutcome::default();
        assert_eq!(zero.normalized_harvest_rate(10), 0.0);
    }
}
