//! The greedy relational-link-based policy of §3.2.
//!
//! "At each step it selects from L_to-query the next attribute value with
//! greatest link number in G_local for query formulation. In other words, the
//! greedy link-based algorithm estimates HR(q_i) as proportional to
//! degree(q_i, G_local)."
//!
//! Implementation: a lazy max-heap over `(degree, value)`. Degrees only grow,
//! so whenever a query's new records touch a frontier value, a fresh entry
//! with the current degree is pushed; stale entries (stored degree ≠ current
//! degree, or value no longer in the frontier) are discarded on pop. The
//! newest entry for a value always carries its true degree, so the pop order
//! is exact max-degree selection.

use crate::policy::SelectionPolicy;
use crate::state::{CandStatus, CrawlState, QueryOutcome};
use dwc_model::ValueId;
use std::collections::BinaryHeap;

/// Greedy link-based query selection (GL).
#[derive(Debug, Default)]
pub struct GreedyLink {
    /// Packed `(degree << 32) | value_id` max-heap entries.
    heap: BinaryHeap<u64>,
    /// Live entry count as of the last compaction — the baseline the stale
    /// threshold is measured against.
    live_after_compact: usize,
}

/// Heap size below which compaction is never attempted (tiny crawls churn
/// freely without paying the rebuild).
const COMPACT_MIN: usize = 32;

#[inline]
fn pack(degree: u32, v: ValueId) -> u64 {
    (u64::from(degree) << 32) | u64::from(v.0)
}

#[inline]
fn unpack(e: u64) -> (u32, ValueId) {
    ((e >> 32) as u32, ValueId(e as u32))
}

impl GreedyLink {
    /// New empty GL frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of (possibly stale) heap entries — diagnostics only.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Rebuilds the heap from its live entries once stale ones outnumber
    /// live 2:1 (heap > 3× the last live count). Long crawls re-push every
    /// touched frontier value per query, so without this the lazy heap
    /// grows with total churn instead of frontier size.
    fn maybe_compact(&mut self, state: &CrawlState) {
        if self.heap.len() <= COMPACT_MIN.max(3 * self.live_after_compact) {
            return;
        }
        let entries = std::mem::take(&mut self.heap).into_vec();
        let mut seen = std::collections::HashSet::with_capacity(entries.len());
        let mut kept = Vec::with_capacity(entries.len() / 3);
        for e in entries {
            let (degree, v) = unpack(e);
            if state.status_of(v) == CandStatus::Frontier
                && degree == state.local.degree(v)
                && seen.insert(v.0)
            {
                kept.push(e);
            }
        }
        self.live_after_compact = kept.len();
        self.heap = BinaryHeap::from(kept);
    }
}

impl SelectionPolicy for GreedyLink {
    fn name(&self) -> &'static str {
        "greedy-link"
    }

    fn on_discovered(&mut self, state: &CrawlState, v: ValueId) {
        self.heap.push(pack(state.local.degree(v), v));
        self.maybe_compact(state);
    }

    fn on_query_done(&mut self, state: &CrawlState, _v: ValueId, outcome: &QueryOutcome) {
        for &v in &outcome.touched_values {
            if state.status_of(v) == CandStatus::Frontier {
                self.heap.push(pack(state.local.degree(v), v));
            }
        }
        self.maybe_compact(state);
    }

    fn select(&mut self, state: &CrawlState) -> Option<ValueId> {
        while let Some(e) = self.heap.pop() {
            let (stored_degree, v) = unpack(e);
            if state.status_of(v) != CandStatus::Frontier {
                continue; // already queried (or never selectable)
            }
            if stored_degree != state.local.degree(v) {
                continue; // stale — a fresher entry exists further up
            }
            return Some(v);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwc_model::AttrId;

    /// Builds a state where values have controlled local degrees by inserting
    /// records into DB_local directly.
    fn seeded_state() -> (CrawlState, Vec<ValueId>) {
        let mut st = CrawlState::new(vec!["A".into()], vec![true], 10);
        let ids: Vec<ValueId> = ["hub", "mid", "leaf", "solo"]
            .iter()
            .map(|s| {
                let id = st.intern(AttrId(0), s);
                st.set_status(id, CandStatus::Frontier);
                id
            })
            .collect();
        // hub co-occurs with mid, leaf and two extra values; mid with hub and
        // leaf; leaf with hub and mid; solo with nothing.
        let extra1 = st.intern(AttrId(0), "x1");
        let extra2 = st.intern(AttrId(0), "x2");
        st.local.insert(1, &[ids[0], ids[1], ids[2]]);
        st.local.insert(2, &[ids[0], extra1]);
        st.local.insert(3, &[ids[0], extra2]);
        st.local.insert(4, &[ids[3]]);
        (st, ids)
    }

    #[test]
    fn selects_highest_degree_first() {
        let (st, ids) = seeded_state();
        let mut p = GreedyLink::new();
        for &v in &ids {
            p.on_discovered(&st, v);
        }
        // Degrees: hub 4, mid 2, leaf 2, solo 0.
        assert_eq!(p.select(&st), Some(ids[0]));
    }

    #[test]
    fn degree_updates_are_respected_via_touched_values() {
        let (mut st, ids) = seeded_state();
        let mut p = GreedyLink::new();
        for &v in &ids {
            p.on_discovered(&st, v);
        }
        // "solo" suddenly becomes the biggest hub.
        let extras: Vec<ValueId> = (0..6).map(|i| st.intern(AttrId(0), &format!("y{i}"))).collect();
        let mut rec = vec![ids[3]];
        rec.extend(&extras);
        st.local.insert(99, &rec);
        let outcome = QueryOutcome { touched_values: vec![ids[3]], ..Default::default() };
        p.on_query_done(&st, ids[0], &outcome);
        assert_eq!(st.local.degree(ids[3]), 6);
        assert_eq!(p.select(&st), Some(ids[3]), "fresh degree must win");
    }

    #[test]
    fn stale_entries_are_discarded() {
        let (mut st, ids) = seeded_state();
        let mut p = GreedyLink::new();
        for &v in &ids {
            p.on_discovered(&st, v);
        }
        // Bump mid's degree without telling the policy: the old entry for
        // mid is now stale; after re-pushing via on_query_done the policy
        // must not return mid twice.
        let e = st.intern(AttrId(0), "z");
        st.local.insert(50, &[ids[1], e]);
        let outcome = QueryOutcome { touched_values: vec![ids[1]], ..Default::default() };
        p.on_query_done(&st, ids[0], &outcome);
        let mut seen = std::collections::HashSet::new();
        while let Some(v) = p.select(&st) {
            assert!(seen.insert(v), "value {v} selected twice");
            st.set_status(v, CandStatus::Queried);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn exhausted_frontier_returns_none() {
        let (st, _) = seeded_state();
        let mut p = GreedyLink::new();
        assert_eq!(p.select(&st), None);
    }

    #[test]
    fn queried_values_never_returned() {
        let (mut st, ids) = seeded_state();
        let mut p = GreedyLink::new();
        for &v in &ids {
            p.on_discovered(&st, v);
        }
        st.set_status(ids[0], CandStatus::Queried);
        let got = p.select(&st);
        assert!(got == Some(ids[1]) || got == Some(ids[2]), "got {got:?}");
    }

    #[test]
    fn heap_stays_bounded_over_a_long_churny_crawl() {
        // 50 frontier values whose degrees change every round: each round
        // inserts a record linking all of them to one fresh filler value,
        // then reports them all touched. The lazy heap would otherwise
        // accumulate 50 stale entries per round (10_000 over the run).
        let mut st = CrawlState::new(vec!["A".into()], vec![true], 10);
        let ids: Vec<ValueId> = (0..50)
            .map(|i| {
                let id = st.intern(AttrId(0), &format!("v{i}"));
                st.set_status(id, CandStatus::Frontier);
                id
            })
            .collect();
        let mut p = GreedyLink::new();
        for &v in &ids {
            p.on_discovered(&st, v);
        }
        let mut max_len = p.heap_len();
        for round in 0..200u64 {
            let filler = st.intern(AttrId(0), &format!("filler{round}"));
            let mut rec = ids.clone();
            rec.push(filler);
            st.local.insert(1000 + round, &rec);
            let outcome = QueryOutcome { touched_values: ids.clone(), ..Default::default() };
            p.on_query_done(&st, ids[0], &outcome);
            max_len = max_len.max(p.heap_len());
        }
        // Live entries never exceed 50 (one fresh per frontier value), so a
        // 2:1 stale ratio caps the heap at ~3×50 plus one round of pushes.
        assert!(max_len <= 3 * ids.len() + 64, "heap peaked at {max_len}");
        // Compaction must not change what gets selected: the freshest entry
        // per value survives, so selection still sees true degrees.
        let picked = p.select(&st).unwrap();
        assert_eq!(st.local.degree(picked), 200 + 49, "all values tie at max degree");
    }

    #[test]
    fn compaction_preserves_selection_order() {
        let (mut st, ids) = seeded_state();
        let mut p = GreedyLink::new();
        for &v in &ids {
            p.on_discovered(&st, v);
        }
        // Churn mid's entry hundreds of times to force compactions.
        for i in 0..300u64 {
            let e = st.intern(AttrId(0), &format!("churn{i}"));
            st.local.insert(2000 + i, &[ids[1], e]);
            let outcome = QueryOutcome { touched_values: vec![ids[1]], ..Default::default() };
            p.on_query_done(&st, ids[0], &outcome);
        }
        assert!(p.heap_len() <= 3 * 4 + COMPACT_MIN, "heap peaked at {}", p.heap_len());
        // mid now has degree 300+, dwarfing hub's 4.
        assert_eq!(p.select(&st), Some(ids[1]));
        st.set_status(ids[1], CandStatus::Queried);
        assert_eq!(p.select(&st), Some(ids[0]), "hub is next");
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let (d, v) = unpack(pack(12345, ValueId(678)));
        assert_eq!((d, v), (12345, ValueId(678)));
    }
}
