//! Frequency-greedy selection — the keyword-crawling baseline of the
//! parallel line of work the paper cites (Ntoulas, Zerfos & Cho, JCDL 2005:
//! "Downloading textual hidden Web content through keyword queries").
//!
//! Instead of the *link structure* (degree in `G_local`), it ranks candidates
//! by their local *match frequency* `num(q, DB_local)` — the document-
//! frequency signal used for text collections. On relational AVGs degree and
//! frequency correlate but are not identical: frequency counts records, while
//! degree counts distinct co-occurring values, so frequency over-rates values
//! that repeat inside a small clique. The Figure 3 harness can compare both.

use crate::policy::SelectionPolicy;
use crate::state::{CandStatus, CrawlState, QueryOutcome};
use dwc_model::ValueId;
use std::collections::BinaryHeap;

/// Frequency-greedy query selection (max `num(q, DB_local)` first).
#[derive(Debug, Default)]
pub struct FreqGreedy {
    /// Packed `(count << 32) | value_id` max-heap entries; stale entries are
    /// re-validated on pop exactly like [`crate::policy::GreedyLink`].
    heap: BinaryHeap<u64>,
}

#[inline]
fn pack(count: u32, v: ValueId) -> u64 {
    (u64::from(count) << 32) | u64::from(v.0)
}

impl FreqGreedy {
    /// New empty frequency-greedy frontier.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SelectionPolicy for FreqGreedy {
    fn name(&self) -> &'static str {
        "freq-greedy"
    }

    fn on_discovered(&mut self, state: &CrawlState, v: ValueId) {
        self.heap.push(pack(state.local.count(v), v));
    }

    fn on_query_done(&mut self, state: &CrawlState, _v: ValueId, outcome: &QueryOutcome) {
        for &v in &outcome.touched_values {
            if state.status_of(v) == CandStatus::Frontier {
                self.heap.push(pack(state.local.count(v), v));
            }
        }
    }

    fn select(&mut self, state: &CrawlState) -> Option<ValueId> {
        while let Some(e) = self.heap.pop() {
            let (stored, v) = ((e >> 32) as u32, ValueId(e as u32));
            if state.status_of(v) != CandStatus::Frontier {
                continue;
            }
            if stored != state.local.count(v) {
                continue; // stale; a fresher entry exists
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

    #[test]
    fn selects_most_frequent_first() {
        let mut st = CrawlState::new(vec!["A".into()], vec![true], 10);
        let hot = st.intern(AttrId(0), "hot");
        let cold = st.intern(AttrId(0), "cold");
        st.set_status(hot, CandStatus::Frontier);
        st.set_status(cold, CandStatus::Frontier);
        for k in 0..3 {
            st.local.insert(k, &[hot]);
        }
        st.local.insert(99, &[cold]);
        let mut p = FreqGreedy::new();
        p.on_discovered(&st, hot);
        p.on_discovered(&st, cold);
        assert_eq!(p.select(&st), Some(hot));
    }

    #[test]
    fn count_updates_respected_via_touched() {
        let mut st = CrawlState::new(vec!["A".into()], vec![true], 10);
        let a = st.intern(AttrId(0), "a");
        let b = st.intern(AttrId(0), "b");
        st.set_status(a, CandStatus::Frontier);
        st.set_status(b, CandStatus::Frontier);
        st.local.insert(1, &[a]);
        let mut p = FreqGreedy::new();
        p.on_discovered(&st, a);
        p.on_discovered(&st, b);
        // b surges past a.
        st.local.insert(2, &[b]);
        st.local.insert(3, &[b]);
        let outcome = QueryOutcome { touched_values: vec![b], ..Default::default() };
        p.on_query_done(&st, a, &outcome);
        assert_eq!(p.select(&st), Some(b));
    }

    #[test]
    fn exhaustion_returns_none() {
        let st = CrawlState::new(vec!["A".into()], vec![true], 10);
        let mut p = FreqGreedy::new();
        assert_eq!(p.select(&st), None);
    }
}
