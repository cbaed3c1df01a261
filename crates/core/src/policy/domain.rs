//! The domain-knowledge query-selection policy (paper Section 4).
//!
//! Overcomes the two fundamental limitations of local-information policies:
//! *near-sighted estimation* (harvest rates estimated only from `DB_local`)
//! and the *limited candidate pool* (only already-seen values can be
//! queried). A [`DomainTable`] built from a same-domain sample database
//! provides:
//!
//! * **Q_DB estimation** (§4.2): for a discovered candidate,
//!   `HR(q) = 1 − num(q, DB_local) / n̂um(q, DB)` with
//!   `n̂um(q, DB) = |DB_local| · P(q, DM) / P(L_queried, DM)` (eq. 4.2) and
//!   the Δ_DM smoothing of eq. 4.3 for values missing from the table
//!   (we use the normalized, ∈[0,1] form of eq. 4.1 — see DESIGN.md);
//! * **Q_DT estimation** (§4.3): for a table value never seen in the target,
//!   `HR(q) = P(q ∈ DB | q ∈ DM)`, estimated by the running *hit rate* of the
//!   domain table against discovered values;
//! * **lazy harvest-rate evaluation** (§4.4): a lazy max-heap recomputes the
//!   exact HR only for popped candidates;
//! * **incremental `P(L_queried, DM)`** (§4.4) via
//!   [`crate::domain_table::CoveredSet`].

use crate::domain_table::{CoveredSet, DomainTable};
use crate::policy::SelectionPolicy;
use crate::state::{CandStatus, CrawlState, QueryOutcome};
use dwc_model::ValueId;
use std::collections::HashMap;
use std::sync::Arc;

/// Max-heap entry ordered by an `f64` harvest rate.
#[derive(Debug, PartialEq)]
struct QdbEntry {
    hr: f64,
    value: ValueId,
}

impl Eq for QdbEntry {}

impl PartialOrd for QdbEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QdbEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.hr.total_cmp(&other.hr).then_with(|| self.value.0.cmp(&other.value.0))
    }
}

/// Domain-knowledge-based query selection (DM).
#[derive(Debug)]
pub struct DomainPolicy {
    dm: Arc<DomainTable>,
    /// crawler value id → sample-side value id (None = not in the table).
    dm_of: Vec<Option<ValueId>>,
    /// `S(L_queried, DM)` maintained incrementally.
    covered: CoveredSet,
    /// Lazy max-heap over discovered candidates (Q_DB).
    qdb: std::collections::BinaryHeap<QdbEntry>,
    /// Static max-heap over never-discovered table values (Q_DT), keyed by
    /// domain frequency (packed `(freq << 32) | id`).
    qdt: std::collections::BinaryHeap<u64>,
    /// `|Δ_DM|` (eq. 4.3): target records carrying at least one out-of-table
    /// value.
    delta_size: u64,
    /// `num(q, Δ_DM)` per crawler value id.
    delta_counts: HashMap<u32, u32>,
    /// Cursor into `DB_local`'s append-only record list.
    processed_records: usize,
    /// Hit-rate counters for the §4.3 estimator: fraction of discovered
    /// values present in the table (`P(q ∈ DM | q ∈ DB)`).
    discovered_values: u64,
    hit_values: u64,
    /// Adaptive Q_DT success counters: how many Q_DT probes were issued and
    /// how many returned at least one record. The paper equates
    /// `P(q ∈ DB | q ∈ DM)` with the discovered-value hit rate via a
    /// symmetric-prior assumption; that assumption collapses when the target
    /// is much smaller than the sample, so the probe success rate is tracked
    /// directly (Laplace-smoothed) and the smaller of the two estimates wins.
    qdt_issued: u64,
    qdt_hits: u64,
    /// The in-flight Q_DT probe, if the last selection came from Q_DT.
    pending_qdt: Option<ValueId>,
}

impl DomainPolicy {
    /// New DM policy over a domain table.
    pub fn new(dm: Arc<DomainTable>) -> Self {
        let covered = CoveredSet::new(dm.num_records());
        DomainPolicy {
            dm,
            dm_of: Vec::new(),
            covered,
            qdb: std::collections::BinaryHeap::new(),
            qdt: std::collections::BinaryHeap::new(),
            delta_size: 0,
            delta_counts: HashMap::new(),
            processed_records: 0,
            discovered_values: 0,
            hit_values: 0,
            qdt_issued: 0,
            qdt_hits: 0,
            pending_qdt: None,
        }
    }

    fn dm_id(&self, v: ValueId) -> Option<ValueId> {
        self.dm_of.get(v.index()).copied().flatten()
    }

    fn set_dm_id(&mut self, v: ValueId, dm: ValueId) {
        if v.index() >= self.dm_of.len() {
            self.dm_of.resize(v.index() + 1, None);
        }
        self.dm_of[v.index()] = Some(dm);
    }

    /// Smoothed `P(q, DM)` per eq. 4.3:
    /// `(num(q, Δ_DM) + num(q, DM)) / (|Δ_DM| + |DM|)`.
    fn p_dm(&self, v: ValueId) -> f64 {
        let delta = self.delta_counts.get(&v.0).copied().unwrap_or(0) as f64;
        let base = self.dm_id(v).map_or(0, |d| self.dm.freq(d)) as f64;
        let denom = self.delta_size as f64 + self.dm.num_records() as f64;
        if denom == 0.0 {
            return 0.0;
        }
        (delta + base) / denom
    }

    /// Estimated total matches of `v` in the target (eq. 4.2):
    /// `n̂um(v, DB) = |DB_local| · P(v, DM) / P(L_queried, DM)`.
    /// `None` until the estimator has evidence (nothing issued / no smoothed
    /// probability).
    fn est_total(&self, state: &CrawlState, v: ValueId) -> Option<f64> {
        let p_lq = self.covered.fraction();
        let p_dm = self.p_dm(v);
        if p_lq <= 0.0 || p_dm <= 0.0 {
            return None;
        }
        Some((state.local.num_records() as f64 * p_dm / p_lq).max(1.0))
    }

    /// Expected *new records per communication round* of retrieving `total`
    /// matches of which `local` are already held: Definition 2.5 with
    /// `cost = ⌈total / k⌉`.
    fn per_round_rate(&self, state: &CrawlState, total: f64, local: f64) -> f64 {
        let k = state.page_size as f64;
        let total = total.max(local).max(1.0);
        let pages = (total / k).ceil().max(1.0);
        ((total - local) / pages).max(0.0)
    }

    /// Harvest-rate estimate (new records/round) for a discovered candidate,
    /// combining eqs. 4.1–4.2 (see DESIGN.md on the per-round units).
    fn hr_qdb(&self, state: &CrawlState, v: ValueId) -> f64 {
        let num_local = f64::from(state.local.count(v));
        let k = state.page_size as f64;
        match self.est_total(state, v) {
            // No estimate yet → optimistic: a full page of new records.
            None => {
                if num_local == 0.0 {
                    k
                } else {
                    // Seen but unestimable: assume double what we hold.
                    self.per_round_rate(state, 2.0 * num_local, num_local)
                }
            }
            Some(est) => self.per_round_rate(state, est, num_local),
        }
    }

    /// The §4.3 discovered-value hit rate, `P(q ∈ DM | q ∈ DB)`.
    fn dm_hit_rate(&self) -> f64 {
        if self.discovered_values == 0 {
            return 1.0; // optimistic before any evidence
        }
        self.hit_values as f64 / self.discovered_values as f64
    }

    /// Laplace-smoothed Q_DT probe success rate — the direct estimate of
    /// `P(q ∈ DB | q ∈ DM)` from the crawl history.
    fn qdt_success_rate(&self) -> f64 {
        (self.qdt_hits as f64 + 1.0) / (self.qdt_issued as f64 + 2.0)
    }

    /// Expected harvest rate (new records/round) of the best unseen table
    /// value `v`: existence probability × per-round rate if it exists (all
    /// matches would be new, §4.3).
    fn hr_qdt(&self, state: &CrawlState, v: ValueId) -> f64 {
        let p_exist = self.dm_hit_rate().min(self.qdt_success_rate());
        let rate = match self.est_total(state, v) {
            Some(est) => self.per_round_rate(state, est, 0.0),
            None => state.page_size as f64,
        };
        p_exist * rate
    }

    /// Ingests records added to `DB_local` since the last query, maintaining
    /// Δ_DM (eq. 4.3).
    fn ingest_new_records(&mut self, state: &CrawlState) {
        let total = state.local.num_records();
        // Collect first to keep the borrow checker happy (records borrows
        // state, delta updates borrow self).
        let mut delta_updates: Vec<ValueId> = Vec::new();
        let mut new_delta_records = 0u64;
        for rec in state.local.records_since(self.processed_records) {
            let in_delta = rec.iter().any(|&v| self.dm_id(v).is_none());
            if in_delta {
                new_delta_records += 1;
                delta_updates.extend_from_slice(rec);
            }
        }
        self.processed_records = total;
        self.delta_size += new_delta_records;
        for v in delta_updates {
            *self.delta_counts.entry(v.0).or_insert(0) += 1;
        }
    }

    /// Pops the best valid Q_DB candidate using lazy re-evaluation: the top
    /// entry's HR is recomputed against current state; if it still beats the
    /// next entry's (stale, upper-bound-ish) key it is selected, otherwise it
    /// is re-pushed with its fresh value.
    fn pop_qdb(&mut self, state: &CrawlState) -> Option<(ValueId, f64)> {
        while let Some(top) = self.qdb.pop() {
            if state.status_of(top.value) != CandStatus::Frontier {
                continue;
            }
            let fresh = self.hr_qdb(state, top.value);
            match self.qdb.peek() {
                Some(next) if fresh < next.hr => {
                    self.qdb.push(QdbEntry { hr: fresh, value: top.value });
                }
                _ => return Some((top.value, fresh)),
            }
        }
        None
    }

    /// Pops the most domain-frequent Q_DT candidate still undiscovered.
    fn pop_qdt(&mut self, state: &CrawlState) -> Option<ValueId> {
        while let Some(e) = self.qdt.pop() {
            let v = ValueId(e as u32);
            if state.status_of(v) == CandStatus::Undiscovered {
                return Some(v);
            }
        }
        None
    }
}

impl SelectionPolicy for DomainPolicy {
    fn name(&self) -> &'static str {
        "domain"
    }

    /// Interns the whole domain table into the crawler vocabulary ("the
    /// database crawler not only acquires the categorical attribute values
    /// for query generation…", §4.1) and fills the Q_DT pool.
    fn init(&mut self, state: &mut CrawlState) {
        let dm = Arc::clone(&self.dm);
        for v in dm.sample().interner().iter_ids() {
            let attr = dm.sample().interner().attr_of(v);
            let attr_name = &dm.sample().schema().attr(attr).name;
            let Some(crawler_attr) = state.attr_by_name(attr_name) else { continue };
            let s = dm.sample().interner().value_str(v);
            let cv = state.intern(crawler_attr, s);
            self.set_dm_id(cv, v);
            if state.is_queriable(cv) {
                let freq = dm.freq(v) as u64;
                self.qdt.push((freq << 32) | u64::from(cv.0));
            }
        }
    }

    /// Rebuilds the covered set, Δ_DM and hit counters from a resumed state.
    /// The Q_DT probe statistics are not checkpointed and restart at the
    /// Laplace prior.
    fn resume(&mut self, state: &mut CrawlState) {
        self.init(state);
        let ids: Vec<ValueId> = (0..state.status().len() as u32).map(ValueId).collect();
        for v in ids {
            match state.status_of(v) {
                CandStatus::Undiscovered => {}
                status @ (CandStatus::Frontier | CandStatus::Queried) => {
                    self.discovered_values += 1;
                    if self.dm_id(v).is_some() {
                        self.hit_values += 1;
                    }
                    if status == CandStatus::Frontier {
                        let hr = self.hr_qdb(state, v);
                        self.qdb.push(QdbEntry { hr, value: v });
                    }
                }
            }
        }
        for &q in state.queried() {
            if let Some(dmid) = self.dm_id(q) {
                let dm = Arc::clone(&self.dm);
                self.covered.union_postings(dm.postings(dmid));
            }
        }
        self.ingest_new_records(state);
    }

    fn on_discovered(&mut self, state: &CrawlState, v: ValueId) {
        self.discovered_values += 1;
        if self.dm_id(v).is_some() {
            self.hit_values += 1;
        }
        let hr = self.hr_qdb(state, v);
        self.qdb.push(QdbEntry { hr, value: v });
    }

    fn on_query_done(&mut self, state: &CrawlState, v: ValueId, outcome: &QueryOutcome) {
        if self.pending_qdt.take() == Some(v) {
            self.qdt_issued += 1;
            if outcome.returned_records > 0 {
                self.qdt_hits += 1;
            }
        }
        self.ingest_new_records(state);
        if let Some(dmid) = self.dm_id(v) {
            // §4.4: S(L_queried[1..m], DM) ∪ S(L_queried[m], DM).
            let dm = Arc::clone(&self.dm);
            self.covered.union_postings(dm.postings(dmid));
        }
        for &t in &outcome.touched_values {
            if state.status_of(t) == CandStatus::Frontier {
                let hr = self.hr_qdb(state, t);
                self.qdb.push(QdbEntry { hr, value: t });
            }
        }
    }

    fn select(&mut self, state: &CrawlState) -> Option<ValueId> {
        let qdb_best = self.pop_qdb(state);
        let qdt_best = self.pop_qdt(state);
        // Both candidates priced in the same units: expected new records per
        // communication round.
        let qdt_rate = qdt_best.map(|v| self.hr_qdt(state, v));
        let prefer_qdt = match (qdb_best, qdt_rate) {
            (Some((_, qdb_hr)), Some(rate)) => rate > qdb_hr,
            (None, Some(_)) => true,
            _ => false,
        };
        if prefer_qdt {
            if let Some((b, hr)) = qdb_best {
                self.qdb.push(QdbEntry { hr, value: b });
            }
            self.pending_qdt = qdt_best;
            qdt_best
        } else {
            // Return the unused Q_DT probe to its pool.
            if let Some(t) = qdt_best {
                let freq = self.dm_id(t).map_or(0, |d| self.dm.freq(d)) as u64;
                self.qdt.push((freq << 32) | u64::from(t.0));
            }
            qdb_best.map(|(v, _)| v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwc_model::fixtures::{figure1_schema, figure1_table};
    use dwc_model::AttrId;

    fn figure1_state() -> CrawlState {
        let schema = figure1_schema();
        let names = (0..schema.len()).map(|i| schema.attr(AttrId(i as u16)).name.clone()).collect();
        CrawlState::new(names, vec![true, true, true], 10)
    }

    fn policy_with_figure1_dm() -> (DomainPolicy, CrawlState) {
        let dm = Arc::new(DomainTable::build(figure1_table()));
        let mut p = DomainPolicy::new(dm);
        let mut st = figure1_state();
        p.init(&mut st);
        (p, st)
    }

    #[test]
    fn init_interns_whole_table_as_undiscovered() {
        let (_, st) = policy_with_figure1_dm();
        assert_eq!(st.vocab.len(), 9);
        assert!(st.vocab.iter_ids().all(|v| st.status_of(v) == CandStatus::Undiscovered));
    }

    #[test]
    fn first_selection_is_most_domain_frequent_table_value() {
        let (mut p, st) = policy_with_figure1_dm();
        // Frequencies in Figure 1: a2 and c2 match 3 records each; c1 two.
        let v = p.select(&st).expect("Q_DT pool nonempty");
        let s = st.vocab.value_str(v);
        assert!(s == "a2" || s == "c2", "got {s}");
    }

    #[test]
    fn discovered_in_table_values_raise_hit_rate() {
        let (mut p, mut st) = policy_with_figure1_dm();
        let a2 = st.vocab.get(AttrId(0), "a2").unwrap();
        st.set_status(a2, CandStatus::Frontier);
        p.on_discovered(&st, a2);
        assert_eq!(p.dm_hit_rate(), 1.0);
        // An out-of-table discovery lowers it.
        let alien = st.intern(AttrId(0), "alien");
        st.set_status(alien, CandStatus::Frontier);
        p.on_discovered(&st, alien);
        assert_eq!(p.dm_hit_rate(), 0.5);
    }

    #[test]
    fn qdt_probe_success_is_learned() {
        let (mut p, mut st) = policy_with_figure1_dm();
        assert_eq!(p.qdt_success_rate(), 0.5, "Laplace prior");
        // First selection comes from Q_DT; report it as a miss.
        let v = p.select(&st).unwrap();
        st.set_status(v, CandStatus::Queried);
        let miss = QueryOutcome::default();
        p.on_query_done(&st, v, &miss);
        assert_eq!(p.qdt_issued, 1);
        assert_eq!(p.qdt_hits, 0);
        assert!(p.qdt_success_rate() < 0.5, "misses must lower the estimate");
        // A successful probe raises it again.
        let v2 = p.select(&st).unwrap();
        st.set_status(v2, CandStatus::Queried);
        let hit = QueryOutcome { returned_records: 4, ..Default::default() };
        p.on_query_done(&st, v2, &hit);
        assert_eq!(p.qdt_hits, 1);
    }

    #[test]
    fn delta_dm_smoothing_tracks_out_of_table_records() {
        let (mut p, mut st) = policy_with_figure1_dm();
        let a2 = st.vocab.get(AttrId(0), "a2").unwrap();
        let alien = st.intern(AttrId(1), "alien");
        // One record entirely inside the table, one carrying an unknown value.
        st.local.insert(1, &[a2]);
        st.local.insert(2, &[a2, alien]);
        p.ingest_new_records(&st);
        assert_eq!(p.delta_size, 1);
        // a2 appears in 1 Δ_DM record; alien too.
        assert_eq!(p.delta_counts.get(&a2.0), Some(&1));
        assert_eq!(p.delta_counts.get(&alien.0), Some(&1));
        // Smoothed P(alien, DM) = (1 + 0) / (1 + 5).
        assert!((p.p_dm(alien) - 1.0 / 6.0).abs() < 1e-12);
        // Smoothed P(a2, DM) = (1 + 3) / (1 + 5).
        assert!((p.p_dm(a2) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn covered_set_grows_only_for_table_queries() {
        let (mut p, mut st) = policy_with_figure1_dm();
        let a2 = st.vocab.get(AttrId(0), "a2").unwrap();
        st.set_status(a2, CandStatus::Queried);
        st.push_queried(a2);
        p.on_query_done(&st, a2, &QueryOutcome::default());
        assert_eq!(p.covered.len(), 3, "a2 matches 3 sample records");
        let alien = st.intern(AttrId(0), "alien");
        st.set_status(alien, CandStatus::Queried);
        p.on_query_done(&st, alien, &QueryOutcome::default());
        assert_eq!(p.covered.len(), 3, "out-of-table query covers nothing");
    }

    #[test]
    fn hr_qdb_decreases_as_local_copies_accumulate() {
        let (mut p, mut st) = policy_with_figure1_dm();
        let a2 = st.vocab.get(AttrId(0), "a2").unwrap();
        let c1 = st.vocab.get(AttrId(2), "c1").unwrap();
        st.set_status(a2, CandStatus::Frontier);
        assert_eq!(p.hr_qdb(&st, a2), 10.0, "nothing local yet → a full page of new records");
        // Simulate: c1 was queried and covered 2 sample records; two records
        // containing a2 are local.
        st.set_status(c1, CandStatus::Queried);
        st.local.insert(1, &[a2, c1]);
        st.local.insert(2, &[a2, c1]);
        p.on_query_done(&st, c1, &QueryOutcome::default());
        let hr = p.hr_qdb(&st, a2);
        // est_total = |DBlocal|·P(a2,DM)/P(Lq,DM) = 2·0.6/0.4 = 3 matches;
        // 2 already local → 1 new record in ⌈3/10⌉ = 1 round.
        assert!((hr - 1.0).abs() < 1e-9, "hr = {hr}");
        assert!(hr < 10.0, "estimate must drop as local copies accumulate");
    }

    #[test]
    fn selection_prefers_qdb_when_hit_rate_low() {
        let (mut p, mut st) = policy_with_figure1_dm();
        // Make hit rate 0 by discovering only out-of-table values.
        let alien = st.intern(AttrId(0), "alien1");
        st.set_status(alien, CandStatus::Frontier);
        p.on_discovered(&st, alien);
        let alien2 = st.intern(AttrId(0), "alien2");
        st.set_status(alien2, CandStatus::Frontier);
        p.on_discovered(&st, alien2);
        assert_eq!(p.dm_hit_rate(), 0.0);
        let v = p.select(&st).unwrap();
        assert!(st.vocab.value_str(v).starts_with("alien"), "Q_DB must win");
    }

    #[test]
    fn qdt_entries_skipped_once_discovered() {
        let (mut p, mut st) = policy_with_figure1_dm();
        // Discover a2 (a Q_DT favourite) in the target: the Q_DT pool must
        // no longer offer it.
        let a2 = st.vocab.get(AttrId(0), "a2").unwrap();
        st.set_status(a2, CandStatus::Frontier);
        p.on_discovered(&st, a2);
        let probe = p.pop_qdt(&st).unwrap();
        assert_ne!(probe, a2, "discovered values leave the Q_DT pool");
        assert_eq!(st.vocab.value_str(probe), "c2", "next-most-frequent table value");
    }

    #[test]
    fn exhausted_pools_return_none() {
        let dm = Arc::new(DomainTable::build(dwc_model::UniversalTable::new(figure1_schema())));
        let mut p = DomainPolicy::new(dm);
        let mut st = figure1_state();
        p.init(&mut st);
        assert_eq!(p.select(&st), None);
    }
}
