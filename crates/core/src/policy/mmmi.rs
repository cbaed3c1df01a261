//! Min–Max Mutual-Information query selection (MMMI, §3.3).
//!
//! The greedy link-based policy "always favours popular nodes and does not
//! take into consideration the dependency between the queries to issue and
//! the queries already issued". Once the crawl saturates (the
//! "low marginal benefit" regime, ~85% coverage), MMMI re-ranks the frontier:
//! every candidate gets the score
//!
//! ```text
//! s(q_i) = max_{q_j ∈ L_queried} ln P(q_i, q_j | DB_local)
//!                                   / (P(q_i|DB_local) · P(q_j|DB_local))
//! ```
//!
//! (Definition 3.1) and `L_to-query` is sorted **ascending** — candidates
//! least correlated with past queries first. Scores are recomputed in batch
//! mode ("the dependency information is recomputed when a batch of queries
//! has been issued") because per-record updates would be too expensive.

use crate::policy::greedy::GreedyLink;
use crate::policy::SelectionPolicy;
use crate::state::{CandStatus, CrawlState, QueryOutcome};
use dwc_model::ValueId;
use dwc_stats::pmi;
use std::collections::HashMap;

/// Weight `w` of the standardized dependency penalty in the combined MMMI
/// rank key `z(log degree) − w·z(dependency)` (see [`Mmmi::recompute`]).
/// Calibrated on the Figure 4 reproduction: larger weights buy bigger savings
/// in the 85–95% band but defer the block-connector values that guard the
/// very last records.
const MMMI_PENALTY_WEIGHT: f64 = 0.5;

/// When to switch from greedy-link to MMMI ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Saturation {
    /// Switch when true coverage reaches this fraction (controlled
    /// experiments where the harness knows the target size; the paper
    /// switches at 0.85).
    Coverage(f64),
    /// Switch when the mean normalized harvest rate over the last `window`
    /// queries drops below `threshold` (the realistic automatic detector).
    HarvestWindow {
        /// Number of most recent queries averaged.
        window: usize,
        /// Mean normalized harvest rate below which the crawl is saturated.
        threshold: f64,
    },
    /// MMMI ordering from the first query (ablation).
    Immediately,
}

/// MMMI configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmmiConfig {
    /// Switch-over trigger.
    pub trigger: Saturation,
    /// Recompute the dependency scores after this many MMMI-phase queries.
    pub batch: usize,
}

impl Default for MmmiConfig {
    fn default() -> Self {
        // The paper's Figure 4 setting: switch at 85% coverage; batch-mode
        // recomputation every 50 queries.
        MmmiConfig { trigger: Saturation::Coverage(0.85), batch: 50 }
    }
}

/// Greedy-link selection with MMMI re-ranking after saturation (GL+MMMI).
#[derive(Debug)]
pub struct Mmmi {
    config: MmmiConfig,
    greedy: GreedyLink,
    active: bool,
    /// Frontier sorted ascending by dependency score (least dependent first).
    ranked: Vec<ValueId>,
    cursor: usize,
    since_recompute: usize,
}

impl Mmmi {
    /// New GL+MMMI policy.
    pub fn new(config: MmmiConfig) -> Self {
        assert!(config.batch > 0, "batch must be positive");
        Mmmi {
            config,
            greedy: GreedyLink::new(),
            active: false,
            ranked: Vec::new(),
            cursor: 0,
            since_recompute: 0,
        }
    }

    /// Whether the MMMI phase has begun.
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn triggered(&self, state: &CrawlState) -> bool {
        match self.config.trigger {
            Saturation::Coverage(c) => state.coverage().is_some_and(|cov| cov >= c),
            Saturation::HarvestWindow { window, threshold } => {
                state.recent_harvest_mean(window).is_some_and(|m| m < threshold)
            }
            Saturation::Immediately => true,
        }
    }

    /// Batch recomputation of Definition 3.1 scores over `DB_local`.
    ///
    /// One pass over the harvested records accumulates, for every
    /// (frontier candidate, issued query) pair that co-occurs, the
    /// co-occurrence count; the dependency of a candidate is its **maximum**
    /// PMI against any issued query (Definition 3.1's min–max).
    ///
    /// Ranking: the paper uses MMMI "together with the greedy link-based
    /// approach", estimating `HR(q) ∝ degree(q)` (§3.2) and
    /// `HR(q) ∝ 1/s(q)` (§3.3). Both signals are standardized over the
    /// current frontier and combined into the rank key
    /// `z(log degree) − w·z(s)`; candidates are selected in descending key
    /// order, so an independent popular value beats both a saturated hub
    /// (high dependency) and an equally independent but unproductive
    /// singleton (no degree).
    fn recompute(&mut self, state: &CrawlState) {
        let n = state.local.num_records();
        // (candidate, issued) → co-occurrence count.
        let mut pair_counts: HashMap<(u32, u32), u32> = HashMap::new();
        let mut scratch_issued: Vec<ValueId> = Vec::new();
        for rec in state.local.records() {
            scratch_issued.clear();
            scratch_issued
                .extend(rec.iter().copied().filter(|&v| state.status_of(v) == CandStatus::Queried));
            if scratch_issued.is_empty() {
                continue;
            }
            for &c in rec {
                if state.status_of(c) != CandStatus::Frontier {
                    continue;
                }
                for &q in &scratch_issued {
                    *pair_counts.entry((c.0, q.0)).or_insert(0) += 1;
                }
            }
        }
        // Max PMI per candidate.
        let mut score: HashMap<u32, f64> = HashMap::new();
        for (&(c, q), &co) in &pair_counts {
            let p = pmi(
                co as usize,
                state.local.count(ValueId(c)) as usize,
                state.local.count(ValueId(q)) as usize,
                n,
            )
            .unwrap_or(f64::NEG_INFINITY);
            let e = score.entry(c).or_insert(f64::NEG_INFINITY);
            if p > *e {
                *e = p;
            }
        }
        self.ranked.clear();
        self.ranked.extend(
            (0..state.status().len() as u32)
                .map(ValueId)
                .filter(|&v| state.status_of(v) == CandStatus::Frontier),
        );
        // Standardize both signals over the current frontier so neither unit
        // dominates: the combined key is z(log-degree) − w·z(dependency) —
        // the greedy productivity signal minus the min–max dependency
        // penalty, each in frontier-relative standard deviations.
        let deg_of = |v: ValueId| (1.0 + f64::from(state.local.degree(v))).ln();
        let dep_of =
            |v: ValueId| score.get(&v.0).copied().unwrap_or(f64::NEG_INFINITY).clamp(-8.0, 8.0);
        let m = self.ranked.len().max(1) as f64;
        let (mut mean_deg, mut mean_dep) = (0.0, 0.0);
        for &v in &self.ranked {
            mean_deg += deg_of(v);
            mean_dep += dep_of(v);
        }
        mean_deg /= m;
        mean_dep /= m;
        let (mut var_deg, mut var_dep) = (0.0, 0.0);
        for &v in &self.ranked {
            var_deg += (deg_of(v) - mean_deg).powi(2);
            var_dep += (dep_of(v) - mean_dep).powi(2);
        }
        let sd_deg = (var_deg / m).sqrt().max(1e-9);
        let sd_dep = (var_dep / m).sqrt().max(1e-9);
        let rank_key = |v: ValueId| -> f64 {
            (deg_of(v) - mean_deg) / sd_deg - MMMI_PENALTY_WEIGHT * (dep_of(v) - mean_dep) / sd_dep
        };
        // Only the next `batch` selections can happen before the scores go
        // stale and this runs again, so a full `O(m log m)` sort of the
        // frontier is wasted work: partition the top `batch` candidates out
        // with `select_nth_unstable` (`O(m)`) and sort just those. The key
        // (id tie-broken) is a strict total order, so the partition — and
        // therefore the selection order — is identical to the full sort's.
        let mut keyed: Vec<(f64, ValueId)> =
            self.ranked.iter().map(|&v| (rank_key(v), v)).collect();
        let cmp = |a: &(f64, ValueId), b: &(f64, ValueId)| {
            b.0.total_cmp(&a.0).then_with(|| (a.1).0.cmp(&(b.1).0))
        };
        let k = self.config.batch.min(keyed.len());
        if k > 0 && k < keyed.len() {
            keyed.select_nth_unstable_by(k - 1, cmp);
            keyed.truncate(k);
        }
        keyed.sort_by(cmp);
        self.ranked.clear();
        self.ranked.extend(keyed.into_iter().map(|(_, v)| v));
        self.cursor = 0;
        self.since_recompute = 0;
    }
}

impl SelectionPolicy for Mmmi {
    fn name(&self) -> &'static str {
        "greedy-link+mmmi"
    }

    fn on_discovered(&mut self, state: &CrawlState, v: ValueId) {
        // Keep the greedy structure warm throughout; during the MMMI phase a
        // newly discovered value is picked up at the next batch recompute.
        self.greedy.on_discovered(state, v);
    }

    fn on_query_done(&mut self, state: &CrawlState, v: ValueId, outcome: &QueryOutcome) {
        self.greedy.on_query_done(state, v, outcome);
        if self.active {
            self.since_recompute += 1;
        }
    }

    fn select(&mut self, state: &CrawlState) -> Option<ValueId> {
        if !self.active {
            if self.triggered(state) {
                self.active = true;
                self.recompute(state);
            } else {
                return self.greedy.select(state);
            }
        }
        if self.since_recompute >= self.config.batch || self.cursor >= self.ranked.len() {
            self.recompute(state);
        }
        while self.cursor < self.ranked.len() {
            let v = self.ranked[self.cursor];
            self.cursor += 1;
            if state.status_of(v) == CandStatus::Frontier {
                return Some(v);
            }
        }
        // Frontier exhausted even after recompute: fall back to greedy (which
        // will also return None when truly done).
        self.greedy.select(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwc_model::AttrId;

    fn frontier_state() -> (CrawlState, Vec<ValueId>) {
        let mut st = CrawlState::new(vec!["A".into()], vec![true], 10);
        let ids: Vec<ValueId> = ["q1", "dependent", "independent", "fresh"]
            .iter()
            .map(|s| st.intern(AttrId(0), s))
            .collect();
        // q1 has been queried; "dependent" co-occurs with q1 in most records,
        // "independent" rarely, "fresh" never.
        st.set_status(ids[0], CandStatus::Queried);
        for &id in &ids[1..4] {
            st.set_status(id, CandStatus::Frontier);
        }
        st.push_queried(ids[0]);
        // 10 records: 6 contain {q1, dependent}, 1 contains {q1, independent},
        // 2 contain {independent}, 1 contains {fresh}.
        let mut key = 0u64;
        for _ in 0..6 {
            st.local.insert(
                {
                    key += 1;
                    key
                },
                &[ids[0], ids[1]],
            );
        }
        st.local.insert(
            {
                key += 1;
                key
            },
            &[ids[0], ids[2]],
        );
        for _ in 0..2 {
            st.local.insert(
                {
                    key += 1;
                    key
                },
                &[ids[2]],
            );
        }
        st.local.insert(
            {
                key += 1;
                key
            },
            &[ids[3]],
        );
        (st, ids)
    }

    #[test]
    fn mmmi_prefers_least_dependent() {
        let (st, ids) = frontier_state();
        let mut p = Mmmi::new(MmmiConfig { trigger: Saturation::Immediately, batch: 100 });
        for &v in &ids[1..] {
            p.on_discovered(&st, v);
        }
        // Dependencies: PMI(dependent, q1) = ln(6·10/(6·7)) ≈ +0.36 (penalized);
        // PMI(independent, q1) = ln(1·10/(3·7)) < 0 (no penalty);
        // fresh never co-occurs (no penalty). All three have degree ≤ 1, so
        // the positively-dependent candidate must sort last.
        let first = p.select(&st).unwrap();
        assert_ne!(first, ids[1], "positively dependent value must not come first");
        assert!(p.is_active());
    }

    #[test]
    fn dependency_buckets_order_the_frontier() {
        let (mut st, ids) = frontier_state();
        let mut p = Mmmi::new(MmmiConfig { trigger: Saturation::Immediately, batch: 100 });
        for &v in &ids[1..] {
            p.on_discovered(&st, v);
        }
        let mut order = Vec::new();
        while let Some(v) = p.select(&st) {
            order.push(v);
            st.set_status(v, CandStatus::Queried);
        }
        // Keys combine z(log-degree) − w·z(dependency): "independent"
        // (degree 1, negative dependency) wins; "dependent" (same degree,
        // positive dependency) is second; "fresh" (degree 0 — no observed
        // productivity at all) comes last despite having no dependency.
        assert_eq!(order, vec![ids[2], ids[1], ids[3]]);
    }

    #[test]
    fn popular_and_less_dependent_wins() {
        // A popular candidate whose occurrences are spread out (PMI ≈ 0)
        // must outrank a singleton fully explained by an issued query
        // (PMI = ln n > 0).
        let mut st = CrawlState::new(vec!["A".into()], vec![true], 10);
        let q = st.intern(AttrId(0), "q");
        let hub = st.intern(AttrId(0), "hub");
        let tiny = st.intern(AttrId(0), "tiny");
        st.set_status(q, CandStatus::Queried);
        st.set_status(hub, CandStatus::Frontier);
        st.set_status(tiny, CandStatus::Frontier);
        st.push_queried(q);
        // One record with all three; four more spreading hub out.
        let mut key = 0u64;
        st.local.insert(
            {
                key += 1;
                key
            },
            &[q, hub, tiny],
        );
        for i in 0..4u32 {
            let other = st.intern(AttrId(0), &format!("x{i}"));
            st.local.insert(
                {
                    key += 1;
                    key
                },
                &[hub, other],
            );
        }
        // PMI(hub, q) = ln(1·5/(5·1)) = 0; PMI(tiny, q) = ln(5) > 0.
        let mut p = Mmmi::new(MmmiConfig { trigger: Saturation::Immediately, batch: 100 });
        p.on_discovered(&st, hub);
        p.on_discovered(&st, tiny);
        assert_eq!(p.select(&st), Some(hub));
    }

    #[test]
    fn top_k_ranking_is_a_prefix_of_the_full_sort() {
        // 20 frontier values with distinct degrees; the batch-5 policy keeps
        // only its top 5 but must hand them out in exactly the order the
        // batch-100 (effectively full-sort) policy does.
        let mut st = CrawlState::new(vec!["A".into()], vec![true], 10);
        let q = st.intern(AttrId(0), "q");
        st.set_status(q, CandStatus::Queried);
        st.push_queried(q);
        let mut key = 0u64;
        let ids: Vec<ValueId> = (0..20u32)
            .map(|i| {
                let v = st.intern(AttrId(0), &format!("v{i}"));
                st.set_status(v, CandStatus::Frontier);
                // Give v{i} a degree of i by linking it to i fillers.
                for j in 0..i {
                    let filler = st.intern(AttrId(0), &format!("f{i}_{j}"));
                    key += 1;
                    st.local.insert(key, &[v, filler]);
                }
                v
            })
            .collect();
        // A couple of dependency edges so scores are not all-absent.
        for &v in &ids[..3] {
            key += 1;
            st.local.insert(key, &[q, v]);
        }
        let mut small = Mmmi::new(MmmiConfig { trigger: Saturation::Immediately, batch: 5 });
        let mut full = Mmmi::new(MmmiConfig { trigger: Saturation::Immediately, batch: 100 });
        for &v in &ids {
            small.on_discovered(&st, v);
            full.on_discovered(&st, v);
        }
        // No statuses change between selects, so each call walks the cursor.
        let first5_small: Vec<_> = (0..5).map(|_| small.select(&st).unwrap()).collect();
        let first5_full: Vec<_> = (0..5).map(|_| full.select(&st).unwrap()).collect();
        assert_eq!(first5_small, first5_full);
    }

    #[test]
    fn coverage_trigger_switches_late() {
        let (mut st, ids) = frontier_state();
        st.target_size = Some(st.local.num_records()); // coverage = 1.0
        let mut p = Mmmi::new(MmmiConfig { trigger: Saturation::Coverage(0.85), batch: 10 });
        for &v in &ids[1..] {
            p.on_discovered(&st, v);
        }
        let _ = p.select(&st);
        assert!(p.is_active(), "coverage 1.0 ≥ 0.85 must trigger");
    }

    #[test]
    fn stays_greedy_before_trigger() {
        let (mut st, ids) = frontier_state();
        st.target_size = Some(1_000_000); // coverage ≈ 0
        let mut p = Mmmi::new(MmmiConfig { trigger: Saturation::Coverage(0.85), batch: 10 });
        for &v in &ids[1..] {
            p.on_discovered(&st, v);
        }
        let first = p.select(&st).unwrap();
        assert!(!p.is_active());
        // Greedy picks the max-degree frontier value: "dependent" (degree 1)
        // ties with "independent" (degree 1)… degree of dependent = 1
        // (edge to q1), independent = 1 (edge to q1), fresh = 0.
        assert!(first == ids[1] || first == ids[2]);
    }

    #[test]
    fn harvest_window_trigger() {
        let (mut st, ids) = frontier_state();
        let mut p = Mmmi::new(MmmiConfig {
            trigger: Saturation::HarvestWindow { window: 3, threshold: 0.2 },
            batch: 10,
        });
        for &v in &ids[1..] {
            p.on_discovered(&st, v);
        }
        st.push_harvest(0.1);
        st.push_harvest(0.1);
        assert!(!p.triggered(&st), "window not yet full");
        st.push_harvest(0.1);
        assert!(p.triggered(&st));
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn zero_batch_rejected() {
        let _ = Mmmi::new(MmmiConfig { trigger: Saturation::Immediately, batch: 0 });
    }
}
