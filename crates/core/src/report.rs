//! Crawl-state reporting: a human-readable summary of the Query Selector's
//! statistics table (§2.5) at any point in a crawl.
//!
//! Answers the questions an operator asks a long-running crawler: how big is
//! the frontier and what is it made of, how much of the recent effort is
//! duplicates, and which hub values carry the local graph — and, for fleets,
//! which jobs crashed, tripped their breaker, or were abandoned
//! ([`crate::fleet::FleetReport`]'s `Display`).

use crate::fleet::FleetReport;
use crate::state::{CandStatus, CrawlState};
use dwc_model::ValueId;
use std::fmt;

/// Per-attribute breakdown of the crawl vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrBreakdown {
    /// Attribute name.
    pub attr: String,
    /// Values waiting in `L_to-query`.
    pub frontier: usize,
    /// Values already issued.
    pub queried: usize,
    /// Values known but not candidates (domain-table-only or not queriable).
    pub undiscovered: usize,
}

/// A snapshot summary of a crawl's statistics table.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlSummary {
    /// Records harvested (`|DB_local|`).
    pub records: usize,
    /// Distinct edges of the local attribute-value graph.
    pub local_edges: usize,
    /// Queries issued so far.
    pub queries: usize,
    /// Per-attribute vocabulary breakdown.
    pub attrs: Vec<AttrBreakdown>,
    /// Mean normalized harvest rate over the recent window, if available.
    pub recent_harvest: Option<f64>,
    /// The top local-graph hubs: `(attribute, value, degree)`.
    pub top_hubs: Vec<(String, String, u32)>,
    /// True coverage, when the target size is known.
    pub coverage: Option<f64>,
}

impl CrawlSummary {
    /// Builds the summary from a crawl state, keeping the `top_n` hubs.
    pub fn from_state(state: &CrawlState, top_n: usize) -> Self {
        let mut attrs: Vec<AttrBreakdown> = state
            .attr_names
            .iter()
            .map(|name| AttrBreakdown {
                attr: name.clone(),
                frontier: 0,
                queried: 0,
                undiscovered: 0,
            })
            .collect();
        let mut hubs: Vec<(u32, ValueId)> = Vec::new();
        for v in state.vocab.iter_ids() {
            let slot = &mut attrs[state.vocab.attr_of(v).0 as usize];
            match state.status_of(v) {
                CandStatus::Frontier => slot.frontier += 1,
                CandStatus::Queried => slot.queried += 1,
                CandStatus::Undiscovered => slot.undiscovered += 1,
            }
            let d = state.local.degree(v);
            if d > 0 {
                hubs.push((d, v));
            }
        }
        hubs.sort_unstable_by_key(|&(d, v)| (std::cmp::Reverse(d), v.0));
        hubs.truncate(top_n);
        let top_hubs = hubs
            .into_iter()
            .map(|(d, v)| {
                (
                    state.attr_names[state.vocab.attr_of(v).0 as usize].clone(),
                    state.vocab.value_str(v).to_owned(),
                    d,
                )
            })
            .collect();
        CrawlSummary {
            records: state.local.num_records(),
            local_edges: state.local.num_edges(),
            queries: state.queried().len(),
            attrs,
            recent_harvest: state.recent_harvest_mean(16),
            top_hubs,
            coverage: state.coverage(),
        }
    }

    /// Total frontier size (`|L_to-query|`).
    pub fn frontier_size(&self) -> usize {
        self.attrs.iter().map(|a| a.frontier).sum()
    }
}

impl fmt::Display for CrawlSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "records harvested : {}", self.records)?;
        if let Some(cov) = self.coverage {
            writeln!(f, "coverage          : {:.1}%", cov * 100.0)?;
        }
        writeln!(f, "queries issued    : {}", self.queries)?;
        writeln!(f, "frontier size     : {}", self.frontier_size())?;
        writeln!(f, "local graph edges : {}", self.local_edges)?;
        if let Some(hr) = self.recent_harvest {
            writeln!(f, "recent harvest    : {:.2} of each page is new", hr)?;
        }
        writeln!(f, "per attribute     : (frontier / queried / dormant)")?;
        for a in &self.attrs {
            writeln!(f, "  {:<20} {} / {} / {}", a.attr, a.frontier, a.queried, a.undiscovered)?;
        }
        if !self.top_hubs.is_empty() {
            writeln!(f, "top hubs in G_local:")?;
            for (attr, value, d) in &self.top_hubs {
                writeln!(f, "  degree {d:>6}  {attr} = {value:?}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for FleetReport {
    /// One line per job — harvest, cost, stop reason — plus a scheduler
    /// summary and fault-tolerance tallies when anything noteworthy
    /// happened to the job.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} jobs, {} records, {} elapsed rounds",
            self.sources.len(),
            self.total_records(),
            self.total_rounds
        )?;
        if self.scheduler.slices_completed > 0 {
            writeln!(
                f,
                "  scheduler: {} workers, {} slices, {}/{} rounds executed/granted",
                self.scheduler.workers,
                self.scheduler.slices_completed,
                self.scheduler.rounds_executed,
                self.scheduler.rounds_granted
            )?;
        }
        for (tenant, usage) in &self.usage {
            writeln!(
                f,
                "  tenant {tenant}: {} rounds / {} pages / {} admitted / {} shed / {} \
                 retransmits / {} preemptions",
                usage.rounds,
                usage.pages,
                usage.admitted,
                usage.sheds,
                usage.retransmits,
                usage.preempted
            )?;
        }
        for (i, r) in self.sources.iter().enumerate() {
            write!(
                f,
                "  job {i}: {} records / {} rounds / stop {:?}",
                r.records,
                r.elapsed_rounds(),
                r.stop
            )?;
            if let Some(h) = self.health.get(i) {
                if h.breaker_trips > 0 || h.worker_restarts > 0 || h.abandoned {
                    write!(
                        f,
                        " [trips {}, recoveries {}, restarts {}{}]",
                        h.breaker_trips,
                        h.breaker_recoveries,
                        h.worker_restarts,
                        if h.abandoned { ", ABANDONED" } else { "" }
                    )?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use crate::{CrawlConfig, Crawler};
    use dwc_model::fixtures::figure1_table;
    use dwc_server::{InterfaceSpec, WebDbServer};

    fn summary_after(steps: usize) -> CrawlSummary {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        let server = WebDbServer::new(t, spec);
        let config = CrawlConfig { known_target_size: Some(5), ..Default::default() };
        let mut crawler = Crawler::new(&server, PolicyKind::GreedyLink.build(), config);
        crawler.add_seed("A", "a2");
        for _ in 0..steps {
            crawler.step();
        }
        CrawlSummary::from_state(crawler.state(), 3)
    }

    #[test]
    fn summary_reflects_progress() {
        let before = summary_after(0);
        assert_eq!(before.records, 0);
        assert_eq!(before.frontier_size(), 1, "only the seed");
        let after = summary_after(1);
        assert_eq!(after.records, 3, "a2 matches three records");
        assert_eq!(after.queries, 1);
        assert!(after.frontier_size() >= 3, "b2, c1, c2 discovered");
        assert_eq!(after.coverage, Some(0.6));
    }

    #[test]
    fn per_attribute_breakdown_sums() {
        let s = summary_after(2);
        let total: usize = s.attrs.iter().map(|a| a.frontier + a.queried + a.undiscovered).sum();
        assert!(total >= 5, "all interned values are classified");
        assert_eq!(s.attrs.len(), 3);
    }

    #[test]
    fn hubs_ranked_by_degree() {
        let s = summary_after(3);
        assert!(!s.top_hubs.is_empty());
        for w in s.top_hubs.windows(2) {
            assert!(w[0].2 >= w[1].2, "descending degree");
        }
    }

    #[test]
    fn display_renders_sections() {
        let s = summary_after(1);
        let text = s.to_string();
        assert!(text.contains("records harvested : 3"));
        assert!(text.contains("per attribute"));
        assert!(text.contains("top hubs"));
    }

    #[test]
    fn fleet_display_includes_health_when_noteworthy() {
        use crate::fault::{FaultPlan, FaultPlanSource};
        use crate::fleet::{run_fleet, FleetConfig, FleetJob};
        use crate::health::JobHealth;
        use std::sync::Arc;
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        let server = Arc::new(WebDbServer::new(t, spec));
        let jobs = vec![FleetJob {
            source: FaultPlanSource::new(server, FaultPlan::new()),
            policy: PolicyKind::GreedyLink,
            seeds: vec![("A".into(), "a2".into())],
            config: CrawlConfig::default(),
            resume: None,
            tenant: None,
        }];
        let mut report =
            run_fleet(jobs, FleetConfig::builder().total_rounds(100).slice(10).build().unwrap());
        let clean = report.to_string();
        assert!(clean.contains("fleet: 1 jobs"));
        assert!(!clean.contains("trips"), "healthy jobs stay terse");
        report.health[0] = JobHealth {
            breaker_trips: 2,
            breaker_recoveries: 1,
            worker_restarts: 1,
            abandoned: true,
        };
        let sick = report.to_string();
        assert!(sick.contains("trips 2, recoveries 1, restarts 1, ABANDONED"));
    }
}
