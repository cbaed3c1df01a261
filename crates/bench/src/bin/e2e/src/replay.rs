//! Replay of a traced pass's request log through each layer's public
//! function, one layer at a time, on a replica of the workload's server.
//!
//! Live decorators see layers only where the program crosses a public
//! seam. Inside one `respond` the server resolves and paginates, renders
//! XML, and the extractor parses it back; replay times those steps
//! separately: `query_page` (lookup and postings slice), `page_to_xml_parts`
//! (render), `parse_page_ref` (extract), `page_ref_to_wire` (a service
//! worker's re-encode), and `oracle_match_count` once per conjunctive query
//! (the postings intersection).

use dwc_core::extract::{page_ref_to_wire, parse_page_ref, ExtractedPageRef};
use dwc_server::wire::page_to_xml_parts;
use dwc_server::{Query, WebDbServer};
use std::hint::black_box;
use std::time::Instant;

/// Totals over one replayed log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayTotals {
    /// Pages replayed.
    pub pages: u64,
    /// Records on those pages.
    pub records: u64,
    /// Time in `WebDbServer::query_page`.
    pub page_ns: u64,
    /// Time rendering pages to XML.
    pub render_ns: u64,
    /// Bytes of rendered XML.
    pub render_bytes: u64,
    /// Time parsing the XML back.
    pub parse_ns: u64,
    /// Time re-encoding the parsed page to a wire frame.
    pub encode_ns: u64,
    /// Bytes of re-encoded wire frames.
    pub encode_bytes: u64,
    /// Conjunctive queries (first pages of conjunctive requests).
    pub conj_queries: u64,
    /// Time in `oracle_match_count` for those queries.
    pub intersect_ns: u64,
}

impl ReplayTotals {
    /// Multiplies every time by `factor` (the host scale, [`crate::host`]).
    pub fn scale(&mut self, factor: f64) {
        for t in [
            &mut self.page_ns,
            &mut self.render_ns,
            &mut self.parse_ns,
            &mut self.encode_ns,
            &mut self.intersect_ns,
        ] {
            *t = (*t as f64 * factor) as u64;
        }
    }
}

/// Replays `log` against `replica`, handing every parsed page to `tap`.
///
/// # Panics
/// Panics if a logged request fails or a rendered page does not parse: the
/// log came from a crawl that saw every page succeed.
pub fn replay(
    replica: &WebDbServer,
    log: &[(Query, usize)],
    mut tap: impl FnMut(&ExtractedPageRef<'_>),
) -> ReplayTotals {
    let mut t = ReplayTotals::default();
    let mut xml = String::new();
    for (query, page_index) in log {
        let start = Instant::now();
        let page = replica.query_page(query, *page_index).expect("replayed request succeeds");
        t.page_ns += start.elapsed().as_nanos() as u64;

        xml.clear();
        let start = Instant::now();
        page_to_xml_parts(&page, replica.interner(), replica.schema(), &mut xml);
        t.render_ns += start.elapsed().as_nanos() as u64;
        t.render_bytes += xml.len() as u64;

        let start = Instant::now();
        let view = parse_page_ref(&xml).expect("rendered page parses");
        t.parse_ns += start.elapsed().as_nanos() as u64;

        let start = Instant::now();
        let wire = black_box(page_ref_to_wire(&view));
        t.encode_ns += start.elapsed().as_nanos() as u64;
        t.encode_bytes += wire.len() as u64;

        t.pages += 1;
        t.records += view.records.len() as u64;
        tap(&view);

        if *page_index == 0 && matches!(query, Query::Conjunctive(_)) {
            let start = Instant::now();
            black_box(replica.oracle_match_count(query));
            t.intersect_ns += start.elapsed().as_nanos() as u64;
            t.conj_queries += 1;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Level, SourceProbe, Timed};
    use crate::workload::pick_seeds;
    use dwc_core::extract::ExtractedPage;
    use dwc_core::policy::PolicyKind;
    use dwc_core::{CrawlConfig, CrawlError, Crawler, DataSource, SourceRequest, SourceResponse};
    use dwc_datagen::presets::Preset;
    use dwc_model::fixtures::figure1_table;
    use dwc_model::UniversalTable;
    use dwc_server::InterfaceSpec;
    use std::cell::RefCell;
    use std::sync::Arc;

    /// Records every page the crawler is handed.
    struct Tap<S> {
        inner: S,
        seen: RefCell<Vec<ExtractedPage>>,
    }

    impl<S: DataSource> DataSource for Tap<S> {
        fn respond(
            &self,
            request: &SourceRequest<'_>,
            visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
        ) -> Result<SourceResponse, CrawlError> {
            self.inner.respond(request, &mut |page| {
                self.seen.borrow_mut().push(page.to_owned_page());
                visit(page);
            })
        }

        fn interface(&self) -> &InterfaceSpec {
            self.inner.interface()
        }

        fn rounds_used(&self) -> u64 {
            self.inner.rounds_used()
        }
    }

    fn seen_and_replayed(table: UniversalTable, seeds: &[(String, String)]) {
        let spec = InterfaceSpec::permissive(table.schema(), 10);
        let server = WebDbServer::new(table, spec);
        let probe = SourceProbe::new(Level::Trace);
        let tap = Tap { inner: &server, seen: RefCell::new(Vec::new()) };
        let timed = Timed::new(&tap, Arc::clone(&probe));
        let n = server.table().num_records();
        let config = CrawlConfig::builder().known_target_size(n).target_coverage(0.9).build();
        let mut crawler = Crawler::new(&timed, PolicyKind::GreedyLink.build(), config.unwrap());
        for (a, v) in seeds {
            assert!(crawler.add_seed(a, v));
        }
        let report = crawler.run();
        let log = probe.take_log();
        assert_eq!(log.len() as u64, report.rounds);

        let mut replayed = Vec::new();
        let totals = replay(&server.clone(), &log, |page| replayed.push(page.to_owned_page()));
        assert_eq!(totals.pages, report.rounds);
        assert_eq!(replayed, tap.seen.into_inner(), "replay extracts what the crawl saw");
    }

    #[test]
    fn replay_yields_the_pages_the_crawl_saw_on_figure1() {
        seen_and_replayed(figure1_table(), &[("A".into(), "a2".into())]);
    }

    #[test]
    fn replay_yields_the_pages_the_crawl_saw_on_a_fig3_seed() {
        let table = Preset::Dblp.table(0.05, 1);
        let seeds = pick_seeds(&table, 2, 1_001);
        seen_and_replayed(table, &seeds);
    }

    #[test]
    fn replay_times_intersections_once_per_conjunctive_query() {
        let table = figure1_table();
        let spec = InterfaceSpec::permissive(table.schema(), 1);
        let server = WebDbServer::new(table, spec);
        let q = Query::Conjunctive(vec![("A".into(), "a2".into()), ("C".into(), "c2".into())]);
        let log = vec![(q.clone(), 0), (q, 1)];
        let totals = replay(&server, &log, |_| {});
        assert_eq!((totals.pages, totals.records, totals.conj_queries), (2, 2, 1));
        assert!(totals.render_bytes > 0 && totals.encode_bytes > 0);
    }
}
