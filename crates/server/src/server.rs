//! The simulated web-database server.
//!
//! Answers single attribute-value and keyword queries with paginated result
//! pages, counting every page request as one communication round
//! (Definition 2.3). Result ordering is deterministic (record-id order), the
//! per-query result cap truncates deep pagination (Section 5.4), and the
//! total match count is reported when the interface says so (Section 3.4).

use crate::cache::{PageCache, RenderedPage};
use crate::error::ServerError;
use crate::interface::{InterfaceSpec, Query};
use dwc_model::{Schema, UniversalTable, ValueId, ValueInterner};
use dwc_store::{unpack, MemPager, SegmentTable, DEFAULT_PAGE_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A record as it appears in a result page: the source-assigned stable key
/// (like an Amazon ASIN) plus the record's attribute values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRecord {
    /// Stable source-assigned record key; identical across queries, so the
    /// crawler can deduplicate.
    pub key: u64,
    /// The record's attribute-value ids (sorted, unique).
    pub values: Vec<ValueId>,
}

/// One result page returned for `(query, page_index)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultPage {
    /// Zero-based index of this page.
    pub page_index: usize,
    /// Total number of matching records in the backend — reported only when
    /// the interface advertises totals. Note this is the *true* total, which
    /// may exceed what pagination will ever return under a result cap (the
    /// Yahoo!-Autos example of Section 5.4).
    pub total_matches: Option<usize>,
    /// The records on this page (at most `k`).
    pub records: Vec<PageRecord>,
    /// Whether further pages are accessible after this one.
    pub has_more: bool,
}

/// A structured web database behind a query interface.
///
/// Request accounting lives in an atomic, so a single server can be
/// probed concurrently through `&self` — share one instance between crawler
/// workers as `Arc<WebDbServer>` and every page request lands in the same
/// global round counter (Definition 2.3 bills the *source*, not the worker).
///
/// Records and postings are always served from a [`SegmentTable`]:
/// [`WebDbServer::new`] packs its table into in-memory segments, which are
/// read in place, and [`WebDbServer::paged`] serves a table the caller
/// packed, for instance into files behind a sized buffer pool. Pages,
/// billing and the page cache do not depend on where the segments live.
#[derive(Debug)]
pub struct WebDbServer {
    table: Arc<SegmentTable>,
    /// The records as a resident table, built on the first
    /// [`WebDbServer::table`] call.
    view: OnceLock<UniversalTable>,
    interface: InterfaceSpec,
    requests: AtomicU64,
    cache: PageCache,
}

impl Clone for WebDbServer {
    fn clone(&self) -> Self {
        WebDbServer {
            table: Arc::clone(&self.table),
            view: OnceLock::new(),
            interface: self.interface.clone(),
            requests: AtomicU64::new(self.rounds_used()),
            // A clone serves its own traffic: it starts with a cold cache.
            cache: self.cache.clone(),
        }
    }
}

impl WebDbServer {
    /// Builds a server over `table` with the given interface, packing the
    /// table into in-memory segments (it holds the records once, packed).
    pub fn new(table: UniversalTable, interface: InterfaceSpec) -> Self {
        let pager = Box::new(MemPager::new(DEFAULT_PAGE_SIZE));
        // Resident segments are read in place, so they need no pool.
        let table = SegmentTable::from_owned_table(table, pager, 0)
            .expect("packing into memory performs no I/O");
        Self::paged(Arc::new(table), interface)
    }

    /// Builds a server over a packed [`SegmentTable`], for instance one on
    /// files behind a sized buffer pool. Query semantics, billing, and
    /// rendered bytes are identical to [`WebDbServer::new`]'s.
    pub fn paged(table: Arc<SegmentTable>, interface: InterfaceSpec) -> Self {
        WebDbServer {
            table,
            view: OnceLock::new(),
            interface,
            requests: AtomicU64::new(0),
            cache: PageCache::default(),
        }
    }

    /// Sizes the rendered-page cache (`0` disables it).
    pub fn with_page_cache(mut self, capacity: usize) -> Self {
        self.cache = PageCache::new(capacity);
        self
    }

    /// The rendered-page cache (hit/miss statistics for harnesses).
    pub fn page_cache(&self) -> &PageCache {
        &self.cache
    }

    /// The records as a resident table (test/analysis access — a real
    /// crawler has no such view; experiment harnesses use it to compute
    /// true coverage). Built from the segments on the first call and kept;
    /// harness code that needs only counts should go through
    /// [`WebDbServer::interner`] / [`WebDbServer::schema`] /
    /// [`WebDbServer::oracle_match_count`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the segments cannot be read.
    pub fn table(&self) -> &UniversalTable {
        self.view.get_or_init(|| self.table.to_table().expect("segment store I/O"))
    }

    /// The segment table the server reads (always present; the `Option`
    /// is kept for callers written when servers could be resident).
    pub fn segment_table(&self) -> Option<&Arc<SegmentTable>> {
        Some(&self.table)
    }

    /// The value interner.
    pub fn interner(&self) -> &ValueInterner {
        self.table.interner()
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// The interface specification.
    pub fn interface(&self) -> &InterfaceSpec {
        &self.interface
    }

    /// Total page requests served so far — the crawl's communication cost.
    pub fn rounds_used(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Number of records that match `query` (oracle helper for tests and
    /// harnesses; not part of the crawler-visible interface).
    ///
    /// # Panics
    ///
    /// Panics if the segments cannot be read.
    pub fn oracle_match_count(&self, query: &Query) -> usize {
        match self.resolve(query) {
            Ok(resolved) => self.matches(resolved).expect("segment store I/O").len(),
            Err(_) => 0,
        }
    }

    /// Serves one result page. Every call — including failed ones — costs one
    /// communication round. Takes `&self`: concurrent callers each get their
    /// own request number from the shared atomic counter.
    pub fn query_page(&self, query: &Query, page_index: usize) -> Result<ResultPage, ServerError> {
        self.bill();
        self.compute_page(query, page_index)
    }

    /// Serves one page already rendered to the XML wire format, with its
    /// page facts, reusing the page cache: overlapping requests from fleet
    /// workers sharing this source skip the resolve + paginate + render work
    /// entirely, and a hit shares the cached buffer. The communication round
    /// is billed exactly as in [`WebDbServer::query_page`] — a cache hit is
    /// cheaper, not free.
    pub fn rendered_page(
        &self,
        query: &Query,
        page_index: usize,
    ) -> Result<RenderedPage, ServerError> {
        self.bill();
        if let Some(hit) = self.cache.get(query, page_index) {
            return Ok(hit);
        }
        let page = self.compute_page(query, page_index)?;
        let mut buf = String::with_capacity(128 + page.records.len() * 160);
        crate::wire::page_to_xml_parts(&page, self.interner(), self.schema(), &mut buf);
        let rendered = RenderedPage::new(Arc::from(buf), &page);
        self.cache.insert(query, page_index, &rendered);
        Ok(rendered)
    }

    /// Charges one communication round — the billable prefix shared by
    /// every page entry point.
    fn bill(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Resolves, paginates, and materializes one result page (no billing).
    /// Single-value queries — the crawl hot path — read only the postings
    /// their page covers; union and intersection queries materialize their
    /// match list first.
    fn compute_page(&self, query: &Query, page_index: usize) -> Result<ResultPage, ServerError> {
        let matches = self.matches(self.resolve(query)?)?;
        let total = matches.len();
        let accessible = self.interface.accessible(total);
        let k = self.interface.page_size;
        let start = (page_index * k).min(accessible);
        let end = ((page_index + 1) * k).min(accessible);
        let records = match &matches {
            Matches::Postings(v, _) => {
                self.page_records(unpack(&self.table.postings_slice(*v, start, end)?))?
            }
            Matches::Ids(all) => self.page_records(all[start..end].iter().copied())?,
        };
        Ok(ResultPage {
            page_index,
            total_matches: self.interface.reports_total.then_some(total),
            records,
            has_more: end < accessible,
        })
    }

    /// Reads the records of one page.
    fn page_records(
        &self,
        rids: impl ExactSizeIterator<Item = u32>,
    ) -> std::io::Result<Vec<PageRecord>> {
        let mut records = Vec::with_capacity(rids.len());
        for rid in rids {
            records
                .push(PageRecord { key: u64::from(rid), values: self.table.record_values(rid)? });
        }
        Ok(records)
    }

    /// The records matching a resolved query.
    fn matches(&self, resolved: Resolved) -> std::io::Result<Matches> {
        Ok(match resolved {
            Resolved::None => Matches::Ids(Vec::new()),
            Resolved::Single(v) => Matches::Postings(v, self.table.match_count(v)?),
            Resolved::Many(vs) => Matches::Ids(self.table.union(&vs)?),
            Resolved::All(vs) => Matches::Ids(self.table.intersect(&vs)?),
        })
    }

    fn resolve(&self, query: &Query) -> Result<Resolved, ServerError> {
        match query {
            Query::Value(v) => {
                self.check_arity(1)?;
                if v.index() >= self.table.num_distinct_values() {
                    return Ok(Resolved::None);
                }
                let attr = self.interner().attr_of(*v);
                if !self.interface.is_queriable(attr) {
                    return Err(ServerError::NotQueriable {
                        attr: self.schema().attr(attr).name.clone(),
                    });
                }
                Ok(Resolved::Single(*v))
            }
            Query::ByString { attr, value } => {
                self.check_arity(1)?;
                Ok(match self.resolve_pair(attr, value)? {
                    Some(v) => Resolved::Single(v),
                    None => Resolved::None,
                })
            }
            Query::Conjunctive(pairs) => {
                self.check_arity(pairs.len())?;
                let mut values = Vec::with_capacity(pairs.len());
                for (attr, value) in pairs {
                    match self.resolve_pair(attr, value)? {
                        Some(v) => values.push(v),
                        // One unmatched predicate empties the conjunction.
                        None => return Ok(Resolved::None),
                    }
                }
                Ok(match values.len() {
                    0 => Resolved::None,
                    1 => Resolved::Single(values[0]),
                    _ => Resolved::All(values),
                })
            }
            Query::Keyword(s) => {
                if !self.interface.keyword_search {
                    return Err(ServerError::KeywordUnsupported);
                }
                let vs = self.interner().get_keyword(s);
                Ok(match vs.len() {
                    0 => Resolved::None,
                    1 => Resolved::Single(vs[0]),
                    _ => Resolved::Many(vs),
                })
            }
        }
    }
}

impl WebDbServer {
    /// Structured queries must carry at least the form's required number of
    /// predicates.
    fn check_arity(&self, got: usize) -> Result<(), ServerError> {
        let required = self.interface.min_query_attrs;
        if got < required {
            return Err(ServerError::TooFewPredicates { required, got });
        }
        Ok(())
    }

    /// Resolves one `(attribute name, value string)` predicate, enforcing
    /// queriability. `Ok(None)` means the value simply does not occur.
    fn resolve_pair(&self, attr: &str, value: &str) -> Result<Option<ValueId>, ServerError> {
        let attr_id = self
            .schema()
            .attr_by_name(attr)
            .ok_or_else(|| ServerError::UnknownAttribute { attr: attr.to_owned() })?;
        if !self.interface.is_queriable(attr_id) {
            return Err(ServerError::NotQueriable { attr: attr.to_owned() });
        }
        Ok(self.interner().get(attr_id, value))
    }
}

enum Resolved {
    None,
    Single(ValueId),
    Many(Vec<ValueId>),
    All(Vec<ValueId>),
}

/// The records matching a query: a single value's postings stay in the
/// table (a page reads only its slice of them); unions and intersections
/// are materialized.
enum Matches {
    Postings(ValueId, usize),
    Ids(Vec<u32>),
}

impl Matches {
    fn len(&self) -> usize {
        match self {
            Matches::Postings(_, n) => *n,
            Matches::Ids(ids) => ids.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwc_model::fixtures::figure1_table;
    use dwc_model::AttrId;

    fn figure1_server(page_size: usize) -> WebDbServer {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), page_size);
        WebDbServer::new(t, spec)
    }

    fn val(s: &WebDbServer, attr: u16, v: &str) -> ValueId {
        s.table().interner().get(AttrId(attr), v).unwrap()
    }

    #[test]
    fn example_2_1_crawl_steps() {
        // Example 2.1 of the paper: query a2 first and see records 1,2,3.
        let s = figure1_server(10);
        let a2 = val(&s, 0, "a2");
        let page = s.query_page(&Query::Value(a2), 0).unwrap();
        assert_eq!(page.total_matches, Some(3));
        assert_eq!(page.records.len(), 3);
        assert!(!page.has_more);
        assert_eq!(s.rounds_used(), 1);
    }

    #[test]
    fn pagination_partitions_results() {
        let s = figure1_server(2);
        let c2 = val(&s, 2, "c2");
        let p0 = s.query_page(&Query::Value(c2), 0).unwrap();
        assert_eq!(p0.records.len(), 2);
        assert!(p0.has_more);
        let p1 = s.query_page(&Query::Value(c2), 1).unwrap();
        assert_eq!(p1.records.len(), 1);
        assert!(!p1.has_more);
        // No key appears twice across pages.
        let mut keys: Vec<u64> = p0.records.iter().chain(&p1.records).map(|r| r.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 3);
        assert_eq!(s.rounds_used(), 2);
    }

    #[test]
    fn result_cap_truncates_pagination_but_not_total() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 1).with_result_cap(2);
        let s = WebDbServer::new(t, spec);
        let c2 = val(&s, 2, "c2");
        let p0 = s.query_page(&Query::Value(c2), 0).unwrap();
        assert_eq!(p0.total_matches, Some(3), "true total still reported");
        assert!(p0.has_more);
        let p1 = s.query_page(&Query::Value(c2), 1).unwrap();
        assert!(!p1.has_more, "cap of 2 reached");
        let p2 = s.query_page(&Query::Value(c2), 2).unwrap();
        assert!(p2.records.is_empty(), "beyond the cap nothing is accessible");
    }

    #[test]
    fn totals_hidden_when_interface_says_so() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 10).without_totals();
        let s = WebDbServer::new(t, spec);
        let a2 = val(&s, 0, "a2");
        let page = s.query_page(&Query::Value(a2), 0).unwrap();
        assert_eq!(page.total_matches, None);
    }

    #[test]
    fn by_string_query_resolves() {
        let s = figure1_server(10);
        let q = Query::ByString { attr: "A".into(), value: "a2".into() };
        let page = s.query_page(&q, 0).unwrap();
        assert_eq!(page.records.len(), 3);
    }

    #[test]
    fn by_string_no_match_is_empty_not_error() {
        let s = figure1_server(10);
        let q = Query::ByString { attr: "A".into(), value: "zz".into() };
        let page = s.query_page(&q, 0).unwrap();
        assert!(page.records.is_empty());
        assert_eq!(page.total_matches, Some(0));
        assert!(!page.has_more);
    }

    #[test]
    fn unknown_attribute_is_error() {
        let s = figure1_server(10);
        let q = Query::ByString { attr: "Nope".into(), value: "x".into() };
        assert_eq!(s.query_page(&q, 0), Err(ServerError::UnknownAttribute { attr: "Nope".into() }));
        assert_eq!(s.rounds_used(), 1, "a failed request still costs a round");
    }

    #[test]
    fn non_queriable_attribute_is_rejected() {
        let t = figure1_table();
        let mut spec = InterfaceSpec::permissive(t.schema(), 10);
        spec.queriable_attrs.retain(|&a| a != AttrId(0));
        let s = WebDbServer::new(t, spec);
        let a2 = val(&s, 0, "a2");
        assert!(matches!(
            s.query_page(&Query::Value(a2), 0),
            Err(ServerError::NotQueriable { .. })
        ));
    }

    #[test]
    fn keyword_query_works_and_can_be_disabled() {
        let s = figure1_server(10);
        let page = s.query_page(&Query::Keyword("a2".into()), 0).unwrap();
        assert_eq!(page.records.len(), 3);
        let t = figure1_table();
        let mut spec = InterfaceSpec::permissive(t.schema(), 10);
        spec.keyword_search = false;
        let s2 = WebDbServer::new(t, spec);
        assert_eq!(
            s2.query_page(&Query::Keyword("a2".into()), 0),
            Err(ServerError::KeywordUnsupported)
        );
    }

    #[test]
    fn unknown_value_id_yields_empty() {
        let s = figure1_server(10);
        let page = s.query_page(&Query::Value(ValueId(9999)), 0).unwrap();
        assert!(page.records.is_empty());
        assert_eq!(page.total_matches, Some(0));
    }

    #[test]
    fn conjunctive_query_intersects() {
        let s = figure1_server(10);
        // a2 ∧ c2 matches records 2 and 3 only.
        let q = Query::Conjunctive(vec![("A".into(), "a2".into()), ("C".into(), "c2".into())]);
        let page = s.query_page(&q, 0).unwrap();
        assert_eq!(page.total_matches, Some(2));
        let keys: Vec<u64> = page.records.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![2, 3]);
    }

    #[test]
    fn conjunctive_with_unmatched_predicate_is_empty() {
        let s = figure1_server(10);
        let q = Query::Conjunctive(vec![
            ("A".into(), "a2".into()),
            ("C".into(), "does-not-exist".into()),
        ]);
        let page = s.query_page(&q, 0).unwrap();
        assert_eq!(page.total_matches, Some(0));
        assert!(page.records.is_empty());
    }

    #[test]
    fn restrictive_form_rejects_single_predicates() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 10).requiring_attrs(2);
        assert!(!spec.keyword_search, "restrictive forms drop the keyword box");
        let s = WebDbServer::new(t, spec);
        let single = Query::ByString { attr: "A".into(), value: "a2".into() };
        assert_eq!(
            s.query_page(&single, 0),
            Err(ServerError::TooFewPredicates { required: 2, got: 1 })
        );
        let pair = Query::Conjunctive(vec![("A".into(), "a2".into()), ("B".into(), "b2".into())]);
        let page = s.query_page(&pair, 0).unwrap();
        assert_eq!(page.total_matches, Some(2), "a2 ∧ b2 matches records 1 and 2");
    }

    #[test]
    fn conjunctive_of_three_predicates() {
        let s = figure1_server(10);
        let q = Query::Conjunctive(vec![
            ("A".into(), "a2".into()),
            ("B".into(), "b2".into()),
            ("C".into(), "c1".into()),
        ]);
        let page = s.query_page(&q, 0).unwrap();
        assert_eq!(page.total_matches, Some(1));
        assert_eq!(page.records[0].key, 1);
    }

    #[test]
    fn oracle_match_count_agrees_with_pages() {
        let s = figure1_server(2);
        let c2 = val(&s, 2, "c2");
        let q = Query::Value(c2);
        assert_eq!(s.oracle_match_count(&q), 3);
        let p0 = s.query_page(&q, 0).unwrap();
        assert_eq!(p0.total_matches, Some(3));
    }

    #[test]
    fn rendered_pages_are_cached_but_still_billed() {
        let s = figure1_server(10);
        let a2 = val(&s, 0, "a2");
        let q = Query::Value(a2);
        let r1 = s.rendered_page(&q, 0).unwrap();
        assert!(!r1.cache_hit(), "first render is a miss");
        let r2 = s.rendered_page(&q, 0).unwrap();
        assert!(r2.cache_hit(), "identical request is served from cache");
        assert_eq!(r1.text(), r2.text());
        assert_eq!(s.rounds_used(), 2, "a cache hit is cheaper, not free");
        assert_eq!(s.page_cache().hits(), 1);
        // The cached XML matches a fresh render of the same page, and the
        // facts kept beside it match the page's.
        let page = s.query_page(&q, 0).unwrap();
        assert_eq!(r1.text(), crate::wire::page_to_xml(&page, s.table()));
        for r in [&r1, &r2] {
            assert_eq!(r.total_matches(), page.total_matches);
            assert_eq!(r.has_more(), page.has_more);
            assert_eq!(r.records(), page.records.len());
        }
    }

    /// A fresh directory under the temp dir for one test's segment files.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dwc-server-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A server over `t` packed into files behind a one-frame pool, smaller
    /// than its segments: every read goes through the pool and most miss.
    fn file_server(t: &UniversalTable, spec: InterfaceSpec, dir: &std::path::Path) -> WebDbServer {
        use dwc_store::FilePager;
        let st = SegmentTable::from_table(t, Box::new(FilePager::open(dir, 64).unwrap()), 64);
        let st = st.unwrap();
        assert!(st.storage_bytes() > 64, "the pool must not hold every segment");
        WebDbServer::paged(Arc::new(st), spec)
    }

    #[test]
    fn paged_backend_serves_identical_pages() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 2).with_result_cap(4);
        let dir = scratch_dir("parity");
        let paged = file_server(&t, spec.clone(), &dir);
        let resident = WebDbServer::new(t, spec);
        let queries = vec![
            Query::ByString { attr: "A".into(), value: "a2".into() },
            Query::ByString { attr: "C".into(), value: "c2".into() },
            Query::ByString { attr: "A".into(), value: "missing".into() },
            Query::Keyword("a2".into()),
            Query::Conjunctive(vec![("A".into(), "a2".into()), ("C".into(), "c2".into())]),
            Query::Value(ValueId(9999)),
        ];
        for q in &queries {
            assert_eq!(
                resident.oracle_match_count(q),
                paged.oracle_match_count(q),
                "oracle for {q:?}"
            );
            for page in 0..3 {
                assert_eq!(
                    resident.query_page(q, page),
                    paged.query_page(q, page),
                    "structured page {page} of {q:?}"
                );
                let r = resident.rendered_page(q, page).unwrap();
                let p = paged.rendered_page(q, page).unwrap();
                assert_eq!(r.text(), p.text(), "rendered page {page} of {q:?}");
            }
        }
        // Error paths route through the same interface checks.
        let bad = Query::ByString { attr: "Nope".into(), value: "x".into() };
        assert_eq!(resident.query_page(&bad, 0), paged.query_page(&bad, 0));
        let read_in_place = resident.segment_table().unwrap().pool_stats();
        assert_eq!(read_in_place.misses + read_in_place.hits, 0, "no pool on resident segments");
        assert!(paged.segment_table().unwrap().pool_stats().misses > 0, "the small pool misses");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_view_of_a_file_paged_server_equals_the_source() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 2);
        let dir = scratch_dir("view");
        let paged = file_server(&t, spec.clone(), &dir);
        let view = paged.table();
        assert_eq!(view.iter().collect::<Vec<_>>(), t.iter().collect::<Vec<_>>());
        assert_eq!(view.schema().len(), t.schema().len());
        for v in t.interner().iter_ids() {
            assert_eq!(view.interner().value_str(v), t.interner().value_str(v));
        }
        assert!(std::ptr::eq(view, paged.table()), "the view is built once");
        let resident = WebDbServer::new(t.clone(), spec);
        assert_eq!(resident.table().iter().collect::<Vec<_>>(), t.iter().collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_segments_fail_requests_instead_of_panicking() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 2);
        let dir = scratch_dir("truncated");
        let paged = file_server(&t, spec, &dir);
        for entry in std::fs::read_dir(&dir).unwrap() {
            let file = std::fs::OpenOptions::new().write(true).open(entry.unwrap().path());
            file.unwrap().set_len(0).unwrap();
        }
        let q = Query::ByString { attr: "A".into(), value: "a2".into() };
        assert!(matches!(paged.query_page(&q, 0), Err(ServerError::Storage { .. })));
        assert!(matches!(paged.rendered_page(&q, 0), Err(ServerError::Storage { .. })));
        assert_eq!(paged.rounds_used(), 2, "a failed request still costs a round");
        // Interface errors are still reported as such.
        let bad = Query::ByString { attr: "Nope".into(), value: "x".into() };
        assert!(matches!(paged.query_page(&bad, 0), Err(ServerError::UnknownAttribute { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
