//! The simulated web-database server.
//!
//! Answers single attribute-value and keyword queries with paginated result
//! pages, counting every page request as one communication round
//! (Definition 2.3). Result ordering is deterministic (record-id order), the
//! per-query result cap truncates deep pagination (Section 5.4), and the
//! total match count is reported when the interface says so (Section 3.4).

use crate::cache::{PageCache, RenderedPage};
use crate::error::ServerError;
use crate::index::InvertedIndex;
use crate::interface::{InterfaceSpec, Query};
use dwc_model::{RecordId, Schema, UniversalTable, ValueId, ValueInterner};
use dwc_store::SegmentTable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Where a server's records and postings live.
///
/// `Resident` is the original fully in-RAM backend (a `UniversalTable` plus
/// a sealed [`InvertedIndex`]); `Paged` serves the same query semantics from
/// a [`SegmentTable`], whose record and postings columns live in fixed-size
/// pages behind a sized buffer pool. Because both backends intern values in
/// record-insertion order and keep postings sorted by ascending record id,
/// every page — and therefore every crawl report — is bit-identical between
/// them.
#[derive(Debug, Clone)]
enum Backend {
    Resident { table: UniversalTable, index: InvertedIndex },
    Paged(Arc<SegmentTable>),
}

impl Backend {
    fn interner(&self) -> &ValueInterner {
        match self {
            Backend::Resident { table, .. } => table.interner(),
            Backend::Paged(st) => st.interner(),
        }
    }

    fn schema(&self) -> &Schema {
        match self {
            Backend::Resident { table, .. } => table.schema(),
            Backend::Paged(st) => st.schema(),
        }
    }

    fn num_distinct_values(&self) -> usize {
        match self {
            Backend::Resident { table, .. } => table.num_distinct_values(),
            Backend::Paged(st) => st.num_distinct_values(),
        }
    }
}

/// An in-memory structured web database behind a query interface.
///
/// Request accounting lives in an atomic, so a single server can be
/// probed concurrently through `&self` — share one instance between crawler
/// workers as `Arc<WebDbServer>` and every page request lands in the same
/// global round counter (Definition 2.3 bills the *source*, not the worker).
///
/// Records and postings are either fully resident ([`WebDbServer::new`])
/// or served from paged segments ([`WebDbServer::paged`]). The interface, billing, and page cache are
/// backend-independent.
#[derive(Debug)]
pub struct WebDbServer {
    backend: Backend,
    interface: InterfaceSpec,
    requests: AtomicU64,
    cache: PageCache,
}

impl Clone for WebDbServer {
    fn clone(&self) -> Self {
        WebDbServer {
            backend: self.backend.clone(),
            interface: self.interface.clone(),
            requests: AtomicU64::new(self.rounds_used()),
            // A clone serves its own traffic: it starts with a cold cache.
            cache: self.cache.clone(),
        }
    }
}

impl WebDbServer {
    /// Builds a server over `table` with the given interface.
    pub fn new(table: UniversalTable, interface: InterfaceSpec) -> Self {
        let index = InvertedIndex::build(&table);
        WebDbServer {
            backend: Backend::Resident { table, index },
            interface,
            requests: AtomicU64::new(0),
            cache: PageCache::default(),
        }
    }

    /// Builds a server whose records and postings are served out-of-core
    /// from a [`SegmentTable`]. Query semantics, billing, and rendered bytes
    /// are identical to the resident backend.
    pub fn paged(table: Arc<SegmentTable>, interface: InterfaceSpec) -> Self {
        WebDbServer {
            backend: Backend::Paged(table),
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

    /// The backing table (test/analysis access — a real crawler has no such
    /// view; experiment harnesses use it to compute true coverage).
    ///
    /// # Panics
    ///
    /// Panics on a paged backend, which has no resident `UniversalTable`;
    /// harness code that supports both backends should go through
    /// [`WebDbServer::interner`] / [`WebDbServer::schema`] /
    /// [`WebDbServer::oracle_match_count`] instead.
    pub fn table(&self) -> &UniversalTable {
        match &self.backend {
            Backend::Resident { table, .. } => table,
            Backend::Paged(_) => {
                panic!("WebDbServer::table() requires the resident backend")
            }
        }
    }

    /// The paged segment table, when this server uses the paged backend.
    pub fn segment_table(&self) -> Option<&Arc<SegmentTable>> {
        match &self.backend {
            Backend::Resident { .. } => None,
            Backend::Paged(st) => Some(st),
        }
    }

    /// The value interner (backend-independent: both backends keep it
    /// resident).
    pub fn interner(&self) -> &ValueInterner {
        self.backend.interner()
    }

    /// The schema (backend-independent).
    pub fn schema(&self) -> &Schema {
        self.backend.schema()
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
    pub fn oracle_match_count(&self, query: &Query) -> usize {
        let resolved = match self.resolve(query) {
            Ok(r) => r,
            Err(_) => return 0,
        };
        match (&self.backend, resolved) {
            (_, Resolved::None) => 0,
            (Backend::Resident { index, .. }, Resolved::Single(v)) => index.match_count(v),
            (Backend::Resident { index, .. }, Resolved::Many(vs)) => index.union(&vs).len(),
            (Backend::Resident { index, .. }, Resolved::All(vs)) => index.intersect(&vs).len(),
            (Backend::Paged(st), Resolved::Single(v)) => st.match_count(v),
            (Backend::Paged(st), Resolved::Many(vs)) => st.union(&vs).len(),
            (Backend::Paged(st), Resolved::All(vs)) => st.intersect(&vs).len(),
        }
    }

    /// Serves one result page. Every call — including failed ones — costs one
    /// communication round. Takes `&self`: concurrent callers each get their
    /// own request number from the shared atomic counter.
    pub fn query_page(&self, query: &Query, page_index: usize) -> Result<ResultPage, ServerError> {
        self.bill();
        self.compute_page(query, page_index)
    }

    /// Serves one page already rendered to the XML wire format, reusing the
    /// page cache: overlapping requests from fleet workers sharing this
    /// source skip the resolve + paginate + render work entirely. The
    /// communication round is billed exactly as in
    /// [`WebDbServer::query_page`] — a cache hit is cheaper, not free.
    pub fn rendered_page(
        &self,
        query: &Query,
        page_index: usize,
    ) -> Result<RenderedPage, ServerError> {
        self.bill();
        if let Some(text) = self.cache.get(query, page_index) {
            return Ok(RenderedPage::new(text, true));
        }
        let page = self.compute_page(query, page_index)?;
        let mut buf = String::with_capacity(128 + page.records.len() * 160);
        let (interner, schema) = (self.backend.interner(), self.backend.schema());
        crate::wire::page_to_xml_parts(&page, interner, schema, &mut buf);
        let text: Arc<str> = Arc::from(buf);
        self.cache.insert(query, page_index, Arc::clone(&text));
        Ok(RenderedPage::new(text, false))
    }

    /// Charges one communication round — the billable prefix shared by
    /// every page entry point.
    fn bill(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Resolves, paginates, and materializes one result page (no billing).
    fn compute_page(&self, query: &Query, page_index: usize) -> Result<ResultPage, ServerError> {
        let resolved = self.resolve(query)?;
        match &self.backend {
            Backend::Resident { table, index } => {
                self.compute_page_resident(table, index, resolved, page_index)
            }
            Backend::Paged(st) => Ok(self.compute_page_paged(st, resolved, page_index)),
        }
    }

    fn compute_page_resident(
        &self,
        table: &UniversalTable,
        index: &InvertedIndex,
        resolved: Resolved,
        page_index: usize,
    ) -> Result<ResultPage, ServerError> {
        let matches: MatchList<'_> = match resolved {
            Resolved::None => MatchList::Empty,
            Resolved::Single(v) => MatchList::Postings(index.postings(v)),
            Resolved::Many(vs) => MatchList::Owned(index.union(&vs)),
            Resolved::All(vs) => MatchList::Owned(index.intersect(&vs)),
        };
        let total = matches.len();
        let accessible = self.interface.accessible(total);
        let k = self.interface.page_size;
        let start = (page_index * k).min(accessible);
        let end = ((page_index + 1) * k).min(accessible);
        let records = matches
            .slice(start, end)
            .map(|rid| PageRecord {
                key: u64::from(rid.0),
                values: table.record(rid).values().to_vec(),
            })
            .collect();
        Ok(ResultPage {
            page_index,
            total_matches: self.interface.reports_total.then_some(total),
            records,
            has_more: end < accessible,
        })
    }

    /// The paged twin of [`WebDbServer::compute_page_resident`]. Single-value
    /// queries — the crawl hot path — read only the postings pages their
    /// slice covers ([`SegmentTable::postings_slice_into`]); union and
    /// intersection queries materialize their match list first, exactly as
    /// the resident backend does.
    fn compute_page_paged(
        &self,
        st: &SegmentTable,
        resolved: Resolved,
        page_index: usize,
    ) -> ResultPage {
        enum Paged {
            Lazy(ValueId, usize),
            Owned(Vec<u32>),
        }
        let list = match resolved {
            Resolved::None => Paged::Owned(Vec::new()),
            Resolved::Single(v) => Paged::Lazy(v, st.match_count(v)),
            Resolved::Many(vs) => Paged::Owned(st.union(&vs)),
            Resolved::All(vs) => Paged::Owned(st.intersect(&vs)),
        };
        let total = match &list {
            Paged::Lazy(_, t) => *t,
            Paged::Owned(rids) => rids.len(),
        };
        let accessible = self.interface.accessible(total);
        let k = self.interface.page_size;
        let start = (page_index * k).min(accessible);
        let end = ((page_index + 1) * k).min(accessible);
        let mut rids = Vec::with_capacity(end - start);
        match &list {
            Paged::Lazy(v, _) => st.postings_slice_into(*v, start, end, &mut rids),
            Paged::Owned(all) => rids.extend_from_slice(&all[start..end]),
        }
        let records = rids
            .into_iter()
            .map(|rid| PageRecord { key: u64::from(rid), values: st.record_values(rid) })
            .collect();
        ResultPage {
            page_index,
            total_matches: self.interface.reports_total.then_some(total),
            records,
            has_more: end < accessible,
        }
    }

    fn resolve(&self, query: &Query) -> Result<Resolved, ServerError> {
        match query {
            Query::Value(v) => {
                self.check_arity(1)?;
                if v.index() >= self.backend.num_distinct_values() {
                    return Ok(Resolved::None);
                }
                let attr = self.backend.interner().attr_of(*v);
                if !self.interface.is_queriable(attr) {
                    return Err(ServerError::NotQueriable {
                        attr: self.backend.schema().attr(attr).name.clone(),
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
                let vs = self.backend.interner().get_keyword(s);
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
            .backend
            .schema()
            .attr_by_name(attr)
            .ok_or_else(|| ServerError::UnknownAttribute { attr: attr.to_owned() })?;
        if !self.interface.is_queriable(attr_id) {
            return Err(ServerError::NotQueriable { attr: attr.to_owned() });
        }
        Ok(self.backend.interner().get(attr_id, value))
    }
}

enum Resolved {
    None,
    Single(ValueId),
    Many(Vec<ValueId>),
    All(Vec<ValueId>),
}

enum MatchList<'a> {
    Empty,
    Postings(&'a [u32]),
    Owned(Vec<RecordId>),
}

impl MatchList<'_> {
    fn len(&self) -> usize {
        match self {
            MatchList::Empty => 0,
            MatchList::Postings(p) => p.len(),
            MatchList::Owned(v) => v.len(),
        }
    }

    fn slice(&self, start: usize, end: usize) -> Box<dyn Iterator<Item = RecordId> + '_> {
        match self {
            MatchList::Empty => Box::new(std::iter::empty()),
            MatchList::Postings(p) => Box::new(p[start..end].iter().map(|&r| RecordId(r))),
            MatchList::Owned(v) => Box::new(v[start..end].iter().copied()),
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
        // The cached XML matches a fresh render of the same page.
        let page = s.query_page(&q, 0).unwrap();
        assert_eq!(r1.text(), crate::wire::page_to_xml(&page, s.table()));
    }

    #[test]
    fn paged_backend_serves_identical_pages() {
        use dwc_store::MemPager;
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 2).with_result_cap(4);
        let st = SegmentTable::from_table(&t, Box::new(MemPager::new(128)), 4096).unwrap();
        let resident = WebDbServer::new(t, spec.clone());
        let paged = WebDbServer::paged(Arc::new(st), spec);
        assert!(paged.segment_table().is_some());
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
    }

    #[test]
    #[should_panic(expected = "resident backend")]
    fn table_accessor_panics_on_paged_backend() {
        use dwc_store::MemPager;
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 2);
        let st = SegmentTable::from_table(&t, Box::new(MemPager::new(128)), 4096).unwrap();
        let paged = WebDbServer::paged(Arc::new(st), spec);
        let _ = paged.table();
    }
}
