//! The crawler-side boundary to a data source.
//!
//! A crawler sees a hidden-web source only through its query interface:
//! queries go out, paginated result pages come back, and every page request
//! — successful or not — costs one communication round (Definition 2.3).
//! [`DataSource`] captures exactly that contract, so [`crate::Crawler`] can
//! drive an in-process [`WebDbServer`], a fault-injecting decorator
//! ([`crate::fault::FaultPlanSource`]), or a protocol-backed connection
//! ([`crate::serve::Connection`]) interchangeably.
//!
//! The boundary is a request/response seam: the crawler submits a
//! [`SourceRequest`] envelope (query, page index, prober mode, and an
//! optional deadline — the one piece of service-level intent) and receives
//! a [`SourceResponse`] (page facts). The single entry point is
//! [`DataSource::respond`]. A service's own observations — queue depth,
//! latency — travel on its event stream
//! ([`crate::serve::ServiceReport`]), not on each response.
//!
//! Results cross the boundary in *extracted* form
//! ([`crate::extract::ExtractedPageRef`]: attribute names + value strings) —
//! the crawler never touches server-side id spaces or backing tables. How a
//! page is materialized (direct translation or an XML wire round-trip) is
//! the source's business, selected per request by [`ProberMode`].
//!
//! Sharing: `DataSource` takes `&self`, and blanket impls cover `&S` and
//! `Arc<S>`. N crawler workers can therefore target one server —
//! `Arc<WebDbServer>` clones hand every worker the same atomic round
//! counter, so the source is billed globally no matter who asks.

use crate::extract::{parse_page_ref, ExtractedPageRef, ExtractedRecordRef};
use dwc_server::{InterfaceSpec, Query, ServerError, WebDbServer};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// How the Database Prober materializes result pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProberMode {
    /// Read the in-process result page directly (fast path for large
    /// simulations; identical observable content).
    #[default]
    InProcess,
    /// Serialize each page to the XML wire format and re-parse it with the
    /// Result Extractor — the full pipeline the paper's crawler runs against
    /// Amazon's Web Service.
    Wire,
}

/// Why a page request failed, from the crawler's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrawlError {
    /// A transient condition (throttling, timeout, 5xx). Retrying the same
    /// request may succeed; the failed round is still billed.
    Transient,
    /// The request stalled — a response that never arrived in time. The
    /// failed round is billed like any other, and the wait itself costs
    /// `wasted_rounds` additional simulated rounds (Definition 2.3 bills
    /// time, not just served pages). Retrying may succeed.
    Stalled {
        /// Extra elapsed rounds the caller must bill for the wait.
        wasted_rounds: u64,
    },
    /// A result page arrived but was truncated or otherwise garbled and the
    /// Result Extractor rejected it. Retrying may return an intact page.
    CorruptPage,
    /// The serving tier refused the request at admission — its bounded queue
    /// was full and the load was shed. The round is billed (the request
    /// reached the service), and retrying after backoff may be admitted:
    /// this is the client half of the backpressure loop.
    Rejected,
    /// The request was cancelled before execution: its deadline expired
    /// while queued, or the service was gone. The round is billed when the
    /// request reached the service; a retry with a fresh deadline may
    /// succeed.
    Cancelled,
    /// A definitive interface rejection — retrying the identical request
    /// cannot succeed.
    Fatal(ServerError),
}

impl CrawlError {
    /// Whether a retry of the same request can possibly succeed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            CrawlError::Transient
                | CrawlError::Stalled { .. }
                | CrawlError::CorruptPage
                | CrawlError::Rejected
                | CrawlError::Cancelled
        )
    }
}

impl From<ServerError> for CrawlError {
    fn from(e: ServerError) -> Self {
        CrawlError::Fatal(e)
    }
}

impl std::fmt::Display for CrawlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrawlError::Transient => write!(f, "transient source failure"),
            CrawlError::Stalled { wasted_rounds } => {
                write!(f, "request stalled ({wasted_rounds} rounds wasted waiting)")
            }
            CrawlError::CorruptPage => write!(f, "corrupt result page rejected by extractor"),
            CrawlError::Rejected => write!(f, "request shed at admission (service queue full)"),
            CrawlError::Cancelled => write!(f, "request cancelled (deadline or service gone)"),
            CrawlError::Fatal(e) => write!(f, "fatal source error: {e}"),
        }
    }
}

impl std::error::Error for CrawlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CrawlError::Fatal(e) => Some(e),
            _ => None,
        }
    }
}

/// One page request, as an explicit envelope.
///
/// The crawl semantics (`query`, `page_index`, `prober`) say *what* to
/// fetch; the `deadline` says *how long the caller is willing to wait*.
/// In-process sources answer immediately and ignore it — which is exactly
/// what keeps single-worker crawls bit-for-bit reproducible — while the
/// serving tier ([`crate::serve`]) enforces it against its queue.
#[derive(Debug, Clone, Copy)]
pub struct SourceRequest<'a> {
    /// The query to execute.
    pub query: &'a Query,
    /// Zero-based result page requested.
    pub page_index: usize,
    /// How the result page is materialized.
    pub prober: ProberMode,
    /// Absolute point after which the caller no longer wants the response.
    /// A queued request past its deadline is cancelled (and billed).
    pub deadline: Option<Instant>,
}

impl<'a> SourceRequest<'a> {
    /// An envelope with no deadline.
    pub fn new(query: &'a Query, page_index: usize, prober: ProberMode) -> Self {
        SourceRequest { query, page_index, prober, deadline: None }
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Page-level facts a successful [`DataSource::respond`] call reports
/// alongside the borrowed records it hands to the visitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMeta {
    /// Zero-based page index served.
    pub page_index: usize,
    /// Total match count, when the source reports it.
    pub total_matches: Option<usize>,
    /// Whether more pages follow.
    pub has_more: bool,
    /// Whether the source served this page from a render cache (the round is
    /// billed either way — Definition 2.3 counts requests, not CPU).
    pub served_from_cache: bool,
}

/// The response envelope paired with [`SourceRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceResponse {
    /// Page-level facts (the records themselves went to the visitor).
    pub meta: PageMeta,
}

/// A queryable structured web source, as a crawler sees it.
///
/// All methods take `&self`: implementations do their own (atomic) request
/// accounting so one source instance can serve concurrent crawlers.
pub trait DataSource {
    /// Executes one [`SourceRequest`]. On success the page is handed to
    /// `visit` as a borrowed [`ExtractedPageRef`] (fields are `Cow` slices
    /// into the source's wire buffer — the zero-copy hot path) and the
    /// envelope-level facts come back as a [`SourceResponse`]. `visit` runs
    /// at most once, and only on success — errors propagate before any
    /// visitation, so decorators inherit correct behavior by wrapping this
    /// one method.
    ///
    /// Every call costs one communication round, including failed, shed,
    /// and cancelled ones (Definition 2.3 counts requests, not outcomes).
    fn respond(
        &self,
        request: &SourceRequest<'_>,
        visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
    ) -> Result<SourceResponse, CrawlError>;

    /// The source's advertised interface: form fields, queriability, page
    /// size, caps. Everything a crawler knows about the source up front.
    fn interface(&self) -> &InterfaceSpec;

    /// Total communication rounds billed to this source so far.
    fn rounds_used(&self) -> u64;
}

impl<S: DataSource + ?Sized> DataSource for &S {
    fn respond(
        &self,
        request: &SourceRequest<'_>,
        visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
    ) -> Result<SourceResponse, CrawlError> {
        (**self).respond(request, visit)
    }

    fn interface(&self) -> &InterfaceSpec {
        (**self).interface()
    }

    fn rounds_used(&self) -> u64 {
        (**self).rounds_used()
    }
}

impl<S: DataSource + ?Sized> DataSource for Arc<S> {
    fn respond(
        &self,
        request: &SourceRequest<'_>,
        visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
    ) -> Result<SourceResponse, CrawlError> {
        (**self).respond(request, visit)
    }

    fn interface(&self) -> &InterfaceSpec {
        (**self).interface()
    }

    fn rounds_used(&self) -> u64 {
        (**self).rounds_used()
    }
}

impl DataSource for WebDbServer {
    /// The allocation-free in-process path. `InProcess` builds the borrowed
    /// view straight off the server's interner (no render, no parse, no
    /// string copies); `Wire` goes through [`WebDbServer::rendered_page`], so
    /// overlapping fleet workers reuse cached renders and the zero-copy
    /// parser slices the shared buffer in place. The request's deadline is
    /// ignored: an in-process call returns before it could matter, which
    /// keeps single-worker crawls deterministic.
    fn respond(
        &self,
        request: &SourceRequest<'_>,
        visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
    ) -> Result<SourceResponse, CrawlError> {
        let (query, page_index) = (request.query, request.page_index);
        match request.prober {
            ProberMode::InProcess => {
                let page = WebDbServer::query_page(self, query, page_index)?;
                let (interner, schema) = (self.interner(), self.schema());
                let view = ExtractedPageRef {
                    page_index: page.page_index,
                    total_matches: page.total_matches,
                    has_more: page.has_more,
                    records: page
                        .records
                        .iter()
                        .map(|r| ExtractedRecordRef {
                            key: r.key,
                            fields: r
                                .values
                                .iter()
                                .map(|&sv| {
                                    let attr = interner.attr_of(sv);
                                    (
                                        Cow::Borrowed(schema.attr(attr).name.as_str()),
                                        Cow::Borrowed(interner.value_str(sv)),
                                    )
                                })
                                .collect(),
                        })
                        .collect(),
                };
                let meta = PageMeta {
                    page_index: page.page_index,
                    total_matches: page.total_matches,
                    has_more: page.has_more,
                    served_from_cache: false,
                };
                visit(&view);
                Ok(SourceResponse { meta })
            }
            ProberMode::Wire => {
                let rendered = self.rendered_page(query, page_index)?;
                let view = parse_page_ref(rendered.text()).expect("wire format must round-trip");
                let meta = PageMeta {
                    page_index: view.page_index,
                    total_matches: view.total_matches,
                    has_more: view.has_more,
                    served_from_cache: rendered.cache_hit(),
                };
                visit(&view);
                Ok(SourceResponse { meta })
            }
        }
    }

    fn interface(&self) -> &InterfaceSpec {
        WebDbServer::interface(self)
    }

    fn rounds_used(&self) -> u64 {
        WebDbServer::rounds_used(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::ExtractedPage;
    use crate::fault::{FaultPlan, FaultPlanSource};
    use dwc_model::fixtures::figure1_table;

    fn server() -> WebDbServer {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        WebDbServer::new(t, spec)
    }

    fn a2_query() -> Query {
        Query::ByString { attr: "A".into(), value: "a2".into() }
    }

    /// Fetches one page as an owned value through the envelope path.
    fn fetch<S: DataSource>(
        s: &S,
        query: &Query,
        page: usize,
        prober: ProberMode,
    ) -> Result<ExtractedPage, CrawlError> {
        let mut owned = None;
        s.respond(&SourceRequest::new(query, page, prober), &mut |view| {
            owned = Some(view.to_owned_page());
        })?;
        Ok(owned.expect("respond visits exactly once on success"))
    }

    #[test]
    fn all_prober_modes_extract_identical_content() {
        let s = server();
        let base = fetch(&s, &a2_query(), 0, ProberMode::InProcess).unwrap();
        assert_eq!(base.records.len(), 3);
        assert_eq!(base, fetch(&s, &a2_query(), 0, ProberMode::Wire).unwrap());
        assert_eq!(DataSource::rounds_used(&s), 2);
    }

    #[test]
    fn fatal_and_transient_errors_are_distinguished() {
        let s = FaultPlanSource::new(server(), FaultPlan::every(2));
        let bad = Query::ByString { attr: "Nope".into(), value: "x".into() };
        let err = fetch(&s, &bad, 0, ProberMode::InProcess).unwrap_err();
        assert!(!err.is_transient());
        assert!(matches!(err, CrawlError::Fatal(ServerError::UnknownAttribute { .. })));
        let err = fetch(&s, &a2_query(), 0, ProberMode::InProcess).unwrap_err();
        assert!(err.is_transient(), "request 2 hits the fault schedule");
    }

    #[test]
    fn faulty_source_injects_on_respond() {
        // Every second request faults before it reaches the server, in
        // every prober mode, and a faulted request never runs the visitor.
        let s = FaultPlanSource::new(server(), FaultPlan::every(2));
        let q = a2_query();
        for prober in [ProberMode::InProcess, ProberMode::Wire] {
            assert_eq!(fetch(&s, &q, 0, prober).unwrap().records.len(), 3, "{prober:?}");
            let mut visited = false;
            let err =
                s.respond(&SourceRequest::new(&q, 0, prober), &mut |_| visited = true).unwrap_err();
            assert_eq!(err, CrawlError::Transient, "{prober:?}");
            assert!(!visited, "{prober:?}: an injected fault must not invoke the visitor");
        }
        assert_eq!(s.requests_seen(), 4);
        assert_eq!(s.tally().transient, 2);
    }

    #[test]
    fn faulty_source_bills_injected_rounds() {
        // Each injected fault costs the wrapper exactly one round (a stall's
        // waiting is reported in its error, not billed) and never reaches
        // the server.
        let s = FaultPlanSource::new(server(), FaultPlan::every(2).stall_at(4, 5));
        assert!(fetch(&s, &a2_query(), 0, ProberMode::InProcess).is_ok());
        assert_eq!(fetch(&s, &a2_query(), 0, ProberMode::InProcess), Err(CrawlError::Transient));
        assert!(fetch(&s, &a2_query(), 0, ProberMode::InProcess).is_ok());
        assert_eq!(
            fetch(&s, &a2_query(), 0, ProberMode::InProcess),
            Err(CrawlError::Stalled { wasted_rounds: 5 })
        );
        assert!(fetch(&s, &a2_query(), 0, ProberMode::InProcess).is_ok());
        assert_eq!(s.inner().rounds_used(), 3, "the faults never reached the server");
        assert_eq!(DataSource::rounds_used(&s), 5, "3 served + 2 injected");
    }

    #[test]
    fn service_taxonomy_is_transient_class() {
        assert!(CrawlError::Rejected.is_transient(), "shed load retries after backoff");
        assert!(CrawlError::Cancelled.is_transient(), "a fresh deadline may succeed");
    }

    #[test]
    fn blanket_impls_share_the_billing() {
        let s = Arc::new(server());
        let a = Arc::clone(&s);
        fetch(&a, &a2_query(), 0, ProberMode::InProcess).unwrap();
        fetch(&&*s, &a2_query(), 0, ProberMode::InProcess).unwrap();
        assert_eq!(DataSource::rounds_used(&s), 2, "one counter behind every handle");
    }

    /// Materializes a page and its metadata through the envelope path.
    fn visit_owned<S: DataSource>(
        s: &S,
        query: &Query,
        page: usize,
        prober: ProberMode,
    ) -> Result<(PageMeta, ExtractedPage), CrawlError> {
        let mut owned = None;
        let resp = s.respond(&SourceRequest::new(query, page, prober), &mut |view| {
            owned = Some(view.to_owned_page())
        })?;
        Ok((resp.meta, owned.expect("visit runs on success")))
    }

    #[test]
    fn visit_page_matches_query_page_in_every_prober_mode() {
        let s = server();
        let base = fetch(&s, &a2_query(), 0, ProberMode::InProcess).unwrap();
        for prober in [ProberMode::InProcess, ProberMode::Wire] {
            let (meta, owned) = visit_owned(&s, &a2_query(), 0, prober).unwrap();
            assert_eq!(owned, base, "{prober:?}");
            assert_eq!(meta.page_index, 0);
            assert_eq!(meta.total_matches, base.total_matches);
            assert_eq!(meta.has_more, base.has_more);
        }
        assert_eq!(DataSource::rounds_used(&s), 3, "every visit bills a round");
    }

    #[test]
    fn in_process_respond_ignores_deadline_and_token() {
        // The envelope may carry a deadline, but an in-process source
        // answers immediately — determinism requires it never consults it.
        let s = server();
        let q = a2_query();
        let req = SourceRequest::new(&q, 0, ProberMode::InProcess)
            .with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        let mut visited = false;
        let resp = s.respond(&req, &mut |_| visited = true).unwrap();
        assert!(visited);
        assert_eq!(resp.meta.page_index, 0);
    }

    #[test]
    fn repeated_wire_visits_hit_the_page_cache() {
        let s = Arc::new(server());
        let (first, _) = visit_owned(&s, &a2_query(), 0, ProberMode::Wire).unwrap();
        assert!(!first.served_from_cache);
        let (second, owned) = visit_owned(&s, &a2_query(), 0, ProberMode::Wire).unwrap();
        assert!(second.served_from_cache, "same (query, page) reuses the render");
        assert_eq!(owned, fetch(&s, &a2_query(), 0, ProberMode::InProcess).unwrap());
        assert_eq!(s.page_cache().hits(), 1);
    }

    #[test]
    fn respond_propagates_errors_without_visiting() {
        let s = server();
        let bad = Query::ByString { attr: "Nope".into(), value: "x".into() };
        let mut visited = false;
        let err = s
            .respond(&SourceRequest::new(&bad, 0, ProberMode::Wire), &mut |_| visited = true)
            .unwrap_err();
        assert!(matches!(err, CrawlError::Fatal(_)));
        assert!(!visited, "errors must not invoke the visitor");
    }
}
