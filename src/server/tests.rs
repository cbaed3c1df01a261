//! The server behind the crawler's source-side fault schedule. These tests
//! need both the server and `dwc-core`'s `FaultPlanSource`, and the server
//! crate cannot depend on the crawler, so they live in the facade.

use super::{InterfaceSpec, Query, WebDbServer};
use dwc_core::extract::ExtractedPage;
use dwc_core::source::SourceResponse;
use dwc_core::{CrawlError, DataSource, FaultPlan, FaultPlanSource, ProberMode, SourceRequest};
use dwc_model::fixtures::figure1_table;

fn faulty_server(plan: FaultPlan) -> FaultPlanSource<WebDbServer> {
    let t = figure1_table();
    let spec = InterfaceSpec::permissive(t.schema(), 10);
    FaultPlanSource::new(WebDbServer::new(t, spec), plan)
}

fn a2() -> Query {
    Query::ByString { attr: "A".into(), value: "a2".into() }
}

fn request(
    s: &FaultPlanSource<WebDbServer>,
    prober: ProberMode,
) -> Result<(SourceResponse, ExtractedPage), CrawlError> {
    let q = a2();
    let mut owned = None;
    let resp = s.respond(&SourceRequest::new(&q, 0, prober), &mut |view| {
        owned = Some(view.to_owned_page())
    })?;
    Ok((resp, owned.expect("respond visits exactly once on success")))
}

#[test]
fn fault_injection_costs_rounds_and_recovers() {
    let s = faulty_server(FaultPlan::every(2));
    let (_, clean) = request(&s, ProberMode::InProcess).expect("request 1 is served");
    assert_eq!(request(&s, ProberMode::InProcess).unwrap_err(), CrawlError::Transient);
    let (_, retried) = request(&s, ProberMode::InProcess).expect("request 3: the retry succeeds");
    assert_eq!(retried, clean);
    assert_eq!(s.inner().rounds_used(), 2, "the server billed the requests it served");
    assert_eq!(DataSource::rounds_used(&s), 3, "the fault still cost a round");
}

#[test]
fn fault_injection_applies_before_the_cache() {
    let s = faulty_server(FaultPlan::every(2));
    let (first, _) = request(&s, ProberMode::Wire).unwrap();
    assert!(!first.meta.served_from_cache, "request 1 renders the page");
    // Request 2 faults although its page is cached: it reaches neither the
    // server nor its cache.
    assert_eq!(request(&s, ProberMode::Wire).unwrap_err(), CrawlError::Transient);
    assert_eq!(s.inner().rounds_used(), 1, "the fault never reached the server");
    assert_eq!((s.inner().page_cache().hits(), s.inner().page_cache().misses()), (0, 1));
    let (retry, _) = request(&s, ProberMode::Wire).unwrap();
    assert!(retry.meta.served_from_cache, "the retry reuses the cached render");
    assert_eq!(s.inner().page_cache().hits(), 1);
    assert_eq!(s.tally().transient, 1);
    assert_eq!(DataSource::rounds_used(&s), 3, "2 served + 1 injected");
}
