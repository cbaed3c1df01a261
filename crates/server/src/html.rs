//! HTML result-page rendering.
//!
//! Result pages "may be in the form of HTML Web pages or as XML documents"
//! (paper §1). This module renders a [`ResultPage`] the way a 2005-era
//! product site would: a summary line with the total match count, one
//! repeated `item` block per record (the "repeated patterns from multiple
//! template-generated result pages" that extraction work like Arasu &
//! Garcia-Molina exploits), and a next-page marker.
//!
//! ```html
//! <html><body>
//! <div id="summary">page 0 of results — 95 matches</div>
//! <div class="item" id="item-42">
//!   <span class="f" title="Actor">Hanks, Tom</span>
//! </div>
//! <a id="next" href="?page=1">more</a>
//! </body></html>
//! ```

use crate::server::ResultPage;
use crate::wire::push_escaped;
use dwc_model::{Schema, UniversalTable, ValueInterner};
use std::fmt::Write as _;

/// Renders a result page as a template-generated HTML document.
pub fn page_to_html(page: &ResultPage, table: &UniversalTable) -> String {
    let mut out = String::with_capacity(128 + page.records.len() * 160);
    page_to_html_parts(page, table.interner(), table.schema(), &mut out);
    out
}

/// Renders into a caller-provided buffer (appending) through an interner +
/// schema pair directly (see [`crate::wire::page_to_xml_parts`]), escaping
/// field names and values in place: the paged backend renders identical
/// bytes through this same function.
pub fn page_to_html_parts(
    page: &ResultPage,
    interner: &ValueInterner,
    schema: &Schema,
    out: &mut String,
) {
    out.push_str("<html><body>\n<div id=\"summary\">page ");
    let _ = write!(out, "{}", page.page_index);
    out.push_str(" of results");
    if let Some(total) = page.total_matches {
        let _ = write!(out, " — {total} matches");
    }
    out.push_str("</div>\n");
    for rec in &page.records {
        let _ = writeln!(out, "<div class=\"item\" id=\"item-{}\">", rec.key);
        for &v in &rec.values {
            let attr = interner.attr_of(v);
            let name = &schema.attr(attr).name;
            out.push_str("  <span class=\"f\" title=\"");
            push_escaped(out, name);
            out.push_str("\">");
            push_escaped(out, interner.value_str(v));
            out.push_str("</span>\n");
        }
        out.push_str("</div>\n");
    }
    if page.has_more {
        let _ = writeln!(out, "<a id=\"next\" href=\"?page={}\">more</a>", page.page_index + 1);
    }
    out.push_str("</body></html>\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::{InterfaceSpec, Query};
    use crate::server::WebDbServer;
    use dwc_model::fixtures::figure1_table;
    use dwc_model::AttrId;

    #[test]
    fn html_structure_and_counts() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 2);
        let s = WebDbServer::new(t, spec);
        let a2 = s.table().interner().get(AttrId(0), "a2").unwrap();
        let page = s.query_page(&Query::Value(a2), 0).unwrap();
        let html = page_to_html(&page, s.table());
        assert!(html.contains("page 0 of results — 3 matches"));
        assert_eq!(html.matches("<div class=\"item\"").count(), 2);
        assert!(html.contains("<span class=\"f\" title=\"A\">a2</span>"));
        assert!(html.contains("id=\"next\""), "page 0 of 2 has a next link");
        let page1 = s.query_page(&Query::Value(a2), 1).unwrap();
        let html1 = page_to_html(&page1, s.table());
        assert!(!html1.contains("id=\"next\""), "last page has no next link");
    }

    #[test]
    fn html_escapes_markup_in_values() {
        use dwc_model::{AttrSpec, Schema, UniversalTable};
        let schema = Schema::new(vec![AttrSpec::queriable("T")]);
        let mut t = UniversalTable::new(schema);
        t.push_record_strs([(AttrId(0), "<script>alert(1)</script>")]);
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        let s = WebDbServer::new(t, spec);
        let q = Query::ByString { attr: "T".into(), value: "<script>alert(1)</script>".into() };
        let page = s.query_page(&q, 0).unwrap();
        let html = page_to_html(&page, s.table());
        assert!(!html.contains("<script>"));
        assert!(html.contains("&lt;script&gt;"));
    }

    #[test]
    fn totals_omitted_when_not_reported() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 10).without_totals();
        let s = WebDbServer::new(t, spec);
        let a2 = s.table().interner().get(AttrId(0), "a2").unwrap();
        let page = s.query_page(&Query::Value(a2), 0).unwrap();
        let html = page_to_html(&page, s.table());
        assert!(!html.contains("matches"));
    }
}
