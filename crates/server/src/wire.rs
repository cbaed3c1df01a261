//! XML wire format for result pages.
//!
//! The paper crawls Amazon through its Web Service, whose "returned query
//! results are in the format of XML documents, which eliminates the possible
//! accuracy problems of extracting structured records from Web pages"
//! (Section 5). This module renders a [`ResultPage`] the way such a service
//! would; the crawler's result extractor (`dwc-core::extract`) parses it back.
//!
//! Format:
//!
//! ```xml
//! <results page="0" more="true" total="95">
//!   <record key="42">
//!     <field attr="Actor">Hanks, Tom</field>
//!   </record>
//! </results>
//! ```
//!
//! Only the five XML-mandated character escapes are applied; the format is
//! deliberately minimal but round-trip exact.

use crate::server::ResultPage;
use dwc_model::{Schema, UniversalTable, ValueInterner};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Escapes text content / attribute values.
pub fn escape_xml(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Appends `s` to `out` with the five XML-mandated escapes applied — the
/// allocation-free building block behind [`escape_xml`], both renderers and
/// the serving tier's frame encoder. Clean runs between escapable bytes are
/// copied whole; the five are ASCII, so every run ends on a char boundary.
pub fn push_escaped(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&apos;",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        out.push_str(entity);
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// Unescapes the five XML entities; unknown entities are left verbatim.
pub fn unescape_xml(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let mapped =
            [("&amp;", '&'), ("&lt;", '<'), ("&gt;", '>'), ("&quot;", '"'), ("&apos;", '\'')]
                .iter()
                .find(|(ent, _)| rest.starts_with(ent));
        match mapped {
            Some((ent, ch)) => {
                out.push(*ch);
                rest = &rest[ent.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// Borrowing flavor of [`unescape_xml`]: returns the input slice untouched
/// when it contains no `&` (the overwhelmingly common case on the wire hot
/// path) and only allocates when an entity actually needs resolving.
pub fn unescape_xml_cow(s: &str) -> Cow<'_, str> {
    if s.contains('&') {
        Cow::Owned(unescape_xml(s))
    } else {
        Cow::Borrowed(s)
    }
}

/// Serializes a result page to the XML wire format, resolving value ids to
/// attribute names and value strings through the server's table.
pub fn page_to_xml(page: &ResultPage, table: &UniversalTable) -> String {
    let mut out = String::with_capacity(64 + page.records.len() * 128);
    page_to_xml_parts(page, table.interner(), table.schema(), &mut out);
    out
}

/// Renders into a caller-provided buffer (appending) through an interner +
/// schema pair directly — rendering only ever needs those two, so backends
/// without a resident `UniversalTable` (the paged segment store) share this
/// exact code path and produce identical bytes.
pub fn page_to_xml_parts(
    page: &ResultPage,
    interner: &ValueInterner,
    schema: &Schema,
    out: &mut String,
) {
    out.push_str("<results page=\"");
    let _ = write!(out, "{}", page.page_index);
    out.push_str("\" more=\"");
    out.push_str(if page.has_more { "true" } else { "false" });
    out.push('"');
    if let Some(total) = page.total_matches {
        let _ = write!(out, " total=\"{total}\"");
    }
    out.push_str(">\n");
    for rec in &page.records {
        let _ = writeln!(out, "  <record key=\"{}\">", rec.key);
        for &v in &rec.values {
            let attr = interner.attr_of(v);
            let name = &schema.attr(attr).name;
            out.push_str("    <field attr=\"");
            push_escaped(out, name);
            out.push_str("\">");
            push_escaped(out, interner.value_str(v));
            out.push_str("</field>\n");
        }
        out.push_str("  </record>\n");
    }
    out.push_str("</results>\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::{InterfaceSpec, Query};
    use crate::server::WebDbServer;
    use dwc_model::fixtures::figure1_table;
    use dwc_model::AttrId;
    use proptest::prelude::*;

    #[test]
    fn escape_roundtrip() {
        let nasty = r#"Tom & Jerry <"quoted"> 'n stuff"#;
        assert_eq!(unescape_xml(&escape_xml(nasty)), nasty);
    }

    /// One `char` at a time: the escaping `push_escaped` must reproduce.
    fn escape_by_char(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' => out.push_str("&quot;"),
                '\'' => out.push_str("&apos;"),
                _ => out.push(c),
            }
        }
        out
    }

    #[test]
    fn run_copy_escaping_matches_the_char_oracle_on_edge_cases() {
        for s in ["", "&", "clean", "&&", "<>\"'&", "a&b", "é&⟩<𝄞>", "&amp;", "tail&", "&head"]
        {
            let mut out = String::from("prefix:");
            push_escaped(&mut out, s);
            assert_eq!(out, format!("prefix:{}", escape_by_char(s)), "on {s:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Run-copy escaping agrees with the per-char oracle on strings
        /// mixing all five escapable characters with multi-byte UTF-8.
        #[test]
        fn run_copy_escaping_matches_the_char_oracle(s in ".{0,24}") {
            prop_assert_eq!(escape_xml(&s), escape_by_char(&s));
        }
    }

    #[test]
    fn unescape_leaves_unknown_entities() {
        assert_eq!(unescape_xml("a&nbsp;b"), "a&nbsp;b");
        assert_eq!(unescape_xml("trailing &"), "trailing &");
    }

    #[test]
    fn cow_unescape_borrows_when_no_entity_is_present() {
        assert!(matches!(unescape_xml_cow("Hanks, Tom"), Cow::Borrowed(_)));
        assert!(matches!(unescape_xml_cow(""), Cow::Borrowed(_)));
        let owned = unescape_xml_cow("a&amp;b");
        assert!(matches!(owned, Cow::Owned(_)));
        assert_eq!(owned, "a&b");
        // Unknown entities still force the owned path but stay verbatim.
        assert_eq!(unescape_xml_cow("a&nbsp;b"), "a&nbsp;b");
    }

    #[test]
    fn page_serialization_contains_fields() {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        let s = WebDbServer::new(t, spec);
        let a2 = s.table().interner().get(AttrId(0), "a2").unwrap();
        let page = s.query_page(&Query::Value(a2), 0).unwrap();
        let xml = page_to_xml(&page, s.table());
        assert!(xml.starts_with("<results page=\"0\" more=\"false\" total=\"3\">"));
        assert_eq!(xml.matches("<record key=").count(), 3);
        assert!(xml.contains("<field attr=\"A\">a2</field>"));
        assert!(xml.contains("<field attr=\"C\">c1</field>"));
    }

    #[test]
    fn special_characters_are_escaped_in_output() {
        use dwc_model::{AttrSpec, Schema, UniversalTable};
        let schema = Schema::new(vec![AttrSpec::queriable("T&C")]);
        let mut t = UniversalTable::new(schema);
        t.push_record_strs([(AttrId(0), "a<b>\"c\"")]);
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        let s = WebDbServer::new(t, spec);
        let q = Query::ByString { attr: "T&C".into(), value: "a<b>\"c\"".into() };
        let page = s.query_page(&q, 0).unwrap();
        let xml = page_to_xml(&page, s.table());
        assert!(xml.contains("attr=\"T&amp;C\""));
        assert!(xml.contains(">a&lt;b&gt;&quot;c&quot;</field>"));
        assert!(!xml.contains(">a<b>"));
    }
}
