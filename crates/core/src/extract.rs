//! The Result Extractor: parses XML result pages back into records.
//!
//! The paper's crawler architecture (§2.5) has a Result Extractor that
//! "extracts data records from the result pages and feeds them into
//! DB_local". Amazon's Web Service returns XML (§5), which this module
//! parses. The parsers are small hand-rolled scanners for the wire format of
//! `dwc-server::wire` and the HTML of `dwc-server::html` — no XML
//! dependency, strict enough to reject malformed pages, round-trip exact with
//! the serializers, and zero-copy: fields borrow from the page buffer.

use dwc_server::wire::{push_escaped, unescape_xml, unescape_xml_cow};
use std::borrow::Cow;

/// A record extracted from a result page: source key + field strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedRecord {
    /// The source-assigned stable record key.
    pub key: u64,
    /// `(attribute name, value string)` pairs.
    pub fields: Vec<(String, String)>,
}

/// A parsed result page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedPage {
    /// Zero-based page index.
    pub page_index: usize,
    /// Total match count, when the source reports it.
    pub total_matches: Option<usize>,
    /// Whether more pages follow.
    pub has_more: bool,
    /// The extracted records.
    pub records: Vec<ExtractedRecord>,
}

/// A record borrowed out of a wire buffer: fields are `Cow` slices into the
/// document, owning heap memory only where an escaped entity had to be
/// resolved. The zero-copy counterpart of [`ExtractedRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedRecordRef<'a> {
    /// The source-assigned stable record key.
    pub key: u64,
    /// `(attribute name, value string)` pairs borrowed from the buffer.
    pub fields: Vec<(Cow<'a, str>, Cow<'a, str>)>,
}

impl ExtractedRecordRef<'_> {
    /// Materializes an owned [`ExtractedRecord`] (checkpoint/serde paths).
    pub fn to_owned_record(&self) -> ExtractedRecord {
        ExtractedRecord {
            key: self.key,
            fields: self
                .fields
                .iter()
                .map(|(a, v)| (a.clone().into_owned(), v.clone().into_owned()))
                .collect(),
        }
    }
}

/// A parsed result page borrowing from the wire buffer — the hot-path view
/// produced by [`parse_page_ref`] / [`parse_html_page_ref`] and handed to
/// `DataSource::respond` visitors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedPageRef<'a> {
    /// Zero-based page index.
    pub page_index: usize,
    /// Total match count, when the source reports it.
    pub total_matches: Option<usize>,
    /// Whether more pages follow.
    pub has_more: bool,
    /// The extracted records, borrowing from the buffer.
    pub records: Vec<ExtractedRecordRef<'a>>,
}

impl ExtractedPageRef<'_> {
    /// Materializes an owned [`ExtractedPage`].
    pub fn to_owned_page(&self) -> ExtractedPage {
        ExtractedPage {
            page_index: self.page_index,
            total_matches: self.total_matches,
            has_more: self.has_more,
            records: self.records.iter().map(ExtractedRecordRef::to_owned_record).collect(),
        }
    }

    /// A borrowed view over an owned page, so tests can feed owned fixtures
    /// to the frame encoder and to zero-copy visitors.
    #[cfg(test)]
    pub(crate) fn borrowed(page: &ExtractedPage) -> ExtractedPageRef<'_> {
        ExtractedPageRef {
            page_index: page.page_index,
            total_matches: page.total_matches,
            has_more: page.has_more,
            records: page
                .records
                .iter()
                .map(|rec| ExtractedRecordRef {
                    key: rec.key,
                    fields: rec
                        .fields
                        .iter()
                        .map(|(a, v)| (Cow::Borrowed(a.as_str()), Cow::Borrowed(v.as_str())))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// The document does not start with a `<results>` element.
    MissingResultsElement,
    /// A required attribute is missing or unparseable.
    BadAttribute(&'static str),
    /// A `<record>` or `<field>` element is malformed.
    MalformedElement(&'static str),
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::MissingResultsElement => write!(f, "missing <results> element"),
            ExtractError::BadAttribute(a) => write!(f, "bad or missing attribute {a:?}"),
            ExtractError::MalformedElement(e) => write!(f, "malformed element {e:?}"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// Parses a template-generated HTML result page (the `dwc-server::html`
/// wrapper): a `#summary` line carrying the page index and optional total, a
/// repeated `div.item` block per record with `span.f` fields, and an `#next`
/// marker on non-final pages. Field names and values are `Cow` slices into
/// `html`, allocating only where an entity needs unescaping.
///
/// This is the "structured data extraction from template-generated result
/// pages" step the paper's §6 cites as the orthogonal companion problem; the
/// wrapper here is known rather than induced, but the crawler-side pipeline
/// (HTML → records) is exercised end-to-end.
pub fn parse_html_page_ref(html: &str) -> Result<ExtractedPageRef<'_>, ExtractError> {
    let summary_start =
        html.find("<div id=\"summary\">").ok_or(ExtractError::MissingResultsElement)?
            + "<div id=\"summary\">".len();
    let summary_end =
        html[summary_start..].find("</div>").ok_or(ExtractError::MissingResultsElement)?
            + summary_start;
    let summary = &html[summary_start..summary_end];
    let page_index: usize = summary
        .strip_prefix("page ")
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .ok_or(ExtractError::BadAttribute("page"))?;
    let total_matches = match summary.find("— ") {
        Some(pos) => Some(
            summary[pos + "— ".len()..]
                .split(' ')
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(ExtractError::BadAttribute("total"))?,
        ),
        None => None,
    };
    let has_more = html.contains("<a id=\"next\"");
    let mut records = Vec::new();
    let mut rest = &html[summary_end..];
    while let Some(item_start) = rest.find("<div class=\"item\" id=\"item-") {
        let key_start = item_start + "<div class=\"item\" id=\"item-".len();
        let key_end =
            rest[key_start..].find('"').ok_or(ExtractError::MalformedElement("item"))? + key_start;
        let key: u64 =
            rest[key_start..key_end].parse().map_err(|_| ExtractError::BadAttribute("key"))?;
        let body_start =
            rest[key_end..].find('>').ok_or(ExtractError::MalformedElement("item"))? + key_end + 1;
        let body_end =
            rest[body_start..].find("</div>").ok_or(ExtractError::MalformedElement("item"))?
                + body_start;
        let mut fields = Vec::new();
        let mut item_body = &rest[body_start..body_end];
        while let Some(f_start) = item_body.find("<span class=\"f\" title=\"") {
            let attr_start = f_start + "<span class=\"f\" title=\"".len();
            let attr_end =
                item_body[attr_start..].find('"').ok_or(ExtractError::MalformedElement("field"))?
                    + attr_start;
            let val_start =
                item_body[attr_end..].find('>').ok_or(ExtractError::MalformedElement("field"))?
                    + attr_end
                    + 1;
            let val_end = item_body[val_start..]
                .find("</span>")
                .ok_or(ExtractError::MalformedElement("field"))?
                + val_start;
            fields.push((
                unescape_xml_cow(&item_body[attr_start..attr_end]),
                unescape_xml_cow(&item_body[val_start..val_end]),
            ));
            item_body = &item_body[val_end + "</span>".len()..];
        }
        records.push(ExtractedRecordRef { key, fields });
        rest = &rest[body_end + "</div>".len()..];
    }
    Ok(ExtractedPageRef { page_index, total_matches, has_more, records })
}

/// Reads the value of `name="..."` inside an element's attribute area.
/// `needle` must be the literal `name=\"` prefix — passing it pre-built keeps
/// this allocation-free on the per-field hot path.
fn attr_value<'a>(tag: &'a str, needle: &str) -> Option<&'a str> {
    let start = tag.find(needle)? + needle.len();
    let end = tag[start..].find('"')? + start;
    Some(&tag[start..end])
}

/// The offset of the first `byte` in `s`. A plain byte scan: the gaps
/// between wire tags and the names and values inside them are a few bytes
/// long, where a `str::find` call's setup costs more than the scan.
fn byte_at(s: &str, byte: u8) -> Option<usize> {
    s.bytes().position(|b| b == byte)
}

/// Splits `s` at its first `stop` byte, which must be ASCII so the split
/// lands on a char boundary. One pass both finds the end of a name or value
/// and sees whether it holds an `&` entity: the text comes back borrowed,
/// or unescaped into an owned string when it does.
fn text_until(s: &str, stop: u8) -> Option<(Cow<'_, str>, &str)> {
    let mut entity = false;
    for (i, b) in s.bytes().enumerate() {
        if b == stop {
            let text = &s[..i];
            let text = if entity { Cow::Owned(unescape_xml(text)) } else { Cow::Borrowed(text) };
            return Some((text, &s[i..]));
        }
        entity |= b == b'&';
    }
    None
}

/// Reads a `name="value"` pair the serializer emits as ` name="` directly at
/// the front of `s` (the only form `dwc-server::wire` produces), closing the
/// tag with `>`. Returns the value and the text after the `>`. Attribute
/// values are escaped on the wire, so the next `"` always terminates the
/// value.
fn leading_attr<'a>(s: &'a str, needle: &str) -> Option<(Cow<'a, str>, &'a str)> {
    let (value, rest) = text_until(s.strip_prefix(needle)?, b'"')?;
    Some((value, rest[1..].strip_prefix('>')?))
}

/// Parses one result page in the wire format. Every attribute name and value
/// is a `Cow` slice into `xml`, and the scanner is built for the hot path.
/// Instead of substring searches (whose per-call setup dominates on short
/// elements), it scans bytes and rides two invariants of the wire
/// serializer: element content is escaped, so the next `<` after an open tag
/// is always the closing tag; and attributes are emitted in one canonical
/// spelling (`<record key="..">`, `<field attr="..">`). The only allocations
/// left on a well-formed page are the record/field `Vec`s and any string that
/// actually contains an `&` entity.
pub fn parse_page_ref(xml: &str) -> Result<ExtractedPageRef<'_>, ExtractError> {
    let xml = xml.trim_start();
    let rest = xml.strip_prefix("<results").ok_or(ExtractError::MissingResultsElement)?;
    let header_end = rest.find('>').ok_or(ExtractError::MissingResultsElement)?;
    let header = &rest[..header_end];
    let page_index: usize = attr_value(header, "page=\"")
        .and_then(|s| s.parse().ok())
        .ok_or(ExtractError::BadAttribute("page"))?;
    let has_more = match attr_value(header, "more=\"") {
        Some("true") => true,
        Some("false") => false,
        _ => return Err(ExtractError::BadAttribute("more")),
    };
    let total_matches = match attr_value(header, "total=\"") {
        Some(s) => Some(s.parse().map_err(|_| ExtractError::BadAttribute("total"))?),
        None => None,
    };
    let mut cur = &rest[header_end + 1..];
    let mut records = Vec::new();
    // Records on one page share a schema, so each record's field vector is
    // sized from the one before it, and the first record's length sizes the
    // record vector for the rest of the page.
    let mut width = 0;
    'scan: while let Some(lt) = byte_at(cur, b'<') {
        let tag = &cur[lt..];
        let Some(rec_hdr) = tag.strip_prefix("<record") else {
            // Not a record ("</results>" or stray text): skip past the `<`.
            cur = &tag[1..];
            continue;
        };
        let (key_str, mut rec_body) =
            leading_attr(rec_hdr, " key=\"").ok_or(ExtractError::BadAttribute("key"))?;
        let key: u64 = key_str.parse().map_err(|_| ExtractError::BadAttribute("key"))?;
        let mut fields = Vec::with_capacity(width);
        loop {
            let flt = byte_at(rec_body, b'<').ok_or(ExtractError::MalformedElement("record"))?;
            let ftag = &rec_body[flt..];
            if let Some(f_hdr) = ftag.strip_prefix("<field") {
                let (attr, val_area) =
                    leading_attr(f_hdr, " attr=\"").ok_or(ExtractError::BadAttribute("attr"))?;
                // Content is escaped, so this `<` is the closing tag — or the
                // element never closes and the page is damaged.
                let (value, close) =
                    text_until(val_area, b'<').ok_or(ExtractError::MalformedElement("field"))?;
                rec_body = close
                    .strip_prefix("</field>")
                    .ok_or(ExtractError::MalformedElement("field"))?;
                fields.push((attr, value));
            } else if let Some(after) = ftag.strip_prefix("</record>") {
                if records.is_empty() {
                    let first = tag.len() - after.len();
                    records.reserve(1 + after.len() / first);
                }
                width = fields.len();
                records.push(ExtractedRecordRef { key, fields });
                cur = after;
                continue 'scan;
            } else {
                return Err(ExtractError::MalformedElement("record"));
            }
        }
    }
    Ok(ExtractedPageRef { page_index, total_matches, has_more, records })
}

/// Re-encodes a borrowed [`ExtractedPageRef`] into the XML wire format — the
/// crawler-side inverse of [`parse_page_ref`], round-trip exact for any page
/// (names and values are XML-escaped), and byte for byte the document
/// `dwc-server::wire` renders for the same page. This is the serving-tier
/// frame encoder: a [`crate::serve::SourceService`] worker visits the inner
/// source's page zero-copy and escapes each name and value straight off the
/// borrow into one buffer, sized up front for the unescaped page.
pub fn page_ref_to_wire(page: &ExtractedPageRef<'_>) -> String {
    use std::fmt::Write as _;
    const RECORD_MARKUP: usize = "  <record key=\"18446744073709551615\">\n  </record>\n".len();
    const FIELD_MARKUP: usize = "    <field attr=\"\"></field>\n".len();
    let text: usize = page
        .records
        .iter()
        .map(|rec| {
            RECORD_MARKUP
                + rec.fields.iter().map(|(a, v)| FIELD_MARKUP + a.len() + v.len()).sum::<usize>()
        })
        .sum();
    let mut out = String::with_capacity(96 + text);
    let _ = write!(out, "<results page=\"{}\" more=\"{}\"", page.page_index, page.has_more);
    if let Some(total) = page.total_matches {
        let _ = write!(out, " total=\"{total}\"");
    }
    out.push_str(">\n");
    for rec in &page.records {
        let _ = writeln!(out, "  <record key=\"{}\">", rec.key);
        for (attr, value) in &rec.fields {
            out.push_str("    <field attr=\"");
            push_escaped(&mut out, attr);
            out.push_str("\">");
            push_escaped(&mut out, value);
            out.push_str("</field>\n");
        }
        out.push_str("  </record>\n");
    }
    out.push_str("</results>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwc_model::fixtures::figure1_table;
    use dwc_model::AttrId;
    use dwc_server::wire::page_to_xml;
    use dwc_server::{InterfaceSpec, Query, WebDbServer};
    use proptest::prelude::*;

    // Owned reference parsers: every string is copied out of the document.
    // The zero-copy scanners must agree with them, page for page.

    /// Owned reference parser for the XML wire format.
    fn parse_page(xml: &str) -> Result<ExtractedPage, ExtractError> {
        let xml = xml.trim_start();
        let rest = xml.strip_prefix("<results").ok_or(ExtractError::MissingResultsElement)?;
        let header_end = rest.find('>').ok_or(ExtractError::MissingResultsElement)?;
        let header = &rest[..header_end];
        let page_index: usize = attr_value(header, "page=\"")
            .and_then(|s| s.parse().ok())
            .ok_or(ExtractError::BadAttribute("page"))?;
        let has_more = match attr_value(header, "more=\"") {
            Some("true") => true,
            Some("false") => false,
            _ => return Err(ExtractError::BadAttribute("more")),
        };
        let total_matches = match attr_value(header, "total=\"") {
            Some(s) => Some(s.parse().map_err(|_| ExtractError::BadAttribute("total"))?),
            None => None,
        };
        let mut body = &rest[header_end + 1..];
        let mut records = Vec::new();
        while let Some(rec_start) = body.find("<record") {
            let rec_rest = &body[rec_start + "<record".len()..];
            let rec_header_end =
                rec_rest.find('>').ok_or(ExtractError::MalformedElement("record"))?;
            let key: u64 = attr_value(&rec_rest[..rec_header_end], "key=\"")
                .and_then(|s| s.parse().ok())
                .ok_or(ExtractError::BadAttribute("key"))?;
            let rec_body_all = &rec_rest[rec_header_end + 1..];
            let rec_end =
                rec_body_all.find("</record>").ok_or(ExtractError::MalformedElement("record"))?;
            let mut rec_body = &rec_body_all[..rec_end];
            let mut fields = Vec::new();
            while let Some(f_start) = rec_body.find("<field") {
                let f_rest = &rec_body[f_start + "<field".len()..];
                let f_header_end =
                    f_rest.find('>').ok_or(ExtractError::MalformedElement("field"))?;
                let attr = attr_value(&f_rest[..f_header_end], "attr=\"")
                    .ok_or(ExtractError::BadAttribute("attr"))?;
                let f_body_all = &f_rest[f_header_end + 1..];
                let f_end =
                    f_body_all.find("</field>").ok_or(ExtractError::MalformedElement("field"))?;
                fields.push((unescape_xml(attr), unescape_xml(&f_body_all[..f_end])));
                rec_body = &f_body_all[f_end + "</field>".len()..];
            }
            records.push(ExtractedRecord { key, fields });
            body = &rec_body_all[rec_end + "</record>".len()..];
        }
        Ok(ExtractedPage { page_index, total_matches, has_more, records })
    }

    /// Owned reference parser for the HTML wrapper.
    fn parse_html_page(html: &str) -> Result<ExtractedPage, ExtractError> {
        let summary_start =
            html.find("<div id=\"summary\">").ok_or(ExtractError::MissingResultsElement)?
                + "<div id=\"summary\">".len();
        let summary_end =
            html[summary_start..].find("</div>").ok_or(ExtractError::MissingResultsElement)?
                + summary_start;
        let summary = &html[summary_start..summary_end];
        let page_index: usize = summary
            .strip_prefix("page ")
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .ok_or(ExtractError::BadAttribute("page"))?;
        let total_matches = match summary.find("— ") {
            Some(pos) => Some(
                summary[pos + "— ".len()..]
                    .split(' ')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(ExtractError::BadAttribute("total"))?,
            ),
            None => None,
        };
        let has_more = html.contains("<a id=\"next\"");
        let mut records = Vec::new();
        let mut rest = &html[summary_end..];
        while let Some(item_start) = rest.find("<div class=\"item\" id=\"item-") {
            let key_start = item_start + "<div class=\"item\" id=\"item-".len();
            let key_end =
                rest[key_start..].find('"').ok_or(ExtractError::MalformedElement("item"))?
                    + key_start;
            let key: u64 =
                rest[key_start..key_end].parse().map_err(|_| ExtractError::BadAttribute("key"))?;
            let body_start =
                rest[key_end..].find('>').ok_or(ExtractError::MalformedElement("item"))?
                    + key_end
                    + 1;
            let body_end =
                rest[body_start..].find("</div>").ok_or(ExtractError::MalformedElement("item"))?
                    + body_start;
            let mut fields = Vec::new();
            let mut item_body = &rest[body_start..body_end];
            while let Some(f_start) = item_body.find("<span class=\"f\" title=\"") {
                let attr_start = f_start + "<span class=\"f\" title=\"".len();
                let attr_end = item_body[attr_start..]
                    .find('"')
                    .ok_or(ExtractError::MalformedElement("field"))?
                    + attr_start;
                let val_start = item_body[attr_end..]
                    .find('>')
                    .ok_or(ExtractError::MalformedElement("field"))?
                    + attr_end
                    + 1;
                let val_end = item_body[val_start..]
                    .find("</span>")
                    .ok_or(ExtractError::MalformedElement("field"))?
                    + val_start;
                fields.push((
                    unescape_xml(&item_body[attr_start..attr_end]),
                    unescape_xml(&item_body[val_start..val_end]),
                ));
                item_body = &item_body[val_end + "</span>".len()..];
            }
            records.push(ExtractedRecord { key, fields });
            rest = &rest[body_end + "</div>".len()..];
        }
        Ok(ExtractedPage { page_index, total_matches, has_more, records })
    }

    /// Encodes an owned page through the serving tier's frame encoder.
    fn to_wire(page: &ExtractedPage) -> String {
        page_ref_to_wire(&ExtractedPageRef::borrowed(page))
    }

    fn roundtrip_page() -> (ExtractedPage, usize) {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 2);
        let s = WebDbServer::new(t, spec);
        let a2 = s.table().interner().get(AttrId(0), "a2").unwrap();
        let page = s.query_page(&Query::Value(a2), 0).unwrap();
        let xml = page_to_xml(&page, s.table());
        (parse_page(&xml).unwrap(), page.records.len())
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let (parsed, n) = roundtrip_page();
        assert_eq!(parsed.page_index, 0);
        assert_eq!(parsed.total_matches, Some(3));
        assert!(parsed.has_more);
        assert_eq!(parsed.records.len(), n);
        let r0 = &parsed.records[0];
        assert!(r0.fields.iter().any(|(a, v)| a == "A" && v == "a2"));
        assert_eq!(r0.fields.len(), 3);
    }

    #[test]
    fn roundtrip_with_escaped_characters() {
        use dwc_model::{AttrSpec, Schema, UniversalTable};
        let schema = Schema::new(vec![AttrSpec::queriable("T&C")]);
        let mut t = UniversalTable::new(schema);
        t.push_record_strs([(AttrId(0), "a<b>&\"c\"")]);
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        let s = WebDbServer::new(t, spec);
        let q = Query::ByString { attr: "T&C".into(), value: "a<b>&\"c\"".into() };
        let page = s.query_page(&q, 0).unwrap();
        let xml = page_to_xml(&page, s.table());
        let parsed = parse_page(&xml).unwrap();
        assert_eq!(parsed.records[0].fields[0], ("T&C".to_string(), "a<b>&\"c\"".to_string()));
    }

    #[test]
    fn crawler_side_serializer_roundtrips() {
        let (page, _) = roundtrip_page();
        let wire = to_wire(&page);
        assert_eq!(parse_page(&wire).unwrap(), page);
        let nasty = ExtractedPage {
            page_index: 2,
            total_matches: None,
            has_more: true,
            records: vec![ExtractedRecord {
                key: 9,
                fields: vec![("T&C".into(), "a<b>&\"c\"".into())],
            }],
        };
        assert_eq!(parse_page(&to_wire(&nasty)).unwrap(), nasty);
    }

    #[test]
    fn empty_page_parses() {
        let parsed =
            parse_page("<results page=\"3\" more=\"false\" total=\"0\">\n</results>\n").unwrap();
        assert_eq!(parsed.page_index, 3);
        assert!(!parsed.has_more);
        assert_eq!(parsed.total_matches, Some(0));
        assert!(parsed.records.is_empty());
    }

    #[test]
    fn total_is_optional() {
        let parsed = parse_page("<results page=\"0\" more=\"false\">\n</results>\n").unwrap();
        assert_eq!(parsed.total_matches, None);
    }

    #[test]
    fn malformed_documents_rejected() {
        assert_eq!(parse_page("<html>"), Err(ExtractError::MissingResultsElement));
        assert_eq!(
            parse_page("<results more=\"false\"></results>"),
            Err(ExtractError::BadAttribute("page"))
        );
        assert_eq!(
            parse_page("<results page=\"0\" more=\"maybe\"></results>"),
            Err(ExtractError::BadAttribute("more"))
        );
        assert_eq!(
            parse_page("<results page=\"0\" more=\"false\"><record key=\"1\">"),
            Err(ExtractError::MalformedElement("record"))
        );
        assert_eq!(
            parse_page("<results page=\"0\" more=\"false\"><record key=\"x\"></record></results>"),
            Err(ExtractError::BadAttribute("key"))
        );
    }

    #[test]
    fn html_roundtrip_matches_xml_roundtrip() {
        use dwc_server::html::page_to_html;
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 2);
        let s = WebDbServer::new(t, spec);
        let a2 = s.table().interner().get(AttrId(0), "a2").unwrap();
        let page = s.query_page(&Query::Value(a2), 0).unwrap();
        let from_xml = parse_page(&page_to_xml(&page, s.table())).unwrap();
        let from_html = parse_html_page(&page_to_html(&page, s.table())).unwrap();
        assert_eq!(from_xml, from_html, "both wrappers extract the same records");
    }

    #[test]
    fn html_handles_empty_and_no_total_pages() {
        let doc = "<html><body>\n<div id=\"summary\">page 3 of results</div>\n</body></html>\n";
        let parsed = parse_html_page(doc).unwrap();
        assert_eq!(parsed.page_index, 3);
        assert_eq!(parsed.total_matches, None);
        assert!(!parsed.has_more);
        assert!(parsed.records.is_empty());
    }

    #[test]
    fn html_escaped_values_roundtrip() {
        use dwc_model::{AttrSpec, Schema, UniversalTable};
        use dwc_server::html::page_to_html;
        let schema = Schema::new(vec![AttrSpec::queriable("T&C")]);
        let mut t = UniversalTable::new(schema);
        t.push_record_strs([(AttrId(0), "a<b> & \"c\"")]);
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        let s = WebDbServer::new(t, spec);
        let q = Query::ByString { attr: "T&C".into(), value: "a<b> & \"c\"".into() };
        let page = s.query_page(&q, 0).unwrap();
        let parsed = parse_html_page(&page_to_html(&page, s.table())).unwrap();
        assert_eq!(parsed.records[0].fields[0], ("T&C".to_string(), "a<b> & \"c\"".to_string()));
    }

    #[test]
    fn html_malformed_documents_rejected() {
        assert_eq!(parse_html_page("<html></html>"), Err(ExtractError::MissingResultsElement));
        assert_eq!(
            parse_html_page("<div id=\"summary\">nonsense</div>"),
            Err(ExtractError::BadAttribute("page"))
        );
        let bad_key =
            "<div id=\"summary\">page 0 of results</div><div class=\"item\" id=\"item-xyz\"></div>";
        assert_eq!(parse_html_page(bad_key), Err(ExtractError::BadAttribute("key")));
    }

    #[test]
    fn field_without_close_is_rejected() {
        let doc = "<results page=\"0\" more=\"false\"><record key=\"1\"><field attr=\"A\">oops</record></results>";
        assert_eq!(parse_page(doc), Err(ExtractError::MalformedElement("field")));
        assert_eq!(parse_page_ref(doc).unwrap_err(), ExtractError::MalformedElement("field"));
    }

    #[test]
    fn zero_copy_parser_agrees_with_owned_on_fixtures() {
        let (page, _) = roundtrip_page();
        let wire = to_wire(&page);
        let by_ref = parse_page_ref(&wire).unwrap();
        assert_eq!(by_ref.to_owned_page(), parse_page(&wire).unwrap());
        // No field in the figure-1 fixture needs unescaping, so every slice
        // borrows straight from the wire buffer.
        for rec in &by_ref.records {
            for (a, v) in &rec.fields {
                assert!(matches!(a, Cow::Borrowed(_)), "attr {a:?} should borrow");
                assert!(matches!(v, Cow::Borrowed(_)), "value {v:?} should borrow");
            }
        }
    }

    #[test]
    fn zero_copy_allocates_only_where_escapes_demand_it() {
        let nasty = ExtractedPage {
            page_index: 1,
            total_matches: Some(2),
            has_more: false,
            records: vec![ExtractedRecord {
                key: 7,
                fields: vec![
                    ("T&C".into(), "a<b>&\"c\"".into()),
                    ("Plain".into(), "clean value".into()),
                ],
            }],
        };
        let wire = to_wire(&nasty);
        let by_ref = parse_page_ref(&wire).unwrap();
        assert_eq!(by_ref.to_owned_page(), nasty);
        let fields = &by_ref.records[0].fields;
        assert!(matches!(fields[0].0, Cow::Owned(_)), "escaped attr must own");
        assert!(matches!(fields[0].1, Cow::Owned(_)), "escaped value must own");
        assert!(matches!(fields[1].0, Cow::Borrowed(_)), "clean attr borrows");
        assert!(matches!(fields[1].1, Cow::Borrowed(_)), "clean value borrows");
    }

    #[test]
    fn zero_copy_html_parser_agrees_with_owned() {
        use dwc_model::{AttrSpec, Schema, UniversalTable};
        use dwc_server::html::page_to_html;
        let schema = Schema::new(vec![AttrSpec::queriable("T&C")]);
        let mut t = UniversalTable::new(schema);
        t.push_record_strs([(AttrId(0), "a<b> & \"c\"")]);
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        let s = WebDbServer::new(t, spec);
        let q = Query::ByString { attr: "T&C".into(), value: "a<b> & \"c\"".into() };
        let page = s.query_page(&q, 0).unwrap();
        let html = page_to_html(&page, s.table());
        let by_ref = parse_html_page_ref(&html).unwrap();
        assert_eq!(by_ref.to_owned_page(), parse_html_page(&html).unwrap());
    }

    #[test]
    fn borrowed_view_roundtrips_an_owned_page() {
        let (page, _) = roundtrip_page();
        let view = ExtractedPageRef::borrowed(&page);
        assert_eq!(view.to_owned_page(), page);
    }

    /// Deterministic companion to `zero_copy_and_owned_parsers_agree`: the
    /// exact corpus the tests above escape by hand, one field per pairing.
    #[test]
    fn zero_copy_and_owned_parsers_agree_on_seed_corpus() {
        let corpus =
            ["a<b>&\"c\"", "T&C", "&amp;", "&notanentity;", "&", "clean", "", "'quoted'", "é⟩𝄞"];
        for (i, attr) in corpus.iter().enumerate() {
            for value in &corpus {
                let page = ExtractedPage {
                    page_index: i,
                    total_matches: Some(corpus.len()),
                    has_more: false,
                    records: vec![ExtractedRecord {
                        key: i as u64,
                        fields: vec![(attr.to_string(), value.to_string())],
                    }],
                };
                let wire = to_wire(&page);
                let owned = parse_page(&wire).unwrap();
                let zero_copy = parse_page_ref(&wire).unwrap().to_owned_page();
                assert_eq!(owned, zero_copy, "parsers disagree on {wire}");
                assert_eq!(owned, page, "round-trip must be exact for {wire}");
            }
        }
    }

    /// Strings stacked with everything the XML escaping layer must survive:
    /// bare entities and entity look-alikes (`&amp;`, `&notanentity`, a lone
    /// `&`), the markup characters themselves, quotes, and multi-byte
    /// unicode. Seeded with the `"a<b>&\"c\""` corpus the tests above use.
    fn escape_adversarial_string() -> impl Strategy<Value = String> {
        let fragment = prop_oneof![
            Just("a<b>&\"c\"".to_string()),
            Just("T&C".to_string()),
            Just("&amp;".to_string()),
            Just("&lt;field&gt;".to_string()),
            Just("&notanentity;".to_string()),
            Just("&".to_string()),
            Just("&#38;".to_string()),
            Just("<".to_string()),
            Just(">".to_string()),
            Just("\"".to_string()),
            Just("'".to_string()),
            Just("</field>".to_string()),
            Just("é⟩𝄞".to_string()),
            ".{0,4}",
        ];
        prop::collection::vec(fragment, 0..6).prop_map(|parts| parts.concat())
    }

    /// An extracted page whose attribute names and values are adversarially
    /// escaped strings.
    fn page_strategy() -> impl Strategy<Value = ExtractedPage> {
        let field = (escape_adversarial_string(), escape_adversarial_string());
        let record = (any::<u64>(), prop::collection::vec(field, 0..4))
            .prop_map(|(key, fields)| ExtractedRecord { key, fields });
        (
            prop::collection::vec(record, 0..5),
            0usize..100,
            prop::option::of(0usize..10_000),
            any::<bool>(),
        )
            .prop_map(|(records, page_index, total_matches, has_more)| ExtractedPage {
                page_index,
                total_matches,
                has_more,
                records,
            })
    }

    /// A random table rendered by the server as one result page: up to four
    /// attributes and six records, every name and value an adversarially
    /// escaped string (empty ones included).
    fn rendered_table_strategy() -> impl Strategy<Value = String> {
        let names = prop::collection::vec(escape_adversarial_string(), 1..5);
        let rows =
            prop::collection::vec(prop::collection::vec(escape_adversarial_string(), 4), 0..7);
        let header = (0usize..100, prop::option::of(0usize..10_000), any::<bool>());
        (names, rows, header).prop_map(|(names, rows, (page_index, total_matches, has_more))| {
            use dwc_model::{AttrSpec, Schema, UniversalTable};
            use dwc_server::{PageRecord, ResultPage};
            let attrs = names.iter().map(|n| AttrSpec::queriable(n)).collect();
            let mut table = UniversalTable::new(Schema::new(attrs));
            let records = rows
                .iter()
                .enumerate()
                .map(|(key, row)| {
                    let fields = (0..names.len()).map(|a| (AttrId(a as u16), &row[a]));
                    let id = table.push_record_strs(fields);
                    PageRecord { key: key as u64, values: table.record(id).values().to_vec() }
                })
                .collect();
            let page = ResultPage { page_index, total_matches, records, has_more };
            let mut xml = String::new();
            dwc_server::wire::page_to_xml_parts(&page, table.interner(), table.schema(), &mut xml);
            xml
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The serving tier's frame encoder reproduces the server's render
        /// byte for byte: parsing a rendered page and re-encoding the view
        /// gives back the same document.
        #[test]
        fn encoder_matches_the_renderer_byte_for_byte(xml in rendered_table_strategy()) {
            let view = parse_page_ref(&xml).unwrap();
            prop_assert_eq!(page_ref_to_wire(&view), xml);
        }

        /// The zero-copy wire parser and the owned oracle agree on every
        /// page the frame encoder writes — including adversarially escaped
        /// attribute names and values — and both round-trip the original
        /// page exactly.
        #[test]
        fn zero_copy_and_owned_parsers_agree(page in page_strategy()) {
            let wire = to_wire(&page);
            let owned = parse_page(&wire).unwrap();
            let zero_copy = parse_page_ref(&wire).unwrap().to_owned_page();
            prop_assert_eq!(&owned, &zero_copy, "parsers disagree on {}", wire);
            prop_assert_eq!(&owned, &page, "wire round-trip must be exact");
        }
    }
}
