//! CSV import/export for universal tables.
//!
//! Lets a downstream user feed *their own* structured data to the crawler
//! and simulator instead of the generated presets. The dialect is RFC-4180
//! quoting plus two header conventions:
//!
//! * a trailing `*` on a header name marks the attribute **result-only**
//!   (displayed in result pages, not queriable — Definition 2.2's `A_r∖A_q`),
//! * a trailing `+` marks it **multi-valued**; its cells are split on `;`
//!   (the paper concatenates multi-valued attributes like `Authors` into one
//!   column — this is that column's inverse).
//!
//! ```text
//! Title,Author+,Year*
//! "Paper, the first",smith;jones,2004
//! Second paper,lee,2005
//! ```

use dwc_model::{AttrId, AttrSpec, Schema, UniversalTable};

/// Errors while parsing a CSV table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The input has no header row.
    MissingHeader,
    /// A quoted field never closes.
    UnterminatedQuote {
        /// 1-based line where the field started.
        line: usize,
    },
    /// A data row has more fields than the header.
    TooManyFields {
        /// 1-based row number (header = 1).
        row: usize,
    },
    /// The header has more columns than [`Schema::MAX_ATTRS`].
    TooManyColumns {
        /// Columns in the header.
        columns: usize,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::MissingHeader => write!(f, "CSV input has no header row"),
            CsvError::UnterminatedQuote { line } => {
                write!(f, "unterminated quoted field starting on line {line}")
            }
            CsvError::TooManyFields { row } => {
                write!(f, "row {row} has more fields than the header")
            }
            CsvError::TooManyColumns { columns } => {
                write!(f, "the header has {columns} columns; the limit is {}", Schema::MAX_ATTRS)
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Streaming CSV row parser (RFC-4180 quoting: `"` wraps fields, `""`
/// escapes a quote, newlines allowed inside quotes). Yields one row at a
/// time so the loader never materializes the whole document as rows — a
/// multi-gigabyte export costs one row of memory, not two copies of the
/// file.
struct CsvRows<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    finished: bool,
}

impl<'a> CsvRows<'a> {
    fn new(text: &'a str) -> Self {
        CsvRows { chars: text.chars().peekable(), line: 1, finished: false }
    }
}

impl Iterator for CsvRows<'_> {
    type Item = Result<Vec<String>, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        let mut row: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut quote_start_line = self.line;
        let mut any = false;
        while let Some(c) = self.chars.next() {
            any = true;
            if in_quotes {
                match c {
                    '"' => {
                        if self.chars.peek() == Some(&'"') {
                            self.chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    '\n' => {
                        self.line += 1;
                        field.push('\n');
                    }
                    _ => field.push(c),
                }
                continue;
            }
            match c {
                '"' => {
                    in_quotes = true;
                    quote_start_line = self.line;
                }
                ',' => {
                    row.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    self.line += 1;
                    row.push(field);
                    return Some(Ok(row));
                }
                _ => field.push(c),
            }
        }
        self.finished = true;
        if in_quotes {
            return Some(Err(CsvError::UnterminatedQuote { line: quote_start_line }));
        }
        if any && (!field.is_empty() || !row.is_empty()) {
            row.push(field);
            return Some(Ok(row));
        }
        None
    }
}

/// Quotes a field when needed: [`CsvRows`] keeps these characters only
/// inside quotes (a bare `\r` is dropped as part of a line ending).
fn quote(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r', ';']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Parses a CSV document into a universal table (see module docs for the
/// header conventions). Empty cells contribute no value.
pub fn load_csv(text: &str) -> Result<UniversalTable, CsvError> {
    let mut rows = CsvRows::new(text);
    let Some(header) = rows.next().transpose()? else { return Err(CsvError::MissingHeader) };
    if header.is_empty() || header.iter().all(|h| h.is_empty()) {
        return Err(CsvError::MissingHeader);
    }
    if header.len() > Schema::MAX_ATTRS {
        return Err(CsvError::TooManyColumns { columns: header.len() });
    }
    let mut specs = Vec::with_capacity(header.len());
    let mut multi = Vec::with_capacity(header.len());
    for raw in &header {
        let (name, queriable, is_multi) = match raw.as_str() {
            s if s.ends_with('*') => (&s[..s.len() - 1], false, false),
            s if s.ends_with('+') => (&s[..s.len() - 1], true, true),
            s => (s, true, false),
        };
        specs.push(AttrSpec { name: name.to_owned(), queriable, multi_valued: is_multi });
        multi.push(is_multi);
    }
    let mut table = UniversalTable::new(Schema::new(specs));
    for (ri, row) in rows.enumerate() {
        let row = row?;
        // The header was row 1; `ri` counts data rows from 0.
        if row.len() > header.len() {
            return Err(CsvError::TooManyFields { row: ri + 2 });
        }
        let mut fields: Vec<(AttrId, &str)> = Vec::new();
        for (ci, cell) in row.iter().enumerate() {
            if cell.is_empty() {
                continue;
            }
            let attr = AttrId(ci as u16);
            if multi[ci] {
                fields.extend(cell.split(';').filter(|p| !p.is_empty()).map(|p| (attr, p)));
            } else {
                fields.push((attr, cell.as_str()));
            }
        }
        // A row whose cells yield no value (all empty, or only `;` in
        // multi-valued columns) is no record: `to_csv` could not write it
        // back as anything but a skipped all-empty row.
        if fields.is_empty() {
            continue;
        }
        table.push_record_strs(fields);
    }
    Ok(table)
}

/// Streaming CSV emitter: the header goes out at construction, then one row
/// per [`CsvWriter::write_record`] call. This is the generate-to-disk
/// complement of the streaming generators — 100M records flow straight from
/// the sampler through this writer to a file without a table in between.
#[derive(Debug)]
pub struct CsvWriter<W: std::io::Write> {
    out: W,
    /// Scratch row, bucketed by attribute, reused across records.
    cells: Vec<Vec<String>>,
}

impl<W: std::io::Write> CsvWriter<W> {
    /// Writes the header row (with the `*`/`+` markers, so the output
    /// re-loads with the identical schema) and returns the writer.
    pub fn new(mut out: W, schema: &Schema) -> std::io::Result<Self> {
        for (i, (_, spec)) in schema.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            let suffix = if spec.multi_valued {
                "+"
            } else if !spec.queriable {
                "*"
            } else {
                ""
            };
            write!(out, "{}{}", quote(&spec.name), suffix)?;
        }
        out.write_all(b"\n")?;
        Ok(CsvWriter { out, cells: vec![Vec::new(); schema.len()] })
    }

    /// Writes one record row. Fields may arrive in any order; multi-valued
    /// cells are joined on `;`.
    pub fn write_record<'a, I>(&mut self, fields: I) -> std::io::Result<()>
    where
        I: IntoIterator<Item = (AttrId, &'a str)>,
    {
        for cell in &mut self.cells {
            cell.clear();
        }
        for (attr, s) in fields {
            self.cells[attr.0 as usize].push(s.to_owned());
        }
        for (i, vals) in self.cells.iter().enumerate() {
            if i > 0 {
                self.out.write_all(b",")?;
            }
            match vals.as_slice() {
                [] => {}
                [one] => self.out.write_all(quote(one).as_bytes())?,
                many => self.out.write_all(quote(&many.join(";")).as_bytes())?,
            }
        }
        self.out.write_all(b"\n")?;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Serializes a universal table back to the CSV dialect. Multi-valued cells
/// are joined on `;`; the header carries the `*`/`+` markers so the result
/// re-loads with the identical schema. Streams through [`CsvWriter`] — the
/// only full-document buffer is the returned `String` itself.
pub fn to_csv(table: &UniversalTable) -> String {
    let mut writer =
        CsvWriter::new(Vec::new(), table.schema()).expect("writing to a Vec cannot fail");
    for (_, rec) in table.iter() {
        let fields = rec
            .values()
            .iter()
            .map(|&v| (table.interner().attr_of(v), table.interner().value_str(v)));
        writer.write_record(fields).expect("writing to a Vec cannot fail");
    }
    String::from_utf8(writer.finish().expect("writing to a Vec cannot fail"))
        .expect("CSV output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every truncation and every single-bit flip that stays UTF-8 of a
    /// document with quoted fields, escaped quotes, a quoted newline and
    /// both header flags loads to an error or to a table whose every value
    /// is non-empty and belongs to a header column, at most one per
    /// single-valued column, and never panics.
    #[test]
    fn damaged_documents_load_to_an_error_or_a_consistent_table() {
        let doc = "Title,Author+,Year*\n\"Paper, the \"\"first\"\"\",smith;jones,2004\n\
                   \"two\nlines\",lee;,\"2005\"\n";
        let mut loaded = 0;
        let mut check = |text: &str| {
            let Ok(table) = load_csv(text) else { return };
            let (schema, interner) = (table.schema(), table.interner());
            for (_, rec) in table.iter() {
                let mut per_column = vec![0usize; schema.len()];
                for &v in rec.values() {
                    let attr = interner.attr_of(v);
                    assert!((attr.0 as usize) < schema.len(), "from {text:?}");
                    assert!(!interner.value_str(v).is_empty(), "from {text:?}");
                    per_column[attr.0 as usize] += 1;
                }
                for (i, &n) in per_column.iter().enumerate() {
                    assert!(n <= 1 || schema.attr(AttrId(i as u16)).multi_valued, "from {text:?}");
                }
            }
            loaded += 1;
        };
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            check(&doc[..cut]);
        }
        let mut bytes = doc.as_bytes().to_vec();
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            if let Ok(text) = std::str::from_utf8(&bytes) {
                check(text);
            }
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(loaded > 0);
    }

    const SAMPLE: &str =
        "Title,Author+,Year*\n\"Paper, the first\",smith;jones,2004\nSecond paper,lee,2005\n";

    #[test]
    fn loads_schema_conventions() {
        let t = load_csv(SAMPLE).unwrap();
        assert_eq!(t.num_records(), 2);
        let s = t.schema();
        assert!(s.attr(AttrId(0)).queriable);
        assert!(s.attr(AttrId(1)).multi_valued);
        assert!(!s.attr(AttrId(2)).queriable, "Year* is result-only");
        assert_eq!(s.attr(AttrId(0)).name, "Title");
    }

    #[test]
    fn quoted_commas_and_multi_values() {
        let t = load_csv(SAMPLE).unwrap();
        assert!(t.interner().get(AttrId(0), "Paper, the first").is_some());
        assert!(t.interner().get(AttrId(1), "smith").is_some());
        assert!(t.interner().get(AttrId(1), "jones").is_some());
        let rec0 = t.record(dwc_model::RecordId(0));
        assert_eq!(rec0.len(), 4, "title + 2 authors + year");
    }

    #[test]
    fn roundtrip_preserves_content() {
        let t = load_csv(SAMPLE).unwrap();
        let csv = to_csv(&t);
        let t2 = load_csv(&csv).unwrap();
        assert_eq!(t2.num_records(), t.num_records());
        assert_eq!(t2.schema(), t.schema());
        for (id, rec) in t.iter() {
            let strs: Vec<(u16, &str)> = rec
                .values()
                .iter()
                .map(|&v| (t.interner().attr_of(v).0, t.interner().value_str(v)))
                .collect();
            let rec2 = t2.record(id);
            let strs2: Vec<(u16, &str)> = rec2
                .values()
                .iter()
                .map(|&v| (t2.interner().attr_of(v).0, t2.interner().value_str(v)))
                .collect();
            let (mut a, mut b) = (strs.clone(), strs2.clone());
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn escaped_quotes_and_embedded_newlines() {
        let csv = "A\n\"he said \"\"hi\"\"\"\n\"line1\nline2\"\n";
        let t = load_csv(csv).unwrap();
        assert!(t.interner().get(AttrId(0), "he said \"hi\"").is_some());
        assert!(t.interner().get(AttrId(0), "line1\nline2").is_some());
        // And back out again.
        let t2 = load_csv(&to_csv(&t)).unwrap();
        assert!(t2.interner().get(AttrId(0), "he said \"hi\"").is_some());
    }

    #[test]
    fn empty_cells_and_rows_skipped() {
        let csv = "A,B\nx,\n,\n,y\n";
        let t = load_csv(csv).unwrap();
        assert_eq!(t.num_records(), 2, "the all-empty row is skipped");
        assert_eq!(t.record(dwc_model::RecordId(0)).len(), 1);
    }

    #[test]
    fn carriage_returns_survive_a_round_trip() {
        let mut t = UniversalTable::new(Schema::new(vec![AttrSpec::queriable("A")]));
        for value in ["x\ry", "cr at end\r", "crlf\r\ninside"] {
            t.push_record_strs([(AttrId(0), value)]);
        }
        let t2 = load_csv(&to_csv(&t)).unwrap();
        assert_eq!(t2.num_records(), 3);
        for (id, rec) in t.iter() {
            let v = t.interner().value_str(rec.values()[0]);
            let back = t2.record(id).values()[0];
            assert_eq!(t2.interner().value_str(back), v, "record {id:?}");
        }
    }

    #[test]
    fn rows_without_values_are_skipped_and_round_trip() {
        let t = load_csv("A,B+\nx,\n,;\n;,\n,y;z\n").unwrap();
        assert_eq!(t.num_records(), 3, "the `,;` row yields no value");
        assert!(t.iter().all(|(_, rec)| !rec.is_empty()));
        let t2 = load_csv(&to_csv(&t)).unwrap();
        assert_eq!(t2.num_records(), t.num_records());
        assert_eq!(to_csv(&t2), to_csv(&t));
    }

    #[test]
    fn errors_reported() {
        assert_eq!(load_csv("").unwrap_err(), CsvError::MissingHeader);
        assert!(matches!(load_csv("A\n\"oops"), Err(CsvError::UnterminatedQuote { .. })));
        assert_eq!(load_csv("A\nx,y\n").unwrap_err(), CsvError::TooManyFields { row: 2 });
    }

    #[test]
    fn the_widest_header_loads_and_one_column_more_is_an_error() {
        let header = |columns: usize| -> String {
            let names: Vec<String> = (0..columns).map(|c| format!("c{c}")).collect();
            format!("{}\n{}\n", names.join(","), ",".repeat(columns - 2) + ",last")
        };
        let widest = load_csv(&header(Schema::MAX_ATTRS)).unwrap();
        assert_eq!(widest.schema().len(), 65_535);
        let last = widest.schema().attr_by_name("c65534").unwrap();
        assert_eq!(widest.interner().get(last, "last").map(|v| widest.count_matches(v)), Some(1));
        assert_eq!(
            load_csv(&header(Schema::MAX_ATTRS + 1)).unwrap_err(),
            CsvError::TooManyColumns { columns: 65_536 }
        );
    }

    #[test]
    fn streamed_generation_writes_loadable_csv() {
        // generate_with → CsvWriter → load_csv must equal generate():
        // the generate-to-disk path loses nothing.
        let model = crate::presets::Preset::Ebay.model(0.002);
        let resident = model.generate(40, 5);
        let mut writer = CsvWriter::new(Vec::new(), &model.schema()).unwrap();
        model.generate_with(40, 5, |_, fields| {
            writer.write_record(fields.iter().map(|(a, s)| (*a, s.as_str()))).unwrap();
        });
        let csv = String::from_utf8(writer.finish().unwrap()).unwrap();
        let loaded = load_csv(&csv).unwrap();
        assert_eq!(loaded.num_records(), resident.num_records());
        assert_eq!(loaded.num_distinct_values(), resident.num_distinct_values());
        assert_eq!(loaded.schema(), &model.schema());
    }

    #[test]
    fn generated_preset_roundtrips_through_csv() {
        let t = crate::presets::Preset::Ebay.table(0.002, 3);
        let csv = to_csv(&t);
        let t2 = load_csv(&csv).unwrap();
        assert_eq!(t2.num_records(), t.num_records());
        assert_eq!(t2.num_distinct_values(), t.num_distinct_values());
    }
}
