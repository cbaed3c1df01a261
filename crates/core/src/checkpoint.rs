//! Crawl checkpointing: snapshot a running crawl to a text blob and resume it
//! later (possibly in another process).
//!
//! A real deployment of the paper's crawler runs for days against rate-limited
//! sources; surviving restarts without re-spending communication rounds is
//! table stakes. A [`Checkpoint`] captures everything the crawler owns — the
//! vocabulary, candidate statuses, `L_queried`, the harvested records, and the
//! cost counters. Policy-internal structures (heaps, covered sets, PMI caches)
//! are *not* serialized; they are deterministically rebuilt from the shared
//! state by [`crate::policy::SelectionPolicy::resume`].
//!
//! The format is a line-oriented, versioned text format with percent-escaping
//! for the three metacharacters (tab, newline, `%`) — dependency-free and
//! diff-friendly.
//!
//! Version 2 (current) carries an FNV-1a checksum of the entire body in the
//! header line, so *any* truncation or bit-rot — down to a lost trailing
//! newline — is detected at parse time instead of resuming from silently
//! damaged state. Any other version — the retired unchecksummed v1, or a
//! future one — is rejected with [`CheckpointError::UnsupportedVersion`].
//! Decoding is total: header counts never size an allocation beyond what
//! the input can hold, and attribute indices and value ids are
//! range-checked, so a bad blob is an error, never an abort or a panic.
//!
//! Durable storage is the state journal's job ([`crate::journal`]): a
//! checkpoint blob is its base frame, rebased atomically with `.bak`
//! rotation. This module only defines the blob.

use crate::state::{CandStatus, CrawlState};
use dwc_model::packed::fnv1a64;
use dwc_model::ValueId;
use std::fmt::Write as _;

/// A serialized crawl snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Interface attribute names, in id order.
    pub attr_names: Vec<String>,
    /// Queriability flags, parallel to `attr_names`.
    pub attr_queriable: Vec<bool>,
    /// Interface page size.
    pub page_size: usize,
    /// Whether the crawl runs in keyword mode.
    pub keyword_mode: bool,
    /// Vocabulary entries `(attr index, value string)` in [`ValueId`] order.
    pub values: Vec<(u16, String)>,
    /// Status per value, parallel to `values`.
    pub status: Vec<CandStatus>,
    /// `L_queried` in issue order.
    pub queried: Vec<u32>,
    /// Harvested records: `(source key, value ids)`.
    pub records: Vec<(u64, Vec<u32>)>,
    /// Communication rounds spent so far.
    pub rounds: u64,
    /// Queries issued so far.
    pub queries: u64,
}

/// Errors while parsing a checkpoint blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Wrong or missing header line.
    BadHeader,
    /// A header from a format version this build does not understand.
    UnsupportedVersion(String),
    /// The body does not hash to the checksum recorded in the header —
    /// truncation or bit-rot.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum computed over the body actually read.
        actual: u64,
    },
    /// A section or field is malformed.
    Malformed(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadHeader => write!(f, "not a DWC checkpoint (bad header)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v:?} (this build reads v2)")
            }
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint corrupt: checksum {actual:016x} does not match recorded {expected:016x}"
            ),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint section: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Appends `s` to `out`, percent-escaping the format's metacharacters. Most
/// strings contain none and are copied in one piece.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| matches!(b, b'%' | b'\t' | b'\n' | b'\r')) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
}

/// Appends the decimal digits of `n` (no formatting machinery: ids are the
/// bulk of a checkpoint and of every journal frame).
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    digits[i..].iter().for_each(|&d| out.push(char::from(d)));
}

/// Appends `ids` comma-separated (the format's id-list encoding).
pub(crate) fn push_ids(out: &mut String, ids: impl IntoIterator<Item = u32>) {
    for (i, id) in ids.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, u64::from(id));
    }
}

/// The one-letter code of a status (checkpoint `status` line, journal frames).
pub(crate) fn status_char(s: CandStatus) -> char {
    match s {
        CandStatus::Undiscovered => 'U',
        CandStatus::Frontier => 'F',
        CandStatus::Queried => 'Q',
    }
}

pub(crate) fn unescape(s: &str) -> Result<String, CheckpointError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = chars.next().ok_or(CheckpointError::Malformed("escape"))?;
        let lo = chars.next().ok_or(CheckpointError::Malformed("escape"))?;
        let byte = u8::from_str_radix(&format!("{hi}{lo}"), 16)
            .map_err(|_| CheckpointError::Malformed("escape"))?;
        out.push(byte as char);
    }
    Ok(out)
}

const HEADER_V2_PREFIX: &str = "DWC-CHECKPOINT v2 crc=";
const HEADER_ANY_PREFIX: &str = "DWC-CHECKPOINT ";

impl Checkpoint {
    /// Serializes to the current (v2) text format: a header line carrying the
    /// FNV-1a checksum of everything after it, then the body sections.
    ///
    /// The blob is built in one buffer: the header's checksum digits are a
    /// placeholder until the body behind them has been written and hashed.
    pub fn to_text(&self) -> String {
        let mut out = String::from(HEADER_V2_PREFIX);
        let crc_at = out.len();
        out.push_str("0000000000000000\n");
        let body_at = out.len();
        self.write_body(&mut out);
        let crc = format!("{:016x}", fnv1a64(&out.as_bytes()[body_at..]));
        out.replace_range(crc_at..crc_at + crc.len(), &crc);
        out
    }

    /// Appends the body sections (everything after the header line).
    fn write_body(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "meta\t{}\t{}\t{}\t{}",
            self.page_size,
            u8::from(self.keyword_mode),
            self.rounds,
            self.queries
        );
        let _ = writeln!(out, "attrs\t{}", self.attr_names.len());
        for (name, q) in self.attr_names.iter().zip(&self.attr_queriable) {
            out.push_str("a\t");
            escape_into(out, name);
            out.push('\t');
            out.push(if *q { '1' } else { '0' });
            out.push('\n');
        }
        let _ = writeln!(out, "values\t{}", self.values.len());
        for (attr, s) in &self.values {
            out.push_str("v\t");
            push_u64(out, u64::from(*attr));
            out.push('\t');
            escape_into(out, s);
            out.push('\n');
        }
        // Statuses as one compact line: U / F / Q per value.
        out.push_str("status\t");
        out.extend(self.status.iter().map(|&s| status_char(s)));
        out.push_str("\nqueried\t");
        push_ids(out, self.queried.iter().copied());
        let _ = writeln!(out, "\nrecords\t{}", self.records.len());
        for (key, vals) in &self.records {
            out.push_str("r\t");
            push_u64(out, *key);
            out.push('\t');
            push_ids(out, vals.iter().copied());
            out.push('\n');
        }
    }

    /// Parses the text format: a v2 header, whose checksum is verified
    /// before anything else, or an error for any other version or a
    /// foreign header.
    pub fn from_text(text: &str) -> Result<Self, CheckpointError> {
        let newline = text.find('\n');
        let header = match newline {
            Some(i) => &text[..i],
            None => text,
        };
        let body = match newline {
            Some(i) => &text[i + 1..],
            None => "",
        };
        let Some(crc_hex) = header.strip_prefix(HEADER_V2_PREFIX) else {
            return Err(match header.strip_prefix(HEADER_ANY_PREFIX) {
                Some(version) => CheckpointError::UnsupportedVersion(
                    version.split(' ').next().unwrap_or(version).to_string(),
                ),
                None => CheckpointError::BadHeader,
            });
        };
        let expected = u64::from_str_radix(crc_hex, 16)
            .map_err(|_| CheckpointError::Malformed("header checksum"))?;
        let actual = fnv1a64(body.as_bytes());
        if actual != expected {
            return Err(CheckpointError::ChecksumMismatch { expected, actual });
        }
        Self::body_from_text(body)
    }

    /// Parses the body sections (everything after the header line).
    fn body_from_text(body: &str) -> Result<Self, CheckpointError> {
        // Every counted entry takes at least a line of the body, so no
        // honest count exceeds its length: a corrupt one must not size an
        // allocation.
        let capacity = |n: usize| n.min(body.len());
        let mut lines = body.lines();
        let meta_line = lines.next().ok_or(CheckpointError::Malformed("meta"))?;
        let meta: Vec<&str> = meta_line.split('\t').collect();
        if meta.len() != 5 || meta[0] != "meta" {
            return Err(CheckpointError::Malformed("meta"));
        }
        let parse_u64 = |s: &str, what: &'static str| -> Result<u64, CheckpointError> {
            s.parse().map_err(|_| CheckpointError::Malformed(what))
        };
        let page_size = parse_u64(meta[1], "page_size")? as usize;
        let keyword_mode = meta[2] == "1";
        let rounds = parse_u64(meta[3], "rounds")?;
        let queries = parse_u64(meta[4], "queries")?;

        let attrs_header = lines.next().ok_or(CheckpointError::Malformed("attrs"))?;
        let n_attrs: usize = attrs_header
            .strip_prefix("attrs\t")
            .and_then(|s| s.parse().ok())
            .ok_or(CheckpointError::Malformed("attrs"))?;
        let mut attr_names = Vec::with_capacity(capacity(n_attrs));
        let mut attr_queriable = Vec::with_capacity(capacity(n_attrs));
        for _ in 0..n_attrs {
            let line = lines.next().ok_or(CheckpointError::Malformed("attr line"))?;
            let parts: Vec<&str> = line.split('\t').collect();
            if parts.len() != 3 || parts[0] != "a" {
                return Err(CheckpointError::Malformed("attr line"));
            }
            attr_names.push(unescape(parts[1])?);
            attr_queriable.push(parts[2] == "1");
        }

        let values_header = lines.next().ok_or(CheckpointError::Malformed("values"))?;
        let n_values: usize = values_header
            .strip_prefix("values\t")
            .and_then(|s| s.parse().ok())
            .ok_or(CheckpointError::Malformed("values"))?;
        let mut values = Vec::with_capacity(capacity(n_values));
        for _ in 0..n_values {
            let line = lines.next().ok_or(CheckpointError::Malformed("value line"))?;
            let parts: Vec<&str> = line.split('\t').collect();
            if parts.len() != 3 || parts[0] != "v" {
                return Err(CheckpointError::Malformed("value line"));
            }
            let attr: u16 =
                parts[1].parse().map_err(|_| CheckpointError::Malformed("value attr"))?;
            values.push((attr, unescape(parts[2])?));
        }

        let status_line = lines.next().ok_or(CheckpointError::Malformed("status"))?;
        let st =
            status_line.strip_prefix("status\t").ok_or(CheckpointError::Malformed("status"))?;
        if st.len() != n_values {
            return Err(CheckpointError::Malformed("status length"));
        }
        let status: Vec<CandStatus> = st
            .chars()
            .map(|c| match c {
                'U' => Ok(CandStatus::Undiscovered),
                'F' => Ok(CandStatus::Frontier),
                'Q' => Ok(CandStatus::Queried),
                _ => Err(CheckpointError::Malformed("status char")),
            })
            .collect::<Result<_, _>>()?;

        let queried_line = lines.next().ok_or(CheckpointError::Malformed("queried"))?;
        let q =
            queried_line.strip_prefix("queried\t").ok_or(CheckpointError::Malformed("queried"))?;
        let queried: Vec<u32> = if q.is_empty() {
            Vec::new()
        } else {
            q.split(',')
                .map(|s| s.parse().map_err(|_| CheckpointError::Malformed("queried id")))
                .collect::<Result<_, _>>()?
        };

        let records_header = lines.next().ok_or(CheckpointError::Malformed("records"))?;
        let n_records: usize = records_header
            .strip_prefix("records\t")
            .and_then(|s| s.parse().ok())
            .ok_or(CheckpointError::Malformed("records"))?;
        let mut records = Vec::with_capacity(capacity(n_records));
        for _ in 0..n_records {
            let line = lines.next().ok_or(CheckpointError::Malformed("record line"))?;
            let parts: Vec<&str> = line.split('\t').collect();
            if parts.len() != 3 || parts[0] != "r" {
                return Err(CheckpointError::Malformed("record line"));
            }
            let key: u64 =
                parts[1].parse().map_err(|_| CheckpointError::Malformed("record key"))?;
            let vals: Vec<u32> = if parts[2].is_empty() {
                Vec::new()
            } else {
                parts[2]
                    .split(',')
                    .map(|s| s.parse().map_err(|_| CheckpointError::Malformed("record value")))
                    .collect::<Result<_, _>>()?
            };
            records.push((key, vals));
        }
        let cp = Checkpoint {
            attr_names,
            attr_queriable,
            page_size,
            keyword_mode,
            values,
            status,
            queried,
            records,
            rounds,
            queries,
        };
        cp.validate()?;
        Ok(cp)
    }

    /// Checks what [`crate::Crawler::resume`] relies on: parallel vectors
    /// of equal length, value attributes in range, no value listed twice,
    /// and every `L_queried` and record id naming a value.
    pub(crate) fn validate(&self) -> Result<(), CheckpointError> {
        if self.attr_queriable.len() != self.attr_names.len()
            || self.status.len() != self.values.len()
        {
            return Err(CheckpointError::Malformed("section lengths"));
        }
        if self.values.iter().any(|(attr, _)| usize::from(*attr) >= self.attr_names.len()) {
            return Err(CheckpointError::Malformed("value attr out of range"));
        }
        let mut seen = std::collections::HashSet::with_capacity(self.values.len());
        if !self.values.iter().all(|(attr, s)| seen.insert((*attr, s.as_str()))) {
            return Err(CheckpointError::Malformed("duplicate value"));
        }
        let n = self.values.len();
        let in_range = |ids: &[u32]| ids.iter().all(|&id| (id as usize) < n);
        if !in_range(&self.queried) {
            return Err(CheckpointError::Malformed("queried id out of range"));
        }
        if !self.records.iter().all(|(_, ids)| in_range(ids)) {
            return Err(CheckpointError::Malformed("record value id out of range"));
        }
        Ok(())
    }

    /// Snapshots `state` (vocabulary, statuses, `L_queried`, harvested
    /// records) with the given cost counters.
    pub(crate) fn capture(state: &CrawlState, rounds: u64, queries: u64) -> Self {
        Checkpoint {
            attr_names: state.attr_names.clone(),
            attr_queriable: state.attr_queriable.clone(),
            page_size: state.page_size,
            keyword_mode: state.keyword_mode,
            values: state
                .vocab
                .iter_ids()
                .map(|v| (state.vocab.attr_of(v).0, state.vocab.value_str(v).to_owned()))
                .collect(),
            status: state.status().to_vec(),
            queried: state.queried().iter().map(|v| v.0).collect(),
            records: state
                .local
                .iter_keyed()
                .map(|(k, vals)| (k, vals.iter().map(|v| v.0).collect()))
                .collect(),
            rounds,
            queries,
        }
    }

    /// Convenience: value ids of the frontier.
    pub fn frontier(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == CandStatus::Frontier)
            .map(|(i, _)| ValueId(i as u32))
    }
}

/// `body` behind a v2 header carrying its checksum: a blob that passes the
/// checksum, whatever its body says.
#[cfg(test)]
pub(crate) fn checksummed(body: &str) -> String {
    format!("{HEADER_V2_PREFIX}{:016x}\n{body}", fnv1a64(body.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Checkpoint {
        Checkpoint {
            attr_names: vec!["A".into(), "weird\tname %".into()],
            attr_queriable: vec![true, false],
            page_size: 10,
            keyword_mode: false,
            values: vec![(0, "a2".into()), (1, "tab\there".into()), (0, "x".into())],
            status: vec![CandStatus::Queried, CandStatus::Frontier, CandStatus::Undiscovered],
            queried: vec![0],
            records: vec![(7, vec![0, 1]), (9, vec![2])],
            rounds: 42,
            queries: 3,
        }
    }

    #[test]
    fn roundtrip_exact() {
        let cp = demo();
        let text = cp.to_text();
        let back = Checkpoint::from_text(&text).unwrap();
        assert_eq!(cp, back);
    }

    /// Byte-exact v2 output: on-disk checkpoints and journal bases must not
    /// change when the serializer does.
    #[test]
    fn to_text_matches_golden_blob() {
        let mut cp = demo();
        cp.values.push((1, "crlf\r\nper%cent é".into()));
        cp.status.push(CandStatus::Queried);
        cp.queried = vec![0, 3, 1_000_000];
        cp.records.push((u64::MAX, vec![]));
        assert_eq!(
            cp.to_text(),
            "DWC-CHECKPOINT v2 crc=beb887d4d76a48e9\nmeta\t10\t0\t42\t3\nattrs\t2\na\tA\t1\n\
             a\tweird%09name %25\t0\nvalues\t4\nv\t0\ta2\nv\t1\ttab%09here\nv\t0\tx\n\
             v\t1\tcrlf%0D%0Aper%25cent é\nstatus\tQFUQ\nqueried\t0,3,1000000\nrecords\t3\n\
             r\t7\t0,1\nr\t9\t2\nr\t18446744073709551615\t\n"
        );
    }

    #[test]
    fn escaping_handles_metacharacters() {
        let mut escaped = String::new();
        escape_into(&mut escaped, "a\tb\nc%d\r");
        assert_eq!(unescape(&escaped).unwrap(), "a\tb\nc%d\r");
        let cp = demo();
        let text = cp.to_text();
        // One line per value, despite embedded tabs/newlines in strings.
        assert_eq!(text.lines().filter(|l| l.starts_with("v\t")).count(), 3);
    }

    #[test]
    fn bad_inputs_rejected() {
        assert_eq!(Checkpoint::from_text("nope"), Err(CheckpointError::BadHeader));
        assert_eq!(Checkpoint::from_text(""), Err(CheckpointError::BadHeader));
        assert_eq!(
            Checkpoint::from_text(&checksummed("meta\tx")),
            Err(CheckpointError::Malformed("meta"))
        );
        let truncated = demo().to_text().lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(Checkpoint::from_text(&truncated).is_err());
    }

    #[test]
    fn v1_blobs_are_rejected_with_version_error() {
        let text = demo().to_text();
        let body = &text[text.find('\n').unwrap() + 1..];
        let err = Checkpoint::from_text(&format!("DWC-CHECKPOINT v1\n{body}")).unwrap_err();
        assert_eq!(err, CheckpointError::UnsupportedVersion("v1".into()));
        assert_eq!(err.to_string(), "unsupported checkpoint version \"v1\" (this build reads v2)");
    }

    #[test]
    fn future_versions_rejected_with_version_error() {
        assert_eq!(
            Checkpoint::from_text("DWC-CHECKPOINT v3 crc=0\nmeta\t1\t0\t0\t0"),
            Err(CheckpointError::UnsupportedVersion("v3".into()))
        );
    }

    #[test]
    fn bit_flip_anywhere_in_body_is_detected() {
        let text = demo().to_text();
        let body_start = text.find('\n').unwrap() + 1;
        for i in body_start..text.len() {
            let mut bytes = text.as_bytes().to_vec();
            bytes[i] ^= 0x01;
            let Ok(flipped) = String::from_utf8(bytes) else { continue };
            assert!(
                matches!(
                    Checkpoint::from_text(&flipped),
                    Err(CheckpointError::ChecksumMismatch { .. })
                ),
                "flip at byte {i} must fail the checksum"
            );
        }
    }

    #[test]
    fn truncation_at_every_byte_is_detected() {
        let text = demo().to_text();
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            assert!(
                Checkpoint::from_text(&text[..cut]).is_err(),
                "prefix of {cut} bytes must not parse as a valid checkpoint"
            );
        }
    }

    /// Header counts past what the input holds, and ids past the
    /// vocabulary, are errors: none may size an allocation or reach
    /// `Crawler::resume`, which would abort or panic on them.
    #[test]
    fn impossible_counts_and_ids_are_errors_not_aborts() {
        let v2 = |body: &str| checksummed(&format!("meta\t10\t0\t0\t0\n{body}"));
        let one_value =
            |tail: &str| v2(&format!("attrs\t1\na\tA\t1\nvalues\t1\nv\t0\ta1\nstatus\tF\n{tail}"));
        let cases = [
            (v2("attrs\t100000000000\n"), "attr line"),
            (v2("attrs\t18446744073709551615\n"), "attr line"),
            (one_value("queried\t\nrecords\t1\nr\t7\t5\n"), "record value id out of range"),
            (one_value("queried\t3\nrecords\t0\n"), "queried id out of range"),
            (
                v2("attrs\t1\na\tA\t1\nvalues\t1\nv\t1\tb\nstatus\tF\nqueried\t\nrecords\t0\n"),
                "value attr out of range",
            ),
            (
                v2("attrs\t1\na\tA\t1\nvalues\t2\nv\t0\tb\nv\t0\tb\nstatus\tFF\nqueried\t\n\
                    records\t0\n"),
                "duplicate value",
            ),
            (v2("attrs\t0\nvalues\t99999999999\nstatus\t\n"), "value line"),
            (v2("attrs\t0\nvalues\t0\nstatus\t\nqueried\t\nrecords\t99999999999\n"), "record line"),
        ];
        for (blob, what) in cases {
            assert_eq!(
                Checkpoint::from_text(&blob),
                Err(CheckpointError::Malformed(what)),
                "{blob:?}"
            );
        }
        let sound = one_value("queried\t0\nrecords\t1\nr\t7\t0\n");
        assert_eq!(Checkpoint::from_text(&sound).unwrap().records, vec![(7, vec![0])]);
    }

    #[test]
    fn frontier_iterates_frontier_only() {
        let cp = demo();
        assert_eq!(cp.frontier().collect::<Vec<_>>(), vec![ValueId(1)]);
    }

    #[test]
    fn empty_sections_roundtrip() {
        let cp = Checkpoint {
            attr_names: vec!["A".into()],
            attr_queriable: vec![true],
            page_size: 5,
            keyword_mode: true,
            values: vec![],
            status: vec![],
            queried: vec![],
            records: vec![],
            rounds: 0,
            queries: 0,
        };
        assert_eq!(Checkpoint::from_text(&cp.to_text()).unwrap(), cp);
    }
}
