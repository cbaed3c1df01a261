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
//! rotation. This module only defines the blob and its one writer, which
//! the journal's bases share.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::state::{CandStatus, CrawlState};
use dwc_model::packed::fnv1a64;
use dwc_model::ValueId;

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

/// Appends `s` to `out`, percent-escaping the format's metacharacters.
/// Clean runs between them are copied whole; the metacharacters are ASCII,
/// so every run ends on a character boundary and the output stays UTF-8.
pub(crate) fn put_escaped(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let mut clean = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escaped: &[u8] = match b {
            b'%' => b"%25",
            b'\t' => b"%09",
            b'\n' => b"%0A",
            b'\r' => b"%0D",
            _ => continue,
        };
        out.extend_from_slice(&bytes[clean..i]);
        out.extend_from_slice(escaped);
        clean = i + 1;
    }
    out.extend_from_slice(&bytes[clean..]);
}

/// Appends the decimal digits of `n` (no formatting machinery: ids are the
/// bulk of a checkpoint and of every journal frame).
pub(crate) fn put_u64(out: &mut Vec<u8>, mut n: u64) {
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
    out.extend_from_slice(&digits[i..]);
}

/// Appends `ids` comma-separated (the format's id-list encoding).
pub(crate) fn put_ids(out: &mut Vec<u8>, ids: impl IntoIterator<Item = u32>) {
    for (i, id) in ids.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        put_u64(out, u64::from(id));
    }
}

/// Appends a body's `v` line: one vocabulary entry.
pub(crate) fn put_value_line(out: &mut Vec<u8>, attr: u16, value: &str) {
    out.extend_from_slice(b"v\t");
    put_u64(out, u64::from(attr));
    out.push(b'\t');
    put_escaped(out, value);
    out.push(b'\n');
}

/// Appends an `r` line: one harvested record (a body line and a journal
/// delta line alike).
pub(crate) fn put_record_line(out: &mut Vec<u8>, key: u64, ids: impl IntoIterator<Item = u32>) {
    out.extend_from_slice(b"r\t");
    put_u64(out, key);
    out.push(b'\t');
    put_ids(out, ids);
    out.push(b'\n');
}

/// The one-letter code of a status (checkpoint `status` line, journal frames).
pub(crate) fn status_byte(s: CandStatus) -> u8 {
    match s {
        CandStatus::Undiscovered => b'U',
        CandStatus::Frontier => b'F',
        CandStatus::Queried => b'Q',
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

/// The sections of a v2 body, borrowed from wherever they live: an owned
/// [`Checkpoint`], or the live [`CrawlState`] beside the state journal's
/// cached `v` and `r` lines. [`Body::put_blob`] is the one writer of the
/// format, so a journal base and [`Checkpoint::to_text`] agree byte for byte.
pub(crate) struct Body<'a, Q> {
    pub(crate) page_size: usize,
    pub(crate) keyword_mode: bool,
    pub(crate) rounds: u64,
    pub(crate) queries: u64,
    pub(crate) attr_names: &'a [String],
    pub(crate) attr_queriable: &'a [bool],
    /// Vocabulary size, and its formatted `v` lines ([`put_value_line`]).
    pub(crate) values: usize,
    pub(crate) value_lines: &'a [u8],
    pub(crate) status: &'a [CandStatus],
    /// `L_queried`, in issue order.
    pub(crate) queried: Q,
    /// Record count, and the formatted `r` lines ([`put_record_line`]).
    pub(crate) records: usize,
    pub(crate) record_lines: &'a [u8],
}

impl<Q: IntoIterator<Item = u32>> Body<'_, Q> {
    /// Appends the v2 blob to `out`: the header line, whose checksum digits
    /// are a placeholder until the body behind them has been written and
    /// hashed, then the body.
    pub(crate) fn put_blob(self, out: &mut Vec<u8>) {
        out.extend_from_slice(HEADER_V2_PREFIX.as_bytes());
        let crc_at = out.len();
        out.extend_from_slice(b"0000000000000000\n");
        let body_at = out.len();
        out.extend_from_slice(b"meta\t");
        put_u64(out, self.page_size as u64);
        out.push(b'\t');
        out.push(if self.keyword_mode { b'1' } else { b'0' });
        out.push(b'\t');
        put_u64(out, self.rounds);
        out.push(b'\t');
        put_u64(out, self.queries);
        out.extend_from_slice(b"\nattrs\t");
        put_u64(out, self.attr_names.len() as u64);
        out.push(b'\n');
        for (name, q) in self.attr_names.iter().zip(self.attr_queriable) {
            out.extend_from_slice(b"a\t");
            put_escaped(out, name);
            out.push(b'\t');
            out.push(if *q { b'1' } else { b'0' });
            out.push(b'\n');
        }
        out.extend_from_slice(b"values\t");
        put_u64(out, self.values as u64);
        out.push(b'\n');
        out.extend_from_slice(self.value_lines);
        // Statuses as one compact line: U / F / Q per value.
        out.extend_from_slice(b"status\t");
        out.extend(self.status.iter().map(|&s| status_byte(s)));
        out.extend_from_slice(b"\nqueried\t");
        put_ids(out, self.queried);
        out.extend_from_slice(b"\nrecords\t");
        put_u64(out, self.records as u64);
        out.push(b'\n');
        out.extend_from_slice(self.record_lines);
        let crc = fnv1a64(&out[body_at..]);
        for (i, digit) in out[crc_at..body_at - 1].iter_mut().enumerate() {
            *digit = b"0123456789abcdef"[((crc >> (60 - 4 * i)) & 0xf) as usize];
        }
    }
}

impl Checkpoint {
    /// Serializes to the current (v2) text format: a header line carrying the
    /// FNV-1a checksum of everything after it, then the body sections.
    pub fn to_text(&self) -> String {
        let mut value_lines = Vec::new();
        for (attr, s) in &self.values {
            put_value_line(&mut value_lines, *attr, s);
        }
        let mut record_lines = Vec::new();
        for (key, ids) in &self.records {
            put_record_line(&mut record_lines, *key, ids.iter().copied());
        }
        let mut out = Vec::new();
        Body {
            page_size: self.page_size,
            keyword_mode: self.keyword_mode,
            rounds: self.rounds,
            queries: self.queries,
            attr_names: &self.attr_names,
            attr_queriable: &self.attr_queriable,
            values: self.values.len(),
            value_lines: &value_lines,
            status: &self.status,
            queried: self.queried.iter().copied(),
            records: self.records.len(),
            record_lines: &record_lines,
        }
        .put_blob(&mut out);
        // The writers copy UTF-8 strings whole and add only ASCII, so the
        // lossy branch never runs.
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
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
        let mut escaped = Vec::new();
        put_escaped(&mut escaped, "a\tb\nc%d\r");
        assert_eq!(escaped, b"a%09b%0Ac%25d%0D");
        assert_eq!(unescape(std::str::from_utf8(&escaped).unwrap()).unwrap(), "a\tb\nc%d\r");
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
