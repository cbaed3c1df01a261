//! The crawl-state journal: the one durable form of a crawl.
//!
//! A [`StateJournal`] is a [`dwc_store::FrameLog`] whose frame 0 holds a
//! full v2 checkpoint blob (the *base*) and whose every later frame is a
//! small text *delta* describing exactly what one completed query changed —
//! new vocabulary entries, status transitions, `L_queried` growth,
//! harvested records, and the cost counters. Both layers share one trust
//! model: the base is a checksummed checkpoint, each frame is independently
//! checksummed by the framing, and recovery replays the longest valid
//! prefix — a crash mid-append loses at most the query being framed.
//!
//! **Rebasing.** Every [`crate::CrawlConfig::checkpoint_every`] completed
//! queries (never, when it is unset) the crawler starts a new generation
//! from a fresh base, atomically: the base frame is written to
//! `<journal>.tmp` and synced, the current generation is rotated to
//! `<journal>.bak`, and the temporary is renamed into place. At every
//! instant one complete generation is on disk. A failed rebase leaves the
//! previous generation in place, and the crawl keeps appending to it;
//! [`StateJournal::recover`] falls back to `.bak` when the primary holds no
//! intact base, and never reads `.tmp`. A journal therefore holds at most
//! one rebase interval of deltas, and a crawl writes no other file.
//!
//! **Cost.** A delta costs what its query changed, not what the crawl has
//! accumulated. The journal never rescans the state: [`CrawlState`] logs
//! every status write, and every `L_queried` removal lowers a low-water
//! mark. [`StateJournal::append_delta`] drains that log, compares only the
//! logged ids against a shadow status vector it patches in place, and reads
//! only the vocabulary, `L_queried` and record tails past the lengths it
//! last framed (all of `L_queried` only when a removal cut into what it
//! framed). The invariant this rests on: **all status writes go through
//! `CrawlState::set_status`** and all removals from `L_queried` through
//! `CrawlState::remove_queried` (the fields are private to enforce it).
//!
//! A rebase formats only what was added since the last one. The vocabulary
//! and `DB_local`'s records only grow, so the journal keeps the `v` and `r`
//! lines of its last base, with the vocabulary and record counts they
//! cover, and formats only the entries past them; meta, attributes, the
//! status line and `L_queried` are rewritten around the cached lines in the
//! one reused frame buffer, which [`FrameLog`] writes as built. What is
//! left is the durability contract and the format: copying the cached lines
//! into the frame, the two FNV-1a passes over the base (the header's body
//! checksum, then the frame's), one `sync_data` of the temporary, the two
//! renames and one directory fsync.
//!
//! Delta frame payload (line-oriented, same percent-escaping as the
//! checkpoint format):
//!
//! ```text
//! d\t<rounds>\t<queries>          cost counters after the query
//! v\t<attr>\t<string>\t<status>   one per new vocabulary id, in id order
//! s\t<index>\t<status>            status change of a pre-existing id, in id order
//! qa\t<id,id,...>                 ids appended to L_queried
//! qf\t<id,id,...>                 full L_queried replacement (requeue path)
//! r\t<key>\t<id,id,...>           one per newly harvested record
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::checkpoint::{
    put_escaped, put_ids, put_record_line, put_u64, put_value_line, status_byte, unescape, Body,
    Checkpoint, CheckpointError,
};
use crate::state::{CandStatus, CrawlState};
use dwc_model::ValueId;
use dwc_store::FrameLog;
use std::io;
use std::path::{Path, PathBuf};

fn status_from(c: &str) -> Result<CandStatus, CheckpointError> {
    match c {
        "U" => Ok(CandStatus::Undiscovered),
        "F" => Ok(CandStatus::Frontier),
        "Q" => Ok(CandStatus::Queried),
        _ => Err(CheckpointError::Malformed("journal status char")),
    }
}

fn parse_ids(s: &str, what: &'static str) -> Result<Vec<u32>, CheckpointError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(|t| t.parse().map_err(|_| CheckpointError::Malformed(what))).collect()
}

/// `path` with `suffix` appended to its file name: the `.tmp` and `.bak`
/// siblings of a journal.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// What [`StateJournal::recover`] found on disk.
#[derive(Debug)]
pub struct JournalRecovery {
    /// The state at the last intact delta frame (or the base, if no delta
    /// survived), ready for [`crate::Crawler::resume`].
    pub checkpoint: Checkpoint,
    /// Delta frames applied on top of the base.
    pub deltas_applied: u64,
    /// Whether a torn or corrupt tail was discarded during replay.
    pub torn: bool,
    /// Whether the primary held no intact base and the `.bak` generation
    /// was replayed instead.
    pub from_backup: bool,
}

/// Append-only per-query state journal over a [`FrameLog`], rebased
/// atomically onto fresh bases (see the module docs).
#[derive(Debug)]
pub struct StateJournal {
    path: PathBuf,
    /// The current generation: `None` until this handle writes its first
    /// base, so the journal a crawl resumed from stays untouched until then.
    log: Option<FrameLog>,
    /// Statuses as of the last frame (its length is the framed vocabulary
    /// size), patched in place from the state's change log.
    shadow_status: Vec<CandStatus>,
    shadow_records_len: usize,
    /// `L_queried` as of the last frame.
    shadow_queried: Vec<ValueId>,
    /// The drained status-change log, handed back empty on the next drain.
    changed: Vec<ValueId>,
    /// The `v` and `r` lines of the last base.
    sections: BaseSections,
    /// The frame under construction (base or delta), reused across frames.
    frame: Vec<u8>,
    /// The full-state diff every frame must equal byte for byte.
    #[cfg(test)]
    reference: reference::FullDiff,
}

impl StateJournal {
    /// A journal at `path`. Nothing is read or written until the first
    /// [`StateJournal::write_base`], so a crawl resumed from this journal
    /// loses nothing to a crash before its first query.
    pub fn open(path: impl Into<PathBuf>) -> Self {
        StateJournal {
            path: path.into(),
            log: None,
            shadow_status: Vec::new(),
            shadow_records_len: 0,
            shadow_queried: Vec::new(),
            changed: Vec::new(),
            sections: BaseSections::default(),
            frame: Vec::new(),
            #[cfg(test)]
            reference: reference::FullDiff::default(),
        }
    }

    /// Whether this handle has written its base frame yet.
    pub fn has_base(&self) -> bool {
        self.log.is_some()
    }

    /// Frames in this handle's generation (base + deltas).
    pub fn frames(&self) -> u64 {
        self.log.as_ref().map_or(0, FrameLog::frames)
    }

    /// Starts a new generation from `state` at the given cost counters:
    /// writes its v2 checkpoint blob (what [`Checkpoint::to_text`] makes of
    /// the same state) as frame 0 of `<path>.tmp` (creating parent
    /// directories), syncs it, rotates the current generation, if any, to
    /// `<path>.bak`, renames the temporary into place and syncs the
    /// directory. Returns whether a previous generation was rotated. Clears
    /// the state's change log, which the base absorbed. Called before a
    /// crawl's first query and at every periodic checkpoint.
    ///
    /// A handle journals one crawl: its cached sections assume `state` is
    /// the state it last saw, grown since (a resumed crawl opens a new one).
    ///
    /// An error before the new generation is in place leaves the state
    /// untouched and the handle on its previous generation, which further
    /// deltas extend. An error syncing the directory comes after the
    /// switch: the new generation is in place, and further deltas extend it.
    pub fn write_base(
        &mut self,
        state: &mut CrawlState,
        rounds: u64,
        queries: u64,
    ) -> io::Result<bool> {
        self.sections.extend(state);
        FrameLog::start_frame(&mut self.frame);
        Body {
            page_size: state.page_size,
            keyword_mode: state.keyword_mode,
            rounds,
            queries,
            attr_names: &state.attr_names,
            attr_queriable: &state.attr_queriable,
            values: self.sections.values,
            value_lines: &self.sections.value_lines,
            status: state.status(),
            queried: state.queried().iter().map(|v| v.0),
            records: self.sections.records,
            record_lines: &self.sections.record_lines,
        }
        .put_blob(&mut self.frame);
        #[cfg(test)]
        assert_eq!(
            std::str::from_utf8(&self.frame[dwc_store::FRAME_HEADER..]).unwrap(),
            Checkpoint::capture(state, rounds, queries).to_text(),
            "base differs from the checkpoint's text"
        );
        let tmp = sibling(&self.path, ".tmp");
        let mut log = FrameLog::create(&tmp)?;
        log.append(&mut self.frame)?;
        log.sync()?;
        let rotated = match std::fs::rename(&self.path, sibling(&self.path, ".bak")) {
            Ok(()) => true,
            Err(e) if e.kind() == io::ErrorKind::NotFound => false,
            Err(e) => return Err(e),
        };
        std::fs::rename(&tmp, &self.path)?;
        self.log = Some(log);
        self.shadow_status.clear();
        self.shadow_status.extend_from_slice(state.status());
        self.shadow_records_len = state.local.num_records();
        self.shadow_queried.clear();
        self.shadow_queried.extend_from_slice(state.queried());
        state.clear_changes();
        #[cfg(test)]
        {
            self.reference = reference::FullDiff::of(state);
        }
        // The renames survive a power loss only once their directory does.
        let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(rotated)
    }

    /// Appends one delta frame: everything `state` changed since the last
    /// frame, plus the cost counters. No-op diff still writes a frame (the
    /// counters advanced). Drains the state's change log; the work is
    /// proportional to what changed.
    ///
    /// # Errors
    /// `InvalidInput` before the first [`StateJournal::write_base`] (there
    /// is no generation to extend, and the change log is left as it is);
    /// any error writing the frame.
    pub fn append_delta(
        &mut self,
        state: &mut CrawlState,
        rounds: u64,
        queries: u64,
    ) -> io::Result<()> {
        let Some(log) = self.log.as_mut() else {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "journal delta before base"));
        };
        let low_water = state.take_changes(&mut self.changed);
        let out = &mut self.frame;
        FrameLog::start_frame(out);
        out.extend_from_slice(b"d\t");
        put_u64(out, rounds);
        out.push(b'\t');
        put_u64(out, queries);
        out.push(b'\n');
        let known = self.shadow_status.len();
        for i in known..state.vocab.len() {
            let v = ValueId(i as u32);
            let status = state.status_of(v);
            out.extend_from_slice(b"v\t");
            put_u64(out, u64::from(state.vocab.attr_of(v).0));
            out.push(b'\t');
            put_escaped(out, state.vocab.value_str(v));
            out.push(b'\t');
            out.push(status_byte(status));
            out.push(b'\n');
            self.shadow_status.push(status);
        }
        // Logged writes, in id order, that left a framed id's status
        // different from the last frame (a write may restore it).
        self.changed.sort_unstable();
        self.changed.dedup();
        for &v in self.changed.iter().take_while(|v| v.index() < known) {
            let status = state.status_of(v);
            if status != self.shadow_status[v.index()] {
                self.shadow_status[v.index()] = status;
                out.extend_from_slice(b"s\t");
                put_u64(out, u64::from(v.0));
                out.push(b'\t');
                out.push(status_byte(status));
                out.push(b'\n');
            }
        }
        self.changed.clear();
        let queried = state.queried();
        let framed = self.shadow_queried.len();
        if low_water.is_some_and(|w| w < framed) && !queried.starts_with(&self.shadow_queried) {
            // A requeue took an id out of the framed prefix, and the ids
            // pushed since did not restore it: frame the whole list.
            // L_queried holds one id per issued query, and this path runs
            // only on requeues.
            out.extend_from_slice(b"qf\t");
            put_ids(out, queried.iter().map(|v| v.0));
            out.push(b'\n');
            self.shadow_queried.clear();
            self.shadow_queried.extend_from_slice(queried);
        } else if queried.len() > framed {
            out.extend_from_slice(b"qa\t");
            put_ids(out, queried[framed..].iter().map(|v| v.0));
            out.push(b'\n');
            self.shadow_queried.extend_from_slice(&queried[framed..]);
        }
        for (key, vals) in state.local.keyed_since(self.shadow_records_len) {
            put_record_line(out, key, vals.iter().map(|v| v.0));
        }
        #[cfg(test)]
        assert_eq!(
            std::str::from_utf8(&self.frame[dwc_store::FRAME_HEADER..]).unwrap(),
            self.reference.frame(state, rounds, queries),
            "delta frame differs from the full-state diff"
        );
        log.append(&mut self.frame)?;
        self.shadow_records_len = state.local.num_records();
        Ok(())
    }

    /// Forces this handle's generation to durable storage. Deltas are only
    /// flushed to the OS as they are appended; a finishing crawl syncs once,
    /// so its final state is as durable as its last base.
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.as_mut().map_or(Ok(()), FrameLog::sync)
    }

    /// Replays the journal at `path`: parses the base checkpoint from frame
    /// 0 and folds every intact delta frame into it. When the primary holds
    /// no intact base (missing, or damaged within its first frame), the
    /// `.bak` generation is replayed instead; `.tmp` is never read. Returns
    /// `Ok(None)` when neither file holds any bytes — a journal that has not
    /// written its first base.
    ///
    /// # Errors
    /// An unreadable file; a primary with bytes but no intact base and no
    /// intact `.bak`; or intact frames that do not decode to a consistent
    /// state — frames that passed their checksums are not torn writes, so a
    /// bad one is an error, not a tail to discard.
    pub fn recover(path: &Path) -> io::Result<Option<JournalRecovery>> {
        let mut replay = FrameLog::replay(path)?;
        let mut from_backup = false;
        if replay.frames.is_empty() {
            let backup = FrameLog::replay(&sibling(path, ".bak"))?;
            if backup.frames.is_empty() {
                return if replay.torn || backup.torn {
                    Err(invalid(format!("journal {} has no intact base frame", path.display())))
                } else {
                    Ok(None)
                };
            }
            (replay, from_backup) = (backup, true);
        }
        let text = std::str::from_utf8(&replay.frames[0])
            .map_err(|_| invalid("journal base not UTF-8".into()))?;
        let mut cp =
            Checkpoint::from_text(text).map_err(|e| invalid(format!("journal base: {e}")))?;
        let mut deltas_applied = 0u64;
        for frame in &replay.frames[1..] {
            let text = std::str::from_utf8(frame)
                .map_err(|_| invalid("journal delta not UTF-8".into()))?;
            apply_delta(&mut cp, text).map_err(|e| invalid(format!("journal delta: {e}")))?;
            deltas_applied += 1;
        }
        cp.validate().map_err(|e| invalid(format!("journal deltas: {e}")))?;
        Ok(Some(JournalRecovery { checkpoint: cp, deltas_applied, torn: replay.torn, from_backup }))
    }
}

/// The `v` and `r` lines of a journal's last base, with the vocabulary and
/// record counts they cover. Both sections only grow, so each rebase
/// formats just the entries added since the one before.
#[derive(Debug, Default)]
struct BaseSections {
    values: usize,
    value_lines: Vec<u8>,
    records: usize,
    record_lines: Vec<u8>,
}

impl BaseSections {
    /// Formats the vocabulary entries and records `state` added since the
    /// last call.
    fn extend(&mut self, state: &CrawlState) {
        for i in self.values..state.vocab.len() {
            let v = ValueId(i as u32);
            put_value_line(
                &mut self.value_lines,
                state.vocab.attr_of(v).0,
                state.vocab.value_str(v),
            );
        }
        self.values = state.vocab.len();
        for (key, vals) in state.local.keyed_since(self.records) {
            put_record_line(&mut self.record_lines, key, vals.iter().map(|v| v.0));
        }
        self.records = state.local.num_records();
    }
}

/// Folds one delta frame into a checkpoint.
fn apply_delta(cp: &mut Checkpoint, text: &str) -> Result<(), CheckpointError> {
    for line in text.lines() {
        let mut parts = line.split('\t');
        let op = parts.next().unwrap_or("");
        match op {
            "d" => {
                let rounds = parts.next().ok_or(CheckpointError::Malformed("journal rounds"))?;
                let queries = parts.next().ok_or(CheckpointError::Malformed("journal queries"))?;
                cp.rounds =
                    rounds.parse().map_err(|_| CheckpointError::Malformed("journal rounds"))?;
                cp.queries =
                    queries.parse().map_err(|_| CheckpointError::Malformed("journal queries"))?;
            }
            "v" => {
                let attr: u16 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(CheckpointError::Malformed("journal value attr"))?;
                let s = unescape(parts.next().ok_or(CheckpointError::Malformed("journal value"))?)?;
                let st =
                    status_from(parts.next().ok_or(CheckpointError::Malformed("journal value"))?)?;
                cp.values.push((attr, s));
                cp.status.push(st);
            }
            "s" => {
                let idx: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(CheckpointError::Malformed("journal status index"))?;
                let st =
                    status_from(parts.next().ok_or(CheckpointError::Malformed("journal status"))?)?;
                *cp.status
                    .get_mut(idx)
                    .ok_or(CheckpointError::Malformed("journal status index"))? = st;
            }
            "qa" => {
                let ids = parse_ids(parts.next().unwrap_or(""), "journal queried id")?;
                cp.queried.extend(ids);
            }
            "qf" => {
                cp.queried = parse_ids(parts.next().unwrap_or(""), "journal queried id")?;
            }
            "r" => {
                let key: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(CheckpointError::Malformed("journal record key"))?;
                let ids = parse_ids(parts.next().unwrap_or(""), "journal record value")?;
                cp.records.push((key, ids));
            }
            _ => return Err(CheckpointError::Malformed("journal op")),
        }
    }
    Ok(())
}

/// The full-state diff [`StateJournal::append_delta`] replaced, kept as its
/// byte-parity oracle: every frame the journal writes under test is asserted
/// equal to this one's.
#[cfg(test)]
mod reference {
    use crate::checkpoint::status_byte;
    use crate::state::{CandStatus, CrawlState};

    /// Shadow of the whole state at the last frame.
    #[derive(Debug, Default)]
    pub(super) struct FullDiff {
        status: Vec<CandStatus>,
        records_len: usize,
        queried: Vec<u32>,
    }

    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '%' => out.push_str("%25"),
                '\t' => out.push_str("%09"),
                '\n' => out.push_str("%0A"),
                '\r' => out.push_str("%0D"),
                _ => out.push(c),
            }
        }
        out
    }

    impl FullDiff {
        pub(super) fn of(state: &CrawlState) -> Self {
            FullDiff {
                status: state.status().to_vec(),
                records_len: state.local.num_records(),
                queried: state.queried().iter().map(|v| v.0).collect(),
            }
        }

        /// The frame for everything `state` changed since the last call:
        /// compares every status, rebuilds `L_queried` and compares its
        /// prefix.
        pub(super) fn frame(&mut self, state: &CrawlState, rounds: u64, queries: u64) -> String {
            let mut out = String::new();
            out.push_str(&format!("d\t{rounds}\t{queries}\n"));
            let status = state.status();
            for (i, &now) in status.iter().enumerate().skip(self.status.len()) {
                let v = dwc_model::ValueId(i as u32);
                out.push_str(&format!(
                    "v\t{}\t{}\t{}\n",
                    state.vocab.attr_of(v).0,
                    escape(state.vocab.value_str(v)),
                    char::from(status_byte(now)),
                ));
            }
            for (i, (&now, &was)) in status.iter().zip(&self.status).enumerate() {
                if now != was {
                    out.push_str(&format!("s\t{i}\t{}\n", char::from(status_byte(now))));
                }
            }
            let queried: Vec<u32> = state.queried().iter().map(|v| v.0).collect();
            if queried.len() >= self.queried.len()
                && queried[..self.queried.len()] == self.queried[..]
            {
                if queried.len() > self.queried.len() {
                    let appended: Vec<String> =
                        queried[self.queried.len()..].iter().map(u32::to_string).collect();
                    out.push_str(&format!("qa\t{}\n", appended.join(",")));
                }
            } else {
                let full: Vec<String> = queried.iter().map(u32::to_string).collect();
                out.push_str(&format!("qf\t{}\n", full.join(",")));
            }
            for (key, vals) in state.local.keyed_since(self.records_len) {
                let ids: Vec<String> = vals.iter().map(|v| v.0.to_string()).collect();
                out.push_str(&format!("r\t{key}\t{}\n", ids.join(",")));
            }
            self.status = status.to_vec();
            self.records_len = state.local.num_records();
            self.queried = queried;
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A journal path in a fresh directory (its `.tmp` and `.bak` siblings
    /// land there too); [`clean`] removes the directory.
    fn scratch(name: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dwc-journal-{}-{n}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("crawl.jnl")
    }

    fn clean(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// One attribute with one frontier value, `a1`.
    fn base_state() -> CrawlState {
        let mut st = CrawlState::new(vec!["A".into()], vec![true], 10);
        let a1 = st.intern(dwc_model::AttrId(0), "a1");
        st.set_status(a1, CandStatus::Frontier);
        st
    }

    /// Writes `st` as the journal's base, at `rounds` rounds; returns the
    /// base and whether the rebase rotated a previous generation.
    fn write_base(j: &mut StateJournal, st: &mut CrawlState, rounds: u64) -> (Checkpoint, bool) {
        let rotated = j.write_base(st, rounds, 0).unwrap();
        (Checkpoint::capture(st, rounds, 0), rotated)
    }

    /// Discovers a new frontier value and frames the change.
    fn one_delta(j: &mut StateJournal, st: &mut CrawlState, value: &str, rounds: u64) {
        let v = st.intern(dwc_model::AttrId(0), value);
        st.set_status(v, CandStatus::Frontier);
        j.append_delta(st, rounds, rounds).unwrap();
    }

    /// Writes `frames` as a journal at `path`, checksummed and intact.
    fn write_frames(path: &Path, frames: &[&str]) {
        let mut log = FrameLog::create(path).unwrap();
        let mut buf = Vec::new();
        for frame in frames {
            FrameLog::start_frame(&mut buf);
            buf.extend_from_slice(frame.as_bytes());
            log.append(&mut buf).unwrap();
        }
    }

    #[test]
    fn base_only_recovers_the_checkpoint() {
        let path = scratch("base");
        let mut j = StateJournal::open(&path);
        assert!(!j.has_base());
        let (base, _) = write_base(&mut j, &mut base_state(), 0);
        let rec = StateJournal::recover(&path).unwrap().unwrap();
        assert_eq!(rec.checkpoint, base);
        assert_eq!(rec.deltas_applied, 0);
        assert!(!rec.torn && !rec.from_backup);
        assert!(!sibling(&path, ".tmp").exists(), "the temporary is renamed away");
        clean(&path);
    }

    #[test]
    fn missing_or_baseless_journal_recovers_none() {
        let path = scratch("missing");
        assert!(StateJournal::recover(&path).unwrap().is_none());
        let _ = StateJournal::open(&path);
        assert!(!path.exists(), "opening writes nothing");
        std::fs::write(&path, b"").unwrap();
        assert!(StateJournal::recover(&path).unwrap().is_none(), "no base frame yet");
        clean(&path);
    }

    #[test]
    fn deltas_replay_state_changes() {
        let path = scratch("deltas");
        let mut j = StateJournal::open(&path);
        let mut st = base_state();
        write_base(&mut j, &mut st, 0);

        // Simulate one completed query directly on the CrawlState.
        let a1 = dwc_model::ValueId(0);
        st.set_status(a1, CandStatus::Queried);
        st.push_queried(a1);
        let a2 = st.intern(dwc_model::AttrId(0), "a2");
        st.set_status(a2, CandStatus::Frontier);
        st.local.insert(7, &[a1, a2]);
        j.append_delta(&mut st, 3, 1).unwrap();

        let rec = StateJournal::recover(&path).unwrap().unwrap();
        assert_eq!(rec.deltas_applied, 1);
        let cp = rec.checkpoint;
        assert_eq!(cp.rounds, 3);
        assert_eq!(cp.queries, 1);
        assert_eq!(cp.values, vec![(0, "a1".into()), (0, "a2".into())]);
        assert_eq!(cp.status, vec![CandStatus::Queried, CandStatus::Frontier]);
        assert_eq!(cp.queried, vec![0]);
        assert_eq!(cp.records, vec![(7, vec![0, 1])]);

        // A requeue pops L_queried and flips the status back: the journal
        // frames the full list.
        assert!(st.remove_queried(a1));
        st.set_status(a1, CandStatus::Frontier);
        j.append_delta(&mut st, 4, 2).unwrap();
        let rec = StateJournal::recover(&path).unwrap().unwrap();
        assert_eq!(rec.checkpoint.queried, Vec::<u32>::new());
        assert_eq!(rec.checkpoint.status[0], CandStatus::Frontier);
        assert_eq!(rec.checkpoint, Checkpoint::capture(&st, 4, 2));
        clean(&path);
    }

    #[test]
    fn rebased_journal_truncates_deltas() {
        let path = scratch("rebase");
        let mut j = StateJournal::open(&path);
        let mut st = base_state();
        write_base(&mut j, &mut st, 0);
        one_delta(&mut j, &mut st, "a2", 1);
        assert_eq!(j.frames(), 2);
        write_base(&mut j, &mut st, 9);
        assert_eq!(j.frames(), 1, "rebase drops absorbed deltas");
        let rec = StateJournal::recover(&path).unwrap().unwrap();
        assert_eq!(rec.checkpoint.rounds, 9);
        assert_eq!(rec.deltas_applied, 0);
        clean(&path);
    }

    #[test]
    fn opening_keeps_frames_until_the_next_base() {
        let path = scratch("reopen");
        let mut j = StateJournal::open(&path);
        let mut st = base_state();
        write_base(&mut j, &mut st, 0);
        one_delta(&mut j, &mut st, "a2", 2);
        drop(j);

        let mut reopened = StateJournal::open(&path);
        assert!(!reopened.has_base());
        assert_eq!(FrameLog::replay(&path).unwrap().frames.len(), 2, "opening truncated");
        let rec = StateJournal::recover(&path).unwrap().unwrap();
        assert_eq!(rec.checkpoint, Checkpoint::capture(&st, 2, 2));
        write_base(&mut reopened, &mut st, 2);
        assert_eq!(StateJournal::recover(&path).unwrap().unwrap().deltas_applied, 0);
        clean(&path);
    }

    #[test]
    fn rebase_rotates_the_previous_generation_to_bak() {
        let path = scratch("rotate");
        let mut j = StateJournal::open(&path);
        let mut st = base_state();
        let (_, rotated) = write_base(&mut j, &mut st, 0);
        assert!(!rotated, "nothing to rotate on the first base");
        one_delta(&mut j, &mut st, "a2", 1);
        let before = Checkpoint::capture(&st, 1, 1);
        let (base, rotated) = write_base(&mut j, &mut st, 5);
        assert!(rotated, "the second base rotates the first generation");
        assert_eq!(StateJournal::recover(&path).unwrap().unwrap().checkpoint, base);
        let bak = StateJournal::recover(&sibling(&path, ".bak")).unwrap().unwrap();
        assert_eq!(bak.checkpoint, before, "the previous generation survives as .bak");
        assert_eq!(bak.deltas_applied, 1);
        clean(&path);
    }

    /// Flips one payload byte of the base frame: its checksum fails, so the
    /// primary holds no intact base.
    fn damage_base(path: &Path) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[20] ^= 0x01;
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn damaged_primary_base_recovers_from_bak() {
        let path = scratch("fallback");
        let mut j = StateJournal::open(&path);
        let mut st = base_state();
        write_base(&mut j, &mut st, 0);
        one_delta(&mut j, &mut st, "a2", 1);
        let previous = Checkpoint::capture(&st, 1, 1);
        write_base(&mut j, &mut st, 6);
        one_delta(&mut j, &mut st, "a3", 7);
        damage_base(&path);
        let rec = StateJournal::recover(&path).unwrap().unwrap();
        assert!(rec.from_backup, "recovery must come from the .bak generation");
        assert_eq!(rec.checkpoint, previous, "one rebase interval lost, crawl still resumable");
        clean(&path);
    }

    #[test]
    fn damaged_primary_without_bak_is_an_error() {
        let path = scratch("no-backup");
        let mut j = StateJournal::open(&path);
        write_base(&mut j, &mut base_state(), 0);
        damage_base(&path);
        let err = StateJournal::recover(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        clean(&path);
    }

    /// Of a journal's two generations, recovery resumes from the one with
    /// more completed queries: the primary whenever it holds a base (a
    /// rebase starts it where `.bak` ends), `.bak` only without one.
    #[test]
    fn resume_point_prefers_whichever_source_has_more_queries() {
        let path = scratch("choice");
        let mut j = StateJournal::open(&path);
        let mut st = base_state();
        write_base(&mut j, &mut st, 0);
        for (i, value) in ["a2", "a3", "a4"].into_iter().enumerate() {
            one_delta(&mut j, &mut st, value, i as u64 + 1);
        }
        j.write_base(&mut st, 3, 3).unwrap();
        one_delta(&mut j, &mut st, "a5", 4);
        let newest = StateJournal::recover(&path).unwrap().unwrap();
        let bak = StateJournal::recover(&sibling(&path, ".bak")).unwrap().unwrap();
        assert_eq!((newest.checkpoint.queries, bak.checkpoint.queries), (4, 3));
        assert!(!newest.from_backup);
        assert_eq!(newest.checkpoint, Checkpoint::capture(&st, 4, 4));

        std::fs::remove_file(&path).unwrap();
        let fallback = StateJournal::recover(&path).unwrap().unwrap();
        assert!(fallback.from_backup, "a primary lost between the two renames");
        assert_eq!(fallback.checkpoint, bak.checkpoint);
        std::fs::remove_file(sibling(&path, ".bak")).unwrap();
        assert!(StateJournal::recover(&path).unwrap().is_none());
        clean(&path);
    }

    #[test]
    fn leftover_tmp_is_never_read() {
        let path = scratch("tmp");
        let mut j = StateJournal::open(&path);
        let (base, _) = write_base(&mut j, &mut base_state(), 2);
        let mut newer = base.clone();
        newer.rounds = 99;
        let tmp = sibling(&path, ".tmp");
        write_frames(&tmp, &[&newer.to_text()]);
        assert_eq!(StateJournal::recover(&path).unwrap().unwrap().checkpoint, base);
        std::fs::remove_file(&path).unwrap();
        assert!(StateJournal::recover(&path).unwrap().is_none(), "a valid .tmp is still not read");
        clean(&path);
    }

    #[test]
    fn rebase_creates_parent_directories() {
        let root = scratch("deep");
        let path = root.with_file_name("a").join("b").join("crawl.jnl");
        let mut j = StateJournal::open(&path);
        let (base, _) = write_base(&mut j, &mut base_state(), 2);
        assert_eq!(StateJournal::recover(&path).unwrap().unwrap().checkpoint, base);
        clean(&root);
    }

    #[test]
    fn mid_list_removal_frames_the_full_list() {
        let path = scratch("swap-remove");
        let mut j = StateJournal::open(&path);
        let mut st = CrawlState::new(vec!["A".into()], vec![true], 10);
        let ids: Vec<ValueId> =
            ["a", "b", "c"].iter().map(|s| st.intern(dwc_model::AttrId(0), s)).collect();
        for &v in &ids {
            st.set_status(v, CandStatus::Queried);
            st.push_queried(v);
        }
        write_base(&mut j, &mut st, 0);

        // Take `a` out of the middle of the framed list: `c` moves into its
        // slot, so the list no longer extends the framed prefix.
        let d = st.intern(dwc_model::AttrId(0), "d");
        st.set_status(d, CandStatus::Queried);
        st.push_queried(d);
        assert!(st.remove_queried(ids[0]));
        st.set_status(ids[0], CandStatus::Frontier);
        assert_eq!(st.queried(), [d, ids[1], ids[2]]);
        j.append_delta(&mut st, 5, 1).unwrap();

        let replay = FrameLog::replay(&path).unwrap();
        let delta = std::str::from_utf8(&replay.frames[1]).unwrap();
        assert_eq!(delta, "d\t5\t1\nv\t0\td\tQ\ns\t0\tF\nqf\t3,1,2\n");
        let rec = StateJournal::recover(&path).unwrap().unwrap();
        assert_eq!(rec.checkpoint, Checkpoint::capture(&st, 5, 1));
        clean(&path);
    }

    /// Checksummed frames that decode to an impossible state are errors,
    /// never aborts: a base whose attribute count would size a 2.4 TB
    /// allocation, and deltas naming ids past the vocabulary.
    #[test]
    fn frames_with_impossible_counts_or_ids_are_errors() {
        let huge = &crate::checkpoint::checksummed("meta\t10\t0\t0\t0\nattrs\t100000000000\n");
        let one_value = &crate::checkpoint::checksummed(
            "meta\t10\t0\t0\t0\nattrs\t1\na\tA\t1\nvalues\t1\nv\t0\ta1\nstatus\tF\nqueried\t\n\
             records\t0\n",
        );
        let cases: [&[&str]; 5] = [
            &[huge],
            &[one_value, "d\t1\t1\nr\t9\t0,4\n"],
            &[one_value, "d\t1\t1\nqa\t0,1\n"],
            &[one_value, "d\t1\t1\nv\t3\ta2\tF\n"],
            &[one_value, "d\t1\t1\nv\t0\ta1\tF\n"],
        ];
        for frames in cases {
            let path = scratch("bad-frames");
            write_frames(&path, frames);
            let err = StateJournal::recover(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{frames:?}");
            clean(&path);
        }
        let path = scratch("good-frames");
        write_frames(&path, &[one_value, "d\t1\t1\nqa\t0\n"]);
        assert_eq!(StateJournal::recover(&path).unwrap().unwrap().checkpoint.queried, [0]);
        clean(&path);
    }

    #[test]
    fn a_delta_before_any_base_is_an_invalid_input_error() {
        let path = scratch("no-base");
        let mut j = StateJournal::open(&path);
        let mut st = base_state();
        let err = j.append_delta(&mut st, 1, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!path.exists(), "nothing is written without a base");
        write_base(&mut j, &mut st, 1);
        one_delta(&mut j, &mut st, "a2", 2);
        let rec = StateJournal::recover(&path).unwrap().unwrap();
        assert_eq!(
            rec.checkpoint,
            Checkpoint::capture(&st, 2, 2),
            "the refused delta lost nothing"
        );
        clean(&path);
    }

    /// A two-generation journal (a `.bak`, and a primary whose base and
    /// deltas carry escaped values, status changes, a requeue and records)
    /// under every truncation and every single-bit flip of the primary:
    /// recovery returns a state the crawl passed through — the primary's
    /// base plus a prefix of its deltas, or the `.bak` generation's state —
    /// or an error. It never panics.
    #[test]
    fn damaged_primaries_recover_a_state_the_crawl_passed_through_or_err() {
        let path = scratch("adversarial");
        let mut j = StateJournal::open(&path);
        let mut st = base_state();
        let mut counters = 0;
        let mut step = |j: &mut StateJournal, st: &mut CrawlState, value: &str| {
            counters += 1;
            let v = st.intern(dwc_model::AttrId(0), value);
            st.set_status(v, CandStatus::Queried);
            st.push_queried(v);
            st.local.insert(counters, &[ValueId(0), v]);
            j.append_delta(st, counters, counters).unwrap();
            Checkpoint::capture(st, counters, counters)
        };
        j.write_base(&mut st, 0, 0).unwrap();
        step(&mut j, &mut st, "b%\t1");
        let bak_state = step(&mut j, &mut st, "c\r\nd");
        j.write_base(&mut st, 2, 2).unwrap();
        let mut primary_states = vec![bak_state.clone()];
        primary_states.push(step(&mut j, &mut st, "é漢%0A"));
        assert!(st.remove_queried(ValueId(1)));
        st.set_status(ValueId(1), CandStatus::Frontier);
        primary_states.push(step(&mut j, &mut st, "\n"));
        let primary = std::fs::read(&path).unwrap();

        let mut outcomes = [0usize; 3];
        let mut check = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            match StateJournal::recover(&path) {
                Ok(Some(rec)) if rec.from_backup => {
                    assert_eq!(rec.checkpoint, bak_state, "{what}: .bak generation");
                    outcomes[1] += 1;
                }
                Ok(Some(rec)) => {
                    let at = rec.deltas_applied as usize;
                    assert_eq!(Some(&rec.checkpoint), primary_states.get(at), "{what}");
                    outcomes[0] += 1;
                }
                Ok(None) => panic!("{what}: a journal with a .bak recovered nothing"),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}");
                    outcomes[2] += 1;
                }
            }
        };
        for cut in 0..primary.len() {
            check(&primary[..cut], &format!("cut at {cut}"));
        }
        for bit in 0..primary.len() * 8 {
            let mut flipped = primary.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, &format!("bit {bit} flipped"));
        }
        let [primary_prefix, backup, _] = outcomes;
        assert!(primary_prefix > 0 && backup > 0, "{outcomes:?}");
        clean(&path);
    }

    /// Value and attribute-name fragments for [`random_interleavings`]: the
    /// format's metacharacters, multi-byte UTF-8 and plain ASCII.
    const FRAGMENTS: [&str; 8] = ["%", "\t", "\r", "\n", "é", "漢", "a", "b7"];

    fn text(parts: &[usize]) -> String {
        parts.iter().map(|&i| FRAGMENTS[i]).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Random interleavings of interning, status writes, `L_queried`
        /// pushes and requeues, record inserts, bases and deltas: every base
        /// equals `Checkpoint::to_text` of the live state and every delta
        /// the full-state diff (both asserted inside the journal), and
        /// recovery returns the live state after each frame.
        #[test]
        fn random_interleavings(
            attrs in proptest::collection::vec(proptest::collection::vec(0usize..8, 0..4), 1..4),
            ops in proptest::collection::vec(
                (
                    0u8..7,
                    (0u32..64, 0u64..24),
                    proptest::collection::vec(0usize..8, 0..5),
                    proptest::collection::vec(0u32..64, 0..5),
                ),
                1..40,
            ),
        ) {
            let path = scratch("interleavings");
            let names: Vec<String> = attrs.iter().map(|a| text(a)).collect();
            let mut st = CrawlState::new(names, vec![true; attrs.len()], 10);
            let mut j = StateJournal::open(&path);
            let mut counters = 0;
            for (op, (pick, key), value, ids) in ops {
                let n = st.vocab.len() as u32;
                let id = |i: u32| ValueId(i % n.max(1));
                match op {
                    0 => {
                        st.intern(dwc_model::AttrId((pick as usize % attrs.len()) as u16), &text(&value));
                    }
                    1 if n > 0 => {
                        let status = [CandStatus::Undiscovered, CandStatus::Frontier, CandStatus::Queried];
                        st.set_status(id(pick), status[key as usize % 3]);
                    }
                    2 if n > 0 => {
                        st.set_status(id(pick), CandStatus::Queried);
                        st.push_queried(id(pick));
                    }
                    3 if !st.queried().is_empty() => {
                        let v = st.queried()[pick as usize % st.queried().len()];
                        proptest::prop_assert!(st.remove_queried(v));
                        st.set_status(v, CandStatus::Frontier);
                    }
                    4 if n > 0 => {
                        let record: Vec<ValueId> = ids.iter().map(|&i| id(i)).collect();
                        st.local.insert(key, &record);
                    }
                    5 | 6 => {
                        counters += 1;
                        if op == 5 {
                            j.write_base(&mut st, counters, counters).unwrap();
                        } else if let Err(e) = j.append_delta(&mut st, counters, counters) {
                            proptest::prop_assert!(!j.has_base() && e.kind() == io::ErrorKind::InvalidInput);
                            continue;
                        }
                        let rec = StateJournal::recover(&path).unwrap().unwrap();
                        proptest::prop_assert_eq!(rec.checkpoint, Checkpoint::capture(&st, counters, counters));
                    }
                    _ => {}
                }
            }
            clean(&path);
        }
    }

    /// Journaled crawls under every fault kind of the CI matrix, with and
    /// without periodic rebases: every frame must equal the full-state
    /// diff byte for byte (asserted inside `append_delta`), and `burst`
    /// must reach the requeue path.
    #[test]
    fn delta_frames_match_the_full_state_diff_across_fault_kinds() {
        use crate::fault::{FaultKind, FaultPlan, FaultPlanSource};
        use crate::policy::PolicyKind;
        use crate::{CrawlConfig, Crawler, ProberMode};
        use dwc_server::{InterfaceSpec, WebDbServer};

        let table = dwc_datagen::Preset::Imdb.table(0.002, 3);
        let spec = InterfaceSpec::permissive(table.schema(), 10).with_result_cap(40);
        let plans = [
            ("none", FaultPlan::new()),
            ("burst", FaultPlan::new().burst(15, 40)),
            ("stall", FaultPlan::seeded(7, 600, 0.08, &[FaultKind::Stall { rounds: 3 }])),
            ("corrupt", FaultPlan::seeded(7, 600, 0.10, &[FaultKind::Corrupt])),
            (
                "mixed",
                FaultPlan::seeded(
                    7,
                    600,
                    0.08,
                    &[FaultKind::Transient, FaultKind::Stall { rounds: 2 }, FaultKind::Corrupt],
                ),
            ),
        ];
        for (kind, plan) in plans {
            for checkpoint_every in [None, Some(7)] {
                let path = scratch(kind);
                let mut config = CrawlConfig::builder()
                    .max_rounds(600)
                    .prober(ProberMode::Wire)
                    .max_retries(4)
                    .journal_path(&path);
                if let Some(every) = checkpoint_every {
                    config = config.checkpoint_every(every);
                }
                let source = FaultPlanSource::new(
                    WebDbServer::new(table.clone(), spec.clone()),
                    plan.clone(),
                );
                let mut crawler =
                    Crawler::new(source, PolicyKind::GreedyLink.build(), config.build().unwrap());
                crawler.add_seed("Language", "Language_0");
                crawler.add_seed("Actor", "Actor_0");
                while crawler.elapsed_rounds() < 600 && crawler.step().is_some() {}
                let rec = StateJournal::recover(&path).unwrap().unwrap();
                assert_eq!(rec.checkpoint, crawler.checkpoint(), "{kind}: recovered state");
                let report = crawler.into_report(crate::StopReason::RoundBudget);
                if kind == "burst" {
                    assert!(report.requeued_queries > 0, "burst must exercise requeues");
                }
                clean(&path);
            }
        }
    }

    /// A journal-only crawl rebasing every `k` queries never holds more
    /// than its base and `k` deltas, and still recovers the exact state.
    #[test]
    fn rebasing_crawl_holds_at_most_k_plus_one_frames() {
        use crate::policy::PolicyKind;
        use crate::{CrawlConfig, Crawler};
        use dwc_server::{InterfaceSpec, WebDbServer};

        let table = dwc_datagen::Preset::Imdb.table(0.002, 3);
        let server = WebDbServer::new(table.clone(), InterfaceSpec::permissive(table.schema(), 10));
        let path = scratch("bounded");
        let k = 5;
        let config = CrawlConfig::builder().max_rounds(300).journal_path(&path).checkpoint_every(k);
        let mut crawler =
            Crawler::new(&server, PolicyKind::GreedyLink.build(), config.build().unwrap());
        crawler.add_seed("Language", "Language_0");
        while crawler.elapsed_rounds() < 300 && crawler.step().is_some() {
            let frames = FrameLog::replay(&path).unwrap().frames.len() as u64;
            assert!(
                frames <= k + 1,
                "{frames} frames after {} queries",
                crawler.metrics().queries()
            );
        }
        assert!(crawler.checkpoints_written() >= 3, "the crawl must rebase several times");
        assert_eq!(crawler.checkpoints_written(), crawler.metrics().queries() / k);
        assert_eq!(StateJournal::recover(&path).unwrap().unwrap().checkpoint, crawler.checkpoint());
        clean(&path);
    }

    /// A rebase that cannot write its temporary emits `CheckpointFailed`
    /// and the crawl goes on: a journal with a base keeps extending its
    /// previous generation, one that never wrote a base is reopened at the
    /// next due checkpoint, and persistence resumes once the obstacle is
    /// gone.
    #[test]
    fn failed_rebases_keep_the_previous_generation_and_retry() {
        use crate::policy::PolicyKind;
        use crate::{CrawlConfig, Crawler};
        use dwc_server::{InterfaceSpec, WebDbServer};

        let table = dwc_datagen::Preset::Imdb.table(0.002, 3);
        let server = WebDbServer::new(table.clone(), InterfaceSpec::permissive(table.schema(), 10));
        let path = scratch("failing");
        let (tmp, bak) = (sibling(&path, ".tmp"), sibling(&path, ".bak"));
        let k = 4;
        let config = CrawlConfig::builder().journal_path(&path).checkpoint_every(k);
        let mut crawler =
            Crawler::new(&server, PolicyKind::GreedyLink.build(), config.build().unwrap());
        crawler.add_seed("Language", "Language_0");
        let step_to = |crawler: &mut Crawler<&WebDbServer>, queries: u64| {
            while crawler.metrics().queries() < queries {
                crawler.step().expect("the frontier outlasts the test");
            }
        };

        // A directory in the temporary's place fails every rebase, the
        // crawl's first base included: the crawl runs unjournaled.
        std::fs::create_dir(&tmp).unwrap();
        step_to(&mut crawler, k);
        assert!(!path.exists());
        std::fs::remove_dir(&tmp).unwrap();
        step_to(&mut crawler, 2 * k);
        assert_eq!(StateJournal::recover(&path).unwrap().unwrap().checkpoint, crawler.checkpoint());

        std::fs::create_dir(&tmp).unwrap();
        step_to(&mut crawler, 3 * k + 1);
        assert!(!bak.exists(), "the failed rebase rotated nothing");
        let rec = StateJournal::recover(&path).unwrap().unwrap();
        assert_eq!((rec.checkpoint, rec.deltas_applied), (crawler.checkpoint(), k + 1));
        std::fs::remove_dir(&tmp).unwrap();
        step_to(&mut crawler, 4 * k);
        assert_eq!(StateJournal::recover(&path).unwrap().unwrap().checkpoint, crawler.checkpoint());
        assert!(bak.exists());

        let report = crawler.into_report(crate::StopReason::RoundBudget);
        assert_eq!((report.checkpoints_written, report.checkpoint_failures), (2, 2));
        clean(&path);
    }
}
