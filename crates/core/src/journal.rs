//! Incremental crawl-state journal: per-query delta frames over a
//! checkpointed base.
//!
//! Periodic checkpoints ([`crate::store::CheckpointStore`]) bound recovery
//! loss to one checkpoint *interval* — up to [`crate::crawler::DEFAULT_CHECKPOINT_EVERY`]
//! queries of re-spent communication rounds. The [`StateJournal`] closes that
//! gap with a log-structured append per completed query: frame 0 holds a
//! full v2 checkpoint blob (the *base*), every later frame a small text
//! *delta* describing exactly what one query changed — new vocabulary
//! entries, status transitions, `L_queried` growth, harvested records, and
//! the cost counters. Both layers share the same trust model: the base is a
//! checksummed checkpoint, each delta frame is independently checksummed by
//! the [`dwc_store::FrameLog`] framing, and recovery replays the longest
//! valid prefix — a crash mid-append loses at most the query being framed.
//!
//! When the periodic checkpointer succeeds, the crawler rewrites the journal
//! base from the freshly persisted snapshot (the same serialized bytes) and
//! truncates the deltas: the journal never grows past one checkpoint
//! interval of frames. [`latest_resume_point`] picks whichever of the
//! journal and the checkpoint store holds more completed queries.
//!
//! **Cost.** A delta costs what its query changed, not what the crawl has
//! accumulated. The journal never rescans the state: [`CrawlState`] logs
//! every status write, and every `L_queried` removal lowers a low-water
//! mark. [`StateJournal::append_delta`] drains that log, compares only the
//! logged ids against a shadow status vector it patches in place, and reads
//! only the vocabulary, `L_queried` and record tails past the lengths it
//! last framed. The invariant this rests on: **all status writes go through
//! `CrawlState::set_status`** and all removals from `L_queried` through
//! `CrawlState::remove_queried` (the fields are private to enforce it).
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

use crate::checkpoint::{
    escape_into, push_ids, push_u64, status_char, unescape, Checkpoint, CheckpointError,
};
use crate::state::{CandStatus, CrawlState};
use crate::store::{CheckpointStore, StoreError};
use dwc_model::ValueId;
use dwc_store::FrameLog;
use std::io;
use std::path::Path;

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
}

/// Append-only per-query state journal over a [`FrameLog`].
#[derive(Debug)]
pub struct StateJournal {
    log: FrameLog,
    /// Statuses as of the last frame (its length is the framed vocabulary
    /// size), patched in place from the state's change log.
    shadow_status: Vec<CandStatus>,
    shadow_records_len: usize,
    shadow_queried_len: usize,
    /// The drained status-change log, handed back empty on the next drain.
    changed: Vec<ValueId>,
    /// The frame under construction, reused across frames.
    frame: String,
    has_base: bool,
    /// The full-state diff every frame must equal byte for byte.
    #[cfg(test)]
    reference: reference::FullDiff,
}

impl StateJournal {
    /// Opens the journal at `path`, creating it if missing. Existing frames
    /// are kept (a torn tail is cut off) until the first
    /// [`StateJournal::write_base`] resets the log, so a crawl resumed from
    /// this journal loses nothing to a crash before its first query.
    pub fn open(path: &Path) -> io::Result<Self> {
        let log =
            if path.exists() { FrameLog::open_append(path)? } else { FrameLog::create(path)? };
        Ok(StateJournal {
            log,
            shadow_status: Vec::new(),
            shadow_records_len: 0,
            shadow_queried_len: 0,
            changed: Vec::new(),
            frame: String::new(),
            has_base: false,
            #[cfg(test)]
            reference: reference::FullDiff::default(),
        })
    }

    /// Whether this handle has written its base frame yet.
    pub fn has_base(&self) -> bool {
        self.has_base
    }

    /// Frames in the journal (base + deltas).
    pub fn frames(&self) -> u64 {
        self.log.frames()
    }

    /// Resets the journal to a fresh base snapshot: truncates every frame
    /// and writes `base` — `state` serialized by [`Checkpoint::to_text`] —
    /// as frame 0. Called at crawl start (after seeds are planted) and after
    /// every successful periodic checkpoint, with the bytes the store just
    /// wrote; the journal then only carries deltas newer than durable state
    /// elsewhere. Clears the state's change log, which the base absorbed.
    pub fn write_base(&mut self, state: &mut CrawlState, base: &str) -> io::Result<()> {
        self.log.reset()?;
        self.log.append(base.as_bytes())?;
        self.log.sync()?;
        self.shadow_status.clear();
        self.shadow_status.extend_from_slice(state.status());
        self.shadow_records_len = state.local.num_records();
        self.shadow_queried_len = state.queried().len();
        state.clear_changes();
        self.has_base = true;
        #[cfg(test)]
        {
            self.reference = reference::FullDiff::of(state);
        }
        Ok(())
    }

    /// Appends one delta frame: everything `state` changed since the last
    /// frame, plus the cost counters. No-op diff still writes a frame (the
    /// counters advanced). Drains the state's change log; the work is
    /// proportional to what changed.
    ///
    /// # Panics
    /// Panics if called before [`StateJournal::write_base`].
    pub fn append_delta(
        &mut self,
        state: &mut CrawlState,
        rounds: u64,
        queries: u64,
    ) -> io::Result<()> {
        assert!(self.has_base, "journal delta before base frame");
        let low_water = state.take_changes(&mut self.changed);
        let out = &mut self.frame;
        out.clear();
        out.push_str("d\t");
        push_u64(out, rounds);
        out.push('\t');
        push_u64(out, queries);
        out.push('\n');
        let known = self.shadow_status.len();
        for i in known..state.vocab.len() {
            let v = ValueId(i as u32);
            let status = state.status_of(v);
            out.push_str("v\t");
            push_u64(out, u64::from(state.vocab.attr_of(v).0));
            out.push('\t');
            escape_into(out, state.vocab.value_str(v));
            out.push('\t');
            out.push(status_char(status));
            out.push('\n');
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
                out.push_str("s\t");
                push_u64(out, u64::from(v.0));
                out.push('\t');
                out.push(status_char(status));
                out.push('\n');
            }
        }
        self.changed.clear();
        let queried = state.queried();
        if low_water.is_some_and(|w| w < self.shadow_queried_len) {
            // A requeue took an id out of the framed prefix: frame the whole
            // list. L_queried holds one id per issued query, and this path
            // runs only on requeues.
            out.push_str("qf\t");
            push_ids(out, queried.iter().map(|v| v.0));
            out.push('\n');
        } else if queried.len() > self.shadow_queried_len {
            out.push_str("qa\t");
            push_ids(out, queried[self.shadow_queried_len..].iter().map(|v| v.0));
            out.push('\n');
        }
        for (key, vals) in state.local.keyed_since(self.shadow_records_len) {
            out.push_str("r\t");
            push_u64(out, key);
            out.push('\t');
            push_ids(out, vals.iter().map(|v| v.0));
            out.push('\n');
        }
        #[cfg(test)]
        assert_eq!(
            self.frame,
            self.reference.frame(state, rounds, queries),
            "delta frame differs from the full-state diff"
        );
        self.log.append(self.frame.as_bytes())?;
        self.shadow_queried_len = state.queried().len();
        self.shadow_records_len = state.local.num_records();
        Ok(())
    }

    /// Replays the journal at `path`: parses the base checkpoint from frame
    /// 0 and folds every intact delta frame into it. Returns `Ok(None)` when
    /// the file is missing or holds no valid base frame.
    pub fn recover(path: &Path) -> io::Result<Option<JournalRecovery>> {
        let replay = FrameLog::replay(path)?;
        let Some(base) = replay.frames.first() else {
            return Ok(None);
        };
        let text = std::str::from_utf8(base)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "journal base not UTF-8"))?;
        let mut cp = Checkpoint::from_text(text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("journal base: {e}"))
        })?;
        let mut deltas_applied = 0u64;
        for frame in &replay.frames[1..] {
            let text = std::str::from_utf8(frame).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "journal delta not UTF-8")
            })?;
            apply_delta(&mut cp, text).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("journal delta: {e}"))
            })?;
            deltas_applied += 1;
        }
        Ok(Some(JournalRecovery { checkpoint: cp, deltas_applied, torn: replay.torn }))
    }
}

/// Where a [`ResumePoint`] was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeOrigin {
    /// The checkpoint store; `from_backup` when the primary file was
    /// unreadable and the `.bak` generation was used.
    Store {
        /// Whether the `.bak` generation was used.
        from_backup: bool,
    },
    /// The state journal, replayed to its last intact frame.
    Journal {
        /// Delta frames applied on top of the journal's base.
        deltas_applied: u64,
        /// Whether a torn tail was discarded.
        torn: bool,
    },
}

/// The state a crashed crawl resumes from.
#[derive(Debug)]
pub struct ResumePoint {
    /// The recovered state, ready for [`crate::Crawler::resume`].
    pub checkpoint: Checkpoint,
    /// Where it came from.
    pub origin: ResumeOrigin,
}

/// Finds the newest state a crashed crawl can resume from: the checkpoint
/// store's latest intact generation or the journal's last intact frame,
/// whichever has more completed queries (the store on a tie). A journal
/// runs up to one checkpoint interval ahead of the store, so preferring it
/// keeps those queries' rounds from being spent twice.
///
/// # Errors
/// A journal that cannot be read or replayed is an error (its frames passed
/// their checksums, so a bad one is not a torn write). Without journal
/// state, the store's load error is returned; with neither source named,
/// or both empty, [`StoreError::Missing`].
pub fn latest_resume_point(
    store: Option<&CheckpointStore>,
    journal: Option<&Path>,
) -> Result<ResumePoint, StoreError> {
    let from_journal = match journal {
        Some(path) => StateJournal::recover(path)?,
        None => None,
    };
    let from_store = store.map(CheckpointStore::load_or_backup);
    match (from_store, from_journal) {
        (Some(Ok((cp, from_backup))), rec)
            if rec.as_ref().is_none_or(|r| r.checkpoint.queries <= cp.queries) =>
        {
            Ok(ResumePoint { checkpoint: cp, origin: ResumeOrigin::Store { from_backup } })
        }
        (_, Some(rec)) => Ok(ResumePoint {
            checkpoint: rec.checkpoint,
            origin: ResumeOrigin::Journal { deltas_applied: rec.deltas_applied, torn: rec.torn },
        }),
        (Some(Err(e)), None) => Err(e),
        _ => Err(StoreError::Missing(journal.unwrap_or(Path::new("")).to_path_buf())),
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
    use crate::checkpoint::status_char;
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
                    status_char(now),
                ));
            }
            for (i, (&now, &was)) in status.iter().zip(&self.status).enumerate() {
                if now != was {
                    out.push_str(&format!("s\t{i}\t{}\n", status_char(now)));
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
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dwc-journal-{}-{n}-{name}.jnl", std::process::id()))
    }

    /// One attribute with one frontier value, `a1`.
    fn base_state() -> CrawlState {
        let mut st = CrawlState::new(vec!["A".into()], vec![true], 10);
        let a1 = st.intern(dwc_model::AttrId(0), "a1");
        st.set_status(a1, CandStatus::Frontier);
        st
    }

    /// Writes `st` as the journal's base, at `rounds` rounds.
    fn write_base(j: &mut StateJournal, st: &mut CrawlState, rounds: u64) -> Checkpoint {
        let cp = Checkpoint::capture(st, rounds, 0);
        j.write_base(st, &cp.to_text()).unwrap();
        cp
    }

    #[test]
    fn base_only_recovers_the_checkpoint() {
        let path = scratch("base");
        let mut j = StateJournal::open(&path).unwrap();
        assert!(!j.has_base());
        let base = write_base(&mut j, &mut base_state(), 0);
        let rec = StateJournal::recover(&path).unwrap().unwrap();
        assert_eq!(rec.checkpoint, base);
        assert_eq!(rec.deltas_applied, 0);
        assert!(!rec.torn);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_or_baseless_journal_recovers_none() {
        let path = scratch("missing");
        assert!(StateJournal::recover(&path).unwrap().is_none());
        let _ = StateJournal::open(&path).unwrap();
        assert!(StateJournal::recover(&path).unwrap().is_none(), "no base frame yet");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deltas_replay_state_changes() {
        let path = scratch("deltas");
        let mut j = StateJournal::open(&path).unwrap();
        let mut st = base_state();
        write_base(&mut j, &mut st, 0);

        // Simulate one completed query directly on the CrawlState.
        let a1 = dwc_model::ValueId(0);
        st.set_status(a1, CandStatus::Queried);
        st.push_queried(a1);
        let a2 = st.intern(dwc_model::AttrId(0), "a2");
        st.set_status(a2, CandStatus::Frontier);
        st.local.insert(7, vec![a1, a2]);
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
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rebased_journal_truncates_deltas() {
        let path = scratch("rebase");
        let mut j = StateJournal::open(&path).unwrap();
        let mut st = base_state();
        write_base(&mut j, &mut st, 0);
        let a2 = st.intern(dwc_model::AttrId(0), "a2");
        st.set_status(a2, CandStatus::Frontier);
        j.append_delta(&mut st, 1, 1).unwrap();
        assert_eq!(j.frames(), 2);
        write_base(&mut j, &mut st, 9);
        assert_eq!(j.frames(), 1, "rebase drops absorbed deltas");
        let rec = StateJournal::recover(&path).unwrap().unwrap();
        assert_eq!(rec.checkpoint.rounds, 9);
        assert_eq!(rec.deltas_applied, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn opening_keeps_frames_until_the_next_base() {
        let path = scratch("reopen");
        let mut j = StateJournal::open(&path).unwrap();
        let mut st = base_state();
        write_base(&mut j, &mut st, 0);
        let a2 = st.intern(dwc_model::AttrId(0), "a2");
        st.set_status(a2, CandStatus::Frontier);
        j.append_delta(&mut st, 2, 1).unwrap();
        drop(j);

        let mut reopened = StateJournal::open(&path).unwrap();
        assert!(!reopened.has_base());
        assert_eq!(reopened.frames(), 2, "opening must not truncate the journal");
        let rec = StateJournal::recover(&path).unwrap().unwrap();
        assert_eq!(rec.checkpoint, Checkpoint::capture(&st, 2, 1));
        write_base(&mut reopened, &mut st, 2);
        assert_eq!(StateJournal::recover(&path).unwrap().unwrap().deltas_applied, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_list_removal_frames_the_full_list() {
        let path = scratch("swap-remove");
        let mut j = StateJournal::open(&path).unwrap();
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
        let _ = std::fs::remove_file(&path);
    }

    /// Journaled crawls under every fault kind of the CI matrix, with and
    /// without periodic checkpoints: every frame must equal the full-state
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
                let store = CheckpointStore::new(path.with_extension("ckpt"));
                let mut config = CrawlConfig::builder()
                    .max_rounds(600)
                    .prober(ProberMode::Wire)
                    .max_retries(4)
                    .journal_path(&path);
                if let Some(every) = checkpoint_every {
                    config = config.checkpoint_store(store.clone()).checkpoint_every(every);
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
                let _ = std::fs::remove_file(&path);
                let _ = std::fs::remove_file(store.path());
                let _ = std::fs::remove_file(store.backup_path());
            }
        }
    }

    #[test]
    fn resume_point_prefers_whichever_source_has_more_queries() {
        let path = scratch("resume-point");
        let store = CheckpointStore::new(path.with_extension("ckpt"));
        let mut st = base_state();
        let mut j = StateJournal::open(&path).unwrap();
        let base = write_base(&mut j, &mut st, 4);
        store.save(&base).unwrap();
        let tie = latest_resume_point(Some(&store), Some(&path)).unwrap();
        assert_eq!(tie.origin, ResumeOrigin::Store { from_backup: false });

        j.append_delta(&mut st, 6, 1).unwrap();
        let newer = latest_resume_point(Some(&store), Some(&path)).unwrap();
        assert_eq!(newer.origin, ResumeOrigin::Journal { deltas_applied: 1, torn: false });
        assert_eq!(newer.checkpoint.queries, 1);
        let journal_only = latest_resume_point(None, Some(&path)).unwrap();
        assert_eq!(journal_only.checkpoint, newer.checkpoint);

        std::fs::remove_file(&path).unwrap();
        let store_only = latest_resume_point(Some(&store), Some(&path)).unwrap();
        assert_eq!(store_only.checkpoint, base);
        std::fs::remove_file(store.path()).unwrap();
        assert!(matches!(
            latest_resume_point(Some(&store), Some(&path)),
            Err(StoreError::Missing(_))
        ));
        assert!(matches!(latest_resume_point(None, None), Err(StoreError::Missing(_))));
    }
}
