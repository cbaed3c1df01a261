//! Durable checkpoint storage: atomic writes, backup rotation, and
//! corruption-aware loading.
//!
//! A [`crate::Checkpoint`] is only worth its rounds if it survives the crash
//! it exists for. [`CheckpointStore`] owns one checkpoint file and writes it
//! the only safe way: serialize to a temporary sibling, flush it to disk,
//! rotate the previous generation to a `.bak` sibling, then atomically
//! rename the temporary into place. At every instant there is a complete
//! checkpoint on disk; a crash mid-save loses at most the snapshot being
//! written, never the previous one.
//!
//! Loading verifies the v2 checksum (via [`Checkpoint::from_text`]) and, when
//! the primary file is corrupt or half-written,
//! [`load_or_backup`](CheckpointStore::load_or_backup) falls back to the
//! rotated previous generation — trading one checkpoint interval of progress
//! for a crawl that resumes at all.

use crate::checkpoint::{Checkpoint, CheckpointError};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A checkpoint slot on disk: `<path>` (latest), `<path>.bak` (previous
/// generation), `<path>.tmp` (in-flight write, never read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointStore {
    path: PathBuf,
}

/// What a successful [`CheckpointStore::save_text`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveReceipt {
    /// Whether a previous generation existed and was rotated to `.bak`.
    pub rotated_backup: bool,
}

/// Errors loading from a [`CheckpointStore`].
#[derive(Debug)]
pub enum StoreError {
    /// No checkpoint file exists at the store's path.
    Missing(PathBuf),
    /// The file was read but did not parse (truncated, bit-rotted, foreign).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Why parsing rejected it.
        error: CheckpointError,
    },
    /// The file could not be read at all.
    Io(std::io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Missing(p) => write!(f, "no checkpoint at {}", p.display()),
            StoreError::Corrupt { path, error } => {
                write!(f, "checkpoint {} is corrupt: {error}", path.display())
            }
            StoreError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Corrupt { error, .. } => Some(error),
            StoreError::Io(e) => Some(e),
            StoreError::Missing(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl CheckpointStore {
    /// A store writing to `path` (created on first save; parent directories
    /// are created as needed).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointStore { path: path.into() }
    }

    /// The primary checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn sibling(&self, suffix: &str) -> PathBuf {
        let mut name = self.path.file_name().unwrap_or_default().to_os_string();
        name.push(suffix);
        self.path.with_file_name(name)
    }

    /// Path of the previous-generation backup.
    pub fn backup_path(&self) -> PathBuf {
        self.sibling(".bak")
    }

    /// Whether a primary checkpoint file exists.
    pub fn exists(&self) -> bool {
        self.path.exists()
    }

    /// Persists `checkpoint` atomically: write `<path>.tmp`, flush, rotate
    /// the current file (if any) to `<path>.bak`, rename the temporary into
    /// place. A crash at any point leaves either the old or the new
    /// generation intact and loadable.
    pub fn save(&self, checkpoint: &Checkpoint) -> std::io::Result<()> {
        self.save_text(&checkpoint.to_text()).map(|_| ())
    }

    /// Like [`CheckpointStore::save`], for a checkpoint already serialized
    /// with [`Checkpoint::to_text`] (the crawler hands the same text to its
    /// journal), and reports what the save did — event emitters use the
    /// receipt to describe the write (`CrawlEvent::CheckpointWritten`).
    pub fn save_text(&self, text: &str) -> std::io::Result<SaveReceipt> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = self.sibling(".tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        let rotated_backup = self.path.exists();
        if rotated_backup {
            std::fs::rename(&self.path, self.backup_path())?;
        }
        std::fs::rename(&tmp, &self.path)?;
        Ok(SaveReceipt { rotated_backup })
    }

    /// Loads and parses the primary file, strictly: corruption is an error,
    /// the backup is not consulted.
    pub fn load(&self) -> Result<Checkpoint, StoreError> {
        self.load_file(&self.path)
    }

    /// Loads the primary file, falling back to the `.bak` generation when
    /// the primary is missing or corrupt. Returns the checkpoint and whether
    /// the backup was used.
    pub fn load_or_backup(&self) -> Result<(Checkpoint, bool), StoreError> {
        match self.load_file(&self.path) {
            Ok(cp) => Ok((cp, false)),
            Err(primary_err) => match self.load_file(&self.backup_path()) {
                Ok(cp) => Ok((cp, true)),
                Err(_) => Err(primary_err),
            },
        }
    }

    fn load_file(&self, path: &Path) -> Result<Checkpoint, StoreError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::Missing(path.to_path_buf()))
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        Checkpoint::from_text(&text)
            .map_err(|error| StoreError::Corrupt { path: path.to_path_buf(), error })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::CandStatus;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dwc-store-{}-{}-{name}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("crawl.ckpt")
    }

    fn demo(rounds: u64) -> Checkpoint {
        Checkpoint {
            attr_names: vec!["A".into()],
            attr_queriable: vec![true],
            page_size: 10,
            keyword_mode: false,
            values: vec![(0, "a2".into())],
            status: vec![CandStatus::Frontier],
            queried: vec![],
            records: vec![(1, vec![0])],
            rounds,
            queries: rounds / 2,
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let store = CheckpointStore::new(scratch("roundtrip"));
        assert!(!store.exists());
        assert!(matches!(store.load(), Err(StoreError::Missing(_))));
        store.save(&demo(4)).unwrap();
        assert!(store.exists());
        assert_eq!(store.load().unwrap(), demo(4));
        assert!(!store.sibling(".tmp").exists(), "temporary must be renamed away");
    }

    #[test]
    fn save_rotates_previous_generation() {
        let store = CheckpointStore::new(scratch("rotate"));
        let first = store.save_text(&demo(2).to_text()).unwrap();
        assert!(!first.rotated_backup, "nothing to rotate on the first save");
        let second = store.save_text(&demo(6).to_text()).unwrap();
        assert!(second.rotated_backup, "the second save rotates the first");
        assert_eq!(store.load().unwrap(), demo(6));
        let bak = CheckpointStore::new(store.backup_path()).load().unwrap();
        assert_eq!(bak, demo(2), "previous generation survives as .bak");
    }

    #[test]
    fn corrupt_primary_falls_back_to_backup() {
        let store = CheckpointStore::new(scratch("fallback"));
        store.save(&demo(2)).unwrap();
        store.save(&demo(8)).unwrap();
        // Truncate the primary mid-body, as a crash during a non-atomic
        // writer (or disk damage) would.
        let text = std::fs::read_to_string(store.path()).unwrap();
        std::fs::write(store.path(), &text[..text.len() / 2]).unwrap();
        assert!(matches!(store.load(), Err(StoreError::Corrupt { .. })));
        let (cp, from_backup) = store.load_or_backup().unwrap();
        assert!(from_backup, "recovery must come from the .bak generation");
        assert_eq!(cp, demo(2), "one interval of progress lost, crawl still resumable");
    }

    #[test]
    fn corrupt_primary_without_backup_reports_corruption() {
        let store = CheckpointStore::new(scratch("no-backup"));
        store.save(&demo(2)).unwrap();
        std::fs::write(store.path(), "DWC-CHECKPOINT v2 crc=0000000000000000\n").unwrap();
        assert!(matches!(store.load_or_backup(), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn save_creates_parent_directories() {
        let store = CheckpointStore::new(scratch("deep").join("a/b/crawl.ckpt"));
        store.save(&demo(2)).unwrap();
        assert_eq!(store.load().unwrap(), demo(2));
    }
}
