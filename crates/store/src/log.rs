//! Length+checksum-framed append-only log.
//!
//! The crawler's incremental state journal appends one frame per completed
//! query; recovery replays frames in order and stops at the first frame that
//! is truncated or fails its checksum — everything before the tear is
//! trusted, everything after is discarded, the contract of the v2
//! checksummed checkpoint format extended to per-query granularity. A log
//! keeps appending to its file when the file is renamed while open (the
//! journal writes each new generation under a temporary name).
//!
//! Frame wire format, all little-endian:
//!
//! ```text
//! [u32 payload_len][u64 fnv1a64(payload)][payload bytes]
//! ```

use crate::fnv1a64;
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::path::Path;

/// Maximum accepted frame payload (a corrupt length prefix must not drive a
/// multi-gigabyte allocation).
const MAX_FRAME: u32 = 256 << 20;

/// Append-only framed log file.
#[derive(Debug)]
pub struct FrameLog {
    file: File,
    len: u64,
    frames: u64,
}

impl FrameLog {
    /// Creates (truncating) a fresh log at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(FrameLog { file, len: 0, frames: 0 })
    }

    /// Number of frames appended so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bytes in the valid prefix.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Appends one frame and flushes it to the OS.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt as _;
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_FRAME)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all_at(&frame, self.len)?;
        self.len += frame.len() as u64;
        self.frames += 1;
        Ok(())
    }

    /// Forces appended frames to durable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Reads the valid frame prefix of the log at `path`. A missing file
    /// replays as an empty, untorn log.
    pub fn replay(path: &Path) -> io::Result<ReplayedLog> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Self::replay_bytes(&bytes))
    }

    /// Frame-parses a byte buffer (the log file's contents).
    pub fn replay_bytes(bytes: &[u8]) -> ReplayedLog {
        let mut frames = Vec::new();
        let mut pos = 0usize;
        let mut torn = false;
        while bytes.len() - pos >= 12 {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
            let body_start = pos + 12;
            if len > MAX_FRAME as usize || bytes.len() - body_start < len {
                torn = true;
                break;
            }
            let payload = &bytes[body_start..body_start + len];
            if fnv1a64(payload) != sum {
                torn = true;
                break;
            }
            frames.push(payload.to_vec());
            pos = body_start + len;
        }
        if pos < bytes.len() && !torn {
            torn = true; // trailing partial header
        }
        ReplayedLog { frames, valid_len: pos as u64, torn }
    }
}

/// Result of replaying a [`FrameLog`].
#[derive(Debug)]
pub struct ReplayedLog {
    /// Payloads of the valid frame prefix, in append order.
    pub frames: Vec<Vec<u8>>,
    /// Byte length of that valid prefix.
    pub valid_len: u64,
    /// Whether bytes past the valid prefix were discarded (torn tail).
    pub torn: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dwc-framelog-{}-{n}-{name}.log", std::process::id()))
    }

    #[test]
    fn append_replay_round_trips() {
        let path = scratch("roundtrip");
        let mut log = FrameLog::create(&path).unwrap();
        log.append(b"alpha").unwrap();
        log.append(b"").unwrap();
        log.append(b"gamma gamma").unwrap();
        let r = FrameLog::replay(&path).unwrap();
        assert!(!r.torn);
        assert_eq!(r.frames, vec![b"alpha".to_vec(), b"".to_vec(), b"gamma gamma".to_vec()]);
        assert_eq!(r.valid_len, log.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_stops_at_every_truncation_point() {
        let path = scratch("truncate");
        let mut log = FrameLog::create(&path).unwrap();
        let payloads: Vec<Vec<u8>> = (0..5).map(|i| vec![i as u8; 10 + i]).collect();
        for p in &payloads {
            log.append(p).unwrap();
        }
        log.sync().unwrap();
        let full = std::fs::read(&path).unwrap();
        // Frame boundaries: prefix sums of 12 + payload len.
        let mut boundaries = vec![0usize];
        for p in &payloads {
            boundaries.push(boundaries.last().unwrap() + 12 + p.len());
        }
        for cut in 0..=full.len() {
            let r = FrameLog::replay_bytes(&full[..cut]);
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(r.frames.len(), complete, "cut at {cut}");
            assert_eq!(r.frames[..], payloads[..complete], "cut at {cut}");
            assert_eq!(r.torn, cut != boundaries[complete], "cut at {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_byte_invalidates_frame_and_tail() {
        let path = scratch("corrupt");
        let mut log = FrameLog::create(&path).unwrap();
        log.append(b"first frame").unwrap();
        log.append(b"second frame").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first payload.
        bytes[14] ^= 0xff;
        let r = FrameLog::replay_bytes(&bytes);
        assert!(r.frames.is_empty(), "corruption in frame 1 discards everything after it");
        assert!(r.torn);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let r = FrameLog::replay_bytes(&bytes);
        assert!(r.frames.is_empty());
        assert!(r.torn);
    }
}
