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
//!
//! A frame is built in place: [`FrameLog::start_frame`] reserves the header
//! in the caller's buffer, the caller writes the payload behind it, and
//! [`FrameLog::append`] fills the header in and writes the buffer as it
//! stands — no payload is copied into a second buffer.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::fnv1a64;
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::path::Path;

/// Bytes of a frame header: the payload length and its checksum.
pub const FRAME_HEADER: usize = 12;

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

    /// Starts a frame in `buf`: clears it and reserves the header that
    /// [`FrameLog::append`] fills in. The payload is whatever the caller
    /// appends to `buf` next.
    pub fn start_frame(buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&[0; FRAME_HEADER]);
    }

    /// Appends the frame built in `frame` (a header reserved by
    /// [`FrameLog::start_frame`], then the payload) and flushes it to the
    /// OS. The header is filled in place and the buffer written as is.
    ///
    /// # Errors
    /// `InvalidInput` when `frame` is shorter than a header or its payload
    /// exceeds the frame limit; any error writing the file.
    pub fn append(&mut self, frame: &mut [u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt as _;
        let invalid = |msg| io::Error::new(io::ErrorKind::InvalidInput, msg);
        let (header, payload) = frame
            .split_at_mut_checked(FRAME_HEADER)
            .ok_or_else(|| invalid("frame header missing"))?;
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_FRAME)
            .ok_or_else(|| invalid("frame too large"))?;
        let (len_field, sum_field) = header.split_at_mut(4);
        len_field.copy_from_slice(&len.to_le_bytes());
        sum_field.copy_from_slice(&fnv1a64(payload).to_le_bytes());
        self.file.write_all_at(frame, self.len)?;
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
        let mut rest = bytes;
        while let Some((&[l0, l1, l2, l3, sum @ ..], tail)) =
            rest.split_first_chunk::<FRAME_HEADER>()
        {
            let len = u32::from_le_bytes([l0, l1, l2, l3]);
            let Some((payload, next)) =
                tail.split_at_checked(len as usize).filter(|_| len <= MAX_FRAME)
            else {
                break;
            };
            if fnv1a64(payload) != u64::from_le_bytes(sum) {
                break;
            }
            frames.push(payload.to_vec());
            rest = next;
        }
        // Anything past the valid prefix is a torn tail: a partial header,
        // a short payload or a checksum mismatch.
        let valid_len = (bytes.len() - rest.len()) as u64;
        ReplayedLog { frames, valid_len, torn: !rest.is_empty() }
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

    /// Frames `payload` in a fresh buffer and appends it.
    fn append(log: &mut FrameLog, payload: &[u8]) {
        let mut frame = Vec::new();
        FrameLog::start_frame(&mut frame);
        frame.extend_from_slice(payload);
        log.append(&mut frame).unwrap();
    }

    #[test]
    fn append_replay_round_trips() {
        let path = scratch("roundtrip");
        let mut log = FrameLog::create(&path).unwrap();
        append(&mut log, b"alpha");
        append(&mut log, b"");
        append(&mut log, b"gamma gamma");
        let r = FrameLog::replay(&path).unwrap();
        assert!(!r.torn);
        assert_eq!(r.frames, vec![b"alpha".to_vec(), b"".to_vec(), b"gamma gamma".to_vec()]);
        assert_eq!(r.valid_len, log.len());
        let _ = std::fs::remove_file(&path);
    }

    /// A reused buffer is framed in place: the header is written over its
    /// reserved bytes, and a buffer too short to hold one is refused.
    #[test]
    fn frames_are_built_in_the_callers_buffer() {
        let path = scratch("in-place");
        let mut log = FrameLog::create(&path).unwrap();
        let mut frame = Vec::new();
        for payload in [&b"first"[..], b"second, longer", b""] {
            FrameLog::start_frame(&mut frame);
            frame.extend_from_slice(payload);
            log.append(&mut frame).unwrap();
            assert_eq!(frame[..4], (payload.len() as u32).to_le_bytes());
            assert_eq!(frame[4..FRAME_HEADER], fnv1a64(payload).to_le_bytes());
        }
        let r = FrameLog::replay(&path).unwrap();
        assert_eq!(r.frames, vec![b"first".to_vec(), b"second, longer".to_vec(), Vec::new()]);
        assert_eq!(r.valid_len, log.len());
        let err = log.append(&mut [0; FRAME_HEADER - 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(log.frames(), 3, "a refused frame is not counted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_stops_at_every_truncation_point() {
        let path = scratch("truncate");
        let mut log = FrameLog::create(&path).unwrap();
        let payloads: Vec<Vec<u8>> = (0..5).map(|i| vec![i as u8; 10 + i]).collect();
        for p in &payloads {
            append(&mut log, p);
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
        append(&mut log, b"first frame");
        append(&mut log, b"second frame");
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
