//! Pluggable page-granular segment storage.
//!
//! A *segment* is an append-only byte sequence addressed in fixed-size pages.
//! Everything above this layer (buffer pool, list columns, the paged table)
//! speaks `(segment, page)` coordinates; everything below is one of two
//! pagers with identical semantics:
//!
//! * [`MemPager`] — segments are `Vec<u8>`s. It lends them out through
//!   [`SegmentPager::resident_bytes`], so tables over it are read in place
//!   with no buffer pool; every server built by `WebDbServer::new` packs its
//!   table into one.
//! * [`FilePager`] — one file per segment under a directory, positioned
//!   reads via `read_at` (no seek contention, `&self` reads), buffered
//!   appends. This is the out-of-core backend; its reads go through the
//!   buffer pool.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

/// Identifier of a segment within one pager.
pub type SegmentId = u32;

/// Default page size (8 KiB): large enough that offset entries and packed
/// values amortize the per-page bookkeeping, small enough that a few thousand
/// buffered pages stay in single-digit MiB.
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Page-granular append-only segment storage.
///
/// Appends go through `&mut self` (single writer during builds and journal
/// appends); `read_page` takes `&self` so a shared buffer pool can fault
/// pages in from concurrent server threads.
pub trait SegmentPager: Send + Sync + std::fmt::Debug {
    /// The fixed page size in bytes (a multiple of 8, so fixed-width offset
    /// entries never straddle a page boundary).
    fn page_size(&self) -> usize;

    /// Number of segments created so far.
    fn num_segments(&self) -> u32;

    /// Current length of `seg` in bytes.
    fn segment_len(&self, seg: SegmentId) -> u64;

    /// Creates a new empty segment, returning its id.
    fn create_segment(&mut self) -> io::Result<SegmentId>;

    /// Appends `bytes` to `seg`, returning the byte offset the write started
    /// at.
    fn append(&mut self, seg: SegmentId, bytes: &[u8]) -> io::Result<u64>;

    /// Reads page `page_no` of `seg` into `buf` (which is `page_size` long),
    /// returning how many bytes are valid — the final page of a segment may
    /// be short. Reading entirely past the end returns `Ok(0)`.
    fn read_page(&self, seg: SegmentId, page_no: u32, buf: &mut [u8]) -> io::Result<usize>;

    /// All of `seg`'s bytes, when this pager holds them in memory. Readers
    /// then decode straight from the returned slice instead of copying pages
    /// through a buffer pool. The default, `None`, keeps every read on the
    /// pool, and so does a wrapper that does not forward this method.
    fn resident_bytes(&self, seg: SegmentId) -> Option<&[u8]> {
        let _ = seg;
        None
    }

    /// Flushes buffered appends to durable storage (no-op for RAM).
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn check_page_size(page_size: usize) -> usize {
    assert!(
        page_size >= 64 && page_size.is_multiple_of(8),
        "page size must be a multiple of 8 and at least 64 bytes, got {page_size}"
    );
    page_size
}

/// In-RAM pager: each segment is a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct MemPager {
    page_size: usize,
    segments: Vec<Vec<u8>>,
}

impl MemPager {
    /// Creates an empty in-RAM pager with the given page size.
    pub fn new(page_size: usize) -> Self {
        MemPager { page_size: check_page_size(page_size), segments: Vec::new() }
    }
}

impl SegmentPager for MemPager {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_segments(&self) -> u32 {
        self.segments.len() as u32
    }

    fn segment_len(&self, seg: SegmentId) -> u64 {
        self.segments[seg as usize].len() as u64
    }

    fn create_segment(&mut self) -> io::Result<SegmentId> {
        self.segments.push(Vec::new());
        Ok(self.segments.len() as u32 - 1)
    }

    fn append(&mut self, seg: SegmentId, bytes: &[u8]) -> io::Result<u64> {
        let s = &mut self.segments[seg as usize];
        let at = s.len() as u64;
        s.extend_from_slice(bytes);
        Ok(at)
    }

    fn read_page(&self, seg: SegmentId, page_no: u32, buf: &mut [u8]) -> io::Result<usize> {
        let s = &self.segments[seg as usize];
        let start = (page_no as usize).saturating_mul(self.page_size).min(s.len());
        let end = (start + self.page_size).min(s.len());
        buf[..end - start].copy_from_slice(&s[start..end]);
        Ok(end - start)
    }

    fn resident_bytes(&self, seg: SegmentId) -> Option<&[u8]> {
        self.segments.get(seg as usize).map(Vec::as_slice)
    }
}

/// File-backed pager: one `seg-NNNNN.col` file per segment under a
/// directory. Reads are positioned (`read_at`), so they need no seek state
/// and work through `&self`; appends are buffered per segment and flushed at
/// 1 MiB boundaries to keep streaming builds at sequential-write speed.
#[derive(Debug)]
pub struct FilePager {
    dir: PathBuf,
    page_size: usize,
    segments: Vec<SegmentFile>,
}

#[derive(Debug)]
struct SegmentFile {
    file: File,
    /// Durable length (bytes already written to the file).
    flushed: u64,
    /// Pending appended bytes not yet written out.
    tail: Vec<u8>,
}

/// Append-buffer flush threshold.
const FLUSH_BYTES: usize = 1 << 20;

impl FilePager {
    /// Creates a pager over `dir` (created if absent) with no segments.
    /// Segment files an earlier pager left in `dir` are never read:
    /// [`SegmentPager::create_segment`] truncates the file it reuses.
    pub fn open(dir: &Path, page_size: usize) -> io::Result<Self> {
        let page_size = check_page_size(page_size);
        std::fs::create_dir_all(dir)?;
        Ok(FilePager { dir: dir.to_path_buf(), page_size, segments: Vec::new() })
    }

    /// The directory holding this pager's segment files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn flush_segment(seg: &mut SegmentFile) -> io::Result<()> {
        if !seg.tail.is_empty() {
            use std::os::unix::fs::FileExt as _;
            seg.file.write_all_at(&seg.tail, seg.flushed)?;
            seg.flushed += seg.tail.len() as u64;
            seg.tail.clear();
        }
        Ok(())
    }
}

fn segment_path(dir: &Path, seg: SegmentId) -> PathBuf {
    dir.join(format!("seg-{seg:05}.col"))
}

impl SegmentPager for FilePager {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_segments(&self) -> u32 {
        self.segments.len() as u32
    }

    fn segment_len(&self, seg: SegmentId) -> u64 {
        let s = &self.segments[seg as usize];
        s.flushed + s.tail.len() as u64
    }

    fn create_segment(&mut self) -> io::Result<SegmentId> {
        let id = self.segments.len() as u32;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(segment_path(&self.dir, id))?;
        self.segments.push(SegmentFile { file, flushed: 0, tail: Vec::new() });
        Ok(id)
    }

    fn append(&mut self, seg: SegmentId, bytes: &[u8]) -> io::Result<u64> {
        let s = &mut self.segments[seg as usize];
        let at = s.flushed + s.tail.len() as u64;
        s.tail.extend_from_slice(bytes);
        if s.tail.len() >= FLUSH_BYTES {
            Self::flush_segment(s)?;
        }
        Ok(at)
    }

    fn read_page(&self, seg: SegmentId, page_no: u32, buf: &mut [u8]) -> io::Result<usize> {
        use std::os::unix::fs::FileExt as _;
        let s = &self.segments[seg as usize];
        let len = s.flushed + s.tail.len() as u64;
        let start = (u64::from(page_no) * self.page_size as u64).min(len);
        let end = (start + self.page_size as u64).min(len);
        let want = (end - start) as usize;
        // Split the read between the durable prefix and the append buffer.
        let from_file = (s.flushed.saturating_sub(start) as usize).min(want);
        if from_file > 0 {
            s.file.read_exact_at(&mut buf[..from_file], start)?;
        }
        if from_file < want {
            let tail_start = (start + from_file as u64 - s.flushed) as usize;
            buf[from_file..want]
                .copy_from_slice(&s.tail[tail_start..tail_start + want - from_file]);
        }
        Ok(want)
    }

    fn sync(&mut self) -> io::Result<()> {
        for s in &mut self.segments {
            Self::flush_segment(s)?;
            s.file.sync_data()?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A [`MemPager`] that hides its residency: it does not forward
    /// [`SegmentPager::resident_bytes`], so every read of a table over it goes
    /// through the buffer pool, as over files. Unit tests run each reader over
    /// both pagers.
    #[derive(Debug)]
    pub(crate) struct PoolOnly(pub(crate) MemPager);

    impl SegmentPager for PoolOnly {
        fn page_size(&self) -> usize {
            self.0.page_size()
        }

        fn num_segments(&self) -> u32 {
            self.0.num_segments()
        }

        fn segment_len(&self, seg: SegmentId) -> u64 {
            self.0.segment_len(seg)
        }

        fn create_segment(&mut self) -> io::Result<SegmentId> {
            self.0.create_segment()
        }

        fn append(&mut self, seg: SegmentId, bytes: &[u8]) -> io::Result<u64> {
            self.0.append(seg, bytes)
        }

        fn read_page(&self, seg: SegmentId, page_no: u32, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read_page(seg, page_no, buf)
        }
    }

    fn scratch_dir(name: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dwc-pager-{}-{n}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn exercise(pager: &mut dyn SegmentPager) {
        let a = pager.create_segment().unwrap();
        let b = pager.create_segment().unwrap();
        assert_ne!(a, b);
        assert_eq!(pager.append(a, &[1, 2, 3]).unwrap(), 0);
        let big: Vec<u8> = (0..1000u32).flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(pager.append(a, &big).unwrap(), 3);
        pager.append(b, b"other segment").unwrap();
        assert_eq!(pager.segment_len(a), 3 + 4000);
        assert_eq!(pager.segment_len(b), 13);

        let ps = pager.page_size();
        let mut buf = vec![0u8; ps];
        let n = pager.read_page(a, 0, &mut buf).unwrap();
        assert_eq!(n, ps.min(4003));
        assert_eq!(&buf[..3], &[1, 2, 3]);
        // Final (short) page.
        let last = (4003 / ps) as u32;
        let n = pager.read_page(a, last, &mut buf).unwrap();
        assert_eq!(n, 4003 - last as usize * ps);
        // Past the end.
        assert_eq!(pager.read_page(a, last + 2, &mut buf).unwrap(), 0);
        assert_eq!(pager.read_page(b, 0, &mut buf).unwrap(), 13);
        assert_eq!(&buf[..13], b"other segment");
    }

    #[test]
    fn mem_pager_round_trips() {
        let mut p = MemPager::new(128);
        exercise(&mut p);
    }

    #[test]
    fn only_the_mem_pager_lends_its_segments() {
        let mut p = MemPager::new(64);
        let s = p.create_segment().unwrap();
        p.append(s, b"in place").unwrap();
        assert_eq!(p.resident_bytes(s), Some(&b"in place"[..]));
        assert_eq!(p.resident_bytes(s + 1), None, "no such segment");
        assert_eq!(PoolOnly(p).resident_bytes(s), None, "the wrapper keeps reads on the pool");
        let dir = scratch_dir("resident");
        let mut f = FilePager::open(&dir, 64).unwrap();
        let s = f.create_segment().unwrap();
        f.append(s, b"on file").unwrap();
        assert_eq!(f.resident_bytes(s), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_pager_round_trips_and_reopens() {
        let dir = scratch_dir("roundtrip");
        let mut p = FilePager::open(&dir, 128).unwrap();
        exercise(&mut p);
        p.sync().unwrap();
        drop(p);
        // Reopen: the old segment files are still there, but the pager
        // starts empty and a new segment never reads their bytes.
        let mut p2 = FilePager::open(&dir, 128).unwrap();
        assert_eq!(p2.num_segments(), 0);
        let s = p2.create_segment().unwrap();
        assert_eq!(s, 0);
        assert_eq!(p2.segment_len(s), 0);
        let mut buf = vec![0u8; 128];
        assert_eq!(p2.read_page(s, 0, &mut buf).unwrap(), 0);
        exercise(&mut p2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_pager_reads_buffered_tail() {
        let dir = scratch_dir("tail");
        let mut p = FilePager::open(&dir, 64).unwrap();
        let s = p.create_segment().unwrap();
        p.append(s, b"unflushed bytes").unwrap();
        // Nothing flushed yet; the read must still see the append buffer.
        let mut buf = vec![0u8; 64];
        let n = p.read_page(s, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"unflushed bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn odd_page_size_rejected() {
        MemPager::new(100);
    }
}
