//! Sized buffer pool with clock eviction and pin counts.
//!
//! The pool owns a fixed number of page frames (its byte budget divided by
//! the page size). A lookup returns a [`PageRef`] guard; while any guard for
//! a frame is alive the frame is *pinned* — the pin count is simply the
//! `Arc` strong count on the frame's buffer, so pinning cannot be forgotten
//! and needs no unsafe. Eviction is the classic clock (second-chance) sweep:
//! the hand skips pinned frames, clears referenced bits, and reclaims the
//! first unpinned, unreferenced frame. If every frame is pinned the read
//! falls through to an unpooled *overflow* buffer rather than deadlocking —
//! bounded memory degrades to extra reads, never to a stall.

use crate::pager::{SegmentId, SegmentPager};
use std::collections::HashMap;
use std::io;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One page's bytes plus how many of them are valid (the final page of a
/// segment is short).
#[derive(Debug)]
pub struct PageBuf {
    bytes: Box<[u8]>,
    valid: usize,
}

/// A pinned view of one page. Deref yields the valid bytes; dropping the
/// guard unpins the frame.
#[derive(Debug, Clone)]
pub struct PageRef(Arc<PageBuf>);

impl Deref for PageRef {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.bytes[..self.0.valid]
    }
}

#[derive(Debug)]
struct Frame {
    key: Option<(SegmentId, u32)>,
    referenced: bool,
    data: Arc<PageBuf>,
}

#[derive(Debug)]
struct PoolInner {
    frames: Vec<Frame>,
    map: HashMap<(SegmentId, u32), usize>,
    hand: usize,
}

/// Cumulative pool counters (monotonic; sampled by benches and the smoke
/// tests to prove the pool, not resident growth, absorbed the working set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Lookups served from a resident frame.
    pub hits: u64,
    /// Lookups that had to fault the page in.
    pub misses: u64,
    /// Frames reclaimed by the clock hand.
    pub evictions: u64,
    /// Reads that bypassed the pool because every frame was pinned.
    pub overflow_reads: u64,
}

/// Fixed-capacity page cache over a [`SegmentPager`].
#[derive(Debug)]
pub struct BufferPool {
    page_size: usize,
    capacity: usize,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    overflow_reads: AtomicU64,
}

impl BufferPool {
    /// A pool of `capacity` frames of `page_size` bytes each. Zero capacity
    /// is allowed: every read becomes an overflow read (useful as a
    /// worst-case baseline).
    pub fn new(capacity: usize, page_size: usize) -> Self {
        BufferPool {
            page_size,
            capacity,
            inner: Mutex::new(PoolInner { frames: Vec::new(), map: HashMap::new(), hand: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            overflow_reads: AtomicU64::new(0),
        }
    }

    /// A pool sized from a byte budget.
    pub fn with_budget(budget_bytes: usize, page_size: usize) -> Self {
        Self::new(budget_bytes / page_size.max(1), page_size)
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The frame/page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            overflow_reads: self.overflow_reads.load(Ordering::Relaxed),
        }
    }

    /// Returns (pinning) page `page_no` of `seg`, faulting it in if absent.
    pub fn get(
        &self,
        pager: &dyn SegmentPager,
        seg: SegmentId,
        page_no: u32,
    ) -> io::Result<PageRef> {
        let key = (seg, page_no);
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        if let Some(&i) = inner.map.get(&key) {
            inner.frames[i].referenced = true;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(PageRef(Arc::clone(&inner.frames[i].data)));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);

        // Grow lazily up to capacity, then run the clock hand.
        let slot = if inner.frames.len() < self.capacity {
            inner.frames.push(Frame {
                key: None,
                referenced: false,
                data: Arc::new(PageBuf { bytes: Box::from(vec![0u8; self.page_size]), valid: 0 }),
            });
            Some(inner.frames.len() - 1)
        } else {
            self.clock_victim(&mut inner)
        };

        let Some(i) = slot else {
            // Every frame pinned: serve from an unpooled buffer.
            drop(inner);
            self.overflow_reads.fetch_add(1, Ordering::Relaxed);
            let mut bytes = vec![0u8; self.page_size];
            let valid = pager.read_page(seg, page_no, &mut bytes)?;
            return Ok(PageRef(Arc::new(PageBuf { bytes: bytes.into_boxed_slice(), valid })));
        };

        if let Some(old) = inner.frames[i].key.take() {
            inner.map.remove(&old);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        // The victim is unpinned (strong count 1), so its buffer is reusable
        // in place — page loads allocate only while the pool grows.
        {
            let frame = &mut inner.frames[i];
            let buf = Arc::get_mut(&mut frame.data).expect("victim frame was pinned");
            let valid = pager.read_page(seg, page_no, &mut buf.bytes)?;
            buf.valid = valid;
            frame.key = Some(key);
            frame.referenced = true;
        }
        inner.map.insert(key, i);
        Ok(PageRef(Arc::clone(&inner.frames[i].data)))
    }

    /// One full clock rotation with second chances, one more without:
    /// returns the first unpinned frame whose referenced bit has been spent,
    /// or `None` if everything is pinned.
    fn clock_victim(&self, inner: &mut PoolInner) -> Option<usize> {
        let n = inner.frames.len();
        if n == 0 {
            return None;
        }
        for _ in 0..2 * n {
            let i = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            let frame = &mut inner.frames[i];
            if Arc::strong_count(&frame.data) > 1 {
                continue; // pinned by a live PageRef
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            return Some(i);
        }
        None
    }

    /// Copies segment bytes `[start, start + out.len())` into `out`, pinning
    /// each touched page only for the duration of its copy. Errors with
    /// `UnexpectedEof` if the range runs past the segment.
    pub fn read_range(
        &self,
        pager: &dyn SegmentPager,
        seg: SegmentId,
        start: u64,
        out: &mut [u8],
    ) -> io::Result<()> {
        let ps = self.page_size as u64;
        let mut pos = start;
        let mut filled = 0usize;
        while filled < out.len() {
            let page_no = u32::try_from(pos / ps).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidInput, "segment offset out of page range")
            })?;
            let in_page = (pos % ps) as usize;
            let page = self.get(pager, seg, page_no)?;
            if in_page >= page.len() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "segment range past end of segment",
                ));
            }
            let n = (page.len() - in_page).min(out.len() - filled);
            out[filled..filled + n].copy_from_slice(&page[in_page..in_page + n]);
            filled += n;
            pos += n as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn pager_with_data(pages: usize, page_size: usize) -> MemPager {
        let mut p = MemPager::new(page_size);
        let s = p.create_segment().unwrap();
        let bytes: Vec<u8> = (0..pages * page_size).map(|i| (i % 251) as u8).collect();
        p.append(s, &bytes).unwrap();
        p
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let p = pager_with_data(4, 64);
        let pool = BufferPool::new(2, 64);
        let a = pool.get(&p, 0, 0).unwrap();
        assert_eq!(a[0], 0);
        drop(a);
        pool.get(&p, 0, 0).unwrap();
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn clock_evicts_cold_pages_under_pressure() {
        let p = pager_with_data(8, 64);
        let pool = BufferPool::new(2, 64);
        for page in 0..8 {
            let r = pool.get(&p, 0, page).unwrap();
            assert_eq!(r[0], ((page as usize * 64) % 251) as u8);
        }
        let s = pool.stats();
        assert_eq!(s.misses, 8);
        assert_eq!(s.evictions, 6, "8 loads through 2 frames evict 6 times");
        assert_eq!(s.overflow_reads, 0);
    }

    #[test]
    fn pinned_frames_are_never_evicted() {
        let p = pager_with_data(8, 64);
        let pool = BufferPool::new(2, 64);
        let pinned = pool.get(&p, 0, 0).unwrap();
        // Sweep 6 other pages through the remaining single frame.
        for page in 1..7 {
            pool.get(&p, 0, page).unwrap();
        }
        // Page 0 must still be resident (a hit), because the guard pinned it.
        let before = pool.stats().hits;
        let again = pool.get(&p, 0, 0).unwrap();
        assert_eq!(pool.stats().hits, before + 1);
        assert_eq!(pinned[0], again[0]);
    }

    #[test]
    fn all_pinned_falls_back_to_overflow_reads() {
        let p = pager_with_data(4, 64);
        let pool = BufferPool::new(2, 64);
        let _a = pool.get(&p, 0, 0).unwrap();
        let _b = pool.get(&p, 0, 1).unwrap();
        let c = pool.get(&p, 0, 2).unwrap();
        assert_eq!(c[0], 128);
        assert_eq!(pool.stats().overflow_reads, 1);
    }

    #[test]
    fn zero_capacity_pool_always_overflows() {
        let p = pager_with_data(2, 64);
        let pool = BufferPool::new(0, 64);
        for _ in 0..3 {
            pool.get(&p, 0, 0).unwrap();
        }
        assert_eq!(pool.stats().overflow_reads, 3);
    }

    #[test]
    fn read_range_stitches_across_pages() {
        let p = pager_with_data(4, 64);
        let pool = BufferPool::new(2, 64);
        let mut out = vec![0u8; 100];
        pool.read_range(&p, 0, 30, &mut out).unwrap();
        let expect: Vec<u8> = (30..130).map(|i| (i % 251) as u8).collect();
        assert_eq!(out, expect);
        // Past the end errors rather than zero-fills.
        let mut over = vec![0u8; 64];
        let err = pool.read_range(&p, 0, 4 * 64 - 10, &mut over).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
