//! Packed, offset-indexed `u32` list columns.
//!
//! One [`ListStore`] holds `count` variable-length lists of `u32`s in two
//! segments:
//!
//! * an **offsets** segment of `count` fixed-width little-endian `u64`
//!   *end offsets* (list `i` spans elements `offsets[i-1] .. offsets[i]`,
//!   with `offsets[-1] = 0`), and
//! * a **data** segment of the concatenated elements, packed little-endian
//!   4 bytes each.
//!
//! This is the arena encoding shared by record values (`rid → ValueId`s) and
//! postings (`ValueId → record ids`): random access costs at most two pool
//! lookups for the bounds plus the data pages the list actually covers, and
//! sequential scans stream both segments in page order.

use crate::pager::{SegmentId, SegmentPager};
use crate::pool::BufferPool;
use std::io;

/// Streaming writer producing a [`ListStore`]. Appends are buffered and
/// flushed in ~1 MiB runs so building from a generator is one sequential
/// pass per segment.
#[derive(Debug)]
pub struct ListWriter {
    seg_offsets: SegmentId,
    seg_data: SegmentId,
    count: u64,
    total_elems: u64,
    off_buf: Vec<u8>,
    data_buf: Vec<u8>,
}

const WRITER_FLUSH: usize = 1 << 20;

impl ListWriter {
    /// Creates the two backing segments in `pager`.
    pub fn create(pager: &mut dyn SegmentPager) -> io::Result<Self> {
        Ok(ListWriter {
            seg_offsets: pager.create_segment()?,
            seg_data: pager.create_segment()?,
            count: 0,
            total_elems: 0,
            off_buf: Vec::new(),
            data_buf: Vec::new(),
        })
    }

    /// Appends one list, returning its index.
    pub fn push(&mut self, pager: &mut dyn SegmentPager, vals: &[u32]) -> io::Result<u64> {
        for &v in vals {
            self.data_buf.extend_from_slice(&v.to_le_bytes());
        }
        self.total_elems += vals.len() as u64;
        self.off_buf.extend_from_slice(&self.total_elems.to_le_bytes());
        let idx = self.count;
        self.count += 1;
        if self.data_buf.len() >= WRITER_FLUSH || self.off_buf.len() >= WRITER_FLUSH {
            self.flush(pager)?;
        }
        Ok(idx)
    }

    fn flush(&mut self, pager: &mut dyn SegmentPager) -> io::Result<()> {
        if !self.off_buf.is_empty() {
            pager.append(self.seg_offsets, &self.off_buf)?;
            self.off_buf.clear();
        }
        if !self.data_buf.is_empty() {
            pager.append(self.seg_data, &self.data_buf)?;
            self.data_buf.clear();
        }
        Ok(())
    }

    /// Flushes and seals the store.
    pub fn finish(mut self, pager: &mut dyn SegmentPager) -> io::Result<ListStore> {
        self.flush(pager)?;
        Ok(ListStore {
            seg_offsets: self.seg_offsets,
            seg_data: self.seg_data,
            count: self.count,
            total_elems: self.total_elems,
        })
    }
}

/// A sealed, read-only collection of packed `u32` lists (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListStore {
    seg_offsets: SegmentId,
    seg_data: SegmentId,
    count: u64,
    total_elems: u64,
}

impl ListStore {
    /// Number of lists.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the store holds no lists.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total elements across all lists.
    pub fn total_elems(&self) -> u64 {
        self.total_elems
    }

    /// Element bounds `[start, end)` of list `i`.
    pub fn bounds(
        &self,
        pager: &dyn SegmentPager,
        pool: &BufferPool,
        i: u64,
    ) -> io::Result<(u64, u64)> {
        assert!(i < self.count, "list index {i} out of range ({})", self.count);
        if i == 0 {
            Ok((0, pool.read_u64(pager, self.seg_offsets, 0)?))
        } else {
            let mut buf = [0u8; 16];
            pool.read_range(pager, self.seg_offsets, (i - 1) * 8, &mut buf)?;
            let start = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
            let end = u64::from_le_bytes(buf[8..].try_into().expect("8 bytes"));
            Ok((start, end))
        }
    }

    /// Length of list `i` in elements.
    pub fn list_len(
        &self,
        pager: &dyn SegmentPager,
        pool: &BufferPool,
        i: u64,
    ) -> io::Result<usize> {
        let (s, e) = self.bounds(pager, pool, i)?;
        Ok((e - s) as usize)
    }

    /// Appends list `i`'s elements to `out`.
    pub fn read_into(
        &self,
        pager: &dyn SegmentPager,
        pool: &BufferPool,
        i: u64,
        out: &mut Vec<u32>,
    ) -> io::Result<()> {
        let (s, e) = self.bounds(pager, pool, i)?;
        self.read_elems_into(pager, pool, s, e, out)
    }

    /// Appends elements `[list_start + lo, list_start + hi)` of list `i` to
    /// `out` — the pagination path: a result page touches only its slice of
    /// a postings list, not the whole list.
    pub fn read_slice_into(
        &self,
        pager: &dyn SegmentPager,
        pool: &BufferPool,
        i: u64,
        lo: usize,
        hi: usize,
        out: &mut Vec<u32>,
    ) -> io::Result<()> {
        let (s, e) = self.bounds(pager, pool, i)?;
        let lo = s + lo as u64;
        let hi = (s + hi as u64).min(e);
        self.read_elems_into(pager, pool, lo, hi.max(lo), out)
    }

    fn read_elems_into(
        &self,
        pager: &dyn SegmentPager,
        pool: &BufferPool,
        elem_start: u64,
        elem_end: u64,
        out: &mut Vec<u32>,
    ) -> io::Result<()> {
        let n = (elem_end - elem_start) as usize;
        if n == 0 {
            return Ok(());
        }
        let mut bytes = vec![0u8; n * 4];
        pool.read_range(pager, self.seg_data, elem_start * 4, &mut bytes)?;
        out.reserve(n);
        for chunk in bytes.chunks_exact(4) {
            out.push(u32::from_le_bytes(chunk.try_into().expect("4 bytes")));
        }
        Ok(())
    }

    /// Streams every list in index order through `f(index, elements)`,
    /// reading both segments sequentially. This is the bounded-RSS scan the
    /// postings build uses: memory is one scratch list plus whatever the
    /// pool keeps.
    pub fn scan<F>(&self, pager: &dyn SegmentPager, pool: &BufferPool, mut f: F) -> io::Result<()>
    where
        F: FnMut(u64, &[u32]),
    {
        let mut offsets = SeqReader::new(self.seg_offsets, pool);
        let mut data = SeqReader::new(self.seg_data, pool);
        let mut scratch: Vec<u32> = Vec::new();
        let mut byte_buf: Vec<u8> = Vec::new();
        let mut prev = 0u64;
        for i in 0..self.count {
            let mut off = [0u8; 8];
            offsets.read_exact(pager, &mut off)?;
            let end = u64::from_le_bytes(off);
            let n = (end - prev) as usize;
            prev = end;
            byte_buf.resize(n * 4, 0);
            data.read_exact(pager, &mut byte_buf)?;
            scratch.clear();
            scratch.extend(
                byte_buf
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))),
            );
            f(i, &scratch);
        }
        Ok(())
    }
}

/// Sequential cursor over one segment, holding the current page pinned so
/// consecutive small reads cost no pool lookups.
struct SeqReader<'a> {
    seg: SegmentId,
    pool: &'a BufferPool,
    page_no: u32,
    in_page: usize,
    page: Option<crate::pool::PageRef>,
}

impl<'a> SeqReader<'a> {
    fn new(seg: SegmentId, pool: &'a BufferPool) -> Self {
        SeqReader { seg, pool, page_no: 0, in_page: 0, page: None }
    }

    fn read_exact(&mut self, pager: &dyn SegmentPager, out: &mut [u8]) -> io::Result<()> {
        let mut filled = 0;
        while filled < out.len() {
            if self.page.is_none() {
                self.page = Some(self.pool.get(pager, self.seg, self.page_no)?);
            }
            let page = self.page.as_ref().expect("page just ensured");
            if self.in_page >= page.len() {
                if page.len() < self.pool.page_size() {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "sequential read past end of segment",
                    ));
                }
                self.page = None;
                self.page_no += 1;
                self.in_page = 0;
                continue;
            }
            let n = (page.len() - self.in_page).min(out.len() - filled);
            out[filled..filled + n].copy_from_slice(&page[self.in_page..self.in_page + n]);
            self.in_page += n;
            filled += n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn build(lists: &[Vec<u32>], page_size: usize) -> (MemPager, BufferPool, ListStore) {
        let mut pager = MemPager::new(page_size);
        let mut w = ListWriter::create(&mut pager).unwrap();
        for l in lists {
            w.push(&mut pager, l).unwrap();
        }
        let store = w.finish(&mut pager).unwrap();
        let pool = BufferPool::new(4, page_size);
        (pager, pool, store)
    }

    fn sample_lists() -> Vec<Vec<u32>> {
        (0..200u32).map(|i| (0..(i % 17)).map(|j| i * 1000 + j).collect()).collect()
    }

    #[test]
    fn random_access_round_trips() {
        let lists = sample_lists();
        let (pager, pool, store) = build(&lists, 128);
        assert_eq!(store.len(), 200);
        for (i, expect) in lists.iter().enumerate() {
            let mut got = Vec::new();
            store.read_into(&pager, &pool, i as u64, &mut got).unwrap();
            assert_eq!(&got, expect, "list {i}");
            assert_eq!(store.list_len(&pager, &pool, i as u64).unwrap(), expect.len());
        }
    }

    #[test]
    fn slices_read_only_their_window() {
        let lists = vec![(0..100u32).collect::<Vec<_>>(), vec![7, 8, 9]];
        let (pager, pool, store) = build(&lists, 128);
        let mut got = Vec::new();
        store.read_slice_into(&pager, &pool, 0, 10, 20, &mut got).unwrap();
        assert_eq!(got, (10..20u32).collect::<Vec<_>>());
        got.clear();
        // A window clamped at the end of the list.
        store.read_slice_into(&pager, &pool, 1, 1, 50, &mut got).unwrap();
        assert_eq!(got, vec![8, 9]);
    }

    #[test]
    fn scan_visits_all_lists_in_order() {
        let lists = sample_lists();
        let (pager, pool, store) = build(&lists, 128);
        let mut seen = Vec::new();
        store.scan(&pager, &pool, |i, elems| seen.push((i, elems.to_vec()))).unwrap();
        assert_eq!(seen.len(), lists.len());
        for (i, (idx, elems)) in seen.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(elems, &lists[i]);
        }
    }

    #[test]
    fn empty_lists_and_empty_store() {
        let (pager, pool, store) = build(&[], 64);
        assert!(store.is_empty());
        store.scan(&pager, &pool, |_, _| panic!("no lists")).unwrap();
        let lists = vec![vec![], vec![5], vec![]];
        let (pager, pool, store) = build(&lists, 64);
        for (i, expect) in lists.iter().enumerate() {
            let mut got = Vec::new();
            store.read_into(&pager, &pool, i as u64, &mut got).unwrap();
            assert_eq!(&got, expect);
        }
    }
}
