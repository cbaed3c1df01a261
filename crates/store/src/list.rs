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
//! postings (`ValueId → record ids`). Over a pager that holds its segments
//! in memory, a list is two slice reads, decoded in place. Otherwise random
//! access costs at most two pool lookups for the bounds plus the data pages
//! the list actually covers, and sequential scans stream both segments in
//! page order.

use crate::pager::{SegmentId, SegmentPager};
use crate::pool::BufferPool;
use std::borrow::Cow;
use std::io;

/// Decodes packed little-endian `u32`s (a list as a [`ListStore`] stores
/// it).
pub fn unpack(bytes: &[u8]) -> impl ExactSizeIterator<Item = u32> + '_ {
    bytes.as_chunks::<4>().0.iter().map(|c| u32::from_le_bytes(*c))
}

fn past_end() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "list range past end of segment")
}

fn backwards() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "list ends before it starts")
}

/// Element count of the list spanning `[start, end)`.
fn span(start: u64, end: u64) -> io::Result<usize> {
    end.checked_sub(start).and_then(|n| usize::try_from(n).ok()).ok_or_else(backwards)
}

/// Bounds of list `i` from a resident offsets segment.
fn bounds_in(offsets: &[u8], i: u64) -> io::Result<(u64, u64)> {
    let ends = offsets.as_chunks::<8>().0;
    let i = usize::try_from(i).map_err(|_| past_end())?;
    let end = u64::from_le_bytes(*ends.get(i).ok_or_else(past_end)?);
    let start = match i.checked_sub(1) {
        Some(prev) => u64::from_le_bytes(ends[prev]),
        None => 0,
    };
    Ok((start, end))
}

/// Elements `[start, end)` of a resident data segment, packed.
fn elems_in(data: &[u8], start: u64, end: u64) -> io::Result<&[u8]> {
    let len = span(start, end)?.checked_mul(4);
    let at = usize::try_from(start).ok().and_then(|s| s.checked_mul(4));
    at.zip(len).and_then(|(at, len)| data.get(at..at.checked_add(len)?)).ok_or_else(past_end)
}

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
    pub fn push<I>(&mut self, pager: &mut dyn SegmentPager, vals: I) -> io::Result<u64>
    where
        I: IntoIterator<Item = u32>,
        I::IntoIter: ExactSizeIterator,
    {
        let vals = vals.into_iter();
        let (at, n) = (self.data_buf.len(), vals.len());
        self.data_buf.resize(at + n * 4, 0);
        for (dst, v) in self.data_buf[at..].chunks_exact_mut(4).zip(vals) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        self.total_elems += n as u64;
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
///
/// Every read takes the pager and a pool. When the pager holds a segment in
/// memory ([`SegmentPager::resident_bytes`]) the read decodes straight from
/// it and never touches the pool; otherwise it copies the pages it covers
/// out of the pool.
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
        if i >= self.count {
            let msg = format!("list index {i} out of range ({})", self.count);
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        if let Some(offsets) = pager.resident_bytes(self.seg_offsets) {
            return bounds_in(offsets, i);
        }
        // List i ends at entry i and starts where list i - 1 ends.
        let mut buf = [0u8; 16];
        let entry = |buf: &[u8; 16], k: usize| {
            u64::from_le_bytes(buf[k..k + 8].try_into().expect("8 bytes"))
        };
        if i == 0 {
            pool.read_range(pager, self.seg_offsets, 0, &mut buf[..8])?;
            Ok((0, entry(&buf, 0)))
        } else {
            pool.read_range(pager, self.seg_offsets, (i - 1) * 8, &mut buf)?;
            Ok((entry(&buf, 0), entry(&buf, 8)))
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
        span(s, e)
    }

    /// List `i`'s elements packed as stored: borrowed from a resident
    /// segment, or copied out of the pool.
    pub fn packed<'a>(
        &self,
        pager: &'a dyn SegmentPager,
        pool: &BufferPool,
        i: u64,
    ) -> io::Result<Cow<'a, [u8]>> {
        let (s, e) = self.bounds(pager, pool, i)?;
        self.elems(pager, pool, s, e)
    }

    /// Elements `[list_start + lo, list_start + hi)` of list `i`, clamped to
    /// the list and packed as stored — the pagination path: a result page
    /// touches only its slice of a postings list, not the whole list.
    pub fn packed_slice<'a>(
        &self,
        pager: &'a dyn SegmentPager,
        pool: &BufferPool,
        i: u64,
        lo: usize,
        hi: usize,
    ) -> io::Result<Cow<'a, [u8]>> {
        let (s, e) = self.bounds(pager, pool, i)?;
        let hi = s.saturating_add(hi as u64).min(e);
        let lo = s.saturating_add(lo as u64).min(hi);
        self.elems(pager, pool, lo, hi)
    }

    /// Elements `[start, end)` of the data segment, packed.
    fn elems<'a>(
        &self,
        pager: &'a dyn SegmentPager,
        pool: &BufferPool,
        start: u64,
        end: u64,
    ) -> io::Result<Cow<'a, [u8]>> {
        if let Some(data) = pager.resident_bytes(self.seg_data) {
            return elems_in(data, start, end).map(Cow::Borrowed);
        }
        let len = span(start, end)?.checked_mul(4).ok_or_else(past_end)?;
        let at = start.checked_mul(4).ok_or_else(past_end)?;
        // Check the range before sizing a buffer by it.
        if at.saturating_add(len as u64) > pager.segment_len(self.seg_data) {
            return Err(past_end());
        }
        let mut out = vec![0u8; len];
        pool.read_range(pager, self.seg_data, at, &mut out)?;
        Ok(Cow::Owned(out))
    }

    /// Streams every list in index order through `f(index, packed
    /// elements)`, reading both segments sequentially. This is the
    /// bounded-RSS scan the postings build uses: memory is one scratch list
    /// plus whatever the pool keeps (nothing, for resident segments).
    pub fn scan<F>(&self, pager: &dyn SegmentPager, pool: &BufferPool, mut f: F) -> io::Result<()>
    where
        F: FnMut(u64, &[u8]),
    {
        let mut prev = 0u64;
        let resident =
            (pager.resident_bytes(self.seg_offsets), pager.resident_bytes(self.seg_data));
        if let (Some(offsets), Some(data)) = resident {
            let ends = offsets.as_chunks::<8>().0;
            if (ends.len() as u64) < self.count {
                return Err(past_end());
            }
            for (i, end) in (0..self.count).zip(ends) {
                let end = u64::from_le_bytes(*end);
                f(i, elems_in(data, prev, end)?);
                prev = end;
            }
            return Ok(());
        }
        let mut offsets = SeqReader::new(self.seg_offsets, pool);
        let mut data = SeqReader::new(self.seg_data, pool);
        let mut byte_buf: Vec<u8> = Vec::new();
        for i in 0..self.count {
            let mut off = [0u8; 8];
            offsets.read_exact(pager, &mut off)?;
            let end = u64::from_le_bytes(off);
            let len = span(prev, end)?.saturating_mul(4);
            if len as u64 > pager.segment_len(self.seg_data) {
                return Err(past_end());
            }
            prev = end;
            byte_buf.resize(len, 0);
            data.read_exact(pager, &mut byte_buf)?;
            f(i, &byte_buf);
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
    use crate::pager::tests::PoolOnly;
    use crate::pager::MemPager;

    /// The lists packed over a resident pager and over one that reads
    /// through a 4-frame pool, smaller than either segment.
    fn build(
        lists: &[Vec<u32>],
        page_size: usize,
    ) -> Vec<(Box<dyn SegmentPager>, BufferPool, ListStore)> {
        let pagers: [Box<dyn SegmentPager>; 2] =
            [Box::new(MemPager::new(page_size)), Box::new(PoolOnly(MemPager::new(page_size)))];
        pagers
            .into_iter()
            .map(|mut pager| {
                let mut w = ListWriter::create(pager.as_mut()).unwrap();
                for l in lists {
                    w.push(pager.as_mut(), l.iter().copied()).unwrap();
                }
                let store = w.finish(pager.as_mut()).unwrap();
                (pager, BufferPool::new(4, page_size), store)
            })
            .collect()
    }

    fn sample_lists() -> Vec<Vec<u32>> {
        (0..200u32).map(|i| (0..(i % 17)).map(|j| i * 1000 + j).collect()).collect()
    }

    #[test]
    fn random_access_round_trips() {
        let lists = sample_lists();
        for (pager, pool, store) in build(&lists, 128) {
            assert_eq!(store.len(), 200);
            for (i, expect) in lists.iter().enumerate() {
                let packed = store.packed(pager.as_ref(), &pool, i as u64).unwrap();
                assert_eq!(unpack(&packed).collect::<Vec<_>>(), *expect, "list {i}");
                assert_eq!(store.list_len(pager.as_ref(), &pool, i as u64).unwrap(), expect.len());
            }
            let resident = pager.resident_bytes(0).is_some();
            assert_eq!(pool.stats().misses == 0, resident, "only pooled reads fault pages in");
        }
    }

    #[test]
    fn slices_read_only_their_window() {
        let lists = vec![(0..100u32).collect::<Vec<_>>(), vec![7, 8, 9]];
        for (pager, pool, store) in build(&lists, 128) {
            let slice = |i, lo, hi| -> Vec<u32> {
                unpack(&store.packed_slice(pager.as_ref(), &pool, i, lo, hi).unwrap()).collect()
            };
            assert_eq!(slice(0, 10, 20), (10..20u32).collect::<Vec<_>>());
            // A window clamped at the end of the list, and one past it.
            assert_eq!(slice(1, 1, 50), vec![8, 9]);
            assert_eq!(slice(1, 5, usize::MAX), Vec::<u32>::new());
            assert!(store.packed_slice(pager.as_ref(), &pool, 2, 0, 1).is_err(), "no list 2");
        }
    }

    #[test]
    fn scan_visits_all_lists_in_order() {
        let lists = sample_lists();
        for (pager, pool, store) in build(&lists, 128) {
            let mut seen = Vec::new();
            store
                .scan(pager.as_ref(), &pool, |i, elems| seen.push((i, unpack(elems).collect())))
                .unwrap();
            let expect: Vec<(u64, Vec<u32>)> =
                lists.iter().cloned().enumerate().map(|(i, l)| (i as u64, l)).collect();
            assert_eq!(seen, expect);
        }
    }

    #[test]
    fn empty_lists_and_empty_store() {
        for (pager, pool, store) in build(&[], 64) {
            assert!(store.is_empty());
            store.scan(pager.as_ref(), &pool, |_, _| panic!("no lists")).unwrap();
        }
        let lists = vec![vec![], vec![5], vec![]];
        for (pager, pool, store) in build(&lists, 64) {
            for (i, expect) in lists.iter().enumerate() {
                let packed = store.packed(pager.as_ref(), &pool, i as u64).unwrap();
                assert_eq!(unpack(&packed).collect::<Vec<_>>(), *expect);
            }
        }
    }

    #[test]
    fn damaged_bounds_are_errors_on_both_paths() {
        // An offsets segment whose second entry runs backwards, then one
        // pointing far past the data.
        for offsets in [[8u64, 4], [0, 1 << 40]] {
            let pagers: [Box<dyn SegmentPager>; 2] =
                [Box::new(MemPager::new(64)), Box::new(PoolOnly(MemPager::new(64)))];
            for mut pager in pagers {
                let (o, d) = (pager.create_segment().unwrap(), pager.create_segment().unwrap());
                let bytes: Vec<u8> = offsets.iter().flat_map(|x| x.to_le_bytes()).collect();
                pager.append(o, &bytes).unwrap();
                pager.append(d, &[0u8; 32]).unwrap();
                let store = ListStore { seg_offsets: o, seg_data: d, count: 2, total_elems: 8 };
                let pool = BufferPool::new(4, 64);
                assert!(store.packed(pager.as_ref(), &pool, 1).is_err());
                assert!(store.scan(pager.as_ref(), &pool, |_, _| {}).is_err());
            }
        }
    }
}
