//! The paged universal table: records and postings served from segments.
//!
//! [`SegmentTable`] is the out-of-core twin of `dwc_model::UniversalTable` +
//! the server's `InvertedIndex`: record value lists and per-value postings
//! lists live in packed [`ListStore`] columns behind a [`BufferPool`], while
//! the schema and the value interner stay resident (both are proportional to
//! |DAV|, not to the record count — the same asymmetry the paper's frontier
//! exploits). Because records are interned in insertion order and postings
//! are emitted in ascending record-id order, a `SegmentTable` built from the
//! same record stream as a resident table assigns **identical `ValueId`s and
//! identical postings** — the property that makes resident-vs-paged crawl
//! reports bit-identical.
//!
//! The postings build never holds more than a configurable byte budget of
//! postings in RAM: a counting pass sizes every list, then values are
//! processed in contiguous id *buckets*, each bucket filled by one
//! sequential scan of the record segment and appended sequentially to the
//! postings segment.

use crate::list::{ListStore, ListWriter};
use crate::pager::{FilePager, SegmentPager, DEFAULT_PAGE_SIZE};
use crate::pool::{BufferPool, PoolStats};
use dwc_model::{AttrId, AttrSpec, Schema, ValueId, ValueInterner};
use std::io;
use std::path::Path;

/// Default RAM allowance for one postings bucket during the build (64 MiB of
/// packed postings, i.e. 16M postings per scan).
pub const DEFAULT_BUILD_BUDGET: usize = 64 << 20;

/// Streaming builder for a [`SegmentTable`].
#[derive(Debug)]
pub struct SegmentTableBuilder {
    schema: Schema,
    interner: ValueInterner,
    pager: Box<dyn SegmentPager>,
    records: ListWriter,
    counts: Vec<u32>,
    scratch: Vec<ValueId>,
    build_budget: usize,
}

impl SegmentTableBuilder {
    /// Starts a build over `pager` (which must be empty).
    pub fn new(schema: Schema, mut pager: Box<dyn SegmentPager>) -> io::Result<Self> {
        assert_eq!(pager.num_segments(), 0, "builder needs an empty pager");
        let records = ListWriter::create(pager.as_mut())?;
        Ok(SegmentTableBuilder {
            schema,
            interner: ValueInterner::new(),
            pager,
            records,
            counts: Vec::new(),
            scratch: Vec::new(),
            build_budget: DEFAULT_BUILD_BUDGET,
        })
    }

    /// Caps the postings-build bucket at `bytes` of packed postings.
    pub fn with_build_budget(mut self, bytes: usize) -> Self {
        self.build_budget = bytes.max(1 << 12);
        self
    }

    /// Appends one record from `(attribute, value string)` fields, interning
    /// exactly as `UniversalTable::push_record_strs` does (same insertion
    /// order ⇒ same ids), then sorting and deduplicating the record.
    pub fn push_record_strs<'a, I>(&mut self, fields: I) -> io::Result<()>
    where
        I: IntoIterator<Item = (AttrId, &'a str)>,
    {
        self.scratch.clear();
        for (attr, s) in fields {
            self.scratch.push(self.interner.intern(attr, s));
        }
        self.push_scratch()
    }

    /// Appends one record from already-interned ids (the from-resident-table
    /// path; the caller's interner must be this builder's interner).
    pub fn push_record_ids(&mut self, values: &[ValueId]) -> io::Result<()> {
        self.scratch.clear();
        self.scratch.extend_from_slice(values);
        self.push_scratch()
    }

    fn push_scratch(&mut self) -> io::Result<()> {
        self.scratch.sort_unstable();
        self.scratch.dedup();
        if self.counts.len() < self.interner.len() {
            self.counts.resize(self.interner.len(), 0);
        }
        for v in &self.scratch {
            self.counts[v.index()] += 1;
        }
        // ValueId is a plain u32 wrapper; the packed column stores the u32s.
        let raw: Vec<u32> = self.scratch.iter().map(|v| v.0).collect();
        self.records.push(self.pager.as_mut(), &raw)?;
        Ok(())
    }

    /// Replaces the builder's interner (used with
    /// [`SegmentTable::from_table`] so ids match an existing resident table).
    fn with_interner(mut self, interner: ValueInterner) -> Self {
        self.counts.resize(interner.len(), 0);
        self.interner = interner;
        self
    }

    /// Seals the table: finishes the record column, builds postings in
    /// bounded-RSS buckets, and wires up a pool of `pool_bytes`.
    pub fn finish(mut self, pool_bytes: usize) -> io::Result<SegmentTable> {
        let records = self.records.finish(self.pager.as_mut())?;
        self.counts.resize(self.interner.len(), 0);
        let pool = BufferPool::with_budget(pool_bytes, self.pager.page_size());

        let mut postings_writer = ListWriter::create(self.pager.as_mut())?;
        let budget_elems = (self.build_budget / 4).max(1024);
        let mut lo = 0usize;
        while lo < self.counts.len() {
            // Greedy contiguous bucket under the element budget (always at
            // least one value, so a single pathological list still builds).
            let mut hi = lo;
            let mut total = 0usize;
            while hi < self.counts.len() {
                let c = self.counts[hi] as usize;
                if hi > lo && total + c > budget_elems {
                    break;
                }
                total += c;
                hi += 1;
            }
            // Local prefix sums over [lo, hi).
            let mut starts = Vec::with_capacity(hi - lo + 1);
            let mut acc = 0usize;
            starts.push(0);
            for v in lo..hi {
                acc += self.counts[v] as usize;
                starts.push(acc);
            }
            let mut data = vec![0u32; acc];
            let mut cursor = starts.clone();
            records.scan(self.pager.as_ref(), &pool, |rid, vals| {
                for &v in vals {
                    let v = v as usize;
                    if v >= lo && v < hi {
                        data[cursor[v - lo]] = rid as u32;
                        cursor[v - lo] += 1;
                    }
                }
            })?;
            for v in lo..hi {
                postings_writer
                    .push(self.pager.as_mut(), &data[starts[v - lo]..starts[v - lo + 1]])?;
            }
            lo = hi;
        }
        let postings = postings_writer.finish(self.pager.as_mut())?;
        self.pager.sync()?;

        Ok(SegmentTable {
            schema: self.schema,
            interner: self.interner,
            records,
            postings,
            pager: self.pager,
            pool,
        })
    }
}

/// A read-only universal table + inverted index served from segments.
///
/// All read methods take `&self` (the pool serializes page faults
/// internally) and **panic on storage I/O errors**: the segment files are
/// infrastructure, not a simulated source — source-level faults are
/// injected above the server (dwc-core's `FaultPlanSource`), so fault parity
/// between backends is untouched.
#[derive(Debug)]
pub struct SegmentTable {
    schema: Schema,
    interner: ValueInterner,
    records: ListStore,
    postings: ListStore,
    pager: Box<dyn SegmentPager>,
    pool: BufferPool,
}

impl SegmentTable {
    /// Builds a paged copy of a resident table (shared interner ⇒ identical
    /// ids), for parity tests and backend swaps.
    pub fn from_table(
        table: &dwc_model::UniversalTable,
        pager: Box<dyn SegmentPager>,
        pool_bytes: usize,
    ) -> io::Result<Self> {
        let mut b = SegmentTableBuilder::new(table.schema().clone(), pager)?
            .with_interner(table.interner().clone());
        for (_, rec) in table.iter() {
            b.push_record_ids(rec.values())?;
        }
        b.finish(pool_bytes)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The (resident) value interner.
    pub fn interner(&self) -> &ValueInterner {
        &self.interner
    }

    /// Number of records.
    pub fn num_records(&self) -> u64 {
        self.records.len()
    }

    /// Number of distinct attribute values (|DAV|).
    pub fn num_distinct_values(&self) -> usize {
        self.interner.len()
    }

    /// Bytes written to the pager across all segments (the on-disk size).
    pub fn storage_bytes(&self) -> u64 {
        (0..self.pager.num_segments()).map(|s| self.pager.segment_len(s)).sum()
    }

    /// Buffer-pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Number of records containing `v`.
    pub fn match_count(&self, v: ValueId) -> usize {
        if v.index() >= self.interner.len() {
            return 0;
        }
        self.postings
            .list_len(self.pager.as_ref(), &self.pool, v.index() as u64)
            .expect("segment store I/O")
    }

    /// Appends postings `lo..hi` (indices within `v`'s sorted postings list)
    /// to `out` — the pagination hot path touches only the pages its slice
    /// covers.
    pub fn postings_slice_into(&self, v: ValueId, lo: usize, hi: usize, out: &mut Vec<u32>) {
        if v.index() >= self.interner.len() {
            return;
        }
        self.postings
            .read_slice_into(self.pager.as_ref(), &self.pool, v.index() as u64, lo, hi, out)
            .expect("segment store I/O");
    }

    /// `v`'s full sorted postings list.
    pub fn postings_vec(&self, v: ValueId) -> Vec<u32> {
        let mut out = Vec::new();
        if v.index() < self.interner.len() {
            self.postings
                .read_into(self.pager.as_ref(), &self.pool, v.index() as u64, &mut out)
                .expect("segment store I/O");
        }
        out
    }

    /// The sorted, deduplicated value ids of record `rid`.
    pub fn record_values(&self, rid: u32) -> Vec<ValueId> {
        let mut raw = Vec::new();
        self.records
            .read_into(self.pager.as_ref(), &self.pool, u64::from(rid), &mut raw)
            .expect("segment store I/O");
        raw.into_iter().map(ValueId).collect()
    }

    /// Sorted union of several postings lists (keyword queries).
    pub fn union(&self, values: &[ValueId]) -> Vec<u32> {
        match values {
            [] => Vec::new(),
            [v] => self.postings_vec(*v),
            _ => {
                let mut all: Vec<u32> = values.iter().flat_map(|&v| self.postings_vec(v)).collect();
                all.sort_unstable();
                all.dedup();
                all
            }
        }
    }

    /// Sorted intersection of several postings lists (conjunctive queries).
    pub fn intersect(&self, values: &[ValueId]) -> Vec<u32> {
        match values {
            [] => Vec::new(),
            [v] => self.postings_vec(*v),
            _ => {
                let mut lists: Vec<Vec<u32>> =
                    values.iter().map(|&v| self.postings_vec(v)).collect();
                lists.sort_by_key(Vec::len);
                let mut acc = lists[0].clone();
                for l in &lists[1..] {
                    if acc.is_empty() {
                        break;
                    }
                    let mut out = Vec::with_capacity(acc.len().min(l.len()));
                    let (mut i, mut j) = (0, 0);
                    while i < acc.len() && j < l.len() {
                        match acc[i].cmp(&l[j]) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                out.push(acc[i]);
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                    acc = out;
                }
                acc
            }
        }
    }

    /// Streams every record through `f(rid, values)` in id order (analysis
    /// and test helper).
    pub fn scan_records<F>(&self, mut f: F)
    where
        F: FnMut(u32, &[u32]),
    {
        self.records
            .scan(self.pager.as_ref(), &self.pool, |rid, vals| f(rid as u32, vals))
            .expect("segment store I/O");
    }

    /// Persists the table's metadata (schema, interner spill, column
    /// layouts) as `table.meta` under `dir`, next to a [`FilePager`]'s
    /// segment files, so [`SegmentTable::open`] can reattach later.
    pub fn save_meta(&self, dir: &Path) -> io::Result<()> {
        let mut out = Vec::new();
        out.extend_from_slice(b"DWCSEGT1");
        let (ro, rd, rc, re) = self.records.parts();
        let (po, pd, pc, pe) = self.postings.parts();
        for x in [u64::from(ro), u64::from(rd), rc, re, u64::from(po), u64::from(pd), pc, pe] {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.extend_from_slice(&(self.schema.len() as u32).to_le_bytes());
        for (_, spec) in self.schema.iter() {
            let name = spec.name.as_bytes();
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name);
            out.push(u8::from(spec.queriable));
            out.push(u8::from(spec.multi_valued));
        }
        let interner = self.interner.to_packed_bytes();
        out.extend_from_slice(&(interner.len() as u64).to_le_bytes());
        out.extend_from_slice(&interner);
        let sum = crate::fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(dir.join("table.meta"), out)
    }

    /// Reattaches a table persisted under `dir` (segment files + meta),
    /// with a buffer pool of `pool_bytes`.
    pub fn open(dir: &Path, pool_bytes: usize) -> io::Result<Self> {
        let bytes = std::fs::read(dir.join("table.meta"))?;
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
        if bytes.len() < 8 + 64 + 4 + 8 + 8 {
            return Err(bad("segment table meta truncated"));
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let sum = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        if crate::fnv1a64(payload) != sum {
            return Err(bad("segment table meta failed checksum"));
        }
        if &payload[..8] != b"DWCSEGT1" {
            return Err(bad("segment table meta has wrong magic"));
        }
        let mut at = 8usize;
        let next_u64 = |at: &mut usize| -> io::Result<u64> {
            let end = *at + 8;
            if end > payload.len() {
                return Err(bad("segment table meta truncated"));
            }
            let v = u64::from_le_bytes(payload[*at..end].try_into().expect("8 bytes"));
            *at = end;
            Ok(v)
        };
        let mut cols = [0u64; 8];
        for c in &mut cols {
            *c = next_u64(&mut at)?;
        }
        let records = ListStore::from_parts(cols[0] as u32, cols[1] as u32, cols[2], cols[3]);
        let postings = ListStore::from_parts(cols[4] as u32, cols[5] as u32, cols[6], cols[7]);
        if at + 4 > payload.len() {
            return Err(bad("segment table meta truncated"));
        }
        let num_attrs =
            u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes")) as usize;
        at += 4;
        let mut attrs = Vec::with_capacity(num_attrs);
        for _ in 0..num_attrs {
            if at + 4 > payload.len() {
                return Err(bad("segment table meta truncated"));
            }
            let len = u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes")) as usize;
            at += 4;
            if at + len + 2 > payload.len() {
                return Err(bad("segment table meta truncated"));
            }
            let name = std::str::from_utf8(&payload[at..at + len])
                .map_err(|_| bad("segment table meta attr name not UTF-8"))?
                .to_owned();
            at += len;
            let queriable = payload[at] != 0;
            let multi_valued = payload[at + 1] != 0;
            at += 2;
            attrs.push(AttrSpec { name, queriable, multi_valued });
        }
        let schema = Schema::new(attrs);
        let ilen = next_u64(&mut at)? as usize;
        if at + ilen != payload.len() {
            return Err(bad("segment table meta truncated"));
        }
        let interner = ValueInterner::from_packed_bytes(&payload[at..at + ilen])
            .map_err(|e| bad(&format!("interner spill: {e}")))?;
        let pager = FilePager::open(dir, DEFAULT_PAGE_SIZE)?;
        let pool = BufferPool::with_budget(pool_bytes, pager.page_size());
        Ok(SegmentTable { schema, interner, records, postings, pager: Box::new(pager), pool })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;
    use dwc_model::fixtures::figure1_table;
    use dwc_model::UniversalTable;
    use std::path::PathBuf;

    fn scratch_dir(name: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dwc-segtable-{}-{n}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn paged_copy(table: &UniversalTable, page_size: usize, pool_bytes: usize) -> SegmentTable {
        SegmentTable::from_table(table, Box::new(MemPager::new(page_size)), pool_bytes).unwrap()
    }

    fn assert_matches_resident(st: &SegmentTable, t: &UniversalTable) {
        assert_eq!(st.num_records(), t.num_records() as u64);
        assert_eq!(st.num_distinct_values(), t.num_distinct_values());
        for (rid, rec) in t.iter() {
            assert_eq!(st.record_values(rid.0), rec.values(), "record {rid:?}");
        }
        for v in t.interner().iter_ids() {
            assert_eq!(st.match_count(v), t.count_matches(v), "count of {v}");
            let postings = st.postings_vec(v);
            assert!(postings.windows(2).all(|w| w[0] < w[1]), "sorted postings for {v}");
            assert_eq!(postings.len(), t.count_matches(v));
        }
    }

    #[test]
    fn figure1_round_trips_through_segments() {
        let t = figure1_table();
        let st = paged_copy(&t, 128, 1024);
        assert_matches_resident(&st, &t);
        let a2 = t.interner().get(AttrId(0), "a2").unwrap();
        assert_eq!(st.postings_vec(a2), vec![1, 2, 3]);
        let mut slice = Vec::new();
        st.postings_slice_into(a2, 1, 3, &mut slice);
        assert_eq!(slice, vec![2, 3]);
        assert_eq!(st.match_count(ValueId(10_000)), 0, "unknown ids have no postings");
    }

    #[test]
    fn tiny_build_budget_multiplies_buckets_not_results() {
        // Force many postings buckets (budget of ~1024 elems per bucket
        // minimum) and verify results are unchanged.
        let mut t = UniversalTable::new(Schema::new(vec![
            AttrSpec::queriable("A"),
            AttrSpec::queriable("B"),
        ]));
        for i in 0..300u32 {
            t.push_record_strs([
                (AttrId(0), format!("a{}", i % 11)),
                (AttrId(1), format!("b{}", i % 37)),
            ]);
        }
        let mut b = SegmentTableBuilder::new(t.schema().clone(), Box::new(MemPager::new(256)))
            .unwrap()
            .with_build_budget(1);
        b = b.with_interner(t.interner().clone());
        for (_, rec) in t.iter() {
            b.push_record_ids(rec.values()).unwrap();
        }
        let st = b.finish(16 * 256).unwrap();
        assert_matches_resident(&st, &t);
    }

    #[test]
    fn streaming_strs_build_matches_resident_ids() {
        // Build resident and paged from the same field stream; ids must
        // coincide without sharing an interner.
        let schema = Schema::new(vec![AttrSpec::queriable("X"), AttrSpec::queriable_multi("Y")]);
        let rows: Vec<Vec<(AttrId, String)>> = (0..100u32)
            .map(|i| {
                vec![
                    (AttrId(0), format!("x{}", i % 13)),
                    (AttrId(1), format!("y{}", i % 7)),
                    (AttrId(1), format!("y{}", (i * 3) % 7)),
                ]
            })
            .collect();
        let mut t = UniversalTable::new(schema.clone());
        for row in &rows {
            t.push_record_strs(row.iter().map(|(a, s)| (*a, s.as_str())));
        }
        let mut b = SegmentTableBuilder::new(schema, Box::new(MemPager::new(256))).unwrap();
        for row in &rows {
            b.push_record_strs(row.iter().map(|(a, s)| (*a, s.as_str()))).unwrap();
        }
        let st = b.finish(8 * 256).unwrap();
        assert_matches_resident(&st, &t);
        for v in t.interner().iter_ids() {
            assert_eq!(
                st.interner().get(t.interner().attr_of(v), t.interner().value_str(v)),
                Some(v),
                "independent builds assign the same id to {v}"
            );
        }
    }

    #[test]
    fn union_and_intersect_match_resident_semantics() {
        let t = figure1_table();
        let st = paged_copy(&t, 128, 2048);
        let a2 = t.interner().get(AttrId(0), "a2").unwrap();
        let c2 = t.interner().get(AttrId(2), "c2").unwrap();
        assert_eq!(st.union(&[a2, c2]), vec![1, 2, 3, 4]);
        assert_eq!(st.intersect(&[a2, c2]), vec![2, 3]);
        assert_eq!(st.intersect(&[]), Vec::<u32>::new());
    }

    #[test]
    fn persists_and_reopens_from_directory() {
        let dir = scratch_dir("persist");
        let t = figure1_table();
        let pager = FilePager::open(&dir, DEFAULT_PAGE_SIZE).unwrap();
        let st = SegmentTable::from_table(&t, Box::new(pager), 1 << 16).unwrap();
        st.save_meta(&dir).unwrap();
        drop(st);
        let st = SegmentTable::open(&dir, 1 << 16).unwrap();
        assert_matches_resident(&st, &t);
        // Tampering with the meta is detected.
        let meta = dir.join("table.meta");
        let mut bytes = std::fs::read(&meta).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&meta, bytes).unwrap();
        assert!(SegmentTable::open(&dir, 1 << 16).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
