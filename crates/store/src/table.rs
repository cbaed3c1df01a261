//! The paged universal table: records and postings served from segments.
//!
//! [`SegmentTable`] is the one store a server reads: record value lists and
//! per-value postings lists live in packed [`ListStore`] columns, while the
//! schema and the value interner stay resident (both are proportional to
//! |DAV|, not to the record count — the same asymmetry the paper's frontier
//! exploits). Over a pager that holds its segments in memory the columns
//! are read in place; over files they are read through a sized
//! [`BufferPool`]. Because records are interned in insertion order and
//! postings are emitted in ascending record-id order, a `SegmentTable`
//! built from the same record stream as a `dwc_model::UniversalTable`
//! assigns **identical `ValueId`s and identical postings** — the property
//! that makes crawl reports independent of the pager.
//!
//! The postings build never holds more than a configurable byte budget of
//! postings in RAM: a counting pass sizes every list, then values are
//! processed in contiguous id *buckets*, each bucket filled by one
//! sequential scan of the record segment and appended sequentially to the
//! postings segment.
//!
//! A table is built once, into an empty pager, and lives as long as that
//! pager: there is no metadata file and no path that reopens a packed
//! directory.

use crate::list::{unpack, ListStore, ListWriter};
use crate::pager::SegmentPager;
use crate::pool::{BufferPool, PoolStats};
use crate::postings;
use dwc_model::{AttrId, Record, Schema, UniversalTable, ValueId, ValueInterner};
use std::borrow::Cow;
use std::io;

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
        self.scratch.sort_unstable();
        self.scratch.dedup();
        if self.counts.len() < self.interner.len() {
            self.counts.resize(self.interner.len(), 0);
        }
        for v in &self.scratch {
            self.counts[v.index()] += 1;
        }
        self.records.push(self.pager.as_mut(), self.scratch.iter().map(|v| v.0))?;
        Ok(())
    }

    /// Appends one record whose ids are already interned by this builder's
    /// interner, sorted and unique (a `dwc_model::Record`'s values).
    fn push_sorted(&mut self, values: &[ValueId]) -> io::Result<()> {
        for v in values {
            self.counts[v.index()] += 1;
        }
        self.records.push(self.pager.as_mut(), values.iter().map(|v| v.0))?;
        Ok(())
    }

    /// Replaces the builder's interner (used by
    /// [`SegmentTable::from_table`] so ids match an existing table).
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
                for v in unpack(vals) {
                    let v = v as usize;
                    if v >= lo && v < hi {
                        data[cursor[v - lo]] = rid as u32;
                        cursor[v - lo] += 1;
                    }
                }
            })?;
            for v in lo..hi {
                let list = &data[starts[v - lo]..starts[v - lo + 1]];
                postings_writer.push(self.pager.as_mut(), list.iter().copied())?;
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
/// internally) and return the pager's I/O errors: a truncated or deleted
/// segment file is an error for the caller (the server reports it as a
/// failed request), never a panic. Source-level faults are injected above
/// the server (dwc-core's `FaultPlanSource`), not here.
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
    /// Packs a copy of `table` (shared interner ⇒ identical ids).
    pub fn from_table(
        table: &UniversalTable,
        pager: Box<dyn SegmentPager>,
        pool_bytes: usize,
    ) -> io::Result<Self> {
        let mut b = SegmentTableBuilder::new(table.schema().clone(), pager)?
            .with_interner(table.interner().clone());
        for (_, rec) in table.iter() {
            b.push_sorted(rec.values())?;
        }
        b.finish(pool_bytes)
    }

    /// [`SegmentTable::from_table`] for a table the caller gives up: its
    /// schema and interner move into the segment table instead of being
    /// copied, and each record is freed once it is packed.
    pub fn from_owned_table(
        table: UniversalTable,
        pager: Box<dyn SegmentPager>,
        pool_bytes: usize,
    ) -> io::Result<Self> {
        let (schema, interner, records) = table.into_parts();
        let mut b = SegmentTableBuilder::new(schema, pager)?.with_interner(interner);
        for rec in records {
            b.push_sorted(rec.values())?;
        }
        b.finish(pool_bytes)
    }

    /// The records as a resident table (same schema, interner and record
    /// ids), read in one sequential pass.
    pub fn to_table(&self) -> io::Result<UniversalTable> {
        let mut records = Vec::with_capacity(self.records.len() as usize);
        self.records.scan(self.pager.as_ref(), &self.pool, |_, vals| {
            records.push(Record::new(unpack(vals).map(ValueId).collect()));
        })?;
        Ok(UniversalTable::from_parts(self.schema.clone(), self.interner.clone(), records))
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

    /// Buffer-pool counters (all zero while every segment is read in place).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Number of records containing `v`.
    pub fn match_count(&self, v: ValueId) -> io::Result<usize> {
        if v.index() >= self.interner.len() {
            return Ok(0);
        }
        self.postings.list_len(self.pager.as_ref(), &self.pool, v.index() as u64)
    }

    /// Postings `lo..hi` (indices within `v`'s sorted postings list,
    /// clamped to it), packed as stored — the pagination hot path touches
    /// only the bytes its slice covers. Decode them with [`crate::unpack`].
    pub fn postings_slice(&self, v: ValueId, lo: usize, hi: usize) -> io::Result<Cow<'_, [u8]>> {
        if v.index() >= self.interner.len() {
            return Ok(Cow::Borrowed(&[]));
        }
        let (pager, pool) = (self.pager.as_ref(), &self.pool);
        self.postings.packed_slice(pager, pool, v.index() as u64, lo, hi)
    }

    /// The sorted, deduplicated value ids of record `rid`.
    pub fn record_values(&self, rid: u32) -> io::Result<Vec<ValueId>> {
        let packed = self.records.packed(self.pager.as_ref(), &self.pool, u64::from(rid))?;
        Ok(unpack(&packed).map(ValueId).collect())
    }

    /// Sorted union of several postings lists (keyword queries).
    pub fn union(&self, values: &[ValueId]) -> io::Result<Vec<u32>> {
        Ok(postings::union(&self.packed_postings(values)?))
    }

    /// Sorted intersection of several postings lists (conjunctive queries).
    pub fn intersect(&self, values: &[ValueId]) -> io::Result<Vec<u32>> {
        Ok(postings::intersect(&mut self.packed_postings(values)?))
    }

    /// Each value's postings packed as stored (an unknown value has none).
    fn packed_postings(&self, values: &[ValueId]) -> io::Result<Vec<Cow<'_, [u8]>>> {
        let known = |v: &ValueId| v.index() < self.interner.len();
        values
            .iter()
            .map(|v| match known(v) {
                true => self.postings.packed(self.pager.as_ref(), &self.pool, v.index() as u64),
                false => Ok(Cow::Borrowed(&[][..])),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::tests::PoolOnly;
    use crate::pager::{FilePager, MemPager};
    use dwc_model::fixtures::figure1_table;
    use dwc_model::AttrSpec;

    /// The two pagers every test runs over: one read in place, one read
    /// through a pool.
    fn pagers(page_size: usize) -> [Box<dyn SegmentPager>; 2] {
        [Box::new(MemPager::new(page_size)), Box::new(PoolOnly(MemPager::new(page_size)))]
    }

    /// Packed copies of `table` over both pagers; the pool of `pool_bytes`
    /// must be smaller than the segments, so the pooled copy evicts.
    fn paged_copies(
        table: &UniversalTable,
        page_size: usize,
        pool_bytes: usize,
    ) -> Vec<SegmentTable> {
        pagers(page_size)
            .into_iter()
            .map(|pager| {
                let st = SegmentTable::from_table(table, pager, pool_bytes).unwrap();
                assert!(st.storage_bytes() > pool_bytes as u64, "the pool must not hold it all");
                st
            })
            .collect()
    }

    fn assert_matches_resident(st: &SegmentTable, t: &UniversalTable) {
        assert_eq!(st.num_records(), t.num_records() as u64);
        assert_eq!(st.num_distinct_values(), t.num_distinct_values());
        for (rid, rec) in t.iter() {
            assert_eq!(st.record_values(rid.0).unwrap(), rec.values(), "record {rid:?}");
        }
        for v in t.interner().iter_ids() {
            assert_eq!(st.match_count(v).unwrap(), t.count_matches(v), "count of {v}");
            let postings: Vec<u32> =
                unpack(&st.postings_slice(v, 0, usize::MAX).unwrap()).collect();
            assert!(postings.windows(2).all(|w| w[0] < w[1]), "sorted postings for {v}");
            assert_eq!(postings.len(), t.count_matches(v));
        }
        let back = st.to_table().unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), t.iter().collect::<Vec<_>>());
        assert_eq!(back.interner().len(), t.interner().len());
    }

    #[test]
    fn figure1_round_trips_through_segments() {
        let t = figure1_table();
        for st in paged_copies(&t, 64, 128) {
            assert_matches_resident(&st, &t);
            let a2 = t.interner().get(AttrId(0), "a2").unwrap();
            assert_eq!(unpack(&st.postings_slice(a2, 1, 3).unwrap()).collect::<Vec<_>>(), [2, 3]);
            assert_eq!(st.match_count(ValueId(10_000)).unwrap(), 0, "unknown ids have no postings");
        }
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
        for pager in pagers(256) {
            let mut b = SegmentTableBuilder::new(t.schema().clone(), pager)
                .unwrap()
                .with_build_budget(1)
                .with_interner(t.interner().clone());
            for (_, rec) in t.iter() {
                b.push_sorted(rec.values()).unwrap();
            }
            let st = b.finish(4 * 256).unwrap();
            assert_matches_resident(&st, &t);
        }
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
        for pager in pagers(256) {
            let mut b = SegmentTableBuilder::new(schema.clone(), pager).unwrap();
            for row in &rows {
                b.push_record_strs(row.iter().map(|(a, s)| (*a, s.as_str()))).unwrap();
            }
            let st = b.finish(4 * 256).unwrap();
            assert_matches_resident(&st, &t);
            for v in t.interner().iter_ids() {
                assert_eq!(
                    st.interner().get(t.interner().attr_of(v), t.interner().value_str(v)),
                    Some(v),
                    "independent builds assign the same id to {v}"
                );
            }
        }
    }

    #[test]
    fn owned_and_borrowed_packs_agree() {
        let t = figure1_table();
        let owned = SegmentTable::from_owned_table(t.clone(), Box::new(MemPager::new(64)), 0);
        assert_matches_resident(&owned.unwrap(), &t);
    }

    #[test]
    fn union_and_intersect_match_resident_semantics() {
        let t = figure1_table();
        let id = |a: u16, s: &str| t.interner().get(AttrId(a), s).unwrap();
        let (a1, a2, c2) = (id(0, "a1"), id(0, "a2"), id(2, "c2"));
        for st in paged_copies(&t, 64, 128) {
            // a2 → {1,2,3}, c2 → {2,3,4}.
            assert_eq!(st.union(&[a2, c2]).unwrap(), vec![1, 2, 3, 4]);
            assert_eq!(st.union(&[]).unwrap(), Vec::<u32>::new());
            assert_eq!(st.intersect(&[a2, c2]).unwrap(), vec![2, 3]);
            assert_eq!(st.intersect(&[a2]).unwrap(), vec![1, 2, 3]);
            assert_eq!(st.intersect(&[a1, c2]).unwrap(), Vec::<u32>::new(), "disjoint");
            assert_eq!(st.intersect(&[a2, ValueId(10_000)]).unwrap(), Vec::<u32>::new());
            assert_eq!(st.intersect(&[]).unwrap(), Vec::<u32>::new());
        }
    }

    #[test]
    fn skewed_conjunction_gallops_over_both_pagers() {
        // 400 records all share A=common; C=rare appears on 3 of them —
        // exactly the rare∧popular shape galloping is for.
        let schema = Schema::new(vec![AttrSpec::queriable("A"), AttrSpec::queriable("C")]);
        let mut t = UniversalTable::new(schema);
        for i in 0..400u32 {
            let c = if i % 150 == 7 { "rare".to_string() } else { format!("c{i}") };
            t.push_record_strs([(AttrId(0), "common"), (AttrId(1), c.as_str())]);
        }
        let common = t.interner().get(AttrId(0), "common").unwrap();
        let rare = t.interner().get(AttrId(1), "rare").unwrap();
        for st in paged_copies(&t, 256, 4 * 256) {
            let (nc, nr) = (st.match_count(common).unwrap(), st.match_count(rare).unwrap());
            assert!(nc >= postings::GALLOP_SKEW * nr);
            assert_eq!(st.intersect(&[common, rare]).unwrap(), vec![7, 157, 307]);
            assert_eq!(st.intersect(&[rare, common]).unwrap(), vec![7, 157, 307]);
        }
    }

    #[test]
    fn truncated_segment_files_are_errors_not_panics() {
        let t = figure1_table();
        let dir = std::env::temp_dir().join(format!("dwc-table-{}-truncated", std::process::id()));
        let pager = FilePager::open(&dir, 64).unwrap();
        let st = SegmentTable::from_table(&t, Box::new(pager), 0).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let file = std::fs::OpenOptions::new().write(true).open(entry.unwrap().path());
            file.unwrap().set_len(0).unwrap();
        }
        let a2 = t.interner().get(AttrId(0), "a2").unwrap();
        assert!(st.match_count(a2).is_err());
        assert!(st.record_values(1).is_err());
        assert!(st.postings_slice(a2, 0, 2).is_err());
        assert!(st.intersect(&[a2, a2]).is_err());
        assert!(st.to_table().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
