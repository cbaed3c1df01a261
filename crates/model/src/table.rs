//! The universal table: records over interned attribute values.
//!
//! Following Section 5 of the paper ("for each database, we join all the
//! information into one single universal table"), a structured web source is a
//! flat list of records; each record carries the sorted, deduplicated set of
//! its attribute-value ids. Multi-valued attributes (authors, actors) simply
//! contribute several ids.

use crate::interner::{AttrId, ValueId, ValueInterner};
use crate::schema::Schema;

/// Identifier of a record (row) of the universal table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u32);

impl RecordId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A record: the sorted, deduplicated list of its attribute-value ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    values: Box<[ValueId]>,
}

impl Record {
    /// Builds a record from value ids; sorts and deduplicates.
    pub fn new(mut values: Vec<ValueId>) -> Self {
        values.sort_unstable();
        values.dedup();
        Record { values: values.into_boxed_slice() }
    }

    /// The value ids of the record (sorted ascending, unique).
    #[inline]
    pub fn values(&self) -> &[ValueId] {
        &self.values
    }

    /// Whether the record contains `v` (binary search).
    #[inline]
    pub fn contains(&self, v: ValueId) -> bool {
        self.values.binary_search(&v).is_ok()
    }

    /// Number of distinct values in the record.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the record has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A structured web database: schema + interner + records.
#[derive(Debug, Clone, Default)]
pub struct UniversalTable {
    schema: Schema,
    interner: ValueInterner,
    records: Vec<Record>,
}

impl UniversalTable {
    /// Creates an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        UniversalTable { schema, interner: ValueInterner::new(), records: Vec::new() }
    }

    /// Reassembles a table from the parts [`UniversalTable::into_parts`]
    /// returns.
    pub fn from_parts(schema: Schema, interner: ValueInterner, records: Vec<Record>) -> Self {
        debug_assert!(
            records.iter().flat_map(Record::values).all(|v| v.index() < interner.len()),
            "record references unknown value id"
        );
        UniversalTable { schema, interner, records }
    }

    /// Takes the table apart, so a consumer can keep the schema and the
    /// interner without copying them.
    pub fn into_parts(self) -> (Schema, ValueInterner, Vec<Record>) {
        (self.schema, self.interner, self.records)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The value interner (string ↔ id mapping).
    pub fn interner(&self) -> &ValueInterner {
        &self.interner
    }

    /// Number of records.
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// Number of distinct attribute values (|DAV|, as reported in Table 2 of
    /// the paper).
    pub fn num_distinct_values(&self) -> usize {
        self.interner.len()
    }

    /// The record with the given id.
    pub fn record(&self, id: RecordId) -> &Record {
        &self.records[id.index()]
    }

    /// Iterates `(id, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, &Record)> {
        self.records.iter().enumerate().map(|(i, r)| (RecordId(i as u32), r))
    }

    /// Inserts a record given `(attribute, value string)` pairs, interning the
    /// values. Returns the new record id.
    pub fn push_record_strs<S, I>(&mut self, fields: I) -> RecordId
    where
        S: AsRef<str>,
        I: IntoIterator<Item = (AttrId, S)>,
    {
        let values: Vec<ValueId> =
            fields.into_iter().map(|(attr, s)| self.interner.intern(attr, s.as_ref())).collect();
        self.push_record_ids(values)
    }

    /// Inserts a record from already-interned value ids.
    pub fn push_record_ids(&mut self, values: Vec<ValueId>) -> RecordId {
        debug_assert!(
            values.iter().all(|v| v.index() < self.interner.len()),
            "record references unknown value id"
        );
        let id = RecordId(u32::try_from(self.records.len()).expect("more than u32::MAX records"));
        self.records.push(Record::new(values));
        id
    }

    /// Interns a value through the table (useful while generating data).
    pub fn intern(&mut self, attr: AttrId, value: &str) -> ValueId {
        self.interner.intern(attr, value)
    }

    /// Number of records containing `v` (linear scan; analysis helper — a
    /// server answers from the postings of its segment table).
    pub fn count_matches(&self, v: ValueId) -> usize {
        self.records.iter().filter(|r| r.contains(v)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure1_table;

    #[test]
    fn record_sorts_and_dedups() {
        let r = Record::new(vec![ValueId(3), ValueId(1), ValueId(3), ValueId(2)]);
        assert_eq!(r.values(), &[ValueId(1), ValueId(2), ValueId(3)]);
        assert!(r.contains(ValueId(2)));
        assert!(!r.contains(ValueId(0)));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn figure1_counts() {
        let t = figure1_table();
        assert_eq!(t.num_records(), 5);
        // Distinct values: a1,a2,a3,b1,b2,b3,b4,c1,c2 = 9 vertices, as drawn
        // in Figure 1 of the paper.
        assert_eq!(t.num_distinct_values(), 9);
    }

    #[test]
    fn count_matches_matches_figure1() {
        let t = figure1_table();
        let a2 = t.interner().get(AttrId(0), "a2").unwrap();
        let c2 = t.interner().get(AttrId(2), "c2").unwrap();
        assert_eq!(t.count_matches(a2), 3);
        assert_eq!(t.count_matches(c2), 3);
    }

    #[test]
    fn shared_values_are_shared_ids() {
        let t = figure1_table();
        let (r1, r2) = (t.record(RecordId(1)), t.record(RecordId(2)));
        let shared: Vec<_> = r1.values().iter().filter(|v| r2.contains(**v)).collect();
        assert_eq!(shared.len(), 2, "records 1 and 2 share a2 and b2");
    }

    #[test]
    fn parts_round_trip() {
        let t = figure1_table();
        let (schema, interner, records) = t.clone().into_parts();
        assert_eq!(records.len(), 5);
        let back = UniversalTable::from_parts(schema, interner, records);
        assert_eq!(back.iter().collect::<Vec<_>>(), t.iter().collect::<Vec<_>>());
        assert_eq!(back.interner().len(), t.interner().len());
    }

    #[test]
    fn iter_yields_all_records() {
        let t = figure1_table();
        assert_eq!(t.iter().count(), 5);
        let ids: Vec<_> = t.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
