//! Attribute-qualified string interning.
//!
//! Every distinct attribute value — e.g. `(Actor, "Hanks, Tom")` — is interned
//! once and referred to by a compact [`ValueId`] everywhere else (table,
//! graph, server postings, crawler frontier). Values are qualified by their
//! attribute, so `(Title, "Alien")` and `(Keyword, "Alien")` are distinct
//! vertices, matching Definition 2.1's distinct attribute value set `DAV`.
//!
//! The interner is built for the per-page hot path: all value bytes live in
//! one arena `String` (one `(offset, len)` span per value instead of one heap
//! allocation per value), every value's [`value_hash`] is stored so rehashing
//! on table growth never touches the strings, and the lookup table is a flat
//! open-addressing array probed with that same precomputed hash. Callers on
//! the hot path compute the hash once via [`value_hash`] and pass it to
//! [`ValueInterner::intern_prehashed`] / [`ValueInterner::get_prehashed`] (or
//! use the batch [`ValueInterner::intern_page`]) so each string is hashed
//! exactly once per sighting — the convenience [`ValueInterner::intern`] /
//! [`ValueInterner::get`] wrappers do it for you.
//!
//! A value's home slot is the top bits of its hash (`flat::home_slot`).
//! FxHash ends in a multiply, so its low bits see only the low bytes of the
//! last word; homing on them put DBLP's 37,814 values on 1,621 of 65,536
//! slots and made a successful lookup walk about 71 slots, where the top bits
//! need about 2. [`value_hash`] itself is frozen: the packed image stores it
//! per value, `SegmentTable` persists that image, and the end-to-end
//! benchmark's table fingerprints hash it, so only the slot rule — never the
//! hash — may change.

use crate::flat::{home_slot, over_load, slots_for};
use std::fmt;

/// Identifier of an attribute (column) in the universal table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u16);

/// Identifier of a distinct attribute value (a vertex of the AVG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Multiplier from the FxHash family (`0x51_7c_c1_b7_27_22_0a_95` is the
/// 64-bit constant rustc's own interners use). Not cryptographic — chosen for
/// throughput on short identifier-like strings.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn fx_mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// FxHash-style hash of an `(attribute, string)` pair, folding eight bytes
/// per multiply. This is the interner's canonical hash: compute it once per
/// sighting and reuse it for both [`ValueInterner::get_prehashed`] and
/// [`ValueInterner::intern_prehashed`].
#[inline]
pub fn value_hash(attr: AttrId, value: &str) -> u64 {
    let bytes = value.as_bytes();
    let mut h = fx_mix(bytes.len() as u64, u64::from(attr.0));
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        h = fx_mix(h, word);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut word = [0u8; 8];
        word[..rem.len()].copy_from_slice(rem);
        h = fx_mix(h, u64::from_le_bytes(word));
    }
    h
}

/// Vacant-slot sentinel in the open-addressing table. `u32::MAX` can never be
/// a live id because `intern` panics before the id space reaches it.
const EMPTY_SLOT: u32 = u32::MAX;

/// Interner mapping `(attribute, string)` pairs to dense [`ValueId`]s.
///
/// Storage is a single byte arena plus parallel per-id columns (span, attr,
/// hash); lookups probe a flat power-of-two open-addressing table with
/// precomputed hashes, so probing with a borrowed `&str` never allocates and
/// growth never rehashes a string.
#[derive(Debug, Default, Clone)]
pub struct ValueInterner {
    /// All value bytes, concatenated in insertion order.
    arena: String,
    /// `(offset, len)` into `arena`, one per [`ValueId`].
    spans: Vec<(u32, u32)>,
    /// Owning attribute, one per [`ValueId`].
    attrs: Vec<AttrId>,
    /// Precomputed [`value_hash`], one per [`ValueId`].
    hashes: Vec<u64>,
    /// Open-addressing table of id indices (power-of-two length, linear
    /// probing, [`EMPTY_SLOT`] = vacant). Empty until the first intern.
    slots: Vec<u32>,
    /// One past the highest attribute slot seen, for keyword scans.
    num_attrs: u32,
}

impl ValueInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `(attr, value)`, returning the existing id when already known.
    pub fn intern(&mut self, attr: AttrId, value: &str) -> ValueId {
        self.intern_prehashed(attr, value, value_hash(attr, value))
    }

    /// Like [`ValueInterner::intern`], but with the caller supplying
    /// `value_hash(attr, value)` so a string sighted once is hashed once —
    /// the same hash drives the lookup probe and, on a miss, the insertion.
    pub fn intern_prehashed(&mut self, attr: AttrId, value: &str, hash: u64) -> ValueId {
        if over_load(self.spans.len() + 1, self.slots.len()) {
            self.rebuild_slots(slots_for(self.spans.len() + 1));
        }
        let vacant = match self.find(attr, value, hash) {
            Ok(id) => return id,
            Err(vacant) => vacant,
        };
        let id =
            ValueId(u32::try_from(self.spans.len()).expect("more than u32::MAX distinct values"));
        let offset = u32::try_from(self.arena.len()).expect("arena exceeds u32 offsets");
        let len = u32::try_from(value.len()).expect("value exceeds u32 length");
        self.arena.push_str(value);
        self.spans.push((offset, len));
        self.attrs.push(attr);
        self.hashes.push(hash);
        self.slots[vacant] = id.0;
        self.num_attrs = self.num_attrs.max(u32::from(attr.0) + 1);
        id
    }

    /// Looks up an already-interned value without inserting.
    pub fn get(&self, attr: AttrId, value: &str) -> Option<ValueId> {
        self.get_prehashed(attr, value, value_hash(attr, value))
    }

    /// Like [`ValueInterner::get`], but with the caller supplying
    /// `value_hash(attr, value)`.
    pub fn get_prehashed(&self, attr: AttrId, value: &str, hash: u64) -> Option<ValueId> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(attr, value, hash).ok()
    }

    /// Probes a non-empty slot table from the home slot of `hash`: `Ok` with
    /// the value's id, or `Err` with the vacant slot where it belongs.
    #[inline]
    fn find(&self, attr: AttrId, value: &str, hash: u64) -> Result<ValueId, usize> {
        let mask = self.slots.len() - 1;
        let mut probe = home_slot(hash, self.slots.len());
        loop {
            #[cfg(test)]
            tests::PROBES.with(|n| n.set(n.get() + 1));
            let slot = self.slots[probe];
            if slot == EMPTY_SLOT {
                return Err(probe);
            }
            let idx = slot as usize;
            if self.hashes[idx] == hash && self.attrs[idx] == attr && self.span_str(idx) == value {
                return Ok(ValueId(slot));
            }
            probe = (probe + 1) & mask;
        }
    }

    /// Batch-interns one page's `(attr, value)` fields, appending the
    /// resulting ids to `out` in field order. Each field string is hashed
    /// exactly once ([`value_hash`]), with the hash reused across the table
    /// probe and any insertion — the entry point the Ingestor stage uses so
    /// page ingestion never double-hashes or allocates for already-known
    /// values.
    pub fn intern_page<'a, I>(&mut self, fields: I, out: &mut Vec<ValueId>)
    where
        I: IntoIterator<Item = (AttrId, &'a str)>,
    {
        for (attr, value) in fields {
            out.push(self.intern_prehashed(attr, value, value_hash(attr, value)));
        }
    }

    /// Looks up a bare string across all attributes (the keyword-interface
    /// view of Section 2.2's "fading schema"): returns every value id whose
    /// string equals `value`, regardless of attribute.
    pub fn get_keyword(&self, value: &str) -> Vec<ValueId> {
        (0..self.num_attrs).filter_map(|a| self.get(AttrId(a as u16), value)).collect()
    }

    /// The string form of a value.
    pub fn value_str(&self, id: ValueId) -> &str {
        self.span_str(id.index())
    }

    /// The attribute a value belongs to.
    pub fn attr_of(&self, id: ValueId) -> AttrId {
        self.attrs[id.index()]
    }

    /// The precomputed hash a value was interned under.
    pub fn hash_of(&self, id: ValueId) -> u64 {
        self.hashes[id.index()]
    }

    /// Number of distinct attribute values interned so far (|DAV|).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates all interned ids in insertion order.
    pub fn iter_ids(&self) -> impl Iterator<Item = ValueId> + '_ {
        (0..self.spans.len() as u32).map(ValueId)
    }

    /// All value ids belonging to `attr` (linear scan; intended for analysis,
    /// not hot paths).
    pub fn ids_of_attr(&self, attr: AttrId) -> Vec<ValueId> {
        self.attrs
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == attr)
            .map(|(i, _)| ValueId(i as u32))
            .collect()
    }

    #[inline]
    fn span_str(&self, idx: usize) -> &str {
        let (offset, len) = self.spans[idx];
        &self.arena[offset as usize..(offset + len) as usize]
    }

    /// Rebuilds the probe table at exactly `new_len` slots (a power of two)
    /// from the stored hash column — growth never re-reads, let alone
    /// rehashes, the arena.
    fn rebuild_slots(&mut self, new_len: usize) {
        self.slots.clear();
        self.slots.resize(new_len, EMPTY_SLOT);
        let mask = new_len - 1;
        for (idx, &hash) in self.hashes.iter().enumerate() {
            let mut probe = home_slot(hash, new_len);
            while self.slots[probe] != EMPTY_SLOT {
                probe = (probe + 1) & mask;
            }
            self.slots[probe] = idx as u32;
        }
    }
}

/// Magic header of the packed interner image.
const SPILL_MAGIC: &[u8; 8] = b"DWCINTR1";

impl ValueInterner {
    /// Serializes the interner to a packed byte image: arena bytes plus the
    /// span-length / attribute / **precomputed hash** columns, with an
    /// FNV-1a checksum trailer. Because the hashes travel with the image,
    /// [`ValueInterner::from_packed_bytes`] rebuilds the probe table without
    /// ever rehashing a string — spilling and reloading a multi-million
    /// value interner costs one sequential pass each way.
    pub fn to_packed_bytes(&self) -> Vec<u8> {
        let n = self.spans.len();
        let mut out = Vec::with_capacity(8 + 4 + 16 + self.arena.len() + n * 14 + 8);
        out.extend_from_slice(SPILL_MAGIC);
        out.extend_from_slice(&self.num_attrs.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&(self.arena.len() as u64).to_le_bytes());
        out.extend_from_slice(self.arena.as_bytes());
        for &(_, len) in &self.spans {
            out.extend_from_slice(&len.to_le_bytes());
        }
        for &attr in &self.attrs {
            out.extend_from_slice(&attr.0.to_le_bytes());
        }
        for &hash in &self.hashes {
            out.extend_from_slice(&hash.to_le_bytes());
        }
        let sum = crate::packed::fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Reloads a packed image produced by [`ValueInterner::to_packed_bytes`].
    /// Ids, strings, attributes and hashes come back identical; the probe
    /// table is re-placed from the stored hashes (no string is rehashed).
    pub fn from_packed_bytes(bytes: &[u8]) -> Result<Self, crate::packed::PackedError> {
        use crate::packed::PackedError;
        if bytes.len() < 8 + 4 + 16 + 8 {
            return Err(PackedError::Truncated);
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let sum = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        if crate::packed::fnv1a64(payload) != sum {
            return Err(PackedError::Checksum);
        }
        if &payload[..8] != SPILL_MAGIC {
            return Err(PackedError::Magic);
        }
        let num_attrs = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
        let count = u64::from_le_bytes(payload[12..20].try_into().expect("8 bytes")) as usize;
        let arena_len = u64::from_le_bytes(payload[20..28].try_into().expect("8 bytes")) as usize;
        let body = &payload[28..];
        let need = arena_len
            .checked_add(count.checked_mul(14).ok_or(PackedError::Layout)?)
            .ok_or(PackedError::Layout)?;
        if body.len() != need {
            return Err(PackedError::Truncated);
        }
        let (arena_bytes, cols) = body.split_at(arena_len);
        let arena = String::from_utf8(arena_bytes.to_vec()).map_err(|_| PackedError::Utf8)?;
        let (len_col, cols) = cols.split_at(count * 4);
        let (attr_col, hash_col) = cols.split_at(count * 2);
        let mut spans = Vec::with_capacity(count);
        let mut offset = 0u64;
        for c in len_col.chunks_exact(4) {
            let len = u32::from_le_bytes(c.try_into().expect("4 bytes"));
            let start = u32::try_from(offset).map_err(|_| PackedError::Layout)?;
            spans.push((start, len));
            offset += u64::from(len);
        }
        if offset != arena_len as u64 {
            return Err(PackedError::Layout);
        }
        // Span boundaries must fall on UTF-8 character boundaries.
        if spans.iter().any(|&(s, _)| !arena.is_char_boundary(s as usize)) {
            return Err(PackedError::Layout);
        }
        let attrs: Vec<AttrId> = attr_col
            .chunks_exact(2)
            .map(|c| AttrId(u16::from_le_bytes(c.try_into().expect("2 bytes"))))
            .collect();
        let hashes: Vec<u64> = hash_col
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        let mut it = ValueInterner { arena, spans, attrs, hashes, slots: Vec::new(), num_attrs };
        if count > 0 {
            it.rebuild_slots(slots_for(count + 1));
        }
        Ok(it)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Slots probed by this thread's lookups (tests run one per thread).
        pub(super) static PROBES: Cell<u64> = const { Cell::new(0) };
    }

    #[test]
    fn successful_lookups_probe_few_slots() {
        // DBLP-like values: a shared prefix, then digits in the top bytes of
        // the first word or the low bytes of the last one. Homing on the low
        // hash bits walked 73 slots per lookup on average here (903 at
        // most); the top bits take 1.6 (26 at most).
        let values: Vec<(AttrId, String)> = (0..25_000)
            .map(|i| (AttrId(0), format!("Title_{i}")))
            .chain((0..12_000).map(|i| (AttrId(1), format!("Author_{i}"))))
            .chain((0..200).map(|i| (AttrId(2), format!("Conference_{i}"))))
            .collect();
        let mut it = ValueInterner::new();
        let ids: Vec<ValueId> = values.iter().map(|(a, v)| it.intern(*a, v)).collect();
        PROBES.with(|n| n.set(0));
        let mut worst = 0;
        for ((attr, value), &id) in values.iter().zip(&ids) {
            let before = PROBES.with(Cell::get);
            assert_eq!(it.get(*attr, value), Some(id));
            worst = worst.max(PROBES.with(Cell::get) - before);
        }
        let mean = PROBES.with(Cell::get) as f64 / values.len() as f64;
        assert!(mean <= 4.0, "{mean:.1} slots per successful lookup (worst {worst})");
    }

    #[test]
    fn interning_is_idempotent() {
        let mut it = ValueInterner::new();
        let a = it.intern(AttrId(0), "Hanks, Tom");
        let b = it.intern(AttrId(0), "Hanks, Tom");
        assert_eq!(a, b);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn same_string_different_attr_is_distinct() {
        let mut it = ValueInterner::new();
        let a = it.intern(AttrId(0), "Alien");
        let b = it.intern(AttrId(1), "Alien");
        assert_ne!(a, b);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn roundtrip_string_and_attr() {
        let mut it = ValueInterner::new();
        let id = it.intern(AttrId(3), "IBM");
        assert_eq!(it.value_str(id), "IBM");
        assert_eq!(it.attr_of(id), AttrId(3));
    }

    #[test]
    fn get_does_not_insert() {
        let mut it = ValueInterner::new();
        assert_eq!(it.get(AttrId(0), "x"), None);
        let id = it.intern(AttrId(0), "x");
        assert_eq!(it.get(AttrId(0), "x"), Some(id));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut it = ValueInterner::new();
        let ids: Vec<_> = ["a", "b", "c"].iter().map(|s| it.intern(AttrId(0), s)).collect();
        assert_eq!(ids, vec![ValueId(0), ValueId(1), ValueId(2)]);
        assert_eq!(it.iter_ids().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn ids_of_attr_filters() {
        let mut it = ValueInterner::new();
        it.intern(AttrId(0), "x");
        let b = it.intern(AttrId(1), "y");
        it.intern(AttrId(0), "z");
        assert_eq!(it.ids_of_attr(AttrId(1)), vec![b]);
    }

    #[test]
    fn prehashed_paths_agree_with_convenience_wrappers() {
        let mut it = ValueInterner::new();
        let h = value_hash(AttrId(2), "Blade Runner");
        let id = it.intern_prehashed(AttrId(2), "Blade Runner", h);
        assert_eq!(it.get_prehashed(AttrId(2), "Blade Runner", h), Some(id));
        assert_eq!(it.get(AttrId(2), "Blade Runner"), Some(id));
        assert_eq!(it.intern(AttrId(2), "Blade Runner"), id);
        assert_eq!(it.hash_of(id), h);
    }

    #[test]
    fn intern_page_batches_in_field_order() {
        let mut it = ValueInterner::new();
        let mut out = Vec::new();
        it.intern_page(vec![(AttrId(0), "x"), (AttrId(1), "y"), (AttrId(0), "x")], &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[2], "repeat sightings reuse the id");
        assert_ne!(out[0], out[1]);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn keyword_lookup_spans_attributes() {
        let mut it = ValueInterner::new();
        let a = it.intern(AttrId(0), "Alien");
        let b = it.intern(AttrId(2), "Alien");
        it.intern(AttrId(1), "Aliens");
        assert_eq!(it.get_keyword("Alien"), vec![a, b]);
        assert!(it.get_keyword("Predator").is_empty());
    }

    #[test]
    fn survives_growth_across_many_values() {
        let mut it = ValueInterner::new();
        let ids: Vec<_> =
            (0..1000).map(|i| it.intern(AttrId((i % 5) as u16), &format!("val-{i}"))).collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(it.value_str(id), format!("val-{i}"));
            assert_eq!(it.attr_of(id), AttrId((i % 5) as u16));
            assert_eq!(it.get(AttrId((i % 5) as u16), &format!("val-{i}")), Some(id));
        }
        assert_eq!(it.len(), 1000);
    }

    #[test]
    fn packed_spill_round_trips_without_rehashing() {
        let mut it = ValueInterner::new();
        let ids: Vec<_> =
            (0..500).map(|i| it.intern(AttrId((i % 7) as u16), &format!("value-{i}-αβ"))).collect();
        let bytes = it.to_packed_bytes();
        let back = ValueInterner::from_packed_bytes(&bytes).unwrap();
        assert_eq!(back.len(), it.len());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(back.value_str(id), it.value_str(id));
            assert_eq!(back.attr_of(id), it.attr_of(id));
            assert_eq!(back.hash_of(id), it.hash_of(id), "hash column is preserved verbatim");
            assert_eq!(
                back.get(AttrId((i % 7) as u16), &format!("value-{i}-αβ")),
                Some(id),
                "probe table rebuilt from stored hashes resolves every id"
            );
        }
        // The reloaded interner keeps assigning ids exactly where the
        // original would.
        let mut a = it.clone();
        let mut b = back;
        assert_eq!(a.intern(AttrId(1), "brand new"), b.intern(AttrId(1), "brand new"));
    }

    #[test]
    fn packed_spill_rejects_corruption() {
        use crate::packed::PackedError;
        let mut it = ValueInterner::new();
        it.intern(AttrId(0), "x");
        let bytes = it.to_packed_bytes();
        assert!(matches!(
            ValueInterner::from_packed_bytes(&bytes[..5]),
            Err(PackedError::Truncated)
        ));
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x40;
        assert!(matches!(ValueInterner::from_packed_bytes(&flipped), Err(PackedError::Checksum)));
        let empty = ValueInterner::new().to_packed_bytes();
        let back = ValueInterner::from_packed_bytes(&empty).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn hash_distinguishes_length_from_zero_padding() {
        // The trailing partial word is zero-padded, so the length must be
        // mixed in to keep "a" and "a\0" distinct.
        assert_ne!(value_hash(AttrId(0), "a"), value_hash(AttrId(0), "a\0"));
        assert_ne!(value_hash(AttrId(0), ""), value_hash(AttrId(0), "\0"));
    }
}
