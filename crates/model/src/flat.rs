//! Flat open addressing: the one slot rule, and a table keyed by `u64`.
//!
//! Every probe table in the workspace's hot paths is a power-of-two array of
//! slots probed linearly from a *home slot*, and [`home_slot`] is the one rule
//! that places it: the **top** `log2(len)` bits of a 64-bit hash. Every hash
//! fed to it ends in a multiply — the interner's FxHash
//! ([`crate::value_hash`]), and the multiply-shift of [`U64Table`] and of
//! `DB_local`'s lower-neighbour sets — and a product's low bits depend only
//! on the low bits of its factors. Homing on the low bits therefore piles
//! keys that differ only in their high bytes onto a few slots (DBLP's
//! `Title_{i}` strings vary in the top bytes of their first word), while the
//! top bits of the product see every input bit.
//!
//! [`U64Table`] serves the crawler's integer-keyed sets and maps: record
//! keys and co-occurring value pairs.

use std::hash::{BuildHasher, RandomState};

/// Home slot of `hash` in a table of `len` slots: the top `log2(len)` bits of
/// the hash. `len` must be a power of two of at least 2.
#[inline]
pub fn home_slot(hash: u64, len: usize) -> usize {
    debug_assert!(len.is_power_of_two() && len >= 2, "slot count {len}");
    (hash >> (64 - len.trailing_zeros())) as usize
}

/// Smallest table, in slots.
const MIN_SLOTS: usize = 16;

/// Whether `entries` entries overfill `slots` slots: load stays at most 7/8.
#[inline]
pub fn over_load(entries: usize, slots: usize) -> bool {
    entries * 8 > slots * 7
}

/// Slots of a table sized to hold `entries` entries: the smallest power of
/// two, at least 16, that `over_load` accepts. Called with one more than
/// the current count whenever that count fills the table, it doubles it.
pub fn slots_for(entries: usize) -> usize {
    let mut slots = MIN_SLOTS;
    while over_load(entries, slots) {
        slots *= 2;
    }
    slots
}

/// A freshly drawn odd multiplier for a multiply-shift hash.
pub fn odd_multiplier() -> u64 {
    RandomState::new().hash_one(0x9e37_79b9_7f4a_7c15_u64) | 1
}

/// Vacant-slot marker of [`U64Table`]. The key equal to it is held beside
/// the slots, so every `u64` is a valid key.
const EMPTY_KEY: u64 = u64::MAX;

/// Open-addressing table from `u64` keys to `Copy` values; `U64Table<()>` is
/// a set.
///
/// Keys hash by multiply-shift: the key times an odd multiplier, homed by
/// the product's top bits like every table here, then probed linearly. Each
/// table draws its multiplier once from [`RandomState`], because keys such
/// as record ids come from the source. Lookups never depend on it, and the
/// table offers no iteration, so no output can depend on it either.
#[derive(Debug)]
pub struct U64Table<V = ()> {
    /// `(key, value)` per slot; `EMPTY_KEY` marks a vacant slot. Empty
    /// until the first insert.
    slots: Vec<(u64, V)>,
    /// Entries held in `slots`.
    filled: usize,
    /// The value of key `EMPTY_KEY`, if present.
    sentinel: Option<V>,
    /// Odd multiplier of the multiply-shift hash.
    multiplier: u64,
}

impl<V: Copy + Default> Default for U64Table<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> U64Table<V> {
    /// An empty table with a freshly drawn multiplier.
    pub fn new() -> Self {
        U64Table { slots: Vec::new(), filled: 0, sentinel: None, multiplier: odd_multiplier() }
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.filled + usize::from(self.sentinel.is_some())
    }

    /// Whether no key is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        if key == EMPTY_KEY {
            return self.sentinel;
        }
        if self.slots.is_empty() {
            return None;
        }
        self.find(key).ok().map(|i| self.slots[i].1)
    }

    /// Whether `key` is held.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Stores `key → value` unless `key` is already held. Returns the value
    /// already stored, or `None` when this call inserted.
    #[inline]
    pub fn try_insert(&mut self, key: u64, value: V) -> Option<V> {
        if key == EMPTY_KEY {
            let held = self.sentinel;
            self.sentinel.get_or_insert(value);
            return held;
        }
        if over_load(self.filled + 1, self.slots.len()) {
            self.grow();
        }
        match self.find(key) {
            Ok(i) => Some(self.slots[i].1),
            Err(i) => {
                self.slots[i] = (key, value);
                self.filled += 1;
                None
            }
        }
    }

    /// Probes for `key` (never `EMPTY_KEY`) in a non-empty table: `Ok` with
    /// its slot, or `Err` with the vacant slot where it belongs.
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = home_slot(key.wrapping_mul(self.multiplier), self.slots.len());
        loop {
            match self.slots[i].0 {
                k if k == key => return Ok(i),
                EMPTY_KEY => return Err(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Re-places every entry into a table sized for one more.
    fn grow(&mut self) {
        let vacant = (EMPTY_KEY, V::default());
        let old = std::mem::replace(&mut self.slots, vec![vacant; slots_for(self.filled + 1)]);
        for (key, value) in old.into_iter().filter(|&(key, _)| key != EMPTY_KEY) {
            if let Err(i) = self.find(key) {
                self.slots[i] = (key, value);
            }
        }
    }
}

impl U64Table<()> {
    /// Adds `key` to the set; `true` when it was not held yet.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        self.try_insert(key, ()).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn home_slot_takes_the_top_bits() {
        assert_eq!(home_slot(0xF000_0000_0000_0000, 16), 15);
        assert_eq!(home_slot(0x0FFF_FFFF_FFFF_FFFF, 16), 0);
        assert_eq!(home_slot(u64::MAX, 2), 1);
        assert_eq!(home_slot(1 << 47, 1 << 17), 1);
    }

    #[test]
    fn slots_for_doubles_at_seven_eighths() {
        assert_eq!(slots_for(0), 16);
        assert_eq!(slots_for(14), 16);
        assert_eq!(slots_for(15), 32);
        assert_eq!(slots_for(28), 32);
        assert_eq!(slots_for(29), 64);
    }

    #[test]
    fn set_growth_duplicates_and_the_sentinel_key() {
        let mut set = U64Table::<()>::new();
        assert!(set.is_empty() && !set.contains(0) && !set.contains(EMPTY_KEY));
        let keys: Vec<u64> = (0..5_000u64)
            .map(|i| i << 40)
            .chain((0..5_000).map(|i| i * 0x9e37_79b9))
            .chain([0, EMPTY_KEY, EMPTY_KEY - 1, 1 << 63])
            .collect();
        let mut distinct = std::collections::HashSet::new();
        for &k in &keys {
            assert_eq!(set.insert(k), distinct.insert(k), "first insert of {k:#x} is new");
            assert!(!set.insert(k), "a duplicate insert of {k:#x} is not new");
        }
        assert_eq!(set.len(), distinct.len());
        assert!(set.slots.len().is_power_of_two() && !over_load(set.filled, set.slots.len()));
        for &k in &keys {
            assert!(set.contains(k), "{k:#x} survives growth");
        }
        for k in [1u64, 3 << 40, EMPTY_KEY - 2, 12_345] {
            assert_eq!(set.contains(k), distinct.contains(&k), "{k:#x}");
        }
    }

    #[test]
    fn map_keeps_the_first_value_and_matches_std() {
        let mut table = U64Table::<u32>::new();
        let mut oracle = HashMap::new();
        for i in 0..20_000u64 {
            // Small keys, keys just under the sentinel, and the sentinel.
            let key = match (i % 1_000, i % 3) {
                (999, _) => EMPTY_KEY,
                (_, 0) => EMPTY_KEY - (i * 7_919) % 9_001 - 1,
                _ => (i * 7_919) % 9_001,
            };
            let stored = table.try_insert(key, i as u32);
            assert_eq!(stored, oracle.get(&key).copied());
            oracle.entry(key).or_insert(i as u32);
        }
        assert_eq!(table.len(), oracle.len());
        for (&k, &v) in &oracle {
            assert_eq!(table.get(k), Some(v));
        }
        assert_eq!(table.get(EMPTY_KEY), Some(999));
        assert_eq!(table.get(9_002), None);
    }

    #[test]
    fn tables_draw_their_own_odd_multipliers() {
        let (a, b) = (U64Table::<()>::new(), U64Table::<()>::new());
        assert_eq!(a.multiplier & 1, 1);
        assert_ne!(a.multiplier, b.multiplier);
    }
}
