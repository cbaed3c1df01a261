//! Rendered-page cache for shared-source fleets.
//!
//! Rendering a [`crate::server::ResultPage`] to its wire form is the server's
//! dominant CPU cost, and overlapping fleet workers crawling one shared
//! source re-request the same `(query, page_index)` pages constantly (their
//! frontiers overlap by construction — they grow from the same attribute
//! value graph). The cache memoizes the rendered text behind `&self` so any
//! worker's render is reusable by every other worker.
//!
//! **Billing is unaffected.** A cache hit skips the resolve + paginate +
//! render work, *not* the communication round — Definition 2.3 charges per
//! page request regardless of how cheaply the server can answer it. The
//! cache changes wall-clock cost only. A server's interface is fixed at
//! construction, so a cached render never goes stale.
//!
//! Entries are keyed by a 64-bit fingerprint of `(query, page_index)` so a
//! lookup never clones the query; the stored key is compared on hit, and
//! a fingerprint collision between different keys just degrades to a miss.

use crate::interface::Query;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A rendered page handed out by the server: shared text plus whether it was
/// served from cache (surfaced to crawlers as a `PageCacheHit` event).
#[derive(Debug, Clone)]
pub struct RenderedPage {
    text: Arc<str>,
    cache_hit: bool,
}

impl RenderedPage {
    pub(crate) fn new(text: Arc<str>, cache_hit: bool) -> Self {
        RenderedPage { text, cache_hit }
    }

    /// The rendered document.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Whether this render was reused from the page cache.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }
}

/// Default number of rendered pages a server keeps (small on purpose: the
/// win comes from *concurrent* overlap, not long history).
pub const DEFAULT_PAGE_CACHE_CAPACITY: usize = 256;

#[derive(Debug)]
struct Entry {
    query: Query,
    page_index: usize,
    text: Arc<str>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<u64, Entry>,
    /// Monotonic use counter driving LRU eviction.
    tick: u64,
}

/// A small LRU cache of rendered result pages keyed by
/// `(query, page_index)`.
///
/// All methods take `&self`; the map sits behind a `Mutex` (held only for a
/// probe or an insert — never across a render) and the hit counters are
/// atomics so readers of the stats never contend.
#[derive(Debug)]
pub struct PageCache {
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inner: Mutex<Inner>,
}

impl PageCache {
    /// A cache holding at most `capacity` rendered pages; `capacity == 0`
    /// disables caching entirely (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        PageCache {
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Looks up a rendered page, counting the hit or miss.
    pub fn get(&self, query: &Query, page_index: usize) -> Option<Arc<str>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let fp = fingerprint(query, page_index);
        let mut inner = self.inner.lock().expect("page cache poisoned");
        // Probe first, mutate after, so the map borrow is released between.
        let probe = match inner.entries.get(&fp) {
            Some(e) if e.page_index == page_index && e.query == *query => Some(Arc::clone(&e.text)),
            Some(_) => {
                // Fingerprint collision: drop it so the slot is free for the
                // fresh render.
                inner.entries.remove(&fp);
                None
            }
            None => None,
        };
        match probe {
            Some(text) => {
                inner.tick += 1;
                let tick = inner.tick;
                if let Some(e) = inner.entries.get_mut(&fp) {
                    e.last_used = tick;
                }
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(text)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a freshly rendered page, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&self, query: &Query, page_index: usize, text: Arc<str>) {
        if self.capacity == 0 {
            return;
        }
        let fp = fingerprint(query, page_index);
        let mut inner = self.inner.lock().expect("page cache poisoned");
        if inner.entries.len() >= self.capacity && !inner.entries.contains_key(&fp) {
            // O(capacity) scan for the least recently used entry is fine at
            // this size.
            let victim = inner.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(&k, _)| k);
            if let Some(victim) = victim {
                inner.entries.remove(&victim);
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(fp, Entry { query: query.clone(), page_index, text, last_used: tick });
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (including lookups while disabled).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("page cache poisoned").entries.len()
    }

    /// Whether the cache currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Cloning a cache yields an empty one with the same capacity: cached text
/// and hit statistics belong to one server instance's traffic.
impl Clone for PageCache {
    fn clone(&self) -> Self {
        PageCache::new(self.capacity)
    }
}

impl Default for PageCache {
    fn default() -> Self {
        PageCache::new(DEFAULT_PAGE_CACHE_CAPACITY)
    }
}

fn fingerprint(query: &Query, page_index: usize) -> u64 {
    let mut h = DefaultHasher::new();
    query.hash(&mut h);
    page_index.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(s: &str) -> Query {
        Query::Keyword(s.to_string())
    }

    fn text(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let c = PageCache::new(8);
        assert!(c.get(&q("a"), 0).is_none());
        c.insert(&q("a"), 0, text("<page a>"));
        let got = c.get(&q("a"), 0).expect("hit");
        assert_eq!(&*got, "<page a>");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn key_distinguishes_query_and_page() {
        let c = PageCache::new(8);
        c.insert(&q("a"), 0, text("xml"));
        assert!(c.get(&q("b"), 0).is_none());
        assert!(c.get(&q("a"), 1).is_none());
        assert!(c.get(&q("a"), 0).is_some());
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let c = PageCache::new(2);
        c.insert(&q("a"), 0, text("a"));
        c.insert(&q("b"), 0, text("b"));
        assert!(c.get(&q("a"), 0).is_some(), "touch a");
        c.insert(&q("c"), 0, text("c"));
        assert!(c.len() <= 2);
        assert!(c.get(&q("a"), 0).is_some(), "a was recently used");
        assert!(c.get(&q("b"), 0).is_none(), "b was the LRU victim");
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let c = PageCache::new(0);
        c.insert(&q("a"), 0, text("a"));
        assert!(c.get(&q("a"), 0).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn clone_starts_empty() {
        let c = PageCache::new(4);
        c.insert(&q("a"), 0, text("a"));
        let c2 = c.clone();
        assert_eq!(c2.len(), 0);
        assert_eq!(c2.capacity(), 4);
    }
}
