//! One memory budget shared by the storage and serving caches.
//!
//! `dwc crawl --mem-budget MB` sizes everything that caches bytes from a
//! single figure: three quarters go to the segment buffer pool (the page
//! working set), one quarter to the rendered-page cache (whose entries are
//! roughly page-render sized). Keeping the split here means the CLI, the
//! benches, and the smoke tests can never disagree about what a budget
//! means.

use crate::pager::DEFAULT_PAGE_SIZE;

/// Estimated bytes of one rendered result page (XML of ~10 records), used to
/// convert the cache's byte share into an entry count.
const RENDERED_PAGE_EST: u64 = 4096;

/// A byte budget split across the buffer pool and the page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Total budget in bytes.
    pub bytes: u64,
}

impl MemoryBudget {
    /// A budget of `mb` mebibytes. The CLI rejects zero when it parses
    /// `--mem-budget`; here zero simply yields empty caches.
    pub fn from_mb(mb: u64) -> Self {
        MemoryBudget { bytes: mb.saturating_mul(1 << 20) }
    }

    /// Bytes for the segment buffer pool (3/4 of the budget).
    pub fn pool_bytes(&self) -> usize {
        usize::try_from(self.bytes / 4 * 3).unwrap_or(usize::MAX)
    }

    /// Buffer-pool frame count at the default page size.
    pub fn pool_frames(&self) -> usize {
        self.pool_bytes() / DEFAULT_PAGE_SIZE
    }

    /// Rendered-page cache capacity in entries (1/4 of the budget at
    /// ~4 KiB per rendered page).
    pub fn page_cache_entries(&self) -> usize {
        usize::try_from(self.bytes / 4 / RENDERED_PAGE_EST).unwrap_or(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_three_quarters_pool() {
        let b = MemoryBudget::from_mb(64);
        assert_eq!(b.bytes, 64 << 20);
        assert_eq!(b.pool_bytes(), 48 << 20);
        assert_eq!(b.pool_frames(), (48 << 20) / DEFAULT_PAGE_SIZE);
        assert_eq!(b.page_cache_entries(), (16 << 20) / 4096);
    }

    #[test]
    fn tiny_budget_degrades_gracefully() {
        let b = MemoryBudget::from_mb(0);
        assert_eq!(b.pool_frames(), 0);
        assert_eq!(b.page_cache_entries(), 0);
    }
}
