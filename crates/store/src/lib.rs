//! Packed storage for structured web sources: every server's records and
//! postings.
//!
//! A server holds its table as packed segments. `WebDbServer::new` packs
//! into a [`MemPager`], whose segments are read in place; observing
//! selection-policy behavior at the scales where asymptotics diverge
//! (Sheng et al., PODS 2012) needs sources 100–200× the paper's largest
//! corpus, so the same table can live in files behind a sized buffer pool,
//! with bounded RSS:
//!
//! * [`pager`] — fixed-size pages behind a pluggable [`SegmentPager`]:
//!   an in-RAM pager ([`MemPager`]), which lends its segments out for
//!   in-place reads, and a file-backed pager ([`FilePager`]);
//! * [`pool`] — a sized [`BufferPool`] with clock (second-chance) eviction
//!   and pin counts, so hot pages of file-backed segments stay resident
//!   under a byte budget;
//! * [`list`] — packed, offset-indexed `u32` list columns ([`ListStore`]):
//!   one fixed-width end-offset segment plus one packed little-endian data
//!   segment, the layout shared by record values and postings;
//! * [`postings`] — the one intersection and union over sorted postings
//!   lists, taken packed as stored;
//! * [`table`] — [`SegmentTable`], a universal table + inverted index over
//!   segments: the one store a server answers from, whichever pager holds
//!   it;
//! * [`log`] — [`FrameLog`], length+checksum-framed log-structured appends
//!   (the substrate for the crawler's incremental state journal);
//! * [`budget`] — one [`MemoryBudget`] splitting a `--mem-budget` figure
//!   across the buffer pool and the rendered-page cache.
//!
//! Layering: this crate sits between `dwc-model` (value interning, schema)
//! and the server/crawler crates. It knows nothing about queries or policies
//! — exactly the property that lets in-memory and file-backed tables
//! produce bit-identical crawl reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod list;
pub mod log;
pub mod pager;
pub mod pool;
pub mod postings;
pub mod table;

pub use budget::MemoryBudget;
pub use list::{unpack, ListStore, ListWriter};
pub use log::{FrameLog, ReplayedLog, FRAME_HEADER};
pub use pager::{FilePager, MemPager, SegmentId, SegmentPager, DEFAULT_PAGE_SIZE};
pub use pool::{BufferPool, PageRef, PoolStats};
pub use table::{SegmentTable, SegmentTableBuilder};

/// FNV-1a 64-bit hash, the framing checksum shared by the checkpoint and
/// [`FrameLog`] — one arithmetic detects every kind of torn or corrupt
/// image. Re-exported from `dwc_model::packed` so there is exactly one
/// implementation.
pub use dwc_model::packed::fnv1a64;
