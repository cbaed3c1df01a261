//! Data model for structured web databases and their attribute-value graphs.
//!
//! Section 2 of the paper models a structured web database as a single
//! relational table `DB` with records over a set of attributes, and derives
//! from it the **attribute-value graph** (AVG, Definition 2.1): one vertex per
//! distinct attribute value, an edge whenever two values co-occur in a record
//! (so each record induces a clique). Query-based crawling is then graph
//! traversal, and optimal query selection is a Weighted Minimum Dominating Set
//! problem (Definition 2.4).
//!
//! This crate provides:
//!
//! * [`interner`] — attribute-qualified value interning ([`ValueId`]s),
//! * [`flat`] — the open-addressing slot rule the interner and the
//!   crawler's neighbour sets probe by, and [`U64Table`], the crawler's
//!   integer-keyed set and map,
//! * [`schema`] — attribute metadata and interface schemas (Definition 2.2),
//! * [`table`] — the universal table ([`UniversalTable`]) with its distinct
//!   attribute value (DAV) set,
//! * [`graph`] — the AVG in CSR form ([`AvGraph`]),
//! * [`components`] — connectivity analysis ("well connected" check, data
//!   islands),
//! * [`degree`] — degree distributions and power-law fits (paper Figure 2),
//! * [`domset`] — greedy and exact weighted dominating set solvers
//!   (Definition 2.4's optimal-crawl characterization),
//! * [`packed`] — packed value encoding: offset-indexed list arenas shared
//!   by the resident crawler state and the out-of-core segment layer, and
//!   the FNV-1a checksum.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod degree;
pub mod domset;
pub mod fixtures;
pub mod flat;
pub mod graph;
pub mod interner;
pub mod packed;
pub mod schema;
pub mod table;

pub use flat::U64Table;
pub use graph::AvGraph;
pub use interner::{value_hash, AttrId, ValueId, ValueInterner};
pub use packed::PackedLists;
pub use schema::{AttrSpec, Schema};
pub use table::{Record, RecordId, UniversalTable};
