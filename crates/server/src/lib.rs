//! Simulated structured web-database server.
//!
//! The paper's controlled experiments (Section 5) run "server programs that
//! mimic Web server behaviour on top of the database server". This crate is
//! that substrate: a web database over a `dwc_store::SegmentTable` (in
//! memory, or in files behind a buffer pool) which
//!
//! * answers **single attribute-value queries** and **keyword queries**
//!   (the simplified query model of Section 2.2),
//! * returns results in **pages of `k` records** (Definition 2.3's cost model:
//!   one *communication round* per page request),
//! * optionally reports the **total match count** on the first page (the
//!   §3.4 abortion heuristics depend on this),
//! * enforces a **result cap** per query (Amazon's limit of 3200, and the
//!   tighter 10/50 limits of Figure 6),
//! * serializes pages to an XML **wire format**, as Amazon's Web Service
//!   returns XML documents (Section 5).
//!
//! The server counts every page request; the crawler never sees anything the
//! real interface would not expose.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod index;
pub mod interface;
pub mod server;
pub mod wire;

pub use cache::{PageCache, RenderedPage};
pub use error::ServerError;
pub use index::InvertedIndex;
pub use interface::{InterfaceSpec, Query};
pub use server::{PageRecord, ResultPage, WebDbServer};
