//! Simulated structured web-database server.
//!
//! The paper's controlled experiments (Section 5) run "server programs that
//! mimic Web server behaviour on top of the database server". This crate is
//! that substrate: an in-memory web database which
//!
//! * answers **single attribute-value queries** and **keyword queries**
//!   (the simplified query model of Section 2.2),
//! * returns results in **pages of `k` records** (Definition 2.3's cost model:
//!   one *communication round* per page request),
//! * optionally reports the **total match count** on the first page (the
//!   §3.4 abortion heuristics depend on this),
//! * enforces a **result cap** per query (Amazon's limit of 3200, and the
//!   tighter 10/50 limits of Figure 6),
//! * can serialize pages to an XML-ish **wire format** (Amazon Web Service
//!   returns XML documents) or a template-generated **HTML** page.
//!
//! The server counts every page request; the crawler never sees anything the
//! real interface would not expose.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod html;
pub mod index;
pub mod interface;
pub mod server;
pub mod wire;

pub use cache::{PageCache, RenderFormat, RenderedPage};
pub use error::ServerError;
pub use index::InvertedIndex;
pub use interface::{InterfaceSpec, Query};
pub use server::{PageRecord, ResultPage, WebDbServer};
