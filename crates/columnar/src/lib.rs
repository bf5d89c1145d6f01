//! `colf` — a Parquet-like columnar file format.
//!
//! The paper's workloads read "columnar formats such as ORC or Parquet"
//! whose row-group organization and footer metadata drive two cache-relevant
//! behaviours (§2.2, §6.1.1, §7):
//!
//! 1. **Fragmented reads** — predicate pushdown and column projection turn
//!    one logical scan into many small ranged reads (>50 % under 10 KB in
//!    Uber's traces), which is exactly what the page-based cache optimizes.
//! 2. **Metadata parse cost** — footers must be read and deserialized before
//!    any data; in production this consumes up to 30 % of CPU, and caching
//!    the *deserialized* objects saves up to 40 % (§7).
//!
//! `colf` reproduces both: files hold typed column chunks (plain /
//! dictionary / run-length encodings) grouped into row groups with per-chunk
//! min/max statistics, described by a binary footer. The reader works over
//! an abstract [`RangeReader`] so the local cache (or a raw device) can sit
//! underneath, prunes row groups by statistics, and can share an explicit
//! [`MetadataCache`].

pub mod encoding;
pub mod format;
pub mod metacache;
pub mod predicate;
mod proptests;
pub mod reader;
pub mod types;
pub mod writer;

pub use format::{ChunkMeta, ColumnSchema, FileMetadata, RowGroupMeta, Schema};
pub use metacache::MetadataCache;
pub use predicate::Predicate;
pub use reader::{ColfReader, RangeReader};
pub use types::{ColumnData, ColumnType, ColumnView, Scalar, Value};
pub use writer::ColfWriter;
