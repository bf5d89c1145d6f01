//! Page identity, metadata, and the hierarchical cache scope.

use std::fmt;

use edgecache_common::hash::{combine, hash_str, xxh64};

/// The page checksum: XXH64 (seed 0) over the payload. The one integrity
/// function of this crate — the SSD slot header and the DRAM frame both store
/// this value.
pub(crate) fn page_checksum(payload: &[u8]) -> u64 {
    xxh64(payload, 0)
}

/// A stable identifier for a source file, derived from its path and version.
///
/// The paper identifies cached files by path plus "file version information"
/// (§4.3); an updated file (new modification timestamp or HDFS generation
/// stamp) gets a *different* `FileId`, which is how stale cache entries are
/// invalidated (§6.1.1) and how HDFS `append` gets snapshot isolation
/// (§6.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

impl FileId {
    /// Derives a file ID from a path and a version token (modification time,
    /// generation stamp, etag, ...).
    pub fn from_path_version(path: &str, version: u64) -> Self {
        Self(combine(hash_str(path), version))
    }

    /// Hex form used as the on-disk directory name.
    pub fn as_hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the hex form back.
    pub fn from_hex(s: &str) -> Option<Self> {
        (s.len() == 16)
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
            .map(Self)
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_hex())
    }
}

/// Identifies one page: a file plus a page index within that file.
///
/// Page `i` of a file covers bytes `[i * page_size, (i + 1) * page_size)` of
/// the source file (the last page may be short).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    pub file: FileId,
    pub index: u64,
}

impl PageId {
    /// Creates a page ID.
    pub fn new(file: FileId, index: u64) -> Self {
        Self { file, index }
    }

    /// A stable 64-bit hash of this page ID (used for placement and lock
    /// sharding).
    pub fn stable_hash(&self) -> u64 {
        combine(self.file.0, self.index)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.file, self.index)
    }
}

/// A node in the paper's nested scope tree (§4.4): global → schema → table →
/// partition. Pages are tagged with their most specific scope; quota checks
/// and bulk deletes walk up the chain.
///
/// [`CacheScope::Custom`] is the §5.2 "custom tenant": a bespoke logical
/// grouping (per project, per application, per team) that sits directly
/// under the global scope.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CacheScope {
    /// The entire cache.
    Global,
    /// One schema (database).
    Schema { schema: String },
    /// One table.
    Table { schema: String, table: String },
    /// One partition of a table.
    Partition {
        schema: String,
        table: String,
        partition: String,
    },
    /// A custom tenant (project, application, team, ...).
    Custom { group: String },
}

impl CacheScope {
    /// Parses a dotted scope path: `""` → global, `"s"`, `"s.t"`, `"s.t.p"`.
    pub fn parse(path: &str) -> Self {
        let mut parts = path.splitn(3, '.');
        match (
            parts.next().filter(|s| !s.is_empty()),
            parts.next(),
            parts.next(),
        ) {
            (None, _, _) => CacheScope::Global,
            (Some(s), None, _) => CacheScope::Schema {
                schema: s.to_string(),
            },
            (Some(s), Some(t), None) => CacheScope::Table {
                schema: s.to_string(),
                table: t.to_string(),
            },
            (Some(s), Some(t), Some(p)) => CacheScope::Partition {
                schema: s.to_string(),
                table: t.to_string(),
                partition: p.to_string(),
            },
        }
    }

    /// Builds a partition scope.
    pub fn partition(schema: &str, table: &str, partition: &str) -> Self {
        CacheScope::Partition {
            schema: schema.to_string(),
            table: table.to_string(),
            partition: partition.to_string(),
        }
    }

    /// Builds a table scope.
    pub fn table(schema: &str, table: &str) -> Self {
        CacheScope::Table {
            schema: schema.to_string(),
            table: table.to_string(),
        }
    }

    /// Builds a custom-tenant scope (§5.2).
    pub fn custom(group: &str) -> Self {
        CacheScope::Custom {
            group: group.to_string(),
        }
    }

    /// The parent scope, or `None` for [`CacheScope::Global`].
    pub fn parent(&self) -> Option<CacheScope> {
        match self {
            CacheScope::Global => None,
            CacheScope::Schema { .. } | CacheScope::Custom { .. } => Some(CacheScope::Global),
            CacheScope::Table { schema, .. } => Some(CacheScope::Schema {
                schema: schema.clone(),
            }),
            CacheScope::Partition { schema, table, .. } => Some(CacheScope::Table {
                schema: schema.clone(),
                table: table.clone(),
            }),
        }
    }

    /// This scope followed by all its ancestors up to (and including) global.
    pub fn chain(&self) -> Vec<CacheScope> {
        let mut out = vec![self.clone()];
        let mut cur = self.clone();
        while let Some(p) = cur.parent() {
            out.push(p.clone());
            cur = p;
        }
        out
    }

    /// Whether `self` contains `other` (every scope contains itself; global
    /// contains everything).
    pub fn contains(&self, other: &CacheScope) -> bool {
        other.chain().contains(self)
    }
}

impl fmt::Display for CacheScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheScope::Global => f.write_str("<global>"),
            CacheScope::Schema { schema } => f.write_str(schema),
            CacheScope::Table { schema, table } => write!(f, "{schema}.{table}"),
            CacheScope::Partition {
                schema,
                table,
                partition,
            } => {
                write!(f, "{schema}.{table}.{partition}")
            }
            CacheScope::Custom { group } => write!(f, "custom:{group}"),
        }
    }
}

/// Metadata for one cached page, kept in memory by the index manager (§4.2:
/// "maintaining the metadata still in memory to ensure fast access").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageInfo {
    pub id: PageId,
    /// Payload size in bytes (the last page of a file may be short).
    pub size: u64,
    /// The most specific scope this page belongs to.
    pub scope: CacheScope,
    /// Index of the cache directory holding the page.
    pub dir: usize,
    /// Insertion time (clock milliseconds), used for TTL eviction (§4.1's
    /// time-based eviction for data-privacy requirements).
    pub created_ms: u64,
}

impl PageInfo {
    /// Creates page metadata.
    pub fn new(id: PageId, size: u64, scope: CacheScope, dir: usize, created_ms: u64) -> Self {
        Self {
            id,
            size,
            scope,
            dir,
            created_ms,
        }
    }
}

/// `(byte, bit mask)` sites for the single-bit-flip tests of both stores:
/// first and last byte, both sides of 32-byte stripe boundaries at the
/// start, middle and end of the payload, and the last 8-byte word.
#[cfg(test)]
pub(crate) fn bit_flip_sites(len: usize) -> Vec<(usize, u8)> {
    let mid = len / 2;
    [
        0,
        31,
        32,
        63,
        64,
        mid - 1,
        mid,
        len - 33,
        len - 32,
        len - 8,
        len - 1,
    ]
    .into_iter()
    .flat_map(|byte| [(byte, 0x01), (byte, 0x80)])
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_id_changes_with_version() {
        let a = FileId::from_path_version("/warehouse/t/part-0.colf", 1);
        let b = FileId::from_path_version("/warehouse/t/part-0.colf", 2);
        assert_ne!(a, b);
        assert_eq!(a, FileId::from_path_version("/warehouse/t/part-0.colf", 1));
    }

    #[test]
    fn file_id_hex_round_trip() {
        let id = FileId::from_path_version("/x", 7);
        assert_eq!(FileId::from_hex(&id.as_hex()), Some(id));
        assert_eq!(FileId::from_hex("nothex"), None);
        assert_eq!(FileId::from_hex("zz00000000000000"), None);
    }

    #[test]
    fn scope_parse_levels() {
        assert_eq!(CacheScope::parse(""), CacheScope::Global);
        assert_eq!(
            CacheScope::parse("sales"),
            CacheScope::Schema {
                schema: "sales".into()
            }
        );
        assert_eq!(
            CacheScope::parse("sales.orders"),
            CacheScope::table("sales", "orders")
        );
        assert_eq!(
            CacheScope::parse("sales.orders.2024-01-01"),
            CacheScope::partition("sales", "orders", "2024-01-01")
        );
    }

    #[test]
    fn scope_chain_walks_to_global() {
        let p = CacheScope::partition("s", "t", "p");
        let chain = p.chain();
        assert_eq!(chain.len(), 4);
        assert_eq!(chain[0], p);
        assert_eq!(chain[3], CacheScope::Global);
    }

    #[test]
    fn scope_containment() {
        let part = CacheScope::partition("s", "t", "p");
        let table = CacheScope::table("s", "t");
        assert!(CacheScope::Global.contains(&part));
        assert!(table.contains(&part));
        assert!(part.contains(&part));
        assert!(!part.contains(&table));
        assert!(!CacheScope::table("s", "other").contains(&part));
    }

    #[test]
    fn custom_tenant_scope_sits_under_global() {
        let c = CacheScope::custom("ml-training");
        assert_eq!(c.parent(), Some(CacheScope::Global));
        assert_eq!(c.chain(), vec![c.clone(), CacheScope::Global]);
        assert!(CacheScope::Global.contains(&c));
        assert!(!c.contains(&CacheScope::partition("s", "t", "p")));
        assert_eq!(c.to_string(), "custom:ml-training");
    }

    #[test]
    fn page_id_display_and_hash() {
        let id = PageId::new(FileId(0xabcd), 17);
        assert_eq!(id.to_string(), "000000000000abcd/17");
        assert_ne!(
            PageId::new(FileId(1), 2).stable_hash(),
            PageId::new(FileId(2), 1).stable_hash()
        );
    }
}
