//! The table catalog: schema → table → partition → data files.
//!
//! "In Presto, the data is organized in a partition-table-schema hierarchy.
//! This hierarchy maps to a tree of nested scopes in Alluxio local cache"
//! (§4.4). [`TableDef::partition_scope`] performs exactly that mapping.

use std::collections::BTreeMap;
use std::sync::Arc;

use edgecache_columnar::Schema;
use edgecache_common::error::{Error, Result};
use edgecache_pagestore::CacheScope;
use parking_lot::RwLock;

/// One immutable data file of a partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataFile {
    /// Path in the remote store.
    pub path: String,
    /// Version (etag / modification stamp) for cache invalidation.
    pub version: u64,
    /// File length in bytes.
    pub length: u64,
}

/// One partition: a name (e.g. a date) plus its files.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionDef {
    pub name: String,
    pub files: Vec<DataFile>,
}

/// One table: its columnar schema and partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    pub schema_name: String,
    pub table_name: String,
    pub columns: Schema,
    pub partitions: Vec<PartitionDef>,
}

impl TableDef {
    /// The cache scope of this table.
    pub fn scope(&self) -> CacheScope {
        CacheScope::table(&self.schema_name, &self.table_name)
    }

    /// The cache scope of one of this table's partitions.
    pub fn partition_scope(&self, partition: &str) -> CacheScope {
        CacheScope::partition(&self.schema_name, &self.table_name, partition)
    }

    /// All files with their partition names.
    pub fn files(&self) -> impl Iterator<Item = (&str, &DataFile)> {
        self.partitions
            .iter()
            .flat_map(|p| p.files.iter().map(move |f| (p.name.as_str(), f)))
    }

    /// Total bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        self.files().map(|(_, f)| f.length).sum()
    }
}

/// Notified with each [`DataFile`] that stopped being current — dropped,
/// replaced, or rewritten under a new version. The engine wires both the
/// footer metadata cache and the query-result cache to this single path,
/// so every invalidation source (catalog DDL, namenode generation bumps
/// forwarded by the storage layer) purges both caches the same way.
pub type StaleFileListener = Arc<dyn Fn(&DataFile) + Send + Sync>;

/// The catalog: a registry of tables. Each table definition is shared as an
/// [`Arc`] and changed copy-on-write, so a [`Catalog::table`] snapshot stays
/// consistent while DDL runs and costs a reference-count bump to take.
#[derive(Default)]
pub struct Catalog {
    tables: RwLock<BTreeMap<(String, String), Arc<TableDef>>>,
    listeners: RwLock<Vec<StaleFileListener>>,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("tables", &self.tables)
            .field("listeners", &self.listeners.read().len())
            .finish()
    }
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a stale-file listener (fired outside the table lock).
    pub fn on_stale_file(&self, listener: StaleFileListener) {
        self.listeners.write().push(listener);
    }

    /// Notifies every listener of each stale file.
    pub fn notify_stale(&self, files: &[DataFile]) {
        if files.is_empty() {
            return;
        }
        let listeners = self.listeners.read().clone();
        for file in files {
            for listener in &listeners {
                listener(file);
            }
        }
    }

    /// Registers (or replaces) a table.
    pub fn register(&self, table: TableDef) {
        let key = (table.schema_name.clone(), table.table_name.clone());
        self.tables.write().insert(key, Arc::new(table));
    }

    /// Looks up a table: a snapshot that later changes to the catalog leave
    /// as it is.
    pub fn table(&self, schema: &str, table: &str) -> Result<Arc<TableDef>> {
        self.tables
            .read()
            .get(&(schema.to_string(), table.to_string()))
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table `{schema}.{table}`")))
    }

    /// Applies `change` to a table's definition under the table lock,
    /// copying it first if a snapshot of it is still held.
    fn update<T>(
        &self,
        schema: &str,
        table: &str,
        change: impl FnOnce(&mut TableDef) -> Result<T>,
    ) -> Result<T> {
        let mut tables = self.tables.write();
        let def = tables
            .get_mut(&(schema.to_string(), table.to_string()))
            .ok_or_else(|| Error::NotFound(format!("table `{schema}.{table}`")))?;
        change(Arc::make_mut(def))
    }

    /// Adds a partition to an existing table. Replacing a same-name
    /// partition marks every file of the old definition that did not carry
    /// over (same path and version) as stale.
    pub fn add_partition(&self, schema: &str, table: &str, partition: PartitionDef) -> Result<()> {
        let stale = self.update(schema, table, |def| {
            let stale: Vec<DataFile> = def
                .partitions
                .iter()
                .filter(|p| p.name == partition.name)
                .flat_map(|p| p.files.iter())
                .filter(|f| !partition.files.contains(f))
                .cloned()
                .collect();
            def.partitions.retain(|p| p.name != partition.name);
            def.partitions.push(partition);
            Ok(stale)
        })?;
        self.notify_stale(&stale);
        Ok(())
    }

    /// Replaces one data file in place with a new version (a compaction or
    /// rewrite): the old `path@version` goes stale, and the caches keyed on
    /// it are purged through the listeners. Returns the old definition.
    pub fn rewrite_file(
        &self,
        schema: &str,
        table: &str,
        partition: &str,
        path: &str,
        new_version: u64,
        new_length: u64,
    ) -> Result<DataFile> {
        let old = self.update(schema, table, |def| {
            let part = def
                .partitions
                .iter_mut()
                .find(|p| p.name == partition)
                .ok_or_else(|| Error::NotFound(format!("partition `{partition}`")))?;
            let file = part
                .files
                .iter_mut()
                .find(|f| f.path == path)
                .ok_or_else(|| Error::NotFound(format!("file `{path}`")))?;
            let old = file.clone();
            file.version = new_version;
            file.length = new_length;
            Ok(old)
        })?;
        self.notify_stale(std::slice::from_ref(&old));
        Ok(old)
    }

    /// Drops a partition (the catalog side of the §4.4 "delete an outdated
    /// partition" flow). Returns the dropped definition.
    pub fn drop_partition(
        &self,
        schema: &str,
        table: &str,
        partition: &str,
    ) -> Result<PartitionDef> {
        let dropped = self.update(schema, table, |def| {
            let idx = def
                .partitions
                .iter()
                .position(|p| p.name == partition)
                .ok_or_else(|| Error::NotFound(format!("partition `{partition}`")))?;
            Ok(def.partitions.remove(idx))
        })?;
        self.notify_stale(&dropped.files);
        Ok(dropped)
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<(String, String)> {
        self.tables.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgecache_columnar::ColumnType;

    fn table() -> TableDef {
        TableDef {
            schema_name: "sales".into(),
            table_name: "orders".into(),
            columns: Schema::new(vec![("id", ColumnType::Int64)]),
            partitions: vec![PartitionDef {
                name: "2024-01-01".into(),
                files: vec![DataFile {
                    path: "/w/orders/p0/f0".into(),
                    version: 1,
                    length: 100,
                }],
            }],
        }
    }

    #[test]
    fn register_and_lookup() {
        let c = Catalog::new();
        c.register(table());
        let t = c.table("sales", "orders").unwrap();
        assert_eq!(t.partitions.len(), 1);
        assert!(c.table("sales", "nope").is_err());
        assert_eq!(c.table_names(), vec![("sales".into(), "orders".into())]);
    }

    #[test]
    fn scopes_map_to_hierarchy() {
        let t = table();
        assert_eq!(t.scope(), CacheScope::table("sales", "orders"));
        assert_eq!(
            t.partition_scope("2024-01-01"),
            CacheScope::partition("sales", "orders", "2024-01-01")
        );
    }

    #[test]
    fn add_and_drop_partition() {
        let c = Catalog::new();
        c.register(table());
        c.add_partition(
            "sales",
            "orders",
            PartitionDef {
                name: "2024-01-02".into(),
                files: vec![DataFile {
                    path: "/w/orders/p1/f0".into(),
                    version: 1,
                    length: 50,
                }],
            },
        )
        .unwrap();
        let t = c.table("sales", "orders").unwrap();
        assert_eq!(t.partitions.len(), 2);
        assert_eq!(t.total_bytes(), 150);
        assert_eq!(t.files().count(), 2);

        let dropped = c.drop_partition("sales", "orders", "2024-01-01").unwrap();
        assert_eq!(dropped.files.len(), 1);
        assert_eq!(c.table("sales", "orders").unwrap().partitions.len(), 1);
        assert!(c.drop_partition("sales", "orders", "2024-01-01").is_err());
    }

    #[test]
    fn stale_listeners_fire_on_rewrite_drop_and_replace() {
        use parking_lot::Mutex;
        let c = Catalog::new();
        c.register(table());
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        c.on_stale_file(Arc::new(move |f: &DataFile| {
            sink.lock().push(format!("{}@{}", f.path, f.version));
        }));

        // Rewrite bumps the version and reports the old identity stale.
        let old = c
            .rewrite_file("sales", "orders", "2024-01-01", "/w/orders/p0/f0", 2, 120)
            .unwrap();
        assert_eq!(old.version, 1);
        let t = c.table("sales", "orders").unwrap();
        assert_eq!(t.partitions[0].files[0].version, 2);
        assert_eq!(t.partitions[0].files[0].length, 120);
        assert_eq!(seen.lock().as_slice(), ["/w/orders/p0/f0@1"]);

        // Replacing the partition with different files marks the current
        // ones stale; carrying a file over identically does not.
        seen.lock().clear();
        c.add_partition(
            "sales",
            "orders",
            PartitionDef {
                name: "2024-01-01".into(),
                files: vec![DataFile {
                    path: "/w/orders/p0/f1".into(),
                    version: 1,
                    length: 10,
                }],
            },
        )
        .unwrap();
        assert_eq!(seen.lock().as_slice(), ["/w/orders/p0/f0@2"]);

        // Dropping the partition marks all its files stale.
        seen.lock().clear();
        c.drop_partition("sales", "orders", "2024-01-01").unwrap();
        assert_eq!(seen.lock().as_slice(), ["/w/orders/p0/f1@1"]);

        // Unknown targets error without firing anything.
        seen.lock().clear();
        assert!(c
            .rewrite_file("sales", "orders", "nope", "/w/orders/p0/f0", 3, 1)
            .is_err());
        assert!(seen.lock().is_empty());
    }

    #[test]
    fn snapshots_outlive_ddl_and_the_next_lookup_sees_it() {
        use parking_lot::Mutex;
        let c = Catalog::new();
        c.register(table());
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        c.on_stale_file(Arc::new(move |f: &DataFile| {
            sink.lock().push(format!("{}@{}", f.path, f.version));
        }));
        let held = c.table("sales", "orders").unwrap();
        assert!(Arc::ptr_eq(&held, &c.table("sales", "orders").unwrap()));
        let frozen = (*held).clone();

        c.rewrite_file("sales", "orders", "2024-01-01", "/w/orders/p0/f0", 2, 120)
            .unwrap();
        assert_eq!(*held, frozen, "a held snapshot never changes");
        let rewritten = c.table("sales", "orders").unwrap();
        assert_eq!(rewritten.partitions[0].files[0].version, 2);

        let p1 = PartitionDef {
            name: "2024-01-02".into(),
            files: vec![DataFile {
                path: "/w/orders/p1/f0".into(),
                version: 1,
                length: 50,
            }],
        };
        c.add_partition("sales", "orders", p1.clone()).unwrap();
        assert_eq!(*held, frozen);
        assert_eq!(rewritten.partitions.len(), 1);
        assert_eq!(c.table("sales", "orders").unwrap().partitions.len(), 2);

        c.drop_partition("sales", "orders", "2024-01-01").unwrap();
        assert_eq!(*held, frozen);
        assert_eq!(rewritten.partitions.len(), 1);
        assert_eq!(c.table("sales", "orders").unwrap().partitions, vec![p1]);

        // The listeners fire as they always did: the rewrite's old version,
        // nothing for a new partition, the dropped partition's file.
        assert_eq!(
            seen.lock().as_slice(),
            ["/w/orders/p0/f0@1", "/w/orders/p0/f0@2"]
        );
    }

    #[test]
    fn add_partition_replaces_same_name() {
        let c = Catalog::new();
        c.register(table());
        c.add_partition(
            "sales",
            "orders",
            PartitionDef {
                name: "2024-01-01".into(),
                files: vec![],
            },
        )
        .unwrap();
        let t = c.table("sales", "orders").unwrap();
        assert_eq!(t.partitions.len(), 1);
        assert!(t.partitions[0].files.is_empty());
    }
}
