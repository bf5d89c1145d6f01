//! The index manager: indexed sets over the page universe (§4.4, Figure 5).
//!
//! "We use indexed sets to store all pages' metadata. The universe set
//! contains all pages that are currently stored in the cache. Each indexed
//! set is a subset of the universe indexed by a certain property of the
//! page's metadata." The supported levels are: page (finest), file, the
//! logical scope tree (partition/table/schema/global), and the storage
//! directory (device) — each lookup is O(1) in the number of non-matching
//! pages.
//!
//! The universe is **lock-striped**: page metadata lives in shards keyed by
//! the page's stable hash, so the point lookups of a vectored classify
//! (`CacheManager::read_multi` probes every distinct page of a fragment
//! batch) only contend within a shard instead of serializing on one global
//! lock. The hit path goes further: [`IndexManager::touch`] classifies and
//! records recency with only a shard *read* lock (per-entry atomics), and
//! the universe counters (page count, total bytes, per-dir bytes) are
//! lock-free atomics reconciled on demand by `check_consistency`. The
//! secondary set indexes stay under a single aggregates lock — they are
//! touched once per insert/remove (cold path), not per lookup.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use edgecache_pagestore::{CacheScope, FileId, PageId, PageInfo};
use parking_lot::RwLock;

use crate::ledger::{ScopeLedger, ScopeUsage};

/// Number of universe shards (power of two). Sized like the manager's page
/// lock stripes: far more shards than CPUs keeps collision odds low.
const INDEX_SHARDS: usize = 64;

/// One universe entry: immutable page metadata plus per-entry recency
/// bookkeeping that the hit path mutates through `&self` under the shard
/// *read* lock.
///
/// Both atomics are `Relaxed` everywhere: no other data is published through
/// them (readers only ever use the values themselves, for introspection and
/// eviction heuristics), so there is nothing for Acquire/Release to order.
#[derive(Debug)]
struct PageEntry {
    info: PageInfo,
    /// Clock milliseconds of the most recent access.
    last_access_ms: AtomicU64,
    /// Number of hits served from this entry since insertion.
    hits: AtomicU64,
}

impl PageEntry {
    fn new(info: PageInfo) -> Self {
        let created = info.created_ms;
        Self {
            info,
            last_access_ms: AtomicU64::new(created),
            hits: AtomicU64::new(0),
        }
    }
}

/// In-memory page metadata with secondary indexes.
///
/// All page *metadata* lives in memory (§4.2: "maintaining the metadata
/// still in memory to ensure fast access"); payloads live in the page store.
///
/// Lock order (deadlock freedom): a mutation takes its page's shard lock,
/// then the aggregates lock, and holds both until the update is complete —
/// so a reader holding only one lock sees each page either fully indexed or
/// fully absent. Whole-universe scans take every shard lock in ascending
/// order before the aggregates lock.
///
/// The hit path ([`Self::touch`]) takes only the page's shard lock, and only
/// for *read*: recency lives in per-entry atomics, and the universe counters
/// (`pages`, `total_bytes`, `dir_bytes`) are atomics updated by mutators
/// while they hold the shard write lock — readers load them lock-free and
/// [`Self::check_consistency`] reconciles them against a full recount.
#[derive(Debug)]
pub struct IndexManager {
    /// The universe set, striped by page hash.
    shards: Vec<RwLock<HashMap<PageId, PageEntry>>>,
    /// Secondary indexes (cold path: touched once per insert/remove).
    aggregates: RwLock<Aggregates>,
    /// Number of pages in the universe. Relaxed: mutated only under a shard
    /// write lock; readers want a count, not an ordering guarantee.
    pages: AtomicUsize,
    /// Total cached payload bytes. Relaxed, same discipline as `pages`.
    total_bytes: AtomicU64,
    /// Per-directory byte usage. The vector grows only under its write lock
    /// (a dir index beyond the initial count); per-dir updates are Relaxed
    /// `fetch_add`/`fetch_sub` under the read lock.
    dir_bytes: RwLock<Vec<AtomicU64>>,
    /// Scope lifecycle ledger, fed by every insert/remove while the index
    /// locks are held — no lifecycle path can bypass it.
    ledger: ScopeLedger,
}

#[derive(Debug, Default)]
struct Aggregates {
    /// File-level index.
    by_file: HashMap<FileId, HashSet<PageId>>,
    /// Scope-level index. A page is registered under its *entire* scope
    /// chain, so "all pages of table T" is a single lookup.
    by_scope: HashMap<CacheScope, HashSet<PageId>>,
    /// Per-scope byte usage, maintained incrementally for O(1) quota checks.
    scope_bytes: HashMap<CacheScope, u64>,
    /// Directory-(device-)level index (§4.4: "address all pages stored in a
    /// particular storage device").
    by_dir: Vec<HashSet<PageId>>,
}

impl Default for IndexManager {
    fn default() -> Self {
        Self::new(0)
    }
}

impl IndexManager {
    /// Creates an empty index with `dirs` directory slots.
    pub fn new(dirs: usize) -> Self {
        let aggregates = Aggregates {
            by_dir: vec![HashSet::new(); dirs],
            ..Default::default()
        };
        Self {
            shards: (0..INDEX_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            aggregates: RwLock::new(aggregates),
            pages: AtomicUsize::new(0),
            total_bytes: AtomicU64::new(0),
            dir_bytes: RwLock::new((0..dirs).map(|_| AtomicU64::new(0)).collect()),
            ledger: ScopeLedger::new(),
        }
    }

    /// The scope lifecycle ledger fed by this index.
    pub fn ledger(&self) -> &ScopeLedger {
        &self.ledger
    }

    fn shard(&self, id: &PageId) -> &RwLock<HashMap<PageId, PageEntry>> {
        &self.shards[(id.stable_hash() as usize) & (INDEX_SHARDS - 1)]
    }

    /// Credits the atomic universe counters for an inserted page. Caller
    /// holds the page's shard write lock (which is what makes the Relaxed
    /// updates race-free against other mutators of the same page).
    fn credit(&self, info: &PageInfo) {
        self.pages.fetch_add(1, Ordering::Relaxed);
        self.total_bytes.fetch_add(info.size, Ordering::Relaxed);
        {
            let dirs = self.dir_bytes.read();
            if let Some(d) = dirs.get(info.dir) {
                d.fetch_add(info.size, Ordering::Relaxed);
                return;
            }
        }
        // Rare growth path: a dir index beyond the construction count.
        let mut dirs = self.dir_bytes.write();
        while dirs.len() <= info.dir {
            dirs.push(AtomicU64::new(0));
        }
        dirs[info.dir].fetch_add(info.size, Ordering::Relaxed);
    }

    /// Debits the atomic universe counters for a removed page. Caller holds
    /// the page's shard write lock.
    fn debit(&self, info: &PageInfo) {
        self.pages.fetch_sub(1, Ordering::Relaxed);
        self.total_bytes.fetch_sub(info.size, Ordering::Relaxed);
        if let Some(d) = self.dir_bytes.read().get(info.dir) {
            d.fetch_sub(info.size, Ordering::Relaxed);
        }
    }

    /// Inserts (or replaces) a page's metadata. Returns the previous info if
    /// the page was already indexed.
    pub fn insert(&self, info: PageInfo) -> Option<PageInfo> {
        let mut shard = self.shard(&info.id).write();
        let mut agg = self.aggregates.write();
        let old = shard.remove(&info.id).map(|e| e.info);
        if let Some(old_info) = &old {
            agg.unindex(old_info);
            self.debit(old_info);
            self.ledger.record_remove(old_info);
        }
        agg.index(&info);
        self.credit(&info);
        self.ledger.record_insert(&info);
        shard.insert(info.id, PageEntry::new(info));
        old
    }

    /// Removes a page from every index if it is cached on directory `dir`.
    /// Returns its info if it was.
    pub fn remove(&self, id: &PageId, dir: usize) -> Option<PageInfo> {
        let mut shard = self.shard(id).write();
        if shard.get(id)?.info.dir != dir {
            return None;
        }
        let mut agg = self.aggregates.write();
        let info = shard.remove(id)?.info;
        agg.unindex(&info);
        self.debit(&info);
        self.ledger.record_remove(&info);
        Some(info)
    }

    /// Looks up a page's metadata. Touches only the page's shard.
    pub fn get(&self, id: &PageId) -> Option<PageInfo> {
        self.shard(id).read().get(id).map(|e| e.info.clone())
    }

    /// The directory caching a page, if any. Touches only the page's shard.
    pub fn dir_of(&self, id: &PageId) -> Option<usize> {
        self.shard(id).read().get(id).map(|e| e.info.dir)
    }

    /// The hit path's classify probe: if the page is resident, records the
    /// access (recency timestamp + hit count, both per-entry Relaxed
    /// atomics) and returns the page's directory with the entry's hit count
    /// including this one — the page's hits since it entered that
    /// directory, since every insert (tier moves included) resets it. Takes
    /// only the shard *read* lock — concurrent hits on the same shard, and
    /// even the same page, proceed in parallel.
    pub fn touch(&self, id: &PageId, now_ms: u64) -> Option<(usize, u64)> {
        let shard = self.shard(id).read();
        let entry = shard.get(id)?;
        entry.last_access_ms.store(now_ms, Ordering::Relaxed);
        let hits = entry.hits.fetch_add(1, Ordering::Relaxed) + 1;
        Some((entry.info.dir, hits))
    }

    /// Per-entry access bookkeeping: `(last_access_ms, hits)`. Introspection
    /// for tests and eviction diagnostics.
    pub fn access_stats(&self, id: &PageId) -> Option<(u64, u64)> {
        let shard = self.shard(id).read();
        let entry = shard.get(id)?;
        Some((
            entry.last_access_ms.load(Ordering::Relaxed),
            entry.hits.load(Ordering::Relaxed),
        ))
    }

    /// Whether the page is indexed. Touches only the page's shard.
    pub fn contains(&self, id: &PageId) -> bool {
        self.shard(id).read().contains_key(id)
    }

    /// All pages of a file.
    pub fn pages_of_file(&self, file: FileId) -> Vec<PageId> {
        self.aggregates
            .read()
            .by_file
            .get(&file)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All pages within a scope (including nested scopes).
    pub fn pages_of_scope(&self, scope: &CacheScope) -> Vec<PageId> {
        self.aggregates
            .read()
            .by_scope
            .get(scope)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All pages on a storage directory.
    pub fn pages_of_dir(&self, dir: usize) -> Vec<PageId> {
        self.aggregates
            .read()
            .by_dir
            .get(dir)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Bytes cached on a storage directory. O(1), lock-free but for the
    /// (uncontended) growth lock on the counter vector.
    pub fn bytes_of_dir(&self, dir: usize) -> u64 {
        self.dir_bytes
            .read()
            .get(dir)
            .map(|d| d.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Bytes cached under a scope (including nested scopes). O(1).
    pub fn bytes_of_scope(&self, scope: &CacheScope) -> u64 {
        self.aggregates
            .read()
            .scope_bytes
            .get(scope)
            .copied()
            .unwrap_or(0)
    }

    /// Distinct child partitions of a table scope that currently hold pages.
    pub fn partitions_of_table(&self, schema: &str, table: &str) -> Vec<CacheScope> {
        self.aggregates
            .read()
            .by_scope
            .keys()
            .filter(|s| {
                matches!(s, CacheScope::Partition { schema: sc, table: tb, .. }
                    if sc == schema && tb == table)
            })
            .cloned()
            .collect()
    }

    /// Total cached payload bytes. Lock-free.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// The `n` scopes holding the most cached bytes at the given level of
    /// the hierarchy (partitions by default) — the §6.1.3 "hot partition"
    /// drill-down. Returns `(scope, bytes)` sorted descending.
    pub fn hottest_scopes(&self, n: usize) -> Vec<(CacheScope, u64)> {
        let agg = self.aggregates.read();
        let mut out: Vec<(CacheScope, u64)> = agg
            .scope_bytes
            .iter()
            .filter(|(s, _)| matches!(s, CacheScope::Partition { .. }))
            .map(|(s, b)| (s.clone(), *b))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(n);
        out
    }

    /// Number of cached pages. O(1), lock-free.
    pub fn len(&self) -> usize {
        self.pages.load(Ordering::Relaxed)
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pages older than `cutoff_ms` (for TTL eviction). Scans every shard.
    pub fn pages_created_before(&self, cutoff_ms: u64) -> Vec<PageId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .read()
                    .values()
                    .filter(|e| e.info.created_ms < cutoff_ms)
                    .map(|e| e.info.id),
            );
        }
        out
    }

    /// Consistency check used by tests: every secondary index entry must
    /// refer to a universe page, and sizes must add up. Takes every shard
    /// lock (ascending, per the lock order) for a coherent snapshot.
    #[doc(hidden)]
    pub fn check_consistency(&self) -> Result<(), String> {
        let shards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let agg = self.aggregates.read();
        let mut total = 0u64;
        let mut universe_count = 0usize;
        let mut dir_totals: Vec<u64> = Vec::new();
        for shard in &shards {
            for (id, entry) in shard.iter() {
                let info = &entry.info;
                universe_count += 1;
                total += info.size;
                if dir_totals.len() <= info.dir {
                    dir_totals.resize(info.dir + 1, 0);
                }
                dir_totals[info.dir] += info.size;
                if !agg
                    .by_file
                    .get(&info.id.file)
                    .is_some_and(|s| s.contains(id))
                {
                    return Err(format!("page {id} missing from file index"));
                }
                for scope in info.scope.chain() {
                    if !agg.by_scope.get(&scope).is_some_and(|s| s.contains(id)) {
                        return Err(format!("page {id} missing from scope {scope}"));
                    }
                }
                if !agg.by_dir.get(info.dir).is_some_and(|s| s.contains(id)) {
                    return Err(format!("page {id} missing from dir index"));
                }
            }
        }
        // Reconcile the lock-free universe counters against the recount.
        // All mutators hold shard write locks, which we exclude by holding
        // every shard read lock — the atomics are quiescent here.
        let tracked_total = self.total_bytes.load(Ordering::Relaxed);
        if total != tracked_total {
            return Err(format!(
                "total bytes mismatch: computed {total}, tracked {tracked_total}"
            ));
        }
        let tracked_pages = self.pages.load(Ordering::Relaxed);
        if universe_count != tracked_pages {
            return Err(format!(
                "page count mismatch: computed {universe_count}, tracked {tracked_pages}"
            ));
        }
        {
            let dirs = self.dir_bytes.read();
            for (dir, computed) in dir_totals.iter().enumerate() {
                let tracked = dirs.get(dir).map(|d| d.load(Ordering::Relaxed));
                if tracked != Some(*computed) {
                    return Err(format!(
                        "dir {dir} bytes mismatch: computed {computed}, tracked {tracked:?}"
                    ));
                }
            }
            let stray: u64 = dirs
                .iter()
                .skip(dir_totals.len())
                .map(|d| d.load(Ordering::Relaxed))
                .sum();
            if stray != 0 {
                return Err(format!("{stray} B tracked for dirs holding no pages"));
            }
        }
        let file_count: usize = agg.by_file.values().map(HashSet::len).sum();
        if file_count != universe_count {
            return Err("file index is not a partition of the universe".to_string());
        }
        let dir_count: usize = agg.by_dir.iter().map(HashSet::len).sum();
        if dir_count != universe_count {
            return Err("dir index is not a partition of the universe".to_string());
        }
        // Ledger oracle: the lifecycle ledger's independent books must match
        // the per-scope usage recomputed from the universe.
        let mut expected: HashMap<CacheScope, ScopeUsage> = HashMap::new();
        for shard in &shards {
            for entry in shard.values() {
                let info = &entry.info;
                for scope in info.scope.chain() {
                    let entry = expected.entry(scope).or_default();
                    entry.pages += 1;
                    entry.bytes += info.size;
                }
            }
        }
        let tracked = self.ledger.snapshot();
        if tracked != expected {
            for (scope, usage) in &expected {
                if tracked.get(scope) != Some(usage) {
                    return Err(format!(
                        "ledger disagrees on scope {scope}: index has {usage:?}, \
                         ledger has {:?}",
                        tracked.get(scope)
                    ));
                }
            }
            let stray = tracked.keys().find(|s| !expected.contains_key(*s));
            return Err(format!(
                "ledger tracks scope {} with no live pages",
                stray.map(|s| s.to_string()).unwrap_or_default()
            ));
        }
        self.ledger.check()?;
        Ok(())
    }
}

impl Aggregates {
    fn index(&mut self, info: &PageInfo) {
        let id = info.id;
        self.by_file.entry(id.file).or_default().insert(id);
        for scope in info.scope.chain() {
            self.by_scope.entry(scope.clone()).or_default().insert(id);
            *self.scope_bytes.entry(scope).or_default() += info.size;
        }
        if info.dir >= self.by_dir.len() {
            self.by_dir.resize_with(info.dir + 1, HashSet::new);
        }
        self.by_dir[info.dir].insert(id);
    }

    fn unindex(&mut self, info: &PageInfo) {
        let id = &info.id;
        if let Some(set) = self.by_file.get_mut(&id.file) {
            set.remove(id);
            if set.is_empty() {
                self.by_file.remove(&id.file);
            }
        }
        for scope in info.scope.chain() {
            if let Some(set) = self.by_scope.get_mut(&scope) {
                set.remove(id);
                if set.is_empty() {
                    self.by_scope.remove(&scope);
                }
            }
            if let Some(b) = self.scope_bytes.get_mut(&scope) {
                *b -= info.size;
                if *b == 0 {
                    self.scope_bytes.remove(&scope);
                }
            }
        }
        if let Some(set) = self.by_dir.get_mut(info.dir) {
            set.remove(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(f: u64, i: u64, size: u64, scope: CacheScope, dir: usize) -> PageInfo {
        PageInfo::new(PageId::new(FileId(f), i), size, scope, dir, 0)
    }

    #[test]
    fn insert_and_lookup() {
        let idx = IndexManager::new(2);
        let scope = CacheScope::partition("s", "t", "p");
        idx.insert(info(1, 0, 100, scope.clone(), 0));
        idx.insert(info(1, 1, 50, scope.clone(), 1));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.total_bytes(), 150);
        assert_eq!(idx.pages_of_file(FileId(1)).len(), 2);
        assert_eq!(idx.pages_of_dir(0).len(), 1);
        assert_eq!(idx.pages_of_dir(1).len(), 1);
        assert_eq!(idx.dir_of(&PageId::new(FileId(1), 1)), Some(1));
        idx.check_consistency().unwrap();
    }

    #[test]
    fn scope_queries_cover_ancestors() {
        let idx = IndexManager::new(1);
        idx.insert(info(1, 0, 10, CacheScope::partition("s", "t", "p1"), 0));
        idx.insert(info(2, 0, 20, CacheScope::partition("s", "t", "p2"), 0));
        idx.insert(info(3, 0, 40, CacheScope::partition("s", "u", "p1"), 0));
        assert_eq!(idx.pages_of_scope(&CacheScope::table("s", "t")).len(), 2);
        assert_eq!(idx.pages_of_scope(&CacheScope::parse("s")).len(), 3);
        assert_eq!(idx.pages_of_scope(&CacheScope::Global).len(), 3);
        assert_eq!(idx.bytes_of_scope(&CacheScope::table("s", "t")), 30);
        assert_eq!(idx.bytes_of_scope(&CacheScope::Global), 70);
        assert_eq!(
            idx.bytes_of_scope(&CacheScope::partition("s", "t", "p2")),
            20
        );
    }

    #[test]
    fn remove_updates_every_index() {
        let idx = IndexManager::new(1);
        let scope = CacheScope::partition("s", "t", "p");
        idx.insert(info(1, 0, 100, scope.clone(), 0));
        assert!(
            idx.remove(&PageId::new(FileId(1), 0), 1).is_none(),
            "other dir"
        );
        let removed = idx.remove(&PageId::new(FileId(1), 0), 0).unwrap();
        assert_eq!(removed.size, 100);
        assert!(idx.is_empty());
        assert_eq!(idx.total_bytes(), 0);
        assert!(idx.pages_of_file(FileId(1)).is_empty());
        assert!(idx.pages_of_scope(&scope).is_empty());
        assert_eq!(idx.bytes_of_scope(&CacheScope::Global), 0);
        idx.check_consistency().unwrap();
    }

    #[test]
    fn reinsert_replaces() {
        let idx = IndexManager::new(2);
        idx.insert(info(1, 0, 100, CacheScope::Global, 0));
        let old = idx.insert(info(1, 0, 60, CacheScope::Global, 1));
        assert_eq!(old.unwrap().size, 100);
        assert_eq!(idx.total_bytes(), 60);
        assert!(idx.pages_of_dir(0).is_empty());
        assert_eq!(idx.pages_of_dir(1).len(), 1);
        idx.check_consistency().unwrap();
    }

    #[test]
    fn partitions_of_table_lists_live_partitions() {
        let idx = IndexManager::new(1);
        idx.insert(info(1, 0, 10, CacheScope::partition("s", "t", "p1"), 0));
        idx.insert(info(2, 0, 10, CacheScope::partition("s", "t", "p2"), 0));
        idx.insert(info(3, 0, 10, CacheScope::partition("s", "x", "p9"), 0));
        let mut parts = idx.partitions_of_table("s", "t");
        parts.sort();
        assert_eq!(parts.len(), 2);
        idx.remove(&PageId::new(FileId(1), 0), 0);
        assert_eq!(idx.partitions_of_table("s", "t").len(), 1);
    }

    #[test]
    fn ttl_query_filters_by_creation_time() {
        let idx = IndexManager::new(1);
        idx.insert(PageInfo::new(
            PageId::new(FileId(1), 0),
            1,
            CacheScope::Global,
            0,
            100,
        ));
        idx.insert(PageInfo::new(
            PageId::new(FileId(1), 1),
            1,
            CacheScope::Global,
            0,
            200,
        ));
        let old = idx.pages_created_before(150);
        assert_eq!(old, vec![PageId::new(FileId(1), 0)]);
    }

    #[test]
    fn hottest_scopes_rank_partitions() {
        let idx = IndexManager::new(1);
        idx.insert(info(1, 0, 500, CacheScope::partition("s", "t", "hot"), 0));
        idx.insert(info(2, 0, 300, CacheScope::partition("s", "t", "warm"), 0));
        idx.insert(info(3, 0, 100, CacheScope::partition("s", "u", "cold"), 0));
        let top = idx.hottest_scopes(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], (CacheScope::partition("s", "t", "hot"), 500));
        assert_eq!(top[1], (CacheScope::partition("s", "t", "warm"), 300));
        // Table/schema/global scopes are not listed at this level.
        assert!(idx
            .hottest_scopes(10)
            .iter()
            .all(|(s, _)| matches!(s, CacheScope::Partition { .. })));
    }

    #[test]
    fn missing_lookups_are_empty() {
        let idx = IndexManager::new(1);
        assert!(idx.get(&PageId::new(FileId(1), 0)).is_none());
        assert!(idx.dir_of(&PageId::new(FileId(1), 0)).is_none());
        assert!(idx.remove(&PageId::new(FileId(1), 0), 0).is_none());
        assert!(idx.pages_of_file(FileId(9)).is_empty());
        assert!(idx.pages_of_dir(5).is_empty());
        assert_eq!(idx.bytes_of_scope(&CacheScope::parse("none")), 0);
    }

    #[test]
    fn touch_records_recency_and_dir() {
        let idx = IndexManager::new(2);
        let id = PageId::new(FileId(1), 0);
        assert_eq!(idx.touch(&id, 5), None, "absent page is not touched");
        idx.insert(info(1, 0, 100, CacheScope::Global, 1));
        assert_eq!(idx.access_stats(&id), Some((0, 0)));
        assert_eq!(idx.touch(&id, 42), Some((1, 1)));
        assert_eq!(idx.touch(&id, 99), Some((1, 2)));
        assert_eq!(idx.access_stats(&id), Some((99, 2)));
        // Replacement resets the per-entry bookkeeping.
        idx.insert(info(1, 0, 100, CacheScope::Global, 0));
        assert_eq!(idx.access_stats(&id), Some((0, 0)));
        assert_eq!(idx.touch(&id, 7), Some((0, 1)), "the count restarts");
        idx.check_consistency().unwrap();
    }

    #[test]
    fn concurrent_touches_lose_no_hits() {
        use std::sync::Arc;
        const THREADS: u64 = 8;
        const ITERS: u64 = 5_000;
        let idx = Arc::new(IndexManager::new(1));
        let id = PageId::new(FileId(7), 3);
        idx.insert(info(7, 3, 10, CacheScope::Global, 0));
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let idx = Arc::clone(&idx);
                std::thread::spawn(move || {
                    for i in 0..ITERS {
                        assert_eq!(idx.touch(&id, t * ITERS + i).map(|(dir, _)| dir), Some(0));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (_, hits) = idx.access_stats(&id).unwrap();
        assert_eq!(hits, THREADS * ITERS, "no hit count lost to racing");
        idx.check_consistency().unwrap();
    }

    #[test]
    fn concurrent_shard_traffic_stays_consistent() {
        use std::sync::Arc;
        let idx = Arc::new(IndexManager::new(2));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let idx = Arc::clone(&idx);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let scope = CacheScope::partition("s", "t", "p");
                        idx.insert(info(t, i, 10, scope, (i % 2) as usize));
                        idx.get(&PageId::new(FileId(t), i));
                        if i % 3 == 0 {
                            idx.remove(&PageId::new(FileId(t), i), (i % 2) as usize);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        idx.check_consistency().unwrap();
        let expected: usize = 8 * (200 - 67); // 67 of 200 ids are % 3 == 0
        assert_eq!(idx.len(), expected);
    }
}
