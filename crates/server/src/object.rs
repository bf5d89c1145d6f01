//! Key/value objects mapped onto the page cache.
//!
//! The memcached protocol speaks opaque keys and whole values; the cache
//! underneath speaks `SourceFile`s, pages, and byte ranges. This layer is
//! the adapter: each key becomes a `SourceFile` whose path is the key and
//! whose pages hold the value split at the cache's page size, so every
//! byte a remote client stores flows through the same admission, quota,
//! scope-ledger, eviction, and (optionally) DRAM/SSD tier machinery as the
//! embedded read path — `stats` on the wire surfaces the very same
//! registry the conservation laws audit.
//!
//! ## Tenant namespaces
//!
//! A key of the form `<namespace>:<rest>` is accounted under the cache
//! scope parsed from the dotted namespace (`sales.orders:frag7` → the
//! `sales.orders` table scope), so per-tenant quotas configured on the
//! manager — the PR 5 scope ledger — bind remote clients with no extra
//! bookkeeping. Keys without a namespace land in the global scope.
//!
//! ## Consistency
//!
//! Every `set` writes a *new* file version (a fresh `FileId`), publishes
//! all pages, and only then swaps the key's metadata and deletes the old
//! version — a reader that raced the swap served the complete old value,
//! never a torn mix. A `get` is one `CacheManager::read` of the value, so
//! hits take the cache's lock-free path and promote into a DRAM tier like
//! any other read. A `get` that finds any page missing (evicted, or a
//! version swept mid-read) treats the whole object as a miss and drops the
//! stale metadata, mirroring cache semantics: eviction may shed partial
//! objects, the protocol never serves them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use edgecache_common::clock::SharedClock;
use edgecache_common::error::{Error, Result};
use edgecache_core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache_pagestore::{CacheScope, FileId};
use parking_lot::RwLock;

/// Seconds-threshold above which a memcached exptime is an absolute Unix
/// timestamp rather than a relative offset (30 days, per the spec).
const EXPTIME_ABSOLUTE_CUTOFF: i64 = 60 * 60 * 24 * 30;

const SHARDS: usize = 64;

/// Everything the protocol needs to answer a hit.
#[derive(Debug, Clone)]
pub struct ObjectValue {
    pub flags: u32,
    pub cas: u64,
    pub data: Bytes,
}

/// Per-key metadata: which file version holds the value and how to serve it.
#[derive(Debug, Clone)]
struct ObjMeta {
    version: u64,
    length: u64,
    flags: u32,
    cas: u64,
    /// Absolute expiry on the manager's clock, `None` = never.
    expires_ms: Option<u64>,
}

/// The outcome of a `set`.
#[derive(Debug, PartialEq, Eq)]
pub enum SetOutcome {
    /// Value cached; `STORED`.
    Stored,
    /// Admission or quota declined the value; `NOT_STORED`. The cache is
    /// allowed to refuse — the client treats it like an instant eviction.
    NotStored,
    /// An internal error (I/O, store) — `SERVER_ERROR` with the message.
    Error(String),
}

/// The remote behind object pages: there is none. A value lives only in the
/// cache, so a page the cache cannot serve fails the read.
struct NoRemote;

impl RemoteSource for NoRemote {
    fn read(&self, path: &str, offset: u64, _len: u64) -> Result<Bytes> {
        Err(Error::NotFound(format!("{path} at {offset}: not cached")))
    }
}

/// Key table + page-cache adapter shared by every connection.
pub struct ObjectStore {
    cache: Arc<CacheManager>,
    shards: Vec<RwLock<HashMap<String, ObjMeta>>>,
    /// Monotonic source of both cas uniques and file versions.
    cas: AtomicU64,
    clock: SharedClock,
}

impl ObjectStore {
    /// Wraps a cache manager. The manager's clock drives expiry.
    pub fn new(cache: Arc<CacheManager>, clock: SharedClock) -> Self {
        Self {
            cache,
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            cas: AtomicU64::new(1),
            clock,
        }
    }

    /// The wrapped manager (stats, metrics, quota wiring).
    pub fn cache(&self) -> &Arc<CacheManager> {
        &self.cache
    }

    /// Number of live keys (drifts under races; for stats only).
    pub fn keys(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, ObjMeta>> {
        &self.shards[edgecache_common::hash::hash_str(key) as usize % SHARDS]
    }

    /// The cache scope a key is accounted under: the dotted namespace
    /// before the first `:`, or the global scope. This is what makes
    /// per-tenant quotas on the manager bind remote traffic.
    pub fn scope_of(key: &str) -> CacheScope {
        match key.split_once(':') {
            Some((ns, _)) if !ns.is_empty() => CacheScope::parse(ns),
            _ => CacheScope::Global,
        }
    }

    fn source(&self, key: &str, version: u64, length: u64) -> SourceFile {
        SourceFile::new(key, version, length, Self::scope_of(key))
    }

    /// Converts a protocol exptime to an absolute clock deadline.
    fn deadline_of(&self, exptime: i64) -> Option<Option<u64>> {
        match exptime {
            0 => Some(None),
            t if t < 0 => None, // already expired
            t if t <= EXPTIME_ABSOLUTE_CUTOFF => {
                Some(Some(self.clock.now_millis() + (t as u64) * 1000))
            }
            t => Some(Some((t as u64) * 1000)), // absolute Unix seconds
        }
    }

    /// Stores a value under a key.
    pub fn set(&self, key: &str, flags: u32, exptime: i64, data: &[u8]) -> SetOutcome {
        let expires_ms = match self.deadline_of(exptime) {
            Some(deadline) => deadline,
            None => {
                // Negative exptime: memcached stores-then-expires; the
                // observable effect is simply that the key is gone.
                self.delete(key);
                return SetOutcome::Stored;
            }
        };
        let version = self.cas.fetch_add(1, Ordering::Relaxed);
        let file = self.source(key, version, data.len() as u64);
        let page = self.cache.page_size() as usize;
        for (i, chunk) in data.chunks(page.max(1)).enumerate() {
            match self.cache.put_page(&file, i as u64, chunk) {
                Ok(()) => {}
                Err(Error::NotAdmitted(_)) | Err(Error::QuotaExceeded(_)) => {
                    // Roll the partial publish back; the old version (if
                    // any) stays live and intact.
                    self.cache.delete_file(file.file_id());
                    return SetOutcome::NotStored;
                }
                Err(e) => {
                    self.cache.delete_file(file.file_id());
                    return SetOutcome::Error(e.to_string());
                }
            }
        }
        // Zero-length values publish no pages; the metadata alone carries
        // them (length 0 reassembles to an empty buffer).
        let meta = ObjMeta {
            version,
            length: data.len() as u64,
            flags,
            cas: version,
            expires_ms,
        };
        let old = self.shard(key).write().insert(key.to_string(), meta);
        if let Some(old) = old {
            // The new version is visible; the old version's pages are dead
            // weight. Delete outside the shard lock — it takes stripe locks.
            self.cache
                .delete_file(FileId::from_path_version(key, old.version));
        }
        SetOutcome::Stored
    }

    /// Fetches a value. `None` is a miss (never-stored, expired, or
    /// partially evicted).
    pub fn get(&self, key: &str) -> Option<ObjectValue> {
        // Clone the metadata out of the shard lock: page reads do I/O and
        // must not serialize other keys in the shard.
        let meta = self.shard(key).read().get(key).cloned()?;
        if let Some(deadline) = meta.expires_ms {
            if self.clock.now_millis() >= deadline {
                self.drop_version(key, &meta);
                return None;
            }
        }
        // One cache read of the whole value, with nothing behind the cache:
        // a missing, corrupt or short page fails the read, and the whole
        // object is a miss — partial values are never served.
        let file = self.source(key, meta.version, meta.length);
        match self.cache.read(&file, 0, meta.length, &NoRemote) {
            Ok(data) => Some(ObjectValue {
                flags: meta.flags,
                cas: meta.cas,
                data,
            }),
            Err(_) => {
                self.drop_version(key, &meta);
                None
            }
        }
    }

    /// Deletes a key. Returns whether it existed.
    pub fn delete(&self, key: &str) -> bool {
        let meta = self.shard(key).write().remove(key);
        match meta {
            Some(meta) => {
                self.cache
                    .delete_file(FileId::from_path_version(key, meta.version));
                true
            }
            None => false,
        }
    }

    /// Drops a key's entry *only if* it still maps to `meta`'s version (a
    /// concurrent `set` may have replaced it), then deletes that version's
    /// pages. Used by the miss/expiry cleanup paths.
    fn drop_version(&self, key: &str, meta: &ObjMeta) {
        let mut shard = self.shard(key).write();
        if shard.get(key).is_some_and(|m| m.version == meta.version) {
            shard.remove(key);
        }
        drop(shard);
        self.cache
            .delete_file(FileId::from_path_version(key, meta.version));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgecache_common::{ByteSize, SimClock};
    use edgecache_core::config::CacheConfig;
    use edgecache_pagestore::MemoryPageStore;
    use std::time::Duration;

    fn store_with(page: u64, capacity: u64) -> (ObjectStore, Arc<SimClock>) {
        let clock = Arc::new(SimClock::new());
        let cache = Arc::new(
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(page)))
                .with_store(Arc::new(MemoryPageStore::new()), capacity)
                .with_clock(clock.clone())
                .build()
                .unwrap(),
        );
        (ObjectStore::new(cache, clock.clone()), clock)
    }

    #[test]
    fn set_get_roundtrip_multi_page() {
        let (s, _) = store_with(8, 1 << 20);
        let value: Vec<u8> = (0..100u8).collect(); // 13 pages of 8
        assert_eq!(s.set("k", 7, 0, &value), SetOutcome::Stored);
        let got = s.get("k").unwrap();
        assert_eq!(got.data.as_ref(), &value[..]);
        assert_eq!(got.flags, 7);
        assert!(s.get("other").is_none());
    }

    #[test]
    fn zero_length_value() {
        let (s, _) = store_with(8, 1 << 20);
        assert_eq!(s.set("empty", 3, 0, b""), SetOutcome::Stored);
        let got = s.get("empty").unwrap();
        assert!(got.data.is_empty());
        assert_eq!(got.flags, 3);
    }

    #[test]
    fn overwrite_bumps_cas_and_frees_old_pages() {
        let (s, _) = store_with(8, 1 << 20);
        s.set("k", 0, 0, b"aaaaaaaaaaaaaaaa");
        let first = s.get("k").unwrap();
        s.set("k", 0, 0, b"bb");
        let second = s.get("k").unwrap();
        assert_eq!(second.data.as_ref(), b"bb");
        assert!(second.cas > first.cas, "cas must advance on overwrite");
        // Old version's pages are deleted: only ceil(2/8)=1 page remains.
        assert_eq!(s.cache().stats().pages, 1);
    }

    #[test]
    fn delete_removes_pages() {
        let (s, _) = store_with(8, 1 << 20);
        s.set("k", 0, 0, b"0123456789");
        assert!(s.delete("k"));
        assert!(!s.delete("k"));
        assert!(s.get("k").is_none());
        assert_eq!(s.cache().stats().pages, 0);
    }

    #[test]
    fn relative_expiry_on_the_clock() {
        let (s, clock) = store_with(64, 1 << 20);
        s.set("k", 0, 5, b"soon");
        assert!(s.get("k").is_some());
        clock.advance(Duration::from_secs(6));
        assert!(s.get("k").is_none(), "expired");
        assert_eq!(s.cache().stats().pages, 0, "expiry frees pages");
    }

    #[test]
    fn negative_expiry_deletes() {
        let (s, _) = store_with(64, 1 << 20);
        s.set("k", 0, 0, b"v");
        assert_eq!(s.set("k", 0, -1, b"x"), SetOutcome::Stored);
        assert!(s.get("k").is_none());
    }

    #[test]
    fn eviction_of_a_page_voids_the_object() {
        // Capacity of 4 pages of 8 bytes; a 32-byte object fills it, the
        // next set evicts some of its pages.
        let (s, _) = store_with(8, 32);
        s.set("big", 0, 0, &[1u8; 32]);
        s.set("other", 0, 0, &[2u8; 16]);
        // "big" lost pages to make room: must be a clean miss, not a torn
        // value, and its leftovers must be reclaimed.
        assert!(s.get("big").is_none());
        let got = s.get("other").unwrap();
        assert_eq!(got.data.as_ref(), &[2u8; 16]);
    }

    #[test]
    fn object_reads_keep_the_page_read_law() {
        use edgecache_metrics::{assert_conserved, ConservationLaw, SnapshotDiff};
        let (s, _) = store_with(8, 32);
        let booked = ["hits", "misses", "fallbacks.timeout"];
        s.set("big", 0, 0, &[1u8; 32]);
        s.set("small", 0, 0, &[3u8; 8]);
        let before = s.cache().metrics().snapshot();
        assert!(
            s.get("big").is_none(),
            "setting small evicted a page of big"
        );
        assert!(s.get("small").is_some());
        let diff = SnapshotDiff::between(&before, &s.cache().metrics().snapshot());
        assert!(diff.counter("misses") >= 1, "the evicted page is a miss");
        // A failed read abandons the hits it classified: a bound.
        let law = ConservationLaw::at_most("page reads bound bookings", &booked, &["page_reads"]);
        assert_conserved(&diff, &[law]).unwrap();

        // Successful object reads book every page they read.
        let before = s.cache().metrics().snapshot();
        assert!(s.get("small").is_some());
        s.set("other", 0, 0, &[2u8; 16]);
        assert!(s.get("other").is_some());
        let diff = SnapshotDiff::between(&before, &s.cache().metrics().snapshot());
        let law = ConservationLaw::equal("page reads balance", &booked, &["page_reads"]);
        assert_conserved(&diff, &[law]).unwrap();
    }

    #[test]
    fn gets_promote_into_a_memory_tier() {
        let clock = Arc::new(SimClock::new());
        let config = CacheConfig::default()
            .with_page_size(ByteSize::new(8))
            .with_memory_tier(ByteSize::new(1024));
        let cache = Arc::new(
            CacheManager::builder(config)
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .with_clock(clock.clone())
                .build()
                .unwrap(),
        );
        let s = ObjectStore::new(cache, clock);
        let value: Vec<u8> = (0..20u8).collect(); // 3 pages of 8
        assert_eq!(s.set("k", 0, 0, &value), SetOutcome::Stored);
        let counter = |name: &str| s.cache().metrics().counter(name).get();
        // A set publishes to SSD; the first get is a one-off SSD hit, the
        // second promotes every page, the third is served from memory.
        for (promotions, mem_hits) in [(0, 0), (3, 0), (3, 3)] {
            assert_eq!(s.get("k").unwrap().data.as_ref(), &value[..]);
            assert_eq!(counter("mem.promotions"), promotions);
            assert_eq!(counter("mem.hits"), mem_hits);
        }
    }

    #[test]
    fn namespace_maps_to_scope() {
        assert_eq!(
            ObjectStore::scope_of("sales.orders:frag7"),
            CacheScope::table("sales", "orders")
        );
        assert_eq!(
            ObjectStore::scope_of("sales.orders.p1:frag7"),
            CacheScope::partition("sales", "orders", "p1")
        );
        assert_eq!(ObjectStore::scope_of("plain-key"), CacheScope::Global);
        assert_eq!(ObjectStore::scope_of(":weird"), CacheScope::Global);
    }

    #[test]
    fn tenant_quota_binds_remote_sets() {
        let clock = Arc::new(SimClock::new());
        let cache = Arc::new(
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(8)))
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .with_quota(CacheScope::table("t", "small"), ByteSize::new(16))
                .with_clock(clock.clone())
                .build()
                .unwrap(),
        );
        let s = ObjectStore::new(cache, clock);
        // Within quota: two pages.
        assert_eq!(s.set("t.small:a", 0, 0, &[0u8; 16]), SetOutcome::Stored);
        // A second object pushes the tenant over quota. The manager evicts
        // within the scope to make room, so the *first* object goes — the
        // quota binds, one way or the other.
        s.set("t.small:b", 0, 0, &[0u8; 16]);
        let used = s
            .cache()
            .index()
            .bytes_of_scope(&CacheScope::table("t", "small"));
        assert!(used <= 16, "tenant holds {used} bytes, quota 16");
        // An unnamespaced key is untouched by the tenant quota.
        assert_eq!(s.set("free", 0, 0, &[0u8; 64]), SetOutcome::Stored);
    }
}
