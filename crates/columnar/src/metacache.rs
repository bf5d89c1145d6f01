//! The file-metadata cache (§6.1.1, §7).
//!
//! "Parsing complex column-oriented data files can consume as much as 30 %
//! of CPU resources. To mitigate the issue, Presto local cache also caches
//! file metadata. ... caching deserialized metadata objects can reduce CPU
//! usage by up to 40 %."
//!
//! Keys are `path@version` strings so a rewritten file never serves a stale
//! footer. The cache stores *deserialized* [`FileMetadata`] objects, and
//! tracks how many footer bytes were actually parsed — the currency of the
//! metadata-caching ablation.
//!
//! The cache is **bounded** (entry-count capacity, LRU eviction with an
//! `evictions` counter, one [`LruMap`] holding footers and their order) and
//! **single-flight**: concurrent misses on the same key parse the footer
//! once; the other callers wait for the published result instead of
//! duplicating the CPU-heavy deserialization.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

use edgecache_common::error::Result;
use edgecache_common::lru::LruMap;
use parking_lot::Mutex;

use crate::format::FileMetadata;

/// Simulated CPU cost of deserializing one footer byte. Calibrated so that
/// a ~10 KB footer costs ~1 ms, in line with the paper's observation that
/// metadata handling is CPU-bound.
pub const PARSE_NANOS_PER_BYTE: u64 = 100;

/// Default entry-count bound: generous enough that the simulated tables
/// never evict unless a test or experiment shrinks it on purpose.
pub const DEFAULT_METADATA_CAPACITY: usize = 4096;

/// A shared, bounded cache of deserialized footers.
///
/// Optionally backed by a persistent key-value store
/// ([`LogKv`](edgecache_kvstore::LogKv), our RocksDB stand-in): footers
/// survive process restarts, so a warm restart skips the remote footer
/// *read* entirely (only the cheap local decode remains).
#[derive(Debug)]
pub struct MetadataCache {
    /// `path@version` → footer, least recently used first.
    inner: Mutex<LruMap<String, Arc<FileMetadata>>>,
    /// Keys with a parse in progress; misses on them block on the condvar
    /// instead of parsing the same footer again (single-flight).
    inflight: StdMutex<HashSet<String>>,
    inflight_done: Condvar,
    capacity: usize,
    backing: Option<Arc<edgecache_kvstore::LogKv>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Misses served from the persistent backing (no remote footer read).
    backing_hits: AtomicU64,
    bytes_parsed: AtomicU64,
    evictions: AtomicU64,
}

impl Default for MetadataCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_METADATA_CAPACITY)
    }
}

impl MetadataCache {
    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache bounded to `capacity` footers.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(LruMap::default()),
            inflight: StdMutex::new(HashSet::new()),
            inflight_done: Condvar::new(),
            capacity: capacity.max(1),
            backing: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            backing_hits: AtomicU64::new(0),
            bytes_parsed: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Creates a cache backed by a persistent key-value store.
    pub fn with_backing(backing: Arc<edgecache_kvstore::LogKv>) -> Self {
        Self {
            backing: Some(backing),
            ..Self::default()
        }
    }

    /// Returns the cached metadata for `key`, or parses it with `parse` and
    /// caches the result. Concurrent callers of the same missing key parse
    /// exactly once; the rest wait and read the published footer.
    pub fn get_or_parse(
        &self,
        key: &str,
        parse: impl FnOnce() -> Result<FileMetadata>,
    ) -> Result<Arc<FileMetadata>> {
        loop {
            if let Some(meta) = self.inner.lock().get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(meta));
            }
            // Single-flight gate: first thread in claims the key; others
            // wait for the parse to publish (or fail) and re-check.
            let mut inflight = self.inflight.lock().expect("inflight poisoned");
            if !inflight.contains(key) {
                inflight.insert(key.to_string());
                drop(inflight);
                break;
            }
            while inflight.contains(key) {
                inflight = self
                    .inflight_done
                    .wait(inflight)
                    .expect("inflight poisoned");
            }
        }
        let result = self.parse_and_publish(key, parse);
        let mut inflight = self.inflight.lock().expect("inflight poisoned");
        inflight.remove(key);
        self.inflight_done.notify_all();
        drop(inflight);
        result
    }

    fn parse_and_publish(
        &self,
        key: &str,
        parse: impl FnOnce() -> Result<FileMetadata>,
    ) -> Result<Arc<FileMetadata>> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Second chance: the persistent backing (a restart-survivor).
        if let Some(kv) = &self.backing {
            if let Ok(Some(encoded)) = kv.get(key.as_bytes()) {
                if let Ok(meta) = FileMetadata::decode(&encoded) {
                    self.backing_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(self.publish(key, Arc::new(meta)));
                }
            }
        }
        let meta = Arc::new(parse()?);
        self.bytes_parsed
            .fetch_add(meta.footer_len, Ordering::Relaxed);
        if let Some(kv) = &self.backing {
            // Best effort: a failed persist only costs a future re-parse.
            let _ = kv.put(key.as_bytes(), &meta.encode());
        }
        Ok(self.publish(key, meta))
    }

    fn publish(&self, key: &str, meta: Arc<FileMetadata>) -> Arc<FileMetadata> {
        let mut inner = self.inner.lock();
        if let Some(existing) = inner.get(key) {
            // Another thread published first; keep its entry.
            return Arc::clone(existing);
        }
        inner.insert(key.to_string(), Arc::clone(&meta));
        while inner.len() > self.capacity {
            inner.pop_oldest();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        meta
    }

    /// Misses that were served from the persistent backing.
    pub fn backing_hits(&self) -> u64 {
        self.backing_hits.load(Ordering::Relaxed)
    }

    /// Invalidates one key (e.g. the file was rewritten).
    pub fn invalidate(&self, key: &str) {
        self.inner.lock().remove(key);
    }

    /// Drops everything.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// Cache hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= parses attempted, after single-flight collapsing).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The entry-count capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Footer bytes actually deserialized.
    pub fn bytes_parsed(&self) -> u64 {
        self.bytes_parsed.load(Ordering::Relaxed)
    }

    /// Number of cached footers.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Simulated CPU time for parsing `footer_bytes` of footer.
    pub fn parse_cost(footer_bytes: u64) -> Duration {
        Duration::from_nanos(footer_bytes * PARSE_NANOS_PER_BYTE)
    }

    /// Simulated CPU time actually spent parsing through this cache.
    pub fn total_parse_cost(&self) -> Duration {
        Self::parse_cost(self.bytes_parsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Schema;

    fn meta(footer_len: u64) -> FileMetadata {
        FileMetadata {
            schema: Schema::default(),
            row_groups: Vec::new(),
            total_rows: 0,
            footer_len,
        }
    }

    #[test]
    fn second_lookup_hits() {
        let cache = MetadataCache::new();
        let mut parses = 0;
        for _ in 0..3 {
            cache
                .get_or_parse("f@1", || {
                    parses += 1;
                    Ok(meta(100))
                })
                .unwrap();
        }
        assert_eq!(parses, 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.bytes_parsed(), 100);
    }

    #[test]
    fn versioned_keys_are_distinct() {
        let cache = MetadataCache::new();
        cache.get_or_parse("f@1", || Ok(meta(10))).unwrap();
        cache.get_or_parse("f@2", || Ok(meta(20))).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes_parsed(), 30);
    }

    #[test]
    fn invalidate_forces_reparse() {
        let cache = MetadataCache::new();
        cache.get_or_parse("f@1", || Ok(meta(10))).unwrap();
        cache.invalidate("f@1");
        cache.get_or_parse("f@1", || Ok(meta(10))).unwrap();
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn parse_failure_is_not_cached() {
        let cache = MetadataCache::new();
        let r = cache.get_or_parse("f@1", || Err(edgecache_common::Error::Decode("bad".into())));
        assert!(r.is_err());
        assert!(cache.is_empty());
        // A later good parse succeeds.
        cache.get_or_parse("f@1", || Ok(meta(5))).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = MetadataCache::with_capacity(3);
        for i in 0..3 {
            cache
                .get_or_parse(&format!("f{i}@1"), || Ok(meta(10)))
                .unwrap();
        }
        // Touch f0 so f1 becomes the LRU victim.
        cache.get_or_parse("f0@1", || Ok(meta(10))).unwrap();
        cache.get_or_parse("f3@1", || Ok(meta(10))).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 1);
        // f1 is gone (re-parse), f0 survives (hit).
        let mut parsed = false;
        cache
            .get_or_parse("f1@1", || {
                parsed = true;
                Ok(meta(10))
            })
            .unwrap();
        assert!(parsed, "LRU victim was evicted");
        let hits_before = cache.hits();
        cache.get_or_parse("f0@1", || Ok(meta(10))).unwrap();
        assert_eq!(cache.hits(), hits_before + 1, "recently used survives");
    }

    #[test]
    fn concurrent_misses_parse_once() {
        use std::sync::atomic::AtomicU64;
        let cache = Arc::new(MetadataCache::new());
        let parses = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let parses = Arc::clone(&parses);
            handles.push(std::thread::spawn(move || {
                let meta = cache
                    .get_or_parse("hot@1", || {
                        parses.fetch_add(1, Ordering::SeqCst);
                        // Hold the parse long enough that the other threads
                        // pile up behind the single-flight gate.
                        std::thread::sleep(Duration::from_millis(20));
                        Ok(meta(1234))
                    })
                    .unwrap();
                assert_eq!(meta.footer_len, 1234);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(parses.load(Ordering::SeqCst), 1, "single-flight parse");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.bytes_parsed(), 1234);
        assert_eq!(cache.hits(), 7, "waiters read the published footer");
    }

    #[test]
    fn failed_singleflight_parse_releases_waiters() {
        let cache = Arc::new(MetadataCache::new());
        let c = Arc::clone(&cache);
        let (parsing_tx, parsing) = std::sync::mpsc::channel();
        let loser = std::thread::spawn(move || {
            c.get_or_parse("k@1", || {
                parsing_tx.send(()).unwrap();
                // Hold the claim so the call below usually queues behind it.
                std::thread::sleep(Duration::from_millis(20));
                Err(edgecache_common::Error::Decode("flaky".into()))
            })
        });
        // The loser holds the single-flight claim from here on.
        parsing.recv().unwrap();
        // This call either waits out the failing parse and then parses
        // itself, or (if the failure already released the claim) parses
        // directly. Either way it must not deadlock and must succeed.
        let ok = cache.get_or_parse("k@1", || Ok(meta(9))).unwrap();
        assert_eq!(ok.footer_len, 9);
        assert!(loser.join().unwrap().is_err());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn persistent_backing_survives_restart() {
        use edgecache_kvstore::{LogKv, LogKvConfig};
        let dir = std::env::temp_dir().join(format!("edgecache-metakv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let full_meta = || {
            use crate::format::{ColumnSchema, Schema};
            use crate::types::ColumnType;
            let schema = Schema {
                columns: vec![ColumnSchema {
                    name: "x".into(),
                    ty: ColumnType::Int64,
                }],
            };
            let meta = FileMetadata {
                schema,
                row_groups: Vec::new(),
                total_rows: 0,
                footer_len: 0,
            };
            // Round-trip through encode so footer_len is realistic.
            FileMetadata::decode(&meta.encode()).unwrap()
        };
        {
            let kv = Arc::new(LogKv::open(&dir, LogKvConfig::default()).unwrap());
            let cache = MetadataCache::with_backing(kv);
            cache.get_or_parse("f@1", || Ok(full_meta())).unwrap();
            assert_eq!(cache.misses(), 1);
            assert_eq!(cache.backing_hits(), 0);
        }
        // "Process restart": fresh in-memory cache, same backing.
        let kv = Arc::new(LogKv::open(&dir, LogKvConfig::default()).unwrap());
        let cache = MetadataCache::with_backing(kv);
        let mut parses = 0;
        let meta = cache
            .get_or_parse("f@1", || {
                parses += 1;
                Ok(full_meta())
            })
            .unwrap();
        assert_eq!(parses, 0, "served from the persistent backing");
        assert_eq!(cache.backing_hits(), 1);
        assert_eq!(meta.schema.columns[0].name, "x");
        // And now it is in memory: a plain hit.
        cache.get_or_parse("f@1", || Ok(full_meta())).unwrap();
        assert_eq!(cache.hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_cost_scales() {
        assert_eq!(
            MetadataCache::parse_cost(10_000),
            Duration::from_micros(1000)
        );
        let cache = MetadataCache::new();
        cache.get_or_parse("a", || Ok(meta(10_000))).unwrap();
        cache.get_or_parse("a", || Ok(meta(10_000))).unwrap();
        assert_eq!(cache.total_parse_cost(), Duration::from_micros(1000));
    }
}
