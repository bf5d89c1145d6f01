//! The DataNode with the embedded HDFS local cache (§6.2).
//!
//! Each block is stored as a *block file* plus a *metadata file* holding its
//! checksum; "either both the block and metadata files are read from the
//! cache, or both are read from their original non-cache locations, but
//! never any form of the mix" (§6.2.1). We guarantee that by caching the
//! two as one unit: `checksum(8 bytes) ‖ block payload`, keyed by
//! `(blockId, generationStamp)` so that `append` gets snapshot isolation
//! (§6.2.3).
//!
//! The *cache rate limiter* (§6.2.2) is the sliding-window admission policy:
//! a block must be read often enough within the window before it earns a
//! cache slot. Deletes use an in-memory `blockId → (cacheId, unitLength)`
//! map; because that map is volatile, a DataNode restart wipes the cache and
//! rebuilds from scratch (§6.2.3).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use edgecache_common::clock::SharedClock;
use edgecache_common::error::{Error, Result};
use edgecache_common::hash::fnv1a64;
use edgecache_common::ByteSize;
use edgecache_core::admission::{AdmitAll, SlidingWindowAdmission};
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache_metrics::MetricRegistry;
use edgecache_pagestore::{CacheScope, FileId, LocalPageStore, LocalStoreConfig, MemoryPageStore};
use parking_lot::RwLock;

use super::namenode::BlockId;
use crate::simdev::DeviceModel;

/// Size of the checksum-metadata prefix of a cached unit.
const META_LEN: u64 = 8;

/// Configuration for a [`DataNode`].
#[derive(Debug, Clone)]
pub struct DataNodeConfig {
    /// Local-cache capacity in bytes (`0` disables the cache entirely).
    pub cache_capacity: u64,
    /// Cache page size.
    pub page_size: ByteSize,
    /// Sliding-window admission: `(window_minutes, threshold)`. `None`
    /// admits every block (no rate limiter).
    pub admission_window: Option<(usize, u64)>,
    /// Cache pages on disk at this path instead of in memory.
    pub cache_dir: Option<PathBuf>,
    /// HDD model for non-cache reads.
    pub hdd: DeviceModel,
    /// SSD model for cache reads.
    pub ssd: DeviceModel,
}

impl Default for DataNodeConfig {
    fn default() -> Self {
        Self {
            cache_capacity: ByteSize::gib(1).as_u64(),
            page_size: ByteSize::mib(1),
            admission_window: Some((60, 15)),
            cache_dir: None,
            hdd: DeviceModel::hdd(),
            ssd: DeviceModel::local_ssd(),
        }
    }
}

/// Disk-side read counters, shared with the cache's miss path.
#[derive(Debug, Default)]
struct DiskCounters {
    requests: AtomicU64,
    bytes: AtomicU64,
}

/// The DataNode's "HDD": block + metadata files, addressed by
/// `blk_<id>@<gen>` paths so a stale generation can never silently read
/// fresh data.
struct DiskStore {
    /// `(block, gen)` → payload.
    blocks: RwLock<HashMap<(u64, u64), Bytes>>,
    /// `(block, gen)` → checksum metadata (8 bytes).
    metas: RwLock<HashMap<(u64, u64), [u8; 8]>>,
    counters: DiskCounters,
}

impl DiskStore {
    fn unit_key(path: &str) -> Result<(u64, u64)> {
        let rest = path
            .strip_prefix("blk_")
            .ok_or_else(|| Error::InvalidArgument(format!("bad block path `{path}`")))?;
        let (id, gen) = rest
            .split_once('@')
            .ok_or_else(|| Error::InvalidArgument(format!("bad block path `{path}`")))?;
        Ok((
            id.parse()
                .map_err(|_| Error::InvalidArgument(path.into()))?,
            gen.parse()
                .map_err(|_| Error::InvalidArgument(path.into()))?,
        ))
    }
}

impl DiskStore {
    /// Resolves and checksum-verifies a block unit (§6.2.1) once, so a
    /// batch of ranges pays for the verification a single time.
    fn unit_view(&self, path: &str) -> Result<([u8; 8], Bytes)> {
        let key = Self::unit_key(path)?;
        let data = self
            .blocks
            .read()
            .get(&key)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("block `{path}`")))?;
        let meta = *self
            .metas
            .read()
            .get(&key)
            .ok_or_else(|| Error::Corrupted(format!("missing meta for `{path}`")))?;
        if fnv1a64(&data) != u64::from_le_bytes(meta) {
            return Err(Error::Corrupted(format!("checksum mismatch for `{path}`")));
        }
        Ok((meta, data))
    }

    /// Serves one range of the *unit* view (`meta ‖ payload`).
    fn slice_unit(meta: &[u8; 8], data: &Bytes, offset: u64, len: u64) -> Bytes {
        let unit_len = META_LEN + data.len() as u64;
        let start = offset.min(unit_len);
        let end = offset.saturating_add(len).min(unit_len);
        let mut out = BytesMut::with_capacity((end - start) as usize);
        for i in start..end {
            if i < META_LEN {
                out.extend_from_slice(&meta[i as usize..i as usize + 1]);
            } else {
                let d = (i - META_LEN) as usize;
                out.extend_from_slice(&data[d..d + 1]);
                // Copy the rest of the payload range in one go.
                let remaining = (end - i - 1) as usize;
                out.extend_from_slice(&data[d + 1..d + 1 + remaining]);
                break;
            }
        }
        out.freeze()
    }
}

impl RemoteSource for DiskStore {
    /// Serves a range of the cached *unit* (`meta ‖ payload`) from the block
    /// and metadata files, verifying that they match (§6.2.1).
    fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.read_ranges(path, &[(offset, len)])
            .map(|mut v| v.pop().expect("one range in, one buffer out"))
    }

    /// Batched disk reads: the unit is resolved and checksum-verified once;
    /// each range (one coalesced run of missing cache pages) still counts
    /// as one disk request.
    fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        let (meta, data) = self.unit_view(path)?;
        let mut out = Vec::with_capacity(ranges.len());
        for &(offset, len) in ranges {
            let body = Self::slice_unit(&meta, &data, offset, len);
            self.counters.requests.fetch_add(1, Ordering::Relaxed);
            self.counters
                .bytes
                .fetch_add(body.len() as u64, Ordering::Relaxed);
            out.push(body);
        }
        Ok(out)
    }
}

/// A simulated HDFS DataNode with the embedded local cache.
pub struct DataNode {
    name: String,
    disk: Arc<DiskStore>,
    /// Current generation stamp and length per block.
    current: RwLock<HashMap<u64, (u64, u64)>>,
    cache: Option<CacheManager>,
    cache_enabled: AtomicBool,
    /// The §6.2.3 in-memory mapping: blockId → (cacheId, unit length).
    block_map: RwLock<HashMap<u64, (FileId, u64)>>,
    config: DataNodeConfig,
}

impl DataNode {
    /// Creates a DataNode.
    pub fn new(name: &str, config: DataNodeConfig, clock: SharedClock) -> Result<Self> {
        let cache = if config.cache_capacity > 0 {
            let cache_config = CacheConfig::default().with_page_size(config.page_size);
            let mut builder = CacheManager::builder(cache_config)
                .with_clock(clock)
                .with_metrics(MetricRegistry::new(format!("{name}-cache")));
            builder = match &config.cache_dir {
                Some(dir) => builder.with_store(
                    Arc::new(LocalPageStore::open(
                        dir,
                        LocalStoreConfig {
                            page_size: config.page_size.as_u64(),
                            ..Default::default()
                        },
                    )?),
                    config.cache_capacity,
                ),
                None => builder.with_store(Arc::new(MemoryPageStore::new()), config.cache_capacity),
            };
            builder = match config.admission_window {
                Some((minutes, threshold)) => builder.with_admission(Arc::new(
                    SlidingWindowAdmission::per_minute(minutes, threshold),
                )),
                None => builder.with_admission(Arc::new(AdmitAll)),
            };
            Some(builder.build()?)
        } else {
            None
        };
        Ok(Self {
            name: name.to_string(),
            disk: Arc::new(DiskStore {
                blocks: RwLock::new(HashMap::new()),
                metas: RwLock::new(HashMap::new()),
                counters: DiskCounters::default(),
            }),
            current: RwLock::new(HashMap::new()),
            cache,
            cache_enabled: AtomicBool::new(true),
            block_map: RwLock::new(HashMap::new()),
            config,
        })
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enables or disables the local cache at runtime (the Figure 14
    /// experiment toggles this mid-run).
    pub fn set_cache_enabled(&self, enabled: bool) {
        self.cache_enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether the cache is active.
    pub fn cache_active(&self) -> bool {
        self.cache.is_some() && self.cache_enabled.load(Ordering::SeqCst)
    }

    fn unit_path(block: BlockId, gen: u64) -> String {
        format!("{block}@{gen}")
    }

    /// Stores a finalized block replica (payload + checksum metadata).
    pub fn store_block(&self, block: BlockId, gen: u64, data: impl Into<Bytes>) {
        let data = data.into();
        let meta = fnv1a64(&data).to_le_bytes();
        let len = data.len() as u64;
        self.disk.blocks.write().insert((block.0, gen), data);
        self.disk.metas.write().insert((block.0, gen), meta);
        self.current.write().insert(block.0, (gen, len));
    }

    /// Applies an append: replaces the `(block, old_gen)` replica with
    /// `(block, new_gen)` holding `data`, and drops the now-stale cache
    /// entry — "the updated block, identifiable by its new generation stamp,
    /// is considered a distinct cache entry" (§6.2.3).
    pub fn apply_append(&self, block: BlockId, old_gen: u64, new_gen: u64, data: impl Into<Bytes>) {
        self.store_block(block, new_gen, data);
        self.disk.blocks.write().remove(&(block.0, old_gen));
        self.disk.metas.write().remove(&(block.0, old_gen));
        if let Some(cache) = self.active_cache() {
            let stale = FileId::from_path_version(&Self::unit_path(block, old_gen), old_gen);
            cache.delete_file(stale);
        }
        self.block_map.write().remove(&block.0);
    }

    /// Deletes all replicas of a block and the matching cache pages, via the
    /// in-memory mapping (§6.2.3 "Delete a block").
    pub fn delete_block(&self, block: BlockId) {
        let gens: Vec<u64> = self
            .disk
            .blocks
            .read()
            .keys()
            .filter(|(b, _)| *b == block.0)
            .map(|(_, g)| *g)
            .collect();
        for g in gens {
            self.disk.blocks.write().remove(&(block.0, g));
            self.disk.metas.write().remove(&(block.0, g));
        }
        self.current.write().remove(&block.0);
        if let Some((cache_id, _len)) = self.block_map.write().remove(&block.0) {
            if let Some(cache) = self.cache.as_ref() {
                cache.delete_file(cache_id);
            }
        }
    }

    /// Whether this node holds a replica of the block.
    pub fn has_block(&self, block: BlockId) -> bool {
        self.current.read().contains_key(&block.0)
    }

    /// Reads `len` bytes at `offset` within a block's payload, through the
    /// local cache when it is enabled and the rate limiter admits the block.
    pub fn read_block(&self, block: BlockId, offset: u64, len: u64) -> Result<Bytes> {
        let (gen, block_len) = *self
            .current
            .read()
            .get(&block.0)
            .ok_or_else(|| Error::NotFound(format!("{block} on {}", self.name)))?;
        let path = Self::unit_path(block, gen);
        match self.active_cache() {
            Some(cache) => {
                let unit_len = META_LEN + block_len;
                let file = SourceFile::new(&path, gen, unit_len, CacheScope::Global);
                self.block_map
                    .write()
                    .insert(block.0, (file.file_id(), unit_len));
                cache.read(&file, META_LEN + offset, len, self.disk.as_ref())
            }
            None => self.disk.read(&path, META_LEN + offset, len),
        }
    }

    /// Direct disk read of a `(block, gen)` unit, bypassing the cache
    /// (crate-internal: used by the append path).
    pub(crate) fn disk_read_unit(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.disk.read(path, offset, len)
    }

    fn active_cache(&self) -> Option<&CacheManager> {
        if self.cache_enabled.load(Ordering::SeqCst) {
            self.cache.as_ref()
        } else {
            None
        }
    }

    /// Restarts the node: the in-memory block map is lost, so "the DataNode
    /// clears all local cached contents and rebuilds the cache from the
    /// ground up" (§6.2.3).
    pub fn restart(&self) {
        self.block_map.write().clear();
        if let Some(cache) = self.cache.as_ref() {
            cache.clear();
        }
    }

    /// HDD read requests served (non-cache path + cache misses).
    pub fn hdd_requests(&self) -> u64 {
        self.disk.counters.requests.load(Ordering::Relaxed)
    }

    /// HDD bytes served.
    pub fn hdd_bytes(&self) -> u64 {
        self.disk.counters.bytes.load(Ordering::Relaxed)
    }

    /// Bytes served from the local cache.
    pub fn cache_bytes(&self) -> u64 {
        self.cache
            .as_ref()
            .map(|c| c.metrics().counter("bytes_from_cache").get())
            .unwrap_or(0)
    }

    /// The embedded cache's metrics, if the cache exists.
    pub fn cache_metrics(&self) -> Option<&MetricRegistry> {
        self.cache.as_ref().map(|c| c.metrics())
    }

    /// The HDD device model (harnesses feed it into a queue model).
    pub fn hdd_model(&self) -> DeviceModel {
        self.config.hdd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgecache_common::clock::SimClock;
    use std::time::Duration;

    fn node(admission: Option<(usize, u64)>) -> (DataNode, SimClock) {
        let clock = SimClock::new();
        let config = DataNodeConfig {
            cache_capacity: 1 << 20,
            page_size: ByteSize::kib(4),
            admission_window: admission,
            ..Default::default()
        };
        (
            DataNode::new("dn0", config, Arc::new(clock.clone())).unwrap(),
            clock,
        )
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 241) as u8).collect()
    }

    #[test]
    fn read_block_round_trip() {
        let (dn, _) = node(None);
        let data = payload(10_000);
        dn.store_block(BlockId(1), 100, data.clone());
        let got = dn.read_block(BlockId(1), 500, 1000).unwrap();
        assert_eq!(got.as_ref(), &data[500..1500]);
        assert!(dn.has_block(BlockId(1)));
    }

    #[test]
    fn second_read_is_served_by_cache() {
        let (dn, _) = node(None);
        dn.store_block(BlockId(1), 100, payload(4096));
        dn.read_block(BlockId(1), 0, 4096).unwrap();
        let disk_before = dn.hdd_bytes();
        dn.read_block(BlockId(1), 0, 4096).unwrap();
        assert_eq!(dn.hdd_bytes(), disk_before, "no further disk reads");
        assert!(dn.cache_bytes() >= 4096);
    }

    #[test]
    fn rate_limiter_delays_admission() {
        let (dn, _) = node(Some((60, 3)));
        dn.store_block(BlockId(1), 100, payload(1000));
        // First two reads are below the threshold: always from disk.
        dn.read_block(BlockId(1), 0, 1000).unwrap();
        dn.read_block(BlockId(1), 0, 1000).unwrap();
        assert_eq!(dn.cache_bytes(), 0);
        // Third read crosses the threshold and caches; fourth hits.
        dn.read_block(BlockId(1), 0, 1000).unwrap();
        dn.read_block(BlockId(1), 0, 1000).unwrap();
        assert!(dn.cache_bytes() > 0);
    }

    #[test]
    fn disabled_cache_reads_disk_only() {
        let (dn, _) = node(None);
        dn.store_block(BlockId(1), 100, payload(1000));
        dn.set_cache_enabled(false);
        assert!(!dn.cache_active());
        dn.read_block(BlockId(1), 0, 1000).unwrap();
        dn.read_block(BlockId(1), 0, 1000).unwrap();
        assert_eq!(dn.cache_bytes(), 0);
        assert_eq!(dn.hdd_requests(), 2);
    }

    #[test]
    fn append_isolates_generations() {
        let (dn, _) = node(None);
        let v1 = payload(1000);
        dn.store_block(BlockId(1), 100, v1.clone());
        dn.read_block(BlockId(1), 0, 1000).unwrap(); // Cache v1.
        let mut v2 = v1.clone();
        v2.extend_from_slice(&payload(500));
        dn.apply_append(BlockId(1), 100, 101, v2.clone());
        // Reads now see v2, and the appended range is correct.
        let got = dn.read_block(BlockId(1), 0, 1500).unwrap();
        assert_eq!(got.as_ref(), &v2[..]);
        let got = dn.read_block(BlockId(1), 1200, 100).unwrap();
        assert_eq!(got.as_ref(), &v2[1200..1300]);
    }

    #[test]
    fn delete_block_purges_cache() {
        let (dn, _) = node(None);
        dn.store_block(BlockId(1), 100, payload(1000));
        dn.read_block(BlockId(1), 0, 1000).unwrap();
        dn.delete_block(BlockId(1));
        assert!(!dn.has_block(BlockId(1)));
        assert!(dn.read_block(BlockId(1), 0, 10).is_err());
        let m = dn.cache_metrics().unwrap();
        assert!(
            m.counter("evictions.delete").get() > 0,
            "cache pages removed"
        );
    }

    #[test]
    fn restart_wipes_cache() {
        let (dn, _) = node(None);
        dn.store_block(BlockId(1), 100, payload(1000));
        dn.read_block(BlockId(1), 0, 1000).unwrap();
        let hdd_before = dn.hdd_bytes();
        dn.restart();
        // The block itself survives (it is on disk) but the cache is cold.
        dn.read_block(BlockId(1), 0, 1000).unwrap();
        assert!(
            dn.hdd_bytes() > hdd_before,
            "post-restart read went to disk"
        );
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let (dn, _) = node(None);
        dn.store_block(BlockId(1), 100, payload(100));
        // Corrupt the block file behind the metadata's back.
        dn.disk
            .blocks
            .write()
            .insert((1, 100), Bytes::from(payload(99)));
        assert!(matches!(
            dn.read_block(BlockId(1), 0, 10),
            Err(Error::Corrupted(_))
        ));
    }

    #[test]
    fn admission_window_cools_down_with_sim_clock() {
        let (dn, clock) = node(Some((2, 3)));
        dn.store_block(BlockId(1), 100, payload(100));
        dn.read_block(BlockId(1), 0, 100).unwrap();
        dn.read_block(BlockId(1), 0, 100).unwrap();
        // Window slides past: the earlier accesses no longer count.
        clock.advance(Duration::from_secs(180));
        dn.read_block(BlockId(1), 0, 100).unwrap();
        assert_eq!(dn.cache_bytes(), 0, "heat reset by window expiry");
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let clock = SimClock::new();
        let dn = DataNode::new(
            "dn0",
            DataNodeConfig {
                cache_capacity: 0,
                ..Default::default()
            },
            Arc::new(clock),
        )
        .unwrap();
        dn.store_block(BlockId(1), 1, payload(10));
        dn.read_block(BlockId(1), 0, 10).unwrap();
        assert!(!dn.cache_active());
        assert!(dn.cache_metrics().is_none());
    }
}
