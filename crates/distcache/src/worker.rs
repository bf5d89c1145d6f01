//! One cache-worker node of the distributed tier.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use edgecache_common::clock::SharedClock;
use edgecache_common::error::{Error, Result};
use edgecache_common::ByteSize;
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache_metrics::MetricRegistry;
use edgecache_pagestore::MemoryPageStore;

/// Configuration for a [`CacheWorker`].
#[derive(Debug, Clone)]
pub struct WorkerCacheConfig {
    /// Local-cache capacity in bytes.
    pub cache_capacity: u64,
    /// Cache page size.
    pub page_size: ByteSize,
    /// Maximum concurrent requests before the worker reports itself
    /// occupied (the tier then tries the next replica or falls back).
    pub max_inflight: u32,
}

impl Default for WorkerCacheConfig {
    fn default() -> Self {
        Self {
            cache_capacity: ByteSize::gib(1).as_u64(),
            page_size: ByteSize::mib(1),
            max_inflight: 64,
        }
    }
}

/// A cache-worker node: a local cache plus an occupancy bound.
pub struct CacheWorker {
    name: String,
    cache: CacheManager,
    inflight: AtomicU32,
    max_inflight: u32,
    /// Fault-injection hook: a failing worker errors every serve, modelling
    /// a degraded node (bad disk, wedged fetch path) that still answers the
    /// admission probe. Drives the tier's error-failover tests and the
    /// simtest `NodeDegraded` fault.
    failing: AtomicBool,
}

/// RAII guard decrementing the worker's in-flight count.
pub(crate) struct InflightGuard<'a>(&'a AtomicU32);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        // Release: the slot hand-off must not be reordered before the
        // request work it concludes; the acquiring CAS pairs with this.
        self.0.fetch_sub(1, Ordering::Release);
    }
}

impl CacheWorker {
    /// Creates a worker with an in-memory page store.
    pub fn new(name: &str, config: WorkerCacheConfig, clock: SharedClock) -> Result<Self> {
        let cache = CacheManager::builder(CacheConfig::default().with_page_size(config.page_size))
            .with_store(Arc::new(MemoryPageStore::new()), config.cache_capacity)
            .with_clock(clock)
            .with_metrics(MetricRegistry::new(format!("{name}-cache")))
            .build()?;
        Ok(Self {
            name: name.to_string(),
            cache,
            inflight: AtomicU32::new(0),
            max_inflight: config.max_inflight,
            failing: AtomicBool::new(false),
        })
    }

    /// The worker's name (its ring identity).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The embedded cache (introspection).
    pub fn cache(&self) -> &CacheManager {
        &self.cache
    }

    /// Current in-flight requests.
    pub fn inflight(&self) -> u32 {
        // Relaxed: a monitoring read of a monotonic-ish gauge; no other
        // memory depends on the value observed.
        self.inflight.load(Ordering::Relaxed)
    }

    /// Makes every serve fail (or recover) — fault injection for failover
    /// tests and the simulation harness.
    pub fn set_failing(&self, failing: bool) {
        // Relaxed: the flag guards no other data; serves observe it on
        // their next load and the exact switchover point is immaterial.
        self.failing.store(failing, Ordering::Relaxed);
    }

    /// Tries to reserve a request slot; `None` when the worker is occupied.
    pub(crate) fn try_acquire(&self) -> Option<InflightGuard<'_>> {
        // Relaxed initial read: the CAS below revalidates it.
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.max_inflight {
                return None;
            }
            // AcqRel on success: Acquire pairs with the guard-drop Release
            // so a reused slot observes the prior request's completed work;
            // Release publishes this reservation to the next acquirer.
            // Relaxed on failure: a stale count is just retried.
            match self
                .inflight
                .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return Some(InflightGuard(&self.inflight)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Serves a batch of ranges through this worker's local cache: a single
    /// range as one `read`, a batch as one vectored `read_multi`, whose
    /// misses across all ranges classify, coalesce, and fetch together.
    pub(crate) fn serve(
        &self,
        file: &SourceFile,
        ranges: &[(u64, u64)],
        origin: &dyn RemoteSource,
    ) -> Result<Vec<Bytes>> {
        if self.failing.load(Ordering::Relaxed) {
            return Err(Error::Other(format!("worker {} is degraded", self.name)));
        }
        match ranges {
            [(offset, len)] => Ok(vec![self.cache.read(file, *offset, *len, origin)?]),
            _ => self.cache.read_multi(file, ranges, origin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgecache_common::clock::system_clock;
    use edgecache_pagestore::CacheScope;

    struct Zero;
    impl RemoteSource for Zero {
        fn read(&self, _p: &str, _o: u64, len: u64) -> Result<Bytes> {
            Ok(Bytes::from(vec![0u8; len as usize]))
        }
    }

    #[test]
    fn inflight_slots_are_bounded() {
        let w = CacheWorker::new(
            "w0",
            WorkerCacheConfig {
                max_inflight: 2,
                ..Default::default()
            },
            system_clock(),
        )
        .unwrap();
        let g1 = w.try_acquire().unwrap();
        let _g2 = w.try_acquire().unwrap();
        assert!(w.try_acquire().is_none(), "occupied at the bound");
        drop(g1);
        assert!(w.try_acquire().is_some(), "slot released");
    }

    #[test]
    fn failing_worker_errors_until_recovered() {
        let w = CacheWorker::new("w0", WorkerCacheConfig::default(), system_clock()).unwrap();
        let file = SourceFile::new("/f", 1, 1 << 20, CacheScope::Global);
        w.set_failing(true);
        assert!(w.serve(&file, &[(0, 1024)], &Zero).is_err());
        assert!(w.serve(&file, &[(0, 1024), (4096, 1024)], &Zero).is_err());
        w.set_failing(false);
        assert!(w.serve(&file, &[(0, 1024)], &Zero).is_ok());
    }

    #[test]
    fn serve_caches_locally() {
        let w = CacheWorker::new("w0", WorkerCacheConfig::default(), system_clock()).unwrap();
        let file = SourceFile::new("/f", 1, 1 << 20, CacheScope::Global);
        w.serve(&file, &[(0, 1024)], &Zero).unwrap();
        w.serve(&file, &[(0, 1024)], &Zero).unwrap();
        assert_eq!(w.cache().stats().hits, 1);
    }
}
