//! Cache configuration.

use std::time::Duration;

use edgecache_common::ByteSize;

/// Which eviction policy each cache directory runs (§4.1: "the evictor
/// component orchestrates multiple cache eviction strategies, such as FIFO,
/// random, and LRU").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicyKind {
    /// Least-recently-used (the production default).
    #[default]
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Uniform random (seeded for reproducibility).
    Random {
        /// Seed for the internal PRNG.
        seed: u64,
    },
    /// Segmented LRU: new pages enter a probation segment and are promoted
    /// to a protected segment on re-access — scan-resistant, a common
    /// choice for SSD caches (one of the "alternative policies" the §4.1
    /// evictor interface anticipates).
    Slru,
    /// 2Q: a FIFO admission queue, a main LRU, and a ghost queue of
    /// recently evicted IDs whose re-admission goes straight to the main
    /// queue.
    TwoQ,
}

/// Configuration for a [`CacheManager`](crate::manager::CacheManager).
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Page size. The paper's production default is 1 MB (§4.3, §7); it
    /// started at 64 MB and was lowered after operational experience.
    pub page_size: ByteSize,
    /// Eviction policy used by every cache directory.
    pub eviction: EvictionPolicyKind,
    /// Optional time-to-live for cached pages (§4.1's time-based eviction,
    /// adopted for data-privacy requirements). `None` disables expiry.
    pub ttl: Option<Duration>,
    /// Deadline for a local `read_file` before falling back to remote
    /// storage (§8 reports a 10-second production default). `None` (the
    /// default) reads inline with no deadline — cheaper, and what
    /// simulations that inject their own delays need.
    pub read_timeout: Option<Duration>,
    /// Upper bound on concurrent remote fetches issued by one `read` call.
    /// `1` serialises the fetch stage (the pre-parallel behaviour, useful as
    /// a benchmark baseline).
    pub max_concurrent_fetches: usize,
    /// When `true` (default), runs of adjacent missing pages are fetched as
    /// one ranged remote read each instead of one request per page.
    pub coalesce_fetches: bool,
    /// Byte capacity of the DRAM page tier mounted above the SSD
    /// directories. Zero (the default) disables the tier: the cache is the
    /// paper's two-level SSD → remote hierarchy. Non-zero turns reads into
    /// a three-level memory → SSD → remote hierarchy — published pages land
    /// on SSD, a page's second SSD hit promotes it, and memory pressure
    /// demotes frames back to SSD instead of dropping them. Adjustable at runtime
    /// via `CacheManager::set_memory_capacity`.
    pub memory_capacity: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            page_size: ByteSize::mib(1),
            eviction: EvictionPolicyKind::Lru,
            ttl: None,
            read_timeout: None,
            max_concurrent_fetches: 8,
            coalesce_fetches: true,
            memory_capacity: 0,
        }
    }
}

impl CacheConfig {
    /// Sets the page size.
    pub fn with_page_size(mut self, page_size: ByteSize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Sets the eviction policy.
    pub fn with_eviction(mut self, kind: EvictionPolicyKind) -> Self {
        self.eviction = kind;
        self
    }

    /// Sets the TTL.
    pub fn with_ttl(mut self, ttl: Duration) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// Enables the read-timeout fallback with the given deadline.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Caps the number of concurrent remote fetches per `read` call.
    pub fn with_max_concurrent_fetches(mut self, n: usize) -> Self {
        self.max_concurrent_fetches = n.max(1);
        self
    }

    /// Enables or disables miss coalescing (adjacent missing pages fetched
    /// as one ranged remote read).
    pub fn with_coalesce_fetches(mut self, coalesce: bool) -> Self {
        self.coalesce_fetches = coalesce;
        self
    }

    /// Mounts a DRAM page tier of the given capacity above the SSD
    /// directories (zero disables it).
    pub fn with_memory_tier(mut self, capacity: ByteSize) -> Self {
        self.memory_capacity = capacity.as_u64();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CacheConfig::default();
        assert_eq!(c.page_size, ByteSize::mib(1));
        assert_eq!(c.eviction, EvictionPolicyKind::Lru);
        assert_eq!(c.read_timeout, None, "reads run inline by default");
        assert!(c.ttl.is_none());
        assert_eq!(c.max_concurrent_fetches, 8);
        assert!(c.coalesce_fetches);
        assert_eq!(c.memory_capacity, 0, "memory tier is opt-in");
    }

    #[test]
    fn builder_style_setters() {
        let c = CacheConfig::default()
            .with_page_size(ByteSize::kib(64))
            .with_eviction(EvictionPolicyKind::Fifo)
            .with_ttl(Duration::from_secs(3600))
            .with_read_timeout(Duration::from_millis(50))
            .with_max_concurrent_fetches(0)
            .with_coalesce_fetches(false)
            .with_memory_tier(ByteSize::mib(8));
        assert_eq!(c.page_size, ByteSize::kib(64));
        assert_eq!(c.eviction, EvictionPolicyKind::Fifo);
        assert_eq!(c.ttl, Some(Duration::from_secs(3600)));
        assert_eq!(c.read_timeout, Some(Duration::from_millis(50)));
        assert_eq!(c.max_concurrent_fetches, 1, "clamped to at least one");
        assert!(!c.coalesce_fetches);
        assert_eq!(c.memory_capacity, ByteSize::mib(8).as_u64());
    }
}
