//! The cache manager (§4.1, Figure 3): read-through page caching with
//! admission control, quota enforcement, eviction, and failure handling.
//!
//! The manager ties the components together. A file-level read is split into
//! page-level operations; each page is served from the local page store on a
//! hit, or fetched read-through from the [`RemoteSource`] on a miss (subject
//! to the admission policy). Misses run through a classify → fetch → publish
//! pipeline: runs of adjacent missing pages coalesce into single ranged
//! remote reads issued concurrently, and a per-page single-flight latch
//! guarantees N concurrent readers of one cold page cost one remote request.
//! Failure handling follows §8:
//!
//! * **Read hang** — local reads optionally run on an I/O pool with a
//!   deadline (10 s in production); on timeout the manager falls back to the
//!   remote source without failing the request.
//! * **Corruption** — a checksum failure evicts the page early and refetches.
//! * **`No space left on device`** — a `NoSpace` from the store triggers
//!   early eviction (before the configured capacity is reached) and a retry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, unbounded, RecvTimeoutError, SendError, Sender};
use edgecache_common::clock::{system_clock, SharedClock};
use edgecache_common::error::{Error, Result};
use edgecache_common::ByteSize;
use edgecache_metrics::trace::{Span, SpanId, Tracer};
use edgecache_metrics::{Counter, Histogram, MetricRegistry};
use edgecache_pagestore::{CacheScope, FileId, MemTierStore, PageId, PageInfo, PageStore};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::accessq::AccessQueue;
use crate::admission::{AdmissionPolicy, AdmitAll};
use crate::allocator::Allocator;
use crate::config::CacheConfig;
use crate::eviction::{build_policy, EvictionPolicy};
use crate::index::IndexManager;
use crate::ledger::{ScopeEvent, ScopeEventSink};
use crate::quota::{QuotaManager, QuotaViolation};

/// Number of page-lock stripes (power of two).
const LOCK_STRIPES: usize = 1024;

/// Number of single-flight table shards (power of two): misses on different
/// pages land on different shards and never contend on one global mutex.
const INFLIGHT_SHARDS: usize = 64;

/// Capacity of each directory's access-event ring. Sized so batches between
/// two policy-lock acquisitions (one per put/evict) rarely overflow; a full
/// ring drops events (counted by `policy.events_dropped`) rather than stall
/// the hit path.
const ACCESS_EVENT_BUFFER: usize = 4096;

/// The remote data source the cache reads through on a miss.
///
/// Implementations in this workspace: the simulated HDFS client and the
/// S3-like object store (`edgecache-storage`).
pub trait RemoteSource: Sync {
    /// Reads `len` bytes at `offset` of `path`. Short reads at end-of-file
    /// return the available prefix.
    fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes>;

    /// Reads several `(offset, len)` ranges of `path` in one call, returning
    /// one buffer per range (short at end-of-file, like [`Self::read`]).
    ///
    /// The cache passes one range per *coalesced run* of adjacent missing
    /// pages, so each range should be served as a single remote request.
    /// Implementations able to batch further (vectored I/O, HTTP
    /// multi-range, pipelined RPCs) can override the default, which issues
    /// one [`Self::read`] per range.
    fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        ranges
            .iter()
            .map(|&(offset, len)| self.read(path, offset, len))
            .collect()
    }
}

impl<T: RemoteSource + ?Sized> RemoteSource for &T {
    fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        (**self).read(path, offset, len)
    }

    fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        (**self).read_ranges(path, ranges)
    }
}

/// Latch for a page fetch in progress. The owning reader publishes the full
/// page (or an error — [`Error`] is not `Clone`, so failures travel as text)
/// exactly once; concurrent readers of the same cold page block here instead
/// of issuing duplicate remote reads.
#[derive(Default)]
struct InflightFetch {
    state: Mutex<Option<std::result::Result<Bytes, String>>>,
    done: Condvar,
}

impl InflightFetch {
    /// Publishes the outcome and wakes every waiter.
    fn publish(&self, outcome: std::result::Result<Bytes, String>) {
        *self.state.lock() = Some(outcome);
        self.done.notify_all();
    }

    /// Blocks until the owner publishes, then returns the full page.
    fn wait(&self) -> std::result::Result<Bytes, String> {
        let mut state = self.state.lock();
        loop {
            match &*state {
                Some(Ok(bytes)) => return Ok(bytes.clone()),
                Some(Err(msg)) => return Err(msg.clone()),
                None => self.done.wait(&mut state),
            }
        }
    }
}

/// Which SSD hit (counted since the page entered SSD) promotes a page into
/// the DRAM tier — the kernel's two-list rule, with SSD as the probation
/// list and DRAM as the second-touch list: a one-off hit is served ranged
/// and moves nothing.
const PROMOTE_ON_HIT: u64 = 2;

/// How one requested page will be served, decided during classification.
enum PageClass {
    /// Present in the index: read from the local store after the lock drops.
    /// `dir` and `hits` are what the classify-time touch saw — the page's
    /// directory and its hit count there, this hit included.
    Hit { dir: usize, hits: u64 },
    /// Missing and admitted, with this reader elected to fetch it.
    Owner { latch: Arc<InflightFetch> },
    /// Missing, but another reader is already fetching it.
    Waiter { latch: Arc<InflightFetch> },
    /// Missing and rejected by admission: remote-read the exact range only.
    Bypass,
}

/// One page of a (possibly multi-page) read.
struct PagePlan {
    id: PageId,
    /// Absolute offset of the page in the file.
    page_start: u64,
    /// Full (EOF-clamped) page length.
    page_len: u64,
    /// Requested sub-range within the page.
    within_off: u64,
    within_len: u64,
    class: PageClass,
    /// Remote request slot serving this page (owners and bypasses).
    slot: Option<usize>,
    /// Byte offset of this page inside its slot's response.
    off_in_slot: u64,
}

/// What stages 2–5 of the read pipeline produced: one chunk per plan
/// (covering its requested sub-range) plus the raw ranged responses, kept
/// so callers can hand out zero-copy slices of whole coalesced runs.
struct ServedPages {
    /// Per-plan chunk, indexed like the plan list.
    chunks: Vec<Bytes>,
    /// Per-slot remote responses.
    fetched: Vec<Result<Bytes>>,
    /// Per-slot `(offset, len)` ranges, indexed like `fetched`.
    fetches: Vec<(u64, u64)>,
}

/// Releases owned in-flight latches when a read unwinds before publishing
/// (panic or early error), so waiters are not stranded.
struct LatchCleanup<'a> {
    cache: &'a CacheManager,
    file: &'a SourceFile,
    pending: Vec<(usize, PageId, Arc<InflightFetch>)>,
}

impl Drop for LatchCleanup<'_> {
    fn drop(&mut self) {
        for (_, id, latch) in self.pending.drain(..) {
            self.cache.finish_fetch(
                self.file,
                id,
                &latch,
                &Err("fetch abandoned".into()),
                SpanId::NONE,
            );
        }
    }
}

/// Identity and shape of a remote file being read through the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Remote path (also the admission key).
    pub path: String,
    /// Version token: modification time, HDFS generation stamp, etag. A new
    /// version yields a new [`FileId`], invalidating stale cache entries
    /// (§6.1.1) and giving snapshot isolation under append (§6.2.3).
    pub version: u64,
    /// Total length in bytes.
    pub length: u64,
    /// Scope in the schema/table/partition hierarchy.
    pub scope: CacheScope,
}

impl SourceFile {
    /// Creates a source-file descriptor.
    pub fn new(path: impl Into<String>, version: u64, length: u64, scope: CacheScope) -> Self {
        Self {
            path: path.into(),
            version,
            length,
            scope,
        }
    }

    /// The stable cache identity of this file+version.
    pub fn file_id(&self) -> FileId {
        FileId::from_path_version(&self.path, self.version)
    }
}

/// A snapshot of headline cache statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheStats {
    pub pages: usize,
    pub bytes: u64,
    pub hits: u64,
    pub misses: u64,
    /// `hits / (hits + misses)`, or 0 with no traffic.
    pub hit_rate: f64,
}

/// One directory's eviction policy plus the lock-free buffer of access
/// events feeding it.
///
/// Hits call [`PolicyCell::record_access`] — a ring push, no mutex. Every
/// path that locks the policy goes through [`PolicyCell::lock`], which
/// drains the buffer first, so the policy observes all accesses recorded
/// before the acquisition (in arrival order) before it chooses victims or
/// registers inserts/removes. Recency is therefore *batch-granular*: exact
/// FIFO between drain points, with drains at every insert and eviction.
struct PolicyCell {
    policy: Mutex<Box<dyn EvictionPolicy>>,
    events: AccessQueue,
}

impl PolicyCell {
    fn new(policy: Box<dyn EvictionPolicy>) -> Self {
        Self {
            policy: Mutex::new(policy),
            events: AccessQueue::new(ACCESS_EVENT_BUFFER),
        }
    }

    /// Records a hit without touching the policy mutex. Returns `false`
    /// when the ring was full and the event was dropped (lost recency only
    /// — membership is maintained by inserts/removes, never by accesses).
    fn record_access(&self, id: PageId) -> bool {
        self.events.push(id)
    }

    /// Locks the policy, first replaying buffered access events.
    fn lock(&self) -> MutexGuard<'_, Box<dyn EvictionPolicy>> {
        let mut guard = self.policy.lock();
        while let Some(id) = self.events.pop() {
            guard.on_access(id);
        }
        guard
    }
}

/// Metric handles the per-page serve path increments, resolved once at
/// construction. The registry's name lookup takes a `RwLock<BTreeMap>` —
/// fine once per snapshot or error, wrong once (or more) per page read.
/// Cold paths (error breakdowns, eviction causes, recovery, lifecycle)
/// still go through the registry by name.
struct HotMetrics {
    hits: Arc<Counter>,
    /// Hits classified under the stripe lock (the double-check after an
    /// optimistic probe missed). A pure-hit steady state must keep this at
    /// zero — the hotpath benchmark asserts exactly that to prove hits
    /// acquire no lock beyond the shard read lock.
    hits_slow_path: Arc<Counter>,
    misses: Arc<Counter>,
    page_reads: Arc<Counter>,
    vectored_reads: Arc<Counter>,
    puts: Arc<Counter>,
    bytes_written: Arc<Counter>,
    bytes_requested: Arc<Counter>,
    bytes_copied: Arc<Counter>,
    bytes_from_cache: Arc<Counter>,
    bytes_from_remote: Arc<Counter>,
    remote_requests: Arc<Counter>,
    inflight_waits: Arc<Counter>,
    admission_rejected: Arc<Counter>,
    fallbacks_timeout: Arc<Counter>,
    coalesced_pages: Arc<Counter>,
    /// Access events dropped because a policy ring was full.
    policy_events_dropped: Arc<Counter>,
    fetch_batch_bytes: Arc<Histogram>,
    /// Memory-tier flow counters. The three-tier conservation oracle
    /// balances entries (`mem.promotions`, the tier's only way in) against
    /// exits (`mem.demotions + mem.evictions + mem.replaced`) and current
    /// residency — every frame that leaves the tier is counted somewhere.
    mem_hits: Arc<Counter>,
    mem_promotions: Arc<Counter>,
    mem_demotions: Arc<Counter>,
    mem_replaced: Arc<Counter>,
    mem_evictions: Arc<Counter>,
    mem_bytes_promoted: Arc<Counter>,
    mem_bytes_demoted: Arc<Counter>,
}

impl HotMetrics {
    fn new(m: &MetricRegistry) -> Self {
        Self {
            hits: m.counter("hits"),
            hits_slow_path: m.counter("hits.slow_path"),
            misses: m.counter("misses"),
            page_reads: m.counter("page_reads"),
            vectored_reads: m.counter("vectored_reads"),
            puts: m.counter("puts"),
            bytes_written: m.counter("bytes_written"),
            bytes_requested: m.counter("bytes_requested"),
            bytes_copied: m.counter("bytes_copied"),
            bytes_from_cache: m.counter("bytes_from_cache"),
            bytes_from_remote: m.counter("bytes_from_remote"),
            remote_requests: m.counter("remote_requests"),
            inflight_waits: m.counter("fetch.inflight_waits"),
            admission_rejected: m.counter("admission_rejected"),
            fallbacks_timeout: m.counter("fallbacks.timeout"),
            coalesced_pages: m.counter("fetch.coalesced_pages"),
            policy_events_dropped: m.counter("policy.events_dropped"),
            fetch_batch_bytes: m.histogram("fetch.batch_bytes"),
            mem_hits: m.counter("mem.hits"),
            mem_promotions: m.counter("mem.promotions"),
            mem_demotions: m.counter("mem.demotions"),
            mem_replaced: m.counter("mem.replaced"),
            mem_evictions: m.counter("mem.evictions"),
            mem_bytes_promoted: m.counter("mem.bytes_promoted"),
            mem_bytes_demoted: m.counter("mem.bytes_demoted"),
        }
    }
}

/// Builder for [`CacheManager`].
pub struct CacheManagerBuilder {
    config: CacheConfig,
    stores: Vec<Arc<dyn PageStore>>,
    capacities: Vec<u64>,
    admission: Arc<dyn AdmissionPolicy>,
    quota: QuotaManager,
    clock: SharedClock,
    metrics: Option<MetricRegistry>,
    recover: bool,
    tracer: Tracer,
}

impl CacheManagerBuilder {
    /// Adds a cache directory: a page store with a byte capacity.
    pub fn with_store(mut self, store: Arc<dyn PageStore>, capacity: u64) -> Self {
        self.stores.push(store);
        self.capacities.push(capacity);
        self
    }

    /// Sets the admission policy (default: admit everything).
    pub fn with_admission(mut self, policy: Arc<dyn AdmissionPolicy>) -> Self {
        self.admission = policy;
        self
    }

    /// Sets a quota for a scope.
    pub fn with_quota(self, scope: CacheScope, quota: ByteSize) -> Self {
        self.quota.set_quota(scope, quota);
        self
    }

    /// Uses the given clock (simulations pass a `SimClock`).
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = clock;
        self
    }

    /// Uses the given metric registry (e.g. one shared per node).
    pub fn with_metrics(mut self, metrics: MetricRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a span tracer to the read path (default: disabled, which
    /// costs nothing). Drive it from the same clock passed to
    /// [`Self::with_clock`] so stage timestamps share the read's timeline.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Rebuilds the in-memory index from the page stores on startup (§4.3's
    /// cache recovery). Scopes are not persisted per page, so every
    /// recovered page is tracked under [`CacheScope::Global`].
    pub fn with_recovery(mut self) -> Self {
        self.recover = true;
        self
    }

    /// Builds the manager.
    pub fn build(self) -> Result<CacheManager> {
        if self.stores.is_empty() {
            return Err(Error::InvalidArgument(
                "cache manager needs at least one store".into(),
            ));
        }
        // Mount the DRAM tier as one extra directory *after* the SSD
        // stores: the same index, ledger, quota, and policy machinery then
        // covers it for free. The allocator is built from the SSD
        // capacities only, so `pick` never places a page in memory —
        // memory placement is explicit (promote, demote).
        let mut stores = self.stores;
        let mem_store = if self.config.memory_capacity > 0 {
            let store = Arc::new(MemTierStore::new());
            stores.push(Arc::clone(&store) as Arc<dyn PageStore>);
            Some(store)
        } else {
            None
        };
        let mem_dir = mem_store.as_ref().map(|_| stores.len() - 1);
        let dirs = stores.len();
        let index = IndexManager::new(dirs);
        let metrics = self.metrics.unwrap_or_else(|| MetricRegistry::new("cache"));
        // Lifecycle sink: every partition enter/exit the ledger observes is
        // counted as a metric, and exits hand the admission policy its slot
        // back — no exit path (capacity, quota, TTL, corruption, purge,
        // delete, clear) can leak a `maxCachedPartitions` slot.
        index.ledger().subscribe(Arc::new(LifecycleSink {
            metrics: metrics.clone(),
            admission: Arc::clone(&self.admission),
        }));
        let policies: Vec<PolicyCell> = (0..dirs)
            .map(|_| PolicyCell::new(build_policy(self.config.eviction)))
            .collect();
        let io_pool = if self.config.enforce_read_timeout {
            Some(IoPool::new(self.config.io_threads.max(1)))
        } else {
            None
        };
        // A persistent pool for stage-2 remote fetches: sized above the
        // per-read cap so several reader threads can fetch at their full
        // `max_concurrent_fetches` simultaneously. Spawning threads per
        // read would cost more than a small remote round trip.
        let fetch_pool = if self.config.max_concurrent_fetches > 1 {
            Some(IoPool::new(
                (self.config.max_concurrent_fetches * 4).min(64),
            ))
        } else {
            None
        };
        let hot = HotMetrics::new(&metrics);
        let manager = CacheManager {
            allocator: Allocator::new(self.capacities),
            stores,
            mem_store,
            mem_dir,
            mem_capacity: AtomicU64::new(self.config.memory_capacity),
            index,
            policies,
            quota: self.quota,
            admission: self.admission,
            metrics,
            hot,
            clock: self.clock,
            page_locks: (0..LOCK_STRIPES).map(|_| Mutex::new(())).collect(),
            inflight: (0..INFLIGHT_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            io_pool,
            fetch_pool,
            rng_state: AtomicU64::new(0x853c_49e6_748f_ea9b),
            tracer: self.tracer,
            config: self.config,
        };
        if self.recover {
            manager.recover()?;
        }
        Ok(manager)
    }
}

/// The ledger sink the builder installs: partition lifecycle transitions
/// become metrics, and exits release admission slots. Runs under the index
/// locks, so it only touches its own leaf state (counters, admission map).
struct LifecycleSink {
    metrics: MetricRegistry,
    admission: Arc<dyn AdmissionPolicy>,
}

impl ScopeEventSink for LifecycleSink {
    fn on_scope_event(&self, event: &ScopeEvent) {
        match event {
            ScopeEvent::Enter(scope) => {
                if matches!(scope, CacheScope::Partition { .. }) {
                    self.metrics.counter("ledger.enters").inc();
                }
                self.admission.on_scope_enter(scope);
            }
            ScopeEvent::Exit(scope) => {
                if matches!(scope, CacheScope::Partition { .. }) {
                    self.metrics.counter("ledger.exits").inc();
                }
                self.admission.on_scope_exit(scope);
            }
        }
    }
}

/// The local cache: the embeddable, page-oriented, SSD-backed cache of §4.
pub struct CacheManager {
    config: CacheConfig,
    stores: Vec<Arc<dyn PageStore>>,
    /// The DRAM tier, when mounted: also present in `stores` as the last
    /// directory (`mem_dir`), kept typed here for pin/verify operations.
    mem_store: Option<Arc<MemTierStore>>,
    /// Index directory of the DRAM tier. Always the *last* directory; the
    /// allocator only knows the SSD directories, so its `pick` never lands
    /// here — tier placement is explicit (promote/demote).
    mem_dir: Option<usize>,
    /// Runtime-adjustable DRAM-tier capacity (`set_memory_capacity`).
    /// Relaxed everywhere: a capacity is a target the next placement or
    /// pressure pass observes, not a synchronization point.
    mem_capacity: AtomicU64,
    allocator: Allocator,
    index: IndexManager,
    policies: Vec<PolicyCell>,
    quota: QuotaManager,
    admission: Arc<dyn AdmissionPolicy>,
    metrics: MetricRegistry,
    /// Pre-resolved handles for per-page-read metric updates.
    hot: HotMetrics,
    clock: SharedClock,
    page_locks: Vec<Mutex<()>>,
    /// Single-flight table: pages currently being fetched from the remote,
    /// sharded by page hash so misses on different pages never contend.
    /// A shard is locked strictly *after* a stripe lock, never before, and
    /// never together with another shard (except the read-only sweep of
    /// [`Self::inflight_fetches`], which holds no stripe lock).
    inflight: Vec<Mutex<HashMap<PageId, Arc<InflightFetch>>>>,
    io_pool: Option<IoPool>,
    /// Workers for concurrent stage-2 remote fetches (absent when
    /// `max_concurrent_fetches` is 1: fetches then run inline).
    fetch_pool: Option<IoPool>,
    rng_state: AtomicU64,
    tracer: Tracer,
}

impl CacheManager {
    /// Starts building a manager with the given configuration.
    pub fn builder(config: CacheConfig) -> CacheManagerBuilder {
        CacheManagerBuilder {
            config,
            stores: Vec::new(),
            capacities: Vec::new(),
            admission: Arc::new(AdmitAll),
            quota: QuotaManager::new(),
            clock: system_clock(),
            metrics: None,
            recover: false,
            tracer: Tracer::disabled(),
        }
    }

    /// The manager's metric registry.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// The manager's span tracer (disabled unless one was attached).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.config.page_size.as_u64()
    }

    /// The quota manager (quotas may be adjusted at runtime).
    pub fn quota(&self) -> &QuotaManager {
        &self.quota
    }

    /// The index manager (read-only introspection).
    pub fn index(&self) -> &IndexManager {
        &self.index
    }

    /// The configuration the manager was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of per-page single-flight latches currently registered.
    /// An idle cache must report 0 — a leaked latch would strand every
    /// future reader of that page (the torture harness asserts this after
    /// every operation).
    pub fn inflight_fetches(&self) -> usize {
        self.inflight.iter().map(|s| s.lock().len()).sum()
    }

    /// Per-directory `(bytes_used_by_store, bytes_indexed, capacity)` —
    /// the accounting triple the harness cross-checks after every op.
    pub fn dir_usage(&self) -> Vec<(u64, u64, u64)> {
        (0..self.stores.len())
            .map(|dir| {
                // The DRAM tier is not an allocator directory; its capacity
                // is the runtime-adjustable memory budget.
                let capacity = if Some(dir) == self.mem_dir {
                    self.memory_capacity()
                } else {
                    self.allocator.capacity(dir)
                };
                (
                    self.stores[dir].bytes_used(),
                    self.index.bytes_of_dir(dir),
                    capacity,
                )
            })
            .collect()
    }

    /// Headline statistics.
    pub fn stats(&self) -> CacheStats {
        let hits = self.hot.hits.get();
        let misses = self.hot.misses.get();
        let total = hits + misses;
        CacheStats {
            pages: self.index.len(),
            bytes: self.index.total_bytes(),
            hits,
            misses,
            hit_rate: if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            },
        }
    }

    fn now_ms(&self) -> u64 {
        self.clock.now_millis()
    }

    fn stripe(&self, id: PageId) -> &Mutex<()> {
        &self.page_locks[(id.stable_hash() as usize) & (LOCK_STRIPES - 1)]
    }

    fn inflight_shard(&self, id: PageId) -> &Mutex<HashMap<PageId, Arc<InflightFetch>>> {
        &self.inflight[(id.stable_hash() as usize) & (INFLIGHT_SHARDS - 1)]
    }

    /// Oracle used by the simulation harness: after draining buffered
    /// access events, every eviction policy must track exactly as many
    /// pages as the index holds in its directory. Deferred (batch-granular)
    /// recency may lag; *membership* may not drift — a policy entry without
    /// an index entry could surface as a victim no eviction confirms, and
    /// the reverse would shelter a page from eviction forever.
    #[doc(hidden)]
    pub fn check_policy_coherence(&self) -> std::result::Result<(), String> {
        for (dir, cell) in self.policies.iter().enumerate() {
            let tracked = cell.lock().len();
            let indexed = self.index.pages_of_dir(dir).len();
            if tracked != indexed {
                return Err(format!(
                    "dir {dir}: policy tracks {tracked} pages, index holds {indexed}"
                ));
            }
        }
        Ok(())
    }

    fn next_rand(&self) -> u64 {
        // Xorshift over an atomic state: statistically fine for victim
        // sampling, and keeps the manager lock-free here. The CAS loop makes
        // the read-modify-write atomic (a plain load/store pair would let
        // concurrent callers draw the same value), and zero — xorshift's
        // absorbing state — is never stored.
        fn step(mut x: u64) -> u64 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            if x == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                x
            }
        }
        let prev = self
            .rng_state
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |x| Some(step(x)))
            .unwrap_or(0);
        step(prev).wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Reads `len` bytes at `offset` from `file`, serving cached pages
    /// locally and fetching missing pages read-through from `source`. This
    /// is the one-fragment case of [`Self::read_multi`]; both run one
    /// pipeline:
    ///
    /// 1. **Classify** — each distinct page is classified once, under its
    ///    stripe lock only on a miss and never across I/O, as a local hit,
    ///    an in-flight fetch to join, a miss this reader owns, or an
    ///    admission bypass.
    /// 2. **Fetch** — owned misses are coalesced into runs of adjacent
    ///    pages, one ranged [`RemoteSource::read_ranges`] request per run,
    ///    executed concurrently up to
    ///    [`max_concurrent_fetches`](CacheConfig::max_concurrent_fetches).
    /// 3. **Publish** — fetched pages are cached (re-taking the stripe lock
    ///    just for the insert) and released through per-page single-flight
    ///    latches, so N concurrent readers of one cold page produce exactly
    ///    one remote request.
    /// 4. **Assemble** — a range inside one page or one coalesced run is a
    ///    zero-copy slice; only a range spanning several sources is
    ///    stitched (counted in `bytes_copied`).
    pub fn read(
        &self,
        file: &SourceFile,
        offset: u64,
        len: u64,
        source: &dyn RemoteSource,
    ) -> Result<Bytes> {
        if offset >= offset.saturating_add(len).min(file.length) {
            return Ok(Bytes::new());
        }
        let mut out = self.read_fragments("cache.read", file, &[(offset, len)], source)?;
        Ok(out.pop().expect("one buffer per fragment"))
    }

    /// Reads several `(offset, len)` fragments of `file` in one vectored
    /// operation, returning one buffer per fragment (each EOF-clamped like
    /// [`Self::read`]).
    ///
    /// Fragmented columnar scans — the paper's dominant workload (§5) — ask
    /// for many small ranges of one file at once: the projected column
    /// chunks of a row group. Issued through [`Self::read`] one at a time
    /// they classify, fetch, and publish per fragment, so misses on
    /// different fragments never share a wire round-trip. This entry point
    /// runs the same pipeline once over the union of all fragments:
    ///
    /// * every *distinct* page is classified exactly once, even when
    ///   fragments overlap, repeat, or arrive out of order (duplicates
    ///   share the page's chunk);
    /// * runs of file-adjacent owned pages coalesce **across fragment
    ///   boundaries** into single ranged remote requests, dispatched
    ///   concurrently on the persistent fetch pool;
    /// * per-page single-flight latches publish exactly as [`Self::read`]
    ///   does, so concurrent readers (vectored or not) interleave safely;
    /// * a fragment covered by one page chunk or one coalesced run is
    ///   returned as a zero-copy slice; only fragments spanning several
    ///   sources are stitched (counted in `bytes_copied`).
    ///
    /// Failures are all-or-nothing: the first error fails the whole call,
    /// after every owned latch has been published or released.
    pub fn read_multi(
        &self,
        file: &SourceFile,
        fragments: &[(u64, u64)],
        source: &dyn RemoteSource,
    ) -> Result<Vec<Bytes>> {
        if fragments.is_empty() {
            return Ok(Vec::new());
        }
        self.hot.vectored_reads.inc();
        self.metrics
            .histogram("vectored.fragments")
            .record(fragments.len() as u64);
        self.read_fragments("cache.read_multi", file, fragments, source)
    }

    /// The read pipeline behind [`Self::read`] and [`Self::read_multi`],
    /// traced under a root span named `root_name`: one EOF-clamped buffer
    /// per fragment.
    fn read_fragments(
        &self,
        root_name: &'static str,
        file: &SourceFile,
        fragments: &[(u64, u64)],
        source: &dyn RemoteSource,
    ) -> Result<Vec<Bytes>> {
        let ps = self.page_size();
        // Degenerate fragments (zero-length or past EOF) clamp to an empty
        // range and resolve to empty buffers.
        let clamped: Vec<(u64, u64)> = fragments
            .iter()
            .map(|&(off, len)| (off, off.saturating_add(len).min(file.length).max(off)))
            .collect();
        self.hot
            .bytes_requested
            .add(clamped.iter().map(|&(start, end)| end - start).sum());
        let mut root = self.tracer.span(root_name);
        root.annotate("path", &file.path);
        if let [(offset, end)] = clamped[..] {
            root.annotate("offset", offset);
            root.annotate("len", end - offset);
        } else {
            root.annotate("fragments", fragments.len());
        }

        // Stage 1: classify every distinct page of the fragments' union
        // once. Its entries are `(page index, within start, within end)`,
        // ascending. One fragment's pages already are; several may overlap,
        // repeat or arrive out of order, so they are sorted and merged — a
        // page shared by two fragments must not wait on its own latch. A
        // merged range may over-read the gap between two fragments on one
        // page; it never crosses a page.
        let mut classify_span = self.tracer.child(root.id(), "classify");
        let mut pages: Vec<(u64, u64, u64)> = Vec::new();
        for &(start, end) in clamped.iter().filter(|(start, end)| start < end) {
            pages.extend((start / ps..=(end - 1) / ps).map(|idx| {
                let page_start = idx * ps;
                let a = start.max(page_start) - page_start;
                (idx, a, end.min(page_start + ps) - page_start)
            }));
        }
        if clamped.len() > 1 {
            pages.sort_unstable_by_key(|&(idx, ..)| idx);
            pages.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 = kept.1.min(next.1);
                    kept.2 = kept.2.max(next.2);
                }
                same
            });
        }
        let file_id = file.file_id();
        let now = self.now_ms();
        let mut plans: Vec<PagePlan> = pages
            .iter()
            .map(|&(idx, within_start, within_end)| {
                let page_start = idx * ps;
                let id = PageId::new(file_id, idx);
                PagePlan {
                    id,
                    page_start,
                    page_len: ps.min(file.length - page_start),
                    within_off: within_start,
                    within_len: within_end - within_start,
                    class: self.classify_page(file, id, now, classify_span.id()),
                    slot: None,
                    off_in_slot: 0,
                }
            })
            .collect();
        if classify_span.is_recording() {
            let count = |f: fn(&PageClass) -> bool| plans.iter().filter(|p| f(&p.class)).count();
            classify_span.annotate("hits", count(|c| matches!(c, PageClass::Hit { .. })));
            classify_span.annotate("waiters", count(|c| matches!(c, PageClass::Waiter { .. })));
            classify_span.annotate("owned", count(|c| matches!(c, PageClass::Owner { .. })));
            classify_span.annotate("bypass", count(|c| matches!(c, PageClass::Bypass)));
        }
        classify_span.finish();
        // Every page this read touches, hit or miss — the conservation
        // anchor: page_reads == hits + misses + fallbacks.timeout.
        self.hot.page_reads.add(plans.len() as u64);

        let served = self.fetch_publish_serve(file, &mut plans, source, root.id())?;

        // Stage 6: assemble one buffer per fragment. Each plan's chunk
        // covers the page's *union* sub-range, so a fragment slices its own
        // bytes back out of its pages, which are contiguous in `plans`.
        let _assemble_span = self.tracer.child(root.id(), "assemble");
        let mut out = Vec::with_capacity(clamped.len());
        for &(start, end) in &clamped {
            if start >= end {
                out.push(Bytes::new());
                continue;
            }
            let first = plans.partition_point(|p| p.page_start + p.page_len <= start);
            let last = first + ((end - 1) / ps - start / ps) as usize;
            let (run, chunks) = (&plans[first..=last], &served.chunks[first..=last]);
            if let [plan] = run {
                let rel = (start - (plan.page_start + plan.within_off)) as usize;
                out.push(chunks[0].slice(rel..rel + (end - start) as usize));
                continue;
            }
            // Whole fragment inside one coalesced owner run: one slice of
            // the ranged response.
            if run
                .iter()
                .all(|p| matches!(p.class, PageClass::Owner { .. }) && p.slot == run[0].slot)
            {
                let slot = run[0].slot.expect("owner pages are planned a fetch slot");
                if let Ok(bytes) = &served.fetched[slot] {
                    let base = served.fetches[slot].0;
                    let a = ((start - base) as usize).min(bytes.len());
                    let b = ((end - base) as usize).min(bytes.len());
                    out.push(bytes.slice(a..b));
                    continue;
                }
            }
            self.hot.bytes_copied.add(end - start);
            let mut buf = BytesMut::with_capacity((end - start) as usize);
            for (plan, chunk) in run.iter().zip(chunks) {
                let a = start.max(plan.page_start);
                let b = end.min(plan.page_start + plan.page_len);
                let base = plan.page_start + plan.within_off;
                buf.extend_from_slice(&chunk[(a - base) as usize..(b - base) as usize]);
            }
            out.push(buf.freeze());
        }
        Ok(out)
    }

    /// Stages 2–5 of the read pipeline ([`Self::read_fragments`]): plan
    /// and execute remote fetches, publish owned pages, serve hits, and
    /// collect waiter/bypass pages. On success every plan has produced a
    /// chunk covering exactly its requested sub-range
    /// (`within_off .. within_off + within_len`, page-relative).
    fn fetch_publish_serve(
        &self,
        file: &SourceFile,
        plans: &mut [PagePlan],
        source: &dyn RemoteSource,
        root: SpanId,
    ) -> Result<ServedPages> {
        // Owned latches must be released even if this read errors or
        // panics, or waiters would block forever.
        let mut cleanup = LatchCleanup {
            cache: self,
            file,
            pending: Vec::new(),
        };
        for (pos, plan) in plans.iter().enumerate() {
            if let PageClass::Owner { latch } = &plan.class {
                cleanup.pending.push((pos, plan.id, Arc::clone(latch)));
            }
        }

        // Stage 2: coalesce owned misses into runs and fetch them (plus any
        // admission bypasses) concurrently.
        let mut plan_span = self.tracer.child(root, "plan_fetches");
        let fetches = self.plan_fetches(plans);
        plan_span.annotate("ranges", fetches.len());
        plan_span.finish();
        let mut fetch_span = self.tracer.child(root, "remote_fetch");
        let mut fetched = self.execute_fetches(file, &fetches, source, fetch_span.id());
        if fetch_span.is_recording() {
            fetch_span.annotate("ranges", fetches.len());
            fetch_span.annotate(
                "bytes",
                fetched
                    .iter()
                    .filter_map(|r| r.as_ref().ok())
                    .map(|b| b.len() as u64)
                    .sum::<u64>(),
            );
        }
        fetch_span.finish();

        // [`Error`] is not `Clone`: keep the first failure for the caller,
        // leaving a stringified copy in the slot for latch publication.
        let mut first_error: Option<Error> = None;
        for slot in fetched.iter_mut() {
            if first_error.is_some() {
                break;
            }
            if slot.is_ok() {
                continue;
            }
            let msg = slot
                .as_ref()
                .err()
                .map(|e| e.to_string())
                .unwrap_or_default();
            first_error = Some(std::mem::replace(slot, Err(Error::Other(msg))).unwrap_err());
        }

        // Stage 3: publish owned pages — cache them and release the latches
        // before any waiting below, so two readers that own pages of each
        // other's requests cannot deadlock.
        let publish_span = self.tracer.child(root, "publish");
        let mut chunks: Vec<Option<Bytes>> = plans.iter().map(|_| None).collect();
        // Publish in ascending page order (pending was built ascending, so
        // pop from a reversed list): insertion order is what recency-based
        // eviction policies see.
        cleanup.pending.reverse();
        while let Some(&(pos, id, ref latch)) = cleanup.pending.last() {
            let latch = Arc::clone(latch);
            let plan = &plans[pos];
            let slot = plan.slot.expect("owner pages are planned a fetch slot");
            let outcome = match &fetched[slot] {
                Ok(bytes) => {
                    let a = (plan.off_in_slot as usize).min(bytes.len());
                    let b = ((plan.off_in_slot + plan.page_len) as usize).min(bytes.len());
                    Ok(bytes.slice(a..b))
                }
                Err(e) => Err(e.to_string()),
            };
            self.finish_fetch(file, id, &latch, &outcome, publish_span.id());
            if let Ok(page) = outcome {
                let a = (plan.within_off as usize).min(page.len());
                let b = ((plan.within_off + plan.within_len) as usize).min(page.len());
                chunks[pos] = Some(page.slice(a..b));
            }
            cleanup.pending.pop();
        }
        publish_span.finish();
        if let Some(e) = first_error {
            return Err(e);
        }

        // Stage 4: serve hits from the local store (I/O outside the locks).
        let serve_span = self.tracer.child(root, "serve");
        for pos in 0..plans.len() {
            if matches!(plans[pos].class, PageClass::Hit { .. }) {
                chunks[pos] = Some(self.serve_hit(file, &plans[pos], source, serve_span.id())?);
            }
        }
        serve_span.finish();

        // Stage 5: collect pages concurrent readers fetched for us, and the
        // bypass slots (those already hold exactly the requested ranges).
        let collect_span = self.tracer.child(root, "collect");
        for (pos, plan) in plans.iter().enumerate() {
            match &plan.class {
                PageClass::Waiter { latch } => {
                    let mut wait_span = self.tracer.child(collect_span.id(), "singleflight_wait");
                    wait_span.annotate("page", plan.id);
                    let page = latch.wait().map_err(|msg| {
                        Error::Other(format!(
                            "concurrent fetch of page {} failed: {msg}",
                            plan.id
                        ))
                    })?;
                    wait_span.finish();
                    let a = (plan.within_off as usize).min(page.len());
                    let b = ((plan.within_off + plan.within_len) as usize).min(page.len());
                    chunks[pos] = Some(page.slice(a..b));
                }
                PageClass::Bypass => {
                    let slot = plan.slot.expect("bypass pages are planned a fetch slot");
                    if let Ok(bytes) = &fetched[slot] {
                        chunks[pos] = Some(bytes.clone());
                    }
                }
                _ => {}
            }
        }
        collect_span.finish();

        let chunks = chunks
            .into_iter()
            .map(|c| c.expect("every classified page produced a chunk"))
            .collect();
        Ok(ServedPages {
            chunks,
            fetched,
            fetches,
        })
    }

    /// Stage 1 for one page, with no I/O while a lock is held.
    ///
    /// The hit path is lock-free in the write sense: an optimistic
    /// [`IndexManager::touch`] classifies a resident page under its index
    /// shard's *read* lock, records recency in per-entry atomics, and
    /// pushes the policy access event into the lock-free ring — no stripe
    /// mutex, no policy mutex, no aggregates lock. Recording the access at
    /// classify (not serve) time keeps the old guarantee: stage 3 of this
    /// very read drains the ring before choosing eviction victims, so it
    /// cannot evict a page we are about to serve. Safety of the optimism:
    /// if the page is evicted between classify and serve, [`Self::serve_hit`]
    /// already degrades to a direct refetch.
    ///
    /// Only misses take the stripe lock, re-check the index (a concurrent
    /// publisher may have landed the page), and consult the single-flight
    /// shard. Lock order everywhere is stripe lock → in-flight map, so a
    /// concurrent publisher (which inserts the page and removes the
    /// in-flight entry under the same stripe lock) is seen either entirely
    /// before or entirely after: a classifier finds the in-flight entry or
    /// the cached page, never neither.
    fn classify_page(&self, file: &SourceFile, id: PageId, now: u64, parent: SpanId) -> PageClass {
        if let Some((dir, hits)) = self.index.touch(&id, now) {
            if !self.policies[dir].record_access(id) {
                self.hot.policy_events_dropped.inc();
            }
            return PageClass::Hit { dir, hits };
        }
        let _guard = self.stripe(id).lock();
        if let Some((dir, hits)) = self.index.touch(&id, now) {
            // Double-check hit: published between the optimistic probe and
            // the lock. Counted separately — a pure-hit workload must never
            // land here (the hotpath benchmark asserts it stays 0).
            self.hot.hits_slow_path.inc();
            if !self.policies[dir].record_access(id) {
                self.hot.policy_events_dropped.inc();
            }
            return PageClass::Hit { dir, hits };
        }
        self.hot.misses.inc();
        let mut inflight = self.inflight_shard(id).lock();
        if let Some(latch) = inflight.get(&id) {
            // Join the in-flight fetch regardless of admission:
            // the owner is caching this page anyway.
            self.hot.inflight_waits.inc();
            PageClass::Waiter {
                latch: Arc::clone(latch),
            }
        } else {
            let mut admission_span = self.tracer.child(parent, "admission");
            let admitted = self.admission.admit(&file.path, &file.scope, now);
            admission_span.annotate("page", id);
            admission_span.annotate("admitted", admitted);
            admission_span.finish();
            if admitted {
                let latch = Arc::new(InflightFetch::default());
                inflight.insert(id, Arc::clone(&latch));
                PageClass::Owner { latch }
            } else {
                // Non-cache read path (Figure 3): read exactly
                // what was asked.
                self.hot.admission_rejected.inc();
                PageClass::Bypass
            }
        }
    }

    /// Stage 2 planning: assigns every owner and bypass page a remote
    /// request slot. Runs of *file-adjacent* owned pages coalesce into one
    /// ranged request each (when enabled); a bypass always gets its own
    /// exact-range slot. The page-vs-request delta of owner runs is the
    /// read amplification the §7 page-size trade-off discusses.
    ///
    /// Plans must be in ascending `page_start` order. One fragment produces
    /// consecutive pages, so every owner follows on the previous run's end;
    /// several may leave gaps between fragments, which close the open run —
    /// coalescing never bridges bytes nobody asked for.
    fn plan_fetches(&self, plans: &mut [PagePlan]) -> Vec<(u64, u64)> {
        let coalesce = self.config.coalesce_fetches;
        let mut fetches: Vec<(u64, u64)> = Vec::new();
        let mut run_pages = 0u64;
        // Absolute file offset where the open owner run ends.
        let mut run_end = 0u64;
        for plan in plans.iter_mut() {
            match plan.class {
                PageClass::Owner { .. } => {
                    if coalesce && run_pages > 0 && plan.page_start == run_end {
                        let slot = fetches.len() - 1;
                        plan.slot = Some(slot);
                        plan.off_in_slot = fetches[slot].1;
                        fetches[slot].1 += plan.page_len;
                        run_pages += 1;
                        run_end += plan.page_len;
                    } else {
                        self.close_run(&fetches, run_pages);
                        plan.slot = Some(fetches.len());
                        fetches.push((plan.page_start, plan.page_len));
                        run_pages = 1;
                        run_end = plan.page_start + plan.page_len;
                    }
                }
                PageClass::Bypass => {
                    self.close_run(&fetches, run_pages);
                    run_pages = 0;
                    plan.slot = Some(fetches.len());
                    fetches.push((plan.page_start + plan.within_off, plan.within_len));
                }
                PageClass::Hit { .. } | PageClass::Waiter { .. } => {
                    self.close_run(&fetches, run_pages);
                    run_pages = 0;
                }
            }
        }
        self.close_run(&fetches, run_pages);
        fetches
    }

    /// Records the metrics of a completed owner run (the last slot pushed).
    fn close_run(&self, fetches: &[(u64, u64)], run_pages: u64) {
        if run_pages == 0 {
            return;
        }
        let (_, len) = fetches[fetches.len() - 1];
        self.hot.fetch_batch_bytes.record(len);
        if run_pages > 1 {
            self.hot.coalesced_pages.add(run_pages - 1);
        }
    }

    /// Stage 2 execution: issues the planned remote requests with at most
    /// [`max_concurrent_fetches`](CacheConfig::max_concurrent_fetches)
    /// workers, each batching a contiguous share of the slots into one
    /// [`RemoteSource::read_ranges`] call. Returns one result per slot.
    fn execute_fetches(
        &self,
        file: &SourceFile,
        fetches: &[(u64, u64)],
        source: &dyn RemoteSource,
        parent: SpanId,
    ) -> Vec<Result<Bytes>> {
        if fetches.is_empty() {
            return Vec::new();
        }
        let workers = self.config.max_concurrent_fetches.max(1).min(fetches.len());
        self.metrics.gauge("fetch.parallelism").set(workers as i64);
        let path = file.path.as_str();
        // Per-thread timestamps of concurrent chunks are only deterministic
        // when the tracer explicitly allows them (see the trace module's
        // determinism contract); otherwise every chunk reports the issuing
        // thread's fetch window.
        let per_thread = self.tracer.concurrent_timing();
        let now = || self.tracer.now_nanos().unwrap_or(0);
        let window_start = now();
        // Slot count, fetch outcome, and timing interval of one worker chunk.
        type FetchedChunk = (usize, Result<Vec<Bytes>>, (u64, u64));
        let chunk_results: Vec<FetchedChunk> = match &self.fetch_pool {
            Some(pool) if workers > 1 => {
                // Contiguous chunks, sized as evenly as possible; each runs
                // as one `read_ranges` call on the persistent fetch pool.
                let base = fetches.len() / workers;
                let extra = fetches.len() % workers;
                let mut bounds = Vec::with_capacity(workers);
                let mut start = 0;
                for w in 0..workers {
                    let size = base + usize::from(w < extra);
                    bounds.push((start, start + size));
                    start += size;
                }
                type ChunkSlot = Mutex<Option<(Result<Vec<Bytes>>, (u64, u64))>>;
                let results: Vec<ChunkSlot> = bounds.iter().map(|_| Mutex::new(None)).collect();
                let now = &now;
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = bounds
                    .iter()
                    .enumerate()
                    .map(|(i, &(a, b))| {
                        let slot = &results[i];
                        Box::new(move || {
                            let t0 = if per_thread { now() } else { 0 };
                            let result = source.read_ranges(path, &fetches[a..b]);
                            let t1 = if per_thread { now() } else { 0 };
                            *slot.lock() = Some((result, (t0, t1)));
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                pool.run_scoped(jobs);
                let window = (window_start, now());
                bounds
                    .iter()
                    .zip(results)
                    .map(|(&(a, b), slot)| {
                        let (result, interval) = slot.into_inner().unwrap_or_else(|| {
                            (Err(Error::Other("fetch worker panicked".into())), (0, 0))
                        });
                        (b - a, result, if per_thread { interval } else { window })
                    })
                    .collect()
            }
            _ => {
                let result = source.read_ranges(path, fetches);
                vec![(fetches.len(), result, (window_start, now()))]
            }
        };
        // Flatten chunk responses into per-slot results; a failed chunk
        // fails each of its slots.
        let mut out: Vec<Result<Bytes>> = Vec::with_capacity(fetches.len());
        let mut slot_intervals: Vec<(u64, u64)> = Vec::new();
        for (want, result, interval) in chunk_results {
            for _ in 0..want {
                slot_intervals.push(interval);
            }
            match result {
                Ok(buffers) if buffers.len() == want => {
                    for bytes in buffers {
                        self.hot.remote_requests.inc();
                        self.hot.bytes_from_remote.add(bytes.len() as u64);
                        // Ranges are pre-clamped to the file length, so an
                        // honest remote returns exactly the bytes asked for.
                        // A short buffer must fail the slot here — cached
                        // truncated, it would be served as wrong data.
                        let expected = fetches[out.len()].1;
                        if bytes.len() as u64 != expected {
                            out.push(Err(Error::Decode(format!(
                                "remote returned {} bytes for a {expected}-byte range",
                                bytes.len()
                            ))));
                        } else {
                            out.push(Ok(bytes));
                        }
                    }
                }
                Ok(buffers) => {
                    for _ in 0..want {
                        out.push(Err(Error::Other(format!(
                            "read_ranges returned {} buffers for {want} ranges",
                            buffers.len()
                        ))));
                    }
                }
                Err(e) => {
                    let msg = e.to_string();
                    out.push(Err(e));
                    for _ in 1..want {
                        out.push(Err(Error::Other(msg.clone())));
                    }
                }
            }
        }
        if self.tracer.is_enabled() {
            // One child span per coalesced range, timed by the chunk (the
            // `read_ranges` call on the wire) that carried it.
            for (slot, &(off, len)) in fetches.iter().enumerate() {
                let (t0, t1) = slot_intervals[slot];
                let status = match &out[slot] {
                    Ok(_) => "ok".to_string(),
                    Err(e) => e.kind().to_string(),
                };
                self.tracer.record_interval(
                    parent,
                    "fetch_range",
                    t0,
                    t1,
                    vec![
                        ("offset", off.to_string()),
                        ("len", len.to_string()),
                        ("status", status),
                    ],
                );
            }
        }
        out
    }

    /// Stage 3 for one owned page: caches the fetched page (re-taking its
    /// stripe lock just for the insert), removes the in-flight entry while
    /// that lock is still held (see [`Self::classify_page`] for why), then
    /// releases the latch.
    fn finish_fetch(
        &self,
        file: &SourceFile,
        id: PageId,
        latch: &InflightFetch,
        outcome: &std::result::Result<Bytes, String>,
        parent: SpanId,
    ) {
        {
            let _guard = self.stripe(id).lock();
            let mut cached = false;
            if let Ok(page) = outcome {
                match self.put_page_locked(file, id, page, parent) {
                    Ok(()) => cached = true,
                    Err(e) => {
                        // Caching failed (quota, space, store error): the
                        // read and its waiters are still served from the
                        // fetched bytes.
                        self.metrics.record_error("put", e.kind());
                    }
                }
            }
            if !cached {
                // Admission granted this owner a slot at classify time but
                // no page landed; return the slot if the scope stayed empty.
                self.release_admission_if_vacant(&file.scope);
            }
            self.inflight_shard(id).lock().remove(&id);
        }
        latch.publish(outcome.clone());
    }

    /// Serves a page classified as a hit. Runs without the stripe lock; if
    /// the page vanished or the store failed, degrades to the appropriate
    /// §8 fallback.
    fn serve_hit(
        &self,
        file: &SourceFile,
        plan: &PagePlan,
        source: &dyn RemoteSource,
        parent: SpanId,
    ) -> Result<Bytes> {
        let id = plan.id;
        let Some(info) = self.index.get(&id) else {
            // Evicted since classification: refetch.
            return self.fetch_page_direct(file, plan, source, parent);
        };
        let mem_hit = Some(info.dir) == self.mem_dir;
        // Second-touch promotion: a one-off SSD hit reads just the range it
        // asked for; the page's second hit since it entered SSD moves it up
        // into memory, which needs the whole page — read it once and serve
        // the requested slice from the same buffer (no second I/O, no extra
        // copy). A count the classify took in another directory (the page
        // moved since) is not this directory's count.
        let second_touch = match plan.class {
            PageClass::Hit { dir, hits } => dir == info.dir && hits >= PROMOTE_ON_HIT,
            _ => false,
        };
        let promote = second_touch
            && !mem_hit
            && self.mem_dir.is_some()
            && info.size <= self.memory_capacity();
        let (read_off, read_len) = if promote {
            (0, info.size)
        } else {
            (plan.within_off, plan.within_len)
        };
        let mut read_span = self
            .tracer
            .child(parent, if mem_hit { "mem_read" } else { "ssd_read" });
        read_span.annotate("page", id);
        let got = self.store_get(info.dir, id, read_off, read_len);
        if read_span.is_recording() {
            match &got {
                Ok(bytes) => read_span.annotate("bytes", bytes.len()),
                Err(e) => read_span.annotate("status", e.kind()),
            }
        }
        read_span.finish();
        match got {
            Ok(bytes) => {
                // The policy access was recorded at classification time.
                self.hot.hits.inc();
                if mem_hit {
                    self.hot.mem_hits.inc();
                }
                let served = if promote {
                    self.promote_to_mem(&info, &bytes, parent);
                    let start = (plan.within_off as usize).min(bytes.len());
                    let end = ((plan.within_off + plan.within_len) as usize).min(bytes.len());
                    bytes.slice(start..end)
                } else {
                    bytes
                };
                self.hot.bytes_from_cache.add(served.len() as u64);
                Ok(served)
            }
            Err(Error::Timeout { .. }) => {
                // §8 "File read hanging": fall back to remote, keeping the
                // cached page for future reads.
                self.metrics.record_error("get", "timeout");
                self.hot.fallbacks_timeout.inc();
                let mut fallback_span = self.tracer.child(parent, "remote_fallback");
                fallback_span.annotate("reason", "timeout");
                fallback_span.annotate("page", id);
                let abs = plan.page_start + plan.within_off;
                self.remote_exact(file, abs, plan.within_len, source)
            }
            Err(e @ Error::Corrupted(_)) => {
                // §8 "Corrupted files": evict early and refetch.
                self.metrics.record_error("get", e.kind());
                self.evict_page(&id, "corrupt");
                self.fetch_page_direct(file, plan, source, parent)
            }
            Err(Error::NotFound(_)) => {
                // Either the store lost the page (external cleanup), or a
                // concurrent tier move relocated it between our index
                // snapshot and the store read. If it moved, serve from its
                // new home; only repair the index when the bytes are gone.
                if let Some(cur) = self.index.get(&id) {
                    if cur.dir != info.dir {
                        if let Ok(bytes) =
                            self.store_get(cur.dir, id, plan.within_off, plan.within_len)
                        {
                            self.hot.hits.inc();
                            if Some(cur.dir) == self.mem_dir {
                                self.hot.mem_hits.inc();
                            }
                            self.hot.bytes_from_cache.add(bytes.len() as u64);
                            return Ok(bytes);
                        }
                    }
                }
                self.drop_from_index(&id);
                self.fetch_page_direct(file, plan, source, parent)
            }
            Err(e) => {
                self.metrics.record_error("get", e.kind());
                self.evict_page(&id, "error");
                self.fetch_page_direct(file, plan, source, parent)
            }
        }
    }

    /// Fetches one page read-through without the single-flight machinery:
    /// the rare repair path when a classified hit degrades (eviction race,
    /// corruption, lost page).
    fn fetch_page_direct(
        &self,
        file: &SourceFile,
        plan: &PagePlan,
        source: &dyn RemoteSource,
        parent: SpanId,
    ) -> Result<Bytes> {
        let mut direct_span = self.tracer.child(parent, "remote_fallback");
        direct_span.annotate("reason", "refetch");
        direct_span.annotate("page", plan.id);
        self.hot.misses.inc();
        if !self.admission.admit(&file.path, &file.scope, self.now_ms()) {
            self.hot.admission_rejected.inc();
            let abs = plan.page_start + plan.within_off;
            return self.remote_exact(file, abs, plan.within_len, source);
        }
        // Never cache a short page (see execute_fetches).
        let data = match self.remote_exact(file, plan.page_start, plan.page_len, source) {
            Ok(data) => data,
            Err(e) => {
                self.release_admission_if_vacant(&file.scope);
                return Err(e);
            }
        };
        {
            let _guard = self.stripe(plan.id).lock();
            if let Err(e) = self.put_page_locked(file, plan.id, &data, direct_span.id()) {
                self.metrics.record_error("put", e.kind());
                self.release_admission_if_vacant(&file.scope);
            }
        }
        let start = (plan.within_off as usize).min(data.len());
        let end = ((plan.within_off + plan.within_len) as usize).min(data.len());
        Ok(data.slice(start..end))
    }

    /// One counted remote read of exactly `len` bytes at `offset`. Ranges
    /// are pre-clamped to the file length, so a short buffer is an error:
    /// served or cached, it would be wrong data.
    fn remote_exact(
        &self,
        file: &SourceFile,
        offset: u64,
        len: u64,
        source: &dyn RemoteSource,
    ) -> Result<Bytes> {
        let bytes = source.read(&file.path, offset, len)?;
        self.hot.bytes_from_remote.add(bytes.len() as u64);
        self.hot.remote_requests.inc();
        if bytes.len() as u64 != len {
            return Err(Error::Decode(format!(
                "remote returned {} bytes for a {len}-byte range",
                bytes.len()
            )));
        }
        Ok(bytes)
    }

    /// Local store read, with the configured deadline when enforced.
    fn store_get(&self, dir: usize, id: PageId, offset: u64, len: u64) -> Result<Bytes> {
        let store = &self.stores[dir];
        if Some(dir) == self.mem_dir {
            // DRAM cannot hang like a failing disk: slice the frame inline
            // (zero-copy) instead of paying an io-pool dispatch + deadline.
            return store.get(id, offset, len);
        }
        match &self.io_pool {
            None => store.get(id, offset, len),
            Some(pool) => {
                let store = Arc::clone(store);
                pool.run_with_deadline(self.config.read_timeout, move || store.get(id, offset, len))
            }
        }
    }

    /// Explicitly caches one page (used by block-level integrations like the
    /// HDFS local cache, which load whole blocks rather than reading
    /// through).
    pub fn put_page(&self, file: &SourceFile, page_index: u64, data: &[u8]) -> Result<()> {
        let id = PageId::new(file.file_id(), page_index);
        let _guard = self.stripe(id).lock();
        self.put_page_locked(file, id, data, SpanId::NONE)
    }

    /// Reads one cached page range without a remote fallback. Returns
    /// `NotFound` on a miss (used by integrations that manage their own
    /// miss path). Each call is one page read, booked as a hit or — index
    /// miss or store error alike — a miss, so the page-read law holds for
    /// these callers too.
    pub fn get_page(
        &self,
        file: &SourceFile,
        page_index: u64,
        offset: u64,
        len: u64,
    ) -> Result<Bytes> {
        let id = PageId::new(file.file_id(), page_index);
        let _guard = self.stripe(id).lock();
        self.hot.page_reads.inc();
        let Some(info) = self.index.get(&id) else {
            self.hot.misses.inc();
            return Err(Error::NotFound(format!("page {id}")));
        };
        match self.store_get(info.dir, id, offset, len) {
            Ok(bytes) => {
                self.hot.hits.inc();
                self.hot.bytes_from_cache.add(bytes.len() as u64);
                // Recency via the event ring, like the read path: this hit
                // must not serialize on the policy mutex.
                if !self.policies[info.dir].record_access(id) {
                    self.hot.policy_events_dropped.inc();
                }
                Ok(bytes)
            }
            Err(e) => {
                self.hot.misses.inc();
                self.metrics.record_error("get", e.kind());
                if matches!(e, Error::Corrupted(_)) {
                    self.evict_page(&id, "corrupt");
                }
                Err(e)
            }
        }
    }

    /// Whether a page is cached.
    pub fn contains(&self, file: &SourceFile, page_index: u64) -> bool {
        self.index
            .contains(&PageId::new(file.file_id(), page_index))
    }

    /// Inner put; the caller holds the page's stripe lock. Eviction work
    /// done to make room is recorded as an `eviction` child of `parent`
    /// (only when evictions happen).
    fn put_page_locked(
        &self,
        file: &SourceFile,
        id: PageId,
        data: &[u8],
        parent: SpanId,
    ) -> Result<()> {
        let size = data.len() as u64;
        // Publishes land on SSD, never in the DRAM tier: a page enters
        // memory only through its second SSD hit (`serve_hit`), so a
        // one-off miss costs no demotion.
        let Some(dir) = self.allocator.pick(id.file, size) else {
            return Err(Error::InvalidArgument(format!(
                "page of {size} bytes exceeds every cache directory"
            )));
        };
        let mut evict_span: Option<Span> = None;
        let mut evicted = 0u64;

        // Hierarchical quota verification (§5.2), most detailed level first.
        // One put can violate several scopes at once (its partition and its
        // table, say): resolve every violation in turn, failing only when a
        // violated scope has nothing left to evict (no forward progress —
        // the page alone exceeds the quota).
        let mut quota_rounds = 0u64;
        while let Some(v) = self
            .quota
            .first_violation(&file.scope, size, |s| self.index.bytes_of_scope(s))
        {
            evict_span.get_or_insert_with(|| self.tracer.child(parent, "eviction"));
            quota_rounds += 1;
            let freed = self.evict_for_quota(&v, size);
            evicted += freed;
            if freed == 0 {
                finish_eviction_span(evict_span, evicted, quota_rounds);
                return Err(Error::QuotaExceeded(format!(
                    "scope {} cannot admit {size} bytes",
                    v.scope()
                )));
            }
        }

        // Capacity eviction within the target directory.
        if self.index.bytes_of_dir(dir) + size > self.allocator.capacity(dir) {
            evict_span.get_or_insert_with(|| self.tracer.child(parent, "eviction"));
        }
        let room = self.make_room(dir, size);
        evicted += room.unwrap_or_else(|n| n);
        finish_eviction_span(evict_span, evicted, quota_rounds);
        room.map_err(|_| Error::NoSpace)?;
        self.store_put(dir, id, data)?;

        let info = PageInfo::new(id, size, file.scope.clone(), dir, self.now_ms());
        if let Some(old) = self.index.insert(info) {
            // Refresh of an existing page: retire the old copy's policy
            // entry, and delete its stored bytes when the allocator placed
            // the new copy in a different directory (capacity fallback on a
            // size change, or a memory-resident old copy) — otherwise they
            // stay stranded in the old store.
            self.policies[old.dir].lock().on_remove(id);
            if old.dir != dir {
                if let Err(e) = self.stores[old.dir].delete(id) {
                    self.metrics.record_error("delete", e.kind());
                }
            }
            if Some(old.dir) == self.mem_dir {
                // The refresh displaced a memory-resident copy: a counted
                // memory-tier exit.
                self.hot.mem_replaced.inc();
            }
        }
        self.policies[dir].lock().on_insert(id);
        self.hot.puts.inc();
        self.hot.bytes_written.add(size);
        Ok(())
    }

    /// Capacity eviction in SSD directory `dir` until `size` more bytes fit:
    /// `Ok(n)` once they do, `Err(n)` when the policy runs out of victims,
    /// `n` counting the victims drawn.
    fn make_room(&self, dir: usize, size: u64) -> std::result::Result<u64, u64> {
        let capacity = self.allocator.capacity(dir);
        let mut drawn = 0u64;
        while self.index.bytes_of_dir(dir) + size > capacity {
            let victim = self.policies[dir].lock().victim();
            let Some(victim) = victim else {
                return Err(drawn);
            };
            if self.evict_page(&victim, "capacity").is_none() {
                // The policy offered a page the index no longer holds (a
                // racing eviction through another path). Retire the stale
                // entry, or this loop would redraw the same victim forever.
                self.policies[dir].lock().on_remove(victim);
            }
            drawn += 1;
        }
        Ok(drawn)
    }

    /// Writes a page to directory `dir`'s store. §8 "Insufficient disk
    /// capacity": when the device fills up before the configured capacity
    /// (`NoSpace`), evicts at least the page's size early and retries once.
    fn store_put(&self, dir: usize, id: PageId, data: &[u8]) -> Result<()> {
        match self.stores[dir].put(id, data) {
            Err(Error::NoSpace) => {}
            done => return done,
        }
        self.metrics.record_error("put", "no_space");
        let want = (data.len() as u64).max(1);
        let mut freed = 0u64;
        while freed < want {
            let victim = self.policies[dir].lock().victim();
            let Some(victim) = victim else { break };
            match self.evict_page(&victim, "no_space") {
                Some(info) => freed += info.size,
                None => {
                    // Stale policy entry (see `make_room`): retire it so the
                    // next draw makes progress.
                    self.policies[dir].lock().on_remove(victim);
                    freed += 1;
                }
            }
        }
        self.stores[dir].put(id, data)
    }

    /// Applies the §5.2 strategy for a quota violation. Victims come from
    /// *one* sorted snapshot of the scope taken up front — the index returns
    /// hash order, and sorting once makes every victim a pure function of
    /// the cache contents (deterministic simulation replays the same
    /// evictions for the same seed) without the per-victim re-list/re-sort
    /// that made large-partition eviction storms O(n² log n). Returns the
    /// number of pages evicted.
    fn evict_for_quota(&self, violation: &QuotaViolation, needed: u64) -> u64 {
        let scope = violation.scope().clone();
        let Some(quota) = self.quota.quota_of(&scope).map(|q| q.as_u64()) else {
            return 0;
        };
        let target = quota.saturating_sub(needed);
        let mut pages = self.index.pages_of_scope(&scope);
        pages.sort_unstable();
        let mut freed = 0u64;
        match violation {
            QuotaViolation::Partition(_) => {
                // Partition-level eviction: remove that partition's pages in
                // ascending id order until the scope fits.
                let mut victims = pages.into_iter();
                while self.index.bytes_of_scope(&scope) > target {
                    let Some(victim) = victims.next() else { break };
                    if self.evict_page(&victim, "quota").is_some() {
                        freed += 1;
                    }
                }
            }
            QuotaViolation::SharedScope(_) => {
                // Table-level sharing: random eviction across partitions, so
                // one greedy partition cannot starve its siblings. Draws pick
                // from the snapshot (removal keeps it sorted, so the draw
                // stays a deterministic function of contents + rng state).
                while self.index.bytes_of_scope(&scope) > target && !pages.is_empty() {
                    let pick = (self.next_rand() % pages.len() as u64) as usize;
                    let victim = pages.remove(pick);
                    if self.evict_page(&victim, "quota").is_some() {
                        freed += 1;
                    }
                }
            }
        }
        freed
    }

    /// Removes a page from the index, its policy, and its store. Returns the
    /// page's info if it was present.
    fn evict_page(&self, id: &PageId, cause: &str) -> Option<PageInfo> {
        let info = self.index.remove(id)?;
        self.policies[info.dir].lock().on_remove(*id);
        if let Err(e) = self.stores[info.dir].delete(*id) {
            self.metrics.record_error("delete", e.kind());
        }
        self.metrics.counter(&format!("evictions.{cause}")).inc();
        if Some(info.dir) == self.mem_dir {
            // A counted memory-tier exit: the conservation oracle balances
            // these against promotions.
            self.hot.mem_evictions.inc();
        }
        Some(info)
    }

    /// Removes a page from the index and policy only (store already lost
    /// it). Verifies under the page's stripe lock that the store really
    /// lacks the bytes — a concurrent tier move explains a transient
    /// `NotFound` without any data having been lost, and dropping the entry
    /// then would strand the moved copy in its new store. Callers hold no
    /// stripe lock.
    fn drop_from_index(&self, id: &PageId) {
        let _guard = self.stripe(*id).lock();
        if let Some(info) = self.index.get(id) {
            if self.stores[info.dir].contains(*id) {
                return; // raced a tier move: the page is real again
            }
            self.index.remove(id);
            self.policies[info.dir].lock().on_remove(*id);
            if Some(info.dir) == self.mem_dir {
                self.hot.mem_evictions.inc();
            }
        }
    }

    /// Index directory of the DRAM tier, when one is mounted.
    pub fn memory_dir(&self) -> Option<usize> {
        self.mem_dir
    }

    /// The DRAM tier store, when one is mounted (frame introspection,
    /// pin/unpin, corruption hooks for tests).
    pub fn memory_tier(&self) -> Option<&Arc<MemTierStore>> {
        self.mem_store.as_ref()
    }

    /// Current DRAM-tier byte capacity (zero when no tier is mounted).
    pub fn memory_capacity(&self) -> u64 {
        self.mem_capacity.load(Ordering::Relaxed)
    }

    /// Pins a memory-resident page against demotion and pressure eviction.
    /// Returns `false` when no tier is mounted or the page is not resident
    /// in memory. Pins nest; balance each with [`Self::unpin_page`].
    pub fn pin_page(&self, file: &SourceFile, page_index: u64) -> bool {
        let id = PageId::new(file.file_id(), page_index);
        self.mem_store.as_ref().is_some_and(|s| s.pin(id))
    }

    /// Releases one pin taken by [`Self::pin_page`].
    pub fn unpin_page(&self, file: &SourceFile, page_index: u64) -> bool {
        let id = PageId::new(file.file_id(), page_index);
        self.mem_store.as_ref().is_some_and(|s| s.unpin(id))
    }

    /// Adjusts the DRAM tier's byte capacity at runtime (no-op without a
    /// mounted tier). Shrinking demotes resident frames to SSD until the
    /// tier fits; a frame whose demotion fails (every SSD directory refuses
    /// the bytes) is evicted outright — a counted, remote-backed exit,
    /// never a silent drop. Pinned frames stay resident: pins outrank
    /// pressure, so a capacity smaller than the pinned set is honoured only
    /// once those pins release.
    pub fn set_memory_capacity(&self, bytes: u64) {
        let Some(mem) = self.mem_dir else { return };
        self.mem_capacity.store(bytes, Ordering::Relaxed);
        // First pass: demote down to the new capacity.
        self.shrink_mem(mem, bytes, |victim| self.demote_page(victim, SpanId::NONE));
        // Fallback pass: demotion could not free enough (SSD full beyond
        // eviction, or pinned frames in the victim stream) — evict what
        // remains unpinned so the over-capacity invariant holds.
        self.shrink_mem(mem, bytes, |victim| {
            let _guard = self.stripe(*victim).lock();
            if let Err(outcome) = self.mem_victim(victim, mem) {
                return outcome;
            }
            self.evict_page(victim, "mem_pressure");
            DemoteOutcome::Freed
        });
    }

    /// Passes memory-tier victims to `exit` (demotion, or eviction under
    /// pressure) until the tier holds at most `target` bytes. Must be called
    /// while holding **no** stripe lock: `exit` takes the victim's stripe,
    /// and stripe locks never nest. Stops early when nothing more can be
    /// freed: a full lap found only pinned frames, or `exit` failed (SSD
    /// refuses the bytes). Only promotion and [`Self::set_memory_capacity`]
    /// shrink the tier: publishes land on SSD and never make room here.
    fn shrink_mem(&self, mem: usize, target: u64, exit: impl Fn(&PageId) -> DemoteOutcome) {
        let mut pinned_skips = 0usize;
        while self.index.bytes_of_dir(mem) > target {
            let victim = self.policies[mem].lock().victim();
            let Some(victim) = victim else { return };
            // `exit` retires stale entries and recycles pinned ones itself
            // (`mem_victim`), under the victim's stripe lock — doing it here
            // would race a concurrent promotion re-inserting the same page.
            match exit(&victim) {
                DemoteOutcome::Freed | DemoteOutcome::Stale => pinned_skips = 0,
                DemoteOutcome::Pinned => {
                    pinned_skips += 1;
                    if pinned_skips >= self.policies[mem].lock().len() {
                        return;
                    }
                }
                DemoteOutcome::Failed => return,
            }
        }
    }

    /// The checks every memory victim passes first, under its stripe lock.
    /// A victim no longer in memory (it raced another exit or move) has its
    /// stale policy entry retired: `Stale`. A pinned one is recycled to
    /// most-recently-used so the scan moves on: `Pinned`. Both are safe
    /// only under the stripe — a concurrent promotion of this page, which
    /// re-inserts the policy entry, needs the same stripe, so neither can
    /// clobber a fresh insert. Otherwise returns the victim's index entry.
    fn mem_victim(&self, id: &PageId, mem: usize) -> std::result::Result<PageInfo, DemoteOutcome> {
        let info = match self.index.get(id) {
            Some(info) if info.dir == mem => info,
            _ => {
                self.policies[mem].lock().on_remove(*id);
                return Err(DemoteOutcome::Stale);
            }
        };
        if self.mem_store.as_ref().is_some_and(|s| s.is_pinned(*id)) {
            let mut guard = self.policies[mem].lock();
            guard.on_remove(*id);
            guard.on_insert(*id);
            return Err(DemoteOutcome::Pinned);
        }
        Ok(info)
    }

    /// Moves one memory-resident page down to SSD — the "demotion, not
    /// eviction" half of the three-tier contract: under pressure a frame's
    /// bytes stay in the hierarchy, one level down. Takes the victim's
    /// stripe lock (callers hold none). A frame that fails its tier-exit
    /// checksum is evicted instead (counted): corrupt DRAM bytes must not
    /// land on SSD wearing a fresh trailer.
    fn demote_page(&self, id: &PageId, parent: SpanId) -> DemoteOutcome {
        let (Some(mem), Some(mem_store)) = (self.mem_dir, self.mem_store.as_ref()) else {
            return DemoteOutcome::Failed;
        };
        let _guard = self.stripe(*id).lock();
        let info = match self.mem_victim(id, mem) {
            Ok(info) => info,
            Err(outcome) => return outcome,
        };
        let data = match mem_store.verified_full(*id) {
            Ok(data) => data,
            Err(e) => {
                // Checksum mismatch (or the frame vanished): a counted exit
                // through eviction — capacity is restored either way.
                self.metrics.record_error("demote", e.kind());
                self.evict_page(id, "corrupt");
                return DemoteOutcome::Freed;
            }
        };
        let Some(dir) = self.allocator.pick(id.file, info.size) else {
            return DemoteOutcome::Failed;
        };
        let mut span = self.tracer.child(parent, "demote");
        span.annotate("page", *id);
        // Make room on the target SSD directory — the same capacity loop a
        // put runs. SSD victims evicted here hold no stripe lock of their
        // own, so no second stripe is ever taken.
        if self.make_room(dir, info.size).is_err() {
            span.annotate("status", "no_victim");
            return DemoteOutcome::Failed;
        }
        if let Err(e) = self.store_put(dir, *id, &data) {
            self.metrics.record_error("demote", e.kind());
            span.annotate("status", e.kind());
            return DemoteOutcome::Failed;
        }
        // Keep `created_ms`: a page's TTL clock does not reset on a tier
        // move — only genuinely new bytes restart the privacy countdown.
        let new_info = PageInfo::new(*id, info.size, info.scope.clone(), dir, info.created_ms);
        if let Some(old) = self.index.insert(new_info) {
            self.policies[old.dir].lock().on_remove(*id);
        }
        self.policies[dir].lock().on_insert(*id);
        if let Err(e) = mem_store.delete(*id) {
            self.metrics.record_error("delete", e.kind());
        }
        self.hot.mem_demotions.inc();
        self.hot.mem_bytes_demoted.add(info.size);
        span.annotate("to_dir", dir);
        span.finish();
        DemoteOutcome::Freed
    }

    /// Moves a just-served SSD-resident page up into the DRAM tier on its
    /// second SSD hit (the mirror of [`Self::demote_page`], and the tier's
    /// only way in). `data` is the page's freshly read full payload; the
    /// caller holds no stripe lock. Best-effort: any
    /// conflict (raced refresh, no room after demotion) leaves the page
    /// where it is.
    fn promote_to_mem(&self, info: &PageInfo, data: &Bytes, parent: SpanId) {
        let (Some(mem), Some(mem_store)) = (self.mem_dir, self.mem_store.as_ref()) else {
            return;
        };
        if data.len() as u64 != info.size {
            return; // short read: never promote a partial page
        }
        let Some(room) = self.memory_capacity().checked_sub(info.size) else {
            return; // can never fit: the page stays on SSD
        };
        self.shrink_mem(mem, room, |victim| self.demote_page(victim, parent));
        if self.index.bytes_of_dir(mem) > room {
            return; // could not make room (pinned frames, demotion failure)
        }
        let id = info.id;
        let _guard = self.stripe(id).lock();
        // Re-check under the stripe: a concurrent refresh, eviction, or
        // another promotion may have changed the page since it was served.
        let Some(cur) = self.index.get(&id) else {
            return;
        };
        if cur.dir != info.dir || cur.size != info.size {
            return;
        }
        let mut span = self.tracer.child(parent, "promote");
        span.annotate("page", id);
        if let Err(e) = mem_store.put(id, data) {
            self.metrics.record_error("promote", e.kind());
            span.annotate("status", e.kind());
            span.finish();
            return;
        }
        // Keep `created_ms` (see demote_page): TTL survives tier moves.
        let new_info = PageInfo::new(id, cur.size, cur.scope.clone(), mem, cur.created_ms);
        if let Some(old) = self.index.insert(new_info) {
            self.policies[old.dir].lock().on_remove(id);
            // Exclusive hierarchy: the SSD copy moves up, it is not
            // mirrored — delete the lower copy.
            if let Err(e) = self.stores[old.dir].delete(id) {
                self.metrics.record_error("delete", e.kind());
            }
        }
        self.policies[mem].lock().on_insert(id);
        self.hot.mem_promotions.inc();
        self.hot.mem_bytes_promoted.add(info.size);
        span.annotate("from_dir", info.dir);
        span.finish();
    }

    /// Reclaims an admission slot consumed by a failed insert: `admit()` is
    /// charged at classify time, so when the page never lands and its
    /// partition holds no pages, the ledger emits no exit event and the slot
    /// would leak. Harmless if a concurrent insert races us — the partition
    /// simply re-admits on its next access.
    fn release_admission_if_vacant(&self, scope: &CacheScope) {
        if matches!(scope, CacheScope::Partition { .. })
            && self.index.ledger().usage(scope).pages == 0
        {
            self.admission.on_scope_exit(scope);
        }
    }

    /// Deletes every cached page of a file (e.g. on HDFS block delete,
    /// §6.2.3). Returns the number of pages removed.
    pub fn delete_file(&self, file: FileId) -> usize {
        self.evict_all(self.index.pages_of_file(file), "delete")
    }

    /// Deletes every cached page within a scope — the §4.4 bulk operation
    /// ("delete all pages belonging to a certain outdated partition").
    /// Returns the number of pages removed.
    pub fn delete_scope(&self, scope: &CacheScope) -> usize {
        self.evict_all(self.index.pages_of_scope(scope), "delete")
    }

    /// Evicts pages older than the configured TTL (§4.1's "periodic
    /// background job evicts expired data"). Returns the number evicted.
    pub fn evict_expired(&self) -> usize {
        let Some(ttl) = self.config.ttl else { return 0 };
        let cutoff = self.now_ms().saturating_sub(ttl.as_millis() as u64);
        self.evict_all(self.index.pages_created_before(cutoff), "ttl")
    }

    /// Evicts every listed page still cached, in list order; returns how
    /// many were.
    fn evict_all(&self, ids: Vec<PageId>, cause: &str) -> usize {
        ids.iter()
            .filter(|id| self.evict_page(id, cause).is_some())
            .count()
    }

    /// Rebuilds the index from the stores (cold-start recovery, §4.3).
    fn recover(&self) -> Result<()> {
        for (dir, store) in self.stores.iter().enumerate() {
            // Stores scan directories in filesystem order; sort so recovered
            // pages enter the index and eviction policies in one canonical
            // order (restart determinism for the simulation harness).
            let mut pages = store.recover()?;
            pages.sort_unstable_by_key(|&(id, _)| id);
            for (id, size) in pages {
                // Scope information is not persisted per page; recovered
                // pages are tracked globally (quotas re-apply as new traffic
                // re-tags pages).
                let info = PageInfo::new(id, size, CacheScope::Global, dir, self.now_ms());
                self.index.insert(info);
                self.policies[dir].lock().on_insert(id);
                self.metrics.counter("recovered_pages").inc();
            }
        }
        Ok(())
    }

    /// Wipes the entire cache (used by integrations whose invalidation state
    /// was lost, e.g. a DataNode restart, §6.2.3). Returns pages removed.
    pub fn clear(&self) -> usize {
        self.delete_scope(&CacheScope::Global)
    }

    /// Starts the §4.1 periodic background job that evicts expired data:
    /// a thread calling [`Self::evict_expired`] every `interval`. The job
    /// stops when the returned handle is dropped. No-op thread if no TTL is
    /// configured.
    pub fn start_ttl_janitor(self: &Arc<Self>, interval: Duration) -> TtlJanitor {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let cache = Arc::clone(self);
        let signal = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("edgecache-ttl-janitor".into())
            .spawn(move || {
                let (flag, wake) = &*signal;
                let mut stopped = flag.lock();
                while !*stopped {
                    // A timed condvar wait instead of a plain sleep: drop
                    // can interrupt it immediately, so the janitor thread is
                    // always joinable without waiting out an interval.
                    if !wake.wait_for(&mut stopped, interval).timed_out() {
                        continue; // Woken: re-check the flag.
                    }
                    if *stopped {
                        break;
                    }
                    drop(stopped);
                    cache.evict_expired();
                    stopped = flag.lock();
                }
            })
            .expect("spawn ttl janitor");
        TtlJanitor {
            stop,
            thread: Some(thread),
        }
    }
}

/// What became of one attempted demotion (memory → SSD tier move).
enum DemoteOutcome {
    /// The frame left the memory tier through a counted exit: demoted to
    /// SSD, or — for a corrupt frame — evicted.
    Freed,
    /// The policy's victim is no longer memory-resident (racing eviction or
    /// move): retire the stale entry and redraw.
    Stale,
    /// The frame is pinned; pressure must look elsewhere.
    Pinned,
    /// No SSD directory would take the bytes; stop demoting.
    Failed,
}

/// Finishes a lazily created `eviction` span, annotating how many pages were
/// evicted to make room and how many quota-violation rounds were resolved.
/// No-op when no eviction happened.
fn finish_eviction_span(span: Option<Span>, evicted: u64, quota_rounds: u64) {
    if let Some(mut s) = span {
        s.annotate("evicted", evicted);
        s.annotate("quota_rounds", quota_rounds);
        s.finish();
    }
}

/// Handle for the TTL background job; dropping it stops **and joins** the
/// thread. Joining (rather than detaching) matters to embedders that start
/// and stop caches repeatedly in one process — a network server restarting
/// its `CacheManager`, a test loop — where every detached janitor would be
/// a leaked thread still holding an `Arc<CacheManager>`.
pub struct TtlJanitor {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for TtlJanitor {
    fn drop(&mut self) {
        let (flag, wake) = &*self.stop;
        *flag.lock() = true;
        wake.notify_all();
        if let Some(t) = self.thread.take() {
            // The janitor wakes immediately off the condvar (it is never in
            // a plain sleep), so the join is prompt even mid-interval.
            let _ = t.join();
        }
    }
}

/// A tiny I/O pool that runs closures with a deadline, implementing the §8
/// read-hang fallback without blocking request threads indefinitely.
struct IoPool {
    /// `Some` for the pool's whole life; taken (closing the channel) by
    /// `Drop` so the workers' `recv` loops end and the joins below return.
    sender: Option<Sender<Box<dyn FnOnce() + Send>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl IoPool {
    fn new(threads: usize) -> Self {
        let (sender, receiver) = unbounded::<Box<dyn FnOnce() + Send>>();
        let workers = (0..threads)
            .map(|i| {
                let rx = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("edgecache-io-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn io worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
        }
    }

    fn sender(&self) -> &Sender<Box<dyn FnOnce() + Send>> {
        self.sender.as_ref().expect("io pool alive")
    }

    /// Runs a batch of borrowed jobs on the pool and blocks until every one
    /// has finished (or unwound). The barrier is what makes lending stack
    /// borrows to pool workers sound: no job can outlive this call.
    fn run_scoped(&self, jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
        let pending = Arc::new((Mutex::new(jobs.len()), Condvar::new()));
        for job in jobs {
            // SAFETY: both sides of the transmute are the same fat pointer;
            // only the lifetime bound is erased. The wait loop below does
            // not return until this job has run to completion, so every
            // borrow it captures strictly outlives its execution.
            let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
            let pending = Arc::clone(&pending);
            let wrapped: Box<dyn FnOnce() + Send> = Box::new(move || {
                // A panicking remote must not kill the pool worker or
                // strand the barrier; the caller sees the missing result.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                let (count, done) = &*pending;
                *count.lock() -= 1;
                done.notify_all();
                if let Err(payload) = outcome {
                    drop(payload);
                }
            });
            if let Err(SendError(job)) = self.sender().send(wrapped) {
                // Pool shut down: run the job inline.
                job();
            }
        }
        let (count, done) = &*pending;
        let mut left = count.lock();
        while *left > 0 {
            done.wait(&mut left);
        }
    }

    /// Runs `f` on the pool; errors with [`Error::Timeout`] if no result
    /// arrives within `deadline`. The abandoned job finishes in the
    /// background (its result is discarded), mirroring a hung `read_file`.
    fn run_with_deadline<T: Send + 'static>(
        &self,
        deadline: Duration,
        f: impl FnOnce() -> Result<T> + Send + 'static,
    ) -> Result<T> {
        let (tx, rx) = bounded(1);
        self.sender()
            .send(Box::new(move || {
                let _ = tx.send(f());
            }))
            .map_err(|_| Error::Other("io pool shut down".into()))?;
        match rx.recv_timeout(deadline) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => Err(Error::Timeout {
                op: "read_file",
                waited_ms: deadline.as_millis() as u64,
            }),
            Err(RecvTimeoutError::Disconnected) => {
                Err(Error::Other("io worker dropped result".into()))
            }
        }
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        // Close the channel so every worker's `recv` loop ends, then join.
        // Detaching here would leak `io_threads + max_concurrent_fetches`
        // threads per dropped `CacheManager` — fatal for embedders that
        // restart caches in-process (the network server's start/stop path).
        // In-flight jobs run to completion before their worker exits, so a
        // drop during I/O waits for that I/O rather than abandoning it.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests;
