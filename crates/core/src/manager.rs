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
//! Failure handling follows §8, on the same pipeline — a hit that degrades
//! is re-planned and served by one repair round of its fetch stages:
//!
//! * **Read hang** — local reads optionally run on an I/O pool with a
//!   deadline (10 s in production); on timeout the page's range is read
//!   from the remote and the page stays cached.
//! * **Corruption** — a checksum failure (or a short store read) evicts the
//!   page early and refetches it as a miss.
//! * **`No space left on device`** — a `NoSpace` from the store triggers
//!   early eviction (before the configured capacity is reached) and a retry.
//!
//! Modules: `read` holds the pipeline, `tiering` the DRAM/SSD tier moves
//! and capacity loops, `io_pool` the deadline and fetch pools, and
//! `write_behind` the writer that lands read-through misses into a
//! file-backed store after the read has returned.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use edgecache_common::clock::{system_clock, SharedClock};
use edgecache_common::error::{Error, Result};
use edgecache_common::ByteSize;
use edgecache_metrics::trace::{Span, SpanId, Tracer};
use edgecache_metrics::{Counter, Histogram, MetricRegistry};
use edgecache_pagestore::{CacheScope, FileId, MemoryPageStore, PageId, PageInfo, PageStore};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::accessq::AccessQueue;
use crate::admission::{AdmissionPolicy, AdmitAll};
use crate::allocator::Allocator;
use crate::config::CacheConfig;
use crate::eviction::{build_policy, EvictionPolicy};
use crate::index::IndexManager;
use crate::ledger::{ScopeEvent, ScopeEventSink};
use crate::quota::{QuotaManager, QuotaViolation};

mod io_pool;
mod read;
mod tiering;
mod write_behind;

use io_pool::IoPool;
use read::InflightFetch;
use write_behind::WriteBehind;

/// Number of page-lock stripes (power of two).
const LOCK_STRIPES: usize = 1024;

/// Threads in the local-I/O pool that enforces a configured read timeout.
const IO_THREADS: usize = 4;

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
    /// Hits classified under the page lock (the double-check after an
    /// optimistic probe missed). A pure-hit steady state must keep this at
    /// zero — `hit_hammer_32_threads_loses_no_counts` and
    /// `mem_hit_hammer_32_threads_stays_on_the_fast_path` assert exactly
    /// that to prove hits acquire no lock beyond the shard read lock.
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
    /// recovered page is tracked under [`CacheScope::Global`]. A directory
    /// that holds more than its capacity (a failed delete leaves its page on
    /// disk) is evicted back within it.
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
            let store = Arc::new(MemoryPageStore::new());
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
        let io_pool = self.config.read_timeout.map(|_| IoPool::new(IO_THREADS));
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
        // Read-through publishes go behind the read only where a put is
        // file-system I/O; a memory store is filled inline.
        let write_behind = stores
            .iter()
            .any(|s| s.put_is_file_io())
            .then(|| WriteBehind::new(self.config.page_size.as_u64()));
        let state = CacheState {
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
            stripes: (0..LOCK_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            io_pool,
            fetch_pool,
            rng_state: AtomicU64::new(0x853c_49e6_748f_ea9b),
            tracer: self.tracer,
            config: self.config,
            write_behind,
        };
        if self.recover {
            state.recover()?;
        }
        let state = Arc::new(state);
        let writer = state.write_behind.is_some().then(|| {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("edgecache-write-behind".into())
                .spawn(move || write_behind::run_writer(&state))
                .expect("spawn write-behind writer")
        });
        Ok(CacheManager { state, writer })
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
///
/// A handle over the [`CacheState`] it shares with its write-behind writer
/// thread (present when a store's `put` is file I/O); every cache operation
/// is a method of that state, reached through `Deref`. Dropping the handle
/// lands every queued publish and joins the writer.
pub struct CacheManager {
    state: Arc<CacheState>,
    writer: Option<JoinHandle<()>>,
}

impl Deref for CacheManager {
    type Target = CacheState;

    fn deref(&self) -> &CacheState {
        &self.state
    }
}

impl Drop for CacheManager {
    fn drop(&mut self) {
        if let (Some(writer), Some(queue)) = (self.writer.take(), &self.state.write_behind) {
            queue.close();
            // The writer catches a landing's panic itself; a join error
            // here has nothing left to release.
            let _ = writer.join();
        }
    }
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

    /// Starts the §4.1 periodic background job that evicts expired data:
    /// a thread calling [`CacheState::evict_expired`] every `interval`. The
    /// job stops when the returned handle is dropped. No-op thread if no
    /// TTL is configured.
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

/// What a [`CacheManager`] handle shares with its write-behind writer: the
/// index, stores, policies and counters, and the methods that run the cache.
pub struct CacheState {
    config: CacheConfig,
    stores: Vec<Arc<dyn PageStore>>,
    /// The DRAM tier, when mounted: also present in `stores` as the last
    /// directory (`mem_dir`), kept typed here for introspection.
    mem_store: Option<Arc<MemoryPageStore>>,
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
    /// One eviction policy per directory. Directory `d`'s policy lock is
    /// held across every change to `d`'s index membership and the matching
    /// policy change, so the two never drift apart. Lock order: a page
    /// stripe, then a policy lock, then the write-behind queue and the
    /// index locks; no stripe and no second policy lock under a policy
    /// lock.
    policies: Vec<PolicyCell>,
    quota: QuotaManager,
    admission: Arc<dyn AdmissionPolicy>,
    metrics: MetricRegistry,
    /// Pre-resolved handles for per-page-read metric updates.
    hot: HotMetrics,
    clock: SharedClock,
    /// Page locks, striped by page hash. A stripe also holds the
    /// single-flight entries of its pages (those being fetched from the
    /// remote, or queued for write-behind), so one lock guards all of a
    /// page's state. Taken through [`Self::lock_page`]; never two at once.
    stripes: Vec<Mutex<HashMap<PageId, Arc<InflightFetch>>>>,
    io_pool: Option<IoPool>,
    /// Workers for concurrent stage-2 remote fetches (absent when
    /// `max_concurrent_fetches` is 1: fetches then run inline).
    fetch_pool: Option<IoPool>,
    rng_state: AtomicU64,
    tracer: Tracer,
    /// The queue of read-through publishes waiting to land, when a store
    /// writes files (see [`CacheManager`]).
    write_behind: Option<WriteBehind>,
}

impl CacheState {
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

    /// Number of per-page single-flight latches currently registered, a
    /// page queued for write-behind included. An idle cache must report 0
    /// once quiesced — a leaked latch would strand every future reader of
    /// that page (the torture harness asserts this after every operation).
    pub fn inflight_fetches(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
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

    /// Headline statistics. A page queued for write-behind counts as
    /// cached: the queue lock orders this read against its hand-over to
    /// the index, so it is counted exactly once.
    pub fn stats(&self) -> CacheStats {
        let hits = self.hot.hits.get();
        let misses = self.hot.misses.get();
        let total = hits + misses;
        let indexed = || (self.index.len(), self.index.total_bytes());
        let (pages, bytes) = match &self.write_behind {
            Some(queue) => queue.counted(indexed),
            None => indexed(),
        };
        CacheStats {
            pages,
            bytes,
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

    /// Takes page `id`'s lock (its stripe) until the returned value drops.
    fn lock_page(&self, id: PageId) -> PageLock<'_> {
        let stripe = self.stripes[(id.stable_hash() as usize) & (LOCK_STRIPES - 1)].lock();
        PageLock { id, stripe }
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

    /// Explicitly caches one page, with no remote read behind it. The object
    /// layer (`server::object`) publishes each page of a stored value this
    /// way and reads it back through [`Self::read`].
    pub fn put_page(&self, file: &SourceFile, page_index: u64, data: &[u8]) -> Result<()> {
        let mut lock = self.lock_page(PageId::new(file.file_id(), page_index));
        self.put_page_locked(&mut lock, file, data, SpanId::NONE)
    }

    /// Whether a page is cached, a page queued for write-behind included.
    pub fn contains(&self, file: &SourceFile, page_index: u64) -> bool {
        let id = PageId::new(file.file_id(), page_index);
        // Under the page lock a landing is all or nothing: the page is in
        // the index, or still queued — its in-flight entry published (an
        // inline publish removes the entry before publishing).
        let lock = self.lock_page(id);
        self.index.contains(&id) || lock.inflight().is_some_and(|l| l.page().is_some())
    }

    /// Waits until every read-through publish queued before the call has
    /// landed (or failed), so `index()`, `dir_usage()`, the ledger and the
    /// counters show it. Publishes queued after the call do not hold it
    /// up. Returns at once on a manager that publishes inline.
    pub fn quiesce(&self) {
        if let Some(queue) = &self.write_behind {
            queue.quiesce();
        }
    }

    /// Inner put, under the page's lock. Eviction work done to make room
    /// is recorded as an `eviction` child of `parent` (only when evictions
    /// happen).
    fn put_page_locked(
        &self,
        lock: &mut PageLock<'_>,
        file: &SourceFile,
        data: &[u8],
        parent: SpanId,
    ) -> Result<()> {
        let (id, size) = (lock.id, data.len() as u64);
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
        self.store_put(dir, size, |s| s.put(id, data))?;

        let info = PageInfo::new(id, size, file.scope.clone(), dir, self.now_ms());
        let old = self.place(lock, info);
        if old.is_some_and(|old| Some(old.dir) == self.mem_dir) {
            // The refresh displaced a memory-resident copy: a counted
            // memory-tier exit.
            self.hot.mem_replaced.inc();
        }
        self.hot.puts.inc();
        self.hot.bytes_written.add(size);
        Ok(())
    }

    /// Puts `info` in the index, the only way a page enters it. A page
    /// still queued for write-behind is handed over in the same step, under
    /// the queue lock `stats` reads with: it leaves the queue's count and
    /// its in-flight entry goes, so its landing (if this is not it) is
    /// skipped. A replaced entry leaves its policy, and its copy in another
    /// directory (a tier move, a size change that moved directory, a page
    /// recovered from two) is deleted. Returns the replaced entry.
    fn place(&self, lock: &mut PageLock<'_>, info: PageInfo) -> Option<PageInfo> {
        let (id, dir) = (info.id, info.dir);
        let queued = lock.inflight().and_then(|latch| latch.page());
        let mut policy = self.policies[dir].lock();
        let old = match (&self.write_behind, queued) {
            (Some(queue), Some(page)) => {
                lock.take_inflight();
                queue.hand_over(page.len() as u64, || self.index.insert(info))
            }
            _ => self.index.insert(info),
        };
        if old.as_ref().is_some_and(|old| old.dir == dir) {
            policy.on_remove(id);
        }
        policy.on_insert(id);
        drop(policy);
        if let Some(old) = old.as_ref().filter(|old| old.dir != dir) {
            self.policies[old.dir].lock().on_remove(id);
            if let Err(e) = self.stores[old.dir].delete(id) {
                self.metrics.record_error("delete", e.kind());
            }
        }
        old
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
        let info = loop {
            let dir = self.index.dir_of(id)?;
            let mut policy = self.policies[dir].lock();
            if let Some(info) = self.index.remove(id, dir) {
                policy.on_remove(*id);
                break info;
            }
        };
        Some(self.delete_evicted(info, cause))
    }

    /// The store half of an eviction whose index and policy entries are
    /// gone: deletes the page's bytes and counts the eviction.
    fn delete_evicted(&self, info: PageInfo, cause: &str) -> PageInfo {
        let id = &info.id;
        if let Err(e) = self.stores[info.dir].delete(*id) {
            self.metrics.record_error("delete", e.kind());
        }
        self.metrics.counter(&format!("evictions.{cause}")).inc();
        if Some(info.dir) == self.mem_dir {
            // A counted memory-tier exit: the conservation oracle balances
            // these against promotions.
            self.hot.mem_evictions.inc();
        }
        info
    }

    /// Removes a page from the index and policy only (store already lost
    /// it). Verifies under the page's lock that the store really lacks the
    /// bytes — a concurrent tier move explains a transient `NotFound`
    /// without any data having been lost, and dropping the entry then would
    /// strand the moved copy in its new store. Callers hold no page lock.
    fn drop_from_index(&self, id: &PageId) {
        let _lock = self.lock_page(*id);
        if let Some(info) = self.index.get(id) {
            if self.stores[info.dir].contains(*id) {
                return; // raced a tier move: the page is real again
            }
            let mut policy = self.policies[info.dir].lock();
            if self.index.remove(id, info.dir).is_some() {
                policy.on_remove(*id);
                if Some(info.dir) == self.mem_dir {
                    self.hot.mem_evictions.inc();
                }
            }
        }
    }

    /// Index directory of the DRAM tier, when one is mounted.
    pub fn memory_dir(&self) -> Option<usize> {
        self.mem_dir
    }

    /// The DRAM tier store, when one is mounted (frame introspection,
    /// corruption hooks for tests).
    pub fn memory_tier(&self) -> Option<&Arc<MemoryPageStore>> {
        self.mem_store.as_ref()
    }

    /// Current DRAM-tier byte capacity (zero when no tier is mounted).
    pub fn memory_capacity(&self) -> u64 {
        self.mem_capacity.load(Ordering::Relaxed)
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
    /// §6.2.3). Returns the number of pages removed. Like every delete
    /// path, it first waits for queued publishes ([`Self::quiesce`]), so a
    /// read that returned before it cannot bring a page back after it.
    pub fn delete_file(&self, file: FileId) -> usize {
        self.quiesce();
        self.evict_all(self.index.pages_of_file(file), "delete")
    }

    /// Deletes every cached page within a scope — the §4.4 bulk operation
    /// ("delete all pages belonging to a certain outdated partition").
    /// Returns the number of pages removed.
    pub fn delete_scope(&self, scope: &CacheScope) -> usize {
        self.quiesce();
        self.evict_all(self.index.pages_of_scope(scope), "delete")
    }

    /// Evicts pages older than the configured TTL (§4.1's "periodic
    /// background job evicts expired data"). Returns the number evicted.
    pub fn evict_expired(&self) -> usize {
        let Some(ttl) = self.config.ttl else { return 0 };
        self.quiesce();
        let cutoff = self.now_ms().saturating_sub(ttl.as_millis() as u64);
        self.evict_all(self.index.pages_created_before(cutoff), "ttl")
    }

    /// Evicts every listed page still cached, in page order; returns how
    /// many were. Callers list pages in hash-map order, which differs
    /// between runs; sorting keeps which delete meets a fault or crash
    /// point the same in every run. Each under its page lock: a store's
    /// writers of one page must be serialized, and a publish of the page
    /// (inline or landing) may run concurrently.
    fn evict_all(&self, mut ids: Vec<PageId>, cause: &str) -> usize {
        ids.sort_unstable();
        ids.iter()
            .filter(|&&id| {
                let _lock = self.lock_page(id);
                self.evict_page(&id, cause).is_some()
            })
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
                self.place(&mut self.lock_page(id), info);
                self.metrics.counter("recovered_pages").inc();
            }
            // A delete that failed or crashed leaves a page on disk that the
            // capacity no longer counted. The DRAM tier recovers empty.
            if Some(dir) != self.mem_dir {
                let _ = self.make_room(dir, 0);
            }
        }
        Ok(())
    }

    /// Wipes the entire cache (used by integrations whose invalidation state
    /// was lost, e.g. a DataNode restart, §6.2.3). Returns pages removed.
    pub fn clear(&self) -> usize {
        self.delete_scope(&CacheScope::Global)
    }
}

/// A held page lock: the page's id and its stripe, which also holds the
/// page's single-flight entry. Functions that need a page's lock take one,
/// so none of them runs without it.
struct PageLock<'a> {
    id: PageId,
    stripe: MutexGuard<'a, HashMap<PageId, Arc<InflightFetch>>>,
}

impl PageLock<'_> {
    /// The page's in-flight entry, if it is being fetched or queued.
    fn inflight(&self) -> Option<&Arc<InflightFetch>> {
        self.stripe.get(&self.id)
    }

    fn set_inflight(&mut self, latch: Arc<InflightFetch>) {
        self.stripe.insert(self.id, latch);
    }

    fn take_inflight(&mut self) -> Option<Arc<InflightFetch>> {
        self.stripe.remove(&self.id)
    }
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

#[cfg(test)]
mod tests;
