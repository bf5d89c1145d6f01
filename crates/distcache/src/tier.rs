//! The distributed cache tier: routing, bounded replicas, error failover,
//! remote fallback, and node lifecycle (join/leave/crash) with lazy data
//! movement.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use edgecache_common::clock::SharedClock;
use edgecache_common::error::{Error, Result};
use edgecache_common::ring::{ConsistentRing, RingConfig};
use edgecache_core::manager::{RemoteSource, SourceFile};
use edgecache_metrics::{MetricRegistry, Tracer};
use edgecache_pagestore::CacheScope;
use parking_lot::RwLock;

use crate::worker::{CacheWorker, WorkerCacheConfig};

/// Tier configuration.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Number of cache workers at startup (more can join via
    /// [`DistCacheTier::add_worker`]).
    pub workers: usize,
    /// Candidate replicas per file — the paper caps this at two (§7).
    pub max_replicas: usize,
    /// Deliberately warm a key's second candidate after a primary-served
    /// read, so replica failover serves warm hits instead of cold misses.
    /// Off by default: warming costs extra worker work (and an origin fetch
    /// the first time), which only pays off under churn.
    pub replicate_on_read: bool,
    /// Per-worker cache configuration (also used for workers that join
    /// later).
    pub worker: WorkerCacheConfig,
    /// Ring configuration (virtual nodes, lazy-movement timeout).
    pub ring: RingConfig,
}

impl Default for TierConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_replicas: 2,
            replicate_on_read: false,
            worker: WorkerCacheConfig::default(),
            ring: RingConfig::default(),
        }
    }
}

/// Point-in-time tier statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierStats {
    /// Requests served successfully by a cache worker.
    pub served_by_tier: u64,
    /// Requests served successfully by origin (all candidates occupied,
    /// offline, or erroring).
    pub origin_fallbacks: u64,
    /// Requests that failed outright (every candidate *and* origin failed).
    pub failed_reads: u64,
    /// Individual worker serve attempts that returned an error (the read
    /// then failed over to the next candidate or origin).
    pub worker_errors: u64,
    /// Requests that succeeded only after at least one worker error.
    pub failover_reads: u64,
    /// Secondary-replica warm-ups performed by replicate-on-read.
    pub replica_warms: u64,
    /// Total bytes currently cached across workers.
    pub bytes_cached: u64,
}

/// The distributed cache tier.
pub struct DistCacheTier {
    /// Live workers by ring identity. Guarded so nodes can join and leave at
    /// runtime; the ring and this map are updated independently, so the read
    /// path tolerates a candidate that has already left the map.
    workers: RwLock<HashMap<String, Arc<CacheWorker>>>,
    ring: ConsistentRing,
    origin: Arc<dyn RemoteSource + Send + Sync>,
    /// Path → (version, length) resolution for the `RemoteSource` view,
    /// where only a path is available.
    known_files: RwLock<HashMap<String, (u64, u64)>>,
    metrics: MetricRegistry,
    tracer: Tracer,
    max_replicas: usize,
    replicate_on_read: bool,
    /// Config template for workers that join after construction.
    worker_config: WorkerCacheConfig,
    clock: SharedClock,
}

impl DistCacheTier {
    /// Builds the tier over `origin` storage.
    pub fn new(
        config: TierConfig,
        origin: Arc<dyn RemoteSource + Send + Sync>,
        clock: SharedClock,
    ) -> Result<Self> {
        if config.workers == 0 {
            return Err(Error::InvalidArgument(
                "tier needs at least one worker".into(),
            ));
        }
        if config.max_replicas == 0 {
            return Err(Error::InvalidArgument("max_replicas must be ≥ 1".into()));
        }
        let ring = ConsistentRing::new(config.ring.clone(), clock.clone());
        let mut workers = HashMap::new();
        for i in 0..config.workers {
            let name = format!("cw{i}");
            ring.add_node(&name);
            workers.insert(
                name.clone(),
                Arc::new(CacheWorker::new(
                    &name,
                    config.worker.clone(),
                    clock.clone(),
                )?),
            );
        }
        Ok(Self {
            workers: RwLock::new(workers),
            ring,
            origin,
            known_files: RwLock::new(HashMap::new()),
            metrics: MetricRegistry::new("dist-cache-tier"),
            tracer: Tracer::disabled(),
            max_replicas: config.max_replicas,
            replicate_on_read: config.replicate_on_read,
            worker_config: config.worker,
            clock,
        })
    }

    /// Attaches a tracer: each read served by a cache worker records a
    /// `distcache_hop` span. Use the same clock as the tier.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Tier-level metrics.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// The tier's span tracer (disabled unless one was attached).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// A worker by name (introspection).
    pub fn worker(&self, name: &str) -> Option<Arc<CacheWorker>> {
        self.workers.read().get(name).cloned()
    }

    /// All worker names, sorted.
    pub fn worker_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.workers.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Adds a new worker (cluster scale-out) or re-seats an existing one
    /// (restart after [`DistCacheTier::worker_crash`]). New workers start
    /// with an empty cache; their key range warms lazily as reads arrive
    /// (the §7 "lazy data movement" answer to joins as well as leaves).
    pub fn add_worker(&self, name: &str) -> Result<()> {
        {
            let mut workers = self.workers.write();
            if !workers.contains_key(name) {
                let worker = Arc::new(CacheWorker::new(
                    name,
                    self.worker_config.clone(),
                    self.clock.clone(),
                )?);
                workers.insert(name.to_string(), worker);
            }
        }
        // Seat (or revive) the ring node only once the worker is reachable,
        // so a concurrent read routed to the new seat always finds it.
        self.ring.add_node(name);
        self.metrics.counter("worker_joins").inc();
        Ok(())
    }

    /// Decommissions a worker gracefully: its seat leaves the ring
    /// immediately (keys rehash to successors and re-fetch on next read)
    /// and its cache memory is released.
    pub fn remove_worker(&self, name: &str) -> bool {
        self.ring.remove_node(name);
        let removed = self.workers.write().remove(name).is_some();
        if removed {
            self.metrics.counter("worker_leaves").inc();
        }
        removed
    }

    /// Simulates a hard crash: the worker's cached data is lost and its ring
    /// seat is dropped with **no grace period** — the lazy window only makes
    /// sense when the returning node still has its data. The worker stays
    /// known so [`DistCacheTier::add_worker`] can re-seat it (restart with an
    /// empty cache).
    pub fn worker_crash(&self, name: &str) -> bool {
        let Some(worker) = self.worker(name) else {
            return false;
        };
        self.ring.remove_node(name);
        worker.cache().clear();
        self.metrics.counter("worker_crashes").inc();
        true
    }

    /// Marks a worker offline; its ring seat is kept for the lazy window.
    pub fn worker_offline(&self, name: &str) {
        self.ring.mark_offline(name);
    }

    /// Brings a worker back online.
    pub fn worker_online(&self, name: &str) {
        self.ring.mark_online(name);
    }

    /// Removes workers whose lazy grace period has expired: their seats
    /// leave the ring (keys rehash permanently) and their caches are
    /// dropped. Also called from the read path, so expiry needs no
    /// background job.
    pub fn sweep_expired(&self) -> Vec<String> {
        let swept = self.ring.sweep_expired();
        if !swept.is_empty() {
            let mut workers = self.workers.write();
            for name in &swept {
                workers.remove(name);
            }
        }
        swept
    }

    /// Registers a file so the bare-path [`RemoteSource`] view can resolve
    /// its version and length (a catalog would normally provide these).
    pub fn register_file(&self, path: &str, version: u64, length: u64) {
        self.known_files
            .write()
            .insert(path.to_string(), (version, length));
    }

    /// Point-in-time stats.
    pub fn stats(&self) -> TierStats {
        TierStats {
            served_by_tier: self.metrics.counter("served_by_tier").get(),
            origin_fallbacks: self.metrics.counter("origin_fallbacks").get(),
            failed_reads: self.metrics.counter("failed_reads").get(),
            worker_errors: self.metrics.counter("worker_errors").get(),
            failover_reads: self.metrics.counter("failover_reads").get(),
            replica_warms: self.metrics.counter("replica_warms").get(),
            bytes_cached: self
                .workers
                .read()
                .values()
                .map(|w| w.cache().index().total_bytes())
                .sum(),
        }
    }

    /// Reads `len` bytes at `offset` of `file` through the tier: the
    /// one-range case of [`Self::read_multi`].
    pub fn read(&self, file: &SourceFile, offset: u64, len: u64) -> Result<Bytes> {
        let mut parts = self.read_multi(file, &[(offset, len)])?;
        Ok(parts.pop().expect("one buffer per range"))
    }

    /// Reads a batch of ranges of `file` through the tier as ONE hop: the
    /// batch is routed once and occupies one worker request slot, and the
    /// serving worker reads all ranges together through its cache. The
    /// file's replica workers are tried in ring order; a worker that is
    /// occupied, missing, **or errors** fails over to the next candidate;
    /// when every candidate is exhausted the batch goes to origin directly,
    /// bypassing the cache (§7's hybrid fallback), length-guarded per range.
    /// A read only fails when origin itself fails.
    pub fn read_multi(&self, file: &SourceFile, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        if ranges.is_empty() {
            return Ok(Vec::new());
        }
        // Lazy data movement (§7): purge seats whose offline grace period
        // has expired, so their keys rehash to surviving workers.
        self.sweep_expired();
        let candidates = self.ring.candidates(&file.path, self.max_replicas);
        let mut errors = 0u64;
        for (rank, name) in candidates.iter().enumerate() {
            let Some(worker) = self.worker(name) else {
                // The worker left the cluster after the candidate snapshot.
                continue;
            };
            let Some(_guard) = worker.try_acquire() else {
                self.metrics.counter("occupied_probes").inc();
                continue;
            };
            let mut hop = self.tracer.span("distcache_hop");
            if hop.is_recording() {
                hop.annotate("worker", name);
                hop.annotate("path", &file.path);
                if ranges.len() > 1 {
                    hop.annotate("fragments", ranges.len());
                }
                hop.annotate("len", ranges.iter().map(|&(_, l)| l).sum::<u64>());
            }
            match worker.serve(file, ranges, self.origin.as_ref()) {
                Ok(parts) => {
                    self.record_tier_serve(errors);
                    hop.finish();
                    drop(_guard);
                    if self.replicate_on_read && rank == 0 {
                        self.warm_secondary(&candidates, file, ranges);
                    }
                    return Ok(parts);
                }
                Err(e) => {
                    // The headline churn bug used to live here: the first
                    // acquired worker's error was returned verbatim even
                    // with a healthy secondary and origin available.
                    errors += 1;
                    self.metrics.counter("worker_errors").inc();
                    hop.annotate("status", e.kind());
                    hop.finish();
                }
            }
        }
        // Every candidate occupied, missing, offline, or erroring: origin.
        let out = self.read_origin(file, ranges);
        self.record_origin_outcome(&out.as_ref().map(|_| ()), errors);
        out
    }

    /// The origin fallback: one `read` for a single range, one
    /// `read_ranges` for a batch, each range checked against the file
    /// length.
    fn read_origin(&self, file: &SourceFile, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        let chunks = match ranges {
            [(offset, len)] => vec![self.origin.read(&file.path, *offset, *len)?],
            _ => self.origin.read_ranges(&file.path, ranges)?,
        };
        if chunks.len() != ranges.len() {
            return Err(Error::Decode(format!(
                "origin returned {} chunks for a {}-range batch of {}",
                chunks.len(),
                ranges.len(),
                file.path
            )));
        }
        for (&(offset, len), bytes) in ranges.iter().zip(&chunks) {
            Self::check_origin_len(file, offset, len, bytes)?;
        }
        Ok(chunks)
    }

    /// Books a successful worker serve (and the failover that led to it).
    fn record_tier_serve(&self, prior_errors: u64) {
        self.metrics.counter("served_by_tier").inc();
        if prior_errors > 0 {
            self.metrics.counter("failover_reads").inc();
        }
    }

    /// Books the outcome of an origin fallback attempt. Every tier read ends
    /// in exactly one of `served_by_tier`, `origin_fallbacks`, or
    /// `failed_reads` — the conservation law the simtest oracle checks.
    fn record_origin_outcome(&self, outcome: &std::result::Result<(), &Error>, prior_errors: u64) {
        match outcome {
            Ok(()) => {
                self.metrics.counter("origin_fallbacks").inc();
                if prior_errors > 0 {
                    self.metrics.counter("failover_reads").inc();
                }
            }
            Err(_) => {
                self.metrics.counter("failed_reads").inc();
            }
        }
    }

    /// Replicate-on-read: after a primary-served read, warm the key's second
    /// candidate by reading the same ranges through its cache (a no-op when
    /// already warm). Best-effort — an occupied or failing secondary is
    /// simply skipped; the next read retries.
    fn warm_secondary(&self, candidates: &[String], file: &SourceFile, ranges: &[(u64, u64)]) {
        let Some(name) = candidates.get(1) else {
            return;
        };
        let Some(worker) = self.worker(name) else {
            return;
        };
        let Some(_guard) = worker.try_acquire() else {
            return;
        };
        if worker.serve(file, ranges, self.origin.as_ref()).is_ok() {
            self.metrics.counter("replica_warms").inc();
        }
    }

    /// The fallback bypasses every cache-layer checksum, so the only guard
    /// against a truncated origin response is the registered file length:
    /// anything but an exact (EOF-clamped) range is an error.
    fn check_origin_len(file: &SourceFile, offset: u64, len: u64, bytes: &Bytes) -> Result<()> {
        let want = offset.saturating_add(len).min(file.length) - offset.min(file.length);
        if bytes.len() as u64 != want {
            return Err(Error::Decode(format!(
                "origin returned {} bytes for a {want}-byte range of {}",
                bytes.len(),
                file.path
            )));
        }
        Ok(())
    }
}

/// The tier is itself a [`RemoteSource`], so compute-layer caches can stack
/// on top (Figure 6's full three-layer architecture). Files must be
/// registered via [`DistCacheTier::register_file`] (or the read falls back
/// to origin directly).
impl RemoteSource for DistCacheTier {
    fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let known = self.known_files.read().get(path).copied();
        match known {
            Some((version, length)) => {
                let file = SourceFile::new(path, version, length, CacheScope::Global);
                DistCacheTier::read(self, &file, offset, len)
            }
            None => {
                self.metrics.counter("unregistered_reads").inc();
                self.origin.read(path, offset, len)
            }
        }
    }

    /// Batched tier reads: the file is resolved once and the whole batch
    /// (the compute layer's coalesced missing runs) travels as ONE tier hop
    /// — one routing decision, one worker request slot, one vectored read
    /// on the serving worker's cache.
    fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        let known = self.known_files.read().get(path).copied();
        match known {
            Some((version, length)) => {
                let file = SourceFile::new(path, version, length, CacheScope::Global);
                DistCacheTier::read_multi(self, &file, ranges)
            }
            None => {
                self.metrics.counter("unregistered_reads").inc();
                self.origin.read_ranges(path, ranges)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgecache_common::clock::SimClock;
    use edgecache_common::ByteSize;
    use parking_lot::Mutex;
    use std::time::Duration;

    struct CountingOrigin {
        reads: Mutex<u64>,
        fail: Mutex<bool>,
    }

    impl CountingOrigin {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                reads: Mutex::new(0),
                fail: Mutex::new(false),
            })
        }

        fn set_failing(&self, fail: bool) {
            *self.fail.lock() = fail;
        }
    }

    impl RemoteSource for CountingOrigin {
        fn read(&self, p: &str, offset: u64, len: u64) -> Result<Bytes> {
            *self.reads.lock() += 1;
            if *self.fail.lock() {
                return Err(Error::Other(format!("origin down for {p}")));
            }
            Ok(Bytes::from(
                (offset..offset + len)
                    .map(|i| (i % 253) as u8)
                    .collect::<Vec<u8>>(),
            ))
        }
    }

    fn tier(workers: usize, max_inflight: u32) -> (DistCacheTier, Arc<CountingOrigin>, SimClock) {
        tier_with(workers, max_inflight, false)
    }

    fn tier_with(
        workers: usize,
        max_inflight: u32,
        replicate_on_read: bool,
    ) -> (DistCacheTier, Arc<CountingOrigin>, SimClock) {
        let clock = SimClock::new();
        let origin = CountingOrigin::new();
        let tier = DistCacheTier::new(
            TierConfig {
                workers,
                max_replicas: 2,
                replicate_on_read,
                worker: WorkerCacheConfig {
                    page_size: ByteSize::kib(4),
                    max_inflight,
                    ..Default::default()
                },
                ring: RingConfig::default(),
            },
            origin.clone(),
            Arc::new(clock.clone()),
        )
        .unwrap();
        (tier, origin, clock)
    }

    fn file(path: &str) -> SourceFile {
        SourceFile::new(path, 1, 1 << 20, CacheScope::Global)
    }

    #[test]
    fn repeated_reads_are_served_by_one_worker_cache() {
        let (tier, origin, _) = tier(4, 64);
        let f = file("/hot");
        let a = tier.read(&f, 100, 1000).unwrap();
        let b = tier.read(&f, 100, 1000).unwrap();
        assert_eq!(a, b);
        assert_eq!(*origin.reads.lock(), 1, "page fetched once");
        // Exactly one worker holds the file's pages.
        let holders = tier
            .worker_names()
            .iter()
            .filter(|w| !tier.worker(w).unwrap().cache().index().is_empty())
            .count();
        assert_eq!(holders, 1);
        assert_eq!(tier.stats().served_by_tier, 2);
    }

    #[test]
    fn occupied_primary_spills_to_secondary_then_origin() {
        let (tier, origin, _) = tier(3, 1);
        let f = file("/k");
        let (primary, secondary) = {
            let c = tier.ring.candidates(&f.path, 2);
            (c[0].clone(), c[1].clone())
        };
        // Saturate the primary.
        let p = tier.worker(&primary).unwrap();
        let _hold_primary = p.try_acquire().unwrap();
        tier.read(&f, 0, 100).unwrap();
        assert!(
            !tier.worker(&secondary).unwrap().cache().index().is_empty(),
            "secondary served the spill"
        );
        // Saturate both: origin fallback, nothing cached anywhere new.
        let s = tier.worker(&secondary).unwrap();
        let _hold_secondary = s.try_acquire().unwrap();
        let before = *origin.reads.lock();
        tier.read(&f, 0, 100).unwrap();
        assert_eq!(tier.stats().origin_fallbacks, 1);
        assert_eq!(*origin.reads.lock(), before + 1);
    }

    #[test]
    fn worker_error_fails_over_to_secondary() {
        // Regression for the headline churn bug: `read` used to return the
        // first acquired worker's error without trying the remaining replica
        // or origin. Kill the primary's serve path and the read must still
        // succeed via the secondary.
        let (tier, origin, _) = tier(3, 64);
        let f = file("/fo");
        let (primary, secondary) = {
            let c = tier.ring.candidates(&f.path, 2);
            (c[0].clone(), c[1].clone())
        };
        tier.worker(&primary).unwrap().set_failing(true);
        let bytes = tier.read(&f, 0, 100).unwrap();
        assert_eq!(bytes.len(), 100);
        assert!(
            !tier.worker(&secondary).unwrap().cache().index().is_empty(),
            "secondary served the failover"
        );
        let stats = tier.stats();
        assert_eq!(stats.served_by_tier, 1, "counted as a tier serve");
        assert_eq!(stats.worker_errors, 1);
        assert_eq!(stats.failover_reads, 1);
        assert_eq!(stats.origin_fallbacks, 0);
        assert_eq!(*origin.reads.lock(), 1, "secondary fetched the page once");
    }

    #[test]
    fn read_multi_fails_over_to_secondary_then_origin() {
        let (tier, origin, _) = tier(3, 64);
        let f = file("/fom");
        let ranges = [(0u64, 500u64), (10_000, 700)];
        let c = tier.ring.candidates(&f.path, 2);
        tier.worker(&c[0]).unwrap().set_failing(true);
        let parts = tier.read_multi(&f, &ranges).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(tier.stats().worker_errors, 1);
        assert_eq!(tier.stats().failover_reads, 1);
        assert_eq!(tier.stats().served_by_tier, 1);
        // Both candidates failing: the whole batch falls back to origin.
        tier.worker(&c[1]).unwrap().set_failing(true);
        let before = *origin.reads.lock();
        let parts = tier.read_multi(&f, &ranges).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(tier.stats().origin_fallbacks, 1);
        assert_eq!(tier.stats().failover_reads, 2);
        assert_eq!(
            *origin.reads.lock(),
            before + 2,
            "one origin read per fragment"
        );
    }

    #[test]
    fn served_by_tier_counts_only_successful_serves() {
        // Regression: `served_by_tier` used to be incremented before the
        // serve outcome, so failed serves inflated the stat.
        let (tier, _, _) = tier(2, 64);
        let f = file("/cnt");
        for w in tier.worker_names() {
            tier.worker(&w).unwrap().set_failing(true);
        }
        tier.read(&f, 0, 100).unwrap(); // Served by origin.
        let stats = tier.stats();
        assert_eq!(stats.served_by_tier, 0, "no worker served anything");
        assert_eq!(stats.origin_fallbacks, 1);
        assert_eq!(stats.worker_errors, 2);
    }

    #[test]
    fn read_fails_only_when_workers_and_origin_all_fail() {
        let (tier, origin, _) = tier(2, 64);
        let f = file("/dead");
        for w in tier.worker_names() {
            tier.worker(&w).unwrap().set_failing(true);
        }
        origin.set_failing(true);
        assert!(tier.read(&f, 0, 100).is_err());
        assert_eq!(tier.stats().failed_reads, 1);
        // Origin recovers: the same read now succeeds (workers still sick).
        origin.set_failing(false);
        tier.read(&f, 0, 100).unwrap();
        let stats = tier.stats();
        assert_eq!(stats.failed_reads, 1);
        assert_eq!(stats.origin_fallbacks, 1);
        // Conservation: every read ended in exactly one bucket.
        assert_eq!(
            stats.served_by_tier + stats.origin_fallbacks + stats.failed_reads,
            2
        );
    }

    #[test]
    fn workers_join_and_leave_at_runtime() {
        let (tier, _, _) = tier(2, 64);
        assert_eq!(tier.worker_names(), vec!["cw0", "cw1"]);
        tier.add_worker("cw2").unwrap();
        assert_eq!(tier.worker_names(), vec!["cw0", "cw1", "cw2"]);
        assert_eq!(tier.metrics().counter("worker_joins").get(), 1);
        // The new worker owns some keys and serves them.
        let mut served_by_new = 0;
        for i in 0..64 {
            let f = file(&format!("/j{i}"));
            tier.read(&f, 0, 64).unwrap();
            if tier.ring.candidates(&f.path, 1) == vec!["cw2".to_string()] {
                served_by_new += 1;
            }
        }
        assert!(served_by_new > 0, "the joined worker owns no keys");
        assert!(!tier.worker("cw2").unwrap().cache().index().is_empty());
        // Graceful leave: keys rehash immediately, reads keep succeeding.
        assert!(tier.remove_worker("cw2"));
        assert_eq!(tier.worker_names(), vec!["cw0", "cw1"]);
        for i in 0..64 {
            tier.read(&file(&format!("/j{i}")), 0, 64).unwrap();
        }
        let stats = tier.stats();
        assert_eq!(stats.failed_reads, 0);
        assert_eq!(stats.served_by_tier, 128);
        assert!(!tier.remove_worker("cw2"), "double-remove is a no-op");
    }

    #[test]
    fn crash_drops_data_and_seat_then_rejoins_cold() {
        let (tier, origin, _) = tier(3, 64);
        let f = file("/crash");
        tier.read(&f, 0, 100).unwrap();
        let home = tier.ring.candidates(&f.path, 1)[0].clone();
        assert!(tier.worker_crash(&home));
        // The seat is gone immediately (no grace: the data died with it) and
        // the cache was wiped.
        assert!(!tier.ring.candidates(&f.path, 3).contains(&home));
        assert!(tier.worker(&home).unwrap().cache().index().is_empty());
        // Reads keep succeeding: the key rehashes and re-fetches.
        let before = *origin.reads.lock();
        tier.read(&f, 0, 100).unwrap();
        assert_eq!(*origin.reads.lock(), before + 1, "new owner re-fetched");
        // Restart: the worker rejoins with an empty cache and resumes
        // ownership of its range.
        tier.add_worker(&home).unwrap();
        assert!(tier.ring.is_online(&home));
        tier.read(&f, 0, 100).unwrap();
        assert_eq!(tier.stats().failed_reads, 0);
        assert!(!tier.worker_crash("nope"), "unknown worker is a no-op");
    }

    #[test]
    fn replicate_on_read_warms_the_secondary_for_failover_hits() {
        // Two workers: with the primary down there is no third candidate for
        // replicate-on-read to warm, so origin-read counts isolate the
        // failover hit itself.
        let (tier, origin, _) = tier_with(2, 64, true);
        let f = file("/warm");
        let (primary, secondary) = {
            let c = tier.ring.candidates(&f.path, 2);
            (c[0].clone(), c[1].clone())
        };
        tier.read(&f, 0, 100).unwrap();
        assert_eq!(tier.stats().replica_warms, 1);
        assert!(
            !tier.worker(&secondary).unwrap().cache().index().is_empty(),
            "secondary warmed deliberately"
        );
        // Primary goes down: the secondary serves a warm hit — origin is
        // never touched again.
        let before = *origin.reads.lock();
        tier.worker_offline(&primary);
        tier.read(&f, 0, 100).unwrap();
        assert_eq!(*origin.reads.lock(), before, "failover read was a hit");
        // Same story for a hard primary error.
        tier.worker_online(&primary);
        tier.worker(&primary).unwrap().set_failing(true);
        tier.read(&f, 0, 100).unwrap();
        assert_eq!(*origin.reads.lock(), before, "error failover was a hit");
    }

    #[test]
    fn offline_worker_is_skipped_and_recovers_lazily() {
        let (tier, _, clock) = tier(3, 64);
        let f = file("/x");
        tier.read(&f, 0, 100).unwrap();
        let home = tier.ring.candidates(&f.path, 1)[0].clone();
        tier.worker_offline(&home);
        clock.advance(Duration::from_secs(60));
        assert!(
            tier.sweep_expired().is_empty(),
            "grace period holds the seat"
        );
        tier.read(&f, 0, 100).unwrap(); // Served by the next candidate.
        tier.worker_online(&home);
        // The original worker still has its pages: an immediate hit.
        let hits_before = tier.worker(&home).unwrap().cache().stats().hits;
        tier.read(&f, 0, 100).unwrap();
        assert_eq!(
            tier.worker(&home).unwrap().cache().stats().hits,
            hits_before + 1
        );
    }

    #[test]
    fn expired_offline_worker_is_purged_on_read() {
        let (tier, _, clock) = tier(3, 64);
        let f = file("/x");
        tier.read(&f, 0, 100).unwrap();
        let home = tier.ring.candidates(&f.path, 1)[0].clone();
        tier.worker_offline(&home);
        // Past the grace period the read path itself sweeps the seat: the
        // key rehashes to the surviving workers permanently, which re-fetch
        // on the next read (ownership-change re-fetch), and the expired
        // worker's cache is dropped from the map entirely.
        clock.advance(Duration::from_secs(11 * 60));
        tier.read(&f, 0, 100).unwrap();
        assert!(
            !tier.ring.candidates(&f.path, 3).contains(&home),
            "expired seat no longer routes"
        );
        assert!(
            tier.worker(&home).is_none(),
            "expired worker released its cache"
        );
        let served = tier
            .worker_names()
            .iter()
            .filter(|w| **w != home && !tier.worker(w).unwrap().cache().index().is_empty())
            .count();
        assert!(served >= 1, "a surviving worker now caches the key");
    }

    #[test]
    fn all_workers_offline_means_origin_only() {
        let (tier, origin, _) = tier(2, 64);
        for w in tier.worker_names() {
            tier.worker_offline(&w);
        }
        tier.read(&file("/y"), 0, 50).unwrap();
        assert_eq!(tier.stats().origin_fallbacks, 1);
        assert_eq!(*origin.reads.lock(), 1);
    }

    #[test]
    fn remote_source_view_stacks_under_a_compute_cache() {
        use edgecache_core::config::CacheConfig;
        use edgecache_core::manager::CacheManager;
        use edgecache_pagestore::MemoryPageStore;

        let (tier, origin, _) = tier(3, 64);
        tier.register_file("/wh/t/f", 1, 1 << 20);
        let compute =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::kib(4)))
                .with_store(Arc::new(MemoryPageStore::new()), ByteSize::mib(64).as_u64())
                .build()
                .unwrap();
        let f = file("/wh/t/f");
        // Three layers: compute cache → tier worker cache → origin.
        let a = compute.read(&f, 0, 2048, &tier).unwrap();
        let b = compute.read(&f, 0, 2048, &tier).unwrap();
        assert_eq!(a, b);
        assert_eq!(*origin.reads.lock(), 1, "origin touched once");
        assert_eq!(compute.stats().hits, 1, "second read hit at compute layer");
        assert_eq!(tier.stats().served_by_tier, 1, "tier served only the miss");
    }

    #[test]
    fn batched_reads_travel_as_one_hop() {
        let (tier, origin, _) = tier(4, 64);
        let f = file("/batch");
        let ranges = [(0u64, 1000u64), (8192, 500), (100_000, 2000)];
        let chunks = tier.read_multi(&f, &ranges).unwrap();
        assert_eq!(chunks.len(), 3);
        for (&(offset, len), chunk) in ranges.iter().zip(&chunks) {
            let expect: Vec<u8> = (offset..offset + len).map(|i| (i % 253) as u8).collect();
            assert_eq!(chunk.as_ref(), expect.as_slice());
        }
        assert_eq!(tier.stats().served_by_tier, 1, "one hop for the batch");
        // Exactly one worker holds every fragment's pages.
        let holders = tier
            .worker_names()
            .iter()
            .filter(|w| !tier.worker(w).unwrap().cache().index().is_empty())
            .count();
        assert_eq!(holders, 1);
        // A second identical batch is all hits on the same worker.
        let again = tier.read_multi(&f, &ranges).unwrap();
        assert_eq!(again, chunks);
        let reads = *origin.reads.lock();
        tier.read_multi(&f, &ranges).unwrap();
        assert_eq!(*origin.reads.lock(), reads, "warm batch never hits origin");
    }

    #[test]
    fn batched_origin_fallback_guards_every_fragment() {
        let (tier, origin, _) = tier(2, 64);
        for w in tier.worker_names() {
            tier.worker_offline(&w);
        }
        let f = file("/fb");
        let ranges = [(0u64, 100u64), (5000, 300)];
        let chunks = tier.read_multi(&f, &ranges).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].len(), 300);
        assert_eq!(tier.stats().origin_fallbacks, 1, "one fallback per batch");
        assert_eq!(*origin.reads.lock(), 2, "origin read per fragment");
        // This origin never clamps at EOF, so the per-fragment length guard
        // must reject a range extending past the registered length.
        assert!(tier.read_multi(&f, &[(f.length - 10, 100)]).is_err());
        assert_eq!(
            tier.stats().failed_reads,
            1,
            "a guarded fallback failure is a failed read, not a fallback"
        );
    }

    #[test]
    fn stacked_compute_misses_batch_through_the_tier() {
        use edgecache_core::config::CacheConfig;
        use edgecache_core::manager::CacheManager;
        use edgecache_pagestore::MemoryPageStore;

        let (tier, origin, _) = tier(3, 64);
        tier.register_file("/wh/t/v", 1, 1 << 20);
        // One fetch lane so the compute layer's missing runs leave as a
        // single read_ranges call — the tier must serve it as one hop.
        let compute = CacheManager::builder(
            CacheConfig::default()
                .with_page_size(ByteSize::kib(4))
                .with_max_concurrent_fetches(1),
        )
        .with_store(Arc::new(MemoryPageStore::new()), ByteSize::mib(64).as_u64())
        .build()
        .unwrap();
        let f = file("/wh/t/v");
        // A vectored compute-layer read with two far-apart fragments: the
        // misses reach the tier as one read_ranges batch → one hop.
        let out = compute
            .read_multi(&f, &[(0, 2048), (512 * 1024, 2048)], &tier)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(tier.stats().served_by_tier, 1, "batched hop");
        assert!(*origin.reads.lock() >= 1);
        let warm = compute
            .read_multi(&f, &[(0, 2048), (512 * 1024, 2048)], &tier)
            .unwrap();
        assert_eq!(warm, out);
        assert_eq!(tier.stats().served_by_tier, 1, "warm batch stays local");
    }

    #[test]
    fn unregistered_paths_fall_back_to_origin() {
        let (tier, origin, _) = tier(2, 64);
        let src: &dyn RemoteSource = &tier;
        src.read("/unknown", 0, 10).unwrap();
        assert_eq!(*origin.reads.lock(), 1);
        assert_eq!(tier.metrics().counter("unregistered_reads").get(), 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let clock: SharedClock = Arc::new(SimClock::new());
        let origin = CountingOrigin::new();
        assert!(DistCacheTier::new(
            TierConfig {
                workers: 0,
                ..Default::default()
            },
            origin.clone(),
            clock.clone(),
        )
        .is_err());
        assert!(DistCacheTier::new(
            TierConfig {
                max_replicas: 0,
                ..Default::default()
            },
            origin,
            clock,
        )
        .is_err());
    }
}
