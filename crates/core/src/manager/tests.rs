use super::*;
use crate::admission::{FilterRule, FilterRuleAdmission, FilterRuleSet, SlidingWindowAdmission};
use crate::config::EvictionPolicyKind;
use edgecache_pagestore::{FaultPlan, FaultyStore, MemoryPageStore, VerifiedPage};
use parking_lot::Mutex as PlMutex;
use std::collections::HashMap;

/// A scripted remote: serves deterministic bytes and counts reads.
struct ScriptedRemote {
    reads: PlMutex<Vec<(String, u64, u64)>>,
    files: PlMutex<HashMap<String, Vec<u8>>>,
}

impl ScriptedRemote {
    fn new() -> Self {
        Self {
            reads: PlMutex::new(Vec::new()),
            files: PlMutex::new(HashMap::new()),
        }
    }

    fn with_file(self, path: &str, data: Vec<u8>) -> Self {
        self.files.lock().insert(path.to_string(), data);
        self
    }

    fn read_count(&self) -> usize {
        self.reads.lock().len()
    }

    fn bytes_served(&self) -> u64 {
        self.reads.lock().iter().map(|(_, _, l)| l).sum()
    }

    /// `(offset, len)` of every read so far, sorted: the fetch pool issues
    /// a batch's ranged reads concurrently, so arrival order is not part of
    /// the contract.
    fn sorted_ranges(&self) -> Vec<(u64, u64)> {
        let mut ranges: Vec<(u64, u64)> =
            self.reads.lock().iter().map(|(_, o, l)| (*o, *l)).collect();
        ranges.sort_unstable();
        ranges
    }
}

impl RemoteSource for ScriptedRemote {
    fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let files = self.files.lock();
        let data = files
            .get(path)
            .ok_or_else(|| Error::NotFound(path.to_string()))?;
        let start = (offset as usize).min(data.len());
        let end = ((offset + len) as usize).min(data.len());
        self.reads
            .lock()
            .push((path.to_string(), offset, (end - start) as u64));
        Ok(Bytes::copy_from_slice(&data[start..end]))
    }
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

fn small_cache(page_size: u64, capacity: u64) -> CacheManager {
    CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(page_size)))
        .with_store(Arc::new(MemoryPageStore::new()), capacity)
        .build()
        .unwrap()
}

fn file(path: &str, len: u64) -> SourceFile {
    SourceFile::new(path, 1, len, CacheScope::partition("s", "t", "p"))
}

#[test]
fn read_through_then_hit() {
    let cache = small_cache(1024, 1 << 20);
    let data = pattern(4000);
    let remote = ScriptedRemote::new().with_file("/f", data.clone());
    let f = file("/f", 4000);

    let got = cache.read(&f, 100, 500, &remote).unwrap();
    assert_eq!(got.as_ref(), &data[100..600]);
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().hits, 0);

    let got = cache.read(&f, 100, 500, &remote).unwrap();
    assert_eq!(got.as_ref(), &data[100..600]);
    assert_eq!(cache.stats().hits, 1);
    // Only the first read touched the remote, at page granularity.
    assert_eq!(remote.read_count(), 1);
    assert_eq!(remote.bytes_served(), 1024);
}

#[test]
fn multi_page_read_spans_pages() {
    let cache = small_cache(1000, 1 << 20);
    let data = pattern(5000);
    let remote = ScriptedRemote::new().with_file("/f", data.clone());
    let f = file("/f", 5000);

    let got = cache.read(&f, 500, 3000, &remote).unwrap();
    assert_eq!(got.as_ref(), &data[500..3500]);
    // Pages 0..=3 were all missing and adjacent: one coalesced request.
    assert_eq!(remote.read_count(), 1);
    assert_eq!(remote.bytes_served(), 4000);
    assert_eq!(cache.metrics().counter("fetch.coalesced_pages").get(), 3);
    // Second read of the same span is all hits.
    cache.read(&f, 500, 3000, &remote).unwrap();
    assert_eq!(remote.read_count(), 1);
    assert_eq!(cache.stats().hits, 4);
}

#[test]
fn read_past_eof_is_clamped() {
    let cache = small_cache(1024, 1 << 20);
    let data = pattern(100);
    let remote = ScriptedRemote::new().with_file("/f", data.clone());
    let f = file("/f", 100);
    let got = cache.read(&f, 50, 500, &remote).unwrap();
    assert_eq!(got.as_ref(), &data[50..]);
    assert!(cache.read(&f, 200, 10, &remote).unwrap().is_empty());
    assert!(cache.read(&f, 0, 0, &remote).unwrap().is_empty());
}

#[test]
fn version_change_invalidates() {
    let cache = small_cache(1024, 1 << 20);
    let remote = ScriptedRemote::new().with_file("/f", pattern(100));
    let v1 = SourceFile::new("/f", 1, 100, CacheScope::Global);
    let v2 = SourceFile::new("/f", 2, 100, CacheScope::Global);
    cache.read(&v1, 0, 100, &remote).unwrap();
    cache.read(&v2, 0, 100, &remote).unwrap();
    // Different versions are distinct cache entries.
    assert_eq!(remote.read_count(), 2);
    assert_eq!(cache.stats().misses, 2);
}

#[test]
fn capacity_eviction_lru() {
    // Capacity of 3 pages; touch 4 distinct pages, hitting page 0 again
    // before the fourth.
    let cache = small_cache(100, 300);
    let remote = ScriptedRemote::new().with_file("/f", pattern(400));
    let f = file("/f", 400);
    for page in [0, 1, 2, 0, 3u64] {
        cache.read(&f, page * 100, 100, &remote).unwrap();
    }
    assert_eq!(cache.index().len(), 3);
    assert_eq!(cache.metrics().counter("evictions.capacity").get(), 1);
    assert_eq!(cache.stats().misses, 4);
    // The hit made page 0 recent, so page 1 was least recently used →
    // evicted: page 0 still hits, page 1 misses.
    cache.read(&f, 0, 100, &remote).unwrap();
    assert_eq!(cache.stats().misses, 4);
    cache.read(&f, 100, 100, &remote).unwrap();
    assert_eq!(cache.stats().misses, 5);
}

#[test]
fn eviction_respects_policy_kind() {
    // FIFO with capacity 2 pages: access page 0 repeatedly, it still
    // goes first.
    let cache = CacheManager::builder(
        CacheConfig::default()
            .with_page_size(ByteSize::new(100))
            .with_eviction(EvictionPolicyKind::Fifo),
    )
    .with_store(Arc::new(MemoryPageStore::new()), 200)
    .build()
    .unwrap();
    let remote = ScriptedRemote::new().with_file("/f", pattern(300));
    let f = file("/f", 300);
    cache.read(&f, 0, 100, &remote).unwrap();
    cache.read(&f, 100, 100, &remote).unwrap();
    cache.read(&f, 0, 100, &remote).unwrap(); // Hit; FIFO unaffected.
    cache.read(&f, 200, 100, &remote).unwrap(); // Evicts page 0.
    assert!(!cache.contains(&f, 0));
    assert!(cache.contains(&f, 1));
    assert!(cache.contains(&f, 2));
}

#[test]
fn admission_rejection_reads_exact_range() {
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(1024)))
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .with_admission(Arc::new(SlidingWindowAdmission::per_minute(10, 3)))
        .build()
        .unwrap();
    let remote = ScriptedRemote::new().with_file("/f", pattern(2048));
    let f = file("/f", 2048);
    // First two accesses are not admitted: remote serves only 10 bytes.
    cache.read(&f, 0, 10, &remote).unwrap();
    assert_eq!(remote.bytes_served(), 10);
    cache.read(&f, 0, 10, &remote).unwrap();
    assert_eq!(remote.bytes_served(), 20);
    assert_eq!(cache.metrics().counter("admission_rejected").get(), 2);
    // Third access crosses the threshold: full page cached.
    cache.read(&f, 0, 10, &remote).unwrap();
    assert_eq!(remote.bytes_served(), 20 + 1024);
    assert!(cache.contains(&f, 0));
}

#[test]
fn quota_partition_eviction() {
    let scope = CacheScope::partition("s", "t", "p");
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .with_quota(scope.clone(), ByteSize::new(250))
        .build()
        .unwrap();
    let remote = ScriptedRemote::new().with_file("/f", pattern(1000));
    let f = file("/f", 1000);
    for page in 0..5u64 {
        cache.read(&f, page * 100, 100, &remote).unwrap();
    }
    // Quota allows 2 pages (250 bytes); eviction kept usage compliant.
    assert!(cache.index().bytes_of_scope(&scope) <= 250);
    assert!(cache.metrics().counter("evictions.quota").get() >= 3);
}

#[test]
fn quota_table_random_eviction_spreads() {
    let table = CacheScope::table("s", "t");
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .with_quota(table.clone(), ByteSize::new(500))
        .build()
        .unwrap();
    // Two partitions, ten pages each: table quota forces eviction across
    // partitions.
    for (i, part) in ["p1", "p2"].iter().enumerate() {
        let remote = ScriptedRemote::new().with_file(&format!("/f{i}"), pattern(1000));
        let f = SourceFile::new(
            format!("/f{i}"),
            1,
            1000,
            CacheScope::partition("s", "t", part),
        );
        for page in 0..10u64 {
            cache.read(&f, page * 100, 100, &remote).unwrap();
        }
    }
    assert!(cache.index().bytes_of_scope(&table) <= 500);
    cache.index().check_consistency().unwrap();
}

/// A `maxCachedPartitions` cap on table `t`, with everything else
/// admitted freely.
fn partition_cap(table: &str, max: usize) -> Arc<FilterRuleAdmission> {
    Arc::new(FilterRuleAdmission::new(FilterRuleSet {
        rules: vec![FilterRule {
            schema: "*".into(),
            table: table.into(),
            max_cached_partitions: Some(max),
        }],
        default_admit: true,
    }))
}

fn part_file(path: &str, len: u64, partition: &str) -> SourceFile {
    SourceFile::new(path, 1, len, CacheScope::partition("s", "t", partition))
}

#[test]
fn multi_scope_quota_violations_resolved_in_one_put() {
    // One put violates its partition quota AND leaves the table quota
    // violated after the partition round; both must be resolved instead
    // of returning QuotaExceeded after the first.
    let part = CacheScope::partition("s", "t", "p");
    let table = CacheScope::table("s", "t");
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .with_quota(part.clone(), ByteSize::new(200))
        .with_quota(table.clone(), ByteSize::new(250))
        .build()
        .unwrap();
    let fq = SourceFile::new("/q", 1, 1000, CacheScope::partition("s", "t", "q"));
    let fp = SourceFile::new("/p", 1, 1000, part.clone());
    cache.put_page(&fq, 0, &pattern(60)).unwrap(); // t = 60
    cache.put_page(&fp, 0, &pattern(95)).unwrap(); // p = 95, t = 155
    cache.put_page(&fp, 1, &pattern(95)).unwrap(); // p = 190, t = 250
                                                   // Partition round evicts down to 100 (frees 95), after which the
                                                   // table still sits at 255 with the new page — a second round.
    cache.put_page(&fp, 2, &pattern(100)).unwrap();
    assert!(cache.index().bytes_of_scope(&part) <= 200);
    assert!(cache.index().bytes_of_scope(&table) <= 250);
    assert!(cache.metrics().counter("evictions.quota").get() >= 2);
    cache.index().check_consistency().unwrap();
}

#[test]
fn refresh_keeps_one_policy_entry() {
    let cache = CacheManager::builder(
        CacheConfig::default()
            .with_page_size(ByteSize::new(1024))
            .with_eviction(EvictionPolicyKind::Fifo),
    )
    .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
    .build()
    .unwrap();
    let f = file("/f", 4000);
    cache.put_page(&f, 0, &pattern(100)).unwrap();
    cache.put_page(&f, 0, &pattern(120)).unwrap();
    assert_eq!(cache.index().len(), 1);
    assert_eq!(cache.index().total_bytes(), 120);
    // The refresh must retire the old policy entry before re-inserting,
    // or the FIFO queue holds the page twice.
    assert_eq!(cache.policies[0].lock().len(), 1);
    cache.index().check_consistency().unwrap();
}

#[test]
fn refresh_into_other_dir_deletes_stale_copy() {
    let store0 = Arc::new(MemoryPageStore::new());
    let store1 = Arc::new(MemoryPageStore::new());
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(Arc::clone(&store0) as Arc<dyn PageStore>, 200)
        .with_store(Arc::clone(&store1) as Arc<dyn PageStore>, 10_000)
        .build()
        .unwrap();
    // A file whose affinity directory is the small dir 0.
    let f = (0..100)
        .map(|i| file(&format!("/f{i}"), 1000))
        .find(|f| cache.allocator.affinity_dir(f.file_id()) == 0)
        .expect("some file maps to dir 0");
    let id = PageId::new(f.file_id(), 0);
    cache.put_page(&f, 0, &pattern(100)).unwrap();
    assert_eq!(cache.index().get(&id).unwrap().dir, 0);
    // The refreshed copy no longer fits dir 0: the allocator falls back
    // to dir 1, and the dir-0 residency must be cleaned up with it.
    cache.put_page(&f, 0, &pattern(500)).unwrap();
    assert_eq!(cache.index().get(&id).unwrap().dir, 1);
    assert!(
        store0.get(id, 0, 1).is_err(),
        "old copy must not stay stranded in dir 0"
    );
    assert_eq!(cache.policies[0].lock().len(), 0);
    assert_eq!(cache.policies[1].lock().len(), 1);
    cache.index().check_consistency().unwrap();
}

#[test]
fn churn_readmits_partitions_after_purge() {
    // The acceptance-criteria churn scenario: fill the table to its
    // partition cap, purge those partitions, then insert fresh ones —
    // the fresh partitions must be admitted (slots were leaked on main).
    let admission = partition_cap("t", 2);
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .with_admission(admission.clone())
        .build()
        .unwrap();
    for (i, part) in ["p1", "p2"].iter().enumerate() {
        let remote = ScriptedRemote::new().with_file(&format!("/f{i}"), pattern(100));
        let f = part_file(&format!("/f{i}"), 100, part);
        cache.read(&f, 0, 100, &remote).unwrap();
        assert!(cache.contains(&f, 0));
    }
    // Cap reached: a third partition is bypassed.
    let remote3 = ScriptedRemote::new().with_file("/f3", pattern(100));
    let f3 = part_file("/f3", 100, "p3");
    cache.read(&f3, 0, 100, &remote3).unwrap();
    assert!(!cache.contains(&f3, 0));
    // Purge p1 and p2: their residency drops to zero, the ledger fires
    // exits, and both admission slots come back.
    cache.delete_scope(&CacheScope::partition("s", "t", "p1"));
    cache.delete_scope(&CacheScope::partition("s", "t", "p2"));
    for (i, part) in ["p3", "p4"].iter().enumerate() {
        let path = format!("/g{i}");
        let remote = ScriptedRemote::new().with_file(&path, pattern(100));
        let f = part_file(&path, 100, part);
        cache.read(&f, 0, 100, &remote).unwrap();
        assert!(cache.contains(&f, 0), "fresh partition {part} rejected");
    }
    let snapshot = admission.admitted_snapshot();
    let admitted = snapshot.get(&("s".to_string(), "t".to_string())).unwrap();
    assert_eq!(admitted.len(), 2);
    assert!(admitted.contains("p3") && admitted.contains("p4"));
}

#[test]
fn capacity_eviction_releases_admission_slot() {
    let admission = partition_cap("t", 1);
    // Room for exactly one page: caching anything else evicts.
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(Arc::new(MemoryPageStore::new()), 100)
        .with_admission(admission)
        .build()
        .unwrap();
    let r1 = ScriptedRemote::new().with_file("/f1", pattern(100));
    cache
        .read(&part_file("/f1", 100, "p1"), 0, 100, &r1)
        .unwrap();
    // An uncapped table's page evicts p1's only page: the slot frees.
    let ru = ScriptedRemote::new().with_file("/u", pattern(100));
    let fu = SourceFile::new("/u", 1, 100, CacheScope::partition("s", "u", "q"));
    cache.read(&fu, 0, 100, &ru).unwrap();
    let r2 = ScriptedRemote::new().with_file("/f2", pattern(100));
    let f2 = part_file("/f2", 100, "p2");
    cache.read(&f2, 0, 100, &r2).unwrap();
    assert!(cache.contains(&f2, 0), "capacity eviction leaked the slot");
}

#[test]
fn quota_eviction_releases_admission_slot() {
    let admission = partition_cap("t", 2);
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .with_admission(admission.clone())
        .with_quota(CacheScope::table("s", "t"), ByteSize::new(100))
        .build()
        .unwrap();
    let r1 = ScriptedRemote::new().with_file("/f1", pattern(100));
    cache
        .read(&part_file("/f1", 100, "p1"), 0, 100, &r1)
        .unwrap();
    // p2's page violates the table quota and evicts p1's only page.
    let r2 = ScriptedRemote::new().with_file("/f2", pattern(100));
    cache
        .read(&part_file("/f2", 100, "p2"), 0, 100, &r2)
        .unwrap();
    // p1's slot came back, so a third partition fits under the cap of 2.
    let r3 = ScriptedRemote::new().with_file("/f3", pattern(100));
    let f3 = part_file("/f3", 100, "p3");
    cache.read(&f3, 0, 100, &r3).unwrap();
    assert!(cache.contains(&f3, 0), "quota eviction leaked the slot");
    let snapshot = admission.admitted_snapshot();
    let admitted = snapshot.get(&("s".to_string(), "t".to_string())).unwrap();
    assert!(!admitted.contains("p1"));
}

#[test]
fn ttl_expiry_releases_admission_slot() {
    let clock = Arc::new(edgecache_common::SimClock::new());
    let cache = CacheManager::builder(
        CacheConfig::default()
            .with_page_size(ByteSize::new(100))
            .with_ttl(Duration::from_secs(60)),
    )
    .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
    .with_admission(partition_cap("t", 1))
    .with_clock(clock.clone())
    .build()
    .unwrap();
    let r1 = ScriptedRemote::new().with_file("/f1", pattern(100));
    cache
        .read(&part_file("/f1", 100, "p1"), 0, 100, &r1)
        .unwrap();
    clock.advance(Duration::from_secs(70));
    assert_eq!(cache.evict_expired(), 1);
    let r2 = ScriptedRemote::new().with_file("/f2", pattern(100));
    let f2 = part_file("/f2", 100, "p2");
    cache.read(&f2, 0, 100, &r2).unwrap();
    assert!(cache.contains(&f2, 0), "TTL expiry leaked the slot");
}

#[test]
fn corruption_eviction_cycles_the_ledger() {
    let plan = FaultPlan::none();
    let store = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
    let admission = partition_cap("t", 1);
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(store, 1 << 20)
        .with_admission(admission.clone())
        .build()
        .unwrap();
    let data = pattern(100);
    let remote = ScriptedRemote::new().with_file("/f", data.clone());
    let f = part_file("/f", 100, "p1");
    cache.read(&f, 0, 100, &remote).unwrap();
    plan.corrupt_page(PageId::new(f.file_id(), 0));
    // Corruption eviction empties p1 (exit, slot released), then the
    // refetch re-admits it (enter): the ledger sees the full cycle.
    let got = cache.read(&f, 0, 100, &remote).unwrap();
    assert_eq!(got.as_ref(), &data[..]);
    assert_eq!(cache.metrics().counter("ledger.enters").get(), 2);
    assert_eq!(cache.metrics().counter("ledger.exits").get(), 1);
    let snapshot = admission.admitted_snapshot();
    let admitted = snapshot.get(&("s".to_string(), "t".to_string())).unwrap();
    assert_eq!(admitted.len(), 1);
    assert!(admitted.contains("p1"));
}

#[test]
fn failed_fetch_releases_vacant_admission() {
    let admission = partition_cap("t", 1);
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .with_admission(admission)
        .build()
        .unwrap();
    // p1 is admitted at classify time, but its remote read fails: no
    // page lands, so the slot must be handed back.
    let empty = ScriptedRemote::new();
    assert!(cache
        .read(&part_file("/f1", 100, "p1"), 0, 100, &empty)
        .is_err());
    let r2 = ScriptedRemote::new().with_file("/f2", pattern(100));
    let f2 = part_file("/f2", 100, "p2");
    cache.read(&f2, 0, 100, &r2).unwrap();
    assert!(cache.contains(&f2, 0), "failed fetch leaked the slot");
}

#[test]
fn ledger_counts_partition_lifecycle() {
    let cache = small_cache(100, 1 << 20);
    let remote = ScriptedRemote::new().with_file("/f", pattern(200));
    let f = file("/f", 200);
    cache.read(&f, 0, 200, &remote).unwrap();
    assert_eq!(cache.metrics().counter("ledger.enters").get(), 1);
    assert_eq!(cache.metrics().counter("ledger.exits").get(), 0);
    assert_eq!(cache.index().ledger().live_partitions().len(), 1);
    cache.delete_file(f.file_id());
    assert_eq!(cache.metrics().counter("ledger.exits").get(), 1);
    assert!(cache.index().ledger().live_partitions().is_empty());
    cache.index().check_consistency().unwrap();
}

#[test]
fn corrupted_page_is_evicted_and_refetched() {
    let plan = FaultPlan::none();
    let store = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(store, 1 << 20)
        .build()
        .unwrap();
    let data = pattern(100);
    let remote = ScriptedRemote::new().with_file("/f", data.clone());
    let f = file("/f", 100);
    cache.read(&f, 0, 100, &remote).unwrap();
    plan.corrupt_page(PageId::new(f.file_id(), 0));
    // The read still succeeds (early evict + refetch) and the page is
    // re-cached cleanly.
    let got = cache.read(&f, 0, 100, &remote).unwrap();
    assert_eq!(got.as_ref(), &data[..]);
    assert_eq!(cache.metrics().counter("evictions.corrupt").get(), 1);
    let got = cache.read(&f, 0, 100, &remote).unwrap();
    assert_eq!(got.as_ref(), &data[..]);
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn device_enospc_triggers_early_eviction() {
    let plan = FaultPlan::none();
    // Device truly holds 250 bytes although the cache believes 1000.
    plan.set_device_capacity(250);
    let store = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(store, 1000)
        .build()
        .unwrap();
    let remote = ScriptedRemote::new().with_file("/f", pattern(500));
    let f = file("/f", 500);
    for page in 0..5u64 {
        cache.read(&f, page * 100, 100, &remote).unwrap();
    }
    // All reads succeeded; early eviction kept the device within bounds.
    assert!(cache.index().total_bytes() <= 250);
    assert!(cache.metrics().counter("evictions.no_space").get() >= 1);
    cache.index().check_consistency().unwrap();
}

#[test]
fn read_timeout_falls_back_to_remote() {
    let plan = FaultPlan::none();
    plan.set_read_hang(Duration::from_millis(200), 1);
    let store = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
    let cache = CacheManager::builder(
        CacheConfig::default()
            .with_page_size(ByteSize::new(100))
            .with_read_timeout(Duration::from_millis(20)),
    )
    .with_store(store, 1 << 20)
    .build()
    .unwrap();
    let data = pattern(100);
    let remote = ScriptedRemote::new().with_file("/f", data.clone());
    let f = file("/f", 100);
    cache.read(&f, 0, 100, &remote).unwrap(); // Miss: cached.
    let got = cache.read(&f, 0, 100, &remote).unwrap(); // Hit hangs → remote.
    assert_eq!(got.as_ref(), &data[..]);
    assert_eq!(cache.metrics().counter("fallbacks.timeout").get(), 1);
    // The page is still cached (fallback does not evict).
    assert!(cache.contains(&f, 0));
}

#[test]
fn ttl_evicts_expired_pages() {
    let clock = Arc::new(edgecache_common::SimClock::new());
    let cache = CacheManager::builder(
        CacheConfig::default()
            .with_page_size(ByteSize::new(100))
            .with_ttl(Duration::from_secs(60)),
    )
    .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
    .with_clock(clock.clone())
    .build()
    .unwrap();
    let remote = ScriptedRemote::new().with_file("/f", pattern(200));
    let f = file("/f", 200);
    cache.read(&f, 0, 100, &remote).unwrap();
    clock.advance(Duration::from_secs(30));
    cache.read(&f, 100, 100, &remote).unwrap();
    clock.advance(Duration::from_secs(40)); // Page 0 is now 70 s old.
    assert_eq!(cache.evict_expired(), 1);
    assert!(!cache.contains(&f, 0));
    assert!(cache.contains(&f, 1));
    assert_eq!(cache.metrics().counter("evictions.ttl").get(), 1);
}

#[test]
fn ttl_janitor_evicts_in_background() {
    let cache = Arc::new(
        CacheManager::builder(
            CacheConfig::default()
                .with_page_size(ByteSize::new(100))
                .with_ttl(Duration::from_millis(30)),
        )
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .build()
        .unwrap(),
    );
    let remote = ScriptedRemote::new().with_file("/f", pattern(100));
    cache.read(&file("/f", 100), 0, 100, &remote).unwrap();
    let _janitor = cache.start_ttl_janitor(Duration::from_millis(10));
    // The page expires after 30 ms; the janitor should reap it shortly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !cache.index().is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(cache.index().len(), 0, "janitor reaped the expired page");
    assert!(cache.metrics().counter("evictions.ttl").get() >= 1);
}

#[test]
fn delete_scope_bulk_removes_partition() {
    let cache = small_cache(100, 1 << 20);
    let remote = ScriptedRemote::new()
        .with_file("/a", pattern(300))
        .with_file("/b", pattern(300));
    let fa = SourceFile::new("/a", 1, 300, CacheScope::partition("s", "t", "2024-01-01"));
    let fb = SourceFile::new("/b", 1, 300, CacheScope::partition("s", "t", "2024-01-02"));
    cache.read(&fa, 0, 300, &remote).unwrap();
    cache.read(&fb, 0, 300, &remote).unwrap();
    assert_eq!(cache.index().len(), 6);
    let removed = cache.delete_scope(&CacheScope::partition("s", "t", "2024-01-01"));
    assert_eq!(removed, 3);
    assert_eq!(cache.index().len(), 3);
    assert!(!cache.contains(&fa, 0));
    assert!(cache.contains(&fb, 0));
    cache.index().check_consistency().unwrap();
}

#[test]
fn delete_file_removes_all_its_pages() {
    let cache = small_cache(100, 1 << 20);
    let remote = ScriptedRemote::new().with_file("/a", pattern(250));
    let f = file("/a", 250);
    cache.read(&f, 0, 250, &remote).unwrap();
    assert_eq!(cache.delete_file(f.file_id()), 3);
    assert_eq!(cache.index().len(), 0);
}

#[test]
fn recovery_restores_hits() {
    let dir = std::env::temp_dir().join(format!("edgecache-mgr-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = pattern(300);
    {
        let store = Arc::new(
            edgecache_pagestore::LocalPageStore::open(
                &dir,
                edgecache_pagestore::LocalStoreConfig {
                    page_size: 100,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(store, 1 << 20)
                .build()
                .unwrap();
        let remote = ScriptedRemote::new().with_file("/a", data.clone());
        cache.read(&file("/a", 300), 0, 300, &remote).unwrap();
    }
    // New process: recover from disk.
    let store = Arc::new(
        edgecache_pagestore::LocalPageStore::open(
            &dir,
            edgecache_pagestore::LocalStoreConfig {
                page_size: 100,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(store, 1 << 20)
        .with_recovery()
        .build()
        .unwrap();
    assert_eq!(cache.metrics().counter("recovered_pages").get(), 3);
    let remote = ScriptedRemote::new().with_file("/a", data.clone());
    let got = cache.read(&file("/a", 300), 0, 300, &remote).unwrap();
    assert_eq!(got.as_ref(), &data[..]);
    assert_eq!(cache.stats().hits, 3);
    assert_eq!(remote.read_count(), 0, "everything served from recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_keeps_one_copy_of_a_page_found_in_two_directories() {
    // A kill between a relocating `put_page`'s store write and its
    // old-copy delete leaves one page in two directories.
    let stores = [MemoryPageStore::new(), MemoryPageStore::new()].map(Arc::new);
    let id = PageId::new(file("/a", 1000).file_id(), 0);
    for store in &stores {
        store.put(id, &pattern(100)).unwrap();
    }
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(Arc::clone(&stores[0]) as Arc<dyn PageStore>, 10_000)
        .with_store(Arc::clone(&stores[1]) as Arc<dyn PageStore>, 10_000)
        .with_recovery()
        .build()
        .unwrap();
    cache.check_policy_coherence().unwrap();
    assert_eq!(
        stores.iter().filter(|s| s.contains(id)).count(),
        1,
        "exactly one store keeps the page"
    );
    for (dir, (stored, indexed, _)) in cache.dir_usage().into_iter().enumerate() {
        assert_eq!(
            stored, indexed,
            "dir {dir}: store bytes differ from the index"
        );
    }
}

#[test]
fn recovery_leaves_each_directory_within_capacity() {
    // A delete that failed or crashed leaves a page on disk that the
    // capacity no longer counted: the store can hold more than it.
    let dir = std::env::temp_dir().join(format!("edgecache-mgr-over-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = edgecache_pagestore::LocalPageStore::open(
        &dir,
        edgecache_pagestore::LocalStoreConfig {
            page_size: 100,
            ..Default::default()
        },
    )
    .unwrap();
    let id = file("/a", 1500).file_id();
    for index in 0..15 {
        store.put(PageId::new(id, index), &pattern(100)).unwrap();
    }
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(Arc::new(store), 1000)
        .with_recovery()
        .build()
        .unwrap();
    assert!(cache.index().bytes_of_dir(0) <= 1000);
    let (stored, indexed, _) = cache.dir_usage()[0];
    assert_eq!(stored, indexed, "store bytes differ from the index");
    cache.index().check_consistency().unwrap();
    cache.check_policy_coherence().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clear_wipes_everything() {
    let cache = small_cache(100, 1 << 20);
    let remote = ScriptedRemote::new().with_file("/a", pattern(300));
    cache.read(&file("/a", 300), 0, 300, &remote).unwrap();
    assert_eq!(cache.clear(), 3);
    assert!(cache.index().is_empty());
}

#[test]
fn builder_without_store_fails() {
    assert!(CacheManager::builder(CacheConfig::default())
        .build()
        .is_err());
}

#[test]
fn multiple_directories_spread_files() {
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .build()
        .unwrap();
    let remote = ScriptedRemote::new();
    for i in 0..30 {
        let path = format!("/file-{i}");
        remote.files.lock().insert(path.clone(), pattern(100));
        let f = SourceFile::new(path, 1, 100, CacheScope::Global);
        cache.read(&f, 0, 100, &remote).unwrap();
    }
    let dirs_used = (0..3)
        .filter(|&d| cache.index().bytes_of_dir(d) > 0)
        .count();
    assert!(dirs_used >= 2, "files should spread over directories");
    cache.index().check_consistency().unwrap();
}

#[test]
fn concurrent_reads_are_consistent() {
    let cache = Arc::new(small_cache(256, 1 << 20));
    let data = pattern(4096);
    let remote = Arc::new(ScriptedRemote::new().with_file("/f", data.clone()));
    let mut handles = Vec::new();
    for t in 0..8 {
        let cache = Arc::clone(&cache);
        let remote = Arc::clone(&remote);
        let data = data.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..50u64 {
                let off = (t * 131 + i * 67) % 4000;
                let len = 96.min(4096 - off);
                let f = file("/f", 4096);
                let got = cache.read(&f, off, len, remote.as_ref()).unwrap();
                assert_eq!(got.as_ref(), &data[off as usize..(off + len) as usize]);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    cache.index().check_consistency().unwrap();
    // Each request touches one or two pages (reads may straddle a page
    // boundary), so page-level accesses land in [400, 800].
    let stats = cache.stats();
    assert!((400..=800).contains(&(stats.hits + stats.misses)));
}

#[test]
fn concurrent_hits_and_capacity_evictions_keep_policy_coherent() {
    // The working set is twice the directory, so every thread's hits keep
    // meeting other threads' capacity evictions of the same pages, and
    // several publishers draw the same policy victim at once: a victim one
    // thread evicts and another republishes must stay tracked, and a hit
    // whose page is evicted between its index touch and its policy event
    // must not leave the policy tracking a page the index dropped.
    const THREADS: u64 = 8;
    const ITERS: u64 = 1_500;
    const PAGE: u64 = 256;
    const CAPACITY_PAGES: u64 = 32;
    const PAGES: u64 = 2 * CAPACITY_PAGES;

    let cache = Arc::new(small_cache(PAGE, CAPACITY_PAGES * PAGE));
    let data = pattern((PAGES * PAGE) as usize);
    let remote = Arc::new(ScriptedRemote::new().with_file("/f", data.clone()));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let remote = Arc::clone(&remote);
            let data = data.clone();
            std::thread::spawn(move || {
                let f = file("/f", PAGES * PAGE);
                let mut x = t.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                for _ in 0..ITERS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let off = (x % PAGES) * PAGE;
                    let got = cache.read(&f, off, PAGE, remote.as_ref()).unwrap();
                    assert_eq!(got.as_ref(), &data[off as usize..(off + PAGE) as usize]);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        THREADS * ITERS,
        "every page access counted"
    );
    assert!(stats.hits > 0, "the hammer produced hits");
    assert!(
        cache.metrics().counter("evictions.capacity").get() > 0,
        "the hammer produced capacity evictions"
    );
    assert!(cache.index().len() as u64 <= CAPACITY_PAGES);
    cache.index().check_consistency().unwrap();
    cache.check_policy_coherence().unwrap();
}

/// A remote that blocks every fetch on a gate until released, counting
/// requests. Lets a test hold a fetch in flight while other readers pile
/// up behind the single-flight latch.
struct GatedRemote {
    data: Vec<u8>,
    gate: PlMutex<bool>,
    opened: Condvar,
    requests: AtomicU64,
}

impl GatedRemote {
    fn new(data: Vec<u8>) -> Self {
        Self {
            data,
            gate: PlMutex::new(false),
            opened: Condvar::new(),
            requests: AtomicU64::new(0),
        }
    }

    fn open_gate(&self) {
        *self.gate.lock() = true;
        self.opened.notify_all();
    }

    fn serve(&self, offset: u64, len: u64) -> Bytes {
        let start = (offset as usize).min(self.data.len());
        let end = ((offset + len) as usize).min(self.data.len());
        Bytes::copy_from_slice(&self.data[start..end])
    }
}

impl RemoteSource for GatedRemote {
    fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.read_ranges(path, &[(offset, len)])
            .map(|mut v| v.pop().unwrap())
    }

    fn read_ranges(&self, _path: &str, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        // Relaxed: the test reads this only after thread::join, which
        // already synchronizes-with everything the workers did.
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut open = self.gate.lock();
        while !*open {
            self.opened.wait(&mut open);
        }
        Ok(ranges.iter().map(|&(o, l)| self.serve(o, l)).collect())
    }
}

#[test]
fn single_flight_dedups_concurrent_misses() {
    let cache = Arc::new(small_cache(1024, 1 << 20));
    let data = pattern(1024);
    let remote = Arc::new(GatedRemote::new(data.clone()));

    let mut handles = Vec::new();
    for _ in 0..32 {
        let cache = Arc::clone(&cache);
        let remote = Arc::clone(&remote);
        handles.push(std::thread::spawn(move || {
            cache
                .read(&file("/f", 1024), 0, 1024, remote.as_ref())
                .unwrap()
        }));
    }

    // One thread owns the (gated) fetch; the other 31 must register as
    // in-flight waiters before we let the fetch complete.
    let waits = cache.metrics().counter("fetch.inflight_waits");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while waits.get() < 31 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(waits.get(), 31, "31 readers joined the in-flight fetch");
    remote.open_gate();

    for h in handles {
        assert_eq!(h.join().unwrap().as_ref(), &data[..]);
    }
    // Exactly one remote request despite 32 concurrent cold readers.
    assert_eq!(remote.requests.load(Ordering::Relaxed), 1);
    assert_eq!(cache.stats().misses, 32, "waiters count as misses");
    assert_eq!(cache.metrics().counter("remote_requests").get(), 1);
}

#[test]
fn hit_hammer_32_threads_loses_no_counts() {
    const THREADS: usize = 32;
    const ITERS: usize = 2_000;
    const PAGE: u64 = 1024;
    const PAGES: usize = 8;

    let cache = Arc::new(small_cache(PAGE, 1 << 20));
    let data = pattern((PAGES as u64 * PAGE) as usize);
    let remote = ScriptedRemote::new().with_file("/f", data.clone());
    let f = file("/f", PAGES as u64 * PAGE);

    // Warm every page, then freeze the remote out of the picture: the
    // hammer phase below must be served entirely from cache.
    cache.read(&f, 0, PAGES as u64 * PAGE, &remote).unwrap();
    let warm_hits = cache.stats().hits;
    let warm_misses = cache.stats().misses;
    let warm_bytes = cache.metrics().counter("bytes_from_cache").get();
    let warm_reads = remote.read_count();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let data = data.clone();
            std::thread::spawn(move || {
                let remote = NeverRemote;
                for i in 0..ITERS {
                    let page = (t * 7 + i) % PAGES;
                    let off = page as u64 * PAGE;
                    let got = cache.read(&file("/f", PAGES as u64 * PAGE), off, PAGE, &remote);
                    assert_eq!(
                        got.unwrap().as_ref(),
                        &data[off as usize..(off + PAGE) as usize]
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Every access was a fast-path hit and every one was counted: the
    // Relaxed per-entry counters and the striped hot counters lose
    // nothing under contention.
    let total = (THREADS * ITERS) as u64;
    assert_eq!(cache.stats().hits - warm_hits, total, "no lost hit counts");
    assert_eq!(
        cache.metrics().counter("hits.slow_path").get(),
        0,
        "pure-hit load never fell back to the stripe-locked path"
    );
    assert_eq!(
        cache.stats().misses,
        warm_misses,
        "hammer phase produced no misses"
    );
    assert_eq!(remote.read_count(), warm_reads, "remote untouched");
    // Byte conservation: each iteration served exactly one page from
    // cache, so bytes_from_cache advanced by threads * iters * page.
    assert_eq!(
        cache.metrics().counter("bytes_from_cache").get() - warm_bytes,
        total * PAGE,
        "bytes served from cache match bytes requested"
    );
    cache.index().check_consistency().unwrap();
    cache.check_policy_coherence().unwrap();
}

/// A remote that panics if contacted — used to prove a phase is pure-hit.
struct NeverRemote;
impl RemoteSource for NeverRemote {
    fn read(&self, path: &str, _offset: u64, _len: u64) -> Result<Bytes> {
        panic!("remote contacted during pure-hit phase: {path}");
    }
}

#[test]
fn remote_requests_count_runs_not_pages() {
    let cache = small_cache(100, 1 << 20);
    let data = pattern(1000);
    let remote = ScriptedRemote::new().with_file("/f", data.clone());
    let f = file("/f", 1000);

    // Pre-seed pages 2 and 6, splitting the miss span into three runs:
    // pages [0,1], [3,4,5], [7,8,9].
    cache.read(&f, 200, 100, &remote).unwrap();
    cache.read(&f, 600, 100, &remote).unwrap();
    remote.reads.lock().clear();

    let got = cache.read(&f, 0, 1000, &remote).unwrap();
    assert_eq!(got.as_ref(), &data[..]);
    assert_eq!(
        remote.read_count(),
        3,
        "one request per run of missing pages"
    );
    assert_eq!(
        remote.sorted_ranges(),
        vec![(0, 200), (300, 300), (700, 300)]
    );
    // 2 + 3 + 3 pages fetched by 3 requests: 5 pages saved.
    assert_eq!(cache.metrics().counter("fetch.coalesced_pages").get(), 5);
}

#[test]
fn single_run_read_avoids_copies() {
    let cache = small_cache(100, 1 << 20);
    let data = pattern(1000);
    let remote = ScriptedRemote::new().with_file("/f", data.clone());
    let f = file("/f", 1000);

    // Cold read of one coalesced run: served by slicing the ranged
    // response, no reassembly copy.
    let got = cache.read(&f, 150, 500, &remote).unwrap();
    assert_eq!(got.as_ref(), &data[150..650]);
    assert_eq!(cache.metrics().counter("bytes_copied").get(), 0);

    // A warm multi-page read assembles from per-page store reads.
    let got = cache.read(&f, 150, 500, &remote).unwrap();
    assert_eq!(got.as_ref(), &data[150..650]);
    assert_eq!(cache.metrics().counter("bytes_copied").get(), 500);
}

#[test]
fn timeout_fallback_in_multi_page_read() {
    let plan = FaultPlan::none();
    let store = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
    let cache = CacheManager::builder(
        CacheConfig::default()
            .with_page_size(ByteSize::new(100))
            .with_read_timeout(Duration::from_millis(20)),
    )
    .with_store(store, 1 << 20)
    .build()
    .unwrap();
    let data = pattern(400);
    let remote = ScriptedRemote::new().with_file("/f", data.clone());
    let f = file("/f", 400);
    cache.read(&f, 0, 400, &remote).unwrap(); // All four pages cached.

    // The next local read hangs, wedging the deadline pool; §8 fallback
    // must keep serving correct bytes from the remote for every page the
    // stalled device cannot deliver in time.
    plan.set_read_hang(Duration::from_millis(200), 1);
    let got = cache.read(&f, 0, 400, &remote).unwrap();
    assert_eq!(got.as_ref(), &data[..]);
    assert!(cache.metrics().counter("fallbacks.timeout").get() >= 1);
    // Fallback does not evict: every page is still cached.
    for page in 0..4 {
        assert!(cache.contains(&f, page));
    }
}

#[test]
fn adjacent_corrupt_pages_are_repaired_by_one_coalesced_request() {
    let plan = FaultPlan::none();
    let store = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(store, 1 << 20)
        .build()
        .unwrap();
    let data = pattern(400);
    let remote = ScriptedRemote::new().with_file("/f", data.clone());
    let f = file("/f", 400);
    cache.read(&f, 0, 400, &remote).unwrap();
    for page in [1, 2] {
        plan.corrupt_page(PageId::new(f.file_id(), page));
    }
    remote.reads.lock().clear();

    // Both degraded hits re-plan as misses of one repair round, whose
    // owners coalesce like any other run of adjacent misses.
    let got = cache.read(&f, 0, 400, &remote).unwrap();
    assert_eq!(got.as_ref(), &data[..]);
    assert_eq!(remote.sorted_ranges(), vec![(100, 200)]);
    assert_eq!(cache.metrics().counter("evictions.corrupt").get(), 2);
    assert_eq!(cache.stats().misses, 4 + 2, "a repaired page is a miss");
    let diff = edgecache_metrics::SnapshotDiff::from_start(&cache.metrics().snapshot());
    edgecache_metrics::assert_conserved(&diff, &vectored::laws(true)).unwrap();

    // The repair re-cached both pages.
    cache.read(&f, 0, 400, &NeverRemote).unwrap();
    assert_eq!(cache.stats().hits, 2 + 4);
}

#[test]
fn corrupt_page_repair_is_single_flight() {
    let plan = FaultPlan::none();
    let store = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
    let cache = Arc::new(
        CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(1024)))
            .with_store(store, 1 << 20)
            .build()
            .unwrap(),
    );
    let data = pattern(1024);
    let warm = ScriptedRemote::new().with_file("/f", data.clone());
    cache.read(&file("/f", 1024), 0, 1024, &warm).unwrap();
    plan.corrupt_page(PageId::new(file("/f", 1024).file_id(), 0));

    // Whichever reader repairs first owns the gated refetch; the other
    // joins its latch — on its first classify or on its own repair.
    let remote = Arc::new(GatedRemote::new(data.clone()));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let remote = Arc::clone(&remote);
            std::thread::spawn(move || {
                cache
                    .read(&file("/f", 1024), 0, 1024, remote.as_ref())
                    .unwrap()
            })
        })
        .collect();
    let waits = cache.metrics().counter("fetch.inflight_waits");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while waits.get() < 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    remote.open_gate();
    for reader in readers {
        assert_eq!(reader.join().unwrap().as_ref(), &data[..]);
    }
    assert_eq!(waits.get(), 1, "the second reader joined the repair");
    assert_eq!(remote.requests.load(Ordering::Relaxed), 1);
    assert_eq!(cache.inflight_fetches(), 0);
}

/// A store that answers one ranged read of a chosen page a byte short.
#[derive(Default)]
struct ShortReadStore {
    inner: MemoryPageStore,
    short_once: PlMutex<Option<PageId>>,
}

impl PageStore for ShortReadStore {
    fn put(&self, id: PageId, data: &[u8]) -> Result<()> {
        self.inner.put(id, data)
    }

    fn get(&self, id: PageId, offset: u64, len: u64) -> Result<Bytes> {
        let bytes = self.inner.get(id, offset, len)?;
        let mut short = self.short_once.lock();
        if *short == Some(id) && !bytes.is_empty() {
            *short = None;
            return Ok(bytes.slice(..bytes.len() - 1));
        }
        Ok(bytes)
    }

    fn delete(&self, id: PageId) -> Result<bool> {
        self.inner.delete(id)
    }

    fn contains(&self, id: PageId) -> bool {
        self.inner.contains(id)
    }

    fn bytes_used(&self) -> u64 {
        self.inner.bytes_used()
    }

    fn recover(&self) -> Result<Vec<(PageId, u64)>> {
        self.inner.recover()
    }
}

#[test]
fn short_store_read_is_repaired_not_served() {
    let store = Arc::new(ShortReadStore::default());
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
        .with_store(Arc::clone(&store) as Arc<dyn PageStore>, 1 << 20)
        .build()
        .unwrap();
    let data = pattern(300);
    let remote = ScriptedRemote::new().with_file("/f", data.clone());
    let f = file("/f", 300);
    cache.read(&f, 0, 300, &remote).unwrap();
    remote.reads.lock().clear();

    for (offset, len) in [(120, 50), (50, 200)] {
        *store.short_once.lock() = Some(PageId::new(f.file_id(), 1));
        let got = cache.read(&f, offset, len, &remote).unwrap();
        assert_eq!(
            got.as_ref(),
            &data[offset as usize..(offset + len) as usize]
        );
    }
    // Each short page was evicted as corrupt and refetched whole.
    assert_eq!(remote.sorted_ranges(), vec![(100, 100), (100, 100)]);
    assert_eq!(cache.metrics().counter("evictions.corrupt").get(), 2);
    assert!(cache.contains(&f, 1));
}

mod vectored {
    use super::*;
    use edgecache_metrics::{assert_conserved, ConservationLaw, SnapshotDiff};

    /// The epoch conservation laws of a fresh cache (mirrors the
    /// simtest oracle — duplicated here because simtest depends on
    /// this crate).
    pub(super) fn laws(clean: bool) -> Vec<ConservationLaw> {
        let mut laws = vec![
            ConservationLaw::at_most(
                "single-flight bounds remote requests",
                &["remote_requests"],
                &["misses", "fallbacks.timeout"],
            ),
            ConservationLaw::at_most("every put came from a miss", &["puts"], &["misses"]),
            ConservationLaw::at_most(
                "assembled bytes are bounded by requested bytes",
                &["bytes_copied"],
                &["bytes_requested"],
            ),
            ConservationLaw::at_most("hits are classified reads", &["hits"], &["page_reads"]),
        ];
        if clean {
            laws.push(ConservationLaw::equal(
                "page reads balance",
                &["hits", "misses", "fallbacks.timeout"],
                &["page_reads"],
            ));
        }
        laws
    }

    fn conserved(cache: &CacheManager, clean: bool) {
        let diff = SnapshotDiff::from_start(&cache.metrics().snapshot());
        assert_conserved(&diff, &laws(clean)).unwrap();
    }

    #[test]
    fn coalesces_across_fragment_boundaries() {
        let cache = small_cache(100, 1 << 20);
        let data = pattern(1000);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 1000);

        // Three fragments whose pages tile 0..=5 without a hole: one
        // coalesced wire request despite the fragment gaps within pages.
        let frags = [(0u64, 150u64), (250, 150), (450, 150)];
        let got = cache.read_multi(&f, &frags, &remote).unwrap();
        for (i, &(off, len)) in frags.iter().enumerate() {
            assert_eq!(got[i].as_ref(), &data[off as usize..(off + len) as usize]);
        }
        assert_eq!(remote.read_count(), 1, "one request for the whole batch");
        assert_eq!(
            remote.reads.lock()[0],
            ("/f".to_string(), 0, 600),
            "pages 0..=5 fetched as one run"
        );
        assert_eq!(cache.metrics().counter("fetch.coalesced_pages").get(), 5);
        conserved(&cache, true);
    }

    #[test]
    fn gaps_between_fragments_split_runs() {
        let cache = small_cache(100, 1 << 20);
        let data = pattern(1000);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 1000);

        // Pages 0 and 3: the gap must not be fetched or bridged.
        let got = cache
            .read_multi(&f, &[(0, 100), (300, 100)], &remote)
            .unwrap();
        assert_eq!(got[0].as_ref(), &data[0..100]);
        assert_eq!(got[1].as_ref(), &data[300..400]);
        assert_eq!(remote.sorted_ranges(), vec![(0, 100), (300, 100)]);
        assert_eq!(cache.metrics().counter("fetch.coalesced_pages").get(), 0);
        conserved(&cache, true);
    }

    #[test]
    fn overlapping_fragments_classify_each_page_once() {
        let cache = small_cache(1000, 1 << 20);
        let data = pattern(1000);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 1000);

        // All three fragments share page 0. The page must be classified
        // once — a second classification would enqueue the batch as a
        // waiter on its own latch and deadlock.
        let frags = [(100u64, 200u64), (0, 200), (150, 50)];
        let got = cache.read_multi(&f, &frags, &remote).unwrap();
        for (i, &(off, len)) in frags.iter().enumerate() {
            assert_eq!(got[i].as_ref(), &data[off as usize..(off + len) as usize]);
        }
        assert_eq!(remote.read_count(), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.metrics().counter("page_reads").get(), 1);
        conserved(&cache, true);
    }

    #[test]
    fn cold_fragments_in_one_run_are_zero_copy() {
        let cache = small_cache(100, 1 << 20);
        let data = pattern(1000);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 1000);

        // Cold: both fragments are slices of the single coalesced run.
        let got = cache
            .read_multi(&f, &[(0, 300), (300, 300)], &remote)
            .unwrap();
        assert_eq!(got[0].as_ref(), &data[0..300]);
        assert_eq!(got[1].as_ref(), &data[300..600]);
        assert_eq!(cache.metrics().counter("bytes_copied").get(), 0);

        // Warm: each multi-page fragment stitches per-page store reads.
        let got = cache
            .read_multi(&f, &[(0, 300), (300, 300)], &remote)
            .unwrap();
        assert_eq!(got[0].as_ref(), &data[0..300]);
        assert_eq!(got[1].as_ref(), &data[300..600]);
        assert_eq!(cache.metrics().counter("bytes_copied").get(), 600);
        conserved(&cache, true);
    }

    #[test]
    fn mixed_hits_and_misses_serve_correct_bytes() {
        let cache = small_cache(100, 1 << 20);
        let data = pattern(1000);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 1000);

        // Warm pages 2 and 6, then batch-read fragments straddling them.
        cache.read(&f, 200, 100, &remote).unwrap();
        cache.read(&f, 600, 100, &remote).unwrap();
        remote.reads.lock().clear();

        let frags = [(150u64, 300u64), (550, 300)];
        let got = cache.read_multi(&f, &frags, &remote).unwrap();
        assert_eq!(got[0].as_ref(), &data[150..450]);
        assert_eq!(got[1].as_ref(), &data[550..850]);
        // Misses: pages 1, 3, 4 and 5, 7, 8 → runs [1], [3,4,5], [7,8].
        assert_eq!(
            remote.sorted_ranges(),
            vec![(100, 100), (300, 300), (700, 200)]
        );
        assert_eq!(cache.stats().hits, 2);
        conserved(&cache, true);
    }

    #[test]
    fn degenerate_and_eof_fragments_resolve_empty() {
        let cache = small_cache(100, 1 << 20);
        let data = pattern(250);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 250);
        let got = cache
            .read_multi(&f, &[(0, 0), (240, 100), (500, 10), (100, 50)], &remote)
            .unwrap();
        assert!(got[0].is_empty());
        assert_eq!(got[1].as_ref(), &data[240..250], "clamped at EOF");
        assert!(got[2].is_empty(), "fragment past EOF");
        assert_eq!(got[3].as_ref(), &data[100..150]);
        assert!(cache.read_multi(&f, &[], &remote).unwrap().is_empty());
        conserved(&cache, true);
    }

    /// A remote that fails every range at or beyond a cutoff offset.
    pub(super) struct HalfBrokenRemote {
        pub(super) inner: ScriptedRemote,
        pub(super) fail_from: u64,
    }

    impl RemoteSource for HalfBrokenRemote {
        fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
            if offset >= self.fail_from {
                return Err(Error::Other(format!("injected failure at {offset}")));
            }
            self.inner.read(path, offset, len)
        }
    }

    #[test]
    fn mid_batch_error_fails_whole_read_and_releases_latches() {
        let cache = small_cache(100, 1 << 20);
        let data = pattern(1000);
        let remote = HalfBrokenRemote {
            inner: ScriptedRemote::new().with_file("/f", data.clone()),
            fail_from: 500,
        };
        let f = file("/f", 1000);

        // Second run fails: the whole batch errors, but every owned
        // latch must still be published or released.
        let err = cache.read_multi(&f, &[(0, 100), (600, 100)], &remote);
        assert!(err.is_err());
        assert_eq!(cache.inflight_fetches(), 0, "no latch leaked");

        // The failed epoch is lossy but still conserved.
        conserved(&cache, false);

        // The surviving run was published; a working remote completes
        // the rest.
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let got = cache
            .read_multi(&f, &[(0, 100), (600, 100)], &remote)
            .unwrap();
        assert_eq!(got[0].as_ref(), &data[0..100]);
        assert_eq!(got[1].as_ref(), &data[600..700]);
        assert_eq!(
            remote.read_count(),
            1,
            "page 0 was cached before the failure"
        );
    }

    #[test]
    fn vectored_read_joins_inflight_singleflight() {
        let cache = Arc::new(small_cache(1024, 1 << 20));
        let data = pattern(2048);
        let remote = Arc::new(GatedRemote::new(data.clone()));

        // One plain reader owns the gated fetch of page 0...
        let owner = {
            let cache = Arc::clone(&cache);
            let remote = Arc::clone(&remote);
            std::thread::spawn(move || {
                cache
                    .read(&file("/f", 2048), 0, 1024, remote.as_ref())
                    .unwrap()
            })
        };
        let waits = cache.metrics().counter("fetch.inflight_waits");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while cache.inflight_fetches() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }

        // ...then a vectored reader needs pages 0 and 1: it must join
        // the in-flight fetch for page 0 and own only page 1.
        let vectored = {
            let cache = Arc::clone(&cache);
            let remote = Arc::clone(&remote);
            std::thread::spawn(move || {
                cache
                    .read_multi(
                        &file("/f", 2048),
                        &[(0, 1024), (1024, 1024)],
                        remote.as_ref(),
                    )
                    .unwrap()
            })
        };
        while waits.get() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(waits.get(), 1, "vectored reader joined the fetch");
        remote.open_gate();

        assert_eq!(owner.join().unwrap().as_ref(), &data[..1024]);
        let got = vectored.join().unwrap();
        assert_eq!(got[0].as_ref(), &data[..1024]);
        assert_eq!(got[1].as_ref(), &data[1024..]);
        assert_eq!(cache.inflight_fetches(), 0);
    }
}

mod equivalence {
    use super::*;
    use proptest::prelude::*;

    fn cache_with(page_size: u64, parallel: bool) -> CacheManager {
        let mut config = CacheConfig::default().with_page_size(ByteSize::new(page_size));
        if !parallel {
            config = config
                .with_coalesce_fetches(false)
                .with_max_concurrent_fetches(1);
        }
        CacheManager::builder(config)
            .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
            .build()
            .unwrap()
    }

    proptest! {
        /// The parallel coalesced pipeline and the sequential
        /// single-fetch baseline return byte-identical results for any
        /// read sequence, and both match the source of truth.
        #[test]
        fn parallel_reads_match_sequential(
            page_size in 64u64..=512,
            file_len in 1usize..6000,
            reads in proptest::collection::vec((0u64..6000, 0u64..3000), 1..8),
        ) {
            let data = pattern(file_len);
            let parallel = cache_with(page_size, true);
            let sequential = cache_with(page_size, false);
            for &(offset, len) in &reads {
                let remote_p =
                    ScriptedRemote::new().with_file("/f", data.clone());
                let remote_s =
                    ScriptedRemote::new().with_file("/f", data.clone());
                let f = file("/f", file_len as u64);
                let got_p = parallel.read(&f, offset, len, &remote_p).unwrap();
                let got_s = sequential.read(&f, offset, len, &remote_s).unwrap();
                let start = (offset as usize).min(file_len);
                let end = ((offset + len) as usize).min(file_len);
                prop_assert_eq!(got_p.as_ref(), &data[start..end]);
                prop_assert_eq!(got_p.as_ref(), got_s.as_ref());
            }
            parallel.index().check_consistency().unwrap();
            sequential.index().check_consistency().unwrap();
        }

        /// One vectored `read_multi` over an arbitrary fragment list —
        /// overlapping, adjacent, out-of-order, EOF-straddling — returns
        /// byte-identical results to a sequential `read` loop, and both
        /// caches satisfy the epoch conservation laws.
        #[test]
        fn read_multi_matches_sequential_read_loop(
            page_size in 64u64..=512,
            file_len in 1usize..6000,
            frags in proptest::collection::vec((0u64..6000, 0u64..1500), 1..10),
        ) {
            let data = pattern(file_len);
            let vectored = cache_with(page_size, true);
            let sequential = cache_with(page_size, true);
            let remote_v = ScriptedRemote::new().with_file("/f", data.clone());
            let remote_s = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", file_len as u64);
            let got_v = vectored.read_multi(&f, &frags, &remote_v).unwrap();
            prop_assert_eq!(got_v.len(), frags.len());
            for (i, &(offset, len)) in frags.iter().enumerate() {
                let got_s = sequential.read(&f, offset, len, &remote_s).unwrap();
                let start = (offset as usize).min(file_len);
                let end = (offset.saturating_add(len) as usize).min(file_len).max(start);
                prop_assert_eq!(got_v[i].as_ref(), &data[start..end], "fragment {}", i);
                prop_assert_eq!(got_v[i].as_ref(), got_s.as_ref(), "fragment {}", i);
            }
            // The vectored batch must never cost more wire requests than
            // the sequential loop.
            prop_assert!(remote_v.read_count() <= remote_s.read_count());
            for cache in [&vectored, &sequential] {
                cache.index().check_consistency().unwrap();
                let diff = edgecache_metrics::SnapshotDiff::from_start(
                    &cache.metrics().snapshot(),
                );
                edgecache_metrics::assert_conserved(&diff, &super::vectored::laws(true))
                    .unwrap();
            }
        }

        /// Mid-batch remote failures: whatever subset of ranges a remote
        /// rejects, `read_multi` fails all-or-nothing, leaks no latch,
        /// stays conserved, and a subsequent clean batch returns the
        /// ground truth.
        #[test]
        fn read_multi_survives_mid_batch_remote_errors(
            page_size in 64u64..=512,
            file_len in 1usize..4000,
            frags in proptest::collection::vec((0u64..4000, 1u64..1200), 1..8),
            fail_from in 0u64..4000,
        ) {
            let data = pattern(file_len);
            let cache = cache_with(page_size, true);
            let broken = super::vectored::HalfBrokenRemote {
                inner: ScriptedRemote::new().with_file("/f", data.clone()),
                fail_from,
            };
            let f = file("/f", file_len as u64);
            let first = cache.read_multi(&f, &frags, &broken);
            prop_assert_eq!(cache.inflight_fetches(), 0, "no leaked latch");
            cache.index().check_consistency().unwrap();
            let diff = edgecache_metrics::SnapshotDiff::from_start(
                &cache.metrics().snapshot(),
            );
            edgecache_metrics::assert_conserved(
                &diff,
                &super::vectored::laws(first.is_ok()),
            ).unwrap();

            let clean = ScriptedRemote::new().with_file("/f", data.clone());
            let got = cache.read_multi(&f, &frags, &clean).unwrap();
            for (i, &(offset, len)) in frags.iter().enumerate() {
                let start = (offset as usize).min(file_len);
                let end = (offset.saturating_add(len) as usize).min(file_len).max(start);
                prop_assert_eq!(got[i].as_ref(), &data[start..end], "fragment {}", i);
            }
        }
    }
}

mod tracing {
    use super::*;
    use edgecache_common::SimClock;
    use edgecache_metrics::trace::chrome_trace_json;
    use std::time::Duration;

    /// A remote that charges deterministic virtual latency on a
    /// [`SimClock`] before serving bytes.
    struct VirtualLatencyRemote {
        inner: ScriptedRemote,
        clock: Arc<SimClock>,
        latency: Duration,
    }

    impl RemoteSource for VirtualLatencyRemote {
        fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
            self.clock.advance(self.latency);
            self.inner.read(path, offset, len)
        }
    }

    /// Runs one miss + one hit under a tracer and returns the records
    /// plus the Chrome export for determinism comparison.
    fn traced_run() -> (Vec<edgecache_metrics::SpanRecord>, String) {
        let clock = Arc::new(SimClock::new());
        let shared: SharedClock = Arc::new(SimClock::clone(&clock));
        let tracer = Tracer::enabled(Arc::clone(&shared));
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(1024)))
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .with_clock(shared)
                .with_tracer(tracer)
                .build()
                .unwrap();
        let data = pattern(8192);
        let remote = VirtualLatencyRemote {
            inner: ScriptedRemote::new().with_file("/f", data.clone()),
            clock,
            latency: Duration::from_micros(250),
        };
        let f = file("/f", 8192);
        assert_eq!(cache.read(&f, 0, 4096, &remote).unwrap(), &data[..4096]);
        assert_eq!(cache.read(&f, 0, 4096, &remote).unwrap(), &data[..4096]);
        let records = cache.tracer().take_records();
        let json = chrome_trace_json(&records);
        (records, json)
    }

    #[test]
    fn stage_durations_sum_to_root_latency() {
        let (records, _) = traced_run();
        let roots: Vec<_> = records
            .iter()
            .filter(|r| r.parent == SpanId::NONE.raw())
            .collect();
        assert_eq!(roots.len(), 2, "one root span per cache.read call");
        for root in &roots {
            assert_eq!(root.name, "cache.read");
            let stage_sum: u64 = records
                .iter()
                .filter(|r| r.parent == root.id)
                .map(|r| r.duration().as_nanos() as u64)
                .sum();
            let total = root.duration().as_nanos() as u64;
            // Under SimClock time only advances inside stages, so the
            // per-stage breakdown accounts for the whole read.
            assert_eq!(stage_sum, total, "stages partition {}", root.name);
        }
        // The miss read charged remote latency; the hit read was free.
        let miss_total = roots[0].duration();
        assert!(miss_total >= Duration::from_micros(250), "{miss_total:?}");
        assert_eq!(roots[1].duration(), Duration::ZERO);
    }

    #[test]
    fn miss_and_hit_produce_expected_span_kinds() {
        let (records, _) = traced_run();
        let names: Vec<&str> = records.iter().map(|r| r.name).collect();
        for stage in [
            "cache.read",
            "classify",
            "plan_fetches",
            "remote_fetch",
            "fetch_range",
            "publish",
            "serve",
            "ssd_read",
            "assemble",
        ] {
            assert!(names.contains(&stage), "missing span kind {stage}");
        }
        // The coalesced miss fetched one 4 KiB range.
        let fetch = records.iter().find(|r| r.name == "fetch_range").unwrap();
        assert!(fetch.args.iter().any(|(k, v)| *k == "len" && v == "4096"));
    }

    /// Runs one cold + one warm vectored batch, then one cold two-page
    /// `read` served by a single coalesced run, under a tracer.
    fn traced_multi_run() -> (Vec<edgecache_metrics::SpanRecord>, String) {
        let clock = Arc::new(SimClock::new());
        let shared: SharedClock = Arc::new(SimClock::clone(&clock));
        let tracer = Tracer::enabled(Arc::clone(&shared));
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(1024)))
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .with_clock(shared)
                .with_tracer(tracer)
                .build()
                .unwrap();
        let data = pattern(8192);
        let remote = VirtualLatencyRemote {
            inner: ScriptedRemote::new().with_file("/f", data.clone()),
            clock,
            latency: Duration::from_micros(250),
        };
        let f = file("/f", 8192);
        // Fragments on pages {0,1} and {4,5}: two coalesced runs.
        let frags = [(0u64, 2048u64), (4096, 2048)];
        for _ in 0..2 {
            let got = cache.read_multi(&f, &frags, &remote).unwrap();
            assert_eq!(got[0], &data[..2048]);
            assert_eq!(got[1], &data[4096..6144]);
        }
        assert_eq!(cache.read(&f, 6144, 2048, &remote).unwrap(), &data[6144..]);
        let records = cache.tracer().take_records();
        let json = chrome_trace_json(&records);
        (records, json)
    }

    #[test]
    fn vectored_stages_partition_root_latency() {
        let (records, _) = traced_multi_run();
        let roots: Vec<_> = records
            .iter()
            .filter(|r| r.parent == SpanId::NONE.raw())
            .collect();
        let root_names: Vec<&str> = roots.iter().map(|r| r.name).collect();
        assert_eq!(
            root_names,
            ["cache.read_multi", "cache.read_multi", "cache.read"],
            "one root span per call"
        );
        for root in &roots {
            let stages: Vec<_> = records.iter().filter(|r| r.parent == root.id).collect();
            // Both entry points run one pipeline with one stage list —
            // `assemble` included, even for a cold read served zero-copy.
            let names: Vec<&str> = stages.iter().map(|r| r.name).collect();
            assert_eq!(
                names,
                [
                    "classify",
                    "plan_fetches",
                    "remote_fetch",
                    "publish",
                    "serve",
                    "collect",
                    "assemble"
                ],
                "stages of {}",
                root.name
            );
            let stage_sum: u64 = stages.iter().map(|r| r.duration().as_nanos() as u64).sum();
            let total = root.duration().as_nanos() as u64;
            // Under SimClock time only advances inside stages, so the
            // stages must partition the root exactly.
            assert_eq!(stage_sum, total, "stages partition {}", root.name);
        }
        let names: Vec<&str> = records.iter().map(|r| r.name).collect();
        for stage in ["fetch_range", "ssd_read"] {
            assert!(names.contains(&stage), "missing span kind {stage}");
        }
        // The cold batch fetched two coalesced runs, the cold read one.
        let cold_fetches = records
            .iter()
            .filter(|r| r.name == "fetch_range" && r.parent != SpanId::NONE.raw())
            .count();
        assert_eq!(cold_fetches, 3);
    }

    #[test]
    fn vectored_trace_export_is_deterministic() {
        let (_, first) = traced_multi_run();
        let (_, second) = traced_multi_run();
        assert_eq!(first, second);
    }

    #[test]
    fn trace_export_is_deterministic_across_runs() {
        let (_, first) = traced_run();
        let (_, second) = traced_run();
        assert_eq!(first, second);
        assert!(first.contains("\"traceEvents\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let cache = small_cache(1024, 1 << 20);
        let data = pattern(4096);
        let remote = ScriptedRemote::new().with_file("/f", data);
        let f = file("/f", 4096);
        cache.read(&f, 0, 4096, &remote).unwrap();
        assert!(!cache.tracer().is_enabled());
        assert!(cache.tracer().take_records().is_empty());
    }
}

mod mem_tier {
    use super::*;

    /// A three-level cache: DRAM tier of `mem_cap` bytes above one SSD
    /// directory of `ssd_cap` bytes.
    fn tiered_cache(page_size: u64, ssd_cap: u64, mem_cap: u64) -> CacheManager {
        tiered_cache_on(
            Arc::new(MemoryPageStore::new()),
            page_size,
            ssd_cap,
            mem_cap,
        )
    }

    /// [`tiered_cache`] over a caller-supplied SSD store.
    fn tiered_cache_on(
        ssd: Arc<dyn PageStore>,
        page_size: u64,
        ssd_cap: u64,
        mem_cap: u64,
    ) -> CacheManager {
        CacheManager::builder(
            CacheConfig::default()
                .with_page_size(ByteSize::new(page_size))
                .with_memory_tier(ByteSize::new(mem_cap)),
        )
        .with_store(ssd, ssd_cap)
        .build()
        .unwrap()
    }

    /// Reads a range three times: the miss publishes its pages to SSD, the
    /// first SSD hit moves nothing, the second promotes — so every page of
    /// the range ends up memory-resident while the tier has room.
    fn warm(cache: &CacheManager, f: &SourceFile, offset: u64, len: u64, remote: &ScriptedRemote) {
        for _ in 0..3 {
            cache.read(f, offset, len, remote).unwrap();
        }
    }

    /// An SSD store that logs every `(page, offset, len)` it is asked for;
    /// a verified read is logged as one whole-page read.
    #[derive(Default)]
    struct LoggingStore {
        inner: MemoryPageStore,
        gets: PlMutex<Vec<(PageId, u64, u64)>>,
    }

    impl PageStore for LoggingStore {
        fn put(&self, id: PageId, data: &[u8]) -> Result<()> {
            self.inner.put(id, data)
        }

        fn get(&self, id: PageId, offset: u64, len: u64) -> Result<Bytes> {
            self.gets.lock().push((id, offset, len));
            self.inner.get(id, offset, len)
        }

        fn get_verified(&self, id: PageId) -> Result<VerifiedPage> {
            let page = self.inner.get_verified(id)?;
            self.gets.lock().push((id, 0, page.bytes().len() as u64));
            Ok(page)
        }

        fn delete(&self, id: PageId) -> Result<bool> {
            self.inner.delete(id)
        }

        fn contains(&self, id: PageId) -> bool {
            self.inner.contains(id)
        }

        fn bytes_used(&self) -> u64 {
            self.inner.bytes_used()
        }

        fn recover(&self) -> Result<Vec<(PageId, u64)>> {
            self.inner.recover()
        }
    }

    fn mem_resident_pages(cache: &CacheManager) -> u64 {
        cache
            .index()
            .pages_of_dir(cache.memory_dir().unwrap())
            .len() as u64
    }

    fn counter(cache: &CacheManager, name: &str) -> u64 {
        cache.metrics().counter(name).get()
    }

    /// The memory-tier conservation law: promotions (the tier's only way
    /// in) equal the counted exits (demotions + evictions + replaced) plus
    /// the pages currently resident — no frame ever leaves silently.
    fn assert_mem_balance(cache: &CacheManager) {
        let exits = counter(cache, "mem.demotions")
            + counter(cache, "mem.evictions")
            + counter(cache, "mem.replaced");
        assert_eq!(
            counter(cache, "mem.promotions"),
            exits + mem_resident_pages(cache),
            "memory-tier conservation: every exit must be counted"
        );
    }

    #[test]
    fn publishes_land_on_ssd_and_warm_hits_serve_from_memory() {
        let cache = tiered_cache(1024, 1 << 20, 8 * 1024);
        let data = pattern(4096);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 4096);

        cache.read(&f, 0, 4096, &remote).unwrap();
        assert_eq!(mem_resident_pages(&cache), 0, "publishes land on SSD");
        assert_eq!(cache.stats().pages, 4);

        warm(&cache, &f, 0, 4096, &remote);
        assert_eq!(mem_resident_pages(&cache), 4, "second SSD hits promote");
        assert_eq!(counter(&cache, "mem.promotions"), 4);
        assert_eq!(cache.memory_tier().unwrap().len(), 4);

        let mem_hits = counter(&cache, "mem.hits");
        let got = cache.read(&f, 100, 500, &NeverRemote).unwrap();
        assert_eq!(got.as_ref(), &data[100..600]);
        assert_eq!(counter(&cache, "mem.hits") - mem_hits, 1);
        assert_eq!(counter(&cache, "hits.slow_path"), 0);
        assert_mem_balance(&cache);
    }

    #[test]
    fn one_off_ssd_hit_reads_the_requested_range_and_moves_nothing() {
        let ssd = Arc::new(LoggingStore::default());
        let cache = tiered_cache_on(
            Arc::clone(&ssd) as Arc<dyn PageStore>,
            1024,
            1 << 20,
            8 * 1024,
        );
        let data = pattern(4096);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 4096);
        cache.read(&f, 0, 4096, &remote).unwrap();
        ssd.gets.lock().clear();

        let got = cache.read(&f, 1100, 200, &NeverRemote).unwrap();
        assert_eq!(got.as_ref(), &data[1100..1300]);
        assert_eq!(
            *ssd.gets.lock(),
            vec![(PageId::new(f.file_id(), 1), 76, 200)],
            "exactly the requested range, not the page"
        );
        assert_eq!(counter(&cache, "mem.promotions"), 0);
        assert_eq!(counter(&cache, "mem.demotions"), 0);
        assert_eq!(mem_resident_pages(&cache), 0);
        assert_mem_balance(&cache);
    }

    #[test]
    fn second_ssd_hit_promotes_and_the_next_read_is_a_memory_hit() {
        let ssd = Arc::new(LoggingStore::default());
        let cache = tiered_cache_on(
            Arc::clone(&ssd) as Arc<dyn PageStore>,
            1024,
            1 << 20,
            8 * 1024,
        );
        let data = pattern(4096);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 4096);
        let id1 = PageId::new(f.file_id(), 1);
        cache.read(&f, 0, 4096, &remote).unwrap();
        cache.read(&f, 1100, 200, &NeverRemote).unwrap();
        ssd.gets.lock().clear();

        let got = cache.read(&f, 1100, 200, &NeverRemote).unwrap();
        assert_eq!(got.as_ref(), &data[1100..1300]);
        assert_eq!(
            *ssd.gets.lock(),
            vec![(id1, 0, 1024)],
            "a promotion reads the whole page once"
        );
        assert_eq!(counter(&cache, "mem.promotions"), 1);
        assert_eq!(
            cache.index().get(&id1).unwrap().dir,
            cache.memory_dir().unwrap()
        );
        assert!(!ssd.contains(id1), "exclusive: the SSD copy moved up");
        assert_eq!(counter(&cache, "mem.hits"), 0);

        let got = cache.read(&f, 1100, 200, &NeverRemote).unwrap();
        assert_eq!(got.as_ref(), &data[1100..1300]);
        assert_eq!(counter(&cache, "mem.hits"), 1);
        assert_eq!(ssd.gets.lock().len(), 1, "served from memory");
        assert_mem_balance(&cache);
    }

    #[test]
    fn misses_into_a_full_memory_tier_demote_nothing() {
        let cache = tiered_cache(1024, 1 << 20, 2 * 1024);
        let hot = pattern(2048);
        let remote = ScriptedRemote::new()
            .with_file("/hot", hot.clone())
            .with_file("/cold", pattern(100 * 1024));
        let h = file("/hot", 2048);
        warm(&cache, &h, 0, 2048, &remote);
        assert_eq!(mem_resident_pages(&cache), 2, "the tier is full");
        let demotions = counter(&cache, "mem.demotions");
        let misses = cache.stats().misses;

        let c = file("/cold", 100 * 1024);
        for page in 0..100 {
            cache.read(&c, page * 1024, 1024, &remote).unwrap();
        }
        assert_eq!(cache.stats().misses - misses, 100);
        assert_eq!(counter(&cache, "mem.demotions"), demotions);
        assert_eq!(mem_resident_pages(&cache), 2, "the hot set stays up");
        let got = cache.read(&h, 0, 2048, &NeverRemote).unwrap();
        assert_eq!(got.as_ref(), &hot[..]);
        assert_mem_balance(&cache);
    }

    #[test]
    fn demoted_page_needs_two_fresh_ssd_hits_to_come_back() {
        let cache = tiered_cache(1024, 1 << 20, 1024);
        let remote = ScriptedRemote::new().with_file("/f", pattern(2048));
        let f = file("/f", 2048);
        let mem = cache.memory_dir().unwrap();
        let id0 = PageId::new(f.file_id(), 0);
        warm(&cache, &f, 0, 1024, &remote);
        assert_eq!(cache.index().get(&id0).unwrap().dir, mem);
        // Page 1's promotion demotes page 0, whose memory hits do not
        // travel down with it.
        warm(&cache, &f, 1024, 1024, &remote);
        assert_ne!(cache.index().get(&id0).unwrap().dir, mem, "demoted");
        let promotions = counter(&cache, "mem.promotions");

        cache.read(&f, 0, 1024, &NeverRemote).unwrap();
        assert_ne!(cache.index().get(&id0).unwrap().dir, mem);
        assert_eq!(counter(&cache, "mem.promotions"), promotions);

        cache.read(&f, 0, 1024, &NeverRemote).unwrap();
        assert_eq!(
            cache.index().get(&id0).unwrap().dir,
            mem,
            "second fresh hit"
        );
        assert_eq!(counter(&cache, "mem.promotions"), promotions + 1);
        assert_mem_balance(&cache);
        cache.index().check_consistency().unwrap();
        cache.check_policy_coherence().unwrap();
    }

    #[test]
    fn pressure_demotes_to_ssd_instead_of_dropping() {
        // Memory holds 2 pages, the working set is 4: promoting the later
        // pages must push the earlier ones *down*, not out.
        let cache = tiered_cache(1024, 1 << 20, 2 * 1024);
        let data = pattern(4096);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 4096);

        warm(&cache, &f, 0, 4096, &remote);
        assert_eq!(cache.stats().pages, 4, "no page left the hierarchy");
        assert_eq!(counter(&cache, "mem.demotions"), 2);
        assert_eq!(counter(&cache, "mem.evictions"), 0);
        assert_eq!(mem_resident_pages(&cache), 2);
        assert_mem_balance(&cache);

        // Re-reading a demoted page is a *cache* hit (SSD), not a
        // remote refetch.
        let reads_before = remote.read_count();
        let got = cache.read(&f, 0, 1024, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[..1024]);
        assert_eq!(remote.read_count(), reads_before, "served locally");
        cache.index().check_consistency().unwrap();
        cache.check_policy_coherence().unwrap();
    }

    #[test]
    fn demotion_into_a_full_device_evicts_early_and_retries() {
        let plan = FaultPlan::none();
        let ssd = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
        let cache = tiered_cache_on(ssd, 1024, 1 << 20, 1024);
        let data = pattern(3072);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 3072);
        let (id0, id1) = (PageId::new(f.file_id(), 0), PageId::new(f.file_id(), 1));
        warm(&cache, &f, 0, 1024, &remote);
        cache.read(&f, 1024, 2048, &remote).unwrap();
        // The device is full with pages 1 and 2, far below the configured
        // capacity.
        plan.set_device_capacity(2048);

        // Page 1's second SSD hit promotes it, demoting page 0 into the
        // full device: `NoSpace`, one early eviction, a successful retry.
        for _ in 0..2 {
            let got = cache.read(&f, 1024, 1024, &NeverRemote).unwrap();
            assert_eq!(got.as_ref(), &data[1024..2048]);
        }
        assert!(counter(&cache, "evictions.no_space") >= 1);
        assert_eq!(counter(&cache, "mem.demotions"), 1);
        assert_eq!(cache.index().get(&id0).unwrap().dir, 0, "demoted to SSD");
        assert_eq!(
            cache.index().get(&id1).unwrap().dir,
            cache.memory_dir().unwrap()
        );
        assert_mem_balance(&cache);
        cache.index().check_consistency().unwrap();
        cache.check_policy_coherence().unwrap();
    }

    #[test]
    fn shrink_falls_back_to_pressure_eviction_when_demotion_fails() {
        let plan = FaultPlan::none();
        let ssd = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
        let cache = tiered_cache_on(ssd, 1024, 1 << 20, 4 * 1024);
        let remote = ScriptedRemote::new().with_file("/f", pattern(4096));
        let f = file("/f", 4096);
        warm(&cache, &f, 0, 4096, &remote);
        assert_eq!(mem_resident_pages(&cache), 4);
        // The SSD holds nothing it could evict, and refuses every byte.
        plan.set_device_capacity(0);

        cache.set_memory_capacity(1024);
        assert_eq!(counter(&cache, "mem.demotions"), 0);
        assert!(counter(&cache, "evictions.mem_pressure") >= 1);
        let mem = cache.memory_dir().unwrap();
        assert!(cache.index().bytes_of_dir(mem) <= 1024, "tier fits");
        assert_mem_balance(&cache);
        cache.index().check_consistency().unwrap();
        cache.check_policy_coherence().unwrap();
    }

    #[test]
    fn ssd_hit_promotes_the_page_into_memory() {
        let cache = tiered_cache(1024, 1 << 20, 2 * 1024);
        let data = pattern(4096);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 4096);

        // Fill: pages 0 and 1 get demoted to SSD by pages 2 and 3.
        warm(&cache, &f, 0, 4096, &remote);
        let mem = cache.memory_dir().unwrap();
        let id0 = PageId::new(f.file_id(), 0);
        assert_ne!(cache.index().get(&id0).unwrap().dir, mem);
        let promotions = counter(&cache, "mem.promotions");

        // Its second SSD hit moves the page back up (exclusive move: the
        // SSD copy is deleted, something else is demoted to make room).
        for _ in 0..2 {
            let got = cache.read(&f, 0, 1024, &NeverRemote).unwrap();
            assert_eq!(got.as_ref(), &data[..1024]);
        }
        assert_eq!(cache.index().get(&id0).unwrap().dir, mem, "promoted");
        assert_eq!(counter(&cache, "mem.promotions"), promotions + 1);
        assert_eq!(cache.stats().pages, 4, "promotion moves, never copies");
        assert_mem_balance(&cache);
        cache.index().check_consistency().unwrap();
    }

    #[test]
    fn promotion_preserves_ttl_epoch() {
        let cache = tiered_cache(1024, 1 << 20, 2 * 1024);
        let remote = ScriptedRemote::new().with_file("/f", pattern(4096));
        let f = file("/f", 4096);
        cache.read(&f, 0, 4096, &remote).unwrap();
        let id0 = PageId::new(f.file_id(), 0);
        let before = cache.index().get(&id0).unwrap().created_ms;
        cache.read(&f, 0, 1024, &NeverRemote).unwrap();
        cache.read(&f, 0, 1024, &NeverRemote).unwrap(); // promote
        let after = cache.index().get(&id0).unwrap();
        assert_eq!(after.dir, cache.memory_dir().unwrap(), "promoted");
        assert_eq!(
            before, after.created_ms,
            "a tier move must not reset the TTL clock"
        );
    }

    #[test]
    fn corrupt_frame_is_evicted_not_demoted() {
        // A frame whose DRAM bytes fail the tier-exit checksum must not
        // land on SSD wearing a fresh checksum: it exits via (counted)
        // eviction and the next read refetches from remote.
        let cache = tiered_cache(1024, 1 << 20, 4 * 1024);
        let data = pattern(4096);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 4096);
        warm(&cache, &f, 0, 4096, &remote);
        let id0 = PageId::new(f.file_id(), 0);
        assert!(cache.memory_tier().unwrap().corrupt_frame(id0));

        cache.set_memory_capacity(0); // force every frame out
        assert!(cache.index().get(&id0).is_none(), "corrupt frame evicted");
        assert_eq!(cache.stats().pages, 3, "healthy frames were demoted");
        assert_eq!(counter(&cache, "evictions.corrupt"), 1);
        assert_mem_balance(&cache);

        let reads_before = remote.read_count();
        let got = cache.read(&f, 0, 1024, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[..1024], "refetched clean bytes");
        assert!(remote.read_count() > reads_before);
    }

    #[test]
    fn oversized_pages_fall_back_to_ssd() {
        // Pages bigger than the memory budget never promote; the
        // hierarchy still serves them as hits.
        let cache = tiered_cache(2048, 1 << 20, 1024);
        let data = pattern(4096);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 4096);
        cache.read(&f, 0, 4096, &remote).unwrap();
        let reads = remote.read_count();
        warm(&cache, &f, 0, 4096, &remote);
        assert_eq!(remote.read_count(), reads, "hits served from SSD");
        assert_eq!(mem_resident_pages(&cache), 0);
        assert_eq!(counter(&cache, "mem.promotions"), 0);
        assert_mem_balance(&cache);
    }

    #[test]
    fn dir_usage_reports_the_memory_budget_as_capacity() {
        let cache = tiered_cache(1024, 1 << 20, 4 * 1024);
        let usage = cache.dir_usage();
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[1].2, 4 * 1024, "mem dir capacity is the budget");
        cache.set_memory_capacity(2048);
        assert_eq!(
            cache.dir_usage()[1].2,
            2048,
            "budget tracks runtime changes"
        );
    }

    #[test]
    fn mem_hit_hammer_32_threads_stays_on_the_fast_path() {
        // Satellite of the PR 6 lock-free hit path: memory hits must
        // also take zero write locks, lose no counts, and never fall
        // back to the stripe-locked slow path.
        const THREADS: usize = 32;
        const ITERS: usize = 2_000;
        const PAGE: u64 = 1024;
        const PAGES: usize = 8;

        let cache = Arc::new(tiered_cache(PAGE, 1 << 20, PAGES as u64 * PAGE));
        let data = pattern((PAGES as u64 * PAGE) as usize);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", PAGES as u64 * PAGE);

        warm(&cache, &f, 0, PAGES as u64 * PAGE, &remote);
        assert_eq!(mem_resident_pages(&cache), PAGES as u64, "all resident");
        let warm_hits = cache.stats().hits;
        let warm_mem_hits = counter(&cache, "mem.hits");
        let warm_bytes = counter(&cache, "bytes_from_cache");

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let data = data.clone();
                std::thread::spawn(move || {
                    for i in 0..ITERS {
                        let page = (t * 7 + i) % PAGES;
                        let off = page as u64 * PAGE;
                        let got =
                            cache.read(&file("/f", PAGES as u64 * PAGE), off, PAGE, &NeverRemote);
                        assert_eq!(
                            got.unwrap().as_ref(),
                            &data[off as usize..(off + PAGE) as usize]
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let total = (THREADS * ITERS) as u64;
        assert_eq!(cache.stats().hits - warm_hits, total, "no lost hit counts");
        assert_eq!(
            counter(&cache, "mem.hits") - warm_mem_hits,
            total,
            "every hammer access was a memory hit"
        );
        assert_eq!(
            counter(&cache, "hits.slow_path"),
            0,
            "memory hits never fall back to the stripe-locked path"
        );
        assert_eq!(
            counter(&cache, "bytes_from_cache") - warm_bytes,
            total * PAGE,
            "byte conservation under contention"
        );
        assert_mem_balance(&cache);
        cache.index().check_consistency().unwrap();
        cache.check_policy_coherence().unwrap();
    }

    #[test]
    fn concurrent_promote_demote_churn_conserves_bytes() {
        // Working set twice the memory budget: every reader keeps
        // promoting SSD hits while its siblings' promotions demote them
        // back. The books must balance when the dust settles.
        const THREADS: usize = 8;
        const ITERS: usize = 400;
        const PAGE: u64 = 1024;
        const PAGES: usize = 16;

        let cache = Arc::new(tiered_cache(PAGE, 1 << 20, 8 * PAGE));
        let data = pattern((PAGES as u64 * PAGE) as usize);
        let remote = Arc::new(ScriptedRemote::new().with_file("/f", data.clone()));
        let f = file("/f", PAGES as u64 * PAGE);
        cache
            .read(&f, 0, PAGES as u64 * PAGE, remote.as_ref())
            .unwrap();

        // A read that races a tier move of its page can find the bytes gone
        // from the directory it looked in; it repairs the page from the
        // remote like any lost page (a refresh that retires the moved copy).
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let remote = Arc::clone(&remote);
                let data = data.clone();
                std::thread::spawn(move || {
                    // Deterministic per-thread stride: all pages covered,
                    // different interleavings across threads.
                    for i in 0..ITERS {
                        let page = (t * 5 + i * 3) % PAGES;
                        let off = page as u64 * PAGE;
                        let f = file("/f", PAGES as u64 * PAGE);
                        let got = cache.read(&f, off, PAGE, remote.as_ref());
                        assert_eq!(
                            got.unwrap().as_ref(),
                            &data[off as usize..(off + PAGE) as usize]
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        assert_eq!(
            cache.stats().pages,
            PAGES as u64 as usize,
            "no byte left the hierarchy"
        );
        assert_eq!(
            cache.metrics().counter("mem.evictions").get(),
            0,
            "pressure only ever demoted"
        );
        assert_mem_balance(&cache);
        let diff = edgecache_metrics::SnapshotDiff::from_start(&cache.metrics().snapshot());
        edgecache_metrics::assert_conserved(&diff, &super::vectored::laws(true)).unwrap();
        cache.index().check_consistency().unwrap();
        cache.check_policy_coherence().unwrap();
        // Store bytes and indexed bytes agree per directory once the
        // churn stops (the harness-grade drift check).
        for (store_bytes, indexed_bytes, _) in cache.dir_usage() {
            assert_eq!(store_bytes, indexed_bytes, "store/index drift");
        }
    }

    #[test]
    fn concurrent_promote_demote_on_local_store_keeps_checksums() {
        // The churn above over the slot store, whose verified paths a
        // memory store never reaches: a promotion carries the SSD read's
        // checksum up, a demotion writes the carried one down. Files of a
        // page and a half give pages of two sizes (two slot classes). Every
        // record left on disk must verify when the directory is reopened.
        use edgecache_pagestore::{LocalPageStore, LocalStoreConfig};
        use std::collections::HashSet;
        const PAGE: u64 = 8 * 1024;
        const LEN: u64 = PAGE + PAGE / 2;
        const FILES: usize = 8;
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;

        let dir =
            std::env::temp_dir().join(format!("edgecache-promote-local-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = LocalStoreConfig {
            page_size: PAGE,
            ..Default::default()
        };
        let store = LocalPageStore::open(&dir, config.clone()).unwrap();
        let cache = Arc::new(tiered_cache_on(Arc::new(store), PAGE, 1 << 20, 4 * PAGE));
        let files: Vec<(SourceFile, Vec<u8>)> = (0..FILES)
            .map(|i| {
                let data = (0..LEN as usize).map(|b| ((b * 7 + i * 13) % 251) as u8);
                (file(&format!("/l{i}"), LEN), data.collect())
            })
            .collect();
        let mut remote = ScriptedRemote::new();
        for (f, data) in &files {
            remote = remote.with_file(&f.path, data.clone());
        }
        let (files, remote) = (Arc::new(files), Arc::new(remote));

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (cache, files, remote) =
                    (Arc::clone(&cache), Arc::clone(&files), Arc::clone(&remote));
                std::thread::spawn(move || {
                    for i in 0..ITERS {
                        let (f, data) = &files[(t * 3 + i) % FILES];
                        let off = ((i / FILES + t) % 2) as u64 * PAGE;
                        let len = PAGE.min(LEN - off);
                        let got = cache.read(f, off, len, remote.as_ref()).unwrap();
                        assert_eq!(got.as_ref(), &data[off as usize..(off + len) as usize]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        cache.quiesce();
        assert_eq!(cache.stats().pages, 2 * FILES, "no byte left the hierarchy");
        assert!(counter(&cache, "mem.demotions") > 0, "the churn demoted");
        assert_eq!(
            counter(&cache, "evictions.corrupt"),
            0,
            "every exit check held"
        );
        assert_mem_balance(&cache);
        cache.index().check_consistency().unwrap();
        cache.check_policy_coherence().unwrap();
        for (store_bytes, indexed_bytes, _) in cache.dir_usage() {
            assert_eq!(store_bytes, indexed_bytes, "store/index drift");
        }
        let on_ssd: HashSet<PageId> = cache.index().pages_of_dir(0).into_iter().collect();
        drop(cache);

        let store = LocalPageStore::open(&dir, config).unwrap();
        let recovered = store.recover().unwrap();
        let ids: HashSet<PageId> = recovered.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, on_ssd, "every SSD page is back on reopening");
        for (f, data) in files.iter() {
            for index in 0..2 {
                let id = PageId::new(f.file_id(), index);
                if on_ssd.contains(&id) {
                    let off = (index * PAGE) as usize;
                    let want = &data[off..(off + PAGE as usize).min(data.len())];
                    assert_eq!(store.get_full(id).unwrap().as_ref(), want);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The write-behind contract: a read-through miss into a file-backed store
/// returns before its page lands. Each test breaks if the rule in its name
/// is dropped.
mod write_behind {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc;

    const PAGE: u64 = 100;

    #[derive(Default)]
    struct Gate {
        /// Pages whose put waits until released.
        held: HashSet<PageId>,
        /// Puts waiting at the gate right now.
        blocked: HashSet<PageId>,
        /// Pages whose put fails.
        failing: HashSet<PageId>,
    }

    /// A store the manager treats as file-backed (so its publishes go
    /// behind the read), whose puts of held pages block until released: a
    /// publish stays queued for exactly as long as a test needs.
    #[derive(Default)]
    struct GatedStore {
        inner: MemoryPageStore,
        gate: PlMutex<Gate>,
        changed: Condvar,
    }

    impl GatedStore {
        fn hold(&self, id: PageId) {
            self.gate.lock().held.insert(id);
        }

        fn fail(&self, id: PageId) {
            self.gate.lock().failing.insert(id);
        }

        fn release_all(&self) {
            self.gate.lock().held.clear();
            self.changed.notify_all();
        }

        /// Blocks until a put of `id` waits at the gate.
        fn wait_blocked(&self, id: PageId) {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            let mut gate = self.gate.lock();
            while !gate.blocked.contains(&id) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "no put of {id} reached the gate"
                );
                self.changed.wait_for(&mut gate, Duration::from_millis(100));
            }
        }
    }

    /// Opens the gate when dropped: declared after the manager, it lets a
    /// failing test unwind instead of hanging in the manager's drop, which
    /// lands what is queued.
    struct OpenOnDrop(Arc<GatedStore>);

    impl Drop for OpenOnDrop {
        fn drop(&mut self) {
            self.0.release_all();
        }
    }

    impl PageStore for GatedStore {
        fn put(&self, id: PageId, data: &[u8]) -> Result<()> {
            let mut gate = self.gate.lock();
            if gate.failing.contains(&id) {
                return Err(Error::Io(std::io::Error::other("injected put failure")));
            }
            if gate.held.contains(&id) {
                gate.blocked.insert(id);
                self.changed.notify_all();
                while gate.held.contains(&id) {
                    self.changed.wait(&mut gate);
                }
                gate.blocked.remove(&id);
            }
            drop(gate);
            self.inner.put(id, data)
        }

        fn get(&self, id: PageId, offset: u64, len: u64) -> Result<Bytes> {
            self.inner.get(id, offset, len)
        }

        fn delete(&self, id: PageId) -> Result<bool> {
            self.inner.delete(id)
        }

        fn contains(&self, id: PageId) -> bool {
            self.inner.contains(id)
        }

        fn bytes_used(&self) -> u64 {
            self.inner.bytes_used()
        }

        fn recover(&self) -> Result<Vec<(PageId, u64)>> {
            self.inner.recover()
        }

        fn put_is_file_io(&self) -> bool {
            true
        }
    }

    fn gated_cache(
        admission: Option<Arc<FilterRuleAdmission>>,
    ) -> (Arc<CacheManager>, Arc<GatedStore>, OpenOnDrop) {
        let store = Arc::new(GatedStore::default());
        let mut builder =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(PAGE)))
                .with_store(Arc::clone(&store) as Arc<dyn PageStore>, 1 << 20);
        if let Some(admission) = admission {
            builder = builder.with_admission(admission);
        }
        let open = OpenOnDrop(Arc::clone(&store));
        (Arc::new(builder.build().unwrap()), store, open)
    }

    /// Parks the writer in the held put of another file's page, so every
    /// publish queued after it stays queued until `release_all`. The
    /// blocker holds one of the queue's two pages while it lands.
    fn park_writer(cache: &CacheManager, store: &GatedStore) {
        let blocker = file("/blocker", PAGE);
        let remote = ScriptedRemote::new().with_file("/blocker", pattern(PAGE as usize));
        let id = PageId::new(blocker.file_id(), 0);
        store.hold(id);
        cache.read(&blocker, 0, PAGE, &remote).unwrap();
        store.wait_blocked(id);
    }

    #[test]
    fn a_queued_page_is_a_pending_hit() {
        let (cache, store, _open) = gated_cache(None);
        park_writer(&cache, &store);
        let data = pattern(PAGE as usize);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", PAGE);
        let id = PageId::new(f.file_id(), 0);

        assert_eq!(
            cache.read(&f, 0, PAGE, &remote).unwrap().as_ref(),
            &data[..]
        );
        assert!(!cache.index().contains(&id), "the page has not landed");
        assert!(cache.contains(&f, 0), "a queued page counts as cached");
        assert_eq!(cache.stats().pages, 2, "the blocker and the page");

        let got = cache.read(&f, 10, 50, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[10..60]);
        assert_eq!(remote.read_count(), 1, "served from the in-flight entry");
        assert_eq!(cache.metrics().counter("hits.pending").get(), 1);
        assert_eq!(cache.stats().hits, 1);

        store.release_all();
        cache.quiesce();
        assert!(cache.index().contains(&id));
        assert_eq!(cache.inflight_fetches(), 0);
        assert_eq!(cache.stats().pages, 2);
    }

    #[test]
    fn a_delete_after_the_read_waits_for_its_publish() {
        let (cache, store, _open) = gated_cache(None);
        park_writer(&cache, &store);
        let remote = ScriptedRemote::new().with_file("/f", pattern(PAGE as usize));
        let f = file("/f", PAGE);
        cache.read(&f, 0, PAGE, &remote).unwrap();

        let (started_tx, started) = mpsc::channel();
        let (deleted_tx, deleted) = mpsc::channel();
        let deleter = {
            let cache = Arc::clone(&cache);
            let id = f.file_id();
            std::thread::spawn(move || {
                started_tx.send(()).unwrap();
                deleted_tx.send(cache.delete_file(id)).unwrap();
            })
        };
        started.recv().unwrap();
        // The delete must wait for the read's queued publish, which waits
        // on the gate: it cannot finish before the gate opens.
        assert!(
            deleted.recv_timeout(Duration::from_millis(200)).is_err(),
            "delete_file returned while the read's publish was queued"
        );
        store.release_all();
        assert_eq!(deleted.recv().unwrap(), 1, "the landed page was deleted");
        deleter.join().unwrap();
        assert!(!cache.contains(&f, 0));
        assert!(!store.contains(PageId::new(f.file_id(), 0)));
    }

    #[test]
    fn a_put_page_during_the_queue_wins() {
        let (cache, store, _open) = gated_cache(None);
        park_writer(&cache, &store);
        let old = pattern(PAGE as usize);
        let new: Vec<u8> = old.iter().map(|b| b ^ 0xff).collect();
        let remote = ScriptedRemote::new().with_file("/f", old);
        let f = file("/f", PAGE);
        cache.read(&f, 0, PAGE, &remote).unwrap();

        cache.put_page(&f, 0, &new).unwrap();
        assert_eq!(cache.stats().pages, 2, "the put took the queued page over");
        store.release_all();
        cache.quiesce();

        assert_eq!(cache.read(&f, 0, PAGE, &remote).unwrap().as_ref(), &new[..]);
        let stored = store.get_full(PageId::new(f.file_id(), 0)).unwrap();
        assert_eq!(stored.as_ref(), &new[..], "the older landing was skipped");
        assert_eq!(cache.stats().pages, 2);
        assert_eq!(cache.inflight_fetches(), 0);
    }

    #[test]
    fn a_full_queue_publishes_inline() {
        let (cache, store, _open) = gated_cache(None);
        let data = pattern(3 * PAGE as usize);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 3 * PAGE);
        let ids: Vec<PageId> = (0..3).map(|i| PageId::new(f.file_id(), i)).collect();
        store.hold(ids[0]);
        store.hold(ids[1]);

        assert_eq!(
            cache.read(&f, 0, 3 * PAGE, &remote).unwrap().as_ref(),
            &data[..]
        );
        store.wait_blocked(ids[0]);
        assert!(
            cache.index().contains(&ids[2]),
            "third page published inline"
        );
        assert!(!cache.index().contains(&ids[1]), "second page still queued");
        assert_eq!(cache.stats().pages, 3);

        store.release_all();
        cache.quiesce();
        assert_eq!(cache.index().len(), 3);
        assert_eq!(cache.stats().pages, 3);
    }

    #[test]
    fn a_failed_deferred_put_is_booked_and_returns_the_slot() {
        let (cache, store, _open) = gated_cache(Some(partition_cap("t", 1)));
        let data = pattern(PAGE as usize);
        let r1 = ScriptedRemote::new().with_file("/f1", data.clone());
        let f1 = part_file("/f1", PAGE, "p1");
        store.fail(PageId::new(f1.file_id(), 0));

        assert_eq!(cache.read(&f1, 0, PAGE, &r1).unwrap().as_ref(), &data[..]);
        cache.quiesce();
        assert_eq!(cache.metrics().counter("errors.put.io").get(), 1);
        assert!(!cache.contains(&f1, 0));
        assert_eq!(cache.inflight_fetches(), 0);
        assert_eq!(cache.stats().pages, 0);

        let r2 = ScriptedRemote::new().with_file("/f2", pattern(PAGE as usize));
        let f2 = part_file("/f2", PAGE, "p2");
        cache.read(&f2, 0, PAGE, &r2).unwrap();
        cache.quiesce();
        assert!(
            cache.index().contains(&PageId::new(f2.file_id(), 0)),
            "failed deferred put leaked the admission slot"
        );
    }

    #[test]
    fn dropping_the_manager_lands_its_queue_and_joins_the_writer() {
        let (cache, store, open) = gated_cache(None);
        let remote = ScriptedRemote::new().with_file("/f", pattern(2 * PAGE as usize));
        let f = file("/f", 2 * PAGE);
        let ids = [PageId::new(f.file_id(), 0), PageId::new(f.file_id(), 1)];
        store.hold(ids[0]);
        cache.read(&f, 0, 2 * PAGE, &remote).unwrap();
        store.wait_blocked(ids[0]);

        let (dropped_tx, dropped) = mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(cache);
            dropped_tx.send(()).unwrap();
        });
        assert!(
            dropped.recv_timeout(Duration::from_millis(200)).is_err(),
            "drop returned with a publish still queued"
        );
        store.release_all();
        dropped.recv().unwrap();
        dropper.join().unwrap();
        assert!(ids.iter().all(|&id| store.contains(id)), "queue drained");
        drop(open);
        assert_eq!(Arc::strong_count(&store), 1, "the writer was joined");
    }

    #[test]
    fn hammer_hands_over_exactly_once() {
        // Few pages, so the cache is often full while a landing hands a
        // page over: counted twice then, it would exceed the file.
        const PAGES: u64 = 4;
        const READERS: usize = 4;
        const ITERS: u64 = 2_000;
        let dir = std::env::temp_dir().join(format!("edgecache-wb-hammer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = edgecache_pagestore::LocalPageStore::open(
            &dir,
            edgecache_pagestore::LocalStoreConfig {
                page_size: PAGE,
                ..Default::default()
            },
        )
        .unwrap();
        let cache = Arc::new(
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(PAGE)))
                .with_store(Arc::new(store), 1 << 20)
                .build()
                .unwrap(),
        );
        assert!(cache.write_behind.is_some(), "a local store defers");
        let data = pattern((PAGES * PAGE) as usize);
        let remote = Arc::new(ScriptedRemote::new().with_file("/h", data.clone()));
        let f = file("/h", PAGES * PAGE);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut readers = Vec::new();
        for r in 0..READERS as u64 {
            let (cache, remote, f, data) = (
                Arc::clone(&cache),
                Arc::clone(&remote),
                f.clone(),
                data.clone(),
            );
            readers.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    // Overlapping spans of one to three pages.
                    let first = (r + i * 3) % PAGES;
                    let len = (PAGE * (1 + (i + r) % 3)).min(PAGES * PAGE - first * PAGE);
                    let offset = first * PAGE + (i % 3);
                    let len = len - (i % 3);
                    let got = cache.read(&f, offset, len, remote.as_ref()).unwrap();
                    assert_eq!(
                        got.as_ref(),
                        &data[offset as usize..(offset + len) as usize]
                    );
                }
            }));
        }
        let deleter = {
            let (cache, stop, id) = (Arc::clone(&cache), Arc::clone(&stop), f.file_id());
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    cache.delete_file(id);
                    std::thread::yield_now();
                }
            })
        };
        let sampler = {
            let (cache, stop) = (Arc::clone(&cache), Arc::clone(&stop));
            std::thread::spawn(move || {
                let queue = cache.write_behind.as_ref().unwrap();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    // The stats formula, under the lock every hand-over
                    // takes: a page counted twice would exceed the file.
                    let (counted, _) = queue.counted(|| (cache.index().len(), 0));
                    assert!(counted <= PAGES as usize, "{counted} pages counted");
                    assert!(cache.stats().pages <= PAGES as usize);
                }
            })
        };
        for h in readers {
            h.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        deleter.join().unwrap();
        sampler.join().unwrap();

        cache.quiesce();
        assert_eq!(cache.inflight_fetches(), 0);
        cache.index().check_consistency().unwrap();
        cache.check_policy_coherence().unwrap();
        assert_eq!(cache.stats().pages, cache.index().len());
        for (store_bytes, indexed_bytes, _) in cache.dir_usage() {
            assert_eq!(store_bytes, indexed_bytes, "store/index drift");
        }
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
