//! Integration: cold-start recovery of a disk-backed cache (§4.3).
//! A "process restart" (dropping and rebuilding the manager over the same
//! directory) must restore hits without touching the remote, discard
//! in-flight writes, and survive on-disk corruption.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use edgecache::common::ByteSize;
use edgecache::core::config::CacheConfig;
use edgecache::core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache::pagestore::{CacheScope, LocalPageStore, LocalStoreConfig, PageStore};
use parking_lot::Mutex;

struct CountingRemote {
    data: Vec<u8>,
    reads: Mutex<u64>,
}

impl CountingRemote {
    fn new(len: usize) -> Self {
        Self {
            data: (0..len).map(|i| (i % 251) as u8).collect(),
            reads: Mutex::new(0),
        }
    }
}

impl RemoteSource for CountingRemote {
    fn read(&self, _path: &str, offset: u64, len: u64) -> edgecache::Result<Bytes> {
        *self.reads.lock() += 1;
        let end = ((offset + len) as usize).min(self.data.len());
        Ok(Bytes::copy_from_slice(&self.data[offset as usize..end]))
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edgecache-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open_cache(dir: &PathBuf, recover: bool) -> CacheManager {
    let store = Arc::new(
        LocalPageStore::open(
            dir,
            LocalStoreConfig {
                page_size: 4 << 10,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let builder = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::kib(4)))
        .with_store(store, ByteSize::mib(64).as_u64());
    if recover {
        builder.with_recovery().build().unwrap()
    } else {
        builder.build().unwrap()
    }
}

#[test]
fn restart_restores_all_pages_without_remote_traffic() {
    let dir = temp_dir("restore");
    let remote = CountingRemote::new(100_000);
    let file = SourceFile::new("/t/f", 1, 100_000, CacheScope::Global);
    {
        let cache = open_cache(&dir, false);
        cache.read(&file, 0, 100_000, &remote).unwrap();
    }
    let reads_before = *remote.reads.lock();
    assert!(reads_before > 0);

    let cache = open_cache(&dir, true);
    let got = cache.read(&file, 0, 100_000, &remote).unwrap();
    assert_eq!(got.as_ref(), &remote.data[..]);
    assert_eq!(
        *remote.reads.lock(),
        reads_before,
        "recovery made remote reads"
    );
    assert_eq!(cache.stats().misses, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_page_on_disk_is_detected_and_refetched() {
    let dir = temp_dir("corrupt");
    let remote = CountingRemote::new(20_000);
    let file = SourceFile::new("/t/f", 1, 20_000, CacheScope::Global);
    {
        let cache = open_cache(&dir, false);
        cache.read(&file, 0, 20_000, &remote).unwrap();
    }
    // Flip a payload byte of page 2 behind the cache's back.
    let (path, mut raw, at) = slot_of(&dir, &file, 2);
    raw[at + HEADER + 10] ^= 0xff;
    fs::write(path, raw).unwrap();

    let cache = open_cache(&dir, true);
    let got = cache.read(&file, 0, 20_000, &remote).unwrap();
    assert_eq!(got.as_ref(), &remote.data[..], "corruption must be masked");
    assert!(
        cache.metrics().counter("evictions.corrupt").get() >= 1,
        "corrupt page must be evicted early"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pre_bump_ecp1_page_is_evicted_and_refetched_exactly_once() {
    use edgecache::common::hash::{fnv1a64, xxh64};

    let dir = temp_dir("ecp1");
    let remote = CountingRemote::new(20_000);
    let file = SourceFile::new("/t/f", 1, 20_000, CacheScope::Global);
    {
        let cache = open_cache(&dir, false);
        cache.read(&file, 0, 20_000, &remote).unwrap();
    }
    // Re-commit page 2 with the checksum the previous format (`ECP1`) used:
    // same payload, FNV-1a in the checksum field, a valid header check.
    let (path, mut raw, at) = slot_of(&dir, &file, 2);
    let len = u64::from_le_bytes(raw[at + 24..at + 32].try_into().unwrap()) as usize;
    let checksum = fnv1a64(&raw[at + HEADER..at + HEADER + len]);
    raw[at + 40..at + 48].copy_from_slice(&checksum.to_le_bytes());
    let check = xxh64(&raw[at + 8..at + HEADER], 0) as u32;
    raw[at + 4..at + 8].copy_from_slice(&check.to_le_bytes());
    fs::write(path, raw).unwrap();

    let cache = open_cache(&dir, true);
    let reads_before = *remote.reads.lock();
    let got = cache.read(&file, 0, 20_000, &remote).unwrap();
    assert_eq!(got.as_ref(), &remote.data[..]);
    assert_eq!(cache.metrics().counter("errors.get.corrupted").get(), 1);
    assert_eq!(cache.metrics().counter("evictions.corrupt").get(), 1);
    assert_eq!(
        *remote.reads.lock(),
        reads_before + 1,
        "only the pre-bump page is refetched"
    );

    // The refetch republished the page in the current format: a hit now.
    let got = cache.read(&file, 0, 20_000, &remote).unwrap();
    assert_eq!(got.as_ref(), &remote.data[..]);
    assert_eq!(*remote.reads.lock(), reads_before + 1, "second read hit");
    assert_eq!(cache.metrics().counter("errors.get.corrupted").get(), 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_page_is_refetched_at_its_first_ranged_read_after_restart() {
    use edgecache::pagestore::{CrashPlan, CrashSite, PageId};

    let dir = temp_dir("torn-range");
    let remote = CountingRemote::new(8 << 10);
    let file = SourceFile::new("/t/f", 1, 8 << 10, CacheScope::Global);
    let plan = CrashPlan::new();
    let config = LocalStoreConfig {
        page_size: 16 << 10,
        crash_plan: Some(Arc::clone(&plan)),
    };
    {
        // The page is overwritten, and the process dies before the new
        // payload's second half reaches the device.
        let store = LocalPageStore::open(&dir, config.clone()).unwrap();
        let id = PageId::new(file.file_id(), 0);
        store.put(id, &[1; 8 << 10]).unwrap();
        plan.arm(CrashSite::PutTornTail);
        assert!(store.put(id, &remote.data).is_err());
    }

    let store = Arc::new(LocalPageStore::open(&dir, config).unwrap());
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::kib(16)))
        .with_store(store, ByteSize::mib(1).as_u64())
        .with_recovery()
        .build()
        .unwrap();
    let got = cache.read(&file, 6000, 100, &remote).unwrap();
    assert_eq!(got.as_ref(), &remote.data[6000..6100]);
    assert_eq!(cache.metrics().counter("errors.get.corrupted").get(), 1);
    assert_eq!(cache.metrics().counter("evictions.corrupt").get(), 1);
    assert_eq!(*remote.reads.lock(), 1, "one refetch");
    let got = cache.read(&file, 6000, 100, &remote).unwrap();
    assert_eq!(got.as_ref(), &remote.data[6000..6100]);
    assert_eq!(*remote.reads.lock(), 1, "the second read hit");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn leftover_tmp_files_are_discarded_on_recovery() {
    let dir = temp_dir("tmp");
    let remote = CountingRemote::new(10_000);
    let file = SourceFile::new("/t/f", 1, 10_000, CacheScope::Global);
    {
        let cache = open_cache(&dir, false);
        cache.read(&file, 0, 10_000, &remote).unwrap();
    }
    // Simulate a crash mid-write: a whole slot's payload written into the
    // slot after the three pages (the first of stripe 3), its header never.
    let orphan = [vec![0; HEADER], vec![0xab; SLOT - HEADER]].concat();
    fs::write(stripe(&dir, 3), orphan).unwrap();
    let total = || (0..4).map(|k| fs::metadata(stripe(&dir, k)).unwrap().len());
    let before: u64 = total().sum();
    let cache = open_cache(&dir, true);
    assert_eq!(cache.metrics().counter("recovered_pages").get(), 3);
    // The orphaned slot is free: the next page commits into it, and no file
    // grows.
    let other = SourceFile::new("/t/g", 1, 4096, CacheScope::Global);
    cache.read(&other, 0, 4096, &remote).unwrap();
    cache.quiesce();
    assert_eq!(cache.stats().pages, 4);
    assert!(fs::read(stripe(&dir, 3)).unwrap().starts_with(b"ECS1"));
    assert_eq!(
        total().sum::<u64>(),
        before,
        "the uncommitted slot must be reused"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn page_size_change_invalidates_the_cache_directory() {
    let dir = temp_dir("resize");
    {
        let store = Arc::new(
            LocalPageStore::open(
                &dir,
                LocalStoreConfig {
                    page_size: 4 << 10,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        store
            .put(
                edgecache::pagestore::PageId::new(edgecache::pagestore::FileId(1), 0),
                &[1; 64],
            )
            .unwrap();
    }
    // Re-open with a different page size: the old layout is wiped.
    let store = LocalPageStore::open(
        &dir,
        LocalStoreConfig {
            page_size: 8 << 10,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(store.recover().unwrap().len(), 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Header bytes in front of each slot's payload.
const HEADER: usize = 48;
/// A slot of the one size class a 4 KiB store has.
const SLOT: usize = HEADER + (4 << 10);

/// Stripe file `k` (of four) of the one size class of a 4 KiB store.
fn stripe(dir: &std::path::Path, k: u64) -> PathBuf {
    dir.join(format!("page_size=4096/slots_4096.{k}"))
}

/// The stripe file holding page `index` of `file`, its bytes, and the offset
/// of the page's slot: the slot whose committed header (`"ECS1"`, then file
/// id and page index, little-endian, at bytes 8 and 16) names it.
fn slot_of(dir: &std::path::Path, file: &SourceFile, index: u64) -> (PathBuf, Vec<u8>, usize) {
    for k in 0..4 {
        let raw = fs::read(stripe(dir, k)).unwrap();
        let names = |at: usize| {
            &raw[at..at + 4] == b"ECS1"
                && raw[at + 8..at + 16] == file.file_id().0.to_le_bytes()
                && raw[at + 16..at + 24] == index.to_le_bytes()
        };
        if let Some(at) = (0..raw.len()).step_by(SLOT).find(|&at| names(at)) {
            return (stripe(dir, k), raw, at);
        }
    }
    panic!("page {index} of {} not on disk", file.path)
}

fn open_crash_cache(
    dir: &PathBuf,
    plan: &Arc<edgecache::pagestore::CrashPlan>,
    capacity: u64,
) -> CacheManager {
    let store = Arc::new(
        LocalPageStore::open(
            dir,
            LocalStoreConfig {
                page_size: 4 << 10,
                crash_plan: Some(Arc::clone(plan)),
            },
        )
        .unwrap(),
    );
    CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::kib(4)))
        .with_store(store, capacity)
        .with_recovery()
        .build()
        .unwrap()
}

#[test]
fn crash_during_eviction_recovers_without_torn_pages() {
    use edgecache::pagestore::{CrashPlan, CrashSite};

    let dir = temp_dir("crash-evict");
    let plan = CrashPlan::new();
    let remote = CountingRemote::new(32 << 10);
    let a = SourceFile::new("/t/a", 1, 32 << 10, CacheScope::Global);
    let b = SourceFile::new("/t/b", 2, 16 << 10, CacheScope::Global);
    {
        // Capacity equals /t/a exactly, so caching /t/b forces evictions.
        let cache = open_crash_cache(&dir, &plan, 32 << 10);
        cache.read(&a, 0, 32 << 10, &remote).unwrap();
        // Arm the crash point: the next page delete — an eviction under
        // capacity pressure — tears the page's payload and dies before
        // clearing its magic, leaving a committed but unreadable page.
        plan.arm(CrashSite::DeleteTornTail);
        let got = cache.read(&b, 0, 16 << 10, &remote).unwrap();
        assert_eq!(got.as_ref(), &remote.data[..16 << 10]);
        assert_eq!(plan.fired(), 1, "eviction must hit the armed crash point");
        // The process "dies" here: the manager drops with the torn page
        // still committed on disk.
    }

    let cache = open_crash_cache(&dir, &plan, 32 << 10);
    assert!(
        cache.metrics().counter("recovered_pages").get() >= 1,
        "surviving pages must be re-indexed"
    );
    // Recovery re-indexes the torn page unverified, so its first read is
    // `Corrupted` and refetched: every read after restart returns
    // ground-truth bytes.
    for (file, len) in [(&a, 32usize << 10), (&b, 16 << 10)] {
        let got = cache.read(file, 0, len as u64, &remote).unwrap();
        assert_eq!(
            got.as_ref(),
            &remote.data[..len],
            "recovery served a torn page of {}",
            file.path
        );
    }
    assert_eq!(plan.fired(), 1, "recovery must not re-trigger the crash");
    cache.index().check_consistency().unwrap();
    let _ = fs::remove_dir_all(&dir);
}
