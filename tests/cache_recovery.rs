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
    // Flip a byte in one page file behind the cache's back.
    let mut flipped = false;
    for entry in walk(&dir) {
        if entry.file_name().and_then(|n| n.to_str()) == Some("2") {
            let mut raw = fs::read(&entry).unwrap();
            raw[10] ^= 0xff;
            fs::write(&entry, raw).unwrap();
            flipped = true;
        }
    }
    assert!(flipped, "expected a page named `2` on disk");

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
    use edgecache::common::hash::fnv1a64;

    let dir = temp_dir("ecp1");
    let remote = CountingRemote::new(20_000);
    let file = SourceFile::new("/t/f", 1, 20_000, CacheScope::Global);
    {
        let cache = open_cache(&dir, false);
        cache.read(&file, 0, 20_000, &remote).unwrap();
    }
    // Rewrite page 2 as the previous format wrote it: same payload, FNV-1a
    // checksum, `ECP1` magic.
    let page = walk(&dir)
        .into_iter()
        .find(|p| p.file_name().and_then(|n| n.to_str()) == Some("2"))
        .expect("a page named `2` on disk");
    let mut raw = fs::read(&page).unwrap();
    raw.truncate(raw.len() - 12);
    let checksum = fnv1a64(&raw);
    raw.extend_from_slice(&checksum.to_le_bytes());
    raw.extend_from_slice(b"ECP1");
    fs::write(&page, raw).unwrap();

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
fn leftover_tmp_files_are_discarded_on_recovery() {
    let dir = temp_dir("tmp");
    let remote = CountingRemote::new(10_000);
    let file = SourceFile::new("/t/f", 1, 10_000, CacheScope::Global);
    {
        let cache = open_cache(&dir, false);
        cache.read(&file, 0, 10_000, &remote).unwrap();
    }
    // Simulate a crash mid-write: drop a tmp file next to a real page.
    for entry in walk(&dir) {
        if entry.file_name().and_then(|n| n.to_str()) == Some("0") {
            fs::write(entry.parent().unwrap().join(".9.tmp3"), b"half a page").unwrap();
        }
    }
    let cache = open_cache(&dir, true);
    assert_eq!(cache.metrics().counter("recovered_pages").get(), 3);
    assert!(
        !walk(&dir)
            .iter()
            .any(|p| p.to_string_lossy().contains(".tmp")),
        "tmp files must be cleaned"
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

/// Recursively lists files under `dir`.
fn walk(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        if let Ok(entries) = fs::read_dir(&d) {
            for entry in entries.flatten() {
                let p = entry.path();
                if p.is_dir() {
                    stack.push(p);
                } else {
                    out.push(p);
                }
            }
        }
    }
    out
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
                verify_on_recovery: true,
                crash_plan: Some(Arc::clone(plan)),
                ..Default::default()
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
        // capacity pressure — tears the page file's tail and dies before
        // the unlink, leaving a full-length but unreadable page on disk.
        plan.arm(CrashSite::DeleteTornTail);
        let got = cache.read(&b, 0, 16 << 10, &remote).unwrap();
        assert_eq!(got.as_ref(), &remote.data[..16 << 10]);
        assert_eq!(plan.fired(), 1, "eviction must hit the armed crash point");
        // The process "dies" here: the manager drops with the torn page
        // file still present in the directory.
    }

    let cache = open_crash_cache(&dir, &plan, 32 << 10);
    assert!(
        cache.metrics().counter("recovered_pages").get() >= 1,
        "surviving pages must be re-indexed"
    );
    // Recovery must have discarded the torn page rather than re-indexing
    // it: every read after restart returns ground-truth bytes.
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
