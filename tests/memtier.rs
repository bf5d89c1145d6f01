//! Integration: the three-level hierarchy (DRAM → SSD → remote) end to end
//! over a real disk-backed store. Publishes land on SSD, a page's second SSD
//! hit promotes it into DRAM, pressure demotes frames to SSD instead of
//! dropping them, and a process restart recovers the SSD tier while DRAM
//! starts empty — all without the conservation books ever going out of
//! balance.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use edgecache::common::ByteSize;
use edgecache::core::config::CacheConfig;
use edgecache::core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache::pagestore::{CacheScope, LocalPageStore, LocalStoreConfig};
use parking_lot::Mutex;

const PAGE: u64 = 4 << 10;
const PAGES: u64 = 8;

struct CountingRemote {
    data: Vec<u8>,
    reads: Mutex<u64>,
}

impl CountingRemote {
    fn new() -> Self {
        Self {
            data: (0..(PAGES * PAGE) as usize)
                .map(|i| (i % 251) as u8)
                .collect(),
            reads: Mutex::new(0),
        }
    }

    fn reads(&self) -> u64 {
        *self.reads.lock()
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
    let dir = std::env::temp_dir().join(format!("edgecache-memtier-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Opens a three-tier cache: `mem_pages` DRAM frames over a disk store.
fn open_cache(dir: &PathBuf, mem_pages: u64, recover: bool) -> CacheManager {
    let store = Arc::new(
        LocalPageStore::open(
            dir,
            LocalStoreConfig {
                page_size: PAGE,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let builder = CacheManager::builder(
        CacheConfig::default()
            .with_page_size(ByteSize::new(PAGE))
            .with_memory_tier(ByteSize::new(mem_pages * PAGE)),
    )
    .with_store(store, ByteSize::mib(64).as_u64());
    let builder = if recover {
        builder.with_recovery()
    } else {
        builder
    };
    builder.build().unwrap()
}

fn file() -> SourceFile {
    SourceFile::new("/it/mem0", 1, PAGES * PAGE, CacheScope::Global)
}

/// The cross-tier conservation books: every DRAM entry (a promotion, the
/// tier's only way in) is resident or left through a counted exit.
fn assert_books_balance(cache: &CacheManager) {
    let mem = cache.memory_dir().expect("tier mounted");
    let m = cache.metrics();
    let exits = m.counter("mem.demotions").get()
        + m.counter("mem.evictions").get()
        + m.counter("mem.replaced").get();
    let resident = cache.index().pages_of_dir(mem).len() as u64;
    assert_eq!(
        m.counter("mem.promotions").get(),
        exits + resident,
        "memory tier books out of balance"
    );
    assert_eq!(
        cache.memory_tier().expect("tier mounted").len() as u64,
        resident,
        "store/index residency drift"
    );
    cache.index().check_consistency().expect("index consistent");
    cache.check_policy_coherence().expect("policy coherent");
}

#[test]
fn three_tier_read_demote_promote_restart() {
    let dir = temp_dir("e2e");
    let remote = CountingRemote::new();
    let f = file();

    {
        let cache = open_cache(&dir, 4, false);
        let mem = cache.memory_dir().expect("tier mounted");

        // Cold scan: every page fetched once and published to SSD; DRAM
        // stays empty until a page's second SSD hit.
        let got = cache.read(&f, 0, PAGES * PAGE, &remote).unwrap();
        assert_eq!(got.as_ref(), &remote.data[..]);
        cache.quiesce();
        let cold_reads = remote.reads();
        assert!(cold_reads >= 1);
        assert_books_balance(&cache);
        assert!(
            cache.index().pages_of_dir(mem).is_empty(),
            "publishes land on SSD"
        );

        // Two warm re-reads: all 8 pages come from the hierarchy, zero new
        // remote traffic. The second promotes every page; the working set
        // (8 pages) overflows the 4-frame DRAM budget, so the oldest frames
        // demote back to SSD — nothing leaves the hierarchy.
        for _ in 0..2 {
            let got = cache.read(&f, 0, PAGES * PAGE, &remote).unwrap();
            assert_eq!(got.as_ref(), &remote.data[..]);
        }
        assert_eq!(remote.reads(), cold_reads, "warm reads must not refetch");
        assert_books_balance(&cache);
        assert!(
            cache.metrics().counter("mem.promotions").get() > 0,
            "second SSD hits promote into DRAM"
        );
        assert_eq!(
            cache.index().len() as u64,
            PAGES,
            "every page stays cached across both tiers"
        );
        assert!(
            cache.metrics().counter("mem.demotions").get() >= PAGES - 4,
            "overflow must demote, not drop"
        );
        assert_eq!(cache.metrics().counter("mem.evictions").get(), 0);

        // Steady-state memory hits on the promoted pages.
        let mem_hits_before = cache.metrics().counter("mem.hits").get();
        for id in cache.index().pages_of_dir(mem) {
            let offset = id.index * PAGE;
            let got = cache.read(&f, offset, PAGE, &remote).unwrap();
            assert_eq!(
                got.as_ref(),
                &remote.data[offset as usize..(offset + PAGE) as usize]
            );
        }
        assert!(cache.metrics().counter("mem.hits").get() > mem_hits_before);
        assert_eq!(
            cache.metrics().counter("hits.slow_path").get(),
            0,
            "memory hits must stay on the lock-free fast path"
        );

        // A shrink to zero demotes every frame.
        cache.set_memory_capacity(0);
        assert!(cache.index().pages_of_dir(mem).is_empty());
        assert_eq!(cache.metrics().counter("mem.evictions").get(), 0);
        assert_books_balance(&cache);

        // Regrow: promotions resume — a demoted page's second fresh SSD
        // hit — and the books still balance.
        cache.set_memory_capacity(4 * PAGE);
        for _ in 0..2 {
            let got = cache.read(&f, 0, 2 * PAGE, &remote).unwrap();
            assert_eq!(got.as_ref(), &remote.data[..(2 * PAGE) as usize]);
        }
        assert_eq!(remote.reads(), cold_reads, "still no remote traffic");
        assert!(!cache.index().pages_of_dir(mem).is_empty());
        assert_books_balance(&cache);

        // Graceful shutdown: drain DRAM down to SSD so the restart below
        // recovers the full working set. (Frames still in DRAM at process
        // death are lost — clean and re-fetchable — which the simtest
        // crash epochs exercise; here we test the drain path.)
        cache.set_memory_capacity(0);
        assert!(cache.index().pages_of_dir(mem).is_empty());
        assert_books_balance(&cache);
    }

    // Process restart: DRAM is gone, the SSD tier recovers every page, and
    // warm reads (two, since recovery restarts every hit count) repopulate
    // memory without touching the remote.
    let cache = open_cache(&dir, 4, true);
    let mem = cache.memory_dir().expect("tier mounted");
    assert!(
        cache.index().pages_of_dir(mem).is_empty(),
        "DRAM must not survive a restart"
    );
    assert_eq!(
        cache.index().len() as u64,
        PAGES,
        "recovery restores the SSD tier"
    );
    let before = remote.reads();
    for _ in 0..2 {
        let got = cache.read(&f, 0, PAGES * PAGE, &remote).unwrap();
        assert_eq!(got.as_ref(), &remote.data[..]);
    }
    assert_eq!(
        remote.reads(),
        before,
        "recovered pages serve without remote"
    );
    assert!(
        !cache.index().pages_of_dir(mem).is_empty(),
        "warm traffic repromotes into DRAM"
    );
    assert_books_balance(&cache);

    let _ = fs::remove_dir_all(&dir);
}
