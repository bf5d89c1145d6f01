//! Regression test: dropping a `CacheManager` (and its TTL janitor) must
//! leave no background threads behind.
//!
//! The network server wraps a `CacheManager` and may be started and stopped
//! many times in one process (tests, config reloads, embedders). The fetch
//! pool, the read-timeout I/O pool, the TTL janitor and (over a file-backed
//! store) the write-behind writer each own OS threads; if any of them is
//! detached instead of joined, every start/stop cycle leaks threads until
//! the process hits a limit. Counting `/proc/self/task` entries across a
//! start/stop loop pins the fix.

use std::sync::Arc;
use std::time::{Duration, Instant};

use edgecache_common::ByteSize;
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache_pagestore::{
    CacheScope, LocalPageStore, LocalStoreConfig, MemoryPageStore, PageStore,
};

struct ZeroRemote;

impl RemoteSource for ZeroRemote {
    fn read(
        &self,
        _path: &str,
        _offset: u64,
        len: u64,
    ) -> edgecache_common::error::Result<bytes::Bytes> {
        Ok(bytes::Bytes::from(vec![0u8; len as usize]))
    }
}

/// Live OS threads of this process (Linux). `None` where /proc is absent —
/// the test then only exercises the drop paths without the count assertion.
fn thread_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

/// Waits until at most `base` threads are alive. A joined thread can stay
/// listed in `/proc/self/task` for a moment after `join` returns (the kernel
/// reaps it after waking the joiner), so only a count still high at the
/// deadline is a leak.
fn settles_to(base: usize) -> std::result::Result<(), usize> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match thread_count() {
            Some(now) if now > base => {
                if Instant::now() >= deadline {
                    return Err(now);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            _ => return Ok(()),
        }
    }
}

fn build_cache(store: Arc<dyn PageStore>) -> Arc<CacheManager> {
    Arc::new(
        CacheManager::builder(
            CacheConfig::default()
                .with_page_size(ByteSize::new(1024))
                .with_ttl(Duration::from_secs(3600))
                // Both pools on: the fetch pool (max_concurrent_fetches > 1)
                // and the read-timeout I/O pool.
                .with_max_concurrent_fetches(4)
                .with_read_timeout(Duration::from_secs(5)),
        )
        .with_store(store, 1 << 20)
        .build()
        .expect("build cache"),
    )
}

#[test]
fn repeated_start_stop_leaks_no_threads() {
    let dir = std::env::temp_dir().join(format!("edgecache-leak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Even rounds use a memory store (pools and janitor only), odd rounds a
    // local store, whose manager also runs a write-behind writer.
    let store = |round: usize| -> Arc<dyn PageStore> {
        if round.is_multiple_of(2) {
            Arc::new(MemoryPageStore::new())
        } else {
            let config = LocalStoreConfig {
                page_size: 1024,
                ..Default::default()
            };
            Arc::new(LocalPageStore::open(dir.join(format!("r{round}")), config).expect("open"))
        }
    };
    // Warm-up cycle: lets the runtime allocate whatever one-time threads it
    // wants before the baseline is taken.
    {
        let cache = build_cache(store(0));
        let janitor = cache.start_ttl_janitor(Duration::from_secs(3600));
        let file = SourceFile::new("/warm", 1, 4096, CacheScope::Global);
        cache.read(&file, 0, 4096, &ZeroRemote).expect("read");
        drop(janitor);
    }

    let baseline = thread_count();
    for round in 0..16 {
        let cache = build_cache(store(round));
        // A janitor with an hour-long interval: the join in Drop must not
        // wait out the interval (the condvar wakes it immediately).
        let janitor = cache.start_ttl_janitor(Duration::from_secs(3600));
        // Touch the read path so the fetch pool actually spins up work.
        let file = SourceFile::new(format!("/f{round}"), 1, 8192, CacheScope::Global);
        cache.read(&file, 0, 8192, &ZeroRemote).expect("read");
        drop(janitor);
        drop(cache);
        if let Some(base) = baseline {
            if let Err(now) = settles_to(base) {
                panic!(
                    "round {round}: {now} threads alive after 10 s, baseline {base} — \
                     a pool, janitor or writer thread was detached instead of joined"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
