//! The server's start/stop loop leaks no thread. It counts every thread of
//! the process (`/proc/self/task`), so it runs alone in this test binary:
//! beside other tests, their servers' threads would come and go while it
//! counts.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use edgecache_common::clock::system_clock;
use edgecache_common::ByteSize;
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::CacheManager;
use edgecache_pagestore::MemoryPageStore;
use edgecache_server::server::{serve, ServerConfig, ServerHandle};

fn start_server(config: ServerConfig) -> (ServerHandle, Arc<CacheManager>) {
    let clock = system_clock();
    let cache = Arc::new(
        CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::kib(4)))
            .with_store(Arc::new(MemoryPageStore::new()), ByteSize::mib(64).as_u64())
            .with_clock(clock.clone())
            .build()
            .unwrap(),
    );
    let handle = serve(Arc::clone(&cache), clock, config).unwrap();
    (handle, cache)
}

fn ephemeral() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..Default::default()
    }
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let s = TcpStream::connect(handle.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Reads until `stream` has delivered `n` bytes.
fn read_exact_bytes(stream: &mut TcpStream, n: usize) -> Vec<u8> {
    let mut buf = vec![0u8; n];
    stream.read_exact(&mut buf).unwrap();
    buf
}

/// Counts this process's live threads via /proc (Linux CI target).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

#[test]
fn start_stop_loop_leaks_no_threads() {
    // Warm up allocator/runtime threads once.
    {
        let (handle, _cache) = start_server(ephemeral());
        let mut c = connect(&handle);
        c.write_all(b"version\r\n").unwrap();
        let _ = read_exact_bytes(&mut c, 8);
        drop(c);
        handle.shutdown();
    }
    let base = thread_count();
    for round in 0..8 {
        {
            let (handle, _cache) = start_server(ephemeral());
            let mut c = connect(&handle);
            c.write_all(b"set k 0 0 1\r\nv\r\nget k\r\n").unwrap();
            let _ = read_exact_bytes(&mut c, 8);
            // One connection left open and idle: shutdown must sever it,
            // not wait out the read timeout.
            let _idle = connect(&handle);
            std::thread::sleep(Duration::from_millis(20));
            handle.shutdown();
            // `_cache` drops here; its pool drops join synchronously.
        }
        let now = thread_count();
        assert!(
            now <= base,
            "server leaked threads after round {round}: {base} before, {now} now"
        );
    }
}
