//! Operator tooling for edgecache cache directories.
//!
//! The paper's operational sections (§7, §8) describe the day-2 work of
//! running thousands of cache deployments: inspecting usage, chasing
//! corruption, and purging data (not least for the data-privacy
//! requirements that motivated TTL eviction). This crate implements those
//! workflows against the on-disk layout of `edgecache-pagestore`:
//!
//! * [`inspect`] — page/byte/file counts and layout info;
//! * [`verify`] — full checksum scan, reporting (and optionally deleting)
//!   corrupt pages;
//! * [`top`] — largest cached files;
//! * [`purge`] — delete everything, or one file's pages;
//! * [`trace_summary`] — per-stage latency table from a Chrome trace dump
//!   (written by `simtest --trace-dump` or the `trace_dump` bench);
//! * [`start_serve`] — the network front-end: a memcached-protocol server
//!   over a recovered cache directory (`edgecache-cli serve`).
//!
//! The binary (`edgecache-cli`) dispatches on [`args::parse_cli`], which is
//! strict: every subcommand rejects arguments it doesn't understand.

pub mod args;

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use edgecache_common::clock::system_clock;
use edgecache_common::error::{Error, Result};
use edgecache_common::ByteSize;
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::{CacheManager, TtlJanitor};
use edgecache_metrics::trace::summarize_chrome_trace;
use edgecache_metrics::StageSummary;
use edgecache_pagestore::{CacheScope, FileId, LocalPageStore, LocalStoreConfig, PageStore};
use edgecache_server::server::{serve, ServerConfig, ServerHandle};

pub use args::{parse_cli, CliCommand, ServeArgs, USAGE};

/// Summary of a cache directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InspectReport {
    pub page_size: u64,
    pub pages: usize,
    pub bytes: u64,
    pub files: usize,
}

impl std::fmt::Display for InspectReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "page size : {}", ByteSize::new(self.page_size))?;
        writeln!(f, "pages     : {}", self.pages)?;
        writeln!(f, "bytes     : {}", ByteSize::new(self.bytes))?;
        write!(f, "files     : {}", self.files)
    }
}

/// Opens the store at `dir`, auto-detecting its page size.
fn open(dir: &Path) -> Result<LocalPageStore> {
    let page_size = LocalPageStore::detect_page_size(dir).ok_or_else(|| {
        Error::InvalidArgument(format!(
            "`{}` does not look like an edgecache directory (no page_size= folder)",
            dir.display()
        ))
    })?;
    LocalPageStore::open(
        dir,
        LocalStoreConfig {
            page_size,
            ..Default::default()
        },
    )
}

/// Summarizes a cache directory.
pub fn inspect(dir: &Path) -> Result<InspectReport> {
    let store = open(dir)?;
    let pages = store.recover()?;
    let files: std::collections::HashSet<FileId> = pages.iter().map(|(id, _)| id.file).collect();
    Ok(InspectReport {
        page_size: store.page_size(),
        pages: pages.len(),
        bytes: pages.iter().map(|(_, s)| s).sum(),
        files: files.len(),
    })
}

/// Result of a verification scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    pub checked: usize,
    pub corrupt: usize,
    /// Whether corrupt pages were deleted.
    pub repaired: bool,
}

/// Verifies every page's checksum. With `repair`, corrupt pages are deleted
/// (the §8 "early eviction" applied offline).
pub fn verify(dir: &Path, repair: bool) -> Result<VerifyReport> {
    let store = open(dir)?;
    let pages = store.recover()?;
    let mut corrupt = 0;
    for (id, _) in &pages {
        match store.get_full(*id) {
            Ok(_) => {}
            Err(Error::Corrupted(_)) => {
                corrupt += 1;
                if repair {
                    store.delete(*id)?;
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(VerifyReport {
        checked: pages.len(),
        corrupt,
        repaired: repair,
    })
}

/// The `n` largest cached files: `(file id, pages, bytes)`.
pub fn top(dir: &Path, n: usize) -> Result<Vec<(FileId, usize, u64)>> {
    let store = open(dir)?;
    let mut by_file: HashMap<FileId, (usize, u64)> = HashMap::new();
    for (id, size) in store.recover()? {
        let e = by_file.entry(id.file).or_default();
        e.0 += 1;
        e.1 += size;
    }
    let mut out: Vec<(FileId, usize, u64)> =
        by_file.into_iter().map(|(f, (p, b))| (f, p, b)).collect();
    out.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    out.truncate(n);
    Ok(out)
}

/// Deletes cached pages: all of them, or only one file's (by hex file id).
/// Returns the number of pages removed.
///
/// The purge runs through a recovered [`CacheManager`] rather than raw store
/// deletes, so every removal flows through the index and the scope lifecycle
/// ledger — the same exit path online evictions take. An offline purge thus
/// keeps the same accounting discipline (and metrics) as the live system,
/// and cannot diverge from it as the eviction path evolves.
pub fn purge(dir: &Path, file: Option<&str>) -> Result<usize> {
    let store = open(dir)?;
    let filter = match file {
        Some(hex) => Some(FileId::from_hex(hex).ok_or_else(|| {
            Error::InvalidArgument(format!("`{hex}` is not a 16-hex-digit file id"))
        })?),
        None => None,
    };
    let page_size = store.page_size();
    let cache =
        CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(page_size)))
            .with_store(Arc::new(store), u64::MAX)
            .with_recovery()
            .build()?;
    Ok(match filter {
        Some(f) => cache.delete_file(f),
        None => cache.clear(),
    })
}

/// A running `serve` session: the TCP front-end plus the machinery that
/// must outlive it (the manager keeps the store; the janitor enforces TTL
/// expiry). Dropping the session shuts everything down gracefully and
/// joins every thread.
pub struct ServeSession {
    /// The TCP server handle (address, wait, shutdown).
    pub handle: ServerHandle,
    /// The recovered cache manager the server fronts.
    pub cache: Arc<CacheManager>,
    _janitor: Option<TtlJanitor>,
}

/// Opens (or creates) the cache directory at `args.dir`, recovers its
/// pages, and starts a memcached-protocol server over it. Returns the
/// running session; the caller decides whether to block on
/// `session.handle.wait()`.
pub fn start_serve(args: &ServeArgs) -> Result<ServeSession> {
    // Reuse the directory's page size if it already holds pages; a fresh
    // directory gets the production default.
    let page_size = LocalPageStore::detect_page_size(&args.dir)
        .unwrap_or_else(|| CacheConfig::default().page_size.as_u64());
    let store = LocalPageStore::open(
        &args.dir,
        LocalStoreConfig {
            page_size,
            ..Default::default()
        },
    )?;
    let clock = system_clock();
    let mut config = CacheConfig::default().with_page_size(ByteSize::new(page_size));
    if let Some(ttl) = args.ttl() {
        config = config.with_ttl(ttl);
    }
    let mut builder = CacheManager::builder(config)
        .with_store(Arc::new(store), args.capacity.as_u64())
        .with_clock(clock.clone())
        .with_recovery();
    for (scope, size) in &args.quotas {
        builder = builder.with_quota(CacheScope::parse(scope), *size);
    }
    let cache = Arc::new(builder.build()?);
    let janitor = args.ttl().map(|ttl| {
        // Sweep a few times per TTL window, at most once a minute.
        let interval = (ttl / 4).clamp(Duration::from_secs(1), Duration::from_secs(60));
        cache.start_ttl_janitor(interval)
    });
    let handle = serve(
        Arc::clone(&cache),
        clock,
        ServerConfig {
            addr: args.addr.clone(),
            max_connections: args.max_conns,
            allow_shutdown_command: args.allow_shutdown,
            ..Default::default()
        },
    )?;
    Ok(ServeSession {
        handle,
        cache,
        _janitor: janitor,
    })
}

/// Summarizes a Chrome trace-event dump (`simtest --trace-dump`, the
/// `trace_dump` bench, or any `Tracer::chrome_trace_json` output) into a
/// per-stage latency table, sorted by total time descending.
pub fn trace_summary(path: &Path) -> Result<Vec<StageSummary>> {
    let raw = std::fs::read_to_string(path)?;
    let doc = serde_json::parse_value(&raw)
        .map_err(|e| Error::InvalidArgument(format!("`{}`: {e}", path.display())))?;
    summarize_chrome_trace(&doc)
        .map_err(|e| Error::InvalidArgument(format!("`{}`: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgecache_pagestore::PageId;
    use std::path::PathBuf;

    fn setup(tag: &str) -> (PathBuf, LocalPageStore) {
        let dir = std::env::temp_dir().join(format!("edgecache-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = LocalPageStore::open(
            &dir,
            LocalStoreConfig {
                page_size: 4096,
                ..Default::default()
            },
        )
        .unwrap();
        for f in 0..3u64 {
            for p in 0..=f {
                store
                    .put(
                        PageId::new(FileId(f + 1), p),
                        &vec![7u8; 100 * (f as usize + 1)],
                    )
                    .unwrap();
            }
        }
        (dir, store)
    }

    #[test]
    fn inspect_counts_pages_files_bytes() {
        let (dir, _store) = setup("inspect");
        let r = inspect(&dir).unwrap();
        assert_eq!(r.page_size, 4096);
        assert_eq!(r.pages, 6); // 1 + 2 + 3.
        assert_eq!(r.files, 3);
        assert_eq!(r.bytes, 100 + 2 * 200 + 3 * 300);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_finds_and_repairs_corruption() {
        let (dir, store) = setup("verify");
        // Corrupt one page's payload on disk: the slot whose header
        // (`"ECS1"`, then file id and page index, little-endian, at bytes 8
        // and 16) names it, in one of the 4 KiB store's four stripe files.
        let id = PageId::new(FileId(2), 0);
        let corrupt = |k: u64| {
            let path = dir.join(format!("page_size=4096/slots_4096.{k}"));
            let mut raw = std::fs::read(&path).unwrap();
            let names = |at: usize| {
                &raw[at..at + 4] == b"ECS1"
                    && raw[at + 8..at + 16] == id.file.0.to_le_bytes()
                    && raw[at + 16..at + 24] == id.index.to_le_bytes()
            };
            let Some(at) = (0..raw.len()).step_by(48 + 4096).find(|&at| names(at)) else {
                return false;
            };
            raw[at + 48 + 1] ^= 0xff;
            std::fs::write(&path, raw).unwrap();
            true
        };
        assert!((0..4).any(corrupt), "page on disk");
        drop(store);

        let r = verify(&dir, false).unwrap();
        assert_eq!(r.checked, 6);
        assert_eq!(r.corrupt, 1);
        // Repair deletes it; a second scan is clean.
        let r = verify(&dir, true).unwrap();
        assert_eq!(r.corrupt, 1);
        let r = verify(&dir, false).unwrap();
        assert_eq!((r.checked, r.corrupt), (5, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn top_orders_by_bytes() {
        let (dir, _store) = setup("top");
        let t = top(&dir, 2).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].0, FileId(3)); // 3 pages × 300 bytes.
        assert_eq!(t[0].2, 900);
        assert_eq!(t[1].0, FileId(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn purge_all_and_by_file() {
        let (dir, _store) = setup("purge");
        assert_eq!(purge(&dir, Some(&FileId(3).as_hex())).unwrap(), 3);
        assert_eq!(inspect(&dir).unwrap().pages, 3);
        assert_eq!(purge(&dir, None).unwrap(), 3);
        assert_eq!(inspect(&dir).unwrap().pages, 0);
        assert!(purge(&dir, Some("zznothex")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_summary_reads_a_dump() {
        use edgecache_common::SimClock;
        use edgecache_metrics::Tracer;
        use std::sync::Arc;
        use std::time::Duration;

        let clock = Arc::new(SimClock::new());
        let tracer = Tracer::enabled(clock.clone());
        for micros in [100u64, 300] {
            let _span = tracer.span("cache.read");
            clock.advance(Duration::from_micros(micros));
        }
        let path =
            std::env::temp_dir().join(format!("edgecache-cli-trace-{}.json", std::process::id()));
        std::fs::write(&path, tracer.chrome_trace_json()).unwrap();

        let stages = trace_summary(&path).unwrap();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].name, "cache.read");
        assert_eq!(stages[0].count, 2);
        assert_eq!(stages[0].total, Duration::from_micros(400));
        assert_eq!(stages[0].max, Duration::from_micros(300));

        std::fs::write(&path, "not json").unwrap();
        assert!(trace_summary(&path).is_err());
        assert!(trace_summary(Path::new("/no/such/trace.json")).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_cache_dir_is_rejected() {
        let dir = std::env::temp_dir().join(format!("edgecache-cli-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(inspect(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_session_round_trips_over_tcp_and_survives_restart() {
        use std::io::{Read, Write};

        let dir = std::env::temp_dir().join(format!("edgecache-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = ServeArgs {
            dir: dir.clone(),
            addr: "127.0.0.1:0".to_string(),
            ..Default::default()
        };
        let set_get = |addr: std::net::SocketAddr, op: &[u8], want: &str| {
            let mut c = std::net::TcpStream::connect(addr).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            c.write_all(op).unwrap();
            let mut buf = [0u8; 256];
            let n = c.read(&mut buf).unwrap();
            let got = String::from_utf8_lossy(&buf[..n]).to_string();
            assert!(got.starts_with(want), "want {want:?}, got {got:?}");
        };

        let session = start_serve(&args).unwrap();
        let addr = session.handle.local_addr();
        set_get(addr, b"set k 0 0 5\r\nhello\r\n", "STORED");
        set_get(addr, b"get k\r\n", "VALUE k 0 5\r\nhello\r\nEND");
        drop(session);

        // The directory persists; a second session recovers it and serves
        // from the same store (the key table is per-session, so the page
        // bytes are there even though the key must be re-set).
        let session = start_serve(&args).unwrap();
        assert!(session.cache.stats().pages > 0, "recovery found pages");
        set_get(session.handle.local_addr(), b"version\r\n", "VERSION");
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
