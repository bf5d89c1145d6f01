//! **Read-path scaling** — what the parallel read-through pipeline buys.
//!
//! The paper's cache fronts fragmented OLAP scans where most requests span
//! several pages (§2.2, §7); every missing page used to cost one serial
//! remote round trip. This experiment sweeps reader threads × miss ratio
//! over a fixed-latency remote and compares the parallel pipeline
//! (coalescing + concurrent fetches) against the sequential baseline
//! (`coalesce_fetches = false`, `max_concurrent_fetches = 1`).
//!
//! A full run records `BENCH_readpath.json` at the workspace root: each
//! cell's exact remote request counts. The wall-clock speedup is printed,
//! not recorded or asserted.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use edgecache_common::ByteSize;
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache_pagestore::{CacheScope, MemoryPageStore};
use serde_json::Value;

use crate::report::{num_u, obj, Artifact, Check, ExperimentReport, TextTable};

const PAGE: u64 = 16 << 10;

/// Pages per reader range; the acceptance workload is 8-page scans.
pub const PAGES_PER_RANGE: u64 = 8;

/// A remote charging a fixed latency per request (per range).
struct SlowRemote {
    latency: Duration,
    requests: AtomicU64,
}

impl RemoteSource for SlowRemote {
    fn read(&self, path: &str, offset: u64, len: u64) -> edgecache_common::Result<Bytes> {
        self.read_ranges(path, &[(offset, len)])
            .map(|mut v| v.pop().unwrap())
    }

    fn read_ranges(
        &self,
        _path: &str,
        ranges: &[(u64, u64)],
    ) -> edgecache_common::Result<Vec<Bytes>> {
        for _ in ranges {
            self.requests.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.latency);
        }
        Ok(ranges
            .iter()
            .map(|&(_, len)| Bytes::from(vec![0u8; len as usize]))
            .collect())
    }
}

/// A free remote used to pre-seed the miss pattern.
struct FastRemote;

impl RemoteSource for FastRemote {
    fn read(&self, _path: &str, _offset: u64, len: u64) -> edgecache_common::Result<Bytes> {
        Ok(Bytes::from(vec![0u8; len as usize]))
    }
}

fn cache_with(parallel: bool) -> CacheManager {
    let mut config = CacheConfig::default().with_page_size(ByteSize::new(PAGE));
    if !parallel {
        config = config
            .with_coalesce_fetches(false)
            .with_max_concurrent_fetches(1);
    }
    CacheManager::builder(config)
        .with_store(Arc::new(MemoryPageStore::new()), ByteSize::gib(1).as_u64())
        .build()
        .expect("cache builds")
}

/// A reusable scan workload: `threads` persistent readers, each owning one
/// 8-page range of a shared file, released in barrier-synchronized waves so
/// the timed region contains only cache reads — no thread spawns.
pub struct ScanHarness {
    cache: Arc<CacheManager>,
    remote: Arc<SlowRemote>,
    barrier: Arc<Barrier>,
    stop: Arc<AtomicBool>,
    version: Arc<AtomicU64>,
    threads: u64,
    readers: Vec<std::thread::JoinHandle<()>>,
}

impl ScanHarness {
    /// Builds the harness. `parallel` selects the coalesced concurrent
    /// pipeline; `false` selects the sequential baseline configuration.
    pub fn new(parallel: bool, threads: u64, latency: Duration) -> Self {
        let cache = Arc::new(cache_with(parallel));
        let remote = Arc::new(SlowRemote {
            latency,
            requests: AtomicU64::new(0),
        });
        let barrier = Arc::new(Barrier::new(threads as usize + 1));
        let stop = Arc::new(AtomicBool::new(false));
        let version = Arc::new(AtomicU64::new(0));
        let file_len = threads * PAGES_PER_RANGE * PAGE;
        let readers = (0..threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let remote = Arc::clone(&remote);
                let barrier = Arc::clone(&barrier);
                let stop = Arc::clone(&stop);
                let version = Arc::clone(&version);
                std::thread::spawn(move || loop {
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let v = version.load(Ordering::SeqCst);
                    let f = SourceFile::new("/scan", v, file_len, CacheScope::Global);
                    let offset = t * PAGES_PER_RANGE * PAGE;
                    let got = cache
                        .read(&f, offset, PAGES_PER_RANGE * PAGE, remote.as_ref())
                        .expect("scan read");
                    assert_eq!(got.len() as u64, PAGES_PER_RANGE * PAGE);
                    barrier.wait();
                })
            })
            .collect();
        Self {
            cache,
            remote,
            barrier,
            stop,
            version,
            threads,
            readers,
        }
    }

    /// Bumps the file version (making every page cold), pre-seeds all pages
    /// except those at multiples of `miss_period` (period 1 = fully cold),
    /// then runs one synchronized scan wave. Returns the wave's wall time.
    pub fn wave(&self, miss_period: u64) -> Duration {
        let v = self.version.fetch_add(1, Ordering::SeqCst) + 1;
        let file_len = self.threads * PAGES_PER_RANGE * PAGE;
        let f = SourceFile::new("/scan", v, file_len, CacheScope::Global);
        for page in 0..self.threads * PAGES_PER_RANGE {
            if page % miss_period != 0 {
                self.cache
                    .read(&f, page * PAGE, 1, &FastRemote)
                    .expect("seed read");
            }
        }
        let start = Instant::now();
        self.barrier.wait(); // release the readers
        self.barrier.wait(); // wait for every reader to finish
        start.elapsed()
    }

    /// Remote requests issued by scan waves so far.
    pub fn requests(&self) -> u64 {
        self.remote.requests.load(Ordering::Relaxed)
    }
}

impl Drop for ScanHarness {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.barrier.wait();
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
    }
}

/// Times `iters` waves and returns (total scan time, remote requests).
fn time_scans(
    parallel: bool,
    threads: u64,
    miss_period: u64,
    iters: u64,
    latency: Duration,
) -> (Duration, u64) {
    let harness = ScanHarness::new(parallel, threads, latency);
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        total += harness.wave(miss_period);
    }
    (total, harness.requests())
}

/// Runs the read-path scaling sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "readpath",
        "Read-path scaling: coalesced parallel fetches vs. sequential (§2.2/§7)",
    );
    // Remote round trips are ms-scale for object stores / cross-rack HDFS;
    // the quick variant keeps enough latency for overlap to dominate the
    // (single-core CI) CPU cost of the waves themselves.
    let latency = Duration::from_micros(if quick { 1500 } else { 2000 });
    let iters = if quick { 8 } else { 25 };
    let thread_counts: &[u64] = if quick { &[1, 8] } else { &[1, 2, 4, 8] };
    // (label, seed period): pages at multiples of the period miss.
    let miss_ratios: &[(&str, u64)] = &[("25%", 4), ("50%", 2), ("100%", 1)];

    report.table = TextTable::new(&[
        "threads",
        "miss",
        "sequential",
        "parallel",
        "speedup",
        "seq reqs",
        "par reqs",
    ]);
    let mut cells = Vec::new();
    let mut key_speedup = 0.0f64;
    let mut cold_8 = (0u64, 0u64);
    for &threads in thread_counts {
        for &(label, period) in miss_ratios {
            let (seq, seq_reqs) = time_scans(false, threads, period, iters, latency);
            let (par, par_reqs) = time_scans(true, threads, period, iters, latency);
            let speedup = seq.as_secs_f64() / par.as_secs_f64().max(1e-9);
            report.table.row(vec![
                threads.to_string(),
                label.to_string(),
                format!("{:.1} ms", seq.as_secs_f64() * 1e3),
                format!("{:.1} ms", par.as_secs_f64() * 1e3),
                format!("{speedup:.1}x"),
                seq_reqs.to_string(),
                par_reqs.to_string(),
            ]);
            if threads == 8 && period == 2 {
                key_speedup = speedup;
            }
            if threads == 8 && period == 1 {
                cold_8 = (seq_reqs, par_reqs);
            }
            cells.push(obj(vec![
                ("threads", num_u(threads)),
                ("miss", Value::String(label.to_string())),
                ("sequential_requests", num_u(seq_reqs)),
                ("parallel_requests", num_u(par_reqs)),
            ]));
        }
    }

    report.checks.push(Check::new(
        "cold scan coalesces runs",
        "1 request per 8-page run",
        format!("{} requests (sequential: {})", cold_8.1, cold_8.0),
        cold_8.1 * PAGES_PER_RANGE <= cold_8.0,
    ));
    report.notes.push(format!(
        "remote latency {} µs/request, {} iterations per cell, {} pages of {} per range",
        latency.as_micros(),
        iters,
        PAGES_PER_RANGE,
        ByteSize::new(PAGE),
    ));
    // A wall-clock ratio of sleeping threads on a shared host: reported,
    // not asserted.
    report.notes.push(format!(
        "8-thread 50%-miss speedup {key_speedup:.1}x over sequential (wall clock, not asserted)"
    ));

    // Quick runs are reduced-scale: only a full run records the artifact.
    if !quick {
        let json = obj(vec![
            ("experiment", Value::String("readpath_scaling".to_string())),
            ("latency_us", num_u(latency.as_micros() as u64)),
            ("iterations", num_u(iters)),
            ("page_size", num_u(PAGE)),
            ("pages_per_range", num_u(PAGES_PER_RANGE)),
            ("cells", Value::Array(cells)),
        ]);
        report.artifact = Some(Artifact {
            file: "BENCH_readpath.json",
            json,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_coalesces_cold_scans() {
        let report = run(true);
        assert!(report.all_ok(), "{report}");
    }
}
