//! **Hot path** — wall-clock throughput of the lock-free hit path.
//!
//! Unlike the modeled experiments, this suite runs real threads against a
//! real clock: the point is the *synchronization* cost of the serve path,
//! which simulated time cannot see. Four benchmarks sweep 1/4/8/16
//! threads:
//!
//! * `hit_serve` — full `cache.read` over a warm working set. Every access
//!   must classify on the optimistic fast path (shard read lock +
//!   per-entry `Relaxed` atomics); the `hits.slow_path` counter staying at
//!   zero is the machine-checkable proof that no hit took a write lock.
//! * `mem_hit_serve` — the same hammer with the DRAM tier mounted: the
//!   working set is memory-resident, so every read must serve zero-copy
//!   from a DRAM frame on the same lock-free fast path (zero slow-path
//!   hits, zero misses, zero lower-tier hits).
//! * `index_touch` — the bare `IndexManager::touch` probe, isolating the
//!   index's contribution to hit latency.
//! * `singleflight` — rendezvous throughput: every round all threads miss
//!   on the same cold page and the sharded in-flight table must collapse
//!   them into exactly one remote fetch.
//!
//! A full run records `BENCH_hotpath.json` at the workspace root.
//! Wall-clock numbers are machine-dependent, so the JSON records
//! `host_cpus` and the checks are host-aware: the ≥3x scaling check (1→8
//! threads) is enforced only on hosts with ≥8 CPUs; smaller hosts instead
//! check that contention does not *collapse* throughput (8 threads keep at
//! least half the single-thread rate) plus the machine-independent
//! invariants (zero slow-path hits, exact single-flight dedup).
//! `bench hotpath --check` compares everything but `WALL_CLOCK` with the
//! committed JSON; wall-clock regressions are the repo benchmark's job.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use bytes::Bytes;
use edgecache_common::ByteSize;
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache_pagestore::{CacheScope, MemoryPageStore, PageId};
use serde_json::Value;

use crate::report::{host_cpus, num_f, num_u, obj, Artifact, Check, ExperimentReport, TextTable};

/// Thread counts swept by every benchmark.
const THREADS: [usize; 4] = [1, 4, 8, 16];
/// Page size for the benchmark caches.
const PAGE: u64 = 4096;
/// Warm working set: small enough to stay resident, large enough that
/// threads do not all hammer one shard.
const PAGES: usize = 64;
/// What `--check` ignores: the wall-clock cells and the host shape.
pub(crate) const WALL_CLOCK: &[&str] = &["ops_per_sec", "host_cpus"];

/// Serves deterministic bytes for any path, instantly, and counts requests.
struct CountingRemote {
    requests: AtomicU64,
}

impl CountingRemote {
    fn new() -> Self {
        Self {
            requests: AtomicU64::new(0),
        }
    }

    fn requests(&self) -> u64 {
        // Relaxed: read after thread::join, which already synchronizes.
        self.requests.load(Ordering::Relaxed)
    }
}

impl RemoteSource for CountingRemote {
    fn read(&self, path: &str, offset: u64, len: u64) -> edgecache_common::Result<Bytes> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let seed = path.len() as u64;
        Ok(Bytes::from(
            (offset..offset + len)
                .map(|i| (i.wrapping_add(seed) % 251) as u8)
                .collect::<Vec<u8>>(),
        ))
    }
}

fn build_cache(capacity: u64) -> Arc<CacheManager> {
    Arc::new(
        CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(PAGE)))
            .with_store(Arc::new(MemoryPageStore::new()), capacity)
            .build()
            .expect("cache builds"),
    )
}

fn source_file() -> SourceFile {
    SourceFile::new("/hot/f0", 1, PAGES as u64 * PAGE, CacheScope::Global)
}

/// Runs `body(thread, iteration)` on `threads` real threads after a shared
/// barrier and returns (total ops, wall-clock ops per second). Each worker
/// clocks its own span; throughput uses the union span (earliest start to
/// latest finish) — timing from the coordinating thread would miss work
/// that completes before the coordinator is rescheduled on small hosts.
fn measure(threads: usize, per_thread: usize, body: impl Fn(usize, usize) + Sync) -> (u64, f64) {
    let barrier = Barrier::new(threads);
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|s| {
        let body = &body;
        let barrier = &barrier;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    for i in 0..per_thread {
                        body(t, i);
                    }
                    (start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench thread"))
            .collect()
    });
    let start = spans.iter().map(|(s, _)| *s).min().expect("threads > 0");
    let end = spans.iter().map(|(_, e)| *e).max().expect("threads > 0");
    let total = (threads * per_thread) as u64;
    (total, total as f64 / (end - start).as_secs_f64().max(1e-9))
}

/// One measured cell of the sweep.
struct Cell {
    bench: &'static str,
    threads: usize,
    ops_per_sec: f64,
}

/// Full-`cache.read` hit serving over a warm working set. Returns the cell
/// plus (slow-path hits, extra misses) observed during the hammer phase.
fn bench_hit_serve(threads: usize, per_thread: usize) -> (Cell, u64, u64) {
    let cache = build_cache(1 << 26);
    let remote = CountingRemote::new();
    let f = source_file();
    cache
        .read(&f, 0, PAGES as u64 * PAGE, &remote)
        .expect("warm read");
    let slow_before = cache.metrics().counter("hits.slow_path").get();
    let misses_before = cache.stats().misses;
    let (_, ops) = measure(threads, per_thread, |t, i| {
        let page = (t * 7 + i) % PAGES;
        let got = cache
            .read(&f, page as u64 * PAGE, PAGE, &remote)
            .expect("hit read");
        assert_eq!(got.len(), PAGE as usize);
    });
    (
        Cell {
            bench: "hit_serve",
            threads,
            ops_per_sec: ops,
        },
        cache.metrics().counter("hits.slow_path").get() - slow_before,
        cache.stats().misses - misses_before,
    )
}

/// Full-`cache.read` hit serving with the DRAM tier mounted. The tier's
/// budget covers the whole warm working set, so every hammer read must be a
/// memory hit: served zero-copy from a DRAM frame, never touching the SSD
/// store or the io pool. Returns the cell plus (slow-path hits, extra
/// misses, hits served below the memory tier) observed while hammering —
/// all three must be zero.
fn bench_mem_hit_serve(threads: usize, per_thread: usize) -> (Cell, u64, u64, u64) {
    let cache = Arc::new(
        CacheManager::builder(
            CacheConfig::default()
                .with_page_size(ByteSize::new(PAGE))
                .with_memory_tier(ByteSize::new(1 << 26)),
        )
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 26)
        .build()
        .expect("cache builds"),
    );
    let remote = CountingRemote::new();
    let f = source_file();
    // Three reads warm the tier: the miss publishes to SSD, the first SSD
    // hit moves nothing, the second promotes every page into memory.
    for _ in 0..3 {
        cache
            .read(&f, 0, PAGES as u64 * PAGE, &remote)
            .expect("warm read");
    }
    let slow_before = cache.metrics().counter("hits.slow_path").get();
    let misses_before = cache.stats().misses;
    let hits_before = cache.metrics().counter("hits").get();
    let mem_before = cache.metrics().counter("mem.hits").get();
    let (_, ops) = measure(threads, per_thread, |t, i| {
        let page = (t * 7 + i) % PAGES;
        let got = cache
            .read(&f, page as u64 * PAGE, PAGE, &remote)
            .expect("hit read");
        assert_eq!(got.len(), PAGE as usize);
    });
    let hits = cache.metrics().counter("hits").get() - hits_before;
    let mem_hits = cache.metrics().counter("mem.hits").get() - mem_before;
    (
        Cell {
            bench: "mem_hit_serve",
            threads,
            ops_per_sec: ops,
        },
        cache.metrics().counter("hits.slow_path").get() - slow_before,
        cache.stats().misses - misses_before,
        hits - mem_hits,
    )
}

/// The bare index `touch` probe: one shard read lock + two Relaxed stores.
fn bench_index_touch(threads: usize, per_thread: usize) -> Cell {
    let cache = build_cache(1 << 26);
    let remote = CountingRemote::new();
    let f = source_file();
    cache
        .read(&f, 0, PAGES as u64 * PAGE, &remote)
        .expect("warm read");
    let ids: Vec<PageId> = (0..PAGES as u64)
        .map(|i| PageId::new(f.file_id(), i))
        .collect();
    let index = cache.index();
    let (_, ops) = measure(threads, per_thread, |t, i| {
        let id = &ids[(t * 7 + i) % PAGES];
        assert!(index.touch(id, 1).is_some(), "warm page stays resident");
    });
    Cell {
        bench: "index_touch",
        threads,
        ops_per_sec: ops,
    }
}

/// Rendezvous: each round, all threads miss on the same cold page at once;
/// the sharded single-flight table must emit exactly one remote request per
/// round. Returns the cell plus (rounds, remote requests).
fn bench_singleflight(threads: usize, rounds: usize) -> (Cell, u64, u64) {
    let cache = build_cache(1 << 30);
    let remote = CountingRemote::new();
    let rendezvous = Barrier::new(threads);
    let (_, ops) = {
        let cache = &cache;
        let remote = &remote;
        let rendezvous = &rendezvous;
        measure(threads, rounds, move |_, r| {
            rendezvous.wait();
            let f = SourceFile::new(format!("/sf/f{r}"), 1, PAGE, CacheScope::Global);
            let got = cache.read(&f, 0, PAGE, remote).expect("cold read");
            assert_eq!(got.len(), PAGE as usize);
        })
    };
    (
        Cell {
            bench: "singleflight",
            threads,
            ops_per_sec: ops,
        },
        rounds as u64,
        remote.requests(),
    )
}

/// Runs the hot-path sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "hotpath",
        "Lock-free hit path: wall-clock serve/index/single-flight throughput by thread count",
    );

    let (hit_iters, touch_iters, rounds, reps) = if quick {
        (2_000, 10_000, 50, 1)
    } else {
        // Full runs take the best of three repetitions per cell: wall-clock
        // throughput on a shared host is scheduler-noisy, and the peak is
        // the stable, comparable statistic.
        (40_000, 200_000, 400, 3)
    };

    report.table = TextTable::new(&["bench", "1 thr", "4 thr", "8 thr", "16 thr", "unit"]);
    let mut cells: Vec<Cell> = Vec::new();
    let mut slow_path = 0u64;
    let mut hammer_misses = 0u64;
    let mut dedup_exact = true;
    let mut dedup_detail = String::new();

    let best = |cells: &mut Vec<Cell>, mut rep_cells: Vec<Cell>| {
        rep_cells.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
        cells.push(rep_cells.pop().expect("reps > 0"));
    };
    for &t in &THREADS {
        let mut reps_out = Vec::new();
        for _ in 0..reps {
            let (cell, slow, misses) = bench_hit_serve(t, hit_iters);
            slow_path += slow;
            hammer_misses += misses;
            reps_out.push(cell);
        }
        best(&mut cells, reps_out);
    }
    let mut mem_slow = 0u64;
    let mut mem_misses = 0u64;
    let mut below_tier = 0u64;
    for &t in &THREADS {
        let mut reps_out = Vec::new();
        for _ in 0..reps {
            let (cell, slow, misses, below) = bench_mem_hit_serve(t, hit_iters);
            mem_slow += slow;
            mem_misses += misses;
            below_tier += below;
            reps_out.push(cell);
        }
        best(&mut cells, reps_out);
    }
    for &t in &THREADS {
        let reps_out = (0..reps)
            .map(|_| bench_index_touch(t, touch_iters))
            .collect();
        best(&mut cells, reps_out);
    }
    for &t in &THREADS {
        let mut reps_out = Vec::new();
        for _ in 0..reps {
            let (cell, want, got) = bench_singleflight(t, rounds);
            if want != got {
                dedup_exact = false;
                dedup_detail = format!("{got} remote requests for {want} rounds at {t} threads");
            }
            reps_out.push(cell);
        }
        best(&mut cells, reps_out);
    }

    for bench in ["hit_serve", "mem_hit_serve", "index_touch", "singleflight"] {
        let mut row = vec![bench.to_string()];
        for &t in &THREADS {
            let ops = cells
                .iter()
                .find(|c| c.bench == bench && c.threads == t)
                .map(|c| c.ops_per_sec)
                .unwrap_or(0.0);
            row.push(format!("{:.0}k", ops / 1e3));
        }
        row.push("ops/s".to_string());
        report.table.row(row);
    }

    let ops_of = |bench: &str, threads: usize| {
        cells
            .iter()
            .find(|c| c.bench == bench && c.threads == threads)
            .map(|c| c.ops_per_sec)
            .unwrap_or(0.0)
    };

    report.checks.push(Check::new(
        "lock-free hits",
        "0 slow-path (stripe-locked) hits under pure-hit load",
        format!("{slow_path} slow-path, {hammer_misses} misses"),
        slow_path == 0 && hammer_misses == 0,
    ));
    report.checks.push(Check::new(
        "memory-tier hits",
        "every DRAM-resident read is a memory hit: 0 slow-path, 0 misses, 0 lower-tier hits",
        format!("{mem_slow} slow-path, {mem_misses} misses, {below_tier} below-tier hits"),
        mem_slow == 0 && mem_misses == 0 && below_tier == 0,
    ));
    report.checks.push(Check::new(
        "single-flight dedup",
        "exactly 1 remote request per rendezvous round",
        if dedup_exact {
            "exact at every thread count".to_string()
        } else {
            dedup_detail
        },
        dedup_exact,
    ));
    let single = ops_of("hit_serve", 1);
    report.checks.push(Check::new(
        "hit-serve floor",
        ">= 10k ops/s single-threaded",
        format!("{:.0}k ops/s", single / 1e3),
        single >= 10_000.0,
    ));

    let cpus = host_cpus();
    let eight = ops_of("hit_serve", 8);
    let scaling = eight / single.max(1e-9);
    if cpus >= 8 {
        report.checks.push(Check::new(
            "hit-serve scaling",
            ">= 3x ops/s from 1 to 8 threads",
            format!("{scaling:.1}x on {cpus} CPUs"),
            scaling >= 3.0,
        ));
    } else {
        // A small host cannot demonstrate parallel speedup; what it *can*
        // demonstrate is the absence of contention collapse — 8 threads
        // time-slicing one serve path should keep most of its throughput.
        report.checks.push(Check::new(
            "no contention collapse",
            ">= 0.5x single-thread ops/s at 8 threads (scaling gate needs >= 8 CPUs)",
            format!("{scaling:.1}x on {cpus} CPUs"),
            scaling >= 0.5,
        ));
    }

    report.notes.push(format!(
        "{PAGES} x {PAGE} B warm pages; {hit_iters} hit reads and {touch_iters} touches \
         per thread; {rounds} single-flight rounds; host_cpus={cpus}"
    ));

    // Quick runs are reduced-scale: only a full run records the artifact.
    if !quick {
        let json_cells: Vec<Value> = cells
            .iter()
            .map(|c| {
                obj(vec![
                    ("bench", Value::String(c.bench.to_string())),
                    ("threads", num_u(c.threads as u64)),
                    ("ops_per_sec", num_f((c.ops_per_sec * 10.0).round() / 10.0)),
                ])
            })
            .collect();
        let json = obj(vec![
            ("experiment", Value::String("hotpath".to_string())),
            ("host_cpus", num_u(cpus as u64)),
            ("pages", num_u(PAGES as u64)),
            ("page_bytes", num_u(PAGE)),
            ("hit_iters_per_thread", num_u(hit_iters as u64)),
            ("touch_iters_per_thread", num_u(touch_iters as u64)),
            ("singleflight_rounds", num_u(rounds as u64)),
            ("slow_path_hits", num_u(slow_path)),
            ("cells", Value::Array(json_cells)),
        ]);
        report.artifact = Some(Artifact {
            file: "BENCH_hotpath.json",
            json,
            wall_clock: WALL_CLOCK,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_lock_free_and_dedups() {
        let report = run(true);
        assert!(report.all_ok(), "{report}");
    }
}
