//! `embed_hit` and `embed_churn`: an engine embedding the cache and calling
//! `CacheManager::read` in-process, over a `LocalPageStore` on tmpfs.
//!
//! Both draw offsets Zipf over pages and sizes from the paper's two
//! published bands (60 % under 10 KB, 40 % 10 KB-1 MB; the unpublished
//! band above 1 MB is dropped so bulk copies do not drown per-op cost), so
//! p50 is a small read (per-op overhead) and p95 a multi-hundred-KiB read
//! (per-byte cost). They differ in what fits:
//!
//! * `embed_hit` keeps the whole 1 GiB data set resident in a 2 GiB
//!   directory with no DRAM tier. Only the read side of `core` and
//!   `pagestore` runs; the remote stub must never be called after set-up.
//! * `embed_churn` reads a 2 GiB data set through a 128 MiB DRAM tier over
//!   a 512 MiB directory, so admission, publish, eviction, promotion,
//!   demotion and `pagestore` put/delete do most of the work. A hit-path
//!   gain bought with a slower publish or evict shows here only.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use edgecache_common::ByteSize;
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache_metrics::{SpanId, Tracer};
use edgecache_pagestore::{
    CacheScope, FileId, LocalPageStore, LocalStoreConfig, MemTierStore, PageId, PageStore,
};
use edgecache_workload::{FragmentedReadSampler, ZipfSampler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::harness::{metric, Counted, Metric, Step, TracedRun, Workload};
use crate::spans;

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;
/// `CacheConfig::default()`'s page size.
const PAGE: u64 = MIB;
const FILE_LEN: u64 = 8 * MIB;
const PAGES_PER_FILE: u64 = FILE_LEN / PAGE;
/// Byte distance between the patterns of consecutive files.
const FILE_PHASE: u64 = 4099;
/// Warm-up replays the op list in chunks of this many ops until a chunk
/// grows the resident page count by less than `STEADY` of it.
const WARM_CHUNK: usize = 128;
const WARM_CHUNKS_MAX: usize = 16;
const STEADY: f64 = 0.01;

/// The sizes and the one tuning value of an embedded workload.
pub struct EmbedConfig {
    files: u64,
    ssd_capacity: u64,
    mem_capacity: u64,
    /// Zipf exponent over pages. On `embed_churn` it was chosen once so the
    /// page hit ratio lands in 0.4-0.7, then frozen.
    zipf: f64,
    /// Whether the whole data set is loaded during set-up and the remote
    /// stub must stay silent afterwards.
    resident: bool,
    /// Whether a read may run over the end of its page into the next one.
    cross_pages: bool,
    /// Ops in the list.
    ops: usize,
    /// Ops in a pass: about half a second to a second at the seed commit.
    pass: usize,
}

impl EmbedConfig {
    pub fn hit() -> Self {
        Self {
            files: 32,
            ssd_capacity: 512 << 20,
            mem_capacity: 0,
            zipf: 0.9,
            resident: true,
            cross_pages: true,
            // Every pass replays the whole list.
            ops: 1 << 14,
            pass: 1 << 14,
        }
    }

    pub fn churn() -> Self {
        Self {
            files: 128,
            ssd_capacity: 256 << 20,
            mem_capacity: 64 << 20,
            zipf: 0.8,
            resident: false,
            // One page per read. With reads crossing pages, the 3-4 % that
            // fetch or promote two pages form a cluster of their own at
            // 10 ms, above the one-page misses at 7 ms, and p95 sat on the
            // cliff between the two: 7.1 ms on one seed, 9.8 ms on the next.
            // (The cost: no workload fetches two pages in one read.)
            cross_pages: false,
            // A list no run gets to the end of: replaying a short one would
            // let its pages settle in the cache and stop the churn.
            ops: 1 << 15,
            pass: 1 << 8,
        }
    }
}

/// In-process remote: zero latency, zero-copy slices of one pre-built
/// buffer whose bytes depend on the offset, so the stub is not the cost
/// and every byte served can be checked.
struct PatternRemote {
    pattern: Bytes,
    calls: AtomicU64,
    /// Tracer and parent span of the op in flight (the stub may run on a
    /// fetch-pool thread, so it cannot borrow them from the caller).
    trace: Mutex<(Tracer, SpanId)>,
}

impl PatternRemote {
    fn new(files: u64) -> Self {
        let len = FILE_LEN + files * FILE_PHASE;
        let pattern: Vec<u8> = (0..len)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect();
        Self {
            pattern: Bytes::from(pattern),
            calls: AtomicU64::new(0),
            trace: Mutex::new((Tracer::disabled(), SpanId::NONE)),
        }
    }

    /// The bytes file `file` holds at `offset..offset + len`.
    fn expected(&self, file: u64, offset: u64, len: u64) -> &[u8] {
        let start = (file * FILE_PHASE + offset) as usize;
        &self.pattern.as_slice()[start..start + len as usize]
    }

    fn calls(&self) -> u64 {
        // Relaxed: a statistic, read by the thread whose `read` returned
        // after every stub call it caused.
        self.calls.load(Ordering::Relaxed)
    }
}

fn file_path(file: u64) -> String {
    format!("/bench/f{file:04}")
}

fn file_of_path(path: &str) -> u64 {
    path.rsplit('f')
        .next()
        .and_then(|digits| digits.parse().ok())
        .expect("stub is only asked for the benchmark's own paths")
}

impl RemoteSource for PatternRemote {
    fn read(&self, path: &str, offset: u64, len: u64) -> edgecache_common::Result<Bytes> {
        let (tracer, parent) = self.trace.lock().expect("stub never panics").clone();
        let mut span = tracer.child(parent, "remote.read");
        span.annotate("len", len);
        self.calls.fetch_add(1, Ordering::Relaxed);
        let end = offset.saturating_add(len).min(FILE_LEN);
        let start = offset.min(end);
        let phase = file_of_path(path) * FILE_PHASE;
        Ok(self
            .pattern
            .slice((phase + start) as usize..(phase + end) as usize))
    }
}

#[derive(Clone, Copy)]
struct Op {
    file: u32,
    offset: u64,
    len: u32,
}

fn generate_ops(config: &EmbedConfig, seed: u64) -> Vec<Op> {
    let pages = (config.files * PAGES_PER_FILE) as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    // Popularity rank -> page, shuffled so hot pages spread over files.
    let mut page_of_rank: Vec<u32> = (0..pages as u32).collect();
    for i in (1..pages).rev() {
        page_of_rank.swap(i, rng.random_range(0..=i));
    }
    let mut zipf = ZipfSampler::new(pages, config.zipf, seed ^ 0x51ed);
    let mut sizes = FragmentedReadSampler::new(0.6, 0.4, 2 * MIB, seed ^ 0xf4a9);
    (0..config.ops)
        .map(|_| {
            let page = page_of_rank[zipf.sample()] as u64;
            let file = page / PAGES_PER_FILE;
            let within = rng.random_range(0..PAGE);
            let offset = (page % PAGES_PER_FILE) * PAGE + within;
            let room = if config.cross_pages {
                FILE_LEN - offset
            } else {
                PAGE - within
            };
            let len = sizes.sample().min(MIB).min(room);
            Op {
                file: file as u32,
                offset,
                len: len as u32,
            }
        })
        .collect()
}

pub struct Embed {
    config: EmbedConfig,
    cache: CacheManager,
    store: Arc<LocalPageStore>,
    remote: Arc<PatternRemote>,
    files: Vec<SourceFile>,
    ops: Vec<Op>,
    /// Stub calls when set-up ended.
    calls_after_setup: u64,
    counted: Counted,
}

impl Embed {
    pub fn setup(config: EmbedConfig, seed: u64, dir: &Path) -> Self {
        let store = Arc::new(
            LocalPageStore::open(
                dir.join("ssd"),
                LocalStoreConfig {
                    page_size: PAGE,
                    ..Default::default()
                },
            )
            .expect("tmpfs directory opens"),
        );
        let cache = CacheManager::builder(
            CacheConfig::default().with_memory_tier(ByteSize::new(config.mem_capacity)),
        )
        .with_store(
            Arc::clone(&store) as Arc<dyn PageStore>,
            config.ssd_capacity,
        )
        .build()
        .expect("cache builds");
        let files = (0..config.files)
            .map(|f| {
                SourceFile::new(
                    file_path(f),
                    1,
                    FILE_LEN,
                    CacheScope::partition("bench", "reads", &format!("p{:02}", f % 16)),
                )
            })
            .collect();
        let mut this = Self {
            remote: Arc::new(PatternRemote::new(config.files)),
            ops: generate_ops(&config, seed),
            config,
            cache,
            store,
            files,
            calls_after_setup: 0,
            counted: Counted::default(),
        };
        this.warm();
        this.calls_after_setup = this.remote.calls();
        this
    }

    /// Loads the data set (`resident`) or replays ops until the cache is
    /// full, comparing every byte returned.
    fn warm(&mut self) {
        if self.config.resident {
            for f in 0..self.config.files {
                let got = self
                    .cache
                    .read(&self.files[f as usize], 0, FILE_LEN, &*self.remote)
                    .expect("load read");
                assert!(
                    got.as_slice() == self.remote.expected(f, 0, FILE_LEN),
                    "load of file {f} returned wrong bytes"
                );
            }
            assert_eq!(
                self.cache.stats().pages as u64,
                self.config.files * PAGES_PER_FILE,
                "data set is not fully resident"
            );
            return;
        }
        for chunk in 0..WARM_CHUNKS_MAX {
            let before = self.cache.stats().pages;
            for i in chunk * WARM_CHUNK..(chunk + 1) * WARM_CHUNK {
                let op = self.ops[i % self.ops.len()];
                let got = self.read(op, &Tracer::disabled(), SpanId::NONE);
                assert!(
                    got.as_slice()
                        == self
                            .remote
                            .expected(op.file as u64, op.offset, op.len as u64),
                    "warm-up read {i} returned wrong bytes"
                );
            }
            let after = self.cache.stats().pages;
            if (after.saturating_sub(before) as f64) < STEADY * after as f64 {
                return;
            }
        }
    }

    fn read(&self, op: Op, tracer: &Tracer, parent: SpanId) -> Bytes {
        let calls = self.remote.calls();
        let mut span = tracer.child(parent, "core.read");
        let got = self
            .cache
            .read(
                &self.files[op.file as usize],
                op.offset,
                op.len as u64,
                &*self.remote,
            )
            .unwrap_or_default();
        if span.is_recording() {
            span.annotate("len", op.len);
            span.annotate("fetched", self.remote.calls() - calls);
        }
        got
    }

    /// Length, first, last and eight evenly spaced bytes.
    fn spot_check(&self, op: Op, got: &Bytes) -> bool {
        let want = self
            .remote
            .expected(op.file as u64, op.offset, op.len as u64);
        let got = got.as_slice();
        got.len() == want.len()
            && (0..10).all(|k| {
                let at = (want.len() - 1) * k / 9;
                got[at] == want[at]
            })
    }

    fn counter(&self, name: &str) -> u64 {
        self.counted.counter(name)
    }
}

impl Workload for Embed {
    fn steps(&self) -> usize {
        self.config.pass
    }

    fn step(&mut self, i: usize, tracer: &Tracer, parent: SpanId) -> Step {
        let op = self.ops[i % self.ops.len()];
        if tracer.is_enabled() {
            *self.remote.trace.lock().expect("stub never panics") = (tracer.clone(), parent);
        }
        let got = self.read(op, tracer, parent);
        Step {
            ops: 1,
            failed: u32::from(!self.spot_check(op, &got)),
        }
    }

    fn hit_counters(&self) -> (u64, u64) {
        let stats = self.cache.stats();
        (stats.hits, stats.hits + stats.misses)
    }

    fn counted_begin(&mut self) {
        self.counted.begin(self.cache.metrics());
    }

    fn counted_end(&mut self) {
        self.counted.end(self.cache.metrics());
        *self.remote.trace.lock().expect("stub never panics") = (Tracer::disabled(), SpanId::NONE);
    }

    fn verify(&mut self) -> Result<(), String> {
        let called = self.remote.calls() - self.calls_after_setup;
        if self.config.resident && called != 0 {
            return Err(format!(
                "remote stub called {called} times after set-up on a resident data set"
            ));
        }
        self.cache.index().check_consistency()
    }

    fn layer_metrics(&mut self, traced: &TracedRun) -> Result<Vec<Metric>, String> {
        let ops = traced.ops as f64;
        let reads = || traced.records.iter().filter(|r| r.name == "core.read");
        let fetched = |r: &&edgecache_metrics::SpanRecord| spans::arg(r, "fetched").unwrap_or(0);
        let len = |r: &&edgecache_metrics::SpanRecord| spans::arg(r, "len").unwrap_or(0);

        let small = spans::mean_nanos(reads().filter(|r| fetched(r) == 0 && len(r) < 10 * KIB));
        let (mut large_ns, mut large_bytes) = (0u64, 0u64);
        for r in reads().filter(|r| fetched(r) == 0 && len(r) >= 256 * KIB) {
            large_ns += spans::nanos(r);
            large_bytes += len(&r);
        }
        let covered = spans::child_nanos(&traced.records);
        let (mut miss_ns, mut misses) = (0u64, 0u64);
        for r in reads().filter(|r| fetched(r) > 0) {
            miss_ns += spans::nanos(r)
                - covered
                    .get(&r.id)
                    .copied()
                    .unwrap_or(0)
                    .min(spans::nanos(r));
            misses += 1;
        }

        let hits = self.counter("hits");
        let lookups = hits + self.counter("misses");
        let evictions = self.counted.prefix_sum("evictions.") + self.counter("mem.evictions");
        let mut out = vec![
            metric("core.read_small_us", small / 1e3, "us"),
            metric(
                "core.read_large_us_per_mib",
                large_ns as f64 / 1e3 / (large_bytes as f64 / MIB as f64).max(f64::MIN_POSITIVE),
                "us",
            ),
            metric(
                "core.read_miss_us",
                miss_ns as f64 / 1e3 / misses.max(1) as f64,
                "us",
            ),
            metric(
                "core.page_hit_ratio",
                hits as f64 / lookups.max(1) as f64,
                "ratio",
            ),
            metric(
                "core.mem_hit_share",
                self.counter("mem.hits") as f64 / hits.max(1) as f64,
                "ratio",
            ),
            metric(
                "core.hits_slow_path",
                self.counter("hits.slow_path") as f64,
                "count",
            ),
            metric("core.evictions_per_op", evictions as f64 / ops, "count"),
            metric(
                "core.promotions_per_op",
                self.counter("mem.promotions") as f64 / ops,
                "count",
            ),
            metric(
                "core.demotions_per_op",
                self.counter("mem.demotions") as f64 / ops,
                "count",
            ),
            metric(
                "core.bytes_copied_per_op",
                self.counter("bytes_copied") as f64 / ops,
                "B",
            ),
            metric(
                "core.remote_requests_per_op",
                self.counter("remote_requests") as f64 / ops,
                "count",
            ),
            metric(
                "core.remote_bytes_per_op",
                self.counter("bytes_from_remote") as f64 / ops,
                "B",
            ),
            metric(
                "core.inflight_waits",
                self.counter("fetch.inflight_waits") as f64,
                "count",
            ),
        ];
        out.push(probe_index_touch(&self.cache));
        out.extend(probe_pagestore(
            &self.store,
            &self.cache.index().pages_of_dir(0),
            PAGE,
        ));
        Ok(out)
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("data_bytes", self.config.files * FILE_LEN),
            ("ssd_capacity_bytes", self.config.ssd_capacity),
            ("mem_capacity_bytes", self.config.mem_capacity),
            ("page_bytes", PAGE),
            ("ops_in_list", self.ops.len() as u64),
            ("ops_in_pass", self.config.pass as u64),
        ]
    }
}

/// `IndexManager::touch` over the resident page ids.
pub fn probe_index_touch(cache: &CacheManager) -> Metric {
    const TOUCHES: usize = 1 << 20;
    let index = cache.index();
    // Directory 0 is the tmpfs store, directory 1 the DRAM tier (if any).
    let mut ids = index.pages_of_dir(0);
    ids.extend(index.pages_of_dir(1));
    if ids.is_empty() {
        return metric("core.index_touch_ns", 0.0, "ns");
    }
    let start = Instant::now();
    for i in 0..TOUCHES {
        std::hint::black_box(index.touch(&ids[i % ids.len()], i as u64));
    }
    metric(
        "core.index_touch_ns",
        start.elapsed().as_nanos() as f64 / TOUCHES as f64,
        "ns",
    )
}

/// `PageStore::{get, put, delete}` direct: ranged and full reads of pages
/// the cache keeps in `store`, put and delete on a file id the cache does
/// not index, and a `MemTierStore` frame read.
pub fn probe_pagestore(store: &LocalPageStore, resident: &[PageId], page: u64) -> Vec<Metric> {
    const ROUNDS: usize = 256;
    let per_round_us =
        |start: Instant, rounds: usize| start.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    let mut out = Vec::new();
    if !resident.is_empty() {
        let start = Instant::now();
        for i in 0..ROUNDS * 8 {
            let id = resident[i % resident.len()];
            std::hint::black_box(store.get(id, (i as u64 * 4099) % page.max(1), 4 * KIB).ok());
        }
        out.push(metric(
            "pagestore.local_get_small_us",
            per_round_us(start, ROUNDS * 8),
            "us",
        ));
        let start = Instant::now();
        for i in 0..ROUNDS {
            std::hint::black_box(store.get_full(resident[i % resident.len()]).ok());
        }
        out.push(metric(
            "pagestore.local_get_page_us",
            per_round_us(start, ROUNDS),
            "us",
        ));
    }
    let scratch = FileId::from_path_version("/bench/probe-scratch", 1);
    let payload: Vec<u8> = (0..page).map(|i| (i % 251) as u8).collect();
    let start = Instant::now();
    for i in 0..ROUNDS {
        store
            .put(PageId::new(scratch, i as u64), &payload)
            .expect("probe put");
    }
    out.push(metric(
        "pagestore.local_put_us",
        per_round_us(start, ROUNDS),
        "us",
    ));
    let start = Instant::now();
    for i in 0..ROUNDS {
        store
            .delete(PageId::new(scratch, i as u64))
            .expect("probe delete");
    }
    out.push(metric(
        "pagestore.local_delete_us",
        per_round_us(start, ROUNDS),
        "us",
    ));

    let mem = MemTierStore::new();
    let id = PageId::new(scratch, 0);
    mem.put(id, &payload).expect("frame put");
    const FRAME_READS: usize = 1 << 18;
    let start = Instant::now();
    for i in 0..FRAME_READS {
        std::hint::black_box(mem.get(id, (i as u64 * 4099) % page.max(1), 4 * KIB).ok());
    }
    out.push(metric(
        "pagestore.mem_get_ns",
        start.elapsed().as_nanos() as f64 / FRAME_READS as f64,
        "ns",
    ));
    out
}
