//! `olap_repeat`: the paper's end purpose — dashboards re-issuing the same
//! aggregations. `Engine::execute` over the TPC-DS-like `small` data set
//! with the result cache on and the workers' page caches warm, so `olap`
//! and `columnar` (decode, aggregate, footer cache, result-cache probe) do
//! the work, `core` is reached only through `read_multi`, `server` not at
//! all. p50 is a result-cache hit and p95 a real scan, so the two paths are
//! separately visible in the gated metrics.
//!
//! The query list is one lap of a `RepeatedQueryMix` working set around the
//! 99 templates, and the result cache is cleared each time the list wraps:
//! every pass then replays the same hit/miss sequence (each template scans
//! once per pass and hits afterwards), whatever the speed of the program.
//! The engine runs on the system clock; its modeled device time is ignored
//! and only wall time counts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use edgecache_columnar::{ColfReader, Value};
use edgecache_common::clock::system_clock;
use edgecache_common::ByteSize;
use edgecache_core::manager::RemoteSource;
use edgecache_metrics::{SpanId, Tracer};
use edgecache_olap::resultcache::split_key;
use edgecache_olap::{
    CanonicalQuery, Catalog, Engine, EngineConfig, QueryPlan, ResultCacheConfig, WorkerConfig,
};
use edgecache_storage::ObjectStore;
use edgecache_workload::{RepeatedQueryConfig, RepeatedQueryMix, TpcdsGen, TpcdsScale};

use crate::harness::{metric, Metric, Step, TracedRun, Workload};
use crate::spans;

const TEMPLATES: usize = 99;
const WORKERS: usize = 2;
const PAGE: ByteSize = ByteSize::kib(64);
const RESULT_CACHE: ByteSize = ByteSize::mib(64);
/// The frozen rotation: a 12-query working set sliding 3 templates every
/// `ROTATE_EVERY` draws laps the 99 templates in `QUERIES` draws. Templates
/// that differ only in partition reach share result-cache entries, so about
/// 84 of the 99 scan in a pass: one query in five scans, four in five are
/// fully covered, and `hit_ratio` (split-weighted) is about 0.81.
const WORKING_SET: usize = 12;
const ROTATE_STEP: usize = 3;
const ROTATE_EVERY: usize = 12;
const QUERIES: usize = TEMPLATES / ROTATE_STEP * ROTATE_EVERY;

/// What the traced pass counted.
#[derive(Default, Clone, Copy)]
struct Counted {
    queries: u64,
    rows_scanned: u64,
    remote_requests: u64,
    meta_hits: u64,
    meta_misses: u64,
}

pub struct OlapRepeat {
    catalog: Arc<Catalog>,
    store: Arc<ObjectStore>,
    engine: Engine,
    plans: Vec<QueryPlan>,
    /// What an engine without a result cache answered for each template
    /// during set-up.
    expected: Vec<Vec<Vec<Value>>>,
    queries: Vec<usize>,
    splits: u64,
    skipped: u64,
    rows_scanned: u64,
    executed: u64,
    counted_from: Counted,
    counted: Counted,
}

impl OlapRepeat {
    pub fn setup(seed: u64) -> Self {
        let clock = system_clock();
        let gen = TpcdsGen::new(TpcdsScale::small(), seed);
        let (catalog, store) = gen.build_fresh(clock.clone()).expect("data set builds");
        let config = |result_cache| EngineConfig {
            workers: WORKERS,
            worker: WorkerConfig {
                page_size: PAGE,
                ..Default::default()
            },
            coordinator_overhead: Duration::ZERO,
            result_cache,
            ..Default::default()
        };
        let engine = |result_cache| {
            Engine::new(
                Arc::clone(&catalog),
                Arc::clone(&store) as _,
                config(result_cache),
                clock.clone(),
            )
            .expect("engine builds")
        };
        let shadow = engine(ResultCacheConfig::default());
        let cached = engine(ResultCacheConfig::enabled(RESULT_CACHE));
        let plans: Vec<QueryPlan> = (1..=TEMPLATES).map(|q| gen.query(q)).collect();
        let expected = plans
            .iter()
            .map(|p| shadow.execute(p).expect("shadow query").rows)
            .collect();
        // Warm the measured engine's page and footer caches, then empty the
        // result cache those scans filled.
        for plan in &plans {
            cached.execute(plan).expect("warming query");
        }
        cached.result_cache().expect("result cache is on").clear();
        let queries = RepeatedQueryMix::new(RepeatedQueryConfig {
            pool: TEMPLATES,
            working_set: WORKING_SET,
            rotate_every: ROTATE_EVERY,
            rotate_step: ROTATE_STEP,
            burst: None,
            seed,
            ..Default::default()
        })
        .take(QUERIES);
        Self {
            catalog,
            store,
            engine: cached,
            plans,
            expected,
            queries,
            splits: 0,
            skipped: 0,
            rows_scanned: 0,
            executed: 0,
            counted_from: Counted::default(),
            counted: Counted::default(),
        }
    }

    fn count(&self) -> Counted {
        let metadata = self
            .engine
            .worker_names()
            .iter()
            .filter_map(|name| self.engine.worker(name))
            .map(|w| w.metadata_cache())
            .fold((0, 0), |(h, m), c| (h + c.hits(), m + c.misses()));
        Counted {
            queries: self.executed,
            rows_scanned: self.rows_scanned,
            remote_requests: self.store.request_count(),
            meta_hits: metadata.0,
            meta_misses: metadata.1,
        }
    }
}

impl Workload for OlapRepeat {
    fn steps(&self) -> usize {
        self.queries.len()
    }

    fn step(&mut self, i: usize, tracer: &Tracer, parent: SpanId) -> Step {
        let template = self.queries[i % self.queries.len()];
        let mut span = tracer.child(parent, "olap.execute");
        let result = self.engine.execute(&self.plans[template]);
        let Ok(result) = result else {
            return Step { ops: 1, failed: 1 };
        };
        let stats = &result.stats;
        // Join build sides add their own skipped splits to the fact scan's.
        let skipped = stats.splits_skipped.min(stats.splits);
        if span.is_recording() {
            span.annotate("template", template + 1);
            span.annotate("splits", stats.splits);
            span.annotate("skipped", skipped);
        }
        span.finish();
        self.splits += stats.splits as u64;
        self.skipped += skipped as u64;
        self.rows_scanned += stats.rows_scanned;
        self.executed += 1;
        Step {
            ops: 1,
            failed: u32::from(result.rows != self.expected[template]),
        }
    }

    fn begin_pass(&mut self) {
        self.engine
            .result_cache()
            .expect("result cache is on")
            .clear();
    }

    fn hit_counters(&self) -> (u64, u64) {
        (self.skipped, self.splits)
    }

    fn counted_begin(&mut self) {
        self.counted_from = self.count();
    }

    fn counted_end(&mut self) {
        let (from, to) = (self.counted_from, self.count());
        self.counted = Counted {
            queries: to.queries - from.queries,
            rows_scanned: to.rows_scanned - from.rows_scanned,
            remote_requests: to.remote_requests - from.remote_requests,
            meta_hits: to.meta_hits - from.meta_hits,
            meta_misses: to.meta_misses - from.meta_misses,
        };
    }

    fn verify(&mut self) -> Result<(), String> {
        self.engine
            .result_cache()
            .expect("result cache is on")
            .check_consistency()
            .map_err(|e| e.to_string())
    }

    fn layer_metrics(&mut self, traced: &TracedRun) -> Result<Vec<Metric>, String> {
        let executes = || traced.records.iter().filter(|r| r.name == "olap.execute");
        let covered = |r: &&edgecache_metrics::SpanRecord| {
            spans::arg(r, "skipped") == spans::arg(r, "splits")
        };
        let rc_hit_ns = spans::mean_nanos(executes().filter(|r| covered(r)));
        let scan_ns = spans::mean_nanos(executes().filter(|r| !covered(r)));

        let table = self
            .catalog
            .table("tpcds", "store_sales")
            .expect("fact table");
        let files: Vec<_> = table
            .files()
            .map(|(p, f)| (p.to_string(), f.clone()))
            .collect();
        // Template 7: a full-reach, join-free, ungrouped count.
        let plan = &self.plans[6];

        // `ResultCache::probe` on the entries the last pass left.
        let cache = self.engine.result_cache().expect("result cache is on");
        self.engine.execute(plan).expect("probe query");
        let fingerprint = CanonicalQuery::of(plan)
            .expect("aggregates canonicalize")
            .fingerprint(&self.catalog)
            .expect("fingerprint");
        let keys: Vec<String> = files.iter().map(|(_, f)| split_key(f)).collect();
        const PROBES: usize = 1 << 16;
        let start = Instant::now();
        for i in 0..PROBES {
            std::hint::black_box(cache.probe(&fingerprint, &keys[i % keys.len()]));
        }
        let probe_ns = start.elapsed().as_nanos() as f64 / PROBES as f64;

        // `Worker::execute_split` on a fixed sample of splits.
        let worker_names = self.engine.worker_names();
        let worker = self.engine.worker(&worker_names[0]).expect("worker 0");
        let sample = files.iter().step_by(5).collect::<Vec<_>>();
        let start = Instant::now();
        for (partition, file) in &sample {
            let scope = table.partition_scope(partition);
            worker
                .execute_split(file, &scope, plan, &[], self.store.as_ref(), true)
                .expect("split runs");
        }
        let split_us = start.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;

        // `columnar` and `storage` against one data file held in memory.
        let (_, file) = &files[0];
        let start = Instant::now();
        const REMOTE_READS: u64 = 4096;
        for i in 0..REMOTE_READS {
            let offset = (i * PAGE.as_u64()) % file.length;
            std::hint::black_box(
                self.store
                    .read(&file.path, offset, PAGE.as_u64())
                    .expect("object read"),
            );
        }
        let remote_read_us = start.elapsed().as_secs_f64() * 1e6 / REMOTE_READS as f64;
        let bytes: Bytes = self
            .store
            .read(&file.path, 0, file.length)
            .expect("whole object");
        const OPENS: usize = 256;
        let start = Instant::now();
        for _ in 0..OPENS {
            std::hint::black_box(ColfReader::open(bytes.clone()).expect("footer parses"));
        }
        let footer_us = start.elapsed().as_secs_f64() * 1e6 / OPENS as f64;
        let reader = ColfReader::open(bytes.clone()).expect("footer parses");
        let projection: Vec<usize> = (0..reader.schema().columns.len()).collect();
        let start = Instant::now();
        const DECODE_ROUNDS: usize = 8;
        for _ in 0..DECODE_ROUNDS {
            for group in 0..reader.row_groups() {
                std::hint::black_box(
                    reader
                        .read_row_group(group, &projection)
                        .expect("row group decodes"),
                );
            }
        }
        let decode_us_per_mib = start.elapsed().as_secs_f64() * 1e6
            / (DECODE_ROUNDS as f64 * file.length as f64 / (1 << 20) as f64);

        let c = self.counted;
        Ok(vec![
            metric("olap.rc_hit_us", rc_hit_ns / 1e3, "us"),
            metric("olap.scan_us", scan_ns / 1e3, "us"),
            metric("olap.rc_probe_ns", probe_ns, "ns"),
            metric("olap.split_us", split_us, "us"),
            metric(
                "olap.rows_scanned_per_query",
                c.rows_scanned as f64 / c.queries.max(1) as f64,
                "count",
            ),
            metric("columnar.footer_parse_us", footer_us, "us"),
            metric(
                "columnar.meta_hit_ratio",
                c.meta_hits as f64 / (c.meta_hits + c.meta_misses).max(1) as f64,
                "ratio",
            ),
            metric("columnar.decode_us_per_mib", decode_us_per_mib, "us"),
            metric("storage.remote_read_us", remote_read_us, "us"),
            metric(
                "storage.requests_per_query",
                c.remote_requests as f64 / c.queries.max(1) as f64,
                "count",
            ),
        ])
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        let scale = TpcdsScale::small();
        vec![
            ("fact_rows", scale.fact_rows),
            (
                "fact_files",
                (scale.date_partitions * scale.files_per_partition) as u64,
            ),
            ("templates", TEMPLATES as u64),
            ("queries_in_list", self.queries.len() as u64),
            ("page_bytes", PAGE.as_u64()),
            ("result_cache_bytes", RESULT_CACHE.as_u64()),
        ]
    }
}
