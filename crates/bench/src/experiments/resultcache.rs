//! **Result cache** — repeated OLAP aggregations skip the scan entirely.
//!
//! Enterprise dashboards re-issue the same parameterized aggregations on a
//! schedule, so the engine's query-fragment result cache (DESIGN.md §result
//! cache) can answer a repeated aggregate from cached per-split partials
//! without touching a single page. This experiment measures that claim on
//! simulated time against an uncached *shadow* engine that recomputes every
//! query from scratch on the same catalog/store/clock:
//!
//! * `cold` — first pass over the working set: every split scans.
//! * `warm` — identical second pass: every split served from cache.
//! * `commuted` — the same queries with commuted aggregate order and
//!   predicate operands: canonicalization must hit the same entries.
//! * `drift` — a rotating Zipf mix ([`RepeatedQueryMix`]): the working set
//!   slides, mixing hits with fresh shapes.
//! * `append` — new files land in hot partitions; only they are scanned.
//! * `rewrite` — a compaction rewrites file 0 of every partition; exactly
//!   the invalidated splits rescan.
//! * `burst` — a flash crowd hammers the head query: all cache hits.
//! * `thrash` — capacity squeezed to a sliver: eviction churn, yet every
//!   answer stays bit-identical to the shadow's.
//!
//! Wall time is the engine's modeled `wall_time` (worker critical path +
//! probe cost + coordinator overhead) on the sim clock, so every number is
//! deterministic and `bench resultcache --check` compares
//! `BENCH_resultcache.json` byte for byte.

use std::sync::Arc;
use std::time::Duration;

use edgecache_columnar::{ColfWriter, ColumnType, Predicate, Schema, Value as ColValue};
use edgecache_common::clock::SimClock;
use edgecache_common::ByteSize;
use edgecache_olap::{
    AggExpr, Catalog, DataFile, Engine, EngineConfig, PartitionDef, QueryPlan, ResultCacheConfig,
    ResultCacheCounters, TableDef, WorkerConfig,
};
use edgecache_storage::ObjectStore;
use edgecache_workload::{BurstConfig, RepeatedQueryConfig, RepeatedQueryMix};
use serde_json::Value;

use crate::report::{num_f, num_u, obj, Artifact, Check, ExperimentReport, TextTable};

/// Distinct query shapes in the dashboard pool.
const POOL: usize = 8;
/// Rows per data file; small enough that quick mode stays fast.
const ROWS_PER_FILE: i64 = 48;

fn schema() -> Schema {
    Schema::new(vec![
        ("id", ColumnType::Int64),
        ("region", ColumnType::Utf8),
        ("amount", ColumnType::Float64),
    ])
}

/// Deterministic file content: a pure function of `(partition, file,
/// version)`, so rewrites genuinely change the answer.
fn file_bytes(partition: usize, file: usize, version: u64) -> bytes::Bytes {
    let mut w = ColfWriter::new(schema(), 16);
    let salt = (partition * 97 + file * 31) as i64 + version as i64 * 7;
    for i in 0..ROWS_PER_FILE {
        let id = salt + i;
        w.push_row(vec![
            ColValue::Int64(id),
            ColValue::Utf8(format!("r{}", id.rem_euclid(4))),
            ColValue::Float64(id as f64 * 1.25 + version as f64 * 0.5),
        ])
        .expect("row matches schema");
    }
    w.finish().expect("colf encode")
}

/// The dashboard's query pool; shape `q + POOL` is the *commuted* twin of
/// shape `q` (same fingerprint, different plan order).
fn plan(q: usize) -> QueryPlan {
    let base = QueryPlan::scan("wh", "sales", &[]);
    let commuted = q >= POOL;
    match q % POOL {
        0 => base.aggregate(vec![AggExpr::count()]),
        1 => {
            let aggs = if commuted {
                vec![AggExpr::count(), AggExpr::sum("amount")]
            } else {
                vec![AggExpr::sum("amount"), AggExpr::count()]
            };
            base.aggregate(aggs).group("region")
        }
        2 => {
            let (a, b) = (
                Predicate::Eq("region".into(), ColValue::Utf8("r1".into())),
                Predicate::Eq("region".into(), ColValue::Utf8("r2".into())),
            );
            let filter = if commuted { b.or(a) } else { a.or(b) };
            base.filter(filter)
                .aggregate(vec![AggExpr::avg("amount"), AggExpr::min("id")])
        }
        3 => base
            .filter(Predicate::Gt("amount".into(), ColValue::Float64(30.0)))
            .aggregate(vec![AggExpr::max("amount"), AggExpr::count()])
            .group("region"),
        4 => {
            let aggs = if commuted {
                vec![
                    AggExpr::max("amount"),
                    AggExpr::min("amount"),
                    AggExpr::avg("amount"),
                    AggExpr::sum("amount"),
                ]
            } else {
                vec![
                    AggExpr::sum("amount"),
                    AggExpr::avg("amount"),
                    AggExpr::min("amount"),
                    AggExpr::max("amount"),
                ]
            };
            base.aggregate(aggs)
        }
        5 => base
            .filter(Predicate::Lt("id".into(), ColValue::Int64(200)))
            .aggregate(vec![AggExpr::count(), AggExpr::min("amount")])
            .group("region"),
        6 => base
            .filter(Predicate::Between(
                "amount".into(),
                ColValue::Float64(5.0),
                ColValue::Float64(500.0),
            ))
            .aggregate(vec![AggExpr::sum("amount"), AggExpr::max("id")]),
        _ => base
            .aggregate(vec![AggExpr::avg("amount"), AggExpr::count()])
            .group("region"),
    }
}

/// Per-phase measurements: engine stats deltas plus result-cache counter
/// deltas, with the shadow engine checked for bit-identical rows.
#[derive(Debug, Clone)]
struct PhaseStats {
    queries: u64,
    mean_wall_us: f64,
    rows_scanned: u64,
    splits: u64,
    skipped: u64,
    scheduled: u64,
    scan_bytes_saved: u64,
    counters: ResultCacheCounters,
    mismatches: u64,
}

impl PhaseStats {
    fn skip_rate(&self) -> f64 {
        if self.splits == 0 {
            return 0.0;
        }
        self.skipped as f64 / self.splits as f64
    }
}

struct Bench {
    catalog: Arc<Catalog>,
    store: Arc<ObjectStore>,
    cached: Engine,
    shadow: Engine,
    /// (partition index, next file index, version of file 0)
    partitions: Vec<(usize, usize, u64)>,
    scheduled_total: u64,
    mismatches_total: u64,
}

impl Bench {
    fn new(partitions: usize, files_per_partition: usize) -> Self {
        let clock = SimClock::new();
        let store = Arc::new(ObjectStore::new(Arc::new(clock.clone())));
        let catalog = Arc::new(Catalog::new());
        catalog.register(TableDef {
            schema_name: "wh".into(),
            table_name: "sales".into(),
            columns: schema(),
            partitions: vec![],
        });
        let mk = |rc: ResultCacheConfig| {
            Engine::new(
                Arc::clone(&catalog),
                Arc::clone(&store) as _,
                EngineConfig {
                    workers: 3,
                    worker: WorkerConfig {
                        page_size: ByteSize::kib(1),
                        ..Default::default()
                    },
                    coordinator_overhead: Duration::from_micros(200),
                    result_cache: rc,
                    ..Default::default()
                },
                Arc::new(clock.clone()),
            )
            .expect("engine builds")
        };
        let cached = mk(ResultCacheConfig::enabled(ByteSize::mib(8)));
        let shadow = mk(ResultCacheConfig::default());
        let mut bench = Self {
            catalog,
            store,
            cached,
            shadow,
            partitions: Vec::new(),
            scheduled_total: 0,
            mismatches_total: 0,
        };
        for p in 0..partitions {
            bench.add_partition(p, files_per_partition);
        }
        bench
    }

    fn path(p: usize, f: usize) -> String {
        format!("/wh/sales/p{p}/f{f}.colf")
    }

    fn add_partition(&mut self, p: usize, files: usize) {
        let defs: Vec<DataFile> = (0..files)
            .map(|f| {
                let bytes = file_bytes(p, f, 1);
                let path = Self::path(p, f);
                self.store.put_object(&path, bytes.clone());
                DataFile {
                    path,
                    version: 1,
                    length: bytes.len() as u64,
                }
            })
            .collect();
        self.catalog
            .add_partition(
                "wh",
                "sales",
                PartitionDef {
                    name: format!("p{p}"),
                    files: defs,
                },
            )
            .expect("partition registers");
        self.partitions.push((p, files, 1));
    }

    fn append(&mut self, idx: usize) {
        let idx = idx % self.partitions.len();
        let (p, next_file, _) = &mut self.partitions[idx];
        let (p, f) = (*p, *next_file);
        *next_file += 1;
        let bytes = file_bytes(p, f, 1);
        let path = Self::path(p, f);
        self.store.put_object(&path, bytes.clone());
        let name = format!("p{p}");
        let table = self.catalog.table("wh", "sales").expect("sales table");
        let mut files = table
            .partitions
            .iter()
            .find(|x| x.name == name)
            .cloned()
            .expect("live partition")
            .files;
        files.push(DataFile {
            path,
            version: 1,
            length: bytes.len() as u64,
        });
        self.catalog
            .add_partition("wh", "sales", PartitionDef { name, files })
            .expect("append file");
    }

    fn rewrite(&mut self, idx: usize) {
        let idx = idx % self.partitions.len();
        let (p, _, version) = &mut self.partitions[idx];
        *version += 1;
        let (p, version) = (*p, *version);
        let bytes = file_bytes(p, 0, version);
        let path = Self::path(p, 0);
        self.store.put_object(&path, bytes.clone());
        self.catalog
            .rewrite_file(
                "wh",
                "sales",
                &format!("p{p}"),
                &path,
                version,
                bytes.len() as u64,
            )
            .expect("rewrite file");
    }

    fn counters(&self) -> ResultCacheCounters {
        self.cached.result_cache().expect("cache on").counters()
    }

    /// Runs `queries` on the cached engine with the shadow cross-checking
    /// every answer, and returns the phase's aggregated deltas.
    fn run_phase(&mut self, queries: &[usize]) -> PhaseStats {
        let before = self.cached.result_cache().expect("cache on").counters();
        let mut walls = 0u64;
        let mut rows_scanned = 0u64;
        let mut splits = 0u64;
        let mut skipped = 0u64;
        let mut scheduled = 0u64;
        let mut saved = 0u64;
        let mut mismatches = 0u64;
        for &q in queries {
            let p = plan(q);
            let a = self.cached.execute(&p).expect("cached query");
            let b = self.shadow.execute(&p).expect("shadow query");
            if format!("{:?}", a.rows) != format!("{:?}", b.rows) {
                mismatches += 1;
            }
            assert_eq!(
                a.stats.splits_skipped + a.stats.splits_scheduled,
                a.stats.splits,
                "split accounting must partition"
            );
            walls += a.stats.wall_time.as_micros() as u64;
            rows_scanned += a.stats.rows_scanned;
            splits += a.stats.splits as u64;
            skipped += a.stats.splits_skipped as u64;
            scheduled += a.stats.splits_scheduled as u64;
            saved += a.stats.scan_bytes_saved;
        }
        self.scheduled_total += scheduled;
        self.mismatches_total += mismatches;
        let after = self.cached.result_cache().expect("cache on").counters();
        PhaseStats {
            queries: queries.len() as u64,
            mean_wall_us: walls as f64 / queries.len().max(1) as f64,
            rows_scanned,
            splits,
            skipped,
            scheduled,
            scan_bytes_saved: saved,
            counters: after.minus(&before),
            mismatches,
        }
    }
}

const PHASES: [&str; 8] = [
    "cold", "warm", "commuted", "drift", "append", "rewrite", "burst", "thrash",
];

/// Runs the result-cache sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "resultcache",
        "Result cache: repeated OLAP aggregations skip the scan entirely (DESIGN.md, result cache)",
    );
    let (partitions, files_per_partition, drift_len, burst_len) = if quick {
        (4, 2, 48, 24)
    } else {
        (8, 3, 240, 96)
    };
    let mut bench = Bench::new(partitions, files_per_partition);

    let working_set: Vec<usize> = (0..POOL).collect();
    let commuted_set: Vec<usize> = (0..POOL).map(|q| q + POOL).collect();
    let mut drift_mix = RepeatedQueryMix::new(RepeatedQueryConfig {
        pool: POOL,
        working_set: 5,
        rotate_every: 20,
        rotate_step: 1,
        zipf_exponent: 1.39,
        burst: None,
        seed: 42,
    });
    let mut burst_mix = RepeatedQueryMix::new(RepeatedQueryConfig {
        pool: POOL,
        working_set: 5,
        rotate_every: 0,
        rotate_step: 0,
        zipf_exponent: 1.39,
        burst: Some(BurstConfig {
            every: burst_len,
            len: burst_len,
            hot_fraction: 0.95,
        }),
        seed: 7,
    });

    let cold = bench.run_phase(&working_set);
    let warm = bench.run_phase(&working_set);
    let commuted = bench.run_phase(&commuted_set);
    let drift = bench.run_phase(&drift_mix.take(drift_len));
    // The append/rewrite phases' counter deltas start *before* the churn so
    // invalidations fired by the catalog listeners land in the right row.
    let pre_append = bench.counters();
    for i in 0..bench.partitions.len() {
        bench.append(i);
    }
    let mut append = bench.run_phase(&working_set);
    append.counters = bench.counters().minus(&pre_append);
    let pre_rewrite = bench.counters();
    for i in 0..bench.partitions.len() {
        bench.rewrite(i);
    }
    let mut rewrite = bench.run_phase(&working_set);
    rewrite.counters = bench.counters().minus(&pre_rewrite);
    let burst = bench.run_phase(&burst_mix.take(burst_len));
    // Squeeze the cache to a sliver so the final pass churns evictions,
    // then restore capacity for a fair end state.
    let rc = Arc::clone(bench.cached.result_cache().expect("cache on"));
    rc.set_capacity(ByteSize::kib(2));
    let twice: Vec<usize> = working_set
        .iter()
        .chain(working_set.iter())
        .copied()
        .collect();
    let thrash = bench.run_phase(&twice);
    rc.set_capacity(ByteSize::mib(8));

    let phases = [
        &cold, &warm, &commuted, &drift, &append, &rewrite, &burst, &thrash,
    ];
    report.table = TextTable::new(&[
        "phase",
        "queries",
        "mean wall µs",
        "rows scanned",
        "splits",
        "skipped",
        "skip rate",
        "bytes saved",
        "hits",
        "misses",
        "inval",
        "evict",
        "mismatches",
    ]);
    let mut cells = Vec::new();
    for (name, s) in PHASES.iter().zip(phases.iter()) {
        report.table.row(vec![
            (*name).into(),
            s.queries.to_string(),
            format!("{:.1}", s.mean_wall_us),
            s.rows_scanned.to_string(),
            s.splits.to_string(),
            s.skipped.to_string(),
            format!("{:.4}", s.skip_rate()),
            s.scan_bytes_saved.to_string(),
            s.counters.hits.to_string(),
            s.counters.misses.to_string(),
            s.counters.invalidations.to_string(),
            s.counters.evictions.to_string(),
            s.mismatches.to_string(),
        ]);
        cells.push(obj(vec![
            ("phase", Value::String((*name).into())),
            ("queries", num_u(s.queries)),
            ("mean_wall_us", num_f(s.mean_wall_us)),
            ("rows_scanned", num_u(s.rows_scanned)),
            ("splits", num_u(s.splits)),
            ("splits_skipped", num_u(s.skipped)),
            ("splits_scheduled", num_u(s.scheduled)),
            ("skip_rate", num_f(s.skip_rate())),
            ("scan_bytes_saved", num_u(s.scan_bytes_saved)),
            ("hits", num_u(s.counters.hits)),
            ("misses", num_u(s.counters.misses)),
            ("inserts", num_u(s.counters.inserts)),
            ("invalidations", num_u(s.counters.invalidations)),
            ("evictions", num_u(s.counters.evictions)),
            ("mismatches", num_u(s.mismatches)),
        ]));
    }

    report.checks.push(Check::new(
        "cached answers are bit-identical to recomputation",
        "0 row mismatches against the uncached shadow across all phases",
        format!("{}", bench.mismatches_total),
        bench.mismatches_total == 0,
    ));
    report.checks.push(Check::new(
        "a warm repeat skips every split",
        "warm skip rate = 1.0 and 0 rows scanned",
        format!("{:.4}, {} rows", warm.skip_rate(), warm.rows_scanned),
        warm.skip_rate() == 1.0 && warm.rows_scanned == 0,
    ));
    report.checks.push(Check::new(
        "warm repeats cut modeled latency at least 5x",
        "cold mean wall / warm mean wall ≥ 5",
        format!("{:.1}x", cold.mean_wall_us / warm.mean_wall_us),
        cold.mean_wall_us >= 5.0 * warm.mean_wall_us,
    ));
    report.checks.push(Check::new(
        "canonicalization serves commuted plans from the same entries",
        "commuted skip rate = 1.0 with 0 inserts",
        format!(
            "{:.4}, {} inserts",
            commuted.skip_rate(),
            commuted.counters.inserts
        ),
        commuted.skip_rate() == 1.0 && commuted.counters.inserts == 0,
    ));
    report.checks.push(Check::new(
        "appends rescan only the new files",
        "append-phase scheduled splits = one new file per partition per query touching it",
        format!(
            "{} scheduled of {} splits, skip rate {:.4}",
            append.scheduled,
            append.splits,
            append.skip_rate()
        ),
        append.scheduled == append.queries * partitions as u64
            && append.skipped == append.splits - append.scheduled,
    ));
    report.checks.push(Check::new(
        "rewrites invalidate exactly the stale splits",
        "rewrite phase has invalidations > 0 and rescans one file per partition per query",
        format!(
            "{} invalidations, {} scheduled",
            rewrite.counters.invalidations, rewrite.scheduled
        ),
        rewrite.counters.invalidations > 0
            && rewrite.scheduled == rewrite.queries * partitions as u64,
    ));
    report.checks.push(Check::new(
        "a flash crowd is absorbed by the cache",
        "burst skip rate ≥ 0.95",
        format!("{:.4}", burst.skip_rate()),
        burst.skip_rate() >= 0.95,
    ));
    report.checks.push(Check::new(
        "capacity pressure evicts without breaking answers",
        "thrash phase has evictions > 0 and 0 mismatches",
        format!(
            "{} evictions, {} mismatches",
            thrash.counters.evictions, thrash.mismatches
        ),
        thrash.counters.evictions > 0 && thrash.mismatches == 0,
    ));
    let assigned = bench.cached.scheduler().assigned_total();
    report.checks.push(Check::new(
        "split accounting reconciles with the scheduler",
        "sum of splits_scheduled across all phases = scheduler's assigned total",
        format!("{} vs {}", bench.scheduled_total, assigned),
        bench.scheduled_total == assigned,
    ));

    report.notes.push(format!(
        "fact table: {partitions} partitions x {files_per_partition} files x {ROWS_PER_FILE} rows; \
         pool of {POOL} query shapes plus {POOL} commuted twins; engine wall_time is modeled \
         (worker critical path + probe cost + coordinator overhead) on the sim clock"
    ));
    report.notes.push(
        "simulated time: fully deterministic, so CI diffs BENCH_resultcache.json against the \
         committed baseline"
            .into(),
    );

    if !quick {
        let json = obj(vec![
            ("experiment", Value::String("resultcache".into())),
            (
                "config",
                obj(vec![
                    ("partitions", num_u(partitions as u64)),
                    ("files_per_partition", num_u(files_per_partition as u64)),
                    ("rows_per_file", num_u(ROWS_PER_FILE as u64)),
                    ("pool", num_u(POOL as u64)),
                    ("drift_queries", num_u(drift_len as u64)),
                    ("burst_queries", num_u(burst_len as u64)),
                    ("zipf_exponent", num_f(1.39)),
                ]),
            ),
            ("cells", Value::Array(cells)),
        ]);
        report.artifact = Some(Artifact {
            file: "BENCH_resultcache.json",
            json,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_all_checks_pass() {
        let report = run(true);
        assert!(report.all_ok(), "{report}");
    }

    #[test]
    fn warm_pass_skips_everything() {
        let mut bench = Bench::new(2, 2);
        let ws: Vec<usize> = (0..POOL).collect();
        bench.run_phase(&ws);
        let warm = bench.run_phase(&ws);
        assert_eq!(warm.skipped, warm.splits);
        assert_eq!(warm.rows_scanned, 0);
        assert_eq!(warm.mismatches, 0);
    }
}
