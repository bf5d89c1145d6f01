//! **Scan path** — what the vectored read path buys an OLAP scan.
//!
//! A projected row group is a batch of per-column chunk ranges scattered
//! through the file. The sequential baseline reads them one `cache.read`
//! at a time — one remote round trip per missing chunk, nothing overlaps.
//! The vectored path plans the whole batch as one `cache.read_multi`
//! (misses classify and coalesce across fragments, fetches share the
//! request pool) and pipelines row group N+1's batch behind row group N's
//! decode. This experiment runs a TPC-DS-shaped aggregate over a
//! five-column projection at 0/50/100% cache hit ratios and compares the
//! modeled split latency (I/O + CPU on the device cost models) of both
//! paths.
//!
//! A full run records `BENCH_scanpath.json` at the workspace root. The
//! times are modeled, so `bench scanpath --check` compares the whole file
//! byte for byte, and the run itself fails if the vectored path is more
//! than 20% slower than the per-column baseline at any hit ratio.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use edgecache_columnar::{ColfWriter, ColumnType, Schema, Value as ColValue};
use edgecache_common::clock::SimClock;
use edgecache_common::ByteSize;
use edgecache_core::manager::{RemoteSource, SourceFile};
use edgecache_olap::{AggExpr, DataFile, QueryPlan, Worker, WorkerConfig};
use edgecache_pagestore::CacheScope;
use serde_json::Value;

use crate::report::{num_f, num_u, obj, Artifact, Check, ExperimentReport, TextTable};

/// Projected columns of the scan (the acceptance floor is four).
const PROJECTED_COLUMNS: usize = 5;

/// A remote serving one in-memory file, EOF-clamped like a real store.
struct FileRemote {
    path: String,
    data: Bytes,
}

impl RemoteSource for FileRemote {
    fn read(&self, path: &str, offset: u64, len: u64) -> edgecache_common::Result<Bytes> {
        if path != self.path {
            return Err(edgecache_common::Error::NotFound(path.to_string()));
        }
        let total = self.data.len() as u64;
        let start = offset.min(total) as usize;
        let end = offset.saturating_add(len).min(total) as usize;
        Ok(self.data.slice(start..end))
    }
}

/// Builds a store_sales-shaped fact file: `row_groups` groups of
/// `rows_per_group` rows over five columns (two Int64, two Float64, one
/// low-cardinality Utf8 grouping key). Content is a pure function of the
/// row index, so every measurement scans identical bytes.
fn build_file(row_groups: usize, rows_per_group: usize) -> (FileRemote, DataFile) {
    let schema = Schema::new(vec![
        ("ss_item", ColumnType::Int64),
        ("ss_qty", ColumnType::Int64),
        ("ss_price", ColumnType::Float64),
        ("ss_disc", ColumnType::Float64),
        ("ss_region", ColumnType::Utf8),
    ]);
    let mut w = ColfWriter::new(schema, rows_per_group);
    for i in 0..(row_groups * rows_per_group) as i64 {
        w.push_row(vec![
            ColValue::Int64(i * 7919 % 10_000),
            ColValue::Int64(i % 100),
            ColValue::Float64((i % 997) as f64 * 0.25),
            ColValue::Float64((i % 13) as f64 * 0.01),
            ColValue::Utf8(format!("r{}", i % 8)),
        ])
        .expect("row shape matches schema");
    }
    let bytes = w.finish().expect("writer finishes");
    let file = DataFile {
        path: "/bench/store_sales".into(),
        version: 1,
        length: bytes.len() as u64,
    };
    (
        FileRemote {
            path: file.path.clone(),
            data: bytes,
        },
        file,
    )
}

fn plan() -> QueryPlan {
    // Five projected columns: four aggregate inputs plus the group key.
    QueryPlan::scan("bench", "store_sales", &[])
        .aggregate(vec![
            AggExpr::count(),
            AggExpr::sum("ss_price"),
            AggExpr::sum("ss_qty"),
            AggExpr::sum("ss_disc"),
            AggExpr::min("ss_item"),
        ])
        .group("ss_region")
}

/// One measured cell: modeled split latency, remote requests issued by the
/// measured scan, and the finalized aggregate (for the equivalence check).
struct Cell {
    modeled: Duration,
    remote_requests: u64,
    result: Vec<Vec<ColValue>>,
}

/// Runs one scan at `hit_pct` (0, 50, or 100) on a fresh worker. 50% primes
/// the cache with the file's first half; 100% runs the same split once
/// before measuring.
fn measure(vectored: bool, hit_pct: u64, row_groups: usize, rows_per_group: usize) -> Cell {
    let (remote, file) = build_file(row_groups, rows_per_group);
    let worker = Worker::new(
        if vectored { "vec" } else { "seq" },
        WorkerConfig {
            page_size: ByteSize::kib(4),
            vectored_scan: vectored,
            ..Default::default()
        },
        Arc::new(SimClock::new()),
    )
    .expect("worker builds");
    let scope = CacheScope::table("bench", "store_sales");
    let plan = plan();
    match hit_pct {
        50 => {
            let sf = SourceFile::new(&file.path, file.version, file.length, scope.clone());
            worker
                .cache()
                .expect("cache enabled")
                .read(&sf, 0, file.length / 2, &remote)
                .expect("prime read");
        }
        100 => {
            worker
                .execute_split(&file, &scope, &plan, &[], &remote, true)
                .expect("warming split");
        }
        _ => {}
    }
    let metrics = worker.cache_metrics().expect("cache enabled");
    let before = metrics.counter("remote_requests").get();
    let out = worker
        .execute_split(&file, &scope, &plan, &[], &remote, true)
        .expect("measured split");
    Cell {
        modeled: out.io_time + out.cpu_time,
        remote_requests: metrics.counter("remote_requests").get() - before,
        result: out.partial.expect("aggregate plan").finalize(),
    }
}

/// Runs the scan-path sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "scanpath",
        "Vectored scan path: multi-range cache reads + row-group prefetch vs per-column baseline",
    );
    // 512 rows per group puts each fixed-width chunk at a page of its own
    // (4 KiB), so the baseline's per-column reads cannot hide behind page
    // sharing — the shape real warehouse row groups have at real page sizes.
    let (row_groups, rows_per_group) = if quick { (8, 512) } else { (24, 512) };
    let hit_ratios: &[(&str, u64)] = &[("0%", 0), ("50%", 50), ("100%", 100)];

    report.table = TextTable::new(&[
        "hits",
        "sequential",
        "vectored",
        "speedup",
        "seq reqs",
        "vec reqs",
    ]);
    let mut cells = Vec::new();
    let mut cold_speedup = 0.0f64;
    let mut worst_ratio = 0.0f64;
    let mut cold_reqs = (0u64, 0u64);
    let mut results_match = true;
    for &(label, pct) in hit_ratios {
        let seq = measure(false, pct, row_groups, rows_per_group);
        let vec = measure(true, pct, row_groups, rows_per_group);
        let speedup = seq.modeled.as_secs_f64() / vec.modeled.as_secs_f64().max(1e-9);
        results_match &= seq.result == vec.result;
        if pct == 0 {
            cold_speedup = speedup;
            cold_reqs = (seq.remote_requests, vec.remote_requests);
        }
        worst_ratio = worst_ratio.max(vec.modeled.as_secs_f64() / seq.modeled.as_secs_f64());
        report.table.row(vec![
            label.to_string(),
            format!("{:.2} ms", seq.modeled.as_secs_f64() * 1e3),
            format!("{:.2} ms", vec.modeled.as_secs_f64() * 1e3),
            format!("{speedup:.1}x"),
            seq.remote_requests.to_string(),
            vec.remote_requests.to_string(),
        ]);
        cells.push(obj(vec![
            ("hit_ratio", Value::String(label.to_string())),
            ("sequential_ms", num_f(seq.modeled.as_secs_f64() * 1e3)),
            ("vectored_ms", num_f(vec.modeled.as_secs_f64() * 1e3)),
            ("speedup", num_f(speedup)),
            ("sequential_requests", num_u(seq.remote_requests)),
            ("vectored_requests", num_u(vec.remote_requests)),
        ]));
    }

    report.checks.push(Check::new(
        "cold 5-column scan",
        ">= 2x lower modeled split latency",
        format!("{cold_speedup:.1}x"),
        cold_speedup >= 2.0,
    ));
    report.checks.push(Check::new(
        "regression gate",
        "vectored <= 1.2x sequential at every hit ratio",
        format!("worst {worst_ratio:.2}x"),
        worst_ratio <= 1.2,
    ));
    report.checks.push(Check::new(
        "cold remote requests",
        "vectored batches fewer requests",
        format!("{} vs {} sequential", cold_reqs.1, cold_reqs.0),
        cold_reqs.1 < cold_reqs.0,
    ));
    report.checks.push(Check::new(
        "result equivalence",
        "identical aggregates on both paths",
        if results_match {
            "identical"
        } else {
            "diverged"
        },
        results_match,
    ));
    report.notes.push(format!(
        "{row_groups} row groups x {rows_per_group} rows, {PROJECTED_COLUMNS} projected columns, \
         4 KiB pages, local-SSD/object-store device models"
    ));

    // Quick runs are reduced-scale: only a full run records the artifact.
    if !quick {
        let json = obj(vec![
            ("experiment", Value::String("scanpath".to_string())),
            ("row_groups", num_u(row_groups as u64)),
            ("rows_per_group", num_u(rows_per_group as u64)),
            ("projected_columns", num_u(PROJECTED_COLUMNS as u64)),
            ("cells", Value::Array(cells)),
        ]);
        report.artifact = Some(Artifact {
            file: "BENCH_scanpath.json",
            json,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shows_speedup() {
        let report = run(true);
        assert!(report.all_ok(), "{report}");
    }
}
