//! Per-query runtime statistics and their table-level aggregation (§6.1.3).
//!
//! "Whenever Presto I/O operations engage the local cache, relevant metrics,
//! such as cache hit rate and pages read, are recorded ... query-level
//! runtime statistics are logged as in-memory metrics, which are
//! periodically gathered for extensive monitoring."
//!
//! `input_wall` is the simulated analog of Presto's `inputWall` on the
//! `ScanFilterProjectOperator` — the metric Figure 10 reports before/after
//! enabling the cache.

use std::collections::BTreeMap;
use std::time::Duration;

use edgecache_metrics::{Histogram, Percentiles};
use parking_lot::Mutex;

/// Runtime statistics for one executed query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    pub query_id: u64,
    pub table: String,
    pub splits: usize,
    /// Splits covered by the result cache: no scheduling, no scan.
    pub splits_skipped: usize,
    /// Splits actually handed to the soft-affinity scheduler (this query
    /// plus its join build sides). Always `splits - splits_skipped` for the
    /// fact scan itself; the invariant is cross-checked against the
    /// scheduler's own assignment counter by the simtest oracle and the
    /// resultcache bench.
    pub splits_scheduled: usize,
    /// Bytes of data files the result cache kept off the scan path.
    pub scan_bytes_saved: u64,
    pub rows_scanned: u64,
    pub rows_output: u64,
    /// Simulated time the critical-path worker spent reading input
    /// (the `inputWall` of the ScanFilterProject stage).
    pub input_wall: Duration,
    /// Simulated CPU time on the critical path (decode, filter, footer
    /// parsing).
    pub cpu_time: Duration,
    /// End-to-end simulated query latency.
    pub wall_time: Duration,
    pub bytes_from_cache: u64,
    pub bytes_from_remote: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Per-stage latency attribution, summed across the query's splits:
    /// stage name (`scan`, `decode`, `filter`, `join`, `aggregate`, …) →
    /// simulated time spent in that stage.
    pub stage_breakdown: BTreeMap<&'static str, Duration>,
}

impl RuntimeStats {
    /// Cache hit rate over page accesses, or `None` without traffic.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// Adds a split's per-stage times into this query's breakdown.
    pub fn merge_stage_breakdown(&mut self, other: &BTreeMap<&'static str, Duration>) {
        for (&stage, &d) in other {
            *self.stage_breakdown.entry(stage).or_default() += d;
        }
    }
}

/// Aggregated view of one table's queries.
#[derive(Debug)]
pub struct TableInsights {
    pub queries: u64,
    pub input_wall_us: Percentiles,
    pub wall_us: Percentiles,
    pub bytes_from_cache: u64,
    pub bytes_from_remote: u64,
    /// Cache hit rate across all the table's queries.
    pub hit_rate: Option<f64>,
}

#[derive(Default)]
struct TableAccum {
    queries: u64,
    input_wall_us: Histogram,
    wall_us: Histogram,
    bytes_from_cache: u64,
    bytes_from_remote: u64,
    hits: u64,
    misses: u64,
}

/// Collects per-query stats and aggregates them per table — the mechanism
/// that surfaces "hot partitions" and table-level insights in production.
#[derive(Default)]
pub struct QueryStatsCollector {
    tables: Mutex<BTreeMap<String, TableAccum>>,
}

impl QueryStatsCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one query's stats.
    pub fn record(&self, stats: &RuntimeStats) {
        let mut tables = self.tables.lock();
        // The table name is copied only for a table seen the first time.
        if !tables.contains_key(&stats.table) {
            tables.insert(stats.table.clone(), TableAccum::default());
        }
        let acc = tables.get_mut(&stats.table).expect("inserted above");
        acc.queries += 1;
        acc.input_wall_us
            .record(stats.input_wall.as_micros() as u64);
        acc.wall_us.record(stats.wall_time.as_micros() as u64);
        acc.bytes_from_cache += stats.bytes_from_cache;
        acc.bytes_from_remote += stats.bytes_from_remote;
        acc.hits += stats.cache_hits;
        acc.misses += stats.cache_misses;
    }

    /// Table-level insights, or `None` if the table has no recorded queries.
    pub fn table_insights(&self, table: &str) -> Option<TableInsights> {
        let tables = self.tables.lock();
        let acc = tables.get(table)?;
        Some(TableInsights {
            queries: acc.queries,
            input_wall_us: acc.input_wall_us.percentiles()?,
            wall_us: acc.wall_us.percentiles()?,
            bytes_from_cache: acc.bytes_from_cache,
            bytes_from_remote: acc.bytes_from_remote,
            hit_rate: {
                let total = acc.hits + acc.misses;
                (total > 0).then(|| acc.hits as f64 / total as f64)
            },
        })
    }

    /// Tables with recorded queries.
    pub fn tables(&self) -> Vec<String> {
        self.tables.lock().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(table: &str, input_ms: u64, hits: u64, misses: u64) -> RuntimeStats {
        RuntimeStats {
            table: table.into(),
            input_wall: Duration::from_millis(input_ms),
            wall_time: Duration::from_millis(input_ms * 2),
            cache_hits: hits,
            cache_misses: misses,
            bytes_from_cache: hits * 100,
            bytes_from_remote: misses * 100,
            ..Default::default()
        }
    }

    #[test]
    fn hit_rate_math() {
        assert_eq!(stats("t", 1, 3, 1).hit_rate(), Some(0.75));
        assert_eq!(RuntimeStats::default().hit_rate(), None);
    }

    #[test]
    fn table_aggregation() {
        let c = QueryStatsCollector::new();
        for ms in [10, 20, 30, 40] {
            c.record(&stats("s.t", ms, 8, 2));
        }
        let insights = c.table_insights("s.t").unwrap();
        assert_eq!(insights.queries, 4);
        assert_eq!(insights.hit_rate, Some(0.8));
        assert_eq!(insights.bytes_from_cache, 4 * 800);
        // P50 of {10,20,30,40} ms in µs is ~20 000.
        let p50 = insights.input_wall_us.p50;
        assert!((18_000..23_000).contains(&p50), "{p50}");
        assert!(c.table_insights("none").is_none());
        assert_eq!(c.tables(), vec!["s.t".to_string()]);
    }
}
