//! The names this benchmark prints. `BENCHMARK.json` at the repo root lists
//! the same names with their direction and bound; `benchmark check`
//! compares the two.

use crate::harness::{metric, Metric};

/// `run_seconds` of `BENCHMARK.json`: timed seconds per run.
pub const RUN_SECONDS: f64 = 20.0;

pub const WORKLOADS: [&str; 4] = ["embed_hit", "embed_churn", "kv_mixed", "olap_repeat"];

/// End-to-end metrics, the same eight on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "op/s"),
    ("p50_us", "us"),
    ("p95_us", "us"),
    ("cpu_us_per_op", "us"),
    ("hit_ratio", "ratio"),
    ("ok_ratio", "ratio"),
    ("rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `<crate>.<metric>`. Every traced run prints all of
/// them; a workload that does not reach a layer prints 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("driver.p99_us", "us"),
    ("driver.p999_us", "us"),
    ("driver.samples", "count"),
    ("driver.window_spread", "ratio"),
    ("driver.trace_overhead", "ratio"),
    ("core.index_touch_ns", "ns"),
    ("core.read_small_us", "us"),
    ("core.read_large_us_per_mib", "us"),
    ("core.read_miss_us", "us"),
    ("core.page_hit_ratio", "ratio"),
    ("core.mem_hit_share", "ratio"),
    ("core.hits_slow_path", "count"),
    ("core.evictions_per_op", "count"),
    ("core.promotions_per_op", "count"),
    ("core.demotions_per_op", "count"),
    ("core.bytes_copied_per_op", "B"),
    ("core.remote_requests_per_op", "count"),
    ("core.remote_bytes_per_op", "B"),
    ("core.inflight_waits", "count"),
    ("pagestore.local_get_small_us", "us"),
    ("pagestore.local_get_page_us", "us"),
    ("pagestore.local_put_us", "us"),
    ("pagestore.local_delete_us", "us"),
    ("pagestore.mem_get_ns", "ns"),
    ("server.parse_ns", "ns"),
    ("server.object_get_us_1k", "us"),
    ("server.object_get_us_32k", "us"),
    ("server.object_set_us_1k", "us"),
    ("server.object_set_us_32k", "us"),
    ("server.encode_ns", "ns"),
    ("server.wire_us", "us"),
    ("server.request_us", "us"),
    ("server.bytes_out_per_op", "B"),
    ("server.get_p50_us", "us"),
    ("server.set_p50_us", "us"),
    ("olap.rc_hit_us", "us"),
    ("olap.scan_us", "us"),
    ("olap.rc_probe_ns", "ns"),
    ("olap.split_us", "us"),
    ("olap.rows_scanned_per_query", "count"),
    ("columnar.footer_parse_us", "us"),
    ("columnar.meta_hit_ratio", "ratio"),
    ("columnar.decode_us_per_mib", "us"),
    ("storage.remote_read_us", "us"),
    ("storage.requests_per_query", "count"),
];

/// Orders `measured` like [`PER_LAYER`] and prints 0 for the layers the
/// workload does not reach.
pub fn complete_layer_metrics(measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        assert!(
            PER_LAYER
                .iter()
                .any(|&(name, unit)| name == m.name && unit == m.unit),
            "`{}` ({}) is not in the per-layer catalogue",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect()
}
