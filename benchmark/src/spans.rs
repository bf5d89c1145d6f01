//! Reading the span records of a traced run.

use std::collections::HashMap;

use edgecache_metrics::SpanRecord;

/// A numeric annotation of a span.
pub fn arg(record: &SpanRecord, key: &str) -> Option<u64> {
    record
        .args
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

pub fn nanos(record: &SpanRecord) -> u64 {
    record.end_nanos.saturating_sub(record.start_nanos)
}

/// Nanoseconds covered by direct children, per parent span id. A span's
/// self time is its duration minus this. (Children of one span never
/// overlap here: the driver is one thread and the one concurrent child,
/// the remote stub under a fetch pool, is instantaneous.)
pub fn child_nanos(records: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut covered = HashMap::new();
    for r in records.iter().filter(|r| r.parent != 0) {
        *covered.entry(r.parent).or_insert(0) += nanos(r);
    }
    covered
}

/// Mean duration in nanoseconds of `records`; 0 if there are none.
pub fn mean_nanos<'a>(records: impl Iterator<Item = &'a SpanRecord>) -> f64 {
    let (mut total, mut count) = (0u64, 0u64);
    for r in records {
        total += nanos(r);
        count += 1;
    }
    total as f64 / count.max(1) as f64
}
