//! `bench trace_dump` — runs a small traced workload against the cache
//! manager on a virtual clock and returns every span as Chrome trace-event
//! JSON (load it in `chrome://tracing` or Perfetto, or summarize it with
//! `edgecache-cli trace <path>`). This is the dump the CI trace smoke step
//! feeds through the CLI.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use edgecache_common::clock::SimClock;
use edgecache_common::ByteSize;
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache_metrics::{MetricRegistry, Tracer};
use edgecache_pagestore::{CacheScope, MemoryPageStore};
use edgecache_workload::zipf::ZipfSampler;

use crate::report::{Check, ExperimentReport, TextTable};

const PAGE: u64 = 4096;
const FILES: usize = 32;
const FILE_LEN: u64 = 64 * PAGE;

/// A remote charging 2 ms of virtual time per ranged request.
struct VirtualRemote {
    clock: Arc<SimClock>,
}

impl RemoteSource for VirtualRemote {
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
            self.clock.advance(Duration::from_millis(2));
        }
        Ok(ranges
            .iter()
            .map(|&(_, len)| Bytes::from(vec![0u8; len as usize]))
            .collect())
    }
}

/// Runs the traced workload. Returns a report (span and slow-op counts,
/// checked non-empty) and the Chrome trace JSON.
pub fn run() -> (ExperimentReport, String) {
    let clock = Arc::new(SimClock::new());
    let registry = MetricRegistry::new("trace-dump");
    let tracer = Tracer::enabled(clock.clone())
        .with_registry(Arc::new(registry.clone()))
        .with_slow_threshold(Duration::from_millis(1));

    // Half the dataset fits, so the Zipf workload mixes hits, misses with
    // coalesced multi-page fetches, and evictions — every read-path stage
    // shows up in the dump.
    let config = CacheConfig::default().with_page_size(ByteSize::new(PAGE));
    let cache = CacheManager::builder(config)
        .with_store(
            Arc::new(MemoryPageStore::new()),
            FILES as u64 * FILE_LEN / 2,
        )
        .with_clock(clock.clone())
        .with_metrics(registry)
        .with_tracer(tracer.clone())
        .build()
        .expect("cache builds");

    let remote = VirtualRemote {
        clock: clock.clone(),
    };
    let mut zipf = ZipfSampler::new(FILES, 1.1, 42);
    for i in 0..400u64 {
        let f = zipf.sample();
        let sf = SourceFile::new(format!("/bench/f{f}"), 1, FILE_LEN, CacheScope::Global);
        let offset = (i % 8) * 8 * PAGE;
        cache.read(&sf, offset, 8 * PAGE, &remote).expect("read");
    }

    let records = tracer.records();
    let slow = tracer.slow_ops();
    let mut report = ExperimentReport::new(
        "trace_dump",
        "Read-path spans of a traced Zipf workload, as Chrome trace events",
    );
    let roots = records.iter().filter(|r| r.name == "cache.read").count();
    report.table = TextTable::new(&["spans", "cache.read roots", "slow ops (> 1 ms)"]);
    report.table.row(vec![
        records.len().to_string(),
        roots.to_string(),
        slow.len().to_string(),
    ]);
    report.checks.push(Check::new(
        "every stage traced",
        "cache.read roots and a non-empty slow-op log",
        format!("{roots} roots, {} slow ops", slow.len()),
        roots > 0 && !slow.is_empty(),
    ));
    report
        .notes
        .extend(slow.iter().take(3).map(|op| op.to_string()));
    (report, tracer.chrome_trace_json())
}
