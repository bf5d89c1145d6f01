//! A worker node: the local cache, the metadata cache, and split execution
//! (the ScanFilterProject + partial-aggregation pipeline of §6.1.1,
//! Figure 7).
//!
//! Execution is functionally real — actual `colf` bytes are fetched (through
//! the cache or not), decoded, filtered, and aggregated. *Time* is charged
//! from device cost models: SSD time for cache hits, remote-network time for
//! misses, and CPU time for decode, row filtering, and footer parsing.

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use edgecache_columnar::{
    ColfReader, ColumnData, ColumnView, MetadataCache, RangeReader, Scalar, Value,
};
use edgecache_common::clock::SharedClock;
use edgecache_common::error::{Error, Result};
use edgecache_common::ByteSize;
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache_metrics::{Counter, MetricRegistry, SpanId, Tracer};
use edgecache_pagestore::{CacheScope, MemoryPageStore};
use edgecache_storage::DeviceModel;

use crate::catalog::DataFile;
use crate::plan::{AggExpr, AggFunc, QueryPlan};
use crate::resultcache::split_key;

/// Worker tuning.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Local-cache capacity in bytes (0 disables caching entirely).
    pub cache_capacity: u64,
    /// Cache page size.
    pub page_size: ByteSize,
    /// Whether the data cache is enabled.
    pub enable_cache: bool,
    /// Whether the (deserialized) file-metadata cache is enabled.
    pub enable_metadata_cache: bool,
    /// Entry-count bound of the footer metadata cache (LRU beyond it).
    pub metadata_cache_capacity: usize,
    /// Device model for local-SSD cache reads.
    pub ssd: DeviceModel,
    /// Device model for remote (data lake) reads.
    pub remote: DeviceModel,
    /// Simulated CPU cost of decoding one encoded byte.
    pub decode_nanos_per_byte: u64,
    /// Simulated CPU cost of evaluating the filter on one row.
    pub filter_nanos_per_row: u64,
    /// Simulated CPU cost of one hash-join probe.
    pub join_probe_nanos_per_row: u64,
    /// Whether the scan plans each row group's projected chunks as one
    /// vectored read (`CacheManager::read_multi`). `false` forces the
    /// per-column sequential baseline the `scanpath` bench compares against.
    pub vectored_scan: bool,
    /// How many row groups ahead of the one being decoded the vectored scan
    /// fetches (0 disables the prefetch pipeline). The window refills as one
    /// vectored call, so its groups' requests stay in flight together and
    /// amortize in a single modeled batch; the I/O overlaps the current row
    /// group's decode CPU and only the uncovered remainder is charged, as
    /// `io.prefetch`.
    pub prefetch_depth: usize,
    /// Tracer shared by the worker's cache and its split execution; the
    /// engine also parents its per-query spans here. Disabled by default.
    pub tracer: Tracer,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            cache_capacity: ByteSize::gib(1).as_u64(),
            page_size: ByteSize::mib(1),
            enable_cache: true,
            enable_metadata_cache: true,
            metadata_cache_capacity: edgecache_columnar::metacache::DEFAULT_METADATA_CAPACITY,
            ssd: DeviceModel::local_ssd(),
            remote: DeviceModel::object_store(),
            decode_nanos_per_byte: 25,
            filter_nanos_per_row: 50,
            join_probe_nanos_per_row: 100,
            vectored_scan: true,
            prefetch_depth: 1,
            tracer: Tracer::disabled(),
        }
    }
}

/// A broadcast-join build side, prepared once per scanning query by the
/// coordinator: dimension key → dimension row, plus the dimension columns
/// the query reads *through* that row index (nothing is copied per fact row).
#[derive(Debug, Clone)]
pub struct PreparedJoin {
    /// Fact-side key column name.
    pub fact_key: String,
    row_of: KeyIndex,
    columns: Vec<(String, ColumnData)>,
}

/// Dimension key → dimension row. Surrogate keys are usually packed
/// (`0..n`), and then a probe is one load from a table indexed by
/// `key - base`; keys spread too thin for that are hashed.
#[derive(Debug, Clone)]
enum KeyIndex {
    Dense { base: i64, rows: Vec<u32> },
    Sparse(HashMap<i64, u32>),
}

/// An empty [`KeyIndex::Dense`] slot (row ids stay below it: `keys` would
/// have to hold 2^32 entries).
const NO_ROW: u32 = u32::MAX;

impl KeyIndex {
    /// A duplicate key keeps its last row.
    fn new(keys: &[i64]) -> Self {
        let rows = keys.iter().copied().zip(0u32..);
        let base = keys.iter().copied().min().unwrap_or(0);
        let span = keys.iter().map(|k| k.abs_diff(base)).max().unwrap_or(0);
        // Direct indexing is worth a table a few times the key count.
        if span >= 4 * keys.len() as u64 + 1024 {
            return KeyIndex::Sparse(rows.collect());
        }
        let mut table = vec![NO_ROW; span as usize + 1];
        for (key, row) in rows {
            table[key.abs_diff(base) as usize] = row;
        }
        KeyIndex::Dense { base, rows: table }
    }

    /// The row of `key`, or [`NO_ROW`].
    fn get(&self, key: i64) -> u32 {
        let row = match self {
            // A key below `base` wraps to an offset past any table.
            KeyIndex::Dense { base, rows } => usize::try_from(key.wrapping_sub(*base) as u64)
                .ok()
                .and_then(|slot| rows.get(slot)),
            KeyIndex::Sparse(rows) => rows.get(&key),
        };
        row.copied().unwrap_or(NO_ROW)
    }
}

impl PreparedJoin {
    /// Indexes a (filtered) dimension: `keys[i]` owns row `i` of every
    /// column in `columns`.
    pub fn new(fact_key: &str, keys: &[i64], columns: Vec<(String, ColumnData)>) -> Self {
        Self {
            fact_key: fact_key.to_string(),
            row_of: KeyIndex::new(keys),
            columns,
        }
    }

    /// Probes with one row group's fact keys: unmatched rows leave `sel`,
    /// and the returned vector maps each surviving fact row to its
    /// dimension row.
    fn probe(&self, keys: Option<&ColumnData>, sel: &mut Vec<u32>) -> Result<Vec<u32>> {
        let keys = match keys {
            Some(ColumnData::Int64(keys)) => keys,
            Some(other) => {
                return Err(Error::InvalidArgument(format!(
                    "join key `{}` must be int64, got {}",
                    self.fact_key,
                    other.column_type()
                )))
            }
            None => {
                return Err(Error::InvalidArgument(format!(
                    "join key `{}` not read",
                    self.fact_key
                )))
            }
        };
        // Compacts `sel` in place, branch-free like the filter kernels.
        let mut dim_rows = vec![NO_ROW; keys.len()];
        let mut kept = 0;
        for i in 0..sel.len() {
            let r = sel[i];
            let row = self.row_of.get(keys[r as usize]);
            dim_rows[r as usize] = row;
            sel[kept] = r;
            kept += usize::from(row != NO_ROW);
        }
        sel.truncate(kept);
        Ok(dim_rows)
    }
}

/// Where a column name resolves for a whole split. Dimension names shadow
/// fact names, the earlier join first.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Slot in the split's decoded fact columns.
    Fact(usize),
    /// `(join, column)` of a build side, read through that join's probe.
    Dim(usize, usize),
}

/// Projected rows in columnar form: one column per `plan.projection` entry
/// (none until a row is selected).
#[derive(Debug, Default)]
pub(crate) struct RowBatch {
    pub(crate) rows: usize,
    pub(crate) columns: Vec<ColumnData>,
}

impl RowBatch {
    /// Appends another split's rows.
    pub(crate) fn append(&mut self, other: RowBatch) -> Result<()> {
        self.rows += other.rows;
        if self.columns.is_empty() {
            self.columns = other.columns;
            return Ok(());
        }
        for (mine, theirs) in self.columns.iter_mut().zip(other.columns) {
            mine.append(theirs)?;
        }
        Ok(())
    }

    /// Materialises the rows, once.
    pub(crate) fn into_rows(self) -> Vec<Vec<Value>> {
        let width = self.columns.len();
        let mut rows: Vec<Vec<Value>> = (0..self.rows).map(|_| Vec::with_capacity(width)).collect();
        for column in self.columns {
            for (row, value) in rows.iter_mut().zip(column.into_values()) {
                row.push(value);
            }
        }
        rows
    }
}

/// Output of one split execution.
#[derive(Debug, Default)]
pub struct SplitOutput {
    /// Projected rows (non-aggregate queries).
    pub rows: Vec<Vec<Value>>,
    /// Partial aggregation state (aggregate queries).
    pub partial: Option<PartialAgg>,
    pub rows_scanned: u64,
    pub io_time: Duration,
    pub cpu_time: Duration,
    pub bytes_from_cache: u64,
    pub bytes_from_remote: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Per-stage latency attribution for this split: operator/stage name →
    /// simulated time charged (`io.cache_read`, `io.remote_read`,
    /// `cpu.decode`, `cpu.filter`, …).
    pub stage_breakdown: BTreeMap<&'static str, Duration>,
}

impl SplitOutput {
    /// Attributes `d` of simulated time to `stage` (no-op for zero time, so
    /// untouched stages stay out of the breakdown).
    fn charge_stage(&mut self, stage: &'static str, d: Duration) {
        if d > Duration::ZERO {
            *self.stage_breakdown.entry(stage).or_default() += d;
        }
    }
}

/// The I/O a single read call put on each device: SSD requests/bytes for
/// cache hits, remote requests/bytes for misses.
#[derive(Debug, Default, Clone, Copy)]
struct IoDelta {
    ssd_requests: u64,
    ssd_bytes: u64,
    remote_requests: u64,
    remote_bytes: u64,
}

/// Per-call I/O accounting shared between a scan-path reader (which appends
/// one [`IoDelta`] per read it issues) and the scan loop (which turns each
/// call into modeled device time — per call, because separate sequential
/// calls cannot pipeline against each other).
#[derive(Debug, Default)]
struct IoLog {
    entries: Mutex<Vec<IoDelta>>,
}

impl IoLog {
    fn push(&self, delta: IoDelta) {
        self.entries.lock().unwrap().push(delta);
    }

    /// Hands every entry logged since the last drain to `f`.
    fn drain(&self, f: impl FnMut(IoDelta)) {
        self.entries.lock().unwrap().drain(..).for_each(f);
    }
}

/// A range reader that serves through the worker's local cache.
struct CachedRangeReader<'a> {
    cache: &'a CacheManager,
    counters: &'a CacheCounters,
    file: &'a SourceFile,
    remote: &'a dyn RemoteSource,
    log: Arc<IoLog>,
}

impl CachedRangeReader<'_> {
    fn log_call<T>(&self, read: impl FnOnce() -> Result<T>) -> Result<T> {
        let before = self.counters.snapshot();
        let out = read()?;
        let after = self.counters.snapshot();
        self.log.push(IoDelta {
            ssd_requests: after[HITS] - before[HITS],
            ssd_bytes: after[BYTES_FROM_CACHE] - before[BYTES_FROM_CACHE],
            remote_requests: after[REMOTE_REQUESTS] - before[REMOTE_REQUESTS],
            remote_bytes: after[BYTES_FROM_REMOTE] - before[BYTES_FROM_REMOTE],
        });
        Ok(out)
    }
}

impl RangeReader for CachedRangeReader<'_> {
    fn read(&self, offset: u64, len: u64) -> Result<Bytes> {
        self.log_call(|| self.cache.read(self.file, offset, len, self.remote))
    }

    fn read_vectored(&self, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        self.log_call(|| self.cache.read_multi(self.file, ranges, self.remote))
    }

    fn len(&self) -> u64 {
        self.file.length
    }
}

/// A range reader that bypasses the cache (the scheduler's fallback path),
/// with its own request accounting. Its `read_vectored` still batches: the
/// row-group plan goes out as one ranged remote request batch, so the
/// requests amortize within a single logged call.
struct BypassRangeReader<'a> {
    remote: &'a dyn RemoteSource,
    path: &'a str,
    length: u64,
    requests: AtomicU64,
    bytes: AtomicU64,
    log: Arc<IoLog>,
}

impl RangeReader for BypassRangeReader<'_> {
    fn read(&self, offset: u64, len: u64) -> Result<Bytes> {
        let out = self.remote.read(self.path, offset, len)?;
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(out.len() as u64, Ordering::Relaxed);
        self.log.push(IoDelta {
            remote_requests: 1,
            remote_bytes: out.len() as u64,
            ..IoDelta::default()
        });
        Ok(out)
    }

    fn read_vectored(&self, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        // A scan that bypasses the cache still issues its row-group plan as
        // one ranged remote request batch — the requests amortize within
        // the single logged call exactly like the cached path's coalesced
        // fetch batches do.
        let out = self.remote.read_ranges(self.path, ranges)?;
        let total: u64 = out.iter().map(|b| b.len() as u64).sum();
        self.requests.fetch_add(out.len() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(total, Ordering::Relaxed);
        self.log.push(IoDelta {
            remote_requests: out.len() as u64,
            remote_bytes: total,
            ..IoDelta::default()
        });
        Ok(out)
    }

    fn len(&self) -> u64 {
        self.length
    }
}

/// A worker node.
pub struct Worker {
    id: String,
    /// The local cache with its per-split attribution counters.
    cache: Option<(CacheManager, CacheCounters)>,
    meta_cache: MetadataCache,
    config: WorkerConfig,
}

impl Worker {
    /// Creates a worker with an in-memory page store of the configured
    /// capacity.
    pub fn new(id: &str, config: WorkerConfig, clock: SharedClock) -> Result<Self> {
        let cache = if config.enable_cache && config.cache_capacity > 0 {
            let cache =
                CacheManager::builder(CacheConfig::default().with_page_size(config.page_size))
                    .with_store(
                        std::sync::Arc::new(MemoryPageStore::new()),
                        config.cache_capacity,
                    )
                    .with_clock(clock)
                    .with_metrics(MetricRegistry::new(format!("{id}-cache")))
                    .with_tracer(config.tracer.clone())
                    .build()?;
            let counters = CacheCounters::new(cache.metrics());
            Some((cache, counters))
        } else {
            None
        };
        Ok(Self {
            id: id.to_string(),
            cache,
            meta_cache: MetadataCache::with_capacity(config.metadata_cache_capacity),
            config,
        })
    }

    /// The worker id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The worker's cache metrics, if caching is enabled.
    pub fn cache_metrics(&self) -> Option<&MetricRegistry> {
        self.cache().map(|c| c.metrics())
    }

    /// The worker's metadata cache.
    pub fn metadata_cache(&self) -> &MetadataCache {
        &self.meta_cache
    }

    /// The worker's local cache manager, if enabled.
    pub fn cache(&self) -> Option<&CacheManager> {
        self.cache.as_ref().map(|(cache, _)| cache)
    }

    /// Executes one split: scans `file` for `plan`, reading through the
    /// cache unless `use_cache` is false (scheduler fallback). `joins`
    /// carries the broadcast-join build sides prepared by the coordinator.
    pub fn execute_split(
        &self,
        file: &DataFile,
        partition_scope: &CacheScope,
        plan: &QueryPlan,
        joins: &[PreparedJoin],
        remote: &dyn RemoteSource,
        use_cache: bool,
    ) -> Result<SplitOutput> {
        self.execute_split_traced(
            file,
            partition_scope,
            plan,
            joins,
            remote,
            use_cache,
            SpanId::NONE,
        )
    }

    /// [`Worker::execute_split`] with a trace parent: emits an `olap.split`
    /// span whose children lay the split's per-stage modeled times out on a
    /// virtual timeline, so OLAP operator costs land in the same per-stage
    /// histograms as the cache's read-path spans.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_split_traced(
        &self,
        file: &DataFile,
        partition_scope: &CacheScope,
        plan: &QueryPlan,
        joins: &[PreparedJoin],
        remote: &dyn RemoteSource,
        use_cache: bool,
        parent: SpanId,
    ) -> Result<SplitOutput> {
        let (mut out, batch) = self.scan_split(
            file,
            partition_scope,
            plan,
            joins,
            remote,
            use_cache,
            parent,
        )?;
        out.rows = batch.into_rows();
        Ok(out)
    }

    /// [`Worker::execute_split_traced`] with a projection query's rows still
    /// in columnar form (`SplitOutput::rows` stays empty), so the
    /// coordinator materialises them once per query — or, for a join build
    /// side, never.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_split(
        &self,
        file: &DataFile,
        partition_scope: &CacheScope,
        plan: &QueryPlan,
        joins: &[PreparedJoin],
        remote: &dyn RemoteSource,
        use_cache: bool,
        parent: SpanId,
    ) -> Result<(SplitOutput, RowBatch)> {
        let source_file = SourceFile::new(
            &file.path,
            file.version,
            file.length,
            partition_scope.clone(),
        );
        let log = Arc::new(IoLog::default());
        let (out, batch) = match (use_cache, self.cache.as_ref()) {
            (true, Some((cache, counters))) => {
                let before = counters.snapshot();
                let reader = CachedRangeReader {
                    cache,
                    counters,
                    file: &source_file,
                    remote,
                    log: Arc::clone(&log),
                };
                let (mut out, batch) = self.scan(reader, &log, file, plan, joins, parent)?;
                let after = counters.snapshot();
                out.bytes_from_cache = after[BYTES_FROM_CACHE] - before[BYTES_FROM_CACHE];
                out.bytes_from_remote = after[BYTES_FROM_REMOTE] - before[BYTES_FROM_REMOTE];
                out.cache_hits = after[HITS] - before[HITS];
                out.cache_misses = after[MISSES] - before[MISSES];
                (out, batch)
            }
            _ => {
                let reader = BypassRangeReader {
                    remote,
                    path: &file.path,
                    length: file.length,
                    requests: AtomicU64::new(0),
                    bytes: AtomicU64::new(0),
                    log: Arc::clone(&log),
                };
                let (mut out, batch) = self.scan(&reader, &log, file, plan, joins, parent)?;
                out.bytes_from_remote = reader.bytes.load(Ordering::Relaxed);
                out.cache_misses = reader.requests.load(Ordering::Relaxed);
                (out, batch)
            }
        };
        self.emit_split_spans(file, &out, parent);
        Ok((out, batch))
    }

    /// Lays the split's per-stage modeled times out as spans on a virtual
    /// timeline starting at the current clock reading. Time is *simulated*
    /// (the clock does not advance during a scan), so stages are placed
    /// back-to-back; their durations — not their absolute positions — are
    /// the signal.
    fn emit_split_spans(&self, file: &DataFile, out: &SplitOutput, parent: SpanId) {
        let tracer = &self.config.tracer;
        if !tracer.is_enabled() {
            return;
        }
        let start = tracer.now_nanos().unwrap_or(0);
        let total: u64 = out
            .stage_breakdown
            .values()
            .map(|d| d.as_nanos() as u64)
            .sum();
        let split = tracer.record_interval(
            parent,
            "olap.split",
            start,
            start + total,
            vec![
                ("file", file.path.clone()),
                ("rows", out.rows_scanned.to_string()),
                ("cache_hits", out.cache_hits.to_string()),
                ("cache_misses", out.cache_misses.to_string()),
            ],
        );
        let mut t = start;
        for (&stage, &d) in &out.stage_breakdown {
            let d = d.as_nanos() as u64;
            tracer.record_interval(split, stage, t, t + d, Vec::new());
            t += d;
        }
    }

    /// Modeled `(ssd, remote)` device time of the read calls logged since
    /// the last drain. Each call is modeled on its own: sequential calls
    /// cannot pipeline against each other, while requests *within* one call
    /// already amortize inside `DeviceModel::batch_read_time`.
    fn drain_io(&self, log: &IoLog) -> (Duration, Duration) {
        let (mut ssd, mut remote) = (Duration::ZERO, Duration::ZERO);
        log.drain(|d| {
            ssd += self.config.ssd.batch_read_time(d.ssd_requests, d.ssd_bytes);
            remote += self
                .config
                .remote
                .batch_read_time(d.remote_requests, d.remote_bytes);
        });
        (ssd, remote)
    }

    /// The ScanFilterProject + join-probe + partial-agg pipeline over one
    /// file: every referenced column is bound to its source once, then each
    /// surviving row group runs probe → filter → aggregate (or project) as
    /// whole-column kernels that hand each other a selection vector of row
    /// ids and, per join, the fact-row → dimension-row index.
    ///
    /// `log` is the per-call I/O ledger the reader appends to. On the
    /// vectored path the scan keeps a row-group pipeline: the lookahead
    /// window's fetches are issued before the current group decodes, and
    /// only the part of their modeled time not hidden behind that decode is
    /// charged, as `io.prefetch`.
    fn scan<R: RangeReader>(
        &self,
        reader: R,
        log: &IoLog,
        file: &DataFile,
        plan: &QueryPlan,
        joins: &[PreparedJoin],
        parent: SpanId,
    ) -> Result<(SplitOutput, RowBatch)> {
        let mut cpu = Duration::ZERO;
        let mut out = SplitOutput::default();
        let key = split_key(file);
        let colf = if self.config.enable_metadata_cache {
            let parsed_before = self.meta_cache.bytes_parsed();
            let r = ColfReader::open_with_cache(reader, &self.meta_cache, &key)?;
            let parsed = self.meta_cache.bytes_parsed() - parsed_before;
            let parse = MetadataCache::parse_cost(parsed);
            cpu += parse;
            out.charge_stage("cpu.metadata_parse", parse);
            r
        } else {
            let r = ColfReader::open(reader)?;
            let parse = MetadataCache::parse_cost(r.metadata().footer_len);
            cpu += parse;
            out.charge_stage("cpu.metadata_parse", parse);
            r
        };

        // Footer/tail reads issued while opening are demand I/O.
        let (mut demand_ssd, mut demand_remote) = self.drain_io(log);
        let mut prefetch_io = Duration::ZERO;

        let needed = plan.required_columns();
        let mut proj = Vec::with_capacity(needed.len());
        for name in &needed {
            proj.push(colf.schema().index_of(name).ok_or_else(|| {
                Error::InvalidArgument(format!("unknown column `{name}` in `{}`", file.path))
            })?);
        }

        // Bind every name the plan reads, once for the split.
        let source_of = |name: &str| {
            let dim = joins.iter().enumerate().find_map(|(j, pj)| {
                let c = pj.columns.iter().position(|(n, _)| n == name)?;
                Some(Source::Dim(j, c))
            });
            dim.or_else(|| needed.iter().position(|n| n == name).map(Source::Fact))
        };
        let bound = |name: &String| {
            source_of(name)
                .ok_or_else(|| Error::InvalidArgument(format!("unknown column `{name}`")))
        };
        let key_slots: Vec<Option<usize>> = joins
            .iter()
            .map(|pj| needed.iter().position(|n| *n == pj.fact_key))
            .collect();
        let mut agg = (!plan.aggregates.is_empty()).then(|| SplitAgg::new(&plan.aggregates));
        let mut batch = RowBatch::default();
        // `COUNT(*)` has no input, and neither has SUM of a name nothing
        // supplies: the kernels reject that one if a row ever reaches them.
        let agg_sources: Vec<Option<Source>> = plan
            .aggregates
            .iter()
            .map(|a| source_of(&a.column).filter(|_| !a.column.is_empty()))
            .collect();
        let (group_source, proj_sources) = match agg {
            Some(_) => (plan.group_by.as_ref().map(bound).transpose()?, Vec::new()),
            None => (
                None,
                plan.projection.iter().map(bound).collect::<Result<_>>()?,
            ),
        };

        let pruned = colf.prune(plan.predicate.as_ref());
        let depth = if self.config.vectored_scan {
            self.config.prefetch_depth
        } else {
            0
        };
        let tracer = &self.config.tracer;
        // Row groups fetched ahead of the decode position, oldest first.
        let mut staged: VecDeque<Vec<Bytes>> = VecDeque::new();
        let mut next_fetch = 0usize;

        for (pos, &rg) in pruned.iter().enumerate() {
            let rows = colf.metadata().row_groups[rg].rows;
            let decoded_bytes: u64 = proj
                .iter()
                .map(|&idx| colf.metadata().row_groups[rg].chunks[idx].len)
                .sum();
            let decode = Duration::from_nanos(decoded_bytes * self.config.decode_nanos_per_byte);

            let decoded: Vec<ColumnData> = if self.config.vectored_scan {
                // Demand-fetch unless the pipeline staged this row group.
                // The cold start primes the whole lookahead window in ONE
                // vectored call — this group plus the next `depth` — the way
                // an async reader fills its pipeline with the first request
                // batch rather than paying a round trip before lookahead
                // starts.
                if staged.is_empty() {
                    let last = (pos + depth).min(pruned.len() - 1);
                    let mut window: Vec<(u64, u64)> = Vec::new();
                    let mut arity: Vec<usize> = Vec::new();
                    for &g in &pruned[pos..=last] {
                        let ranges = colf.chunk_ranges(g, &proj)?;
                        arity.push(ranges.len());
                        window.extend(ranges);
                    }
                    let mut parts = colf.reader().read_vectored(&window)?.into_iter();
                    for n in arity {
                        staged.push_back(parts.by_ref().take(n).collect());
                    }
                    let (ssd, remote) = self.drain_io(log);
                    demand_ssd += ssd;
                    demand_remote += remote;
                    next_fetch = last + 1;
                }
                let raws = staged.pop_front().expect("staged above");

                // Refill the lookahead window once it has drained to half
                // depth. The whole refill is issued as ONE vectored call —
                // the pipeline keeps `depth` row groups' requests in flight
                // together, so they amortize inside a single modeled batch
                // (exactly how a reader with `depth` outstanding ranged GETs
                // behaves) instead of paying one round trip per group. The
                // I/O overlaps this row group's decode below.
                let issue_start = tracer.now_nanos();
                let mut pf_time = Duration::ZERO;
                let mut pf_fragments = 0usize;
                if staged.len() * 2 <= depth {
                    let mut window: Vec<(u64, u64)> = Vec::new();
                    let mut arity: Vec<usize> = Vec::new();
                    while next_fetch < pruned.len() && next_fetch <= pos + depth {
                        let ranges = colf.chunk_ranges(pruned[next_fetch], &proj)?;
                        arity.push(ranges.len());
                        window.extend(ranges);
                        next_fetch += 1;
                    }
                    if !window.is_empty() {
                        pf_fragments = window.len();
                        let mut parts = colf.reader().read_vectored(&window)?.into_iter();
                        for n in arity {
                            staged.push_back(parts.by_ref().take(n).collect());
                        }
                        let (ssd, remote) = self.drain_io(log);
                        pf_time = ssd + remote;
                    }
                }
                if pf_fragments > 0 {
                    if let (Some(t0), Some(t1)) = (issue_start, tracer.now_nanos()) {
                        tracer.record_interval(
                            parent,
                            "prefetch_issue",
                            t0,
                            t1,
                            vec![
                                ("row_group", pruned[next_fetch - 1].to_string()),
                                ("fragments", pf_fragments.to_string()),
                            ],
                        );
                    }
                }
                // Only the prefetch time the decode can't hide is charged.
                let residual = pf_time.saturating_sub(decode);
                if residual > Duration::ZERO {
                    out.charge_stage("io.prefetch", residual);
                    prefetch_io += residual;
                }

                colf.decode_chunks(rg, &proj, raws)?
            } else {
                // Sequential per-column baseline: one demand read per chunk.
                let mut cols = Vec::with_capacity(proj.len());
                for &idx in &proj {
                    cols.push(colf.read_column(rg, idx)?);
                    let (ssd, remote) = self.drain_io(log);
                    demand_ssd += ssd;
                    demand_remote += remote;
                }
                cols
            };
            out.rows_scanned += rows;
            cpu += decode;
            out.charge_stage("cpu.decode", decode);
            // The model charges every scanned row for each join's probe and
            // for the filter, whatever order the kernels below run in.
            let probe = Duration::from_nanos(
                rows * joins.len() as u64 * self.config.join_probe_nanos_per_row,
            );
            cpu += probe;
            out.charge_stage("cpu.join_probe", probe);
            if plan.predicate.is_some() {
                let filter = Duration::from_nanos(rows * self.config.filter_nanos_per_row);
                cpu += filter;
                out.charge_stage("cpu.filter", filter);
            }

            // Probe: a fact row must match every build side, so each join
            // sees only the rows the earlier ones kept.
            let rows = u32::try_from(rows)
                .map_err(|_| Error::InvalidArgument(format!("row group of {rows} rows")))?;
            let mut sel: Vec<u32> = (0..rows).collect();
            let mut matched: Vec<Vec<u32>> = Vec::with_capacity(joins.len());
            for (pj, slot) in joins.iter().zip(&key_slots) {
                if sel.is_empty() {
                    break;
                }
                matched.push(pj.probe(slot.map(|slot| &decoded[slot]), &mut sel)?);
            }
            let view = |source: Source| match source {
                Source::Fact(slot) => ColumnView::direct(&decoded[slot]),
                Source::Dim(j, c) => ColumnView {
                    data: &joins[j].columns[c].1,
                    gather: Some(&matched[j]),
                },
            };
            // Filter over the combined (fact ∪ dimension) row.
            if let (Some(p), false) = (&plan.predicate, sel.is_empty()) {
                sel = p.select(&|name| source_of(name).map(view), &sel);
            }
            if sel.is_empty() {
                continue;
            }
            match &mut agg {
                Some(agg) => {
                    let groups = agg.group_ids(group_source.map(view), &sel);
                    let columns: Vec<_> = agg_sources.iter().map(|s| s.map(view)).collect();
                    agg.accumulate(&columns, &sel, &groups)?;
                }
                None => {
                    if batch.columns.is_empty() {
                        let empty = |&s| ColumnData::empty(view(s).data.column_type());
                        batch.columns = proj_sources.iter().map(empty).collect();
                    }
                    for (column, &source) in batch.columns.iter_mut().zip(&proj_sources) {
                        column.extend_selected(view(source), &sel);
                    }
                    batch.rows += sel.len();
                }
            }
        }
        out.charge_stage("io.cache_read", demand_ssd);
        out.charge_stage("io.remote_read", demand_remote);
        out.io_time = demand_ssd + demand_remote + prefetch_io;
        out.partial = agg.map(SplitAgg::finish);
        out.cpu_time = cpu;
        Ok((out, batch))
    }
}

/// The cache counters behind per-split attribution, resolved to handles
/// once per worker; a snapshot is five atomic loads.
struct CacheCounters([Arc<Counter>; 5]);

const HITS: usize = 0;
const MISSES: usize = 1;
const BYTES_FROM_CACHE: usize = 2;
const BYTES_FROM_REMOTE: usize = 3;
const REMOTE_REQUESTS: usize = 4;

impl CacheCounters {
    fn new(m: &MetricRegistry) -> Self {
        Self([
            m.counter("hits"),
            m.counter("misses"),
            m.counter("bytes_from_cache"),
            m.counter("bytes_from_remote"),
            m.counter("remote_requests"),
        ])
    }

    fn snapshot(&self) -> [u64; 5] {
        self.0.each_ref().map(|c| c.get())
    }
}

/// Partial (and mergeable) aggregation state.
#[derive(Debug, Clone)]
pub struct PartialAgg {
    /// Group key (None for global aggregation) → accumulator per aggregate.
    groups: BTreeMap<Option<String>, Vec<AggState>>,
    n_aggs: usize,
}

#[derive(Debug, Clone)]
enum AggState {
    Count(u64),
    Sum(f64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: u64 },
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(0.0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    /// SUM/AVG: one more value, already converted to `f64`.
    fn add(&mut self, x: f64) {
        match self {
            AggState::Sum(sum) => *sum += x,
            AggState::Avg { sum, n } => {
                *sum += x;
                *n += 1;
            }
            _ => unreachable!("add() is for SUM and AVG"),
        }
    }

    /// MIN/MAX: the first value seeds the state and only a strictly better
    /// one replaces it, so a NaN neither displaces nor is displaced.
    fn offer<T: Scalar>(&mut self, value: &T) {
        let (current, better) = match self {
            AggState::Min(current) => (current, CmpOrdering::Less),
            AggState::Max(current) => (current, CmpOrdering::Greater),
            _ => unreachable!("offer() is for MIN and MAX"),
        };
        let beaten = |c: &Value| T::of(c).and_then(|c| value.partial_cmp(c)) == Some(better);
        if current.as_ref().is_none_or(beaten) {
            *current = Some(value.to_value());
        }
    }

    fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Avg { sum: s1, n: n1 }, AggState::Avg { sum: s2, n: n2 }) => {
                *s1 += s2;
                *n1 += n2;
            }
            (AggState::Min(a), AggState::Min(Some(b))) => {
                let replace = match a {
                    None => true,
                    Some(c) => b.partial_cmp_same_type(c) == Some(std::cmp::Ordering::Less),
                };
                if replace {
                    *a = Some(b.clone());
                }
            }
            (AggState::Max(a), AggState::Max(Some(b))) => {
                let replace = match a {
                    None => true,
                    Some(c) => b.partial_cmp_same_type(c) == Some(std::cmp::Ordering::Greater),
                };
                if replace {
                    *a = Some(b.clone());
                }
            }
            (AggState::Min(_), AggState::Min(None)) | (AggState::Max(_), AggState::Max(None)) => {}
            _ => panic!("merging mismatched aggregate states"),
        }
    }

    fn finalize(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int64(*n as i64),
            AggState::Sum(s) => Value::Float64(*s),
            AggState::Avg { sum, n } => Value::Float64(if *n == 0 { 0.0 } else { sum / *n as f64 }),
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Int64(0)),
        }
    }
}

/// One split's aggregation under construction: group keys map to dense ids
/// in first-seen order, and every (group, aggregate) pair owns one
/// [`AggState`] that the kernels below update a column at a time, rows
/// ascending. It lives as long as the split — not the row group — so each
/// float sum adds the split's rows in file order, whatever the grouping.
struct SplitAgg<'p> {
    aggregates: &'p [AggExpr],
    /// Group id of an Int64/Float64/Bool key, by the key's 64 bits.
    by_bits: HashMap<u64, u32>,
    /// Group id of a Utf8 key's text: merges the same text met under
    /// different dictionaries.
    by_text: HashMap<String, u32>,
    /// The dictionary `code_groups` is for, held so its identity cannot be
    /// reused by another allocation.
    dict: Option<Arc<Vec<String>>>,
    /// Group id of each code of `dict` (`NO_GROUP` until a row uses it).
    code_groups: Vec<u32>,
    /// Group id → the key as [`PartialAgg`] spells it (`None`: ungrouped).
    keys: Vec<Option<String>>,
    /// Direct-mapped memo `(key bits, group)` in front of `by_bits`: a
    /// scan's group keys are few and recur on every row.
    memo: [(u64, u32); MEMO],
    /// Group-major: `states[group * aggregates.len() + aggregate]`.
    states: Vec<AggState>,
}

const MEMO: usize = 64;
/// An empty memo slot.
const NO_GROUP: u32 = u32::MAX;

/// The memo slot of a key's bits (Fibonacci hashing: the top bits of the
/// product spread consecutive integers evenly).
fn memo_slot(bits: u64) -> usize {
    (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO.trailing_zeros())) as usize
}

impl<'p> SplitAgg<'p> {
    fn new(aggregates: &'p [AggExpr]) -> Self {
        Self {
            aggregates,
            by_bits: HashMap::new(),
            by_text: HashMap::new(),
            dict: None,
            code_groups: Vec::new(),
            keys: Vec::new(),
            memo: [(0, NO_GROUP); MEMO],
            states: Vec::new(),
        }
    }

    fn new_group(&mut self, key: Option<String>) -> u32 {
        self.keys.push(key);
        self.states
            .extend(self.aggregates.iter().map(|a| AggState::new(a.func)));
        (self.keys.len() - 1) as u32
    }

    /// The group id of each selected row; new keys open new groups, with
    /// the one `to_string()` a group ever costs.
    fn group_ids(&mut self, key: Option<ColumnView<'_>>, sel: &[u32]) -> Vec<u32> {
        let Some(view) = key else {
            if self.keys.is_empty() {
                self.new_group(None);
            }
            return vec![0; sel.len()];
        };
        let rows = sel.iter().map(|&r| view.index(r));
        match view.data {
            ColumnData::Int64(v) => rows.map(|i| self.group_of(v[i] as u64, &v[i])).collect(),
            // Keys are compared as their text: one group for every NaN,
            // `-0` apart from `0`.
            ColumnData::Float64(v) => {
                let bits = |x: f64| if x.is_nan() { f64::NAN } else { x }.to_bits();
                rows.map(|i| self.group_of(bits(v[i]), &v[i])).collect()
            }
            ColumnData::Bool(v) => rows.map(|i| self.group_of(v[i] as u64, &v[i])).collect(),
            // A code's group is looked up by text once per dictionary.
            ColumnData::Utf8 { codes, dict } => {
                if !self.dict.as_ref().is_some_and(|d| Arc::ptr_eq(d, dict)) {
                    self.dict = Some(Arc::clone(dict));
                    self.code_groups = vec![NO_GROUP; dict.len()];
                }
                rows.map(|i| {
                    let code = codes[i] as usize;
                    if self.code_groups[code] == NO_GROUP {
                        self.code_groups[code] = self.text_group(&dict[code]);
                    }
                    self.code_groups[code]
                })
                .collect()
            }
        }
    }

    /// The group of a Utf8 key's text, whatever dictionary it came from.
    fn text_group(&mut self, text: &str) -> u32 {
        if let Some(&group) = self.by_text.get(text) {
            return group;
        }
        let group = self.new_group(Some(text.to_string()));
        self.by_text.insert(text.to_string(), group);
        group
    }

    /// The group of an Int64/Float64/Bool key by its 64 bits.
    fn group_of(&mut self, bits: u64, key: &dyn Display) -> u32 {
        let slot = memo_slot(bits);
        let (memo_bits, memo) = self.memo[slot];
        if memo != NO_GROUP && memo_bits == bits {
            return memo;
        }
        let group = match self.by_bits.get(&bits) {
            Some(&group) => group,
            None => {
                let group = self.new_group(Some(key.to_string()));
                self.by_bits.insert(bits, group);
                group
            }
        };
        self.memo[slot] = (bits, group);
        group
    }

    /// Feeds the selected rows to every aggregate; `columns[a]` is
    /// aggregate `a`'s input (absent for `COUNT(*)`) and `groups[i]` the
    /// group of row `sel[i]`.
    fn accumulate(
        &mut self,
        columns: &[Option<ColumnView<'_>>],
        sel: &[u32],
        groups: &[u32],
    ) -> Result<()> {
        let non_numeric =
            || Error::InvalidArgument("non-numeric value in numeric aggregate".into());
        let rows = (sel, groups);
        for (a, (agg, column)) in self.aggregates.iter().zip(columns).enumerate() {
            match (agg.func, column) {
                (AggFunc::Count, _) => {
                    for &g in groups {
                        match &mut self.states[g as usize * self.aggregates.len() + a] {
                            AggState::Count(n) => *n += 1,
                            _ => unreachable!("a COUNT state"),
                        }
                    }
                }
                // Each value is converted to `f64`, then added.
                (AggFunc::Sum | AggFunc::Avg, Some(view)) => match view.data {
                    ColumnData::Int64(v) => self.each(a, v, *view, rows, |s, x| s.add(*x as f64)),
                    ColumnData::Float64(v) => self.each(a, v, *view, rows, |s, x| s.add(*x)),
                    ColumnData::Bool(v) => {
                        self.each(a, v, *view, rows, |s, x| s.add(*x as u8 as f64))
                    }
                    ColumnData::Utf8 { .. } => return Err(non_numeric()),
                },
                (AggFunc::Sum | AggFunc::Avg, None) => return Err(non_numeric()),
                (AggFunc::Min | AggFunc::Max, Some(view)) => match view.data {
                    ColumnData::Int64(v) => self.each(a, v, *view, rows, AggState::offer),
                    ColumnData::Float64(v) => self.each(a, v, *view, rows, AggState::offer),
                    ColumnData::Utf8 { codes, dict } => {
                        self.each(a, codes, *view, rows, |s, c| s.offer(&dict[*c as usize]))
                    }
                    ColumnData::Bool(v) => self.each(a, v, *view, rows, AggState::offer),
                },
                (AggFunc::Min | AggFunc::Max, None) => {}
            }
        }
        Ok(())
    }

    /// Updates aggregate `a` with the view's value at each `(row, group)`,
    /// rows ascending.
    fn each<T>(
        &mut self,
        a: usize,
        vals: &[T],
        view: ColumnView<'_>,
        (sel, groups): (&[u32], &[u32]),
        update: impl Fn(&mut AggState, &T),
    ) {
        let n_aggs = self.aggregates.len();
        for (&r, &g) in sel.iter().zip(groups) {
            update(
                &mut self.states[g as usize * n_aggs + a],
                &vals[view.index(r)],
            );
        }
    }

    fn finish(self) -> PartialAgg {
        let n_aggs = self.aggregates.len();
        let mut states = self.states.into_iter();
        let groups = self.keys.into_iter();
        PartialAgg {
            groups: groups
                .map(|key| (key, states.by_ref().take(n_aggs).collect()))
                .collect(),
            n_aggs,
        }
    }
}

impl PartialAgg {
    /// Fresh state for `n_aggs` aggregates.
    pub fn new(n_aggs: usize) -> Self {
        Self {
            groups: BTreeMap::new(),
            n_aggs,
        }
    }

    /// Merges another partial state (from a different split). With `perm`,
    /// `other` holds the same aggregates in another order: aggregate `i`
    /// here takes `other`'s `perm[i]`. Reordering is exact — each state
    /// accumulates its own aggregate whatever its position — so the result
    /// cache keeps canonical-order partials and every equivalent plan merges
    /// them straight into its own order.
    pub fn merge(&mut self, other: &PartialAgg, perm: Option<&[usize]>) {
        assert_eq!(self.n_aggs, other.n_aggs);
        assert!(perm.is_none_or(|p| p.len() == self.n_aggs));
        let source = |i: usize| perm.map_or(i, |p| p[i]);
        for (key, states) in &other.groups {
            match self.groups.get_mut(key) {
                Some(mine) => {
                    for (i, a) in mine.iter_mut().enumerate() {
                        a.merge(&states[source(i)]);
                    }
                }
                None => {
                    let states = (0..self.n_aggs).map(|i| states[source(i)].clone());
                    self.groups.insert(key.clone(), states.collect());
                }
            }
        }
    }

    /// Finalizes into result rows: `[group_key?, agg0, agg1, ...]`.
    pub fn finalize(&self) -> Vec<Vec<Value>> {
        self.groups
            .iter()
            .map(|(key, states)| {
                let mut row = Vec::with_capacity(states.len() + 1);
                if let Some(k) = key {
                    row.push(Value::Utf8(k.clone()));
                }
                row.extend(states.iter().map(AggState::finalize));
                row
            })
            .collect()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no rows were accumulated.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Number of aggregate states per group.
    pub fn n_aggs(&self) -> usize {
        self.n_aggs
    }

    /// Estimated resident footprint of this state, the currency of the
    /// result cache's byte budget.
    pub fn approx_bytes(&self) -> u64 {
        // Map-node overhead per group plus the per-state accumulators.
        let mut total = 48u64;
        for (key, states) in &self.groups {
            total += 56 + key.as_ref().map_or(0, |k| k.len() as u64);
            for state in states {
                total += 24
                    + match state {
                        AggState::Min(Some(Value::Utf8(s)))
                        | AggState::Max(Some(Value::Utf8(s))) => s.len() as u64,
                        _ => 0,
                    };
            }
        }
        total
    }
}

#[cfg(test)]
mod proptests;

#[cfg(test)]
impl PartialAgg {
    /// `n_aggs` counts over `groups` groups keyed `{tag}/{g}`: a partial
    /// told apart by its tag, of a footprint the caller picks.
    pub(crate) fn filler(tag: &str, n_aggs: usize, groups: usize) -> Self {
        let state = |g: usize| vec![AggState::Count(g as u64); n_aggs];
        Self {
            groups: (0..groups)
                .map(|g| (Some(format!("{tag}/{g}")), state(g)))
                .collect(),
            n_aggs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgecache_columnar::{ColfWriter, ColumnType, Predicate, Schema};
    use edgecache_common::clock::SimClock;
    use parking_lot::Mutex as PlMutex;
    use std::collections::HashMap;
    use std::sync::Arc;

    struct MapRemote {
        files: PlMutex<HashMap<String, Bytes>>,
    }

    impl RemoteSource for MapRemote {
        fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
            let files = self.files.lock();
            let data = files
                .get(path)
                .ok_or_else(|| Error::NotFound(path.into()))?;
            let total = data.len() as u64;
            let start = offset.min(total) as usize;
            let end = offset.saturating_add(len).min(total) as usize;
            Ok(data.slice(start..end))
        }
    }

    fn sample_remote() -> (MapRemote, DataFile) {
        let schema = Schema::new(vec![
            ("id", ColumnType::Int64),
            ("region", ColumnType::Utf8),
            ("amount", ColumnType::Float64),
        ]);
        let mut w = ColfWriter::new(schema, 25);
        for i in 0..100i64 {
            w.push_row(vec![
                Value::Int64(i),
                Value::Utf8(format!("r{}", i % 4)),
                Value::Float64(i as f64),
            ])
            .unwrap();
        }
        let bytes = w.finish().unwrap();
        let file = DataFile {
            path: "/t/f0".into(),
            version: 1,
            length: bytes.len() as u64,
        };
        let remote = MapRemote {
            files: PlMutex::new(HashMap::from([(file.path.clone(), bytes)])),
        };
        (remote, file)
    }

    fn worker() -> Worker {
        Worker::new(
            "w0",
            WorkerConfig {
                page_size: ByteSize::kib(1),
                ..Default::default()
            },
            Arc::new(SimClock::new()),
        )
        .unwrap()
    }

    #[test]
    fn projection_query_returns_rows() {
        let (remote, file) = sample_remote();
        let w = worker();
        let plan =
            QueryPlan::scan("s", "t", &["id"]).filter(Predicate::Lt("id".into(), Value::Int64(3)));
        let out = w
            .execute_split(
                &file,
                &CacheScope::table("s", "t"),
                &plan,
                &[],
                &remote,
                true,
            )
            .unwrap();
        assert_eq!(
            out.rows,
            vec![
                vec![Value::Int64(0)],
                vec![Value::Int64(1)],
                vec![Value::Int64(2)]
            ]
        );
        // Predicate pruning means only the first row group is scanned.
        assert_eq!(out.rows_scanned, 25);
        assert!(out.io_time > Duration::ZERO);
        assert!(out.cpu_time > Duration::ZERO);
    }

    #[test]
    fn aggregate_query_partial_state() {
        let (remote, file) = sample_remote();
        let w = worker();
        let plan = QueryPlan::scan("s", "t", &[])
            .aggregate(vec![AggExpr::count(), AggExpr::sum("amount")])
            .group("region");
        let out = w
            .execute_split(
                &file,
                &CacheScope::table("s", "t"),
                &plan,
                &[],
                &remote,
                true,
            )
            .unwrap();
        let rows = out.partial.unwrap().finalize();
        assert_eq!(rows.len(), 4);
        // Each region has 25 rows.
        for row in &rows {
            assert_eq!(row[1], Value::Int64(25));
        }
    }

    #[test]
    fn warm_cache_shifts_bytes_to_ssd() {
        let (remote, file) = sample_remote();
        let w = worker();
        let plan = QueryPlan::scan("s", "t", &["id", "amount"]);
        let cold = w
            .execute_split(
                &file,
                &CacheScope::table("s", "t"),
                &plan,
                &[],
                &remote,
                true,
            )
            .unwrap();
        assert!(cold.bytes_from_remote > 0);
        let warm = w
            .execute_split(
                &file,
                &CacheScope::table("s", "t"),
                &plan,
                &[],
                &remote,
                true,
            )
            .unwrap();
        assert_eq!(warm.bytes_from_remote, 0, "fully cached");
        assert!(warm.bytes_from_cache > 0);
        assert!(warm.io_time < cold.io_time, "SSD is cheaper than remote");
    }

    #[test]
    fn bypass_never_touches_cache() {
        let (remote, file) = sample_remote();
        let w = worker();
        let plan = QueryPlan::scan("s", "t", &["id"]);
        let out = w
            .execute_split(
                &file,
                &CacheScope::table("s", "t"),
                &plan,
                &[],
                &remote,
                false,
            )
            .unwrap();
        assert_eq!(out.bytes_from_cache, 0);
        assert!(out.bytes_from_remote > 0);
        assert_eq!(w.cache_metrics().unwrap().counter("puts").get(), 0);
    }

    #[test]
    fn metadata_cache_charges_parse_once() {
        let (remote, file) = sample_remote();
        let w = worker();
        let plan = QueryPlan::scan("s", "t", &["id"]);
        let scope = CacheScope::table("s", "t");
        let first = w
            .execute_split(&file, &scope, &plan, &[], &remote, true)
            .unwrap();
        let second = w
            .execute_split(&file, &scope, &plan, &[], &remote, true)
            .unwrap();
        assert!(second.cpu_time < first.cpu_time, "no footer parse on reuse");
        assert_eq!(w.metadata_cache().misses(), 1);
        assert_eq!(w.metadata_cache().hits(), 1);
    }

    #[test]
    fn partial_agg_merge_matches_single_pass() {
        let aggs = vec![
            AggExpr::count(),
            AggExpr::sum("x"),
            AggExpr::min("x"),
            AggExpr::max("x"),
            AggExpr::avg("x"),
        ];
        let fold = |vals: Vec<i64>| {
            let col = ColumnData::Int64(vals);
            let sel: Vec<u32> = (0..col.len() as u32).collect();
            let x = Some(ColumnView::direct(&col));
            let mut agg = SplitAgg::new(&aggs);
            let groups = agg.group_ids(None, &sel);
            agg.accumulate(&[None, x, x, x, x], &sel, &groups).unwrap();
            agg.finish()
        };

        let single = fold(vec![1, 2, 3, 4, 5, 6]);
        let mut a = fold(vec![1, 2, 3]);
        a.merge(&fold(vec![4, 5, 6]), None);

        assert_eq!(a.finalize(), single.finalize());
        let row = &a.finalize()[0];
        assert_eq!(row[0], Value::Int64(6));
        assert_eq!(row[1], Value::Float64(21.0));
        assert_eq!(row[2], Value::Int64(1));
        assert_eq!(row[3], Value::Int64(6));
        assert_eq!(row[4], Value::Float64(3.5));
    }

    #[test]
    fn merge_with_a_permutation_reorders_states_exactly() {
        let aggs = [AggExpr::count(), AggExpr::sum("x"), AggExpr::min("x")];
        let col = ColumnData::Int64(vec![3, 1, 2]);
        let sel: Vec<u32> = (0..3).collect();
        let x = Some(ColumnView::direct(&col));
        let mut agg = SplitAgg::new(&aggs);
        let groups = agg.group_ids(None, &sel);
        agg.accumulate(&[None, x, x], &sel, &groups).unwrap();
        let partial = agg.finish();
        let row = partial.finalize().remove(0);

        // Position `i` takes the source's `perm[i]`: [min, count, sum].
        let mut reordered = PartialAgg::new(3);
        reordered.merge(&partial, Some(&[2, 0, 1]));
        let expected = vec![row[2].clone(), row[0].clone(), row[1].clone()];
        assert_eq!(reordered.finalize(), vec![expected]);
        // A second merge accumulates position by position.
        reordered.merge(&partial, Some(&[2, 0, 1]));
        assert_eq!(
            reordered.finalize(),
            vec![vec![Value::Int64(1), Value::Int64(6), Value::Float64(12.0)]]
        );
    }

    /// A remote that charges virtual latency per request, so modeled spans
    /// get real (virtual) extents.
    struct SlowRemote {
        inner: MapRemote,
        clock: Arc<SimClock>,
        latency: Duration,
    }

    impl RemoteSource for SlowRemote {
        fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
            self.clock.advance(self.latency);
            self.inner.read(path, offset, len)
        }
    }

    fn worker_with(config: WorkerConfig) -> Worker {
        Worker::new("w0", config, Arc::new(SimClock::new())).unwrap()
    }

    fn agg_plan() -> QueryPlan {
        QueryPlan::scan("s", "t", &[])
            .aggregate(vec![
                AggExpr::count(),
                AggExpr::sum("amount"),
                AggExpr::min("id"),
            ])
            .group("region")
    }

    #[test]
    fn vectored_scan_matches_sequential_baseline() {
        let (remote, file) = sample_remote();
        let scope = CacheScope::table("s", "t");
        let vectored = worker_with(WorkerConfig {
            page_size: ByteSize::kib(1),
            ..Default::default()
        });
        let sequential = worker_with(WorkerConfig {
            page_size: ByteSize::kib(1),
            vectored_scan: false,
            ..Default::default()
        });
        let plan = agg_plan();
        let a = vectored
            .execute_split(&file, &scope, &plan, &[], &remote, true)
            .unwrap();
        let b = sequential
            .execute_split(&file, &scope, &plan, &[], &remote, true)
            .unwrap();
        assert_eq!(
            a.partial.as_ref().unwrap().finalize(),
            b.partial.as_ref().unwrap().finalize()
        );
        assert_eq!(a.rows_scanned, b.rows_scanned);
        assert_eq!(a.bytes_from_remote, b.bytes_from_remote);
        assert!(
            a.io_time < b.io_time,
            "vectored cold scan must beat per-column sequential ({:?} vs {:?})",
            a.io_time,
            b.io_time
        );
    }

    #[test]
    fn prefetch_pipeline_hides_io_behind_decode() {
        let (remote, file) = sample_remote();
        let scope = CacheScope::table("s", "t");
        let plan = agg_plan();
        let no_prefetch = worker_with(WorkerConfig {
            page_size: ByteSize::kib(1),
            prefetch_depth: 0,
            ..Default::default()
        });
        let pipelined = worker_with(WorkerConfig {
            page_size: ByteSize::kib(1),
            prefetch_depth: 1,
            ..Default::default()
        });
        let flat = no_prefetch
            .execute_split(&file, &scope, &plan, &[], &remote, true)
            .unwrap();
        let deep = pipelined
            .execute_split(&file, &scope, &plan, &[], &remote, true)
            .unwrap();
        assert_eq!(
            flat.partial.as_ref().unwrap().finalize(),
            deep.partial.as_ref().unwrap().finalize()
        );
        assert!(
            deep.io_time < flat.io_time,
            "prefetch overlap must shrink modeled I/O ({:?} vs {:?})",
            deep.io_time,
            flat.io_time
        );
        assert!(deep.stage_breakdown.contains_key("io.prefetch"));
        assert!(!flat.stage_breakdown.contains_key("io.prefetch"));
    }

    #[test]
    fn split_stage_spans_partition_the_split_exactly() {
        let (remote, file) = sample_remote();
        let clock = Arc::new(SimClock::new());
        let tracer = Tracer::enabled(clock.clone());
        let w = Worker::new(
            "w0",
            WorkerConfig {
                page_size: ByteSize::kib(1),
                tracer: tracer.clone(),
                ..Default::default()
            },
            clock,
        )
        .unwrap();
        let plan = agg_plan();
        w.execute_split_traced(
            &file,
            &CacheScope::table("s", "t"),
            &plan,
            &[],
            &remote,
            true,
            SpanId::NONE,
        )
        .unwrap();
        let records = tracer.records();
        let split = records
            .iter()
            .find(|r| r.name == "olap.split")
            .expect("olap.split span");
        let children: Vec<_> = records.iter().filter(|r| r.parent == split.id).collect();
        let names: Vec<_> = children.iter().map(|r| r.name).collect();
        assert!(names.contains(&"io.prefetch"), "stages: {names:?}");
        assert!(names.contains(&"io.remote_read"), "stages: {names:?}");
        assert!(names.contains(&"cpu.decode"), "stages: {names:?}");
        let stage_sum: u64 = children.iter().map(|r| r.end_nanos - r.start_nanos).sum();
        assert_eq!(
            stage_sum,
            split.end_nanos - split.start_nanos,
            "split children must partition the split span exactly"
        );
    }

    #[test]
    fn prefetch_issue_spans_cover_their_vectored_reads_exactly() {
        // A file large enough that mid-file row groups sit outside both the
        // cold-start window's page-aligned fetch and the 64 KiB tail
        // over-read done at open — so refill prefetches actually miss.
        let schema = Schema::new(vec![
            ("id", ColumnType::Int64),
            ("region", ColumnType::Utf8),
            ("amount", ColumnType::Float64),
        ]);
        let mut wtr = ColfWriter::new(schema, 3_000);
        for i in 0..12_000i64 {
            wtr.push_row(vec![
                Value::Int64(i),
                Value::Utf8(format!("r{}", i % 4)),
                Value::Float64(i as f64),
            ])
            .unwrap();
        }
        let bytes = wtr.finish().unwrap();
        let file = DataFile {
            path: "/t/big".into(),
            version: 1,
            length: bytes.len() as u64,
        };
        let inner = MapRemote {
            files: PlMutex::new(HashMap::from([(file.path.clone(), bytes)])),
        };
        let clock = Arc::new(SimClock::new());
        let remote = SlowRemote {
            inner,
            clock: clock.clone(),
            latency: Duration::from_micros(750),
        };
        let tracer = Tracer::enabled(clock.clone());
        let w = Worker::new(
            "w0",
            WorkerConfig {
                page_size: ByteSize::kib(4),
                tracer: tracer.clone(),
                ..Default::default()
            },
            clock,
        )
        .unwrap();
        let plan = agg_plan();
        w.execute_split(
            &file,
            &CacheScope::table("s", "t"),
            &plan,
            &[],
            &remote,
            true,
        )
        .unwrap();
        let records = tracer.records();
        let issues: Vec<_> = records
            .iter()
            .filter(|r| r.name == "prefetch_issue")
            .collect();
        // 4 row groups, depth 1: the cold start primes groups 0..=1 in one
        // demand call, so groups 2 and 3 ride the pipeline.
        assert_eq!(issues.len(), 2);
        assert!(
            issues.iter().any(|i| i.end_nanos > i.start_nanos),
            "at least one prefetch must advance virtual time (cold misses)"
        );
        for issue in issues {
            let covered: u64 = records
                .iter()
                .filter(|r| {
                    r.name == "cache.read_multi"
                        && r.parent == 0
                        && r.start_nanos >= issue.start_nanos
                        && r.end_nanos <= issue.end_nanos
                })
                .map(|r| r.end_nanos - r.start_nanos)
                .sum();
            assert_eq!(
                covered,
                issue.end_nanos - issue.start_nanos,
                "prefetch_issue must span exactly the vectored reads it issued"
            );
        }
    }

    #[test]
    fn unknown_column_is_an_error() {
        let (remote, file) = sample_remote();
        let w = worker();
        let plan = QueryPlan::scan("s", "t", &["nonexistent"]);
        assert!(w
            .execute_split(
                &file,
                &CacheScope::table("s", "t"),
                &plan,
                &[],
                &remote,
                true
            )
            .is_err());
    }
}
