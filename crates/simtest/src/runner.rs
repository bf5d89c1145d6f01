//! The scenario runner: executes a [`Scenario`] against a real cache stack
//! with simulated time, applying the fault schedule at op boundaries and
//! checking the invariant oracles as it goes.
//!
//! Determinism contract: ops execute sequentially on the runner thread; all
//! concurrency lives inside the cache's own fetch pool, whose effects are
//! made order-independent by construction — remote fault decisions hash the
//! request content, virtual-time charges are commuting atomic advances, and
//! page publication happens in ascending page order after every fetch slot
//! has joined. Two runs of the same scenario therefore produce
//! byte-identical event traces ([`RunReport::trace_hash`]).
//!
//! A fired crash point (simulated process death inside the page store) is
//! detected at the op boundary; the runner finalizes the epoch's
//! conservation laws, drops the whole cache, and re-opens the same directory
//! through the one §4.3 restart path before continuing: recovery reads
//! headers only, and a torn page is `Corrupted` at its first read.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use edgecache_common::bytesize::ByteSize;
use edgecache_common::clock::{Clock, SharedClock, SimClock};
use edgecache_common::hash::{fnv1a64, hash_str};
use edgecache_core::admission::{FilterRule, FilterRuleAdmission, FilterRuleSet};
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache_core::AdmissionPolicy;
use edgecache_distcache::tier::{DistCacheTier, TierConfig};
use edgecache_distcache::worker::WorkerCacheConfig;
use edgecache_metrics::{assert_conserved, MetricRegistry, SnapshotDiff, SpanRecord, Tracer};
use edgecache_pagestore::{
    CacheScope, CrashPlan, FaultPlan, FaultyStore, LocalPageStore, LocalStoreConfig,
    MemoryPageStore, PageId, PageStore,
};
use edgecache_storage::{StallSchedule, StallWindow};

use crate::oracle::{cache_epoch_laws, check_accounting, check_read, check_tier_op, Violation};
use crate::remote::SimRemote;
use crate::scenario::{Backend, Fault, Op, Profile, Scenario, Topology};

/// The outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub seed: u64,
    /// One line per op / fault / epoch boundary; byte-identical across runs
    /// of the same scenario.
    pub trace: Vec<String>,
    /// FNV-1a over the joined trace — the determinism fingerprint.
    pub trace_hash: u64,
    pub violations: Vec<Violation>,
    /// Process lifetimes (1 + number of crash restarts).
    pub epochs: usize,
    /// Crash points that fired.
    pub crashes: u64,
    /// Final epoch's metrics snapshot as canonical JSON.
    pub final_metrics_json: String,
    /// Every span the stack recorded, across all epochs, in finish order.
    /// Deterministic for a given scenario (the tracer runs on the sim clock
    /// with concurrent timing pinned to issuing-thread windows).
    pub span_records: Vec<SpanRecord>,
}

impl RunReport {
    /// Whether every oracle held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The run's spans as Chrome trace-event JSON (`--trace-dump`).
    pub fn chrome_trace_json(&self) -> String {
        edgecache_metrics::trace::chrome_trace_json(&self.span_records)
    }
}

/// Runs a scenario to completion. Never panics on oracle violations — they
/// are collected in the report so the shrinker can re-run candidates.
pub fn run_scenario(sc: &Scenario) -> RunReport {
    if sc.profile == Profile::Resultcache {
        return run_olap(sc);
    }
    match sc.topology {
        Topology::Direct => run_direct(sc),
        Topology::Tier => run_tier(sc),
    }
}

/// A scratch directory for `LocalPageStore` scenarios, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(seed: u64) -> std::io::Result<Self> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "edgecache-simtest-{}-{}-{}",
            std::process::id(),
            seed,
            SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Scope of file `file`: each file is its own partition, alternating
/// between two tables, so table quota, shared-scope eviction, partition
/// lifecycle (enter/exit), and admission-slot recycling are all exercised.
fn scope_of(file: u32) -> CacheScope {
    CacheScope::partition("sim", &format!("t{}", file % 2), &format!("p{file}"))
}

fn source_file(sc: &Scenario, file: u32) -> SourceFile {
    SourceFile::new(Scenario::path_of(file), 1, sc.file_len, scope_of(file))
}

/// Everything the Direct-topology runner rebuilds on a crash restart.
struct DirectStack {
    cache: CacheManager,
    /// Present when the scenario caps `maxCachedPartitions`; the oracle
    /// compares its admitted sets against live residency after every op.
    admission: Option<Arc<FilterRuleAdmission>>,
}

#[allow(clippy::too_many_arguments)]
fn build_direct(
    sc: &Scenario,
    clock: &SharedClock,
    fault_plan: &Arc<FaultPlan>,
    crash_plan: &Arc<CrashPlan>,
    scratch: Option<&ScratchDir>,
    memory_store: Option<&Arc<dyn PageStore>>,
    epoch: usize,
) -> Result<DirectStack, String> {
    let mut config = CacheConfig::default()
        .with_page_size(ByteSize::new(sc.page_size))
        .with_ttl(Duration::from_secs(60))
        .with_max_concurrent_fetches(4);
    if let Some(cap) = sc.memory_capacity {
        // Three-level hierarchy: DRAM frames above the (possibly faulty)
        // backing store. The tier is rebuilt empty on every crash restart —
        // DRAM does not survive process death.
        config = config.with_memory_tier(ByteSize::new(cap));
    }

    // One registry + tracer per epoch: span rollups land in the epoch's
    // `trace.*_us` histograms, so the final-metrics determinism check covers
    // stage attribution too. Concurrent timing stays off (the default) so
    // fetch-pool spans are pinned to issuing-thread windows.
    let registry = MetricRegistry::new(format!("simtest-epoch{epoch}"));
    let tracer = Tracer::enabled(Arc::clone(clock)).with_registry(Arc::new(registry.clone()));

    let store: Arc<dyn PageStore> = match sc.backend {
        Backend::Memory => Arc::clone(memory_store.expect("memory store outlives epochs")),
        Backend::Local => {
            let dir = &scratch.expect("local backend has a scratch dir").0;
            let local = LocalPageStore::open(
                dir,
                LocalStoreConfig {
                    page_size: sc.page_size,
                    crash_plan: Some(Arc::clone(crash_plan)),
                },
            )
            .map_err(|e| format!("open local store: {e}"))?
            .with_tracer(tracer.clone());
            Arc::new(FaultyStore::new(local, Arc::clone(fault_plan)))
        }
    };

    let mut builder = CacheManager::builder(config)
        .with_store(store, sc.cache_capacity)
        .with_clock(Arc::clone(clock))
        .with_metrics(registry)
        .with_tracer(tracer)
        .with_recovery();
    if let Some(q) = sc.quota {
        builder = builder.with_quota(
            CacheScope::Table {
                schema: "sim".into(),
                table: "t0".into(),
            },
            ByteSize::new(q),
        );
    }
    if let Some(q) = sc.partition_quota {
        builder = builder.with_quota(CacheScope::partition("sim", "t0", "p0"), ByteSize::new(q));
    }
    let admission = sc.max_cached_partitions.map(|cap| {
        Arc::new(FilterRuleAdmission::new(FilterRuleSet {
            rules: vec![FilterRule {
                schema: "sim".into(),
                table: "*".into(),
                max_cached_partitions: Some(cap),
            }],
            default_admit: true,
        }))
    });
    if let Some(a) = &admission {
        builder = builder.with_admission(Arc::clone(a) as Arc<dyn AdmissionPolicy>);
    }
    let cache = builder.build().map_err(|e| format!("build cache: {e}"))?;
    Ok(DirectStack { cache, admission })
}

/// Finalizes an epoch: conservation laws over the epoch's registry, a trace
/// line with every counter (the metrics fingerprint), and the epoch's span
/// records drained into the run-wide list.
fn finish_epoch(
    cache: &CacheManager,
    epoch: usize,
    clean: bool,
    trace: &mut Vec<String>,
    violations: &mut Vec<Violation>,
    spans: &mut Vec<SpanRecord>,
) -> String {
    spans.extend(cache.tracer().take_records());
    let snapshot = cache.metrics().snapshot();
    let diff = SnapshotDiff::from_start(&snapshot);
    if let Err(e) = assert_conserved(&diff, &cache_epoch_laws(clean)) {
        violations.push(Violation {
            op: None,
            kind: "conservation",
            detail: format!("epoch {epoch}: {e}"),
        });
    }
    let counters: Vec<String> = snapshot
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    trace.push(format!("epoch {epoch} end: {}", counters.join(" ")));
    snapshot.to_json()
}

fn run_direct(sc: &Scenario) -> RunReport {
    let sim = Arc::new(SimClock::new());
    let clock: SharedClock = sim.clone();
    let remote = SimRemote::new(sc, Arc::clone(&clock));
    let fault_plan = FaultPlan::none();
    fault_plan.set_clock(Arc::clone(&clock));
    let crash_plan = CrashPlan::new();

    let mut trace: Vec<String> = Vec::with_capacity(sc.ops.len() + 8);
    let mut violations: Vec<Violation> = Vec::new();
    let mut span_records: Vec<SpanRecord> = Vec::new();

    let scratch = match sc.backend {
        Backend::Local => match ScratchDir::new(sc.seed) {
            Ok(d) => Some(d),
            Err(e) => {
                return setup_failure(sc, format!("scratch dir: {e}"));
            }
        },
        Backend::Memory => None,
    };
    let memory_store: Option<Arc<dyn PageStore>> = match sc.backend {
        Backend::Memory => Some(Arc::new(FaultyStore::new(
            MemoryPageStore::new(),
            Arc::clone(&fault_plan),
        ))),
        Backend::Local => None,
    };

    let mut epoch = 0usize;
    let mut stack = match build_direct(
        sc,
        &clock,
        &fault_plan,
        &crash_plan,
        scratch.as_ref(),
        memory_store.as_ref(),
        epoch,
    ) {
        Ok(s) => s,
        Err(e) => return setup_failure(sc, e),
    };

    let mut epoch_clean = true;
    let mut crashes_seen = 0u64;
    let mut stalls = StallSchedule::none();
    let mut salt_counter = 0u64;
    let mut err_until = 0usize;
    let mut short_until = 0usize;
    // Open memory-pressure window: (first op past the window, shrunk bytes).
    // Restoring the configured capacity at expiry lets promotions resume, so
    // one scenario exercises shrink → demote → regrow → repromote.
    let mut mem_pressure: Option<(usize, u64)> = None;
    let mut fault_idx = 0usize;
    let mut final_json;

    for (i, op) in sc.ops.iter().enumerate() {
        // Expire remote fault windows that ran out.
        if err_until != 0 && i >= err_until {
            remote.set_error_percent(0, 0);
            err_until = 0;
        }
        if short_until != 0 && i >= short_until {
            remote.set_short_percent(0, 0);
            short_until = 0;
        }
        if let Some((until, _)) = mem_pressure {
            if i >= until {
                stack
                    .cache
                    .set_memory_capacity(sc.memory_capacity.unwrap_or(0));
                mem_pressure = None;
            }
        }
        // Apply faults scheduled at this boundary.
        while fault_idx < sc.faults.len() && sc.faults[fault_idx].at <= i {
            let fault = &sc.faults[fault_idx].fault;
            trace.push(format!("fault@{i} {fault:?}"));
            match fault {
                Fault::CorruptPage { file, page } => {
                    fault_plan.corrupt_page(PageId::new(source_file(sc, *file).file_id(), *page));
                }
                Fault::DeviceCapacity { bytes } => fault_plan.set_device_capacity(*bytes),
                Fault::ReadHang { millis, period } => {
                    fault_plan.set_read_hang(Duration::from_millis(*millis), *period);
                }
                Fault::RemoteErrors { percent, ops } => {
                    salt_counter += 1;
                    remote.set_error_percent(*percent as u32, salt_counter);
                    err_until = i + *ops as usize;
                }
                Fault::RemoteShortReads { percent, ops } => {
                    salt_counter += 1;
                    remote.set_short_percent(*percent as u32, salt_counter);
                    short_until = i + *ops as usize;
                }
                Fault::RemoteStall { millis, factor } => {
                    let now = clock.now();
                    stalls.add(StallWindow {
                        start: now,
                        end: now + Duration::from_millis(*millis),
                        factor: *factor,
                    });
                }
                Fault::ArmCrash { site, skip } => {
                    if sc.backend == Backend::Local {
                        crash_plan.arm_after(*site, *skip);
                    }
                }
                Fault::MemPressure { bytes, ops } => {
                    // Shrinking must demote, never drop: the conservation
                    // oracle re-balances the tier's books after every op of
                    // the window.
                    stack.cache.set_memory_capacity(*bytes);
                    mem_pressure = Some((i + *ops as usize, *bytes));
                }
                // Node lifecycle faults have no seat in the Direct topology.
                Fault::NodeStall { .. }
                | Fault::NodeCrash { .. }
                | Fault::NodeJoin { .. }
                | Fault::NodeDegraded { .. } => {}
            }
            fault_idx += 1;
        }
        remote.set_stall_factor(stalls.factor_at(clock.now()));

        // Execute the op.
        let fired_before = crash_plan.fired();
        let digest = match op {
            Op::Read { file, offset, len } => {
                let sf = source_file(sc, *file);
                match stack.cache.read(&sf, *offset, *len, remote.as_ref()) {
                    Ok(bytes) => {
                        let expected = remote.expected(*file, *offset, *len);
                        if let Some(v) = check_read(i, &bytes, &expected) {
                            violations.push(v);
                        }
                        format!("ok len={} fnv={:016x}", bytes.len(), fnv1a64(&bytes))
                    }
                    Err(e) => {
                        epoch_clean = false;
                        let crashed = crash_plan.fired() > fired_before;
                        if !remote.faults_active() && !crashed {
                            violations.push(Violation {
                                op: Some(i),
                                kind: "unexpected-error",
                                detail: format!("read failed with no fault window open: {e}"),
                            });
                        }
                        format!("err {}", e.kind())
                    }
                }
            }
            Op::ReadMulti { file, ranges } => {
                let sf = source_file(sc, *file);
                match stack.cache.read_multi(&sf, ranges, remote.as_ref()) {
                    Ok(parts) => {
                        if parts.len() != ranges.len() {
                            violations.push(Violation {
                                op: Some(i),
                                kind: "arity-mismatch",
                                detail: format!(
                                    "read_multi returned {} fragments for {} ranges",
                                    parts.len(),
                                    ranges.len()
                                ),
                            });
                        }
                        let mut total = 0usize;
                        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
                        for (frag, &(offset, len)) in parts.iter().zip(ranges.iter()) {
                            let expected = remote.expected(*file, offset, len);
                            if let Some(v) = check_read(i, frag, &expected) {
                                violations.push(v);
                            }
                            total += frag.len();
                            fnv = edgecache_common::hash::combine(fnv, fnv1a64(frag));
                        }
                        format!("ok frags={} len={total} fnv={fnv:016x}", parts.len())
                    }
                    Err(e) => {
                        epoch_clean = false;
                        let crashed = crash_plan.fired() > fired_before;
                        if !remote.faults_active() && !crashed {
                            violations.push(Violation {
                                op: Some(i),
                                kind: "unexpected-error",
                                detail: format!("read_multi failed with no fault window open: {e}"),
                            });
                        }
                        format!("err {}", e.kind())
                    }
                }
            }
            Op::DeleteFile { file } => {
                let n = stack.cache.delete_file(source_file(sc, *file).file_id());
                format!("deleted {n}")
            }
            Op::PurgeScope { file } => {
                let n = stack.cache.delete_scope(&scope_of(*file));
                format!("purged {n}")
            }
            Op::AdvanceClock { millis } => {
                sim.advance(Duration::from_millis(*millis));
                format!("t={}ms", sim.now_millis())
            }
            Op::EvictExpired => format!("expired {}", stack.cache.evict_expired()),
            Op::OlapQuery { .. }
            | Op::OlapAppend { .. }
            | Op::OlapRewrite { .. }
            | Op::OlapDrop { .. } => {
                unreachable!("OLAP ops run under the Resultcache profile only")
            }
            Op::CrashRestart => {
                if sc.backend == Backend::Local {
                    // Simulated kill -9: the process dies with no store
                    // half-effect; everything in memory is lost.
                    "killed".to_string()
                } else {
                    "noop".to_string()
                }
            }
            Op::WorkerOffline { .. } | Op::WorkerOnline { .. } => "noop".to_string(),
        };
        // Land the op's write-behind publishes before anything looks: a
        // crash point inside one is then this op's crash, and the per-op
        // oracles see what a single-threaded caller would.
        stack.cache.quiesce();
        trace.push(format!(
            "op{i:03} {op:?} -> {digest} clock={}ms",
            sim.now_millis()
        ));

        // Process-death handling: a fired crash point (or an explicit kill)
        // ends the epoch; restart over the same directory with recovery.
        let fired_now = crash_plan.fired();
        let crashed = fired_now > fired_before;
        let killed = matches!(op, Op::CrashRestart) && sc.backend == Backend::Local;
        if crashed || killed {
            crashes_seen = fired_now;
            final_json = finish_epoch(
                &stack.cache,
                epoch,
                epoch_clean,
                &mut trace,
                &mut violations,
                &mut span_records,
            );
            drop(stack);
            epoch += 1;
            epoch_clean = true;
            trace.push(format!("restart -> epoch {epoch}"));
            stack = match build_direct(
                sc,
                &clock,
                &fault_plan,
                &crash_plan,
                scratch.as_ref(),
                memory_store.as_ref(),
                epoch,
            ) {
                Ok(s) => {
                    // The rebuilt stack mounted the tier at full configured
                    // capacity; if a pressure window is still open, the
                    // shrunk budget must survive the restart.
                    if let Some((_, bytes)) = mem_pressure {
                        s.cache.set_memory_capacity(bytes);
                    }
                    s
                }
                Err(e) => {
                    violations.push(Violation {
                        op: Some(i),
                        kind: "restart-failed",
                        detail: e,
                    });
                    let trace_hash = hash_trace(&trace);
                    return RunReport {
                        seed: sc.seed,
                        trace,
                        trace_hash,
                        violations,
                        epochs: epoch + 1,
                        crashes: crashes_seen,
                        final_metrics_json: final_json,
                        span_records,
                    };
                }
            };
        }

        // Structural accounting must hold after every completed op (on the
        // freshly recovered stack when a crash just fired).
        violations.extend(check_accounting(
            i,
            &stack.cache,
            true,
            stack.admission.as_deref(),
        ));
    }

    final_json = finish_epoch(
        &stack.cache,
        epoch,
        epoch_clean,
        &mut trace,
        &mut violations,
        &mut span_records,
    );
    let trace_hash = hash_trace(&trace);
    RunReport {
        seed: sc.seed,
        trace,
        trace_hash,
        violations,
        epochs: epoch + 1,
        crashes: crashes_seen,
        final_metrics_json: final_json,
        span_records,
    }
}

fn run_tier(sc: &Scenario) -> RunReport {
    let sim = Arc::new(SimClock::new());
    let clock: SharedClock = sim.clone();
    let remote = SimRemote::new(sc, Arc::clone(&clock));

    let mut trace: Vec<String> = Vec::with_capacity(sc.ops.len() + 8);
    let mut violations: Vec<Violation> = Vec::new();

    let workers = Scenario::tier_workers(sc.profile);
    let tier = match DistCacheTier::new(
        TierConfig {
            workers,
            max_replicas: 2,
            // Cluster seeds warm each key's second candidate deliberately,
            // so failover during churn windows serves warm hits.
            replicate_on_read: sc.profile == Profile::Cluster,
            worker: WorkerCacheConfig {
                cache_capacity: sc.cache_capacity,
                page_size: ByteSize::new(sc.page_size),
                max_inflight: 8,
            },
            ring: if sc.profile == Profile::Cluster {
                // A short lazy window, so stall windows overlapping clock
                // advances actually expire seats and exercise the
                // sweep-driven rebalance (ownership-change re-fetch).
                edgecache_common::ring::RingConfig {
                    offline_timeout: Duration::from_secs(60),
                    ..Default::default()
                }
            } else {
                Default::default()
            },
        },
        Arc::clone(&remote) as Arc<dyn RemoteSource + Send + Sync>,
        Arc::clone(&clock),
    ) {
        Ok(t) => t,
        Err(e) => return setup_failure(sc, format!("build tier: {e}")),
    };
    // Distcache-hop spans roll up into the tier's own registry, so they ride
    // the final-metrics determinism check like the Direct topology's stages.
    let tier = {
        let registry = Arc::new(tier.metrics().clone());
        tier.with_tracer(Tracer::enabled(Arc::clone(&clock)).with_registry(registry))
    };
    for file in 0..sc.files {
        tier.register_file(&Scenario::path_of(file), 1, sc.file_len);
    }

    let mut stalls = StallSchedule::none();
    let mut salt_counter = 0u64;
    let mut err_until = 0usize;
    let mut short_until = 0usize;
    let mut fault_idx = 0usize;
    let mut tier_reads = 0u64;

    // Cluster-health bookkeeping for the per-op tier oracle: which workers
    // the harness itself pushed into a bad state. A name can linger here
    // after a sweep removed the worker outright — that only makes the
    // "fully healthy" oracle more conservative, never wrong.
    let mut offline: std::collections::BTreeSet<String> = Default::default();
    let mut degraded: std::collections::BTreeSet<String> = Default::default();
    let mut awaiting_restart: std::collections::BTreeSet<String> = Default::default();
    /// A scheduled end of a node-fault window, keyed by op index.
    enum NodeEvent {
        StallEnd(String),
        DegradeEnd(String),
        Rejoin(String),
    }
    let mut node_events: Vec<(usize, NodeEvent)> = Vec::new();
    let worker_name = |idx: u32| format!("cw{}", idx as usize % workers);
    let mut prev_stats = tier.stats();

    for (i, op) in sc.ops.iter().enumerate() {
        if err_until != 0 && i >= err_until {
            remote.set_error_percent(0, 0);
            err_until = 0;
        }
        if short_until != 0 && i >= short_until {
            remote.set_short_percent(0, 0);
            short_until = 0;
        }
        // Close node-fault windows that ran out: stalled workers return,
        // degraded workers heal, crashed workers rejoin cold.
        let mut still_open = Vec::with_capacity(node_events.len());
        for (at, ev) in node_events.drain(..) {
            if at > i {
                still_open.push((at, ev));
                continue;
            }
            match ev {
                NodeEvent::StallEnd(name) => {
                    // A no-op if a sweep already expired the seat — the
                    // worker is then gone for good and its keys rehashed.
                    tier.worker_online(&name);
                    offline.remove(&name);
                }
                NodeEvent::DegradeEnd(name) => {
                    if let Some(w) = tier.worker(&name) {
                        w.set_failing(false);
                    }
                    degraded.remove(&name);
                }
                NodeEvent::Rejoin(name) => {
                    if let Err(e) = tier.add_worker(&name) {
                        violations.push(Violation {
                            op: Some(i),
                            kind: "rejoin-failed",
                            detail: format!("crashed worker {name} failed to rejoin: {e}"),
                        });
                    }
                    awaiting_restart.remove(&name);
                }
            }
        }
        node_events = still_open;
        while fault_idx < sc.faults.len() && sc.faults[fault_idx].at <= i {
            let fault = &sc.faults[fault_idx].fault;
            trace.push(format!("fault@{i} {fault:?}"));
            match fault {
                Fault::RemoteErrors { percent, ops } => {
                    salt_counter += 1;
                    remote.set_error_percent(*percent as u32, salt_counter);
                    err_until = i + *ops as usize;
                }
                Fault::RemoteShortReads { percent, ops } => {
                    salt_counter += 1;
                    remote.set_short_percent(*percent as u32, salt_counter);
                    short_until = i + *ops as usize;
                }
                Fault::RemoteStall { millis, factor } => {
                    let now = clock.now();
                    stalls.add(StallWindow {
                        start: now,
                        end: now + Duration::from_millis(*millis),
                        factor: *factor,
                    });
                }
                Fault::NodeStall { idx, ops } => {
                    let name = worker_name(*idx);
                    tier.worker_offline(&name);
                    offline.insert(name.clone());
                    node_events.push((i + *ops as usize, NodeEvent::StallEnd(name)));
                }
                Fault::NodeCrash { idx, restart_ops } => {
                    let name = worker_name(*idx);
                    tier.worker_crash(&name);
                    awaiting_restart.insert(name.clone());
                    node_events.push((i + *restart_ops as usize, NodeEvent::Rejoin(name)));
                }
                Fault::NodeJoin { idx } => {
                    let name = format!("cw{}", workers + *idx as usize);
                    if let Err(e) = tier.add_worker(&name) {
                        violations.push(Violation {
                            op: Some(i),
                            kind: "join-failed",
                            detail: format!("worker {name} failed to join: {e}"),
                        });
                    }
                }
                Fault::NodeDegraded { idx, ops } => {
                    let name = worker_name(*idx);
                    if let Some(w) = tier.worker(&name) {
                        w.set_failing(true);
                        degraded.insert(name.clone());
                        node_events.push((i + *ops as usize, NodeEvent::DegradeEnd(name)));
                    }
                }
                // Store-level and crash faults have no seat in the tier
                // topology (the harness does not own the workers' stores).
                _ => {}
            }
            fault_idx += 1;
        }
        remote.set_stall_factor(stalls.factor_at(clock.now()));

        let digest = match op {
            Op::Read { file, offset, len } => {
                let sf =
                    SourceFile::new(Scenario::path_of(*file), 1, sc.file_len, CacheScope::Global);
                tier_reads += 1;
                match tier.read(&sf, *offset, *len) {
                    Ok(bytes) => {
                        let expected = remote.expected(*file, *offset, *len);
                        if let Some(v) = check_read(i, &bytes, &expected) {
                            violations.push(v);
                        }
                        format!("ok len={} fnv={:016x}", bytes.len(), fnv1a64(&bytes))
                    }
                    Err(e) => {
                        if !remote.faults_active() {
                            violations.push(Violation {
                                op: Some(i),
                                kind: "unexpected-error",
                                detail: format!("tier read failed with no fault window: {e}"),
                            });
                        }
                        format!("err {}", e.kind())
                    }
                }
            }
            Op::ReadMulti { file, ranges } => {
                let sf =
                    SourceFile::new(Scenario::path_of(*file), 1, sc.file_len, CacheScope::Global);
                // One batch is one tier read: it is served by exactly one
                // worker hop or one origin fallback, whatever its arity.
                tier_reads += 1;
                match tier.read_multi(&sf, ranges) {
                    Ok(parts) => {
                        if parts.len() != ranges.len() {
                            violations.push(Violation {
                                op: Some(i),
                                kind: "arity-mismatch",
                                detail: format!(
                                    "tier read_multi returned {} fragments for {} ranges",
                                    parts.len(),
                                    ranges.len()
                                ),
                            });
                        }
                        let mut total = 0usize;
                        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
                        for (frag, &(offset, len)) in parts.iter().zip(ranges.iter()) {
                            let expected = remote.expected(*file, offset, len);
                            if let Some(v) = check_read(i, frag, &expected) {
                                violations.push(v);
                            }
                            total += frag.len();
                            fnv = edgecache_common::hash::combine(fnv, fnv1a64(frag));
                        }
                        format!("ok frags={} len={total} fnv={fnv:016x}", parts.len())
                    }
                    Err(e) => {
                        if !remote.faults_active() {
                            violations.push(Violation {
                                op: Some(i),
                                kind: "unexpected-error",
                                detail: format!("tier read_multi failed with no fault window: {e}"),
                            });
                        }
                        format!("err {}", e.kind())
                    }
                }
            }
            Op::AdvanceClock { millis } => {
                sim.advance(Duration::from_millis(*millis));
                format!("t={}ms", sim.now_millis())
            }
            Op::EvictExpired => {
                let mut swept = tier.sweep_expired();
                swept.sort();
                format!("swept {}", swept.len())
            }
            Op::WorkerOffline { idx } => {
                let name = worker_name(*idx);
                tier.worker_offline(&name);
                offline.insert(name);
                "offline".to_string()
            }
            Op::WorkerOnline { idx } => {
                let name = worker_name(*idx);
                tier.worker_online(&name);
                offline.remove(&name);
                "online".to_string()
            }
            // File deletion, scope purges, and crashes are Direct-topology
            // concerns (the tier does not own scopes or stores).
            Op::DeleteFile { .. } | Op::PurgeScope { .. } | Op::CrashRestart => "noop".to_string(),
            Op::OlapQuery { .. }
            | Op::OlapAppend { .. }
            | Op::OlapRewrite { .. }
            | Op::OlapDrop { .. } => {
                unreachable!("OLAP ops run under the Resultcache profile only")
            }
        };
        trace.push(format!(
            "op{i:03} {op:?} -> {digest} clock={}ms",
            sim.now_millis()
        ));

        // Per-op tier oracles: read-outcome conservation always; the
        // cluster-health (bounded degradation) check whenever the harness
        // has every worker online, undegraded, and rejoined.
        let cur_stats = tier.stats();
        let reads_this_op = matches!(op, Op::Read { .. } | Op::ReadMulti { .. }) as u64;
        let cluster_healthy =
            offline.is_empty() && degraded.is_empty() && awaiting_restart.is_empty();
        violations.extend(check_tier_op(
            i,
            reads_this_op,
            &prev_stats,
            &cur_stats,
            cluster_healthy,
            remote.faults_active(),
        ));
        prev_stats = cur_stats;
    }

    // Tier conservation over the whole run: every tier read ended in
    // exactly one of a worker serve, an origin fallback, or a failure.
    let stats = tier.stats();
    if stats.served_by_tier + stats.origin_fallbacks + stats.failed_reads != tier_reads {
        violations.push(Violation {
            op: None,
            kind: "tier-conservation",
            detail: format!(
                "served_by_tier={} + origin_fallbacks={} + failed_reads={} != tier reads {}",
                stats.served_by_tier, stats.origin_fallbacks, stats.failed_reads, tier_reads
            ),
        });
    }
    let snapshot = tier.metrics().snapshot();
    let counters: Vec<String> = snapshot
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    trace.push(format!("tier end: {}", counters.join(" ")));
    let final_json = snapshot.to_json();

    let trace_hash = hash_trace(&trace);
    RunReport {
        seed: sc.seed,
        trace,
        trace_hash,
        violations,
        epochs: 1,
        crashes: 0,
        final_metrics_json: final_json,
        span_records: tier.tracer().take_records(),
    }
}

fn hash_trace(trace: &[String]) -> u64 {
    trace.iter().fold(0xcbf2_9ce4_8422_2325, |acc, line| {
        edgecache_common::hash::combine(acc, hash_str(line))
    })
}

// ---------------------------------------------------------------------------
// Resultcache profile: OLAP result-cache coherence under metadata churn
// ---------------------------------------------------------------------------

/// Deterministic fact-file content for the Resultcache profile: a pure
/// function of `(partition, file, version)`, so a rewrite genuinely changes
/// the answer and any stale cached partial is observable in the rows.
fn olap_file_bytes(partition: usize, file: usize, version: u64) -> bytes::Bytes {
    let mut w = edgecache_columnar::ColfWriter::new(olap_schema(), 16);
    let salt = (partition * 97 + file * 31) as i64 + version as i64 * 7;
    for i in 0..32i64 {
        let id = salt + i;
        w.push_row(vec![
            edgecache_columnar::Value::Int64(id),
            edgecache_columnar::Value::Utf8(format!("r{}", id.rem_euclid(3))),
            edgecache_columnar::Value::Float64(id as f64 * 1.25 + version as f64 * 0.5),
        ])
        .expect("row matches schema");
    }
    w.finish().expect("colf encode")
}

fn olap_schema() -> edgecache_columnar::Schema {
    edgecache_columnar::Schema::new(vec![
        ("id", edgecache_columnar::ColumnType::Int64),
        ("region", edgecache_columnar::ColumnType::Utf8),
        ("amount", edgecache_columnar::ColumnType::Float64),
    ])
}

/// The Resultcache profile's query pool: 8 aggregate shapes, with shape 2 a
/// commuted twin of shape 1 (same fingerprint, different plan order) so the
/// mix exercises cross-plan sharing of cached fragments.
fn olap_plan(q: u8) -> edgecache_olap::QueryPlan {
    use edgecache_columnar::{Predicate, Value};
    use edgecache_olap::{AggExpr, QueryPlan};
    let base = QueryPlan::scan("sim", "fact", &[]);
    match q % 8 {
        0 => base.aggregate(vec![AggExpr::count()]),
        1 => base
            .aggregate(vec![AggExpr::sum("amount"), AggExpr::count()])
            .group("region"),
        2 => base
            .aggregate(vec![AggExpr::count(), AggExpr::sum("amount")])
            .group("region"),
        3 => base
            .filter(
                Predicate::Eq("region".into(), Value::Utf8("r1".into()))
                    .or(Predicate::Eq("region".into(), Value::Utf8("r2".into()))),
            )
            .aggregate(vec![AggExpr::avg("amount"), AggExpr::min("id")]),
        4 => base
            .filter(Predicate::Gt("amount".into(), Value::Float64(20.0)))
            .aggregate(vec![AggExpr::max("amount"), AggExpr::count()])
            .group("region"),
        5 => base.aggregate(vec![
            AggExpr::sum("amount"),
            AggExpr::avg("amount"),
            AggExpr::min("amount"),
            AggExpr::max("amount"),
        ]),
        6 => base
            .filter(Predicate::Lt("id".into(), Value::Int64(120)))
            .aggregate(vec![AggExpr::count(), AggExpr::min("amount")])
            .group("region"),
        _ => base
            .filter(Predicate::Between(
                "amount".into(),
                Value::Float64(5.0),
                Value::Float64(400.0),
            ))
            .aggregate(vec![AggExpr::sum("amount"), AggExpr::max("id")]),
    }
}

/// The pruning-soundness oracle: for each current fact file — regenerated
/// from its `(partition, file, version)` recipe, so nothing is read from the
/// store and no span is recorded — every row group `prune` drops for
/// `predicate` must hold no row that `Predicate::select` selects.
fn pruned_rows_that_match(
    predicate: &edgecache_columnar::Predicate,
    partitions: &[(usize, usize, u64)],
) -> Vec<String> {
    use edgecache_columnar::{ColfReader, ColumnView};
    let mut found = Vec::new();
    for &(part, files, version) in partitions {
        for file in 0..files {
            let version = if file == 0 { version } else { 1 };
            let reader = ColfReader::open(olap_file_bytes(part, file, version))
                .expect("regenerated file opens");
            let kept = reader.prune(Some(predicate));
            let schema = reader.schema();
            let every_column: Vec<usize> = (0..schema.len()).collect();
            for group in (0..reader.row_groups()).filter(|g| !kept.contains(g)) {
                let columns = reader
                    .read_row_group(group, &every_column)
                    .expect("regenerated row group decodes");
                let rows: Vec<u32> = (0..columns[0].len() as u32).collect();
                let column =
                    |name: &str| Some(ColumnView::direct(&columns[schema.index_of(name)?]));
                let selected = predicate.select(&column, &rows);
                if !selected.is_empty() {
                    found.push(format!(
                        "p{part} f{file} v{version} row group {group}: pruned rows {selected:?} match {predicate:?}"
                    ));
                }
            }
        }
    }
    found
}

/// Runs a Resultcache-profile scenario: a cached engine and an uncached
/// shadow share one catalog/store/clock while the op stream interleaves
/// repeated queries with appends, rewrites, and partition drops. Oracles:
///
/// * **Coherence** — cached rows are bit-identical (`Debug` form) to the
///   shadow's recomputed rows after every query.
/// * **Split partition** — `splits_skipped + splits_scheduled == splits` per
///   query, and the shadow never skips.
/// * **Ledger** — the cache's byte/entry/index accounting stays consistent
///   after every op.
/// * **Reconciliation** — the sum of `splits_scheduled` equals the
///   scheduler's assigned-splits total at end of run.
/// * **Pruning soundness** — after every query, no row group that statistics
///   pruning drops for its predicate holds a matching row
///   ([`pruned_rows_that_match`]).
fn run_olap(sc: &Scenario) -> RunReport {
    use edgecache_olap::{
        Catalog, DataFile, Engine, EngineConfig, PartitionDef, ResultCacheConfig, TableDef,
        WorkerConfig,
    };
    use edgecache_storage::ObjectStore;

    let clock = SimClock::new();
    let store = Arc::new(ObjectStore::new(Arc::new(clock.clone())));
    let catalog = Arc::new(Catalog::new());
    catalog.register(TableDef {
        schema_name: "sim".into(),
        table_name: "fact".into(),
        columns: olap_schema(),
        partitions: vec![],
    });
    let mk = |rc: ResultCacheConfig| {
        Engine::new(
            Arc::clone(&catalog),
            Arc::clone(&store) as _,
            EngineConfig {
                workers: 2,
                worker: WorkerConfig {
                    page_size: ByteSize::kib(1),
                    ..Default::default()
                },
                coordinator_overhead: Duration::ZERO,
                result_cache: rc,
                ..Default::default()
            },
            Arc::new(clock.clone()),
        )
    };
    let cached = match mk(ResultCacheConfig::enabled(ByteSize::new(sc.cache_capacity))) {
        Ok(e) => e,
        Err(e) => return setup_failure(sc, format!("cached engine: {e}")),
    };
    let shadow = match mk(ResultCacheConfig::default()) {
        Ok(e) => e,
        Err(e) => return setup_failure(sc, format!("shadow engine: {e}")),
    };
    let rc = cached
        .result_cache()
        .expect("cached engine has result cache");

    let path_of = |p: usize, f: usize| format!("/sim/olap/p{p}/f{f}.colf");
    // (partition index, next file index, version of file 0)
    let mut partitions: Vec<(usize, usize, u64)> = Vec::new();
    for p in 0..2usize {
        let bytes = olap_file_bytes(p, 0, 1);
        let path = path_of(p, 0);
        store.put_object(&path, bytes.clone());
        catalog
            .add_partition(
                "sim",
                "fact",
                PartitionDef {
                    name: format!("p{p}"),
                    files: vec![DataFile {
                        path,
                        version: 1,
                        length: bytes.len() as u64,
                    }],
                },
            )
            .expect("seed partition");
        partitions.push((p, 1, 1));
    }
    let mut next_partition = partitions.len();

    let mut trace: Vec<String> = Vec::with_capacity(sc.ops.len() + 2);
    let mut violations: Vec<Violation> = Vec::new();
    let mut queries: u64 = 0;
    let mut skipped_total: u64 = 0;
    let mut scheduled_total: u64 = 0;
    let mut scan_bytes_saved: u64 = 0;

    for (i, op) in sc.ops.iter().enumerate() {
        let line = match op {
            Op::OlapQuery { q } => {
                let plan = olap_plan(*q);
                let a = match cached.execute(&plan) {
                    Ok(r) => r,
                    Err(e) => {
                        violations.push(Violation {
                            op: Some(i),
                            kind: "query-failed",
                            detail: format!("cached q{q}: {e}"),
                        });
                        trace.push(format!("op{i} q{q} FAILED"));
                        continue;
                    }
                };
                let b = match shadow.execute(&plan) {
                    Ok(r) => r,
                    Err(e) => {
                        violations.push(Violation {
                            op: Some(i),
                            kind: "query-failed",
                            detail: format!("shadow q{q}: {e}"),
                        });
                        trace.push(format!("op{i} q{q} SHADOW-FAILED"));
                        continue;
                    }
                };
                let rows_a = format!("{:?}", a.rows);
                let rows_b = format!("{:?}", b.rows);
                if rows_a != rows_b {
                    violations.push(Violation {
                        op: Some(i),
                        kind: "resultcache-coherence",
                        detail: format!(
                            "q{q}: cached rows diverged from shadow\ncached: {rows_a}\nshadow: {rows_b}"
                        ),
                    });
                }
                if a.stats.splits_skipped + a.stats.splits_scheduled != a.stats.splits {
                    violations.push(Violation {
                        op: Some(i),
                        kind: "split-partition",
                        detail: format!(
                            "q{q}: skipped {} + scheduled {} != splits {}",
                            a.stats.splits_skipped, a.stats.splits_scheduled, a.stats.splits
                        ),
                    });
                }
                if b.stats.splits_skipped != 0 {
                    violations.push(Violation {
                        op: Some(i),
                        kind: "shadow-skipped",
                        detail: format!(
                            "q{q}: uncached shadow skipped {} splits",
                            b.stats.splits_skipped
                        ),
                    });
                }
                if let Some(predicate) = &plan.predicate {
                    for detail in pruned_rows_that_match(predicate, &partitions) {
                        violations.push(Violation {
                            op: Some(i),
                            kind: "pruning-soundness",
                            detail: format!("q{q}: {detail}"),
                        });
                    }
                }
                queries += 1;
                skipped_total += a.stats.splits_skipped as u64;
                scheduled_total += a.stats.splits_scheduled as u64;
                scan_bytes_saved += a.stats.scan_bytes_saved;
                format!(
                    "op{i} q{q} rows={} fnv={:016x} splits={} skipped={} scheduled={}",
                    a.rows.len(),
                    fnv1a64(rows_a.as_bytes()),
                    a.stats.splits,
                    a.stats.splits_skipped,
                    a.stats.splits_scheduled
                )
            }
            Op::OlapAppend { p } => {
                let idx = *p as usize % partitions.len();
                let (part, next_file, _) = &mut partitions[idx];
                let (part, f) = (*part, *next_file);
                *next_file += 1;
                let bytes = olap_file_bytes(part, f, 1);
                let path = path_of(part, f);
                store.put_object(&path, bytes.clone());
                let name = format!("p{part}");
                let table = catalog.table("sim", "fact").expect("fact table");
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
                catalog
                    .add_partition("sim", "fact", PartitionDef { name, files })
                    .expect("append file");
                format!("op{i} append p{part} f{f}")
            }
            Op::OlapRewrite { p } => {
                let idx = *p as usize % partitions.len();
                let (part, _, version) = &mut partitions[idx];
                *version += 1;
                let (part, version) = (*part, *version);
                let bytes = olap_file_bytes(part, 0, version);
                let path = path_of(part, 0);
                store.put_object(&path, bytes.clone());
                catalog
                    .rewrite_file(
                        "sim",
                        "fact",
                        &format!("p{part}"),
                        &path,
                        version,
                        bytes.len() as u64,
                    )
                    .expect("rewrite file");
                format!("op{i} rewrite p{part} f0 v{version}")
            }
            Op::OlapDrop { p } => {
                if partitions.len() <= 1 {
                    // Keep at least one partition live; replace the drop with
                    // a compensating add so the scenario keeps making progress.
                    let part = next_partition;
                    next_partition += 1;
                    let bytes = olap_file_bytes(part, 0, 1);
                    let path = path_of(part, 0);
                    store.put_object(&path, bytes.clone());
                    catalog
                        .add_partition(
                            "sim",
                            "fact",
                            PartitionDef {
                                name: format!("p{part}"),
                                files: vec![DataFile {
                                    path,
                                    version: 1,
                                    length: bytes.len() as u64,
                                }],
                            },
                        )
                        .expect("compensating partition");
                    partitions.push((part, 1, 1));
                    format!("op{i} drop->add p{part}")
                } else {
                    let idx = *p as usize % partitions.len();
                    let (part, _, _) = partitions.remove(idx);
                    catalog
                        .drop_partition("sim", "fact", &format!("p{part}"))
                        .expect("drop partition");
                    format!("op{i} drop p{part}")
                }
            }
            Op::AdvanceClock { millis } => {
                clock.advance(Duration::from_millis(*millis));
                format!("op{i} t={}ms", clock.now_millis())
            }
            other => format!("op{i} ignored {other:?}"),
        };
        trace.push(line);
        if let Err(e) = rc.check_consistency() {
            violations.push(Violation {
                op: Some(i),
                kind: "resultcache-ledger",
                detail: format!("{e}"),
            });
        }
    }

    // End-of-run reconciliation: every split the cached engine reported as
    // scheduled was assigned by its scheduler, exactly once.
    let assigned = cached.scheduler().assigned_total();
    if scheduled_total != assigned {
        violations.push(Violation {
            op: None,
            kind: "split-reconcile",
            detail: format!(
                "sum of splits_scheduled {scheduled_total} != scheduler assigned {assigned}"
            ),
        });
    }
    let c = rc.counters();
    trace.push(format!(
        "end queries={queries} skipped={skipped_total} scheduled={scheduled_total} \
         hits={} misses={} inserts={} evictions={} invalidations={} entries={} bytes={}",
        c.hits,
        c.misses,
        c.inserts,
        c.evictions,
        c.invalidations,
        rc.len(),
        rc.bytes()
    ));
    let final_metrics_json = format!(
        "{{\"queries\":{queries},\"splits_skipped\":{skipped_total},\
         \"splits_scheduled\":{scheduled_total},\"scan_bytes_saved\":{scan_bytes_saved},\
         \"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{},\"invalidations\":{},\
         \"entries\":{},\"bytes\":{}}}",
        c.hits,
        c.misses,
        c.inserts,
        c.evictions,
        c.invalidations,
        rc.len(),
        rc.bytes()
    );
    let trace_hash = hash_trace(&trace);
    RunReport {
        seed: sc.seed,
        trace,
        trace_hash,
        violations,
        epochs: 1,
        crashes: 0,
        final_metrics_json,
        span_records: Vec::new(),
    }
}

fn setup_failure(sc: &Scenario, detail: String) -> RunReport {
    RunReport {
        seed: sc.seed,
        trace: vec![format!("setup failed: {detail}")],
        trace_hash: hash_str(&detail),
        violations: vec![Violation {
            op: None,
            kind: "setup-failed",
            detail,
        }],
        epochs: 0,
        crashes: 0,
        final_metrics_json: String::new(),
        span_records: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Profile;

    #[test]
    fn smoke_seed_runs_clean() {
        let sc = Scenario::generate(0, Profile::Smoke);
        let report = run_scenario(&sc);
        assert!(
            report.ok(),
            "violations: {:?}\ntrace tail: {:?}",
            report.violations,
            report.trace.iter().rev().take(5).collect::<Vec<_>>()
        );
        assert!(report.trace.len() > sc.ops.len());
    }

    #[test]
    fn same_scenario_same_trace() {
        for seed in [1u64, 2, 3] {
            let sc = Scenario::generate(seed, Profile::Smoke);
            let a = run_scenario(&sc);
            let b = run_scenario(&sc);
            assert_eq!(a.trace, b.trace, "seed {seed} diverged");
            assert_eq!(a.trace_hash, b.trace_hash);
            assert_eq!(a.final_metrics_json, b.final_metrics_json);
            assert_eq!(a.span_records, b.span_records, "seed {seed} spans diverged");
            assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
        }
    }

    #[test]
    fn resultcache_seeds_run_clean() {
        for seed in 0..6u64 {
            let sc = Scenario::generate(seed, Profile::Resultcache);
            let report = run_scenario(&sc);
            assert!(
                report.ok(),
                "seed {seed} violations: {:?}\ntrace tail: {:?}",
                report.violations,
                report.trace.iter().rev().take(5).collect::<Vec<_>>()
            );
            // The repeated-query mix must actually exercise the cache.
            let end = report.trace.last().expect("end line");
            assert!(end.starts_with("end queries="), "end line: {end}");
            assert!(
                !end.contains("skipped=0 "),
                "no split was ever served from cache: {end}"
            );
            assert!(report.final_metrics_json.contains("\"hits\":"));
        }
    }

    #[test]
    fn resultcache_same_scenario_same_trace() {
        for seed in [1u64, 4, 9] {
            let sc = Scenario::generate(seed, Profile::Resultcache);
            let a = run_scenario(&sc);
            let b = run_scenario(&sc);
            assert_eq!(a.trace, b.trace, "seed {seed} diverged");
            assert_eq!(a.trace_hash, b.trace_hash);
            assert_eq!(a.final_metrics_json, b.final_metrics_json);
        }
    }

    #[test]
    fn runs_record_read_path_spans() {
        let sc = Scenario::generate(0, Profile::Smoke);
        let report = run_scenario(&sc);
        assert!(report.ok(), "violations: {:?}", report.violations);
        let names: Vec<&str> = report.span_records.iter().map(|r| r.name).collect();
        assert!(names.contains(&"cache.read"), "roots missing: {names:?}");
        assert!(
            names.contains(&"cache.read_multi"),
            "vectored roots missing: {names:?}"
        );
        assert!(names.contains(&"remote_fetch"), "stages missing: {names:?}");
        // Stage durations of each root must sum exactly to the root's
        // latency: the sim clock only moves when a stage charges it, so the
        // partition has no gaps or overlaps.
        use std::collections::BTreeMap;
        let mut child_sums: BTreeMap<u64, u64> = BTreeMap::new();
        for r in &report.span_records {
            if r.parent != 0 {
                *child_sums.entry(r.parent).or_default() +=
                    r.end_nanos.saturating_sub(r.start_nanos);
            }
        }
        for root in report
            .span_records
            .iter()
            .filter(|r| r.parent == 0 && (r.name == "cache.read" || r.name == "cache.read_multi"))
        {
            let total = root.end_nanos - root.start_nanos;
            assert_eq!(
                child_sums.get(&root.id).copied().unwrap_or(0),
                total,
                "stages of span {} must partition its {total}ns",
                root.id
            );
        }
        // The export is valid Chrome trace JSON with one event per span.
        let doc = serde_json::parse_value(&report.chrome_trace_json()).expect("valid JSON");
        let stages = edgecache_metrics::trace::summarize_chrome_trace(&doc).expect("summarize");
        assert!(stages.iter().any(|s| s.name == "cache.read"));
    }

    #[test]
    fn tier_seed_runs_clean() {
        // Seed 3 maps to the Tier topology (seed % 7 == 3).
        let sc = Scenario::generate(3, Profile::Smoke);
        assert_eq!(sc.topology, Topology::Tier);
        let report = run_scenario(&sc);
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    #[test]
    fn cluster_seeds_run_clean_and_deterministic() {
        // Generated membership-churn seeds: node stalls, crashes, joins,
        // and degrade windows over the replicated tier, with the per-op
        // conservation and cluster-health oracles armed. Each seed must
        // also replay byte-identically.
        for seed in 0..4u64 {
            let sc = Scenario::generate(seed, Profile::Cluster);
            assert_eq!(sc.topology, Topology::Tier);
            let a = run_scenario(&sc);
            assert!(a.ok(), "seed {seed} violations: {:?}", a.violations);
            let b = run_scenario(&sc);
            assert_eq!(a.trace, b.trace, "seed {seed} diverged");
            assert_eq!(a.final_metrics_json, b.final_metrics_json);
        }
    }

    #[test]
    fn rolling_restart_keeps_serving_with_bounded_degradation() {
        // A hand-built rolling restart: warm the whole key space (and, via
        // replicate-on-read, every key's second replica), then bounce each
        // of the four workers in turn while reads continue. The bounded-
        // degradation contract is exact here: zero failed reads, zero
        // origin fallbacks — every read through the restart is a worker
        // serve, because the surviving replica is already warm.
        let page = 4096u64;
        let read = |file: u32, idx: u64| Op::Read {
            file,
            offset: idx * page,
            len: page,
        };
        let mut ops = Vec::new();
        for f in 0..6u32 {
            for p in 0..2u64 {
                ops.push(read(f, p));
            }
        }
        for w in 0..4u32 {
            ops.push(Op::WorkerOffline { idx: w });
            for f in 0..6u32 {
                ops.push(read(f, 0));
            }
            ops.push(Op::WorkerOnline { idx: w });
            for f in 0..6u32 {
                ops.push(read(f, 1));
            }
        }
        let total_reads = 12 + 4 * 12;
        let sc = Scenario {
            seed: 777_001,
            profile: Profile::Cluster,
            backend: Backend::Memory,
            topology: Topology::Tier,
            page_size: page,
            cache_capacity: 64 * page,
            files: 6,
            file_len: 4 * page,
            quota: None,
            partition_quota: None,
            max_cached_partitions: None,
            memory_capacity: None,
            sabotage_after: None,
            ops,
            faults: vec![],
        };
        let a = run_scenario(&sc);
        assert!(
            a.ok(),
            "violations: {:?}\ntrace: {:#?}",
            a.violations,
            a.trace
        );
        assert_eq!(epoch_counter(&a.trace, "failed_reads"), 0);
        assert_eq!(
            epoch_counter(&a.trace, "origin_fallbacks"),
            0,
            "warm replicas must absorb the whole rolling restart: {:#?}",
            a.trace
        );
        assert_eq!(
            epoch_counter(&a.trace, "served_by_tier"),
            total_reads as u64
        );
        assert!(
            epoch_counter(&a.trace, "replica_warms") >= 6,
            "replicate-on-read must have warmed the secondaries"
        );
        let b = run_scenario(&sc);
        assert_eq!(a.trace, b.trace, "rolling restart diverged");
        assert_eq!(a.final_metrics_json, b.final_metrics_json);
    }

    #[test]
    fn degraded_primary_fails_over_without_a_failed_read() {
        use crate::scenario::FaultEvent;

        // The headline-bug regression at simtest level: a degrade window on
        // every worker in turn, reads continuing throughout, zero failed
        // reads allowed (origin stays healthy the whole run).
        let page = 4096u64;
        let read = |file: u32| Op::Read {
            file,
            offset: 0,
            len: page,
        };
        let mut ops: Vec<Op> = Vec::new();
        let mut faults = Vec::new();
        for w in 0..4u32 {
            faults.push(FaultEvent {
                at: ops.len(),
                fault: Fault::NodeDegraded { idx: w, ops: 4 },
            });
            for f in 0..4u32 {
                ops.push(read(f));
            }
        }
        let sc = Scenario {
            seed: 777_002,
            profile: Profile::Cluster,
            backend: Backend::Memory,
            topology: Topology::Tier,
            page_size: page,
            cache_capacity: 64 * page,
            files: 4,
            file_len: 4 * page,
            quota: None,
            partition_quota: None,
            max_cached_partitions: None,
            memory_capacity: None,
            sabotage_after: None,
            ops,
            faults,
        };
        let a = run_scenario(&sc);
        assert!(
            a.ok(),
            "violations: {:?}\ntrace: {:#?}",
            a.violations,
            a.trace
        );
        assert_eq!(epoch_counter(&a.trace, "failed_reads"), 0);
        assert!(
            epoch_counter(&a.trace, "worker_errors") > 0,
            "degrade windows must actually exercise the failover path"
        );
        assert!(epoch_counter(&a.trace, "failover_reads") > 0);
    }

    #[test]
    fn sabotage_is_caught_by_the_byte_oracle() {
        let mut sc = Scenario::generate(0, Profile::Smoke);
        sc.sabotage_after = Some(3);
        let report = run_scenario(&sc);
        assert!(
            report.violations.iter().any(|v| v.kind == "byte-mismatch"),
            "sabotaged remote must trip the oracle: {:?}",
            report.violations
        );
    }

    #[test]
    fn quota_profile_seeds_run_clean() {
        // One Memory and one Local seed of the multi-tenant churn profile:
        // every seed carries a table quota, a partition quota, and an
        // admission cap, so the admitted ≡ live-residency oracle is armed
        // after every op. Each seed must also replay byte-identically.
        for seed in [0u64, 1] {
            let sc = Scenario::generate(seed, Profile::Quota);
            assert!(sc.max_cached_partitions.is_some());
            let a = run_scenario(&sc);
            assert!(a.ok(), "seed {seed} violations: {:?}", a.violations);
            let b = run_scenario(&sc);
            assert_eq!(a.trace, b.trace, "seed {seed} diverged");
            assert_eq!(a.final_metrics_json, b.final_metrics_json);
        }
    }

    #[test]
    fn admission_slots_survive_every_exit_path() {
        use crate::scenario::{Fault, FaultEvent};

        // A hand-built scenario that walks a capped table through every
        // scope-exit path in one deterministic run: capacity eviction,
        // quota eviction, TTL expiry, corruption eviction, operator purge,
        // and a crash restart. Files 0/2/4 are partitions p0/p2/p4 of table
        // t0 (cap 2); files 1/3/5 are t1. The admitted ≡ live oracle runs
        // after every op, so any leaked or lost slot fails the run.
        let page = 4096u64;
        let read = |file: u32, idx: u64| Op::Read {
            file,
            offset: idx * page,
            len: page,
        };
        let sc = Scenario {
            seed: 424_242,
            profile: Profile::Quota,
            backend: Backend::Local,
            topology: Topology::Direct,
            page_size: page,
            cache_capacity: 6 * page,
            files: 6,
            file_len: 4 * page,
            quota: Some(4 * page),           // Table t0.
            partition_quota: Some(2 * page), // Partition p0 under it.
            max_cached_partitions: Some(2),
            memory_capacity: None,
            sabotage_after: None,
            ops: vec![
                // Fill p0 to its partition quota, then one page beyond it:
                // quota eviction cycles p0's own pages.
                read(0, 0),
                read(0, 1),
                read(0, 2),
                // p2 takes the second slot; p4 must be bypassed at the cap.
                read(2, 0),
                read(4, 0),
                // Push t0 over its table quota: shared-scope eviction can
                // fully drain a partition (a quota-driven exit).
                read(2, 1),
                read(2, 2),
                // Uncapped-table traffic forces capacity evictions too.
                read(1, 0),
                read(3, 0),
                read(5, 0),
                // Corruption eviction: the fault below marks p0's page 0
                // bad; this read detects, evicts, and refetches it.
                read(0, 0),
                // Operator purge exits p2 outright; p4 can then admit.
                Op::PurgeScope { file: 2 },
                read(4, 0),
                read(4, 1),
                // TTL: everything expires, every slot must come back.
                Op::AdvanceClock { millis: 61_000 },
                Op::EvictExpired,
                read(0, 0),
                read(2, 3),
                // Crash restart: the rebuilt stack re-learns slots from
                // recovered residency, then keeps serving.
                Op::CrashRestart,
                read(4, 2),
                read(0, 1),
                Op::DeleteFile { file: 0 },
                read(2, 0),
            ],
            faults: vec![FaultEvent {
                at: 10,
                fault: Fault::CorruptPage { file: 0, page: 0 },
            }],
        };
        let a = run_scenario(&sc);
        assert!(
            a.ok(),
            "violations: {:?}\ntrace: {:#?}",
            a.violations,
            a.trace
        );
        assert!(a.epochs >= 2, "the crash restart must split epochs");
        assert!(
            a.trace.iter().any(|l| l.contains("purged")),
            "purge op missing from trace"
        );
        // Slots cycled: the ledger observed partition exits and re-entries.
        assert!(
            a.final_metrics_json.contains("ledger.enters"),
            "ledger counters missing from metrics: {}",
            a.final_metrics_json
        );
        let b = run_scenario(&sc);
        assert_eq!(a.trace, b.trace, "hand-built scenario diverged");
        assert_eq!(a.final_metrics_json, b.final_metrics_json);
    }

    /// Last value of counter `name` on an `epoch N end:` trace line.
    fn epoch_counter(trace: &[String], name: &str) -> u64 {
        let needle = format!(" {name}=");
        trace
            .iter()
            .rev()
            .filter(|l| l.contains(" end: "))
            .find_map(|l| {
                let p = l.find(&needle)?;
                l[p + needle.len()..]
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
            .unwrap_or(0)
    }

    #[test]
    fn memory_pressure_window_demotes_and_restores() {
        use crate::scenario::{Fault, FaultEvent};

        // A hand-built three-tier scenario: warm the DRAM tier (publishes
        // land on SSD; a page's second SSD hit promotes it), serve memory
        // hits, shrink the tier under a pressure window (frames must demote
        // to SSD, never drop), keep reading through the window (a demoted
        // page's second fresh SSD hit promotes it back, churning against the
        // shrunk budget), then let the window expire and verify the tier
        // refills. The conservation oracle re-balances the tier's books
        // after every op.
        let page = 4096u64;
        let read = |file: u32, idx: u64| Op::Read {
            file,
            offset: idx * page,
            len: page,
        };
        // Warm the DRAM tier to its 4-page budget: miss, SSD hit, promote.
        let mut ops: Vec<Op> = (0..3).flat_map(|_| (0..4).map(|i| read(0, i))).collect();
        ops.extend([
            // Pure memory hits.
            read(0, 0),
            read(0, 1),
            // The fault below fires here: capacity drops to one page,
            // demoting three frames. Reads through the window hit SSD;
            // a second fresh hit promotes against the shrunk budget.
            read(0, 2),
            read(0, 2),
            read(0, 3),
            read(1, 0),
            // Window expired: full budget back, promotions refill the tier.
            read(0, 3),
            read(1, 1),
            read(0, 2),
        ]);
        let sc = Scenario {
            seed: 777,
            profile: Profile::Smoke,
            backend: Backend::Memory,
            topology: Topology::Direct,
            page_size: page,
            cache_capacity: 64 * page,
            files: 2,
            file_len: 8 * page,
            quota: None,
            partition_quota: None,
            max_cached_partitions: None,
            memory_capacity: Some(4 * page),
            sabotage_after: None,
            ops,
            faults: vec![FaultEvent {
                at: 14,
                fault: Fault::MemPressure {
                    bytes: page,
                    ops: 4,
                },
            }],
        };
        let a = run_scenario(&sc);
        assert!(
            a.ok(),
            "violations: {:?}\ntrace: {:#?}",
            a.violations,
            a.trace
        );
        assert!(
            epoch_counter(&a.trace, "mem.hits") >= 2,
            "memory hits missing: {:#?}",
            a.trace
        );
        assert!(
            epoch_counter(&a.trace, "mem.demotions") >= 3,
            "the pressure window must demote: {:#?}",
            a.trace
        );
        assert!(
            epoch_counter(&a.trace, "mem.promotions") >= 6,
            "the warm-up and the second SSD hits around the window must promote: {:#?}",
            a.trace
        );
        assert_eq!(
            epoch_counter(&a.trace, "mem.evictions"),
            0,
            "pressure must demote, never drop: {:#?}",
            a.trace
        );
        let b = run_scenario(&sc);
        assert_eq!(a.trace, b.trace, "three-tier scenario diverged");
        assert_eq!(a.final_metrics_json, b.final_metrics_json);
        assert_eq!(a.span_records, b.span_records, "spans diverged");
    }

    #[test]
    fn memory_tier_torture_seeds_stay_conserved() {
        // Generated tiered seeds: every one carries 1-2 pressure windows,
        // and the three-tier conservation oracle runs after every op.
        // Torture seeds add crash restarts (DRAM recovers empty) on top.
        let mut ran = 0usize;
        for seed in 0..48u64 {
            let sc = Scenario::generate(seed, Profile::Torture);
            if sc.memory_capacity.is_none() {
                continue;
            }
            assert!(
                sc.faults
                    .iter()
                    .any(|f| matches!(f.fault, Fault::MemPressure { .. })),
                "seed {seed}: tiered scenario without a pressure window"
            );
            let a = run_scenario(&sc);
            assert!(a.ok(), "seed {seed} violations: {:?}", a.violations);
            let b = run_scenario(&sc);
            assert_eq!(a.trace, b.trace, "seed {seed} diverged");
            ran += 1;
            if ran == 4 {
                break;
            }
        }
        assert!(ran >= 2, "too few tiered Torture seeds in 0..48: {ran}");
    }

    #[test]
    fn torture_seed_with_crashes_recovers() {
        // An odd seed on the torture profile: Local backend, crash points
        // armed. The run must stay oracle-clean through restarts.
        let sc = Scenario::generate(9, Profile::Torture);
        assert_eq!(sc.backend, Backend::Local);
        let report = run_scenario(&sc);
        assert!(report.ok(), "violations: {:?}", report.violations);
    }
}
