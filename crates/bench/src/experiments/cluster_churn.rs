//! **Cluster churn** — hit rate and p99 read latency through a rolling
//! restart of the distributed cache tier.
//!
//! The tier's churn-survival story (§7) has three legs: offline workers are
//! *skipped* (seat kept for the lazy window), erroring workers *fail over*
//! to the next replica, and `replicate_on_read` keeps that next replica
//! warm so failover serves hits instead of origin misses. This experiment
//! measures all three on simulated time, so every number is deterministic
//! and `bench cluster_churn --check` compares `BENCH_cluster.json` byte for
//! byte.
//!
//! Two arms (replication off / on) each run three phases over a Zipf
//! workload against a 4-worker tier:
//!
//! * `steady` — fully warm cluster, no faults.
//! * `restart` — a rolling restart: each worker in turn goes offline for a
//!   window of reads, then returns (its seat and cache survive the lazy
//!   window, exactly the containerized-restart case the paper optimizes).
//! * `degraded` — each worker in turn errors every serve for a window (bad
//!   disk, wedged fetch path), exercising error failover.
//!
//! Latency is modeled, not measured: a tier hop costs [`HOP_US`], each
//! failed worker attempt adds [`RETRY_US`], and any read whose serve path
//! touches origin adds [`ORIGIN_US`]. Replica warm-ups also fetch from
//! origin but are charged to the `origin reads` column, not to the read's
//! user-visible latency (a real deployment warms off the critical path).
//! A "hit" is a read served from some worker's warm cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use edgecache_common::clock::SimClock;
use edgecache_common::ByteSize;
use edgecache_core::manager::{RemoteSource, SourceFile};
use edgecache_distcache::tier::{DistCacheTier, TierConfig};
use edgecache_distcache::worker::WorkerCacheConfig;
use edgecache_pagestore::CacheScope;
use edgecache_workload::zipf::ZipfSampler;
use serde_json::Value;

use crate::report::{num_f, num_u, obj, Artifact, Check, ExperimentReport, TextTable};

/// Workers in the tier; the rolling restart cycles through all of them.
const WORKERS: usize = 4;
/// 4 KiB pages, a few per file.
const PAGE: u64 = 4096;
const PAGES_PER_FILE: u64 = 4;
/// Modeled cost of a tier hop (route + worker serve from warm cache).
const HOP_US: u64 = 150;
/// Modeled cost of one failed worker attempt before failing over.
const RETRY_US: u64 = 300;
/// Modeled cost of an origin fetch on the serve path (cold fill or
/// cache-bypassing fallback).
const ORIGIN_US: u64 = 2_000;

/// Serves deterministic bytes for any path and counts requests.
struct CountingOrigin {
    reads: AtomicU64,
}

impl CountingOrigin {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            reads: AtomicU64::new(0),
        })
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl RemoteSource for CountingOrigin {
    fn read(&self, path: &str, offset: u64, len: u64) -> edgecache_common::Result<Bytes> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let seed = path.len() as u64;
        Ok(Bytes::from(
            (offset..offset + len)
                .map(|i| (i.wrapping_add(seed) % 251) as u8)
                .collect::<Vec<u8>>(),
        ))
    }
}

/// Per-phase measurements, aggregated from per-read latency samples and
/// tier counter deltas.
#[derive(Debug, Clone)]
struct PhaseStats {
    reads: u64,
    hits: u64,
    mean_us: f64,
    p99_us: u64,
    origin_reads: u64,
    worker_errors: u64,
    failover_reads: u64,
    failed_reads: u64,
}

impl PhaseStats {
    fn hit_rate(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.hits as f64 / self.reads as f64
    }
}

struct Bench {
    tier: DistCacheTier,
    origin: Arc<CountingOrigin>,
    zipf: ZipfSampler,
    files: Vec<SourceFile>,
    reads_done: u64,
}

impl Bench {
    fn new(replicate_on_read: bool, files: usize) -> Self {
        let clock = SimClock::new();
        let origin = CountingOrigin::new();
        let tier = DistCacheTier::new(
            TierConfig {
                workers: WORKERS,
                max_replicas: 2,
                replicate_on_read,
                worker: WorkerCacheConfig {
                    cache_capacity: ByteSize::mib(64).as_u64(),
                    page_size: ByteSize::new(PAGE),
                    max_inflight: 64,
                },
                ring: Default::default(),
            },
            origin.clone(),
            Arc::new(clock.clone()),
        )
        .expect("tier builds");
        let file_set: Vec<SourceFile> = (0..files)
            .map(|i| {
                SourceFile::new(
                    format!("/wh/churn/f{i}"),
                    1,
                    PAGES_PER_FILE * PAGE,
                    CacheScope::Global,
                )
            })
            .collect();
        Self {
            tier,
            origin,
            // Zipf 0.99 (the YCSB default): skewed but with enough tail
            // coverage that a restart window touches many displaced pages.
            zipf: ZipfSampler::new(files, 0.99, 42),
            files: file_set,
            reads_done: 0,
        }
    }

    /// Total warm-cache hits across every worker in the tier.
    fn worker_hits(&self) -> u64 {
        self.tier
            .worker_names()
            .iter()
            .filter_map(|w| self.tier.worker(w))
            .map(|w| w.cache().stats().hits)
            .sum()
    }

    /// Reads one Zipf-sampled page through the tier and returns
    /// (was a warm hit, modeled latency in µs).
    fn read_one(&mut self) -> (bool, u64) {
        let file = &self.files[self.zipf.sample()];
        let page = self.reads_done % PAGES_PER_FILE;
        self.reads_done += 1;

        let stats_before = self.tier.stats();
        let hits_before = self.worker_hits();
        self.tier
            .read(file, page * PAGE, PAGE)
            .expect("bench reads never fail: the cluster always has a healthy path");
        let stats_after = self.tier.stats();

        let hit = self.worker_hits() > hits_before;
        let retries = stats_after.worker_errors - stats_before.worker_errors;
        let fallback = stats_after.origin_fallbacks > stats_before.origin_fallbacks;
        // Origin charges on the *serve* path only: a fallback bypasses the
        // tier, a tier serve without a warm hit is a cold fill. Replica
        // warm-up fetches are deliberately excluded (off the critical path).
        let origin_us = if fallback || !hit { ORIGIN_US } else { 0 };
        (hit, HOP_US + retries * RETRY_US + origin_us)
    }

    /// Runs `reads` reads with `fault` applied around each worker in turn:
    /// the worker list is cycled once, each worker faulted for an equal
    /// window of reads, then healed before the next window.
    fn run_phase(&mut self, reads: u64, fault: Fault) -> PhaseStats {
        let before = self.tier.stats();
        let origin_before = self.origin.reads();
        let mut latencies = Vec::with_capacity(reads as usize);
        let mut hits = 0u64;

        let workers = self.tier.worker_names();
        let windows: Vec<&str> = match fault {
            Fault::None => vec![""],
            Fault::Offline | Fault::Degraded => workers.iter().map(String::as_str).collect(),
        };
        let per_window = reads / windows.len() as u64;
        for target in windows {
            match fault {
                Fault::None => {}
                Fault::Offline => self.tier.worker_offline(target),
                Fault::Degraded => {
                    self.tier.worker(target).expect("known").set_failing(true);
                }
            }
            for _ in 0..per_window {
                let (hit, lat) = self.read_one();
                hits += hit as u64;
                latencies.push(lat);
            }
            match fault {
                Fault::None => {}
                Fault::Offline => self.tier.worker_online(target),
                Fault::Degraded => {
                    self.tier.worker(target).expect("known").set_failing(false);
                }
            }
        }

        let after = self.tier.stats();
        let n = latencies.len() as u64;
        let mean = latencies.iter().sum::<u64>() as f64 / n.max(1) as f64;
        latencies.sort_unstable();
        let p99 = latencies
            .get(((n as f64 * 0.99).ceil() as usize).saturating_sub(1))
            .copied()
            .unwrap_or(0);
        PhaseStats {
            reads: n,
            hits,
            mean_us: mean,
            p99_us: p99,
            origin_reads: self.origin.reads() - origin_before,
            worker_errors: after.worker_errors - before.worker_errors,
            failover_reads: after.failover_reads - before.failover_reads,
            failed_reads: after.failed_reads - before.failed_reads,
        }
    }
}

#[derive(Clone, Copy)]
enum Fault {
    None,
    Offline,
    Degraded,
}

/// Builds a fully warmed tier: every page read once. With replication on
/// this also warms every page's second replica (replicate-on-read fires on
/// each primary serve).
fn build_warm(replicate: bool, files: usize) -> Bench {
    let bench = Bench::new(replicate, files);
    for i in 0..bench.files.len() {
        for page in 0..PAGES_PER_FILE {
            let file = bench.files[i].clone();
            bench.tier.read(&file, page * PAGE, PAGE).expect("warmup");
        }
    }
    bench
}

/// One arm: steady / restart / degraded, each phase on a freshly warmed
/// tier so one fault window's cold fills don't pre-warm the next phase's
/// secondaries (the phases answer independent questions).
fn simulate(replicate: bool, files: usize, steady: u64, per_phase: u64) -> [PhaseStats; 3] {
    [
        build_warm(replicate, files).run_phase(steady, Fault::None),
        build_warm(replicate, files).run_phase(per_phase, Fault::Offline),
        build_warm(replicate, files).run_phase(per_phase, Fault::Degraded),
    ]
}

const PHASES: [&str; 3] = ["steady", "restart", "degraded"];

/// Runs the churn sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "cluster_churn",
        "Cluster churn: hit rate and p99 through rolling restart and degraded windows (§7)",
    );
    let (files, steady, per_phase) = if quick {
        (32, 1_600, 1_200)
    } else {
        (64, 8_000, 4_800)
    };
    let plain = simulate(false, files, steady, per_phase);
    let replicated = simulate(true, files, steady, per_phase);

    report.table = TextTable::new(&[
        "arm",
        "phase",
        "reads",
        "hit rate",
        "mean µs",
        "p99 µs",
        "origin reads",
        "worker errs",
        "failovers",
        "failed",
    ]);
    let mut cells = Vec::new();
    for (arm, phases) in [
        ("no-replication", &plain),
        ("replicate-on-read", &replicated),
    ] {
        for (phase, s) in PHASES.iter().zip(phases.iter()) {
            report.table.row(vec![
                arm.into(),
                (*phase).into(),
                s.reads.to_string(),
                format!("{:.4}", s.hit_rate()),
                format!("{:.1}", s.mean_us),
                s.p99_us.to_string(),
                s.origin_reads.to_string(),
                s.worker_errors.to_string(),
                s.failover_reads.to_string(),
                s.failed_reads.to_string(),
            ]);
            cells.push(obj(vec![
                ("arm", Value::String(arm.into())),
                ("phase", Value::String((*phase).into())),
                ("reads", num_u(s.reads)),
                ("hit_rate", num_f(s.hit_rate())),
                ("mean_us", num_f(s.mean_us)),
                ("p99_us", num_u(s.p99_us)),
                ("origin_reads", num_u(s.origin_reads)),
                ("worker_errors", num_u(s.worker_errors)),
                ("failover_reads", num_u(s.failover_reads)),
                ("failed_reads", num_u(s.failed_reads)),
            ]));
        }
    }

    let failed: u64 = plain
        .iter()
        .chain(replicated.iter())
        .map(|s| s.failed_reads)
        .sum();
    report.checks.push(Check::new(
        "no read fails through churn",
        "0 failed reads across all phases of both arms",
        format!("{failed}"),
        failed == 0,
    ));
    report.checks.push(Check::new(
        "replication holds the hit rate through a rolling restart",
        "restart hit rate ≥ 0.995",
        format!("{:.4}", replicated[1].hit_rate()),
        replicated[1].hit_rate() >= 0.995,
    ));
    report.checks.push(Check::new(
        "cold secondaries pay origin misses without replication",
        "no-replication restart hit rate below replicated arm",
        format!(
            "{:.4} vs {:.4}",
            plain[1].hit_rate(),
            replicated[1].hit_rate()
        ),
        plain[1].hit_rate() < replicated[1].hit_rate(),
    ));
    report.checks.push(Check::new(
        "replication bounds p99 during the restart",
        "replicated p99 below no-replication p99",
        format!("{} vs {} µs", replicated[1].p99_us, plain[1].p99_us),
        replicated[1].p99_us < plain[1].p99_us,
    ));
    let failover_works = [&plain[2], &replicated[2]]
        .iter()
        .all(|s| s.worker_errors > 0 && s.failover_reads > 0 && s.failed_reads == 0);
    report.checks.push(Check::new(
        "error failover absorbs degraded primaries",
        "worker errors > 0, failovers > 0, failed reads = 0 in both arms",
        format!(
            "errs {}+{}, failovers {}+{}",
            plain[2].worker_errors,
            replicated[2].worker_errors,
            plain[2].failover_reads,
            replicated[2].failover_reads
        ),
        failover_works,
    ));
    report.checks.push(Check::new(
        "replication turns degraded-window failovers into warm hits",
        "replicated p99 below no-replication p99 while a worker errors",
        format!("{} vs {} µs", replicated[2].p99_us, plain[2].p99_us),
        replicated[2].p99_us < plain[2].p99_us,
    ));

    report.notes.push(format!(
        "latency model: hop {HOP_US} µs, +{RETRY_US} µs per failed worker attempt, \
         +{ORIGIN_US} µs when the serve path touches origin; replica warm-up \
         fetches count as origin reads but not user latency"
    ));
    report.notes.push(
        "simulated time: fully deterministic, so CI diffs BENCH_cluster.json against the \
         committed baseline"
            .into(),
    );

    if !quick {
        let json = obj(vec![
            ("experiment", Value::String("cluster_churn".into())),
            (
                "config",
                obj(vec![
                    ("workers", num_u(WORKERS as u64)),
                    ("max_replicas", num_u(2)),
                    ("files", num_u(files as u64)),
                    ("pages_per_file", num_u(PAGES_PER_FILE)),
                    ("page_bytes", num_u(PAGE)),
                    ("zipf_exponent", num_f(0.99)),
                    ("steady_reads", num_u(steady)),
                    ("reads_per_fault_phase", num_u(per_phase)),
                ]),
            ),
            (
                "latency_model_us",
                obj(vec![
                    ("hop", num_u(HOP_US)),
                    ("retry", num_u(RETRY_US)),
                    ("origin", num_u(ORIGIN_US)),
                ]),
            ),
            ("cells", Value::Array(cells)),
        ]);
        report.artifact = Some(Artifact {
            file: "BENCH_cluster.json",
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
    fn steady_state_is_all_hits_once_warm() {
        let mut bench = build_warm(true, 16);
        let s = bench.run_phase(400, Fault::None);
        assert_eq!(s.hits, s.reads, "warm steady state never misses");
        assert_eq!(s.p99_us, HOP_US);
        assert_eq!(s.origin_reads, 0);
    }
}
