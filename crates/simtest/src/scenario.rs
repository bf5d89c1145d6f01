//! Seeded scenario generation: a single `u64` seed expands into a complete
//! torture scenario — stack shape, workload operations, and a layered fault
//! schedule — via the workspace's deterministic RNG and workload samplers.
//!
//! The expansion is a pure function of `(seed, profile)`, so a failing seed
//! printed by the harness is a complete reproducer. The shrinker
//! ([`crate::shrink`]) operates on the expanded [`Scenario`] (op and fault
//! lists), which `Debug`-renders as copy-pasteable Rust literals.

use edgecache_pagestore::CrashSite;
use edgecache_workload::fragread::FragmentedReadSampler;
use edgecache_workload::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sweep profile: how hard the generated scenarios push the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Short runs, light fault schedule; bounded for tier-1 CI.
    Smoke,
    /// Long runs, dense faults, crash/restart cycles; for scheduled sweeps.
    Torture,
    /// Multi-tenant churn: every seed gets a table quota, a partition
    /// quota, and a `maxCachedPartitions` cap, so quota eviction and
    /// admission-slot recycling run constantly. Direct topology only (the
    /// tier does not own scopes), crash/restart cycles on Local backends.
    Quota,
    /// Cluster membership churn: every seed runs the Tier topology with
    /// replicate-on-read, and the fault schedule is dominated by node
    /// stall/crash/join/degrade windows. The tier oracles run after every
    /// op: reads never fail while origin is healthy, a fully healthy
    /// cluster serves every read from a worker, and every read lands in
    /// exactly one outcome bucket.
    Cluster,
    /// Query-fragment result-cache coherence: every seed drives two OLAP
    /// engines sharing one catalog/store/clock — one with the result cache
    /// on, one shadow with it off — through a repeated-query mix
    /// interleaved with appends, rewrites, and partition drops. Oracles:
    /// rows are bit-identical between the engines after every query, the
    /// per-query split accounting partitions exactly, the scheduler's
    /// assignment counter reconciles at the end, and the cache's internal
    /// ledger stays consistent.
    Resultcache,
}

impl Profile {
    /// Parses `"smoke"` / `"torture"` / `"quota"` / `"cluster"` /
    /// `"resultcache"`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "smoke" => Some(Profile::Smoke),
            "torture" => Some(Profile::Torture),
            "quota" => Some(Profile::Quota),
            "cluster" => Some(Profile::Cluster),
            "resultcache" => Some(Profile::Resultcache),
            _ => None,
        }
    }
}

/// Which page-store backend the scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `FaultyStore<MemoryPageStore>` — fast, supports §8 store faults.
    Memory,
    /// `FaultyStore<LocalPageStore>` on a scratch directory — real on-disk
    /// layout, checksummed slot records, crash points, and restart recovery.
    Local,
}

/// Which stack the workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `CacheManager` reading through the simulated remote.
    Direct,
    /// A `DistCacheTier` (consistent ring of cache workers) over the
    /// simulated remote, with worker outages in the op stream.
    Tier,
}

/// One workload operation. Ops execute sequentially on the harness thread;
/// all concurrency lives inside the cache's own fetch pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read `len` bytes at `offset` of file `file` through the cache.
    Read { file: u32, offset: u64, len: u64 },
    /// Read several `(offset, len)` fragments of file `file` as one
    /// vectored cache call: misses across all fragments classify,
    /// coalesce, and fetch together. Fragments may overlap or repeat —
    /// the vectored path must serve each one independently.
    ReadMulti { file: u32, ranges: Vec<(u64, u64)> },
    /// Drop every cached page of file `file` (coordinated invalidation).
    DeleteFile { file: u32 },
    /// Purge file `file`'s whole partition scope through the cache manager
    /// (the operator purge path; exercises scope-exit slot release).
    PurgeScope { file: u32 },
    /// Advance the simulated clock (lets TTLs expire, stalls pass).
    AdvanceClock { millis: u64 },
    /// Run the TTL janitor's sweep once.
    EvictExpired,
    /// Kill the process mid-run and restart over the same directory
    /// (Local backend only; a no-op restart elsewhere).
    CrashRestart,
    /// Take a tier worker offline (Tier topology only).
    WorkerOffline { idx: u32 },
    /// Bring a tier worker back online (Tier topology only).
    WorkerOnline { idx: u32 },
    /// Run OLAP query shape `q` on the cached engine and the uncached
    /// shadow, comparing rows bit-for-bit (Resultcache profile only).
    OlapQuery { q: u8 },
    /// Append a fresh data file to a live fact partition.
    OlapAppend { p: u8 },
    /// Rewrite the first file of a live fact partition under a bumped
    /// version (compaction).
    OlapRewrite { p: u8 },
    /// Drop a live fact partition (skipped when only one remains).
    OlapDrop { p: u8 },
}

/// One fault, injected at an op boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Mark a cached page corrupt (checksum failure on next read).
    CorruptPage { file: u32, page: u64 },
    /// Shrink the simulated device capacity (puts fail with `NoSpace`).
    DeviceCapacity { bytes: u64 },
    /// Every `period`-th store read hangs for `millis` of virtual time.
    ReadHang { millis: u64, period: u64 },
    /// Remote requests fail with probability `percent`% for the next `ops`
    /// operations (decided per request content, so retries are stable).
    RemoteErrors { percent: u8, ops: u32 },
    /// Remote requests return truncated buffers with probability
    /// `percent`% for the next `ops` operations.
    RemoteShortReads { percent: u8, ops: u32 },
    /// Degrade the remote device model by `factor` for `millis` of virtual
    /// time (a `StallSchedule` window).
    RemoteStall { millis: u64, factor: u32 },
    /// Arm a crash point: the `skip`+1-th matching store operation leaves
    /// its half-effect on disk and fails as a process death.
    ArmCrash { site: CrashSite, skip: u64 },
    /// Shrink the DRAM tier to `bytes` for the next `ops` operations, then
    /// restore the scenario's configured memory capacity. Pressure must
    /// *demote* resident frames to SSD, never drop them — the three-tier
    /// conservation oracle holds throughout the window.
    MemPressure { bytes: u64, ops: u32 },
    /// Tier worker `idx` goes offline for the next `ops` operations, then
    /// returns (container bounce: its seat and data survive the lazy
    /// window). Tier topology only.
    NodeStall { idx: u32, ops: u32 },
    /// Tier worker `idx` crashes: its cached data is lost and its ring seat
    /// drops with no grace period; it rejoins cold after `restart_ops`
    /// operations. Tier topology only.
    NodeCrash { idx: u32, restart_ops: u32 },
    /// A brand-new worker (`idx` picks its name) joins the ring and warms
    /// lazily. Tier topology only.
    NodeJoin { idx: u32 },
    /// Tier worker `idx` stays online but errors every serve for the next
    /// `ops` operations (bad disk / wedged fetch path) — reads must fail
    /// over to the surviving replica or origin. Tier topology only.
    NodeDegraded { idx: u32, ops: u32 },
}

/// A fault scheduled before op index `at` (clamped to the op count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    pub at: usize,
    pub fault: Fault,
}

/// A fully expanded scenario: everything [`crate::runner::run_scenario`]
/// needs, with no residual randomness.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub seed: u64,
    pub profile: Profile,
    pub backend: Backend,
    pub topology: Topology,
    /// Cache page size in bytes.
    pub page_size: u64,
    /// Local cache capacity in bytes.
    pub cache_capacity: u64,
    /// Number of distinct remote files.
    pub files: u32,
    /// Length of each remote file in bytes.
    pub file_len: u64,
    /// Optional per-table quota in bytes (applied to table `t0`).
    pub quota: Option<u64>,
    /// Optional per-partition quota in bytes (applied to file 0's partition
    /// `p0`, nested under the `t0` table quota when both are set).
    pub partition_quota: Option<u64>,
    /// Optional `maxCachedPartitions` cap applied to every table (a
    /// `schema: sim, table: *` filter rule). Admission slots must recycle
    /// through every exit path for fresh partitions to keep caching.
    pub max_cached_partitions: Option<usize>,
    /// Optional DRAM tier capacity in bytes mounted above the SSD store
    /// (Direct topology only). `None` runs the classic two-level
    /// SSD → remote hierarchy; `Some` makes every read three-level and
    /// arms the cross-tier conservation oracles.
    pub memory_capacity: Option<u64>,
    /// After this many remote reads, the simulated remote starts returning
    /// a flipped byte — a deliberately planted bug that the byte-correctness
    /// oracle must catch (meta-test of the oracle + shrinker).
    pub sabotage_after: Option<u64>,
    pub ops: Vec<Op>,
    pub faults: Vec<FaultEvent>,
}

impl Scenario {
    /// Expands `(seed, profile)` into a scenario. Pure and deterministic.
    pub fn generate(seed: u64, profile: Profile) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x051b_7e57_0001);
        Self::generate_with(seed, profile, &mut rng)
    }

    fn generate_with(seed: u64, profile: Profile, rng: &mut StdRng) -> Self {
        if profile == Profile::Resultcache {
            return Self::generate_resultcache(seed, rng);
        }
        let page_size: u64 = *[2048u64, 4096, 8192]
            .get(rng.random_range(0usize..3))
            .unwrap();
        let pages_per_file: u64 = rng.random_range(8u64..=32);
        let file_len = page_size * pages_per_file - rng.random_range(0u64..page_size / 2);
        let files: u32 = rng.random_range(3u32..=8);
        // Capacity below the working set about half the time, so capacity
        // eviction is exercised; never below four pages.
        let total_pages = pages_per_file * files as u64;
        let cap_pages = rng.random_range((total_pages / 4).max(4)..=total_pages + 8);
        let cache_capacity = cap_pages * page_size;
        let quota = if profile == Profile::Quota {
            Some(rng.random_range(4u64..=8) * page_size)
        } else {
            rng.random_bool(0.5)
                .then(|| rng.random_range(3u64..=8) * page_size)
        };
        // A partition quota nested under the table quota, and an admission
        // cap over distinct partitions: always on for the Quota profile,
        // sampled in for the others so tier-1 sweeps cover them too.
        let partition_quota = if profile == Profile::Quota {
            Some(rng.random_range(2u64..=4) * page_size)
        } else {
            rng.random_bool(0.25)
                .then(|| rng.random_range(2u64..=4) * page_size)
        };
        let max_cached_partitions = if profile == Profile::Quota {
            Some(rng.random_range(1usize..=3))
        } else {
            rng.random_bool(0.4).then(|| rng.random_range(1usize..=3))
        };

        let backend = if seed % 2 == 1 {
            Backend::Local
        } else {
            Backend::Memory
        };
        let topology = if profile == Profile::Cluster
            || (!matches!(profile, Profile::Quota) && seed % 7 == 3)
        {
            Topology::Tier
        } else {
            Topology::Direct
        };
        // Mount a DRAM tier above the SSD store for most Direct seeds
        // (the Tier topology builds its own managers): between two pages
        // and half the SSD capacity, so promotion/demotion churn is
        // constant rather than a corner case.
        let memory_capacity = (topology == Topology::Direct && rng.random_bool(0.7))
            .then(|| rng.random_range(2u64..=(cap_pages / 2).max(2)) * page_size);

        let op_count = match profile {
            Profile::Smoke => 60,
            Profile::Torture => 400,
            Profile::Quota => 120,
            Profile::Cluster => 200,
            Profile::Resultcache => unreachable!("expanded by generate_resultcache"),
        };
        let ops = Self::gen_ops(
            rng, seed, profile, backend, topology, files, file_len, op_count,
        );
        let faults = Self::gen_faults(
            rng,
            profile,
            backend,
            topology,
            files,
            file_len / page_size,
            cache_capacity,
            memory_capacity,
            op_count,
        );

        Scenario {
            seed,
            profile,
            backend,
            topology,
            page_size,
            cache_capacity,
            files,
            file_len,
            quota,
            partition_quota,
            max_cached_partitions,
            memory_capacity,
            sabotage_after: None,
            ops,
            faults,
        }
    }

    /// Expands a Resultcache-profile scenario: a repeated-query mix (the
    /// dashboard shape from `edgecache_workload::repeatq`) interleaved with
    /// catalog churn. The runner owns its own OLAP stack, so the page-store
    /// fields are fixed and the fault schedule is empty.
    fn generate_resultcache(seed: u64, rng: &mut StdRng) -> Self {
        use edgecache_workload::repeatq::{BurstConfig, RepeatedQueryConfig, RepeatedQueryMix};
        let op_count = 120;
        let mut mix = RepeatedQueryMix::new(RepeatedQueryConfig {
            pool: 8,
            working_set: 5,
            rotate_every: 25,
            rotate_step: 1,
            zipf_exponent: 1.2,
            burst: Some(BurstConfig {
                every: 40,
                len: 10,
                hot_fraction: 0.9,
            }),
            seed: seed ^ 0x01a9,
        });
        let mut ops = Vec::with_capacity(op_count);
        for _ in 0..op_count {
            let roll: f64 = rng.random();
            let op = if roll < 0.70 {
                Op::OlapQuery {
                    q: mix.next_query() as u8,
                }
            } else if roll < 0.80 {
                Op::OlapAppend {
                    p: rng.random_range(0u8..4),
                }
            } else if roll < 0.88 {
                Op::OlapRewrite {
                    p: rng.random_range(0u8..4),
                }
            } else if roll < 0.93 {
                Op::OlapDrop {
                    p: rng.random_range(0u8..4),
                }
            } else {
                Op::AdvanceClock {
                    millis: rng.random_range(50u64..5_000),
                }
            };
            ops.push(op);
        }
        Scenario {
            seed,
            profile: Profile::Resultcache,
            backend: Backend::Memory,
            topology: Topology::Direct,
            page_size: 1024,
            cache_capacity: 64 * 1024 * 1024,
            files: 0,
            file_len: 0,
            quota: None,
            partition_quota: None,
            max_cached_partitions: None,
            memory_capacity: None,
            sabotage_after: None,
            ops,
            faults: Vec::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn gen_ops(
        rng: &mut StdRng,
        seed: u64,
        profile: Profile,
        backend: Backend,
        topology: Topology,
        files: u32,
        file_len: u64,
        op_count: usize,
    ) -> Vec<Op> {
        // Zipf-popular files, fragmented read sizes: the paper's workload
        // shape (§3), driven by the workload crate's samplers.
        let mut zipf = ZipfSampler::new(files as usize, 1.1, seed ^ 0xf11e);
        let mut frag = FragmentedReadSampler::paper_default(seed ^ 0xf7a6);
        let mut ops = Vec::with_capacity(op_count);
        for _ in 0..op_count {
            let roll: f64 = rng.random();
            let op = if roll < 0.62 {
                let file = zipf.sample() as u32;
                let len = frag.sample().clamp(1, file_len);
                let offset = rng.random_range(0..file_len);
                Op::Read { file, offset, len }
            } else if roll < 0.80 {
                // The vectored scan-path shape: a batch of fragments of one
                // popular file read as a single `read_multi` call.
                let file = zipf.sample() as u32;
                let count = rng.random_range(2usize..=6);
                let ranges = (0..count)
                    .map(|_| {
                        let len = frag.sample().clamp(1, file_len);
                        (rng.random_range(0..file_len), len)
                    })
                    .collect();
                Op::ReadMulti { file, ranges }
            } else if roll < 0.83 {
                Op::DeleteFile {
                    file: rng.random_range(0..files),
                }
            } else if roll < 0.86 {
                Op::PurgeScope {
                    file: rng.random_range(0..files),
                }
            } else if roll < 0.92 {
                Op::AdvanceClock {
                    millis: rng.random_range(50u64..20_000),
                }
            } else if roll < 0.96 {
                Op::EvictExpired
            } else if topology == Topology::Tier {
                let idx = rng.random_range(0u32..Self::tier_workers(profile) as u32);
                if rng.random_bool(0.5) {
                    Op::WorkerOffline { idx }
                } else {
                    Op::WorkerOnline { idx }
                }
            } else if matches!(profile, Profile::Torture | Profile::Quota)
                && backend == Backend::Local
            {
                Op::CrashRestart
            } else {
                Op::EvictExpired
            };
            ops.push(op);
        }
        ops
    }

    #[allow(clippy::too_many_arguments)]
    fn gen_faults(
        rng: &mut StdRng,
        profile: Profile,
        backend: Backend,
        topology: Topology,
        files: u32,
        pages_per_file: u64,
        cache_capacity: u64,
        memory_capacity: Option<u64>,
        op_count: usize,
    ) -> Vec<FaultEvent> {
        let fault_count = match profile {
            Profile::Smoke => rng.random_range(2usize..=4),
            Profile::Torture => rng.random_range(8usize..=16),
            Profile::Quota => rng.random_range(4usize..=8),
            Profile::Cluster => rng.random_range(6usize..=12),
            Profile::Resultcache => unreachable!("expanded by generate_resultcache"),
        };
        let workers = Self::tier_workers(profile) as u32;
        let mut faults = Vec::with_capacity(fault_count);
        for _ in 0..fault_count {
            let at = rng.random_range(0..op_count);
            // Cluster seeds lead with membership churn: stall, crash,
            // join, and degrade windows, with remote-level faults mixed in
            // so origin outages overlap node outages.
            if profile == Profile::Cluster && rng.random_bool(0.65) {
                let fault = match rng.random_range(0u32..100) {
                    0..=34 => Fault::NodeStall {
                        idx: rng.random_range(0..workers),
                        ops: rng.random_range(3u32..=20),
                    },
                    35..=59 => Fault::NodeCrash {
                        idx: rng.random_range(0..workers),
                        restart_ops: rng.random_range(5u32..=25),
                    },
                    60..=74 => Fault::NodeJoin {
                        idx: rng.random_range(0u32..3),
                    },
                    _ => Fault::NodeDegraded {
                        idx: rng.random_range(0..workers),
                        ops: rng.random_range(3u32..=15),
                    },
                };
                faults.push(FaultEvent { at, fault });
                continue;
            }
            let fault = match rng.random_range(0u32..100) {
                // Remote-level faults apply to every topology.
                0..=24 => Fault::RemoteErrors {
                    percent: rng.random_range(10u8..=60),
                    ops: rng.random_range(3u32..=10),
                },
                25..=39 => Fault::RemoteShortReads {
                    percent: rng.random_range(10u8..=50),
                    ops: rng.random_range(3u32..=10),
                },
                40..=59 => Fault::RemoteStall {
                    millis: rng.random_range(1_000u64..=60_000),
                    factor: rng.random_range(2u32..=20),
                },
                // Store-level faults only make sense on the Direct stack,
                // where the harness owns the page store.
                60..=74 if topology == Topology::Direct => Fault::CorruptPage {
                    file: rng.random_range(0..files),
                    page: rng.random_range(0..pages_per_file),
                },
                75..=84 if topology == Topology::Direct => Fault::DeviceCapacity {
                    bytes: rng.random_range(cache_capacity / 4..=cache_capacity),
                },
                85..=94 if topology == Topology::Direct => Fault::ReadHang {
                    millis: rng.random_range(100u64..=600_000),
                    period: rng.random_range(1u64..=5),
                },
                _ if backend == Backend::Local
                    && topology == Topology::Direct
                    && matches!(profile, Profile::Torture | Profile::Quota) =>
                {
                    let site = match rng.random_range(0u32..3) {
                        0 => CrashSite::PutTmpWritten,
                        1 => CrashSite::PutTornTail,
                        _ => CrashSite::DeleteTornTail,
                    };
                    Fault::ArmCrash {
                        site,
                        skip: rng.random_range(0u64..4),
                    }
                }
                _ => Fault::RemoteStall {
                    millis: rng.random_range(1_000u64..=60_000),
                    factor: rng.random_range(2u32..=20),
                },
            };
            faults.push(FaultEvent { at, fault });
        }
        if let Some(mem_cap) = memory_capacity {
            // Every seed with a DRAM tier gets memory-pressure windows:
            // shrink the tier hard for a stretch of ops, then restore. The
            // runner drives `set_memory_capacity`, and the three-tier
            // conservation oracles must hold throughout.
            for _ in 0..rng.random_range(1usize..=2) {
                let at = rng.random_range(0..op_count);
                faults.push(FaultEvent {
                    at,
                    fault: Fault::MemPressure {
                        bytes: rng.random_range(0..=mem_cap / 2),
                        ops: rng.random_range(3u32..=12),
                    },
                });
            }
        }
        faults.sort_by_key(|f| f.at);
        faults
    }

    /// Remote path of file index `i`.
    pub fn path_of(file: u32) -> String {
        format!("/sim/f{file}")
    }

    /// Initial worker count of the Tier topology for `profile` (the runner
    /// names them `cw0..cwN`; joined workers continue the sequence).
    pub fn tier_workers(profile: Profile) -> usize {
        match profile {
            Profile::Cluster => 4,
            _ => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            let a = Scenario::generate(seed, Profile::Smoke);
            let b = Scenario::generate(seed, Profile::Smoke);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
        }
    }

    #[test]
    fn profiles_differ_in_scale() {
        let smoke = Scenario::generate(7, Profile::Smoke);
        let torture = Scenario::generate(7, Profile::Torture);
        assert!(torture.ops.len() > smoke.ops.len() * 3);
        assert!(torture.faults.len() >= smoke.faults.len());
    }

    #[test]
    fn seeds_cover_both_backends_and_topologies() {
        let mut memory = 0;
        let mut local = 0;
        let mut tier = 0;
        for seed in 0..32 {
            let s = Scenario::generate(seed, Profile::Torture);
            match s.backend {
                Backend::Memory => memory += 1,
                Backend::Local => local += 1,
            }
            if s.topology == Topology::Tier {
                tier += 1;
            }
        }
        assert!(memory > 0 && local > 0 && tier > 0);
    }

    #[test]
    fn vectored_reads_ride_the_op_stream() {
        let mut batches = 0usize;
        for seed in 0..8 {
            let s = Scenario::generate(seed, Profile::Smoke);
            for op in &s.ops {
                if let Op::ReadMulti { file, ranges } = op {
                    batches += 1;
                    assert!(*file < s.files);
                    assert!((2..=6).contains(&ranges.len()), "{ranges:?}");
                    for &(offset, len) in ranges {
                        assert!(offset < s.file_len);
                        assert!(len >= 1);
                    }
                }
            }
        }
        assert!(batches > 0, "the generator must emit vectored batches");
    }

    #[test]
    fn quota_profile_always_constrains_tenancy() {
        for seed in 0..16 {
            let s = Scenario::generate(seed, Profile::Quota);
            assert_eq!(s.topology, Topology::Direct, "seed {seed}");
            assert!(s.quota.is_some(), "seed {seed} lacks a table quota");
            assert!(
                s.partition_quota.is_some(),
                "seed {seed} lacks a partition quota"
            );
            assert!(
                s.max_cached_partitions.is_some(),
                "seed {seed} lacks an admission cap"
            );
            assert!(
                s.ops
                    .iter()
                    .any(|op| matches!(op, Op::PurgeScope { .. } | Op::DeleteFile { .. })),
                "seed {seed} has no churn ops"
            );
        }
    }

    #[test]
    fn memory_tiers_ride_most_direct_seeds_with_pressure_windows() {
        let mut tiered = 0;
        let mut flat = 0;
        for seed in 0..32 {
            let s = Scenario::generate(seed, Profile::Torture);
            match s.memory_capacity {
                Some(cap) => {
                    tiered += 1;
                    assert_eq!(s.topology, Topology::Direct, "seed {seed}");
                    assert!(cap >= 2 * s.page_size, "seed {seed}: tier below two pages");
                    assert!(
                        s.faults
                            .iter()
                            .any(|f| matches!(f.fault, Fault::MemPressure { .. })),
                        "seed {seed}: tiered scenario lacks a pressure window"
                    );
                    for f in &s.faults {
                        if let Fault::MemPressure { bytes, ops } = f.fault {
                            assert!(bytes <= cap / 2, "seed {seed}: pressure must shrink");
                            assert!(ops >= 1);
                        }
                    }
                }
                None => {
                    flat += 1;
                    assert!(
                        !s.faults
                            .iter()
                            .any(|f| matches!(f.fault, Fault::MemPressure { .. })),
                        "seed {seed}: pressure window without a tier"
                    );
                }
            }
        }
        assert!(tiered > 0, "no seed mounted a DRAM tier");
        assert!(flat > 0, "no seed kept the two-level hierarchy");
    }

    #[test]
    fn cluster_profile_always_churns_the_tier() {
        let mut stalls = 0;
        let mut crashes = 0;
        let mut joins = 0;
        let mut degrades = 0;
        for seed in 0..16 {
            let s = Scenario::generate(seed, Profile::Cluster);
            assert_eq!(s.topology, Topology::Tier, "seed {seed}");
            let node_faults = s
                .faults
                .iter()
                .filter(|f| {
                    matches!(
                        f.fault,
                        Fault::NodeStall { .. }
                            | Fault::NodeCrash { .. }
                            | Fault::NodeJoin { .. }
                            | Fault::NodeDegraded { .. }
                    )
                })
                .count();
            assert!(node_faults > 0, "seed {seed} has no membership churn");
            for f in &s.faults {
                match f.fault {
                    Fault::NodeStall { idx, ops } => {
                        stalls += 1;
                        assert!(idx < 4 && ops >= 1);
                    }
                    Fault::NodeCrash { idx, restart_ops } => {
                        crashes += 1;
                        assert!(idx < 4 && restart_ops >= 1);
                    }
                    Fault::NodeJoin { .. } => joins += 1,
                    Fault::NodeDegraded { idx, ops } => {
                        degrades += 1;
                        assert!(idx < 4 && ops >= 1);
                    }
                    _ => {}
                }
            }
        }
        assert!(
            stalls > 0 && crashes > 0 && joins > 0 && degrades > 0,
            "16 seeds must cover every churn kind: \
             stalls={stalls} crashes={crashes} joins={joins} degrades={degrades}"
        );
    }

    #[test]
    fn node_faults_never_ride_non_cluster_profiles() {
        for profile in [Profile::Smoke, Profile::Torture, Profile::Quota] {
            for seed in 0..12 {
                let s = Scenario::generate(seed, profile);
                assert!(
                    !s.faults.iter().any(|f| matches!(
                        f.fault,
                        Fault::NodeStall { .. }
                            | Fault::NodeCrash { .. }
                            | Fault::NodeJoin { .. }
                            | Fault::NodeDegraded { .. }
                    )),
                    "{profile:?} seed {seed} generated a node fault"
                );
            }
        }
    }

    #[test]
    fn resultcache_profile_mixes_repeats_with_churn() {
        for seed in 0..16 {
            let s = Scenario::generate(seed, Profile::Resultcache);
            assert!(s.faults.is_empty(), "seed {seed}: runner owns its stack");
            assert_eq!(s.ops.len(), 120);
            let queries = s
                .ops
                .iter()
                .filter(|op| matches!(op, Op::OlapQuery { .. }))
                .count();
            let churn = s
                .ops
                .iter()
                .filter(|op| {
                    matches!(
                        op,
                        Op::OlapAppend { .. } | Op::OlapRewrite { .. } | Op::OlapDrop { .. }
                    )
                })
                .count();
            assert!(queries > s.ops.len() / 2, "seed {seed}: queries dominate");
            assert!(churn > 0, "seed {seed}: no churn");
            for op in &s.ops {
                if let Op::OlapQuery { q } = op {
                    assert!(*q < 8, "seed {seed}: query shape out of pool");
                }
            }
            // Repeats exist: far fewer distinct shapes than query draws.
            let distinct: std::collections::HashSet<u8> = s
                .ops
                .iter()
                .filter_map(|op| match op {
                    Op::OlapQuery { q } => Some(*q),
                    _ => None,
                })
                .collect();
            assert!(distinct.len() <= 8 && queries > distinct.len() * 2);
        }
        // Determinism of the expansion.
        let a = Scenario::generate(3, Profile::Resultcache);
        let b = Scenario::generate(3, Profile::Resultcache);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn olap_ops_never_ride_other_profiles() {
        for profile in [
            Profile::Smoke,
            Profile::Torture,
            Profile::Quota,
            Profile::Cluster,
        ] {
            for seed in 0..8 {
                let s = Scenario::generate(seed, profile);
                assert!(
                    !s.ops.iter().any(|op| matches!(
                        op,
                        Op::OlapQuery { .. }
                            | Op::OlapAppend { .. }
                            | Op::OlapRewrite { .. }
                            | Op::OlapDrop { .. }
                    )),
                    "{profile:?} seed {seed} generated an OLAP op"
                );
            }
        }
    }

    #[test]
    fn faults_arrive_sorted_and_in_range() {
        let s = Scenario::generate(11, Profile::Torture);
        let mut last = 0;
        for f in &s.faults {
            assert!(f.at >= last);
            assert!(f.at < s.ops.len());
            last = f.at;
        }
    }
}
