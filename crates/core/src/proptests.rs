//! Property tests for the scope lifecycle ledger: arbitrary sequences of
//! reads, deletes, purges, and TTL expiries must preserve the ledger
//! invariants after every operation — per-scope usage matches the index,
//! admitted partitions match live residency, and no scope exceeds its quota
//! once the dust settles.

#![cfg(test)]

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use edgecache_common::error::Result;
use edgecache_common::{ByteSize, SimClock};
use edgecache_pagestore::{CacheScope, MemoryPageStore};
use proptest::prelude::*;

use crate::admission::{FilterRule, FilterRuleAdmission, FilterRuleSet};
use crate::config::CacheConfig;
use crate::manager::{CacheManager, RemoteSource, SourceFile};

const PAGE: u64 = 64;
const FILES: u8 = 8;
const FILE_LEN: u64 = 4 * PAGE;
/// Partitions of table t0 may cache at most this many distinct partitions.
const CAP: usize = 2;

/// Nightly CI bumps the case count via this env var; local runs stay quick.
fn cases() -> u32 {
    std::env::var("EDGECACHE_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// Serves deterministic bytes for every path and offset.
struct PatternRemote;

impl RemoteSource for PatternRemote {
    fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let seed = path.len() as u64;
        Ok(Bytes::from(
            (offset..offset + len)
                .map(|i| (i.wrapping_add(seed) % 251) as u8)
                .collect::<Vec<u8>>(),
        ))
    }
}

fn scope_of(file: u8) -> CacheScope {
    CacheScope::partition("s", &format!("t{}", file % 2), &format!("p{file}"))
}

fn source_file(file: u8) -> SourceFile {
    SourceFile::new(format!("/f{file}"), 1, FILE_LEN, scope_of(file))
}

#[derive(Debug, Clone)]
enum Op {
    Read(u8, u8),
    DeleteFile(u8),
    PurgeScope(u8),
    Expire,
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..FILES, 0..4u8).prop_map(|(f, p)| Op::Read(f, p)),
        1 => (0..FILES).prop_map(Op::DeleteFile),
        1 => (0..FILES).prop_map(Op::PurgeScope),
        1 => Just(Op::Expire),
        1 => Just(Op::Clear),
    ]
}

struct Harness {
    cache: CacheManager,
    admission: Arc<FilterRuleAdmission>,
    clock: Arc<SimClock>,
}

fn harness() -> Harness {
    let admission = Arc::new(FilterRuleAdmission::new(FilterRuleSet {
        rules: vec![FilterRule {
            schema: "*".into(),
            table: "t0".into(),
            max_cached_partitions: Some(CAP),
        }],
        default_admit: true,
    }));
    let clock = Arc::new(SimClock::new());
    let cache = CacheManager::builder(
        CacheConfig::default()
            .with_page_size(ByteSize::new(PAGE))
            .with_ttl(Duration::from_secs(60)),
    )
    // Six pages of capacity over eight 4-page files: capacity evictions are
    // routine, not exceptional.
    .with_store(Arc::new(MemoryPageStore::new()), 6 * PAGE)
    .with_admission(Arc::clone(&admission) as Arc<dyn crate::AdmissionPolicy>)
    .with_quota(
        CacheScope::partition("s", "t0", "p0"),
        ByteSize::new(2 * PAGE),
    )
    .with_quota(CacheScope::table("s", "t0"), ByteSize::new(4 * PAGE))
    .with_clock(clock.clone())
    .build()
    .unwrap();
    Harness {
        cache,
        admission,
        clock,
    }
}

/// The ledger invariants checked after every operation.
fn check_invariants(h: &Harness) {
    // Per-scope ledger books ≡ index contents (and the index's own
    // aggregates): check_consistency cross-checks all three.
    if let Err(e) = h.cache.index().check_consistency() {
        panic!("index/ledger oracle: {e}");
    }
    // No scope exceeds its quota once an operation completes.
    for (scope, quota) in h.cache.quota().snapshot() {
        let used = h.cache.index().bytes_of_scope(&scope);
        prop_assert!(
            used <= quota.as_u64(),
            "scope {scope} holds {used} bytes over its quota {quota}"
        );
    }
    // Admitted partitions of the capped table ≡ partitions with live pages.
    let admitted: HashSet<String> = h
        .admission
        .admitted_snapshot()
        .get(&("s".to_string(), "t0".to_string()))
        .cloned()
        .unwrap_or_default();
    prop_assert!(admitted.len() <= CAP, "cap exceeded: {admitted:?}");
    let live: HashSet<String> = h
        .cache
        .index()
        .partitions_of_table("s", "t0")
        .into_iter()
        .filter_map(|s| match s {
            CacheScope::Partition { partition, .. } => Some(partition),
            _ => None,
        })
        .collect();
    prop_assert_eq!(
        &admitted,
        &live,
        "admission slots diverged from live residency"
    );
}

// ---------------------------------------------------------------------------
// Batched-drain equivalence: access events buffered through the lock-free
// AccessQueue and replayed at the next policy interaction must drive every
// eviction policy to the same victims as inline `on_access` calls, for any
// single-threaded history. (Concurrent histories are only batch-granular —
// this pins down the sequential baseline the hit path relies on.)
// ---------------------------------------------------------------------------

use crate::accessq::AccessQueue;
use crate::config::EvictionPolicyKind;
use crate::eviction::{build_policy, EvictionPolicy};
use edgecache_pagestore::{FileId, PageId};

#[derive(Debug, Clone, Copy)]
enum PolicyOp {
    Insert(u8),
    Access(u8),
    Remove(u8),
    Evict,
}

fn policy_op_strategy() -> impl Strategy<Value = PolicyOp> {
    prop_oneof![
        3 => (0..16u8).prop_map(PolicyOp::Insert),
        5 => (0..16u8).prop_map(PolicyOp::Access),
        1 => (0..16u8).prop_map(PolicyOp::Remove),
        2 => Just(PolicyOp::Evict),
    ]
}

fn pid(n: u8) -> PageId {
    PageId::new(FileId(7), u64::from(n))
}

/// Mirrors `PolicyCell::lock`: every policy interaction drains buffered
/// accesses (FIFO) before touching the policy.
fn drain(queue: &AccessQueue, policy: &mut Box<dyn EvictionPolicy>) {
    while let Some(id) = queue.pop() {
        policy.on_access(id);
    }
}

// ---------------------------------------------------------------------------
// Tier transparency: mounting a DRAM tier above the SSD store must be
// invisible to callers — same bytes for every read, same miss classification,
// and never more remote round trips than the flat two-level cache, for any
// op history and any eviction policy. The SSD capacity covers the whole
// working set so residency can only differ through the tier itself; a small
// memory budget keeps promote/demote churn constant.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum TierOp {
    Read(u8, u8),
    ReadMulti(u8, u8, u8),
    DeleteFile(u8),
}

fn tier_op_strategy() -> impl Strategy<Value = TierOp> {
    prop_oneof![
        6 => (0..FILES, 0..4u8).prop_map(|(f, p)| TierOp::Read(f, p)),
        3 => (0..FILES, 0..4u8, 0..4u8).prop_map(|(f, a, b)| TierOp::ReadMulti(f, a, b)),
        1 => (0..FILES).prop_map(TierOp::DeleteFile),
    ]
}

/// A cache whose SSD directory fits the entire working set; `mem` bytes of
/// DRAM tier on top (zero mounts none).
fn tier_cache(kind: EvictionPolicyKind, mem: u64) -> CacheManager {
    let mut config = CacheConfig::default()
        .with_page_size(ByteSize::new(PAGE))
        .with_eviction(kind);
    if mem > 0 {
        config = config.with_memory_tier(ByteSize::new(mem));
    }
    CacheManager::builder(config)
        .with_store(
            Arc::new(MemoryPageStore::new()),
            u64::from(FILES) * FILE_LEN,
        )
        .build()
        .unwrap()
}

/// The three-tier conservation balance, checked after every op: promotions
/// (the tier's only way in) equal counted exits plus current residency.
fn check_tier_books(tiered: &CacheManager) {
    tiered.index().check_consistency().expect("tiered index");
    tiered
        .check_policy_coherence()
        .expect("tiered policy coherence");
    let mem = tiered.memory_dir().expect("tier mounted");
    let m = tiered.metrics();
    let exits = m.counter("mem.demotions").get()
        + m.counter("mem.evictions").get()
        + m.counter("mem.replaced").get();
    assert_eq!(
        m.counter("mem.promotions").get(),
        exits + tiered.index().pages_of_dir(mem).len() as u64,
        "memory tier books out of balance"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn memory_tier_is_transparent(
        ops in proptest::collection::vec(tier_op_strategy(), 1..60),
    ) {
        for kind in [
            EvictionPolicyKind::Lru,
            EvictionPolicyKind::Fifo,
            EvictionPolicyKind::Random { seed: 11 },
            EvictionPolicyKind::Slru,
            EvictionPolicyKind::TwoQ,
        ] {
            let flat = tier_cache(kind, 0);
            let tiered = tier_cache(kind, 3 * PAGE);
            let remote = PatternRemote;
            for &op in &ops {
                match op {
                    TierOp::Read(f, p) => {
                        let sf = source_file(f);
                        let off = u64::from(p) * PAGE;
                        let a = flat.read(&sf, off, PAGE, &remote).unwrap();
                        let b = tiered.read(&sf, off, PAGE, &remote).unwrap();
                        prop_assert_eq!(&a, &b, "read bytes diverged ({kind:?})");
                    }
                    TierOp::ReadMulti(f, p, q) => {
                        let sf = source_file(f);
                        let ranges =
                            [(u64::from(p) * PAGE, PAGE), (u64::from(q) * PAGE, PAGE)];
                        let a = flat.read_multi(&sf, &ranges, &remote).unwrap();
                        let b = tiered.read_multi(&sf, &ranges, &remote).unwrap();
                        prop_assert_eq!(&a, &b, "vectored bytes diverged ({kind:?})");
                    }
                    TierOp::DeleteFile(f) => {
                        let a = flat.delete_file(source_file(f).file_id());
                        let b = tiered.delete_file(source_file(f).file_id());
                        prop_assert_eq!(a, b, "delete count diverged ({kind:?})");
                    }
                }
                // Residency must agree page-for-page in total, and the
                // tiered cache's books must balance after every op.
                prop_assert_eq!(
                    flat.index().total_bytes(),
                    tiered.index().total_bytes(),
                    "cached byte totals diverged ({kind:?})"
                );
                check_tier_books(&tiered);
            }
            // Same misses and never more remote round trips: the DRAM tier
            // may only absorb reads, not generate them.
            prop_assert_eq!(
                flat.metrics().counter("misses").get(),
                tiered.metrics().counter("misses").get(),
                "miss classification diverged ({kind:?})"
            );
            prop_assert!(
                tiered.metrics().counter("remote_requests").get()
                    <= flat.metrics().counter("remote_requests").get(),
                "the tier generated remote traffic ({kind:?})"
            );
        }
    }

    #[test]
    fn batched_drain_matches_inline_victims(
        ops in proptest::collection::vec(policy_op_strategy(), 1..120),
    ) {
        for kind in [
            EvictionPolicyKind::Lru,
            EvictionPolicyKind::Fifo,
            EvictionPolicyKind::Random { seed: 11 },
            EvictionPolicyKind::Slru,
            EvictionPolicyKind::TwoQ,
        ] {
            let mut inline = build_policy(kind);
            let mut batched = build_policy(kind);
            // Large enough that a sequential history never drops events; a
            // drop would be a legitimate divergence, not a model bug.
            let queue = AccessQueue::new(256);

            for &op in &ops {
                match op {
                    PolicyOp::Insert(n) => {
                        inline.on_insert(pid(n));
                        drain(&queue, &mut batched);
                        batched.on_insert(pid(n));
                    }
                    PolicyOp::Access(n) => {
                        inline.on_access(pid(n));
                        prop_assert!(queue.push(pid(n)), "queue sized for history");
                    }
                    PolicyOp::Remove(n) => {
                        inline.on_remove(pid(n));
                        drain(&queue, &mut batched);
                        batched.on_remove(pid(n));
                    }
                    PolicyOp::Evict => {
                        let a = inline.victim();
                        drain(&queue, &mut batched);
                        let b = batched.victim();
                        prop_assert_eq!(a, b, "victim diverged ({})", inline.name());
                        if let Some(v) = a {
                            inline.on_remove(v);
                            batched.on_remove(v);
                        }
                    }
                }
            }

            // Drain the tail and compare the full remaining victim sequence:
            // same set, same order.
            drain(&queue, &mut batched);
            prop_assert_eq!(inline.len(), batched.len(), "len diverged ({})", inline.name());
            loop {
                let a = inline.victim();
                let b = batched.victim();
                prop_assert_eq!(a, b, "tail victim diverged ({})", inline.name());
                match a {
                    Some(v) => {
                        inline.on_remove(v);
                        batched.on_remove(v);
                    }
                    None => break,
                }
            }
        }
    }

    #[test]
    fn ledger_invariants_hold_under_churn(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let h = harness();
        let remote = PatternRemote;
        for op in ops {
            match op {
                Op::Read(f, p) => {
                    let file = source_file(f);
                    h.cache.read(&file, u64::from(p) * PAGE, PAGE, &remote).unwrap();
                }
                Op::DeleteFile(f) => {
                    h.cache.delete_file(source_file(f).file_id());
                }
                Op::PurgeScope(f) => {
                    h.cache.delete_scope(&scope_of(f));
                }
                Op::Expire => {
                    h.clock.advance(Duration::from_secs(61));
                    h.cache.evict_expired();
                }
                Op::Clear => {
                    h.cache.clear();
                }
            }
            check_invariants(&h);
        }
    }
}
