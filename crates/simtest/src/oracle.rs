//! Invariant oracles: what must hold no matter what the fault schedule did.
//!
//! Three families of checks (§8 of the paper is, at heart, a list of ways
//! these were violated in production):
//!
//! * **Byte correctness** — every completed read returns exactly the ground
//!   truth bytes of the simulated remote, whatever mixture of cache hits,
//!   coalesced fetches, fallbacks, and recoveries produced them. Checked
//!   per-op by the runner via [`check_read`].
//! * **Conservation laws** — linear relations between metric counter deltas
//!   ([`cache_epoch_laws`]) checked over each "process lifetime" (epoch).
//! * **Accounting** — the index, the store, the allocator, and the quota
//!   manager must agree: no negative/over-budget usage, no orphaned bytes,
//!   no in-flight latches left behind ([`check_accounting`]).

use std::collections::{BTreeSet, HashSet};

use bytes::Bytes;
use edgecache_core::admission::FilterRuleAdmission;
use edgecache_core::manager::CacheManager;
use edgecache_distcache::tier::TierStats;
use edgecache_metrics::ConservationLaw;
use edgecache_pagestore::CacheScope;

/// One oracle violation, tied to the op that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the op during which the violation surfaced, if any.
    pub op: Option<usize>,
    /// Stable category, e.g. `byte-mismatch`, `conservation`, `quota`.
    pub kind: &'static str,
    /// Human-readable description with the values involved.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.op {
            Some(op) => write!(f, "[op {op}] {}: {}", self.kind, self.detail),
            None => write!(f, "[end] {}: {}", self.kind, self.detail),
        }
    }
}

/// The conservation laws of one cache epoch (one process lifetime, measured
/// on a registry that was fresh at epoch start).
///
/// `clean` means no read op returned an error this epoch: then every
/// classified page was fully served and the read balance is an equality.
/// A failed read legitimately abandons pages after they were counted in
/// `page_reads` (classification) but before they were served as a hit, so
/// epochs with errors only bound the balance from above.
pub fn cache_epoch_laws(clean: bool) -> Vec<ConservationLaw> {
    let mut laws = vec![
        ConservationLaw::at_most(
            "single-flight bounds remote requests",
            &["remote_requests"],
            &["misses", "fallbacks.timeout"],
        ),
        ConservationLaw::at_most("every put came from a miss", &["puts"], &["misses"]),
        ConservationLaw::at_most(
            "every eviction had an insertion",
            &["evictions.*"],
            &["puts", "recovered_pages"],
        ),
        ConservationLaw::at_most(
            "assembled bytes are bounded by requested bytes",
            &["bytes_copied"],
            &["bytes_requested"],
        ),
        ConservationLaw::at_most("hits are classified reads", &["hits"], &["page_reads"]),
        // Three-tier flow laws (all trivially 0 = 0 without a DRAM tier).
        // DRAM does not survive a restart, so within one epoch every
        // memory-resident frame entered via a promotion (publishes land on
        // SSD) — demotion can never outrun the entries.
        ConservationLaw::at_most(
            "every demotion had a memory entry",
            &["mem.demotions"],
            &["mem.promotions"],
        ),
        ConservationLaw::at_most(
            "every promotion was a served hit",
            &["mem.promotions"],
            &["hits"],
        ),
    ];
    if clean {
        laws.push(ConservationLaw::equal(
            "page reads balance",
            &["hits", "misses", "fallbacks.timeout"],
            &["page_reads"],
        ));
        // Second-touch admission: a promotion is a page's second SSD hit
        // since it entered SSD (recovery and every tier move restart the
        // count), and in a clean epoch each of those touches was served as
        // a hit or a timeout fallback. Counted twice on the left: 2 ×
        // promotions ≤ hits + fallbacks.
        laws.push(ConservationLaw::at_most(
            "every promotion took two SSD touches",
            &["mem.promotions", "mem.promotions"],
            &["hits", "fallbacks.timeout"],
        ));
    } else {
        laws.push(ConservationLaw::at_most(
            "page reads balance (lossy epoch)",
            &["hits", "misses", "fallbacks.timeout"],
            &["page_reads"],
        ));
    }
    laws
}

/// Byte-correctness check for one completed read.
pub fn check_read(op: usize, got: &Bytes, expected: &Bytes) -> Option<Violation> {
    if got == expected {
        return None;
    }
    let detail = if got.len() != expected.len() {
        format!(
            "read returned {} bytes, ground truth has {}",
            got.len(),
            expected.len()
        )
    } else {
        let first = got
            .iter()
            .zip(expected.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        format!(
            "read returned wrong bytes: first divergence at offset {first} (got {:#04x}, want {:#04x})",
            got[first], expected[first]
        )
    };
    Some(Violation {
        op: Some(op),
        kind: "byte-mismatch",
        detail,
    })
}

/// Per-op tier oracles, checked against the [`TierStats`] delta of one op.
///
/// * **Read conservation** — every tier read lands in exactly one outcome
///   bucket: `served_by_tier`, `origin_fallbacks`, or `failed_reads`; ops
///   that issue no read move none of them.
/// * **Cluster health (bounded degradation)** — while every known worker is
///   online, undegraded, and not awaiting a crash restart, and no remote
///   fault window is open, a read must be served by a worker: no origin
///   fallback and no failure. Hit-rate degradation is thereby structurally
///   confined to actual churn windows.
///
/// The companion no-failed-read-while-origin-healthy oracle runs inline in
/// the runner (it needs the error value), so a failed read with no remote
/// fault window open is reported there as `unexpected-error`.
pub fn check_tier_op(
    op: usize,
    reads: u64,
    prev: &TierStats,
    cur: &TierStats,
    cluster_healthy: bool,
    remote_faults_active: bool,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let served = cur.served_by_tier - prev.served_by_tier;
    let fallbacks = cur.origin_fallbacks - prev.origin_fallbacks;
    let failed = cur.failed_reads - prev.failed_reads;
    if served + fallbacks + failed != reads {
        out.push(Violation {
            op: Some(op),
            kind: "tier-conservation",
            detail: format!(
                "op issued {reads} read(s) but outcomes moved by \
                 served={served} + fallbacks={fallbacks} + failed={failed}"
            ),
        });
    }
    if cluster_healthy && !remote_faults_active && fallbacks + failed > 0 {
        out.push(Violation {
            op: Some(op),
            kind: "cluster-health",
            detail: format!(
                "fully healthy cluster let a read past the tier: \
                 fallbacks={fallbacks} failed={failed}"
            ),
        });
    }
    out
}

/// Structural accounting checks over a live manager, run after every op.
///
/// `store_index_agree` is false for the op window in which a simulated
/// crash fired: the store and index legitimately disagree until the
/// restart that immediately follows.
///
/// When the stack runs with a `maxCachedPartitions` admission policy,
/// `admission` adds the scope-lifecycle oracle: for every capped table, the
/// admitted-partition set must equal the set of partitions with live pages
/// (slots are neither leaked on eviction/purge/expiry/crash nor lost on
/// re-entry), and must never exceed the cap.
pub fn check_accounting(
    op: usize,
    cache: &CacheManager,
    store_index_agree: bool,
    admission: Option<&FilterRuleAdmission>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mk = |kind, detail| Violation {
        op: Some(op),
        kind,
        detail,
    };

    if cache.inflight_fetches() != 0 {
        out.push(mk(
            "latch-leak",
            format!(
                "{} in-flight fetch latches left after a completed op",
                cache.inflight_fetches()
            ),
        ));
    }
    if let Err(e) = cache.index().check_consistency() {
        out.push(mk("index-inconsistent", e));
    }
    // Batched recency must stay membership-neutral: draining deferred access
    // events (which `check_policy_coherence` does en route) may reorder a
    // policy's queue but never add or lose tracked pages, so policy
    // membership must equal index residency after every op. Because eviction
    // itself stays inline, this also means deferred updates cannot let
    // residency exceed capacity beyond the strict `over-capacity` bound
    // checked below — the batch introduces no extra slack.
    if let Err(e) = cache.check_policy_coherence() {
        out.push(mk("policy-incoherent", e));
    }
    for (dir, (store_bytes, index_bytes, capacity)) in cache.dir_usage().into_iter().enumerate() {
        if index_bytes > capacity {
            out.push(mk(
                "over-capacity",
                format!("dir {dir}: index accounts {index_bytes} B over capacity {capacity} B"),
            ));
        }
        if store_index_agree && store_bytes != index_bytes {
            out.push(mk(
                "store-index-drift",
                format!(
                    "dir {dir}: store holds {store_bytes} B but index accounts {index_bytes} B"
                ),
            ));
        }
    }
    // Three-tier conservation: every frame that ever entered the DRAM tier
    // (a promotion — its only way in) must either still be resident or have
    // left through a *counted* exit (demotion, eviction, refresh
    // replacement). DRAM recovers empty after a crash and each epoch gets a
    // fresh registry, so the books start balanced at every epoch boundary.
    // A silent drop — bytes leaving the hierarchy without demotion or a
    // remote-backed eviction — breaks the equality immediately.
    if let Some(mem) = cache.memory_dir() {
        let m = cache.metrics();
        let promotions = m.counter("mem.promotions").get();
        let exits = m.counter("mem.demotions").get()
            + m.counter("mem.evictions").get()
            + m.counter("mem.replaced").get();
        let resident = cache.index().pages_of_dir(mem).len() as u64;
        if promotions != exits + resident {
            out.push(mk(
                "mem-conservation",
                format!(
                    "memory tier books don't balance: {promotions} promotions \
                     vs {exits} counted exits (demotions + evictions + \
                     replaced) + {resident} resident"
                ),
            ));
        }
        // Memory residency must agree frame-for-frame between the store and
        // the index (byte agreement rides the store-index-drift check).
        if store_index_agree {
            if let Some(tier) = cache.memory_tier() {
                if tier.len() as u64 != resident {
                    out.push(mk(
                        "mem-residency-drift",
                        format!(
                            "memory store holds {} frames but the index accounts {resident}",
                            tier.len()
                        ),
                    ));
                }
            }
        }
    }
    for (scope, quota) in cache.quota().snapshot() {
        let used = cache.index().bytes_of_scope(&scope);
        if used > quota.as_u64() {
            out.push(mk(
                "quota-exceeded",
                format!(
                    "scope {scope}: {used} B cached over quota {} B",
                    quota.as_u64()
                ),
            ));
        }
    }
    if let Some(adm) = admission {
        let snapshot = adm.admitted_snapshot();
        // Check every table the policy tracks, plus every table with live
        // pages (a live-but-untracked table is exactly the drift we hunt).
        let mut tables: BTreeSet<(String, String)> = snapshot.keys().cloned().collect();
        for scope in cache.index().ledger().snapshot().into_keys() {
            if let CacheScope::Partition { schema, table, .. } = scope {
                tables.insert((schema, table));
            }
        }
        for (schema, table) in tables {
            let Some(cap) = adm.cap_for(&schema, &table) else {
                continue;
            };
            let admitted = snapshot
                .get(&(schema.clone(), table.clone()))
                .cloned()
                .unwrap_or_default();
            if admitted.len() > cap {
                out.push(mk(
                    "admission-over-cap",
                    format!(
                        "{schema}.{table}: {} admitted partitions over cap {cap}: {admitted:?}",
                        admitted.len()
                    ),
                ));
            }
            let live: HashSet<String> = cache
                .index()
                .partitions_of_table(&schema, &table)
                .into_iter()
                .filter_map(|s| match s {
                    CacheScope::Partition { partition, .. } => Some(partition),
                    _ => None,
                })
                .collect();
            if admitted != live {
                let leaked: Vec<&String> = admitted.difference(&live).collect();
                let lost: Vec<&String> = live.difference(&admitted).collect();
                out.push(mk(
                    "admission-drift",
                    format!(
                        "{schema}.{table}: slots held for evicted partitions {leaked:?}, \
                         live partitions missing slots {lost:?}"
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgecache_metrics::{assert_conserved, MetricRegistry, SnapshotDiff};

    #[test]
    fn clean_epoch_requires_exact_balance() {
        let m = MetricRegistry::new("t");
        m.counter("page_reads").add(10);
        m.counter("hits").add(4);
        m.counter("misses").add(5);
        let diff = SnapshotDiff::from_start(&m.snapshot());
        // One classified page was never served: clean laws reject, lossy
        // laws accept.
        assert!(assert_conserved(&diff, &cache_epoch_laws(true)).is_err());
        assert!(assert_conserved(&diff, &cache_epoch_laws(false)).is_ok());
        m.counter("fallbacks.timeout").inc();
        let diff = SnapshotDiff::from_start(&m.snapshot());
        assert!(assert_conserved(&diff, &cache_epoch_laws(true)).is_ok());
    }

    #[test]
    fn tier_op_oracle_catches_lost_and_leaked_outcomes() {
        let zero = TierStats {
            served_by_tier: 0,
            origin_fallbacks: 0,
            failed_reads: 0,
            worker_errors: 0,
            failover_reads: 0,
            replica_warms: 0,
            bytes_cached: 0,
        };
        let served = TierStats {
            served_by_tier: 1,
            ..zero.clone()
        };
        let fell_back = TierStats {
            origin_fallbacks: 1,
            ..zero.clone()
        };
        // A read that landed in exactly one bucket is clean.
        assert!(check_tier_op(0, 1, &zero, &served, true, false).is_empty());
        // A read with no outcome (the pre-failover bug shape: an error
        // propagated without being counted) violates conservation.
        let v = check_tier_op(1, 1, &zero, &zero, false, false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, "tier-conservation");
        // A non-read op moving a counter violates conservation too.
        assert!(!check_tier_op(2, 0, &zero, &served, false, false).is_empty());
        // A fully healthy cluster must not fall back to origin...
        let v = check_tier_op(3, 1, &zero, &fell_back, true, false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, "cluster-health");
        // ...but churn windows and remote fault windows both excuse it.
        assert!(check_tier_op(4, 1, &zero, &fell_back, false, false).is_empty());
        assert!(check_tier_op(5, 1, &zero, &fell_back, true, true).is_empty());
    }

    #[test]
    fn byte_mismatch_reports_first_divergence() {
        let got = Bytes::from_static(b"abcXef");
        let want = Bytes::from_static(b"abcdef");
        let v = check_read(3, &got, &want).expect("mismatch");
        assert_eq!(v.kind, "byte-mismatch");
        assert!(v.detail.contains("offset 3"), "{}", v.detail);
        assert!(check_read(3, &want, &want).is_none());
    }

    #[test]
    fn length_mismatch_is_reported_as_lengths() {
        let got = Bytes::from_static(b"ab");
        let want = Bytes::from_static(b"abcd");
        let v = check_read(0, &got, &want).expect("mismatch");
        assert!(v.detail.contains("2 bytes"), "{}", v.detail);
        assert!(v.detail.contains("4"), "{}", v.detail);
    }
}
