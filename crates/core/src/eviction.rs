//! Eviction policies (§4.1: "the evictor component orchestrates multiple
//! cache eviction strategies, such as FIFO, random, and LRU. It provides an
//! interface for the integration of alternative policies if needed").
//!
//! The cache manager keeps one policy instance per cache directory, so
//! evicting to make room on one SSD never touches pages on another device.

use std::collections::HashMap;

use edgecache_common::lru::LruMap;
use edgecache_pagestore::PageId;

use crate::config::EvictionPolicyKind;

/// The pluggable eviction interface.
///
/// Policies track page *identity* only; sizes and residency live in the
/// index manager. [`EvictionPolicy::victim`] peeks without removing — the
/// caller confirms the eviction by calling [`EvictionPolicy::on_remove`].
pub trait EvictionPolicy: Send {
    /// A page was inserted.
    fn on_insert(&mut self, id: PageId);
    /// A page was read (hit).
    fn on_access(&mut self, id: PageId);
    /// A page was removed (evicted or deleted).
    fn on_remove(&mut self, id: PageId);
    /// The next page this policy would evict, if any.
    fn victim(&mut self) -> Option<PageId>;
    /// Number of tracked pages.
    fn len(&self) -> usize;
    /// Whether no pages are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Policy name for metrics.
    fn name(&self) -> &'static str;
}

/// Builds a boxed policy from its configuration kind.
pub fn build_policy(kind: EvictionPolicyKind) -> Box<dyn EvictionPolicy> {
    match kind {
        EvictionPolicyKind::Lru => Box::new(LruPolicy::new()),
        EvictionPolicyKind::Fifo => Box::new(FifoPolicy::new()),
        EvictionPolicyKind::Random { seed } => Box::new(RandomPolicy::new(seed)),
        EvictionPolicyKind::Slru => Box::new(SlruPolicy::new()),
        EvictionPolicyKind::TwoQ => Box::new(TwoQPolicy::new()),
    }
}

/// Page ids in recency order: the victim is the oldest. LRU-style policies
/// `insert` (move to newest), FIFO-style ones `insert_if_absent`.
type Order = LruMap<PageId, ()>;

fn oldest(order: &Order) -> Option<PageId> {
    order.oldest().map(|(&id, ())| id)
}

/// Least-recently-used eviction: inserts and reads move a page to newest.
pub type LruPolicy = RecencyPolicy<true>;

/// First-in-first-out eviction: insertion order, reads don't refresh.
pub type FifoPolicy = RecencyPolicy<false>;

/// One recency list evicting its oldest page; `REFRESH` says whether
/// re-inserts and reads move a page to newest (LRU) or not (FIFO).
#[derive(Debug, Default)]
pub struct RecencyPolicy<const REFRESH: bool> {
    order: Order,
}

impl<const REFRESH: bool> RecencyPolicy<REFRESH> {
    /// Creates an empty policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<const REFRESH: bool> EvictionPolicy for RecencyPolicy<REFRESH> {
    fn on_insert(&mut self, id: PageId) {
        if REFRESH {
            self.order.insert(id, ());
        } else {
            self.order.insert_if_absent(id, ());
        }
    }

    fn on_access(&mut self, id: PageId) {
        // Accesses arrive batched through the lock-free event buffer and may
        // be drained *after* the page was evicted or deleted; touching an
        // untracked id here would resurrect a dead entry (and a dead entry
        // can become a `victim()` no eviction confirms, wedging the
        // capacity loop). `get` refreshes a tracked page and adds nothing.
        if REFRESH {
            self.order.get(&id);
        }
    }

    fn on_remove(&mut self, id: PageId) {
        self.order.remove(&id);
    }

    fn victim(&mut self) -> Option<PageId> {
        oldest(&self.order)
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn name(&self) -> &'static str {
        if REFRESH {
            "lru"
        } else {
            "fifo"
        }
    }
}

/// Uniform random eviction with a seeded xorshift PRNG (dependency-free and
/// reproducible).
#[derive(Debug)]
pub struct RandomPolicy {
    pages: Vec<PageId>,
    position: HashMap<PageId, usize>,
    state: u64,
    /// The victim chosen by the last `victim()` call, so that the following
    /// `on_remove` confirms the same page the caller saw.
    pending: Option<PageId>,
}

impl RandomPolicy {
    /// Creates a policy with the given PRNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            pages: Vec::new(),
            position: HashMap::new(),
            state: seed | 1, // Xorshift must not start at zero.
            pending: None,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // Xorshift64*.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

impl EvictionPolicy for RandomPolicy {
    fn on_insert(&mut self, id: PageId) {
        if !self.position.contains_key(&id) {
            self.position.insert(id, self.pages.len());
            self.pages.push(id);
        }
    }

    fn on_access(&mut self, _id: PageId) {}

    fn on_remove(&mut self, id: PageId) {
        if self.pending == Some(id) {
            self.pending = None;
        }
        if let Some(pos) = self.position.remove(&id) {
            let last = self.pages.pop().expect("position map implies non-empty");
            if pos < self.pages.len() {
                self.pages[pos] = last;
                self.position.insert(last, pos);
            }
        }
    }

    fn victim(&mut self) -> Option<PageId> {
        if let Some(p) = self.pending {
            return Some(p);
        }
        if self.pages.is_empty() {
            return None;
        }
        let idx = (self.next_u64() % self.pages.len() as u64) as usize;
        let victim = self.pages[idx];
        self.pending = Some(victim);
        Some(victim)
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Segmented LRU: a probation segment for first-timers and a protected
/// segment for re-accessed pages. Victims always drain probation (in LRU
/// order) before touching the protected segment, so a one-pass scan cannot
/// flush the hot working set.
///
/// The protected segment is capped at [`SLRU_PROTECTED_NUM`]/
/// [`SLRU_PROTECTED_DENOM`] of the tracked pages; overflow is demoted
/// (oldest first) to the top of probation when a victim is chosen — the
/// same lazy enforcement point as 2Q's queue balance. Without the cap a
/// workload that re-accesses everything promotes everything, probation
/// empties, and the "scan-resistant" policy silently loses the segment
/// structure that justifies it.
#[derive(Debug, Default)]
pub struct SlruPolicy {
    probation: Order,
    protected: Order,
}

/// Protected-segment cap, as a fraction of tracked pages: 3/4.
const SLRU_PROTECTED_NUM: usize = 3;
/// See [`SLRU_PROTECTED_NUM`].
const SLRU_PROTECTED_DENOM: usize = 4;

impl SlruPolicy {
    /// Creates an empty SLRU policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for SlruPolicy {
    fn on_insert(&mut self, id: PageId) {
        if self.protected.get(&id).is_none() {
            self.probation.insert(id, ());
        }
    }

    fn on_access(&mut self, id: PageId) {
        if self.probation.remove(&id).is_some() {
            // Promotion on re-access.
            self.protected.insert(id, ());
        } else {
            self.protected.get(&id);
        }
    }

    fn on_remove(&mut self, id: PageId) {
        self.probation.remove(&id);
        self.protected.remove(&id);
    }

    fn victim(&mut self) -> Option<PageId> {
        let cap = (self.len() * SLRU_PROTECTED_NUM / SLRU_PROTECTED_DENOM).max(1);
        while self.protected.len() > cap {
            let (old, ()) = self.protected.pop_oldest().expect("over cap: non-empty");
            self.probation.insert(old, ());
        }
        oldest(&self.probation).or_else(|| oldest(&self.protected))
    }

    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }

    fn name(&self) -> &'static str {
        "slru"
    }
}

/// 2Q: a FIFO admission queue (`a1in`), a main LRU (`am`), and a bounded
/// FIFO ghost list (`a1out`) of IDs recently removed from `a1in`. A page
/// whose ID is still in the ghost list re-enters directly into the main
/// LRU — it has proven itself beyond a one-hit wonder.
#[derive(Debug, Default)]
pub struct TwoQPolicy {
    a1in: Order,
    am: Order,
    a1out: Order,
}

/// `a1in` holds at most 1/4 of tracked pages; the ghost list remembers up
/// to 1/2.
const TWOQ_A1IN_DENOM: usize = 4;
const TWOQ_GHOST_DENOM: usize = 2;

impl TwoQPolicy {
    /// Creates an empty 2Q policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for TwoQPolicy {
    fn on_insert(&mut self, id: PageId) {
        if self.am.get(&id).is_some() {
            return;
        }
        if self.a1out.remove(&id).is_some() {
            // Seen recently: straight to the main queue.
            self.am.insert(id, ());
        } else {
            self.a1in.insert_if_absent(id, ());
        }
    }

    fn on_access(&mut self, id: PageId) {
        self.am.get(&id);
        // Accesses inside a1in do not promote (2Q's "one access is not
        // enough" rule); promotion happens via the ghost queue.
    }

    fn on_remove(&mut self, id: PageId) {
        if self.a1in.remove(&id).is_some() {
            self.a1out.insert_if_absent(id, ());
            let cap = ((self.a1in.len() + self.am.len()) / TWOQ_GHOST_DENOM).max(4);
            while self.a1out.len() > cap {
                self.a1out.pop_oldest();
            }
        }
        self.am.remove(&id);
    }

    fn victim(&mut self) -> Option<PageId> {
        let a1in_cap = ((self.a1in.len() + self.am.len()) / TWOQ_A1IN_DENOM).max(1);
        if self.a1in.len() >= a1in_cap {
            return oldest(&self.a1in);
        }
        oldest(&self.am).or_else(|| oldest(&self.a1in))
    }

    fn len(&self) -> usize {
        self.a1in.len() + self.am.len()
    }

    fn name(&self) -> &'static str {
        "2q"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgecache_pagestore::FileId;

    fn pid(i: u64) -> PageId {
        PageId::new(FileId(1), i)
    }

    fn drain(policy: &mut dyn EvictionPolicy) -> Vec<PageId> {
        let mut out = Vec::new();
        while let Some(v) = policy.victim() {
            policy.on_remove(v);
            out.push(v);
        }
        out
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = LruPolicy::new();
        for i in 0..4 {
            p.on_insert(pid(i));
        }
        p.on_access(pid(0)); // Refresh page 0.
        assert_eq!(drain(&mut p), vec![pid(1), pid(2), pid(3), pid(0)]);
    }

    #[test]
    fn fifo_ignores_accesses() {
        let mut p = FifoPolicy::new();
        for i in 0..3 {
            p.on_insert(pid(i));
        }
        p.on_access(pid(0));
        p.on_access(pid(0));
        assert_eq!(drain(&mut p), vec![pid(0), pid(1), pid(2)]);
    }

    #[test]
    fn fifo_reinsert_keeps_original_position() {
        let mut p = FifoPolicy::new();
        p.on_insert(pid(0));
        p.on_insert(pid(1));
        p.on_insert(pid(0)); // Already present: no refresh.
        assert_eq!(p.victim(), Some(pid(0)));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn random_is_reproducible_and_complete() {
        let order_a = {
            let mut p = RandomPolicy::new(42);
            for i in 0..10 {
                p.on_insert(pid(i));
            }
            drain(&mut p)
        };
        let order_b = {
            let mut p = RandomPolicy::new(42);
            for i in 0..10 {
                p.on_insert(pid(i));
            }
            drain(&mut p)
        };
        assert_eq!(order_a, order_b, "same seed, same order");
        let mut sorted = order_a.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            (0..10).map(pid).collect::<Vec<_>>(),
            "evicts everything once"
        );
        // Different seed should (overwhelmingly likely) differ.
        let mut p = RandomPolicy::new(7);
        for i in 0..10 {
            p.on_insert(pid(i));
        }
        assert_ne!(drain(&mut p), order_a);
    }

    #[test]
    fn random_victim_is_stable_until_removed() {
        let mut p = RandomPolicy::new(1);
        for i in 0..5 {
            p.on_insert(pid(i));
        }
        let v1 = p.victim().unwrap();
        let v2 = p.victim().unwrap();
        assert_eq!(v1, v2, "repeated peek returns the same victim");
        p.on_remove(v1);
        assert_ne!(p.victim(), Some(v1));
    }

    #[test]
    fn removing_untracked_page_is_harmless() {
        for kind in [
            EvictionPolicyKind::Lru,
            EvictionPolicyKind::Fifo,
            EvictionPolicyKind::Random { seed: 3 },
        ] {
            let mut p = build_policy(kind);
            p.on_insert(pid(0));
            p.on_remove(pid(99));
            assert_eq!(p.len(), 1);
            assert_eq!(p.victim(), Some(pid(0)));
        }
    }

    #[test]
    fn stale_access_does_not_resurrect_evicted_pages() {
        // Batched access events can land after the page was removed (the
        // event buffer drains at the next policy-lock acquisition); no
        // policy may re-track the page, or `victim()` could return a page
        // the index no longer holds.
        for kind in [
            EvictionPolicyKind::Lru,
            EvictionPolicyKind::Fifo,
            EvictionPolicyKind::Random { seed: 3 },
            EvictionPolicyKind::Slru,
            EvictionPolicyKind::TwoQ,
        ] {
            let mut p = build_policy(kind);
            p.on_insert(pid(0));
            p.on_insert(pid(1));
            p.on_remove(pid(0));
            p.on_access(pid(0)); // stale event for the evicted page
            p.on_access(pid(7)); // event for a never-inserted page
            assert_eq!(p.len(), 1, "{}: membership drifted", p.name());
            assert_eq!(p.victim(), Some(pid(1)), "{}", p.name());
        }
    }

    #[test]
    fn empty_policies_have_no_victim() {
        for kind in [
            EvictionPolicyKind::Lru,
            EvictionPolicyKind::Fifo,
            EvictionPolicyKind::Random { seed: 3 },
        ] {
            let mut p = build_policy(kind);
            assert!(p.victim().is_none());
            assert!(p.is_empty());
        }
    }

    #[test]
    fn build_policy_names() {
        assert_eq!(build_policy(EvictionPolicyKind::Lru).name(), "lru");
        assert_eq!(build_policy(EvictionPolicyKind::Fifo).name(), "fifo");
        assert_eq!(
            build_policy(EvictionPolicyKind::Random { seed: 0 }).name(),
            "random"
        );
        assert_eq!(build_policy(EvictionPolicyKind::Slru).name(), "slru");
        assert_eq!(build_policy(EvictionPolicyKind::TwoQ).name(), "2q");
    }

    #[test]
    fn slru_protects_reaccessed_pages_from_scans() {
        let mut p = SlruPolicy::new();
        // A small hot set that gets re-accessed (promoted to protected)...
        for i in 0..4 {
            p.on_insert(pid(i));
            p.on_access(pid(i));
        }
        // ...then a scan flood of one-hit wonders.
        for i in 100..120 {
            p.on_insert(pid(i));
        }
        // Evicting 20 pages must take the scan pages before the hot set.
        for _ in 0..20 {
            let v = p.victim().unwrap();
            assert!(v.index >= 100, "evicted hot page {v} during the scan");
            p.on_remove(v);
        }
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn slru_with_everything_promoted_degrades_to_lru() {
        let mut p = SlruPolicy::new();
        for i in 0..5 {
            p.on_insert(pid(i));
            p.on_access(pid(i)); // Everything promoted.
        }
        p.on_access(pid(0)); // Refresh page 0.
        assert_eq!(drain(&mut p), vec![pid(1), pid(2), pid(3), pid(4), pid(0)]);
    }

    #[test]
    fn slru_protected_segment_is_capped() {
        let mut p = SlruPolicy::new();
        // Promote everything: without a cap, probation would be empty and
        // the very next victim would come from the hot set's LRU tail even
        // while colder demotion candidates exist.
        for i in 0..100 {
            p.on_insert(pid(i));
            p.on_access(pid(i));
        }
        let _ = p.victim();
        assert!(
            p.protected.len() <= 100 * SLRU_PROTECTED_NUM / SLRU_PROTECTED_DENOM,
            "protected {} exceeds its cap",
            p.protected.len()
        );
        assert!(
            p.probation.len() >= 100 / SLRU_PROTECTED_DENOM,
            "demotion must refill probation"
        );
        // Eviction order is still oldest-first overall.
        let drained = drain(&mut p);
        assert_eq!(drained.len(), 100);
        assert_eq!(drained[0], pid(0));
        assert_eq!(*drained.last().unwrap(), pid(99));
    }

    #[test]
    fn slru_drains_completely() {
        let mut p = SlruPolicy::new();
        for i in 0..10 {
            p.on_insert(pid(i));
            if i % 2 == 0 {
                p.on_access(pid(i));
            }
        }
        let drained = drain(&mut p);
        assert_eq!(drained.len(), 10);
        assert!(p.is_empty());
    }

    #[test]
    fn twoq_ghost_readmission_goes_to_main() {
        let mut p = TwoQPolicy::new();
        for i in 0..8 {
            p.on_insert(pid(i));
        }
        // Evict page 0 out of a1in; it lands in the ghost list.
        let v = p.victim().unwrap();
        p.on_remove(v);
        // Re-inserting it goes to the main LRU, so the next victim is an
        // a1in page, not the re-admitted one.
        p.on_insert(v);
        let next = p.victim().unwrap();
        assert_ne!(next, v, "ghost re-admission must be protected");
    }

    #[test]
    fn twoq_one_hit_wonders_evict_first() {
        let mut p = TwoQPolicy::new();
        // Build a main set via ghost re-admission.
        for i in 0..4 {
            p.on_insert(pid(i));
        }
        for _ in 0..4 {
            let v = p.victim().unwrap();
            p.on_remove(v);
            p.on_insert(v); // Now in `am`.
        }
        // A scan flood enters a1in.
        for i in 100..108 {
            p.on_insert(pid(i));
        }
        // The first evictions take scan pages.
        for _ in 0..6 {
            let v = p.victim().unwrap();
            assert!(v.index >= 100, "evicted main page {v} during scan");
            p.on_remove(v);
        }
    }

    #[test]
    fn twoq_drains_completely() {
        let mut p = TwoQPolicy::new();
        for i in 0..12 {
            p.on_insert(pid(i));
            if i % 3 == 0 {
                p.on_access(pid(i));
            }
        }
        let drained = drain(&mut p);
        assert_eq!(drained.len(), 12);
        assert!(p.is_empty());
    }

    #[test]
    fn scan_resistance_hit_rates() {
        // A miniature cache simulation: Zipf-ish hot set + periodic scans.
        // Scan-resistant policies (SLRU, 2Q) must beat plain LRU.
        fn simulate(kind: EvictionPolicyKind) -> f64 {
            const CAP: usize = 32;
            let mut policy = build_policy(kind);
            let mut resident = std::collections::HashSet::new();
            let mut hits = 0u64;
            let mut total = 0u64;
            let mut scan_id = 1000u64;
            for round in 0..400u64 {
                // Hot set accesses.
                for i in 0..16u64 {
                    let id = pid(i);
                    total += 1;
                    if resident.contains(&id) {
                        hits += 1;
                        policy.on_access(id);
                    } else {
                        policy.on_insert(id);
                        resident.insert(id);
                        while resident.len() > CAP {
                            let v = policy.victim().expect("non-empty");
                            policy.on_remove(v);
                            resident.remove(&v);
                        }
                    }
                }
                // Every other round: a burst of scan pages.
                if round % 2 == 0 {
                    for _ in 0..24 {
                        let id = pid(scan_id);
                        scan_id += 1;
                        total += 1;
                        policy.on_insert(id);
                        resident.insert(id);
                        while resident.len() > CAP {
                            let v = policy.victim().expect("non-empty");
                            policy.on_remove(v);
                            resident.remove(&v);
                        }
                    }
                }
            }
            hits as f64 / total as f64
        }
        let lru = simulate(EvictionPolicyKind::Lru);
        let slru = simulate(EvictionPolicyKind::Slru);
        let twoq = simulate(EvictionPolicyKind::TwoQ);
        assert!(
            slru > lru,
            "slru {slru:.3} must beat lru {lru:.3} under scans"
        );
        assert!(
            twoq > lru,
            "2q {twoq:.3} must beat lru {lru:.3} under scans"
        );
    }

    /// The victim order of every policy, pinned across refactors: one seeded
    /// stream of inserts, accesses, removes and evictions over 512 ids, the
    /// victims of each policy hashed in order. The constants were recorded
    /// before the policies moved onto `edgecache_common::lru`; a change in
    /// any policy's order (a touch that stops refreshing, a re-insert that
    /// starts refreshing, a ghost list that forgets in another order) moves
    /// its hash.
    #[test]
    fn victim_sequences_match_the_recorded_golden() {
        const GOLDEN: [(EvictionPolicyKind, u64); 5] = [
            (EvictionPolicyKind::Lru, 0x2f62_ec82_ef11_8266),
            (EvictionPolicyKind::Fifo, 0x6fcf_484d_a9a1_cbe1),
            (
                EvictionPolicyKind::Random { seed: 11 },
                0xc0d7_963b_dfd7_0f6d,
            ),
            (EvictionPolicyKind::Slru, 0xf6b6_dae1_a4cd_5044),
            (EvictionPolicyKind::TwoQ, 0x6c00_577e_dd37_5329),
        ];
        for (kind, want) in GOLDEN {
            let mut p = build_policy(kind);
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            let mut victims = Vec::new();
            for _ in 0..20_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let id = pid(state % 512);
                match (state >> 40) % 8 {
                    0..=2 => p.on_insert(id),
                    3..=4 => p.on_access(id),
                    5 => p.on_remove(id),
                    _ => {
                        let v = p.victim();
                        if let Some(v) = v {
                            p.on_remove(v);
                        }
                        let word = v.map_or(u64::MAX, |v| v.index);
                        victims.extend_from_slice(&word.to_le_bytes());
                    }
                }
            }
            victims.extend_from_slice(&(p.len() as u64).to_le_bytes());
            let got = edgecache_common::hash::xxh64(&victims, 0);
            assert_eq!(got, want, "{}: victim order moved ({got:#x})", p.name());
        }
    }
}
