//! A consistent-hash ring with virtual nodes, bounded replica lookup, and
//! "lazy data movement".
//!
//! The ring implements three behaviours the paper calls out:
//!
//! * **Soft-affinity lookup** (§6.1.2): the preferred node for a key is found
//!   by consistent hashing; a *secondary* node (the next distinct node
//!   clockwise) is used when the primary is busy.
//! * **Bounded replicas with fallback** (§7): at most a small number of
//!   candidate cache nodes per key (the paper settled on two); when all are
//!   unavailable the caller falls back to remote storage.
//! * **Lazy data movement** (§7): when a node goes offline (container
//!   restart, maintenance), its ring points are *kept* for a configurable
//!   timeout. Lookups skip the offline node, but if it returns within the
//!   timeout, no key moves between the surviving nodes. Only after the
//!   timeout expires are the points removed for good.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use crate::clock::SharedClock;
use crate::error::{Error, Result};
use crate::hash::{combine, hash_str, mix64};

/// Per-node bookkeeping.
#[derive(Debug, Clone)]
struct NodeState {
    /// `None` while online; `Some(instant)` records when the node went
    /// offline (clock nanos).
    offline_since: Option<u64>,
}

/// Configuration for [`ConsistentRing`].
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Virtual nodes (points) per physical node. More points smooth the load
    /// distribution at the cost of memory and lookup constants.
    pub vnodes_per_node: usize,
    /// How long an offline node keeps its seat before its points are removed
    /// (the "lazy data movement" timeout).
    pub offline_timeout: Duration,
}

impl Default for RingConfig {
    fn default() -> Self {
        Self {
            vnodes_per_node: 128,
            offline_timeout: Duration::from_secs(10 * 60),
        }
    }
}

#[derive(Debug)]
struct RingInner {
    /// Point on the circle → node id.
    points: BTreeMap<u64, Arc<str>>,
    nodes: HashMap<Arc<str>, NodeState>,
}

/// A consistent-hash ring. Cheap to share (`Clone` shares state).
#[derive(Debug, Clone)]
pub struct ConsistentRing {
    inner: Arc<RwLock<RingInner>>,
    config: RingConfig,
    clock: SharedClock,
}

impl ConsistentRing {
    /// Creates an empty ring.
    pub fn new(config: RingConfig, clock: SharedClock) -> Self {
        Self {
            inner: Arc::new(RwLock::new(RingInner {
                points: BTreeMap::new(),
                nodes: HashMap::new(),
            })),
            config,
            clock,
        }
    }

    fn node_points(&self, node: &str) -> impl Iterator<Item = u64> + '_ {
        let base = hash_str(node);
        (0..self.config.vnodes_per_node as u64).map(move |i| combine(base, mix64(i)))
    }

    /// Adds a node (idempotent; re-adding an offline node brings it online).
    pub fn add_node(&self, node: &str) {
        let mut inner = self.inner.write();
        let id: Arc<str> = Arc::from(node);
        if inner.nodes.contains_key(&id) {
            inner
                .nodes
                .get_mut(&id)
                .expect("checked contains_key")
                .offline_since = None;
            return;
        }
        for p in self.node_points(node) {
            inner.points.insert(p, id.clone());
        }
        inner.nodes.insert(
            id,
            NodeState {
                offline_since: None,
            },
        );
    }

    /// Removes a node immediately (no lazy timeout). Keys mapped to it move
    /// to their clockwise successors right away.
    pub fn remove_node(&self, node: &str) {
        let mut inner = self.inner.write();
        let id: Arc<str> = Arc::from(node);
        if inner.nodes.remove(&id).is_some() {
            let doomed: Vec<u64> = self.node_points(node).collect();
            for p in doomed {
                inner.points.remove(&p);
            }
        }
    }

    /// Marks a node offline. Its ring points are kept for the configured
    /// timeout ("keeping the seat", §7). Idempotent: a node already offline
    /// keeps its original offline timestamp.
    pub fn mark_offline(&self, node: &str) {
        let mut inner = self.inner.write();
        let now = self.clock.now_nanos();
        if let Some(state) = inner.nodes.get_mut(node) {
            state.offline_since.get_or_insert(now);
        }
    }

    /// Marks a node online again. If it returned within the lazy timeout no
    /// data has moved; the node simply resumes serving its old key range.
    pub fn mark_online(&self, node: &str) {
        let mut inner = self.inner.write();
        if let Some(state) = inner.nodes.get_mut(node) {
            state.offline_since = None;
        }
    }

    /// Removes nodes that have been offline longer than the lazy timeout.
    /// Returns the ids of removed nodes. Call periodically (the paper runs
    /// this from a background job).
    ///
    /// The whole pass runs under one write lock: `offline_since` is
    /// re-checked at removal time, so a concurrent `mark_online` can never
    /// land between "snapshot expired" and "remove" and lose a live node.
    pub fn sweep_expired(&self) -> Vec<String> {
        let now = self.clock.now_nanos();
        let timeout = self.config.offline_timeout.as_nanos() as u64;
        let mut inner = self.inner.write();
        let expired: Vec<Arc<str>> = inner
            .nodes
            .iter()
            .filter_map(|(id, st)| {
                st.offline_since
                    .filter(|&since| now.saturating_sub(since) >= timeout)
                    .map(|_| id.clone())
            })
            .collect();
        let mut removed = Vec::with_capacity(expired.len());
        for id in expired {
            if inner.nodes.remove(&id).is_some() {
                for p in self.node_points(&id) {
                    inner.points.remove(&p);
                }
                removed.push(id.to_string());
            }
        }
        removed.sort();
        removed
    }

    /// Returns whether `node` is currently online.
    pub fn is_online(&self, node: &str) -> bool {
        let inner = self.inner.read();
        inner
            .nodes
            .get(node)
            .is_some_and(|st| st.offline_since.is_none())
    }

    /// Number of nodes (online or in their offline grace period).
    pub fn len(&self) -> usize {
        self.inner.read().nodes.len()
    }

    /// Returns `true` if the ring holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.inner.read().nodes.is_empty()
    }

    /// All node ids currently on the ring.
    pub fn nodes(&self) -> Vec<String> {
        self.inner
            .read()
            .nodes
            .keys()
            .map(|k| k.to_string())
            .collect()
    }

    /// The first `max` *distinct, online* nodes clockwise from `key`'s point.
    ///
    /// Offline nodes in their grace period are skipped but keep their seats,
    /// so a key's candidate list reverts as soon as the node returns.
    pub fn candidates(&self, key: &str, max: usize) -> Vec<String> {
        let inner = self.inner.read();
        if inner.points.is_empty() || max == 0 {
            return Vec::new();
        }
        let point = hash_str(key);
        let mut out: Vec<String> = Vec::with_capacity(max);
        let mut seen: Vec<&Arc<str>> = Vec::with_capacity(max);
        // Walk clockwise starting at `point`, wrapping around once.
        for (_, node) in inner
            .points
            .range(point..)
            .chain(inner.points.range(..point))
        {
            if seen.contains(&node) {
                continue;
            }
            seen.push(node);
            let online = inner
                .nodes
                .get(node)
                .is_some_and(|st| st.offline_since.is_none());
            if online {
                out.push(node.to_string());
                if out.len() == max {
                    break;
                }
            }
            if seen.len() == inner.nodes.len() {
                break;
            }
        }
        out
    }

    /// The preferred (primary) online node for `key`.
    pub fn primary(&self, key: &str) -> Result<String> {
        self.candidates(key, 1)
            .into_iter()
            .next()
            .ok_or_else(|| Error::Other(format!("no online node for key `{key}`")))
    }

    /// Primary and secondary for `key` (§6.1.2's two-level preference).
    pub fn primary_and_secondary(&self, key: &str) -> (Option<String>, Option<String>) {
        let mut c = self.candidates(key, 2).into_iter();
        (c.next(), c.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use std::collections::HashMap as Map;

    fn ring_with(nodes: &[&str], timeout: Duration) -> (ConsistentRing, SimClock) {
        let clock = SimClock::new();
        let ring = ConsistentRing::new(
            RingConfig {
                vnodes_per_node: 64,
                offline_timeout: timeout,
            },
            Arc::new(clock.clone()),
        );
        for n in nodes {
            ring.add_node(n);
        }
        (ring, clock)
    }

    #[test]
    fn empty_ring_has_no_candidates() {
        let (ring, _) = ring_with(&[], Duration::from_secs(60));
        assert!(ring.candidates("k", 2).is_empty());
        assert!(ring.primary("k").is_err());
    }

    #[test]
    fn single_node_serves_everything() {
        let (ring, _) = ring_with(&["w0"], Duration::from_secs(60));
        for i in 0..100 {
            assert_eq!(ring.primary(&format!("key{i}")).unwrap(), "w0");
        }
    }

    #[test]
    fn candidates_are_distinct() {
        let (ring, _) = ring_with(&["w0", "w1", "w2", "w3"], Duration::from_secs(60));
        for i in 0..200 {
            let c = ring.candidates(&format!("file{i}"), 3);
            assert_eq!(c.len(), 3);
            assert_ne!(c[0], c[1]);
            assert_ne!(c[1], c[2]);
            assert_ne!(c[0], c[2]);
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let (ring, _) = ring_with(&["w0", "w1", "w2", "w3", "w4"], Duration::from_secs(60));
        let mut counts: Map<String, usize> = Map::new();
        for i in 0..10_000 {
            *counts
                .entry(ring.primary(&format!("file{i}")).unwrap())
                .or_default() += 1;
        }
        for (_, c) in counts {
            // Perfect balance is 2000 per node; 64 vnodes gives ~±40 %.
            assert!((1000..3200).contains(&c), "imbalanced: {c}");
        }
    }

    #[test]
    fn removing_a_node_only_moves_its_keys() {
        let (ring, _) = ring_with(&["w0", "w1", "w2", "w3"], Duration::from_secs(60));
        let before: Vec<String> = (0..2000)
            .map(|i| ring.primary(&format!("f{i}")).unwrap())
            .collect();
        ring.remove_node("w2");
        let mut moved_from_other = 0;
        for (i, old) in before.iter().enumerate() {
            let new = ring.primary(&format!("f{i}")).unwrap();
            if *old != "w2" && new != *old {
                moved_from_other += 1;
            }
        }
        assert_eq!(moved_from_other, 0, "keys not owned by w2 must not move");
    }

    #[test]
    fn offline_node_is_skipped_but_keeps_seat() {
        let (ring, clock) = ring_with(&["w0", "w1", "w2"], Duration::from_secs(600));
        let owned_by_w1: Vec<String> = (0..3000)
            .map(|i| format!("f{i}"))
            .filter(|k| ring.primary(k).unwrap() == "w1")
            .collect();
        assert!(!owned_by_w1.is_empty());

        ring.mark_offline("w1");
        clock.advance(Duration::from_secs(60)); // Within the grace period.
        assert!(ring.sweep_expired().is_empty());
        for k in &owned_by_w1 {
            assert_ne!(ring.primary(k).unwrap(), "w1");
        }

        // The node returns in time: all its keys revert, nothing moved.
        ring.mark_online("w1");
        for k in &owned_by_w1 {
            assert_eq!(ring.primary(k).unwrap(), "w1");
        }
    }

    #[test]
    fn expired_offline_node_is_swept() {
        let (ring, clock) = ring_with(&["w0", "w1"], Duration::from_secs(600));
        ring.mark_offline("w1");
        clock.advance(Duration::from_secs(601));
        let swept = ring.sweep_expired();
        assert_eq!(swept, vec!["w1".to_string()]);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.primary("anything").unwrap(), "w0");
    }

    #[test]
    fn mark_offline_is_idempotent_for_timestamp() {
        let (ring, clock) = ring_with(&["w0", "w1"], Duration::from_secs(100));
        ring.mark_offline("w1");
        clock.advance(Duration::from_secs(99));
        // A second mark_offline must not refresh the grace period.
        ring.mark_offline("w1");
        clock.advance(Duration::from_secs(1));
        assert_eq!(ring.sweep_expired(), vec!["w1".to_string()]);
    }

    #[test]
    fn sweep_returns_expired_nodes_sorted() {
        let (ring, clock) = ring_with(&["w3", "w0", "w2", "w1"], Duration::from_secs(100));
        for n in ["w3", "w1", "w0"] {
            ring.mark_offline(n);
        }
        clock.advance(Duration::from_secs(101));
        // Multi-node sweeps must return a deterministic (sorted) list, not
        // hash-map iteration order.
        assert_eq!(ring.sweep_expired(), vec!["w0", "w1", "w3"]);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn mark_online_racing_a_sweep_never_loses_a_live_node() {
        // Regression: sweep_expired used to snapshot expired nodes under a
        // read lock and remove them under a separate write lock, so a
        // mark_online landing between the two permanently removed a node
        // that had just come back. The sweep now re-checks `offline_since`
        // inside one write-locked pass; this hammers the interleaving.
        for _ in 0..200 {
            let (ring, clock) = ring_with(&["w0", "w1"], Duration::from_secs(10));
            ring.mark_offline("w1");
            clock.advance(Duration::from_secs(11));
            let r1 = ring.clone();
            let sweeper = std::thread::spawn(move || r1.sweep_expired());
            ring.mark_online("w1");
            let revived_while_present = ring.is_online("w1");
            let swept = sweeper.join().expect("sweeper");
            if revived_while_present {
                // The node observably came back online while still seated:
                // no sweep may remove it afterwards.
                assert!(
                    ring.nodes().contains(&"w1".to_string()),
                    "live node lost by a racing sweep (swept={swept:?})"
                );
                assert!(ring.is_online("w1"));
            }
        }
    }

    #[test]
    fn all_nodes_offline_yields_no_candidates() {
        let (ring, _) = ring_with(&["w0", "w1"], Duration::from_secs(600));
        ring.mark_offline("w0");
        ring.mark_offline("w1");
        assert!(ring.candidates("k", 2).is_empty());
    }

    #[test]
    fn readding_offline_node_revives_it() {
        let (ring, _) = ring_with(&["w0", "w1"], Duration::from_secs(600));
        ring.mark_offline("w1");
        ring.add_node("w1");
        assert!(ring.is_online("w1"));
    }

    #[test]
    fn primary_and_secondary_differ() {
        let (ring, _) = ring_with(&["w0", "w1", "w2"], Duration::from_secs(60));
        let (p, s) = ring.primary_and_secondary("some-file");
        assert!(p.is_some() && s.is_some());
        assert_ne!(p, s);
    }
}
