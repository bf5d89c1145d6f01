//! Hierarchical quota management for multi-tenancy (§5.2).
//!
//! Quotas attach to scopes (global, schema, table, partition). The
//! verification walk is "hierarchical, starting from the most detailed level
//! (often partitions) and ascending through tables, schemas, and up to the
//! global level". Following the paper's evolved design, the collective quota
//! of children may *exceed* the parent's quota — each scope is only checked
//! against its own limit (the 1 TB table with two 800 GB partitions
//! example).

use std::collections::HashMap;

use edgecache_common::ByteSize;
use edgecache_pagestore::CacheScope;
use parking_lot::RwLock;

/// Which eviction strategy a quota violation calls for (§5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuotaViolation {
    /// A partition exceeded its own quota → evict within that partition.
    Partition(CacheScope),
    /// A table (or schema/global) scope exceeded its quota → evict randomly
    /// across its child partitions ("table-level sharing and eviction").
    SharedScope(CacheScope),
}

impl QuotaViolation {
    /// The violating scope.
    pub fn scope(&self) -> &CacheScope {
        match self {
            QuotaViolation::Partition(s) | QuotaViolation::SharedScope(s) => s,
        }
    }
}

/// Scope → byte-quota table with hierarchical verification.
#[derive(Debug, Default)]
pub struct QuotaManager {
    quotas: RwLock<HashMap<CacheScope, u64>>,
}

impl QuotaManager {
    /// Creates a manager with no quotas (everything unlimited).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or replaces) the quota for a scope.
    pub fn set_quota(&self, scope: CacheScope, quota: ByteSize) {
        self.quotas.write().insert(scope, quota.as_u64());
    }

    /// The quota for a scope, if set.
    pub fn quota_of(&self, scope: &CacheScope) -> Option<ByteSize> {
        self.quotas.read().get(scope).copied().map(ByteSize::new)
    }

    /// Whether any quota is configured.
    pub fn is_empty(&self) -> bool {
        self.quotas.read().is_empty()
    }

    /// Every configured `(scope, quota)` pair, sorted by scope rendering so
    /// callers (e.g. the budget oracle of the simulation harness) can walk
    /// them in a stable order.
    pub fn snapshot(&self) -> Vec<(CacheScope, ByteSize)> {
        let mut out: Vec<(CacheScope, ByteSize)> = self
            .quotas
            .read()
            .iter()
            .map(|(s, &q)| (s.clone(), ByteSize::new(q)))
            .collect();
        out.sort_by_key(|(s, _)| s.to_string());
        out
    }

    /// Checks the scope chain of `scope` (most detailed first) against the
    /// usage reported by `usage_of`, assuming `additional` bytes are about to
    /// be added to every scope in the chain. Returns the first violation.
    pub fn first_violation(
        &self,
        scope: &CacheScope,
        additional: u64,
        usage_of: impl Fn(&CacheScope) -> u64,
    ) -> Option<QuotaViolation> {
        let quotas = self.quotas.read();
        if quotas.is_empty() {
            return None;
        }
        for s in scope.chain() {
            if let Some(&quota) = quotas.get(&s) {
                if usage_of(&s) + additional > quota {
                    return Some(match s {
                        CacheScope::Partition { .. } => QuotaViolation::Partition(s),
                        other => QuotaViolation::SharedScope(other),
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage<'a>(pairs: &'a [(&'a CacheScope, u64)]) -> impl Fn(&CacheScope) -> u64 + 'a {
        move |s| {
            pairs
                .iter()
                .find(|(scope, _)| *scope == s)
                .map(|(_, u)| *u)
                .unwrap_or(0)
        }
    }

    #[test]
    fn no_quotas_means_no_violations() {
        let qm = QuotaManager::new();
        let scope = CacheScope::partition("s", "t", "p");
        assert!(qm.first_violation(&scope, u64::MAX, |_| u64::MAX).is_none());
    }

    #[test]
    fn partition_violation_is_detected_first() {
        let qm = QuotaManager::new();
        let part = CacheScope::partition("s", "t", "p");
        let table = CacheScope::table("s", "t");
        qm.set_quota(part.clone(), ByteSize::new(100));
        qm.set_quota(table.clone(), ByteSize::new(100));
        // Both would be violated; the walk starts at the partition.
        let v = qm
            .first_violation(&part, 50, usage(&[(&part, 80), (&table, 80)]))
            .unwrap();
        assert_eq!(v, QuotaViolation::Partition(part));
    }

    #[test]
    fn table_violation_when_partition_fits() {
        let qm = QuotaManager::new();
        let part = CacheScope::partition("s", "t", "p");
        let table = CacheScope::table("s", "t");
        qm.set_quota(part.clone(), ByteSize::new(1000));
        qm.set_quota(table.clone(), ByteSize::new(100));
        let v = qm
            .first_violation(&part, 50, usage(&[(&part, 60), (&table, 60)]))
            .unwrap();
        assert_eq!(v, QuotaViolation::SharedScope(table));
    }

    #[test]
    fn children_may_oversubscribe_parent() {
        // The paper's example: a 1 TB table with two 800 GB partitions is a
        // legal configuration; each partition is held to its own 800 GB.
        let qm = QuotaManager::new();
        let table = CacheScope::table("s", "t");
        let p1 = CacheScope::partition("s", "t", "p1");
        let p2 = CacheScope::partition("s", "t", "p2");
        qm.set_quota(table.clone(), ByteSize::gib(1024));
        qm.set_quota(p1.clone(), ByteSize::gib(800));
        qm.set_quota(p2.clone(), ByteSize::gib(800));
        // p1 at 700 GB + 50 GB is fine even though p1+p2 quotas > table.
        let ok = qm.first_violation(
            &p1,
            ByteSize::gib(50).as_u64(),
            usage(&[
                (&p1, ByteSize::gib(700).as_u64()),
                (&table, ByteSize::gib(900).as_u64()),
            ]),
        );
        assert!(ok.is_none());
        // p1 exceeding its own 800 GB violates at the partition.
        let v = qm.first_violation(
            &p1,
            ByteSize::gib(200).as_u64(),
            usage(&[(&p1, ByteSize::gib(700).as_u64())]),
        );
        assert_eq!(v, Some(QuotaViolation::Partition(p1)));
    }

    #[test]
    fn global_quota_applies_to_everything() {
        let qm = QuotaManager::new();
        qm.set_quota(CacheScope::Global, ByteSize::new(100));
        let scope = CacheScope::partition("a", "b", "c");
        let v = qm
            .first_violation(&scope, 60, usage(&[(&CacheScope::Global, 50)]))
            .unwrap();
        assert_eq!(v, QuotaViolation::SharedScope(CacheScope::Global));
    }

    #[test]
    fn exact_fit_is_not_a_violation() {
        let qm = QuotaManager::new();
        let scope = CacheScope::partition("s", "t", "p");
        qm.set_quota(scope.clone(), ByteSize::new(100));
        assert!(qm
            .first_violation(&scope, 40, usage(&[(&scope, 60)]))
            .is_none());
        assert!(qm
            .first_violation(&scope, 41, usage(&[(&scope, 60)]))
            .is_some());
    }

    #[test]
    fn custom_tenant_quota_is_enforced() {
        // §5.2's "custom tenants, offering flexibility for bespoke quota
        // configurations based on any logical grouping".
        let qm = QuotaManager::new();
        let tenant = CacheScope::custom("ml-training");
        qm.set_quota(tenant.clone(), ByteSize::new(500));
        assert!(qm
            .first_violation(&tenant, 400, usage(&[(&tenant, 0)]))
            .is_none());
        let v = qm
            .first_violation(&tenant, 200, usage(&[(&tenant, 400)]))
            .unwrap();
        // Custom tenants share like table scopes: random eviction inside.
        assert_eq!(v, QuotaViolation::SharedScope(tenant));
    }
}
