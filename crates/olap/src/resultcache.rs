//! The query-fragment result cache (ROADMAP item 5(b), per "Semantic
//! Caching for OLAP"): repeated aggregations skip the page cache, the SSD,
//! and the remote store altogether.
//!
//! A [`QueryPlan`] is canonicalized — associative `AND`/`OR` chains are
//! flattened and their operands sorted, aggregates are sorted with the
//! permutation recorded, literals render by exact bit pattern, and
//! result-irrelevant parts (projection, partition pruning, `LIMIT`) are
//! dropped — into a stable [`Fingerprint`]. Cached values are **per-split
//! partial aggregates** keyed by `(fingerprint, path@version)`:
//!
//! * split granularity means two different queries over the same canonical
//!   shape share work split by split, and a partition append only re-scans
//!   the newly added files;
//! * the `path@version` half rides the exact invalidation discipline the
//!   metadata cache already uses, so file rewrites miss naturally and the
//!   catalog's stale-file listeners purge the garbage eagerly;
//! * join build sides are folded into the fingerprint as a `path@version`
//!   salt over the dimension tables' files, so a dimension rewrite changes
//!   the fingerprint (and the stale entries are dropped via the path
//!   index).
//!
//! The cache is byte-budgeted (estimated [`PartialAgg`] footprint) with exact
//! LRU eviction, and counts hits/misses/inserts/evictions/invalidations in a
//! [`MetricRegistry`]. A query probes all of its splits under one lock
//! acquisition: its fingerprint is hashed once, at construction, and looked
//! up once; each split is a `(path, version)` pair looked up in place.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use edgecache_columnar::{Predicate, Value};
use edgecache_common::error::{Error, Result};
use edgecache_common::hash::fnv1a64;
use edgecache_common::lru::RecencyList;
use edgecache_common::ByteSize;
use edgecache_metrics::{Counter, MetricRegistry};
use parking_lot::Mutex;

use crate::catalog::{Catalog, DataFile};
use crate::plan::{AggFunc, QueryPlan};
use crate::worker::PartialAgg;

/// Simulated coordinator CPU cost of probing the cache for one split
/// (a hash lookup plus an LRU touch).
pub const PROBE_NANOS_PER_SPLIT: u64 = 250;

/// Result-cache configuration. Disabled by default: the paper-reproduction
/// benches measure the *page* cache, and a result cache in front would
/// short-circuit the very scans they characterize.
#[derive(Debug, Clone)]
pub struct ResultCacheConfig {
    pub enabled: bool,
    /// Byte budget over the estimated partial-aggregate footprints.
    pub capacity: ByteSize,
}

impl Default for ResultCacheConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            capacity: ByteSize::mib(64),
        }
    }
}

impl ResultCacheConfig {
    /// An enabled cache with the given byte budget.
    pub fn enabled(capacity: ByteSize) -> Self {
        Self {
            enabled: true,
            capacity,
        }
    }
}

/// A canonical query identity: equal fingerprints guarantee bit-identical
/// aggregate semantics (the converse does not hold — canonicalization is
/// sound, not complete).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a of `text`, taken once: maps hash only this, and the derived
    /// equality compares it first (field order), the text only on a match.
    hash: u64,
    text: Arc<str>,
}

impl Fingerprint {
    pub(crate) fn new(text: &str) -> Self {
        let hash = fnv1a64(text.as_bytes());
        Self {
            hash,
            text: Arc::from(text),
        }
    }

    /// The full canonical text (exact; no collisions by construction).
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// A compact FNV-1a digest for display/annotation.
    pub fn hash64(&self) -> u64 {
        self.hash
    }
}

impl Hash for Fingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Renders a literal by exact bit pattern: floats by `to_bits`, so `NaN`
/// payloads and `0.0`/`-0.0` stay distinct (never equating plans whose
/// float semantics could diverge).
fn canon_value(v: &Value) -> String {
    match v {
        Value::Int64(x) => format!("i{x}"),
        Value::Float64(x) => format!("f{:x}", x.to_bits()),
        Value::Utf8(s) => format!("s{s:?}"),
        Value::Bool(b) => format!("b{b}"),
    }
}

/// Canonicalizes a predicate: associative `AND`/`OR` chains flatten into
/// sorted, deduplicated operand lists. Commuting conjunction/disjunction
/// operands never changes the matching row set *or its order* (rows keep
/// file order), so equal canonical forms accumulate floats identically.
fn canon_pred(p: &Predicate) -> String {
    match p {
        Predicate::Eq(c, v) => format!("eq({c},{})", canon_value(v)),
        Predicate::Lt(c, v) => format!("lt({c},{})", canon_value(v)),
        Predicate::Gt(c, v) => format!("gt({c},{})", canon_value(v)),
        Predicate::Between(c, lo, hi) => {
            format!("btw({c},{},{})", canon_value(lo), canon_value(hi))
        }
        Predicate::And(_, _) => {
            let mut ops = Vec::new();
            flatten_chain(p, true, &mut ops);
            ops.sort();
            ops.dedup();
            format!("and({})", ops.join(","))
        }
        Predicate::Or(_, _) => {
            let mut ops = Vec::new();
            flatten_chain(p, false, &mut ops);
            ops.sort();
            ops.dedup();
            format!("or({})", ops.join(","))
        }
    }
}

fn flatten_chain(p: &Predicate, conjunctive: bool, out: &mut Vec<String>) {
    match (p, conjunctive) {
        (Predicate::And(a, b), true) => {
            flatten_chain(a, true, out);
            flatten_chain(b, true, out);
        }
        (Predicate::Or(a, b), false) => {
            flatten_chain(a, false, out);
            flatten_chain(b, false, out);
        }
        _ => out.push(canon_pred(p)),
    }
}

/// `COUNT` ignores its column (it counts rows), so every `COUNT` spelling
/// canonicalizes the same.
fn agg_token(func: AggFunc, column: &str) -> String {
    match func {
        AggFunc::Count => "cnt".to_string(),
        AggFunc::Sum => format!("sum({column})"),
        AggFunc::Min => format!("min({column})"),
        AggFunc::Max => format!("max({column})"),
        AggFunc::Avg => format!("avg({column})"),
    }
}

/// The canonical form of a cacheable query plan, plus the permutations
/// between plan-order and canonical-order aggregate states.
#[derive(Debug, Clone)]
pub struct CanonicalQuery {
    /// Canonical rendering of table/predicate/joins/aggregates/group-by.
    text: String,
    /// Join dimension tables, plan order (join application order matters
    /// when dimensions expose clashing column names, so it is *not*
    /// normalized away).
    dims: Vec<(String, String)>,
    /// `canonical position i` holds the plan aggregate `canon_from_plan[i]`.
    canon_from_plan: Vec<usize>,
    /// `plan position j` holds the canonical aggregate `plan_from_canon[j]`.
    plan_from_canon: Vec<usize>,
}

impl CanonicalQuery {
    /// Canonicalizes `plan`, or `None` when the query is not cacheable
    /// (only aggregations are: projection queries return raw rows whose
    /// footprint defeats the purpose).
    pub fn of(plan: &QueryPlan) -> Option<Self> {
        if plan.aggregates.is_empty() {
            return None;
        }
        let mut order: Vec<usize> = (0..plan.aggregates.len()).collect();
        let tokens: Vec<String> = plan
            .aggregates
            .iter()
            .map(|a| agg_token(a.func, &a.column))
            .collect();
        order.sort_by(|&a, &b| tokens[a].cmp(&tokens[b]));
        let canon_from_plan = order;
        let mut plan_from_canon = vec![0usize; canon_from_plan.len()];
        for (canon, &plan_idx) in canon_from_plan.iter().enumerate() {
            plan_from_canon[plan_idx] = canon;
        }

        let mut text = format!("t={}.{};", plan.schema, plan.table);
        text.push_str("p=");
        match &plan.predicate {
            Some(p) => text.push_str(&canon_pred(p)),
            None => text.push('-'),
        }
        text.push_str(";j=[");
        let mut dims = Vec::with_capacity(plan.joins.len());
        for (i, j) in plan.joins.iter().enumerate() {
            if i > 0 {
                text.push(';');
            }
            let filter = match &j.dim_filter {
                Some(f) => canon_pred(f),
                None => "-".to_string(),
            };
            text.push_str(&format!(
                "{}.{}:{}->{}:cols=[{}]:f={}",
                j.dim_schema,
                j.dim_table,
                j.fact_key,
                j.dim_key,
                j.dim_columns.join(","),
                filter
            ));
            dims.push((j.dim_schema.clone(), j.dim_table.clone()));
        }
        text.push_str("];a=[");
        for (i, &plan_idx) in canon_from_plan.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            text.push_str(&tokens[plan_idx]);
        }
        text.push_str("];g=");
        match &plan.group_by {
            Some(g) => text.push_str(g),
            None => text.push('-'),
        }

        Some(Self {
            text,
            dims,
            canon_from_plan,
            plan_from_canon,
        })
    }

    /// Stamps the canonical text with the join build sides' current
    /// `path@version` sets, producing the probe/insert fingerprint: a
    /// dimension-file rewrite or version bump changes the fingerprint, so
    /// stale entries can never be probed.
    pub fn fingerprint(&self, catalog: &Catalog) -> Result<Fingerprint> {
        let mut text = self.text.clone();
        text.push_str(";d=[");
        for (i, (schema, table)) in self.dims.iter().enumerate() {
            if i > 0 {
                text.push(';');
            }
            let def = catalog.table(schema, table)?;
            let mut files: Vec<String> = def.files().map(|(_, f)| split_key(f)).collect();
            files.sort();
            text.push_str(&format!("{schema}.{table}=[{}]", files.join(",")));
        }
        text.push(']');
        Ok(Fingerprint::new(&text))
    }

    /// The paths of the join build sides' files (for the invalidation
    /// index), resolved against the catalog.
    pub fn dim_paths(&self, catalog: &Catalog) -> Result<Vec<String>> {
        let mut out = Vec::new();
        for (schema, table) in &self.dims {
            let def = catalog.table(schema, table)?;
            out.extend(def.files().map(|(_, f)| f.path.clone()));
        }
        Ok(out)
    }

    /// A plan-order partial in canonical aggregate order.
    pub fn to_canonical(&self, partial: &PartialAgg) -> PartialAgg {
        let mut canonical = PartialAgg::new(partial.n_aggs());
        canonical.merge(partial, Some(&self.canon_from_plan));
        canonical
    }

    /// The permutation that merges a canonical-order partial into plan
    /// aggregate order (see [`PartialAgg::merge`]).
    pub fn plan_order(&self) -> &[usize] {
        &self.plan_from_canon
    }
}

/// A split's file as a `path@version` key: the result cache's split, the
/// footer metadata cache's key, and the dimension salt of a fingerprint.
pub fn split_key(file: &DataFile) -> String {
    format!("{}@{}", file.path, file.version)
}

/// One fingerprint's entries: path → `(version, slot)` of each version
/// cached, so a probe looks a borrowed `(path, version)` up in place.
type Splits = HashMap<Box<str>, Vec<(u64, usize)>>;

fn find(splits: &Splits, (path, version): (&str, u64)) -> Option<usize> {
    let versions = splits.get(path)?;
    versions
        .iter()
        .find(|&&(v, _)| v == version)
        .map(|&(_, i)| i)
}

struct Entry {
    fingerprint: Fingerprint,
    path: Box<str>,
    version: u64,
    partial: Arc<PartialAgg>,
    bytes: u64,
    /// Paths this entry depends on (the split's own file plus the join
    /// build sides' files): any of them going stale drops the entry.
    paths: Vec<String>,
}

#[derive(Default)]
struct Inner {
    /// Fingerprint → its entries: a query looks its fingerprint up once.
    index: HashMap<Fingerprint, Splits>,
    /// The entries, least recently used first; a slot is an entry's id.
    slab: RecencyList<Entry>,
    /// Path → slots of the entries depending on it (all fingerprints, all
    /// versions).
    by_path: HashMap<String, HashSet<usize>>,
    bytes: u64,
    capacity: u64,
}

impl Inner {
    /// Drops one entry from the slab, the index, the path index and the
    /// byte ledger.
    fn remove(&mut self, i: usize) {
        let entry = self.slab.remove(i);
        self.bytes -= entry.bytes;
        let splits = self.index.get_mut(&entry.fingerprint).expect("indexed");
        let versions = splits.get_mut(&entry.path).expect("indexed");
        versions.retain(|&(_, slot)| slot != i);
        if versions.is_empty() {
            splits.remove(&entry.path);
            if splits.is_empty() {
                self.index.remove(&entry.fingerprint);
            }
        }
        for path in &entry.paths {
            if let Some(set) = self.by_path.get_mut(path) {
                set.remove(&i);
                if set.is_empty() {
                    self.by_path.remove(path);
                }
            }
        }
    }

    /// Evicts least recently used entries until the byte budget holds.
    fn evict_to_capacity(&mut self) -> u64 {
        let mut evicted = 0;
        while self.bytes > self.capacity {
            let Some(i) = self.slab.oldest() else { break };
            self.remove(i);
            evicted += 1;
        }
        evicted
    }
}

/// Point-in-time counter values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

impl ResultCacheCounters {
    /// Deltas since `earlier`.
    pub fn minus(&self, earlier: &Self) -> Self {
        Self {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
            invalidations: self.invalidations - earlier.invalidations,
        }
    }
}

/// The byte-budgeted, LRU-evicted result cache.
pub struct ResultCache {
    inner: Mutex<Inner>,
    metrics: MetricRegistry,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
}

impl ResultCache {
    /// Creates a cache with the given byte budget.
    pub fn new(capacity: ByteSize) -> Self {
        let metrics = MetricRegistry::new("resultcache");
        Self {
            inner: Mutex::new(Inner {
                capacity: capacity.as_u64(),
                ..Default::default()
            }),
            hits: metrics.counter("hits"),
            misses: metrics.counter("misses"),
            inserts: metrics.counter("inserts"),
            evictions: metrics.counter("evictions"),
            invalidations: metrics.counter("invalidations"),
            metrics,
        }
    }

    /// Looks up one split's partial (`split` as [`split_key`] spells it)
    /// for a fingerprint, refreshing its recency on a hit: the one-split
    /// case of the batch probe a query makes.
    pub fn probe(&self, fp: &Fingerprint, split: &str) -> Option<Arc<PartialAgg>> {
        let mut out = [None];
        let pair = split.rsplit_once('@');
        match pair.and_then(|(path, version)| Some((path, version.parse().ok()?))) {
            Some(split) => self.probe_all(fp, [split], &mut out),
            None => self.misses.inc(),
        }
        let [partial] = out;
        partial
    }

    /// Looks up every split of a query — `(path, version)` pairs — under one
    /// lock acquisition, writing split `i`'s partial to `out[i]`. Hits
    /// refresh recency in split order, exactly as the same probes one by
    /// one would.
    pub(crate) fn probe_all<'s>(
        &self,
        fp: &Fingerprint,
        splits: impl IntoIterator<Item = (&'s str, u64)>,
        out: &mut [Option<Arc<PartialAgg>>],
    ) {
        let (mut hits, mut misses) = (0, 0);
        let mut inner = self.inner.lock();
        let Inner { index, slab, .. } = &mut *inner;
        let entries = index.get(fp);
        for (slot, split) in out.iter_mut().zip(splits) {
            *slot = entries
                .and_then(|e| find(e, split))
                .map(|i| Arc::clone(&slab.touch(i).partial));
            hits += u64::from(slot.is_some());
            misses += u64::from(slot.is_none());
        }
        drop(inner);
        self.hits.add(hits);
        self.misses.add(misses);
    }

    /// Inserts one split's partial (canonical aggregate order), indexed
    /// under every path it depends on, then evicts LRU entries until the
    /// byte budget holds again.
    pub fn insert(
        &self,
        fp: &Fingerprint,
        (path, version): (&str, u64),
        paths: Vec<String>,
        partial: Arc<PartialAgg>,
    ) {
        let bytes = partial.approx_bytes();
        let mut inner = self.inner.lock();
        if let Some(i) = inner.index.get(fp).and_then(|e| find(e, (path, version))) {
            inner.remove(i);
        }
        let i = inner.slab.push(Entry {
            fingerprint: fp.clone(),
            path: path.into(),
            version,
            partial,
            bytes,
            paths,
        });
        let versions = inner.index.entry(fp.clone()).or_default();
        versions.entry(path.into()).or_default().push((version, i));
        let Inner { slab, by_path, .. } = &mut *inner;
        for path in &slab.get(i).expect("just pushed").paths {
            by_path.entry(path.clone()).or_default().insert(i);
        }
        inner.bytes += bytes;
        self.inserts.inc();
        self.evictions.add(inner.evict_to_capacity());
    }

    /// Drops every entry depending on `path` (any version, any
    /// fingerprint). Over-invalidation is always safe; rewrites call this
    /// through the catalog's stale-file listeners.
    pub fn invalidate_path(&self, path: &str) -> usize {
        let mut inner = self.inner.lock();
        let slots: Vec<usize> = inner
            .by_path
            .get(path)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default();
        for &i in &slots {
            inner.remove(i);
        }
        self.invalidations.add(slots.len() as u64);
        slots.len()
    }

    /// Drops everything (counted as invalidations).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        self.invalidations.add(inner.slab.len() as u64);
        *inner = Inner {
            capacity: inner.capacity,
            ..Default::default()
        };
    }

    /// Adjusts the byte budget, evicting down if it shrank.
    pub fn set_capacity(&self, capacity: ByteSize) {
        let mut inner = self.inner.lock();
        inner.capacity = capacity.as_u64();
        self.evictions.add(inner.evict_to_capacity());
    }

    /// Number of cached split partials.
    pub fn len(&self) -> usize {
        self.inner.lock().slab.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated resident bytes.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// The metric registry (hits/misses/inserts/evictions/invalidations).
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// Point-in-time counter values.
    pub fn counters(&self) -> ResultCacheCounters {
        ResultCacheCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
            inserts: self.inserts.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
        }
    }

    /// Validates internal bookkeeping (tests and the simtest oracle): the
    /// recency list links every entry exactly once, both ways; the index
    /// maps each entry's key to its slot and nothing else; the byte ledger
    /// is exact; the path index is bidirectional.
    pub fn check_consistency(&self) -> Result<()> {
        let inner = self.inner.lock();
        let fail = |what: String| Err(Error::Other(format!("resultcache: {what}")));
        let (slab, live) = (&inner.slab, inner.slab.len());
        slab.check().or_else(fail)?;
        let indexed: usize = inner
            .index
            .values()
            .flat_map(|e| e.values())
            .map(Vec::len)
            .sum();
        if indexed != live {
            return fail(format!("{live} entries, {indexed} indexed"));
        }
        for (fp, splits) in &inner.index {
            for (path, versions) in splits {
                let owns = |(v, i): &(u64, usize)| {
                    slab.get(*i)
                        .is_some_and(|e| (&e.fingerprint, &e.path, e.version) == (fp, path, *v))
                };
                if !versions.iter().all(owns) {
                    return fail("index points at ghost".into());
                }
            }
        }
        let booked: u64 = slab.iter().map(|e| e.bytes).sum();
        if booked != inner.bytes {
            return fail(format!("ledger {} != summed {booked}", inner.bytes));
        }
        if inner.bytes > inner.capacity && live > 1 {
            return fail(format!("{} bytes over {}", inner.bytes, inner.capacity));
        }
        for (path, slots) in &inner.by_path {
            if !slots
                .iter()
                .all(|&i| slab.get(i).is_some_and(|e| e.paths.contains(path)))
            {
                return fail(format!("path index `{path}` points at ghost"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl ResultCache {
    /// Every entry as `(fingerprint, path, version)`, least recently used
    /// first.
    pub(crate) fn recency_order(&self) -> Vec<(String, String, u64)> {
        let inner = self.inner.lock();
        let entry = |e: &Entry| (e.fingerprint.as_str().into(), e.path.to_string(), e.version);
        inner.slab.iter().map(entry).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggExpr;

    fn plan() -> QueryPlan {
        QueryPlan::scan("s", "t", &[])
            .filter(
                Predicate::Eq("a".into(), Value::Int64(1))
                    .and(Predicate::Gt("b".into(), Value::Float64(2.5))),
            )
            .aggregate(vec![AggExpr::sum("x"), AggExpr::count()])
            .group("g")
    }

    #[test]
    fn commuted_predicates_and_aggregates_fingerprint_equal() {
        let catalog = Catalog::new();
        catalog.register(crate::catalog::TableDef {
            schema_name: "s".into(),
            table_name: "t".into(),
            columns: edgecache_columnar::Schema::default(),
            partitions: vec![],
        });
        let a = plan();
        let b = QueryPlan::scan("s", "t", &["x"])
            .filter(
                Predicate::Gt("b".into(), Value::Float64(2.5))
                    .and(Predicate::Eq("a".into(), Value::Int64(1))),
            )
            .aggregate(vec![AggExpr::count(), AggExpr::sum("x")])
            .group("g")
            .take(5);
        let ca = CanonicalQuery::of(&a).unwrap();
        let cb = CanonicalQuery::of(&b).unwrap();
        assert_eq!(
            ca.fingerprint(&catalog).unwrap(),
            cb.fingerprint(&catalog).unwrap()
        );
        // And the permutations map each plan's own order correctly.
        assert_ne!(ca.canon_from_plan, cb.canon_from_plan);
    }

    #[test]
    fn different_literals_fingerprint_distinct() {
        let a = CanonicalQuery::of(&plan()).unwrap();
        let mut other = plan();
        other.predicate = Some(
            Predicate::Eq("a".into(), Value::Int64(2))
                .and(Predicate::Gt("b".into(), Value::Float64(2.5))),
        );
        let b = CanonicalQuery::of(&other).unwrap();
        assert_ne!(a.text, b.text);
    }

    #[test]
    fn projection_partitions_and_limit_are_normalized_away() {
        let a = CanonicalQuery::of(&plan()).unwrap();
        let b = CanonicalQuery::of(&plan().in_partitions(&["2024-01-01"]).take(3)).unwrap();
        assert_eq!(a.text, b.text);
    }

    #[test]
    fn non_aggregate_plans_are_not_cacheable() {
        assert!(CanonicalQuery::of(&QueryPlan::scan("s", "t", &["a"])).is_none());
    }

    #[test]
    fn nested_chains_flatten() {
        let p1 = Predicate::Eq("a".into(), Value::Int64(1))
            .and(Predicate::Eq("b".into(), Value::Int64(2)))
            .and(Predicate::Eq("c".into(), Value::Int64(3)));
        let p2 = Predicate::Eq("c".into(), Value::Int64(3)).and(
            Predicate::Eq("b".into(), Value::Int64(2))
                .and(Predicate::Eq("a".into(), Value::Int64(1))),
        );
        assert_eq!(canon_pred(&p1), canon_pred(&p2));
        // Mixed trees do not flatten across the operator boundary.
        let or1 = Predicate::Eq("a".into(), Value::Int64(1))
            .or(Predicate::Eq("b".into(), Value::Int64(2)));
        let and_of_or = or1.clone().and(Predicate::Eq("c".into(), Value::Int64(3)));
        assert!(canon_pred(&and_of_or).contains("or("));
    }

    #[test]
    fn float_literals_are_bit_exact() {
        let eq = |v: f64| canon_pred(&Predicate::Eq("a".into(), Value::Float64(v)));
        assert_ne!(eq(0.0), eq(-0.0));
        assert_eq!(eq(1.5), eq(1.5));
    }

    fn partial(n: usize) -> Arc<PartialAgg> {
        // A count-only partial whose footprint is stable.
        Arc::new(PartialAgg::new(n))
    }

    fn fp(tag: &str) -> Fingerprint {
        Fingerprint::new(tag)
    }

    #[test]
    fn probe_hit_miss_and_lru_eviction() {
        let cache = ResultCache::new(ByteSize::new(3 * partial(1).approx_bytes()));
        assert!(cache.probe(&fp("q"), "/f1@1").is_none());
        cache.insert(&fp("q"), ("/f1", 1), vec!["/f1".into()], partial(1));
        cache.insert(&fp("q"), ("/f2", 1), vec!["/f2".into()], partial(1));
        cache.insert(&fp("q"), ("/f3", 1), vec!["/f3".into()], partial(1));
        assert_eq!(cache.len(), 3);
        // Touch f1 so f2 becomes LRU, then overflow.
        assert!(cache.probe(&fp("q"), "/f1@1").is_some());
        cache.insert(&fp("q"), ("/f4", 1), vec!["/f4".into()], partial(1));
        assert_eq!(cache.len(), 3);
        assert!(cache.probe(&fp("q"), "/f2@1").is_none(), "f2 was LRU");
        assert!(cache.probe(&fp("q"), "/f1@1").is_some());
        let c = cache.counters();
        assert_eq!(c.inserts, 4);
        assert_eq!(c.evictions, 1);
        cache.check_consistency().unwrap();
    }

    #[test]
    fn invalidate_path_drops_all_dependents() {
        let cache = ResultCache::new(ByteSize::mib(1));
        cache.insert(&fp("q1"), ("/f1", 1), vec!["/f1".into()], partial(1));
        cache.insert(&fp("q2"), ("/f1", 1), vec!["/f1".into()], partial(1));
        cache.insert(&fp("q1"), ("/f1", 2), vec!["/f1".into()], partial(1));
        cache.insert(
            &fp("q3"),
            ("/f2", 1),
            vec!["/f2".into(), "/dim".into()],
            partial(1),
        );
        assert_eq!(cache.invalidate_path("/f1"), 3);
        assert_eq!(cache.len(), 1);
        // Dimension dependency drops the entry too.
        assert_eq!(cache.invalidate_path("/dim"), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.counters().invalidations, 4);
        cache.check_consistency().unwrap();
    }

    #[test]
    fn shrinking_capacity_evicts_down() {
        let cache = ResultCache::new(ByteSize::mib(1));
        for i in 0..8 {
            cache.insert(
                &fp("q"),
                (&format!("/f{i}"), 1),
                vec![format!("/f{i}")],
                partial(2),
            );
        }
        let one = partial(2).approx_bytes();
        cache.set_capacity(ByteSize::new(2 * one));
        assert_eq!(cache.len(), 2);
        assert!(cache.bytes() <= 2 * one);
        cache.check_consistency().unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn reinserting_a_key_replaces_it() {
        let cache = ResultCache::new(ByteSize::mib(1));
        cache.insert(&fp("q"), ("/f", 1), vec!["/f".into()], partial(1));
        cache.insert(&fp("q"), ("/f", 1), vec!["/f".into()], partial(3));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), partial(3).approx_bytes());
        assert_eq!(cache.probe(&fp("q"), "/f@1").unwrap().n_aggs(), 3);
        cache.check_consistency().unwrap();
    }
}
