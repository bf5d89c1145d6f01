//! Property tests for the result cache (ROADMAP item 5(b) follow-through):
//!
//! * **Canonicalization soundness** — plans that differ only in commutative
//!   structure (aggregate order, And/Or operand order, nesting) fingerprint
//!   identically; plans that differ semantically fingerprint distinctly.
//! * **Cached ≡ recomputed under churn** — a cached engine and an uncached
//!   shadow sharing one catalog/store/clock stay bit-identical across random
//!   interleavings of queries, appends, rewrites, drops, and cache
//!   perturbations, while the scheduler/stats split accounting reconciles
//!   exactly.
//! * **Exact LRU** — the cache against a reference LRU (a `Vec` in recency
//!   order) over random inserts, probes, batch probes, invalidations,
//!   capacity changes and clears; a batch probe ≡ the same probes in turn.
#![cfg(test)]

use std::sync::Arc;
use std::time::Duration;

use edgecache_columnar::{ColfWriter, ColumnType, Predicate, Schema, Value};
use edgecache_common::clock::SimClock;
use edgecache_common::ByteSize;
use edgecache_storage::ObjectStore;
use proptest::prelude::*;

use crate::catalog::{Catalog, DataFile, PartitionDef, TableDef};
use crate::engine::{Engine, EngineConfig};
use crate::plan::{AggExpr, QueryPlan};
use crate::resultcache::{
    CanonicalQuery, Fingerprint, ResultCache, ResultCacheConfig, ResultCacheCounters,
};
use crate::worker::{PartialAgg, WorkerConfig};

fn cases() -> u32 {
    std::env::var("EDGECACHE_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

fn table_schema() -> Schema {
    Schema::new(vec![
        ("id", ColumnType::Int64),
        ("region", ColumnType::Utf8),
        ("amount", ColumnType::Float64),
    ])
}

// ---------------------------------------------------------------------------
// Canonicalization soundness
// ---------------------------------------------------------------------------

/// A small pool of predicates to combine.
fn leaf_pred(i: u8) -> Predicate {
    match i % 4 {
        0 => Predicate::Eq("region".into(), Value::Utf8("r1".into())),
        1 => Predicate::Gt("amount".into(), Value::Float64(10.5)),
        2 => Predicate::Lt("id".into(), Value::Int64(40)),
        _ => Predicate::Between("amount".into(), Value::Float64(1.0), Value::Float64(9.0)),
    }
}

fn agg_pool() -> Vec<AggExpr> {
    vec![
        AggExpr::count(),
        AggExpr::sum("amount"),
        AggExpr::avg("amount"),
        AggExpr::min("id"),
        AggExpr::max("amount"),
    ]
}

/// Builds a plan whose predicate chains `leaves` in the order given by
/// `order`, associated left or right, and whose aggregates are permuted by
/// `perm`.
fn shuffled_plan(
    leaves: &[u8],
    order: &[usize],
    left_assoc: bool,
    and_chain: bool,
    perm: &[usize],
) -> QueryPlan {
    let preds: Vec<Predicate> = order.iter().map(|&i| leaf_pred(leaves[i])).collect();
    let combine = |a: Predicate, b: Predicate| {
        if and_chain {
            a.and(b)
        } else {
            a.or(b)
        }
    };
    let chained = if left_assoc {
        let mut it = preds.into_iter();
        let first = it.next().unwrap();
        it.fold(first, combine)
    } else {
        let mut it = preds.into_iter().rev();
        let first = it.next().unwrap();
        it.fold(first, |acc, p| combine(p, acc))
    };
    let pool = agg_pool();
    let aggs: Vec<AggExpr> = perm.iter().map(|&i| pool[i].clone()).collect();
    QueryPlan::scan("sales", "orders", &[])
        .filter(chained)
        .aggregate(aggs)
        .group("region")
}

fn catalog_one_table() -> Arc<Catalog> {
    let catalog = Catalog::new();
    catalog.register(TableDef {
        schema_name: "sales".into(),
        table_name: "orders".into(),
        columns: table_schema(),
        partitions: vec![PartitionDef {
            name: "p0".into(),
            files: vec![DataFile {
                path: "/w/orders/p0/f0".into(),
                version: 1,
                length: 100,
            }],
        }],
    });
    Arc::new(catalog)
}

fn perm_strategy(n: usize) -> impl Strategy<Value = Vec<usize>> {
    // A seed vector shuffled Fisher–Yates style by index draws.
    proptest::collection::vec(0usize..1000, n).prop_map(move |draws| {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, draws[i] % (i + 1));
        }
        perm
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Commuting aggregate order, predicate operand order, and chain
    /// associativity never changes the fingerprint.
    #[test]
    fn equivalent_plans_fingerprint_equal(
        leaves in proptest::collection::vec(0u8..4, 2..4),
        rot_a in 0usize..4,
        rot_b in 0usize..4,
        assoc_a in (0u8..2).prop_map(|b| b == 1),
        assoc_b in (0u8..2).prop_map(|b| b == 1),
        and_chain in (0u8..2).prop_map(|b| b == 1),
        perm_a in perm_strategy(5),
        perm_b in perm_strategy(5),
    ) {
        let catalog = catalog_one_table();
        let k = leaves.len();
        // Same leaf multiset, rotated differently on each side.
        let mut oa: Vec<usize> = (0..k).collect();
        let mut ob: Vec<usize> = (0..k).collect();
        oa.rotate_left(rot_a % k);
        ob.rotate_left(rot_b % k);
        let a = shuffled_plan(&leaves, &oa, assoc_a, and_chain, &perm_a);
        let b = shuffled_plan(&leaves, &ob, assoc_b, and_chain, &perm_b);
        let ca = CanonicalQuery::of(&a).expect("aggregate plan is cacheable");
        let cb = CanonicalQuery::of(&b).expect("aggregate plan is cacheable");
        let fa = ca.fingerprint(&catalog).unwrap();
        let fb = cb.fingerprint(&catalog).unwrap();
        prop_assert_eq!(fa.as_str(), fb.as_str());
    }

    /// Changing a literal, the group key, the chain operator, or the
    /// aggregate set changes the fingerprint.
    #[test]
    fn mutated_plans_fingerprint_distinct(
        leaves in proptest::collection::vec(0u8..4, 2..4),
        perm in perm_strategy(5),
        mutation in 0u8..4,
    ) {
        let catalog = catalog_one_table();
        let order: Vec<usize> = (0..leaves.len()).collect();
        let base = shuffled_plan(&leaves, &order, true, true, &perm);
        let mutated = match mutation {
            0 => base.clone().filter(Predicate::Eq(
                "region".into(),
                Value::Utf8("r2".into()),
            )),
            1 => {
                let mut p = base.clone();
                p.group_by = None;
                p
            }
            2 => shuffled_plan(&leaves, &order, true, false, &perm),
            _ => {
                let mut p = base.clone();
                p.aggregates.push(AggExpr::sum("id"));
                p
            }
        };
        let fa = CanonicalQuery::of(&base).unwrap().fingerprint(&catalog).unwrap();
        let fb = CanonicalQuery::of(&mutated).unwrap().fingerprint(&catalog).unwrap();
        prop_assert_ne!(fa.as_str(), fb.as_str());
    }
}

// ---------------------------------------------------------------------------
// Cached ≡ recomputed under churn
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ChurnOp {
    /// Run query shape `q` on both engines and compare rows bit-for-bit.
    Query { q: u8 },
    /// Append a fresh file to a live partition.
    Append { p: u8 },
    /// Rewrite file 0 of a live partition under a bumped version.
    Rewrite { p: u8 },
    /// Drop a live partition (skipped when it would drop the last one).
    Drop { p: u8 },
    /// Clear the result cache outright.
    Clear,
    /// Shrink then restore the result-cache capacity.
    Thrash,
}

fn churn_op_strategy() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        6 => (0u8..6).prop_map(|q| ChurnOp::Query { q }),
        2 => (0u8..4).prop_map(|p| ChurnOp::Append { p }),
        2 => (0u8..4).prop_map(|p| ChurnOp::Rewrite { p }),
        1 => (0u8..4).prop_map(|p| ChurnOp::Drop { p }),
        1 => Just(ChurnOp::Clear),
        1 => Just(ChurnOp::Thrash),
    ]
}

/// Deterministic file content: a pure function of `(partition, file,
/// version)`, so a rewrite genuinely changes the answer.
fn file_bytes(partition: usize, file: usize, version: u64) -> bytes::Bytes {
    let mut w = ColfWriter::new(table_schema(), 16);
    let salt = (partition * 97 + file * 31) as i64 + version as i64 * 7;
    for i in 0..40i64 {
        let id = salt + i;
        w.push_row(vec![
            Value::Int64(id),
            Value::Utf8(format!("r{}", id.rem_euclid(3))),
            Value::Float64(id as f64 * 1.25 + version as f64 * 0.5),
        ])
        .unwrap();
    }
    w.finish().unwrap()
}

struct ChurnHarness {
    catalog: Arc<Catalog>,
    store: Arc<ObjectStore>,
    cached: Engine,
    shadow: Engine,
    /// (partition index, next file index, version of file 0)
    partitions: Vec<(usize, usize, u64)>,
    next_partition: usize,
}

impl ChurnHarness {
    fn new() -> Self {
        let clock = SimClock::new();
        let store = Arc::new(ObjectStore::new(Arc::new(clock.clone())));
        let catalog = Arc::new(Catalog::new());
        catalog.register(TableDef {
            schema_name: "sales".into(),
            table_name: "orders".into(),
            columns: table_schema(),
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
            .unwrap()
        };
        let cached = mk(ResultCacheConfig::enabled(ByteSize::mib(4)));
        let shadow = mk(ResultCacheConfig::default());
        let mut h = Self {
            catalog,
            store,
            cached,
            shadow,
            partitions: Vec::new(),
            next_partition: 0,
        };
        for _ in 0..2 {
            h.add_partition();
        }
        h
    }

    fn path(p: usize, f: usize) -> String {
        format!("/prop/olap/p{p}/f{f}.colf")
    }

    fn add_partition(&mut self) {
        let p = self.next_partition;
        self.next_partition += 1;
        let bytes = file_bytes(p, 0, 1);
        let path = Self::path(p, 0);
        self.store.put_object(&path, bytes.clone());
        self.catalog
            .add_partition(
                "sales",
                "orders",
                PartitionDef {
                    name: format!("p{p}"),
                    files: vec![DataFile {
                        path,
                        version: 1,
                        length: bytes.len() as u64,
                    }],
                },
            )
            .unwrap();
        self.partitions.push((p, 1, 1));
    }

    fn append(&mut self, pick: usize) {
        let idx = pick % self.partitions.len();
        let (p, next_file, _) = &mut self.partitions[idx];
        let f = *next_file;
        *next_file += 1;
        let p = *p;
        let bytes = file_bytes(p, f, 1);
        let path = Self::path(p, f);
        self.store.put_object(&path, bytes.clone());
        let name = format!("p{p}");
        let table = self.catalog.table("sales", "orders").unwrap();
        let mut files = table
            .partitions
            .iter()
            .find(|x| x.name == name)
            .cloned()
            .unwrap()
            .files;
        files.push(DataFile {
            path,
            version: 1,
            length: bytes.len() as u64,
        });
        self.catalog
            .add_partition("sales", "orders", PartitionDef { name, files })
            .unwrap();
    }

    fn rewrite(&mut self, pick: usize) {
        let idx = pick % self.partitions.len();
        let (p, _, version) = &mut self.partitions[idx];
        *version += 1;
        let (p, version) = (*p, *version);
        let bytes = file_bytes(p, 0, version);
        let path = Self::path(p, 0);
        self.store.put_object(&path, bytes.clone());
        self.catalog
            .rewrite_file(
                "sales",
                "orders",
                &format!("p{p}"),
                &path,
                version,
                bytes.len() as u64,
            )
            .unwrap();
    }

    fn drop_partition(&mut self, pick: usize) {
        if self.partitions.len() <= 1 {
            return;
        }
        let idx = pick % self.partitions.len();
        let (p, _, _) = self.partitions.remove(idx);
        self.catalog
            .drop_partition("sales", "orders", &format!("p{p}"))
            .unwrap();
    }

    fn plan(q: u8) -> QueryPlan {
        let base = QueryPlan::scan("sales", "orders", &[]);
        match q % 6 {
            0 => base.aggregate(vec![AggExpr::count()]),
            1 => base
                .aggregate(vec![AggExpr::sum("amount"), AggExpr::count()])
                .group("region"),
            // Shuffled-equivalent variant of shape 1: same fingerprint,
            // different plan order — exercises the permutation mapping.
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
            _ => base.aggregate(vec![
                AggExpr::sum("amount"),
                AggExpr::avg("amount"),
                AggExpr::min("amount"),
                AggExpr::max("amount"),
            ]),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases() / 4 + 4))]

    /// Under random churn the cached engine answers bit-identically to an
    /// uncached shadow, the per-query split accounting partitions exactly,
    /// and the cache's internal ledger stays consistent.
    #[test]
    fn cached_equals_recomputed_under_churn(
        ops in proptest::collection::vec(churn_op_strategy(), 12..40),
    ) {
        let mut h = ChurnHarness::new();
        let mut scheduled_total: u64 = 0;
        for op in &ops {
            match op {
                ChurnOp::Query { q } => {
                    let plan = ChurnHarness::plan(*q);
                    let a = h.cached.execute(&plan).unwrap();
                    let b = h.shadow.execute(&plan).unwrap();
                    prop_assert_eq!(
                        format!("{:?}", a.rows),
                        format!("{:?}", b.rows),
                        "cached and uncached rows diverged for shape {}",
                        q
                    );
                    prop_assert_eq!(
                        a.stats.splits_skipped + a.stats.splits_scheduled,
                        a.stats.splits
                    );
                    prop_assert_eq!(b.stats.splits_skipped, 0usize);
                    scheduled_total += a.stats.splits_scheduled as u64;
                }
                ChurnOp::Append { p } => h.append(*p as usize),
                ChurnOp::Rewrite { p } => h.rewrite(*p as usize),
                ChurnOp::Drop { p } => h.drop_partition(*p as usize),
                ChurnOp::Clear => {
                    h.cached.result_cache().unwrap().clear();
                }
                ChurnOp::Thrash => {
                    let rc = h.cached.result_cache().unwrap();
                    rc.set_capacity(ByteSize::new(256));
                    rc.set_capacity(ByteSize::mib(4));
                }
            }
            prop_assert!(
                h.cached.result_cache().unwrap().check_consistency().is_ok(),
                "result-cache ledger inconsistent after {:?}",
                op
            );
        }
        // Reconciliation: every split the cached engine reported as
        // scheduled was assigned by its scheduler, exactly once.
        prop_assert_eq!(scheduled_total, h.cached.scheduler().assigned_total());
        // Repeated queries after the churn settles: the second run must be
        // fully covered and still bit-identical.
        let plan = ChurnHarness::plan(1);
        let warm1 = h.cached.execute(&plan).unwrap();
        let warm2 = h.cached.execute(&plan).unwrap();
        let truth = h.shadow.execute(&plan).unwrap();
        prop_assert_eq!(warm2.stats.splits_skipped, warm2.stats.splits);
        prop_assert_eq!(format!("{:?}", warm1.rows), format!("{:?}", truth.rows));
        prop_assert_eq!(format!("{:?}", warm2.rows), format!("{:?}", truth.rows));
    }
}

// ---------------------------------------------------------------------------
// The result cache against a reference LRU
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum LruOp {
    /// Insert `file@version` under fingerprint `fp`, depending on its own
    /// file and, for `dim < 2`, on a dimension path too.
    Insert {
        fp: u8,
        file: u8,
        version: u8,
        dim: u8,
        n_aggs: u8,
        groups: u8,
    },
    Probe {
        fp: u8,
        file: u8,
        version: u8,
    },
    /// A split key that no file spells.
    ProbeMalformed {
        fp: u8,
    },
    ProbeAll {
        fp: u8,
        splits: Vec<(u8, u8)>,
    },
    /// Paths 0..5 are files, 5..7 dimensions.
    Invalidate {
        path: u8,
    },
    SetCapacity {
        bytes: u16,
    },
    Clear,
}

fn lru_op_strategy() -> impl Strategy<Value = LruOp> {
    prop_oneof![
        5 => (0u8..3, 0u8..5, 1u8..3, 0u8..4, 1u8..4, 1u8..4).prop_map(
            |(fp, file, version, dim, n_aggs, groups)| LruOp::Insert {
                fp, file, version, dim, n_aggs, groups,
            }
        ),
        4 => (0u8..3, 0u8..5, 1u8..3)
            .prop_map(|(fp, file, version)| LruOp::Probe { fp, file, version }),
        1 => (0u8..3).prop_map(|fp| LruOp::ProbeMalformed { fp }),
        4 => (0u8..3, proptest::collection::vec((0u8..5, 1u8..3), 0..8))
            .prop_map(|(fp, splits)| LruOp::ProbeAll { fp, splits }),
        1 => (0u8..7).prop_map(|path| LruOp::Invalidate { path }),
        1 => (0u16..2500).prop_map(|bytes| LruOp::SetCapacity { bytes }),
        1 => Just(LruOp::Clear),
    ]
}

fn model_path(path: u8) -> String {
    match path {
        0..5 => format!("/m/f{path}"),
        _ => format!("/m/dim{}", path - 5),
    }
}

/// One entry of the reference LRU.
struct ModelEntry {
    fp: String,
    path: String,
    version: u64,
    deps: Vec<String>,
    bytes: u64,
    /// `Debug` of the inserted partial: what a hit must hand back.
    value: String,
}

/// The reference: entries in a `Vec` from least to most recently used, a
/// byte budget, and the cache's five counters.
#[derive(Default)]
struct ModelLru {
    entries: Vec<ModelEntry>,
    capacity: u64,
    counters: ResultCacheCounters,
}

impl ModelLru {
    fn bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    fn evict(&mut self) {
        while self.bytes() > self.capacity && !self.entries.is_empty() {
            self.entries.remove(0);
            self.counters.evictions += 1;
        }
    }

    fn insert(&mut self, entry: ModelEntry) {
        self.entries
            .retain(|e| (&e.fp, &e.path, e.version) != (&entry.fp, &entry.path, entry.version));
        self.entries.push(entry);
        self.counters.inserts += 1;
        self.evict();
    }

    fn probe(&mut self, fp: &str, path: &str, version: u64) -> Option<String> {
        let at = self
            .entries
            .iter()
            .position(|e| (e.fp.as_str(), e.path.as_str(), e.version) == (fp, path, version));
        match at {
            Some(i) => {
                let entry = self.entries.remove(i);
                let value = entry.value.clone();
                self.entries.push(entry);
                self.counters.hits += 1;
                Some(value)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    fn invalidate(&mut self, path: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !e.deps.iter().any(|d| d == path));
        let dropped = before - self.entries.len();
        self.counters.invalidations += dropped as u64;
        dropped
    }

    fn clear(&mut self) {
        self.counters.invalidations += self.entries.len() as u64;
        self.entries.clear();
    }

    fn order(&self) -> Vec<(String, String, u64)> {
        let key = |e: &ModelEntry| (e.fp.clone(), e.path.clone(), e.version);
        self.entries.iter().map(key).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The result cache is an exact LRU: after every operation it holds the
    /// model's entries in the model's recency order (so the victims were the
    /// same, in the same order), its hits return the partial inserted last,
    /// its counters equal the model's, and its bookkeeping is consistent.
    /// One cache takes each batch probe as `probe_all`, a twin takes it as
    /// the same `probe`s in sequence, and both must match the model.
    #[test]
    fn result_cache_is_an_exact_lru(
        ops in proptest::collection::vec(lru_op_strategy(), 1..80),
        capacity in 200u16..2500,
    ) {
        let batch = ResultCache::new(ByteSize::new(u64::from(capacity)));
        let single = ResultCache::new(ByteSize::new(u64::from(capacity)));
        let mut model = ModelLru { capacity: u64::from(capacity), ..Default::default() };
        let fps: Vec<Fingerprint> =
            (0..3).map(|i| Fingerprint::new(&format!("q{i}"))).collect();
        let mut serial = 0;
        for op in &ops {
            match op {
                &LruOp::Insert { fp, file, version, dim, n_aggs, groups } => {
                    serial += 1;
                    let partial = Arc::new(PartialAgg::filler(
                        &format!("t{serial}"),
                        n_aggs.into(),
                        groups.into(),
                    ));
                    let path = model_path(file);
                    let mut deps = vec![path.clone()];
                    if dim < 2 {
                        deps.push(model_path(5 + dim));
                    }
                    model.insert(ModelEntry {
                        fp: fps[fp as usize].as_str().into(),
                        path: path.clone(),
                        version: version.into(),
                        deps: deps.clone(),
                        bytes: partial.approx_bytes(),
                        value: format!("{partial:?}"),
                    });
                    let split = (path.as_str(), u64::from(version));
                    batch.insert(&fps[fp as usize], split, deps.clone(), partial.clone());
                    single.insert(&fps[fp as usize], split, deps, partial);
                }
                &LruOp::Probe { fp, file, version } => {
                    let (fp, path) = (&fps[fp as usize], model_path(file));
                    let want = model.probe(fp.as_str(), &path, version.into());
                    let key = format!("{path}@{version}");
                    for cache in [&batch, &single] {
                        let got = cache.probe(fp, &key).map(|p| format!("{p:?}"));
                        prop_assert_eq!(&got, &want, "{:?}", op);
                    }
                }
                &LruOp::ProbeMalformed { fp } => {
                    model.counters.misses += 2;
                    for cache in [&batch, &single] {
                        prop_assert!(cache.probe(&fps[fp as usize], "/m/f0").is_none());
                        prop_assert!(cache.probe(&fps[fp as usize], "/m/f0@x").is_none());
                    }
                }
                LruOp::ProbeAll { fp, splits } => {
                    let fp = &fps[*fp as usize];
                    let paths: Vec<String> = splits.iter().map(|&(f, _)| model_path(f)).collect();
                    let want: Vec<Option<String>> = paths
                        .iter()
                        .zip(splits)
                        .map(|(path, &(_, v))| model.probe(fp.as_str(), path, v.into()))
                        .collect();
                    let mut out = vec![None; splits.len()];
                    let pairs = paths.iter().zip(splits).map(|(p, &(_, v))| (p.as_str(), v.into()));
                    batch.probe_all(fp, pairs, &mut out);
                    let got: Vec<Option<String>> =
                        out.iter().map(|p| p.as_ref().map(|p| format!("{p:?}"))).collect();
                    prop_assert_eq!(&got, &want, "{:?}", op);
                    let one_by_one: Vec<Option<String>> = paths
                        .iter()
                        .zip(splits)
                        .map(|(path, (_, v))| {
                            single.probe(fp, &format!("{path}@{v}")).map(|p| format!("{p:?}"))
                        })
                        .collect();
                    prop_assert_eq!(&one_by_one, &want, "{:?}", op);
                }
                &LruOp::Invalidate { path } => {
                    let want = model.invalidate(&model_path(path));
                    for cache in [&batch, &single] {
                        prop_assert_eq!(cache.invalidate_path(&model_path(path)), want);
                    }
                }
                &LruOp::SetCapacity { bytes } => {
                    model.capacity = bytes.into();
                    model.evict();
                    for cache in [&batch, &single] {
                        cache.set_capacity(ByteSize::new(bytes.into()));
                    }
                }
                LruOp::Clear => {
                    model.clear();
                    for cache in [&batch, &single] {
                        cache.clear();
                    }
                }
            }
            for cache in [&batch, &single] {
                prop_assert_eq!(cache.recency_order(), model.order(), "after {:?}", op);
                prop_assert_eq!(cache.counters(), model.counters, "after {:?}", op);
                prop_assert_eq!(cache.bytes(), model.bytes());
                prop_assert!(cache.check_consistency().is_ok(), "{:?}", cache.check_consistency());
            }
        }
    }
}
