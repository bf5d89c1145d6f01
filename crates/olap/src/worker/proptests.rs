//! Property test: the columnar scan pipeline ≡ the row-at-a-time interpreter
//! it replaced, which survives here as the reference — every row boxed into
//! `Value`s, every column found by name, `Predicate::matches` per row, one
//! `BTreeMap` walk and `to_string()` per accumulated row.
//!
//! Random star-schema worlds (a two-file fact table, 0–2 dimensions with
//! duplicate and missing keys, a dimension column shadowing a fact column)
//! meet random plans (group keys of every type, SUM/AVG over
//! Int64/Float64/Bool, MIN/MAX with NaN and Utf8, a Utf8 column under SUM, a
//! Utf8 fact key, `dim_filter`s, literals of the wrong type). Per split the
//! pipeline's `SplitOutput` must equal the reference's — every `f64` by
//! `to_bits()`, errors by their text — and the engine's merged answer must
//! equal the reference partials merged in split order.
//!
//! A second shape aims at the `Utf8` coded form: a fact text column whose
//! row groups meet its texts in different orders (so every row group has
//! its own dictionary order) and dimensions with duplicate texts, under
//! GROUP BY, MIN/MAX and filters on those columns.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use edgecache_columnar::{ColfReader, ColfWriter, ColumnType, Predicate, Schema, Value};
use edgecache_common::clock::SimClock;
use edgecache_common::error::{Error, Result};
use edgecache_common::ByteSize;
use edgecache_storage::ObjectStore;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{AggState, PartialAgg, WorkerConfig};
use crate::catalog::{Catalog, DataFile, PartitionDef, TableDef};
use crate::engine::{Engine, EngineConfig};
use crate::plan::{AggExpr, AggFunc, JoinClause, QueryPlan};

fn cases() -> u32 {
    std::env::var("EDGECACHE_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96)
}

// ---------------------------------------------------------------------------
// The reference: the old interpreter, one row at a time
// ---------------------------------------------------------------------------

/// A build side as the old coordinator shaped it: key → the row's
/// `(name, value)` pairs, the last duplicate key winning.
struct RefJoin {
    fact_key: String,
    map: HashMap<i64, Vec<(String, Value)>>,
}

#[derive(Default)]
struct RefOutput {
    groups: Option<BTreeMap<Option<String>, Vec<AggState>>>,
    rows: Vec<Vec<Value>>,
    rows_scanned: u64,
    cpu_stages: BTreeMap<&'static str, Duration>,
}

fn ref_update(state: &mut AggState, v: Option<&Value>) -> Result<()> {
    let numeric = |v: Option<&Value>| match v {
        Some(Value::Int64(x)) => Ok(*x as f64),
        Some(Value::Float64(x)) => Ok(*x),
        Some(Value::Bool(b)) => Ok(*b as u8 as f64),
        Some(Value::Utf8(_)) | None => Err(Error::InvalidArgument(
            "non-numeric value in numeric aggregate".into(),
        )),
    };
    let (cur, better) = match state {
        AggState::Count(n) => {
            *n += 1;
            return Ok(());
        }
        AggState::Sum(s) => {
            *s += numeric(v)?;
            return Ok(());
        }
        AggState::Avg { sum, n } => {
            *sum += numeric(v)?;
            *n += 1;
            return Ok(());
        }
        AggState::Min(cur) => (cur, std::cmp::Ordering::Less),
        AggState::Max(cur) => (cur, std::cmp::Ordering::Greater),
    };
    if let Some(v) = v {
        let replace = match cur {
            None => true,
            Some(c) => v.partial_cmp_same_type(c) == Some(better),
        };
        if replace {
            *cur = Some(v.clone());
        }
    }
    Ok(())
}

/// The old build: scan the dimension file (statistics pruning included —
/// the build side is an ordinary filtered scan), keep rows passing the
/// `dim_filter`, let the last duplicate key win.
fn ref_dimension(file: &Bytes, clause: &JoinClause) -> RefJoin {
    let colf = ColfReader::open(file.clone()).unwrap();
    let at = |name: &str| colf.schema().index_of(name).unwrap();
    let all: Vec<usize> = (0..colf.schema().columns.len()).collect();
    let mut map = HashMap::new();
    for rg in colf.prune(clause.dim_filter.as_ref()) {
        let columns = colf.read_row_group(rg, &all).unwrap();
        for row in 0..columns[0].len() {
            let value_of = |name: &str| Some(columns[colf.schema().index_of(name)?].value(row));
            if clause
                .dim_filter
                .as_ref()
                .is_some_and(|f| !f.matches(&value_of))
            {
                continue;
            }
            let Value::Int64(key) = columns[at(&clause.dim_key)].value(row) else {
                panic!("dimension keys are int64 in this test");
            };
            let exposed = clause.dim_columns.iter();
            map.insert(
                key,
                exposed
                    .map(|n| (n.clone(), columns[at(n)].value(row)))
                    .collect(),
            );
        }
    }
    RefJoin {
        fact_key: clause.fact_key.clone(),
        map,
    }
}

fn ref_split(
    file: &Bytes,
    path: &str,
    plan: &QueryPlan,
    joins: &[RefJoin],
    config: &WorkerConfig,
) -> Result<RefOutput> {
    let colf = ColfReader::open(file.clone())?;
    let needed = plan.required_columns();
    let mut proj = Vec::new();
    for name in &needed {
        proj.push(colf.schema().index_of(name).ok_or_else(|| {
            Error::InvalidArgument(format!("unknown column `{name}` in `{path}`"))
        })?);
    }
    let mut out = RefOutput {
        groups: (!plan.aggregates.is_empty()).then(BTreeMap::new),
        ..Default::default()
    };
    let mut charge = |stage, nanos: u64| {
        if nanos > 0 {
            *out.cpu_stages.entry(stage).or_default() += Duration::from_nanos(nanos);
        }
    };
    for rg in colf.prune(plan.predicate.as_ref()) {
        let meta = &colf.metadata().row_groups[rg];
        let rows = meta.rows;
        let decoded = colf.read_row_group(rg, &proj)?;
        out.rows_scanned += rows;
        let bytes: u64 = proj.iter().map(|&c| meta.chunks[c].len).sum();
        charge("cpu.decode", bytes * config.decode_nanos_per_byte);
        charge(
            "cpu.join_probe",
            rows * joins.len() as u64 * config.join_probe_nanos_per_row,
        );
        if plan.predicate.is_some() {
            charge("cpu.filter", rows * config.filter_nanos_per_row);
        }
        let find = |name: &str| needed.iter().position(|n| n == name).map(|i| &decoded[i]);
        for row in 0..rows as usize {
            let mut dim_values: Vec<(&str, Value)> = Vec::new();
            let mut dropped = false;
            for join in joins {
                let key_col = find(&join.fact_key).ok_or_else(|| {
                    Error::InvalidArgument(format!("join key `{}` not read", join.fact_key))
                })?;
                let key = match key_col.value(row) {
                    Value::Int64(k) => k,
                    other => {
                        return Err(Error::InvalidArgument(format!(
                            "join key `{}` must be int64, got {}",
                            join.fact_key,
                            other.column_type()
                        )))
                    }
                };
                match join.map.get(&key) {
                    Some(vals) => {
                        dim_values.extend(vals.iter().map(|(n, v)| (n.as_str(), v.clone())))
                    }
                    None => {
                        dropped = true;
                        break;
                    }
                }
            }
            if dropped {
                continue;
            }
            let value_of = |name: &str| -> Option<Value> {
                let dim = dim_values.iter().find(|(n, _)| *n == name);
                dim.map(|(_, v)| v.clone())
                    .or_else(|| find(name).map(|d| d.value(row)))
            };
            if plan
                .predicate
                .as_ref()
                .is_some_and(|p| !p.matches(&value_of))
            {
                continue;
            }
            let Some(groups) = &mut out.groups else {
                let values = plan.projection.iter().map(|n| value_of(n).unwrap());
                out.rows.push(values.collect());
                continue;
            };
            let key = plan
                .group_by
                .as_ref()
                .map(|g| value_of(g).unwrap().to_string());
            let states = groups.entry(key).or_insert_with(|| {
                let aggs = plan.aggregates.iter();
                aggs.map(|a| AggState::new(a.func)).collect()
            });
            for (state, agg) in states.iter_mut().zip(&plan.aggregates) {
                let v = (!agg.column.is_empty()).then(|| value_of(&agg.column).unwrap());
                ref_update(state, v.as_ref())?;
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Bit-exact renderings
// ---------------------------------------------------------------------------

fn value_bits(v: &Value) -> String {
    match v {
        Value::Float64(x) => format!("f{:016x}", x.to_bits()),
        other => format!("{other:?}"),
    }
}

fn rows_bits(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let row_bits = |row: &Vec<Value>| row.iter().map(value_bits).collect();
    rows.iter().map(row_bits).collect()
}

fn groups_bits(
    groups: &BTreeMap<Option<String>, Vec<AggState>>,
) -> Vec<(Option<String>, Vec<String>)> {
    let state_bits = |state: &AggState| match state {
        AggState::Count(n) => format!("count {n}"),
        AggState::Sum(s) => format!("sum {:016x}", s.to_bits()),
        AggState::Avg { sum, n } => format!("avg {:016x}/{n}", sum.to_bits()),
        AggState::Min(v) => format!("min {:?}", v.as_ref().map(value_bits)),
        AggState::Max(v) => format!("max {:?}", v.as_ref().map(value_bits)),
    };
    let group_bits = |(key, states): (&Option<String>, &Vec<AggState>)| {
        (key.clone(), states.iter().map(state_bits).collect())
    };
    groups.iter().map(group_bits).collect()
}

// ---------------------------------------------------------------------------
// Random worlds and plans
// ---------------------------------------------------------------------------

const FLOATS: [f64; 8] = [
    f64::NAN,
    -0.0,
    0.0,
    1.5,
    -2.25,
    0.1,
    1e300,
    f64::NEG_INFINITY,
];
/// 2^53 + 1 and its neighbours: summing them as integers and converting
/// once differs from converting each and summing floats.
const INTS: [i64; 6] = [-2, 0, 1, 3, 9_007_199_254_740_993, i64::MAX];
const TEXTS: [&str; 4] = ["", "a", "ab", "b"];

fn pick<T: Clone>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.random_range(0..from.len())].clone()
}

fn value(rng: &mut StdRng, ty: ColumnType) -> Value {
    match ty {
        ColumnType::Int64 => Value::Int64(pick(rng, &INTS)),
        // A second NaN, of the other sign and with a payload.
        ColumnType::Float64 => Value::Float64(match rng.random_range(0..12) {
            0 => f64::from_bits(0xfff8_0000_0000_0001),
            _ => pick(rng, &FLOATS),
        }),
        // Mostly few distinct texts (literals hit, groups fill), sometimes
        // enough of them to collide in the group memo.
        ColumnType::Utf8 => Value::Utf8(match rng.random_range(0..3) {
            0 => format!("t{}", rng.random_range(0..48)),
            _ => pick(rng, &TEXTS).to_string(),
        }),
        ColumnType::Bool => Value::Bool(rng.random()),
    }
}

/// The fact table: two join keys (`k2` is Utf8 in some worlds — an error
/// once a row reaches its join), one column per type, and `x`, which
/// dimensions may shadow.
fn fact_columns(utf8_k2: bool) -> Vec<(&'static str, ColumnType)> {
    let k2 = match utf8_k2 {
        true => ColumnType::Utf8,
        false => ColumnType::Int64,
    };
    vec![
        ("k1", ColumnType::Int64),
        ("k2", k2),
        ("i", ColumnType::Int64),
        ("f", ColumnType::Float64),
        ("s", ColumnType::Utf8),
        ("b", ColumnType::Bool),
        ("x", ColumnType::Int64),
    ]
}

/// Dimension `j`: key `dk`, its own `d{j}i`/`d{j}f`/`d{j}s`/`d{j}b`, and two
/// names that collide with the fact table's (`x`, and the join key `k1`).
fn dim_columns(j: usize) -> Vec<(String, ColumnType)> {
    vec![
        ("dk".to_string(), ColumnType::Int64),
        (format!("d{j}i"), ColumnType::Int64),
        (format!("d{j}f"), ColumnType::Float64),
        (format!("d{j}s"), ColumnType::Utf8),
        (format!("d{j}b"), ColumnType::Bool),
        ("x".to_string(), ColumnType::Float64),
        ("k1".to_string(), ColumnType::Utf8),
    ]
}

fn table_rows(
    rng: &mut StdRng,
    columns: &[(impl AsRef<str>, ColumnType)],
    rows: usize,
    key_stride: i64,
) -> Vec<Vec<Value>> {
    let row = |rng: &mut StdRng| {
        let cell = |(name, ty): &(_, ColumnType)| match AsRef::<str>::as_ref(name) {
            // Six keys around zero: duplicates in a dimension, misses in a
            // probe. A stride of 1 packs them (a directly indexed build
            // side), a huge one spreads them (a hashed one).
            "k1" | "k2" | "dk" if *ty == ColumnType::Int64 => {
                Value::Int64(rng.random_range(-3..3i64) * key_stride)
            }
            _ => value(rng, *ty),
        };
        columns.iter().map(cell).collect()
    };
    (0..rows).map(|_| row(rng)).collect()
}

fn colf_file(
    columns: &[(impl AsRef<str>, ColumnType)],
    rows: &[Vec<Value>],
    per_group: usize,
) -> Bytes {
    let schema = Schema::new(columns.iter().map(|(n, ty)| (n.as_ref(), *ty)).collect());
    let mut w = ColfWriter::new(schema, per_group);
    for row in rows {
        w.push_row(row.clone()).unwrap();
    }
    w.finish().unwrap()
}

fn predicate(rng: &mut StdRng, columns: &[(String, ColumnType)], depth: u32) -> Predicate {
    if depth > 0 && rng.random_range(0..3) > 0 {
        let a = predicate(rng, columns, depth - 1);
        let b = predicate(rng, columns, depth - 1);
        return if rng.random() { a.and(b) } else { a.or(b) };
    }
    let (name, own) = pick(rng, columns);
    // Mostly the column's own type (join keys from the key domain),
    // sometimes another's.
    let literal = |rng: &mut StdRng| match rng.random_range(0..5) {
        0 => {
            let other = pick(rng, &[ColumnType::Int64, ColumnType::Utf8]);
            value(rng, other)
        }
        _ if name.starts_with('k') || name == "dk" => Value::Int64(rng.random_range(-3..3)),
        _ => value(rng, own),
    };
    match rng.random_range(0..4) {
        0 => Predicate::Eq(name.clone(), literal(rng)),
        1 => Predicate::Lt(name.clone(), literal(rng)),
        2 => Predicate::Gt(name.clone(), literal(rng)),
        _ => Predicate::Between(name.clone(), literal(rng), literal(rng)),
    }
}

struct World {
    engine: Engine,
    store: Arc<ObjectStore>,
    fact_files: Vec<(DataFile, Bytes)>,
    dim_files: Vec<Bytes>,
    plan: QueryPlan,
}

/// `utf8_keys`: the second shape of the module doc.
fn world(rng: &mut StdRng, utf8_keys: bool) -> World {
    let clock = SimClock::new();
    let store = Arc::new(ObjectStore::new(Arc::new(clock.clone())));
    let catalog = Arc::new(Catalog::new());
    let register = |table: &str, schema: Schema, files: &[(DataFile, Bytes)]| {
        for (file, bytes) in files {
            store.put_object(&file.path, bytes.clone());
        }
        catalog.register(TableDef {
            schema_name: "w".into(),
            table_name: table.into(),
            columns: schema,
            partitions: vec![PartitionDef {
                name: "p".into(),
                files: files.iter().map(|(f, _)| f.clone()).collect(),
            }],
        });
    };
    let data_file = |path: String, bytes: Bytes| {
        let (version, length) = (1, bytes.len() as u64);
        let file = DataFile {
            path,
            version,
            length,
        };
        (file, bytes)
    };

    let fact = fact_columns(rng.random_range(0..6) == 0);
    let key_stride = pick(rng, &[1, 1, 1 << 40]);
    let mut fact_files = Vec::new();
    for f in 0..2 {
        let n = rng.random_range(0..40);
        let mut rows = table_rows(rng, &fact, n, key_stride);
        let per_group = rng.random_range(1..16);
        if utf8_keys {
            // Column `s` cycles through a shuffle of its texts drawn anew
            // for each row group.
            for group in rows.chunks_mut(per_group) {
                let mut order: Vec<&str> = TEXTS.to_vec();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.random_range(0..=i));
                }
                let cycle = rng.random_range(1..=order.len());
                for (i, row) in group.iter_mut().enumerate() {
                    row[4] = Value::Utf8(order[i % cycle].to_string());
                }
            }
        }
        let bytes = colf_file(&fact, &rows, per_group);
        fact_files.push(data_file(format!("/w/fact/{f}"), bytes));
    }
    let schema = Schema::new(fact.clone());
    register("fact", schema, &fact_files);

    let n_joins = rng.random_range(usize::from(utf8_keys)..3);
    let mut dim_files = Vec::new();
    for j in 0..n_joins {
        let columns = dim_columns(j);
        let n = rng.random_range(0..10);
        let rows = table_rows(rng, &columns, n, key_stride);
        let bytes = colf_file(&columns, &rows, rng.random_range(1..6));
        let schema = Schema::new(columns.iter().map(|(n, ty)| (n.as_str(), *ty)).collect());
        dim_files.push(bytes.clone());
        register(
            &format!("dim{j}"),
            schema,
            &[data_file(format!("/w/dim{j}"), bytes)],
        );
    }

    // The plan. Names visible after the joins: every fact column, plus what
    // each join exposes (which shadows).
    let mut plan = QueryPlan::scan("w", "fact", &[]);
    let mut visible: Vec<(String, ColumnType)> =
        fact.iter().map(|(n, ty)| (n.to_string(), *ty)).collect();
    for j in 0..n_joins {
        let columns = dim_columns(j);
        let exposed: Vec<&(String, ColumnType)> = columns
            .iter()
            .filter(|(name, _)| utf8_keys && name.ends_with('s') || rng.random_range(0..3) > 0)
            .collect();
        let dim_filter = (rng.random_range(0..2) == 0).then(|| predicate(rng, &columns, 1));
        let names: Vec<&str> = exposed.iter().map(|(n, _)| n.as_str()).collect();
        let fact_key = pick(rng, &["k1", "k1", "k2"]);
        plan = plan.join("w", &format!("dim{j}"), fact_key, "dk", &names, dim_filter);
        visible.extend(exposed.into_iter().cloned());
    }
    if utf8_keys {
        // Only the text columns: `s` and each dimension's `d{j}s`.
        visible.retain(|(name, _)| name.ends_with('s') && name != "dk");
    }
    if rng.random_range(0..4) > 0 {
        let depth = rng.random_range(0..3);
        plan = plan.filter(predicate(rng, &visible, depth));
    }
    let name = |rng: &mut StdRng| pick(rng, &visible).0;
    if utf8_keys {
        let funcs = [AggFunc::Min, AggFunc::Max, AggFunc::Min, AggFunc::Max];
        let mut aggregates: Vec<AggExpr> = funcs
            .into_iter()
            .map(|func| AggExpr {
                func,
                column: name(rng),
            })
            .collect();
        aggregates.push(AggExpr::count());
        plan = plan.aggregate(aggregates).group(&name(rng));
    } else if rng.random_range(0..4) == 0 {
        let projection: Vec<String> = (0..rng.random_range(0..4)).map(|_| name(rng)).collect();
        plan.projection = projection;
    } else {
        let aggregate = |rng: &mut StdRng| AggExpr {
            func: pick(
                rng,
                &[
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Avg,
                    AggFunc::Min,
                    AggFunc::Max,
                ],
            ),
            column: name(rng),
        };
        let mut aggregates: Vec<AggExpr> = (0..rng.random_range(1..4))
            .map(|_| aggregate(rng))
            .collect();
        if rng.random() {
            aggregates.push(AggExpr::count());
        }
        plan = plan.aggregate(aggregates);
        if rng.random_range(0..3) > 0 {
            plan = plan.group(&name(rng));
        }
    }
    if rng.random_range(0..5) == 0 {
        plan = plan.take(rng.random_range(0..5));
    }

    let engine = Engine::new(
        catalog,
        Arc::clone(&store) as _,
        EngineConfig {
            workers: 1,
            worker: WorkerConfig {
                page_size: ByteSize::kib(1),
                ..Default::default()
            },
            coordinator_overhead: Duration::ZERO,
            ..Default::default()
        },
        Arc::new(clock),
    )
    .unwrap();
    World {
        engine,
        store,
        fact_files,
        dim_files,
        plan,
    }
}

/// Runs `w.plan` split by split on the pipeline and on the reference, then
/// as a whole query, and compares every output bit for bit.
fn check(w: World) {
    let plan = &w.plan;
    let config = WorkerConfig::default();
    let table = w.engine.catalog().table("w", "fact").unwrap();
    let scope = table.partition_scope("p");
    let worker = w.engine.worker("worker-0").unwrap();

    let mut joins = Vec::new();
    let mut ref_joins = Vec::new();
    for (clause, file) in plan.joins.iter().zip(&w.dim_files) {
        joins.push(w.engine.prepare_join(clause).unwrap().0);
        ref_joins.push(ref_dimension(file, clause));
    }

    // Split by split.
    let mut merged: Option<PartialAgg> = None;
    let mut rows = Vec::new();
    let mut failure = None;
    for (file, bytes) in &w.fact_files {
        let got = worker.execute_split(file, &scope, plan, &joins, w.store.as_ref(), true);
        let want = ref_split(bytes, &file.path, plan, &ref_joins, &config);
        let (got, want) = match (got, want) {
            (Ok(got), Ok(want)) => (got, want),
            (Err(got), Err(want)) => {
                prop_assert_eq!(got.to_string(), want.to_string(), "{:?}", plan);
                failure.get_or_insert(want.to_string());
                continue;
            }
            (got, want) => panic!(
                "pipeline {:?} but reference {:?} for {plan:?}",
                got.map(|o| o.partial),
                want.map(|o| o.groups)
            ),
        };
        prop_assert_eq!(
            got.partial.as_ref().map(|p| groups_bits(&p.groups)),
            want.groups.as_ref().map(groups_bits),
            "{:?}",
            plan
        );
        prop_assert_eq!(rows_bits(&got.rows), rows_bits(&want.rows), "{:?}", plan);
        prop_assert_eq!(got.rows_scanned, want.rows_scanned);
        // The operator charges; I/O and footer parsing depend on cache
        // state, which the reference does not model.
        let mut cpu_stages = got.stage_breakdown.clone();
        cpu_stages.retain(|s, _| s.starts_with("cpu.") && *s != "cpu.metadata_parse");
        prop_assert_eq!(&cpu_stages, &want.cpu_stages, "{:?}", plan);

        // What the coordinator does with the reference's outputs.
        rows.extend(want.rows);
        if let Some(groups) = want.groups {
            let partial = PartialAgg {
                groups,
                n_aggs: plan.aggregates.len(),
            };
            match &mut merged {
                Some(m) => m.merge(&partial, None),
                None => merged = Some(partial),
            }
        }
    }

    // The whole query.
    let answer = w.engine.execute(plan);
    if let Some(text) = failure {
        prop_assert_eq!(answer.unwrap_err().to_string(), text);
        return;
    }
    if let Some(partial) = merged {
        rows = partial.finalize();
    }
    rows.truncate(plan.limit.unwrap_or(usize::MAX));
    let answer = answer.unwrap();
    prop_assert_eq!(rows_bits(&answer.rows), rows_bits(&rows), "{:?}", plan);
    prop_assert_eq!(answer.stats.rows_output, rows.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn pipeline_equals_the_row_interpreter(seed in any::<u64>()) {
        check(world(&mut StdRng::seed_from_u64(seed), false));
    }

    #[test]
    fn utf8_keys_group_alike_under_every_dictionary(seed in any::<u64>()) {
        check(world(&mut StdRng::seed_from_u64(seed), true));
    }
}
