//! A TPC-DS-like star schema and 99 query templates.
//!
//! The paper's Presto evaluation runs TPC-DS (scale factor 100, Parquet on
//! S3) and reports per-query speedups from the local cache (Figures 9, 15,
//! 16). We reproduce the workload *shape* at laptop scale: a date-partitioned
//! sales fact table plus dimension tables in `colf` format on the simulated
//! object store, and 99 deterministic, parameterized scan/aggregate query
//! templates with varying projection width, predicate selectivity,
//! partition reach, and aggregation type — the axes that determine how much
//! a query benefits from caching.

use std::sync::Arc;

use edgecache_columnar::{ColfWriter, ColumnType, Predicate, Schema, Value};
use edgecache_common::error::Result;
use edgecache_olap::{AggExpr, Catalog, DataFile, PartitionDef, QueryPlan, TableDef};
use edgecache_storage::ObjectStore;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Dataset sizing.
#[derive(Debug, Clone)]
pub struct TpcdsScale {
    /// Rows in the `store_sales` fact table.
    pub fact_rows: u64,
    /// Date partitions of the fact table.
    pub date_partitions: usize,
    /// Files per fact partition.
    pub files_per_partition: usize,
    /// Rows per row group.
    pub rows_per_group: usize,
    /// Rows per dimension table.
    pub dim_rows: u64,
}

impl TpcdsScale {
    /// Minimal scale for unit tests.
    pub fn tiny() -> Self {
        Self {
            fact_rows: 2_000,
            date_partitions: 4,
            files_per_partition: 1,
            rows_per_group: 100,
            dim_rows: 100,
        }
    }

    /// Laptop-scale benchmark dataset (a stand-in for the paper's SF100).
    pub fn small() -> Self {
        Self {
            fact_rows: 200_000,
            date_partitions: 20,
            files_per_partition: 2,
            rows_per_group: 2_000,
            dim_rows: 5_000,
        }
    }
}

/// Generates the dataset and the query workload.
pub struct TpcdsGen {
    pub scale: TpcdsScale,
    pub seed: u64,
}

impl TpcdsGen {
    /// Creates a generator.
    pub fn new(scale: TpcdsScale, seed: u64) -> Self {
        Self { scale, seed }
    }

    fn fact_schema() -> Schema {
        Schema::new(vec![
            ("ss_sold_date_sk", ColumnType::Int64),
            ("ss_item_sk", ColumnType::Int64),
            ("ss_store_sk", ColumnType::Int64),
            ("ss_customer_sk", ColumnType::Int64),
            ("ss_quantity", ColumnType::Int64),
            ("ss_sales_price", ColumnType::Float64),
            ("ss_net_profit", ColumnType::Float64),
        ])
    }

    /// Builds all tables into `store` and registers them in `catalog`.
    pub fn build(&self, store: &ObjectStore, catalog: &Catalog) -> Result<()> {
        self.build_fact(store, catalog)?;
        self.build_item(store, catalog)?;
        self.build_store_dim(store, catalog)?;
        self.build_customer(store, catalog)?;
        Ok(())
    }

    fn build_fact(&self, store: &ObjectStore, catalog: &Catalog) -> Result<()> {
        let schema = Self::fact_schema();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let rows_per_file = self.scale.fact_rows
            / (self.scale.date_partitions * self.scale.files_per_partition) as u64;
        let mut partitions = Vec::new();
        for p in 0..self.scale.date_partitions {
            let date_sk = 2_450_000 + p as i64; // TPC-DS style date keys.
            let mut files = Vec::new();
            for f in 0..self.scale.files_per_partition {
                let mut w = ColfWriter::new(schema.clone(), self.scale.rows_per_group);
                for _ in 0..rows_per_file {
                    let price: f64 = rng.random_range(0.5..200.0);
                    let quantity: i64 = rng.random_range(1..100);
                    w.push_row(vec![
                        Value::Int64(date_sk),
                        Value::Int64(rng.random_range(0..self.scale.dim_rows as i64)),
                        Value::Int64(rng.random_range(0..20)),
                        Value::Int64(rng.random_range(0..self.scale.dim_rows as i64)),
                        Value::Int64(quantity),
                        Value::Float64(price),
                        Value::Float64(price * quantity as f64 * rng.random_range(-0.1..0.4)),
                    ])?;
                }
                let bytes = w.finish()?;
                let path = format!("/warehouse/tpcds/store_sales/date={date_sk}/part-{f}.colf");
                store.put_object(&path, bytes.clone());
                files.push(DataFile {
                    path,
                    version: 1,
                    length: bytes.len() as u64,
                });
            }
            partitions.push(PartitionDef {
                name: format!("date={date_sk}"),
                files,
            });
        }
        catalog.register(TableDef {
            schema_name: "tpcds".into(),
            table_name: "store_sales".into(),
            columns: schema,
            partitions,
        });
        Ok(())
    }

    fn build_dim(
        &self,
        store: &ObjectStore,
        catalog: &Catalog,
        name: &str,
        schema: Schema,
        mut row: impl FnMut(i64, &mut StdRng) -> Vec<Value>,
    ) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ edgecache_common::hash::hash_str(name));
        let mut w = ColfWriter::new(schema.clone(), self.scale.rows_per_group);
        for i in 0..self.scale.dim_rows as i64 {
            w.push_row(row(i, &mut rng))?;
        }
        let bytes = w.finish()?;
        let path = format!("/warehouse/tpcds/{name}/part-0.colf");
        store.put_object(&path, bytes.clone());
        catalog.register(TableDef {
            schema_name: "tpcds".into(),
            table_name: name.into(),
            columns: schema,
            partitions: vec![PartitionDef {
                name: "all".into(),
                files: vec![DataFile {
                    path,
                    version: 1,
                    length: bytes.len() as u64,
                }],
            }],
        });
        Ok(())
    }

    fn build_item(&self, store: &ObjectStore, catalog: &Catalog) -> Result<()> {
        const CATEGORIES: [&str; 10] = [
            "Books",
            "Home",
            "Electronics",
            "Jewelry",
            "Men",
            "Music",
            "Shoes",
            "Sports",
            "Toys",
            "Women",
        ];
        let schema = Schema::new(vec![
            ("i_item_sk", ColumnType::Int64),
            ("i_category", ColumnType::Utf8),
            ("i_brand", ColumnType::Utf8),
            ("i_current_price", ColumnType::Float64),
        ]);
        self.build_dim(store, catalog, "item", schema, |i, rng| {
            vec![
                Value::Int64(i),
                Value::Utf8(CATEGORIES[i as usize % CATEGORIES.len()].to_string()),
                Value::Utf8(format!("brand_{}", i % 50)),
                Value::Float64(rng.random_range(0.5..500.0)),
            ]
        })
    }

    fn build_store_dim(&self, store: &ObjectStore, catalog: &Catalog) -> Result<()> {
        const STATES: [&str; 8] = ["CA", "NY", "TX", "WA", "IL", "FL", "GA", "OH"];
        let schema = Schema::new(vec![
            ("s_store_sk", ColumnType::Int64),
            ("s_state", ColumnType::Utf8),
            ("s_floor_space", ColumnType::Int64),
        ]);
        self.build_dim(store, catalog, "store", schema, |i, rng| {
            vec![
                Value::Int64(i),
                Value::Utf8(STATES[i as usize % STATES.len()].to_string()),
                Value::Int64(rng.random_range(5_000..10_000)),
            ]
        })
    }

    fn build_customer(&self, store: &ObjectStore, catalog: &Catalog) -> Result<()> {
        let schema = Schema::new(vec![
            ("c_customer_sk", ColumnType::Int64),
            ("c_birth_year", ColumnType::Int64),
            ("c_preferred", ColumnType::Bool),
        ]);
        self.build_dim(store, catalog, "customer", schema, |i, rng| {
            vec![
                Value::Int64(i),
                Value::Int64(rng.random_range(1940..2005)),
                Value::Bool(rng.random_bool(0.3)),
            ]
        })
    }

    /// The partition names of the fact table (oldest first).
    pub fn fact_partitions(&self) -> Vec<String> {
        (0..self.scale.date_partitions)
            .map(|p| format!("date={}", 2_450_000 + p as i64))
            .collect()
    }

    /// Query template `q` (1-based, `1..=99`). Templates are deterministic
    /// and vary along the axes that matter for caching: table choice,
    /// projection width, predicate selectivity, partition reach, and
    /// aggregation shape.
    pub fn query(&self, q: usize) -> QueryPlan {
        assert!((1..=99).contains(&q), "TPC-DS queries are 1..=99");
        // ~1 in 5 queries hits a dimension table, like the catalog-heavy
        // TPC-DS templates.
        match q % 5 {
            1 if q % 10 == 1 => self.dim_query(q),
            _ => self.fact_query(q),
        }
    }

    fn dim_query(&self, q: usize) -> QueryPlan {
        match (q / 10) % 3 {
            0 => QueryPlan::scan("tpcds", "item", &["i_category"])
                .filter(Predicate::Gt(
                    "i_current_price".into(),
                    Value::Float64(100.0 + (q % 7) as f64 * 30.0),
                ))
                .aggregate(vec![AggExpr::count()])
                .group("i_category"),
            1 => QueryPlan::scan("tpcds", "store", &["s_state"])
                .filter(Predicate::Gt(
                    "s_floor_space".into(),
                    Value::Int64(6_000 + (q % 5) as i64 * 500),
                ))
                .aggregate(vec![AggExpr::count(), AggExpr::avg("s_floor_space")])
                .group("s_state"),
            _ => QueryPlan::scan("tpcds", "customer", &[])
                .filter(Predicate::Between(
                    "c_birth_year".into(),
                    Value::Int64(1950 + (q % 10) as i64 * 3),
                    Value::Int64(1970 + (q % 10) as i64 * 3),
                ))
                .aggregate(vec![AggExpr::count()]),
        }
    }

    fn fact_query(&self, q: usize) -> QueryPlan {
        let parts = self.fact_partitions();
        // Partition reach cycles: 1 partition, a quarter, half, or all.
        let reach = match q % 4 {
            0 => 1usize,
            1 => (parts.len() / 4).max(1),
            2 => (parts.len() / 2).max(1),
            _ => parts.len(),
        };
        // Rotate the window start so different queries touch different dates.
        let start = (q * 3) % (parts.len() - reach + 1).max(1);
        let selected: Vec<&str> = parts[start..start + reach]
            .iter()
            .map(String::as_str)
            .collect();

        let price_cut = 20.0 + (q % 9) as f64 * 20.0;
        let predicate = match q % 3 {
            0 => Predicate::Gt("ss_sales_price".into(), Value::Float64(price_cut)),
            1 => Predicate::Between(
                "ss_quantity".into(),
                Value::Int64((q % 20) as i64),
                Value::Int64((q % 20 + 40) as i64),
            ),
            _ => Predicate::Eq("ss_store_sk".into(), Value::Int64((q % 20) as i64)),
        };

        let aggregates = match q % 4 {
            0 => vec![AggExpr::count(), AggExpr::sum("ss_net_profit")],
            1 => vec![AggExpr::sum("ss_sales_price"), AggExpr::avg("ss_quantity")],
            2 => vec![
                AggExpr::min("ss_sales_price"),
                AggExpr::max("ss_net_profit"),
            ],
            _ => vec![AggExpr::count()],
        };

        let mut plan = QueryPlan::scan("tpcds", "store_sales", &[])
            .in_partitions(&selected)
            .filter(predicate)
            .aggregate(aggregates);
        if q.is_multiple_of(6) {
            plan = plan.group("ss_store_sk");
        }
        // Star joins, like the real benchmark's fact ⋈ dimension templates.
        match q % 10 {
            3 => {
                // Sales by item category.
                plan = plan
                    .join(
                        "tpcds",
                        "item",
                        "ss_item_sk",
                        "i_item_sk",
                        &["i_category"],
                        None,
                    )
                    .group("i_category");
            }
            9 => {
                // Sales in large stores only.
                plan = plan.join(
                    "tpcds",
                    "store",
                    "ss_store_sk",
                    "s_store_sk",
                    &["s_state", "s_floor_space"],
                    Some(Predicate::Gt("s_floor_space".into(), Value::Int64(6_000))),
                );
            }
            _ => {}
        }
        plan
    }

    /// Builds everything into fresh store/catalog handles.
    pub fn build_fresh(
        &self,
        clock: edgecache_common::clock::SharedClock,
    ) -> Result<(Arc<Catalog>, Arc<ObjectStore>)> {
        let store = Arc::new(ObjectStore::new(clock));
        let catalog = Arc::new(Catalog::new());
        self.build(&store, &catalog)?;
        Ok((catalog, store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgecache_common::clock::SimClock;
    use edgecache_common::ByteSize;
    use edgecache_olap::{Engine, EngineConfig, WorkerConfig};

    fn engine() -> (TpcdsGen, Engine) {
        let clock = SimClock::new();
        let gen = TpcdsGen::new(TpcdsScale::tiny(), 1);
        let (catalog, store) = gen.build_fresh(Arc::new(clock.clone())).unwrap();
        let engine = Engine::new(
            catalog,
            store,
            EngineConfig {
                workers: 2,
                worker: WorkerConfig {
                    page_size: ByteSize::kib(4),
                    ..Default::default()
                },
                ..Default::default()
            },
            Arc::new(clock),
        )
        .unwrap();
        (gen, engine)
    }

    #[test]
    fn dataset_registers_all_tables() {
        let (_, e) = engine();
        let names = e.catalog().table_names();
        assert_eq!(names.len(), 4);
        let fact = e.catalog().table("tpcds", "store_sales").unwrap();
        assert_eq!(fact.partitions.len(), 4);
        assert_eq!(fact.files().count(), 4);
    }

    #[test]
    fn all_99_queries_execute() {
        let (gen, e) = engine();
        for q in 1..=99 {
            let plan = gen.query(q);
            let r = e
                .execute(&plan)
                .unwrap_or_else(|err| panic!("q{q} failed: {err}"));
            assert!(r.stats.splits > 0, "q{q} scanned nothing");
        }
    }

    /// Cross-commit golden: XXH64 over the `Debug` rendering of all 99
    /// answers, taken at the last commit that still interpreted scans row
    /// by row (4d334ff). Every in-repo oracle compares an engine with
    /// another engine running the same scan code; only a constant from
    /// before the columnar pipeline pins "same answers as before", down to
    /// the last bit of every float sum.
    #[test]
    fn all_99_answers_match_the_row_interpreter_golden() {
        let (gen, e) = engine();
        let mut rendered = String::new();
        for q in 1..=99 {
            let rows = e.execute(&gen.query(q)).unwrap().rows;
            rendered.push_str(&format!("{rows:?}\n"));
        }
        assert_eq!(rendered.len(), 29_605);
        assert_eq!(
            edgecache_common::hash::xxh64(rendered.as_bytes(), 0),
            0xafae_9442_5515_911e
        );
    }

    /// Cross-commit golden of the writer: XXH64 over every object the tiny
    /// data set writes, in catalog order, then one file with a
    /// high-cardinality Utf8 column (the plain encoder) and a column of
    /// `""` and `"a"`. Constant and length taken at 483af25, before the
    /// writer built coded Utf8 columns. Every `BENCH_*.json` reads files
    /// made by these bytes.
    #[test]
    fn written_files_match_the_writer_golden() {
        let gen = TpcdsGen::new(TpcdsScale::tiny(), 1);
        let (catalog, store) = gen.build_fresh(Arc::new(SimClock::new())).unwrap();
        let mut written = Vec::new();
        for (schema, table) in catalog.table_names() {
            for (_, file) in catalog.table(&schema, &table).unwrap().files() {
                let object = store.get_range(&file.path, 0, file.length).unwrap();
                written.extend_from_slice(&object);
            }
        }
        let schema = Schema::new(vec![
            ("id", ColumnType::Int64),
            ("name", ColumnType::Utf8),
            ("blank", ColumnType::Utf8),
        ]);
        let mut w = ColfWriter::new(schema, 128);
        for i in 0..300i64 {
            w.push_row(vec![
                Value::Int64(i),
                Value::Utf8(format!("name_{}", i * 7919 % 1000)),
                Value::Utf8(if i % 3 == 0 { "a" } else { "" }.into()),
            ])
            .unwrap();
        }
        written.extend_from_slice(&w.finish().unwrap());
        assert_eq!(written.len(), 112_275);
        assert_eq!(
            edgecache_common::hash::xxh64(&written, 0),
            0xd652_ff33_081d_aa2a
        );
    }

    #[test]
    fn queries_are_deterministic() {
        let gen = TpcdsGen::new(TpcdsScale::tiny(), 1);
        assert_eq!(gen.query(5), gen.query(5));
        assert_ne!(gen.query(5), gen.query(6));
    }

    #[test]
    fn partition_reach_varies() {
        let gen = TpcdsGen::new(TpcdsScale::tiny(), 1);
        let reaches: std::collections::HashSet<usize> = (1..=40)
            .map(|q| {
                let plan = gen.query(q);
                if plan.table == "store_sales" {
                    plan.partitions.len()
                } else {
                    0
                }
            })
            .collect();
        assert!(reaches.len() >= 3, "query reach should vary: {reaches:?}");
    }

    #[test]
    fn warm_runs_match_cold_runs() {
        let (gen, e) = engine();
        for q in [2, 7, 13] {
            let plan = gen.query(q);
            let cold = e.execute(&plan).unwrap();
            let warm = e.execute(&plan).unwrap();
            assert_eq!(cold.rows, warm.rows, "q{q} changed results when warm");
            assert!(warm.stats.wall_time <= cold.stats.wall_time, "q{q}");
        }
    }

    #[test]
    #[should_panic(expected = "1..=99")]
    fn query_zero_panics() {
        let gen = TpcdsGen::new(TpcdsScale::tiny(), 1);
        let _ = gen.query(0);
    }
}
