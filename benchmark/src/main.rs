//! The repo benchmark. See `README.md` beside this package for why each
//! workload exists, how the metrics interact and how to read the trace.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! benchmark all   [--seed <n>] [--seconds <s>] [--quick]
//! benchmark aa    [--seed <n>] [--seconds <s>]
//! benchmark check
//! ```
//!
//! The first form runs one workload in this process and ends its standard
//! output with one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). The others start one process per workload.

mod catalog;
mod embed;
mod env;
mod harness;
mod kv;
mod olap;
mod spans;
mod suite;

use std::path::Path;
use std::process::ExitCode;

use edgecache_common::clock::system_clock;
use edgecache_metrics::Tracer;
use serde_json::{Number, Value};

use crate::harness::{
    metric, run_passes, timed_setup, Metric, Pass, Shape, Summary, TracedRun, Until, Workload,
};

/// Everything the benchmark writes besides scratch data: traces and the
/// per-run records.
pub const OUT_DIR: &str = "benchmark/out";

/// Passes the traced run traces before anything else.
const TRACED_PASSES: usize = 4;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
         \x20      benchmark all [--seed <n>] [--seconds <s>] [--quick]\n\
         \x20      benchmark aa [--seed <n>] [--seconds <s>]\n\
         \x20      benchmark check",
        catalog::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first().map(String::as_str) {
        Some("all" | "aa" | "check") => argv.remove(0),
        _ => "run".to_string(),
    };
    let mut args = RunArgs {
        workload: String::new(),
        seed: 42,
        seconds: catalog::RUN_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_default();
        let ok = match flag.as_str() {
            "--workload" => {
                args.workload = value();
                catalog::WORKLOADS.contains(&args.workload.as_str())
            }
            "--seed" => value().parse().map(|v| args.seed = v).is_ok(),
            "--seconds" => value()
                .parse()
                .map(|v| args.seconds = v)
                .is_ok_and(|()| args.seconds > 0.0),
            "--trace" => match value().as_str() {
                "0" => true,
                "1" => {
                    args.trace = true;
                    true
                }
                _ => false,
            },
            "--quick" => {
                args.quick = true;
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("benchmark: bad argument `{flag}`");
            return usage();
        }
    }
    let ok = match command.as_str() {
        "run" if args.workload.is_empty() => return usage(),
        "run" => run(&args),
        "all" => suite::all(&args),
        "aa" => suite::aa(&args),
        _ => suite::check(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process; returns whether every op was correct.
fn run(args: &RunArgs) -> bool {
    if args.workload == "kv_mixed" && env::cpus() < 2 {
        eprintln!(
            "benchmark: kv_mixed needs 2 CPUs (one client thread + the server's connection \
             thread); this host offers {}",
            env::cpus()
        );
        return false;
    }
    let scratch = match env::Scratch::create(&Path::new(OUT_DIR).join("scratch")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("benchmark: no scratch directory: {e}");
            return false;
        }
    };
    let mut shape = if args.quick {
        Shape::quick()
    } else {
        Shape::full(args.seconds)
    };
    if args.trace {
        // The traced run reports no `setup_s`, so it sets up once.
        shape.setups = 1;
    }
    if args.workload == "embed_churn" {
        // Filling this cache takes a few seconds (its publish path is the
        // slow one); three fills would not fit the time a run may take.
        shape.setups = 1;
    }
    let dir = scratch.path().join("work");
    let seed = args.seed;
    let (mut w, setup_s): (Box<dyn Workload>, f64) = match args.workload.as_str() {
        "embed_hit" => timed_setup(shape, &dir, |d| {
            Box::new(embed::Embed::setup(embed::EmbedConfig::hit(), seed, d)) as _
        }),
        "embed_churn" => timed_setup(shape, &dir, |d| {
            Box::new(embed::Embed::setup(embed::EmbedConfig::churn(), seed, d)) as _
        }),
        "kv_mixed" => timed_setup(shape, &dir, |d| Box::new(kv::KvMixed::setup(seed, d)) as _),
        _ => timed_setup(shape, &dir, |_| {
            Box::new(olap::OlapRepeat::setup(seed)) as _
        }),
    };
    let w = w.as_mut();

    let off = Tracer::disabled();
    let mut next_step = 0;
    let mut traced = None;
    if args.trace {
        // First, from the state set-up left, so that the counts of these
        // passes repeat exactly for a seed.
        let tracer = Tracer::enabled(system_clock());
        let passes = Until::Passes(TRACED_PASSES);
        w.counted_begin();
        let passes = run_passes(w, &mut next_step, passes, &tracer);
        w.counted_end();
        traced = Some((passes, tracer.take_records()));
    }
    let warm = run_passes(w, &mut next_step, Until::Elapsed(shape.warm), &off);
    // The traced run spends the rest of its time on the probes.
    let length = shape.timed / if args.trace { 3 } else { 1 };
    let timed = run_passes(w, &mut next_step, Until::Elapsed(length), &off);
    let verified = w.verify();
    if let Err(e) = &verified {
        eprintln!("benchmark: {}: {e}", args.workload);
    }

    let count = |passes: &[Pass]| {
        passes
            .iter()
            .fold((0, 0), |(ops, failed), p| (ops + p.ops, failed + p.failed))
    };
    let (warm_ops, warm_failed) = count(&warm);
    let (timed_ops, timed_failed) = count(&timed);
    let (traced_ops, traced_failed) = traced.as_ref().map_or((0, 0), |(passes, _)| count(passes));
    let attempted = traced_ops + warm_ops + timed_ops;
    let failed = traced_failed + warm_failed + timed_failed;

    let summary = Summary::of(&timed);
    let mut layers_ok = true;
    let metrics: Vec<Metric> = match traced {
        None => vec![
            metric("ops_per_s", summary.ops_per_s, "op/s"),
            metric("p50_us", summary.percentile_us(0.50), "us"),
            metric("p95_us", summary.percentile_us(0.95), "us"),
            metric("cpu_us_per_op", summary.cpu_us_per_op, "us"),
            metric("hit_ratio", summary.hit_ratio, "ratio"),
            metric("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio"),
            metric("rss_mb", env::peak_rss_mib(), "MiB"),
            metric("setup_s", setup_s, "s"),
        ],
        Some((passes, records)) => {
            let traced_rate = Summary::of(&passes).ops_per_s;
            let mut layer = vec![
                metric("driver.p99_us", summary.percentile_us(0.99), "us"),
                metric("driver.p999_us", summary.percentile_us(0.999), "us"),
                metric("driver.samples", summary.samples as f64, "count"),
                metric("driver.window_spread", summary.spread, "ratio"),
                metric(
                    "driver.trace_overhead",
                    summary.ops_per_s / traced_rate - 1.0,
                    "ratio",
                ),
            ];
            write_out(
                &format!("{}.trace.json", args.workload),
                &edgecache_metrics::trace::chrome_trace_json(&records),
            );
            match w.layer_metrics(&TracedRun {
                records,
                ops: traced_ops,
            }) {
                Ok(measured) => layer.extend(measured),
                Err(e) => {
                    eprintln!("benchmark: {}: {e}", args.workload);
                    layers_ok = false;
                }
            }
            catalog::complete_layer_metrics(layer)
        }
    };
    let correct = failed == 0 && verified.is_ok() && layers_ok;

    println!(
        "{} seed {}: closed loop, 1 driver thread; timed passes: {} of {} steps, after {} to \
         warm up; timing metrics from the fastest quarter of the timed passes{}",
        args.workload,
        args.seed,
        timed.len(),
        w.steps(),
        warm.len(),
        if args.quick {
            "; QUICK, not for numbers"
        } else {
            ""
        },
    );
    if scratch.fs_type != "tmpfs" {
        println!(
            "WARNING scratch_fs={}: cache directories are not on tmpfs; write-back to a shared \
             disk moves identical runs by more than the bounds",
            scratch.fs_type
        );
    }
    let (rustc, commit) = (env::rustc_version(), env::git_commit());
    println!(
        "scratch_fs={} (latencies are this sandbox's, not a storage device's) nproc={} \
         rustc=\"{rustc}\" commit={commit}",
        scratch.fs_type,
        env::cpus(),
    );
    for (name, value) in w.sizes() {
        println!("size {name} {value}");
    }
    for m in &metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let result = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", uint(attempted)),
        ("failed", uint(failed)),
        (
            "metrics",
            Value::Object(
                metrics
                    .iter()
                    .map(|m| {
                        let v = object(vec![("value", float(m.value)), ("unit", text(m.unit))]);
                        (m.name.clone(), v)
                    })
                    .collect(),
            ),
        ),
    ]);
    // The run's record: what the result line has no room for.
    let record = object(vec![
        ("workload", text(&args.workload)),
        ("seed", uint(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("quick", Value::Bool(args.quick)),
        ("loop", text("closed, 1 driver thread")),
        ("nproc", uint(env::cpus() as u64)),
        ("scratch_fs", text(&scratch.fs_type)),
        ("rustc", text(&rustc)),
        ("commit", text(&commit)),
        (
            "sizes",
            object(w.sizes().into_iter().map(|(k, v)| (k, uint(v))).collect()),
        ),
        ("ops_traced", uint(traced_ops)),
        ("ops_warm_up", uint(warm_ops)),
        ("ops_timed", uint(timed_ops)),
        ("steps_per_pass", uint(w.steps() as u64)),
        ("timed_passes", uint(timed.len() as u64)),
        (
            "pass_ops_per_s",
            Value::Array(timed.iter().map(|p| float(p.ops_per_s())).collect()),
        ),
        ("result", result.clone()),
    ]);
    write_out(
        &format!(
            "{}.{}.json",
            args.workload,
            if args.trace { "layers" } else { "end_to_end" }
        ),
        &serde_json::to_string_pretty(&record).expect("record serializes"),
    );
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    correct
}

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn uint(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

fn float(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn text(v: &str) -> Value {
    Value::String(v.to_string())
}

/// Writes a file under [`OUT_DIR`]; a failure is reported, not fatal.
fn write_out(name: &str, contents: &str) {
    let path = Path::new(OUT_DIR).join(name);
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
}
