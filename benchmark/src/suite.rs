//! The commands that run every workload: `all`, `aa` and `check`. Each
//! workload runs in a process of its own (this executable again), so peak
//! memory and warm-up never carry over from one workload to the next.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::{catalog, RunArgs};

const MANIFEST: &str = "BENCHMARK.json";

/// `name -> (value, unit)` of one run, and whether every op was correct.
struct Outcome {
    correct: bool,
    metrics: BTreeMap<String, (f64, String)>,
}

/// Runs one workload in a child process, echoing what it prints.
fn run_child(workload: &str, args: &RunArgs, trace: bool) -> Option<Outcome> {
    let exe = std::env::current_exe().ok()?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (last, rest) = stdout
        .trim_end()
        .rsplit_once('\n')
        .map_or(("", ""), |(r, l)| (l, r));
    println!("{rest}");
    let result = serde_json::parse_value(last).ok()?;
    let metrics = result
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(name, m)| {
            let value = m.get("value")?.as_f64()?;
            let unit = m.get("unit")?.as_str()?.to_string();
            Some((name.clone(), (value, unit)))
        })
        .collect();
    Some(Outcome {
        correct: result.get("correct")?.as_bool()? && output.status.success(),
        metrics,
    })
}

/// Every workload, untraced then traced: every metric by name with its unit.
pub fn all(args: &RunArgs) -> bool {
    let mut ok = true;
    for workload in catalog::WORKLOADS {
        for trace in [false, true] {
            ok &= run_child(workload, args, trace).is_some_and(|o| o.correct);
        }
    }
    ok
}

/// `end_to_end` of the manifest: `name -> (better, bound)`.
fn bounds() -> Option<BTreeMap<String, (String, f64)>> {
    let manifest = serde_json::parse_value(&std::fs::read_to_string(MANIFEST).ok()?).ok()?;
    manifest
        .get("end_to_end")?
        .as_array()?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("better")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ),
            ))
        })
        .collect()
}

/// Two full sets of the same code back to back. Per workload and end-to-end
/// metric: both values, how much worse the second is as a share of the
/// first, the bound, and whether it holds.
pub fn aa(args: &RunArgs) -> bool {
    let Some(bounds) = bounds() else {
        eprintln!("benchmark: cannot read the end-to-end bounds from ./{MANIFEST}");
        return false;
    };
    let mut sets = Vec::new();
    for set in ["A1", "A2"] {
        println!("== set {set}");
        let mut outcomes = Vec::new();
        for workload in catalog::WORKLOADS {
            let Some(outcome) = run_child(workload, args, false) else {
                eprintln!("benchmark: {workload} printed no result");
                return false;
            };
            outcomes.push(outcome);
        }
        sets.push(outcomes);
    }
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A1", "A2", "worse by", "bound"
    );
    let mut pass = true;
    for (i, workload) in catalog::WORKLOADS.iter().enumerate() {
        pass &= sets[0][i].correct && sets[1][i].correct;
        for &(name, _) in catalog::END_TO_END {
            let (Some((a, _)), Some((b, _)), Some((better, bound))) = (
                sets[0][i].metrics.get(name),
                sets[1][i].metrics.get(name),
                bounds.get(name),
            ) else {
                println!("{workload:<12} {name:<14} missing");
                pass = false;
                continue;
            };
            let worse = if better == "higher" {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let holds = worse <= *bound;
            pass &= holds;
            println!(
                "{workload:<12} {name:<14} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.1}%  {}",
                worse * 100.0,
                bound * 100.0,
                if holds { "PASS" } else { "FAIL" }
            );
        }
    }
    pass
}

fn name_ok(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `(name, unit)` pairs of a manifest list, in order.
fn declared(manifest: &Value, list: &str) -> Vec<(String, String)> {
    manifest
        .get(list)
        .and_then(Value::as_array)
        .map(|items| {
            items
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Smoke-runs every workload in `--quick` mode, traced and untraced, and
/// checks that the names and units printed are exactly those `BENCHMARK.json`
/// declares and this package's catalogue lists, and fit the name grammar.
pub fn check() -> bool {
    let manifest = match std::fs::read_to_string(MANIFEST)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::parse_value(&text).map_err(|e| e.to_string()))
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark: ./{MANIFEST}: {e}");
            return false;
        }
    };
    let mut problems = Vec::new();
    let same = |what: &str,
                declared: &[(String, String)],
                listed: &[(&str, &str)],
                problems: &mut Vec<String>| {
        let listed: Vec<(String, String)> = listed
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if declared != listed.as_slice() {
            problems.push(format!("{what}: {MANIFEST} and the catalogue differ"));
        }
        for (name, unit) in declared {
            if !name_ok(name) || !unit_ok(unit) {
                problems.push(format!("{what}: `{name}` ({unit}) is outside the grammar"));
            }
        }
    };
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    same(
        "end_to_end",
        &end_to_end,
        catalog::END_TO_END,
        &mut problems,
    );
    same("per_layer", &per_layer, catalog::PER_LAYER, &mut problems);
    let workloads: Vec<String> = declared(&manifest, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    if workloads != catalog::WORKLOADS {
        problems.push(format!("workloads: {MANIFEST} and the catalogue differ"));
    }
    if manifest.get("run_seconds").and_then(Value::as_f64) != Some(catalog::RUN_SECONDS) {
        problems.push(format!("run_seconds: {MANIFEST} and the catalogue differ"));
    }

    let quick = RunArgs {
        workload: String::new(),
        seed: 42,
        seconds: catalog::RUN_SECONDS,
        trace: false,
        quick: true,
    };
    for workload in catalog::WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            match run_child(workload, &quick, trace) {
                None => problems.push(format!("{workload} trace={trace}: no result line")),
                Some(outcome) => {
                    if !outcome.correct {
                        problems.push(format!("{workload} trace={trace}: incorrect"));
                    }
                    let printed: Vec<(String, String)> = outcome
                        .metrics
                        .iter()
                        .map(|(name, (_, unit))| (name.clone(), unit.clone()))
                        .collect();
                    let mut want = want.clone();
                    want.sort();
                    if printed != want {
                        problems.push(format!(
                            "{workload} trace={trace}: printed metrics differ from {MANIFEST}"
                        ));
                    }
                }
            }
        }
    }
    for p in &problems {
        eprintln!("check: {p}");
    }
    println!(
        "check: {}",
        if problems.is_empty() { "OK" } else { "FAILED" }
    );
    problems.is_empty()
}
