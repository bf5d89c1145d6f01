//! `bench` — the one harness binary; see the crate docs for its commands.
//!
//! Exit status: 0 when every check passes; 1 when a shape check fails, a
//! `--check` finds a difference, or the committed file is missing or
//! unparseable; 2 on a usage error (unknown name or flag, `--quick` with
//! `--check`, or a `--check` that has no artifact to compare).

use std::process::exit;

use edgecache_bench::experiments::{select, Experiment, EXPERIMENTS};

/// Parses `<name>|all [--quick] [--check]` into (experiments, quick, check).
fn parse(name: &str, flags: &[String]) -> Result<(&'static [Experiment], bool, bool), String> {
    let experiments = select(name).ok_or_else(|| format!("unknown experiment `{name}`"))?;
    let (mut quick, mut check) = (false, false);
    for flag in flags {
        match flag.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if quick && check {
        return Err("a --quick run records nothing, so it has nothing to --check".into());
    }
    Ok((experiments, quick, check))
}

/// Runs the traced workload and writes its Chrome trace to `out`.
fn trace_dump(out: &str) -> i32 {
    let (report, json) = edgecache_bench::trace_dump::run();
    println!("{report}");
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("bench: {out}: {e}");
        return 1;
    }
    println!("wrote {out}");
    i32::from(!report.all_ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.as_slice() {
        [name, flags @ ..] if name == "trace_dump" => match flags {
            [] => exit(trace_dump("BENCH_trace.json")),
            [flag, out] if flag == "--out" => exit(trace_dump(out)),
            _ => Err(format!(
                "trace_dump takes only `--out <path>`, got {flags:?}"
            )),
        },
        [name, flags @ ..] => parse(name, flags),
        [] => Err("no experiment named".into()),
    };
    let (experiments, quick, check) = parsed.unwrap_or_else(|e| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "bench: {e}\nusage: bench <name>|all [--quick] [--check]\n       \
             bench trace_dump [--out <path>]\nnames: {}",
            names.join(" ")
        );
        exit(2)
    });

    let mut summary = Vec::new();
    let mut checked = 0;
    for (_, run) in experiments {
        let report = run(quick);
        println!("{report}");
        let mut ok = report.all_ok();
        if let Some(artifact) = &report.artifact {
            let outcome = if check {
                checked += 1;
                artifact
                    .check_committed()
                    .map(|()| format!("{} matches the fresh run", artifact.file))
            } else {
                std::fs::write(artifact.path(), artifact.text())
                    .map(|()| format!("wrote {}", artifact.file))
                    .map_err(|e| format!("{}: {e}", artifact.file))
            };
            match outcome {
                Ok(msg) => println!("{msg}"),
                Err(e) => {
                    eprintln!("bench: {e}");
                    ok = false;
                }
            }
        }
        if experiments.len() > 1 {
            println!();
        }
        summary.push((ok, report.id, report.title));
    }
    if check && checked == 0 {
        eprintln!("bench: --check: no artifact recorded, nothing was compared");
        exit(2);
    }

    let failed = summary.iter().filter(|(ok, ..)| !ok).count();
    if experiments.len() > 1 {
        println!("=== summary ===");
        for (ok, id, title) in &summary {
            let status = if *ok { "OK      " } else { "MISMATCH" };
            println!("{status} {id} — {title}");
        }
        if failed == 0 {
            println!("all {} experiments match the paper's shape", summary.len());
        } else {
            println!("{failed} experiment(s) failed");
        }
    }
    if failed > 0 {
        exit(1);
    }
}
