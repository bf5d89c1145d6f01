//! Usage errors of the `bench` binary: each exits 2 before running anything.

use std::process::{Command, Output};

use edgecache_bench::experiments::EXPERIMENTS;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench runs")
}

fn assert_usage_error(args: &[&str]) -> String {
    let out = bench(args);
    assert_eq!(out.status.code(), Some(2), "bench {args:?}");
    assert!(out.stdout.is_empty(), "bench {args:?} ran something");
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

#[test]
fn an_unknown_name_or_flag_exits_2_and_lists_the_names() {
    for args in [
        &[][..],
        &["no_such_experiment"],
        &["fig2_zipf", "--qiuck"],
        &["readpath_scaling", "--quick", "BENCH_readpath.json"],
        &["trace_dump", "--quick"],
    ] {
        let stderr = assert_usage_error(args);
        for (name, _) in EXPERIMENTS {
            assert!(stderr.contains(name), "bench {args:?}: {stderr}");
        }
        assert!(stderr.contains("trace_dump") && stderr.contains("all"));
    }
}

#[test]
fn quick_with_check_is_rejected() {
    let stderr = assert_usage_error(&["scanpath", "--quick", "--check"]);
    assert!(stderr.contains("--quick"), "{stderr}");
}
