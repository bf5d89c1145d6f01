//! Integration: the deterministic simulation harness's own contract.
//!
//! Three acceptance properties from the torture-harness design: (1) the
//! same seed yields a byte-for-byte identical event trace and final
//! metrics snapshot across runs, (2) a bounded smoke sweep keeps every
//! invariant oracle green, and (3) a planted corruption is caught by the
//! byte oracle and shrinks to a reproducer that names the seed.
//!
//! The first two also pin their seeds' trace hashes across commits: each
//! set folds into one constant recorded at d4e755a, so a refactor that
//! moves any seed fails here. A change that moves seeds on purpose
//! updates the constant and names the moved seeds in CHANGES.md.

use edgecache_common::hash::xxh64;
use edgecache_simtest::scenario::Profile;
use edgecache_simtest::{render_repro, run_scenario, shrink, Scenario};

/// XXH64 over the trace hashes, in order.
fn fold(trace_hashes: &[u64]) -> u64 {
    let bytes: Vec<u8> = trace_hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
    xxh64(&bytes, 0)
}

#[test]
fn same_seed_is_byte_for_byte_reproducible() {
    // Seed 9 is a torture/Local scenario that crosses crash-restart
    // epochs — the hardest case for determinism, since the trace spans
    // several process lifetimes over one directory.
    let mut hashes = Vec::new();
    for (seed, profile) in [(1, Profile::Smoke), (9, Profile::Torture)] {
        let sc = Scenario::generate(seed, profile);
        let first = run_scenario(&sc);
        hashes.push(first.trace_hash);
        let second = run_scenario(&sc);
        assert!(first.ok(), "seed {seed}: {:#?}", first.violations);
        assert_eq!(
            first.trace, second.trace,
            "seed {seed}: event traces diverged"
        );
        assert_eq!(first.trace_hash, second.trace_hash);
        assert_eq!(
            first.final_metrics_json, second.final_metrics_json,
            "seed {seed}: final metrics snapshots diverged"
        );
    }
    assert_eq!(fold(&hashes), 0xcaee_c190_8356_cf18, "{hashes:016x?}");
}

#[test]
fn smoke_sweep_keeps_oracles_green() {
    let mut hashes = Vec::new();
    for seed in 0..16u64 {
        let sc = Scenario::generate(seed, Profile::Smoke);
        let report = run_scenario(&sc);
        assert!(
            report.ok(),
            "seed {seed} violated an oracle: {:#?}",
            report.violations
        );
        hashes.push(report.trace_hash);
    }
    assert_eq!(fold(&hashes), 0x3847_86fd_6664_0ba5, "{hashes:016x?}");
}

#[test]
fn planted_corruption_shrinks_to_a_reproducer_naming_the_seed() {
    // Sabotage the remote: after three requests it silently flips the
    // first byte of every response. The byte oracle must catch it, and
    // the minimizer must produce a still-failing, smaller scenario.
    let mut sc = Scenario::generate(0, Profile::Smoke);
    sc.sabotage_after = Some(3);
    let report = run_scenario(&sc);
    assert!(
        report.violations.iter().any(|v| v.kind == "byte-mismatch"),
        "sabotage must trip the byte oracle: {:#?}",
        report.violations
    );

    let shrunk = shrink(&sc, 200);
    assert!(
        !run_scenario(&shrunk.scenario).violations.is_empty(),
        "shrunk scenario must still fail"
    );
    assert!(
        shrunk.scenario.ops.len() <= sc.ops.len() && shrunk.ops.1 < shrunk.ops.0,
        "shrinking made no progress: {:?}",
        shrunk.ops
    );
    let repro = render_repro(&shrunk.scenario);
    assert!(repro.contains("seed: 0"), "reproducer must name the seed");
    assert!(repro.contains("run_scenario"), "{repro}");
}
