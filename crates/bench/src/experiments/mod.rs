//! The experiment suite. One module per paper table/figure/claim; see
//! DESIGN.md §3 for the full index.

pub mod admission_effectiveness;
pub mod cluster_churn;
pub mod eviction_ablation;
pub mod fig10_input_wall;
pub mod fig13_read_rates;
pub mod fig14_blocked_procs;
pub mod fig2_zipf;
pub mod fig9_tpcds;
pub mod lazy_movement_ablation;
pub mod meta_latency;
pub mod metadata_ablation;
pub mod pagesize_ablation;
pub mod quota_ablation;
pub mod readpath_scaling;
pub mod replicas_ablation;
pub mod resultcache;
pub mod scanpath;
pub mod table1_hdfs_traffic;

use crate::report::ExperimentReport;

/// A `bench` subcommand: its name and its `run(quick)`.
pub type Experiment = (&'static str, fn(bool) -> ExperimentReport);

/// Every experiment, in the order `bench all` runs them.
pub static EXPERIMENTS: &[Experiment] = &[
    ("table1_hdfs_traffic", table1_hdfs_traffic::run),
    ("fig2_zipf", fig2_zipf::run),
    ("fig9_tpcds", fig9_tpcds::run),
    ("fig10_input_wall", fig10_input_wall::run),
    ("meta_latency", meta_latency::run),
    ("fig13_read_rates", fig13_read_rates::run),
    ("fig14_blocked_procs", fig14_blocked_procs::run),
    ("admission_effectiveness", admission_effectiveness::run),
    ("pagesize_ablation", pagesize_ablation::run),
    ("metadata_ablation", metadata_ablation::run),
    ("eviction_ablation", eviction_ablation::run),
    ("replicas_ablation", replicas_ablation::run),
    ("lazy_movement_ablation", lazy_movement_ablation::run),
    ("cluster_churn", cluster_churn::run),
    ("quota_ablation", quota_ablation::run),
    ("readpath_scaling", readpath_scaling::run),
    ("scanpath", scanpath::run),
    ("resultcache", resultcache::run),
];

/// The experiments a subcommand runs: `all` is the whole table, an
/// experiment's name is that one entry.
pub fn select(name: &str) -> Option<&'static [Experiment]> {
    if name == "all" {
        return Some(EXPERIMENTS);
    }
    let i = EXPERIMENTS.iter().position(|(n, _)| *n == name)?;
    Some(std::slice::from_ref(&EXPERIMENTS[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Artifact;

    #[test]
    fn names_are_unique_and_all_runs_exactly_the_table() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        assert!(!names.contains(&"all") && !names.contains(&"trace_dump"));

        let all = select("all").expect("all is a subcommand");
        assert!(std::ptr::eq(all, EXPERIMENTS));
        for entry in EXPERIMENTS {
            let one = select(entry.0).expect("every name selects");
            assert_eq!(one.len(), 1);
            assert!(std::ptr::eq(&one[0], entry));
        }
        assert!(select("no_such_experiment").is_none());
    }

    #[test]
    fn every_harness_named_in_design_is_a_bench_subcommand() {
        let design =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
                .expect("DESIGN.md");
        let section = design
            .split("\n## ")
            .find(|s| s.starts_with("3. "))
            .expect("DESIGN.md has §3");
        let harnesses: Vec<&str> = section
            .lines()
            .filter(|l| l.starts_with("| **"))
            .map(|row| {
                let cell = row.trim_end_matches('|').rsplit('|').next().unwrap_or("");
                cell.split('`').nth(1).unwrap_or(cell.trim())
            })
            .collect();
        let is_subcommand = |h: &str| h == "trace_dump" || select(h).is_some();
        for h in &harnesses {
            assert!(
                is_subcommand(h),
                "DESIGN.md §3 names `{h}`, not a bench subcommand"
            );
        }
        for (name, _) in EXPERIMENTS {
            assert!(
                harnesses.contains(name),
                "DESIGN.md §3 has no row for `{name}`"
            );
        }
        assert!(harnesses.contains(&"trace_dump"));
    }

    /// The committed `file`, and an artifact whose fresh result is exactly it.
    fn committed(file: &'static str) -> (String, Artifact) {
        let fresh = Artifact {
            file,
            json: serde_json::Value::Null,
        };
        let text = std::fs::read_to_string(fresh.path()).expect("committed artifact");
        let json = serde_json::parse_value(&text).expect("committed artifact parses");
        (text, Artifact { json, ..fresh })
    }

    #[test]
    fn committed_artifacts_check_clean_against_themselves() {
        for file in [
            "BENCH_cluster.json",
            "BENCH_resultcache.json",
            "BENCH_scanpath.json",
            "BENCH_readpath.json",
        ] {
            let (text, fresh) = committed(file);
            assert_eq!(fresh.check(&text), Ok(()), "{file}");
        }
    }

    #[test]
    fn an_edited_accounting_number_fails_naming_key_and_values() {
        let (text, fresh) = committed("BENCH_readpath.json");
        // The 1-thread 100%-miss cell's sequential request count.
        let edited = text.replacen(
            "\"sequential_requests\": 200,",
            "\"sequential_requests\": 201,",
            1,
        );
        assert_ne!(edited, text);
        let err = fresh.check(&edited).unwrap_err();
        assert!(
            err.contains(
                "committed `\"sequential_requests\": 201,`, fresh `\"sequential_requests\": 200,`"
            ),
            "{err}"
        );

        let (text, fresh) = committed("BENCH_resultcache.json");
        // The warm phase's hit count.
        let edited = text.replacen("\"hits\": 192,", "\"hits\": 191,", 1);
        assert_ne!(edited, text);
        let err = fresh.check(&edited).unwrap_err();
        assert!(
            err.contains("committed `\"hits\": 191,`, fresh `\"hits\": 192,`"),
            "{err}"
        );
    }
}
