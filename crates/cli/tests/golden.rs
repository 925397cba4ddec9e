//! Golden CLI output: `run(parse_args(argv))` must reproduce the committed
//! `tests/golden/<case>.txt` byte for byte. The output is simulated time
//! and counts only, so it is a pure function of the command line.
//!
//! To re-record a case after a deliberate output change, run the same
//! command line through `pdc` from this crate's directory and redirect
//! stdout into the file.

use pdc_cli::{parse_args, run};
use std::path::Path;

const Q: &str = "2.1 < Energy < 2.2";
const COMMON: [&str; 6] = ["--particles", "30000", "--servers", "4", "--seed", "42"];

/// `(case, argv)`; every case but `help` also gets [`COMMON`].
const CASES: &[(&str, &[&str])] = &[
    ("help", &["help"]),
    ("query_h", &["query", Q]),
    ("query_a_explain", &["query", Q, "--strategy", "A", "--explain"]),
    (
        "query_joint_explain",
        &["query", "Energy > 2.0 AND 100 < x < 200", "--joint", "Energy,x", "--explain"],
    ),
    (
        "query_batch",
        &["query", Q, "--queries", "4", "--batch-file", "tests/golden/batch_queries.txt"],
    ),
    ("query_kill", &["query", "Energy > 0", "--kill-servers", "1", "--fault-seed", "3"]),
    (
        "query_replicas_kill",
        &["query", "Energy > 0", "--replicas", "2", "--kill-servers", "1", "--fault-seed", "3"],
    ),
    (
        "query_membership",
        &["query", "Energy > 0", "--replicas", "2", "--join-server", "--leave-server", "0"],
    ),
    (
        "query_corrupt_get_data",
        &["query", Q, "--corrupt-regions", "0.05", "--fault-seed", "7", "--get-data", "x"],
    ),
    ("query_memory_budget", &["query", Q, "--memory-budget", "256K"]),
    ("demo", &["demo"]),
    ("ingest", &["ingest", "--append-batches", "2"]),
    ("serve", &["serve", "--trace-file", "../../examples/service_trace.txt"]),
];

#[test]
fn cli_output_matches_golden_files() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Relative paths in the cases resolve against the crate directory.
    std::env::set_current_dir(dir).unwrap();
    let mut failed = Vec::new();
    for (case, args) in CASES {
        let mut argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        if *case != "help" {
            argv.extend(COMMON.iter().map(|a| a.to_string()));
        }
        let got = parse_args(argv).and_then(run).unwrap_or_else(|e| panic!("{case}: {e}"));
        let path = dir.join("tests/golden").join(format!("{case}.txt"));
        let want = std::fs::read_to_string(&path).unwrap();
        if got != want {
            eprintln!("== {case}: expected\n{want}== got\n{got}");
            failed.push(*case);
        }
    }
    assert!(failed.is_empty(), "output differs from the golden file: {failed:?}");
}
