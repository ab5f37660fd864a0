//! The committed `BENCH_*.json` at the repository root. Those of
//! `artifacts::ARTIFACTS` are deterministic — a pure function of the
//! source, so they can be held to it byte for byte, and EXPERIMENTS.md to
//! their tables.

use std::path::PathBuf;

use repseq_bench::artifacts::{table3_4, ARTIFACTS};
use repseq_bench::{splice, splice_tables};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed(file: &str) -> String {
    std::fs::read_to_string(root().join(file))
        .unwrap_or_else(|e| panic!("{file} must be committed: {e}"))
}

/// One list: every file the emitter writes is at the root, and every
/// `BENCH_*.json` there is one the emitter still writes — an artifact
/// whose generator was deleted fails here.
#[test]
fn the_emitter_writes_every_artifact_at_the_root() {
    let mut listed: Vec<String> = ARTIFACTS.iter().map(|(file, _)| file.to_string()).collect();
    listed.sort();
    let mut at_root: Vec<String> = std::fs::read_dir(root())
        .expect("the repository root")
        .map(|entry| entry.expect("a directory entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    at_root.sort();
    assert_eq!(at_root, listed);
}

/// A stale artifact fails here, not in a reader's head: what the emitter
/// would write for `BENCH_table3_4.json`, and render into EXPERIMENTS.md
/// from it, is what is committed.
#[test]
fn committed_table3_4_is_what_the_emitter_writes() {
    const STALE: &str = "stale: run `cargo run --release -p repseq-bench --bin bench_json` \
                         from the repository root and commit the result";
    let value = table3_4();
    assert_eq!(value.render(), committed("BENCH_table3_4.json"), "BENCH_table3_4.json is {STALE}");
    let doc = committed("EXPERIMENTS.md");
    assert_eq!(splice_tables(doc.clone(), &value), Ok(doc), "EXPERIMENTS.md is {STALE}");
}

/// Splicing replaces what stands between a marker pair — twice is once —
/// and refuses a document without exactly that pair rather than append.
#[test]
fn splicing_is_idempotent_and_needs_both_markers() {
    let doc = "intro\n<!-- bench_json:t1 -->\nold\n<!-- /bench_json -->\nprose\n\
               <!-- bench_json:t2 -->\n<!-- /bench_json -->\n";
    let once = splice(doc, "t1", "| new |\n").expect("both markers are there");
    assert_eq!(
        once,
        "intro\n<!-- bench_json:t1 -->\n| new |\n<!-- /bench_json -->\nprose\n\
         <!-- bench_json:t2 -->\n<!-- /bench_json -->\n"
    );
    assert_eq!(splice(&once, "t1", "| new |\n"), Ok(once));
    assert!(splice(doc, "t3", "x").is_err(), "a missing marker");
    assert!(splice("<!-- bench_json:t1 -->\nold\n", "t1", "x").is_err(), "never closed");
    let unclosed = doc.replacen("<!-- /bench_json -->\n", "", 1);
    assert!(splice(&unclosed, "t1", "x").is_err(), "closed only by the next table's marker");
}

/// Host time — and the stamp and CPU count that only host time needs —
/// lives in `benchmark/`, not in the deterministic artifacts. The `_ns`
/// keys that stay are virtual latencies.
#[test]
fn deterministic_artifacts_carry_no_host_fields() {
    for (file, _) in ARTIFACTS {
        for line in committed(file).lines() {
            let Some((key, _)) = line.trim_start().split_once("\": ") else { continue };
            let key = key.trim_start_matches('"');
            let host_time = key.ends_with("_ns") && !["p50_ns", "p99_ns", "p999_ns"].contains(&key);
            assert!(
                !["commit", "host_cpus", "host_wall_s"].contains(&key) && !host_time,
                "{file} carries the host field {key:?}"
            );
        }
    }
}
