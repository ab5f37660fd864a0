//! The committed `BENCH_*.json` at the repository root. Three are
//! deterministic — a pure function of the source, so they can be held to
//! it byte for byte; `BENCH_native.json` is wall-clock and is held to its
//! shape and its provenance fields.

use std::path::PathBuf;

const DETERMINISTIC: [&str; 3] = ["BENCH_table1.json", "BENCH_modes.json", "BENCH_kv.json"];

fn committed(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file} must be committed: {e}"))
}

/// A stale artifact fails here, not in a reader's head: what the emitter
/// would write for `BENCH_table1.json` is what is committed. This must stay
/// the only simulation in this test binary — the data-plane counts in the
/// value come from `repseq_stats::host`'s process-global atomics, and tests
/// of one binary share a process.
#[test]
fn committed_table1_is_what_the_emitter_writes() {
    assert_eq!(
        repseq_bench::artifacts::table1().render(),
        committed("BENCH_table1.json"),
        "BENCH_table1.json is stale: run `cargo run --release -p repseq-bench --bin bench_json` \
         from the repository root and commit the result"
    );
}

/// Host time — and the stamp and CPU count that only host time needs —
/// lives in `benchmark/`, not in the deterministic artifacts. The `_ns`
/// keys that stay are virtual latencies.
#[test]
fn deterministic_artifacts_carry_no_host_fields() {
    for file in DETERMINISTIC {
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

/// The native-substrate artifact must carry the strategy comparison and
/// the KV sweep, with the DES-equality gate's provenance fields.
#[test]
fn native_artifact_records_the_des_gated_comparison() {
    let native = committed("BENCH_native.json");
    for key in [
        "\"bench\": \"native_substrate\"",
        "\"backend\": \"native\"",
        "\"commit\":",
        "\"host_cpus\":",
        "\"strategy_comparison\":",
        "\"kv_sweep\":",
        "\"master_only\":",
        "\"master_push\":",
        "\"rse\":",
        "\"wall_s\":",
        "\"throughput_rps\":",
        "\"read_xor\":",
    ] {
        assert!(native.contains(key), "BENCH_native.json must record {key}");
    }
}

/// Artifacts are written before the commit that carries them exists, so a
/// commit hash would be stale by construction: the stamp is the tree hash
/// of `HEAD`, `+dirty` when the working tree differs from it.
#[test]
fn the_stamp_names_a_tree_and_its_dirtiness() {
    let stamp = repseq_bench::tree_stamp();
    let tree = stamp.strip_suffix("+dirty").unwrap_or(&stamp);
    assert!(
        stamp == "unknown" || (tree.len() >= 7 && tree.chars().all(|c| c.is_ascii_hexdigit())),
        "unexpected stamp {stamp:?}"
    );
}
