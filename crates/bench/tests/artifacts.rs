//! Committed benchmark-trajectory artifacts must be self-describing:
//! every `BENCH_*.json` at the repository root carries the schema version
//! and the commit it was generated at, so trajectory tooling can line up
//! formats and provenance across the history without guessing.

use std::path::PathBuf;

#[test]
fn every_bench_artifact_carries_schema_version_and_commit() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&root).expect("repo root readable") {
        let path = entry.expect("dir entry").path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_owned(),
            None => continue,
        };
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("artifact readable");
        let has_key =
            |key: &str| text.lines().any(|l| l.trim_start().starts_with(&format!("\"{key}\":")));
        assert!(has_key("schema_version"), "{name} is missing \"schema_version\"");
        assert!(has_key("commit"), "{name} is missing \"commit\"");
        assert!(!text.contains("\"commit\": \"\""), "{name} has an empty \"commit\" field");
        assert!(
            has_key("host_cpus"),
            "{name} is missing \"host_cpus\" — wall-clock numbers must be legible as \
             single-core or parallel runs"
        );
        found.push(name);
    }
    found.sort();
    assert!(
        found.len() >= 7,
        "expected the committed BENCH artifacts (diff, mmu, table1, modes, host, kv, native), \
         found {found:?}"
    );
    assert!(
        found.iter().any(|n| n == "BENCH_kv.json"),
        "the KV serving sweep artifact must be committed, found {found:?}"
    );
    assert!(
        found.iter().any(|n| n == "BENCH_native.json"),
        "the native-substrate artifact must be committed, found {found:?}"
    );
}

/// The native-substrate artifact must carry the strategy comparison and
/// the KV sweep, with the DES-equality gate's provenance fields.
#[test]
fn native_artifact_records_the_des_gated_comparison() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let native = std::fs::read_to_string(root.join("BENCH_native.json"))
        .expect("BENCH_native.json must be committed");
    for key in [
        "\"bench\": \"native_substrate\"",
        "\"backend\": \"native\"",
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

/// The committed event-engine artifact must be at the v6 schema: one row
/// per cluster size with the engine's throughput and duty counters,
/// reactor runs included.
#[test]
fn host_artifact_records_the_event_engine() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let host = std::fs::read_to_string(root.join("BENCH_host.json"))
        .expect("BENCH_host.json must be committed");
    for key in [
        "\"bench\": \"event_engine\"",
        "\"schema_version\": 6",
        "\"host_cpus\":",
        "\"nodes\": 256",
        "\"events_per_sec\":",
        "\"handoff_switches\":",
        "\"reactor_runs\":",
        "\"inline_events\":",
    ] {
        assert!(host.contains(key), "BENCH_host.json v6 must record {key}");
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
