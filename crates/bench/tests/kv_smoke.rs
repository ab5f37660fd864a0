//! End-to-end smoke of the KV-serving workload: the final-state gates must
//! hold across all three sequential-section strategies at a small scale.

use repseq_apps::kv::{KvConfig, KvResult, KvStore};
use repseq_bench::run;
use repseq_core::RunConfig;

fn run_kv(rc: RunConfig) -> KvResult {
    run(rc, |rt| KvStore::setup(rt, KvConfig::tiny()), KvStore::run).result
}

#[test]
fn kv_state_is_strategy_invariant_at_small_scale() {
    let orig = run_kv(RunConfig::original(4));
    let opt = run_kv(RunConfig::optimized(4));
    let push = run_kv(RunConfig::master_push(4));

    // Correctness gates: identical final table, identical served values,
    // identical trace.
    assert_eq!(orig.fingerprint, opt.fingerprint);
    assert_eq!(orig.fingerprint, push.fingerprint);
    assert_eq!(orig.read_xor, opt.read_xor);
    assert_eq!(orig.read_xor, push.read_xor);
    assert_eq!(orig.trace_hash, opt.trace_hash);
    assert_eq!(orig.reads + orig.writes, 256);

    // Sanity on the measurements: latencies are populated and ordered.
    for r in [&orig, &opt, &push] {
        assert!(r.p50_ns > 0, "{r:?}");
        assert!(r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns, "{r:?}");
        assert!(r.throughput_rps > 0.0, "{r:?}");
    }
}

#[test]
fn kv_runs_are_deterministic() {
    let a = run_kv(RunConfig::optimized(3));
    let b = run_kv(RunConfig::optimized(3));
    assert_eq!(a, b, "same seed + mode must reproduce bit-identically");
}
