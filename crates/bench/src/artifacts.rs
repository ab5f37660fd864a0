//! The three deterministic artifacts, each a function from nothing to a
//! [`Json`] value: every number in them is a virtual time or a count, so
//! the bytes `bench_json` writes are a pure function of the source and
//! `git diff --exit-code` after a run is the freshness check. Host time is
//! `benchmark/`'s business (pinned, repeated, bounded), not theirs.
//!
//! The functions gate as they build — a value that fails a gate is never
//! returned: the systems agree on the physics, the TLB is invisible to
//! the simulation, RSE beats MasterPush on the contended tree and
//! MasterOnly on skewed KV serving, and the twin pool and TLB hit rates
//! (counts, from `repseq_stats::host`'s process-global atomics — run one
//! artifact at a time per process) stay above their floors.

use repseq_apps::barnes_hut::{BarnesHut, BhConfig, BhResult};
use repseq_apps::kv::{KvConfig, KvResult, KvStore};
use repseq_core::RunConfig;
use repseq_stats::host;

use crate::{hit_rate, run, Json, RunOutcome};

/// Bump when a field changes meaning. v4: no host-time fields.
const SCHEMA_VERSION: u64 = 4;

/// The paper's cluster.
const NODES: usize = 32;

fn run_bh(rc: RunConfig, cfg: &BhConfig) -> RunOutcome<BhResult> {
    run(rc, |rt| BarnesHut::setup(rt, cfg.clone()), BarnesHut::run)
}

fn time_s(o: &RunOutcome<BhResult>) -> f64 {
    o.snap.total_time.as_secs_f64()
}

fn rate(hits: u64, misses: u64) -> Json {
    Json::Fixed(hit_rate(hits, misses), 4)
}

/// `BENCH_table1.json`: the Table-1-shaped Barnes-Hut run (tiny input,
/// Sequential / Original / Optimized) with the data plane's counts.
pub fn table1() -> Json {
    let cfg = BhConfig::tiny();
    let before = host::snapshot();
    let seq = run_bh(RunConfig::original(1), &cfg);
    let orig = run_bh(RunConfig::original(NODES), &cfg);
    let opt = run_bh(RunConfig::optimized(NODES), &cfg);
    let h = host::snapshot().since(&before);
    assert_eq!(seq.result, orig.result, "systems must agree on the physics");
    assert_eq!(seq.result, opt.result, "systems must agree on the physics");
    assert!(
        hit_rate(h.twin_pool_hits, h.twin_pool_misses) >= 0.9,
        "twin pool must absorb >=90% of twin allocations ({} hits, {} misses)",
        h.twin_pool_hits,
        h.twin_pool_misses
    );
    assert!(
        hit_rate(h.tlb_hits, h.tlb_misses) >= 0.95,
        "software TLB must serve >=95% of accesses without a page walk \
         ({} hits, {} misses): set-associativity, per-page generations and \
         guard amortization should leave only protocol-mandatory faults",
        h.tlb_hits,
        h.tlb_misses
    );

    // The TLB must be invisible to the simulation: the optimized system
    // again with the fast path disabled, identical virtual results.
    let mut rc = RunConfig::optimized(NODES);
    rc.cluster.dsm.tlb_enabled = false;
    let no_tlb = run_bh(rc, &cfg);
    assert_eq!(opt.result, no_tlb.result, "TLB must not change the physics");
    assert_eq!(opt.snap.total_time, no_tlb.snap.total_time, "TLB must not change simulated time");
    let (a, b) = (opt.snap.total_agg_with_startup(), no_tlb.snap.total_agg_with_startup());
    assert_eq!(a.messages, b.messages, "TLB must not change message counts");
    assert_eq!(a.bytes, b.bytes, "TLB must not change byte counts");

    Json::Obj(vec![
        ("bench", Json::str("table1_barnes_hut")),
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        ("scale", Json::str("Tiny")),
        ("nodes", Json::Int(NODES as u64)),
        (
            "simulated",
            Json::Obj(vec![
                ("sequential_time_s", Json::Fixed(time_s(&seq), 6)),
                ("original_time_s", Json::Fixed(time_s(&orig), 6)),
                ("optimized_time_s", Json::Fixed(time_s(&opt), 6)),
                ("original_speedup", Json::Fixed(time_s(&seq) / time_s(&orig), 3)),
                ("optimized_speedup", Json::Fixed(time_s(&seq) / time_s(&opt), 3)),
            ]),
        ),
        (
            "tlb_invariance",
            Json::str(
                "verified: identical virtual time, messages and bytes with the TLB on and off",
            ),
        ),
        (
            "host_data_plane",
            Json::Obj(vec![
                ("diff_create_calls", Json::Int(h.diff_create_calls)),
                ("diff_create_bytes_scanned", Json::Int(h.diff_create_bytes)),
                ("diff_apply_calls", Json::Int(h.diff_apply_calls)),
                ("diff_apply_bytes_copied", Json::Int(h.diff_apply_bytes)),
                ("twin_pool_hits", Json::Int(h.twin_pool_hits)),
                ("twin_pool_misses", Json::Int(h.twin_pool_misses)),
                ("twin_pool_hit_rate", rate(h.twin_pool_hits, h.twin_pool_misses)),
                ("scratch_pool_hits", Json::Int(h.scratch_pool_hits)),
                ("scratch_pool_misses", Json::Int(h.scratch_pool_misses)),
                ("scratch_pool_hit_rate", rate(h.scratch_pool_hits, h.scratch_pool_misses)),
                ("tlb_hits", Json::Int(h.tlb_hits)),
                ("tlb_misses", Json::Int(h.tlb_misses)),
                ("tlb_hit_rate", rate(h.tlb_hits, h.tlb_misses)),
            ]),
        ),
    ])
}

/// `BENCH_modes.json`: the three-way sequential-section strategy
/// comparison (§2, §6.1.2) — master-only, master-plus-broadcast
/// (MasterPush) and replicated (RSE) on the same contended Barnes-Hut run.
/// MasterPush removes the demand-fetch request storm but still serializes
/// the whole tree through the master's transmit link, so RSE must stay
/// ahead of it once the tree is big enough to be worth contending over:
/// 8192 bodies, where the tiny table input would let the broadcast win on
/// sheer smallness.
pub fn modes() -> Json {
    let cfg = BhConfig::scaled(8_192);
    let before = host::snapshot();
    let orig = run_bh(RunConfig::original(NODES), &cfg);
    let push = run_bh(RunConfig::master_push(NODES), &cfg);
    let rse = run_bh(RunConfig::optimized(NODES), &cfg);
    let h = host::snapshot().since(&before);
    assert_eq!(orig.result, push.result, "strategies must agree on the physics");
    assert_eq!(orig.result, rse.result, "strategies must agree on the physics");
    assert!(
        time_s(&rse) < time_s(&push),
        "RSE must beat MasterPush on the contended tree rebuild at {NODES} nodes \
         (rse {:.6}s vs push {:.6}s): the broadcast still serializes the whole \
         tree through the master's transmit link (§2)",
        time_s(&rse),
        time_s(&push)
    );
    Json::Obj(vec![
        ("bench", Json::str("seq_exec_modes_barnes_hut")),
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        ("bodies", Json::Int(cfg.n_bodies as u64)),
        ("nodes", Json::Int(NODES as u64)),
        (
            "note",
            Json::str(
                "same workload and cluster for all three strategies; times are simulated \
                 seconds. master_push broadcasts the section's written pages over the \
                 master's link (contention moves from request storm to transmit \
                 serialization); rse replicates the section so no page of it ever crosses \
                 the wire",
            ),
        ),
        (
            "simulated",
            Json::Obj(vec![
                ("master_only_time_s", Json::Fixed(time_s(&orig), 6)),
                ("master_push_time_s", Json::Fixed(time_s(&push), 6)),
                ("rse_time_s", Json::Fixed(time_s(&rse), 6)),
                ("push_vs_master_only", Json::Fixed(time_s(&orig) / time_s(&push), 3)),
                ("rse_vs_master_only", Json::Fixed(time_s(&orig) / time_s(&rse), 3)),
                ("rse_vs_push", Json::Fixed(time_s(&push) / time_s(&rse), 3)),
            ]),
        ),
        (
            "host_data_plane",
            Json::Obj(vec![
                ("diff_create_calls", Json::Int(h.diff_create_calls)),
                ("diff_apply_calls", Json::Int(h.diff_apply_calls)),
                ("twin_pool_hit_rate", rate(h.twin_pool_hits, h.twin_pool_misses)),
                ("scratch_pool_hit_rate", rate(h.scratch_pool_hits, h.scratch_pool_misses)),
                ("tlb_hit_rate", rate(h.tlb_hits, h.tlb_misses)),
            ]),
        ),
    ])
}

/// The KV sweep's grid: every node count at every skew, three strategies
/// on the same trace at each point.
const KV_NODES: [usize; 3] = [32, 64, 256];
const KV_SKEWS: [f64; 3] = [0.2, 0.99, 1.2];
const HOTTEST: f64 = KV_SKEWS[KV_SKEWS.len() - 1];

/// `BENCH_kv.json`: per-strategy throughput and tail latency of the
/// open-loop zipfian serving workload. Latencies are open-loop (queueing
/// delay included) over *virtual* time, so the tails measure protocol
/// contention, not host scheduling. Record-sized values (the tiny test
/// config would make the sections too small to be worth contending over)
/// on a short trace.
pub fn kv() -> Json {
    let base = KvConfig::scaled(512);
    let mut points = Vec::new();
    for n in KV_NODES {
        for theta in KV_SKEWS {
            let cfg = base.clone().with_skew(theta).weak_scaled(n);
            let run_kv =
                |rc: RunConfig| run(rc, |rt| KvStore::setup(rt, cfg.clone()), KvStore::run);
            let orig = run_kv(RunConfig::original(n)).result;
            let push = run_kv(RunConfig::master_push(n)).result;
            let rse = run_kv(RunConfig::optimized(n)).result;
            let state = |r: &KvResult| (r.fingerprint, r.read_xor, r.reads, r.writes);
            for (tag, r) in [("master_push", &push), ("rse", &rse)] {
                assert_eq!(
                    state(r),
                    state(&orig),
                    "{tag} diverged from master_only at {n} nodes, theta {theta}: \
                     a replicated or pushed page served stale data"
                );
            }
            // The paper's contention-elimination claim, restated for
            // serving: at the highest skew RSE is ahead at every node count.
            assert!(
                theta < HOTTEST || rse.throughput_rps >= orig.throughput_rps,
                "RSE must beat MasterOnly on throughput at theta {theta} with {n} nodes \
                 (rse {:.0} vs master_only {:.0} rps): replicating the hot shard's \
                 write sections is the whole point under skew",
                rse.throughput_rps,
                orig.throughput_rps
            );
            let strategy = |r: &KvResult| {
                Json::Obj(vec![
                    ("throughput_rps", Json::Fixed(r.throughput_rps, 1)),
                    ("p50_ns", Json::Int(r.p50_ns)),
                    ("p99_ns", Json::Int(r.p99_ns)),
                    ("p999_ns", Json::Int(r.p999_ns)),
                    ("time_s", Json::Fixed(r.total.as_secs_f64(), 6)),
                ])
            };
            points.push(Json::Obj(vec![
                ("nodes", Json::Int(n as u64)),
                ("zipf_theta", Json::Fixed(theta, 2)),
                ("requests", Json::Int(cfg.n_requests as u64)),
                ("fingerprint", Json::hex(orig.fingerprint)),
                ("master_only", strategy(&orig)),
                ("master_push", strategy(&push)),
                ("rse", strategy(&rse)),
                (
                    "rse_vs_master_only_throughput",
                    Json::Fixed(rse.throughput_rps / orig.throughput_rps, 3),
                ),
            ]));
        }
    }
    Json::Obj(vec![
        ("bench", Json::str("kv_serving_zipfian")),
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        (
            "note",
            Json::str(
                "open-loop zipfian KV serving: reads fan out cyclically across nodes, writes \
                 run as per-shard named sequential sections. latencies are virtual \
                 nanoseconds from request arrival to completion (queueing included); \
                 identical request traces and final-table fingerprints across strategies \
                 are asserted before this file is written",
            ),
        ),
        ("points", Json::Arr(points)),
    ])
}
