//! The schedule-sweep torture suite: the full stack under a grid of loss
//! schedules, with the coherence oracle and the protocol invariants
//! checked after every run. CI runs this in release mode (see the
//! `torture` job); the grids below total 200+ lossy schedules.

use std::sync::Arc;
use std::time::Instant;

use repseq_check::workload::ParBody;
use repseq_check::{
    grid, kitchen_sink, kv_serving, rse_kernel, run_schedule, sweep, Builder, HarnessConfig, Mem,
    Phase, Schedule, Workload,
};
use repseq_dsm::{Cluster, SeqMode, ShArray};

/// Run one seed-shard of a sweep and report its wall-clock time. The
/// sweeps are sharded into separate `#[test]` functions so
/// `--test-threads` parallelizes the grids across cores; run
/// with `--nocapture` to see the per-shard timings.
fn shard(
    name: &str,
    build: Builder,
    cfg: &HarnessConfig,
    seeds: std::ops::Range<u64>,
    rates: &[u32],
) {
    let schedules = grid(seeds.clone(), rates, &[false, true]);
    let expected = schedules.len();
    let t0 = Instant::now();
    let sum = sweep(build, cfg, &schedules);
    eprintln!(
        "torture shard {name} seeds {}..{}: {} schedules, {} drops, {} chain holes in {:.2?}",
        seeds.start,
        seeds.end,
        sum.schedules,
        sum.drops,
        sum.chain_holes,
        t0.elapsed()
    );
    assert_eq!(sum.schedules, expected);
    assert!(sum.drops > 0, "the shard must actually drop frames to mean anything");
}

/// Lossless baseline: the oracle itself must hold on clean runs of both
/// workloads under every sequential-execution strategy (a failure here is
/// an oracle or workload bug, not a protocol bug).
#[test]
fn clean_runs_satisfy_the_oracle() {
    let clean = Schedule { seed: 0, drop_per_mille: 0, unicast: false };
    for seq_mode in [SeqMode::MasterOnly, SeqMode::Replicated, SeqMode::MasterPush] {
        let cfg = HarnessConfig { seq_mode, ..HarnessConfig::default() };
        for build in [rse_kernel, kitchen_sink, kv_serving] {
            let out = run_schedule(build, &cfg, clean).unwrap_or_else(|r| panic!("{r}"));
            assert_eq!(out.drops, 0);
        }
    }
}

/// The RSE-heavy kernel across seeds × drop rates × loss media. Brutal
/// drop rates with a short recovery timeout: every schedule must converge
/// to reference memory and leave the protocol quiescent. Sharded by seed
/// (4 × 42 = the original 168-schedule grid).
#[test]
fn torture_sweep_rse_kernel_shard0() {
    shard("rse_kernel/0", rse_kernel, &HarnessConfig::default(), 0..7, &[100, 250, 400]);
}

#[test]
fn torture_sweep_rse_kernel_shard1() {
    shard("rse_kernel/1", rse_kernel, &HarnessConfig::default(), 7..14, &[100, 250, 400]);
}

#[test]
fn torture_sweep_rse_kernel_shard2() {
    shard("rse_kernel/2", rse_kernel, &HarnessConfig::default(), 14..21, &[100, 250, 400]);
}

#[test]
fn torture_sweep_rse_kernel_shard3() {
    shard("rse_kernel/3", rse_kernel, &HarnessConfig::default(), 21..28, &[100, 250, 400]);
}

/// The full-feature mix (locks, cross-block reads, cyclic updates) across
/// a smaller grid at a different node count (2 × 30 schedules). The 100 ‰
/// rate covers the one coherence violation ever seen off the simulator:
/// kitchen_sink, 4 nodes, seed 1, 100 ‰ multicast loss (HISTORY.md).
#[test]
fn torture_sweep_kitchen_sink_shard0() {
    let cfg = HarnessConfig { nodes: 4, ..HarnessConfig::default() };
    shard("kitchen_sink/0", kitchen_sink, &cfg, 0..5, &[100, 150, 350]);
}

#[test]
fn torture_sweep_kitchen_sink_shard1() {
    let cfg = HarnessConfig { nodes: 4, ..HarnessConfig::default() };
    shard("kitchen_sink/1", kitchen_sink, &cfg, 5..10, &[100, 150, 350]);
}

/// The KV serving loop under loss: per-shard replicated write sections
/// interleaved with cyclic read serving, the shape where a stale hot page
/// served to a read is a silent wrong answer rather than a crash. Every
/// schedule must still converge to reference memory (2 × 20-schedule
/// grid).
#[test]
fn torture_sweep_kv_serving_shard0() {
    let cfg = HarnessConfig { nodes: 4, ..HarnessConfig::default() };
    shard("kv_serving/0", kv_serving, &cfg, 0..5, &[150, 350]);
}

#[test]
fn torture_sweep_kv_serving_shard1() {
    let cfg = HarnessConfig { nodes: 4, ..HarnessConfig::default() };
    shard("kv_serving/1", kv_serving, &cfg, 5..10, &[150, 350]);
}

/// The MasterPush strategy under loss: a dropped `PageBroadcast` frame
/// must degrade to a demand fetch in the next parallel section, never to
/// stale data. Same workloads, same oracle, no chain machinery — so the
/// shards assert drops only.
#[test]
fn torture_sweep_master_push_shard0() {
    let cfg = HarnessConfig { seq_mode: SeqMode::MasterPush, ..HarnessConfig::default() };
    shard("master_push/rse_kernel", rse_kernel, &cfg, 0..7, &[100, 250, 400]);
}

#[test]
fn torture_sweep_master_push_shard1() {
    let cfg = HarnessConfig { nodes: 4, seq_mode: SeqMode::MasterPush, ..HarnessConfig::default() };
    shard("master_push/kitchen_sink", kitchen_sink, &cfg, 0..5, &[150, 350]);
}

/// A divergence planted in the workload alone: every node stores `me + 1`
/// to one word with no lock, then each node reads the word back into its
/// own slot. The reference replays the stores in node order and ends at
/// `n`; the multiple-writer merge settles the race its own way, so some
/// node's copy disagrees.
fn racy_store(cl: &mut Cluster, n: usize) -> Workload {
    let word: ShArray<u64> = cl.alloc_array_page_aligned(1);
    let slots: ShArray<u64> = cl.alloc_array_page_aligned(n);
    let store: ParBody =
        Arc::new(move |m: &mut dyn Mem, me: usize, _n: usize| m.st(word.addr(0), me as u64 + 1));
    let read_back: ParBody = Arc::new(move |m: &mut dyn Mem, me: usize, _n: usize| {
        let v = m.ld(word.addr(0))?;
        m.st(slots.addr(me), v)
    });
    let (first, _) = word.page_span();
    let (_, last) = slots.page_span();
    Workload {
        name: "racy_store",
        phases: vec![Phase::Parallel(store), Phase::Parallel(read_back)],
        audit: (first..=last).collect(),
    }
}

/// The oracle's sensitivity: it must catch the planted divergence. The
/// report of a coherence violation — and only that report — goes on to
/// print the divergent page's slot on every node; the expected text pins
/// that too.
#[test]
#[should_panic(expected = "'s slot on every node at exit:\n    slot[0]: Some(PageMeta {")]
fn a_racy_store_is_caught_by_the_oracle() {
    let cfg = HarnessConfig { nodes: 4, ..HarnessConfig::default() };
    let clean = [Schedule { seed: 0, drop_per_mille: 0, unicast: false }];
    sweep(racy_store, &cfg, &clean);
}

/// The divergence report machinery itself: a schedule that drops frames
/// but passes produces no report; sanity-check the report renderer by
/// forcing a failure through an impossible expectation is not possible
/// from outside, so instead assert the reporting path's building blocks —
/// the traced re-run — stays deterministic: two traced runs of the same
/// lossy schedule produce identical drop logs.
#[test]
fn lossy_schedules_are_reproducible() {
    let cfg = HarnessConfig::default();
    let sched = Schedule { seed: 7, drop_per_mille: 300, unicast: true };
    let a = run_schedule(rse_kernel, &cfg, sched).unwrap_or_else(|r| panic!("{r}"));
    let b = run_schedule(rse_kernel, &cfg, sched).unwrap_or_else(|r| panic!("{r}"));
    assert_eq!(a.drops, b.drops);
    assert_eq!(a.events, b.events);
    assert_eq!(a.chain_holes, b.chain_holes);
}
