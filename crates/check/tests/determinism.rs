//! Run-to-run determinism of what `tests/pins/` does not pin: the KV
//! serving run and its zipfian trace, and torture schedules drawn at random
//! over loss seeds, drop rates and sequential-section strategies. Which
//! host thread runs a cluster, and how the scheduler interleaves it with
//! the others, differs between two runs of one process; nothing in a
//! report, a statistics snapshot or a fingerprint may. Nor may what else
//! the process is simulating at the time: a run's host-side counts are its
//! cluster's own.

mod support;

use proptest::prelude::*;
use repseq_apps::kv::{KvConfig, KvStore};
use repseq_check::{rse_kernel, run_schedule_instrumented, HarnessConfig, Schedule};
use repseq_core::{RunConfig, Runtime};
use repseq_dsm::SeqMode;
use repseq_stats::HostCounters;
use support::render;

/// The trace uses counter-based hashing (no host RNG, no iteration-order
/// state), so its hash must not move; and the full rendered report —
/// virtual end time, statistics, fingerprint, tail latencies — must match
/// byte for byte.
#[test]
fn kv_trace_and_run_repeat_exactly() {
    let run = || {
        let mut rt = Runtime::new(RunConfig::optimized(8));
        let kv = KvStore::setup(&mut rt, KvConfig::tiny());
        let trace_hash = kv.trace_hash();
        let stats = rt.stats();
        let (r, report) = rt.run_value(move |team| kv.run(team)).expect("run must complete");
        assert!(report.exec.handoff_switches > 0, "{:?}", report.exec);
        (trace_hash, render(&report, &stats.snapshot(), &format!("{r:?}")))
    };
    let first = run();
    for _ in 0..2 {
        assert_eq!(first, run(), "the KV run diverged from its previous run");
    }
}

/// Two different clusters simulated at the same time, one thread each,
/// each report the data-plane counts they report alone (the two host
/// *times* aside): no counter is shared between runs. Each round starts
/// behind a barrier so the runs overlap; a failed run is a `None`, never a
/// panic that would leave the other thread at the barrier.
#[test]
fn concurrent_clusters_count_only_their_own_host_work() {
    const ROUNDS: usize = 4;
    fn host_of(rc: RunConfig) -> Option<HostCounters> {
        let mut rt = Runtime::new(rc);
        let kv = KvStore::setup(&mut rt, KvConfig::tiny());
        let stats = rt.stats();
        rt.run_value(move |team| kv.run(team)).ok()?;
        Some(HostCounters { diff_create_ns: 0, diff_apply_ns: 0, ..stats.host() })
    }
    let configs = [RunConfig::optimized(8), RunConfig::original(4)];
    let alone = configs.clone().map(host_of);
    assert_ne!(alone[0], alone[1], "the two clusters must do different work");
    for h in alone {
        assert_ne!(h.expect("run must complete"), HostCounters::default());
    }
    let start = std::sync::Barrier::new(configs.len());
    let together = std::thread::scope(|s| {
        let start = &start;
        let threads = configs.map(|rc| {
            s.spawn(move || {
                [(); ROUNDS].map(|()| {
                    start.wait();
                    host_of(rc.clone())
                })
            })
        });
        threads.map(|t| t.join().expect("a run's failure is a None"))
    });
    for (alone, rounds) in alone.into_iter().zip(together) {
        assert_eq!(rounds, [alone; ROUNDS], "a run counted another cluster's work");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On lossy schedules the §5.4.2 recovery machinery runs, so this
    /// covers timeout wakeups, reply chains and out-of-band multicasts.
    #[test]
    fn torture_schedules_repeat_exactly(
        (seed, rate_idx, strat_idx) in (0u64..1_000_000, 0usize..4, 0usize..3)
    ) {
        let sched = Schedule {
            seed,
            drop_per_mille: [0u32, 60, 150, 300][rate_idx],
            unicast: rate_idx % 2 == 1,
        };
        let seq_mode =
            [SeqMode::Replicated, SeqMode::MasterOnly, SeqMode::MasterPush][strat_idx];
        let run = || {
            let cfg = HarnessConfig { seq_mode, ..HarnessConfig::default() };
            run_schedule_instrumented(rse_kernel, &cfg, sched, None)
                .unwrap_or_else(|e| panic!("schedule {sched:?} ({seq_mode:?}): {e}"))
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(&a.sim, &b.sim, "fingerprint diverged on {:?} ({:?})", sched, seq_mode);
        prop_assert_eq!(&a.stats, &b.stats, "stats diverged on {:?} ({:?})", sched, seq_mode);
        prop_assert_eq!(a.drops, b.drops);
    }
}
