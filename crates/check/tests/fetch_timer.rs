//! The demand fetch's retransmission timer: a reply slower than the timer
//! is late, not lost. With a fixed timer a lossless run whose replies
//! outlast the retry budget died with "diff fetch for page … incomplete
//! after 32 resends"; a timer that backs off and learns the fetch time
//! completes it with the physics, and nearly the traffic, of a run in
//! which no timer fires.

use repseq_apps::barnes_hut::{BarnesHut, BhConfig, BhResult};
use repseq_core::{RunConfig, Runtime};
use repseq_sim::Dur;

/// Barnes-Hut, 1 024 bodies on 8 nodes, master-only sections, lossless,
/// with the fetch timer at `rse_timeout` scaled by `scale`: the result,
/// the messages sent and the stale replies absorbed.
fn run(scale: impl Fn(Dur) -> Dur) -> (BhResult, u64, u64) {
    let mut cfg = RunConfig::original(8);
    cfg.cluster.dsm.rse_timeout = scale(cfg.cluster.dsm.rse_timeout);
    let mut rt = Runtime::new(cfg);
    let bh = BarnesHut::setup(&mut rt, BhConfig::scaled(1024));
    let stats = rt.stats();
    let (r, _) = rt.run_value(move |team| bh.run(team)).expect("the run must complete");
    let total = stats.snapshot().total_agg();
    (r, total.messages, total.stale_replies)
}

#[test]
fn a_timer_far_below_the_fetch_time_costs_a_few_resends_not_the_run() {
    // 500 ms x 20 = 10 s: no timer fires. 500 ms / 5 000 = 100 us, under a
    // parallel-section reply's round trip, so nearly every fetch times out.
    let (quiet, quiet_msgs, quiet_stale) = run(|t| t * 20);
    let (eager, eager_msgs, eager_stale) = run(|t| t / 5000);
    assert_eq!(quiet_stale, 0, "no timer fires at 20 x rse_timeout");
    assert_eq!(eager.checksum.to_bits(), quiet.checksum.to_bits(), "same physics");
    assert_eq!(eager.interactions, quiet.interactions);
    assert!(eager_stale > 0, "the 100 us timer must fire");
    assert!(
        eager_msgs * 100 <= quiet_msgs * 105,
        "resends must stay within 5 % of the quiet run's traffic: {eager_msgs} vs {quiet_msgs} \
         ({eager_stale} stale)"
    );
}
