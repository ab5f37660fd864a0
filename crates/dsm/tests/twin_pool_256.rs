//! Twin-pool behavior at large cluster sizes.
//!
//! The pool's prewarm is split across nodes by a cluster-wide budget (see
//! `TWIN_POOL_PREWARM_BUDGET` in `dataplane.rs`), so a 256-node cluster
//! does not eagerly commit 256 full per-node pools. The flip side this
//! test pins: even with the reduced per-node prewarm, a 256-node run must
//! keep its twin-pool hit rate ≥ 0.90 — cold-start misses are bounded by
//! the prewarm shortfall once, and every later fault burst is served by
//! recycled buffers (the pool *cap* still tracks the full segment).
//!
//! The workload drives the heaviest twin churn the protocol has: repeated
//! replicated sections touching every page of a segment *larger* than the
//! per-node prewarm share. Every node twins every page inside each section
//! (§5.3 keeps replicated writes separable), and section retirement
//! recycles all of them — no write notices, no diffs, no cross-node page
//! traffic, so the test stays cheap even at 256 nodes. One written element
//! per page run keeps the churn per-page (where the pool lives) instead of
//! per-element.
//!
//! Kept as the single test of this binary on purpose: being the only
//! cluster this process ever runs, it can also hold the process total
//! `repseq_stats::host::snapshot()` — the facade the frozen `benchmark/`
//! reads — to its run's own `stats.host()`. It is the one test of that
//! facade in the workspace.

use std::sync::Arc;

use repseq_dsm::{Cluster, ClusterConfig, DsmNode};
use repseq_sim::Stopped;
use repseq_stats::{host, Stats};

const N: usize = 256;
const SEG_PAGES: usize = 128;
const ROUNDS: u64 = 8;

type AppFn = Box<dyn FnOnce(DsmNode) -> Result<(), Stopped> + Send>;

#[test]
fn twin_pool_hit_rate_stays_high_at_256_nodes() {
    let stats = Stats::new(N);
    let mut cl = Cluster::new(ClusterConfig::paper(N), Arc::clone(&stats));
    // A segment wider than the 256-node prewarm share (8192 / 256,
    // floored at 64 pages), so the rate genuinely depends on recycling.
    let per_page = cl.config().dsm.page_size / 8;
    let len = SEG_PAGES * per_page;
    let arr = cl.alloc_array_page_aligned::<u64>(len);

    let master = move |node: DsmNode| -> Result<(), Stopped> {
        for round in 0..ROUNDS {
            // Replicated: every node dirties every page locally (one
            // element per page run — the fault and the twin are per page).
            // All pages stay valid everywhere (only ever written inside
            // sections, which retire them valid), so each write faults,
            // twins the page, and the twin is recycled at section exit.
            node.run_replicated(move |nd| {
                arr.with_slices_mut(nd, 0..len, |run| {
                    run.set(0, run.first_index() as u64 + round);
                    Ok(())
                })
            })?;
        }
        node.shutdown_slaves()
    };

    let mut apps: Vec<AppFn> = vec![Box::new(master)];
    for _ in 1..N {
        apps.push(Box::new(|node: DsmNode| node.slave_loop()));
    }
    cl.launch(apps).expect("simulation must complete");

    let d = stats.host();
    assert_eq!(host::snapshot(), d, "the process total is this one run's sum");
    let takes = d.twin_pool_hits + d.twin_pool_misses;
    assert!(
        takes as usize >= N * SEG_PAGES * ROUNDS as usize,
        "workload must actually churn the twin pool ({takes} takes)"
    );
    let rate = d.twin_pool_hits as f64 / takes as f64;
    assert!(
        rate >= 0.90,
        "256-node twin-pool hit rate {rate:.3} < 0.90 ({} hits / {takes} takes): \
         large clusters must not silently fall back to malloc",
        d.twin_pool_hits
    );
}
