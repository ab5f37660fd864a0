//! The twin pool holds only released twins.
//!
//! Nothing is prewarmed: a node allocates a twin buffer only when its pool
//! is empty, and diff creation hands the consumed twin back. So a node
//! that twins the same pages round after round allocates one buffer per
//! page once and reuses it ever after. The workload makes exactly that
//! churn through ordinary writes: each round the master writes one element
//! per page of a 128-page segment (a write fault, so a twin, per page),
//! then node 1 reads every page in a parallel section — the fork carries
//! the master's write notices, node 1's faults ask the master for the
//! diffs, and creating them releases every twin. No other node writes.
//! (A write inside a replicated section takes no twin at all, §5.3.)
//!
//! Kept as the single test of this binary on purpose: being the only
//! cluster this process ever runs, it can also hold the process total
//! `repseq_stats::host::snapshot()` — the facade the frozen `benchmark/`
//! reads — to its run's own `stats.host()`. It is the one test of that
//! facade in the workspace.

use std::sync::Arc;

use repseq_dsm::{Cluster, ClusterConfig, PAGE_SIZE};
use repseq_stats::{host, Stats};

const N: usize = 4;
const SEG_PAGES: u64 = 128;
const ROUNDS: u64 = 8;

#[test]
fn released_twins_are_reused_and_nothing_else_is_allocated() {
    let stats = Stats::new(N);
    let mut cl = Cluster::new(ClusterConfig::paper(N), Arc::clone(&stats));
    let per_page = PAGE_SIZE / 8;
    let len = SEG_PAGES as usize * per_page;
    let arr = cl.alloc_array_page_aligned::<u64>(len);

    let (_, launched) = cl.launch_master(move |node| {
        for round in 0..ROUNDS {
            // One element per page run: the fault and the twin are per page.
            arr.with_slices_mut(node, 0..len, |run| {
                run.set(0, run.first_index() as u64 + round);
                Ok(())
            })?;
            node.run_parallel(move |nd| {
                if nd.node() == 1 {
                    arr.with_slices(nd, 0..len, |run| {
                        assert_eq!(run.get(0), run.first_index() as u64 + round);
                        Ok(())
                    })?;
                }
                Ok(())
            })?;
        }
        Ok(())
    });
    launched.result.expect("simulation must complete");

    let d = stats.host();
    assert_eq!(host::snapshot(), d, "the process total is this one run's sum");
    assert_eq!(d.twin_pool_misses, SEG_PAGES, "one buffer per page, allocated once");
    assert_eq!(d.twin_pool_hits, SEG_PAGES * (ROUNDS - 1), "every later twin is a released one");
}
