//! Page buffers under twin churn: a written page is one buffer again once
//! its reader has fetched it.
//!
//! Each round the master writes one element per page of a 128-page
//! segment (a write fault, so a twin, per page), then node 1 reads every
//! page in place (`read_range`: a read guard would hold a copy of its
//! own) in a parallel section — the fork carries the master's write
//! notices, node 1's faults ask the master for the diffs, and creating
//! them releases every twin. No other node writes. A twin is the buffer
//! the page had where the node shared it (the zero page in the first
//! round, after that the buffer node 1 shares), and a fetch that ends with
//! the master's bytes shares the master's buffer, so the buffers the
//! cluster holds are exact counts, round after round.
//!
//! Kept as the single test of this binary on purpose: being the only
//! cluster this process ever runs, it can also hold the process total
//! `repseq_stats::host::snapshot()` — the facade the frozen `benchmark/`
//! reads — to its run's own `stats.host()`. It is the one test of that
//! facade in the workspace.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use repseq_dsm::{Cluster, ClusterConfig, DsmNode, PAGE_SIZE};
use repseq_sim::Stopped;
use repseq_stats::{host, Stats};

const N: usize = 4;
const SEG_PAGES: usize = 128;
const ROUNDS: u64 = 8;

/// The distinct buffers every node holds apart from the segment's, page
/// and twin buffers alike, read in a parallel section.
fn buffers(node: &DsmNode) -> Result<usize, Stopped> {
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let out = Arc::clone(&seen);
    node.run_parallel(move |nd| {
        let (own, twins, _) = nd.ctx().state().footprint();
        out.lock().unwrap().extend(own.into_iter().chain(twins));
        Ok(())
    })?;
    let count = seen.lock().unwrap().len();
    Ok(count)
}

#[test]
fn a_churned_page_is_one_buffer_after_each_round() {
    let stats = Stats::new(N);
    let mut cl = Cluster::new(ClusterConfig::paper(N), Arc::clone(&stats));
    let per_page = PAGE_SIZE / 8;
    let len = SEG_PAGES * per_page;
    let arr = cl.alloc_array_page_aligned::<u64>(len);

    let (counts, launched) = cl.launch_master(move |node| {
        let mut counts = Vec::new();
        for round in 0..ROUNDS {
            // One element per page run: the fault and the twin are per page.
            arr.with_slices_mut(node, 0..len, |run| {
                run.set(0, run.first_index() as u64 + round);
                Ok(())
            })?;
            let written = buffers(node)?;
            node.run_parallel(move |nd| {
                if nd.node() == 1 {
                    let mut all = vec![0; len];
                    arr.read_range(nd, 0, &mut all)?;
                    for (i, v) in all.iter().enumerate().step_by(per_page) {
                        assert_eq!(*v, i as u64 + round);
                    }
                }
                Ok(())
            })?;
            counts.push((written, buffers(node)?));
        }
        Ok(counts)
    });
    launched.result.expect("simulation must complete");

    let d = stats.host();
    assert_eq!(host::snapshot(), d, "the process total is this one run's sum");
    // The first round's twins are the zero page; every later round's are
    // the buffers node 1 shares, and the master's stores write copies.
    let mut want = vec![(SEG_PAGES, SEG_PAGES)];
    want.resize(ROUNDS as usize, (2 * SEG_PAGES, SEG_PAGES));
    assert_eq!(counts.unwrap(), want, "(after the writes, after the read) by round");
}
