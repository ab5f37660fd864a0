//! The software TLB and its generation-counter coherence contract.
//!
//! Three layers of assurance:
//!
//! * unit tests pin every protection-*revocation* site to a generation
//!   bump (interval close, write-notice invalidation, replicated-section
//!   entry and exit) — a missed bump is a stale-translation bug that only
//!   shows up under specific interleavings, so each site is pinned
//!   explicitly;
//! * a cluster-level regression drives §5.3 through the *bulk* guard path:
//!   pages dirtied in a parallel section are rewritten inside a replicated
//!   section via `with_slices_mut`, which must take the write fault (and
//!   create the pre-section diff) rather than ride a stale writable TLB
//!   entry;
//! * an invariance test runs the same workload with the TLB on and off and
//!   requires bit-identical virtual time, message and byte counts — the
//!   fast path is a host-time optimization and must be invisible to the
//!   simulation.

#![allow(clippy::type_complexity)]

use std::sync::Arc;

use parking_lot::Mutex;
use repseq_dsm::{
    Cluster, ClusterConfig, DsmConfig, DsmNode, IntervalRecord, NodeState, PageId, SharedSegment,
    Vc,
};
use repseq_sim::Stopped;
use repseq_stats::{host, Stats};

// ---------------------------------------------------------------
// Generation-bump unit tests
// ---------------------------------------------------------------

/// A hand-built state: no segment, so the page table grows on touch.
fn mk_state_with(cfg: DsmConfig) -> NodeState {
    let segment = Arc::new(SharedSegment::new(cfg.page_size, 0));
    NodeState::new(0, 2, cfg, segment)
}

fn mk_state() -> NodeState {
    mk_state_with(DsmConfig::default())
}

fn gen(st: &NodeState) -> u64 {
    st.prot_gen()
}

/// Make page `p` a valid, written page (as after a write fault).
fn write_page(st: &mut NodeState, p: PageId) {
    st.page_mut(p).valid = true;
    st.page_data(p);
    st.write_fault(p);
}

#[test]
fn close_interval_bumps_generation() {
    let mut st = mk_state();
    write_page(&mut st, 3);
    let g = gen(&st);
    st.close_interval();
    assert!(gen(&st) > g, "interval close re-protects written pages; TLB must revalidate");
    assert!(!st.page_mut(3).writable);
}

#[test]
fn close_interval_without_writes_does_not_bump() {
    let mut st = mk_state();
    let g = gen(&st);
    st.close_interval();
    assert_eq!(gen(&st), g, "nothing was re-protected, nothing to invalidate");
}

#[test]
fn write_notice_invalidation_bumps_generation() {
    let mut st = mk_state();
    // A valid (read-only) copy of page 5.
    st.page_mut(5).valid = true;
    st.page_data(5);
    let g = gen(&st);
    let mut vc = Vc::zero(2);
    vc.set(1, 1);
    let rec = IntervalRecord::new(1, 1, vc.clone(), vec![5]);
    st.apply_records(vec![rec], &vc);
    assert!(!st.page_mut(5).valid, "the notice must invalidate the copy");
    assert!(gen(&st) > g, "invalidation revokes the translation; TLB must revalidate");
}

#[test]
fn irrelevant_records_do_not_bump() {
    let mut st = mk_state();
    let mut vc = Vc::zero(2);
    vc.set(1, 1);
    let rec = IntervalRecord::new(1, 1, vc.clone(), vec![9]);
    st.apply_records(vec![rec.clone()], &vc);
    let g = gen(&st);
    // The duplicate is skipped and the copy is already invalid: nothing
    // new is revoked, so the TLB may keep its entries.
    st.apply_records(vec![rec], &vc);
    assert_eq!(gen(&st), g, "no copy was invalidated, the TLB may keep its entries");
}

#[test]
fn replicated_entry_and_exit_bump_generation() {
    let mut st = mk_state();
    write_page(&mut st, 7);
    let g0 = gen(&st);
    // §5.3: entry write-protects the dirty page — a writable TLB entry
    // from before the section would skip the pre-section diff.
    st.enter_replicated();
    let g1 = gen(&st);
    assert!(g1 > g0, "entry revokes write permission on dirty pages");
    st.write_fault(7); // first write inside the section
    st.exit_replicated();
    assert!(gen(&st) > g1, "retirement re-protects the section's pages");
}

#[test]
fn break_flag_suppresses_every_bump() {
    let cfg = DsmConfig { tlb_break_generation_bumps: true, ..DsmConfig::default() };
    let mut st = mk_state_with(cfg);
    write_page(&mut st, 3);
    st.close_interval();
    st.enter_replicated();
    st.exit_replicated();
    assert_eq!(gen(&st), 0, "the fault-injection flag must disable the counter entirely");
}

// ---------------------------------------------------------------
// Cluster-level tests
// ---------------------------------------------------------------

const N: usize = 3;

/// The §5.3 torture shape on the guard path: a parallel phase dirties
/// pages element-wise (warming writable TLB entries), then a replicated
/// section rewrites the same pages through `with_slices_mut`, then the
/// values are read back on every node. Correct final values on all nodes
/// prove the bulk writes inside the section faulted (stale writable TLB
/// entries would skip the §5.3 pre-section diff and corrupt the merge).
fn run_53_bulk(
    tlb_enabled: bool,
) -> (Vec<Vec<u64>>, repseq_sim::SimReport, repseq_stats::StatsSnapshot) {
    let stats = Stats::new(N);
    let mut ccfg = ClusterConfig::paper(N);
    ccfg.dsm.tlb_enabled = tlb_enabled;
    let mut cl = Cluster::new(ccfg, Arc::clone(&stats));
    let per_page = cl.config().dsm.page_size / 8;
    let len = N * per_page;
    let arr = cl.alloc_array_page_aligned::<u64>(len);
    let out = Arc::new(Mutex::new(vec![Vec::new(); N]));

    let out_m = Arc::clone(&out);
    let master = move |node: DsmNode| -> Result<(), Stopped> {
        let chunk = len / N;
        for round in 0..2u64 {
            // Parallel: each node writes its block element-wise — on the
            // second and later touches of a page these writes ride the TLB.
            node.run_parallel(move |nd| {
                let me = nd.node();
                for i in me * chunk..(me + 1) * chunk {
                    arr.set(nd, i, (i as u64) * 3 + round)?;
                }
                Ok(())
            })?;
            // Replicated: rewrite everything through the bulk guard path.
            // Entry must invalidate the writable TLB entries warmed above.
            node.run_replicated(move |nd| {
                arr.with_slices_mut(nd, 0..len, |run| {
                    let first = run.first_index() as u64;
                    for j in 0..run.len() {
                        let prev = run.get(j);
                        run.set(j, prev.wrapping_mul(2).wrapping_add(first + j as u64));
                    }
                    Ok(())
                })
            })?;
        }
        // Read back on every node through the read-guard path.
        let out_c = Arc::clone(&out_m);
        node.run_parallel(move |nd| {
            let mut v = Vec::with_capacity(len);
            arr.with_slices(nd, 0..len, |run| {
                for j in 0..run.len() {
                    v.push(run.get(j));
                }
                Ok(())
            })?;
            out_c.lock()[nd.node()] = v;
            Ok(())
        })?;
        node.shutdown_slaves()
    };

    let mut apps: Vec<Box<dyn FnOnce(DsmNode) -> Result<(), Stopped> + Send>> =
        vec![Box::new(master)];
    for _ in 1..N {
        apps.push(Box::new(|node: DsmNode| node.slave_loop()));
    }
    let report = cl.launch(apps).expect("simulation must complete");
    let vals = std::mem::take(&mut *out.lock());
    (vals, report, stats.snapshot())
}

/// The ideal machine for `run_53_bulk`.
fn golden_53(len: usize) -> Vec<u64> {
    let mut mem = vec![0u64; len];
    for round in 0..2u64 {
        for (i, v) in mem.iter_mut().enumerate() {
            *v = (i as u64) * 3 + round;
        }
        for (i, v) in mem.iter_mut().enumerate() {
            *v = v.wrapping_mul(2).wrapping_add(i as u64);
        }
    }
    mem
}

#[test]
fn replicated_bulk_writes_take_the_53_fault_path() {
    let (vals, _, _) = run_53_bulk(true);
    let want = golden_53(vals[0].len());
    for (node, v) in vals.iter().enumerate() {
        assert_eq!(
            v, &want,
            "node {node}: replicated guard writes must fault past stale TLB entries \
             (§5.3 pre-section diff)"
        );
    }
}

#[test]
fn tlb_is_invisible_to_virtual_time() {
    let before = host::snapshot();
    let (vals_on, rep_on, snap_on) = run_53_bulk(true);
    let hits = host::snapshot().since(&before).tlb_hits;
    assert!(hits > 0, "the workload must actually exercise the TLB fast path");

    let (vals_off, rep_off, snap_off) = run_53_bulk(false);
    assert_eq!(vals_on, vals_off, "contents must not depend on the fast path");
    assert_eq!(rep_on.end_time, rep_off.end_time, "virtual end time must be identical");
    assert_eq!(rep_on.proc_clocks, rep_off.proc_clocks, "per-process clocks must be identical");
    assert_eq!(rep_on.events_processed, rep_off.events_processed);
    let (a, b) = (snap_on.total_agg_with_startup(), snap_off.total_agg_with_startup());
    assert_eq!(a.messages, b.messages, "message counts must be identical");
    assert_eq!(a.bytes, b.bytes, "byte counts must be identical");
    assert_eq!(a.page_faults, b.page_faults, "fault counts must be identical");
}
