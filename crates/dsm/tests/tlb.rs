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
//!   simulation;
//! * count tests hold the hit, miss and fault counts of a page-run guard
//!   to the element-wise walk of the same range, and find every node's
//!   counts in the run's own `stats.host()` the moment the run returns —
//!   nodes count in plain fields of their own, which the cluster sums.

#![allow(clippy::type_complexity)]

use std::sync::{Arc, Mutex};

use repseq_dsm::{
    AppFn, Cluster, ClusterConfig, DsmConfig, DsmNode, IntervalRecord, NodeState, PageId, Pod,
    SeqMode, ShArray, SharedSegment, Vc,
};
use repseq_sim::{SimError, Stopped};
use repseq_stats::{HostCounters, Stats};

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
    st.close_interval(); // the runtime enters a section between intervals
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
) -> (Vec<Vec<u64>>, repseq_sim::SimReport, repseq_stats::StatsSnapshot, HostCounters) {
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
            node.run_sequential(SeqMode::Replicated, move |nd| {
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
            out_c.lock().unwrap()[nd.node()] = v;
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
    let vals = std::mem::take(&mut *out.lock().unwrap());
    (vals, report, stats.snapshot(), stats.host())
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
    let (vals, ..) = run_53_bulk(true);
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
    let (vals_on, rep_on, snap_on, host_on) = run_53_bulk(true);
    assert!(host_on.tlb_hits > 0, "the workload must actually exercise the TLB fast path");

    let (vals_off, rep_off, snap_off, _) = run_53_bulk(false);
    assert_eq!(vals_on, vals_off, "contents must not depend on the fast path");
    assert_eq!(rep_on.end_time, rep_off.end_time, "virtual end time must be identical");
    assert_eq!(rep_on.proc_clocks, rep_off.proc_clocks, "per-process clocks must be identical");
    assert_eq!(rep_on.events_processed, rep_off.events_processed);
    let (a, b) = (snap_on.total_agg_with_startup(), snap_off.total_agg_with_startup());
    assert_eq!(a.messages, b.messages, "message counts must be identical");
    assert_eq!(a.bytes, b.bytes, "byte counts must be identical");
    assert_eq!(a.page_faults, b.page_faults, "fault counts must be identical");
}

// ---------------------------------------------------------------
// Count preservation: guards against the element-wise walk
// ---------------------------------------------------------------

/// Read `range` of `arr` one element at a time, or as page runs.
fn read_walk<T: Pod>(
    nd: &DsmNode,
    arr: ShArray<T>,
    range: std::ops::Range<usize>,
    bulk: bool,
    mut f: impl FnMut(usize, T),
) -> Result<(), Stopped> {
    if !bulk {
        for i in range {
            f(i, arr.get(nd, i)?);
        }
        return Ok(());
    }
    arr.with_slices(nd, range, |run| {
        for k in 0..run.len() {
            f(run.first_index() + k, run.get(k));
        }
        Ok(())
    })
}

/// Write `f(i)` to every element of `range`, element-wise or as page runs.
fn write_walk<T: Pod>(
    nd: &DsmNode,
    arr: ShArray<T>,
    range: std::ops::Range<usize>,
    bulk: bool,
    f: impl Fn(usize) -> T,
) -> Result<(), Stopped> {
    if !bulk {
        for i in range {
            arr.set(nd, i, f(i))?;
        }
        return Ok(());
    }
    arr.with_slices_mut(nd, range, |run| {
        for k in 0..run.len() {
            run.set(k, f(run.first_index() + k));
        }
        Ok(())
    })
}

/// What a run cost: TLB hits and misses (from the run's `stats.host()`),
/// page faults, and a checksum of what the walk read.
#[derive(Debug, PartialEq)]
struct Counts {
    hits: u64,
    misses: u64,
    faults: u64,
    sum: u64,
}

#[derive(Clone, Copy, Debug)]
enum Span {
    /// Three whole pages of `u64`.
    WholePages,
    /// Three pages' worth of `u64` starting in the middle of a page.
    MidPage,
    /// Three pages of 24-byte elements, some straddling a page boundary.
    Straddling,
}

/// Node 1 writes both arrays element-wise (so the master's copies go
/// invalid at the join), then the master walks `span` — reading it, or
/// rewriting it — element-wise or through the guards. Everything but the
/// master's walk is the same code in both variants, so equal counts for
/// the run are equal counts for the walk. Also returns how many elements
/// of the span straddle a page boundary.
fn run_walk(span: Span, write: bool, bulk: bool, tlb_enabled: bool) -> (Counts, u64) {
    let stats = Stats::new(2);
    let mut ccfg = ClusterConfig::paper(2);
    ccfg.dsm.tlb_enabled = tlb_enabled;
    let mut cl = Cluster::new(ccfg, Arc::clone(&stats));
    let ps = cl.config().dsm.page_size;
    let per_page = ps / 8;
    let words = cl.alloc_array_page_aligned::<u64>(4 * per_page);
    let triples = cl.alloc_array_page_aligned::<[u64; 3]>(3 * ps / 24);
    let straddlers = match span {
        Span::Straddling => {
            (0..triples.len()).filter(|&i| triples.addr(i) as usize % ps + 24 > ps).count() as u64
        }
        _ => 0,
    };
    let sum = Arc::new(Mutex::new(0u64));

    let sum_m = Arc::clone(&sum);
    let master = move |node: DsmNode| -> Result<(), Stopped> {
        node.run_parallel(move |nd| {
            if nd.node() == 1 {
                write_walk(nd, words, 0..words.len(), false, |i| i as u64 * 7)?;
                write_walk(nd, triples, 0..triples.len(), false, |i| [i as u64, 1, 2])?;
            }
            Ok(())
        })?;
        let mut acc = 0u64;
        let range = match span {
            Span::WholePages => 0..3 * per_page,
            Span::MidPage => per_page / 2..3 * per_page + per_page / 2,
            Span::Straddling => 0..triples.len(),
        };
        match (span, write) {
            (Span::Straddling, false) => read_walk(&node, triples, range, bulk, |i, v| {
                acc = acc.wrapping_mul(31).wrapping_add(v[0] ^ v[1] ^ v[2] ^ i as u64)
            })?,
            (Span::Straddling, true) => {
                write_walk(&node, triples, range, bulk, |i| [3, i as u64, 4])?
            }
            (_, false) => read_walk(&node, words, range, bulk, |i, v| {
                acc = acc.wrapping_mul(31).wrapping_add(v ^ i as u64)
            })?,
            (_, true) => write_walk(&node, words, range, bulk, |i| i as u64 + 1)?,
        }
        *sum_m.lock().unwrap() = acc;
        node.shutdown_slaves()
    };
    let apps: Vec<AppFn> = vec![Box::new(master), Box::new(|node: DsmNode| node.slave_loop())];
    cl.launch(apps).expect("simulation must complete");
    let host = stats.host();
    let faults = stats.snapshot().total_agg_with_startup().page_faults;
    let sum = *sum.lock().unwrap();
    (Counts { hits: host.tlb_hits, misses: host.tlb_misses, faults, sum }, straddlers)
}

/// The count preservation `dsm.dataplane.tlb_hit_rate` and the emitter's
/// hit-rate floor rely on: a guard reports one hit per element after the
/// first of each page run, the acquisition probe reports itself, and the
/// fault is taken once per page — exactly what the element-wise walk of
/// the same range reports.
#[test]
fn a_page_run_counts_what_the_element_wise_walk_counts() {
    for span in [Span::WholePages, Span::MidPage, Span::Straddling] {
        for write in [false, true] {
            let (elem, straddlers) = run_walk(span, write, false, true);
            let (run, _) = run_walk(span, write, true, true);
            assert!(elem.hits > 1000 && elem.faults >= 3, "{span:?}: the walk must do work");
            assert_eq!(elem.faults, run.faults, "{span:?} write={write}: one fault per page");
            assert_eq!(elem.sum, run.sum, "{span:?}: both walks read the same values");
            if write && straddlers > 0 {
                // A mutable guard pre-fills a straddling element with its
                // current value (two more probes, one per page, that the
                // element-wise store does not make) before the closure
                // runs; every other access is counted alike.
                assert!(straddlers >= 2, "the 24-byte span must straddle");
                assert_eq!(run.hits + run.misses, elem.hits + elem.misses + 2 * straddlers);
            } else {
                assert_eq!(elem, run, "{span:?} write={write}");
            }
        }
    }
}

/// With the TLB off nothing is a hit and nothing is a miss: every access
/// takes the locked walk and none is counted, whichever way it is made.
#[test]
fn a_disabled_tlb_folds_no_hits_and_no_misses() {
    for bulk in [false, true] {
        let (c, _) = run_walk(Span::MidPage, true, bulk, false);
        assert_eq!((c.hits, c.misses), (0, 0), "bulk={bulk}");
        assert!(c.faults >= 3);
    }
}

// ---------------------------------------------------------------
// The fold: counts are in `stats.host()` when the run returns
// ---------------------------------------------------------------

const FOLD_NODES: usize = 4;
const FOLD_READS: usize = 64;

/// Every node reads `FOLD_READS` preloaded elements of one page (valid
/// everywhere, never written: one miss and `FOLD_READS - 1` hits a
/// node). Then the run ends well — or node 1 panics inside
/// a parallel section, which ends every other node's process by `Stopped`.
/// Returns the run's result and its host counters.
fn run_fold(die: bool) -> (Result<(), SimError>, HostCounters) {
    let stats = Stats::new(FOLD_NODES);
    let mut cl = Cluster::new(ClusterConfig::paper(FOLD_NODES), Arc::clone(&stats));
    let arr = cl.alloc_array_page_aligned::<u64>(FOLD_READS);
    cl.preload(arr, &vec![5u64; FOLD_READS]);
    let master = move |node: DsmNode| -> Result<(), Stopped> {
        node.run_parallel(move |nd| {
            for i in 0..FOLD_READS {
                assert_eq!(arr.get(nd, i)?, 5);
            }
            Ok(())
        })?;
        if die {
            node.run_parallel(|nd| {
                assert!(nd.node() != 1, "node 1 dies on purpose");
                Ok(())
            })?;
        }
        node.shutdown_slaves()
    };
    let mut apps: Vec<AppFn> = vec![Box::new(master)];
    for _ in 1..FOLD_NODES {
        apps.push(Box::new(|node: DsmNode| node.slave_loop()));
    }
    let result = cl.launch(apps).map(|_| ());
    (result, stats.host())
}

#[test]
fn every_node_folds_its_counts_whether_the_run_ends_well_or_not() {
    let (n, reads) = (FOLD_NODES as u64, FOLD_READS as u64);
    let (result, host) = run_fold(false);
    result.expect("the clean run completes");
    assert_eq!((host.tlb_hits, host.tlb_misses), (n * (reads - 1), n));

    // Node 1 unwinds, the rest are ended by `Stopped` wherever they were
    // blocked: all four handles still go, and fold.
    let (result, host) = run_fold(true);
    match result {
        Err(SimError::ProcessPanicked { name, .. }) => assert_eq!(name, "app1"),
        other => panic!("expected app1 to panic, got {other:?}"),
    }
    assert_eq!((host.tlb_hits, host.tlb_misses), (n * (reads - 1), n));
}
