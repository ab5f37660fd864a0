//! The software MMU: every load and store checks the page table
//! (`NodeState::mapped`), and anything it does not map walks.
//!
//! Three layers of assurance:
//!
//! * unit tests pin the protection bits the check reads at every site that
//!   revokes them (interval close, write-notice invalidation,
//!   replicated-section entry and retirement), and the check itself to the
//!   walk's rule over every slot state;
//! * a cluster-level regression drives §5.3 through the *bulk* guard path:
//!   pages dirtied in a parallel section are rewritten inside a replicated
//!   section via `with_slices_mut`, which must take the write fault (and
//!   create the pre-section diff);
//! * count tests hold the hit, miss and fault counts of a page-run guard
//!   to the element-wise walk of the same range, and find every node's
//!   counts in the run's own `stats.host()` the moment the run returns —
//!   nodes count in plain fields of their own, which the cluster sums.

#![allow(clippy::type_complexity)]

use std::sync::{Arc, Mutex};

use repseq_dsm::{
    Cluster, ClusterConfig, DsmConfig, DsmNode, IntervalRecord, NodeState, Page, PageId, PageMeta,
    Pod, SeqMode, ShArray, SharedSegment, Vc, PAGE_SIZE,
};
use repseq_sim::{SimError, Stopped};
use repseq_stats::{HostCounters, Stats};

// ---------------------------------------------------------------
// The page table's protection bits
// ---------------------------------------------------------------

/// A hand-built state: no segment, so the page table grows on touch.
fn mk_state() -> NodeState {
    NodeState::new(0, 2, DsmConfig::default(), Arc::new(SharedSegment::new(0)))
}

/// Make page `p` a valid, written page (as after a write fault).
fn write_page(st: &mut NodeState, p: PageId) {
    st.page_mut(p).valid = true;
    st.page_data(p);
    st.write_fault(p);
}

/// What the check maps of page `p`: a load, and a store.
fn maps(st: &NodeState, p: PageId) -> (bool, bool) {
    (st.mapped(p, false).is_some(), st.mapped(p, true).is_some())
}

/// `mapped` over every slot state: it hands out the slot only where the
/// walk would charge nothing, never for a store to a read-only page, and
/// each state it refuses is one the walk acts on.
#[test]
fn the_page_table_maps_only_what_a_walk_serves_for_free() {
    let mut st = mk_state();
    st.page_data(0);
    st.page_mut(0).valid = false; // invalid
    st.page_mut(1); // valid, not yet materialized
    st.page_data(2); // valid, read-only
    write_page(&mut st, 3); // writable
    for (p, what, load, store) in [
        (0, "invalid", false, false),
        (1, "valid, not materialized", false, false),
        (2, "read-only", true, false),
        (3, "writable", true, true),
    ] {
        assert_eq!(maps(&st, p), (load, store), "page {p}: {what}");
    }
    // Each miss is what the walk would do something about: fetch,
    // materialize, or take the write fault (which charges).
    st.page_mut(0).valid = true;
    st.page_data(1);
    assert_eq!((maps(&st, 0), maps(&st, 1)), ((true, false), (true, false)));
    assert!(st.write_fault(2) > repseq_sim::Dur::ZERO, "a store to a read-only page charges");
    assert_eq!(maps(&st, 2), (true, true));
}

#[test]
fn interval_close_write_protects_written_pages() {
    let mut st = mk_state();
    write_page(&mut st, 3);
    assert_eq!(maps(&st, 3), (true, true));
    st.close_interval();
    let page = st.page_mut(3);
    assert!(page.valid && !page.writable, "the written page stays readable, read-only");
    assert_eq!(maps(&st, 3), (true, false), "its next store faults into the new interval");
}

#[test]
fn interval_close_leaves_unwritten_pages_alone() {
    let mut st = mk_state();
    st.page_data(4); // read, never written
    assert_eq!(maps(&st, 4), (true, false));
    st.close_interval();
    let page = st.page_mut(4);
    assert!(page.valid && !page.writable && page.twin.is_none());
    assert_eq!(maps(&st, 4), (true, false), "an unwritten page keeps its mapping for loads");
}

#[test]
fn a_write_notice_invalidates_the_copy_it_names() {
    let mut st = mk_state();
    // A valid (read-only) copy of page 5.
    st.page_data(5);
    assert_eq!(maps(&st, 5), (true, false));
    let mut vc = Vc::zero(2);
    vc.set(1, 1);
    let rec = IntervalRecord::new(1, 1, vc.clone(), vec![5]);
    st.apply_records(vec![rec], &vc);
    let page = st.page_mut(5);
    assert!(!page.valid && !page.writable, "the notice must invalidate the copy");
    assert_eq!(maps(&st, 5), (false, false), "a load of it must fetch");
}

#[test]
fn a_duplicate_or_unrelated_record_changes_no_mapping() {
    let mut st = mk_state();
    // Valid (read-only) copies of pages 6 and 9.
    st.page_data(6);
    st.page_data(9);
    let mut vc = Vc::zero(2);
    vc.set(1, 1);
    let rec = IntervalRecord::new(1, 1, vc.clone(), vec![9]);
    st.apply_records(vec![rec.clone()], &vc);
    assert_eq!(maps(&st, 6), (true, false), "a page the record does not name stays mapped");
    assert_eq!(maps(&st, 9), (false, false));
    // The duplicate is skipped: nothing changes, and the copy fetched
    // since is not invalidated again.
    st.page_mut(9).valid = true;
    st.apply_records(vec![rec], &vc);
    assert_eq!((maps(&st, 6), maps(&st, 9)), ((true, false), (true, false)));
}

#[test]
fn replicated_entry_write_protects_dirty_pages() {
    let mut st = mk_state();
    write_page(&mut st, 7);
    st.close_interval(); // the runtime enters a section between intervals
                         // §5.3: a store to the dirty page inside the section must fault, so
                         // the pre-section diff is created before the page changes.
    st.enter_replicated();
    let page = st.page_mut(7);
    assert!(page.valid && !page.writable && page.rse_protected && page.twin.is_some());
    assert_eq!(maps(&st, 7), (true, false), "loads still map; a store faults");
    st.write_fault(7);
    let page = st.page_mut(7);
    assert!(page.twin.is_none() && !page.rse_protected, "the fault diffed the pre-section writes");
    assert_eq!(maps(&st, 7), (true, true));
}

#[test]
fn replicated_retirement_reprotects_the_pages_written_in_the_section() {
    let mut st = mk_state();
    st.page_data(7);
    st.enter_replicated();
    st.write_fault(7); // the section's first store to page 7
    assert_eq!(maps(&st, 7), (true, true));
    st.exit_replicated();
    let page = st.page_mut(7);
    assert!(page.valid && !page.writable && !page.rse_dirty);
    assert_eq!(maps(&st, 7), (true, false), "the retired copy stays readable, read-only");
}

// ---------------------------------------------------------------
// Cluster-level tests
// ---------------------------------------------------------------

const N: usize = 3;

/// The §5.3 torture shape on the guard path: a parallel phase dirties
/// pages element-wise (leaving them writable), then a replicated section
/// rewrites the same pages through `with_slices_mut`, then the values are
/// read back on every node. Correct final values on all nodes prove the
/// bulk writes inside the section faulted (a store that rode the write
/// permission granted before the section would skip the §5.3
/// pre-section diff and corrupt the merge).
fn run_53_bulk() -> Vec<Vec<u64>> {
    let stats = Stats::new(N);
    let mut cl = Cluster::new(ClusterConfig::paper(N), Arc::clone(&stats));
    let per_page = PAGE_SIZE / 8;
    let len = N * per_page;
    let arr = cl.alloc_array_page_aligned::<u64>(len);
    let out = Arc::new(Mutex::new(vec![Vec::new(); N]));

    let out_m = Arc::clone(&out);
    let (_, launched) = cl.launch_master(move |node| {
        let chunk = len / N;
        for round in 0..2u64 {
            // Parallel: each node writes its block element-wise — on the
            // second and later touches of a page these writes are mapped.
            node.run_parallel(move |nd| {
                let me = nd.node();
                for i in me * chunk..(me + 1) * chunk {
                    arr.set(nd, i, (i as u64) * 3 + round)?;
                }
                Ok(())
            })?;
            // Replicated: rewrite everything through the bulk guard path.
            // Entry must write-protect the pages dirtied above.
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
        })
    });
    launched.result.expect("simulation must complete");
    let vals = std::mem::take(&mut *out.lock().unwrap());
    vals
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
    let vals = run_53_bulk();
    let want = golden_53(vals[0].len());
    for (node, v) in vals.iter().enumerate() {
        assert_eq!(
            v, &want,
            "node {node}: replicated guard writes must fault (§5.3 pre-section diff)"
        );
    }
}

// ---------------------------------------------------------------
// A node holds only the pages it writes
// ---------------------------------------------------------------

/// What every access and fault checks fits one cache line with room to
/// spare: the slot and the reference to its bytes, 48 B.
#[test]
fn a_slot_with_its_handle_fits_one_cache_line() {
    const { assert!(size_of::<PageMeta>() + size_of::<Option<Arc<Page>>>() <= 48) }
}

const WORDS: usize = PAGE_SIZE / 8;

/// A two-node cluster with two two-page arrays of `u64`: `loaded`,
/// preloaded with `image()`, and `blank`, never written. The master runs
/// `master` alone, given both arrays.
fn run_on_images<T: Send + 'static>(
    master: impl FnOnce(&DsmNode, ShArray<u64>, ShArray<u64>) -> Result<T, Stopped> + Send + 'static,
) -> T {
    let mut cl = Cluster::new(ClusterConfig::paper(2), Stats::new(2));
    let loaded = cl.alloc_array_page_aligned::<u64>(2 * WORDS);
    let blank = cl.alloc_array_page_aligned::<u64>(2 * WORDS);
    cl.preload(loaded, &image());
    let (out, launched) = cl.launch_master(move |node| master(node, loaded, blank));
    launched.result.expect("simulation must complete");
    out.unwrap()
}

/// The preloaded values of `loaded`.
fn image() -> Vec<u64> {
    (0..2 * WORDS as u64).map(|i| i * 3 + 1).collect()
}

/// The pages this node holds bytes of its own for.
fn own_pages(node: &DsmNode) -> usize {
    node.ctx().state().footprint().0.len()
}

/// Every copying read — `read`, `read_bytes` across a page boundary and
/// `read_range` (which `Worker::read_all` is) — of a preloaded page and of
/// a page nobody wrote returns its bytes, and the reader gets no slot:
/// each read maps the segment's image, or the zero page, in place.
#[test]
fn copying_reads_of_unwritten_pages_materialize_no_slot() {
    let owned = run_on_images(|node, loaded, blank| {
        for (arr, want) in [(loaded, image()), (blank, vec![0; 2 * WORDS])] {
            assert_eq!(node.read::<u64>(arr.addr(5))?, want[5]);
            let mut bytes = [0u8; 16];
            node.read_bytes(arr.addr(WORDS - 1), &mut bytes)?;
            assert_eq!(bytes[..8], want[WORDS - 1].to_le_bytes());
            assert_eq!(bytes[8..], want[WORDS].to_le_bytes());
            let mut out = vec![7; 2 * WORDS];
            arr.read_range(node, 0, &mut out)?;
            assert_eq!(out, want);
        }
        Ok(own_pages(node))
    });
    assert_eq!(owned, 0, "a read materialized a page");
}

/// The first store into a page read in place materializes that page and
/// no other: its slot holds the image plus the store.
#[test]
fn the_first_store_materializes_exactly_its_page() {
    let (before, after, page) = run_on_images(|node, loaded, _| {
        let mut all = vec![0; 2 * WORDS];
        loaded.read_range(node, 0, &mut all)?;
        let before = own_pages(node);
        loaded.set(node, 9, 1000)?;
        let after = own_pages(node);
        loaded.read_range(node, 0, &mut all)?;
        Ok((before, after, all))
    });
    assert_eq!((before, after), (0, 1), "the store materializes its page alone");
    let mut want = image();
    want[9] = 1000;
    assert_eq!(page, want);
}

/// A diff fetched for a page this node never read applies over the
/// segment's image: node 1 stores into the preloaded page, and the
/// master's first read of it sees the image with that store.
#[test]
fn a_diff_for_a_never_read_page_applies_over_the_image() {
    let page = run_on_images(|node, loaded, _| {
        node.run_parallel(move |nd| {
            if nd.node() == 1 {
                loaded.set(nd, 11, 77)?;
            }
            Ok(())
        })?;
        let mut all = vec![0; WORDS];
        loaded.read_range(node, 0, &mut all)?;
        Ok(all)
    });
    let mut want = image();
    want[11] = 77;
    assert_eq!(page, want[..WORDS]);
}

/// A read guard is over the node's own bytes of its page: a closure that
/// stores into the same page through the MMU reads its store back. A
/// guard over the image in place would still read the preloaded value.
#[test]
fn a_read_guard_reads_back_a_store_into_its_own_page() {
    let seen = run_on_images(|node, loaded, _| {
        let mut seen = 0;
        loaded.with_slices(node, 0..WORDS, |run| {
            loaded.set(node, 3, 99)?;
            seen = run.get(3);
            Ok(())
        })?;
        Ok(seen)
    });
    assert_eq!(seen, 99, "the guard read the image, not the page it stored into");
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

/// What a run cost: mapped accesses and walks (the run's `stats.host()`),
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
fn run_walk(span: Span, write: bool, bulk: bool) -> (Counts, u64) {
    let stats = Stats::new(2);
    let mut cl = Cluster::new(ClusterConfig::paper(2), Arc::clone(&stats));
    let ps = PAGE_SIZE;
    let per_page = ps / 8;
    let words = cl.alloc_array_page_aligned::<u64>(4 * per_page);
    let triples = cl.alloc_array_page_aligned::<[u64; 3]>(3 * ps / 24);
    let straddlers = match span {
        Span::Straddling => {
            (0..triples.len()).filter(|&i| triples.addr(i) as usize % ps + 24 > ps).count() as u64
        }
        _ => 0,
    };
    let (sum, launched) = cl.launch_master(move |node| {
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
            (Span::Straddling, false) => read_walk(node, triples, range, bulk, |i, v| {
                acc = acc.wrapping_mul(31).wrapping_add(v[0] ^ v[1] ^ v[2] ^ i as u64)
            })?,
            (Span::Straddling, true) => {
                write_walk(node, triples, range, bulk, |i| [3, i as u64, 4])?
            }
            (_, false) => read_walk(node, words, range, bulk, |i, v| {
                acc = acc.wrapping_mul(31).wrapping_add(v ^ i as u64)
            })?,
            (_, true) => write_walk(node, words, range, bulk, |i| i as u64 + 1)?,
        }
        Ok(acc)
    });
    launched.result.expect("simulation must complete");
    let host = stats.host();
    let faults = stats.snapshot().total_agg_with_startup().page_faults;
    let sum = sum.unwrap();
    (Counts { hits: host.tlb_hits, misses: host.tlb_misses, faults, sum }, straddlers)
}

/// The count preservation `dsm.dataplane.tlb_hit_rate` and the emitter's
/// hit-rate floor rely on: a guard reports one hit per element after the
/// first of each page run, the acquisition's check reports itself, and the
/// fault is taken once per page — exactly what the element-wise walk of
/// the same range reports.
#[test]
fn a_page_run_counts_what_the_element_wise_walk_counts() {
    for span in [Span::WholePages, Span::MidPage, Span::Straddling] {
        for write in [false, true] {
            let (elem, straddlers) = run_walk(span, write, false);
            let (run, _) = run_walk(span, write, true);
            assert!(elem.hits > 1000 && elem.faults >= 3, "{span:?}: the walk must do work");
            assert_eq!(elem.faults, run.faults, "{span:?} write={write}: one fault per page");
            assert_eq!(elem.sum, run.sum, "{span:?}: both walks read the same values");
            if write && straddlers > 0 {
                // A mutable guard pre-fills a straddling element with its
                // current value (two more checks, one per page, that the
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
    let (_, launched) = cl.launch_master(move |node| {
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
        Ok(())
    });
    let result = launched.result.map(|_| ());
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

// ---------------------------------------------------------------
// A retired page is one buffer
// ---------------------------------------------------------------

/// Pages a replicated section writes on the three-node clusters below.
const K: usize = 3;

/// Every node's own page buffers and twin buffers (`footprint`), by
/// node, read in a parallel section.
fn own_buffers(node: &DsmNode) -> Result<Vec<(Vec<usize>, Vec<usize>)>, Stopped> {
    let seen = Arc::new(Mutex::new(vec![Default::default(); node.n_nodes()]));
    let out = Arc::clone(&seen);
    node.run_parallel(move |nd| {
        let (own, twins, _) = nd.ctx().state().footprint();
        out.lock().unwrap()[nd.node()] = (own, twins);
        Ok(())
    })?;
    let own = seen.lock().unwrap().clone();
    Ok(own)
}

/// The distinct buffers among every node's own and twin buffers.
fn distinct(own: &[(Vec<usize>, Vec<usize>)]) -> usize {
    let all = own.iter().flat_map(|(own, twins)| own.iter().chain(twins));
    all.collect::<std::collections::HashSet<_>>().len()
}

/// Three nodes run a sequential section in `mode` whose body writes
/// `value(node, k)` into each of `K` pages (under `MasterOnly` the master
/// alone runs it), and every node reads the pages. Then node 1 stores 99
/// into the first page, and every node reads its own copy of that page a
/// millisecond later, in the same parallel section. Returns the buffers
/// after the reads, what each node read and the buffers after the store.
fn share_then_store(
    mode: SeqMode,
    value: fn(usize, usize) -> u64,
) -> (Vec<(Vec<usize>, Vec<usize>)>, Vec<u64>, Vec<(Vec<usize>, Vec<usize>)>) {
    let n = 3;
    let mut cl = Cluster::new(ClusterConfig::paper(n), Stats::new(n));
    let x = cl.alloc_array_page_aligned::<u64>(K * WORDS);
    let (out, launched) = cl.launch_master(move |node| {
        node.run_sequential(mode, move |nd| {
            (0..K).try_for_each(|k| x.set(nd, k * WORDS, value(nd.node(), k)))
        })?;
        node.run_parallel(move |nd| (0..K).try_for_each(|k| x.get(nd, k * WORDS).map(drop)))?;
        let shared = own_buffers(node)?;
        let seen = Arc::new(Mutex::new(vec![0; n]));
        let out = Arc::clone(&seen);
        node.run_parallel(move |nd| {
            if nd.node() == 1 {
                x.set(nd, 0, 99)?;
            }
            nd.ctx().sleep(repseq_sim::Dur::from_millis(1))?;
            let page = nd.ctx().state().inspect_page((x.addr(0) / PAGE_SIZE as u64) as PageId);
            let first = u64::from_le_bytes(page.expect("valid")[..8].try_into().unwrap());
            out.lock().unwrap()[nd.node()] = first;
            Ok(())
        })?;
        let seen = seen.lock().unwrap().clone();
        Ok((shared, seen, own_buffers(node)?))
    });
    launched.result.expect("simulation must complete");
    out.unwrap()
}

/// After a replicated section writes `K` pages on three nodes, the cluster
/// holds `K` buffers for them, not `3·K`: every slave shares the master's
/// identical copies. One later store on one node adds exactly its copy.
#[test]
fn a_retired_page_is_one_buffer_in_the_cluster() {
    let (retired, _, stored) = share_then_store(SeqMode::Replicated, |_, k| k as u64 + 1);
    assert!(retired.iter().all(|(own, _)| own.len() == K), "{retired:?}");
    assert_eq!(distinct(&retired), K, "every node keeps its own copy");
    assert_eq!(distinct(&stored), K + 1, "one store, one copy");
}

/// A store into a shared retired page copies it first: the storing slave
/// reads its store, and neither the master nor the other slave sees it.
#[test]
fn a_store_into_a_shared_page_reaches_no_other_node() {
    let (_, seen, _) = share_then_store(SeqMode::Replicated, |_, k| k as u64 + 1);
    assert_eq!(seen, vec![1, 99, 1]);
}

/// A slave shares the master's copy of a retired page only where its own
/// bytes are the same: a body that wrote each node's id leaves every node
/// its own copy and its own value.
#[test]
fn an_image_that_differs_from_the_slaves_bytes_is_not_adopted() {
    let (retired, seen, _) = share_then_store(SeqMode::Replicated, |node, _| node as u64);
    assert_eq!(distinct(&retired), 3 * K, "a slave adopted bytes that differ from its own");
    assert_eq!(seen, vec![0, 99, 2]);
}

// ---------------------------------------------------------------
// A copy is shared until it is written
// ---------------------------------------------------------------

/// After the master writes `K` pages in a master-only section and both
/// slaves fetch them, the cluster holds `K` buffers for them, not `3·K`:
/// each slave's completed copy shares the buffer the master's reply lent.
#[test]
fn a_fetched_page_is_its_writers_buffer() {
    let (fetched, _, _) = share_then_store(SeqMode::MasterOnly, |_, k| k as u64 + 1);
    assert!(fetched.iter().all(|(own, _)| own.len() == K), "{fetched:?}");
    assert_eq!(distinct(&fetched), K, "a slave keeps its own copy of a fetched page");
}

/// A store into a page its writer lent copies it first: the storing slave
/// reads its store, and neither the master nor the other slave sees it.
#[test]
fn a_store_into_a_lent_page_reaches_no_other_node() {
    let (_, seen, _) = share_then_store(SeqMode::MasterOnly, |_, k| k as u64 + 1);
    assert_eq!(seen, vec![1, 99, 1]);
}

/// A write fault on a page whose buffer other nodes share makes one copy,
/// the one it writes: the shared buffer is the twin, retired and fetched
/// pages alike.
#[test]
fn a_write_fault_on_a_shared_page_copies_it_once() {
    for mode in [SeqMode::Replicated, SeqMode::MasterOnly] {
        let (shared, _, stored) = share_then_store(mode, |_, k| k as u64 + 1);
        assert_eq!(stored[1].1, vec![shared[0].0[0]], "{mode:?}: the twin is the shared buffer");
        assert_eq!(distinct(&stored), K + 1, "{mode:?}: one store, one copy");
    }
}

/// A page under a live guard stays its node's alone: the master holds a
/// read guard over the page it wrote while node 1 fetches the page from
/// it, then stores into the page through the MMU and reads the store back
/// through the guard. Had the master lent its buffer, the store would have
/// written a copy, and the guard would still read the old bytes.
#[test]
fn a_page_under_a_guard_is_neither_lent_nor_swapped() {
    let seen = run_on_images(|node, loaded, _| {
        loaded.set(node, 0, 5)?;
        let seen = Arc::new(Mutex::new(0));
        let out = Arc::clone(&seen);
        node.run_parallel(move |nd| {
            if nd.node() == 1 {
                return loaded.get(nd, 0).map(|v| assert_eq!(v, 5));
            }
            loaded.with_slices(nd, 0..WORDS, |run| {
                nd.ctx().sleep(repseq_sim::Dur::from_millis(10))?;
                loaded.set(nd, 3, 99)?;
                *out.lock().unwrap() = run.get(3);
                Ok(())
            })
        })?;
        let seen = *seen.lock().unwrap();
        Ok(seen)
    });
    assert_eq!(seen, 99, "the guard read a buffer its page no longer had");
}
