//! A write inside a replicated section copies no page: every node applies
//! the same writes, which produce no write notice and no diff (§5.3), so
//! nothing ever reads a twin of them. `write_fault` still charges exactly
//! what twinning charged — the twin cost on the page's first write fault of
//! the section, after the pre-section diff of a page dirtied before it — so
//! virtual time does not depend on the copy being made.

use std::sync::Arc;

use repseq_dsm::{DsmConfig, IntervalRecord, NodeState, PageId, SharedSegment, Vc};
use repseq_sim::Dur;

const P: PageId = 5;

/// Node 0 of two, hand-built: no segment, so the page table grows on touch.
fn state() -> NodeState {
    let cfg = DsmConfig::default();
    let segment = Arc::new(SharedSegment::new(cfg.page_size, 0));
    NodeState::new(0, 2, cfg, segment)
}

/// Write page `P` in an interval of its own and close it, as the fork or
/// join before a section does: the page is dirty, twinned and protected.
fn dirty_before_the_section(st: &mut NodeState) {
    st.write_fault(P);
    st.page_data(P)[0] = 7;
    st.close_interval();
}

/// A write fault on `P` inside the section charges `want` and twins nothing.
fn fault_charges(st: &mut NodeState, want: Dur) {
    assert_eq!(st.write_fault(P), want);
    let page = st.page_mut(P);
    assert!(page.writable && page.rse_dirty);
    assert!(page.twin.is_none(), "a replicated write copies no page");
}

#[test]
fn a_clean_page_pays_the_twin_on_its_first_fault_only() {
    let mut st = state();
    let (fault, twin) = (st.cfg.fault_overhead, st.cfg.twin_cost());
    st.enter_replicated();
    fault_charges(&mut st, fault + twin);
    st.page_mut(P).writable = false;
    fault_charges(&mut st, fault);
    st.exit_replicated();
    assert!(st.page_mut(P).twin.is_none() && !st.page_mut(P).rse_dirty);
}

#[test]
fn a_page_dirtied_before_the_section_is_diffed_then_charged_the_twin() {
    let mut st = state();
    let cfg = st.cfg.clone();
    dirty_before_the_section(&mut st);
    st.enter_replicated();
    assert!(st.page_mut(P).rse_protected);
    fault_charges(&mut st, cfg.fault_overhead + cfg.diff_create_cost() + cfg.twin_cost());
    assert!(!st.page_mut(P).rse_protected);
    fault_charges(&mut st, cfg.fault_overhead);
    st.exit_replicated();
    assert_eq!(st.page_data(P)[0], 7, "the pre-section write survives the section");
}

/// The pre-section diff made before the first write (here by a concurrent
/// remote interval, which runs the same `create_own_diff` a served diff
/// request does): the write finds a clean, unprotected page.
#[test]
fn a_page_whose_pre_section_diff_was_made_pays_the_twin_alone() {
    let mut st = state();
    let cfg = st.cfg.clone();
    dirty_before_the_section(&mut st);
    st.enter_replicated();
    let mut vc = Vc::zero(2);
    vc.set(1, 1);
    let cost = st.apply_records(vec![IntervalRecord::new(1, 1, vc.clone(), vec![P])], &vc);
    assert_eq!(cost, cfg.diff_create_cost());
    let page = st.page_mut(P);
    assert!(page.twin.is_none() && !page.rse_protected && !page.valid);
    page.valid = true; // as applying node 1's diff would
    fault_charges(&mut st, cfg.fault_overhead + cfg.twin_cost());
    fault_charges(&mut st, cfg.fault_overhead);
}

/// Outside a section a write fault still twins: the copy is what its
/// interval's diff is made against.
#[test]
fn an_ordinary_write_still_twins() {
    let mut st = state();
    assert_eq!(st.write_fault(P), st.cfg.fault_overhead + st.cfg.twin_cost());
    assert!(st.page_mut(P).twin.is_some());
}
