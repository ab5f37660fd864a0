//! The consistency layer: vector time, interval records and write notices
//! (§5.1 and the LRC substrate of §2).
//!
//! This layer owns *what happened before what*: the node's vector time,
//! every interval record it knows (own and remote), and the write set of
//! the currently open interval. It decides when pages must be invalidated
//! (a write notice the local copy does not cover) but delegates the actual
//! page bookkeeping — twins, diffs, protections — to the data plane.

use repseq_sim::Dur;

use crate::interval::{IntervalRecord, IntervalStore, PageId};
use crate::state::NodeState;
use crate::vc::Vc;

/// Interval/vector-clock state: one node's knowledge of the
/// happened-before order of writes.
pub(crate) struct Consistency {
    /// Current vector time. Entry `node` counts closed intervals.
    pub(crate) vc: Vc,
    /// Every interval record known, own and remote.
    pub(crate) intervals: IntervalStore,
    /// Pages written (write-faulted) during the current, still-open
    /// interval. Consumed into write notices at the interval close; pages
    /// are then re-protected so that a later write faults again and is
    /// attributed to its own interval.
    pub(crate) cur_writes: Vec<PageId>,
}

impl Consistency {
    pub(crate) fn new(n: usize) -> Consistency {
        Consistency { vc: Vc::zero(n), intervals: IntervalStore::new(n), cur_writes: Vec::new() }
    }
}

impl NodeState {
    /// The open interval's write set, sorted: the pages its write notices
    /// will name when it closes.
    pub(crate) fn open_write_set(&self) -> Vec<PageId> {
        let mut pages = self.con.cur_writes.clone();
        pages.sort_unstable();
        pages
    }

    /// Close the current interval (performed at every release and acquire).
    /// If pages were written, records the interval with write notices for
    /// exactly the pages written during it, re-protects them (so a later
    /// write faults and is attributed to its own interval), and advances
    /// the local entry of the vector time.
    pub fn close_interval(&mut self) {
        if self.con.cur_writes.is_empty() {
            return;
        }
        let node = self.node;
        let ivx = self.con.vc.get(node) + 1;
        self.con.vc.set(node, ivx);
        let mut pages = std::mem::take(&mut self.con.cur_writes);
        pages.sort_unstable();
        for &p in &pages {
            let page = self.page_mut(p);
            let history = page.history_mut();
            history.notices.push((node, ivx));
            history.own_undiffed.push(ivx);
            page.written_cur = false;
            page.writable = false;
            // Our copy trivially contains our own writes: advance the valid
            // notice so elections and fault logic treat own intervals as
            // covered.
            page.valid_at.set(node, ivx);
            self.mark_valid_changed(p);
        }
        let rec = IntervalRecord::new(node, ivx, self.con.vc.clone(), pages);
        let inserted = self.con.intervals.insert(rec);
        debug_assert!(inserted);
    }

    /// Incorporate interval records received at an acquire (barrier
    /// departure, lock grant, fork). Closes the current interval first
    /// (an acquire starts a new interval), inserts the records, posts write
    /// notices and invalidates uncovered pages — creating diffs for our own
    /// concurrent modifications first (the multiple-writer protocol).
    /// Returns the modeled cost.
    pub fn apply_records(&mut self, records: Vec<IntervalRecord>, sender_vc: &Vc) -> Dur {
        self.close_interval();
        let mut cost = Dur::ZERO;
        for rec in records {
            // Records of our own intervals (echoed back by a barrier
            // manager or lock chain) are already known and skipped by the
            // duplicate check below. Keeping a handle on the shared
            // payload (an Arc bump, not a deep copy) lets `insert` consume
            // the record while we still walk its pages.
            let (owner, ivx, data) = (rec.owner, rec.ivx, std::sync::Arc::clone(&rec.data));
            if !self.con.intervals.insert(rec) {
                continue;
            }
            for &p in &data.pages {
                let page = self.page_mut(p);
                page.history_mut().notices.push((owner, ivx));
                if page.valid && !page.valid_at.covers(owner, ivx) {
                    // Invalidate. If we have concurrent un-diffed writes,
                    // diff them now so they stay separable (§5.1).
                    if page.twin.is_some() {
                        cost += self.create_own_diff(p);
                    }
                    let page = self.page_mut(p);
                    page.valid = false;
                    page.writable = false;
                }
            }
        }
        self.con.vc.merge(sender_vc);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::testutil::{fake_write, state};

    #[test]
    fn close_interval_records_write_notices() {
        let mut st = state(0, 2);
        fake_write(&mut st, 3, 10, 9);
        st.close_interval();
        assert_eq!(st.con.vc.get(0), 1);
        assert_eq!(st.con.intervals.known(0), 1);
        assert_eq!(st.con.intervals.get(0, 1).pages, vec![3]);
        let page = st.page_mut(3);
        assert_eq!(page.history().notices, vec![(0, 1)]);
        assert_eq!(page.history().own_undiffed, vec![1]);
        assert!(page.valid_at.covers(0, 1));
    }

    #[test]
    fn empty_interval_is_not_recorded() {
        let mut st = state(0, 2);
        st.close_interval();
        assert_eq!(st.con.vc.get(0), 0);
        assert_eq!(st.con.intervals.known(0), 0);
    }

    #[test]
    fn apply_records_invalidates_uncovered_pages() {
        let mut st = state(1, 2);
        let mut vc = Vc::zero(2);
        vc.set(0, 1);
        let rec = IntervalRecord::new(0, 1, vc.clone(), vec![7]);
        st.apply_records(vec![rec], &vc);
        let page = st.page_mut(7);
        assert!(!page.valid);
        assert_eq!(page.history().notices, vec![(0, 1)]);
        assert!(st.con.vc.covers(0, 1));
    }

    #[test]
    fn apply_records_diffs_concurrent_local_writes_first() {
        // False sharing: we wrote the page, a concurrent interval of node 0
        // also wrote it. Our writes must be diffed before invalidation.
        let mut st = state(1, 2);
        fake_write(&mut st, 7, 100, 42);
        let mut vc = Vc::zero(2);
        vc.set(0, 1);
        let rec = IntervalRecord::new(0, 1, vc.clone(), vec![7]);
        let cost = st.apply_records(vec![rec], &vc);
        assert!(cost > Dur::ZERO, "diff creation must be charged");
        // apply_records closed our interval (ivx 1 of node 1) first.
        let page = st.page_mut(7);
        assert!(page.history().diffs.contains_key(&(1, 1)));
        assert!(!page.valid);
        assert!(page.twin.is_none());
    }

    #[test]
    fn rewrite_after_close_lands_in_its_own_interval() {
        // The spurious-write-notice regression: a page written in interval
        // 1 but not afterwards must never be noticed in interval 2.
        let mut st = state(0, 2);
        fake_write(&mut st, 6, 0, 1);
        st.close_interval();
        // Another page is written in interval 2; page 6 is untouched.
        fake_write(&mut st, 9, 0, 1);
        st.close_interval();
        assert_eq!(st.con.intervals.get(0, 1).pages, vec![6]);
        assert_eq!(st.con.intervals.get(0, 2).pages, vec![9]);
        assert_eq!(st.page_mut(6).history().notices, vec![(0, 1)]);
        // And a page re-written later faults again and is re-noticed.
        fake_write(&mut st, 6, 1, 2);
        st.close_interval();
        assert_eq!(st.con.intervals.get(0, 3).pages, vec![6]);
        assert_eq!(st.page_mut(6).history().notices, vec![(0, 1), (0, 3)]);
        assert_eq!(st.page_mut(6).history().own_undiffed, vec![1, 3]);
    }
}
