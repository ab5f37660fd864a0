//! The unit tests of `repseq_dsm::dataplane`, kept out of `src` (the
//! module includes this file by path).

use super::*;
use crate::config::{DsmConfig, PAGE_SIZE};
use crate::interval::IntervalRecord;
use crate::state::testutil::{cache_all, fake_write, random_page, state, PAGE};
use crate::strategy::chain::incorporate_diffs;
use crate::vc::Vc;

/// The previous `can_complete`, kept as the reference: materialise the
/// needed notices oldest first, then probe the cache for each.
fn can_complete_ref(st: &mut NodeState, p: PageId) -> bool {
    let needed = st.needed_notices(p);
    let cached = &st.data.pages[p as usize].history().diffs;
    let complete = needed.iter().all(|key| cached.contains_key(key));
    st.recycle_notices(needed);
    complete
}

/// The previous `apply_cached_diffs`, kept as the reference down to the
/// bytes and the valid notice it leaves: a quadratic dedup, a timestamp
/// summed per record per apply, a stable sort.
fn apply_cached_diffs_ref(st: &mut NodeState, p: PageId) {
    let needed = st.needed_notices(p);
    let mut records: Vec<(u64, DiffEntry)> = Vec::new();
    for &(owner, ivx) in &needed {
        let rec = st.data.pages[p as usize].history().diffs[&(owner, ivx)].clone();
        if records.iter().any(|(_, r)| Arc::ptr_eq(r, &rec)) {
            continue;
        }
        records.push((Vc::weight(&st.con.intervals.get(owner, rec.covers[0]).vc), rec));
    }
    records.sort_by(|a, b| (a.0, a.1.owner, a.1.covers[0]).cmp(&(b.0, b.1.owner, b.1.covers[0])));
    let mut valid_at = st.con.vc.clone();
    for (_, rec) in &records {
        rec.diff.apply(st.page_data(p)).unwrap();
        valid_at.set(rec.owner, valid_at.get(rec.owner).max(rec.max_ivx()));
    }
    st.page_mut(p).valid_at = valid_at;
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(512))]

    /// Completion is exact against the references on random pages, and
    /// garbage collection is invisible to it: a page that forgets the
    /// records and notices its copy covers gives the same plan and
    /// answer as records arrive one by one as a page that keeps all,
    /// then the same bytes and valid notice once all of them are cached.
    #[test]
    fn completion_matches_the_reference(seed in 0u64..u64::MAX) {
        let (mut st, records) = random_page(seed);
        let (mut old, old_records) = random_page(seed);
        let PageMeta { history, valid_at, .. } = st.page_mut(PAGE);
        let history = history.get_or_insert_default();
        history.diffs.retain(|_, rec| !valid_at.covers(rec.owner, rec.max_ivx()));
        history.notices.retain(|&(o, i)| !valid_at.covers(o, i));
        for (rec, old_rec) in records.iter().zip(&old_records) {
            proptest::prop_assert_eq!(st.can_complete(PAGE), can_complete_ref(&mut old, PAGE));
            proptest::prop_assert_eq!(st.fetch_plan(PAGE), old.fetch_plan(PAGE));
            st.cache_diffs(PAGE, std::slice::from_ref(rec));
            cache_all(&mut old, old_rec);
        }
        proptest::prop_assert!(st.can_complete(PAGE) && can_complete_ref(&mut old, PAGE));
        st.apply_cached_diffs(PAGE);
        apply_cached_diffs_ref(&mut old, PAGE);
        proptest::prop_assert_eq!(st.page_data(PAGE), old.page_data(PAGE));
        proptest::prop_assert_eq!(&st.page_mut(PAGE).valid_at, &old.page_mut(PAGE).valid_at);
        proptest::prop_assert_eq!(st.held().0, 0, "a complete copy covers every remote record");
    }
}

/// A reply chain of four writers (the reader, node 0, among them)
/// delivered turn by turn through `incorporate_diffs`: the page stays
/// invalid until the last turn, which completes it with the reference's
/// bytes and wakes the waiting application. Nodes 3, 2, 1 wrote in that
/// order, each after seeing its predecessor: against the owner order
/// the chain delivers in, the later writer wins where writes overlap.
#[test]
fn a_chain_completes_the_page_on_its_last_turn() {
    let chain = || {
        let mut st = state(0, 4);
        fake_write(&mut st, PAGE, 0, 9);
        st.close_interval();
        let (mut vc, mut base) = (st.con.vc.clone(), vec![0u8; PAGE_SIZE]);
        let mut turns = vec![Vec::new(); 4];
        for q in (1..4).rev() {
            vc.set(q, 1);
            let mut page = base.clone();
            page[q..q + 8].fill(q as u8);
            let diff = Diff::create(&base, &page);
            turns[q].push(Arc::new(DiffRecord { owner: q, covers: vec![1], diff }));
            st.apply_records(vec![IntervalRecord::new(q, 1, vc.clone(), vec![PAGE])], &vc);
            base = page;
        }
        turns[0].push(Arc::clone(&st.page_mut(PAGE).history().diffs[&(0, 1)]));
        (st, turns)
    };
    let ((mut st, turns), (mut old, old_turns)) = (chain(), chain());
    st.rse.waiting_page = Some(PAGE);
    for (turn, diffs) in turns.iter().enumerate() {
        let (_, wake) = incorporate_diffs(&mut st, PAGE, diffs);
        assert_eq!(st.page_mut(PAGE).valid, turn == 3, "after turn {turn}");
        assert_eq!(wake, (turn == 3).then_some(PAGE));
    }
    old_turns.iter().for_each(|diffs| old.cache_diffs(PAGE, diffs));
    apply_cached_diffs_ref(&mut old, PAGE);
    assert_eq!(st.page_data(PAGE), old.page_data(PAGE));
    assert_eq!(st.page_data(PAGE)[..12], [9, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 0]);
}

#[test]
fn own_diff_covers_all_undiffed_intervals() {
    let mut st = state(0, 2);
    fake_write(&mut st, 3, 0, 1);
    st.close_interval();
    // Page stays dirty; second interval re-notices it.
    fake_write(&mut st, 3, 1, 2);
    st.close_interval();
    assert_eq!(st.page_mut(3).history().own_undiffed, vec![1, 2]);
    st.create_own_diff(3);
    let page = st.page_mut(3);
    let diffs = &page.history().diffs;
    assert!(Arc::ptr_eq(&diffs[&(0, 1)], &diffs[&(0, 2)]));
    assert!(page.twin.is_none() && !page.writable);
    assert!(st.data.dirty_pages.is_empty());
}

#[test]
fn fetch_plan_groups_missing_by_owner() {
    let mut st = state(2, 3);
    // Notices arrive in no particular owner order; the plan is sorted.
    for (owner, ivx) in [(1u32, 1u32), (0, 1), (0, 2)] {
        let mut vcfix = Vc::zero(3);
        vcfix.set(owner as usize, ivx);
        let rec = IntervalRecord::new(owner as usize, ivx, vcfix.clone(), vec![9]);
        st.apply_records(vec![rec], &vcfix);
    }
    // Cache one of them: plan must exclude it.
    st.page_mut(9)
        .history_mut()
        .diffs
        .insert((0, 1), Arc::new(DiffRecord { owner: 0, covers: vec![1], diff: Diff::default() }));
    assert_eq!(st.fetch_plan(9), vec![(0, vec![2]), (1, vec![1])]);
}

#[test]
fn only_hand_built_tables_grow_and_inspection_never_touches_one() {
    // Hand-built (no segment): the table grows to the page touched.
    let mut st = state(0, 2);
    assert!(st.data.pages.is_empty());
    st.page_mut(40);
    assert_eq!(st.data.pages.len(), 41);
    // Over a segment the table is presized, and `inspect_page` reads
    // an untouched page's image straight from the segment: no slot is
    // created or materialized, inside the table or beyond it.
    let mut seg = SharedSegment::new(4);
    seg.write(2 * PAGE_SIZE as u64, &[7; PAGE_SIZE]);
    let st = NodeState::new(0, 2, DsmConfig::default(), Arc::new(seg));
    assert_eq!(st.data.pages.len(), 4);
    assert_eq!(st.inspect_page(2), Some(vec![7; PAGE_SIZE]));
    assert_eq!(st.inspect_page(3), Some(vec![0; PAGE_SIZE]));
    assert_eq!(st.inspect_page(9), Some(vec![0; PAGE_SIZE]));
    assert!(st.data.bytes.iter().all(Option::is_none));
}

#[test]
fn serve_diff_request_creates_lazily() {
    let mut st = state(0, 2);
    fake_write(&mut st, 5, 8, 77);
    st.close_interval();
    let (cost, entries) = st.serve_diff_request(5, &[1]);
    assert!(cost > Dur::ZERO);
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].owner, 0);
    assert_eq!(entries[0].covers, vec![1]);
    assert_eq!(entries[0].diff.payload_bytes(), 1);
    // Second request hits the cache: free.
    let (cost2, entries2) = st.serve_diff_request(5, &[1]);
    assert_eq!(cost2, Dur::ZERO);
    assert_eq!(entries2.len(), 1);
}

#[test]
fn mid_interval_serve_retwins_written_page() {
    // A diff requested while the page is being written in the current
    // interval: the diff covers the closed intervals, and the page is
    // immediately re-twinned so the open interval stays separable.
    let mut st = state(0, 2);
    fake_write(&mut st, 6, 0, 1);
    st.close_interval();
    fake_write(&mut st, 6, 1, 2); // open interval write
    let (_, entries) = st.serve_diff_request(6, &[1]);
    assert_eq!(entries.len(), 1);
    let page = st.page_mut(6);
    assert!(page.twin.is_some(), "re-twinned");
    assert!(page.writable, "still writable mid-interval");
    // Closing the open interval must still produce a servable diff.
    st.close_interval();
    let (_, entries) = st.serve_diff_request(6, &[2]);
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].covers, vec![2]);
}
