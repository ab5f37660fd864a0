//! Replicated-sequential-execution state: everything a node tracks for
//! §5.2–§5.4 — section membership, reply chains and the master's
//! multicast serialization — plus the read-only probes `repseq-check`
//! asserts over. What is per page (the peers' valid notices, "already
//! requested", the recovery-reply memory) is a column of the page table;
//! this struct keeps the worklists naming the slots to visit.

use std::collections::{HashMap, VecDeque};

use repseq_sim::{Dur, SimTime};
use repseq_stats::NodeId;

use crate::dataplane::DataPlane;
use crate::interval::PageId;
use crate::state::NodeState;
use crate::vc::Vc;

/// A queued multicast request awaiting the master's serialization:
/// (page, wanted diffs, requester).
pub(crate) type QueuedRequest = (PageId, Vec<(NodeId, u32)>, NodeId);

/// Reply-chain state for one forwarded multicast request (§5.4.2).
#[derive(Debug)]
pub(crate) struct ChainState {
    pub(crate) page: PageId,
    pub(crate) wanted: Vec<(NodeId, u32)>,
    pub(crate) requester: NodeId,
    /// Whose turn it is to multicast next.
    pub(crate) next_turn: NodeId,
    /// Turns this node never observed (dropped frames skipped over when a
    /// later turn arrived). A chain that completes with holes did NOT
    /// deliver every node's diffs here; timeout recovery fills the gap.
    pub(crate) holes: u64,
}

/// Snapshot of one reply chain, taken by [`NodeState::rse_probe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainProbe {
    pub req_seq: u64,
    pub page: PageId,
    pub requester: NodeId,
    pub next_turn: NodeId,
    pub holes: u64,
}

/// A read-only snapshot of one node's replicated-section protocol state
/// (see [`NodeState::rse_probe`]). `repseq-check` asserts over these after
/// every torture run: at quiescence, `chains`, `mcast_queue_len`,
/// `mcast_inflight`, `rse_requested` and `waiting_page` must all be empty,
/// and `in_rse` false.
#[derive(Debug, Clone)]
pub struct RseProbe {
    pub node: NodeId,
    pub in_rse: bool,
    pub chains: Vec<ChainProbe>,
    pub mcast_queue_len: usize,
    pub mcast_inflight: Option<u64>,
    pub rse_requested: Vec<PageId>,
    pub waiting_page: Option<PageId>,
    pub chain_holes: u64,
    pub recovery_rounds: u64,
}

impl RseProbe {
    /// True when nothing of the replicated-section machinery is left
    /// behind: the invariant every node must satisfy once a run (or a
    /// section) has fully retired.
    pub fn is_quiescent(&self) -> bool {
        !self.in_rse
            && self.chains.is_empty()
            && self.mcast_queue_len == 0
            && self.mcast_inflight.is_none()
            && self.rse_requested.is_empty()
            && self.waiting_page.is_none()
    }
}

/// Per-node RSE protocol state.
pub(crate) struct RseState {
    /// Inside a replicated section right now.
    pub(crate) active: bool,
    /// The (cluster-identical) vector time at replicated-section entry.
    pub(crate) entry_vc: Vc,
    /// Pages written during the current replicated section.
    pub(crate) dirty: Vec<PageId>,
    /// Own pages whose valid notice changed since the last exchange:
    /// the worklist behind the slots' `valid_changed` flag. An entry whose
    /// flag was cleared since (the page was retired) is stale and skipped.
    pub(crate) valid_changed: Vec<PageId>,
    /// Pages this node has already sent a multicast request for, in the
    /// current replicated section (slot flag `requested`; reset at exit).
    pub(crate) requested: Vec<PageId>,
    /// Page the application process is blocked on (handler wakes it).
    pub(crate) waiting_page: Option<PageId>,
    /// Active reply chains, by request sequence number.
    pub(crate) chains: HashMap<u64, ChainState>,
    /// Total chain turns this node skipped over because the frame was lost
    /// (see [`ChainState::holes`]); monotone over the whole run, so the
    /// torture harness can tell whether a schedule exercised the gap path.
    pub(crate) chain_holes: u64,
    /// §5.4.2 recovery rounds this node's application initiated (timeouts
    /// that re-requested missing diffs); monotone over the run, likewise
    /// for harness assertions.
    pub(crate) recovery_rounds: u64,
    /// Total reply-chain turns this node's handler has observed (accepted
    /// frames of any chain, any page); monotone. The application's
    /// timeout path reads it to distinguish a *slow* chain (turns still
    /// advancing — keep waiting) from a *dead* one (counter static —
    /// trigger §5.4.2 recovery). At hundreds of nodes a serialized chain
    /// legitimately outlives `rse_timeout`, and firing n simultaneous
    /// recovery rounds there is an O(n²) message storm.
    pub(crate) chain_turns: u64,
    /// Replicated sections this node has entered (monotone; identical on
    /// every node, since every node executes every section). Stamped into
    /// `McastRequest` so the master can order a request against its own
    /// section entry: at large node counts early slaves fault — and elect
    /// requesters — before the master's fork loop has even returned, and
    /// those requests must be queued, not dropped as zombies.
    pub(crate) section_epoch: u64,
    /// Pages whose slot holds an `oob_reply`, to clear at section entry.
    pub(crate) oob_replied: Vec<PageId>,
    /// Master only (§5.4.2): queued forwarded requests ...
    pub(crate) mcast_queue: VecDeque<QueuedRequest>,
    /// ... and the sequence number of the one in flight, if any.
    pub(crate) mcast_inflight: Option<u64>,
    pub(crate) mcast_next_seq: u64,
}

impl RseState {
    pub(crate) fn new(n: usize) -> RseState {
        RseState {
            active: false,
            entry_vc: Vc::zero(n),
            dirty: Vec::new(),
            valid_changed: Vec::new(),
            requested: Vec::new(),
            waiting_page: None,
            chains: HashMap::new(),
            chain_holes: 0,
            recovery_rounds: 0,
            chain_turns: 0,
            section_epoch: 0,
            oob_replied: Vec::new(),
            mcast_queue: VecDeque::new(),
            mcast_inflight: None,
            mcast_next_seq: 0,
        }
    }
}

impl NodeState {
    /// Enter a replicated section: write-protect every dirty page so lazy
    /// diff creation cannot leak replicated writes (§5.3), and snapshot the
    /// entry vector time (identical on every node after the fork). Every
    /// way in closes the interval first, so no diff inside re-twins.
    pub fn enter_replicated(&mut self) {
        assert!(!self.rse.active, "nested replicated sections are not supported");
        debug_assert!(self.con.cur_writes.is_empty(), "section entered mid-interval");
        self.rse.active = true;
        self.rse.section_epoch += 1;
        self.rse.entry_vc = self.con.vc.clone();
        self.rse.dirty.clear();
        // Replies multicast in an earlier section may not cover the diffs
        // this section's faults will ask for.
        for p in self.rse.oob_replied.drain(..) {
            self.data.pages[p as usize].oob_reply = None;
        }
        for &p in &self.data.dirty_pages {
            let page = &mut self.data.pages[p as usize];
            debug_assert!(page.twin.is_some());
            page.writable = false;
            page.rse_protected = true;
            // §5.3 write-protect: a TLB entry caching write permission for
            // this dirty page is now stale — the first write inside the
            // section must fault so the pre-section diff gets created.
            // Read-only entries stay right: the page remains valid.
            self.bump_page_write_prot_gen(p);
        }
    }

    /// Leave a replicated section: unprotect the dirty pages that were
    /// never written (§5.3: "the remaining write-protected dirty pages are
    /// unprotected and returned to their normal state") and retire the
    /// pages written during the section — they hold no twin, stay valid
    /// everywhere, and produce no write notices.
    pub fn exit_replicated(&mut self) {
        assert!(self.rse.active);
        self.rse.active = false;
        for &p in &self.data.dirty_pages {
            let page = &mut self.data.pages[p as usize];
            if page.rse_protected {
                // Back to the normal post-interval-close state: twinned and
                // write-protected, so the next write faults and lands in
                // its own interval.
                page.rse_protected = false;
                page.writable = false;
            }
        }
        for p in std::mem::take(&mut self.rse.dirty) {
            let page = &mut self.data.pages[p as usize];
            debug_assert!(page.twin.is_none(), "page {p} retired with a twin");
            page.writable = false;
            page.rse_dirty = false;
            page.valid = true;
            page.valid_at = self.rse.entry_vc.clone();
            // Pages retired by a replicated section are valid on *every*
            // node by construction — each node executed the same writes
            // at the same vector time — so their validity is common
            // knowledge. Record it locally, as the one stamp every peer
            // holds, instead of re-announcing it (with O(n) vector clocks
            // per entry, from all n nodes) in the next valid-notice
            // exchange: at hundreds of nodes those redundant notices
            // dominated the section's wire traffic.
            page.valid_changed = false;
            page.peers_valid_at = Some(self.rse.entry_vc.clone());
            page.peer_announced.clear();
            // Section retirement re-protected the page written in it; the
            // retired copy stays valid, so reads may keep their entries.
            self.bump_page_write_prot_gen(p);
        }
        self.rse.waiting_page = None;
        for p in self.rse.requested.drain(..) {
            self.data.pages[p as usize].requested = false;
        }
        // Every fault of the section has been satisfied by now (SeqDone /
        // SeqGo have been exchanged), so any chain still tracked was wedged
        // by loss and will never advance: its requester already completed
        // via timeout recovery. Same for the master's forward queue — a
        // queued request whose requester recovered must not start a zombie
        // chain in a later section.
        self.rse.chains.clear();
        self.rse.mcast_queue.clear();
        self.rse.mcast_inflight = None;
    }

    /// Owner side of §5.4.2 recovery: must this request be answered with
    /// a fresh out-of-band multicast? Replies go to every handler, so a
    /// reply covering the same interval indices multicast within the
    /// last `window` already served this requester too — answering each
    /// of the ~n simultaneous timeouts individually is an O(n²) reply
    /// storm (the flow-control problem §8 of the paper points at).
    /// Records the reply (time, union of served indices) when it answers
    /// true. A requester whose copy of the recorded reply was lost on
    /// its link retries a full `rse_timeout` later — outside any
    /// `window <= rse_timeout`, so it is always re-served.
    pub(crate) fn oob_reply_due(
        &mut self,
        page: PageId,
        ivxs: &[u32],
        now: SimTime,
        window: Dur,
    ) -> bool {
        self.page_mut(page);
        let reply = &mut self.data.pages[page as usize].oob_reply;
        if let Some((at, served)) = reply {
            if now - *at <= window && ivxs.iter().all(|i| served.contains(i)) {
                return false;
            }
        } else {
            self.rse.oob_replied.push(page);
        }
        let entry = reply.get_or_insert_with(Default::default);
        entry.0 = now;
        for &i in ivxs {
            if !entry.1.contains(&i) {
                entry.1.push(i);
            }
        }
        true
    }

    /// Page `p`'s own valid notice changed: announce it at the next
    /// exchange.
    pub(crate) fn mark_valid_changed(&mut self, p: PageId) {
        let page = self.page_mut(p);
        if !page.valid_changed {
            page.valid_changed = true;
            self.rse.valid_changed.push(p);
        }
    }

    /// This node's valid-notice delta since the last exchange (§5.4.1),
    /// ascending by page.
    pub fn take_valid_delta(&mut self) -> Vec<(PageId, Vc)> {
        let pages = &mut self.data.pages;
        let mut out: Vec<(PageId, Vc)> = self
            .rse
            .valid_changed
            .drain(..)
            .filter_map(|p| {
                let page = &mut pages[p as usize];
                std::mem::take(&mut page.valid_changed).then(|| (p, page.valid_at.clone()))
            })
            .collect();
        out.sort_by_key(|(p, _)| *p);
        out
    }

    /// Merge exchanged valid-notice deltas into the page table.
    pub fn merge_valid_deltas(&mut self, deltas: &[(NodeId, PageId, Vc)]) {
        for (q, p, vc) in deltas {
            self.page_mut(*p).announce_peer_valid(*q, vc.clone());
        }
    }

    /// Requester election for a replicated-section fault on `p` (§5.4.1):
    /// every node computes, from the identical write notices and exchanged
    /// valid notices, which nodes fault and which diffs are missing on any
    /// of them. The faulting node with the lowest identifier requests the
    /// union. Returns `(requester, union_of_missing)`.
    pub(crate) fn elect_requester(&mut self, p: PageId) -> (NodeId, Vec<(NodeId, u32)>) {
        let (n, me) = (self.n, self.node);
        self.page_mut(p);
        let DataPlane { pages, zero, .. } = &self.data;
        let page = &pages[p as usize];
        // Every node's valid notice, resolved once: our own live one
        // (identical to what we exchanged, plus deterministic updates all
        // nodes replay identically), else the one last exchanged.
        let stamps: Vec<&Vc> = (0..n)
            .map(|q| if q == me { &page.valid_at } else { page.peer_valid_at(q).unwrap_or(zero) })
            .collect();
        // One pass over the notices, which hold each interval once: a
        // notice some node misses is wanted, and the lowest node missing
        // any notice requests.
        let mut requester = n;
        let mut wanted: Vec<(NodeId, u32)> = Vec::new();
        for &(o, i) in &page.notices {
            if let Some(q) = stamps.iter().position(|vc| !vc.covers(o, i)) {
                requester = requester.min(q);
                wanted.push((o, i));
            }
        }
        assert!(requester < n, "election on a page nobody faults on");
        wanted.sort_unstable();
        (requester, wanted)
    }

    /// A read-only snapshot of the replicated-section protocol state, for
    /// invariant checking. Safe to take at any point; never perturbs the
    /// protocol.
    pub fn rse_probe(&self) -> RseProbe {
        let mut chains: Vec<ChainProbe> = self
            .rse
            .chains
            .iter()
            .map(|(&req_seq, c)| ChainProbe {
                req_seq,
                page: c.page,
                requester: c.requester,
                next_turn: c.next_turn,
                holes: c.holes,
            })
            .collect();
        chains.sort_by_key(|c| c.req_seq);
        let mut rse_requested = self.rse.requested.clone();
        rse_requested.sort_unstable();
        RseProbe {
            node: self.node,
            in_rse: self.rse.active,
            chains,
            mcast_queue_len: self.rse.mcast_queue.len(),
            mcast_inflight: self.rse.mcast_inflight,
            rse_requested,
            waiting_page: self.rse.waiting_page,
            chain_holes: self.rse.chain_holes,
            recovery_rounds: self.rse.recovery_rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use repseq_stats::NodeId;

    use super::*;
    use crate::state::testutil::{fake_write, random_page, state, PAGE};

    /// The previous `elect_requester`, kept as the reference: node by node
    /// over every notice, a linear `contains` per missing one. `None` where
    /// no node faults.
    fn elect_requester_ref(st: &mut NodeState, p: PageId) -> Option<(NodeId, Vec<(NodeId, u32)>)> {
        st.page_mut(p);
        let (page, zero) = (&st.data.pages[p as usize], &st.data.zero);
        let (mut requester, mut union) = (None, Vec::new());
        for q in 0..st.n {
            let own = &page.valid_at;
            let valid_q = if q == st.node { own } else { page.peer_valid_at(q).unwrap_or(zero) };
            for &(o, i) in page.notices.iter().filter(|&&(o, i)| !valid_q.covers(o, i)) {
                requester.get_or_insert(q);
                if !union.contains(&(o, i)) {
                    union.push((o, i));
                }
            }
        }
        union.sort();
        requester.map(|q| (q, union))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The one-pass election elects the reference's requester and
        /// wants the reference's diffs on random pages (`random_page`).
        #[test]
        fn election_matches_the_reference(seed in 0u64..u64::MAX) {
            let (mut st, _) = random_page(seed);
            if let Some(elected) = elect_requester_ref(&mut st, PAGE) {
                proptest::prop_assert_eq!(st.elect_requester(PAGE), elected);
            }
        }
    }

    #[test]
    fn rse_entry_protects_dirty_pages_and_exit_restores() {
        let mut st = state(0, 2);
        fake_write(&mut st, 6, 0, 1);
        st.close_interval(); // the join before the section
        st.enter_replicated();
        {
            let page = st.page_mut(6);
            assert!(!page.writable && page.rse_protected && page.twin.is_some());
        }
        // Never written during the section: exit returns it to the normal
        // twinned, write-protected state.
        st.exit_replicated();
        let page = st.page_mut(6);
        assert!(!page.writable && !page.rse_protected && page.twin.is_some());
        assert_eq!(st.data.dirty_pages, vec![6]);
    }

    #[test]
    fn rse_dirty_pages_retire_silently() {
        let mut st = state(0, 2);
        st.enter_replicated();
        // Simulate a replicated write (the runtime layer does this dance):
        // writable and section-dirty, with no twin.
        {
            let page = st.page_mut(8);
            page.writable = true;
            page.rse_dirty = true;
        }
        let gen_before = st.prot_gen();
        st.rse.dirty.push(8);
        st.exit_replicated();
        assert!(st.prot_gen() > gen_before, "retiring replicated writes must invalidate the TLB");
        let entry_vc = st.rse.entry_vc.clone();
        let page = st.page_mut(8);
        assert!(page.valid && !page.writable && page.twin.is_none());
        assert_eq!(page.valid_at, entry_vc);
        assert!(page.own_undiffed.is_empty(), "no write notices for replicated writes");
        assert!(!st.data.dirty_pages.contains(&8));
    }

    #[test]
    fn serve_during_rse_excludes_replicated_writes() {
        // The §5.3 regression, both orders. A page is dirtied before the
        // join (byte 0) and written during the replicated section (byte 1).
        // The diff served for the pre-section interval must contain ONLY
        // byte 0 — lazy diff creation must not leak the replicated write.

        // Order A: the replicated write happens first.
        let mut st = state(0, 2);
        fake_write(&mut st, 3, 0, 7);
        st.close_interval(); // join
        st.enter_replicated();
        fake_write(&mut st, 3, 1, 9); // replicated write → pre-diff + re-twin
        let (_, entries) = st.serve_diff_request(3, &[1]);
        assert_eq!(entries[0].diff.payload_bytes(), 1, "only the pre-section byte");
        assert_eq!(entries[0].diff.runs()[0].offset, 0);

        // Order B: the request arrives before the replicated write.
        let mut st = state(0, 2);
        fake_write(&mut st, 3, 0, 7);
        st.close_interval();
        st.enter_replicated();
        let (_, entries) = st.serve_diff_request(3, &[1]);
        assert_eq!(entries[0].diff.payload_bytes(), 1);
        // The replicated write still works afterwards.
        fake_write(&mut st, 3, 1, 9);
        assert!(st.page_mut(3).rse_dirty);
        st.exit_replicated();
        assert_eq!(st.page_data(3)[0], 7);
        assert_eq!(st.page_data(3)[1], 9);
    }

    #[test]
    fn election_is_lowest_faulting_node_with_union() {
        let mut st = state(2, 4);
        // Page 3 has notices (0,1) and (1,1).
        let mut vc0 = Vc::zero(4);
        vc0.set(0, 1);
        let mut vc1 = Vc::zero(4);
        vc1.set(1, 1);
        st.apply_records(
            vec![
                crate::interval::IntervalRecord::new(0, 1, vc0.clone(), vec![3]),
                crate::interval::IntervalRecord::new(1, 1, vc1.clone(), vec![3]),
            ],
            &{
                let mut m = vc0.clone();
                m.merge(&vc1);
                m
            },
        );
        // Node 0 is missing only (1,1); node 1 is valid; node 3 missing
        // both. Node 2 (us) missing both.
        let mut v0 = Vc::zero(4);
        v0.set(0, 1);
        st.merge_valid_deltas(&[(0, 3, v0)]);
        let mut v1 = Vc::zero(4);
        v1.set(0, 1);
        v1.set(1, 1);
        st.merge_valid_deltas(&[(1, 3, v1)]);
        // node 3: no entry → zero.
        let (req, wanted) = st.elect_requester(3);
        assert_eq!(req, 0, "lowest faulting node requests");
        assert_eq!(wanted, vec![(0, 1), (1, 1)], "union of everyone's missing diffs");
    }

    /// The owner answers the first recovery request for a page, suppresses
    /// identical requests inside the window (one multicast already served
    /// every requester), and answers again once the window has passed — so
    /// a requester whose copy of the reply was lost is re-served on its
    /// next `rse_timeout` retry.
    #[test]
    fn oob_reply_dedups_within_window() {
        let mut st = state(1, 4);
        let w = Dur::from_millis(250);
        let t = |ms: u64| SimTime::ZERO + Dur::from_millis(ms);
        assert!(st.oob_reply_due(7, &[1, 2], t(0), w), "first request is served");
        assert!(!st.oob_reply_due(7, &[1, 2], t(100), w), "identical request suppressed");
        assert!(!st.oob_reply_due(7, &[2], t(100), w), "subset suppressed too");
        assert!(st.oob_reply_due(7, &[3], t(100), w), "an unserved index must be served");
        assert!(!st.oob_reply_due(7, &[1, 3], t(200), w), "served union accumulates");
        assert!(st.oob_reply_due(9, &[1], t(100), w), "other pages are independent");
        assert!(st.oob_reply_due(7, &[1, 2], t(500), w), "window expiry re-serves");
        // Section entry wipes the memory: new section, new diffs.
        st.enter_replicated();
        st.exit_replicated();
        st.enter_replicated();
        assert!(st.oob_reply_due(7, &[1], t(501), w), "cleared at section entry");
    }

    #[test]
    fn valid_delta_roundtrip() {
        let mut st = state(1, 2);
        fake_write(&mut st, 2, 0, 1);
        st.close_interval();
        let delta = st.take_valid_delta();
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].0, 2);
        assert!(delta[0].1.covers(1, 1));
        // Drained: next delta is empty.
        assert!(st.take_valid_delta().is_empty());
        // Merging into another node's state.
        let mut other = state(0, 2);
        let table: Vec<(NodeId, PageId, Vc)> =
            delta.into_iter().map(|(p, vc)| (1usize, p, vc)).collect();
        other.merge_valid_deltas(&table);
        assert!(other.page_mut(2).peer_valid_at(1).unwrap().covers(1, 1));
    }
}
