//! Replicated sequential execution, handler side (§5.4.2): the
//! master-serialized forwarded requests and the id-ordered reply chain
//! with null-ack flow control.

use repseq_sim::Dur;
use repseq_stats::NodeId;

use crate::interval::PageId;
use crate::msg::DsmMsg;
use crate::state::NodeState;
use crate::strategy::rse_state::ChainState;

/// Request sequence number used by out-of-band recovery replies.
pub(crate) const OOB_SEQ: u64 = u64::MAX;

/// Master handler: queue a forwarded request; start it if the medium is
/// free ("Diff requests from different threads are serialized at the
/// master thread", §5.4.2). Returns a message to multicast, if any.
/// Under [`crate::config::FlowControl::Concurrent`] the request is
/// forwarded immediately with no serialization.
pub(crate) fn master_enqueue(
    st: &mut NodeState,
    page: PageId,
    wanted: Vec<(NodeId, u32)>,
    requester: NodeId,
    epoch: u64,
) -> Option<DsmMsg> {
    let current = epoch == st.rse.section_epoch && st.rse.active;
    let ahead = epoch > st.rse.section_epoch;
    if !current && !ahead {
        // The section this request belongs to already ended: its requester
        // completed via timeout recovery while the request was in flight.
        // Forwarding it now would start a zombie chain in a later section.
        // (A request racing *ahead* of the master — sent by an early slave
        // before the master's own fork loop returned and entered the
        // section, routine at hundreds of nodes — is NOT a zombie: it is
        // queued and forwarded like any other.)
        return None;
    }
    if st.cfg.flow_control == crate::config::FlowControl::Concurrent {
        let req_seq = st.rse.mcast_next_seq;
        st.rse.mcast_next_seq += 1;
        return Some(DsmMsg::McastForward { page, wanted, requester, req_seq });
    }
    st.rse.mcast_queue.push_back((page, wanted, requester));
    master_try_start(st)
}

/// Master handler: begin the next queued forwarded request if none is in
/// flight.
pub(crate) fn master_try_start(st: &mut NodeState) -> Option<DsmMsg> {
    if st.rse.mcast_inflight.is_some() {
        return None;
    }
    let (page, wanted, requester) = st.rse.mcast_queue.pop_front()?;
    let req_seq = st.rse.mcast_next_seq;
    st.rse.mcast_next_seq += 1;
    st.rse.mcast_inflight = Some(req_seq);
    Some(DsmMsg::McastForward { page, wanted, requester, req_seq })
}

/// Any handler: a forwarded request arrived; set up the reply chain. The
/// chain starts at node 0: each node multicasts its diffs — or a null
/// acknowledgment — once it has received everything from its predecessor
/// (§5.4.2 flow control).
///
/// Under [`crate::config::FlowControl::Concurrent`] there is no chain: the
/// handler immediately produces its own diffs, if it has any (the return
/// value), and sends no null acknowledgments.
pub(crate) fn on_forward(
    st: &mut NodeState,
    page: PageId,
    wanted: Vec<(NodeId, u32)>,
    requester: NodeId,
    req_seq: u64,
) -> Option<(DsmMsg, Dur)> {
    if st.cfg.flow_control == crate::config::FlowControl::Concurrent {
        let me = st.node;
        let my_ivxs: Vec<u32> =
            wanted.iter().filter(|&&(owner, _)| owner == me).map(|&(_, ivx)| ivx).collect();
        if my_ivxs.is_empty() {
            return None;
        }
        let (cost, diffs) = st.serve_diff_request(page, &my_ivxs);
        return Some((DsmMsg::McastDiffReply { page, diffs, turn: me, req_seq }, cost));
    }
    st.rse.chains.insert(req_seq, ChainState { page, wanted, requester, next_turn: 0, holes: 0 });
    take_turn(st, req_seq)
}

/// Does this node hold the next turn of chain `req_seq`? If so, produce the
/// turn message (diff reply or null ack) and the diff-creation cost.
pub(crate) fn take_turn(st: &mut NodeState, req_seq: u64) -> Option<(DsmMsg, Dur)> {
    let me = st.node;
    let (page, my_ivxs) = {
        let chain = st.rse.chains.get(&req_seq)?;
        if chain.next_turn != me {
            return None;
        }
        let my_ivxs: Vec<u32> =
            chain.wanted.iter().filter(|&&(owner, _)| owner == me).map(|&(_, ivx)| ivx).collect();
        (chain.page, my_ivxs)
    };
    if my_ivxs.is_empty() {
        Some((DsmMsg::McastNullAck { page, turn: me, req_seq }, Dur::ZERO))
    } else {
        let (cost, diffs) = st.serve_diff_request(page, &my_ivxs);
        Some((DsmMsg::McastDiffReply { page, diffs, turn: me, req_seq }, cost))
    }
}

/// Record that turn `turn` of chain `req_seq` was observed. Returns true if
/// the chain completed (the last node has spoken).
///
/// Turns can arrive with gaps: a dropped turn frame means the next observed
/// turn skips the lost node(s). The chain must tolerate that explicitly —
/// advance to `max(next_turn, turn + 1)`, record the hole — rather than
/// assert turn-by-turn delivery, because the node whose frame was lost has
/// already taken its turn and will not retransmit; the requester's timeout
/// recovery (§5.4.2) fetches the missing diffs directly. Duplicate or
/// late-arriving turns (`turn < next_turn`) are ignored.
pub(crate) fn advance_chain(st: &mut NodeState, req_seq: u64, turn: NodeId) -> bool {
    let n = st.n;
    let Some(chain) = st.rse.chains.get_mut(&req_seq) else {
        return false;
    };
    if turn < chain.next_turn {
        // A duplicate or a frame that arrived after the chain moved past
        // it: the chain state must not move backwards.
        return false;
    }
    // An accepted frame: the chain is alive. The application's timeout
    // path watches this counter to avoid firing recovery at a chain that
    // is merely slow (see `RseState::chain_turns`).
    st.rse.chain_turns += 1;
    let holes = (turn - chain.next_turn) as u64;
    if holes > 0 {
        // Turns [next_turn, turn) were lost on this node's link. Count
        // them so the torture harness can assert the recovery path was
        // actually exercised; completion below no longer implies every
        // node's diffs were observed.
        chain.holes += holes;
        st.rse.chain_holes += holes;
    }
    chain.next_turn = turn + 1;
    if chain.next_turn == n {
        st.rse.chains.remove(&req_seq);
        true
    } else {
        false
    }
}

/// Incorporate multicast diffs at a handler: cache them, and if the local
/// copy can now be completed (and is actually missing something — nodes
/// with valid copies ignore the traffic), apply and wake a waiting
/// application. Returns (apply cost, wake page).
pub(crate) fn incorporate_diffs(
    st: &mut NodeState,
    page: PageId,
    diffs: &[crate::page::DiffEntry],
) -> (Dur, Option<PageId>) {
    st.cache_diffs(page, diffs);
    let meta = st.page_mut(page);
    if meta.valid {
        return (Dur::ZERO, None);
    }
    if !st.can_complete(page) {
        return (Dur::ZERO, None);
    }
    let cost = st.apply_cached_diffs(page);
    let wake = if st.rse.waiting_page == Some(page) { Some(page) } else { None };
    (cost, wake)
}

// =================================================================
// Unit tests for the chain-advance bookkeeping (the gap-tolerance
// regression: see `advance_chain`'s doc comment).
// =================================================================

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_chain(n: usize, req_seq: u64) -> NodeState {
        let mut st = crate::state::testutil::state(1, n);
        st.rse.chains.insert(
            req_seq,
            ChainState { page: 7, wanted: Vec::new(), requester: 0, next_turn: 0, holes: 0 },
        );
        st
    }

    /// A dropped turn frame must not wedge the chain: the next observed
    /// turn skips over it and the skip is recorded as a hole.
    #[test]
    fn advance_chain_tolerates_turn_gaps() {
        let mut st = state_with_chain(4, 0);
        assert!(!advance_chain(&mut st, 0, 0));
        // Turn 1's frame was lost on this node's link; turn 2 arrives next.
        assert!(!advance_chain(&mut st, 0, 2));
        assert_eq!(st.rse.chains[&0].holes, 1);
        assert_eq!(st.rse.chain_holes, 1);
        assert!(advance_chain(&mut st, 0, 3), "last turn completes the chain");
        assert!(st.rse.chains.is_empty());
        assert_eq!(st.rse.chain_holes, 1, "node-level hole count survives chain retirement");
    }

    /// Duplicates and frames arriving after the chain moved past their turn
    /// must not move the chain backwards or recount holes.
    #[test]
    fn advance_chain_ignores_duplicate_and_late_turns() {
        let mut st = state_with_chain(4, 9);
        assert!(!advance_chain(&mut st, 9, 1));
        assert_eq!(st.rse.chain_holes, 1); // turn 0 was skipped
        assert!(!advance_chain(&mut st, 9, 0)); // late copy of turn 0
        assert!(!advance_chain(&mut st, 9, 1)); // duplicate of turn 1
        assert_eq!(st.rse.chains[&9].next_turn, 2);
        assert_eq!(st.rse.chain_holes, 1);
        // Turns for unknown chains (already retired, or never forwarded
        // here) are a no-op.
        assert!(!advance_chain(&mut st, 42, 0));
        assert_eq!(st.rse.chain_holes, 1);
    }

    /// Even if every turn but the last is lost, the final frame completes
    /// the chain — with all missing turns on the books, so completion is
    /// never mistaken for full delivery.
    #[test]
    fn advance_chain_completes_past_trailing_gap() {
        let mut st = state_with_chain(3, 2);
        assert!(advance_chain(&mut st, 2, 2));
        assert!(st.rse.chains.is_empty());
        assert_eq!(st.rse.chain_holes, 2);
    }
}
