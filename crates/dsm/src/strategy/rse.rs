//! Replicated sequential execution, application side (§5.2–§5.4): the
//! valid-notice exchange at the join before a replicated section,
//! requester election on faults, and the wait for multicast diffs. The
//! handler side (forwarded requests, reply chains) is in
//! [`crate::strategy::chain`].

use std::sync::Arc;

use repseq_sim::Stopped;
use repseq_stats::NodeId;

use crate::config::{SERVICE_OVERHEAD, SYNC_OVERHEAD};
use crate::exec::{Step, Task, TaskFn, Waiting};
use crate::fetch::RetryTimer;
use crate::interval::PageId;
use crate::msg::DsmMsg;
use crate::runtime::DsmNode;
use crate::vc::Vc;
use crate::wire::Nodes;

/// Run one replicated sequential section from the master: valid-notice
/// exchange, fork of the body to every node, replicated execution of the
/// master's own copy, then the end-of-section join.
pub(crate) fn run_master(node: &DsmNode, body: Arc<TaskFn>) -> Result<(), Stopped> {
    node.fork_replicated(Arc::clone(&body))?;
    node.enter_replicated();
    body(node)?;
    node.end_replicated_master()
}

impl DsmNode {
    /// Master: run the valid-notice exchange at the join before a
    /// replicated section (§5.4.1: "Valid notices are exchanged only at the
    /// join before a sequential section"), then fork `body` as a replicated
    /// task to every slave together with the aggregated table.
    pub fn fork_replicated(&self, body: Arc<TaskFn>) -> Result<(), Stopped> {
        assert!(self.is_master());
        let n = self.n_nodes();
        let t0 = self.ctx.now();

        // 1. Collect everyone's valid-notice deltas. The request carries
        //    the same few bytes to every slave, so it goes out as ONE
        //    multicast over the hub — n-1 unicasts would serialize ~n
        //    send overheads on the master's CPU at every section entry.
        if n > 1 {
            self.multicast(Nodes::Slaves, DsmMsg::ValidNoticeRequest);
        }
        let mut table: Vec<(NodeId, PageId, Vc)> = {
            let mut st = self.ctx.state();
            st.take_valid_delta().into_iter().map(|(p, vc)| (0usize, p, vc)).collect()
        };
        for _ in 1..n {
            let (from, delta) = self.recv_for(Waiting::ValidNotices, |env| match env.msg {
                DsmMsg::ValidNoticeReply { from, delta } => Step::Done((from, delta)),
                other => Step::Other(other),
            })?;
            let mut st = self.ctx.state();
            for (p, vc) in delta {
                st.page_mut(p).announce_peer_valid(from, vc.clone());
                table.push((from, p, vc));
            }
        }
        table.sort_by_key(|(q, p, _)| (*q, *p));

        // 2. Distribute the table so every node elects identical
        //    requesters: the same data goes to everyone, so it travels as
        //    ONE multicast over the hub to the protocol handlers. The
        //    master blocks until delivery — the forks go over the switch
        //    and must not overtake the table.
        if n > 1 {
            let at =
                self.multicast(Nodes::Slaves, DsmMsg::ValidNoticeTable { deltas: table.into() });
            self.sleep_until(at + SERVICE_OVERHEAD * 2)?;
        }
        self.stats().on_valid_notice_time(0, self.ctx.now() - t0);

        // 3. Fork the replicated body.
        self.fork_slaves(Task::Replicated(body))
    }

    /// Enter the replicated section (both master and slaves, after the fork
    /// records are applied): write-protect dirty pages (§5.3) and snapshot
    /// the entry timestamp.
    ///
    /// Both this transition and section retirement (`exit_replicated`)
    /// revoke write permission in the page table, which every store
    /// checks: that is what forces replicated writes back through
    /// `write_fault` and its §5.3 pre-section diff.
    pub fn enter_replicated(&self) {
        {
            let mut st = self.ctx.state();
            st.enter_replicated();
        }
        // From here to the exit barrier this node's accesses belong to the
        // *replica* — one logical thread executing on every node (§5.2).
        self.race_sync(crate::race::SyncEdge::RseEnter);
    }

    /// Master: wait for every slave's end-of-section signal, release them,
    /// and retire the section. "At the fork at the end of a sequential
    /// section, threads wait until all other threads have finished ... No
    /// memory coherence information is exchanged" (§5.2).
    pub fn end_replicated_master(&self) -> Result<(), Stopped> {
        assert!(self.is_master());
        self.race_sync(crate::race::SyncEdge::RseExitArrive);
        let n = self.n_nodes();
        // SeqDone signals that arrived while the master was blocked in its
        // own replicated fault were buffered.
        let buffered = std::mem::take(&mut self.ctx.state().exec.pending_seqdone);
        for _ in buffered..n - 1 {
            self.recv_for(Waiting::SeqDone, |env| match env.msg {
                DsmMsg::SeqDone { .. } => Step::Done(()),
                other => Step::Other(other),
            })?;
        }
        // The release is identical for every slave: one multicast, not n-1
        // serialized unicasts. The master blocks until delivery — its next
        // fork goes over the *switch* and must not overtake the hub frame,
        // or a slave still waiting for SeqGo would see the Fork first. It
        // carries the master's copies of the pages the section wrote, for
        // each slave to share where its own copy is identical.
        if n > 1 {
            let retired = self.ctx.state().retired_pages();
            self.sleep_until(self.multicast(Nodes::Slaves, DsmMsg::SeqGo { retired }))?;
        }
        self.ctx.charge(SYNC_OVERHEAD);
        self.ctx.state().exit_replicated();
        self.race_sync(crate::race::SyncEdge::RseExitDepart);
        Ok(())
    }

    /// Slave: signal completion of the replicated body and wait for the
    /// master's go-ahead, then retire the section.
    pub fn end_replicated_slave(&self) -> Result<(), Stopped> {
        assert!(!self.is_master());
        self.race_sync(crate::race::SyncEdge::RseExitArrive);
        self.ctx.charge(SYNC_OVERHEAD);
        self.send(0, DsmMsg::SeqDone { from: self.node() });
        let retired = self.recv_for(Waiting::SeqGo, |env| match env.msg {
            DsmMsg::SeqGo { retired } => Step::Done(retired),
            other => Step::Other(other),
        })?;
        let mut st = self.ctx.state();
        st.exit_replicated();
        st.adopt_retired(&retired);
        drop(st);
        self.race_sync(crate::race::SyncEdge::RseExitDepart);
        Ok(())
    }
}

/// A read fault inside a replicated section (§5.4): elect the requester
/// deterministically; the elected node sends one request (serialized
/// through the master); everyone waits for the multicast reply chain,
/// which the node's handler applies. Timeouts trigger the direct recovery
/// path, on the shared [`RetryTimer`] budget.
pub(crate) fn fetch_replicated(node: &DsmNode, p: PageId) -> Result<(), Stopped> {
    let me = node.node();
    let t0 = node.ctx().now();
    let (send_request, wanted, epoch) = {
        let mut st = node.ctx.state();
        if st.can_complete(p) {
            // The diffs already arrived via an earlier multicast.
            let cost = st.apply_cached_diffs(p);
            drop(st);
            node.ctx().charge(cost);
            return Ok(());
        }
        // A node faults on a page at most once a section: the wait below
        // returns with the copy valid, and notices are applied only at
        // forks, joins and synchronization, which a replicated body lacks.
        let (requester, wanted) = st.elect_requester(p);
        st.rse.waiting_page = Some(p);
        (requester == me, wanted, st.rse.section_epoch)
    };
    if send_request {
        let msg = DsmMsg::McastRequest { page: p, wanted, requester: me, epoch };
        // Serialized at the master (§5.4.2): a point-to-point message to
        // the master, which multicasts the forwarded request. When the
        // elected requester IS the master node, the request is an
        // intra-node signal to its own handler and is delivered locally,
        // like every other same-node control message (locks, barriers,
        // wakeups). Routing it through the NIC would queue this tiny
        // frame on the master's transmit link behind the O(n) fork
        // frames of the section entry — at ~200 nodes that is seconds of
        // virtual delay, during which every other node times out and
        // fires §5.4.2 recovery at full strength.
        node.send(0, msg);
    }
    let mut timer = RetryTimer::new(node.ctx.state().cfg.rse_timeout);
    let mut seen_turns = node.ctx.state().rse.chain_turns;
    loop {
        let woken =
            node.recv_until(Waiting::Multicast(p), Some(timer.timeout()), |env| match env.msg {
                DsmMsg::WakePage { page } if page == p => Step::Done(()),
                other => Step::Other(other),
            })?;
        // After a timeout, re-check completability too: the diffs may all
        // have arrived without a wakeup reaching us, and a resend loop with
        // an empty fetch plan would otherwise re-arm forever sending
        // nothing.
        if try_complete(node, p) {
            break;
        }
        if woken.is_some() {
            // An out-of-band recovery reply arrived but our copy still
            // cannot complete — it covered someone else's missing diffs, or
            // only part of ours. Recovery replies are multicast, so at large
            // node counts every waiting node is woken by every OTHER
            // requester's recovery round; charging the retry budget (or
            // re-sending our own recovery requests) here turns the budget
            // into a wakeup counter and the recovery path into an O(n²)
            // request storm. Just keep waiting: our own requests are
            // already in flight, and the §5.4.2 timeout below re-sends them
            // if they are genuinely lost.
            continue;
        }
        // §5.4.2 recovery: "When a thread times out on receive, it sends
        // out a request asking for its missing diffs regardless of other
        // threads ... and the replies are multicast to all threads."
        //
        // A slow chain is not a dead chain: if our handler accepted new
        // chain turns since the last check, the serialized reply machinery
        // is still delivering — which at hundreds of nodes routinely takes
        // longer than `rse_timeout` even on a lossless network. Recovery is
        // for chains that went silent.
        let turns = node.ctx.state().rse.chain_turns;
        if turns != seen_turns {
            seen_turns = turns;
            continue;
        }
        timer.note_retry(|max| recovery_diagnostic(node, p, me, max));
        send_recovery_requests(node, p);
    }
    let waited = node.ctx().now() - t0;
    node.stats().on_diff_stall(me, waited);
    if send_request {
        node.stats().on_diff_request_complete(me, waited);
    }
    Ok(())
}

/// If the waited-on page is already valid — or every diff it needs is
/// cached — finish the fault locally and return true.
fn try_complete(node: &DsmNode, p: PageId) -> bool {
    let mut st = node.ctx.state();
    if st.page_mut(p).valid {
        st.rse.waiting_page = None;
        return true;
    }
    if st.can_complete(p) {
        let cost = st.apply_cached_diffs(p);
        st.rse.waiting_page = None;
        drop(st);
        node.ctx().charge(cost);
        return true;
    }
    false
}

/// Unicast a §5.4.2 recovery request to every owner of a still-missing
/// diff. The owners reply with out-of-band multicasts
/// ([`crate::strategy::chain::OOB_SEQ`]).
fn send_recovery_requests(node: &DsmNode, p: PageId) {
    let plan = {
        let mut st = node.ctx.state();
        st.rse.recovery_rounds += 1;
        st.fetch_plan(p)
    };
    for (owner, ivxs) in plan {
        node.send(owner, DsmMsg::RecoveryRequest { page: p, ivxs });
    }
}

/// A recovery that never converges points at a protocol bug or a dead
/// owner, not at bad luck — every retry re-requests every missing diff, so
/// the expected number of rounds under any survivable loss rate is tiny.
/// This renders the exact state for the retry budget's panic.
fn recovery_diagnostic(node: &DsmNode, p: PageId, me: NodeId, max_retries: u32) -> String {
    let mut st = node.ctx.state();
    let missing = st.fetch_plan(p);
    let valid = st.page_mut(p).valid;
    let waiting = st.rse.waiting_page;
    format!(
        "node {me}: page {p}: §5.4.2 recovery did not converge after {max_retries} \
         retries; still missing diffs {missing:?} (valid={valid}, waiting={waiting:?})"
    )
}
