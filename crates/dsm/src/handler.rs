//! The per-node protocol handler.
//!
//! TreadMarks serves remote requests in a SIGIO handler on the application
//! processor, run to completion. [`Handler`] is written the same way —
//! "upon receive, do": [`wait`](Handler::wait) says how long it will wait,
//! [`on_msg`](Handler::on_msg) and [`on_timeout`](Handler::on_timeout)
//! serve one event each and return. It serves requests serially, its
//! `charge`s keep it busy in virtual time so requests queue behind it, and
//! it shares the node's transmit link with the application — the
//! ingredients of the contention behaviour §3 describes. It also implements
//! the barrier manager (node 0), the lock managers, and the receive side of
//! the replicated-section multicast protocol.
//!
//! The handler is a [`Reactor`]: no stack of its own, its callbacks run
//! on the simulator's coordinator when a request arrives — the closer
//! model of the signal handler, and no switch. The body sees only a
//! [`ReactorCtx`] — nothing in this file can name `recv`, `recv_timeout`
//! or `sleep`, so "a handler never blocks" is checked by the compiler.

use std::sync::Arc;

use parking_lot::Mutex;
use repseq_net::Nic;
use repseq_sim::{Dur, Envelope, Reactor, ReactorCtx};
use repseq_stats::MsgClass;

use crate::exec::{protocol_violation, Waiting};
use crate::msg::DsmMsg;
use crate::runtime::Topology;
use crate::state::NodeState;
use crate::strategy::chain;
use crate::sync::{holder_logic, LockAction};

/// One node's protocol handler (see the module docs).
pub(crate) struct Handler {
    nic: Nic,
    st: Arc<Mutex<NodeState>>,
    topo: Arc<Topology>,
}

impl Reactor<DsmMsg> for Handler {
    /// How long the next wait may last. While a forwarded multicast
    /// request is in flight, the master handler bounds it so a lost frame
    /// cannot wedge the queue forever (the requester recovers
    /// independently, §5.4.2).
    fn wait(&mut self) -> Option<Dur> {
        if self.nic.node() != 0 {
            return None;
        }
        let s = self.st.lock();
        s.rse.mcast_inflight.is_some().then(|| s.cfg.rse_timeout * 4)
    }

    /// The stall guard fired: give up on the in-flight request and start
    /// the next queued one.
    fn on_timeout(&mut self, ctx: &ReactorCtx<'_, DsmMsg>) {
        let next = {
            let mut s = self.st.lock();
            s.rse.mcast_inflight = None;
            chain::master_try_start(&mut s)
        };
        if let Some(msg) = next {
            self.multicast(ctx, MsgClass::ForwardedRequest, msg);
        }
    }

    /// Serve one request, to completion.
    fn on_msg(&mut self, ctx: &ReactorCtx<'_, DsmMsg>, env: Envelope<DsmMsg>) {
        let Handler { nic, st, topo } = &*self;
        let node = nic.node();
        let n = topo.n;
        match env.msg {
            // ---- demand diff fetching ----
            DsmMsg::DiffRequest { page, ivxs, reply_to, req_id } => {
                let (service, cost, diffs) = {
                    let mut s = st.lock();
                    let service = s.cfg.service_overhead;
                    let (cost, diffs) = s.serve_diff_request(page, &ivxs);
                    (service, cost, diffs)
                };
                ctx.charge(service + cost);
                let dst_node =
                    topo.node_of_app(reply_to).expect("reply target is not an application process");
                let reply = DsmMsg::DiffReply { page, diffs, req_id };
                let size = reply.wire_size();
                nic.unicast(ctx, dst_node, reply_to, MsgClass::DiffReply, size, reply);
            }

            // ---- barrier manager (node 0) ----
            DsmMsg::BarrierArrive { from, vc, records, reply_to } => {
                debug_assert_eq!(node, 0, "barrier arrivals go to the manager");
                let departures = {
                    let mut s = st.lock();
                    ctx.charge(s.cfg.sync_overhead);
                    let cost = s.apply_records(records, &vc);
                    ctx.charge(cost);
                    s.sync.barrier_arrivals.push((from, vc, reply_to));
                    if s.sync.barrier_arrivals.len() == n {
                        let arrivals = std::mem::take(&mut s.sync.barrier_arrivals);
                        let merged = s.con.vc.clone();
                        Some(
                            arrivals
                                .into_iter()
                                .map(|(q, vcq, pid)| {
                                    let records = s.con.intervals.records_unknown_to(&vcq);
                                    (q, pid, DsmMsg::BarrierDepart { records, vc: merged.clone() })
                                })
                                .collect::<Vec<_>>(),
                        )
                    } else {
                        None
                    }
                };
                if let Some(departures) = departures {
                    for (q, pid, msg) in departures {
                        let size = msg.wire_size();
                        if q == 0 {
                            nic.local(ctx, pid, msg);
                        } else {
                            nic.unicast(ctx, q, pid, MsgClass::Sync, size, msg);
                        }
                    }
                }
            }

            // ---- lock manager / holder ----
            DsmMsg::LockAcquire { lock, from, vc, reply_to, forwarded } => {
                let manager = (lock as usize) % n == node;
                let action = {
                    let mut s = st.lock();
                    ctx.charge(s.cfg.sync_overhead);
                    if manager && !forwarded {
                        // Lazy token initialization: an unseen lock's token
                        // starts at its manager.
                        let target = match s.sync.lock_last.get(&lock) {
                            Some(&t) => t,
                            None => {
                                s.sync.lock_token.insert(lock);
                                node
                            }
                        };
                        s.sync.lock_last.insert(lock, from);
                        if target == node {
                            holder_logic(&mut s, lock, from, &vc, reply_to)
                        } else {
                            LockAction::Forward(target)
                        }
                    } else {
                        holder_logic(&mut s, lock, from, &vc, reply_to)
                    }
                };
                match action {
                    LockAction::Queued => {}
                    LockAction::Forward(target) => {
                        let msg = DsmMsg::LockAcquire { lock, from, vc, reply_to, forwarded: true };
                        let size = msg.wire_size();
                        nic.unicast(
                            ctx,
                            target,
                            topo.handler_pids[target],
                            MsgClass::Lock,
                            size,
                            msg,
                        );
                    }
                    LockAction::Grant { records, vc } => {
                        let msg = DsmMsg::LockGrant { lock, records, vc };
                        let size = msg.wire_size();
                        let dst_node = topo
                            .node_of_app(reply_to)
                            .expect("reply target is not an application process");
                        nic.unicast(ctx, dst_node, reply_to, MsgClass::Lock, size, msg);
                    }
                }
            }

            // ---- replicated-section multicast protocol ----
            DsmMsg::McastRequest { page, wanted, requester, epoch } => {
                debug_assert_eq!(node, 0, "multicast requests are serialized at the master");
                let fwd = {
                    let mut s = st.lock();
                    ctx.charge(s.cfg.service_overhead);
                    chain::master_enqueue(&mut s, page, wanted, requester, epoch)
                };
                if let Some(msg) = fwd {
                    self.multicast(ctx, MsgClass::ForwardedRequest, msg);
                }
            }
            DsmMsg::McastForward { page, wanted, requester, req_seq } => {
                let turn = {
                    let mut s = st.lock();
                    ctx.charge(s.cfg.service_overhead);
                    chain::on_forward(&mut s, page, wanted, requester, req_seq)
                };
                if let Some((msg, cost)) = turn {
                    ctx.charge(cost);
                    let class = match &msg {
                        DsmMsg::McastNullAck { .. } => MsgClass::NullAck,
                        _ => MsgClass::DiffReply,
                    };
                    self.multicast(ctx, class, msg);
                }
            }
            DsmMsg::McastDiffReply { page, diffs, turn, req_seq } => {
                self.handle_chain_step(ctx, Some((page, diffs)), turn, req_seq);
            }
            DsmMsg::McastNullAck { page: _, turn, req_seq } => {
                self.handle_chain_step(ctx, None, turn, req_seq);
            }
            DsmMsg::RecoveryRequest { page, ivxs, requester: _, reply_mcast } => {
                let served = {
                    let mut s = st.lock();
                    ctx.charge(s.cfg.service_overhead);
                    // One multicast reply serves every concurrent
                    // requester; see `oob_reply_due` for the window rule.
                    let window = s.cfg.rse_timeout / 2;
                    if s.oob_reply_due(page, &ivxs, ctx.now(), window) {
                        let (cost, diffs) = s.serve_diff_request(page, &ivxs);
                        let reply = DsmMsg::McastDiffReply {
                            page,
                            diffs,
                            turn: node,
                            req_seq: chain::OOB_SEQ,
                        };
                        Some((reply, cost))
                    } else {
                        None
                    }
                };
                debug_assert!(reply_mcast, "recovery replies are always multicast (§5.4.2)");
                if let Some((msg, cost)) = served {
                    ctx.charge(cost);
                    self.multicast(ctx, MsgClass::DiffReply, msg);
                }
            }

            // ---- hand-inserted broadcast (ablation / MasterPush) ----
            DsmMsg::PageBroadcast { page, data, vc } => {
                let mut s = st.lock();
                ctx.charge(s.cfg.service_overhead);
                let meta = s.page_mut(page);
                let fresh = !(meta.valid && vc.dominated_by(&meta.valid_at));
                if meta.twin.is_none() && fresh {
                    // Safe to overwrite: we have no concurrent local writes
                    // and our copy does not already cover the broadcast
                    // (a broadcast delayed behind other hub traffic must
                    // not clobber a fresher demand-fetched copy). Copy in
                    // place — a TLB entry or guard may alias the buffer,
                    // and replacing it would leave them pointing at the
                    // pre-broadcast bytes forever.
                    s.page_data(page).copy_from_slice(&data);
                    let meta = s.page_mut(page);
                    meta.valid_at.merge(&vc);
                    // The copy is valid only if it covers every write
                    // notice known locally: a late broadcast must not
                    // resurrect a copy that newer notices invalidated.
                    // (Uncovered notices keep it invalid; the next access
                    // demand-fetches exactly those diffs onto this base.)
                    meta.valid =
                        meta.notices.iter().all(|&(owner, ivx)| meta.valid_at.covers(owner, ivx));
                    s.mark_valid_changed(page);
                    // Content changed underneath any cached translation.
                    s.bump_page_prot_gen(page);
                }
            }

            DsmMsg::ValidNoticeTable { deltas } => {
                let mut s = st.lock();
                ctx.charge(s.cfg.sync_overhead);
                s.merge_valid_deltas(&deltas);
            }
            other => protocol_violation(node, Waiting::Handler, &other),
        }
    }
}

impl Handler {
    pub(crate) fn new(nic: Nic, st: Arc<Mutex<NodeState>>, topo: Arc<Topology>) -> Handler {
        Handler { nic, st, topo }
    }

    fn multicast(&self, ctx: &ReactorCtx<'_, DsmMsg>, class: MsgClass, msg: DsmMsg) {
        chain::multicast_to_handlers(&self.nic, ctx, &self.topo, class, msg);
    }

    /// Shared handling for both chain step messages (diff replies and null
    /// acks): incorporate diffs, advance the chain, take our own turn, and
    /// at the master start the next queued request when a chain completes.
    fn handle_chain_step(
        &self,
        ctx: &ReactorCtx<'_, DsmMsg>,
        diffs: Option<(crate::interval::PageId, Vec<crate::page::DiffEntry>)>,
        turn: usize,
        req_seq: u64,
    ) {
        let node = self.nic.node();
        let mut to_multicast: Option<(DsmMsg, MsgClass)> = None;
        let mut wake: Option<crate::interval::PageId> = None;
        {
            let mut s = self.st.lock();
            ctx.charge(s.cfg.service_overhead);
            if let Some((page, diffs)) = &diffs {
                let (cost, w) = chain::incorporate_diffs(&mut s, *page, diffs);
                ctx.charge(cost);
                wake = w;
            }
            if req_seq != chain::OOB_SEQ {
                let done = chain::advance_chain(&mut s, req_seq, turn);
                if done {
                    if node == 0 {
                        s.rse.mcast_inflight = None;
                        if let Some(msg) = chain::master_try_start(&mut s) {
                            to_multicast = Some((msg, MsgClass::ForwardedRequest));
                        }
                    }
                } else if let Some((msg, cost)) = chain::take_turn(&mut s, req_seq) {
                    ctx.charge(cost);
                    let class = match &msg {
                        DsmMsg::McastNullAck { .. } => MsgClass::NullAck,
                        _ => MsgClass::DiffReply,
                    };
                    to_multicast = Some((msg, class));
                }
            } else if wake.is_none() {
                // Out-of-band recovery reply that did not complete our
                // copy: a waiting application must still be woken so it
                // re-evaluates its fetch plan immediately — it may now
                // recover more, and what is still missing gets
                // re-requested — instead of sleeping out a full extra
                // `rse_timeout`.
                if let Some((page, _)) = &diffs {
                    if s.rse.waiting_page == Some(*page) {
                        wake = Some(*page);
                    }
                }
            }
        }
        if let Some(page) = wake {
            self.nic.local(ctx, self.topo.app_pids[node], DsmMsg::WakePage { page });
        }
        if let Some((msg, class)) = to_multicast {
            self.multicast(ctx, class, msg);
        }
    }
}
