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
//! or `sleep`, so "a handler never blocks" is checked by the compiler. The
//! same context lends it the node's [`NodeState`] for the length of one
//! callback.

use repseq_sim::{Dur, Envelope, Reactor, ReactorCtx, SendCtx};

use crate::exec::{protocol_violation, Waiting};
use crate::interval::PageId;
use crate::msg::DsmMsg;
use crate::page::DiffEntry;
use crate::state::NodeState;
use crate::strategy::chain;
use crate::sync::{holder_logic, LockAction};
use crate::wire::{Nodes, Wire};

/// The context a handler callback runs in, lent its node's state.
type HandlerCtx<'k> = ReactorCtx<'k, DsmMsg, NodeState>;

/// One node's protocol handler (see the module docs).
pub(crate) struct Handler {
    pub(crate) wire: Wire,
}

impl Reactor<DsmMsg, NodeState> for Handler {
    /// How long the next wait may last. While a forwarded multicast
    /// request is in flight, the master handler bounds it so a lost frame
    /// cannot wedge the queue forever (the requester recovers
    /// independently, §5.4.2).
    fn wait(&mut self, ctx: &HandlerCtx<'_>) -> Option<Dur> {
        if self.wire.node() != 0 {
            return None;
        }
        let s = ctx.state();
        s.rse.mcast_inflight.is_some().then(|| s.cfg.rse_timeout * 4)
    }

    /// The stall guard fired: give up on the in-flight request and start
    /// the next queued one.
    fn on_timeout(&mut self, ctx: &HandlerCtx<'_>) {
        let mut s = ctx.state();
        s.rse.mcast_inflight = None;
        if let Some(msg) = chain::master_try_start(&mut s) {
            self.wire.multicast(ctx, Nodes::All, msg);
        }
    }

    /// Serve one request, to completion.
    fn on_msg(&mut self, ctx: &HandlerCtx<'_>, env: Envelope<DsmMsg>) {
        let wire = &self.wire;
        let (node, n) = (wire.node(), wire.topo.n);
        match env.msg {
            // ---- demand diff fetching ----
            DsmMsg::DiffRequest { page, ivxs, from, req_id } => {
                let mut s = ctx.state();
                let (cost, diffs) = s.serve_diff_request(page, &ivxs);
                ctx.charge(s.cfg.service_overhead + cost);
                wire.send(ctx, from, DsmMsg::DiffReply { page, diffs, req_id });
            }

            // ---- barrier manager (node 0) ----
            DsmMsg::BarrierArrive { from, vc, records } => {
                debug_assert_eq!(node, 0, "barrier arrivals go to the manager");
                let mut s = ctx.state();
                ctx.charge(s.cfg.sync_overhead);
                let cost = s.apply_records(records, &vc);
                ctx.charge(cost);
                s.sync.barrier_arrivals.push((from, vc));
                if s.sync.barrier_arrivals.len() == n {
                    let merged = s.con.vc.clone();
                    for (q, vcq) in std::mem::take(&mut s.sync.barrier_arrivals) {
                        let records = s.con.intervals.records_unknown_to(&vcq);
                        wire.send(ctx, q, DsmMsg::BarrierDepart { records, vc: merged.clone() });
                    }
                }
            }

            // ---- lock manager / holder ----
            DsmMsg::LockAcquire { lock, from, vc, forwarded } => {
                let mut s = ctx.state();
                ctx.charge(s.cfg.sync_overhead);
                let action = if (lock as usize) % n == node && !forwarded {
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
                        holder_logic(&mut s, lock, from, &vc)
                    } else {
                        LockAction::Forward(target)
                    }
                } else {
                    holder_logic(&mut s, lock, from, &vc)
                };
                match action {
                    LockAction::Queued => {}
                    LockAction::Forward(target) => {
                        let msg = DsmMsg::LockAcquire { lock, from, vc, forwarded: true };
                        wire.send(ctx, target, msg)
                    }
                    LockAction::Grant { records, vc } => {
                        wire.send(ctx, from, DsmMsg::LockGrant { lock, records, vc })
                    }
                }
            }

            // ---- replicated-section multicast protocol ----
            DsmMsg::McastRequest { page, wanted, requester, epoch } => {
                debug_assert_eq!(node, 0, "multicast requests are serialized at the master");
                let mut s = ctx.state();
                ctx.charge(s.cfg.service_overhead);
                if let Some(msg) = chain::master_enqueue(&mut s, page, wanted, requester, epoch) {
                    wire.multicast(ctx, Nodes::All, msg);
                }
            }
            DsmMsg::McastForward { page, wanted, requester, req_seq } => {
                let mut s = ctx.state();
                ctx.charge(s.cfg.service_overhead);
                if let Some((msg, cost)) =
                    chain::on_forward(&mut s, page, wanted, requester, req_seq)
                {
                    ctx.charge(cost);
                    wire.multicast(ctx, Nodes::All, msg);
                }
            }
            DsmMsg::McastDiffReply { page, diffs, turn, req_seq } => {
                self.handle_chain_step(ctx, Some((page, diffs)), turn, req_seq);
            }
            DsmMsg::McastNullAck { page: _, turn, req_seq } => {
                self.handle_chain_step(ctx, None, turn, req_seq);
            }
            DsmMsg::RecoveryRequest { page, ivxs } => {
                let mut s = ctx.state();
                ctx.charge(s.cfg.service_overhead);
                // One multicast reply serves every concurrent requester;
                // see `oob_reply_due` for the window rule.
                let window = s.cfg.rse_timeout / 2;
                if s.oob_reply_due(page, &ivxs, ctx.now(), window) {
                    let (cost, diffs) = s.serve_diff_request(page, &ivxs);
                    ctx.charge(cost);
                    let reply =
                        DsmMsg::McastDiffReply { page, diffs, turn: node, req_seq: chain::OOB_SEQ };
                    wire.multicast(ctx, Nodes::All, reply);
                }
            }

            // ---- hand-inserted broadcast (ablation / MasterPush) ----
            DsmMsg::PageBroadcast { page, data, vc } => {
                let mut s = ctx.state();
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
                let mut s = ctx.state();
                ctx.charge(s.cfg.sync_overhead);
                s.merge_valid_deltas(&deltas);
            }
            other => protocol_violation(node, Waiting::Handler, &other),
        }
    }
}

impl Handler {
    /// Shared handling for both chain step messages (diff replies and null
    /// acks): incorporate diffs, advance the chain, take our own turn, and
    /// at the master start the next queued request when a chain completes.
    fn handle_chain_step(
        &self,
        ctx: &HandlerCtx<'_>,
        diffs: Option<(PageId, Vec<DiffEntry>)>,
        turn: usize,
        req_seq: u64,
    ) {
        let node = self.wire.node();
        let (mut to_multicast, mut wake) = (None, None);
        let mut s = ctx.state();
        ctx.charge(s.cfg.service_overhead);
        if let Some((page, diffs)) = &diffs {
            let (cost, w) = chain::incorporate_diffs(&mut s, *page, diffs);
            ctx.charge(cost);
            wake = w;
        }
        if req_seq != chain::OOB_SEQ {
            if chain::advance_chain(&mut s, req_seq, turn) {
                if node == 0 {
                    s.rse.mcast_inflight = None;
                    to_multicast = chain::master_try_start(&mut s);
                }
            } else if let Some((msg, cost)) = chain::take_turn(&mut s, req_seq) {
                ctx.charge(cost);
                to_multicast = Some(msg);
            }
        } else if wake.is_none() {
            // Out-of-band recovery reply that did not complete our copy: a
            // waiting application must still be woken so it re-evaluates
            // its fetch plan immediately — it may now recover more, and
            // what is still missing gets re-requested — instead of
            // sleeping out a full extra `rse_timeout`.
            if let Some((page, _)) = &diffs {
                if s.rse.waiting_page == Some(*page) {
                    wake = Some(*page);
                }
            }
        }
        if let Some(page) = wake {
            self.wire.send(ctx, node, DsmMsg::WakePage { page });
        }
        if let Some(msg) = to_multicast {
            self.wire.multicast(ctx, Nodes::All, msg);
        }
    }
}
