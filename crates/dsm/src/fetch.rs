//! The fetch layer: demand diff fetching with the request/reply protocol
//! and the shared timeout/resend machinery.
//!
//! Both fetch paths — the ordinary parallel-section fetch below and the
//! replicated-section fetch in [`crate::strategy::rse`] — sit on the same
//! retry discipline: wait with the configured timeout, count a retry on
//! every unproductive wakeup, and fail loudly with full diagnostics once
//! the budget is exhausted (an unconverged fetch points at a protocol bug
//! or a dead peer, not bad luck). [`RetryTimer`] is that shared
//! discipline; [`classify_reply`] is the shared stale-reply absorption.

use repseq_sim::{Dur, Envelope, SendCtx, Stopped, SubstrateCtx};
use repseq_stats::{MsgClass, NodeId};

use crate::config::DsmConfig;
use crate::interval::PageId;
use crate::msg::DsmMsg;
use crate::page::DiffEntry;
use crate::runtime::DsmNode;
use crate::strategy;

/// Request-id state for demand fetches.
pub(crate) struct FetchState {
    /// Sequence numbers for demand diff requests.
    pub(crate) next_req_id: u64,
}

impl FetchState {
    pub(crate) fn new() -> FetchState {
        FetchState { next_req_id: 0 }
    }
}

impl crate::state::NodeState {
    /// Fresh request id for demand fetches.
    pub(crate) fn fresh_req_id(&mut self) -> u64 {
        self.fetch.next_req_id += 1;
        self.fetch.next_req_id
    }
}

/// The shared timeout/retry discipline of both fetch paths. Each
/// unproductive wait (timeout, or a wakeup that did not complete the
/// fault) counts one retry against `max_retries`; exceeding the budget
/// panics with the caller-supplied diagnostic, because under any
/// survivable loss rate the expected number of retries is tiny.
pub(crate) struct RetryTimer {
    timeout: Dur,
    max_retries: u32,
    retries: u32,
}

impl RetryTimer {
    pub(crate) fn from_cfg(cfg: &DsmConfig) -> RetryTimer {
        RetryTimer { timeout: cfg.rse_timeout, max_retries: cfg.rse_max_retries, retries: 0 }
    }

    /// The configured wait, for callers that drive `recv_timeout` directly
    /// (the replicated fetch re-checks completability before deciding a
    /// timeout was unproductive).
    pub(crate) fn timeout(&self) -> Dur {
        self.timeout
    }

    /// Wait for the next message with the retry timeout. `None` means the
    /// wait timed out and a retry was recorded — the caller resends;
    /// `describe` renders the panic diagnostic if the budget is exhausted.
    /// Generic over the substrate: the wait is virtual on the DES and a
    /// real wall-clock timeout on the native backend — the same resend
    /// discipline drives both.
    pub(crate) fn recv(
        &mut self,
        ctx: &impl SubstrateCtx<DsmMsg>,
        describe: impl FnOnce(u32) -> String,
    ) -> Result<Option<Envelope<DsmMsg>>, Stopped> {
        match ctx.recv_timeout(self.timeout)? {
            Some(env) => Ok(Some(env)),
            None => {
                self.note_retry(describe);
                Ok(None)
            }
        }
    }

    /// Record an unproductive round (timeout, or a wakeup after which the
    /// fault still cannot complete) against the budget.
    pub(crate) fn note_retry(&mut self, describe: impl FnOnce(u32) -> String) {
        self.retries += 1;
        if self.retries > self.max_retries {
            panic!("{}", describe(self.max_retries));
        }
    }
}

/// What a message received inside a fetch loop means for that fetch.
pub(crate) enum ReplyClass {
    /// The reply to the outstanding request: cache these diffs.
    Matching(Vec<DiffEntry>),
    /// A reply to a request this fetch already gave up on (the resend
    /// layer's duplicate whose original won the race): drop silently.
    Stale,
    /// Not a diff reply at all; the caller absorbs or rejects it.
    Other(DsmMsg),
}

/// Classify a message received while a fetch for (`want_page`, `req_id`)
/// is outstanding.
pub(crate) fn classify_reply(msg: DsmMsg, want_page: PageId, req_id: u64) -> ReplyClass {
    match msg {
        DsmMsg::DiffReply { page, diffs, req_id: rid } if rid == req_id => {
            debug_assert_eq!(page, want_page);
            ReplyClass::Matching(diffs)
        }
        DsmMsg::DiffReply { .. } => ReplyClass::Stale,
        other => ReplyClass::Other(other),
    }
}

impl DsmNode {
    /// Handle a read fault: fetch the missing diffs, apply them, validate.
    /// Inside a replicated section the fault goes through the RSE multicast
    /// protocol instead of the parallel per-owner requests.
    pub(crate) fn read_fault(&self, p: PageId) -> Result<(), Stopped> {
        let node = self.node();
        self.topo.stats.on_page_fault(node);
        self.ctx.charge(self.st.lock().cfg.fault_overhead);
        let in_rse = self.st.lock().rse.active;
        if in_rse {
            strategy::rse::fetch_replicated(self, p)
        } else {
            self.fetch_normal(p)
        }
    }

    /// Ordinary lazy-release-consistency fetch: request each missing diff
    /// from its writer, in parallel (§5.4.3: "With normal sequential
    /// execution, all missing diffs for a page are requested in parallel").
    fn fetch_normal(&self, p: PageId) -> Result<(), Stopped> {
        let node = self.node();
        let t0 = self.ctx.now();
        let mut requested = false;
        loop {
            // New write notices can arrive while we wait for replies (our
            // handler keeps merging barrier/lock traffic into the shared
            // state), so the plan is recomputed — and the final apply is
            // atomic with the completeness check — until it converges.
            let (plan, req_id) = {
                let mut st = self.st.lock();
                let plan = st.fetch_plan(p);
                if plan.is_empty() {
                    let cost = st.apply_cached_diffs(p);
                    drop(st);
                    self.ctx.charge(cost);
                    break;
                }
                (plan, st.fresh_req_id())
            };
            requested = true;
            // The plan's owners still owing a reply. Resends repeat an
            // outstanding owner's original interval list.
            let mut outstanding = plan;
            let request = |(owner, ivxs): &(NodeId, Vec<u32>)| {
                debug_assert_ne!(*owner, node, "own diffs are always cached");
                let msg = DsmMsg::DiffRequest {
                    page: p,
                    ivxs: ivxs.clone(),
                    reply_to: self.ctx.pid(),
                    req_id,
                };
                let size = msg.wire_size();
                self.nic.unicast(
                    &self.ctx,
                    *owner,
                    self.topo.handler_pids[*owner],
                    MsgClass::DiffRequest,
                    size,
                    msg,
                );
            };
            outstanding.iter().for_each(request);
            // The unicast transport is logically reliable (TreadMarks ran
            // its own reliability layer over UDP): when loss injection is
            // allowed to touch diff frames, that layer is this resend loop.
            let mut timer = RetryTimer::from_cfg(&self.st.lock().cfg);
            while !outstanding.is_empty() {
                let env = match timer.recv(&self.ctx, |retries| {
                    format!(
                        "node {node}: diff fetch for page {p} incomplete after \
                         {retries} resends (owners still outstanding: {outstanding:?})"
                    )
                })? {
                    Some(env) => env,
                    None => {
                        outstanding.iter().for_each(request);
                        continue;
                    }
                };
                match classify_reply(env.msg, p, req_id) {
                    ReplyClass::Matching(diffs) => {
                        // A reply from a pid that is not a protocol handler
                        // is a straggler from a *retired* exchange (e.g. an
                        // RSE out-of-band reply sent by an app process whose
                        // req_seq collides with our req_id): the sender, not
                        // the id, proves it cannot answer this fetch. Absorb
                        // it like any other stale duplicate instead of
                        // killing the node.
                        let Some(owner) = self.topo.node_of_handler(env.from) else {
                            self.topo.stats.on_stale_reply(node);
                            continue;
                        };
                        let mut st = self.st.lock();
                        st.cache_diffs(p, &diffs);
                        outstanding.retain(|e| e.0 != owner);
                    }
                    ReplyClass::Stale => {
                        // Reply to an aborted fetch: count it, drop it.
                        self.topo.stats.on_stale_reply(node);
                    }
                    ReplyClass::Other(other) => {
                        if !self.absorb_stray(other) {
                            panic!("node {node}: unexpected message while fetching page {p}");
                        }
                    }
                }
            }
        }
        if requested {
            let waited = self.ctx.now() - t0;
            self.topo.stats.on_diff_stall(node, waited);
            self.topo.stats.on_diff_request_complete(node, waited);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::diff::Diff;
    use crate::page::DiffRecord;

    fn reply(page: PageId, req_id: u64) -> DsmMsg {
        let rec = Arc::new(DiffRecord { owner: 1, covers: vec![1], diff: Diff::default() });
        DsmMsg::DiffReply { page, diffs: vec![rec], req_id }
    }

    /// The PR-2 deadlock fix depends on resent requests reusing the same
    /// req_id and duplicate replies being dropped: a reply carrying any
    /// other id is stale, whatever page it names.
    #[test]
    fn stale_replies_are_absorbed_not_matched() {
        // The reply to the outstanding request matches.
        assert!(
            matches!(classify_reply(reply(7, 3), 7, 3), ReplyClass::Matching(d) if d.len() == 1)
        );
        // A duplicate of an *earlier* fetch's reply (old req_id) is stale —
        // even for the same page.
        assert!(matches!(classify_reply(reply(7, 2), 7, 3), ReplyClass::Stale));
        // A reply to a later, aborted fetch likewise.
        assert!(matches!(classify_reply(reply(9, 99), 7, 3), ReplyClass::Stale));
        // Non-reply traffic is handed back for stray absorption.
        assert!(matches!(
            classify_reply(DsmMsg::WakePage { page: 7 }, 7, 3),
            ReplyClass::Other(DsmMsg::WakePage { page: 7 })
        ));
    }

    /// The retry budget counts unproductive rounds and panics with the
    /// caller's diagnostic once exhausted.
    #[test]
    #[should_panic(expected = "gave up after 2")]
    fn retry_budget_is_enforced() {
        let cfg = DsmConfig { rse_max_retries: 2, ..DsmConfig::default() };
        let mut timer = RetryTimer::from_cfg(&cfg);
        timer.note_retry(|_| unreachable!());
        timer.note_retry(|_| unreachable!());
        timer.note_retry(|max| format!("gave up after {max}"));
    }

    /// The resend discipline `fetch_normal` composes out of [`RetryTimer`]
    /// and [`classify_reply`], driven end to end in a scripted simulation:
    ///
    /// * back-to-back timeouts each resend with the **same** `req_id` as the
    ///   original request (the PR-2 deadlock fix);
    /// * the duplicate reply produced by a resend race is classified stale
    ///   by a *later* fetch and absorbed without consuming retry budget;
    /// * each timeout advances virtual time by exactly the configured wait,
    ///   so event-queue restructuring that reordered the deadline wake
    ///   against the late reply would surface here.
    #[test]
    fn back_to_back_timeouts_reuse_req_id_and_later_fetch_absorbs_the_duplicate() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Mutex as StdMutex;

        use repseq_sim::{Sim, SimTime};

        let cfg = DsmConfig {
            rse_timeout: Dur::from_micros(100),
            rse_max_retries: 5,
            ..DsmConfig::default()
        };
        let seen_req_ids = Arc::new(StdMutex::new(Vec::<u64>::new()));
        let stale_absorbed = Arc::new(AtomicU32::new(0));
        let mut sim = Sim::<DsmMsg>::new();

        // Pid 0: the faulting node's fetch loop, two fetch rounds.
        let cfg_f = cfg.clone();
        let stale_f = Arc::clone(&stale_absorbed);
        sim.spawn("fetcher", move |ctx| {
            let request = |ctx: &repseq_sim::Ctx<DsmMsg>, req_id: u64| {
                let msg = DsmMsg::DiffRequest { page: 7, ivxs: vec![1], reply_to: 0, req_id };
                ctx.send(1, msg, ctx.now());
            };
            let fetch = |req_id: u64| -> Result<(u32, SimTime), Stopped> {
                let t0 = ctx.now();
                request(&ctx, req_id);
                let mut timer = RetryTimer::from_cfg(&cfg_f);
                let mut resends = 0u32;
                loop {
                    let env = match timer.recv(&ctx, |r| format!("fetch gave up after {r}"))? {
                        Some(env) => env,
                        None => {
                            // Unproductive round: resend, reusing req_id.
                            resends += 1;
                            request(&ctx, req_id);
                            continue;
                        }
                    };
                    match classify_reply(env.msg, 7, req_id) {
                        ReplyClass::Matching(diffs) => {
                            assert_eq!(diffs.len(), 1);
                            break Ok((resends, env.at.max(t0)));
                        }
                        ReplyClass::Stale => {
                            stale_f.fetch_add(1, Ordering::SeqCst);
                        }
                        ReplyClass::Other(m) => panic!("unexpected message {}", m.kind()),
                    }
                }
            };
            // Round A: the owner stays silent through two full timeouts.
            let start = ctx.now();
            let (resends_a, _) = fetch(1)?;
            assert_eq!(resends_a, 2, "two back-to-back timeouts, two resends");
            assert!(
                ctx.now() >= start + cfg_f.rse_timeout * 2,
                "each timeout must wait the configured interval"
            );
            // Round B: completes despite the round-A duplicate landing first.
            let (resends_b, _) = fetch(2)?;
            assert_eq!(resends_b, 0, "round B reply arrives before its deadline");
            Ok(())
        });

        // Pid 1: a scripted owner. Ignores the first two requests (forcing
        // the back-to-back timeouts), then answers the second resend twice —
        // the duplicate is timed to land in the middle of fetch round B.
        let seen = Arc::clone(&seen_req_ids);
        sim.spawn_daemon("owner", move |ctx| {
            let mut n_requests = 0u32;
            while let Ok(env) = ctx.recv() {
                let DsmMsg::DiffRequest { page, reply_to, req_id, .. } = env.msg else {
                    panic!("owner expected only requests");
                };
                seen.lock().unwrap().push(req_id);
                n_requests += 1;
                match n_requests {
                    1 | 2 => { /* silent: let the fetcher time out */ }
                    3 => {
                        // Reply to the second resend, plus the duplicate the
                        // resend race produces; the duplicate arrives after
                        // round A completed and round B began.
                        ctx.send(reply_to, reply(page, req_id), ctx.now() + Dur::from_micros(10));
                        ctx.send(reply_to, reply(page, req_id), ctx.now() + Dur::from_micros(30));
                    }
                    4 => {
                        ctx.send(reply_to, reply(page, req_id), ctx.now() + Dur::from_micros(50));
                    }
                    n => panic!("unexpected request #{n}"),
                }
            }
            Ok(())
        });

        sim.run().unwrap();
        assert_eq!(
            *seen_req_ids.lock().unwrap(),
            vec![1, 1, 1, 2],
            "resends must reuse the original req_id; the second fetch gets a fresh one"
        );
        assert_eq!(
            stale_absorbed.load(Ordering::SeqCst),
            1,
            "round B must absorb exactly the one stale duplicate from round A"
        );
    }

    /// Regression: a `DiffReply` whose `req_id` collides with the
    /// outstanding fetch but whose *sender* is not a protocol handler — a
    /// straggler from a retired exchange, such as an RSE out-of-band reply
    /// sent by an application process — used to kill the node with
    /// `expect("diff reply from unknown handler")`. It must be absorbed and
    /// counted instead. The retry timeout is set below the request/reply
    /// round trip, so every genuine reply is also delayed past at least one
    /// `RetryTimer` resend and the resend duplicates are absorbed
    /// downstream of the fetch.
    #[test]
    fn matching_reply_from_unknown_sender_is_absorbed_not_fatal() {
        use repseq_stats::Stats;

        use crate::cluster::{AppFn, Cluster, ClusterConfig};
        use crate::shmem::ShArray;

        let n = 2;
        let stats = Stats::new(n);
        let mut cfg = ClusterConfig::paper(n);
        // Below the ~200 us unicast round trip: the fetch times out and
        // resends before any genuine reply can arrive.
        cfg.dsm.rse_timeout = Dur::from_micros(60);
        cfg.dsm.rse_max_retries = 30;
        let mut cl = Cluster::new(cfg, std::sync::Arc::clone(&stats));
        let x: ShArray<u64> = cl.alloc_array_page_aligned(8);

        let master: AppFn = Box::new(move |node| {
            node.barrier()?;
            // Fetches node 1's write; the forged reply (below) is already
            // queued or in flight and is consumed inside this fetch loop.
            assert_eq!(x.get(&node, 0)?, 42);
            node.barrier()?;
            // Drain the resend-race duplicates so they are absorbed while
            // the process is still alive.
            while let Some(env) = node.ctx().recv_timeout(Dur::from_millis(2))? {
                assert!(node.absorb_stray(env.msg), "only strays expected after the run");
            }
            Ok(())
        });
        let writer: AppFn = Box::new(move |node| {
            x.set(&node, 0, 42)?;
            node.barrier()?;
            // Forge the straggler: a reply for the page the master is about
            // to fetch, carrying the colliding req_id 1, sent from this
            // *application* pid (pid 3 — not in handler_pids).
            let page = (x.addr(0) / node.page_size() as u64) as PageId;
            let msg = DsmMsg::DiffReply { page, diffs: Vec::new(), req_id: 1 };
            // The raw send bypasses the network model, so it must respect
            // the conservative-lookahead contract itself: a cross-node
            // delivery under the minimum cross-node latency (~45 us here)
            // trips the kernel's debug assertion. 60 us clears it and
            // still lands inside the master's ~200 us fetch window.
            node.ctx().send(2, msg, node.ctx().now() + Dur::from_micros(60));
            node.barrier()?;
            Ok(())
        });
        cl.launch(vec![master, writer]).expect("forged reply must not kill the fetch");

        let stale = stats.snapshot().total_agg_with_startup().stale_replies;
        assert!(
            stale >= 2,
            "expected the forged reply plus at least one resend duplicate to be \
             absorbed and counted, got {stale}"
        );
    }
}
