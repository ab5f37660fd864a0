//! The fetch layer: demand diff fetching with the request/reply protocol
//! and the shared timeout/resend machinery.
//!
//! Both fetch paths — the ordinary parallel-section fetch below and the
//! replicated-section fetch in [`crate::strategy::rse`] — sit on the same
//! retry discipline: count a retry on every unproductive wakeup, and fail
//! loudly with full diagnostics once the budget is exhausted (an
//! unconverged fetch points at a protocol bug or a dead peer, not bad
//! luck). [`RetryTimer`] is that shared discipline; a stale reply is
//! absorbed by the rule of the one receive every wait goes through,
//! [`DsmNode::recv_until`]. The replicated fetch waits the fixed
//! `rse_timeout`; the parallel fetch's timer is RFC 6298's: it starts from
//! the node's learned fetch time and doubles on every timeout, so a reply
//! that is slow, not lost, is not asked for again and again. A timeout
//! before any owner has answered resends to the first outstanding owner
//! only, a probe (RFC 6298 §5.4 retransmits the earliest unacknowledged
//! segment, not the window); one after an answer resends to every owner
//! still outstanding.

use repseq_sim::{Dur, Stopped};
use repseq_stats::{MsgClass, NodeId};

use crate::config::DsmConfig;
use crate::exec::{Step, Waiting};
use crate::interval::PageId;
use crate::msg::DsmMsg;
use crate::runtime::DsmNode;
use crate::strategy;

/// Request-id state and the retransmission timer's estimates for demand
/// fetches.
#[derive(Default)]
pub(crate) struct FetchState {
    /// Sequence numbers for demand diff requests.
    pub(crate) next_req_id: u64,
    /// Smoothed fetch time and its mean deviation (RFC 6298's SRTT and
    /// RTTVAR), `None` until the first fetch completes.
    rtt: Option<(Dur, Dur)>,
}

impl FetchState {
    /// A fetch's first wait: `SRTT + 4·RTTVAR`, never below `floor`.
    fn first_wait(&self, floor: Dur) -> Dur {
        self.rtt.map_or(floor, |(srtt, rttvar)| floor.max(srtt + rttvar * 4))
    }

    /// Fold a completed fetch's duration `r` into the estimates: the first
    /// sets `SRTT = r`, `RTTVAR = r/2`; later ones move them by 1/8 and 1/4.
    fn sample(&mut self, r: Dur) {
        self.rtt = Some(match self.rtt {
            None => (r, r / 2),
            Some((srtt, rttvar)) => {
                let dev = Dur::from_nanos(srtt.nanos().abs_diff(r.nanos()));
                (srtt - srtt / 8 + r / 8, rttvar - rttvar / 4 + dev / 4)
            }
        });
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

    /// The current wait, in virtual time.
    pub(crate) fn timeout(&self) -> Dur {
        self.timeout
    }

    /// A wait timed out with nothing to show for it: record a retry — the
    /// caller resends — and double the next wait (saturating). `describe`
    /// renders the panic diagnostic if the budget is exhausted.
    pub(crate) fn timed_out(&mut self, describe: impl FnOnce(u32) -> String) {
        self.note_retry(describe);
        self.timeout = Dur::from_nanos(self.timeout.nanos().saturating_mul(2));
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
                self.to_handler(*owner, MsgClass::DiffRequest, msg);
            };
            outstanding.iter().for_each(request);
            // The unicast transport is logically reliable (TreadMarks ran
            // its own reliability layer over UDP): when loss injection is
            // allowed to touch diff frames, that layer is this resend loop.
            let mut timer = {
                let st = self.st.lock();
                let timeout = st.fetch.first_wait(st.cfg.rse_timeout);
                RetryTimer { timeout, ..RetryTimer::from_cfg(&st.cfg) }
            };
            // Until some owner answers, silence is more likely a queue at
            // the owners than loss: a timeout probes the first outstanding
            // owner only. Once one has answered, it resends to all.
            let mut heard = false;
            while !outstanding.is_empty() {
                // Only this fetch's reply is taken. A reply carrying another
                // id answers an earlier fetch (the resend layer's duplicate
                // whose original won the race); one from a pid that is not
                // a protocol handler is a straggler from a *retired*
                // exchange (e.g. an RSE out-of-band reply sent by an app
                // process whose req_seq collides with our req_id) — the
                // sender, not the id, proves it cannot answer this fetch.
                // Both are handed back, and counted stale.
                let reply =
                    self.recv_until(Waiting::Fetch(p), Some(timer.timeout()), |env| {
                        match (env.msg, self.topo.node_of_handler(env.from)) {
                            (DsmMsg::DiffReply { page, diffs, req_id: rid }, Some(owner))
                                if rid == req_id =>
                            {
                                debug_assert_eq!(page, p);
                                Step::Done((owner, diffs))
                            }
                            (other, _) => Step::Other(other),
                        }
                    })?;
                let Some((owner, diffs)) = reply else {
                    timer.timed_out(|retries| {
                        format!(
                            "node {node}: diff fetch for page {p} incomplete after \
                             {retries} resends (owners still outstanding: {outstanding:?})"
                        )
                    });
                    let probe = if heard { outstanding.len() } else { 1 };
                    outstanding[..probe].iter().for_each(request);
                    continue;
                };
                self.st.lock().cache_diffs(p, &diffs);
                outstanding.retain(|e| e.0 != owner);
                heard = true;
            }
        }
        if requested {
            let waited = self.ctx.now() - t0;
            self.st.lock().fetch.sample(waited);
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

    /// RFC 6298's estimator: the first fetch time R sets the next wait to
    /// R + 4·R/2, later ones move SRTT by 1/8 and RTTVAR by 1/4 of their
    /// error, and the configured timeout is the floor.
    #[test]
    fn the_first_wait_learns_the_fetch_time() {
        let ms = Dur::from_millis;
        let mut f = FetchState::default();
        assert_eq!(f.first_wait(ms(500)), ms(500));
        f.sample(ms(400));
        assert_eq!(f.first_wait(ms(500)), ms(1200));
        f.sample(ms(800)); // SRTT 400 + 50 = 450, RTTVAR 200 - 50 + 100 = 250
        assert_eq!(f.first_wait(ms(500)), ms(1450));
        assert_eq!(f.first_wait(ms(2000)), ms(2000));
    }

    /// The resend discipline `fetch_normal` composes out of [`RetryTimer`]
    /// and its `req_id` match, driven end to end in a scripted simulation:
    ///
    /// * back-to-back timeouts each resend with the **same** `req_id` as the
    ///   original request (the PR-2 deadlock fix);
    /// * the duplicate reply produced by a resend race is not taken by a
    ///   *later* fetch and is absorbed without consuming retry budget;
    /// * the first timeout waits exactly the configured interval and the
    ///   second twice that (the backoff), so event-queue restructuring that
    ///   reordered the deadline wake against the late reply would surface
    ///   here.
    #[test]
    fn back_to_back_timeouts_reuse_req_id_and_later_fetch_absorbs_the_duplicate() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Mutex as StdMutex;

        use repseq_sim::Sim;

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
            // The offsets from the fetch's start at which it resent.
            let fetch = |req_id: u64| -> Result<Vec<Dur>, Stopped> {
                let t0 = ctx.now();
                request(&ctx, req_id);
                let mut timer = RetryTimer::from_cfg(&cfg_f);
                let mut resent_at = Vec::new();
                loop {
                    let Some(env) = ctx.recv_timeout(timer.timeout())? else {
                        // Unproductive round: resend, reusing req_id.
                        timer.timed_out(|r| format!("fetch gave up after {r}"));
                        resent_at.push(ctx.now() - t0);
                        request(&ctx, req_id);
                        continue;
                    };
                    match env.msg {
                        DsmMsg::DiffReply { diffs, req_id: rid, .. } if rid == req_id => {
                            assert_eq!(diffs.len(), 1);
                            break Ok(resent_at);
                        }
                        DsmMsg::DiffReply { .. } => {
                            stale_f.fetch_add(1, Ordering::SeqCst);
                        }
                        m => panic!("unexpected message {}", m.kind()),
                    }
                }
            };
            // Round A: the owner stays silent through two timeouts, the
            // first of the configured 100 us, the second backed off to 200.
            let wait = cfg_f.rse_timeout;
            assert_eq!(fetch(1)?, vec![wait, wait * 3], "waits of 100 us, then 200 us");
            // Round B: completes despite the round-A duplicate landing first.
            assert_eq!(fetch(2)?, vec![], "round B reply arrives before its deadline");
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
}
