//! The execution layer: the one receive every application-side wait goes
//! through, fork/join plumbing (Tmk_fork / Tmk_join), the slave scheduler
//! loop, parallel sections, and the hand-inserted page broadcast used by
//! the `MasterOnlyBroadcast` ablation and the `MasterPush` strategy.

use std::fmt;
use std::sync::Arc;

use repseq_sim::{Dur, Envelope, Stopped};
use repseq_stats::{MsgClass, NodeId};

use crate::interval::{IntervalRecord, PageId};
use crate::msg::DsmMsg;
use crate::race::SyncEdge;
use crate::runtime::DsmNode;
use crate::vc::Vc;

/// What a node is waiting for when a message arrives, as a protocol
/// violation names it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Waiting {
    Barrier,
    Lock(u32),
    Fetch(PageId),
    Multicast(PageId),
    Parked,
    Joins,
    ValidNotices,
    SeqDone,
    SeqGo,
    /// The protocol handler, between requests.
    Handler,
}

impl fmt::Display for Waiting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Waiting::Barrier => write!(f, "at a barrier"),
            Waiting::Lock(l) => write!(f, "while acquiring lock {l}"),
            Waiting::Fetch(p) => write!(f, "while fetching page {p}"),
            Waiting::Multicast(p) => write!(f, "waiting for multicast diffs of page {p}"),
            Waiting::Parked => write!(f, "while parked"),
            Waiting::Joins => write!(f, "while joining"),
            Waiting::ValidNotices => write!(f, "during the valid-notice exchange"),
            Waiting::SeqDone => write!(f, "ending a replicated section"),
            Waiting::SeqGo => write!(f, "awaiting SeqGo"),
            Waiting::Handler => write!(f, "in the protocol handler"),
        }
    }
}

/// What a wait makes of one message (see [`DsmNode::recv_until`]).
pub(crate) enum Step<T> {
    /// The message ends the wait with this value.
    Done(T),
    /// The message was consumed; keep waiting.
    Wait,
    /// Not this wait's message: the shared straggler rule decides.
    Other(DsmMsg),
}

/// The one place a message that no wait-state accepts stops a node. Only
/// a protocol bug (or a forged message) gets here: every straggler the
/// lossy transport and the resend layer can produce is absorbed by the
/// rule in [`DsmNode::recv_until`].
pub(crate) fn protocol_violation(node: NodeId, waiting: Waiting, msg: &DsmMsg) -> ! {
    panic!("node {node}: unexpected {} {waiting}", msg.kind())
}

/// Fork/join bookkeeping (master side, plus what each node knows the
/// master knows).
pub(crate) struct ExecState {
    /// Master: last known vector time of each node, from joins.
    pub(crate) peer_vcs: Vec<Vc>,
    /// What the master/barrier manager is known to know (from the last
    /// fork or barrier departure); arrivals and joins send only records
    /// beyond this.
    pub(crate) master_known: Vc,
    /// Joins that arrived while the master was blocked on something else
    /// (e.g. its own page fault); consumed by `wait_joins`.
    pub(crate) pending_joins: Vec<(usize, Vc, Vec<IntervalRecord>)>,
    /// SeqDone signals that arrived early, likewise.
    pub(crate) pending_seqdone: usize,
}

impl ExecState {
    pub(crate) fn new(n: usize) -> ExecState {
        ExecState {
            peer_vcs: vec![Vc::zero(n); n],
            master_known: Vc::zero(n),
            pending_joins: Vec::new(),
            pending_seqdone: 0,
        }
    }
}

/// A task function shipped at a fork — the analogue of the
/// compiler-generated parallel-region subroutine whose pointer TreadMarks
/// passes to the slaves (§2.3).
pub type TaskFn = dyn Fn(&DsmNode) -> Result<(), Stopped> + Send + Sync;

/// What a fork ships, and how the slave runs it. TreadMarks' fork message
/// carries "a subroutine to be executed, its arguments, and some
/// additional information" (§2.3); here that information is the variant.
#[derive(Clone)]
pub enum Task {
    /// Run the body as this slave's share of a parallel section, then join.
    Parallel(Arc<TaskFn>),
    /// Run the body as a replicated sequential section (§5.2).
    Replicated(Arc<TaskFn>),
    /// Terminate the slave's scheduler loop (end of program).
    Shutdown,
}

impl DsmNode {
    /// The one receive of every application-side wait. Each message is
    /// offered to `take` first. One it hands back is a straggler, which the
    /// lossy transport and the resend layer can land in any wait, and one
    /// rule absorbs it: an early join or SeqDone from a fast slave is
    /// buffered for `wait_joins` / `end_replicated_master`, a page wakeup
    /// is dropped, and a diff reply is counted stale (a fetch's `take`
    /// accepts its own reply, so any other is a duplicate whose original
    /// won the race). Anything else is a [`protocol_violation`]. `None`
    /// means `timeout` passed with no message; each message restarts the
    /// full `timeout`.
    pub(crate) fn recv_until<T>(
        &self,
        waiting: Waiting,
        timeout: Option<Dur>,
        mut take: impl FnMut(Envelope<DsmMsg>) -> Step<T>,
    ) -> Result<Option<T>, Stopped> {
        loop {
            let env = match timeout {
                None => self.ctx.recv()?,
                Some(d) => match self.ctx.recv_timeout(d)? {
                    Some(env) => env,
                    None => return Ok(None),
                },
            };
            match take(env) {
                Step::Done(v) => return Ok(Some(v)),
                Step::Wait | Step::Other(DsmMsg::WakePage { .. }) => {}
                Step::Other(DsmMsg::Join { from, vc, records }) => {
                    self.st.lock().exec.pending_joins.push((from, vc, records))
                }
                Step::Other(DsmMsg::SeqDone { .. }) => self.st.lock().exec.pending_seqdone += 1,
                Step::Other(DsmMsg::DiffReply { .. }) => {
                    self.topo.stats.on_stale_reply(self.node())
                }
                Step::Other(msg) => protocol_violation(self.node(), waiting, &msg),
            }
        }
    }

    /// [`DsmNode::recv_until`] with no deadline.
    pub(crate) fn recv_for<T>(
        &self,
        waiting: Waiting,
        take: impl FnMut(Envelope<DsmMsg>) -> Step<T>,
    ) -> Result<T, Stopped> {
        let v = self.recv_until(waiting, None, take)?;
        Ok(v.expect("a wait with no deadline ends only with a value"))
    }

    /// Master: fork `task` to every slave, shipping each the interval
    /// records it lacks.
    pub fn fork_slaves(&self, task: Task) -> Result<(), Stopped> {
        assert!(self.is_master(), "only the master forks");
        let n = self.topo.n;
        self.race_sync(SyncEdge::ForkSend);
        self.st.lock().close_interval();
        for s in 1..n {
            let msg = {
                let mut st = self.st.lock();
                let records = st.con.intervals.records_unknown_to(&st.exec.peer_vcs[s]);
                let vc = st.con.vc.clone();
                st.exec.peer_vcs[s] = vc.clone();
                DsmMsg::Fork { records, vc, task: task.clone() }
            };
            let size = msg.wire_size();
            self.nic.unicast(&self.ctx, s, self.topo.app_pids[s], MsgClass::Sync, size, msg);
        }
        self.ctx.charge(self.sync_cost());
        Ok(())
    }

    /// Slave: park until the master forks a task, and return it.
    /// Valid-notice requests (the exchange preceding a replicated section)
    /// are answered transparently while parked.
    fn wait_fork(&self) -> Result<Task, Stopped> {
        let node = self.node();
        self.recv_for(Waiting::Parked, |env| match env.msg {
            DsmMsg::Fork { records, vc, task } => {
                let cost = {
                    let mut st = self.st.lock();
                    let c = st.apply_records(records, &vc);
                    st.exec.master_known = vc;
                    c
                };
                self.ctx.charge(cost + self.sync_cost());
                self.race_sync(SyncEdge::ForkRecv);
                Step::Done(task)
            }
            DsmMsg::ValidNoticeRequest { reply_to } => {
                let msg = {
                    let mut st = self.st.lock();
                    DsmMsg::ValidNoticeReply { from: node, delta: st.take_valid_delta() }
                };
                let size = msg.wire_size();
                self.ctx.charge(self.sync_cost());
                self.nic.unicast(&self.ctx, 0, reply_to, MsgClass::ValidNotice, size, msg);
                Step::Wait
            }
            other => Step::Other(other),
        })
    }

    /// Slave: signal completion of the forked task to the master, shipping
    /// the interval records the master lacks.
    pub fn join_master(&self) -> Result<(), Stopped> {
        assert!(!self.is_master());
        let node = self.node();
        self.race_sync(SyncEdge::JoinSend);
        let msg = {
            let mut st = self.st.lock();
            st.close_interval();
            let records = st.con.intervals.records_unknown_to(&st.exec.master_known);
            DsmMsg::Join { from: node, vc: st.con.vc.clone(), records }
        };
        self.ctx.charge(self.sync_cost());
        let size = msg.wire_size();
        self.nic.unicast(&self.ctx, 0, self.topo.app_pids[0], MsgClass::Sync, size, msg);
        Ok(())
    }

    /// Master: wait for every slave's join and merge their consistency
    /// information. Joins that arrived while the master was blocked
    /// elsewhere (buffered by the receive's straggler rule) are consumed
    /// first.
    pub fn wait_joins(&self) -> Result<(), Stopped> {
        assert!(self.is_master());
        let buffered = {
            let mut st = self.st.lock();
            st.close_interval();
            std::mem::take(&mut st.exec.pending_joins)
        };
        let join = |(from, vc, records): (NodeId, Vc, Vec<IntervalRecord>)| {
            let cost = {
                let mut st = self.st.lock();
                let c = st.apply_records(records, &vc);
                st.exec.peer_vcs[from] = vc;
                c
            };
            self.ctx.charge(cost + self.sync_cost());
            self.race_sync(SyncEdge::JoinRecv { from });
        };
        let pending = self.topo.n - 1 - buffered.len();
        buffered.into_iter().for_each(&join);
        for _ in 0..pending {
            join(self.recv_for(Waiting::Joins, |env| match env.msg {
                DsmMsg::Join { from, vc, records } => Step::Done((from, vc, records)),
                other => Step::Other(other),
            })?);
        }
        Ok(())
    }

    pub(crate) fn sync_cost(&self) -> Dur {
        self.st.lock().cfg.sync_overhead
    }

    // ---------------------------------------------------------------
    // High-level Tmk-style section helpers
    // ---------------------------------------------------------------

    /// Slave scheduler loop: park, run the forked task as it says, repeat
    /// — until the master ships [`Task::Shutdown`]. This is the whole life
    /// of a TreadMarks slave (§2.2.1).
    pub fn slave_loop(&self) -> Result<(), Stopped> {
        assert!(!self.is_master());
        loop {
            match self.wait_fork()? {
                Task::Shutdown => return Ok(()),
                Task::Parallel(f) => {
                    f(self)?;
                    self.join_master()?;
                }
                Task::Replicated(f) => {
                    self.enter_replicated();
                    f(self)?;
                    self.end_replicated_slave()?;
                }
            }
        }
    }

    /// Master: run `f` as a parallel section on every node (fork, execute
    /// the master's share, join).
    pub fn run_parallel(
        &self,
        f: impl Fn(&DsmNode) -> Result<(), Stopped> + Send + Sync + 'static,
    ) -> Result<(), Stopped> {
        assert!(self.is_master());
        let body: Arc<TaskFn> = Arc::new(f);
        self.fork_slaves(Task::Parallel(Arc::clone(&body)))?;
        body(self)?;
        self.wait_joins()
    }

    /// Master: terminate every slave's scheduler loop (end of program).
    pub fn shutdown_slaves(&self) -> Result<(), Stopped> {
        self.fork_slaves(Task::Shutdown)
    }

    /// Master: multicast the current contents of `pages` to every node (the
    /// hand-inserted broadcast of §6.1.2 — used to isolate contention
    /// elimination from the benefit of replicating the sequential
    /// computation). Closes the current interval first so receivers' copies
    /// cover the just-finished sequential section's write notices and are
    /// not re-invalidated at the following fork.
    pub fn broadcast_pages(&self, pages: impl IntoIterator<Item = PageId>) -> Result<(), Stopped> {
        assert!(self.is_master(), "only the master broadcasts");
        self.st.lock().close_interval();
        let mut last_delivery = self.ctx.now();
        let mut sent = 0u64;
        for p in pages {
            let msg = {
                let mut st = self.st.lock();
                // Only pages we hold a complete, valid copy of are worth
                // broadcasting (the tree pages after a sequential build).
                let valid = st.page_mut(p).valid;
                if !valid {
                    continue;
                }
                // The broadcast re-baselines every receiver's copy at the
                // just-closed interval, so our lazy-diff baseline must move
                // there too: flush any still-twinned writes into their diff
                // now. Otherwise a later diff would be taken against the
                // pre-broadcast twin, and bytes that happen to match that
                // older baseline would be omitted — wrong for a receiver
                // whose base is the broadcast image, not the twin.
                if st.page_mut(p).twin.is_some() {
                    let cost = st.create_own_diff(p);
                    drop(st);
                    self.ctx.charge(cost);
                    st = self.st.lock();
                }
                let data: Arc<[u8]> = st.page_data(p).to_vec().into();
                DsmMsg::PageBroadcast { page: p, data, vc: st.con.vc.clone() }
            };
            let size = msg.wire_size();
            let dsts = &self.topo.all_handlers()[1..];
            let at = self.nic.multicast(&self.ctx, dsts, MsgClass::Broadcast, size, msg);
            last_delivery = last_delivery.max(at);
            sent += 1;
        }
        // Block until the broadcast has drained (the hub and the switch
        // are independent media; without this the following fork's records
        // would overtake the data and re-invalidate it at the receivers).
        let service = self.st.lock().cfg.service_overhead;
        let resume_at = last_delivery + service * (sent + 1);
        let now = self.ctx.now();
        if resume_at > now {
            self.ctx.sleep(resume_at - now)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one diagnostic names the node, what it was waiting for and the
    /// message no wait-state accepts.
    #[test]
    #[should_panic(expected = "node 3: unexpected SeqGo while acquiring lock 5")]
    fn a_protocol_violation_names_the_wait_state() {
        protocol_violation(3, Waiting::Lock(5), &DsmMsg::SeqGo)
    }
}
