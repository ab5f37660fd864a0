//! The synchronization layer: the centralized barrier and the distributed
//! locks, on both the application side (blocking operations on `DsmNode`)
//! and the manager/holder side (the decision logic the handler process
//! runs).

use std::collections::{HashMap, HashSet, VecDeque};

use repseq_sim::Stopped;
use repseq_stats::NodeId;

use crate::exec::{Step, Waiting};
use crate::interval::IntervalRecord;
use crate::msg::DsmMsg;
use crate::race::SyncEdge;
use crate::runtime::DsmNode;
use crate::state::NodeState;
use crate::vc::Vc;

/// Barrier-manager and lock state.
pub(crate) struct SyncState {
    /// Barrier manager (node 0 only): arrivals of the current episode.
    pub(crate) barrier_arrivals: Vec<(NodeId, Vc)>,
    /// Locks whose token is at this node.
    pub(crate) lock_token: HashSet<u32>,
    /// Locks currently held by this node's application.
    pub(crate) lock_held: HashSet<u32>,
    /// Acquire requests waiting for this node to release: the requester
    /// and its vector time.
    pub(crate) lock_pending: HashMap<u32, VecDeque<(NodeId, Vc)>>,
    /// Manager-side: the node an acquire should be forwarded to.
    pub(crate) lock_last: HashMap<u32, NodeId>,
}

impl SyncState {
    pub(crate) fn new() -> SyncState {
        SyncState {
            barrier_arrivals: Vec::new(),
            lock_token: HashSet::new(),
            lock_held: HashSet::new(),
            lock_pending: HashMap::new(),
            lock_last: HashMap::new(),
        }
    }
}

/// What the handler should do with an incoming lock acquire.
pub(crate) enum LockAction {
    Queued,
    Forward(usize),
    Grant { records: Vec<IntervalRecord>, vc: Vc },
}

/// Lock logic at the node believed to hold the token.
pub(crate) fn holder_logic(s: &mut NodeState, lock: u32, from: usize, vc: &Vc) -> LockAction {
    if s.sync.lock_token.contains(&lock) && !s.sync.lock_held.contains(&lock) {
        s.sync.lock_token.remove(&lock);
        let records = s.con.intervals.records_unknown_to(vc);
        LockAction::Grant { records, vc: s.con.vc.clone() }
    } else {
        // Held by the local application, or the token is still in flight
        // to us: queue; the release path grants.
        s.sync.lock_pending.entry(lock).or_default().push_back((from, vc.clone()));
        LockAction::Queued
    }
}

impl DsmNode {
    // ---------------------------------------------------------------
    // Barriers (centralized manager at node 0's handler)
    // ---------------------------------------------------------------

    /// Global barrier: a release (interval close + arrival) followed by an
    /// acquire (departure records merged).
    pub fn barrier(&self) -> Result<(), Stopped> {
        let node = self.node();
        self.race_sync(SyncEdge::BarrierArrive);
        self.ctx.charge(self.sync_cost());
        {
            let mut st = self.ctx.state();
            st.close_interval();
            let records = st.con.intervals.records_unknown_to(&st.exec.master_known);
            self.send(0, DsmMsg::BarrierArrive { from: node, vc: st.con.vc.clone(), records });
        }
        let (records, vc) = self.recv_for(Waiting::Barrier, |env| match env.msg {
            DsmMsg::BarrierDepart { records, vc } => Step::Done((records, vc)),
            other => Step::Other(other),
        })?;
        let cost = {
            let mut st = self.ctx.state();
            let c = st.apply_records(records, &vc);
            st.exec.master_known = vc;
            c
        };
        self.ctx.charge(cost + self.sync_cost());
        self.race_sync(SyncEdge::BarrierDepart);
        Ok(())
    }

    // ---------------------------------------------------------------
    // Locks (static manager, distributed FIFO queue)
    // ---------------------------------------------------------------

    /// The node managing lock `l`.
    pub(crate) fn lock_manager(&self, l: u32) -> NodeId {
        (l as usize) % self.n_nodes()
    }

    /// Acquire a lock (an acquire access in release consistency).
    pub fn lock(&self, l: u32) -> Result<(), Stopped> {
        let node = self.node();
        let local = {
            let mut st = self.ctx.state();
            assert!(!st.sync.lock_held.contains(&l), "recursive lock acquire");
            if st.sync.lock_token.contains(&l) {
                // We were the last holder: re-acquire locally, no traffic,
                // no new consistency information.
                st.sync.lock_held.insert(l);
                true
            } else {
                false
            }
        };
        if local {
            // Still an acquire edge for the detector (it merges this
            // node's own release clock — a no-op for the HB relation).
            self.race_sync(SyncEdge::LockAcquire { lock: l });
            return Ok(());
        }
        let vc = self.ctx.state().con.vc.clone();
        self.ctx.charge(self.sync_cost());
        let msg = DsmMsg::LockAcquire { lock: l, from: node, vc, forwarded: false };
        self.send(self.lock_manager(l), msg);
        let (records, vc) = self.recv_for(Waiting::Lock(l), |env| match env.msg {
            DsmMsg::LockGrant { lock, records, vc } => {
                debug_assert_eq!(lock, l);
                Step::Done((records, vc))
            }
            other => Step::Other(other),
        })?;
        let cost = {
            let mut st = self.ctx.state();
            let c = st.apply_records(records, &vc);
            st.sync.lock_held.insert(l);
            st.sync.lock_token.insert(l);
            c
        };
        self.ctx.charge(cost + self.sync_cost());
        self.race_sync(SyncEdge::LockAcquire { lock: l });
        Ok(())
    }

    /// Release a lock (a release access: closes the interval). If another
    /// node's acquire is queued here, the grant — with the consistency
    /// information the acquirer lacks — goes straight to it.
    pub fn unlock(&self, l: u32) -> Result<(), Stopped> {
        // The release edge must be recorded before the grant can move the
        // lock anywhere else.
        self.race_sync(SyncEdge::LockRelease { lock: l });
        self.ctx.charge(self.sync_cost());
        let mut st = self.ctx.state();
        assert!(st.sync.lock_held.remove(&l), "releasing a lock we do not hold");
        st.close_interval();
        if let Some((from, vc)) = st.sync.lock_pending.get_mut(&l).and_then(|q| q.pop_front()) {
            st.sync.lock_token.remove(&l);
            let records = st.con.intervals.records_unknown_to(&vc);
            self.send(from, DsmMsg::LockGrant { lock: l, records, vc: st.con.vc.clone() });
        }
        Ok(())
    }
}
