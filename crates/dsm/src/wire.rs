//! The one send path of the protocol. A frame names its destination node,
//! or a group of nodes, and its message; the message decides the rest: the
//! process that serves it, its class and its size (see [`crate::msg`]).
//! Whether a copy may be lost is the network's rule, by class.

use std::sync::Arc;

use repseq_net::Nic;
use repseq_sim::{Pid, SendCtx, SimTime};
use repseq_stats::{NodeId, StatsRef};

use crate::msg::DsmMsg;
use crate::race::RaceSink;

/// Cluster wiring shared by every process. Handlers take pids `0..n` and
/// applications `n..2n`, so node ↔ pid is arithmetic in either direction.
pub(crate) struct Topology {
    pub n: usize,
    /// `(node, pid)` of every process, indexed by pid: a hub frame's
    /// destinations are a slice of it.
    procs: Vec<(NodeId, Pid)>,
    pub stats: StatsRef,
    /// Race-detection sink, if one was installed on the cluster.
    pub race: Option<Arc<dyn RaceSink>>,
}

impl Topology {
    pub(crate) fn new(n: usize, stats: StatsRef, race: Option<Arc<dyn RaceSink>>) -> Topology {
        Topology { n, procs: (0..2 * n).map(|pid| (pid % n, pid)).collect(), stats, race }
    }
}

/// The nodes a hub frame goes to: every node, the sender's own included
/// (IP-multicast loopback), or every node but the master.
pub(crate) enum Nodes {
    All,
    Slaves,
}

/// A node's end of the send path: its NIC and the cluster's wiring. The
/// application process and the protocol handler each hold one.
pub(crate) struct Wire {
    pub(crate) nic: Nic,
    pub(crate) topo: Arc<Topology>,
}

impl Wire {
    /// The node this end belongs to.
    pub(crate) fn node(&self) -> NodeId {
        self.nic.node()
    }

    /// The process of node `q` that serves `msg`.
    fn pid(&self, q: NodeId, msg: &DsmMsg) -> Pid {
        q + if msg.to_handler() { 0 } else { self.topo.n }
    }

    /// Send `msg` to node `q` through the switch, or, to a process of this
    /// node, deliver it at once with no network cost. A lock grant is the
    /// exception: to this node's application it loops back through the NIC
    /// and is counted (DESIGN.md §7).
    pub(crate) fn send(&self, ctx: &impl SendCtx<DsmMsg>, q: NodeId, msg: DsmMsg) {
        let pid = self.pid(q, &msg);
        if q == self.node() && !matches!(msg, DsmMsg::LockGrant { .. }) {
            self.nic.local(ctx, pid, msg);
        } else {
            let (class, size) = (msg.class(), msg.wire_size());
            self.nic.unicast(ctx, q, pid, class, size, msg);
        }
    }

    /// Send one hub frame to the process serving `msg` on each node of
    /// `to`. Returns its delivery time.
    pub(crate) fn multicast(&self, ctx: &impl SendCtx<DsmMsg>, to: Nodes, msg: DsmMsg) -> SimTime {
        let base = self.pid(0, &msg);
        let first = base + matches!(to, Nodes::Slaves) as usize;
        let dsts = &self.topo.procs[first..base + self.topo.n];
        let (class, size) = (msg.class(), msg.wire_size());
        self.nic.multicast(ctx, dsts, class, size, msg)
    }
}
