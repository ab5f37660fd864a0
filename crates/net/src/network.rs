//! The shared interconnect: per-node switched links and the multicast hub.
//!
//! Contention is modeled with per-resource `free_at` times:
//!
//! * each node's transmit link serializes its outgoing unicast frames —
//!   this is where a master node answering a storm of diff requests
//!   bottlenecks;
//! * each node's receive port at the switch serializes incoming frames —
//!   this is where simultaneous requests converge;
//! * the hub is a single half-duplex medium shared by all multicast
//!   frames.
//!
//! The model matches §3's definition of contention: "the arrival of one or
//! more diff requests on a node before the diff in response to a previous
//! request has left the node" — responses queue on the transmit link, and
//! service time at the handler process (modeled in the DSM layer) adds to
//! the backlog.

use std::sync::Arc;

use parking_lot::Mutex;
use repseq_sim::{Dur, Pid, SendCtx, SimTime};
use repseq_stats::{MsgClass, NodeId, StatsRef};

use crate::config::NetConfig;
use crate::loss::LossState;

struct Links {
    /// When each node's transmit link becomes free.
    tx_free: Vec<SimTime>,
    /// When each node's switch output (receive) port becomes free.
    rx_free: Vec<SimTime>,
    /// When the hub becomes free.
    hub_free: SimTime,
}

/// One frame the loss injector decided to drop. The log lets a failing
/// torture schedule report the exact loss decision that triggered the
/// recovery path under test, instead of forcing a bisect over seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossEvent {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node whose copy was dropped (for multicast, one entry per
    /// affected destination).
    pub dst: NodeId,
    /// Per-(src, dst) frame sequence number the decision was keyed on.
    pub pair_seq: u64,
    /// Frame classification.
    pub class: MsgClass,
    /// Virtual time the frame would have been delivered at.
    pub at: SimTime,
    /// Whether the frame travelled on the hub (multicast) or the switch.
    pub multicast: bool,
}

/// The cluster interconnect. One per simulation; hand a [`Nic`] to each
/// node.
pub struct Network {
    cfg: NetConfig,
    links: Mutex<Links>,
    loss: Option<Mutex<LossState>>,
    drop_log: Mutex<Vec<LossEvent>>,
    stats: StatsRef,
}

impl Network {
    /// Build the interconnect described by `cfg`, reporting every frame to
    /// `stats`.
    pub fn new(cfg: NetConfig, stats: StatsRef) -> Arc<Network> {
        let n = cfg.nodes;
        Arc::new(Network {
            loss: cfg.loss.map(|l| Mutex::new(LossState::new(l))),
            cfg,
            links: Mutex::new(Links {
                tx_free: vec![SimTime::ZERO; n],
                rx_free: vec![SimTime::ZERO; n],
                hub_free: SimTime::ZERO,
            }),
            drop_log: Mutex::new(Vec::new()),
            stats,
        })
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Every frame the loss injector dropped so far, in canonical
    /// `(at, src, dst, pair_seq, multicast)` order. The decisions are
    /// deterministic (keyed per `(src, dst, medium)` frame counters) and on
    /// the simulator one process at a time appends them, so the log
    /// itself repeats run for run — but in *send* order, and a frame sent
    /// earlier can be delivered later (about one torture schedule in seven
    /// logs out of delivery order). Sorting by the decision key gives the
    /// delivery-time order reports are read in.
    pub fn loss_events(&self) -> Vec<LossEvent> {
        let mut log = self.drop_log.lock().clone();
        log.sort_by_key(|e| (e.at, e.src, e.dst, e.pair_seq, e.multicast));
        log
    }

    /// A handle for `node` to send through.
    pub fn nic(self: &Arc<Self>, node: NodeId) -> Nic {
        assert!(node < self.cfg.nodes, "node {node} out of range");
        Nic { node, net: Arc::clone(self) }
    }
}

/// A node's interface to the interconnect. Both simulated processes of a
/// node (application and protocol handler) send through the same `Nic`, so
/// they contend for the same transmit link — as they would on real
/// hardware.
#[derive(Clone)]
pub struct Nic {
    node: NodeId,
    net: Arc<Network>,
}

impl Nic {
    /// The node this NIC belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The interconnect configuration.
    pub fn config(&self) -> &NetConfig {
        self.net.config()
    }

    /// Send one unicast frame through the switch to the process `dst`
    /// (which belongs to node `dst_node`). Charges the sender's CPU for the
    /// software send overhead; never yields. Returns the delivery time
    /// (even if the frame is then lost).
    ///
    /// Needs only the non-blocking half of the context
    /// (`repseq_sim::SendCtx`), so a protocol handler running as a
    /// reactor can send through it.
    pub fn unicast<M: Send + 'static>(
        &self,
        ctx: &impl SendCtx<M>,
        dst_node: NodeId,
        dst: Pid,
        class: MsgClass,
        payload_bytes: u64,
        msg: M,
    ) -> SimTime {
        let cfg = self.net.config();
        ctx.charge(cfg.send_sw_overhead);
        let now = ctx.now();
        self.net.stats.on_message(self.node, class, payload_bytes);
        let wire = cfg.unicast_wire_time(payload_bytes);
        let deliver_at = {
            let mut l = self.net.links.lock();
            // Serialize on the sender's transmit link.
            let tx_done = now.max(l.tx_free[self.node]) + wire;
            l.tx_free[self.node] = tx_done;
            if dst_node == self.node {
                // Loopback: no switch traversal.
                tx_done
            } else {
                // Store-and-forward at the switch, then serialize on the
                // receiver's output port, which all senders share.
                let at_port = tx_done + cfg.switch_latency;
                let rx_done = at_port.max(l.rx_free[dst_node]) + wire;
                l.rx_free[dst_node] = rx_done;
                rx_done
            }
        };
        let at = deliver_at + cfg.recv_sw_overhead;
        if !self.dropped_unicast(class, dst_node, at) {
            ctx.send(dst, msg, at);
        }
        at
    }

    /// Reserve the hub — one shared half-duplex medium every node contends
    /// for — for a frame of `wire` duration offered at `now`; returns when
    /// the frame leaves it.
    fn reserve_hub(&self, now: SimTime, wire: Dur) -> SimTime {
        let mut l = self.net.links.lock();
        let done = now.max(l.hub_free) + wire;
        l.hub_free = done;
        done + self.net.config().hub_latency
    }

    /// Send one multicast frame through the hub, delivered to every process
    /// in `dsts` (normally the protocol handler of every node, including
    /// the sender's — IP multicast loopback). Counted once in the
    /// statistics, as in the paper. Returns the delivery time.
    pub fn multicast<M: Clone + Send + 'static>(
        &self,
        ctx: &impl SendCtx<M>,
        dsts: &[(NodeId, Pid)],
        class: MsgClass,
        payload_bytes: u64,
        msg: M,
    ) -> SimTime {
        let cfg = self.net.config();
        ctx.charge(cfg.send_sw_overhead);
        let now = ctx.now();
        self.net.stats.on_message(self.node, class, payload_bytes);
        let wire = cfg.multicast_wire_time(payload_bytes);
        let at = self.reserve_hub(now, wire) + cfg.recv_sw_overhead;
        for &(dst_node, dst) in dsts {
            if self.dropped(class, dst_node, at, true) {
                continue;
            }
            ctx.send(dst, msg.clone(), at);
        }
        at
    }

    /// A multicast exempt from loss injection: used for acknowledged
    /// metadata transfers (the valid-notice table), whose reliability the
    /// runtime guarantees with its own handshake. The diff reply chain
    /// stays lossy — that is what the §5.4.2 recovery path is for.
    pub fn multicast_reliable<M: Clone + Send + 'static>(
        &self,
        ctx: &impl SendCtx<M>,
        dsts: &[(NodeId, Pid)],
        class: MsgClass,
        payload_bytes: u64,
        msg: M,
    ) -> SimTime {
        let cfg = self.net.config();
        ctx.charge(cfg.send_sw_overhead);
        let now = ctx.now();
        self.net.stats.on_message(self.node, class, payload_bytes);
        let wire = cfg.multicast_wire_time(payload_bytes);
        let at = self.reserve_hub(now, wire) + cfg.recv_sw_overhead;
        for &(_, dst) in dsts {
            ctx.send(dst, msg.clone(), at);
        }
        at
    }

    /// Deliver a message to another process of the *same node* with no
    /// network cost and no statistics (e.g. the protocol handler waking the
    /// application after completing a page). Delivered at the current
    /// instant.
    pub fn local<M: Send + 'static>(&self, ctx: &impl SendCtx<M>, dst: Pid, msg: M) {
        ctx.send(dst, msg, ctx.now());
    }

    fn dropped(&self, class: MsgClass, dst_node: NodeId, at: SimTime, multicast: bool) -> bool {
        let Some(l) = &self.net.loss else { return false };
        let (drop, pair_seq) = l.lock().drop_frame(self.node, dst_node, multicast);
        if drop {
            self.net.drop_log.lock().push(LossEvent {
                src: self.node,
                dst: dst_node,
                pair_seq,
                class,
                at,
                multicast,
            });
        }
        drop
    }

    /// Unicast loss applies only to diff-protocol frames (requests, replies
    /// and flow-control acks): the DSM runs its synchronization traffic
    /// (fork/join, barriers, locks) over a transport it treats as reliable,
    /// so dropping those frames would model a failure mode the protocol
    /// does not claim to survive.
    fn dropped_unicast(&self, class: MsgClass, dst_node: NodeId, at: SimTime) -> bool {
        let applies = self.net.config().loss.map(|l| l.unicast).unwrap_or(false);
        applies && class.is_diff_message() && self.dropped(class, dst_node, at, false)
    }
}
