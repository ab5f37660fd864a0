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

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use repseq_sim::{Pid, SendCtx, SimTime};
use repseq_stats::{MsgClass, NodeId, StatsRef};

use crate::config::{
    multicast_wire_time, unicast_wire_time, NetConfig, HUB_LATENCY, RECV_SW_OVERHEAD,
    SEND_SW_OVERHEAD, SWITCH_LATENCY,
};
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

/// The [`Network`]'s state, under its one lock.
struct Shared {
    links: Links,
    loss: Option<LossState>,
    drop_log: Vec<LossEvent>,
}

impl Shared {
    /// Decide whether the copy of a frame from `src` to `dst` is lost, and
    /// log it if it is. A frame the injector does not cover advances no
    /// decision stream.
    fn dropped(&mut self, src: usize, dst: usize, class: MsgClass, at: SimTime, mc: bool) -> bool {
        let Some(loss) = self.loss.as_mut().filter(|l| l.covers(class, mc)) else { return false };
        let (drop, pair_seq) = loss.drop_frame(src, dst, mc);
        if drop {
            self.drop_log.push(LossEvent { src, dst, pair_seq, class, at, multicast: mc });
        }
        drop
    }
}

/// The cluster interconnect. One per simulation; hand a [`Nic`] to each
/// node.
///
/// Its links are cross-node by nature, so they, the loss injector and its
/// log sit under one lock, which a frame takes once (never contended: one
/// process runs at a time). They are not lent as run-global state because
/// the benchmark's ladder drives `Network` and `Nic` from a bare
/// `Sim::<u64>`, which has no group state.
pub struct Network {
    nodes: usize,
    shared: Mutex<Shared>,
    stats: StatsRef,
}

impl Network {
    /// Build the interconnect described by `cfg`, reporting every frame to
    /// `stats`.
    pub fn new(cfg: NetConfig, stats: StatsRef) -> Arc<Network> {
        let n = cfg.nodes;
        Arc::new(Network {
            nodes: n,
            shared: Mutex::new(Shared {
                links: Links {
                    tx_free: vec![SimTime::ZERO; n],
                    rx_free: vec![SimTime::ZERO; n],
                    hub_free: SimTime::ZERO,
                },
                loss: cfg.loss.map(LossState::new),
                drop_log: Vec::new(),
            }),
            stats,
        })
    }

    /// The one lock. A panic while it is held ends the run, so poison is
    /// ignored.
    fn shared(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
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
        let mut log = self.shared().drop_log.clone();
        log.sort_by_key(|e| (e.at, e.src, e.dst, e.pair_seq, e.multicast));
        log
    }

    /// A handle for `node` to send through.
    pub fn nic(self: &Arc<Self>, node: NodeId) -> Nic {
        assert!(node < self.nodes, "node {node} out of range");
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
        ctx.charge(SEND_SW_OVERHEAD);
        let now = ctx.now();
        self.net.stats.on_message(self.node, class, payload_bytes);
        let wire = unicast_wire_time(payload_bytes);
        let (at, dropped) = {
            let mut s = self.net.shared();
            let l = &mut s.links;
            // Serialize on the sender's transmit link.
            let tx_done = now.max(l.tx_free[self.node]) + wire;
            l.tx_free[self.node] = tx_done;
            let deliver_at = if dst_node == self.node {
                // Loopback: no switch traversal.
                tx_done
            } else {
                // Store-and-forward at the switch, then serialize on the
                // receiver's output port, which all senders share.
                let at_port = tx_done + SWITCH_LATENCY;
                let rx_done = at_port.max(l.rx_free[dst_node]) + wire;
                l.rx_free[dst_node] = rx_done;
                rx_done
            };
            let at = deliver_at + RECV_SW_OVERHEAD;
            (at, s.dropped(self.node, dst_node, class, at, false))
        };
        if !dropped {
            ctx.send(dst, msg, at);
        }
        at
    }

    /// Send one multicast frame through the hub — one shared half-duplex
    /// medium every node contends for — delivering a copy to each process
    /// in `dsts` (normally the protocol handler of every node, including
    /// the sender's — IP multicast loopback) whose copy the loss injector
    /// does not drop. Counted once in the statistics, as in the paper. The
    /// lock is held across the sends, which only queue. Returns the
    /// delivery time.
    pub fn multicast<M: Clone + Send + 'static>(
        &self,
        ctx: &impl SendCtx<M>,
        dsts: &[(NodeId, Pid)],
        class: MsgClass,
        payload_bytes: u64,
        msg: M,
    ) -> SimTime {
        ctx.charge(SEND_SW_OVERHEAD);
        let now = ctx.now();
        self.net.stats.on_message(self.node, class, payload_bytes);
        let wire = multicast_wire_time(payload_bytes);
        let mut s = self.net.shared();
        let done = now.max(s.links.hub_free) + wire;
        s.links.hub_free = done;
        let at = done + HUB_LATENCY + RECV_SW_OVERHEAD;
        for &(dst_node, dst) in dsts {
            if s.dropped(self.node, dst_node, class, at, true) {
                continue;
            }
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
}
