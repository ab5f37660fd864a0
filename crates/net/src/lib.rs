//! # repseq-net — the simulated cluster interconnect
//!
//! Models the paper's testbed network: a 100 Mbps switched Ethernet for
//! unicast traffic and a separate 100 Mbps hub for multicast traffic
//! (PPoPP'01 §6). Frames occupy links in virtual time, so convergent
//! request storms queue exactly where the paper says they do — at the
//! victim node's links — while multicast frames serialize on the shared
//! hub.
//!
//! The DSM layer sends protocol messages through a per-node [`Nic`]; the
//! engine delivers them at the computed virtual time. Loss injection (off
//! by default) exercises the multicast recovery path deterministically.

mod config;
mod loss;
mod network;

pub use config::{
    min_cross_latency, multicast_wire_time, unicast_wire_time, LossConfig, NetConfig, HEADER_BYTES,
    HUB_LATENCY, MTU_PAYLOAD, MULTICAST_BW_BPS, RECV_SW_OVERHEAD, SEND_SW_OVERHEAD, SWITCH_LATENCY,
    UNICAST_BW_BPS,
};
pub use network::{LossEvent, Network, Nic};
