//! The testbed interconnect's constants and its two settable parameters.
//!
//! The constants model the paper's testbed: a 100 Mbps switched Ethernet
//! carrying all unicast traffic plus a separate 100 Mbps hub carrying all
//! multicast traffic (§6: "All unicast messages go through the switch,
//! while all multicast messages go through the hub"). Per-message software
//! overheads are in the range measured for UDP messaging on late-1990s
//! commodity hardware (TreadMarks reports round-trip small-message times of
//! a few hundred microseconds).

use repseq_sim::Dur;

/// Bandwidth of each full-duplex switched link (bits/second).
pub const UNICAST_BW_BPS: f64 = 100e6;
/// Bandwidth of the shared (half-duplex) multicast hub (bits/second).
pub const MULTICAST_BW_BPS: f64 = 100e6;
/// Switch forwarding latency per frame.
pub const SWITCH_LATENCY: Dur = Dur::from_micros(15);
/// Hub propagation latency per frame.
pub const HUB_LATENCY: Dur = Dur::from_micros(5);
/// Software cost of sending one message, charged to the sender's CPU.
pub const SEND_SW_OVERHEAD: Dur = Dur::from_micros(35);
/// Software cost of receiving one message, added to the delivery time.
pub const RECV_SW_OVERHEAD: Dur = Dur::from_micros(35);
/// Wire overhead per frame (Ethernet + IP + UDP headers), added to the
/// payload when computing transmission times but not counted in the
/// tables' byte counts.
pub const HEADER_BYTES: u64 = 58;
/// Frames larger than this are fragmented; each fragment pays the header.
/// 1500-byte Ethernet MTU minus headers.
pub const MTU_PAYLOAD: u64 = 1442;

/// The interconnect parameters a run may set; everything else is a
/// constant of the testbed.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Number of cluster nodes.
    pub nodes: usize,
    /// Optional deterministic message loss (per-mille drop rate, seed).
    /// Used to exercise the multicast timeout-recovery path; off by
    /// default, as in the paper's measurements.
    pub loss: Option<LossConfig>,
}

/// Deterministic message-loss injection.
#[derive(Debug, Clone, Copy)]
pub struct LossConfig {
    /// Drop probability in 1/1000 units, applied per (frame, receiver).
    pub drop_per_mille: u32,
    /// Seed for the deterministic hash; two runs with the same seed drop
    /// the same frames.
    pub seed: u64,
    /// Also drop unicast frames of the classes the hub may lose (diff
    /// requests, replies and flow-control acks, page broadcasts). Off by
    /// default: the DSM treats its unicast transport as reliable
    /// (TreadMarks ran its own reliability layer over UDP), while IP
    /// multicast is the lossy medium the §5.4.2 recovery path exists for.
    /// Synchronization, lock and valid-notice traffic is never dropped, on
    /// either medium — the protocol makes no recovery claim for it.
    pub unicast: bool,
}

impl LossConfig {
    /// Multicast-only loss (the realistic configuration).
    pub fn multicast_only(drop_per_mille: u32, seed: u64) -> Self {
        LossConfig { drop_per_mille, seed, unicast: false }
    }
}

impl NetConfig {
    /// The paper's testbed shape for `n` nodes.
    pub fn paper(n: usize) -> Self {
        NetConfig { nodes: n, loss: None }
    }
}

/// A lower bound on the virtual latency of any message between two
/// *different* nodes: the cheapest path is an empty frame (headers only) on
/// the faster medium, plus the fixed forwarding and software receive costs.
/// The simulation engine uses this as its lookahead — no node can affect
/// another sooner than this — which bounds the quiescence tail of a run
/// (`Sim::set_lookahead`).
///
/// Send-side software overhead is *not* included: it is charged to the
/// sender's clock before the transfer starts, so it is already part of
/// "now" when the delivery time is computed.
pub fn min_cross_latency() -> Dur {
    let switched = unicast_wire_time(0) * 2 + SWITCH_LATENCY;
    let hubbed = multicast_wire_time(0) + HUB_LATENCY;
    switched.min(hubbed) + RECV_SW_OVERHEAD
}

/// Transmission time of `payload` bytes on a link of `bw` bits/second,
/// including per-fragment header overhead.
fn wire_time(payload_bytes: u64, bw_bps: f64) -> Dur {
    let fragments = payload_bytes.div_ceil(MTU_PAYLOAD).max(1);
    let on_wire = payload_bytes + fragments * HEADER_BYTES;
    Dur::from_secs_f64(on_wire as f64 * 8.0 / bw_bps)
}

/// Transmission time on a switched (unicast) link.
pub fn unicast_wire_time(payload_bytes: u64) -> Dur {
    wire_time(payload_bytes, UNICAST_BW_BPS)
}

/// Transmission time on the hub.
pub fn multicast_wire_time(payload_bytes: u64) -> Dur {
    wire_time(payload_bytes, MULTICAST_BW_BPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_scales_with_size() {
        let small = unicast_wire_time(100);
        let large = unicast_wire_time(10_000);
        assert!(large > small * 50, "10000B should take ~100x longer than 100B");
        // 1442B payload + 58B header = 1500B on wire at 100 Mbps = 120us.
        assert_eq!(unicast_wire_time(1442), Dur::from_micros(120));
    }

    #[test]
    fn fragmentation_pays_per_fragment_headers() {
        let one = unicast_wire_time(1442);
        let two = unicast_wire_time(2 * 1442);
        assert_eq!(two, one * 2);
    }

    #[test]
    fn zero_payload_still_costs_a_header() {
        assert!(unicast_wire_time(0) > Dur::ZERO);
    }
}
