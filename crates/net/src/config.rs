//! Network configuration.

use repseq_sim::Dur;

/// Parameters of the simulated cluster interconnect.
///
/// The defaults model the paper's testbed: a 100 Mbps switched Ethernet
/// carrying all unicast traffic plus a separate 100 Mbps hub carrying all
/// multicast traffic (§6: "All unicast messages go through the switch,
/// while all multicast messages go through the hub"). Per-message software
/// overheads are in the range measured for UDP messaging on late-1990s
/// commodity hardware (TreadMarks reports round-trip small-message times of
/// a few hundred microseconds).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Number of cluster nodes.
    pub nodes: usize,
    /// Bandwidth of each full-duplex switched link (bits/second).
    pub unicast_bw_bps: f64,
    /// Bandwidth of the shared (half-duplex) multicast hub (bits/second).
    pub multicast_bw_bps: f64,
    /// Switch forwarding latency per frame.
    pub switch_latency: Dur,
    /// Hub propagation latency per frame.
    pub hub_latency: Dur,
    /// Software cost of sending one message, charged to the sender's CPU.
    pub send_sw_overhead: Dur,
    /// Software cost of receiving one message, added to the delivery time.
    pub recv_sw_overhead: Dur,
    /// Wire overhead per frame (Ethernet + IP + UDP headers), added to the
    /// payload when computing transmission times but not counted in the
    /// tables' byte counts.
    pub header_bytes: u64,
    /// Frames larger than this are fragmented; each fragment pays the
    /// header. 1500-byte Ethernet MTU minus headers.
    pub mtu_payload: u64,
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
        NetConfig {
            nodes: n,
            unicast_bw_bps: 100e6,
            multicast_bw_bps: 100e6,
            switch_latency: Dur::from_micros(15),
            hub_latency: Dur::from_micros(5),
            send_sw_overhead: Dur::from_micros(35),
            recv_sw_overhead: Dur::from_micros(35),
            header_bytes: 58,
            mtu_payload: 1442,
            loss: None,
        }
    }

    /// A lower bound on the virtual latency of any message between two
    /// *different* nodes: the cheapest path is an empty frame (headers
    /// only) on the faster medium, plus the fixed forwarding and software
    /// receive costs. The simulation engine uses this as its lookahead —
    /// no node can affect another sooner than this — which bounds the
    /// quiescence tail of a run (`Sim::set_lookahead`).
    ///
    /// Send-side software overhead is *not* included: it is charged to the
    /// sender's clock before the transfer starts, so it is already part of
    /// "now" when the delivery time is computed.
    pub fn min_cross_latency(&self) -> Dur {
        let switched = self.unicast_wire_time(0) * 2 + self.switch_latency;
        let hubbed = self.multicast_wire_time(0) + self.hub_latency;
        switched.min(hubbed) + self.recv_sw_overhead
    }

    /// Transmission time of `payload` bytes on a link of `bw` bits/second,
    /// including per-fragment header overhead.
    pub fn wire_time(&self, payload_bytes: u64, bw_bps: f64) -> Dur {
        let fragments = payload_bytes.div_ceil(self.mtu_payload).max(1);
        let on_wire = payload_bytes + fragments * self.header_bytes;
        Dur::from_secs_f64(on_wire as f64 * 8.0 / bw_bps)
    }

    /// Transmission time on a switched (unicast) link.
    pub fn unicast_wire_time(&self, payload_bytes: u64) -> Dur {
        self.wire_time(payload_bytes, self.unicast_bw_bps)
    }

    /// Transmission time on the hub.
    pub fn multicast_wire_time(&self, payload_bytes: u64) -> Dur {
        self.wire_time(payload_bytes, self.multicast_bw_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_scales_with_size() {
        let cfg = NetConfig::paper(4);
        let small = cfg.unicast_wire_time(100);
        let large = cfg.unicast_wire_time(10_000);
        assert!(large > small * 50, "10000B should take ~100x longer than 100B");
        // 1442B payload + 58B header = 1500B on wire at 100 Mbps = 120us.
        assert_eq!(cfg.unicast_wire_time(1442), Dur::from_micros(120));
    }

    #[test]
    fn fragmentation_pays_per_fragment_headers() {
        let cfg = NetConfig::paper(4);
        let one = cfg.unicast_wire_time(1442);
        let two = cfg.unicast_wire_time(2 * 1442);
        assert_eq!(two, one * 2);
    }

    #[test]
    fn zero_payload_still_costs_a_header() {
        let cfg = NetConfig::paper(4);
        assert!(cfg.unicast_wire_time(0) > Dur::ZERO);
    }
}
