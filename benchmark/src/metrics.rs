//! Metric names, units and bounds (the same tables `BENCHMARK.json`
//! declares — a test keeps the two in step), and the reduction of the
//! layers' own reports to per-layer numbers.

use repseq_sim::{SimReport, TraceEntry};
use repseq_stats::{HostCounters, Section, SectionAgg, StatsSnapshot};

use crate::stat::Better::{self, Higher, Lower};

/// One declared metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats bit-for-bit for a given seed (a count or a virtual time);
    /// the others are host wall-clock values.
    pub exact: bool,
    /// End-to-end metrics only: the share of the earlier median by which
    /// the metric may get worse.
    pub bound: Option<f64>,
}

const fn end_to_end(name: &'static str, unit: &'static str, exact: bool, bound: f64) -> Metric {
    Metric { name, unit, better: Lower, exact, bound: Some(bound) }
}

/// What a user of the simulator sees. Bounds are wider than the host noise
/// (±2–4 %) because they must also cover the seed-to-seed spread of the
/// inputs (see README, "Bounds").
pub const END_TO_END: [Metric; 5] = [
    end_to_end("wall_s", "s", false, 0.25),
    end_to_end("setup_s", "s", false, 0.25),
    end_to_end("peak_rss_mb", "MB", false, 0.15),
    end_to_end("sim_time_s", "s", true, 0.20),
    end_to_end("sim_p99_ms", "ms", true, 0.25),
];

const fn count(name: &'static str) -> Metric {
    Metric { name, unit: "count", better: Lower, exact: true, bound: None }
}

const fn virt(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Lower, exact: true, bound: None }
}

const fn host(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Lower, exact: false, bound: None }
}

const fn rate(name: &'static str) -> Metric {
    Metric { name, unit: "ratio", better: Higher, exact: true, bound: None }
}

/// Every declared metric, end-to-end first.
pub fn declared() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER)
}

/// One row per layer metric, grouped by layer. The first block comes from
/// the traced rep of the workload itself; the second from the null-body
/// ladder (host cost per operation, one layer added per rung).
pub const PER_LAYER: [Metric; 57] = [
    count("sim.events"),
    count("sim.deliveries"),
    count("sim.wakes"),
    count("sim.cross_resumes"),
    count("sim.sprint_pops"),
    count("sim.handoff_switches"),
    count("sim.inline_events"),
    host("sim.host_ns_per_event", "ns"),
    count("net.messages"),
    virt("net.bytes", "B"),
    count("net.seq_messages"),
    count("net.par_messages"),
    count("dsm.fetch.diff_requests"),
    count("dsm.fetch.max_node_diff_requests_par"),
    virt("dsm.fetch.par_avg_response_ms", "ms"),
    virt("dsm.fetch.seq_avg_response_ms", "ms"),
    virt("dsm.fetch.diff_stall_ms", "ms"),
    count("dsm.fetch.stale_replies"),
    count("dsm.dataplane.page_faults"),
    virt("dsm.dataplane.diff_bytes", "B"),
    count("dsm.dataplane.diff_create_calls"),
    count("dsm.dataplane.diff_apply_calls"),
    host("dsm.dataplane.diff_ms", "ms"),
    rate("dsm.dataplane.tlb_hit_rate"),
    rate("dsm.dataplane.twin_pool_hit_rate"),
    rate("dsm.dataplane.scratch_pool_hit_rate"),
    count("dsm.consistency.valid_notice_msgs"),
    virt("dsm.consistency.valid_notice_ms", "ms"),
    virt("dsm.strategy.seq_time_s", "s"),
    virt("dsm.strategy.par_time_s", "s"),
    count("dsm.strategy.null_acks"),
    count("dsm.strategy.forwarded_requests"),
    count("dsm.strategy.recovery_rounds"),
    host("apps.body_1node_s", "s"),
    host("host.first_rep_ratio", "ratio"),
    host("host.rep_spread", "ratio"),
    host("host.rss_after_setup_mb", "MB"),
    host("host.trace_overhead_share", "ratio"),
    // The ladder (ladder.rs), in rung order.
    host("sim.pingpong_ns", "ns"),
    host("sim.fanin_ns", "ns"),
    host("sim.timer_ns", "ns"),
    host("sim.pingpong_unpinned_ns", "ns"),
    host("net.unicast_ns", "ns"),
    host("net.unicast_self_ns", "ns"),
    host("net.multicast_ns", "ns"),
    host("dsm.sync.barrier_us", "us"),
    host("dsm.fetch.fault_us", "us"),
    host("core.section_us.master_only", "us"),
    host("core.section_us.rse", "us"),
    host("core.section_us.master_push", "us"),
    host("dsm.consistency.vc_merge32_ns", "ns"),
    host("dsm.consistency.vc_merge256_ns", "ns"),
    host("dsm.consistency.unknown_to_1k_us", "us"),
    host("dsm.consistency.unknown_to_10k_us", "us"),
    host("dsm.dataplane.diff_create_sparse_ns", "ns"),
    host("dsm.dataplane.diff_apply_ns", "ns"),
    host("dsm.dataplane.read_hit_ns", "ns"),
];

/// Named values, in any order; the result line emits them in table order.
pub type Values = Vec<(&'static str, f64)>;

macro_rules! raw_counters {
    ($($field:ident),* $(,)?) => {
        /// What one simulation did, as the layers' own reports say. Every
        /// field adds across simulations (the ladder sums its rungs) except
        /// the per-node maximum. Times are virtual nanoseconds.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Raw {
            $(pub $field: u64,)*
            pub max_node_diff_requests_par: u64,
        }

        impl Raw {
            pub fn absorb(&mut self, o: &Raw) {
                $(self.$field += o.$field;)*
                self.max_node_diff_requests_par =
                    self.max_node_diff_requests_par.max(o.max_node_diff_requests_par);
            }
        }
    };
}

raw_counters!(
    sim_time_ns,
    seq_time_ns,
    par_time_ns,
    events,
    backlog,
    // From the event trace; zero on an untraced run.
    deliveries,
    wakes,
    cross_resumes,
    sprint_pops,
    handoff_switches,
    inline_events,
    seq_messages,
    par_messages,
    bytes,
    seq_requests,
    seq_response_ns,
    par_requests,
    par_response_ns,
    diff_stall_ns,
    stale_replies,
    page_faults,
    diff_bytes,
    valid_notice_msgs,
    valid_notice_ns,
    null_acks,
    forwarded_requests,
    recovery_rounds,
);

/// Trace entries whose process differs from the previous entry's: each one
/// made the host switch threads (a switch pair under the serial
/// coordinator), where a run of entries for one process did not.
pub fn cross_resumes(trace: &[TraceEntry]) -> u64 {
    trace.windows(2).filter(|w| w[0].pid != w[1].pid).count() as u64
}

impl Raw {
    /// A simulation on the bare event kernel (no DSM statistics): its
    /// virtual time is the kernel's end time.
    pub fn from_sim(report: &SimReport) -> Raw {
        let mut raw = Raw {
            sim_time_ns: report.end_time.nanos(),
            events: report.events_processed,
            backlog: report.mailbox_backlog.iter().map(|(_, n)| *n as u64).sum(),
            sprint_pops: report.exec.sprint_pops,
            handoff_switches: report.exec.handoff_switches,
            inline_events: report.exec.inline_events,
            ..Raw::default()
        };
        if let Some(trace) = &report.trace {
            raw.deliveries = trace.iter().filter(|e| e.is_delivery()).count() as u64;
            raw.wakes = trace.len() as u64 - raw.deliveries;
            raw.cross_resumes = cross_resumes(trace);
        }
        raw
    }

    /// A simulation that reported into a statistics registry: virtual time
    /// and traffic are those of the measured region.
    pub fn from_run(report: &SimReport, snap: &StatsSnapshot, recovery_rounds: u64) -> Raw {
        let (seq, par): (SectionAgg, SectionAgg) = (snap.seq_agg(), snap.par_agg());
        Raw {
            sim_time_ns: snap.total_time.nanos(),
            seq_time_ns: snap.seq_time().nanos(),
            par_time_ns: snap.par_time().nanos(),
            seq_messages: seq.messages,
            par_messages: par.messages,
            bytes: seq.bytes + par.bytes,
            seq_requests: seq.diff_requests,
            seq_response_ns: seq.response_time_total.nanos(),
            par_requests: par.diff_requests,
            par_response_ns: par.response_time_total.nanos(),
            max_node_diff_requests_par: snap.max_node_diff_requests(Section::Parallel),
            diff_stall_ns: (seq.diff_stall + par.diff_stall).nanos(),
            stale_replies: seq.stale_replies + par.stale_replies,
            page_faults: seq.page_faults + par.page_faults,
            diff_bytes: seq.diff_bytes + par.diff_bytes,
            valid_notice_msgs: seq.valid_notice_msgs + par.valid_notice_msgs,
            valid_notice_ns: snap.max_node_valid_notice_time().nanos(),
            null_acks: seq.null_acks + par.null_acks,
            forwarded_requests: seq.forwarded_requests + par.forwarded_requests,
            recovery_rounds,
            ..Raw::from_sim(report)
        }
    }

    pub fn messages(&self) -> u64 {
        self.seq_messages + self.par_messages
    }

    pub fn sim_time_s(&self) -> f64 {
        self.sim_time_ns as f64 * 1e-9
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer numbers one traced simulation (or ladder pass) yields:
/// `raw` from its reports, `host` the process-global diff/MMU counters
/// over the same interval.
pub fn layer_values(raw: &Raw, host: &HostCounters) -> Values {
    let ms = |ns: u64| ns as f64 * 1e-6;
    vec![
        ("sim.events", raw.events as f64),
        ("sim.deliveries", raw.deliveries as f64),
        ("sim.wakes", raw.wakes as f64),
        ("sim.cross_resumes", raw.cross_resumes as f64),
        ("sim.sprint_pops", raw.sprint_pops as f64),
        ("sim.handoff_switches", raw.handoff_switches as f64),
        ("sim.inline_events", raw.inline_events as f64),
        ("net.messages", raw.messages() as f64),
        ("net.bytes", raw.bytes as f64),
        ("net.seq_messages", raw.seq_messages as f64),
        ("net.par_messages", raw.par_messages as f64),
        ("dsm.fetch.diff_requests", (raw.seq_requests + raw.par_requests) as f64),
        ("dsm.fetch.max_node_diff_requests_par", raw.max_node_diff_requests_par as f64),
        ("dsm.fetch.par_avg_response_ms", ratio(raw.par_response_ns, raw.par_requests) * 1e-6),
        ("dsm.fetch.seq_avg_response_ms", ratio(raw.seq_response_ns, raw.seq_requests) * 1e-6),
        ("dsm.fetch.diff_stall_ms", ms(raw.diff_stall_ns)),
        ("dsm.fetch.stale_replies", raw.stale_replies as f64),
        ("dsm.dataplane.page_faults", raw.page_faults as f64),
        ("dsm.dataplane.diff_bytes", raw.diff_bytes as f64),
        ("dsm.dataplane.diff_create_calls", host.diff_create_calls as f64),
        ("dsm.dataplane.diff_apply_calls", host.diff_apply_calls as f64),
        ("dsm.dataplane.diff_ms", ms(host.diff_create_ns + host.diff_apply_ns)),
        ("dsm.dataplane.tlb_hit_rate", ratio(host.tlb_hits, host.tlb_hits + host.tlb_misses)),
        (
            "dsm.dataplane.twin_pool_hit_rate",
            ratio(host.twin_pool_hits, host.twin_pool_hits + host.twin_pool_misses),
        ),
        (
            "dsm.dataplane.scratch_pool_hit_rate",
            ratio(host.scratch_pool_hits, host.scratch_pool_hits + host.scratch_pool_misses),
        ),
        ("dsm.consistency.valid_notice_msgs", raw.valid_notice_msgs as f64),
        ("dsm.consistency.valid_notice_ms", ms(raw.valid_notice_ns)),
        ("dsm.strategy.seq_time_s", raw.seq_time_ns as f64 * 1e-9),
        ("dsm.strategy.par_time_s", raw.par_time_ns as f64 * 1e-9),
        ("dsm.strategy.null_acks", raw.null_acks as f64),
        ("dsm.strategy.forwarded_requests", raw.forwarded_requests as f64),
        ("dsm.strategy.recovery_rounds", raw.recovery_rounds as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use repseq_sim::{SimTime, TraceClass};

    #[test]
    fn cross_resumes_counts_changes_of_process() {
        let at = |pid, class| TraceEntry { time: SimTime::ZERO, src: 0, seq: 0, pid, class };
        use TraceClass::{Deliver, Wake};
        // pids 0 0 1 1 1 0 2: the process changes three times.
        let trace = [
            at(0, Wake),
            at(0, Deliver),
            at(1, Deliver),
            at(1, Wake),
            at(1, Deliver),
            at(0, Deliver),
            at(2, Wake),
        ];
        assert_eq!(cross_resumes(&trace), 3);
        assert_eq!(cross_resumes(&trace[..2]), 0);
        assert_eq!(cross_resumes(&[]), 0);
    }

    #[test]
    fn raw_adds_counts_and_keeps_the_per_node_maximum() {
        let mut a = Raw { events: 3, max_node_diff_requests_par: 7, ..Raw::default() };
        a.absorb(&Raw { events: 4, par_messages: 2, max_node_diff_requests_par: 5, ..a });
        assert_eq!((a.events, a.par_messages, a.max_node_diff_requests_par), (7, 2, 7));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = declared().map(|m| m.name).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "{n} is declared twice");
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
