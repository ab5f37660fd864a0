//! Immutable snapshots and the aggregations the paper's tables use.

use repseq_sim::Dur;

use crate::registry::{section_idx, Section};

/// Counters for one (node, section) pair.
///
/// `PartialEq`/`Eq` so whole snapshots can be compared bit-for-bit: the
/// race-detector invariance gate asserts that a run with the detector
/// installed produces exactly the snapshot of the same run without it.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SectionCounters {
    /// Frames sent (multicast counted once).
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Frames that are part of diff traffic (requests, forwarded requests,
    /// replies, flow-control acks).
    pub diff_messages: u64,
    /// Bytes of diff traffic.
    pub diff_bytes: u64,
    /// Null acknowledgments (flow control, §5.4.2).
    pub null_acks: u64,
    /// Requests forwarded through the master (§5.4.2).
    pub forwarded_requests: u64,
    /// Valid-notice messages (§5.4.1).
    pub valid_notice_msgs: u64,
    /// Stale diff replies absorbed (duplicates produced by the
    /// timeout/resend discipline, §5.4.2 — dropped, never applied).
    pub stale_replies: u64,
    /// Page faults taken.
    pub page_faults: u64,
    /// Diff-request operations (faults that fetched diffs).
    pub diff_requests: u64,
    /// Sum of request-to-completion response times.
    pub response_time_total: Dur,
    /// Virtual time stalled waiting for diff replies.
    pub diff_stall: Dur,
    /// Virtual time spent in the valid-notice exchange.
    pub valid_notice_time: Dur,
}

impl SectionCounters {
    fn add(&mut self, o: &SectionCounters) {
        self.messages += o.messages;
        self.bytes += o.bytes;
        self.diff_messages += o.diff_messages;
        self.diff_bytes += o.diff_bytes;
        self.null_acks += o.null_acks;
        self.forwarded_requests += o.forwarded_requests;
        self.valid_notice_msgs += o.valid_notice_msgs;
        self.stale_replies += o.stale_replies;
        self.page_faults += o.page_faults;
        self.diff_requests += o.diff_requests;
        self.response_time_total += o.response_time_total;
        self.diff_stall += o.diff_stall;
        self.valid_notice_time += o.valid_notice_time;
    }
}

/// One node's counters, live in the registry and in a snapshot (indexed by
/// `Section`).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NodeSnapshot {
    pub sections: [SectionCounters; 4],
}

impl NodeSnapshot {
    /// This node's counters for one section kind.
    pub fn section(&self, s: Section) -> &SectionCounters {
        &self.sections[section_idx(s)]
    }
}

/// Cluster-wide aggregate over one section kind.
pub type SectionAgg = SectionCounters;

impl SectionAgg {
    /// Average response time of diff requests, if any were made.
    pub fn avg_response(&self) -> Option<Dur> {
        if self.diff_requests == 0 {
            None
        } else {
            Some(self.response_time_total / self.diff_requests)
        }
    }
}

/// A complete end-of-run snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub nodes: Vec<NodeSnapshot>,
    pub(crate) section_time: [Dur; 4],
    /// Virtual time between `start_measurement` and `end_measurement`.
    pub total_time: Dur,
}

impl StatsSnapshot {
    /// Cluster-wide aggregate for one section kind.
    pub fn agg(&self, s: Section) -> SectionAgg {
        let idx = section_idx(s);
        let mut out = SectionCounters::default();
        for n in &self.nodes {
            out.add(&n.sections[idx]);
        }
        out
    }

    /// Aggregate over the tables' `Seq` rows (master-only sequential plus
    /// replicated sequential execution).
    pub fn seq_agg(&self) -> SectionAgg {
        let mut out = self.agg(Section::Sequential);
        out.add(&self.agg(Section::Replicated));
        out
    }

    /// Aggregate over the tables' `Par` rows.
    pub fn par_agg(&self) -> SectionAgg {
        self.agg(Section::Parallel)
    }

    /// Aggregate over the measured run (the tables' `Total` rows —
    /// sequential plus parallel sections; startup is excluded, as in the
    /// paper).
    pub fn total_agg(&self) -> SectionAgg {
        let mut out = self.seq_agg();
        out.add(&self.agg(Section::Parallel));
        out
    }

    /// Aggregate including startup traffic (not part of the tables).
    pub fn total_agg_with_startup(&self) -> SectionAgg {
        let mut out = self.total_agg();
        out.add(&self.agg(Section::Startup));
        out
    }

    /// Virtual time spent in sequential sections (master-only + replicated).
    pub fn seq_time(&self) -> Dur {
        self.section_time[1] + self.section_time[2]
    }

    /// Virtual time spent in parallel sections.
    pub fn par_time(&self) -> Dur {
        self.section_time[3]
    }

    fn fold_seq<T>(&self, f: impl Fn(&SectionCounters) -> T) -> Vec<T>
    where
        T: std::ops::Add<Output = T> + Copy,
    {
        self.nodes
            .iter()
            .map(|n| {
                f(&n.sections[section_idx(Section::Sequential)])
                    + f(&n.sections[section_idx(Section::Replicated)])
            })
            .collect()
    }

    fn fold_one<T>(&self, s: Section, f: impl Fn(&SectionCounters) -> T) -> Vec<T> {
        self.nodes.iter().map(|n| f(&n.sections[section_idx(s)])).collect()
    }

    /// Maximum over nodes of diff requests in section `s`.
    pub fn max_node_diff_requests(&self, s: Section) -> u64 {
        match s {
            Section::Sequential | Section::Replicated => {
                self.fold_seq(|c| c.diff_requests).into_iter().max().unwrap_or(0)
            }
            _ => self.fold_one(s, |c| c.diff_requests).into_iter().max().unwrap_or(0),
        }
    }

    /// Average over nodes of diff requests in section `s` (the paper's
    /// "avg diff requests" row for parallel sections).
    pub fn avg_node_diff_requests(&self, s: Section) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let v = self.fold_one(s, |c| c.diff_requests);
        v.iter().sum::<u64>() as f64 / self.nodes.len() as f64
    }

    /// Total time spent exchanging valid notices, maximized over nodes (the
    /// exchange is synchronous, so the max is the program-visible cost).
    pub fn max_node_valid_notice_time(&self) -> Dur {
        self.nodes
            .iter()
            .map(|n| n.sections.iter().map(|c| c.valid_notice_time).fold(Dur::ZERO, |a, b| a + b))
            .fold(Dur::ZERO, Dur::max)
    }
}
