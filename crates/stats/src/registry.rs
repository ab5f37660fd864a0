//! The live counters, updated as the simulation runs.

use std::sync::Arc;

use parking_lot::Mutex;
use repseq_sim::{Dur, SimTime};

use crate::host::{self, HostCounters};
use crate::snapshot::{NodeSnapshot, SectionCounters, StatsSnapshot};

/// Index of a simulated cluster node (not a kernel pid — each node owns two
/// kernel processes, the application and the protocol handler).
pub type NodeId = usize;

/// The program phase a measurement belongs to, matching the split used by
/// the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Section {
    /// Before the program proper starts (allocation, input generation).
    /// Not reported in the tables.
    #[default]
    Startup,
    /// A sequential section executed by the master only (the "Original"
    /// system) — reported in the tables' `Seq` rows.
    Sequential,
    /// A sequential section executed by every node (replicated sequential
    /// execution, the "Optimized" system) — also a `Seq` row.
    Replicated,
    /// A parallel section — the tables' `Par` rows.
    Parallel,
}

impl Section {
    /// Tables fold `Sequential` and `Replicated` into the same `Seq` rows.
    pub fn is_sequential(self) -> bool {
        matches!(self, Section::Sequential | Section::Replicated)
    }
}

/// Classification of a network frame, used for the tables' per-kind message
/// counts. A multicast frame is counted once (as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// A request for one or more diffs (unicast, or the point-to-point
    /// request a replicated section sends to the master).
    DiffRequest,
    /// The master's multicast re-broadcast of a diff request during
    /// replicated sequential execution (§5.4.2's "forwarded request").
    ForwardedRequest,
    /// A message carrying diffs (reply to a request, unicast or multicast).
    DiffReply,
    /// A multicast acknowledgment carrying no diffs (§5.4.2 flow control).
    NullAck,
    /// Valid-notice exchange at the join before a replicated section.
    ValidNotice,
    /// Lock acquire/release/grant traffic.
    Lock,
    /// Barrier arrivals/departures, fork and join messages.
    Sync,
    /// Whole-page/data broadcast (the hand-inserted broadcast ablation).
    Broadcast,
    /// Anything else.
    Other,
}

impl MsgClass {
    /// Is this frame part of "diff messages" in the tables (requests,
    /// forwarded requests, replies and the flow-control acks that exist
    /// only to move diffs)?
    pub fn is_diff_message(self) -> bool {
        matches!(
            self,
            MsgClass::DiffRequest
                | MsgClass::ForwardedRequest
                | MsgClass::DiffReply
                | MsgClass::NullAck
        )
    }
}

pub(crate) fn section_idx(s: Section) -> usize {
    match s {
        Section::Startup => 0,
        Section::Sequential => 1,
        Section::Replicated => 2,
        Section::Parallel => 3,
    }
}

struct Inner {
    nodes: Vec<NodeSnapshot>,
    current: Section,
    /// Wall (virtual) time accumulated per section kind, from the master's
    /// timeline.
    section_time: [Dur; 4],
    section_entered_at: Option<SimTime>,
    total_started_at: Option<SimTime>,
    total_time: Dur,
    /// Set by `end_measurement`: later events are outside the measured run
    /// and are discarded, as the paper's counters cover only the timed
    /// execution.
    frozen: bool,
    /// The nodes' host-side data-plane counts, summed when the run returned.
    host: HostCounters,
}

/// The statistics registry for one simulated run. Shared by every layer via
/// [`StatsRef`]. All methods are cheap; the registry is locked only briefly
/// (the simulation serializes processes anyway).
pub struct Stats {
    inner: Mutex<Inner>,
}

/// Shared handle to a [`Stats`] registry.
pub type StatsRef = Arc<Stats>;

impl Stats {
    /// Create a registry for `n_nodes` cluster nodes.
    pub fn new(n_nodes: usize) -> StatsRef {
        Arc::new(Stats {
            inner: Mutex::new(Inner {
                nodes: vec![NodeSnapshot::default(); n_nodes],
                current: Section::Startup,
                section_time: [Dur::ZERO; 4],
                section_entered_at: None,
                total_started_at: None,
                total_time: Dur::ZERO,
                frozen: false,
                host: HostCounters::default(),
            }),
        })
    }

    /// Number of nodes the registry tracks.
    pub fn n_nodes(&self) -> usize {
        self.inner.lock().nodes.len()
    }

    /// Mark the start of measured execution (after startup/initialization).
    /// Sections entered before this call still tag traffic as `Startup`.
    pub fn start_measurement(&self, now: SimTime) {
        let mut i = self.inner.lock();
        i.total_started_at = Some(now);
    }

    /// Mark the end of measured execution; later events are discarded.
    pub fn end_measurement(&self, now: SimTime) {
        let mut i = self.inner.lock();
        if let Some(t0) = i.total_started_at {
            i.total_time = now - t0;
        }
        if let Some(t0) = i.section_entered_at.take() {
            let idx = section_idx(i.current);
            i.section_time[idx] += now - t0;
        }
        i.frozen = true;
    }

    /// Enter a program section at virtual time `now`. Closes the previous
    /// section's timer. Called by the master runtime only. A section
    /// entered after [`Stats::end_measurement`] is outside the measured run.
    pub fn set_section(&self, s: Section, now: SimTime) {
        let mut i = self.inner.lock();
        if i.frozen {
            return;
        }
        if let Some(t0) = i.section_entered_at.take() {
            let idx = section_idx(i.current);
            i.section_time[idx] += now - t0;
        }
        i.current = s;
        i.section_entered_at = Some(now);
    }

    /// Apply `f` to `node`'s counters of the current section, unless the
    /// measured run has ended.
    fn count(&self, node: NodeId, f: impl FnOnce(&mut SectionCounters)) {
        let mut i = self.inner.lock();
        if !i.frozen {
            let s = section_idx(i.current);
            f(&mut i.nodes[node].sections[s]);
        }
    }

    /// Record a frame sent by `node`. Multicast frames are reported once.
    pub fn on_message(&self, node: NodeId, class: MsgClass, bytes: u64) {
        self.count(node, |c| {
            c.messages += 1;
            c.bytes += bytes;
            if class.is_diff_message() {
                c.diff_messages += 1;
                c.diff_bytes += bytes;
            }
            match class {
                MsgClass::NullAck => c.null_acks += 1,
                MsgClass::ForwardedRequest => c.forwarded_requests += 1,
                MsgClass::ValidNotice => c.valid_notice_msgs += 1,
                _ => {}
            }
        });
    }

    /// Record a stale diff reply absorbed by `node` (a resend-race
    /// duplicate, or a reply whose fetch was already retired).
    pub fn on_stale_reply(&self, node: NodeId) {
        self.count(node, |c| c.stale_replies += 1);
    }

    /// Record a page fault taken by `node`.
    pub fn on_page_fault(&self, node: NodeId) {
        self.count(node, |c| c.page_faults += 1);
    }

    /// Record one diff-request operation issued by `node` (a fault that had
    /// to fetch diffs), and its response time once served.
    pub fn on_diff_request_complete(&self, node: NodeId, response: Dur) {
        self.count(node, |c| {
            c.diff_requests += 1;
            c.response_time_total += response;
        });
    }

    /// Record virtual time `node` spent stalled waiting for diff replies.
    pub fn on_diff_stall(&self, node: NodeId, stall: Dur) {
        self.count(node, |c| c.diff_stall += stall);
    }

    /// Record time spent exchanging valid notices (RSE entry overhead).
    pub fn on_valid_notice_time(&self, node: NodeId, d: Dur) {
        self.count(node, |c| c.valid_notice_time += d);
    }

    /// Add the host-side counts a finished run's nodes kept. Called by the
    /// cluster, once, when the run returns.
    pub fn fold_host(&self, run: HostCounters) {
        self.inner.lock().host += run;
        host::fold(run);
    }

    /// The host-side data-plane counts of this registry's run: zero until
    /// the run returns. Outside [`StatsSnapshot`] on purpose — two of the
    /// fields are host *time*, and the detector-invariance gates compare
    /// snapshots with `==`.
    pub fn host(&self) -> HostCounters {
        self.inner.lock().host
    }

    /// Take an immutable snapshot for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        let i = self.inner.lock();
        StatsSnapshot {
            nodes: i.nodes.clone(),
            section_time: i.section_time,
            total_time: i.total_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_timer_accumulates() {
        let s = Stats::new(2);
        s.start_measurement(SimTime::from_nanos(0));
        s.set_section(Section::Sequential, SimTime::from_nanos(0));
        s.set_section(Section::Parallel, SimTime::from_nanos(1_000));
        s.set_section(Section::Sequential, SimTime::from_nanos(5_000));
        s.end_measurement(SimTime::from_nanos(6_000));
        let snap = s.snapshot();
        assert_eq!(snap.seq_time(), Dur::from_nanos(2_000));
        assert_eq!(snap.par_time(), Dur::from_nanos(4_000));
        assert_eq!(snap.total_time, Dur::from_nanos(6_000));
    }

    #[test]
    fn sections_after_end_of_measurement_are_not_timed() {
        let s = Stats::new(1);
        s.start_measurement(SimTime::from_nanos(0));
        s.set_section(Section::Sequential, SimTime::from_nanos(0));
        s.end_measurement(SimTime::from_nanos(1_000));
        s.set_section(Section::Parallel, SimTime::from_nanos(2_000));
        s.set_section(Section::Sequential, SimTime::from_nanos(9_000));
        s.set_section(Section::Parallel, SimTime::from_nanos(10_000));
        let snap = s.snapshot();
        assert!(snap.seq_time() + snap.par_time() <= snap.total_time);
        assert_eq!(snap.par_time(), Dur::ZERO);
    }

    #[test]
    fn messages_tagged_by_current_section() {
        let s = Stats::new(1);
        s.set_section(Section::Parallel, SimTime::ZERO);
        s.on_message(0, MsgClass::DiffRequest, 100);
        s.on_message(0, MsgClass::DiffReply, 1_000);
        s.on_message(0, MsgClass::Sync, 50);
        s.set_section(Section::Sequential, SimTime::ZERO);
        s.on_message(0, MsgClass::DiffReply, 2_000);
        let snap = s.snapshot();
        let par = snap.agg(Section::Parallel);
        assert_eq!(par.messages, 3);
        assert_eq!(par.bytes, 1_150);
        assert_eq!(par.diff_messages, 2);
        assert_eq!(par.diff_bytes, 1_100);
        let seq = snap.seq_agg();
        assert_eq!(seq.messages, 1);
        assert_eq!(seq.diff_bytes, 2_000);
    }

    #[test]
    fn replicated_folds_into_seq_rows() {
        let s = Stats::new(2);
        s.set_section(Section::Replicated, SimTime::ZERO);
        s.on_message(0, MsgClass::NullAck, 64);
        s.on_message(1, MsgClass::ForwardedRequest, 64);
        let snap = s.snapshot();
        let seq = snap.seq_agg();
        assert_eq!(seq.messages, 2);
        assert_eq!(seq.null_acks, 1);
        assert_eq!(seq.forwarded_requests, 1);
        assert!(Section::Replicated.is_sequential());
        assert!(!Section::Parallel.is_sequential());
    }

    #[test]
    fn response_time_averages() {
        let s = Stats::new(2);
        s.set_section(Section::Parallel, SimTime::ZERO);
        s.on_diff_request_complete(0, Dur::from_micros(100));
        s.on_diff_request_complete(0, Dur::from_micros(300));
        s.on_diff_request_complete(1, Dur::from_micros(200));
        let snap = s.snapshot();
        let agg = snap.agg(Section::Parallel);
        assert_eq!(agg.diff_requests, 3);
        assert_eq!(agg.avg_response().unwrap(), Dur::from_micros(200));
        // Per-node: node 0 made 2 requests, node 1 made 1.
        assert_eq!(snap.max_node_diff_requests(Section::Parallel), 2);
        let avg = snap.avg_node_diff_requests(Section::Parallel);
        assert!((avg - 1.5).abs() < 1e-9);
    }

    #[test]
    fn faults_and_stalls_are_per_node() {
        let s = Stats::new(3);
        s.set_section(Section::Parallel, SimTime::ZERO);
        s.on_page_fault(2);
        s.on_page_fault(2);
        s.on_diff_stall(2, Dur::from_micros(10));
        s.on_diff_stall(1, Dur::from_micros(30));
        let snap = s.snapshot();
        assert_eq!(snap.nodes[2].sections[3].page_faults, 2);
        assert_eq!(snap.nodes[1].sections[3].diff_stall, Dur::from_micros(30));
    }
}
