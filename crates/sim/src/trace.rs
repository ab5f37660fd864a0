//! Event traces for determinism testing.

use crate::ctx::Pid;
use crate::time::SimTime;

/// What kind of kernel event a trace entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// A process wake (timer expiry, spawn, or an explicit wakeup).
    Wake,
    /// A message delivery into a process mailbox.
    Deliver,
}

/// A compact record of one processed kernel event. Two runs of the same
/// simulation must produce identical traces; the determinism tests rely on
/// this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Scheduling group of the process that *pushed* the event (the event
    /// key's second component — ties at equal time break by source group).
    pub src: u64,
    /// Sequence number drawn from the source group's counter at push
    /// (assigned deterministically in every host execution mode).
    pub seq: u64,
    /// Affected process.
    pub pid: Pid,
    /// Event class.
    pub class: TraceClass,
}

impl TraceEntry {
    /// True for a message delivery, false for a wake.
    pub fn is_delivery(&self) -> bool {
        self.class == TraceClass::Deliver
    }
}

/// Where two event traces first disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Index into both traces of the first mismatch (equal to the shorter
    /// length if one trace is a strict prefix of the other).
    pub index: usize,
    /// The entry at that index in the first trace, if any.
    pub a: Option<TraceEntry>,
    /// The entry at that index in the second trace, if any.
    pub b: Option<TraceEntry>,
}

/// Compare two traces entry by entry and report the first point where they
/// differ, or `None` if they are identical. Failure reports use this to name
/// the first kernel event at which a lossy schedule departed from a clean
/// run of the same workload.
pub fn first_divergence(a: &[TraceEntry], b: &[TraceEntry]) -> Option<Divergence> {
    let index = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
    Some(Divergence { index, a: a.get(index).copied(), b: b.get(index).copied() })
}
