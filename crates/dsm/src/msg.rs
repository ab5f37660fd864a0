//! The DSM wire protocol.
//!
//! Every simulated frame carries one `DsmMsg`. Wire sizes are estimated per
//! message for the tables' byte counts; the network layer turns sizes into
//! transmission times.

use std::sync::Arc;

use repseq_sim::Pid;
use repseq_stats::NodeId;

use crate::exec::Task;
use crate::interval::{IntervalRecord, PageId};
use crate::page::DiffEntry;
use crate::vc::Vc;

/// Protocol messages.
#[derive(Clone)]
pub enum DsmMsg {
    // ---- demand diff fetching (ordinary lazy release consistency) ----
    /// Ask `owner`'s handler for the diffs of the listed intervals of one
    /// page. Replies go straight to the faulting application process.
    DiffRequest { page: PageId, ivxs: Vec<u32>, reply_to: Pid, req_id: u64 },
    /// Diffs in response to one [`DsmMsg::DiffRequest`].
    DiffReply { page: PageId, diffs: Vec<DiffEntry>, req_id: u64 },

    // ---- barriers (centralized manager at node 0) ----
    /// Barrier arrival: the client's vector time plus every interval record
    /// the manager might not know.
    BarrierArrive { from: NodeId, vc: Vc, records: Vec<IntervalRecord>, reply_to: Pid },
    /// Barrier departure: the records this client lacks plus the merged
    /// vector time.
    BarrierDepart { records: Vec<IntervalRecord>, vc: Vc },

    // ---- locks (static manager, distributed queue) ----
    /// Lock acquire request, sent to the lock's manager and forwarded to
    /// the last holder (`forwarded` marks the second hop).
    LockAcquire { lock: u32, from: NodeId, vc: Vc, reply_to: Pid, forwarded: bool },
    /// Lock grant: the token plus the records the new holder lacks.
    LockGrant { lock: u32, records: Vec<IntervalRecord>, vc: Vc },

    // ---- fork/join (Tmk_fork / Tmk_join, driven by the runtime crate) ----
    /// Master → slave: run `task`; carries the consistency information the
    /// slave lacks.
    Fork { records: Vec<IntervalRecord>, vc: Vc, task: Task },
    /// Slave → master: parallel work finished.
    Join { from: NodeId, vc: Vc, records: Vec<IntervalRecord> },

    // ---- replicated sequential execution (the paper's contribution) ----
    /// Master → slave app: send me your valid-notice delta (the exchange at
    /// the join before a replicated section, §5.4.1).
    ValidNoticeRequest { reply_to: Pid },
    /// Slave → master: pages whose valid notice changed since the last
    /// exchange.
    ValidNoticeReply { from: NodeId, delta: Vec<(PageId, Vc)> },
    /// Master → slave app, attached to the replicated fork: everyone's
    /// valid-notice deltas, so every node elects identical requesters.
    /// Shared, not owned: the table is multicast to every node, and at
    /// hundreds of nodes a per-destination deep copy of n·pages vector
    /// clocks is gigabytes of host memcpy per section.
    ValidNoticeTable { deltas: Arc<[(NodeId, PageId, Vc)]> },
    /// Elected requester → master handler: request diffs for a page on
    /// behalf of every faulting node (§5.4.2, serialized at the master).
    /// `epoch` is the requester's replicated-section count, so the master
    /// can tell a request racing ahead of its own section entry (accept)
    /// from one whose section already ended (drop — a zombie chain).
    McastRequest { page: PageId, wanted: Vec<(NodeId, u32)>, requester: NodeId, epoch: u64 },
    /// Master handler → all handlers (hub multicast): the forwarded request
    /// that also alerts every node that diffs are coming.
    McastForward { page: PageId, wanted: Vec<(NodeId, u32)>, requester: NodeId, req_seq: u64 },
    /// A node's turn in the reply chain, carrying its diffs.
    McastDiffReply { page: PageId, diffs: Vec<DiffEntry>, turn: NodeId, req_seq: u64 },
    /// A node's turn in the reply chain when it has nothing to send.
    McastNullAck { page: PageId, turn: NodeId, req_seq: u64 },
    /// Timeout recovery (§5.4.2): ask one owner directly; it multicasts the
    /// reply out of band (`req_seq = u64::MAX`).
    RecoveryRequest { page: PageId, ivxs: Vec<u32>, requester: NodeId, reply_mcast: bool },
    /// Slave app → master app: finished the replicated section body.
    SeqDone { from: NodeId },
    /// Master app → slave apps: everyone finished; continue past the fork.
    /// Carries no consistency information (§5.2).
    SeqGo,

    // ---- hand-inserted broadcast (the §6.1.2 ablation) ----
    /// Whole-page broadcast after a master-only sequential section.
    PageBroadcast { page: PageId, data: Arc<[u8]>, vc: Vc },

    // ---- local (same node, free) ----
    /// Handler → application: a page you were waiting for became valid.
    WakePage { page: PageId },
}

fn records_size(records: &[IntervalRecord]) -> u64 {
    records.iter().map(|r| r.wire_size()).sum::<u64>()
}

fn diffs_size(diffs: &[DiffEntry]) -> u64 {
    diffs.iter().map(|r| 8 + 4 * r.covers.len() as u64 + r.diff.wire_size()).sum::<u64>()
}

impl DsmMsg {
    /// Estimated payload size in bytes, as counted in the tables.
    pub fn wire_size(&self) -> u64 {
        match self {
            DsmMsg::DiffRequest { ivxs, .. } => 16 + 4 * ivxs.len() as u64,
            DsmMsg::DiffReply { diffs, .. } => 16 + diffs_size(diffs),
            DsmMsg::BarrierArrive { vc, records, .. } => 8 + vc.wire_size() + records_size(records),
            DsmMsg::BarrierDepart { records, vc } => 8 + vc.wire_size() + records_size(records),
            DsmMsg::LockAcquire { vc, .. } => 16 + vc.wire_size(),
            DsmMsg::LockGrant { records, vc, .. } => 16 + vc.wire_size() + records_size(records),
            DsmMsg::Fork { records, vc, .. } => 64 + vc.wire_size() + records_size(records),
            DsmMsg::Join { vc, records, .. } => 8 + vc.wire_size() + records_size(records),
            DsmMsg::ValidNoticeRequest { .. } => 8,
            DsmMsg::ValidNoticeReply { delta, .. } => {
                8 + delta.iter().map(|(_, vc)| 4 + vc.wire_size()).sum::<u64>()
            }
            DsmMsg::ValidNoticeTable { deltas } => {
                8 + deltas.iter().map(|(_, _, vc)| 8 + vc.wire_size()).sum::<u64>()
            }
            DsmMsg::McastRequest { wanted, .. } => 24 + 8 * wanted.len() as u64,
            DsmMsg::McastForward { wanted, .. } => 24 + 8 * wanted.len() as u64,
            DsmMsg::McastDiffReply { diffs, .. } => 24 + diffs_size(diffs),
            DsmMsg::McastNullAck { .. } => 24,
            DsmMsg::RecoveryRequest { ivxs, .. } => 24 + 4 * ivxs.len() as u64,
            DsmMsg::SeqDone { .. } => 8,
            DsmMsg::SeqGo => 8,
            DsmMsg::PageBroadcast { data, vc, .. } => 8 + data.len() as u64 + vc.wire_size(),
            DsmMsg::WakePage { .. } => 0,
        }
    }

    /// Short tag for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            DsmMsg::DiffRequest { .. } => "DiffRequest",
            DsmMsg::DiffReply { .. } => "DiffReply",
            DsmMsg::BarrierArrive { .. } => "BarrierArrive",
            DsmMsg::BarrierDepart { .. } => "BarrierDepart",
            DsmMsg::LockAcquire { .. } => "LockAcquire",
            DsmMsg::LockGrant { .. } => "LockGrant",
            DsmMsg::Fork { .. } => "Fork",
            DsmMsg::Join { .. } => "Join",
            DsmMsg::ValidNoticeRequest { .. } => "ValidNoticeRequest",
            DsmMsg::ValidNoticeReply { .. } => "ValidNoticeReply",
            DsmMsg::ValidNoticeTable { .. } => "ValidNoticeTable",
            DsmMsg::McastRequest { .. } => "McastRequest",
            DsmMsg::McastForward { .. } => "McastForward",
            DsmMsg::McastDiffReply { .. } => "McastDiffReply",
            DsmMsg::McastNullAck { .. } => "McastNullAck",
            DsmMsg::RecoveryRequest { .. } => "RecoveryRequest",
            DsmMsg::SeqDone { .. } => "SeqDone",
            DsmMsg::SeqGo => "SeqGo",
            DsmMsg::PageBroadcast { .. } => "PageBroadcast",
            DsmMsg::WakePage { .. } => "WakePage",
        }
    }
}

impl std::fmt::Debug for DsmMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DsmMsg::{}({} bytes)", self.kind(), self.wire_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::Diff;

    #[test]
    fn wire_sizes_scale_with_content() {
        let small = DsmMsg::DiffRequest { page: 1, ivxs: vec![1], reply_to: 0, req_id: 0 };
        let big = DsmMsg::DiffRequest { page: 1, ivxs: vec![1; 10], reply_to: 0, req_id: 0 };
        assert!(big.wire_size() > small.wire_size());

        let d = Arc::new(crate::page::DiffRecord {
            owner: 0,
            covers: vec![1],
            diff: Diff::create(&[0u8; 64], &[1u8; 64]),
        });
        let reply = DsmMsg::DiffReply { page: 1, diffs: vec![d], req_id: 0 };
        assert!(reply.wire_size() > 64);
    }

    #[test]
    fn null_ack_is_small() {
        let ack = DsmMsg::McastNullAck { page: 0, turn: 3, req_seq: 9 };
        assert!(ack.wire_size() <= 32);
    }

    #[test]
    fn debug_shows_kind() {
        let m = DsmMsg::SeqGo;
        assert_eq!(format!("{m:?}"), "DsmMsg::SeqGo(8 bytes)");
    }
}
