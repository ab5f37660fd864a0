//! Race-detection hooks: the DSM side of `repseq-check::race`.
//!
//! The runtime does not detect races itself. Instead, every shared-memory
//! access and every synchronization operation is (optionally) reported to
//! a [`RaceSink`] installed on the cluster. The sink sees a serialized
//! stream of events — the simulator runs one process at a time and only
//! switches at yield points, so the host-order stream is consistent with
//! the simulated happens-before order — and `repseq-check` builds a
//! vector-clock happens-before detector on top of it.
//!
//! Everything here is zero-cost when no sink is installed: the hooks are
//! an inlined `Option` test on a field that is `None` by default, the
//! sink never charges virtual time, and no protocol message or fault path
//! consults it. The detector-invariance tests in `repseq-check` pin this
//! down by asserting bit-identical `SimReport`s and stats snapshots with
//! the detector on and off.

use std::sync::Arc;

use repseq_stats::NodeId;

/// What kind of shared-memory access a hook reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load (typed read, byte read, or guard element `get`).
    Read,
    /// A store (typed write, byte write, or guard element `set`).
    Write,
}

/// One synchronization event, reported from the exact point in the
/// runtime where the corresponding happens-before edge is established.
///
/// The stream is serialized (one simulated process runs at a time), so a
/// sink can maintain vector clocks with no locking discipline beyond a
/// mutex. The runtime guarantees the following orderings:
///
/// * `ForkSend` on the master precedes every slave's `ForkRecv` for that
///   fork (the task messages are sent after the hook fires);
/// * each slave's `JoinSend` precedes the master's matching
///   `JoinRecv { from }`;
/// * every node's `BarrierArrive` precedes every node's `BarrierDepart`
///   for the same barrier episode;
/// * every node's `RseExitArrive` precedes every node's `RseExitDepart`
///   for the same replicated section (the SeqDone/SeqGo exit barrier);
/// * `LockRelease` on the holder precedes the next `LockAcquire` of the
///   same lock on any node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncEdge {
    /// Master is about to distribute tasks for a parallel or replicated
    /// phase.
    ForkSend,
    /// A slave received its task for the current phase.
    ForkRecv,
    /// A slave finished its task and is about to notify the master.
    JoinSend,
    /// Master consumed the join (or SeqDone) of slave `from`.
    JoinRecv {
        /// The slave whose completion was consumed.
        from: NodeId,
    },
    /// This node reached a barrier and is about to wait.
    BarrierArrive,
    /// This node was released from the barrier.
    BarrierDepart,
    /// This node is releasing lock `lock` (hook fires before the grant
    /// can move anywhere else).
    LockRelease {
        /// Paper-level lock id.
        lock: u32,
    },
    /// This node now holds lock `lock`.
    LockAcquire {
        /// Paper-level lock id.
        lock: u32,
    },
    /// This node entered a replicated sequential section: from here to
    /// the matching exit, its accesses are performed by the *replica* —
    /// one logical thread executing on every node (§5.2).
    RseEnter,
    /// This node reached the end of its replicated section body (the
    /// SeqDone/SeqGo exit barrier's arrival side).
    RseExitArrive,
    /// This node left the replicated section exit barrier.
    RseExitDepart,
    /// The application labeled the code this node is about to run (used
    /// for provenance in race reports; purely descriptive).
    Section {
        /// Static label, e.g. `"bh::forces"`.
        label: &'static str,
    },
}

/// Receiver for the access/sync event stream.
///
/// Implemented by `repseq-check`'s detector; the DSM crate only defines
/// the interface so that the dependency points from the checker to the
/// substrate, never the other way.
pub trait RaceSink: Send + Sync {
    /// A shared-memory access of `len` bytes at virtual address `addr` by
    /// `node`'s application process.
    fn access(&self, node: NodeId, addr: u64, len: usize, kind: AccessKind);
    /// A synchronization event on `node`'s application process.
    fn sync(&self, node: NodeId, edge: SyncEdge);
}

/// A recording handle a page guard carries so that element-wise
/// `get`/`set` on the mapped slice reach the sink with exact addresses.
#[derive(Clone)]
pub(crate) struct AccessTap {
    pub sink: Arc<dyn RaceSink>,
    pub node: NodeId,
    /// Virtual address of element 0 of the guarded run.
    pub base: u64,
}

impl AccessTap {
    #[inline]
    pub(crate) fn element(&self, k: usize, elem_size: usize, kind: AccessKind) {
        self.sink.access(self.node, self.base + (k * elem_size) as u64, elem_size, kind);
    }
}
