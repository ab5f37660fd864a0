//! Per-node protocol state: a thin composite of the layer states. The
//! pure (communication-free) protocol logic lives with each layer —
//! [`crate::consistency`] (intervals, vector clocks, write notices),
//! [`crate::dataplane`] (pages, twins, diffs), [`crate::strategy`]
//! (replicated sections), [`crate::sync`] (barrier/locks),
//! [`crate::exec`] (fork/join) and [`crate::fetch`] (request ids) — as
//! `impl NodeState` blocks in those modules. Methods that model work
//! return the virtual-time cost for the caller to charge; state methods
//! never touch the network — the runtime and handler layers do that.

use std::sync::Arc;

use repseq_stats::{HostCounters, NodeId};

use crate::arena::ScratchArena;
use crate::config::DsmConfig;
use crate::consistency::Consistency;
use crate::dataplane::DataPlane;
use crate::exec::ExecState;
use crate::fetch::FetchState;
use crate::shmem::SharedSegment;
use crate::strategy::RseState;
use crate::sync::SyncState;

/// One node's complete protocol state. Shared (behind a mutex) between the
/// node's application process and its protocol-handler process; the
/// simulation runs one process at a time, so the mutex is never contended —
/// it only satisfies the compiler. **Never hold it across a yielding call.**
///
/// The fields group the state by layer; each layer's module owns the
/// methods that touch its group (plus, where a protocol step genuinely
/// spans layers — e.g. a write fault both twins the page and records the
/// write in the open interval — the owning layer reaches across through
/// the crate-internal fields).
pub struct NodeState {
    pub node: NodeId,
    pub n: usize,
    pub cfg: DsmConfig,
    /// Lazy-release-consistency metadata: vector time, interval store,
    /// and the open interval's write set.
    pub(crate) con: Consistency,
    /// The data plane: page table, twins, diff cache, twin pool, and the
    /// TLB revocation counter.
    pub(crate) data: DataPlane,
    /// Replicated-section protocol state (§5).
    pub(crate) rse: RseState,
    /// Barrier-manager and lock state.
    pub(crate) sync: SyncState,
    /// Fork/join bookkeeping.
    pub(crate) exec: ExecState,
    /// Demand-fetch request ids.
    pub(crate) fetch: FetchState,
    /// Recycled scratch buffers for the fault hot path.
    pub(crate) scratch: ScratchArena,
    /// This node's host-side data-plane counts: plain fields bumped through
    /// the `&mut` a site already holds, summed by the cluster when the run
    /// returns ([`repseq_stats::Stats::host`]).
    pub(crate) host: HostCounters,
}

impl NodeState {
    /// A node's state over the cluster's shared `segment`. A hand-built
    /// state (unit tests) passes an empty one: its table grows on touch.
    pub fn new(node: NodeId, n: usize, cfg: DsmConfig, segment: Arc<SharedSegment>) -> NodeState {
        NodeState {
            node,
            n,
            con: Consistency::new(n),
            data: DataPlane::new(n, cfg.page_size, segment),
            cfg,
            rse: RseState::new(n),
            sync: SyncState::new(),
            exec: ExecState::new(n),
            fetch: FetchState::new(),
            scratch: ScratchArena::default(),
            host: HostCounters::default(),
        }
    }
}

/// Shared helpers for the layer modules' unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::interval::PageId;

    pub(crate) fn state(node: NodeId, n: usize) -> NodeState {
        let cfg = DsmConfig::default();
        let segment = Arc::new(SharedSegment::new(cfg.page_size, 0));
        NodeState::new(node, n, cfg, segment)
    }

    /// Simulate a local write for tests: the write-fault dance plus the
    /// actual byte store.
    pub(crate) fn fake_write(st: &mut NodeState, p: PageId, offset: usize, val: u8) {
        let page = st.page_mut(p);
        assert!(page.valid, "fake_write on an invalid page");
        if !page.writable {
            st.write_fault(p);
        }
        st.page_data(p)[offset] = val;
    }
}
