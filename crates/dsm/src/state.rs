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

/// One node's complete protocol state. The simulation owns it, one per
/// node's group ([`repseq_sim::Sim::set_state`]), and lends it to the
/// node's application from a resume to its next yielding call and to its
/// protocol handler for one callback. A borrow still live at a yield
/// panics, and the run fails under that process's name. Given to the
/// simulation by value, it leaves no handle for another node's process:
///
/// ```compile_fail
/// # use std::sync::Arc;
/// # use repseq_dsm::{DsmConfig, DsmMsg, NodeState, SharedSegment};
/// let cfg = DsmConfig::default();
/// let segment = Arc::new(SharedSegment::new(cfg.page_size, 0));
/// let mut sim = repseq_sim::Sim::<DsmMsg, NodeState>::new();
/// let peer = NodeState::new(1, 2, cfg, segment);
/// sim.set_state(1, peer);
/// sim.spawn("app0", move |_ctx| {
///     let _ = peer.node; // node 1's state, named from node 0's process
///     Ok(())
/// });
/// ```
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
            fetch: FetchState::default(),
            scratch: ScratchArena::default(),
            host: HostCounters::default(),
        }
    }
}

/// Shared helpers for the layer modules' unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::diff::Diff;
    use crate::interval::{IntervalRecord, PageId};
    use crate::page::{DiffEntry, DiffRecord};
    use crate::vc::Vc;

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

    /// The page [`random_page`] builds.
    pub(crate) const PAGE: PageId = 3;

    /// A random [`PAGE`] on a reader among 2–8 nodes, drawn from `seed`: up
    /// to 24 remote intervals learned through `apply_records`, two in three
    /// writing the page, each after its owner's last and one random earlier
    /// interval; their diffs as records of one or more intervals of an owner
    /// (a page re-twinned between requests) over overlapping bytes; random
    /// valid and peer notices; half the records cached. Returns them all.
    pub(crate) fn random_page(seed: u64) -> (NodeState, Vec<DiffEntry>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(2..9usize);
        let mut st = state(rng.gen_range(0..n), n);
        let (mut last, mut seen) = (vec![Vc::zero(n); n], vec![Vc::zero(n)]);
        let (zeros, mut records) = (vec![0u8; st.cfg.page_size], Vec::<DiffRecord>::new());
        for _ in 0..rng.gen_range(1..25usize) {
            let (q, writes) = ((st.node + rng.gen_range(1..n)) % n, rng.gen_range(0..3u8) > 0);
            let ivx = st.con.intervals.known(q) + 1;
            last[q].merge(&seen[rng.gen_range(0..seen.len())]);
            last[q].set(q, ivx);
            let (vc, pages) = (last[q].clone(), if writes { vec![PAGE] } else { Vec::new() });
            st.apply_records(vec![IntervalRecord::new(q, ivx, vc.clone(), pages)], &vc);
            seen.push(vc);
            match records.iter_mut().rev().find(|r| r.owner == q) {
                Some(r) if writes && rng.gen::<bool>() => r.covers.push(ivx),
                _ if writes => {
                    let (at, mut page) = (rng.gen_range(0..48usize), zeros.clone());
                    page[at..at + rng.gen_range(1..16usize)].fill(records.len() as u8 + 1);
                    let diff = Diff::create(&zeros, &page);
                    records.push(DiffRecord { owner: q, covers: vec![ivx], diff });
                }
                _ => {}
            }
        }
        let records: Vec<DiffEntry> = records.into_iter().map(Arc::new).collect();
        let ceil: Vec<u32> = (0..n).map(|q| st.con.intervals.known(q) + 1).collect();
        let stamp = |rng: &mut SmallRng| {
            let mut vc = Vc::zero(n);
            (0..n).for_each(|q| vc.set(q, rng.gen_range(0..ceil[q])));
            vc
        };
        let page = st.page_mut(PAGE);
        page.valid_at = stamp(&mut rng);
        page.peers_valid_at = rng.gen::<bool>().then(|| stamp(&mut rng));
        for q in 0..n {
            if rng.gen::<bool>() {
                page.announce_peer_valid(q, stamp(&mut rng));
            }
        }
        for rec in records.iter().filter(|_| rng.gen::<bool>()) {
            st.cache_diffs(PAGE, std::slice::from_ref(rec));
        }
        (st, records)
    }
}
