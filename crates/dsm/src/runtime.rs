//! The application-side runtime core: the `DsmNode` handle and typed
//! shared-memory access with software page faults. The
//! blocking protocol operations live with their layers — [`crate::fetch`]
//! (demand fetching), [`crate::sync`] (barrier/locks), [`crate::exec`]
//! (fork/join) and [`crate::strategy`] (sequential-section execution) — as
//! further `impl DsmNode` blocks.

use std::ops::Range;
use std::sync::Arc;

use repseq_sim::{Dur, SimTime, Stopped};
use repseq_stats::{NodeId, StatsRef};

use crate::config::{page_of, PAGE_SIZE};
use crate::interval::PageId;
use crate::msg::DsmMsg;
use crate::page::PageBuf;
use crate::pod::Pod;
use crate::race::{AccessKind, AccessTap, RaceSink, SyncEdge};
use crate::state::NodeState;
use crate::strategy::RseProbe;
use crate::wire::{Nodes, Wire};

/// A node process's context on the simulator: [`repseq_sim::Ctx`],
/// carrying [`DsmMsg`] and lent the node's [`NodeState`]. The protocol
/// handler does not get one: it is written against
/// [`repseq_sim::SendCtx`], the non-blocking half, and is handed a
/// [`repseq_sim::ReactorCtx`] (the `handler` module).
pub type NodeCtx = repseq_sim::Ctx<DsmMsg, NodeState>;

/// A node's application-side handle to the DSM. One per application
/// process. All shared-memory traffic, synchronization and statistics flow
/// through here.
pub struct DsmNode {
    /// The process's context, through which the simulation lends it its
    /// node's `NodeState` (`ctx.state()`, borrowed until the guard drops,
    /// which must be before the next yielding call).
    pub(crate) ctx: NodeCtx,
    /// The send path, and through it the cluster's wiring.
    pub(crate) wire: Wire,
    /// Race-detection sink (cloned off the topology); `None` costs one
    /// branch per access and nothing else.
    pub(crate) race: Option<Arc<dyn RaceSink>>,
}

impl DsmNode {
    /// Build the application-side handle, configured as its node's state.
    pub(crate) fn new(ctx: NodeCtx, wire: Wire) -> DsmNode {
        let race = wire.topo.race.clone();
        DsmNode { ctx, wire, race }
    }

    /// This node's id (0 is the master).
    pub fn node(&self) -> NodeId {
        self.wire.node()
    }

    /// Number of nodes in the cluster.
    pub fn n_nodes(&self) -> usize {
        self.wire.topo.n
    }

    /// True on the master node.
    pub fn is_master(&self) -> bool {
        self.node() == 0
    }

    /// Send `msg` to node `q` (see [`Wire::send`]).
    pub(crate) fn send(&self, q: NodeId, msg: DsmMsg) {
        self.wire.send(&self.ctx, q, msg);
    }

    /// Send one hub frame to `to` (see [`Wire::multicast`]).
    pub(crate) fn multicast(&self, to: Nodes, msg: DsmMsg) -> SimTime {
        self.wire.multicast(&self.ctx, to, msg)
    }

    /// Block until virtual time `at`, if it is still ahead: a sender that
    /// must not overtake its own hub frame over the switch waits for it to
    /// land.
    pub(crate) fn sleep_until(&self, at: SimTime) -> Result<(), Stopped> {
        let now = self.ctx.now();
        if at > now {
            self.ctx.sleep(at - now)?;
        }
        Ok(())
    }

    /// The simulator context (for charging application compute time, raw
    /// sends/receives in tests, and timeouts).
    pub fn ctx(&self) -> &NodeCtx {
        &self.ctx
    }

    /// Account for local computation.
    pub fn charge(&self, d: Dur) {
        self.ctx.charge(d);
    }

    /// The statistics registry.
    pub fn stats(&self) -> &StatsRef {
        &self.wire.topo.stats
    }

    /// The bytes of page `p` as a local read would see them, or `None` if
    /// this node's copy is invalid. Read-only — takes no faults, sends no
    /// messages, charges no time. This is the coherence oracle's window
    /// into each node's memory.
    pub fn inspect_page(&self, p: PageId) -> Option<Vec<u8>> {
        self.ctx.state().inspect_page(p)
    }

    /// Snapshot this node's replicated-section protocol state for invariant
    /// checks (see [`crate::RseProbe`]).
    pub fn rse_probe(&self) -> RseProbe {
        self.ctx.state().rse_probe()
    }

    // ---------------------------------------------------------------
    // Race-detection hooks (no-ops unless a sink is installed)
    // ---------------------------------------------------------------

    /// Report a shared-memory access to the race sink, if any.
    #[inline]
    pub(crate) fn race_access(&self, addr: u64, len: usize, kind: AccessKind) {
        if let Some(sink) = &self.race {
            sink.access(self.node(), addr, len, kind);
        }
    }

    /// Report a synchronization event to the race sink, if any.
    #[inline]
    pub(crate) fn race_sync(&self, edge: SyncEdge) {
        if let Some(sink) = &self.race {
            sink.sync(self.node(), edge);
        }
    }

    /// Label the code this node is about to run, for race-report
    /// provenance (e.g. `"bh::forces"`). Purely descriptive; a no-op
    /// without a race sink.
    pub fn race_label(&self, label: &'static str) {
        self.race_sync(SyncEdge::Section { label });
    }

    /// A recording handle for a page guard whose element 0 lives at
    /// virtual address `base` (see [`AccessTap`]).
    #[inline]
    pub(crate) fn race_tap(&self, base: u64) -> Option<AccessTap> {
        self.race.as_ref().map(|sink| AccessTap { sink: Arc::clone(sink), node: self.node(), base })
    }

    // ---------------------------------------------------------------
    // Shared-memory access (the software MMU)
    // ---------------------------------------------------------------
    //
    // The fast path is one look at the page table (`NodeState::mapped`),
    // which serves only accesses the walk would charge no virtual time
    // for; anything else walks: faults, fetches, materializes. The node's
    // `host` counters, plain fields of the lent state, count both.

    /// Open a page run over page `p`, which `buf` resolved (and counted):
    /// it serves `count` element accesses, each after the first skipping
    /// the walk exactly like a mapped access. A run that is a guard — its
    /// closure may yield — reads the node's own bytes of its page,
    /// materialized if a load mapped the page in place (a closure that
    /// stores into its page through another path reads the store back),
    /// and is counted on the page's slot until [`DsmNode::close_guard`]
    /// (the guard rule of [`PageBuf`]).
    #[inline]
    pub(crate) fn open_run(&self, p: PageId, buf: PageBuf, count: usize, guard: bool) -> PageBuf {
        let mut st = self.ctx.state();
        st.host.tlb_hits += count as u64 - 1;
        if !guard {
            return buf;
        }
        let page = st.page_mut(p);
        page.guards += 1;
        // A writable page is already the node's alone.
        if page.writable {
            return buf;
        }
        st.page_buf(p)
    }

    /// Close a guard [`DsmNode::open_run`] opened over page `p`.
    pub(crate) fn close_guard(&self, p: PageId) {
        self.ctx.state().page_mut(p).guards -= 1;
    }

    /// Resolve page `p` for reading, or for writing: straight from the
    /// page table if it maps the access, else by walking — faulting until
    /// valid (and writable). The handle stays byte-current across later
    /// protocol activity (diffs apply in place), but protocol *validity* is
    /// only pinned at acquisition — callers must not cache it across
    /// synchronization.
    #[inline]
    pub(crate) fn page_for(&self, p: PageId, write: bool) -> Result<PageBuf, Stopped> {
        {
            let mut st = self.ctx.state();
            if let Some(buf) = st.mapped(p, write) {
                st.host.tlb_hits += 1;
                return Ok(buf);
            }
            st.host.tlb_misses += 1;
        }
        self.walk(p, write)
    }

    /// The page walk: fault until page `p` is valid (and writable), then
    /// hand out its bytes: a store's own slot, or what a load reads.
    fn walk(&self, p: PageId, write: bool) -> Result<PageBuf, Stopped> {
        loop {
            {
                let mut st = self.ctx.state();
                let page = st.page_mut(p);
                if page.valid && (page.writable || !write) {
                    return Ok(if write { st.page_buf(p) } else { st.page_view(p) });
                }
                if page.valid {
                    // Write fault: purely local (twin creation, and during
                    // replicated sections the §5.3 pre-diff).
                    let cost = st.write_fault(p);
                    self.stats().on_page_fault(st.node);
                    drop(st);
                    self.ctx.charge(cost);
                    continue;
                }
            }
            // Invalid page: fetch it first.
            self.read_fault(p)?;
        }
    }

    /// Read a typed value from the shared address space.
    pub fn read<T: Pod>(&self, addr: u64) -> Result<T, Stopped> {
        assert!(T::SIZE <= 256, "shared values are limited to 256 bytes");
        let (p, off) = page_of(addr);
        if off + T::SIZE <= PAGE_SIZE {
            // Single-page fast path: decode straight from the page, no
            // intermediate buffer, no span loop.
            self.race_access(addr, T::SIZE, AccessKind::Read);
            let buf = self.page_for(p, false)?;
            return Ok(T::read_from(&buf.slice()[off..off + T::SIZE]));
        }
        let mut buf = [0u8; 256];
        self.read_bytes(addr, &mut buf[..T::SIZE])?;
        Ok(T::read_from(&buf[..T::SIZE]))
    }

    /// Write a typed value to the shared address space.
    pub fn write<T: Pod>(&self, addr: u64, v: T) -> Result<(), Stopped> {
        assert!(T::SIZE <= 256, "shared values are limited to 256 bytes");
        let (p, off) = page_of(addr);
        if off + T::SIZE <= PAGE_SIZE {
            self.race_access(addr, T::SIZE, AccessKind::Write);
            let mut buf = self.page_for(p, true)?;
            v.write_to(&mut buf.slice_mut()[off..off + T::SIZE]);
            return Ok(());
        }
        let mut buf = [0u8; 256];
        v.write_to(&mut buf[..T::SIZE]);
        self.write_bytes(addr, &buf[..T::SIZE])
    }

    /// Read raw bytes (may span pages; each page is checked and fetched
    /// independently, as the hardware would).
    pub fn read_bytes(&self, addr: u64, out: &mut [u8]) -> Result<(), Stopped> {
        self.race_access(addr, out.len(), AccessKind::Read);
        self.read_bytes_quiet(addr, out)
    }

    /// [`DsmNode::read_bytes`] without the race-detection record: used for
    /// runtime-internal reads that are not program accesses (a mutable
    /// page guard pre-filling the unwritten bytes of a straddling
    /// element).
    pub(crate) fn read_bytes_quiet(&self, addr: u64, out: &mut [u8]) -> Result<(), Stopped> {
        self.spans(addr, out.len(), false, |buf, pg, at| out[at].copy_from_slice(&buf.slice()[pg]))
    }

    /// Resolve each page that `len` bytes at `addr` touch, for reading or
    /// writing, and hand `f` the page, the part of it in the range and
    /// where that part sits in the range.
    fn spans(
        &self,
        addr: u64,
        len: usize,
        write: bool,
        mut f: impl FnMut(PageBuf, Range<usize>, Range<usize>),
    ) -> Result<(), Stopped> {
        let mut off = 0usize;
        while off < len {
            let (p, in_page) = page_of(addr + off as u64);
            let chunk = ((PAGE_SIZE - in_page).min(len - off)).max(1);
            f(self.page_for(p, write)?, in_page..in_page + chunk, off..off + chunk);
            off += chunk;
        }
        Ok(())
    }

    /// Write raw bytes (may span pages).
    pub fn write_bytes(&self, addr: u64, src: &[u8]) -> Result<(), Stopped> {
        self.race_access(addr, src.len(), AccessKind::Write);
        self.write_bytes_quiet(addr, src)
    }

    /// [`DsmNode::write_bytes`] without the race-detection record: used
    /// where the access was already reported element-wise (a mutable page
    /// guard writing back a straddling element its tap recorded).
    pub(crate) fn write_bytes_quiet(&self, addr: u64, src: &[u8]) -> Result<(), Stopped> {
        self.spans(addr, src.len(), true, |mut buf, pg, at| {
            buf.slice_mut()[pg].copy_from_slice(&src[at])
        })
    }
}
