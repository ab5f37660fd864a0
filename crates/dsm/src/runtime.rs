//! The application-side runtime core: the `DsmNode` handle, cluster
//! topology, the software TLB, and typed shared-memory access with
//! software page faults. The blocking protocol operations live with their
//! layers — [`crate::fetch`] (demand fetching), [`crate::sync`]
//! (barrier/locks), [`crate::exec`] (fork/join) and [`crate::strategy`]
//! (sequential-section execution) — as further `impl DsmNode` blocks.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use parking_lot::Mutex;
use repseq_net::Nic;
use repseq_sim::{Dur, Pid, Stopped};
use repseq_stats::{MsgClass, NodeId, StatsRef};

use crate::dataplane::GenTable;
use crate::interval::PageId;
use crate::msg::DsmMsg;
use crate::page::PageBuf;
use crate::pod::Pod;
use crate::race::{AccessKind, AccessTap, RaceSink, SyncEdge};
use crate::state::NodeState;
use crate::strategy::RseProbe;
use crate::substrate::NodeCtx;

/// Software-TLB geometry: set-associative on the low page bits.
/// 128 sets × 4 ways = 512 cached translations — large kernel-phase
/// working sets fit, and the ways absorb pages whose strides alias the
/// same set (the old direct-mapped table thrashed on those).
const TLB_SETS: usize = 128;
const TLB_WAYS: usize = 4;

/// One cached translation: page → contents handle + write permission,
/// stamped with the page's protection generations it was filled under.
struct TlbEntry {
    page: PageId,
    /// The page's read (mapping) generation at fill. Invalidation or an
    /// out-of-band content change bumps it, so a stale entry fails the
    /// equality check and falls back to the locked walk.
    gen: u64,
    /// The page's write-permission generation at fill. A write-only
    /// revocation (interval close, §5.3 write-protect) bumps it, retiring
    /// this entry's *write* permission while reads keep hitting.
    wgen: u64,
    writable: bool,
    buf: PageBuf,
}

/// The per-application-process software TLB: a set-associative cache over
/// the node's page table, each entry valid only while its page's
/// protection generation is unchanged. Purely a host-time optimization —
/// lookups model no cost and hit only in states where the slow path would
/// also charge nothing, so virtual time and message counts are
/// bit-identical with the TLB off.
pub(crate) struct Tlb {
    sets: Vec<[Option<TlbEntry>; TLB_WAYS]>,
    /// Per-set round-robin victim cursor. Deterministic: replacement
    /// depends only on the access sequence, never on host state.
    rr: Vec<u8>,
}

impl Tlb {
    fn new() -> Tlb {
        Tlb {
            sets: (0..TLB_SETS).map(|_| std::array::from_fn(|_| None)).collect(),
            rr: vec![0; TLB_SETS],
        }
    }

    #[inline]
    fn set(p: PageId) -> usize {
        p as usize & (TLB_SETS - 1)
    }

    /// The cached translation for `p`, if present and stamped with the
    /// page's current read (mapping) generation `gen`. Callers that need
    /// write permission additionally check `writable` and the entry's
    /// write-generation stamp.
    #[inline]
    fn lookup(&self, p: PageId, gen: u64) -> Option<&TlbEntry> {
        self.sets[Self::set(p)].iter().flatten().find(|e| e.page == p && e.gen == gen)
    }

    /// Install a translation. Way choice is deterministic: the way already
    /// holding `p`, else an invalid way, else a way whose entry went stale
    /// under `gens`, else the set's round-robin victim.
    fn insert(&mut self, entry: TlbEntry, gens: &GenTable) {
        let s = Self::set(entry.page);
        let way = {
            let set = &self.sets[s];
            set.iter()
                .position(|e| e.as_ref().is_some_and(|e| e.page == entry.page))
                .or_else(|| set.iter().position(|e| e.is_none()))
                .or_else(|| {
                    set.iter()
                        .position(|e| e.as_ref().is_some_and(|e| e.gen != gens.page_read(e.page)))
                })
        };
        let way = way.unwrap_or_else(|| {
            let w = self.rr[s] as usize % TLB_WAYS;
            self.rr[s] = self.rr[s].wrapping_add(1);
            w
        });
        self.sets[s][way] = Some(entry);
    }
}

/// Cluster wiring shared by every process: which kernel pid is which. The
/// layout is fixed — handlers take pids `0..n`, applications `n..2n` — so
/// node ↔ pid is arithmetic in either direction.
pub(crate) struct Topology {
    pub n: usize,
    /// Application process of each node.
    pub app_pids: Vec<Pid>,
    /// Protocol-handler process of each node.
    pub handler_pids: Vec<Pid>,
    /// `(node, handler pid)` of every node, in node order.
    handlers: Vec<(NodeId, Pid)>,
    pub stats: StatsRef,
    /// Race-detection sink, if one was installed on the cluster.
    pub race: Option<Arc<dyn RaceSink>>,
}

impl Topology {
    pub(crate) fn new(n: usize, stats: StatsRef, race: Option<Arc<dyn RaceSink>>) -> Topology {
        let handler_pids: Vec<Pid> = (0..n).collect();
        let handlers = handler_pids.iter().copied().enumerate().collect();
        Topology { n, app_pids: (n..2 * n).collect(), handler_pids, handlers, stats, race }
    }

    /// The node whose application process is `pid`, if any.
    pub(crate) fn node_of_app(&self, pid: Pid) -> Option<NodeId> {
        (self.n..2 * self.n).contains(&pid).then(|| pid - self.n)
    }

    /// The node whose protocol handler is `pid`, if any.
    pub(crate) fn node_of_handler(&self, pid: Pid) -> Option<NodeId> {
        (pid < self.n).then_some(pid)
    }

    /// Destination list for a multicast to every handler (IP-multicast
    /// loopback included: the sender's own handler receives it too), in
    /// node order: `[1..]` is every handler but the master's.
    pub(crate) fn all_handlers(&self) -> &[(NodeId, Pid)] {
        &self.handlers
    }
}

/// A node's application-side handle to the DSM. One per application
/// process. All shared-memory traffic, synchronization and statistics flow
/// through here.
pub struct DsmNode {
    pub(crate) ctx: NodeCtx,
    pub(crate) nic: Nic,
    pub(crate) st: Arc<Mutex<NodeState>>,
    pub(crate) topo: Arc<Topology>,
    pub(crate) page_size: usize,
    /// This node's per-page protection generations (shared with
    /// [`NodeState`]); one relaxed load validates a TLB entry without
    /// taking the mutex.
    pub(crate) prot_gen: Arc<GenTable>,
    /// The software TLB. `RefCell`: the application process is the only
    /// borrower, and no borrow is held across a yielding call.
    pub(crate) tlb: RefCell<Tlb>,
    tlb_enabled: bool,
    /// Accesses served without the locked walk, and accesses that took
    /// it. Plain per-node counts: a shared-memory access executes no
    /// `lock`-prefixed instruction to be counted.
    tlb_hits: Cell<u64>,
    tlb_misses: Cell<u64>,
    /// Race-detection sink (cloned off the topology); `None` costs one
    /// branch per access and nothing else.
    pub(crate) race: Option<Arc<dyn RaceSink>>,
}

/// The application process owns its `DsmNode`, so the handle goes when the
/// process ends — returned, `Stopped` or unwinding — and leaves its TLB
/// counts with the node's other host counters, before the cluster sums
/// them.
impl Drop for DsmNode {
    fn drop(&mut self) {
        let host = &mut self.st.lock().host;
        host.tlb_hits += self.tlb_hits.get();
        host.tlb_misses += self.tlb_misses.get();
    }
}

impl DsmNode {
    /// Build the application-side handle, wiring the TLB to the node
    /// state's protection generation.
    pub(crate) fn new(
        ctx: NodeCtx,
        nic: Nic,
        st: Arc<Mutex<NodeState>>,
        topo: Arc<Topology>,
        page_size: usize,
        tlb_enabled: bool,
    ) -> DsmNode {
        let prot_gen = Arc::clone(&st.lock().data.prot_gen);
        let race = topo.race.clone();
        DsmNode {
            ctx,
            nic,
            st,
            topo,
            page_size,
            prot_gen,
            tlb: RefCell::new(Tlb::new()),
            tlb_enabled,
            tlb_hits: Cell::new(0),
            tlb_misses: Cell::new(0),
            race,
        }
    }

    /// This node's id (0 is the master).
    pub fn node(&self) -> NodeId {
        self.nic.node()
    }

    /// Number of nodes in the cluster.
    pub fn n_nodes(&self) -> usize {
        self.topo.n
    }

    /// True on the master node.
    pub fn is_master(&self) -> bool {
        self.node() == 0
    }

    /// Send `msg` to node `q`'s protocol handler: delivered at once with no
    /// network cost if `q` is this node, else a unicast of class `class`.
    pub(crate) fn to_handler(&self, q: NodeId, class: MsgClass, msg: DsmMsg) {
        let pid = self.topo.handler_pids[q];
        if q == self.node() {
            self.nic.local(&self.ctx, pid, msg);
        } else {
            let size = msg.wire_size();
            self.nic.unicast(&self.ctx, q, pid, class, size, msg);
        }
    }

    /// The substrate context (for charging application compute time, raw
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
        &self.topo.stats
    }

    /// The shared page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The bytes of page `p` as a local read would see them, or `None` if
    /// this node's copy is invalid. Read-only — takes no faults, sends no
    /// messages, charges no time. This is the coherence oracle's window
    /// into each node's memory.
    pub fn inspect_page(&self, p: PageId) -> Option<Vec<u8>> {
        self.st.lock().inspect_page(p)
    }

    /// Snapshot this node's replicated-section protocol state for invariant
    /// checks (see [`crate::RseProbe`]).
    pub fn rse_probe(&self) -> RseProbe {
        self.st.lock().rse_probe()
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
    // Two-level fast path. Level 1: the software TLB — a hit costs one
    // atomic load plus an array probe, no mutex, no page-table walk.
    // Level 2: the locked walk, which fills the TLB on the way out. The
    // fast path only covers accesses the slow path charges zero virtual
    // time for (valid reads, valid+writable writes), so enabling the TLB
    // cannot change simulated time or message counts.

    /// The one TLB probe: run `f` over the cached contents handle of page
    /// `p` if the TLB is on and holds a current mapping — for `write`, a
    /// *writable* one stamped with the page's current write generation —
    /// and count the hit.
    #[inline]
    fn tlb_probe<R>(&self, p: PageId, write: bool, f: impl FnOnce(PageBuf) -> R) -> Option<R> {
        if !self.tlb_enabled {
            return None;
        }
        let gen = self.prot_gen.page_read(p);
        let tlb = self.tlb.borrow();
        let e = tlb.lookup(p, gen)?;
        if write && !(e.writable && e.wgen == self.prot_gen.page_write(p)) {
            return None;
        }
        self.count_tlb_hits(1);
        Some(f(e.buf))
    }

    /// `n` accesses skipped the locked walk. A plain add — the application
    /// process is the only writer; `Drop` folds the total.
    #[inline]
    fn count_tlb_hits(&self, n: u64) {
        self.tlb_hits.set(self.tlb_hits.get() + n);
    }

    /// A page-run guard serves `count` element accesses from the one
    /// translation its acquisition just resolved (and counted): each after
    /// the first skips the walk exactly like a TLB hit.
    #[inline]
    pub(crate) fn count_run(&self, count: usize) {
        if self.tlb_enabled {
            self.count_tlb_hits(count as u64 - 1);
        }
    }

    /// Resolve page `p` for reading, or for writing: from the TLB, else by
    /// faulting until valid (and writable) and filling the TLB on the way.
    /// The handle stays byte-current across later protocol activity (diffs
    /// apply in place), but protocol *validity* is only pinned at
    /// acquisition — callers must not cache it across synchronization.
    pub(crate) fn page_for(&self, p: PageId, write: bool) -> Result<PageBuf, Stopped> {
        if let Some(buf) = self.tlb_probe(p, write, |b| b) {
            return Ok(buf);
        }
        if self.tlb_enabled {
            self.tlb_misses.set(self.tlb_misses.get() + 1);
        }
        loop {
            {
                let mut st = self.st.lock();
                let page = st.page_mut(p);
                if page.valid && (page.writable || !write) {
                    let writable = page.writable;
                    let buf = *st.page_buf(p);
                    drop(st);
                    if self.tlb_enabled {
                        // A translation filled under the current generations.
                        let (gen, wgen) = (self.prot_gen.page_read(p), self.prot_gen.page_write(p));
                        let entry = TlbEntry { page: p, gen, wgen, writable, buf };
                        self.tlb.borrow_mut().insert(entry, &self.prot_gen);
                    }
                    return Ok(buf);
                }
                if page.valid {
                    // Write fault: purely local (twin creation, and during
                    // replicated sections the §5.3 pre-diff).
                    let cost = st.write_fault(p);
                    self.topo.stats.on_page_fault(st.node);
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
        let ps = self.page_size as u64;
        let off = (addr % ps) as usize;
        if off + T::SIZE <= self.page_size {
            // Single-page fast path: decode straight from the page, no
            // intermediate buffer, no span loop.
            self.race_access(addr, T::SIZE, AccessKind::Read);
            let p = (addr / ps) as PageId;
            let hit = self.tlb_probe(p, false, |b| T::read_from(&b.slice()[off..off + T::SIZE]));
            if let Some(v) = hit {
                return Ok(v);
            }
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
        let ps = self.page_size as u64;
        let off = (addr % ps) as usize;
        if off + T::SIZE <= self.page_size {
            self.race_access(addr, T::SIZE, AccessKind::Write);
            let p = (addr / ps) as PageId;
            let hit =
                self.tlb_probe(p, true, |mut b| v.write_to(&mut b.slice_mut()[off..off + T::SIZE]));
            if hit.is_some() {
                return Ok(());
            }
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
        self.spans(addr, out.len(), false, |page, at| out[at].copy_from_slice(page))
    }

    /// Resolve each page that `len` bytes at `addr` touch, for reading or
    /// writing, and hand `f` the part of the page in the range and where
    /// that part sits in it.
    fn spans(
        &self,
        addr: u64,
        len: usize,
        write: bool,
        mut f: impl FnMut(&mut [u8], std::ops::Range<usize>),
    ) -> Result<(), Stopped> {
        let ps = self.page_size as u64;
        let mut off = 0usize;
        while off < len {
            let a = addr + off as u64;
            let in_page = (a % ps) as usize;
            let chunk = ((ps as usize - in_page).min(len - off)).max(1);
            let mut buf = self.page_for((a / ps) as PageId, write)?;
            f(&mut buf.slice_mut()[in_page..in_page + chunk], off..off + chunk);
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
        self.spans(addr, src.len(), true, |page, at| page.copy_from_slice(&src[at]))
    }
}
