//! Per-node page state: the software analogue of the VM page table plus
//! the TreadMarks bookkeeping (twin, write notices, valid timestamp,
//! cached diffs) and the replicated-section columns (§5.4.1 valid notices
//! of the peers, request and recovery-reply memory). One [`PageMeta`] is
//! one slot of the table `crate::dataplane` indexes by page number; what
//! every access and fault checks is in the slot, and the page's protocol
//! history ([`PageHistory`]) behind one pointer.

use std::collections::BTreeMap;
use std::ptr::NonNull;
use std::sync::{Arc, Once};

use repseq_sim::SimTime;
use repseq_stats::NodeId;

use crate::config::PAGE_SIZE;
use crate::diff::Diff;
use crate::vc::Vc;

/// One page's bytes. A page-table slot holds them behind an `Arc`: the
/// shared segment's image of the page (or its zero page) while the node
/// only reads it, else bytes the node materialized, which it shares with
/// every node that holds the same bytes — replicas that retired the page
/// alike in a replicated section, readers that fetched a writer's diffs
/// (DESIGN.md §8). A node writes a page only while it holds the only
/// reference: a write fault copies a shared page first (`PageBuf::own`).
pub type Page = [u8; PAGE_SIZE];

/// A buffer of its own holding `page`'s bytes: copy on write's copy,
/// straight into the new buffer (`Arc::new` of the bytes would copy them
/// through the stack first).
pub(crate) fn copy_of(page: &Arc<Page>) -> Arc<Page> {
    let mut copy = Arc::clone(page);
    Arc::make_mut(&mut copy);
    copy
}

#[cfg(not(target_env = "gnu"))]
compile_error!("repseq-dsm tunes glibc's allocator (`keep_heap`): it builds against glibc only");

extern "C" {
    /// glibc's allocator tuning call (`malloc.h`).
    fn mallopt(param: i32, value: i32) -> i32;
}
/// `mallopt`'s `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD` (`malloc.h`).
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Make the process keep the heap it frees, for the rest of its life; the
/// first cluster launch calls it (see `Cluster::launch`). glibc gives the
/// top of the heap back to the kernel whenever a free of 64 KiB or more
/// reaches it, as a node's teardown does, and the next cluster would then
/// fault every page in anew (DESIGN.md §8). Fixing the trim threshold
/// switches off glibc's dynamic mmap threshold, so that one is fixed at
/// the dynamic rule's ceiling.
pub(crate) fn keep_heap() {
    static ONCE: Once = Once::new();
    // SAFETY: `mallopt` takes two integers and only sets an allocator
    // parameter; glibc declares it `int mallopt(int, int)`.
    ONCE.call_once(|| unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    });
}

/// A handle to one page's bytes: a `Copy` (pointer, length) into the
/// [`Page`] buffer a page-table slot holds, or into a page guard's own
/// copy of an element that straddles two pages. The data plane hands out
/// handles to its slots' buffers ([`NodeState::mapped`]); outside this
/// crate a handle is opaque, and inside it only an access in progress
/// reads through one. Only the holder of a buffer's one reference writes
/// through a handle to it: a store resolves a writable page, and a page
/// turns writable only through `PageBuf::own`, which copies a shared
/// buffer first. A protection change never moves the bytes a handle
/// points at: it changes the page table, which the next access checks.
///
/// Every handle the crate reads through is outlived by its bytes. A
/// buffer lives while one of its holders does: the segment, a slot, a
/// twin ([`PageMeta::twin`]), a message (`SeqGo`'s retired pages, a
/// `DiffReply`'s lent page) or a fetch that holds the pages its replies
/// lent. A slot lets go of its buffer only for another — a write
/// fault's copy of a shared page (the shared buffer stays on as the
/// twin), a slave's adoption of the master's identical copy of a retired
/// page at a section end, a fetch's swap for the writer's identical
/// buffer — or with its node's `NodeState`, which the simulation drops
/// after every process has ended. A load or store reads through its
/// handle within one straight-line access.
///
/// Page-run guards are the only holders that outlast one, and the guard
/// rule keeps theirs: a guard lives inside one `with_slices{,_mut}` call
/// over a buffer its node holds alone (the guard materialized it), and
/// while `PageMeta::guards` counts it the node lends the page to no
/// fetch, retires it into no `SeqGo` (`retired_pages` asserts it) and
/// swaps it for no other buffer. So the buffer stays the node's alone,
/// the next store writes it in place (a page held alone is twinned by a
/// copy), and the guard's handle stays the slot's bytes. A detached
/// guard owns the `Vec` its handle points into.
///
/// [`NodeState::mapped`]: crate::NodeState::mapped
#[derive(Clone, Copy)]
pub struct PageBuf {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: both fields are plain data; only the one simulated process
// running at a time dereferences a handle, under the contract on
// [`PageBuf::slice`], so no two threads touch its bytes at once.
unsafe impl Send for PageBuf {}
unsafe impl Sync for PageBuf {}

impl PageBuf {
    /// A handle to `bytes`, which their owner keeps while the handle is
    /// used: a detached guard's copy, or a page its holder holds alone.
    pub(crate) fn of(bytes: &mut [u8]) -> PageBuf {
        let ptr = NonNull::new(bytes.as_mut_ptr()).expect("a page or element is never empty");
        PageBuf { ptr, len: bytes.len() }
    }

    /// A handle to `page`'s bytes: to read, or to write where the caller
    /// holds the only reference (see [`PageBuf`]).
    #[inline]
    pub(crate) fn page(page: &Arc<Page>) -> PageBuf {
        let ptr = NonNull::new(Arc::as_ptr(page).cast_mut()).expect("an `Arc` is never null");
        PageBuf { ptr: ptr.cast(), len: PAGE_SIZE }
    }

    /// Make `page` its holder's alone, copying it if another holder shares
    /// it (copy on write), and hand out a handle to write through.
    pub(crate) fn own(page: &mut Arc<Page>) -> PageBuf {
        PageBuf::of(&mut Arc::make_mut(page)[..])
    }

    /// Read access to the page bytes.
    ///
    /// Safety relies on the engine's serialization: exactly one simulated
    /// process runs at a time, and no caller keeps a slice of a page alive
    /// across a yielding call (each is consumed within one straight-line
    /// access), so no other reference into the page is live meanwhile.
    #[inline]
    pub(crate) fn slice(&self) -> &[u8] {
        // SAFETY: the handle's bytes are alive (see [`PageBuf`]) and
        // unaliased by a live `&mut` (above).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Write access to the page bytes, under [`PageBuf::slice`]'s contract,
    /// through a handle to bytes its node holds alone: every store
    /// resolves a writable page, which [`PageBuf::own`] made its node's
    /// alone, or a guard's copy.
    #[inline]
    pub(crate) fn slice_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `slice`; no other reference into the page is live,
        // and no other holder shares the bytes (above).
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

/// One node's view of one shared page: its slot of the node's page table.
/// What every access and fault checks is here, and the data plane keeps
/// the reference to the page's bytes beside it (a [`Page`], which other
/// nodes may share: see [`PageBuf`]). What the protocol remembers of the
/// page's past is its [`PageHistory`], allocated with the first entry, so
/// a slot with its byte reference fits one cache line.
pub struct PageMeta {
    /// The page's bytes as they were at the first write since it was last
    /// diffed. A write fault on a page whose buffer the node shares keeps
    /// that buffer as the twin and writes into a copy; a page the node
    /// holds alone is twinned by a copy, so its buffer stays put.
    pub twin: Option<Arc<Page>>,
    /// Software write permission: a write to a non-writable page traps.
    /// Only a write fault sets it, once the page's bytes are the node's
    /// alone.
    pub writable: bool,
    /// Software validity: a read of an invalid page traps.
    pub valid: bool,
    /// The *valid notice* (§5.4.1): this node's vector time when the page
    /// was last brought fully up to date. A write notice `(owner, ivx)` is
    /// incorporated in the local copy iff `valid_at.covers(owner, ivx)`.
    pub valid_at: Vc,
    /// Written during the current (open) interval.
    pub written_cur: bool,
    /// Written during the current replicated sequential section; such
    /// writes produce no write notices and no diffs (§5.3).
    pub rse_dirty: bool,
    /// Dirty page write-protected at replicated-section entry (§5.3): the
    /// first write inside the section must create the pre-section diff
    /// before the page may change.
    pub rse_protected: bool,
    /// The peers' valid notices for this page (§5.4.1), as exchanged: a
    /// stamp every node is known to hold (section retirement makes the
    /// page valid everywhere at the entry time — common knowledge, stored
    /// once rather than once per peer), overridden by what each peer has
    /// announced since ([`PageHistory::peer_announced`]). See
    /// [`PageMeta::peer_valid_at`].
    pub(crate) peers_valid_at: Option<Vc>,
    /// Own valid notice changed since the last exchange (the page is on
    /// the `RseState::valid_changed` worklist).
    pub(crate) valid_changed: bool,
    /// Live page-run guards over the page on this node: while one lives
    /// the page's buffer is neither lent, retired into a `SeqGo` nor
    /// swapped (see [`PageBuf`]). The protocol handler reads it.
    pub(crate) guards: u16,
    /// The page's history; `None` while it has no entry.
    pub(crate) history: Option<Box<PageHistory>>,
}

/// What the protocol remembers of one page's past: its write notices and
/// diffs, the peers' announcements and the recovery-reply memory. A slot
/// allocates one with its first entry, and a replicated section's
/// retirement drops it unless it holds a recovery reply (DESIGN.md §7).
#[derive(Default)]
pub struct PageHistory {
    /// Every write notice known for this page, own and remote.
    pub notices: Vec<(NodeId, u32)>,
    /// Own closed intervals that have write notices for this page but no
    /// diff yet (lazy diff creation). The eventual diff against the twin
    /// covers all of them.
    pub own_undiffed: Vec<u32>,
    /// This page's diff cache, keyed `(owner, interval)`: own records until
    /// a replicated section retires the page, and remote ones the copy does
    /// not cover yet (DESIGN.md §7). One record can be keyed under several
    /// intervals it covers.
    pub(crate) diffs: BTreeMap<(NodeId, u32), DiffEntry>,
    /// What each peer has announced of its valid notice since the page was
    /// last retired, ascending by node.
    pub(crate) peer_announced: Vec<(NodeId, Vc)>,
    /// Owner side (§5.4.2 recovery): the time of the last out-of-band
    /// reply this handler multicast for the page, and the union of the
    /// interval indices those replies served. Recovery replies go to
    /// every handler, so one reply serves every concurrent requester;
    /// when a delayed request or chain makes all ~n waiters time out at
    /// once, this memory lets the owner answer the first request and
    /// suppress the other n-1 identical ones (see the handler's
    /// `RecoveryRequest` arm) instead of multicasting n copies — the
    /// flow-control improvement §8 of the paper calls for. Cleared at
    /// section entry (worklist: `RseState::oob_replied`); bounded by the
    /// timeout window so lost replies are still re-served on the
    /// requester's next retry.
    pub(crate) oob_reply: Option<(SimTime, Vec<u32>)>,
}

/// The history of a page that has none.
static NO_HISTORY: PageHistory = PageHistory {
    notices: Vec::new(),
    own_undiffed: Vec::new(),
    diffs: BTreeMap::new(),
    peer_announced: Vec::new(),
    oob_reply: None,
};

impl PageMeta {
    /// A fresh page view: valid, read-only, holding the initial image.
    /// `zero` is the cluster's zero timestamp; every slot's clone shares
    /// its buffer, so an untouched slot owns no heap memory.
    pub fn new(zero: Vc) -> PageMeta {
        PageMeta {
            twin: None,
            writable: false,
            valid: true,
            valid_at: zero,
            written_cur: false,
            rse_dirty: false,
            rse_protected: false,
            peers_valid_at: None,
            valid_changed: false,
            guards: 0,
            history: None,
        }
    }

    /// The page's history (empty if it has none).
    pub fn history(&self) -> &PageHistory {
        self.history.as_deref().unwrap_or(&NO_HISTORY)
    }

    /// The page's history, allocated with its first entry.
    pub(crate) fn history_mut(&mut self) -> &mut PageHistory {
        self.history.get_or_insert_default()
    }

    /// Node `q`'s valid notice for this page as last exchanged: what `q`
    /// announced since the page was last retired by a replicated section,
    /// else the retirement stamp, else `None` (never valid-noticed: zero).
    /// Every node computes the same answer from the same exchanges, which
    /// is what makes the requester election identical everywhere.
    pub fn peer_valid_at(&self, q: NodeId) -> Option<&Vc> {
        let announced = &self.history().peer_announced;
        match announced.binary_search_by_key(&q, |e| e.0) {
            Ok(i) => Some(&announced[i].1),
            Err(_) => self.peers_valid_at.as_ref(),
        }
    }

    /// Record node `q`'s announced valid notice (a valid-notice exchange).
    pub(crate) fn announce_peer_valid(&mut self, q: NodeId, vc: Vc) {
        let announced = &mut self.history_mut().peer_announced;
        match announced.binary_search_by_key(&q, |e| e.0) {
            Ok(i) => announced[i].1 = vc,
            Err(i) => announced.insert(i, (q, vc)),
        }
    }
}

impl std::fmt::Debug for PageMeta {
    /// The whole slot on one line for failure reports: twin and diff
    /// payloads are elided to presence and cache keys.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let h = self.history();
        f.debug_struct("PageMeta")
            .field("twin", &self.twin.is_some())
            .field("writable", &self.writable)
            .field("valid", &self.valid)
            .field("valid_at", &self.valid_at)
            .field("notices", &h.notices)
            .field("own_undiffed", &h.own_undiffed)
            .field("written_cur", &self.written_cur)
            .field("rse_dirty", &self.rse_dirty)
            .field("rse_protected", &self.rse_protected)
            .field("diffs", &h.diffs.keys().collect::<Vec<_>>())
            .field("peers_valid_at", &self.peers_valid_at)
            .field("peer_announced", &h.peer_announced)
            .field("valid_changed", &self.valid_changed)
            .field("oob_reply", &h.oob_reply)
            .finish()
    }
}

/// A diff as shipped and cached: the owner, *every* interval of the owner
/// the diff covers, and the data. With lazy diff creation one diff can
/// cover several intervals of its writer (the page stayed twinned across
/// interval closes); shipping the full coverage lets the receiver record
/// exactly how far its copy now reaches — re-fetching the same bytes under
/// a different interval tag (which could clobber newer local writes) is
/// thereby impossible.
#[derive(Debug)]
pub struct DiffRecord {
    pub owner: NodeId,
    /// Ascending interval indices of `owner` whose write notices this diff
    /// satisfies. An owner's records for one page cover disjoint intervals
    /// (diff creation drains the undiffed list), so `(owner, covers[0])`
    /// names exactly one record.
    pub covers: Vec<u32>,
    pub diff: Diff,
}

impl DiffRecord {
    /// Highest covered interval.
    pub(crate) fn max_ivx(&self) -> u32 {
        *self.covers.last().expect("a diff covers at least one interval")
    }
}

/// Shared handle to a cached diff.
pub type DiffEntry = Arc<DiffRecord>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_page_is_valid_readonly_zero() {
        let p = PageMeta::new(Vc::zero(2));
        assert!(p.valid && !p.writable && p.twin.is_none());
        assert!(crate::SharedSegment::new(1).view(0).iter().all(|&b| b == 0));
    }

    /// Materializing a page another holder shares copies it: the copy
    /// holds the image, and a store into the copy leaves the image alone.
    /// A page held alone is written in place.
    #[test]
    fn materialize_uses_initial_image() {
        let image = Arc::new([7u8; PAGE_SIZE]);
        let mut slot = Arc::clone(&image);
        PageBuf::own(&mut slot).slice_mut()[0] = 9;
        assert!(!Arc::ptr_eq(&slot, &image), "a shared page is copied before a store");
        assert_eq!((slot[0], slot[1], image[0]), (9, 7, 7));
        let at = Arc::as_ptr(&slot);
        PageBuf::own(&mut slot).slice_mut()[1] = 9;
        assert_eq!((Arc::as_ptr(&slot), slot[1]), (at, 9), "a page held alone is not copied");
    }

    #[test]
    fn a_slot_is_written_in_full_when_handed_out() {
        let dirty: Vec<Arc<Page>> = (0..16).map(|_| Arc::new([0xA5; PAGE_SIZE])).collect();
        drop(dirty);
        // The copy likely reuses a buffer just freed, dirty bytes and all.
        let image: Page = std::array::from_fn(|b| b as u8 | 1);
        let mut slot = Arc::new(image);
        let shared = Arc::clone(&slot);
        PageBuf::own(&mut slot);
        assert_eq!(slot[..], shared[..]);
    }
}
