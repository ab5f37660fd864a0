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

/// One node's own page bytes: one buffer per page the node stores into,
/// allocated when the page is materialized (its first store, a diff, a
/// broadcast or a page guard) and written in full (its image or zeros),
/// so no recycled heap byte ever shows in a page. A page the node only
/// reads has none: a read maps the segment's image in place. A buffer
/// is freed only with the store, and a `Vec`'s buffer stays put as the
/// `Vec` moves, so a slot stays put for the life of its node.
#[derive(Default)]
pub(crate) struct PageStore {
    slots: Vec<Vec<u8>>,
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

impl PageStore {
    /// A fresh slot holding `image`, or zeros.
    pub(crate) fn slot(&mut self, image: Option<&[u8]>) -> PageBuf {
        assert!(image.is_none_or(|img| img.len() == PAGE_SIZE), "an image is one page");
        let mut bytes = image.map_or_else(|| vec![0; PAGE_SIZE], <[u8]>::to_vec);
        let buf = PageBuf::of(&mut bytes);
        self.slots.push(bytes);
        buf
    }

    /// The pages this node materialized.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

/// A handle to one page's bytes: a `Copy` (pointer, length) into a slot
/// of the node's `PageStore`, into the shared segment's image of a page
/// (or its zero page) that a read maps in place, or into a page guard's
/// own copy of an element that straddles two pages. The data plane holds
/// one per page it has mapped and hands out copies
/// ([`NodeState::mapped`]); outside this crate a handle is opaque, and
/// inside it only an access in progress reads through one. Nothing writes
/// through an in-place handle: a store materializes its page first. A
/// protection change never moves the bytes a handle points at: it
/// changes the page table, which the next access checks.
///
/// Every handle the crate reads through is outlived by its bytes. A slot
/// lives as long as its node's `NodeState`, which the simulation drops
/// after every process has ended (lending it moves a `Box`, never the
/// slots), and so does the segment the state holds. Page-run guards are
/// the only holders that outlast one load or store: a guard lives inside
/// one `with_slices{,_mut}` call over a slot of its own, and a detached
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
    /// A handle to `bytes`' buffer, which stays put as the `Vec` moves;
    /// the `Vec`'s owner keeps it, unresized, while the handle is used.
    pub(crate) fn of(bytes: &mut Vec<u8>) -> PageBuf {
        let ptr = NonNull::new(bytes.as_mut_ptr()).expect("a page or element is never empty");
        PageBuf { ptr, len: bytes.len() }
    }

    /// A read-only handle to `bytes`, which outlive it (see [`PageBuf`]):
    /// nothing may write through it.
    pub(crate) fn image(bytes: &[u8]) -> PageBuf {
        PageBuf { ptr: NonNull::from(bytes).cast(), len: bytes.len() }
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
    /// through a handle that is not a [`PageBuf::image`]: every store
    /// resolves a writable page, which is materialized, or a slot it just
    /// materialized (`NodeState::page_buf`).
    #[inline]
    pub(crate) fn slice_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `slice`; no other reference into the page is live,
        // and the bytes are a slot or a guard's copy, never a shared image.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

/// One node's view of one shared page: its slot of the node's page table.
/// What every access and fault checks is here; what the protocol
/// remembers of the page's past is its [`PageHistory`], allocated with
/// the first entry, so a slot with its byte handle fits one cache line.
pub struct PageMeta {
    /// The twin saved at the first write since the page was last diffed.
    pub twin: Option<Box<[u8]>>,
    /// Software write permission: a write to a non-writable page traps.
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
        assert!(PageStore::default().slot(None).slice().iter().all(|&b| b == 0));
    }

    #[test]
    fn materialize_uses_initial_image() {
        let mut store = PageStore::default();
        assert!(store.slot(Some(&[7u8; PAGE_SIZE])).slice().iter().all(|&b| b == 7));
    }

    #[test]
    fn a_slot_never_moves_as_the_store_grows() {
        let mut store = PageStore::default();
        let mut bufs: Vec<PageBuf> = (0..48).map(|k| store.slot(Some(&[k; PAGE_SIZE]))).collect();
        for (k, buf) in bufs.iter_mut().enumerate() {
            assert!(buf.slice().iter().all(|&b| b == k as u8), "slot {k} lost its image");
            buf.slice_mut().fill(k as u8 + 100);
        }
        for (k, buf) in bufs.iter().enumerate() {
            assert!(buf.slice().iter().all(|&b| b == k as u8 + 100), "slot {k} shares its bytes");
        }
    }

    #[test]
    fn a_slot_is_written_in_full_when_handed_out() {
        let mut store = PageStore::default();
        for _ in 0..16 {
            store.slot(None).slice_mut().fill(0xA5);
        }
        drop(store);
        // The new store's slots likely reuse the buffers just freed, dirty bytes and all.
        let mut store = PageStore::default();
        let image: Vec<u8> = (0..PAGE_SIZE).map(|b| b as u8 | 1).collect();
        let (zero, img) = (store.slot(None), store.slot(Some(&image)));
        assert!(zero.slice().iter().all(|&b| b == 0));
        assert_eq!(img.slice(), &image[..]);
    }
}
