//! Per-node page state: the software analogue of the VM page table plus
//! the TreadMarks bookkeeping (twin, write notices, valid timestamp,
//! cached diffs) and the replicated-section columns (§5.4.1 valid notices
//! of the peers, request and recovery-reply memory). One [`PageMeta`] is
//! one slot of the table `crate::dataplane` indexes by page number.

use std::collections::BTreeMap;
use std::ptr::NonNull;
use std::sync::{Arc, Once};

use repseq_sim::SimTime;
use repseq_stats::NodeId;

use crate::config::PAGE_SIZE;
use crate::diff::Diff;
use crate::vc::Vc;

/// One node's page bytes: one buffer per page, allocated at the page's
/// first touch and written in full (its image or zeros), so an untouched
/// page has none and no recycled heap byte ever shows in a page. A buffer
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
}

/// A handle to one page's bytes: a `Copy` (pointer, length) into a slot
/// of the node's `PageStore`, or into a page guard's own copy of an
/// element that straddles two pages. The data plane holds one per
/// materialized page and hands out copies ([`NodeState::mapped`]); outside
/// this crate a handle is opaque, and inside it only an access in progress
/// reads through one. A protection change never moves the bytes a handle
/// points at: it changes the page table, which the next access checks.
///
/// Every handle the crate reads through is outlived by its bytes. A slot
/// lives as long as its node's `NodeState`, which the simulation drops
/// after every process has ended (lending it moves a `Box`, never the
/// slots). Page-run guards are the only holders that outlast one load or
/// store: a guard lives inside one `with_slices{,_mut}` call, and a
/// detached guard owns the `Vec` its handle points into.
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

    /// Write access to the page bytes, under [`PageBuf::slice`]'s contract.
    #[inline]
    pub(crate) fn slice_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `slice`; no other reference into the page is live.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

/// One node's view of one shared page: its slot of the node's page table,
/// holding everything the protocol knows about the page.
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
    /// Every write notice known for this page, own and remote.
    pub notices: Vec<(NodeId, u32)>,
    /// Own closed intervals that have write notices for this page but no
    /// diff yet (lazy diff creation). The eventual diff against the twin
    /// covers all of them.
    pub own_undiffed: Vec<u32>,
    /// Written during the current (open) interval.
    pub written_cur: bool,
    /// Written during the current replicated sequential section; such
    /// writes produce no write notices and no diffs (§5.3).
    pub rse_dirty: bool,
    /// Dirty page write-protected at replicated-section entry (§5.3): the
    /// first write inside the section must create the pre-section diff
    /// before the page may change.
    pub rse_protected: bool,
    /// This page's diff cache, keyed `(owner, interval)`: own records until
    /// a replicated section retires the page, and remote ones the copy does
    /// not cover yet (DESIGN.md §7). One record can be keyed under several
    /// intervals it covers.
    pub(crate) diffs: BTreeMap<(NodeId, u32), DiffEntry>,
    /// The peers' valid notices for this page (§5.4.1), as exchanged: a
    /// stamp every node is known to hold (section retirement makes the
    /// page valid everywhere at the entry time — common knowledge, stored
    /// once rather than once per peer) ...
    pub(crate) peers_valid_at: Option<Vc>,
    /// ... overridden by what each peer has announced since, ascending by
    /// node. See [`PageMeta::peer_valid_at`].
    pub(crate) peer_announced: Vec<(NodeId, Vc)>,
    /// Own valid notice changed since the last exchange (the page is on
    /// the `RseState::valid_changed` worklist).
    pub(crate) valid_changed: bool,
    /// A multicast request for this page went out in the current
    /// replicated section (worklist: `RseState::requested`).
    pub(crate) requested: bool,
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
            notices: Vec::new(),
            own_undiffed: Vec::new(),
            written_cur: false,
            rse_dirty: false,
            rse_protected: false,
            diffs: BTreeMap::new(),
            peers_valid_at: None,
            peer_announced: Vec::new(),
            valid_changed: false,
            requested: false,
            oob_reply: None,
        }
    }

    /// Node `q`'s valid notice for this page as last exchanged: what `q`
    /// announced since the page was last retired by a replicated section,
    /// else the retirement stamp, else `None` (never valid-noticed: zero).
    /// Every node computes the same answer from the same exchanges, which
    /// is what makes the requester election identical everywhere.
    pub fn peer_valid_at(&self, q: NodeId) -> Option<&Vc> {
        match self.peer_announced.binary_search_by_key(&q, |e| e.0) {
            Ok(i) => Some(&self.peer_announced[i].1),
            Err(_) => self.peers_valid_at.as_ref(),
        }
    }

    /// Record node `q`'s announced valid notice (a valid-notice exchange).
    pub(crate) fn announce_peer_valid(&mut self, q: NodeId, vc: Vc) {
        match self.peer_announced.binary_search_by_key(&q, |e| e.0) {
            Ok(i) => self.peer_announced[i].1 = vc,
            Err(i) => self.peer_announced.insert(i, (q, vc)),
        }
    }
}

impl std::fmt::Debug for PageMeta {
    /// The whole slot on one line for failure reports: twin and diff
    /// payloads are elided to presence and cache keys.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageMeta")
            .field("twin", &self.twin.is_some())
            .field("writable", &self.writable)
            .field("valid", &self.valid)
            .field("valid_at", &self.valid_at)
            .field("notices", &self.notices)
            .field("own_undiffed", &self.own_undiffed)
            .field("written_cur", &self.written_cur)
            .field("rse_dirty", &self.rse_dirty)
            .field("rse_protected", &self.rse_protected)
            .field("diffs", &self.diffs.keys().collect::<Vec<_>>())
            .field("peers_valid_at", &self.peers_valid_at)
            .field("peer_announced", &self.peer_announced)
            .field("valid_changed", &self.valid_changed)
            .field("requested", &self.requested)
            .field("oob_reply", &self.oob_reply)
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
