//! Per-node page state: the software analogue of the VM page table plus
//! the TreadMarks bookkeeping (twin, write notices, valid timestamp,
//! cached diffs) and the replicated-section columns (§5.4.1 valid notices
//! of the peers, request and recovery-reply memory). One [`PageMeta`] is
//! one slot of the table `crate::dataplane` indexes by page number.

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use repseq_sim::SimTime;
use repseq_stats::NodeId;

use crate::diff::Diff;
use crate::vc::Vc;

/// The bytes of one page behind an interior-mutable cell, so the fast path
/// (software TLB, page guards) can read and write them without holding the
/// node-state mutex.
struct PageCell(UnsafeCell<Box<[u8]>>);

// Safety: the simulation engine runs exactly one process at a time (the
// channel handoff between processes is a happens-before edge), so at any
// instant at most one thread touches any page cell. See the safety
// contract on [`PageBuf::slice_mut`] for the aliasing side.
unsafe impl Send for PageCell {}
unsafe impl Sync for PageCell {}

/// A cheap-to-clone handle to one page's contents. `PageMeta::data` holds
/// one; the software TLB and the page guards hold clones, so a protection
/// change never invalidates the *bytes* a stale handle points at — stale
/// handles are fenced off by the protection generation counter instead.
pub struct PageBuf {
    cell: Arc<PageCell>,
}

impl PageBuf {
    /// A new buffer owning `bytes`.
    pub(crate) fn new(bytes: Box<[u8]>) -> PageBuf {
        PageBuf { cell: Arc::new(PageCell(UnsafeCell::new(bytes))) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.slice().len()
    }

    /// Whether the buffer is empty (it never is for a real page).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read access to the page bytes.
    ///
    /// Safety relies on the engine's serialization: exactly one simulated
    /// process runs at a time, and no caller keeps a returned slice alive
    /// across a yielding call (every `&[u8]` produced here is consumed
    /// within one straight-line access), so no mutable alias can exist
    /// while the slice is read.
    #[inline]
    pub(crate) fn slice(&self) -> &[u8] {
        unsafe { &*self.cell.0.get() }
    }

    /// Write access to the page bytes.
    ///
    /// Safety: same contract as [`PageBuf::slice`] — engine serialization
    /// plus the no-slice-across-yields rule mean at most one reference
    /// produced by this cell is live at any instant.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub(crate) fn slice_mut(&self) -> &mut [u8] {
        unsafe { &mut *self.cell.0.get() }
    }
}

impl Clone for PageBuf {
    fn clone(&self) -> PageBuf {
        PageBuf { cell: Arc::clone(&self.cell) }
    }
}

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageBuf({} bytes)", self.len())
    }
}

/// One node's view of one shared page: its slot of the node's page table,
/// holding everything the protocol knows about the page.
pub struct PageMeta {
    /// Page contents. `None` means the page still holds its initial image
    /// (materialized lazily on first write or diff application).
    pub data: Option<PageBuf>,
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
    /// This page's diff cache, keyed `(owner, interval)`: local creations
    /// and remote fetches, never evicted (garbage collection is out of
    /// scope, see DESIGN.md). One record can be keyed under several
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
            data: None,
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

    /// Materialize the page contents, starting from `image` (or zeros),
    /// and return the shared handle to them.
    pub fn buf(&mut self, page_size: usize, image: Option<&[u8]>) -> &PageBuf {
        self.data.get_or_insert_with(|| {
            PageBuf::new(match image {
                Some(img) => {
                    debug_assert_eq!(img.len(), page_size);
                    img.into()
                }
                None => vec![0u8; page_size].into_boxed_slice(),
            })
        })
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
    /// The whole slot on one line for failure reports: page bytes, twin
    /// and diff payloads are elided to presence and cache keys.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageMeta")
            .field("data", &self.data)
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
        let mut p = PageMeta::new(Vc::zero(2));
        assert!(p.valid && !p.writable);
        let data = p.buf(64, None).slice();
        assert!(data.iter().all(|&b| b == 0));
    }

    #[test]
    fn materialize_uses_initial_image() {
        let mut p = PageMeta::new(Vc::zero(2));
        let data = p.buf(16, Some(&[7u8; 16])).slice();
        assert!(data.iter().all(|&b| b == 7));
    }
}
