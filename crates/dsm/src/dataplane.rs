//! The data plane: the page table — page contents, twins, cached diffs.
//!
//! This layer owns *the page table* and the bytes behind it: one
//! [`PageMeta`] slot per page of the shared segment, indexed by page
//! number. Mapping reads of untouched pages in place, materializing pages
//! from the segment, twinning on write faults
//! (outside replicated sections: a replicated write is diffed by nobody),
//! lazy diff creation and application and the per-page diff cache happen
//! here, and every load and store checks the table itself
//! ([`NodeState::mapped`]): a protection change is the slot's bits and
//! nothing else. It reads the interval store to order the
//! diffs a copy is missing but never mutates interval or vector-clock
//! state beyond the coverage stamp (`valid_at`) of its own pages.

use std::sync::Arc;
use std::time::Instant;

use repseq_sim::Dur;
use repseq_stats::NodeId;

use crate::config::{diff_apply_cost, DIFF_CREATE_COST, FAULT_OVERHEAD, TWIN_COST};
use crate::diff::Diff;
use crate::interval::PageId;
use crate::page::{copy_of, DiffEntry, DiffRecord, Page, PageBuf, PageMeta};
use crate::shmem::SharedSegment;
use crate::vc::Vc;

/// Page/twin/diff state: one node's local memory.
pub(crate) struct DataPlane {
    /// The page table, indexed by `PageId`: one slot per page of the
    /// shared segment, sized at launch. Only a hand-built state (unit
    /// tests: an empty segment) grows it, on first touch.
    pub(crate) pages: Vec<PageMeta>,
    /// Each page's contents by `PageId`: `None` until the first access,
    /// the segment's buffer while the node only reads the page, and from
    /// its materialization on a buffer other nodes share while their
    /// bytes are the same: a page a replicated section retired alike
    /// everywhere, a page fetched from its writer. A write fault copies a
    /// shared buffer, which stays on as the page's twin. Kept apart from
    /// the public [`PageMeta`], so no handle can reach another node.
    pub(crate) bytes: Vec<Option<Arc<Page>>>,
    /// Pages with a twin (writes not yet diffed).
    pub(crate) dirty_pages: Vec<PageId>,
    /// The cluster's shared segment: the initial image, written before
    /// the run starts. A read maps it in place; a slot copies its page out
    /// when it first needs bytes of its own.
    pub(crate) segment: Arc<SharedSegment>,
    /// The zero timestamp every untouched slot's `valid_at` shares.
    pub(crate) zero: Vc,
}

impl DataPlane {
    /// One node's data plane over `segment`, whose page count sizes the
    /// page table.
    pub(crate) fn new(n: usize, segment: Arc<SharedSegment>) -> DataPlane {
        let zero = Vc::zero(n);
        DataPlane {
            pages: (0..segment.pages()).map(|_| PageMeta::new(zero.clone())).collect(),
            bytes: vec![None; segment.pages()],
            dirty_pages: Vec::new(),
            segment,
            zero,
        }
    }
}

use crate::state::NodeState;

impl NodeState {
    /// The page's own contents, materialized from the shared segment.
    pub fn page_data(&mut self, p: PageId) -> &mut [u8] {
        &mut Arc::make_mut(self.page_slot(p))[..]
    }

    /// A handle to the page's own bytes, copied from the buffer the slot
    /// shares (the segment's image or zeros, or a retired page) when the
    /// page is materialized: at its first store, diff, broadcast or page
    /// guard, and at a store into a page a replicated section retired.
    pub(crate) fn page_buf(&mut self, p: PageId) -> PageBuf {
        PageBuf::own(self.page_slot(p))
    }

    /// The bytes a load of page `p` reads: the node's own, or the
    /// segment's until it has some. Recorded in the table, so the next
    /// load maps it.
    pub(crate) fn page_view(&mut self, p: PageId) -> PageBuf {
        PageBuf::page(self.page_slot(p))
    }

    /// Page `p`'s buffer, the segment's until the node has one of its own.
    fn page_slot(&mut self, p: PageId) -> &mut Arc<Page> {
        self.page_mut(p);
        let DataPlane { bytes, segment, .. } = &mut self.data;
        bytes[p as usize].get_or_insert_with(|| segment.view(p))
    }

    /// The software MMU's check: the handle to page `p`'s bytes if the
    /// page table maps the access as it stands — the copy is valid,
    /// mapped, and writable or the access a read (a writable page is
    /// always bytes the node holds alone). The walk would serve each such access
    /// without charging anything; any other access walks (fault, fetch,
    /// map).
    #[inline]
    pub fn mapped(&self, p: PageId, write: bool) -> Option<PageBuf> {
        let page = self.data.pages.get(p as usize)?;
        if !page.valid || (write && !page.writable) {
            return None;
        }
        self.data.bytes[p as usize].as_ref().map(PageBuf::page)
    }

    /// This node's slot for page `p`.
    pub fn page_mut(&mut self, p: PageId) -> &mut PageMeta {
        let DataPlane { pages, bytes, segment, zero, .. } = &mut self.data;
        if p as usize >= pages.len() {
            // A launched cluster sized the table for its whole segment.
            debug_assert_eq!(segment.pages(), 0, "page {p} is outside the shared segment");
            pages.resize_with(p as usize + 1, || PageMeta::new(zero.clone()));
            bytes.resize(p as usize + 1, None);
        }
        &mut pages[p as usize]
    }

    /// Create the diff for a twinned page (lazy diff creation, §5.1).
    /// Returns the modeled cost. Afterwards the page is clean: no twin,
    /// write-protected, out of the dirty set.
    pub(crate) fn create_own_diff(&mut self, p: PageId) -> Dur {
        let node = self.node;
        let mut cost = DIFF_CREATE_COST;
        let bytes = self.data.bytes[p as usize].as_ref().map(PageBuf::page);
        let bytes = bytes.expect("twinned page must be materialized");
        let (page, data) = (&mut self.data.pages[p as usize], bytes.slice());
        let mut twin = page.twin.take().expect("diffing a page without a twin");
        let timer = Instant::now();
        let diff = Diff::create(&twin[..], data);
        self.host.diff_created(timer, 2 * data.len() as u64);
        let ivxs = std::mem::take(&mut page.history_mut().own_undiffed);
        let written_cur = page.written_cur;
        page.rse_protected = false;
        if written_cur {
            // The diff was requested mid-interval: it already contains the
            // current interval's writes so far, but that interval's write
            // notice does not exist yet. Re-twin immediately so the rest of
            // the current interval stays separable. The page is writable, so
            // held alone: a copy, into the twin just consumed unless another
            // holder shares it.
            debug_assert!(!self.rse.active, "node {node}: re-twin of page {p} in a section");
            cost += TWIN_COST;
            match Arc::get_mut(&mut twin) {
                Some(buf) => buf.copy_from_slice(bytes.slice()),
                None => twin = copy_of(self.page_slot(p)),
            }
            self.data.pages[p as usize].twin = Some(twin);
            // stays writable and in the dirty set
        } else {
            self.data.pages[p as usize].writable = false;
            self.data.dirty_pages.retain(|&q| q != p);
        }
        let record = Arc::new(DiffRecord { owner: node, covers: ivxs.clone(), diff });
        let diffs = &mut self.data.pages[p as usize].history_mut().diffs;
        for ivx in ivxs {
            let held = diffs.insert((node, ivx), Arc::clone(&record));
            debug_assert!(held.is_none(), "node {node}: interval {ivx} of page {p} diffed twice");
        }
        cost
    }

    /// Handle a write fault on a *valid* page: create the twin if the page
    /// has none. A page re-protected at an interval close keeps its twin;
    /// the fault only re-enables writing and records the page in the new
    /// interval's write set. Inside a replicated section no twin is made:
    /// every node applies the same writes, which produce no write notice
    /// and no diff (§5.3). A dirty page's pre-section diff is created
    /// first, and the section's first write fault on a page is charged the
    /// twin all the same, so virtual time does not depend on the copy.
    /// Returns the cost to charge.
    pub fn write_fault(&mut self, p: PageId) -> Dur {
        let mut cost = FAULT_OVERHEAD;
        if self.rse.active {
            if self.page_mut(p).rse_protected {
                // Create the pre-section diff before the page may change.
                cost += self.create_own_diff(p);
            }
            self.page_buf(p); // the node's alone: the write lands in its copy
            let page = &mut self.data.pages[p as usize];
            debug_assert!(page.valid && page.twin.is_none(), "write fault on page {p}");
            page.writable = true;
            if !page.rse_dirty {
                cost += TWIN_COST;
                page.rse_dirty = true;
                self.rse.dirty.push(p);
            }
            return cost;
        }
        if self.page_mut(p).twin.is_none() {
            cost += TWIN_COST;
            // A buffer the node shares (the segment's image, a retired or a
            // fetched page) is the twin as it stands, and the store below
            // copies it; one held alone is twinned by a copy, so the bytes
            // a page guard holds never move.
            let slot = self.page_slot(p);
            let twin = if Arc::strong_count(slot) > 1 { Arc::clone(slot) } else { copy_of(slot) };
            let page = &mut self.data.pages[p as usize];
            debug_assert!(page.valid, "write fault on an invalid page");
            page.twin = Some(twin);
            self.data.dirty_pages.push(p);
        }
        // A page re-protected with its twin may be shared all the same (a
        // lent page, or bytes a slave adopted at a section end): the store
        // writes a copy.
        self.page_buf(p);
        let page = &mut self.data.pages[p as usize];
        page.writable = true;
        if !page.written_cur {
            page.written_cur = true;
            self.con.cur_writes.push(p);
        }
        cost
    }

    /// The write notices this node's copy of `p` is missing, for
    /// [`NodeState::fetch_plan`] and [`NodeState::apply_cached_diffs`]. The
    /// returned buffer comes from the node's scratch arena — hand it back
    /// with [`NodeState::recycle_notices`] when done (dropping it instead is
    /// only a missed reuse, never an error).
    pub(crate) fn needed_notices(&mut self, p: PageId) -> Vec<(NodeId, u32)> {
        let mut buf = self.scratch.notices.take(&mut self.host);
        let page = &*self.page_mut(p);
        let notices = page.history().notices.iter().copied();
        buf.extend(notices.filter(|&(o, i)| !page.valid_at.covers(o, i)));
        buf
    }

    /// Return a notice buffer from [`NodeState::needed_notices`] to the
    /// scratch arena.
    pub(crate) fn recycle_notices(&mut self, buf: Vec<(NodeId, u32)>) {
        self.scratch.notices.give(buf);
    }

    /// Group the needed notices that are not already in the diff cache by
    /// owner, ascending: the requests an ordinary page fault sends (in
    /// parallel, to each last writer).
    pub(crate) fn fetch_plan(&mut self, p: PageId) -> Vec<(NodeId, Vec<u32>)> {
        let needed = self.needed_notices(p);
        let cached = &self.data.pages[p as usize].history().diffs;
        let mut plan: Vec<(NodeId, Vec<u32>)> = Vec::new();
        for &(owner, ivx) in needed.iter().filter(|&key| !cached.contains_key(key)) {
            match plan.binary_search_by_key(&owner, |e| e.0) {
                Ok(i) => plan[i].1.push(ivx),
                Err(i) => plan.insert(i, (owner, vec![ivx])),
            }
        }
        self.recycle_notices(needed);
        plan
    }

    /// Apply every cached missing diff to the local copy of `p` in a legal
    /// order and mark the page valid. All needed diffs must be cached.
    /// Returns the modeled cost.
    pub(crate) fn apply_cached_diffs(&mut self, p: PageId) -> Dur {
        let needed = self.needed_notices(p);
        // The records behind the needed notices, once per notice.
        let mut records: Vec<(u64, DiffEntry)> = self.scratch.diff_batch.take(&mut self.host);
        let cached = &self.data.pages[p as usize].history().diffs;
        for &(owner, ivx) in &needed {
            let rec = cached
                .get(&(owner, ivx))
                .unwrap_or_else(|| panic!("diff ({p},{owner},{ivx}) not cached"));
            // Sort key: the vector time of the *earliest* covered interval,
            // in a linear extension of happened-before (dominated
            // timestamps have strictly smaller weights). The earliest
            // interval is the right anchor for a merged record: a remote
            // write notice that intervened after one of the covered
            // intervals would have invalidated the writer's page and cut
            // the merge there, so every other diff either precedes the
            // earliest covered interval (and must apply before this record)
            // or is concurrent with all covered intervals (and, in a
            // race-free program, byte-disjoint).
            let key_ivx = rec.covers[0];
            debug_assert!(key_ivx <= self.con.intervals.known(owner));
            records.push((self.con.intervals.get(owner, key_ivx).weight, Arc::clone(rec)));
        }
        self.recycle_notices(needed);
        // `(owner, covers[0])` names one record, so a record keyed under
        // several needed notices sorts into adjacent copies of itself.
        records.sort_unstable_by_key(|(w, rec)| (*w, rec.owner, rec.covers[0]));
        records.dedup_by(|a, b| Arc::ptr_eq(&a.1, &b.1));
        let mut cost = Dur::ZERO;
        let node = self.node;
        let data = self.page_data(p);
        let payload: u64 = records.iter().map(|(_, rec)| rec.diff.payload_bytes()).sum();
        let timer = Instant::now();
        let mut first_err = None;
        for (_, rec) in &records {
            if let Err(e) = rec.diff.apply(data) {
                first_err.get_or_insert(e);
            }
        }
        self.host.diffs_applied(timer, payload);
        if let Some(e) = first_err {
            // A run outside the page means a corrupted or mis-sized diff.
            // The in-bounds runs were applied; keep the node running on
            // its best-effort copy rather than tearing the cluster down.
            eprintln!("node {node}: page {p}: {e}");
        }
        cost += diff_apply_cost(payload);
        // The copy now reflects all it did, everything we know, and every
        // interval the applied diffs cover, even one whose record we have
        // not seen. Recording the full coverage keeps the same bytes from
        // being re-applied under another interval tag over newer writes;
        // never lowering it lets the cache forget what it covers (DESIGN.md §7).
        let page = &mut self.data.pages[p as usize];
        let mut valid_at = self.con.vc.clone();
        valid_at.merge(&page.valid_at);
        for (_, rec) in &records {
            let o = rec.owner;
            valid_at.set(o, valid_at.get(o).max(rec.max_ivx()));
        }
        let diffs = &mut page.history_mut().diffs;
        diffs.retain(|&(o, _), rec| o == node || !valid_at.covers(o, rec.max_ivx()));
        page.valid = true;
        page.valid_at = valid_at;
        self.mark_valid_changed(p);
        self.scratch.diff_batch.give(records);
        cost
    }

    /// Serve a diff request for intervals `ivxs` of this node on page `p`:
    /// create the diff lazily if needed and return the entries, none for an
    /// interval garbage collection forgot. This is the
    /// §5.3-critical path: during a replicated section the twin still holds
    /// the pre-section base, so the diff created here contains only
    /// pre-section modifications.
    pub(crate) fn serve_diff_request(&mut self, p: PageId, ivxs: &[u32]) -> (Dur, Vec<DiffEntry>) {
        let node = self.node;
        let mut cost = Dur::ZERO;
        let mut out: Vec<DiffEntry> = Vec::new();
        for &ivx in ivxs {
            let page = self.page_mut(p);
            // Forgotten when a replicated section retired the page: a
            // straggler asks, and no node needs it (DESIGN.md §7).
            let collected = page.peers_valid_at.as_ref().is_some_and(|vc| vc.covers(node, ivx));
            let rec = match page.history().diffs.get(&(node, ivx)) {
                Some(rec) => Arc::clone(rec),
                None if collected => continue,
                None => {
                    // Lazy creation: must still have the twin.
                    assert!(
                        self.data.pages[p as usize].twin.is_some(),
                        "node {node}: diff ({p},{ivx}) requested but neither cached nor creatable"
                    );
                    cost += self.create_own_diff(p);
                    Arc::clone(&self.data.pages[p as usize].history().diffs[&(node, ivx)])
                }
            };
            if !out.iter().any(|r| Arc::ptr_eq(r, &rec)) {
                out.push(rec);
            }
        }
        (cost, out)
    }

    /// Record fetched diffs in the cache, keyed under every interval each
    /// record covers, but none the copy covers: no lookup asks for it. A
    /// key already held is held by the same record: the owner creates one
    /// record per interval and serves it from its cache.
    pub(crate) fn cache_diffs(&mut self, p: PageId, entries: &[DiffEntry]) {
        let PageMeta { history, valid_at, .. } = self.page_mut(p);
        for rec in entries.iter().filter(|rec| !valid_at.covers(rec.owner, rec.max_ivx())) {
            let diffs = &mut history.get_or_insert_default().diffs;
            for &ivx in &rec.covers {
                let held = diffs.entry((rec.owner, ivx)).or_insert_with(|| Arc::clone(rec));
                debug_assert!(Arc::ptr_eq(held, rec), "two records for ({p},{},{ivx})", rec.owner);
            }
        }
    }

    /// True if every needed diff for `p` is cached (the page can be made
    /// valid locally). The notices are walked newest first: a reply chain
    /// delivers the writers in ascending order, so the first needed notice
    /// missing from the cache is usually the chain's next turn, met after a
    /// few probes rather than after the page's whole history.
    pub(crate) fn can_complete(&mut self, p: PageId) -> bool {
        let page = self.page_mut(p);
        let (history, valid_at) = (page.history(), &page.valid_at);
        history
            .notices
            .iter()
            .rev()
            .all(|&(o, i)| valid_at.covers(o, i) || history.diffs.contains_key(&(o, i)))
    }

    /// Page `p`'s buffer for a reply to lend a fetch of it: the node's
    /// bytes where the page is valid, not writable and under no page guard
    /// (the guard rule of [`PageBuf`]). Once lent, the buffer is shared, so
    /// the node's next store into it writes a copy.
    pub(crate) fn lendable(&self, p: PageId) -> Option<Arc<Page>> {
        let page = self.data.pages.get(p as usize)?;
        let lends = page.valid && !page.writable && page.guards == 0;
        self.data.bytes[p as usize].as_ref().filter(|_| lends).cloned()
    }

    /// A fetch of page `p` completed: share the first of the buffers its
    /// replies lent that holds the same bytes as the node's copy, dropping
    /// the copy — unless the page is under a page guard (the guard rule of
    /// [`PageBuf`]: a guard's closure may wait at a barrier that invalidates
    /// its page, then read it). No access can tell: equal bytes replace
    /// equal bytes, and a fetched page is not writable.
    pub(crate) fn share_fetched(&mut self, p: PageId, lent: &[Arc<Page>]) {
        let DataPlane { pages, bytes, .. } = &mut self.data;
        let page = &pages[p as usize];
        debug_assert!(!page.writable, "node {}: fetched page {p} writable", self.node);
        let Some(own) = bytes[p as usize].as_mut() else { return };
        if page.guards > 0 {
            return;
        }
        if let Some(image) = lent.iter().find(|image| ***image == **own) {
            *own = Arc::clone(image);
        }
    }

    /// The diff records (each once, however many intervals key it) and the
    /// write notices this node holds, for tests of garbage collection.
    #[doc(hidden)]
    pub fn held(&self) -> (usize, usize) {
        let histories = self.data.pages.iter().map(PageMeta::history);
        let records =
            histories.clone().flat_map(|h| h.diffs.iter()).filter(|(k, r)| k.1 == r.covers[0]);
        (records.count(), histories.map(|h| h.notices.len()).sum())
    }

    /// The addresses of the buffers this node holds that are not the
    /// segment's — its pages', then its twins' (nodes that share a buffer
    /// name one address) — and the slots that hold a history, for tests of
    /// the data plane's footprint.
    #[doc(hidden)]
    pub fn footprint(&self) -> (Vec<usize>, Vec<usize>, usize) {
        let DataPlane { pages, bytes, segment, .. } = &self.data;
        let own = |buf: &Arc<Page>, p| {
            (!Arc::ptr_eq(buf, &segment.view(p))).then_some(Arc::as_ptr(buf) as usize)
        };
        let slots = (bytes.iter().zip(0..)).filter_map(|(buf, p)| own(buf.as_ref()?, p));
        let twins = (pages.iter().zip(0..)).filter_map(|(pg, p)| own(pg.twin.as_ref()?, p));
        let histories = pages.iter().filter(|pg| pg.history.is_some()).count();
        (slots.collect(), twins.collect(), histories)
    }

    /// The bytes of page `p` as a local read would see them, or `None` if
    /// the local copy is invalid. Read-only: unlike a load, it records no
    /// view in the table (and grows no hand-built one) — an untouched
    /// page's bytes are copied from the segment's view — so inspection
    /// never perturbs protocol state.
    pub fn inspect_page(&self, p: PageId) -> Option<Vec<u8>> {
        let DataPlane { pages, bytes, segment, .. } = &self.data;
        if pages.get(p as usize).is_some_and(|pg| !pg.valid) {
            return None;
        }
        let buf = bytes.get(p as usize).cloned().flatten().unwrap_or_else(|| segment.view(p));
        Some(buf.to_vec())
    }
}

// The unit tests live outside `src`, as a child module all the same: they
// read the crate-private page table and keep their names.
#[cfg(test)]
#[path = "../tests/unit/dataplane.rs"]
mod tests;
