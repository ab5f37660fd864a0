//! The data plane: the page table — page contents, twins, cached diffs —
//! plus the pool of released twins and software-TLB revocation (the
//! protection generation).
//!
//! This layer owns *the page table* and the bytes behind it: one
//! [`PageMeta`] slot per page of the shared segment, indexed by page
//! number. Materializing pages from the segment, twinning on write faults
//! (outside replicated sections: a replicated write is diffed by nobody),
//! lazy diff creation and application, the per-page diff cache, and every
//! protection change that must invalidate the application process's
//! software TLB happen here. It reads the interval store to order the
//! diffs a copy is missing but never mutates interval or vector-clock
//! state beyond the coverage stamp (`valid_at`) of its own pages.

use std::sync::Arc;
use std::time::Instant;

use repseq_sim::Dur;
use repseq_stats::{HostCounters, NodeId};

use crate::diff::Diff;
use crate::interval::PageId;
use crate::page::{DiffEntry, DiffRecord, PageBuf, PageMeta, PageStore};
use crate::shmem::SharedSegment;
use crate::vc::Vc;

/// Take a page buffer from `pool` (or allocate) and fill it with `src`,
/// counting the hit or miss in `host`. A free function rather than a
/// method so callers can hold a `&mut` into the page table at the same
/// time (disjoint field borrows).
fn pool_take(pool: &mut Vec<Box<[u8]>>, host: &mut HostCounters, src: &[u8]) -> Box<[u8]> {
    match pool.pop() {
        Some(mut buf) if buf.len() == src.len() => {
            host.twin_pool_hits += 1;
            buf.copy_from_slice(src);
            buf
        }
        _ => {
            host.twin_pool_misses += 1;
            src.to_vec().into_boxed_slice()
        }
    }
}

/// Number of per-page generation buckets in a [`GenTable`]. Pages hash in
/// by their low bits; a bucket collision only *over*-invalidates (the
/// colliding page's TLB entries revalidate through the slow path), never
/// under-invalidates, so the count is purely a hit-rate/memory trade.
const GEN_BUCKETS: usize = 1024;

/// Per-page protection generations plus a monotone node-wide total: a
/// revocation invalidates only the translations of (pages aliasing) its
/// page. Each bucket carries *two* generations because the two ways a
/// translation can go stale are asymmetric:
///
/// * the **read** generation covers the mapping itself — bumped when the
///   page is invalidated or its contents change out of band, which
///   retires every cached translation of the page;
/// * the **write** generation covers write permission only — bumped when
///   writing is revoked but the page stays valid and readable (interval
///   close, §5.3 write-protect at replicated-section entry/exit), which
///   retires only *writable* translations: a read-only entry is still
///   exactly right, and keeping it is most of the TLB's hit rate on
///   read-mostly phases.
///
/// The `total` counter is bumped alongside every per-page bump so "did
/// anything change?" monotonicity checks (and [`NodeState::prot_gen`])
/// keep a single number to compare.
pub(crate) struct GenTable {
    total: u64,
    read_gens: Vec<u64>,
    write_gens: Vec<u64>,
}

impl GenTable {
    fn new() -> GenTable {
        GenTable { total: 0, read_gens: vec![0; GEN_BUCKETS], write_gens: vec![0; GEN_BUCKETS] }
    }

    #[inline]
    fn bucket(p: PageId) -> usize {
        p as usize & (GEN_BUCKETS - 1)
    }

    /// The read (mapping) generation a software-TLB entry for page `p`
    /// must be stamped with (and validated against) right now.
    #[inline]
    pub(crate) fn page_read(&self, p: PageId) -> u64 {
        self.read_gens[Self::bucket(p)]
    }

    /// The write-permission generation for page `p`.
    #[inline]
    pub(crate) fn page_write(&self, p: PageId) -> u64 {
        self.write_gens[Self::bucket(p)]
    }

    /// Monotone count of every per-page bump on this node.
    #[inline]
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Revoke the *writable* cached translations of page `p` — the page
    /// stays valid and readable, so read-only entries remain current — or,
    /// with `read`, every one of them: invalidation or out-of-band content
    /// change. A bucket collision may revoke a few unrelated pages' too:
    /// always safe, only slower.
    #[inline]
    fn bump(&mut self, p: PageId, read: bool) {
        if read {
            self.read_gens[Self::bucket(p)] += 1;
        }
        self.write_gens[Self::bucket(p)] += 1;
        self.total += 1;
    }
}

/// Page/twin/diff state: one node's local memory.
pub(crate) struct DataPlane {
    /// The page table, indexed by `PageId`: one slot per page of the
    /// shared segment, sized at launch. Only a hand-built state (unit
    /// tests: an empty segment) grows it, on first touch.
    pub(crate) pages: Vec<PageMeta>,
    /// Each page's contents by `PageId`, a slot of `store`; `None` until the
    /// first read, write or diff application materializes it. Kept apart
    /// from the public [`PageMeta`], so no handle can reach another node.
    pub(crate) bytes: Vec<Option<PageBuf>>,
    store: PageStore,
    /// Pages with a twin (writes not yet diffed).
    pub(crate) dirty_pages: Vec<PageId>,
    /// Released twins, for reuse: a write fault on a page without a twin
    /// copies the page into one, and the steady state of a fault-heavy
    /// run would otherwise allocate and free one page per fault. A twin
    /// comes back here when diff creation consumes it; a write inside a
    /// replicated section takes none (§5.3). Nothing is prewarmed, so a
    /// node allocates only when the pool is empty and never holds more
    /// buffers than it once had twins live at a time.
    pub(crate) twin_pool: Vec<Box<[u8]>>,
    /// Per-page protection generations: bumped for a page at every
    /// protection *revocation* or out-of-band content change that could
    /// make a cached translation of it stale — interval close, invalidation
    /// by write notice, §5.3 write-protect at replicated-section
    /// entry/exit, diff application, page broadcast. Permission *grants* (a
    /// write fault enabling writing) do not bump: a stale read-only entry
    /// is merely conservative (write lookups miss and take the slow path).
    pub(crate) prot_gen: GenTable,
    /// The cluster's shared segment: the initial image, written before
    /// the run starts. A slot copies its page out when it first needs
    /// bytes of its own.
    pub(crate) segment: Arc<SharedSegment>,
    /// The zero timestamp every untouched slot's `valid_at` shares.
    pub(crate) zero: Vc,
}

impl DataPlane {
    /// One node's data plane over `segment`, whose page count sizes the
    /// page table. The twin pool and the page store start empty.
    pub(crate) fn new(n: usize, page_size: usize, segment: Arc<SharedSegment>) -> DataPlane {
        let zero = Vc::zero(n);
        DataPlane {
            pages: (0..segment.pages()).map(|_| PageMeta::new(zero.clone())).collect(),
            bytes: vec![None; segment.pages()],
            store: PageStore::new(page_size),
            dirty_pages: Vec::new(),
            twin_pool: Vec::new(),
            prot_gen: GenTable::new(),
            segment,
            zero,
        }
    }
}

use crate::state::NodeState;

impl NodeState {
    /// The page contents, materialized from the shared segment on first
    /// touch.
    pub fn page_data(&mut self, p: PageId) -> &mut [u8] {
        self.page_buf(p).slice_mut()
    }

    /// The handle to the page's slot, handed out and filled from the
    /// segment's image (or zeros) on first touch. The software TLB and the
    /// page guards copy it.
    pub(crate) fn page_buf(&mut self, p: PageId) -> &mut PageBuf {
        self.page_mut(p);
        let DataPlane { bytes, segment, store, .. } = &mut self.data;
        bytes[p as usize].get_or_insert_with(|| store.slot(segment.page(p)))
    }

    /// The node-wide protection-change counter: the monotone total of all
    /// per-page generation bumps, so "was anything revoked?" checks keep a
    /// single number to compare.
    pub fn prot_gen(&self) -> u64 {
        self.data.prot_gen.total()
    }

    /// Advance page `p`'s read (mapping) generation, invalidating every
    /// software-TLB entry for it (and for pages sharing its bucket).
    /// Called when the page is invalidated or its contents are replaced
    /// or mutated outside the TLB's view. The test-only
    /// `tlb_break_generation_bumps` config flag turns this into a no-op so
    /// the coherence oracle can be shown to catch the resulting stale
    /// translations.
    #[inline]
    pub(crate) fn bump_page_prot_gen(&mut self, p: PageId) {
        if self.cfg.tlb_break_generation_bumps {
            return;
        }
        self.data.prot_gen.bump(p, true);
    }

    /// Advance page `p`'s write-permission generation, invalidating only
    /// *writable* software-TLB entries for it. Called when writing is
    /// revoked but the page stays valid and readable — a cached read-only
    /// translation is still exactly right and survives. Gated by the same
    /// fault-injection flag as [`NodeState::bump_page_prot_gen`].
    #[inline]
    pub(crate) fn bump_page_write_prot_gen(&mut self, p: PageId) {
        if self.cfg.tlb_break_generation_bumps {
            return;
        }
        self.data.prot_gen.bump(p, false);
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
        let mut cost = self.cfg.diff_create_cost();
        let bytes = self.data.bytes[p as usize].expect("twinned page must be materialized");
        let (page, data) = (&mut self.data.pages[p as usize], bytes.slice());
        let mut twin = page.twin.take().expect("diffing a page without a twin");
        let timer = Instant::now();
        let diff = Diff::create(&twin, data);
        self.host.diff_created(timer, 2 * data.len() as u64);
        let ivxs = std::mem::take(&mut page.own_undiffed);
        let written_cur = page.written_cur;
        page.rse_protected = false;
        if written_cur {
            // The diff was requested mid-interval: it already contains the
            // current interval's writes so far, but that interval's write
            // notice does not exist yet. Re-twin immediately so the rest of
            // the current interval stays separable — reusing the buffer of
            // the twin just consumed instead of cloning the page.
            debug_assert!(!self.rse.active, "node {node}: re-twin of page {p} in a section");
            cost += self.cfg.twin_cost();
            twin.copy_from_slice(bytes.slice());
            self.data.pages[p as usize].twin = Some(twin);
            // stays writable and in the dirty set
        } else {
            self.data.twin_pool.push(twin);
            self.data.pages[p as usize].writable = false;
            self.data.dirty_pages.retain(|&q| q != p);
            self.bump_page_write_prot_gen(p); // write permission revoked, still readable
        }
        let record = Arc::new(DiffRecord { owner: node, covers: ivxs.clone(), diff });
        let page = &mut self.data.pages[p as usize];
        for ivx in ivxs {
            let held = page.diffs.insert((node, ivx), Arc::clone(&record));
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
        let mut cost = self.cfg.fault_overhead;
        if self.rse.active {
            if self.page_mut(p).rse_protected {
                // Create the pre-section diff before the page may change.
                cost += self.create_own_diff(p);
            }
            self.page_data(p); // materialize: the write lands in the page
            let page = &mut self.data.pages[p as usize];
            debug_assert!(page.valid && page.twin.is_none(), "write fault on page {p}");
            page.writable = true;
            if !page.rse_dirty {
                cost += self.cfg.twin_cost();
                page.rse_dirty = true;
                self.rse.dirty.push(p);
            }
            return cost;
        }
        if self.page_mut(p).twin.is_none() {
            cost += self.cfg.twin_cost();
            let src = *self.page_buf(p); // materialize before twinning
            let page = &mut self.data.pages[p as usize];
            debug_assert!(page.valid, "write fault on an invalid page");
            page.twin = Some(pool_take(&mut self.data.twin_pool, &mut self.host, src.slice()));
            self.data.dirty_pages.push(p);
        }
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
        buf.extend(page.notices.iter().copied().filter(|&(o, i)| !page.valid_at.covers(o, i)));
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
        let cached = &self.data.pages[p as usize].diffs;
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
        let cached = &self.data.pages[p as usize].diffs;
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
        cost += self.cfg.diff_apply_cost(payload);
        // The copy now reflects everything we know — plus every interval
        // the applied diffs cover, even if we have not yet seen those
        // intervals' records. Recording the full coverage is what prevents
        // the same bytes from being re-applied later under a different
        // interval tag, over newer local writes.
        let mut valid_at = self.con.vc.clone();
        for (_, rec) in &records {
            let o = rec.owner;
            valid_at.set(o, valid_at.get(o).max(rec.max_ivx()));
        }
        let page = &mut self.data.pages[p as usize];
        page.valid = true;
        page.valid_at = valid_at;
        self.mark_valid_changed(p);
        // The handler may have applied these diffs while the application
        // process was blocked elsewhere: its TLB must re-check validity.
        self.bump_page_prot_gen(p);
        self.scratch.diff_batch.give(records);
        cost
    }

    /// Serve a diff request for intervals `ivxs` of this node on page `p`:
    /// create the diff lazily if needed and return the entries. This is the
    /// §5.3-critical path: during a replicated section the twin still holds
    /// the pre-section base, so the diff created here contains only
    /// pre-section modifications.
    pub(crate) fn serve_diff_request(&mut self, p: PageId, ivxs: &[u32]) -> (Dur, Vec<DiffEntry>) {
        let node = self.node;
        let mut cost = Dur::ZERO;
        let mut out: Vec<DiffEntry> = Vec::new();
        for &ivx in ivxs {
            let rec = match self.page_mut(p).diffs.get(&(node, ivx)) {
                Some(rec) => Arc::clone(rec),
                None => {
                    // Lazy creation: must still have the twin.
                    assert!(
                        self.data.pages[p as usize].twin.is_some(),
                        "node {node}: diff ({p},{ivx}) requested but neither cached nor creatable"
                    );
                    cost += self.create_own_diff(p);
                    Arc::clone(&self.data.pages[p as usize].diffs[&(node, ivx)])
                }
            };
            if !out.iter().any(|r| Arc::ptr_eq(r, &rec)) {
                out.push(rec);
            }
        }
        (cost, out)
    }

    /// Record fetched diffs in the cache, keyed under every interval each
    /// record covers. A key already held is held by the same record: the
    /// owner creates one record per interval and serves it from its cache.
    pub(crate) fn cache_diffs(&mut self, p: PageId, entries: &[DiffEntry]) {
        let cache = &mut self.page_mut(p).diffs;
        for rec in entries {
            for &ivx in &rec.covers {
                let held = cache.entry((rec.owner, ivx)).or_insert_with(|| Arc::clone(rec));
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
        let (cached, valid_at) = (&page.diffs, &page.valid_at);
        page.notices
            .iter()
            .rev()
            .all(|&(o, i)| valid_at.covers(o, i) || cached.contains_key(&(o, i)))
    }

    /// The bytes of page `p` as a local read would see them, or `None` if
    /// the local copy is invalid. Read-only: unlike `page_data`, an
    /// untouched page is *not* materialized (and a hand-built state's
    /// table not grown) — the segment's image is copied out instead — so
    /// inspection never perturbs protocol state.
    pub fn inspect_page(&self, p: PageId) -> Option<Vec<u8>> {
        if self.data.pages.get(p as usize).is_some_and(|pg| !pg.valid) {
            return None;
        }
        Some(match self.data.bytes.get(p as usize).and_then(Option::as_ref) {
            Some(d) => d.slice().to_vec(),
            None => match self.data.segment.page(p) {
                Some(img) => img.to_vec(),
                None => vec![0u8; self.cfg.page_size],
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DsmConfig;
    use crate::interval::IntervalRecord;
    use crate::state::testutil::{fake_write, random_page, state, PAGE};
    use crate::strategy::chain::incorporate_diffs;
    use crate::vc::Vc;

    /// The previous `can_complete`, kept as the reference: materialise the
    /// needed notices oldest first, then probe the cache for each.
    fn can_complete_ref(st: &mut NodeState, p: PageId) -> bool {
        let needed = st.needed_notices(p);
        let cached = &st.data.pages[p as usize].diffs;
        let complete = needed.iter().all(|key| cached.contains_key(key));
        st.recycle_notices(needed);
        complete
    }

    /// The previous `apply_cached_diffs`, kept as the reference down to the
    /// bytes and the valid notice it leaves: a quadratic dedup, a timestamp
    /// summed per record per apply, a stable sort.
    fn apply_cached_diffs_ref(st: &mut NodeState, p: PageId) {
        let needed = st.needed_notices(p);
        let mut records: Vec<(u64, DiffEntry)> = Vec::new();
        for &(owner, ivx) in &needed {
            let rec = st.data.pages[p as usize].diffs.get(&(owner, ivx)).unwrap().clone();
            if records.iter().any(|(_, r)| Arc::ptr_eq(r, &rec)) {
                continue;
            }
            records.push((Vc::weight(&st.con.intervals.get(owner, rec.covers[0]).vc), rec));
        }
        records
            .sort_by(|a, b| (a.0, a.1.owner, a.1.covers[0]).cmp(&(b.0, b.1.owner, b.1.covers[0])));
        let mut valid_at = st.con.vc.clone();
        for (_, rec) in &records {
            rec.diff.apply(st.page_data(p)).unwrap();
            valid_at.set(rec.owner, valid_at.get(rec.owner).max(rec.max_ivx()));
        }
        st.page_mut(p).valid_at = valid_at;
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Completion is exact against the references on random pages: the
        /// same answer as records arrive one by one, then the same bytes
        /// and valid notice once all of them are cached.
        #[test]
        fn completion_matches_the_reference(seed in 0u64..u64::MAX) {
            let (mut st, records) = random_page(seed);
            let (mut old, old_records) = random_page(seed);
            for (rec, old_rec) in records.iter().zip(&old_records) {
                proptest::prop_assert_eq!(st.can_complete(PAGE), can_complete_ref(&mut old, PAGE));
                st.cache_diffs(PAGE, std::slice::from_ref(rec));
                old.cache_diffs(PAGE, std::slice::from_ref(old_rec));
            }
            proptest::prop_assert!(st.can_complete(PAGE) && can_complete_ref(&mut old, PAGE));
            st.apply_cached_diffs(PAGE);
            apply_cached_diffs_ref(&mut old, PAGE);
            proptest::prop_assert_eq!(st.page_data(PAGE), old.page_data(PAGE));
            proptest::prop_assert_eq!(&st.page_mut(PAGE).valid_at, &old.page_mut(PAGE).valid_at);
        }
    }

    /// A reply chain of four writers (the reader, node 0, among them)
    /// delivered turn by turn through `incorporate_diffs`: the page stays
    /// invalid until the last turn, which completes it with the reference's
    /// bytes and wakes the waiting application. Nodes 3, 2, 1 wrote in that
    /// order, each after seeing its predecessor: against the owner order
    /// the chain delivers in, the later writer wins where writes overlap.
    #[test]
    fn a_chain_completes_the_page_on_its_last_turn() {
        let chain = || {
            let mut st = state(0, 4);
            fake_write(&mut st, PAGE, 0, 9);
            st.close_interval();
            let (mut vc, mut base) = (st.con.vc.clone(), vec![0u8; st.cfg.page_size]);
            let mut turns = vec![Vec::new(); 4];
            for q in (1..4).rev() {
                vc.set(q, 1);
                let mut page = base.clone();
                page[q..q + 8].fill(q as u8);
                let diff = Diff::create(&base, &page);
                turns[q].push(Arc::new(DiffRecord { owner: q, covers: vec![1], diff }));
                st.apply_records(vec![IntervalRecord::new(q, 1, vc.clone(), vec![PAGE])], &vc);
                base = page;
            }
            turns[0].push(Arc::clone(&st.page_mut(PAGE).diffs[&(0, 1)]));
            (st, turns)
        };
        let ((mut st, turns), (mut old, old_turns)) = (chain(), chain());
        st.rse.waiting_page = Some(PAGE);
        for (turn, diffs) in turns.iter().enumerate() {
            let (_, wake) = incorporate_diffs(&mut st, PAGE, diffs);
            assert_eq!(st.page_mut(PAGE).valid, turn == 3, "after turn {turn}");
            assert_eq!(wake, (turn == 3).then_some(PAGE));
        }
        old_turns.iter().for_each(|diffs| old.cache_diffs(PAGE, diffs));
        apply_cached_diffs_ref(&mut old, PAGE);
        assert_eq!(st.page_data(PAGE), old.page_data(PAGE));
        assert_eq!(st.page_data(PAGE)[..12], [9, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 0]);
    }

    #[test]
    fn own_diff_covers_all_undiffed_intervals() {
        let mut st = state(0, 2);
        fake_write(&mut st, 3, 0, 1);
        st.close_interval();
        // Page stays dirty; second interval re-notices it.
        fake_write(&mut st, 3, 1, 2);
        st.close_interval();
        assert_eq!(st.page_mut(3).own_undiffed, vec![1, 2]);
        st.create_own_diff(3);
        let page = st.page_mut(3);
        assert!(Arc::ptr_eq(&page.diffs[&(0, 1)], &page.diffs[&(0, 2)]));
        assert!(page.twin.is_none() && !page.writable);
        assert!(st.data.dirty_pages.is_empty());
    }

    #[test]
    fn fetch_plan_groups_missing_by_owner() {
        let mut st = state(2, 3);
        // Notices arrive in no particular owner order; the plan is sorted.
        for (owner, ivx) in [(1u32, 1u32), (0, 1), (0, 2)] {
            let mut vcfix = Vc::zero(3);
            vcfix.set(owner as usize, ivx);
            let rec = IntervalRecord::new(owner as usize, ivx, vcfix.clone(), vec![9]);
            st.apply_records(vec![rec], &vcfix);
        }
        // Cache one of them: plan must exclude it.
        st.page_mut(9).diffs.insert(
            (0, 1),
            Arc::new(DiffRecord { owner: 0, covers: vec![1], diff: Diff::default() }),
        );
        assert_eq!(st.fetch_plan(9), vec![(0, vec![2]), (1, vec![1])]);
    }

    #[test]
    fn only_hand_built_tables_grow_and_inspection_never_touches_one() {
        // Hand-built (no segment): the table grows to the page touched.
        let mut st = state(0, 2);
        assert!(st.data.pages.is_empty());
        st.page_mut(40);
        assert_eq!(st.data.pages.len(), 41);
        // Over a segment the table is presized, and `inspect_page` reads
        // an untouched page's image straight from the segment: no slot is
        // created or materialized, inside the table or beyond it.
        let cfg = DsmConfig { page_size: 64, ..DsmConfig::default() };
        let mut seg = SharedSegment::new(64, 4);
        seg.write(2 * 64, &[7; 64]);
        let st = NodeState::new(0, 2, cfg, Arc::new(seg));
        assert_eq!(st.data.pages.len(), 4);
        assert_eq!(st.inspect_page(2), Some(vec![7; 64]));
        assert_eq!(st.inspect_page(3), Some(vec![0; 64]));
        assert_eq!(st.inspect_page(9), Some(vec![0; 64]));
        assert!(st.data.bytes.iter().all(Option::is_none));
    }

    #[test]
    fn serve_diff_request_creates_lazily() {
        let mut st = state(0, 2);
        fake_write(&mut st, 5, 8, 77);
        st.close_interval();
        let (cost, entries) = st.serve_diff_request(5, &[1]);
        assert!(cost > Dur::ZERO);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].owner, 0);
        assert_eq!(entries[0].covers, vec![1]);
        assert_eq!(entries[0].diff.payload_bytes(), 1);
        // Second request hits the cache: free.
        let (cost2, entries2) = st.serve_diff_request(5, &[1]);
        assert_eq!(cost2, Dur::ZERO);
        assert_eq!(entries2.len(), 1);
    }

    #[test]
    fn mid_interval_serve_retwins_written_page() {
        // A diff requested while the page is being written in the current
        // interval: the diff covers the closed intervals, and the page is
        // immediately re-twinned so the open interval stays separable.
        let mut st = state(0, 2);
        fake_write(&mut st, 6, 0, 1);
        st.close_interval();
        fake_write(&mut st, 6, 1, 2); // open interval write
        let (_, entries) = st.serve_diff_request(6, &[1]);
        assert_eq!(entries.len(), 1);
        let page = st.page_mut(6);
        assert!(page.twin.is_some(), "re-twinned");
        assert!(page.writable, "still writable mid-interval");
        // Closing the open interval must still produce a servable diff.
        st.close_interval();
        let (_, entries) = st.serve_diff_request(6, &[2]);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].covers, vec![2]);
    }
}
