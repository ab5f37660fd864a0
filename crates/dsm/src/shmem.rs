//! Typed handles into the shared address space.
//!
//! Handles are plain `(address, length)` pairs — `Copy`, cheaply captured
//! by fork closures, exactly like the shared-variable addresses the
//! OpenMP-to-TreadMarks translator passes to slaves at a fork (§2.3).
//!
//! ## Page-guard bulk access
//!
//! [`ShArray::with_slices`] / [`ShArray::with_slices_mut`] split an element
//! range into maximal single-page runs and hand each run to a closure as a
//! [`PageSlice`] / [`PageSliceMut`]: the fault (validity check, twin
//! creation, diff fetch) is taken **once per page run** when the guard is
//! created, and every element access inside the run is a plain decode from
//! the page bytes. This is how a real DSM behaves — the fault happens at
//! the first touch of a page, subsequent accesses run at memory speed —
//! and it is the bulk-kernel complement to the per-element software TLB.
//!
//! Guards pin protocol validity only at acquisition; they must not be
//! cached across synchronization (the borrow-scoped closure API makes that
//! structurally impossible).

use repseq_sim::Stopped;
use std::marker::PhantomData;
use std::ops::Range;

use crate::interval::PageId;
use crate::page::PageBuf;
use crate::pod::Pod;
use crate::race::{AccessKind, AccessTap};
use crate::runtime::DsmNode;

/// A read guard over one single-page run of elements: `len()` elements of
/// `T` starting at global index `first_index()`, whose page was faulted in
/// (if needed) when the guard was created.
pub struct PageSlice<T: Pod> {
    buf: PageBuf,
    byte_off: usize,
    first: usize,
    count: usize,
    /// Race-detection tap over the run (None when no sink is installed,
    /// or when the run's access was already recorded at creation).
    tap: Option<AccessTap>,
    _t: PhantomData<fn() -> T>,
}

impl<T: Pod> PageSlice<T> {
    /// Global array index of the run's first element.
    pub fn first_index(&self) -> usize {
        self.first
    }

    /// Elements in the run.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the run is empty (never produced by `with_slices`).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Read the `k`-th element of the run (index relative to the run).
    #[inline]
    pub fn get(&self, k: usize) -> T {
        assert!(k < self.count, "run index {k} out of bounds ({} elements)", self.count);
        if let Some(tap) = &self.tap {
            tap.element(k, T::SIZE, AccessKind::Read);
        }
        let off = self.byte_off + k * T::SIZE;
        T::read_from(&self.buf.slice()[off..off + T::SIZE])
    }
}

/// A write guard over one single-page run of elements: a [`PageSlice`]
/// (it derefs to one, for `first_index`, `len` and `get`) that can also
/// store. Writes go straight to the page bytes — the write fault (twin
/// creation, §5.3 pre-diff) was taken when the guard was created.
pub struct PageSliceMut<T: Pod> {
    run: PageSlice<T>,
    /// Whether the closure stored anything: a detached run (the copy of a
    /// page-straddling element) is written back through the MMU only then.
    written: bool,
    /// A detached run's copy, which its handle points into (empty for a
    /// page run). The guard owns it, so the two move together, through a
    /// `mem::swap` of two guards too: a `Vec`'s buffer stays put as the
    /// `Vec` moves.
    copy: Vec<u8>,
}

impl<T: Pod> std::ops::Deref for PageSliceMut<T> {
    type Target = PageSlice<T>;
    fn deref(&self) -> &PageSlice<T> {
        &self.run
    }
}

impl<T: Pod> PageSliceMut<T> {
    fn new(buf: PageBuf, off: usize, first: usize, count: usize, tap: Option<AccessTap>) -> Self {
        let run = PageSlice { buf, byte_off: off, first, count, tap, _t: PhantomData };
        PageSliceMut { run, written: false, copy: Vec::new() }
    }

    /// A singleton run over `copy`, the bytes of element `first`.
    fn detached(mut copy: Vec<u8>, first: usize, tap: Option<AccessTap>) -> Self {
        let buf = PageBuf::of(&mut copy);
        PageSliceMut { copy, ..Self::new(buf, 0, first, 1, tap) }
    }

    /// Write the `k`-th element of the run.
    #[inline]
    pub fn set(&mut self, k: usize, v: T) {
        assert!(k < self.count, "run index {k} out of bounds ({} elements)", self.count);
        if let Some(tap) = &self.tap {
            tap.element(k, T::SIZE, AccessKind::Write);
        }
        let off = self.byte_off + k * T::SIZE;
        v.write_to(&mut self.run.buf.slice_mut()[off..off + T::SIZE]);
        self.written = true;
    }
}

/// A shared array of `T`.
pub struct ShArray<T: Pod> {
    base: u64,
    len: usize,
    _t: PhantomData<fn() -> T>,
}

impl<T: Pod> Clone for ShArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for ShArray<T> {}

impl<T: Pod> ShArray<T> {
    pub(crate) fn new(base: u64, len: usize) -> Self {
        ShArray { base, len, _t: PhantomData }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "index {i} out of bounds ({} elements)", self.len);
        self.base + (i * T::SIZE) as u64
    }

    /// Read element `i` on `node`.
    #[inline]
    pub fn get(&self, node: &DsmNode, i: usize) -> Result<T, Stopped> {
        node.read(self.addr(i))
    }

    /// Write element `i` on `node`.
    #[inline]
    pub fn set(&self, node: &DsmNode, i: usize, v: T) -> Result<(), Stopped> {
        node.write(self.addr(i), v)
    }

    /// Visit `range` as a sequence of maximal single-page runs, taking the
    /// read fault once per page. Elements that straddle a page boundary
    /// are delivered as singleton runs backed by a detached copy (read
    /// through the buffered byte path, exactly like the element-wise
    /// protocol).
    pub fn with_slices(
        &self,
        node: &DsmNode,
        range: Range<usize>,
        mut f: impl FnMut(&PageSlice<T>) -> Result<(), Stopped>,
    ) -> Result<(), Stopped> {
        self.runs::<false>(node, range, |run| f(run))
    }

    /// Visit `range` as a sequence of maximal single-page runs, taking the
    /// write fault (twin creation, §5.3 pre-diff) once per page.
    /// Straddling elements arrive as detached singleton runs pre-filled
    /// with the current value and are written back through the byte path
    /// only if the closure wrote them — the fault pattern matches the
    /// element-wise protocol exactly, so message counts are unchanged.
    pub fn with_slices_mut(
        &self,
        node: &DsmNode,
        range: Range<usize>,
        f: impl FnMut(&mut PageSliceMut<T>) -> Result<(), Stopped>,
    ) -> Result<(), Stopped> {
        self.runs::<true>(node, range, f)
    }

    /// The loop of [`ShArray::with_slices`] (`WRITE` false: a run is only
    /// read) and [`ShArray::with_slices_mut`].
    fn runs<const WRITE: bool>(
        &self,
        node: &DsmNode,
        range: Range<usize>,
        mut f: impl FnMut(&mut PageSliceMut<T>) -> Result<(), Stopped>,
    ) -> Result<(), Stopped> {
        assert!(range.start <= range.end && range.end <= self.len);
        let ps = node.page_size();
        let mut i = range.start;
        while i < range.end {
            let a = self.addr(i);
            let in_page = (a % ps as u64) as usize;
            if in_page + T::SIZE > ps {
                let mut copy = vec![0u8; T::SIZE];
                // A read records its access here, and its run has no tap. A
                // write's pre-fill is runtime bookkeeping, not a program
                // read: the tap records what the closure actually touches,
                // and the write-back below re-uses its record.
                let tap = if WRITE { node.race_tap(a) } else { None };
                if !WRITE {
                    node.race_access(a, T::SIZE, AccessKind::Read);
                }
                node.read_bytes_quiet(a, &mut copy)?;
                let mut run = PageSliceMut::detached(copy, i, tap);
                f(&mut run)?;
                if run.written {
                    node.write_bytes_quiet(a, &run.copy)?;
                }
                i += 1;
            } else {
                let count = ((ps - in_page) / T::SIZE).min(range.end - i);
                let buf = node.page_for((a / ps as u64) as PageId, WRITE)?;
                node.count_run(count);
                f(&mut PageSliceMut::new(buf, in_page, i, count, node.race_tap(a)))?;
                i += count;
            }
        }
        Ok(())
    }

    /// Read a contiguous range into `out` (the fault is taken once per
    /// page run; elements decode straight from the page bytes).
    pub fn read_range(&self, node: &DsmNode, start: usize, out: &mut [T]) -> Result<(), Stopped> {
        assert!(start + out.len() <= self.len);
        self.with_slices(node, start..start + out.len(), |run| {
            let base = run.first_index() - start;
            for k in 0..run.len() {
                out[base + k] = run.get(k);
            }
            Ok(())
        })
    }

    /// Write a contiguous range from `vals` (one write fault per page run;
    /// elements encode straight into the page bytes).
    pub fn write_range(&self, node: &DsmNode, start: usize, vals: &[T]) -> Result<(), Stopped> {
        assert!(start + vals.len() <= self.len);
        self.with_slices_mut(node, start..start + vals.len(), |run| {
            let base = run.first_index() - start;
            for k in 0..run.len() {
                run.set(k, vals[base + k]);
            }
            Ok(())
        })
    }

    /// The page range `[first, last]` the array spans (for the
    /// hand-inserted broadcast ablation).
    pub fn page_span(&self, page_size: usize) -> (u32, u32) {
        let first = (self.base / page_size as u64) as u32;
        let last_byte = self.base + (self.len * T::SIZE).max(1) as u64 - 1;
        (first, (last_byte / page_size as u64) as u32)
    }
}

/// The shared segment: one contiguous, page-granular backing for the
/// cluster's entire shared address space, holding the preloaded initial
/// image — once per cluster. `Cluster::preload_*` write straight into it,
/// launch cuts it to the allocated size, and every node holds the same
/// `Arc<SharedSegment>`, copying a page out of it the first time it needs
/// bytes of its own — the analogue of the `mmap`'d segment a real DSM
/// carves its pages out of.
///
/// Like that `mmap`, the segment has an extent (`pages`) and backs only
/// what was written: the bytes up to the highest preloaded page. Pages no
/// preload named read as zeros.
pub struct SharedSegment {
    page_size: usize,
    pages: usize,
    /// The written prefix, whole pages; page `p` at offset `p * page_size`.
    bytes: Vec<u8>,
}

impl SharedSegment {
    /// A zero-filled segment of `pages` pages.
    pub fn new(page_size: usize, pages: usize) -> SharedSegment {
        assert!(page_size > 0, "page size must be positive");
        SharedSegment { page_size, pages, bytes: Vec::new() }
    }

    /// Number of pages in the segment.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Preload `src` at byte address `addr`, which must fall inside the
    /// segment.
    pub fn write(&mut self, addr: u64, src: &[u8]) {
        let end = addr as usize + src.len();
        assert!(
            end <= self.pages * self.page_size,
            "preload of {addr}..{end} outside the {}-page segment",
            self.pages
        );
        if end > self.bytes.len() {
            self.bytes.resize(end.next_multiple_of(self.page_size), 0);
        }
        self.bytes[addr as usize..end].copy_from_slice(src);
    }

    /// Cut the segment to its first `pages` pages (launch: everything
    /// allocated).
    pub fn truncate(&mut self, pages: usize) {
        self.pages = pages;
        self.bytes.truncate(pages * self.page_size);
    }

    /// The initial image of page `p`, or `None` if it is all zeros (never
    /// written, or outside the segment): the caller zero-fills its slot.
    pub fn page(&self, p: PageId) -> Option<&[u8]> {
        let off = p as usize * self.page_size;
        self.bytes.get(off..off + self.page_size).filter(|img| img.iter().any(|&b| b != 0))
    }
}

/// A single shared variable.
pub struct ShVar<T: Pod> {
    arr: ShArray<T>,
}

impl<T: Pod> Clone for ShVar<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for ShVar<T> {}

impl<T: Pod> ShVar<T> {
    pub(crate) fn from_array(arr: ShArray<T>) -> Self {
        debug_assert_eq!(arr.len(), 1);
        ShVar { arr }
    }

    /// The variable's address.
    pub fn addr(&self) -> u64 {
        self.arr.addr(0)
    }

    pub(crate) fn as_array(&self) -> ShArray<T> {
        self.arr
    }

    /// Read on `node`.
    #[inline]
    pub fn get(&self, node: &DsmNode) -> Result<T, Stopped> {
        self.arr.get(node, 0)
    }

    /// Write on `node`.
    #[inline]
    pub fn set(&self, node: &DsmNode, v: T) -> Result<(), Stopped> {
        self.arr.set(node, 0, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_segment_copies_preload_and_zero_fills_the_rest() {
        let ps = 64;
        let mut seg = SharedSegment::new(ps, 16);
        seg.write(2 * ps as u64, &[0xAB; 64]);
        seg.truncate(4);
        assert_eq!(seg.pages(), 4);
        assert!(seg.page(2).unwrap().iter().all(|&b| b == 0xAB));
        assert_eq!(seg.page(0), None);
        assert_eq!(seg.page(3), None);
        assert_eq!(seg.page(4), None, "beyond the segment reads as zeros too");
    }

    #[test]
    fn shared_segment_page_matches_the_preload_exactly() {
        let ps = 32;
        let img: Vec<u8> = (0..ps as u8).map(|b| b.wrapping_mul(3) | 1).collect();
        let mut seg = SharedSegment::new(ps, 8);
        seg.write(0, &img);
        // A preload may straddle pages: one contiguous copy, no chunking.
        seg.write(5 * ps as u64 - 4, &[7; 8]);
        assert_eq!(seg.page(0).unwrap(), &img[..], "page 0 bytes must round-trip");
        assert_eq!(&seg.page(4).unwrap()[ps - 4..], &[7; 4]);
        assert_eq!(&seg.page(5).unwrap()[..5], &[7, 7, 7, 7, 0]);
        // Exactly the preloaded pages carry an image — never-named pages
        // stay `None` so the page table's lazy zero-fill path is the one
        // they always took (resident set and fingerprints depend on it).
        let named: Vec<PageId> = (0..8).filter(|&p| seg.page(p).is_some()).collect();
        assert_eq!(named, vec![0, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn shared_segment_rejects_out_of_range_preload() {
        SharedSegment::new(16, 4).write(9 * 16, &[0; 16]);
    }
}
