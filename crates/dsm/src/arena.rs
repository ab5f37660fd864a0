//! Recycled scratch buffers for per-fault churn.
//!
//! A page fault walks the page's missing write notices more than once —
//! planning the fetch, applying cached diffs — and each walk used to
//! allocate (and immediately free) a fresh vector. On a fault-heavy run
//! that is a steady allocator drumbeat on the hottest path of the
//! simulator. Each node instead keeps a small arena of emptied
//! buffers: a walk takes one (retaining its previous capacity), fills it,
//! and hands it back when done. This is the small-object complement to the
//! page-sized twin pool in [`crate::dataplane`].
//!
//! The arena is deliberately dumb: a LIFO stack of cleared `Vec`s per
//! shape, capped so a one-off burst cannot pin memory forever. Nothing
//! here is visible to the protocol — buffers carry no state between takes
//! (`give` clears), so virtual time, messages and bytes are bit-identical
//! with the arena disabled.

use repseq_stats::{HostCounters, NodeId};

use crate::page::DiffEntry;

/// Buffers retained per pool; beyond this, `give` lets the vector drop.
/// The fault path needs at most a couple of scratch vectors at a time
/// (the notice walk and the diff batch can overlap), so a small stack
/// already captures the steady state.
const POOL_CAP: usize = 8;

/// A LIFO pool of cleared, capacity-retaining vectors of one shape.
pub(crate) struct BufPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for BufPool<T> {
    fn default() -> Self {
        BufPool { free: Vec::new() }
    }
}

impl<T> BufPool<T> {
    /// An empty vector, reusing a recycled allocation when one is banked.
    /// Counts a hit (allocation saved) or miss in the node's `host`
    /// counters, so the bench harness can show how much churn the arena
    /// absorbs.
    pub(crate) fn take(&mut self, host: &mut HostCounters) -> Vec<T> {
        match self.free.pop() {
            Some(v) => {
                host.scratch_pool_hits += 1;
                v
            }
            None => {
                host.scratch_pool_misses += 1;
                Vec::new()
            }
        }
    }

    /// Return a vector for reuse. Contents are dropped here; allocations
    /// with no capacity are not worth banking.
    pub(crate) fn give(&mut self, mut v: Vec<T>) {
        if v.capacity() == 0 || self.free.len() >= POOL_CAP {
            return;
        }
        v.clear();
        self.free.push(v);
    }
}

/// One node's scratch arena, grouped by buffer shape.
#[derive(Default)]
pub(crate) struct ScratchArena {
    /// `(owner, interval)` notice lists: fetch planning and diff
    /// application.
    pub(crate) notices: BufPool<(NodeId, u32)>,
    /// Weighted diff batches assembled by `apply_cached_diffs`.
    pub(crate) diff_batch: BufPool<(u64, DiffEntry)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_given_allocation() {
        let mut pool: BufPool<u32> = BufPool::default();
        let mut host = HostCounters::default();
        let mut v = pool.take(&mut host);
        v.extend([1, 2, 3]);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        pool.give(v);
        let v2 = pool.take(&mut host);
        assert_eq!((host.scratch_pool_misses, host.scratch_pool_hits), (1, 1));
        assert!(v2.is_empty(), "recycled buffers come back cleared");
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.as_ptr(), ptr, "the allocation itself is reused");
    }

    #[test]
    fn pool_is_capped() {
        let mut pool: BufPool<u32> = BufPool::default();
        for _ in 0..POOL_CAP + 5 {
            let mut v = Vec::with_capacity(4);
            v.push(1);
            pool.give(v);
        }
        assert_eq!(pool.free.len(), POOL_CAP);
    }

    #[test]
    fn zero_capacity_buffers_are_not_banked() {
        let mut pool: BufPool<u32> = BufPool::default();
        pool.give(Vec::new());
        assert!(pool.free.is_empty());
    }
}
