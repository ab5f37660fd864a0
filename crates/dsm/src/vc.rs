//! Vector timestamps (§5.1 of the paper).
//!
//! Each node's execution is divided into intervals; every interval carries
//! a vector timestamp with one entry per node. Entry `q` of the timestamp
//! of interval `i` of node `p` names the most recent interval of `q` that
//! precedes `i` in the happened-before partial order.

use std::sync::Arc;

use repseq_stats::NodeId;

/// A vector timestamp: entry `q` is the index of the latest interval of
/// node `q` covered by this timestamp (0 = nothing).
///
/// Stored copy-on-write: timestamps are cloned into every interval record,
/// fork message and valid-notice table entry, and at hundreds of nodes an
/// n-entry deep copy per clone dominates host time and memory (O(n²·pages)
/// per replicated section). Clones share the buffer; `set`/`merge` copy
/// only when the buffer is shared — and a merge that one side dominates
/// adopts the other side's buffer outright.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Vc(Arc<Vec<u32>>);

impl Vc {
    /// The zero timestamp for an `n`-node cluster.
    pub fn zero(n: usize) -> Vc {
        Vc(Arc::new(vec![0; n]))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no entries (unused placeholder).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The entry for node `q`.
    #[inline]
    pub fn get(&self, q: NodeId) -> u32 {
        self.0[q]
    }

    /// Set the entry for node `q`.
    #[inline]
    pub fn set(&mut self, q: NodeId, v: u32) {
        if self.0[q] != v {
            Arc::make_mut(&mut self.0)[q] = v;
        }
    }

    /// Make this timestamp `other`, sharing its buffer: free if it already
    /// does (no count to bump, no stamp to drop).
    pub(crate) fn assign(&mut self, other: &Vc) {
        if !Arc::ptr_eq(&self.0, &other.0) {
            self.0 = Arc::clone(&other.0);
        }
    }

    /// Pairwise maximum (the merge performed at an acquire).
    pub fn merge(&mut self, other: &Vc) {
        debug_assert_eq!(self.0.len(), other.0.len());
        if Arc::ptr_eq(&self.0, &other.0) || other.dominated_by(self) {
            return;
        }
        if self.dominated_by(other) {
            // The merge IS the other timestamp: share its buffer.
            self.0 = Arc::clone(&other.0);
            return;
        }
        let mine = Arc::make_mut(&mut self.0);
        for (a, b) in mine.iter_mut().zip(other.0.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// `self ≤ other` in the dominance (component-wise) order: everything
    /// this timestamp covers is also covered by `other`.
    pub fn dominated_by(&self, other: &Vc) -> bool {
        debug_assert_eq!(self.0.len(), other.0.len());
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a <= b)
    }

    /// True if an interval with index `ivx` of node `owner` is covered by
    /// this timestamp. Interval indices of one node are totally ordered, so
    /// coverage is a single comparison.
    #[inline]
    pub fn covers(&self, owner: NodeId, ivx: u32) -> bool {
        self.0[owner] >= ivx
    }

    /// Sum of entries — a linear extension of the dominance order, used to
    /// sort diffs into a legal application order (if `a` strictly dominates
    /// `b`, then `sum(a) > sum(b)`).
    pub fn weight(&self) -> u64 {
        self.0.iter().map(|&v| v as u64).sum()
    }

    /// Approximate wire size in bytes (4 bytes per entry).
    pub fn wire_size(&self) -> u64 {
        4 * self.0.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_dominated_by_everything() {
        let z = Vc::zero(4);
        let mut v = Vc::zero(4);
        v.set(2, 5);
        assert!(z.dominated_by(&v));
        assert!(z.dominated_by(&z));
        assert!(!v.dominated_by(&z));
    }

    #[test]
    fn merge_is_pairwise_max() {
        let mut a = Vc::zero(3);
        a.set(0, 4);
        a.set(1, 1);
        let mut b = Vc::zero(3);
        b.set(1, 3);
        b.set(2, 2);
        a.merge(&b);
        assert_eq!((a.get(0), a.get(1), a.get(2)), (4, 3, 2));
    }

    #[test]
    fn covers_checks_single_entry() {
        let mut v = Vc::zero(3);
        v.set(1, 7);
        assert!(v.covers(1, 7));
        assert!(v.covers(1, 1));
        assert!(!v.covers(1, 8));
        assert!(v.covers(0, 0));
        assert!(!v.covers(0, 1));
    }

    #[test]
    fn weight_is_linear_extension() {
        let mut a = Vc::zero(3);
        a.set(0, 1);
        let mut b = a.clone();
        b.set(1, 2);
        // a < b strictly, so weight must increase.
        assert!(a.dominated_by(&b) && a != b);
        assert!(a.weight() < b.weight());
    }

    #[test]
    fn concurrent_timestamps_neither_dominates() {
        let mut a = Vc::zero(2);
        a.set(0, 1);
        let mut b = Vc::zero(2);
        b.set(1, 1);
        assert!(!a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
    }

    proptest::proptest! {
        #[test]
        fn prop_merge_dominates_both(a in proptest::collection::vec(0u32..50, 4),
                                     b in proptest::collection::vec(0u32..50, 4)) {
            let va = Vc(Arc::new(a.clone()));
            let vb = Vc(Arc::new(b.clone()));
            let mut m = va.clone();
            m.merge(&vb);
            proptest::prop_assert!(va.dominated_by(&m));
            proptest::prop_assert!(vb.dominated_by(&m));
            // And it is the least upper bound: any other upper bound
            // dominates the merge.
            let ub = Vc(Arc::new(a.iter().zip(&b).map(|(x, y)| x.max(y) + 1).collect()));
            proptest::prop_assert!(m.dominated_by(&ub));
        }

        #[test]
        fn prop_merge_is_commutative_associative_idempotent(
            a in proptest::collection::vec(0u32..50, 4),
            b in proptest::collection::vec(0u32..50, 4),
            c in proptest::collection::vec(0u32..50, 4),
        ) {
            let (va, vb, vc_) = (Vc(Arc::new(a)), Vc(Arc::new(b)), Vc(Arc::new(c)));
            // commutative: merge(a,b) == merge(b,a)
            let mut ab = va.clone();
            ab.merge(&vb);
            let mut ba = vb.clone();
            ba.merge(&va);
            proptest::prop_assert_eq!(&ab, &ba);
            // associative: merge(merge(a,b),c) == merge(a,merge(b,c))
            let mut ab_c = ab.clone();
            ab_c.merge(&vc_);
            let mut bc = vb.clone();
            bc.merge(&vc_);
            let mut a_bc = va.clone();
            a_bc.merge(&bc);
            proptest::prop_assert_eq!(&ab_c, &a_bc);
            // idempotent: merge(a,a) == a
            let mut aa = va.clone();
            aa.merge(&va);
            proptest::prop_assert_eq!(&aa, &va);
        }

        #[test]
        fn prop_covers_agrees_with_dominance(a in proptest::collection::vec(0u32..20, 4),
                                             b in proptest::collection::vec(0u32..20, 4)) {
            let (va, vb) = (Vc(Arc::new(a)), Vc(Arc::new(b)));
            // a ≤ b exactly when b covers every (owner, ivx) entry of a —
            // the per-notice check and the whole-timestamp check must be
            // two views of the same order.
            let entrywise = (0..va.len()).all(|i| vb.covers(i, va.get(i)));
            proptest::prop_assert_eq!(va.dominated_by(&vb), entrywise);
            // covers round-trips with set/get: after set(i, k), exactly the
            // indices up to k are covered at i.
            let mut w = vb.clone();
            for i in 0..w.len() {
                let k = va.get(i);
                w.set(i, k);
                proptest::prop_assert!(w.covers(i, k));
                proptest::prop_assert_eq!(w.get(i), k);
                proptest::prop_assert!(!w.covers(i, k + 1));
            }
        }

        #[test]
        fn prop_weight_is_strictly_monotone(a in proptest::collection::vec(0u32..50, 4),
                                            b in proptest::collection::vec(0u32..50, 4)) {
            // weight() linearizes happened-before: strict dominance must
            // mean strictly smaller weight (the diff-apply sort relies on
            // this to order causally-related records).
            let (va, vb) = (Vc(Arc::new(a)), Vc(Arc::new(b)));
            if va.dominated_by(&vb) && va != vb {
                proptest::prop_assert!(va.weight() < vb.weight());
            }
        }

        #[test]
        fn prop_dominance_is_a_partial_order(a in proptest::collection::vec(0u32..10, 3),
                                             b in proptest::collection::vec(0u32..10, 3),
                                             c in proptest::collection::vec(0u32..10, 3)) {
            let (va, vb, vc_) = (Vc(Arc::new(a)), Vc(Arc::new(b)), Vc(Arc::new(c)));
            // reflexive
            proptest::prop_assert!(va.dominated_by(&va));
            // antisymmetric
            if va.dominated_by(&vb) && vb.dominated_by(&va) {
                proptest::prop_assert_eq!(&va, &vb);
            }
            // transitive
            if va.dominated_by(&vb) && vb.dominated_by(&vc_) {
                proptest::prop_assert!(va.dominated_by(&vc_));
            }
        }
    }
}
