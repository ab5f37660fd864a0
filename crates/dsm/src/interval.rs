//! Intervals and write notices (§5.1).
//!
//! Each node's execution is divided into intervals delimited by
//! synchronization operations. An interval record names the pages its owner
//! modified during the interval (the *write notices*) and carries the
//! interval's vector timestamp. Records travel with synchronization
//! messages; each node keeps every record it has learned in an
//! [`IntervalStore`].

use std::sync::Arc;

use repseq_stats::NodeId;

use crate::vc::Vc;

/// Identifier of a shared page.
pub type PageId = u32;

/// The immutable payload of one interval: its vector timestamp and the
/// pages it modified (the write notices). Built exactly once, at the
/// interval close, and shared by reference ever after — the store keeps
/// one `Arc`, and every record shipped at a barrier, lock grant or fork
/// clones the `Arc`, not the vectors. A barrier on an `n`-node cluster
/// fans the same records out to `n - 1` clients; without the sharing that
/// is `O(n²)` deep copies of timestamp + page-list per step.
#[derive(Debug, PartialEq)]
pub struct IntervalData {
    /// The interval's vector timestamp.
    pub vc: Vc,
    /// `vc.weight()`, summed once here: diff application sorts every
    /// record it applies by the weight of the record's first interval.
    pub weight: u64,
    /// Pages modified during the interval (write notices), ascending.
    pub pages: Vec<PageId>,
}

/// A write-notice record for one interval, as shipped in synchronization
/// messages. Cloning a record is cheap (an `Arc` bump): fan-out paths
/// rely on that.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// The node whose interval this is.
    pub owner: NodeId,
    /// The interval index (1-based; entry `owner` of `vc` equals this).
    pub ivx: u32,
    /// The shared payload (timestamp + write notices).
    pub data: Arc<IntervalData>,
}

impl IntervalRecord {
    /// Build a record, wrapping the payload for sharing.
    pub fn new(owner: NodeId, ivx: u32, vc: Vc, pages: Vec<PageId>) -> IntervalRecord {
        let weight = vc.weight();
        IntervalRecord { owner, ivx, data: Arc::new(IntervalData { vc, weight, pages }) }
    }

    /// Approximate wire size in bytes (the wire carries the payload, not
    /// the host-side sharing).
    pub fn wire_size(&self) -> u64 {
        8 + self.data.vc.wire_size() + 4 * self.data.pages.len() as u64
    }
}

/// Everything one node knows about intervals, its own and others'.
#[derive(Debug, Default)]
pub struct IntervalStore {
    /// `per_owner[q][i]` is interval `i + 1` of node `q`. Intervals are
    /// always learned in order (synchronization messages carry every
    /// missing predecessor), so a dense vector suffices. Entries share
    /// their payload with every in-flight record of the same interval.
    per_owner: Vec<Vec<Arc<IntervalData>>>,
}

impl IntervalStore {
    /// Empty store for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        IntervalStore { per_owner: vec![Vec::new(); n] }
    }

    /// Highest interval index known for `owner` (0 = none).
    pub fn known(&self, owner: NodeId) -> u32 {
        self.per_owner[owner].len() as u32
    }

    /// Insert a record. Returns false if it was already known. Panics if a
    /// gap would form (the protocol always ships predecessors first).
    pub fn insert(&mut self, rec: IntervalRecord) -> bool {
        let have = self.known(rec.owner);
        if rec.ivx <= have {
            return false;
        }
        assert_eq!(
            rec.ivx,
            have + 1,
            "interval {} of node {} arrived before {} — protocol bug",
            rec.ivx,
            rec.owner,
            have + 1
        );
        let IntervalData { vc, weight, .. } = &*rec.data;
        debug_assert_eq!(vc.get(rec.owner), rec.ivx, "vc[owner] must equal the index");
        debug_assert_eq!(*weight, vc.weight(), "the weight is the timestamp's");
        self.per_owner[rec.owner].push(rec.data);
        true
    }

    /// Look up an interval (must be known).
    pub fn get(&self, owner: NodeId, ivx: u32) -> &IntervalData {
        &self.per_owner[owner][(ivx - 1) as usize]
    }

    /// All records this store knows that a peer with timestamp `their_vc`
    /// does not, in a legal (per-owner ascending) shipping order. This is
    /// the computation performed at barriers, lock grants and forks (§5.1:
    /// "write notices for all intervals named in q's current interval
    /// timestamp but not in the timestamp it received from p").
    pub fn records_unknown_to(&self, their_vc: &Vc) -> Vec<IntervalRecord> {
        let mut out = Vec::new();
        for (owner, list) in self.per_owner.iter().enumerate() {
            let from = their_vc.get(owner);
            for (i, data) in list.iter().enumerate().skip(from as usize) {
                out.push(IntervalRecord { owner, ivx: i as u32 + 1, data: Arc::clone(data) });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(owner: NodeId, ivx: u32, n: usize, pages: Vec<PageId>) -> IntervalRecord {
        let mut vc = Vc::zero(n);
        vc.set(owner, ivx);
        IntervalRecord::new(owner, ivx, vc, pages)
    }

    #[test]
    fn insert_in_order_and_query() {
        let mut s = IntervalStore::new(2);
        assert_eq!(s.known(0), 0);
        assert!(s.insert(rec(0, 1, 2, vec![5])));
        assert!(s.insert(rec(0, 2, 2, vec![6, 7])));
        assert_eq!(s.known(0), 2);
        assert_eq!(s.get(0, 2).pages, vec![6, 7]);
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let mut s = IntervalStore::new(2);
        assert!(s.insert(rec(1, 1, 2, vec![])));
        assert!(!s.insert(rec(1, 1, 2, vec![])));
        assert_eq!(s.known(1), 1);
    }

    #[test]
    #[should_panic(expected = "protocol bug")]
    fn gap_panics() {
        let mut s = IntervalStore::new(2);
        s.insert(rec(0, 2, 2, vec![]));
    }

    #[test]
    fn records_unknown_to_filters_by_vc() {
        let mut s = IntervalStore::new(2);
        s.insert(rec(0, 1, 2, vec![1]));
        s.insert(rec(0, 2, 2, vec![2]));
        s.insert(rec(1, 1, 2, vec![3]));
        let mut their = Vc::zero(2);
        their.set(0, 1);
        let out = s.records_unknown_to(&their);
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|r| r.owner == 0 && r.ivx == 2));
        assert!(out.iter().any(|r| r.owner == 1 && r.ivx == 1));
        // Shipping order per owner is ascending.
        let zeros = Vc::zero(2);
        let all = s.records_unknown_to(&zeros);
        assert_eq!(all.len(), 3);
        assert!(all[0].owner == 0 && all[0].ivx == 1);
        assert!(all[1].owner == 0 && all[1].ivx == 2);
    }

    #[test]
    fn wire_size_counts_pages_and_vc() {
        let r = rec(0, 1, 4, vec![1, 2, 3]);
        assert_eq!(r.wire_size(), 8 + 16 + 12);
    }

    #[test]
    fn fanned_out_records_share_the_stored_payload() {
        // A barrier re-ships the same interval to every client; each copy
        // must alias the store's payload, not deep-copy it.
        let mut s = IntervalStore::new(2);
        s.insert(rec(0, 1, 2, vec![1, 2, 3]));
        let zeros = Vc::zero(2);
        let a = s.records_unknown_to(&zeros);
        let b = s.records_unknown_to(&zeros);
        assert!(Arc::ptr_eq(&a[0].data, &b[0].data));
        let stored = s.get(0, 1);
        assert_eq!(stored.pages, a[0].data.pages);
        // Cloning a record is an Arc bump too.
        let c = a[0].clone();
        assert!(Arc::ptr_eq(&c.data, &a[0].data));
    }
}
