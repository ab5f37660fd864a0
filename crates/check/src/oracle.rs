//! The coherence oracle: a flat single-copy reference memory, a trait that
//! lets workload bodies run unchanged on it and on the DSM, and the
//! snapshot comparison.
//!
//! ## Why the comparison is sound where we take it
//!
//! The DSM is lazy-invalidate: a page may legitimately hold stale data
//! while its owner's write notice has not yet reached this node. The oracle
//! therefore compares **only valid pages**, and only at the two points
//! where validity implies coherence:
//!
//! * **replicated-section exit**: every node has executed the same
//!   deterministic body, so every page the body touched holds the same
//!   bytes everywhere, and a valid untouched page was coherent at entry
//!   (the fork's records invalidated everything stale);
//! * **immediately after a barrier**: the departure message carries every
//!   other node's interval records, so anything written elsewhere has been
//!   invalidated here — what remains valid is current.
//!
//! Anywhere else a valid-but-stale page is correct DSM behaviour, not a
//! bug, and comparing there would produce false alarms.

use std::collections::BTreeMap;

use repseq_dsm::{page_of, DsmNode, PageId, PAGE_SIZE};
use repseq_sim::{Dur, Stopped};

/// Shared-memory operations a workload body is allowed to use, implemented
/// by both the DSM ([`DsmMem`]) and the reference memory ([`RefMem`]).
///
/// Bodies written against this trait must leave memory in a
/// schedule-independent state: replicated bodies may not branch on node
/// identity, and parallel bodies may combine lock-protected reads into
/// writes only commutatively (the reference replays nodes sequentially in
/// id order).
pub trait Mem {
    /// Load a shared `u64`.
    fn ld(&mut self, addr: u64) -> Result<u64, Stopped>;
    /// Store a shared `u64`.
    fn st(&mut self, addr: u64, v: u64) -> Result<(), Stopped>;
    /// Acquire lock `l` (no-op on the reference: replay is sequential).
    fn lock(&mut self, l: u32) -> Result<(), Stopped>;
    /// Release lock `l`.
    fn unlock(&mut self, l: u32) -> Result<(), Stopped>;
    /// Account for local compute time (no-op on the reference).
    fn charge_us(&mut self, us: u64);
}

/// The DSM side of [`Mem`]: every access goes through the software MMU and
/// can fault, fetch diffs, and block.
pub struct DsmMem<'a>(pub &'a DsmNode);

impl Mem for DsmMem<'_> {
    fn ld(&mut self, addr: u64) -> Result<u64, Stopped> {
        self.0.read::<u64>(addr)
    }
    fn st(&mut self, addr: u64, v: u64) -> Result<(), Stopped> {
        self.0.write::<u64>(addr, v)
    }
    fn lock(&mut self, l: u32) -> Result<(), Stopped> {
        self.0.lock(l)
    }
    fn unlock(&mut self, l: u32) -> Result<(), Stopped> {
        self.0.unlock(l)
    }
    fn charge_us(&mut self, us: u64) {
        self.0.charge(Dur::from_micros(us));
    }
}

/// The single-copy reference memory: sparse zero-initialized pages, the
/// same little-endian encoding the DSM's `Pod` layer uses. There is no
/// coherence protocol to get wrong here — whatever this holds after a
/// replay is the ground truth.
#[derive(Default)]
pub struct RefMem {
    pages: BTreeMap<PageId, Vec<u8>>,
}

impl RefMem {
    /// The current image of page `p` (zeros if never written).
    pub fn page_image(&self, p: PageId) -> Vec<u8> {
        self.pages.get(&p).cloned().unwrap_or_else(|| vec![0u8; PAGE_SIZE])
    }

    fn byte_mut(&mut self, addr: u64) -> &mut u8 {
        let (p, off) = page_of(addr);
        let page = self.pages.entry(p).or_insert_with(|| vec![0u8; PAGE_SIZE]);
        &mut page[off]
    }

    fn byte(&self, addr: u64) -> u8 {
        let (p, off) = page_of(addr);
        self.pages.get(&p).map_or(0, |page| page[off])
    }
}

impl Mem for RefMem {
    fn ld(&mut self, addr: u64) -> Result<u64, Stopped> {
        let mut b = [0u8; 8];
        for (i, slot) in b.iter_mut().enumerate() {
            *slot = self.byte(addr + i as u64);
        }
        Ok(u64::from_le_bytes(b))
    }
    fn st(&mut self, addr: u64, v: u64) -> Result<(), Stopped> {
        for (i, byte) in v.to_le_bytes().into_iter().enumerate() {
            *self.byte_mut(addr + i as u64) = byte;
        }
        Ok(())
    }
    fn lock(&mut self, _l: u32) -> Result<(), Stopped> {
        Ok(())
    }
    fn unlock(&mut self, _l: u32) -> Result<(), Stopped> {
        Ok(())
    }
    fn charge_us(&mut self, _us: u64) {}
}

/// One node's view of one audited page at one checkpoint, captured inside
/// the cluster run via [`DsmNode::inspect_page`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Index of the workload phase the checkpoint follows.
    pub phase: usize,
    /// The observing node.
    pub node: usize,
    /// The audited page.
    pub page: PageId,
    /// The page bytes as a local read would have seen them.
    pub bytes: Vec<u8>,
}

/// The first byte at which a node's memory departed from the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleViolation {
    /// Phase checkpoint at which the divergence was observed.
    pub phase: usize,
    /// Node whose copy is wrong.
    pub node: usize,
    /// The divergent page.
    pub page: PageId,
    /// Byte offset within the page.
    pub offset: usize,
    /// What the reference memory holds there.
    pub expected: u8,
    /// What the node holds there.
    pub actual: u8,
}

/// Per-phase expected images of the audited pages, produced by
/// [`crate::harness`] replaying the workload on a [`RefMem`].
pub type Expected = Vec<BTreeMap<PageId, Vec<u8>>>;

/// Compare every snapshot against the reference image of its phase.
/// Returns the first mismatching byte, in snapshot order (which is virtual
/// time order — the simulation serializes the collectors).
pub fn check_snapshots(snaps: &[Snapshot], expected: &Expected) -> Option<OracleViolation> {
    for s in snaps {
        let want =
            expected[s.phase].get(&s.page).expect("snapshot of a page outside the audit set");
        debug_assert_eq!(want.len(), s.bytes.len());
        if let Some(off) = (0..want.len()).find(|&i| want[i] != s.bytes[i]) {
            return Some(OracleViolation {
                phase: s.phase,
                node: s.node,
                page: s.page,
                offset: off,
                expected: want[off],
                actual: s.bytes[off],
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refmem_roundtrips_and_zero_fills() {
        let mut m = RefMem::default();
        assert_eq!(m.ld(64).unwrap(), 0);
        m.st(64, 0xDEAD_BEEF_0102_0304).unwrap();
        assert_eq!(m.ld(64).unwrap(), 0xDEAD_BEEF_0102_0304);
        // Little-endian, matching the DSM's Pod encoding.
        assert_eq!(m.page_image(0)[64], 0x04);
        // A write spanning a page boundary lands in both pages.
        m.st(4096 - 4, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.ld(4096 - 4).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.page_image(1)[0], 0x44);
    }

    #[test]
    fn check_finds_first_divergent_byte() {
        let mut want = BTreeMap::new();
        want.insert(3 as PageId, vec![0u8, 1, 2, 3]);
        let expected = vec![want];
        let ok = Snapshot { phase: 0, node: 1, page: 3, bytes: vec![0, 1, 2, 3] };
        assert_eq!(check_snapshots(std::slice::from_ref(&ok), &expected), None);
        let bad = Snapshot { phase: 0, node: 2, page: 3, bytes: vec![0, 1, 9, 3] };
        let v = check_snapshots(&[ok, bad], &expected).unwrap();
        assert_eq!((v.node, v.offset, v.expected, v.actual), (2, 2, 2, 9));
    }
}
