//! The simulated TreadMarks runtime's testbed constants and its two
//! settable parameters.
//!
//! The costs model an 800 MHz Athlon running the TreadMarks user-level
//! library over UDP (the paper's testbed): page-protection traps and
//! handler dispatch cost tens of microseconds, twin/diff work is a few
//! memory passes over a 4 KB page.

use repseq_sim::Dur;

use crate::interval::PageId;

/// Shared page size in bytes.
pub const PAGE_SIZE: usize = 4096;
/// Size of the shared heap in pages (64 MB).
pub const HEAP_PAGES: usize = 16 * 1024;
/// Cost of taking a page fault (trap + handler entry/exit).
pub const FAULT_OVERHEAD: Dur = Dur::from_micros(25);
/// Handler dispatch cost per protocol request served.
pub const SERVICE_OVERHEAD: Dur = Dur::from_micros(10);
/// Processing cost per synchronization message (barrier, lock, fork).
pub const SYNC_OVERHEAD: Dur = Dur::from_micros(8);
/// Cost per byte of creating a twin (one page copy).
pub const TWIN_NS_PER_BYTE: f64 = 0.25;
/// Cost per byte of scanning a page against its twin to make a diff.
pub const DIFF_CREATE_NS_PER_BYTE: f64 = 1.0;
/// Cost per payload byte of applying a diff.
pub const DIFF_APPLY_NS_PER_BYTE: f64 = 0.5;
/// Cost of copying one page into a twin.
pub const TWIN_COST: Dur = Dur::from_nanos((TWIN_NS_PER_BYTE * PAGE_SIZE as f64) as u64);
/// Cost of scanning one page against its twin.
pub const DIFF_CREATE_COST: Dur =
    Dur::from_nanos((DIFF_CREATE_NS_PER_BYTE * PAGE_SIZE as f64) as u64);
/// Maximum §5.4.2 recovery rounds for one fault before the node gives up
/// with a diagnostic panic. Every round re-requests every missing diff, so
/// a recovery that has not converged after this many rounds indicates a
/// protocol bug or a dead peer, not loss.
pub const RSE_MAX_RETRIES: u32 = 32;

/// The page holding byte address `addr`, and the byte's offset in it.
#[inline]
pub fn page_of(addr: u64) -> (PageId, usize) {
    ((addr / PAGE_SIZE as u64) as PageId, (addr % PAGE_SIZE as u64) as usize)
}

/// Cost of applying `payload` bytes of diff.
pub fn diff_apply_cost(payload: u64) -> Dur {
    Dur::from_secs_f64(DIFF_APPLY_NS_PER_BYTE * payload as f64 * 1e-9)
}

/// How multicast diff replies are paced during replicated sequential
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowControl {
    /// The paper's conservative scheme (§5.4.2): requests serialized at the
    /// master, replies multicast one node at a time in identifier order,
    /// null acknowledgments from nodes with nothing to send.
    Serialized,
    /// The idealized scheme the paper's §8 conjectures ("strategies that
    /// allow more concurrency in message delivery"): forwards are not
    /// serialized and every holder multicasts immediately. Physically
    /// optimistic (ignores receive-buffer overflow) — used by the
    /// flow-control ablation to bound the conjectured improvement.
    Concurrent,
}

/// The DSM parameters a run may set; everything else is a constant of the
/// testbed.
#[derive(Debug, Clone)]
pub struct DsmConfig {
    /// Receive timeout before the replicated-section recovery path kicks in
    /// (§5.4.2: "a rather expensive mechanism ... almost never invoked").
    /// Also the parallel-section fetch timer's initial value and floor:
    /// that timer learns each node's fetch time and backs off.
    pub rse_timeout: Dur,
    /// Multicast pacing during replicated sections.
    pub flow_control: FlowControl,
}

impl Default for DsmConfig {
    fn default() -> Self {
        DsmConfig { rse_timeout: Dur::from_millis(500), flow_control: FlowControl::Serialized }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_with_page_size() {
        // The constants round as the per-byte products did.
        let per_page = |ns_per_byte: f64| Dur::from_secs_f64(ns_per_byte * PAGE_SIZE as f64 * 1e-9);
        assert_eq!(TWIN_COST, per_page(TWIN_NS_PER_BYTE));
        assert_eq!(DIFF_CREATE_COST, per_page(DIFF_CREATE_NS_PER_BYTE));
        assert_eq!(TWIN_COST, Dur::from_nanos(1024));
        assert_eq!(DIFF_CREATE_COST, Dur::from_nanos(4096));
        assert_eq!(diff_apply_cost(1000), Dur::from_nanos(500));
        assert_eq!(HEAP_PAGES * PAGE_SIZE, 64 * 1024 * 1024);
    }
}
