//! Host-side counts of the diff engine and the software MMU.
//!
//! Everything else in this crate measures *simulated* time — the virtual
//! nanoseconds the cost model charges. These counters instead measure the
//! *host* work the simulator itself does in the diff hot paths, so the
//! bench harness can report how fast the data plane actually runs and
//! track that trajectory across commits (see DESIGN.md §Performance).
//!
//! A [`HostCounters`] is plain data: each node of a cluster owns one and
//! bumps it through the `&mut` its state is already reached by, and when
//! the run returns the cluster sums them into the run's own registry
//! ([`crate::Stats::fold_host`], read by [`crate::Stats::host`]), so runs
//! sharing a process never see each other's counts. Nothing feeds back
//! into the simulation — virtual time comes from the cost model alone.

use std::ops::AddAssign;
use std::time::Instant;

use parking_lot::Mutex;

/// One node's — or, summed, one run's — host-side data-plane counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Host nanoseconds spent in `Diff::create` (including lazy creation
    /// on the serve path).
    pub diff_create_ns: u64,
    pub diff_create_calls: u64,
    /// Page bytes scanned by `Diff::create` (twin + page).
    pub diff_create_bytes: u64,
    /// Host nanoseconds spent applying diffs to pages.
    pub diff_apply_ns: u64,
    pub diff_apply_calls: u64,
    /// Payload bytes copied into pages by diff application.
    pub diff_apply_bytes: u64,
    /// Twin allocations served from the buffer pool (allocations avoided).
    pub twin_pool_hits: u64,
    /// Twin allocations that fell through to the allocator.
    pub twin_pool_misses: u64,
    /// Scratch vectors (notice walks, elections, diff batches) served from
    /// the per-node arena: allocations saved on the protocol hot paths.
    pub scratch_pool_hits: u64,
    /// Scratch takes that fell through to the allocator.
    pub scratch_pool_misses: u64,
    /// Shared-memory accesses served from the software TLB or from a
    /// page-run guard's held translation (mutex and page walk skipped, one
    /// hit per element as a hardware TLB would report).
    pub tlb_hits: u64,
    /// Accesses that took the locked page walk (possibly faulting).
    pub tlb_misses: u64,
}

impl HostCounters {
    /// Record a `Diff::create` call: host time since `started` and the
    /// number of page bytes scanned (twin + page).
    pub fn diff_created(&mut self, started: Instant, bytes_scanned: u64) {
        self.diff_create_ns += started.elapsed().as_nanos() as u64;
        self.diff_create_calls += 1;
        self.diff_create_bytes += bytes_scanned;
    }

    /// Record a diff-application pass: host time since `started` and
    /// payload bytes copied into the page.
    pub fn diffs_applied(&mut self, started: Instant, bytes_copied: u64) {
        self.diff_apply_ns += started.elapsed().as_nanos() as u64;
        self.diff_apply_calls += 1;
        self.diff_apply_bytes += bytes_copied;
    }
}

impl AddAssign for HostCounters {
    fn add_assign(&mut self, o: HostCounters) {
        self.diff_create_ns += o.diff_create_ns;
        self.diff_create_calls += o.diff_create_calls;
        self.diff_create_bytes += o.diff_create_bytes;
        self.diff_apply_ns += o.diff_apply_ns;
        self.diff_apply_calls += o.diff_apply_calls;
        self.diff_apply_bytes += o.diff_apply_bytes;
        self.twin_pool_hits += o.twin_pool_hits;
        self.twin_pool_misses += o.twin_pool_misses;
        self.scratch_pool_hits += o.scratch_pool_hits;
        self.scratch_pool_misses += o.scratch_pool_misses;
        self.tlb_hits += o.tlb_hits;
        self.tlb_misses += o.tlb_misses;
    }
}

/// Every finished run's sum, for `benchmark/` until ROADMAP item 6 deletes
/// it: its frozen `measure.rs` brackets a repetition with [`reset`] and
/// [`snapshot`]. Not a second counting path, one more addend of the
/// end-of-run sum: [`crate::Stats::fold_host`] is its only writer.
static TOTAL: Mutex<Option<HostCounters>> = Mutex::new(None);

pub(crate) fn fold(run: HostCounters) {
    *TOTAL.lock().get_or_insert_with(HostCounters::default) += run;
}

/// The sum over every run that returned in this process since its start
/// (or the last [`reset`]).
pub fn snapshot() -> HostCounters {
    TOTAL.lock().unwrap_or_default()
}

/// Forget the runs folded so far.
pub fn reset() {
    *TOTAL.lock() = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_record_and_add() {
        let mut a = HostCounters { twin_pool_hits: 1, tlb_misses: 2, ..Default::default() };
        a.diff_created(Instant::now(), 4096 * 2);
        a.diffs_applied(Instant::now(), 100);
        let mut sum = HostCounters { scratch_pool_misses: 5, tlb_misses: 1, ..Default::default() };
        sum += a;
        sum += a;
        assert_eq!((sum.diff_create_calls, sum.diff_create_bytes), (2, 16_384));
        assert_eq!((sum.diff_apply_calls, sum.diff_apply_bytes), (2, 200));
        assert_eq!(sum.diff_create_ns, 2 * a.diff_create_ns);
        assert_eq!((sum.twin_pool_hits, sum.scratch_pool_misses, sum.tlb_misses), (2, 5, 5));
        assert_eq!((sum.twin_pool_misses, sum.scratch_pool_hits, sum.tlb_hits), (0, 0, 0));
    }
}
