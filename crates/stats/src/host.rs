//! Host wall-clock counters for the diff engine and the software MMU.
//!
//! Everything else in this crate measures *simulated* time — the virtual
//! nanoseconds the cost model charges. These counters instead measure the
//! *host* time the simulator itself spends in the diff hot paths, so the
//! bench harness can report how fast the data plane actually runs and
//! track that trajectory across commits (see DESIGN.md §Performance).
//!
//! The counters are process-global atomics, aggregated across every
//! simulated node (the interesting figure is total host work, not its
//! per-node split) and bumped per *event* — a diff, a pool take. The one
//! per-*access* pair, the TLB's, is kept by each node in plain fields and
//! arrives here once, by [`tlb_fold`]. Nothing feeds back into the
//! simulation — virtual time is computed from the cost model alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static DIFF_CREATE_NS: AtomicU64 = AtomicU64::new(0);
static DIFF_CREATE_CALLS: AtomicU64 = AtomicU64::new(0);
static DIFF_CREATE_BYTES: AtomicU64 = AtomicU64::new(0);
static DIFF_APPLY_NS: AtomicU64 = AtomicU64::new(0);
static DIFF_APPLY_CALLS: AtomicU64 = AtomicU64::new(0);
static DIFF_APPLY_BYTES: AtomicU64 = AtomicU64::new(0);
static TWIN_POOL_HITS: AtomicU64 = AtomicU64::new(0);
static TWIN_POOL_MISSES: AtomicU64 = AtomicU64::new(0);
static SCRATCH_POOL_HITS: AtomicU64 = AtomicU64::new(0);
static SCRATCH_POOL_MISSES: AtomicU64 = AtomicU64::new(0);
static TLB_HITS: AtomicU64 = AtomicU64::new(0);
static TLB_MISSES: AtomicU64 = AtomicU64::new(0);
static RACE_CHECKS: AtomicU64 = AtomicU64::new(0);
static RACES_FOUND: AtomicU64 = AtomicU64::new(0);

/// A running timer; hand it to one of the `record_*` functions when the
/// measured region ends.
pub struct HostTimer(Instant);

/// Start timing a diff-engine region.
pub fn start() -> HostTimer {
    HostTimer(Instant::now())
}

/// Record a `Diff::create` call: elapsed host time and the number of page
/// bytes scanned (twin + page).
pub fn record_diff_create(t: HostTimer, bytes_scanned: u64) {
    DIFF_CREATE_NS.fetch_add(t.0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    DIFF_CREATE_CALLS.fetch_add(1, Ordering::Relaxed);
    DIFF_CREATE_BYTES.fetch_add(bytes_scanned, Ordering::Relaxed);
}

/// Record a diff-application pass: elapsed host time and payload bytes
/// copied into the page.
pub fn record_diff_apply(t: HostTimer, bytes_copied: u64) {
    DIFF_APPLY_NS.fetch_add(t.0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    DIFF_APPLY_CALLS.fetch_add(1, Ordering::Relaxed);
    DIFF_APPLY_BYTES.fetch_add(bytes_copied, Ordering::Relaxed);
}

/// A twin/scratch buffer was served from the pool (one page allocation
/// avoided).
pub fn twin_pool_hit() {
    TWIN_POOL_HITS.fetch_add(1, Ordering::Relaxed);
}

/// The pool was empty; a fresh page buffer was allocated.
pub fn twin_pool_miss() {
    TWIN_POOL_MISSES.fetch_add(1, Ordering::Relaxed);
}

/// A small scratch vector (write-notice walk, requester election, diff
/// batch) was served from a node's scratch arena — one heap allocation
/// avoided on a protocol hot path.
pub fn scratch_pool_hit() {
    SCRATCH_POOL_HITS.fetch_add(1, Ordering::Relaxed);
}

/// The scratch arena had no banked buffer of the requested shape; a fresh
/// vector was allocated.
pub fn scratch_pool_miss() {
    SCRATCH_POOL_MISSES.fetch_add(1, Ordering::Relaxed);
}

/// One node's software-TLB counts, folded in when its application
/// process ends: `hits` accesses were served from a cached translation or
/// from a page-run guard's held one (mutex and page walk skipped, one hit
/// per element as a hardware TLB would report), `misses` took the locked
/// walk (possibly faulting).
pub fn tlb_fold(hits: u64, misses: u64) {
    TLB_HITS.fetch_add(hits, Ordering::Relaxed);
    TLB_MISSES.fetch_add(misses, Ordering::Relaxed);
}

/// The race detector checked one shadow granule against an access.
/// Host-side like everything here: the detector observes the simulation
/// and never feeds back into it, so these counters live outside the
/// deterministic per-node [`crate::Stats`] registry on purpose — the
/// detector-invariance gate compares those snapshots bit-for-bit with the
/// detector on and off.
pub fn race_check() {
    RACE_CHECKS.fetch_add(1, Ordering::Relaxed);
}

/// The race detector found a pair of unordered conflicting accesses.
pub fn race_found() {
    RACES_FOUND.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of the host-side diff-engine counters.
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
    /// Shared-memory accesses served from the software TLB.
    pub tlb_hits: u64,
    /// Accesses that took the locked page walk.
    pub tlb_misses: u64,
    /// Shadow-granule checks performed by the race detector.
    pub race_checks: u64,
    /// Unordered conflicting access pairs the race detector found.
    pub races_found: u64,
}

/// Read the counters accumulated since process start (or the last
/// [`reset`]).
pub fn snapshot() -> HostCounters {
    HostCounters {
        diff_create_ns: DIFF_CREATE_NS.load(Ordering::Relaxed),
        diff_create_calls: DIFF_CREATE_CALLS.load(Ordering::Relaxed),
        diff_create_bytes: DIFF_CREATE_BYTES.load(Ordering::Relaxed),
        diff_apply_ns: DIFF_APPLY_NS.load(Ordering::Relaxed),
        diff_apply_calls: DIFF_APPLY_CALLS.load(Ordering::Relaxed),
        diff_apply_bytes: DIFF_APPLY_BYTES.load(Ordering::Relaxed),
        twin_pool_hits: TWIN_POOL_HITS.load(Ordering::Relaxed),
        twin_pool_misses: TWIN_POOL_MISSES.load(Ordering::Relaxed),
        scratch_pool_hits: SCRATCH_POOL_HITS.load(Ordering::Relaxed),
        scratch_pool_misses: SCRATCH_POOL_MISSES.load(Ordering::Relaxed),
        tlb_hits: TLB_HITS.load(Ordering::Relaxed),
        tlb_misses: TLB_MISSES.load(Ordering::Relaxed),
        race_checks: RACE_CHECKS.load(Ordering::Relaxed),
        races_found: RACES_FOUND.load(Ordering::Relaxed),
    }
}

/// Zero the counters. Benches call this between runs so each measurement
/// stands alone; concurrent simulations in the same process would bleed
/// into each other, so benches run one simulation at a time.
pub fn reset() {
    for c in [
        &DIFF_CREATE_NS,
        &DIFF_CREATE_CALLS,
        &DIFF_CREATE_BYTES,
        &DIFF_APPLY_NS,
        &DIFF_APPLY_CALLS,
        &DIFF_APPLY_BYTES,
        &TWIN_POOL_HITS,
        &TWIN_POOL_MISSES,
        &SCRATCH_POOL_HITS,
        &SCRATCH_POOL_MISSES,
        &TLB_HITS,
        &TLB_MISSES,
        &RACE_CHECKS,
        &RACES_FOUND,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

impl HostCounters {
    /// Difference of two snapshots (for measuring a region between them).
    pub fn since(&self, earlier: &HostCounters) -> HostCounters {
        HostCounters {
            diff_create_ns: self.diff_create_ns - earlier.diff_create_ns,
            diff_create_calls: self.diff_create_calls - earlier.diff_create_calls,
            diff_create_bytes: self.diff_create_bytes - earlier.diff_create_bytes,
            diff_apply_ns: self.diff_apply_ns - earlier.diff_apply_ns,
            diff_apply_calls: self.diff_apply_calls - earlier.diff_apply_calls,
            diff_apply_bytes: self.diff_apply_bytes - earlier.diff_apply_bytes,
            twin_pool_hits: self.twin_pool_hits - earlier.twin_pool_hits,
            twin_pool_misses: self.twin_pool_misses - earlier.twin_pool_misses,
            scratch_pool_hits: self.scratch_pool_hits - earlier.scratch_pool_hits,
            scratch_pool_misses: self.scratch_pool_misses - earlier.scratch_pool_misses,
            tlb_hits: self.tlb_hits - earlier.tlb_hits,
            tlb_misses: self.tlb_misses - earlier.tlb_misses,
            race_checks: self.race_checks - earlier.race_checks,
            races_found: self.races_found - earlier.races_found,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let before = snapshot();
        let t = start();
        record_diff_create(t, 4096 * 2);
        let t = start();
        record_diff_apply(t, 100);
        twin_pool_hit();
        twin_pool_miss();
        scratch_pool_hit();
        scratch_pool_hit();
        scratch_pool_miss();
        tlb_fold(1, 1);
        race_check();
        race_check();
        race_found();
        let delta = snapshot().since(&before);
        assert_eq!(delta.diff_create_calls, 1);
        assert_eq!(delta.diff_create_bytes, 8192);
        assert_eq!(delta.diff_apply_calls, 1);
        assert_eq!(delta.diff_apply_bytes, 100);
        assert_eq!(delta.twin_pool_hits, 1);
        assert_eq!(delta.twin_pool_misses, 1);
        assert_eq!(delta.scratch_pool_hits, 2);
        assert_eq!(delta.scratch_pool_misses, 1);
        assert_eq!(delta.tlb_hits, 1);
        assert_eq!(delta.tlb_misses, 1);
        assert_eq!(delta.race_checks, 2);
        assert_eq!(delta.races_found, 1);
    }
}
