//! DSM protocol cost parameters.

use repseq_sim::Dur;

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

/// Parameters of the simulated TreadMarks runtime.
///
/// The time costs model an 800 MHz Athlon running the TreadMarks user-level
/// library over UDP (the paper's testbed): page-protection traps and
/// handler dispatch cost tens of microseconds, twin/diff work is a few
/// memory passes over a 4 KB page.
#[derive(Debug, Clone)]
pub struct DsmConfig {
    /// Shared page size in bytes.
    pub page_size: usize,
    /// Size of the shared heap in pages.
    pub heap_pages: u32,
    /// Cost of taking a page fault (trap + handler entry/exit).
    pub fault_overhead: Dur,
    /// Cost per byte of creating a twin (one page copy).
    pub twin_ns_per_byte: f64,
    /// Cost per byte of scanning a page against its twin to make a diff.
    pub diff_create_ns_per_byte: f64,
    /// Cost per payload byte of applying a diff.
    pub diff_apply_ns_per_byte: f64,
    /// Handler dispatch cost per protocol request served.
    pub service_overhead: Dur,
    /// Processing cost per synchronization message (barrier, lock, fork).
    pub sync_overhead: Dur,
    /// Receive timeout before the replicated-section recovery path kicks in
    /// (§5.4.2: "a rather expensive mechanism ... almost never invoked").
    /// Also the parallel-section fetch timer's initial value and floor:
    /// that timer learns each node's fetch time and backs off.
    pub rse_timeout: Dur,
    /// Maximum §5.4.2 recovery rounds for one fault before the node gives
    /// up with a diagnostic panic. Every round re-requests every missing
    /// diff, so a recovery that has not converged after this many rounds
    /// indicates a protocol bug or a dead peer, not loss.
    pub rse_max_retries: u32,
    /// Multicast pacing during replicated sections.
    pub flow_control: FlowControl,
}

impl Default for DsmConfig {
    fn default() -> Self {
        DsmConfig {
            page_size: 4096,
            heap_pages: 16 * 1024, // 64 MB shared heap
            fault_overhead: Dur::from_micros(25),
            twin_ns_per_byte: 0.25,
            diff_create_ns_per_byte: 1.0,
            diff_apply_ns_per_byte: 0.5,
            service_overhead: Dur::from_micros(10),
            sync_overhead: Dur::from_micros(8),
            rse_timeout: Dur::from_millis(500),
            rse_max_retries: 32,
            flow_control: FlowControl::Serialized,
        }
    }
}

impl DsmConfig {
    /// Cost of copying one page into a twin.
    pub fn twin_cost(&self) -> Dur {
        Dur::from_secs_f64(self.twin_ns_per_byte * self.page_size as f64 * 1e-9)
    }

    /// Cost of scanning one page against its twin.
    pub fn diff_create_cost(&self) -> Dur {
        Dur::from_secs_f64(self.diff_create_ns_per_byte * self.page_size as f64 * 1e-9)
    }

    /// Cost of applying `payload` bytes of diff.
    pub fn diff_apply_cost(&self, payload: u64) -> Dur {
        Dur::from_secs_f64(self.diff_apply_ns_per_byte * payload as f64 * 1e-9)
    }

    /// Total shared heap size in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.heap_pages as u64 * self.page_size as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_with_page_size() {
        let cfg = DsmConfig::default();
        assert_eq!(cfg.twin_cost(), Dur::from_nanos(1024));
        assert_eq!(cfg.diff_create_cost(), Dur::from_nanos(4096));
        assert_eq!(cfg.diff_apply_cost(1000), Dur::from_nanos(500));
        assert_eq!(cfg.heap_bytes(), 64 * 1024 * 1024);
    }
}
