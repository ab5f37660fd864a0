//! The Team API: OpenMP-style sections on top of the DSM fork/join
//! runtime, with the paper's two execution modes for sequential sections.

use std::ops::Range;

use repseq_dsm::{DsmNode, PageId, Pod, SeqMode, ShArray};
use repseq_sim::{Dur, SimTime, Stopped as DsmStopped};
use repseq_stats::Section;

pub use repseq_sim::Stopped;

/// Handle to the running team, available in the master program. All
/// shared-memory access, section structure and statistics flow through it.
pub struct Team<'a> {
    node: &'a DsmNode,
    mode: SeqMode,
}

impl<'a> Team<'a> {
    pub(crate) fn new(node: &'a DsmNode, mode: SeqMode) -> Team<'a> {
        Team { node, mode }
    }

    /// The master's DSM handle (for reads/writes between sections — note
    /// such accesses belong to the enclosing sequential section).
    pub fn node(&self) -> &'a DsmNode {
        self.node
    }

    /// The sequential-section execution mode.
    pub fn mode(&self) -> SeqMode {
        self.mode
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.node.ctx().now()
    }

    /// Charge master compute time.
    pub fn charge(&self, d: Dur) {
        self.node.charge(d);
    }

    /// Begin the measured portion of the run (after initialization).
    pub fn start_measurement(&self) {
        self.node.stats().start_measurement(self.now());
    }

    /// End the measured portion.
    pub fn end_measurement(&self) {
        self.node.stats().end_measurement(self.now());
    }

    /// Run a sequential section. Under [`SeqMode::Replicated`] the body
    /// runs on every node with replication semantics (§5.2); under the
    /// other modes, on the master alone. The body must be deterministic —
    /// the paper's stated assumption.
    pub fn sequential(
        &self,
        f: impl Fn(&DsmNode) -> Result<(), DsmStopped> + Send + Sync + 'static,
    ) -> Result<(), Stopped> {
        self.sequential_broadcasting(f, Vec::new())
    }

    /// Run a sequential section and, in [`SeqMode::MasterOnlyBroadcast`],
    /// broadcast the listed pages afterwards (the §6.1.2 hand-inserted
    /// broadcast). In the other modes the page list is ignored.
    pub fn sequential_broadcasting(
        &self,
        f: impl Fn(&DsmNode) -> Result<(), DsmStopped> + Send + Sync + 'static,
        broadcast_pages: Vec<PageId>,
    ) -> Result<(), Stopped> {
        if self.mode == SeqMode::Replicated {
            self.node.stats().set_section(Section::Replicated, self.now());
        } else {
            self.node.stats().set_section(Section::Sequential, self.now());
            self.node.race_label("team::sequential");
        }
        self.node.run_sequential(self.mode, f)?;
        if self.mode == SeqMode::MasterOnlyBroadcast {
            self.node.broadcast_pages(broadcast_pages)?;
        }
        Ok(())
    }

    /// Run a parallel region on every node. The body receives each node's
    /// DSM handle; use the schedules in [`crate::sched`] (or
    /// [`Worker`] helpers) to share work.
    pub fn parallel(
        &self,
        f: impl Fn(&DsmNode) -> Result<(), DsmStopped> + Send + Sync + 'static,
    ) -> Result<(), Stopped> {
        self.node.stats().set_section(Section::Parallel, self.now());
        self.node.run_parallel(f)
    }

    /// A `parallel for` with a static block schedule: `f(node, i)` runs for
    /// every `i` in `0..total`, each iteration on exactly one node.
    pub fn parallel_for_block(
        &self,
        total: usize,
        f: impl Fn(&DsmNode, usize) -> Result<(), DsmStopped> + Send + Sync + 'static,
    ) -> Result<(), Stopped> {
        self.parallel(move |nd| {
            for i in crate::sched::block_range(nd.node(), nd.n_nodes(), total) {
                f(nd, i)?;
            }
            Ok(())
        })
    }

    /// A `parallel for` with a static cyclic schedule (Ilink's non-zero
    /// entry distribution).
    pub fn parallel_for_cyclic(
        &self,
        total: usize,
        f: impl Fn(&DsmNode, usize) -> Result<(), DsmStopped> + Send + Sync + 'static,
    ) -> Result<(), Stopped> {
        self.parallel(move |nd| {
            for i in crate::sched::cyclic_iter(nd.node(), nd.n_nodes(), total) {
                f(nd, i)?;
            }
            Ok(())
        })
    }

    /// Guarded output: "input and output instructions are not duplicated"
    /// (§5.2). Inside replicated sections, call with the section's node
    /// handle; only the master's invocation prints.
    pub fn master_print(node: &DsmNode, args: std::fmt::Arguments<'_>) {
        if node.is_master() {
            println!("{args}");
        }
    }
}

/// Per-node helpers available inside parallel bodies.
pub trait Worker {
    /// This node's block of `0..total`.
    fn my_block(&self, total: usize) -> Range<usize>;
    /// Read the whole array into a local buffer ([`ShArray::read_range`]):
    /// one read fault per page, elements decoded straight from the page
    /// bytes, in place for a page this node never stored into.
    fn read_all<T: Pod>(&self, arr: ShArray<T>) -> Result<Vec<T>, DsmStopped>;
}

impl Worker for DsmNode {
    fn my_block(&self, total: usize) -> Range<usize> {
        crate::sched::block_range(self.node(), self.n_nodes(), total)
    }

    fn read_all<T: Pod>(&self, arr: ShArray<T>) -> Result<Vec<T>, DsmStopped> {
        let mut out = vec![T::read_from(&vec![0u8; T::SIZE]); arr.len()];
        arr.read_range(self, 0, &mut out)?;
        Ok(out)
    }
}
