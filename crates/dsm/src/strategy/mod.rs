//! Sequential-section execution strategies.
//!
//! The paper's question is *how a DSM program should execute its
//! sequential sections*; here the answer is one [`SeqMode`] value, and
//! [`DsmNode::run_sequential`] is the one `match` on it. Each arm is handed
//! the master node and the section body and must leave the cluster in a
//! state where the next parallel section observes every result of the
//! section. The arms use the data plane and the layer APIs (fork/join,
//! broadcast, interval close) but never reach into consistency metadata
//! directly.
//!
//! - **MasterOnly** — the TreadMarks baseline: the master simply runs the
//!   body; slaves fetch what they miss on demand in the next parallel
//!   section (the contended pattern of §3).
//! - **Replicated** — the paper's contribution (§5): every node executes
//!   the body on its own copy, with the multicast fault protocol.
//! - **MasterPush** — the eager-push alternative the paper argues against
//!   in §2: the master runs the body, then multicasts every page it wrote.

pub(crate) mod chain;
pub(crate) mod rse;
mod rse_state;

use std::sync::Arc;

use repseq_sim::Stopped;

use crate::runtime::DsmNode;

pub(crate) use rse_state::RseState;
pub use rse_state::{ChainProbe, RseProbe};

/// How sequential sections execute (the paper's Original vs Optimized
/// systems, §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqMode {
    /// The base system: the master executes sequential sections alone; the
    /// following fork distributes write notices and the parallel section
    /// pays the contention.
    MasterOnly,
    /// Replicated sequential execution with flow-controlled multicast (the
    /// paper's contribution).
    Replicated,
    /// The §6.1.2 ablation: master-only execution, followed by a
    /// hand-inserted broadcast of the pages named by the section. The
    /// caller names them ([`DsmNode::broadcast_pages`]); to
    /// [`DsmNode::run_sequential`] this mode is [`SeqMode::MasterOnly`].
    MasterOnlyBroadcast,
    /// Master-only execution, followed by an *automatic* broadcast of
    /// every page the section wrote (no hand-inserted page list). A
    /// natural middle ground between [`SeqMode::MasterOnly`] and
    /// [`SeqMode::Replicated`]: it eliminates the post-section demand
    /// misses but still serializes the pushes through the master's single
    /// transmit link — the §2 contention that replication removes. Whole
    /// pages travel instead of diffs, which is why it loses to replication
    /// on contended inputs.
    MasterPush,
}

impl DsmNode {
    /// Master: execute `f` as a sequential section under `mode`.
    ///
    /// Contract: the caller is the master, between sections (all slaves
    /// parked in [`DsmNode::slave_loop`]). On return the section's effects
    /// are published well enough that ordinary lazy release consistency
    /// makes them visible, and no replicated-section machinery is left
    /// engaged (`rse_probe` quiescent).
    pub fn run_sequential(
        &self,
        mode: SeqMode,
        f: impl Fn(&DsmNode) -> Result<(), Stopped> + Send + Sync + 'static,
    ) -> Result<(), Stopped> {
        assert!(self.is_master(), "sequential sections start at the master");
        match mode {
            SeqMode::MasterOnly | SeqMode::MasterOnlyBroadcast => f(self),
            SeqMode::Replicated => rse::run_master(self, Arc::new(f)),
            SeqMode::MasterPush => {
                // Isolate the section's writes in their own interval so the
                // write set below is exactly what the body touched. The
                // broadcast closes that interval and ships post-close
                // copies; a dropped frame degrades to a demand fetch.
                self.ctx.state().close_interval();
                f(self)?;
                let pages = self.ctx.state().open_write_set();
                self.broadcast_pages(pages)
            }
        }
    }
}
