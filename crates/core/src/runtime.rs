//! Runtime construction: allocate, preload, then run a master program with
//! parked slaves — the OpenMP/NOW process model of
//! [`Cluster::launch_master`], with the master handed a [`Team`].

use std::ops::{Deref, DerefMut};

use repseq_dsm::{Cluster, ClusterConfig, SeqMode};
use repseq_sim::{SimError, SimReport, Stopped};
use repseq_stats::{Stats, StatsRef};

use crate::team::Team;

/// Configuration of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Cluster shape (nodes, network, DSM costs).
    pub cluster: ClusterConfig,
    /// How sequential sections execute.
    pub seq_mode: SeqMode,
}

impl RunConfig {
    /// The paper's testbed with the base (Original) system.
    pub fn original(n: usize) -> Self {
        RunConfig { cluster: ClusterConfig::paper(n), seq_mode: SeqMode::MasterOnly }
    }

    /// The paper's testbed with replicated sequential execution (Optimized).
    pub fn optimized(n: usize) -> Self {
        RunConfig { cluster: ClusterConfig::paper(n), seq_mode: SeqMode::Replicated }
    }

    /// The §6.1.2 ablation: original system plus hand-inserted broadcasts.
    pub fn broadcast(n: usize) -> Self {
        RunConfig { cluster: ClusterConfig::paper(n), seq_mode: SeqMode::MasterOnlyBroadcast }
    }

    /// Master-only execution with an automatic push of the section's
    /// written pages (see [`SeqMode::MasterPush`]).
    pub fn master_push(n: usize) -> Self {
        RunConfig { cluster: ClusterConfig::paper(n), seq_mode: SeqMode::MasterPush }
    }
}

/// A run under construction: allocate and preload shared data on the
/// [`Cluster`] it lends, then [`Runtime::run`] the master program.
pub struct Runtime {
    cluster: Cluster,
    mode: SeqMode,
}

impl Deref for Runtime {
    type Target = Cluster;
    fn deref(&self) -> &Cluster {
        &self.cluster
    }
}

impl DerefMut for Runtime {
    fn deref_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }
}

impl Runtime {
    /// Build a runtime (and a fresh statistics registry).
    pub fn new(cfg: RunConfig) -> Runtime {
        let stats = Stats::new(cfg.cluster.nodes());
        Runtime::with_stats(cfg, stats)
    }

    /// Build a runtime reporting into an existing registry.
    pub fn with_stats(cfg: RunConfig, stats: StatsRef) -> Runtime {
        Runtime { cluster: Cluster::new(cfg.cluster, stats), mode: cfg.seq_mode }
    }

    /// Run `program` as the master; every other node parks in the slave
    /// scheduler loop. Slaves are shut down automatically when the program
    /// returns.
    pub fn run<F>(self, program: F) -> Result<SimReport, SimError>
    where
        F: FnOnce(&Team) -> Result<(), Stopped> + Send + 'static,
    {
        self.run_value(program).map(|((), report)| report)
    }

    /// [`Runtime::run`], returning what the master program returned next to
    /// the report.
    pub fn run_value<T, F>(self, program: F) -> Result<(T, SimReport), SimError>
    where
        T: Send + 'static,
        F: FnOnce(&Team) -> Result<T, Stopped> + Send + 'static,
    {
        let mode = self.mode;
        let (value, outcome) =
            self.cluster.launch_master(move |node| program(&Team::new(node, mode)));
        let report = outcome.result?;
        Ok((value.expect("a run that succeeded ran the master program"), report))
    }
}
