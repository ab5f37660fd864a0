//! Runtime construction: allocate, preload, then run a master program with
//! parked slaves — the OpenMP/NOW process model (§2.2.1: "Initially, the
//! master thread executes the program while the slave threads are blocked
//! inside the runtime system waiting for the master to issue a Tmk_fork").

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use repseq_dsm::{Cluster, ClusterConfig, DsmNode, Pod, SeqMode, ShArray, ShVar};
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

/// A run under construction: allocate and preload shared data, then
/// [`Runtime::run`] the master program.
pub struct Runtime {
    cluster: Cluster,
    mode: SeqMode,
    stats: StatsRef,
}

impl Runtime {
    /// Build a runtime (and a fresh statistics registry).
    pub fn new(cfg: RunConfig) -> Runtime {
        let stats = Stats::new(cfg.cluster.nodes);
        Runtime::with_stats(cfg, stats)
    }

    /// Build a runtime reporting into an existing registry.
    pub fn with_stats(cfg: RunConfig, stats: StatsRef) -> Runtime {
        Runtime {
            cluster: Cluster::new(cfg.cluster, Arc::clone(&stats)),
            mode: cfg.seq_mode,
            stats,
        }
    }

    /// The statistics registry (snapshot it after the run for the tables).
    pub fn stats(&self) -> StatsRef {
        Arc::clone(&self.stats)
    }

    /// Install a race sink (e.g. `repseq-check`'s `RaceDetector`) that will
    /// observe every shared-memory access and synchronization event of the
    /// run. Purely observational: charges no virtual time, sends no
    /// messages.
    pub fn set_race_sink(&mut self, sink: Arc<dyn repseq_dsm::RaceSink>) {
        self.cluster.set_race_sink(sink);
    }

    /// Record the kernel event trace during the run (see
    /// `SimReport::trace`), so a failing schedule can be diffed against a
    /// clean run event by event. Off by default — tracing a long run costs
    /// memory.
    pub fn record_trace(&mut self, on: bool) {
        self.cluster.record_trace(on);
    }

    /// Allocate a shared array (8-byte aligned).
    pub fn alloc_array<T: Pod>(&mut self, len: usize) -> ShArray<T> {
        self.cluster.alloc_array(len)
    }

    /// Allocate a page-aligned shared array.
    pub fn alloc_array_page_aligned<T: Pod>(&mut self, len: usize) -> ShArray<T> {
        self.cluster.alloc_array_page_aligned(len)
    }

    /// Allocate a shared variable.
    pub fn alloc_var<T: Pod>(&mut self) -> ShVar<T> {
        self.cluster.alloc_var()
    }

    /// Preload initial array contents (present everywhere before the run).
    pub fn preload<T: Pod>(&mut self, arr: ShArray<T>, vals: &[T]) {
        self.cluster.preload(arr, vals);
    }

    /// Preload one element.
    pub fn preload_at<T: Pod>(&mut self, arr: ShArray<T>, i: usize, v: T) {
        self.cluster.preload_at(arr, i, v);
    }

    /// The DSM page size (for page-span computations).
    pub fn page_size(&self) -> usize {
        self.cluster.config().dsm.page_size
    }

    /// The cluster's node count (for sizing per-node shared structures).
    pub fn n_nodes(&self) -> usize {
        self.cluster.config().nodes
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
    /// the report: the one place a run's result crosses from the master's
    /// process back to the caller.
    pub fn run_value<T, F>(self, program: F) -> Result<(T, SimReport), SimError>
    where
        T: Send + 'static,
        F: FnOnce(&Team) -> Result<T, Stopped> + Send + 'static,
    {
        let n = self.cluster.config().nodes;
        let mode = self.mode;
        let stats = Arc::clone(&self.stats);
        let slot = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        let mut apps: Vec<repseq_dsm::AppFn> = Vec::new();
        apps.push(Box::new(move |node: DsmNode| {
            let team = Team::new(node, mode, stats);
            *lock(&out) = Some(program(&team)?);
            team.node().shutdown_slaves()
        }));
        for _ in 1..n {
            apps.push(Box::new(|node: DsmNode| node.slave_loop()));
        }
        let report = self.cluster.launch(apps)?;
        let value = lock(&slot).take().expect("a run that succeeded ran the master program");
        Ok((value, report))
    }
}

/// The result slot's lock, poison ignored: the slot is only ever written whole.
fn lock<T>(slot: &Mutex<Option<T>>) -> MutexGuard<'_, Option<T>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}
