//! Cluster construction: allocate and preload the shared heap, then launch
//! one application process and one protocol handler per node — an
//! application coroutine plus a handler *reactor* (no stack of its own),
//! all on the caller's thread.

use std::sync::Arc;

use parking_lot::Mutex;
use repseq_net::{NetConfig, Network};
use repseq_sim::{Sim, SimError, SimReport, Stopped};
use repseq_stats::{HostCounters, StatsRef};

use crate::config::DsmConfig;
use crate::handler::Handler;
use crate::interval::PageId;
use crate::msg::DsmMsg;
use crate::pod::Pod;
use crate::race::RaceSink;
use crate::runtime::{DsmNode, Topology};
use crate::shmem::{ShArray, ShVar, SharedSegment};
use crate::state::NodeState;
use crate::strategy::RseProbe;

/// Everything needed to build a DSM cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// DSM protocol parameters.
    pub dsm: DsmConfig,
    /// Interconnect parameters.
    pub net: NetConfig,
}

impl ClusterConfig {
    /// The paper's testbed shape for `n` nodes.
    pub fn paper(n: usize) -> Self {
        ClusterConfig { nodes: n, dsm: DsmConfig::default(), net: NetConfig::paper(n) }
    }
}

/// One application process per node. Node 0 runs the master program.
pub type AppFn = Box<dyn FnOnce(DsmNode) -> Result<(), Stopped> + Send + 'static>;

/// A cluster under construction. Allocate shared arrays and preload their
/// initial contents host-side (this models data present before the
/// measured run, like TreadMarks' startup), then [`Cluster::launch`].
pub struct Cluster {
    cfg: ClusterConfig,
    stats: StatsRef,
    /// The shared segment, spanning the whole heap until launch cuts it
    /// to what was allocated; preloads write straight into it.
    segment: SharedSegment,
    alloc_next: u64,
    record_trace: bool,
    race: Option<Arc<dyn RaceSink>>,
}

/// Everything [`Cluster::launch_inspect`] hands back for post-run
/// verification: the simulation outcome plus per-node protocol probes and
/// the network's loss log. `repseq-check` builds its invariant sweep and
/// divergence reports on this.
pub struct LaunchOutcome {
    /// The simulation result (report on success, deadlock/panic otherwise).
    pub result: Result<SimReport, SimError>,
    /// One [`RseProbe`] per node, snapshotted after the simulation ended.
    pub probes: Vec<RseProbe>,
    /// Every frame the loss injector dropped, in canonical
    /// `(at, src, dst, pair_seq, multicast)` order (host-invariant; see
    /// [`repseq_net::Network::loss_events`]).
    pub loss_events: Vec<repseq_net::LossEvent>,
    states: Vec<Arc<Mutex<NodeState>>>,
}

impl LaunchOutcome {
    /// Every node's page-table slot for page `p` as the run left it
    /// (rendered [`crate::PageMeta`]s), for a failure report to print.
    pub fn page_slots(&self, p: PageId) -> Vec<String> {
        self.states.iter().map(|s| format!("{:?}", s.lock().data.pages.get(p as usize))).collect()
    }
}

impl Cluster {
    /// Start building a cluster.
    pub fn new(cfg: ClusterConfig, stats: StatsRef) -> Cluster {
        assert!(cfg.nodes >= 1);
        assert_eq!(cfg.net.nodes, cfg.nodes, "network and cluster node counts must agree");
        assert_eq!(stats.n_nodes(), cfg.nodes, "stats registry sized for a different cluster");
        let segment = SharedSegment::new(cfg.dsm.page_size, cfg.dsm.heap_pages as usize);
        Cluster {
            cfg,
            stats,
            segment,
            // Address 0 is reserved so that a zero handle is recognizably
            // uninitialized.
            alloc_next: 64,
            record_trace: false,
            race: None,
        }
    }

    /// Record the kernel event trace during the run (see
    /// `SimReport::trace`), so a failing schedule can be diffed against a
    /// clean run event by event. Off by default — tracing a long run costs
    /// memory.
    pub fn record_trace(&mut self, on: bool) {
        self.record_trace = on;
    }

    /// Install a race-detection sink: every application-side shared-memory
    /// access and synchronization event is reported to it (see
    /// [`RaceSink`]). Detection is purely observational — a run with a
    /// sink installed is bit-identical in virtual time, messages, bytes
    /// and faults to the same run without one.
    pub fn set_race_sink(&mut self, sink: Arc<dyn RaceSink>) {
        self.race = Some(sink);
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Allocate a shared array of `len` elements, 8-byte aligned.
    pub fn alloc_array<T: Pod>(&mut self, len: usize) -> ShArray<T> {
        self.alloc_array_aligned(len, 8)
    }

    /// Allocate a shared array starting on a page boundary (applications
    /// use this to avoid false sharing on hot structures).
    pub fn alloc_array_page_aligned<T: Pod>(&mut self, len: usize) -> ShArray<T> {
        self.alloc_array_aligned(len, self.cfg.dsm.page_size as u64)
    }

    fn alloc_array_aligned<T: Pod>(&mut self, len: usize, align: u64) -> ShArray<T> {
        let align = align.max(T::SIZE.min(8) as u64).max(1);
        let base = self.alloc_next.div_ceil(align) * align;
        let bytes = (T::SIZE * len) as u64;
        self.alloc_next = base + bytes;
        assert!(
            self.alloc_next <= self.cfg.dsm.heap_bytes(),
            "shared heap exhausted: {} > {} bytes (raise DsmConfig::heap_pages)",
            self.alloc_next,
            self.cfg.dsm.heap_bytes()
        );
        ShArray::new(base, len)
    }

    /// Allocate a single shared variable.
    pub fn alloc_var<T: Pod>(&mut self) -> ShVar<T> {
        ShVar::from_array(self.alloc_array::<T>(1))
    }

    /// Preload an array's initial contents (present on every node before
    /// the run starts; not counted as communication).
    pub fn preload<T: Pod>(&mut self, arr: ShArray<T>, vals: &[T]) {
        assert!(vals.len() <= arr.len());
        let mut buf = vec![0u8; T::SIZE];
        for (i, v) in vals.iter().enumerate() {
            v.write_to(&mut buf);
            self.segment.write(arr.addr(i), &buf);
        }
    }

    /// Preload one element.
    pub fn preload_at<T: Pod>(&mut self, arr: ShArray<T>, i: usize, v: T) {
        let mut buf = vec![0u8; T::SIZE];
        v.write_to(&mut buf);
        self.segment.write(arr.addr(i), &buf);
    }

    /// Preload a shared variable.
    pub fn preload_var<T: Pod>(&mut self, var: ShVar<T>, v: T) {
        self.preload_at(var.as_array(), 0, v);
    }

    /// Launch the cluster: one handler and one application process per
    /// node (`apps[0]` is the master program), and run to completion: `n`
    /// coroutine stacks on the calling thread, the handlers being reactors.
    ///
    /// The first launch in a process sets glibc's allocator to keep the
    /// heap it frees for the life of the process: no trimming, and blocks
    /// under 32 MiB come from the heap. A node's pages are freed when its
    /// run ends, and the next cluster would otherwise fault them in anew.
    pub fn launch(self, apps: Vec<AppFn>) -> Result<SimReport, SimError> {
        self.launch_inspect(apps).result
    }

    /// Like [`Cluster::launch`], but additionally returns per-node protocol
    /// probes and the loss log for post-run invariant checking — the entry
    /// point `repseq-check` uses.
    pub fn launch_inspect(mut self, apps: Vec<AppFn>) -> LaunchOutcome {
        let n = self.cfg.nodes;
        assert_eq!(apps.len(), n, "need exactly one application per node");
        crate::page::keep_heap();
        let net = Network::new(self.cfg.net.clone(), Arc::clone(&self.stats));
        // Shared-segment size in pages: every allocation so far. Sizes each
        // node's page table and twin pool.
        let seg_pages = self.alloc_next.div_ceil(self.cfg.dsm.page_size as u64) as usize;
        // The one shared segment every node seeds its memory from (see
        // [`SharedSegment`]).
        self.segment.truncate(seg_pages);
        let segment = Arc::new(self.segment);
        let states: Vec<Arc<Mutex<NodeState>>> = (0..n)
            .map(|i| {
                let st = NodeState::new(i, n, self.cfg.dsm.clone(), Arc::clone(&segment));
                Arc::new(Mutex::new(st))
            })
            .collect();
        let topo = Arc::new(Topology::new(n, Arc::clone(&self.stats), self.race.clone()));

        let mut sim = Sim::<DsmMsg>::new();
        sim.record_trace(self.record_trace);
        // Handlers first: pids 0..n-1. Reactors, not coroutines — a request
        // is served on the simulator's coordinator, with no switch.
        for (i, state) in states.iter().enumerate() {
            let handler = Handler::new(net.nic(i), Arc::clone(state), Arc::clone(&topo));
            let pid = sim.spawn_reactor(&format!("handler{i}"), handler);
            assert_eq!(pid, topo.handler_pids[i]);
        }
        // Applications: pids n..2n-1.
        for (i, app) in apps.into_iter().enumerate() {
            let nic = net.nic(i);
            let st = Arc::clone(&states[i]);
            let topo2 = Arc::clone(&topo);
            let page_size = self.cfg.dsm.page_size;
            let tlb_enabled = self.cfg.dsm.tlb_enabled;
            let pid = sim.spawn(&format!("app{i}"), move |ctx| {
                let node = DsmNode::new(ctx, nic, st, topo2, page_size, tlb_enabled);
                app(node)
            });
            assert_eq!(pid, topo.app_pids[i]);
        }
        // Group each node's two processes together, with the network's
        // minimum cross-node latency as the lookahead: event keys carry the
        // pusher's group (same-instant ties break by node), and the
        // post-exit quiescence tail is bounded by the lookahead horizon.
        sim.set_lookahead(self.cfg.net.min_cross_latency());
        for i in 0..n {
            sim.assign_group(topo.handler_pids[i], i);
            sim.assign_group(topo.app_pids[i], i);
        }
        let result = sim.run();
        // However the run ended, every application process has ended and
        // dropped its `DsmNode`: the nodes' host counts are final.
        let mut host = HostCounters::default();
        for s in &states {
            host += s.lock().host;
        }
        self.stats.fold_host(host);
        let probes = states.iter().map(|s| s.lock().rse_probe()).collect();
        LaunchOutcome { result, probes, loss_events: net.loss_events(), states }
    }
}
