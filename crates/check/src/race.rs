//! `repseq-check::race` — a happens-before data-race detector for the LRC
//! substrate.
//!
//! The DSM runtime reports every application-side shared-memory access and
//! every synchronization event to an installed [`repseq_dsm::RaceSink`]
//! (see `Cluster::set_race_sink`). This module is the sink: it maintains
//! one vector clock per *performer* — the `n` node threads plus one extra
//! entity, the **replica**, a single logical thread that executes every
//! replicated sequential section on all nodes at once (§5.2) — derives the
//! happens-before relation from fork/join, barrier, lock and
//! replicated-entry/exit edges, and keeps a FastTrack-style shadow of the
//! last write and last reads per granule of shared memory. Two conflicting
//! accesses with incomparable clocks are a data race, reported with full
//! provenance: nodes, section labels, page/offset, and both clocks.
//!
//! The detector is purely observational. It runs on the host side of the
//! simulator's serialized event stream (one simulated process runs at a
//! time, so the stream order is consistent with simulated happens-before),
//! charges no virtual time, and sends no messages — a run with the
//! detector installed is bit-identical to the same run without it, which
//! `tests/races.rs` pins down.
//!
//! See `DESIGN.md` §6d for the HB relation and the replica model.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use repseq_dsm::{AccessKind, PageId, RaceConfig, RaceSink, SyncEdge, Vc};
use repseq_stats::NodeId;

/// One side of a reported race: who accessed, from where, and the clock
/// that failed to cover the other side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// Node whose application process performed the access. For a
    /// replicated-section access this is the node observed executing the
    /// replica (provenance only; the logical performer is the replica).
    pub node: NodeId,
    /// True if the access happened inside a replicated sequential section
    /// (performed by the replica).
    pub replicated: bool,
    /// Section label in force at the access (`DsmNode::race_label`, or an
    /// automatic `phase@k` / `rse@k`).
    pub section: String,
    /// Read or write.
    pub kind: AccessKind,
    /// The performer's vector clock at the access (`n + 1` entries; the
    /// last is the replica's).
    pub clock: Vc,
}

/// A pair of concurrent conflicting accesses to the same granule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// Page containing the conflicting granule.
    pub page: PageId,
    /// Byte offset of the granule within the page.
    pub offset: usize,
    /// Virtual address of the granule.
    pub addr: u64,
    /// Shadow granularity in bytes.
    pub granule: usize,
    /// The earlier access (already in the shadow).
    pub first: AccessRecord,
    /// The later access (the one that tripped the check).
    pub second: AccessRecord,
    /// How many granule conflicts collapsed into this report (same page,
    /// same section pair, same access kinds).
    pub count: u64,
}

impl Race {
    fn dedup_key(&self) -> (PageId, NodeId, NodeId, String, String, u8, u8) {
        (
            self.page,
            self.first.node,
            self.second.node,
            self.first.section.clone(),
            self.second.section.clone(),
            kind_code(self.first.kind),
            kind_code(self.second.kind),
        )
    }
}

fn kind_code(k: AccessKind) -> u8 {
    match k {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

fn kind_name(k: AccessKind) -> &'static str {
    match k {
        AccessKind::Read => "read",
        AccessKind::Write => "write",
    }
}

/// Everything the detector found, snapshotted by [`RaceDetector::report`].
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// Distinct races, in detection order (deduplicated by page × section
    /// pair × access kinds; capped at `RaceConfig::max_reports`).
    pub races: Vec<Race>,
    /// Total unordered conflicting access pairs (including those collapsed
    /// into an existing report or dropped by the cap).
    pub races_found: u64,
    /// Shadow-granule checks performed.
    pub checks: u64,
    /// True if `max_reports` dropped distinct races.
    pub truncated: bool,
}

impl RaceReport {
    /// True if no race was found.
    pub fn is_clean(&self) -> bool {
        self.races_found == 0
    }

    /// Human-readable rendering, one paragraph per race.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "race report: {} race(s) across {} distinct site(s), {} checks{}",
            self.races_found,
            self.races.len(),
            self.checks,
            if self.truncated { " (report list truncated)" } else { "" }
        );
        for (i, r) in self.races.iter().enumerate() {
            let _ = writeln!(
                out,
                "  [{}] page {} offset {:#x} (addr {:#x}, granule {}B, ×{}):",
                i, r.page, r.offset, r.addr, r.granule, r.count
            );
            for (tag, a) in [("first", &r.first), ("second", &r.second)] {
                let _ = writeln!(
                    out,
                    "    {tag}: {} by node {}{} in \"{}\" at clock {:?}",
                    kind_name(a.kind),
                    a.node,
                    if a.replicated { " (replica)" } else { "" },
                    a.section,
                    a.clock
                );
            }
        }
        out
    }

    /// JSON rendering for CI artifacts (hand-rolled: the workspace has no
    /// serde).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        fn clock_json(vc: &Vc) -> String {
            let entries: Vec<String> = (0..vc.len()).map(|q| vc.get(q).to_string()).collect();
            format!("[{}]", entries.join(","))
        }
        fn access_json(a: &AccessRecord) -> String {
            format!(
                "{{\"node\":{},\"replicated\":{},\"section\":\"{}\",\"kind\":\"{}\",\
                 \"clock\":{}}}",
                a.node,
                a.replicated,
                esc(&a.section),
                kind_name(a.kind),
                clock_json(&a.clock)
            )
        }
        let races: Vec<String> = self
            .races
            .iter()
            .map(|r| {
                format!(
                    "{{\"page\":{},\"offset\":{},\"addr\":{},\"granule\":{},\"count\":{},\
                     \"first\":{},\"second\":{}}}",
                    r.page,
                    r.offset,
                    r.addr,
                    r.granule,
                    r.count,
                    access_json(&r.first),
                    access_json(&r.second)
                )
            })
            .collect();
        format!(
            "{{\"schema_version\":1,\"races_found\":{},\"checks\":{},\"truncated\":{},\
             \"races\":[{}]}}",
            self.races_found,
            self.checks,
            self.truncated,
            races.join(",")
        )
    }
}

/// Last write to one shadow granule.
struct WriteShadow {
    clock: Arc<Vc>,
    /// Performer index (node id, or `n` for the replica).
    performer: usize,
    /// Node observed executing the access (provenance).
    node: NodeId,
    section: Arc<str>,
}

/// Last read of one shadow granule by one performer.
struct ReadShadow {
    clock: Arc<Vc>,
    node: NodeId,
    section: Arc<str>,
}

/// Shadow state of one granule of shared memory.
struct Granule {
    write: Option<WriteShadow>,
    /// Indexed by performer; entries are cleared by an ordered write.
    reads: Vec<Option<ReadShadow>>,
    read_count: usize,
}

/// One barrier (or RSE-exit-barrier) episode: clocks merge into `pending`
/// on arrival; the n-th arrival freezes the release clock every departure
/// merges. Episodes are indexed per node so back-to-back barriers cannot
/// be confused even though hook order interleaves across nodes.
#[derive(Default)]
struct Episode {
    pending: Vc,
    arrivals: usize,
    released: Option<Arc<Vc>>,
}

/// Per-node dynamic state.
struct NodeClock {
    clock: Arc<Vc>,
    in_rse: bool,
    section: Arc<str>,
    barrier_arrived: usize,
    barrier_departed: usize,
    rse_arrived: usize,
    rse_departed: usize,
}

struct Inner {
    n: usize,
    cfg: RaceConfig,
    nodes: Vec<NodeClock>,
    /// The replica's clock (performer index `n`).
    replica: Arc<Vc>,
    /// True between the first `RseEnter` of a section and its exit
    /// release.
    rse_open: bool,
    /// Section label for replica accesses.
    rse_section: Arc<str>,
    /// Fork sequence number (for automatic `phase@k` labels).
    fork_seq: u64,
    /// Master's clock at the last `ForkSend`, merged by each `ForkRecv`.
    pending_fork: Arc<Vc>,
    pending_fork_label: Arc<str>,
    /// Per-slave clock at `JoinSend`, merged by the matching `JoinRecv`.
    join_buf: Vec<Arc<Vc>>,
    /// Release clock of each lock.
    locks: HashMap<u32, Arc<Vc>>,
    barrier_eps: Vec<Episode>,
    rse_exit_eps: Vec<Episode>,
    shadow: HashMap<u64, Granule>,
    races: Vec<Race>,
    seen: HashSet<(PageId, NodeId, NodeId, String, String, u8, u8)>,
    races_found: u64,
    checks: u64,
    truncated: bool,
}

/// The happens-before race detector. Install on a cluster with
/// `Cluster::set_race_sink(Arc::new(RaceDetector::new(n, cfg)))`, run,
/// then collect [`RaceDetector::report`].
pub struct RaceDetector {
    inner: Mutex<Inner>,
}

impl RaceDetector {
    /// A detector for an `n`-node cluster.
    pub fn new(n: usize, cfg: RaceConfig) -> RaceDetector {
        assert!(n >= 1);
        assert!(cfg.granule.is_power_of_two() && cfg.granule >= 1);
        assert!(cfg.page_size.is_multiple_of(cfg.granule), "granule must divide the page size");
        let startup: Arc<str> = Arc::from("startup");
        RaceDetector {
            inner: Mutex::new(Inner {
                n,
                cfg,
                // Each performer starts in epoch 1 of its own component:
                // another clock covers an access only after an HB edge has
                // actually propagated the performer's epoch (with all-zero
                // clocks every access would look trivially ordered).
                nodes: (0..n)
                    .map(|i| {
                        let mut v = Vc::zero(n + 1);
                        v.set(i, 1);
                        NodeClock {
                            clock: Arc::new(v),
                            in_rse: false,
                            section: Arc::clone(&startup),
                            barrier_arrived: 0,
                            barrier_departed: 0,
                            rse_arrived: 0,
                            rse_departed: 0,
                        }
                    })
                    .collect(),
                replica: Arc::new({
                    let mut v = Vc::zero(n + 1);
                    v.set(n, 1);
                    v
                }),
                rse_open: false,
                rse_section: Arc::from("rse"),
                fork_seq: 0,
                pending_fork: Arc::new(Vc::zero(n + 1)),
                pending_fork_label: startup,
                join_buf: (0..n).map(|_| Arc::new(Vc::zero(n + 1))).collect(),
                locks: HashMap::new(),
                barrier_eps: Vec::new(),
                rse_exit_eps: Vec::new(),
                shadow: HashMap::new(),
                races: Vec::new(),
                seen: HashSet::new(),
                races_found: 0,
                checks: 0,
                truncated: false,
            }),
        }
    }

    /// The one lock, poison ignored: the races found before a panic are
    /// still reported.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of everything found so far.
    pub fn report(&self) -> RaceReport {
        let inner = self.lock();
        RaceReport {
            races: inner.races.clone(),
            races_found: inner.races_found,
            checks: inner.checks,
            truncated: inner.truncated,
        }
    }

    /// Total unordered conflicting access pairs found so far.
    pub fn race_count(&self) -> u64 {
        self.lock().races_found
    }
}

impl RaceSink for RaceDetector {
    fn access(&self, node: NodeId, addr: u64, len: usize, kind: AccessKind) {
        self.lock().access(node, addr, len, kind);
    }

    fn sync(&self, node: NodeId, edge: SyncEdge) {
        self.lock().sync(node, edge);
    }
}

impl Inner {
    /// Clone-and-bump performer `p`'s entry of an `Arc`'d clock: the
    /// performer starts a new epoch, and every clock snapshot taken before
    /// the bump stays frozen in the shadow.
    fn bump(clock: &mut Arc<Vc>, p: usize) {
        let mut v = (**clock).clone();
        v.set(p, v.get(p) + 1);
        *clock = Arc::new(v);
    }

    /// Merge `other` into an `Arc`'d clock in place (copy-on-write).
    fn merge(clock: &mut Arc<Vc>, other: &Vc) {
        if other.dominated_by(clock) {
            return;
        }
        let mut v = (**clock).clone();
        v.merge(other);
        *clock = Arc::new(v);
    }

    fn sync(&mut self, node: NodeId, edge: SyncEdge) {
        let n = self.n;
        match edge {
            SyncEdge::Section { label } => {
                let label: Arc<str> = Arc::from(label);
                if self.nodes[node].in_rse {
                    self.rse_section = label;
                } else {
                    self.nodes[node].section = label;
                }
            }
            SyncEdge::ForkSend => {
                self.fork_seq += 1;
                self.pending_fork = Arc::clone(&self.nodes[node].clock);
                self.pending_fork_label = Arc::from(format!("phase@{}", self.fork_seq));
                self.nodes[node].section = Arc::clone(&self.pending_fork_label);
                Self::bump(&mut self.nodes[node].clock, node);
            }
            SyncEdge::ForkRecv => {
                let pending = Arc::clone(&self.pending_fork);
                Self::merge(&mut self.nodes[node].clock, &pending);
                self.nodes[node].section = Arc::clone(&self.pending_fork_label);
            }
            SyncEdge::JoinSend => {
                self.join_buf[node] = Arc::clone(&self.nodes[node].clock);
                Self::bump(&mut self.nodes[node].clock, node);
            }
            SyncEdge::JoinRecv { from } => {
                let j = Arc::clone(&self.join_buf[from]);
                Self::merge(&mut self.nodes[node].clock, &j);
            }
            SyncEdge::BarrierArrive => {
                let ep_idx = self.nodes[node].barrier_arrived;
                self.nodes[node].barrier_arrived += 1;
                if self.barrier_eps.len() <= ep_idx {
                    self.barrier_eps
                        .push(Episode { pending: Vc::zero(n + 1), ..Episode::default() });
                }
                let clock = Arc::clone(&self.nodes[node].clock);
                let ep = &mut self.barrier_eps[ep_idx];
                ep.pending.merge(&clock);
                ep.arrivals += 1;
                if ep.arrivals == n {
                    ep.released = Some(Arc::new(ep.pending.clone()));
                }
                Self::bump(&mut self.nodes[node].clock, node);
            }
            SyncEdge::BarrierDepart => {
                let ep_idx = self.nodes[node].barrier_departed;
                self.nodes[node].barrier_departed += 1;
                let released = self.barrier_eps[ep_idx]
                    .released
                    .as_ref()
                    .expect("barrier departed before all arrivals")
                    .clone();
                Self::merge(&mut self.nodes[node].clock, &released);
            }
            SyncEdge::LockRelease { lock } => {
                self.locks.insert(lock, Arc::clone(&self.nodes[node].clock));
                Self::bump(&mut self.nodes[node].clock, node);
            }
            SyncEdge::LockAcquire { lock } => {
                if let Some(rel) = self.locks.get(&lock).cloned() {
                    Self::merge(&mut self.nodes[node].clock, &rel);
                }
            }
            SyncEdge::RseEnter => {
                if !self.rse_open {
                    self.rse_open = true;
                    Self::bump(&mut self.replica, n);
                    self.rse_section = Arc::from(format!("rse@{}", self.fork_seq));
                }
                self.nodes[node].in_rse = true;
                let c = Arc::clone(&self.nodes[node].clock);
                Self::merge(&mut self.replica, &c);
            }
            SyncEdge::RseExitArrive => {
                self.nodes[node].in_rse = false;
                let ep_idx = self.nodes[node].rse_arrived;
                self.nodes[node].rse_arrived += 1;
                if self.rse_exit_eps.len() <= ep_idx {
                    self.rse_exit_eps
                        .push(Episode { pending: Vc::zero(n + 1), ..Episode::default() });
                }
                let clock = Arc::clone(&self.nodes[node].clock);
                let ep = &mut self.rse_exit_eps[ep_idx];
                ep.pending.merge(&clock);
                ep.arrivals += 1;
                if ep.arrivals == n {
                    // Every node finished the body, so the replica's clock
                    // is final for this section: the exit release covers
                    // all replicated writes.
                    ep.pending.merge(&self.replica);
                    ep.released = Some(Arc::new(ep.pending.clone()));
                    self.rse_open = false;
                }
                Self::bump(&mut self.nodes[node].clock, node);
            }
            SyncEdge::RseExitDepart => {
                let ep_idx = self.nodes[node].rse_departed;
                self.nodes[node].rse_departed += 1;
                let released = self.rse_exit_eps[ep_idx]
                    .released
                    .as_ref()
                    .expect("replicated section departed before all arrivals")
                    .clone();
                Self::merge(&mut self.nodes[node].clock, &released);
            }
        }
    }

    fn access(&mut self, node: NodeId, addr: u64, len: usize, kind: AccessKind) {
        if len == 0 {
            return;
        }
        let (performer, clock, section) = if self.nodes[node].in_rse {
            (self.n, Arc::clone(&self.replica), Arc::clone(&self.rse_section))
        } else {
            (node, Arc::clone(&self.nodes[node].clock), Arc::clone(&self.nodes[node].section))
        };
        let g = self.cfg.granule as u64;
        let first = addr / g;
        let last = (addr + len as u64 - 1) / g;
        for gi in first..=last {
            self.touch(gi, node, performer, &clock, &section, kind);
        }
    }

    /// Check one granule against the shadow and update it.
    #[allow(clippy::too_many_arguments)]
    fn touch(
        &mut self,
        gi: u64,
        node: NodeId,
        performer: usize,
        clock: &Arc<Vc>,
        section: &Arc<str>,
        kind: AccessKind,
    ) {
        let n = self.n;
        let mut checks = 0u64;
        let mut found: Option<AccessRecord> = None;
        {
            let granule = self.shadow.entry(gi).or_insert_with(|| Granule {
                write: None,
                reads: (0..n + 1).map(|_| None).collect(),
                read_count: 0,
            });

            // Same-epoch fast path: a repeated access by the same performer
            // with an unchanged clock was already checked (reads stay valid
            // because any intervening write clears the read shadows; writes
            // only skip while no reads have been stored since).
            match kind {
                AccessKind::Read => {
                    if let Some(r) = &granule.reads[performer] {
                        if Arc::ptr_eq(&r.clock, clock) {
                            return;
                        }
                    }
                }
                AccessKind::Write => {
                    if granule.read_count == 0 {
                        if let Some(w) = &granule.write {
                            if w.performer == performer && Arc::ptr_eq(&w.clock, clock) {
                                return;
                            }
                        }
                    }
                }
            }

            // Write-write and read-after-write: ordered iff the current
            // clock covers the writer's epoch.
            if let Some(w) = &granule.write {
                checks += 1;
                if w.performer != performer && clock.get(w.performer) < w.clock.get(w.performer) {
                    found = Some(AccessRecord {
                        node: w.node,
                        replicated: w.performer == n,
                        section: w.section.to_string(),
                        kind: AccessKind::Write,
                        clock: (*w.clock).clone(),
                    });
                }
            }
            // Write-after-read: every stored read must be covered.
            if kind == AccessKind::Write && found.is_none() && granule.read_count > 0 {
                for (q, slot) in granule.reads.iter().enumerate() {
                    let Some(r) = slot else { continue };
                    if q == performer {
                        continue;
                    }
                    checks += 1;
                    if clock.get(q) < r.clock.get(q) {
                        found = Some(AccessRecord {
                            node: r.node,
                            replicated: q == n,
                            section: r.section.to_string(),
                            kind: AccessKind::Read,
                            clock: (*r.clock).clone(),
                        });
                        break;
                    }
                }
            }

            // Update the shadow.
            match kind {
                AccessKind::Read => {
                    if granule.reads[performer].is_none() {
                        granule.read_count += 1;
                    }
                    granule.reads[performer] = Some(ReadShadow {
                        clock: Arc::clone(clock),
                        node,
                        section: Arc::clone(section),
                    });
                }
                AccessKind::Write => {
                    granule.write = Some(WriteShadow {
                        clock: Arc::clone(clock),
                        performer,
                        node,
                        section: Arc::clone(section),
                    });
                    if granule.read_count > 0 {
                        for slot in granule.reads.iter_mut() {
                            *slot = None;
                        }
                        granule.read_count = 0;
                    }
                }
            }
        }
        self.checks += checks;
        if let Some(first) = found {
            self.record_race(gi, node, performer, clock, section, kind, first);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn record_race(
        &mut self,
        gi: u64,
        node: NodeId,
        performer: usize,
        clock: &Arc<Vc>,
        section: &Arc<str>,
        kind: AccessKind,
        first: AccessRecord,
    ) {
        self.races_found += 1;
        let g = self.cfg.granule as u64;
        let addr = gi * g;
        let page = (addr / self.cfg.page_size as u64) as PageId;
        let offset = (addr % self.cfg.page_size as u64) as usize;
        let race = Race {
            page,
            offset,
            addr,
            granule: self.cfg.granule,
            first,
            second: AccessRecord {
                node,
                replicated: performer == self.n,
                section: section.to_string(),
                kind,
                clock: (**clock).clone(),
            },
            count: 1,
        };
        let key = race.dedup_key();
        if self.seen.contains(&key) {
            if let Some(existing) = self.races.iter_mut().find(|r| r.dedup_key() == key) {
                existing.count += 1;
            }
            return;
        }
        if self.races.len() >= self.cfg.max_reports {
            self.truncated = true;
            return;
        }
        self.seen.insert(key);
        self.races.push(race);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(n: usize) -> RaceDetector {
        RaceDetector::new(n, RaceConfig::default())
    }

    /// Unsynchronized write/write on two nodes is a race; the same pair
    /// ordered through fork/join is not.
    #[test]
    fn fork_join_orders_accesses() {
        let d = det(2);
        // Master writes before the fork; slave writes after ForkRecv.
        d.access(0, 0x1000, 8, AccessKind::Write);
        d.sync(0, SyncEdge::ForkSend);
        d.sync(1, SyncEdge::ForkRecv);
        d.access(1, 0x1000, 8, AccessKind::Write);
        assert_eq!(d.race_count(), 0);
        // Slave joins; master reads after JoinRecv: ordered.
        d.sync(1, SyncEdge::JoinSend);
        d.sync(0, SyncEdge::JoinRecv { from: 1 });
        d.access(0, 0x1000, 8, AccessKind::Read);
        assert_eq!(d.race_count(), 0);
    }

    /// Master writing *after* the fork races with a slave's read of the
    /// same word (the straggler pattern).
    #[test]
    fn post_fork_master_write_races_with_slave_read() {
        let d = det(2);
        d.sync(0, SyncEdge::ForkSend);
        d.sync(1, SyncEdge::ForkRecv);
        d.access(1, 0x2000, 8, AccessKind::Read);
        d.access(0, 0x2000, 8, AccessKind::Write);
        assert_eq!(d.race_count(), 1);
        let rep = d.report();
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].page, 2);
        assert_eq!(rep.races[0].first.kind, AccessKind::Read);
        assert_eq!(rep.races[0].second.kind, AccessKind::Write);
    }

    /// A barrier between conflicting accesses removes the race.
    #[test]
    fn barrier_orders_accesses() {
        let d = det(2);
        d.sync(0, SyncEdge::ForkSend);
        d.sync(1, SyncEdge::ForkRecv);
        d.access(0, 0x3000, 8, AccessKind::Write);
        d.sync(0, SyncEdge::BarrierArrive);
        d.sync(1, SyncEdge::BarrierArrive);
        d.sync(0, SyncEdge::BarrierDepart);
        d.sync(1, SyncEdge::BarrierDepart);
        d.access(1, 0x3000, 8, AccessKind::Read);
        assert_eq!(d.race_count(), 0);
    }

    /// Lock release/acquire orders a read-modify-write; dropping the lock
    /// edges makes it race.
    #[test]
    fn lock_edges_order_rmw() {
        let d = det(2);
        d.sync(0, SyncEdge::ForkSend);
        d.sync(1, SyncEdge::ForkRecv);
        d.sync(0, SyncEdge::LockAcquire { lock: 9 });
        d.access(0, 0x4000, 8, AccessKind::Read);
        d.access(0, 0x4000, 8, AccessKind::Write);
        d.sync(0, SyncEdge::LockRelease { lock: 9 });
        d.sync(1, SyncEdge::LockAcquire { lock: 9 });
        d.access(1, 0x4000, 8, AccessKind::Read);
        d.access(1, 0x4000, 8, AccessKind::Write);
        d.sync(1, SyncEdge::LockRelease { lock: 9 });
        assert_eq!(d.race_count(), 0);

        let d = det(2);
        d.sync(0, SyncEdge::ForkSend);
        d.sync(1, SyncEdge::ForkRecv);
        d.access(0, 0x4000, 8, AccessKind::Write);
        d.access(1, 0x4000, 8, AccessKind::Write);
        assert_eq!(d.race_count(), 1);
    }

    /// Replicated-section accesses on different nodes are the same logical
    /// performer (the replica): no race among themselves, and the exit
    /// barrier orders them before later parallel reads.
    #[test]
    fn replica_is_one_performer() {
        let d = det(2);
        d.sync(0, SyncEdge::ForkSend);
        d.sync(0, SyncEdge::RseEnter);
        d.sync(1, SyncEdge::ForkRecv);
        d.sync(1, SyncEdge::RseEnter);
        // Both nodes execute the replicated write.
        d.access(0, 0x5000, 8, AccessKind::Write);
        d.access(1, 0x5000, 8, AccessKind::Write);
        assert_eq!(d.race_count(), 0, "replica copies must not race with each other");
        d.sync(0, SyncEdge::RseExitArrive);
        d.sync(1, SyncEdge::RseExitArrive);
        d.sync(0, SyncEdge::RseExitDepart);
        d.sync(1, SyncEdge::RseExitDepart);
        d.access(1, 0x5000, 8, AccessKind::Read);
        assert_eq!(d.race_count(), 0, "exit barrier orders replicated writes");
    }

    /// A straggler that missed the replicated section races with the
    /// replica's write.
    #[test]
    fn replica_write_races_with_unsynchronized_reader() {
        let d = det(3);
        d.sync(0, SyncEdge::ForkSend);
        d.sync(1, SyncEdge::ForkRecv);
        // Node 2 never saw the fork (straggler in an earlier phase).
        d.access(2, 0x6000, 8, AccessKind::Read);
        d.sync(0, SyncEdge::RseEnter);
        d.sync(1, SyncEdge::RseEnter);
        d.access(0, 0x6000, 8, AccessKind::Write);
        assert_eq!(d.race_count(), 1);
        let rep = d.report();
        assert!(rep.races[0].second.replicated);
        assert_eq!(rep.races[0].first.node, 2);
    }

    /// Section labels flow into the report.
    #[test]
    fn labels_reach_reports() {
        let d = det(2);
        d.sync(0, SyncEdge::ForkSend);
        d.sync(1, SyncEdge::ForkRecv);
        d.sync(0, SyncEdge::Section { label: "fixture::writer" });
        d.sync(1, SyncEdge::Section { label: "fixture::reader" });
        d.access(1, 0x7000, 8, AccessKind::Read);
        d.access(0, 0x7000, 8, AccessKind::Write);
        let rep = d.report();
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].first.section, "fixture::reader");
        assert_eq!(rep.races[0].second.section, "fixture::writer");
        let json = rep.to_json();
        assert!(json.contains("\"fixture::reader\""));
        assert!(json.contains("\"schema_version\":1"));
    }

    /// Identical races collapse into one report with a count.
    #[test]
    fn dedup_collapses_repeats() {
        let d = det(2);
        d.sync(0, SyncEdge::ForkSend);
        d.sync(1, SyncEdge::ForkRecv);
        for k in 0..4 {
            d.access(1, 0x8000 + k * 8, 8, AccessKind::Read);
            d.access(0, 0x8000 + k * 8, 8, AccessKind::Write);
        }
        let rep = d.report();
        assert_eq!(rep.races_found, 4);
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].count, 4);
    }
}
