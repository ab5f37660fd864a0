//! The schedule-sweep torture harness: run a workload across a grid of
//! loss schedules, checking the coherence oracle and the protocol
//! invariants after every run, and producing a divergence report on the
//! first failure.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use repseq_dsm::{
    AppFn, Cluster, ClusterConfig, DsmNode, LaunchOutcome, PageId, RaceSink, SeqMode,
};
use repseq_net::LossConfig;
use repseq_sim::{Dur, SimTime, Stopped};
use repseq_stats::{Stats, StatsSnapshot};

use crate::oracle::{check_snapshots, DsmMem, Expected, RefMem, Snapshot};
use crate::race::{RaceDetector, RaceReport};
use crate::report;
use crate::workload::{Builder, Phase, Workload};

/// One point of the sweep grid: a loss seed, a drop rate and whether
/// unicast diff-protocol frames are lossy too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Loss-hash seed.
    pub seed: u64,
    /// Drop probability in 1/1000 units (0 = lossless run).
    pub drop_per_mille: u32,
    /// Also drop unicast diff-protocol frames.
    pub unicast: bool,
}

impl Schedule {
    fn loss(&self) -> Option<LossConfig> {
        if self.drop_per_mille == 0 {
            return None;
        }
        Some(LossConfig {
            drop_per_mille: self.drop_per_mille,
            seed: self.seed,
            unicast: self.unicast,
        })
    }
}

/// Cluster shape shared by every schedule of a sweep.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Node count.
    pub nodes: usize,
    /// Recovery timeout (short, so lossy schedules actually reach the
    /// §5.4.2 recovery path within the test budget).
    pub rse_timeout: Dur,
    /// Fault injection: suppress every protection-generation bump so stale
    /// software-TLB entries survive protection revocations. A correct
    /// implementation MUST fail the oracle under this — it proves the
    /// generation counter is what keeps the TLB coherent.
    pub break_generation_bumps: bool,
    /// How the workload's sequential phases run. The oracle and the
    /// invariant checks are strategy-agnostic, so the same sweep grid
    /// tortures every strategy.
    pub seq_mode: SeqMode,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            nodes: 3,
            rse_timeout: Dur::from_millis(20),
            break_generation_bumps: false,
            seq_mode: SeqMode::Replicated,
        }
    }
}

/// What one passing schedule contributed to the sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScheduleOutcome {
    /// Frames the loss injector dropped.
    pub drops: usize,
    /// Chain turns that completed despite missed predecessors, summed over
    /// nodes (> 0 means the gap-tolerant path ran).
    pub chain_holes: u64,
    /// Kernel events processed.
    pub events: u64,
}

/// Aggregate over a sweep; the torture tests assert on these to prove the
/// recovery machinery was actually exercised, not just survived.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepSummary {
    /// Schedules run.
    pub schedules: usize,
    /// Total dropped frames across all schedules.
    pub drops: usize,
    /// Total tolerated chain holes across all schedules.
    pub chain_holes: u64,
}

/// Everything one cluster run of a workload produced.
pub(crate) struct RunArtifacts {
    pub outcome: LaunchOutcome,
    pub snaps: Vec<Snapshot>,
    pub expected: Expected,
    pub name: &'static str,
    pub stats: StatsSnapshot,
}

/// The determinism-relevant residue of one run: everything the simulator
/// reported except the (optional, memory-hungry) trace. The
/// detector-invariance tests assert two of these — detector on vs off —
/// are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFingerprint {
    /// Virtual end time of the run.
    pub end_time: SimTime,
    /// Final virtual clock of every process.
    pub proc_clocks: Vec<(String, SimTime)>,
    /// Kernel events processed.
    pub events_processed: u64,
    /// Undelivered messages at exit.
    pub mailbox_backlog: Vec<(String, usize)>,
}

/// What [`run_schedule_instrumented`] hands back: the simulation
/// fingerprint and stats snapshot (for invariance gating) plus the race
/// report when a detector was installed.
pub struct InstrumentedOutcome {
    /// Simulation fingerprint (virtual time, messages, backlog).
    pub sim: SimFingerprint,
    /// Full per-node, per-section statistics (messages, bytes, faults).
    pub stats: StatsSnapshot,
    /// Race report, if a detector was installed.
    pub races: Option<RaceReport>,
    /// Frames the loss injector dropped.
    pub drops: usize,
}

/// Replay the workload's phases on a single reference memory, recording
/// the audited pages' image after each phase.
fn replay_reference(w: &Workload, page_size: usize, n: usize) -> Expected {
    let mut m = RefMem::new(page_size);
    let mut out = Expected::new();
    for ph in &w.phases {
        match ph {
            Phase::Replicated(body) => body(&mut m).expect("reference replay cannot stop"),
            Phase::Parallel(body) => {
                for me in 0..n {
                    body(&mut m, me, n).expect("reference replay cannot stop");
                }
            }
        }
        out.push(w.audit.iter().map(|&p| (p, m.page_image(p))).collect());
    }
    out
}

/// The snapshot collector's lock, poison ignored: a run that panicked
/// still reports what it collected.
fn collected(coll: &Mutex<Vec<Snapshot>>) -> MutexGuard<'_, Vec<Snapshot>> {
    coll.lock().unwrap_or_else(PoisonError::into_inner)
}

fn take_snapshot(nd: &DsmNode, phase: usize, audit: &[PageId], coll: &Mutex<Vec<Snapshot>>) {
    let node = nd.node();
    let mut c = collected(coll);
    for &p in audit {
        if let Some(bytes) = nd.inspect_page(p) {
            c.push(Snapshot { phase, node, page: p, bytes });
        }
    }
}

/// Build a fresh cluster, run the workload once under `loss`, and collect
/// the per-checkpoint snapshots plus the launch outcome.
pub(crate) fn run_once(
    build: Builder,
    cfg: &HarnessConfig,
    loss: Option<LossConfig>,
    trace: bool,
    race: Option<Arc<dyn RaceSink>>,
) -> RunArtifacts {
    let n = cfg.nodes;
    let stats = Stats::new(n);
    let mut ccfg = ClusterConfig::paper(n);
    ccfg.net.loss = loss;
    ccfg.dsm.rse_timeout = cfg.rse_timeout;
    ccfg.dsm.tlb_break_generation_bumps = cfg.break_generation_bumps;
    let mut cl = Cluster::new(ccfg, Arc::clone(&stats));
    cl.record_trace(trace);
    if let Some(sink) = race {
        cl.set_race_sink(sink);
    }
    let page_size = cl.config().dsm.page_size;
    let w = build(&mut cl, n);
    let expected = replay_reference(&w, page_size, n);
    let name = w.name;
    let audit: Arc<Vec<PageId>> = Arc::new(w.audit);
    let phases = w.phases;
    let mode = cfg.seq_mode;
    let collector: Arc<Mutex<Vec<Snapshot>>> = Arc::new(Mutex::new(Vec::new()));
    let coll_master = Arc::clone(&collector);
    let audit_master = Arc::clone(&audit);
    let master = move |node: DsmNode| -> Result<(), Stopped> {
        for (k, ph) in phases.iter().enumerate() {
            match ph {
                Phase::Replicated(body) => {
                    let body = Arc::clone(body);
                    let audit = Arc::clone(&audit_master);
                    let coll = Arc::clone(&coll_master);
                    node.run_sequential(mode, move |nd| {
                        body(&mut DsmMem(nd))?;
                        take_snapshot(nd, k, &audit, &coll);
                        Ok(())
                    })?;
                }
                Phase::Parallel(body) => {
                    let body = Arc::clone(body);
                    let audit = Arc::clone(&audit_master);
                    let coll = Arc::clone(&coll_master);
                    node.run_parallel(move |nd| {
                        body(&mut DsmMem(nd), nd.node(), nd.n_nodes())?;
                        nd.barrier()?;
                        take_snapshot(nd, k, &audit, &coll);
                        Ok(())
                    })?;
                }
            }
        }
        node.shutdown_slaves()
    };
    let mut apps: Vec<AppFn> = vec![Box::new(master)];
    for _ in 1..n {
        apps.push(Box::new(|node: DsmNode| node.slave_loop()));
    }
    let outcome = cl.launch_inspect(apps);
    let snaps = std::mem::take(&mut *collected(&collector));
    RunArtifacts { outcome, snaps, expected, name, stats: stats.snapshot() }
}

/// First violated invariant of a finished run, if any: a one-paragraph
/// description for the failure report.
fn validate(art: &RunArtifacts) -> Option<String> {
    let report = match &art.outcome.result {
        Err(e) => return Some(format!("simulation failed: {e:?}")),
        Ok(r) => r,
    };
    for probe in &art.outcome.probes {
        if !probe.is_quiescent() {
            return Some(format!("node {} not quiescent after the run: {probe:?}", probe.node));
        }
    }
    // An application mailbox with undelivered messages at exit means
    // protocol traffic was lost without recovery.
    let stuck: Vec<_> =
        report.mailbox_backlog.iter().filter(|(name, _)| name.starts_with("app")).collect();
    if !stuck.is_empty() {
        return Some(format!("undelivered application messages at exit: {stuck:?}"));
    }
    let v = check_snapshots(&art.snaps, &art.expected)?;
    let mut why = format!(
        "coherence violation: node {} page {} byte {} is {:#04x}, reference says {:#04x} \
         (checkpoint after phase {}); page {}'s slot on every node at exit:",
        v.node, v.page, v.offset, v.actual, v.expected, v.phase, v.page
    );
    for (q, slot) in art.outcome.page_slots(v.page).iter().enumerate() {
        why.push_str(&format!("\n    slot[{q}]: {slot}"));
    }
    Some(why)
}

/// Run one schedule of a workload. On success returns what it contributed
/// to the sweep; on any invariant or oracle failure, re-runs the schedule
/// and a lossless twin with kernel tracing enabled and returns the full
/// divergence report as the error.
pub fn run_schedule(
    build: Builder,
    cfg: &HarnessConfig,
    sched: Schedule,
) -> Result<ScheduleOutcome, String> {
    let art = run_once(build, cfg, sched.loss(), false, None);
    if let Some(why) = validate(&art) {
        // Deterministic engine: the traced re-runs reproduce the failure
        // and the clean twin exactly.
        let lossy = run_once(build, cfg, sched.loss(), true, None).outcome;
        let clean = run_once(build, cfg, None, true, None).outcome;
        return Err(report::render_failure(art.name, cfg, sched, &why, &lossy, &clean));
    }
    let report = art.outcome.result.as_ref().expect("validated runs have a report");
    Ok(ScheduleOutcome {
        drops: art.outcome.loss_events.len(),
        chain_holes: art.outcome.probes.iter().map(|p| p.chain_holes).sum(),
        events: report.events_processed,
    })
}

/// Run one schedule of a workload with an optional race detector
/// installed, validating the oracle and the protocol invariants exactly
/// like [`run_schedule`], and additionally return the simulation
/// fingerprint, the stats snapshot and (if a detector was given) the race
/// report. The detector-invariance tests run each schedule twice — with
/// and without a detector — and assert the fingerprints and snapshots are
/// bit-identical; the certification tests assert the report is clean.
pub fn run_schedule_instrumented(
    build: Builder,
    cfg: &HarnessConfig,
    sched: Schedule,
    detector: Option<Arc<RaceDetector>>,
) -> Result<InstrumentedOutcome, String> {
    let sink = detector.clone().map(|d| d as Arc<dyn RaceSink>);
    let art = run_once(build, cfg, sched.loss(), false, sink);
    if let Some(why) = validate(&art) {
        return Err(format!("instrumented schedule failed: {why}"));
    }
    let report = art.outcome.result.as_ref().expect("validated runs have a report");
    Ok(InstrumentedOutcome {
        sim: SimFingerprint {
            end_time: report.end_time,
            proc_clocks: report.proc_clocks.clone(),
            events_processed: report.events_processed,
            mailbox_backlog: report.mailbox_backlog.clone(),
        },
        stats: art.stats,
        races: detector.map(|d| d.report()),
        drops: art.outcome.loss_events.len(),
    })
}

/// Sweep a workload across `schedules`, panicking with the divergence
/// report on the first failure.
pub fn sweep(build: Builder, cfg: &HarnessConfig, schedules: &[Schedule]) -> SweepSummary {
    let mut sum = SweepSummary::default();
    for &s in schedules {
        match run_schedule(build, cfg, s) {
            Ok(o) => {
                sum.schedules += 1;
                sum.drops += o.drops;
                sum.chain_holes += o.chain_holes;
            }
            Err(report) => panic!("{report}"),
        }
    }
    sum
}

/// The cartesian schedule grid the torture tests use.
pub fn grid(seeds: std::ops::Range<u64>, rates: &[u32], unicast: &[bool]) -> Vec<Schedule> {
    let mut v = Vec::new();
    for seed in seeds {
        for &drop_per_mille in rates {
            for &unicast in unicast {
                v.push(Schedule { seed, drop_per_mille, unicast });
            }
        }
    }
    v
}
