//! The race-certification suite: planted-race regression fixtures, full
//! application certification runs, and the detector-invariance property.
//!
//! Three layers, mirroring the detector's contract:
//!
//! 1. **Planted races** — each classic DSM synchronization bug (missing
//!    barrier, unsynchronized reduction, a sequential-section write racing
//!    a straggler's read) MUST be detected, with the exact page and
//!    section labels in the report, and its minimally-fixed twin MUST
//!    certify clean. A detector that goes quiet on these is broken.
//! 2. **Certification** — full Barnes-Hut and Ilink runs, under all three
//!    sequential-section strategies (master-only, replicated sequential
//!    execution, master-push), at 8 nodes, must
//!    report zero races; the resulting `RaceReport` JSON is written next
//!    to the bench artifacts for the CI `race-certify` job to upload.
//! 3. **Invariance** — the detector is purely observational: any torture
//!    workload × loss schedule must produce a bit-identical simulation
//!    (virtual end time, per-process clocks, kernel events, backlog) and
//!    bit-identical statistics (messages, bytes, faults) with the
//!    detector installed as without it.

use std::sync::Arc;

use proptest::prelude::*;
use repseq_apps::barnes_hut::{BarnesHut, BhConfig, BhResult};
use repseq_apps::ilink::{Ilink, IlinkConfig, IlinkResult};
use repseq_apps::kv::{KvConfig, KvResult, KvStore};
use repseq_check::{
    kitchen_sink, rse_kernel, run_schedule_instrumented, HarnessConfig, RaceDetector, RaceReport,
    Schedule,
};
use repseq_core::{RunConfig, Runtime, Stopped, Team};
use repseq_dsm::{
    AccessKind, Cluster, ClusterConfig, DsmNode, RaceConfig, RaceSink, ShArray, Task,
};
use repseq_sim::SimTime;
use repseq_stats::{Stats, StatsSnapshot};

// ---------------------------------------------------------------------
// Shared scaffolding
// ---------------------------------------------------------------------

/// Build an `n`-node cluster with a detector installed, run `master` on
/// node 0 and the slave scheduler loop everywhere else, and return the
/// detector's report plus the page of the (page-aligned) fixture array.
fn run_fixture(
    n: usize,
    master: impl FnOnce(DsmNode, ShArray<f64>) -> Result<(), repseq_sim::Stopped> + Send + 'static,
) -> (RaceReport, u32) {
    let stats = Stats::new(n);
    let mut cl = Cluster::new(ClusterConfig::paper(n), stats);
    let arr: ShArray<f64> = cl.alloc_array_page_aligned(16);
    let page_size = cl.config().dsm.page_size;
    let page = arr.page_span(page_size).0;
    let det = Arc::new(RaceDetector::new(n, RaceConfig { page_size, ..RaceConfig::default() }));
    cl.set_race_sink(Arc::clone(&det) as Arc<dyn RaceSink>);
    let mut apps: Vec<repseq_dsm::AppFn> = vec![Box::new(move |node: DsmNode| master(node, arr))];
    for _ in 1..n {
        apps.push(Box::new(|node: DsmNode| node.slave_loop()));
    }
    let out = cl.launch_inspect(apps);
    out.result.expect("fixture run must complete");
    (det.report(), page)
}

/// Every reported race must sit on `page` and carry only the given
/// section labels.
fn assert_provenance(rep: &RaceReport, page: u32, labels: &[&str]) {
    for r in &rep.races {
        assert_eq!(r.page, page, "race on unexpected page:\n{}", rep.render());
        for side in [&r.first, &r.second] {
            assert!(
                labels.contains(&side.section.as_str()),
                "unexpected section label {:?}:\n{}",
                side.section,
                rep.render()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Planted race 1: missing barrier
// ---------------------------------------------------------------------

/// One parallel section: node 0 writes a word node 1 reads, with an
/// optional barrier between them.
fn missing_barrier(with_barrier: bool) -> (RaceReport, u32) {
    run_fixture(2, move |node, arr| {
        node.run_parallel(move |nd| {
            nd.race_label("fixture::missing_barrier");
            if nd.node() == 0 {
                arr.set(nd, 0, 1.25)?;
            }
            if with_barrier {
                nd.barrier()?;
            }
            if nd.node() == 1 {
                let _ = arr.get(nd, 0)?;
            }
            Ok(())
        })?;
        node.shutdown_slaves()
    })
}

#[test]
fn planted_missing_barrier_is_detected() {
    let (rep, page) = missing_barrier(false);
    assert_eq!(rep.races.len(), 1, "expected exactly one race:\n{}", rep.render());
    assert_provenance(&rep, page, &["fixture::missing_barrier"]);
    let kinds = [rep.races[0].first.kind, rep.races[0].second.kind];
    assert!(kinds.contains(&AccessKind::Read) && kinds.contains(&AccessKind::Write));
}

#[test]
fn barrier_fixes_the_planted_race() {
    let (rep, _) = missing_barrier(true);
    assert!(rep.is_clean(), "barrier-ordered accesses must not race:\n{}", rep.render());
    assert!(rep.checks > 0, "the detector must actually have checked accesses");
}

// ---------------------------------------------------------------------
// Planted race 2: unsynchronized reduction
// ---------------------------------------------------------------------

/// Three nodes read-modify-write one shared accumulator, with or without
/// the lock that makes it a reduction.
fn reduction(with_lock: bool) -> (RaceReport, u32) {
    run_fixture(3, move |node, arr| {
        node.run_parallel(move |nd| {
            nd.race_label("fixture::reduction");
            if with_lock {
                nd.lock(3)?;
            }
            let v = arr.get(nd, 0)?;
            arr.set(nd, 0, v + 1.0)?;
            if with_lock {
                nd.unlock(3)?;
            }
            Ok(())
        })?;
        node.shutdown_slaves()
    })
}

#[test]
fn planted_unsynchronized_reduction_is_detected() {
    let (rep, page) = reduction(false);
    assert!(!rep.is_clean(), "lockless RMW must race");
    assert_provenance(&rep, page, &["fixture::reduction"]);
}

#[test]
fn lock_fixes_the_planted_reduction() {
    let (rep, _) = reduction(true);
    assert!(rep.is_clean(), "lock-ordered reduction must not race:\n{}", rep.render());
    assert!(rep.checks > 0);
}

// ---------------------------------------------------------------------
// Planted race 3: sequential-section write vs a straggler's read
// ---------------------------------------------------------------------

/// The master forks a read task, then performs a sequential-section write
/// of the same page either before (`racy`) or after waiting for the
/// joins — the "straggler still reading while the master moves on"
/// pattern the paper's fork/join structure normally excludes.
fn straggler(write_before_join: bool) -> (RaceReport, u32) {
    run_fixture(2, move |node, arr| {
        let task = Task::Parallel(Arc::new(move |nd: &DsmNode| {
            if nd.node() == 1 {
                nd.race_label("fixture::straggler_read");
                let _ = arr.get(nd, 0)?;
            }
            Ok(())
        }));
        node.fork_slaves(task)?;
        if write_before_join {
            node.race_label("fixture::seq_write");
            arr.set(&node, 0, 2.5)?;
            node.wait_joins()?;
        } else {
            node.wait_joins()?;
            node.race_label("fixture::seq_write");
            arr.set(&node, 0, 2.5)?;
        }
        node.shutdown_slaves()
    })
}

#[test]
fn planted_straggler_read_is_detected() {
    let (rep, page) = straggler(true);
    assert_eq!(rep.races.len(), 1, "expected exactly one race:\n{}", rep.render());
    assert_provenance(&rep, page, &["fixture::seq_write", "fixture::straggler_read"]);
    let r = &rep.races[0];
    let (write, read) = if r.first.kind == AccessKind::Write {
        (&r.first, &r.second)
    } else {
        (&r.second, &r.first)
    };
    assert_eq!(write.section, "fixture::seq_write");
    assert_eq!(write.node, 0);
    assert_eq!(read.section, "fixture::straggler_read");
    assert_eq!(read.node, 1);
}

#[test]
fn joining_before_the_write_fixes_the_straggler() {
    let (rep, _) = straggler(false);
    assert!(rep.is_clean(), "join-ordered write must not race:\n{}", rep.render());
    assert!(rep.checks > 0);
}

// ---------------------------------------------------------------------
// Certification: Barnes-Hut and Ilink, all three strategies, 8 nodes
// ---------------------------------------------------------------------

const CERT_NODES: usize = 8;

/// The determinism-relevant residue of one application run.
#[derive(Debug, Clone, PartialEq)]
struct AppFingerprint {
    end_time: SimTime,
    proc_clocks: Vec<(String, SimTime)>,
    events: u64,
    stats: StatsSnapshot,
}

fn detector_for(cfg: &RunConfig) -> Arc<RaceDetector> {
    let page_size = cfg.cluster.dsm.page_size;
    Arc::new(RaceDetector::new(
        cfg.cluster.nodes,
        RaceConfig { page_size, ..RaceConfig::default() },
    ))
}

/// Run one application under `cfg`, observed by `det` if given.
fn run_app<A: Send + 'static, R: Send + 'static>(
    cfg: RunConfig,
    det: Option<Arc<RaceDetector>>,
    setup: impl FnOnce(&mut Runtime) -> A,
    body: impl FnOnce(&A, &Team) -> Result<R, Stopped> + Send + 'static,
) -> (R, AppFingerprint) {
    let mut rt = Runtime::new(cfg);
    if let Some(d) = det {
        rt.set_race_sink(d as Arc<dyn RaceSink>);
    }
    let app = setup(&mut rt);
    let stats = rt.stats();
    let (r, report) = rt.run_value(move |team| body(&app, team)).expect("run must complete");
    let fp = AppFingerprint {
        end_time: report.end_time,
        proc_clocks: report.proc_clocks,
        events: report.events_processed,
        stats: stats.snapshot(),
    };
    (r, fp)
}

fn run_bh(cfg: RunConfig, det: Option<Arc<RaceDetector>>) -> (BhResult, AppFingerprint) {
    run_app(cfg, det, |rt| BarnesHut::setup(rt, BhConfig::tiny()), BarnesHut::run)
}

fn run_ilink(cfg: RunConfig, det: Option<Arc<RaceDetector>>) -> (IlinkResult, AppFingerprint) {
    run_app(cfg, det, |rt| Ilink::setup(rt, IlinkConfig::tiny()), Ilink::run)
}

fn run_kv(cfg: RunConfig, det: Option<Arc<RaceDetector>>) -> (KvResult, AppFingerprint) {
    run_app(cfg, det, |rt| KvStore::setup(rt, KvConfig::tiny()), KvStore::run)
}

/// Write the report JSON where the CI `race-certify` job collects
/// artifacts (`target/tmp/RACE_*.json`).
fn write_artifact(name: &str, rep: &RaceReport) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).expect("artifact dir");
    std::fs::write(dir.join(format!("RACE_{name}.json")), rep.to_json()).expect("artifact write");
}

#[test]
fn barnes_hut_certifies_race_free_and_detector_is_invariant() {
    for (tag, cfg) in [
        ("bh_rse_off", RunConfig::original(CERT_NODES)),
        ("bh_rse_on", RunConfig::optimized(CERT_NODES)),
        ("bh_push", RunConfig::master_push(CERT_NODES)),
    ] {
        let det = detector_for(&cfg);
        let (r_on, fp_on) = run_bh(cfg.clone(), Some(Arc::clone(&det)));
        let (r_off, fp_off) = run_bh(cfg, None);
        let rep = det.report();
        write_artifact(tag, &rep);
        assert!(rep.is_clean(), "{tag}: expected a race-free run:\n{}", rep.render());
        assert!(rep.checks > 0, "{tag}: the detector must have observed accesses");
        assert_eq!(r_on, r_off, "{tag}: detector changed the computed result");
        assert_eq!(fp_on, fp_off, "{tag}: detector perturbed the simulation");
    }
}

#[test]
fn ilink_certifies_race_free_and_detector_is_invariant() {
    for (tag, cfg) in [
        ("ilink_rse_off", RunConfig::original(CERT_NODES)),
        ("ilink_rse_on", RunConfig::optimized(CERT_NODES)),
        ("ilink_push", RunConfig::master_push(CERT_NODES)),
    ] {
        let det = detector_for(&cfg);
        let (r_on, fp_on) = run_ilink(cfg.clone(), Some(Arc::clone(&det)));
        let (r_off, fp_off) = run_ilink(cfg, None);
        let rep = det.report();
        write_artifact(tag, &rep);
        assert!(rep.is_clean(), "{tag}: expected a race-free run:\n{}", rep.render());
        assert!(rep.checks > 0, "{tag}: the detector must have observed accesses");
        assert_eq!(r_on, r_off, "{tag}: detector changed the computed result");
        assert_eq!(fp_on, fp_off, "{tag}: detector perturbed the simulation");
    }
}

#[test]
fn kv_certifies_race_free_and_detector_is_invariant() {
    for (tag, cfg) in [
        ("kv_rse_off", RunConfig::original(CERT_NODES)),
        ("kv_rse_on", RunConfig::optimized(CERT_NODES)),
        ("kv_push", RunConfig::master_push(CERT_NODES)),
    ] {
        let det = detector_for(&cfg);
        let (r_on, fp_on) = run_kv(cfg.clone(), Some(Arc::clone(&det)));
        let (r_off, fp_off) = run_kv(cfg, None);
        let rep = det.report();
        write_artifact(tag, &rep);
        assert!(rep.is_clean(), "{tag}: expected a race-free run:\n{}", rep.render());
        assert!(rep.checks > 0, "{tag}: the detector must have observed accesses");
        assert_eq!(r_on, r_off, "{tag}: detector changed the computed result");
        assert_eq!(fp_on, fp_off, "{tag}: detector perturbed the simulation");
    }
}

// ---------------------------------------------------------------------
// Invariance property: torture workloads, detector on vs off
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any torture-generator workload under any loss schedule produces a
    /// bit-identical simulation and statistics with the detector on as
    /// off: same virtual end time, same per-process clocks, same kernel
    /// event count, same mailbox backlog, same per-node per-section
    /// messages/bytes/faults.
    #[test]
    fn detector_does_not_perturb_the_simulation(
        seed in 0u64..64,
        rate_idx in 0usize..4,
        flags in 0u8..4,
    ) {
        let drop_per_mille = [0u32, 100, 250, 400][rate_idx];
        let unicast = flags & 1 != 0;
        let kitchen = flags & 2 != 0;
        let (build, cfg) = if kitchen {
            (kitchen_sink as repseq_check::Builder,
             HarnessConfig { nodes: 4, ..HarnessConfig::default() })
        } else {
            (rse_kernel as repseq_check::Builder, HarnessConfig::default())
        };
        let sched = Schedule { seed, drop_per_mille, unicast };
        let off = run_schedule_instrumented(build, &cfg, sched, None)
            .unwrap_or_else(|e| panic!("{e}"));
        let page_size = ClusterConfig::paper(cfg.nodes).dsm.page_size;
        let det = Arc::new(RaceDetector::new(
            cfg.nodes,
            RaceConfig { page_size, ..RaceConfig::default() },
        ));
        let on = run_schedule_instrumented(build, &cfg, sched, Some(det))
            .unwrap_or_else(|e| panic!("{e}"));
        prop_assert!(on.races.is_some(), "detector run must produce a report");
        prop_assert_eq!(off.drops, on.drops, "loss schedule diverged");
        prop_assert_eq!(&off.sim, &on.sim, "simulation fingerprint diverged");
        prop_assert_eq!(&off.stats, &on.stats, "statistics diverged");
    }
}
