//! Native-substrate certification: the correctness gates that replace
//! fingerprints when the protocol runs on real OS threads.
//!
//! The DES pins bit-exact virtual-time behavior; the native backend has
//! no reproducible clock, so its gates are the substrate-agnostic ones:
//!
//! 1. **Coherence oracle** — every torture workload, under every
//!    sequential-section strategy, must converge to the single-memory
//!    reference replay (byte-exact page snapshots at every checkpoint).
//! 2. **Loss recovery** — with frames dropped at the network layer, the
//!    wall-clock retry discipline (the same `RetryTimer` the DES drives
//!    with virtual timeouts) must still reach reference memory.
//! 3. **Race certification + result equality** — full Barnes-Hut, Ilink
//!    and KV runs certify race-free on the native backend, and their
//!    deterministic results (checksums, likelihoods, read XOR, counts)
//!    equal the DES run at the same configuration. This is the
//!    cross-backend gate the ISSUE's acceptance criteria name.

use std::sync::Arc;

use repseq_apps::barnes_hut::{BarnesHut, BhConfig, BhResult};
use repseq_apps::ilink::{Ilink, IlinkConfig, IlinkResult};
use repseq_apps::kv::{KvConfig, KvResult, KvStore};
use repseq_check::{
    kitchen_sink, kv_serving, rse_kernel, run_schedule, run_schedule_instrumented, HarnessConfig,
    RaceDetector, Schedule,
};
use repseq_core::{RunConfig, Runtime};
use repseq_dsm::{Backend, RaceConfig, RaceSink, SeqExecMode};

const CLEAN: Schedule = Schedule { seed: 0, drop_per_mille: 0, unicast: false };
const STRATEGIES: [SeqExecMode; 3] =
    [SeqExecMode::MasterOnly, SeqExecMode::Rse, SeqExecMode::MasterPush];

fn native_cfg(seq_exec: SeqExecMode) -> HarnessConfig {
    HarnessConfig { nodes: 4, seq_exec, backend: Backend::Native, ..HarnessConfig::default() }
}

// ---------------------------------------------------------------------
// 1. Coherence oracle on clean native runs
// ---------------------------------------------------------------------

/// Every workload × strategy must satisfy the byte-exact coherence oracle
/// on the native backend, exactly as on the DES.
#[test]
fn native_clean_runs_satisfy_the_oracle() {
    for seq_exec in STRATEGIES {
        let cfg = native_cfg(seq_exec);
        for build in [rse_kernel, kitchen_sink, kv_serving] {
            let out = run_schedule(build, &cfg, CLEAN).unwrap_or_else(|r| panic!("{r}"));
            assert_eq!(out.drops, 0, "clean schedule must not drop frames");
        }
    }
}

// ---------------------------------------------------------------------
// 2. Loss recovery by wall-clock timeout
// ---------------------------------------------------------------------

/// With frames dropped on the native backend, recovery runs on *real*
/// timeouts: the requester's section-timeout refetch and the unicast
/// resend layer fire by wall clock rather than virtual time. Reference
/// memory must still be reached. (Which frames drop varies run to run —
/// thread interleaving decides the send order the loss hash sees — so
/// unlike the DES torture grid this asserts recovery from *some* loss,
/// not a pinned schedule.)
#[test]
fn native_runs_recover_from_frame_loss() {
    let cfg = native_cfg(SeqExecMode::Rse);
    let mut drops = 0;
    for seed in 0..3 {
        for unicast in [false, true] {
            let sched = Schedule { seed, drop_per_mille: 100, unicast };
            let out = run_schedule(kitchen_sink, &cfg, sched).unwrap_or_else(|r| panic!("{r}"));
            drops += out.drops;
        }
    }
    assert!(drops > 0, "the lossy schedules must actually drop frames to mean anything");
}

// ---------------------------------------------------------------------
// 3. Application certification: race-free and result-equal to the DES
// ---------------------------------------------------------------------

fn detector_for(cfg: &RunConfig) -> Arc<RaceDetector> {
    let page_size = cfg.cluster.dsm.page_size;
    Arc::new(RaceDetector::new(
        cfg.cluster.nodes,
        RaceConfig { page_size, ..RaceConfig::default() },
    ))
}

fn run_bh(cfg: RunConfig, det: Option<Arc<RaceDetector>>) -> BhResult {
    let mut rt = Runtime::new(cfg);
    if let Some(d) = det {
        rt.set_race_sink(d as Arc<dyn RaceSink>);
    }
    let bh = BarnesHut::setup(&mut rt, BhConfig::tiny());
    rt.run_value(move |team| bh.run(team)).expect("BH run must complete").0
}

fn run_ilink(cfg: RunConfig, det: Option<Arc<RaceDetector>>) -> IlinkResult {
    let mut rt = Runtime::new(cfg);
    if let Some(d) = det {
        rt.set_race_sink(d as Arc<dyn RaceSink>);
    }
    let il = Ilink::setup(&mut rt, IlinkConfig::tiny());
    rt.run_value(move |team| il.run(team)).expect("Ilink run must complete").0
}

fn run_kv(cfg: RunConfig, det: Option<Arc<RaceDetector>>) -> KvResult {
    let mut rt = Runtime::new(cfg);
    if let Some(d) = det {
        rt.set_race_sink(d as Arc<dyn RaceSink>);
    }
    let kv = KvStore::setup(&mut rt, KvConfig::tiny());
    rt.run_value(move |team| kv.run(team)).expect("KV run must complete").0
}

/// The three run-mode constructors the three-way comparison sweeps.
type ModeCtor = fn(usize) -> RunConfig;
fn modes() -> [(&'static str, ModeCtor); 3] {
    [
        ("original", RunConfig::original as ModeCtor),
        ("optimized", RunConfig::optimized),
        ("master_push", RunConfig::master_push),
    ]
}

fn native(mut cfg: RunConfig) -> RunConfig {
    cfg.cluster.backend = Backend::Native;
    cfg
}

/// Barnes-Hut at 4 nodes: the native run certifies race-free and computes
/// exactly the DES run's phase-space checksum and interaction count under
/// every sequential-section strategy.
#[test]
fn native_bh_certifies_and_matches_the_des() {
    for (name, mk) in modes() {
        let sim = run_bh(mk(4), None);
        let ncfg = native(mk(4));
        let det = detector_for(&ncfg);
        let nat = run_bh(ncfg, Some(Arc::clone(&det)));
        let report = det.report();
        assert!(report.is_clean(), "native BH ({name}) raced:\n{}", report.render());
        assert_eq!(sim, nat, "BH result diverged across backends ({name})");
    }
}

/// Ilink at 4 nodes: likelihood and update counts are backend-invariant,
/// and the native run certifies race-free.
#[test]
fn native_ilink_certifies_and_matches_the_des() {
    for (name, mk) in modes() {
        let sim = run_ilink(mk(4), None);
        let ncfg = native(mk(4));
        let det = detector_for(&ncfg);
        let nat = run_ilink(ncfg, Some(Arc::clone(&det)));
        let report = det.report();
        assert!(report.is_clean(), "native Ilink ({name}) raced:\n{}", report.render());
        assert_eq!(sim, nat, "Ilink result diverged across backends ({name})");
    }
}

/// KV at 4 nodes: the served values (read XOR), table fingerprint, trace
/// hash and request counts are backend-invariant; latency percentiles and
/// throughput are time-domain measurements and legitimately differ (the
/// native clock is a wall clock).
#[test]
fn native_kv_certifies_and_matches_the_des() {
    for (name, mk) in modes() {
        let sim = run_kv(mk(4), None);
        let ncfg = native(mk(4));
        let det = detector_for(&ncfg);
        let nat = run_kv(ncfg, Some(Arc::clone(&det)));
        let report = det.report();
        assert!(report.is_clean(), "native KV ({name}) raced:\n{}", report.render());
        assert_eq!(sim.fingerprint, nat.fingerprint, "KV table diverged ({name})");
        assert_eq!(sim.trace_hash, nat.trace_hash, "KV trace diverged ({name})");
        assert_eq!(sim.read_xor, nat.read_xor, "KV served values diverged ({name})");
        assert_eq!((sim.reads, sim.writes), (nat.reads, nat.writes), "KV counts ({name})");
    }
}

/// The instrumented entry point works on the native backend too (CI's
/// native-smoke job uses it): oracle validated, detector clean, and the
/// report is present.
#[test]
fn native_instrumented_schedule_certifies() {
    let cfg = native_cfg(SeqExecMode::Rse);
    let page_size = repseq_dsm::ClusterConfig::paper(cfg.nodes).dsm.page_size;
    let det =
        Arc::new(RaceDetector::new(cfg.nodes, RaceConfig { page_size, ..RaceConfig::default() }));
    let out = run_schedule_instrumented(kitchen_sink, &cfg, CLEAN, Some(det))
        .unwrap_or_else(|e| panic!("{e}"));
    let races = out.races.expect("detector run must produce a report");
    assert!(races.is_clean(), "native kitchen_sink raced:\n{}", races.render());
}
