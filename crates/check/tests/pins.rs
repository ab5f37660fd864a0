//! Refactor-invariance pins: byte-exact fingerprints of the two
//! pre-existing sequential-section modes (`MasterOnly` and `Rse`),
//! captured at the commit *before* the layered decomposition of
//! `repseq-dsm` and committed under `tests/pins/`.
//!
//! Every pinned run renders the determinism-relevant residue of the
//! simulation — virtual end time, per-process clocks, kernel event
//! count, mailbox backlog, the full per-node per-section statistics
//! snapshot, and the computed application result — into a canonical
//! text form and compares it byte-for-byte against the committed pin.
//! Any drift in message counts, virtual timing, or numerics under the
//! pre-existing modes fails the suite, proving the refactor is
//! behaviour-preserving where it claims to be.
//!
//! Regenerate (only at a commit whose behaviour is the new reference):
//!
//! ```text
//! REPSEQ_PIN_REGEN=1 cargo test -p repseq-check --release --test pins
//! ```
//!
//! in a commit that holds nothing else, and say which lines moved. The one
//! regeneration on record (PR 23) moved `events_processed:` alone — the
//! count of queue pops, which is how the host drives a run, not what the
//! run computes: the engine stopped queueing receive checkpoints that find
//! nothing and deadlines that are not reached. Every virtual-time field
//! stayed, which this prints 0 for:
//!
//! ```text
//! git diff -U0 <parent> -- crates/check/tests/pins | grep '^[+-][^+-]' | grep -vc events_processed
//! ```

mod support;

use std::fmt::Write as _;

use repseq_apps::barnes_hut::{BarnesHut, BhConfig};
use repseq_apps::ilink::{Ilink, IlinkConfig};
use repseq_apps::kv::{KvConfig, KvStore};
use repseq_check::{
    kitchen_sink, rse_kernel, run_schedule_instrumented, Builder, HarnessConfig, Schedule,
};
use repseq_core::{RunConfig, Runtime};
use support::{check_pin, render, render_stats};

const PIN_NODES: usize = 8;
const KV_PIN_NODES: usize = 4;

// ---------------------------------------------------------------------
// Application pins: Barnes-Hut and Ilink under both pre-existing modes,
// KV under all three strategies
// ---------------------------------------------------------------------

fn pin_bh(name: &str, cfg: RunConfig) {
    let mut rt = Runtime::new(cfg);
    let bh = BarnesHut::setup(&mut rt, BhConfig::tiny());
    let stats = rt.stats();
    let (r, report) = rt.run_value(move |team| bh.run(team)).expect("BH pin run must complete");
    check_pin(name, &render(&report, &stats.snapshot(), &format!("{r:?}")));
}

fn pin_ilink(name: &str, cfg: RunConfig) {
    let mut rt = Runtime::new(cfg);
    let il = Ilink::setup(&mut rt, IlinkConfig::tiny());
    let stats = rt.stats();
    let (r, report) = rt.run_value(move |team| il.run(team)).expect("Ilink pin run must complete");
    check_pin(name, &render(&report, &stats.snapshot(), &format!("{r:?}")));
}

/// KV at 4 nodes, recorded on PR 21's tree (before the record bodies
/// became page runs). `throughput_rps` is `total`'s reciprocal and
/// `trace_hash` a function of the seed alone, so neither is rendered.
fn pin_kv(name: &str, cfg: RunConfig) {
    let mut rt = Runtime::new(cfg);
    let kv = KvStore::setup(&mut rt, KvConfig::tiny());
    let stats = rt.stats();
    let (r, report) = rt.run_value(move |team| kv.run(team)).expect("KV pin run must complete");
    let result = format!(
        "fingerprint={:#018x} read_xor={:#018x} reads={} writes={} p50_ns={} p99_ns={} \
         p999_ns={} total_ns={}",
        r.fingerprint,
        r.read_xor,
        r.reads,
        r.writes,
        r.p50_ns,
        r.p99_ns,
        r.p999_ns,
        r.total.nanos()
    );
    check_pin(name, &render(&report, &stats.snapshot(), &result));
}

#[test]
fn barnes_hut_master_only_matches_pre_refactor_pin() {
    pin_bh("bh_master_only", RunConfig::original(PIN_NODES));
}

#[test]
fn barnes_hut_rse_matches_pre_refactor_pin() {
    pin_bh("bh_rse", RunConfig::optimized(PIN_NODES));
}

#[test]
fn ilink_master_only_matches_pre_refactor_pin() {
    pin_ilink("ilink_master_only", RunConfig::original(PIN_NODES));
}

#[test]
fn ilink_rse_matches_pre_refactor_pin() {
    pin_ilink("ilink_rse", RunConfig::optimized(PIN_NODES));
}

#[test]
fn kv_master_only_matches_element_wise_pin() {
    pin_kv("kv_master_only", RunConfig::original(KV_PIN_NODES));
}

#[test]
fn kv_rse_matches_element_wise_pin() {
    pin_kv("kv_rse", RunConfig::optimized(KV_PIN_NODES));
}

#[test]
fn kv_master_push_matches_element_wise_pin() {
    pin_kv("kv_master_push", RunConfig::master_push(KV_PIN_NODES));
}

// ---------------------------------------------------------------------
// Harness pins: the torture workloads through the oracle harness,
// clean and lossy, under the default (Rse) strategy
// ---------------------------------------------------------------------

fn pin_harness(name: &str, build: Builder, cfg: &HarnessConfig, sched: Schedule) {
    let out = run_schedule_instrumented(build, cfg, sched, None).unwrap_or_else(|e| panic!("{e}"));
    let mut s = String::new();
    writeln!(s, "end_time_ns: {}", out.sim.end_time.nanos()).unwrap();
    writeln!(s, "events_processed: {}", out.sim.events_processed).unwrap();
    writeln!(s, "proc_clocks:").unwrap();
    for (pname, t) in &out.sim.proc_clocks {
        writeln!(s, "  {pname}: {}", t.nanos()).unwrap();
    }
    writeln!(s, "mailbox_backlog:").unwrap();
    for (pname, n) in &out.sim.mailbox_backlog {
        writeln!(s, "  {pname}: {n}").unwrap();
    }
    writeln!(s, "drops: {}", out.drops).unwrap();
    render_stats(&mut s, &out.stats);
    check_pin(name, &s);
}

#[test]
fn rse_kernel_clean_matches_pre_refactor_pin() {
    pin_harness(
        "kernel_clean",
        rse_kernel,
        &HarnessConfig::default(),
        Schedule { seed: 0, drop_per_mille: 0, unicast: false },
    );
}

#[test]
fn rse_kernel_lossy_matches_pre_refactor_pin() {
    pin_harness(
        "kernel_lossy",
        rse_kernel,
        &HarnessConfig::default(),
        Schedule { seed: 3, drop_per_mille: 250, unicast: true },
    );
}

#[test]
fn kitchen_sink_clean_matches_pre_refactor_pin() {
    pin_harness(
        "sink_clean",
        kitchen_sink,
        &HarnessConfig { nodes: 4, ..HarnessConfig::default() },
        Schedule { seed: 0, drop_per_mille: 0, unicast: false },
    );
}
