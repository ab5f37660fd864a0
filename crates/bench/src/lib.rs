//! # repseq-bench — harnesses regenerating the paper's evaluation
//!
//! One bench target per table of PPoPP'01 §6, plus the two in-text
//! ablations and a scalability extension. Each harness runs the relevant
//! application under the Sequential (1 node), Original and Optimized
//! systems and prints the paper's rows with the paper's published values
//! alongside the measured ones.
//!
//! Scale control: `REPSEQ_SCALE=tiny|default|full` (default `default`) and
//! `REPSEQ_NODES=<n>` (default 32, as in the paper). `full` is the paper's
//! problem size and takes a while; `default` preserves the shapes at
//! laptop scale.

use std::sync::Arc;

use parking_lot::Mutex;
use repseq_apps::barnes_hut::{BarnesHut, BhConfig, BhResult};
use repseq_apps::ilink::{Ilink, IlinkConfig, IlinkResult};
use repseq_apps::kv::{KvConfig, KvResult, KvStore};
use repseq_core::{RunConfig, Runtime, SeqMode};
use repseq_dsm::{Backend, ClusterConfig};
use repseq_sim::{Dur, SimReport};
use repseq_stats::{Section, StatsSnapshot};

/// Benchmark scale, from `REPSEQ_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Default,
    Full,
}

impl Scale {
    /// Read the scale from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("REPSEQ_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            Ok("tiny") => Scale::Tiny,
            _ => Scale::Default,
        }
    }
}

/// Node count, from `REPSEQ_NODES` (default 32, the paper's cluster).
pub fn nodes_from_env() -> usize {
    std::env::var("REPSEQ_NODES").ok().and_then(|s| s.parse().ok()).unwrap_or(32)
}

/// CPUs available to this process (the affinity mask counts: 1 under
/// `taskset -c <cpu>`). Every BENCH artifact records this so a reader can
/// tell whether wall-clock numbers were measured pinned to one core or
/// with real parallelism, which the native backend's throughput needs.
/// (A DES run is one thread and reads the same either way; artifacts from
/// the thread-per-process engine, before PR 17, did not.)
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The source the artifacts were generated from: the short git tree hash
/// of `HEAD`, plus `+dirty` if the working tree differs from it. (A commit
/// hash would be stale by construction — artifacts are written before the
/// commit that carries them exists.) "unknown" outside a git checkout.
pub fn tree_stamp() -> String {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let stamp = || {
        let tree = git(&["rev-parse", "--short", "HEAD^{tree}"]).filter(|t| !t.is_empty())?;
        let dirty = !git(&["status", "--porcelain"])?.is_empty();
        Some(format!("{tree}{}", if dirty { "+dirty" } else { "" }))
    };
    stamp().unwrap_or_else(|| "unknown".into())
}

/// The Barnes-Hut configuration for a scale.
pub fn bh_config(scale: Scale) -> BhConfig {
    match scale {
        Scale::Full => BhConfig::paper(),
        Scale::Default => BhConfig::scaled(8_192),
        Scale::Tiny => BhConfig::tiny(),
    }
}

/// The Ilink configuration for a scale.
pub fn ilink_config(scale: Scale) -> IlinkConfig {
    match scale {
        Scale::Full => IlinkConfig::paper(),
        Scale::Default => IlinkConfig::scaled(16),
        Scale::Tiny => IlinkConfig::tiny(),
    }
}

/// The KV-serving configuration for a scale.
pub fn kv_config(scale: Scale) -> KvConfig {
    match scale {
        Scale::Full => KvConfig::paper(),
        Scale::Default => KvConfig::scaled(1024),
        Scale::Tiny => KvConfig::tiny(),
    }
}

/// One measured system run.
pub struct RunOutcome<R> {
    pub result: R,
    pub snap: StatsSnapshot,
}

/// Run Barnes-Hut under `mode` on `n` nodes.
pub fn run_barnes(mode: SeqMode, n: usize, cfg: BhConfig) -> RunOutcome<BhResult> {
    run_barnes_config(mode, n, cfg, true)
}

/// Like [`run_barnes`], but with the software TLB explicitly enabled or
/// disabled — the bench harness runs both and asserts the simulated
/// results are identical (the fast path must be invisible to virtual
/// time).
pub fn run_barnes_config(
    mode: SeqMode,
    n: usize,
    cfg: BhConfig,
    tlb_enabled: bool,
) -> RunOutcome<BhResult> {
    run_barnes_report(mode, n, cfg, tlb_enabled).0
}

/// Like [`run_barnes_config`], but also returns the kernel's [`SimReport`]
/// — the host-execution bench derives events/sec and the duty counters
/// from it.
pub fn run_barnes_report(
    mode: SeqMode,
    n: usize,
    cfg: BhConfig,
    tlb_enabled: bool,
) -> (RunOutcome<BhResult>, SimReport) {
    let mut cluster = ClusterConfig::paper(n);
    cluster.dsm.tlb_enabled = tlb_enabled;
    let mut rt = Runtime::new(RunConfig { cluster, seq_mode: mode });
    let app = BarnesHut::setup(&mut rt, cfg);
    let stats = rt.stats();
    let out = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let report = rt
        .run(move |team| {
            let r = app.run(team)?;
            *out2.lock() = Some(r);
            Ok(())
        })
        .expect("barnes-hut run failed");
    let result = out.lock().take().unwrap();
    (RunOutcome { result, snap: stats.snapshot() }, report)
}

/// Run Barnes-Hut under `mode` on `n` nodes on the given substrate. On
/// [`Backend::Native`] the statistics snapshot's *times* are wall-clock
/// and the message counts include wall-clock-timeout resends; the
/// physics result is backend-invariant.
pub fn run_barnes_on(
    mode: SeqMode,
    n: usize,
    cfg: BhConfig,
    backend: Backend,
) -> RunOutcome<BhResult> {
    let mut cluster = ClusterConfig::paper(n);
    cluster.backend = backend;
    let mut rt = Runtime::new(RunConfig { cluster, seq_mode: mode });
    let app = BarnesHut::setup(&mut rt, cfg);
    let stats = rt.stats();
    let out = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    rt.run(move |team| {
        let r = app.run(team)?;
        *out2.lock() = Some(r);
        Ok(())
    })
    .expect("barnes-hut run failed");
    let result = out.lock().take().unwrap();
    RunOutcome { result, snap: stats.snapshot() }
}

/// Run Ilink under `mode` on `n` nodes on the given substrate (see
/// [`run_barnes_on`] for what is and is not backend-invariant).
pub fn run_ilink_on(
    mode: SeqMode,
    n: usize,
    cfg: IlinkConfig,
    backend: Backend,
) -> RunOutcome<IlinkResult> {
    let mut cluster = ClusterConfig::paper(n);
    cluster.backend = backend;
    let mut rt = Runtime::new(RunConfig { cluster, seq_mode: mode });
    let app = Ilink::setup(&mut rt, cfg);
    let stats = rt.stats();
    let out = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    rt.run(move |team| {
        let r = app.run(team)?;
        *out2.lock() = Some(r);
        Ok(())
    })
    .expect("ilink run failed");
    let result = out.lock().take().unwrap();
    RunOutcome { result, snap: stats.snapshot() }
}

/// Run the KV-serving workload under `mode` on `n` nodes on the given
/// substrate. On [`Backend::Native`] the latency percentiles and
/// throughput in the result are over the wall clock; the served values
/// (`read_xor`), table fingerprint, trace hash and request counts are
/// backend-invariant.
pub fn run_kv_on(mode: SeqMode, n: usize, cfg: KvConfig, backend: Backend) -> RunOutcome<KvResult> {
    let mut cluster = ClusterConfig::paper(n);
    cluster.backend = backend;
    let mut rt = Runtime::new(RunConfig { cluster, seq_mode: mode });
    let app = KvStore::setup(&mut rt, cfg);
    let stats = rt.stats();
    let out = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    rt.run(move |team| {
        let r = app.run(team)?;
        *out2.lock() = Some(r);
        Ok(())
    })
    .expect("kv run failed");
    let result = out.lock().take().unwrap();
    RunOutcome { result, snap: stats.snapshot() }
}

/// Run the KV-serving workload under `mode` on `n` nodes.
pub fn run_kv(mode: SeqMode, n: usize, cfg: KvConfig) -> RunOutcome<KvResult> {
    let mut rt = Runtime::new(RunConfig { cluster: ClusterConfig::paper(n), seq_mode: mode });
    let app = KvStore::setup(&mut rt, cfg);
    let stats = rt.stats();
    let out = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    rt.run(move |team| {
        let r = app.run(team)?;
        *out2.lock() = Some(r);
        Ok(())
    })
    .expect("kv run failed");
    let result = out.lock().take().unwrap();
    RunOutcome { result, snap: stats.snapshot() }
}

/// Run Ilink under `mode` on `n` nodes.
pub fn run_ilink(mode: SeqMode, n: usize, cfg: IlinkConfig) -> RunOutcome<IlinkResult> {
    let mut rt = Runtime::new(RunConfig { cluster: ClusterConfig::paper(n), seq_mode: mode });
    let app = Ilink::setup(&mut rt, cfg);
    let stats = rt.stats();
    let out = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    rt.run(move |team| {
        let r = app.run(team)?;
        *out2.lock() = Some(r);
        Ok(())
    })
    .expect("ilink run failed");
    let result = out.lock().take().unwrap();
    RunOutcome { result, snap: stats.snapshot() }
}

fn secs(d: Dur) -> f64 {
    d.as_secs_f64()
}

/// Print a Table-1/Table-3 style execution-time table.
///
/// `paper` carries the paper's published values (same row order) for
/// side-by-side comparison; pass `None` for rows the paper does not report.
pub fn print_time_table(
    title: &str,
    seq: &StatsSnapshot,
    orig: &StatsSnapshot,
    opt: &StatsSnapshot,
    paper: &[[Option<f64>; 3]; 5],
) {
    let seq_total = secs(seq.total_time);
    let rows: [(&str, [f64; 3]); 5] = [
        ("Total time (sec.)", [seq_total, secs(orig.total_time), secs(opt.total_time)]),
        (
            "Total speedup",
            [1.0, seq_total / secs(orig.total_time), seq_total / secs(opt.total_time)],
        ),
        (
            "Sequential time (sec.)",
            [secs(seq.seq_time()), secs(orig.seq_time()), secs(opt.seq_time())],
        ),
        (
            "Parallel time (sec.)",
            [secs(seq.par_time()), secs(orig.par_time()), secs(opt.par_time())],
        ),
        (
            "Parallel speedup",
            [
                1.0,
                secs(seq.par_time()) / secs(orig.par_time()).max(1e-12),
                secs(seq.par_time()) / secs(opt.par_time()).max(1e-12),
            ],
        ),
    ];
    println!("\n=== {title} ===");
    println!(
        "{:<26} {:>12} {:>12} {:>12}   | paper: {:>9} {:>9} {:>9}",
        "", "Sequential", "Original", "Optimized", "Seq", "Orig", "Opt"
    );
    for (i, (label, vals)) in rows.iter().enumerate() {
        let p = paper[i];
        println!(
            "{:<26} {:>12.2} {:>12.2} {:>12.2}   | {:>16} {:>9} {:>9}",
            label,
            vals[0],
            vals[1],
            vals[2],
            p[0].map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into()),
            p[1].map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into()),
            p[2].map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into()),
        );
    }
}

/// Print a Table-2/Table-4 style communication-statistics table.
pub fn print_stats_table(
    title: &str,
    orig: &StatsSnapshot,
    opt: &StatsSnapshot,
    paper: &[[Option<f64>; 2]; 10],
) {
    let row = |snap: &StatsSnapshot| -> [f64; 10] {
        let total = snap.total_agg();
        let seq = snap.seq_agg();
        let par = snap.par_agg();
        [
            total.messages as f64,
            total.bytes as f64 / 1024.0,
            seq.diff_messages as f64,
            seq.diff_bytes as f64 / 1024.0,
            snap.max_node_diff_requests(Section::Sequential) as f64,
            seq.avg_response().map(|d| d.as_millis_f64()).unwrap_or(0.0),
            par.diff_messages as f64,
            par.diff_bytes as f64 / 1024.0,
            snap.avg_node_diff_requests(Section::Parallel),
            par.avg_response().map(|d| d.as_millis_f64()).unwrap_or(0.0),
        ]
    };
    let labels = [
        "Total messages",
        "      data (KB)",
        "Seq  diff messages",
        "     diff data (KB)",
        "     diff requests",
        "     avg response (ms)",
        "Par  diff messages",
        "     diff data (KB)",
        "     avg diff requests",
        "     avg response (ms)",
    ];
    let o = row(orig);
    let p = row(opt);
    println!("\n=== {title} ===");
    println!(
        "{:<24} {:>14} {:>14}   | paper: {:>12} {:>12}",
        "", "Original", "Optimized", "Orig", "Opt"
    );
    for i in 0..10 {
        let pp = paper[i];
        println!(
            "{:<24} {:>14.2} {:>14.2}   | {:>20} {:>12}",
            labels[i],
            o[i],
            p[i],
            pp[0].map(|v| format!("{v}")).unwrap_or_else(|| "-".into()),
            pp[1].map(|v| format!("{v}")).unwrap_or_else(|| "-".into()),
        );
    }
}

/// A compact shape check: direction of change between two measured values,
/// printed as reproduced/not.
pub fn shape_check(label: &str, holds: bool) {
    println!("  [{}] {label}", if holds { "ok" } else { "MISMATCH" });
}

/// Print the host-side diff-engine counters (`repseq_stats::host`)
/// accumulated across the runs: the wall-clock time the simulator itself
/// spent creating and applying diffs — as opposed to the *simulated* times
/// in the tables above — plus the page allocations the twin pool avoided.
pub fn print_host_counters(title: &str, h: &repseq_stats::HostCounters) {
    let per = |ns: u64, calls: u64| if calls == 0 { 0.0 } else { ns as f64 / calls as f64 };
    let rate = |bytes: u64, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            bytes as f64 / (ns as f64 / 1e9) / 1e9
        }
    };
    println!("\n--- Host diff engine ({title}) ---");
    println!(
        "diff create: {:>10} calls  {:>10.1} ns/call  {:>8.2} GB/s scanned ({} bytes)",
        h.diff_create_calls,
        per(h.diff_create_ns, h.diff_create_calls),
        rate(h.diff_create_bytes, h.diff_create_ns),
        h.diff_create_bytes,
    );
    println!(
        "diff apply:  {:>10} calls  {:>10.1} ns/call  {:>8.2} GB/s copied  ({} bytes)",
        h.diff_apply_calls,
        per(h.diff_apply_ns, h.diff_apply_calls),
        rate(h.diff_apply_bytes, h.diff_apply_ns),
        h.diff_apply_bytes,
    );
    println!(
        "twin pool:   {:>10} hits   {:>10} misses  ({} page allocations avoided)",
        h.twin_pool_hits, h.twin_pool_misses, h.twin_pool_hits,
    );
    println!(
        "scratch:     {:>10} hits   {:>10} misses  ({} small-vector allocations avoided)",
        h.scratch_pool_hits, h.scratch_pool_misses, h.scratch_pool_hits,
    );
    let tlb_total = h.tlb_hits + h.tlb_misses;
    let tlb_rate = if tlb_total == 0 { 0.0 } else { 100.0 * h.tlb_hits as f64 / tlb_total as f64 };
    println!(
        "softw. TLB:  {:>10} hits   {:>10} misses  ({tlb_rate:.1}% of accesses skip the page walk)",
        h.tlb_hits, h.tlb_misses,
    );
}
