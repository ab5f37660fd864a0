//! Emit `BENCH_native.json`: the native-substrate trajectory artifact.
//!
//! The DES artifacts measure *virtual* time under the paper's cost model;
//! this harness runs the same applications on the native OS-thread
//! backend (`Backend::Native` — real threads, a process-shared segment,
//! wall-clock timeouts) and records *wall-clock* numbers:
//!
//! * the three-way sequential-section strategy comparison (master-only
//!   vs replicated vs master-push) for Barnes-Hut and Ilink at small
//!   node counts, and
//! * the KV serving sweep, whose latency percentiles and throughput are
//!   over the wall clock on this backend.
//!
//! The harness gates, not just records: before anything is written, every
//! native run's deterministic results — the Barnes-Hut phase-space
//! checksum and interaction count, Ilink's likelihood and per-section
//! update counts, KV's served-value XOR, table fingerprint, trace hash
//! and request counts — are asserted equal to a DES run at the same
//! configuration. A native backend that computes different values than
//! the simulator is broken, whatever its throughput.
//!
//! Wall-clock numbers here are *not* fingerprinted (they vary run to run
//! and host to host); `host_cpus` is recorded so a single-core run is
//! legible as such. `REPSEQ_BENCH_NATIVE_NODES=<n,n,...>` selects the
//! node counts (default `4,8` — small, because every node is an OS
//! thread pair on one host).
//!
//! Run with `cargo run --release -p repseq-bench --bin bench_native`.

use std::fmt::Write as _;
use std::time::Instant;

use repseq_apps::barnes_hut::BhResult;
use repseq_apps::ilink::IlinkResult;
use repseq_apps::kv::KvResult;
use repseq_bench::{
    bh_config, host_cpus, ilink_config, kv_config, run_barnes_on, run_ilink_on, run_kv_on,
    tree_stamp, RunOutcome, Scale,
};
use repseq_core::SeqMode;
use repseq_dsm::Backend;

/// Schema of `BENCH_native.json`. Independent of `bench_json`'s DES
/// artifacts — this file records wall-clock measurements.
const SCHEMA_VERSION: u32 = 1;

/// The three sequential-section strategies of the comparison, in artifact
/// order.
const MODES: [(&str, SeqMode); 3] = [
    ("master_only", SeqMode::MasterOnly),
    ("master_push", SeqMode::MasterPush),
    ("rse", SeqMode::Replicated),
];

/// One strategy's native measurement of one app point.
struct ModeRun {
    wall_s: f64,
}

/// One (app, nodes) point: per-strategy wall seconds, plus the DES-equal
/// result rendered for provenance.
struct AppPoint {
    app: &'static str,
    nodes: usize,
    runs: Vec<(&'static str, ModeRun)>,
    result: String,
}

/// One KV sweep point: per-strategy wall-clock serving numbers.
struct KvPoint {
    nodes: usize,
    requests: u64,
    read_xor: u64,
    runs: Vec<(&'static str, KvModeRun)>,
}

struct KvModeRun {
    wall_s: f64,
    throughput_rps: f64,
    p50_ns: u64,
    p99_ns: u64,
}

fn native_nodes() -> Vec<usize> {
    std::env::var("REPSEQ_BENCH_NATIVE_NODES")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![4, 8])
}

/// Time one native run with a same-config DES twin, panicking unless the
/// deterministic projection of the results agrees.
fn gated<R, K: PartialEq + std::fmt::Debug>(
    label: &str,
    run: impl Fn(Backend) -> RunOutcome<R>,
    key: impl Fn(&R) -> K,
) -> (RunOutcome<R>, f64) {
    let sim = run(Backend::Sim);
    let t0 = Instant::now();
    let nat = run(Backend::Native);
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(key(&sim.result), key(&nat.result), "{label}: native result diverged from the DES");
    (nat, wall_s)
}

fn bh_point(n: usize, scale: Scale) -> AppPoint {
    let cfg = bh_config(scale);
    let mut runs = Vec::new();
    let mut result = String::new();
    for (name, mode) in MODES {
        let (nat, wall_s) = gated(
            &format!("barnes_hut/{name}/n{n}"),
            |backend| run_barnes_on(mode, n, cfg.clone(), backend),
            |r: &BhResult| (r.checksum.to_bits(), r.interactions),
        );
        result = format!(
            "checksum={:.6e} interactions={}",
            nat.result.checksum, nat.result.interactions
        );
        runs.push((name, ModeRun { wall_s }));
    }
    AppPoint { app: "barnes_hut", nodes: n, runs, result }
}

fn ilink_point(n: usize, scale: Scale) -> AppPoint {
    let cfg = ilink_config(scale);
    let mut runs = Vec::new();
    let mut result = String::new();
    for (name, mode) in MODES {
        let (nat, wall_s) = gated(
            &format!("ilink/{name}/n{n}"),
            |backend| run_ilink_on(mode, n, cfg.clone(), backend),
            |r: &IlinkResult| (r.likelihood.to_bits(), r.parallel_updates, r.sequential_updates),
        );
        result = format!(
            "likelihood={:.6e} par_updates={} seq_updates={}",
            nat.result.likelihood, nat.result.parallel_updates, nat.result.sequential_updates
        );
        runs.push((name, ModeRun { wall_s }));
    }
    AppPoint { app: "ilink", nodes: n, runs, result }
}

fn kv_point(n: usize, scale: Scale) -> KvPoint {
    let cfg = kv_config(scale);
    let mut runs = Vec::new();
    let mut requests = 0;
    let mut read_xor = 0;
    for (name, mode) in MODES {
        let (nat, wall_s) = gated(
            &format!("kv/{name}/n{n}"),
            |backend| run_kv_on(mode, n, cfg.clone(), backend),
            |r: &KvResult| (r.fingerprint, r.trace_hash, r.read_xor, r.reads, r.writes),
        );
        requests = nat.result.reads + nat.result.writes;
        read_xor = nat.result.read_xor;
        runs.push((
            name,
            KvModeRun {
                wall_s,
                // On the native backend the app's clock IS the wall clock,
                // so the result's open-loop throughput is already wall-side.
                throughput_rps: nat.result.throughput_rps,
                p50_ns: nat.result.p50_ns,
                p99_ns: nat.result.p99_ns,
            },
        ));
    }
    KvPoint { nodes: n, requests, read_xor, runs }
}

fn write_bench_native(
    scale: Scale,
    apps: &[AppPoint],
    kv: &[KvPoint],
    commit: &str,
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"native_substrate\",\n");
    let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"commit\": \"{commit}\",");
    let _ = writeln!(s, "  \"host_cpus\": {},", host_cpus());
    let _ = writeln!(s, "  \"scale\": \"{scale:?}\",");
    s.push_str("  \"backend\": \"native\",\n");
    s.push_str(
        "  \"note\": \"applications on the native OS-thread substrate (real threads, \
         process-shared segment, wall-clock timeouts). every point's deterministic result \
         (checksums, likelihoods, read XOR, section update and request counts) was asserted \
         equal to a DES run at the same configuration before this file was written. times are \
         host wall seconds and vary with the machine; they are recorded for trajectory, \
         not fingerprinted\",\n",
    );
    s.push_str("  \"strategy_comparison\": [\n");
    for (i, p) in apps.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"app\": \"{}\",", p.app);
        let _ = writeln!(s, "      \"nodes\": {},", p.nodes);
        let _ = writeln!(s, "      \"result\": \"{}\",", p.result);
        for (j, (name, r)) in p.runs.iter().enumerate() {
            let sep = if j + 1 == p.runs.len() { "" } else { "," };
            let _ = writeln!(s, "      \"{name}\": {{\"wall_s\": {:.6}}}{sep}", r.wall_s);
        }
        s.push_str(if i + 1 == apps.len() { "    }\n" } else { "    },\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"kv_sweep\": [\n");
    for (i, p) in kv.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"nodes\": {},", p.nodes);
        let _ = writeln!(s, "      \"requests\": {},", p.requests);
        let _ = writeln!(s, "      \"read_xor\": \"{:#018x}\",", p.read_xor);
        for (j, (name, r)) in p.runs.iter().enumerate() {
            let sep = if j + 1 == p.runs.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "      \"{name}\": {{\"wall_s\": {:.6}, \"throughput_rps\": {:.1}, \
                 \"p50_ns\": {}, \"p99_ns\": {}}}{sep}",
                r.wall_s, r.throughput_rps, r.p50_ns, r.p99_ns
            );
        }
        s.push_str(if i + 1 == kv.len() { "    }\n" } else { "    },\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write("BENCH_native.json", s)
}

fn main() {
    let commit = tree_stamp();
    // Wall-clock throughput at Tiny problem sizes: the point is the
    // substrate comparison, not problem-size scaling (the DES artifacts
    // own that axis).
    let scale = Scale::Tiny;
    let nodes = native_nodes();

    let mut apps = Vec::new();
    let mut kv = Vec::new();
    for &n in &nodes {
        println!("native point: {n} nodes (BH, Ilink, KV × 3 strategies, DES-gated)...");
        apps.push(bh_point(n, scale));
        apps.push(ilink_point(n, scale));
        kv.push(kv_point(n, scale));
    }

    for p in &apps {
        print!("{:<11} n={:<3} {}  ", p.app, p.nodes, p.result);
        for (name, r) in &p.runs {
            print!(" {name}={:.1}ms", r.wall_s * 1e3);
        }
        println!();
    }
    for p in &kv {
        print!("kv          n={:<3} requests={}  ", p.nodes, p.requests);
        for (name, r) in &p.runs {
            print!(" {name}={:.0}rps", r.throughput_rps);
        }
        println!();
    }

    write_bench_native(scale, &apps, &kv, &commit).expect("writing BENCH_native.json");
    println!("wrote BENCH_native.json (all points matched their DES twin)");
}
