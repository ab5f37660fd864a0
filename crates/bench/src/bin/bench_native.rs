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
//! and host to host), which makes this the one artifact that carries a
//! tree stamp and `host_cpus`, so a single-core run is legible as such.
//! The node counts are 4 and 8 — small, because every node is an OS
//! thread pair on one host.
//!
//! Run with `cargo run --release -p repseq-bench --bin bench_native`.

use std::time::Instant;

use repseq_apps::barnes_hut::{BarnesHut, BhConfig, BhResult};
use repseq_apps::ilink::{Ilink, IlinkConfig, IlinkResult};
use repseq_apps::kv::{KvConfig, KvResult, KvStore};
use repseq_bench::{host_cpus, run, tree_stamp, write_artifact, Json, RunOutcome};
use repseq_core::{RunConfig, SeqMode};
use repseq_dsm::{Backend, ClusterConfig};

/// Schema of `BENCH_native.json`. Independent of `bench_json`'s DES
/// artifacts — this file records wall-clock measurements.
const SCHEMA_VERSION: u64 = 1;

const NODES: [usize; 2] = [4, 8];

/// The three sequential-section strategies of the comparison, in artifact
/// order.
const MODES: [(&str, SeqMode); 3] = [
    ("master_only", SeqMode::MasterOnly),
    ("master_push", SeqMode::MasterPush),
    ("rse", SeqMode::Replicated),
];

/// One point's native runs, in [`MODES`] order: strategy name, wall
/// seconds, and the result (equal to the DES twin's, or `point` panicked).
type Runs<R> = Vec<(&'static str, f64, R)>;

/// Run `run_app` under every strategy on `n` native nodes, each beside a
/// same-config DES twin, panicking unless the deterministic projection
/// `key` of the two results agrees.
fn point<R, K: PartialEq + std::fmt::Debug>(
    app: &str,
    n: usize,
    run_app: impl Fn(RunConfig) -> RunOutcome<R>,
    key: impl Fn(&R) -> K,
) -> Runs<R> {
    let timed = |(name, mode)| {
        let on = |backend| {
            let mut cluster = ClusterConfig::paper(n);
            cluster.backend = backend;
            run_app(RunConfig { cluster, seq_mode: mode }).result
        };
        let sim = on(Backend::Sim);
        let t0 = Instant::now();
        let nat = on(Backend::Native);
        let wall_s = t0.elapsed().as_secs_f64();
        assert_eq!(key(&sim), key(&nat), "{app}/{name}/n{n}: native result diverged from the DES");
        (name, wall_s, nat)
    };
    MODES.into_iter().map(timed).collect()
}

/// The result a point's rendered summary is taken from.
fn last<R>(runs: &Runs<R>) -> &R {
    &runs.last().expect("MODES is not empty").2
}

/// One (app, nodes) entry of the strategy comparison: per-strategy wall
/// seconds, plus the DES-equal result rendered for provenance.
fn app_point<R>(app: &str, n: usize, result: String, runs: &Runs<R>) -> Json {
    print!("{app:<11} n={n:<3} {result}  ");
    let mut fields = vec![
        ("app", Json::str(app)),
        ("nodes", Json::Int(n as u64)),
        ("result", Json::Str(result)),
    ];
    for &(name, wall_s, _) in runs {
        print!(" {name}={:.1}ms", wall_s * 1e3);
        fields.push((name, Json::Obj(vec![("wall_s", Json::Fixed(wall_s, 6))])));
    }
    println!();
    Json::Obj(fields)
}

/// One entry of the KV sweep. On the native backend the app's clock IS the
/// wall clock, so the result's open-loop throughput and percentiles are
/// already wall-side.
fn kv_point(n: usize, runs: &Runs<KvResult>) -> Json {
    let r = last(runs);
    print!("kv          n={n:<3} requests={}  ", r.reads + r.writes);
    let mut fields = vec![
        ("nodes", Json::Int(n as u64)),
        ("requests", Json::Int(r.reads + r.writes)),
        ("read_xor", Json::hex(r.read_xor)),
    ];
    for (name, wall_s, run) in runs {
        print!(" {name}={:.0}rps", run.throughput_rps);
        fields.push((
            *name,
            Json::Obj(vec![
                ("wall_s", Json::Fixed(*wall_s, 6)),
                ("throughput_rps", Json::Fixed(run.throughput_rps, 1)),
                ("p50_ns", Json::Int(run.p50_ns)),
                ("p99_ns", Json::Int(run.p99_ns)),
            ]),
        ));
    }
    println!();
    Json::Obj(fields)
}

fn main() {
    // Wall-clock throughput at tiny problem sizes: the point is the
    // substrate comparison, not problem-size scaling (the DES artifacts
    // own that axis).
    let (bh_cfg, il_cfg, kv_cfg) = (BhConfig::tiny(), IlinkConfig::tiny(), KvConfig::tiny());

    let mut apps = Vec::new();
    let mut kv = Vec::new();
    for n in NODES {
        let bh = point(
            "barnes_hut",
            n,
            |rc| run(rc, |rt| BarnesHut::setup(rt, bh_cfg.clone()), BarnesHut::run),
            |r: &BhResult| (r.checksum.to_bits(), r.interactions),
        );
        let r = last(&bh);
        let result = format!("checksum={:.6e} interactions={}", r.checksum, r.interactions);
        apps.push(app_point("barnes_hut", n, result, &bh));

        let il = point(
            "ilink",
            n,
            |rc| run(rc, |rt| Ilink::setup(rt, il_cfg.clone()), Ilink::run),
            |r: &IlinkResult| (r.likelihood.to_bits(), r.parallel_updates, r.sequential_updates),
        );
        let r = last(&il);
        let result = format!(
            "likelihood={:.6e} par_updates={} seq_updates={}",
            r.likelihood, r.parallel_updates, r.sequential_updates
        );
        apps.push(app_point("ilink", n, result, &il));

        let runs = point(
            "kv",
            n,
            |rc| run(rc, |rt| KvStore::setup(rt, kv_cfg.clone()), KvStore::run),
            |r: &KvResult| (r.fingerprint, r.trace_hash, r.read_xor, r.reads, r.writes),
        );
        kv.push(kv_point(n, &runs));
    }

    let artifact = Json::Obj(vec![
        ("bench", Json::str("native_substrate")),
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        ("commit", Json::Str(tree_stamp())),
        ("host_cpus", Json::Int(host_cpus() as u64)),
        ("scale", Json::str("Tiny")),
        ("backend", Json::str("native")),
        (
            "note",
            Json::str(
                "applications on the native OS-thread substrate (real threads, \
                 process-shared segment, wall-clock timeouts). every point's deterministic \
                 result (checksums, likelihoods, read XOR, section update and request counts) \
                 was asserted equal to a DES run at the same configuration before this file \
                 was written. times are host wall seconds and vary with the machine; they are \
                 recorded for trajectory, not fingerprinted",
            ),
        ),
        ("strategy_comparison", Json::Arr(apps)),
        ("kv_sweep", Json::Arr(kv)),
    ]);
    write_artifact("BENCH_native.json", &artifact);
}
