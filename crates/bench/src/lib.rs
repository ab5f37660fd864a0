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
//!
//! Every harness runs its applications through one function, [`run`]. The
//! committed `BENCH_*.json` are built by [`artifacts`] (deterministic:
//! virtual times and counts, no knobs) and by the `bench_native` binary
//! (wall clock), both over the one JSON writer here, [`Json`].

use std::fmt::Write as _;

use repseq_apps::barnes_hut::BhConfig;
use repseq_apps::ilink::IlinkConfig;
use repseq_apps::kv::KvConfig;
use repseq_core::{RunConfig, Runtime, Stopped, Team};
use repseq_sim::Dur;
use repseq_stats::{Section, StatsSnapshot};

pub mod artifacts;

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
/// `taskset -c <cpu>`). `BENCH_native.json`, the one wall-clock artifact,
/// records this so a reader can tell whether its numbers were measured
/// pinned to one core or with the real parallelism the native backend's
/// throughput needs.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The source `BENCH_native.json` was generated from: the short git tree
/// hash of `HEAD`, plus `+dirty` if the working tree differs from it. (A
/// commit hash would be stale by construction — the artifact is written
/// before the commit that carries it exists.) "unknown" outside a git
/// checkout. The deterministic artifacts carry no stamp: they are a pure
/// function of the source, so git history is their provenance.
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

/// Run one application: `setup` allocates and preloads it on a fresh
/// runtime, `body` runs it as the master program (`BarnesHut::run`,
/// `Ilink::run`, `KvStore::run`). Everything else about the run — node
/// count, strategy, substrate, TLB, flow control — is `cfg`'s. On
/// `Backend::Native` the snapshot's *times* are wall-clock and its message
/// counts include wall-clock-timeout resends; the application results are
/// backend-invariant.
pub fn run<A, R>(
    cfg: RunConfig,
    setup: impl FnOnce(&mut Runtime) -> A,
    body: impl FnOnce(&A, &Team) -> Result<R, Stopped> + Send + 'static,
) -> RunOutcome<R>
where
    A: Send + 'static,
    R: Send + 'static,
{
    let mut rt = Runtime::new(cfg);
    let app = setup(&mut rt);
    let stats = rt.stats();
    let (result, _) = rt.run_value(move |team| body(&app, team)).expect("run failed");
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
    println!(
        "softw. TLB:  {:>10} hits   {:>10} misses  ({:.1}% of accesses skip the page walk)",
        h.tlb_hits,
        h.tlb_misses,
        100.0 * hit_rate(h.tlb_hits, h.tlb_misses),
    );
}

/// `hits / (hits + misses)`; 1 when nothing was counted.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 1.0,
        total => hits as f64 / total as f64,
    }
}

/// A JSON value whose rendering is a pure function of the value: object
/// keys keep the order they were given in and every float prints with a
/// stated number of decimals, so an artifact built from deterministic
/// values is deterministic bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Str(String),
    Int(u64),
    /// A finite float and the number of decimals it prints with.
    Fixed(f64, usize),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A `u64` as 16 hex digits (fingerprints, XORs).
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }

    /// The document: two-space indentation, one member per line, a final
    /// newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Str(s) => write_json_str(out, s),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Fixed(v, decimals) => {
                assert!(v.is_finite(), "JSON has no spelling for {v}");
                let _ = write!(out, "{v:.decimals$}");
            }
            Json::Arr(items) => {
                write_members(out, depth, ['[', ']'], items, |out, item| {
                    item.write(out, depth + 1)
                });
            }
            Json::Obj(fields) => {
                write_members(out, depth, ['{', '}'], fields, |out, (key, value)| {
                    write_json_str(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                });
            }
        }
    }
}

fn write_members<T>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    members: &[T],
    mut write: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, member) in members.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        write(out, member);
    }
    if !members.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Write `value` to `file` in the current directory.
pub fn write_artifact(file: &str, value: &Json) {
    std::fs::write(file, value.render()).unwrap_or_else(|e| panic!("writing {file}: {e}"));
    println!("wrote {file}");
}

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn rendering_is_a_pure_function_of_the_value() {
        let doc = Json::Obj(vec![
            ("zeta", Json::str("say \"hi\"\\\n\tbell\u{7}")),
            ("alpha", Json::Int(u64::MAX)),
            ("third", Json::Fixed(1.0 / 3.0, 3)),
            ("whole", Json::Fixed(2.0, 4)),
            ("list", Json::Arr(vec![Json::Fixed(0.2, 2), Json::hex(0xbeef), Json::Arr(vec![])])),
        ]);
        let text = doc.render();
        assert_eq!(
            text,
            r#"{
  "zeta": "say \"hi\"\\\n\tbell\u0007",
  "alpha": 18446744073709551615,
  "third": 0.333,
  "whole": 2.0000,
  "list": [
    0.20,
    "0x000000000000beef",
    []
  ]
}
"#
        );
        assert_eq!(text, doc.render(), "the same value renders to the same bytes");
    }
}
