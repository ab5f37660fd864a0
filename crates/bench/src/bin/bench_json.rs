//! Emit the benchmark-trajectory artifacts:
//!
//! * `BENCH_diff.json` — diff-engine micro-benchmarks (chunked vs
//!   byte-loop baseline, fused vs sequential apply);
//! * `BENCH_mmu.json` — software-MMU access-path micro-benchmarks: the
//!   locked page walk (TLB off) vs the TLB hit path vs the page-guard
//!   bulk path, in host ns per shared-memory access;
//! * `BENCH_table1.json` — a Table-1-shaped Barnes-Hut run with simulated
//!   times, host wall time, and the host data-plane counters.
//!
//! Run with `cargo run --release -p repseq-bench --bin bench_json` from the
//! repository root; the files are written to the current directory. The
//! checked-in copies record the trajectory at commit time — refresh them
//! whenever the data plane changes (see DESIGN.md §Performance and
//! EXPERIMENTS.md for the methodology).
//!
//! `REPSEQ_BENCH_SCALE=tiny|default` and `REPSEQ_BENCH_NODES=<n>` size the
//! table run (defaults: tiny, 32 — the paper's cluster size; CI's
//! bench-smoke job overrides nodes down for speed). Timing is hand-rolled
//! (`std::time::Instant`, median of 15 samples) because binaries cannot
//! see dev-dependencies like the criterion harness.
//!
//! The harness gates, not just records: it asserts the twin pool absorbs
//! ≥90% of twin allocations, that the guard path is ≥5x and the TLB hit
//! path ≥2x faster than the locked baseline, that the TLB changes
//! nothing about the simulation (identical virtual time, messages, bytes
//! with the TLB on and off), and that RSE beats MasterOnly on KV
//! throughput at the highest skew.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use repseq_apps::barnes_hut::{BhConfig, BhResult};
use repseq_apps::kv::KvResult;
use repseq_bench::{
    bh_config, host_cpus, run_barnes, run_barnes_report, run_kv, tree_stamp, RunOutcome, Scale,
};
use repseq_core::SeqMode;
use repseq_dsm::{Cluster, ClusterConfig, Diff, DsmNode, ShArray};
use repseq_sim::Stopped;
use repseq_stats::{host, Stats};

const PAGE: usize = 4096;
const SAMPLES: usize = 15;

/// Schema of every BENCH_*.json artifact this harness writes. Bump when a
/// field changes meaning, so trajectory tooling can tell formats apart.
/// v3: the `host_data_plane` blocks report the scratch-arena counters.
/// Additive, not version-bumping: every artifact records `host_cpus`, so
/// wall-clock numbers are legible as single-core or parallel runs.
const SCHEMA_VERSION: u32 = 3;

/// `BENCH_host.json` alone is at v6: one row per cluster size for the one
/// event engine, with `reactor_runs` beside `handoff_switches` (v5 also had
/// `sprint_pops`, a counter of the sharded event store; v4 ran the
/// protocol handlers as threads; v3 had serial / duty-handoff /
/// window-parallel columns — their last numbers are in DESIGN.md §8).
/// Still v6 on the coroutine engine (PR 17): same fields, same counts —
/// what a `handoff_switch` costs changed, not what it counts.
const HOST_SCHEMA_VERSION: u32 = 6;

/// Execute independent sweep points on scoped host worker threads,
/// returning results in input order regardless of completion order.
/// `workers == 1` runs the points inline. Points must be genuinely
/// independent: simulations never share state (virtual results are
/// host-invariant by construction — the pins prove it), but points that
/// *time the host wall clock* contend
/// for cores when co-scheduled, so callers keep those at `workers == 1`
/// or skip their throughput gates.
fn sweep_points<I: Sync, T: Send>(
    items: &[I],
    workers: usize,
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let v = f(&items[i]);
                slots.lock()[i] = Some(v);
            });
        }
    });
    let mut filled = slots.lock();
    (0..items.len()).map(|i| filled[i].take().expect("sweep point completed")).collect()
}

/// Median ns/iteration of `f`, auto-calibrated so each sample runs ≥2 ms.
fn bench_ns(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_nanos() >= 2_000_000 {
            break;
        }
        iters *= 2;
    }
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[SAMPLES / 2]
}

struct Case {
    name: &'static str,
    baseline_ns: f64,
    chunked_ns: f64,
}

fn diff_cases() -> Vec<Case> {
    let twin = vec![0u8; PAGE];
    let mut sparse = twin.clone();
    for i in (0..PAGE).step_by(97) {
        sparse[i] = 1;
    }
    let mut dense = twin.clone();
    for (i, b) in dense.iter_mut().enumerate() {
        *b = (i % 251) as u8 + 1;
    }
    let clean = twin.clone();
    let mut out = Vec::new();
    for (name, page) in
        [("create_sparse", &sparse), ("create_dense", &dense), ("create_clean", &clean)]
    {
        out.push(Case {
            name,
            baseline_ns: bench_ns(|| {
                std::hint::black_box(Diff::create_scalar(&twin, page));
            }),
            chunked_ns: bench_ns(|| {
                std::hint::black_box(Diff::create(&twin, page));
            }),
        });
    }
    // Fused vs sequential apply of 8-diff chains. "Overlap" is the Ilink
    // fault shape — consecutive intervals rewrote the whole page, so every
    // earlier diff is fully shadowed and fused apply copies each byte
    // once instead of eight times. "Scattered" is the worst case for the
    // bookkeeping: small disjoint runs where sequential apply is already
    // one cheap word move per run.
    for (name, chain) in [
        ("apply_8_chain_overlap", overlap_chain(&twin)),
        ("apply_8_chain_scattered", scattered_chain(&twin)),
    ] {
        let mut scratch = twin.clone();
        out.push(Case {
            name,
            baseline_ns: bench_ns(|| {
                scratch.copy_from_slice(&twin);
                for d in &chain {
                    d.apply(&mut scratch).unwrap();
                }
                std::hint::black_box(&scratch);
            }),
            chunked_ns: bench_ns(|| {
                scratch.copy_from_slice(&twin);
                Diff::apply_fused(&chain, &mut scratch).unwrap();
                std::hint::black_box(&scratch);
            }),
        });
    }
    out
}

/// Eight diffs that each rewrite the entire page (dense iterative
/// updates, the Ilink shape).
fn overlap_chain(twin: &[u8]) -> Vec<Diff> {
    let mut chain = Vec::new();
    let mut cur = twin.to_vec();
    for k in 0..8u8 {
        let mut next = cur.clone();
        for b in &mut next {
            *b = b.wrapping_add(2 * k + 1); // odd step: every byte changes
        }
        chain.push(Diff::create(&cur, &next));
        cur = next;
    }
    chain
}

/// Eight diffs with small runs scattered at different offsets (unrelated
/// sparse writers).
fn scattered_chain(twin: &[u8]) -> Vec<Diff> {
    let mut chain = Vec::new();
    let mut cur = twin.to_vec();
    for k in 0..8u8 {
        let mut next = cur.clone();
        for i in ((k as usize * 13)..next.len()).step_by(97) {
            next[i] = next[i].wrapping_add(k + 1);
        }
        chain.push(Diff::create(&cur, &next));
        cur = next;
    }
    chain
}

fn write_bench_diff(cases: &[Case], commit: &str) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"diff_engine\",\n");
    let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"commit\": \"{commit}\",");
    let _ = writeln!(s, "  \"host_cpus\": {},", host_cpus());
    let _ = writeln!(s, "  \"page_size\": {PAGE},");
    s.push_str("  \"unit\": \"ns_per_op_median\",\n");
    s.push_str(
        "  \"note\": \"baseline = byte-loop create (or sequential multi-apply); chunked = u64-chunked create (or fused apply)\",\n",
    );
    s.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"baseline_ns\": {:.1}, \"chunked_ns\": {:.1}, \"speedup\": {:.2}}}{}",
            c.name,
            c.baseline_ns,
            c.chunked_ns,
            c.baseline_ns / c.chunked_ns,
            if i + 1 < cases.len() { "," } else { "" },
        );
    }
    s.push_str("  ]\n}\n");
    std::fs::write("BENCH_diff.json", s)
}

// ---------------------------------------------------------------
// Software-MMU access-path micro-benchmarks
// ---------------------------------------------------------------

/// ns per access for the four access paths, measured inside a 1-node
/// cluster (every page warm, so no faults or messages — pure MMU cost).
#[derive(Debug, Clone, Copy)]
struct MmuNumbers {
    elem_read_ns: f64,
    elem_write_ns: f64,
    guard_read_ns: f64,
    guard_write_ns: f64,
}

/// Measure element and guard access on a warm 16-page array. `tlb` off
/// gives the locked page-walk baseline; on gives the TLB-hit path.
fn mmu_case(tlb: bool) -> MmuNumbers {
    let stats = Stats::new(1);
    let mut ccfg = ClusterConfig::paper(1);
    ccfg.dsm.tlb_enabled = tlb;
    let mut cl = Cluster::new(ccfg, stats);
    let len = 16 * PAGE / 8;
    let arr: ShArray<u64> = cl.alloc_array_page_aligned(len);
    let out = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let app = move |node: DsmNode| -> Result<(), Stopped> {
        // Warm every page: one write fault each, pages stay writable.
        arr.with_slices_mut(&node, 0..len, |run| {
            for j in 0..run.len() {
                run.set(j, j as u64);
            }
            Ok(())
        })?;
        let mut i = 0usize;
        let elem_read_ns = bench_ns(|| {
            i = (i + 129) % len;
            std::hint::black_box(arr.get(&node, i).unwrap());
        });
        let mut i = 0usize;
        let elem_write_ns = bench_ns(|| {
            i = (i + 129) % len;
            arr.set(&node, i, i as u64 ^ 0x5A).unwrap();
        });
        let guard_read_ns = bench_ns(|| {
            let mut s = 0u64;
            arr.with_slices(&node, 0..len, |run| {
                for j in 0..run.len() {
                    s = s.wrapping_add(run.get(j));
                }
                Ok(())
            })
            .unwrap();
            std::hint::black_box(s);
        }) / len as f64;
        let guard_write_ns = bench_ns(|| {
            arr.with_slices_mut(&node, 0..len, |run| {
                for j in 0..run.len() {
                    run.set(j, j as u64 ^ 0xA5);
                }
                Ok(())
            })
            .unwrap();
        }) / len as f64;
        *out2.lock() =
            Some(MmuNumbers { elem_read_ns, elem_write_ns, guard_read_ns, guard_write_ns });
        Ok(())
    };
    #[allow(clippy::type_complexity)]
    let apps: Vec<Box<dyn FnOnce(DsmNode) -> Result<(), Stopped> + Send>> = vec![Box::new(app)];
    cl.launch(apps).expect("mmu bench run failed");
    let nums = out.lock().take().expect("mmu bench produced no numbers");
    nums
}

fn write_bench_mmu(off: &MmuNumbers, on: &MmuNumbers, commit: &str) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"software_mmu\",\n");
    let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"commit\": \"{commit}\",");
    let _ = writeln!(s, "  \"host_cpus\": {},", host_cpus());
    let _ = writeln!(s, "  \"page_size\": {PAGE},");
    s.push_str("  \"unit\": \"ns_per_access_median\",\n");
    s.push_str(
        "  \"note\": \"warm 16-page u64 array on a 1-node cluster; locked_baseline = TLB disabled (mutex + page walk per access); tlb_hit = per-element fast path; guard = with_slices bulk path, amortized per element\",\n",
    );
    let _ = writeln!(
        s,
        "  \"locked_baseline\": {{\"read_ns\": {:.1}, \"write_ns\": {:.1}}},",
        off.elem_read_ns, off.elem_write_ns
    );
    let _ = writeln!(
        s,
        "  \"tlb_hit\": {{\"read_ns\": {:.1}, \"write_ns\": {:.1}}},",
        on.elem_read_ns, on.elem_write_ns
    );
    let _ = writeln!(
        s,
        "  \"guard\": {{\"read_ns\": {:.2}, \"write_ns\": {:.2}}},",
        on.guard_read_ns, on.guard_write_ns
    );
    let _ = writeln!(s, "  \"speedup_tlb_read\": {:.2},", off.elem_read_ns / on.elem_read_ns);
    let _ = writeln!(s, "  \"speedup_tlb_write\": {:.2},", off.elem_write_ns / on.elem_write_ns);
    let _ = writeln!(s, "  \"speedup_guard_read\": {:.2},", off.elem_read_ns / on.guard_read_ns);
    let _ = writeln!(s, "  \"speedup_guard_write\": {:.2}", off.elem_write_ns / on.guard_write_ns);
    s.push_str("}\n");
    std::fs::write("BENCH_mmu.json", s)
}

#[allow(clippy::too_many_arguments)]
fn write_bench_table1(
    scale: Scale,
    n: usize,
    seq: &RunOutcome<BhResult>,
    orig: &RunOutcome<BhResult>,
    opt: &RunOutcome<BhResult>,
    host: &host::HostCounters,
    host_wall_s: f64,
    commit: &str,
) -> std::io::Result<()> {
    let t = |o: &RunOutcome<BhResult>| o.snap.total_time.as_secs_f64();
    let hit_rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    };
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"table1_barnes_hut\",\n");
    let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"commit\": \"{commit}\",");
    let _ = writeln!(s, "  \"host_cpus\": {},", host_cpus());
    let _ = writeln!(s, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(s, "  \"nodes\": {n},");
    let _ = writeln!(s, "  \"host_wall_s\": {host_wall_s:.3},");
    s.push_str("  \"simulated\": {\n");
    let _ = writeln!(s, "    \"sequential_time_s\": {:.6},", t(seq));
    let _ = writeln!(s, "    \"original_time_s\": {:.6},", t(orig));
    let _ = writeln!(s, "    \"optimized_time_s\": {:.6},", t(opt));
    let _ = writeln!(s, "    \"original_speedup\": {:.3},", t(seq) / t(orig));
    let _ = writeln!(s, "    \"optimized_speedup\": {:.3}", t(seq) / t(opt));
    s.push_str("  },\n");
    s.push_str("  \"tlb_invariance\": \"verified: identical virtual time, messages and bytes with the TLB on and off\",\n");
    s.push_str("  \"host_data_plane\": {\n");
    let _ = writeln!(s, "    \"diff_create_calls\": {},", host.diff_create_calls);
    let _ = writeln!(s, "    \"diff_create_ns\": {},", host.diff_create_ns);
    let _ = writeln!(s, "    \"diff_create_bytes_scanned\": {},", host.diff_create_bytes);
    let _ = writeln!(s, "    \"diff_apply_calls\": {},", host.diff_apply_calls);
    let _ = writeln!(s, "    \"diff_apply_ns\": {},", host.diff_apply_ns);
    let _ = writeln!(s, "    \"diff_apply_bytes_copied\": {},", host.diff_apply_bytes);
    let _ = writeln!(s, "    \"twin_pool_hits\": {},", host.twin_pool_hits);
    let _ = writeln!(s, "    \"twin_pool_misses\": {},", host.twin_pool_misses);
    let _ = writeln!(
        s,
        "    \"twin_pool_hit_rate\": {:.4},",
        hit_rate(host.twin_pool_hits, host.twin_pool_misses)
    );
    let _ = writeln!(s, "    \"scratch_pool_hits\": {},", host.scratch_pool_hits);
    let _ = writeln!(s, "    \"scratch_pool_misses\": {},", host.scratch_pool_misses);
    let _ = writeln!(
        s,
        "    \"scratch_pool_hit_rate\": {:.4},",
        hit_rate(host.scratch_pool_hits, host.scratch_pool_misses)
    );
    let _ = writeln!(s, "    \"tlb_hits\": {},", host.tlb_hits);
    let _ = writeln!(s, "    \"tlb_misses\": {},", host.tlb_misses);
    let _ = writeln!(s, "    \"tlb_hit_rate\": {:.4}", hit_rate(host.tlb_hits, host.tlb_misses));
    s.push_str("  }\n}\n");
    std::fs::write("BENCH_table1.json", s)
}

/// The three-way sequential-section strategy comparison (§2, §6.1.2):
/// master-only, master-plus-broadcast (MasterPush) and replicated (RSE) on
/// the same contended Barnes-Hut run. MasterPush removes the demand-fetch
/// request storm but still serializes the whole tree through the master's
/// transmit link, so RSE must stay ahead of it once the tree is big enough
/// to be worth contending over — the run is pinned at 8192 bodies and at
/// least 16 nodes regardless of the (smoke-sized) table-run scale.
#[allow(clippy::too_many_arguments)]
fn write_bench_modes(
    n: usize,
    bodies: usize,
    orig: &RunOutcome<BhResult>,
    push: &RunOutcome<BhResult>,
    opt: &RunOutcome<BhResult>,
    host: &host::HostCounters,
    host_wall_s: f64,
    commit: &str,
) -> std::io::Result<()> {
    let t = |o: &RunOutcome<BhResult>| o.snap.total_time.as_secs_f64();
    let hit_rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    };
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"seq_exec_modes_barnes_hut\",\n");
    let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"commit\": \"{commit}\",");
    let _ = writeln!(s, "  \"host_cpus\": {},", host_cpus());
    let _ = writeln!(s, "  \"bodies\": {bodies},");
    let _ = writeln!(s, "  \"nodes\": {n},");
    let _ = writeln!(s, "  \"host_wall_s\": {host_wall_s:.3},");
    s.push_str(
        "  \"note\": \"same workload and cluster for all three strategies; times are simulated seconds. master_push broadcasts the section's written pages over the master's link (contention moves from request storm to transmit serialization); rse replicates the section so no page of it ever crosses the wire\",\n",
    );
    s.push_str("  \"simulated\": {\n");
    let _ = writeln!(s, "    \"master_only_time_s\": {:.6},", t(orig));
    let _ = writeln!(s, "    \"master_push_time_s\": {:.6},", t(push));
    let _ = writeln!(s, "    \"rse_time_s\": {:.6},", t(opt));
    let _ = writeln!(s, "    \"push_vs_master_only\": {:.3},", t(orig) / t(push));
    let _ = writeln!(s, "    \"rse_vs_master_only\": {:.3},", t(orig) / t(opt));
    let _ = writeln!(s, "    \"rse_vs_push\": {:.3}", t(push) / t(opt));
    s.push_str("  },\n");
    s.push_str("  \"host_data_plane\": {\n");
    let _ = writeln!(s, "    \"diff_create_calls\": {},", host.diff_create_calls);
    let _ = writeln!(s, "    \"diff_create_ns\": {},", host.diff_create_ns);
    let _ = writeln!(s, "    \"diff_apply_calls\": {},", host.diff_apply_calls);
    let _ = writeln!(s, "    \"diff_apply_ns\": {},", host.diff_apply_ns);
    let _ = writeln!(
        s,
        "    \"twin_pool_hit_rate\": {:.4},",
        hit_rate(host.twin_pool_hits, host.twin_pool_misses)
    );
    let _ = writeln!(
        s,
        "    \"scratch_pool_hit_rate\": {:.4},",
        hit_rate(host.scratch_pool_hits, host.scratch_pool_misses)
    );
    let _ = writeln!(s, "    \"tlb_hit_rate\": {:.4}", hit_rate(host.tlb_hits, host.tlb_misses));
    s.push_str("  }\n}\n");
    std::fs::write("BENCH_modes.json", s)
}

// ---------------------------------------------------------------
// KV serving sweep: open-loop zipfian traffic across skews
// ---------------------------------------------------------------

/// One measured point of the KV sweep: all three strategies on the same
/// trace at one (nodes, skew) coordinate.
struct KvPoint {
    nodes: usize,
    theta: f64,
    n_requests: usize,
    orig: RunOutcome<KvResult>,
    push: RunOutcome<KvResult>,
    rse: RunOutcome<KvResult>,
}

/// The serving-workload artifact: per-strategy throughput and tail
/// latency across the skew grid, at every node count. Request latencies
/// are open-loop (queueing delay included) over *virtual* time, so the
/// tails measure protocol contention, not host scheduling. The
/// fingerprint gate has already run by the time this is written.
fn write_bench_kv(points: &[KvPoint], commit: &str) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"kv_serving_zipfian\",\n");
    let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"commit\": \"{commit}\",");
    let _ = writeln!(s, "  \"host_cpus\": {},", host_cpus());
    s.push_str(
        "  \"note\": \"open-loop zipfian KV serving: reads fan out cyclically across nodes, writes run as per-shard named sequential sections. latencies are virtual nanoseconds from request arrival to completion (queueing included); identical request traces and final-table fingerprints across strategies are asserted before this file is written\",\n",
    );
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let one = |tag: &str, o: &RunOutcome<KvResult>| {
            let mut t = String::new();
            let _ = writeln!(t, "      \"{tag}\": {{");
            let _ = writeln!(t, "        \"throughput_rps\": {:.1},", o.result.throughput_rps);
            let _ = writeln!(t, "        \"p50_ns\": {},", o.result.p50_ns);
            let _ = writeln!(t, "        \"p99_ns\": {},", o.result.p99_ns);
            let _ = writeln!(t, "        \"p999_ns\": {},", o.result.p999_ns);
            let _ = writeln!(t, "        \"time_s\": {:.6}", o.result.total.as_secs_f64());
            t.push_str("      }");
            t
        };
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"nodes\": {},", p.nodes);
        let _ = writeln!(s, "      \"zipf_theta\": {},", p.theta);
        let _ = writeln!(s, "      \"requests\": {},", p.n_requests);
        let _ = writeln!(s, "      \"fingerprint\": \"{:#018x}\",", p.orig.result.fingerprint);
        s.push_str(&one("master_only", &p.orig));
        s.push_str(",\n");
        s.push_str(&one("master_push", &p.push));
        s.push_str(",\n");
        s.push_str(&one("rse", &p.rse));
        s.push_str(",\n");
        let _ = writeln!(
            s,
            "      \"rse_vs_master_only_throughput\": {:.3}",
            p.rse.result.throughput_rps / p.orig.result.throughput_rps
        );
        s.push_str(if i + 1 == points.len() { "    }\n" } else { "    },\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write("BENCH_kv.json", s)
}

// ---------------------------------------------------------------
// Host-execution bench: what the event engine costs per event
// ---------------------------------------------------------------

/// One measured host execution of the reference workload.
struct HostRun {
    nodes: usize,
    wall_s: f64,
    events: u64,
    exec: repseq_sim::ExecCounters,
}

impl HostRun {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }
}

/// Run Barnes-Hut (RSE) at `n` nodes and time the host wall clock.
fn host_run(n: usize, cfg: &BhConfig) -> HostRun {
    let wall = Instant::now();
    let (_, report) = run_barnes_report(SeqMode::Replicated, n, cfg.clone(), true);
    let wall_s = wall.elapsed().as_secs_f64();
    HostRun { nodes: n, wall_s, events: report.events_processed, exec: report.exec }
}

fn write_bench_host(
    scale: Scale,
    bodies: usize,
    runs: &[HostRun],
    commit: &str,
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"event_engine\",\n");
    let _ = writeln!(s, "  \"schema_version\": {HOST_SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"commit\": \"{commit}\",");
    let _ = writeln!(s, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(s, "  \"bodies\": {bodies},");
    let _ = writeln!(s, "  \"host_cpus\": {},", host_cpus());
    s.push_str(
        "  \"note\": \"Barnes-Hut (RSE) per cluster size under the one event engine (duty handoff). events_per_sec = kernel events / host wall seconds; handoff_switches = resumes of another coroutine process, one user-space stack switch each (a host thread switch each until PR 17, when processes were OS threads; same count); reactor_runs = resumes of a protocol handler, served inline on the duty holder's stack with no switch (v4 and earlier ran handlers as threads and counted those under handoff_switches); inline_events = events that resumed nobody. The whole simulation is one OS thread, so pinning changes nothing and host_cpus only describes the host\",\n",
    );
    s.push_str("  \"clusters\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"nodes\": {}, \"host_wall_s\": {:.3}, \"events\": {}, \"events_per_sec\": {:.0}, \"handoff_switches\": {}, \"reactor_runs\": {}, \"inline_events\": {}}}{}",
            r.nodes,
            r.wall_s,
            r.events,
            r.events_per_sec(),
            r.exec.handoff_switches,
            r.exec.reactor_runs,
            r.exec.inline_events,
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    std::fs::write("BENCH_host.json", s)
}

fn main() {
    let commit = tree_stamp();
    println!("diff-engine micro-benchmarks ({SAMPLES}-sample medians)...");
    let cases = diff_cases();
    for c in &cases {
        println!(
            "  {:<20} baseline {:>9.1} ns   chunked {:>9.1} ns   speedup {:>5.2}x",
            c.name,
            c.baseline_ns,
            c.chunked_ns,
            c.baseline_ns / c.chunked_ns
        );
    }
    write_bench_diff(&cases, &commit).expect("writing BENCH_diff.json");
    println!("wrote BENCH_diff.json");

    println!("software-MMU access-path micro-benchmarks...");
    let mmu_off = mmu_case(false);
    let mmu_on = mmu_case(true);
    println!(
        "  locked baseline  read {:>7.1} ns   write {:>7.1} ns",
        mmu_off.elem_read_ns, mmu_off.elem_write_ns
    );
    println!(
        "  TLB hit          read {:>7.1} ns   write {:>7.1} ns   ({:.2}x / {:.2}x)",
        mmu_on.elem_read_ns,
        mmu_on.elem_write_ns,
        mmu_off.elem_read_ns / mmu_on.elem_read_ns,
        mmu_off.elem_write_ns / mmu_on.elem_write_ns
    );
    println!(
        "  page guard       read {:>7.2} ns   write {:>7.2} ns   ({:.2}x / {:.2}x)",
        mmu_on.guard_read_ns,
        mmu_on.guard_write_ns,
        mmu_off.elem_read_ns / mmu_on.guard_read_ns,
        mmu_off.elem_write_ns / mmu_on.guard_write_ns
    );
    assert!(
        mmu_off.elem_read_ns >= 2.0 * mmu_on.elem_read_ns
            && mmu_off.elem_write_ns >= 2.0 * mmu_on.elem_write_ns,
        "TLB hit path must be >=2x faster than the locked baseline \
         (read {:.1} vs {:.1} ns, write {:.1} vs {:.1} ns)",
        mmu_on.elem_read_ns,
        mmu_off.elem_read_ns,
        mmu_on.elem_write_ns,
        mmu_off.elem_write_ns
    );
    assert!(
        mmu_off.elem_read_ns >= 5.0 * mmu_on.guard_read_ns
            && mmu_off.elem_write_ns >= 5.0 * mmu_on.guard_write_ns,
        "guard path must be >=5x faster than the locked baseline \
         (read {:.2} vs {:.1} ns, write {:.2} vs {:.1} ns)",
        mmu_on.guard_read_ns,
        mmu_off.elem_read_ns,
        mmu_on.guard_write_ns,
        mmu_off.elem_write_ns
    );
    write_bench_mmu(&mmu_off, &mmu_on, &commit).expect("writing BENCH_mmu.json");
    println!("wrote BENCH_mmu.json");

    let scale = match std::env::var("REPSEQ_BENCH_SCALE").as_deref() {
        Ok("default") => Scale::Default,
        Ok("full") => Scale::Full,
        _ => Scale::Tiny,
    };
    let n: usize =
        std::env::var("REPSEQ_BENCH_NODES").ok().and_then(|s| s.parse().ok()).unwrap_or(32);
    let cfg = bh_config(scale);
    println!(
        "Barnes-Hut table run: {} bodies, {} timesteps, {n} nodes ({scale:?} scale)...",
        cfg.n_bodies, cfg.timesteps
    );
    host::reset();
    let wall = Instant::now();
    let seq = run_barnes(SeqMode::MasterOnly, 1, cfg.clone());
    let orig = run_barnes(SeqMode::MasterOnly, n, cfg.clone());
    let opt = run_barnes(SeqMode::Replicated, n, cfg.clone());
    let host_wall_s = wall.elapsed().as_secs_f64();
    assert_eq!(seq.result, orig.result, "systems must agree on the physics");
    assert_eq!(seq.result, opt.result, "systems must agree on the physics");
    let counters = host::snapshot();
    let twin_total = counters.twin_pool_hits + counters.twin_pool_misses;
    assert!(
        twin_total == 0 || counters.twin_pool_hits as f64 >= 0.9 * twin_total as f64,
        "twin pool must absorb >=90% of twin allocations ({} hits / {} total)",
        counters.twin_pool_hits,
        twin_total
    );
    let tlb_total = counters.tlb_hits + counters.tlb_misses;
    assert!(
        tlb_total == 0 || counters.tlb_hits as f64 >= 0.95 * tlb_total as f64,
        "software TLB must serve >=95% of accesses without a page walk \
         ({} hits / {} total): set-associativity, per-page generations and \
         guard amortization should leave only protocol-mandatory faults",
        counters.tlb_hits,
        tlb_total
    );
    repseq_bench::print_host_counters("table run", &counters);

    // The TLB must be invisible to the simulation: re-run the optimized
    // system with the fast path disabled and require identical virtual
    // results.
    println!("TLB invariance check (optimized system, fast path disabled)...");
    let opt_no_tlb = repseq_bench::run_barnes_config(SeqMode::Replicated, n, cfg, false);
    assert_eq!(opt.result, opt_no_tlb.result, "TLB must not change the physics");
    assert_eq!(
        opt.snap.total_time, opt_no_tlb.snap.total_time,
        "TLB must not change simulated time"
    );
    let (a, b) = (opt.snap.total_agg_with_startup(), opt_no_tlb.snap.total_agg_with_startup());
    assert_eq!(a.messages, b.messages, "TLB must not change message counts");
    assert_eq!(a.bytes, b.bytes, "TLB must not change byte counts");
    println!("  ok: identical virtual time, messages, bytes");

    write_bench_table1(scale, n, &seq, &orig, &opt, &counters, host_wall_s, &commit)
        .expect("writing BENCH_table1.json");
    println!("wrote BENCH_table1.json");

    // Host-execution trajectory: the same workload, growing the cluster
    // past the paper's 32 nodes. Each point times the host wall clock, so
    // the points run one after another.
    let host_nodes: Vec<usize> = std::env::var("REPSEQ_BENCH_HOST_NODES")
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .unwrap_or_default();
    let host_nodes = if host_nodes.is_empty() { vec![32, 64, 256] } else { host_nodes };
    let host_cfg = bh_config(scale);
    println!("host execution trajectory: Barnes-Hut (RSE) at {host_nodes:?} nodes...");
    let host_runs: Vec<HostRun> = host_nodes.iter().map(|&hn| host_run(hn, &host_cfg)).collect();
    for r in &host_runs {
        println!(
            "  {:>3} nodes  {:>8.3}s  {:>10.0} ev/s   ({} events: {} switches, {} reactor runs, {} inline)",
            r.nodes,
            r.wall_s,
            r.events_per_sec(),
            r.events,
            r.exec.handoff_switches,
            r.exec.reactor_runs,
            r.exec.inline_events
        );
    }
    write_bench_host(scale, host_cfg.n_bodies, &host_runs, &commit)
        .expect("writing BENCH_host.json");
    println!("wrote BENCH_host.json");

    // Strategy comparison on a tree big enough to contend over: the tiny
    // table config would let the broadcast win on sheer smallness.
    let modes_n = n.max(16);
    let modes_cfg = repseq_apps::barnes_hut::BhConfig::scaled(8_192);
    let bodies = modes_cfg.n_bodies;
    println!(
        "strategy comparison: {bodies} bodies, {} timesteps, {modes_n} nodes...",
        modes_cfg.timesteps
    );
    let modes_before = host::snapshot();
    let modes_wall = Instant::now();
    let m_orig = run_barnes(SeqMode::MasterOnly, modes_n, modes_cfg.clone());
    let m_push = run_barnes(SeqMode::MasterPush, modes_n, modes_cfg.clone());
    let m_opt = run_barnes(SeqMode::Replicated, modes_n, modes_cfg);
    let modes_wall_s = modes_wall.elapsed().as_secs_f64();
    let modes_host = host::snapshot().since(&modes_before);
    assert_eq!(m_orig.result, m_push.result, "strategies must agree on the physics");
    assert_eq!(m_orig.result, m_opt.result, "strategies must agree on the physics");
    let t = |o: &RunOutcome<BhResult>| o.snap.total_time.as_secs_f64();
    println!(
        "  master_only {:.6}s   master_push {:.6}s   rse {:.6}s",
        t(&m_orig),
        t(&m_push),
        t(&m_opt)
    );
    assert!(
        t(&m_opt) < t(&m_push),
        "RSE must beat MasterPush on the contended tree rebuild at {modes_n} nodes \
         (rse {:.6}s vs push {:.6}s): the broadcast still serializes the whole \
         tree through the master's transmit link (§2)",
        t(&m_opt),
        t(&m_push)
    );
    write_bench_modes(
        modes_n,
        bodies,
        &m_orig,
        &m_push,
        &m_opt,
        &modes_host,
        modes_wall_s,
        &commit,
    )
    .expect("writing BENCH_modes.json");
    println!("wrote BENCH_modes.json");

    // KV serving sweep: the open-loop zipfian workload across skews and
    // node counts, all three strategies on the same trace at each point.
    // Two gates before anything is written: every strategy must agree on
    // the final table fingerprint, the served-read XOR, and the request
    // counts at every point (a divergence means a stale page was served);
    // and at the highest skew RSE must beat MasterOnly on throughput —
    // the paper's contention-elimination claim, restated for serving.
    let kv_nodes: Vec<usize> = std::env::var("REPSEQ_BENCH_KV_NODES")
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .unwrap_or_default();
    let kv_nodes = if kv_nodes.is_empty() { vec![32, 64, 256] } else { kv_nodes };
    let skews = [0.2f64, 0.99, 1.2];
    // Record-sized values regardless of smoke scale — like the strategy
    // comparison above, the tiny test config would make the sections too
    // small to be worth contending over. Only the trace length shrinks.
    let kv_base = repseq_apps::kv::KvConfig::scaled(match scale {
        Scale::Tiny => 512,
        Scale::Default => 1024,
        Scale::Full => 4096,
    });
    // The θ×nodes grid points are independent simulations whose recorded
    // metrics are all *virtual* (throughput and latencies over simulated
    // time), so unlike the host trajectory above they can safely share
    // the machine: the sweep fans out on scoped host threads
    // (REPSEQ_BENCH_SWEEP_THREADS, default 2) and the results come back
    // in grid order, so the printed table and BENCH_kv.json are
    // byte-identical however the points were scheduled.
    let kv_workers: usize =
        std::env::var("REPSEQ_BENCH_SWEEP_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(2);
    let coords: Vec<(usize, f64)> =
        kv_nodes.iter().flat_map(|&kn| skews.iter().map(move |&theta| (kn, theta))).collect();
    println!(
        "KV serving sweep: {} points ({:?} nodes x {:?} skew) on {kv_workers} sweep thread(s)...",
        coords.len(),
        kv_nodes,
        skews
    );
    let points: Vec<KvPoint> = sweep_points(&coords, kv_workers, |&(kn, theta)| {
        let cfg = kv_base.clone().with_skew(theta).weak_scaled(kn);
        let n_requests = cfg.n_requests;
        let orig = run_kv(SeqMode::MasterOnly, kn, cfg.clone());
        let push = run_kv(SeqMode::MasterPush, kn, cfg.clone());
        let rse = run_kv(SeqMode::Replicated, kn, cfg);
        for (tag, o) in [("master_push", &push), ("rse", &rse)] {
            assert_eq!(
                (o.result.fingerprint, o.result.read_xor, o.result.reads, o.result.writes),
                (
                    orig.result.fingerprint,
                    orig.result.read_xor,
                    orig.result.reads,
                    orig.result.writes
                ),
                "{tag} diverged from master_only at {kn} nodes, theta {theta}: \
                 a replicated or pushed page served stale data"
            );
        }
        KvPoint { nodes: kn, theta, n_requests, orig, push, rse }
    });
    for p in &points {
        println!(
            "  {} nodes, theta {:<4} ({} requests): master_only {:>9.0} rps (p99 {:>7.2} ms)   \
             master_push {:>9.0} rps   rse {:>9.0} rps (p99 {:>7.2} ms)",
            p.nodes,
            p.theta,
            p.n_requests,
            p.orig.result.throughput_rps,
            p.orig.result.p99_ns as f64 / 1e6,
            p.push.result.throughput_rps,
            p.rse.result.throughput_rps,
            p.rse.result.p99_ns as f64 / 1e6
        );
        // Virtual-time gate, immune to host scheduling: at the highest
        // skew RSE must beat MasterOnly on throughput at every node
        // count — the paper's contention-elimination claim, restated
        // for serving.
        if p.theta == *skews.last().expect("skew grid is non-empty") {
            assert!(
                p.rse.result.throughput_rps >= p.orig.result.throughput_rps,
                "RSE must beat MasterOnly on throughput at theta {} with {} nodes \
                 (rse {:.0} vs master_only {:.0} rps): replicating the hot shard's \
                 write sections is the whole point under skew",
                p.theta,
                p.nodes,
                p.rse.result.throughput_rps,
                p.orig.result.throughput_rps
            );
        }
    }
    write_bench_kv(&points, &commit).expect("writing BENCH_kv.json");
    println!("wrote BENCH_kv.json");
}
