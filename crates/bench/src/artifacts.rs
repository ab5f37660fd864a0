//! The six deterministic artifacts, each a function from nothing to a
//! [`Json`] value: every number in them is a virtual time or a count, so
//! the bytes `bench_json` writes are a pure function of the source and
//! `git diff --exit-code` after a run is the freshness check. Host time is
//! `benchmark/`'s business (pinned, repeated, bounded), not theirs.
//!
//! Four are the paper's evaluation — Tables 1–4, the §6.1.2 and §5.4.3/§8
//! ablations, a node-count sweep — at 8 192 bodies, 16 Ilink iterations
//! and 32 nodes, the paper's published value beside each measured one.
//! Each member of an artifact's `tables` is rendered into EXPERIMENTS.md.
//!
//! The functions gate as they build — a value that fails a gate is never
//! returned. Every shape the reproduction claims is a `claim`, whose
//! label is the `shape` cell of the row it is about; beyond those, the
//! systems agree on the physics, the TLB is invisible to the simulation,
//! RSE beats MasterPush on the contended tree and MasterOnly on skewed KV
//! serving, and the twin pool and TLB hit rates (counts, each run's own
//! `Stats::host`) stay above their floors.

use std::fmt::Arguments;

use repseq_apps::barnes_hut::{BarnesHut, BhConfig, BhResult};
use repseq_apps::ilink::{Ilink, IlinkConfig, IlinkResult};
use repseq_apps::kv::{KvConfig, KvResult, KvStore};
use repseq_core::RunConfig;
use repseq_dsm::FlowControl;
use repseq_stats::{Section, StatsSnapshot};

use crate::{hit_rate, run, Json, RunOutcome};

/// A file `bench_json` writes at the repository root and the function that
/// builds what goes in it.
pub type Artifact = (&'static str, fn() -> Json);

/// Every deterministic artifact.
pub const ARTIFACTS: [Artifact; 6] = [
    ("BENCH_table1_2.json", table1_2),
    ("BENCH_table3_4.json", table3_4),
    ("BENCH_ablations.json", ablations),
    ("BENCH_scaling.json", scaling),
    ("BENCH_modes.json", modes),
    ("BENCH_kv.json", kv),
];

/// Bump when a field changes meaning. v4: no host-time fields.
const SCHEMA_VERSION: u64 = 4;

/// The paper's cluster.
const NODES: usize = 32;

/// A cell with no value: a row the paper does not report, a response time
/// nothing was measured for.
const NA: f64 = f64::NAN;

/// The paper's 131 072 bodies, scaled to what keeps the shapes in seconds.
fn bh_config() -> BhConfig {
    BhConfig::scaled(8_192)
}

/// The paper's 180 outer iterations on the CLP input, scaled likewise.
fn ilink_config() -> IlinkConfig {
    IlinkConfig::scaled(16)
}

fn run_bh(rc: RunConfig, cfg: &BhConfig) -> RunOutcome<BhResult> {
    run(rc, |rt| BarnesHut::setup(rt, cfg.clone()), BarnesHut::run)
}

fn run_ilink(rc: RunConfig, cfg: &IlinkConfig) -> RunOutcome<IlinkResult> {
    run(rc, |rt| Ilink::setup(rt, cfg.clone()), Ilink::run)
}

fn time_s<R>(o: &RunOutcome<R>) -> f64 {
    o.snap.total_time.as_secs_f64()
}

fn rate(hits: u64, misses: u64) -> Json {
    Json::Fixed(hit_rate(hits, misses), 4)
}

/// `values` to `decimals` places each, [`NA`] as `null`.
fn cells(values: &[f64], decimals: usize) -> Json {
    let cell = |&v: &f64| if v.is_nan() { Json::Null } else { Json::Fixed(v, decimals) };
    Json::Arr(values.iter().map(cell).collect())
}

/// One shape the reproduction claims. It holds of the `figures` or the
/// artifact is not built; it is the `shape` cell of the row it is about.
fn claim(shape: &'static str, holds: bool, figures: Arguments) -> Json {
    assert!(holds, "the measured values lost the paper's shape \"{shape}\" — {figures}");
    Json::str(shape)
}

/// A row's label, and the decimals its paper and measured cells print with.
type Row = (&'static str, usize, usize);

/// A claim about one row of a [`table`]: the row, the shape, and what must
/// hold of the row's measured cells.
type RowClaim<const N: usize> = (usize, &'static str, fn([f64; N]) -> bool);

/// A table of the paper: its rows, the paper's cells row by row, one
/// measured column per system, and what the reproduction claims of them.
fn table<const R: usize, const N: usize>(
    rows: [Row; R],
    paper: [[f64; N]; R],
    columns: [[f64; R]; N],
    claims: &[RowClaim<N>],
) -> Json {
    let row = |i: usize| {
        let ((label, paper_decimals, decimals), measured) = (rows[i], columns.map(|c| c[i]));
        let paper = cells(&paper[i], paper_decimals);
        let shapes = claims.iter().filter(|c| c.0 == i).map(|&(_, shape, holds)| {
            let figures = format_args!("{label}: paper {}, measured {measured:?}", paper.cell());
            claim(shape, holds(measured), figures)
        });
        let shapes: Vec<Json> = shapes.collect();
        Json::Obj(vec![
            ("row", Json::str(label)),
            ("paper", paper),
            ("measured", cells(&measured, decimals)),
            ("shape", if shapes.is_empty() { Json::Null } else { Json::Arr(shapes) }),
        ])
    };
    Json::Arr((0..R).map(row).collect())
}

/// The rows of Tables 1 and 3; cells read Sequential / Original / Optimized.
const TIME_ROWS: [Row; 5] = [
    ("Total time (s)", 1, 2),
    ("Total speedup", 1, 2),
    ("Sequential time (s)", 1, 2),
    ("Parallel time (s)", 1, 2),
    ("Parallel speedup", 1, 2),
];

/// One system's [`TIME_ROWS`], speedups over the 1-node run `base`.
fn time_column(s: &StatsSnapshot, base: &StatsSnapshot) -> [f64; 5] {
    let secs =
        |s: &StatsSnapshot| [s.total_time, s.seq_time(), s.par_time()].map(|d| d.as_secs_f64());
    let ([total, seq, par], [base_total, _, base_par]) = (secs(s), secs(base));
    [total, base_total / total, seq, par, base_par / par]
}

/// The rows of Tables 2 and 4; cells read Original / Optimized.
const STATS_ROWS: [Row; 11] = [
    ("Total messages", 0, 0),
    ("Total data (KB)", 0, 0),
    ("Seq messages, all classes", 0, 0),
    ("Seq diff messages", 0, 0),
    ("Seq diff data (KB)", 0, 0),
    ("Seq diff requests, busiest node", 0, 0),
    ("Seq avg response (ms)", 2, 2),
    ("Par diff messages", 0, 0),
    ("Par diff data (KB)", 0, 0),
    ("Par diff requests, node average", 0, 0),
    ("Par avg response (ms)", 2, 2),
];

/// One system's [`STATS_ROWS`].
fn stats_column(s: &StatsSnapshot) -> [f64; 11] {
    let (total, seq, par) = (s.total_agg(), s.seq_agg(), s.par_agg());
    let kb = |bytes: u64| bytes as f64 / 1024.0;
    [
        total.messages as f64,
        kb(total.bytes),
        seq.messages as f64,
        seq.diff_messages as f64,
        kb(seq.diff_bytes),
        s.max_node_diff_requests(Section::Sequential) as f64,
        seq.avg_response().map_or(NA, |d| d.as_millis_f64()),
        par.diff_messages as f64,
        kb(par.diff_bytes),
        s.avg_node_diff_requests(Section::Parallel),
        par.avg_response().map_or(NA, |d| d.as_millis_f64()),
    ]
}

/// `BENCH_table1_2.json`: the paper's Table 1 (Barnes-Hut execution times)
/// and Table 2 (execution statistics) — Sequential, Original and Optimized
/// on 32 nodes — with the data plane's counts over the three runs.
pub fn table1_2() -> Json {
    let cfg = bh_config();
    let seq = run_bh(RunConfig::original(1), &cfg);
    let orig = run_bh(RunConfig::original(NODES), &cfg);
    let opt = run_bh(RunConfig::optimized(NODES), &cfg);
    let mut h = seq.host;
    h += orig.host;
    h += opt.host;
    assert_eq!(seq.result, orig.result, "systems must agree on the physics");
    assert_eq!(seq.result, opt.result, "systems must agree on the physics");
    // Set-associativity, per-page generations and guard amortization should
    // leave only protocol-mandatory faults. Nothing is prewarmed, so a
    // twin pool miss is a buffer first allocated: at least half of all
    // twins reuse a released one (measured 0.69; broken recycling reads 0).
    for (what, hits, misses, floor) in [
        ("twin pool", h.twin_pool_hits, h.twin_pool_misses, 0.5),
        ("software TLB", h.tlb_hits, h.tlb_misses, 0.95),
    ] {
        let rate = hit_rate(hits, misses);
        assert!(
            rate >= floor,
            "{what} hit rate {rate:.4} < {floor} ({hits} hits, {misses} misses)"
        );
    }

    // The TLB must be invisible to the simulation: the optimized system
    // again with the fast path disabled, identical virtual results.
    let mut rc = RunConfig::optimized(NODES);
    rc.cluster.dsm.tlb_enabled = false;
    let no_tlb = run_bh(rc, &cfg);
    assert_eq!(opt.result, no_tlb.result, "TLB must not change the physics");
    assert_eq!(opt.snap.total_time, no_tlb.snap.total_time, "TLB must not change simulated time");
    let (a, b) = (opt.snap.total_agg_with_startup(), no_tlb.snap.total_agg_with_startup());
    assert_eq!(a.messages, b.messages, "TLB must not change message counts");
    assert_eq!(a.bytes, b.bytes, "TLB must not change byte counts");

    let table1 = table(
        TIME_ROWS,
        [
            [359.4, 53.6, 35.5],
            [NA, 6.7, 10.1],
            [1.4, 3.2, 14.4],
            [358.0, 50.4, 21.1],
            [NA, 7.1, 17.0],
        ],
        [&seq.snap, &orig.snap, &opt.snap].map(|s| time_column(s, &seq.snap)),
        &[
            (0, "Optimized beats Original overall", |[_, orig, opt]| opt < orig),
            (2, "replicated sections are slower: multicast overhead", |[_, orig, opt]| opt > orig),
            (3, "at least 1.7× faster (paper 2.4×)", |[_, orig, opt]| opt * 1.7 < orig),
        ],
    );
    // Row 2 is the one deliberate deviation: the paper's sequential-section
    // messages grow under replication, ours shrink since section-retired
    // pages stopped being re-announced and the request/go sweeps became
    // single multicasts (EXPERIMENTS.md, note under Table 2). The direction
    // is pinned so a regression that brings the notices back is caught.
    let table2 = table(
        STATS_ROWS,
        [
            [5_106_237.0, 3_254_275.0],
            [795_165.0, 275_351.0],
            [NA, NA],
            [96_848.0, 205_892.0],
            [10_446.0, 22_443.0],
            [3_072.0, 6_146.0],
            [0.67, 2.12],
            [5_006_252.0, 3_045_226.0],
            [739_139.0, 221_292.0],
            [8_479.0, 3_116.0],
            [3.34, 0.98],
        ],
        [&orig.snap, &opt.snap].map(stats_column),
        &[
            (2, "✘ shrink where the paper's grow: deliberate, see the note", |[orig, opt]| {
                opt < orig
            }),
            (8, "more than halves (paper −70 %)", |[orig, opt]| opt * 2.0 < orig),
            (10, "more than halves (paper ÷3.4)", |[orig, opt]| opt * 2.0 < orig),
        ],
    );
    Json::Obj(vec![
        ("bench", Json::str("table1_2_barnes_hut")),
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        ("bodies", Json::Int(cfg.n_bodies as u64)),
        ("timesteps", Json::Int(cfg.timesteps as u64)),
        ("nodes", Json::Int(NODES as u64)),
        ("tables", Json::Obj(vec![("table1", table1), ("table2", table2)])),
        ("tlb_invariance", Json::str("verified: time, messages and bytes identical with it off")),
        (
            "host_data_plane",
            Json::Obj(vec![
                ("diff_create_calls", Json::Int(h.diff_create_calls)),
                ("diff_create_bytes_scanned", Json::Int(h.diff_create_bytes)),
                ("diff_apply_calls", Json::Int(h.diff_apply_calls)),
                ("diff_apply_bytes_copied", Json::Int(h.diff_apply_bytes)),
                ("twin_pool_hits", Json::Int(h.twin_pool_hits)),
                ("twin_pool_misses", Json::Int(h.twin_pool_misses)),
                ("twin_pool_hit_rate", rate(h.twin_pool_hits, h.twin_pool_misses)),
                ("scratch_pool_hits", Json::Int(h.scratch_pool_hits)),
                ("scratch_pool_misses", Json::Int(h.scratch_pool_misses)),
                ("scratch_pool_hit_rate", rate(h.scratch_pool_hits, h.scratch_pool_misses)),
                ("tlb_hits", Json::Int(h.tlb_hits)),
                ("tlb_misses", Json::Int(h.tlb_misses)),
                ("tlb_hit_rate", rate(h.tlb_hits, h.tlb_misses)),
            ]),
        ),
    ])
}

/// `BENCH_table3_4.json`: the paper's Table 3 (Ilink execution times) and
/// Table 4 (execution statistics), the synthetic genetic-linkage workload
/// under the same three systems.
pub fn table3_4() -> Json {
    let cfg = ilink_config();
    let seq = run_ilink(RunConfig::original(1), &cfg);
    let orig = run_ilink(RunConfig::original(NODES), &cfg);
    let opt = run_ilink(RunConfig::optimized(NODES), &cfg);
    // Across node counts the per-node partial sums reassociate, so the
    // 1-node baseline agrees only up to floating-point grouping; across
    // systems at the same node count the result is bit-identical.
    let rel = (seq.result.likelihood - orig.result.likelihood).abs()
        / orig.result.likelihood.abs().max(1e-12);
    assert!(rel < 1e-6, "sequential and original must agree (rel err {rel})");
    assert_eq!(
        orig.result.likelihood, opt.result.likelihood,
        "original and optimized must agree bit-for-bit"
    );

    let table3 = table(
        TIME_ROWS,
        [[99.0, 53.6, 18.0], [NA, 1.9, 5.5], [2.2, 5.5, 9.2], [96.8, 48.1, 8.8], [NA, 2.0, 11.0]],
        [&seq.snap, &orig.snap, &opt.snap].map(|s| time_column(s, &seq.snap)),
        &[
            (0, "Optimized beats Original overall (paper: by 189 %)", |[_, orig, opt]| opt < orig),
            (2, "replicated sections are slower", |[_, orig, opt]| opt > orig),
            (3, "more than halves (paper ÷5.5)", |[_, orig, opt]| opt * 2.0 < orig),
        ],
    );
    let table4 = table(
        STATS_ROWS,
        [
            [1_002_787.0, 230_392.0],
            [565_711.0, 49_535.0],
            [NA, NA],
            [104_530.0, 94_589.0],
            [2_803.0, 2_885.0],
            [2_836.0, 2_837.0],
            [0.94, 1.71],
            [873_052.0, 111_600.0],
            [518_266.0, 13_895.0],
            [12_318.0, 540.0],
            [3.01, 0.64],
        ],
        [&orig.snap, &opt.snap].map(stats_column),
        &[
            (0, "more than halve (paper ÷4.4)", |[orig, opt]| opt * 2.0 < orig),
            (4, "roughly unchanged: within 3× either way", |[orig, opt]| {
                opt < orig * 3.0 && orig < opt * 3.0
            }),
            (7, "more than halve (paper −87 %)", |[orig, opt]| opt * 2.0 < orig),
            (8, "falls more than 5× (paper −97 %)", |[orig, opt]| opt * 5.0 < orig),
        ],
    );
    Json::Obj(vec![
        ("bench", Json::str("table3_4_ilink")),
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        ("families", Json::Int(cfg.n_families as u64)),
        ("genarray_len", Json::Int(cfg.genarray_len as u64)),
        ("iterations", Json::Int(cfg.iterations as u64)),
        ("nodes", Json::Int(NODES as u64)),
        ("tables", Json::Obj(vec![("table3", table3), ("table4", table4)])),
    ])
}

/// `BENCH_ablations.json`: the two in-text experiments. §6.1.2 hand-inserts
/// a broadcast of the tree between the non-replicated build and the force
/// computation "to isolate the effect of contention elimination" (about
/// half of the paper's improvement is the broadcast's). §5.4.3/§8
/// conjecture that flow control cheaper than the serialized ack chain "will
/// substantially improve our results"; an idealized concurrent multicast
/// (no master serialization, no turn order, no null acks — physically
/// optimistic about receive buffers) bounds what it could buy.
pub fn ablations() -> Json {
    let bh_cfg = bh_config();
    let [orig, bc, opt] =
        [RunConfig::original(NODES), RunConfig::broadcast(NODES), RunConfig::optimized(NODES)]
            .map(|rc| run_bh(rc, &bh_cfg));
    assert_eq!(orig.result, bc.result, "broadcast must not change the physics");
    assert_eq!(orig.result, opt.result, "replication must not change the physics");
    let par_s = |o: &RunOutcome<BhResult>| o.snap.par_time().as_secs_f64();
    let tree_broadcast = table(
        [
            ("Parallel time (s)", 1, 2),
            ("Par diff messages", 0, 0),
            ("Par diff data (KB)", 0, 0),
            ("Share of the parallel-time gain", 2, 2),
        ],
        [
            [50.4, 36.9, 21.1],
            [5_006_252.0, 4_892_246.0, 3_045_226.0],
            [739_139.0, 538_832.0, 221_292.0],
            [0.0, 0.46, 1.0],
        ],
        [&orig, &bc, &opt].map(|o| {
            let par = o.snap.par_agg();
            let share = (par_s(&orig) - par_s(o)) / (par_s(&orig) - par_s(&opt));
            [par_s(o), par.diff_messages as f64, par.diff_bytes as f64 / 1024.0, share]
        }),
        &[
            (0, "the broadcast recovers part of the gain", |[orig, bc, _]| bc < orig),
            (0, "replication recovers more", |[_, bc, opt]| opt < bc),
            (2, "tree fetches disappear", |[orig, bc, _]| bc < orig),
            (2, "particle fetches too", |[_, bc, opt]| opt < bc),
        ],
    );

    let flow_row = |app: &str, [ser, con]: [&StatsSnapshot; 2], must_shorten: bool| {
        let pair =
            |get: fn(&StatsSnapshot) -> f64, decimals| cells(&[get(ser), get(con)], decimals);
        let (s, c) = (ser.seq_agg(), con.seq_agg());
        let [ser_s, con_s] = [ser, con].map(|x| x.seq_time().as_secs_f64());
        let figures = format_args!(
            "{app}, serialized → concurrent: {ser_s} → {con_s} s, {} → {} messages, {} → {} \
             null acks",
            s.messages, c.messages, s.null_acks, c.null_acks
        );
        let shortens = if must_shorten {
            claim("concurrent multicast shortens the replicated sections", con_s < ser_s, figures)
        } else {
            claim("concurrent multicast does not lengthen them", con_s <= ser_s, figures)
        };
        Json::Obj(vec![
            ("app", Json::str(app)),
            ("seq_time_s", pair(|x| x.seq_time().as_secs_f64(), 3)),
            ("total_time_s", pair(|x| x.total_time.as_secs_f64(), 3)),
            ("seq_messages", pair(|x| x.seq_agg().messages as f64, 0)),
            ("null_acks", pair(|x| x.seq_agg().null_acks as f64, 0)),
            ("bound", Json::Fixed(ser_s / con_s, 2)),
            (
                "shape",
                Json::Arr(vec![
                    shortens,
                    claim("null acks disappear with the chain", c.null_acks == 0, figures),
                    claim("messages do not grow", c.messages <= s.messages, figures),
                ]),
            ),
        ])
    };
    let modes = [FlowControl::Serialized, FlowControl::Concurrent].map(|fc| {
        let mut rc = RunConfig::optimized(NODES);
        rc.cluster.dsm.flow_control = fc;
        rc
    });
    let [bh_ser, bh_con] = modes.clone().map(|rc| run_bh(rc, &bh_cfg));
    assert_eq!(bh_ser.result, bh_con.result, "flow control must not change the physics");
    let il_cfg = ilink_config();
    let [il_ser, il_con] = modes.map(|rc| run_ilink(rc, &il_cfg));
    assert_eq!(
        il_ser.result.likelihood, il_con.result.likelihood,
        "flow control must not change the likelihood"
    );
    // Ilink's bound is nothing: its null acks go and its sections are not
    // a microsecond shorter, because what they wait for is the master's 31
    // serialized forks (EXPERIMENTS.md). Asserted: it never gets worse.
    let flow_control = Json::Arr(vec![
        flow_row("Barnes-Hut", [&bh_ser.snap, &bh_con.snap], true),
        flow_row("Ilink", [&il_ser.snap, &il_con.snap], false),
    ]);
    let tables = vec![("tree_broadcast", tree_broadcast), ("flow_control", flow_control)];
    Json::Obj(vec![
        ("bench", Json::str("ablations")),
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        ("bodies", Json::Int(bh_cfg.n_bodies as u64)),
        ("ilink_iterations", Json::Int(il_cfg.iterations as u64)),
        ("nodes", Json::Int(NODES as u64)),
        ("tables", Json::Obj(tables)),
    ])
}

/// `BENCH_scaling.json`: node-count scaling of the Original and Optimized
/// systems, the trend §3 and §7 argue about — contention at the master
/// grows with the node count, so replication's advantage should widen. The
/// paper evaluates only 32 nodes; this sweep adds the curve.
pub fn scaling() -> Json {
    let (bh_cfg, il_cfg) = (bh_config(), ilink_config());
    let bh_base = time_s(&run_bh(RunConfig::original(1), &bh_cfg));
    let il_base = time_s(&run_ilink(RunConfig::original(1), &il_cfg));
    let systems = |n| [RunConfig::original(n), RunConfig::optimized(n)];
    let points = [2, 4, 8, 16, NODES].map(|n| {
        let bh = systems(n).map(|rc| run_bh(rc, &bh_cfg));
        assert_eq!(bh[0].result, bh[1].result, "systems must agree on the physics at {n} nodes");
        let il = systems(n).map(|rc| run_ilink(rc, &il_cfg));
        assert_eq!(
            il[0].result.likelihood, il[1].result.likelihood,
            "systems must agree on the likelihood at {n} nodes"
        );
        (n, bh.map(|o| time_s(&o)), il.map(|o| time_s(&o)))
    });
    let advantage = points.map(|(_, [orig, opt], _)| orig / opt);
    let widens = claim(
        "replication's Barnes-Hut advantage widens with the node count",
        advantage[advantage.len() - 1] > advantage[0],
        format_args!("Original ÷ Optimized at 2, 4, 8, 16, 32 nodes: {advantage:?}"),
    );
    let rows = points.map(|(n, bh, il)| {
        Json::Obj(vec![
            ("nodes", Json::Int(n as u64)),
            ("barnes_hut_speedup", cells(&bh.map(|t| bh_base / t), 2)),
            ("barnes_hut_opt_vs_orig", Json::Fixed(bh[0] / bh[1], 2)),
            ("ilink_speedup", cells(&il.map(|t| il_base / t), 2)),
            ("ilink_opt_vs_orig", Json::Fixed(il[0] / il[1], 2)),
            ("shape", if n == NODES { Json::Arr(vec![widens.clone()]) } else { Json::Null }),
        ])
    });
    Json::Obj(vec![
        ("bench", Json::str("scaling")),
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        ("bodies", Json::Int(bh_cfg.n_bodies as u64)),
        ("ilink_iterations", Json::Int(il_cfg.iterations as u64)),
        ("tables", Json::Obj(vec![("scaling", Json::Arr(rows.into()))])),
    ])
}

/// `BENCH_modes.json`: the three-way sequential-section strategy
/// comparison (§2, §6.1.2) — master-only, master-plus-broadcast
/// (MasterPush) and replicated (RSE) on the same contended Barnes-Hut run.
/// MasterPush removes the demand-fetch request storm but still serializes
/// the whole tree through the master's transmit link, so RSE must stay
/// ahead of it once the tree is big enough to be worth contending over:
/// 8192 bodies, where the tiny table input would let the broadcast win on
/// sheer smallness.
pub fn modes() -> Json {
    let cfg = bh_config();
    let orig = run_bh(RunConfig::original(NODES), &cfg);
    let push = run_bh(RunConfig::master_push(NODES), &cfg);
    let rse = run_bh(RunConfig::optimized(NODES), &cfg);
    let mut h = orig.host;
    h += push.host;
    h += rse.host;
    assert_eq!(orig.result, push.result, "strategies must agree on the physics");
    assert_eq!(orig.result, rse.result, "strategies must agree on the physics");
    assert!(
        time_s(&rse) < time_s(&push),
        "RSE must beat MasterPush on the contended tree rebuild at {NODES} nodes \
         (rse {:.6}s vs push {:.6}s): the broadcast still serializes the whole \
         tree through the master's transmit link (§2)",
        time_s(&rse),
        time_s(&push)
    );
    Json::Obj(vec![
        ("bench", Json::str("seq_exec_modes_barnes_hut")),
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        ("bodies", Json::Int(cfg.n_bodies as u64)),
        ("nodes", Json::Int(NODES as u64)),
        (
            "note",
            Json::str(
                "same workload and cluster for all three strategies; times are simulated \
                 seconds. master_push broadcasts the section's written pages over the \
                 master's link (contention moves from request storm to transmit \
                 serialization); rse replicates the section so no page of it ever crosses \
                 the wire",
            ),
        ),
        (
            "simulated",
            Json::Obj(vec![
                ("master_only_time_s", Json::Fixed(time_s(&orig), 6)),
                ("master_push_time_s", Json::Fixed(time_s(&push), 6)),
                ("rse_time_s", Json::Fixed(time_s(&rse), 6)),
                ("push_vs_master_only", Json::Fixed(time_s(&orig) / time_s(&push), 3)),
                ("rse_vs_master_only", Json::Fixed(time_s(&orig) / time_s(&rse), 3)),
                ("rse_vs_push", Json::Fixed(time_s(&push) / time_s(&rse), 3)),
            ]),
        ),
        (
            "host_data_plane",
            Json::Obj(vec![
                ("diff_create_calls", Json::Int(h.diff_create_calls)),
                ("diff_apply_calls", Json::Int(h.diff_apply_calls)),
                ("twin_pool_hit_rate", rate(h.twin_pool_hits, h.twin_pool_misses)),
                ("scratch_pool_hit_rate", rate(h.scratch_pool_hits, h.scratch_pool_misses)),
                ("tlb_hit_rate", rate(h.tlb_hits, h.tlb_misses)),
            ]),
        ),
    ])
}

/// The KV sweep's grid: every node count at every skew, three strategies
/// on the same trace at each point.
const KV_NODES: [usize; 3] = [32, 64, 256];
const KV_SKEWS: [f64; 3] = [0.2, 0.99, 1.2];
const HOTTEST: f64 = KV_SKEWS[KV_SKEWS.len() - 1];

/// `BENCH_kv.json`: per-strategy throughput and tail latency of the
/// open-loop zipfian serving workload. Latencies are open-loop (queueing
/// delay included) over *virtual* time, so the tails measure protocol
/// contention, not host scheduling. Record-sized values (the tiny test
/// config would make the sections too small to be worth contending over)
/// on a short trace.
pub fn kv() -> Json {
    let base = KvConfig::scaled(512);
    let mut points = Vec::new();
    for n in KV_NODES {
        for theta in KV_SKEWS {
            let cfg = base.clone().with_skew(theta).weak_scaled(n);
            let run_kv =
                |rc: RunConfig| run(rc, |rt| KvStore::setup(rt, cfg.clone()), KvStore::run);
            let orig = run_kv(RunConfig::original(n)).result;
            let push = run_kv(RunConfig::master_push(n)).result;
            let rse = run_kv(RunConfig::optimized(n)).result;
            let state = |r: &KvResult| (r.fingerprint, r.read_xor, r.reads, r.writes);
            for (tag, r) in [("master_push", &push), ("rse", &rse)] {
                assert_eq!(
                    state(r),
                    state(&orig),
                    "{tag} diverged from master_only at {n} nodes, theta {theta}: \
                     a replicated or pushed page served stale data"
                );
            }
            // The paper's contention-elimination claim, restated for
            // serving: at the highest skew RSE is ahead at every node count.
            assert!(
                theta < HOTTEST || rse.throughput_rps >= orig.throughput_rps,
                "RSE must beat MasterOnly on throughput at theta {theta} with {n} nodes \
                 (rse {:.0} vs master_only {:.0} rps): replicating the hot shard's \
                 write sections is the whole point under skew",
                rse.throughput_rps,
                orig.throughput_rps
            );
            let strategy = |r: &KvResult| {
                Json::Obj(vec![
                    ("throughput_rps", Json::Fixed(r.throughput_rps, 1)),
                    ("p50_ns", Json::Int(r.p50_ns)),
                    ("p99_ns", Json::Int(r.p99_ns)),
                    ("p999_ns", Json::Int(r.p999_ns)),
                    ("time_s", Json::Fixed(r.total.as_secs_f64(), 6)),
                ])
            };
            points.push(Json::Obj(vec![
                ("nodes", Json::Int(n as u64)),
                ("zipf_theta", Json::Fixed(theta, 2)),
                ("requests", Json::Int(cfg.n_requests as u64)),
                ("fingerprint", Json::hex(orig.fingerprint)),
                ("master_only", strategy(&orig)),
                ("master_push", strategy(&push)),
                ("rse", strategy(&rse)),
                (
                    "rse_vs_master_only_throughput",
                    Json::Fixed(rse.throughput_rps / orig.throughput_rps, 3),
                ),
            ]));
        }
    }
    Json::Obj(vec![
        ("bench", Json::str("kv_serving_zipfian")),
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        (
            "note",
            Json::str(
                "open-loop zipfian KV serving: reads fan out cyclically across nodes, writes \
                 run as per-shard named sequential sections. latencies are virtual \
                 nanoseconds from request arrival to completion (queueing included); \
                 identical request traces and final-table fingerprints across strategies \
                 are asserted before this file is written",
            ),
        ),
        ("points", Json::Arr(points)),
    ])
}
