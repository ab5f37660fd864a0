//! Reproduces **Table 3** (Ilink execution times) and **Table 4** (Ilink
//! execution statistics): the synthetic genetic-linkage workload under the
//! Sequential, Original and Optimized systems.
//!
//! `REPSEQ_SCALE=full` runs 180 outer iterations as the paper's CLP input
//! requires; the default scale runs 24.

use repseq_apps::ilink::Ilink;
use repseq_bench::*;
use repseq_core::RunConfig;

fn main() {
    let scale = Scale::from_env();
    let n = nodes_from_env();
    let cfg = ilink_config(scale);
    repseq_stats::host::reset();
    println!(
        "Ilink: {} families, genarrays of {}, {} iterations, {} nodes ({scale:?} scale)",
        cfg.n_families, cfg.genarray_len, cfg.iterations, n
    );

    let ilink = |rc| run(rc, |rt| Ilink::setup(rt, cfg.clone()), Ilink::run);
    let seq = ilink(RunConfig::original(1));
    println!(
        "  sequential run done: {} parallel-eligible / {} small updates",
        seq.result.parallel_updates, seq.result.sequential_updates
    );
    let orig = ilink(RunConfig::original(n));
    println!("  original run done");
    let opt = ilink(RunConfig::optimized(n));
    println!("  optimized run done");

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

    // Paper values (Table 3, 32 nodes, CLP input).
    let paper_t3 = [
        [Some(99.0), Some(53.6), Some(18.0)],
        [None, Some(1.9), Some(5.5)],
        [Some(2.2), Some(5.5), Some(9.2)],
        [Some(96.8), Some(48.1), Some(8.8)],
        [None, Some(2.0), Some(11.0)],
    ];
    print_time_table("Table 3: Ilink execution times", &seq.snap, &orig.snap, &opt.snap, &paper_t3);

    // Paper values (Table 4).
    let paper_t4 = [
        [Some(1_002_787.0), Some(230_392.0)],
        [Some(565_711.0), Some(49_535.0)],
        [Some(104_530.0), Some(94_589.0)],
        [Some(2_803.0), Some(2_885.0)],
        [Some(2_836.0), Some(2_837.0)],
        [Some(0.94), Some(1.71)],
        [Some(873_052.0), Some(111_600.0)],
        [Some(518_266.0), Some(13_895.0)],
        [Some(12_318.0), Some(540.0)],
        [Some(3.01), Some(0.64)],
    ];
    print_stats_table("Table 4: Ilink execution statistics", &orig.snap, &opt.snap, &paper_t4);

    println!("\nShape checks against the paper:");
    shape_check(
        "Optimized beats Original overall (paper: 189% improvement)",
        opt.snap.total_time < orig.snap.total_time,
    );
    shape_check(
        "Optimized sequential sections are slower",
        opt.snap.seq_time() > orig.snap.seq_time(),
    );
    shape_check(
        "Parallel time collapses (paper: 48.1 s -> 8.8 s)",
        opt.snap.par_time().as_secs_f64() * 2.0 < orig.snap.par_time().as_secs_f64(),
    );
    shape_check(
        "Parallel diff data nearly vanishes (paper: -97%)",
        opt.snap.par_agg().diff_bytes * 5 < orig.snap.par_agg().diff_bytes,
    );
    shape_check(
        "Parallel diff messages drop hard (paper: -87%)",
        opt.snap.par_agg().diff_messages * 2 < orig.snap.par_agg().diff_messages,
    );
    shape_check(
        "Total messages drop (paper: ~4.4x)",
        opt.snap.total_agg().messages * 2 < orig.snap.total_agg().messages,
    );
    shape_check("Sequential diff data roughly unchanged (paper: 2803 vs 2885 KB)", {
        let a = orig.snap.seq_agg().diff_bytes as f64;
        let b = opt.snap.seq_agg().diff_bytes as f64;
        b < a * 3.0 && a < b * 3.0
    });

    print_host_counters("all three Ilink runs", &repseq_stats::host::snapshot());
}
