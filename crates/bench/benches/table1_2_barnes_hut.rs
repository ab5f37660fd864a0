//! Reproduces **Table 1** (Barnes-Hut execution times) and **Table 2**
//! (Barnes-Hut execution statistics) of the paper: the Sequential,
//! Original and Optimized systems on the simulated cluster.
//!
//! `REPSEQ_SCALE=full` runs the paper's 131072 bodies; the default scale
//! preserves the shapes at 8192 bodies. `REPSEQ_NODES` overrides the node
//! count (paper: 32).

use repseq_apps::barnes_hut::BarnesHut;
use repseq_bench::*;
use repseq_core::RunConfig;

fn main() {
    let scale = Scale::from_env();
    let n = nodes_from_env();
    let cfg = bh_config(scale);
    repseq_stats::host::reset();
    println!(
        "Barnes-Hut: {} bodies, {} timesteps, {} nodes ({scale:?} scale)",
        cfg.n_bodies, cfg.timesteps, n
    );

    let bh = |rc| run(rc, |rt| BarnesHut::setup(rt, cfg.clone()), BarnesHut::run);
    let seq = bh(RunConfig::original(1));
    println!("  sequential run done: {} interactions", seq.result.interactions);
    let orig = bh(RunConfig::original(n));
    println!("  original run done");
    let opt = bh(RunConfig::optimized(n));
    println!("  optimized run done");

    assert_eq!(seq.result, orig.result, "systems must agree on the physics");
    assert_eq!(seq.result, opt.result, "systems must agree on the physics");

    // Paper values (Table 1, 32 nodes, 131072 bodies).
    let paper_t1 = [
        [Some(359.4), Some(53.6), Some(35.5)],
        [None, Some(6.7), Some(10.1)],
        [Some(1.4), Some(3.2), Some(14.4)],
        [Some(358.0), Some(50.4), Some(21.1)],
        [None, Some(7.1), Some(17.0)],
    ];
    print_time_table(
        "Table 1: Barnes-Hut execution times",
        &seq.snap,
        &orig.snap,
        &opt.snap,
        &paper_t1,
    );

    // Paper values (Table 2).
    let paper_t2 = [
        [Some(5_106_237.0), Some(3_254_275.0)],
        [Some(795_165.0), Some(275_351.0)],
        [Some(96_848.0), Some(205_892.0)],
        [Some(10_446.0), Some(22_443.0)],
        [Some(3_072.0), Some(6_146.0)],
        [Some(0.67), Some(2.12)],
        [Some(5_006_252.0), Some(3_045_226.0)],
        [Some(739_139.0), Some(221_292.0)],
        [Some(8_479.0), Some(3_116.0)],
        [Some(3.34), Some(0.98)],
    ];
    print_stats_table("Table 2: Barnes-Hut execution statistics", &orig.snap, &opt.snap, &paper_t2);

    println!("\nShape checks against the paper:");
    let t = |s: &repseq_stats::StatsSnapshot| s.total_time.as_secs_f64();
    shape_check("Optimized beats Original overall", t(&opt.snap) < t(&orig.snap));
    shape_check(
        "Optimized sequential sections are slower (multicast overhead)",
        opt.snap.seq_time() > orig.snap.seq_time(),
    );
    shape_check(
        "Optimized parallel sections are at least ~2x faster",
        opt.snap.par_time().as_secs_f64() * 1.7 < orig.snap.par_time().as_secs_f64(),
    );
    shape_check(
        "Parallel diff data shrinks by ~3x",
        opt.snap.par_agg().diff_bytes * 2 < orig.snap.par_agg().diff_bytes,
    );
    shape_check(
        "Parallel avg response time drops ~3x",
        opt.snap.par_agg().avg_response().unwrap_or_default().nanos() * 2
            < orig.snap.par_agg().avg_response().unwrap_or_default().nanos(),
    );
    // The paper's Table 2 shows sequential-section messages *growing*
    // under replication (valid-notice traffic outweighs the saved
    // fetches). This repo deliberately deviates: section-retired pages
    // are common-knowledge valid and are no longer re-announced, and the
    // request/go sweeps are single multicasts, so replication now
    // *reduces* section messages too. The paper's directional claim —
    // replication adds sequential-section *time* overhead — is the
    // check above; here we pin the post-optimization direction.
    shape_check(
        "Sequential-section messages shrink under replication (implied-validity optimization; \
         the paper's unoptimized exchange grew them)",
        opt.snap.seq_agg().messages < orig.snap.seq_agg().messages,
    );

    print_host_counters("all three Barnes-Hut runs", &repseq_stats::host::snapshot());
}
