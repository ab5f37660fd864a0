//! The §6.1.2 in-text ablation: "To isolate the effect of contention
//! elimination, we hand insert broadcasting of the tree between the
//! non-replicated tree building and the parallel force computation."
//!
//! The paper reports, for the force-computation phase:
//!
//! | system              | parallel time | diff messages | diff data (KB) |
//! |---------------------|---------------|---------------|----------------|
//! | Original            | 50.4 s        | 5,006,252     | 739,139        |
//! | + tree broadcast    | 36.9 s        | 4,892,246     | 538,832        |
//! | Replicated (full)   | 21.1 s        | 3,045,226     | 221,292        |
//!
//! i.e. "about half of the improvement stems from contention elimination
//! and the other half from broadcasting the particles."

use repseq_apps::barnes_hut::BarnesHut;
use repseq_bench::*;
use repseq_core::RunConfig;

fn main() {
    let scale = Scale::from_env();
    let n = nodes_from_env();
    let cfg = bh_config(scale);
    println!(
        "Barnes-Hut broadcast ablation: {} bodies, {} nodes ({scale:?} scale)",
        cfg.n_bodies, n
    );

    let bh = |rc| run(rc, |rt| BarnesHut::setup(rt, cfg.clone()), BarnesHut::run);
    let orig = bh(RunConfig::original(n));
    println!("  original run done");
    let bc = bh(RunConfig::broadcast(n));
    println!("  broadcast run done");
    let opt = bh(RunConfig::optimized(n));
    println!("  optimized run done");

    assert_eq!(orig.result, bc.result, "broadcast must not change the physics");
    assert_eq!(orig.result, opt.result, "replication must not change the physics");

    println!("\n{:<22} {:>14} {:>16} {:>16}", "", "par time (s)", "par diff msgs", "par diff KB");
    for (label, s, paper) in [
        ("Original", &orig.snap, (50.4, 5_006_252u64, 739_139u64)),
        ("+ tree broadcast", &bc.snap, (36.9, 4_892_246, 538_832)),
        ("Replicated (full)", &opt.snap, (21.1, 3_045_226, 221_292)),
    ] {
        let par = s.par_agg();
        println!(
            "{:<22} {:>14.2} {:>16} {:>16}   | paper: {:.1} s, {} msgs, {} KB",
            label,
            s.par_time().as_secs_f64(),
            par.diff_messages,
            par.diff_bytes / 1024,
            paper.0,
            paper.1,
            paper.2
        );
    }

    println!("\nShape checks against the paper:");
    shape_check(
        "Broadcast recovers part of the parallel-section improvement",
        bc.snap.par_time() < orig.snap.par_time(),
    );
    shape_check(
        "Full replication recovers more than the broadcast alone",
        opt.snap.par_time() < bc.snap.par_time(),
    );
    shape_check(
        "Broadcast reduces parallel diff data (tree fetches disappear)",
        bc.snap.par_agg().diff_bytes < orig.snap.par_agg().diff_bytes,
    );
    shape_check(
        "Replication reduces parallel diff data further (particles too)",
        opt.snap.par_agg().diff_bytes < bc.snap.par_agg().diff_bytes,
    );
    let gain_bc = orig.snap.par_time().as_secs_f64() - bc.snap.par_time().as_secs_f64();
    let gain_full = orig.snap.par_time().as_secs_f64() - opt.snap.par_time().as_secs_f64();
    println!(
        "  broadcast alone recovers {:.0}% of the parallel-time gain (paper: ~46%)",
        100.0 * gain_bc / gain_full.max(1e-12)
    );
}
