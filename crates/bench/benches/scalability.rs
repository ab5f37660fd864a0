//! Extension experiment: node-count scaling of the Original and Optimized
//! systems (the trend §3 and §7 argue about — contention at the master
//! grows with the node count, so replication's advantage should widen).
//! The paper evaluates only 32 nodes; this sweep adds the curve.

use repseq_apps::barnes_hut::BarnesHut;
use repseq_apps::ilink::Ilink;
use repseq_bench::*;
use repseq_core::RunConfig;

fn main() {
    let scale = Scale::from_env();
    let sweep: &[usize] = match scale {
        Scale::Tiny => &[2, 4, 8],
        _ => &[2, 4, 8, 16, 32],
    };
    let bh_cfg = bh_config(scale);
    let il_cfg = ilink_config(scale);

    println!("Scalability sweep ({scale:?} scale)\n");
    println!(
        "{:<12} {:>6} {:>14} {:>14} {:>12} {:>12}",
        "app", "nodes", "orig time (s)", "opt time (s)", "orig spdup", "opt spdup"
    );

    let bh = |rc| run(rc, |rt| BarnesHut::setup(rt, bh_cfg.clone()), BarnesHut::run);
    let ilink = |rc| run(rc, |rt| Ilink::setup(rt, il_cfg.clone()), Ilink::run);
    let bh_seq = bh(RunConfig::original(1));
    let il_seq = ilink(RunConfig::original(1));
    let bh_base = bh_seq.snap.total_time.as_secs_f64();
    let il_base = il_seq.snap.total_time.as_secs_f64();

    let mut widening = Vec::new();
    for &n in sweep {
        let o = bh(RunConfig::original(n));
        let r = bh(RunConfig::optimized(n));
        assert_eq!(o.result, r.result);
        let (to, tr) = (o.snap.total_time.as_secs_f64(), r.snap.total_time.as_secs_f64());
        println!(
            "{:<12} {:>6} {:>14.2} {:>14.2} {:>12.2} {:>12.2}",
            "barnes-hut",
            n,
            to,
            tr,
            bh_base / to,
            bh_base / tr
        );
        widening.push(to / tr);
    }
    println!();
    for &n in sweep {
        let o = ilink(RunConfig::original(n));
        let r = ilink(RunConfig::optimized(n));
        assert_eq!(o.result.likelihood, r.result.likelihood);
        let (to, tr) = (o.snap.total_time.as_secs_f64(), r.snap.total_time.as_secs_f64());
        println!(
            "{:<12} {:>6} {:>14.2} {:>14.2} {:>12.2} {:>12.2}",
            "ilink",
            n,
            to,
            tr,
            il_base / to,
            il_base / tr
        );
    }

    println!("\nShape checks:");
    shape_check(
        "Replication's Barnes-Hut advantage widens with the node count",
        widening.last().unwrap_or(&1.0) > widening.first().unwrap_or(&1.0),
    );
}
