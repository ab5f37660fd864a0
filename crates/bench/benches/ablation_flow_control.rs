//! The flow-control ablation (§5.4.3 / §8): the paper's conservative
//! ack-chain multicast "is large enough to noticeably affect our results.
//! For this reason, we are actively working on a flow control mechanism
//! with less overhead ... We believe that such strategies are feasible and
//! will substantially improve our results."
//!
//! This harness bounds that conjecture: it runs the optimized systems with
//! the paper's serialized ack-chain and with an idealized concurrent
//! multicast (no master serialization, no turn order, no null acks —
//! physically optimistic about receive buffers).

use repseq_apps::barnes_hut::BarnesHut;
use repseq_apps::ilink::Ilink;
use repseq_bench::*;
use repseq_core::RunConfig;
use repseq_dsm::FlowControl;

/// The optimized system on `n` nodes under flow control `fc`.
fn optimized(n: usize, fc: FlowControl) -> RunConfig {
    let mut rc = RunConfig::optimized(n);
    rc.cluster.dsm.flow_control = fc;
    rc
}

fn main() {
    let scale = Scale::from_env();
    let n = nodes_from_env();
    println!("Flow-control ablation on {n} nodes ({scale:?} scale)\n");

    let bh_cfg = bh_config(scale);
    let bh = |fc| run(optimized(n, fc), |rt| BarnesHut::setup(rt, bh_cfg.clone()), BarnesHut::run);
    let bh_ser = bh(FlowControl::Serialized);
    let bh_con = bh(FlowControl::Concurrent);
    assert_eq!(bh_ser.result, bh_con.result, "flow control must not change the physics");

    let il_cfg = ilink_config(scale);
    let ilink = |fc| run(optimized(n, fc), |rt| Ilink::setup(rt, il_cfg.clone()), Ilink::run);
    let il_ser = ilink(FlowControl::Serialized);
    let il_con = ilink(FlowControl::Concurrent);
    assert_eq!(
        il_ser.result.likelihood, il_con.result.likelihood,
        "flow control must not change the likelihood"
    );

    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>14}",
        "", "seq time (s)", "total (s)", "seq msgs", "null acks"
    );
    for (label, s) in [
        ("Barnes-Hut serialized", &bh_ser.snap),
        ("Barnes-Hut concurrent", &bh_con.snap),
        ("Ilink serialized", &il_ser.snap),
        ("Ilink concurrent", &il_con.snap),
    ] {
        let seq = s.seq_agg();
        println!(
            "{:<28} {:>14.3} {:>14.3} {:>14} {:>14}",
            label,
            s.seq_time().as_secs_f64(),
            s.total_time.as_secs_f64(),
            seq.messages,
            seq.null_acks
        );
    }

    println!("\nShape checks:");
    shape_check(
        "Concurrent multicast shortens Barnes-Hut replicated sections",
        bh_con.snap.seq_time() < bh_ser.snap.seq_time(),
    );
    shape_check(
        "Concurrent multicast shortens Ilink replicated sections",
        il_con.snap.seq_time() < il_ser.snap.seq_time(),
    );
    shape_check(
        "Null acks disappear without the ack chain",
        bh_con.snap.seq_agg().null_acks == 0 && il_con.snap.seq_agg().null_acks == 0,
    );
    shape_check(
        "Message counts do not grow without the chain (null acks + forwards gone)",
        bh_con.snap.seq_agg().messages <= bh_ser.snap.seq_agg().messages
            && il_con.snap.seq_agg().messages <= il_ser.snap.seq_agg().messages,
    );
    let bh_gain =
        bh_ser.snap.seq_time().as_secs_f64() / bh_con.snap.seq_time().as_secs_f64().max(1e-12);
    let il_gain =
        il_ser.snap.seq_time().as_secs_f64() / il_con.snap.seq_time().as_secs_f64().max(1e-12);
    println!(
        "  conjectured §8 improvement bound: sequential sections {bh_gain:.2}x (Barnes-Hut), {il_gain:.2}x (Ilink)"
    );
}
