//! The paper's first evaluation application: Barnes-Hut N-body simulation
//! (§6.1), runnable under all three systems.
//!
//! ```text
//! cargo run --release --example barnes_hut [bodies] [nodes] [timesteps]
//! ```

use repseq::apps::barnes_hut::{BarnesHut, BhConfig};
use repseq::core::{RunConfig, Runtime};

fn main() {
    let mut args = std::env::args().skip(1);
    let bodies: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4096);
    let nodes: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let steps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);
    println!("Barnes-Hut: {bodies} bodies, {nodes} nodes, {steps} timesteps\n");

    let mut outcomes = Vec::new();
    for (label, rc) in [
        ("Original (master-only sequential)", RunConfig::original(nodes)),
        ("Broadcast ablation", RunConfig::broadcast(nodes)),
        ("Optimized (replicated sequential)", RunConfig::optimized(nodes)),
    ] {
        let mut cfg = BhConfig::scaled(bodies);
        cfg.timesteps = steps;
        let mut rt = Runtime::new(rc);
        let app = BarnesHut::setup(&mut rt, cfg);
        let stats = rt.stats();
        let (result, _) = rt.run_value(move |team| app.run(team)).expect("simulation failed");
        let snap = stats.snapshot();
        println!(
            "{label}\n  total {:>8.2} s   sequential {:>7.2} s   parallel {:>7.2} s",
            snap.total_time.as_secs_f64(),
            snap.seq_time().as_secs_f64(),
            snap.par_time().as_secs_f64()
        );
        println!(
            "  parallel diff data {:>8} KB   avg parallel response {:>6.2} ms\n",
            snap.par_agg().diff_bytes / 1024,
            snap.par_agg().avg_response().map(|d| d.as_millis_f64()).unwrap_or(0.0)
        );
        outcomes.push((label, result));
    }
    let first = outcomes[0].1;
    for (label, r) in &outcomes[1..] {
        assert_eq!(*r, first, "{label} diverged from the original system");
    }
    println!(
        "all three systems computed identical physics ({} interactions, checksum {:.6})",
        first.interactions, first.checksum
    );
}
