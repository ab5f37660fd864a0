//! The paper's second evaluation application: a genetic-linkage workload
//! with parallel Ilink's structure (§6.2), runnable under both systems.
//!
//! ```text
//! cargo run --release --example ilink [iterations] [nodes]
//! ```

use repseq::apps::ilink::{Ilink, IlinkConfig};
use repseq::core::{RunConfig, Runtime};

fn main() {
    let mut args = std::env::args().skip(1);
    let iterations: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let nodes: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let cfg = IlinkConfig::scaled(iterations);
    println!(
        "Ilink: {} families, genarrays of {}, {iterations} iterations, {nodes} nodes\n",
        cfg.n_families, cfg.genarray_len
    );

    let mut results = Vec::new();
    for (label, rc) in [
        ("Original (master-only sequential)", RunConfig::original(nodes)),
        ("Optimized (replicated sequential)", RunConfig::optimized(nodes)),
    ] {
        let mut rt = Runtime::new(rc);
        let app = Ilink::setup(&mut rt, cfg.clone());
        let stats = rt.stats();
        let (r, _) = rt.run_value(move |team| app.run(team)).expect("simulation failed");
        let snap = stats.snapshot();
        println!(
            "{label}\n  total {:>8.3} s   sequential {:>7.3} s   parallel {:>7.3} s",
            snap.total_time.as_secs_f64(),
            snap.seq_time().as_secs_f64(),
            snap.par_time().as_secs_f64()
        );
        println!(
            "  {} parallel / {} sequential updates; parallel diff data {} KB\n",
            r.parallel_updates,
            r.sequential_updates,
            snap.par_agg().diff_bytes / 1024
        );
        results.push(r);
    }
    assert_eq!(
        results[0].likelihood, results[1].likelihood,
        "the two systems must compute identical likelihoods"
    );
    println!("likelihood {:.9} — identical under both systems", results[0].likelihood);
}
