//! A look inside the contention mechanism itself (§3): watch the average
//! diff-request response time at the master grow with the node count, and
//! watch replicated sequential execution flatten it.
//!
//! The kernel's phases run on the page-guard API (`ShArray::with_slices` /
//! `with_slices_mut`): each page is faulted once per pass and the elements
//! stream straight from the page bytes, so the host-side cost of driving
//! the simulation stays flat while the *simulated* contention (what this
//! demo measures) is untouched — the guards charge exactly the virtual
//! time the element-wise protocol would.
//!
//! ```text
//! cargo run --release --example contention_demo
//! ```

use repseq::apps::kernels::{ContentionKernel, KernelConfig};
use repseq::core::{RunConfig, Runtime, SeqMode};

fn response_ms(mode: SeqMode, nodes: usize) -> (f64, f64) {
    let mut rt = Runtime::new(RunConfig {
        cluster: repseq::dsm::ClusterConfig::paper(nodes),
        seq_mode: mode,
    });
    let k = ContentionKernel::setup(&mut rt, KernelConfig { pages: 24, iters: 3 });
    let stats = rt.stats();
    rt.run(move |team| {
        k.run(team)?;
        Ok(())
    })
    .expect("simulation failed");
    let snap = stats.snapshot();
    (
        snap.par_agg().avg_response().map(|d| d.as_millis_f64()).unwrap_or(0.0),
        snap.total_time.as_secs_f64(),
    )
}

fn main() {
    println!("Contention at the master vs. cluster size (24 shared pages, 3 iterations)\n");
    println!("{:>6} {:>26} {:>26}", "nodes", "Original avg resp (ms)", "Replicated avg resp (ms)");
    for nodes in [2usize, 4, 8, 16, 32] {
        let (orig, _) = response_ms(SeqMode::MasterOnly, nodes);
        let (opt, _) = response_ms(SeqMode::Replicated, nodes);
        println!("{nodes:>6} {orig:>26.3} {opt:>26.3}");
    }
    println!(
        "\nThe base system's response time climbs with the node count — requests queue\n\
         at the master's link, exactly the effect §3 describes — while the replicated\n\
         system's parallel sections stay contention-free (no requests at all once the\n\
         data is locally written everywhere; 0 ms means no parallel-section requests)."
    );
}
