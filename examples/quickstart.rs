//! Quickstart: the paper's idea in 80 lines.
//!
//! A master rewrites a block of shared pages in a sequential section;
//! every node then reads all of it in the parallel section. Under the base
//! system the reads storm the master (§3 contention); under replicated
//! sequential execution (the paper's contribution) the rewrite happens
//! locally on every node and the storm disappears.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use repseq::core::{RunConfig, Runtime, Team, Worker};
use repseq::dsm::ShArray;
use repseq::sim::Dur;

const NODES: usize = 16;

fn run(cfg: RunConfig) -> (u64, repseq::stats::StatsSnapshot) {
    let mut rt = Runtime::new(cfg);
    // 32 pages of shared data plus a per-node result slot.
    let data: ShArray<u64> = rt.alloc_array_page_aligned(32 * 512);
    let sums: ShArray<u64> = rt.alloc_array_page_aligned(NODES);
    let stats = rt.stats();

    let program = move |team: &Team| {
        team.start_measurement();
        for iter in 0..3u64 {
            // Sequential section: rewrite everything (master-only under
            // MasterOnly, locally on every node under Replicated).
            team.sequential(move |nd| {
                let vals: Vec<u64> =
                    (0..data.len() as u64).map(|k| k.wrapping_mul(iter + 1)).collect();
                data.write_range(nd, 0, &vals)
            })?;
            // Parallel section: every node reads the whole block.
            team.parallel(move |nd| {
                let vals = nd.read_all(data)?;
                nd.charge(Dur::from_micros(vals.len() as u64 / 50));
                let s = vals.iter().fold(0u64, |a, &b| a.wrapping_add(b));
                sums.set(nd, nd.node(), s)
            })?;
        }
        team.end_measurement();
        let mut check = 0u64;
        for q in 0..team.n_nodes() {
            check = check.wrapping_add(sums.get(team.node(), q)?);
        }
        Ok(check)
    };
    let (check, _) = rt.run_value(program).expect("simulation failed");
    (check, stats.snapshot())
}

fn main() {
    println!("repseq quickstart: 16 simulated nodes, 3 iterations\n");
    let (c_orig, orig) = run(RunConfig::original(NODES));
    let (c_opt, opt) = run(RunConfig::optimized(NODES));
    assert_eq!(c_orig, c_opt, "both systems must compute the same result");

    println!("{:<34} {:>12} {:>12}", "", "Original", "Replicated");
    println!(
        "{:<34} {:>12.2} {:>12.2}",
        "total time (virtual s)",
        orig.total_time.as_secs_f64(),
        opt.total_time.as_secs_f64()
    );
    println!(
        "{:<34} {:>12.2} {:>12.2}",
        "parallel-section time (s)",
        orig.par_time().as_secs_f64(),
        opt.par_time().as_secs_f64()
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "parallel diff requests",
        orig.par_agg().diff_requests,
        opt.par_agg().diff_requests
    );
    println!(
        "{:<34} {:>12.2} {:>12.2}",
        "avg parallel response (ms)",
        orig.par_agg().avg_response().map(|d| d.as_millis_f64()).unwrap_or(0.0),
        opt.par_agg().avg_response().map(|d| d.as_millis_f64()).unwrap_or(0.0)
    );
    println!(
        "\nchecksum {c_orig:#018x} — identical under both systems; the request storm after\n\
         the sequential section is gone under replicated sequential execution."
    );
}
