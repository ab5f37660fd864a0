//! Golden-model equivalence: random race-free programs executed on the DSM
//! (with and without replicated sequential sections) must end with exactly
//! the memory an ideal sequentially-consistent machine produces.
//!
//! Program shape: a sequence of phases separated by barriers (or fork/join
//! for the replicated variant). In phase `k`, location `loc` is owned by
//! node `(loc + k) % n` — only the owner writes it, so the program is
//! race-free, while ownership *rotates* across phases to exercise diff
//! ordering, invalidation and the multiple-writer protocol on a page shared
//! by every node.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use repseq_dsm::{AppFn, Cluster, ClusterConfig, DsmNode, SeqMode};
use repseq_stats::Stats;

const N_NODES: usize = 3;
const N_LOCS: usize = 48; // 384 bytes: all on one page → maximal false sharing

#[derive(Debug, Clone)]
struct Program {
    /// `phases[k]` is a list of (loc, value) writes; the writer of `loc` in
    /// phase `k` is `(loc + k) % N_NODES`.
    phases: Vec<Vec<(usize, u64)>>,
}

fn program_strategy() -> impl Strategy<Value = Program> {
    prop::collection::vec(prop::collection::vec((0usize..N_LOCS, 1u64..1_000_000), 0..12), 1..5)
        .prop_map(|phases| Program { phases })
}

/// The ideal machine: apply phases in order; within a phase, later writes
/// to the same location by the same owner win (program order).
fn golden(prog: &Program) -> Vec<u64> {
    let mut mem = vec![0u64; N_LOCS];
    for phase in &prog.phases {
        for &(loc, val) in phase {
            mem[loc] = val;
        }
    }
    mem
}

/// Memory as read back by every node after the final barrier.
fn run_on_dsm(prog: &Program, replicated_sections: bool) -> Vec<Vec<u64>> {
    let stats = Stats::new(N_NODES);
    let mut cl = Cluster::new(ClusterConfig::paper(N_NODES), stats);
    let arr = cl.alloc_array_page_aligned::<u64>(N_LOCS);
    let out = Arc::new(Mutex::new(vec![Vec::new(); N_NODES]));
    let prog = Arc::new(prog.clone());

    if replicated_sections {
        // Master-driven: each phase is a parallel section; after every
        // second phase, a replicated sequential section reads the whole
        // array (forcing multicast fetches) — the read must also match the
        // golden memory at that point.
        let prog_m = Arc::clone(&prog);
        let out_m = Arc::clone(&out);
        let (_, run) = cl.launch_master(move |node| {
            let mut golden_so_far = vec![0u64; N_LOCS];
            for (k, phase) in prog_m.phases.iter().enumerate() {
                let phase = phase.clone();
                for &(loc, val) in &phase {
                    golden_so_far[loc] = val;
                }
                let kk = k;
                node.run_parallel(move |nd| {
                    for &(loc, val) in &phase {
                        if (loc + kk) % N_NODES == nd.node() {
                            arr.set(nd, loc, val)?;
                        }
                    }
                    Ok(())
                })?;
                if k % 2 == 1 {
                    let expect = golden_so_far.clone();
                    node.run_sequential(SeqMode::Replicated, move |nd| {
                        for (loc, &want) in expect.iter().enumerate() {
                            let got = arr.get(nd, loc)?;
                            assert_eq!(got, want, "node {} loc {loc} after phase {kk}", nd.node());
                        }
                        Ok(())
                    })?;
                }
            }
            // Final read-back on every node via a parallel section.
            let out_c = Arc::clone(&out_m);
            node.run_parallel(move |nd| {
                let mut v = Vec::with_capacity(N_LOCS);
                for loc in 0..N_LOCS {
                    v.push(arr.get(nd, loc)?);
                }
                out_c.lock().unwrap()[nd.node()] = v;
                Ok(())
            })?;
            Ok(())
        });
        run.result.expect("simulation failed");
    } else {
        // SPMD with barriers.
        let mut apps: Vec<AppFn> = Vec::new();
        for me in 0..N_NODES {
            let prog = Arc::clone(&prog);
            let out = Arc::clone(&out);
            apps.push(Box::new(move |node: DsmNode| {
                for (k, phase) in prog.phases.iter().enumerate() {
                    for &(loc, val) in phase {
                        if (loc + k) % N_NODES == me {
                            arr.set(&node, loc, val)?;
                        }
                    }
                    node.barrier()?;
                }
                let mut v = Vec::with_capacity(N_LOCS);
                for loc in 0..N_LOCS {
                    v.push(arr.get(&node, loc)?);
                }
                out.lock().unwrap()[me] = v;
                Ok(())
            }));
        }
        cl.launch(apps).expect("simulation failed");
    }
    Arc::try_unwrap(out).unwrap().into_inner().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dsm_matches_golden_model(prog in program_strategy()) {
        let want = golden(&prog);
        let got = run_on_dsm(&prog, false);
        for (me, view) in got.iter().enumerate() {
            prop_assert_eq!(view, &want, "node {} diverged from the golden model", me);
        }
    }

    #[test]
    fn dsm_with_replicated_sections_matches_golden_model(prog in program_strategy()) {
        let want = golden(&prog);
        let got = run_on_dsm(&prog, true);
        for (me, view) in got.iter().enumerate() {
            prop_assert_eq!(view, &want, "node {} diverged (replicated mode)", me);
        }
    }
}

/// The shrunk input saved in `golden.proptest-regressions`, promoted to a
/// plain test: the vendored proptest shim does not replay regression
/// files (see vendor/README.md), so the case is pinned here instead.
#[test]
fn saved_regression_same_loc_across_phases() {
    let prog = Program { phases: vec![vec![(19, 1)], vec![(19, 2), (3, 1)]] };
    let want = golden(&prog);
    for replicated in [false, true] {
        let got = run_on_dsm(&prog, replicated);
        for view in got {
            assert_eq!(view, want, "replicated={replicated}");
        }
    }
}

/// A fixed adversarial case kept as a plain test: every node writes every
/// phase, ownership rotating, with replicated read-backs in between.
#[test]
fn dense_rotation_fixed_case() {
    let phases: Vec<Vec<(usize, u64)>> = (0..4)
        .map(|k| (0..N_LOCS).map(|loc| (loc, (k * 1000 + loc) as u64 + 1)).collect())
        .collect();
    let prog = Program { phases };
    let want = golden(&prog);
    for replicated in [false, true] {
        let got = run_on_dsm(&prog, replicated);
        for view in got {
            assert_eq!(view, want, "replicated={replicated}");
        }
    }
}
