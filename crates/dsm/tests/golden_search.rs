//! Randomized search over small replicated-mode programs (a fast,
//! deterministic complement to the proptest golden-model suite). Found the
//! merged-diff ordering bug during development; kept as a regression net.

#![allow(clippy::type_complexity)]

use std::sync::Arc;

use parking_lot::Mutex;
use repseq_dsm::{Cluster, ClusterConfig, DsmNode, SeqMode};
use repseq_sim::Stopped;
use repseq_stats::Stats;

const N_NODES: usize = 3;
const N_LOCS: usize = 8;

fn golden(phases: &[Vec<(usize, u64)>]) -> Vec<u64> {
    let mut mem = vec![0u64; N_LOCS];
    for phase in phases {
        for &(loc, val) in phase {
            mem[loc] = val;
        }
    }
    mem
}

fn run(phases: &[Vec<(usize, u64)>]) -> Result<(), String> {
    let stats = Stats::new(N_NODES);
    let mut cl = Cluster::new(ClusterConfig::paper(N_NODES), stats);
    let arr = cl.alloc_array_page_aligned::<u64>(N_LOCS);
    let out = Arc::new(Mutex::new(vec![Vec::new(); N_NODES]));
    let phases = Arc::new(phases.to_vec());
    let mut apps: Vec<Box<dyn FnOnce(DsmNode) -> Result<(), Stopped> + Send>> = Vec::new();
    let phases_m = Arc::clone(&phases);
    let out_m = Arc::clone(&out);
    apps.push(Box::new(move |node: DsmNode| {
        let mut gsf = vec![0u64; N_LOCS];
        for (k, phase) in phases_m.iter().enumerate() {
            let phase = phase.clone();
            for &(loc, val) in &phase {
                gsf[loc] = val;
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
                let expect = gsf.clone();
                let bad = Arc::new(Mutex::new(Vec::new()));
                let bad2 = Arc::clone(&bad);
                node.run_sequential(SeqMode::Replicated, move |nd| {
                    for (loc, &want) in expect.iter().enumerate() {
                        let got = arr.get(nd, loc)?;
                        if got != want {
                            bad2.lock().push(format!(
                                "node {} loc {loc} phase {kk}: got {got} want {want}",
                                nd.node()
                            ));
                        }
                    }
                    Ok(())
                })?;
                let bad = bad.lock();
                if !bad.is_empty() {
                    eprintln!("DIVERGED: {:?}", *bad);
                }
            }
        }
        let out_c = Arc::clone(&out_m);
        node.run_parallel(move |nd| {
            let mut v = Vec::with_capacity(N_LOCS);
            for loc in 0..N_LOCS {
                v.push(arr.get(nd, loc)?);
            }
            out_c.lock()[nd.node()] = v;
            Ok(())
        })?;
        node.shutdown_slaves()
    }));
    for _ in 1..N_NODES {
        apps.push(Box::new(|node: DsmNode| node.slave_loop()));
    }
    cl.launch(apps).map_err(|e| e.to_string())?;
    let want = golden(&phases);
    let got = Arc::try_unwrap(out).unwrap().into_inner();
    for (me, view) in got.iter().enumerate() {
        if view != &want {
            return Err(format!("node {me}: got {view:?} want {want:?}"));
        }
    }
    Ok(())
}

fn rng_next(s: &mut u64) -> u64 {
    *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *s >> 33
}

#[test]
fn randomized_programs_match_golden() {
    for seed in 0..120u64 {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) + 1;
        let n_phases = 2 + (rng_next(&mut s) % 5) as usize;
        let phases: Vec<Vec<(usize, u64)>> = (0..n_phases)
            .map(|_| {
                let writes = (rng_next(&mut s) % 8) as usize;
                (0..writes)
                    .map(|_| {
                        let loc = (rng_next(&mut s) % N_LOCS as u64) as usize;
                        let val = 1 + rng_next(&mut s) % 1000;
                        (loc, val)
                    })
                    .collect()
            })
            .collect();
        if let Err(e) = run(&phases) {
            panic!("seed {seed} failed: {e}\nphases: {phases:?}");
        }
    }
}
