//! End-to-end protocol tests on small simulated clusters: barriers,
//! multiple-writer merging, locks, fork/join, and basic consistency.

use std::sync::{Arc, Mutex};

use repseq_dsm::{Cluster, ClusterConfig, DsmNode};
use repseq_sim::Stopped;
use repseq_stats::{Section, Stats, StatsRef};

fn cluster(n: usize) -> (Cluster, StatsRef) {
    let stats = Stats::new(n);
    let cl = Cluster::new(ClusterConfig::paper(n), Arc::clone(&stats));
    (cl, stats)
}

type Apps = Vec<Box<dyn FnOnce(DsmNode) -> Result<(), Stopped> + Send + 'static>>;

/// Run the same closure on every node (SPMD style, barrier-synchronized by
/// the closure itself).
fn spmd(
    cl: Cluster,
    n: usize,
    f: impl Fn(&DsmNode) -> Result<(), Stopped> + Send + Sync + 'static,
) {
    let f = Arc::new(f);
    let apps: Apps = (0..n)
        .map(|_| {
            let f = Arc::clone(&f);
            Box::new(move |node: DsmNode| f(&node)) as _
        })
        .collect();
    cl.launch(apps).expect("simulation failed");
}

#[test]
fn barrier_propagates_master_writes() {
    let n = 4;
    let (mut cl, _stats) = cluster(n);
    let arr = cl.alloc_array::<u64>(1024);
    let sums = Arc::new(Mutex::new(vec![0u64; n]));
    let sums2 = Arc::clone(&sums);
    spmd(cl, n, move |node| {
        if node.is_master() {
            for k in 0..1024 {
                arr.set(node, k, 3 * k as u64)?;
            }
        }
        node.barrier()?;
        let mut sum = 0u64;
        for k in 0..1024 {
            sum += arr.get(node, k)?;
        }
        sums2.lock().unwrap()[node.node()] = sum;
        Ok(())
    });
    let expect = 3 * (1023 * 1024 / 2) as u64;
    assert_eq!(*sums.lock().unwrap(), vec![expect; n]);
}

#[test]
fn multiple_writer_merges_false_sharing() {
    // Two nodes write disjoint halves of the same page concurrently; after
    // the barrier everyone sees both halves (the multiple-writer protocol).
    let n = 2;
    let (mut cl, _stats) = cluster(n);
    let arr = cl.alloc_array::<u64>(64); // 512 bytes: one page
    let views = Arc::new(Mutex::new(vec![Vec::new(); n]));
    let views2 = Arc::clone(&views);
    spmd(cl, n, move |node| {
        let me = node.node();
        let half = 32;
        for k in 0..half {
            arr.set(node, me * half + k, (me * 1000 + k) as u64)?;
        }
        node.barrier()?;
        let mut v = Vec::new();
        for k in 0..64 {
            v.push(arr.get(node, k)?);
        }
        views2.lock().unwrap()[me] = v;
        Ok(())
    });
    let views = views.lock().unwrap();
    for me in 0..n {
        for k in 0..64 {
            let owner = k / 32;
            assert_eq!(
                views[me][k],
                (owner * 1000 + (k - owner * 32)) as u64,
                "node {me} sees a wrong value at {k}"
            );
        }
    }
}

#[test]
fn later_writes_overwrite_earlier_ones() {
    // x is written by node 0 (phase 1) then node 1 (phase 2), with barriers
    // between; everyone must read node 1's value — diff application order.
    let n = 3;
    let (mut cl, _stats) = cluster(n);
    let x = cl.alloc_var::<u64>();
    let got = Arc::new(Mutex::new(vec![0u64; n]));
    let got2 = Arc::clone(&got);
    spmd(cl, n, move |node| {
        if node.node() == 0 {
            x.set(node, 111)?;
        }
        node.barrier()?;
        if node.node() == 1 {
            // Read-modify-write: sees 111, writes 222.
            let v = x.get(node)?;
            assert_eq!(v, 111);
            x.set(node, v * 2)?;
        }
        node.barrier()?;
        got2.lock().unwrap()[node.node()] = x.get(node)?;
        Ok(())
    });
    assert_eq!(*got.lock().unwrap(), vec![222; n]);
}

#[test]
fn repeated_barriers_reuse_pages() {
    // The same page ping-pongs between writers across many phases.
    let n = 2;
    let (mut cl, _stats) = cluster(n);
    let x = cl.alloc_var::<u64>();
    let finals = Arc::new(Mutex::new(vec![0u64; n]));
    let finals2 = Arc::clone(&finals);
    spmd(cl, n, move |node| {
        for round in 0..10u64 {
            let writer = (round % 2) as usize;
            if node.node() == writer {
                let cur = x.get(node)?;
                assert_eq!(cur, round, "round {round} starts from the previous value");
                x.set(node, cur + 1)?;
            }
            node.barrier()?;
        }
        finals2.lock().unwrap()[node.node()] = x.get(node)?;
        Ok(())
    });
    assert_eq!(*finals.lock().unwrap(), vec![10, 10]);
}

#[test]
fn locks_provide_mutual_exclusion_and_consistency() {
    let n = 4;
    let iters = 5;
    let (mut cl, _stats) = cluster(n);
    let counter = cl.alloc_var::<u64>();
    let finals = Arc::new(Mutex::new(vec![0u64; n]));
    let finals2 = Arc::clone(&finals);
    spmd(cl, n, move |node| {
        for _ in 0..iters {
            node.lock(3)?;
            let v = counter.get(node)?;
            counter.set(node, v + 1)?;
            node.unlock(3)?;
        }
        node.barrier()?;
        finals2.lock().unwrap()[node.node()] = counter.get(node)?;
        Ok(())
    });
    assert_eq!(*finals.lock().unwrap(), vec![(n * iters) as u64; n]);
}

#[test]
fn two_locks_do_not_interfere() {
    let n = 3;
    let (mut cl, _stats) = cluster(n);
    let a = cl.alloc_var::<u64>();
    // Put b on a different page to keep the test about locks, not sharing.
    let _pad = cl.alloc_array_page_aligned::<u8>(1);
    let b = cl.alloc_var::<u64>();
    let out = Arc::new(Mutex::new((0u64, 0u64)));
    let out2 = Arc::clone(&out);
    spmd(cl, n, move |node| {
        for _ in 0..3 {
            node.lock(0)?;
            a.set(node, a.get(node)? + 1)?;
            node.unlock(0)?;
            node.lock(7)?;
            b.set(node, b.get(node)? + 10)?;
            node.unlock(7)?;
        }
        node.barrier()?;
        if node.is_master() {
            *out2.lock().unwrap() = (a.get(node)?, b.get(node)?);
        }
        Ok(())
    });
    assert_eq!(*out.lock().unwrap(), (9, 90));
}

#[test]
fn fork_join_ships_master_writes_to_slaves() {
    let n = 4;
    let (mut cl, _stats) = cluster(n);
    let data = cl.alloc_array::<u64>(256);
    let partials = cl.alloc_array_page_aligned::<u64>(n);
    let result = Arc::new(Mutex::new(0u64));
    let result2 = Arc::clone(&result);
    let mut apps: Apps = Vec::new();
    apps.push(Box::new(move |node: DsmNode| {
        // Master program: sequential init, parallel sum, sequential reduce.
        for k in 0..256 {
            data.set(&node, k, k as u64)?;
        }
        node.run_parallel(move |nd| {
            let (me, n) = (nd.node(), nd.n_nodes());
            let chunk = 256 / n;
            let mut s = 0;
            for k in me * chunk..(me + 1) * chunk {
                s += data.get(nd, k)?;
            }
            partials.set(nd, me, s)
        })?;
        let mut total = 0;
        for q in 0..n {
            total += partials.get(&node, q)?;
        }
        *result2.lock().unwrap() = total;
        node.shutdown_slaves()
    }));
    for _ in 1..n {
        apps.push(Box::new(|node: DsmNode| node.slave_loop()));
    }
    cl.launch(apps).unwrap();
    assert_eq!(*result.lock().unwrap(), (255 * 256 / 2) as u64);
}

#[test]
fn consecutive_parallel_sections_share_state() {
    let n = 3;
    let (mut cl, _stats) = cluster(n);
    let a = cl.alloc_array_page_aligned::<u64>(n);
    let b = cl.alloc_array_page_aligned::<u64>(n);
    let ok = Arc::new(Mutex::new(false));
    let ok2 = Arc::clone(&ok);
    let mut apps: Apps = Vec::new();
    apps.push(Box::new(move |node: DsmNode| {
        node.run_parallel(move |nd| a.set(nd, nd.node(), (nd.node() + 1) as u64))?;
        // Second section: each node reads its neighbour's value.
        node.run_parallel(move |nd| {
            let (me, n) = (nd.node(), nd.n_nodes());
            let v = a.get(nd, (me + 1) % n)?;
            b.set(nd, me, v * 10)
        })?;
        let mut vals = Vec::new();
        for q in 0..n {
            vals.push(b.get(&node, q)?);
        }
        *ok2.lock().unwrap() = vals == vec![20, 30, 10];
        node.shutdown_slaves()
    }));
    for _ in 1..n {
        apps.push(Box::new(|node: DsmNode| node.slave_loop()));
    }
    cl.launch(apps).unwrap();
    assert!(*ok.lock().unwrap());
}

#[test]
fn contention_after_sequential_section_is_visible() {
    // The paper's §3 pathology in miniature: the master rewrites a large
    // array sequentially; every slave then reads all of it. The average
    // parallel-section response time must exceed the uncontended service
    // time considerably.
    let n = 8;
    let (mut cl, stats) = cluster(n);
    let big = cl.alloc_array_page_aligned::<u64>(8 * 512); // 8 pages
    let mut apps: Apps = Vec::new();
    let stats_m = Arc::clone(&stats);
    apps.push(Box::new(move |node: DsmNode| {
        stats_m.start_measurement(node.ctx().now());
        stats_m.set_section(Section::Sequential, node.ctx().now());
        for k in 0..big.len() {
            big.set(&node, k, k as u64)?;
        }
        stats_m.set_section(Section::Parallel, node.ctx().now());
        node.run_parallel(move |nd| {
            let mut s = 0u64;
            for k in 0..big.len() {
                s += big.get(nd, k)?;
            }
            assert_eq!(s, (big.len() as u64 - 1) * big.len() as u64 / 2);
            Ok(())
        })?;
        stats_m.end_measurement(node.ctx().now());
        node.shutdown_slaves()
    }));
    for _ in 1..n {
        apps.push(Box::new(|node: DsmNode| node.slave_loop()));
    }
    cl.launch(apps).unwrap();
    let snap = stats.snapshot();
    let par = snap.par_agg();
    assert!(par.diff_requests >= (n as u64 - 1) * 8, "every slave faults on every page");
    let avg = par.avg_response().unwrap();
    // Uncontended service of a ~4 KB diff is well under a millisecond; with
    // 7 slaves hammering the master the average should exceed it clearly.
    assert!(avg.as_millis_f64() > 1.0, "expected contention to inflate response times, got {avg}");
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let n = 4;
        let (mut cl, stats) = cluster(n);
        let arr = cl.alloc_array::<u64>(512);
        let mut apps: Apps = Vec::new();
        apps.push(Box::new(move |node: DsmNode| {
            for k in 0..512 {
                arr.set(&node, k, (k * 7) as u64)?;
            }
            node.run_parallel(move |nd| {
                let mut s = 0u64;
                for k in 0..512 {
                    s += arr.get(nd, k)?;
                }
                let _ = s;
                Ok(())
            })?;
            node.shutdown_slaves()
        }));
        for _ in 1..n {
            apps.push(Box::new(|node: DsmNode| node.slave_loop()));
        }
        let report = cl.launch(apps).unwrap();
        let snap = stats.snapshot();
        (
            report.end_time,
            report.events_processed,
            snap.total_agg().messages,
            snap.total_agg().bytes,
        )
    };
    assert_eq!(run(), run());
}
