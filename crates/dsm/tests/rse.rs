//! End-to-end tests of replicated sequential execution: correctness
//! (identical results to master-only execution), contention elimination
//! (no parallel-section diff traffic for section outputs), the multicast
//! machinery (forwarded requests, null acks), and loss recovery.

use std::sync::{Arc, Mutex};

use repseq_dsm::{Cluster, ClusterConfig, DsmNode, LaunchOutcome, SeqMode, ShArray};
use repseq_net::LossConfig;
use repseq_sim::Stopped;
use repseq_stats::{MsgClass, Section, Stats, StatsRef};

fn cluster(n: usize) -> (Cluster, StatsRef) {
    let stats = Stats::new(n);
    let cl = Cluster::new(ClusterConfig::paper(n), Arc::clone(&stats));
    (cl, stats)
}

/// A sequential section whose output the parallel section consumes. With
/// replication, the parallel section must need no diff traffic at all for
/// the section's output.
#[test]
fn replicated_output_is_local_everywhere() {
    let n = 4;
    let (mut cl, stats) = cluster(n);
    let tree = cl.alloc_array_page_aligned::<u64>(4 * 512); // 4 pages
    let sums = cl.alloc_array_page_aligned::<u64>(n);
    let stats_m = Arc::clone(&stats);
    let (out, run) = cl.launch_master(move |node| {
        stats_m.start_measurement(node.ctx().now());
        stats_m.set_section(Section::Replicated, node.ctx().now());
        node.run_sequential(SeqMode::Replicated, move |nd| {
            // Deterministic "tree build": every node writes the same data.
            for k in 0..tree.len() {
                tree.set(nd, k, (k as u64) * 3 + 1)?;
            }
            Ok(())
        })?;
        stats_m.set_section(Section::Parallel, node.ctx().now());
        node.run_parallel(move |nd| {
            let mut s = 0u64;
            for k in 0..tree.len() {
                s += tree.get(nd, k)?;
            }
            sums.set(nd, nd.node(), s)
        })?;
        // The gather is a master-only sequential section.
        stats_m.set_section(Section::Sequential, node.ctx().now());
        let mut v = Vec::new();
        for q in 0..n {
            v.push(sums.get(node, q)?);
        }
        stats_m.end_measurement(node.ctx().now());
        Ok(v)
    });
    run.result.unwrap();
    let len = 4 * 512u64;
    let expect = 3 * (len - 1) * len / 2 + len;
    assert_eq!(out.unwrap(), vec![expect; n]);
    let snap = stats.snapshot();
    // The tree was built locally on every node: the parallel section needed
    // no diffs for it (only the per-node `sums` slots move, and they are
    // written, not read, before the final sequential gather).
    assert_eq!(
        snap.par_agg().diff_requests,
        0,
        "contention after the sequential section must be fully eliminated"
    );
    // No coherence information was exchanged for replicated writes: the
    // replicated section itself needed no diffs either (it read nothing).
    assert_eq!(snap.agg(Section::Replicated).diff_requests, 0);
    // The master-only gather of the per-node sums is the only sequential
    // diff traffic.
    assert_eq!(snap.agg(Section::Sequential).diff_requests, 1);
}

/// The replicated section reads data written by every node in the previous
/// parallel section: the multicast protocol (forwarded requests, the
/// id-ordered ack chain) fetches each page exactly once, cluster-wide.
#[test]
fn replicated_inputs_are_multicast_once() {
    let n = 4;
    let (mut cl, stats) = cluster(n);
    let pages = 8;
    let per_page = 512; // u64s per 4 KB page
    let particles = cl.alloc_array_page_aligned::<u64>(pages * per_page);
    let stats_m = Arc::clone(&stats);
    let (result, run) = cl.launch_master(move |node| {
        stats_m.start_measurement(node.ctx().now());
        stats_m.set_section(Section::Parallel, node.ctx().now());
        // Every node writes its own slice (two pages each).
        node.run_parallel(move |nd| {
            let me = nd.node();
            let chunk = particles.len() / nd.n_nodes();
            for k in me * chunk..(me + 1) * chunk {
                particles.set(nd, k, (k as u64) + 100)?;
            }
            Ok(())
        })?;
        stats_m.set_section(Section::Replicated, node.ctx().now());
        // The replicated section reads everything (the "tree build").
        let total = Arc::new(Mutex::new(vec![0u64; n]));
        let total2 = Arc::clone(&total);
        node.run_sequential(SeqMode::Replicated, move |nd| {
            let mut s = 0u64;
            for k in 0..particles.len() {
                s += particles.get(nd, k)?;
            }
            total2.lock().unwrap()[nd.node()] = s;
            Ok(())
        })?;
        stats_m.end_measurement(node.ctx().now());
        let total = total.lock().unwrap().clone();
        Ok(total)
    });
    run.result.unwrap();
    let len = (pages * per_page) as u64;
    let expect = (len - 1) * len / 2 + 100 * len;
    assert_eq!(result.unwrap(), vec![expect; n], "every node computed the same sum");

    let snap = stats.snapshot();
    let seq = snap.seq_agg();
    // Each node's slice is missing on the other n-1 nodes; the union is
    // fetched once per page via the master-serialized multicast: exactly
    // `pages` minus the requester-valid ones... at least one forwarded
    // request per remotely-written page, and null acks from non-owners.
    assert!(seq.forwarded_requests > 0, "forwarded requests must flow through the master");
    assert!(seq.null_acks > 0, "flow-control null acks must be multicast");
    // Chain discipline: per forwarded request every node speaks exactly
    // once (n multicasts: diffs or null acks). Replies+acks = n per chain.
    let chains = seq.forwarded_requests;
    assert_eq!(seq.null_acks + count_chain_replies(&snap), chains * n as u64);
}

/// Diff replies inside chains are `DiffReply`-class multicast frames in the
/// sequential sections; count them as chain turns minus null acks is not
/// directly exposed, so derive from totals: every chain turn is either a
/// diff reply or a null ack.
fn count_chain_replies(snap: &repseq_stats::StatsSnapshot) -> u64 {
    let seq = snap.seq_agg();
    // diff messages = wire requests (unicast to the master) + forwarded +
    // replies + null acks. When the elected requester IS the master node,
    // its request reaches its own handler locally and never hits the wire,
    // so only the other nodes' request operations produced frames.
    let master = &snap.nodes[0];
    let node0_requests = master.section(Section::Sequential).diff_requests
        + master.section(Section::Replicated).diff_requests;
    let wire_requests = seq.diff_requests - node0_requests;
    seq.diff_messages - seq.null_acks - seq.forwarded_requests - wire_requests
}

/// Identical final memory with and without replication, and less parallel
/// diff data with it.
#[test]
fn replicated_and_original_agree() {
    let run = |replicated: bool| -> (Vec<u64>, u64) {
        let n = 4;
        let (mut cl, stats) = cluster(n);
        let iters = 3usize;
        let a = cl.alloc_array_page_aligned::<u64>(2 * 512);
        let b = cl.alloc_array_page_aligned::<u64>(2 * 512);
        let stats_m = Arc::clone(&stats);
        let (out, launched) = cl.launch_master(move |node| {
            stats_m.start_measurement(node.ctx().now());
            for _ in 0..iters {
                // Sequential section: b = f(a).
                stats_m.set_section(
                    if replicated { Section::Replicated } else { Section::Sequential },
                    node.ctx().now(),
                );
                let body = move |nd: &DsmNode| -> Result<(), Stopped> {
                    for k in 0..b.len() {
                        let v = a.get(nd, k)?;
                        b.set(nd, k, v.wrapping_mul(3).wrapping_add(k as u64))?;
                    }
                    Ok(())
                };
                if replicated {
                    node.run_sequential(SeqMode::Replicated, body)?;
                } else {
                    body(node)?;
                }
                // Parallel section: each node updates its slice of a from b.
                stats_m.set_section(Section::Parallel, node.ctx().now());
                node.run_parallel(move |nd| {
                    let me = nd.node();
                    let chunk = a.len() / nd.n_nodes();
                    for k in me * chunk..(me + 1) * chunk {
                        let v = b.get(nd, (k + 7) % b.len())?;
                        a.set(nd, k, v ^ 0x5a5a)?;
                    }
                    Ok(())
                })?;
            }
            stats_m.end_measurement(node.ctx().now());
            let mut v = Vec::new();
            for k in 0..a.len() {
                v.push(a.get(node, k)?);
            }
            Ok(v)
        });
        launched.result.unwrap();
        let snap = stats.snapshot();
        let vals = out.unwrap();
        (vals, snap.par_agg().diff_bytes)
    };
    let (orig_vals, orig_par_bytes) = run(false);
    let (opt_vals, opt_par_bytes) = run(true);
    assert_eq!(orig_vals, opt_vals, "replication must not change program results");
    assert!(
        opt_par_bytes * 2 < orig_par_bytes,
        "replication must slash parallel-section diff data: {opt_par_bytes} vs {orig_par_bytes}"
    );
}

/// §5.3 end to end: a page dirtied before the section and written inside it
/// serves only pre-section modifications, and every node converges.
#[test]
fn lazy_diff_leak_is_prevented_end_to_end() {
    let n = 3;
    let (mut cl, _stats) = cluster(n);
    let p = cl.alloc_array_page_aligned::<u64>(512);
    let (out, run) = cl.launch_master(move |node| {
        // Master dirties the page; the interval stays un-diffed (lazy).
        p.set(node, 0, 7)?;
        node.run_sequential(SeqMode::Replicated, move |nd| {
            if nd.is_master() {
                // Delay the master so slaves fault (and fetch the §5.3
                // pre-section diff) before the master's replicated write.
                nd.charge(repseq_sim::Dur::from_millis(50));
            }
            // Replicated write to the same page.
            let v = p.get(nd, 0)?;
            p.set(nd, 1, v + 2)?;
            Ok(())
        })?;
        node.run_parallel(move |nd| {
            let a = p.get(nd, 0)?;
            let b = p.get(nd, 1)?;
            assert_eq!((a, b), (7, 9), "node {} diverged", nd.node());
            Ok(())
        })?;
        Ok(vec![p.get(node, 0)?, p.get(node, 1)?])
    });
    run.result.unwrap();
    assert_eq!(out.unwrap(), vec![7, 9]);
}

/// The valid-notice exchange costs what the paper says it costs: one
/// multicast request, one reply per slave, plus the table distribution.
#[test]
fn valid_notice_exchange_message_count() {
    let n = 4;
    let (mut cl, stats) = cluster(n);
    let x = cl.alloc_array_page_aligned::<u64>(8);
    let stats_m = Arc::clone(&stats);
    let (_, run) = cl.launch_master(move |node| {
        stats_m.start_measurement(node.ctx().now());
        stats_m.set_section(Section::Replicated, node.ctx().now());
        node.run_sequential(SeqMode::Replicated, move |nd| x.set(nd, 0, 1).map(|_| ()))?;
        node.run_sequential(SeqMode::Replicated, move |nd| x.set(nd, 1, 2).map(|_| ()))?;
        stats_m.end_measurement(node.ctx().now());
        Ok(())
    });
    run.result.unwrap();
    let snap = stats.snapshot();
    // Per replicated section: 1 multicast request + (n-1) replies + 1
    // multicast table.
    assert_eq!(snap.seq_agg().valid_notice_msgs, 2 * (1 + (n as u64 - 1) + 1));
}

/// Multicast loss: the timeout-recovery path (§5.4.2) still converges to
/// correct values.
#[test]
fn multicast_loss_recovery_converges() {
    let n = 3;
    let stats = Stats::new(n);
    let mut cfg = ClusterConfig::paper(n);
    cfg.net.loss = Some(LossConfig::multicast_only(400, 12345)); // brutal 40%
    cfg.dsm.rse_timeout = repseq_sim::Dur::from_millis(20);
    let mut cl = Cluster::new(cfg, Arc::clone(&stats));
    // Element count divisible by the node count so every element is written.
    let data: ShArray<u64> = cl.alloc_array_page_aligned::<u64>(3 * 512);
    let (out, run) = cl.launch_master(move |node| {
        // Each node writes a slice, then the replicated section reads all.
        node.run_parallel(move |nd| {
            let me = nd.node();
            let chunk = data.len() / nd.n_nodes();
            for k in me * chunk..(me + 1) * chunk {
                data.set(nd, k, k as u64 + 5)?;
            }
            Ok(())
        })?;
        let sums = Arc::new(Mutex::new(vec![0u64; n]));
        let sums2 = Arc::clone(&sums);
        node.run_sequential(SeqMode::Replicated, move |nd| {
            let mut s = 0;
            for k in 0..data.len() {
                s += data.get(nd, k)?;
            }
            sums2.lock().unwrap()[nd.node()] = s;
            Ok(())
        })?;
        let sums = sums.lock().unwrap().clone();
        Ok(sums)
    });
    run.result.unwrap();
    let len = (3 * 512) as u64;
    let expect = (len - 1) * len / 2 + 5 * len;
    assert_eq!(out.unwrap(), vec![expect; n], "recovery must converge to correct values");
}

/// Two replicated sections in sequence: valid notices accumulated in the
/// first exchange keep elections consistent in the second.
#[test]
fn back_to_back_replicated_sections() {
    let n = 3;
    let (mut cl, _stats) = cluster(n);
    let a = cl.alloc_array_page_aligned::<u64>(512);
    let b = cl.alloc_array_page_aligned::<u64>(512);
    let (out, run) = cl.launch_master(move |node| {
        node.run_parallel(move |nd| {
            if nd.node() == 1 {
                a.set(nd, 0, 11)?;
            }
            Ok(())
        })?;
        node.run_sequential(SeqMode::Replicated, move |nd| {
            let v = a.get(nd, 0)?;
            b.set(nd, 0, v * 2)
        })?;
        node.run_parallel(move |nd| {
            if nd.node() == 2 {
                let v = b.get(nd, 0)?;
                a.set(nd, 1, v + 1)?;
            }
            Ok(())
        })?;
        node.run_sequential(SeqMode::Replicated, move |nd| {
            let v = a.get(nd, 1)?;
            b.set(nd, 1, v * 10)
        })?;
        b.get(node, 1)
    });
    run.result.unwrap();
    assert_eq!(out.unwrap(), 230);
}

// =================================================================
// Pinned-seed loss regressions (§5.4.2 recovery path)
// =================================================================

/// The standard lossy scenario for the pinned-seed regressions below: each
/// node writes a one-page slice in parallel, then a replicated section
/// reads all of it, forcing one multicast reply chain per remotely-written
/// page. Returns the per-node sums plus the full protocol post-mortem
/// (probes and the deterministic loss log).
fn lossy_rse_run(drop_per_mille: u32, seed: u64) -> (Vec<u64>, LaunchOutcome) {
    let n = 3;
    let stats = Stats::new(n);
    let mut cfg = ClusterConfig::paper(n);
    cfg.net.loss = Some(LossConfig::multicast_only(drop_per_mille, seed));
    cfg.dsm.rse_timeout = repseq_sim::Dur::from_millis(20);
    let mut cl = Cluster::new(cfg, Arc::clone(&stats));
    let data: ShArray<u64> = cl.alloc_array_page_aligned::<u64>(3 * 512);
    let (out, outcome) = cl.launch_master(move |node| {
        node.run_parallel(move |nd| {
            let me = nd.node();
            let chunk = data.len() / nd.n_nodes();
            for k in me * chunk..(me + 1) * chunk {
                data.set(nd, k, k as u64 + 5)?;
            }
            Ok(())
        })?;
        let sums = Arc::new(Mutex::new(vec![0u64; n]));
        let sums2 = Arc::clone(&sums);
        node.run_sequential(SeqMode::Replicated, move |nd| {
            let mut s = 0;
            for k in 0..data.len() {
                s += data.get(nd, k)?;
            }
            sums2.lock().unwrap()[nd.node()] = s;
            Ok(())
        })?;
        let sums = sums.lock().unwrap().clone();
        Ok(sums)
    });
    outcome.result.as_ref().expect("lossy run must still terminate");
    let vals = out.unwrap();
    (vals, outcome)
}

/// Convergence + quiescence assertions shared by the pinned-seed tests.
fn assert_converged(vals: &[u64], outcome: &LaunchOutcome) {
    let len = (3 * 512) as u64;
    let expect = (len - 1) * len / 2 + 5 * len;
    assert_eq!(vals, vec![expect; 3], "recovery must converge to correct values");
    for p in &outcome.probes {
        assert!(p.is_quiescent(), "protocol state left behind: {p:?}");
    }
}

/// Regression: a null ack dropped mid-chain. The chain must not wait
/// forever for the lost turn — later turns skip over it (recorded as
/// holes) and the section still converges. Before the gap-tolerance fix
/// this schedule wedged the chain on every node that missed the ack.
/// Seed pinned by scanning: (250‰, seed 0) drops 4 null acks.
#[test]
fn dropped_null_ack_mid_chain_converges() {
    let (vals, outcome) = lossy_rse_run(250, 0);
    let nacks =
        outcome.loss_events.iter().filter(|e| e.multicast && e.class == MsgClass::NullAck).count();
    assert!(nacks > 0, "pinned seed must drop null acks; loss log: {:?}", outcome.loss_events);
    let holes: u64 = outcome.probes.iter().map(|p| p.chain_holes).sum();
    assert!(holes > 0, "a skipped turn must be recorded as a chain hole");
    assert_converged(&vals, &outcome);
}

/// Regression: a McastDiffReply dropped on the requester's own link — the
/// one node that cannot proceed without it. The requester's timeout fires
/// and a §5.4.2 recovery round refetches the diffs directly. Seed pinned
/// by scanning: (250‰, seed 4) drops chain replies destined for nodes
/// that then initiated recovery.
#[test]
fn dropped_chain_reply_to_requester_is_recovered() {
    let (vals, outcome) = lossy_rse_run(250, 4);
    let reply_to_recovering = outcome.loss_events.iter().any(|e| {
        e.multicast && e.class == MsgClass::DiffReply && outcome.probes[e.dst].recovery_rounds > 0
    });
    assert!(
        reply_to_recovering,
        "pinned seed must drop a chain reply to a node that then recovered; \
         probes: {:?}, loss log: {:?}",
        outcome.probes, outcome.loss_events
    );
    assert_converged(&vals, &outcome);
}

/// Regression: a chain that completes with holes delivered only part of
/// the wanted diffs; the requester's recovery rounds must fill exactly
/// that gap. Before the recovery-budget and OOB-reply fixes this schedule
/// either asserted (turn-order violation) or returned stale zeros.
/// Seed pinned by scanning: (400‰, seed 4) produces both holes and
/// recovery rounds.
#[test]
fn recovery_completes_pages_the_chain_missed() {
    let (vals, outcome) = lossy_rse_run(400, 4);
    assert!(
        outcome.probes.iter().any(|p| p.chain_holes > 0),
        "pinned seed must produce chain holes; probes: {:?}",
        outcome.probes
    );
    assert!(
        outcome.probes.iter().any(|p| p.recovery_rounds > 0),
        "pinned seed must exercise §5.4.2 recovery; probes: {:?}",
        outcome.probes
    );
    assert_converged(&vals, &outcome);
}
