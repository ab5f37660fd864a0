//! Edge cases of the DSM: page-straddling values, degenerate cluster
//! sizes, allocator behaviour, preloaded images, lock chains across
//! managers, big-value round trips, forged stragglers in every wait, and
//! a handler or an application that panics on a message it cannot accept.

use std::sync::{Arc, Mutex};

use repseq_dsm::{
    impl_pod_struct, AppFn, Cluster, ClusterConfig, DsmMsg, DsmNode, PageId, Pod, SeqMode, ShArray,
    Vc, HEAP_PAGES, PAGE_SIZE,
};
use repseq_sim::{Dur, SimError, Stopped};
use repseq_stats::{Section, Stats};

fn cluster(n: usize) -> Cluster {
    Cluster::new(ClusterConfig::paper(n), Stats::new(n))
}

fn spmd(
    cl: Cluster,
    n: usize,
    f: impl Fn(&DsmNode) -> Result<(), Stopped> + Send + Sync + 'static,
) {
    let f = Arc::new(f);
    let apps: Vec<AppFn> = (0..n)
        .map(|_| {
            let f = Arc::clone(&f);
            Box::new(move |node: DsmNode| f(&node)) as _
        })
        .collect();
    cl.launch(apps).expect("simulation failed");
}

/// A value whose bytes straddle a page boundary is read and written
/// correctly, with faults taken on both pages.
#[test]
fn values_straddle_page_boundaries() {
    let n = 2;
    let mut cl = cluster(n);
    // Elements of 24 bytes: 4096/24 is not integral, so elements straddle.
    let arr: ShArray<[f64; 3]> = cl.alloc_array_page_aligned(400);
    let straddler = (0..400)
        .find(|&i| {
            let a = arr.addr(i);
            a / 4096 != (a + 23) / 4096
        })
        .expect("some element must straddle");
    let ok = Arc::new(Mutex::new(false));
    let ok2 = Arc::clone(&ok);
    spmd(cl, n, move |node| {
        if node.is_master() {
            arr.set(node, straddler, [1.5, -2.5, 3.25])?;
        }
        node.barrier()?;
        let v = arr.get(node, straddler)?;
        assert_eq!(v, [1.5, -2.5, 3.25]);
        if node.node() == 1 {
            *ok2.lock().unwrap() = true;
        }
        Ok(())
    });
    assert!(*ok.lock().unwrap());
}

/// A write guard owns the copy of a straddling element, so two guards
/// swapped between nested `with_slices_mut` calls each keep their bytes:
/// the outer run reads the inner element after the inner call returned
/// and freed its iteration's memory, and a fresh allocation of the same
/// size has had the chance to reuse it.
#[test]
fn a_straddling_run_swapped_between_nested_guards_keeps_its_bytes() {
    let mut cl = cluster(1);
    let arr: ShArray<[f64; 3]> = cl.alloc_array_page_aligned(400);
    let mut straddlers = (0..400).filter(|&i| arr.addr(i) / 4096 != (arr.addr(i) + 23) / 4096);
    let (s, t) = (straddlers.next().unwrap(), straddlers.next().unwrap());
    cl.preload_at(arr, s, [1.0; 3]);
    cl.preload_at(arr, t, [2.0; 3]);
    spmd(cl, 1, move |node| {
        arr.with_slices_mut(node, s..s + 1, |outer| {
            arr.with_slices_mut(node, t..t + 1, |inner| {
                std::mem::swap(outer, inner);
                Ok(())
            })?;
            let reuse = std::hint::black_box(vec![0xEEu8; 24]);
            assert_eq!(outer.get(0), [2.0; 3], "the outer guard lost the bytes it took");
            drop(reuse);
            outer.set(0, [3.0; 3]);
            Ok(())
        })?;
        // A call writes back what its loop's guard holds, if it was written.
        assert_eq!(arr.get(node, s)?, [3.0; 3]);
        assert_eq!(arr.get(node, t)?, [2.0; 3]);
        Ok(())
    });
}

/// Single-node clusters degrade gracefully: barriers, locks and sections
/// all work with no peers, and a replicated section exchanges no valid
/// notices with them.
#[test]
fn single_node_cluster_works() {
    let stats = Stats::new(1);
    let mut cl = Cluster::new(ClusterConfig::paper(1), Arc::clone(&stats));
    let x = cl.alloc_var::<u64>();
    let (done, run) = cl.launch_master(move |node| {
        node.barrier()?;
        node.lock(5)?;
        x.set(node, 17)?;
        node.unlock(5)?;
        node.barrier()?;
        node.run_sequential(SeqMode::Replicated, move |nd| {
            let v = x.get(nd)?;
            x.set(nd, v + 1)
        })?;
        node.run_parallel(move |nd| {
            let v = x.get(nd)?;
            x.set(nd, v * 2)
        })?;
        x.get(node)
    });
    run.result.unwrap();
    assert_eq!(done, Some(36));
    assert_eq!(stats.snapshot().total_agg_with_startup().valid_notice_msgs, 0);
}

/// Preloaded initial images are visible on every node without any
/// communication.
#[test]
fn preload_is_visible_everywhere_for_free() {
    let n = 3;
    let stats = Stats::new(n);
    let mut cl = Cluster::new(ClusterConfig::paper(n), Arc::clone(&stats));
    let arr: ShArray<u32> = cl.alloc_array(1000);
    let vals: Vec<u32> = (0..1000).map(|i| i * 3 + 1).collect();
    cl.preload(arr, &vals);
    stats.start_measurement(repseq_sim::SimTime::ZERO);
    spmd(cl, n, move |node| {
        for i in (0..1000).step_by(97) {
            assert_eq!(arr.get(node, i)?, (i as u32) * 3 + 1);
        }
        Ok(())
    });
    let snap = stats.snapshot();
    assert_eq!(snap.total_agg().diff_messages, 0, "preloaded data needs no diffs");
}

/// Locks with different managers chain correctly when acquired by many
/// nodes in interleaved orders.
#[test]
fn many_locks_many_managers() {
    let n = 4;
    let mut cl = cluster(n);
    let counters: ShArray<u64> = cl.alloc_array_page_aligned(8);
    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    spmd(cl, n, move |node| {
        // Locks 0..8 are managed by nodes (l % 4). Every node increments
        // every counter under its lock, in a node-specific order.
        for round in 0..8 {
            let l = (round + node.node() * 3) % 8;
            node.lock(l as u32)?;
            let v = counters.get(node, l)?;
            counters.set(node, l, v + 1)?;
            node.unlock(l as u32)?;
        }
        node.barrier()?;
        if node.is_master() {
            let mut v = Vec::new();
            for l in 0..8 {
                v.push(counters.get(node, l)?);
            }
            *out2.lock().unwrap() = v;
        }
        Ok(())
    });
    assert_eq!(*out.lock().unwrap(), vec![4u64; 8]);
}

/// Re-acquiring a cached lock (token still local) is free of traffic.
#[test]
fn lock_token_caching_avoids_traffic() {
    let n = 2;
    let stats = Stats::new(n);
    let mut cl = Cluster::new(ClusterConfig::paper(n), Arc::clone(&stats));
    let x = cl.alloc_var::<u64>();
    stats.start_measurement(repseq_sim::SimTime::ZERO);
    stats.set_section(repseq_stats::Section::Parallel, repseq_sim::SimTime::ZERO);
    let apps: Vec<AppFn> = vec![
        Box::new(move |node: DsmNode| {
            // Master acquires the same lock many times with nobody
            // contending: after the first acquire the token stays local.
            for i in 0..20 {
                node.lock(2)?;
                x.set(&node, i)?;
                node.unlock(2)?;
            }
            node.barrier()?;
            Ok(())
        }),
        Box::new(|node: DsmNode| {
            node.barrier()?;
            Ok(())
        }),
    ];
    cl.launch(apps).unwrap();
    let snap = stats.snapshot();
    // One manager round-trip for the first acquire (lock 2 is managed by
    // node 0 itself → local messages only), plus the barrier traffic.
    let total = snap.total_agg();
    assert!(
        total.messages <= 6,
        "cached re-acquires must not generate traffic: {} messages",
        total.messages
    );
}

/// Big Pod structs (up to the 256-byte access limit) round-trip through
/// shared memory.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Big {
    a: [f64; 16],
    b: [u32; 16],
    c: u64,
}
impl_pod_struct!(Big { a: [f64; 16], b: [u32; 16], c: u64 });

#[test]
fn large_pod_values_roundtrip() {
    assert_eq!(Big::SIZE, 16 * 8 + 16 * 4 + 8);
    let n = 2;
    let mut cl = cluster(n);
    let arr: ShArray<Big> = cl.alloc_array(10);
    let ok = Arc::new(Mutex::new(false));
    let ok2 = Arc::clone(&ok);
    spmd(cl, n, move |node| {
        let v = Big { a: [0.5; 16], b: [7; 16], c: 99 };
        if node.is_master() {
            arr.set(node, 3, v)?;
        }
        node.barrier()?;
        assert_eq!(arr.get(node, 3)?, v);
        if node.node() == 1 {
            *ok2.lock().unwrap() = true;
        }
        Ok(())
    });
    assert!(*ok.lock().unwrap());
}

/// The shared-heap allocator respects alignment and rejects exhaustion.
#[test]
fn allocator_alignment_and_exhaustion() {
    let mut cl = cluster(2);
    let a: ShArray<u64> = cl.alloc_array(10);
    assert_eq!(a.addr(0) % 8, 0);
    let b: ShArray<u8> = cl.alloc_array_page_aligned(100);
    assert_eq!(b.addr(0) % PAGE_SIZE as u64, 0);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        // An allocation is address space only: nothing is touched.
        let _c: ShArray<u8> = cl.alloc_array(HEAP_PAGES * PAGE_SIZE); // past the heap
    }));
    assert!(r.is_err(), "heap exhaustion must panic with a clear message");
}

/// `read_range`/`write_range` round-trip across many pages, including
/// unaligned starts.
#[test]
fn bulk_ranges_roundtrip() {
    let n = 2;
    let mut cl = cluster(n);
    let arr: ShArray<u64> = cl.alloc_array_page_aligned(3000);
    let ok = Arc::new(Mutex::new(false));
    let ok2 = Arc::clone(&ok);
    spmd(cl, n, move |node| {
        if node.is_master() {
            let vals: Vec<u64> = (0..1500).map(|i| i * 11).collect();
            arr.write_range(node, 777, &vals)?;
        }
        node.barrier()?;
        let mut out = vec![0u64; 1500];
        arr.read_range(node, 777, &mut out)?;
        for (k, &v) in out.iter().enumerate() {
            assert_eq!(v, (k as u64) * 11);
        }
        if node.node() == 1 {
            *ok2.lock().unwrap() = true;
        }
        Ok(())
    });
    assert!(*ok.lock().unwrap());
}

/// An index one past the end panics in every build, release included,
/// through an access and through a preload: it would name the bytes of the
/// next allocation.
#[test]
#[should_panic(expected = "index 4 out of bounds (4 elements)")]
fn an_index_past_the_end_panics_in_every_build() {
    let mut cl = cluster(2);
    let arr: ShArray<u64> = cl.alloc_array(4);
    let _next: ShArray<u64> = cl.alloc_array(4);
    let (_, outcome) = cl.launch_master(move |node| arr.get(node, 4));
    assert!(
        matches!(outcome.result, Err(SimError::ProcessPanicked { .. })),
        "a get past the end must panic"
    );
    let mut cl = cluster(2);
    let arr: ShArray<u64> = cl.alloc_array(4);
    cl.preload_at(arr, 4, 1);
}

/// Page-span helper used by the broadcast ablation.
#[test]
fn page_span_covers_array() {
    let mut cl = cluster(2);
    let arr: ShArray<u64> = cl.alloc_array_page_aligned(1024); // exactly 2 pages
    let (first, last) = arr.page_span();
    assert_eq!(last - first + 1, 2);
    let one: ShArray<u8> = cl.alloc_array(1);
    let (f2, l2) = one.page_span();
    assert_eq!(f2, l2);
}

/// Regression: a `DiffReply` whose `req_id` collides with the outstanding
/// fetch but whose *sender* is not a protocol handler — a straggler from a
/// retired exchange, such as an RSE out-of-band reply sent by an
/// application process — used to kill the node with `expect("diff reply
/// from unknown handler")`. It must be absorbed and counted instead. The
/// retry timeout is set below the request/reply round trip, so the fetch
/// resends before the genuine reply arrives and the resend duplicates are
/// absorbed downstream of the fetch.
#[test]
fn matching_reply_from_unknown_sender_is_absorbed_not_fatal() {
    let n = 2;
    let stats = Stats::new(n);
    let mut cfg = ClusterConfig::paper(n);
    // Below the ~200 us unicast round trip: the fetch times out and
    // resends before any genuine reply can arrive.
    cfg.dsm.rse_timeout = Dur::from_micros(60);
    let mut cl = Cluster::new(cfg, Arc::clone(&stats));
    let x: ShArray<u64> = cl.alloc_array_page_aligned(8);
    let drained = Arc::new(Mutex::new(0u64));
    let drained2 = Arc::clone(&drained);

    let apps: Vec<AppFn> = vec![
        Box::new(move |node: DsmNode| {
            node.barrier()?;
            // Fetches node 1's write; the forged reply (below) is already
            // queued or in flight and is consumed inside this fetch loop.
            assert_eq!(x.get(&node, 0)?, 42);
            node.barrier()?;
            // Drain the resend duplicates that arrive after the barrier, so
            // none is left in the mailbox at exit.
            while let Some(env) = node.ctx().recv_timeout(Dur::from_millis(2))? {
                assert!(matches!(env.msg, DsmMsg::DiffReply { .. }), "only stale replies expected");
                *drained2.lock().unwrap() += 1;
            }
            Ok(())
        }),
        Box::new(move |node: DsmNode| {
            x.set(&node, 0, 42)?;
            node.barrier()?;
            // Forge the straggler: a reply for the page the master is about
            // to fetch, carrying the colliding req_id 1, sent from this
            // *application* pid (pid 3 — not a handler).
            let page = (x.addr(0) / PAGE_SIZE as u64) as PageId;
            let msg = DsmMsg::DiffReply { page, diffs: Vec::new(), req_id: 1, image: None };
            // The raw send bypasses the network model, so it keeps the
            // minimum cross-node latency (~45 us here) itself; 60 us still
            // lands inside the master's ~200 us fetch window.
            node.ctx().send(2, msg, node.ctx().now() + Dur::from_micros(60));
            node.barrier()?;
            Ok(())
        }),
    ];
    cl.launch(apps).expect("forged reply must not kill the fetch");

    let stale = stats.snapshot().total_agg_with_startup().stale_replies + *drained.lock().unwrap();
    assert!(
        stale >= 2,
        "expected the forged reply plus at least one resend duplicate to be absorbed, got {stale}"
    );
}

/// On the simulator a handler is a reactor: it runs on the coordinator's
/// stack, on the thread every application of the cluster runs on. A stray
/// message that makes it panic must fail the run under the *handler's* pid
/// and name — not take down, and be blamed on, an application.
#[test]
fn a_stray_message_fails_the_run_under_the_handlers_name() {
    let n = 3;
    let apps: Vec<AppFn> = (0..n)
        .map(|_| {
            Box::new(move |node: DsmNode| {
                if node.node() == 1 {
                    // No handler expects a diff *reply*. The raw send
                    // bypasses the network model, so it keeps the minimum
                    // cross-node latency itself.
                    let stray =
                        DsmMsg::DiffReply { page: 0, diffs: Vec::new(), req_id: 1, image: None };
                    node.ctx().send(2, stray, node.ctx().now() + Dur::from_micros(60));
                }
                // Everyone is parked in the barrier when it lands.
                node.barrier()?;
                node.ctx().sleep(Dur::from_millis(1))
            }) as _
        })
        .collect();
    match cluster(n).launch(apps) {
        Err(SimError::ProcessPanicked { pid, name }) => {
            assert_eq!((pid, name.as_str()), (2, "handler2"))
        }
        other => panic!("expected the handler's panic, got {other:?}"),
    }
}

/// Every wait absorbs stragglers by one rule — a duplicate diff reply is
/// counted stale, a late page wakeup dropped — not only the barrier, the
/// lock and the fetches. One of each is forged to land while the target
/// application waits in each other state; the run must complete with
/// every mailbox empty and count the forged reply.
#[test]
fn stale_replies_are_counted_in_every_wait() {
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Wait {
        Parked,
        Joins,
        ValidNotices,
        SeqGo,
        SeqDone,
    }
    let n = 2;
    // To node `to`'s application (pids n..2n); the raw send bypasses the
    // network model, so it keeps the minimum cross-node latency itself.
    let forge = move |node: &DsmNode, to: usize| {
        let at = node.ctx().now() + Dur::from_micros(60);
        let stray = DsmMsg::DiffReply { page: 0, diffs: Vec::new(), req_id: 0, image: None };
        node.ctx().send(n + to, stray, at);
        node.ctx().send(n + to, DsmMsg::WakePage { page: 0 }, at);
    };
    // The forger stays busy long after they land, so the target still waits.
    let linger = |node: &DsmNode| node.ctx().sleep(Dur::from_millis(1));
    for wait in [Wait::Parked, Wait::Joins, Wait::ValidNotices, Wait::SeqGo, Wait::SeqDone] {
        let stats = Stats::new(n);
        let cl = Cluster::new(ClusterConfig::paper(n), Arc::clone(&stats));
        let (_, run) = cl.launch_master(move |node| {
            if wait == Wait::Parked {
                forge(node, 1);
                linger(node)?;
            }
            node.run_parallel(move |nd| match (wait, nd.node()) {
                (Wait::Joins, 1) => {
                    forge(nd, 0);
                    linger(nd)
                }
                _ => Ok(()),
            })?;
            // Between sections every slave is parked: the master forges
            // its own stragglers, just before the exchange.
            if wait == Wait::ValidNotices {
                forge(node, 0);
            }
            node.run_sequential(SeqMode::Replicated, move |nd| match (wait, nd.node()) {
                // Forged once the slave has finished its copy of the
                // body and awaits SeqGo.
                (Wait::SeqGo, 0) => {
                    linger(nd)?;
                    forge(nd, 1);
                    linger(nd)
                }
                (Wait::SeqDone, 1) => {
                    forge(nd, 0);
                    linger(nd)
                }
                _ => Ok(()),
            })?;
            Ok(())
        });
        let report = run.result.unwrap_or_else(|e| panic!("{wait:?}: {e:?}"));
        assert!(report.mailbox_backlog.is_empty(), "{wait:?}: {:?}", report.mailbox_backlog);
        let stale = stats.snapshot().total_agg_with_startup().stale_replies;
        assert_eq!(stale, 1, "{wait:?}: the forged reply must be counted stale");
    }
}

/// A message that no wait-state accepts fails the run under the name of
/// the application that received it: here a SeqGo while at a barrier.
#[test]
fn a_message_no_wait_accepts_fails_the_run_under_the_apps_name() {
    let n = 2;
    let apps: Vec<AppFn> = (0..n)
        .map(|_| {
            Box::new(move |node: DsmNode| {
                if node.node() == 1 {
                    let go = DsmMsg::SeqGo { retired: Arc::new([]) };
                    node.ctx().send(n, go, node.ctx().now() + Dur::from_micros(60));
                }
                node.barrier()?;
                node.ctx().sleep(Dur::from_millis(1))
            }) as _
        })
        .collect();
    match cluster(n).launch(apps) {
        Err(SimError::ProcessPanicked { pid, name }) => {
            assert_eq!((pid, name.as_str()), (n, "app0"))
        }
        other => panic!("expected app0's panic, got {other:?}"),
    }
}

/// A replicated section that writes a page retires it valid everywhere,
/// and every node forgets its history. A straggler naming that history
/// lands after the section: a diff request and a recovery request are
/// answered with an empty reply, counted stale by the requester, and a
/// late forwarded request runs a chain of null turns. No run panics.
#[test]
fn stragglers_naming_collected_history_are_answered_as_stale() {
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Forged {
        Nothing,
        DiffRequest,
        RecoveryRequest,
        ChainTurns,
    }
    let n = 2;
    let run = |forged: Forged| {
        let stats = Stats::new(n);
        let mut cl = Cluster::new(ClusterConfig::paper(n), Arc::clone(&stats));
        let x: ShArray<u64> = cl.alloc_array_page_aligned(8);
        let (_, run) = cl.launch_master(move |node| {
            // Node 1's interval 1 writes the page; the section's fault
            // on node 0 fetches its diff, and the section retires it.
            node.run_parallel(move |nd| if nd.node() == 1 { x.set(nd, 0, 7) } else { Ok(()) })?;
            node.run_sequential(SeqMode::Replicated, move |nd| x.set(nd, 1, x.get(nd, 0)?))?;
            node.run_parallel(|nd| {
                assert_eq!(nd.ctx().state().held(), (0, 0), "node {}", nd.node());
                Ok(())
            })?;
            let page = (x.addr(0) / PAGE_SIZE as u64) as PageId;
            let (req_id, req_seq) = (99, 99);
            let (msg, to) = match forged {
                Forged::Nothing => return Ok(()),
                Forged::DiffRequest => {
                    (DsmMsg::DiffRequest { page, ivxs: vec![1], from: 0, req_id }, 1..2)
                }
                Forged::RecoveryRequest => (DsmMsg::RecoveryRequest { page, ivxs: vec![1] }, 1..2),
                Forged::ChainTurns => {
                    let wanted = vec![(1, 1)];
                    (DsmMsg::McastForward { page, wanted, requester: 0, req_seq }, 0..n)
                }
            };
            // To the handlers (pids 0..n); the raw send bypasses the
            // network model, so it keeps the minimum latency itself.
            let at = node.ctx().now() + Dur::from_micros(60);
            to.for_each(|pid| node.ctx().send(pid, msg.clone(), at));
            node.ctx().sleep(Dur::from_millis(1))?;
            node.run_parallel(|_| Ok(()))
        });
        let report = run.result.unwrap_or_else(|e| panic!("{forged:?}: {e:?}"));
        assert!(report.mailbox_backlog.is_empty(), "{forged:?}: {:?}", report.mailbox_backlog);
        stats.snapshot().total_agg_with_startup()
    };
    let base = run(Forged::Nothing);
    for forged in [Forged::DiffRequest, Forged::RecoveryRequest] {
        assert_eq!(run(forged).stale_replies, base.stale_replies + 1, "{forged:?}");
    }
    let turns = run(Forged::ChainTurns);
    assert_eq!(turns.null_acks, base.null_acks + n as u64, "every turn is null");
    assert_eq!(turns.diff_bytes, base.diff_bytes + 24 * n as u64, "and carries no diff");
}

/// A hand-inserted broadcast that lands late must not undo newer state.
/// Node 0 writes word 0 of a page, and the fork carries the write notice
/// to node 1. Node 1 then demand-fetches the write (`fetched`, a fresher
/// valid copy) or leaves its copy invalid. A forged `PageBroadcast` of the
/// page as it was before the write (zeros, at the zero vector time) lands
/// on node 1's handler, and node 1 must still read the write.
fn a_late_broadcast_lands(fetched: bool) -> Result<repseq_sim::SimReport, SimError> {
    let n = 2;
    let mut cl = cluster(n);
    let x: ShArray<u64> = cl.alloc_array_page_aligned(8);
    let read = move |nd: &DsmNode| -> Result<(), Stopped> {
        if nd.node() == 1 {
            assert_eq!(x.get(nd, 0)?, 42, "node 1 lost the write");
        }
        Ok(())
    };
    let (_, run) = cl.launch_master(move |node| {
        x.set(node, 0, 42)?;
        node.run_parallel(move |nd| if fetched { read(nd) } else { Ok(()) })?;
        let page = (x.addr(0) / PAGE_SIZE as u64) as PageId;
        let data: Arc<[u8]> = vec![0; PAGE_SIZE].into();
        let stale = DsmMsg::PageBroadcast { page, data, vc: Vc::zero(n) };
        // To node 1's handler (pid 1); the raw send bypasses the network
        // model, so it keeps the minimum latency itself.
        node.ctx().send(1, stale, node.ctx().now() + Dur::from_micros(60));
        node.ctx().sleep(Dur::from_millis(1))?;
        node.run_parallel(read)
    });
    run.result
}

#[test]
fn a_late_broadcast_leaves_a_fresher_copy_alone() {
    a_late_broadcast_lands(true).expect("the stale bytes must not replace the fetched write");
}

#[test]
fn a_late_broadcast_leaves_a_page_with_an_uncovered_notice_invalid() {
    a_late_broadcast_lands(false).expect("the copy must stay invalid and fetch the write");
}

/// A slave that enters a replicated section and faults before the
/// master's own fork loop returns sends its `McastRequest` one epoch
/// ahead of the master (routine at hundreds of nodes). Forged here: node
/// 1's request for the page node 0 wrote (node 0's interval 1), at the
/// epoch of the master's first replicated section, lands at the master's
/// handler before that section. The master must forward it, not drop it
/// as a zombie: the reply chain completes node 1's copy, which then
/// neither faults nor asks again inside the section.
#[test]
fn a_request_ahead_of_the_master_is_forwarded() {
    let n = 2;
    let stats = Stats::new(n);
    let mut cl = Cluster::new(ClusterConfig::paper(n), Arc::clone(&stats));
    let x: ShArray<u64> = cl.alloc_array_page_aligned(8);
    let (_, run) = cl.launch_master(move |node| {
        x.set(node, 0, 42)?;
        // The fork carries the write notice: node 1's copy is invalid.
        node.run_parallel(|_| Ok(()))?;
        let page = (x.addr(0) / PAGE_SIZE as u64) as PageId;
        let early = DsmMsg::McastRequest { page, wanted: vec![(0, 1)], requester: 1, epoch: 1 };
        // To node 0's handler (pid 0), with the minimum latency.
        node.ctx().send(0, early, node.ctx().now() + Dur::from_micros(60));
        node.ctx().sleep(Dur::from_millis(1))?;
        node.run_sequential(SeqMode::Replicated, move |nd| {
            assert_eq!(x.get(nd, 0)?, 42, "node {} lost the write", nd.node());
            Ok(())
        })
    });
    run.result.expect("simulation failed");
    // Nothing here starts a measurement: the whole run counts as startup.
    let snap = stats.snapshot();
    let early = snap.nodes[1].section(Section::Startup);
    assert_eq!(
        (early.page_faults, early.diff_requests),
        (0, 0),
        "node 1 faulted and asked again: the early request was dropped"
    );
    assert_eq!(snap.total_agg_with_startup().forwarded_requests, 1);
}

/// A chain turn for a page whose copy is valid leaves the copy alone: no
/// bytes of its own, and its valid notice not raised to the node's
/// vector time, which the next exchange would announce to every node.
/// Node 1 holds the untouched page valid at the zero stamp, and is past
/// an interval of its own when the forged turn (an out-of-band reply with
/// no diffs) reaches its handler.
#[test]
fn a_turn_for_a_valid_page_leaves_its_copy_alone() {
    let n = 2;
    let mut cl = cluster(n);
    let x: ShArray<u64> = cl.alloc_array_page_aligned(8);
    let y: ShArray<u64> = cl.alloc_array_page_aligned(8);
    let (_, run) = cl.launch_master(move |node| {
        node.run_parallel(move |nd| if nd.node() == 1 { y.set(nd, 0, 7) } else { Ok(()) })?;
        let page = (x.addr(0) / PAGE_SIZE as u64) as PageId;
        let (turn, req_seq) = (0, u64::MAX);
        let msg = DsmMsg::McastDiffReply { page, diffs: vec![], turn, req_seq };
        node.ctx().send(1, msg, node.ctx().now() + Dur::from_micros(60));
        node.ctx().sleep(Dur::from_millis(1))?;
        node.run_parallel(move |nd| {
            if nd.node() == 1 {
                let mut st = nd.ctx().state();
                assert_eq!(st.footprint().0.len(), 1, "only y's page is node 1's own");
                assert_eq!(st.page_mut(page).valid_at, Vc::zero(n), "the valid notice moved");
            }
            Ok(())
        })
    });
    run.result.expect("the run must complete");
}
