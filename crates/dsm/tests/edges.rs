//! Edge cases of the DSM: page-straddling values, degenerate cluster
//! sizes, allocator behaviour, preloaded images, lock chains across
//! managers, big-value round trips, forged stragglers in every wait, and
//! a handler or an application that panics on a message it cannot accept.

use std::sync::Arc;

use parking_lot::Mutex;
use repseq_dsm::{
    impl_pod_struct, Cluster, ClusterConfig, DsmMsg, DsmNode, PageId, Pod, SeqMode, ShArray,
};
use repseq_sim::{Dur, SimError, Stopped};
use repseq_stats::Stats;

type Apps = Vec<Box<dyn FnOnce(DsmNode) -> Result<(), Stopped> + Send + 'static>>;

fn cluster(n: usize) -> Cluster {
    Cluster::new(ClusterConfig::paper(n), Stats::new(n))
}

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
            *ok2.lock() = true;
        }
        Ok(())
    });
    assert!(*ok.lock());
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
/// all work with no peers.
#[test]
fn single_node_cluster_works() {
    let mut cl = cluster(1);
    let x = cl.alloc_var::<u64>();
    let done = Arc::new(Mutex::new(0u64));
    let done2 = Arc::clone(&done);
    let apps: Apps = vec![Box::new(move |node: DsmNode| {
        node.barrier()?;
        node.lock(5)?;
        x.set(&node, 17)?;
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
        *done2.lock() = x.get(&node)?;
        node.shutdown_slaves()
    })];
    cl.launch(apps).unwrap();
    assert_eq!(*done.lock(), 36);
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
            *out2.lock() = v;
        }
        Ok(())
    });
    assert_eq!(*out.lock(), vec![4u64; 8]);
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
    let apps: Apps = vec![
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
            *ok2.lock() = true;
        }
        Ok(())
    });
    assert!(*ok.lock());
}

/// The shared-heap allocator respects alignment and rejects exhaustion.
#[test]
fn allocator_alignment_and_exhaustion() {
    let mut cfg = ClusterConfig::paper(2);
    cfg.dsm.heap_pages = 4; // 16 KB heap
    let mut cl = Cluster::new(cfg, Stats::new(2));
    let a: ShArray<u64> = cl.alloc_array(10);
    assert_eq!(a.addr(0) % 8, 0);
    let b: ShArray<u8> = cl.alloc_array_page_aligned(100);
    assert_eq!(b.addr(0) % 4096, 0);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let _c: ShArray<u64> = cl.alloc_array(10_000); // 80 KB > 16 KB heap
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
            *ok2.lock() = true;
        }
        Ok(())
    });
    assert!(*ok.lock());
}

/// Page-span helper used by the broadcast ablation.
#[test]
fn page_span_covers_array() {
    let mut cl = cluster(2);
    let arr: ShArray<u64> = cl.alloc_array_page_aligned(1024); // exactly 2 pages
    let (first, last) = arr.page_span(4096);
    assert_eq!(last - first + 1, 2);
    let one: ShArray<u8> = cl.alloc_array(1);
    let (f2, l2) = one.page_span(4096);
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
    cfg.dsm.rse_max_retries = 30;
    let mut cl = Cluster::new(cfg, Arc::clone(&stats));
    let x: ShArray<u64> = cl.alloc_array_page_aligned(8);
    let drained = Arc::new(Mutex::new(0u64));
    let drained2 = Arc::clone(&drained);

    let apps: Apps = vec![
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
                *drained2.lock() += 1;
            }
            Ok(())
        }),
        Box::new(move |node: DsmNode| {
            x.set(&node, 0, 42)?;
            node.barrier()?;
            // Forge the straggler: a reply for the page the master is about
            // to fetch, carrying the colliding req_id 1, sent from this
            // *application* pid (pid 3 — not a handler).
            let page = (x.addr(0) / node.page_size() as u64) as PageId;
            let msg = DsmMsg::DiffReply { page, diffs: Vec::new(), req_id: 1 };
            // The raw send bypasses the network model, so it keeps the
            // minimum cross-node latency (~45 us here) itself; 60 us still
            // lands inside the master's ~200 us fetch window.
            node.ctx().send(2, msg, node.ctx().now() + Dur::from_micros(60));
            node.barrier()?;
            Ok(())
        }),
    ];
    cl.launch(apps).expect("forged reply must not kill the fetch");

    let stale = stats.snapshot().total_agg_with_startup().stale_replies + *drained.lock();
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
    let apps: Apps = (0..n)
        .map(|_| {
            Box::new(move |node: DsmNode| {
                if node.node() == 1 {
                    // No handler expects a diff *reply*. The raw send
                    // bypasses the network model, so it keeps the minimum
                    // cross-node latency itself.
                    let stray = DsmMsg::DiffReply { page: 0, diffs: Vec::new(), req_id: 1 };
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
        node.ctx().send(n + to, DsmMsg::DiffReply { page: 0, diffs: Vec::new(), req_id: 0 }, at);
        node.ctx().send(n + to, DsmMsg::WakePage { page: 0 }, at);
    };
    // The forger stays busy long after they land, so the target still waits.
    let linger = |node: &DsmNode| node.ctx().sleep(Dur::from_millis(1));
    for wait in [Wait::Parked, Wait::Joins, Wait::ValidNotices, Wait::SeqGo, Wait::SeqDone] {
        let stats = Stats::new(n);
        let apps: Apps = vec![
            Box::new(move |node: DsmNode| {
                if wait == Wait::Parked {
                    forge(&node, 1);
                    linger(&node)?;
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
                    forge(&node, 0);
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
                node.shutdown_slaves()
            }),
            Box::new(|node: DsmNode| node.slave_loop()),
        ];
        let cl = Cluster::new(ClusterConfig::paper(n), Arc::clone(&stats));
        let report = cl.launch(apps).unwrap_or_else(|e| panic!("{wait:?}: {e:?}"));
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
    let apps: Apps = (0..n)
        .map(|_| {
            Box::new(move |node: DsmNode| {
                if node.node() == 1 {
                    node.ctx().send(n, DsmMsg::SeqGo, node.ctx().now() + Dur::from_micros(60));
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
