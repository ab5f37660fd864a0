//! Network model tests: bandwidth serialization, switch queueing,
//! convergent contention, hub behaviour, loss.

use std::sync::{Arc, Mutex};

use repseq_net::{
    multicast_wire_time, unicast_wire_time, LossConfig, NetConfig, Network, RECV_SW_OVERHEAD,
    SEND_SW_OVERHEAD, SWITCH_LATENCY,
};
use repseq_sim::{Dur, Sim, SimTime};
use repseq_stats::{MsgClass, Section, Stats};

fn cfg4() -> NetConfig {
    NetConfig::paper(4)
}

/// Delivery time of a single uncontended unicast frame:
/// send overhead + wire + switch latency + wire (store-and-forward)
/// + receive overhead.
#[test]
fn uncontended_unicast_latency() {
    let cfg = cfg4();
    let stats = Stats::new(4);
    let net = Network::new(cfg, Arc::clone(&stats));
    let mut sim = Sim::<u64>::new();
    let nic0 = net.nic(0);
    sim.spawn("sender", move |ctx| {
        nic0.unicast(&ctx, 1, 1, MsgClass::Other, 1442, 7);
        Ok(())
    });
    let got = Arc::new(Mutex::new(SimTime::ZERO));
    let got2 = Arc::clone(&got);
    sim.spawn("receiver", move |ctx| {
        let env = ctx.recv()?;
        *got2.lock().unwrap() = env.at;
        Ok(())
    });
    sim.run().unwrap();
    let expect = SimTime::ZERO
        + SEND_SW_OVERHEAD
        + unicast_wire_time(1442)
        + SWITCH_LATENCY
        + unicast_wire_time(1442)
        + RECV_SW_OVERHEAD;
    assert_eq!(*got.lock().unwrap(), expect);
}

/// Two frames from the same sender serialize on its transmit link.
#[test]
fn sender_link_serializes() {
    let cfg = cfg4();
    let stats = Stats::new(4);
    let net = Network::new(cfg, stats);
    let mut sim = Sim::<u64>::new();
    let nic0 = net.nic(0);
    sim.spawn("sender", move |ctx| {
        // Two sends back-to-back with no compute in between: the second
        // pays the first's wire time on the shared tx link.
        nic0.unicast(&ctx, 1, 1, MsgClass::Other, 1442, 1);
        nic0.unicast(&ctx, 2, 2, MsgClass::Other, 1442, 2);
        Ok(())
    });
    let times = Arc::new(Mutex::new(vec![SimTime::ZERO; 2]));
    for node in [1usize, 2] {
        let times = Arc::clone(&times);
        sim.spawn(&format!("r{node}"), move |ctx| {
            let env = ctx.recv()?;
            times.lock().unwrap()[node - 1] = env.at;
            Ok(())
        });
    }
    sim.run().unwrap();
    let t = times.lock().unwrap();
    let wire = unicast_wire_time(1442);
    // Receiver 2's frame waited for frame 1 on the tx link, then paid the
    // extra send overhead charged before it.
    let gap = t[1] - t[0];
    assert!(gap >= wire, "second frame must queue behind the first: gap {gap}");
}

/// Frames from many senders converging on one receiver serialize at the
/// receiver's switch port — the contention mechanism of §3.
#[test]
fn convergent_frames_queue_at_receiver_port() {
    let cfg = NetConfig::paper(9);
    let stats = Stats::new(9);
    let net = Network::new(cfg, stats);
    let mut sim = Sim::<u64>::new();
    let arrivals = Arc::new(Mutex::new(Vec::<SimTime>::new()));
    let arrivals2 = Arc::clone(&arrivals);
    sim.spawn("sink", move |ctx| {
        for _ in 0..8 {
            let env = ctx.recv()?;
            arrivals2.lock().unwrap().push(env.at);
        }
        Ok(())
    });
    for src in 1..9usize {
        let nic = net.nic(src);
        sim.spawn(&format!("s{src}"), move |ctx| {
            nic.unicast(&ctx, 0, 0, MsgClass::Other, 1442, src as u64);
            Ok(())
        });
    }
    sim.run().unwrap();
    let arrivals = arrivals.lock().unwrap();
    let wire = unicast_wire_time(1442);
    // All 8 senders transmit simultaneously; deliveries must be spaced by
    // at least the wire time of the shared receiver port.
    for pair in arrivals.windows(2) {
        let gap = pair[1] - pair[0];
        assert!(gap >= wire, "deliveries must serialize: gap {gap} < wire {wire}");
    }
    // Total spread ≈ 7 wire times: the last requester waits for all others.
    let spread = *arrivals.last().unwrap() - arrivals[0];
    assert!(spread >= wire * 7);
}

/// One multicast frame reaches every destination at the same instant and is
/// counted once.
#[test]
fn multicast_reaches_all_counted_once() {
    let cfg = cfg4();
    let stats = Stats::new(4);
    let net = Network::new(cfg, Arc::clone(&stats));
    stats.set_section(Section::Replicated, SimTime::ZERO);
    let mut sim = Sim::<u64>::new();
    let nic0 = net.nic(0);
    sim.spawn("sender", move |ctx| {
        let dsts: Vec<_> = (0..4).map(|n| (n, n + 1)).collect();
        nic0.multicast(&ctx, &dsts, MsgClass::DiffReply, 4096, 99);
        Ok(())
    });
    let arrivals = Arc::new(Mutex::new(Vec::<SimTime>::new()));
    for pid in 1..5usize {
        let arrivals = Arc::clone(&arrivals);
        sim.spawn(&format!("r{pid}"), move |ctx| {
            let env = ctx.recv()?;
            arrivals.lock().unwrap().push(env.at);
            Ok(())
        });
    }
    sim.run().unwrap();
    let arrivals = arrivals.lock().unwrap();
    assert_eq!(arrivals.len(), 4);
    assert!(arrivals.iter().all(|&t| t == arrivals[0]), "multicast arrives everywhere at once");
    let snap = stats.snapshot();
    let agg = snap.seq_agg();
    assert_eq!(agg.messages, 1, "one multicast = one message, as in the paper");
    assert_eq!(agg.bytes, 4096);
    assert_eq!(agg.diff_messages, 1);
}

/// Successive multicasts serialize on the hub (half-duplex shared medium),
/// even from different senders.
#[test]
fn hub_serializes_multicasts() {
    let cfg = cfg4();
    let stats = Stats::new(4);
    let net = Network::new(cfg, stats);
    let mut sim = Sim::<u64>::new();
    for src in [0usize, 1] {
        let nic = net.nic(src);
        sim.spawn(&format!("s{src}"), move |ctx| {
            nic.multicast(&ctx, &[(3, 2)], MsgClass::DiffReply, 14_420, src as u64);
            Ok(())
        });
    }
    let arrivals = Arc::new(Mutex::new(Vec::<SimTime>::new()));
    let arrivals2 = Arc::clone(&arrivals);
    sim.spawn("sink", move |ctx| {
        for _ in 0..2 {
            arrivals2.lock().unwrap().push(ctx.recv()?.at);
        }
        Ok(())
    });
    sim.run().unwrap();
    let arrivals = arrivals.lock().unwrap();
    let gap = arrivals[1] - arrivals[0];
    let wire = multicast_wire_time(14_420);
    assert!(gap >= wire, "hub must serialize: gap {gap} < {wire}");
}

/// Hub and switch are independent networks: multicast does not delay
/// unicast.
#[test]
fn hub_and_switch_are_independent() {
    let cfg = cfg4();
    let stats = Stats::new(4);
    let net = Network::new(cfg, stats);
    let mut sim = Sim::<u64>::new();
    let nic0 = net.nic(0);
    sim.spawn("sender", move |ctx| {
        // Big multicast first, then a unicast: the unicast must not queue
        // behind the multicast (separate media).
        nic0.multicast(&ctx, &[(1, 1)], MsgClass::Broadcast, 1_000_000, 0);
        nic0.unicast(&ctx, 1, 1, MsgClass::Other, 100, 1);
        Ok(())
    });
    let order = Arc::new(Mutex::new(Vec::<u64>::new()));
    let order2 = Arc::clone(&order);
    sim.spawn("r", move |ctx| {
        for _ in 0..2 {
            order2.lock().unwrap().push(ctx.recv()?.msg);
        }
        Ok(())
    });
    sim.run().unwrap();
    assert_eq!(*order.lock().unwrap(), vec![1, 0], "small unicast overtakes the big multicast");
}

/// Loopback unicast skips the switch.
#[test]
fn loopback_skips_switch() {
    let cfg = cfg4();
    let stats = Stats::new(4);
    let net = Network::new(cfg, stats);
    let mut sim = Sim::<u64>::new();
    let nic0 = net.nic(0);
    let at = Arc::new(Mutex::new(SimTime::ZERO));
    let at2 = Arc::clone(&at);
    sim.spawn("self", move |ctx| {
        nic0.unicast(&ctx, 0, 0, MsgClass::Other, 100, 5);
        let env = ctx.recv()?;
        *at2.lock().unwrap() = env.at;
        Ok(())
    });
    sim.run().unwrap();
    let expect = SimTime::ZERO + SEND_SW_OVERHEAD + unicast_wire_time(100) + RECV_SW_OVERHEAD;
    assert_eq!(*at.lock().unwrap(), expect);
}

/// Local (same-node, inter-process) messages are free and uncounted.
#[test]
fn local_messages_are_free() {
    let cfg = cfg4();
    let stats = Stats::new(4);
    let net = Network::new(cfg, Arc::clone(&stats));
    let mut sim = Sim::<u64>::new();
    let nic0 = net.nic(0);
    sim.spawn("app", move |ctx| {
        ctx.charge(Dur::from_micros(3));
        nic0.local(&ctx, 1, 11);
        Ok(())
    });
    let at = Arc::new(Mutex::new(SimTime::ZERO));
    let at2 = Arc::clone(&at);
    sim.spawn("handler", move |ctx| {
        *at2.lock().unwrap() = ctx.recv()?.at;
        Ok(())
    });
    sim.run().unwrap();
    assert_eq!(*at.lock().unwrap(), SimTime::from_nanos(3_000));
    assert_eq!(stats.snapshot().total_agg().messages, 0);
}

/// With 100% loss nothing arrives; with 0% everything does.
#[test]
fn loss_injection_extremes() {
    for (rate, expect) in [(1000u32, 0usize), (0, 10)] {
        let mut cfg = cfg4();
        cfg.loss = Some(LossConfig { drop_per_mille: rate, seed: 1, unicast: true });
        let stats = Stats::new(4);
        let net = Network::new(cfg, Arc::clone(&stats));
        let mut sim = Sim::<u64>::new();
        let nic0 = net.nic(0);
        sim.spawn("sender", move |ctx| {
            for i in 0..10 {
                nic0.unicast(&ctx, 1, 1, MsgClass::DiffReply, 100, i);
            }
            // Keep the run alive until all surviving frames are delivered.
            ctx.sleep(Dur::from_secs(1))?;
            Ok(())
        });
        let got = Arc::new(Mutex::new(0usize));
        let got2 = Arc::clone(&got);
        sim.spawn_daemon("receiver", move |ctx| {
            while ctx.recv().is_ok() {
                *got2.lock().unwrap() += 1;
            }
            Ok(())
        });
        sim.run().unwrap();
        assert_eq!(*got.lock().unwrap(), expect, "rate {rate}");
        // Sends are counted even when frames are lost.
        assert_eq!(stats.snapshot().total_agg_with_startup().messages, 10);
    }
}

/// A paper-scale sanity check: 31 clients each requesting a 4 KB diff from
/// node 0 roughly at once see average response times far above the
/// uncontended response time (Table 2's 3.34 ms vs 0.67 ms effect).
#[test]
fn contention_raises_response_time() {
    let n = 32;
    let cfg = NetConfig::paper(n);
    let stats = Stats::new(n);
    let net = Network::new(cfg, stats);
    let mut sim = Sim::<(u64, usize)>::new();

    // Node 0: a server answering each request with a 4 KB reply.
    let server_nic = net.nic(0);
    sim.spawn_daemon("server", move |ctx| {
        while let Ok(env) = ctx.recv() {
            let (_, reply_to) = env.msg;
            ctx.charge(Dur::from_micros(30)); // diff creation
                                              // Client for node N was spawned after the server, so pid == N.
            server_nic.unicast(&ctx, reply_to, reply_to, MsgClass::DiffReply, 4096, (1, 0));
        }
        Ok(())
    });
    let rts = Arc::new(Mutex::new(Vec::<Dur>::new()));
    for node in 1..n {
        let nic = net.nic(node);
        let rts = Arc::clone(&rts);
        sim.spawn(&format!("client{node}"), move |ctx| {
            let t0 = ctx.now();
            nic.unicast(&ctx, 0, 0, MsgClass::DiffRequest, 128, (0, node));
            let _ = ctx.recv()?;
            rts.lock().unwrap().push(ctx.now() - t0);
            Ok(())
        });
    }
    sim.run().unwrap();
    let rts = rts.lock().unwrap();
    let min = rts.iter().copied().fold(Dur::from_secs(1), Dur::min_of);
    let max = rts.iter().copied().fold(Dur::ZERO, Dur::max);
    assert!(
        max > min * 5,
        "the last-served client must wait behind the queue: min {min}, max {max}"
    );
}

/// Turning unicast loss on must not perturb the multicast drop sequence:
/// decisions are keyed per (src, dst, medium), not on a shared call
/// counter, so the same seed pins the same multicast schedule regardless of
/// what the switch is doing.
#[test]
fn unicast_loss_does_not_perturb_multicast_drops() {
    let run = |unicast: bool| {
        let mut cfg = cfg4();
        cfg.loss = Some(LossConfig { drop_per_mille: 400, seed: 77, unicast });
        let stats = Stats::new(4);
        let net = Network::new(cfg, stats);
        let mut sim = Sim::<u64>::new();
        let nic0 = net.nic(0);
        sim.spawn("sender", move |ctx| {
            for i in 0..200u64 {
                // Unicast diff traffic interleaved with the multicast
                // stream, including to the same destination node.
                nic0.unicast(&ctx, 1, 1, MsgClass::DiffRequest, 128, 10_000 + i);
                nic0.unicast(&ctx, 2, 2, MsgClass::DiffRequest, 128, 20_000 + i);
                nic0.multicast(&ctx, &[(1, 1), (3, 3)], MsgClass::DiffReply, 1024, i);
            }
            // Keep the run alive until all surviving frames are delivered.
            ctx.sleep(Dur::from_secs(2))?;
            Ok(())
        });
        let got = Arc::new(Mutex::new(Vec::<(usize, u64)>::new()));
        for pid in [1usize, 2, 3] {
            let got = Arc::clone(&got);
            sim.spawn_daemon(&format!("r{pid}"), move |ctx| {
                while let Ok(env) = ctx.recv() {
                    if env.msg < 10_000 {
                        got.lock().unwrap().push((pid, env.msg));
                    }
                }
                Ok(())
            });
        }
        sim.run().unwrap();
        let mut delivered = got.lock().unwrap().clone();
        delivered.sort_unstable();
        let mcast_drops: Vec<_> = net
            .loss_events()
            .into_iter()
            .filter(|e| e.multicast)
            .map(|e| (e.src, e.dst, e.pair_seq))
            .collect();
        (delivered, mcast_drops)
    };
    let (deliv_off, drops_off) = run(false);
    let (deliv_on, drops_on) = run(true);
    assert!(!drops_off.is_empty(), "the schedule must actually drop multicast frames");
    assert_eq!(deliv_off, deliv_on, "multicast deliveries must not depend on unicast loss");
    assert_eq!(drops_off, drops_on, "multicast drop decisions must not depend on unicast loss");
}

/// Sync-class unicast frames are exempt from loss injection even with
/// unicast loss enabled: the protocol treats its synchronization transport
/// as reliable.
#[test]
fn sync_unicast_frames_are_never_dropped() {
    let mut cfg = cfg4();
    cfg.loss = Some(LossConfig { drop_per_mille: 1000, seed: 3, unicast: true });
    let stats = Stats::new(4);
    let net = Network::new(cfg, stats);
    let mut sim = Sim::<u64>::new();
    let nic0 = net.nic(0);
    sim.spawn("sender", move |ctx| {
        for i in 0..10 {
            nic0.unicast(&ctx, 1, 1, MsgClass::Sync, 64, i);
        }
        ctx.sleep(Dur::from_secs(1))?;
        Ok(())
    });
    let got = Arc::new(Mutex::new(0usize));
    let got2 = Arc::clone(&got);
    sim.spawn_daemon("receiver", move |ctx| {
        while ctx.recv().is_ok() {
            *got2.lock().unwrap() += 1;
        }
        Ok(())
    });
    sim.run().unwrap();
    assert_eq!(*got.lock().unwrap(), 10, "sync traffic must survive 100% diff-frame loss");
    assert!(net.loss_events().is_empty());
}

/// One loss rule for both media, by class: at 1000 ‰ with unicast loss on,
/// diff traffic and page broadcasts are lost on the switch and on the hub,
/// and every other class (synchronization, locks, valid notices) arrives.
#[test]
fn loss_spares_the_same_classes_on_both_media() {
    use MsgClass::*;
    let classes = [
        (DiffRequest, false),
        (ForwardedRequest, false),
        (DiffReply, false),
        (NullAck, false),
        (Broadcast, false),
        (ValidNotice, true),
        (Lock, true),
        (Sync, true),
        (Other, true),
    ];
    for multicast in [false, true] {
        let mut cfg = cfg4();
        cfg.loss = Some(LossConfig { drop_per_mille: 1000, seed: 5, unicast: true });
        let net = Network::new(cfg, Stats::new(4));
        let mut sim = Sim::<u64>::new();
        let nic0 = net.nic(0);
        sim.spawn("sender", move |ctx| {
            for (i, &(class, _)) in classes.iter().enumerate() {
                if multicast {
                    nic0.multicast(&ctx, &[(1, 1)], class, 64, i as u64);
                } else {
                    nic0.unicast(&ctx, 1, 1, class, 64, i as u64);
                }
            }
            ctx.sleep(Dur::from_secs(1))?;
            Ok(())
        });
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        sim.spawn_daemon("receiver", move |ctx| {
            while let Ok(env) = ctx.recv() {
                got2.lock().unwrap().push(classes[env.msg as usize].0);
            }
            Ok(())
        });
        sim.run().unwrap();
        let mut got = got.lock().unwrap().clone();
        got.sort_by_key(|c| classes.iter().position(|(k, _)| k == c));
        let survivors: Vec<_> =
            classes.iter().filter(|(_, arrives)| *arrives).map(|c| c.0).collect();
        assert_eq!(got, survivors, "multicast: {multicast}");
    }
}

/// Helper so the test reads naturally.
trait DurMin {
    fn min_of(self, other: Dur) -> Dur;
}
impl DurMin for Dur {
    fn min_of(self, other: Dur) -> Dur {
        if self < other {
            self
        } else {
            other
        }
    }
}
