//! Same-time event determinism: when events from *different* sources
//! collide at one virtual instant, the kernel must drain them in event-key
//! order — `(time, src_group, seq)`, where `src_group` is the scheduling
//! group of the pushing process and `seq` comes from that group's private
//! counter. The key is assigned at push from state only the pusher's own
//! execution touches, so it never depends on which process the host
//! happened to be running. This invariant is pinned here independently of the engine's
//! internal queue layout.

use std::sync::Arc;

use parking_lot::Mutex;
use repseq_sim::{Dur, Sim, SimTime, TraceClass};

/// Three senders, staggered in virtual time, each address the same receiver
/// with bursts that all land at the *same* delivery instant. The receiver
/// must observe them grouped by source group in group-id order (each
/// process is its own group here), with each sender's burst preserving its
/// send-execution order — not ordered by send execution time across
/// senders, and not by any property of the queue they happened to sit in.
#[test]
fn colliding_deliveries_from_multiple_sources_drain_in_seq_order() {
    let collide_at = SimTime::from_nanos(100_000);
    let mut sim = Sim::<u32>::new();
    let got = Arc::new(Mutex::new(Vec::new()));
    let got2 = Arc::clone(&got);
    sim.spawn("rx", move |ctx| {
        for _ in 0..6 {
            let env = ctx.recv()?;
            assert_eq!(env.at, SimTime::from_nanos(100_000));
            got2.lock().push(env.msg);
        }
        Ok(())
    });
    for (i, delay_us) in [(0u32, 30u64), (1, 10), (2, 20)] {
        sim.spawn(&format!("tx{i}"), move |ctx| {
            // Stagger the send *execution* times (tx1 at 10us, tx2 at 20us,
            // tx0 at 30us); the delivery times all collide. The tie breaks
            // by source group — tx0 (pid 1), tx1 (pid 2), tx2 (pid 3) —
            // regardless of which send executed first.
            ctx.sleep(Dur::from_micros(delay_us))?;
            ctx.send(0, i * 10, collide_at);
            ctx.send(0, i * 10 + 1, collide_at);
            Ok(())
        });
    }
    sim.run().unwrap();
    assert_eq!(
        *got.lock(),
        vec![0, 1, 10, 11, 20, 21],
        "drain order must follow the (time, src_group, seq) tiebreak"
    );
}

/// The same collision with explicitly assigned groups: two sources in
/// *different* groups each push a burst that lands at one virtual instant
/// on a third-group receiver. The pops follow `(time, src_group, seq)` —
/// by source group in group-id order, each burst in its push order —
/// whatever the pid order and whoever executed its sends first.
#[test]
fn cross_group_ties_break_by_assigned_group_not_by_send_time() {
    let collide_at = SimTime::from_nanos(40_000);
    let mut sim = Sim::<u32>::new();
    let got = Arc::new(Mutex::new(Vec::new()));
    let got2 = Arc::clone(&got);
    let rx = sim.spawn("rx", move |ctx| {
        for _ in 0..4 {
            got2.lock().push(ctx.recv()?.msg);
        }
        Ok(())
    });
    let tx_a = sim.spawn("tx_a", move |ctx| {
        ctx.sleep(Dur::from_micros(1))?;
        ctx.send(0, 10, collide_at);
        ctx.send(0, 11, collide_at);
        Ok(())
    });
    let tx_b = sim.spawn("tx_b", move |ctx| {
        ctx.sleep(Dur::from_micros(5))?;
        ctx.send(0, 20, collide_at);
        ctx.send(0, 21, collide_at);
        Ok(())
    });
    // tx_b has the higher pid and sends later, but the lower group: its
    // burst pops first.
    sim.assign_group(rx, 0);
    sim.assign_group(tx_a, 2);
    sim.assign_group(tx_b, 1);
    sim.set_lookahead(Dur::from_micros(10));
    sim.run().unwrap();
    assert_eq!(*got.lock(), vec![20, 21, 10, 11], "(time, src_group, seq) tiebreak");
}

/// Same collision, but one copy of the receiver is *busy* past the instant
/// (messages queue in the mailbox) and another blocks into it (messages
/// resume it). Both must observe the identical key-tiebreak order: mailbox
/// insertion order is drain order.
#[test]
fn queued_and_blocking_receivers_observe_the_same_tie_order() {
    fn run(busy: bool) -> Vec<u32> {
        let collide_at = SimTime::from_nanos(50_000);
        let mut sim = Sim::<u32>::new();
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        sim.spawn("rx", move |ctx| {
            if busy {
                // Compute past the collision instant, then pick up the
                // backlog from the mailbox.
                ctx.charge(Dur::from_micros(90));
            }
            for _ in 0..4 {
                got2.lock().push(ctx.recv()?.msg);
            }
            Ok(())
        });
        for (i, delay_us) in [(0u32, 20u64), (1, 5)] {
            sim.spawn(&format!("tx{i}"), move |ctx| {
                ctx.sleep(Dur::from_micros(delay_us))?;
                ctx.send(0, 100 + i, collide_at);
                ctx.send(0, 200 + i, collide_at);
                Ok(())
            });
        }
        sim.run().unwrap();
        let v = got.lock().clone();
        v
    }
    let blocking = run(false);
    let queued = run(true);
    // tx0 is pid 1 (lower source group) even though tx1's sends executed
    // first in virtual time.
    assert_eq!(blocking, vec![100, 200, 101, 201]);
    assert_eq!(queued, blocking, "mailbox backlog must preserve the key-tiebreak order");
}

/// A timer wake and a message delivery colliding at the same instant on the
/// same process: the sender's group (pid 0) sorts below the receiver's own
/// wake (pushed from pid 1's group), so the sleeping receiver is woken by
/// its timer only after the delivery is already in its mailbox.
#[test]
fn wake_and_delivery_collision_follows_push_order() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("tx", |ctx| {
        // Source group 0: sorts below the receiver's sleep wake.
        ctx.send(1, 7, SimTime::from_nanos(10_000));
        Ok(())
    });
    sim.spawn("rx", |ctx| {
        ctx.sleep(Dur::from_micros(10))?; // wake collides with the delivery
        let env = ctx.try_recv()?.expect("delivery with the lower key must drain first");
        assert_eq!(env.msg, 7);
        assert_eq!(ctx.now().nanos(), 10_000);
        Ok(())
    });
    sim.run().unwrap();
}

/// The kernel-level statement of the invariant, independent of mailbox
/// semantics. The global trace is *not* flatly sorted by key — a process's
/// same-instant follow-up events (e.g. its next receive checkpoint) carry
/// its own group id and can sort below an already-drained key from a
/// higher group — but virtual time never decreases, and each source
/// group's events drain in strictly increasing `(time, seq)`: within one
/// instant, a source's pushes (including a burst spanning several target
/// processes) are consumed in the order that source executed them.
#[test]
fn trace_is_lexicographic_in_time_then_seq() {
    let mut sim = Sim::<u32>::new();
    sim.record_trace(true);
    // One fan-out sender colliding bursts onto three receivers, interleaved
    // so consecutive seqs alternate targets.
    for r in 0..3usize {
        sim.spawn(&format!("rx{r}"), move |ctx| {
            for _ in 0..4 {
                ctx.recv()?;
            }
            Ok(())
        });
    }
    sim.spawn("tx", |ctx| {
        for round in 0..4u64 {
            for r in 0..3usize {
                ctx.send(r, r as u32, SimTime::from_nanos(20_000 + 1_000 * round));
            }
        }
        Ok(())
    });
    let trace = sim.run().unwrap().trace.unwrap();
    assert!(!trace.is_empty());
    for w in trace.windows(2) {
        assert!(
            w[0].time <= w[1].time,
            "virtual time must never decrease: {:?} then {:?}",
            w[0],
            w[1]
        );
        if w[0].src == w[1].src {
            assert!(
                (w[0].time, w[0].seq) < (w[1].time, w[1].seq),
                "one source's events must drain in push order: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
    // The stronger per-source statement over the whole (non-adjacent)
    // subsequence, not just neighboring entries.
    let sources: std::collections::BTreeSet<u64> = trace.iter().map(|e| e.src).collect();
    for s in sources {
        let sub: Vec<_> = trace.iter().filter(|e| e.src == s).collect();
        for w in sub.windows(2) {
            assert!(
                (w[0].time, w[0].seq) < (w[1].time, w[1].seq),
                "source {s} events must drain in (time, seq) order: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
    // The colliding burst at t=20us drains as one same-time run of
    // deliveries with increasing seq across *different* target pids.
    let burst: Vec<_> = trace
        .iter()
        .filter(|e| e.time == SimTime::from_nanos(20_000) && e.class == TraceClass::Deliver)
        .collect();
    assert_eq!(burst.len(), 3, "three deliveries collide at t=20us");
    assert_eq!(
        burst.iter().map(|e| e.pid).collect::<Vec<_>>(),
        vec![0, 1, 2],
        "same-time deliveries from one source drain in send (seq) order"
    );
}
