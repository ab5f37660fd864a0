//! The engine seen from outside: runs repeat bit for bit (report and full
//! kernel trace), the host-execution counters account for every event,
//! and the run ends at the lookahead horizon the last primary exit fell
//! into.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use repseq_sim::{Dur, Sim, SimReport, SimTime};

const LOOKAHEAD: Dur = Dur::from_micros(10);

/// A multi-group workload with real cross-group traffic and staggered
/// compute: every node sends bursts to two neighbors with at least the
/// lookahead of latency, while local follow-ups (receive checkpoints)
/// create same-instant events.
fn mesh_run() -> SimReport {
    const N: usize = 8;
    const ROUNDS: u64 = 20;
    let mut sim = Sim::<u64>::new();
    for i in 0..N {
        let pid = sim.spawn(&format!("node{i}"), move |ctx| {
            for k in 0..ROUNDS {
                // Uneven compute so the groups' heads drift apart.
                ctx.charge(Dur::from_nanos(300 + ((i as u64 * 7 + k * 13) % 11) * 170));
                let jitter = Dur::from_nanos(((i as u64 * 31 + k * 17) % 7) * 250);
                let at = ctx.now() + LOOKAHEAD + jitter;
                ctx.send((i + 1) % N, i as u64 * 1_000 + k, at);
                ctx.send((i + 3) % N, i as u64 * 1_000_000 + k, at + Dur::from_nanos(40));
            }
            let mut sum = 0u64;
            for _ in 0..2 * ROUNDS {
                sum = sum.wrapping_mul(31).wrapping_add(ctx.recv()?.msg);
            }
            // Fold the receive-order-sensitive checksum into the clock so
            // any divergence shows up in the report, not just the trace.
            ctx.charge(Dur::from_nanos(sum % 97));
            Ok(())
        });
        sim.assign_group(pid, i);
    }
    sim.set_lookahead(LOOKAHEAD);
    sim.record_trace(true);
    sim.run().unwrap()
}

#[test]
fn runs_repeat_bit_for_bit() {
    let a = mesh_run();
    for _ in 0..3 {
        let b = mesh_run();
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.proc_clocks, b.proc_clocks);
        assert_eq!(a.mailbox_backlog, b.mailbox_backlog);
        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
        assert!(!ta.is_empty());
        if let Some(d) = repseq_sim::first_divergence(ta, tb) {
            panic!("traces diverged at {d:?}");
        }
        // Who runs at each pop follows from the pop order alone, so even
        // the host-side counters repeat.
        assert_eq!(a.exec, b.exec);
    }
}

#[test]
fn a_ring_is_one_chain_of_direct_duty_transfers() {
    const RING: usize = 6;
    // The token reaches zero at ring0 (hop 42 of a ring of 6), which ends
    // the run.
    const HOPS: u32 = 41;
    let mut sim = Sim::<u32>::new();
    for i in 0..RING {
        let next = (i + 1) % RING;
        let body = move |ctx: repseq_sim::Ctx<u32>| -> Result<(), repseq_sim::Stopped> {
            if i == 0 {
                ctx.send(next, HOPS, ctx.now() + Dur::from_micros(2));
            }
            loop {
                let env = ctx.recv()?;
                if env.msg == 0 {
                    return Ok(());
                }
                ctx.charge(Dur::from_micros(1));
                ctx.send(next, env.msg - 1, ctx.now() + Dur::from_micros(2));
            }
        };
        if i == 0 {
            sim.spawn("ring0", body);
        } else {
            sim.spawn_daemon(&format!("ring{i}"), body);
        }
    }
    let report = sim.run().unwrap();
    // Every hop delivery resumes the next process…
    assert!(report.exec.handoff_switches >= u64::from(HOPS), "{:?}", report.exec);
    // …and a hop is that one event: the receive checkpoint of a process
    // whose mailbox is empty is never queued, so nothing is applied inline
    // and the run is the hop deliveries (tokens HOPS down to 0) plus the
    // start wakes.
    assert_eq!(report.exec.inline_events, 0, "{:?}", report.exec);
    assert_eq!(report.events_processed, u64::from(HOPS) + 1 + RING as u64);
    // …so every event is a switch to a process.
    assert_eq!(report.events_processed, report.exec.handoff_switches, "{:?}", report.exec);
}

#[test]
fn a_queued_burst_arrives_in_send_order() {
    // Eight deliveries queued for one receiver before it first runs: they
    // pop — and are received — in the order of their delivery times.
    let mut sim = Sim::<u32>::new();
    sim.spawn("burst-sender", |ctx| {
        for i in 0..8u32 {
            ctx.send(1, i, ctx.now() + Dur::from_micros(10 + u64::from(i)));
        }
        Ok(())
    });
    sim.spawn("burst-receiver", |ctx| {
        for expect in 0..8u32 {
            assert_eq!(ctx.recv()?.msg, expect);
        }
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn self_resume_needs_no_duty_transfer() {
    // A lone process sleeping repeatedly: only the coordinator pops, so
    // the right to pop never moves, and every wake — the start and ten
    // sleeps — is one switch to the process and one back.
    let mut sim = Sim::<u32>::new();
    sim.spawn("loner", |ctx| {
        for _ in 0..10 {
            ctx.sleep(Dur::from_micros(1))?;
        }
        Ok(())
    });
    let report = sim.run().unwrap();
    let x = report.exec;
    assert_eq!(x.handoff_switches, 11, "{x:?}");
    assert_eq!(report.events_processed, x.inline_events + x.handoff_switches + x.reactor_runs);
}

/// One node: a primary that wakes at 100 µs (that pop opens the lookahead
/// window [100, 110) µs), queues two local deliveries for its daemon — at
/// 105 µs and at 115 µs — and exits. Returns how many the daemon saw.
///
/// `bystanders` more nodes, each a daemon in a group of its own, sleep
/// until 101 µs + i × 250 ns: their wakes are pending in as many groups,
/// on both sides of the horizon, when the tail begins. Also returns how
/// many of them woke.
fn tail_run(lookahead: Option<Dur>, bystanders: usize) -> (u64, u64, SimReport) {
    let seen = Arc::new(AtomicU64::new(0));
    let seen2 = Arc::clone(&seen);
    let woken = Arc::new(AtomicU64::new(0));
    let mut sim = Sim::<u32>::new();
    for i in 0..bystanders {
        let woken = Arc::clone(&woken);
        let b = sim.spawn_daemon(&format!("bystander{i}"), move |ctx| {
            ctx.sleep(Dur::from_nanos(101_000 + i as u64 * 250))?;
            woken.fetch_add(1, Ordering::SeqCst);
            ctx.recv().map(drop)
        });
        sim.assign_group(b, 1 + i);
    }
    let d = sim.spawn_daemon("daemon", move |ctx| {
        while ctx.recv().is_ok() {
            seen2.fetch_add(1, Ordering::SeqCst);
        }
        Ok(())
    });
    let p = sim.spawn("primary", move |ctx| {
        ctx.sleep(Dur::from_micros(100))?;
        ctx.send(d, 1, SimTime::from_nanos(105_000));
        ctx.send(d, 2, SimTime::from_nanos(115_000));
        Ok(())
    });
    if let Some(l) = lookahead {
        sim.assign_group(d, 0);
        sim.assign_group(p, 0);
        sim.set_lookahead(l);
    }
    let report = sim.run().unwrap();
    (seen.load(Ordering::SeqCst), woken.load(Ordering::SeqCst), report)
}

#[test]
fn the_run_ends_at_the_horizon_the_last_exit_fell_into() {
    // Grouped with a lookahead: the window the exit fell into is finished,
    // nothing beyond it runs.
    let (seen, _, report) = tail_run(Some(LOOKAHEAD), 0);
    assert_eq!(seen, 1, "the 105 µs delivery is inside the window, the 115 µs one is not");
    assert_eq!(report.end_time, SimTime::from_nanos(105_000));
    assert!(report.mailbox_backlog.is_empty(), "{:?}", report.mailbox_backlog);
    // No groups, no lookahead: the horizon is degenerate and the run stops
    // at the exit.
    let (seen, _, report) = tail_run(None, 0);
    assert_eq!(seen, 0);
    assert_eq!(report.end_time, SimTime::from_nanos(100_000));
}

#[test]
fn the_horizon_holds_with_64_groups() {
    let (seen, woken, report) = tail_run(Some(LOOKAHEAD), 63);
    assert_eq!(seen, 1, "the 105 µs delivery is inside the window, the 115 µs one is not");
    // 101 µs + i × 250 ns < 110 µs for i < 36; the last of those ends the run.
    assert_eq!(woken, 36);
    assert_eq!(report.end_time, SimTime::from_nanos(109_750));
    assert!(report.mailbox_backlog.is_empty(), "{:?}", report.mailbox_backlog);
}
