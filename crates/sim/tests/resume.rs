//! The coroutine transport under stress: long handoff chains, the final
//! `Stop`, a panic while everyone else is suspended — and what a process
//! on a stack of its own, on the caller's thread, must still be able to
//! do: drop what it owns however it ends, take a backtrace, recurse deep,
//! run a simulation of its own, share the host with another simulation,
//! change threads before it starts. (`stacks.rs` has the two tests that
//! need a process to themselves.) The tests that could hang run under a
//! watchdog, so a lost resume fails the test instead of the suite.

use std::backtrace::Backtrace;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};

use repseq_sim::{Ctx, Dur, Sim, SimError, SimReport, SimTime, Stopped, TraceEntry};

mod common;
use common::watchdog;
#[path = "common/endings.rs"]
mod endings;

/// A ring of `ring` processes passing one token `hops` times; whoever
/// receives the last hop is the one primary and ends the run.
fn ring_run(ring: usize, hops: u64) -> SimReport {
    let mut sim = Sim::<u64>::new();
    for i in 0..ring {
        let next = (i + 1) % ring;
        let body = move |ctx: Ctx<u64>| -> Result<(), Stopped> {
            if i == 0 {
                ctx.send(next, hops - 1, ctx.now() + Dur::from_micros(1));
            }
            loop {
                let left = ctx.recv()?.msg;
                if left == 0 {
                    return Ok(());
                }
                ctx.send(next, left - 1, ctx.now() + Dur::from_micros(1));
            }
        };
        if i == (hops as usize) % ring {
            sim.spawn(&format!("ring{i}"), body);
        } else {
            sim.spawn_daemon(&format!("ring{i}"), body);
        }
    }
    sim.record_trace(true);
    sim.run().expect("ring completes")
}

#[test]
fn ring_of_64_processes_passes_200k_hops() {
    const HOPS: u64 = 200_000;
    let report = watchdog(300, || ring_run(64, HOPS));
    assert_eq!(report.end_time, SimTime::from_nanos(HOPS * 1_000));
    assert!(report.exec.handoff_switches >= HOPS, "{:?}", report.exec);
    assert!(report.mailbox_backlog.is_empty());
}

/// Daemons suspended in every kind of blocking call when the last primary
/// exits all get `Stop`, see `Stopped`, and have run to their end by the
/// time `run` returns.
#[test]
fn parked_daemons_receive_stop_at_end_of_run() {
    let stopped = watchdog(120, || {
        let stopped = Arc::new(AtomicUsize::new(0));
        let mut sim = Sim::<u32>::new();
        for i in 0..30 {
            let stopped = Arc::clone(&stopped);
            sim.spawn_daemon(&format!("d{i}"), move |ctx| {
                let r = match i % 3 {
                    0 => ctx.recv().map(drop),
                    1 => ctx.sleep(Dur::from_secs(3600)),
                    _ => ctx.recv_timeout(Dur::from_secs(3600)).map(drop),
                };
                assert_eq!(r, Err(Stopped));
                // Blocking again on the way out is refused, not switched.
                assert_eq!(ctx.sleep(Dur::from_micros(1)), Err(Stopped));
                stopped.fetch_add(1, Ordering::SeqCst);
                r
            });
        }
        sim.spawn("primary", |ctx| ctx.sleep(Dur::from_micros(5)));
        sim.run().expect("run completes");
        stopped.load(Ordering::SeqCst)
    });
    assert_eq!(stopped, 30);
}

/// A process panics while the others are suspended: `run` reports it,
/// stops the rest, and has run every one of them to its end by the time it
/// returns — each process closure holds a clone of `alive`, and none is
/// left.
#[test]
fn a_panic_among_parked_processes_is_reported_and_everyone_is_joined() {
    let (err, holders) = watchdog(120, || {
        let alive = Arc::new(());
        let mut sim = Sim::<u32>::new();
        for i in 0..12 {
            let alive = Arc::clone(&alive);
            sim.spawn(&format!("bystander{i}"), move |ctx| {
                let _alive = alive;
                ctx.recv().map(drop)
            });
        }
        let held = Arc::clone(&alive);
        sim.spawn("doomed", move |ctx| {
            let _alive = held;
            ctx.sleep(Dur::from_micros(3))?;
            panic!("boom (expected by the test)");
        });
        let err = sim.run().expect_err("the panic must surface");
        (err, Arc::strong_count(&alive))
    });
    match err {
        SimError::ProcessPanicked { name, .. } => assert_eq!(name, "doomed"),
        other => panic!("expected ProcessPanicked, got {other:?}"),
    }
    assert_eq!(holders, 1, "a process outlived run()");
}

/// An exiting coroutine abandons its last frame instead of returning from
/// it, and a stopped one is unwound by `Stopped`, not by the OS: whatever
/// the ending, what the closure captured and what a suspended frame held
/// are dropped exactly once.
#[test]
fn every_ending_drops_what_the_process_owned_exactly_once() {
    for drops in endings::every_ending() {
        let started = !drops.ending.starts_with("never starts");
        assert_eq!((drops.captured, drops.local), (1, usize::from(started)), "{drops:?}");
    }
}

/// A process that panics unwinds on the one thread every other process
/// runs on. A destructor that blocks on the way must not switch away in
/// mid-unwind: it is told `Stopped`, and the panic is reported as usual.
#[test]
fn a_blocking_call_while_unwinding_is_refused() {
    struct BlocksOnDrop<'a>(&'a Ctx<u32>, mpsc::Sender<Result<(), Stopped>>);
    impl Drop for BlocksOnDrop<'_> {
        fn drop(&mut self) {
            self.1.send(self.0.sleep(Dur::from_micros(1))).unwrap();
        }
    }
    let (tx, rx) = mpsc::channel();
    let mut sim = Sim::<u32>::new();
    sim.spawn("bystander", |ctx| ctx.sleep(Dur::from_micros(10)));
    sim.spawn("doomed", move |ctx| {
        drop(BlocksOnDrop(&ctx, tx.clone()));
        let _guard = BlocksOnDrop(&ctx, tx);
        panic!("boom (expected by the test)");
    });
    endings::expect_panic_of("doomed", sim.run());
    let seen: Vec<_> = rx.try_iter().collect();
    assert_eq!(seen, [Ok(()), Err(Stopped)], "before the panic, then during the unwind");
}

/// The unwinder walks a process's stack to the coroutine's entry frame and
/// stops there: the capture returns (it does not run off the mapping), it
/// names this function, and the entry frame is the last one it names.
#[test]
fn a_backtrace_inside_a_process_ends_at_the_entry_frame() {
    let (tx, rx) = mpsc::channel();
    let mut sim = Sim::<u32>::new();
    sim.spawn("tracer", move |ctx| {
        // Resumed by a switch at least once, not just entered.
        ctx.send(1, 5, ctx.now() + Dur::from_micros(1));
        assert_eq!(ctx.recv()?.msg, 5);
        tx.send(Backtrace::force_capture().to_string()).unwrap();
        Ok(())
    });
    sim.spawn_daemon("peer", |ctx| loop {
        let env = ctx.recv()?;
        ctx.send(env.from, env.msg, ctx.now() + Dur::from_micros(1));
    });
    sim.run().expect("run completes");
    let trace = rx.recv().unwrap();
    assert!(trace.contains("a_backtrace_inside_a_process_ends_at_the_entry_frame"), "{trace}");
    let last = trace.lines().rev().find(|l| !l.trim_start().starts_with("at ")).unwrap();
    assert!(last.contains("repseq_sim_coro_entry"), "{trace}");
}

/// A coroutine's stack is as deep as a spawned thread's: a recursion that
/// holds 900 KiB of frames, and blocks at the bottom of it, completes.
#[test]
fn a_process_can_hold_900_kib_of_frames_across_a_switch() {
    const HOLD: usize = 900 << 10;
    /// Recurse until `HOLD` bytes lie between `top` and this frame, block
    /// there, and report the depth reached.
    fn dive(ctx: &Ctx<u32>, top: usize) -> Result<usize, Stopped> {
        let pad = black_box([0u8; 1024]);
        let held = top - pad.as_ptr() as usize;
        let reached = if held >= HOLD {
            ctx.sleep(Dur::from_micros(1))?;
            held
        } else {
            dive(ctx, top)?
        };
        black_box(&pad);
        Ok(reached)
    }
    let (tx, rx) = mpsc::channel();
    let mut sim = Sim::<u32>::new();
    for name in ["diver0", "diver1"] {
        let tx = tx.clone();
        sim.spawn(name, move |ctx| {
            let top = 0u8;
            tx.send(dive(&ctx, &top as *const u8 as usize)?).unwrap();
            Ok(())
        });
    }
    sim.run().expect("run completes");
    let reached: Vec<usize> = rx.try_iter().collect();
    assert_eq!(reached.len(), 2);
    assert!(reached.iter().all(|&held| held >= HOLD), "{reached:?}");
}

/// The switch keeps no per-thread or global "current coroutine": a process
/// can build and run a whole simulation (whose coordinator is then this
/// process's stack), read its report, and carry on in its own.
#[test]
fn a_process_can_run_an_inner_sim() {
    let (tx, rx) = mpsc::channel();
    let mut outer = Sim::<u64>::new();
    outer.spawn("host", move |ctx| {
        ctx.send(1, 1, ctx.now() + Dur::from_micros(1));
        let before = ctx.recv()?.msg;
        let inner = ring_run(5, 1_000);
        ctx.send(1, 2, ctx.now() + Dur::from_micros(1));
        let after = ctx.recv()?.msg;
        tx.send((before, inner.end_time, after, ctx.now())).unwrap();
        Ok(())
    });
    outer.spawn_daemon("echo", |ctx| loop {
        let env = ctx.recv()?;
        ctx.send(env.from, env.msg * 10, ctx.now() + Dur::from_micros(1));
    });
    let report = outer.run().expect("outer run completes");
    let (before, inner_end, after, host_clock) = rx.recv().unwrap();
    assert_eq!((before, after), (10, 20));
    assert_eq!(inner_end, SimTime::from_nanos(1_000_000));
    // The inner run cost the outer process no virtual time.
    assert_eq!(host_clock, SimTime::from_nanos(4_000));
    assert_eq!(report.end_time, SimTime::from_nanos(4_000));
}

/// Two simulations running at the same time on two OS threads are each
/// the run they are alone.
#[test]
fn two_sims_on_two_threads_trace_as_they_do_alone() {
    const SHAPES: [(usize, u64); 2] = [(8, 30_000), (13, 30_011)];
    let trace = |(ring, hops): (usize, u64)| -> Vec<TraceEntry> {
        ring_run(ring, hops).trace.expect("tracing is on")
    };
    let alone = SHAPES.map(trace);
    let start = Barrier::new(2);
    let together = std::thread::scope(|s| {
        let runs = SHAPES.map(|shape| {
            let start = &start;
            s.spawn(move || {
                start.wait();
                trace(shape)
            })
        });
        runs.map(|r| r.join().expect("run completes"))
    });
    for (a, t) in alone.iter().zip(&together) {
        // One event per hop: a ring process waits with an empty mailbox, so
        // its receive checkpoint is never queued and only the delivery is.
        assert!(a.len() > 30_000);
        assert_eq!(repseq_sim::first_divergence(a, t), None);
    }
}

/// A `Sim` is `Send`, and one built here runs there: nothing about a
/// coroutine that has not started belongs to the thread that mapped it.
#[test]
fn a_sim_built_on_one_thread_runs_on_another() {
    fn assert_send<T: Send>() {}
    assert_send::<Sim<u32>>();
    assert_send::<Sim<Box<dyn std::any::Any + Send>>>();

    let builder = std::thread::current().id();
    let mut sim = Sim::<u32>::new();
    sim.spawn("ping", |ctx| {
        for i in 0..100 {
            ctx.send(1, i, ctx.now() + Dur::from_micros(1));
            assert_eq!(ctx.recv()?.msg, i + 1);
        }
        Ok(())
    });
    sim.spawn_daemon("pong", move |ctx| loop {
        assert_ne!(std::thread::current().id(), builder);
        let env = ctx.recv()?;
        ctx.send(env.from, env.msg + 1, ctx.now() + Dur::from_micros(1));
    });
    let report = std::thread::spawn(move || sim.run()).join().expect("runner exits");
    assert_eq!(report.expect("run completes").end_time, SimTime::from_nanos(200_000));
}
