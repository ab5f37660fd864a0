//! The resume cell under stress: every way a wake-up could be lost or
//! misread — long handoff chains, a resume posted before the target thread
//! has ever run, spurious `park` returns, the final `Stop`, a panic while
//! everyone else is parked. Each test runs under a watchdog, so a lost
//! wake-up fails the test instead of hanging the suite.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use repseq_sim::{Ctx, Dur, Sim, SimError, SimTime, Stopped};

mod common;
use common::watchdog;

#[test]
fn ring_of_64_processes_passes_200k_hops() {
    const RING: usize = 64;
    const HOPS: u64 = 200_000;
    let report = watchdog(300, || {
        let mut sim = Sim::<u64>::new();
        for i in 0..RING {
            let next = (i + 1) % RING;
            let body = move |ctx: Ctx<u64>| -> Result<(), Stopped> {
                if i == 0 {
                    ctx.send(next, HOPS - 1, ctx.now() + Dur::from_micros(1));
                }
                loop {
                    let left = ctx.recv()?.msg;
                    if left == 0 {
                        return Ok(());
                    }
                    ctx.send(next, left - 1, ctx.now() + Dur::from_micros(1));
                }
            };
            // Whoever receives the last hop ends the run.
            if i == (HOPS as usize) % RING {
                sim.spawn(&format!("ring{i}"), body);
            } else {
                sim.spawn_daemon(&format!("ring{i}"), body);
            }
        }
        sim.run().expect("ring completes")
    });
    assert_eq!(report.end_time, SimTime::from_nanos(HOPS * 1_000));
    assert!(report.exec.handoff_switches >= HOPS, "{:?}", report.exec);
    assert!(report.mailbox_backlog.is_empty());
}

/// `run` right after `spawn`: the coordinator posts the first resumes
/// while the process threads may not have executed a single instruction.
/// The cell holds the post and the sticky unpark token holds the wake.
#[test]
fn run_may_race_process_thread_startup() {
    watchdog(120, || {
        for round in 0..300 {
            let started = Arc::new(AtomicUsize::new(0));
            let mut sim = Sim::<u32>::new();
            for i in 0..16 {
                let started = Arc::clone(&started);
                sim.spawn(&format!("p{i}"), move |ctx| {
                    started.fetch_add(1, Ordering::SeqCst);
                    ctx.sleep(Dur::from_nanos(i + 1))
                });
            }
            sim.run().expect("run completes");
            assert_eq!(started.load(Ordering::SeqCst), 16, "round {round}");
        }
    });
}

/// A third party unparks the process threads continuously: every `park`
/// may return with nothing posted, and the cell must look again instead of
/// taking the return for a resume.
#[test]
fn spurious_unparks_are_not_resumes() {
    const ROUNDS: u32 = 20_000;
    watchdog(300, || {
        let done = Arc::new(AtomicBool::new(false));
        let (handle_tx, handle_rx) = mpsc::channel::<std::thread::Thread>();
        let pest = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut victims = Vec::new();
                while !done.load(Ordering::Acquire) {
                    victims.extend(handle_rx.try_iter());
                    victims.iter().for_each(std::thread::Thread::unpark);
                    std::thread::yield_now();
                }
            })
        };
        let mut sim = Sim::<u32>::new();
        let tx = handle_tx.clone();
        sim.spawn("ping", move |ctx| {
            tx.send(std::thread::current()).expect("pest alive");
            for i in 0..ROUNDS {
                ctx.send(1, i, ctx.now() + Dur::from_micros(1));
                assert_eq!(ctx.recv()?.msg, i + 1);
            }
            Ok(())
        });
        sim.spawn("pong", move |ctx| {
            handle_tx.send(std::thread::current()).expect("pest alive");
            for i in 0..ROUNDS {
                assert_eq!(ctx.recv()?.msg, i);
                ctx.send(0, i + 1, ctx.now() + Dur::from_micros(1));
            }
            Ok(())
        });
        let report = sim.run();
        done.store(true, Ordering::Release);
        pest.join().expect("pest exits");
        let report = report.expect("ping-pong completes");
        assert_eq!(report.end_time, SimTime::from_nanos(u64::from(ROUNDS) * 2_000));
    });
}

/// Daemons parked in every kind of blocking call when the last primary
/// exits all get `Stop`, see `Stopped`, and are joined by `run`.
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
                // Blocking again while unwinding is refused, not parked.
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

/// A process panics while the others are parked: `run` reports it, stops
/// the rest, and has joined every thread by the time it returns — each
/// process closure holds a clone of `alive`, and none is left.
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
    assert_eq!(holders, 1, "a process thread outlived run()");
}
