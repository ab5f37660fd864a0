//! Integration tests for the discrete-event engine: ordering, blocking
//! semantics, timeouts, daemons, deadlock detection, determinism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use repseq_sim::{Dur, Sim, SimError, SimTime};

#[test]
fn single_process_advances_time_by_charge() {
    let mut sim = Sim::<()>::new();
    let end = Arc::new(AtomicU64::new(0));
    let end2 = Arc::clone(&end);
    sim.spawn("p", move |ctx| {
        ctx.charge(Dur::from_micros(5));
        ctx.charge(Dur::from_micros(7));
        assert_eq!(ctx.now().nanos(), 12_000);
        ctx.sleep(Dur::from_micros(3))?;
        end2.store(ctx.now().nanos(), Ordering::SeqCst);
        Ok(())
    });
    sim.run().unwrap();
    assert_eq!(end.load(Ordering::SeqCst), 15_000);
}

#[test]
fn message_delivery_time_is_honored() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("sender", |ctx| {
        ctx.charge(Dur::from_micros(1));
        ctx.send(1, 42, ctx.now() + Dur::from_micros(9));
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        let env = ctx.recv()?;
        assert_eq!(env.msg, 42);
        assert_eq!(env.at.nanos(), 10_000);
        assert_eq!(ctx.now().nanos(), 10_000);
        assert_eq!(env.from, 0);
        Ok(())
    });
    let report = sim.run().unwrap();
    assert_eq!(report.end_time.nanos(), 10_000);
}

#[test]
fn messages_arrive_in_delivery_time_order() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("sender", |ctx| {
        // Sent out of order; must be received in virtual-time order.
        ctx.send(1, 2, SimTime::from_nanos(2_000));
        ctx.send(1, 1, SimTime::from_nanos(1_000));
        ctx.send(1, 3, SimTime::from_nanos(3_000));
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        for expect in [1, 2, 3] {
            let env = ctx.recv()?;
            assert_eq!(env.msg, expect);
        }
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn ties_break_by_send_order() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("sender", |ctx| {
        ctx.send(1, 10, SimTime::from_nanos(1_000));
        ctx.send(1, 20, SimTime::from_nanos(1_000));
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        assert_eq!(ctx.recv()?.msg, 10);
        assert_eq!(ctx.recv()?.msg, 20);
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn recv_returns_queued_message_without_waiting() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("sender", |ctx| {
        ctx.send(1, 7, SimTime::from_nanos(100));
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        // Compute past the delivery time, then receive: the message was
        // queued while we were busy, so recv must not advance the clock.
        ctx.charge(Dur::from_micros(1));
        let env = ctx.recv()?;
        assert_eq!(env.msg, 7);
        assert_eq!(env.at.nanos(), 100);
        assert_eq!(ctx.now().nanos(), 1_000, "recv of queued message is immediate");
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn recv_timeout_times_out_and_then_receives() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("sender", |ctx| {
        ctx.send(1, 5, SimTime::from_nanos(50_000));
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        let r = ctx.recv_timeout(Dur::from_micros(10))?;
        assert!(r.is_none(), "nothing should arrive in the first 10us");
        assert_eq!(ctx.now().nanos(), 10_000);
        let r = ctx.recv_timeout(Dur::from_micros(100))?;
        let env = r.expect("message must arrive before the second deadline");
        assert_eq!(env.msg, 5);
        assert_eq!(ctx.now().nanos(), 50_000);
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn try_recv_sees_only_already_delivered() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("sender", |ctx| {
        ctx.send(1, 1, SimTime::from_nanos(500));
        ctx.send(1, 2, SimTime::from_nanos(2_000));
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        ctx.charge(Dur::from_nanos(1_000));
        let first = ctx.try_recv()?;
        assert_eq!(first.map(|e| e.msg), Some(1));
        let second = ctx.try_recv()?;
        assert!(second.is_none(), "the 2us message has not arrived at 1us");
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn zero_timeout_equals_try_recv() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("p", |ctx| {
        let r = ctx.recv_timeout(Dur::ZERO)?;
        assert!(r.is_none());
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn daemon_is_stopped_after_primaries_exit() {
    let mut sim = Sim::<u32>::new();
    let served = Arc::new(AtomicU64::new(0));
    let served2 = Arc::clone(&served);
    sim.spawn_daemon("server", move |ctx| {
        while let Ok(env) = ctx.recv() {
            served2.fetch_add(1, Ordering::SeqCst);
            ctx.charge(Dur::from_micros(1));
            ctx.send(env.from, env.msg * 2, ctx.now() + Dur::from_micros(1));
        }
        Ok(())
    });
    sim.spawn("client", |ctx| {
        for i in 0..3u32 {
            ctx.send(0, i, ctx.now() + Dur::from_micros(1));
            let env = ctx.recv()?;
            assert_eq!(env.msg, i * 2);
        }
        Ok(())
    });
    sim.run().unwrap();
    assert_eq!(served.load(Ordering::SeqCst), 3);
}

#[test]
fn deadlock_is_detected() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("a", |ctx| {
        let _ = ctx.recv()?; // nobody will ever send
        Ok(())
    });
    sim.spawn("b", |ctx| {
        let _ = ctx.recv()?;
        Ok(())
    });
    match sim.run() {
        Err(SimError::Deadlock { blocked }) => {
            assert_eq!(blocked.len(), 2);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn empty_simulation_is_an_error() {
    let sim = Sim::<u32>::new();
    assert!(matches!(sim.run(), Err(SimError::NoPrimaryProcesses)));
}

#[test]
fn daemon_only_blocking_does_not_deadlock() {
    let mut sim = Sim::<u32>::new();
    sim.spawn_daemon("idle-server", |ctx| {
        let _ = ctx.recv(); // will be Stopped
        Ok(())
    });
    sim.spawn("quick", |ctx| {
        ctx.charge(Dur::from_micros(1));
        ctx.sleep(Dur::from_micros(1))?;
        Ok(())
    });
    let report = sim.run().unwrap();
    assert_eq!(report.end_time.nanos(), 2_000);
}

#[test]
fn process_panic_is_reported() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("bang", |ctx| {
        ctx.sleep(Dur::from_micros(1))?;
        panic!("boom");
    });
    match sim.run() {
        Err(SimError::ProcessPanicked { name, .. }) => assert_eq!(name, "bang"),
        other => panic!("expected panic report, got {other:?}"),
    }
}

#[test]
fn report_tracks_clocks_and_events() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("a", |ctx| {
        ctx.sleep(Dur::from_micros(10))?;
        Ok(())
    });
    sim.spawn("b", |ctx| {
        ctx.sleep(Dur::from_micros(20))?;
        Ok(())
    });
    let report = sim.run().unwrap();
    assert_eq!(report.end_time.nanos(), 20_000);
    assert_eq!(report.proc_clocks.len(), 2);
    assert_eq!(report.proc_clocks[0].0, "a");
    assert_eq!(report.proc_clocks[0].1.nanos(), 10_000);
    assert_eq!(report.proc_clocks[1].1.nanos(), 20_000);
    assert!(report.events_processed >= 4);
}

/// A token-ring of processes with charged compute per hop: the same run must
/// produce the same trace every time.
fn token_ring(n: usize, hops: u32) -> Vec<repseq_sim::TraceEntry> {
    let mut sim = Sim::<u32>::new();
    sim.record_trace(true);
    for i in 0..n {
        let next = (i + 1) % n;
        if i == 0 {
            sim.spawn("ring0", move |ctx| {
                ctx.charge(Dur::from_micros(3));
                ctx.send(next, hops, ctx.now() + Dur::from_micros(2));
                loop {
                    let env = ctx.recv()?;
                    if env.msg == 0 {
                        return Ok(());
                    }
                    ctx.charge(Dur::from_micros(1));
                    ctx.send(next, env.msg - 1, ctx.now() + Dur::from_micros(2));
                }
            });
        } else {
            sim.spawn_daemon(&format!("ring{i}"), move |ctx| {
                while let Ok(env) = ctx.recv() {
                    ctx.charge(Dur::from_micros(1));
                    if env.msg == 0 {
                        ctx.send(next, 0, ctx.now() + Dur::from_micros(2));
                    } else {
                        ctx.send(next, env.msg - 1, ctx.now() + Dur::from_micros(2));
                    }
                }
                Ok(())
            });
        }
    }
    sim.run().unwrap().trace.unwrap()
}

#[test]
fn identical_runs_produce_identical_traces() {
    let t1 = token_ring(5, 23);
    let t2 = token_ring(5, 23);
    assert!(!t1.is_empty());
    assert_eq!(t1, t2);
}

#[test]
fn shared_state_between_processes_is_consistent() {
    // Two processes appending to a shared log under a mutex (never held
    // across yields): the log order must follow virtual time.
    let log = Arc::new(Mutex::new(Vec::<(u64, &'static str)>::new()));
    let mut sim = Sim::<()>::new();
    for (name, start, step) in [("even", 0u64, 20u64), ("odd", 10, 20)] {
        let log = Arc::clone(&log);
        sim.spawn(name, move |ctx| {
            ctx.sleep(Dur::from_nanos(start))?;
            for _ in 0..5 {
                log.lock().unwrap().push((ctx.now().nanos(), name));
                ctx.sleep(Dur::from_nanos(step))?;
            }
            Ok(())
        });
    }
    sim.run().unwrap();
    let log = log.lock().unwrap();
    let times: Vec<u64> = log.iter().map(|e| e.0).collect();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    assert_eq!(times, sorted, "log must be in virtual-time order");
    assert_eq!(log.len(), 10);
    assert_eq!(log[0], (0, "even"));
    assert_eq!(log[1], (10, "odd"));
}

#[test]
fn send_to_self_works() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("selfie", |ctx| {
        ctx.send(0, 9, ctx.now() + Dur::from_micros(4));
        let env = ctx.recv()?;
        assert_eq!(env.msg, 9);
        assert_eq!(ctx.now().nanos(), 4_000);
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn many_processes_scale() {
    // Sanity: a few hundred processes exchanging messages completes quickly.
    let n = 200;
    let mut sim = Sim::<u32>::new();
    sim.spawn("collector", move |ctx| {
        for _ in 0..n {
            ctx.recv()?;
        }
        Ok(())
    });
    for i in 0..n {
        sim.spawn(&format!("w{i}"), move |ctx| {
            ctx.charge(Dur::from_nanos(i as u64));
            ctx.send(0, i, ctx.now() + Dur::from_micros(1));
            Ok(())
        });
    }
    let report = sim.run().unwrap();
    assert!(report.events_processed >= 2 * n as u64);
}
