//! `Ctx::recv_timeout(Dur::ZERO)` must behave *exactly* like
//! `Ctx::try_recv` under the mailbox fast path: the same envelope at the
//! same virtual time, no extra checkpoint event in the kernel trace —
//! ungrouped and with one group per process.

use std::sync::{Arc, Mutex};

use repseq_sim::{Dur, Sim, SimReport};

/// Drive a producer/poller pair where the poller drains its mailbox with
/// either `recv_timeout(Dur::ZERO)` or `try_recv`, logging every poll
/// outcome with its virtual time. The two variants must be bit-identical.
fn poll_run(zero_timeout: bool, grouped: bool) -> (SimReport, Vec<String>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let log2 = Arc::clone(&log);
    let mut sim = Sim::<u32>::new();
    sim.record_trace(true);
    sim.spawn("producer", |ctx| {
        for i in 0..4u32 {
            ctx.send(1, i, ctx.now() + Dur::from_micros(10 * (i as u64 + 1)));
        }
        Ok(())
    });
    sim.spawn("poller", move |ctx| {
        let mut got = 0;
        while got < 4 {
            let polled = if zero_timeout { ctx.recv_timeout(Dur::ZERO)? } else { ctx.try_recv()? };
            match polled {
                Some(env) => {
                    got += 1;
                    log2.lock().unwrap().push(format!(
                        "{:?}: got {} from {} sent-at {:?}",
                        ctx.now(),
                        env.msg,
                        env.from,
                        env.at
                    ));
                }
                None => {
                    log2.lock().unwrap().push(format!("{:?}: empty", ctx.now()));
                    // Advance virtual time between empty polls so the
                    // producer's staggered sends become due.
                    ctx.sleep(Dur::from_micros(3))?;
                }
            }
        }
        Ok(())
    });
    if grouped {
        sim.set_lookahead(Dur::from_micros(1));
        sim.assign_group(0, 0);
        sim.assign_group(1, 1);
    }
    let report = sim.run().unwrap();
    let log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
    (report, log)
}

fn assert_identical(grouped: bool) {
    let (r_try, log_try) = poll_run(false, grouped);
    let (r_zero, log_zero) = poll_run(true, grouped);
    assert_eq!(log_try, log_zero, "poll outcomes must match (grouped={grouped})");
    // The poller observed both empty polls and queued-message pops.
    assert!(log_try.iter().any(|l| l.contains("empty")), "{log_try:?}");
    assert!(log_try.iter().any(|l| l.contains("got")), "{log_try:?}");
    assert_eq!(r_try.end_time, r_zero.end_time);
    assert_eq!(r_try.proc_clocks, r_zero.proc_clocks);
    // No extra checkpoint event for the zero-timeout variant: identical
    // event count and identical kernel pop order.
    assert_eq!(r_try.events_processed, r_zero.events_processed);
    assert_eq!(r_try.trace, r_zero.trace, "kernel traces must match (grouped={grouped})");
}

#[test]
fn recv_timeout_zero_equals_try_recv_ungrouped() {
    assert_identical(false);
}

#[test]
fn recv_timeout_zero_equals_try_recv_grouped() {
    assert_identical(true);
}

/// A message already queued in the mailbox is popped by
/// `recv_timeout(Dur::ZERO)` through the same fast path as `try_recv`:
/// same envelope, and virtual time does not move.
#[test]
fn queued_message_pops_at_current_time() {
    for zero_timeout in [false, true] {
        let mut sim = Sim::<u32>::new();
        sim.spawn("producer", |ctx| {
            ctx.send(1, 7, ctx.now() + Dur::from_micros(1));
            Ok(())
        });
        sim.spawn("consumer", move |ctx| {
            ctx.sleep(Dur::from_micros(5))?;
            let before = ctx.now();
            let env = if zero_timeout { ctx.recv_timeout(Dur::ZERO)? } else { ctx.try_recv()? }
                .expect("message was already due");
            assert_eq!(env.msg, 7);
            assert_eq!(env.from, 0);
            assert_eq!(ctx.now(), before, "popping a queued message must not advance time");
            Ok(())
        });
        sim.run().unwrap();
    }
}
