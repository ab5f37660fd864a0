//! The process-context contract the DSM protocol relies on, checked on the
//! simulator: timeout ordering relative to delivery, envelope integrity,
//! monotone clocks, per-sender FIFO delivery, daemon shutdown, and the
//! message-built barrier-reuse and lock-grant disciplines the sync layer
//! assumes.
//!
//! All checks exchange `u64` messages (op in the high 32 bits, argument in
//! the low 32) so the suite needs no message type of its own. A panic in a
//! process body fails the run, and `run` turns that into a test failure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use repseq_sim::{Ctx, Dur, Pid, Sim, Stopped};

/// A process body.
type ProcBody = Box<dyn FnOnce(Ctx<u64>) -> Result<(), Stopped> + Send + 'static>;

fn body<F>(f: F) -> ProcBody
where
    F: FnOnce(Ctx<u64>) -> Result<(), Stopped> + Send + 'static,
{
    Box::new(f)
}

/// Spawn `primaries` then `daemons` — pids are assigned densely in that
/// order, primaries first — and run the simulation to completion.
fn run(primaries: Vec<ProcBody>, daemons: Vec<ProcBody>) {
    let mut sim = Sim::<u64>::new();
    for (i, body) in primaries.into_iter().enumerate() {
        sim.spawn(&format!("p{i}"), body);
    }
    for (i, body) in daemons.into_iter().enumerate() {
        sim.spawn_daemon(&format!("d{i}"), body);
    }
    sim.run().expect("conformance run must complete");
}

const LATENCY: Dur = Dur::from_micros(10);

/// A message arrives with the sender's pid, the correct payload, and a
/// delivery time no later than the receiver's clock after the receive.
#[test]
fn envelope_integrity() {
    run(
        vec![
            body(|ctx| {
                ctx.send(1, 7, ctx.now() + LATENCY);
                Ok(())
            }),
            body(|ctx| {
                let env = ctx.recv()?;
                assert_eq!(env.from, 0, "envelope must carry the sender's pid");
                assert_eq!(env.msg, 7, "payload must arrive unchanged");
                assert!(
                    env.at <= ctx.now(),
                    "a received message's delivery time cannot be in the receiver's future"
                );
                Ok(())
            }),
        ],
        vec![],
    );
}

/// `recv_timeout` returns a message that arrives within the window rather
/// than timing out, and genuinely waits out the window when nothing
/// arrives — the ordering the fetch layer's `RetryTimer` discipline is
/// built on. (`RetryTimer` lives in `repseq-dsm`.)
#[test]
fn timeout_orders_after_delivery() {
    run(
        vec![
            body(|ctx| {
                ctx.send(1, 42, ctx.now() + LATENCY);
                Ok(())
            }),
            body(|ctx| {
                let env = ctx
                    .recv_timeout(Dur::from_millis(5))?
                    .expect("a message delivered inside the window must beat the timeout");
                assert_eq!(env.msg, 42);
                let before = ctx.now();
                let none = ctx.recv_timeout(Dur::from_millis(1))?;
                assert!(none.is_none(), "an empty window must time out");
                assert!(
                    ctx.now() >= before + Dur::from_millis(1),
                    "a timeout must wait out at least its window"
                );
                Ok(())
            }),
        ],
        vec![],
    );
}

/// `sleep` advances the process clock by at least the requested span, and
/// `now` never goes backwards.
#[test]
fn sleep_advances_now() {
    run(
        vec![body(|ctx| {
            let t0 = ctx.now();
            ctx.sleep(Dur::from_millis(2))?;
            let t1 = ctx.now();
            assert!(t1 >= t0 + Dur::from_millis(2), "sleep must advance the clock");
            ctx.charge(Dur::from_micros(5));
            assert!(ctx.now() >= t1, "the clock never goes backwards");
            Ok(())
        })],
        vec![],
    );
}

/// Messages from one sender to one receiver arrive in send order — the
/// per-link FIFO assumption behind the protocol's request/reply matching.
#[test]
fn per_sender_fifo() {
    const ROUNDS: u64 = 16;
    run(
        vec![
            body(|ctx| {
                for i in 0..ROUNDS {
                    ctx.send(1, i, ctx.now() + LATENCY);
                }
                // Wait for the echo of the last value so the run cannot
                // end before the receiver has checked everything.
                loop {
                    if ctx.recv()?.msg == ROUNDS - 1 {
                        return Ok(());
                    }
                }
            }),
            body(|ctx| {
                for i in 0..ROUNDS {
                    let env = ctx.recv()?;
                    assert_eq!(env.msg, i, "per-sender delivery must preserve send order");
                }
                ctx.send(0, ROUNDS - 1, ctx.now() + LATENCY);
                Ok(())
            }),
        ],
        vec![],
    );
}

/// Once every primary exits, a daemon blocked in `recv` observes
/// `Stopped` (instead of hanging or being killed) and gets to run its
/// cleanup code.
#[test]
fn daemons_observe_stop() {
    let stopped = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stopped);
    run(
        vec![body(|ctx| ctx.sleep(Dur::from_micros(50)))],
        vec![body(move |ctx| {
            match ctx.recv() {
                Err(Stopped) => flag.store(true, Ordering::SeqCst),
                Ok(env) => panic!("daemon received unexpected message {}", env.msg),
            }
            Ok(())
        })],
    );
    assert!(
        stopped.load(Ordering::SeqCst),
        "a daemon blocked in recv must observe Stopped when the primaries exit"
    );
}

// ---------------------------------------------------------------------
// Message-built synchronization: the disciplines the DSM sync layer
// assumes, reconstructed from raw send/recv.
// ---------------------------------------------------------------------

const OP_ARRIVE: u64 = 1 << 32;
const OP_RELEASE: u64 = 2 << 32;
const OP_ACQUIRE: u64 = 3 << 32;
const OP_GRANT: u64 = 4 << 32;

fn enc(op: u64, arg: u64) -> u64 {
    debug_assert!(arg < (1 << 32));
    op | arg
}

/// A centralized barrier rebuilt from messages is reusable across
/// episodes: no arrival of episode `k+1` is ever counted toward episode
/// `k`.
#[test]
fn barrier_reuse() {
    const N: usize = 3;
    const EPISODES: u64 = 4;
    let mut primaries: Vec<ProcBody> = Vec::new();
    for me in 0..N {
        primaries.push(body(move |ctx| {
            for ep in 0..EPISODES {
                // Stagger arrivals differently every episode.
                ctx.sleep(Dur::from_micros(((me as u64 + ep) % N as u64) * 20))?;
                ctx.send(N, enc(OP_ARRIVE, ep), ctx.now() + LATENCY);
                let env = ctx.recv()?;
                assert_eq!(
                    env.msg,
                    enc(OP_RELEASE, ep),
                    "process {me} released from the wrong barrier episode"
                );
            }
            Ok(())
        }));
    }
    run(
        primaries,
        vec![body(|ctx| {
            // The manager daemon: collect N arrivals per episode, then
            // release everyone. A stray arrival from a later episode
            // would trip the episode assertion.
            for ep in 0..EPISODES {
                let mut waiting: Vec<Pid> = Vec::new();
                while waiting.len() < N {
                    let env = ctx.recv()?;
                    assert_eq!(
                        env.msg,
                        enc(OP_ARRIVE, ep),
                        "arrival crossed a barrier episode boundary"
                    );
                    waiting.push(env.from);
                }
                for pid in waiting {
                    ctx.send(pid, enc(OP_RELEASE, ep), ctx.now() + LATENCY);
                }
            }
            Ok(())
        })],
    );
}

/// A message-built lock manager grants in request-arrival order, every
/// request is granted exactly once, and a holder's release is never
/// observed before its grant (per-sender FIFO applied to the lock
/// discipline the sync layer uses).
#[test]
fn lock_grant_discipline() {
    const N: usize = 3;
    const ROUNDS: u64 = 4;
    let grants = Arc::new(AtomicU64::new(0));
    let mut primaries: Vec<ProcBody> = Vec::new();
    for me in 0..N {
        let counter = Arc::clone(&grants);
        primaries.push(body(move |ctx| {
            for round in 0..ROUNDS {
                ctx.send(N, enc(OP_ACQUIRE, round), ctx.now() + LATENCY);
                let env = ctx.recv()?;
                assert_eq!(env.msg, enc(OP_GRANT, round), "grant out of order for holder {me}");
                counter.fetch_add(1, Ordering::SeqCst);
                // Hold briefly, then release.
                ctx.sleep(Dur::from_micros(15))?;
                ctx.send(N, enc(OP_RELEASE, round), ctx.now() + LATENCY);
            }
            Ok(())
        }));
    }
    run(
        primaries,
        vec![body(|ctx| {
            let mut holder: Option<Pid> = None;
            let mut queue: std::collections::VecDeque<(Pid, u64)> =
                std::collections::VecDeque::new();
            let total = (N as u64) * ROUNDS;
            let mut released = 0u64;
            while released < total {
                let env = ctx.recv()?;
                let round = env.msg & 0xffff_ffff;
                match env.msg & !0xffff_ffffu64 {
                    op if op == OP_ACQUIRE => {
                        if holder.is_none() {
                            holder = Some(env.from);
                            ctx.send(env.from, enc(OP_GRANT, round), ctx.now() + LATENCY);
                        } else {
                            // FIFO: waiters are granted in arrival order.
                            queue.push_back((env.from, round));
                        }
                    }
                    op if op == OP_RELEASE => {
                        assert_eq!(
                            holder,
                            Some(env.from),
                            "release from a process that does not hold the lock: \
                             acquire was reordered past release"
                        );
                        released += 1;
                        holder = match queue.pop_front() {
                            Some((next, next_round)) => {
                                ctx.send(next, enc(OP_GRANT, next_round), ctx.now() + LATENCY);
                                Some(next)
                            }
                            None => None,
                        };
                    }
                    other => panic!("unexpected lock op {other:#x}"),
                }
            }
            assert!(queue.is_empty(), "requests left ungranted at shutdown");
            Ok(())
        })],
    );
    assert_eq!(grants.load(Ordering::SeqCst), (N as u64) * ROUNDS);
}
