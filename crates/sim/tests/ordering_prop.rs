//! Property tests of the kernel's delivery semantics: for any random send
//! schedule, every receiver observes its messages ordered by
//! (delivery time, send sequence), and the engine clock never runs
//! backwards; for random sends from regrouped processes, the kernel
//! trace is the pushes sorted by `(time, src_group, seq)`; and receivers
//! that wait in every way the kernel offers see what an eager reference —
//! one that queues every checkpoint and every deadline — computes.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use repseq_sim::{Ctx, Dur, Sim, SimTime, Stopped, TraceClass, TraceEntry};

/// One scheduled send: (receiver index, delivery time ns, tag).
type Send = (usize, u64, u32);

fn schedule_strategy() -> impl Strategy<Value = Vec<Send>> {
    prop::collection::vec((0usize..3, 0u64..50_000, 0u32..1000), 1..40)
}

fn run_schedule(sends: Vec<Send>) -> Vec<Vec<(u64, u32)>> {
    let n_recv = 3;
    let expected: Vec<usize> =
        (0..n_recv).map(|r| sends.iter().filter(|s| s.0 == r).count()).collect();
    let got = Arc::new(Mutex::new(vec![Vec::new(); n_recv]));
    let mut sim = Sim::<u32>::new();
    for (r, &count) in expected.iter().enumerate() {
        let got = Arc::clone(&got);
        sim.spawn(&format!("recv{r}"), move |ctx| {
            for _ in 0..count {
                let env = ctx.recv()?;
                got.lock().unwrap()[r].push((env.at.nanos(), env.msg));
            }
            Ok(())
        });
    }
    sim.spawn("sender", move |ctx| {
        for (r, at, tag) in sends {
            ctx.send(r, tag, SimTime::from_nanos(at));
        }
        // Stay alive briefly so zero-time deliveries are unambiguous.
        ctx.sleep(Dur::from_nanos(1))?;
        Ok(())
    });
    sim.run().expect("run failed");
    Arc::try_unwrap(got).unwrap().into_inner().unwrap()
}

/// What one process of the regrouped schedule does: the group it is moved
/// to after spawn (if any) and its sends, `(receiver, delivery µs, tag)`,
/// over a handful of instants so that many keys tie on time.
type Node = (Option<usize>, Vec<(usize, u64, u32)>);

const NODES: usize = 5;
/// Regrouping targets are drawn from `0..GROUPS`: a group some other
/// process was born in, a group shared with another regrouped process, or
/// one nobody was born in.
const GROUPS: usize = 8;
/// Every process sleeps this long from t = 0, past the last delivery.
const T_END: Dur = Dur::from_micros(10);

fn regrouped_strategy() -> impl Strategy<Value = Vec<Node>> {
    let group = (0usize..2, 0usize..GROUPS).prop_map(|(on, g)| (on == 1).then_some(g));
    let sends = prop::collection::vec((0usize..NODES, 1u64..5, 0u32..1000), 0..12);
    prop::collection::vec((group, sends), NODES)
}

/// Run the schedule: every process is regrouped while its t = 0 start wake
/// is pending, then at t = 0 pushes all its sends and a sleep to `T_END`,
/// and finally takes its messages from the mailbox (which pushes nothing).
/// Returns the kernel trace and the tags each process received, in order.
fn run_regrouped(nodes: &[Node]) -> (Vec<TraceEntry>, Vec<Vec<u32>>) {
    let got = Arc::new(Mutex::new(vec![Vec::new(); NODES]));
    let mut sim = Sim::<u32>::new();
    for (p, (_, sends)) in nodes.iter().enumerate() {
        let inbound = nodes.iter().flat_map(|n| &n.1).filter(|s| s.0 == p).count();
        let (sends, got) = (sends.clone(), Arc::clone(&got));
        sim.spawn(&format!("node{p}"), move |ctx| {
            for (dst, us, tag) in sends {
                ctx.send(dst, tag, SimTime::from_nanos(us * 1_000));
            }
            ctx.sleep(T_END)?;
            for _ in 0..inbound {
                let tag = ctx.recv()?.msg;
                got.lock().unwrap()[p].push(tag);
            }
            Ok(())
        });
    }
    for (p, (group, _)) in nodes.iter().enumerate() {
        if let Some(g) = *group {
            sim.assign_group(p, g);
        }
    }
    sim.set_lookahead(Dur::from_micros(1));
    sim.record_trace(true);
    let report = sim.run().expect("run failed");
    assert!(report.mailbox_backlog.is_empty(), "{:?}", report.mailbox_backlog);
    (report.trace.unwrap(), Arc::try_unwrap(got).unwrap().into_inner().unwrap())
}

/// The same pushes keyed by hand and sorted. Start wakes were pushed at
/// spawn under each process's birth group (its pid, seq 0) and keep that
/// key through regrouping; they pop in pid order, so that is the order the
/// processes push in, each drawing seqs from the group it is in *now*.
fn regrouped_model(nodes: &[Node]) -> (Vec<TraceEntry>, Vec<Vec<u32>>) {
    let group_of: Vec<usize> = nodes.iter().enumerate().map(|(p, n)| n.0.unwrap_or(p)).collect();
    let mut seqs = [0u64; GROUPS];
    seqs[..NODES].fill(1);
    let mut pushes = Vec::new();
    for (p, (_, sends)) in nodes.iter().enumerate() {
        let src = group_of[p] as u64;
        let mut push = |time, pid, class, tag| {
            let seq = &mut seqs[src as usize];
            pushes.push((TraceEntry { time, src, seq: *seq, pid, class }, tag));
            *seq += 1;
        };
        for &(dst, us, tag) in sends {
            push(SimTime::from_nanos(us * 1_000), dst, TraceClass::Deliver, Some(tag));
        }
        push(SimTime::ZERO + T_END, p, TraceClass::Wake, None);
    }
    pushes.sort_by_key(|(e, _)| (e.time, e.src, e.seq));
    let mut got = vec![Vec::new(); NODES];
    for (e, tag) in &pushes {
        got[e.pid].extend(*tag);
    }
    let starts = (0..NODES).map(|p| TraceEntry {
        time: SimTime::ZERO,
        src: p as u64,
        seq: 0,
        pid: p,
        class: TraceClass::Wake,
    });
    (starts.chain(pushes.iter().map(|(e, _)| *e)).collect(), got)
}

/// One step of a receiver's script (durations in ns).
#[derive(Debug, Clone, Copy)]
enum Op {
    Recv,
    RecvTimeout(u64),
    TryRecv,
    Charge(u64),
}

/// What a wait returned, and the receiver's clock when it did.
type Seen = (u64, Option<u32>);

/// A send of the wait schedule: `(from the high-group sender, receiver,
/// delivery ns)`; its tag is its index in the schedule.
type WaitSend = (bool, usize, u64);

const RECEIVERS: usize = 3;
/// Both senders sleep this long from t = 0 — past every delivery and every
/// deadline a script can reach — and their exit ends the run.
const WAIT_END: Dur = Dur::from_micros(10);

/// Times come from a range narrow enough that deliveries, checkpoints and
/// deadlines keep landing on the same nanosecond, and one apart.
fn waits_strategy() -> impl Strategy<Value = (Vec<WaitSend>, Vec<Vec<Op>>)> {
    let op = (0usize..4, 0u64..6).prop_map(|(kind, d)| match kind {
        0 => Op::Recv,
        1 => Op::RecvTimeout(d + 1),
        2 => Op::TryRecv,
        _ => Op::Charge(d),
    });
    let sends = prop::collection::vec((0usize..2, 0..RECEIVERS, 0u64..40), 0..24)
        .prop_map(|v| v.into_iter().map(|(hi, r, at)| (hi == 1, r, at)).collect());
    (sends, prop::collection::vec(prop::collection::vec(op, 0..12), RECEIVERS))
}

/// Run the wait schedule. The receivers (pids = groups `1..=RECEIVERS`,
/// daemons) sit between a sender in group 0 and one in the highest group,
/// so a delivery can tie with a checkpoint or a deadline on time and fall
/// on either side of it. The senders push everything at t = 0.
fn run_waits(sends: &[WaitSend], scripts: &[Vec<Op>]) -> Vec<Vec<Seen>> {
    let seen = Arc::new(Mutex::new(vec![Vec::new(); RECEIVERS]));
    let mut sim = Sim::<u32>::new();
    let sender = |hi: bool| {
        let mine: Vec<(usize, u32, u64)> = (0u32..)
            .zip(sends)
            .filter(|(_, s)| s.0 == hi)
            .map(|(tag, &(_, r, at))| (r + 1, tag, at))
            .collect();
        move |ctx: Ctx<u32>| -> Result<(), Stopped> {
            for (dst, tag, at) in mine {
                ctx.send(dst, tag, SimTime::from_nanos(at));
            }
            ctx.sleep(WAIT_END)
        }
    };
    sim.spawn("low-sender", sender(false));
    for (r, script) in scripts.iter().enumerate() {
        let (script, seen) = (script.clone(), Arc::clone(&seen));
        sim.spawn_daemon(&format!("recv{r}"), move |ctx| {
            for op in script {
                let got = match op {
                    Op::Recv => Some(ctx.recv()?),
                    Op::RecvTimeout(d) => ctx.recv_timeout(Dur::from_nanos(d))?,
                    Op::TryRecv => ctx.try_recv()?,
                    Op::Charge(d) => {
                        ctx.charge(Dur::from_nanos(d));
                        continue;
                    }
                };
                seen.lock().unwrap()[r].push((ctx.now().nanos(), got.map(|env| env.msg)));
            }
            Ok(())
        });
    }
    sim.spawn("high-sender", sender(true));
    sim.run().expect("run failed");
    Arc::try_unwrap(seen).unwrap().into_inner().unwrap()
}

/// The eager reference. A receiver pushes only its own wakes, so what it
/// sees depends on nothing but its script and the deliveries addressed to
/// it, sorted by key: a wait at clock `at` first gets what lies below its
/// checkpoint `(at, group)`, then whichever of the next delivery and the
/// deadline `(deadline, group)` has the lower key.
fn waits_model(sends: &[WaitSend], scripts: &[Vec<Op>]) -> Vec<Vec<Seen>> {
    let mut model = Vec::new();
    for (r, script) in scripts.iter().enumerate() {
        let group = r as u64 + 1;
        let src = |hi| if hi { RECEIVERS as u64 + 1 } else { 0 };
        let mut inbound: Vec<(u64, u64, u32)> = (0u32..)
            .zip(sends)
            .filter(|(_, s)| s.1 == r)
            .map(|(tag, &(hi, _, at))| (at, src(hi), tag))
            .collect();
        inbound.sort();
        let mut inbound = VecDeque::from(inbound);
        let (mut clock, mut seen) = (0, Vec::new());
        for &op in script {
            let deadline = match op {
                Op::Recv => None,
                Op::RecvTimeout(d) => Some(clock + d),
                Op::TryRecv => Some(clock),
                Op::Charge(d) => {
                    clock += d;
                    continue;
                }
            };
            let limit = deadline.map_or((u64::MAX, 0), |dl| (dl, group));
            match inbound.front() {
                Some(&(at, src, tag)) if (at, src) < limit => {
                    inbound.pop_front();
                    clock = clock.max(at);
                    seen.push((clock, Some(tag)));
                }
                _ if deadline.is_none() => break, // waits until the run ends
                _ => {
                    clock = limit.0;
                    seen.push((clock, None));
                }
            }
        }
        model.push(seen);
    }
    model
}

/// The cases the random schedules are meant to hit, spelt out once. On
/// receiver 0 (group 1): a clock ahead of kernel time, a delivery at the
/// checkpoint instant from the lower group and one from the higher group,
/// then a timeout. On receiver 1 (group 2): a message that beats its
/// deadline by 1 ns, one that ties with the next deadline from the higher
/// group (and so loses), and one that loses by 1 ns.
#[test]
fn waits_at_the_named_edges_match_the_eager_reference() {
    let sends = [
        (false, 0, 5),  // tag 0: at r0's checkpoint instant, from below
        (true, 0, 5),   // tag 1: the same instant, from above
        (false, 1, 12), // tag 2: 1 ns inside r1's first deadline, 13
        (true, 1, 17),  // tag 3: on r1's second deadline, from above
        (false, 1, 24), // tag 4: 1 ns past r1's fourth deadline, 23
    ];
    let r0 = vec![Op::Charge(5), Op::Recv, Op::TryRecv, Op::Recv, Op::RecvTimeout(3), Op::Recv];
    let r1 = vec![
        Op::Charge(8),
        Op::RecvTimeout(5),
        Op::RecvTimeout(5),
        Op::RecvTimeout(6),
        Op::RecvTimeout(6),
        Op::Recv,
    ];
    let scripts = [r0, r1, vec![]];
    let want = vec![
        vec![(5, Some(0)), (5, None), (5, Some(1)), (8, None)],
        vec![(12, Some(2)), (17, None), (17, Some(3)), (23, None), (24, Some(4))],
        vec![],
    ];
    assert_eq!(waits_model(&sends, &scripts), want);
    assert_eq!(run_waits(&sends, &scripts), want);
}

/// `recv_timeout`s that are all satisfied by messages leave nothing
/// behind: the run is its deliveries and the two start wakes — no
/// checkpoint that found nothing, no deadline that was not reached — and
/// (a debug assertion in `Sim::run`) no timer is still armed at the end.
#[test]
fn satisfied_timeouts_cost_no_event() {
    const ROUNDS: u64 = 500;
    let mut sim = Sim::<u64>::new();
    sim.spawn("ping", |ctx| {
        for i in 0..ROUNDS {
            ctx.send(1, i, ctx.now() + Dur::from_micros(1));
            let back = ctx.recv_timeout(Dur::from_micros(50))?;
            assert_eq!(back.map(|env| env.msg), Some(i));
        }
        Ok(())
    });
    sim.spawn("pong", |ctx| {
        for _ in 0..ROUNDS {
            let env = ctx.recv_timeout(Dur::from_micros(50))?.expect("ping is on time");
            ctx.charge(Dur::from_micros(1));
            ctx.send(env.from, env.msg, ctx.now() + Dur::from_micros(1));
        }
        Ok(())
    });
    sim.record_trace(true);
    let report = sim.run().expect("run failed");
    assert_eq!(report.events_processed, 2 * ROUNDS + 2);
    assert_eq!(report.trace.unwrap().iter().filter(|e| e.is_delivery()).count() as u64, 2 * ROUNDS);
    assert_eq!(report.end_time, SimTime::from_nanos(ROUNDS * 3_000));
}

/// Within one instant a zero-latency send can pop *below* the front, so a
/// reserved checkpoint is judged against the front, not against the
/// delivery's own key. `mid` waits at t = 10 µs; `high`'s wake pops above
/// that checkpoint (it has found nothing: `mid` is waiting) and pokes
/// `low`, whose three same-instant deliveries to `mid` all key below it.
/// The first resumes `mid` on the spot; its next checkpoint lies behind
/// the front with two deliveries still pending below it, so it is queued
/// and finds both. `mid` has then drawn four keys — start, sleep, two
/// checkpoints — as it does when every checkpoint is queued.
#[test]
fn a_checkpoint_behind_the_front_keeps_its_place() {
    let at = Dur::from_micros(10);
    let mut sim = Sim::<u32>::new();
    sim.spawn_daemon("low", |ctx| {
        ctx.recv()?;
        for tag in 0..3 {
            ctx.send(1, tag, ctx.now());
        }
        ctx.recv().map(drop)
    });
    sim.spawn("mid", move |ctx| {
        ctx.sleep(at)?;
        for tag in 0..3 {
            assert_eq!(ctx.recv()?.msg, tag);
        }
        ctx.send(2, 9, ctx.now() + Dur::from_micros(1));
        ctx.sleep(Dur::from_micros(2))
    });
    sim.spawn_daemon("sink", |ctx| ctx.recv().map(drop));
    sim.spawn_daemon("high", move |ctx| {
        ctx.sleep(at)?;
        ctx.send(0, 0, ctx.now());
        Ok(())
    });
    sim.record_trace(true);
    let trace = sim.run().expect("run failed").trace.unwrap();
    let to_sink = TraceEntry {
        time: SimTime::from_nanos(11_000),
        src: 1,
        seq: 4,
        pid: 2,
        class: TraceClass::Deliver,
    };
    assert!(trace.contains(&to_sink), "{trace:#?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_kind_of_wait_sees_what_the_eager_reference_sees(
        (sends, scripts) in waits_strategy()
    ) {
        prop_assert_eq!(run_waits(&sends, &scripts), waits_model(&sends, &scripts));
    }

    #[test]
    fn deliveries_are_ordered_per_receiver(sends in schedule_strategy()) {
        let per_recv = run_schedule(sends.clone());
        for (r, msgs) in per_recv.iter().enumerate() {
            // Count matches.
            let want: Vec<&Send> = sends.iter().filter(|s| s.0 == r).collect();
            prop_assert_eq!(msgs.len(), want.len());
            // Non-decreasing delivery times.
            for w in msgs.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "receiver {} saw time go backwards", r);
            }
            // Ties broken by send order: stable sort of the schedule by
            // delivery time must equal the observed tag order.
            let mut sorted = want.clone();
            sorted.sort_by_key(|s| s.1);
            let want_tags: Vec<u32> = sorted.iter().map(|s| s.2).collect();
            let got_tags: Vec<u32> = msgs.iter().map(|m| m.1).collect();
            prop_assert_eq!(got_tags, want_tags, "receiver {} order", r);
        }
    }

    #[test]
    fn runs_are_deterministic(sends in schedule_strategy()) {
        let a = run_schedule(sends.clone());
        let b = run_schedule(sends);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn regrouped_pushes_pop_in_key_order(nodes in regrouped_strategy()) {
        let (trace, got) = run_regrouped(&nodes);
        let (want_trace, want_got) = regrouped_model(&nodes);
        prop_assert_eq!(repseq_sim::first_divergence(&trace, &want_trace), None);
        prop_assert_eq!(&got, &want_got);
        let (again, got_again) = run_regrouped(&nodes);
        prop_assert_eq!(repseq_sim::first_divergence(&trace, &again), None);
        prop_assert_eq!(got, got_again);
    }
}
