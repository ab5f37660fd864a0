//! Property tests of the kernel's delivery semantics: for any random send
//! schedule, every receiver observes its messages ordered by
//! (delivery time, send sequence), and the engine clock never runs
//! backwards; and for random sends from regrouped processes, the kernel
//! trace is the pushes sorted by `(time, src_group, seq)`.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use repseq_sim::{Dur, Sim, SimTime, TraceClass, TraceEntry};

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
                got.lock()[r].push((env.at.nanos(), env.msg));
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
    Arc::try_unwrap(got).unwrap().into_inner()
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
                got.lock()[p].push(tag);
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
    (report.trace.unwrap(), Arc::try_unwrap(got).unwrap().into_inner())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
