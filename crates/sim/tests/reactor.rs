//! Reactors — daemons that run on the coordinator's stack — seen from
//! outside: in virtual time they are indistinguishable from a thread
//! daemon looping over `recv`/`recv_timeout`, on the host they cost no
//! switch, the coordinator runs every callback, dropping the simulation
//! frees them, and a panic in one fails the run under the reactor's own
//! name.
//! Every test runs under a watchdog, so a lost wake-up fails the test
//! instead of hanging the suite.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use repseq_sim::{
    first_divergence, Ctx, Dur, Envelope, Reactor, ReactorCtx, SendCtx, Sim, SimError, SimReport,
    SimTime, Stopped,
};

mod common;
use common::watchdog;

// ---------------------------------------------------------------------
// (a) thread daemon vs reactor: the same server, driven both ways
// ---------------------------------------------------------------------

const LOOKAHEAD: Dur = Dur::from_micros(10);
/// Sent to the sink on every timeout, so an expired wait shows in the trace.
const TICK: u64 = u64::MAX;

/// A server written once, "upon receive, do": each request is charged
/// `work` and answered with `msg + 1`; each expired wait is reported to
/// `sink`. The k-th wait lasts `waits[k % len]`.
#[derive(Clone)]
struct Server {
    waits: Vec<Option<Dur>>,
    next_wait: usize,
    work: Dur,
    sink: usize,
}

impl Server {
    fn wait(&mut self) -> Option<Dur> {
        let w = self.waits[self.next_wait % self.waits.len()];
        self.next_wait += 1;
        w
    }

    fn on_msg(&mut self, ctx: &impl SendCtx<u64>, env: Envelope<u64>) {
        ctx.charge(self.work);
        ctx.send(env.from, env.msg + 1, ctx.now() + LOOKAHEAD);
    }

    fn on_timeout(&mut self, ctx: &impl SendCtx<u64>) {
        ctx.charge(Dur::from_nanos(300));
        ctx.send(self.sink, TICK, ctx.now() + LOOKAHEAD);
    }

    /// The thread driver: the loop a reactor turns inside out.
    fn run_on_thread(mut self, ctx: Ctx<u64>) -> Result<(), Stopped> {
        loop {
            let env = match self.wait() {
                Some(d) => ctx.recv_timeout(d)?,
                None => Some(ctx.recv()?),
            };
            match env {
                Some(env) => self.on_msg(&ctx, env),
                None => self.on_timeout(&ctx),
            }
        }
    }
}

impl Reactor<u64> for Server {
    fn wait(&mut self, _ctx: &ReactorCtx<'_, u64>) -> Option<Dur> {
        Server::wait(self)
    }

    fn on_msg(&mut self, ctx: &ReactorCtx<'_, u64>, env: Envelope<u64>) {
        Server::on_msg(self, ctx, env)
    }

    fn on_timeout(&mut self, ctx: &ReactorCtx<'_, u64>) {
        Server::on_timeout(self, ctx)
    }
}

/// One client: the virtual instants its requests *arrive* at the server,
/// and its scheduling group (the server's is [`SERVER_GROUP`]).
struct Client {
    group: usize,
    arrivals: Vec<u64>,
}

const SERVER_GROUP: usize = 2;

/// Build and run one scenario with the server as a thread daemon or as a
/// reactor. Pids: 0 the server, 1 the tick sink, 2.. the clients.
fn scenario(reactor: bool, waits: &[Option<Dur>], work: Dur, clients: &[Client]) -> SimReport {
    let mut sim = Sim::<u64>::new();
    let server = Server { waits: waits.to_vec(), next_wait: 0, work, sink: 1 };
    let server_pid = if reactor {
        sim.spawn_reactor("server", server)
    } else {
        sim.spawn_daemon("server", move |ctx| server.run_on_thread(ctx))
    };
    assert_eq!(server_pid, 0);
    let sink = sim.spawn_daemon("sink", |ctx| loop {
        assert_eq!(ctx.recv()?.msg, TICK);
    });
    sim.assign_group(server_pid, SERVER_GROUP);
    sim.assign_group(sink, SERVER_GROUP);
    for (i, c) in clients.iter().enumerate() {
        let arrivals = c.arrivals.clone();
        let pid = sim.spawn(&format!("client{i}"), move |ctx| {
            for (k, &at) in arrivals.iter().enumerate() {
                ctx.send(0, (i * 1000 + k) as u64, SimTime::from_nanos(at));
            }
            let mut sum = 0u64;
            for _ in 0..arrivals.len() {
                sum = sum.wrapping_mul(31).wrapping_add(ctx.recv()?.msg);
            }
            // Fold the reply order into the clock: a divergence shows in
            // the report, not just in the trace.
            ctx.charge(Dur::from_nanos(sum % 97));
            Ok(())
        });
        sim.assign_group(pid, c.group);
    }
    sim.set_lookahead(LOOKAHEAD);
    sim.record_trace(true);
    sim.run().expect("scenario completes")
}

/// The scenario run both ways must agree on everything virtual; returns
/// the reactor run's report for scenario-specific checks.
fn assert_equivalent(waits: &[Option<Dur>], work: Dur, clients: Vec<Client>) -> SimReport {
    let waits = waits.to_vec();
    watchdog(60, move || {
        let thread = scenario(false, &waits, work, &clients);
        let react = scenario(true, &waits, work, &clients);
        let (tt, tr) = (thread.trace.as_ref().unwrap(), react.trace.as_ref().unwrap());
        if let Some(d) = first_divergence(tt, tr) {
            panic!("thread and reactor traces diverge at {d:?}");
        }
        assert_eq!(thread.events_processed, react.events_processed);
        assert_eq!(thread.end_time, react.end_time);
        assert_eq!(thread.proc_clocks, react.proc_clocks);
        assert_eq!(thread.mailbox_backlog, react.mailbox_backlog);
        // Same pops, so the same events resumed nobody; the resumes differ
        // only in who served them.
        assert_eq!(thread.exec.inline_events, react.exec.inline_events);
        assert_eq!(thread.exec.reactor_runs, 0);
        assert!(react.exec.reactor_runs > 0);
        assert!(react.exec.handoff_switches < thread.exec.handoff_switches);
        react
    })
}

fn us(n: u64) -> Dur {
    Dur::from_micros(n)
}

#[test]
fn echo_server_is_the_same_run_either_way() {
    // One client, requests far apart: every request finds the server
    // waiting and resumes it.
    let arrivals = (1..=40).map(|k| k * 50_000).collect();
    assert_equivalent(&[None], us(2), vec![Client { group: 0, arrivals }]);
}

#[test]
fn requests_queue_behind_a_busy_server() {
    // Four clients on lower- and higher-numbered groups than the server,
    // all landing requests at the same instants, 1 µs apart, on a server
    // that needs 7 µs each: almost every request is taken from the mailbox
    // by the receive fast path, long after it arrived.
    let arrivals: Vec<u64> = (0..30).map(|k| 20_000 + k * 1_000).collect();
    let clients = [0, 1, 3, 4]
        .into_iter()
        .map(|group| Client { group, arrivals: arrivals.clone() })
        .collect();
    let report = assert_equivalent(&[None], us(7), clients);
    // 120 requests served on far fewer resumes: the rest were queued.
    assert!(report.exec.reactor_runs < 60, "{:?}", report.exec);
    let busy_until = report.proc_clocks[0].1;
    assert!(busy_until >= SimTime::from_nanos(20_000 + 120 * 7_000), "{busy_until:?}");
}

#[test]
fn bounded_waits_expire_between_sparse_requests() {
    // A 15 µs stall guard against requests 100 µs apart: six or so
    // timeouts per gap, each reported to the sink.
    let arrivals = (1..=8).map(|k| k * 100_000).collect();
    let report = assert_equivalent(&[Some(us(15))], us(3), vec![Client { group: 3, arrivals }]);
    let ticks = report.trace.unwrap().iter().filter(|e| e.is_delivery() && e.pid == 1).count();
    assert!(ticks >= 40, "only {ticks} timeouts fired");
}

#[test]
fn a_zero_length_wait_polls_and_times_out_on_the_spot() {
    // After each request the server polls (`Some(0)`: the checkpoint *is*
    // the deadline), then waits unbounded. Back-to-back arrivals make some
    // polls find a message and others time out at once.
    let arrivals = vec![30_000, 30_500, 31_000, 80_000, 80_100, 200_000];
    let clients =
        vec![Client { group: 0, arrivals: arrivals.clone() }, Client { group: 4, arrivals }];
    assert_equivalent(&[None, Some(Dur::ZERO)], us(1), clients);
}

#[test]
fn a_message_landing_exactly_on_the_deadline() {
    // The server starts its first 25 µs wait at t = 0 and a request
    // arrives at exactly 25 µs. Same-instant events break ties by the
    // pusher's group: from a lower group the delivery pops first and the
    // deadline wake goes stale; from a higher group the wait times out
    // first and the request is found queued at the next checkpoint.
    for group in [0, 4] {
        let clients = vec![Client { group, arrivals: vec![25_000, 50_000, 140_000] }];
        let report = assert_equivalent(&[Some(us(25))], us(2), clients);
        let trace = report.trace.unwrap();
        let first_tick =
            trace.iter().find(|e| e.is_delivery() && e.pid == 1).expect("some wait expires");
        if group < SERVER_GROUP {
            assert!(first_tick.time > SimTime::from_nanos(50_000), "{first_tick:?}");
        } else {
            assert_eq!(first_tick.time, SimTime::from_nanos(25_300) + LOOKAHEAD, "{first_tick:?}");
        }
    }
}

// ---------------------------------------------------------------------
// (b) host economy: a thread ping-ponging with a reactor switches only to
// the thread
// ---------------------------------------------------------------------

#[test]
fn ping_pong_with_a_reactor_switches_once_per_round() {
    const ROUNDS: u64 = 500;
    let report = watchdog(60, || {
        let mut sim = Sim::<u64>::new();
        let server = Server { waits: vec![None], next_wait: 0, work: us(1), sink: 0 };
        let server = sim.spawn_reactor("server", server);
        sim.spawn("ping", move |ctx| {
            for i in 0..ROUNDS {
                ctx.send(server, i, ctx.now() + LOOKAHEAD);
                assert_eq!(ctx.recv()?.msg, i + 1);
            }
            Ok(())
        });
        sim.run().expect("ping-pong completes")
    });
    let x = report.exec;
    // The coordinator switches to `ping` for its start and for each reply,
    // and serves every request to the reactor on its own stack.
    assert_eq!(x.handoff_switches, 1 + ROUNDS, "{x:?}");
    assert_eq!(x.reactor_runs, 1 + ROUNDS, "{x:?}");
    // Every popped event either resumed nobody or is one of the two kinds
    // of resume.
    assert_eq!(report.events_processed, x.inline_events + x.handoff_switches + x.reactor_runs);
}

// ---------------------------------------------------------------------
// (c) the coordinator runs every reactor callback
// ---------------------------------------------------------------------

/// An address on the running stack.
#[inline(never)]
fn stack_here() -> usize {
    let here = 0u8;
    black_box(&here) as *const u8 as usize
}

/// Whether two stack addresses lie on one stack: far closer than any two
/// stacks of 2 MiB can be.
fn same_stack(a: usize, b: usize) -> bool {
    a.abs_diff(b) < 256 << 10
}

/// Records on which stack each callback ran.
struct Witness {
    ran_on: Arc<Mutex<Vec<(&'static str, usize)>>>,
}

impl Witness {
    fn note(&self, what: &'static str) {
        self.ran_on.lock().unwrap().push((what, stack_here()));
    }
}

impl Reactor<u32> for Witness {
    fn wait(&mut self, _ctx: &ReactorCtx<'_, u32>) -> Option<Dur> {
        self.note("wait");
        None
    }

    fn on_msg(&mut self, _ctx: &ReactorCtx<'_, u32>, _env: Envelope<u32>) {
        self.note("msg");
    }

    fn on_timeout(&mut self, _ctx: &ReactorCtx<'_, u32>) {
        unreachable!("unbounded waits only")
    }
}

#[test]
fn the_coordinator_runs_every_reactor_callback() {
    let (ran_on, coordinator, primary, report) = watchdog(60, || {
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::<u32>::new();
        // Spawned first: the reactor's start wake is the first event of the
        // run.
        let d = sim.spawn_reactor("witness", Witness { ran_on: Arc::clone(&ran_on) });
        let (sp_tx, sp_rx) = mpsc::channel();
        // Wakes at 100 µs (that pop opens the window [100, 110) µs), queues
        // a delivery at 101 µs — served while the primary sleeps a second
        // time — then two more at 105 µs and 115 µs, and exits.
        let p = sim.spawn("primary", move |ctx| {
            sp_tx.send(stack_here()).unwrap();
            ctx.sleep(Dur::from_micros(100))?;
            ctx.send(d, 0, SimTime::from_nanos(101_000));
            ctx.sleep(Dur::from_micros(1))?;
            ctx.send(d, 1, SimTime::from_nanos(105_000));
            ctx.send(d, 2, SimTime::from_nanos(115_000));
            Ok(())
        });
        sim.assign_group(d, 0);
        sim.assign_group(p, 0);
        sim.set_lookahead(Dur::from_micros(10));
        let coordinator = stack_here();
        let report = sim.run().expect("run completes");
        let ran_on = ran_on.lock().unwrap().clone();
        (ran_on, coordinator, sp_rx.recv().unwrap(), report)
    });
    // The primary's stack is not the coordinator's…
    assert!(!same_stack(primary, coordinator), "{primary:#x} {coordinator:#x}");
    // …and every callback ran on the coordinator's: the start wake, the
    // 101 µs delivery while the primary sleeps, and the 105 µs one in the
    // tail, inside the horizon.
    let what: Vec<_> = ran_on.iter().map(|&(what, _)| what).collect();
    assert_eq!(what, ["wait", "msg", "wait", "msg", "wait"]);
    for &(what, sp) in &ran_on {
        assert!(same_stack(sp, coordinator), "{what} ran at {sp:#x}, not near {coordinator:#x}");
    }
    // The 115 µs delivery is beyond the horizon the exit fell into.
    assert_eq!(report.end_time, SimTime::from_nanos(105_000));
    assert_eq!(report.exec.reactor_runs, 3, "{:?}", report.exec);
}

// ---------------------------------------------------------------------
// (d) dropping the simulation frees its reactors
// ---------------------------------------------------------------------

struct CountsDrops(Arc<AtomicUsize>);

impl Drop for CountsDrops {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

impl Reactor<u32> for CountsDrops {
    fn wait(&mut self, _ctx: &ReactorCtx<'_, u32>) -> Option<Dur> {
        None
    }

    fn on_msg(&mut self, ctx: &ReactorCtx<'_, u32>, env: Envelope<u32>) {
        ctx.send(env.from, env.msg, ctx.now() + Dur::from_micros(1));
    }

    fn on_timeout(&mut self, _ctx: &ReactorCtx<'_, u32>) {}
}

#[test]
fn a_sim_frees_its_reactors_whether_or_not_it_ran() {
    let (unrun, ran) = watchdog(60, || {
        let build = |drops: &Arc<AtomicUsize>| {
            let mut sim = Sim::<u32>::new();
            let r = sim.spawn_reactor("echo", CountsDrops(Arc::clone(drops)));
            sim.spawn("client", move |ctx| {
                ctx.send(r, 7, ctx.now() + Dur::from_micros(1));
                assert_eq!(ctx.recv()?.msg, 7);
                Ok(())
            });
            sim
        };
        let unrun = Arc::new(AtomicUsize::new(0));
        drop(build(&unrun));
        let ran = Arc::new(AtomicUsize::new(0));
        let report = build(&ran).run().expect("echo completes");
        // The report outlives the simulation and holds no reactor.
        let ran = ran.load(Ordering::SeqCst);
        drop(report);
        (unrun.load(Ordering::SeqCst), ran)
    });
    assert_eq!(unrun, 1, "a Sim dropped without `run` leaked its reactor");
    assert_eq!(ran, 1, "a completed run leaked its reactor");
}

// ---------------------------------------------------------------------
// panic containment: the reactor fails, not the thread it ran on
// ---------------------------------------------------------------------

/// Echoes until it receives `fuse`, then panics (`None`: in its very first
/// `wait`).
struct Doomed {
    fuse: Option<u32>,
    _alive: Arc<()>,
}

impl Reactor<u32> for Doomed {
    fn wait(&mut self, _ctx: &ReactorCtx<'_, u32>) -> Option<Dur> {
        assert!(self.fuse.is_some(), "boom in wait (expected by the test)");
        None
    }

    fn on_msg(&mut self, ctx: &ReactorCtx<'_, u32>, env: Envelope<u32>) {
        assert_ne!(Some(env.msg), self.fuse, "boom in on_msg (expected by the test)");
        ctx.send(env.from, env.msg, ctx.now() + Dur::from_micros(1));
    }

    fn on_timeout(&mut self, _ctx: &ReactorCtx<'_, u32>) {}
}

/// A reactor that panics while bystanders are parked and a client waits
/// for it. Returns the error and how many holders of `alive` are left.
fn doomed_run(fuse: Option<u32>) -> (SimError, usize) {
    watchdog(60, move || {
        let alive = Arc::new(());
        let mut sim = Sim::<u32>::new();
        for i in 0..6 {
            let alive = Arc::clone(&alive);
            sim.spawn(&format!("bystander{i}"), move |ctx| {
                let _alive = alive;
                ctx.recv().map(drop)
            });
        }
        let doomed = sim.spawn_reactor("doomed", Doomed { fuse, _alive: Arc::clone(&alive) });
        let held = Arc::clone(&alive);
        sim.spawn("client", move |ctx| {
            let _alive = held;
            for i in 0..10 {
                ctx.send(doomed, i, ctx.now() + Dur::from_micros(1));
                ctx.recv()?;
            }
            Ok(())
        });
        let err = sim.run().expect_err("the panic must surface");
        (err, Arc::strong_count(&alive))
    })
}

#[test]
fn a_reactor_panic_on_a_process_thread_is_reported_under_the_reactors_name() {
    // The third request blows the fuse mid-run, while `client` waits for
    // the reply: the same panic, on the same stack, as a process's.
    let (err, holders) = doomed_run(Some(3));
    match err {
        SimError::ProcessPanicked { pid, name } => assert_eq!((pid, name.as_str()), (6, "doomed")),
        other => panic!("expected ProcessPanicked, got {other:?}"),
    }
    assert_eq!(holders, 1, "a process or the reactor outlived run()");
}

#[test]
fn a_reactor_panic_on_the_coordinator_is_reported_the_same_way() {
    // Its very first wait blows the fuse.
    let (err, holders) = doomed_run(None);
    match err {
        SimError::ProcessPanicked { pid, name } => assert_eq!((pid, name.as_str()), (6, "doomed")),
        other => panic!("expected ProcessPanicked, got {other:?}"),
    }
    assert_eq!(holders, 1, "a process or the reactor outlived run()");
}
