//! Reactors: daemons that run to completion on the duty holder's stack.
//!
//! A protocol handler never blocks anywhere but at the top of its
//! `loop { recv … }`. A [`Reactor`] is that loop turned inside out: the
//! engine owns the waiting and calls [`on_msg`](Reactor::on_msg) /
//! [`on_timeout`](Reactor::on_timeout) when an event resumes the process,
//! on whichever stack holds duty at that moment — the process that is
//! blocked in [`Ctx`](crate::Ctx) and draining, or the coordinator. No
//! stack of its own, no switch in or out. This is the closer
//! model of what TreadMarks does: a SIGIO handler on the application's
//! processor, run to completion.
//!
//! # Equivalence with a coroutine daemon
//!
//! A reactor waits *exactly* as `recv`/`recv_timeout` do: a message
//! already in the mailbox is consumed on the spot (the fast path),
//! otherwise the same kernel routine draws the same checkpoint key at its
//! flushed clock and arms the same deadline timer, under the same pid and
//! group. Its [`charge`](ReactorCtx::charge) moves its own clock,
//! so it is busy in virtual time and requests still queue behind it. Every
//! push therefore carries the key the daemon's loop would have given it, the
//! pop order is the key order, and traces, `events_processed`,
//! `proc_clocks` and `mailbox_backlog` are bit-identical; only the
//! host-side [`ExecCounters`](crate::ExecCounters) differ.

use std::panic::{catch_unwind, AssertUnwindSafe};

use parking_lot::{Mutex, MutexGuard};

use crate::ctx::LocalClock;
use crate::engine::{DrainOutcome, Exec, Kernel, Status, Step};
use repseq_substrate::{Dur, Envelope, Pid, SendCtx, SimTime};

/// A daemon process without a stack (see the module docs), registered
/// with [`Sim::spawn_reactor`](crate::Sim::spawn_reactor).
///
/// A callback gets a [`ReactorCtx`] — the non-blocking half of a process
/// context — so it *cannot* block: there is no `recv` or `sleep` to call.
/// A panic in a callback fails the run as
/// [`SimError::ProcessPanicked`](crate::SimError::ProcessPanicked) under
/// the reactor's own pid and name, whichever process was hosting it.
///
/// ```
/// use repseq_sim::{Dur, Envelope, Reactor, ReactorCtx, Sim};
///
/// struct Echo;
/// impl Reactor<u32> for Echo {
///     fn wait(&mut self) -> Option<Dur> {
///         None
///     }
///     fn on_msg(&mut self, ctx: &ReactorCtx<'_, u32>, env: Envelope<u32>) {
///         ctx.charge(Dur::from_micros(2)); // busy: later requests queue
///         ctx.send(env.from, env.msg + 1, ctx.now() + Dur::from_micros(10));
///     }
///     fn on_timeout(&mut self, _ctx: &ReactorCtx<'_, u32>) {}
/// }
///
/// let mut sim = Sim::<u32>::new();
/// let echo = sim.spawn_reactor("echo", Echo);
/// sim.spawn("client", move |ctx| {
///     ctx.send(echo, 41, ctx.now() + Dur::from_micros(10));
///     assert_eq!(ctx.recv()?.msg, 42);
///     Ok(())
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time.nanos(), 22_000);
/// assert_eq!(report.exec.handoff_switches, 1); // the client's first wake
/// ```
///
/// There is nothing to block with:
///
/// ```compile_fail
/// # use repseq_sim::{Envelope, ReactorCtx};
/// fn on_msg(ctx: &ReactorCtx<'_, u32>, _env: Envelope<u32>) {
///     let _ = ctx.recv(); // no such method
/// }
/// ```
pub trait Reactor<M>: Send + 'static {
    /// How long the next wait may last: `None` waits for a message
    /// indefinitely (`recv`), `Some(d)` gives up after `d` of virtual time
    /// (`recv_timeout(d)`) and calls [`on_timeout`](Reactor::on_timeout).
    /// Asked once per wait, after each callback and at startup.
    fn wait(&mut self) -> Option<Dur>;

    /// A message arrived.
    fn on_msg(&mut self, ctx: &ReactorCtx<'_, M>, env: Envelope<M>);

    /// The bounded wait requested by [`wait`](Reactor::wait) expired.
    fn on_timeout(&mut self, ctx: &ReactorCtx<'_, M>);
}

/// What a running reactor can do: the four non-blocking primitives of
/// [`Ctx`](crate::Ctx), with the same meaning. Exists only for the
/// duration of one run on the duty holder's stack.
pub struct ReactorCtx<'k, M> {
    pid: Pid,
    kernel: &'k Mutex<Kernel<M>>,
    clock: LocalClock,
}

impl<M> ReactorCtx<'_, M> {
    /// This process's id.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time as seen by this process, including compute time
    /// charged during this run.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Account for `d` of local computation: the reactor is busy until
    /// then, and messages arriving meanwhile queue in its mailbox.
    #[inline]
    pub fn charge(&self, d: Dur) {
        self.clock.charge(d);
    }

    /// Schedule delivery of `msg` to `dst` at `deliver_at` (virtual time).
    pub fn send(&self, dst: Pid, msg: M, deliver_at: SimTime) {
        self.kernel.lock().send(self.pid, dst, msg, deliver_at.max(self.now()));
    }
}

impl<M> SendCtx<M> for ReactorCtx<'_, M> {
    fn pid(&self) -> Pid {
        ReactorCtx::pid(self)
    }

    fn now(&self) -> SimTime {
        ReactorCtx::now(self)
    }

    fn charge(&self, d: Dur) {
        ReactorCtx::charge(self, d)
    }

    fn send(&self, dst: Pid, msg: M, deliver_at: SimTime) {
        ReactorCtx::send(self, dst, msg, deliver_at)
    }
}

/// Why a reactor was resumed.
pub(crate) enum Cause<M> {
    /// The initial wake: nothing to deliver, go wait.
    Start,
    Msg(Envelope<M>),
    Timeout,
}

/// A reactor taken out of its slot by [`Kernel::drain`], due to run at
/// virtual time `at`.
pub(crate) struct ReactorRun<M> {
    pub pid: Pid,
    pub at: SimTime,
    pub cause: Cause<M>,
    pub reactor: Box<dyn Reactor<M>>,
}

impl<M: 'static> ReactorRun<M> {
    /// Run the reactor, kernel lock released, until it has to wait: the
    /// daemon loop `loop { recv…; handle }` from one block to the next.
    /// Returns with the lock taken, the wait scheduled and the reactor
    /// back in its slot.
    fn run(self, kernel: &Mutex<Kernel<M>>) -> MutexGuard<'_, Kernel<M>> {
        let ReactorRun { pid, at, mut cause, mut reactor } = self;
        let ctx = ReactorCtx { pid, kernel, clock: LocalClock::new(at) };
        loop {
            match cause {
                Cause::Start => {}
                Cause::Msg(env) => reactor.on_msg(&ctx, env),
                Cause::Timeout => reactor.on_timeout(&ctx),
            }
            let at = ctx.clock.flush();
            let deadline = reactor.wait().map(|d| at + d);
            let mut k = kernel.lock();
            // The receive fast path: a message already queued (delivered
            // while the reactor was busy) is taken without an event.
            match k.procs[pid].mailbox.pop_front() {
                Some(env) => cause = Cause::Msg(env),
                None => {
                    k.procs[pid].clock = at;
                    k.begin_recv(pid, at, deadline);
                    k.procs[pid].exec = Exec::Reactor(Some(reactor));
                    return k;
                }
            }
        }
    }
}

/// Hold duty: drain the kernel, running every reactor that comes due on
/// this stack, until duty moves to a coroutine process, this process resumes
/// itself, nothing is runnable — or a reactor panics. The kernel lock
/// (`k`) is released on return, so the caller may switch to a handoff
/// target.
pub(crate) fn drive<'k, M: 'static>(
    kernel: &'k Mutex<Kernel<M>>,
    mut k: MutexGuard<'k, Kernel<M>>,
    me: Option<Pid>,
) -> DrainOutcome {
    loop {
        let run = match k.drain(me) {
            Step::Done(outcome) => return outcome,
            Step::React(run) => run,
        };
        drop(k);
        let pid = run.pid;
        // The reactor runs on somebody else's stack: contain its panic so
        // it is reported as the reactor's, not as its host's.
        match catch_unwind(AssertUnwindSafe(|| run.run(kernel))) {
            Ok(guard) => k = guard,
            Err(_) => {
                kernel.lock().procs[pid].status = Status::Exited;
                return DrainOutcome::ReactorPanicked(pid);
            }
        }
    }
}
