//! Reactors: daemons that run to completion on the coordinator's stack.
//!
//! A protocol handler never blocks anywhere but at the top of its
//! `loop { recv … }`. A [`Reactor`] is that loop turned inside out: the
//! engine owns the waiting and calls [`on_msg`](Reactor::on_msg) /
//! [`on_timeout`](Reactor::on_timeout) when an event resumes the process,
//! on the stack of the coordinator that popped the event. No stack of its
//! own, no switch in or out. This is the closer model of what TreadMarks
//! does: a SIGIO handler on the application's processor, run to
//! completion.
//!
//! # Equivalence with a coroutine daemon
//!
//! A reactor waits *exactly* as `recv`/`recv_timeout` do: a message
//! already in the mailbox is consumed on the spot (the fast path),
//! otherwise the same kernel routine draws the same checkpoint key at its
//! flushed clock and arms the same deadline timer, under the same pid and
//! group. Its [`charge`](ReactorCtx::charge) moves its own clock,
//! so it is busy in virtual time and requests still queue behind it. Its
//! sends go into the run's send buffer and are queued before its next
//! wait, as a coroutine's are at its switch. Every push therefore carries
//! the key the daemon's loop would have given it, the pop order is the key
//! order, and traces, `events_processed`, `proc_clocks` and
//! `mailbox_backlog` are bit-identical; only the host-side
//! [`ExecCounters`](crate::ExecCounters) differ.

use std::cell::{RefCell, RefMut};

use crate::ctx::{borrow_state, Envelope, GroupState, LocalClock, Pid, SendCtx, Sends};
use crate::time::{Dur, SimTime};

/// A daemon process without a stack (see the module docs), registered
/// with [`Sim::spawn_reactor`](crate::Sim::spawn_reactor).
///
/// A callback gets a [`ReactorCtx`] — the non-blocking half of a process
/// context — so it *cannot* block: there is no `recv` or `sleep` to call.
/// A panic in a callback fails the run as
/// [`SimError::ProcessPanicked`](crate::SimError::ProcessPanicked) under
/// the reactor's own pid and name.
///
/// ```
/// use repseq_sim::{Dur, Envelope, Reactor, ReactorCtx, SendCtx, Sim};
///
/// struct Echo;
/// impl Reactor<u32> for Echo {
///     fn wait(&mut self, _ctx: &ReactorCtx<'_, u32>) -> Option<Dur> {
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
/// assert_eq!(report.exec.reactor_runs, 2); // its start, the request
/// assert_eq!(report.exec.handoff_switches, 2); // the client's start, the reply
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
///
/// A callback has its group's state `S` for the length of the call and no
/// longer: a borrow kept past it does not compile.
///
/// ```compile_fail
/// # use repseq_sim::{Dur, Envelope, Reactor, ReactorCtx};
/// struct Hoard(Option<&'static mut Vec<u32>>);
/// impl Reactor<u32, Vec<u32>> for Hoard {
///     fn on_msg(&mut self, ctx: &ReactorCtx<'_, u32, Vec<u32>>, _env: Envelope<u32>) {
///         self.0 = Some(&mut *ctx.state()); // would outlive the call
///     }
///     fn wait(&mut self, _: &ReactorCtx<'_, u32, Vec<u32>>) -> Option<Dur> { None }
///     fn on_timeout(&mut self, _: &ReactorCtx<'_, u32, Vec<u32>>) {}
/// }
/// ```
pub trait Reactor<M, S = ()>: Send + 'static {
    /// How long the next wait may last: `None` waits for a message
    /// indefinitely (`recv`), `Some(d)` gives up after `d` of virtual time
    /// (`recv_timeout(d)`) and calls [`on_timeout`](Reactor::on_timeout).
    /// Asked once per wait, after each callback and at startup, with the
    /// group's state still lent.
    fn wait(&mut self, ctx: &ReactorCtx<'_, M, S>) -> Option<Dur>;

    /// A message arrived.
    fn on_msg(&mut self, ctx: &ReactorCtx<'_, M, S>, env: Envelope<M>);

    /// The bounded wait requested by [`wait`](Reactor::wait) expired.
    fn on_timeout(&mut self, ctx: &ReactorCtx<'_, M, S>);
}

/// What a running reactor can do: the four non-blocking primitives of
/// [`Ctx`](crate::Ctx) — as a [`SendCtx`] — and reach its group's state.
/// Exists only for the duration of one run on the coordinator's stack,
/// lent the run's send buffer and the group's state for it.
pub struct ReactorCtx<'k, M, S = ()> {
    pid: Pid,
    pub(crate) clock: LocalClock,
    sends: &'k RefCell<Sends<M>>,
    state: &'k RefCell<GroupState<S>>,
}

impl<'k, M, S> ReactorCtx<'k, M, S> {
    pub(crate) fn new(
        pid: Pid,
        at: SimTime,
        sends: &'k RefCell<Sends<M>>,
        state: &'k RefCell<GroupState<S>>,
    ) -> Self {
        ReactorCtx { pid, clock: LocalClock::new(at), sends, state }
    }

    /// Its group's state, as [`Ctx::state`](crate::Ctx::state) lends it:
    /// borrowed until the guard drops, and at most until the callback
    /// returns.
    #[inline]
    pub fn state(&self) -> RefMut<'_, S> {
        borrow_state(self.state)
    }
}

/// A reactor's four primitives. Its `charge` keeps it busy: messages
/// arriving meanwhile queue in its mailbox.
impl<M, S> SendCtx<M> for ReactorCtx<'_, M, S> {
    #[inline]
    fn pid(&self) -> Pid {
        self.pid
    }

    #[inline]
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    #[inline]
    fn charge(&self, d: Dur) {
        self.clock.charge(d);
    }

    fn send(&self, dst: Pid, msg: M, deliver_at: SimTime) {
        let env = Envelope { from: self.pid, at: deliver_at.max(self.now()), msg };
        self.sends.borrow_mut().push((dst, env));
    }
}

/// Why a reactor was resumed.
pub(crate) enum Cause<M> {
    /// The initial wake: nothing to deliver, go wait.
    Start,
    Msg(Envelope<M>),
    Timeout,
}
