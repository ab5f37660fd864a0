//! The process side: what a process is and holds, and what it hands the
//! coordinator when it switches back.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

use crate::coro::Coroutine;
use crate::error::Stopped;
use crate::time::{Dur, SimTime};

/// Identifier of a process (index into the simulator's process table),
/// assigned densely in spawn order.
pub type Pid = usize;

/// A message in flight or in a mailbox.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Sending process.
    pub from: Pid,
    /// Virtual time at which the message became available to the
    /// receiver.
    pub at: SimTime,
    /// Payload.
    pub msg: M,
}

/// The non-blocking half of a process context: everything a
/// run-to-completion body may do — identify itself, read the clock, spend
/// modeled CPU time and send. A protocol handler gets only this half (it
/// is a [`Reactor`](crate::Reactor), handed a
/// [`ReactorCtx`](crate::ReactorCtx)), so "a handler cannot block" is a
/// fact of its signature: `recv`, `recv_timeout` and `sleep` are not
/// nameable through it. The network layer (`repseq_net::Nic`) needs no
/// more than this either.
///
/// `now` is monotone non-decreasing within a process, and a message sent
/// is delivered no earlier than `deliver_at`.
pub trait SendCtx<M> {
    /// This process's identifier.
    fn pid(&self) -> Pid;

    /// The current virtual time as observed by this process.
    fn now(&self) -> SimTime;

    /// Spend `d` of modeled CPU time: advances this process's clock.
    fn charge(&self, d: Dur);

    /// Send `msg` to process `dst`, available to it at `deliver_at`.
    fn send(&self, dst: Pid, msg: M, deliver_at: SimTime);
}

/// A running process's own view of its virtual clock (nanoseconds):
/// authoritative while the process runs, written back to the kernel when
/// it waits. Shared by coroutine processes ([`Ctx`]) and reactors
/// ([`ReactorCtx`](crate::ReactorCtx)).
pub(crate) struct LocalClock {
    clock: Cell<u64>,
    /// Compute time charged since the last flush.
    pending: Cell<u64>,
}

impl LocalClock {
    pub(crate) fn new(at: SimTime) -> Self {
        LocalClock { clock: Cell::new(at.nanos()), pending: Cell::new(0) }
    }

    /// Adopt the virtual time of a resume.
    fn set(&self, at: SimTime) {
        self.clock.set(at.nanos());
    }

    #[inline]
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.clock.get() + self.pending.get())
    }

    #[inline]
    pub(crate) fn charge(&self, d: Dur) {
        self.pending.set(self.pending.get() + d.nanos());
    }

    /// Fold pending charge into the clock and return the new instant.
    pub(crate) fn flush(&self) -> SimTime {
        let c = self.clock.get() + self.pending.get();
        self.clock.set(c);
        self.pending.set(0);
        SimTime::from_nanos(c)
    }
}

/// The messages a running process has sent, in the order sent, each with
/// its destination: the run's one send buffer, lent to whichever process
/// runs and queued by the coordinator when it switches back.
pub(crate) type Sends<M> = Vec<(Pid, Envelope<M>)>;

/// What moves with control: a coroutine process's mailbox and the run's
/// send buffer, lent to it with its `Go` and handed back at its next
/// switch. While it runs nothing else of the simulation does, so nothing
/// else needs either.
pub(crate) struct Lent<M> {
    pub(crate) mailbox: VecDeque<Envelope<M>>,
    pub(crate) sends: Sends<M>,
}

impl<M> Default for Lent<M> {
    fn default() -> Self {
        Lent { mailbox: VecDeque::new(), sends: Vec::new() }
    }
}

/// What the coordinator hands a coroutine process it switches to.
pub(crate) enum Down<M> {
    /// Continue at virtual time `at`. (A receive that finds its mailbox
    /// still empty has timed out: nothing else resumes it without a message.)
    Go { at: SimTime, lent: Lent<M> },
    /// The run is over: the pending blocking call returns `Stopped`.
    Stop,
}

/// What a coroutine process hands the coordinator when it switches back.
pub(crate) enum Up<M> {
    /// It waits, from virtual time `at`.
    Wait { at: SimTime, wait: Wait, lent: Lent<M> },
    /// Its function returned, or unwound if `panicked`.
    Exit { panicked: bool, lent: Lent<M> },
}

/// What a coroutine process waits for.
pub(crate) enum Wait {
    /// The end of a sleep.
    Sleep { until: SimTime },
    /// A message, or the deadline if there is one.
    Recv { deadline: Option<SimTime> },
}

/// The stack a coroutine process runs on.
pub(crate) type Process<M> = Coroutine<Down<M>, Up<M>>;

/// Handle through which a simulated process observes and affects virtual
/// time. One `Ctx` exists per process and is not shareable.
///
/// # Yield discipline
///
/// `charge` and `send` never yield to the engine; `recv`, `recv_timeout`,
/// `try_recv` and `sleep` do. **Never hold a lock shared with another
/// simulated process across a yielding call** — every process of a
/// simulation runs on the one thread that called `Sim::run`, so the other
/// process would wait at OS level for a lock its own thread holds, and the
/// simulation would hang.
///
/// A blocking call made while the process is unwinding from a panic (from
/// a destructor) returns [`Stopped`] at once: the run is failing, and the
/// panic bookkeeping of the one thread cannot follow a switch to another
/// process.
pub struct Ctx<M: Send + 'static> {
    pid: Pid,
    /// The stack this process runs on: what it suspends through.
    me: Arc<Process<M>>,
    clock: LocalClock,
    lent: RefCell<Lent<M>>,
    /// Told `Stop`: every later blocking call returns `Stopped` at once.
    stopped: Cell<bool>,
    /// Where `drop` leaves what the process holds, for its exit to hand
    /// back: the function it was given to may end before the process does.
    left: Arc<Mutex<Option<Lent<M>>>>,
}

impl<M: Send + 'static> Ctx<M> {
    /// A coroutine process's whole life, on its own stack: take the first
    /// resume — a `Go` runs `f` under `catch_unwind`, a `Stop` only drops
    /// it — and return the exit. Everything it owns is dropped by the time
    /// it returns, as it must be: the frame that called it is abandoned,
    /// never unwound.
    pub(crate) fn main<F>(pid: Pid, me: Arc<Process<M>>, first: Down<M>, f: F) -> Up<M>
    where
        F: FnOnce(Ctx<M>) -> Result<(), Stopped>,
    {
        let left = Arc::new(Mutex::new(None));
        let ctx = Ctx {
            pid,
            me,
            clock: LocalClock::new(SimTime::ZERO),
            lent: RefCell::default(),
            stopped: Cell::new(false),
            left: Arc::clone(&left),
        };
        let panicked = catch_unwind(AssertUnwindSafe(move || {
            if ctx.adopt(first).is_ok() {
                let _ = f(ctx);
            }
        }))
        .is_err();
        let lent = left.lock().unwrap_or_else(PoisonError::into_inner).take();
        Up::Exit { panicked, lent: lent.unwrap_or_default() }
    }

    /// Switched to: adopt the resume's virtual time and what it lends, or
    /// learn that the run is over.
    fn adopt(&self, resume: Down<M>) -> Result<(), Stopped> {
        match resume {
            Down::Go { at, lent } => {
                self.clock.set(at);
                *self.lent.borrow_mut() = lent;
                Ok(())
            }
            Down::Stop => {
                self.stopped.set(true);
                Err(Stopped)
            }
        }
    }

    /// This process's id.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time as seen by this process, including compute time
    /// charged since the last yield.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Account for `d` of local computation. Free at wall-clock level: the
    /// charge is folded into the clock at the next yield point.
    #[inline]
    pub fn charge(&self, d: Dur) {
        self.clock.charge(d);
    }

    /// Schedule delivery of `msg` to `dst` at `deliver_at` (virtual time).
    /// The delivery time is computed by the caller — in this workspace, by
    /// the network model, which accounts for link occupancy. Never yields.
    pub fn send(&self, dst: Pid, msg: M, deliver_at: SimTime) {
        let env = Envelope { from: self.pid, at: deliver_at.max(self.now()), msg };
        self.lent.borrow_mut().sends.push((dst, env));
    }

    /// Sleep for `d` of virtual time (plus any pending charge).
    pub fn sleep(&self, d: Dur) -> Result<(), Stopped> {
        let until = self.clock.flush() + d;
        self.block(Wait::Sleep { until })
    }

    /// Receive the next message, blocking in virtual time until one is
    /// available.
    pub fn recv(&self) -> Result<Envelope<M>, Stopped> {
        loop {
            if let Some(env) = self.recv_deadline(None)? {
                return Ok(env);
            }
        }
    }

    /// Receive the next message, or `None` if none arrives within `d`.
    pub fn recv_timeout(&self, d: Dur) -> Result<Option<Envelope<M>>, Stopped> {
        let deadline = self.clock.flush() + d;
        self.recv_deadline(Some(deadline))
    }

    /// Receive a message that has already arrived, without waiting beyond
    /// the current instant. (Still a yield point: the kernel must process
    /// deliveries up to the current clock.)
    pub fn try_recv(&self) -> Result<Option<Envelope<M>>, Stopped> {
        let deadline = self.clock.flush();
        self.recv_deadline(Some(deadline))
    }

    fn recv_deadline(&self, deadline: Option<SimTime>) -> Result<Option<Envelope<M>>, Stopped> {
        // Fast path: a message already in the mailbox was delivered at or
        // before this process's last resume, so it can be consumed right
        // now without a checkpoint or a yield. Only one process per
        // group runs at a time and deliveries are applied in global
        // (time, src_group, seq) order, so the mailbox front is exactly
        // what the checkpoint path would return — minus a checkpoint key
        // and a switch per received burst message.
        if let Some(env) = self.lent.borrow_mut().mailbox.pop_front() {
            return Ok(Some(env));
        }
        self.block(Wait::Recv { deadline })?;
        // Only the deadline resumes a receive without a message.
        Ok(self.lent.borrow_mut().mailbox.pop_front())
    }

    /// Yield to the engine: switch to the coordinator with what this
    /// process holds and what it waits for, and return when it is resumed.
    /// The coordinator queues the sends, begins the wait and pops on;
    /// nothing else of this process's group runs in between, so every send
    /// draws the key it would have drawn at the moment it was made.
    fn block(&self, wait: Wait) -> Result<(), Stopped> {
        if self.stopped.get() || std::thread::panicking() {
            return Err(Stopped);
        }
        let at = self.clock.flush();
        let lent = self.lent.take();
        self.adopt(self.me.suspend(Up::Wait { at, wait, lent }))
    }
}

impl<M: Send + 'static> Drop for Ctx<M> {
    fn drop(&mut self) {
        *self.left.lock().unwrap_or_else(PoisonError::into_inner) = Some(self.lent.take());
    }
}

/// Every primitive forwards to the inherent method of the same name, so a
/// process's own context serves wherever a [`SendCtx`] is asked for (the
/// network layer's `Nic`).
impl<M: Send + 'static> SendCtx<M> for Ctx<M> {
    fn pid(&self) -> Pid {
        Ctx::pid(self)
    }

    fn now(&self) -> SimTime {
        Ctx::now(self)
    }

    fn charge(&self, d: Dur) {
        Ctx::charge(self, d)
    }

    fn send(&self, dst: Pid, msg: M, deliver_at: SimTime) {
        Ctx::send(self, dst, msg, deliver_at)
    }
}
