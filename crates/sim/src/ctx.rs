//! The process-side handle to the simulation kernel.

use std::cell::Cell;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::coro::{switch, Coroutine};
use crate::engine::{DrainOutcome, EventKind, Kernel, Resume, Status};
use crate::reactor::drive;
use repseq_substrate::{Dur, Envelope, Pid, SendCtx, SimTime, Stopped};

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
    kernel: Arc<Mutex<Kernel<M>>>,
    /// The stack this process runs on: what it switches *from* when it
    /// gives duty away.
    me: Arc<Coroutine>,
    clock: LocalClock,
}

impl<M: Send + 'static> Ctx<M> {
    pub(crate) fn new(pid: Pid, kernel: Arc<Mutex<Kernel<M>>>, me: Arc<Coroutine>) -> Self {
        Ctx { pid, kernel, me, clock: LocalClock::new(SimTime::ZERO) }
    }

    /// Just switched to (the first time: when the engine first schedules
    /// this process): take the resume posted for this process and adopt
    /// its virtual time as the clock.
    pub(crate) fn take_resume(&self) -> Result<(), Stopped> {
        let resume = self.kernel.lock().take_resume(self.pid);
        match resume {
            Resume::Go { at } => {
                self.clock.set(at);
                Ok(())
            }
            Resume::Stop => Err(Stopped),
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
        self.kernel.lock().send(self.pid, dst, msg, deliver_at.max(self.now()));
    }

    /// Sleep for `d` of virtual time (plus any pending charge).
    pub fn sleep(&self, d: Dur) -> Result<(), Stopped> {
        let wake_at = self.clock.flush() + d;
        self.block(|k, pid| {
            k.procs[pid].status = Status::Sleeping;
            k.push_event(pid, wake_at, EventKind::Wake { pid });
        })
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
        let at = self.clock.flush();
        // Fast path: a message already in the mailbox was delivered at or
        // before this process's last resume, so it can be consumed right
        // now without a checkpoint or a yield. Only one process per
        // group runs at a time and deliveries are applied in global
        // (time, src_group, seq) order, so the mailbox front is exactly
        // what the checkpoint path would return — minus a checkpoint key
        // and a drain per received burst message.
        if let Some(env) = self.kernel.lock().procs[self.pid].mailbox.pop_front() {
            return Ok(Some(env));
        }
        self.block(|k, pid| k.begin_recv(pid, at, deadline))?;
        // Only the deadline resumes a receive without a message.
        Ok(self.kernel.lock().procs[self.pid].mailbox.pop_front())
    }

    /// Yield to the engine. `setup` runs under the kernel lock and must set
    /// this process's status and schedule any wake events.
    ///
    /// The yielding process keeps *duty*: still under the kernel lock, it
    /// pops and applies events itself. If one of them resumes this very
    /// process it returns immediately — zero host context switches; if it
    /// resumes a reactor, this process runs the reactor's callback on its
    /// own stack and drains on; if it resumes another coroutine process,
    /// duty moves there directly — one stack switch, made after the lock
    /// is dropped; if nothing is runnable, duty returns to the coordinator
    /// for the termination check.
    fn block(&self, setup: impl FnOnce(&mut Kernel<M>, Pid)) -> Result<(), Stopped> {
        let c = self.clock.flush();
        let mut k = self.kernel.lock();
        if k.stopping || std::thread::panicking() {
            return Err(Stopped);
        }
        k.procs[self.pid].clock = c;
        setup(&mut k, self.pid);
        let next = match drive(&self.kernel, k, Some(self.pid)) {
            DrainOutcome::SelfResume { at } => {
                self.clock.set(at);
                return Ok(());
            }
            DrainOutcome::Handoff(next) => Some(next),
            DrainOutcome::Empty => None,
            // The reactor died on this stack, but it is the reactor that
            // failed: report it under its own pid and wait to be stopped.
            DrainOutcome::ReactorPanicked(pid) => {
                self.kernel.lock().exited = Some((pid, true));
                None
            }
        };
        // Whoever runs next will want the kernel lock, on this same thread.
        debug_assert!(self.kernel.try_lock().is_some(), "switching away under the kernel lock");
        let to = next.as_deref().map_or(self.me.home(), Coroutine::context);
        switch(self.me.context(), to);
        self.take_resume()
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
