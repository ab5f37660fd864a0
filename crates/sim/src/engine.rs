//! The discrete-event kernel: what a process is lent, in what order events
//! pop, and when a run ends. (The crate docs say what a process is.)
//!
//! # Event order
//!
//! Pending events are keyed `(time, src_group, seq)`. `src_group` is the
//! scheduling group of the *pushing* process (a group is normally one
//! simulated node: its application and protocol-handler processes) and
//! `seq` is drawn from that group's private counter, so a key depends only
//! on what the pusher itself did. Regrouping a process changes the keys of
//! its *later* pushes; events already pending keep theirs.
//!
//! The keys sit in a min-heap, each beside the slab slot of its payload
//! (keys are unique, so the heap pops in exactly the ascending key order);
//! the armed receive deadlines — at most one per process — in a small
//! ordered set that competes with the heap by key. Only what will do
//! something is pending (`Kernel::begin_recv`): a receive checkpoint draws
//! its key when the wait begins but is queued only once a delivery gives it
//! something to find, and a deadline is disarmed when anything else resumes
//! its process. No popped event is stale.
//!
//! # One coordinator pops
//!
//! [`Sim`] owns the kernel, and its run loop — on the stack of the caller
//! of [`Sim::run`] — is the only code that pops: it pops and applies events
//! until one resumes a process, runs that process until it waits again,
//! and pops on.
//!
//! * events that resume nobody (deliveries to a process that is busy or
//!   whose receive checkpoint is still ahead) are applied inline;
//! * an event that resumes a reactor runs the reactor's callback on the
//!   coordinator's stack until it waits again, lent its group's state on
//!   that stack;
//! * an event that resumes a coroutine process switches to it with a `Go`
//!   that lends it its mailbox, the run's send buffer and its group's
//!   state. It runs until it switches back with what it did — it waits
//!   (`Wait`) or it is done (`Exit`), handing all three back — and the
//!   coordinator queues its sends, begins its wait and pops on.
//!
//! A running process touches no kernel state, and nothing else of the
//! simulation runs between its `Go` and its switch back, so each of its
//! sends draws the key it would have drawn the moment it was made. When
//! the queue runs dry the coordinator checks for termination or deadlock.
//!
//! # End of run
//!
//! When the last primary process exits, the engine finishes the lookahead
//! window the exit fell into — events strictly below the current horizon
//! (`time of the pop that opened the window + lookahead`) — and stops. With
//! no groups or zero lookahead the horizon is degenerate and the run stops
//! at the exit event.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::mem::take;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::coro::Coroutine;
use crate::ctx::{Ctx, Down, Envelope, GroupState, Lent, Pid, Process, Sends, Up, Wait};
use crate::error::{SimError, Stopped};
use crate::reactor::{Cause, Reactor, ReactorCtx};
use crate::time::{Dur, SimTime};
use crate::trace::{TraceClass, TraceEntry};

/// Event key: `(delivery time, source group, per-source-group sequence)`.
/// Assigned at push from the pushing process's group counter; the global
/// pop order is the ascending key order.
pub(crate) type EvKey = (SimTime, u64, u64);

pub(crate) enum EventKind<M> {
    /// Wake a process: its start, the end of a sleep, a receive checkpoint
    /// with something to find, or a receive deadline — never a stale one.
    Wake { pid: Pid },
    /// Deliver a message into a mailbox.
    Deliver { dst: Pid, env: Envelope<M> },
}

/// What a blocked process is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Currently executing.
    Running,
    /// Waiting for a timer (or, never run yet, for its start).
    Sleeping,
    /// In a receive wait ([`Kernel::begin_recv`]): `checkpoint` is its key
    /// while no wake is queued for it (once the pop front is past it, the
    /// process just waits for a delivery), `deadline` the key it times out at.
    Receiving { checkpoint: Option<EvKey>, deadline: Option<EvKey> },
    /// Finished.
    Exited,
}

/// Who executes a process when an event resumes it.
pub(crate) enum Exec<M, S> {
    /// Its own stack, suspended while the process waits.
    Coroutine(Arc<Process<M, S>>),
    /// The coordinator's stack. `None` while the reactor runs (and for good
    /// once it has panicked).
    Reactor(Option<Box<dyn Reactor<M, S>>>),
}

pub(crate) struct ProcSlot<M, S> {
    pub name: String,
    pub daemon: bool,
    pub status: Status,
    pub clock: SimTime,
    /// Empty while a coroutine process runs: it holds its mailbox then.
    pub mailbox: VecDeque<Envelope<M>>,
    pub exec: Exec<M, S>,
}

/// Host-execution counters for one run (see the module docs). These
/// describe how the *host* drove the simulation — they are not part of the
/// simulation result and are excluded from determinism fingerprints.
/// Every popped event is exactly one of `handoff_switches`,
/// `reactor_runs` and `inline_events`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Always 0: the sharded event store this counted fast-path pops of is
    /// gone. The field stays only because `benchmark/src/metrics.rs` reads
    /// it; the next benchmark PR drops `sim.sprint_pops` from
    /// `BENCHMARK.json` and `metrics.rs`, and then this field.
    pub sprint_pops: u64,
    /// Resumes of a coroutine process: one switch to it and one back each.
    pub handoff_switches: u64,
    /// Resumes of a reactor, served on the coordinator's stack — no switch.
    pub reactor_runs: u64,
    /// Events applied without resuming anyone: deliveries to a process that
    /// is busy or still has its receive checkpoint ahead of it.
    pub inline_events: u64,
}

pub(crate) struct Kernel<M, S> {
    /// The pending events: keys in a min-heap, payloads in a slab — ordering
    /// moves 32-byte entries, and a push allocates nothing at the run's peak.
    heap: BinaryHeap<Reverse<(EvKey, u32)>>,
    slab: Vec<Option<EventKind<M>>>,
    /// Vacant slab slots, reused last-freed first.
    free: Vec<u32>,
    /// Armed receive deadlines — at most one per process, disarmed when
    /// anything else resumes it. They compete with the heap by key.
    timers: BTreeSet<(EvKey, Pid)>,
    /// pid → group index. Each process starts in its own group;
    /// [`Sim::assign_group`] merges the processes of one simulated node.
    group_of: Vec<usize>,
    pub procs: Vec<ProcSlot<M, S>>,
    /// Per-source-group event sequence counters (index = group id at push
    /// time; sized where groups are registered). Each group's pushes are
    /// serialized by its own execution, so the counters depend on nothing
    /// but that execution.
    seqs: Vec<u64>,
    /// Per-group state ([`Sim::set_state`]), by group index: here while
    /// none of the group's processes runs, lent to the one that does.
    states: Vec<GroupState<S>>,
    /// The run's one send buffer, lent to whichever process runs and
    /// queued — in the order the sends were made — when it is back.
    sends: Sends<M>,
    trace: Option<Vec<TraceEntry>>,
    /// Count of popped events, for the report.
    events_processed: u64,
    /// The pop front: the largest key popped so far (pop times never
    /// decrease; within one instant a later push may still pop below it).
    front: EvKey,
    /// Lower bound on the virtual latency of any cross-group message;
    /// defines the horizon that bounds the quiescence tail.
    lookahead: Dur,
    /// True once groups were explicitly assigned (with default per-pid
    /// groups, same-node traffic crosses groups at zero latency and the
    /// horizon is meaningless).
    grouped: bool,
    /// End of the lookahead window the last pop fell into (grouped runs
    /// with nonzero lookahead; stays ZERO otherwise).
    cur_horizon: SimTime,
    /// Every primary has exited: only events below `cur_horizon` remain
    /// runnable.
    tail: bool,
    exec: ExecCounters,
}

impl<M: Send + 'static, S: Send + 'static> Kernel<M, S> {
    /// Draw the key of an event pushed by process `src` for `time`: from
    /// `src`'s group and that group's sequence counter.
    fn next_key(&mut self, src: Pid, time: SimTime) -> EvKey {
        let sg = self.group_of[src];
        let seq = self.seqs[sg];
        self.seqs[sg] += 1;
        (time, sg as u64, seq)
    }

    /// Schedule an event pushed by process `src`.
    fn push_event(&mut self, src: Pid, time: SimTime, kind: EventKind<M>) {
        let key = self.next_key(src, time);
        self.queue(key, kind);
    }

    fn queue(&mut self, key: EvKey, kind: EventKind<M>) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
        });
        self.slab[slot as usize] = Some(kind);
        self.heap.push(Reverse((key, slot)));
    }

    /// The lowest pending key, and whether it is a timer's.
    fn first(&self) -> Option<(EvKey, bool)> {
        let queued = self.heap.peek().map(|&Reverse((key, _))| (key, false));
        let timer = self.timers.first().map(|&(key, _)| (key, true));
        match (queued, timer) {
            (Some(queued), Some(timer)) => Some(queued.min(timer)),
            (queued, timer) => queued.or(timer),
        }
    }

    /// Queue the deliveries process `from` sent while it ran, in the order
    /// it sent them, leaving `sends` empty.
    fn queue_sends(&mut self, from: Pid, sends: &mut Sends<M>) {
        for (dst, env) in sends.drain(..) {
            debug_assert!(dst < self.procs.len(), "send to unknown pid {dst}");
            self.push_event(from, env.at, EventKind::Deliver { dst, env });
        }
    }

    /// Put `pid`, whose flushed clock reads `at`, into a receive wait —
    /// the one way a process waits for a message, coroutine or reactor.
    ///
    /// The wait's *checkpoint* is the key drawn here at the current clock:
    /// once the pop front is past it, every delivery up to this instant is
    /// in the mailbox. One that finds nothing only turns "still to be
    /// checked" into "waiting", which the key and the front tell as well, so
    /// no wake is queued until a delivery below the key gives it something
    /// to find ([`Kernel::apply`]). The deadline's key is drawn next.
    fn begin_recv(&mut self, pid: Pid, at: SimTime, deadline: Option<SimTime>) {
        let key = self.next_key(pid, at);
        // Queued at once where the front cannot tell: a zero-length wait's
        // checkpoint *is* its timeout, and a key behind the front (same
        // instant, a higher group popped) waits for what is pending below it.
        let queued = deadline == Some(at)
            || (key < self.front && self.first().is_some_and(|(first, _)| first < key));
        if queued {
            self.queue(key, EventKind::Wake { pid });
        }
        let timer = deadline.filter(|&dl| dl > at).map(|dl| self.next_key(pid, dl));
        self.timers.extend(timer.map(|timer| (timer, pid)));
        let deadline = timer.or(deadline.and(Some(key)));
        self.procs[pid].status =
            Status::Receiving { checkpoint: (!queued).then_some(key), deadline };
    }

    /// Pop the globally next runnable event and do the per-event
    /// bookkeeping.
    fn pop_next(&mut self) -> Option<(EvKey, EventKind<M>)> {
        let (key, timer) =
            self.first().filter(|(key, _)| !self.tail || key.0 < self.cur_horizon)?;
        let kind = if timer {
            EventKind::Wake { pid: self.timers.pop_first()?.1 }
        } else {
            let Reverse((_, slot)) = self.heap.pop()?;
            self.free.push(slot);
            self.slab[slot as usize].take().expect("a heap entry owns its slot")
        };
        debug_assert!(key.0 >= self.front.0, "kernel time went backwards");
        self.front = self.front.max(key);
        self.events_processed += 1;
        if self.grouped && self.lookahead != Dur::ZERO && key.0 >= self.cur_horizon {
            self.cur_horizon = key.0 + self.lookahead;
        }
        if let Some(trace) = &mut self.trace {
            let (pid, class) = match kind {
                EventKind::Wake { pid } => (pid, TraceClass::Wake),
                EventKind::Deliver { dst, .. } => (dst, TraceClass::Deliver),
            };
            trace.push(TraceEntry { time: key.0, src: key.1, seq: key.2, pid, class });
        }
        Some((key, kind))
    }

    /// Apply a popped event. Returns the process it resumed, if any.
    fn apply(&mut self, key: EvKey, kind: EventKind<M>) -> Option<Pid> {
        match kind {
            EventKind::Wake { pid } => {
                let slot = &mut self.procs[pid];
                match slot.status {
                    // The timer, or a queued checkpoint that found nothing:
                    // a zero-length wait's is its timeout, any other is past.
                    Status::Receiving { deadline, .. } if slot.mailbox.is_empty() => {
                        slot.status = Status::Receiving { checkpoint: Some(key), deadline };
                        (deadline == Some(key)).then_some(pid)
                    }
                    Status::Sleeping | Status::Receiving { .. } => Some(pid),
                    _ => unreachable!("a wake outlived the wait that armed it"),
                }
            }
            EventKind::Deliver { dst, env } => {
                let slot = &mut self.procs[dst];
                if slot.status == Status::Exited {
                    return None; // message to a dead process is dropped
                }
                slot.mailbox.push_back(env);
                match slot.status {
                    // The checkpoint would have popped first and found
                    // nothing: the process is waiting for this.
                    Status::Receiving { checkpoint: Some(key), .. } if self.front >= key => {
                        Some(dst)
                    }
                    // Below the checkpoint, which now has something to find:
                    // queue it, at the key it was always going to have.
                    Status::Receiving { checkpoint: Some(key), deadline } => {
                        slot.status = Status::Receiving { checkpoint: None, deadline };
                        self.queue(key, EventKind::Wake { pid: dst });
                        None
                    }
                    _ => None, // busy, or its queued checkpoint will find it
                }
            }
        }
    }

    /// Every armed timer is the deadline of a process still in that wait.
    fn timers_are_live(&self) -> bool {
        self.timers.iter().all(|&(timer, pid)| {
            matches!(self.procs[pid].status, Status::Receiving { deadline, .. } if deadline == Some(timer))
        })
    }

    /// Pop and apply events until one resumes a process, and mark it
    /// running at the event's time. Returns it, the time, and the status
    /// it was resumed from; `None` once nothing runnable is left.
    fn drain(&mut self) -> Option<(Pid, SimTime, Status)> {
        while let Some((key, kind)) = self.pop_next() {
            let at = key.0;
            let Some(pid) = self.apply(key, kind) else {
                self.exec.inline_events += 1;
                continue;
            };
            let slot = &mut self.procs[pid];
            debug_assert!(slot.clock <= at, "process resumed into its past");
            let from = slot.status;
            if let Status::Receiving { deadline: Some(timer), .. } = from {
                self.timers.remove(&(timer, pid)); // disarmed, unless it just fired
            }
            slot.status = Status::Running;
            slot.clock = at;
            return Some((pid, at, from));
        }
        None
    }

    /// The state of `pid`'s group, lent for as long as `pid` runs.
    fn lend_state(&mut self, pid: Pid) -> GroupState<S> {
        self.states.get_mut(self.group_of[pid]).and_then(Option::take)
    }

    /// `pid` is done running: its group's state is back.
    fn return_state(&mut self, pid: Pid, state: GroupState<S>) {
        if state.is_some() {
            self.states[self.group_of[pid]] = state;
        }
    }

    /// Switch to coroutine process `pid`, resumed at `at`, lending it its
    /// mailbox, the send buffer and its group's state, and take back what
    /// it did when it switches back: its wait is begun, or `Some(panicked)`
    /// says it exited.
    fn run_coroutine(&mut self, pid: Pid, at: SimTime) -> Option<bool> {
        self.exec.handoff_switches += 1;
        let state = self.lend_state(pid);
        let slot = &mut self.procs[pid];
        let lent = Lent { mailbox: take(&mut slot.mailbox), sends: take(&mut self.sends) };
        let Exec::Coroutine(process) = &slot.exec else { unreachable!("a reactor has no stack") };
        match process.resume(Down::Go { at, lent, state }) {
            Up::Wait { at, wait, lent, state } => {
                self.take_back(pid, lent, state);
                self.procs[pid].clock = at;
                match wait {
                    Wait::Sleep { until } => {
                        self.procs[pid].status = Status::Sleeping;
                        self.push_event(pid, until, EventKind::Wake { pid });
                    }
                    Wait::Recv { deadline } => self.begin_recv(pid, at, deadline),
                }
                None
            }
            Up::Exit { panicked, lent, state } => {
                self.take_back(pid, lent, state);
                self.procs[pid].status = Status::Exited;
                Some(panicked)
            }
        }
    }

    /// What process `pid` was lent comes back: its sends are queued, its
    /// mailbox is returned to its slot and its group's state to the table.
    fn take_back(&mut self, pid: Pid, lent: Lent<M>, state: GroupState<S>) {
        let Lent { mailbox, mut sends } = lent;
        self.queue_sends(pid, &mut sends);
        self.sends = sends;
        self.procs[pid].mailbox = mailbox;
        self.return_state(pid, state);
    }

    /// Run reactor `pid`, resumed at `at` from status `from`, until it has
    /// to wait: the daemon loop `loop { recv…; handle }` from one block to
    /// the next. Its sends are queued after each callback; its group's
    /// state is lent on this stack meanwhile. A panic in a callback is
    /// contained here and fails the run under the reactor's own pid.
    fn run_reactor(&mut self, pid: Pid, at: SimTime, from: Status) -> Result<(), SimError> {
        self.exec.reactor_runs += 1;
        let state = RefCell::new(self.lend_state(pid));
        let slot = &mut self.procs[pid];
        let Exec::Reactor(parked) = &mut slot.exec else { unreachable!("not a reactor") };
        let mut reactor = parked.take().expect("a running reactor was resumed");
        // A reactor never sleeps: its only timer wake is the one that
        // starts it.
        let mut cause = match from {
            Status::Sleeping => Cause::Start,
            _ => slot.mailbox.pop_front().map_or(Cause::Timeout, Cause::Msg),
        };
        let sends = RefCell::new(take(&mut self.sends));
        let ctx = ReactorCtx::new(pid, at, &sends, &state);
        let ran = catch_unwind(AssertUnwindSafe(|| loop {
            match cause {
                Cause::Start => {}
                Cause::Msg(env) => reactor.on_msg(&ctx, env),
                Cause::Timeout => reactor.on_timeout(&ctx),
            }
            let at = ctx.clock.flush();
            let deadline = reactor.wait(&ctx).map(|d| at + d);
            self.queue_sends(pid, &mut *sends.borrow_mut());
            // The receive fast path: a message already queued (delivered
            // while the reactor was busy) is taken without an event.
            match self.procs[pid].mailbox.pop_front() {
                Some(env) => cause = Cause::Msg(env),
                None => {
                    self.procs[pid].clock = at;
                    self.begin_recv(pid, at, deadline);
                    return;
                }
            }
        }));
        self.sends = sends.into_inner();
        self.return_state(pid, state.into_inner());
        let slot = &mut self.procs[pid];
        match ran {
            Ok(()) => {
                slot.exec = Exec::Reactor(Some(reactor));
                Ok(())
            }
            Err(_) => {
                slot.status = Status::Exited;
                Err(SimError::ProcessPanicked { pid, name: slot.name.clone() })
            }
        }
    }

    /// [`Sim::run`].
    fn run(&mut self) -> Result<SimReport, SimError> {
        let n_primary =
            self.procs.iter().filter(|p| !p.daemon && p.status != Status::Exited).count();
        if n_primary == 0 {
            return Err(SimError::NoPrimaryProcesses);
        }
        let result = self.event_loop(n_primary);
        debug_assert!(self.timers_are_live(), "a timer outlived its wait");

        // Stop remaining processes (daemons, or everyone on error).
        let stop_err = self.stop_remaining();
        result?;
        if let Some(e) = stop_err {
            return Err(e);
        }

        Ok(SimReport {
            end_time: self.front.0,
            proc_clocks: self.procs.iter().map(|p| (p.name.clone(), p.clock)).collect(),
            events_processed: self.events_processed,
            trace: self.trace.take(),
            mailbox_backlog: self
                .procs
                .iter()
                .filter(|p| !p.mailbox.is_empty())
                .map(|p| (p.name.clone(), p.mailbox.len()))
                .collect(),
            exec: self.exec,
        })
    }

    /// The coordinator: pop until an event resumes a process, run it until
    /// it waits or exits, and pop on — the one loop that drives the kernel.
    /// Ends when nothing runnable is left, or when a process panics.
    fn event_loop(&mut self, n_primary: usize) -> Result<(), SimError> {
        let mut live_primary = n_primary;
        while let Some((pid, at, from)) = self.drain() {
            if let Exec::Reactor(_) = self.procs[pid].exec {
                self.run_reactor(pid, at, from)?;
                continue;
            }
            if let Some(panicked) = self.run_coroutine(pid, at) {
                let slot = &self.procs[pid];
                if panicked {
                    return Err(SimError::ProcessPanicked { pid, name: slot.name.clone() });
                }
                live_primary -= usize::from(!slot.daemon);
                self.tail = live_primary == 0;
            }
        }
        if live_primary == 0 {
            return Ok(());
        }
        // No events left but primaries are still blocked: they wait for
        // messages that will never arrive.
        let blocked = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.status != Status::Exited && !p.daemon)
            .map(|(i, p)| (i, format!("{} ({:?})", p.name, p.status)))
            .collect();
        Err(SimError::Deadlock { blocked })
    }

    /// Run every coroutine process that has not exited to its end: resume
    /// it with `Stop`, lending it its group's state for the way out. One
    /// suspended in a blocking call gets `Stopped` there, one not yet
    /// started drops its function unrun, and a blocking call on the way
    /// out returns `Stopped` without a switch, so each comes straight back
    /// with its exit. Reactors never run again: nobody pops. After this no
    /// frame is left on any stack. Returns the first process that panicked
    /// on its way out, if any did.
    fn stop_remaining(&mut self) -> Option<SimError> {
        let mut err = None;
        for pid in 0..self.procs.len() {
            let slot = &self.procs[pid];
            if slot.status == Status::Exited || matches!(slot.exec, Exec::Reactor(_)) {
                continue;
            }
            let state = self.lend_state(pid);
            let slot = &mut self.procs[pid];
            slot.status = Status::Exited;
            let Exec::Coroutine(process) = &slot.exec else { unreachable!("skipped above") };
            match process.resume(Down::Stop { state }) {
                Up::Exit { panicked, state, .. } => {
                    if panicked && err.is_none() {
                        err = Some(SimError::ProcessPanicked { pid, name: slot.name.clone() });
                    }
                    self.return_state(pid, state);
                }
                Up::Wait { .. } => unreachable!("a stopped process blocks without a switch"),
            }
        }
        err
    }
}

/// Summary of a completed simulation run.
#[derive(Debug)]
pub struct SimReport {
    /// Virtual time of the last processed event.
    pub end_time: SimTime,
    /// Final virtual clock of every process, by name.
    pub proc_clocks: Vec<(String, SimTime)>,
    /// Total number of kernel events processed.
    pub events_processed: u64,
    /// Event trace, if recording was enabled with [`Sim::record_trace`].
    pub trace: Option<Vec<TraceEntry>>,
    /// Messages still sitting in process mailboxes when the run ended,
    /// as `(process name, count)` for each non-empty mailbox. A quiescent
    /// protocol leaves this empty; a wedged recovery path shows up here as
    /// undelivered traffic.
    pub mailbox_backlog: Vec<(String, usize)>,
    /// How the host drove the run. Not part of the simulation result:
    /// excluded from determinism fingerprints.
    pub exec: ExecCounters,
}

/// A simulation under construction and its runner.
///
/// `M` is the message payload type exchanged between processes; `S`, the
/// state a scheduling group may be given ([`Sim::set_state`]) and its
/// processes are lent while they run (none by default).
///
/// ```
/// use repseq_sim::{Sim, Dur};
///
/// let mut sim = Sim::<&'static str>::new();
/// let ping = sim.spawn("ping", |ctx| {
///     ctx.send(1, "hello", ctx.now() + Dur::from_micros(10));
///     Ok(())
/// });
/// assert_eq!(ping, 0);
/// sim.spawn("pong", |ctx| {
///     let env = ctx.recv()?;
///     assert_eq!(env.msg, "hello");
///     assert_eq!(env.at.nanos(), 10_000);
///     Ok(())
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time.nanos(), 10_000);
/// ```
pub struct Sim<M: Send + 'static, S: Send + 'static = ()> {
    /// In a cell so that [`Sim::run`] borrows the simulation instead of
    /// consuming it: the group states outlive the run, however it ends.
    kernel: RefCell<Kernel<M, S>>,
}

impl<M: Send + 'static, S: Send + 'static> Default for Sim<M, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static, S: Send + 'static> Sim<M, S> {
    /// Create an empty simulation.
    pub fn new() -> Self {
        Sim {
            kernel: RefCell::new(Kernel {
                heap: BinaryHeap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                timers: BTreeSet::new(),
                group_of: Vec::new(),
                procs: Vec::new(),
                seqs: Vec::new(),
                states: Vec::new(),
                sends: Vec::new(),
                trace: None,
                events_processed: 0,
                front: (SimTime::ZERO, 0, 0),
                lookahead: Dur::ZERO,
                grouped: false,
                cur_horizon: SimTime::ZERO,
                tail: false,
                exec: ExecCounters::default(),
            }),
        }
    }

    /// Record an event trace in the report (used by determinism tests).
    pub fn record_trace(&mut self, on: bool) {
        self.kernel.get_mut().trace = on.then(Vec::new);
    }

    /// Declare a lower bound on the virtual latency of any message between
    /// processes of different groups — pass the network's minimum
    /// cross-node latency. It sets the horizon up to which the run is
    /// drained after the last primary process exits (see the module docs);
    /// zero (the default) stops the run at the exit event.
    pub fn set_lookahead(&mut self, lookahead: Dur) {
        self.kernel.get_mut().lookahead = lookahead;
    }

    /// Put `pid` into scheduling group `group`. Processes of one simulated
    /// node (its application and its protocol handler) should share a
    /// group: their mutual traffic has zero latency, while cross-group
    /// traffic is bounded below by the lookahead. Same-instant events
    /// break ties by the *pushing* process's group.
    pub fn assign_group(&mut self, pid: Pid, group: usize) {
        let k = self.kernel.get_mut();
        k.group_of[pid] = group;
        if k.seqs.len() <= group {
            k.seqs.resize(group + 1, 0);
        }
        k.grouped = true;
    }

    /// Give scheduling group `group` its state, lent to whichever of the
    /// group's processes runs — a coroutine process from its resume to its
    /// next yield ([`Ctx::state`]), a reactor for its callback
    /// ([`ReactorCtx::state`]) — and to no other process.
    pub fn set_state(&mut self, group: usize, state: S) {
        let states = &mut self.kernel.get_mut().states;
        if states.len() <= group {
            states.resize_with(group + 1, || None);
        }
        states[group] = Some(Box::new(state));
    }

    /// The states given with [`Sim::set_state`], in group order, as the
    /// run left them: every process has ended, however the run did.
    pub fn into_states(mut self) -> Vec<S> {
        let k = self.kernel.get_mut();
        k.stop_remaining();
        take(&mut k.states).into_iter().flatten().map(|state| *state).collect()
    }

    /// Spawn a primary process. The simulation ends when every primary
    /// process has exited (after the lookahead window the last exit fell
    /// into is finished — see the module docs).
    pub fn spawn<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(Ctx<M, S>) -> Result<(), Stopped> + Send + 'static,
    {
        self.spawn_inner(name, false, f)
    }

    /// Spawn a daemon process (e.g. a protocol request handler). Daemons are
    /// stopped automatically once all primary processes exit: their pending
    /// blocking call returns [`Stopped`].
    pub fn spawn_daemon<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(Ctx<M, S>) -> Result<(), Stopped> + Send + 'static,
    {
        self.spawn_inner(name, true, f)
    }

    /// Spawn a reactor: a daemon with a pid, group, mailbox and virtual
    /// clock like any other, but no stack of its own — its callbacks run on
    /// the coordinator's stack when an event resumes it (see [`Reactor`]).
    /// In virtual time it is indistinguishable from a
    /// [`spawn_daemon`](Sim::spawn_daemon) loop of `recv`/`recv_timeout`:
    /// same events, same keys, same trace.
    pub fn spawn_reactor(&mut self, name: &str, reactor: impl Reactor<M, S>) -> Pid {
        self.add_proc(name, true, Exec::Reactor(Some(Box::new(reactor))))
    }

    /// Register a process slot and its initial wake.
    fn add_proc(&mut self, name: &str, daemon: bool, exec: Exec<M, S>) -> Pid {
        let k = self.kernel.get_mut();
        let pid = k.procs.len();
        k.procs.push(ProcSlot {
            name: name.to_string(),
            daemon,
            status: Status::Sleeping,
            clock: SimTime::ZERO,
            mailbox: VecDeque::new(),
            exec,
        });
        // A fresh group of its own: the next unused group index.
        let group = k.seqs.len();
        k.group_of.push(group);
        k.seqs.push(0);
        // Initial wake at t=0 so the process starts when the engine runs.
        k.push_event(pid, SimTime::ZERO, EventKind::Wake { pid });
        pid
    }

    fn spawn_inner<F>(&mut self, name: &str, daemon: bool, f: F) -> Pid
    where
        F: FnOnce(Ctx<M, S>) -> Result<(), Stopped> + Send + 'static,
    {
        let pid = self.kernel.get_mut().procs.len();
        // The body runs when the coroutine is first resumed: by a `Go`,
        // which starts the process, or by a `Stop` (the run ended, or the
        // `Sim` was dropped, before it ever ran), which only drops `f`.
        let process = Coroutine::new(move |me, first| Ctx::main(pid, me, first, f));
        self.add_proc(name, daemon, Exec::Coroutine(process))
    }

    /// Run the simulation to completion, on the calling thread. It runs
    /// once: a second call finds no primary process left to run.
    pub fn run(&self) -> Result<SimReport, SimError> {
        self.kernel.borrow_mut().run()
    }
}

impl<M: Send + 'static, S: Send + 'static> Drop for Sim<M, S> {
    /// Run any process still alive to its end (covers simulations that are
    /// dropped without being run; after `run` this is a no-op). The group
    /// states go after that, with the kernel.
    fn drop(&mut self) {
        let _ = self.kernel.get_mut().stop_remaining();
    }
}
