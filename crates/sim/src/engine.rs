//! The discrete-event kernel.
//!
//! A simulated process is either a stackful coroutine (`crate::coro`: a
//! stack of its own, no thread) that cooperates with the engine, or a
//! [`Reactor`] — a daemon without even a stack, whose callbacks run to
//! completion on whichever stack holds duty (see [`crate::reactor`]). The
//! whole simulation runs on the one OS thread that called [`Sim::run`].
//! Coroutine processes interact with the kernel only through
//! [`Ctx`](crate::Ctx) — charging compute time, sending messages with an
//! explicit delivery time (computed by the network layer), and blocking
//! receives. `send` never yields; `recv`/`sleep` do. Local computation
//! between yields is free in wall-clock terms (no context switch) and is
//! folded into the process clock at the next yield point.
//!
//! The engine applies events in ascending `(time, src_group, seq)` order,
//! so each run is bit-for-bit deterministic — a property the reproduced
//! paper *relies on* (replicated sequential execution assumes deterministic
//! sequential sections) and which makes every experiment in this repository
//! reproducible.
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
//! # The event engine: duty handoff
//!
//! Exactly one flow of control at a time holds *duty* — the right to pop
//! and apply events — so execution is serialized and the pop order is the
//! key order. Duty moves without a scheduler in the middle:
//!
//! * a process that blocks keeps duty and pops events itself, under the
//!   kernel lock. Events that resume nobody (deliveries to a process that
//!   is busy or whose receive checkpoint is still ahead) are applied inline;
//! * an event that resumes the duty holder itself just returns — no host
//!   switch at all;
//! * an event that resumes a reactor moves no duty either: the holder
//!   drops the kernel lock, runs the reactor's callback on its own stack
//!   until the reactor waits again, re-locks and drains on;
//! * an event that resumes another coroutine process posts a `Go` for it
//!   and hands duty to it: the holder drops the kernel lock and switches
//!   stacks — a register swap in user space, no system call (a coroutine
//!   that switched away holding the lock would deadlock the one thread);
//! * when the queue runs dry, or the process exits, duty returns to the
//!   coordinator (the caller of [`Sim::run`], on its own stack), which
//!   checks for termination or deadlock and otherwise drains on.
//!
//! One stack switch per resume of another *coroutine*, none otherwise.
//!
//! # End of run
//!
//! When the last primary process exits, the engine finishes the lookahead
//! window the exit fell into — events strictly below the current horizon
//! (`time of the pop that opened the window + lookahead`) — and stops. With
//! no groups or zero lookahead the horizon is degenerate and the run stops
//! at the exit event.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::coro::{switch, Context, Coroutine};
use crate::ctx::Ctx;
use crate::error::SimError;
use crate::reactor::{drive, Cause, Reactor, ReactorRun};
use crate::trace::{TraceClass, TraceEntry};
use repseq_substrate::{Dur, Envelope, Pid, SimTime, Stopped};

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
    /// Currently executing (it holds duty).
    Running,
    /// Waiting for a timer.
    Sleeping,
    /// In a receive wait ([`Kernel::begin_recv`]): `checkpoint` is its key
    /// while no wake is queued for it (once the pop front is past it, the
    /// process just waits for a delivery), `deadline` the key it times out at.
    Receiving { checkpoint: Option<EvKey>, deadline: Option<EvKey> },
    /// Finished.
    Exited,
}

/// How a suspended coroutine process is told to continue: posted into its
/// slot under the kernel lock by whoever is about to switch to it.
pub(crate) enum Resume {
    /// Continue at virtual time `at`. (A receive that finds its mailbox
    /// still empty has timed out: nothing else resumes it without a message.)
    Go { at: SimTime },
    /// The run is over: the pending blocking call returns `Stopped`.
    Stop,
}

/// Who executes a process when an event resumes it.
pub(crate) enum Exec<M> {
    /// Its own stack, suspended while the process is blocked. `resume` is
    /// what it finds when it is switched to: posted just before, taken
    /// first thing after, so at most one is ever pending.
    Coroutine { coro: Arc<Coroutine>, resume: Option<Resume> },
    /// Whoever holds duty. `None` while the reactor is out running (and
    /// for good once it has panicked).
    Reactor(Option<Box<dyn Reactor<M>>>),
}

pub(crate) struct ProcSlot<M> {
    pub name: String,
    pub daemon: bool,
    pub status: Status,
    pub clock: SimTime,
    pub mailbox: VecDeque<Envelope<M>>,
    pub exec: Exec<M>,
}

/// Host-execution counters for one run (see the module docs). These
/// describe how the *host* drove the simulation — they are not part of the
/// simulation result and are excluded from determinism fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Duty bursts: maximal runs of consecutive events popped by one duty
    /// holder before one of them resumed a process (itself, a reactor or
    /// another coroutine) or the queue ran dry.
    pub windows: u64,
    /// Always 0: the sharded event store this counted fast-path pops of is
    /// gone. The field stays only because `benchmark/src/metrics.rs` reads
    /// it; the next benchmark PR drops `sim.sprint_pops` from
    /// `BENCHMARK.json` and `metrics.rs`, and then this field.
    pub sprint_pops: u64,
    /// Duty transfers: resumes of a *coroutine* process other than the duty
    /// holder — one stack switch each. (Reactor resumes never count here:
    /// they move no duty.)
    pub handoff_switches: u64,
    /// Resumes where the duty holder resumed *itself* — no switch.
    pub self_continues: u64,
    /// Resumes of a reactor, served inline on the duty holder's stack — no
    /// switch. Every resume is exactly one of `handoff_switches`,
    /// `self_continues` and `reactor_runs`.
    pub reactor_runs: u64,
    /// Events applied without resuming anyone: deliveries to a process that
    /// is busy or still has its receive checkpoint ahead of it.
    pub inline_events: u64,
}

/// How a stretch of duty ([`drive`]) ended.
pub(crate) enum DrainOutcome {
    /// No runnable events left while this drainer held duty.
    Empty,
    /// Duty belongs to the process on this coroutine: its `Go` is posted;
    /// the caller switches to it, now that the kernel lock is dropped.
    Handoff(Arc<Coroutine>),
    /// The draining process resumed itself (only when `me` was given).
    SelfResume { at: SimTime },
    /// A reactor's callback panicked on the drainer's stack; the run is
    /// over and fails under the *reactor's* pid.
    ReactorPanicked(Pid),
}

/// What one [`Kernel::drain`] call ended with: duty is done here, or a
/// reactor is due and must be run with the kernel lock released.
pub(crate) enum Step<M> {
    Done(DrainOutcome),
    React(ReactorRun<M>),
}

pub(crate) struct Kernel<M> {
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
    pub procs: Vec<ProcSlot<M>>,
    /// Per-source-group event sequence counters (index = group id at push
    /// time; sized where groups are registered). Each group's pushes are
    /// serialized by its own execution, so the counters depend on nothing
    /// but that execution.
    seqs: Vec<u64>,
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
    /// The run is over; every blocking call returns `Stopped`.
    pub stopping: bool,
    /// Why duty came back to the coordinator, written just before the
    /// switch to it: a process function returned or unwound — or a
    /// reactor's callback panicked on the writer's stack — as `(pid,
    /// panicked)`; `None` when the duty holder found nothing runnable.
    pub exited: Option<(Pid, bool)>,
    exec: ExecCounters,
}

impl<M> Kernel<M> {
    /// Draw the key of an event pushed by process `src` for `time`: from
    /// `src`'s group and that group's sequence counter.
    fn next_key(&mut self, src: Pid, time: SimTime) -> EvKey {
        let sg = self.group_of[src];
        let seq = self.seqs[sg];
        self.seqs[sg] += 1;
        (time, sg as u64, seq)
    }

    /// Schedule an event pushed by process `src`.
    pub(crate) fn push_event(&mut self, src: Pid, time: SimTime, kind: EventKind<M>) {
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

    /// Schedule delivery of `msg` from `from` into `dst`'s mailbox at `at`.
    pub(crate) fn send(&mut self, from: Pid, dst: Pid, msg: M, at: SimTime) {
        debug_assert!(dst < self.procs.len(), "send to unknown pid {dst}");
        self.push_event(from, at, EventKind::Deliver { dst, env: Envelope { from, at, msg } });
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
    pub(crate) fn begin_recv(&mut self, pid: Pid, at: SimTime, deadline: Option<SimTime>) {
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

    /// Take the resume posted for coroutine process `pid`, which has just
    /// been switched to.
    pub(crate) fn take_resume(&mut self, pid: Pid) -> Resume {
        match &mut self.procs[pid].exec {
            Exec::Coroutine { resume, .. } => resume.take().expect("switched to with no resume"),
            Exec::Reactor(_) => unreachable!("a reactor has no stack to switch to"),
        }
    }

    /// Drive the kernel while holding duty: pop and apply events until one
    /// resumes a process or nothing runnable is left. `me` is the
    /// duty-holding process — resumed in place, without a switch — or
    /// `None` for the coordinator. A resumed reactor comes back as
    /// [`Step::React`]: the caller ([`drive`]) runs it with the lock
    /// released and calls `drain` again.
    pub(crate) fn drain(&mut self, me: Option<Pid>) -> Step<M> {
        let mut popped = false;
        while let Some((key, kind)) = self.pop_next() {
            popped = true;
            let at = key.0;
            let Some(pid) = self.apply(key, kind) else {
                self.exec.inline_events += 1;
                continue;
            };
            let slot = &mut self.procs[pid];
            debug_assert!(slot.clock <= at, "process resumed into its past");
            // A reactor never sleeps: its only timer wake is the one that
            // starts it.
            let starting = slot.status == Status::Sleeping;
            if let Status::Receiving { deadline: Some(timer), .. } = slot.status {
                self.timers.remove(&(timer, pid)); // disarmed, unless it just fired
            }
            slot.status = Status::Running;
            slot.clock = at;
            self.exec.windows += 1;
            if me == Some(pid) {
                self.exec.self_continues += 1;
                return Step::Done(DrainOutcome::SelfResume { at });
            }
            return match &mut slot.exec {
                Exec::Coroutine { coro, resume } => {
                    debug_assert!(resume.is_none(), "a second resume for one block");
                    *resume = Some(Resume::Go { at });
                    self.exec.handoff_switches += 1;
                    Step::Done(DrainOutcome::Handoff(Arc::clone(coro)))
                }
                Exec::Reactor(reactor) => {
                    self.exec.reactor_runs += 1;
                    let cause = if starting {
                        Cause::Start
                    } else {
                        slot.mailbox.pop_front().map_or(Cause::Timeout, Cause::Msg)
                    };
                    let reactor = reactor.take().expect("a running reactor was resumed");
                    Step::React(ReactorRun { pid, at, cause, reactor })
                }
            };
        }
        self.exec.windows += u64::from(popped);
        Step::Done(DrainOutcome::Empty)
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
    /// How the host drove the run (context-switch economy). Not part of
    /// the simulation result: excluded from determinism fingerprints.
    pub exec: ExecCounters,
}

/// A simulation under construction and its runner.
///
/// `M` is the message payload type exchanged between processes.
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
pub struct Sim<M: Send + 'static> {
    kernel: Arc<Mutex<Kernel<M>>>,
    /// The coordinator's context — the caller of [`run`](Sim::run), or of
    /// `drop` — while a process holds duty: every coroutine's `home`.
    home: Arc<Context>,
}

impl<M: Send + 'static> Default for Sim<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static> Sim<M> {
    /// Create an empty simulation.
    pub fn new() -> Self {
        Sim {
            kernel: Arc::new(Mutex::new(Kernel {
                heap: BinaryHeap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                timers: BTreeSet::new(),
                group_of: Vec::new(),
                procs: Vec::new(),
                seqs: Vec::new(),
                trace: None,
                events_processed: 0,
                front: (SimTime::ZERO, 0, 0),
                lookahead: Dur::ZERO,
                grouped: false,
                cur_horizon: SimTime::ZERO,
                tail: false,
                stopping: false,
                exited: None,
                exec: ExecCounters::default(),
            })),
            home: Arc::new(Context::running()),
        }
    }

    /// Record an event trace in the report (used by determinism tests).
    pub fn record_trace(&mut self, on: bool) {
        self.kernel.lock().trace = on.then(Vec::new);
    }

    /// Declare a lower bound on the virtual latency of any message between
    /// processes of different groups — pass the network's minimum
    /// cross-node latency. It sets the horizon up to which the run is
    /// drained after the last primary process exits (see the module docs);
    /// zero (the default) stops the run at the exit event.
    pub fn set_lookahead(&mut self, lookahead: Dur) {
        self.kernel.lock().lookahead = lookahead;
    }

    /// Put `pid` into scheduling group `group`. Processes of one simulated
    /// node (its application and its protocol handler) should share a
    /// group: their mutual traffic has zero latency, while cross-group
    /// traffic is bounded below by the lookahead. Same-instant events
    /// break ties by the *pushing* process's group.
    pub fn assign_group(&mut self, pid: Pid, group: usize) {
        let mut k = self.kernel.lock();
        k.group_of[pid] = group;
        if k.seqs.len() <= group {
            k.seqs.resize(group + 1, 0);
        }
        k.grouped = true;
    }

    /// Spawn a primary process. The simulation ends when every primary
    /// process has exited (after the lookahead window the last exit fell
    /// into is finished — see the module docs).
    pub fn spawn<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(Ctx<M>) -> Result<(), Stopped> + Send + 'static,
    {
        self.spawn_inner(name, false, f)
    }

    /// Spawn a daemon process (e.g. a protocol request handler). Daemons are
    /// stopped automatically once all primary processes exit: their pending
    /// blocking call returns [`Stopped`].
    pub fn spawn_daemon<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(Ctx<M>) -> Result<(), Stopped> + Send + 'static,
    {
        self.spawn_inner(name, true, f)
    }

    /// Spawn a reactor: a daemon with a pid, group, mailbox and virtual
    /// clock like any other, but no stack of its own — its callbacks run on
    /// whichever stack holds duty when an event resumes it (see
    /// [`Reactor`]). In virtual time it is indistinguishable from a
    /// [`spawn_daemon`](Sim::spawn_daemon) loop of `recv`/`recv_timeout`:
    /// same events, same keys, same trace.
    pub fn spawn_reactor(&mut self, name: &str, reactor: impl Reactor<M>) -> Pid {
        self.add_proc(name, true, |_| Exec::Reactor(Some(Box::new(reactor))))
    }

    /// Register a process slot — `exec` is told the pid it is for — and
    /// its initial wake.
    fn add_proc(&mut self, name: &str, daemon: bool, exec: impl FnOnce(Pid) -> Exec<M>) -> Pid {
        let mut k = self.kernel.lock();
        let pid = k.procs.len();
        let exec = exec(pid);
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
        F: FnOnce(Ctx<M>) -> Result<(), Stopped> + Send + 'static,
    {
        let (kernel, home) = (Arc::clone(&self.kernel), Arc::clone(&self.home));
        self.add_proc(name, daemon, move |pid| {
            // The body runs when the coroutine is first switched to: by a
            // `Go`, which starts the process, or by a `Stop` (the run
            // ended, or the `Sim` was dropped, before it ever ran), which
            // only drops `f`. Either way everything it owns — `f`, the
            // `Ctx`, this `kernel` handle — is dropped by the time it
            // returns, as it must be: the frame that called it is
            // abandoned, never unwound. (Until it is entered the kernel
            // owns the coroutine and the body a kernel handle;
            // `stop_remaining` enters every coroutine, so that cycle never
            // outlives the `Sim`.)
            let coro = Coroutine::new(home, move |me| {
                let ctx = Ctx::new(pid, Arc::clone(&kernel), me);
                let panicked = catch_unwind(AssertUnwindSafe(move || {
                    if ctx.take_resume().is_ok() {
                        let _ = f(ctx);
                    }
                }))
                .is_err();
                kernel.lock().exited = Some((pid, panicked));
            });
            Exec::Coroutine { coro, resume: None }
        })
    }

    /// Run the simulation to completion, on the calling thread.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        let n_primary = self.kernel.lock().procs.iter().filter(|p| !p.daemon).count();
        if n_primary == 0 {
            return Err(SimError::NoPrimaryProcesses);
        }
        let result = self.event_loop(n_primary);
        debug_assert!(self.kernel.lock().timers_are_live(), "a timer outlived its wait");

        // Stop remaining processes (daemons, or everyone on error).
        let stop_err = self.stop_remaining();
        result?;
        if let Some(e) = stop_err {
            return Err(e);
        }

        let mut k = self.kernel.lock();
        Ok(SimReport {
            end_time: k.front.0,
            proc_clocks: k.procs.iter().map(|p| (p.name.clone(), p.clock)).collect(),
            events_processed: k.events_processed,
            trace: k.trace.take(),
            mailbox_backlog: k
                .procs
                .iter()
                .filter(|p| !p.mailbox.is_empty())
                .map(|p| (p.name.clone(), p.mailbox.len()))
                .collect(),
            exec: k.exec,
        })
    }

    /// Switch to `coro` and return when duty comes back to the coordinator,
    /// with the reason: a process exit (or a reactor panic) as `(pid,
    /// panicked)`, or `None` if a duty holder found nothing runnable.
    fn lend_duty(&self, coro: &Coroutine) -> Option<(Pid, bool)> {
        switch(&self.home, coro.context());
        self.kernel.lock().exited.take()
    }

    /// The coordinator's side of the duty protocol: seed the run, then take
    /// duty back whenever a process exits or finds nothing runnable;
    /// between those, the processes drive the kernel themselves (see
    /// [`Kernel::drain`] and [`Ctx`](crate::Ctx)'s blocking path).
    fn event_loop(&mut self, n_primary: usize) -> Result<(), SimError> {
        let mut live_primary = n_primary;
        loop {
            match drive(&self.kernel, self.kernel.lock(), None) {
                DrainOutcome::SelfResume { .. } => {
                    unreachable!("the coordinator cannot resume itself")
                }
                DrainOutcome::ReactorPanicked(pid) => {
                    let name = self.kernel.lock().procs[pid].name.clone();
                    return Err(SimError::ProcessPanicked { pid, name });
                }
                DrainOutcome::Empty => {
                    if live_primary == 0 {
                        return Ok(());
                    }
                    // No events left but primaries are still blocked:
                    // they wait for messages that will never arrive.
                    let k = self.kernel.lock();
                    let blocked = k
                        .procs
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.status != Status::Exited && !p.daemon)
                        .map(|(i, p)| (i, format!("{} ({:?})", p.name, p.status)))
                        .collect();
                    return Err(SimError::Deadlock { blocked });
                }
                DrainOutcome::Handoff(coro) => {
                    // Duty circulates among the processes now; it comes
                    // back with an exit, or when nothing is runnable.
                    if let Some((pid, panicked)) = self.lend_duty(&coro) {
                        let mut k = self.kernel.lock();
                        let slot = &mut k.procs[pid];
                        slot.status = Status::Exited;
                        if panicked {
                            let name = slot.name.clone();
                            return Err(SimError::ProcessPanicked { pid, name });
                        }
                        live_primary -= usize::from(!slot.daemon);
                        k.tail = live_primary == 0;
                    }
                }
            }
        }
    }

    /// Run every coroutine process that has not exited to its end: post
    /// `Stop` and switch to it, one after the other. All of them are
    /// suspended here (duty is with the coordinator) — in a blocking call,
    /// which returns `Stopped`, or not yet started, in which case the
    /// process function is dropped unrun; once `stopping` is set a process
    /// that blocks again on its way out gets `Stopped` without a switch, so
    /// each comes straight back. Reactors have nothing to stop: nobody
    /// drains any more, so they never run again. After this no frame is
    /// left on any stack, and dropping the kernel unmaps them. Returns the
    /// first process that panicked on its way out, if any did.
    fn stop_remaining(&mut self) -> Option<SimError> {
        let live: Vec<(Pid, Arc<Coroutine>)> = {
            let mut k = self.kernel.lock();
            k.stopping = true;
            k.procs
                .iter_mut()
                .enumerate()
                .filter(|(_, p)| p.status != Status::Exited)
                .filter_map(|(pid, p)| match &mut p.exec {
                    Exec::Coroutine { coro, resume } => {
                        *resume = Some(Resume::Stop);
                        Some((pid, Arc::clone(coro)))
                    }
                    Exec::Reactor(_) => None,
                })
                .collect()
        };
        let mut err = None;
        for (pid, coro) in live {
            let exited = self.lend_duty(&coro);
            debug_assert_eq!(exited.map(|(p, _)| p), Some(pid), "a stopped process exits");
            let mut k = self.kernel.lock();
            let slot = &mut k.procs[pid];
            slot.status = Status::Exited;
            if exited.is_some_and(|(_, panicked)| panicked) && err.is_none() {
                err = Some(SimError::ProcessPanicked { pid, name: slot.name.clone() });
            }
        }
        err
    }
}

impl<M: Send + 'static> Drop for Sim<M> {
    /// Run any process still alive to its end (covers simulations that are
    /// dropped without being run; after `run` this is a no-op).
    fn drop(&mut self) {
        let _ = self.stop_remaining();
    }
}
