//! The discrete-event kernel.
//!
//! A simulated process is either an OS thread that cooperates with the
//! engine or a [`Reactor`] — a daemon with no thread at all, whose
//! callbacks run to completion on whichever thread holds duty (see
//! [`crate::reactor`]). Thread processes interact with the kernel only
//! through [`Ctx`](crate::Ctx) — charging compute time, sending messages
//! with an explicit delivery time (computed by the network layer), and
//! blocking receives. `send` never yields; `recv`/`sleep` do. Local
//! computation between yields is free in wall-clock terms (no context
//! switch) and is folded into the process clock at the next yield point.
//!
//! The engine applies events in ascending `(time, src_group, seq)` order,
//! so each run is bit-for-bit deterministic — a property the reproduced
//! paper *relies on* (replicated sequential execution assumes deterministic
//! sequential sections) and which makes every experiment in this repository
//! reproducible.
//!
//! # Event order
//!
//! Pending events live in one ordered map keyed `(time, src_group, seq)`:
//! pushing is `insert`, popping is `pop_first`. `src_group` is the
//! scheduling group of the *pushing* process (a group is normally one
//! simulated node: its application and protocol-handler processes) and
//! `seq` is drawn from that group's private counter, so a key depends only
//! on what the pusher itself did. Regrouping a process changes the keys of
//! its *later* pushes; events already pending keep theirs.
//!
//! # The event engine: duty handoff
//!
//! Exactly one host thread at a time holds *duty* — the right to pop and
//! apply events — so execution is serialized and the pop order is the key
//! order. Duty moves without a scheduler in the middle:
//!
//! * a process that blocks keeps duty and pops events itself, under the
//!   kernel lock. Events that resume nobody (deliveries to busy processes,
//!   receive checkpoints, stale wakes) are applied inline;
//! * an event that resumes the duty holder itself just returns — no host
//!   switch at all;
//! * an event that resumes a reactor moves no duty either: the holder
//!   drops the kernel lock, runs the reactor's callback on its own stack
//!   until the reactor waits again, re-locks and drains on;
//! * an event that resumes another thread process posts a `Go` into that
//!   process's [`ResumeCell`] and hands duty to it. The `unpark` is issued
//!   only *after* the kernel lock is released: a thread woken under the
//!   lock would run straight into it and be descheduled a second time;
//! * when the queue runs dry, or the process exits, duty returns to the
//!   coordinator thread (the caller of [`Sim::run`]), which checks for
//!   termination or deadlock and otherwise drains on.
//!
//! One host switch per resume of another *thread*, none otherwise.
//!
//! # End of run
//!
//! When the last primary process exits, the engine finishes the lookahead
//! window the exit fell into — events strictly below the current horizon
//! (`time of the pop that opened the window + lookahead`) — and stops. With
//! no groups or zero lookahead the horizon is degenerate and the run stops
//! at the exit event.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::ctx::Ctx;
use crate::error::SimError;
use crate::reactor::{drive, Cause, Reactor, ReactorRun};
use crate::resume::{Resume, ResumeCell};
use crate::trace::TraceEntry;
use repseq_substrate::{Dur, Envelope, Pid, SimTime, Stopped};

/// Event key: `(delivery time, source group, per-source-group sequence)`.
/// Assigned at push from the pushing process's group counter; the global
/// pop order is the ascending key order.
pub(crate) type EvKey = (SimTime, u64, u64);

pub(crate) enum EventKind<M> {
    /// Wake a process (timer expiry or receive checkpoint). Stale if the
    /// process generation has moved on.
    Wake { pid: Pid, gen: u64 },
    /// Deliver a message into a mailbox.
    Deliver { dst: Pid, env: Envelope<M> },
}

pub(crate) struct Event<M> {
    pub time: SimTime,
    pub src: u64,
    pub seq: u64,
    pub kind: EventKind<M>,
}

/// What a blocked process is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Currently executing (it holds duty).
    Running,
    /// Waiting for a timer.
    Sleeping,
    /// Yielded for a receive; the checkpoint wake will inspect the mailbox.
    Polling { deadline: Option<SimTime> },
    /// Mailbox was empty at the checkpoint; waiting for a delivery
    /// (and possibly a timeout).
    Waiting { deadline: Option<SimTime> },
    /// Finished.
    Exited,
}

/// Who executes a process when an event resumes it.
pub(crate) enum Exec<M> {
    /// Its own OS thread, parked on this cell while the process is blocked.
    Thread(Arc<ResumeCell>),
    /// Whoever holds duty. `None` while the reactor is out running (and
    /// for good once it has panicked).
    Reactor(Option<Box<dyn Reactor<M>>>),
}

pub(crate) struct ProcSlot<M> {
    pub name: String,
    pub daemon: bool,
    pub status: Status,
    /// Bumped on every resume; wake events carry the generation at which
    /// they were scheduled so stale wakes are ignored.
    pub gen: u64,
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
    /// another thread) or the queue ran dry.
    pub windows: u64,
    /// Always 0: the sharded event store this counted fast-path pops of is
    /// gone. The field stays only because `benchmark/src/metrics.rs` reads
    /// it; the next benchmark PR drops `sim.sprint_pops` from
    /// `BENCHMARK.json` and `metrics.rs`, and then this field.
    pub sprint_pops: u64,
    /// Duty transfers: resumes of a *thread* process other than the duty
    /// holder — one host thread switch each. (Reactor resumes never count
    /// here: they move no duty.)
    pub handoff_switches: u64,
    /// Resumes where the duty holder resumed *itself* — no host switch.
    pub self_continues: u64,
    /// Resumes of a reactor, served inline on the duty holder's stack — no
    /// host switch. Every resume is exactly one of `handoff_switches`,
    /// `self_continues` and `reactor_runs`.
    pub reactor_runs: u64,
    /// Events applied without resuming anyone (deliveries to busy
    /// processes, checkpoint wakes, stale wakes).
    pub inline_events: u64,
}

/// How a stretch of duty ([`drive`]) ended.
pub(crate) enum DrainOutcome {
    /// No runnable events left while this drainer held duty.
    Empty,
    /// Duty belongs to the process owning this cell: its `Go` is posted;
    /// the caller must [`wake`](ResumeCell::wake) it once it has dropped
    /// the kernel lock.
    Handoff(Arc<ResumeCell>),
    /// The draining process resumed itself (only when `me` was given).
    SelfResume { at: SimTime, timed_out: bool },
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
    /// Every pending event, in pop order.
    events: BTreeMap<EvKey, EventKind<M>>,
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
    /// Virtual time of the last popped event.
    end_time: SimTime,
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
    exec: ExecCounters,
}

impl<M> Kernel<M> {
    /// Schedule an event pushed by process `src`. The key is formed from
    /// `src`'s group and that group's sequence counter.
    pub(crate) fn push_event(&mut self, src: Pid, time: SimTime, kind: EventKind<M>) {
        let sg = self.group_of[src];
        let seq = self.seqs[sg];
        self.seqs[sg] += 1;
        let dup = self.events.insert((time, sg as u64, seq), kind);
        debug_assert!(dup.is_none(), "duplicate event key");
    }

    pub(crate) fn bump_gen(&mut self, pid: Pid) -> u64 {
        self.procs[pid].gen += 1;
        self.procs[pid].gen
    }

    /// Schedule delivery of `msg` from `from` into `dst`'s mailbox at `at`.
    pub(crate) fn send(&mut self, from: Pid, dst: Pid, msg: M, at: SimTime) {
        debug_assert!(dst < self.procs.len(), "send to unknown pid {dst}");
        self.push_event(from, at, EventKind::Deliver { dst, env: Envelope { from, at, msg } });
    }

    /// Put `pid`, whose flushed clock reads `at`, into a receive wait —
    /// the one way a process waits for a message, thread or reactor.
    pub(crate) fn begin_recv(&mut self, pid: Pid, at: SimTime, deadline: Option<SimTime>) {
        let gen = self.bump_gen(pid);
        self.procs[pid].status = Status::Polling { deadline };
        // Checkpoint wake at the current clock: by the time it pops, all
        // deliveries up to this instant are in the mailbox.
        self.push_event(pid, at, EventKind::Wake { pid, gen });
        if let Some(dl) = deadline {
            if dl > at {
                self.push_event(pid, dl, EventKind::Wake { pid, gen });
            }
        }
    }

    /// Pop the globally next runnable event and do the per-event
    /// bookkeeping.
    fn pop_next(&mut self) -> Option<Event<M>> {
        let horizon = self.cur_horizon;
        if self.tail && self.events.first_key_value().is_none_or(|(key, _)| key.0 >= horizon) {
            return None;
        }
        let ((time, src, seq), kind) = self.events.pop_first()?;
        let ev = Event { time, src, seq, kind };
        debug_assert!(ev.time >= self.end_time, "kernel time went backwards");
        self.end_time = self.end_time.max(ev.time);
        self.events_processed += 1;
        if self.grouped && self.lookahead != Dur::ZERO && ev.time >= self.cur_horizon {
            self.cur_horizon = ev.time + self.lookahead;
        }
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry::from_event(&ev));
        }
        Some(ev)
    }

    /// Apply a popped event. Returns the process it resumed, if any, and
    /// whether that resume is a timeout.
    fn apply(&mut self, ev: Event<M>) -> Option<(Pid, bool)> {
        match ev.kind {
            EventKind::Wake { pid, gen } => {
                let slot = &mut self.procs[pid];
                if slot.gen != gen {
                    return None; // stale wake
                }
                match slot.status {
                    Status::Sleeping => Some((pid, false)),
                    Status::Polling { deadline } => {
                        if !slot.mailbox.is_empty() {
                            Some((pid, false))
                        } else if deadline == Some(ev.time) {
                            // Zero-length timeout: the checkpoint *is* the
                            // deadline.
                            Some((pid, true))
                        } else {
                            slot.status = Status::Waiting { deadline };
                            None
                        }
                    }
                    Status::Waiting { deadline } => {
                        // Only the deadline wake is still live for a waiter.
                        debug_assert_eq!(deadline, Some(ev.time));
                        Some((pid, true))
                    }
                    Status::Running | Status::Exited => None,
                }
            }
            EventKind::Deliver { dst, env } => {
                let slot = &mut self.procs[dst];
                if slot.status == Status::Exited {
                    return None; // message to a dead process is dropped
                }
                slot.mailbox.push_back(env);
                matches!(slot.status, Status::Waiting { .. }).then_some((dst, false))
            }
        }
    }

    /// Drive the kernel while holding duty: pop and apply events until one
    /// resumes a process or nothing runnable is left. `me` is the
    /// duty-holding process — resumed in place instead of through its cell
    /// — or `None` for the coordinator. A resumed reactor comes back as
    /// [`Step::React`]: the caller ([`drive`]) runs it with the lock
    /// released and calls `drain` again.
    pub(crate) fn drain(&mut self, me: Option<Pid>) -> Step<M> {
        let mut popped = false;
        while let Some(ev) = self.pop_next() {
            popped = true;
            let at = ev.time;
            let Some((pid, timed_out)) = self.apply(ev) else {
                self.exec.inline_events += 1;
                continue;
            };
            let slot = &mut self.procs[pid];
            debug_assert!(slot.clock <= at, "process resumed into its past");
            // A reactor never sleeps: its only timer wake is the one that
            // starts it.
            let starting = slot.status == Status::Sleeping;
            slot.gen += 1; // invalidate any other pending wakes
            slot.status = Status::Running;
            slot.clock = at;
            self.exec.windows += 1;
            if me == Some(pid) {
                self.exec.self_continues += 1;
                return Step::Done(DrainOutcome::SelfResume { at, timed_out });
            }
            return match &mut slot.exec {
                Exec::Thread(cell) => {
                    cell.post(Resume::Go { at, timed_out });
                    self.exec.handoff_switches += 1;
                    Step::Done(DrainOutcome::Handoff(Arc::clone(cell)))
                }
                Exec::Reactor(reactor) => {
                    self.exec.reactor_runs += 1;
                    let cause = if timed_out {
                        Cause::Timeout
                    } else if starting {
                        Cause::Start
                    } else {
                        Cause::Msg(slot.mailbox.pop_front().expect("resumed for a message"))
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

/// Control messages from process threads back to the coordinator: how duty
/// returns to it.
pub(crate) enum Ctrl {
    /// A duty-holding process found nothing runnable.
    Idle,
    /// The process function returned or unwound — or a reactor's callback
    /// panicked on the sending thread (`panicked`, the reactor's pid).
    Exited(Pid, /*panicked*/ bool),
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
    ctrl_tx: Sender<Ctrl>,
    ctrl_rx: Receiver<Ctrl>,
    /// Indexed by pid; `None` for a reactor (and for a joined thread).
    threads: Vec<Option<JoinHandle<()>>>,
}

impl<M: Send + 'static> Default for Sim<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static> Sim<M> {
    /// Create an empty simulation.
    pub fn new() -> Self {
        let (ctrl_tx, ctrl_rx) = channel();
        Sim {
            kernel: Arc::new(Mutex::new(Kernel {
                events: BTreeMap::new(),
                group_of: Vec::new(),
                procs: Vec::new(),
                seqs: Vec::new(),
                trace: None,
                events_processed: 0,
                end_time: SimTime::ZERO,
                lookahead: Dur::ZERO,
                grouped: false,
                cur_horizon: SimTime::ZERO,
                tail: false,
                stopping: false,
                exec: ExecCounters::default(),
            })),
            ctrl_tx,
            ctrl_rx,
            threads: Vec::new(),
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
    /// clock like any other, but no OS thread — its callbacks run on
    /// whichever thread holds duty when an event resumes it (see
    /// [`Reactor`]). In virtual time it is indistinguishable from a
    /// [`spawn_daemon`](Sim::spawn_daemon) loop of `recv`/`recv_timeout`:
    /// same events, same keys, same trace.
    pub fn spawn_reactor(&mut self, name: &str, reactor: impl Reactor<M>) -> Pid {
        let pid = self.add_proc(name, true, Exec::Reactor(Some(Box::new(reactor))));
        self.threads.push(None);
        pid
    }

    /// Register a process slot and its initial wake.
    fn add_proc(&mut self, name: &str, daemon: bool, exec: Exec<M>) -> Pid {
        let mut k = self.kernel.lock();
        let pid = k.procs.len();
        k.procs.push(ProcSlot {
            name: name.to_string(),
            daemon,
            status: Status::Sleeping,
            gen: 0,
            clock: SimTime::ZERO,
            mailbox: VecDeque::new(),
            exec,
        });
        // A fresh group of its own: the next unused group index.
        let group = k.seqs.len();
        k.group_of.push(group);
        k.seqs.push(0);
        // Initial wake at t=0 so the process starts when the engine runs.
        k.push_event(pid, SimTime::ZERO, EventKind::Wake { pid, gen: 0 });
        pid
    }

    fn spawn_inner<F>(&mut self, name: &str, daemon: bool, f: F) -> Pid
    where
        F: FnOnce(Ctx<M>) -> Result<(), Stopped> + Send + 'static,
    {
        let resume = Arc::new(ResumeCell::new());
        let pid = self.add_proc(name, daemon, Exec::Thread(Arc::clone(&resume)));
        let ctx =
            Ctx::new(pid, Arc::clone(&self.kernel), self.ctrl_tx.clone(), Arc::clone(&resume));
        let exit = ExitGuard { pid, ctrl_tx: self.ctrl_tx.clone() };
        let handle = std::thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || {
                let _exit = exit;
                // Wait for the first resume before touching anything.
                if ctx.wait_resume().is_ok() {
                    let _ = f(ctx);
                }
            })
            .expect("failed to spawn simulation thread");
        // Nothing is posted to the cell before `run`, which needs `self`.
        resume.bind(handle.thread().clone());
        self.threads.push(Some(handle));
        pid
    }

    /// Run the simulation to completion.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        let n_primary = self.kernel.lock().procs.iter().filter(|p| !p.daemon).count();
        if n_primary == 0 {
            return Err(SimError::NoPrimaryProcesses);
        }
        let result = self.event_loop(n_primary);

        // Stop remaining processes (daemons, or everyone on error).
        self.stop_remaining();
        let join_err = self.join_threads();
        result?;
        if let Some(e) = join_err {
            return Err(e);
        }

        let mut k = self.kernel.lock();
        Ok(SimReport {
            end_time: k.end_time,
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

    /// The coordinator's side of the duty protocol: seed the run, then take
    /// duty back whenever a process exits or finds nothing runnable;
    /// between those, the process threads drive the kernel themselves (see
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
                DrainOutcome::Handoff(cell) => {
                    cell.wake();
                    // Duty circulates among the process threads now; it
                    // comes back with an exit or an idle notification.
                    match self.ctrl_rx.recv().expect("the coordinator holds a sender") {
                        Ctrl::Idle => {}
                        Ctrl::Exited(pid, panicked) => {
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
    }

    /// Post `Stop` to every thread process that has not exited and wait
    /// until each has. All of them are blocked here (duty is with the
    /// coordinator); once `stopping` is set a process that blocks again
    /// while unwinding gets `Stopped` without parking. Reactors have
    /// nothing to stop: nobody drains any more, so they never run again.
    fn stop_remaining(&mut self) {
        let cells: Vec<Arc<ResumeCell>> = {
            let mut k = self.kernel.lock();
            k.stopping = true;
            k.procs
                .iter()
                .filter(|p| p.status != Status::Exited)
                .filter_map(|p| match &p.exec {
                    Exec::Thread(cell) => {
                        cell.post(Resume::Stop);
                        Some(Arc::clone(cell))
                    }
                    Exec::Reactor(_) => None,
                })
                .collect()
        };
        cells.iter().for_each(|c| c.wake());
        let mut outstanding = cells.len();
        while outstanding > 0 {
            if let Ctrl::Exited(pid, _) =
                self.ctrl_rx.recv().expect("the coordinator holds a sender")
            {
                self.kernel.lock().procs[pid].status = Status::Exited;
                outstanding -= 1;
            }
        }
    }

    fn join_threads(&mut self) -> Option<SimError> {
        let mut err = None;
        for (pid, h) in self.threads.iter_mut().enumerate() {
            if let Some(h) = h.take() {
                if h.join().is_err() && err.is_none() {
                    let name = self.kernel.lock().procs[pid].name.clone();
                    err = Some(SimError::ProcessPanicked { pid, name });
                }
            }
        }
        err
    }
}

impl<M: Send + 'static> Drop for Sim<M> {
    /// Stop and join any process threads still alive (covers simulations
    /// that are dropped without being run; after `run` this is a no-op).
    fn drop(&mut self) {
        self.stop_remaining();
        let _ = self.join_threads();
    }
}

/// Sends `Exited` when a process thread finishes, whether its function
/// returned, unwound, or was stopped before it ever started.
struct ExitGuard {
    pid: Pid,
    ctrl_tx: Sender<Ctrl>,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        let _ = self.ctrl_tx.send(Ctrl::Exited(self.pid, std::thread::panicking()));
    }
}
