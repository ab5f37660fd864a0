//! # repseq-native — the wall-clock substrate
//!
//! The second backend of the substrate seam (`repseq-substrate`): every
//! process is a real OS thread, time is the wall clock (nanoseconds since
//! the run started), messages travel through per-process inboxes built on
//! the vendored `parking_lot` `Mutex` + `Condvar`, and timeouts are real
//! timeouts driving the protocol's existing retry discipline.
//!
//! Where the simulator *models* costs ([`charge`](NativeCtx::charge)
//! advances a virtual clock), this backend is the real thing: computation
//! takes however long it takes, `charge` is a no-op, and there is no
//! deterministic fingerprint — the coherence oracle and the race detector
//! are the correctness gates instead (see `DESIGN.md` §9).
//!
//! The API deliberately mirrors `repseq_sim::Sim`: spawn primaries and
//! daemons (pids assigned densely in spawn order), then [`Native::run`]
//! drives everything to completion and returns a [`NativeReport`] in plain
//! substrate types (the crate does not link the simulator; `repseq-dsm`
//! converts the report once so the layers above reuse their reporting
//! paths). Daemons are stopped — their pending blocking
//! call returns [`Stopped`] — once every primary has exited, or
//! immediately if any thread panics.

#![warn(unreachable_pub)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use repseq_substrate::{Dur, Envelope, Pid, SendCtx, SimTime, Stopped, SubstrateCtx};

/// One process's mailbox: a queue guarded by a mutex, with a condvar the
/// owner blocks on. Senders enqueue and notify; the stop flag (checked
/// under the same lock) turns every blocked receive into `Err(Stopped)`.
struct Inbox<M> {
    queue: Mutex<VecDeque<Envelope<M>>>,
    cv: Condvar,
}

impl<M> Inbox<M> {
    fn new() -> Self {
        Inbox { queue: Mutex::new(VecDeque::new()), cv: Condvar::new() }
    }
}

/// State shared by every thread of one native run.
struct Shared<M> {
    inboxes: Vec<Arc<Inbox<M>>>,
    /// Set when the run is over (all primaries exited, or a panic);
    /// every inbox condvar is notified after the store.
    stop: AtomicBool,
    /// Wall-clock origin of the run; `now()` is the elapsed time since it.
    epoch: Instant,
    /// Total messages delivered (the native analogue of the kernel's
    /// events-processed counter, reported as [`NativeReport::deliveries`]).
    deliveries: AtomicU64,
}

impl<M> Shared<M> {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for inbox in &self.inboxes {
            let _g = inbox.queue.lock();
            inbox.cv.notify_all();
        }
    }
}

/// The per-process handle: the native implementation of [`SubstrateCtx`].
pub struct NativeCtx<M> {
    pid: Pid,
    shared: Arc<Shared<M>>,
}

impl<M: Send + 'static> NativeCtx<M> {
    /// This process's id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Wall-clock nanoseconds since the run started.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// No-op: on the native substrate real computation takes real time,
    /// so there is no modeled cost to account for.
    pub fn charge(&self, _d: Dur) {}

    /// Deliver `msg` to `dst`'s inbox immediately. The `deliver_at`
    /// argument is the *virtual* delivery time a latency model computed;
    /// the native substrate has no controllable clock, so the message
    /// becomes available as soon as the receiver looks. The protocol
    /// tolerates early delivery — it never assumes a minimum latency.
    pub fn send(&self, dst: Pid, msg: M, _deliver_at: SimTime) {
        let inbox = &self.shared.inboxes[dst];
        let env = Envelope { from: self.pid, at: self.shared.now(), msg };
        let mut q = inbox.queue.lock();
        q.push_back(env);
        self.shared.deliveries.fetch_add(1, Ordering::Relaxed);
        inbox.cv.notify_all();
    }

    /// Real sleep.
    pub fn sleep(&self, d: Dur) -> Result<(), Stopped> {
        if self.stopped() {
            return Err(Stopped);
        }
        std::thread::sleep(std::time::Duration::from_nanos(d.nanos()));
        Ok(())
    }

    /// Block until a message arrives.
    pub fn recv(&self) -> Result<Envelope<M>, Stopped> {
        let inbox = &self.shared.inboxes[self.pid];
        let mut q = inbox.queue.lock();
        loop {
            if self.stopped() {
                return Err(Stopped);
            }
            if let Some(env) = q.pop_front() {
                return Ok(env);
            }
            inbox.cv.wait(&mut q);
        }
    }

    /// Block until a message arrives or `d` of wall time elapses.
    pub fn recv_timeout(&self, d: Dur) -> Result<Option<Envelope<M>>, Stopped> {
        let inbox = &self.shared.inboxes[self.pid];
        let deadline = Instant::now() + std::time::Duration::from_nanos(d.nanos());
        let mut q = inbox.queue.lock();
        loop {
            if self.stopped() {
                return Err(Stopped);
            }
            if let Some(env) = q.pop_front() {
                return Ok(Some(env));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            if inbox.cv.wait_for(&mut q, left).timed_out() {
                // One last look: a message may have been enqueued in the
                // instant between the timeout and reacquiring the lock.
                if self.stopped() {
                    return Err(Stopped);
                }
                return Ok(q.pop_front());
            }
        }
    }

    /// Take an already-delivered message, never blocking.
    pub fn try_recv(&self) -> Result<Option<Envelope<M>>, Stopped> {
        if self.stopped() {
            return Err(Stopped);
        }
        Ok(self.shared.inboxes[self.pid].queue.lock().pop_front())
    }

    fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }
}

impl<M: Send + 'static> SendCtx<M> for NativeCtx<M> {
    fn pid(&self) -> Pid {
        NativeCtx::pid(self)
    }

    fn now(&self) -> SimTime {
        NativeCtx::now(self)
    }

    fn charge(&self, d: Dur) {
        NativeCtx::charge(self, d)
    }

    fn send(&self, dst: Pid, msg: M, deliver_at: SimTime) {
        NativeCtx::send(self, dst, msg, deliver_at)
    }
}

impl<M: Send + 'static> SubstrateCtx<M> for NativeCtx<M> {
    fn sleep(&self, d: Dur) -> Result<(), Stopped> {
        NativeCtx::sleep(self, d)
    }

    fn recv(&self) -> Result<Envelope<M>, Stopped> {
        NativeCtx::recv(self)
    }

    fn recv_timeout(&self, d: Dur) -> Result<Option<Envelope<M>>, Stopped> {
        NativeCtx::recv_timeout(self, d)
    }

    fn try_recv(&self) -> Result<Option<Envelope<M>>, Stopped> {
        NativeCtx::try_recv(self)
    }
}

type ProcFn<M> = Box<dyn FnOnce(NativeCtx<M>) -> Result<(), Stopped> + Send + 'static>;

struct ProcSpec<M> {
    name: String,
    daemon: bool,
    body: ProcFn<M>,
}

/// Summary of a completed native run.
#[derive(Debug)]
pub struct NativeReport {
    /// Wall-clock length of the run.
    pub end_time: SimTime,
    /// Process names, by pid.
    pub names: Vec<String>,
    /// Total messages delivered.
    pub deliveries: u64,
    /// Messages still sitting in process inboxes when the run ended, as
    /// `(process name, count)` for each non-empty inbox.
    pub mailbox_backlog: Vec<(String, usize)>,
}

/// A failed native run.
#[derive(Debug)]
pub enum NativeError {
    /// A process thread panicked; the panic message is on stderr.
    ProcessPanicked { pid: Pid, name: String },
    /// `run` was called with no primary processes.
    NoPrimaryProcesses,
}

impl std::fmt::Display for NativeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeError::ProcessPanicked { pid, name } => {
                write!(f, "native process #{pid} `{name}` panicked")
            }
            NativeError::NoPrimaryProcesses => write!(f, "native run has no primary processes"),
        }
    }
}

impl std::error::Error for NativeError {}

/// A native run under construction: the wall-clock counterpart of
/// `repseq_sim::Sim`. Spawn processes, then [`run`](Native::run).
pub struct Native<M: Send + 'static> {
    procs: Vec<ProcSpec<M>>,
}

impl<M: Send + 'static> Default for Native<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static> Native<M> {
    /// Create an empty native run.
    pub fn new() -> Self {
        Native { procs: Vec::new() }
    }

    /// Register a primary process; the run ends when every primary has
    /// exited. Returns the process's pid (dense, in spawn order).
    pub fn spawn<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(NativeCtx<M>) -> Result<(), Stopped> + Send + 'static,
    {
        self.spawn_inner(name, false, f)
    }

    /// Register a daemon process (e.g. a protocol request handler),
    /// stopped automatically once all primaries exit.
    pub fn spawn_daemon<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(NativeCtx<M>) -> Result<(), Stopped> + Send + 'static,
    {
        self.spawn_inner(name, true, f)
    }

    fn spawn_inner<F>(&mut self, name: &str, daemon: bool, f: F) -> Pid
    where
        F: FnOnce(NativeCtx<M>) -> Result<(), Stopped> + Send + 'static,
    {
        let pid = self.procs.len();
        self.procs.push(ProcSpec { name: name.to_string(), daemon, body: Box::new(f) });
        pid
    }

    /// Run every process on its own OS thread, wait for the primaries,
    /// stop the daemons, and report. Process names and the
    /// mailbox-backlog listing match the simulator's conventions so the
    /// validation layers above can treat both backends uniformly.
    pub fn run(self) -> Result<NativeReport, NativeError> {
        if !self.procs.iter().any(|p| !p.daemon) {
            return Err(NativeError::NoPrimaryProcesses);
        }
        let shared = Arc::new(Shared {
            inboxes: (0..self.procs.len()).map(|_| Arc::new(Inbox::new())).collect(),
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
            deliveries: AtomicU64::new(0),
        });
        // A panicking thread reports itself here, then trips the stop
        // flag so every other thread unblocks and unwinds via `Stopped`.
        let panicked: Arc<Mutex<Option<(Pid, String)>>> = Arc::new(Mutex::new(None));
        let mut primaries = Vec::new();
        let mut daemons = Vec::new();
        let mut names = Vec::with_capacity(self.procs.len());
        for (pid, spec) in self.procs.into_iter().enumerate() {
            names.push(spec.name.clone());
            let ctx = NativeCtx { pid, shared: Arc::clone(&shared) };
            let sh = Arc::clone(&shared);
            let pan = Arc::clone(&panicked);
            let name = spec.name;
            let body = spec.body;
            let handle = std::thread::Builder::new()
                .name(format!("native-{name}"))
                .spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(move || body(ctx)));
                    if result.is_err() {
                        let mut slot = pan.lock();
                        if slot.is_none() {
                            *slot = Some((pid, name));
                        }
                        sh.request_stop();
                    }
                })
                .expect("failed to spawn native thread");
            if spec.daemon {
                daemons.push(handle);
            } else {
                primaries.push(handle);
            }
        }
        for h in primaries {
            let _ = h.join();
        }
        shared.request_stop();
        for h in daemons {
            let _ = h.join();
        }
        if let Some((pid, name)) = panicked.lock().take() {
            return Err(NativeError::ProcessPanicked { pid, name });
        }
        let end_time = shared.now();
        let mailbox_backlog = names
            .iter()
            .enumerate()
            .filter_map(|(pid, name)| {
                let n = shared.inboxes[pid].queue.lock().len();
                (n > 0).then(|| (name.clone(), n))
            })
            .collect();
        let deliveries = shared.deliveries.load(Ordering::Relaxed);
        Ok(NativeReport { end_time, names, deliveries, mailbox_backlog })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_round_trip() {
        let mut nat = Native::<u32>::new();
        nat.spawn("ping", |ctx| {
            ctx.send(1, 5, ctx.now());
            let env = ctx.recv()?;
            assert_eq!(env.msg, 6);
            assert_eq!(env.from, 1);
            Ok(())
        });
        nat.spawn("pong", |ctx| {
            let env = ctx.recv()?;
            ctx.send(env.from, env.msg + 1, ctx.now());
            Ok(())
        });
        let report = nat.run().expect("run completes");
        assert_eq!(report.deliveries, 2);
        assert!(report.mailbox_backlog.is_empty());
    }

    #[test]
    fn daemon_is_stopped_after_primaries_exit() {
        let mut nat = Native::<u32>::new();
        nat.spawn("app", |_ctx| Ok(()));
        nat.spawn_daemon("handler", |ctx| match ctx.recv() {
            Err(Stopped) => Ok(()),
            Ok(_) => panic!("no one sends"),
        });
        nat.run().expect("daemon unblocks cleanly");
    }

    #[test]
    fn panic_is_reported_and_unblocks_peers() {
        let mut nat = Native::<u32>::new();
        nat.spawn("boom", |_ctx| panic!("deliberate test panic"));
        nat.spawn("waiter", |ctx| {
            // Blocked forever unless the panic trips the stop flag.
            match ctx.recv() {
                Err(Stopped) => Ok(()),
                Ok(_) => panic!("no one sends"),
            }
        });
        match nat.run() {
            Err(NativeError::ProcessPanicked { name, .. }) => assert_eq!(name, "boom"),
            other => panic!("expected ProcessPanicked, got {other:?}"),
        }
    }

    #[test]
    fn recv_timeout_times_out_and_delivers() {
        let mut nat = Native::<u32>::new();
        nat.spawn("a", |ctx| {
            let none = ctx.recv_timeout(Dur::from_millis(5))?;
            assert!(none.is_none());
            ctx.send(1, 9, ctx.now());
            Ok(())
        });
        nat.spawn("b", |ctx| {
            let env = ctx.recv_timeout(Dur::from_secs(5))?.expect("message beats timeout");
            assert_eq!(env.msg, 9);
            Ok(())
        });
        nat.run().expect("run completes");
    }
}
