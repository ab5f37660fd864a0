//! The per-process substrate contract.

use crate::error::Stopped;
use crate::time::{Dur, SimTime};

/// Identifier of a process (index into the substrate's process table).
/// Both backends assign pids densely in spawn order.
pub type Pid = usize;

/// A message in flight or in a mailbox.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Sending process.
    pub from: Pid,
    /// Time at which the message became available to the receiver
    /// (virtual time in the simulation, wall time since run start
    /// natively).
    pub at: SimTime,
    /// Payload.
    pub msg: M,
}

/// The non-blocking half of the substrate contract: everything a
/// run-to-completion body may do — identify itself, read the clock, spend
/// modeled CPU time and send. A protocol handler gets only this half (on
/// the simulator it is a reactor running on whichever process holds duty,
/// see `repseq_sim::Reactor`), so "a handler cannot block" is a fact of
/// its signature: `recv`, `recv_timeout` and `sleep` are not nameable
/// through it. The network layer (`repseq_net::Nic`) needs no more than
/// this either.
///
/// Contract notes a backend must honor:
///
/// * `now` is monotone non-decreasing within a process;
/// * `send` may deliver no earlier than `deliver_at` on substrates with a
///   controllable clock; backends without one (the native threads)
///   deliver as soon as the receiver looks, which the protocol tolerates
///   because its timeout/retry discipline never assumes a minimum
///   latency.
pub trait SendCtx<M> {
    /// This process's identifier.
    fn pid(&self) -> Pid;

    /// The current time as observed by this process.
    fn now(&self) -> SimTime;

    /// Spend `d` of modeled CPU time. Advances the virtual clock in the
    /// simulation; a no-op natively, where real work takes real time.
    fn charge(&self, d: Dur);

    /// Send `msg` to process `dst`, available to it at `deliver_at`.
    fn send(&self, dst: Pid, msg: M, deliver_at: SimTime);
}

/// What a process with a stack of its own can do on whatever substrate it
/// runs on: the non-blocking half ([`SendCtx`]) plus the blocking rest.
/// The simulator's `Ctx<M>`, the native backend's `NativeCtx<M>` and the
/// protocol's backend-dispatching `NodeCtx` all implement this, so code
/// like the fetch layer's retry loop can be written once against the
/// trait.
///
/// Contract notes a backend must honor, beyond [`SendCtx`]'s:
///
/// * `recv_timeout(d)` returns `Ok(None)` only after at least `d` has
///   passed with no deliverable message;
/// * once the substrate stops (all primaries exited, or a peer failed),
///   every blocking call returns `Err(Stopped)`.
pub trait SubstrateCtx<M>: SendCtx<M> {
    /// Block for `d`.
    fn sleep(&self, d: Dur) -> Result<(), Stopped>;

    /// Block until a message arrives.
    fn recv(&self) -> Result<Envelope<M>, Stopped>;

    /// Block until a message arrives or `d` elapses (`Ok(None)`).
    fn recv_timeout(&self, d: Dur) -> Result<Option<Envelope<M>>, Stopped>;

    /// Take an already-delivered message, never blocking.
    fn try_recv(&self) -> Result<Option<Envelope<M>>, Stopped>;
}
