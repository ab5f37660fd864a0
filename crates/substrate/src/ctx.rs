//! The non-blocking process contract.

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
/// is a reactor running on whichever process holds duty, see
/// `repseq_sim::Reactor`), so "a handler cannot block" is a fact of its
/// signature: `recv`, `recv_timeout` and `sleep` are not nameable through
/// it. The network layer (`repseq_net::Nic`) needs no more than this
/// either.
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
