//! The node-side substrate seam: [`NodeCtx`] is the one concrete context
//! type the *application-side* protocol layers hold, dispatching to
//! whichever backend the cluster was launched on — the deterministic DES
//! ([`repseq_sim::Ctx`]) or the wall-clock OS-thread backend
//! ([`repseq_native::NativeCtx`]). The protocol handler does not get one:
//! it is written against [`SendCtx`], the non-blocking half, and is handed
//! a [`repseq_sim::ReactorCtx`] or a `NativeCtx` directly (see
//! [`crate::handler`]).
//!
//! An enum rather than a generic parameter: `DsmNode` appears in boxed
//! application closures ([`crate::AppFn`]), trait objects
//! ([`crate::SeqExecStrategy`]) and task payloads, so a type parameter
//! would infect every application signature for no benefit — the protocol
//! hot paths go through one branch whose arms are both inlined, and the
//! per-message work on either backend dwarfs the jump.
//!
//! Protocol code calls the primitives through [`SendCtx`] (the
//! non-blocking half, all the generic network layer [`repseq_net::Nic`]
//! asks for) and [`SubstrateCtx`] (the blocking half, which the shared
//! retry discipline in [`crate::fetch`] is written against).

use repseq_native::NativeCtx;
use repseq_sim::Ctx;
use repseq_substrate::{Dur, Envelope, Pid, SendCtx, SimTime, Stopped, SubstrateCtx};

use crate::msg::DsmMsg;

/// A node process's substrate context: simulated or native.
pub enum NodeCtx {
    /// Deterministic discrete-event simulation (virtual time, modeled
    /// costs, bit-identical fingerprints).
    Sim(Ctx<DsmMsg>),
    /// Real OS threads and wall-clock time (no fingerprints; the
    /// coherence oracle and race detector are the correctness gates).
    Native(NativeCtx<DsmMsg>),
}

impl NodeCtx {
    /// The current time: virtual on the DES, wall-clock nanoseconds since
    /// launch on the native backend. The one primitive that is also
    /// inherent: applications and harnesses read the clock off
    /// [`crate::DsmNode::ctx`] without importing a trait.
    #[inline]
    pub fn now(&self) -> SimTime {
        SendCtx::now(self)
    }
}

impl SendCtx<DsmMsg> for NodeCtx {
    #[inline]
    fn pid(&self) -> Pid {
        match self {
            NodeCtx::Sim(c) => c.pid(),
            NodeCtx::Native(c) => c.pid(),
        }
    }

    #[inline]
    fn now(&self) -> SimTime {
        match self {
            NodeCtx::Sim(c) => c.now(),
            NodeCtx::Native(c) => c.now(),
        }
    }

    /// A no-op on the native backend, where real computation takes real
    /// time.
    #[inline]
    fn charge(&self, d: Dur) {
        match self {
            NodeCtx::Sim(c) => c.charge(d),
            NodeCtx::Native(c) => c.charge(d),
        }
    }

    /// Delivered as soon as the receiver looks, on backends without a
    /// controllable clock.
    #[inline]
    fn send(&self, dst: Pid, msg: DsmMsg, deliver_at: SimTime) {
        match self {
            NodeCtx::Sim(c) => c.send(dst, msg, deliver_at),
            NodeCtx::Native(c) => c.send(dst, msg, deliver_at),
        }
    }
}

impl SubstrateCtx<DsmMsg> for NodeCtx {
    #[inline]
    fn sleep(&self, d: Dur) -> Result<(), Stopped> {
        match self {
            NodeCtx::Sim(c) => c.sleep(d),
            NodeCtx::Native(c) => c.sleep(d),
        }
    }

    #[inline]
    fn recv(&self) -> Result<Envelope<DsmMsg>, Stopped> {
        match self {
            NodeCtx::Sim(c) => c.recv(),
            NodeCtx::Native(c) => c.recv(),
        }
    }

    #[inline]
    fn recv_timeout(&self, d: Dur) -> Result<Option<Envelope<DsmMsg>>, Stopped> {
        match self {
            NodeCtx::Sim(c) => c.recv_timeout(d),
            NodeCtx::Native(c) => c.recv_timeout(d),
        }
    }

    #[inline]
    fn try_recv(&self) -> Result<Option<Envelope<DsmMsg>>, Stopped> {
        match self {
            NodeCtx::Sim(c) => c.try_recv(),
            NodeCtx::Native(c) => c.try_recv(),
        }
    }
}
