//! # repseq-sim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the PPoPP'01 reproduction: a
//! process-oriented discrete-event simulator in which each simulated node of
//! the cluster runs as a cooperatively scheduled OS thread in *virtual*
//! time. The engine always runs the process with the globally minimal next
//! event time, so execution is fully serialized and **bit-for-bit
//! deterministic** — the property the reproduced paper requires of
//! sequential sections, and the property that makes every experiment in
//! this repository reproducible.
//!
//! Layers above build on three primitives:
//!
//! * [`Ctx::charge`] — account for local computation without a context
//!   switch (cost is folded into the clock at the next yield);
//! * [`Ctx::send`] — schedule a message delivery at an explicit virtual
//!   time (the network model computes that time from link occupancy);
//! * [`Ctx::recv`] / [`Ctx::recv_timeout`] / [`Ctx::sleep`] — blocking
//!   operations that yield to the engine.
//!
//! The primitive *types* (virtual time, process ids, envelopes, the
//! [`SubstrateCtx`] contract) live in
//! `repseq-substrate` and are re-exported here under their historical
//! paths; this engine is the seam's deterministic backend, and
//! `repseq-native` is the wall-clock one.
//!
//! See `DESIGN.md` at the repository root for how this engine substitutes
//! for the paper's 32-node Ethernet cluster.

#![warn(unreachable_pub)]

mod ctx;
mod engine;
mod error;
mod resume;
mod trace;

pub use ctx::Ctx;
pub use engine::{ExecCounters, Sim, SimReport};
pub use error::SimError;
pub use repseq_substrate::{Dur, Envelope, Pid, SimTime, Stopped, SubstrateCtx};
pub use trace::{first_divergence, Divergence, TraceClass, TraceEntry};
