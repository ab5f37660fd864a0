//! # repseq-substrate — the primitives below the simulator
//!
//! The plain types every layer shares — [`SimTime`], [`Dur`], [`Pid`],
//! [`Envelope`], [`Stopped`] — and [`SendCtx`], the non-blocking half of a
//! process context: identify yourself, read the clock, spend modeled CPU
//! time, send. Two contexts implement it, the simulator's coroutine
//! process (`repseq_sim::Ctx`) and its run-to-completion reactor
//! (`repseq_sim::ReactorCtx`), and the network model (`repseq_net::Nic`)
//! and the protocol handler are written against it.
//!
//! The crate exists so that the network model and the statistics registry
//! can name time and envelopes without linking the event engine.
//! `repseq-sim` re-exports everything here under its old paths.

#![warn(unreachable_pub)]

mod ctx;
mod error;
mod time;

pub use ctx::{Envelope, Pid, SendCtx};
pub use error::Stopped;
pub use time::{Dur, SimTime};
