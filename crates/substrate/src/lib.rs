//! # repseq-substrate — the substrate seam
//!
//! The DSM protocol (`repseq-dsm`, `repseq-core`) needs only a dozen
//! primitives from whatever it runs on: a process identity, a clock, a
//! way to spend modeled CPU time, per-process message send/receive with
//! timeout, and sleep. This crate owns those primitives as plain types
//! ([`SimTime`], [`Dur`], [`Pid`], [`Envelope`], [`Stopped`]) plus the two
//! traits that name the contract — [`SendCtx`], the non-blocking half a
//! run-to-completion protocol handler is confined to, and [`SubstrateCtx`],
//! which adds the blocking calls of a process with its own stack — so the
//! protocol can be written once and executed on two very different
//! substrates:
//!
//! * the **deterministic discrete-event simulation** (`repseq-sim`), where
//!   time is virtual, `charge` advances the process clock by the paper's
//!   modeled costs, and every run is bit-identical;
//! * the **native backend** (`repseq-native`), where each process is a
//!   real OS thread, time is the wall clock, `charge` is a no-op (real
//!   work takes real time), and timeouts are real timeouts.
//!
//! `repseq-sim` re-exports everything here under its old paths, so code
//! written against the simulator compiles unchanged.
//!
//! The [`conformance`] module is the trait's executable specification: a
//! suite of substrate-independent checks (timeout ordering, envelope
//! integrity, sleep monotonicity, daemon shutdown, message-built barrier
//! reuse and lock fairness) that every backend must pass.

#![warn(unreachable_pub)]

mod ctx;
mod error;
mod time;

pub mod conformance;

pub use ctx::{Envelope, Pid, SendCtx, SubstrateCtx};
pub use error::Stopped;
pub use time::{Dur, SimTime};
