//! # repseq-sim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the PPoPP'01 reproduction: a
//! process-oriented discrete-event simulator in which each simulated node of
//! the cluster runs as a cooperatively scheduled stackful coroutine in
//! *virtual* time — a stack of its own, but no OS thread: a whole
//! simulation runs on the thread that calls [`Sim::run`], and handing
//! control from one process to the next is a register swap in user space
//! (`coro.rs`, the crate's one `unsafe` module; x86_64 Linux only). The
//! engine always runs the process with the globally minimal next event
//! time, so execution is fully serialized and **bit-for-bit
//! deterministic** — the property the reproduced paper requires of
//! sequential sections, and the property that makes every experiment in
//! this repository reproducible. Independent simulations share nothing, so
//! they scale across cores the plain way: one thread each.
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
//! A process that only ever reacts — a protocol handler: wait for a
//! request, serve it, wait again — needs no stack of its own. It is a
//! [`Reactor`] ([`Sim::spawn_reactor`]): a daemon with a pid, a mailbox and
//! a clock like any other, whose callbacks run to completion on the
//! coordinator's stack when an event resumes it. That is the closer model
//! of TreadMarks, which serves a remote request in a SIGIO handler on the
//! application's processor — and it costs no switch at all, where a
//! handler coroutine costs one in and one out. A reactor is handed a
//! [`ReactorCtx`], which has `charge` and `send` but nothing that blocks.
//! In virtual time the two kinds of daemon are indistinguishable: same
//! events, same keys, same trace.
//!
//! One loop drives the kernel: [`Sim`] owns it, and only the coordinator
//! — the caller of [`Sim::run`] — pops events. A process it resumes runs
//! on its own stack until it switches back, holding its mailbox and the
//! run's send buffer meanwhile, and touches no kernel state (`engine.rs`
//! has the protocol).
//!
//! The primitive types — virtual time ([`SimTime`], [`Dur`]), process ids,
//! envelopes, [`Stopped`] and the non-blocking [`SendCtx`] half that
//! [`Ctx`] and [`ReactorCtx`] share — are what the network model and the
//! statistics registry build on.
//!
//! See `DESIGN.md` at the repository root for how this engine substitutes
//! for the paper's 32-node Ethernet cluster.

#![warn(unreachable_pub)]

mod coro;
mod ctx;
mod engine;
mod error;
mod reactor;
mod time;
mod trace;

pub use ctx::{Ctx, Envelope, Pid, SendCtx};
pub use engine::{ExecCounters, Sim, SimReport};
pub use error::{SimError, Stopped};
pub use reactor::{Reactor, ReactorCtx};
pub use time::{Dur, SimTime};
pub use trace::{first_divergence, Divergence, TraceClass, TraceEntry};
