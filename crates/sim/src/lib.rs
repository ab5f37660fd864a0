//! # repseq-sim — deterministic discrete-event simulation engine
//!
//! The foundation of the PPoPP'01 reproduction: a process-oriented
//! discrete-event simulator in which each simulated node of the cluster
//! runs in *virtual* time. A whole simulation runs on the thread that
//! calls [`Sim::run`]; the engine always runs the process with the
//! globally minimal next event, so execution is serialized and
//! **bit-for-bit deterministic** — the property the paper requires of
//! sequential sections, and the one that makes every experiment here
//! reproducible. Independent simulations share nothing: one thread each.
//!
//! A process is a [`Ctx`]-driven coroutine — a stack of its own, switched
//! to by a register swap (`coro.rs`, the crate's one `unsafe` module;
//! x86_64 Linux only) — or a [`Reactor`], a daemon whose callbacks run to
//! completion on the coordinator's stack with a [`ReactorCtx`], which has
//! nothing that blocks: the closer model of a TreadMarks SIGIO handler,
//! and no switch at all. In virtual time the two kinds are
//! indistinguishable. Both build on three primitives:
//!
//! * `charge` — account for local computation without a switch;
//! * `send` — schedule a delivery at an explicit virtual time (the network
//!   model computes it from link occupancy);
//! * [`Ctx::recv`] / [`Ctx::recv_timeout`] / [`Ctx::sleep`] — blocking
//!   operations that yield to the engine.
//!
//! [`Sim`] owns everything, and only the coordinator — the caller of
//! [`Sim::run`] — pops events (`engine.rs` has the protocol). What a
//! process needs while it runs is lent to it and handed back at its next
//! switch: its mailbox, the run's send buffer, and the state of its
//! scheduling group ([`Sim::set_state`]) — one simulated node's, in the
//! DSM — which no process of another group can reach.
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

/// The standard 64-bit splitmix finalizer, the workspace's one
/// deterministic hash: the loss injector's drop decisions and the KV
/// workload's trace and record values are pure functions of it. Inlined
/// across crates: KV calls it once per record word.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
