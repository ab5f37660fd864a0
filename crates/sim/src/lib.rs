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
use std::ops::Range;
pub use time::{Dur, SimTime};
pub use trace::{first_divergence, Divergence, TraceClass, TraceEntry};

/// The splitmix64 increment (2⁶⁴ over the golden ratio).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The standard 64-bit splitmix finalizer, the workspace's one
/// deterministic hash: the loss injector's drop decisions and the KV
/// workload's trace and record values are pure functions of it. Inlined
/// across crates: KV calls it once per record word.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace's one seeded stream, xoshiro256++ with state word `i`
/// set to `splitmix64(seed + i·γ)`. It draws the Plummer bodies: a run is
/// a pure function of its seed, and every replica reads the same input.
pub struct Rng([u64; 4]);

impl Rng {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng([0, 1, 2, 3].map(|i: u64| splitmix64(seed.wrapping_add(i.wrapping_mul(GAMMA)))))
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.0;
        let (t2, t3) = (s2 ^ s0, s3 ^ s1);
        self.0 = [s0 ^ t3, s1 ^ t2, t2 ^ (s1 << 17), t3.rotate_left(45)];
        s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0)
    }

    /// A uniform `f64` in `lo..hi` from 53 random bits (`lo` should
    /// rounding reach `hi`).
    pub fn uniform(&mut self, Range { start: lo, end: hi }: Range<f64>) -> f64 {
        let v = lo + (hi - lo) * ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64));
        if v >= hi {
            lo
        } else {
            v
        }
    }

    /// A uniform index in `lo..hi`, by multiply-shift.
    pub fn index(&mut self, Range { start: lo, end: hi }: Range<usize>) -> usize {
        lo + ((self.next_u64() as u128 * (hi - lo) as u128) >> 64) as usize
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
#[path = "../tests/unit/rng.rs"]
mod tests;
