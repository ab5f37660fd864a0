//! # repseq-dsm — TreadMarks-style software DSM with replicated sequential
//! execution
//!
//! The substrate and the contribution of the PPoPP'01 paper, in one crate:
//!
//! * a multiple-writer, lazy-invalidate release-consistent DSM (vector
//!   timestamps, intervals, write notices, twins, lazy diffs) — §2.2/§5.1
//!   of the paper;
//! * fork/join, barriers and locks in the TreadMarks style;
//! * **replicated sequential execution**: valid notices, requester
//!   election, the master-serialized multicast diff protocol with its
//!   ack-chain flow control, and the dirty-page write-protection that keeps
//!   lazy diff creation from leaking replicated writes — §5.2–§5.4.
//!
//! Applications access shared memory through typed handles backed by a
//! software page table (see `DESIGN.md` for why this substitutes for
//! `mprotect`/`SIGSEGV`).
//!
//! ## Layering
//!
//! The crate is organized as layers with narrow interfaces; each module
//! owns one concern and the composite types ([`NodeState`], [`DsmNode`])
//! stay thin:
//!
//! | layer | module | owns |
//! |---|---|---|
//! | consistency | `vc`, `interval`, `consistency` | vector clocks, intervals, write notices |
//! | data plane | `page`, `diff`, `dataplane` | the page table (per-page slots: twin, notices, cached diffs, valid notices), the page slot store and its handles, twin pool, TLB revocation |
//! | fetch | `fetch` | demand-fetch request/reply and the shared retry budget |
//! | sync | `sync` | barrier manager, distributed locks |
//! | exec | `exec` | the one receive of every wait, fork/join, the forked [`Task`], the slave loop |
//! | strategy | `strategy` | how sequential sections execute: one [`SeqMode`], one `match` in [`DsmNode::run_sequential`] |
//! | substrate | `substrate`, `shmem` | [`NodeCtx`], the simulator's context, and the shared page segment |
//! | runtime | `runtime`, `handler`, `cluster` | processes, NICs, the software TLB, message dispatch, cluster launch |

// Everything not in the `pub use` façade below is crate-internal; the
// lint keeps `pub` from silently outliving its re-export.
#![warn(unreachable_pub)]

mod arena;
mod cluster;
mod config;
mod consistency;
mod dataplane;
mod diff;
mod exec;
mod fetch;
mod handler;
mod interval;
mod msg;
mod page;
mod pod;
mod race;
mod runtime;
mod shmem;
mod state;
mod strategy;
mod substrate;
mod sync;
mod vc;

pub use cluster::{AppFn, Cluster, ClusterConfig, LaunchOutcome};
pub use config::{DsmConfig, FlowControl};
pub use diff::{Diff, DiffError, DiffRun};
pub use exec::{Task, TaskFn};
pub use interval::{IntervalData, IntervalRecord, IntervalStore, PageId};
pub use msg::DsmMsg;
pub use page::{DiffEntry, PageMeta};
pub use pod::Pod;
pub use race::{AccessKind, RaceConfig, RaceSink, SyncEdge};
pub use runtime::DsmNode;
pub use shmem::SharedSegment;
pub use shmem::{PageSlice, PageSliceMut, ShArray, ShVar};
pub use state::NodeState;
pub use strategy::{ChainProbe, RseProbe, SeqMode};
pub use substrate::NodeCtx;
pub use vc::Vc;
