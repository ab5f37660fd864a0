//! # repseq-core — the OpenMP/NOW-style runtime
//!
//! The user-facing layer of the reproduction: a master program drives
//! fork-join parallelism over the DSM cluster, with sequential sections
//! executed either by the master alone (the paper's *Original* system),
//! replicated on every node with multicast support (the paper's
//! *Optimized* system), or master-only followed by a hand-inserted page
//! broadcast (the §6.1.2 ablation). Switching a whole application between
//! the three systems is one [`SeqMode`] value — exactly the experimental
//! design of the paper's evaluation.
//!
//! ```
//! use repseq_core::{RunConfig, Runtime, Worker};
//!
//! let mut rt = Runtime::new(RunConfig::optimized(4));
//! let data = rt.alloc_array_page_aligned::<f64>(1024);
//! let partials = rt.alloc_array_page_aligned::<f64>(4);
//! rt.preload(data, &vec![1.0; 1024]);
//! let report = rt
//!     .run(move |team| {
//!         team.start_measurement();
//!         // Sequential section: rescale everything (replicated on all
//!         // nodes under the optimized mode).
//!         team.sequential(move |nd| {
//!             for i in 0..data.len() {
//!                 let v = data.get(nd, i)?;
//!                 data.set(nd, i, v * 2.0)?;
//!             }
//!             Ok(())
//!         })?;
//!         // Parallel section: block-partitioned sum.
//!         team.parallel(move |nd| {
//!             let mut s = 0.0;
//!             for i in nd.my_block(data.len()) {
//!                 s += data.get(nd, i)?;
//!             }
//!             partials.set(nd, nd.node(), s)
//!         })?;
//!         let total = team.sum_partials(team.node(), partials)?;
//!         assert_eq!(total, 2048.0);
//!         team.end_measurement();
//!         Ok(())
//!     })
//!     .unwrap();
//! assert!(report.end_time.nanos() > 0);
//! ```

#![warn(unreachable_pub)]

mod runtime;
pub mod sched;
mod team;

pub use repseq_dsm::SeqMode;
pub use runtime::{RunConfig, Runtime};
pub use team::{Stopped, Team, Worker};
