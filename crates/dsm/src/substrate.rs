//! The context an application-side node process holds: the simulator's
//! [`repseq_sim::Ctx`], carrying [`DsmMsg`]. The protocol handler does not
//! get one: it is written against [`repseq_sim::SendCtx`], the non-blocking
//! half, and is handed a [`repseq_sim::ReactorCtx`] (see [`crate::handler`]).

use crate::msg::DsmMsg;

/// A node process's context on the simulator.
pub type NodeCtx = repseq_sim::Ctx<DsmMsg>;
