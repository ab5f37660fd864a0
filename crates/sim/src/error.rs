//! Error types for the simulation kernel.

use std::fmt;

use crate::ctx::Pid;

/// The simulation is shutting down: every primary process has exited, or
/// a process failed. Returned from blocking calls so processes can unwind
/// cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stopped;

impl fmt::Display for Stopped {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation stopped")
    }
}

impl std::error::Error for Stopped {}

/// A failed simulation run.
#[derive(Debug)]
pub enum SimError {
    /// No events remain but primary processes are still blocked: the modeled
    /// system is deadlocked. Lists the blocked primary processes.
    Deadlock { blocked: Vec<(Pid, String)> },
    /// A process panicked — its function, or a reactor's callback — and the
    /// panic was caught at the process boundary. The panic message is on
    /// stderr, where it names the *thread that called `Sim::run`* (every
    /// process runs on it); `pid` and `name` name the process.
    ProcessPanicked { pid: Pid, name: String },
    /// `run` was called on a simulation with no primary processes.
    NoPrimaryProcesses,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { blocked } => {
                write!(f, "simulated deadlock; blocked processes: ")?;
                for (i, (pid, name)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "#{pid} {name}")?;
                }
                Ok(())
            }
            SimError::ProcessPanicked { pid, name } => {
                write!(f, "simulated process #{pid} `{name}` panicked")
            }
            SimError::NoPrimaryProcesses => write!(f, "simulation has no primary processes"),
        }
    }
}

impl std::error::Error for SimError {}
