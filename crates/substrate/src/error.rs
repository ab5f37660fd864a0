//! The one error a substrate primitive can return.

/// The simulation is shutting down: every primary process has exited, or
/// a process failed. Returned from blocking calls so processes can unwind
/// cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stopped;

impl std::fmt::Display for Stopped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "substrate stopped")
    }
}

impl std::error::Error for Stopped {}
