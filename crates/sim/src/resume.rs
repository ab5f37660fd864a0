//! The resume cell: how a parked process thread is told to continue.
//!
//! Each process owns one cell. Whoever holds duty *posts* a [`Resume`]
//! into it under the kernel lock and *wakes* the owner only after that
//! lock is released, so the woken thread never bounces off it. The owner
//! is the only consumer; [`wait`](ResumeCell::wait) re-checks the queue
//! around every `park`, so neither a spurious return nor a wake that
//! arrives before the thread parks (the unpark token is sticky) can lose a
//! resume.

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::thread::Thread;

use parking_lot::Mutex;
use repseq_substrate::SimTime;

pub(crate) enum Resume {
    /// Continue at virtual time `at`; `timed_out` tells a receive that its
    /// deadline fired.
    Go { at: SimTime, timed_out: bool },
    /// The run is over: the pending blocking call returns `Stopped`.
    Stop,
}

pub(crate) struct ResumeCell {
    /// At most one entry in a correct run (a process is resumed once per
    /// block); a queue rather than a slot so a `Stop` can never overwrite
    /// a `Go`.
    queue: Mutex<VecDeque<Resume>>,
    /// The owning process thread, bound right after it is spawned — before
    /// `run` can post anything.
    owner: OnceLock<Thread>,
}

impl ResumeCell {
    pub(crate) fn new() -> Self {
        ResumeCell { queue: Mutex::new(VecDeque::new()), owner: OnceLock::new() }
    }

    pub(crate) fn bind(&self, owner: Thread) {
        self.owner.set(owner).expect("resume cell bound twice");
    }

    /// Queue `r` for the owner. Does not wake it: call [`wake`](Self::wake)
    /// once no lock the owner will need is held.
    pub(crate) fn post(&self, r: Resume) {
        self.queue.lock().push_back(r);
    }

    pub(crate) fn wake(&self) {
        self.owner.get().expect("resume cell woken before it was bound").unpark();
    }

    /// Park the calling (owning) thread until a resume is posted.
    pub(crate) fn wait(&self) -> Resume {
        loop {
            if let Some(r) = self.queue.lock().pop_front() {
                return r;
            }
            std::thread::park();
        }
    }
}
