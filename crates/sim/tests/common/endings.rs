//! Every way a process can end, each around a *subject*: a process that
//! owns two `Drop`-counting values — one captured by its closure, one held
//! in a local across a `recv` (so it sits on a suspended stack) — whose
//! counts come back for the caller to judge. Shared by `resume.rs`, which
//! asserts on the counts, and `stacks.rs`, which checks that none of the
//! endings leaves a stack mapped.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use repseq_sim::{Ctx, Dur, Sim, SimError, Stopped};

struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// How one ending left the subject's two values.
#[derive(Debug, PartialEq, Eq)]
pub struct Drops {
    pub ending: &'static str,
    /// Times the value captured by the closure was dropped (want: 1).
    pub captured: usize,
    /// Times the value held across the `recv` was dropped (want: 1 if the
    /// process ever started, else 0 — it was never made).
    pub local: usize,
}

#[derive(Default)]
struct Counters {
    captured: Arc<AtomicUsize>,
    local: Arc<AtomicUsize>,
}

impl Counters {
    /// The subject's body: block in `recv` holding the local, then return
    /// or panic.
    fn subject(
        &self,
        then_panic: bool,
    ) -> impl FnOnce(Ctx<u32>) -> Result<(), Stopped> + Send + 'static {
        let captured = Counted(Arc::clone(&self.captured));
        let local = Arc::clone(&self.local);
        move |ctx| {
            let _captured = &captured;
            let _held = Counted(local);
            ctx.recv()?;
            if then_panic {
                panic!("boom (expected by the test)");
            }
            Ok(())
        }
    }

    fn drops(&self, ending: &'static str) -> Drops {
        let read = |c: &AtomicUsize| c.load(Ordering::SeqCst);
        Drops { ending, captured: read(&self.captured), local: read(&self.local) }
    }
}

/// A primary that sends `dst` one message.
fn sender(sim: &mut Sim<u32>, dst: usize) {
    sim.spawn("sender", move |ctx| {
        ctx.send(dst, 7, ctx.now() + Dur::from_micros(1));
        Ok(())
    });
}

/// `result` must be the panic of the process called `name`.
pub fn expect_panic_of(name: &str, result: Result<repseq_sim::SimReport, SimError>) {
    match result {
        Err(SimError::ProcessPanicked { name: n, .. }) => assert_eq!(n, name),
        other => panic!("expected `{name}` to panic, got {other:?}"),
    }
}

/// Run each ending once.
pub fn every_ending() -> Vec<Drops> {
    let mut out = Vec::new();

    let c = Counters::default();
    let mut sim = Sim::<u32>::new();
    let subject = sim.spawn("subject", c.subject(false));
    sender(&mut sim, subject);
    sim.run().expect("run completes");
    out.push(c.drops("returns"));

    let c = Counters::default();
    let mut sim = Sim::<u32>::new();
    sim.spawn_daemon("subject", c.subject(false));
    sim.spawn("primary", |ctx| ctx.sleep(Dur::from_micros(5)));
    sim.run().expect("run completes");
    out.push(c.drops("is stopped while blocked"));

    let c = Counters::default();
    let mut sim = Sim::<u32>::new();
    sim.spawn("subject", c.subject(false));
    drop(sim);
    out.push(c.drops("never starts: the Sim is dropped without run"));

    let c = Counters::default();
    let mut sim = Sim::<u32>::new();
    let subject = sim.spawn("subject", c.subject(true));
    sender(&mut sim, subject);
    expect_panic_of("subject", sim.run());
    out.push(c.drops("panics"));

    // Both start wakes are at t = 0 and pid 0's pops first.
    let c = Counters::default();
    let mut sim = Sim::<u32>::new();
    sim.spawn("doomed", |_ctx| panic!("boom (expected by the test)"));
    sim.spawn("subject", c.subject(false));
    expect_panic_of("doomed", sim.run());
    out.push(c.drops("never starts: the run fails first"));

    out
}
