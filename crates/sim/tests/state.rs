//! Group state: the simulation owns one per scheduling group and lends it
//! to whichever of the group's processes runs — a coroutine until its next
//! yield, a reactor for its callback — and hands every state back after
//! the run, however the run ended.

use repseq_sim::{Dur, Envelope, Reactor, ReactorCtx, Sim, SimError};

/// Counts what it is sent into its group's state.
struct Tally;

impl Reactor<u32, Vec<u32>> for Tally {
    fn wait(&mut self, _ctx: &ReactorCtx<'_, u32, Vec<u32>>) -> Option<Dur> {
        None
    }

    fn on_msg(&mut self, ctx: &ReactorCtx<'_, u32, Vec<u32>>, env: Envelope<u32>) {
        ctx.state().push(env.msg);
    }

    fn on_timeout(&mut self, _ctx: &ReactorCtx<'_, u32, Vec<u32>>) {}
}

/// A coroutine and a reactor of one group see the one state, each in
/// turn; another group's state is untouched by them.
#[test]
fn a_group_shares_its_state_between_its_processes() {
    let mut sim = Sim::<u32, Vec<u32>>::new();
    let tally = sim.spawn_reactor("tally", Tally);
    let app = sim.spawn("app", move |ctx| {
        ctx.state().push(1);
        ctx.send(tally, 2, ctx.now() + Dur::from_micros(1));
        ctx.sleep(Dur::from_micros(5))?;
        ctx.state().push(3);
        Ok(())
    });
    let other = sim.spawn("other", |ctx| {
        ctx.state().push(10);
        Ok(())
    });
    sim.assign_group(tally, 0);
    sim.assign_group(app, 0);
    sim.assign_group(other, 1);
    sim.set_state(0, Vec::new());
    sim.set_state(1, Vec::new());
    sim.run().expect("the run completes");
    assert_eq!(sim.into_states(), [vec![1, 2, 3], vec![10]]);
}

/// A borrow of the state still live at a yield fails the run under the
/// name of the process that held it (a lock held there used to hang the
/// thread instead), and the state still comes back.
#[test]
fn a_state_held_across_a_recv_fails_the_holder_by_name() {
    let mut sim = Sim::<u32, Vec<u32>>::new();
    let holder = sim.spawn("holder", |ctx| {
        let mut st = ctx.state();
        st.push(1);
        let env = ctx.recv()?; // yields with `st` live
        st.push(env.msg);
        Ok(())
    });
    let sender = sim.spawn("sender", |ctx| {
        ctx.send(0, 2, ctx.now() + Dur::from_micros(1));
        Ok(())
    });
    sim.assign_group(holder, 0);
    sim.assign_group(sender, 1);
    sim.set_state(0, Vec::new());
    match sim.run() {
        Err(SimError::ProcessPanicked { pid, name }) => {
            assert_eq!((pid, name.as_str()), (holder, "holder"))
        }
        other => panic!("expected the holder to panic, got {other:?}"),
    }
    assert_eq!(sim.into_states(), [vec![1]]);
}

/// A process stopped at the end of the run still reaches its state on its
/// way out: `Stop` lends it as a resume does.
#[test]
fn a_stopped_process_reaches_its_state_on_its_way_out() {
    struct Leave<'a>(&'a repseq_sim::Ctx<u32, Vec<u32>>);
    impl Drop for Leave<'_> {
        fn drop(&mut self) {
            self.0.state().push(99);
        }
    }
    let mut sim = Sim::<u32, Vec<u32>>::new();
    let daemon = sim.spawn_daemon("daemon", |ctx| {
        let _leave = Leave(&ctx);
        ctx.recv()?; // stopped here
        Ok(())
    });
    let main = sim.spawn("main", |ctx| ctx.sleep(Dur::from_micros(1)));
    sim.assign_group(daemon, 0);
    sim.assign_group(main, 1);
    sim.set_state(0, Vec::new());
    sim.run().expect("the run completes");
    assert_eq!(sim.into_states(), [vec![99]]);
}
