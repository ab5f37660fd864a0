//! Coroutine stacks as the host sees them. Both tests need a process to
//! themselves — one counts the lines of `/proc/self/maps`, which any other
//! test's threads and stacks would move; the other dies of a signal — so
//! each re-runs this test binary as a child with only itself selected.

use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, ExitStatus};

use repseq_sim::{Ctx, Dur, Sim, Stopped};

#[path = "common/endings.rs"]
mod endings;

const CHILD: &str = "REPSEQ_SIM_STACKS_CHILD";

/// In the child: `None`, go on and do the work. In the parent: run `test`
/// alone in a child process and hand back how it ended.
fn in_child(test: &str) -> Option<ExitStatus> {
    if std::env::var_os(CHILD).is_some() {
        return None;
    }
    let exe = std::env::current_exe().expect("the test binary has a path");
    let out = Command::new(exe)
        .args(["--exact", test, "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("the test binary runs");
    if !out.status.success() {
        eprintln!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    Some(out.status)
}

fn mapped_regions() -> usize {
    std::fs::read_to_string("/proc/self/maps").expect("procfs is mounted").lines().count()
}

/// 128 processes, each started once and resumed once: the token goes round
/// once.
fn lap_of_128() {
    const RING: usize = 128;
    let mut sim = Sim::<u32>::new();
    for i in 0..RING {
        sim.spawn(&format!("ring{i}"), move |ctx: Ctx<u32>| -> Result<(), Stopped> {
            if i == 0 {
                ctx.send(1, 0, ctx.now() + Dur::from_micros(1));
            }
            let hop = ctx.recv()?.msg;
            if i != 0 {
                ctx.send((i + 1) % RING, hop + 1, ctx.now() + Dur::from_micros(1));
            }
            Ok(())
        });
    }
    let report = sim.run().expect("the lap completes");
    assert_eq!(report.exec.handoff_switches, 2 * RING as u64, "{:?}", report.exec);
}

/// Every stack a `Sim` mapped is unmapped when the `Sim` is gone, however
/// its processes ended: 100 runs of 128 processes, and every ending of
/// `endings.rs` ten times over, leave the process with exactly the
/// mappings it had (a leaked stack is two lines: the stack and its guard).
#[test]
fn stacks_are_unmapped_however_the_processes_ended() {
    if let Some(status) = in_child("stacks_are_unmapped_however_the_processes_ended") {
        assert!(status.success(), "the child failed: {status}");
        return;
    }
    // Once unmeasured: whatever the allocator and the panic machinery map
    // on first use is mapped now.
    lap_of_128();
    endings::every_ending();
    let before = mapped_regions();
    for round in 0..100 {
        lap_of_128();
        if round % 10 == 0 {
            endings::every_ending();
        }
    }
    assert_eq!(mapped_regions(), before);
}

/// A process that overflows its stack dies on the guard page below it —
/// the whole host process with it, by `SIGSEGV` — instead of writing into
/// whatever is mapped underneath (usually the next process's stack).
#[test]
fn a_stack_overflow_faults_on_the_guard_page() {
    const SIGSEGV: i32 = 11;
    if let Some(status) = in_child("a_stack_overflow_faults_on_the_guard_page") {
        assert_eq!(status.signal(), Some(SIGSEGV), "the child ended with {status}");
        return;
    }
    #[allow(unconditional_recursion)]
    fn dive(depth: u64) -> u64 {
        let pad = black_box([depth as u8; 4096]);
        dive(depth + 1) + u64::from(black_box(pad)[7])
    }
    let mut sim = Sim::<u32>::new();
    sim.spawn("bystander", |ctx| ctx.sleep(Dur::from_micros(1)));
    sim.spawn("diver", |ctx| {
        ctx.sleep(Dur::from_micros(1))?;
        println!("{}", dive(0));
        Ok(())
    });
    let _ = sim.run();
    unreachable!("the overflow went unnoticed");
}
