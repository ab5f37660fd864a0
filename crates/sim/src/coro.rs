//! Stackful coroutines: what a simulated process runs on.
//!
//! A [`Coroutine`] is a private stack plus the saved stack pointer of
//! whatever is suspended on it. [`switch`] saves the caller's callee-saved
//! registers on the caller's stack, parks its stack pointer in the
//! caller's [`Context`], and continues the target where *it* last called
//! `switch` — or, the first time, in the entry frame, which runs the body
//! and then leaves for the coroutine's `home` context for good. There is no
//! scheduler, no thread and no process-global state in here: every context
//! involved in one simulation lives on the OS thread that called
//! [`Sim::run`](crate::Sim::run), and control moves only where the
//! engine's duty protocol sends it.
//!
//! This is the one module of the crate with `unsafe` code and foreign
//! declarations (CI's `lint` job holds the rest of `src/` to that), so its
//! `pub(crate)` functions are safe to call and check what memory safety
//! rests on: a context is switched to only while it is suspended, each
//! saved stack pointer is used once, and what was suspended on one thread
//! is never continued on another (a stack may hold values that are not
//! `Send`). The engine never trips those checks: a `Sim` changes threads
//! only before `run` or `drop`, which run every coroutine to its end
//! before they return.
//!
//! # The stack
//!
//! [`STACK_SIZE`] (2 MiB, what std gives a spawned thread) from one
//! anonymous `mmap`, lazily committed, its lowest page `PROT_NONE`: Rust
//! probes every page of a large frame, so an overflow faults on the guard
//! instead of walking into the neighbouring mapping. The guard page is
//! *inside* the 2 MiB, so the writable part is one page short of a huge
//! page and transparent huge pages can never back it with one (which would
//! commit all of it on first touch). A stack is unmapped when its
//! `Coroutine` is dropped *and* the body has finished; one that still held
//! frames would be leaked instead (the engine never does that:
//! `crates/sim/tests/stacks.rs` counts `/proc/self/maps`).
//!
//! # Backtraces end at the entry frame
//!
//! `repseq_sim_coro_entry`, the frame every coroutine stack bottoms out in,
//! declares its return address undefined (`.cfi_undefined rip`), DWARF's
//! mark of the outermost frame: a panic backtrace, or the `SIGPROF` sampler
//! of `tools/prof/`, stops there instead of reading past the top of the
//! mapping, and the named symbol is that profile's root row.

use std::ffi::c_void;
use std::io;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "repseq-sim runs simulated processes as coroutines and has only an x86_64 Linux port. \
     To port it, write (1) the register switch and entry frame of crates/sim/src/coro.rs \
     (`repseq_sim_coro_switch`, `repseq_sim_coro_entry`, and the initial frame `Coroutine::new` \
     lays out for them) for the target's calling convention, and (2) the `mmap`/`mprotect`/\
     `munmap` constants and page size of its `Stack` for the target OS."
);

/// Bytes mapped per coroutine, guard page included.
const STACK_SIZE: usize = 2 << 20;
/// The x86_64 page size: the guard at the low end of every stack.
const GUARD_SIZE: usize = 4096;

// <sys/mman.h>, x86_64 Linux.
const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;
const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;

    /// Push the six callee-saved registers, store the stack pointer to
    /// `*save`, load `to` as the stack pointer, pop six registers, return.
    fn repseq_sim_coro_switch(save: *mut *mut u8, to: *mut u8);
    /// Where a fresh stack's first `ret` lands; only its address is used.
    fn repseq_sim_coro_entry();
}

// System V x86_64: rbp, rbx and r12–r15 are the callee-saved registers;
// everything else is dead across a call, which is what `switch` looks like
// to its caller. The x87 control word and MXCSR control bits are
// callee-saved too, but Rust code never changes them (doing so is
// undefined behaviour), so every context holds the same values and
// nothing needs saving. The CFI keeps a backtrace taken by a signal
// handler in mid-switch on the rails: until the stack pointer moves, the
// registers still hold the caller's values; after it, the target's are in
// its frame until popped.
std::arch::global_asm!(
    ".text",
    ".p2align 4",
    ".globl repseq_sim_coro_switch",
    ".hidden repseq_sim_coro_switch",
    ".type repseq_sim_coro_switch,@function",
    "repseq_sim_coro_switch:",
    ".cfi_startproc",
    "push rbp; .cfi_adjust_cfa_offset 8",
    "push rbx; .cfi_adjust_cfa_offset 8",
    "push r12; .cfi_adjust_cfa_offset 8",
    "push r13; .cfi_adjust_cfa_offset 8",
    "push r14; .cfi_adjust_cfa_offset 8",
    "push r15; .cfi_adjust_cfa_offset 8",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    ".cfi_offset rbp, -16; .cfi_offset rbx, -24; .cfi_offset r12, -32",
    ".cfi_offset r13, -40; .cfi_offset r14, -48; .cfi_offset r15, -56",
    "pop r15; .cfi_adjust_cfa_offset -8; .cfi_restore r15",
    "pop r14; .cfi_adjust_cfa_offset -8; .cfi_restore r14",
    "pop r13; .cfi_adjust_cfa_offset -8; .cfi_restore r13",
    "pop r12; .cfi_adjust_cfa_offset -8; .cfi_restore r12",
    "pop rbx; .cfi_adjust_cfa_offset -8; .cfi_restore rbx",
    "pop rbp; .cfi_adjust_cfa_offset -8; .cfi_restore rbp",
    "ret",
    ".cfi_endproc",
    ".size repseq_sim_coro_switch, . - repseq_sim_coro_switch",
    "",
    // Entered by the `ret` of the first switch to a fresh stack, with the
    // registers that switch popped from the frame `Coroutine::new` wrote:
    // r12 is the `*const Coroutine`. The stack pointer is 16-byte aligned
    // here, as the ABI wants it at a call.
    ".p2align 4",
    ".globl repseq_sim_coro_entry",
    ".hidden repseq_sim_coro_entry",
    ".type repseq_sim_coro_entry,@function",
    "repseq_sim_coro_entry:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "call {main}",
    "ud2",
    ".cfi_endproc",
    ".size repseq_sim_coro_entry, . - repseq_sim_coro_entry",
    main = sym coroutine_main,
);

/// Words in the frame `repseq_sim_coro_switch` pops: r15, r14, r13, r12,
/// rbx, rbp, return address.
const FRAME_WORDS: usize = 7;
/// Index of r12 in that frame.
const FRAME_R12: usize = 3;
/// Index of the return address.
const FRAME_RET: usize = 6;

/// A 2 MiB mapping with a guard page at its low end.
struct Stack {
    base: NonNull<u8>,
}

// SAFETY: `base` is the address of an anonymous private mapping this value
// owns; a mapping belongs to the process, not to the thread that made it,
// and `Stack` has no method that reads or writes through `&self`.
unsafe impl Send for Stack {}
// SAFETY: as above — `&Stack` gives access to nothing.
unsafe impl Sync for Stack {}

impl Stack {
    fn map() -> io::Result<Stack> {
        // SAFETY: a fresh anonymous mapping at an address of the kernel's
        // choosing aliases nothing; the arguments are valid for `mmap`.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                STACK_SIZE,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base == MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        let stack = Stack { base: NonNull::new(base.cast()).expect("mmap returned null") };
        // SAFETY: the first page of the mapping just made, which nothing
        // uses yet. On failure `stack` is dropped and the mapping with it.
        if unsafe { mprotect(base, GUARD_SIZE, PROT_NONE) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(stack)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: exactly the mapping made in `map`; `Coroutine::drop` lets
        // this run only when no frame is left on it. (Unmapping a whole
        // mapping has no way to fail that a destructor could act on.)
        unsafe { munmap(self.base.as_ptr().cast(), STACK_SIZE) };
    }
}

thread_local! {
    /// Its address names the running thread (cheaper than `thread::current`).
    static THREAD: u8 = const { 0 };
}

fn this_thread() -> usize {
    THREAD.with(|t| t as *const u8 as usize)
}

/// Where a suspended flow of control is saved: its stack pointer, below
/// which `repseq_sim_coro_switch` pushed its registers. Null while the
/// owner is running — and for good once it has finished — so a context can
/// be switched to exactly once per suspension.
///
/// The fields are atomics only to be `Sync` without an `unsafe impl`: the
/// duty protocol never has two threads near one context, so every access
/// is `Relaxed`.
pub(crate) struct Context {
    sp: AtomicPtr<u8>,
    /// The thread that suspended here; 0 for a coroutine that has not
    /// started (it may start anywhere: its body is `Send`).
    thread: AtomicUsize,
}

impl Context {
    /// The context of code that is running now and was never suspended:
    /// what the caller of [`Sim::run`](crate::Sim::run) switches *from*.
    pub(crate) fn running() -> Context {
        Context::new(ptr::null_mut())
    }

    fn new(sp: *mut u8) -> Context {
        Context { sp: AtomicPtr::new(sp), thread: AtomicUsize::new(0) }
    }

    /// Take the saved stack pointer, leaving the context marked running.
    /// Memory safety rests on the two checks: a null or already-consumed
    /// stack pointer must never reach the switch, nor frames that belong
    /// to another thread.
    fn take(&self, here: usize) -> *mut u8 {
        let sp = self.sp.load(Ordering::Relaxed);
        assert!(!sp.is_null(), "switch to a context that is not suspended");
        let suspended_on = self.thread.load(Ordering::Relaxed);
        assert!(suspended_on == 0 || suspended_on == here, "switch to another thread's context");
        self.sp.store(ptr::null_mut(), Ordering::Relaxed);
        sp
    }
}

/// Suspend the running code into `from` and continue `to`. Returns when
/// something switches back to `from`.
///
/// `from` must be the caller's own context (the engine passes the running
/// process's, or the coordinator's); `to` must be suspended, which is
/// checked.
pub(crate) fn switch(from: &Context, to: &Context) {
    debug_assert!(from.sp.load(Ordering::Relaxed).is_null(), "switch from a suspended context");
    let here = this_thread();
    let sp = to.take(here);
    from.thread.store(here, Ordering::Relaxed);
    // SAFETY: `sp` was stored by this very call on another stack, or laid
    // out by `Coroutine::new`, and `take` hands each such value out once,
    // so it points at a seven-word switch frame that is still in place, on
    // a stack this thread suspended or nobody has run on yet. That stack is
    // mapped: a coroutine's is unmapped only once its body has finished
    // (`Coroutine::drop`), and a context that is not a coroutine's is the
    // stack of a caller suspended right here. `from.sp` is a valid place
    // for the write. The asm preserves every callee-saved register for
    // this caller and clobbers only what a C call may.
    unsafe { repseq_sim_coro_switch(from.sp.as_ptr(), sp) };
}

/// What a coroutine runs: called once, on the coroutine's stack, with a
/// handle to the coroutine itself (whose [`context`](Coroutine::context)
/// is what the body switches *from*). It must not unwind (the engine's
/// bodies catch their process's panic).
type Body = Box<dyn FnOnce(Arc<Coroutine>) + Send>;

/// A body and the stack it runs on.
pub(crate) struct Coroutine {
    context: Context,
    /// Where the coroutine goes when its body is done.
    home: Arc<Context>,
    /// Taken by the entry frame.
    body: Mutex<Option<Body>>,
    /// The body has returned: no frame on `stack` will run again.
    finished: AtomicBool,
    stack: Option<Stack>,
}

impl Coroutine {
    /// Map a stack and prepare `body` to start on it at the first
    /// [`switch`] to [`context`](Self::context). When `body` returns the
    /// coroutine switches to `home` and is never resumed. Panics if the
    /// stack cannot be mapped.
    ///
    /// A coroutine that is never switched to never drops `body`, and one
    /// that is dropped before its body has finished leaks its stack: the
    /// engine enters every coroutine it made and runs it to its end.
    pub(crate) fn new(
        home: Arc<Context>,
        body: impl FnOnce(Arc<Coroutine>) + Send + 'static,
    ) -> Arc<Coroutine> {
        let stack = Stack::map().expect("failed to map a coroutine stack");
        // At the top (page-aligned) with 16 bytes to spare, so that the
        // stack pointer is 16-byte aligned once the frame is popped and
        // the entry runs.
        // SAFETY: `FRAME_WORDS + 2` words below the end of the 2 MiB
        // mapping are inside its writable part, and 8-byte aligned.
        let frame =
            unsafe { stack.base.as_ptr().add(STACK_SIZE).cast::<usize>().sub(FRAME_WORDS + 2) };
        let co = Arc::new(Coroutine {
            context: Context::new(frame.cast()),
            home,
            body: Mutex::new(Some(Box::new(body))),
            finished: AtomicBool::new(false),
            stack: Some(stack),
        });
        // SAFETY: inside the frame (above); nothing else points into the
        // fresh mapping. Every other word of the frame is zero as mapped,
        // rbp included, which ends a frame-pointer walk. The `Arc`'s
        // address is stable and outlives every run of the entry frame (see
        // `coroutine_main`).
        unsafe {
            frame.add(FRAME_R12).write(Arc::as_ptr(&co) as usize);
            frame.add(FRAME_RET).write(repseq_sim_coro_entry as *const () as usize);
        }
        co
    }

    /// The context to [`switch`] to (and, from inside the body, from).
    pub(crate) fn context(&self) -> &Context {
        &self.context
    }

    /// The context this coroutine leaves for when its body is done.
    pub(crate) fn home(&self) -> &Context {
        &self.home
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        if !*self.finished.get_mut() {
            // Frames whose destructors have not run may still be on the
            // stack: leaking the mapping is the only sound thing left to
            // do with it.
            std::mem::forget(self.stack.take());
        }
    }
}

/// The Rust half of the entry frame: run the body, then leave for good.
extern "C" fn coroutine_main(co: *const Coroutine) -> ! {
    // SAFETY: `co` is the `Arc`'s own pointer, written by `Coroutine::new`.
    // This code runs only inside a chain of `switch` calls that began with
    // one given a `&Context` borrowed from that `Arc`'s `Coroutine`; that
    // caller is suspended in its call, borrow alive, until this coroutine
    // (or one further down the chain) switches back to it. The count is
    // raised for the second owner `from_raw` creates.
    let (co, me) = unsafe {
        Arc::increment_strong_count(co);
        (&*co, Arc::from_raw(co))
    };
    let body = co.body.lock().take().expect("a coroutine is entered once");
    // An unwind out of `body` would abort here: this is an `extern "C"` fn.
    body(me);
    // Nothing owned is alive in this frame any more (`body` and `me` were
    // consumed by the call): it is abandoned, not returned from, so nothing
    // in it would ever be dropped.
    co.finished.store(true, Ordering::Relaxed);
    let home = co.home.take(this_thread());
    let mut abandoned = ptr::null_mut();
    // SAFETY: as in `switch`; the stack pointer saved into `abandoned` is
    // never used, so this frame is never resumed, and the mapping under it
    // stays until `Coroutine::drop` runs on some other stack.
    unsafe { repseq_sim_coro_switch(&mut abandoned, home) };
    unreachable!("a finished coroutine was resumed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A coroutine that switches home once in mid-body, then finishes.
    fn two_step(home: &Arc<Context>, steps: &Arc<AtomicUsize>) -> Arc<Coroutine> {
        let steps = Arc::clone(steps);
        Coroutine::new(Arc::clone(home), move |me| {
            steps.fetch_add(1, Ordering::SeqCst);
            switch(me.context(), me.home());
            steps.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn a_context_is_switched_to_only_while_suspended() {
        let home = Arc::new(Context::running());
        let steps = Arc::new(AtomicUsize::new(0));
        let co = two_step(&home, &steps);
        switch(&home, co.context());
        switch(&home, co.context());
        assert_eq!(steps.load(Ordering::SeqCst), 2);
        // Finished: nothing is suspended there any more. Nor in `home`,
        // which is running.
        for dead in [co.context(), &*home] {
            let spare = Context::running();
            let err = catch_unwind(AssertUnwindSafe(|| switch(&spare, dead))).unwrap_err();
            assert!(err.downcast_ref::<&str>().unwrap().contains("not suspended"));
        }
    }

    #[test]
    fn what_one_thread_suspended_another_cannot_continue() {
        let home = Arc::new(Context::running());
        let steps = Arc::new(AtomicUsize::new(0));
        let co = two_step(&home, &steps);
        switch(&home, co.context());
        assert_eq!(steps.load(Ordering::SeqCst), 1);
        // As if another thread had suspended it (no address is 1): refused,
        // and nothing ran. (`resume.rs` builds a `Sim` here and runs it
        // there, which is fine: nothing had been suspended yet.)
        let suspended_on = co.context().thread.swap(1, Ordering::Relaxed);
        let err = catch_unwind(AssertUnwindSafe(|| switch(&home, co.context()))).unwrap_err();
        assert!(err.downcast_ref::<&str>().unwrap().contains("another thread"));
        assert_eq!(steps.load(Ordering::SeqCst), 1);
        co.context().thread.store(suspended_on, Ordering::Relaxed);
        switch(&home, co.context());
        assert_eq!(steps.load(Ordering::SeqCst), 2);
    }
}
