//! Stackful coroutines: what a simulated process runs on.
//!
//! A [`Coroutine`] is a private stack plus the saved stack pointers of
//! whatever is suspended on it and of whoever resumed it. A switch saves
//! the caller's callee-saved registers on the caller's stack, parks its
//! stack pointer in the caller's [`Context`], and continues the target
//! where *it* last switched — or, the first time, in the entry frame,
//! which runs the body and then leaves for good. Every switch carries one
//! value: [`Coroutine::resume`] hands the coroutine a `D` and gets back a
//! `U`, [`Coroutine::suspend`] hands its resumer a `U` and gets back the
//! next `D`, and the body's return value is its last `U`. The values are
//! owned, so nothing the two sides exchange is borrowed across a switch:
//! each side gives up what it sends and owns what it receives. There is
//! no scheduler, no thread and no process-global state in here: every
//! context involved in one simulation lives on the OS thread that called
//! [`Sim::run`](crate::Sim::run), and control moves only where the
//! engine's coordinator sends it.
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
use std::mem::ManuallyDrop;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

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
    /// `*save`, load `to` as the stack pointer, pop six registers, return
    /// `value` — on the other side, where the switch that suspended `to`
    /// returns it.
    fn repseq_sim_coro_switch(save: *mut *mut u8, to: *mut u8, value: *mut u8) -> *mut u8;
    /// Where a fresh stack's first `ret` lands; only its address is used.
    fn repseq_sim_coro_entry();
}

// System V x86_64: rbp, rbx and r12–r15 are the callee-saved registers;
// everything else is dead across a call, which is what `switch` looks like
// to its caller. `value` travels in rdx, which nothing in between touches,
// and leaves in rax. The x87 control word and MXCSR control bits are
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
    "mov rax, rdx",
    "ret",
    ".cfi_endproc",
    ".size repseq_sim_coro_switch, . - repseq_sim_coro_switch",
    "",
    // Entered by the `ret` of the first switch to a fresh stack, with the
    // registers that switch popped from the frame `Coroutine::new` wrote:
    // r12 is the `*const Coroutine`, r13 its `coroutine_main`, and rdx
    // still the switch's value. The stack pointer is 16-byte aligned here,
    // as the ABI wants it at a call.
    ".p2align 4",
    ".globl repseq_sim_coro_entry",
    ".hidden repseq_sim_coro_entry",
    ".type repseq_sim_coro_entry,@function",
    "repseq_sim_coro_entry:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "mov rsi, rdx",
    "call r13",
    "ud2",
    ".cfi_endproc",
    ".size repseq_sim_coro_entry, . - repseq_sim_coro_entry",
);

/// Words in the frame `repseq_sim_coro_switch` pops: r15, r14, r13, r12,
/// rbx, rbp, return address.
const FRAME_WORDS: usize = 7;
/// Index of r13 in that frame.
const FRAME_R13: usize = 2;
/// Index of r12.
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
/// The fields are atomics only to be `Sync` without an `unsafe impl`:
/// one thread runs a whole simulation, so every access is `Relaxed`.
struct Context {
    sp: AtomicPtr<u8>,
    /// The thread that suspended here; 0 for a coroutine that has not
    /// started (it may start anywhere: its body is `Send`).
    thread: AtomicUsize,
}

impl Context {
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

/// Suspend the running code into `from`, continue `to` and hand it
/// `value`; returns the value of whatever switches back to `from`.
///
/// `from` must be the caller's own context and `to` must be suspended,
/// which is checked before anything moves. The caller names `R`, so the
/// two sides of every suspension must agree on the types that cross it:
/// [`Coroutine::resume`] and [`Coroutine::suspend`] (and the entry frame)
/// are the only callers, each sending what the other receives.
fn switch<T, R>(from: &Context, to: &Context, value: T) -> R {
    let here = this_thread();
    let sp = to.take(here);
    debug_assert!(from.sp.load(Ordering::Relaxed).is_null(), "switch from a suspended context");
    from.thread.store(here, Ordering::Relaxed);
    let mut value = ManuallyDrop::new(value);
    // SAFETY: `sp` was stored by this very call on another stack, or laid
    // out by `Coroutine::new`, and `take` hands each such value out once,
    // so it points at a seven-word switch frame that is still in place, on
    // a stack this thread suspended or nobody has run on yet. That stack is
    // mapped: a coroutine's is unmapped only once its body has finished
    // (`Coroutine::drop`), and a context that is not a coroutine's is the
    // stack of a caller suspended right here. `from.sp` is a valid place
    // for the write. The asm preserves every callee-saved register for
    // this caller and clobbers only what a C call may.
    let got =
        unsafe { repseq_sim_coro_switch(from.sp.as_ptr(), sp, ptr::addr_of_mut!(value).cast()) };
    // SAFETY: `got` is the `value` of the switch that continued this one,
    // a `ManuallyDrop<R>` in the frame of a caller that is now suspended
    // in that switch and cannot run — nor its frame go — before something
    // switches back to it, which is after this read. Its owner never
    // touches it again, so the read moves it here.
    ManuallyDrop::into_inner(unsafe { got.cast::<ManuallyDrop<R>>().read() })
}

/// What a coroutine runs: called once, on the coroutine's stack, with a
/// handle to the coroutine itself (what the body [`suspend`]s through) and
/// the first [`resume`]'s value; what it returns goes to the last one. It
/// must not unwind (the engine's bodies catch their process's panic).
///
/// [`resume`]: Coroutine::resume
/// [`suspend`]: Coroutine::suspend
type Body<D, U> = Box<dyn FnOnce(Arc<Coroutine<D, U>>, D) -> U + Send>;

/// A body and the stack it runs on; it is resumed with `D`s and suspends
/// with `U`s.
pub(crate) struct Coroutine<D, U> {
    context: Context,
    /// Whoever resumed it, suspended in `resume` while it runs.
    caller: Context,
    /// Taken by the entry frame.
    body: Mutex<Option<Body<D, U>>>,
    /// The body has returned: no frame on `stack` will run again.
    finished: AtomicBool,
    stack: Option<Stack>,
}

impl<D, U> Coroutine<D, U> {
    /// Map a stack and prepare `body` to start on it at the first
    /// [`resume`](Self::resume). Panics if the stack cannot be mapped.
    ///
    /// A coroutine that is never resumed never drops `body`, and one that
    /// is dropped before its body has finished leaks its stack: the
    /// engine resumes every coroutine it made until it finishes.
    pub(crate) fn new(
        body: impl FnOnce(Arc<Coroutine<D, U>>, D) -> U + Send + 'static,
    ) -> Arc<Coroutine<D, U>> {
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
            caller: Context::new(ptr::null_mut()),
            body: Mutex::new(Some(Box::new(body) as Body<D, U>)),
            finished: AtomicBool::new(false),
            stack: Some(stack),
        });
        let main: extern "C" fn(*const Coroutine<D, U>, *mut u8) -> ! = coroutine_main::<D, U>;
        // SAFETY: inside the frame (above); nothing else points into the
        // fresh mapping. Every other word of the frame is zero as mapped,
        // rbp included, which ends a frame-pointer walk. The `Arc`'s
        // address is stable and outlives every run of the entry frame (see
        // `coroutine_main`), and `main` is the entry for exactly this `D`
        // and `U`.
        unsafe {
            frame.add(FRAME_R12).write(Arc::as_ptr(&co) as usize);
            frame.add(FRAME_R13).write(main as usize);
            frame.add(FRAME_RET).write(repseq_sim_coro_entry as *const () as usize);
        }
        co
    }

    /// Continue the coroutine — start it, the first time — handing it
    /// `value`, and return what it hands back: a [`suspend`]'s value, or
    /// its body's result. Panics, having run nothing, if the coroutine is
    /// running, has finished, or was suspended on another thread.
    ///
    /// [`suspend`]: Self::suspend
    pub(crate) fn resume(&self, value: D) -> U {
        switch(&self.caller, &self.context, value)
    }

    /// From inside the body: switch back to whoever resumed the coroutine,
    /// handing it `value`, and return the value of the next
    /// [`resume`](Self::resume). Panics, having run nothing, unless called
    /// on the coroutine's own stack while it runs.
    pub(crate) fn suspend(&self, value: U) -> D {
        switch(&self.context, &self.caller, value)
    }
}

impl<D, U> Drop for Coroutine<D, U> {
    fn drop(&mut self) {
        if !*self.finished.get_mut() {
            // Frames whose destructors have not run may still be on the
            // stack: leaking the mapping is the only sound thing left to
            // do with it.
            std::mem::forget(self.stack.take());
        }
    }
}

/// The Rust half of the entry frame: take the first value, run the body,
/// then leave for good with its result.
extern "C" fn coroutine_main<D, U>(co: *const Coroutine<D, U>, first: *mut u8) -> ! {
    // SAFETY: `co` is the `Arc`'s own pointer, written by `Coroutine::new`.
    // This code runs only inside a chain of switches that began with a
    // `resume` borrowing that `Arc`'s `Coroutine`; that caller is
    // suspended in its call, borrow alive, until this coroutine (or one
    // further down the chain) switches back to it. The count is raised for
    // the second owner `from_raw` creates. `first` is the `ManuallyDrop<D>`
    // of that `resume`, read once, as `switch` reads one.
    let (co, me, first) = unsafe {
        Arc::increment_strong_count(co);
        (&*co, Arc::from_raw(co), first.cast::<ManuallyDrop<D>>().read())
    };
    let body = co
        .body
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
        .expect("a coroutine is entered once");
    // An unwind out of `body` would abort here: this is an `extern "C" fn`.
    let mut last = ManuallyDrop::new(body(me, ManuallyDrop::into_inner(first)));
    // Nothing owned is alive in this frame any more but `last`, which the
    // resumer moves out (`body` and `me` were consumed by the call): the
    // frame is abandoned, not returned from, so nothing in it would ever
    // be dropped.
    co.finished.store(true, Ordering::Relaxed);
    let caller = co.caller.take(this_thread());
    let mut abandoned = ptr::null_mut();
    // SAFETY: as in `switch`; the stack pointer saved into `abandoned` is
    // never used, so this frame is never resumed, and the mapping under it
    // — with `last` in it, which the resumer reads at once — stays until
    // `Coroutine::drop` runs on some other stack.
    unsafe { repseq_sim_coro_switch(&mut abandoned, caller, ptr::addr_of_mut!(last).cast()) };
    unreachable!("a finished coroutine was resumed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A coroutine that adds what it is resumed with: it suspends with the
    /// first value doubled, then finishes with the sum of both.
    fn two_step() -> Arc<Coroutine<u64, u64>> {
        Coroutine::new(|me, first| {
            let second = me.suspend(2 * first);
            first + second
        })
    }

    #[test]
    fn a_context_is_switched_to_only_while_suspended() {
        let co = two_step();
        assert_eq!(co.resume(5), 10);
        assert_eq!(co.resume(7), 12);
        // Finished: nothing is suspended there any more.
        let err = catch_unwind(AssertUnwindSafe(|| co.resume(1))).unwrap_err();
        assert!(err.downcast_ref::<&str>().unwrap().contains("not suspended"));
        // Nor in a coroutine that is running: it cannot resume itself.
        let selfish: Arc<Coroutine<(), bool>> = Coroutine::new(|me, ()| {
            catch_unwind(AssertUnwindSafe(|| me.resume(()))).is_err_and(|err| {
                err.downcast_ref::<&str>().is_some_and(|m| m.contains("not suspended"))
            })
        });
        assert!(selfish.resume(()));
    }

    #[test]
    fn what_one_thread_suspended_another_cannot_continue() {
        let co = two_step();
        assert_eq!(co.resume(5), 10);
        // As if another thread had suspended it (no address is 1): refused,
        // and nothing ran. (`resume.rs` builds a `Sim` here and runs it
        // there, which is fine: nothing had been suspended yet.)
        let suspended_on = co.context.thread.swap(1, Ordering::Relaxed);
        let err = catch_unwind(AssertUnwindSafe(|| co.resume(7))).unwrap_err();
        assert!(err.downcast_ref::<&str>().unwrap().contains("another thread"));
        co.context.thread.store(suspended_on, Ordering::Relaxed);
        assert_eq!(co.resume(7), 12);
    }
}
