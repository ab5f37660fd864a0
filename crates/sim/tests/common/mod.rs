//! Shared by the integration tests that can hang instead of fail.

use std::sync::mpsc;
use std::time::Duration;

/// Run `f` on its own thread and fail if it has not finished in `secs`.
pub fn watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => {
            worker.join().expect("worker finished cleanly");
            v
        }
        // The worker hung up without a value: it panicked; surface that.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("worker dropped its sender"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("no result after {secs} s: a wake-up was lost")
        }
    }
}
