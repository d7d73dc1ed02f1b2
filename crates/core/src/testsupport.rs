//! Shared test-support helpers: watchdogs, deadline polling, and the
//! timing lock.
//!
//! Several integration suites exercise code that *parks threads* —
//! bounded-capacity submitters, `wait_on` waiters, service drains — so a
//! regression shows up as a hang, not a failure. Each of those suites
//! used to carry its own copy of a watchdog helper (and its own ad-hoc
//! sleep loops for cross-thread rendezvous); this module is the one
//! blessed implementation. It is a normal public module (not
//! `cfg(test)`) so downstream crates' integration tests can use it, but
//! it has no place in production code paths.

use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serialize wall-clock timing gates within one test binary.
///
/// The test harness runs a binary's tests on parallel threads, so two
/// gates that each time a multi-threaded workload would otherwise time
/// each other: on a 2-CPU host the second gate's workers steal the
/// first gate's cores mid-measurement. Every test that asserts a
/// wall-clock bound holds the returned guard for its whole body.
/// Gates in different binaries already run one binary at a time.
///
/// A gate that fails panics while holding the guard; the lock shrugs
/// off that poisoning so the remaining gates still run and report.
pub fn timing_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `f` on its own thread and fail loudly if it does not complete in
/// `secs` — a parked submitter (or waiter, or drain) that never resumes
/// would otherwise hang the whole test binary forever.
///
/// If `f` panics, the panic is re-raised on the calling thread via the
/// join, so assertion failures inside `f` surface normally.
///
/// # Panics
///
/// Panics with `name` in the message when the watchdog expires, and
/// re-raises any panic from `f`.
pub fn with_watchdog(secs: u64, name: impl Into<String>, f: impl FnOnce() + Send + 'static) {
    let name = name.into();
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let h = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        // Completed (or panicked — resume the original payload so the
        // inner assertion message survives, not `Any { .. }`).
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{name}: watchdog expired — the exercised path deadlocked")
        }
    }
}

/// Poll `cond` until it returns `true`, panicking with `what` in the
/// message if `timeout` elapses first. The deterministic replacement
/// for bare `sleep`-and-hope waits: the condition is re-checked on a
/// short backoff (spin-yield first, then millisecond sleeps), so tests
/// proceed the moment the state they wait for becomes visible instead
/// of a hard-coded nap later.
///
/// # Panics
///
/// Panics when `timeout` elapses with `cond` still false.
pub fn wait_until(timeout: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    let mut spins = 0u32;
    while !cond() {
        assert!(
            Instant::now() < deadline,
            "timed out after {timeout:?} waiting for {what}"
        );
        // Yield while the condition is likely racing a running thread;
        // back off to real sleeps if it is taking longer (e.g. the OS
        // reaping exited threads).
        if spins < 1000 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
        spins += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn watchdog_passes_fast_closures_through() {
        with_watchdog(30, "trivial", || {});
    }

    #[test]
    #[should_panic(expected = "watchdog expired")]
    fn watchdog_fires_on_a_wedged_closure() {
        // The wedged thread leaks past the panic; that is the point of
        // the watchdog — the test *binary* survives a deadlocked path.
        let (_tx, rx) = std::sync::mpsc::channel::<()>();
        with_watchdog(1, "wedged", move || {
            let _ = rx.recv();
        });
    }

    #[test]
    #[should_panic(expected = "inner assertion")]
    fn watchdog_reraises_inner_panics() {
        with_watchdog(30, "panicking", || panic!("inner assertion"));
    }

    #[test]
    fn wait_until_observes_a_flag_set_by_another_thread() {
        let flag = Arc::new(AtomicBool::new(false));
        let setter = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || flag.store(true, Ordering::Release))
        };
        wait_until(Duration::from_secs(30), "flag set", || {
            flag.load(Ordering::Acquire)
        });
        setter.join().unwrap();
    }

    #[test]
    fn timing_lock_survives_a_panicking_holder() {
        let held = std::thread::spawn(|| {
            let _guard = timing_lock();
            panic!("a failing gate");
        });
        assert!(held.join().is_err());
        drop(timing_lock());
    }

    #[test]
    #[should_panic(expected = "timed out")]
    fn wait_until_panics_past_the_deadline() {
        wait_until(Duration::from_millis(20), "never", || false);
    }
}
