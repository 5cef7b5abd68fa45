//! Signal-driven graceful shutdown.
//!
//! Installs minimal SIGINT/SIGTERM handlers whose only effect is one
//! atomic store into a process-wide flag — the sole async-signal-safe
//! operation the drain path needs. [`Server::run`]'s drain gate, which
//! wakes every tick anyway, polls the flag and sets the server's own
//! shutdown flag, so a signal triggers the same drain a protocol
//! `shutdown` request does; the serving binary runs no watcher thread
//! of its own.
//!
//! [`Server::run`]: crate::Server::run

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; polled by the server's drain gate.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown signal (SIGINT/SIGTERM) has been delivered since
/// [`install_signal_shutdown`] ran.
pub fn signal_shutdown_flag() -> bool {
    SHUTDOWN.load(Ordering::Acquire)
}

/// Installs the SIGINT/SIGTERM handlers. Idempotent; a no-op on
/// non-Unix targets (ctrl-c then terminates the process, losing only
/// the drain).
pub fn install_signal_shutdown() {
    sys::install();
}

#[cfg(unix)]
mod sys {
    // The only unsafe in the workspace: registering a handler via the
    // C `signal` entry point (std offers no stable API for this, and
    // the crate must stay dependency-free).
    #![allow(unsafe_code)]

    use std::sync::atomic::Ordering;

    use super::SHUTDOWN;

    /// The handler body is a single atomic store — async-signal-safe.
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::Release);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is registered with a handler that performs
        // only an atomic store, which is async-signal-safe; the
        // function pointer outlives the process (it is a static item).
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    pub fn install() {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear_and_install_is_idempotent() {
        install_signal_shutdown();
        install_signal_shutdown();
        // No signal has been delivered in this test process (the flag
        // is process-global, so this also documents that tests must
        // not raise SIGINT/SIGTERM at themselves).
        assert!(!signal_shutdown_flag());
    }
}
