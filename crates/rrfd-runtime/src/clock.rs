//! A shared round clock: lets observers outside the computation watch a
//! threaded run's progress without participating in it.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

#[derive(Debug, Default)]
struct ClockState {
    round: u32,
    finished: bool,
}

/// A monotonically advancing round counter shared between the coordinator
/// thread and any number of observers.
///
/// # Examples
///
/// ```
/// use rrfd_runtime::RoundClock;
/// let clock = RoundClock::new();
/// let observer = clock.clone();
/// clock.advance(1);
/// assert_eq!(observer.current_round(), 1);
/// clock.finish();
/// assert!(observer.wait_finished(std::time::Duration::from_secs(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoundClock {
    inner: Arc<(Mutex<ClockState>, Condvar)>,
}

impl RoundClock {
    /// Creates a clock at round 0 (no round completed yet).
    #[must_use]
    pub fn new() -> Self {
        RoundClock::default()
    }

    /// Locks the clock state. The state is two plain fields that every
    /// critical section leaves consistent, so a poisoned lock is safe to
    /// recover.
    fn state(&self) -> MutexGuard<'_, ClockState> {
        self.inner.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks while `pending` holds for the clock state, for at most
    /// `timeout` in total, and returns the state it stopped at.
    fn wait_while(
        &self,
        timeout: Duration,
        pending: impl FnMut(&mut ClockState) -> bool,
    ) -> MutexGuard<'_, ClockState> {
        let (state, _) = self
            .inner
            .1
            .wait_timeout_while(self.state(), timeout, pending)
            .unwrap_or_else(PoisonError::into_inner);
        state
    }

    /// The last completed round (0 before the first round completes).
    #[must_use]
    pub fn current_round(&self) -> u32 {
        self.state().round
    }

    /// `true` once the run has finished.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.state().finished
    }

    /// Marks round `round` as completed and wakes waiters.
    pub fn advance(&self, round: u32) {
        let mut state = self.state();
        state.round = state.round.max(round);
        self.inner.1.notify_all();
    }

    /// Marks the run as finished and wakes waiters.
    pub fn finish(&self) {
        let mut state = self.state();
        state.finished = true;
        self.inner.1.notify_all();
    }

    /// Blocks until at least `round` has completed, or `timeout` elapses.
    /// Returns `true` when the round was reached.
    #[must_use]
    pub fn wait_for_round(&self, round: u32, timeout: Duration) -> bool {
        self.wait_while(timeout, |s| s.round < round && !s.finished)
            .round
            >= round
    }

    /// Blocks until the run finishes, or `timeout` elapses. Returns `true`
    /// when finished.
    #[must_use]
    pub fn wait_finished(&self, timeout: Duration) -> bool {
        self.wait_while(timeout, |s| !s.finished).finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn starts_at_zero_unfinished() {
        let clock = RoundClock::new();
        assert_eq!(clock.current_round(), 0);
        assert!(!clock.is_finished());
    }

    #[test]
    fn advance_is_monotone() {
        let clock = RoundClock::new();
        clock.advance(5);
        clock.advance(3);
        assert_eq!(clock.current_round(), 5);
    }

    #[test]
    fn waiters_wake_on_advance() {
        let clock = RoundClock::new();
        let observer = clock.clone();
        let handle = thread::spawn(move || observer.wait_for_round(2, Duration::from_secs(5)));
        clock.advance(1);
        clock.advance(2);
        assert!(handle.join().unwrap());
    }

    #[test]
    fn wait_for_round_times_out() {
        let clock = RoundClock::new();
        assert!(!clock.wait_for_round(1, Duration::from_millis(20)));
    }

    #[test]
    fn finish_unblocks_everyone() {
        let clock = RoundClock::new();
        let observer = clock.clone();
        let handle = thread::spawn(move || observer.wait_finished(Duration::from_secs(5)));
        clock.finish();
        assert!(handle.join().unwrap());
        // A round-waiter past the end sees "not reached" but returns.
        assert!(!clock.wait_for_round(9, Duration::from_millis(50)));
    }
}
