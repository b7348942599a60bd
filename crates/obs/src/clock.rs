//! Injectable time: a [`Clock`] trait with a real monotonic
//! implementation for production and a manually driven one for tests.
//!
//! Every duration the observability layer records flows through a
//! `Clock`, so a test can replace wall time with a counter it controls
//! and every latency histogram, span, and busy/idle split becomes a
//! deterministic function of the test script — replayable from a seed,
//! assertable to the microsecond (see docs/TESTING.md).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A source of monotonic microseconds. Implementations must be
/// `Send + Sync` (clocks are shared across host worker threads) and
/// must never go backwards.
pub trait Clock: std::fmt::Debug + Send + Sync {
    /// Microseconds since an arbitrary (per-clock) epoch.
    fn now_us(&self) -> u64;
}

/// The production clock: [`Instant`]-based monotonic microseconds since
/// the clock was created.
#[derive(Debug)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A test clock driven by hand: time moves only when the test says so.
///
/// Two modes compose:
/// * [`ManualClock::advance_us`] moves time explicitly;
/// * a non-zero `auto_step` (see [`ManualClock::with_auto_step`])
///   additionally advances time by a fixed amount on *every read*, so
///   code that brackets work with two `now_us` calls measures exactly
///   `auto_step` µs — deterministic non-zero durations with no test
///   choreography.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
    auto_step: u64,
}

impl ManualClock {
    /// A clock frozen at 0 µs.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// A clock that advances by `step_us` on every [`Clock::now_us`]
    /// read (after returning the pre-advance value).
    pub fn with_auto_step(step_us: u64) -> Self {
        ManualClock {
            now: AtomicU64::new(0),
            auto_step: step_us,
        }
    }

    /// Move time forward by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.now.fetch_add(us, Ordering::AcqRel);
    }

    /// Convenience: the clock wrapped for sharing.
    pub fn shared(self) -> Arc<ManualClock> {
        Arc::new(self)
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        if self.auto_step == 0 {
            self.now.load(Ordering::Acquire)
        } else {
            self.now.fetch_add(self.auto_step, Ordering::AcqRel)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let clock = MonotonicClock::new();
        let a = clock.now_us();
        let b = clock.now_us();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_when_told() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_us(), 0);
        assert_eq!(clock.now_us(), 0);
        clock.advance_us(250);
        assert_eq!(clock.now_us(), 250);
    }

    #[test]
    fn auto_step_clock_measures_fixed_durations() {
        let clock = ManualClock::with_auto_step(7);
        let start = clock.now_us();
        let end = clock.now_us();
        assert_eq!(end - start, 7, "one bracketed read pair = one step");
        clock.advance_us(100);
        assert_eq!(clock.now_us(), 14 + 100);
    }
}
