//! The `lapd` admission [`Gate`]: a bounded number of concurrent query
//! executions, with a bounded wait for a permit.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A bounded admission gate: at most `permits` holders at a time, with a
/// **bounded** wait for admission — the back-pressure primitive of the
/// `lapd` query service. A session thread calls [`Gate::try_enter`]
/// before executing a query; when the gate stays full past the wait
/// budget the caller gets `None` and answers the client with a `quota`
/// error frame instead of hanging (the degradation contract of the
/// resilience layer, applied to admission).
///
/// Built on `Mutex` + `Condvar`: no async runtime, no dependencies,
/// fair enough for a daemon (waiters are woken together and race for the
/// freed permit; the wait budget bounds starvation by converting it into
/// an honest rejection).
#[derive(Debug)]
pub(crate) struct Gate {
    permits: usize,
    state: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    /// A gate admitting at most `permits` concurrent holders (min 1).
    pub(crate) fn new(permits: usize) -> Gate {
        Gate {
            permits: permits.max(1),
            state: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// The gate's capacity.
    pub(crate) fn permits(&self) -> usize {
        self.permits
    }

    /// Holders currently admitted.
    pub(crate) fn in_use(&self) -> usize {
        *self.state.lock().expect("gate mutex not poisoned")
    }

    /// Tries to enter the gate, waiting at most `wait` for a permit.
    /// Returns a guard that releases the permit on drop, or `None` when
    /// the gate stayed full for the whole budget.
    pub(crate) fn try_enter(&self, wait: Duration) -> Option<GateGuard<'_>> {
        let deadline = Instant::now() + wait;
        let mut used = self.state.lock().expect("gate mutex not poisoned");
        loop {
            if *used < self.permits {
                *used += 1;
                return Some(GateGuard { gate: self });
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, timeout) = self
                .freed
                .wait_timeout(used, deadline - now)
                .expect("gate mutex not poisoned");
            used = guard;
            if timeout.timed_out() && *used >= self.permits {
                return None;
            }
        }
    }

}

/// A held admission permit; dropping it frees the slot and wakes one
/// waiter.
#[derive(Debug)]
pub(crate) struct GateGuard<'a> {
    gate: &'a Gate,
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        let mut used = self.gate.state.lock().expect("gate mutex not poisoned");
        *used = used.saturating_sub(1);
        drop(used);
        self.gate.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_up_to_capacity_then_rejects_without_waiting() {
        let gate = Gate::new(2);
        let a = gate.try_enter(Duration::ZERO).expect("first permit");
        let _b = gate.try_enter(Duration::ZERO).expect("second permit");
        assert_eq!(gate.in_use(), 2);
        assert!(gate.try_enter(Duration::ZERO).is_none(), "third must be rejected");
        drop(a);
        assert!(gate.try_enter(Duration::ZERO).is_some(), "freed permit is reusable");
    }

    #[test]
    fn gate_bounded_wait_picks_up_a_freed_permit() {
        let gate = Gate::new(1);
        std::thread::scope(|scope| {
            let held = gate.try_enter(Duration::ZERO).expect("permit");
            let waiter = scope.spawn(|| gate.try_enter(Duration::from_secs(5)).is_some());
            // Give the waiter a moment to block, then free the permit.
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
            assert!(waiter.join().unwrap(), "waiter must get the freed permit");
        });
        assert_eq!(gate.in_use(), 0);
    }

    #[test]
    fn gate_full_past_budget_is_an_honest_rejection() {
        let gate = Gate::new(1);
        let _held = gate.try_enter(Duration::ZERO).expect("permit");
        let start = Instant::now();
        assert!(gate.try_enter(Duration::from_millis(30)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(25), "must have waited the budget");
        assert_eq!(gate.in_use(), 1, "rejection must not leak a permit");
    }

    #[test]
    fn gate_zero_permits_clamps_to_one() {
        let gate = Gate::new(0);
        assert_eq!(gate.permits(), 1);
        assert!(gate.try_enter(Duration::ZERO).is_some());
    }
}
