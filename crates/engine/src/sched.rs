//! Scheduling primitives: the adversarial completion order of the
//! interleaving suite, and the `lapd` admission [`Gate`].
//!
//! Overlapped source I/O is an accounting fact, not a threading one: the
//! registry schedules a batch's wire waits over `io_workers` lanes of its
//! virtual clock, and runs the row transfers inline on the calling thread
//! in issue order. Because every order-sensitive decision is planned
//! before any transfer runs, the order the transfers take cannot leak
//! into a run. [`adversarial_order`] is how the interleaving suite proves
//! it: a seeded permutation of the issue indices that the registry's one
//! dispatch loop walks instead of `0..n`. Sweeping seeds simulates every
//! way in-flight calls could land; a correct merge must produce
//! byte-identical output for all of them.

use lap_prng::StdRng;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A seeded permutation of `0..n` (Fisher–Yates over the issue indices):
/// the order the adversarial scheduler of the interleaving suite runs a
/// batch's transfers in.
///
/// Any observable difference between two seeds, or between a seed and
/// issue order, is an order-dependence bug in the caller.
pub fn adversarial_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

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
pub struct Gate {
    permits: usize,
    state: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    /// A gate admitting at most `permits` concurrent holders (min 1).
    pub fn new(permits: usize) -> Gate {
        Gate {
            permits: permits.max(1),
            state: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// The gate's capacity.
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// Holders currently admitted.
    pub fn in_use(&self) -> usize {
        *self.state.lock().expect("gate mutex not poisoned")
    }

    /// Tries to enter the gate, waiting at most `wait` for a permit.
    /// Returns a guard that releases the permit on drop, or `None` when
    /// the gate stayed full for the whole budget.
    pub fn try_enter(&self, wait: Duration) -> Option<GateGuard<'_>> {
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

    /// [`Gate::try_enter`] with no willingness to wait: admit now or
    /// reject now.
    pub fn try_enter_now(&self) -> Option<GateGuard<'_>> {
        self.try_enter(Duration::ZERO)
    }
}

/// A held admission permit; dropping it frees the slot and wakes one
/// waiter.
#[derive(Debug)]
pub struct GateGuard<'a> {
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
    fn adversarial_order_differs_but_merge_does_not() {
        let mut seen_orders = std::collections::BTreeSet::new();
        for seed in 0..16u64 {
            let order = adversarial_order(seed, 32);
            // Each result lands in its issue slot, whatever order fills them.
            let mut slots = vec![None; 32];
            for &i in &order {
                assert!(slots[i].replace(i + 1).is_none(), "seed {seed} drew {i} twice");
            }
            let merged: Vec<usize> = slots.into_iter().map(|s| s.expect("drawn")).collect();
            assert_eq!(merged, (1..=32).collect::<Vec<_>>(), "seed {seed}");
            assert_eq!(order, adversarial_order(seed, 32), "a seed names one order");
            seen_orders.insert(order);
        }
        assert!(seen_orders.len() > 1, "seeds must actually permute execution order");
    }

    #[test]
    fn gate_admits_up_to_capacity_then_rejects_without_waiting() {
        let gate = Gate::new(2);
        let a = gate.try_enter_now().expect("first permit");
        let _b = gate.try_enter_now().expect("second permit");
        assert_eq!(gate.in_use(), 2);
        assert!(gate.try_enter_now().is_none(), "third must be rejected");
        drop(a);
        assert!(gate.try_enter_now().is_some(), "freed permit is reusable");
    }

    #[test]
    fn gate_bounded_wait_picks_up_a_freed_permit() {
        let gate = Gate::new(1);
        std::thread::scope(|scope| {
            let held = gate.try_enter_now().expect("permit");
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
        let _held = gate.try_enter_now().expect("permit");
        let start = Instant::now();
        assert!(gate.try_enter(Duration::from_millis(30)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(25), "must have waited the budget");
        assert_eq!(gate.in_use(), 1, "rejection must not leak a permit");
    }

    #[test]
    fn gate_zero_permits_clamps_to_one() {
        let gate = Gate::new(0);
        assert_eq!(gate.permits(), 1);
        assert!(gate.try_enter_now().is_some());
    }

    #[test]
    fn empty_and_singleton_job_lists_are_fine() {
        assert!(adversarial_order(1, 0).is_empty());
        assert_eq!(adversarial_order(1, 1), vec![0]);
    }
}
