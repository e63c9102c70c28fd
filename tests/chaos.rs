//! Chaos suite: the contract table's (`tests/contract_table`) 60-book
//! bookstore rows under `chaos_ladder`, `slow_source` and seeded chaos,
//! each asserting determinism and the degradation contract.

mod common;
mod contract_table;

use contract_table::{check_rows, Corpus, Home, Lab, Row, Wire};
use lap::engine::ExecConfig;

#[test]
fn same_seed_replays_the_same_degradation_bit_for_bit() {
    let tally = check_rows(&mut Lab::default(), Home::SameSeed);
    assert_eq!(tally.degraded, tally.rows, "rate 0.3 over many calls should drop something");
}

#[test]
fn rate_zero_profile_is_observationally_plain() {
    let tally = check_rows(&mut Lab::default(), Home::RateZero);
    assert_eq!((tally.degraded, tally.faulted), (0, 0), "rung 0 must not fault");
}

#[test]
fn degraded_under_is_sound_across_the_ladder() {
    let tally = check_rows(&mut Lab::default(), Home::LadderSoundness);
    assert!(tally.degraded > 0, "no rung of the ladder degraded: the fault injection is dead");
}

#[test]
fn latency_profile_times_out_deterministically() {
    let mut lab = Lab::default();
    check_rows(&mut lab, Home::LatencyTimeouts);
    let slow = &lab.run(&Row::of(Corpus::Bookstore60, ExecConfig::default(), Wire::Slow)).outcome;
    assert!(
        slow.failures > 0 && slow.virtual_ms > 0,
        "30 ms jitter over a 25 ms timeout must fault"
    );
}
