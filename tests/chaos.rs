//! Chaos suite: deterministic fault injection end to end.
//!
//! Every test here runs ANSWER\* under a seeded [`ResilienceConfig`] and
//! checks the degradation contract of `answer_star_resilient_cfg`:
//!
//! * **determinism** — the same seed replays the same faults, retries,
//!   and degradation report bit for bit;
//! * **soundness** — the degraded underestimate is always a subset of the
//!   fault-free underestimate (a failing disjunct is dropped whole, never
//!   partially answered);
//! * **honesty** — whenever any disjunct degraded, the completeness
//!   verdict is not `Complete`;
//! * **equivalence at rate 0** — the resilient path with a fault-free
//!   profile is observationally identical to the plain path.

use lap::core::{answer_star, answer_star_resilient_cfg, Completeness};
use lap::engine::{ExecConfig, ResilienceConfig};
use lap::obs::Recorder;
use lap::workload::{bookstore, chaos_ladder, BookstoreConfig};
use lap_prng::StdRng;

/// A small federated bookstore with several disjuncts and a negated
/// literal, plus its parsed standing query.
fn scenario() -> (lap::ir::Program, lap::engine::Database) {
    let mut rng = StdRng::seed_from_u64(2004);
    let cfg = BookstoreConfig {
        books: 60,
        ..BookstoreConfig::default()
    };
    let bs = bookstore(&cfg, &mut rng);
    let program = lap::ir::parse_program(&bs.program_text()).unwrap();
    (program, bs.db)
}

#[test]
fn same_seed_replays_the_same_degradation_bit_for_bit() {
    let (program, db) = scenario();
    let query = program.single_query().unwrap();
    let resilience = ResilienceConfig::chaos(0.3, 0xDECAF);
    let run = || {
        let quiet = Recorder::disabled();
        let cfg = ExecConfig::default();
        answer_star_resilient_cfg(query, &program.schema, &db, &quiet, &resilience, cfg).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.report.under, b.report.under);
    assert_eq!(a.report.over, b.report.over);
    assert_eq!(a.report.completeness, b.report.completeness);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.virtual_ms, b.virtual_ms);
    // The degradation report itself — indices, heads, relations, attempt
    // counts, and reasons — renders identically.
    assert_eq!(a.degradation.to_string(), b.degradation.to_string());
    assert!(a.degradation.is_degraded(), "rate 0.3 over many calls should drop something");
}

#[test]
fn rate_zero_profile_is_observationally_plain() {
    let (program, db) = scenario();
    let query = program.single_query().unwrap();
    let plain = answer_star(query, &program.schema, &db).unwrap();
    for scenario in chaos_ladder(99).iter().take(1) {
        let outcome = answer_star_resilient_cfg(
            query,
            &program.schema,
            &db,
            &Recorder::disabled(),
            &scenario.resilience,
            ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.report.under, plain.under);
        assert_eq!(outcome.report.over, plain.over);
        assert_eq!(outcome.report.completeness, plain.completeness);
        assert!(!outcome.degradation.is_degraded());
        assert_eq!(outcome.retries, 0);
        assert_eq!(outcome.failures, 0);
    }
}

#[test]
fn degraded_under_is_sound_across_the_ladder() {
    let (program, db) = scenario();
    let query = program.single_query().unwrap();
    let plain = answer_star(query, &program.schema, &db).unwrap();
    for family_seed in 0..4u64 {
        for scenario in chaos_ladder(family_seed) {
            let outcome = answer_star_resilient_cfg(
                query,
                &program.schema,
                &db,
                &Recorder::disabled(),
                &scenario.resilience,
                ExecConfig::default(),
            )
            .unwrap();
            assert!(
                outcome.report.under.is_subset(&plain.under),
                "{} (family {family_seed}): degraded under must never invent answers",
                scenario.name
            );
            if outcome.degradation.is_degraded() {
                assert_ne!(
                    outcome.report.completeness,
                    Completeness::Complete,
                    "{} (family {family_seed}): degraded runs must not claim completeness",
                    scenario.name
                );
            }
            // Every failure is either retried away or ends in a dropped
            // disjunct; the counters must reflect that accounting.
            assert!(outcome.failures >= outcome.degradation.total() as u64);
        }
    }
}

#[test]
fn latency_profile_times_out_deterministically() {
    let (program, db) = scenario();
    let query = program.single_query().unwrap();
    let slow = lap::workload::slow_source(0.0, 11);
    let run = || {
        let quiet = Recorder::disabled();
        let cfg = ExecConfig::default();
        answer_star_resilient_cfg(query, &program.schema, &db, &quiet, &slow.resilience, cfg)
            .unwrap()
    };
    let a = run();
    let b = run();
    // Jittered latency above the 25ms timeout faults some calls even at
    // error rate 0; the virtual clock and outcome still replay exactly.
    assert!(a.failures > 0, "jitter 30ms over timeout 25ms must fault some calls");
    assert!(a.virtual_ms > 0);
    assert_eq!(a.virtual_ms, b.virtual_ms);
    assert_eq!(a.degradation.to_string(), b.degradation.to_string());
    assert_eq!(a.report.under, b.report.under);
    let plain = answer_star(query, &program.schema, &db).unwrap();
    assert!(a.report.under.is_subset(&plain.under));
}
