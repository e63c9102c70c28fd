//! Adaptive re-planning from flight-recorder feedback.
//!
//! The static [`CostModel`] guesses extents; the journal records what the
//! sources actually did. [`CostModel::calibrated`] turns a folded
//! [`FeedbackStore`](lap_obs::FeedbackStore) into a re-costed model;
//! [`recalibrate_prepared`] closes the loop for a long-lived
//! [`PreparedQuery`]: re-order its plan bodies under the calibrated model
//! and swap the plans (and the physical trees lowered from them) in place
//! so the *next* execution runs the new plan. The estimates behind the
//! choice are not stored on the plan: [`op_costs`](crate::op_costs)
//! computes them, static `est` and calibrated `cal`, wherever they are
//! printed.
//!
//! Re-ordering the same bodies is answer-preserving — every order of one
//! executable body computes the same relation — so a calibrated plan may
//! only differ in calls and latency, never in answers. A run whose
//! estimates were far off therefore completes correctly; only the next one
//! re-plans, once its journal has been folded into the feedback.

use crate::cost::CostModel;
use crate::order::{optimize_plan_pair, Strategy};
use lap_core::{PlanCache, PreparedProgram, PreparedQuery};

/// Re-plans `prepared` under `calibrated`, a model the caller built once
/// with [`CostModel::calibrated`]: the plan bodies are re-ordered by
/// exhaustive search under it and re-lowered. Returns `true` when the
/// calibrated ordering differs from the compiled one (the next
/// [`PreparedQuery::execute`] runs a different plan).
///
/// **Ownership invariant:** this mutates `prepared` in place, so it is
/// only sound for an entry the caller *exclusively owns* (the `&mut`
/// enforces it locally, but an owner must also not have handed out
/// clones-by-`Arc` of the entry). A query mutated while another session
/// executes it would tear — plans and physical trees swapped mid-read.
/// For entries shared through a [`PlanCache`] use
/// [`recalibrate_published`], which builds the recalibrated entry aside
/// and swaps the cache slot atomically instead.
pub fn recalibrate_prepared(prepared: &mut PreparedQuery, calibrated: &CostModel) -> bool {
    let optimized =
        optimize_plan_pair(prepared.plans(), prepared.schema(), calibrated, Strategy::Exhaustive);
    let changed = optimized != *prepared.plans();
    prepared.replace_plans(optimized);
    changed
}

/// Replace-on-publish recalibration of a **cache-shared** program: looks
/// the entry up without disturbing the hit/miss accounting, clones its
/// queries, recalibrates the clones aside ([`recalibrate_prepared`] on
/// owned copies), and — only when some ordering actually changed —
/// publishes the rebuilt [`PreparedProgram`] through
/// [`PlanCache::publish`], which swaps the slot atomically.
///
/// From the cache's view the entry is never in a half-recalibrated state:
/// a lookup observes either the old program or the new one, and sessions
/// already holding the old `Arc` finish on internally-consistent plans.
/// Returns `true` when a recalibrated entry was published, `false` when
/// the key is absent or calibration left every ordering unchanged (in
/// which case the cache is untouched). `calibrated` is built once by the
/// caller, so a sweep over many entries shares one model.
pub fn recalibrate_published(
    cache: &PlanCache<PreparedProgram>,
    key: &str,
    calibrated: &CostModel,
) -> bool {
    let Some(current) = cache.peek(key) else {
        return false;
    };
    // Build aside: recalibrate owned clones, never the shared entry.
    let mut queries: Vec<PreparedQuery> = current.queries().to_vec();
    let mut changed = false;
    for q in &mut queries {
        changed |= recalibrate_prepared(q, calibrated);
    }
    if !changed {
        return false;
    }
    let next = current.with_queries(queries);
    let bytes = next.estimated_bytes();
    cache.publish(key, next, bytes);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_core::CompileOptions;
    use lap_engine::{Database, PhysOp, SourceRegistry};
    use lap_ir::parse_program;
    use lap_obs::{FeedbackStore, Recorder};

    /// A schema where the static model (uniform extents) seeds the plan
    /// with the free-scan A and hammers D^io once per A row, while the
    /// true extents make the D^oo scan-first order far cheaper.
    const PROGRAM: &str = "A^o. D^oo. D^io.\nQ(x, y) :- A(x), D(x, y).";

    fn scenario() -> (PreparedQuery, Database) {
        let p = parse_program(PROGRAM).unwrap();
        let q = p.single_query().unwrap();
        let opts = CompileOptions { recorder: &Recorder::disabled(), feasibility: None };
        let prepared = PreparedQuery::compile(q, &p.schema, &opts);
        let mut facts = String::new();
        for i in 0..40 {
            facts.push_str(&format!("A({i}). "));
        }
        for i in 0..8 {
            facts.push_str(&format!("D({i}, {}). ", 100 + i));
        }
        let db = Database::from_facts(&facts).unwrap();
        (prepared, db)
    }

    /// Folds a feedback store out of one recorded execution of `prepared`.
    fn record_feedback(prepared: &PreparedQuery, db: &Database) -> FeedbackStore {
        let rec = Recorder::with_journal(lap_obs::journal::JournalConfig::light());
        let mut reg = SourceRegistry::new(db, prepared.schema()).recording(&rec);
        lap_engine::execute_physical_union(
            &prepared.physical().under,
            &mut reg,
            lap_engine::ExecConfig::default(),
        )
        .unwrap();
        let mut store = FeedbackStore::new();
        store.fold(&rec.journal().unwrap().snapshot());
        store
    }

    #[test]
    fn recalibration_reorders_and_dual_annotates() {
        let (mut prepared, db) = scenario();
        let before = prepared.execute(&db).unwrap();
        let static_model = CostModel::new();
        let feedback = record_feedback(&prepared, &db);

        let calibrated = static_model.calibrated(&feedback);
        let changed = recalibrate_prepared(&mut prepared, &calibrated);
        assert!(changed, "calibrated extents must flip the join order");
        // The calibrated plan leads with the D^oo scan (8 rows observed)
        // instead of the 40-row A scan, and its trees are lowered from it.
        let first = &prepared.physical().under.parts[0].ops[0];
        let PhysOp::Access(op) = first else { panic!("leaf is an access op") };
        assert_eq!(op.relation.as_str(), "D", "{:?}", prepared.physical().under.parts[0]);
        assert_eq!(*prepared.physical(), lap_core::lower_pair(prepared.plans(), prepared.schema()));
        // Dual estimates: every operator has an est and a cal entry.
        let under = &prepared.physical().under;
        let shown = crate::op_table(under, &static_model, Some(&calibrated), None);
        assert!(shown.contains("est calls  est tuples  cal calls  cal tuples"), "{shown}");
        let estimated =
            |l: &str| l.split_whitespace().rev().take(4).all(|c| c.parse::<f64>().is_ok());
        assert!(shown.lines().skip(2).all(estimated), "{shown}");

        // Re-ordering is answer-preserving.
        let after = prepared.execute(&db).unwrap();
        assert_eq!(before.under, after.under);
        assert_eq!(before.over, after.over);
        // And cheaper: the D-first order scans once and probes A once per
        // distinct binding batch instead of calling D per A row.
        assert!(
            after.stats.calls < before.stats.calls,
            "{} vs {}",
            after.stats.calls,
            before.stats.calls
        );
    }

    #[test]
    fn publish_swap_recalibration_is_atomic_from_the_caches_view() {
        use lap_core::{canonical_text, PlanCache, PreparedProgram};

        let (prepared, db) = scenario();
        let feedback = record_feedback(&prepared, &db);
        let calibrated = CostModel::new().calibrated(&feedback);

        let cache: PlanCache<PreparedProgram> = PlanCache::new(lap_core::DEFAULT_CACHE_BYTES);
        let key = canonical_text(PROGRAM);
        let prog = PreparedProgram::compile(PROGRAM).unwrap();
        let bytes = prog.estimated_bytes();
        cache.insert(&key, prog, bytes);

        // A session mid-execution holds the shared entry.
        let held = cache.get(&key).unwrap();
        let before_plans = held.queries()[0].plans().clone();

        let published = recalibrate_published(&cache, &key, &calibrated);
        assert!(published, "calibrated extents must flip the ordering and publish");

        // The held handle still sees the *old*, internally-consistent entry —
        // the recalibration was built aside, not applied in place.
        assert_eq!(*held.queries()[0].plans(), before_plans);

        // New lookups see the swapped entry, whose underestimate now leads
        // with the cheap D scan.
        let fresh = cache.get(&key).unwrap();
        assert_ne!(*fresh.queries()[0].plans(), before_plans);
        let first = &fresh.queries()[0].physical().under.parts[0].ops[0];
        let PhysOp::Access(op) = first else { panic!("leaf is an access op") };
        assert_eq!(op.relation.as_str(), "D");

        // Answer-preserving: old and new entries agree on every answer.
        let old_rep = held.queries()[0].execute(&db).unwrap();
        let new_rep = fresh.queries()[0].execute(&db).unwrap();
        assert_eq!(old_rep.under, new_rep.under);
        assert_eq!(old_rep.over, new_rep.over);

        // Accounting: one publish; the maintenance peek did not pollute the
        // hit/miss counters (only our two explicit gets did).
        let stats = cache.stats();
        assert_eq!(stats.publishes, 1, "{stats:?}");
        assert_eq!((stats.hits, stats.misses), (2, 0), "{stats:?}");

        // Re-running with the same feedback is a no-op — the published
        // entry is already calibrated — and an absent key never publishes.
        assert!(!recalibrate_published(&cache, &key, &calibrated));
        assert!(!recalibrate_published(&cache, "no-such-key", &calibrated));
        assert_eq!(cache.stats().publishes, 1);
    }

    #[test]
    fn blown_estimates_surface_then_recalibration_clears_the_plan() {
        let (mut prepared, db) = scenario();
        let static_model = CostModel::new();
        let rec = Recorder::with_journal(lap_obs::journal::JournalConfig::light());
        let run = {
            let mut reg = SourceRegistry::new(&db, prepared.schema()).recording(&rec);
            let under = &prepared.physical().under;
            lap_engine::execute_physical_union_with(
                under,
                &mut reg,
                lap_engine::ExecConfig::default(),
                lap_engine::OnUnavailable::Abort,
            )
            .unwrap()
        };
        // Understate A's extent: its scan (40 real rows against an estimate
        // of 1) reaches the profile table's 10× mark; the static model's
        // estimate of 100 does not.
        let skewed = CostModel::new().with_extent("A", 1.0).with_extent("D", 1.0);
        let under = &prepared.physical().under;
        let marked = |model: &CostModel| -> Vec<String> {
            let table = crate::op_table(under, model, None, Some(&run.profile));
            let blown = table.lines().filter(|line| line.ends_with("← out ≥ 10× est tuples"));
            blown.map(|line| line.trim_start().split("  ").next().unwrap().to_owned()).collect()
        };
        assert_eq!(marked(&skewed), ["Access A^o(x)"]);
        assert!(marked(&static_model).is_empty());

        // The recorded journal feeds the recalibration that fixes the plan.
        let mut feedback = FeedbackStore::new();
        feedback.fold(&rec.journal().unwrap().snapshot());
        assert!(recalibrate_prepared(&mut prepared, &static_model.calibrated(&feedback)));
    }
}
