//! Adaptive re-planning from flight-recorder feedback.
//!
//! The static [`CostModel`] guesses extents; the journal records what the
//! sources actually did. [`CostModel::calibrated`] turns a folded
//! [`FeedbackStore`] into a re-costed model; [`recalibrate_prepared`]
//! closes the loop for a long-lived [`PreparedQuery`]: re-order its plan
//! bodies under the calibrated model, re-lower with **dual** cost
//! annotations (static `est` next to calibrated `cal`), and swap the
//! physical trees in place so the *next* execution runs the new plan.
//!
//! Re-ordering the same bodies is answer-preserving — every order of one
//! executable body computes the same relation — so a calibrated plan may
//! only differ in calls and latency, never in answers. That invariant is
//! what lets the mid-query escape hatch stay lazy: when an execution blows
//! an estimate (the engine's `exec.estimate.blown` marker), the current
//! run completes correctly and only the next one re-plans.

use crate::cost::CostModel;
use crate::lower::lower;
use crate::order::{optimize_plan_pair, Strategy};
use lap_core::{PlanCache, PreparedProgram, PreparedQuery};
use lap_obs::FeedbackStore;

/// Re-plans `prepared` under `static_model` calibrated with `feedback`:
/// the plan bodies are re-ordered by `strategy` under the calibrated
/// model and re-lowered with dual (static + calibrated) cost annotations.
/// Returns `true` when the calibrated ordering differs from the compiled
/// one (the next [`PreparedQuery::execute`] runs a different plan).
///
/// **Ownership invariant:** this mutates `prepared` in place, so it is
/// only sound for an entry the caller *exclusively owns* (the `&mut`
/// enforces it locally, but an owner must also not have handed out
/// clones-by-`Arc` of the entry). A query mutated while another session
/// executes it would tear — plans and physical trees swapped mid-read.
/// For entries shared through a [`PlanCache`] use
/// [`recalibrate_published`], which builds the recalibrated entry aside
/// and swaps the cache slot atomically instead.
pub fn recalibrate_prepared(
    prepared: &mut PreparedQuery,
    static_model: &CostModel,
    feedback: &FeedbackStore,
    strategy: Strategy,
) -> bool {
    let calibrated = static_model.calibrated(feedback);
    let optimized = optimize_plan_pair(prepared.plans(), prepared.schema(), &calibrated, strategy);
    let changed = optimized != *prepared.plans();
    let physical = lower(&optimized, prepared.schema(), static_model, Some(&calibrated));
    prepared.replace_plans(optimized, physical);
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
/// which case the cache is untouched).
pub fn recalibrate_published(
    cache: &PlanCache<PreparedProgram>,
    key: &str,
    static_model: &CostModel,
    feedback: &FeedbackStore,
    strategy: Strategy,
) -> bool {
    let Some(current) = cache.peek(key) else {
        return false;
    };
    // Build aside: recalibrate owned clones, never the shared entry.
    let mut queries: Vec<PreparedQuery> = current.queries().to_vec();
    let mut changed = false;
    for q in &mut queries {
        changed |= recalibrate_prepared(q, static_model, feedback, strategy);
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
    use lap_obs::Recorder;

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

        let changed =
            recalibrate_prepared(&mut prepared, &static_model, &feedback, Strategy::Exhaustive);
        assert!(changed, "calibrated extents must flip the join order");
        // The calibrated plan leads with the D^oo scan (8 rows observed)
        // instead of the 40-row A scan.
        let first = &prepared.physical().under.parts[0].ops[0];
        let PhysOp::Access(op) = first else { panic!("leaf is an access op") };
        assert_eq!(op.relation.as_str(), "D", "{}", prepared.physical().under.parts[0]);
        // Dual annotations: every operator carries est and cal.
        for op in &prepared.physical().under.parts[0].ops {
            assert!(op.cost().is_some(), "static estimate on {}", op.label());
            assert!(op.calibrated().is_some(), "calibrated estimate on {}", op.label());
        }
        let shown = prepared.physical().under.parts[0].to_string();
        assert!(shown.contains("est "), "{shown}");
        assert!(shown.contains("; cal "), "{shown}");

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
        let static_model = CostModel::new();

        let cache: PlanCache<PreparedProgram> = PlanCache::new(lap_core::DEFAULT_CACHE_BYTES);
        let key = canonical_text(PROGRAM);
        let prog = PreparedProgram::compile(PROGRAM).unwrap();
        let bytes = prog.estimated_bytes();
        cache.insert(&key, prog, bytes);

        // A session mid-execution holds the shared entry.
        let held = cache.get(&key).unwrap();
        let before_plans = held.queries()[0].plans().clone();

        let published = recalibrate_published(
            &cache,
            &key,
            &static_model,
            &feedback,
            Strategy::Exhaustive,
        );
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
        assert!(!recalibrate_published(&cache, &key, &static_model, &feedback, Strategy::Exhaustive));
        assert!(!recalibrate_published(&cache, "no-such-key", &static_model, &feedback, Strategy::Exhaustive));
        assert_eq!(cache.stats().publishes, 1);
    }

    #[test]
    fn blown_estimates_surface_then_recalibration_clears_the_plan() {
        let (mut prepared, db) = scenario();
        let static_model = CostModel::new();
        // Annotate the compiled plan with static estimates so the executor
        // can compare observed cardinality against them. Understate A's
        // extent so its scan (40 real rows vs 1 estimated) blows the
        // 10× threshold.
        let skewed = CostModel::new().with_extent("A", 1.0).with_extent("D", 1.0);
        let physical = lower(prepared.plans(), prepared.schema(), &skewed, None);
        prepared.replace_plans(prepared.plans().clone(), physical);

        let rec = Recorder::with_journal(lap_obs::journal::JournalConfig::light());
        {
            let mut reg = SourceRegistry::new(&db, prepared.schema()).recording(&rec);
            lap_engine::execute_physical_union(
                &prepared.physical().under,
                &mut reg,
                lap_engine::ExecConfig::default(),
            )
            .unwrap();
        }
        assert!(
            rec.snapshot().counter("exec.estimate_blown") > 0,
            "misestimated join must leave the escape-hatch marker"
        );
        let snap = rec.journal().unwrap().snapshot();
        assert!(
            snap.events.iter().any(|e| e.kind == lap_obs::journal::kind::ESTIMATE_BLOWN),
            "journal carries the estimate-blown event"
        );

        // The recorded journal feeds the recalibration that fixes the plan.
        let mut feedback = FeedbackStore::new();
        feedback.fold(&snap);
        let changed =
            recalibrate_prepared(&mut prepared, &static_model, &feedback, Strategy::Exhaustive);
        assert!(changed);
    }
}
