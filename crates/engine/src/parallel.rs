//! Parallel evaluation of union plans.
//!
//! The paper's execution model for an executable UCQ¬ is "execute each
//! rule separately (possibly in parallel) from left to right" (Section 3).
//! [`eval_ordered_union_parallel`] takes the "possibly in parallel"
//! seriously: each disjunct runs on its own thread with its own
//! [`SourceRegistry`] (sources are concurrent services; the registry is a
//! per-connection client), and the per-thread answers and call statistics
//! are merged at the end.

use crate::error::EngineError;
use crate::instance::Database;
use crate::physical::{execute_physical_union_parallel, lower_union, ExecConfig};
use crate::stats::CallStats;
use crate::value::Tuple;
use lap_ir::{ConjunctiveQuery, Schema, Var};
use std::collections::BTreeSet;

/// Evaluates the disjunct plans concurrently (one thread per disjunct) and
/// returns the set union of answers plus the merged source statistics.
///
/// Semantically identical to [`crate::eval_ordered_union`]; the statistics
/// count the same calls (each thread talks to the sources independently,
/// as parallel mediator workers would, and dedups batches exactly as the
/// sequential executor does). A thin compatibility wrapper: the parts are
/// lowered once and executed through [`execute_physical_union_parallel`].
pub fn eval_ordered_union_parallel(
    parts: &[(ConjunctiveQuery, Vec<Var>)],
    db: &Database,
    schema: &Schema,
) -> Result<(BTreeSet<Tuple>, CallStats), EngineError> {
    let union = lower_union(parts, schema);
    let recorder = lap_obs::Recorder::disabled();
    execute_physical_union_parallel(&union, db, schema, &recorder, ExecConfig::default(), None)
        .map(|(run, stats)| (run.rows, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_ordered_union;
    use crate::source::SourceRegistry;
    use lap_ir::parse_cq;

    fn setup() -> (Database, Schema) {
        let db = Database::from_facts(
            r#"
            B(1, "a", "t1"). B(2, "b", "t2"). B(3, "c", "t3").
            C(1, "a"). C(2, "b").
            L(1).
            "#,
        )
        .unwrap();
        let schema =
            Schema::from_patterns(&[("B", "ioo"), ("C", "oo"), ("L", "o")]).unwrap();
        (db, schema)
    }

    #[test]
    fn matches_sequential_evaluation() {
        let (db, schema) = setup();
        let parts = vec![
            (parse_cq("Q(i, t) :- C(i, a), B(i, a, t), not L(i).").unwrap(), vec![]),
            (parse_cq("Q(i, t) :- L(i), B(i, a, t).").unwrap(), vec![]),
        ];
        let (par_rows, par_stats) = eval_ordered_union_parallel(&parts, &db, &schema).unwrap();
        let mut reg = SourceRegistry::new(&db, &schema);
        let seq_rows = eval_ordered_union(&parts, &mut reg).unwrap();
        assert_eq!(par_rows, seq_rows);
        assert_eq!(par_stats.calls, reg.stats().calls);
        assert_eq!(par_stats.tuples_returned, reg.stats().tuples_returned);
    }

    #[test]
    fn errors_propagate_from_workers() {
        let (db, schema) = setup();
        let parts = vec![
            (parse_cq("Q(i, t) :- L(i), B(i, a, t).").unwrap(), vec![]),
            // Not executable: B first with nothing bound.
            (parse_cq("Q(i, t) :- B(i, a, t), L(i).").unwrap(), vec![]),
        ];
        assert!(eval_ordered_union_parallel(&parts, &db, &schema).is_err());
    }

    #[test]
    fn empty_union_is_empty() {
        let (db, schema) = setup();
        let (rows, stats) = eval_ordered_union_parallel(&[], &db, &schema).unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.calls, 0);
    }

    #[test]
    fn many_disjuncts_scale() {
        let (db, schema) = setup();
        let parts: Vec<_> = (0..16)
            .map(|_| (parse_cq("Q(i, a) :- C(i, a).").unwrap(), vec![]))
            .collect();
        let (rows, stats) = eval_ordered_union_parallel(&parts, &db, &schema).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(stats.calls, 16);
    }
}
