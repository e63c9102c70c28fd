//! Domain enumeration views (paper, Example 8; Duschka–Levy \[DL97\]).
//!
//! `dom(x)` collects every value obtainable from the sources: seeded with
//! the constants at hand, it repeatedly calls every declared access pattern
//! with every combination of already-known values in the input slots and
//! absorbs all returned values, to fixpoint. The paper uses such views to
//! improve PLAN\*'s underestimate: an unanswerable literal `B(x, y)` with
//! `B^ii` becomes answerable as `dom(y), B(x, y)`.
//!
//! Enumeration is inherently expensive (`|dom|^k` calls per pattern with
//! `k` input slots per round), so it runs under a call budget; the result
//! records whether the fixpoint was reached or the budget (or a source
//! still unavailable after its retries) cut it short.

use crate::error::EngineError;
use crate::source::SourceRegistry;
use crate::value::Value;
use lap_ir::AccessPattern;
use std::collections::{BTreeSet, HashSet};

/// Result of a domain enumeration run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainResult {
    /// All values discovered (including the seed).
    pub values: BTreeSet<Value>,
    /// True iff the fixpoint was reached within budget.
    pub complete: bool,
}

/// Enumerates the reachable value domain through the registry's schema,
/// starting from `seed` (typically the constants of the query and any
/// values already obtained), spending at most `budget` source calls. An
/// unavailable source ends it incomplete; any other error is returned.
pub fn enumerate_domain(
    reg: &mut SourceRegistry<'_>,
    seed: &BTreeSet<Value>,
    budget: u64,
) -> Result<DomainResult, EngineError> {
    let mut dom: BTreeSet<Value> = seed.clone();
    let mut calls_used: u64 = 0;
    // Remember calls already issued so new rounds only try new input
    // combinations.
    let mut issued: HashSet<(lap_ir::Symbol, AccessPattern, Vec<Option<Value>>)> = HashSet::new();
    let decls: Vec<_> = reg
        .schema()
        .iter()
        .map(|d| (d.predicate, d.patterns.clone()))
        .collect();

    let complete = 'rounds: loop {
        let mut grew = false;
        for (pred, patterns) in &decls {
            for &pattern in patterns {
                let slots: Vec<usize> = pattern.input_positions().collect();
                let pool: Vec<Value> = dom.iter().copied().collect();
                if !slots.is_empty() && pool.is_empty() {
                    continue;
                }
                let mut combo = vec![0usize; slots.len()];
                loop {
                    let mut inputs: Vec<Option<Value>> = vec![None; pattern.arity()];
                    for (k, &j) in slots.iter().enumerate() {
                        inputs[j] = Some(pool[combo[k]]);
                    }
                    let key = (pred.name, pattern, inputs.clone());
                    if issued.insert(key) {
                        if calls_used >= budget {
                            break 'rounds false;
                        }
                        calls_used += 1;
                        let rows = match reg.call(pred.name, pattern, &inputs) {
                            Ok(rows) => rows,
                            Err(EngineError::SourceUnavailable { .. }) => break 'rounds false,
                            Err(e) => return Err(e),
                        };
                        for row in rows.iter() {
                            for &v in row {
                                if dom.insert(v) {
                                    grew = true;
                                }
                            }
                        }
                    }
                    // Next combination (odometer).
                    if slots.is_empty() {
                        break;
                    }
                    let mut k = 0;
                    loop {
                        combo[k] += 1;
                        if combo[k] < pool.len() {
                            break;
                        }
                        combo[k] = 0;
                        k += 1;
                        if k == slots.len() {
                            break;
                        }
                    }
                    if k == slots.len() {
                        break;
                    }
                }
            }
        }
        if !grew {
            break true;
        }
    };
    Ok(DomainResult { values: dom, complete })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Database;
    use lap_ir::Schema;

    #[test]
    fn free_scan_seeds_everything() {
        let db = Database::from_facts("R(1, 2). R(2, 3). S(3).").unwrap();
        let schema = Schema::from_patterns(&[("R", "oo"), ("S", "o")]).unwrap();
        let mut reg = SourceRegistry::new(&db, &schema);
        let r = enumerate_domain(&mut reg, &BTreeSet::new(), 100).unwrap();
        assert!(r.complete);
        assert_eq!(r.values.len(), 3); // {1, 2, 3}
    }

    #[test]
    fn chained_discovery_through_input_patterns() {
        // S^o yields 1; R^io maps 1→2, 2→3; fixpoint {1,2,3}.
        let db = Database::from_facts("S(1). R(1, 2). R(2, 3).").unwrap();
        let schema = Schema::from_patterns(&[("S", "o"), ("R", "io")]).unwrap();
        let mut reg = SourceRegistry::new(&db, &schema);
        let r = enumerate_domain(&mut reg, &BTreeSet::new(), 100).unwrap();
        assert!(r.complete);
        assert_eq!(
            r.values,
            [Value::int(1), Value::int(2), Value::int(3)].into_iter().collect()
        );
    }

    #[test]
    fn unreachable_values_stay_hidden() {
        // R(4, 5) is unreachable: nothing ever produces 4 to feed R^io.
        let db = Database::from_facts("S(1). R(1, 2). R(4, 5).").unwrap();
        let schema = Schema::from_patterns(&[("S", "o"), ("R", "io")]).unwrap();
        let mut reg = SourceRegistry::new(&db, &schema);
        let r = enumerate_domain(&mut reg, &BTreeSet::new(), 100).unwrap();
        assert!(r.complete);
        assert!(!r.values.contains(&Value::int(5)));
    }

    #[test]
    fn seed_constants_unlock_values() {
        let db = Database::from_facts("R(4, 5).").unwrap();
        let schema = Schema::from_patterns(&[("R", "io")]).unwrap();
        let mut reg = SourceRegistry::new(&db, &schema);
        let seed: BTreeSet<Value> = [Value::int(4)].into_iter().collect();
        let r = enumerate_domain(&mut reg, &seed, 100).unwrap();
        assert!(r.values.contains(&Value::int(5)));
    }

    #[test]
    fn budget_cuts_enumeration_short() {
        let db = Database::from_facts("S(1). S(2). S(3). R(1, 2).").unwrap();
        let schema = Schema::from_patterns(&[("S", "o"), ("R", "ii")]).unwrap();
        let mut reg = SourceRegistry::new(&db, &schema);
        // R^ii needs |dom|² calls; budget 2 can't finish (1 for S + 9 for R).
        let r = enumerate_domain(&mut reg, &BTreeSet::new(), 2).unwrap();
        assert!(!r.complete);
        assert!(reg.stats().calls <= 2);
    }

    #[test]
    fn an_unavailable_source_truncates_instead_of_failing() {
        let db = Database::from_facts("S(1). R(1, 2).").unwrap();
        let schema = Schema::from_patterns(&[("S", "o"), ("R", "io")]).unwrap();
        let mut reg = SourceRegistry::new(&db, &schema)
            .with_fault_injection(crate::FaultConfig::with_rate(1.0, 3));
        let r = enumerate_domain(&mut reg, &BTreeSet::new(), 100).unwrap();
        assert!(!r.complete);
        assert!(r.values.is_empty());
    }

    #[test]
    fn no_callable_pattern_means_empty_domain() {
        let db = Database::from_facts("R(1, 2).").unwrap();
        let schema = Schema::from_patterns(&[("R", "ii")]).unwrap();
        let mut reg = SourceRegistry::new(&db, &schema);
        let r = enumerate_domain(&mut reg, &BTreeSet::new(), 100).unwrap();
        assert!(r.complete);
        assert!(r.values.is_empty());
    }
}
