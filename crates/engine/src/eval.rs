//! Left-to-right evaluation of executable CQ¬ plans over limited-access
//! sources.
//!
//! An executable query *is* a plan (paper, Section 3): "execute each rule
//! separately (possibly in parallel) from left to right". This module
//! implements that execution model as a nested-loop join driven entirely
//! through [`SourceRegistry::call`], so access-pattern violations surface
//! as errors rather than as silently complete scans:
//!
//! * a **positive** literal picks the most selective usable access pattern
//!   given the variables bound so far, calls the source, filters
//!   client-side on bound output slots and repeated variables, and binds
//!   its output variables;
//! * a **negative** literal requires all its variables bound and acts as a
//!   membership filter (it "can only filter out answers, but cannot
//!   produce any new variable bindings" — Example 1);
//! * head variables listed in `null_vars` emit [`Value::Null`] — the
//!   overestimate plans of PLAN\* use this for `x = null` equations.

use crate::error::EngineError;
use crate::physical::{execute_physical_union, lower_union, ExecConfig};
use crate::source::SourceRegistry;
use crate::value::{Tuple, Value};
use lap_ir::{ConjunctiveQuery, Literal, Term, Var};
use std::collections::{BTreeSet, HashMap};

/// Evaluates a union of ordered CQ¬ plans (each with its own null list) and
/// returns the set union of the answers. Each disjunct runs under its own
/// span when the registry's recorder has tracing enabled.
///
/// Each body is evaluated left to right: `null_vars` lists head variables
/// to be emitted as `null` (unbound in the body — only overestimate plans
/// use this), and an order that is not executable under the registry's
/// schema is an error. A compatibility wrapper: the plans are lowered to a
/// [`crate::physical`] operator pipeline and run through the batched
/// executor; [`eval_ordered_union_tuple`] is the legacy reference path.
pub fn eval_ordered_union(
    parts: &[(ConjunctiveQuery, Vec<Var>)],
    reg: &mut SourceRegistry<'_>,
) -> Result<BTreeSet<Tuple>, EngineError> {
    let union = lower_union(parts, reg.schema());
    execute_physical_union(&union, reg, ExecConfig::default())
}

/// The retired tuple-at-a-time evaluator of one ordered body, kept as the
/// executable specification the batched executor is differentially tested
/// against through [`eval_ordered_union_tuple`].
fn eval_ordered_cq_tuple(
    cq: &ConjunctiveQuery,
    null_vars: &[Var],
    reg: &mut SourceRegistry<'_>,
) -> Result<BTreeSet<Tuple>, EngineError> {
    let mut out = BTreeSet::new();
    let mut env: HashMap<Var, Value> = HashMap::new();
    eval_rec(cq, null_vars, reg, 0, &mut env, &mut out)?;
    Ok(out)
}

/// Union evaluation through the retired tuple-at-a-time evaluator, one
/// body at a time — the legacy reference path (same spans as the physical
/// executor).
pub fn eval_ordered_union_tuple(
    parts: &[(ConjunctiveQuery, Vec<Var>)],
    reg: &mut SourceRegistry<'_>,
) -> Result<BTreeSet<Tuple>, EngineError> {
    let recorder = reg.recorder().clone();
    let mut out = BTreeSet::new();
    for (i, (cq, null_vars)) in parts.iter().enumerate() {
        let _span = recorder.span_lazy(|| format!("disjunct {i}: {}", cq.head));
        out.extend(eval_ordered_cq_tuple(cq, null_vars, reg)?);
    }
    Ok(out)
}

fn term_value(term: Term, env: &HashMap<Var, Value>) -> Option<Value> {
    match term {
        Term::Const(c) => Some(Value::from(c)),
        Term::Var(v) => env.get(&v).copied(),
    }
}

fn eval_rec(
    cq: &ConjunctiveQuery,
    null_vars: &[Var],
    reg: &mut SourceRegistry<'_>,
    depth: usize,
    env: &mut HashMap<Var, Value>,
    out: &mut BTreeSet<Tuple>,
) -> Result<(), EngineError> {
    let Some(lit) = cq.body.get(depth) else {
        out.insert(project_head(cq, null_vars, env)?);
        return Ok(());
    };
    if lit.positive {
        eval_positive(cq, null_vars, reg, depth, lit, env, out)
    } else {
        eval_negative(cq, null_vars, reg, depth, lit, env, out)
    }
}

fn eval_positive(
    cq: &ConjunctiveQuery,
    null_vars: &[Var],
    reg: &mut SourceRegistry<'_>,
    depth: usize,
    lit: &Literal,
    env: &mut HashMap<Var, Value>,
    out: &mut BTreeSet<Tuple>,
) -> Result<(), EngineError> {
    let atom = &lit.atom;
    let name = atom.predicate.name;
    let decl = reg
        .schema()
        .relation(name)
        .ok_or_else(|| EngineError::UnknownRelation(name.to_string()))?;
    let bound: Vec<Option<Value>> = atom.args.iter().map(|&t| term_value(t, env)).collect();
    let Some(pattern) = decl.usable_pattern(|j| bound[j].is_some()) else {
        return Err(EngineError::NotExecutable {
            literal: lit.to_string(),
            reason: format!(
                "no access pattern of {name} has all input slots bound (bound positions: {:?})",
                bound
                    .iter()
                    .enumerate()
                    .filter_map(|(j, b)| b.map(|_| j))
                    .collect::<Vec<_>>()
            ),
        });
    };
    let inputs: Vec<Option<Value>> = (0..pattern.arity())
        .map(|j| if pattern.is_input(j) { bound[j] } else { None })
        .collect();
    let rows = reg.call(name, pattern, &inputs)?;
    'rows: for row in rows.iter() {
        // Client-side unification: bound output slots, constants, and
        // repeated variables must agree; unbound variables get bound.
        let mut bound_here: Vec<Var> = Vec::new();
        for (j, (&arg, &val)) in atom.args.iter().zip(row.iter()).enumerate() {
            let _ = j;
            match arg {
                Term::Const(c) => {
                    if Value::from(c) != val {
                        for v in bound_here.drain(..) {
                            env.remove(&v);
                        }
                        continue 'rows;
                    }
                }
                Term::Var(v) => match env.get(&v) {
                    Some(&prev) if prev != val => {
                        for v in bound_here.drain(..) {
                            env.remove(&v);
                        }
                        continue 'rows;
                    }
                    Some(_) => {}
                    None => {
                        env.insert(v, val);
                        bound_here.push(v);
                    }
                },
            }
        }
        eval_rec(cq, null_vars, reg, depth + 1, env, out)?;
        for v in bound_here {
            env.remove(&v);
        }
    }
    Ok(())
}

fn eval_negative(
    cq: &ConjunctiveQuery,
    null_vars: &[Var],
    reg: &mut SourceRegistry<'_>,
    depth: usize,
    lit: &Literal,
    env: &mut HashMap<Var, Value>,
    out: &mut BTreeSet<Tuple>,
) -> Result<(), EngineError> {
    let atom = &lit.atom;
    let mut values = Vec::with_capacity(atom.args.len());
    for &arg in &atom.args {
        match term_value(arg, env) {
            Some(v) => values.push(v),
            None => {
                return Err(EngineError::UnboundNegation {
                    literal: lit.to_string(),
                })
            }
        }
    }
    if !reg.membership_test(atom.predicate.name, &values)? {
        eval_rec(cq, null_vars, reg, depth + 1, env, out)?;
    }
    Ok(())
}

fn project_head(
    cq: &ConjunctiveQuery,
    null_vars: &[Var],
    env: &HashMap<Var, Value>,
) -> Result<Tuple, EngineError> {
    let mut tuple = Vec::with_capacity(cq.head.args.len());
    for &arg in &cq.head.args {
        match arg {
            Term::Const(c) => tuple.push(Value::from(c)),
            Term::Var(v) => match env.get(&v) {
                Some(&val) => tuple.push(val),
                None if null_vars.contains(&v) => tuple.push(Value::Null),
                None => {
                    return Err(EngineError::NotExecutable {
                        literal: cq.head.to_string(),
                        reason: format!("head variable {v} is neither bound nor declared null"),
                    })
                }
            },
        }
    }
    Ok(tuple)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Database;
    use lap_ir::{parse_cq, Schema};

    /// One ordered body through the union driver.
    fn eval_one(
        plan: &ConjunctiveQuery,
        null_vars: &[Var],
        reg: &mut SourceRegistry<'_>,
    ) -> Result<BTreeSet<Tuple>, EngineError> {
        eval_ordered_union(&[(plan.clone(), null_vars.to_vec())], reg)
    }

    fn bookstore() -> (Database, Schema) {
        let db = Database::from_facts(
            r#"
            B(1, "tolkien", "lotr"). B(2, "tolkien", "hobbit"). B(3, "adams", "hhgttg").
            C(1, "tolkien"). C(3, "adams").
            L(1).
            "#,
        )
        .unwrap();
        let schema =
            Schema::from_patterns(&[("B", "ioo"), ("B", "oio"), ("C", "oo"), ("L", "o")]).unwrap();
        (db, schema)
    }

    #[test]
    fn example_1_reordered_plan_runs() {
        // C first (free scan) binds i and a; then B^ioo; then ¬L filter.
        let (db, schema) = bookstore();
        let mut reg = SourceRegistry::new(&db, &schema);
        let plan = parse_cq("Q(i, a, t) :- C(i, a), B(i, a, t), not L(i).").unwrap();
        let rows = eval_one(&plan, &[], &mut reg).unwrap();
        // Book 1 is in the library; only book 3 survives ¬L. Book 2 is not
        // in the catalog C.
        let rows: Vec<Tuple> = rows.into_iter().collect();
        assert_eq!(rows, vec![vec![Value::int(3), Value::str("adams"), Value::str("hhgttg")]]);
    }

    #[test]
    fn example_1_original_order_fails() {
        // B first: neither B^ioo nor B^oio has its input bound.
        let (db, schema) = bookstore();
        let mut reg = SourceRegistry::new(&db, &schema);
        let plan = parse_cq("Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).").unwrap();
        let err = eval_one(&plan, &[], &mut reg).unwrap_err();
        assert!(matches!(err, EngineError::NotExecutable { .. }), "{err}");
    }

    #[test]
    fn negation_first_fails_with_unbound_vars() {
        let (db, schema) = bookstore();
        let mut reg = SourceRegistry::new(&db, &schema);
        let plan = parse_cq("Q(i, a, t) :- not L(i), C(i, a), B(i, a, t).").unwrap();
        let err = eval_one(&plan, &[], &mut reg).unwrap_err();
        assert!(matches!(err, EngineError::UnboundNegation { .. }));
    }

    #[test]
    fn null_vars_project_null() {
        let (db, schema) = bookstore();
        let mut reg = SourceRegistry::new(&db, &schema);
        // Head var t never bound in the body; declared null.
        let plan = parse_cq("Q(i, t) :- C(i, a).").unwrap();
        let rows = eval_one(&plan, &[Var::new("t")], &mut reg).unwrap();
        assert!(rows.iter().all(|r| r[1] == Value::Null));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn unbound_head_var_without_null_is_error() {
        let (db, schema) = bookstore();
        let mut reg = SourceRegistry::new(&db, &schema);
        let plan = parse_cq("Q(i, t) :- C(i, a).").unwrap();
        assert!(eval_one(&plan, &[], &mut reg).is_err());
    }

    #[test]
    fn constants_filter_client_side() {
        let (db, schema) = bookstore();
        let mut reg = SourceRegistry::new(&db, &schema);
        let plan = parse_cq(r#"Q(t) :- C(i, a), B(i, "adams", t)."#).unwrap();
        let rows = eval_one(&plan, &[], &mut reg).unwrap();
        assert_eq!(rows.into_iter().collect::<Vec<_>>(), vec![vec![Value::str("hhgttg")]]);
    }

    #[test]
    fn repeated_variables_join() {
        let db = Database::from_facts("R(1, 1). R(1, 2). R(2, 2).").unwrap();
        let schema = Schema::from_patterns(&[("R", "oo")]).unwrap();
        let mut reg = SourceRegistry::new(&db, &schema);
        let plan = parse_cq("Q(x) :- R(x, x).").unwrap();
        let rows = eval_one(&plan, &[], &mut reg).unwrap();
        assert_eq!(
            rows.into_iter().collect::<Vec<_>>(),
            vec![vec![Value::int(1)], vec![Value::int(2)]]
        );
    }

    #[test]
    fn union_evaluation_unions() {
        let (db, schema) = bookstore();
        let mut reg = SourceRegistry::new(&db, &schema);
        let p1 = parse_cq("Q(i) :- C(i, a).").unwrap();
        let p2 = parse_cq("Q(i) :- L(i).").unwrap();
        let rows = eval_ordered_union(&[(p1, vec![]), (p2, vec![])], &mut reg).unwrap();
        assert_eq!(rows.len(), 2); // {1, 3}
    }

    #[test]
    fn wrapper_agrees_with_tuple_reference_path() {
        let (db, schema) = bookstore();
        let plan = parse_cq("Q(i, a, t) :- C(i, a), B(i, a, t), not L(i).").unwrap();
        let mut batched = SourceRegistry::new(&db, &schema);
        let mut tuple = SourceRegistry::new(&db, &schema);
        assert_eq!(
            eval_one(&plan, &[], &mut batched).unwrap(),
            eval_ordered_cq_tuple(&plan, &[], &mut tuple).unwrap()
        );
    }

    #[test]
    fn empty_body_emits_single_constant_row() {
        let (db, schema) = bookstore();
        let mut reg = SourceRegistry::new(&db, &schema);
        let plan = parse_cq("Q(1) :- true.").unwrap();
        let rows = eval_one(&plan, &[], &mut reg).unwrap();
        assert_eq!(rows.into_iter().collect::<Vec<_>>(), vec![vec![Value::int(1)]]);
    }
}
