//! Lowering: from ordered logical plans (`(ConjunctiveQuery, Vec<Var>)`
//! pairs, as produced by PLAN\*) to physical operator pipelines.
//!
//! The pass walks the body once, tracking which variables are bound by the
//! operators emitted so far, and chooses each positive literal's access
//! pattern with the same "most selective usable" rule the legacy evaluator
//! applied per tuple. Boundness at a literal depends only on the literals
//! before it, so the plan-time choice coincides with every per-tuple
//! choice — the lowered plan is call-for-call equivalent.
//!
//! The same fact gives the columnar executor its layout invariant:
//! `bound_after` grows monotonically along the pipeline and holds for
//! *every* binding that reaches an operator, so a
//! [`ColumnBatch`](super::ColumnBatch) column is either present for all
//! rows or absent for all rows — boundness is per position, never per
//! cell.
//!
//! Lowering is total: problems (unknown relation, no usable pattern,
//! unbound negation, unbound head variable) are recorded in the operator
//! and raised by the executor only when a non-empty batch reaches it.

use super::plan::{
    AccessOp, AccessProblem, ArgSource, NegOp, PhysOp, PhysicalPlan, PhysicalUnion, ProjCol,
    ProjectOp,
};
use crate::value::Value;
use lap_ir::{display_adorned, ConjunctiveQuery, Schema, Term, Var};
use std::collections::{HashMap, HashSet};

/// Lowers one ordered disjunct (plus its null-variable list) to a physical
/// pipeline. Never fails; see the module docs.
pub fn lower_cq(cq: &ConjunctiveQuery, null_vars: &[Var], schema: &Schema) -> PhysicalPlan {
    let mut slots: Vec<Var> = Vec::new();
    let mut slot_of: HashMap<Var, usize> = HashMap::new();
    let mut slot = |v: Var, slots: &mut Vec<Var>| -> usize {
        *slot_of.entry(v).or_insert_with(|| {
            slots.push(v);
            slots.len() - 1
        })
    };
    let mut bound: HashSet<Var> = HashSet::new();
    let mut ops: Vec<PhysOp> = Vec::with_capacity(cq.body.len() + 1);

    for lit in &cq.body {
        let atom = &lit.atom;
        let name = atom.predicate.name;
        let args: Vec<ArgSource> = atom
            .args
            .iter()
            .map(|&t| match t {
                Term::Const(c) => ArgSource::Const(Value::from(c)),
                Term::Var(v) => ArgSource::Slot(slot(v, &mut slots)),
            })
            .collect();
        if lit.positive {
            let arg_bound = |j: usize| match atom.args[j] {
                Term::Const(_) => true,
                Term::Var(v) => bound.contains(&v),
            };
            let (pattern, problem) = match schema.relation(name) {
                None => (None, Some(AccessProblem::UnknownRelation)),
                Some(decl) => match decl.usable_pattern(arg_bound) {
                    Some(p) => (Some(p), None),
                    None => (
                        None,
                        Some(AccessProblem::NoUsablePattern {
                            bound_positions: (0..atom.args.len()).filter(|&j| arg_bound(j)).collect(),
                        }),
                    ),
                },
            };
            bound.extend(lit.vars());
            let op = AccessOp {
                relation: name,
                pattern,
                problem,
                args,
                literal: display_adorned(lit, pattern),
                bound_after: bound_in_slot_order(&slots, &bound),
            };
            if ops.is_empty() {
                ops.push(PhysOp::Access(op));
            } else {
                ops.push(PhysOp::BindJoin(op));
            }
        } else {
            let mut unbound: Vec<Var> = Vec::new();
            for v in lit.vars() {
                if !bound.contains(&v) && !unbound.contains(&v) {
                    unbound.push(v);
                }
            }
            bound.extend(lit.vars());
            ops.push(PhysOp::NegFilter(NegOp {
                relation: name,
                args,
                unbound,
                literal: lit.to_string(),
                bound_after: bound_in_slot_order(&slots, &bound),
            }));
        }
    }

    let cols: Vec<ProjCol> = cq
        .head
        .args
        .iter()
        .map(|&t| match t {
            Term::Const(c) => ProjCol::Const(Value::from(c)),
            Term::Var(v) => {
                if bound.contains(&v) {
                    ProjCol::Slot(slot(v, &mut slots))
                } else if null_vars.contains(&v) {
                    ProjCol::Null
                } else {
                    ProjCol::Unbound(v)
                }
            }
        })
        .collect();
    ops.push(PhysOp::Project(ProjectOp {
        head: cq.head.to_string(),
        cols,
    }));

    PhysicalPlan {
        head: cq.head.clone(),
        slots,
        ops,
    }
}

fn bound_in_slot_order(slots: &[Var], bound: &HashSet<Var>) -> Vec<Var> {
    slots.iter().copied().filter(|v| bound.contains(v)).collect()
}

/// Lowers a union of ordered disjunct plans. The union head is taken from
/// the first part (callers that know the head — e.g. `UnionPlan` — may
/// overwrite it, which matters only for empty unions).
pub fn lower_union(parts: &[(ConjunctiveQuery, Vec<Var>)], schema: &Schema) -> PhysicalUnion {
    PhysicalUnion {
        head: parts.first().map(|(cq, _)| cq.head.clone()),
        parts: parts
            .iter()
            .map(|(cq, null_vars)| lower_cq(cq, null_vars, schema))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_ir::parse_cq;

    fn schema() -> Schema {
        Schema::from_patterns(&[("B", "ioo"), ("B", "oio"), ("C", "oo"), ("L", "o")]).unwrap()
    }

    #[test]
    fn patterns_are_chosen_at_plan_time() {
        let cq = parse_cq("Q(i, a, t) :- C(i, a), B(i, a, t), not L(i).").unwrap();
        let plan = lower_cq(&cq, &[], &schema());
        assert_eq!(plan.ops.len(), 4);
        let PhysOp::Access(c) = &plan.ops[0] else { panic!("{:?}", plan.ops[0]) };
        assert_eq!(c.pattern.unwrap().to_string(), "oo");
        // With i and a bound, both B patterns are usable; the tie resolves
        // exactly as the legacy per-tuple `usable_pattern` call resolved it.
        let PhysOp::BindJoin(b) = &plan.ops[1] else { panic!("{:?}", plan.ops[1]) };
        assert_eq!(b.pattern.unwrap().to_string(), "oio");
        assert_eq!(b.literal, "B^oio(i, a, t)");
        // …and the binding schema accumulates in slot order.
        assert_eq!(
            b.bound_after.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
            vec!["i", "a", "t"]
        );
        let PhysOp::NegFilter(n) = &plan.ops[2] else { panic!("{:?}", plan.ops[2]) };
        assert!(n.unbound.is_empty());
        assert_eq!(n.literal, "not L(i)");
        assert!(matches!(plan.ops[3], PhysOp::Project(_)));
    }

    #[test]
    fn boundness_is_uniform_along_the_pipeline() {
        // The columnar layout stores one column per *bound* slot with no
        // per-cell optionality; that is sound because `bound_after` only
        // ever grows along the pipeline (plan-time boundness covers every
        // row that reaches the operator).
        let cq =
            parse_cq("Q(i, a, t) :- C(i, a), B(i, a, t), not L(i), C(i, b).").unwrap();
        let plan = lower_cq(&cq, &[], &schema());
        let mut prev: Vec<lap_ir::Var> = Vec::new();
        // The projection reports no binding schema of its own — walk the
        // pipeline stages.
        for op in &plan.ops[..plan.ops.len() - 1] {
            let after = op.bound_after();
            assert!(
                prev.iter().all(|v| after.contains(v)),
                "{:?} shrank to {:?}",
                prev,
                after
            );
            prev = after.to_vec();
        }
        assert_eq!(prev.len(), plan.slots.len(), "all slots bound at the end");
    }

    #[test]
    fn unexecutable_order_lowers_to_an_error_node() {
        let cq = parse_cq("Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).").unwrap();
        let plan = lower_cq(&cq, &[], &schema());
        let PhysOp::Access(b) = &plan.ops[0] else { panic!("{:?}", plan.ops[0]) };
        assert!(b.pattern.is_none());
        assert_eq!(
            b.problem,
            Some(AccessProblem::NoUsablePattern { bound_positions: vec![] })
        );
        // No adornment when no pattern was chosen (the legacy error text
        // names the plain literal).
        assert_eq!(b.literal, "B(i, a, t)");
    }

    #[test]
    fn null_and_unbound_head_vars_lower_to_columns() {
        let cq = parse_cq("Q(i, t) :- C(i, a).").unwrap();
        let plan = lower_cq(&cq, &[Var::new("t")], &schema());
        let PhysOp::Project(p) = plan.ops.last().unwrap() else { panic!() };
        assert!(matches!(p.cols[0], ProjCol::Slot(_)));
        assert!(matches!(p.cols[1], ProjCol::Null));
        let plan = lower_cq(&cq, &[], &schema());
        let PhysOp::Project(p) = plan.ops.last().unwrap() else { panic!() };
        assert!(matches!(p.cols[1], ProjCol::Unbound(_)));
    }

    #[test]
    fn repeated_variable_in_one_atom_counts_as_unbound_for_the_pattern() {
        // R(x, x) with R^oo and R^io declared: at call time nothing is
        // bound, so only the free scan is usable (matching the legacy
        // per-tuple choice); the second x filters client-side.
        let schema = Schema::from_patterns(&[("R", "oo"), ("R", "io")]).unwrap();
        let cq = parse_cq("Q(x) :- R(x, x).").unwrap();
        let plan = lower_cq(&cq, &[], &schema);
        let PhysOp::Access(r) = &plan.ops[0] else { panic!() };
        assert_eq!(r.pattern.unwrap().to_string(), "oo");
        assert_eq!(r.args[0], r.args[1]);
    }

    #[test]
    fn pipeline_runs_sources_first_and_projects_last() {
        let cq = parse_cq("Q(i, a, t) :- C(i, a), B(i, a, t), not L(i).").unwrap();
        let plan = lower_cq(&cq, &[], &schema());
        let labels: Vec<String> = plan.ops.iter().map(PhysOp::label).collect();
        let expected = ["Access C^oo(i, a)", "BindJoin B^oio(i, a, t)", "NegFilter not L(i)"];
        assert_eq!(labels[..3], expected);
        assert_eq!(labels[3], "Project Q(i, a, t)");
        assert_eq!(plan.ops[0].bound_after(), [Var::new("i"), Var::new("a")]);
        assert!(plan.ops[3].bound_after().is_empty());
    }

    #[test]
    fn union_head_comes_from_the_first_part() {
        let p1 = parse_cq("Q(i) :- C(i, a).").unwrap();
        let u = lower_union(&[(p1, vec![])], &schema());
        assert_eq!(u.head.unwrap().to_string(), "Q(i)");
        assert!(lower_union(&[], &schema()).is_false());
    }
}
