//! Cost-annotated lowering: PLAN\* output → physical operator trees with
//! per-operator [`OpCost`] estimates.
//!
//! [`lower`] is the planner's counterpart of [`lap_core::lower_pair`]: the
//! same total lowering pass, followed by an annotation walk that charges
//! each operator what [`estimate_cost`](crate::estimate_cost) charges its
//! literal, through the same step function — each access/join operator
//! one call per expected incoming binding and `extent × selectivity^inputs`
//! transferred tuples per call, each negation one membership probe per
//! binding. The final projection carries
//! the pipeline totals, so the root of the printed tree reads as the
//! whole-plan estimate.
//!
//! Annotation stops at the first non-executable operator (no usable
//! pattern, unknown relation, or unbound negation): downstream estimates
//! would be meaningless, and such plans only exist to raise their error
//! lazily.

use crate::cost::{literal_step, CostModel};
use lap_core::{PhysicalPair, PlanPair};
use lap_engine::{ArgSource, OpCost, PhysOp, PhysicalPlan};
use lap_ir::{Schema, Var};
use std::collections::HashSet;

/// Which annotation slot a pass writes: the static estimate shown as
/// `est …`, or the journal-calibrated one shown as `cal …`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CostSlot {
    Static,
    Calibrated,
}

/// Lowers both PLAN\* estimate plans to physical trees and annotates every
/// operator with its [`OpCost`] under `model`. With `calibrated`, every
/// operator also carries the calibrated estimate, so `explain` renders
/// `(est …; cal …)` and the reader sees why the calibrated plan differs
/// from the static one.
pub fn lower(
    pair: &PlanPair,
    schema: &Schema,
    model: &CostModel,
    calibrated: Option<&CostModel>,
) -> PhysicalPair {
    let mut physical = lap_core::lower_pair(pair, schema);
    for plan in physical.under.parts.iter_mut().chain(&mut physical.over.parts) {
        annotate_plan(plan, model, CostSlot::Static);
        if let Some(calibrated) = calibrated {
            annotate_plan(plan, calibrated, CostSlot::Calibrated);
        }
    }
    physical
}

fn annotate_plan(plan: &mut PhysicalPlan, model: &CostModel, slot: CostSlot) {
    let mut bound: HashSet<Var> = HashSet::new();
    let mut bindings = 1.0f64;
    let mut total = OpCost { calls: 0.0, tuples: 0.0, batches: 0.0 };
    // Batch windows an operator sees: its incoming bindings over the
    // vectorized executor's width, never less than one window.
    let windows = |bindings: f64| (bindings / model.batch_width).ceil().max(1.0);
    // Split borrows: the walk needs each op mutably plus the slot table.
    let slots = plan.slots.clone();
    let arg_bound = |arg: &ArgSource, bound: &HashSet<Var>| match arg {
        ArgSource::Const(_) => true,
        ArgSource::Slot(s) => bound.contains(&slots[*s]),
    };
    for op in &mut plan.ops {
        // The operator's literal: its relation and, for a call, (input
        // slots, bound positions); `None` for the projection.
        let literal = match &*op {
            PhysOp::Access(a) | PhysOp::BindJoin(a) => {
                let Some(pattern) = a.pattern else { return };
                let bound_positions =
                    a.args.iter().filter(|arg| arg_bound(arg, &bound)).count();
                bound.extend(a.bound_after.iter().copied());
                Some((a.relation, Some((pattern.num_inputs(), bound_positions))))
            }
            PhysOp::NegFilter(n) => {
                if !n.unbound.is_empty() {
                    return;
                }
                bound.extend(n.bound_after.iter().copied());
                Some((n.relation, None))
            }
            PhysOp::Project(_) => None,
        };
        let cost = match literal {
            Some((relation, access)) => {
                let (step, next) = literal_step(model, bindings, relation, access);
                let batches = windows(bindings);
                let cost = OpCost { calls: step.calls, tuples: step.tuples, batches };
                total.calls += cost.calls;
                total.tuples += cost.tuples;
                total.batches += cost.batches;
                bindings = next;
                cost
            }
            None => total,
        };
        match slot {
            CostSlot::Static => *op.cost_mut() = Some(cost),
            CostSlot::Calibrated => *op.calibrated_mut() = Some(cost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate_cost;
    use lap_core::plan_star;
    use lap_ir::parse_program;

    fn setup(text: &str) -> (PlanPair, Schema) {
        let p = parse_program(text).unwrap();
        (plan_star(p.single_query().unwrap(), &p.schema), p.schema)
    }

    #[test]
    fn project_cost_matches_estimate_cost_totals() {
        let (pair, schema) = setup(
            "L^o. B^ioo. C^oo.\n\
             Q(t) :- L(i), B(i, a, t), C(i, a).",
        );
        let model = CostModel::new()
            .with_extent("L", 5.0)
            .with_extent("B", 10_000.0)
            .with_extent("C", 2_000.0);
        let physical = lower(&pair, &schema, &model, None);
        let plan = &physical.under.parts[0];
        let expected = estimate_cost(&pair.under.parts[0].cq, &schema, &model).unwrap();
        let PhysOp::Project(p) = plan.ops.last().unwrap() else { panic!() };
        let got = p.cost.unwrap();
        assert!((got.calls - expected.calls).abs() < 1e-9, "{got} vs {expected:?}");
        assert!((got.tuples - expected.tuples).abs() < 1e-9, "{got} vs {expected:?}");
        // Every operator carries an estimate, and the first scan costs one call.
        assert!(plan.ops.iter().all(|op| op.cost().is_some()));
        assert!((plan.ops[0].cost().unwrap().calls - 1.0).abs() < 1e-9);
    }

    #[test]
    fn batch_width_scales_the_batches_term_only() {
        let (pair, schema) = setup(
            "L^o. B^ioo.\n\
             Q(t) :- L(i), B(i, a, t).",
        );
        // 5000 L rows reach the join: width 1024 → 5 windows, width 64 →
        // 79 windows, while calls/tuples are untouched by the width.
        let wide = CostModel::new().with_extent("L", 5_000.0).with_extent("B", 10.0);
        let narrow = wide.clone().with_batch_width(64);
        let join_wide = lower(&pair, &schema, &wide, None).under.parts[0].ops[1].cost().unwrap();
        let join_narrow =
            lower(&pair, &schema, &narrow, None).under.parts[0].ops[1].cost().unwrap();
        assert!((join_wide.batches - 5.0).abs() < 1e-9, "{join_wide}");
        assert!((join_narrow.batches - 79.0).abs() < 1e-9, "{join_narrow}");
        assert_eq!(join_wide.calls, join_narrow.calls);
        assert_eq!(join_wide.tuples, join_narrow.tuples);
        // A leaf access always sees exactly the one unit window.
        let leaf = lower(&pair, &schema, &wide, None).under.parts[0].ops[0].cost().unwrap();
        assert!((leaf.batches - 1.0).abs() < 1e-9, "{leaf}");
    }

    #[test]
    fn negation_halves_the_bindings() {
        let (pair, schema) = setup(
            "C^oo. L^o.\n\
             Q(i) :- C(i, a), not L(i), C(i, b).",
        );
        let model = CostModel::new().with_extent("C", 10.0).with_extent("L", 10.0);
        let physical = lower(&pair, &schema, &model, None);
        let ops = &physical.under.parts[0].ops;
        let neg = ops[1].cost().unwrap();
        let after = ops[2].cost().unwrap();
        assert!((neg.calls - 10.0).abs() < 1e-9); // one probe per C row
        assert!((after.calls - 5.0).abs() < 1e-9); // half survive
    }

    #[test]
    fn annotation_stops_at_non_executable_operators() {
        // Overestimate of a B^ii query: the answerable part is empty, so
        // the only ops are the projection — but force a broken pipeline via
        // an unorderable disjunct that PLAN* keeps (answerable prefix, then
        // nothing): use a query whose over plan keeps an executable prefix.
        let (pair, schema) = setup(
            "R^oo. B^ii.\n\
             Q(x) :- R(x, y), B(x, y).",
        );
        let model = CostModel::new();
        let physical = lower(&pair, &schema, &model, None);
        // The over plan is R(x, y) only (B is unanswerable and dropped), so
        // it annotates fully…
        assert!(physical.over.parts[0].ops.iter().all(|op| op.cost().is_some()));
        // …while a hand-lowered unexecutable order (B first, nothing bound)
        // stops at the error node.
        let p = parse_program("R^oo. B^ii.\nQ(x) :- B(x, y), R(x, y).").unwrap();
        let q = p.single_query().unwrap();
        let mut broken =
            lap_engine::lower_union(&[(q.disjuncts[0].clone(), vec![])], &schema);
        annotate_plan(&mut broken.parts[0], &model, CostSlot::Static);
        let ops = &broken.parts[0].ops;
        assert!(ops[0].cost().is_none(), "error node gets no estimate");
        assert!(ops.last().unwrap().cost().is_none());
    }
}
