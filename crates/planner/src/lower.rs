//! Per-operator estimates of a lowered plan, and the one operator table
//! that prints them beside what a run did.
//!
//! [`op_costs`] charges each operator of a physical pipeline what
//! [`estimate_cost`](crate::estimate_cost) charges its literal, through the
//! same step function — each access/join operator one call per expected
//! incoming binding and `extent × selectivity^inputs` transferred tuples
//! per call, each negation one membership probe per binding. The final
//! projection carries the pipeline totals, so the last row of a table
//! reads as the whole-plan estimate.
//!
//! The estimates stop at the first non-executable operator (no usable
//! pattern, unknown relation, or unbound negation): downstream estimates
//! would be meaningless, and such plans only exist to raise their error
//! lazily.
//!
//! Estimates are computed where they are read — `lapq explain`, `lapq
//! profile` and the daemon's recalibration events — and are no part of the
//! operator IR that executes.

use crate::cost::{literal_step, CostModel, PlanCost};
use lap_engine::{ArgSource, OpProfile, PhysOp, PhysicalPlan, PhysicalUnion, UnionProfile};
use lap_ir::Var;
use std::collections::HashSet;

/// Output at this multiple of an operator's estimated tuples marks the
/// estimate as blown in a profiled table.
const BLOWN_FACTOR: f64 = 10.0;

/// The estimate of every operator of `plan` under `model`, in pipeline
/// order: one [`PlanCost`] per operator up to the first non-executable
/// one, which ends the list. When the whole pipeline is executable the
/// last entry is the projection's, the pipeline totals.
pub fn op_costs(plan: &PhysicalPlan, model: &CostModel) -> Vec<PlanCost> {
    let mut bound: HashSet<Var> = HashSet::new();
    let mut bindings = 1.0f64;
    let mut total = PlanCost::zero();
    let arg_bound = |arg: &ArgSource, bound: &HashSet<Var>| match arg {
        ArgSource::Const(_) => true,
        ArgSource::Slot(s) => bound.contains(&plan.slots[*s]),
    };
    let mut costs = Vec::with_capacity(plan.ops.len());
    for op in &plan.ops {
        // The operator's literal: its relation and, for a call, (input
        // slots, bound positions); `None` for the projection.
        let (relation, access) = match op {
            PhysOp::Access(a) | PhysOp::BindJoin(a) => {
                let Some(pattern) = a.pattern else { break };
                let bound_positions =
                    a.args.iter().filter(|arg| arg_bound(arg, &bound)).count();
                bound.extend(a.bound_after.iter().copied());
                (a.relation, Some((pattern.num_inputs(), bound_positions)))
            }
            PhysOp::NegFilter(n) => {
                if !n.unbound.is_empty() {
                    break;
                }
                bound.extend(n.bound_after.iter().copied());
                (n.relation, None)
            }
            PhysOp::Project(_) => {
                costs.push(total);
                continue;
            }
        };
        let (step, next) = literal_step(model, bindings, relation, access);
        total.calls += step.calls;
        total.tuples += step.tuples;
        bindings = next;
        costs.push(step);
    }
    costs
}

/// Renders `union`'s operators, one table per disjunct, in pipeline order:
/// each operator's label, the variables bound after it, its estimate under
/// `model` (`est`) and, given `calibrated`, under the journal-calibrated
/// model too (`cal`). Given the `profile` of a run of `union`, the tables
/// cover the disjuncts that ran, add what each operator did, and mark an
/// operator whose output reached ten times its estimated tuples.
pub fn op_table(
    union: &PhysicalUnion,
    model: &CostModel,
    calibrated: Option<&CostModel>,
    profile: Option<&UnionProfile>,
) -> String {
    // (plan position, heading, what each operator did)
    let shown: Vec<(usize, String, Option<&[OpProfile]>)> = match profile {
        Some(profile) => profile
            .parts
            .iter()
            .map(|p| (p.index, format!("{} — {} answer(s)", p.head, p.answers), Some(&p.ops[..])))
            .collect(),
        None => {
            union.parts.iter().enumerate().map(|(i, p)| (i, p.head.to_string(), None)).collect()
        }
    };
    if shown.is_empty() {
        return if profile.is_some() { "  (no disjunct ran)\n" } else { "  (no disjunct: false)\n" }
            .to_owned();
    }
    let mut out = String::new();
    for (n, (index, heading, ran)) in shown.into_iter().enumerate() {
        if n > 0 {
            out.push('\n');
        }
        out.push_str(&format!("disjunct {index}: {heading}\n"));
        let plan = &union.parts[index];
        let est = op_costs(plan, model);
        let cal = calibrated.map(|model| op_costs(plan, model));
        let mut header = vec!["operator", "bound", "est calls", "est tuples"];
        if cal.is_some() {
            header.extend(["cal calls", "cal tuples"]);
        }
        if ran.is_some() {
            header.extend(["invoked", "batches", "calls", "rows", "out", "fill%"]);
        }
        let mut rows = vec![header.into_iter().map(str::to_owned).collect::<Vec<_>>()];
        for (i, op) in plan.ops.iter().enumerate() {
            let names: Vec<String> = op.bound_after().iter().map(Var::to_string).collect();
            let bound = if names.is_empty() { "-".to_owned() } else { names.join(", ") };
            let mut row = vec![op.label(), bound];
            for costs in std::iter::once(&est).chain(&cal) {
                match costs.get(i) {
                    Some(c) => row.extend([format!("{:.1}", c.calls), format!("{:.1}", c.tuples)]),
                    None => row.extend(["-".to_owned(), "-".to_owned()]),
                }
            }
            if let Some(p) = ran.map(|ops| &ops[i]) {
                row.extend([
                    p.rows_in.to_string(),
                    p.batches.to_string(),
                    p.calls.to_string(),
                    p.source_rows.to_string(),
                    p.rows_out.to_string(),
                    format!("{:.0}", p.fill_rate() * 100.0),
                ]);
                let blown = |c: &PlanCost| p.rows_out as f64 >= BLOWN_FACTOR * c.tuples.max(1.0);
                if est.get(i).is_some_and(blown) {
                    row.push("← out ≥ 10× est tuples".to_owned());
                }
            }
            rows.push(row);
        }
        let mut widths = vec![0; rows.iter().map(Vec::len).max().unwrap_or(0)];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        for row in &rows {
            let mut line = String::new();
            for (w, cell) in widths.iter().zip(row) {
                line.push_str(&format!("  {cell:<w$}"));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate_cost;
    use lap_core::{lower_pair, plan_star, AnswerOptions, PlanPair};
    use lap_engine::Database;
    use lap_ir::{parse_program, Schema};
    use lap_obs::Recorder;

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
        let plan = &lower_pair(&pair, &schema).under.parts[0];
        let costs = op_costs(plan, &model);
        let expected = estimate_cost(&pair.under.parts[0].cq, &schema, &model).unwrap();
        let got = costs.last().unwrap();
        assert!((got.calls - expected.calls).abs() < 1e-9, "{got:?} vs {expected:?}");
        assert!((got.tuples - expected.tuples).abs() < 1e-9, "{got:?} vs {expected:?}");
        // Every operator has an estimate, and the first scan costs one call.
        assert_eq!(costs.len(), plan.ops.len());
        assert!((costs[0].calls - 1.0).abs() < 1e-9);
    }

    #[test]
    fn negation_halves_the_bindings() {
        let (pair, schema) = setup(
            "C^oo. L^o.\n\
             Q(i) :- C(i, a), not L(i), C(i, b).",
        );
        let model = CostModel::new().with_extent("C", 10.0).with_extent("L", 10.0);
        let costs = op_costs(&lower_pair(&pair, &schema).under.parts[0], &model);
        assert!((costs[1].calls - 10.0).abs() < 1e-9); // one probe per C row
        assert!((costs[2].calls - 5.0).abs() < 1e-9); // half survive
    }

    #[test]
    fn annotation_stops_at_non_executable_operators() {
        let (pair, schema) = setup(
            "R^oo. B^ii.\n\
             Q(x) :- R(x, y), B(x, y).",
        );
        let model = CostModel::new();
        // The over plan is R(x, y) only (B is unanswerable and dropped), so
        // every operator has an estimate…
        let over = &lower_pair(&pair, &schema).over.parts[0];
        assert_eq!(op_costs(over, &model).len(), over.ops.len());
        // …while a hand-lowered unexecutable order (B first, nothing bound)
        // stops at the error node: neither it nor the projection is costed.
        let p = parse_program("R^oo. B^ii.\nQ(x) :- B(x, y), R(x, y).").unwrap();
        let q = p.single_query().unwrap();
        let broken = lap_engine::lower_union(&[(q.disjuncts[0].clone(), vec![])], &schema);
        assert!(op_costs(&broken.parts[0], &model).is_empty());
        let table = op_table(&broken, &model, None, None);
        let project = table.lines().find(|l| l.contains("Project Q(x)")).unwrap();
        assert!(project.split_whitespace().skip(2).all(|cell| cell == "-"), "{table}");
    }

    /// `explain`'s table and `profile`'s table name the same operators in
    /// the same order: both walk the pipeline the run executes.
    #[test]
    fn explain_and_profile_tables_name_the_same_operators() {
        let p = parse_program(include_str!("../../../examples/data/bookstore.lap")).unwrap();
        let db = Database::from_facts(include_str!("../../../examples/data/bookstore_facts.lap"))
            .unwrap();
        let q = p.single_query().unwrap();
        let quiet = Recorder::disabled();
        let outcome = lap_core::answer_star_opts(q, &p.schema, &db, &AnswerOptions::new(&quiet))
            .unwrap();
        let physical = lower_pair(&outcome.report.plans, &p.schema);
        let model = CostModel::new();
        let explained = op_table(&physical.under, &model, None, None);
        let profiled = op_table(&physical.under, &model, None, Some(&outcome.profile.under));
        let labels = |table: &str| -> Vec<String> {
            let ops = table.lines().filter(|l| l.starts_with("  ") && !l.contains("operator"));
            ops.map(|l| l.trim_start().split("  ").next().unwrap().to_owned()).collect()
        };
        let expected = ["Access C^oo(i, a)", "NegFilter not L(i)", "BindJoin B^oio(i, a, t)"];
        assert_eq!(labels(&explained)[..3], expected, "{explained}");
        assert_eq!(labels(&explained), labels(&profiled), "{explained}\n{profiled}");
        assert!(explained.starts_with("disjunct 0: Q(i, a, t)\n"), "{explained}");
        assert!(profiled.starts_with("disjunct 0: Q(i, a, t) — 1 answer(s)\n"), "{profiled}");
        assert!(!explained.contains("invoked") && profiled.contains("invoked"), "{profiled}");
    }
}
