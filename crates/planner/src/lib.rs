//! Cost-based plan optimization over limited-access sources — the
//! "capability-based optimization" layer the paper's introduction situates
//! itself in (\[FLMS99, PGH98\]).
//!
//! The paper's algorithms settle *whether* an executable plan exists
//! (FEASIBLE) and produce *a* plan (PLAN\*'s ANSWERABLE order). This crate
//! makes those plans cheap to run:
//!
//! * [`CostModel`] / [`estimate_cost`] — calls-and-tuples estimates for an
//!   ordered body executed as nested-loop source calls;
//! * [`greedy_order`] / [`best_order`] — heuristic and exact search over
//!   *executable* orders;
//! * [`optimize_plan_pair`] — re-orders PLAN\* output per [`Strategy`];
//! * [`op_costs`] / [`op_table`] — per-operator estimates of a lowered
//!   plan, and the one table that prints them (static `est`, calibrated
//!   `cal`) beside what a run's operators did;
//! * [`CostModel::calibrated`] / [`recalibrate_prepared`]
//!   — the feedback loop: re-cost a model from a journal-fed
//!   [`lap_obs::FeedbackStore`] and re-plan a prepared query under it;
//! * [`minimal_executable_plan`] — shrinks a feasible query's `ans(Q)`
//!   plan to an equivalent executable plan with no removable disjunct or
//!   literal (fewer source calls than the Theorem-16 witness).
//!
//! ```
//! use lap_planner::{greedy_order, CostModel};
//! use lap_ir::parse_program;
//!
//! let p = parse_program(
//!     "L^o. B^ioo. C^oo.\n\
//!      Q(t) :- C(i, a), B(i, a, t), L(i).",
//! )
//! .unwrap();
//! let q = &p.single_query().unwrap().disjuncts[0];
//! let model = CostModel::new()
//!     .with_extent("L", 5.0)
//!     .with_extent("C", 2_000.0)
//!     .with_extent("B", 10_000.0);
//! let ordered = greedy_order(q, &p.schema, &model).unwrap();
//! // The cheap seed L(i) now leads the plan.
//! assert_eq!(ordered.body[0].atom.predicate.name.as_str(), "L");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod feedback;
mod lower;
mod minimize;
mod order;

pub use cost::{estimate_cost, CostModel, PlanCost};
pub use feedback::{recalibrate_prepared, recalibrate_published};
pub use lower::{op_costs, op_table};
pub use minimize::minimal_executable_plan;
pub use order::{best_order, greedy_order, optimize_plan_pair, Strategy};
