//! The algorithms of *Nash & Ludäscher, "Processing Unions of Conjunctive
//! Queries with Negation under Limited Access Patterns" (EDBT 2004)*.
//!
//! | Paper item | Entry point |
//! |---|---|
//! | Fig. 1 — ANSWERABLE, `ans(Q)` (Defs. 6–7) | [`answerable_split`], [`ans`] |
//! | Defs. 3–4 — executable / orderable | [`is_executable`], [`is_orderable`], [`executable_order`] |
//! | Fig. 2 — PLAN\* (`Qᵘ`, `Qᵒ`) | [`plan_star`] |
//! | Fig. 3 — FEASIBLE | [`FeasibilityReport::decide`] (the one copy of the figure); presets [`feasible`], [`feasible_detailed`], [`feasible_detailed_with`]; [`explain`] says why |
//! | Figs. 1–3 at compile time (§4) | [`PreparedQuery::compile`] (one driver, one [`CompileOptions`] value: PLAN\* once, FEASIBLE only when given an engine, lowering once) |
//! | Fig. 4 — ANSWER\* | [`answer_star`], [`answer_star_opts`] (one driver, one [`AnswerOptions`] value) |
//! | §4.2, Ex. 8 — `dom(x)` refinement of `ansᵤ` | [`AnswerOptions::domain`], [`AnswerOutcome::refinement`] (a phase of the one driver) |
//! | Thm. 18 / Prop. 20 — hardness reductions | [`containment_to_feasibility`], [`containment_to_feasibility_cqn`] |
//!
//! ```
//! use lap_core::{feasible_detailed, DecisionPath};
//! use lap_ir::parse_program;
//!
//! // Example 1 of the paper: not executable as written, but feasible —
//! // and PLAN* detects it without any containment check.
//! let p = parse_program(
//!     "B^ioo. B^oio. C^oo. L^o.\n\
//!      Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
//! )
//! .unwrap();
//! let report = feasible_detailed(p.single_query().unwrap(), &p.schema);
//! assert!(report.feasible);
//! assert_eq!(report.decided_by, DecisionPath::PlansCoincide);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod answer;
mod answerable;
mod cache;
mod executable;
mod explain;
mod feasible;
mod plan;
mod prepared;
mod reduction;
mod render;

pub use answer::{
    answer_star, answer_star_obs_cfg, answer_star_opts, answer_star_resilient_cfg,
    AnswerOptions, AnswerOutcome, AnswerReport, AnswerSource, Completeness, DegradationReport,
    PairProfile, Refinement,
};
pub use answerable::{
    ans, answerable_literals, answerable_split, is_q_answerable, literal_executable,
    AnswerableSplit,
};
pub use explain::{explain, BlockedLiteral, DisjunctDiagnosis, Explanation};
pub use executable::{
    choose_adornments, executable_order, is_executable, is_executable_cq, is_orderable,
    is_orderable_cq,
};
pub use feasible::{
    feasible, feasible_detailed, feasible_detailed_with, DecisionPath, FeasibilityReport,
};
pub use lap_containment::{ContainmentEngine, ContainmentStats, EngineConfig, EngineStats};
pub use plan::{lower_pair, plan_star, CqPlan, PhysicalPair, PlanPair, UnionPlan};
pub use cache::{canonical_text, PlanCache, PlanCacheEntry, PlanCacheStats, DEFAULT_CACHE_BYTES};
pub use prepared::{CompileOptions, PreparedProgram, PreparedQuery};
pub use render::{render_answer_report, render_outcome, render_refinement};
pub use reduction::{
    containment_to_feasibility, containment_to_feasibility_cqn, FeasibilityInstance,
};
