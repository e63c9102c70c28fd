//! Algorithm PLAN\* (paper, Figure 2): underestimate and overestimate
//! execution plans.

use crate::answerable::answerable_split;
use lap_ir::{display_adorned, ConjunctiveQuery, Schema, UnionQuery, Var};
use lap_obs::Json;
use std::collections::HashSet;
use std::fmt;

use crate::executable::choose_adornments;

/// One executable CQ¬ plan: a body in executable order plus the head
/// variables to be emitted as `null` (only overestimate plans have any).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CqPlan {
    /// The query with its body in executable order.
    pub cq: ConjunctiveQuery,
    /// Head variables not bound by the body, emitted as `null`
    /// (the paper's `y = null` equations, Example 4).
    pub null_vars: Vec<Var>,
}

impl CqPlan {
    /// True iff this plan emits `null` values.
    pub fn has_null(&self) -> bool {
        !self.null_vars.is_empty()
    }

    /// Renders the plan with adornments when `schema` can supply them,
    /// e.g. `Q(x, y) :- R^oo(x, z), not S^o(z), y = null.`
    pub fn display_with(&self, schema: &Schema) -> String {
        let adorn = choose_adornments(&self.cq, schema);
        let mut parts: Vec<String> = self
            .cq
            .body
            .iter()
            .enumerate()
            .map(|(i, lit)| display_adorned(lit, adorn.as_ref().map(|a| a[i])))
            .collect();
        for v in &self.null_vars {
            parts.push(format!("{v} = null"));
        }
        if parts.is_empty() {
            parts.push("true".to_owned());
        }
        format!("{} :- {}.", self.cq.head, parts.join(", "))
    }
}

impl fmt::Display for CqPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = self.cq.body.iter().map(|l| l.to_string()).collect();
        for v in &self.null_vars {
            parts.push(format!("{v} = null"));
        }
        if parts.is_empty() {
            parts.push("true".to_owned());
        }
        write!(f, "{} :- {}.", self.cq.head, parts.join(", "))
    }
}

/// An executable UCQ¬ plan: a (possibly empty) union of [`CqPlan`]s.
/// The empty union is the plan `false`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnionPlan {
    /// The shared head atom (kept even when the union is empty).
    pub head: lap_ir::Atom,
    /// The executable disjunct plans.
    pub parts: Vec<CqPlan>,
}

impl UnionPlan {
    /// True iff the plan is `false` (no disjuncts).
    pub fn is_false(&self) -> bool {
        self.parts.is_empty()
    }

    /// True iff some disjunct emits nulls.
    pub fn has_null(&self) -> bool {
        self.parts.iter().any(CqPlan::has_null)
    }

    /// The plan as a plain UCQ¬ query. Only meaningful when
    /// [`UnionPlan::has_null`] is false (null equations are not part of the
    /// query language); `None` otherwise. A `false` plan maps to the empty
    /// union.
    pub fn as_query(&self) -> Option<UnionQuery> {
        if self.has_null() {
            return None;
        }
        if self.parts.is_empty() {
            return Some(UnionQuery::empty(self.head.clone()));
        }
        UnionQuery::new(self.parts.iter().map(|p| p.cq.clone()).collect()).ok()
    }

    /// The `(query, null-vars)` pairs consumed by the engine's
    /// [`lap_engine::eval_ordered_union`].
    pub fn eval_parts(&self) -> Vec<(ConjunctiveQuery, Vec<Var>)> {
        self.parts
            .iter()
            .map(|p| (p.cq.clone(), p.null_vars.clone()))
            .collect()
    }
}

impl fmt::Display for UnionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parts.is_empty() {
            return write!(f, "{} :- false.", self.head);
        }
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// The lowered counterpart of a [`PlanPair`]: both estimate plans as
/// physical operator pipelines, ready for the batched executor.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalPair {
    /// `Qᵘ`, lowered.
    pub under: lap_engine::PhysicalUnion,
    /// `Qᵒ`, lowered.
    pub over: lap_engine::PhysicalUnion,
}

/// Lowers both plans of a [`PlanPair`] against `schema`, one pipeline per
/// disjunct (with the union head kept even when a plan is `false`). Total,
/// like [`lap_engine::lower_cq`]: any problem is carried inside the
/// operators and surfaces only if execution reaches it.
pub fn lower_pair(pair: &PlanPair, schema: &Schema) -> PhysicalPair {
    let lower = |plan: &UnionPlan| {
        let parts = plan.parts.iter().map(|p| lap_engine::lower_cq(&p.cq, &p.null_vars, schema));
        lap_engine::PhysicalUnion { head: Some(plan.head.clone()), parts: parts.collect() }
    };
    PhysicalPair { under: lower(&pair.under), over: lower(&pair.over) }
}

/// The pair of plans PLAN\* produces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanPair {
    /// `Qᵘ` — sound underestimate: only disjuncts whose every literal is
    /// answerable survive, so `Qᵘ ⊑ Q`.
    pub under: UnionPlan,
    /// `Qᵒ` — complete overestimate: every satisfiable disjunct survives as
    /// its answerable part, unbound head variables becoming `null`, so
    /// `Q ⊑ Qᵒ` (reading `null` as "possibly more answers here").
    pub over: UnionPlan,
}

impl PlanPair {
    /// The compile-time fast path of FEASIBLE: if the two plans coincide,
    /// `Q` is orderable (hence feasible) and `Qᵘ` is an exact plan.
    pub fn coincide(&self) -> bool {
        self.under == self.over
    }

    /// How `planned`, a re-ordering of this pair's bodies, orders each
    /// disjunct: `{"under": [[…], …], "over": [[…], …]}`, one list per
    /// disjunct naming each literal by its position in this pair's body.
    /// A journal of a run given plans records it, so a replay can run the
    /// same order ([`PlanPair::reordered`]).
    pub fn body_order(&self, planned: &PlanPair) -> Json {
        let side = |star: &UnionPlan, planned: &UnionPlan| {
            let orders = star.parts.iter().zip(&planned.parts).map(|(star, planned)| {
                let mut used = vec![false; star.cq.body.len()];
                let positions = planned.cq.body.iter().map(|lit| {
                    let at = (0..used.len())
                        .find(|&i| !used[i] && star.cq.body[i] == *lit)
                        .expect("a re-ordering of the same body");
                    used[at] = true;
                    Json::num(at as u64)
                });
                Json::Arr(positions.collect())
            });
            Json::Arr(orders.collect())
        };
        Json::obj([
            ("under", side(&self.under, &planned.under)),
            ("over", side(&self.over, &planned.over)),
        ])
    }

    /// This pair with every disjunct's body in the order `order` (a
    /// [`PlanPair::body_order`] document) gives it; an error says which
    /// list does not fit.
    pub fn reordered(&self, order: &Json) -> Result<PlanPair, String> {
        let side = |plan: &UnionPlan, key: &str| {
            let bad = || format!("body order {key:?} does not fit the plan");
            let orders = order.get(key).and_then(Json::as_arr).ok_or_else(bad)?;
            if orders.len() != plan.parts.len() {
                return Err(bad());
            }
            let mut out = plan.clone();
            for (part, positions) in out.parts.iter_mut().zip(orders) {
                let positions: Vec<usize> = positions
                    .as_arr()
                    .and_then(|p| p.iter().map(|i| i.as_u64().map(|i| i as usize)).collect())
                    .ok_or_else(bad)?;
                let mut sorted = positions.clone();
                sorted.sort_unstable();
                if !sorted.iter().copied().eq(0..part.cq.body.len()) {
                    return Err(bad());
                }
                part.cq.body = positions.iter().map(|&i| part.cq.body[i].clone()).collect();
            }
            Ok(out)
        };
        Ok(PlanPair { under: side(&self.under, "under")?, over: side(&self.over, "over")? })
    }
}

/// Algorithm PLAN\* (Figure 2). Quadratic in the size of `Q`.
///
/// For each disjunct `Qᵢ`:
/// * unsatisfiable ⇒ contributes to neither plan (`false` disjunct);
/// * `Uᵢ = ∅` ⇒ `Aᵢ` (in executable order) joins **both** plans;
/// * `Uᵢ ≠ ∅` ⇒ `Qᵢ` is dropped from `Qᵘ`; `Qᵢᵒ = Aᵢ` with every head
///   variable not occurring in `Aᵢ` set to `null` joins `Qᵒ`.
pub fn plan_star(q: &UnionQuery, schema: &Schema) -> PlanPair {
    plan_star_recorded(q, schema, &lap_obs::Recorder::disabled())
}

/// [`plan_star`] under `recorder`: the whole computation runs in a `plan*`
/// span with a nested `answerable` span covering the per-disjunct
/// ANSWERABLE splits (Figure 1). Reached through
/// [`crate::PreparedQuery::compile`].
pub(crate) fn plan_star_recorded(
    q: &UnionQuery,
    schema: &Schema,
    recorder: &lap_obs::Recorder,
) -> PlanPair {
    let _span = recorder.span("plan*");
    let splits: Vec<_> = {
        let _answerable = recorder.span("answerable");
        q.disjuncts
            .iter()
            .map(|cq| answerable_split(cq, schema))
            .collect()
    };
    let mut under = Vec::new();
    let mut over = Vec::new();
    for (cq, split) in q.disjuncts.iter().zip(&splits) {
        if split.unsatisfiable {
            continue;
        }
        let a_query = ConjunctiveQuery::new(cq.head.clone(), split.answerable.clone());
        let a_vars: HashSet<Var> = a_query.body.iter().flat_map(|l| l.vars()).collect();
        let null_vars: Vec<Var> = a_query
            .free_vars()
            .into_iter()
            .filter(|v| !a_vars.contains(v))
            .collect();
        let over_plan = CqPlan {
            cq: a_query.clone(),
            null_vars,
        };
        if split.unanswerable.is_empty() {
            debug_assert!(!over_plan.has_null(), "safe fully-answerable plan has no nulls");
            under.push(over_plan.clone());
        }
        over.push(over_plan);
    }
    PlanPair {
        under: UnionPlan {
            head: q.head.clone(),
            parts: under,
        },
        over: UnionPlan {
            head: q.head.clone(),
            parts: over,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_ir::parse_program;

    fn plans(text: &str) -> (PlanPair, Schema) {
        let p = parse_program(text).unwrap();
        let q = p.single_query().unwrap();
        (plan_star(q, &p.schema), p.schema)
    }

    #[test]
    fn example_4_under_and_over() {
        let (pair, _) = plans(
            "S^o. R^oo. B^ii. T^oo.\n\
             Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
             Q(x, y) :- T(x, y).",
        );
        // Qᵘ: first disjunct dropped (B unanswerable); T stays.
        assert_eq!(pair.under.parts.len(), 1);
        assert_eq!(pair.under.parts[0].to_string(), "Q(x, y) :- T(x, y).");
        // Qᵒ: first disjunct becomes R(x,z), ¬S(z), y = null; T stays.
        assert_eq!(pair.over.parts.len(), 2);
        assert_eq!(
            pair.over.parts[0].to_string(),
            "Q(x, y) :- R(x, z), not S(z), y = null."
        );
        assert_eq!(pair.over.parts[1].to_string(), "Q(x, y) :- T(x, y).");
        assert!(pair.over.has_null());
        assert!(!pair.coincide());
    }

    #[test]
    fn orderable_query_has_coinciding_plans() {
        let (pair, schema) = plans(
            "B^ioo. B^oio. C^oo. L^o.\n\
             Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
        );
        assert!(pair.coincide());
        assert!(!pair.over.has_null());
        // The shared plan is executable as ordered.
        for part in &pair.under.parts {
            assert!(crate::executable::is_executable_cq(&part.cq, &schema));
        }
    }

    #[test]
    fn unsat_disjunct_contributes_to_neither() {
        let (pair, _) = plans(
            "R^oo.\n\
             Q(x) :- R(x, y), not R(x, y).\n\
             Q(x) :- R(x, x).",
        );
        assert_eq!(pair.under.parts.len(), 1);
        assert_eq!(pair.over.parts.len(), 1);
        assert!(pair.coincide());
    }

    #[test]
    fn fully_unanswerable_disjunct_becomes_all_null_row() {
        let (pair, _) = plans(
            "B^ii.\n\
             Q(x, y) :- B(x, y).",
        );
        assert!(pair.under.is_false());
        assert_eq!(pair.over.parts.len(), 1);
        let p = &pair.over.parts[0];
        assert!(p.cq.body.is_empty());
        assert_eq!(p.null_vars.len(), 2);
        assert_eq!(p.to_string(), "Q(x, y) :- x = null, y = null.");
    }

    #[test]
    fn as_query_respects_nulls() {
        let (pair, _) = plans(
            "S^o. R^oo. B^ii. T^oo.\n\
             Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
             Q(x, y) :- T(x, y).",
        );
        assert!(pair.over.as_query().is_none());
        let uq = pair.under.as_query().unwrap();
        assert_eq!(uq.disjuncts.len(), 1);
    }

    #[test]
    fn false_plan_as_query_is_empty_union() {
        let (pair, _) = plans("B^ii.\nQ(x, y) :- B(x, y).");
        let uq = pair.under.as_query().unwrap();
        assert!(uq.is_false());
        assert_eq!(pair.under.to_string(), "Q(x, y) :- false.");
    }

    #[test]
    fn display_with_adornments() {
        let (pair, schema) = plans(
            "C^oo. B^ioo. L^o.\n\
             Q(i, t) :- C(i, a), B(i, a, t), not L(i).",
        );
        let shown = pair.under.parts[0].display_with(&schema);
        assert_eq!(shown, "Q(i, t) :- C^oo(i, a), B^ioo(i, a, t), not L^o(i).");
    }

    #[test]
    fn body_order_round_trips_and_bad_orders_are_refused() {
        let (star, _) = plans(
            "C^oo. L^o.\n\
             Q(i) :- C(i, a), not L(i), C(i, b).",
        );
        let mut planned = star.clone();
        for plan in [&mut planned.under, &mut planned.over] {
            plan.parts[0].cq.body.swap(1, 2);
        }
        let order = star.body_order(&planned);
        assert_eq!(order.get("under").unwrap().to_compact(), "[[0,2,1]]");
        assert_eq!(star.reordered(&order).unwrap(), planned);
        assert_eq!(star.reordered(&star.body_order(&star)).unwrap(), star);
        let repeated = r#"{"under": [[0, 1, 1]], "over": [[0, 1, 2]]}"#;
        for bad in ["{}", repeated, r#"{"under": [], "over": []}"#] {
            let err = star.reordered(&lap_obs::json::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains("does not fit the plan"), "{bad}: {err}");
        }
    }
}
