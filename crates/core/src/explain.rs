//! Feasibility explanations for "view design and view debugging" (paper,
//! Section 4.1): *why* is a query infeasible, and what would fix it?
//!
//! FEASIBLE returns a boolean; a view designer needs to know which literal
//! of which disjunct blocks the plan, which variables lack bindings, and
//! whether the blockage is real (no other disjunct covers the answers) or
//! absorbed (the disjunct's answerable part is contained in the rest).

use crate::answerable::answerable_split;
use crate::feasible::{feasible_detailed_with, DecisionPath};
use crate::plan::PlanPair;
use lap_containment::ContainmentEngine;
use lap_ir::{ConjunctiveQuery, Literal, Schema, UnionQuery, Var};
use std::collections::HashSet;
use std::fmt;

/// Why one literal is unanswerable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockedLiteral {
    /// The literal.
    pub literal: Literal,
    /// The variables that never receive bindings (in input slots for
    /// positive literals; anywhere for negative literals).
    pub unbound_vars: Vec<Var>,
    /// True iff the relation has no declared access pattern at all.
    pub no_patterns: bool,
}

impl fmt::Display for BlockedLiteral {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.literal)?;
        if self.no_patterns {
            write!(f, " — relation has no access pattern")
        } else if self.literal.positive {
            write!(
                f,
                " — every pattern needs a value for {}",
                vars_list(&self.unbound_vars)
            )
        } else {
            write!(
                f,
                " — negation cannot bind {}",
                vars_list(&self.unbound_vars)
            )
        }
    }
}

fn vars_list(vs: &[Var]) -> String {
    let items: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
    items.join(", ")
}

/// Diagnosis for one disjunct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DisjunctDiagnosis {
    /// Index in the union.
    pub index: usize,
    /// The disjunct.
    pub disjunct: ConjunctiveQuery,
    /// Unanswerable literals with their blocked variables. Empty when the
    /// disjunct is fully answerable.
    pub blocked: Vec<BlockedLiteral>,
    /// Head variables that would have to be emitted as `null`.
    pub null_head_vars: Vec<Var>,
    /// True iff the disjunct's answerable part is contained in the rest of
    /// the union — its blockage is harmless (the Example-3 situation).
    pub absorbed: bool,
    /// True iff the disjunct is unsatisfiable (contributes nothing).
    pub unsatisfiable: bool,
}

/// A full feasibility explanation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Explanation {
    /// The overall verdict.
    pub feasible: bool,
    /// Which branch of FEASIBLE decided it.
    pub decided_by: DecisionPath,
    /// Per-disjunct findings, in union order.
    pub disjuncts: Vec<DisjunctDiagnosis>,
    /// The PLAN\* output the verdict was read from.
    pub plans: PlanPair,
}

impl Explanation {
    /// The disjuncts that actually make the query infeasible: blocked, not
    /// absorbed, and satisfiable.
    pub fn culprits(&self) -> impl Iterator<Item = &DisjunctDiagnosis> {
        self.disjuncts
            .iter()
            .filter(|d| !d.unsatisfiable && !d.blocked.is_empty() && !d.absorbed)
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "feasible: {} (decided by {:?})",
            self.feasible, self.decided_by
        )?;
        for d in &self.disjuncts {
            writeln!(f, "disjunct {}: {}", d.index, d.disjunct)?;
            if d.unsatisfiable {
                writeln!(f, "  unsatisfiable — contributes no answers")?;
                continue;
            }
            if d.blocked.is_empty() {
                writeln!(f, "  fully answerable")?;
                continue;
            }
            for b in &d.blocked {
                writeln!(f, "  blocked: {b}")?;
            }
            if !d.null_head_vars.is_empty() {
                writeln!(
                    f,
                    "  head variable(s) {} would be null",
                    vars_list(&d.null_head_vars)
                )?;
            }
            if d.absorbed {
                writeln!(f, "  but absorbed: the answerable part is covered by the rest of the union")?;
            } else {
                writeln!(f, "  CULPRIT: answers may be lost here")?;
            }
        }
        Ok(())
    }
}

/// Explains the feasibility verdict for `q` (see module docs), with every
/// containment decision (the FEASIBLE check *and* the per-disjunct
/// absorption checks) delegated to `engine`. The absorption checks revisit
/// `ans(d) ⊑ Q` for each blocked disjunct, so a caching engine pays for
/// itself here.
pub fn explain(q: &UnionQuery, schema: &Schema, engine: &ContainmentEngine) -> Explanation {
    let report = feasible_detailed_with(q, schema, engine);
    let mut disjuncts = Vec::with_capacity(q.disjuncts.len());
    for (index, cq) in q.disjuncts.iter().enumerate() {
        let split = answerable_split(cq, schema);
        if split.unsatisfiable {
            disjuncts.push(DisjunctDiagnosis {
                index,
                disjunct: cq.clone(),
                blocked: Vec::new(),
                null_head_vars: Vec::new(),
                absorbed: true,
                unsatisfiable: true,
            });
            continue;
        }
        let bound: HashSet<Var> = split.answerable.iter().flat_map(|l| l.vars()).collect();
        let blocked: Vec<BlockedLiteral> = split
            .unanswerable
            .iter()
            .map(|lit| diagnose_literal(lit, &bound, schema))
            .collect();
        let a_vars: HashSet<Var> = bound.iter().copied().collect();
        let null_head_vars: Vec<Var> = cq
            .free_vars()
            .into_iter()
            .filter(|v| !a_vars.contains(v))
            .collect();
        // Absorption: is the blockage harmless? By Corollary 17 distributed
        // over disjuncts, `Q` is feasible iff every disjunct's answerable
        // part is contained in the *whole* query — so a blocked disjunct is
        // harmless exactly when `ans(d) ⊑ Q` (and its head needs no nulls).
        let absorbed = if blocked.is_empty() {
            true
        } else if null_head_vars.is_empty() {
            let ans_d = UnionQuery::single(split.ans_query(&cq.head).expect("satisfiable"));
            engine.contained(&ans_d, q)
        } else {
            false
        };
        disjuncts.push(DisjunctDiagnosis {
            index,
            disjunct: cq.clone(),
            blocked,
            null_head_vars,
            absorbed,
            unsatisfiable: false,
        });
    }
    Explanation {
        feasible: report.feasible,
        decided_by: report.decided_by,
        disjuncts,
        plans: report.plans,
    }
}

fn diagnose_literal(lit: &Literal, bound: &HashSet<Var>, schema: &Schema) -> BlockedLiteral {
    let decl = schema.relation(lit.atom.predicate.name);
    let no_patterns = decl.is_none_or(|d| d.patterns.is_empty());
    let unbound_vars: Vec<Var> = if lit.positive {
        // Variables that appear in input slots of every pattern and are
        // unbound: report the unbound vars of the *least demanding*
        // pattern (fewest unbound inputs) — the closest fix.
        match decl {
            Some(d) if !d.patterns.is_empty() => {
                let mut best: Option<Vec<Var>> = None;
                for p in &d.patterns {
                    let missing: Vec<Var> = p
                        .input_positions()
                        .filter_map(|j| lit.atom.args[j].as_var())
                        .filter(|v| !bound.contains(v))
                        .collect();
                    if best.as_ref().is_none_or(|b| missing.len() < b.len()) {
                        best = Some(missing);
                    }
                }
                best.unwrap_or_default()
            }
            _ => lit.vars().filter(|v| !bound.contains(v)).collect(),
        }
    } else {
        lit.vars().filter(|v| !bound.contains(v)).collect()
    };
    BlockedLiteral {
        literal: lit.clone(),
        unbound_vars,
        no_patterns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_ir::parse_program;

    fn setup(text: &str) -> (UnionQuery, Schema) {
        let p = parse_program(text).unwrap();
        (p.single_query().unwrap().clone(), p.schema)
    }

    #[test]
    fn example_4_culprit_is_b() {
        let (q, schema) = setup(
            "S^o. R^oo. B^ii. T^oo.\n\
             Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
             Q(x, y) :- T(x, y).",
        );
        let e = explain(&q, &schema, &ContainmentEngine::default());
        assert!(!e.feasible);
        let culprits: Vec<_> = e.culprits().collect();
        assert_eq!(culprits.len(), 1);
        assert_eq!(culprits[0].index, 0);
        assert_eq!(culprits[0].blocked.len(), 1);
        assert_eq!(culprits[0].blocked[0].literal.to_string(), "B(x, y)");
        assert_eq!(
            culprits[0].blocked[0].unbound_vars,
            vec![Var::new("y")]
        );
        assert_eq!(culprits[0].null_head_vars, vec![Var::new("y")]);
        let shown = e.to_string();
        assert!(shown.contains("CULPRIT"), "{shown}");
    }

    #[test]
    fn example_3_blockage_is_absorbed() {
        let (q, schema) = setup(
            "B^ioo. B^oio. L^o.\n\
             Q(a) :- B(i, a, t), L(i), B(i2, a2, t).\n\
             Q(a) :- B(i, a, t), L(i), not B(i2, a2, t).",
        );
        let e = explain(&q, &schema, &ContainmentEngine::default());
        assert!(e.feasible);
        assert_eq!(e.culprits().count(), 0);
        assert!(e.disjuncts.iter().all(|d| d.absorbed));
        assert!(!e.disjuncts[0].blocked.is_empty());
    }

    #[test]
    fn no_pattern_relation_is_reported() {
        let (q, schema) = setup("R^oo.\nQ(x) :- R(x, y), Zeta(y).");
        let e = explain(&q, &schema, &ContainmentEngine::default());
        assert!(!e.feasible);
        let c: Vec<_> = e.culprits().collect();
        assert!(c[0].blocked[0].no_patterns);
        assert!(e.to_string().contains("no access pattern"));
    }

    #[test]
    fn unsat_disjunct_marked() {
        let (q, schema) = setup(
            "R^oo.\n\
             Q(x) :- R(x, y), not R(x, y).\n\
             Q(x) :- R(x, x).",
        );
        let e = explain(&q, &schema, &ContainmentEngine::default());
        assert!(e.feasible);
        assert!(e.disjuncts[0].unsatisfiable);
        assert_eq!(e.culprits().count(), 0);
    }

    #[test]
    fn single_disjunct_self_absorption() {
        // Example 9: the redundant unanswerable B(y) is absorbed by the
        // disjunct itself.
        let (q, schema) = setup("F^o. B^i.\nQ(x) :- F(x), B(x), B(y), F(z).");
        let e = explain(&q, &schema, &ContainmentEngine::default());
        assert!(e.feasible);
        assert_eq!(e.culprits().count(), 0);
        assert!(e.disjuncts[0].absorbed);
        assert_eq!(e.disjuncts[0].blocked.len(), 1);
    }

    #[test]
    fn fully_answerable_disjuncts_report_clean() {
        let (q, schema) = setup("C^oo.\nQ(i) :- C(i, a).");
        let e = explain(&q, &schema, &ContainmentEngine::default());
        assert!(e.feasible);
        assert!(e.disjuncts[0].blocked.is_empty());
        assert!(e.to_string().contains("fully answerable"));
    }

    #[test]
    fn engine_backed_explain_agrees_and_records_decisions() {
        use lap_containment::EngineConfig;
        let (q, schema) = setup(
            "B^ioo. B^oio. L^o.\n\
             Q(a) :- B(i, a, t), L(i), B(i2, a2, t).\n\
             Q(a) :- B(i, a, t), L(i), not B(i2, a2, t).",
        );
        let plain = explain(&q, &schema, &ContainmentEngine::default());
        let engine = ContainmentEngine::new(EngineConfig::full());
        let with = explain(&q, &schema, &engine);
        assert_eq!(plain, with);
        // FEASIBLE's check plus one absorption check per blocked disjunct.
        assert!(engine.stats().decisions >= 2, "{}", engine.stats());
        // A second explanation reuses cached verdicts.
        let again = explain(&q, &schema, &engine);
        assert_eq!(plain, again);
        assert!(engine.stats().cache_hits >= 1, "{}", engine.stats());
    }
}
