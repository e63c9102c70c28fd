//! Prepared queries: compile once, execute many times.
//!
//! The paper separates compile time ("before any specific database
//! instance is considered") from runtime (Section 4). [`PreparedQuery`]
//! materializes that separation as an API: [`PreparedQuery::compile`] is
//! the one compile driver for Figs. 1–3 (PLAN\* with ANSWERABLE inside,
//! FEASIBLE when asked, lowering), and each [`PreparedQuery::execute`]
//! then only pays the runtime price.

use crate::answer::{run_pair, AnswerOptions, AnswerOutcome, AnswerReport, Plans};
use crate::feasible::{decide_under, DecisionPath, FeasibilityReport};
use crate::plan::{lower_pair, plan_star_recorded, PhysicalPair, PlanPair};
use lap_containment::ContainmentEngine;
use lap_engine::{Database, EngineError, ExecConfig, ResilienceConfig};
use lap_ir::{parse_program, Program, Schema, UnionQuery};
use lap_obs::Recorder;
use std::collections::BTreeSet;

/// Everything that shapes a compile besides the query and the schema.
/// Neither field changes the compiled plans.
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions<'a> {
    /// Spans: `plan*` with `answerable` inside; with a verdict, both sit in
    /// a `feasible` span beside the check's `containment` span.
    pub recorder: &'a Recorder,
    /// `Some(engine)`: decide FEASIBLE (Figure 3), the `ans(Q) ⊑ Q` check
    /// delegated to `engine` ([`PreparedQuery::feasibility`]). `None`: the
    /// query path — ANSWER\* derives completeness at run time and never
    /// reads a verdict.
    pub feasibility: Option<&'a ContainmentEngine>,
}

/// A query compiled against a schema of access patterns.
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    query: UnionQuery,
    schema: Schema,
    plans: PlanPair,
    physical: PhysicalPair,
    decided_by: DecisionPath,
    feasibility: Option<FeasibilityReport>,
}

impl PreparedQuery {
    /// The one compile driver for Figs. 1–3: runs PLAN\* once, decides
    /// FEASIBLE only when `opts.feasibility` supplies an engine, and lowers
    /// both plans once, so [`PreparedQuery::execute`] starts from the
    /// physical operator trees directly. The decision path is read off the
    /// plans either way.
    pub fn compile(q: &UnionQuery, schema: &Schema, opts: &CompileOptions<'_>) -> PreparedQuery {
        let (plans, feasibility) = match opts.feasibility {
            Some(engine) => {
                let report = decide_under(q, schema, engine, opts.recorder);
                (report.plans.clone(), Some(report))
            }
            None => (plan_star_recorded(q, schema, opts.recorder), None),
        };
        PreparedQuery {
            query: q.clone(),
            schema: schema.clone(),
            physical: lower_pair(&plans, schema),
            decided_by: DecisionPath::of(&plans),
            plans,
            feasibility,
        }
    }

    /// The compiled query.
    pub fn query(&self) -> &UnionQuery {
        &self.query
    }

    /// The FEASIBLE verdict and how it was decided — `None` unless the
    /// query was compiled with [`CompileOptions::feasibility`]. Its plans
    /// are PLAN\*'s, even after [`PreparedQuery::replace_plans`].
    pub fn feasibility(&self) -> Option<&FeasibilityReport> {
        self.feasibility.as_ref()
    }

    /// The compiled plans.
    pub fn plans(&self) -> &PlanPair {
        &self.plans
    }

    /// The compiled physical operator trees (lowered once at compile time).
    pub fn physical(&self) -> &PhysicalPair {
        &self.physical
    }

    /// The schema the query was compiled against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Replaces the compiled plans in place and lowers the physical trees
    /// from them, so plans and trees cannot disagree — the adaptive
    /// re-planning hook (`lap_planner::recalibrate_prepared` re-orders the
    /// plan bodies under a journal-calibrated cost model). The replacement
    /// must be answer-equivalent to the compiled plans (a reordering of the
    /// same bodies); the feasibility verdict and the decision path are
    /// kept, not re-derived.
    pub fn replace_plans(&mut self, plans: PlanPair) {
        self.physical = lower_pair(&plans, &self.schema);
        self.plans = plans;
    }

    /// The one ANSWER\* driver ([`crate::answer_star_opts`]'s) over the
    /// compiled pair: same spans, same registry wiring, same degradation
    /// accounting, minus the per-request PLAN\* and lowering.
    fn run(
        &self,
        db: &Database,
        recorder: &Recorder,
        cfg: ExecConfig,
        resilience: Option<&ResilienceConfig>,
    ) -> Result<AnswerOutcome, EngineError> {
        let plans = Plans::Prepared(&self.plans, &self.physical);
        let opts = AnswerOptions { exec: cfg, resilience, ..AnswerOptions::new(recorder) };
        run_pair(&self.query, &self.schema, db.into(), plans, &opts)
    }

    /// Executes against an instance (algorithm ANSWER\*, reusing the
    /// compiled physical plans). For feasible queries the overestimate in
    /// the report *is* the exact answer.
    pub fn execute(&self, db: &Database) -> Result<AnswerReport, EngineError> {
        self.execute_obs_cfg(db, &Recorder::disabled(), ExecConfig::default())
    }

    /// [`PreparedQuery::execute`] under a recorder and an explicit
    /// executor configuration — the daemon's hot path. Produces exactly
    /// the report [`crate::answer_star_obs_cfg`] would, minus the
    /// per-request planning cost: the whole point of serving repeated
    /// queries from a plan cache.
    pub fn execute_obs_cfg(
        &self,
        db: &Database,
        recorder: &Recorder,
        cfg: ExecConfig,
    ) -> Result<AnswerReport, EngineError> {
        self.run(db, recorder, cfg, None).map(|outcome| outcome.report)
    }

    /// [`PreparedQuery::execute_obs_cfg`] in degradation mode, with the
    /// same accounting as [`crate::answer_star_resilient_cfg`] — the
    /// daemon's resilient path.
    pub fn execute_resilient_obs_cfg(
        &self,
        db: &Database,
        recorder: &Recorder,
        resilience: &ResilienceConfig,
        cfg: ExecConfig,
    ) -> Result<AnswerOutcome, EngineError> {
        self.run(db, recorder, cfg, Some(resilience))
    }

    /// A size estimate for plan-cache accounting: 32 bytes, about one
    /// rendered line, per item the entry pins — each rule head and body
    /// literal of the query, each declared relation, each physical
    /// operator. Not exact heap bytes: a stable proxy, counted without
    /// rendering anything.
    pub fn estimated_bytes(&self) -> usize {
        let literals: usize = self.query.disjuncts.iter().map(|cq| cq.body.len() + 1).sum();
        let pipelines = self.physical.under.parts.iter().chain(&self.physical.over.parts);
        32 * (literals + self.schema.len() + pipelines.map(|p| p.ops.len()).sum::<usize>())
    }

    /// Executes and returns the *best available* answer set: the exact
    /// answer (overestimate) for null-free plans the compile decided
    /// feasible, the certain answers otherwise (always, without a verdict).
    pub fn execute_best(&self, db: &Database) -> Result<BTreeSet<lap_engine::Tuple>, EngineError> {
        let report = self.execute(db)?;
        let feasible = self.feasibility.as_ref().is_some_and(|r| r.feasible);
        if feasible && !self.plans.over.has_null() {
            Ok(report.over)
        } else {
            Ok(report.under)
        }
    }

    /// The branch of FEASIBLE that decides this query (fast path vs
    /// containment), read off PLAN\*'s plans at compile time — with or
    /// without a verdict.
    pub fn decision_path(&self) -> DecisionPath {
        self.decided_by
    }

    /// The relation names this query's bodies reference — the daemon's
    /// telemetry watcher uses this to map a drifted source to the cached
    /// entries whose plans depend on it.
    pub fn relations(&self) -> BTreeSet<String> {
        self.query
            .disjuncts
            .iter()
            .flat_map(|cq| &cq.body)
            .map(|lit| lit.atom.predicate.name.as_str().to_owned())
            .collect()
    }
}

/// A whole program compiled once: one [`PreparedQuery`] per query, in
/// program order, each owning its query and the program's schema. This is
/// what the `lapd` plan cache stores per canonical program text — a
/// session that hits the cache executes straight from the physical trees,
/// paying neither parse nor PLAN\* nor lowering.
#[derive(Clone, Debug)]
pub struct PreparedProgram {
    prepared: Vec<PreparedQuery>,
}

impl PreparedProgram {
    /// Parses and compiles `text` for the query path: no FEASIBLE verdict,
    /// which no answer reads (the `lapd` miss path and one-shot execution).
    pub fn compile(text: &str) -> Result<PreparedProgram, String> {
        let opts = CompileOptions { recorder: &Recorder::disabled(), feasibility: None };
        PreparedProgram::compile_opts(text, &opts)
    }

    /// [`PreparedProgram::compile`] that also decides FEASIBLE for every
    /// query, against a caller-provided (typically long-lived, memoized)
    /// containment engine, traced under the engine's recorder.
    pub fn compile_with(text: &str, engine: &ContainmentEngine) -> Result<PreparedProgram, String> {
        let opts = CompileOptions { recorder: engine.recorder(), feasibility: Some(engine) };
        PreparedProgram::compile_opts(text, &opts)
    }

    fn compile_opts(text: &str, opts: &CompileOptions<'_>) -> Result<PreparedProgram, String> {
        let Program { schema, queries } = parse_program(text).map_err(|e| e.to_string())?;
        let prepared = queries.iter().map(|q| PreparedQuery::compile(q, &schema, opts)).collect();
        Ok(PreparedProgram { prepared })
    }

    /// The compiled queries, in program order.
    pub fn queries(&self) -> &[PreparedQuery] {
        &self.prepared
    }

    /// Cache-accounting size estimate: the sum over the compiled queries
    /// (see [`PreparedQuery::estimated_bytes`]).
    pub fn estimated_bytes(&self) -> usize {
        self.prepared.iter().map(PreparedQuery::estimated_bytes).sum()
    }

    /// The union of [`PreparedQuery::relations`] over the program.
    pub fn relations(&self) -> BTreeSet<String> {
        self.prepared.iter().flat_map(PreparedQuery::relations).collect()
    }

    /// A copy of this program with `prepared` substituted for the compiled
    /// queries — the build-aside step of replace-on-publish recalibration
    /// (see [`crate::PlanCache`]): clone the shared entry's queries,
    /// recalibrate the clones, then publish the result as a new entry.
    /// The substitutes must be answer-equivalent recompilations of the
    /// same queries, one per original.
    pub fn with_queries(&self, prepared: Vec<PreparedQuery>) -> PreparedProgram {
        assert_eq!(
            prepared.len(),
            self.prepared.len(),
            "substituted queries must match the program one-for-one"
        );
        PreparedProgram { prepared }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_engine::eval_oracle;
    use lap_ir::parse_program;

    fn setup(text: &str) -> (UnionQuery, Schema) {
        let p = parse_program(text).unwrap();
        (p.single_query().unwrap().clone(), p.schema)
    }

    fn compile(q: &UnionQuery, schema: &Schema, decide: bool) -> PreparedQuery {
        let engine = ContainmentEngine::default();
        let feasibility = decide.then_some(&engine);
        let opts = CompileOptions { recorder: &Recorder::disabled(), feasibility };
        PreparedQuery::compile(q, schema, &opts)
    }

    #[test]
    fn compile_once_execute_many() {
        let (q, schema) = setup(
            "B^ioo. B^oio. C^oo. L^o.\n\
             Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
        );
        let prepared = compile(&q, &schema, true);
        assert!(prepared.feasibility().unwrap().feasible);
        for facts in [
            r#"B(1, "a", "t"). C(1, "a")."#,
            r#"B(1, "a", "t"). C(1, "a"). L(1)."#,
            r#"C(9, "z")."#,
        ] {
            let db = Database::from_facts(facts).unwrap();
            let rep = prepared.execute(&db).unwrap();
            assert!(rep.is_complete());
            let oracle = eval_oracle(&q, &db).unwrap();
            assert_eq!(rep.under, oracle, "on {facts}");
        }
    }

    #[test]
    fn execute_best_returns_exact_answers_for_feasible_queries() {
        // Example 3: feasible via containment; the underestimate is empty
        // but execute_best returns the exact overestimate.
        let (q, schema) = setup(
            "B^ioo. B^oio. L^o.\n\
             Q(a) :- B(i, a, t), L(i), B(i2, a2, t).\n\
             Q(a) :- B(i, a, t), L(i), not B(i2, a2, t).",
        );
        let prepared = compile(&q, &schema, true);
        assert!(prepared.feasibility().unwrap().feasible);
        let db = Database::from_facts(r#"B(1, "adams", "t"). L(1)."#).unwrap();
        let best = prepared.execute_best(&db).unwrap();
        assert_eq!(best.len(), 1);
        // ANSWER* alone would have reported only the (empty) underestimate.
        let rep = prepared.execute(&db).unwrap();
        assert!(rep.under.is_empty());
        // Without a verdict the path is still known, and the best answer
        // falls back to the certain one.
        let lean = compile(&q, &schema, false);
        assert!(lean.feasibility().is_none());
        assert_eq!(lean.decision_path(), DecisionPath::ContainmentCheck);
        assert!(lean.execute_best(&db).unwrap().is_empty());
    }

    #[test]
    fn prepared_program_compiles_every_query_in_order() {
        let text = "C^oo. F^o.\n\
                    Q(i) :- C(i, a).\n\
                    P(x) :- F(x).";
        let prog = PreparedProgram::compile(text).unwrap();
        assert_eq!(prog.queries().len(), 2);
        assert!(prog.estimated_bytes() > 0);
        let db = Database::from_facts(r#"C(1, "a"). F(9)."#).unwrap();
        let reps: Vec<AnswerReport> = prog
            .queries()
            .iter()
            .map(|p| p.execute(&db).unwrap())
            .collect();
        assert_eq!(reps[0].under.len(), 1);
        assert_eq!(reps[1].under.len(), 1);
        assert!(PreparedProgram::compile("Q(x) :- ???").is_err());
    }

    #[test]
    fn infeasible_prepared_query_returns_certain_answers() {
        let (q, schema) = setup(
            "S^o. R^oo. B^ii. T^oo.\n\
             Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
             Q(x, y) :- T(x, y).",
        );
        let prepared = compile(&q, &schema, true);
        assert!(!prepared.feasibility().unwrap().feasible);
        let db = Database::from_facts("T(1, 2). R(3, 4). B(3, 5).").unwrap();
        let best = prepared.execute_best(&db).unwrap();
        assert_eq!(best.len(), 1); // only the certain (1, 2)
    }
}
