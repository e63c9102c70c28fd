//! The mediator facade: views + source schema + constraints, with the full
//! compile-time and runtime pipeline behind one API.

use crate::unfold::{unfold_deep, UnfoldError};
use crate::views::{GavView, ViewError};
use lap_constraints::{prune_unsatisfiable, ConstraintSet};
use lap_core::{AnswerOutcome, AnswerReport, CompileOptions, FeasibilityReport, PreparedQuery};
use lap_core::{ContainmentEngine, EngineConfig, EngineStats};
use lap_engine::{Database, EngineError, ExecConfig, ResilienceConfig};
use lap_ir::{parse_program, IrError, Schema, UnionQuery};
use lap_obs::{Event, Recorder};
use std::fmt;
use std::sync::Arc;

/// Errors surfaced by the mediator pipeline.
#[derive(Debug)]
pub enum MediatorError {
    /// An invalid view definition.
    View(ViewError),
    /// Unfolding failed (negated complex view, disjunct cap).
    Unfold(UnfoldError),
    /// The view program did not parse.
    Parse(IrError),
    /// Runtime evaluation failed.
    Engine(EngineError),
}

impl fmt::Display for MediatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediatorError::View(e) => write!(f, "view error: {e}"),
            MediatorError::Unfold(e) => write!(f, "unfold error: {e}"),
            MediatorError::Parse(e) => write!(f, "parse error: {e}"),
            MediatorError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for MediatorError {}

impl From<ViewError> for MediatorError {
    fn from(e: ViewError) -> Self {
        MediatorError::View(e)
    }
}
impl From<UnfoldError> for MediatorError {
    fn from(e: UnfoldError) -> Self {
        MediatorError::Unfold(e)
    }
}
impl From<IrError> for MediatorError {
    fn from(e: IrError) -> Self {
        MediatorError::Parse(e)
    }
}
impl From<EngineError> for MediatorError {
    fn from(e: EngineError) -> Self {
        MediatorError::Engine(e)
    }
}

/// The compile-time artifact for one global query.
#[derive(Clone, Debug)]
pub struct MediatorPlan {
    /// The raw unfolding over the source schema.
    pub unfolded: UnionQuery,
    /// After the semantic optimizer (Σ-unsatisfiable disjuncts removed).
    pub pruned: UnionQuery,
    /// The pruned query compiled over the source schema, FEASIBLE decided:
    /// the PLAN\* output and its physical operator trees, which is what
    /// [`Mediator::answer`] executes.
    pub compiled: PreparedQuery,
}

impl MediatorPlan {
    /// Feasibility analysis of the pruned plan (includes PLAN\* output).
    pub fn feasibility(&self) -> &FeasibilityReport {
        self.compiled.feasibility().expect("Mediator::plan decides FEASIBLE")
    }
}

/// A global-as-view mediator over limited-access sources — the shape of
/// the paper's BIRN prototype (Section 6): queries arrive against global
/// relations, get unfolded into UCQ¬ over the sources, semantically
/// optimized with the integrity constraints, analyzed with FEASIBLE, and
/// answered with ANSWER\*.
#[derive(Clone, Debug, Default)]
pub struct Mediator {
    views: Vec<GavView>,
    source_schema: Schema,
    constraints: ConstraintSet,
    max_disjuncts: usize,
    engine: Arc<ContainmentEngine>,
    recorder: Recorder,
}

impl Mediator {
    /// A mediator over the given source schema.
    pub fn new(source_schema: Schema) -> Mediator {
        Mediator {
            views: Vec::new(),
            source_schema,
            constraints: ConstraintSet::new(),
            max_disjuncts: 10_000,
            engine: Arc::new(ContainmentEngine::default()),
            recorder: Recorder::disabled(),
        }
    }

    /// Parses a mediator definition: access-pattern declarations give the
    /// source schema; every rule defines a view of a global relation.
    ///
    /// ```
    /// use lap_mediator::Mediator;
    /// let m = Mediator::from_program(
    ///     "Amazon^oooo. Bn^ooo.\n\
    ///      Book(i, a, t) :- Amazon(i, a, t, p).\n\
    ///      Book(i, a, t) :- Bn(i, a, t).",
    /// )
    /// .unwrap();
    /// assert_eq!(m.views().len(), 2);
    /// ```
    pub fn from_program(text: &str) -> Result<Mediator, MediatorError> {
        let program = parse_program(text)?;
        let mut mediator = Mediator::new(program.schema.clone());
        for q in &program.queries {
            for rule in &q.disjuncts {
                mediator.add_view(GavView::from_rule(rule)?);
            }
        }
        Ok(mediator)
    }

    /// Adds one view.
    pub fn add_view(&mut self, view: GavView) {
        self.views.push(view);
    }

    /// Installs the integrity constraints used by the semantic optimizer.
    pub fn with_constraints(mut self, cs: ConstraintSet) -> Mediator {
        self.constraints = cs;
        self
    }

    /// Caps the number of unfolded disjuncts (default 10 000).
    pub fn with_max_disjuncts(mut self, cap: usize) -> Mediator {
        self.max_disjuncts = cap;
        self
    }

    /// Installs a containment engine for the feasibility analyses. One
    /// engine is shared by every [`Mediator::plan`] call (and by clones of
    /// this mediator), so a caching configuration reuses verdicts across
    /// the query workload.
    pub fn with_engine(mut self, cfg: EngineConfig) -> Mediator {
        self.engine = Arc::new(ContainmentEngine::with_recorder(cfg, &self.recorder));
        self
    }

    /// Attaches a [`Recorder`]: every pipeline phase (`unfold`, `prune`,
    /// `feasible`, `answer*`, …) runs under a span and the containment
    /// engine and source registries report their counters to it. The
    /// current engine is re-created against the recorder, so call this
    /// *before* [`Mediator::with_engine`] or let it re-wire the default.
    pub fn with_recorder(mut self, recorder: &Recorder) -> Mediator {
        self.recorder = recorder.clone();
        self.engine = Arc::new(ContainmentEngine::with_recorder(
            self.engine.config(),
            recorder,
        ));
        self
    }

    /// The recorder this mediator reports to (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The containment engine's lifetime counters.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The installed views.
    pub fn views(&self) -> &[GavView] {
        &self.views
    }

    /// The source schema.
    pub fn source_schema(&self) -> &Schema {
        &self.source_schema
    }

    /// Compile-time pipeline: unfold (multi-level, rejecting recursive
    /// view sets) → prune under Σ → FEASIBLE/PLAN\*.
    pub fn plan(&self, q: &UnionQuery) -> Result<MediatorPlan, MediatorError> {
        let unfolded = {
            let _span = self.recorder.span("unfold");
            unfold_deep(q, &self.views, self.max_disjuncts)?
        };
        self.journal_phase(Event::Unfold {
            disjuncts_in: q.disjuncts.len() as u64,
            disjuncts_out: unfolded.disjuncts.len() as u64,
        });
        let pruned = {
            let _span = self.recorder.span("prune");
            prune_unsatisfiable(&unfolded, &self.constraints)
        };
        self.journal_phase(Event::Prune {
            disjuncts_in: unfolded.disjuncts.len() as u64,
            disjuncts_out: pruned.disjuncts.len() as u64,
        });
        let opts = CompileOptions { recorder: &self.recorder, feasibility: Some(&self.engine) };
        let compiled = PreparedQuery::compile(&pruned, &self.source_schema, &opts);
        Ok(MediatorPlan { unfolded, pruned, compiled })
    }

    /// Full pipeline including runtime answering over a source instance:
    /// ANSWER\* runs the plans [`Mediator::plan`] compiled.
    pub fn answer(
        &self,
        q: &UnionQuery,
        db: &Database,
    ) -> Result<(MediatorPlan, AnswerReport), MediatorError> {
        let plan = self.plan(q)?;
        let report = plan.compiled.execute_obs_cfg(db, &self.recorder, ExecConfig::default())?;
        Ok((plan, report))
    }

    /// [`Mediator::answer`] in degradation mode: runtime answering runs
    /// under `resilience` (fault injection + retry policy), dropping and
    /// reporting disjuncts whose sources stay unavailable instead of
    /// failing the whole query. Compile-time planning is unaffected.
    pub fn answer_resilient(
        &self,
        q: &UnionQuery,
        db: &Database,
        resilience: &ResilienceConfig,
    ) -> Result<(MediatorPlan, AnswerOutcome), MediatorError> {
        let plan = self.plan(q)?;
        let (rec, exec) = (&self.recorder, ExecConfig::default());
        let outcome = plan.compiled.execute_resilient_obs_cfg(db, rec, resilience, exec)?;
        Ok((plan, outcome))
    }

    /// Records a compile-time phase (unfold, prune) in the flight
    /// recorder's journal, when one is attached.
    fn journal_phase(&self, phase: Event) {
        if let Some(journal) = self.recorder.journal() {
            journal.record(0, 0, |_| phase);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_constraints::InclusionDep;
    use lap_core::DecisionPath;
    use lap_ir::{parse_query, Predicate};

    const BOOK_MEDIATOR: &str = "Amazon^oooo. Amazon^iooo. Bn^ooo. Shelf^o. Cat^oo.\n\
         Book(i, a, t) :- Amazon(i, a, t, p).\n\
         Book(i, a, t) :- Bn(i, a, t).\n\
         Lib(i) :- Shelf(i).";

    #[test]
    fn end_to_end_feasible_query() {
        let m = Mediator::from_program(BOOK_MEDIATOR).unwrap();
        let q = parse_query("Q(i, a, t) :- Book(i, a, t), Cat(i, a), not Lib(i).").unwrap();
        let plan = m.plan(&q).unwrap();
        assert_eq!(plan.unfolded.disjuncts.len(), 2);
        assert!(plan.feasibility().feasible);
        // The compiled artifact carries the lowered operator trees, one
        // pipeline per surviving disjunct.
        assert_eq!(
            plan.compiled.physical().over.parts.len(),
            plan.feasibility().plans.over.parts.len()
        );
        let db = Database::from_facts(
            r#"
            Amazon(1, "adams", "hhgttg", 12). Bn(2, "adams", "dirk gently").
            Cat(1, "adams"). Cat(2, "adams").
            Shelf(1).
            "#,
        )
        .unwrap();
        let (_, report) = m.answer(&q, &db).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.under.len(), 1); // book 2 (book 1 is on the shelf)

        // The resilient path agrees bit-for-bit when no faults fire, and
        // degrades (instead of failing) under a total outage.
        let calm = lap_engine::ResilienceConfig::chaos(0.0, 5);
        let (_, outcome) = m.answer_resilient(&q, &db, &calm).unwrap();
        assert_eq!(outcome.report.under, report.under);
        assert!(!outcome.degradation.is_degraded());
        let outage = lap_engine::ResilienceConfig::chaos(1.0, 5);
        let (_, outcome) = m.answer_resilient(&q, &db, &outage).unwrap();
        assert!(outcome.degradation.is_degraded());
        assert!(outcome.report.under.is_empty());
        assert!(!outcome.report.is_complete());
    }

    #[test]
    fn constraints_prune_unfoldings() {
        // Global query with ¬Lib over the atomic Lib view + a constraint
        // that every Bn book is on the shelf: the Bn unfolding dies.
        let m = Mediator::from_program(BOOK_MEDIATOR)
            .unwrap()
            .with_constraints(ConstraintSet::new().with_inclusion(InclusionDep::new(
                Predicate::new("Bn", 3),
                vec![0],
                Predicate::new("Shelf", 1),
                vec![0],
            )));
        let q = parse_query("Q(i) :- Book(i, a, t), not Lib(i).").unwrap();
        let plan = m.plan(&q).unwrap();
        assert_eq!(plan.unfolded.disjuncts.len(), 2);
        assert_eq!(plan.pruned.disjuncts.len(), 1);
        assert!(plan.pruned.disjuncts[0].to_string().contains("Amazon"));
    }

    #[test]
    fn infeasible_unfolding_detected() {
        // A price lookup source requiring an isbn input, exposed globally.
        let m = Mediator::from_program(
            "Price^io.\n\
             GPrice(i, p) :- Price(i, p).",
        )
        .unwrap();
        let q = parse_query("Q(p) :- GPrice(i, p).").unwrap();
        let plan = m.plan(&q).unwrap();
        assert!(!plan.feasibility().feasible);
        assert_eq!(
            plan.feasibility().decided_by,
            DecisionPath::OverestimateHasNull
        );
    }

    #[test]
    fn pass_through_source_literals() {
        let m = Mediator::from_program(BOOK_MEDIATOR).unwrap();
        // Cat is a source relation with no view: it passes through.
        let q = parse_query("Q(i) :- Cat(i, a).").unwrap();
        let plan = m.plan(&q).unwrap();
        assert_eq!(plan.unfolded.disjuncts.len(), 1);
        assert_eq!(plan.unfolded.disjuncts[0].to_string(), "Q(i) :- Cat(i, a).");
    }

    #[test]
    fn bad_view_program_is_rejected() {
        assert!(matches!(
            Mediator::from_program("S^o.\nG(x, y) :- S(x)."),
            Err(MediatorError::View(_))
        ));
    }

    #[test]
    fn recorder_backed_mediator_traces_the_full_pipeline() {
        let rec = Recorder::with_tracing();
        let m = Mediator::from_program(BOOK_MEDIATOR)
            .unwrap()
            .with_recorder(&rec)
            .with_engine(EngineConfig::full());
        let q = parse_query("Q(i, a, t) :- Book(i, a, t), Cat(i, a), not Lib(i).").unwrap();
        let db = Database::from_facts(
            r#"Amazon(1, "adams", "hhgttg", 12). Cat(1, "adams")."#,
        )
        .unwrap();
        let (_, report) = m.answer(&q, &db).unwrap();
        let snap = rec.snapshot();
        for phase in ["unfold", "prune", "feasible", "plan*", "answerable", "answer*"] {
            assert!(snap.find_span(phase).is_some(), "missing span {phase}");
        }
        // ANSWER* executes the plans `plan` compiled: PLAN* ran once.
        let names: Vec<&str> = snap.spans.iter().flat_map(|s| s.names()).collect();
        assert_eq!(names.iter().filter(|n| **n == "plan*").count(), 1, "{names:?}");
        // Source counters flowed into the shared recorder.
        assert_eq!(snap.counter("source.calls"), report.stats.calls);
        assert_eq!(
            snap.counter("containment.decisions"),
            m.engine_stats().decisions
        );
    }

    #[test]
    fn journal_backed_mediator_records_compile_phases() {
        let rec = Recorder::with_journal(lap_obs::JournalConfig::light());
        let m = Mediator::from_program(BOOK_MEDIATOR)
            .unwrap()
            .with_recorder(&rec);
        let q = parse_query("Q(i, a, t) :- Book(i, a, t), Cat(i, a), not Lib(i).").unwrap();
        m.plan(&q).unwrap();
        let snap = rec.journal().unwrap().snapshot();
        let (_, events) = snap.decode().unwrap();
        let phases: Vec<&Event> = events
            .iter()
            .map(|stamped| &stamped.event)
            .filter(|event| matches!(event, Event::Unfold { .. } | Event::Prune { .. }))
            .collect();
        // One Book query over two Book views unfolds into two disjuncts,
        // and pruning keeps both.
        assert_eq!(
            phases,
            [
                &Event::Unfold { disjuncts_in: 1, disjuncts_out: 2 },
                &Event::Prune { disjuncts_in: 2, disjuncts_out: 2 },
            ]
        );
        assert!(snap.validate().is_ok());
    }

    #[test]
    fn engine_backed_mediator_caches_across_plans() {
        let m = Mediator::from_program(
            "B^ioo. B^oio. L^o.\n\
             GB(i, a, t) :- B(i, a, t).\n\
             GL(i) :- L(i).",
        )
        .unwrap()
        .with_engine(EngineConfig::full());
        // Example 3's shape: decided by the containment branch.
        let q = parse_query(
            "Q(a) :- GB(i, a, t), GL(i), GB(i2, a2, t).\n\
             Q(a) :- GB(i, a, t), GL(i), not GB(i2, a2, t).",
        )
        .unwrap();
        let baseline = Mediator::from_program(
            "B^ioo. B^oio. L^o.\n\
             GB(i, a, t) :- B(i, a, t).\n\
             GL(i) :- L(i).",
        )
        .unwrap()
        .plan(&q)
        .unwrap();
        let first = m.plan(&q).unwrap();
        assert_eq!(first.feasibility().feasible, baseline.feasibility().feasible);
        assert_eq!(first.feasibility().decided_by, baseline.feasibility().decided_by);
        let second = m.plan(&q).unwrap();
        assert_eq!(second.feasibility().feasible, baseline.feasibility().feasible);
        let stats = m.engine_stats();
        assert!(stats.cache_hits >= 1, "{stats}");
        // Clones share the same engine (and therefore the same cache).
        let clone_stats = m.clone().engine_stats();
        assert_eq!(clone_stats.cache_hits, stats.cache_hits);
    }
}
