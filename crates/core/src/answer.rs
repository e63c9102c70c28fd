//! Algorithm ANSWER\* (paper, Figure 4): runtime processing of plans with
//! completeness information, and its optional last phase, the
//! domain-enumeration refinement of the underestimate (Section 4.2,
//! Example 8).

use crate::plan::{lower_pair, plan_star, PhysicalPair, PlanPair};
use crate::prepared::{CompileOptions, PreparedQuery};
use lap_engine::{
    enumerate_domain, execute_physical_union_with, lower_union, CallStats, Database,
    DisjunctDegradation, EngineError, ExecConfig, FaultConfig, OnUnavailable, ReplaySource,
    ResilienceConfig, RetryPolicy, Rows, Source, SourceRegistry, Tuple, UnionProfile, Value,
};
use lap_ir::{Atom, ConjunctiveQuery, Literal, Schema, Symbol, Term, UnionQuery, Var};
use lap_obs::{Json, Recorder};
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// Completeness information attached to a runtime answer (Figure 4's
/// output messages, as data).
#[derive(Clone, Debug, PartialEq)]
pub enum Completeness {
    /// `Δ = ∅`: the underestimate *is* the complete answer — even if the
    /// query is infeasible (Example 5).
    Complete,
    /// `Δ ≠ ∅`, null-free: the answer is at least `|ansᵤ| / |ansₒ|`
    /// complete.
    AtLeast(f64),
    /// `Δ` contains nulls: no numeric bound can be given (Example 7).
    Unknown,
}

/// The result of running ANSWER\* on an instance.
#[derive(Clone, Debug, PartialEq)]
pub struct AnswerReport {
    /// `ansᵤ` — the certain answers produced by `Qᵘ`.
    pub under: BTreeSet<Tuple>,
    /// `ansₒ` — the possible answers produced by `Qᵒ` (may contain nulls).
    pub over: BTreeSet<Tuple>,
    /// `Δ = ansₒ ∖ ansᵤ` — the tuples that *may* be part of the answer.
    pub delta: BTreeSet<Tuple>,
    /// The completeness verdict.
    pub completeness: Completeness,
    /// Source-call statistics for evaluating both plans.
    pub stats: CallStats,
    /// The plans that were executed.
    pub plans: PlanPair,
}

impl AnswerReport {
    /// True iff the answer is known complete at runtime.
    pub fn is_complete(&self) -> bool {
        matches!(self.completeness, Completeness::Complete)
    }
}

/// Where an ANSWER\* run reads its sources from.
pub enum AnswerSource<'a> {
    /// A live in-memory instance behind pattern-enforcing sources.
    Database(&'a Database),
    /// A transport replaying recorded outcomes (a
    /// [`lap_engine::ReplaySource`] decoded from a flight-recorder journal)
    /// instead of a live database. Everything above the transport —
    /// planning, lowering, the retry loop, the virtual clock, degradation
    /// — is deterministic, so run under the recorded retry policy and
    /// executor configuration (a recorded overlapped run must replay at the
    /// *same* `io_workers`) the outcome reproduces the recorded run bit
    /// for bit, `virtual_ms` included.
    Replay(Box<dyn Source + 'a>),
}

impl<'a> From<&'a Database> for AnswerSource<'a> {
    fn from(db: &'a Database) -> AnswerSource<'a> {
        AnswerSource::Database(db)
    }
}

impl From<ReplaySource> for AnswerSource<'_> {
    fn from(source: ReplaySource) -> Self {
        AnswerSource::Replay(Box::new(source))
    }
}

/// Everything that shapes an ANSWER\* run besides the query, the schema
/// and the source. None of it changes the fault-free answers.
#[derive(Clone, Copy, Debug)]
pub struct AnswerOptions<'a> {
    /// The whole run executes in an `answer*` span with `plan*`,
    /// `answer*.under`, and `answer*.over` sub-spans (each evaluation
    /// phase with per-disjunct sub-spans), the source registry reports its
    /// call counters as `source.*` metrics, and an attached journal is
    /// stamped with the run's metadata.
    pub recorder: &'a Recorder,
    /// Batch width, columnar vs row executor, I/O workers. Only the
    /// execution shape changes; under overlapped I/O (`io_workers > 1`)
    /// `virtual_ms` shrinks, since overlapped batches charge their longest
    /// worker lane and the under/over phases of the pair overlap too.
    pub exec: ExecConfig,
    /// `None`: a source error aborts the run (Fig. 4 as written). `Some`:
    /// degradation mode — both plans evaluate through a registry under the
    /// fault injection and retry policy given, and a source that exhausts
    /// its retries drops only the affected disjunct, which is reported.
    ///
    /// The degraded underestimate stays *sound* — every disjunct either
    /// contributes exactly its fault-free rows or nothing, so
    /// `ansᵤ(degraded) ⊆ ansᵤ(fault-free) ⊆ answer` — while the
    /// completeness verdict is downgraded honestly: a degraded run never
    /// claims [`Completeness::Complete`], and any overestimate drop (which
    /// breaks the `ansₒ ⊇ answer` cover) forces [`Completeness::Unknown`].
    pub resilience: Option<&'a ResilienceConfig>,
    /// `None`: run PLAN\*. `Some`: execute this **pre-optimized** pair
    /// instead — the entry point of the feedback loop, where the caller
    /// has re-ordered PLAN\*'s output under a journal-calibrated cost model
    /// (`lap_planner::optimize_plan_pair`). The pair must be an
    /// answer-equivalent reordering of PLAN\*'s plans for the query
    /// (re-ordering an executable body never changes its answers, only its
    /// calls), so the report is exactly the `None` one at the calibrated
    /// plan's cost. A journal of the run records the order, as
    /// [`PlanPair::body_order`] against PLAN\*'s pair, under the `order`
    /// metadata key, one entry per run, so a replay can run it again.
    pub plans: Option<&'a PlanPair>,
    /// `None`: Fig. 4 as written. `Some(budget)`: after the pair, improve
    /// `ansᵤ` with domain-enumeration views (Example 8), spending at most
    /// `budget` source calls on enumerating the domain. The phase runs
    /// through the run's registry, under its resilience and journal, and
    /// leaves the report as it is: its result is
    /// [`AnswerOutcome::refinement`].
    pub domain: Option<u64>,
}

impl<'a> AnswerOptions<'a> {
    /// Fig. 4 at defaults under `recorder`: default executor
    /// configuration, abort on source errors, plans from PLAN\*, no
    /// refinement.
    pub fn new(recorder: &'a Recorder) -> AnswerOptions<'a> {
        let exec = ExecConfig::default();
        AnswerOptions { recorder, exec, resilience: None, plans: None, domain: None }
    }
}

/// Algorithm ANSWER\* (Figure 4) under `opts` — the general entry point
/// every other way of running ANSWER\* delegates to: compute `Qᵘ`, `Qᵒ`
/// with PLAN\* (or take `opts.plans`), evaluate both against `source`
/// through pattern-enforcing sources, and report the underestimate
/// together with `Δ`, completeness information, and an account of what was
/// lost to source failures (empty without `opts.resilience`).
pub fn answer_star_opts<'a>(
    q: &UnionQuery,
    schema: &Schema,
    source: impl Into<AnswerSource<'a>>,
    opts: &AnswerOptions<'_>,
) -> Result<AnswerOutcome, EngineError> {
    let plans = opts.plans.map_or(Plans::Star, Plans::Given);
    run_pair(q, schema, source.into(), plans, opts)
}

/// [`answer_star_opts`] at defaults: no recorder, default executor
/// configuration, abort on source errors.
pub fn answer_star(
    q: &UnionQuery,
    schema: &Schema,
    db: &Database,
) -> Result<AnswerReport, EngineError> {
    answer_star_obs_cfg(q, schema, db, &Recorder::disabled(), ExecConfig::default())
}

/// [`answer_star_opts`] with a recorder and an executor configuration,
/// aborting on source errors.
pub fn answer_star_obs_cfg(
    q: &UnionQuery,
    schema: &Schema,
    db: &Database,
    recorder: &Recorder,
    cfg: ExecConfig,
) -> Result<AnswerReport, EngineError> {
    let opts = AnswerOptions { exec: cfg, ..AnswerOptions::new(recorder) };
    answer_star_opts(q, schema, db, &opts).map(|outcome| outcome.report)
}

/// [`answer_star_opts`] in degradation mode under `resilience`.
pub fn answer_star_resilient_cfg(
    q: &UnionQuery,
    schema: &Schema,
    db: &Database,
    recorder: &Recorder,
    resilience: &ResilienceConfig,
    cfg: ExecConfig,
) -> Result<AnswerOutcome, EngineError> {
    let opts =
        AnswerOptions { exec: cfg, resilience: Some(resilience), ..AnswerOptions::new(recorder) };
    answer_star_opts(q, schema, db, &opts)
}

/// The plans one run executes.
pub(crate) enum Plans<'a> {
    /// PLAN\*'s pair, computed under the run's recorder and lowered.
    Star,
    /// A caller-optimized pair, lowered by the run.
    Given(&'a PlanPair),
    /// A [`crate::PreparedQuery`]'s pair, lowered at compile time.
    Prepared(&'a PlanPair, &'a PhysicalPair),
}

/// The one ANSWER\* driver. Every public way of running the algorithm —
/// one-shot, prepared, planned, resilient, replayed, refined — is this
/// function under different arguments, so they cannot drift apart. The
/// plans come from `plans`; `opts.plans` is not read.
pub(crate) fn run_pair(
    q: &UnionQuery,
    schema: &Schema,
    source: AnswerSource<'_>,
    plans: Plans<'_>,
    opts: &AnswerOptions<'_>,
) -> Result<AnswerOutcome, EngineError> {
    let AnswerOptions { recorder, exec: cfg, resilience, domain, .. } = *opts;
    let _span = recorder.span("answer*");
    let replay = matches!(source, AnswerSource::Replay(_));
    let kind = match (&plans, replay, resilience.is_some()) {
        (Plans::Prepared(..), _, false) => "answer*.prepared",
        (Plans::Prepared(..), _, true) => "answer*.prepared.resilient",
        (_, true, _) => "answer*.replay",
        (Plans::Star, false, false) => "answer*",
        (Plans::Star, false, true) => "answer*.resilient",
        (Plans::Given(_), false, false) => "answer*.planned",
        (Plans::Given(_), false, true) => "answer*.resilient.planned",
    };
    // No resilience = the registry's own default: one attempt, no faults.
    let retry = resilience.map_or_else(RetryPolicy::default, |r| r.retry);
    let fault = resilience.and_then(|r| r.fault);
    stamp_journal_meta(recorder, kind, q, &retry, fault.as_ref(), cfg, domain);
    let compiled;
    let lowered;
    let (plans, physical) = match plans {
        Plans::Star => {
            let opts = CompileOptions { recorder, feasibility: None };
            compiled = PreparedQuery::compile(q, schema, &opts);
            (compiled.plans(), compiled.physical())
        }
        Plans::Given(plans) => {
            // A replay cannot re-derive a caller's order: record it as a
            // permutation of PLAN*'s bodies.
            if let Some(journal) = recorder.journal() {
                journal.push_meta("order", plan_star(q, schema).body_order(plans));
            }
            lowered = lower_pair(plans, schema);
            (plans, &lowered)
        }
        Plans::Prepared(plans, physical) => (plans, physical),
    };
    let mut reg = match source {
        AnswerSource::Database(db) => SourceRegistry::new(db, schema),
        AnswerSource::Replay(source) => SourceRegistry::with_source(source, schema),
    }
    .recording(recorder)
    .with_io_workers(cfg.io_workers)
    .with_retry(retry);
    if let Some(fault) = fault {
        reg = reg.with_fault_injection(fault);
    }
    let on_unavailable =
        if resilience.is_some() { OnUnavailable::Drop } else { OnUnavailable::Abort };

    let base_wall = reg.virtual_elapsed_ms();
    let under = {
        let _under = recorder.span("answer*.under");
        execute_physical_union_with(&physical.under, &mut reg, cfg, on_unavailable)?
    };
    let under_wall = reg.virtual_elapsed_ms();
    reg.reset_clock();
    let over = {
        let _over = recorder.span("answer*.over");
        execute_physical_union_with(&physical.over, &mut reg, cfg, on_unavailable)?
    };
    let degradation = DegradationReport { under: under.dropped, over: over.dropped };
    let profile = PairProfile { under: under.profile, over: over.profile };
    // The report's calls are the pair's; a refinement counts its own.
    let stats = reg.stats();
    let pair_wall = reg.virtual_elapsed_ms();
    // Overlapped runs overlap the under/over phases of the pair too: the
    // wall clock charges the longer phase, not the sum.
    let pair_ms = if cfg.io_workers > 1 {
        base_wall + (under_wall - base_wall).max(pair_wall - under_wall)
    } else {
        pair_wall
    };
    let refinement = domain
        .map(|budget| {
            let _refine = recorder.span("answer*.domain");
            reg.reset_clock();
            refine(q, schema, &mut reg, &under.rows, budget, cfg, on_unavailable)
        })
        .transpose()?;
    let retries = reg.retries_observed();
    let failures = reg.failures_observed();
    // The refinement runs after the pair, so its wall time adds up.
    let virtual_ms = pair_ms + (reg.virtual_elapsed_ms() - pair_wall);
    let report = build_report(under.rows, over.rows, stats, plans.clone(), &degradation);
    Ok(AnswerOutcome { report, degradation, profile, retries, failures, virtual_ms, refinement })
}

/// The name the refined plans give `dom(x)`: a symbol the parser cannot
/// produce, so no program's relation can collide with it.
const DOM: &str = "dom(x)";

/// The Section-4.2 refinement of `ansᵤ` (Example 8), through the run's
/// registry. It re-admits every disjunct that has unanswerable literals:
/// its answerable part, `dom(v)` for each variable those literals still
/// need, then the literals themselves, all bound now. Only those disjuncts
/// run; the others already answered in `ansᵤ`. Which disjuncts those are
/// depends on the query alone, so when there are none the reachable
/// domain is not enumerated at all (0 calls, a vacuous fixpoint);
/// otherwise it is, seeded with the query's constants. `dom` is a local
/// view of the registry, not a cloned database.
fn refine(
    q: &UnionQuery,
    schema: &Schema,
    reg: &mut SourceRegistry<'_>,
    under: &BTreeSet<Tuple>,
    budget: u64,
    cfg: ExecConfig,
    on_unavailable: OnUnavailable,
) -> Result<Refinement, EngineError> {
    let mut parts: Vec<(ConjunctiveQuery, Vec<Var>)> = Vec::new();
    for cq in &q.disjuncts {
        let split = crate::answerable::answerable_split(cq, schema);
        if split.unsatisfiable || split.unanswerable.is_empty() {
            continue;
        }
        let mut body = split.answerable;
        let mut bound: HashSet<Var> = body.iter().flat_map(|l| l.vars()).collect();
        for v in split.unanswerable.iter().flat_map(|l| l.vars()) {
            if bound.insert(v) {
                body.push(Literal::pos(Atom::from_parts(DOM, vec![Term::Var(v)])));
            }
        }
        body.extend(split.unanswerable);
        parts.push((ConjunctiveQuery::new(cq.head.clone(), body), Vec::new()));
    }
    if parts.is_empty() {
        let under = under.clone();
        return Ok(Refinement { under, fixpoint: true, calls: 0, dropped: Vec::new() });
    }
    let seed: BTreeSet<Value> = q
        .disjuncts
        .iter()
        .flat_map(|cq| cq.body.iter().flat_map(|lit| lit.atom.args.iter()))
        .filter_map(|arg| match *arg {
            Term::Const(c) => Some(Value::from(c)),
            Term::Var(_) => None,
        })
        .collect();
    let before = reg.stats().calls;
    let dom = enumerate_domain(reg, &seed, budget)?;
    let calls = reg.stats().calls - before;

    let mut dom_schema = schema.clone();
    dom_schema.add_pattern_str(DOM, "o").expect("no program declares dom(x)");
    reg.serve_view(Symbol::intern(DOM), Rows::new(dom.values.iter().map(|&v| vec![v]).collect()));
    let refined = lower_union(&parts, &dom_schema);
    let run = execute_physical_union_with(&refined, reg, cfg, on_unavailable)?;
    let mut improved = under.clone();
    improved.extend(run.rows);
    Ok(Refinement { under: improved, fixpoint: dom.complete, calls, dropped: run.dropped })
}

/// Assembles the report: `Δ`, and the completeness verdict — Figure 4's,
/// downgraded for what `degradation` destroyed.
fn build_report(
    under: BTreeSet<Tuple>,
    over: BTreeSet<Tuple>,
    stats: CallStats,
    plans: PlanPair,
    degradation: &DegradationReport,
) -> AnswerReport {
    let delta: BTreeSet<Tuple> = over.difference(&under).cloned().collect();
    let degraded = degradation.is_degraded();
    // A dropped overestimate disjunct breaks `ansₒ ⊇ answer`: neither
    // `Δ = ∅` nor a |ansᵤ|/|ansₒ| ratio means anything any more.
    let cover_broken = !degradation.over.is_empty() || (degraded && over.is_empty());
    let completeness = if cover_broken || delta.iter().any(|t| t.iter().any(|v| v.is_null())) {
        Completeness::Unknown
    } else if delta.is_empty() && !degraded {
        Completeness::Complete
    } else {
        // Either Δ is null-free and non-empty (so |ansₒ| ≥ 1), or only the
        // underestimate degraded: the cover still holds, so the ratio bound
        // is sound — but "complete" is no longer claimable.
        Completeness::AtLeast(under.len() as f64 / over.len() as f64)
    };
    AnswerReport { under, over, delta, completeness, stats, plans }
}

/// Which disjuncts a degraded ANSWER\* run had to drop, per plan.
///
/// Empty on a fault-free run. A dropped underestimate disjunct *shrinks*
/// `ansᵤ` (still sound: every reported answer is certain); a dropped
/// overestimate disjunct *breaks the cover* `ansₒ ⊇ answer`, so no
/// completeness bound can be trusted and the verdict falls to
/// [`Completeness::Unknown`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Disjuncts dropped while evaluating `Qᵘ`.
    pub under: Vec<DisjunctDegradation>,
    /// Disjuncts dropped while evaluating `Qᵒ`.
    pub over: Vec<DisjunctDegradation>,
}

impl DegradationReport {
    /// Did any disjunct degrade?
    pub fn is_degraded(&self) -> bool {
        !self.under.is_empty() || !self.over.is_empty()
    }

    /// Total dropped disjuncts across both plans.
    pub fn total(&self) -> usize {
        self.under.len() + self.over.len()
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_degraded() {
            return write!(f, "no degradation");
        }
        let mut first = true;
        for (plan, drops) in [("under", &self.under), ("over", &self.over)] {
            for d in drops {
                if !first {
                    writeln!(f)?;
                }
                first = false;
                write!(f, "[{plan}] {d}")?;
            }
        }
        Ok(())
    }
}

/// Per-operator runtime counters of an ANSWER\* run, split by plan. A
/// dropped disjunct has no part; the survivors keep their union positions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PairProfile {
    /// The operators of `Qᵘ`'s surviving disjuncts.
    pub under: UnionProfile,
    /// The operators of `Qᵒ`'s surviving disjuncts.
    pub over: UnionProfile,
}

/// The result of a resilient ANSWER\* run: the usual report plus an
/// account of what was lost to source failures.
#[derive(Clone, Debug, PartialEq)]
pub struct AnswerOutcome {
    /// The ANSWER\* report over the *surviving* disjuncts. Its
    /// completeness verdict already accounts for degradation (never
    /// [`Completeness::Complete`] when any disjunct dropped).
    pub report: AnswerReport,
    /// Per-disjunct degradations, split by plan.
    pub degradation: DegradationReport,
    /// What each operator of both plans did (`lapq profile` prints it).
    pub profile: PairProfile,
    /// Fetch re-attempts issued during the run.
    pub retries: u64,
    /// Transport faults observed (including recovered ones).
    pub failures: u64,
    /// Virtual milliseconds of injected latency and backoff.
    pub virtual_ms: u64,
    /// The domain-enumeration refinement of `ansᵤ`, when
    /// [`AnswerOptions::domain`] asked for one.
    pub refinement: Option<Refinement>,
}

/// The Section-4.2 refinement of the underestimate (Example 8): `dom(x)`
/// views re-admit the disjuncts PLAN\* had to drop from `Qᵘ`.
#[derive(Clone, Debug, PartialEq)]
pub struct Refinement {
    /// The improved `ansᵤ`: the report's `ansᵤ` plus the answers of the
    /// re-admitted disjuncts. A superset of the report's `ansᵤ` and, since
    /// a dropped disjunct adds nothing, still a subset of the true answer.
    pub under: BTreeSet<Tuple>,
    /// Whether domain enumeration reached its fixpoint: false when the
    /// budget ran out or a source stayed unavailable; true when no
    /// disjunct needed re-admitting, so nothing was enumerated.
    pub fixpoint: bool,
    /// Source calls domain enumeration made.
    pub calls: u64,
    /// Re-admitted disjuncts dropped after exhausting their retries.
    pub dropped: Vec<DisjunctDegradation>,
}

/// Stamps run metadata on the recorder's journal (no-op without one) so a
/// snapshot carries everything a replay needs: what ran, the query text,
/// the retry policy, the fault config, and the journal's own fidelity.
fn stamp_journal_meta(
    recorder: &Recorder,
    run_kind: &str,
    q: &UnionQuery,
    retry: &RetryPolicy,
    fault: Option<&FaultConfig>,
    exec: ExecConfig,
    domain: Option<u64>,
) {
    if let Some(journal) = recorder.journal() {
        let cfg = journal.config();
        journal.merge_meta([
            ("kind", Json::str(run_kind)),
            ("query", Json::str(q.to_string())),
            ("retry", retry.to_json()),
            ("fault", fault.map_or(Json::Null, FaultConfig::to_json)),
            ("io_workers", Json::num(exec.io_workers.max(1) as u64)),
            ("batch_width", Json::num(exec.batch_size.max(1) as u64)),
            ("columnar", Json::Bool(exec.columnar)),
            (
                "journal",
                Json::obj([
                    ("capture_rows", Json::Bool(cfg.capture_rows)),
                    ("sample_every", Json::num(cfg.sample_every)),
                ]),
            ),
        ]);
        // Only a refined run carries the key, so other journals keep their
        // bytes.
        if let Some(budget) = domain {
            journal.merge_meta([("domain", Json::num(budget))]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_ir::parse_program;

    fn run(text: &str, facts: &str) -> AnswerReport {
        let p = parse_program(text).unwrap();
        let db = Database::from_facts(facts).unwrap();
        answer_star(p.single_query().unwrap(), &p.schema, &db).unwrap()
    }

    /// A refined run at budget 10,000: the report and its refinement.
    fn refined(text: &str, facts: &str) -> (AnswerReport, Refinement) {
        let p = parse_program(text).unwrap();
        let db = Database::from_facts(facts).unwrap();
        let quiet = Recorder::disabled();
        let opts = AnswerOptions { domain: Some(10_000), ..AnswerOptions::new(&quiet) };
        let outcome = answer_star_opts(p.single_query().unwrap(), &p.schema, &db, &opts).unwrap();
        (outcome.report, outcome.refinement.expect("a refined run"))
    }

    const EX4: &str = "S^o. R^oo. B^ii. T^oo.\n\
                       Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
                       Q(x, y) :- T(x, y).";

    #[test]
    fn example_5_runtime_complete_despite_infeasibility() {
        // R(x,z), ¬S(z) produces nothing (all R.z values are in S), so the
        // unanswerable B is irrelevant and the answer is complete.
        let report = run(EX4, "R(1, 10). S(10). T(7, 8).");
        assert!(report.is_complete());
        assert_eq!(report.under.len(), 1);
        assert!(report.under.contains(&vec![Value::int(7), Value::int(8)]));
        assert_eq!(report.delta.len(), 0);
    }

    #[test]
    fn example_7_null_tuple_in_delta() {
        // R(a, b) with ¬S(b) satisfied: the overestimate contributes
        // (a, null) and no completeness bound can be given.
        let report = run(EX4, r#"R(1, 10). S(99). T(7, 8). B(1, 5)."#);
        assert_eq!(report.completeness, Completeness::Unknown);
        assert!(report
            .delta
            .contains(&vec![Value::int(1), Value::Null]));
        // The true answer contains (1, 5); the underestimate misses it.
        assert!(!report.under.contains(&vec![Value::int(1), Value::int(5)]));
    }

    #[test]
    fn ratio_when_delta_null_free() {
        // Two disjuncts, no nulls: F^o fully answerable; G-with-B dropped
        // from Qᵘ but its answerable part G(x) (head var x bound) has no
        // nulls, so Δ is null-free.
        let text = "F^o. G^o. B^i.\n\
                    Q(x) :- F(x).\n\
                    Q(x) :- G(x), B(y).";
        let report = run(text, "F(1). G(2). B(5).");
        match report.completeness {
            Completeness::AtLeast(r) => assert!((r - 0.5).abs() < 1e-9),
            other => panic!("expected AtLeast, got {other:?}"),
        }
        assert_eq!(report.delta.len(), 1);
    }

    #[test]
    fn feasible_query_always_complete_at_runtime() {
        let text = "B^ioo. B^oio. C^oo. L^o.\n\
                    Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).";
        let report = run(
            text,
            r#"B(1, "a", "t1"). B(2, "b", "t2"). C(1, "a"). C(2, "b"). L(1)."#,
        );
        assert!(report.is_complete());
        assert_eq!(report.under.len(), 1);
    }

    #[test]
    fn stats_are_collected() {
        let text = "C^oo.\nQ(i) :- C(i, a).";
        let report = run(text, r#"C(1, "a"). C(2, "b")."#);
        // Qᵘ and Qᵒ coincide; both are evaluated: 2 calls total.
        assert_eq!(report.stats.calls, 2);
        assert!(report.stats.tuples_returned >= 4);
    }

    #[test]
    fn example_8_domain_improvement_recovers_answers() {
        // B^ii unanswerable in Q1; dom enumeration finds B's second column
        // values via R and S scans... here dom comes from R^oo and T^oo.
        let (base, rep) = refined(EX4, "R(1, 10). B(1, 10). T(7, 8).");
        // Base underestimate has only the T tuple.
        assert_eq!(base.under.len(), 1);
        // dom ⊇ {1, 10, 7, 8}; B(1, 10) becomes checkable: (1, 10) is a
        // certain answer now.
        assert!(rep.under.contains(&vec![Value::int(1), Value::int(10)]));
        assert_eq!(rep.under.len(), 2);
        assert!(rep.fixpoint);
    }

    #[test]
    fn resilient_run_without_faults_matches_answer_star() {
        let text = "B^ioo. B^oio. C^oo. L^o.\n\
                    Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).";
        let facts = r#"B(1, "a", "t1"). B(2, "b", "t2"). C(1, "a"). C(2, "b"). L(1)."#;
        let p = parse_program(text).unwrap();
        let db = Database::from_facts(facts).unwrap();
        let q = p.single_query().unwrap();
        let plain = answer_star(q, &p.schema, &db).unwrap();
        let outcome = answer_star_resilient_cfg(
            q,
            &p.schema,
            &db,
            &Recorder::disabled(),
            &lap_engine::ResilienceConfig::chaos(0.0, 42),
            ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.report, plain);
        assert!(!outcome.degradation.is_degraded());
        assert_eq!(outcome.retries, 0);
        assert_eq!(outcome.failures, 0);
    }

    #[test]
    fn total_outage_degrades_every_disjunct_and_reports_unknown() {
        let text = "F^o. G^o.\n\
                    Q(x) :- F(x).\n\
                    Q(x) :- G(x).";
        let p = parse_program(text).unwrap();
        let db = Database::from_facts("F(1). G(2).").unwrap();
        let outcome = answer_star_resilient_cfg(
            p.single_query().unwrap(),
            &p.schema,
            &db,
            &Recorder::disabled(),
            &lap_engine::ResilienceConfig::chaos(1.0, 7),
            ExecConfig::default(),
        )
        .unwrap();
        assert!(outcome.report.under.is_empty());
        assert_eq!(outcome.degradation.under.len(), 2);
        assert_eq!(outcome.degradation.over.len(), 2);
        assert_eq!(outcome.report.completeness, Completeness::Unknown);
        assert!(outcome.failures > 0);
        let shown = outcome.degradation.to_string();
        assert!(shown.contains("[under]"), "{shown}");
        assert!(shown.contains("unavailable"), "{shown}");
    }

    #[test]
    fn degraded_run_never_claims_complete() {
        // Sweep seeds at a high fault rate; whenever any disjunct dropped,
        // the verdict must be non-exact and the underestimate sound.
        let text = "F^o. G^o.\n\
                    Q(x) :- F(x).\n\
                    Q(x) :- G(x).";
        let p = parse_program(text).unwrap();
        let db = Database::from_facts("F(1). G(2). G(3).").unwrap();
        let q = p.single_query().unwrap();
        let fault_free = answer_star(q, &p.schema, &db).unwrap();
        let mut saw_degraded = false;
        for seed in 0..32u64 {
            let outcome = answer_star_resilient_cfg(
                q,
                &p.schema,
                &db,
                &Recorder::disabled(),
                &lap_engine::ResilienceConfig::chaos(0.4, seed),
                ExecConfig::default(),
            )
            .unwrap();
            assert!(
                outcome.report.under.is_subset(&fault_free.under),
                "seed {seed}: degraded answers must be a subset"
            );
            if outcome.degradation.is_degraded() {
                saw_degraded = true;
                assert!(
                    !outcome.report.is_complete(),
                    "seed {seed}: degraded run claimed completeness"
                );
            }
        }
        assert!(saw_degraded, "rate 0.4 over 32 seeds must degrade at least once");
    }

    #[test]
    fn domain_improvement_never_loses_answers() {
        let text = "F^o. G^o. B^i.\n\
                    Q(x) :- F(x).\n\
                    Q(x) :- G(x), B(y).";
        let (base, rep) = refined(text, "F(1). G(2). B(1).");
        assert!(base.under.is_subset(&rep.under));
        // B(1) is reachable? dom = {1, 2} via F^o, G^o; B^i called with 1
        // and 2; B(1) holds, so G(2), B(y=1) succeeds: 2 joins the answers.
        assert!(rep.under.contains(&vec![Value::int(2)]));
    }
}
