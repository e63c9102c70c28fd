//! Cross-layer consistency of the `lap-obs` observability layer: the
//! metric counters a shared [`Recorder`] accumulates must agree with the
//! legacy per-component statistics ([`CallStats`], [`EngineStats`], the
//! `EXPLAIN ANALYZE` traces) that are now views over the same registry.

use lap::containment::{ContainmentEngine, EngineConfig};
use lap::core::{answer_star, answer_star_obs_cfg, lower_pair, CompileOptions, PreparedQuery};
use lap::engine::{
    execute_physical_union_with, Database, ExecConfig, OnUnavailable, SourceRegistry,
};
use lap::ir::parse_program;
use lap::obs::{render_text, snapshot_to_json, Json, Recorder};

fn bookstore() -> (lap::ir::Program, Database) {
    let program = parse_program(
        "B^ioo. B^oio. C^oo. L^o.\n\
         Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
    )
    .unwrap();
    let db = Database::from_facts(
        r#"
        C(1, "adams"). C(2, "clarke"). C(3, "lem").
        B(1, "adams", "hhgttg"). B(2, "clarke", "odyssey"). B(3, "lem", "solaris").
        L(2).
        "#,
    )
    .unwrap();
    (program, db)
}

/// The per-operator profile counts every request the plan makes; the
/// registry splits the same requests into wire calls and cache hits. Their
/// totals must coincide — on both cached and uncached registries.
#[test]
fn union_trace_totals_match_registry_call_stats() {
    let (program, db) = bookstore();
    let query = program.single_query().unwrap();
    let pair = lap::core::plan_star(query, &program.schema);
    let physical = lower_pair(&pair, &program.schema).over;
    for cached in [false, true] {
        let recorder = Recorder::new();
        let base = if cached {
            SourceRegistry::with_cache(&db, &program.schema)
        } else {
            SourceRegistry::new(&db, &program.schema)
        };
        let mut reg = base.recording(&recorder);
        let run = execute_physical_union_with(
            &physical,
            &mut reg,
            ExecConfig::default(),
            OnUnavailable::Abort,
        )
        .unwrap();
        let requests: u64 =
            run.profile.parts.iter().flat_map(|part| &part.ops).map(|op| op.calls).sum();
        let stats = reg.stats();
        // The operators count every request; the registry splits the same
        // requests into positive wire calls, membership probes (disjoint
        // since the resilience work), and cache hits.
        assert_eq!(
            requests,
            stats.calls + reg.membership_probes() + stats.cache_hits,
            "cached={cached}: operators count requests, stats split them three ways"
        );
        assert!(reg.membership_probes() > 0, "the bookstore plan ends in `not L(i)`");
        // The recorder sees exactly what the legacy stats view reports.
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("source.calls"), stats.calls);
        assert_eq!(snap.counter("source.cache_hits"), stats.cache_hits);
        assert_eq!(snap.counter("source.tuples_returned"), stats.tuples_returned);
    }
}

/// Lifetime [`EngineStats`] must equal the sum of the per-decision
/// [`ContainmentStats`] mirrored into the recorder over a workload.
#[test]
fn engine_stats_match_summed_decision_stats() {
    let program = parse_program(
        "R^oo. S^io.\n\
         P(x) :- R(x, y), S(x, z).\n\
         Q(x) :- R(x, y).",
    )
    .unwrap();
    let p = program.query("P").unwrap();
    let q = program.query("Q").unwrap();
    let recorder = Recorder::new();
    let engine = ContainmentEngine::with_recorder(
        EngineConfig { parallel: false, cache: true },
        &recorder,
    );
    let mut summed_recursive = 0;
    let mut summed_mappings = 0;
    let mut decisions = 0;
    for _ in 0..3 {
        for (a, b) in [(p, q), (q, p)] {
            // Head predicates differ; compare via renamed copies the way
            // `lapq contain` does.
            let mut a2 = a.clone();
            a2.head.predicate = b.head.predicate;
            a2.signature = b.signature;
            for d in &mut a2.disjuncts {
                d.head.predicate = b.head.predicate;
            }
            let (_, per_decision) = engine.contained_stats(&a2, b);
            summed_recursive += per_decision.recursive_calls;
            summed_mappings += per_decision.mappings_checked;
            decisions += 1;
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.decisions, decisions);
    assert_eq!(stats.cache_hits + stats.cache_misses, decisions);
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("containment.decisions"), stats.decisions);
    assert_eq!(snap.counter("containment.cache_hits"), stats.cache_hits);
    assert_eq!(snap.counter("containment.cache_misses"), stats.cache_misses);
    assert_eq!(snap.counter("containment.recursive_calls"), summed_recursive);
    assert_eq!(snap.counter("containment.mappings_checked"), summed_mappings);
    assert_eq!(
        snap.counter("containment.verdicts.contained")
            + snap.counter("containment.verdicts.not_contained"),
        stats.decisions
    );
}

/// `answer_star_obs_cfg` must (a) return exactly what `answer_star` returns,
/// (b) mirror the legacy `CallStats` into `source.*` counters, and (c)
/// cover the pipeline phases with spans.
#[test]
fn answer_star_obs_matches_legacy_and_spans_the_pipeline() {
    let (program, db) = bookstore();
    let query = program.single_query().unwrap();
    let plain = answer_star(query, &program.schema, &db).unwrap();
    let recorder = Recorder::with_tracing();
    let cfg = ExecConfig::default();
    let observed = answer_star_obs_cfg(query, &program.schema, &db, &recorder, cfg).unwrap();
    assert_eq!(plain.under, observed.under);
    assert_eq!(plain.delta, observed.delta);
    assert_eq!(plain.stats, observed.stats);
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("source.calls"), observed.stats.calls);
    assert_eq!(
        snap.counter("source.tuples_returned"),
        observed.stats.tuples_returned
    );
    assert_eq!(snap.counter("source.cache_hits"), observed.stats.cache_hits);
    for phase in ["answer*", "plan*", "answerable", "answer*.under", "answer*.over"] {
        assert!(snap.find_span(phase).is_some(), "missing span {phase:?}");
    }
    // The rows-per-call histogram saw every wire call.
    assert_eq!(
        snap.metrics.histograms["source.rows_per_call"].count,
        observed.stats.calls
    );
}

/// Negative-literal membership probes are counted apart from positive
/// source calls: the `source.membership` counter, the registry's
/// `membership_probes()` view, and the full ANSWER\* pipeline must agree.
#[test]
fn membership_probes_are_split_from_positive_calls() {
    use lap::engine::execute_physical_union;
    let (program, db) = bookstore();
    let query = program.single_query().unwrap();
    let pair = lap::core::plan_star(query, &program.schema);
    let recorder = Recorder::new();
    let mut reg = SourceRegistry::new(&db, &program.schema).recording(&recorder);
    let physical = lower_pair(&pair, &program.schema).over;
    execute_physical_union(&physical, &mut reg, ExecConfig::default()).unwrap();
    let probes = reg.membership_probes();
    assert!(probes > 0, "the bookstore plan ends in `not L(i)`");
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("source.membership"), probes);
    // Membership probes are DISJOINT from positive calls: `source.calls`
    // counts only positive fetches, and the rows-per-call histogram (a
    // positive-call profile) never sees a probe. Their sum is the wire
    // total the per-literal trace observes.
    assert_eq!(snap.counter("source.calls"), reg.stats().calls);
    assert_eq!(
        snap.metrics.histograms["source.rows_per_call"].count,
        reg.stats().calls,
        "membership probes must not enter the positive-call histogram"
    );

    // The end-to-end pipeline reports the same counter.
    let rec2 = Recorder::new();
    let _ = answer_star_obs_cfg(query, &program.schema, &db, &rec2, ExecConfig::default()).unwrap();
    assert!(rec2.snapshot().counter("source.membership") > 0);
}

/// The FEASIBLE decision the compile driver makes through a recorder-backed
/// engine opens the `feasible` span (plus `containment` when the check
/// actually runs).
#[test]
fn feasible_obs_spans_cover_the_decision() {
    let program = parse_program(
        "R^oo. S^io.\n\
         Q(x) :- R(x, y), not S(x, y).",
    )
    .unwrap();
    let query = program.single_query().unwrap();
    let recorder = Recorder::with_tracing();
    let engine = ContainmentEngine::with_recorder(EngineConfig::default(), &recorder);
    let opts = CompileOptions { recorder: &recorder, feasibility: Some(&engine) };
    let compiled = PreparedQuery::compile(query, &program.schema, &opts);
    let report = compiled.feasibility().expect("compiled with an engine");
    let snap = recorder.snapshot();
    assert!(snap.find_span("feasible").is_some());
    assert!(snap.find_span("plan*").is_some());
    assert!(snap.find_span("answerable").is_some());
    if report.containment.is_some() {
        assert!(snap.find_span("containment").is_some());
        assert!(snap.counter("containment.decisions") >= 1);
    }
}

/// The JSON exporter round-trips through the crate's own parser with the
/// required document shape (`counters` / `histograms` / `spans`).
#[test]
fn snapshot_json_round_trips_with_required_keys() {
    let (program, db) = bookstore();
    let query = program.single_query().unwrap();
    let recorder = Recorder::with_tracing();
    let cfg = ExecConfig::default();
    let report = answer_star_obs_cfg(query, &program.schema, &db, &recorder, cfg).unwrap();
    let snap = recorder.snapshot();
    let doc = snapshot_to_json(&snap);
    let parsed = lap::obs::json::parse(&doc.to_pretty()).unwrap();
    let counters = parsed.get("counters").expect("counters key");
    assert_eq!(
        counters.get("source.calls").and_then(Json::as_u64),
        Some(report.stats.calls)
    );
    let hist = parsed
        .get("histograms")
        .and_then(|h| h.get("source.rows_per_call"))
        .expect("rows_per_call histogram");
    assert_eq!(hist.get("count").and_then(Json::as_u64), Some(report.stats.calls));
    let spans = parsed.get("spans").and_then(Json::as_arr).expect("spans array");
    assert!(!spans.is_empty());
    fn span_names(spans: &[Json], out: &mut Vec<String>) {
        for s in spans {
            if let Some(name) = s.get("name").and_then(Json::as_str) {
                out.push(name.to_owned());
            }
            if let Some(children) = s.get("children").and_then(Json::as_arr) {
                span_names(children, out);
            }
        }
    }
    let mut names = Vec::new();
    span_names(spans, &mut names);
    for phase in ["answer*", "plan*", "answerable"] {
        assert!(names.iter().any(|n| n == phase), "missing {phase:?} in {names:?}");
    }
    // The text renderer shows the same snapshot.
    let text = render_text(&snap);
    assert!(text.contains("answer*"), "{text}");
    assert!(text.contains("source.calls"), "{text}");
}
