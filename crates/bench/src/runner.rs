//! The experiment suite (see DESIGN.md §6 and EXPERIMENTS.md): the
//! paper-fidelity report.
//!
//! Each experiment runs at one fixed size, asserts its own claims (a
//! broken claim panics) and returns a [`Table`]; [`EXPERIMENTS`] lists
//! them all, the `experiments` binary prints them, and tier-1 runs every
//! entry. Everything is seeded — rerunning reproduces identical workloads
//! (timings vary with the machine, shapes should not).

use crate::acyclic::{cq_contained_acyclic, is_acyclic};
use crate::tables::{time_median, Cell, Table};
use lap_baselines::{cq_stable, cq_stable_star, ucq_stable, ucq_stable_star};
use lap_containment::{cq_contained_canonical, ContainmentEngine};
use lap_core::{
    answer_star, answer_star_with_domain, answerable_split, containment_to_feasibility, feasible,
    feasible_detailed, plan_star, Completeness, DecisionPath,
};
use lap_constraints::{feasible_under, prune_unsatisfiable, ConstraintSet, InclusionDep};
use lap_engine::{eval_oracle, eval_ordered_union, SourceRegistry};
use lap_mediator::Mediator;
use lap_planner::{minimal_executable_plan, optimize_plan_pair, CostModel, Strategy};
use lap_ir::{parse_program, Predicate, Schema, UnionQuery};
use lap_workload::families::{
    excluded_middle_pair, feasible_not_orderable, forward_chain, gav_unfolding, reversed_chain,
    star,
};
use lap_workload::scenario::{bookstore, BookstoreConfig};
use lap_workload::{
    gen_instance, gen_instance_with_inclusion, gen_query, gen_schema, InstanceConfig, QueryConfig,
    SchemaConfig,
};
use lap_prng::StdRng;
use std::time::Duration;

/// One experiment at its fixed size: panics on a broken claim, else
/// returns its table.
pub type Experiment = fn() -> Table;

/// Every experiment in report order: its id (what `experiments` accepts
/// on the command line) and the function that runs it. The ids are
/// stable; retired experiments (E18, E23) leave gaps rather than
/// renumbering.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("e1", e1_example_fidelity),
    ("e2", e2_answerable_scaling),
    ("e3", e3_plan_star_scaling),
    ("e4", e4_fast_path_effectiveness),
    ("e5", e5_cq_baselines),
    ("e6", e6_ucq_baselines),
    ("e7", e7_negation_cost),
    ("e8", e8_containment_engines),
    ("e9", e9_runtime_completeness),
    ("e10", e10_domain_enumeration),
    ("e11", e11_hardness_stress),
    ("e12", e12_semantic_optimizer),
    ("e13", e13_recursion_profile),
    ("e14", e14_plan_ordering),
    ("e15", e15_mediator_pipeline),
    ("e16", e16_index_ablation),
    ("e17", e17_end_to_end_scenario),
    ("e19", e19_fault_resilience),
    ("e20", e20_journal_overhead),
    ("e21", e21_overlapped_io),
    ("e22", e22_calibrated_replanning),
    ("e24", e24_daemon_concurrency),
    ("e25", e25_daemon_drift_recalibration),
];

/// Number of timing iterations per measured point.
const TIMING_ITERS: usize = 9;

/// Instance sizes (literals) of the E2/E3 scaling sweeps.
const SCALING_SIZES: [usize; 6] = [8, 16, 32, 64, 128, 256];

fn default_schema(seed: u64) -> Schema {
    gen_schema(
        &SchemaConfig {
            num_relations: 5,
            min_arity: 1,
            max_arity: 3,
            patterns_per_relation: 2,
            input_fraction: 0.4,
            free_scan_fraction: 0.5,
        },
        &mut StdRng::seed_from_u64(seed),
    )
}

fn query_cfg(disjuncts: usize, positives: usize, negatives: usize) -> QueryConfig {
    QueryConfig {
        num_disjuncts: disjuncts,
        positive_per_disjunct: positives,
        negative_per_disjunct: negatives,
        extra_vars: 2,
        head_arity: 2,
        constant_fraction: 0.1,
        constant_pool: 3,
    }
}

/// E1 — example fidelity: each of the paper's ten worked examples produces
/// exactly the outcome the paper states.
fn e1_example_fidelity() -> Table {
    let mut t = Table::new(
        "E1 — paper example fidelity",
        "Each worked example of the paper, checked programmatically (see tests/paper_examples.rs for the full assertions).",
        &["example", "paper's claim", "reproduced"],
    );
    let checks: Vec<(&str, &str, bool)> = vec![
        ("Ex. 1", "bookstore query not executable, but feasible via reordering", {
            let p = parse_program(
                "B^ioo. B^oio. C^oo. L^o.\nQ(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
            )
            .unwrap();
            let q = p.single_query().unwrap();
            !lap_core::is_executable(q, &p.schema)
                && feasible_detailed(q, &p.schema).decided_by == DecisionPath::PlansCoincide
        }),
        ("Ex. 2", "B^ioo/B^oio admit by-isbn and by-author calls, not a free scan", {
            let schema = Schema::from_patterns(&[("B", "ioo"), ("B", "oio")]).unwrap();
            let decl = schema.relation(lap_ir::Symbol::intern("B")).unwrap();
            decl.callable_with(|j| j == 0)
                && decl.callable_with(|j| j == 1)
                && !decl.callable_with(|_| false)
        }),
        ("Ex. 3", "two-rule union feasible but not orderable", {
            let inst = feasible_not_orderable(1);
            !lap_core::is_orderable(&inst.query, &inst.schema)
                && feasible(&inst.query, &inst.schema)
        }),
        ("Ex. 4", "PLAN* yields the printed Qu (T only) and Qo (with y = null)", {
            let p = parse_program(
                "S^o. R^oo. B^ii. T^oo.\nQ(x, y) :- not S(z), R(x, z), B(x, y).\nQ(x, y) :- T(x, y).",
            )
            .unwrap();
            let pair = plan_star(p.single_query().unwrap(), &p.schema);
            pair.under.parts.len() == 1
                && pair.over.parts.len() == 2
                && pair.over.parts[0].to_string() == "Q(x, y) :- R(x, z), not S(z), y = null."
        }),
        ("Ex. 5", "infeasible query, yet runtime-complete on an R.z ⊆ S instance", {
            let p = parse_program(
                "S^o. R^oo. B^ii. T^oo.\nQ(x, y) :- not S(z), R(x, z), B(x, y).\nQ(x, y) :- T(x, y).",
            )
            .unwrap();
            let q = p.single_query().unwrap();
            let db = lap_engine::Database::from_facts("R(1, 10). S(10). T(7, 8). B(1, 4).").unwrap();
            !feasible(q, &p.schema) && answer_star(q, &p.schema, &db).unwrap().is_complete()
        }),
        ("Ex. 6", "foreign-key-closed instances are always runtime-complete", {
            let p = parse_program(
                "S^o. R^oo. B^ii. T^oo.\nQ(x, y) :- not S(z), R(x, z), B(x, y).\nQ(x, y) :- T(x, y).",
            )
            .unwrap();
            let q = p.single_query().unwrap();
            (0..5u64).all(|seed| {
                let db = gen_instance_with_inclusion(
                    &p.schema,
                    &InstanceConfig { domain_size: 8, tuples_per_relation: 10 },
                    "R", 1, "S", 0,
                    &mut StdRng::seed_from_u64(seed),
                );
                answer_star(q, &p.schema, &db).unwrap().is_complete()
            })
        }),
        ("Ex. 7", "surviving overestimate binding yields (a, null), no numeric bound", {
            let p = parse_program(
                "S^o. R^oo. B^ii. T^oo.\nQ(x, y) :- not S(z), R(x, z), B(x, y).\nQ(x, y) :- T(x, y).",
            )
            .unwrap();
            let db = lap_engine::Database::from_facts("R(1, 2). S(3). B(1, 9).").unwrap();
            let rep = answer_star(p.single_query().unwrap(), &p.schema, &db).unwrap();
            rep.delta.contains(&vec![lap_engine::Value::int(1), lap_engine::Value::Null])
                && rep.completeness == Completeness::Unknown
        }),
        ("Ex. 8", "dom(y) view turns the false underestimate into a working plan", {
            let p = parse_program(
                "S^o. R^oo. B^ii. T^oo.\nQ(x, y) :- not S(z), R(x, z), B(x, y).\nQ(x, y) :- T(x, y).",
            )
            .unwrap();
            let db = lap_engine::Database::from_facts("R(1, 2). S(3). B(1, 2). T(5, 6).").unwrap();
            let rep = answer_star_with_domain(p.single_query().unwrap(), &p.schema, &db, 10_000)
                .unwrap();
            rep.improved_under.len() == 2 && rep.base.under.len() == 1
        }),
        ("Ex. 9", "CQstable minimizes to F,B; CQstable*/FEASIBLE check ans ⊑ Q; all accept", {
            let p = parse_program("F^o. B^i.\nQ(x) :- F(x), B(x), B(y), F(z).").unwrap();
            let q = p.single_query().unwrap();
            let cq = &q.disjuncts[0];
            lap_containment::minimize_cq(cq).body.len() == 2
                && cq_stable(cq, &p.schema)
                && cq_stable_star(cq, &p.schema)
                && feasible(q, &p.schema)
        }),
        ("Ex. 10", "UCQstable minimizes to F; UCQstable*/FEASIBLE accept the union", {
            let p = parse_program(
                "F^o. G^o. H^o. B^i.\nQ(x) :- F(x), G(x).\nQ(x) :- F(x), H(x), B(y).\nQ(x) :- F(x).",
            )
            .unwrap();
            let q = p.single_query().unwrap();
            lap_containment::minimize_ucq(q).disjuncts.len() == 1
                && ucq_stable(q, &p.schema)
                && ucq_stable_star(q, &p.schema)
                && feasible(q, &p.schema)
        }),
    ];
    for (id, claim, ok) in checks {
        assert!(ok, "{id} does not reproduce: {claim}");
        t.row(vec![id.into(), claim.into(), "yes".into()]);
    }
    t
}

/// Fits the growth exponent between consecutive (n, time) points.
fn growth_exponent(prev: (usize, Duration), cur: (usize, Duration)) -> f64 {
    let dn = (cur.0 as f64 / prev.0 as f64).ln();
    let dt = (cur.1.as_nanos().max(1) as f64 / prev.1.as_nanos().max(1) as f64).ln();
    dt / dn
}

/// E2 — ANSWERABLE scaling (Fig. 1; Proposition 2 claims quadratic time).
fn e2_answerable_scaling() -> Table {
    let mut t = Table::new(
        "E2 — ANSWERABLE scaling (Fig. 1)",
        "Reversed chains force one discovery per pass (worst case, claim: quadratic); forward chains finish in one pass (claim: linear). exponent = log-log slope vs previous row.",
        &["n (literals)", "reversed chain", "exp", "forward chain", "exp"],
    );
    let mut prev: Option<((usize, Duration), (usize, Duration))> = None;
    for n in SCALING_SIZES {
        let rev = reversed_chain(n);
        let fwd = forward_chain(n);
        let d_rev = time_median(TIMING_ITERS, || {
            std::hint::black_box(answerable_split(&rev.query.disjuncts[0], &rev.schema));
        });
        let d_fwd = time_median(TIMING_ITERS, || {
            std::hint::black_box(answerable_split(&fwd.query.disjuncts[0], &fwd.schema));
        });
        let (e_rev, e_fwd) = match prev {
            Some((pr, pf)) => (
                Cell::fixed(growth_exponent(pr, (n, d_rev)), 2),
                Cell::fixed(growth_exponent(pf, (n, d_fwd)), 2),
            ),
            None => (Cell::Blank, Cell::Blank),
        };
        t.row(vec![n.into(), d_rev.into(), e_rev, d_fwd.into(), e_fwd]);
        prev = Some(((n, d_rev), (n, d_fwd)));
    }
    t
}

/// E3 — PLAN\* scaling (Fig. 2; claim: quadratic).
fn e3_plan_star_scaling() -> Table {
    let mut t = Table::new(
        "E3 — PLAN* scaling (Fig. 2)",
        "PLAN* = ANSWERABLE per disjunct + plan assembly; same quadratic worst case. Star queries have maximal fan-out at one variable.",
        &["n (literals)", "reversed chain", "star", "2-disjunct union"],
    );
    for n in SCALING_SIZES {
        let rev = reversed_chain(n);
        let st = star(n);
        let fno = feasible_not_orderable(n);
        let d_rev = time_median(TIMING_ITERS, || {
            std::hint::black_box(plan_star(&rev.query, &rev.schema));
        });
        let d_star = time_median(TIMING_ITERS, || {
            std::hint::black_box(plan_star(&st.query, &st.schema));
        });
        let d_fno = time_median(TIMING_ITERS, || {
            std::hint::black_box(plan_star(&fno.query, &fno.schema));
        });
        t.row(vec![n.into(), d_rev.into(), d_star.into(), d_fno.into()]);
    }
    t
}

/// E4 — how often FEASIBLE's fast paths decide without containment.
fn e4_fast_path_effectiveness() -> Table {
    let num_queries = 200usize;
    let mut t = Table::new(
        "E4 — FEASIBLE fast-path effectiveness (Fig. 3)",
        "Random UCQ¬ workloads: fraction of feasibility decisions reached by each branch, and the mean decision time per branch.",
        &["negatives/disjunct", "plans coincide", "null shortcut", "containment needed", "mean time (coincide)", "mean time (containment)"],
    );
    for negs in 0..=3usize {
        let mut counts = [0usize; 3];
        let mut time_fast = Duration::ZERO;
        let mut time_slow = Duration::ZERO;
        for seed in 0..num_queries as u64 {
            let schema = default_schema(seed % 16);
            let q = gen_query(&schema, &query_cfg(2, 3, negs), &mut StdRng::seed_from_u64(seed));
            let t0 = std::time::Instant::now();
            let report = feasible_detailed(&q, &schema);
            let dt = t0.elapsed();
            match report.decided_by {
                DecisionPath::PlansCoincide => {
                    counts[0] += 1;
                    time_fast += dt;
                }
                DecisionPath::OverestimateHasNull => counts[1] += 1,
                DecisionPath::ContainmentCheck => {
                    counts[2] += 1;
                    time_slow += dt;
                }
            }
        }
        let pct = |c: usize| Cell::percent(c as f64, num_queries as f64, 0);
        let mean = |total: Duration, c: usize| {
            if c == 0 {
                Cell::Blank
            } else {
                Cell::Duration(total / c as u32)
            }
        };
        t.row(vec![
            negs.into(),
            pct(counts[0]),
            pct(counts[1]),
            pct(counts[2]),
            mean(time_fast, counts[0]),
            mean(time_slow, counts[2]),
        ]);
    }
    t
}

/// E5 — CQ baselines: CQstable vs CQstable\* (≡ FEASIBLE on CQ).
fn e5_cq_baselines() -> Table {
    let num_queries = 100usize;
    let mut t = Table::new(
        "E5 — CQ feasibility: CQstable vs CQstable*/FEASIBLE (§5.3)",
        "Random plain CQs; the three algorithms must agree; CQstable pays for minimization up front, CQstable* can skip the containment when ans(Q) = Q.",
        &["positives", "agreement", "CQstable", "CQstable*", "FEASIBLE"],
    );
    for positives in [3usize, 5, 7] {
        let queries: Vec<(UnionQuery, Schema)> = (0..num_queries as u64)
            .map(|seed| {
                let schema = default_schema(seed % 16);
                let q = gen_query(
                    &schema,
                    &query_cfg(1, positives, 0),
                    &mut StdRng::seed_from_u64(1000 + seed),
                );
                (q, schema)
            })
            .collect();
        let agreeing = queries
            .iter()
            .filter(|(q, schema)| {
                let f = feasible(q, schema);
                cq_stable(&q.disjuncts[0], schema) == f
                    && cq_stable_star(&q.disjuncts[0], schema) == f
            })
            .count();
        assert_eq!(
            agreeing, num_queries,
            "CQstable, CQstable* and FEASIBLE disagree ({positives} positives)"
        );
        let d_stable = time_median(3, || {
            for (q, schema) in &queries {
                std::hint::black_box(cq_stable(&q.disjuncts[0], schema));
            }
        });
        let d_star = time_median(3, || {
            for (q, schema) in &queries {
                std::hint::black_box(cq_stable_star(&q.disjuncts[0], schema));
            }
        });
        let d_feasible = time_median(3, || {
            for (q, schema) in &queries {
                std::hint::black_box(feasible(q, schema));
            }
        });
        t.row(vec![
            positives.into(),
            Cell::percent(agreeing as f64, num_queries as f64, 0),
            (d_stable / num_queries as u32).into(),
            (d_star / num_queries as u32).into(),
            (d_feasible / num_queries as u32).into(),
        ]);
    }
    t
}

/// E6 — UCQ baselines: UCQstable vs UCQstable\* vs FEASIBLE.
fn e6_ucq_baselines() -> Table {
    let num_queries = 60usize;
    let mut t = Table::new(
        "E6 — UCQ feasibility: UCQstable vs UCQstable* vs FEASIBLE (§5.4)",
        "Random plain UCQs; all three must agree. UCQstable minimizes the union first; UCQstable* and FEASIBLE avoid minimization.",
        &["disjuncts", "agreement", "UCQstable", "UCQstable*", "FEASIBLE"],
    );
    for disjuncts in [2usize, 4, 6] {
        let queries: Vec<(UnionQuery, Schema)> = (0..num_queries as u64)
            .map(|seed| {
                let schema = default_schema(seed % 16);
                let q = gen_query(
                    &schema,
                    &query_cfg(disjuncts, 3, 0),
                    &mut StdRng::seed_from_u64(2000 + seed),
                );
                (q, schema)
            })
            .collect();
        let agreeing = queries
            .iter()
            .filter(|(q, schema)| {
                let f = feasible(q, schema);
                ucq_stable(q, schema) == f && ucq_stable_star(q, schema) == f
            })
            .count();
        assert_eq!(
            agreeing, num_queries,
            "UCQstable, UCQstable* and FEASIBLE disagree ({disjuncts} disjuncts)"
        );
        let d_stable = time_median(3, || {
            for (q, schema) in &queries {
                std::hint::black_box(ucq_stable(q, schema));
            }
        });
        let d_star = time_median(3, || {
            for (q, schema) in &queries {
                std::hint::black_box(ucq_stable_star(q, schema));
            }
        });
        let d_feasible = time_median(3, || {
            for (q, schema) in &queries {
                std::hint::black_box(feasible(q, schema));
            }
        });
        t.row(vec![
            disjuncts.into(),
            Cell::percent(agreeing as f64, num_queries as f64, 0),
            (d_stable / num_queries as u32).into(),
            (d_star / num_queries as u32).into(),
            (d_feasible / num_queries as u32).into(),
        ]);
    }
    t
}

/// E7 — cost of negation and union width on the full UCQ¬ decision.
fn e7_negation_cost() -> Table {
    let num_queries = 60usize;
    let mut t = Table::new(
        "E7 — feasibility cost vs negation and union width (Cor. 19)",
        "Mean FEASIBLE time on random UCQ¬; the Π₂ᴾ worst case hides behind the fast paths until negation and width grow.",
        &["disjuncts", "neg = 0", "neg = 1", "neg = 2", "neg = 3"],
    );
    for disjuncts in [1usize, 2, 4] {
        let mut cells = vec![disjuncts.into()];
        for negs in 0..=3usize {
            let queries: Vec<(UnionQuery, Schema)> = (0..num_queries as u64)
                .map(|seed| {
                    let schema = default_schema(seed % 16);
                    let q = gen_query(
                        &schema,
                        &query_cfg(disjuncts, 3, negs),
                        &mut StdRng::seed_from_u64(3000 + seed),
                    );
                    (q, schema)
                })
                .collect();
            let d = time_median(3, || {
                for (q, schema) in &queries {
                    std::hint::black_box(feasible(q, schema));
                }
            });
            cells.push((d / num_queries as u32).into());
        }
        t.row(cells);
    }
    t
}

/// E8 — containment engines: mapping vs canonical DB vs acyclic fast path.
fn e8_containment_engines() -> Table {
    let num_pairs = 100usize;
    let mut t = Table::new(
        "E8 — CONT(CQ) engines (§5.1, [CR97] fast path)",
        "Random CQ pairs: the two generic engines agree 100%; when Q is acyclic the GYO+Yannakakis path applies (poly-time).",
        &["positives", "agreement", "acyclic Q", "mapping", "canonical DB", "acyclic path"],
    );
    for positives in [3usize, 5, 7] {
        let pairs: Vec<_> = (0..num_pairs as u64)
            .map(|seed| {
                let schema = default_schema(seed % 16);
                let p = gen_query(&schema, &query_cfg(1, positives, 0), &mut StdRng::seed_from_u64(seed))
                    .disjuncts[0]
                    .clone();
                let q = gen_query(
                    &schema,
                    &query_cfg(1, positives, 0),
                    &mut StdRng::seed_from_u64(seed + 5000),
                )
                .disjuncts[0]
                    .clone();
                (p, q)
            })
            .collect();
        // The mapping search as production pays for it: the engine door on
        // single-disjunct unions.
        let engine = ContainmentEngine::default();
        let unions: Vec<_> = pairs
            .iter()
            .map(|(p, q)| (UnionQuery::single(p.clone()), UnionQuery::single(q.clone())))
            .collect();
        let mut agreeing = 0usize;
        let mut acyclic_count = 0usize;
        for ((p, q), (up, uq)) in pairs.iter().zip(&unions) {
            let a = engine.contained(up, uq);
            let mut agree = a == cq_contained_canonical(p, q);
            if is_acyclic(q) {
                acyclic_count += 1;
                agree &= cq_contained_acyclic(p, q) == Some(a);
            }
            agreeing += agree as usize;
        }
        assert_eq!(agreeing, num_pairs, "containment engines disagree ({positives} positives)");
        let d_map = time_median(3, || {
            for (up, uq) in &unions {
                std::hint::black_box(engine.contained(up, uq));
            }
        });
        let d_canon = time_median(3, || {
            for (p, q) in &pairs {
                std::hint::black_box(cq_contained_canonical(p, q));
            }
        });
        let d_acyc = time_median(3, || {
            for (p, q) in &pairs {
                std::hint::black_box(cq_contained_acyclic(p, q));
            }
        });
        t.row(vec![
            positives.into(),
            Cell::percent(agreeing as f64, num_pairs as f64, 0),
            Cell::percent(acyclic_count as f64, num_pairs as f64, 0),
            (d_map / num_pairs as u32).into(),
            (d_canon / num_pairs as u32).into(),
            (d_acyc / num_pairs as u32).into(),
        ]);
    }
    t
}

/// E9 — runtime completeness of infeasible plans (Fig. 4; Examples 5–6).
fn e9_runtime_completeness() -> Table {
    let num_runs = 100usize;
    let mut t = Table::new(
        "E9 — runtime completeness for infeasible queries (Fig. 4)",
        "GAV-style plans with blocked disjuncts over random instances vs foreign-key-closed instances (Example 6's semantic constraint).",
        &["instance family", "runs", "infeasible", "complete at runtime", "mean lower bound (incomplete, null-free Δ)"],
    );
    let p = parse_program(
        "S^o. R^oo. B^ii. T^oo.\n\
         Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
         Q(x, y) :- T(x, y).",
    )
    .unwrap();
    let q = p.single_query().unwrap();
    assert!(!feasible(q, &p.schema));
    let cfg = InstanceConfig {
        domain_size: 8,
        tuples_per_relation: 10,
    };
    for (label, fk_closed) in [("random", false), ("R.z ⊆ S.z (fk-closed)", true)] {
        let mut complete = 0usize;
        let mut bounds: Vec<f64> = Vec::new();
        for seed in 0..num_runs as u64 {
            let mut rng = StdRng::seed_from_u64(7000 + seed);
            let db = if fk_closed {
                gen_instance_with_inclusion(&p.schema, &cfg, "R", 1, "S", 0, &mut rng)
            } else {
                gen_instance(&p.schema, &cfg, &mut rng)
            };
            let rep = answer_star(q, &p.schema, &db).unwrap();
            match rep.completeness {
                Completeness::Complete => complete += 1,
                Completeness::AtLeast(r) => bounds.push(r),
                Completeness::Unknown => {}
            }
        }
        if fk_closed {
            assert_eq!(complete, num_runs, "fk-closed instances must all be runtime-complete");
        }
        let mean_bound = if bounds.is_empty() {
            Cell::Blank
        } else {
            Cell::fixed(bounds.iter().sum::<f64>() / bounds.len() as f64, 2)
        };
        t.row(vec![
            label.into(),
            num_runs.into(),
            "yes".into(),
            Cell::percent(complete as f64, num_runs as f64, 0),
            mean_bound,
        ]);
    }
    t
}

/// E10 — domain enumeration: recall recovered vs calls spent (Example 8).
fn e10_domain_enumeration() -> Table {
    let num_runs = 30usize;
    let mut t = Table::new(
        "E10 — domain-enumeration refinement of the underestimate (Ex. 8, [DL97])",
        "GAV plans with blocked disjuncts: recall of ansᵤ against the oracle, without and with dom(x) views, and the extra source calls spent.",
        &["blocked disjuncts", "recall (plain)", "recall (dom)", "mean dom calls", "fixpoint reached"],
    );
    for blocked in [1usize, 2, 3] {
        let inst = gav_unfolding(2, blocked, 1);
        let cfg = InstanceConfig {
            domain_size: 6,
            tuples_per_relation: 8,
        };
        let mut plain_hits = 0usize;
        let mut dom_hits = 0usize;
        let mut oracle_total = 0usize;
        let mut calls = 0u64;
        let mut fixpoints = 0usize;
        for seed in 0..num_runs as u64 {
            let db = gen_instance(&inst.schema, &cfg, &mut StdRng::seed_from_u64(8000 + seed));
            let oracle = eval_oracle(&inst.query, &db).unwrap();
            let rep =
                answer_star_with_domain(&inst.query, &inst.schema, &db, 100_000).unwrap();
            oracle_total += oracle.len();
            plain_hits += rep.base.under.intersection(&oracle).count();
            dom_hits += rep.improved_under.intersection(&oracle).count();
            calls += rep.domain_calls;
            fixpoints += rep.domain_complete as usize;
        }
        let recall = |hits: usize| {
            if oracle_total == 0 {
                Cell::Blank
            } else {
                Cell::percent(hits as f64, oracle_total as f64, 0)
            }
        };
        t.row(vec![
            blocked.into(),
            recall(plain_hits),
            recall(dom_hits),
            Cell::fixed(calls as f64 / num_runs as f64, 0),
            format!("{}/{}", fixpoints, num_runs).into(),
        ]);
    }
    t
}

/// E11 — hardness stress: Theorem 18 instances and the excluded-middle
/// family driving the Wei–Lausen recursion.
fn e11_hardness_stress() -> Table {
    let mut t = Table::new(
        "E11 — worst-case stress (Thm. 18, Π₂ᴾ core)",
        "Excluded-middle family: P(x):-R(x) vs the union over all 2^n sign patterns of S1..Sn. Both the direct containment and the Theorem-18 feasibility instance are measured; verdicts must agree (always contained/feasible).",
        &["n", "disjuncts", "CONT time", "FEASIBLE(thm18) time", "verdicts agree"],
    );
    for n in [2usize, 4, 6, 8] {
        let (p, q) = excluded_middle_pair(n);
        // The verdicts are the timed runs' own: at n = 8 each decision is
        // a sizeable share of the registry's debug-build time.
        let engine = ContainmentEngine::default();
        let mut cont = false;
        let d_cont =
            time_median(3, || cont = std::hint::black_box(engine.contained_stats(&p, &q)).0);
        let inst = containment_to_feasibility(&p, &q);
        let mut feas = false;
        let d_feas =
            time_median(3, || feas = std::hint::black_box(feasible(&inst.query, &inst.schema)));
        assert!(cont, "excluded middle must be contained (n = {n})");
        assert!(feas, "the Theorem-18 instance must be feasible (n = {n})");
        t.row(vec![
            n.into(),
            (1usize << n).into(),
            d_cont.into(),
            d_feas.into(),
            "yes".into(),
        ]);
    }
    t
}

/// Builds the E12 family: `k` Example-6-style blocked disjuncts (each with
/// its own relations and foreign key) plus one executable disjunct, and the
/// matching constraint set.
fn example6_family(k: usize) -> (UnionQuery, Schema, ConstraintSet) {
    let mut text = String::from("T^oo.\n");
    for j in 0..k {
        text.push_str(&format!("S{j}^o. R{j}^oo. B{j}^ii.\n"));
    }
    text.push_str("Q(x, y) :- T(x, y).\n");
    for j in 0..k {
        text.push_str(&format!(
            "Q(x, y) :- not S{j}(z), R{j}(x, z), B{j}(x, y).\n"
        ));
    }
    let p = parse_program(&text).expect("family parses");
    let mut cs = ConstraintSet::new();
    for j in 0..k {
        cs = cs.with_inclusion(InclusionDep::new(
            Predicate::new(&format!("R{j}"), 2),
            vec![1],
            Predicate::new(&format!("S{j}"), 1),
            vec![0],
        ));
    }
    (p.single_query().unwrap().clone(), p.schema, cs)
}

/// E12 — the semantic optimizer (Example 6): integrity constraints prune
/// the blocked disjuncts at compile time, flipping feasibility.
fn e12_semantic_optimizer() -> Table {
    let mut t = Table::new(
        "E12 — semantic optimizer under integrity constraints (Ex. 6)",
        "k blocked Example-6 disjuncts, each with a foreign key Rj.z ⊆ Sj.z: plain FEASIBLE rejects; chase-based pruning discards every blocked disjunct and the remainder is feasible.",
        &["blocked disjuncts", "feasible (plain)", "pruned disjuncts", "feasible (under Σ)", "prune+decide time"],
    );
    for k in [1usize, 2, 4, 8] {
        let (q, schema, cs) = example6_family(k);
        let plain = feasible(&q, &schema);
        let pruned = prune_unsatisfiable(&q, &cs);
        let engine = ContainmentEngine::default();
        let mut constrained = false;
        let d = time_median(TIMING_ITERS, || {
            constrained = std::hint::black_box(feasible_under(&q, &cs, &schema, &engine)).feasible;
        });
        assert!(!plain && constrained, "Σ must flip k = {k} from infeasible to feasible");
        t.row(vec![
            k.into(),
            plain.into(),
            format!("{} of {}", q.disjuncts.len() - pruned.disjuncts.len(), q.disjuncts.len())
                .into(),
            constrained.into(),
            d.into(),
        ]);
    }
    t
}

/// E13 — where the Π₂ᴾ effort goes: instrumentation of the Wei–Lausen
/// recursion on the excluded-middle family.
fn e13_recursion_profile() -> Table {
    let mut t = Table::new(
        "E13 — Wei–Lausen recursion profile (Thms. 12–13)",
        "Counters for P(x):-R(x) ⊑ ∨ sign patterns over S1..Sn: the recursion visits the sign tree; memoization collapses repeated subproblems.",
        &["n", "recursive calls", "cache hits", "mappings checked", "peak |P⁺|"],
    );
    let mut prev_calls = 0;
    for n in [2usize, 4, 6, 8] {
        let (p, q) = excluded_middle_pair(n);
        let (result, stats) = ContainmentEngine::default().contained_stats(&p, &q);
        assert!(result);
        assert!(
            stats.recursive_calls > prev_calls,
            "the recursion must grow with n ({} calls at n = {n}, {prev_calls} before)",
            stats.recursive_calls
        );
        prev_calls = stats.recursive_calls;
        t.row(vec![
            n.into(),
            stats.recursive_calls.into(),
            stats.cache_hits.into(),
            stats.mappings_checked.into(),
            stats.max_p_atoms.into(),
        ]);
    }
    t
}

/// E14 — cost-based plan ordering and plan minimization: *actual* source
/// calls through the pattern-enforcing engine, per strategy.
fn e14_plan_ordering() -> Table {
    let num_runs = 60usize;
    let mut t = Table::new(
        "E14 — plan ordering and minimization (capability-based optimization)",
        "Feasible random queries + instances: mean source calls to evaluate the overestimate plan under each ordering strategy, and with the minimal executable plan. Lower is better; all orders return identical answers.",
        &["workload", "ANSWERABLE order", "greedy", "exhaustive", "minimal plan"],
    );
    for (label, positives) in [("3 literals/disjunct", 3usize), ("5 literals/disjunct", 5)] {
        let mut calls = [0u64; 4];
        let mut runs = 0u64;
        let mut seed = 0u64;
        while runs < num_runs as u64 && seed < 10 * num_runs as u64 {
            seed += 1;
            let schema = default_schema(seed % 16);
            let q = gen_query(
                &schema,
                &query_cfg(2, positives, 0),
                &mut StdRng::seed_from_u64(40_000 + seed),
            );
            let report = feasible_detailed(&q, &schema);
            if !report.feasible || report.plans.over.has_null() {
                continue;
            }
            let db = gen_instance(
                &schema,
                &InstanceConfig { domain_size: 8, tuples_per_relation: 20 },
                &mut StdRng::seed_from_u64(50_000 + seed),
            );
            let model = CostModel::from_database(&db);
            let strategies = [
                optimize_plan_pair(&report.plans, &schema, &model, Strategy::AnswerableOrder),
                optimize_plan_pair(&report.plans, &schema, &model, Strategy::Greedy),
                optimize_plan_pair(&report.plans, &schema, &model, Strategy::Exhaustive),
            ];
            let mut answers = None;
            let mut ok = true;
            let mut measured = [0u64; 4];
            for (k, pair) in strategies.iter().enumerate() {
                let mut reg = SourceRegistry::new(&db, &schema);
                match eval_ordered_union(&pair.over.eval_parts(), &mut reg) {
                    Ok(rows) => {
                        if let Some(prev) = &answers {
                            assert_eq!(prev, &rows, "strategies must agree (seed {seed})");
                        } else {
                            answers = Some(rows);
                        }
                        measured[k] = reg.stats().calls;
                    }
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            // The minimal executable plan (equivalent, possibly fewer
            // literals/disjuncts) — answers may legitimately equal the
            // query's, which is what the other plans compute too.
            let Some(min_plan) = minimal_executable_plan(&q, &schema) else {
                continue;
            };
            let parts: Vec<_> = min_plan
                .disjuncts
                .iter()
                .map(|cq| (cq.clone(), Vec::new()))
                .collect();
            let mut reg = SourceRegistry::new(&db, &schema);
            let Ok(rows) = eval_ordered_union(&parts, &mut reg) else {
                continue;
            };
            assert_eq!(answers.as_ref(), Some(&rows), "minimal plan must agree (seed {seed})");
            measured[3] = reg.stats().calls;
            for k in 0..4 {
                calls[k] += measured[k];
            }
            runs += 1;
        }
        let mean = |c: u64| {
            if runs == 0 { Cell::Blank } else { Cell::fixed(c as f64 / runs as f64, 1) }
        };
        t.row(vec![
            format!("{label} ({runs} runs)").into(),
            mean(calls[0]),
            mean(calls[1]),
            mean(calls[2]),
            mean(calls[3]),
        ]);
    }
    t
}

/// Builds a mediator with `k` interchangeable source views per global
/// relation (all-output sources), plus an atomic `Lib` view.
fn scaled_mediator(k: usize) -> Mediator {
    let mut text = String::new();
    for j in 0..k {
        text.push_str(&format!("SrcB{j}^oooo. SrcC{j}^oo.\n"));
    }
    text.push_str("Shelf^o.\n");
    for j in 0..k {
        text.push_str(&format!("Book(i, a, t) :- SrcB{j}(i, a, t, p).\n"));
        text.push_str(&format!("Catalog(i, a) :- SrcC{j}(i, a).\n"));
    }
    text.push_str("Lib(i) :- Shelf(i).\n");
    Mediator::from_program(&text).expect("mediator parses")
}

/// E15 — the mediator pipeline: unfolding growth and end-to-end compile
/// time (unfold → prune → FEASIBLE) as views multiply.
fn e15_mediator_pipeline() -> Table {
    let mut t = Table::new(
        "E15 — GAV mediator pipeline (§6, BIRN context)",
        "Global query Q(i,a,t) :- Book, Catalog, ¬Lib over k interchangeable views per global relation: the unfolding has k² disjuncts; the pipeline (unfold + prune + FEASIBLE) stays fast because every disjunct is orderable.",
        &["views/relation", "unfolded disjuncts", "feasible", "pipeline time"],
    );
    let q = lap_ir::parse_query(
        "Q(i, a, t) :- Book(i, a, t), Catalog(i, a), not Lib(i).",
    )
    .expect("query parses");
    for k in [1usize, 2, 4, 8] {
        let mediator = scaled_mediator(k);
        let plan = mediator.plan(&q).expect("plans");
        let d = time_median(TIMING_ITERS, || {
            std::hint::black_box(mediator.plan(&q).expect("plans"));
        });
        let unfolded = plan.unfolded.disjuncts.len();
        assert_eq!(unfolded, k * k, "k views per relation unfold into k² disjuncts");
        assert!(plan.feasibility.feasible, "the unfolding must stay feasible (k = {k})");
        t.row(vec![k.into(), unfolded.into(), plan.feasibility.feasible.into(), d.into()]);
    }
    t
}

/// E16 — source-side hash indexes vs scans (engine ablation): wall time to
/// evaluate a join-heavy executable plan as the instance grows.
fn e16_index_ablation() -> Table {
    let mut t = Table::new(
        "E16 — source index ablation (engine substrate)",
        "Chain join S ⋈ R ⋈ R ⋈ R through R^io over growing instances: lazily-built hash indexes vs full scans per call. Answers are identical; only the source-side lookup differs.",
        &["tuples in R", "indexed", "scan", "speedup"],
    );
    let program = parse_program(
        "S^o. R^io.\n\
         Q(x0, x3) :- S(x0), R(x0, x1), R(x1, x2), R(x2, x3).",
    )
    .expect("parses");
    let q = program.single_query().expect("one query");
    let pair = plan_star(q, &program.schema);
    let parts = pair.under.eval_parts();
    for n in [200usize, 800, 3200] {
        let mut db = lap_engine::Database::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..n {
            let a = rng.gen_range(0..(n as i64 / 4).max(4));
            let b = rng.gen_range(0..(n as i64 / 4).max(4));
            db.insert("R", vec![lap_engine::Value::int(a), lap_engine::Value::int(b)])
                .expect("arity ok");
        }
        for v in 0..10i64 {
            db.insert("S", vec![lap_engine::Value::int(v)]).expect("arity ok");
        }
        let d_indexed = time_median(5, || {
            let mut reg = SourceRegistry::new(&db, &program.schema);
            std::hint::black_box(eval_ordered_union(&parts, &mut reg).expect("runs"));
        });
        let d_scan = time_median(5, || {
            let mut reg = SourceRegistry::without_indexes(&db, &program.schema);
            std::hint::black_box(eval_ordered_union(&parts, &mut reg).expect("runs"));
        });
        t.row(vec![
            n.into(),
            d_indexed.into(),
            d_scan.into(),
            Cell::ratio(d_scan.as_secs_f64() / d_indexed.as_secs_f64().max(1e-12), 1),
        ]);
    }
    t
}

/// E17 — end-to-end federated-bookstore scenario: compile-time vs runtime
/// breakdown as the universe scales.
fn e17_end_to_end_scenario() -> Table {
    let mut t = Table::new(
        "E17 — end-to-end federated bookstore (motivating scenario at scale)",
        "v×c-disjunct standing query over v vendors, c catalogs, a library, and an ISBN-only price service: prepare-once (PLAN* + FEASIBLE) vs execute-per-instance (ANSWER* evaluation), plus answers and source calls.",
        &["books", "disjuncts", "compile", "execute", "answers", "source calls"],
    );
    for books in [100usize, 400, 1600] {
        let cfg = BookstoreConfig {
            vendors: 2,
            catalogs: 2,
            books,
            authors: books / 5,
            ..BookstoreConfig::default()
        };
        let scenario = bookstore(&cfg, &mut StdRng::seed_from_u64(17));
        let program = parse_program(&scenario.program_text()).expect("scenario parses");
        let q = program.single_query().expect("one query").clone();
        let d_compile = time_median(TIMING_ITERS, || {
            std::hint::black_box(lap_core::PreparedQuery::compile(&q, &program.schema));
        });
        let prepared = lap_core::PreparedQuery::compile(&q, &program.schema);
        assert!(prepared.is_feasible(), "standing query must be feasible");
        let d_exec = time_median(5, || {
            std::hint::black_box(prepared.execute(&scenario.db).expect("executes"));
        });
        let rep = prepared.execute(&scenario.db).expect("executes");
        assert!(rep.is_complete());
        t.row(vec![
            books.into(),
            q.disjuncts.len().into(),
            d_compile.into(),
            d_exec.into(),
            rep.under.len().into(),
            rep.stats.calls.into(),
        ]);
    }
    t
}

/// E19 — completeness vs fault rate: the chaos ladder over the federated
/// bookstore. Each rung runs ANSWER\* under a seeded fault profile with
/// the standard retry policy; the table reports how much of the fault-free
/// answer survives (|degraded under| / |fault-free under|), how many
/// disjuncts were dropped, and the retry/failure counts. The rate-0 rung
/// is the control: the resilient path must return the identical answer.
fn e19_fault_resilience() -> Table {
    use lap_core::answer_star_resilient_cfg;
    use lap_engine::ExecConfig;
    use lap_obs::Recorder;
    use lap_workload::chaos_ladder;
    let mut t = Table::new(
        "E19 — completeness vs fault rate (chaos ladder, federated bookstore)",
        "Seeded fault injection over the E17 scenario (2 vendors × 2 catalogs, 200 books): sources fail with probability p per call, retried up to 4 times with exponential backoff. A disjunct whose source stays down is dropped whole, so the degraded answer is always a subset of the fault-free one; 'answers kept' is that subset ratio. At rate 0 the answer is asserted identical to plain ANSWER*.",
        &[
            "fault rate",
            "answers",
            "answers kept",
            "completeness",
            "dropped disjuncts",
            "retries",
            "failures",
        ],
    );
    let cfg = BookstoreConfig {
        books: 200,
        authors: 40,
        ..BookstoreConfig::default()
    };
    let scenario = bookstore(&cfg, &mut StdRng::seed_from_u64(19));
    let program = parse_program(&scenario.program_text()).expect("scenario parses");
    let q = program.single_query().expect("one query").clone();
    let plain = answer_star(&q, &program.schema, &scenario.db).expect("plain run");
    let (recorder, cfg) = (Recorder::disabled(), ExecConfig::default());
    for rung in chaos_ladder(19) {
        let outcome = answer_star_resilient_cfg(
            &q,
            &program.schema,
            &scenario.db,
            &recorder,
            &rung.resilience,
            cfg,
        )
        .expect("resilient run");
        assert!(
            outcome.report.under.is_subset(&plain.under),
            "degraded answers must be a subset of fault-free answers"
        );
        let rate = rung.resilience.fault.expect("ladder always injects").error_rate;
        let kept = if plain.under.is_empty() {
            1.0
        } else {
            outcome.report.under.len() as f64 / plain.under.len() as f64
        };
        if rate == 0.0 {
            assert_eq!(outcome.report.under, plain.under, "rate 0 must be answer-identical");
            assert!(!outcome.degradation.is_degraded());
        }
        let completeness = match outcome.report.completeness {
            Completeness::Complete => "complete".to_owned(),
            Completeness::AtLeast(r) => format!(">= {:.0}%", r * 100.0),
            Completeness::Unknown => "unknown".to_owned(),
        };
        t.row(vec![
            Cell::fixed(rate, 2),
            outcome.report.under.len().into(),
            Cell::fixed(kept, 2),
            completeness.into(),
            outcome.degradation.total().into(),
            outcome.retries.into(),
            outcome.failures.into(),
        ]);
    }
    t
}

/// E20 — flight-recorder overhead: the same resilient ANSWER\* run under
/// a disabled recorder, metrics only, metrics + the always-on light
/// journal, and metrics + the replay-fidelity journal (inputs and rows
/// captured). The acceptance bar is that the light journal stays within
/// 10% of the metrics-only tier — cheap enough to leave on — while the
/// replay tier documents the price of bit-for-bit reproducibility.
fn e20_journal_overhead() -> Table {
    use lap_core::answer_star_resilient_cfg;
    use lap_engine::ExecConfig;
    use lap_obs::{JournalConfig, Recorder};
    let mut t = Table::new(
        "E20 — flight-recorder overhead (resilient ANSWER*, federated bookstore)",
        "One chaotic resilient run (rate 0.1, standard retry) per recorder tier over the E19 scenario (2 vendors × 2 catalogs, 200 books), sampled round-robin; 'best time' is the per-tier minimum over 45 rounds, robust to drift and interference. 'vs metrics' is the overhead over the metrics-only recorder — the journal's marginal cost; the light tier (no captured rows) is the always-on configuration, the replay tier additionally serialises every bound input and returned row so `lapq replay` can reproduce the run without the database.",
        &[
            "recorder tier",
            "best time",
            "vs disabled",
            "vs metrics",
            "journal events",
            "journal dropped",
        ],
    );
    let cfg = BookstoreConfig {
        books: 200,
        authors: 40,
        ..BookstoreConfig::default()
    };
    let scenario = bookstore(&cfg, &mut StdRng::seed_from_u64(20));
    let program = parse_program(&scenario.program_text()).expect("scenario parses");
    let q = program.single_query().expect("one query").clone();
    let resilience = lap_engine::ResilienceConfig::chaos(0.1, 20);
    type Tier<'a> = (&'a str, Box<dyn Fn() -> Recorder>);
    let tiers: Vec<Tier<'_>> = vec![
        ("disabled", Box::new(Recorder::disabled)),
        ("metrics", Box::new(Recorder::new)),
        (
            "metrics + journal (light)",
            Box::new(|| Recorder::with_journal(JournalConfig::light())),
        ),
        (
            "metrics + journal (replay)",
            Box::new(|| Recorder::with_journal(JournalConfig::replay())),
        ),
    ];
    let cfg = ExecConfig::default();
    let run = |recorder: &Recorder| {
        std::hint::black_box(
            answer_star_resilient_cfg(&q, &program.schema, &scenario.db, recorder, &resilience, cfg)
                .unwrap(),
        )
    };
    // Warm up, and check that every tier sees the same fault schedule
    // (same seed, recording must not perturb the run).
    let reference = run(&Recorder::disabled());
    for (_, make) in &tiers {
        assert_eq!(run(&make()).failures, reference.failures);
    }
    // Sample the tiers round-robin rather than one tier at a time, and
    // compare *minimum* times: the overhead columns divide one tier by
    // another, so clock-frequency drift (sequential sampling) and cache
    // pollution from a neighbouring tier's run would masquerade as
    // journal overhead, while interference only ever adds time — the
    // per-tier best over 45 rounds is the stable estimate of real work.
    // Rotating the start index spreads the expensive replay tier's cache
    // fallout evenly instead of always billing it to the same successor.
    let mut samples: Vec<Vec<std::time::Duration>> = vec![Vec::new(); tiers.len()];
    for round in 0..5 * TIMING_ITERS {
        for k in 0..tiers.len() {
            let i = (round + k) % tiers.len();
            let recorder = tiers[i].1();
            let t0 = std::time::Instant::now();
            run(&recorder);
            samples[i].push(t0.elapsed());
        }
    }
    let minima: Vec<std::time::Duration> =
        samples.iter().map(|s| *s.iter().min().expect("sampled")).collect();
    let base_disabled = minima[0].as_secs_f64().max(1e-12);
    let base_metrics = minima[1].as_secs_f64().max(1e-12);
    for ((tier, make), best) in tiers.iter().zip(minima) {
        let recorder = make();
        run(&recorder);
        let (events, dropped) = match recorder.journal() {
            Some(j) => {
                let snap = j.snapshot();
                (snap.recorded().into(), snap.dropped.into())
            }
            None => (Cell::Blank, Cell::Blank),
        };
        t.row(vec![
            (*tier).into(),
            best.into(),
            Cell::change(best.as_secs_f64(), base_disabled),
            Cell::change(best.as_secs_f64(), base_metrics),
            events,
            dropped,
        ]);
    }
    t
}

/// E21 — overlapped source I/O: the 20ms-latency chaos workload under an
/// increasing `io_workers` budget. Virtual wall-clock is the scheduler's
/// deterministic model of elapsed time: at 1 worker it is the *sum* of
/// per-call latencies (serial waits); with overlap it approaches the
/// *max* per-lane critical path. Answers, completeness, retries, and
/// failures are asserted identical to the serial oracle at every width —
/// overlap changes when calls wait, never what they return. The
/// acceptance bar is wall-clock at 8 workers ≤ 0.5× serial.
fn e21_overlapped_io() -> Table {
    use lap_core::answer_star_resilient_cfg;
    use lap_engine::ExecConfig;
    use lap_obs::Recorder;
    use lap_workload::overlapped_chaos;
    let mut t = Table::new(
        "E21 — overlapped source I/O (20ms-latency chaos, federated bookstore)",
        "The E19 scenario (2 vendors × 2 catalogs, 200 books) under the overlapped-chaos profile: every wire call carries a flat 20ms virtual latency plus a 0.10 error rate with up to 3 attempts. One resilient ANSWER* run per io_workers width; 'virtual ms' is the deterministic virtual wall-clock (latency + backoff waits as scheduled, not host time). Serial execution pays the sum of per-call latencies; overlapped execution pays per-lane critical paths, so the ratio falls toward 1/workers until retry chains and batch boundaries dominate. Answers and resilience counters are asserted bit-identical to the serial run at every width.",
        &["io workers", "answers", "virtual ms", "vs serial", "retries", "failures", "calls"],
    );
    let cfg = BookstoreConfig {
        books: 200,
        authors: 40,
        ..BookstoreConfig::default()
    };
    let scenario = bookstore(&cfg, &mut StdRng::seed_from_u64(21));
    let program = parse_program(&scenario.program_text()).expect("scenario parses");
    let q = program.single_query().expect("one query").clone();
    let chaos = overlapped_chaos(21);
    let recorder = Recorder::disabled();
    let serial = answer_star_resilient_cfg(
        &q,
        &program.schema,
        &scenario.db,
        &recorder,
        &chaos.resilience,
        ExecConfig::default(),
    )
    .expect("serial run");
    for workers in [1usize, 2, 4, 8, 16] {
        let outcome = answer_star_resilient_cfg(
            &q,
            &program.schema,
            &scenario.db,
            &recorder,
            &chaos.resilience,
            ExecConfig::default().with_io_workers(workers),
        )
        .expect("overlapped run");
        assert_eq!(outcome.report.under, serial.report.under, "answers must not change");
        assert_eq!(outcome.report.completeness, serial.report.completeness);
        assert_eq!(outcome.report.stats, serial.report.stats, "call counters must not change");
        assert_eq!(outcome.retries, serial.retries, "retry schedule must not change");
        assert_eq!(outcome.failures, serial.failures, "fault schedule must not change");
        assert!(
            outcome.virtual_ms <= serial.virtual_ms,
            "overlap can only shorten the virtual wall-clock"
        );
        if workers == 8 {
            assert!(
                (outcome.virtual_ms as f64) <= 0.5 * serial.virtual_ms as f64,
                "acceptance: 8 workers must at least halve the serial wall-clock \
                 ({} vs {} virtual ms)",
                outcome.virtual_ms,
                serial.virtual_ms
            );
        }
        t.row(vec![
            workers.into(),
            outcome.report.under.len().into(),
            outcome.virtual_ms.into(),
            Cell::ratio(outcome.virtual_ms as f64 / (serial.virtual_ms as f64).max(1e-12), 2),
            outcome.retries.into(),
            outcome.failures.into(),
            outcome.report.stats.calls.into(),
        ]);
    }
    t
}

/// The E22/E25 program: the static uniform cost model scans `A` first and
/// pays one `D^io` call per `A` row, where scanning the 8-row `D^oo` first
/// is cheap.
const DRIFT: &str = "A^o. D^oo. D^io.\nQ(x, y) :- A(x), D(x, y).";

/// Facts for [`DRIFT`]: `a_rows` rows of `A` and the fixed 8 rows of `D`.
fn drift_facts(a_rows: usize) -> String {
    let mut facts = String::new();
    for i in 0..a_rows {
        facts.push_str(&format!("A({i}). "));
    }
    for i in 0..8 {
        facts.push_str(&format!("D({i}, {}). ", 100 + i));
    }
    facts
}

/// The E22/E25 wire: 10 ms virtual latency on every call, 5% faults,
/// standard retry.
fn latency_chaos(seed: u64) -> lap_engine::ResilienceConfig {
    use lap_engine::{FaultConfig, ResilienceConfig, RetryPolicy};
    ResilienceConfig {
        fault: Some(FaultConfig {
            error_rate: 0.05,
            latency_ms: 10,
            latency_jitter_ms: 0,
            timeout_ms: None,
            seed,
        }),
        retry: RetryPolicy::standard(),
    }
}

/// Runs [`DRIFT`] over `db` with PLAN\*'s pair re-ordered under `model`
/// (exhaustive search): the E22/E25 re-planning step.
fn replanned_run(
    db: &lap_engine::Database,
    resilience: &lap_engine::ResilienceConfig,
    model: &CostModel,
) -> lap_core::AnswerOutcome {
    use lap_core::{answer_star_opts, AnswerOptions};
    let program = parse_program(DRIFT).expect("parses");
    let q = program.single_query().expect("one query");
    let base_pair = plan_star(q, &program.schema);
    let plans = optimize_plan_pair(&base_pair, &program.schema, model, Strategy::Exhaustive);
    let opts = AnswerOptions {
        recorder: &lap_obs::Recorder::disabled(),
        exec: lap_engine::ExecConfig::default(),
        resilience: Some(resilience),
        plans: Some(&plans),
    };
    answer_star_opts(q, &program.schema, db, &opts).expect("planned run")
}

/// E22 — calibrated re-planning: the feedback loop closed end to end. A
/// schema where the static model's uniform extents pick the wrong join
/// order (seed the plan with the 40-row A scan and call D^io once per
/// row) runs under seeded latency chaos with the flight recorder on; the
/// journal is folded into a feedback profile, frozen through its JSON
/// round-trip, and fed back as a calibrated cost model. The acceptance
/// bar is that the calibrated plan recovers at least 80% of the oracle
/// speedup — `(static − calibrated) / (static − oracle)` in virtual ms,
/// where the oracle model is built from the true database extents — with
/// answers identical to the static plan and the whole loop bit-for-bit
/// deterministic (two runs from the frozen profile agree exactly).
fn e22_calibrated_replanning() -> Table {
    use lap_core::answer_star_resilient_cfg;
    use lap_engine::{Database, ExecConfig};
    use lap_obs::{FeedbackStore, JournalConfig, Recorder};
    let mut t = Table::new(
        "E22 — calibrated re-planning (journal-fed feedback, latency chaos)",
        "Q(x, y) :- A(x), D(x, y) over A^o (40 rows), D^oo, D^io (8 rows), under 10ms-latency chaos (rate 0.05, standard retry, seed 22). The static uniform cost model orders A first and pays one D^io call per A row; the journal of that run is folded into a feedback profile (frozen through its JSON round-trip), and the calibrated model re-orders the body to scan D^oo first. 'recovery' is the fraction of the oracle speedup (cost model built from true extents) the calibrated plan achieves in virtual ms; acceptance is >= 80%, identical answers, and bit-identical repetition from the frozen profile.",
        &["plan", "answers", "calls", "virtual ms", "vs static", "recovery"],
    );
    let program = parse_program(DRIFT).expect("parses");
    let q = program.single_query().expect("one query");
    let db = Database::from_facts(&drift_facts(40)).expect("facts parse");
    let resilience = latency_chaos(22);

    // Static run, flight recorder on: this is the journal the profile
    // is calibrated from.
    let rec = Recorder::with_journal(JournalConfig::light());
    let static_run = answer_star_resilient_cfg(
        q,
        &program.schema,
        &db,
        &rec,
        &resilience,
        ExecConfig::default(),
    )
    .expect("static run");
    assert!(!static_run.degradation.is_degraded(), "chaos must not degrade the baseline");
    let mut store = FeedbackStore::new();
    store.fold(&rec.journal().expect("journal on").snapshot());
    store.validate().expect("folded profile is valid");
    // Freeze the profile: the calibrated plan must come from the JSON
    // snapshot, not the in-memory store.
    let frozen =
        FeedbackStore::from_json(&store.to_json()).expect("profile round-trips");
    assert_eq!(frozen, store, "freezing must lose nothing");

    let calibrated_model = CostModel::new().calibrated(&frozen);
    let calibrated = replanned_run(&db, &resilience, &calibrated_model);
    let oracle = replanned_run(&db, &resilience, &CostModel::from_database(&db));

    // Same answers, same completeness — calibration only re-orders.
    for (name, outcome) in [("calibrated", &calibrated), ("oracle", &oracle)] {
        assert_eq!(outcome.report.under, static_run.report.under, "{name} answers");
        assert_eq!(outcome.report.completeness, static_run.report.completeness, "{name}");
        assert!(!outcome.degradation.is_degraded(), "{name} must not degrade");
    }
    // Determinism: a second run from the same frozen profile is
    // bit-identical.
    let again = replanned_run(&db, &resilience, &calibrated_model);
    assert_eq!(again.report.under, calibrated.report.under);
    assert_eq!(again.report.stats, calibrated.report.stats);
    assert_eq!(again.virtual_ms, calibrated.virtual_ms);
    assert_eq!(again.retries, calibrated.retries);
    assert_eq!(again.failures, calibrated.failures);

    let saved_oracle = static_run.virtual_ms.saturating_sub(oracle.virtual_ms) as f64;
    let saved_calib = static_run.virtual_ms.saturating_sub(calibrated.virtual_ms) as f64;
    let recovery = saved_calib / saved_oracle.max(1e-12);
    assert!(
        saved_oracle > 0.0,
        "the oracle model must beat the static plan for recovery to be meaningful"
    );
    assert!(
        recovery >= 0.8,
        "acceptance: calibrated plan recovers >= 80% of the oracle speedup, got {:.0}% \
         (static {} vs calibrated {} vs oracle {} virtual ms)",
        recovery * 100.0,
        static_run.virtual_ms,
        calibrated.virtual_ms,
        oracle.virtual_ms
    );
    recovery_rows(&mut t, &static_run, ("calibrated", &calibrated), recovery, &oracle);
    t
}

/// The E22/E25 rows: the static plan, the re-planned one with its share
/// of the oracle's virtual-ms saving, and the oracle itself.
fn recovery_rows(
    t: &mut Table,
    static_run: &lap_core::AnswerOutcome,
    (name, replanned): (&str, &lap_core::AnswerOutcome),
    recovery: f64,
    oracle: &lap_core::AnswerOutcome,
) {
    for (name, outcome, recovery) in [
        ("static", static_run, Cell::Blank),
        (name, replanned, Cell::percent(recovery, 1.0, 0)),
        ("oracle", oracle, Cell::percent(1.0, 1.0, 0)),
    ] {
        t.row(vec![
            name.into(),
            outcome.report.under.len().into(),
            outcome.report.stats.calls.into(),
            outcome.virtual_ms.into(),
            Cell::ratio(
                outcome.virtual_ms as f64 / (static_run.virtual_ms as f64).max(1e-12),
                2,
            ),
            recovery,
        ]);
    }
}

/// The mixed request set E24 cycles through: a feasible negation query,
/// an infeasible union, a plain scan, and a two-query program. Repeated
/// texts by design — the shared plan cache is what the experiment
/// measures.
const E24_SCENARIOS: &[(&str, &str)] = &[
    (
        "B^ioo. B^oio. C^oo. L^o.\nQ(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
        r#"B(1, "a", "t1"). B(2, "b", "t2"). C(1, "a"). C(2, "b"). L(1)."#,
    ),
    (
        "S^o. R^oo. B^ii. T^oo.\nQ(x, y) :- not S(z), R(x, z), B(x, y).\nQ(x, y) :- T(x, y).",
        "R(1, 10). S(99). T(7, 8). B(1, 5).",
    ),
    ("C^oo.\nQ(i) :- C(i, a).", r#"C(1, "a"). C(2, "b"). C(3, "c")."#),
    (
        "C^oo. F^o.\nQ(i) :- C(i, a).\nP(x) :- F(x).",
        r#"C(1, "a"). F(9). F(10)."#,
    ),
];

/// The daemon's rendering contract, replicated in-process: per query a
/// `query <sig>:` header, the shared answer-report renderer, and a blank
/// separator line. `tests/contract_table` pins the same bytes against the
/// actual `lapq run` binary.
fn one_shot_text(program_text: &str, facts_text: &str) -> String {
    use lap_core::{answer_star_obs_cfg, render_answer_report};
    use lap_engine::{Database, ExecConfig};
    use lap_obs::Recorder;
    let program = parse_program(program_text).expect("scenario parses");
    let db = Database::from_facts(facts_text).expect("scenario facts parse");
    let recorder = Recorder::disabled();
    let mut text = String::new();
    for q in &program.queries {
        text.push_str(&format!("query {}:\n", q.signature.0));
        let report = answer_star_obs_cfg(q, &program.schema, &db, &recorder, ExecConfig::default())
            .expect("scenario answers");
        text.push_str(&render_answer_report(&report));
        text.push('\n');
    }
    text
}

/// E24 — daemon concurrency: a live `lapd` server (in-process, ephemeral
/// port) under an increasing concurrent-client sweep, up to 256 clients,
/// on the mixed four-scenario workload. Every response is asserted
/// byte-identical to the one-shot ANSWER\* rendering of the same program —
/// the daemon may amortize parsing, planning, and lowering through its
/// shared plan cache, but never change a byte of the answer. Each width
/// runs against a fresh server so the plan-cache hit rate is per-row; the
/// acceptance bar is zero failed requests at every width and a >80% hit
/// rate at 200 concurrent clients. Throughput and latency are `lapbench`'s
/// `serve-*` workloads, not this sweep's.
fn e24_daemon_concurrency() -> Table {
    use lap::daemon::{DaemonConfig, Server};
    use lap::proto::{Client, QueryOptions, Response};

    let expected: Vec<String> =
        E24_SCENARIOS.iter().map(|(p, f)| one_shot_text(p, f)).collect();

    let mut t = Table::new(
        "E24 — daemon concurrency (shared plan cache, mixed workload)",
        "An in-process lapd server per row, hammered by N concurrent client connections each issuing 8 queries from a 4-scenario mix (feasible negation, infeasible union, plain scan, two-query program); 'hit rate' is the server's plan-cache view of the whole row. Every response is asserted byte-identical to the one-shot ANSWER* rendering; the acceptance bar is zero failures at every width and a >80% cache hit rate at 200 clients.",
        &["clients", "requests", "ok", "cache hit rate"],
    );

    const REQUESTS_PER_CLIENT: usize = 8;
    for clients in [8usize, 32, 64, 128, 200, 256] {
        let server = Server::start(
            DaemonConfig {
                max_sessions: 512,
                admission_wait_ms: 60_000,
                ..DaemonConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("ephemeral bind");
        let addr = server.addr().to_string();

        // Every refused request, as "client c request r: code: message".
        let failures: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let addr = addr.clone();
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut client = Client::connect(&addr).expect("client connects");
                        let mut failures = Vec::new();
                        for r in 0..REQUESTS_PER_CLIENT {
                            let idx = (c + r) % E24_SCENARIOS.len();
                            let (program, facts) = E24_SCENARIOS[idx];
                            match client
                                .query(program, facts, QueryOptions::default())
                                .expect("query frame round-trips")
                            {
                                Response::Ok { text, .. } => assert_eq!(
                                    text, expected[idx],
                                    "client {c} request {r}: daemon answer diverged"
                                ),
                                Response::Error { code, message, .. } => failures
                                    .push(format!("client {c} request {r}: {code}: {message}")),
                            }
                        }
                        failures
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
        });
        assert!(
            failures.is_empty(),
            "acceptance: zero failed requests at {clients} clients, got {}: {failures:?}",
            failures.len()
        );
        let total = clients * REQUESTS_PER_CLIENT;
        let ok = total - failures.len();

        let snap = server.metrics();
        let hits = snap.counter("plan_cache.hit");
        let misses = snap.counter("plan_cache.miss");
        assert_eq!(hits + misses, total as u64, "every query consulted the cache");
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        if clients >= 200 {
            assert!(
                hit_rate > 0.80,
                "acceptance: >80% plan-cache hit rate at {clients} clients (got {:.1}%)",
                100.0 * hit_rate
            );
        }
        server.shutdown();

        t.row(vec![
            clients.into(),
            total.into(),
            ok.into(),
            Cell::percent(hit_rate, 1.0, 1),
        ]);
    }
    t
}

/// E25 — daemon self-healing under source drift: a live `lapd` server
/// (in-process, telemetry watcher on) is fed a baseline workload, then
/// the same query against a 100x-drifted instance. The watcher must
/// detect the drift from the streamed journal folds and republish a
/// recalibrated plan on its own — no `recalibrate` frame, no restart.
/// Recovery is measured E22-style: the daemon's *live* profile (fetched
/// over the wire with a `profile` frame) calibrates a cost model, and
/// the resulting plan's virtual-ms saving under latency chaos is
/// compared against the oracle re-plan built from true extents.
/// Acceptance: recovery >= 80%, zero restarts, and a control query
/// byte-identical to its one-shot rendering before and after the sweep.
fn e25_daemon_drift_recalibration() -> Table {
    use lap::daemon::{DaemonConfig, Server};
    use lap::proto::{Client, QueryOptions, Response};
    use lap_engine::Database;
    use lap_obs::FeedbackStore;
    use std::time::{Duration, Instant};

    let mut t = Table::new(
        "E25 — daemon drift auto-recalibration (telemetry watcher, live profile)",
        "An in-process lapd (fold every request, 20ms watcher, no cooldown) answers Q(x, y) :- A(x), D(x, y) over A^o, D^oo, D^io first at A=4 rows (baseline folds freeze the drift expectations), then at A=400 (100x drift). The watcher must flag the drift and republish a recalibrated plan unprompted; the experiment polls the recalibration counter and never sends a recalibrate frame. The 'daemon' row plans from the live profile fetched with a profile frame, replayed under 10ms-latency chaos (rate 0.05, standard retry, seed 25) on the drifted instance; recovery is its share of the oracle re-plan's virtual-ms saving. Acceptance: recovery >= 80%, zero daemon restarts, and the untouched bookstore control byte-identical to its one-shot rendering before and after the sweep.",
        &["plan", "answers", "calls", "virtual ms", "vs static", "recovery"],
    );

    // The control scenario: its relations are disjoint from the drift, so
    // its cached plan must never be touched by the sweep.
    let (control_program, control_facts) = E24_SCENARIOS[0];
    let control_expected = one_shot_text(control_program, control_facts);

    let server = Server::start(
        DaemonConfig {
            fold_every_requests: 1,
            watch_interval_ms: 20,
            recalibrate_cooldown_ms: 0,
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("ephemeral bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("client connects");
    let answer_text = |client: &mut Client, program: &str, facts: &str| -> String {
        match client.query(program, facts, QueryOptions::default()).expect("query frame") {
            Response::Ok { text, .. } => text,
            Response::Error { code, message, .. } => panic!("daemon error ({code}): {message}"),
        }
    };

    // Control before the drift, baseline phase, drifted phase.
    assert_eq!(
        answer_text(&mut client, control_program, control_facts),
        control_expected,
        "pre-drift control must match the one-shot rendering"
    );
    answer_text(&mut client, DRIFT, &drift_facts(4));
    answer_text(&mut client, DRIFT, &drift_facts(400));

    // The watcher must act alone: poll its counter, never send a
    // recalibrate frame.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if server.metrics().counter("daemon.telemetry.recalibrations") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "acceptance: the watcher never recalibrated; stats: {}",
            server.stats_json().to_pretty()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let journal = server.journal().expect("server-wide journal");
    assert!(
        journal.events.iter().any(|e| e.kind == "daemon.recalibrate"),
        "acceptance: the recalibration must be journaled"
    );

    // Zero restarts: the same server instance answers the control query
    // byte-identically after the sweep.
    assert_eq!(
        answer_text(&mut client, control_program, control_facts),
        control_expected,
        "acceptance: post-sweep control must stay byte-identical"
    );

    // The live profile, over the wire — the same store the watcher
    // calibrated from.
    let live = match client.profile().expect("profile frame") {
        Response::Ok { data, .. } => {
            let store = FeedbackStore::from_json(&data).expect("live profile parses");
            store.validate().expect("live profile validates");
            store
        }
        Response::Error { code, message, .. } => panic!("daemon error ({code}): {message}"),
    };
    server.shutdown();

    // E22-style recovery on the drifted instance: static vs the daemon's
    // live-profile calibration vs the true-extent oracle.
    let db = Database::from_facts(&drift_facts(400)).expect("facts parse");
    let resilience = latency_chaos(25);
    let static_model = CostModel::new();
    let static_run = replanned_run(&db, &resilience, &static_model);
    let daemon_run = replanned_run(&db, &resilience, &static_model.calibrated(&live));
    let oracle = replanned_run(&db, &resilience, &CostModel::from_database(&db));
    for (name, outcome) in [("daemon", &daemon_run), ("oracle", &oracle)] {
        assert_eq!(outcome.report.under, static_run.report.under, "{name} answers");
        assert!(!outcome.degradation.is_degraded(), "{name} must not degrade");
    }
    let saved_oracle = static_run.virtual_ms.saturating_sub(oracle.virtual_ms) as f64;
    let saved_daemon = static_run.virtual_ms.saturating_sub(daemon_run.virtual_ms) as f64;
    let recovery = saved_daemon / saved_oracle.max(1e-12);
    assert!(saved_oracle > 0.0, "the oracle re-plan must beat the static plan");
    assert!(
        recovery >= 0.8,
        "acceptance: live-profile plan recovers >= 80% of the oracle saving, got {:.0}% \
         (static {} vs daemon {} vs oracle {} virtual ms)",
        recovery * 100.0,
        static_run.virtual_ms,
        daemon_run.virtual_ms,
        oracle.virtual_ms
    );
    recovery_rows(&mut t, &static_run, ("daemon", &daemon_run), recovery, &oracle);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::OnceLock;

    /// Each experiment's table, computed at most once per test process:
    /// the registry test and the per-claim tests below share it, so no
    /// experiment runs twice under tier-1.
    fn table(id: &str) -> &'static Table {
        static TABLES: [OnceLock<Table>; EXPERIMENTS.len()] =
            [const { OnceLock::new() }; EXPERIMENTS.len()];
        let i = EXPERIMENTS
            .iter()
            .position(|(registered, _)| *registered == id)
            .unwrap_or_else(|| panic!("{id} is not registered"));
        TABLES[i].get_or_init(EXPERIMENTS[i].1)
    }

    /// Every registered experiment asserts its own claims, so running the
    /// whole registry is the test: an experiment added to [`EXPERIMENTS`]
    /// is under tier-1 from its first commit.
    #[test]
    fn every_registered_experiment_holds_its_claims() {
        // One worker per core, heaviest first: E11, E24 and E20 are about
        // 60% of the registry's CPU in a debug build, so starting them
        // first keeps the wall time near half the total on two cores.
        let mut queue: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        let heaviest = ["e11", "e24", "e20"];
        queue.sort_by_key(|id| {
            heaviest.iter().position(|h| h == id).unwrap_or(heaviest.len())
        });
        let next = AtomicUsize::new(0);
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
        let outcomes: Vec<(&str, std::thread::Result<&Table>)> = std::thread::scope(|s| {
            let running: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        while let Some(&id) = queue.get(next.fetch_add(1, Relaxed)) {
                            done.push((id, std::panic::catch_unwind(|| table(id))));
                        }
                        done
                    })
                })
                .collect();
            running.into_iter().flat_map(|w| w.join().expect("worker")).collect()
        });
        assert_eq!(outcomes.len(), EXPERIMENTS.len());
        let mut failed = Vec::new();
        for (id, outcome) in outcomes {
            match outcome {
                Ok(table) => {
                    assert!(
                        table.title.starts_with(&format!("{} ", id.to_uppercase())),
                        "{id} is registered for {:?}",
                        table.title
                    );
                    assert!(!table.rows.is_empty(), "{id} produced no rows");
                }
                Err(_) => failed.push(id),
            }
        }
        assert!(failed.is_empty(), "experiments broke their claims: {failed:?}");
    }

    /// The rendered cells of column `col`, one per row.
    fn column(id: &str, col: usize) -> Vec<String> {
        table(id).rows.iter().map(|r| r[col].to_string()).collect()
    }

    #[test]
    fn e1_all_examples_reproduce() {
        let t = table("e1");
        assert_eq!(t.rows.len(), 10);
        for row in &t.rows {
            assert_eq!(row[2].to_string(), "yes", "example {} failed: {}", row[0], row[1]);
        }
    }

    #[test]
    fn e4_small_run_has_sane_fractions() {
        assert_eq!(table("e4").rows.len(), 4);
    }

    #[test]
    fn e5_small_run_agrees() {
        assert!(column("e5", 1).iter().all(|c| c == "100%"));
    }

    #[test]
    fn e6_small_run_agrees() {
        assert!(column("e6", 1).iter().all(|c| c == "100%"));
    }

    #[test]
    fn e8_small_run_agrees() {
        assert!(column("e8", 1).iter().all(|c| c == "100%"));
    }

    #[test]
    fn e9_fk_closed_is_always_complete() {
        assert_eq!(column("e9", 3)[1], "100%", "fk-closed instances must be complete");
    }

    #[test]
    fn e11_small_n_agree() {
        assert!(column("e11", 4).iter().all(|c| c == "yes"));
    }

    #[test]
    fn e12_constraints_flip_feasibility() {
        assert!(column("e12", 1).iter().all(|c| c == "false"));
        assert!(column("e12", 3).iter().all(|c| c == "true"));
    }

    #[test]
    fn e13_counters_grow_with_n() {
        let calls: Vec<u64> = column("e13", 1).iter().map(|c| c.parse().unwrap()).collect();
        assert!(calls.windows(2).all(|w| w[0] < w[1]), "{calls:?}");
    }

    #[test]
    fn e14_orders_agree_and_never_lose() {
        assert_eq!(table("e14").rows.len(), 2);
    }

    #[test]
    fn e15_unfolding_squares_and_stays_feasible() {
        let counts: Vec<usize> = column("e15", 1).iter().map(|c| c.parse().unwrap()).collect();
        assert_eq!(counts, vec![1, 4, 16, 64]);
        assert!(column("e15", 2).iter().all(|c| c == "true"));
    }

    #[test]
    fn e16_runs_and_produces_rows() {
        assert_eq!(table("e16").rows.len(), 3);
    }

    #[test]
    fn e17_scenario_is_feasible_and_complete() {
        assert_eq!(table("e17").rows.len(), 3);
    }

    #[test]
    fn e22_calibration_recovers_oracle_speedup() {
        // The acceptance assertions (>= 80% recovery, identical answers,
        // bit-identical repetition) live inside the experiment.
        assert_eq!(column("e22", 0), ["static", "calibrated", "oracle"]);
    }
}
