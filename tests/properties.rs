//! Property-based tests of the paper's theorems and the implementation's
//! cross-cutting invariants, on seeded random workloads.
//!
//! Deterministic by construction: every case is derived from an explicit
//! case index through [`lap_prng::StdRng`], and every assertion message
//! carries the case index, so any failure reproduces with the printed
//! case number.
//!
//! The default tier-1 run uses a modest case count; build with
//! `--features slow-tests` to multiply the sweep.

use lap::baselines::{cq_stable, cq_stable_star, ucq_stable, ucq_stable_star};
mod door;

use door::{contained, single};
use lap::containment::{cq_contained_canonical, minimize_cq};
use lap::core::{ans, answer_star, feasible, feasible_detailed, is_executable, is_orderable};
use lap::engine::eval_oracle;
use lap::ir::{parse_query, Schema, UnionQuery};
use lap::workload::{
    gen_instance, gen_query, gen_schema, InstanceConfig, QueryConfig, SchemaConfig,
};
use lap_prng::StdRng;

/// Cases per property (multiplied under `--features slow-tests`).
const CASES: u64 = if cfg!(feature = "slow-tests") { 512 } else { 64 };

fn small_schema(seed: u64) -> Schema {
    gen_schema(
        &SchemaConfig {
            num_relations: 4,
            min_arity: 1,
            max_arity: 3,
            patterns_per_relation: 2,
            input_fraction: 0.4,
            free_scan_fraction: 0.5,
        },
        &mut StdRng::seed_from_u64(seed),
    )
}

fn small_query(schema: &Schema, seed: u64, disjuncts: usize, negatives: usize) -> UnionQuery {
    gen_query(
        schema,
        &QueryConfig {
            num_disjuncts: disjuncts,
            positive_per_disjunct: 3,
            negative_per_disjunct: negatives,
            extra_vars: 2,
            head_arity: 2,
            constant_fraction: 0.1,
            constant_pool: 3,
        },
        &mut StdRng::seed_from_u64(seed),
    )
}

/// Per-case parameter sampler: derives the sub-seeds a property draws,
/// deterministically from the property id and the case index.
struct Params {
    rng: StdRng,
}

impl Params {
    fn for_case(property: u64, case: u64) -> Params {
        Params {
            rng: StdRng::seed_from_u64(property.wrapping_mul(0x9E37_79B9) ^ case),
        }
    }
    fn seed(&mut self, bound: u64) -> u64 {
        self.rng.gen_range(0..bound)
    }
    fn negs(&mut self, bound: usize) -> usize {
        self.rng.gen_range(0..bound)
    }
}

/// Proposition 4: Q ⊑ ans(Q) for every safe UCQ¬.
#[test]
fn prop_q_contained_in_ans_q() {
    for case in 0..CASES {
        let mut p = Params::for_case(1, case);
        let schema = small_schema(p.seed(64));
        let q = small_query(&schema, p.seed(1024), 2, p.negs(3));
        let a = ans(&q, &schema);
        assert!(
            contained(&q, &a),
            "case {case}: Q ⋢ ans(Q) for {q}\nans = {a}"
        );
    }
}

/// ans is idempotent: ans(ans(Q)) = ans(Q) (Proposition 10's closure).
#[test]
fn prop_ans_is_idempotent() {
    for case in 0..CASES {
        let mut p = Params::for_case(2, case);
        let schema = small_schema(p.seed(64));
        let q = small_query(&schema, p.seed(1024), 2, 1);
        let a = ans(&q, &schema);
        let aa = ans(&a, &schema);
        assert_eq!(a.disjuncts.len(), aa.disjuncts.len(), "case {case}: {q}");
        for (d1, d2) in a.disjuncts.iter().zip(aa.disjuncts.iter()) {
            let mut b1 = d1.body.clone();
            let mut b2 = d2.body.clone();
            b1.sort();
            b2.sort();
            assert_eq!(b1, b2, "case {case}: ans not idempotent on {q}");
        }
    }
}

/// The mapping-based and canonical-database CQ containment checkers agree
/// on random positive CQ pairs.
#[test]
fn prop_cq_containment_implementations_agree() {
    for case in 0..CASES {
        let mut pr = Params::for_case(3, case);
        let schema = small_schema(pr.seed(16));
        let p = small_query(&schema, pr.seed(512), 1, 0).disjuncts[0].clone();
        let q = small_query(&schema, pr.seed(512), 1, 0).disjuncts[0].clone();
        assert_eq!(
            contained(&single(&p), &single(&q)),
            cq_contained_canonical(&p, &q),
            "case {case}: mapping vs canonical disagree on\nP = {p}\nQ = {q}"
        );
    }
}

/// Containment is reflexive, and minimization preserves equivalence.
#[test]
fn prop_minimization_preserves_equivalence() {
    for case in 0..CASES {
        let mut pr = Params::for_case(5, case);
        let schema = small_schema(pr.seed(16));
        let q = small_query(&schema, pr.seed(512), 1, 0).disjuncts[0].clone();
        let sq = single(&q);
        assert!(contained(&sq, &sq), "case {case}: reflexivity on {q}");
        let m = minimize_cq(&q);
        assert!(
            contained(&single(&m), &sq) && contained(&sq, &single(&m)),
            "case {case}: core not equivalent:\nQ = {q}\nM = {m}"
        );
        assert!(m.body.len() <= q.body.len(), "case {case}: {q}");
    }
}

/// Definition chain: executable ⇒ orderable ⇒ feasible.
#[test]
fn prop_executable_orderable_feasible_chain() {
    for case in 0..CASES {
        let mut p = Params::for_case(6, case);
        let schema = small_schema(p.seed(64));
        let q = small_query(&schema, p.seed(1024), 2, p.negs(3));
        if is_executable(&q, &schema) {
            assert!(
                is_orderable(&q, &schema),
                "case {case}: executable but not orderable: {q}"
            );
        }
        if is_orderable(&q, &schema) {
            assert!(
                feasible(&q, &schema),
                "case {case}: orderable but not feasible: {q}"
            );
        }
    }
}

/// FEASIBLE agrees with all four Li & Chang baselines on plain queries.
#[test]
fn prop_feasible_agrees_with_baselines() {
    for case in 0..CASES {
        let mut p = Params::for_case(7, case);
        let schema = small_schema(p.seed(32));
        let q = small_query(&schema, p.seed(512), 2, 0);
        let expected = feasible(&q, &schema);
        assert_eq!(
            ucq_stable(&q, &schema),
            expected,
            "case {case}: UCQstable on {q}"
        );
        assert_eq!(
            ucq_stable_star(&q, &schema),
            expected,
            "case {case}: UCQstable* on {q}"
        );
        let single = UnionQuery::single(q.disjuncts[0].clone());
        let expected1 = feasible(&single, &schema);
        assert_eq!(
            cq_stable(&q.disjuncts[0], &schema),
            expected1,
            "case {case}: CQstable on {single}"
        );
        assert_eq!(
            cq_stable_star(&q.disjuncts[0], &schema),
            expected1,
            "case {case}: CQstable* on {single}"
        );
    }
}

/// Feasibility is invariant under disjunct order and body order (it is a
/// semantic property).
#[test]
fn prop_feasibility_is_order_invariant() {
    for case in 0..CASES {
        let mut p = Params::for_case(8, case);
        let schema = small_schema(p.seed(32));
        let q = small_query(&schema, p.seed(512), 2, p.negs(2));
        let mut reversed = q.clone();
        reversed.disjuncts.reverse();
        for d in &mut reversed.disjuncts {
            d.body.reverse();
        }
        assert_eq!(
            feasible(&q, &schema),
            feasible(&reversed, &schema),
            "case {case}: order-dependent feasibility on {q}"
        );
    }
}

/// Runtime sandwich: ansᵤ ⊆ ANSWER(Q, D), and when the overestimate is
/// null-free, ANSWER(Q, D) ⊆ ansₒ — with equality when Q is feasible.
#[test]
fn prop_runtime_sandwich() {
    for case in 0..CASES {
        let mut p = Params::for_case(9, case);
        let schema = small_schema(p.seed(32));
        let q = small_query(&schema, p.seed(256), 2, p.negs(2));
        let db = gen_instance(
            &schema,
            &InstanceConfig {
                domain_size: 5,
                tuples_per_relation: 8,
            },
            &mut StdRng::seed_from_u64(p.seed(64)),
        );
        let oracle = eval_oracle(&q, &db).unwrap();
        let rep = answer_star(&q, &schema, &db).unwrap();
        assert!(
            rep.under.is_subset(&oracle),
            "case {case}: unsound underestimate on {q}\nunder={:?}\noracle={:?}",
            rep.under,
            oracle
        );
        let report = feasible_detailed(&q, &schema);
        if !report.plans.over.has_null() {
            assert!(
                oracle.is_subset(&rep.over),
                "case {case}: incomplete overestimate on {q}\nover={:?}\noracle={:?}",
                rep.over,
                oracle
            );
            if report.feasible {
                assert_eq!(
                    oracle, rep.over,
                    "case {case}: feasible query: overestimate must be exact on {q}"
                );
            }
        }
        if rep.is_complete() {
            assert_eq!(
                rep.under, oracle,
                "case {case}: claimed-complete answer differs from oracle on {q}"
            );
        }
    }
}

/// Wei–Lausen containment is transitive on sampled triples.
#[test]
fn prop_containment_transitive_sampled() {
    for case in 0..CASES {
        let mut p = Params::for_case(10, case);
        let schema = small_schema(p.seed(8));
        let negs = p.negs(2);
        let a = small_query(&schema, p.seed(128), 1, negs);
        let b = small_query(&schema, p.seed(128), 1, negs);
        let c = small_query(&schema, p.seed(128), 1, negs);
        if contained(&a, &b) && contained(&b, &c) {
            assert!(
                contained(&a, &c),
                "case {case}: transitivity broken:\nA={a}\nB={b}\nC={c}"
            );
        }
    }
}

/// Parser round-trip: display then re-parse is the identity.
#[test]
fn prop_display_parse_round_trip() {
    for case in 0..CASES {
        let mut p = Params::for_case(11, case);
        let schema = small_schema(p.seed(32));
        let q = small_query(&schema, p.seed(512), 2, p.negs(3));
        let text = q.to_string();
        let reparsed = parse_query(&text).unwrap();
        assert_eq!(q, reparsed, "case {case}: round trip failed for: {text}");
    }
}
