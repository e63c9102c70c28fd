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
use lap::engine::{eval_oracle, Database, EngineError, SourceRegistry, Value};
use lap::ir::{parse_literal, parse_query, Schema, Symbol, Term, UnionQuery};
use lap::workload::{
    gen_instance, gen_query, gen_schema, InstanceConfig, QueryConfig, SchemaConfig,
};
use lap_prng::{SliceRandom, StdRng};

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

/// The one-pass facts loader agrees with the statement-at-a-time loader it
/// replaced (`reference_from_facts`): on generated facts texts and on
/// mutants of them with tokens dropped, duplicated or spliced, both give an
/// equal database or an error of the same kind (arity errors exactly).
#[test]
fn prop_from_facts_agrees_with_statement_loader() {
    for case in 0..CASES {
        let mut rng = Params::for_case(12, case).rng;
        let tokens = facts_tokens(&mut rng);
        for variant in 0..8 {
            let mut toks = tokens.clone();
            for _ in 0..variant.min(3) {
                mutate_tokens(&mut toks, &mut rng);
            }
            let text = join_tokens(&toks, &mut rng);
            match (Database::from_facts(&text), reference_from_facts(&text)) {
                (Err(EngineError::NotGround(_)), Err(EngineError::NotGround(_))) => {}
                (got, want) => {
                    assert_eq!(got, want, "case {case} variant {variant}: text {text:?}")
                }
            }
        }
    }
}

/// A probe's verdict is membership in the relation at every stage of the
/// reply block's life: the first probe scans it, the second builds its
/// index, later ones look rows up in it. Under `R^o…o` alone every probe is
/// the same free scan, so all of them read one shared block; the relation
/// holds the `i64` extremes, negative integers, strings and (inserted
/// twice, stored once) duplicate rows, and the probes mix present and
/// absent tuples, each issued one to three times, in shuffled order.
#[test]
fn prop_probe_verdict_is_relation_membership() {
    const STRINGS: &[&str] = &["", "a", "tolkien", "Σ", "a b"];
    let value = |rng: &mut StdRng| match rng.gen_range(0..5u32) {
        0 => Value::int(i64::MIN),
        1 => Value::int(i64::MAX),
        2 => Value::int(rng.gen_range(-4..4i64)),
        _ => Value::str(STRINGS.choose(rng).unwrap()),
    };
    for case in 0..CASES {
        let mut rng = Params::for_case(13, case).rng;
        let arity = rng.gen_range(1..4usize);
        let tuple = |rng: &mut StdRng| (0..arity).map(|_| value(rng)).collect::<Vec<_>>();
        let mut db = Database::new();
        let mut inserted = Vec::new();
        for _ in 0..rng.gen_range(0..40usize) {
            let row = tuple(&mut rng);
            db.insert("R", row.clone()).unwrap();
            if rng.gen_bool(0.2) {
                db.insert("R", row.clone()).unwrap();
            }
            inserted.push(row);
        }
        let name = Symbol::intern("R");
        let size = db.relation(name).map_or(0, |r| r.len()) as u64;
        let mut probes = Vec::new();
        for _ in 0..rng.gen_range(1..30usize) {
            let probe = match inserted.choose(&mut rng) {
                Some(row) if rng.gen_bool(0.5) => row.clone(),
                _ => tuple(&mut rng),
            };
            for _ in 0..rng.gen_range(1..4usize) {
                probes.push(probe.clone());
            }
        }
        probes.shuffle(&mut rng);
        let all_output = "o".repeat(arity);
        let schema = Schema::from_patterns(&[("R", all_output.as_str())]).unwrap();
        let mut reg = SourceRegistry::new(&db, &schema);
        for (k, probe) in probes.iter().enumerate() {
            let want = db.relation(name).is_some_and(|r| r.contains(probe));
            let got = reg.membership_test(name, probe);
            assert_eq!(got, Ok(want), "case {case}, probe {k}: {probe:?}");
        }
        let issued = probes.len() as u64;
        assert_eq!(reg.membership_probes(), issued, "case {case}");
        assert_eq!(reg.stats().tuples_returned, issued * size, "case {case}");
    }
}

/// Tokens of a facts text: facts over a few relations (Unicode names, an
/// occasional arity drift), integers (negative too), strings holding `.`,
/// `%`, `#`, escapes, raw newlines and multi-byte characters, comments and
/// empty statements, sometimes followed by a token the lexer refuses. A
/// comment carries the whitespace before it, so that stripping it never
/// joins its neighbours.
fn facts_tokens(rng: &mut StdRng) -> Vec<String> {
    const RELATIONS: &[(&str, usize)] = &[("R", 1), ("S", 2), ("Ünï", 3), ("t_2'", 1)];
    const PIECES: &[&str] =
        &[".", "%", "#", "\\\"", "\\\\", "\\n", "\n", "é", "Σ", "¬", "日本", "a b", "x.y"];
    let mut toks = Vec::new();
    for _ in 0..rng.gen_range(0..10usize) {
        match rng.gen_range(0..10u32) {
            0 => toks.push(" % note. \"x\" #\n".to_owned()),
            1 => toks.push(".".to_owned()),
            _ => {
                let &(name, arity) = RELATIONS.choose(rng).unwrap();
                toks.extend([name, "("].map(str::to_owned));
                for k in 0..arity + usize::from(rng.gen_bool(0.15)) {
                    if k > 0 {
                        toks.push(",".to_owned());
                    }
                    toks.push(if rng.gen_bool(0.4) {
                        rng.gen_range(-50..50i64).to_string()
                    } else {
                        let n = rng.gen_range(0..4usize);
                        let body: String = (0..n).map(|_| *PIECES.choose(rng).unwrap()).collect();
                        format!("\"{body}\"")
                    });
                }
                toks.push(")".to_owned());
                if rng.gen_bool(0.9) {
                    toks.push(".".to_owned());
                }
            }
        }
    }
    if rng.gen_bool(0.25) {
        toks.push(["@", "-", "\\", "\"open"].choose(rng).unwrap().to_string());
    }
    toks
}

/// Drops, duplicates, or splices in a token (from the text itself or from
/// a few that make facts negated, non-ground or malformed).
fn mutate_tokens(toks: &mut Vec<String>, rng: &mut StdRng) {
    const EXTRA: &[&str] = &["not", "!", "x", "-", "\"", "\\", "(", ")", ",", ".", "1.5", ":-"];
    let at = rng.gen_range(0..toks.len() + 1);
    match rng.gen_range(0..3u32) {
        0 if at < toks.len() => {
            toks.remove(at);
        }
        1 if at < toks.len() => toks.insert(at, toks[at].clone()),
        _ => {
            let tok = match toks.choose(rng) {
                Some(t) if rng.gen_bool(0.5) => t.clone(),
                _ => EXTRA.choose(rng).unwrap().to_string(),
            };
            toks.insert(at, tok);
        }
    }
}

/// Joins tokens with varied (Unicode) whitespace, sometimes none.
fn join_tokens(toks: &[String], rng: &mut StdRng) -> String {
    const SEPARATORS: &[&str] = &[" ", "", "\n", "\t", "\u{3000}", "  "];
    let mut text = String::new();
    for t in toks {
        text.push_str(t);
        text.push_str(SEPARATORS.choose(rng).unwrap());
    }
    text
}

/// The loader `Database::from_facts` replaced: split the text into
/// `.`-terminated statements, then parse, check and insert each in turn.
fn reference_from_facts(text: &str) -> Result<Database, EngineError> {
    let mut db = Database::new();
    for stmt in split_statements(text) {
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        let lit = parse_literal(stmt).map_err(|e| EngineError::NotGround(e.to_string()))?;
        if !lit.positive {
            return Err(EngineError::NotGround(stmt.to_owned()));
        }
        let mut tuple = Vec::new();
        for &arg in &lit.atom.args {
            match arg {
                Term::Const(c) => tuple.push(Value::from(c)),
                Term::Var(_) => return Err(EngineError::NotGround(stmt.to_owned())),
            }
        }
        db.insert(lit.atom.predicate.name.as_str(), tuple)?;
    }
    Ok(db)
}

/// Splits fact text into `.`-terminated statements, respecting quoted
/// strings (a `.`, `%`, or `#` inside `"…"` is data, not syntax) and
/// stripping `%`/`#` line comments.
fn split_statements(text: &str) -> Vec<String> {
    let mut statements = Vec::new();
    let mut current = String::new();
    let mut chars = text.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            '\\' if in_string => {
                current.push(c);
                if let Some(&next) = chars.peek() {
                    current.push(next);
                    chars.next();
                }
            }
            '.' if !in_string => {
                statements.push(std::mem::take(&mut current));
            }
            '%' | '#' if !in_string => {
                for next in chars.by_ref() {
                    if next == '\n' {
                        break;
                    }
                }
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        statements.push(current);
    }
    statements
}
