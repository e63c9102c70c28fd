//! Containment of (unions of) conjunctive queries with negation, following
//! the Wei–Lausen characterization ([WL03], restated as Theorems 12 and 13
//! of the paper). Π₂ᴾ-complete.

use crate::mapping::{for_each_homomorphism, unify_heads};
use lap_ir::{is_satisfiable, Atom, ConjunctiveQuery, Literal, Substitution, UnionQuery};
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Instrumentation counters for one top-level containment decision —
/// exposes where the Π₂ᴾ effort goes (experiment E11).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContainmentStats {
    /// Invocations of the Theorem-13 recursion (including the root).
    pub recursive_calls: u64,
    /// Recursion results answered from the memo cache.
    pub cache_hits: u64,
    /// Complete containment mappings σ handed to the negative-literal
    /// validation (candidate witnesses examined).
    pub mappings_checked: u64,
    /// Peak number of positive atoms on the `P` side (how far the chase of
    /// added `R(σȳ)` atoms grew).
    pub max_p_atoms: usize,
    /// Worker threads spawned by the parallel top level (0 when run
    /// sequentially).
    pub parallel_workers: usize,
    /// Per-disjunct tasks abandoned early because another disjunct already
    /// failed containment (parallel early-exit cancellation).
    pub cancelled_tasks: u64,
    /// Decisions answered from a [`crate::ContainmentEngine`] verdict
    /// cache instead of running the recursion at all.
    pub engine_cache_hits: u64,
    /// Decisions that missed the engine's verdict cache (or ran without
    /// one) and paid for the full procedure.
    pub engine_cache_misses: u64,
}

impl ContainmentStats {
    /// Merges another record into this one (counters add, peaks max).
    pub fn absorb(&mut self, other: &ContainmentStats) {
        self.recursive_calls += other.recursive_calls;
        self.cache_hits += other.cache_hits;
        self.mappings_checked += other.mappings_checked;
        self.max_p_atoms = self.max_p_atoms.max(other.max_p_atoms);
        self.parallel_workers = self.parallel_workers.max(other.parallel_workers);
        self.cancelled_tasks += other.cancelled_tasks;
        self.engine_cache_hits += other.engine_cache_hits;
        self.engine_cache_misses += other.engine_cache_misses;
    }
}

/// `P ⊑ Q` for UCQ¬ queries, with instrumentation counters: every disjunct
/// of `P` must be contained in `Q` (the union on the left distributes; the
/// union on the right is handled by Theorem 13's per-disjunct mapping
/// search inside the recursion).
pub(crate) fn ucqn_contained_stats(p: &UnionQuery, q: &UnionQuery) -> (bool, ContainmentStats) {
    let mut ctx = Ctx::default();
    let result = p.disjuncts.iter().all(|pi| cqn_rec(pi, q, &mut ctx));
    (result, ctx.stats)
}

/// [`ucqn_contained_stats`], fanning the per-disjunct checks of `P` onto
/// scoped worker threads.
///
/// `P ⊑ Q` distributes over `P`'s union: each disjunct `P_i ⊑ Q` is an
/// independent (and itself potentially exponential) decision, so disjuncts
/// are handed to workers through a shared index. The first disjunct found
/// *not* contained flips a cancellation flag: in-flight recursions bail at
/// their next entry and remaining disjuncts are skipped, mirroring the
/// short-circuit of the sequential `all(..)` loop. The decision returned is
/// always identical to the sequential one; only the counters differ (workers
/// keep private memo caches, so cross-disjunct cache hits are not shared).
pub(crate) fn ucqn_contained_parallel(p: &UnionQuery, q: &UnionQuery) -> (bool, ContainmentStats) {
    let n = p.disjuncts.len();
    if n <= 1 {
        return ucqn_contained_stats(p, q);
    }
    let workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1)
        .min(n);
    let cancel = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let mut agg = ContainmentStats {
        parallel_workers: workers,
        ..ContainmentStats::default()
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut ctx = Ctx {
                        cancel: Some(&cancel),
                        ..Ctx::default()
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if cancel.load(Ordering::Relaxed) {
                            ctx.stats.cancelled_tasks += 1;
                            continue;
                        }
                        if !cqn_rec(&p.disjuncts[i], q, &mut ctx) && !ctx.cancelled() {
                            failed.store(true, Ordering::Relaxed);
                            cancel.store(true, Ordering::Relaxed);
                        }
                    }
                    ctx.stats
                })
            })
            .collect();
        for h in handles {
            agg.absorb(&h.join().expect("containment worker must not panic"));
        }
    });
    (!failed.load(Ordering::Relaxed), agg)
}

type Cache = HashMap<(Atom, Vec<Literal>), bool>;

#[derive(Default)]
struct Ctx<'a> {
    cache: Cache,
    stats: ContainmentStats,
    /// Set by a sibling worker once the overall decision is known; the
    /// recursion bails at its next entry. A cancelled recursion's return
    /// value is meaningless and must not be recorded anywhere durable.
    cancel: Option<&'a AtomicBool>,
}

impl Ctx<'_> {
    fn cancelled(&self) -> bool {
        self.cancel
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

fn normalize(p: &ConjunctiveQuery) -> (Atom, Vec<Literal>) {
    let mut body = p.body.clone();
    body.sort();
    body.dedup();
    (p.head.clone(), body)
}

/// `P ⊑ Q` for a single CQ¬ `P` against a UCQ¬ `Q` (Theorem 13):
///
/// `P ⊑ Q₁ ∨ … ∨ Q_k` iff `P` is unsatisfiable, or there are an `i` and a
/// containment mapping `σ: vars(Q_i) → terms(P)` witnessing `P⁺ ⊑ Q_i⁺`
/// such that for every negative literal `¬R(ȳ)` of `Q_i`:
///
/// * `R(σȳ)` does not appear (positively) in `P`, and
/// * recursively, `P ∧ R(σȳ) ⊑ Q`.
///
/// Termination: each recursive step conjoins a *new* positive atom over the
/// fixed term universe of `P` (σ maps into terms of `P`), so the body grows
/// strictly within a finite space. Results are memoized on the normalized
/// `P` side (the `Q` side is constant through the recursion).
fn cqn_rec(p: &ConjunctiveQuery, q: &UnionQuery, ctx: &mut Ctx) -> bool {
    if ctx.cancelled() {
        // The overall decision is already known; unwind without caring
        // about the answer (the caller discards it).
        return true;
    }
    ctx.stats.recursive_calls += 1;
    if !is_satisfiable(p) {
        return true;
    }
    let key = normalize(p);
    if let Some(&r) = ctx.cache.get(&key) {
        ctx.stats.cache_hits += 1;
        return r;
    }
    let p_pos: Vec<&Atom> = p.body.iter().filter(|l| l.positive).map(|l| &l.atom).collect();
    ctx.stats.max_p_atoms = ctx.stats.max_p_atoms.max(p_pos.len());
    let p_pos_set: HashSet<&Atom> = p_pos.iter().copied().collect();

    let mut result = false;
    for qi in &q.disjuncts {
        let mut init = Substitution::new();
        if unify_heads(&qi.head, &p.head, &mut init).is_none() {
            continue;
        }
        let qi_pos: Vec<&Atom> = qi
            .body
            .iter()
            .filter(|l| l.positive)
            .map(|l| &l.atom)
            .collect();
        let qi_neg: Vec<&Atom> = qi
            .body
            .iter()
            .filter(|l| !l.positive)
            .map(|l| &l.atom)
            .collect();
        let found = for_each_homomorphism(&qi_pos, &p_pos, init, &mut |sigma| {
            ctx.stats.mappings_checked += 1;
            if negatives_ok(p, &p_pos_set, &qi_neg, sigma, q, ctx) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        if found {
            result = true;
            break;
        }
    }
    if ctx.cancelled() {
        // `result` may reflect a truncated search — don't poison the memo.
        return result;
    }
    ctx.cache.insert(key, result);
    result
}

fn negatives_ok(
    p: &ConjunctiveQuery,
    p_pos_set: &HashSet<&Atom>,
    qi_neg: &[&Atom],
    sigma: &Substitution,
    q: &UnionQuery,
    ctx: &mut Ctx,
) -> bool {
    for &natom in qi_neg {
        // Every variable of the negative literal must be bound by σ.
        // (Guaranteed for safe Q_i, whose variables all occur in Q_i⁺ or the
        // head; tolerated as "mapping fails" for unsafe inputs.)
        if natom.vars().any(|v| sigma.get(v).is_none()) {
            return false;
        }
        let r_atom = sigma.apply_atom(natom);
        if p_pos_set.contains(&r_atom) {
            return false;
        }
        // Recursive condition: P ∧ R(σȳ) ⊑ Q.
        let mut p_ext = p.clone();
        p_ext.body.push(Literal::pos(r_atom));
        if !cqn_rec(&p_ext, q, ctx) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_ir::parse_query;

    fn ucqn_contained(p: &UnionQuery, q: &UnionQuery) -> bool {
        ucqn_contained_stats(p, q).0
    }

    fn contained(p: &str, q: &str) -> bool {
        ucqn_contained(&parse_query(p).unwrap(), &parse_query(q).unwrap())
    }

    #[test]
    fn reduces_to_cq_on_positive_queries() {
        assert!(contained("Q(x) :- R(x), S(x).", "Q(x) :- R(x)."));
        assert!(!contained("Q(x) :- R(x).", "Q(x) :- R(x), S(x)."));
    }

    #[test]
    fn unsatisfiable_left_side_is_contained_in_anything() {
        assert!(contained(
            "Q(x) :- R(x), not R(x).",
            "Q(x) :- S(x)."
        ));
    }

    #[test]
    fn negative_literal_must_be_absent_on_the_left() {
        // P = R(x) ∧ S(x); Q = R(x) ∧ ¬S(x): not contained.
        assert!(!contained("Q(x) :- R(x), S(x).", "Q(x) :- R(x), not S(x)."));
        // P = R(x) ∧ ¬S(x) ⊑ Q = R(x): contained (dropping a filter weakens).
        assert!(contained("Q(x) :- R(x), not S(x).", "Q(x) :- R(x)."));
        // P = R(x) ⋢ Q = R(x) ∧ ¬S(x): a DB with R(a), S(a) breaks it.
        assert!(!contained("Q(x) :- R(x).", "Q(x) :- R(x), not S(x)."));
    }

    #[test]
    fn identical_negation_is_reflexive() {
        let q = "Q(x) :- R(x), not S(x).";
        assert!(contained(q, q));
    }

    #[test]
    fn excluded_middle_union_covers() {
        // R(x) ⊑ (R(x) ∧ S(x)) ∨ (R(x) ∧ ¬S(x)): the classic case where the
        // right-hand union genuinely needs the recursion — no single
        // disjunct contains P.
        assert!(contained(
            "Q(x) :- R(x).",
            "Q(x) :- R(x), S(x).\nQ(x) :- R(x), not S(x)."
        ));
    }

    #[test]
    fn excluded_middle_needs_both_disjuncts() {
        assert!(!contained("Q(x) :- R(x).", "Q(x) :- R(x), S(x)."));
        assert!(!contained("Q(x) :- R(x).", "Q(x) :- R(x), not S(x)."));
    }

    #[test]
    fn paper_example_3_equivalence() {
        // Q(a) :- B(i,a,t), L(i), B(i2,a2,t)  ∨  B(i,a,t), L(i), ¬B(i2,a2,t)
        // is equivalent to Q'(a) :- L(i), B(i,a,t).
        let q = parse_query(
            "Q(a) :- B(i, a, t), L(i), B(i2, a2, t).\n\
             Q(a) :- B(i, a, t), L(i), not B(i2, a2, t).",
        )
        .unwrap();
        let q2 = parse_query("Q(a) :- L(i), B(i, a, t).").unwrap();
        assert!(ucqn_contained(&q, &q2) && ucqn_contained(&q2, &q));
    }

    #[test]
    fn two_step_recursion() {
        // P = R(x) ⊑ (R(x)∧S(x)) ∨ (R(x)∧¬S(x)∧T(x)) ∨ (R(x)∧¬S(x)∧¬T(x)).
        assert!(contained(
            "Q(x) :- R(x).",
            "Q(x) :- R(x), S(x).\n\
             Q(x) :- R(x), not S(x), T(x).\n\
             Q(x) :- R(x), not S(x), not T(x)."
        ));
        // Remove the last disjunct and containment breaks.
        assert!(!contained(
            "Q(x) :- R(x).",
            "Q(x) :- R(x), S(x).\n\
             Q(x) :- R(x), not S(x), T(x)."
        ));
    }

    #[test]
    fn negation_on_the_left_strengthens() {
        assert!(contained(
            "Q(x) :- R(x), not S(x), not T(x).",
            "Q(x) :- R(x), not S(x)."
        ));
        assert!(!contained(
            "Q(x) :- R(x), not S(x).",
            "Q(x) :- R(x), not S(x), not T(x)."
        ));
    }

    #[test]
    fn union_on_left_distributes() {
        assert!(contained(
            "Q(x) :- R(x), not S(x).\nQ(x) :- R(x), S(x).",
            "Q(x) :- R(x)."
        ));
        assert!(!contained(
            "Q(x) :- R(x), not S(x).\nQ(x) :- T(x).",
            "Q(x) :- R(x)."
        ));
    }

    #[test]
    fn false_left_and_right() {
        let falsum = parse_query("Q(x) :- false.").unwrap();
        let r = parse_query("Q(x) :- R(x), not S(x).").unwrap();
        assert!(ucqn_contained(&falsum, &r));
        assert!(!ucqn_contained(&r, &falsum));
        // An unsatisfiable query *is* contained in false.
        let unsat = parse_query("Q(x) :- R(x), not R(x).").unwrap();
        assert!(ucqn_contained(&unsat, &falsum));
    }

    #[test]
    fn repeated_variable_patterns() {
        // P = R(x,x) ⊑ Q = R(x,y) but not conversely.
        assert!(contained("Q(k) :- K(k), R(x, x).", "Q(k) :- K(k), R(x, y)."));
        assert!(!contained("Q(k) :- K(k), R(x, y).", "Q(k) :- K(k), R(x, x)."));
    }

    #[test]
    fn wl03_interaction_of_negation_and_join() {
        // P(x) :- E(x,y), E(y,z), ¬E(x,z)  (an "open triangle" query)
        // is contained in  Q(x) :- E(x,y), ¬E(y,y)?  No: take
        // E = {(a,b),(b,c),(b,b)} minus... let the checker decide; the
        // point of this test is agreement with a hand-constructed
        // counterexample: D = {E(a,a)}: P(a)? E(a,a),E(a,a),¬E(a,a) fails.
        // D = {E(a,b),E(b,b)}: P(a) holds via y=b,z=b? ¬E(a,b) is false...
        // choose z=b: needs ¬E(a,b): false. So P(a) fails. Try
        // D = {E(a,b),E(b,c)}: P(a) via y=b,z=c, ¬E(a,c) holds. Q(a) needs
        // E(a,y') with ¬E(y',y'): y'=b, ¬E(b,b) holds. Hmm. Counterexample:
        // add E(b,b): D = {E(a,b),E(b,c),E(b,b)}: P(a): y=b,z=c ¬E(a,c) ok.
        // Q(a): only E(a,b), needs ¬E(b,b): fails. So P ⋢ Q.
        assert!(!contained(
            "Q(x) :- E(x, y), E(y, z), not E(x, z).",
            "Q(x) :- E(x, y), not E(y, y)."
        ));
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use lap_ir::parse_query;

    #[test]
    fn stats_count_the_excluded_middle_recursion() {
        let p = parse_query("Q(x) :- R(x).").unwrap();
        let q = parse_query(
            "Q(x) :- R(x), S(x).\n\
             Q(x) :- R(x), not S(x).",
        )
        .unwrap();
        let (result, stats) = ucqn_contained_stats(&p, &q);
        assert!(result);
        assert!(stats.recursive_calls >= 2, "{stats:?}");
        assert!(stats.mappings_checked >= 2, "{stats:?}");
        assert!(stats.max_p_atoms >= 2, "{stats:?}");
    }

    #[test]
    fn positive_containment_uses_one_call_per_disjunct() {
        let p = parse_query("Q(x) :- R(x), S(x).").unwrap();
        let q = parse_query("Q(x) :- R(x).").unwrap();
        let (result, stats) = ucqn_contained_stats(&p, &q);
        assert!(result);
        assert_eq!(stats.recursive_calls, 1);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn cache_hits_appear_on_repeated_subproblems() {
        // Two identical negative literals lead to the same extended P.
        let p = parse_query("Q(x) :- R(x).").unwrap();
        let q = parse_query(
            "Q(x) :- R(x), S(x).\n\
             Q(x) :- R(x), not S(x), not S(x).",
        )
        .unwrap();
        let (result, stats) = ucqn_contained_stats(&p, &q);
        assert!(result);
        assert!(stats.cache_hits >= 1, "{stats:?}");
    }

    #[test]
    fn stats_absorb_adds_counters_and_maxes_peaks() {
        let mut a = ContainmentStats {
            recursive_calls: 3,
            cache_hits: 1,
            mappings_checked: 5,
            max_p_atoms: 4,
            parallel_workers: 2,
            cancelled_tasks: 0,
            engine_cache_hits: 1,
            engine_cache_misses: 2,
        };
        let b = ContainmentStats {
            recursive_calls: 7,
            cache_hits: 2,
            mappings_checked: 1,
            max_p_atoms: 9,
            parallel_workers: 1,
            cancelled_tasks: 3,
            engine_cache_hits: 0,
            engine_cache_misses: 1,
        };
        a.absorb(&b);
        assert_eq!(a.recursive_calls, 10);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.mappings_checked, 6);
        assert_eq!(a.max_p_atoms, 9);
        assert_eq!(a.parallel_workers, 2);
        assert_eq!(a.cancelled_tasks, 3);
        assert_eq!(a.engine_cache_hits, 1);
        assert_eq!(a.engine_cache_misses, 3);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use lap_ir::parse_query;

    fn agree(p: &str, q: &str) {
        let p = parse_query(p).unwrap();
        let q = parse_query(q).unwrap();
        let (seq, _) = ucqn_contained_stats(&p, &q);
        let (par, stats) = ucqn_contained_parallel(&p, &q);
        assert_eq!(seq, par, "P={p} Q={q} ({stats:?})");
    }

    #[test]
    fn parallel_agrees_on_multi_disjunct_left_sides() {
        agree(
            "Q(x) :- R(x), not S(x).\nQ(x) :- R(x), S(x).\nQ(x) :- R(x), T(x).",
            "Q(x) :- R(x).",
        );
        agree(
            "Q(x) :- R(x), not S(x).\nQ(x) :- T(x).",
            "Q(x) :- R(x).",
        );
        agree(
            "Q(x) :- R(x).\nQ(x) :- S(x).\nQ(x) :- T(x).\nQ(x) :- U(x).",
            "Q(x) :- R(x).\nQ(x) :- S(x).\nQ(x) :- T(x).\nQ(x) :- U(x).",
        );
    }

    #[test]
    fn parallel_single_disjunct_falls_back_to_sequential() {
        let p = parse_query("Q(x) :- R(x), not S(x).").unwrap();
        let q = parse_query("Q(x) :- R(x).").unwrap();
        let (r, stats) = ucqn_contained_parallel(&p, &q);
        assert!(r);
        assert_eq!(stats.parallel_workers, 0);
    }

    #[test]
    fn parallel_reports_workers_and_cancellation() {
        // First disjunct fails containment; the rest are candidates for
        // cancellation (timing-dependent, so only the worker count is a
        // hard assertion).
        let p = parse_query(
            "Q(x) :- A(x).\nQ(x) :- R(x), not S(x).\nQ(x) :- R(x), S(x).\nQ(x) :- T(x).",
        )
        .unwrap();
        let q = parse_query("Q(x) :- R(x).").unwrap();
        let (r, stats) = ucqn_contained_parallel(&p, &q);
        assert!(!r);
        assert!(stats.parallel_workers >= 1, "{stats:?}");
    }
}
