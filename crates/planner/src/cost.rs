//! A simple System-R-style cost model for executable bodies over
//! limited-access sources.
//!
//! Executable plans run as nested-loop joins where every positive literal
//! is a *remote call* (paper, Section 3: "execute … from left to right").
//! The dominant costs are therefore the **number of source calls** (one
//! per binding of the outer loops) and the **tuples transferred** (rows
//! matching the pushed input slots). Both are estimated from per-relation
//! extents and a per-bound-column selectivity, in the spirit of the
//! capability-based optimizers the paper builds on \[FLMS99, PGH98\].

use lap_engine::Database;
use lap_ir::{ConjunctiveQuery, Schema, Symbol, Term, Var};
use lap_obs::FeedbackStore;
use std::collections::{HashMap, HashSet};

/// Per-relation statistics driving the estimates.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Fallback extent for relations without statistics.
    pub default_extent: f64,
    /// Fraction of an extent matching one bound column (applied once per
    /// input slot *and* per bound output column filtered client-side).
    pub selectivity: f64,
    extents: HashMap<Symbol, f64>,
    /// Per-relation call-cost multipliers in units of one healthy-baseline
    /// call. Empty (weight 1.0 everywhere) for static models; a calibrated
    /// model weighs calls to slow or failing sources by their observed
    /// effective latency, so the `calls` component of a [`PlanCost`] reads
    /// as "healthy-call equivalents".
    call_weights: HashMap<Symbol, f64>,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            default_extent: 100.0,
            selectivity: 0.1,
            extents: HashMap::new(),
            call_weights: HashMap::new(),
        }
    }
}

impl CostModel {
    /// A model with uniform defaults (no statistics).
    pub fn new() -> CostModel {
        CostModel::default()
    }

    /// Builds a model with exact extents taken from a database instance.
    pub fn from_database(db: &Database) -> CostModel {
        let mut model = CostModel::default();
        for (name, rel) in db.iter() {
            model.extents.insert(name, rel.len() as f64);
        }
        model
    }

    /// Overrides one relation's extent (builder style).
    pub fn with_extent(mut self, name: &str, extent: f64) -> CostModel {
        self.extents.insert(Symbol::intern(name), extent);
        self
    }

    /// The (estimated) extent of a relation.
    pub fn extent(&self, name: Symbol) -> f64 {
        self.extents.get(&name).copied().unwrap_or(self.default_extent)
    }

    /// The call-cost multiplier of a relation (1.0 without statistics).
    pub fn call_weight(&self, name: Symbol) -> f64 {
        self.call_weights.get(&name).copied().unwrap_or(1.0)
    }

    /// Re-costs this model from journal-fed observations: per-relation
    /// extents are backed out of the observed rows-per-call (a pattern
    /// with *k* input slots observes `extent × selectivity^k` rows per
    /// call, so `extent ≈ rows_per_call / selectivity^k`, averaged over
    /// patterns weighted by successful calls), and per-relation call
    /// weights are the observed effective per-call virtual milliseconds —
    /// attempts-per-success × mean latency plus retry backoff — relative
    /// to the cheapest observed source. Relations with no folded traffic
    /// keep the static extent and unit weight, so an uncalibrated source
    /// is treated like the healthy baseline.
    pub fn calibrated(&self, feedback: &FeedbackStore) -> CostModel {
        let mut out = self.clone();
        // Extents from observed rows-per-call.
        let mut extent_acc: HashMap<Symbol, (f64, f64)> = HashMap::new();
        // Effective per-call cost per relation, weighted by attempts.
        let mut effective: HashMap<Symbol, (f64, f64)> = HashMap::new();
        for profile in feedback.profiles.values() {
            let name = Symbol::intern(&profile.relation);
            if profile.ok > 0 {
                let backed_out = profile.rows_per_call()
                    / self.selectivity.powi(profile.num_inputs() as i32).max(1e-12);
                let weight = profile.ok as f64;
                let acc = extent_acc.entry(name).or_insert((0.0, 0.0));
                acc.0 += backed_out * weight;
                acc.1 += weight;
            }
            if profile.attempts > 0 {
                let weight = profile.attempts as f64;
                let acc = effective.entry(name).or_insert((0.0, 0.0));
                acc.0 += profile.effective_call_ms() * weight;
                acc.1 += weight;
            }
        }
        for (name, (sum, weight)) in extent_acc {
            out.extents.insert(name, (sum / weight).max(1.0));
        }
        let per_call: Vec<(Symbol, f64)> = effective
            .into_iter()
            .map(|(name, (sum, weight))| (name, sum / weight))
            .collect();
        let baseline = per_call
            .iter()
            .map(|&(_, ms)| ms)
            .fold(f64::INFINITY, f64::min)
            .max(1.0);
        for (name, ms) in per_call {
            out.call_weights.insert(name, (ms / baseline).max(1.0));
        }
        out
    }
}

/// Estimated execution cost of an ordered body.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanCost {
    /// Estimated number of source calls.
    pub calls: f64,
    /// Estimated number of tuples transferred from sources.
    pub tuples: f64,
}

impl PlanCost {
    /// Scalar objective: calls dominate (a remote round-trip is much more
    /// expensive than one extra row on an open connection).
    pub fn total(&self) -> f64 {
        self.calls + 0.01 * self.tuples
    }

    /// Zero cost.
    pub fn zero() -> PlanCost {
        PlanCost {
            calls: 0.0,
            tuples: 0.0,
        }
    }
}

/// Estimates the cost of executing `cq`'s body **in its given order**.
/// Returns `None` if the order is not executable under `schema`.
///
/// The estimate walks the body once, tracking the expected number of
/// binding tuples flowing into each literal:
///
/// * a positive literal issues one call per incoming binding; each call
///   returns `extent × selectivity^(#input slots)` rows, thinned further by
///   `selectivity` for every *additional* bound position filtered
///   client-side;
/// * a negative literal issues one membership call per binding and keeps
///   half of them (a conventional default).
///
/// Calls are weighted by the model's per-relation call weight (unit for a
/// static model), so a calibrated model charges calls to degraded sources
/// at their observed effective latency.
pub fn estimate_cost(cq: &ConjunctiveQuery, schema: &Schema, model: &CostModel) -> Option<PlanCost> {
    let mut bound: HashSet<Var> = HashSet::new();
    let mut bindings = 1.0f64; // tuples flowing into the next literal
    let mut cost = PlanCost::zero();
    for lit in &cq.body {
        let relation = lit.atom.predicate.name;
        let decl = schema.relation(relation)?;
        let arg_bound = |j: usize| match lit.atom.args[j] {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(&v),
        };
        let bound_positions = (0..lit.atom.args.len()).filter(|&j| arg_bound(j)).count();
        let access = if lit.positive {
            let pattern = decl.usable_pattern(arg_bound)?;
            Some((pattern.num_inputs(), bound_positions))
        } else if bound_positions != lit.atom.args.len() || decl.patterns.is_empty() {
            return None; // unbound negation: not executable
        } else {
            None
        };
        let (step, next) = literal_step(model, bindings, relation, access);
        cost.calls += step.calls;
        cost.tuples += step.tuples;
        bindings = next;
        bound.extend(lit.vars());
    }
    Some(cost)
}

/// One literal of the walk [`estimate_cost`] and
/// [`op_costs`](crate::op_costs) share: `bindings` flow into a call on `relation` through
/// `access = (input slots, bound positions)`, or into a membership probe
/// (`None`). Returns the literal's cost and the bindings that flow on.
pub(crate) fn literal_step(
    model: &CostModel,
    bindings: f64,
    relation: Symbol,
    access: Option<(usize, usize)>,
) -> (PlanCost, f64) {
    let calls = bindings * model.call_weight(relation);
    let Some((inputs, bound_positions)) = access else {
        // A probe transfers at most the matching row(s) and keeps half.
        return (PlanCost { calls, tuples: bindings }, bindings * 0.5);
    };
    let per_call_transfer =
        (model.extent(relation) * model.selectivity.powi(inputs as i32)).max(0.0);
    // Client-side filtering on bound outputs / repeated vars.
    let extra_filters = bound_positions.saturating_sub(inputs);
    let surviving = per_call_transfer * model.selectivity.powi(extra_filters as i32);
    (PlanCost { calls, tuples: bindings * per_call_transfer }, bindings * surviving.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_ir::{parse_cq, parse_program};

    fn setup(text: &str) -> (ConjunctiveQuery, Schema) {
        let p = parse_program(text).unwrap();
        (p.single_query().unwrap().disjuncts[0].clone(), p.schema)
    }

    #[test]
    fn selective_first_literal_is_cheaper() {
        // Scanning tiny L first, then calling B by isbn, beats scanning
        // huge C first.
        let (q1, schema) = setup(
            "L^o. B^ioo. C^oo.\n\
             Q(t) :- L(i), B(i, a, t), C(i, a).",
        );
        let q2 = parse_cq("Q(t) :- C(i, a), B(i, a, t), L(i).").unwrap();
        let model = CostModel::new()
            .with_extent("L", 5.0)
            .with_extent("B", 10_000.0)
            .with_extent("C", 2_000.0);
        let c1 = estimate_cost(&q1, &schema, &model).unwrap();
        let c2 = estimate_cost(&q2, &schema, &model).unwrap();
        assert!(c1.total() < c2.total(), "{c1:?} vs {c2:?}");
    }

    #[test]
    fn non_executable_order_has_no_cost() {
        let (q, schema) = setup(
            "B^ioo. C^oo.\n\
             Q(t) :- B(i, a, t), C(i, a).",
        );
        let model = CostModel::new();
        assert!(estimate_cost(&q, &schema, &model).is_none());
    }

    #[test]
    fn negative_literal_needs_all_bound() {
        let (q, schema) = setup(
            "L^o. C^oo.\n\
             Q(i) :- not L(i), C(i, a).",
        );
        assert!(estimate_cost(&q, &schema, &CostModel::new()).is_none());
        let ok = parse_cq("Q(i) :- C(i, a), not L(i).").unwrap();
        assert!(estimate_cost(&ok, &schema, &CostModel::new()).is_some());
    }

    #[test]
    fn from_database_uses_real_extents() {
        let db = Database::from_facts("R(1). R(2). R(3). S(1).").unwrap();
        let model = CostModel::from_database(&db);
        assert_eq!(model.extent(Symbol::intern("R")), 3.0);
        assert_eq!(model.extent(Symbol::intern("S")), 1.0);
        assert_eq!(model.extent(Symbol::intern("Z")), model.default_extent);
    }

    #[test]
    fn more_input_slots_transfer_fewer_tuples() {
        let (q_io, schema_io) = setup("S^o. R^io.\nQ(x, y) :- S(x), R(x, y).");
        let (q_oo, schema_oo) = setup("S^o. R^oo.\nQ(x, y) :- S(x), R(x, y).");
        let model = CostModel::new();
        let pushed = estimate_cost(&q_io, &schema_io, &model).unwrap();
        let scanned = estimate_cost(&q_oo, &schema_oo, &model).unwrap();
        assert!(pushed.tuples < scanned.tuples);
    }
}
