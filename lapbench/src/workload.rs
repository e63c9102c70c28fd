//! The four seeded workloads. Everything the program under test sees is
//! text generated here from `--seed` through `lap-workload`; the request
//! stream of a workload is a pure function `index -> request`, so the load
//! generator, the oracle and the traced replay all read the same stream.

use lap::core::containment_to_feasibility;
use lap::engine::{Database, Value};
use lap::ir::{Atom, Literal, Schema, Symbol, Term, UnionQuery, Var};
use lap::proto::QueryOptions;
use lap::workload::families::excluded_middle_pair;
use lap::workload::{
    bookstore, gen_instance, gen_query, gen_schema, Bookstore, BookstoreConfig, InstanceConfig,
    QueryConfig, SchemaConfig,
};
use lap_prng::StdRng;
use std::borrow::Cow;
use std::collections::HashSet;

/// Closed-loop client connections of the `serve-*` workloads (`nproc` = 2).
pub const CLIENTS: u64 = 2;

/// Distinct (program, instance) pairs `serve-hit` and `serve-chaos` cycle.
const HIT_PAIRS: usize = 4;
/// Distinct fault seeds `serve-chaos` cycles (`fault_seed: 1 + i mod 16`).
/// Also the period of the chaos stream: the pair repeats every
/// `CLIENTS * HIT_PAIRS` = 8 requests, which divides 16.
const CHAOS_SEEDS: u64 = 16;
/// Program templates `serve-miss` cycles; each use substitutes a fresh
/// constant, so no two requests share a plan-cache key.
const MISS_TEMPLATES: usize = 512;
/// `serve-miss` plan-cache budget: about fifty of its programs, so that LRU
/// eviction is under way within a second of warm-up. (At the ~65 requests/s
/// the baseline serves, a 4 MiB budget would first evict ten seconds in,
/// and the default 64 MiB never.)
pub const MISS_CACHE_BYTES: usize = 256 * 1024;
/// Instances drawn per bookstore pair; see [`bookstore_pair`].
const SHAPE_CANDIDATES: usize = 64;
/// Independent (schema, instance) groups the `serve-miss` templates are
/// spread over, so that one unlucky draw does not set the workload's cost.
const MISS_GROUPS: usize = 8;
/// Placeholder constant the `serve-miss` templates are split at.
const SENTINEL: i64 = 987_654_321;
/// First fresh constant of the `serve-miss` stream; far outside the
/// instance domain, so the substituted literal selects nothing.
const FRESH_BASE: u64 = 1_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ServeHit,
    ServeMiss,
    ServeChaos,
    OneshotWide,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ServeHit,
        Kind::ServeMiss,
        Kind::ServeChaos,
        Kind::OneshotWide,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeHit => "serve-hit",
            Kind::ServeMiss => "serve-miss",
            Kind::ServeChaos => "serve-chaos",
            Kind::OneshotWide => "oneshot-wide",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Does the workload run against a `lapd` server (as opposed to the
    /// in-process one-shot loop)?
    pub fn serves(self) -> bool {
        self != Kind::OneshotWide
    }
}

/// One request of a stream, borrowing the workload's generated text.
pub struct Req<'a> {
    pub program: Cow<'a, str>,
    pub facts: &'a str,
    pub options: QueryOptions,
}

/// A `serve-miss` program, split at every occurrence of the sentinel.
struct Template {
    parts: Vec<String>,
    /// Index into [`Workload::instances`].
    facts: usize,
}

pub struct Workload {
    pub kind: Kind,
    /// Fixed (program, facts) pairs: four for `serve-hit`/`serve-chaos`,
    /// one for `oneshot-wide`, none for `serve-miss`.
    pairs: Vec<(String, String)>,
    templates: Vec<Template>,
    instances: Vec<String>,
    /// A journal-heavy request the warm-up uses to wrap the session rings
    /// when the stream's own requests emit too few events to do it in time.
    pub filler: Option<(String, String)>,
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        // One independent generator per part, so adding a part never
        // shifts the others' draws.
        let rng =
            |part: u64| StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(part));
        let mut w = Workload {
            kind,
            pairs: Vec::new(),
            templates: Vec::new(),
            instances: Vec::new(),
            filler: None,
        };
        match kind {
            Kind::ServeHit | Kind::ServeChaos => {
                // 2-4 disjuncts (vendors x catalogs), negation over Library.
                let shapes: [(usize, usize); HIT_PAIRS] = [(2, 2), (1, 2), (2, 1), (1, 3)];
                for (k, (vendors, catalogs)) in shapes.into_iter().enumerate() {
                    let cfg = BookstoreConfig {
                        vendors,
                        catalogs,
                        books: 100,
                        ..BookstoreConfig::default()
                    };
                    w.pairs.push(bookstore_pair(&cfg, &mut rng(k as u64)));
                }
            }
            Kind::OneshotWide => {
                let cfg = BookstoreConfig {
                    books: 1400,
                    ..BookstoreConfig::default()
                };
                w.pairs.push(bookstore_pair(&cfg, &mut rng(0)));
            }
            Kind::ServeMiss => {
                w.generate_miss_templates(&mut rng(0));
                let cfg = BookstoreConfig {
                    books: 400,
                    ..BookstoreConfig::default()
                };
                w.filler = Some(bookstore_pair(&cfg, &mut rng(1)));
            }
        }
        w
    }

    /// `gen_query` UCQ¬ (3 x (4 pos + 2 neg)) over random schemas, mixed
    /// with Theorem-18 reductions of the excluded-middle pair so that the
    /// containment branch of FEASIBLE carries weight: plain `gen_query`
    /// programs compile in tens of microseconds and would leave the miss
    /// path too light to see.
    fn generate_miss_templates(&mut self, rng: &mut StdRng) {
        let tiny = InstanceConfig {
            domain_size: 4,
            tuples_per_relation: 3,
        };
        let query_cfg = QueryConfig {
            num_disjuncts: 3,
            positive_per_disjunct: 4,
            negative_per_disjunct: 2,
            constant_fraction: 0.2,
            ..QueryConfig::default()
        };
        // The reductions fan one scan of `R` out into up to 2^n disjuncts, so
        // their call count follows |R| closely: draw enough tuples that the
        // unary relations hold the whole (smaller) domain on nearly every
        // seed.
        let saturated = InstanceConfig {
            domain_size: 3,
            tuples_per_relation: 12,
        };
        let reductions = [reduction(5), reduction(4)];
        // Per group: a random schema with its instance, then one instance
        // for each reduction width (instances 3g, 3g + 1, 3g + 2).
        let mut schemas = Vec::new();
        for _ in 0..MISS_GROUPS {
            let schema = gen_schema(&SchemaConfig::default(), rng);
            self.instances
                .push(facts_text(&gen_instance(&schema, &tiny, rng)));
            for (reduced, _) in &reductions {
                self.instances.push(
                    facts_text(&gen_instance(reduced, &saturated, rng)).replace("$thm18", "Thm18"),
                );
            }
            schemas.push(schema);
        }
        for t in 0..MISS_TEMPLATES {
            let group = (t / 8) % MISS_GROUPS;
            let (schema_text, query, facts) = match t % 8 {
                0 => (
                    reductions[0].0.to_string(),
                    reductions[0].1.clone(),
                    3 * group + 1,
                ),
                2 | 4 => (
                    reductions[1].0.to_string(),
                    reductions[1].1.clone(),
                    3 * group + 2,
                ),
                _ => loop {
                    let mut query = gen_query(&schemas[group], &query_cfg, rng);
                    if plant_sentinel(&mut query) {
                        break (schemas[group].to_string(), query, 3 * group);
                    }
                },
            };
            // The reduction names its fresh symbols with `$`, which the
            // parser (rightly) cannot produce.
            let text = format!("{schema_text}{query}\n").replace("$thm18", "Thm18");
            let parts: Vec<String> = text
                .split(&SENTINEL.to_string())
                .map(str::to_owned)
                .collect();
            assert!(parts.len() >= 2, "every template carries the sentinel");
            self.templates.push(Template { parts, facts });
        }
    }

    /// Request `i` of the stream. Client `c` of the closed loop sends the
    /// indices `c, c + CLIENTS, c + 2 * CLIENTS, ...`.
    pub fn request(&self, i: u64) -> Req<'_> {
        match self.kind {
            Kind::ServeHit | Kind::ServeChaos | Kind::OneshotWide => {
                let (program, facts) = &self.pairs[self.pair_of(i)];
                let options = if self.kind == Kind::ServeChaos {
                    QueryOptions {
                        fault_rate: Some(0.2),
                        latency_ms: Some(20),
                        retry: Some(3),
                        io_workers: Some(8),
                        batch_width: Some(64),
                        fault_seed: Some(1 + i % CHAOS_SEEDS),
                        ..QueryOptions::default()
                    }
                } else {
                    QueryOptions::default()
                };
                Req {
                    program: Cow::Borrowed(program),
                    facts,
                    options,
                }
            }
            Kind::ServeMiss => {
                let t = &self.templates[(i % MISS_TEMPLATES as u64) as usize];
                Req {
                    program: Cow::Owned(t.parts.join(&(FRESH_BASE + i).to_string())),
                    facts: &self.instances[t.facts],
                    options: QueryOptions::default(),
                }
            }
        }
    }

    /// Each client walks all pairs round-robin: `i = CLIENTS * k + c`
    /// reads pair `k mod 4`.
    fn pair_of(&self, i: u64) -> usize {
        ((i / CLIENTS) % self.pairs.len() as u64) as usize
    }

    /// The request's repeat class, when the stream repeats: requests of one
    /// class are byte-identical, so one oracle run covers all of them.
    pub fn class_of(&self, i: u64) -> Option<usize> {
        match self.kind {
            Kind::ServeHit | Kind::OneshotWide => Some(self.pair_of(i)),
            Kind::ServeChaos => Some((i % CHAOS_SEEDS) as usize),
            Kind::ServeMiss => None,
        }
    }

    /// Number of repeat classes (0 for the never-repeating `serve-miss`).
    pub fn classes(&self) -> usize {
        match self.kind {
            Kind::ServeHit | Kind::OneshotWide => self.pairs.len(),
            Kind::ServeChaos => CHAOS_SEEDS as usize,
            Kind::ServeMiss => 0,
        }
    }

    /// Plan-cache byte budget the workload's server runs with.
    pub fn cache_bytes(&self) -> usize {
        match self.kind {
            Kind::ServeMiss => MISS_CACHE_BYTES,
            _ => lap::core::DEFAULT_CACHE_BYTES,
        }
    }
}

/// A bookstore (program, facts) pair. Several instances are drawn and the
/// one whose shape is closest to what `cfg` predicts is kept, so that the
/// cost of a workload is nearly the same on every seed and the spread
/// between runs measures the program, not the draw.
fn bookstore_pair(cfg: &BookstoreConfig, rng: &mut StdRng) -> (String, String) {
    let (_, b) = (0..SHAPE_CANDIDATES)
        .map(|_| bookstore(cfg, rng))
        .map(|b| (shape_distance(cfg, &b), b))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one candidate");
    (b.program_text(), facts_text(&b.db))
}

/// How far an instance's relation sizes and join sizes lie from their
/// expectation under `cfg`, as a sum of squared relative deviations. Reads
/// the data only: which plan the program picks has no say in it.
fn shape_distance(cfg: &BookstoreConfig, b: &Bookstore) -> f64 {
    let rows = |name: &str| -> Vec<&Vec<Value>> {
        b.db.relation(Symbol::intern(name))
            .map(|r| r.iter().collect())
            .unwrap_or_default()
    };
    let books = cfg.books as f64;
    let mut distance = 0.0;
    let mut deviate = |observed: usize, expected: f64| {
        distance += ((observed as f64 - expected) / expected).powi(2);
    };
    let library: HashSet<Value> = rows("Library").iter().map(|t| t[0]).collect();
    deviate(library.len(), books * cfg.library_coverage);
    // A catalog and a vendor agree on a book's author when both draw the
    // usual one (0.9 each) or both the alternative (0.1 each).
    let same_author = 0.9 * 0.9 + 0.1 * 0.1;
    for v in 0..cfg.vendors {
        let stock = rows(&format!("Vendor{v}"));
        deviate(stock.len(), books * cfg.vendor_coverage);
        let stocked: HashSet<(Value, Value)> = stock.iter().map(|t| (t[0], t[1])).collect();
        for c in 0..cfg.catalogs {
            let listed = rows(&format!("Catalog{c}"));
            if v == 0 {
                deviate(listed.len(), books * cfg.catalog_coverage);
            }
            let matched: Vec<_> = listed
                .iter()
                .filter(|t| stocked.contains(&(t[0], t[1])))
                .collect();
            let expected = books * cfg.catalog_coverage * cfg.vendor_coverage * same_author;
            deviate(matched.len(), expected);
            let answers = matched.iter().filter(|t| !library.contains(&t[0])).count();
            deviate(answers, expected * (1.0 - cfg.library_coverage));
        }
    }
    distance
}

/// Theorem 18's reduction of `P ⊑ Q` for the excluded-middle pair of width
/// `n`, with a literal `T(x, SENTINEL)` added to every disjunct of both
/// sides (the containment still holds) so each request can carry a constant
/// the containment memo has not seen.
fn reduction(n: usize) -> (Schema, UnionQuery) {
    let (mut p, mut q) = excluded_middle_pair(n);
    let marker = Literal::pos(Atom::from_parts(
        "T",
        vec![Term::Var(Var::new("x")), Term::int(SENTINEL)],
    ));
    for cq in p.disjuncts.iter_mut().chain(q.disjuncts.iter_mut()) {
        cq.body.push(marker.clone());
    }
    let inst = containment_to_feasibility(&p, &q);
    (inst.schema, inst.query)
}

/// Overwrites the first constant in a positive literal of `query` with the
/// sentinel; false when there is none to overwrite. A constant in a
/// positive literal binds nothing, so safety is unaffected.
fn plant_sentinel(query: &mut UnionQuery) -> bool {
    for cq in &mut query.disjuncts {
        for lit in cq.body.iter_mut().filter(|l| l.positive) {
            if let Some(arg) = lit.atom.args.iter_mut().find(|t| !t.is_var()) {
                *arg = Term::int(SENTINEL);
                return true;
            }
        }
    }
    false
}

/// Renders an instance as the facts text `Database::from_facts` parses.
pub fn facts_text(db: &Database) -> String {
    let mut out = String::new();
    for (name, rel) in db.iter() {
        for tuple in rel.iter() {
            out.push_str(name.as_str());
            out.push('(');
            for (k, v) in tuple.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                match v {
                    Value::Str(s) => {
                        out.push('"');
                        out.push_str(s.as_str());
                        out.push('"');
                    }
                    other => out.push_str(&other.to_string()),
                }
            }
            out.push_str(").\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_text_round_trips_through_the_parser() {
        let w = Workload::generate(Kind::ServeHit, 11);
        for i in 0..8 {
            let req = w.request(i);
            let db = Database::from_facts(req.facts).expect("generated facts parse");
            assert_eq!(facts_text(&db), req.facts);
        }
    }

    #[test]
    fn streams_are_a_function_of_the_seed() {
        for kind in Kind::ALL {
            let (a, b) = (Workload::generate(kind, 5), Workload::generate(kind, 5));
            let c = Workload::generate(kind, 6);
            for i in [0, 1, 7, 600] {
                assert_eq!(a.request(i).program, b.request(i).program);
                assert_eq!(a.request(i).facts, b.request(i).facts);
            }
            assert_ne!(a.request(1).facts, c.request(1).facts, "{}", kind.name());
        }
    }

    #[test]
    fn miss_requests_never_repeat_and_always_parse() {
        let w = Workload::generate(Kind::ServeMiss, 11);
        let mut seen = std::collections::HashSet::new();
        for i in 0..(2 * MISS_TEMPLATES as u64) {
            let req = w.request(i);
            lap::ir::parse_program(&req.program).expect("template parses");
            assert!(seen.insert(lap::core::canonical_text(&req.program)));
        }
    }

    #[test]
    fn chaos_classes_cover_pair_and_fault_seed() {
        let w = Workload::generate(Kind::ServeChaos, 11);
        for i in 0..64 {
            let j = i + w.classes() as u64;
            assert_eq!(w.class_of(i), w.class_of(j));
            assert_eq!(w.request(i).program, w.request(j).program);
            assert_eq!(w.request(i).options, w.request(j).options);
        }
    }
}
