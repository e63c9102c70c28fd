//! The contract table: every determinism and soundness contract of `lap`,
//! checked row by row under the tier-1 `cargo test`.
//!
//! A row is `(corpus, ExecConfig, Wire, domain budget, Path)`. [`table`]
//! lists one entry per `(corpus, ExecConfig, Wire, domain budget)` with the
//! paths it runs on and its
//! [`Home`]: the one test that checks it, through [`check_rows`]. The
//! suites that own rows (`contracts.rs`, `chaos.rs`, `cli.rs`, `daemon.rs`,
//! `executor_differential.rs`, `flight_recorder.rs`) include this module
//! and keep no grid of their own.
//!
//! Paths:
//!
//! * `Lib` — `answer_star_opts`;
//! * `Prepared` — `PreparedQuery` and the one-shot presets;
//! * `Replay` — the run re-executed from its exported journal;
//! * `Cli` — `lapq run`, with every export on, `lapq profile` and `lapq
//!   replay`;
//! * `Daemon` — an in-process `lapd` (`Server`);
//! * `Lapd` — the `lapd` binary, driven by `lapq query-daemon`/`daemon-ctl`
//!   ([`check_lapd`], whatever the row's home);
//! * `Feedback` — `lapq calibrate`, then `lapq run --feedback` and `lapq
//!   replay` of its journal.
//!
//! Each row asserts every contract that applies to it:
//!
//! * **deterministic** — a row gives the same outcome and journal twice;
//!   a row with a twin (below) is compared against an independent run of
//!   it instead; `lapq run` and its `answer` alias print the same bytes;
//! * **row = columnar** — a row-executor row equals its columnar twin in
//!   outcome, `CallStats`, retries, failures, virtual ms, operator profiles
//!   ([`row_counters`]) and journal events ([`normalized`]);
//! * **overlap moves only the clock** — an `io_workers > 1` row equals its
//!   serial twin except for `virtual_ms`, which is never later, and earlier
//!   when calls carry latency;
//! * **sound** — a corpus's plain run equals the tuple recursion on its
//!   plans and satisfies `ansᵤ ⊆ Q(D) ⊆ ansₒ` (the upper bound when `ansₒ`
//!   is null-free); a run that dropped nothing answers exactly what the
//!   plain run does; a degraded run's `ansᵤ` is a subset of the plain one,
//!   its verdict is never `Complete` and it counts a failure per drop; a
//!   fault-free wire sees no failure, and a wire that fails every call
//!   degrades, each drop after its last retry;
//! * **every name = the entry point** (`Prepared`) — outcome and journal
//!   events;
//! * **replay = original** — the journal survives export and import, and
//!   replays the outcome (and `lapq replay` the stdout) without the sources;
//! * **one-shot bytes** — `lapq run` prints what the library run renders;
//!   the daemon answers the same text, a cache hit (also for a whitespace
//!   variant) answers what the miss did, and each program compiles once;
//! * **exports validate** — each `Cli` row's journal, chrome trace and
//!   metrics pass `lapq obs-validate`, `lapq report` reads the journal, and
//!   the metrics' `source.calls` equals the stats lines' call count;
//! * **profile = run + tables** — `lapq profile` under the row's flags
//!   prints `lapq run`'s block, then the library run's `Qᵘ` and `Qᵒ`
//!   operator tables; with nothing dropped their `Access`/`BindJoin` calls
//!   sum to the stats line's and their `NegFilter` calls to
//!   `source.membership`; its journal replays;
//! * **refinement is sound** — a row with a `dom(x)` budget
//!   (`--domain`) satisfies `ansᵤ ⊆ improved ⊆ Q(D)`, leaves the report as
//!   the row without it has it, journals its budget so replay refines too,
//!   and its metrics count the enumeration calls on top of the stats line;
//! * **pinned bytes** — [`PINNED`], 24 journal/outcome digests of the
//!   60-book bookstore ([`check_pins`]). A deliberate journal or renderer
//!   change re-pins here: the failure prints the whole replacement table.
//!
//! Where the former `scripts/ci.sh` smokes are asserted now:
//!
//! | `ci.sh` smoke | rows |
//! |---|---|
//! | observability (`lapq run --trace --metrics-json`) | every `Cli` row |
//! | malformed arity | `tests/cli.rs::unrunnable_input_exits_1_with_a_named_error` |
//! | flight recorder | [`Home::RecordedRun`] |
//! | chrome trace | every `Cli` row, [`Home::ChromeTrace`] |
//! | overlapped chaos | [`Home::OverlappedRun`] |
//! | columnar | `bookstore · width 1/64 · Plain` and `bookstore · (64, 8) · Flags(0.4, 11, 5 ms, retry 3)` in [`Home::Examples`] |
//! | calibration | `Drift(40) · Feedback` in [`Home::Examples`] |
//! | daemon | every `Lapd` row, [`check_lapd`]'s stats |
//! | telemetry | [`check_lapd`]'s drift, sweep and post-sweep `--feedback` comparison |
//! | resilience | `bookstore · Flags(0.5, 7, retry 3)` in [`Home::Examples`] |

// Each suite uses the part of the harness its rows need.
#![allow(dead_code)]

use lap::core::{
    answer_star, answer_star_obs_cfg, answer_star_opts, answer_star_resilient_cfg,
    lower_pair, render_answer_report, render_outcome, render_refinement, AnswerOptions,
    AnswerOutcome, AnswerReport, CompileOptions, Completeness, ContainmentEngine, PreparedQuery,
};
use lap::daemon::{DaemonConfig, Server};
use lap::engine::{
    eval_oracle, eval_ordered_union_tuple, Database, EngineError, ExecConfig, FaultConfig,
    ReplaySource, ResilienceConfig, RetryPolicy, SourceRegistry,
};
use lap::ir::{parse_program, Program};
use lap::obs::{Event, JournalConfig, JournalSnapshot, Json, Recorder};
use lap::planner::{op_table, CostModel};
use lap::proto::{Client, QueryOptions, Response};
use lap::workload::{
    chaos_ladder, gen_instance, gen_query, gen_schema, slow_source, InstanceConfig, QueryConfig,
    SchemaConfig, CHAOS_RATES,
};
use lap_prng::StdRng;
use std::collections::{HashMap, HashSet};
use std::ffi::OsStr;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::rc::Rc;

// ------------------------------------------------------------------ rows

/// What a row runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Corpus {
    /// The 60-book bookstore, seed 2004 (`tests/common`).
    Bookstore60,
    /// `examples/data/{name}.lap` over `examples/data/{name}_facts.lap`.
    Example(&'static str),
    /// `A^o D^oo D^io` with this many `A` rows and eight `D` rows: past a
    /// few `A` rows the static model's uniform extents pick the wrong join
    /// order, which is what calibration and the daemon's watcher repair.
    Drift(usize),
    /// One of [`PAPER_CASES`].
    Paper(usize),
    /// Case `n` of the generated grid.
    Generated(u64),
}

/// The paper's worked cases: program and instance.
const PAPER_CASES: &[(&str, &str)] = &[
    // Example 1: feasible, plans coincide.
    (
        "B^ioo. B^oio. C^oo. L^o.\nQ(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
        r#"B(1, "a", "t1"). B(2, "b", "t2"). C(1, "a"). C(2, "b"). L(1)."#,
    ),
    // Example 3: feasible via containment, empty underestimate.
    (
        "B^ioo. B^oio. L^o.\nQ(a) :- B(i, a, t), L(i), B(i2, a2, t).\n\
         Q(a) :- B(i, a, t), L(i), not B(i2, a2, t).",
        r#"B(1, "adams", "t"). B(2, "lem", "s"). L(1). L(2)."#,
    ),
    // Example 4: infeasible, null in the overestimate.
    (
        "S^o. R^oo. B^ii. T^oo.\nQ(x, y) :- not S(z), R(x, z), B(x, y).\n\
         Q(x, y) :- T(x, y).",
        "R(1, 10). R(2, 20). S(20). T(7, 8). B(1, 5).",
    ),
    // Three independent disjuncts, negation and a bind-join.
    (
        "F^o. G^o. H^io.\nQ(x) :- F(x).\nQ(x) :- G(x), not F(x).\nQ(x) :- G(y), H(y, x).",
        "F(1). F(2). G(2). G(3). H(3, 4). H(2, 5).",
    ),
];

/// Cases of the generated grid; each of the three grids it replaced ran
/// this many.
const GENERATED_CASES: u64 = if cfg!(feature = "slow-tests") { 80 } else { 32 };

/// Seed salt of the generated grid's instances and fault draws.
const GRID_SALT: u64 = 0x10CC;

/// How a row's sources behave.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Wire {
    /// No fault injection, no retry policy.
    Plain,
    /// 20% errors, 20 ms ± 5 ms latency, three attempts.
    Chaos,
    /// Latency jitter across a per-call timeout, three attempts, and a
    /// per-query deadline budget that runs out part-way through.
    Deadline,
    /// Rung `.1` of `chaos_ladder(.0)`.
    Ladder(u64, usize),
    /// `slow_source(0.0, 11)`: jittered latency across a 25 ms timeout.
    Slow,
    /// `ResilienceConfig::chaos(rate, seed)`.
    Seeded(f64, u64),
    /// `--fault-rate`, `--fault-seed`, `--latency-ms` and `--retry` (0 =
    /// not given): a profile every path can express.
    Flags { rate: f64, seed: u64, latency_ms: u64, retry: u64 },
    /// The generated grid's profile: this error rate, two attempts, a
    /// fault seed per case.
    Grid(f64),
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Path {
    Lib,
    Prepared,
    Replay,
    Cli,
    Daemon,
    Lapd,
    Feedback,
}

/// The test that owns a row, grouped by suite; [`table`] says which rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Home {
    // contracts.rs
    BookstorePins,
    PaperCases,
    Examples,
    GeneratedGrid,
    // chaos.rs
    RateZero,
    LadderSoundness,
    LatencyTimeouts,
    SameSeed,
    // cli.rs
    ChromeTrace,
    AnswerAlias,
    TotalOutage,
    RecordedRun,
    OverlappedRun,
    DomainRefinement,
    // daemon.rs
    DaemonBytes,
    CacheHit,
    // executor_differential.rs
    OverlappedColumnarChaos,
    RowExecutor,
    Overlap,
    BatchWidthFaults,
    // flight_recorder.rs
    RecordedChaos,
}

#[derive(Clone, Copy, Debug)]
pub struct Row {
    corpus: Corpus,
    exec: ExecConfig,
    wire: Wire,
    /// The `dom(x)` refinement budget (`--domain`), if the row refines.
    domain: Option<u64>,
    paths: &'static [Path],
}

/// One run of each pinned configuration, at each journal tier: journal tier
/// (`R` = replay), wire, `io_workers`, batch width, and the FNV-1a-64
/// digests of the journal (`snapshot.to_json().to_compact()`) and of the
/// rendered outcome. Recorded at `f214ea0`, when a serial call and an
/// overlapped batch were two code paths.
type PinnedRun = (bool, Wire, usize, usize, u64, u64);

const L: bool = false; // light tier
const R: bool = true; // replay tier

#[rustfmt::skip]
const PINNED: &[PinnedRun] = {
    use Wire::{Chaos, Deadline, Plain};
    &[
        (L, Plain, 1, 1, 0x93e652364b0572d7, 0x2cf7518943032e5d),
        (L, Plain, 1, 64, 0xaf04416c3e324339, 0x98fbcc13abd05b09),
        (L, Plain, 8, 1, 0xc5d6192cc0e017c8, 0x2cf7518943032e5d),
        (L, Plain, 8, 64, 0x5adf45f0e627b4b6, 0x98fbcc13abd05b09),
        (L, Chaos, 1, 1, 0x455f5c881618502e, 0x347f46feec3a519b),
        (L, Chaos, 1, 64, 0x6cdae777858f1959, 0x41602d4db0b80a92),
        (L, Chaos, 8, 1, 0xd5c515efbd74e887, 0x6339ee062d57138a),
        (L, Chaos, 8, 64, 0x1268fc9506973012, 0x46c1cfd71ea577c7),
        (L, Deadline, 1, 1, 0x4b6c834fb4793459, 0x61020cd66fbf6544),
        (L, Deadline, 1, 64, 0x42ad154d8d691d92, 0xa53e87749383553e),
        (L, Deadline, 8, 1, 0xe26e295b2d16e1b4, 0x2cd05ebbb26855c4),
        (L, Deadline, 8, 64, 0x2bdc72e62d2623ed, 0x0e50ebbfb78d2232),
        (R, Plain, 1, 1, 0x64c666ea35949f8a, 0x2cf7518943032e5d),
        (R, Plain, 1, 64, 0x757e1fbca929fec4, 0x98fbcc13abd05b09),
        (R, Plain, 8, 1, 0x248c90b466605517, 0x2cf7518943032e5d),
        (R, Plain, 8, 64, 0x00e3f39a1725b0a5, 0x98fbcc13abd05b09),
        (R, Chaos, 1, 1, 0x8094d0b9ee7405ae, 0x347f46feec3a519b),
        (R, Chaos, 1, 64, 0x7ceaa90d50996023, 0x41602d4db0b80a92),
        (R, Chaos, 8, 1, 0x322235e048dbb385, 0x6339ee062d57138a),
        (R, Chaos, 8, 64, 0xeea348305e228cfa, 0x46c1cfd71ea577c7),
        (R, Deadline, 1, 1, 0x93f7d1015b99c514, 0x61020cd66fbf6544),
        (R, Deadline, 1, 64, 0xa013706ffbb003aa, 0xa53e87749383553e),
        (R, Deadline, 8, 1, 0xf6128a1a5ebdea5f, 0x2cd05ebbb26855c4),
        (R, Deadline, 8, 64, 0x71bddfd20c2292e5, 0x0e50ebbfb78d2232),
    ]
};

/// The contract table: each row with the test that checks it.
pub fn table() -> Vec<(Home, Row)> {
    use Corpus::*;
    use Path::*;
    use Wire::*;
    let d = ExecConfig::default();
    let cfg = |width, workers| ExecConfig::with_batch_size(width).with_io_workers(workers);
    let flags = |rate, seed, latency_ms, retry| Flags { rate, seed, latency_ms, retry };
    let mut rows = Vec::new();
    let mut add = |home, corpus, exec, wire, paths: &'static [Path]| {
        rows.push((home, Row { corpus, exec, wire, domain: None, paths }));
    };

    // The byte-pin grid, on both executors.
    for &(_, wire, workers, width, ..) in PINNED.iter().filter(|pin| pin.0 == R) {
        let home = match (wire, workers, width) {
            (Chaos, 8, 64) => Home::OverlappedColumnarChaos,
            _ => Home::BookstorePins,
        };
        add(home, Bookstore60, cfg(width, workers), wire, &[Lib, Prepared, Replay]);
        add(home, Bookstore60, cfg(width, workers).rows(), wire, &[Lib]);
    }
    for family in 0..4 {
        for rung in 0..CHAOS_RATES.len() {
            let home = if rung == 0 { Home::RateZero } else { Home::LadderSoundness };
            add(home, Bookstore60, d, Ladder(family, rung), &[Lib]);
        }
    }
    add(Home::LatencyTimeouts, Bookstore60, d, Slow, &[Lib, Replay]);
    add(Home::SameSeed, Bookstore60, d, Seeded(0.3, 0xDECAF), &[Lib]);
    add(Home::RecordedChaos, Bookstore60, d, Seeded(0.3, 0xDECAF), &[Replay]);

    for case in 0..PAPER_CASES.len() {
        let seed = 0xC0DE + case as u64;
        for exec in [d, cfg(2, 4)] {
            for wire in [Plain, Seeded(0.0, seed), Seeded(0.2, seed)] {
                add(Home::PaperCases, Paper(case), exec, wire, &[Lib, Prepared, Replay]);
            }
        }
    }

    let (bookstore, example4) = (Example("bookstore"), Example("example4"));
    let resilient = flags(0.4, 11, 0, 3);
    let served: &[Path] = &[Daemon, Lapd];
    add(Home::ChromeTrace, bookstore, d, Plain, &[Lib, Cli]);
    add(Home::CacheHit, bookstore, d, Plain, served);
    add(Home::Examples, example4, d, Plain, &[Lib, Cli]);
    add(Home::DaemonBytes, example4, d, Plain, served);
    add(Home::Examples, bookstore, d.with_io_workers(2), resilient, &[Lib, Cli]);
    add(Home::DaemonBytes, bookstore, d.with_io_workers(2), resilient, served);
    // `lapbench`'s `serve-chaos` shape: width 64, 8 lanes, 20% faults, 20 ms.
    add(Home::DaemonBytes, bookstore, cfg(64, 8), flags(0.2, 1, 20, 3), served);
    add(Home::Examples, bookstore, cfg(1, 1), Plain, &[Lib, Cli]);
    add(Home::Examples, bookstore, cfg(64, 1), Plain, &[Lib, Cli]);
    add(Home::AnswerAlias, bookstore, d, flags(0.0, 0, 0, 0), &[Lib, Cli]);
    add(Home::RecordedRun, bookstore, d, flags(0.4, 11, 5, 3), &[Lib, Cli, Replay]);
    add(Home::OverlappedRun, bookstore, d, flags(0.4, 11, 20, 3), &[Lib, Cli]);
    add(Home::OverlappedRun, bookstore, d.with_io_workers(8), flags(0.4, 11, 20, 3), &[Lib, Cli]);
    add(Home::Examples, bookstore, cfg(64, 8), flags(0.4, 11, 5, 3), &[Lib, Cli]);
    add(Home::Examples, bookstore, d, flags(0.5, 7, 0, 3), &[Lib, Cli]);
    add(Home::TotalOutage, bookstore, d, flags(1.0, 7, 0, 3), &[Lib, Cli]);
    add(Home::Examples, Drift(40), d, Plain, &[Lib, Cli, Feedback]);

    // One grid covering every (rate, width, workers, executor) combination
    // the three former executor grids did.
    for case in 0..GENERATED_CASES {
        for width in [1, 64, 1024] {
            for rate in [0.0, 0.2] {
                for workers in [1, 4, 8, 16] {
                    let home = if workers == 1 { Home::GeneratedGrid } else { Home::Overlap };
                    add(home, Generated(case), cfg(width, workers), Grid(rate), &[Lib]);
                }
                for workers in [1, 8] {
                    let exec = cfg(width, workers).rows();
                    add(Home::RowExecutor, Generated(case), exec, Grid(rate), &[Lib]);
                }
            }
            add(Home::BatchWidthFaults, Generated(case), cfg(width, 1), Grid(0.3), &[Lib]);
        }
    }

    // Example 8's refinement, fault-free and under the recorded-run profile.
    for wire in [Plain, flags(0.4, 11, 5, 3)] {
        let paths = &[Lib, Cli, Replay];
        let row = Row { corpus: example4, exec: d, wire, domain: Some(1_000), paths };
        rows.push((Home::DomainRefinement, row));
    }
    rows
}

impl Row {
    /// A row outside [`table`]: a reference run, or one a check drives itself.
    pub fn of(corpus: Corpus, exec: ExecConfig, wire: Wire) -> Row {
        Row { corpus, exec, wire, domain: None, paths: &[] }
    }

    fn with_exec(self, exec: ExecConfig) -> Row {
        Row { exec, ..self }
    }

    /// The journal tier the row records at: the replay tier (rows
    /// captured) that replays and the byte pins read, except on the
    /// generated grid, whose rows compare journal events only.
    fn tier(&self) -> JournalConfig {
        match self.corpus {
            Corpus::Generated(_) => JournalConfig::light(),
            _ => JournalConfig::replay(),
        }
    }

    /// The row up to its paths: what its library run depends on.
    fn key(&self) -> String {
        format!("{:?} {:?} {:?} {:?}", self.corpus, self.exec, self.wire, self.domain)
    }

    /// The row as a daemon request's options (and `lapq` flags).
    fn options(&self) -> QueryOptions {
        let given = |n: u64| (n > 0).then_some(n);
        let mut options = QueryOptions {
            batch_width: (self.exec.batch_size != ExecConfig::default().batch_size)
                .then_some(self.exec.batch_size as u64),
            io_workers: (self.exec.io_workers > 1).then_some(self.exec.io_workers as u64),
            ..QueryOptions::default()
        };
        if let Wire::Flags { rate, seed, latency_ms, retry } = self.wire {
            options.fault_rate = Some(rate);
            options.fault_seed = given(seed);
            options.latency_ms = given(latency_ms);
            options.retry = given(retry);
        }
        options
    }

    /// What the row runs under. `Flags` rows go through the translation
    /// `lapq` and `lapd` use, so the library run is the one they make.
    fn config(&self) -> (ExecConfig, Option<ResilienceConfig>) {
        let pinned = |error_rate, latency_jitter_ms, timeout_ms| FaultConfig {
            error_rate,
            latency_ms: 20,
            latency_jitter_ms,
            timeout_ms,
            seed: 0xDECAF,
        };
        let three = RetryPolicy::standard().with_max_attempts(3);
        let resilience = match self.wire {
            Wire::Plain => None,
            Wire::Chaos => {
                Some(ResilienceConfig { fault: Some(pinned(0.2, 5, None)), retry: three })
            }
            Wire::Deadline => Some(ResilienceConfig {
                fault: Some(pinned(0.0, 20, Some(35))),
                retry: three.with_deadline_ms(4000),
            }),
            Wire::Ladder(family, rung) => Some(chaos_ladder(family)[rung].resilience),
            Wire::Slow => Some(slow_source(0.0, 11).resilience),
            Wire::Seeded(rate, seed) => Some(ResilienceConfig::chaos(rate, seed)),
            Wire::Flags { .. } => {
                return lap::execution_from_options(&self.options()).expect("table flags are valid")
            }
            Wire::Grid(rate) => {
                let Corpus::Generated(case) = self.corpus else { panic!("{self:?}: grid wire") };
                Some(ResilienceConfig {
                    fault: (rate > 0.0).then(|| FaultConfig::with_rate(rate, GRID_SALT ^ case)),
                    retry: RetryPolicy::standard().with_max_attempts(2),
                })
            }
        };
        (self.exec, resilience)
    }
}

// ------------------------------------------------------- corpora and runs

/// A corpus, loaded: the program, the instance, and their text for the
/// binaries where the corpus has one.
struct Instance {
    program: Program,
    db: Database,
    texts: Option<(String, String)>,
}

impl Instance {
    fn load(corpus: Corpus) -> Instance {
        let texts = match corpus {
            Corpus::Example(name) => {
                let read = |file: String| {
                    let path = format!("{}/examples/data/{file}", env!("CARGO_MANIFEST_DIR"));
                    std::fs::read_to_string(path).expect("example file")
                };
                Some((read(format!("{name}.lap")), read(format!("{name}_facts.lap"))))
            }
            Corpus::Drift(a_rows) => {
                let mut facts: String = (0..a_rows).map(|i| format!("A({i}). ")).collect();
                facts.extend((0..8).map(|i| format!("D({i}, {}). ", 100 + i)));
                Some(("A^o. D^oo. D^io.\nQ(x, y) :- A(x), D(x, y).\n".to_owned(), facts))
            }
            Corpus::Paper(case) => {
                Some((PAPER_CASES[case].0.to_owned(), PAPER_CASES[case].1.to_owned()))
            }
            Corpus::Bookstore60 | Corpus::Generated(_) => None,
        };
        let (program, db) = match (&texts, corpus) {
            (Some((program, facts)), _) => {
                (parse_program(program).unwrap(), Database::from_facts(facts).unwrap())
            }
            (None, Corpus::Generated(case)) => generated(case),
            (None, _) => crate::common::bookstore60(),
        };
        Instance { program, db, texts }
    }
}

/// A generated schema, UCQ¬ and instance: free scans dominate, two to four
/// disjuncts, every other case with a negated literal per disjunct.
fn generated(case: u64) -> (Program, Database) {
    let mut rng = StdRng::seed_from_u64(GRID_SALT.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case);
    let schema_cfg = SchemaConfig { free_scan_fraction: 0.8, ..SchemaConfig::default() };
    let schema = gen_schema(&schema_cfg, &mut rng);
    let query_cfg = QueryConfig {
        num_disjuncts: 2 + (case % 3) as usize,
        negative_per_disjunct: (case % 2) as usize,
        ..QueryConfig::default()
    };
    let query = gen_query(&schema, &query_cfg, &mut rng);
    let db = gen_instance(&schema, &InstanceConfig::default(), &mut rng);
    (Program { schema, queries: vec![query] }, db)
}

/// One in-process run: the outcome and its journal.
pub struct Run {
    pub outcome: AnswerOutcome,
    journal: JournalSnapshot,
}

fn lib_run(inst: &Instance, row: &Row, tier: JournalConfig) -> Result<Run, EngineError> {
    let (exec, resilience) = row.config();
    let recorder = Recorder::with_journal(tier);
    let (resilience, domain) = (resilience.as_ref(), row.domain);
    let opts = AnswerOptions { exec, resilience, domain, ..AnswerOptions::new(&recorder) };
    let query = inst.program.single_query().unwrap();
    let outcome = answer_star_opts(query, &inst.program.schema, &inst.db, &opts)?;
    Ok(Run { outcome, journal: recorder.journal().unwrap().snapshot() })
}

/// Instances and runs shared by the rows of one test.
#[derive(Default)]
pub struct Lab {
    instances: HashMap<Corpus, Rc<Instance>>,
    runs: HashMap<String, Rc<Run>>,
    plain: HashMap<Corpus, Option<Rc<Run>>>,
}

impl Lab {
    fn instance(&mut self, corpus: Corpus) -> Rc<Instance> {
        Rc::clone(self.instances.entry(corpus).or_insert_with(|| Rc::new(Instance::load(corpus))))
    }

    /// The row's `answer_star_opts` run, journal included.
    pub fn run(&mut self, row: &Row) -> Rc<Run> {
        if let Some(run) = self.runs.get(&row.key()) {
            return Rc::clone(run);
        }
        let inst = self.instance(row.corpus);
        let run = lib_run(&inst, row, row.tier()).unwrap_or_else(|e| panic!("{row:?}: {e}"));
        self.remember(row, run)
    }

    fn remember(&mut self, row: &Row, run: Run) -> Rc<Run> {
        let run = Rc::new(run);
        self.runs.insert(row.key(), Rc::clone(&run));
        run
    }

    /// The corpus's plain run (default executor, no faults), checked once
    /// against the tuple recursion and the unrestricted oracle. `None` when
    /// its plans cannot run on the instance, which only a generated case
    /// may do; its rows are then skipped.
    fn plain(&mut self, corpus: Corpus) -> Option<Rc<Run>> {
        if let Some(plain) = self.plain.get(&corpus) {
            return plain.clone();
        }
        let row = Row::of(corpus, ExecConfig::default(), Wire::Plain);
        let inst = self.instance(corpus);
        let plain = match lib_run(&inst, &row, row.tier()) {
            Ok(run) => {
                check_sandwich(&inst, &run.outcome.report, &row);
                Some(self.remember(&row, run))
            }
            Err(e) => {
                assert!(matches!(corpus, Corpus::Generated(_)), "{corpus:?}: {e}");
                None
            }
        };
        self.plain.insert(corpus, plain.clone());
        plain
    }
}

/// Tuple oracle = executors, and `ansᵤ ⊆ Q(D) ⊆ ansₒ` on a fault-free run.
fn check_sandwich(inst: &Instance, report: &AnswerReport, row: &Row) {
    let schema = &inst.program.schema;
    for (plan, rows) in [(&report.plans.under, &report.under), (&report.plans.over, &report.over)] {
        let mut reg = SourceRegistry::new(&inst.db, schema);
        let tuple = eval_ordered_union_tuple(&plan.eval_parts(), &mut reg);
        assert_eq!(tuple.as_ref(), Ok(rows), "{row:?}: tuple recursion disagrees");
    }
    if let Ok(oracle) = eval_oracle(inst.program.single_query().unwrap(), &inst.db) {
        assert!(report.under.is_subset(&oracle), "{row:?}: ansᵤ invents answers");
        if !report.over.iter().flatten().any(|v| v.is_null()) {
            assert!(oracle.is_subset(&report.over), "{row:?}: ansₒ misses answers");
        }
    }
}

// -------------------------------------------------------------- contracts

/// What the rows of one test showed, for the sanity checks that make sure
/// the fault injection under them is alive.
#[derive(Default)]
pub struct Tally {
    pub rows: usize,
    pub skipped: usize,
    pub degraded: usize,
    pub faulted: usize,
}

/// An in-process daemon on an ephemeral port, and a client of it.
fn serve() -> (Server, Client) {
    let server = Server::start(DaemonConfig::default(), "127.0.0.1:0").expect("ephemeral bind");
    let client = Client::connect(server.addr()).expect("connect");
    (server, client)
}

/// Checks every row `home` owns on its in-process and one-shot paths
/// (`Lapd` is [`check_lapd`]'s job). `Daemon` rows share one in-process
/// daemon, whose plan cache must then have compiled each program once.
pub fn check_rows(lab: &mut Lab, home: Home) -> Tally {
    let scratch = Scratch::new();
    let rows: Vec<_> = table().into_iter().enumerate().filter(|(_, row)| row.0 == home).collect();
    assert!(!rows.is_empty(), "{home:?} owns no row");
    let mut daemon: Option<(Server, Client)> = None;
    let mut served = Vec::new();

    let mut tally = Tally::default();
    for (id, (_, row)) in &rows {
        tally.rows += 1;
        if lab.plain(row.corpus).is_none() {
            tally.skipped += 1;
            continue;
        }
        for path in row.paths {
            match path {
                Path::Lib => check_lib(lab, row),
                Path::Prepared => check_prepared(lab, row),
                Path::Replay => check_replay(lab, row),
                Path::Cli => check_cli(lab, row, &scratch.row(*id)),
                Path::Daemon => {
                    let (_, client) = daemon.get_or_insert_with(serve);
                    check_daemon(lab, row, client);
                    served.push(row.corpus);
                }
                Path::Feedback => check_feedback(lab, row, &scratch.row(*id)),
                Path::Lapd => {}
            }
        }
        let outcome = &lab.run(row).outcome;
        tally.degraded += usize::from(outcome.degradation.is_degraded());
        tally.faulted += usize::from(outcome.failures > 0);
    }
    assert!(
        tally.skipped * 2 < tally.rows,
        "{home:?}: {} of {} rows unrunnable: generator drifted",
        tally.skipped,
        tally.rows
    );

    if let Some((server, client)) = daemon {
        drop(client);
        // Three requests per daemon row; each program compiled once.
        let programs: HashSet<&Corpus> = served.iter().collect();
        let metrics = server.metrics();
        assert_eq!(metrics.counter("plan_cache.miss"), programs.len() as u64, "{home:?}");
        assert_eq!(
            metrics.counter("plan_cache.hit"),
            3 * served.len() as u64 - programs.len() as u64,
            "{home:?}"
        );
        server.shutdown();
    }
    tally
}

fn check_lib(lab: &mut Lab, row: &Row) {
    let run = lab.run(row);
    let inst = lab.instance(row.corpus);
    let (exec, resilience) = row.config();
    let out = &run.outcome;

    // A row with a twin is compared against an independent run of it
    // below; any other row runs twice.
    if exec.columnar && exec.io_workers == 1 {
        let again = lib_run(&inst, row, row.tier()).unwrap();
        assert_eq!(again.outcome, *out, "{row:?}: a second run differs");
        assert!(again.journal == run.journal, "{row:?}: a second journal differs");
    }

    if !exec.columnar {
        let columnar = lab.run(&row.with_exec(ExecConfig { columnar: true, ..exec }));
        assert_eq!(
            *out,
            row_counters(&columnar.outcome),
            "{row:?}: row and columnar outcomes differ"
        );
        assert_eq!(
            normalized(&run.journal),
            normalized(&columnar.journal),
            "{row:?}: row and columnar executors journal different events"
        );
    }

    let fault = resilience.and_then(|r| r.fault);
    if exec.io_workers > 1 {
        let serial = lab.run(&row.with_exec(exec.with_io_workers(1)));
        let unclocked = |o: &AnswerOutcome| AnswerOutcome { virtual_ms: 0, ..o.clone() };
        assert_eq!(unclocked(out), unclocked(&serial.outcome), "{row:?}: overlap changed the run");
        assert!(
            out.virtual_ms <= serial.outcome.virtual_ms,
            "{row:?}: overlap lengthened the clock"
        );
        if fault.is_some_and(|f| f.latency_ms > 0) {
            assert!(out.virtual_ms < serial.outcome.virtual_ms, "{row:?}: overlap hid no latency");
        }
    }

    let plain = lab.plain(row.corpus).expect("checked by the caller");
    let (got, want) = (&out.report, &plain.outcome.report);
    if out.degradation.is_degraded() {
        assert!(got.under.is_subset(&want.under), "{row:?}: degraded ansᵤ invents answers");
        assert_ne!(got.completeness, Completeness::Complete, "{row:?}: degraded yet complete");
        assert!(out.failures >= out.degradation.total() as u64, "{row:?}: drops without failures");
    } else {
        let sets = |r: &AnswerReport| (r.under.clone(), r.over.clone(), r.delta.clone());
        assert_eq!(sets(got), sets(want), "{row:?}: nothing dropped, yet answers moved");
        assert_eq!(got.completeness, want.completeness, "{row:?}");
    }
    if fault.is_none_or(|f| f.error_rate == 0.0 && f.timeout_ms.is_none()) {
        assert_eq!((out.retries, out.failures), (0, 0), "{row:?}: a fault-free wire failed");
    }
    if let Some(res) = resilience.filter(|r| r.fault.is_some_and(|f| f.error_rate >= 1.0)) {
        assert!(out.degradation.is_degraded(), "{row:?}: every call failed, nothing degraded");
        let mut drops = out.degradation.under.iter().chain(&out.degradation.over);
        assert!(drops.all(|d| d.attempts == res.retry.max_attempts), "{row:?}: gave up early");
    }
    assert_eq!(out.refinement.is_some(), row.domain.is_some(), "{row:?}: refinement");
    if let Some(refinement) = &out.refinement {
        assert!(got.under.is_subset(&refinement.under), "{row:?}: refinement lost ansᵤ");
        let oracle = eval_oracle(inst.program.single_query().unwrap(), &inst.db).unwrap();
        assert!(refinement.under.is_subset(&oracle), "{row:?}: refinement invents answers");
        if fault.is_none() {
            assert!(refinement.fixpoint, "{row:?}: a fault-free enumeration was cut short");
        }
    }
}

/// `PreparedQuery` and the one-shot presets are `answer_star_opts` under
/// other names: same outcome, same journal events.
fn check_prepared(lab: &mut Lab, row: &Row) {
    let run = lab.run(row);
    let inst = lab.instance(row.corpus);
    let (exec, resilience) = row.config();
    let (query, schema, db) =
        (inst.program.single_query().unwrap(), &inst.program.schema, &inst.db);
    let engine = ContainmentEngine::default();
    let opts = CompileOptions { recorder: engine.recorder(), feasibility: Some(&engine) };
    let prepared = PreparedQuery::compile(query, schema, &opts);
    let lift = |report| AnswerOutcome {
        report,
        degradation: Default::default(),
        profile: run.outcome.profile.clone(),
        retries: 0,
        failures: 0,
        virtual_ms: 0,
        refinement: None,
    };
    for name in ["one-shot preset", "PreparedQuery"] {
        let recorder = Recorder::with_journal(row.tier());
        let outcome = match (name, resilience.as_ref()) {
            ("PreparedQuery", None) => prepared.execute_obs_cfg(db, &recorder, exec).map(lift),
            ("PreparedQuery", Some(res)) => {
                prepared.execute_resilient_obs_cfg(db, &recorder, res, exec)
            }
            (_, None) => answer_star_obs_cfg(query, schema, db, &recorder, exec).map(lift),
            (_, Some(res)) => answer_star_resilient_cfg(query, schema, db, &recorder, res, exec),
        }
        .unwrap();
        assert_eq!(outcome, run.outcome, "{name}: {row:?}");
        assert_eq!(
            recorder.journal().unwrap().snapshot().events,
            run.journal.events,
            "{name}: {row:?}"
        );
    }
    if resilience.is_none() && exec == ExecConfig::default() {
        let report = &run.outcome.report;
        assert_eq!(&answer_star(query, schema, db).unwrap(), report, "{row:?}");
        assert_eq!(&prepared.execute(db).unwrap(), report, "{row:?}");
        let feasible = prepared.feasibility().is_some_and(|r| r.feasible);
        let exact = feasible && !report.plans.over.has_null();
        let best = if exact { &report.over } else { &report.under };
        assert_eq!(&prepared.execute_best(db).unwrap(), best, "{row:?}");
        let quiet = Recorder::disabled();
        let refining = AnswerOptions { domain: Some(1_000), ..AnswerOptions::new(&quiet) };
        let refined = answer_star_opts(query, schema, db, &refining).unwrap();
        assert_eq!(&refined.report, report, "{row:?}: the refinement moved the report");
    }
}

/// The journal survives export and import, and replays the outcome bit
/// for bit without the database or the fault injector.
fn check_replay(lab: &mut Lab, row: &Row) {
    let run = lab.run(row);
    let inst = lab.instance(row.corpus);
    let (exec, resilience) = row.config();
    let text = run.journal.to_json().to_pretty();
    let snap = JournalSnapshot::from_json(&lap::obs::json::parse(&text).unwrap()).unwrap();
    assert_eq!(snap, run.journal, "{row:?}: the journal does not round-trip");
    snap.validate().unwrap_or_else(|e| panic!("{row:?}: {e}"));
    let source = ReplaySource::from_journal(&snap).unwrap();
    let retry = resilience.map_or_else(RetryPolicy::default, |r| r.retry);
    let retry_only = ResilienceConfig { fault: None, retry };
    let quiet = Recorder::disabled();
    let opts = AnswerOptions {
        exec,
        resilience: Some(&retry_only),
        domain: row.domain,
        ..AnswerOptions::new(&quiet)
    };
    let query = inst.program.single_query().unwrap();
    let replayed = answer_star_opts(query, &inst.program.schema, source.clone(), &opts).unwrap();
    assert_eq!(replayed, run.outcome, "{row:?}: replay differs");
    let unconsumed = (source.mismatches(), source.out_of_order(), source.remaining());
    assert_eq!(unconsumed, (0, 0, 0), "{row:?}: replay strayed from the recording");
}

/// What `lapq run` prints for the row, and `lapd` answers: the library run
/// through the shared renderer.
fn one_shot_text(lab: &mut Lab, row: &Row) -> String {
    let run = lab.run(row);
    let signature = lab.instance(row.corpus).program.single_query().unwrap().signature.0;
    let body = match row.config().1 {
        Some(_) => render_outcome(&run.outcome),
        None => {
            let report = render_answer_report(&run.outcome.report);
            format!("{report}{}\n", render_refinement(&run.outcome))
        }
    };
    format!("query {signature}:\n{body}")
}

fn check_cli(lab: &mut Lab, row: &Row, files: &RowFiles) {
    let expected = one_shot_text(lab, row);
    let (program, facts) = files.write(&lab.instance(row.corpus));
    let (journal, trace, metrics) =
        (files.path("journal.json"), files.path("trace.json"), files.path("metrics.json"));
    let exports =
        ["--trace", "--metrics-json", &metrics, "--journal", &journal, "--chrome-trace", &trace];
    let text = lapq(with_flags(&[&["run", &program, &facts][..], &exports].concat(), row));
    assert_eq!(text, expected, "{row:?}: lapq run differs from the library run");
    let again = lapq(with_flags(&["answer", &program, &facts], row));
    assert_eq!(again, text, "{row:?}: a second run (answer alias, no exports) differs");

    for (file, shape) in
        [(&journal, "(journal,"), (&trace, "(chrome trace,"), (&metrics, "counter(s)")]
    {
        let validated = lapq(["obs-validate", file]);
        assert!(validated.contains(shape), "{row:?}: {validated}");
    }
    // The stats lines; a refinement line's `(N calls, …` does not parse.
    let reported = text
        .lines()
        .filter_map(|line| line.strip_prefix("  -- ")?.split_once(" calls, "))
        .filter_map(|(calls, _)| calls.parse::<u64>().ok())
        .sum();
    let calls = counter(&metrics, "source.calls").unwrap();
    match &lab.run(row).outcome.refinement {
        None => assert_eq!(calls, reported, "{row:?}: source.calls differs from the stats lines"),
        // Enumeration, then the re-admitted disjuncts' own calls.
        Some(refinement) => assert!(
            calls >= reported + refinement.calls,
            "{row:?}: source.calls {calls} misses the enumeration's {} calls",
            refinement.calls
        ),
    }
    assert!(lapq(["report", &journal]).contains("sources:"), "{row:?}");
    assert_eq!(lapq(["replay", &journal]), text, "{row:?}: lapq replay differs from the run");
    check_cli_profile(lab, row, files, &text, reported);
}

/// `lapq profile` is `lapq run` plus the library run's operator tables:
/// it takes run's flags, prints run's block first, counts run's calls and
/// probes, and records a journal `lapq replay` reproduces.
fn check_cli_profile(lab: &mut Lab, row: &Row, files: &RowFiles, text: &str, reported: u64) {
    let run = lab.run(row);
    let (program, facts) = files.write(&lab.instance(row.corpus));
    let journal = files.path("profile.journal.json");
    let metrics = files.path("profile.metrics.json");
    let exports = ["--journal", &journal, "--metrics-json", &metrics];
    let profiled = lapq(with_flags(&[&["profile", &program, &facts][..], &exports].concat(), row));
    let tables = profiled
        .strip_prefix(text)
        .unwrap_or_else(|| panic!("{row:?}: lapq profile does not start with run's block"));
    let physical = lower_pair(&run.outcome.report.plans, &lab.instance(row.corpus).program.schema);
    let table = |union, ops| op_table(union, &CostModel::new(), None, Some(ops));
    let under = table(&physical.under, &run.outcome.profile.under);
    let over = table(&physical.over, &run.outcome.profile.over);
    let expected = format!("Qu operators:\n{under}\nQo operators:\n{over}\n");
    assert_eq!(tables, expected, "{row:?}: lapq profile's tables differ from the library run");
    if !run.outcome.degradation.is_degraded() {
        // …, invoked, batches, calls, rows, out, fill%, dict%, then a
        // blown-estimate mark on some rows.
        let (mut calls, mut probes) = (0, 0);
        let unmarked = tables.lines().map(|line| line.split(" ←").next().unwrap());
        for cells in unmarked.map(|line| line.split_whitespace().collect::<Vec<_>>()) {
            let count = || cells[cells.len() - 5].parse::<u64>().unwrap();
            match cells.first() {
                Some(&"Access" | &"BindJoin") => calls += count(),
                Some(&"NegFilter") => probes += count(),
                _ => {}
            }
        }
        assert_eq!(calls, reported, "{row:?}: the tables' calls differ from the stats lines");
        let membership = counter(&metrics, "source.membership").unwrap();
        match row.domain {
            None => assert_eq!(probes, membership, "{row:?}: the NegFilter calls are not the probes"),
            // A refinement probes outside both tables.
            Some(_) => assert!(membership >= probes, "{row:?}: fewer probes than NegFilter calls"),
        }
    }
    assert_eq!(lapq(["replay", &journal]), text, "{row:?}: lapq profile's journal");
}

/// A counter of an exported metrics snapshot.
fn counter(metrics: &str, name: &str) -> Option<u64> {
    let snapshot = lap::obs::json::parse(&std::fs::read_to_string(metrics).unwrap()).unwrap();
    snapshot.get("counters")?.get(name)?.as_u64()
}

/// The daemon answers the one-shot text on a miss, on a hit, and for a
/// whitespace variant of the program (same cache entry).
fn check_daemon(lab: &mut Lab, row: &Row, client: &mut Client) {
    let expected = one_shot_text(lab, row);
    let inst = lab.instance(row.corpus);
    let (program, facts) = inst.texts.as_ref().expect("a text corpus");
    let spaced = format!("  {}  ", program.replace('\n', "\n\n"));
    for (request, program) in [program, program, &spaced].into_iter().enumerate() {
        match client.query(program, facts, row.options()).expect("query frame round-trips") {
            Response::Ok { text, data, .. } => {
                assert_eq!(text, expected, "{row:?}: request {request} differs from one-shot");
                if request > 0 {
                    assert_eq!(
                        data.get("cache_hit"),
                        Some(&Json::Bool(true)),
                        "{row:?}: {request}"
                    );
                }
            }
            Response::Error { code, message, .. } => {
                panic!("{row:?}: daemon error ({code}): {message}")
            }
        }
    }
}

/// Record, calibrate, re-run: the calibrated plan moves the call schedule
/// and nothing else, a frozen profile replays bit for bit, and so does the
/// calibrated run's journal, which records the body order it ran.
fn check_feedback(lab: &mut Lab, row: &Row, files: &RowFiles) {
    let expected = one_shot_text(lab, row);
    let (program, facts) = files.write(&lab.instance(row.corpus));
    let (journal, profile) = (files.path("journal.json"), files.path("profile.json"));
    assert_eq!(lapq(["run", &program, &facts, "--journal", &journal]), expected, "{row:?}");
    lapq(["calibrate", &journal, "--out", &profile]);
    assert!(lapq(["obs-validate", &profile]).contains("(feedback profile,"), "{row:?}");
    let planned = files.path("planned.journal.json");
    let calibrated = lapq(["run", &program, &facts, "--feedback", &profile, "--journal", &planned]);
    assert_eq!(lapq(["run", &program, &facts, "--feedback", &profile]), calibrated, "{row:?}");
    assert_ne!(calibrated, expected, "{row:?}: calibration did not move the call schedule");
    assert_eq!(answers(&calibrated), answers(&expected), "{row:?}: calibration moved the answers");
    assert_eq!(lapq(["replay", &planned]), calibrated, "{row:?}: a --feedback run's replay");
    // A planned run's journal without its body orders is refused by name.
    let text = std::fs::read_to_string(&planned).unwrap();
    let mut snap = JournalSnapshot::from_json(&lap::obs::json::parse(&text).unwrap()).unwrap();
    if let Json::Obj(meta) = &mut snap.meta {
        meta.retain(|(key, _)| key != "order");
    }
    let unordered = files.path("unordered.journal.json");
    std::fs::write(&unordered, snap.to_json().to_pretty()).unwrap();
    let refused = Command::new(env!("CARGO_BIN_EXE_lapq")).args(["replay", &unordered]).output();
    let err = String::from_utf8(refused.expect("lapq runs").stderr).unwrap();
    assert!(err.contains("journal has no \"order\" metadata to replay"), "{err}");
    let explained = lapq(["explain", &program, "--feedback", &profile]);
    assert!(explained.contains("est calls  est tuples  cal calls  cal tuples"), "{row:?}");
}

/// A one-shot text without its call-statistics lines.
fn answers(text: &str) -> Vec<&str> {
    text.lines().filter(|line| !line.contains(" calls, ")).collect()
}

/// An outcome as the row executor reports it: every operator counter but
/// the selection-vector and dictionary ones, which only the columnar
/// executor fills.
fn row_counters(outcome: &AnswerOutcome) -> AnswerOutcome {
    let mut outcome = outcome.clone();
    let profile = &mut outcome.profile;
    for part in profile.under.parts.iter_mut().chain(&mut profile.over.parts) {
        for op in &mut part.ops {
            (op.rows_dead, op.dict_hits, op.dict_misses) = (0, 0, 0);
        }
    }
    outcome
}

/// A journal as the row and columnar executors must agree on it: without
/// the `columnar` meta key, and with `rows_out` zeroed on a batch aborted
/// mid-probe (`ok: false`) — the row path counts survivors emitted before
/// the failing call, the vectorized path aborts before compaction and
/// reports 0; both discard the partial output.
fn normalized(journal: &JournalSnapshot) -> JournalSnapshot {
    let mut journal = journal.clone();
    if let Json::Obj(meta) = &mut journal.meta {
        meta.retain(|(key, _)| key != "columnar");
    }
    let (names, events) = journal.decode().expect("a journal this program wrote decodes");
    for (file, stamped) in journal.events.iter_mut().zip(events) {
        if let Event::BatchEnd { label, ok: false, .. } = stamped.event {
            file.data = Event::BatchEnd { label, rows_out: 0, ok: false }.encode(&names).1;
        }
    }
    journal
}

/// FNV-1a-64: a digest that is a pure function of the bytes, with no
/// dependency to drift between versions.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

// ----------------------------------------------------------- the binaries

/// Runs `lapq` from the repository root; asserts it succeeded and returns
/// its stdout.
fn lapq<S: AsRef<OsStr>>(args: impl IntoIterator<Item = S>) -> String {
    let args: Vec<_> = args.into_iter().map(|a| a.as_ref().to_owned()).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_lapq"))
        .args(&args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("lapq runs");
    assert!(out.status.success(), "lapq {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("lapq output is utf-8")
}

/// `lapq` arguments: `head`, then `lapq`'s spelling of the row's options.
fn with_flags(head: &[&str], row: &Row) -> Vec<String> {
    let options = row.options();
    let mut args: Vec<String> = head.iter().map(|arg| arg.to_string()).collect();
    let mut flag = |name: &str, value: Option<String>| {
        if let Some(value) = value {
            args.extend([name.to_owned(), value]);
        }
    };
    flag("--batch-width", options.batch_width.map(|n| n.to_string()));
    flag("--io-workers", options.io_workers.map(|n| n.to_string()));
    flag("--fault-rate", options.fault_rate.map(|r| r.to_string()));
    flag("--fault-seed", options.fault_seed.map(|n| n.to_string()));
    flag("--latency-ms", options.latency_ms.map(|n| n.to_string()));
    flag("--retry", options.retry.map(|n| n.to_string()));
    flag("--domain", row.domain.map(|n| n.to_string()));
    args
}

/// A per-test directory for the files the binaries read and write.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Scratch {
        let thread = std::thread::current();
        let test = thread.name().unwrap_or("test").replace("::", "-");
        let dir = std::env::temp_dir().join(format!("lap-contracts-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn row(&self, id: usize) -> RowFiles {
        RowFiles(self.0.join(format!("row{id}")))
    }

    pub fn file(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One row's files: `<scratch>/row<id>.<name>`.
struct RowFiles(PathBuf);

impl RowFiles {
    fn path(&self, name: &str) -> String {
        format!("{}.{name}", self.0.display())
    }

    /// Writes the corpus's program and facts for the binaries.
    fn write(&self, inst: &Instance) -> (String, String) {
        let (program, facts) = inst.texts.as_ref().expect("a text corpus");
        let paths = (self.path("lap"), self.path("facts.lap"));
        std::fs::write(&paths.0, program).unwrap();
        std::fs::write(&paths.1, facts).unwrap();
        paths
    }
}

/// A `lapd` process on an ephemeral port, killed if a check fails first.
struct Lapd {
    child: Child,
    addr: String,
}

impl Lapd {
    /// Watcher off: drift stays pending until a forced sweep, so `health`
    /// shows it deterministically.
    fn spawn() -> Lapd {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lapd"))
            .args(["--bind", "127.0.0.1:0", "--watch-interval-ms", "0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("lapd starts");
        let mut line = String::new();
        BufReader::new(child.stdout.as_mut().unwrap()).read_line(&mut line).unwrap();
        let addr = line.trim().strip_prefix("lapd listening on ").expect("listen line").to_owned();
        Lapd { child, addr }
    }

    /// `daemon-ctl shutdown`, then the process exits on its own.
    fn shut_down(mut self) {
        lapq(["daemon-ctl", &self.addr, "shutdown"]);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while self.child.try_wait().unwrap().is_none() {
            assert!(std::time::Instant::now() < deadline, "lapd did not exit after shutdown");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let mut rest = String::new();
        self.child.stdout.take().unwrap().read_to_string(&mut rest).unwrap();
        assert!(rest.contains("lapd: shut down"), "{rest}");
    }
}

impl Drop for Lapd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ------------------------------------------------- beyond a home's rows

/// The 24 [`PINNED`] digests, each from its own run of the 60-book
/// bookstore.
pub fn check_pins() {
    let mut lab = Lab::default();
    let inst = lab.instance(Corpus::Bookstore60);
    let mut actual = String::new();
    let mut moved = 0;
    for &(replay_tier, wire, workers, width, pinned_journal, pinned_outcome) in PINNED {
        let exec = ExecConfig::with_batch_size(width).with_io_workers(workers);
        let row = Row::of(Corpus::Bookstore60, exec, wire);
        let run = lab.run(&row);
        let journal = match replay_tier {
            true => run.journal.to_json().to_compact(),
            false => {
                lib_run(&inst, &row, JournalConfig::light()).unwrap().journal.to_json().to_compact()
            }
        };
        let now = (fnv1a64(journal.as_bytes()), fnv1a64(render_outcome(&run.outcome).as_bytes()));
        moved += usize::from(now != (pinned_journal, pinned_outcome));
        actual.push_str(&format!(
            "        ({}, {wire:?}, {workers}, {width}, {:#018x}, {:#018x}),\n",
            if replay_tier { "R" } else { "L" },
            now.0,
            now.1,
        ));
    }
    assert_eq!(PINNED.len(), 24, "2 tiers x 3 wires x 2 worker counts x 2 widths");
    assert_eq!(moved, 0, "{moved} pinned run(s) moved; the table now reads:\n{actual}");
}

/// The `lapd` binary: every `Lapd` row (a miss, then a hit), the operator
/// console, and the telemetry loop — drift shows in `health`, a forced
/// sweep heals it, and the daemon then answers exactly what a one-shot
/// `lapq run --feedback` answers from the daemon's own live profile.
pub fn check_lapd() {
    let mut lab = Lab::default();
    let scratch = Scratch::new();
    let lapd = Lapd::spawn();
    let addr = lapd.addr.clone();
    let bookstore = Row::of(Corpus::Example("bookstore"), ExecConfig::default(), Wire::Plain);
    let query_daemon = |files: &RowFiles, inst: &Instance, row: &Row| {
        let (program, facts) = files.write(inst);
        lapq(with_flags(&["query-daemon", &program, &facts, "--addr", &addr], row))
    };
    let table = table();
    for (id, (_, row)) in
        table.iter().enumerate().filter(|(_, (_, r))| r.paths.contains(&Path::Lapd))
    {
        let expected = one_shot_text(&mut lab, row);
        for request in ["miss", "hit"] {
            let got = query_daemon(&scratch.row(id), &lab.instance(row.corpus), row);
            assert_eq!(got, expected, "{row:?}: {request}");
        }
    }
    let stats = lapq(["daemon-ctl", &addr, "stats"]);
    for line in ["plan cache:", "entry:", "telemetry:", "latency: gate wait"] {
        assert!(stats.contains(line), "{stats}");
    }

    // The baselines freeze at 4 rows of A; then A is 100 times larger.
    let drift = RowFiles(scratch.0.join("drift"));
    for a_rows in [4, 400] {
        let corpus = Corpus::Drift(a_rows);
        query_daemon(
            &drift,
            &Instance::load(corpus),
            &Row::of(corpus, ExecConfig::default(), Wire::Plain),
        );
    }
    let health = lapq(["daemon-ctl", &addr, "health"]);
    assert!(health.lines().any(|l| l.starts_with("A: ") && l.contains("drifting")), "{health}");
    assert!(health.lines().any(|l| l.starts_with("drift: A")), "{health}");
    let profile = drift.path("profile.json");
    std::fs::write(&profile, lapq(["daemon-ctl", &addr, "profile"])).unwrap();
    assert!(lapq(["obs-validate", &profile]).contains("(feedback profile,"));
    assert!(lapq(["daemon-ctl", &addr, "recalibrate"]).starts_with("sweep: "));
    let healed = lapq(["daemon-ctl", &addr, "health"]);
    assert!(!healed.contains("drifting"), "{healed}");

    let files = RowFiles(scratch.0.join("bookstore"));
    let inst = lab.instance(bookstore.corpus);
    let served = query_daemon(&files, &inst, &bookstore);
    let (program, facts) = files.write(&inst);
    let calibrated = lapq(["run", &program, &facts, "--feedback", &profile]);
    assert_eq!(served, calibrated, "the post-sweep daemon differs from --feedback");
    assert_eq!(answers(&calibrated), answers(&one_shot_text(&mut lab, &bookstore)));
    assert!(lapq(["daemon-ctl", &addr, "stats"]).contains("recalibrations"));
    lapd.shut_down();
}
