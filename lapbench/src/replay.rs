//! The traced replay: a slice of the workload's stream, single-threaded and
//! in-process, calling the same public functions in the order
//! `Service::run_query` and the session loop do, each call inside a span.
//! The same slice runs once more with the tracer off; the ratio of the two
//! totals is the tracing overhead.

use crate::oracle::{exec_config, resilience};
use crate::serve::Oracle;
use crate::stats::{median, typical, BLOCK};
use crate::trace::{self_times_ns, Span, Tracer};
use crate::workload::{Kind, Req, Workload};
use lap::containment::{ContainmentEngine, EngineConfig};
use lap::core::{
    canonical_text, feasible_detailed_with, lower_pair, plan_star, render_answer_report,
    render_outcome, DecisionPath, PlanCache, PreparedProgram,
};
use lap::engine::Database;
use lap::ir::parse_program;
use lap::obs::journal::kind;
use lap::obs::{FeedbackStore, FoldCursor, JournalConfig, Json, Recorder};
use lap::proto::{read_frame, write_frame, Request, Response, MAX_FRAME_BYTES};
use std::collections::BTreeMap;
use std::time::Instant;

/// Requests per replay pass, in which traced and untraced blocks of one
/// stream period ([`BLOCK`]) alternate. Multiples of that period, sized
/// so that both passes fit the run's time budget at the baseline's cost per
/// request.
fn pass_len(kind: Kind) -> u64 {
    match kind {
        Kind::ServeHit | Kind::ServeMiss => 96,
        Kind::ServeChaos => 48,
        Kind::OneshotWide => 32,
    }
}

/// Requests whose execution is timed with and without the journal for
/// `obs.record_overhead_us`.
const OVERHEAD_REQUESTS: u64 = 16;

pub struct Replay {
    pub spans: Vec<Span>,
    /// Per-layer metrics by name (the replay's share of them).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sum of the stage self times per request, in microseconds.
    pub stage_sum_us: f64,
    /// Requests of the two passes, each compared to the oracle.
    pub attempted: u64,
    pub failed: u64,
}

/// Counts the replay gathers next to the spans.
#[derive(Default)]
struct Tally {
    req_bytes: u64,
    resp_bytes: u64,
    tuples: u64,
    compiles: u64,
    queries_compiled: u64,
    paths: [u64; 3],
    answers: u64,
    events: u64,
    batches: u64,
    batch_rows: u64,
    batch_capacity: u64,
    failed: u64,
}

/// The in-process stand-in for the daemon's `Service` plus one session.
struct Session {
    cache: PlanCache<PreparedProgram>,
    engine: ContainmentEngine,
    /// Sees the same programs as `engine`, so its memo evolves the same
    /// way; used for the compile breakdown, which must not warm `engine`.
    shadow_engine: ContainmentEngine,
    recorder: Recorder,
    store: FeedbackStore,
    cursor: FoldCursor,
    serves: bool,
}

impl Session {
    fn new(w: &Workload) -> Session {
        let engine_cfg = EngineConfig {
            parallel: false,
            cache: true,
        };
        Session {
            cache: PlanCache::new(w.cache_bytes()),
            engine: ContainmentEngine::new(engine_cfg),
            shadow_engine: ContainmentEngine::new(engine_cfg),
            // `lapq run` without flags runs under the disabled recorder; a
            // metrics-only one costs the same atomics and keeps the counts.
            recorder: if w.kind.serves() {
                Recorder::with_journal(JournalConfig::light())
            } else {
                Recorder::new()
            },
            store: FeedbackStore::new(),
            cursor: FoldCursor::new(),
            serves: w.kind.serves(),
        }
    }

    /// One request, start to finish, as the client and the session see it.
    /// Returns the response text the client decoded.
    fn request(
        &mut self,
        t: &mut Tracer,
        i: u64,
        req: &Req<'_>,
        fold: bool,
        tally: &mut Tally,
    ) -> String {
        t.begin_request(i);
        if !self.serves {
            return t.scope("request", |t| self.one_shot(t, req, tally));
        }
        t.scope("request", |t| {
            let req_frame = t.scope("proto.req_encode", |_| {
                let request = Request::Query {
                    id: i + 1,
                    program: req.program.to_string(),
                    facts: req.facts.to_owned(),
                    options: req.options.clone(),
                };
                let mut frame = Vec::new();
                write_frame(&mut frame, &request.to_json()).expect("in-memory write");
                frame
            });
            let request = t.scope("proto.req_decode", |_| {
                let doc =
                    read_frame(&mut req_frame.as_slice(), MAX_FRAME_BYTES).expect("own frame");
                Request::from_json(&doc).expect("own request")
            });
            let Request::Query {
                id,
                program,
                facts,
                options,
            } = request
            else {
                unreachable!("a query was encoded")
            };
            let exec = exec_config(&options);
            let resilience = resilience(&options);
            let (prepared, hit) = t.scope("core.cache_lookup", |t| {
                let key = canonical_text(&program);
                self.cache
                    .get_or_compile(&key, PreparedProgram::estimated_bytes, || {
                        t.scope("core.compile", |_| {
                            PreparedProgram::compile_with(&program, &self.engine)
                        })
                    })
                    .expect("generated program compiles")
            });
            if !hit {
                tally.compiles += 1;
                for q in prepared.queries() {
                    tally.queries_compiled += 1;
                    tally.paths[match q.decision_path() {
                        DecisionPath::PlansCoincide => 0,
                        DecisionPath::OverestimateHasNull => 1,
                        DecisionPath::ContainmentCheck => 2,
                    }] += 1;
                }
            }
            let db = t.scope("engine.from_facts", |_| {
                Database::from_facts(&facts).expect("generated facts")
            });
            tally.tuples += db.total_tuples() as u64;
            let mut text = String::new();
            for prep in prepared.queries() {
                text.push_str(&format!("query {}:\n", prep.query().signature.0));
                match &resilience {
                    Some(res) => {
                        let outcome = t.scope("engine.execute_resilient", |_| {
                            prep.execute_resilient_obs_cfg(&db, &self.recorder, res, exec)
                                .expect("evaluates")
                        });
                        tally.answers += outcome.report.under.len() as u64;
                        t.scope("core.render", |_| text.push_str(&render_outcome(&outcome)));
                    }
                    None => {
                        let report = t.scope("engine.execute", |_| {
                            prep.execute_obs_cfg(&db, &self.recorder, exec)
                                .expect("evaluates")
                        });
                        tally.answers += report.under.len() as u64;
                        t.scope("core.render", |_| {
                            text.push_str(&render_answer_report(&report));
                            text.push('\n');
                        });
                    }
                }
            }
            // The session folds before the response goes out: snapshot the
            // whole ring, clone the published store, fold the new suffix,
            // drop the snapshot.
            if fold {
                t.scope("obs.fold", |t| {
                    let journal = self.recorder.journal().expect("session journal");
                    let snapshot = t.scope("obs.snapshot", |_| journal.snapshot());
                    let mut next = self.store.clone();
                    let fold_from = self.cursor.position();
                    next.fold_since(&snapshot, &mut self.cursor);
                    self.store = next;
                    // Not the daemon's work, but only the snapshot knows
                    // what this request journaled; the new suffix is short.
                    for event in snapshot
                        .events
                        .iter()
                        .rev()
                        .take_while(|e| e.seq >= fold_from)
                    {
                        tally.events += 1;
                        if event.kind == kind::BATCH_BEGIN {
                            tally.batches += 1;
                            tally.batch_rows += event
                                .data
                                .get("rows_in")
                                .and_then(Json::as_u64)
                                .unwrap_or(0);
                            tally.batch_capacity += exec.batch_size as u64;
                        }
                    }
                });
            }
            let data = Json::obj([
                ("cache_hit", Json::Bool(hit)),
                ("queries", Json::num(prepared.queries().len() as u64)),
            ]);
            let frame = t.scope("proto.resp_encode", |_| {
                let mut frame = Vec::new();
                write_frame(&mut frame, &Response::Ok { id, text, data }.to_json())
                    .expect("in-memory write");
                frame
            });
            let response = t.scope("proto.resp_decode", |_| {
                let doc = read_frame(&mut frame.as_slice(), MAX_FRAME_BYTES).expect("own frame");
                Response::from_json(&doc).expect("own response")
            });
            tally.req_bytes += req_frame.len() as u64;
            tally.resp_bytes += frame.len() as u64;
            let Response::Ok { text, .. } = response else {
                unreachable!("an ok was encoded")
            };
            text
        })
    }

    /// What `lapq run` does in-process, stage by stage.
    fn one_shot(&mut self, t: &mut Tracer, req: &Req<'_>, tally: &mut Tally) -> String {
        let prepared = t.scope("core.compile", |_| {
            PreparedProgram::compile(&req.program).expect("compiles")
        });
        tally.compiles += 1;
        let db = t.scope("engine.from_facts", |_| {
            Database::from_facts(req.facts).expect("generated facts")
        });
        tally.tuples += db.total_tuples() as u64;
        let mut text = String::new();
        for prep in prepared.queries() {
            text.push_str(&format!("query {}:\n", prep.query().signature.0));
            let report = t.scope("engine.execute", |_| {
                prep.execute_obs_cfg(&db, &self.recorder, exec_config(&req.options))
                    .expect("evaluates")
            });
            tally.answers += report.under.len() as u64;
            t.scope("core.render", |_| {
                text.push_str(&render_answer_report(&report));
                text.push('\n');
            });
        }
        text
    }

    /// The compile path once more, stage by stage, outside the request: the
    /// public API compiles a program in one call, so its parts can only be
    /// timed by calling them again (against the shadow engine).
    fn compile_breakdown(&self, t: &mut Tracer, program: &str) {
        t.scope("shadow", |t| {
            let parsed = t.scope("ir.parse", |_| parse_program(program).expect("parses"));
            for q in &parsed.queries {
                t.scope("core.plan_star", |_| {
                    std::hint::black_box(plan_star(q, &parsed.schema))
                });
                // FEASIBLE runs PLAN* itself first, so this span contains
                // one more `core.plan_star`'s worth of work.
                let report = t.scope("core.feasible", |_| {
                    feasible_detailed_with(q, &parsed.schema, &self.shadow_engine)
                });
                t.scope("core.lower", |_| {
                    std::hint::black_box(lower_pair(&report.plans, &parsed.schema))
                });
            }
        });
    }
}

pub fn run(w: &Workload, oracle: &Oracle) -> Replay {
    let n = pass_len(w.kind);
    let mut session = Session::new(w);
    let mut off = Tracer::new(false);
    let mut scratch = Tally::default();

    // Steady state first: wrap the session ring without folding (the fold
    // is what costs), then fold once so the cursor is at the ring's head.
    let mut next = 0u64;
    if w.kind.serves() {
        let capacity = JournalConfig::light().capacity as u64;
        let recorder = session.recorder.clone();
        let journal = recorder.journal().expect("session journal");
        while journal.emitted() < capacity * 11 / 10 || next < BLOCK {
            session.request(&mut off, next, &w.request(next), false, &mut scratch);
            next += 1;
        }
        next = next.next_multiple_of(BLOCK);
    }
    for _ in 0..2 {
        session.request(&mut off, next, &w.request(next), true, &mut scratch);
        next += BLOCK;
    }

    let counters_before = session.recorder.snapshot();
    let engine_before = session.engine.stats();
    let cache_before = session.cache.stats();
    let dropped_before = session.recorder.journal().map_or(0, |j| j.dropped());
    let folded_attempts = |s: &Session| s.store.profiles.values().map(|p| p.attempts).sum::<u64>();
    let attempts_before = folded_attempts(&session);

    // Traced and untraced blocks of one stream period alternate over one
    // contiguous slice, so slow drift (heap growth, clocks) lands on both
    // alike. No index repeats: that would turn `serve-miss` into hits.
    let mut totals_us: [Vec<(u64, f64)>; 2] = [Vec::new(), Vec::new()];
    let mut untraced = Tally::default();
    let mut tally = Tally::default();
    let mut traced = Tracer::new(true);
    for i in next..next + 2 * n {
        let pass = ((i - next) / BLOCK % 2) as usize;
        let tracer = if pass == 0 { &mut off } else { &mut traced };
        let sink = if pass == 0 { &mut untraced } else { &mut tally };
        let req = w.request(i);
        let compiles_before = sink.compiles;
        let begun = Instant::now();
        let text = session.request(tracer, i, &req, true, sink);
        totals_us[pass].push((i, begun.elapsed().as_nanos() as f64 / 1e3));
        if text != oracle.expected(w, i).text {
            sink.failed += 1;
        }
        if pass == 1 && sink.compiles > compiles_before {
            session.compile_breakdown(tracer, &req.program);
        }
    }
    let failed = untraced.failed + tally.failed;

    let own = self_times_ns(traced.spans());
    let per_req_us = |name: &'static str| {
        let of_request =
            |&(i, _): &(u64, f64)| (i, own.get(&(i, name)).copied().unwrap_or(0) as f64 / 1e3);
        typical(totals_us[1].iter().map(of_request))
    };
    let stages = [
        "proto.req_encode",
        "proto.req_decode",
        "core.cache_lookup",
        "core.compile",
        "engine.from_facts",
        "engine.execute",
        "engine.execute_resilient",
        "core.render",
        "obs.fold",
        "obs.snapshot",
        "proto.resp_encode",
        "proto.resp_decode",
    ];
    let stage_sum_us: f64 = stages.iter().map(|s| per_req_us(s)).sum();
    let untraced_us = typical(totals_us[0].iter().copied());
    let traced_us = typical(totals_us[1].iter().copied());
    let counters = session.recorder.snapshot();
    let count = |name: &str| (counters.counter(name) - counters_before.counter(name)) as f64;
    // Both passes fed these counters; per request they are the same.
    let per_req = |name: &str| count(name) / (2 * n) as f64;
    let engine = session.engine.stats();
    let decisions = (engine.decisions - engine_before.decisions) as f64;
    let memo_hits = (engine.cache_hits - engine_before.cache_hits) as f64;
    let cache = session.cache.stats();
    let compiles = (untraced.compiles + tally.compiles) as f64;
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let attempts = (folded_attempts(&session) - attempts_before) as f64;
    // `source.calls` counts calls that were answered; every fault, retried
    // or final, was one more attempt on the wire.
    let wire_attempts =
        count("source.calls") + count("source.membership") + count("source.failures");

    let mut m = BTreeMap::new();
    m.insert("proto.req_encode_us", per_req_us("proto.req_encode"));
    m.insert("proto.req_decode_us", per_req_us("proto.req_decode"));
    m.insert(
        "proto.req_decode_ns_per_byte",
        share(
            per_req_us("proto.req_decode") * 1e3,
            tally.req_bytes as f64 / n as f64,
        ),
    );
    m.insert("proto.resp_encode_us", per_req_us("proto.resp_encode"));
    m.insert("proto.resp_decode_us", per_req_us("proto.resp_decode"));
    m.insert("proto.req_bytes", tally.req_bytes as f64 / n as f64);
    m.insert("proto.resp_bytes", tally.resp_bytes as f64 / n as f64);
    m.insert("ir.parse_us", per_req_us("ir.parse"));
    m.insert("core.plan_star_us", per_req_us("core.plan_star"));
    m.insert("core.feasible_us", per_req_us("core.feasible"));
    m.insert("core.lower_us", per_req_us("core.lower"));
    m.insert("core.compile_us", per_req_us("core.compile"));
    m.insert("core.cache_lookup_us", per_req_us("core.cache_lookup"));
    m.insert(
        "core.cache_hit_share",
        share(
            (cache.hits - cache_before.hits) as f64,
            if w.kind.serves() { (2 * n) as f64 } else { 0.0 },
        ),
    );
    m.insert(
        "core.cache_evictions",
        (cache.evictions - cache_before.evictions) as f64,
    );
    m.insert(
        "containment.decisions_per_compile",
        share(decisions, compiles),
    );
    m.insert("containment.memo_hit_share", share(memo_hits, decisions));
    let compiled = tally.queries_compiled as f64;
    m.insert(
        "core.decision_path_share.coincide",
        share(tally.paths[0] as f64, compiled),
    );
    m.insert(
        "core.decision_path_share.null",
        share(tally.paths[1] as f64, compiled),
    );
    m.insert(
        "core.decision_path_share.containment",
        share(tally.paths[2] as f64, compiled),
    );
    m.insert("engine.from_facts_us", per_req_us("engine.from_facts"));
    m.insert(
        "engine.from_facts_ns_per_tuple",
        share(
            per_req_us("engine.from_facts") * 1e3,
            tally.tuples as f64 / n as f64,
        ),
    );
    m.insert("engine.execute_us", per_req_us("engine.execute"));
    m.insert(
        "engine.execute_resilient_us",
        per_req_us("engine.execute_resilient"),
    );
    m.insert("engine.source_calls", per_req("source.calls"));
    m.insert("engine.membership_probes", per_req("source.membership"));
    m.insert("engine.call_cache_hits", per_req("source.cache_hits"));
    m.insert(
        "engine.rows_per_call",
        share(count("source.tuples_returned"), count("source.calls")),
    );
    m.insert("engine.batches", tally.batches as f64 / n as f64);
    m.insert(
        "engine.batch_fill_share",
        share(tally.batch_rows as f64, tally.batch_capacity as f64),
    );
    m.insert("engine.retries", per_req("source.retries"));
    m.insert("engine.failures", per_req("source.failures"));
    m.insert("engine.degraded_disjuncts", per_req("source.degraded"));
    m.insert("engine.answers_per_req", tally.answers as f64 / n as f64);
    m.insert("core.render_us", per_req_us("core.render"));
    m.insert(
        "obs.record_overhead_us",
        if w.kind.serves() {
            record_overhead_us(w)
        } else {
            0.0
        },
    );
    m.insert("obs.journal_events_per_req", tally.events as f64 / n as f64);
    m.insert("obs.snapshot_us", per_req_us("obs.snapshot"));
    m.insert("obs.fold_us", per_req_us("obs.fold"));
    m.insert(
        "obs.journal_dropped",
        (session.recorder.journal().map_or(0, |j| j.dropped()) - dropped_before) as f64,
    );
    // 1.0 when every wire attempt of the two passes was folded exactly once.
    m.insert("obs.fold_coverage_share", share(attempts, wire_attempts));
    m.insert("trace.overhead_share", traced_us / untraced_us - 1.0);
    m.insert("trace.stage_sum_share", share(stage_sum_us, untraced_us));

    Replay {
        spans: traced.spans().to_vec(),
        metrics: m,
        stage_sum_us,
        attempted: 2 * n,
        failed,
    }
}

/// Median extra cost of executing a request under the light journal instead
/// of the disabled recorder, over the stream's first requests.
fn record_overhead_us(w: &Workload) -> f64 {
    let journaled = Recorder::with_journal(JournalConfig::light());
    let disabled = Recorder::disabled();
    let mut extra_us = Vec::new();
    for i in 0..OVERHEAD_REQUESTS {
        let req = w.request(i);
        let prepared = PreparedProgram::compile(&req.program).expect("compiles");
        let db = Database::from_facts(req.facts).expect("generated facts");
        let exec = exec_config(&req.options);
        let resilience = resilience(&req.options);
        let time = |recorder: &Recorder| {
            let begun = Instant::now();
            for prep in prepared.queries() {
                match &resilience {
                    Some(res) => {
                        std::hint::black_box(
                            prep.execute_resilient_obs_cfg(&db, recorder, res, exec)
                                .expect("evaluates"),
                        );
                    }
                    None => {
                        std::hint::black_box(
                            prep.execute_obs_cfg(&db, recorder, exec)
                                .expect("evaluates"),
                        );
                    }
                }
            }
            begun.elapsed().as_nanos() as f64 / 1e3
        };
        time(&disabled); // warm both paths before the timed pair
        extra_us.push(time(&journaled) - time(&disabled));
    }
    median(&extra_us)
}
