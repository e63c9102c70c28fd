//! One benchmark run: set-up (several times, for a steady `setup_s`), the
//! measured window, and with `--trace 1` the traced replay on top.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::replay::{self, Replay};
use crate::serve::{self, DaemonWindow, Oracle, Sample, ServeOutcome};
use crate::stats::{median, percentile, sorted, typical};
use crate::workload::{Kind, Workload};
use lap::core::{render_answer_report, PreparedProgram};
use lap::engine::{Database, ExecConfig};
use lap::obs::{Json, Recorder};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Complete set-ups per end-to-end run whose window is at least
/// [`FULL_WINDOW`]; `setup_s` is their median. A shorter (smoke) run sets up
/// once.
const SETUPS: usize = 3;
const FULL_WINDOW: Duration = Duration::from_secs(10);
/// Requests of the seeded stream the oracle prices for
/// `source_calls_per_req` (and, on `serve-chaos`, `virtual_ms_per_req`).
const ORACLE_REQUESTS: u64 = 1_000;
/// Rounds the window is printed in.
const ROUNDS: usize = 3;
/// One-shot runs before the `oneshot-wide` window opens.
const ONESHOT_WARMUP: usize = 3;
/// The wall time of `reference_kernel` that `oneshot-wide` latencies are
/// scaled to: what it takes on this sandbox while the clock is fast.
const REFERENCE_KERNEL_MS: f64 = 1.95;
/// A window whose second-half p50 exceeds its first-half p50 by more than
/// this is flagged `unsteady`.
const DRIFT_LIMIT: f64 = 0.10;

pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// The metrics this mode reports: end to end, or per layer.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Everything else worth keeping next to them in the output file.
    pub detail: Json,
    pub spans: Vec<crate::trace::Span>,
}

impl RunResult {
    /// Adds a set-up's or window's requests to the run's verdict.
    fn count(&mut self, outcome: &ServeOutcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&outcome.first_failure);
        }
    }
}

/// The generated inputs plus their oracle answers and stream prices.
struct Prepared {
    workload: Workload,
    oracle: Oracle,
    source_calls_per_req: f64,
    virtual_ms_per_req: f64,
}

fn prepare(kind: Kind, seed: u64) -> Prepared {
    let workload = Workload::generate(kind, seed);
    let oracle = Oracle::compute(&workload);
    let (mut calls, mut virtual_ms) = (0u64, 0u64);
    for i in 0..ORACLE_REQUESTS {
        let expected = oracle.expected(&workload, i);
        calls += expected.source_calls;
        virtual_ms += expected.virtual_ms;
    }
    Prepared {
        workload,
        oracle,
        source_calls_per_req: calls as f64 / ORACLE_REQUESTS as f64,
        virtual_ms_per_req: virtual_ms as f64 / ORACLE_REQUESTS as f64,
    }
}

/// Generation, oracle, server start and warm-up (or, one-shot, the warm-up
/// runs), followed by `window` of measurement.
fn set_up_and_measure(kind: Kind, seed: u64, window: Duration) -> (Prepared, ServeOutcome, f64) {
    let begun = Instant::now();
    let prepared = prepare(kind, seed);
    let prepare_s = begun.elapsed().as_secs_f64();
    let outcome = if kind.serves() {
        serve::run(&prepared.workload, &prepared.oracle, window)
    } else {
        one_shot_window(&prepared, window)
    };
    let setup_s = prepare_s + outcome.warmup_s;
    (prepared, outcome, setup_s)
}

/// A fixed piece of hashing and tree work (about 2 ms here), timed right
/// after every one-shot run as a gauge of how fast the CPU is going.
fn reference_kernel() -> usize {
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut set = BTreeSet::new();
    let mut x = 1u64;
    for i in 0..20_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x % 5_000, i);
        set.insert((x >> 20) % 7_000);
    }
    (0..20_000u64)
        .filter(|i| map.contains_key(&(i % 6_000)) || set.contains(&(i % 8_000)))
        .count()
}

/// `oneshot-wide`: no daemon, one thread; each iteration is what `lapq run`
/// does in-process.
///
/// Its latencies are **clock-normalised**. The sandbox's effective clock
/// wanders by a quarter over tens of seconds (a pure arithmetic loop does
/// too), so the wall time of this single compute-bound thread is not a
/// repeatable quantity: medians of identical runs read anything from 29 to
/// 37 ms. Each run is therefore followed by [`reference_kernel`], and its
/// wall time is scaled by `REFERENCE_KERNEL_MS` over the kernel's: the ratio
/// of the two holds to 2% while each swings by a quarter. The `serve-*` windows
/// are bound by memory, not clock, and repeat to 1-3% as they are.
fn one_shot_window(prepared: &Prepared, window: Duration) -> ServeOutcome {
    let req = prepared.workload.request(0);
    let expected = &prepared.oracle.expected(&prepared.workload, 0).text;
    let iteration = || {
        let program = PreparedProgram::compile(&req.program).expect("generated program compiles");
        let db = Database::from_facts(req.facts).expect("generated facts parse");
        let mut text = String::new();
        for prep in program.queries() {
            text.push_str(&format!("query {}:\n", prep.query().signature.0));
            let report = prep
                .execute_obs_cfg(&db, &Recorder::disabled(), ExecConfig::default())
                .expect("generated query evaluates");
            text.push_str(&render_answer_report(&report));
            text.push('\n');
        }
        text
    };
    let mut outcome = ServeOutcome::default();
    let mut gauges_ms = Vec::new();
    let begun = Instant::now();
    for _ in 0..ONESHOT_WARMUP {
        std::hint::black_box(iteration());
    }
    outcome.warmup_s = begun.elapsed().as_secs_f64();
    let opened = Instant::now();
    while opened.elapsed() < window {
        let sent = Instant::now();
        let text = iteration();
        let wall_ms = sent.elapsed().as_secs_f64() * 1e3;
        let gauge = Instant::now();
        std::hint::black_box(reference_kernel());
        let gauge_ms = gauge.elapsed().as_secs_f64() * 1e3;
        gauges_ms.push(gauge_ms);
        let latency_ms = wall_ms * REFERENCE_KERNEL_MS / gauge_ms;
        outcome.attempted += 1;
        if text == *expected {
            outcome.samples.push(Sample {
                index: 0,
                done_s: opened.elapsed().as_secs_f64(),
                latency_ms,
                wall_ms,
            });
        } else {
            outcome.failed += 1;
            outcome
                .first_failure
                .get_or_insert("bytes differ from the one-shot oracle".to_owned());
        }
    }
    let window_s = window.as_secs_f64();
    outcome.samples.retain(|s| s.done_s <= window_s);
    outcome.gauge_ms = median(&gauges_ms);
    outcome
}

pub fn run(cfg: &RunConfig) -> RunResult {
    let mut result = RunResult {
        attempted: 0,
        failed: 0,
        first_failure: None,
        metrics: BTreeMap::new(),
        detail: Json::Null,
        spans: Vec::new(),
    };
    let mut setups_s = Vec::new();
    // Throw-away set-ups first; the last one carries the measured window.
    if !cfg.trace && cfg.window >= FULL_WINDOW {
        for _ in 1..SETUPS {
            let (_, outcome, setup_s) = set_up_and_measure(cfg.kind, cfg.seed, Duration::ZERO);
            result.count(&outcome);
            setups_s.push(setup_s);
        }
    }
    let (prepared, outcome, setup_s) = set_up_and_measure(cfg.kind, cfg.seed, cfg.window);
    result.count(&outcome);
    setups_s.push(setup_s);
    if outcome.samples.is_empty() {
        result.attempted += 1;
        result.failed += 1;
        result
            .first_failure
            .get_or_insert("the window closed without one correct response".to_owned());
    }

    let window_s = cfg.window.as_secs_f64();
    let latencies = sorted(
        &outcome
            .samples
            .iter()
            .map(|s| s.latency_ms)
            .collect::<Vec<_>>(),
    );
    let rounds = rounds(&outcome.samples, window_s);
    let drift = latency_drift(&outcome.samples, window_s);
    let typical_latency_us = typical(
        outcome
            .samples
            .iter()
            .map(|s| (s.index, s.latency_ms * 1e3)),
    );

    if cfg.trace {
        let replay = replay::run(&prepared.workload, &prepared.oracle);
        result.attempted += replay.attempted;
        result.failed += replay.failed;
        if replay.failed > 0 {
            result
                .first_failure
                .get_or_insert("traced replay: bytes differ from the one-shot oracle".to_owned());
        }
        result.metrics = per_layer(&replay, &outcome, typical_latency_us, drift);
        let m = &mut result.metrics;
        m.insert("virtual_ms_per_req", prepared.virtual_ms_per_req);
        m.insert(
            "failed_share",
            result.failed as f64 / result.attempted as f64,
        );
        result.spans = replay.spans;
    } else {
        let m = &mut result.metrics;
        m.insert("setup_s", median(&setups_s));
        // One thread, one run at a time: runs per second is the inverse of
        // the mean (clock-normalised) run.
        let mean_ms = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        m.insert(
            "throughput_rps",
            if cfg.kind.serves() {
                outcome.samples.len() as f64 / window_s
            } else {
                1e3 / mean_ms
            },
        );
        m.insert("latency_p50_ms", percentile(&latencies, 0.50));
        m.insert("latency_p95_ms", percentile(&latencies, 0.95));
        m.insert("source_calls_per_req", prepared.source_calls_per_req);
    }
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    assert!(
        table.len() == result.metrics.len()
            && table.iter().all(|m| result.metrics.contains_key(m.name)),
        "every declared metric is reported, and nothing else"
    );
    result.detail = Json::obj([
        ("samples", Json::num(outcome.samples.len() as u64)),
        ("rounds", Json::Arr(rounds)),
        (
            "wall_latency_p50_ms",
            Json::Num(median(
                &outcome
                    .samples
                    .iter()
                    .map(|s| s.wall_ms)
                    .collect::<Vec<_>>(),
            )),
        ),
        ("latency_drift_share", Json::Num(drift)),
        ("unsteady", Json::Bool(drift > DRIFT_LIMIT)),
        (
            "setup_runs_s",
            Json::Arr(setups_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("daemon_config", daemon_config_json(&prepared.workload)),
        ("exec_config", exec_config_json(&prepared.workload)),
    ]);
    result
}

fn per_layer(
    replay: &Replay,
    outcome: &ServeOutcome,
    typical_latency_us: f64,
    drift: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m = replay.metrics.clone();
    let DaemonWindow {
        request_us,
        gate_wait_us,
        quota_rejections,
        errors,
        sweeps,
        recalibrations,
    } = &outcome.daemon;
    m.insert("daemon.request_us_p50", request_us.p50());
    m.insert("daemon.request_us_p95", request_us.p95());
    m.insert("daemon.gate_wait_us_p95", gate_wait_us.p95());
    m.insert("daemon.quota_rejections", *quota_rejections as f64);
    m.insert("daemon.errors", *errors as f64);
    m.insert("daemon.sweeps", *sweeps as f64);
    m.insert("daemon.recalibrations", *recalibrations as f64);
    m.insert("daemon.latency_drift_share", drift);
    // What no layer owns: socket and thread hops, scheduling, and on two
    // cores the other connection's work. Both sides are `typical` values,
    // so the parts add up.
    let served = request_us.count > 0;
    m.insert(
        "daemon.unattributed_us",
        if served {
            typical_latency_us - replay.stage_sum_us
        } else {
            0.0
        },
    );
    m.insert(
        "daemon.attributed_share",
        if served && typical_latency_us > 0.0 {
            replay.stage_sum_us / typical_latency_us
        } else {
            0.0
        },
    );
    m.insert("clock.gauge_ms", outcome.gauge_ms);
    m.insert("peak_rss_mb", serve::peak_resident_mb());
    m
}

/// Throughput and median latency of each third of the window.
fn rounds(samples: &[Sample], window_s: f64) -> Vec<Json> {
    let round_s = window_s / ROUNDS as f64;
    (0..ROUNDS)
        .map(|r| {
            let (from, to) = (r as f64 * round_s, (r + 1) as f64 * round_s);
            let lat: Vec<f64> = samples
                .iter()
                .filter(|s| s.done_s > from && s.done_s <= to)
                .map(|s| s.latency_ms)
                .collect();
            Json::obj([
                ("samples", Json::num(lat.len() as u64)),
                ("throughput_rps", Json::Num(lat.len() as f64 / round_s)),
                ("latency_p50_ms", Json::Num(median(&lat))),
            ])
        })
        .collect()
}

/// Second-half p50 over first-half p50, minus one.
fn latency_drift(samples: &[Sample], window_s: f64) -> f64 {
    let half = |late: bool| {
        median(
            &samples
                .iter()
                .filter(|s| (s.done_s > window_s / 2.0) == late)
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    let (first, second) = (half(false), half(true));
    if first > 0.0 {
        second / first - 1.0
    } else {
        0.0
    }
}

fn daemon_config_json(w: &Workload) -> Json {
    if !w.kind.serves() {
        return Json::Null;
    }
    let c = serve::daemon_config(w);
    Json::obj([
        ("max_sessions", Json::num(c.max_sessions as u64)),
        ("exec_permits", Json::num(c.exec_permits() as u64)),
        ("admission_wait_ms", Json::num(c.admission_wait_ms)),
        ("cache_bytes", Json::num(c.cache_bytes as u64)),
        ("idle_timeout_ms", Json::num(c.idle_timeout_ms)),
        ("fold_every_requests", Json::num(c.fold_every_requests)),
        ("watch_interval_ms", Json::num(c.watch_interval_ms)),
        (
            "recalibrate_cooldown_ms",
            Json::num(c.recalibrate_cooldown_ms),
        ),
    ])
}

fn exec_config_json(w: &Workload) -> Json {
    let c = crate::oracle::exec_config(&w.request(0).options);
    Json::obj([
        ("batch_size", Json::num(c.batch_size as u64)),
        ("io_workers", Json::num(c.io_workers as u64)),
        ("columnar", Json::Bool(c.columnar)),
    ])
}
