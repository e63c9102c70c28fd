//! The shared query service behind every `lapd` session.
//!
//! One [`Service`] lives for the whole daemon: it owns the shared plan
//! cache, the admission [`Gate`], and the server-wide recorder. Session
//! threads borrow it through an `Arc` and call [`Service::handle`] per
//! request — everything mutable inside is already thread-safe (the cache
//! and gate lock internally, counters are atomic). A plan-cache miss
//! compiles for the query path: PLAN\* and lowering, no FEASIBLE verdict,
//! since no response reads one.

use super::gate::Gate;
use super::telemetry::{TelemetryHub, HEALTH_FLOOR};
use super::DaemonConfig;
use lap_core::{canonical_text, render_answer_report, render_outcome, PlanCache, PreparedProgram};
use lap_engine::Database;
use lap_obs::{
    Counter, Event, FoldCursor, Histogram, HistogramSnapshot, Json, JournalConfig, Recalibration,
    Recorder,
};
use lap_planner::{op_costs, recalibrate_published, CostModel};
use lap_proto::{ErrorCode, QueryOptions, Request, Response};
use std::collections::{BTreeSet, HashMap};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The daemon-wide state shared by every session thread.
pub(crate) struct Service {
    config: DaemonConfig,
    /// Server-wide recorder: plan-cache counters, request/session totals.
    /// Per-session recorders (with journals) live in the session threads;
    /// this one aggregates what must survive sessions.
    recorder: Recorder,
    cache: PlanCache<PreparedProgram>,
    gate: Gate,
    active_sessions: AtomicUsize,
    /// A handle on every live session's socket, so shutdown can close the
    /// read halves: a session blocked in `read_frame` then sees EOF at once.
    sockets: Mutex<HashMap<u64, TcpStream>>,
    next_socket: AtomicU64,
    sessions_total: Counter,
    requests_total: Counter,
    errors_total: Counter,
    quota_rejections: Counter,
    shutdown: AtomicBool,
    addr: Mutex<Option<SocketAddr>>,
    started: Instant,
    /// The telemetry plane: published feedback store, drift baselines,
    /// recalibration rate limiting.
    telemetry: TelemetryHub,
    /// Static cost model the watcher calibrates against.
    static_model: CostModel,
    /// Admission-gate wait per query request, in microseconds.
    gate_wait_us: Histogram,
    /// End-to-end query handling latency, in microseconds. It ends before
    /// the session's telemetry fold, which `fold_us` times.
    request_us: Histogram,
    /// One session's telemetry fold, in microseconds.
    fold_us: Histogram,
    /// Watcher parking: flips true on shutdown; the condvar wakes the
    /// watcher thread out of its interval sleep immediately.
    watch_stop: Mutex<bool>,
    watch_cv: Condvar,
}

impl Service {
    pub(crate) fn new(config: DaemonConfig) -> Service {
        // The server-wide recorder carries a journal so watcher actions
        // (`daemon.recalibrate`) are auditable like any other event.
        let recorder = Recorder::with_journal(JournalConfig::light());
        let cache = PlanCache::new(config.cache_bytes).with_recorder(&recorder);
        let gate = Gate::new(config.exec_permits());
        Service {
            sessions_total: recorder.counter("daemon.sessions"),
            requests_total: recorder.counter("daemon.requests"),
            errors_total: recorder.counter("daemon.errors"),
            quota_rejections: recorder.counter("daemon.quota_rejections"),
            telemetry: TelemetryHub::new(&recorder),
            static_model: CostModel::new(),
            gate_wait_us: recorder.histogram("daemon.gate_wait_us"),
            request_us: recorder.histogram("daemon.request_us"),
            fold_us: recorder.histogram("daemon.fold_us"),
            config,
            recorder,
            cache,
            gate,
            active_sessions: AtomicUsize::new(0),
            sockets: Mutex::new(HashMap::new()),
            next_socket: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            addr: Mutex::new(None),
            started: Instant::now(),
            watch_stop: Mutex::new(false),
            watch_cv: Condvar::new(),
        }
    }

    pub(crate) fn config(&self) -> &DaemonConfig {
        &self.config
    }

    pub(crate) fn set_addr(&self, addr: SocketAddr) {
        *self.addr.lock().expect("addr mutex") = Some(addr);
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag, closes the read half of every live session
    /// (an idle session sees EOF and ends; a session answering a request
    /// still writes its response first), and pokes the accept loop awake
    /// with a throwaway connection so it observes the flag without waiting
    /// for a real client.
    pub(crate) fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for socket in self.sockets.lock().expect("sockets mutex").values() {
            let _ = socket.shutdown(Shutdown::Read);
        }
        // Park the telemetry watcher before poking the accept loop.
        *self.watch_stop.lock().expect("watch mutex") = true;
        self.watch_cv.notify_all();
        let addr = *self.addr.lock().expect("addr mutex");
        if let Some(addr) = addr {
            let _ = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
    }

    /// Session accounting: returns `false` when the daemon is at its
    /// session cap and the connection must be refused with a quota frame.
    pub(crate) fn try_open_session(&self) -> bool {
        loop {
            let active = self.active_sessions.load(Ordering::SeqCst);
            if active >= self.config.max_sessions {
                self.quota_rejections.incr();
                return false;
            }
            if self
                .active_sessions
                .compare_exchange(active, active + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.sessions_total.incr();
                return true;
            }
        }
    }

    pub(crate) fn close_session(&self) {
        self.active_sessions.fetch_sub(1, Ordering::SeqCst);
    }

    /// Keeps a handle on a session's socket for [`Service::request_shutdown`]
    /// until [`Service::forget_socket`]. Registered under the same lock the
    /// shutdown walks, so a session that arrives as shutdown begins is
    /// closed by one side or the other, never missed.
    pub(crate) fn watch_socket(&self, stream: &TcpStream) -> Option<u64> {
        let handle = stream.try_clone().ok()?;
        let id = self.next_socket.fetch_add(1, Ordering::Relaxed);
        let mut sockets = self.sockets.lock().expect("sockets mutex");
        if self.shutting_down() {
            let _ = handle.shutdown(Shutdown::Read);
        }
        sockets.insert(id, handle);
        Some(id)
    }

    pub(crate) fn forget_socket(&self, id: u64) {
        self.sockets.lock().expect("sockets mutex").remove(&id);
    }

    pub(crate) fn active_sessions(&self) -> usize {
        self.active_sessions.load(Ordering::SeqCst)
    }

    /// Handles one parsed request, returning the response to frame back.
    /// `session` is the per-session recorder (journal included) that
    /// query execution reports into.
    pub(crate) fn handle(&self, req: Request, session: &Recorder) -> Response {
        self.requests_total.incr();
        let id = req.id();
        let result = match req {
            Request::Ping { .. } => Ok(("pong".to_owned(), Json::Null)),
            Request::Stats { .. } => Ok((self.stats_text(), self.stats_json())),
            Request::Shutdown { .. } => Ok(("shutting down".to_owned(), Json::Null)),
            Request::Profile { .. } => {
                let store = self.telemetry.store();
                Ok((store.summary(), store.to_json()))
            }
            Request::Health { .. } => Ok(self.health_payload()),
            Request::Recalibrate { .. } => Ok(self.recalibrate_payload()),
            Request::Query { program, facts, options, .. } => {
                let begun = Instant::now();
                let result = self.run_query(&program, &facts, &options, session);
                self.request_us.record(begun.elapsed().as_micros() as u64);
                result
            }
        };
        match result {
            Ok((text, data)) => Response::Ok { id, text, data },
            Err((code, message)) => {
                self.errors_total.incr();
                if code == ErrorCode::Quota {
                    self.quota_rejections.incr();
                }
                Response::Error { id, code, message }
            }
        }
    }

    /// The query path: admission gate → plan cache → execute each
    /// prepared query, rendering exactly what one-shot `lapq run` prints.
    fn run_query(
        &self,
        program: &str,
        facts: &str,
        options: &QueryOptions,
        session: &Recorder,
    ) -> Result<(String, Json), (ErrorCode, String)> {
        if self.shutting_down() {
            return Err((ErrorCode::ShuttingDown, "daemon is shutting down".to_owned()));
        }
        let (exec, resilience) = crate::execution_from_options(options)
            .map_err(|bad| (ErrorCode::BadRequest, bad.to_string()))?;

        // Admission: wait a bounded slice of the request's deadline budget
        // for an execution permit; a full gate past the budget is an
        // honest quota rejection, never a hang.
        let wait_ms = self.config.admission_wait_ms.min(
            options.deadline_ms.unwrap_or(self.config.admission_wait_ms),
        );
        let gate_begun = Instant::now();
        let permit = self.gate.try_enter(Duration::from_millis(wait_ms));
        self.gate_wait_us.record(gate_begun.elapsed().as_micros() as u64);
        let Some(_permit) = permit else {
            return Err((
                ErrorCode::Quota,
                format!(
                    "admission queue full: no execution permit freed within {wait_ms} ms \
                     ({} in flight)",
                    self.gate.permits()
                ),
            ));
        };

        // Plan cache: compile outside the cache lock on a miss; every
        // session with the same canonical program text shares one entry.
        let key = canonical_text(program);
        let (prepared, cache_hit) = self
            .cache
            .get_or_compile(&key, PreparedProgram::estimated_bytes, || {
                PreparedProgram::compile(program)
            })
            .map_err(|e| (ErrorCode::QueryError, format!("program: {e}")))?;
        let db = Database::from_facts(facts)
            .map_err(|e| (ErrorCode::QueryError, format!("facts: {e}")))?;

        let mut text = String::new();
        for prep in prepared.queries() {
            let sig = prep.query().signature.0;
            text.push_str(&format!("query {sig}:\n"));
            match &resilience {
                Some(res) => {
                    let outcome = prep
                        .execute_resilient_obs_cfg(&db, session, res, exec)
                        .map_err(|e| {
                            (ErrorCode::QueryError, format!("evaluating {sig}: {e}"))
                        })?;
                    text.push_str(&render_outcome(&outcome));
                }
                None => {
                    let rep = prep.execute_obs_cfg(&db, session, exec).map_err(|e| {
                        (ErrorCode::QueryError, format!("evaluating {sig}: {e}"))
                    })?;
                    text.push_str(&render_answer_report(&rep));
                    text.push('\n');
                }
            }
        }
        let data = Json::obj([
            ("cache_hit", Json::Bool(cache_hit)),
            ("queries", Json::num(prepared.queries().len() as u64)),
        ]);
        Ok((text, data))
    }

    fn stats_text(&self) -> String {
        let cache = self.cache.stats();
        let mut out = format!(
            "sessions: {} active, {} total\n\
             requests: {} ({} errors, {} quota rejections)\n\
             plan cache: {} hits, {} misses, {} evictions, {} publishes, \
             {} entries, {} bytes ({:.1}% hit rate)\n",
            self.active_sessions(),
            self.sessions_total.get(),
            self.requests_total.get(),
            self.errors_total.get(),
            self.quota_rejections.get(),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.publishes,
            cache.entries,
            cache.bytes,
            cache.hit_rate() * 100.0,
        );
        for entry in self.cache.entries_detail() {
            out.push_str(&format!(
                "  entry: {} bytes, {} hits — {}\n",
                entry.bytes,
                entry.hits,
                ellipsize(&entry.key, 60),
            ));
        }
        out.push_str(&format!(
            "telemetry: {} folds ({} events), {} sweeps, {} recalibrations, \
             {} cooldown skips, last fold at {} ms\n",
            self.telemetry.folds(),
            self.telemetry.events_folded(),
            self.telemetry.sweeps(),
            self.telemetry.recalibrations(),
            self.telemetry.cooldown_skips(),
            self.telemetry.last_fold_ms(),
        ));
        let gate = self.gate_wait_us.snapshot();
        let request = self.request_us.snapshot();
        let fold = self.fold_us.snapshot();
        out.push_str(&format!(
            "latency: gate wait p50 {:.0}us p95 {:.0}us p99 {:.0}us, \
             request p50 {:.0}us p95 {:.0}us p99 {:.0}us ({} queries), \
             fold p50 {:.0}us p95 {:.0}us p99 {:.0}us ({} folds)\n",
            gate.p50(),
            gate.p95(),
            gate.p99(),
            request.p50(),
            request.p95(),
            request.p99(),
            request.count,
            fold.p50(),
            fold.p95(),
            fold.p99(),
            fold.count,
        ));
        out.push_str(&format!("uptime: {} ms\n", self.started.elapsed().as_millis()));
        out
    }

    pub(crate) fn stats_json(&self) -> Json {
        let cache = self.cache.stats();
        Json::obj([
            (
                "sessions",
                Json::obj([
                    ("active", Json::num(self.active_sessions() as u64)),
                    ("total", Json::num(self.sessions_total.get())),
                    ("max", Json::num(self.config.max_sessions as u64)),
                ]),
            ),
            (
                "requests",
                Json::obj([
                    ("total", Json::num(self.requests_total.get())),
                    ("errors", Json::num(self.errors_total.get())),
                    ("quota_rejections", Json::num(self.quota_rejections.get())),
                ]),
            ),
            (
                "plan_cache",
                Json::obj([
                    ("hits", Json::num(cache.hits)),
                    ("misses", Json::num(cache.misses)),
                    ("evictions", Json::num(cache.evictions)),
                    ("publishes", Json::num(cache.publishes)),
                    ("entries", Json::num(cache.entries as u64)),
                    ("bytes", Json::num(cache.bytes as u64)),
                    ("hit_rate", Json::Num(cache.hit_rate())),
                    (
                        "per_entry",
                        Json::Arr(
                            self.cache
                                .entries_detail()
                                .into_iter()
                                .map(|e| {
                                    Json::obj([
                                        ("key", Json::str(&e.key)),
                                        ("bytes", Json::num(e.bytes as u64)),
                                        ("hits", Json::num(e.hits)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "admission",
                Json::obj([
                    ("permits", Json::num(self.gate.permits() as u64)),
                    ("in_use", Json::num(self.gate.in_use() as u64)),
                ]),
            ),
            (
                "telemetry",
                Json::obj([
                    ("folds", Json::num(self.telemetry.folds())),
                    ("events_folded", Json::num(self.telemetry.events_folded())),
                    ("last_fold_ms", Json::num(self.telemetry.last_fold_ms())),
                    ("profiles", Json::num(self.telemetry.store().profiles.len() as u64)),
                    ("sweeps", Json::num(self.telemetry.sweeps())),
                    ("recalibrations", Json::num(self.telemetry.recalibrations())),
                    ("cooldown_skips", Json::num(self.telemetry.cooldown_skips())),
                ]),
            ),
            (
                "latency",
                Json::obj([
                    ("gate_wait_us", histogram_json(&self.gate_wait_us.snapshot())),
                    ("request_us", histogram_json(&self.request_us.snapshot())),
                    ("fold_us", histogram_json(&self.fold_us.snapshot())),
                ]),
            ),
            ("uptime_ms", Json::num(self.started.elapsed().as_millis() as u64)),
        ])
    }

    /// The server-wide recorder (plan-cache and daemon counters).
    pub(crate) fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Folds the unseen suffix of a session's journal into the telemetry
    /// hub, timed into `daemon.fold_us`. Sessions call this synchronously
    /// every `fold_every_requests` queries (before the response is
    /// written, so a client that has read its answer can immediately
    /// observe the folded profile) and once more when the session ends.
    pub(crate) fn fold_session(&self, session: &Recorder, cursor: &mut FoldCursor) -> u64 {
        let Some(journal) = session.journal() else { return 0 };
        let begun = Instant::now();
        let folded =
            self.telemetry.fold(journal, cursor, self.started.elapsed().as_millis() as u64);
        self.fold_us.record(begun.elapsed().as_micros() as u64);
        folded
    }

    /// The telemetry watcher's thread body: sweep every
    /// `watch_interval_ms`, park immediately on shutdown.
    pub(crate) fn watch_loop(&self) {
        let interval = Duration::from_millis(self.config.watch_interval_ms.max(1));
        let mut stop = self.watch_stop.lock().expect("watch mutex");
        while !*stop {
            let (guard, _) = self
                .watch_cv
                .wait_timeout(stop, interval)
                .expect("watch mutex");
            stop = guard;
            if *stop {
                break;
            }
            drop(stop);
            self.telemetry_sweep(false);
            stop = self.watch_stop.lock().expect("watch mutex");
        }
    }

    /// One telemetry sweep: evaluate drift flags and relation health
    /// against the published store, then recalibrate every cached plan
    /// that depends on an affected relation (all plans when `force`).
    /// Every published recalibration is journaled as a
    /// `daemon.recalibrate` event with before/after root costs.
    pub(crate) fn telemetry_sweep(&self, force: bool) -> SweepSummary {
        self.telemetry.note_sweep();
        let store = self.telemetry.store();
        let flags = self.telemetry.drift_flags(&store);
        let mut affected: BTreeSet<String> =
            flags.iter().map(|f| f.relation.clone()).collect();
        let relations: BTreeSet<String> =
            store.profiles.keys().map(|(rel, _)| rel.clone()).collect();
        for rel in &relations {
            if self.relation_unhealthy(&store, rel) {
                affected.insert(rel.clone());
            }
        }
        let mut summary = SweepSummary {
            drift_flags: flags.len() as u64,
            affected: affected.iter().cloned().collect(),
            checked: 0,
            recalibrated: 0,
        };
        if affected.is_empty() && !force {
            return summary;
        }
        let cooldown = Duration::from_millis(self.config.recalibrate_cooldown_ms);
        let calibrated = self.static_model.calibrated(&store);
        let models = (&self.static_model, &calibrated);
        for entry in self.cache.entries_detail() {
            let Some(prog) = self.cache.peek(&entry.key) else { continue };
            let touched = prog.relations();
            if !force && touched.is_disjoint(&affected) {
                continue;
            }
            if !self.telemetry.cooldown_check(&entry.key, cooldown, force) {
                continue;
            }
            summary.checked += 1;
            let before = root_costs(&prog, models);
            let published =
                recalibrate_published(&self.cache, &entry.key, &self.static_model, &store);
            if !published {
                continue;
            }
            summary.recalibrated += 1;
            self.telemetry.note_recalibration();
            let after = self
                .cache
                .peek(&entry.key)
                .map(|p| root_costs(&p, models))
                .unwrap_or(Json::Null);
            if let Some(journal) = self.recorder.journal() {
                let recalibration = Recalibration {
                    key: entry.key.clone(),
                    forced: force,
                    relations: touched.into_iter().collect(),
                    before,
                    after,
                };
                let ts_ms = self.started.elapsed().as_millis() as u64;
                journal.record(0, ts_ms, |_| Event::Recalibrate(Box::new(recalibration)));
            }
        }
        // The drift we just handled becomes the new expectation, so the
        // same divergence cannot re-trigger the watcher every interval.
        let refresh = if force { &relations } else { &affected };
        self.telemetry.refresh_baselines(&store, refresh);
        summary
    }

    fn relation_unhealthy(&self, store: &lap_obs::FeedbackStore, relation: &str) -> bool {
        store
            .relation_health(relation)
            .is_some_and(|h| h < HEALTH_FLOOR)
    }

    /// The `health` op: per-relation EWMA health and drift rollups.
    fn health_payload(&self) -> (String, Json) {
        let store = self.telemetry.store();
        let flags = self.telemetry.drift_flags(&store);
        let relations: BTreeSet<String> =
            store.profiles.keys().map(|(rel, _)| rel.clone()).collect();
        let mut text = String::new();
        let mut rows = Vec::new();
        for rel in &relations {
            let health = store.relation_health(rel).unwrap_or(0.0);
            let attempts: u64 = store.profiles_of(rel).map(|p| p.attempts).sum();
            let drifted = flags.iter().filter(|f| &f.relation == rel).count() as u64;
            let status = if drifted > 0 {
                "drifting"
            } else if health < HEALTH_FLOOR {
                "unhealthy"
            } else {
                "ok"
            };
            text.push_str(&format!(
                "{rel}: health {health:.2}, {attempts} attempt(s), {status}\n"
            ));
            rows.push(Json::obj([
                ("relation", Json::str(rel)),
                ("health", Json::Num(health)),
                ("attempts", Json::num(attempts)),
                ("drift_flags", Json::num(drifted)),
                ("status", Json::str(status)),
            ]));
        }
        for flag in &flags {
            text.push_str(&format!("drift: {flag}\n"));
        }
        if relations.is_empty() {
            text.push_str("no telemetry folded yet\n");
        }
        let drift = flags
            .iter()
            .map(|f| {
                Json::obj([
                    ("relation", Json::str(&f.relation)),
                    ("pattern", Json::str(&f.pattern)),
                    ("metric", Json::str(&f.metric)),
                    ("observed", Json::Num(f.observed)),
                    ("expected", Json::Num(f.expected)),
                ])
            })
            .collect();
        let data = Json::obj([
            ("relations", Json::Arr(rows)),
            ("drift", Json::Arr(drift)),
            ("folds", Json::num(self.telemetry.folds())),
            ("last_fold_ms", Json::num(self.telemetry.last_fold_ms())),
        ]);
        (text, data)
    }

    /// The `recalibrate` op: one forced sweep over every cached plan.
    fn recalibrate_payload(&self) -> (String, Json) {
        let summary = self.telemetry_sweep(true);
        let text = format!(
            "sweep: {} entr{} checked, {} recalibrated\n",
            summary.checked,
            if summary.checked == 1 { "y" } else { "ies" },
            summary.recalibrated,
        );
        (text, summary.to_json())
    }
}

/// What one telemetry sweep did — the `recalibrate` op's payload.
pub(crate) struct SweepSummary {
    /// Drift flags outstanding when the sweep started.
    pub(crate) drift_flags: u64,
    /// Relations that triggered the sweep (drifting or unhealthy).
    pub(crate) affected: Vec<String>,
    /// Cache entries whose recalibration was attempted.
    pub(crate) checked: u64,
    /// Entries whose recalibrated plans were published.
    pub(crate) recalibrated: u64,
}

impl SweepSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("drift_flags", Json::num(self.drift_flags)),
            (
                "affected",
                Json::Arr(self.affected.iter().map(Json::str).collect()),
            ),
            ("checked", Json::num(self.checked)),
            ("recalibrated", Json::num(self.recalibrated)),
        ])
    }
}

/// Sums the whole-pipeline estimates of a program's underestimate plans
/// under the `(static, calibrated)` models: `est_*` and `cal_*`. A
/// pipeline that is not executable to its end adds nothing.
fn root_costs(prog: &PreparedProgram, (model, calibrated): (&CostModel, &CostModel)) -> Json {
    let total = |model: &CostModel| {
        let parts = prog.queries().iter().flat_map(|q| &q.physical().under.parts);
        parts.fold((0.0, 0.0), |(calls, tuples), part| {
            match op_costs(part, model).get(part.ops.len() - 1) {
                Some(root) => (calls + root.calls, tuples + root.tuples),
                None => (calls, tuples),
            }
        })
    };
    let (est_calls, est_tuples) = total(model);
    let (cal_calls, cal_tuples) = total(calibrated);
    Json::obj([
        ("est_calls", Json::Num(est_calls)),
        ("est_tuples", Json::Num(est_tuples)),
        ("cal_calls", Json::Num(cal_calls)),
        ("cal_tuples", Json::Num(cal_tuples)),
    ])
}

fn histogram_json(snap: &HistogramSnapshot) -> Json {
    Json::obj([
        ("count", Json::num(snap.count)),
        ("mean", Json::Num(snap.mean())),
        ("p50", Json::Num(snap.p50())),
        ("p95", Json::Num(snap.p95())),
        ("p99", Json::Num(snap.p99())),
        ("max", Json::num(snap.max)),
    ])
}

/// Truncates `text` to at most `limit` characters with an ellipsis, for
/// one-line console output of long cache keys.
fn ellipsize(text: &str, limit: usize) -> String {
    if text.chars().count() <= limit {
        return text.to_owned();
    }
    let head: String = text.chars().take(limit.saturating_sub(1)).collect();
    format!("{head}…")
}
