//! `lapd` — a long-running query service over the `lap` pipeline.
//!
//! One-shot `lapq run` pays parse + PLAN\* + lowering on every
//! invocation. The daemon amortizes all three across requests and
//! clients: sessions (one thread per TCP connection, length-prefixed JSON
//! frames — see [`lap_proto`]) share a [`PlanCache`] of compiled
//! [`PreparedProgram`]s keyed on canonical query text and a bounded
//! admission gate (`daemon::gate`) that converts overload into
//! `quota` error frames instead of unbounded queueing. Neither path
//! decides FEASIBLE: ANSWER\* derives completeness at run time.
//!
//! [`PlanCache`]: lap_core::PlanCache
//! [`PreparedProgram`]: lap_core::PreparedProgram
//!
//! The answer contract is **byte identity**: a `query` response's `text`
//! equals what one-shot `lapq run` prints for the same program, facts,
//! and options — whether the plans came from the cache or were compiled
//! on the miss path. The contract table (`tests/contract_table`) compares
//! the two on every daemon row, in process and through the `lapd` binary.
//!
//! ```no_run
//! use lap::daemon::{DaemonConfig, Server};
//! use lap_proto::{Client, QueryOptions, Response};
//!
//! let server = Server::start(DaemonConfig::default(), "127.0.0.1:0").unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let resp = client
//!     .query("C^oo.\nQ(i) :- C(i, a).", "C(1, \"a\").", QueryOptions::default())
//!     .unwrap();
//! if let Response::Ok { text, .. } = resp {
//!     print!("{text}");
//! }
//! server.shutdown();
//! ```

mod gate;
mod service;
mod session;
mod telemetry;

use lap_obs::Json;
use lap_proto::{write_frame, ErrorCode, Response};
use service::Service;
use std::io;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a daemon instance. `Default` is sized for a local
/// development daemon; every field can be overridden from the `lapd` CLI.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Maximum concurrent sessions (connections). A connection beyond the
    /// cap is answered with one `quota` error frame and closed.
    pub max_sessions: usize,
    /// Concurrent query executions (admission-gate permits). `0` sizes
    /// the gate to the machine's available parallelism.
    pub exec_permits: usize,
    /// Longest a request waits for an execution permit before it is
    /// rejected with a `quota` frame. A request carrying a smaller
    /// `deadline_ms` waits at most that instead.
    pub admission_wait_ms: u64,
    /// Plan-cache byte budget (estimated bytes; LRU eviction past it).
    pub cache_bytes: usize,
    /// Close a session after this much idle time on the read side
    /// (`0` = never).
    pub idle_timeout_ms: u64,
    /// Fold a session's journal into the shared telemetry store every
    /// this many query requests (`0` = only at session end). The fold is
    /// incremental: it reads the journal ring from a cursor, so one costs
    /// O(events since the last fold) + O(resident profiles) for the store
    /// clone, not O(ring), and the default of every request stays cheap
    /// (`daemon.fold_us` in `stats` times it).
    pub fold_every_requests: u64,
    /// Telemetry watcher interval: how often drift flags and relation
    /// health are evaluated against the cached plans (`0` = no watcher;
    /// the `recalibrate` op still forces sweeps on demand).
    pub watch_interval_ms: u64,
    /// Minimum time between recalibration attempts of the same cache
    /// entry (`0` = no cooldown). Forced sweeps ignore it.
    pub recalibrate_cooldown_ms: u64,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            max_sessions: 256,
            exec_permits: 0,
            admission_wait_ms: 1_000,
            cache_bytes: lap_core::DEFAULT_CACHE_BYTES,
            idle_timeout_ms: 0,
            fold_every_requests: 1,
            watch_interval_ms: 500,
            recalibrate_cooldown_ms: 2_000,
        }
    }
}

impl DaemonConfig {
    /// The resolved admission-gate size: the configured permit count, or
    /// the machine's available parallelism when left at `0`.
    pub fn exec_permits(&self) -> usize {
        if self.exec_permits > 0 {
            self.exec_permits
        } else {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        }
    }
}

/// A running daemon: the bound listener plus its accept thread. Dropping
/// the handle does **not** stop the daemon; call [`Server::shutdown`] (or
/// send a `shutdown` frame) for a clean stop.
pub struct Server {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
    service: Arc<Service>,
}

impl Server {
    /// Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting sessions on a background thread. When the config
    /// enables the telemetry watcher, its thread starts here too.
    pub fn start(config: DaemonConfig, bind: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let watch = config.watch_interval_ms > 0;
        let service = Arc::new(Service::new(config));
        service.set_addr(addr);
        let svc = Arc::clone(&service);
        let accept = std::thread::Builder::new()
            .name("lapd-accept".to_owned())
            .spawn(move || accept_loop(listener, svc))?;
        let watcher = if watch {
            let svc = Arc::clone(&service);
            Some(
                std::thread::Builder::new()
                    .name("lapd-telemetry".to_owned())
                    .spawn(move || svc.watch_loop())?,
            )
        } else {
            None
        };
        Ok(Server { addr, accept: Some(accept), watcher, service })
    }

    /// The address the daemon is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Daemon statistics as JSON — same payload a `stats` frame returns.
    pub fn stats_json(&self) -> Json {
        self.service.stats_json()
    }

    /// Snapshot of the server-wide metrics (plan-cache and daemon
    /// counters).
    pub fn metrics(&self) -> lap_obs::Snapshot {
        self.service.recorder().snapshot()
    }

    /// Snapshot of the server-wide journal — watcher actions
    /// (`daemon.recalibrate` events) land here.
    pub fn journal(&self) -> Option<lap_obs::JournalSnapshot> {
        self.service.recorder().journal().map(|j| j.snapshot())
    }

    /// True once a shutdown has been requested (by this handle or by a
    /// client's `shutdown` frame).
    pub fn is_shutting_down(&self) -> bool {
        self.service.shutting_down()
    }

    /// Stops accepting connections, waits for the accept thread, then
    /// drains the sessions. Safe to call after a client-initiated
    /// shutdown; idempotent.
    pub fn shutdown(mut self) {
        self.service.request_shutdown();
        self.drain();
    }

    /// Blocks until a client-initiated shutdown stops the accept loop —
    /// the `lapd` binary's main loop.
    pub fn run_until_shutdown(mut self) {
        self.drain();
    }

    /// Joins the accept loop and the watcher, then waits for the sessions.
    /// Shutdown closed their read halves, so idle sessions end at once and
    /// a session answering a request ends after writing its answer; one
    /// stuck longer than the grace period is abandoned (its thread exits
    /// with the process).
    fn drain(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.watcher.take() {
            let _ = handle.join();
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.service.active_sessions() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn accept_loop(listener: TcpListener, service: Arc<Service>) {
    for stream in listener.incoming() {
        if service.shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Session cap: refuse with a single quota frame instead of letting
        // connections pile up unanswered.
        if !service.try_open_session() {
            refuse_over_capacity(stream, &service);
            continue;
        }
        let svc = Arc::clone(&service);
        let spawned = std::thread::Builder::new()
            .name("lapd-session".to_owned())
            .spawn(move || session::run_session(stream, svc));
        if spawned.is_err() {
            // Thread exhaustion: give the slot back; the client sees EOF.
            service.close_session();
        }
    }
}

fn refuse_over_capacity(mut stream: TcpStream, service: &Service) {
    let resp = Response::Error {
        id: 0,
        code: ErrorCode::Quota,
        message: format!(
            "session limit reached ({} active)",
            service.config().max_sessions
        ),
    };
    let _ = write_frame(&mut stream, &resp.to_json());
    // Half-close and drain until the peer hangs up: a full close while the
    // client is still sending would RST the connection and can discard the
    // refusal frame before the client reads it. Bounded so a stuck peer
    // cannot pin the accept loop.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 256];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}
