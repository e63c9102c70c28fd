//! The closed-loop load generator: an in-process `lapd` on an ephemeral
//! loopback port, driven by [`CLIENTS`] blocking connections that each send
//! their next request only after the previous response arrived.

use crate::oracle::{one_shot, Expected};
use crate::workload::{Kind, Workload, CLIENTS};
use lap::daemon::{DaemonConfig, Server};
use lap::obs::{HistogramSnapshot, JournalConfig, Snapshot};
use lap::proto::{Client, Response};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A `serve-miss` response is kept for the post-window oracle check when
/// its per-client sequence number is a multiple of this.
const MISS_VERIFY_EVERY: u64 = 64;
/// Stream requests served between ring fill and the measured window, so the
/// plan cache has seen every repeat class.
const SETTLE_REQUESTS: u64 = 32;
/// Longest any warm-up phase may take before the run is given up as failed.
const PHASE_TIMEOUT: Duration = Duration::from_secs(60);

const FILL: u8 = 0;
const SETTLE: u8 = 1;
const MEASURE: u8 = 2;
const DONE: u8 = 3;

/// Expected answers of a workload: one per repeat class, computed once.
pub struct Oracle {
    classes: Vec<Expected>,
}

impl Oracle {
    pub fn compute(w: &Workload) -> Oracle {
        // Class `k` is first reached at stream index `k` in every
        // repeating workload (see `Workload::class_of`).
        let classes = (0..w.classes() as u64)
            .map(|k| {
                let i = (0..)
                    .find(|&i| w.class_of(i) == Some(k as usize))
                    .expect("class occurs");
                one_shot(&w.request(i))
            })
            .collect();
        Oracle { classes }
    }

    /// The expected answer of request `i`; computed on the spot for the
    /// never-repeating `serve-miss`.
    pub fn expected(&self, w: &Workload, i: u64) -> std::borrow::Cow<'_, Expected> {
        match w.class_of(i) {
            Some(class) => std::borrow::Cow::Borrowed(&self.classes[class]),
            None => std::borrow::Cow::Owned(one_shot(&w.request(i))),
        }
    }
}

/// One request completed inside the measured window.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Index of the request in the workload's stream.
    pub index: u64,
    /// Completion time, in seconds since the window opened.
    pub done_s: f64,
    pub latency_ms: f64,
    /// The latency as the wall clock read it; differs from `latency_ms`
    /// only on `oneshot-wide`, whose latencies are clock-normalised.
    pub wall_ms: f64,
}

/// Server-side counters over the measured window only.
#[derive(Clone, Debug, Default)]
pub struct DaemonWindow {
    pub request_us: HistogramSnapshot,
    pub gate_wait_us: HistogramSnapshot,
    pub quota_rejections: u64,
    pub errors: u64,
    pub sweeps: u64,
    pub recalibrations: u64,
}

#[derive(Clone, Debug, Default)]
pub struct ServeOutcome {
    /// Server start, connects and warm-up, up to the window opening.
    pub warmup_s: f64,
    /// Requests completed inside the window, ordered by completion.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub daemon: DaemonWindow,
    /// `oneshot-wide` only: median wall time of the reference kernel its
    /// latencies are scaled by (0 on the `serve-*` workloads).
    pub gauge_ms: f64,
}

struct Control {
    phase: AtomicU8,
    settled: AtomicU64,
    window_open: OnceLock<Instant>,
}

#[derive(Default)]
struct ClientOutcome {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    /// `serve-miss` responses kept for the post-window check.
    kept: Vec<(u64, String)>,
}

impl ClientOutcome {
    /// Counts one failed request, in the measured window or before it.
    fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// The configuration the workload's server runs under: the default, except
/// for the plan-cache budget of `serve-miss`.
pub fn daemon_config(w: &Workload) -> DaemonConfig {
    DaemonConfig {
        cache_bytes: w.cache_bytes(),
        ..DaemonConfig::default()
    }
}

/// Starts a server, warms it to its steady state, measures `window`, and
/// tears everything down again. A zero `window` measures set-up only.
pub fn run(w: &Workload, oracle: &Oracle, window: Duration) -> ServeOutcome {
    let begun = Instant::now();
    let server = Server::start(daemon_config(w), "127.0.0.1:0").expect("ephemeral loopback bind");
    let addr = server.addr();
    let control = Control {
        phase: AtomicU8::new(FILL),
        settled: AtomicU64::new(0),
        window_open: OnceLock::new(),
    };
    // Both session rings must have wrapped: `Journal::snapshot` costs in
    // proportion to the ring's occupancy, so latency keeps climbing until
    // they have. The margin covers the two sessions filling unevenly.
    let fill_events = CLIENTS * JournalConfig::light().capacity as u64 * 11 / 10;

    let mut outcome = ServeOutcome::default();
    let mut daemon_before = Snapshot::default();
    let mut daemon_after = Snapshot::default();
    let mut stalled = None;
    let clients: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let control = &control;
                scope.spawn(move || client_loop(c, addr, w, oracle, control))
            })
            .collect();
        // Waits for a warm-up condition; gives up when a client has returned
        // (only a failed one does before DONE) or the phase takes too long.
        let wait_until = |what: &str, ready: &dyn Fn() -> bool| {
            let begun = Instant::now();
            while !ready() {
                if handles.iter().any(|h| h.is_finished()) || begun.elapsed() > PHASE_TIMEOUT {
                    return Err(format!("warm-up gave up waiting for: {what}"));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(())
        };
        let warmed = wait_until("session rings wrapped", &|| {
            server.metrics().counter("daemon.telemetry.events_folded") >= fill_events
        })
        .and_then(|()| {
            control.phase.store(SETTLE, Ordering::SeqCst);
            wait_until("plan cache settled", &|| {
                control.settled.load(Ordering::SeqCst) >= SETTLE_REQUESTS
                    && (w.kind != Kind::ServeMiss
                        || server.metrics().counter("plan_cache.eviction") > 0)
            })
        });
        outcome.warmup_s = begun.elapsed().as_secs_f64();
        match warmed {
            Ok(()) => {
                daemon_before = server.metrics();
                control
                    .window_open
                    .set(Instant::now())
                    .expect("window opens once");
                control.phase.store(MEASURE, Ordering::SeqCst);
                std::thread::sleep(window);
                daemon_after = server.metrics();
            }
            Err(why) => stalled = Some(why),
        }
        control.phase.store(DONE, Ordering::SeqCst);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    server.shutdown();

    outcome.daemon = daemon_window(&daemon_before, &daemon_after);
    let window_s = window.as_secs_f64();
    for mut client in clients {
        // Post-window check of the sampled `serve-miss` responses.
        for (i, text) in client.kept.drain(..) {
            if text != oracle.expected(w, i).text {
                client.failed += 1;
                client.first_failure.get_or_insert(format!(
                    "request {i}: bytes differ from the one-shot oracle"
                ));
            }
        }
        outcome
            .samples
            .extend(client.samples.into_iter().filter(|s| s.done_s <= window_s));
        outcome.attempted += client.attempted;
        outcome.failed += client.failed;
        if outcome.first_failure.is_none() {
            outcome.first_failure = client.first_failure;
        }
    }
    // A warm-up that never finished is a failed run even if no request was
    // seen to fail (a client's own failure, when there is one, says more).
    if let Some(why) = stalled {
        outcome.attempted += 1;
        outcome.failed += 1;
        outcome.first_failure.get_or_insert(why);
    }
    outcome
        .samples
        .sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    outcome
}

/// The high-water mark of this process's resident set (`VmHWM`), in MiB;
/// 0 where `/proc` is missing.
pub fn peak_resident_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn client_loop(
    c: u64,
    addr: std::net::SocketAddr,
    w: &Workload,
    oracle: &Oracle,
    control: &Control,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let connect = || {
        let mut client = Client::connect(addr)?;
        client.set_timeout(Some(Duration::from_secs(30)))?;
        Ok::<Client, std::io::Error>(client)
    };
    let Ok(mut client) = connect() else {
        out.fail(format!("client {c}: cannot connect"));
        return out;
    };
    let mut i = c;
    loop {
        let phase = control.phase.load(Ordering::SeqCst);
        if phase == DONE {
            break;
        }
        if let (FILL, Some((program, facts))) = (phase, &w.filler) {
            if !matches!(
                client.query(program, facts, Default::default()),
                Ok(Response::Ok { .. })
            ) {
                out.fail(format!("client {c}: filler request failed"));
                break;
            }
            continue;
        }
        let req = w.request(i);
        let sent = Instant::now();
        let reply = client.query(&req.program, req.facts, req.options.clone());
        let latency = sent.elapsed();
        let verdict = match &reply {
            Ok(Response::Ok { text, .. }) => match w.class_of(i) {
                Some(_) if *text != oracle.expected(w, i).text => {
                    Err("bytes differ from the one-shot oracle".to_owned())
                }
                _ => Ok(()),
            },
            Ok(Response::Error { code, message, .. }) => Err(format!("{code}: {message}")),
            Err(e) => Err(e.to_string()),
        };
        match verdict {
            Err(why) => {
                out.fail(format!("request {i}: {why}"));
                // A failed warm-up ends this client, and with it the run. In
                // the window a closed or panic-killed session is one failed
                // request: carry on over a new connection.
                if phase != MEASURE {
                    break;
                }
                match connect() {
                    Ok(fresh) => client = fresh,
                    Err(_) => break,
                }
            }
            Ok(()) if phase == MEASURE => {
                out.attempted += 1;
                let opened = *control.window_open.get().expect("set before MEASURE");
                out.samples.push(Sample {
                    index: i,
                    done_s: opened.elapsed().as_secs_f64(),
                    latency_ms: latency.as_secs_f64() * 1e3,
                    wall_ms: latency.as_secs_f64() * 1e3,
                });
                if let (None, Ok(Response::Ok { text, .. })) = (w.class_of(i), reply) {
                    if (i / CLIENTS).is_multiple_of(MISS_VERIFY_EVERY) {
                        out.kept.push((i, text));
                    }
                }
            }
            Ok(()) => {
                if phase == SETTLE {
                    control.settled.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        i += CLIENTS;
    }
    out
}

fn daemon_window(before: &Snapshot, after: &Snapshot) -> DaemonWindow {
    let counter = |name: &str| after.counter(name) - before.counter(name);
    let histogram = |name: &str| {
        let empty = HistogramSnapshot::default();
        let a = after.metrics.histograms.get(name).unwrap_or(&empty);
        let b = before.metrics.histograms.get(name).unwrap_or(&empty);
        HistogramSnapshot {
            count: a.count - b.count,
            sum: a.sum - b.sum,
            max: a.max,
            buckets: a
                .buckets
                .iter()
                .enumerate()
                .map(|(k, n)| n - b.buckets.get(k).copied().unwrap_or(0))
                .collect(),
        }
    };
    DaemonWindow {
        request_us: histogram("daemon.request_us"),
        gate_wait_us: histogram("daemon.gate_wait_us"),
        quota_rejections: counter("daemon.quota_rejections"),
        errors: counter("daemon.errors"),
        sweeps: counter("daemon.telemetry.sweeps"),
        recalibrations: counter("daemon.telemetry.recalibrations"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request that fails before the window opens is still a failed
    /// request: the run must not report `failed: 0` with a client gone.
    #[test]
    fn failures_before_the_window_are_counted() {
        let w = Workload::generate(Kind::ServeHit, 11);
        let oracle = Oracle::compute(&w);
        let control = Control {
            phase: AtomicU8::new(FILL),
            settled: AtomicU64::new(0),
            window_open: OnceLock::new(),
        };
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");

        // A session that closes on its first request, during ring fill.
        let out = std::thread::scope(|scope| {
            let client = scope.spawn(|| client_loop(0, addr, &w, &oracle, &control));
            drop(listener.accept().expect("accept"));
            client.join().expect("client thread")
        });
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert!(out.samples.is_empty());
        assert!(out.first_failure.is_some());

        // Nobody listening at all.
        drop(listener);
        let out = client_loop(0, addr, &w, &oracle, &control);
        assert_eq!((out.attempted, out.failed), (1, 1));
    }
}
