//! `lapd` — the `lap` query daemon.
//!
//! ```text
//! lapd [--bind <addr>] [--max-sessions <n>] [--exec-permits <n>]
//!      [--admission-wait-ms <n>] [--cache-mb <n>] [--idle-timeout-ms <n>]
//!      [--fold-every <n>] [--watch-interval-ms <n>]
//!      [--recalibrate-cooldown-ms <n>]
//! ```
//!
//! Binds the address (default `127.0.0.1:7464`; use port `0` for an
//! ephemeral port), prints `lapd listening on <addr>` once the listener is
//! live, and serves length-prefixed JSON frames (see `lap::proto`) until a
//! client sends a `shutdown` frame. Query answers are byte-identical to
//! one-shot `lapq run`; repeated programs are served from a shared plan
//! cache. Drive it with `lapq query-daemon` or `lapq daemon-ctl`, and
//! load-test it with `lapbench`'s `serve-*` workloads.

use lap::daemon::{DaemonConfig, Server};
use std::process::ExitCode;

const DEFAULT_BIND: &str = "127.0.0.1:7464";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("lapd: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!(
                "  lapd [--bind <addr>] [--max-sessions <n>] [--exec-permits <n>]"
            );
            eprintln!(
                "       [--admission-wait-ms <n>] [--cache-mb <n>] [--idle-timeout-ms <n>]"
            );
            eprintln!(
                "       [--fold-every <n>] [--watch-interval-ms <n>] \
                 [--recalibrate-cooldown-ms <n>]"
            );
            ExitCode::FAILURE
        }
    }
}

/// Valued flags `lapd` accepts. Like `lapq`, a repeated flag is a parse
/// error — never a silent last-one-wins.
const VALUE_FLAGS: &[&str] = &[
    "--bind",
    "--max-sessions",
    "--exec-permits",
    "--admission-wait-ms",
    "--cache-mb",
    "--idle-timeout-ms",
    "--fold-every",
    "--watch-interval-ms",
    "--recalibrate-cooldown-ms",
];

fn run(args: &[String]) -> Result<(), String> {
    let mut values = std::collections::BTreeMap::<String, String>::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            if values.insert(arg.clone(), value.clone()).is_some() {
                return Err(format!("duplicate flag {arg}"));
            }
        } else {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    let u64_flag = |name: &str| -> Result<Option<u64>, String> {
        values
            .get(name)
            .map(|raw| raw.parse::<u64>().map_err(|e| format!("bad {name} value: {e}")))
            .transpose()
    };

    let mut config = DaemonConfig::default();
    if let Some(n) = u64_flag("--max-sessions")? {
        if n == 0 {
            return Err("--max-sessions must be at least 1".to_owned());
        }
        config.max_sessions = n as usize;
    }
    if let Some(n) = u64_flag("--exec-permits")? {
        config.exec_permits = n as usize;
    }
    if let Some(n) = u64_flag("--admission-wait-ms")? {
        config.admission_wait_ms = n;
    }
    if let Some(n) = u64_flag("--cache-mb")? {
        if n == 0 {
            return Err("--cache-mb must be at least 1".to_owned());
        }
        config.cache_bytes = (n as usize).saturating_mul(1024 * 1024);
    }
    if let Some(n) = u64_flag("--idle-timeout-ms")? {
        config.idle_timeout_ms = n;
    }
    if let Some(n) = u64_flag("--fold-every")? {
        config.fold_every_requests = n;
    }
    if let Some(n) = u64_flag("--watch-interval-ms")? {
        config.watch_interval_ms = n;
    }
    if let Some(n) = u64_flag("--recalibrate-cooldown-ms")? {
        config.recalibrate_cooldown_ms = n;
    }

    let bind = values.get("--bind").map(String::as_str).unwrap_or(DEFAULT_BIND);
    let server = Server::start(config, bind).map_err(|e| format!("cannot bind {bind}: {e}"))?;
    println!("lapd listening on {}", server.addr());
    // Scripts scrape the line above to learn an ephemeral port; make sure
    // it is out before the first client connects.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run_until_shutdown();
    println!("lapd: shut down");
    Ok(())
}
