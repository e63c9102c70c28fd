//! `lapbench` — the repository's benchmark.
//!
//! ```text
//! lapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--out <file>] [--trace-out <file>]
//! lapbench compare <base> <change>
//! ```
//!
//! A run generates its inputs from `--seed`, measures for `--seconds`,
//! checks every answer against the one-shot oracle, prints each metric by
//! name with its unit, and ends its standard output with one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. See `README.md`.

mod compare;
mod metrics;
mod oracle;
mod replay;
mod run;
mod serve;
mod stats;
mod trace;
mod workload;

use lap::obs::Json;
use std::process::{Command, ExitCode};
use std::time::Duration;
use workload::Kind;

const USAGE: &str = "usage: lapbench --workload <serve-hit|serve-miss|serve-chaos|oneshot-wide> \
    [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE]\n       \
    lapbench compare <base.json|dir> <change.json|dir>";

/// Default `--seed`.
const DEFAULT_SEED: u64 = 11;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            match compare::compare(args[1].as_ref(), args[2].as_ref()) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(n) => {
                    eprintln!("lapbench compare: {n} regression(s)");
                    ExitCode::FAILURE
                }
                Err(why) => fail(&why),
            }
        }
        Some(_) => match parse_run_args(&args) {
            Ok(run) => bench(run),
            Err(why) => fail(&why),
        },
        None => fail("no arguments"),
    }
}

fn fail(why: &str) -> ExitCode {
    eprintln!("lapbench: {why}\n{USAGE}");
    ExitCode::from(2)
}

struct RunArgs {
    cfg: run::RunConfig,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    let (mut out, mut trace_out) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not a number"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("--seconds {value:?} is not a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} is out of range"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out" => out = Some(value.clone()),
            "--trace-out" => trace_out = Some(value.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(RunArgs {
        cfg: run::RunConfig {
            kind,
            seed,
            window: Duration::from_secs_f64(seconds),
            trace,
        },
        out,
        trace_out,
    })
}

fn bench(args: RunArgs) -> ExitCode {
    let cfg = &args.cfg;
    let result = run::run(cfg);
    let table = if cfg.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let correct = result.failed == 0;

    println!(
        "{} seed {} {:.0} s {}: {} attempted, {} failed",
        cfg.kind.name(),
        cfg.seed,
        cfg.window.as_secs_f64(),
        if cfg.trace { "per layer" } else { "end to end" },
        result.attempted,
        result.failed
    );
    if let Some(why) = &result.first_failure {
        println!("first failure: {why}");
    }
    if result.detail.get("unsteady") == Some(&Json::Bool(true)) {
        println!("unsteady: latency drifted by more than a tenth inside the window");
    }
    if let Some(rounds) = result.detail.get("rounds").and_then(Json::as_arr) {
        for (k, round) in rounds.iter().enumerate() {
            let num = |key: &str| round.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "  round {}: {:.0} samples, {:.2} 1/s, p50 {:.3} ms",
                k + 1,
                num("samples"),
                num("throughput_rps"),
                num("latency_p50_ms")
            );
        }
    }
    let metrics_json = Json::Obj(
        table
            .iter()
            .map(|m| {
                let value = result.metrics[m.name];
                println!("  {:<40} {:>14.4} {}", m.name, value, m.unit);
                (
                    m.name.to_owned(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    );

    let verdict = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(result.attempted)),
        ("failed", Json::num(result.failed)),
        ("metrics", metrics_json.clone()),
    ]);
    if let Some(path) = &args.out {
        let record = Json::obj([
            ("workload", Json::str(cfg.kind.name())),
            ("seed", Json::num(cfg.seed)),
            ("seconds", Json::Num(cfg.window.as_secs_f64())),
            ("trace", Json::num(u64::from(cfg.trace))),
            ("stamp", stamp()),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num(result.attempted)),
            ("failed", Json::num(result.failed)),
            (
                "first_failure",
                result
                    .first_failure
                    .as_deref()
                    .map_or(Json::Null, Json::str),
            ),
            ("detail", result.detail.clone()),
            ("metrics", metrics_json),
        ]);
        if let Err(e) = std::fs::write(path, record.to_pretty() + "\n") {
            eprintln!("lapbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, trace::chrome_trace(&result.spans).to_compact()) {
            eprintln!("lapbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", verdict.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where and with what the numbers were taken.
fn stamp() -> Json {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_owned(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
            )
    };
    Json::obj([
        ("commit", Json::str(tool("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(tool("rustc", &["-V"]))),
        (
            "nproc",
            Json::num(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
    ])
}
