//! `lapq` — command-line front end for the `lap` library.
//!
//! The command synopsis is the `USAGE` constant below, which every failing
//! invocation prints. Under seeded fault injection (`--fault-rate` and the
//! other resilience flags) sources fail with probability p, calls are
//! retried with backoff, and disjuncts whose source stays down are dropped
//! and reported. `--domain` (dom(x) refinement) is refused together with a
//! resilience flag. `query-daemon` runs the query on a `lapd` daemon, with
//! output byte-identical to `lapq run`.
//!
//! Every command additionally accepts `--trace` (print the span tree and
//! metric counters to stderr when done) and `--metrics-json <file>` (write
//! the same snapshot as JSON). The flight recorder is engaged by
//! `--journal <file>` (structured event journal with captured inputs and
//! rows — replayable with `lapq replay`), `--chrome-trace <file>`
//! (Perfetto / `chrome://tracing` loadable trace), `--journal-capacity
//! <n>` (ring size), and `--journal-sample <n>` (record every n-th source
//! call). `run`/`answer`/`explain` accept `--feedback <profile.json>` (a
//! `lapq calibrate` output): plan bodies are re-ordered under the
//! journal-calibrated cost model before execution, and `explain` annotates
//! each operator with both the static and the calibrated estimate. A
//! program file holds access-pattern declarations and rules (see
//! README); a facts file holds ground atoms (`B(1, "tolkien", "lotr").`).

mod cli;

use cli::CliArgs;
use lap::core::{
    answer_star_opts, answer_star_with_domain, feasible_detailed_with, is_executable,
    is_orderable, render_answer_report, render_outcome, AnswerOptions, AnswerOutcome,
    AnswerReport, ContainmentEngine, DecisionPath, EngineConfig,
};
use lap::engine::{
    display_tuple, Database, ExecConfig, ReplaySource, ResilienceConfig, RetryPolicy,
};
use lap::ir::{parse_program, Program, UnionQuery};
use lap::obs::{
    chrome_trace, render_report, render_text, validate_chrome_trace, FeedbackStore,
    JournalConfig, JournalSnapshot, Json, JsonSink, Recorder, Sink,
};
use lap::planner::{optimize_plan_pair, CostModel, Strategy};
use std::process::ExitCode;

/// Every op `daemon-ctl` speaks, spelled once for [`USAGE`] and both
/// unknown-op errors.
macro_rules! daemon_ctl_ops {
    () => {
        "ping | stats | profile | health | recalibrate | shutdown"
    };
}
const DAEMON_CTL_OPS: &str = daemon_ctl_ops!();

/// The command synopsis, printed after every error.
const USAGE: &str = concat!(
    "usage:
  lapq check <program.lap> [--constraints <sigma.lap>] [--parallel] [--cache]
  lapq explain <program.lap> [--feedback <profile.json>] [--batch-width <n>] [--parallel] [--cache]
  lapq plan <program.lap>
  lapq run <program.lap> <facts.lap> [--domain <budget>] [--feedback <profile.json>]
           [--fault-rate <p>] [--fault-seed <n>] [--latency-ms <n>] [--timeout-ms <n>] [--retry <n>] [--retry-budget-ms <n>] [--io-workers <n>] [--batch-width <n>]
           [--journal <file>] [--journal-capacity <n>] [--journal-sample <n>] [--chrome-trace <file>]
  lapq answer  (alias of run)
  lapq replay <journal.json>
  lapq report <journal.json>
  lapq calibrate <journal.json>... --out <profile.json>
  lapq contain <program.lap> <P> <Q> [--parallel] [--cache]
  lapq mediate <views.lap> <query.lap> <facts.lap> [--parallel] [--cache]
  lapq optimize <program.lap> [facts.lap]
  lapq profile <program.lap> <facts.lap> [--batch-width <n>] [--io-workers <n>]
  lapq obs-validate <metrics|journal|chrome-trace|feedback .json>
  lapq query-daemon <program.lap> <facts.lap> --addr <host:port> [run's resilience/executor flags]
  lapq daemon-ctl <host:port> <",
    daemon_ctl_ops!(),
    ">
every command also takes [--trace] [--metrics-json <file>]
"
);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("lapq: {msg}");
            eprintln!();
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    let args = CliArgs::parse(raw)?;
    let cmd = args.require(0, "missing command")?.to_owned();
    let recorder = match (journal_config_from_args(&args)?, args.flag("--trace")) {
        (Some(cfg), true) => Recorder::with_tracing_and_journal(cfg),
        (Some(cfg), false) => Recorder::with_journal(cfg),
        (None, true) => Recorder::with_tracing(),
        (None, false) if args.value("--metrics-json").is_some() => Recorder::new(),
        (None, false) => Recorder::disabled(),
    };
    dispatch(&cmd, &args, &recorder)?;
    export(&recorder, &args)
}

/// Valued flags that engage the flight recorder.
const JOURNAL_FLAGS: &[&str] = &[
    "--journal",
    "--journal-capacity",
    "--journal-sample",
    "--chrome-trace",
];

/// Builds the journal configuration selected by the journal flags, or
/// `None` when the flight recorder was not requested. `--journal` records
/// in replay fidelity (inputs and rows captured); `--chrome-trace` alone
/// records the light always-on tier.
fn journal_config_from_args(args: &CliArgs) -> Result<Option<JournalConfig>, String> {
    if !args.any_value(JOURNAL_FLAGS) {
        return Ok(None);
    }
    let mut cfg = if args.value("--journal").is_some() {
        JournalConfig::replay()
    } else {
        JournalConfig::light()
    };
    if let Some(cap) = args.value_u64("--journal-capacity")? {
        if cap == 0 {
            return Err("--journal-capacity must be at least 1".to_owned());
        }
        cfg.capacity = cap as usize;
    }
    if let Some(every) = args.value_u64("--journal-sample")? {
        if every == 0 {
            return Err("--journal-sample must be at least 1".to_owned());
        }
        cfg.sample_every = every;
    }
    Ok(Some(cfg))
}

fn dispatch(cmd: &str, args: &CliArgs, recorder: &Recorder) -> Result<(), String> {
    match cmd {
        "check" => check(
            args.require(1, "check needs a program file")?,
            args.value("--constraints"),
            &engine_from_args(args, recorder),
            recorder,
        ),
        "explain" => explain_cmd(
            args.require(1, "explain needs a program file")?,
            feedback_from_args(args)?.as_ref(),
            execution_from_args(args)?.0,
            &engine_from_args(args, recorder),
            recorder,
        ),
        "plan" => plan(args.require(1, "plan needs a program file")?, recorder),
        "run" | "answer" => {
            let (exec, resilience) = execution_from_args(args)?;
            run_query(
                args.require(1, "run needs a program file")?,
                args.require(2, "run needs a facts file")?,
                args.value_u64("--domain")?,
                resilience.as_ref(),
                exec,
                feedback_from_args(args)?.as_ref(),
                recorder,
            )
        }
        "profile" => profile(
            args.require(1, "profile needs a program file")?,
            args.require(2, "profile needs a facts file")?,
            execution_from_args(args)?.0,
            recorder,
        ),
        "optimize" => optimize(
            args.require(1, "optimize needs a program file")?,
            args.positional(2),
            recorder,
        ),
        "mediate" => mediate(
            args.require(1, "mediate needs a views file")?,
            args.require(2, "mediate needs a query file")?,
            args.require(3, "mediate needs a facts file")?,
            args,
            recorder,
        ),
        "contain" => containment(
            args.require(1, "contain needs a program file")?,
            args.require(2, "contain needs the name of P")?,
            args.require(3, "contain needs the name of Q")?,
            &engine_from_args(args, recorder),
            recorder,
        ),
        "query-daemon" => query_daemon(
            args.require(1, "query-daemon needs a program file")?,
            args.require(2, "query-daemon needs a facts file")?,
            args.value("--addr").ok_or("query-daemon needs --addr <host:port>")?,
            args,
        ),
        "daemon-ctl" => daemon_ctl(
            args.require(1, "daemon-ctl needs <host:port>")?,
            args.require(2, &format!("daemon-ctl needs an op: {DAEMON_CTL_OPS}"))?,
        ),
        "replay" => replay_cmd(args.require(1, "replay needs a journal file")?, recorder),
        "report" => report_cmd(args.require(1, "report needs a journal file")?),
        "calibrate" => calibrate_cmd(args),
        "obs-validate" => obs_validate(args.require(1, "obs-validate needs a json file")?),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// The executor configuration and, when any resilience flag is present,
/// the fault + retry profile the flags select — the same translation the
/// daemon applies to a request's options, with the offending option
/// reported under its flag name.
fn execution_from_args(
    args: &CliArgs,
) -> Result<(ExecConfig, Option<ResilienceConfig>), String> {
    lap::execution_from_options(&query_options_from_args(args)?)
        .map_err(|bad| format!("--{} {}", bad.option.replace('_', "-"), bad.problem))
}

/// Loads and validates the `--feedback <profile.json>` calibration profile
/// (a `lapq calibrate` output), or `None` when the flag was not given.
fn feedback_from_args(args: &CliArgs) -> Result<Option<FeedbackStore>, String> {
    let Some(path) = args.value("--feedback") else {
        return Ok(None);
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = lap::obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let store = FeedbackStore::from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
    store
        .validate()
        .map_err(|e| format!("{path}: invalid feedback profile: {e}"))?;
    Ok(Some(store))
}

/// Builds the containment engine selected by the global `--parallel` and
/// `--cache` flags (default: sequential, uncached), reporting to
/// `recorder`.
fn engine_from_args(args: &CliArgs, recorder: &Recorder) -> ContainmentEngine {
    ContainmentEngine::with_recorder(
        EngineConfig {
            parallel: args.flag("--parallel"),
            cache: args.flag("--cache"),
        },
        recorder,
    )
}

/// Prints the recorder snapshot per the `--trace` / `--metrics-json` flags
/// and writes the flight-recorder exports (`--journal`, `--chrome-trace`).
fn export(recorder: &Recorder, args: &CliArgs) -> Result<(), String> {
    if let Some(journal) = recorder.journal() {
        let snap = journal.snapshot();
        if let Some(path) = args.value("--journal") {
            std::fs::write(path, snap.to_json().to_pretty())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = args.value("--chrome-trace") {
            std::fs::write(path, chrome_trace(&snap).to_pretty())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    if !recorder.metrics_enabled() {
        return Ok(());
    }
    let snapshot = recorder.snapshot();
    if args.flag("--trace") {
        eprint!("{}", render_text(&snapshot));
    }
    if let Some(path) = args.value("--metrics-json") {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        JsonSink::new(file)
            .export(&snapshot)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn load(path: &str, recorder: &Recorder) -> Result<Program, String> {
    let _span = recorder.span("parse");
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_program(&text).map_err(|e| format!("{path}: {e}"))
}

fn check(
    path: &str,
    constraints_path: Option<&str>,
    engine: &ContainmentEngine,
    recorder: &Recorder,
) -> Result<(), String> {
    let program = load(path, recorder)?;
    if program.queries.is_empty() {
        return Err(format!("{path}: no queries defined"));
    }
    let constraints = match constraints_path {
        Some(cp) => {
            let text = std::fs::read_to_string(cp)
                .map_err(|e| format!("cannot read {cp}: {e}"))?;
            Some(
                lap::constraints::parse_constraints(&text, &program.schema)
                    .map_err(|e| format!("{cp}: {e}"))?,
            )
        }
        None => None,
    };
    for query in &program.queries {
        report_query(query, &program, engine)?;
        if let Some(cs) = &constraints {
            let under = lap::constraints::feasible_under(query, cs, &program.schema, engine);
            println!("  under Σ:    feasible = {} ({:?})", under.feasible, under.decided_by);
            let pruned = lap::constraints::prune_unsatisfiable(query, cs);
            if pruned.disjuncts.len() != query.disjuncts.len() {
                println!(
                    "  Σ pruned {} of {} disjunct(s)",
                    query.disjuncts.len() - pruned.disjuncts.len(),
                    query.disjuncts.len()
                );
            }
            println!();
        }
    }
    Ok(())
}

fn report_query(
    query: &UnionQuery,
    program: &Program,
    engine: &ContainmentEngine,
) -> Result<(), String> {
    println!("query {}:", query.signature.0);
    for d in &query.disjuncts {
        println!("  {d}");
    }
    if !query.is_safe() {
        println!("  UNSAFE query (a variable does not occur positively); skipping analysis");
        return Ok(());
    }
    println!("  executable: {}", is_executable(query, &program.schema));
    println!("  orderable:  {}", is_orderable(query, &program.schema));
    let report = feasible_detailed_with(query, &program.schema, engine);
    let how = match report.decided_by {
        DecisionPath::PlansCoincide => "plans coincide — no containment check needed",
        DecisionPath::OverestimateHasNull => "overestimate has null — ans(Q) unsafe",
        DecisionPath::ContainmentCheck => "containment check ans(Q) ⊑ Q",
    };
    println!("  feasible:   {} ({how})", report.feasible);
    if let Some(stats) = &report.containment {
        println!(
            "  containment: {} recursive call(s), {} memo hit(s), {} mapping(s), {} worker(s), engine cache {}",
            stats.recursive_calls,
            stats.cache_hits,
            stats.mappings_checked,
            stats.parallel_workers,
            if stats.engine_cache_hits > 0 { "hit" } else { "miss" },
        );
    }
    if report.feasible {
        println!("  plan:");
        for part in &report.plans.over.parts {
            println!("    {}", part.display_with(&program.schema));
        }
    }
    println!();
    Ok(())
}

fn explain_cmd(
    path: &str,
    feedback: Option<&FeedbackStore>,
    exec: ExecConfig,
    engine: &ContainmentEngine,
    recorder: &Recorder,
) -> Result<(), String> {
    let program = load(path, recorder)?;
    if program.queries.is_empty() {
        return Err(format!("{path}: no queries defined"));
    }
    // `--batch-width` steers the estimated batch-window counts in the
    // operator annotations (calls/tuples are width-independent).
    let model = CostModel::new().with_batch_width(exec.batch_size);
    let calibrated = feedback.map(|store| model.calibrated(store));
    for query in &program.queries {
        println!("query {}:", query.signature.0);
        print!("{}", lap::core::explain_with(query, &program.schema, engine));
        // The lowered operator trees: what ANSWER* will actually run, with
        // the chosen access patterns and default-model cost estimates.
        // With `--feedback`, the bodies are re-ordered under the calibrated
        // model and every operator shows est (static) next to cal
        // (calibrated) — the two numbers explain *why* the plan changed.
        let pair = lap::core::plan_star(query, &program.schema);
        let physical = match &calibrated {
            Some(cal) => {
                let optimized =
                    optimize_plan_pair(&pair, &program.schema, cal, Strategy::Exhaustive);
                lap::planner::lower_dual(&optimized, &program.schema, &model, cal)
            }
            None => lap::planner::lower(&pair, &program.schema, &model),
        };
        println!("  physical plan (underestimate):");
        for line in physical.under.to_string().lines() {
            println!("    {line}");
        }
        println!("  physical plan (overestimate):");
        for line in physical.over.to_string().lines() {
            println!("    {line}");
        }
        println!();
    }
    println!("containment engine: {}", engine.stats());
    Ok(())
}

fn plan(path: &str, recorder: &Recorder) -> Result<(), String> {
    let program = load(path, recorder)?;
    for query in &program.queries {
        let pair = lap::core::plan_star_obs(query, &program.schema, recorder);
        println!("query {}:", query.signature.0);
        println!("  underestimate Qu:");
        for p in &pair.under.parts {
            println!("    {}", p.display_with(&program.schema));
        }
        if pair.under.is_false() {
            println!("    {} :- false.", pair.under.head);
        }
        println!("  overestimate Qo:");
        for p in &pair.over.parts {
            println!("    {}", p.display_with(&program.schema));
        }
        if pair.over.is_false() {
            println!("    {} :- false.", pair.over.head);
        }
        println!();
    }
    Ok(())
}

/// Prints the body of an [`AnswerReport`]: certain answers, the
/// completeness verdict, possible extra tuples, and call statistics.
/// Delegates to the shared renderer so the daemon and the CLI cannot
/// drift apart byte-wise.
fn print_answer_report(rep: &AnswerReport) {
    print!("{}", render_answer_report(rep));
}

/// Prints the resilience tail of an [`AnswerOutcome`]: degraded disjuncts
/// and retry/failure/virtual-clock totals. Shared by `run` (resilient
/// mode) and `replay`, whose outputs must match byte for byte — and with
/// the daemon, via the shared renderer.
fn print_outcome(outcome: &AnswerOutcome) {
    print!("{}", render_outcome(outcome));
}

fn run_query(
    program_path: &str,
    facts_path: &str,
    domain: Option<u64>,
    resilience: Option<&ResilienceConfig>,
    cfg: ExecConfig,
    feedback: Option<&FeedbackStore>,
    recorder: &Recorder,
) -> Result<(), String> {
    // The refinement is a separate fault-free run that the resilient
    // path never reaches; refuse rather than drop `--domain` silently.
    if domain.is_some() && resilience.is_some() {
        return Err("--domain cannot be combined with a resilience flag (--fault-rate, \
                    --fault-seed, --latency-ms, --timeout-ms, --retry, --retry-budget-ms, \
                    --io-workers): dom(x) refinement does not run under resilient execution"
            .to_owned());
    }
    let text = std::fs::read_to_string(program_path)
        .map_err(|e| format!("cannot read {program_path}: {e}"))?;
    let program = {
        let _span = recorder.span("parse");
        parse_program(&text).map_err(|e| format!("{program_path}: {e}"))?
    };
    // The journal carries the full program text so `lapq replay` can
    // re-derive the schema and plans without the original files.
    if let Some(journal) = recorder.journal() {
        journal.merge_meta([("program", Json::str(text.as_str()))]);
    }
    let facts = std::fs::read_to_string(facts_path)
        .map_err(|e| format!("cannot read {facts_path}: {e}"))?;
    let db = Database::from_facts(&facts).map_err(|e| format!("{facts_path}: {e}"))?;
    let calibrated = feedback.map(|store| CostModel::new().calibrated(store));
    for query in &program.queries {
        println!("query {}:", query.signature.0);
        // With `--feedback`, re-order the plan bodies under the calibrated
        // model before executing — same answers, cheaper call schedule.
        let planned = calibrated.as_ref().map(|cal| {
            let pair = lap::core::plan_star(query, &program.schema);
            optimize_plan_pair(&pair, &program.schema, cal, Strategy::Exhaustive)
        });
        let opts = AnswerOptions { recorder, exec: cfg, resilience, plans: planned.as_ref() };
        let outcome = answer_star_opts(query, &program.schema, &db, &opts)
            .map_err(|e| format!("evaluating {}: {e}", query.signature.0))?;
        if resilience.is_some() {
            print_outcome(&outcome);
            continue;
        }
        print_answer_report(&outcome.report);
        if recorder.metrics_enabled() {
            // Observability run: also record the FEASIBLE decision so the
            // exported span tree covers the whole pipeline (parse →
            // answerable → plan* → feasible → answer*), not just ANSWER*.
            let engine = ContainmentEngine::with_recorder(EngineConfig::default(), recorder);
            let _ = feasible_detailed_with(query, &program.schema, &engine);
        }
        if let Some(budget) = domain {
            let imp = answer_star_with_domain(query, &program.schema, &db, budget)
                .map_err(|e| format!("domain refinement: {e}"))?;
            let extra: Vec<String> = imp
                .improved_under
                .difference(&imp.base.under)
                .map(|t| display_tuple(t))
                .collect();
            println!(
                "  -- dom(x) refinement recovered {} extra certain answer(s){}{} ({} calls, fixpoint: {})",
                extra.len(),
                if extra.is_empty() { "" } else { ": " },
                extra.join(", "),
                imp.domain_calls,
                imp.domain_complete,
            );
        }
        println!();
    }
    Ok(())
}

/// Maps the resilience/executor flags onto daemon
/// [`QueryOptions`](lap::proto::QueryOptions) — the same flags `run`
/// takes, so `lapq query-daemon` output can be `cmp`ed against one-shot
/// `lapq run` byte for byte.
fn query_options_from_args(args: &CliArgs) -> Result<lap::proto::QueryOptions, String> {
    Ok(lap::proto::QueryOptions {
        io_workers: args.value_u64("--io-workers")?,
        batch_width: args.value_u64("--batch-width")?,
        fault_rate: args.value_f64("--fault-rate")?,
        fault_seed: args.value_u64("--fault-seed")?,
        latency_ms: args.value_u64("--latency-ms")?,
        timeout_ms: args.value_u64("--timeout-ms")?,
        retry: args.value_u64("--retry")?,
        deadline_ms: args.value_u64("--retry-budget-ms")?,
    })
}

/// `lapq query-daemon <program> <facts> --addr <host:port>`: ship the
/// files to a running `lapd` and print the daemon's answer text verbatim.
fn query_daemon(
    program_path: &str,
    facts_path: &str,
    addr: &str,
    args: &CliArgs,
) -> Result<(), String> {
    let program = std::fs::read_to_string(program_path)
        .map_err(|e| format!("cannot read {program_path}: {e}"))?;
    let facts = std::fs::read_to_string(facts_path)
        .map_err(|e| format!("cannot read {facts_path}: {e}"))?;
    let options = query_options_from_args(args)?;
    let mut client = lap::proto::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match client.query(&program, &facts, options).map_err(|e| format!("daemon: {e}"))? {
        lap::proto::Response::Ok { text, .. } => {
            print!("{text}");
            Ok(())
        }
        lap::proto::Response::Error { code, message, .. } => {
            Err(format!("daemon error ({code}): {message}"))
        }
    }
}

/// `lapq daemon-ctl <host:port> <op>`: one control frame, print the
/// response. `profile` prints the structured payload (the live feedback
/// profile JSON, pipeable into `lapq obs-validate`); every other op
/// prints the response text.
fn daemon_ctl(addr: &str, op: &str) -> Result<(), String> {
    let mut client = lap::proto::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let resp = match op {
        "ping" => client.ping(),
        "stats" => client.stats(),
        "profile" => client.profile(),
        "health" => client.health(),
        "recalibrate" => client.recalibrate(),
        "shutdown" => client.shutdown(),
        other => {
            return Err(format!("unknown daemon-ctl op {other:?} ({DAEMON_CTL_OPS})"))
        }
    }
    .map_err(|e| format!("daemon: {e}"))?;
    match resp {
        lap::proto::Response::Ok { text, data, .. } => {
            if op == "profile" {
                println!("{}", data.to_pretty());
            } else if text.ends_with('\n') {
                print!("{text}");
            } else {
                println!("{text}");
            }
            Ok(())
        }
        lap::proto::Response::Error { code, message, .. } => {
            Err(format!("daemon error ({code}): {message}"))
        }
    }
}

fn profile(
    program_path: &str,
    facts_path: &str,
    cfg: ExecConfig,
    recorder: &Recorder,
) -> Result<(), String> {
    use lap::engine::{execute_physical_union_with, OnUnavailable, SourceRegistry};
    let program = load(program_path, recorder)?;
    let facts = std::fs::read_to_string(facts_path)
        .map_err(|e| format!("cannot read {facts_path}: {e}"))?;
    let db = Database::from_facts(&facts).map_err(|e| format!("{facts_path}: {e}"))?;
    for query in &program.queries {
        println!("query {}:", query.signature.0);
        let pair = lap::core::plan_star_obs(query, &program.schema, recorder);
        let physical = pair.over.lower(&program.schema);
        let mut reg = SourceRegistry::new(&db, &program.schema)
            .recording(recorder)
            .with_io_workers(cfg.io_workers);
        let run = execute_physical_union_with(&physical, &mut reg, cfg, OnUnavailable::Abort)
            .map_err(|e| format!("evaluating: {e}"))?;
        println!("{}", run.profile);
        println!("total source usage (positive calls): {}", reg.stats());
        println!("membership probes (negative literals, disjoint): {}", reg.membership_probes());
        println!();
    }
    Ok(())
}

fn optimize(
    program_path: &str,
    facts_path: Option<&str>,
    recorder: &Recorder,
) -> Result<(), String> {
    use lap::planner::{best_order, estimate_cost, minimal_executable_plan, CostModel};
    let program = load(program_path, recorder)?;
    let model = match facts_path {
        Some(path) => {
            let facts = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            let db = Database::from_facts(&facts).map_err(|e| format!("{path}: {e}"))?;
            CostModel::from_database(&db)
        }
        None => CostModel::new(),
    };
    let engine = ContainmentEngine::with_recorder(EngineConfig::default(), recorder);
    for query in &program.queries {
        println!("query {}:", query.signature.0);
        let report = feasible_detailed_with(query, &program.schema, &engine);
        if !report.feasible {
            println!("  not feasible — nothing to optimize (try `lapq explain`)");
            continue;
        }
        for part in &report.plans.over.parts {
            let base = estimate_cost(&part.cq, &program.schema, &model);
            println!("  plan:      {}", part.cq);
            if let Some(c) = base {
                println!("             est. {:.1} calls, {:.1} tuples", c.calls, c.tuples);
            }
            if let Some((better, cost)) = best_order(&part.cq, &program.schema, &model) {
                println!("  optimized: {}", better);
                println!("             est. {:.1} calls, {:.1} tuples", cost.calls, cost.tuples);
            }
        }
        if let Some(min_plan) = minimal_executable_plan(query, &program.schema) {
            println!("  minimal equivalent plan:");
            for d in &min_plan.disjuncts {
                println!("    {d}");
            }
        }
        println!();
    }
    Ok(())
}

fn mediate(
    views_path: &str,
    query_path: &str,
    facts_path: &str,
    args: &CliArgs,
    recorder: &Recorder,
) -> Result<(), String> {
    let views_text = std::fs::read_to_string(views_path)
        .map_err(|e| format!("cannot read {views_path}: {e}"))?;
    let mediator = lap::mediator::Mediator::from_program(&views_text)
        .map_err(|e| e.to_string())?
        .with_recorder(recorder)
        .with_engine(EngineConfig {
            parallel: args.flag("--parallel"),
            cache: args.flag("--cache"),
        });
    let query_program = load(query_path, recorder)?;
    let facts = std::fs::read_to_string(facts_path)
        .map_err(|e| format!("cannot read {facts_path}: {e}"))?;
    let db = Database::from_facts(&facts).map_err(|e| format!("{facts_path}: {e}"))?;
    for query in &query_program.queries {
        println!("global query {}:", query.signature.0);
        let (plan, report) = mediator.answer(query, &db).map_err(|e| e.to_string())?;
        println!("  unfolded into {} disjunct(s); feasible: {} ({:?})",
            plan.unfolded.disjuncts.len(),
            plan.feasibility.feasible,
            plan.feasibility.decided_by);
        for t in &report.under {
            println!("  {}", display_tuple(t));
        }
        if report.is_complete() {
            println!("  -- answer is complete");
        } else {
            println!("  -- answer is not known to be complete");
            for t in &report.delta {
                println!("     possible: {}", display_tuple(t));
            }
        }
        println!("  -- {}", report.stats);
        println!();
    }
    Ok(())
}

fn containment(
    path: &str,
    p_name: &str,
    q_name: &str,
    engine: &ContainmentEngine,
    recorder: &Recorder,
) -> Result<(), String> {
    let program = load(path, recorder)?;
    let p = program
        .query(p_name)
        .ok_or_else(|| format!("no query named {p_name} in {path}"))?;
    let q = program
        .query(q_name)
        .ok_or_else(|| format!("no query named {q_name} in {path}"))?;
    if p.signature.0.arity != q.signature.0.arity {
        return Err(format!(
            "{p_name} and {q_name} have different arities; containment is undefined"
        ));
    }
    // Containment compares head tuples; align the head predicates.
    let p_aligned = rename_head(p, q);
    let _span = recorder.span("containment");
    println!("{} ⊑ {}: {}", p_name, q_name, engine.contained(&p_aligned, q));
    println!("{} ⊑ {}: {}", q_name, p_name, engine.contained(q, &p_aligned));
    Ok(())
}

/// Renames `p`'s head predicate to `q`'s so the containment machinery (which
/// compares same-signature queries) applies.
fn rename_head(p: &UnionQuery, q: &UnionQuery) -> UnionQuery {
    let mut out = p.clone();
    out.head.predicate = q.head.predicate;
    out.signature = q.signature;
    for d in &mut out.disjuncts {
        d.head.predicate = q.head.predicate;
    }
    out
}

/// Reads and parses a flight-recorder journal document.
fn load_journal(path: &str) -> Result<JournalSnapshot, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = lap::obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    JournalSnapshot::from_json(&doc).map_err(|e| format!("{path}: {e}"))
}

/// Re-runs a recorded query from its journal: the program text, retry
/// policy, and every transport-level source outcome come from the journal,
/// so the run reproduces the original answers, degradations, retry counts,
/// and virtual clock bit for bit — faults included, no live database
/// needed.
fn replay_cmd(path: &str, recorder: &Recorder) -> Result<(), String> {
    let snap = load_journal(path)?;
    snap.validate().map_err(|e| format!("{path}: invalid journal: {e}"))?;
    let program_text = snap
        .meta
        .get("program")
        .and_then(Json::as_str)
        .ok_or_else(|| {
            format!("{path}: no \"program\" metadata — record with `lapq run … --journal`")
        })?;
    let program =
        parse_program(program_text).map_err(|e| format!("{path}: recorded program: {e}"))?;
    let retry = match snap.meta.get("retry") {
        Some(doc) if !matches!(doc, Json::Null) => {
            RetryPolicy::from_json(doc).map_err(|e| format!("{path}: {e}"))?
        }
        _ => RetryPolicy::default(),
    };
    // Replay honors the recorded `io_workers`, `batch_width`, and
    // `columnar` executor choice so the overlapped virtual clock, the
    // batch windows, and therefore `print_outcome` reproduce byte for
    // byte.
    let io_workers = snap
        .meta
        .get("io_workers")
        .and_then(Json::as_u64)
        .unwrap_or(1) as usize;
    let mut cfg = ExecConfig::default().with_io_workers(io_workers);
    if let Some(width) = snap.meta.get("batch_width").and_then(Json::as_u64) {
        cfg.batch_size = (width as usize).max(1);
    }
    if let Some(Json::Bool(columnar)) = snap.meta.get("columnar") {
        cfg.columnar = *columnar;
    }
    let source = ReplaySource::from_journal(&snap).map_err(|e| format!("{path}: {e}"))?;
    let resilience = ResilienceConfig { fault: None, retry };
    let opts = AnswerOptions { recorder, exec: cfg, resilience: Some(&resilience), plans: None };
    for query in &program.queries {
        println!("query {}:", query.signature.0);
        let outcome = answer_star_opts(query, &program.schema, source.clone(), &opts)
            .map_err(|e| format!("replaying {}: {e}", query.signature.0))?;
        print_outcome(&outcome);
    }
    if source.mismatches() > 0 || source.remaining() > 0 {
        return Err(format!(
            "replay diverged from the recording: {} mismatched call(s), {} recorded call(s) \
             never consumed",
            source.mismatches(),
            source.remaining()
        ));
    }
    if source.out_of_order() > 0 {
        eprintln!(
            "lapq: note: {} call(s) were consumed out of recorded order",
            source.out_of_order()
        );
    }
    Ok(())
}

/// Rolls a journal up into per-source and per-operator tables with
/// p50/p95/p99 latency estimates.
fn report_cmd(path: &str) -> Result<(), String> {
    let snap = load_journal(path)?;
    print!("{}", render_report(&snap));
    Ok(())
}

/// Folds one or more flight-recorder journals into a calibrated feedback
/// profile (per-source, per-access-pattern call statistics) and writes it
/// to `--out`. The profile feeds `--feedback` on `run`/`answer`/`explain`.
fn calibrate_cmd(args: &CliArgs) -> Result<(), String> {
    let out = args
        .value("--out")
        .ok_or("calibrate needs --out <profile.json>")?;
    let mut store = FeedbackStore::new();
    let mut i = 1;
    let mut folded = 0usize;
    while let Some(path) = args.positional(i) {
        let snap = load_journal(path)?;
        snap.validate().map_err(|e| format!("{path}: invalid journal: {e}"))?;
        store.fold(&snap);
        folded += 1;
        i += 1;
    }
    if folded == 0 {
        return Err("calibrate needs at least one journal file".to_owned());
    }
    store
        .validate()
        .map_err(|e| format!("calibration produced an invalid profile: {e}"))?;
    std::fs::write(out, store.to_json().to_pretty())
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    print!("{}", store.summary());
    println!("wrote {out}");
    Ok(())
}

/// Validates an exported observability document: a metrics snapshot
/// (`counters`/`histograms`/`spans`), a flight-recorder journal
/// (`events`/`emitted`, checked for monotone sequence, accounting, and
/// begin/end balance), a chrome trace (`traceEvents`, checked for
/// well-formed, balanced B/E events), or a feedback profile
/// (`feedback_version`/`profiles`, checked for rates in [0, 1], ordered
/// percentiles, consistent accounting, and exact JSON round-trip). The
/// shape is detected from the document's keys. Lets CI check every export
/// without python or jq.
fn obs_validate(path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = lap::obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("traceEvents").is_some() {
        let n = validate_chrome_trace(&doc).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: ok (chrome trace, {n} event(s), balanced)");
        return Ok(());
    }
    if doc.get("feedback_version").is_some() && doc.get("profiles").is_some() {
        let store = FeedbackStore::from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
        store.validate().map_err(|e| format!("{path}: {e}"))?;
        // Round-trip equality: serializing the parsed store must reproduce
        // a document that parses back to the same store.
        let reparsed = FeedbackStore::from_json(&store.to_json())
            .map_err(|e| format!("{path}: round-trip: {e}"))?;
        if reparsed != store {
            return Err(format!("{path}: feedback profile does not round-trip"));
        }
        println!(
            "{path}: ok (feedback profile, {} profile(s), {} fold(s))",
            store.profiles.len(),
            store.folds
        );
        return Ok(());
    }
    if doc.get("events").is_some() && doc.get("emitted").is_some() {
        let snap = JournalSnapshot::from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
        let check = snap.validate().map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: ok (journal, {} event(s), {} begin(s)/{} end(s), {} lane(s), {} dropped)",
            check.events, check.begins, check.ends, check.lanes, snap.dropped
        );
        return Ok(());
    }
    let counters = doc
        .get("counters")
        .ok_or_else(|| format!("{path}: missing \"counters\" key"))?;
    let n_counters = match counters {
        Json::Obj(pairs) => pairs.len(),
        _ => return Err(format!("{path}: \"counters\" is not an object")),
    };
    let histograms = doc
        .get("histograms")
        .ok_or_else(|| format!("{path}: missing \"histograms\" key"))?;
    let n_histograms = match histograms {
        Json::Obj(pairs) => {
            for (name, h) in pairs {
                for key in ["count", "sum", "max", "buckets"] {
                    if h.get(key).is_none() {
                        return Err(format!(
                            "{path}: histogram {name:?} is missing {key:?}"
                        ));
                    }
                }
            }
            pairs.len()
        }
        _ => return Err(format!("{path}: \"histograms\" is not an object")),
    };
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing \"spans\" array"))?;
    fn check_span(span: &Json, path: &str) -> Result<u64, String> {
        let name = span
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: span without a \"name\""))?;
        if span.get("elapsed_us").and_then(Json::as_f64).is_none() {
            return Err(format!("{path}: span {name:?} has no \"elapsed_us\""));
        }
        let children = span
            .get("children")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: span {name:?} has no \"children\" array"))?;
        let mut n = 1;
        for child in children {
            n += check_span(child, path)?;
        }
        Ok(n)
    }
    let mut n_spans = 0;
    for span in spans {
        n_spans += check_span(span, path)?;
    }
    println!(
        "{path}: ok ({n_counters} counter(s), {n_histograms} histogram(s), {n_spans} span(s))"
    );
    Ok(())
}
