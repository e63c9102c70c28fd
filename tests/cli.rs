//! Integration tests for the `lapq` command-line front end; its byte
//! contracts are rows of the contract table (`tests/contract_table`).

mod common;
mod contract_table;

use contract_table::{check_rows, Home, Lab, Scratch};
use std::process::{Command, Output};

fn lapq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lapq"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("lapq runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn check_reports_feasibility_and_plan() {
    let out = lapq(&["check", "examples/data/bookstore.lap"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("executable: false"), "{text}");
    assert!(text.contains("orderable:  true"), "{text}");
    assert!(text.contains("feasible:   true"), "{text}");
    assert!(text.contains("C^oo(i, a)"), "{text}");
}

#[test]
fn plan_prints_both_estimates() {
    let out = lapq(&["plan", "examples/data/example4.lap"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("underestimate Qu:"));
    assert!(text.contains("overestimate Qo:"));
    assert!(text.contains("y = null"), "{text}");
}

#[test]
fn run_reports_answers_and_delta() {
    let out = lapq(&[
        "run",
        "examples/data/example4.lap",
        "examples/data/example4_facts.lap",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("(5, 6)"), "{text}");
    assert!(text.contains("may be part of the answer"), "{text}");
    assert!(text.contains("(1, null)"), "{text}");
}

#[test]
fn run_with_domain_recovers_answers() {
    let out = lapq(&[
        "run",
        "examples/data/example4.lap",
        "examples/data/example4_facts.lap",
        "--domain",
        "1000",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("recovered 1 extra certain answer"), "{text}");
    assert!(text.contains("(1, 2)"), "{text}");
}

#[test]
fn contain_decides_both_directions() {
    let out = lapq(&["contain", "examples/data/containment.lap", "P", "Q"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("P ⊑ Q: true"), "{text}");
    assert!(text.contains("Q ⊑ P: true"), "{text}");
}

#[test]
fn complete_run_says_so() {
    let out = lapq(&[
        "run",
        "examples/data/bookstore.lap",
        "examples/data/bookstore_facts.lap",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("answer is complete"), "{text}");
    assert!(text.contains("hitchhiker"), "{text}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = lapq(&["check", "examples/data/nope.lap"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// Input the engine cannot run is refused by name with exit status 1, never
/// answered politely and never a panic: facts stored at another arity than
/// the schema declares, and a recursive program (the reproduced case used
/// to print `(1)`, `(2)` as "may be part of the answer" and exit 0).
#[test]
fn unrunnable_input_exits_1_with_a_named_error() {
    let dir = std::env::temp_dir().join(format!("lapq-cli-{}-unrunnable", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let arity = "Catalog^oo. Library^o.\nQ(i, a) :- Catalog(i, a), not Library(i).\n";
    let recursive = "R^oo.\nQ(x) :- R(x, y), Q(y).\n";
    for (name, program, facts, expected) in [
        ("arity", arity, "Catalog(1). Catalog(2).\n", "arity mismatch: expected 2, found 1"),
        ("recursive", recursive, "R(1, 2). R(2, 3).\n", "Q is defined recursively"),
    ] {
        let (prog, fact) = (dir.join(format!("{name}.lap")), dir.join(format!("{name}_facts.lap")));
        std::fs::write(&prog, program).unwrap();
        std::fs::write(&fact, facts).unwrap();
        let out = lapq(&["run", prog.to_str().unwrap(), fact.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains(expected) && !err.contains("panicked"), "{name}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--domain` composes with the resilience flags and the journal: the
/// refinement runs as ANSWER*'s last phase, fault-free and under faults,
/// on the library, `lapq run` and replay paths.
#[test]
fn domain_refinement_runs_under_resilience_and_replays() {
    let tally = check_rows(&mut Lab::default(), Home::DomainRefinement);
    assert_eq!(tally.faulted, 1, "rate 0.4 must fault the resilient row's calls");
}

/// Regression: a replay printed a `-- resilience:` line that a run
/// recorded without resilience flags never printed. Record → replay is
/// `cmp`-equal for a plain run and for a refined one.
#[test]
fn replay_of_a_plain_run_prints_what_the_run_printed() {
    let scratch = Scratch::new();
    let journal = scratch.file("j.json");
    let (program, facts) = ("examples/data/example4.lap", "examples/data/example4_facts.lap");
    for extra in [&[][..], &["--domain", "1000"][..]] {
        let run = lapq(&[&["run", program, facts, "--journal", &journal][..], extra].concat());
        let replay = lapq(&["replay", &journal]);
        assert!(run.status.success() && replay.status.success(), "{extra:?}");
        let (run, replay) = (stdout(&run), stdout(&replay));
        assert!(!run.contains("-- resilience:"), "{run}");
        assert_eq!(run, replay, "{extra:?}");
    }
}

/// A journal whose call ends lost their payload is refused by every
/// reader, naming the first such event and its missing field, instead of
/// validating `ok`, reporting 0 rows, calibrating a profile of 100%
/// failures or blaming a replay divergence.
#[test]
fn a_corrupt_journal_is_refused_by_every_reader() {
    use lap::obs::{json, Json, JournalSnapshot};
    let scratch = Scratch::new();
    let (journal, corrupt) = (scratch.file("j.json"), scratch.file("corrupt.json"));
    let profile = scratch.file("p.json");
    let (program, facts) = ("examples/data/bookstore.lap", "examples/data/bookstore_facts.lap");
    assert!(lapq(&["run", program, facts, "--journal", &journal]).status.success());
    let text = std::fs::read_to_string(&journal).unwrap();
    let mut doc = JournalSnapshot::from_json(&json::parse(&text).unwrap()).unwrap();
    let ends: Vec<&mut _> = doc.events.iter_mut().filter(|e| e.kind == "source.call.end").collect();
    let first = ends[0].seq;
    ends.into_iter().for_each(|e| e.data = Json::Obj(Vec::new()));
    std::fs::write(&corrupt, doc.to_json().to_pretty()).unwrap();
    let expected = format!(
        "journal event seq {first} (source.call.end): field \"relation\" is missing or not a string"
    );
    let (validate, report) = (["obs-validate", &corrupt], ["report", &corrupt]);
    let (calibrate, replay) = (["calibrate", &corrupt, "--out", &profile], ["replay", &corrupt]);
    for args in [&validate[..], &report, &calibrate, &replay] {
        let out = lapq(args);
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(&expected) && !err.contains("panicked"), "{args:?}: {err}");
        assert!(stdout(&out).is_empty(), "{args:?}");
    }
    assert!(!std::path::Path::new(&profile).exists(), "no profile is written");
}

/// `--domain` enumerates nothing when no disjunct can be re-admitted: the
/// bookstore query has no unanswerable literal, so its refinement makes
/// no call and the run makes only the pair's.
#[test]
fn refinement_with_nothing_to_readmit_makes_no_call() {
    let scratch = Scratch::new();
    let metrics = scratch.file("m.json");
    let (program, facts) = ("examples/data/bookstore.lap", "examples/data/bookstore_facts.lap");
    let plain = stdout(&lapq(&["run", program, facts]));
    let out = lapq(&["run", program, facts, "--domain", "1000", "--metrics-json", &metrics]);
    assert!(out.status.success());
    let refined = stdout(&out);
    let line = "recovered 0 extra certain answer(s) (0 calls, fixpoint: true)";
    assert!(refined.contains(line), "{refined}");
    let stats_calls = |text: &str| {
        text.lines().find_map(|l| l.strip_prefix("  -- ")?.split_once(" calls, ")?.0.parse().ok())
    };
    assert_eq!(stats_calls(&refined), stats_calls(&plain), "{refined}");
    let snapshot = lap::obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let calls = snapshot.get("counters").and_then(|c| c.get("source.calls")?.as_u64());
    assert_eq!(calls, stats_calls(&plain), "source.calls counts the pair's calls only");
}

/// Regression: a program that declares its own `_dom` relation used to
/// fail `--domain` with an arity mismatch (the refinement inserted unary
/// `_dom` rows into a copy of the instance).
#[test]
fn domain_refinement_leaves_a_programs_own_dom_relation_alone() {
    let scratch = Scratch::new();
    let (program, facts) = (scratch.file("dom.lap"), scratch.file("dom_facts.lap"));
    std::fs::write(&program, "_dom^oo. B^ii. C^o.\nQ(x) :- C(x), B(x, y), _dom(x, y).\n").unwrap();
    std::fs::write(&facts, "C(1). C(2). B(1, 5). _dom(1, 5). _dom(2, 7).\n").unwrap();
    let plain = lapq(&["run", &program, &facts]);
    let refined = lapq(&["run", &program, &facts, "--domain", "100"]);
    assert!(plain.status.success() && refined.status.success());
    let (plain, refined) = (stdout(&plain), stdout(&refined));
    let block = plain.strip_suffix('\n').expect("a blank line ends the block");
    assert!(refined.starts_with(block), "{refined}");
    assert!(refined.contains("-- dom(x) refinement recovered 0 extra"), "{refined}");
}

/// `query-daemon` cannot ship `--domain` or `--feedback` in a request, so
/// it refuses them by name instead of answering without them.
#[test]
fn query_daemon_refuses_flags_it_cannot_forward() {
    for (flag, value) in [("--domain", "5"), ("--feedback", "profile.json")] {
        let out = lapq(&[
            "query-daemon",
            "examples/data/bookstore.lap",
            "examples/data/bookstore_facts.lap",
            "--addr",
            "127.0.0.1:9",
            flag,
            value,
        ]);
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains(&format!("query-daemon cannot forward {flag}")), "{err}");
    }
}

/// Every subcommand `lapq` dispatches on.
const SUBCOMMANDS: &[&str] = &[
    "check",
    "explain",
    "plan",
    "run",
    "answer",
    "replay",
    "report",
    "calibrate",
    "contain",
    "mediate",
    "optimize",
    "profile",
    "obs-validate",
    "query-daemon",
    "daemon-ctl",
];

#[test]
fn unknown_command_shows_usage() {
    let out = lapq(&["frobnicate"]);
    assert!(!out.status.success());
    let usage = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(usage.contains("usage:"), "{usage}");
    for cmd in SUBCOMMANDS {
        assert!(usage.contains(&format!("lapq {cmd} ")), "usage lacks {cmd}: {usage}");
        // … and each listed name is one `lapq` accepts: missing arguments
        // fail, but not as an unknown command.
        let err = String::from_utf8_lossy(&lapq(&[cmd]).stderr).into_owned();
        assert!(!err.contains("unknown command"), "{cmd}: {err}");
    }
    assert!(!usage.contains("bench-daemon"), "{usage}");
    let err = String::from_utf8_lossy(&lapq(&["bench-daemon"]).stderr).into_owned();
    assert!(err.contains("unknown command \"bench-daemon\""), "{err}");
}

#[test]
fn contain_rejects_unknown_query_names() {
    let out = lapq(&["contain", "examples/data/containment.lap", "P", "Zed"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no query named Zed"));
}

#[test]
fn explain_names_the_culprit() {
    let out = lapq(&["explain", "examples/data/example4.lap"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("CULPRIT"), "{text}");
    assert!(text.contains("every pattern needs a value for y"), "{text}");
    assert!(text.contains("fully answerable"), "{text}");
}

/// Paper Example 3 is feasible only through the containment check, and
/// `explain` shares one engine between FEASIBLE and the two absorption
/// checks: the second absorption check is a cache hit.
#[test]
fn explain_example_3_decides_by_containment_with_one_shared_engine() {
    let out = lapq(&["explain", "examples/data/example3.lap", "--cache"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("feasible: true (decided by ContainmentCheck)"), "{text}");
    assert_eq!(text.matches("but absorbed").count(), 2, "{text}");
    assert!(text.contains("containment engine: decisions=3 cache_hits=1 cache_misses=2 "), "{text}");
}

#[test]
fn mediate_runs_the_full_pipeline() {
    let out = lapq(&[
        "mediate",
        "examples/data/mediator_views.lap",
        "examples/data/mediator_query.lap",
        "examples/data/mediator_facts.lap",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("unfolded into 4 disjunct(s)"), "{text}");
    assert!(text.contains("(1, adams, hhgttg)"), "{text}");
    assert!(text.contains("(3, lem, solaris)"), "{text}");
    assert!(!text.contains("(2, clarke"), "shelved book must be excluded: {text}");
    assert!(text.contains("answer is complete"), "{text}");
}

#[test]
fn optimize_improves_the_plan_order() {
    let out = lapq(&[
        "optimize",
        "examples/data/optimize_demo.lap",
        "examples/data/optimize_facts.lap",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("optimized: Q(t, p) :- L(i)"), "{text}");
    assert!(text.contains("minimal equivalent plan"), "{text}");
}

#[test]
fn profile_shows_per_literal_counters() {
    let out = lapq(&[
        "profile",
        "examples/data/bookstore.lap",
        "examples/data/bookstore_facts.lap",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("invoked"), "{text}");
    assert!(text.contains("not L(i)"), "{text}");
    assert!(text.contains("Qu operators:") && text.contains("Qo operators:"), "{text}");
}

#[test]
fn answer_alias_with_zero_fault_rate_matches_plain_run() {
    let tally = check_rows(&mut Lab::default(), Home::AnswerAlias);
    assert_eq!((tally.degraded, tally.faulted), (0, 0), "rate 0 must not fault");
}

#[test]
fn total_outage_reports_degradation_deterministically() {
    let tally = check_rows(&mut Lab::default(), Home::TotalOutage);
    assert_eq!(tally.degraded, tally.rows, "a total outage must degrade");
}

#[test]
fn bad_resilience_flags_fail_cleanly() {
    let out = lapq(&[
        "answer",
        "examples/data/bookstore.lap",
        "examples/data/bookstore_facts.lap",
        "--fault-rate",
        "1.5",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("--fault-rate must be in [0, 1]"), "{err}");

    let out = lapq(&[
        "answer",
        "examples/data/bookstore.lap",
        "examples/data/bookstore_facts.lap",
        "--retry",
        "0",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("--retry must be in [1"), "{err}");
}

#[test]
fn recorded_run_replays_bit_for_bit_from_the_journal() {
    let tally = check_rows(&mut Lab::default(), Home::RecordedRun);
    assert_eq!(tally.faulted, tally.rows, "rate 0.4 must fault some calls");
}

#[test]
fn overlapped_run_replays_bit_for_bit_from_the_journal() {
    let tally = check_rows(&mut Lab::default(), Home::OverlappedRun);
    assert_eq!(tally.faulted, tally.rows, "rate 0.4 must fault some calls");
}

#[test]
fn chrome_trace_export_passes_validation() {
    check_rows(&mut Lab::default(), Home::ChromeTrace);
}

#[test]
fn io_workers_flag_rejects_zero() {
    let out = lapq(&[
        "run",
        "examples/data/bookstore.lap",
        "examples/data/bookstore_facts.lap",
        "--io-workers",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--io-workers must be in [1, 256]"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn report_rolls_the_journal_into_tables() {
    let scratch = Scratch::new();
    let journal = scratch.file("report.json");
    let out = lapq(&[
        "run",
        "examples/data/bookstore.lap",
        "examples/data/bookstore_facts.lap",
        "--fault-rate",
        "0.0",
        "--latency-ms",
        "3",
        "--journal",
        journal.as_str(),
    ]);
    assert!(out.status.success());
    let report = lapq(&["report", journal.as_str()]);
    assert!(report.status.success(), "{}", String::from_utf8_lossy(&report.stderr));
    let text = stdout(&report);
    assert!(text.contains("sources:"), "{text}");
    assert!(text.contains("p95ms"), "{text}");
    assert!(text.contains("operators:"), "{text}");
}

/// Regression pin: `--journal-sample 0` is rejected at the CLI (the
/// library additionally clamps 0 to 1 defensively — pinned in
/// `lap-obs`'s journal tests — so neither guard can be dropped).
#[test]
fn journal_sample_zero_is_rejected() {
    let scratch = Scratch::new();
    let journal = scratch.file("sample-zero.json");
    let out = lapq(&[
        "run",
        "examples/data/bookstore.lap",
        "examples/data/bookstore_facts.lap",
        "--journal",
        journal.as_str(),
        "--journal-sample",
        "0",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("--journal-sample must be at least 1"), "{err}");
}

/// Regression: a repeated flag used to silently keep the last value
/// (`--batch-width 4 --batch-width 0` ran with width 0); it is now a
/// parse error before any file is touched.
#[test]
fn duplicate_flags_are_rejected() {
    let out = lapq(&[
        "run",
        "examples/data/bookstore.lap",
        "examples/data/bookstore_facts.lap",
        "--batch-width",
        "4",
        "--batch-width",
        "0",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("duplicate flag --batch-width"), "{err}");
}

/// Regression: a journal with no retries used to render `NaN%` in the
/// report's wait-share column when the virtual clock never advanced;
/// zero-retry sources now print `-` for both wait columns.
#[test]
fn report_zero_retry_wait_columns_render_dash() {
    let scratch = Scratch::new();
    let journal = scratch.file("report-zero-retry.json");
    let out = lapq(&[
        "run",
        "examples/data/bookstore.lap",
        "examples/data/bookstore_facts.lap",
        "--fault-rate",
        "0.0",
        "--journal",
        journal.as_str(),
    ]);
    assert!(out.status.success());
    let report = lapq(&["report", journal.as_str()]);
    assert!(report.status.success(), "{}", String::from_utf8_lossy(&report.stderr));
    let text = stdout(&report);
    assert!(!text.contains("NaN"), "{text}");
    assert!(text.contains("wait%"), "{text}");
    // Every source row (between "sources:" and the next blank line) ends
    // with the dashed wait columns: no retries happened anywhere.
    let rows: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("sources:"))
        .skip(2)
        .take_while(|l| !l.trim().is_empty())
        .collect();
    assert!(!rows.is_empty(), "{text}");
    for row in rows {
        assert!(row.trim_end().ends_with('-'), "{row}");
    }
}

#[test]
fn replay_of_a_non_replayable_journal_fails_cleanly() {
    let scratch = Scratch::new();
    let journal = scratch.file("light.json");
    // --chrome-trace alone records the light tier: no captured rows.
    let out = lapq(&[
        "run",
        "examples/data/bookstore.lap",
        "examples/data/bookstore_facts.lap",
        "--journal-capacity",
        "65536",
        "--journal",
        journal.as_str(),
        "--journal-sample",
        "2",
    ]);
    assert!(out.status.success());
    let replayed = lapq(&["replay", journal.as_str()]);
    assert!(!replayed.status.success());
    let err = String::from_utf8_lossy(&replayed.stderr).into_owned();
    assert!(err.contains("sampled"), "{err}");
}

#[test]
fn check_with_constraints_flips_feasibility() {
    let out = lapq(&[
        "check",
        "examples/data/example4.lap",
        "--constraints",
        "examples/data/example4_constraints.lap",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("feasible:   false"), "{text}");
    assert!(text.contains("under Σ:    feasible = true"), "{text}");
    assert!(text.contains("Σ pruned 1 of 2"), "{text}");
}
