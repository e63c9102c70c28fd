//! The one-shot oracle: what `lapq run` would print for a request, computed
//! in-process through `answer_star_*` + the shared renderers (as E24 does).
//! Every daemon response is compared against these bytes, and the oracle's
//! source-call counts are the paper's cost unit for the stream.

use crate::workload::Req;
use lap::core::{
    answer_star_obs_cfg, answer_star_resilient_cfg, render_answer_report, render_outcome,
};
use lap::engine::{Database, ExecConfig, FaultConfig, ResilienceConfig, RetryPolicy};
use lap::ir::parse_program;
use lap::obs::Recorder;
use lap::proto::QueryOptions;

/// The options -> executor mapping of `lapd` (`src/daemon/service.rs`,
/// private there), without its range checks: the workloads only generate
/// in-range options.
pub fn exec_config(options: &QueryOptions) -> ExecConfig {
    let mut cfg = ExecConfig::default();
    if let Some(n) = options.io_workers {
        cfg = cfg.with_io_workers(n as usize);
    }
    if let Some(n) = options.batch_width {
        cfg.batch_size = n as usize;
    }
    cfg
}

/// The options -> resilience mapping of `lapd`, bit for bit (same default
/// seed, same retry policy), again without the range checks.
pub fn resilience(options: &QueryOptions) -> Option<ResilienceConfig> {
    if !options.wants_resilience() {
        return None;
    }
    let fault = FaultConfig {
        error_rate: options.fault_rate.unwrap_or(0.0),
        latency_ms: options.latency_ms.unwrap_or(0),
        latency_jitter_ms: 0,
        timeout_ms: options.timeout_ms,
        seed: options.fault_seed.unwrap_or(0xC0FFEE),
    };
    let mut retry = RetryPolicy::standard();
    if let Some(n) = options.retry {
        retry = retry.with_max_attempts(n as u32);
    }
    if let Some(budget) = options.deadline_ms {
        retry = retry.with_deadline_ms(budget);
    }
    Some(ResilienceConfig {
        fault: Some(fault),
        retry,
    })
}

/// What the one-shot path answers for one request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Expected {
    /// The exact response text.
    pub text: String,
    /// Wire calls (`CallStats.calls`) plus membership probes.
    pub source_calls: u64,
    /// `AnswerOutcome.virtual_ms`; 0 when the request carries no
    /// resilience options (the plain path keeps no virtual clock).
    pub virtual_ms: u64,
}

/// Runs one request through the one-shot path.
pub fn one_shot(req: &Req<'_>) -> Expected {
    let program = parse_program(&req.program).expect("generated program parses");
    let db = Database::from_facts(req.facts).expect("generated facts parse");
    let exec = exec_config(&req.options);
    let recorder = Recorder::new();
    let mut out = Expected::default();
    for q in &program.queries {
        out.text.push_str(&format!("query {}:\n", q.signature.0));
        match resilience(&req.options) {
            Some(res) => {
                let outcome =
                    answer_star_resilient_cfg(q, &program.schema, &db, &recorder, &res, exec)
                        .expect("generated query evaluates");
                out.virtual_ms += outcome.virtual_ms;
                out.text.push_str(&render_outcome(&outcome));
            }
            None => {
                let report = answer_star_obs_cfg(q, &program.schema, &db, &recorder, exec)
                    .expect("generated query evaluates");
                out.text.push_str(&render_answer_report(&report));
                out.text.push('\n');
            }
        }
    }
    let counters = recorder.snapshot();
    out.source_calls = counters.counter("source.calls") + counters.counter("source.membership");
    out
}
