//! The one translation from wire-level [`QueryOptions`] to what the engine
//! runs under. `lapq` (flags → options) and `lapd` (frame → options) both
//! call it, so a daemon answer cannot drift from the one-shot CLI's for
//! the same options: same validation, same defaults, same fault seed,
//! same retry policy.

use lap_engine::{
    ExecConfig, FaultConfig, ResilienceConfig, RetryPolicy, MAX_BATCH_WIDTH, MAX_IO_WORKERS,
};
use lap_proto::QueryOptions;
use std::fmt;

/// A query option whose value is out of range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadOption {
    /// The option's wire name (a [`QueryOptions`] field).
    pub option: &'static str,
    /// What is wrong with the value, e.g. `must be in [1, 256], got 0`.
    pub problem: String,
}

impl fmt::Display for BadOption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.option, self.problem)
    }
}

/// The executor configuration `options` selects, and the fault + retry
/// profile when any resilience knob is set (`None`: plain ANSWER\*
/// execution). Zero and out-of-range values are rejected.
pub fn execution_from_options(
    options: &QueryOptions,
) -> Result<(ExecConfig, Option<ResilienceConfig>), BadOption> {
    let in_range = |option, value: Option<u64>, max: u64| match value {
        Some(n) if n == 0 || n > max => {
            Err(BadOption { option, problem: format!("must be in [1, {max}], got {n}") })
        }
        other => Ok(other),
    };
    let mut exec = ExecConfig::default();
    if let Some(n) = in_range("io_workers", options.io_workers, MAX_IO_WORKERS as u64)? {
        exec = exec.with_io_workers(n as usize);
    }
    if let Some(n) = in_range("batch_width", options.batch_width, MAX_BATCH_WIDTH as u64)? {
        exec.batch_size = n as usize;
    }
    if !options.wants_resilience() {
        return Ok((exec, None));
    }
    let rate = options.fault_rate.unwrap_or(0.0);
    if !(0.0..=1.0).contains(&rate) {
        let problem = format!("must be in [0, 1], got {rate}");
        return Err(BadOption { option: "fault_rate", problem });
    }
    let fault = FaultConfig {
        error_rate: rate,
        latency_ms: options.latency_ms.unwrap_or(0),
        latency_jitter_ms: 0,
        timeout_ms: options.timeout_ms,
        seed: options.fault_seed.unwrap_or(0xC0FFEE),
    };
    let mut retry = RetryPolicy::standard();
    if let Some(n) = in_range("retry", options.retry, u64::from(u32::MAX))? {
        retry = retry.with_max_attempts(n as u32);
    }
    if let Some(budget) = options.deadline_ms {
        retry = retry.with_deadline_ms(budget);
    }
    Ok((exec, Some(ResilienceConfig { fault: Some(fault), retry })))
}
