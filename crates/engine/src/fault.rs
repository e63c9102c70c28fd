//! Deterministic fault injection and retry policies for source calls.
//!
//! Real access-limited sources are remote services: calls time out, error
//! transiently, and arrive late. [`FaultInjectingSource`] wraps any
//! [`Source`] with a `lap-prng`-seeded fault schedule — same seed and call
//! sequence, same faults, bit for bit — so chaos runs are replayable in
//! tests and benchmarks. All time is *virtual* (milliseconds accounted,
//! never slept), which keeps the chaos suite fast and deterministic.
//!
//! [`RetryPolicy`] governs how the [`crate::SourceRegistry`] reacts to a
//! fault: capped exponential backoff with jitter up to a maximum attempt
//! count, under an optional per-query deadline budget of virtual time.
//! Exhausted retries surface as [`crate::EngineError::SourceUnavailable`],
//! which the degraded executors translate into a dropped disjunct and an
//! honest completeness downgrade instead of an aborted run.

use crate::source::Source;
use crate::value::{Rows, Value};
use lap_ir::{AccessPattern, Symbol};
use lap_prng::StdRng;
use std::fmt;

/// One successful transport response.
///
/// The rows are a shared block ([`Rows`]): a transport that keeps its
/// extents resident hands out the same block on every matching call, and
/// nothing downstream of the transport — the registry's cache, the
/// journal, the operators — copies or mutates it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceReply {
    /// The rows matching the supplied input slots.
    pub rows: Rows,
    /// Virtual latency the call took (0 for in-memory sources).
    pub latency_ms: u64,
}

/// A failed transport call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceFault {
    /// The source errored outright (connection refused, 5xx, …).
    Unavailable {
        /// Virtual latency spent before the failure surfaced.
        latency_ms: u64,
    },
    /// The call's injected latency exceeded the per-call timeout.
    Timeout {
        /// The virtual latency the call would have taken.
        latency_ms: u64,
        /// The per-call budget it blew through.
        timeout_ms: u64,
    },
}

impl SourceFault {
    /// Virtual milliseconds the faulted call consumed (for a timeout, the
    /// caller gives up at the budget, not the full latency).
    pub fn latency_ms(&self) -> u64 {
        match *self {
            SourceFault::Unavailable { latency_ms } => latency_ms,
            SourceFault::Timeout { timeout_ms, .. } => timeout_ms,
        }
    }
}

impl fmt::Display for SourceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SourceFault::Unavailable { latency_ms } => {
                write!(f, "source unavailable after {latency_ms}ms")
            }
            SourceFault::Timeout { latency_ms, timeout_ms } => {
                write!(f, "call timed out ({latency_ms}ms > {timeout_ms}ms budget)")
            }
        }
    }
}

/// Configuration of a [`FaultInjectingSource`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability in `[0, 1]` that a call fails outright.
    pub error_rate: f64,
    /// Base virtual latency injected into every call, in milliseconds.
    pub latency_ms: u64,
    /// Extra uniform latency jitter in `0..=latency_jitter_ms`.
    pub latency_jitter_ms: u64,
    /// Per-call timeout: a call whose injected latency exceeds this faults
    /// with [`SourceFault::Timeout`]. `None` disables timeouts.
    pub timeout_ms: Option<u64>,
    /// PRNG seed; the fault schedule is a pure function of the seed and
    /// the call sequence.
    pub seed: u64,
}

impl FaultConfig {
    /// Pure error-rate faults: no latency, no timeouts.
    pub fn with_rate(error_rate: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            error_rate,
            latency_ms: 0,
            latency_jitter_ms: 0,
            timeout_ms: None,
            seed,
        }
    }

    /// The same fault profile under an independent stream: the seed is
    /// mixed with `salt` (SplitMix64 finalizer) so, e.g., the rungs of a
    /// chaos ladder draw uncorrelated but reproducible schedules.
    pub fn derive(&self, salt: u64) -> FaultConfig {
        let mut z = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        FaultConfig { seed: z ^ (z >> 31), ..*self }
    }

    /// JSON encoding for journal metadata (informational: a replay serves
    /// recorded transport results and never re-injects faults). The seed
    /// is written as a string so full 64-bit seeds survive the `f64`
    /// number space.
    pub fn to_json(&self) -> lap_obs::Json {
        use lap_obs::Json;
        Json::obj([
            ("error_rate", Json::Num(self.error_rate)),
            ("latency_ms", Json::num(self.latency_ms)),
            ("latency_jitter_ms", Json::num(self.latency_jitter_ms)),
            (
                "timeout_ms",
                match self.timeout_ms {
                    Some(t) => Json::num(t),
                    None => Json::Null,
                },
            ),
            ("seed", Json::Str(self.seed.to_string())),
        ])
    }
}

/// A [`Source`] decorator injecting deterministic faults and latency.
///
/// Per call it draws, in fixed order, the latency jitter (when configured)
/// and the failure coin from its own [`StdRng`]. The inner source is only
/// consulted when the call survives both, so a faulted call never leaks
/// partial rows — the soundness argument for degraded answers rests on
/// this.
pub struct FaultInjectingSource<S> {
    inner: S,
    cfg: FaultConfig,
    rng: StdRng,
}

impl<S: Source> FaultInjectingSource<S> {
    /// Wraps `inner` under fault configuration `cfg`.
    pub fn new(inner: S, cfg: FaultConfig) -> FaultInjectingSource<S> {
        FaultInjectingSource { inner, rng: StdRng::seed_from_u64(cfg.seed), cfg }
    }
}

impl<S: Source> Source for FaultInjectingSource<S> {
    fn fetch(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        inputs: &[Option<Value>],
    ) -> Result<SourceReply, SourceFault> {
        let jitter = if self.cfg.latency_jitter_ms > 0 {
            self.rng.gen_range(0..=self.cfg.latency_jitter_ms)
        } else {
            0
        };
        let latency = self.cfg.latency_ms + jitter;
        if self.cfg.error_rate > 0.0 && self.rng.gen_bool(self.cfg.error_rate) {
            return Err(SourceFault::Unavailable { latency_ms: latency });
        }
        if let Some(timeout_ms) = self.cfg.timeout_ms {
            if latency > timeout_ms {
                return Err(SourceFault::Timeout { latency_ms: latency, timeout_ms });
            }
        }
        let mut reply = self.inner.fetch(name, pattern, inputs)?;
        reply.latency_ms += latency;
        Ok(reply)
    }
}

/// Retry policy for faulted source fetches: capped exponential backoff
/// with jitter, bounded by an attempt count and an optional per-query
/// deadline budget of virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (≥ 1; 1 = no retry).
    pub max_attempts: u32,
    /// Backoff before attempt 2, doubled per subsequent attempt.
    pub base_backoff_ms: u64,
    /// Cap on a single backoff interval.
    pub max_backoff_ms: u64,
    /// Jitter as a fraction of the backoff interval, in `[0, 1]`.
    pub jitter: f64,
    /// Per-query budget of virtual milliseconds (latency + backoff); once
    /// exceeded the call gives up even with attempts left.
    pub deadline_ms: Option<u64>,
}

impl Default for RetryPolicy {
    /// The legacy behaviour: one attempt, no backoff, no deadline.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            jitter: 0.0,
            deadline_ms: None,
        }
    }
}

impl RetryPolicy {
    /// A sensible production-ish default: 4 attempts, 10ms base backoff
    /// doubling up to 1s, 20% jitter, no deadline.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 10,
            max_backoff_ms: 1_000,
            jitter: 0.2,
            deadline_ms: None,
        }
    }

    /// Same policy with a different attempt budget (clamped to ≥ 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> RetryPolicy {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Same policy under a per-query deadline budget.
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> RetryPolicy {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// JSON encoding, carried in journal metadata so a replay can rebuild
    /// the exact retry behaviour of the recorded run.
    pub fn to_json(&self) -> lap_obs::Json {
        use lap_obs::Json;
        Json::obj([
            ("max_attempts", Json::num(u64::from(self.max_attempts))),
            ("base_backoff_ms", Json::num(self.base_backoff_ms)),
            ("max_backoff_ms", Json::num(self.max_backoff_ms)),
            ("jitter", Json::Num(self.jitter)),
            (
                "deadline_ms",
                match self.deadline_ms {
                    Some(d) => Json::num(d),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Inverse of [`RetryPolicy::to_json`].
    pub fn from_json(doc: &lap_obs::Json) -> Result<RetryPolicy, String> {
        use lap_obs::Json;
        let number = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("retry policy missing numeric {key:?}"))
        };
        Ok(RetryPolicy {
            max_attempts: number("max_attempts")? as u32,
            base_backoff_ms: number("base_backoff_ms")?,
            max_backoff_ms: number("max_backoff_ms")?,
            jitter: doc
                .get("jitter")
                .and_then(Json::as_f64)
                .ok_or("retry policy missing numeric \"jitter\"")?,
            deadline_ms: match doc.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(d) => Some(d.as_u64().ok_or("non-numeric \"deadline_ms\"")?),
            },
        })
    }

    /// The backoff interval after `completed_attempts` failed attempts
    /// (≥ 1): exponential in the attempt number, capped, plus jitter.
    pub fn backoff_ms(&self, completed_attempts: u32, rng: &mut StdRng) -> u64 {
        if self.base_backoff_ms == 0 {
            return 0;
        }
        let exp = completed_attempts.saturating_sub(1).min(20);
        let raw = self.base_backoff_ms.saturating_mul(1u64 << exp);
        let capped = raw.min(self.max_backoff_ms.max(self.base_backoff_ms));
        let jitter = (capped as f64 * self.jitter.clamp(0.0, 1.0) * rng.next_f64()) as u64;
        capped + jitter
    }
}

/// Everything the resilient evaluation paths need: an optional fault
/// profile for the transport and the retry policy above it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResilienceConfig {
    /// Fault injection for the transport; `None` leaves the source as-is.
    pub fault: Option<FaultConfig>,
    /// Retry policy for faulted fetches.
    pub retry: RetryPolicy,
}

impl ResilienceConfig {
    /// Chaos at `error_rate` under `seed` with the standard retry policy.
    pub fn chaos(error_rate: f64, seed: u64) -> ResilienceConfig {
        ResilienceConfig {
            fault: Some(FaultConfig::with_rate(error_rate, seed)),
            retry: RetryPolicy::standard(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Database;
    use crate::source::{InMemorySource, SourceRegistry};
    use crate::EngineError;
    use lap_ir::Schema;

    fn setup() -> (Database, Schema) {
        let db = Database::from_facts("R(1, 10). R(2, 20). R(3, 30).").unwrap();
        let schema = Schema::from_patterns(&[("R", "oo"), ("R", "io")]).unwrap();
        (db, schema)
    }

    fn scan(reg: &mut SourceRegistry<'_>) -> Result<usize, EngineError> {
        let p = AccessPattern::parse("oo").unwrap();
        reg.call(Symbol::intern("R"), p, &[None, None]).map(|r| r.len())
    }

    #[test]
    fn zero_rate_injects_nothing_and_adds_no_retries() {
        let (db, schema) = setup();
        let mut reg = SourceRegistry::new(&db, &schema)
            .with_fault_injection(FaultConfig::with_rate(0.0, 7))
            .with_retry(RetryPolicy::standard());
        for _ in 0..100 {
            assert_eq!(scan(&mut reg).unwrap(), 3);
        }
        assert_eq!(reg.failures_observed(), 0);
        assert_eq!(reg.retries_observed(), 0);
        assert_eq!(reg.stats().calls, 100);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let (db, schema) = setup();
        let run = |seed: u64| -> Vec<bool> {
            let mut src = FaultInjectingSource::new(
                InMemorySource::new(&db),
                FaultConfig::with_rate(0.3, seed),
            );
            let p = AccessPattern::parse("oo").unwrap();
            (0..64)
                .map(|_| src.fetch(Symbol::intern("R"), p, &[None, None]).is_err())
                .collect()
        };
        let _ = &schema;
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seeds diverge");
    }

    #[test]
    fn retries_recover_from_transient_faults() {
        let (db, schema) = setup();
        // With p = 0.5 and 6 attempts, a given call fails outright with
        // probability 1/64; 40 calls virtually always succeed somewhere.
        let mut reg = SourceRegistry::new(&db, &schema)
            .with_fault_injection(FaultConfig::with_rate(0.5, 11))
            .with_retry(RetryPolicy::standard().with_max_attempts(6));
        let mut recovered = 0u64;
        for _ in 0..40 {
            if scan(&mut reg).is_ok() {
                recovered += 1;
            }
        }
        assert!(recovered >= 35, "only {recovered}/40 calls survived");
        assert!(reg.retries_observed() > 0, "p=0.5 must have forced retries");
        assert_eq!(
            reg.failures_observed(),
            reg.retries_observed() + (40 - recovered),
            "every fault is either retried or terminal"
        );
    }

    #[test]
    fn exhausted_retries_surface_as_source_unavailable() {
        let (db, schema) = setup();
        let mut reg = SourceRegistry::new(&db, &schema)
            .with_fault_injection(FaultConfig::with_rate(1.0, 3))
            .with_retry(RetryPolicy::standard().with_max_attempts(3));
        let err = scan(&mut reg).unwrap_err();
        match err {
            EngineError::SourceUnavailable { relation, attempts, .. } => {
                assert_eq!(relation, "R");
                assert_eq!(attempts, 3);
            }
            other => panic!("expected SourceUnavailable, got {other}"),
        }
        assert_eq!(reg.failures_observed(), 3);
        assert_eq!(reg.retries_observed(), 2);
    }

    #[test]
    fn latency_beyond_timeout_faults_and_clock_advances() {
        let (db, schema) = setup();
        let cfg = FaultConfig {
            error_rate: 0.0,
            latency_ms: 50,
            latency_jitter_ms: 0,
            timeout_ms: Some(20),
            seed: 5,
        };
        let mut reg = SourceRegistry::new(&db, &schema).with_fault_injection(cfg);
        let err = scan(&mut reg).unwrap_err();
        assert!(err.to_string().contains("timed out"), "{err}");
        // The caller gives up at the timeout budget, not the full latency.
        assert_eq!(reg.virtual_elapsed_ms(), 20);
        // reset_clock restarts the deadline window only; the lifetime total
        // keeps accumulating across phases so reporting never loses time.
        reg.reset_clock();
        assert_eq!(reg.virtual_elapsed_ms(), 20);
        let _ = scan(&mut reg);
        assert_eq!(reg.virtual_elapsed_ms(), 40);
    }

    #[test]
    fn deadline_budget_stops_retrying_early() {
        let (db, schema) = setup();
        let cfg = FaultConfig {
            error_rate: 1.0,
            latency_ms: 30,
            latency_jitter_ms: 0,
            timeout_ms: None,
            seed: 9,
        };
        let mut reg = SourceRegistry::new(&db, &schema)
            .with_fault_injection(cfg)
            .with_retry(RetryPolicy::standard().with_max_attempts(100).with_deadline_ms(50));
        let err = scan(&mut reg).unwrap_err();
        match err {
            EngineError::SourceUnavailable { attempts, reason, .. } => {
                assert!(attempts < 100, "deadline must beat the attempt budget");
                assert!(reason.contains("deadline"), "{reason}");
            }
            other => panic!("expected SourceUnavailable, got {other}"),
        }
        assert!(reg.virtual_elapsed_ms() >= 50);
    }

    #[test]
    fn backoff_is_exponential_capped_and_jittered() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 10,
            max_backoff_ms: 100,
            jitter: 0.0,
            deadline_ms: None,
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.backoff_ms(1, &mut rng), 10);
        assert_eq!(p.backoff_ms(2, &mut rng), 20);
        assert_eq!(p.backoff_ms(3, &mut rng), 40);
        assert_eq!(p.backoff_ms(5, &mut rng), 100, "capped at max_backoff_ms");
        let jittered = RetryPolicy { jitter: 1.0, ..p };
        let b = jittered.backoff_ms(3, &mut rng);
        assert!((40..=80).contains(&b), "jitter adds at most one interval, got {b}");
    }

    #[test]
    fn retry_policy_json_round_trips() {
        for policy in [
            RetryPolicy::default(),
            RetryPolicy::standard(),
            RetryPolicy::standard().with_max_attempts(7).with_deadline_ms(123),
        ] {
            let doc = policy.to_json();
            let text = doc.to_compact();
            let back = RetryPolicy::from_json(&lap_obs::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, policy);
        }
        let seed_doc = FaultConfig::with_rate(0.5, u64::MAX).to_json();
        assert_eq!(
            seed_doc.get("seed").and_then(lap_obs::Json::as_str),
            Some(u64::MAX.to_string().as_str()),
            "seeds survive as strings"
        );
    }

    #[test]
    fn derived_configs_decorrelate_but_stay_deterministic() {
        let base = FaultConfig::with_rate(0.5, 77);
        assert_eq!(base.derive(0), base.derive(0));
        assert_ne!(base.derive(0).seed, base.derive(1).seed);
        assert_ne!(base.derive(0).seed, base.seed);
    }
}
