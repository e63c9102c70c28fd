//! Deterministic replay of recorded source traffic.
//!
//! A [`ReplaySource`] is a [`Source`] that serves the transport results —
//! rows, virtual latencies, *and* faults — recorded in a flight-recorder
//! journal (see `lap_obs::journal`). Everything above the transport
//! boundary is a pure function of those results: the registry's retry
//! loop draws backoff jitter from a fixed seed, the virtual clock only
//! advances by recorded latencies, and plan evaluation is deterministic.
//! Replaying a journal therefore reproduces the original run — including
//! its degraded disjuncts and completeness downgrade — bit for bit, which
//! is exactly the postmortem one wants for the runs where completeness
//! was lost.
//!
//! Requirements on the journal: it must have been recorded with
//! `JournalConfig::replay()` (row capture on, no sampling) and no events
//! may have been dropped from the ring; [`ReplaySource::from_journal`]
//! rejects anything else up front instead of failing mysteriously later.

use crate::fault::{SourceFault, SourceReply};
use crate::source::Source;
use crate::value::{rows_from_json, value_from_json, Rows, Value};
use lap_ir::{AccessPattern, Symbol};
use lap_obs::{Event, Json, JournalSnapshot, Stamped, WireOutcome};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One recorded transport attempt: the call key plus its outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordedCall {
    /// The relation the call targeted.
    pub relation: Symbol,
    /// The access pattern used.
    pub pattern: AccessPattern,
    /// Bound input slots (`None` at output slots).
    pub inputs: Vec<Option<Value>>,
    /// What the transport answered: rows + latency, or a fault.
    pub outcome: Result<SourceReply, SourceFault>,
}

/// A [`Source`] serving recorded calls back in order. Cheaply cloneable —
/// clones share one cursor, so several registries (e.g. one per query of
/// a program) consume the same recorded stream sequentially.
#[derive(Clone, Debug)]
pub struct ReplaySource {
    calls: Arc<Mutex<VecDeque<RecordedCall>>>,
    mismatches: Arc<AtomicU64>,
    out_of_order: Arc<AtomicU64>,
}

impl ReplaySource {
    /// A replay source over an explicit call sequence.
    pub fn from_calls(calls: Vec<RecordedCall>) -> ReplaySource {
        ReplaySource {
            calls: Arc::new(Mutex::new(calls.into())),
            mismatches: Arc::new(AtomicU64::new(0)),
            out_of_order: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Decodes the recorded transport attempts of `journal` (in end-event
    /// order) into a replay source. Fails when the journal is not
    /// replayable: events were dropped, rows were not captured, or call
    /// events are malformed.
    pub fn from_journal(journal: &JournalSnapshot) -> Result<ReplaySource, String> {
        Ok(ReplaySource::from_calls(recorded_calls(journal)?))
    }

    /// Calls still waiting to be served.
    pub fn remaining(&self) -> usize {
        self.calls.lock().expect("replay source not poisoned").len()
    }

    /// Fetches that matched no recorded call (each was answered with a
    /// zero-latency [`SourceFault::Unavailable`]). Non-zero means the
    /// replayed execution diverged from the recorded one.
    pub fn mismatches(&self) -> u64 {
        self.mismatches.load(Ordering::Relaxed)
    }

    /// Fetches answered by a recorded call that was not at the front of
    /// the stream. A faithful replay re-issues calls in recorded begin
    /// order, so non-zero is a divergence signal.
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order.load(Ordering::Relaxed)
    }
}

impl Source for ReplaySource {
    /// Serves the first recorded attempt with this call key.
    fn fetch(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        inputs: &[Option<Value>],
    ) -> Result<SourceReply, SourceFault> {
        let mut calls = self.calls.lock().expect("replay source not poisoned");
        let matches = |c: &RecordedCall| {
            c.relation == name && c.pattern == pattern && c.inputs == inputs
        };
        let position = calls.iter().position(matches);
        match position {
            Some(0) => {}
            Some(_) => {
                self.out_of_order.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.mismatches.fetch_add(1, Ordering::Relaxed);
                return Err(SourceFault::Unavailable { latency_ms: 0 });
            }
        }
        let call = calls
            .remove(position.expect("checked above"))
            .expect("position in bounds");
        call.outcome
    }
}

/// Decodes the journal's `source.call.begin`/`source.call.end` pairs into
/// [`RecordedCall`]s, ordered by **begin sequence number** — the order
/// calls were issued. For a serial journal that equals end-event order;
/// for an overlapped one (concurrent sub-lanes, `io_workers > 1`) begin
/// order is the order the replaying registry re-issues the calls in, so
/// sorting here is what lets a replay front-match the stream without
/// spurious `out_of_order` hits. Used by [`ReplaySource::from_journal`]
/// and tests.
pub fn recorded_calls(journal: &JournalSnapshot) -> Result<Vec<RecordedCall>, String> {
    if journal.dropped > 0 {
        return Err(format!(
            "journal not replayable: {} event(s) were dropped from the ring \
             (record with a larger --journal capacity)",
            journal.dropped
        ));
    }
    if let Some(cfg) = journal.meta.get("journal") {
        if cfg.get("capture_rows") == Some(&Json::Bool(false)) {
            return Err("journal not replayable: rows were not captured".to_owned());
        }
        if cfg.get("sample_every").and_then(Json::as_u64).unwrap_or(1) > 1 {
            return Err("journal not replayable: source calls were sampled".to_owned());
        }
    }
    let (names, events) = journal.decode()?;
    // Pending begin per lane; wire attempts never nest within a lane.
    type PendingBegin = (u64, Symbol, AccessPattern, Vec<Option<Value>>);
    let mut pending: BTreeMap<u64, PendingBegin> = BTreeMap::new();
    let mut calls: Vec<(u64, RecordedCall)> = Vec::new();
    for Stamped { seq, lane, event, .. } in events {
        match event {
            Event::CallBegin { relation, pattern, inputs, .. } => {
                let pattern = AccessPattern::parse(names.get(pattern))
                    .map_err(|e| format!("call begin seq {seq}: pattern: {e}"))?;
                let slots = inputs.ok_or_else(|| {
                    format!(
                        "call begin seq {seq} has no captured inputs — \
                         journal was not recorded in replay mode"
                    )
                })?;
                let inputs = slots
                    .as_arr()
                    .expect("decode reads captured inputs only as an array")
                    .iter()
                    .enumerate()
                    .map(|(j, slot)| {
                        if pattern.is_input(j) {
                            value_from_json(slot).map(Some)
                        } else {
                            Ok(None)
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let relation = Symbol::intern(names.get(relation));
                if let Some((prior, ..)) = pending.insert(lane, (seq, relation, pattern, inputs)) {
                    return Err(format!(
                        "call begin seq {seq} overwrites unfinished begin seq {prior} \
                         on lane {lane} — begin/end pairs interleaved within a lane"
                    ));
                }
            }
            Event::CallEnd { outcome, rows_data, .. } => {
                let (begin_seq, relation, pattern, inputs) = pending
                    .remove(&lane)
                    .ok_or_else(|| format!("call end seq {seq} without a begin on its lane"))?;
                let outcome = match outcome {
                    WireOutcome::Ok { latency_ms, .. } => {
                        let rows = rows_data.ok_or_else(|| {
                            format!(
                                "call end seq {seq} has no captured rows — \
                                 journal was not recorded in replay mode"
                            )
                        })?;
                        let rows = Rows::new(rows_from_json(&rows)?.into());
                        Ok(SourceReply { rows, latency_ms })
                    }
                    WireOutcome::Unavailable { latency_ms } => {
                        Err(SourceFault::Unavailable { latency_ms })
                    }
                    WireOutcome::Timeout { latency_ms, timeout_ms } => {
                        Err(SourceFault::Timeout { latency_ms, timeout_ms })
                    }
                };
                calls.push((begin_seq, RecordedCall { relation, pattern, inputs, outcome }));
            }
            _ => {}
        }
    }
    calls.sort_by_key(|(begin_seq, _)| *begin_seq);
    Ok(calls.into_iter().map(|(_, call)| call).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Database;
    use crate::source::SourceRegistry;
    use crate::{FaultConfig, RetryPolicy};
    use lap_ir::Schema;
    use lap_obs::{JournalConfig, Recorder};

    fn setup() -> (Database, Schema) {
        let db = Database::from_facts("R(1, 10). R(2, 20). R(3, 30).").unwrap();
        let schema = Schema::from_patterns(&[("R", "oo"), ("R", "io")]).unwrap();
        (db, schema)
    }

    /// Record a faulty run through a journaling registry, then replay the
    /// journal through a fresh registry: every call-level observable —
    /// rows, retries, failures, virtual clock — must reproduce exactly.
    #[test]
    fn registry_level_record_replay_is_bit_for_bit() {
        let (db, schema) = setup();
        let recorder = Recorder::with_journal(JournalConfig::replay());
        let retry = RetryPolicy::standard().with_max_attempts(3);
        let mut reg = SourceRegistry::new(&db, &schema)
            .with_fault_injection(FaultConfig::with_rate(0.4, 99))
            .with_retry(retry)
            .recording(&recorder);
        let p = AccessPattern::parse("io").unwrap();
        let mut recorded_rows = Vec::new();
        for i in 0..20i64 {
            let args = [Some(Value::int(i % 4)), None];
            recorded_rows.push(reg.call(Symbol::intern("R"), p, &args).ok());
        }
        let observed = (reg.stats(), reg.retries_observed(), reg.failures_observed(),
                        reg.virtual_elapsed_ms());

        let journal = recorder.journal().unwrap().snapshot();
        journal.validate().expect("recorded journal is valid");
        let replay = ReplaySource::from_journal(&journal).expect("replayable");
        let mut reg2 = SourceRegistry::with_source(Box::new(replay.clone()), &schema)
            .with_retry(retry);
        let mut replayed_rows = Vec::new();
        for i in 0..20i64 {
            let args = [Some(Value::int(i % 4)), None];
            replayed_rows.push(reg2.call(Symbol::intern("R"), p, &args).ok());
        }
        assert_eq!(replayed_rows, recorded_rows);
        assert_eq!(
            (reg2.stats(), reg2.retries_observed(), reg2.failures_observed(),
             reg2.virtual_elapsed_ms()),
            observed
        );
        assert_eq!(replay.mismatches(), 0);
        assert_eq!(replay.out_of_order(), 0);
        assert_eq!(replay.remaining(), 0, "every recorded call consumed");
    }

    #[test]
    fn unexpected_calls_fault_and_count_as_mismatches() {
        let (_, schema) = setup();
        let replay = ReplaySource::from_calls(vec![]);
        let mut reg = SourceRegistry::with_source(Box::new(replay.clone()), &schema);
        let p = AccessPattern::parse("oo").unwrap();
        assert!(reg.call(Symbol::intern("R"), p, &[None, None]).is_err());
        assert_eq!(replay.mismatches(), 1);
    }

    #[test]
    fn light_journals_are_rejected() {
        let (db, schema) = setup();
        let recorder = Recorder::with_journal(JournalConfig::light());
        let mut reg = SourceRegistry::new(&db, &schema).recording(&recorder);
        let p = AccessPattern::parse("oo").unwrap();
        reg.call(Symbol::intern("R"), p, &[None, None]).unwrap();
        let journal = recorder.journal().unwrap().snapshot();
        let err = ReplaySource::from_journal(&journal).unwrap_err();
        assert!(err.contains("not recorded in replay mode"), "{err}");
    }

    #[test]
    fn truncated_journals_are_rejected() {
        let (db, schema) = setup();
        let recorder = Recorder::with_journal(JournalConfig {
            capacity: 2,
            ..JournalConfig::replay()
        });
        let mut reg = SourceRegistry::new(&db, &schema).recording(&recorder);
        let p = AccessPattern::parse("oo").unwrap();
        for _ in 0..4 {
            reg.call(Symbol::intern("R"), p, &[None, None]).unwrap();
        }
        let journal = recorder.journal().unwrap().snapshot();
        assert!(journal.dropped > 0);
        let err = ReplaySource::from_journal(&journal).unwrap_err();
        assert!(err.contains("dropped"), "{err}");
    }

    /// Faults — including timeouts with their original latency/budget
    /// split — survive the journal round trip.
    #[test]
    fn faults_replay_with_recorded_latencies() {
        let (db, schema) = setup();
        let recorder = Recorder::with_journal(JournalConfig::replay());
        let cfg = FaultConfig {
            error_rate: 0.0,
            latency_ms: 50,
            latency_jitter_ms: 0,
            timeout_ms: Some(20),
            seed: 5,
        };
        let mut reg = SourceRegistry::new(&db, &schema)
            .with_fault_injection(cfg)
            .recording(&recorder);
        let p = AccessPattern::parse("oo").unwrap();
        assert!(reg.call(Symbol::intern("R"), p, &[None, None]).is_err());
        let journal = recorder.journal().unwrap().snapshot();
        let calls = recorded_calls(&journal).unwrap();
        assert_eq!(calls.len(), 1);
        assert_eq!(
            calls[0].outcome,
            Err(SourceFault::Timeout { latency_ms: 50, timeout_ms: 20 })
        );
    }
}
