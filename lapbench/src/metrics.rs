//! The benchmark's metric tables: every name `BENCHMARK.json` declares,
//! with its unit, its direction and (end to end) its regression bound.
//! `lapbench compare` reads the bounds from here; a unit test keeps the
//! tables and `BENCHMARK.json` identical.

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by before it
    /// counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. The driver wants each of these on every
/// workload and never 0, so `failed_share` (0 at baseline; carried by the
/// result's `attempted`/`failed`/`correct`) and `virtual_ms_per_req`
/// (`serve-chaos` only) are per-layer metrics instead.
///
/// `source_calls_per_req` is exact per seed, and `compare` holds it to a
/// zero bound between same-seed sets. Its bound here is for the driver,
/// which takes the spread over ten different seeds.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.15),
    e2e("latency_p50_ms", "ms", Lower, 0.15),
    e2e("latency_p95_ms", "ms", Lower, 0.25),
    e2e("source_calls_per_req", "count", Lower, 0.10),
];

/// Per-layer metrics that are counts of the seeded stream: identical on
/// every run of one seed, so `compare` gates them too, with a zero bound.
pub const EXACT_PER_LAYER: &[&str] = &["virtual_ms_per_req"];

/// Single layers, from the traced replay and the server's own counters.
/// Times are means per replayed request, so they add up to the request.
pub const PER_LAYER: &[Metric] = &[
    // lap-proto
    layer("proto.req_encode_us", "us", Lower),
    layer("proto.req_decode_us", "us", Lower),
    layer("proto.req_decode_ns_per_byte", "ns/B", Lower),
    layer("proto.resp_encode_us", "us", Lower),
    layer("proto.resp_decode_us", "us", Lower),
    layer("proto.req_bytes", "B", Lower),
    layer("proto.resp_bytes", "B", Lower),
    // lap-ir / lap-core plan / lap-containment / lap-planner
    layer("ir.parse_us", "us", Lower),
    layer("core.plan_star_us", "us", Lower),
    layer("core.feasible_us", "us", Lower),
    layer("core.lower_us", "us", Lower),
    layer("core.compile_us", "us", Lower),
    layer("core.cache_lookup_us", "us", Lower),
    layer("core.cache_hit_share", "share", Higher),
    layer("core.cache_evictions", "count", Lower),
    layer("containment.decisions_per_compile", "count", Lower),
    layer("containment.memo_hit_share", "share", Higher),
    layer("core.decision_path_share.coincide", "share", Higher),
    layer("core.decision_path_share.null", "share", Higher),
    layer("core.decision_path_share.containment", "share", Lower),
    // lap-engine
    layer("engine.from_facts_us", "us", Lower),
    layer("engine.from_facts_ns_per_tuple", "ns/tuple", Lower),
    layer("engine.execute_us", "us", Lower),
    layer("engine.execute_resilient_us", "us", Lower),
    layer("engine.source_calls", "count", Lower),
    layer("engine.membership_probes", "count", Lower),
    layer("engine.call_cache_hits", "count", Higher),
    layer("engine.rows_per_call", "count", Higher),
    layer("engine.batches", "count", Lower),
    layer("engine.batch_fill_share", "share", Higher),
    layer("engine.retries", "count", Lower),
    layer("engine.failures", "count", Lower),
    layer("engine.degraded_disjuncts", "count", Lower),
    layer("engine.answers_per_req", "count", Higher),
    // lap-core render
    layer("core.render_us", "us", Lower),
    // lap-obs
    layer("obs.record_overhead_us", "us", Lower),
    layer("obs.journal_events_per_req", "count", Lower),
    layer("obs.snapshot_us", "us", Lower),
    layer("obs.fold_us", "us", Lower),
    layer("obs.journal_dropped", "count", Lower),
    layer("obs.fold_coverage_share", "share", Higher),
    // daemon, over the untraced window
    layer("daemon.request_us_p50", "us", Lower),
    layer("daemon.request_us_p95", "us", Lower),
    layer("daemon.gate_wait_us_p95", "us", Lower),
    layer("daemon.quota_rejections", "count", Lower),
    layer("daemon.errors", "count", Lower),
    layer("daemon.sweeps", "count", Lower),
    layer("daemon.recalibrations", "count", Lower),
    layer("daemon.latency_drift_share", "share", Lower),
    layer("daemon.unattributed_us", "us", Lower),
    layer("daemon.attributed_share", "share", Higher),
    // the window and the tracer themselves
    layer("virtual_ms_per_req", "virtual_ms", Lower),
    layer("failed_share", "share", Lower),
    layer("peak_rss_mb", "MiB", Lower),
    layer("clock.gauge_ms", "ms", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.stage_sum_share", "share", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use lap::obs::{json, Json};

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// binary prints and `compare` gates on. They must not drift apart.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(declared.len(), table.len(), "{key}: metric count");
            for (d, m) in declared.iter().zip(table) {
                assert_eq!(d.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(
                    d.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    d.get("better").and_then(Json::as_str),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                if key == "end_to_end" {
                    assert_eq!(
                        d.get("bound").and_then(Json::as_f64),
                        Some(m.bound),
                        "{}",
                        m.name
                    );
                }
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<_> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<_> = crate::workload::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(names, ours);
    }
}
