//! `lapbench compare a b`: applies the end-to-end bounds to two result sets
//! (several runs of each workload on two commits, or twice on one).

use crate::metrics::{Better, END_TO_END, EXACT_PER_LAYER, PER_LAYER};
use crate::stats::{median, spread};
use lap::obs::{json, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Regressed,
    Improved,
    /// The run-to-run spread is wider than the bound, and the two sets
    /// overlap: the benchmark cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric on one workload. `base` and `change` hold one value
/// per run; `bound` is the share of the base median the metric may worsen by.
pub fn judge(better: Better, bound: f64, base: &[f64], change: &[f64]) -> Verdict {
    let (base_mid, change_mid) = (median(base), median(change));
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    // Positive = worse, as a share of the base median.
    let worsening = if base_mid == 0.0 {
        sign * (change_mid - base_mid)
    } else {
        sign * (change_mid - base_mid) / base_mid.abs()
    };
    if spread(base).max(spread(change)) > bound {
        // Too noisy to resolve by medians; only a clean separation counts.
        let worse_than = |a: f64, b: f64| sign * (a - b) > 0.0;
        let all =
            |f: &dyn Fn(f64, f64) -> bool| change.iter().all(|&c| base.iter().all(|&b| f(c, b)));
        return if all(&|c, b| worse_than(b, c)) {
            Verdict::Improved
        } else if all(&|c, b| worse_than(c, b)) && worsening > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Regressed
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

/// One run record, reduced to what the comparison needs.
struct Run {
    workload: String,
    seed: u64,
    failed_share: f64,
    metrics: BTreeMap<String, f64>,
}

/// Reads a result set: a file holding one run record or an array of them,
/// or a directory of such files (`trace-*` files are skipped). Per-layer
/// records count too: for failures and the [`EXACT_PER_LAYER`] metrics.
fn load(path: &Path) -> Result<Vec<Run>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = entry.map_err(|e| e.to_string())?.path();
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".json") && !name.starts_with("trace-") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_owned());
    }
    let mut runs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let records = match &doc {
            Json::Arr(items) => items.clone(),
            other => vec![other.clone()],
        };
        for record in &records {
            runs.push(parse_run(record).map_err(|e| format!("{}: {e}", file.display()))?);
        }
    }
    Ok(runs)
}

fn parse_run(record: &Json) -> Result<Run, String> {
    let workload = record
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("run record without \"workload\"")?;
    let Some(Json::Obj(pairs)) = record.get("metrics") else {
        return Err("run record without \"metrics\"".to_owned());
    };
    let attempted = record
        .get("attempted")
        .and_then(Json::as_f64)
        .unwrap_or(1.0)
        .max(1.0);
    Ok(Run {
        workload: workload.to_owned(),
        seed: record.get("seed").and_then(Json::as_u64).unwrap_or(0),
        failed_share: record.get("failed").and_then(Json::as_f64).unwrap_or(0.0) / attempted,
        metrics: pairs
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value").and_then(Json::as_f64)?)))
            .collect(),
    })
}

/// Compares two result sets, printing one line per (metric, workload).
/// Returns the number of regressions.
pub fn compare(base: &Path, change: &Path) -> Result<usize, String> {
    let (base, change) = (load(base)?, load(change)?);
    let workloads: BTreeSet<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    let mut regressions = 0;
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "change", "delta", "spread"
    );
    for workload in workloads {
        let b: Vec<&Run> = base.iter().filter(|r| r.workload == workload).collect();
        let c: Vec<&Run> = change.iter().filter(|r| r.workload == workload).collect();
        if c.is_empty() {
            println!("{workload:<14} missing from the second set");
            regressions += 1;
            continue;
        }
        let one_seed = b.iter().chain(&c).all(|r| r.seed == b[0].seed);
        let exact_layers = PER_LAYER
            .iter()
            .filter(|m| EXACT_PER_LAYER.contains(&m.name));
        for metric in END_TO_END.iter().chain(exact_layers) {
            let values = |set: &[&Run]| {
                set.iter()
                    .filter_map(|r| r.metrics.get(metric.name).copied())
                    .collect::<Vec<_>>()
            };
            let (bv, cv) = (values(&b), values(&c));
            if bv.is_empty() || cv.is_empty() {
                continue;
            }
            // A per-layer count reads 0 where it does not apply, and has no
            // bound to go by across seeds.
            let per_layer = EXACT_PER_LAYER.contains(&metric.name);
            if per_layer && (!one_seed || bv.iter().chain(&cv).all(|&v| v == 0.0)) {
                continue;
            }
            // Counts of the seeded stream are identical on every run of one
            // seed, so between same-seed sets any change at all is real.
            let exact = per_layer || metric.name == "source_calls_per_req";
            let bound = if one_seed && exact { 0.0 } else { metric.bound };
            let verdict = judge(metric.better, bound, &bv, &cv);
            regressions += usize::from(verdict == Verdict::Regressed);
            let (bm, cm) = (median(&bv), median(&cv));
            println!(
                "{workload:<14} {:<22} {bm:>12.4} {cm:>12.4} {:>+7.1}% {:>6.1}%  {}",
                metric.name,
                if bm != 0.0 {
                    (cm - bm) / bm * 100.0
                } else {
                    0.0
                },
                spread(&bv).max(spread(&cv)) * 100.0,
                verdict.as_str()
            );
        }
        // Failures may not increase at all; the baseline has none.
        let worst = |set: &[&Run]| set.iter().map(|r| r.failed_share).fold(0.0, f64::max);
        let verdict = if worst(&c) > worst(&b) {
            Verdict::Regressed
        } else {
            Verdict::Same
        };
        regressions += usize::from(verdict == Verdict::Regressed);
        println!(
            "{workload:<14} {:<22} {:>12.4} {:>12.4} {:>8} {:>7}  {}",
            "failed_share",
            worst(&b),
            worst(&c),
            "",
            "",
            verdict.as_str()
        );
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn within_the_bound_is_same() {
        assert_eq!(
            judge(Lower, 0.10, &[10.0, 10.1, 9.9], &[10.5, 10.4, 10.6]),
            Verdict::Same
        );
        assert_eq!(
            judge(Higher, 0.10, &[100.0, 101.0, 99.0], &[95.0, 96.0, 94.0]),
            Verdict::Same
        );
    }

    #[test]
    fn beyond_the_bound_follows_the_direction() {
        assert_eq!(
            judge(Lower, 0.10, &[10.0, 10.1, 9.9], &[12.0, 12.1, 11.9]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Lower, 0.10, &[10.0, 10.1, 9.9], &[8.0, 8.1, 7.9]),
            Verdict::Improved
        );
        assert_eq!(
            judge(Higher, 0.10, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Higher, 0.10, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_cleanly_separated() {
        let noisy = [10.0, 14.0, 7.0, 12.0];
        assert_eq!(
            judge(Lower, 0.10, &noisy, &[11.0, 9.0, 13.0, 8.0]),
            Verdict::Unresolved
        );
        // Every run of the change beats every run of the base.
        assert_eq!(
            judge(Lower, 0.10, &noisy, &[5.0, 6.0, 4.0]),
            Verdict::Improved
        );
        assert_eq!(
            judge(Lower, 0.10, &noisy, &[20.0, 25.0, 30.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_metrics_use_a_zero_bound() {
        assert_eq!(
            judge(Lower, 0.0, &[491.0, 491.0], &[491.0, 491.0]),
            Verdict::Same
        );
        assert_eq!(
            judge(Lower, 0.0, &[491.0, 491.0], &[492.0, 492.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Lower, 0.0, &[491.0, 491.0], &[490.0, 490.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn single_runs_compare_by_value() {
        assert_eq!(judge(Lower, 0.10, &[10.0], &[10.5]), Verdict::Same);
        assert_eq!(judge(Lower, 0.10, &[10.0], &[11.5]), Verdict::Regressed);
    }
}
