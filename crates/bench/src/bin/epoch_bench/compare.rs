//! `epoch_bench compare a.json b.json`: two report files, one row per
//! workload and end-to-end metric, the relative difference against the
//! metric's bound. The tool for "same commit, same seed, twice" and for
//! every later parent-vs-change report.

use crate::metrics::{Bound, END_TO_END};
use crate::task::WORKLOADS;
use rpol_json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse `b` is than `a` (negative: better), in the bound's
    /// terms: a share of `a`, or the metric's own unit.
    pub worse_by: f64,
    pub bound: Bound,
    pub verdict: &'static str,
}

impl Row {
    pub fn failed(&self) -> bool {
        self.verdict != "ok" && self.verdict != "better"
    }
}

fn metric_value(workload: &Value, group: &str, name: &str) -> Option<f64> {
    workload.get(group)?.get(name)?.get("value")?.as_f64()
}

fn row(
    workload: &str,
    metric: &str,
    (a, b): (f64, f64),
    higher_is_better: bool,
    bound: Bound,
    must_be_exact: bool,
) -> Row {
    let change = match bound {
        Bound::Relative(_) if a == b => 0.0,
        Bound::Relative(_) => (b - a) / a.abs(),
        Bound::Absolute(_) => b - a,
    };
    // `0.0 +`: an unchanged higher-is-better metric is 0, not -0.
    let worse_by = 0.0 + if higher_is_better { -change } else { change };
    let (Bound::Relative(limit) | Bound::Absolute(limit)) = bound;
    let verdict = if must_be_exact && a != b {
        "NOT EXACT"
    } else if worse_by > limit {
        "WORSE"
    } else if worse_by < -limit {
        "better"
    } else {
        "ok"
    };
    Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        a,
        b,
        worse_by,
        bound,
        verdict,
    }
}

/// Compares report `b` against report `a`. With `exact_counts` (two runs of
/// one commit at one seed) every count metric must agree exactly, the
/// traced run's `transport.*` counters included.
pub fn compare(a: &Value, b: &Value, exact_counts: bool) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let side = |report: &Value, which: &str| {
            report
                .get("workloads")
                .and_then(|ws| ws.get(w.name))
                .cloned()
                .ok_or(format!("{which}: workload {} missing", w.name))
        };
        let (wa, wb) = (side(a, "a")?, side(b, "b")?);
        for m in &END_TO_END {
            let values = (
                metric_value(&wa, "end_to_end", m.name),
                metric_value(&wb, "end_to_end", m.name),
            );
            match values {
                (Some(va), Some(vb)) => rows.push(row(
                    w.name,
                    m.name,
                    (va, vb),
                    m.higher_is_better,
                    m.bound,
                    exact_counts && m.exact,
                )),
                // `cheater_reject_share` on flat_baseline.
                (None, None) => {}
                _ => return Err(format!("{} on {}: in one report only", m.name, w.name)),
            }
        }
        if exact_counts {
            let counts = wa
                .get("per_layer")
                .and_then(Value::entries)
                .unwrap_or(&[])
                .iter()
                .map(|(name, _)| name.as_str())
                .filter(|n| n.starts_with("transport."));
            for name in counts {
                let (Some(va), Some(vb)) = (
                    metric_value(&wa, "per_layer", name),
                    metric_value(&wb, "per_layer", name),
                ) else {
                    return Err(format!("b: {name} missing on {}", w.name));
                };
                let exact = Bound::Absolute(0.0);
                rows.push(row(w.name, name, (va, vb), false, exact, true));
            }
        }
    }
    Ok(rows)
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<16} {:<24} {:>16} {:>16} {:>12} {:>10}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in rows {
        let (worse_by, bound) = match r.bound {
            Bound::Relative(b) => (
                format!("{:.2}%", r.worse_by * 100.0),
                format!("{:.0}%", b * 100.0),
            ),
            Bound::Absolute(b) => (format!("{:.4}", r.worse_by), format!("{b} abs")),
        };
        println!(
            "{:<16} {:<24} {:>16.6} {:>16.6} {worse_by:>12} {bound:>10}  {}",
            r.workload, r.metric, r.a, r.b, r.verdict
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(epoch_wall: f64, comm: f64, accuracy: f64, retries: f64) -> Value {
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    r#""{}":{{"end_to_end":{{
                    "epoch_wall_s":{{"value":{epoch_wall},"unit":"s"}},
                    "setup_s":{{"value":1.0,"unit":"s"}},
                    "peak_rss_mb":{{"value":40.0,"unit":"MB"}},
                    "comm_bytes_per_epoch":{{"value":{comm},"unit":"B"}},
                    "worker_storage_bytes":{{"value":0.0,"unit":"B"}},
                    "final_accuracy":{{"value":{accuracy},"unit":"share"}},
                    "failed_share":{{"value":0.0,"unit":"share"}}}},
                    "per_layer":{{"transport.retries":{{"value":{retries},"unit":"count"}},
                    "nn.forward_s":{{"value":0.1,"unit":"s"}}}}}}"#,
                    w.name
                )
            })
            .collect();
        rpol_json::parse(&format!(r#"{{"workloads":{{{}}}}}"#, workloads.join(",")))
            .expect("valid JSON")
    }

    #[test]
    fn identical_reports_pass_even_with_exact_counts() {
        let a = report(1.0, 1000.0, 0.9, 3.0);
        let rows = compare(&a, &a, true).expect("well-formed");
        // 7 end-to-end (no cheater share in the fixture) + 1 transport
        // counter, per workload.
        assert_eq!(rows.len(), WORKLOADS.len() * 8);
        assert!(rows.iter().all(|r| !r.failed()));
    }

    #[test]
    fn a_timing_within_its_bound_is_ok_and_beyond_it_is_worse() {
        let a = report(1.0, 1000.0, 0.9, 3.0);
        let within = compare(&a, &report(1.24, 1000.0, 0.9, 3.0), true).expect("well-formed");
        assert!(within.iter().all(|r| !r.failed()));
        let beyond = compare(&a, &report(1.26, 1000.0, 0.9, 3.0), false).expect("well-formed");
        let failed: Vec<&Row> = beyond.iter().filter(|r| r.failed()).collect();
        assert_eq!(failed.len(), WORKLOADS.len());
        assert!(failed
            .iter()
            .all(|r| r.metric == "epoch_wall_s" && r.verdict == "WORSE"));
        let faster = compare(&a, &report(0.5, 1000.0, 0.9, 3.0), false).expect("well-formed");
        assert!(faster.iter().all(|r| !r.failed()));
        assert!(faster.iter().any(|r| r.verdict == "better"));
    }

    #[test]
    fn higher_is_better_metrics_worsen_downwards() {
        let a = report(1.0, 1000.0, 0.9, 3.0);
        let rows = compare(&a, &report(1.0, 1000.0, 0.84, 3.0), false).expect("well-formed");
        let acc = rows
            .iter()
            .find(|r| r.metric == "final_accuracy")
            .expect("row present");
        // An absolute bound: 0.06 lower is beyond 0.05, 0.04 lower is not.
        assert!((acc.worse_by - 0.06).abs() < 1e-9 && acc.verdict == "WORSE");
        let rows = compare(&a, &report(1.0, 1000.0, 0.86, 3.0), false).expect("well-formed");
        assert!(rows.iter().all(|r| !r.failed()));
    }

    #[test]
    fn counts_must_agree_exactly_only_when_asked() {
        let a = report(1.0, 1000.0, 0.9, 3.0);
        let b = report(1.0, 1001.0, 0.9, 4.0);
        assert!(compare(&a, &b, false)
            .expect("well-formed")
            .iter()
            .all(|r| !r.failed()));
        let strict = compare(&a, &b, true).expect("well-formed");
        let failed: Vec<&str> = strict
            .iter()
            .filter(|r| r.failed())
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(failed.len(), 2 * WORKLOADS.len());
        assert!(failed.contains(&"comm_bytes_per_epoch") && failed.contains(&"transport.retries"));
    }

    #[test]
    fn a_zero_bound_fails_on_any_worsening() {
        let only_failed_share = |share: &str| {
            let workloads: Vec<String> = WORKLOADS
                .iter()
                .map(|w| {
                    format!(
                        r#""{}":{{"end_to_end":{{"failed_share":{{"value":{share},"unit":"share"}}}}}}"#,
                        w.name
                    )
                })
                .collect();
            rpol_json::parse(&format!(r#"{{"workloads":{{{}}}}}"#, workloads.join(",")))
                .expect("valid JSON")
        };
        let rows = compare(&only_failed_share("0.0"), &only_failed_share("0.01"), false)
            .expect("well-formed");
        assert_eq!(rows.len(), WORKLOADS.len());
        assert!(rows.iter().all(|r| r.verdict == "WORSE"));
        // A metric present in one report only is an error, not a pass.
        let full = report(1.0, 1000.0, 0.9, 3.0);
        assert!(compare(&full, &only_failed_share("0.0"), false).is_err());
    }

    #[test]
    fn a_missing_workload_is_an_error() {
        let a = report(1.0, 1000.0, 0.9, 3.0);
        let empty = rpol_json::parse(r#"{"workloads":{}}"#).expect("valid JSON");
        assert!(compare(&a, &empty, false).is_err());
    }
}
