//! Every metric the benchmark reports, by its final name. Later issues quote
//! these names; BENCHMARK.json lists the same ones (a unit test checks it).

use serde::Serialize;
use std::collections::BTreeMap;

/// How much worse a metric may get before a change is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the parent's value.
    Relative(f64),
    /// A difference in the metric's own unit (shares near 0 or 1, where a
    /// ratio is undefined or meaningless).
    Absolute(f64),
}

/// A metric a user of the pool would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Bound,
    /// A count that repeats exactly for one commit and one seed.
    pub exact: bool,
    /// Listed in BENCHMARK.json and printed by `--trace 0`. The contract
    /// admits only metrics that are never 0 and whose spread across *seeds*
    /// stays within a relative bound of at most 25%; the other four are
    /// reported by the full run and gated by `compare` at equal seeds.
    pub in_contract: bool,
}

pub const END_TO_END: [EndToEnd; 8] = [
    // The issue asked for 10%. On the recording host the floor's quartiles
    // sit 6-19% of its median apart across ten runs, and the host itself
    // slows by up to 40% for minutes at a time (README.md, "What the bound
    // can be"); the contract caps a bound at 25%.
    EndToEnd {
        name: "epoch_wall_s",
        unit: "s",
        higher_is_better: false,
        bound: Bound::Relative(0.25),
        exact: false,
        in_contract: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: Bound::Relative(0.25),
        exact: false,
        in_contract: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: Bound::Relative(0.10),
        exact: false,
        in_contract: true,
    },
    // Exact at one seed. Across seeds it moves with the number of
    // double-checks, one proof opening (7.7% of a socket_v3 epoch) at a time.
    EndToEnd {
        name: "comm_bytes_per_epoch",
        unit: "B",
        higher_is_better: false,
        bound: Bound::Relative(0.15),
        exact: true,
        in_contract: true,
    },
    // 0 on flat_baseline (no proofs to store), so no relative bound fits.
    EndToEnd {
        name: "worker_storage_bytes",
        unit: "B",
        higher_is_better: false,
        bound: Bound::Absolute(0.0),
        exact: true,
        in_contract: false,
    },
    // Exact at one seed; across seeds its quartiles sit 10-26% of the median
    // apart after four epochs of training (README.md, "Noise").
    EndToEnd {
        name: "final_accuracy",
        unit: "share",
        higher_is_better: true,
        bound: Bound::Absolute(0.05),
        exact: true,
        in_contract: false,
    },
    // Omitted on flat_baseline, which verifies nothing.
    EndToEnd {
        name: "cheater_reject_share",
        unit: "share",
        higher_is_better: true,
        bound: Bound::Absolute(0.0),
        exact: true,
        in_contract: false,
    },
    // Always 0 on a healthy run: the contract carries it as failed/attempted.
    EndToEnd {
        name: "failed_share",
        unit: "share",
        higher_is_better: false,
        bound: Bound::Absolute(0.0),
        exact: true,
        in_contract: false,
    },
];

/// A metric of a single layer, from the traced run. No bound. `moves` names
/// the end-to-end metric it should move, and on which workloads.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        moves,
    }
}

const CALIBRATING: &str =
    "epoch_wall_s on flat_v2, socket_v3; setup_s on socket_v1_lossy; none on flat_baseline";
const TRAINING: &str = "epoch_wall_s on all four (flat_baseline most)";
const COMMITTING: &str = "epoch_wall_s on flat_v2 (lsh), socket_v3 (lsh + quant), socket_v1_lossy (sha256x8); none on flat_baseline";
const VERIFYING: &str = "epoch_wall_s on flat_v2, socket_v3, socket_v1_lossy";
const WIRE: &str = "epoch_wall_s and comm_bytes_per_epoch on socket_v3, socket_v1_lossy";
const LOSSY: &str = "comm_bytes_per_epoch and failed operations on socket_v1_lossy";
const SERVING: &str = "epoch_wall_s, peak_rss_mb on socket_v3, socket_v1_lossy";
const DIAGNOSTIC: &str = "diagnostic; moves nothing";

pub const PER_LAYER: [PerLayer; 51] = [
    lower("manager.begin_epoch_s", "s", CALIBRATING),
    lower("calibrate.calibrate_s", "s", CALIBRATING),
    lower("lsh.generate_family_s", "s", CALIBRATING),
    lower("worker.run_epoch_s", "s", TRAINING),
    lower("trainer.run_epoch_s", "s", TRAINING),
    lower("trainer.step_s", "s", TRAINING),
    lower("nn.forward_s", "s", TRAINING),
    lower("nn.backward_s", "s", TRAINING),
    higher("tensor.gemm_gflops", "GFLOP/s", TRAINING),
    lower("commitment.commit_s", "s", COMMITTING),
    lower("lsh.hash_batch_s", "s", COMMITTING),
    lower("lsh.hashes_per_checkpoint", "count", COMMITTING),
    lower("crypto.commit_hash_s", "s", COMMITTING),
    lower("tensor.quantize_s", "s", COMMITTING),
    lower("manager.finish_epoch_s", "s", VERIFYING),
    lower("verify.verify_samples_s", "s", VERIFYING),
    lower("trainer.replay_segment_s", "s", VERIFYING),
    lower("verify.replayed_steps", "count", VERIFYING),
    lower("verify.double_checks", "count", VERIFYING),
    higher("verify.cheater_reject_share", "share", "failed operations on flat_v2, socket_v3, socket_v1_lossy; 0 by construction on flat_baseline"),
    lower("manager.aggregate_s", "s", VERIFYING),
    lower("pool.eval_s", "s", "epoch_wall_s on all four"),
    lower("pool.failed_share", "share", "failed operations on all four"),
    higher("pool.final_accuracy", "share", "final_accuracy on all four; exact at one seed"),
    lower("amlayer.generate_s", "s", "setup_s on all four"),
    lower("worker.storage_bytes", "B", "the paper's storage overhead; exact; 0 on flat_baseline, so it cannot carry a relative bound"),
    lower("wire.encode_submission_s", "s", WIRE),
    lower("wire.decode_submission_s", "s", WIRE),
    lower("wire.encode_proof_s", "s", WIRE),
    lower("wire.decode_proof_s", "s", WIRE),
    lower("wire.bytes_per_submission", "B", WIRE),
    higher("wire.bytes_saved", "B", WIRE),
    lower("transport.exchanges", "count", LOSSY),
    lower("transport.attempts", "count", LOSSY),
    lower("transport.retries", "count", LOSSY),
    lower("transport.wire_bytes", "B", LOSSY),
    lower("server.frames_in", "count", SERVING),
    lower("server.frames_out", "count", SERVING),
    lower("server.bytes_in", "B", SERVING),
    lower("server.bytes_out", "B", SERVING),
    higher("server.buf_pool_hit_share", "share", SERVING),
    lower("server.corrupt_frames", "count", LOSSY),
    lower("client.reconnects", "count", LOSSY),
    lower("client.corrupt_frames", "count", LOSSY),
    lower("exec.threads", "count", SERVING),
    lower("server.overhead_s", "s", SERVING),
    lower("cpu_s_per_pass", "s", DIAGNOSTIC),
    lower("obs.trace_overhead_x", "x", DIAGNOSTIC),
    lower("conservation_gap_share", "share", DIAGNOSTIC),
    lower("traced_epoch_wall_s", "s", DIAGNOSTIC),
    lower("critical_path_s", "s", DIAGNOSTIC),
];

/// Ungated readings of the untraced run, reported next to the end-to-end
/// metrics by the full run: the samples behind the floor, and the floor
/// against the control's.
pub const DIAGNOSTICS: [PerLayer; 4] = [
    lower(
        "epoch_wall_p50_s",
        "s",
        "median of the floor's samples: shows a cost paid only under contention",
    ),
    lower("epoch_wall_max_s", "s", "slowest of the floor's samples"),
    higher(
        "epoch_samples",
        "count",
        "passes x timed epochs behind the floor",
    ),
    lower(
        "verify_overhead_x",
        "x",
        "epoch_wall_s / flat_baseline's; deliberately ungated: a pure training speed-up worsens it",
    ),
];

#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: &'static str,
}

/// Metric values by name, in name order.
pub type Metrics = BTreeMap<String, MetricValue>;

pub fn put(metrics: &mut Metrics, name: &str, value: f64) {
    let unit = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(
            PER_LAYER
                .iter()
                .chain(&DIAGNOSTICS)
                .map(|m| (m.name, m.unit)),
        )
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's tables"))
        .1;
    metrics.insert(name.to_string(), MetricValue { value, unit });
}

/// The contract's result line: exactly these four keys.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::WORKLOADS;
    use rpol_json::Value;
    use std::collections::BTreeSet;

    /// Names start with a letter or digit and use at most 64 letters, digits,
    /// `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    /// Units use at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn every_name_and_unit_is_in_the_contract_charset_and_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(
                PER_LAYER
                    .iter()
                    .chain(&DIAGNOSTICS)
                    .map(|m| (m.name, m.unit)),
            )
            .chain(WORKLOADS.iter().map(|w| (w.name, "s")));
        for (name, unit) in names {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!valid_name("-x") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(!valid_unit("GFLOP per second") && valid_unit("1/s"));
    }

    #[test]
    fn bounds_stay_within_the_contract_and_setup_has_the_largest() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert!(!setup.higher_is_better && setup.unit == "s");
        let Bound::Relative(largest) = setup.bound else {
            panic!("setup_s carries a relative bound");
        };
        for m in END_TO_END.iter().filter(|m| m.in_contract) {
            let Bound::Relative(bound) = m.bound else {
                panic!("{}: the contract's bounds are shares of the median", m.name);
            };
            assert!(
                bound > 0.0 && bound <= 0.25 && bound <= largest,
                "{}",
                m.name
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::new();
        put(&mut metrics, "epoch_wall_s", 1.25);
        let line = rpol_json::to_string(&RunResult {
            correct: true,
            attempted: 63,
            failed: 0,
            metrics,
        })
        .expect("serializable");
        let parsed = rpol_json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .entries()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = parsed
            .get("metrics")
            .and_then(|m| m.get("epoch_wall_s"))
            .expect("metric present");
        assert_eq!(m.get("value"), Some(&Value::Num(1.25)));
        assert_eq!(m.get("unit"), Some(&Value::Str("s".into())));
        assert!(!line.contains('\n'));
    }

    /// BENCHMARK.json is written by hand; this keeps it equal to the tables.
    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = rpol_json::parse(&text).expect("valid JSON");
        let keys: BTreeSet<&str> = json
            .entries()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: BTreeSet<&str> = [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ]
        .into();
        assert_eq!(keys, expected);
        assert_eq!(
            json.get("run_seconds").and_then(Value::as_f64),
            Some(crate::task::REFERENCE_SECONDS)
        );
        let list = |key: &str| json.get(key).and_then(Value::as_array).expect("array");
        let text_of = |v: &Value, key: &str| -> String {
            v.get(key).and_then(Value::as_str).expect("string").into()
        };
        let got: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(got, want);
        let direction = |higher: bool| if higher { "higher" } else { "lower" };
        let got: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    bound,
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|m| m.in_contract)
            .map(|m| {
                let Bound::Relative(bound) = m.bound else {
                    panic!("{}: the contract's bounds are shares of the median", m.name);
                };
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    direction(m.higher_is_better).to_string(),
                    bound,
                )
            })
            .collect();
        assert_eq!(got, want);
        let got: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    direction(m.higher_is_better).to_string(),
                )
            })
            .collect();
        assert_eq!(got, want);
    }
}
