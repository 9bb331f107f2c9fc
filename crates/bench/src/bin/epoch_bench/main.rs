//! `epoch_bench`: the repository's one benchmark of the unit that matters,
//! a pool epoch. Four workloads over one paper-scale task, end-to-end
//! metrics from fresh-process passes with tracing off, per-layer metrics
//! from a separate traced run. See README.md in this directory.
//!
//! ```text
//! epoch_bench --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! epoch_bench [--seed N] [--seconds S] [--smoke] [--out FILE] [--trace-out FILE]
//!                                                             all workloads, both runs
//! epoch_bench compare a.json b.json [--exact-counts]          two report files
//! epoch_bench pass W VARIANT SEED EPOCHS smoke|full           (internal) one pass
//! ```

mod compare;
mod metrics;
mod pass;
mod run;
mod stats;
mod task;
mod trace;
mod traced;

use metrics::{Bound, Metrics, DIAGNOSTICS, END_TO_END, PER_LAYER};
use run::RunOutcome;
use serde::Serialize;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use task::{Variant, Workload, PINNED_ENV, REFERENCE_SECONDS, WORKLOADS};

const DEFAULT_SEED: u64 = 42;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: REFERENCE_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(task::workload(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(value()?.clone()),
            "--trace-out" => parsed.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// `pass W VARIANT SEED EPOCHS smoke|full`: the child side of a pass.
fn pass_main(args: &[String]) -> Result<(), String> {
    let [name, variant, seed, epochs, scale] = args else {
        return Err("usage: pass W VARIANT SEED EPOCHS smoke|full".into());
    };
    let w = task::workload(name).ok_or(format!("unknown workload {name}"))?;
    let variant = Variant::parse(variant).ok_or(format!("unknown variant {variant}"))?;
    let seed = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let epochs = epochs.parse().map_err(|e| format!("epochs: {e}"))?;
    let result = pass::run_in_process(w, variant, seed, epochs, scale == "smoke")?;
    println!(
        "{}",
        rpol_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn compare_main(args: &[String]) -> Result<bool, String> {
    let exact = args.iter().any(|a| a == "--exact-counts");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a, b] = files[..] else {
        return Err("usage: compare a.json b.json [--exact-counts]".into());
    };
    let load = |path: &String| -> Result<rpol_json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        rpol_json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?, exact)?;
    compare::print(&rows);
    let failed = rows.iter().filter(|r| r.failed()).count();
    println!("{failed} of {} rows beyond their bound", rows.len());
    Ok(failed == 0)
}

fn write_trace(path: &str, spans: &[trace::Span]) -> Result<(), String> {
    std::fs::write(path, trace::to_jsonl(spans)).map_err(|e| format!("{path}: {e}"))
}

/// One workload, one run, the contract's result line last.
fn single_run(w: &Workload, args: &Args) -> Result<bool, String> {
    let outcome = if args.trace {
        run::traced(w, args.seed, args.smoke)
    } else {
        run::untraced(w, args.seed, args.seconds, args.smoke)
    };
    for problem in &outcome.problems {
        eprintln!("epoch_bench: {}: {problem}", w.name);
    }
    // Reported, not fatal here: see `conservation_gap_share`. The full run
    // (no `--workload`) exits non-zero on these.
    for violation in &outcome.conservation_violations {
        eprintln!("epoch_bench: {}: warning: {violation}", w.name);
    }
    if let Some(path) = &args.trace_out {
        write_trace(path, &outcome.spans)?;
    }
    if outcome.result.metrics.is_empty() {
        return Err(format!("{}: no pass completed", w.name));
    }
    let mut result = outcome.result;
    if !args.trace {
        // The result line carries exactly BENCHMARK.json's end-to-end list.
        let listed = |name: &str| END_TO_END.iter().any(|m| m.in_contract && m.name == name);
        result.metrics.retain(|name, _| listed(name));
    }
    println!(
        "{}",
        rpol_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(result.correct)
}

#[derive(Serialize)]
struct Host {
    nproc: u64,
    cpu_model: String,
    rustc: String,
    commit: String,
    pinned_env: Vec<String>,
}

#[derive(Serialize)]
struct WorkloadReport {
    passes: u64,
    timed_epochs: u64,
    correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    end_to_end: Metrics,
    per_layer: Metrics,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    seconds: f64,
    smoke: bool,
    host: Host,
    workloads: BTreeMap<String, WorkloadReport>,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn host_facts() -> Host {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        cpu_model,
        rustc: first_line_of("rustc", &["--version"]),
        commit: first_line_of("git", &["rev-parse", "HEAD"]),
        pinned_env: PINNED_ENV.iter().map(|(k, v)| format!("{k}={v}")).collect(),
    }
}

fn print_metrics(title: &str, values: &Metrics, note: impl Fn(&str) -> String) {
    println!("  {title}");
    for (name, m) in values {
        println!(
            "    {name:<28} {:>16.6} {:<8} {}",
            m.value,
            m.unit,
            note(name)
        );
    }
}

fn print_workload(w: &Workload, seed: u64, report: &WorkloadReport) {
    println!(
        "== {}: {} passes x {} timed epochs, seed {seed}: correct={} attempted={} failed={}",
        w.name, report.passes, report.timed_epochs, report.correct, report.attempted, report.failed
    );
    println!("   {}", w.why);
    print_metrics("end-to-end (tracing off)", &report.end_to_end, |name| {
        let Some(m) = END_TO_END.iter().find(|m| m.name == name) else {
            let d = DIAGNOSTICS
                .iter()
                .find(|m| m.name == name)
                .expect("in the table");
            return format!("ungated: {}", d.moves);
        };
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        match m.bound {
            Bound::Relative(b) => format!("{better} is better, bound {:.0}%", b * 100.0),
            Bound::Absolute(b) => format!("{better} is better, bound {b} absolute"),
        }
    });
    print_metrics("per-layer (traced run)", &report.per_layer, |name| {
        let m = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .expect("in the table");
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        format!("{better} is better -> {}", m.moves)
    });
    for problem in &report.problems {
        println!("  PROBLEM: {problem}");
    }
}

/// Every workload, both runs, every metric by name with its unit.
fn full_run(args: &Args) -> Result<bool, String> {
    let mut workloads = BTreeMap::new();
    let mut all_spans = Vec::new();
    let mut correct = true;
    // `flat_baseline` is the first workload: its floor is the control's.
    let mut control_floor = None;
    for w in &WORKLOADS {
        let RunOutcome {
            result: mut untraced,
            mut problems,
            passes,
            timed_epochs,
            ..
        } = run::untraced(w, args.seed, args.seconds, args.smoke);
        if let Some(floor) = untraced.metrics.get("epoch_wall_s").map(|m| m.value) {
            let control = *control_floor.get_or_insert(floor);
            metrics::put(&mut untraced.metrics, "verify_overhead_x", floor / control);
        }
        let traced = run::traced(w, args.seed, args.smoke);
        problems.extend(traced.problems);
        problems.extend(traced.conservation_violations);
        all_spans.extend(traced.spans);
        let report = WorkloadReport {
            passes: passes as u64,
            timed_epochs: timed_epochs as u64,
            correct: problems.is_empty(),
            attempted: untraced.attempted + traced.result.attempted,
            failed: untraced.failed + traced.result.failed,
            problems,
            end_to_end: untraced.metrics,
            per_layer: traced.result.metrics,
        };
        print_workload(w, args.seed, &report);
        correct &= report.correct;
        workloads.insert(w.name.to_string(), report);
    }
    let report = Report {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        host: host_facts(),
        workloads,
    };
    if let Some(path) = &args.out {
        let text = rpol_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &args.trace_out {
        write_trace(path, &all_spans)?;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    // Before any thread starts or any layer reads its configuration: the
    // traced run's composed epochs in this process and every pass it spawns
    // run the program configured the same.
    for (key, value) in PINNED_ENV {
        std::env::set_var(key, value);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("pass") => pass_main(&args[1..]).map(|()| true),
        Some("compare") => compare_main(&args[1..]),
        _ => parse_args(&args).and_then(|parsed| match parsed.workload {
            Some(w) => single_run(w, &parsed),
            None => full_run(&parsed),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("epoch_bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&strings(&[
            "--workload",
            "socket_v3",
            "--seed",
            "7",
            "--seconds",
            "24",
            "--trace",
            "1",
        ]))
        .expect("the contract's arguments");
        assert_eq!(a.workload.map(|w| w.name), Some("socket_v3"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 24.0, true, false)
        );
        let defaults = parse_args(&[]).expect("no arguments: all workloads");
        assert!(defaults.workload.is_none());
        assert_eq!(defaults.seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// The report file is what `compare` reads back.
    #[test]
    fn report_file_schema_round_trips_into_compare() {
        let mut end_to_end = Metrics::new();
        for m in &END_TO_END {
            metrics::put(&mut end_to_end, m.name, 0.5);
        }
        let mut per_layer = Metrics::new();
        metrics::put(&mut per_layer, "transport.retries", 2.0);
        let workloads = WORKLOADS
            .iter()
            .map(|w| {
                let report = WorkloadReport {
                    passes: 4,
                    timed_epochs: 3,
                    correct: true,
                    attempted: 48,
                    failed: 0,
                    problems: Vec::new(),
                    end_to_end: end_to_end.clone(),
                    per_layer: per_layer.clone(),
                };
                (w.name.to_string(), report)
            })
            .collect();
        let report = Report {
            seed: 42,
            seconds: 24.0,
            smoke: false,
            host: host_facts(),
            workloads,
        };
        let text = rpol_json::to_string_pretty(&report).expect("serializable");
        let json = rpol_json::parse(&text).expect("valid JSON");
        let rows = compare::compare(&json, &json, true).expect("schema matches");
        assert!(rows.iter().all(|r| !r.failed()));
        assert!(json.get("host").and_then(|h| h.get("nproc")).is_some());
    }
}
