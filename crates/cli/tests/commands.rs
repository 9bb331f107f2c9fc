//! Integration tests driving the CLI commands as library calls.
//!
//! Every test takes `LOCK`: the observability commands reset/enable the
//! process-wide recorder, and even obs-free pool runs bump global leaf
//! counters (commitments, nn passes) that would bleed into a concurrent
//! test's exported snapshot.

#[path = "../../rpol/tests/common/mod.rs"]
mod common;

use common::assert_same_text;
use rpol::adversary::WorkerBehavior;
use rpol::pool::{MiningPool, PoolConfig, Scheme};
use rpol::server::{BindAddr, PoolServer, ServerConfig};
use rpol_cli::commands;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

/// The executor width override `rpol_exec` reads.
const THREADS_ENV: &str = "RPOL_EXEC_THREADS";

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn raw(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rpol-cli-test-{name}"))
}

#[test]
fn overhead_covers_all_models() {
    let _g = lock();
    for model in ["resnet18", "resnet50", "vgg16"] {
        commands::overhead(&raw(&[&format!("--model={model}"), "--workers=10"]))
            .expect("model works");
    }
    assert!(commands::overhead(&raw(&["--model=alexnet"])).is_err());
    assert!(commands::overhead(&raw(&["--workers=0"])).is_err());
}

#[test]
fn pool_runs_small_and_validates() {
    let _g = lock();
    commands::pool(&raw(&[
        "--scheme=v1",
        "--workers=3",
        "--adversaries=1",
        "--epochs=1",
    ]))
    .expect("small pool runs");
    assert!(commands::pool(&raw(&["--scheme=zk"])).is_err());
    assert!(commands::pool(&raw(&["--workers=2", "--adversaries=2"])).is_err());
}

#[test]
fn pool_hierarchy_flags_run_and_validate() {
    let _g = lock();
    commands::pool(&raw(&[
        "--scheme=v1",
        "--workers=4",
        "--adversaries=1",
        "--epochs=1",
        "--committees=2",
        "--committee-audit=1",
    ]))
    .expect("hierarchical pool runs");
    // Zero committees is a configuration error, not a panic.
    let err = commands::pool(&raw(&["--committees=0"])).unwrap_err();
    assert!(err.contains("--committees"), "got: {err}");
    // Auditing more verdicts than the smallest committee holds is too.
    let err = commands::pool(&raw(&[
        "--workers=4",
        "--committees=2",
        "--committee-audit=50",
    ]))
    .unwrap_err();
    assert!(err.contains("--committee-audit"), "got: {err}");
    // The audit budget means nothing without committees to audit.
    let err = commands::pool(&raw(&["--committee-audit=1"])).unwrap_err();
    assert!(err.contains("--committees"), "got: {err}");
    // The baseline emits no verdicts to commit.
    let err = commands::pool(&raw(&["--scheme=baseline", "--committees=2"])).unwrap_err();
    assert!(err.contains("verifying scheme"), "got: {err}");
    // The chaos transport path stays flat.
    let err = commands::pool(&raw(&["--committees=2", "--faults=lossy"])).unwrap_err();
    assert!(err.contains("--faults"), "got: {err}");
}

#[test]
fn pool_refuses_the_retired_parallel_flag() {
    let _g = lock();
    // Every pool runs on the executor; a script that still asks for it
    // must fail loudly, not silently get what it always gets.
    let err = commands::pool(&raw(&["--parallel"])).unwrap_err();
    assert!(err.contains("unknown option --parallel"), "got: {err}");
}

#[test]
fn serve_refuses_a_pinned_reactor_backend() {
    let _g = lock();
    // The platform picks the reactor; a script that still pins one must
    // fail loudly before anything binds, not run on whatever it gets.
    let err = commands::serve(&raw(&["--loopback", "--backend=scan"])).unwrap_err();
    assert!(err.contains("unknown option --backend"), "got: {err}");
}

/// `rpol status` against a live loopback server that a thread pumps:
/// the probe gets its report without joining the roster.
#[test]
fn status_probes_a_live_server() {
    let _g = lock();
    let pool = MiningPool::new(
        PoolConfig::tiny_demo(Scheme::RPoLv2),
        vec![WorkerBehavior::Honest],
    );
    let server =
        PoolServer::bind(pool, &BindAddr::loopback(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let probed = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !probed.load(Ordering::Acquire) {
                let pumped = server.wait_for_workers(1, Duration::from_millis(20));
                assert!(pumped.is_err(), "no worker ever connects");
            }
        });
        let status = commands::status(&raw(&[&format!("--connect={addr}"), "--json"]));
        probed.store(true, Ordering::Release);
        status.expect("the live server answers the probe");
    });
    assert_eq!(
        server.net_stats().handshakes,
        0,
        "the probe joined the roster"
    );
}

#[test]
fn pool_trace_out_is_deterministic_and_checkable() {
    let _g = lock();
    let trace_a = tmp("trace-a.jsonl");
    let trace_b = tmp("trace-b.jsonl");
    let metrics_a = tmp("metrics-a.json");
    let metrics_b = tmp("metrics-b.json");
    // Byte-identical traces are the width-1 contract: wider executors
    // record training spans from concurrent tasks (DESIGN.md §12).
    let width = std::env::var_os(THREADS_ENV);
    std::env::set_var(THREADS_ENV, "1");
    let run = |trace: &PathBuf, metrics: &PathBuf| {
        commands::pool(&raw(&[
            "--workers=3",
            "--adversaries=1",
            "--epochs=1",
            "--faults",
            &format!("--trace-out={}", trace.display()),
            &format!("--metrics-out={}", metrics.display()),
        ]))
        .expect("faulty pool with sinks runs");
    };
    run(&trace_a, &metrics_a);
    run(&trace_b, &metrics_b);
    match width {
        Some(width) => std::env::set_var(THREADS_ENV, width),
        None => std::env::remove_var(THREADS_ENV),
    }
    let text = |path: &PathBuf| std::fs::read_to_string(path).expect("sink written");
    let trace = text(&trace_a);
    assert!(!trace.is_empty());
    assert_same_text(
        &trace,
        &text(&trace_b),
        "same-seed traces must be byte-identical",
    );
    assert_same_text(
        &text(&metrics_a),
        &text(&metrics_b),
        "same-seed metrics must be byte-identical",
    );

    let file = format!("--file={}", trace_a.display());
    commands::trace_check(&raw(&[&file])).expect("default required spans present");
    commands::trace_check(&raw(&[&file, "--require=rpol.transport.exchange"]))
        .expect("transport events present in a faulty trace");
    assert!(
        commands::trace_check(&raw(&[&file, "--require=no.such.span"])).is_err(),
        "missing span must fail the check"
    );
    for path in [trace_a, trace_b, metrics_a, metrics_b] {
        let _ = std::fs::remove_file(path);
    }
}

/// `rpol pool`'s per-phase table, as the binary prints it: one row per
/// link leg, each with the seconds that leg cost, and no column that
/// reads 0 in every row.
#[test]
fn pool_phase_table_reports_every_leg() {
    let _g = lock();
    let metrics = tmp("phase-metrics.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rpol"))
        .args([
            "pool",
            "--faults=lossy",
            "--epochs=1",
            &format!("--metrics-out={}", metrics.display()),
        ])
        .output()
        .expect("rpol runs");
    let _ = std::fs::remove_file(metrics);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let rows: Vec<Vec<&str>> = stdout
        .split("per-phase breakdown (metrics registry):\n")
        .nth(1)
        .expect("a per-phase table")
        .lines()
        .skip(2) // header and rule
        .take_while(|line| !line.is_empty())
        .map(|line| line.split_whitespace().collect())
        .collect();
    let mut legs: Vec<&str> = rows.iter().map(|row| row[0]).collect();
    legs.sort_unstable();
    assert_eq!(
        legs,
        [
            "net:proof_req",
            "net:proof_resp",
            "net:submission",
            "net:task"
        ],
        "{stdout}"
    );
    let seconds = |row: &Vec<&str>, column: usize| row[column].parse::<f64>().expect("a number");
    assert!(rows.iter().all(|row| seconds(row, 1) > 0.0), "{stdout}");
    for column in 1..rows[0].len() {
        assert!(
            rows.iter().any(|row| seconds(row, column) > 0.0),
            "column {column} is 0 in every row:\n{stdout}"
        );
    }
}

#[test]
fn overhead_metrics_out_parses_and_covers_schemes() {
    let _g = lock();
    let metrics = tmp("overhead-metrics.json");
    commands::overhead(&raw(&[
        "--workers=10",
        "--faults=lossy",
        &format!("--metrics-out={}", metrics.display()),
    ]))
    .expect("overhead with metrics sink runs");
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let value = rpol_json::parse(&text).expect("metrics JSON parses");
    let counters = value.get("counters").expect("counters section");
    for scheme in ["Baseline", "RPoLv1", "RPoLv2"] {
        assert!(
            counters
                .get(&format!("cli.overhead.{scheme}.comm_bytes"))
                .is_some(),
            "missing comm bytes for {scheme}"
        );
    }
    let _ = std::fs::remove_file(metrics);
}

#[test]
fn trace_check_rejects_garbage_and_empty() {
    let _g = lock();
    let bad = tmp("bad.jsonl");
    std::fs::write(&bad, "not json\n").expect("write");
    let file = format!("--file={}", bad.display());
    assert!(commands::trace_check(&raw(&[&file])).is_err());
    std::fs::write(&bad, "").expect("write");
    assert!(commands::trace_check(&raw(&[&file])).is_err());
    assert!(commands::trace_check(&raw(&["--file=/no/such/file.jsonl"])).is_err());
    let _ = std::fs::remove_file(bad);
}
