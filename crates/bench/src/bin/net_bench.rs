//! Socket-transport benchmark emitting `BENCH_net.json`.
//!
//! Runs the real loopback harness ([`run_socket_pool`]): the manager
//! bound on an OS-assigned TCP port, one [`WorkerClient`] thread per
//! roster slot, every epoch executed over the wire. Three churn regimes
//! are measured:
//!
//! * **ideal** — chaos proxy seeded but silent: the socket layer's
//!   framing, backpressure, and phase machinery at full fidelity with no
//!   injected faults.
//! * **lossy** — the paper-ish WAN profile: dropped, corrupted, and
//!   truncated frames ride the same TCP stream as ghost bytes, forcing
//!   checksum rejects and retry legs.
//! * **harsh** — elevated rates; retries and undelivered legs are common
//!   and quarantines can occur, so epoch-completion latency shows real
//!   tail behaviour.
//!
//! Headline numbers per regime: sustained pristine submissions/s over
//! the whole run, and p50/p90/p99 epoch-completion latency read from the
//! server recorder's log-bucketed `net.epoch_latency` histogram — the
//! same deterministic quantile machinery `rpol status` reports live, so
//! the bench and the introspection plane can never disagree on method.
//! Rates are host-dependent, so `scripts/check_bench.sh` gates structure
//! and positivity (plus corrupt frames actually crossing the wire under
//! churn) rather than cross-host wall ratios.
//!
//! `BENCH_SMOKE=1` shrinks the roster for the CI gate; the committed baseline comes from a full run
//! (`scripts/bench_net.sh`).
//!
//! Usage: `cargo run --release -p rpol-bench --bin net_bench [out.json]`
//!
//! [`run_socket_pool`]: rpol::server::run_socket_pool
//! [`WorkerClient`]: rpol::client::WorkerClient

use rpol::adversary::WorkerBehavior;
use rpol::pool::{PoolConfig, Scheme};
use rpol::server::{run_socket_pool, ServerConfig, SocketRunOptions};
use rpol::transport::{FaultConfig, FaultProfile};
use rpol_obs::Recorder;
use std::sync::Arc;
use std::time::Instant;

/// One churn regime's measured outcome.
struct CaseResult {
    churn: &'static str,
    submissions_per_s: f64,
    p50_epoch_latency_s: f64,
    p90_epoch_latency_s: f64,
    p99_epoch_latency_s: f64,
    pristine_submissions: u64,
    quarantined: u64,
    corrupt_frames: u64,
    shed_submissions: u64,
    reconnects: u64,
    wall_s: f64,
}

fn run_case(
    churn: &'static str,
    fault: FaultConfig,
    workers: usize,
    epochs: usize,
    steps: usize,
) -> CaseResult {
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv2).with_faults(fault);
    config.epochs = epochs;
    config.steps_per_epoch = steps;
    config.q_samples = 2;
    config.test_samples = 64;
    config.train_samples = (workers + 1) * 8;
    // One replayer keeps the rejection path on the wire; the rest honest.
    let mut behaviors = vec![WorkerBehavior::Honest; workers];
    behaviors[workers / 2] = WorkerBehavior::ReplayPrevious;

    // The server publishes per-epoch completion latency into the
    // log-bucketed `net.epoch_latency` histogram (µs); its deterministic
    // quantiles are the headline order statistics.
    let rec = Arc::new(Recorder::logical());
    let options = SocketRunOptions {
        server: ServerConfig {
            parallel_verify: false,
            ..ServerConfig::default()
        },
        recorder: Some(rec.clone()),
        ..SocketRunOptions::default()
    };
    let t0 = Instant::now();
    let outcome = run_socket_pool(config, behaviors, options).expect("loopback run");
    let wall_s = t0.elapsed().as_secs_f64();

    assert_eq!(
        outcome.report.epochs.len(),
        epochs,
        "{churn}: one record per epoch"
    );
    let snapshot = rec.snapshot();
    let hist = snapshot
        .histograms
        .get("net.epoch_latency")
        .expect("epoch latency histogram recorded");
    assert_eq!(
        hist.count, epochs as u64,
        "{churn}: one latency observation per epoch"
    );
    let q = |p: f64| hist.quantile(p) as f64 / 1e6;
    let mut pristine = 0u64;
    let mut quarantined = 0u64;
    for e in &outcome.report.epochs {
        pristine += (e.report.accepted.len() + e.report.rejected.len()) as u64;
        quarantined += e.report.quarantined.len() as u64;
    }
    let mut corrupt = outcome.net.corrupt_frames;
    let mut reconnects = 0u64;
    for c in &outcome.clients {
        assert!(
            c.clean_shutdown,
            "{churn}: worker {} gave up instead of shutting down cleanly",
            c.worker_id
        );
        corrupt += c.corrupt_frames;
        reconnects += c.reconnects;
    }

    CaseResult {
        churn,
        submissions_per_s: pristine as f64 / wall_s,
        p50_epoch_latency_s: q(0.50),
        p90_epoch_latency_s: q(0.90),
        p99_epoch_latency_s: q(0.99),
        pristine_submissions: pristine,
        quarantined,
        corrupt_frames: corrupt,
        shed_submissions: outcome.net.shed_submissions,
        reconnects,
        wall_s,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_net.json".to_string());
    let smoke = std::env::var("BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let (workers, epochs, steps) = if smoke { (3, 2, 4) } else { (16, 6, 8) };

    let harsh = FaultConfig {
        profile: FaultProfile::harsh(),
        ..FaultConfig::lossy(11)
    };
    let cases = [
        run_case("ideal", FaultConfig::ideal(11), workers, epochs, steps),
        run_case("lossy", FaultConfig::lossy(11), workers, epochs, steps),
        run_case("harsh", harsh, workers, epochs, steps),
    ];
    for c in &cases {
        assert!(
            c.submissions_per_s > 0.0,
            "{}: no pristine submissions landed",
            c.churn
        );
    }
    // Under churn, ghost frames must actually cross the wire — otherwise
    // the regime label is a lie and the latency tail means nothing.
    for c in &cases[1..] {
        assert!(c.corrupt_frames > 0, "{}: no ghosts on the wire", c.churn);
    }

    let hw_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"workers\": {workers}, \"epochs\": {epochs}, \"steps_per_epoch\": {steps}, \"scheme\": \"RPoLv2\", \"transport\": \"loopback tcp\"}},\n"
    ));
    json.push_str(&format!("  \"host_hw_threads\": {hw_threads},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"churn\": \"{}\", \"submissions_per_s\": {:.3}, \"p50_epoch_latency_s\": {:.4}, \"p90_epoch_latency_s\": {:.4}, \"p99_epoch_latency_s\": {:.4}, \"pristine_submissions\": {}, \"quarantined\": {}, \"corrupt_frames\": {}, \"shed_submissions\": {}, \"reconnects\": {}, \"wall_s\": {:.3}}}{}\n",
            c.churn,
            c.submissions_per_s,
            c.p50_epoch_latency_s,
            c.p90_epoch_latency_s,
            c.p99_epoch_latency_s,
            c.pristine_submissions,
            c.quarantined,
            c.corrupt_frames,
            c.shed_submissions,
            c.reconnects,
            c.wall_s,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark output");

    println!("host hardware threads: {hw_threads}");
    for c in &cases {
        println!(
            "{}: {:.1} submissions/s, epoch latency p50 {:.3}s p90 {:.3}s p99 {:.3}s, {} pristine, {} quarantined, {} corrupt frames, {} shed, {} reconnects ({:.2}s wall)",
            c.churn,
            c.submissions_per_s,
            c.p50_epoch_latency_s,
            c.p90_epoch_latency_s,
            c.p99_epoch_latency_s,
            c.pristine_submissions,
            c.quarantined,
            c.corrupt_frames,
            c.shed_submissions,
            c.reconnects,
            c.wall_s,
        );
    }
    println!("wrote {out_path}");
}
