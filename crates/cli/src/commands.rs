//! CLI command implementations.

use crate::args::Args;
use rpol::adversary::WorkerBehavior;
use rpol::client::{ClientTuning, WorkerClient};
use rpol::committee::Hierarchy;
use rpol::pool::{MiningPool, PoolConfig, Scheme};
use rpol::server::{run_socket_pool, BindAddr, PoolServer, ServerConfig, SocketRunOptions};
use rpol::tasks::TaskConfig;
use rpol::timing::{epoch_breakdown, epoch_breakdown_faulty, TimingConfig};
use rpol::transport::{FaultConfig, FaultProfile, RetryPolicy};
use rpol::wire::{self, NetControl};
use rpol_json::Value;
use rpol_obs::export::{events_to_jsonl, render_table, snapshot_to_json};
use rpol_obs::MetricsSnapshot;
use rpol_sim::cost::CostModel;
use rpol_sim::net::NetworkModel;
use rpol_sim::workload::{DatasetKind, ModelKind, Workload};
use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Reads the shared fault-profile options (`--faults`, `--fault-seed`,
/// `--drop`, `--corrupt`, `--truncate`). Returns `None` when the perfect
/// legacy channels should be used; any rate override enables the
/// transport on top of an ideal base profile.
fn fault_config(args: &Args) -> Result<Option<FaultConfig>, String> {
    let name = args.string("faults", "none");
    let overridden = ["drop", "corrupt", "truncate"]
        .iter()
        .any(|k| args.get(k).is_some());
    let profile = match name.as_str() {
        "none" if !overridden => return Ok(None),
        "none" => FaultProfile::ideal(),
        // A bare `--faults` parses as `faults=true`: default to lossy.
        "lossy" | "true" => FaultProfile::lossy(),
        "harsh" => FaultProfile::harsh(),
        other => return Err(format!("unknown fault profile: {other}")),
    };
    let mut fault = FaultConfig {
        profile,
        policy: RetryPolicy::default(),
        net: NetworkModel::paper_default(),
        seed: args.usize("fault-seed", 42)? as u64,
    };
    fault.profile.drop_prob = args.f64("drop", fault.profile.drop_prob)?;
    fault.profile.corrupt_prob = args.f64("corrupt", fault.profile.corrupt_prob)?;
    fault.profile.truncate_prob = args.f64("truncate", fault.profile.truncate_prob)?;
    fault
        .validate()
        .map_err(|e| format!("invalid fault options: {e}"))?;
    Ok(Some(fault))
}

const FAULT_OPTIONS: [&str; 5] = ["faults", "fault-seed", "drop", "corrupt", "truncate"];

const OBS_OPTIONS: [&str; 3] = ["trace-out", "metrics-out", "profile-out"];

/// Where `--trace-out` / `--metrics-out` / `--profile-out` should land,
/// if requested.
struct ObsSinks {
    trace: Option<String>,
    metrics: Option<String>,
    profile: Option<String>,
}

impl ObsSinks {
    fn active(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some() || self.profile.is_some()
    }
}

/// Reads the observability options and, when any sink is requested, resets
/// and enables the process-wide recorder so leaf-layer counters (tensor
/// GEMM, nn passes, commitments) land in the same export.
fn obs_setup(args: &Args) -> ObsSinks {
    let sinks = ObsSinks {
        trace: args.get("trace-out").map(str::to_string),
        metrics: args.get("metrics-out").map(str::to_string),
        profile: args.get("profile-out").map(str::to_string),
    };
    if sinks.active() {
        let rec = rpol_obs::global();
        rec.reset();
        rec.enable();
    }
    sinks
}

/// Disables the global recorder and writes the requested trace/metrics
/// files. Returns the metrics snapshot so callers can print summaries.
fn obs_finish(sinks: &ObsSinks) -> Result<Option<MetricsSnapshot>, String> {
    if !sinks.active() {
        return Ok(None);
    }
    let rec = rpol_obs::global();
    rec.disable();
    if let Some(path) = &sinks.trace {
        let jsonl = events_to_jsonl(&rec.events())
            .map_err(|e| format!("trace serialization failed: {e}"))?;
        fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &sinks.profile {
        fs::write(path, rec.folded_profile()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let snapshot = rec.snapshot();
    if let Some(path) = &sinks.metrics {
        let json = snapshot_to_json(&snapshot)
            .map_err(|e| format!("metrics serialization failed: {e}"))?;
        fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(Some(snapshot))
}

/// Renders the Table II/III-style per-phase split from exported metrics:
/// simulated transport time per phase plus the protocol byte counters.
fn phase_breakdown_table(snapshot: &MetricsSnapshot) -> String {
    let mut rows = Vec::new();
    for (name, seconds) in &snapshot.gauges {
        if let Some(phase) = name.strip_prefix("sim.clock.time.") {
            rows.push(vec![phase.to_string(), format!("{seconds:.3}")]);
        }
    }
    let mut out = String::new();
    if !rows.is_empty() {
        out.push_str(&render_table(&["phase", "seconds"], &rows));
    }
    let traffic: Vec<Vec<String>> = [
        ("broadcast", "rpol.comm.broadcast_bytes"),
        ("submission", "rpol.comm.submission_bytes"),
        ("proof", "rpol.comm.proof_bytes"),
        ("commit wire", "rpol.commit.wire_bytes"),
        ("transport wire", "rpol.transport.wire_bytes"),
    ]
    .iter()
    .filter(|(_, counter)| snapshot.counters.contains_key(*counter))
    .map(|(label, counter)| vec![label.to_string(), snapshot.counter(counter).to_string()])
    .collect();
    if !traffic.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&render_table(&["traffic", "bytes"], &traffic));
    }
    out
}

/// Prints per-command help text.
pub fn print_command_help(command: &str) {
    let text = match command {
        "pool" => {
            "rpol pool — run a mining pool\n\
             --scheme=baseline|v1|v2|v3  verification scheme (default v2)\n\
             --workers=N               pool size (default 6)\n\
             --adversaries=N           cheating workers among them (default 2)\n\
             --epochs=N                epochs to run (default 4)\n\
             --committees=C            shard verification into C committees\n\
             \x20                          (two-tier hierarchy, DESIGN.md §15)\n\
             --committee-audit=Q       top-tier spot-audits per committee\n\
             \x20                          (default 1; requires --committees)\n\
             --json                    emit the full report as JSON\n\
             --faults=none|lossy|harsh route messages over a faulty transport\n\
             \x20                          (bare --faults means lossy)\n\
             --fault-seed=N            fault seed (default 42)\n\
             --drop=P --corrupt=P --truncate=P   override fault rates\n\
             --trace-out=FILE          write a JSONL span/event trace\n\
             --metrics-out=FILE        write the metrics registry as JSON\n\
             --profile-out=FILE        write span self-times in collapsed-stack\n\
             \x20                          (flamegraph folded) form"
        }
        "serve" => {
            "rpol serve — run the manager as a socket server\n\
             --listen=ADDR             host:port or unix:/path (default 127.0.0.1:7070)\n\
             --loopback                single-process smoke: spawn the worker\n\
             \x20                          clients on threads over a loopback socket\n\
             --scheme=baseline|v1|v2|v3  verification scheme (default v2)\n\
             --workers=N               roster size (default 6)\n\
             --adversaries=N           cheating workers among them (default 2)\n\
             --epochs=N                epochs to run (default 4)\n\
             --parallel-verify         verify sampled steps on threads\n\
             --committees=C            shard verification into C committees\n\
             --committee-audit=Q       top-tier spot-audits per committee (default 1)\n\
             --json                    emit the full report as JSON\n\
             --faults=none|lossy|harsh chaos-proxy profile (both ends must match)\n\
             --fault-seed=N            fault seed (default 42)\n\
             --drop=P --corrupt=P --truncate=P   override fault rates\n\
             --trace-out=FILE          write a JSONL span/event trace\n\
             --metrics-out=FILE        write the metrics registry as JSON\n\
             --profile-out=FILE        write span self-times in collapsed-stack\n\
             \x20                          (flamegraph folded) form"
        }
        "worker" => {
            "rpol worker — run one worker client against a remote manager\n\
             --connect=ADDR            host:port or unix:/path (default 127.0.0.1:7070)\n\
             --id=N                    this worker's roster id (default 0)\n\
             --trace-out=FILE          write this process's JSONL trace (child\n\
             \x20                          spans under the manager's propagated\n\
             \x20                          trace context; stitch with `rpol stitch`)\n\
             --metrics-out=FILE --profile-out=FILE   as in `rpol pool`\n\
             --scheme/--workers/--adversaries/--epochs and the fault options\n\
             \x20                          must match the server's invocation exactly:\n\
             \x20                          shards, behaviours, and chaos draws all\n\
             \x20                          derive from them"
        }
        "status" => {
            "rpol status — probe a running manager's live introspection plane\n\
             --connect=ADDR     manager address (default 127.0.0.1:7070)\n\
             --json             print the raw StatusReport JSON\n\
             --timeout-ms=N     probe read timeout (default 5000)\n\
             \n\
             The probe is a plain TCP connection sending one chaos-exempt\n\
             Status frame: no handshake, no roster slot, no effect on the\n\
             run's chaos draws or deterministic trace. The report's counter\n\
             map always equals its NetStats block (tests/net_status.rs)."
        }
        "stitch" => {
            "rpol stitch — merge per-process JSONL traces into one timeline\n\
             --traces=LIST      comma-separated `name=path` or bare paths\n\
             \x20                   (file stem becomes the process name)\n\
             --out=FILE         write the merged JSONL (default: stdout)\n\
             \n\
             Events merge in (ts, process, seq) order; each line gains a\n\
             `proc` field naming its source process. With logical clocks\n\
             and propagated trace contexts the merged timeline is causally\n\
             ordered and byte-identical across same-seed runs."
        }
        "overhead" => {
            "rpol overhead — Table II/III analytic model\n\
             --model=resnet50|vgg16   workload (default resnet50)\n\
             --workers=N              pool size (default 100)\n\
             --faults=none|lossy|harsh   charge WAN retransmissions\n\
             --drop=P --corrupt=P --truncate=P   override fault rates\n\
             --trace-out=FILE   write scheme events as JSONL\n\
             --metrics-out=FILE write the analytic gauges as JSON"
        }
        "trace-check" => {
            "rpol trace-check — validate a --trace-out JSONL trace\n\
             --file=FILE      the trace to check (required)\n\
             --require=A,B    comma-separated span/event names that must\n\
             \x20                appear (default: the core pool spans)"
        }
        _ => "unknown command; run `rpol help`",
    };
    eprintln!("{text}");
}

/// Reads the shared pool-roster options (`--scheme`, `--workers`,
/// `--adversaries`, `--epochs`) used by `pool`, `serve`, and `worker`.
/// Both sides of a socket run must pass identical values so their
/// [`PoolConfig`]s (and thus data shards and chaos draws) match.
fn roster_config(args: &Args) -> Result<(Scheme, usize, usize, usize), String> {
    let flag = args.string("scheme", "v2");
    let scheme = Scheme::ALL
        .into_iter()
        .find(|s| s.spec().flag == flag)
        .ok_or_else(|| format!("unknown scheme: {flag}"))?;
    let workers = args.usize("workers", 6)?;
    let adversaries = args.usize("adversaries", 2)?;
    let epochs = args.usize("epochs", 4)?;
    if adversaries >= workers {
        return Err("need at least one honest worker".to_string());
    }
    Ok((scheme, workers, adversaries, epochs))
}

const ROSTER_OPTIONS: [&str; 4] = ["scheme", "workers", "adversaries", "epochs"];

const HIERARCHY_OPTIONS: [&str; 2] = ["committees", "committee-audit"];

/// Reads the two-tier committee options (`--committees`, `--committee-audit`)
/// shared by `pool` and `serve`. Returns `None` when neither flag is given
/// (flat pipeline); otherwise validates the hierarchy against the scheme,
/// the fault config, and the concrete roster before handing it back.
fn hierarchy_config(
    args: &Args,
    scheme: Scheme,
    workers: usize,
    fault: Option<&FaultConfig>,
    seed: u64,
) -> Result<Option<Hierarchy>, String> {
    if args.get("committees").is_none() {
        if args.get("committee-audit").is_some() {
            return Err("--committee-audit requires --committees".to_string());
        }
        return Ok(None);
    }
    let committees = args.usize("committees", 1)?;
    let q_top = args.usize("committee-audit", 1)?;
    if !scheme.spec().verifies() {
        return Err(
            "--committees requires a verifying scheme (v1/v2/v3): the baseline \
             emits no verdicts to commit"
                .to_string(),
        );
    }
    if fault.is_some() {
        return Err("--committees cannot be combined with --faults".to_string());
    }
    let hierarchy = Hierarchy::new(committees, q_top)?;
    hierarchy.validate(workers, seed)?;
    Ok(Some(hierarchy))
}

/// The canonical adversary mix: the first `adversaries` workers alternate
/// Adv2 and replay attacks, the rest are honest.
fn roster_behaviors(workers: usize, adversaries: usize) -> Vec<WorkerBehavior> {
    (0..workers)
        .map(|i| {
            if i < adversaries {
                if i % 2 == 0 {
                    WorkerBehavior::adv2_default()
                } else {
                    WorkerBehavior::ReplayPrevious
                }
            } else {
                WorkerBehavior::Honest
            }
        })
        .collect()
}

/// Builds the [`PoolConfig`] both ends of a socket run agree on.
fn roster_pool_config(
    args: &Args,
    scheme: Scheme,
    workers: usize,
    epochs: usize,
) -> Result<PoolConfig, String> {
    let mut config = PoolConfig::paper_like(TaskConfig::task_a(), scheme, epochs);
    config.train_samples = 160 * (workers + 1);
    config.fault = fault_config(args)?;
    Ok(config)
}

/// One-line summary of the socket layer's final counters.
fn net_summary(net: &rpol::server::NetStats) -> String {
    format!(
        "net: {} accepted, {} handshakes, {} frames in / {} out, \
         {:.2} MB in / {:.2} MB out, {} corrupt, {} shed, {} evicted, {} disconnects",
        net.accepted,
        net.handshakes,
        net.frames_in,
        net.frames_out,
        net.bytes_in as f64 / 1e6,
        net.bytes_out as f64 / 1e6,
        net.corrupt_frames,
        net.shed_submissions,
        net.evicted,
        net.disconnects,
    )
}

/// `rpol pool` — run one pool and print its per-epoch report.
pub fn pool(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let mut allowed = vec!["json"];
    allowed.extend(ROSTER_OPTIONS);
    allowed.extend(HIERARCHY_OPTIONS);
    allowed.extend(FAULT_OPTIONS);
    allowed.extend(OBS_OPTIONS);
    args.expect_only(&allowed)?;
    let (scheme, workers, adversaries, epochs) = roster_config(&args)?;
    let mut config = roster_pool_config(&args, scheme, workers, epochs)?;
    config.hierarchy =
        hierarchy_config(&args, scheme, workers, config.fault.as_ref(), config.seed)?;
    let fault = config.fault;
    let behaviors = roster_behaviors(workers, adversaries);
    let sinks = obs_setup(&args);
    let mut pool = MiningPool::new(config, behaviors);
    if sinks.active() {
        pool = pool.with_recorder(rpol_obs::global().clone());
    }
    let report = pool.run();
    let snapshot = obs_finish(&sinks)?;

    if args.get("json").is_some() {
        let json = rpol_json::to_string_pretty(&report)
            .map_err(|e| format!("report serialization failed: {e}"))?;
        println!("{json}");
        return Ok(());
    }

    println!("{scheme} pool, {workers} workers ({adversaries} adversarial), {epochs} epochs");
    println!(
        "{:>6} {:>10} {:>9} {:>9} {:>12} {:>14}",
        "epoch", "accuracy", "accepted", "rejected", "quarantined", "double-checks"
    );
    for rec in &report.epochs {
        println!(
            "{:>6} {:>9.1}% {:>9} {:>9} {:>12} {:>14}",
            rec.report.epoch + 1,
            rec.test_accuracy * 100.0,
            rec.report.accepted.len(),
            rec.report.rejected.len(),
            rec.report.quarantined.len(),
            rec.report.double_checks,
        );
    }
    println!(
        "total: {} rejected submissions, {:.1} MB moved, {:.1} MB checkpoint storage, {:.2}s wall",
        report.rejections(),
        report.total_comm_bytes() as f64 / 1e6,
        report.worker_storage_bytes as f64 / 1e6,
        report.total_wall_seconds(),
    );
    if config.hierarchy.is_some() {
        let h: Vec<_> = report
            .epochs
            .iter()
            .filter_map(|rec| rec.report.hierarchy)
            .collect();
        let peak = report
            .epochs
            .iter()
            .map(|rec| rec.report.peak_commit_bytes)
            .max()
            .unwrap_or(0);
        println!(
            "hierarchy: {} committees, {} verdicts, {} audits ({} mismatched), \
             {:.1} kB batches, {:.1} kB peak commit memory",
            h.first().map(|r| r.committees).unwrap_or(0),
            h.iter().map(|r| r.verdicts).sum::<u64>(),
            h.iter().map(|r| r.audits).sum::<u64>(),
            h.iter().map(|r| r.audit_mismatches).sum::<u64>(),
            h.iter().map(|r| r.batch_bytes).sum::<u64>() as f64 / 1e3,
            peak as f64 / 1e3,
        );
    }
    if fault.is_some() {
        let t = report.transport_totals();
        println!(
            "transport: {} exchanges, {} retries, {} drops, {} corruptions, {} timeouts, \
             {} dead links, {:.1} MB on the wire",
            t.exchanges,
            t.retries,
            t.drops,
            t.corruptions,
            t.timeouts,
            t.failures,
            t.wire_bytes as f64 / 1e6,
        );
    }
    if let Some(snapshot) = &snapshot {
        let table = phase_breakdown_table(snapshot);
        if !table.is_empty() {
            println!("\nper-phase breakdown (metrics registry):");
            print!("{table}");
        }
    }
    Ok(())
}

/// `rpol overhead` — the analytic Table II/III model.
pub fn overhead(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let mut allowed = vec!["model", "workers"];
    allowed.extend(FAULT_OPTIONS);
    allowed.extend(OBS_OPTIONS);
    args.expect_only(&allowed)?;
    let model = match args.string("model", "resnet50").as_str() {
        "resnet50" => ModelKind::ResNet50,
        "vgg16" => ModelKind::Vgg16,
        "resnet18" => ModelKind::ResNet18,
        other => return Err(format!("unknown model: {other}")),
    };
    let workers = args.usize("workers", 100)?;
    if workers == 0 {
        return Err("--workers must be positive".to_string());
    }
    let workload = Workload::new(model, DatasetKind::ImageNet);
    let cost = CostModel::paper_default();
    let fault = fault_config(&args)?;

    match &fault {
        None => println!("{model} on ImageNet, {workers} workers (analytic model):"),
        Some(f) => println!(
            "{model} on ImageNet, {workers} workers (analytic model, \
             {:.0}% drop / {:.0}% corrupt / {:.0}% truncate):",
            f.profile.drop_prob * 100.0,
            f.profile.corrupt_prob * 100.0,
            f.profile.truncate_prob * 100.0,
        ),
    }
    let sinks = obs_setup(&args);
    println!(
        "{:<10} {:>11} {:>12} {:>11} {:>12} {:>10}",
        "scheme", "epoch time", "manager cpu", "comm", "storage/W", "cost"
    );
    let mut phase_rows = Vec::new();
    for scheme in Scheme::ALL {
        let cfg = TimingConfig::paper_setting(workload, scheme, workers);
        let b = match &fault {
            None => epoch_breakdown(&cfg),
            Some(f) => epoch_breakdown_faulty(&cfg, &f.profile, &f.policy),
        };
        println!(
            "{:<10} {:>10.0}s {:>11.0}s {:>9.1}GB {:>10.1}GB {:>9.2}$",
            scheme.to_string(),
            b.epoch_seconds(),
            b.manager_compute_s(),
            b.comm_bytes as f64 / 1e9,
            b.storage_per_worker_bytes as f64 / 1e9,
            b.capital_cost_usd(workers, &cost),
        );
        phase_rows.push(vec![
            scheme.to_string(),
            format!("{:.0}", b.worker_compute_s),
            format!("{:.0}", b.manager_verify_s),
            format!("{:.0}", b.manager_calibrate_s),
            format!("{:.0}", b.comm_s),
            b.comm_bytes.to_string(),
        ]);
        if sinks.active() {
            let rec = rpol_obs::global();
            let tag = scheme.to_string();
            rec.gauge_set(&format!("cli.overhead.{tag}.train_s"), b.worker_compute_s);
            rec.gauge_set(&format!("cli.overhead.{tag}.verify_s"), b.manager_verify_s);
            rec.gauge_set(
                &format!("cli.overhead.{tag}.calibrate_s"),
                b.manager_calibrate_s,
            );
            rec.gauge_set(&format!("cli.overhead.{tag}.comm_s"), b.comm_s);
            rec.counter_add(&format!("cli.overhead.{tag}.comm_bytes"), b.comm_bytes);
            rpol_obs::event!(
                rec,
                "cli.overhead.scheme",
                scheme = tag.as_str(),
                comm_bytes = b.comm_bytes
            );
        }
    }
    println!("\nper-phase breakdown (analytic, seconds):");
    print!(
        "{}",
        render_table(
            &[
                "scheme",
                "train",
                "verify",
                "calibrate",
                "comm",
                "comm bytes"
            ],
            &phase_rows,
        )
    );
    obs_finish(&sinks)?;
    Ok(())
}

/// Span/event names every pool trace must contain; `trace-check` verifies
/// them unless overridden with `--require`.
const REQUIRED_TRACE_NAMES: [&str; 3] = [
    "rpol.pool.epoch",
    "rpol.worker.train_epoch",
    "rpol.verify.worker",
];

/// `rpol trace-check` — validate a `--trace-out` JSONL file: every line
/// parses as a JSON object with a `name`, and all required names appear.
pub fn trace_check(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    args.expect_only(&["file", "require"])?;
    let path = args
        .get("file")
        .ok_or_else(|| "trace-check needs --file <trace.jsonl>".to_string())?;
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut names = std::collections::BTreeSet::new();
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let value =
            rpol_json::parse(line).map_err(|e| format!("{path}:{}: invalid JSON: {e}", i + 1))?;
        let name = value
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| format!("{path}:{}: event has no string `name`", i + 1))?;
        names.insert(name.to_string());
        lines += 1;
    }
    if lines == 0 {
        return Err(format!("{path}: trace is empty"));
    }
    let required: Vec<String> = match args.get("require") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => REQUIRED_TRACE_NAMES.iter().map(|s| s.to_string()).collect(),
    };
    for name in &required {
        if !names.contains(name) {
            return Err(format!("{path}: missing required span/event `{name}`"));
        }
    }
    println!(
        "{path}: {lines} events, {} distinct names, {} required present",
        names.len(),
        required.len()
    );
    Ok(())
}

/// `rpol serve` — stand the manager up as a socket server.
pub fn serve(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let mut allowed = vec!["listen", "loopback", "parallel-verify", "json"];
    allowed.extend(ROSTER_OPTIONS);
    allowed.extend(HIERARCHY_OPTIONS);
    allowed.extend(FAULT_OPTIONS);
    allowed.extend(OBS_OPTIONS);
    args.expect_only(&allowed)?;
    let (scheme, workers, adversaries, epochs) = roster_config(&args)?;
    let mut config = roster_pool_config(&args, scheme, workers, epochs)?;
    config.hierarchy =
        hierarchy_config(&args, scheme, workers, config.fault.as_ref(), config.seed)?;
    let behaviors = roster_behaviors(workers, adversaries);
    let server_cfg = ServerConfig {
        parallel_verify: args.get("parallel-verify").is_some(),
        ..ServerConfig::default()
    };
    let sinks = obs_setup(&args);

    let (report, net) = if args.get("loopback").is_some() {
        // Single-process smoke mode: spawn the worker clients ourselves
        // and run the whole epoch sequence over a loopback socket.
        let options = SocketRunOptions {
            server: server_cfg,
            client: ClientTuning::default(),
            recorder: sinks.active().then(|| rpol_obs::global().clone()),
            ..SocketRunOptions::default()
        };
        let outcome = run_socket_pool(config, behaviors, options)
            .map_err(|e| format!("loopback run: {e}"))?;
        for client in &outcome.clients {
            println!(
                "worker {}: {} epochs trained, {} proofs served, {} reconnects, \
                 {} corrupt frames, {:.2} MB checkpoints, {}",
                client.worker_id,
                client.epochs_trained,
                client.proofs_served,
                client.reconnects,
                client.corrupt_frames,
                client.storage_bytes as f64 / 1e6,
                if client.clean_shutdown {
                    "clean shutdown"
                } else {
                    "gave up"
                },
            );
        }
        (outcome.report, outcome.net)
    } else {
        let addr = BindAddr::parse(&args.string("listen", "127.0.0.1:7070"));
        let mut pool = MiningPool::new(config, behaviors);
        if sinks.active() {
            pool = pool.with_recorder(rpol_obs::global().clone());
        }
        let mut server =
            PoolServer::bind(pool, &addr, server_cfg).map_err(|e| format!("bind: {e}"))?;
        eprintln!(
            "listening on {} — waiting for {} workers (`rpol worker --connect=... --id=N`)",
            server.local_addr(),
            workers
        );
        let report = server.run().map_err(|e| format!("serve: {e}"))?;
        let net = server.net_stats();
        (report, net)
    };
    let snapshot = obs_finish(&sinks)?;

    if args.get("json").is_some() {
        let json = rpol_json::to_string_pretty(&report)
            .map_err(|e| format!("report serialization failed: {e}"))?;
        println!("{json}");
        return Ok(());
    }
    println!(
        "{scheme} pool over sockets, {workers} workers ({adversaries} adversarial), \
         {epochs} epochs, {} reactor",
        if net.reactor_fallbacks == 0 {
            "readiness"
        } else {
            "scan"
        }
    );
    for rec in &report.epochs {
        println!(
            "epoch {}: {:.1}% accuracy, {} accepted, {} rejected, {} quarantined, {:.2}s wall",
            rec.report.epoch + 1,
            rec.test_accuracy * 100.0,
            rec.report.accepted.len(),
            rec.report.rejected.len(),
            rec.report.quarantined.len(),
            rec.wall_seconds,
        );
    }
    println!("{}", net_summary(&net));
    if let Some(snapshot) = &snapshot {
        let table = phase_breakdown_table(snapshot);
        if !table.is_empty() {
            println!("\nper-phase breakdown (metrics registry):");
            print!("{table}");
        }
    }
    Ok(())
}

/// `rpol worker` — run one worker client against a remote manager.
pub fn worker(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let mut allowed = vec!["connect", "id"];
    allowed.extend(ROSTER_OPTIONS);
    allowed.extend(FAULT_OPTIONS);
    allowed.extend(OBS_OPTIONS);
    args.expect_only(&allowed)?;
    let (scheme, workers, adversaries, epochs) = roster_config(&args)?;
    let id = args.usize("id", 0)?;
    if id >= workers {
        return Err(format!("--id={id} out of range for --workers={workers}"));
    }
    let addr = args.string("connect", "127.0.0.1:7070");
    // The roster options must match the server's invocation exactly:
    // data shards, behaviours, and chaos draws all derive from them.
    let config = roster_pool_config(&args, scheme, workers, epochs)?;
    let behaviors = roster_behaviors(workers, adversaries);
    let worker = MiningPool::build_workers(config, &behaviors)
        .into_iter()
        .nth(id)
        .expect("id checked against roster");
    eprintln!("worker {id} connecting to {addr}");
    let sinks = obs_setup(&args);
    let mut client = WorkerClient::new(config, worker, addr, ClientTuning::default());
    if sinks.active() {
        client = client.with_recorder(rpol_obs::global().clone());
    }
    let report = client.run();
    obs_finish(&sinks)?;
    println!(
        "worker {}: {} epochs trained, {} proofs served, {} reconnects, {} heartbeats, \
         {} busy rejects, {} corrupt frames, {:.2} MB checkpoints, {}",
        report.worker_id,
        report.epochs_trained,
        report.proofs_served,
        report.reconnects,
        report.heartbeats,
        report.busy_rejects,
        report.corrupt_frames,
        report.storage_bytes as f64 / 1e6,
        if report.clean_shutdown {
            "clean shutdown"
        } else {
            "gave up"
        },
    );
    if !report.clean_shutdown {
        return Err("worker gave up before the server shut the session down".to_string());
    }
    Ok(())
}

/// `rpol status` — probe a running manager's live introspection plane.
///
/// Sends a chaos-exempt `NetControl::Status` frame over a fresh TCP
/// connection (no handshake needed) and renders the `StatusReport`. The
/// probe never joins the roster, so polling a live run perturbs neither
/// the protocol nor the deterministic trace.
pub fn status(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    args.expect_only(&["connect", "json", "timeout-ms"])?;
    let addr = args.string("connect", "127.0.0.1:7070");
    if addr.starts_with("unix:") {
        return Err("status probes are TCP-only; use --connect host:port".to_string());
    }
    let timeout = Duration::from_millis(args.usize("timeout-ms", 5000)? as u64);
    let mut stream =
        TcpStream::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("socket setup: {e}"))?;
    let framed = wire::seal_frame(&wire::encode_net_control(&NetControl::Status));
    stream
        .write_all(&framed)
        .map_err(|e| format!("cannot send status probe: {e}"))?;

    let mut asm = wire::FrameAssembler::new(wire::MAX_FRAME_BYTES);
    let mut chunk = [0u8; 4096];
    let mut payload = loop {
        if let Some(payload) = asm
            .next_frame()
            .map_err(|e| format!("malformed status frame: {e:?}"))?
        {
            break payload;
        }
        let k = stream
            .read(&mut chunk)
            .map_err(|e| format!("reading status report: {e}"))?;
        if k == 0 {
            return Err("manager closed the connection before answering".to_string());
        }
        asm.push(&chunk[..k]);
    };
    let NetControl::StatusReport { json } = wire::decode_net_control(&mut payload)
        .map_err(|e| format!("malformed status report: {e:?}"))?
    else {
        return Err("manager answered with a non-status control frame".to_string());
    };

    if args.get("json").is_some() {
        println!("{json}");
        return Ok(());
    }
    let v = rpol_json::parse(&json).map_err(|e| format!("status report is not JSON: {e}"))?;
    let num = |path: &Value, key: &str| path.get(key).and_then(|x| x.as_u64()).unwrap_or(0);
    println!(
        "manager at {addr} — protocol {}, {} workers live, {} submissions inflight",
        num(&v, "protocol"),
        num(&v, "workers"),
        num(&v, "inflight"),
    );
    let backend = v.get("backend").and_then(|b| b.as_str()).unwrap_or("?");
    if let Some(q) = v.get("queues") {
        println!(
            "reactor: {backend} backend — pump queues: {} readable, {} writable, {} timer-due",
            num(q, "readable"),
            num(q, "writable"),
            num(q, "timer"),
        );
    }
    if let Some(p) = v.get("progress") {
        println!(
            "progress: epoch {}/{}, {} accepted, {} rejected, {} quarantined, \
             {} shed, {} committees, {:.1} kB peak commit memory",
            num(p, "epochs_done"),
            num(p, "epochs_total"),
            num(p, "accepted"),
            num(p, "rejected"),
            num(p, "quarantined"),
            num(p, "shed"),
            num(p, "committees"),
            num(p, "peak_commit_bytes") as f64 / 1e3,
        );
    }
    if let Some(rows) = v.get("connections").and_then(|c| c.as_array()) {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|c| {
                vec![
                    num(c, "slot").to_string(),
                    c.get("worker")
                        .and_then(|w| w.as_f64())
                        .map(|w| {
                            if w < 0.0 {
                                "-".to_string()
                            } else {
                                format!("{w:.0}")
                            }
                        })
                        .unwrap_or_else(|| "-".to_string()),
                    c.get("phase")
                        .and_then(|p| p.as_str())
                        .unwrap_or("?")
                        .to_string(),
                    num(c, "idle_ms").to_string(),
                    num(c, "outbox").to_string(),
                ]
            })
            .collect();
        if !table.is_empty() {
            print!(
                "{}",
                render_table(&["slot", "worker", "phase", "idle ms", "outbox"], &table)
            );
        }
    }
    if let Some(entries) = v.get("counters").and_then(|c| c.entries()) {
        let rows: Vec<Vec<String>> = entries
            .iter()
            .map(|(name, val)| {
                vec![
                    name.clone(),
                    val.as_u64().map(|u| u.to_string()).unwrap_or_default(),
                ]
            })
            .collect();
        print!("{}", render_table(&["counter", "value"], &rows));
    }
    Ok(())
}

/// `rpol stitch` — merge per-process `--trace-out` JSONL traces into one
/// causally-ordered timeline (DESIGN.md §16). Each `--traces` entry is
/// `name=path` or a bare path (the file stem becomes the process name).
pub fn stitch(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    args.expect_only(&["traces", "out"])?;
    let spec = args
        .get("traces")
        .ok_or_else(|| "stitch needs --traces a.jsonl,b.jsonl or name=path,...".to_string())?;
    let mut named: Vec<(String, String)> = Vec::new();
    for entry in spec.split(',').filter(|e| !e.is_empty()) {
        let (name, path) = match entry.split_once('=') {
            Some((name, path)) => (name.to_string(), path),
            None => {
                let stem = std::path::Path::new(entry)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or(entry);
                (stem.to_string(), entry)
            }
        };
        let jsonl = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        named.push((name, jsonl));
    }
    let refs: Vec<(&str, &str)> = named
        .iter()
        .map(|(name, jsonl)| (name.as_str(), jsonl.as_str()))
        .collect();
    let merged = rpol_obs::stitch::stitch(&refs)?;
    match args.get("out") {
        Some(path) => {
            fs::write(path, &merged).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "stitched {} traces, {} events -> {path}",
                refs.len(),
                merged.lines().count()
            );
        }
        None => print!("{merged}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scheme's `--scheme` flag parses to it and its name displays;
    /// an unknown flag is refused.
    #[test]
    fn every_scheme_round_trips_its_flag_and_name() {
        let table = [
            (Scheme::Baseline, "Baseline", "baseline"),
            (Scheme::RPoLv1, "RPoLv1", "v1"),
            (Scheme::RPoLv2, "RPoLv2", "v2"),
            (Scheme::RPoLv3, "RPoLv3", "v3"),
        ];
        assert_eq!(Scheme::ALL, table.map(|(scheme, ..)| scheme));
        for (scheme, name, flag) in table {
            assert_eq!(scheme.spec().name, name);
            assert_eq!(scheme.spec().flag, flag);
            assert_eq!(scheme.to_string(), name);
            let args = Args::parse(&[format!("--scheme={flag}")]).expect("parses");
            assert_eq!(roster_config(&args).expect("known scheme").0, scheme);
        }
        let args = Args::parse(&["--scheme=v4".to_string()]).expect("parses");
        assert_eq!(
            roster_config(&args).expect_err("unknown scheme"),
            "unknown scheme: v4"
        );
    }
}
