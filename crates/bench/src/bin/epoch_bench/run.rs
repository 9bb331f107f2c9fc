//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer metrics. Both check
//! the program's outputs and count failed operations against attempted ones.

use crate::metrics::{put, Metrics, RunResult, PER_LAYER};
use crate::pass::{self, EpochRow, PassResult};
use crate::stats;
use crate::task::{self, Variant, Workload};
use crate::trace::{cost_of, self_of, Span, Tracer};
use crate::traced::{self, Composed, BEGIN, EPOCH, EVAL, FINISH, WORKER};
use rpol::pool::Scheme;

/// Timed epochs of each pass in a traced run (after one warm-up epoch).
const TRACED_EPOCHS: usize = 2;
/// Further composed epochs the traced run may add, one at a time, while the
/// conservation gate still fails: a live phase and its leaves are timed a
/// second apart on a host whose speed changes by the second, so one epoch's
/// distance is noise four times in ten; six epochs' smallest is not.
const EXTRA_TRACED_EPOCHS: usize = 4;
/// Sum of per-epoch walls vs the externally timed `run()`, flat workloads.
const WALL_CROSS_CHECK: f64 = 0.02;

pub struct RunOutcome {
    pub result: RunResult,
    /// Every output check that failed, in words.
    pub problems: Vec<String>,
    pub passes: usize,
    pub timed_epochs: usize,
    /// Traced runs: every span recorded.
    pub spans: Vec<Span>,
    /// Traced runs: where the budget failed to sum. Not part of `correct`,
    /// which judges the program's outputs: this judges the benchmark's own
    /// attribution, from two timings of the same work on a noisy host.
    pub conservation_violations: Vec<String>,
}

/// Worker-epochs attempted and failed over every pass of a run, and what
/// went wrong in words.
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn count(&mut self, what: &str, epochs: &[EpochRow], unclean: u64, scheme: Scheme, n: usize) {
        let (attempted, failed) = pass::operations(epochs, unclean, scheme, n);
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems.push(format!(
                "{what}: {failed} of {attempted} worker-epochs failed"
            ));
        }
    }

    /// Spawns a pass; a pass that dies counts every worker-epoch as failed.
    fn spawn(
        &mut self,
        w: &Workload,
        variant: Variant,
        seed: u64,
        timed_epochs: usize,
        smoke: bool,
    ) -> Option<PassResult> {
        let what = format!("{} ({})", w.name, variant.name());
        match pass::spawn(w, variant, seed, timed_epochs, smoke) {
            Ok(p) => {
                self.count(
                    &what,
                    &p.epochs,
                    p.unclean_clients,
                    w.scheme,
                    timed_epochs + 1,
                );
                Some(p)
            }
            Err(e) => {
                self.count(&what, &[], 0, w.scheme, timed_epochs + 1);
                self.problems.push(e);
                None
            }
        }
    }
}

fn timed_walls(p: &PassResult) -> Vec<f64> {
    p.epochs.iter().skip(1).map(|e| e.wall_s).collect()
}

/// The untraced run: `w.passes_in(seconds)` fresh-process passes, tracing
/// off, one after another (exactly one at smoke scale).
pub fn untraced(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> RunOutcome {
    let timed_epochs = if smoke { 1 } else { task::TIMED_EPOCHS };
    let n_passes = if smoke { 1 } else { w.passes_in(seconds) };
    let mut ledger = Ledger::new();
    let mut passes: Vec<PassResult> = Vec::new();
    for _ in 0..n_passes {
        let pass = ledger.spawn(w, Variant::Native, seed, timed_epochs, smoke);
        passes.extend(pass.filter(|p| p.epochs.len() == timed_epochs + 1));
    }
    let mut problems = std::mem::take(&mut ledger.problems);
    if passes.len() < n_passes {
        problems.push(format!("{} of {n_passes} passes completed", passes.len()));
    }

    if let Some(first) = passes.first() {
        let want = pass::deterministic_part(first);
        for (i, p) in passes.iter().enumerate().skip(1) {
            if pass::deterministic_part(p) != want {
                problems.push(format!(
                    "pass {i} disagrees with pass 0 on verdicts, accuracy bits, bytes or transport counters"
                ));
            }
        }
    }
    if !w.socket {
        for (i, p) in passes.iter().enumerate() {
            let sum: f64 = p.epochs.iter().map(|e| e.wall_s).sum();
            if (sum - p.run_wall_s).abs() > WALL_CROSS_CHECK * p.run_wall_s {
                problems.push(format!(
                    "pass {i}: epochs sum to {sum:.4} s, run() took {:.4} s",
                    p.run_wall_s
                ));
            }
        }
    }

    let mut metrics = Metrics::new();
    let walls: Vec<Vec<f64>> = passes.iter().map(timed_walls).collect();
    if let (Some(floor), Some(first)) = (stats::floor(&walls), passes.first()) {
        put(&mut metrics, "epoch_wall_s", floor);
        let samples = walls.concat();
        let p50 = stats::median(&samples).expect("at least one epoch");
        let max = stats::max(&samples).expect("at least one epoch");
        put(&mut metrics, "epoch_wall_p50_s", p50);
        put(&mut metrics, "epoch_wall_max_s", max);
        put(&mut metrics, "epoch_samples", samples.len() as f64);
        let setups: Vec<f64> = passes
            .iter()
            .map(|p| p.pass_wall_s - timed_walls(p).iter().sum::<f64>())
            .collect();
        put(
            &mut metrics,
            "setup_s",
            stats::median(&setups).expect("at least one pass"),
        );
        let rss: Vec<f64> = passes
            .iter()
            .map(|p| p.peak_rss_kb as f64 / 1024.0)
            .collect();
        put(
            &mut metrics,
            "peak_rss_mb",
            stats::median(&rss).expect("at least one pass"),
        );
        let comm: Vec<f64> = first
            .epochs
            .iter()
            .skip(1)
            .map(|e| e.comm_bytes as f64)
            .collect();
        put(
            &mut metrics,
            "comm_bytes_per_epoch",
            stats::mean(&comm).expect("at least one timed epoch"),
        );
        put(
            &mut metrics,
            "final_accuracy",
            first.epochs.last().expect("epochs ran").accuracy(),
        );
        put(
            &mut metrics,
            "worker_storage_bytes",
            first.worker_storage_bytes as f64,
        );
        if w.scheme != Scheme::Baseline {
            let rows = passes.iter().flat_map(|p| &p.epochs);
            put(
                &mut metrics,
                "cheater_reject_share",
                pass::cheater_reject_share(rows),
            );
        }
        put(
            &mut metrics,
            "failed_share",
            ledger.failed as f64 / ledger.attempted.max(1) as f64,
        );
        eprintln!(
            "epoch_bench: {}: {} passes x {timed_epochs} timed epochs; epoch wall floor {floor:.4} s, median {p50:.4} s, max {max:.4} s",
            w.name,
            passes.len(),
        );
    } else {
        problems.push("no complete pass: no metric can be reported".into());
    }
    RunOutcome {
        result: RunResult {
            correct: problems.is_empty(),
            attempted: ledger.attempted,
            failed: ledger.failed,
            metrics,
        },
        problems,
        passes: n_passes,
        timed_epochs,
        spans: Vec::new(),
        conservation_violations: Vec::new(),
    }
}

/// The reference passes of a traced run, each a fresh process.
struct ReferencePasses {
    /// The workload's scheme through `MiningPool::run()`, no transport: what
    /// the composed epochs must be equivalent to.
    flat: Option<PassResult>,
    /// Socket workloads: the workload itself, and the same config through
    /// the in-process transport.
    socket: Option<PassResult>,
    in_process: Option<PassResult>,
}

/// The traced run: one reference pass per driver the workload touches, then
/// the phase-composed epochs with spans in this process.
pub fn traced(w: &Workload, seed: u64, smoke: bool) -> RunOutcome {
    let timed_epochs = if smoke { 1 } else { TRACED_EPOCHS };
    let total_epochs = timed_epochs + 1;
    let cfg = task::pool_config(w, Variant::Flat, seed, total_epochs, smoke);
    let amlayer_s = traced::amlayer_generate_seconds(&cfg);

    let mut ledger = Ledger::new();
    let mut spawn = |variant| ledger.spawn(w, variant, seed, timed_epochs, smoke);
    let passes = ReferencePasses {
        flat: spawn(Variant::Flat),
        socket: w.socket.then(|| spawn(Variant::Native)).flatten(),
        in_process: w.socket.then(|| spawn(Variant::InProcess)).flatten(),
    };

    let mut tracer = Tracer::new();
    let mut composed = Composed::build(cfg);
    let mut rows = Vec::with_capacity(total_epochs);
    let mut last = None;
    for e in 0..total_epochs as u64 {
        let done = composed.run_epoch(e, &mut tracer);
        if e > 0 {
            composed.attribute_leaves(&done, &mut tracer);
        }
        rows.push(done.row.clone());
        last = Some(done);
    }
    let mut last = last.expect("at least one epoch ran");
    ledger.count("composed epochs", &rows, 0, w.scheme, total_epochs);
    let mut problems = std::mem::take(&mut ledger.problems);
    problems.extend(equivalence_problems(w, &passes, &rows, &composed));

    // The checks above cover the epochs the reference pass ran; any further
    // epoch only gives the conservation gate another sample.
    let mut timed: Vec<u64> = (1..total_epochs as u64).collect();
    let mut conservation = traced::conservation(tracer.spans(), &timed);
    // At smoke scale a phase lasts milliseconds: the gate would measure the
    // host, so it neither fails the run nor earns extra epochs.
    if smoke {
        conservation.violations.clear();
    }
    for e in (total_epochs as u64..).take(EXTRA_TRACED_EPOCHS) {
        if conservation.violations.is_empty() {
            break;
        }
        last = composed.run_epoch(e, &mut tracer);
        composed.attribute_leaves(&last, &mut tracer);
        timed.push(e);
        conservation = traced::conservation(tracer.spans(), &timed);
    }
    let spans = tracer.spans().to_vec();

    let mut m = Metrics::new();
    for layer in &PER_LAYER {
        put(&mut m, layer.name, 0.0);
    }
    // The epochs the reference passes ran too: compared with them index by
    // index, since epochs of different indices are different work.
    let shared = &timed[..timed_epochs];
    let critical_path = span_metrics(&mut m, &spans, &timed, shared, cfg.steps_per_epoch);
    put(&mut m, "conservation_gap_share", conservation.gap_share);
    put(&mut m, "tensor.gemm_gflops", traced::gemm_gflops(&cfg));
    put(&mut m, "amlayer.generate_s", amlayer_s);
    put(
        &mut m,
        "lsh.hashes_per_checkpoint",
        last.hashes_per_checkpoint() as f64,
    );
    let timed_rows = &rows[1..];
    let mean_of = |f: fn(&EpochRow) -> u64| {
        timed_rows.iter().map(|e| f(e) as f64).sum::<f64>() / timed_rows.len() as f64
    };
    put(
        &mut m,
        "verify.replayed_steps",
        mean_of(|e| e.replayed_steps),
    );
    put(&mut m, "verify.double_checks", mean_of(|e| e.double_checks));
    put(
        &mut m,
        "pool.final_accuracy",
        rows.last().expect("epochs ran").accuracy(),
    );

    // The workload as it natively runs: the socket pass, else the reference.
    if let Some(native) = passes.socket.as_ref().or(passes.flat.as_ref()) {
        put(&mut m, "cpu_s_per_pass", native.cpu_s);
        put(
            &mut m,
            "worker.storage_bytes",
            native.worker_storage_bytes as f64,
        );
        put(&mut m, "exec.threads", native.exec_threads as f64);
        if let (true, Some(wall)) = (w.socket, stats::mean(&timed_walls(native))) {
            put(&mut m, "server.overhead_s", wall - critical_path);
        }
    }
    if let Some(flat) = &passes.flat {
        let traced_walls: Vec<f64> = shared.iter().map(|&e| cost_of(&spans, EPOCH, e)).collect();
        if let (Some(traced), Some(untraced)) =
            (stats::mean(&traced_walls), stats::mean(&timed_walls(flat)))
        {
            put(&mut m, "obs.trace_overhead_x", traced / untraced);
        }
    }
    if let Some(socket) = &passes.socket {
        socket_metrics(&mut m, socket, composed.wire_costs(&last));
    }
    let every_row = [&passes.flat, &passes.socket, &passes.in_process]
        .into_iter()
        .flatten()
        .flat_map(|p| &p.epochs)
        .chain(&rows);
    put(
        &mut m,
        "verify.cheater_reject_share",
        pass::cheater_reject_share(every_row),
    );
    put(
        &mut m,
        "pool.failed_share",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
    );

    RunOutcome {
        result: RunResult {
            correct: problems.is_empty(),
            attempted: ledger.attempted,
            failed: ledger.failed,
            metrics: m,
        },
        problems,
        passes: 1,
        timed_epochs,
        spans,
        conservation_violations: conservation.violations,
    }
}

/// The exact gates of a traced run. Equivalence: the composed epochs are the
/// program `MiningPool::run()` is. Parity: the socket pass decides what the
/// in-process transport decides.
fn equivalence_problems(
    w: &Workload,
    passes: &ReferencePasses,
    rows: &[EpochRow],
    composed: &Composed,
) -> Vec<String> {
    let mut problems = Vec::new();
    match &passes.flat {
        Some(flat) => {
            let untimed = |rows: &[EpochRow]| -> Vec<EpochRow> {
                rows.iter()
                    .map(|e| EpochRow {
                        wall_s: 0.0,
                        ..e.clone()
                    })
                    .collect()
            };
            if untimed(rows) != untimed(&flat.epochs) {
                problems.push(
                    "composed epochs differ from MiningPool::run() in verdict sets, accuracy bits or byte counts".into(),
                );
            }
            if pass::sha256_hex(composed.global_weights()) != flat.weights_sha256 {
                problems.push("composed global weights differ from MiningPool::run()".into());
            }
            if composed.worker_storage_bytes() != flat.worker_storage_bytes {
                problems.push("composed worker storage differs from MiningPool::run()".into());
            }
        }
        None => problems.push("no reference pass: equivalence unchecked".into()),
    }
    if w.socket {
        match (&passes.socket, &passes.in_process) {
            (Some(socket), Some(in_process)) => {
                if !pass::same_verdicts(socket, in_process) {
                    problems.push(
                        "socket verdict sets or accuracy bits differ from the in-process transport"
                            .into(),
                    );
                }
            }
            _ => problems.push("socket or in-process pass missing: parity unchecked".into()),
        }
    }
    problems
}

/// The metrics read off the spans, as means over the timed epochs. Returns
/// `critical_path_s`, a mean over the `shared` epochs.
fn span_metrics(
    m: &mut Metrics,
    spans: &[Span],
    timed: &[u64],
    shared: &[u64],
    steps_per_epoch: usize,
) -> f64 {
    // `0.0 +`: an empty f64 sum is -0.0, which would print as "-0.0".
    let per_epoch = |f: &dyn Fn(u64) -> f64| {
        (0.0 + timed.iter().map(|&e| f(e)).sum::<f64>()) / timed.len() as f64
    };
    for (metric, span) in [
        ("manager.begin_epoch_s", BEGIN),
        ("calibrate.calibrate_s", "calibrate.calibrate"),
        ("lsh.generate_family_s", "lsh.generate_family"),
        ("worker.run_epoch_s", WORKER),
        ("trainer.run_epoch_s", "trainer.run_epoch"),
        ("nn.forward_s", "nn.forward"),
        ("nn.backward_s", "nn.backward"),
        ("commitment.commit_s", "commitment.commit"),
        ("lsh.hash_batch_s", "lsh.hash_batch"),
        ("crypto.commit_hash_s", "crypto.commit_hash"),
        ("tensor.quantize_s", "tensor.quantize"),
        ("manager.finish_epoch_s", FINISH),
        ("verify.verify_samples_s", "verify.verify_samples"),
        ("trainer.replay_segment_s", "trainer.replay_segment"),
        ("pool.eval_s", EVAL),
        ("traced_epoch_wall_s", EPOCH),
    ] {
        put(m, metric, per_epoch(&|e| cost_of(spans, span, e)));
    }
    let trainer_steps = task::honest_ids().len() * steps_per_epoch;
    let step_s = m["trainer.run_epoch_s"].value / trainer_steps as f64;
    put(m, "trainer.step_s", step_s);
    put(
        m,
        "manager.aggregate_s",
        per_epoch(&|e| self_of(spans, FINISH, e)),
    );
    // What an epoch would take with every worker on its own core, over the
    // epochs the socket pass ran too: `server.overhead_s` subtracts it from
    // that pass's mean epoch.
    let critical_paths: Vec<f64> = shared
        .iter()
        .map(|&e| {
            let slowest_worker = spans
                .iter()
                .filter(|s| s.name == WORKER && s.epoch == e)
                .map(Span::cost_s)
                .fold(0.0, f64::max);
            cost_of(spans, BEGIN, e)
                + slowest_worker
                + cost_of(spans, FINISH, e)
                + cost_of(spans, EVAL, e)
        })
        .collect();
    let critical_path = stats::mean(&critical_paths).expect("at least one timed epoch");
    put(m, "critical_path_s", critical_path);
    critical_path
}

/// The net layers' counts per epoch, from the socket pass, and the wire
/// codec's per-call costs times its calls per epoch.
fn socket_metrics(
    m: &mut Metrics,
    socket: &PassResult,
    (wire_costs, submission_bytes): (Vec<(&'static str, f64)>, u64),
) {
    let epochs = socket.epochs.len() as f64;
    let proofs_per_epoch = socket.client_proofs_served as f64 / epochs;
    for (name, per_call) in wire_costs {
        let calls = if name.contains("proof") {
            proofs_per_epoch
        } else {
            task::ROSTER.len() as f64
        };
        put(m, name, per_call * calls);
    }
    put(m, "wire.bytes_per_submission", submission_bytes as f64);
    // Server-side counters per epoch plus the clients' sender-side ones.
    let transport = |i: usize| {
        let server: u64 = socket.epochs.iter().map(|e| e.transport[i]).sum();
        (server + socket.client_transport[i]) as f64 / epochs
    };
    put(m, "transport.exchanges", transport(0));
    put(m, "transport.attempts", transport(1));
    put(m, "transport.retries", transport(2));
    put(m, "transport.wire_bytes", transport(8));
    put(m, "wire.bytes_saved", transport(9));
    for (i, name) in [
        "server.frames_in",
        "server.frames_out",
        "server.bytes_in",
        "server.bytes_out",
        "server.corrupt_frames",
    ]
    .into_iter()
    .enumerate()
    {
        put(m, name, socket.net[i] as f64 / epochs);
    }
    let (hits, misses) = (socket.net[5] as f64, socket.net[6] as f64);
    put(
        m,
        "server.buf_pool_hit_share",
        hits / (hits + misses).max(1.0),
    );
    put(
        m,
        "client.reconnects",
        socket.client_reconnects as f64 / epochs,
    );
    put(
        m,
        "client.corrupt_frames",
        socket.client_corrupt_frames as f64 / epochs,
    );
}
