//! A pass: one fresh child process that builds the pool, runs one warm-up
//! epoch plus the timed epochs with tracing off, and reports what the
//! program's public reports say. A fresh process per pass isolates the
//! program's process-global caches and shared executor (ROADMAP item 1).

use crate::task::{self, Variant, Workload, ROSTER};
use rpol::manager::EpochReport;
use rpol::pool::{MiningPool, PoolReport, Scheme};
use rpol::server::{run_socket_pool, ServerConfig, SocketRunOptions};
use rpol::TransportStats;
use rpol_json::Value;
use serde::Serialize;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A pass that has not exited by then is killed and counted as failed.
const PASS_DEADLINE: Duration = Duration::from_secs(150);

/// One epoch as the program reported it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EpochRow {
    /// `EpochRecord.wall_seconds`.
    pub wall_s: f64,
    pub accepted: Vec<u64>,
    pub rejected: Vec<u64>,
    pub quarantined: Vec<u64>,
    /// `test_accuracy.to_bits()`: compared bit for bit.
    pub accuracy_bits: u64,
    /// `EpochReport.comm.total()`.
    pub comm_bytes: u64,
    pub double_checks: u64,
    pub replayed_steps: u64,
    /// The ten `TransportStats` counters, in declaration order.
    pub transport: Vec<u64>,
}

impl EpochRow {
    pub fn accuracy(&self) -> f64 {
        f64::from(f32::from_bits(self.accuracy_bits as u32))
    }
}

/// What one pass produced. Everything except the timings, the host readings
/// and `pass_wall_s` must repeat exactly for one commit and one seed.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct PassResult {
    /// Warm-up epoch first, then the timed epochs.
    pub epochs: Vec<EpochRow>,
    /// `run()` / `run_socket_pool` timed from outside the call.
    pub run_wall_s: f64,
    /// SHA-256 of the final global weights (empty for socket passes: the
    /// server owns the pool).
    pub weights_sha256: String,
    /// Checkpoint bytes workers hold at the end (client-side on sockets).
    pub worker_storage_bytes: u64,
    /// `frames_in, frames_out, bytes_in, bytes_out, corrupt_frames,
    /// buf_pool_hits, buf_pool_misses` of `NetStats`; empty in-process.
    pub net: Vec<u64>,
    /// Sender-side `TransportStats` summed over clients; empty in-process.
    pub client_transport: Vec<u64>,
    pub client_reconnects: u64,
    pub client_corrupt_frames: u64,
    pub client_proofs_served: u64,
    /// Clients that gave up instead of receiving `Shutdown`.
    pub unclean_clients: u64,
    pub exec_threads: u64,
    /// `VmHWM` of the child.
    pub peak_rss_kb: u64,
    /// User + system CPU seconds of the child, all threads.
    pub cpu_s: f64,
    /// Spawn to exit, timed by the parent (0 as the child prints it).
    pub pass_wall_s: f64,
}

fn ids(list: &[usize]) -> Vec<u64> {
    list.iter().map(|&w| w as u64).collect()
}

pub fn transport_counters(t: &TransportStats) -> Vec<u64> {
    vec![
        t.exchanges,
        t.attempts,
        t.retries,
        t.drops,
        t.corruptions,
        t.truncations,
        t.timeouts,
        t.failures,
        t.wire_bytes,
        t.bytes_saved,
    ]
}

pub fn epoch_row(report: &EpochReport, accuracy: f32, wall_s: f64) -> EpochRow {
    EpochRow {
        wall_s,
        accepted: ids(&report.accepted),
        rejected: ids(&report.rejected),
        quarantined: ids(&report.quarantined),
        accuracy_bits: u64::from(accuracy.to_bits()),
        comm_bytes: report.comm.total(),
        double_checks: report.double_checks as u64,
        replayed_steps: report.replayed_steps,
        transport: transport_counters(&report.transport),
    }
}

fn epoch_rows(report: &PoolReport) -> Vec<EpochRow> {
    report
        .epochs
        .iter()
        .map(|e| epoch_row(&e.report, e.test_accuracy, e.wall_seconds))
        .collect()
}

pub fn sha256_hex(weights: &[f32]) -> String {
    rpol_crypto::sha256::sha256_f32(weights).to_hex()
}

/// A `key: value kB` line of `/proc/self/status`.
fn proc_status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key)?.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// utime + stime of this process, in seconds (USER_HZ is 100 on Linux).
fn proc_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th fields of the whole line.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0)
}

/// The child side: runs the pass in this process and returns its result.
pub fn run_in_process(
    w: &Workload,
    variant: Variant,
    seed: u64,
    timed_epochs: usize,
    smoke: bool,
) -> Result<PassResult, String> {
    let cfg = task::pool_config(w, variant, seed, timed_epochs + 1, smoke);
    let mut result = if w.socket && variant == Variant::Native {
        let options = SocketRunOptions {
            server: ServerConfig {
                parallel_verify: w.parallel_verify,
                ..ServerConfig::default()
            },
            ..SocketRunOptions::default()
        };
        let start = Instant::now();
        let out = run_socket_pool(cfg, ROSTER.to_vec(), options)
            .map_err(|e| format!("run_socket_pool: {e}"))?;
        let run_wall_s = start.elapsed().as_secs_f64();
        let mut client_transport = TransportStats::default();
        for c in &out.clients {
            client_transport.merge(&c.transport);
        }
        let sum = |f: fn(&rpol::client::ClientReport) -> u64| out.clients.iter().map(f).sum();
        PassResult {
            epochs: epoch_rows(&out.report),
            run_wall_s,
            weights_sha256: String::new(),
            worker_storage_bytes: sum(|c| c.storage_bytes),
            net: vec![
                out.net.frames_in,
                out.net.frames_out,
                out.net.bytes_in,
                out.net.bytes_out,
                out.net.corrupt_frames,
                out.net.buf_pool_hits,
                out.net.buf_pool_misses,
            ],
            client_transport: transport_counters(&client_transport),
            client_reconnects: sum(|c| c.reconnects),
            client_corrupt_frames: sum(|c| c.corrupt_frames),
            client_proofs_served: sum(|c| c.proofs_served),
            unclean_clients: sum(|c| u64::from(!c.clean_shutdown)),
            ..PassResult::default()
        }
    } else {
        let mut pool = MiningPool::new(cfg, ROSTER.to_vec());
        let start = Instant::now();
        let report = pool.run();
        let run_wall_s = start.elapsed().as_secs_f64();
        PassResult {
            epochs: epoch_rows(&report),
            run_wall_s,
            weights_sha256: sha256_hex(pool.manager().global_weights()),
            worker_storage_bytes: report.worker_storage_bytes,
            ..PassResult::default()
        }
    };
    result.exec_threads = exec_threads();
    result.peak_rss_kb = proc_status_kb("VmHWM:");
    result.cpu_s = proc_cpu_seconds();
    Ok(result)
}

/// The executor width the program will use (`RPOL_EXEC_THREADS`, pinned by
/// `main()`), read the way the program's `rpol-exec` reads it.
fn exec_threads() -> u64 {
    std::env::var("RPOL_EXEC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The parent side: spawns `epoch_bench pass ...` (which inherits the pinned
/// environment `main()` set), waits for it (killing it at the deadline), and
/// parses the last line of its standard output.
pub fn spawn(
    w: &Workload,
    variant: Variant,
    seed: u64,
    timed_epochs: usize,
    smoke: bool,
) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["pass", w.name, variant.name()])
        .arg(seed.to_string())
        .arg(timed_epochs.to_string())
        .arg(if smoke { "smoke" } else { "full" })
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let start = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn pass: {e}"))?;
    // The result line is a few kilobytes, far below the pipe's capacity, so
    // the child never blocks on a full pipe while this loop only polls.
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if start.elapsed() > PASS_DEADLINE => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("pass {} exceeded {PASS_DEADLINE:?}", w.name));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait for pass: {e}"));
            }
        }
    };
    let pass_wall_s = start.elapsed().as_secs_f64();
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout)
        .map_err(|e| format!("read pass output: {e}"))?;
    if !status.success() {
        return Err(format!("pass {} exited with {status}", w.name));
    }
    let line = stdout.lines().last().unwrap_or("");
    let json = rpol_json::parse(line).map_err(|e| format!("pass output: {e}"))?;
    let mut result = parse(&json).ok_or("pass output: missing field")?;
    result.pass_wall_s = pass_wall_s;
    Ok(result)
}

fn u64_list(v: &Value) -> Option<Vec<u64>> {
    v.as_array()?.iter().map(Value::as_u64).collect()
}

/// Reads back what [`PassResult`]'s `Serialize` wrote.
pub fn parse(v: &Value) -> Option<PassResult> {
    let num = |key: &str| v.get(key)?.as_u64();
    let epochs = v
        .get("epochs")?
        .as_array()?
        .iter()
        .map(|e| {
            let num = |key: &str| e.get(key)?.as_u64();
            Some(EpochRow {
                wall_s: e.get("wall_s")?.as_f64()?,
                accepted: u64_list(e.get("accepted")?)?,
                rejected: u64_list(e.get("rejected")?)?,
                quarantined: u64_list(e.get("quarantined")?)?,
                accuracy_bits: num("accuracy_bits")?,
                comm_bytes: num("comm_bytes")?,
                double_checks: num("double_checks")?,
                replayed_steps: num("replayed_steps")?,
                transport: u64_list(e.get("transport")?)?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(PassResult {
        epochs,
        run_wall_s: v.get("run_wall_s")?.as_f64()?,
        weights_sha256: v.get("weights_sha256")?.as_str()?.to_string(),
        worker_storage_bytes: num("worker_storage_bytes")?,
        net: u64_list(v.get("net")?)?,
        client_transport: u64_list(v.get("client_transport")?)?,
        client_reconnects: num("client_reconnects")?,
        client_corrupt_frames: num("client_corrupt_frames")?,
        client_proofs_served: num("client_proofs_served")?,
        unclean_clients: num("unclean_clients")?,
        exec_threads: num("exec_threads")?,
        peak_rss_kb: num("peak_rss_kb")?,
        cpu_s: v.get("cpu_s")?.as_f64()?,
        pass_wall_s: v.get("pass_wall_s")?.as_f64()?,
    })
}

/// The part of a pass that must repeat exactly: timings and host readings
/// zeroed, everything else kept.
pub fn deterministic_part(p: &PassResult) -> PassResult {
    let mut d = p.clone();
    for e in &mut d.epochs {
        e.wall_s = 0.0;
    }
    d.run_wall_s = 0.0;
    d.peak_rss_kb = 0;
    d.cpu_s = 0.0;
    d.pass_wall_s = 0.0;
    // Buffer-pool hits depend on how reads interleave with the reactor.
    d.net.truncate(5);
    d
}

/// Whether two passes agree on verdict sets and accuracy bits in every
/// epoch: what two drivers of the same config must agree on even when their
/// transports count differently.
pub fn same_verdicts(a: &PassResult, b: &PassResult) -> bool {
    a.epochs.len() == b.epochs.len()
        && a.epochs.iter().zip(&b.epochs).all(|(x, y)| {
            x.accepted == y.accepted
                && x.rejected == y.rejected
                && x.quarantined == y.quarantined
                && x.accuracy_bits == y.accuracy_bits
        })
}

/// Worker-epochs attempted and failed in one pass. Failed: an honest worker
/// rejected or quarantined, every worker of an epoch that is missing, a
/// client that never saw `Shutdown`, and on a verifying scheme a
/// cheater-epoch that was not rejected.
pub fn operations(
    epochs: &[EpochRow],
    unclean_clients: u64,
    scheme: Scheme,
    expected_epochs: usize,
) -> (u64, u64) {
    let n = ROSTER.len() as u64;
    let attempted = expected_epochs as u64 * n;
    let missing = expected_epochs.saturating_sub(epochs.len()) as u64;
    let mut failed = missing * n + unclean_clients;
    for e in epochs {
        for w in task::honest_ids() {
            failed += u64::from(!e.accepted.contains(&(w as u64)));
        }
        if scheme != Scheme::Baseline {
            for w in task::cheater_ids() {
                failed += u64::from(!e.rejected.contains(&(w as u64)));
            }
        }
    }
    (attempted, failed)
}

/// Rejected / attempted cheater worker-epochs.
pub fn cheater_reject_share<'a>(epochs: impl IntoIterator<Item = &'a EpochRow>) -> f64 {
    let cheaters = task::cheater_ids();
    let mut rejected = 0u64;
    let mut attempted = 0u64;
    for e in epochs {
        for &w in &cheaters {
            attempted += 1;
            rejected += u64::from(e.rejected.contains(&(w as u64)));
        }
    }
    rejected as f64 / attempted.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(accepted: &[u64], rejected: &[u64], quarantined: &[u64]) -> EpochRow {
        EpochRow {
            wall_s: 0.5,
            accepted: accepted.to_vec(),
            rejected: rejected.to_vec(),
            quarantined: quarantined.to_vec(),
            accuracy_bits: u64::from(0.75f32.to_bits()),
            comm_bytes: 1 << 40,
            double_checks: 1,
            replayed_steps: 15,
            transport: (0..10).collect(),
        }
    }

    fn pass(epochs: Vec<EpochRow>) -> PassResult {
        PassResult {
            epochs,
            run_wall_s: 1.5,
            weights_sha256: "ab".repeat(32),
            worker_storage_bytes: 3_503_520,
            net: vec![1, 2, 3, 4, 5, 6, 7],
            client_transport: (10..20).collect(),
            client_reconnects: 0,
            client_corrupt_frames: 2,
            client_proofs_served: 12,
            unclean_clients: 0,
            exec_threads: 2,
            peak_rss_kb: 40_000,
            cpu_s: 2.25,
            pass_wall_s: 0.0,
        }
    }

    #[test]
    fn pass_result_round_trips_through_its_json_line() {
        let p = pass(vec![row(&[0, 1], &[2], &[]), row(&[0], &[2], &[1])]);
        let line = rpol_json::to_string(&p).expect("serializable");
        assert!(!line.contains('\n'));
        let back = parse(&rpol_json::parse(&line).expect("valid JSON")).expect("all fields");
        assert_eq!(back, p);
        assert_eq!(back.epochs[0].accuracy(), 0.75);
    }

    #[test]
    fn operations_count_honest_losses_missing_epochs_and_missed_cheaters() {
        let clean = [row(&[0, 1], &[2], &[]), row(&[0, 1], &[2], &[])];
        assert_eq!(operations(&clean, 0, Scheme::RPoLv2, 2), (6, 0));
        // Honest worker 1 quarantined once; one epoch missing (3 workers);
        // one client gave up.
        let lossy = [row(&[0], &[2], &[1])];
        assert_eq!(operations(&lossy, 1, Scheme::RPoLv1, 2), (6, 5));
        // The baseline accepts the cheater by construction: not a failure.
        let baseline = [row(&[0, 1, 2], &[], &[])];
        assert_eq!(operations(&baseline, 0, Scheme::Baseline, 1), (3, 0));
        // A verifying scheme that accepts the cheater failed.
        assert_eq!(operations(&baseline, 0, Scheme::RPoLv2, 1), (3, 1));
        assert_eq!(cheater_reject_share(&clean), 1.0);
        assert_eq!(cheater_reject_share(&baseline), 0.0);
    }

    #[test]
    fn deterministic_part_drops_timings_and_host_readings_only() {
        let a = pass(vec![row(&[0, 1], &[2], &[])]);
        let mut b = a.clone();
        b.epochs[0].wall_s = 9.0;
        b.run_wall_s = 9.0;
        b.peak_rss_kb = 9;
        b.cpu_s = 9.0;
        b.pass_wall_s = 9.0;
        b.net[5] = 99;
        assert_eq!(deterministic_part(&a), deterministic_part(&b));
        assert!(same_verdicts(&a, &b));
        b.epochs[0].transport[2] += 1;
        assert_ne!(deterministic_part(&a), deterministic_part(&b));
        assert!(same_verdicts(&a, &b));
        b.epochs[0].quarantined.push(1);
        assert!(!same_verdicts(&a, &b));
    }
}
