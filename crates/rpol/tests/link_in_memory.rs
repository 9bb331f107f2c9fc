//! The in-process link is the socket server's epoch body over in-memory
//! connections (DESIGN.md §14): an epoch of it opens no socket and starts
//! no thread. Alone in its own test binary, so no other test's sockets or
//! threads show in this process's counts.

use rpol::adversary::WorkerBehavior;
use rpol::pool::{MiningPool, PoolConfig, Scheme};
use rpol::transport::FaultConfig;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:")?.trim().parse().ok())
        .expect("a Threads line")
}

/// Descriptors of this process that are sockets.
fn sockets() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| target.to_string_lossy().starts_with("socket:"))
        .count()
}

#[test]
fn a_link_epoch_opens_no_socket_and_spawns_no_thread() {
    if !std::path::Path::new("/proc/self/status").exists() {
        return; // no procfs to count with
    }
    let config = PoolConfig::tiny_demo(Scheme::RPoLv3).with_faults(FaultConfig::lossy(11));
    let roster = vec![
        WorkerBehavior::Honest,
        WorkerBehavior::ReplayPrevious,
        WorkerBehavior::Honest,
    ];
    let mut pool = MiningPool::new(config, roster).with_threads(2);
    // The first epoch brings up everything built once per pool: the
    // executor's lanes included.
    pool.run_epoch(0);
    let (threads_before, sockets_before) = (threads(), sockets());
    let record = pool.run_epoch(1);
    assert_eq!(
        threads(),
        threads_before,
        "an in-memory epoch started a thread"
    );
    assert_eq!(
        sockets(),
        sockets_before,
        "an in-memory epoch opened a socket"
    );
    // Not vacuous: the epoch crossed the link and convicted the replayer.
    assert!(record.report.transport.exchanges > 0);
    assert_eq!(record.report.rejected, vec![1]);
}
